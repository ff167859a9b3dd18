import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import random_image_transition, random_transition
from walkseg import solver
from walkseg.errors import ConvergenceError, InvalidInputError
from walkseg.graph import build_sparsity, transition
from walkseg.pipeline import CorruptionConfig, oracle_scene, oracle_transition
from walkseg.solver import (CG_MIN_ALPHA, DEFLATE_MIN_ALPHA, SolverConfig,
                            _symmetric_cg, _tile_space, bench_step_vs_solve,
                            dense_oracle_solve, diffuse_to_convergence, solve,
                            solve_closed_form)
from walkseg.synth import SceneSpec, generate
from walkseg.walk import rw_step


def swap_setup():
    pattern = build_sparsity(1, 2, 1)
    return transition(pattern, np.ones(2))


def test_alpha_zero_returns_scores_after_one_sweep():
    a, _ = random_transition(3, 3, 1, seed=0)
    f = np.random.default_rng(0).standard_normal((9, 3))
    y, iterations = diffuse_to_convergence(a, f, SolverConfig(alpha=0.0))
    assert iterations == 1
    np.testing.assert_array_equal(y, f)


def test_swap_fixed_point_analytic():
    # (1 - a)(I - aA)^-1 f at a = 1/2 for the two-pixel swap
    y, _ = diffuse_to_convergence(swap_setup(), np.eye(2),
                                  SolverConfig(alpha=0.5, tolerance=1e-14))
    np.testing.assert_allclose(y, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]],
                               atol=1e-12)


def test_constant_scores_are_fixed_points():
    a, _ = random_transition(4, 4, 2, seed=1)
    f = np.tile([0.4, 0.6], (a.num_pixels, 1))
    for alpha in (0.0, 0.3, 0.9):
        y, _ = diffuse_to_convergence(a, f, SolverConfig(alpha=alpha,
                                                         tolerance=1e-12))
        np.testing.assert_allclose(y, f, atol=1e-10)


def test_series_solve_alpha_zero_identity():
    a, _ = random_transition(2, 3, 1, seed=2)
    f = np.random.default_rng(1).standard_normal((6, 2))
    np.testing.assert_array_equal(
        solve_closed_form(a, f, SolverConfig(alpha=0.0)), f)


def test_series_matches_dense_inversion():
    a = random_image_transition(4, 4, 2, seed=3)
    f = np.random.default_rng(2).standard_normal((16, 3))
    cfg = SolverConfig(alpha=0.4, tolerance=1e-12)
    y = solve_closed_form(a, f, cfg)
    dense = np.linalg.solve(np.eye(16) - cfg.alpha * a.dense(), f)
    np.testing.assert_allclose(y, dense, atol=1e-8)


def test_dense_solve_agrees_with_series_on_random_scenes():
    rng = np.random.default_rng(4)
    for seed in range(5):
        a = random_image_transition(5, 5, 2, seed=seed)
        f = rng.standard_normal((25, 3))
        cfg = SolverConfig(alpha=0.25, tolerance=1e-12)
        np.testing.assert_allclose(solve_closed_form(a, f, cfg),
                                   dense_oracle_solve(a, f, cfg.alpha),
                                   atol=1e-8)


def test_argmax_equivalence_across_paths():
    rng = np.random.default_rng(5)
    for trial in range(50):
        h, w = rng.integers(2, 9, 2)
        a, _ = random_transition(int(h), int(w), int(rng.integers(1, 4)),
                                 seed=trial)
        f = rng.standard_normal((a.num_pixels, 3))
        alpha = float(rng.uniform(0.0, 0.9))
        cfg = SolverConfig(alpha=alpha, tolerance=1e-12)
        fixed, _ = diffuse_to_convergence(a, f, cfg)
        series = solve_closed_form(a, f, cfg)
        np.testing.assert_allclose(fixed / (1.0 - alpha), series, atol=1e-8)
        assert np.array_equal(np.argmax(fixed, 1), np.argmax(series, 1))


def test_single_pixel_graph_is_fixed():
    pattern = build_sparsity(1, 1, 1)
    a = transition(pattern, np.zeros(0))
    f = np.array([[0.3, 0.7]])
    np.testing.assert_array_equal(dense_oracle_solve(a, f, 0.5), f)
    np.testing.assert_array_equal(
        solve_closed_form(a, f, SolverConfig(alpha=0.5)), f)


def test_dense_guard_rejects_large_graphs():
    pattern = build_sparsity(65, 65, 1)  # 4225 pixels
    a = transition(pattern, np.ones(pattern.num_edges))
    with pytest.raises(InvalidInputError):
        dense_oracle_solve(a, np.zeros((pattern.num_pixels, 2)), 0.5)


def test_residual_contract():
    a, _ = random_transition(5, 5, 2, seed=6)
    f = np.random.default_rng(3).standard_normal((25, 4))
    cfg = SolverConfig(alpha=0.8, tolerance=1e-7)
    y, _ = diffuse_to_convergence(a, f, cfg)
    residual = np.max(np.abs(y - cfg.alpha * a.matvec(y) - (1 - cfg.alpha) * f))
    assert residual < cfg.tolerance * (1.0 + np.max(np.abs(f)))


def test_series_terms_decay_geometrically():
    a, _ = random_transition(4, 4, 2, seed=7)
    f = np.random.default_rng(4).standard_normal((16, 2))
    alpha = 0.6
    term = f
    norms = []
    for _ in range(12):
        term = alpha * a.matvec(term)
        norms.append(np.max(np.abs(term)))
    ratios = np.array(norms[1:]) / np.array(norms[:-1])
    assert np.all(ratios <= alpha + 1e-12)


def test_budget_exhaustion_reports_residual():
    """The loop and the series report the error bound they stop on:
    alpha / (1 - alpha) times the last change or the last term."""
    a, _ = random_transition(3, 3, 1, seed=8)
    f = np.random.default_rng(5).standard_normal((9, 2))
    cfg = SolverConfig(alpha=0.9, tolerance=1e-14, max_iterations=3)
    y, term = f, f
    for _ in range(3):
        y, last = rw_step(a, f, y, cfg.alpha), y
        term = cfg.alpha * a.matvec(term)
    factor = cfg.alpha / (1.0 - cfg.alpha)
    for route, bound in ((diffuse_to_convergence, np.abs(y - last).max()),
                         (solve_closed_form, np.abs(term).max())):
        with pytest.raises(ConvergenceError, match="error bound") as err:
            route(a, f, cfg)
        assert err.value.residual == factor * bound > 0
        assert err.value.iterations == 3


def test_solve_matches_scaled_reference_routes():
    """`solve` returns the damped fixed point: (1 - alpha) times the
    resolvent of the series and of the dense elimination."""
    a, _ = random_transition(3, 3, 1, seed=9)
    f = np.random.default_rng(6).standard_normal((9, 2))
    cfg = SolverConfig(alpha=0.3, tolerance=1e-12)
    y = solve(a, f, cfg)
    np.testing.assert_allclose(
        y, (1 - cfg.alpha) * solve_closed_form(a, f, cfg), atol=1e-9)
    np.testing.assert_allclose(
        y, (1 - cfg.alpha) * dense_oracle_solve(a, f, cfg.alpha), atol=1e-9)
    bad = SolverConfig(alpha=0.3)
    bad.alpha = 1.0
    with pytest.raises(InvalidInputError):
        solve(a, f, bad)


def symmetric_transition(height, width, radius, seed, scale=1.0,
                         symmetric=True):
    """Transition over random affinities equal on both edges of every
    pixel pair (unequal ones, without `symmetric`).
    About half the pixels, drawn at random, have their edges' affinities
    scaled by sqrt(`scale`) (by `scale` between two such pixels)."""
    rng = np.random.default_rng(seed)
    pattern = build_sparsity(height, width, radius)
    w = rng.uniform(0.2, 2.0, pattern.num_edges)
    s = np.where(rng.random(pattern.num_pixels) < 0.5, scale, 1.0)
    w = w * np.sqrt(s[pattern.rows] * s[pattern.cols])
    half = pattern.num_edges // 2
    if symmetric:
        w[:half] = w[half:] = np.maximum(w[:half], w[half:])
    return transition(pattern, w)


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 8), w=st.integers(1, 8), r=st.integers(1, 3),
       alpha=st.floats(0.5, 0.999), m=st.integers(1, 4),
       seed=st.integers(0, 2 ** 16), scale=st.sampled_from([1.0, 1e-6]),
       symmetric=st.booleans())
@example(h=1, w=1, r=1, alpha=0.99, m=2, seed=0, scale=1.0, symmetric=True)
@example(h=1, w=8, r=2, alpha=0.999, m=3, seed=1, scale=1.0, symmetric=True)
@example(h=7, w=1, r=1, alpha=0.9, m=1, seed=2, scale=1.0, symmetric=True)
@example(h=3, w=4, r=3, alpha=0.95, m=4, seed=3, scale=1.0, symmetric=True)
@example(h=2, w=2, r=3, alpha=0.6, m=2, seed=4, scale=1.0, symmetric=True)
@example(h=1, w=8, r=1, alpha=0.6, m=3, seed=0, scale=1e-6, symmetric=True)
@example(h=2, w=8, r=1, alpha=0.6, m=3, seed=0, scale=1e-6, symmetric=True)
@example(h=6, w=7, r=2, alpha=0.99, m=3, seed=5, scale=1.0, symmetric=True)
@example(h=3, w=2, r=1, alpha=0.98, m=2, seed=6, scale=1.0, symmetric=True)
@example(h=1, w=13, r=3, alpha=0.995, m=2, seed=7, scale=1.0, symmetric=True)
@example(h=5, w=6, r=9, alpha=0.99, m=3, seed=8, scale=1.0, symmetric=True)
@example(h=8, w=8, r=2, alpha=0.99, m=4, seed=9, scale=1e-6, symmetric=True)
@example(h=1, w=1, r=1, alpha=0.999, m=1, seed=10, scale=1.0, symmetric=True)
@example(h=5, w=6, r=2, alpha=0.9, m=3, seed=11, scale=1.0, symmetric=False)
@example(h=8, w=8, r=2, alpha=0.99, m=2, seed=12, scale=1.0, symmetric=False)
def test_solve_error_is_bounded_by_tolerance(h, w, r, alpha, m, seed, scale,
                                             symmetric):
    """At large alpha `solve` (conjugate gradients on symmetric W, the loop
    below the crossover) lands within `tolerance` of the exact damped
    fixed point. A small `scale` spreads the degrees from about 1 down to
    1e-6, where the stop rule must weigh each pixel's residual by its own
    D_i^-1/2. The bound CG reports covers the error it made, up to the
    rounding of the two solves where CG lands on the exact answer. From
    `DEFLATE_MIN_ALPHA` on, the examples give the tile coarse space
    partial tiles, a grid inside one tile, a 1 x N grid, a radius beyond
    the image and a pixel without neighbors. Where W's two halves differ,
    `solve` runs the loop. Up to alpha 0.99 the loop and the series, which
    stop on their own error bounds, land within `tolerance` too: the
    series of the resolvent (I - alpha A)^-1 f, before the (1 - alpha)."""
    assume(symmetric or alpha <= 0.99)  # the loop's budget of 10000 sweeps
    a = symmetric_transition(h, w, r, seed, scale, symmetric)
    f = np.random.default_rng(seed).standard_normal((a.num_pixels, m))
    cfg = SolverConfig(alpha=alpha)
    resolvent = dense_oracle_solve(a, f, alpha)
    exact = (1.0 - alpha) * resolvent
    error = np.max(np.abs(solve(a, f, cfg) - exact))
    assert error < cfg.tolerance
    if alpha >= CG_MIN_ALPHA and symmetric:
        space = _tile_space if alpha >= DEFLATE_MIN_ALPHA else None
        assert error <= _symmetric_cg(a, f, cfg, space)[1]["bound"] + 1e-12
    if alpha <= 0.99:  # both take about log(tolerance) / log(alpha) products
        y, _ = diffuse_to_convergence(a, f, cfg)
        assert np.max(np.abs(y - exact)) < cfg.tolerance
        series = solve_closed_form(a, f, cfg)
        assert np.max(np.abs(series - resolvent)) < cfg.tolerance


@settings(max_examples=30, deadline=None)
@given(h=st.integers(1, 6), w=st.integers(1, 6), r=st.integers(1, 8),
       alpha=st.sampled_from([0.6, 0.99]), seed=st.integers(0, 2 ** 16))
@example(h=1, w=1, r=1, alpha=0.6, seed=0)  # no pairs
@example(h=1, w=1, r=3, alpha=0.99, seed=1)
@example(h=1, w=6, r=2, alpha=0.6, seed=2)
@example(h=6, w=1, r=1, alpha=0.99, seed=3)
@example(h=3, w=4, r=8, alpha=0.6, seed=4)  # radius beyond the image
@example(h=5, w=2, r=6, alpha=0.99, seed=5)
def test_solve_through_the_csr_form_of_s_matches_dense(h, w, r, alpha, seed):
    """Conjugate gradients form K_h in the pattern's row order once per
    solve; on grids without pairs, of one row or column, and with the
    radius beyond the image, `solve` lands within `tolerance` of the dense
    damped fixed point, plain and deflated."""
    a = symmetric_transition(h, w, r, seed)
    f = np.random.default_rng(seed).standard_normal((a.num_pixels, 3))
    cfg = SolverConfig(alpha=alpha)
    exact = (1.0 - alpha) * dense_oracle_solve(a, f, alpha)
    assert np.max(np.abs(solve(a, f, cfg) - exact)) < cfg.tolerance


def spy_on_conjugate_gradients(monkeypatch):
    """Wrap `solver._symmetric_cg` so that each call's report is kept."""
    reports, cg = [], solver._symmetric_cg

    def spy(*args, **kwargs):
        y, report = cg(*args, **kwargs)
        reports.append(report)
        return y, report
    monkeypatch.setattr(solver, "_symmetric_cg", spy)
    return reports


def test_solve_is_the_route_table(monkeypatch):
    """Through `solve` only: the loop just below CG_MIN_ALPHA and on
    per-edge W at any alpha, plain conjugate gradients from CG_MIN_ALPHA
    to just below DEFLATE_MIN_ALPHA, and deflated ones from it on."""
    reports = spy_on_conjugate_gradients(monkeypatch)
    pair = symmetric_transition(8, 8, 2, seed=15)
    edge = symmetric_transition(8, 8, 2, seed=15, symmetric=False)
    f = np.random.default_rng(15).standard_normal((64, 3))
    cases = [(pair, np.nextafter(CG_MIN_ALPHA, 0.0), None),
             (pair, CG_MIN_ALPHA, False),
             (pair, np.nextafter(DEFLATE_MIN_ALPHA, 0.0), False),
             (pair, DEFLATE_MIN_ALPHA, True), (pair, 0.99, True),
             (edge, CG_MIN_ALPHA, None), (edge, DEFLATE_MIN_ALPHA, None)]
    for a, alpha, deflated in cases:
        reports.clear()
        cfg = SolverConfig(alpha=float(alpha))
        y = solve(a, f, cfg)
        if deflated is None:
            assert reports == []
            np.testing.assert_array_equal(
                y, diffuse_to_convergence(a, f, cfg)[0])
        else:
            assert len(reports) == 1
            assert (reports[0]["aggregates"] > 0) == deflated


def test_bench_times_the_route_solve_takes(monkeypatch):
    """At alpha 0.99 `walkseg bench` times deflated conjugate gradients,
    which `solve` runs on its per-pair W, and reports their iterations,
    not the loop's sweeps."""
    reports = spy_on_conjugate_gradients(monkeypatch)
    bench = bench_step_vs_solve([(8, 8), (12, 12)], radius=2,
                                cfg=SolverConfig(alpha=0.99), repeats=1)
    assert [row.iters for row in bench.rows] == [
        report["iterations"] for report in reports]
    assert all(report["aggregates"] > 0 for report in reports)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_scores_are_rejected_on_every_route(monkeypatch, bad):
    """One non-finite score is bad input: `solve` raises InvalidInputError
    before any product on the loop, plain and deflated conjugate gradient
    routes, instead of running out of iterations or failing inside
    scipy's banded solve."""
    products = []
    for name in ("rw_step", "csr_matvecs"):
        monkeypatch.setattr(solver, name, lambda *args: products.append(1))
    a = symmetric_transition(8, 8, 2, seed=16)
    f = np.random.default_rng(16).standard_normal((64, 3))
    f[17, 1] = bad
    for alpha in (0.01, CG_MIN_ALPHA, DEFLATE_MIN_ALPHA):
        with pytest.raises(InvalidInputError, match="non-finite"):
            solve(a, f, SolverConfig(alpha=alpha))
    assert products == []


def test_asymmetric_affinities_keep_the_loop():
    a, w = random_transition(3, 3, 1, seed=12)
    half = a.pattern.num_edges // 2
    assert not np.array_equal(w[:half], w[half:]) and not a.symmetric
    f = np.random.default_rng(8).standard_normal((9, 3))
    cfg = SolverConfig(alpha=0.99)
    y, _ = diffuse_to_convergence(a, f, cfg)
    np.testing.assert_array_equal(solve(a, f, cfg), y)


def test_conjugate_gradient_budget_exhaustion_reports_bound():
    a = symmetric_transition(6, 6, 2, seed=13)
    f = np.random.default_rng(9).standard_normal((36, 2))
    with pytest.raises(ConvergenceError) as err:
        solve(a, f, SolverConfig(alpha=0.99, max_iterations=2))
    assert err.value.residual > 0
    assert err.value.iterations == 2


def test_oracle_scene_at_large_alpha_meets_tolerance(monkeypatch):
    """The fixed-point loop's old stop rule, max|dy| < 1e-6, left this scene
    about 3e-5 away from the dense solve at alpha 0.99. Conjugate gradients
    get there in far fewer products with S than the loop's sweeps. At
    tolerance 1e-13 the updated residual passes the stop test before the
    recomputed one does, so CG restarts from the recomputed residual."""
    (_, labels), = generate(SceneSpec(32, 32, seed=1), 1)
    damaged, _ = oracle_scene(labels, CorruptionConfig(seed=0), 4)
    a = oracle_transition(labels, 5)
    exact = (1.0 - 0.99) * dense_oracle_solve(a, damaged, 0.99)
    products = []
    csr_matvecs = solver.csr_matvecs  # one CSR pass per product with S
    monkeypatch.setattr(solver, "csr_matvecs",
                        lambda *args: products.append(1) or csr_matvecs(*args))
    cfg = SolverConfig(alpha=0.99, tolerance=1e-13)
    y, report = _symmetric_cg(a, damaged, cfg, _tile_space)
    assert report["products"] == len(products)
    assert report["restarts"] >= 1 and report["bound"] < cfg.tolerance
    assert np.max(np.abs(y - exact)) <= 1e-9
    products.clear()
    cfg = SolverConfig(alpha=0.99)
    y, report = _symmetric_cg(a, damaged, cfg, _tile_space)
    assert report["products"] == len(products)
    monkeypatch.undo()
    np.testing.assert_array_equal(solve(a, damaged, cfg), y)
    assert np.max(np.abs(y - exact)) < 1e-6
    y_loop, sweeps = diffuse_to_convergence(a, damaged, cfg)
    assert np.max(np.abs(y_loop - exact)) < 1e-6
    assert report["products"] < sweeps / 4


def test_deflation_cuts_products_on_an_oracle_scene():
    """At alpha 0.99 the coarse space takes the 32 x 32 oracle scene's
    slow modes out of the solve: it needs at most 0.35 times the products
    of plain conjugate gradients, and lands as close to the dense solve
    with the same labels. On oracle W the strong pairs of a 4 x 4 tile are
    its same-label pairs, all within R5 of each other, so the aggregates
    are the tiles' label classes: 89 of them in 64 tiles."""
    (_, labels), = generate(SceneSpec(32, 32, seed=1), 1)
    damaged, _ = oracle_scene(labels, CorruptionConfig(seed=0), 4)
    a = oracle_transition(labels, 5)
    exact = (1.0 - 0.99) * dense_oracle_solve(a, damaged, 0.99)
    cfg = SolverConfig(alpha=0.99)
    assert cfg.alpha >= DEFLATE_MIN_ALPHA
    y, report = _symmetric_cg(a, damaged, cfg, _tile_space)
    y_plain, plain = _symmetric_cg(a, damaged, cfg, coarse_space=None)
    tiles = tile_of(32, 32, 5)
    assert report["aggregates"] == np.unique(
        tiles * 4 + labels.ravel()).size == 89
    assert plain["aggregates"] == 0
    assert report["products"] <= 0.35 * plain["products"]
    assert np.max(np.abs(y - exact)) < 1e-6
    np.testing.assert_array_equal(np.argmax(y, 1), np.argmax(y_plain, 1))
    np.testing.assert_array_equal(np.argmax(y, 1), np.argmax(exact, 1))


def tile_of(height, width, radius):
    """Each pixel's tile, row-major, in tiles of max(4, ceil(R / 2))
    pixels a side."""
    side = max(4, -(-radius // 2))
    y, x = np.divmod(np.arange(height * width), width)
    return y // side * -(-width // side) + x // side


def segment_transition(labels, radius, weak, seed):
    """Random affinities, uniform in [0.2, 2] per pixel pair, times `weak`
    on the pairs whose pixels' `labels` differ: oracle W has them 1 and
    1e-6."""
    flat = np.ravel(labels)
    pattern = build_sparsity(*np.shape(labels), radius)
    same = flat[pattern.rows_h] == flat[pattern.cols_h]
    w = np.random.default_rng(seed).uniform(0.2, 2.0, pattern.num_pairs)
    return transition(pattern, w * np.where(same, 1.0, weak))


def coarse_space_and_k(a, alpha=0.99):
    """`_tile_space` on the K_h that conjugate gradients form, and the
    dense K = I - alpha S = I + K_h + K_h^T."""
    root = np.sqrt(a.degree)[:, None]
    k = np.eye(a.num_pixels) - alpha * root * a.dense() / root.T
    p, n = a.pattern, a.num_pixels
    k_h = sp.csr_matrix(sp.coo_matrix(
        (-alpha * a.weights / root[p.rows_h, 0] / root[p.cols_h, 0],
         (p.rows_h, p.cols_h)), shape=(n, n)))
    return _tile_space(a, k_h, root), root, k


def assert_galerkin(a, space, root, k):
    """Against the dense K: Z - leak is K Z, Z has one entry, root_i, per
    pixel, the coarse solve inverts E = Z^T K Z, and E is zero between
    aggregates whose tiles lie more than min(2, down - 1) across + 2
    apart in row-major order, the band its factor relies on."""
    z, leak, coarse_solve = space
    z = z.toarray()
    np.testing.assert_array_equal(np.count_nonzero(z, 1), 1)
    np.testing.assert_array_equal(z.sum(1), root[:, 0])
    np.testing.assert_allclose(z - leak.toarray(), k @ z, atol=1e-12)
    e = z.T @ k @ z
    p = a.pattern
    side = max(4, -(-p.radius // 2))
    down, across = -(-p.height // side), -(-p.width // side)
    tile = np.zeros(z.shape[1], dtype=int)
    tile[np.argmax(z != 0, axis=1)] = tile_of(p.height, p.width, p.radius)
    gap = np.abs(tile[:, None] - tile[None, :])
    np.testing.assert_array_equal(
        e[gap > min(2, down - 1) * across + 2], 0.0)
    np.testing.assert_allclose(coarse_solve(e), np.eye(z.shape[1]),
                               atol=1e-9)
    return z


@pytest.mark.parametrize("h, w, r, tiles", [(12, 13, 5, 12), (20, 20, 9, 16),
                                           (3, 2, 1, 1), (1, 13, 3, 4),
                                           (36, 40, 3, 90), (12, 100, 3, 75),
                                           (3, 100, 3, 25), (6, 24, 3, 12)])
def test_tile_space_is_the_galerkin_coarse_space(h, w, r, tiles):
    """On random W with no weak pair no tile splits, so the aggregates are
    the tiles of max(4, ceil(R / 2)) pixels a side, whatever the image
    size, and the space is the Galerkin one (`assert_galerkin`). The tile
    band min(2, down - 1) across + 2 is 22 for 90 tiles, 2 on one row of
    25 tiles and 8 on two rows of 6."""
    a = symmetric_transition(h, w, r, seed=14)
    space, root, k = coarse_space_and_k(a)
    z = assert_galerkin(a, space, root, k)
    assert z.shape == (a.num_pixels, tiles)
    np.testing.assert_array_equal(np.argmax(z != 0, axis=1),
                                  tile_of(h, w, r))


def test_tile_space_splits_tiles_along_weak_pairs():
    """On oracle-like two-level W (1e-6 across a segment boundary) a tile
    that the boundary crosses splits into one aggregate per segment part,
    ordered by tile, then by least pixel, and the space is still the
    Galerkin one."""
    labels = np.zeros((10, 11), dtype=int)
    labels[np.add.outer(np.arange(10), np.arange(11)) > 9] = 1  # diagonal
    labels[7:, :3] = 2
    a = segment_transition(labels, 5, 1e-6, seed=17)
    space, root, k = coarse_space_and_k(a)
    z = assert_galerkin(a, space, root, k)
    tiles = tile_of(10, 11, 5)
    keys = tiles * 3 + labels.ravel()
    assert z.shape[1] == np.unique(keys).size > tiles.max() + 1
    aggregate = np.argmax(z != 0, axis=1)
    for index in np.unique(aggregate):  # one (tile, label) class each
        assert np.unique(keys[aggregate == index]).size == 1
    first = [np.flatnonzero(aggregate == index)[0]
             for index in range(z.shape[1])]
    assert sorted(first, key=lambda i: (tiles[i], i)) == first


def reference_aggregates(a):
    """Connected components of the strong pairs of `a` inside each tile,
    by scipy's graph labelling from the pair list: an aggregate index per
    pixel, and the tiles with a weak pair inside them."""
    from scipy.sparse.csgraph import connected_components

    p, n = a.pattern, a.num_pixels
    inv_root = 1.0 / np.sqrt(a.degree)
    # products in `_tile_space`'s order, so that both round alike
    s = a.weights * inv_root[p.rows_h] * inv_root[p.cols_h]
    peak = np.zeros(n)
    np.maximum.at(peak, p.rows_h, a.weights * inv_root[p.cols_h])
    np.maximum.at(peak, p.cols_h, a.weights * inv_root[p.rows_h])
    peak *= inv_root
    tile = tile_of(p.height, p.width, p.radius)
    inside = tile[p.rows_h] == tile[p.cols_h]
    strong = s >= solver.STRONG_PAIR * np.minimum(peak[p.rows_h],
                                                  peak[p.cols_h])
    joined = inside & strong
    graph = sp.coo_matrix((np.ones(joined.sum()),
                           (p.rows_h[joined], p.cols_h[joined])),
                          shape=(n, n))
    _, component = connected_components(graph, directed=False)
    return component, np.unique(tile[p.rows_h[inside & ~strong]])


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 10), w=st.integers(1, 10), r=st.integers(1, 10),
       classes=st.integers(1, 3), weak=st.sampled_from([1.0, 0.3, 1e-3, 1e-6]),
       seed=st.integers(0, 2 ** 16))
@example(h=1, w=1, r=1, classes=1, weak=1.0, seed=0)  # no pairs
@example(h=1, w=10, r=2, classes=2, weak=1e-6, seed=1)  # one grid row
@example(h=3, w=4, r=10, classes=2, weak=1e-6, seed=2)  # R beyond the image
@example(h=4, w=4, r=3, classes=3, weak=1e-3, seed=3)  # a single tile
@example(h=8, w=8, r=1, classes=3, weak=1e-6, seed=4)  # isolated pixels
@example(h=9, w=10, r=5, classes=2, weak=0.3, seed=5)
def test_aggregates_are_the_strong_components_of_each_tile(h, w, r, classes,
                                                           weak, seed):
    """Each aggregate lies in one tile, its pixels are joined by strong
    pairs inside it (S_ij >= STRONG_PAIR min(max_k S_ik, max_k S_jk)),
    and it is maximal: the aggregates are the components scipy's graph
    labelling finds, in tile order, then by least pixel. A tile with no
    weak pair inside is one aggregate. Conjugate gradients deflated by
    them land within `tolerance` of the dense damped fixed point at alpha
    0.97 and 0.99. The W are random, times `weak` across the segments of
    random labels, so that pixels whose in-tile pairs are all weak stand
    alone."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, (h, w))
    a = segment_transition(labels, r, weak, seed)
    (z, _, _), _, _ = coarse_space_and_k(a)
    aggregate = z.indices
    component, split = reference_aggregates(a)
    tile = tile_of(h, w, r)
    pairs = np.unique(np.stack([aggregate, component, tile]), axis=1)
    assert pairs.shape[1] == z.shape[1]  # one component and tile each
    assert np.unique(pairs[1]).size == z.shape[1]  # and all of it
    assert np.all(np.diff(pairs[0]) > 0)
    first = np.array([np.flatnonzero(aggregate == index)[0]
                      for index in range(z.shape[1])])
    assert np.all(np.diff(tile[first] * a.num_pixels + first) > 0)
    whole = ~np.isin(tile, split)
    np.testing.assert_array_equal(
        np.unique(np.stack([tile[whole], aggregate[whole]]), axis=1)[0],
        np.unique(tile[whole]))
    f = rng.standard_normal((a.num_pixels, 3))
    for alpha in (0.97, 0.99):
        cfg = SolverConfig(alpha=alpha)
        y, _ = _symmetric_cg(a, f, cfg, _tile_space)
        exact = (1.0 - alpha) * dense_oracle_solve(a, f, alpha)
        assert np.max(np.abs(y - exact)) < cfg.tolerance


def test_accuracy_improves_monotonically_with_steps():
    """With affinities built from ground truth, stepping the damped walk
    never costs more than half a point of pixel accuracy."""
    (image, labels), = generate(SceneSpec(), 1, start_index=2)
    damaged, _ = oracle_scene(labels, CorruptionConfig(seed=1))
    a = oracle_transition(labels, 5)
    y = damaged
    accuracies = [float(np.mean(np.argmax(y, 1) == labels.ravel()))]
    for _ in range(12):
        y = rw_step(a, damaged, y, 0.3)
        accuracies.append(float(np.mean(np.argmax(y, 1) == labels.ravel())))
    for before, after in zip(accuracies, accuracies[1:]):
        assert after >= before - 0.005


def test_solutions_independent_of_column_order():
    a, _ = random_transition(4, 5, 2, seed=11)
    f = np.random.default_rng(7).standard_normal((20, 4))
    cfg = SolverConfig(alpha=0.3, tolerance=1e-12)
    perm = np.array([2, 0, 3, 1])
    for solver_fn in (lambda m, x: diffuse_to_convergence(m, x, cfg)[0],
                      lambda m, x: solve_closed_form(m, x, cfg),
                      lambda m, x: dense_oracle_solve(m, x, cfg.alpha)):
        direct = solver_fn(a, f)
        permuted = solver_fn(a, f[:, perm])[:, np.argsort(perm)]
        np.testing.assert_array_equal(direct[:, perm][:, np.argsort(perm)],
                                      direct)
        np.testing.assert_allclose(permuted, direct, atol=1e-12)


def test_bench_report_shape_and_csv():
    report = bench_step_vs_solve([(8, 8), (12, 12)], radius=2,
                                 cfg=SolverConfig(), repeats=3)
    lines = report.to_csv().splitlines()
    assert lines[0] == "n_pixels,radius,nnz,step_ms,solve_ms,dense_ms,iters"
    assert len(lines) == 3
    for row in report.rows:
        assert row.step_ms > 0 and row.solve_ms > 0 and row.dense_ms > 0
        assert row.iters >= 1


def test_doubling_radius_roughly_quadruples_step_time():
    """Edge count scales like the neighborhood area, so doubling the radius
    should land the per-step cost ratio near 4. The two radii are timed in
    alternation, repeat by repeat, so that host drift moves both medians
    alike. One retry absorbs scheduler noise in the timing."""
    from walkseg.solver import _median_time

    rng = np.random.default_rng(0)
    steps = []
    for radius in (5, 10):
        pattern = build_sparsity(64, 64, radius)
        a = transition(pattern, rng.uniform(0.5, 1.5, pattern.num_edges))
        f = rng.standard_normal((pattern.num_pixels, 3))
        a.matvec(f)
        steps.append(lambda a=a, f=f: a.matvec(f))

    for attempt in range(2):
        times = np.array([[_median_time(step, 1) for step in steps]
                          for _ in range(15)])
        ratio = np.median(times[:, 1]) / np.median(times[:, 0])
        if 3.0 <= ratio <= 5.0:
            break
    assert 3.0 <= ratio <= 5.0, f"step-time ratio {ratio:.2f} outside [3, 5]"
