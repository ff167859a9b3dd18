import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (damped_series_dense, numerical_gradient,
                     random_transition, rel_error, rw_backward_pairs_by_window,
                     transition_backward)
from walkseg import pipeline
from walkseg.errors import InvalidInputError
from walkseg.features import FilterBankConfig
from walkseg.graph import build_sparsity, neighbor_offsets, transition
from walkseg.solver import SolverConfig, dense_oracle_solve
from walkseg.training import ModelCheckpoint, UnaryParams, softmax_loss_grad
from walkseg.walk import (certify_labels, rw_backward_a, rw_backward_f,
                          rw_backward_pairs, rw_forward, rw_step)

EPS = np.finfo(np.float64).eps


def swap_transition():
    pattern = build_sparsity(1, 2, 1)
    return transition(pattern, np.ones(2))


def test_forward_swaps_two_pixels():
    y = rw_forward(swap_transition(), np.eye(2))
    np.testing.assert_array_equal(y, [[0.0, 1.0], [1.0, 0.0]])


def test_forward_preserves_constant_rows():
    a, _ = random_transition(4, 4, 2, seed=3)
    row = np.array([0.2, 0.5, 0.3])
    f = np.tile(row, (a.num_pixels, 1))
    np.testing.assert_allclose(rw_forward(a, f), f, atol=1e-12)


def test_forward_matches_dense_product():
    a, _ = random_transition(3, 3, 1, seed=5)
    f = np.random.default_rng(0).standard_normal((9, 4))
    np.testing.assert_allclose(rw_forward(a, f), a.dense() @ f, atol=1e-12)


def test_forward_shape_mismatch_rejected():
    with pytest.raises(InvalidInputError):
        rw_forward(swap_transition(), np.zeros((3, 2)))


def test_step_alpha_zero_returns_scores():
    a, _ = random_transition(3, 3, 1, seed=1)
    f = np.random.default_rng(1).standard_normal((9, 2))
    y0 = np.random.default_rng(2).standard_normal((9, 2))
    np.testing.assert_array_equal(rw_step(a, f, y0, 0.0), f)


def test_step_alpha_one_is_pure_walk():
    a, _ = random_transition(3, 3, 1, seed=2)
    f = np.random.default_rng(3).standard_normal((9, 2))
    np.testing.assert_array_equal(rw_step(a, f, f, 1.0), rw_forward(a, f))


def test_step_alpha_out_of_range_rejected():
    a = swap_transition()
    with pytest.raises(InvalidInputError):
        rw_step(a, np.eye(2), np.eye(2), 1.5)


@pytest.mark.parametrize("t", [1, 3, 7, 10])
def test_iterated_steps_match_closed_series(t):
    a, _ = random_transition(4, 4, 2, seed=17)
    rng = np.random.default_rng(23)
    f = rng.standard_normal((16, 3))
    alpha = 0.35
    y = f
    for _ in range(t):
        y = rw_step(a, f, y, alpha)
    expected = damped_series_dense(a.dense(), f, alpha, t)
    np.testing.assert_allclose(y, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# adjoints


def test_backward_f_zero_gradient():
    a, _ = random_transition(2, 3, 1, seed=0)
    np.testing.assert_array_equal(rw_backward_f(a, np.zeros((6, 2))), 0.0)


def test_backward_f_transposes_swap():
    dy = np.array([[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(rw_backward_f(swap_transition(), dy),
                                  [[0.0, 0.0], [1.0, 0.0]])


def test_backward_f_matches_finite_differences():
    a, _ = random_transition(3, 4, 2, seed=9)
    rng = np.random.default_rng(4)
    f = rng.standard_normal((12, 3))
    labels = rng.integers(0, 3, 12)

    def loss():
        return softmax_loss_grad(rw_forward(a, f), labels)[0]

    _, dy = softmax_loss_grad(rw_forward(a, f), labels)
    df = rw_backward_f(a, dy)
    assert rel_error(df, numerical_gradient(loss, f)) < 1e-6


def test_backward_a_zero_scores():
    a, _ = random_transition(2, 2, 1, seed=0)
    dy = np.ones((4, 2))
    np.testing.assert_array_equal(
        rw_backward_a(a.pattern, dy, np.zeros((4, 2))), 0.0)


def test_backward_a_rank_one_outer_product():
    pattern = build_sparsity(1, 2, 1)
    dy = np.array([[1.0], [0.0]])
    f = np.array([[0.0], [0.5]])
    np.testing.assert_array_equal(rw_backward_a(pattern, dy, f), [0.5, 0.0])


def test_backward_a_matches_finite_differences():
    """Perturb the free per-edge entries of A directly."""
    pattern = build_sparsity(3, 3, 1)
    rng = np.random.default_rng(6)
    a_values = rng.uniform(0.1, 0.9, pattern.num_edges)
    f = rng.standard_normal((9, 3))
    labels = rng.integers(0, 3, 9)

    from walkseg.graph import TransitionMatrix

    def loss():
        free_a = TransitionMatrix(pattern, a_values,
                                  np.ones(pattern.num_pixels))
        return softmax_loss_grad(rw_forward(free_a, f), labels)[0]

    free_a = TransitionMatrix(pattern, a_values, np.ones(pattern.num_pixels))
    _, dy = softmax_loss_grad(rw_forward(free_a, f), labels)
    da = rw_backward_a(pattern, dy, f)
    assert rel_error(da, numerical_gradient(loss, a_values)) < 1e-6


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 8), w=st.integers(1, 8), r=st.integers(1, 12),
       m=st.integers(1, 3), mirrored=st.booleans(), alpha=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 16))
@example(h=1, w=1, r=1, m=1, mirrored=True, alpha=0.5, seed=0)
@example(h=1, w=2, r=1, m=2, mirrored=True, alpha=1.0, seed=1)
@example(h=1, w=8, r=3, m=3, mirrored=False, alpha=0.5, seed=2)
@example(h=8, w=1, r=4, m=1, mirrored=False, alpha=0.01, seed=3)
@example(h=5, w=6, r=12, m=2, mirrored=False, alpha=0.3, seed=4)
@example(h=8, w=8, r=12, m=3, mirrored=True, alpha=0.0, seed=5)
def test_pair_backward_is_the_edge_chain_summed_per_pair(h, w, r, m, mirrored,
                                                         alpha, seed):
    """`rw_backward_pairs` against the per-edge chain dA -> dW folded onto
    pixel pairs, alpha (dW[:E/2] + dW[E/2:]), for W equal on both edges of
    every pixel pair and for W whose halves differ, on grids of 1x1 to
    8x8 and radii past the grid's diagonal. The floor is for pairs whose
    exact sum is 0, as on a 2-pixel grid."""
    rng = np.random.default_rng(seed)
    pattern = build_sparsity(h, w, r)
    half = pattern.num_edges // 2
    weights = rng.uniform(0.2, 2.0, pattern.num_edges)
    if mirrored:
        weights[half:] = weights[:half]
    a = transition(pattern, weights)
    dy = rng.standard_normal((h * w, m))
    f = rng.standard_normal((h * w, m))
    dw = transition_backward(a, rw_backward_a(pattern, dy, f))
    np.testing.assert_allclose(
        rw_backward_pairs(a, dy, f, rw_forward(a, f), alpha),
        alpha * (dw[:half] + dw[half:]), rtol=1e-12, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 9), w=st.integers(1, 9), r=st.integers(1, 12),
       m=st.integers(1, 4), alpha=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 16))
@example(h=1, w=9, r=3, m=2, alpha=0.5, seed=0)
@example(h=9, w=1, r=4, m=1, alpha=0.01, seed=1)
@example(h=4, w=5, r=12, m=3, alpha=1.0, seed=2)
@example(h=1, w=1, r=1, m=1, alpha=0.5, seed=3)
def test_pair_backward_by_shift_is_the_window_einsum(h, w, r, m, alpha, seed):
    """The flat-shift dots of `rw_backward_pairs` are bit-identical to one
    einsum per offset window, on 1 x N and N x 1 grids and at radii that
    reach past the grid: each pair's dot pairs the same two rows."""
    rng = np.random.default_rng(seed)
    pattern = build_sparsity(h, w, r)
    a = transition(pattern, rng.uniform(0.2, 2.0, pattern.num_pairs))
    dy = rng.standard_normal((h * w, m))
    f = rng.standard_normal((h * w, m))
    af = rw_forward(a, f)
    np.testing.assert_array_equal(
        rw_backward_pairs(a, dy, f, af, alpha),
        rw_backward_pairs_by_window(a, dy, f, af, alpha))


# ---------------------------------------------------------------------------
# structural properties


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 300))
def test_stochastic_rows_stay_stochastic(seed):
    a, _ = random_transition(3, 4, 2, seed=seed)
    rng = np.random.default_rng(seed)
    f = rng.dirichlet(np.ones(3), size=a.num_pixels)
    y = rw_forward(a, f)
    assert np.all(y >= -1e-12)
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 300))
def test_forward_is_linear(seed):
    a, _ = random_transition(3, 3, 1, seed=seed)
    rng = np.random.default_rng(seed + 1)
    f1 = rng.standard_normal((9, 2))
    f2 = rng.standard_normal((9, 2))
    np.testing.assert_allclose(rw_forward(a, f1 + f2),
                               rw_forward(a, f1) + rw_forward(a, f2),
                               atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(h=st.integers(1, 7), w=st.integers(1, 7), r=st.integers(1, 8),
       mirrored=st.booleans(), seed=st.integers(0, 300))
@example(h=1, w=1, r=1, mirrored=False, seed=0)
@example(h=1, w=6, r=2, mirrored=False, seed=1)
@example(h=6, w=1, r=3, mirrored=True, seed=2)
@example(h=3, w=4, r=8, mirrored=False, seed=3)
@example(h=4, w=3, r=5, mirrored=True, seed=4)
def test_adjoint_identity(h, w, r, mirrored, seed):
    """<A f, g> == <f, A^T g>, and A^T is the dense transpose, for random
    (asymmetric) W and for W equal on both edges of every pixel pair."""
    rng = np.random.default_rng(seed)
    pattern = build_sparsity(h, w, r)
    weights = rng.uniform(0.2, 2.0, pattern.num_edges)
    if mirrored:
        half = pattern.num_edges // 2
        weights[half:] = weights[:half]
    a = transition(pattern, weights)
    assert a.symmetric == (mirrored or pattern.num_edges == 0)
    f = rng.standard_normal((h * w, 3))
    g = rng.standard_normal((h * w, 3))
    lhs = float(np.sum(rw_forward(a, f) * g))
    rhs = float(np.sum(f * rw_backward_f(a, g)))
    assert abs(lhs - rhs) < 1e-10
    np.testing.assert_allclose(rw_backward_f(a, g), a.dense().T @ g,
                               rtol=0, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 300))
def test_max_principle(seed):
    a, _ = random_transition(3, 4, 2, seed=seed)
    f = np.random.default_rng(seed + 3).standard_normal((12, 3))
    y = rw_forward(a, f)
    eps = 1e-12
    assert np.all(y <= f.max(axis=0) + eps)
    assert np.all(y >= f.min(axis=0) - eps)


# ---------------------------------------------------------------------------
# label certificates


def decided(y, gap):
    """Rows of y whose top class leads the next by more than `gap`, the
    rounding of the reference that computed y."""
    if y.shape[1] == 1:
        return np.ones(len(y), dtype=bool)
    top_two = np.sort(y, axis=1)[:, -2:]
    return top_two[:, 1] - top_two[:, 0] > gap


@settings(max_examples=150, deadline=None)
@given(h=st.integers(1, 6), w=st.integers(1, 6), r=st.integers(1, 8),
       m=st.integers(1, 3), mirrored=st.booleans(),
       alpha=st.sampled_from([0.0, 0.01, 0.1, 0.49, 0.9]),
       scores=st.sampled_from(["normal", "coarse", "tied", "one-hot"]),
       seed=st.integers(0, 2 ** 16))
@example(h=1, w=1, r=1, m=3, mirrored=True, alpha=0.9, scores="normal",
         seed=0)
@example(h=1, w=1, r=2, m=2, mirrored=True, alpha=0.49, scores="tied", seed=1)
@example(h=1, w=6, r=2, m=3, mirrored=False, alpha=0.1, scores="coarse",
         seed=2)
@example(h=6, w=1, r=3, m=2, mirrored=True, alpha=0.9, scores="normal",
         seed=3)
@example(h=4, w=5, r=8, m=3, mirrored=False, alpha=0.49, scores="one-hot",
         seed=4)
@example(h=3, w=3, r=8, m=1, mirrored=True, alpha=0.01, scores="normal",
         seed=5)
def test_certified_labels_are_the_walks(h, w, r, m, mirrored, alpha, scores,
                                        seed):
    """A label that `certify_labels` certifies, from f alone or after one
    or two sweeps, is the argmax of the exact fixed point (a dense solve)
    and of 1-3 damped steps (2-3 after two sweeps), for W symmetric or
    not, on 1x1 to 6x6 grids with
    radii past their diagonal, one to three classes, exact ties (equal
    columns, scores on a coarse grid) and one-hot scores. Only the
    references' own rounding leaves a row out, and tied rows are never
    certified."""
    rng = np.random.default_rng(seed)
    pattern = build_sparsity(h, w, r)
    half = pattern.num_pairs
    weights = rng.uniform(0.2, 2.0, pattern.num_edges)
    if mirrored:
        weights[half:] = weights[:half]
    a = transition(pattern, weights)
    n = h * w
    f = {"normal": lambda: rng.standard_normal((n, m)),
         "coarse": lambda: np.round(rng.standard_normal((n, m)), 1),
         "tied": lambda: np.repeat(rng.standard_normal((n, 1)), m, axis=1),
         "one-hot": lambda: np.eye(m)[rng.integers(0, m, n)]}[scores]()
    walks = [(1.0 - alpha) * dense_oracle_solve(a, f, alpha)]
    for _ in range(3):
        walks.append(rw_step(a, f, walks[-1] if len(walks) > 1 else f, alpha))
    gap = 1e-9 * (1.0 + np.abs(f).max())
    linked = np.flatnonzero(np.diff(pattern.indptr) > 0)
    af_error = (np.diff(pattern.indptr).max() + 2) * EPS * np.abs(f).max()
    af, y1 = a.matvec(f), walks[1]
    two = (a.matvec(af)[linked], 2.0 * af_error,
           rw_step(a, f, y1, alpha)[linked])
    for rows, (labels, certain), reached in (
            (np.arange(n), certify_labels(f, alpha), walks),
            (linked, certify_labels(f, alpha, linked, af[linked], af_error),
             walks),
            (linked, certify_labels(f, alpha, linked, *two, hops=2),
             walks[:1] + walks[2:])):
        if scores == "tied" and m > 1:
            assert not certain.any()
        if scores == "normal" and alpha == 0.0:
            assert certain.all()
        for y in reached:
            y = y[rows]
            sure = certain & decided(y, gap)
            np.testing.assert_array_equal(labels[sure],
                                          np.argmax(y, axis=1)[sure])


def test_certificate_leaves_a_rounding_sized_gap_open():
    """Scores one ulp apart are not certified, since the interval ends
    carry their own rounding, and a gap of 1e-12 is. On two swapping
    pixels at alpha 0.6, one sweep's argmax differs from the fixed
    point's, and neither f nor the sweep certifies it."""
    f = np.array([[1.0, np.nextafter(1.0, 2.0)]])
    labels, certain = certify_labels(f, 0.5)
    assert not certain.any()
    labels, certain = certify_labels(f + [0.0, 1e-12], 0.5)
    assert certain.all() and labels.tolist() == [1]
    a = transition(build_sparsity(1, 2, 1), np.ones(1))
    f = np.array([[0.0, 1e-12], [1e-12, 0.0]])
    labels, certain = certify_labels(f, 0.0)
    assert certain.all() and labels.tolist() == [1, 0]
    af = a.matvec(f)
    assert np.argmax(rw_step(a, f, f, 0.6), axis=1).tolist() == [0, 1]
    assert np.argmax(dense_oracle_solve(a, f, 0.6), axis=1).tolist() == [1, 0]
    for certificate in (certify_labels(f, 0.6),
                        certify_labels(f, 0.6, [0, 1], af, 4 * EPS)):
        assert not certificate[1].any()


def tiny_checkpoint(rng, classes, tied=False):
    bank = FilterBankConfig(f1=1, f2=1, seed=3)
    weights = rng.normal(0.0, 2.0, (classes, bank.num_channels))
    bias = rng.normal(0.0, 0.1, classes)
    if tied:
        weights[1:], bias[1:] = weights[0], bias[0]
    return ModelCheckpoint(rng.normal(-0.5, 0.3, bank.num_channels),
                           UnaryParams(weights, bias), bank, classes)


@settings(max_examples=40, deadline=None)
@given(h=st.integers(1, 7), w=st.integers(1, 7), r=st.integers(1, 9),
       m=st.integers(1, 3), tied=st.booleans(),
       alpha=st.sampled_from([0.0, 0.01, 0.1, 0.49, 0.7]),
       steps=st.sampled_from([1, 3, "converge"]), seed=st.integers(0, 2 ** 16))
@example(h=1, w=1, r=1, m=3, tied=False, alpha=0.01, steps="converge",
         seed=0)
@example(h=1, w=7, r=2, m=2, tied=True, alpha=0.1, steps=1, seed=1)
@example(h=7, w=1, r=9, m=3, tied=False, alpha=0.7, steps=3, seed=2)
def test_predict_labels_are_predicts(h, w, r, m, tied, alpha, steps, seed):
    """`predict_labels` gives `predict`'s labels wherever `predict`'s walk
    decides them (within its tolerance), on the loop and on conjugate
    gradients, and all of them when a pixel falls back, as an exact tie
    (equal classifier rows) always does. Its counts add up to the
    pixels."""
    rng = np.random.default_rng(seed)
    ckpt = tiny_checkpoint(rng, m, tied)
    image = rng.uniform(0.0, 1.0, (h, w, 3))
    cfg = SolverConfig(alpha=alpha)
    expected, y = pipeline.predict(ckpt, image, steps, r, cfg)
    labels, counts = pipeline.predict_labels(ckpt, image, steps, r, cfg)
    assert sum(counts.values()) == h * w
    if tied and m > 1:
        assert counts["fallback"] > 0
    if counts["fallback"]:
        np.testing.assert_array_equal(labels, expected)
    sure = decided(y, 2.0 * cfg.tolerance + 1e-9)
    np.testing.assert_array_equal(labels.ravel()[sure],
                                  expected.ravel()[sure])
    # with no budget on the gathered rows, every sweep runs
    with mock.patch.object(pipeline, "LOCAL_SWEEP_MAX_SHARE", 1e9):
        unbounded, counts = pipeline.predict_labels(ckpt, image, steps, r, cfg)
    assert sum(counts.values()) == h * w
    if counts["fallback"]:
        np.testing.assert_array_equal(unbounded, expected)
    np.testing.assert_array_equal(unbounded.ravel()[sure],
                                  expected.ravel()[sure])


@settings(max_examples=40, deadline=None)
@given(h=st.integers(1, 9), w=st.integers(1, 9), r=st.integers(1, 4),
       k=st.integers(1, 4), hops=st.integers(1, 3),
       alpha=st.sampled_from([0.01, 0.5, 0.9]), seed=st.integers(0, 2 ** 16))
@example(h=9, w=9, r=2, k=3, hops=3, alpha=0.5, seed=0)
@example(h=1, w=5, r=4, k=1, hops=2, alpha=0.9, seed=1)
def test_local_walk_is_the_walk(h, w, r, k, hops, alpha, seed):
    """K local sweeps over gathered rows of W give A^K f and y_K on the
    chosen pixels, as K products with the full route's transition do,
    within the bound they return, gathering each pixel's row once; past
    the rows' budget they give nothing and gather nothing."""
    assume(h * w > 1)
    rng = np.random.default_rng(seed)
    stack = rng.normal(0.0, 1.0, (h, w, k))
    theta = rng.normal(-0.5, 0.3, k)
    f = rng.standard_normal((h * w, 3))
    a = pipeline._learned_transition(stack, theta, r)
    af, y = f, f
    for _ in range(hops):
        af, y = a.matvec(af), rw_step(a, f, y, alpha)
    pixels = np.unique(rng.integers(0, h * w, 3))
    width = 2 * len(neighbor_offsets(h, w, r))
    rows = pipeline._GatheredRows(stack, r, theta, h * w, width, np.inf)
    local_af, bound, local_y = pipeline._local_walk(rows, f, alpha, pixels,
                                                    hops)
    reference = 4 * width * EPS * np.abs(f).max()  # the products' rounding
    assert np.all(np.abs(local_af - af[pixels]) <= bound + reference)
    assert np.all(np.abs(local_y - y[pixels]) <= alpha * bound + reference)
    assert np.all(bound < 1e-9)
    assert len(rows.w) == np.count_nonzero(rows.slot >= 0)  # each row once
    rows = pipeline._GatheredRows(stack, r, theta, h * w, width,
                                  width * pixels.size - 1)
    assert pipeline._local_walk(rows, f, alpha, pixels, hops) is None
    assert len(rows.w) == 0


def test_predict_labels_on_one_pixel():
    """A 1x1 image has no neighbor, so y = (1 - alpha) f, outside the
    interval of f alone but ordered as f: certified by f at every alpha
    and steps, and `predict`'s label."""
    rng = np.random.default_rng(7)
    ckpt = tiny_checkpoint(rng, 3)
    ckpt.unary.bias[:] = [0.0, 2.0, 1.0]  # a 1x1 stack normalizes to 0
    image = rng.uniform(0.0, 1.0, (1, 1, 3))
    for alpha in (0.0, 0.5, 0.99):
        for steps in (1, 2, "converge"):
            cfg = SolverConfig(alpha=alpha)
            labels, counts = pipeline.predict_labels(ckpt, image, steps, 2,
                                                     cfg)
            assert counts == dict(scores=1, sweep=0, fallback=0)
            expected, _ = pipeline.predict(ckpt, image, steps, 2, cfg)
            assert labels.tolist() == expected.tolist() == [[1]]


def test_the_walk_runs_without_the_feature_stack(monkeypatch):
    """`predict` and the labels route's fallback drop the feature stack
    once W is built, so that no stack is alive while the walk runs."""
    stacks, alive = [], []
    prepare, diffuse = pipeline.prepare_stack, pipeline.diffuse

    def keep(*args):
        stack = prepare(*args)
        stacks.append(weakref.ref(stack))
        return stack

    def check(*args):
        gc.collect()
        alive.append(any(ref() is not None for ref in stacks))
        return diffuse(*args)
    monkeypatch.setattr(pipeline, "prepare_stack", keep)
    monkeypatch.setattr(pipeline, "diffuse", check)
    rng = np.random.default_rng(8)
    ckpt = tiny_checkpoint(rng, 3, tied=True)  # an exact tie falls back
    image = rng.uniform(0.0, 1.0, (6, 7, 3))
    cfg = SolverConfig(alpha=0.7)
    pipeline.predict(ckpt, image, "converge", 2, cfg)
    _, counts = pipeline.predict_labels(ckpt, image, "converge", 2, cfg)
    assert counts["fallback"] > 0
    assert alive == [False, False]
