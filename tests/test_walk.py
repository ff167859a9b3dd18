import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (damped_series_dense, numerical_gradient,
                     random_transition, rel_error, transition_backward)
from walkseg.errors import InvalidInputError
from walkseg.graph import build_sparsity, transition
from walkseg.training import softmax_loss_grad
from walkseg.walk import (rw_backward_a, rw_backward_f, rw_backward_pairs,
                          rw_forward, rw_step)


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
