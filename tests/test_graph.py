import io
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (affinity_backward, numerical_gradient, pair_weights,
                     random_stack, random_transition, rel_error,
                     tiny_feature_setup, transition_backward)
from walkseg import graph
from walkseg.errors import InvalidInputError
from walkseg.features import per_channel_normalize
from walkseg.graph import (_build_sparsity, affinity_forward,
                           affinity_loss_grad, build_sparsity,
                           channel_distances, dump_edges,
                           ground_truth_affinity, learned_affinity,
                           neighbor_affinity, pair_affinity_backward,
                           same_label_pairs, transition)
from walkseg.training import softmax_loss_grad, unary_forward, init_unary
from walkseg.walk import rw_backward_a, rw_backward_pairs, rw_step

# ---------------------------------------------------------------------------
# sparsity pattern


def test_four_neighborhood_on_3x3():
    pattern = build_sparsity(3, 3, 1)
    assert pattern.num_edges == 24  # 12 undirected grid edges, both directions


def test_single_pixel_has_no_neighbors():
    pattern = build_sparsity(1, 1, 5)
    assert pattern.num_edges == 0
    assert pattern.indptr.tolist() == [0, 0]
    # no edge reads the lone pixel's degree; 1 keeps 1 / D finite
    assert transition(pattern, np.zeros(0)).degree.tolist() == [1.0]


def test_radius_two_on_2x2_is_complete():
    pattern = build_sparsity(2, 2, 2)
    assert pattern.num_edges == 12  # complete graph on 4 nodes, no self-loops


def test_zero_dimension_rejected():
    with pytest.raises(InvalidInputError):
        build_sparsity(0, 3, 1)


@settings(max_examples=25, deadline=None)
@given(h=st.integers(1, 6), w=st.integers(1, 6), r=st.integers(1, 4))
def test_pattern_invariants(h, w, r):
    pattern = build_sparsity(h, w, r)
    rows, cols = pattern.rows, pattern.cols
    assert not np.any(rows == cols)  # no self edges
    # slot t and its mirror t + half join the same pixel pair
    half = pattern.num_edges // 2
    assert np.array_equal(rows[half:], cols[:half])
    assert np.array_equal(cols[half:], rows[:half])
    # each row lists distinct neighbors, as many as indptr counts
    for i in range(pattern.num_pixels):
        row = cols[rows == i]
        assert np.unique(row).size == row.size
        assert row.size == pattern.indptr[i + 1] - pattern.indptr[i]
    # one index dtype, the int32 that scipy keeps without a copy
    for array in (pattern.indptr, rows, cols):
        assert array.dtype == np.int32
    # membership iff Euclidean offset within radius
    ys, xs = rows // w, rows % w
    yt, xt = cols // w, cols % w
    dist2 = (ys - yt) ** 2 + (xs - xt) ** 2
    assert np.all(dist2 > 0) and np.all(dist2 <= r * r)
    expected = 0
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if 0 < dy * dy + dx * dx <= r * r:
                expected += max(0, h - abs(dy)) * max(0, w - abs(dx))
    assert pattern.num_edges == expected


def test_pattern_is_memoised_and_read_only():
    pattern = build_sparsity(5, 7, 2)
    assert build_sparsity(5, 7, 2) is pattern
    assert build_sparsity(np.int64(5), np.int64(7), 2) is pattern
    assert build_sparsity(5, 7, 3) is not pattern
    # the directed edges' views too, once read
    assert pattern.rows is pattern.rows and pattern.cols is pattern.cols
    arrays = [value for value in vars(pattern).values()
              if isinstance(value, np.ndarray)]
    assert len(arrays) == 5
    for array in arrays:
        assert array.dtype == np.int32
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1


@settings(max_examples=40, deadline=None)
@given(h=st.integers(1, 7), w=st.integers(1, 7), r=st.integers(1, 9),
       seed=st.integers(0, 2 ** 16))
@example(h=1, w=1, r=1, seed=0)  # no pairs
@example(h=1, w=9, r=2, seed=1)
@example(h=4, w=3, r=6, seed=2)  # radius beyond the image
def test_row_order_is_the_csr_form_of_the_pairs(h, w, r, seed):
    """`row_order` is a permutation of the pair slots under which any
    pair array is the CSR matrix of W_h; its arrays are read-only."""
    pattern = build_sparsity(h, w, r)
    order, cols, indptr = pattern.row_order
    assert pattern.row_order is pattern.row_order
    np.testing.assert_array_equal(np.sort(order), np.arange(pattern.num_pairs))
    n = pattern.num_pixels
    v = np.random.default_rng(seed).uniform(0.1, 2.0, pattern.num_pairs)
    csr = sp.csr_matrix((v[order], cols, indptr), shape=(n, n))
    assert csr.has_sorted_indices
    dense = sp.coo_matrix((v, (pattern.rows_h, pattern.cols_h)),
                          shape=(n, n)).toarray()
    np.testing.assert_array_equal(csr.toarray(), dense)
    for array in (order, cols, indptr):
        assert array.dtype == np.int32
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0


# ---------------------------------------------------------------------------
# distances


def test_distance_is_absolute_difference():
    stack = np.array([[[0.2], [0.7]]])
    pattern = build_sparsity(1, 2, 1)
    fdist = channel_distances(stack, pattern)
    np.testing.assert_allclose(fdist, 0.5)


def test_identical_pixels_give_zero_distance():
    stack = np.ones((2, 2, 4)) * 0.3
    pattern = build_sparsity(2, 2, 1)
    assert not channel_distances(stack, pattern).any()


def test_distance_symmetry_on_random_stack():
    stack = random_stack(5, 5, 3, seed=9)
    pattern = build_sparsity(5, 5, 2)
    fdist = channel_distances(stack, pattern)
    half = pattern.num_edges // 2
    np.testing.assert_array_equal(fdist[:half], fdist[half:])


def test_distance_shape_mismatch_rejected():
    with pytest.raises(InvalidInputError):
        channel_distances(np.ones((3, 3, 2)), build_sparsity(2, 2, 1))


def test_stack_or_labels_of_another_grid_shape_rejected():
    """Equal pixel counts are not enough: a 2x8 stack or label map does
    not fit a 4x4 pattern."""
    pattern = build_sparsity(4, 4, 1)
    stack = np.random.default_rng(0).random((2, 8, 2))
    with pytest.raises(InvalidInputError, match="does not match"):
        channel_distances(stack, pattern)
    with pytest.raises(InvalidInputError, match="does not match"):
        learned_affinity(stack, pattern, np.ones(2))
    w = np.ones(pattern.num_edges)
    with pytest.raises(InvalidInputError, match="does not match"):
        pair_affinity_backward(stack, pattern, pair_weights(w, w))
    with pytest.raises(InvalidInputError, match="pixel pairs"):
        pair_affinity_backward(np.zeros((4, 4, 2)), pattern, w)
    for labels in (np.zeros((2, 8)), np.zeros(16)):
        with pytest.raises(InvalidInputError, match="do not match"):
            ground_truth_affinity(labels, pattern)


def test_flat_stack_rejected():
    pattern = build_sparsity(2, 2, 1)
    with pytest.raises(InvalidInputError, match="bad stack shape"):
        channel_distances(np.ones((4, 2)), pattern)
    with pytest.raises(InvalidInputError, match="bad stack shape"):
        learned_affinity(np.ones((4, 2)), pattern, np.ones(2))


# ---------------------------------------------------------------------------
# affinity head


def test_zero_parameters_give_unit_affinities():
    pattern = build_sparsity(3, 3, 1)
    fdist = channel_distances(random_stack(3, 3, 4, seed=1), pattern)
    np.testing.assert_array_equal(affinity_forward(fdist, np.zeros(4)), 1.0)


def test_single_channel_analytic_value():
    fdist = np.array([[0.5]])
    w = affinity_forward(fdist, np.array([-1.0]))
    np.testing.assert_allclose(w, np.exp(-0.5))


def test_zero_distance_ignores_parameter_scale():
    fdist = np.zeros((1, 3))
    for scale in (1.0, 2.0):
        np.testing.assert_array_equal(
            affinity_forward(fdist, scale * np.ones(3)), 1.0)


def test_non_finite_theta_rejected():
    with pytest.raises(InvalidInputError):
        affinity_forward(np.ones((2, 2)), np.array([1.0, np.nan]))


def test_affinity_symmetry_preserved():
    stack = per_channel_normalize(random_stack(4, 4, 3, seed=2))
    pattern = build_sparsity(4, 4, 2)
    w = affinity_forward(channel_distances(stack, pattern),
                         np.array([-1.0, 0.5, -0.2]))
    half = pattern.num_edges // 2
    np.testing.assert_array_equal(w[:half], w[half:])
    assert np.all(w > 0)


# ---------------------------------------------------------------------------
# offset-major affinity layer against the gather reference


@settings(max_examples=80, deadline=None)
@given(h=st.integers(1, 9), w=st.integers(1, 9), r=st.integers(1, 11),
       k=st.integers(1, 40), count=st.integers(0, 30),
       seed=st.integers(0, 2 ** 16))
@example(h=1, w=1, r=1, k=2, count=1, seed=0)
@example(h=1, w=9, r=3, k=5, count=4, seed=1)
@example(h=9, w=1, r=11, k=40, count=30, seed=2)
@example(h=9, w=9, r=4, k=40, count=30, seed=3)  # several runs of pairs
def test_neighbor_affinity_is_learned_affinity_per_pixel(h, w, r, k, count,
                                                         seed):
    """Each pixel's row of `neighbor_affinity` lists its neighbors in the
    pattern once each, and their W within the returned bound of
    `learned_affinity`'s, on 1x1 to 9x9 grids with radii past their
    diagonal and pixels repeated in any order."""
    rng = np.random.default_rng(seed)
    pattern = build_sparsity(h, w, r)
    stack = per_channel_normalize(rng.uniform(0.0, 1.0, (h, w, k)))
    theta = rng.normal(-0.5, 1.0, k)
    w_dense = np.zeros((h * w, h * w))
    w_dense[pattern.rows_h, pattern.cols_h] = learned_affinity(
        stack, pattern, theta)
    w_dense += w_dense.T
    pixels = rng.integers(0, h * w, count)
    neighbors, w_rows, error = neighbor_affinity(stack, r, theta, pixels)
    offsets = 2 * len(graph.neighbor_offsets(h, w, r))
    assert neighbors.shape == w_rows.shape == (count, offsets)
    assert np.all(error < 1e-9)
    for p, row, values, bound in zip(pixels, neighbors, w_rows, error):
        inside = row != p
        start, stop = pattern.indptr[p], pattern.indptr[p + 1]
        expected = np.sort(np.concatenate((
            pattern.cols_h[pattern.rows_h == p],
            pattern.rows_h[pattern.cols_h == p])))
        assert stop - start == inside.sum()
        np.testing.assert_array_equal(np.sort(row[inside]), expected)
        assert np.all(values[~inside] == 0.0)
        assert np.all(np.abs(values[inside] / w_dense[p, row[inside]] - 1.0)
                      <= bound)


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 7), w=st.integers(1, 7), r=st.integers(1, 9),
       k=st.integers(1, 4), m=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
@example(h=1, w=7, r=3, k=1, m=2, seed=0)
@example(h=7, w=1, r=9, k=3, m=1, seed=1)
@example(h=5, w=6, r=9, k=4, m=3, seed=2)
@example(h=1, w=1, r=2, k=2, m=1, seed=3)
@example(h=5, w=3, r=5, k=1, m=1, seed=5)  # dtheta is 7e-6 of its rounded sum
def test_offset_major_layer_matches_gather(h, w, r, k, m, seed):
    rng = np.random.default_rng(seed)
    pattern = build_sparsity(h, w, r)
    stack = rng.uniform(0.0, 1.0, (h, w, k))
    theta = rng.normal(0.0, 1.0, k)

    # the blocks list every edge once, each offset pair block by block
    pixels = np.arange(h * w).reshape(h, w)
    src = [pixels[b.src].ravel() for b in pattern.blocks] or [np.empty(0, int)]
    dst = [pixels[b.dst].ravel() for b in pattern.blocks] or [np.empty(0, int)]
    np.testing.assert_array_equal(np.concatenate(src), pattern.rows_h)
    np.testing.assert_array_equal(np.concatenate(dst), pattern.cols_h)
    np.testing.assert_array_equal(np.concatenate(src + dst), pattern.rows)
    np.testing.assert_array_equal(np.concatenate(dst + src), pattern.cols)

    half = pattern.num_edges // 2
    fdist = channel_distances(stack, pattern)
    np.testing.assert_array_equal(fdist[:half], fdist[half:])
    w_ref = affinity_forward(fdist, theta)
    np.testing.assert_array_equal(w_ref[:half], w_ref[half:])
    w_new = learned_affinity(stack, pattern, theta)
    np.testing.assert_allclose(w_new, w_ref[:half], rtol=1e-13, atol=0.0)

    dw = rng.standard_normal(pattern.num_edges)
    dtheta = pair_affinity_backward(stack, pattern,
                                    pair_weights(np.tile(w_new, 2), dw))
    # both sides round sums of |g| (|S_i| + |S_j|) per channel, with |g|
    # taken edge by edge, as the reference sums them: at most 3.1 eps of
    # it over 20,000 random examples
    flat = np.abs(stack.reshape(h * w, k))
    g = np.abs(w_new * dw[:half]) + np.abs(w_new * dw[half:])
    rounded = g @ (flat[pattern.rows_h] + flat[pattern.cols_h])
    error = np.abs(dtheta - affinity_backward(fdist, w_ref, dw))
    assert np.all(error <= 8.0 * np.finfo(float).eps * rounded)

    dy = rng.standard_normal((h * w, m))
    f = rng.standard_normal((h * w, m))
    da = rw_backward_a(pattern, dy, f)
    np.testing.assert_array_equal(
        da, np.einsum("ec,ec->e", dy[pattern.rows], f[pattern.cols]))
    # the walk's pair adjoint on the head's W: one dot per block and pair
    a = transition(pattern, w_new)
    dw = transition_backward(a, da)
    np.testing.assert_allclose(rw_backward_pairs(a, dy, f, a.matvec(f), 1.0),
                               dw[:half] + dw[half:], rtol=1e-12, atol=1e-13)

    targets = ground_truth_affinity(rng.integers(0, 2, (h, w)), pattern)
    np.testing.assert_array_equal(targets[:half], targets[half:])


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 9), w=st.integers(1, 9), r=st.integers(1, 10),
       k=st.integers(1, 4), cap=st.integers(1, 48),
       seed=st.integers(0, 2 ** 16))
@example(h=1, w=9, r=4, k=2, cap=3, seed=0)
@example(h=9, w=1, r=4, k=1, cap=2, seed=1)
@example(h=5, w=6, r=10, k=3, cap=1, seed=2)
@example(h=8, w=8, r=9, k=4, cap=12, seed=3)
def test_row_band_runs_match_gather(h, w, r, k, cap, seed):
    """With the run size cut down, large offset blocks are split into
    row bands (one-row bands and rows wider than the cap included); the
    runs still tile the first half in order and give the gathered
    affinities and dtheta."""
    rng = np.random.default_rng(seed)
    stack = rng.uniform(0.0, 1.0, (h, w, k))
    theta = rng.normal(0.0, 1.0, k)
    with mock.patch.object(graph, "_RUN_EDGES", cap):
        # a fresh build: the memoised pattern keeps the plan it was built with
        pattern = _build_sparsity.__wrapped__(h, w, r)
        dw = rng.standard_normal(pattern.num_edges)
        half = pattern.num_edges // 2
        covered = 0
        for slots, fmin in graph._minimum_runs(stack, pattern):
            assert slots.start == covered and fmin.shape[0] == slots.stop - covered
            # only a single grid row may exceed the cap
            assert fmin.shape[0] <= max(cap, w)
            covered = slots.stop
        assert covered == half
        w_new = learned_affinity(stack, pattern, theta)
        dtheta = pair_affinity_backward(stack, pattern,
                                        pair_weights(np.tile(w_new, 2), dw))
    fdist = channel_distances(stack, pattern)
    w_ref = affinity_forward(fdist, theta)
    np.testing.assert_array_equal(w_ref[:half], w_ref[half:])
    np.testing.assert_allclose(w_new, w_ref[:half], rtol=1e-13, atol=0.0)
    assert rel_error(dtheta, affinity_backward(fdist, w_ref, dw)) < 1e-12


def _log_affinity_bound(stack, pattern, theta):
    """Per pixel pair (i, j): (2k + 4) eps sum_c |theta_c| (|S_ic| +
    |S_jc|), the worst-case rounding of the length-k dot products of the
    min identity and of the subtract-and-abs reference together, plus
    4 eps for the rounding of exp and log on both sides."""
    flat = np.abs(stack.reshape(pattern.num_pixels, -1))
    size = (flat[pattern.rows_h] + flat[pattern.cols_h]) @ np.abs(theta)
    eps = np.finfo(float).eps
    return (2 * theta.size + 4) * eps * size + 4 * eps


@settings(max_examples=80, deadline=None)
@given(h=st.integers(1, 7), w=st.integers(1, 7), r=st.integers(1, 10),
       k=st.integers(1, 5), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       shift=st.sampled_from([0.0, -3.0, 40.0]),
       seed=st.integers(0, 2 ** 16))
@example(h=1, w=7, r=2, k=1, scale=1.0, shift=0.0, seed=0)
@example(h=1, w=6, r=9, k=3, scale=1e3, shift=-3.0, seed=1)
@example(h=7, w=1, r=10, k=1, scale=1e-3, shift=40.0, seed=2)
@example(h=4, w=5, r=8, k=5, scale=1e3, shift=0.0, seed=3)
@example(h=1, w=1, r=1, k=2, scale=1.0, shift=0.0, seed=4)
def test_min_identity_matches_subtract_abs(h, w, r, k, scale, shift, seed):
    """The head's log-affinity from u_i + u_j - 2 theta . min(S_i, S_j)
    stays within the worst-case dot-product rounding of theta .
    |S_i - S_j| on every edge, for stacks with negative values and with
    a common shift, 1 x N grids, radii past the grid and k = 1; the two
    halves of the reference are equal exactly, and dtheta matches it."""
    rng = np.random.default_rng(seed)
    pattern = build_sparsity(h, w, r)
    stack = shift + rng.uniform(-1.0, 1.0, (h, w, k))
    theta = scale * rng.normal(0.0, 1.0, k)
    half = pattern.num_edges // 2
    w_new = learned_affinity(stack, pattern, theta)

    fdist = channel_distances(stack, pattern)
    w_ref = affinity_forward(fdist, theta)
    np.testing.assert_array_equal(w_ref[:half], w_ref[half:])
    w_ref = w_ref[:half]
    # in log space where exp is normal and finite on the reference side;
    # past that it has under- or overflowed on both sides
    inside = (w_ref > 1e-300) & (w_ref < 1e300)
    error = np.abs(np.log(w_new[inside]) - np.log(w_ref[inside]))
    assert np.all(error <= _log_affinity_bound(stack, pattern, theta)[inside])
    assert np.all(w_new[w_ref <= 1e-300] <= 1e-299)
    assert np.all(w_new[w_ref >= 1e300] >= 1e299)

    # dtheta cancels sums of g (|S_i| + |S_j|) down to sums of g |S_i - S_j|,
    # so a common shift far above the spread costs digits in proportion
    if abs(shift) <= 3.0:
        # finite affinities that, like W, are equal on a pair's two edges
        weights = np.tile(rng.uniform(0.1, 2.0, half), 2)
        dw = rng.standard_normal(pattern.num_edges)
        dtheta = pair_affinity_backward(stack, pattern,
                                        pair_weights(weights, dw))
        assert rel_error(dtheta, affinity_backward(fdist, weights, dw)) < 1e-12


def test_learned_backward_weights_each_edge_by_its_own_affinity():
    """dtheta for affinities whose two halves differ matches the
    per-edge reference: each edge of a pixel pair counts with its own w."""
    rng = np.random.default_rng(0)
    pattern = build_sparsity(1, 7, 2)
    stack = rng.uniform(-1.0, 1.0, (1, 7, 3))
    weights = rng.uniform(0.1, 2.0, pattern.num_edges)
    dw = rng.standard_normal(pattern.num_edges)
    dtheta = pair_affinity_backward(stack, pattern, pair_weights(weights, dw))
    reference = affinity_backward(channel_distances(stack, pattern), weights, dw)
    assert rel_error(dtheta, reference) < 1e-12


@settings(max_examples=40, deadline=None)
@given(h=st.integers(1, 7), w=st.integers(1, 7), r=st.integers(1, 10),
       k=st.integers(1, 5), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       seed=st.integers(0, 2 ** 16))
@example(h=1, w=7, r=9, k=1, scale=1e3, seed=0)
@example(h=6, w=6, r=2, k=5, scale=1.0, seed=1)
def test_constant_stack_gives_unit_symmetric_affinities(h, w, r, k, scale,
                                                        seed):
    """Where every pixel has the same features the reference gives W = 1
    exactly; the min identity stays within its rounding bound of that,
    and W given per directed edge takes the pair form."""
    rng = np.random.default_rng(seed)
    pattern = build_sparsity(h, w, r)
    stack = np.broadcast_to(rng.uniform(-1.0, 1.0, k), (h, w, k))
    theta = scale * rng.normal(0.0, 1.0, k)
    w_new = learned_affinity(stack, pattern, theta)
    assert np.all(np.abs(np.log(w_new))
                  <= _log_affinity_bound(stack, pattern, theta))
    if k == 1:
        # one channel: u_i + u_j and 2 theta min(S_i, S_j) round alike
        np.testing.assert_array_equal(w_new, 1.0)
    assert transition(pattern, np.tile(w_new, 2)).symmetric


def test_run_plan_partitions_the_blocks():
    """On every small grid and at the two workload sizes, `runs`
    partitions `blocks` in order, each run as long as the cap allows,
    and the blocks, bands of whole window rows, tile the first half of
    `rows`/`cols`. At 32x32, R40 no window exceeds the cap, so each
    block is a whole offset; at 64x64, R5 the 40 offset windows are cut
    into 170 bands. `windows` joins each offset's bands back into its
    window, one per offset of `neighbor_offsets`, in order."""
    cap = graph._RUN_EDGES
    small = [(h, w, r) for h in range(1, 13) for w in range(1, 13)
             for r in range(1, 7)]
    for h, w, r in small + [(32, 32, 40), (64, 64, 5)]:
        pattern = build_sparsity(h, w, r)
        flat = [block for run in pattern.runs for block in run]
        assert len(flat) == len(pattern.blocks)
        assert all(a is b for a, b in zip(flat, pattern.blocks))
        for run, after in zip(pattern.runs, pattern.runs[1:] + [None]):
            size = run[-1].stop - run[0].start
            assert size <= cap or (len(run) == 1 and size <= w)
            # runs are filled greedily: the next block did not fit
            assert after is None or after[0].stop - run[0].start > cap
        pixels = np.arange(h * w).reshape(h, w)
        half = pattern.num_edges // 2
        covered = 0
        for block in pattern.blocks:
            src, dst = pixels[block.src], pixels[block.dst]
            assert block.start == covered and block.stop - covered == src.size
            assert src.size <= cap or src.shape[0] == 1
            np.testing.assert_array_equal(src.ravel(),
                                          pattern.rows[covered:block.stop])
            np.testing.assert_array_equal(dst.ravel(),
                                          pattern.cols[covered:block.stop])
            covered = block.stop
        assert covered == half
        offsets = graph.neighbor_offsets(h, w, r)
        assert len(pattern.windows) == len(offsets)
        covered = 0
        for (src, dst, slots), (dy, dx) in zip(pattern.windows, offsets):
            assert slots.start == covered
            assert (dst[0].start - src[0].start,
                    dst[1].start - src[1].start) == (dy, dx)
            np.testing.assert_array_equal(pixels[src].ravel(),
                                          pattern.rows_h[slots])
            np.testing.assert_array_equal(pixels[dst].ravel(),
                                          pattern.cols_h[slots])
            covered = slots.stop
        assert covered == half
    offsets = {(b.dst[0].start - b.src[0].start, b.dst[1].start - b.src[1].start)
               for b in build_sparsity(32, 32, 40).blocks}
    assert len(offsets) == len(build_sparsity(32, 32, 40).blocks) == 1942
    assert len(build_sparsity(64, 64, 5).blocks) == 170


def test_offset_major_layer_memory_at_paper_radius():
    """Forward and backward at 32x32, R40, k = 131 stay far below the
    1.1 GB that the gathered E x k distance tensor takes."""
    rng = np.random.default_rng(0)
    pattern = build_sparsity(32, 32, 40)
    stack = rng.uniform(0.0, 1.0, (32, 32, 131))
    theta = np.full(131, -1.0 / 131)
    tracemalloc.start()
    try:
        w = learned_affinity(stack, pattern, theta)
        pair_affinity_backward(stack, pattern, 2.0 * w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_pattern_build_memory_at_paper_radius():
    """A fresh 32x32, R40 pattern, offset blocks included, is built from
    one enumeration of the offsets in under 24 MB: the int64 pixel
    indices of the blocks and the two int32 edge arrays."""
    tracemalloc.start()
    try:
        pattern = _build_sparsity.__wrapped__(32, 32, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pattern.num_edges == 1047048
    assert peak < 24 * 2 ** 20


def test_learned_affinity_rejects_bad_parameters():
    pattern = build_sparsity(3, 3, 1)
    stack = random_stack(3, 3, 2)
    with pytest.raises(InvalidInputError):
        learned_affinity(stack, pattern, np.array([1.0, np.inf]))
    with pytest.raises(InvalidInputError):
        learned_affinity(stack, pattern, np.ones(3))
    with pytest.raises(InvalidInputError):
        learned_affinity(random_stack(2, 3, 2), pattern, np.ones(2))


# ---------------------------------------------------------------------------
# targets and Euclidean loss


@pytest.mark.parametrize("height,width,radius", [
    (1, 1, 1), (1, 7, 2), (7, 1, 3), (3, 4, 5), (5, 5, 9), (6, 5, 2)])
def test_targets_equal_the_per_edge_label_comparison(height, width, radius):
    labels = np.random.default_rng(height * width).integers(
        0, 3, (height, width))
    pattern = build_sparsity(height, width, radius)
    targets = ground_truth_affinity(labels, pattern)
    flat = labels.ravel()
    expected = (flat[pattern.rows] == flat[pattern.cols]).astype(np.float64)
    assert targets.dtype == np.float64
    np.testing.assert_array_equal(targets, expected)


@settings(max_examples=40, deadline=None)
@given(h=st.integers(1, 6), w=st.integers(1, 6), r=st.integers(1, 8),
       low=st.sampled_from([-256, -1, 0, 255]),
       stride=st.sampled_from([1, 128, 256]), small=st.booleans(),
       seed=st.integers(0, 2 ** 16))
@example(h=1, w=1, r=1, low=0, stride=1, small=False, seed=0)  # no pairs
@example(h=3, w=4, r=8, low=0, stride=256, small=False, seed=1)
@example(h=5, w=2, r=6, low=-1, stride=1, small=False, seed=2)
@example(h=4, w=4, r=2, low=255, stride=1, small=False, seed=3)
@example(h=6, w=1, r=3, low=0, stride=128, small=True, seed=4)
def test_same_label_pairs_compares_the_labels_of_each_pair(h, w, r, low,
                                                           stride, small,
                                                           seed):
    """Label maps that fit in uint8 are gathered as uint8; the result is
    the pairwise comparison of the labels as given, for int64 and uint8
    maps, negative labels, labels from 256 on (0, 256 and 512 must stay
    apart), a 1 x 1 grid and a radius beyond the image."""
    labels = low + stride * np.random.default_rng(seed).integers(0, 3, (h, w))
    if small:
        labels = (labels % 256).astype(np.uint8)
    pattern = build_sparsity(h, w, r)
    flat = labels.ravel()
    same = same_label_pairs(labels, pattern)
    assert same.dtype == bool
    np.testing.assert_array_equal(
        same, flat[pattern.rows_h] == flat[pattern.cols_h])


def test_uniform_labels_give_all_one_targets():
    pattern = build_sparsity(3, 3, 1)
    targets = ground_truth_affinity(np.zeros((3, 3), dtype=int), pattern)
    np.testing.assert_array_equal(targets, 1.0)


def test_checkerboard_targets_all_zero_at_radius_one():
    ys, xs = np.mgrid[0:4, 0:4]
    labels = (ys + xs) % 2
    pattern = build_sparsity(4, 4, 1)
    targets = ground_truth_affinity(labels, pattern)
    np.testing.assert_array_equal(targets, 0.0)


def test_half_plane_targets_zero_only_across_boundary():
    labels = np.zeros((3, 4), dtype=int)
    labels[:, 2:] = 1
    pattern = build_sparsity(3, 4, 1)
    targets = ground_truth_affinity(labels, pattern)
    crossing = (labels.ravel()[pattern.rows]
                != labels.ravel()[pattern.cols])
    np.testing.assert_array_equal(targets[crossing], 0.0)
    np.testing.assert_array_equal(targets[~crossing], 1.0)


def test_loss_zero_at_perfect_affinities():
    targets = np.array([1.0, 0.0, 1.0])
    loss, grad = affinity_loss_grad(targets.copy(), targets)
    assert loss == 0.0
    np.testing.assert_array_equal(grad, 0.0)


def test_loss_single_edge_analytic():
    loss, grad = affinity_loss_grad(np.array([1.0]), np.array([0.0]))
    assert loss == 0.5
    np.testing.assert_array_equal(grad, [1.0])


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    pattern = build_sparsity(4, 4, 1)
    w = rng.uniform(0.1, 1.5, pattern.num_edges)
    targets = rng.integers(0, 2, pattern.num_edges).astype(float)
    _, grad = affinity_loss_grad(w, targets)
    fd = numerical_gradient(lambda: affinity_loss_grad(w, targets)[0], w)
    assert rel_error(grad, fd) < 1e-6


def test_affinity_backward_zero_gradient():
    fdist = np.random.default_rng(0).uniform(0, 1, (6, 3))
    w = affinity_forward(fdist, np.full(3, -0.3))
    np.testing.assert_array_equal(
        affinity_backward(fdist, w, np.zeros(6)), 0.0)


def test_affinity_backward_single_edge_analytic():
    fdist = np.array([[0.5]])
    w = affinity_forward(fdist, np.zeros(1))
    dtheta = affinity_backward(fdist, w, np.array([1.0]))
    np.testing.assert_allclose(dtheta, [0.5])  # 1 * exp(0) * 0.5


def test_affinity_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    pattern = build_sparsity(4, 4, 2)
    stack = per_channel_normalize(random_stack(4, 4, 3, seed=8))
    fdist = channel_distances(stack, pattern)
    targets = ground_truth_affinity(rng.integers(0, 2, (4, 4)), pattern)
    theta = rng.normal(-0.4, 0.2, 3)

    def loss():
        return affinity_loss_grad(affinity_forward(fdist, theta), targets)[0]

    w = affinity_forward(fdist, theta)
    _, dw = affinity_loss_grad(w, targets)
    dtheta = affinity_backward(fdist, w, dw)
    assert rel_error(dtheta, numerical_gradient(loss, theta)) < 1e-6


# ---------------------------------------------------------------------------
# transition matrix


def test_row_normalization_values():
    pattern = build_sparsity(1, 4, 3)  # row 0 has 3 neighbors
    row0 = pattern.rows == 0
    np.testing.assert_array_equal(pattern.cols[row0], [1, 2, 3])
    w = np.ones(pattern.num_edges)
    w[row0] = [1.0, 1.0, 2.0]
    a = transition(pattern, w)
    np.testing.assert_allclose(a.values[row0], [0.25, 0.25, 0.5])


def test_uniform_walk_on_grid():
    pattern = build_sparsity(3, 3, 1)
    a = transition(pattern, np.ones(pattern.num_edges))
    corner = a.values[pattern.rows == 0]
    np.testing.assert_allclose(corner, [0.5, 0.5])
    center = a.values[pattern.rows == 4]
    np.testing.assert_allclose(center, 0.25)


@settings(max_examples=20, deadline=None)
@given(h=st.integers(2, 6), w=st.integers(2, 6), r=st.integers(1, 3),
       seed=st.integers(0, 500))
def test_rows_sum_to_one(h, w, r, seed):
    a, _ = random_transition(h, w, r, seed)
    sums = np.bincount(a.pattern.rows, weights=a.values,
                       minlength=a.num_pixels)
    np.testing.assert_allclose(sums, 1.0, atol=1e-9)
    assert np.all(a.values > 0) and np.all(a.values <= 1.0)


@settings(max_examples=30, deadline=None)
@given(h=st.integers(1, 6), w=st.integers(1, 6), r=st.integers(1, 8),
       mirrored=st.booleans(), seed=st.integers(0, 500))
@example(h=1, w=1, r=1, mirrored=True, seed=0)
@example(h=1, w=6, r=2, mirrored=False, seed=1)
@example(h=1, w=5, r=3, mirrored=True, seed=2)
@example(h=4, w=3, r=8, mirrored=False, seed=3)
@example(h=5, w=5, r=7, mirrored=True, seed=4)
def test_products_match_independent_dense(h, w, r, mirrored, seed):
    """A @ x and A^T @ x against a dense A filled straight from the
    pattern's edge list, for a single column and for several."""
    rng = np.random.default_rng(seed)
    pattern = build_sparsity(h, w, r)
    weights = rng.uniform(0.1, 2.0, pattern.num_edges)
    half = pattern.num_edges // 2
    if mirrored:
        weights[half:] = weights[:half]
    a = transition(pattern, weights)
    dense = np.zeros((pattern.num_pixels, pattern.num_pixels))
    dense[pattern.rows, pattern.cols] = a.values
    for x in (rng.standard_normal(pattern.num_pixels),
              rng.standard_normal((pattern.num_pixels, 3))):
        np.testing.assert_allclose(a.matvec(x), dense @ x,
                                   rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(a.rmatvec(x), dense.T @ x,
                                   rtol=1e-12, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 6), w=st.integers(1, 6), r=st.integers(1, 4),
       mirrored=st.booleans(), log_w=st.floats(-300.0, 300.0),
       log_x=st.floats(-300.0, 308.0), m=st.integers(1, 3),
       seed=st.integers(0, 500))
@example(h=4, w=4, r=2, mirrored=True, log_w=0.0, log_x=308.0, m=2, seed=0)
@example(h=3, w=5, r=3, mirrored=True, log_w=300.0, log_x=308.0, m=1,
         seed=1)
@example(h=1, w=6, r=2, mirrored=False, log_w=-300.0, log_x=308.0, m=3,
         seed=2)
def test_walk_step_stays_within_the_scores(h, w, r, mirrored, log_w, log_x,
                                           m, seed):
    """A x is a convex combination of x's rows, so for finite x up to
    max|x| = 1e308 it is finite and within max|x| (to rounding), in the
    pair form, where W x alone can overflow, and in the per-edge form."""
    rng = np.random.default_rng(seed)
    pattern = build_sparsity(h, w, r)
    weights = rng.uniform(0.2, 2.0, pattern.num_edges) * 10.0 ** log_w
    half = pattern.num_edges // 2
    if mirrored:
        weights[half:] = weights[:half]
    a = transition(pattern, weights)
    assert a.symmetric == (mirrored or pattern.num_edges == 0)
    x = rng.uniform(-1.0, 1.0, (pattern.num_pixels, m)) * 10.0 ** log_x
    y = a.matvec(x)
    assert np.all(np.isfinite(y))
    assert np.abs(y).max() <= np.abs(x).max() * (1.0 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(h=st.integers(1, 6), w=st.integers(2, 6), r=st.integers(1, 4),
       seed=st.integers(0, 500))
@example(h=1, w=2, r=1, seed=0)
def test_per_edge_degree_and_values_are_exact(h, w, r, seed):
    """On per-edge W spread over 16 decades, where the summation order
    shows in the last bits, D is exactly `np.bincount(rows, w)` and A
    exactly w / D[rows]."""
    rng = np.random.default_rng(seed)
    pattern = build_sparsity(h, w, r)
    weights = 10.0 ** rng.uniform(-8.0, 8.0, pattern.num_edges)
    a = transition(pattern, weights)
    assert not a.symmetric
    degree = np.bincount(pattern.rows, weights=weights,
                         minlength=pattern.num_pixels)
    assert a.degree.tobytes() == degree.tobytes()
    assert a.values.tobytes() == (weights / degree[pattern.rows]).tobytes()


def test_products_share_the_edge_arrays_and_keep_the_transpose():
    """A and A^T wrap A's values and the pattern's index arrays without
    copies, and repeated A^T products reuse the first one's transpose."""
    a, _ = random_transition(5, 4, 2, seed=6)
    x = np.random.default_rng(6).standard_normal((a.num_pixels, 3))
    first = a.rmatvec(x)
    coo, coo_t = a._coo, a._coo_t
    for matrix, rows, cols in ((coo, a.pattern.rows, a.pattern.cols),
                               (coo_t, a.pattern.cols, a.pattern.rows)):
        assert np.shares_memory(matrix.data, a.values)
        assert np.shares_memory(matrix.row, rows)
        assert np.shares_memory(matrix.col, cols)
    rebuilt = AssertionError("A^T product built a new matrix")
    with mock.patch.object(type(coo), "transpose", side_effect=rebuilt), \
            mock.patch.object(graph.sp, "coo_matrix", side_effect=rebuilt):
        for _ in range(3):
            np.testing.assert_array_equal(a.rmatvec(x), first)
    assert a._coo_t is coo_t


def test_transition_memory_at_paper_radius():
    """At 32x32, R40, A's products read the pattern's arrays where they
    are. On pair affinities `transition` and the products hold
    only per-pixel arrays, and the peak is one pair-sized index copy (the
    degree's `bincount`), below any edge-sized float array. On per-edge
    affinities only A's values are held after the first product, and the
    peak is the normalization's one temporary on top."""
    pattern = build_sparsity(32, 32, 40)
    rng = np.random.default_rng(0)
    pairs = rng.uniform(0.5, 1.5, pattern.num_pairs)
    w = rng.uniform(0.5, 1.5, pattern.num_edges)
    x = np.ones((pattern.num_pixels, 4))
    tracemalloc.start()
    try:
        a = transition(pattern, pairs)
        a.matvec(x), a.rmatvec(x)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a.symmetric
    assert held < 0.05 * pairs.nbytes
    assert peak < 1.1 * pairs.nbytes
    pattern.rows, pattern.cols  # per-edge A reads them, built once per pattern
    tracemalloc.start()
    try:
        a = transition(pattern, w)
        a.matvec(x)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not a.symmetric
    assert held < 1.5 * w.nbytes
    assert peak < 2.5 * w.nbytes


def test_row_scaling_leaves_transition_unchanged():
    a, w = random_transition(3, 3, 1, seed=4)
    pattern = a.pattern
    scaled = w.copy()
    scaled[pattern.rows == 4] *= 7.5
    b = transition(pattern, scaled)
    np.testing.assert_allclose(b.values, a.values, rtol=1e-14)
    f = np.random.default_rng(0).standard_normal((pattern.num_pixels, 3))
    np.testing.assert_allclose(rw_step(b, f, f, 0.3), rw_step(a, f, f, 0.3),
                               atol=1e-12)


@pytest.mark.parametrize("w", [[1e308, 1e308], [np.inf, 1.0], [1.0, np.nan]])
def test_non_finite_affinities_rejected_without_warnings(w):
    """A non-finite weight, or a row sum that overflows although every
    weight is finite, is an input error and nothing is printed first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="non-finite affinities"):
            transition(build_sparsity(1, 3, 1), np.array(w))


def test_transition_backward_zero():
    a, _ = random_transition(2, 3, 1, seed=1)
    np.testing.assert_array_equal(
        transition_backward(a, np.zeros(a.pattern.num_edges)), 0.0)


def test_transition_backward_uniform_row_gradient_vanishes():
    a, _ = random_transition(3, 3, 1, seed=2)
    da = np.zeros(a.pattern.num_edges)
    row4 = a.pattern.rows == 4
    da[row4] = 3.7
    dw = transition_backward(a, da)
    np.testing.assert_allclose(dw[row4], 0.0, atol=1e-15)


def test_transition_backward_matches_finite_differences():
    rng = np.random.default_rng(12)
    pattern = build_sparsity(3, 3, 1)
    w = rng.uniform(0.2, 1.5, pattern.num_edges)
    coeff = rng.standard_normal(pattern.num_edges)

    def scalar_of_a():
        return float(coeff @ transition(pattern, w).values)

    a = transition(pattern, w)
    dw = transition_backward(a, coeff)
    assert rel_error(dw, numerical_gradient(scalar_of_a, w)) < 1e-6


# ---------------------------------------------------------------------------
# full chain to the affinity parameters


def test_end_to_end_theta_gradient():
    """Softmax loss through walk, normalization, and exp head vs central
    finite differences at step 1e-5."""
    image, labels, stack, pattern, bank = tiny_feature_setup()
    k = stack.shape[2]
    flat = stack.reshape(-1, k)
    fdist = channel_distances(stack, pattern)
    unary = init_unary(k, 3, np.random.default_rng(0))
    f = unary_forward(flat, unary)
    theta = np.random.default_rng(1).normal(-0.3, 0.2, k)
    alpha = 0.01

    def loss():
        w = affinity_forward(fdist, theta)
        a = transition(pattern, w)
        y = rw_step(a, f, f, alpha)
        return softmax_loss_grad(y, labels)[0]

    from walkseg.walk import rw_backward_a
    w = affinity_forward(fdist, theta)
    a = transition(pattern, w)
    y = rw_step(a, f, f, alpha)
    _, dy = softmax_loss_grad(y, labels)
    da = alpha * rw_backward_a(pattern, dy, f)
    dtheta = affinity_backward(fdist, w, transition_backward(a, da))
    assert rel_error(dtheta, numerical_gradient(loss, theta)) < 1e-4


def test_dump_edges_triplet_format():
    pattern = build_sparsity(1, 2, 1)
    buffer = io.StringIO()
    dump_edges(pattern, np.array([0.25, 0.75]), buffer)
    assert buffer.getvalue() == "0 1 0.25\n1 0 0.75\n"
    # 2x2, R1: the slots hold (0,1) (2,3) (0,2) (1,3) and then their
    # mirrors; the dump lists the edges by (i, j), each with its value
    pattern = build_sparsity(2, 2, 1)
    buffer = io.StringIO()
    dump_edges(pattern, np.arange(pattern.num_edges) / 8.0, buffer)
    assert buffer.getvalue().splitlines() == [
        "0 1 0.0", "0 2 0.25", "1 0 0.5", "1 3 0.375",
        "2 0 0.75", "2 3 0.125", "3 1 0.875", "3 2 0.625"]
