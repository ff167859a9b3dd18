"""Sparse pixel-affinity graphs and the row-stochastic transition matrix.

A pixel grid induces a symmetric neighbor pattern: pixel i connects to
every pixel j != i whose grid coordinates lie within a radius R of i's.
Every symmetric edge quantity (affinities W, the head's backward weights,
same-label flags) is one array over the pattern's pixel pairs, in the
offset-major order of `SparsityPattern`. Patterns are memoised on
(height, width, radius), so their arrays are shared and read-only. The
walk's transition matrix is the row normalization A = D^-1 W.

The pattern is translation-invariant, which the learned affinities use.
Seen as one (h*w, k) array F of the feature stack, the pair (p, p + o)
of a neighbor offset o = (dy, dx) is the pair (p, p + s) of the flat
shift s = dy w + dx, so the per-channel minima of all the pairs of one
shift are contiguous: min(F[a:b], F[a + s:b + s]) over bands of pixels.
A shift s = dy0 w + dx0 (0 <= dx0 < w) holds up to two offsets: (dy0,
dx0) for the columns x < w - dx0 and (dy0 + 1, dx0 - w) for the rest.
As |a - b| = a + b - 2 min(a, b), the head's theta . |S_i - S_j| is
u_i + u_j - 2 theta . min(S_i, S_j) with u = S theta, so no distance is
formed. One enumeration of the offsets > (0, 0), `neighbor_offsets`,
lists the pairs (p, p + o) window by window, and the pattern's shift
plan maps each shift's per-pixel results back to its offsets' windows;
`learned_affinity`, its backward and `walk.rw_backward_pairs` work
through it. The backward needs only each pair's weight g = W_ij dW_ij +
W_ji dW_ji; training takes dW's pair sums from `walk.rw_backward_pairs`.
Where only a few pixels need their rows of W, `neighbor_affinity`
gathers their pairs from the same offsets, without the pattern.

`TransitionMatrix` applies W = W_h + W_h^T through one scipy COO matrix
W_h over the pairs and its kept transpose. The directed edges (the
pairs, then their mirrors) are views built on first read, for a
non-symmetric A, the affinity dump and the tests' per-edge references:
`channel_distances` with `affinity_forward`, and `ground_truth_affinity`
with `affinity_loss_grad`.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import InvalidInputError


# the minima of one shift are taken this many pixels at a time (0.5 MiB
# at 131 channels). At 32x32, R40 (random 131-channel stack, medians of
# 15, 2-core host) forward / backward took 46.2 / 49.8 ms at 128 pixels,
# 42.1 / 44.7 at 256, 41.4 / 43.3 at 512 and 44.3 / 45.3 at 1000; at
# 64x64, R5 13.6-13.7 / 14.2-14.4 at 256 and 512, 15.4-16.3 otherwise
_BAND_ROWS = 512

# `neighbor_affinity` gathers its rows this many edges at a time
_RUN_EDGES = 1000

_EPS = np.finfo(np.float64).eps


@dataclass
class SparsityPattern:
    """Symmetric neighbor structure of a height x width pixel grid.

    Pair slot t joins the pixels rows_h[t] and cols_h[t], in offset-major
    order: the pairs (p, p + o) of every offset o > (0, 0) in ascending
    (dy, dx) order. `windows` lists them, one (src, dst, slots) per
    offset: the grid window `src` (a pair of row and column slices) whose
    pixels have their neighbor at the same place in `dst`, `src` shifted
    by o, and the slots of these pairs, row-major over `src`. Edge slot e
    is the directed pair (rows[e], cols[e]): the pairs, then their
    mirrors, so an edge array ``v`` is symmetric iff ``v[:half] ==
    v[half:]``. `rows` and `cols` are built on first read and kept, and
    so are `row_order`, the pair slots in row order, through which the
    solver stores a pair array as one CSR matrix, and `shifts`, the
    shift plan of the learned affinities.

    ``indptr[i + 1] - indptr[i]`` is pixel i's neighbor count. Index
    arrays are int32 where the edge count fits, the type scipy keeps
    without a copy.
    """

    height: int
    width: int
    radius: int
    indptr: np.ndarray
    rows_h: np.ndarray
    cols_h: np.ndarray
    windows: tuple = field(repr=False)

    @property
    def num_pixels(self) -> int:
        return self.height * self.width

    @property
    def num_pairs(self) -> int:
        return int(self.rows_h.size)

    @property
    def num_edges(self) -> int:
        return 2 * self.num_pairs

    @functools.cached_property
    def rows(self) -> np.ndarray:
        return _read_only(np.concatenate((self.rows_h, self.cols_h)))

    @functools.cached_property
    def cols(self) -> np.ndarray:
        return _read_only(np.concatenate((self.cols_h, self.rows_h)))

    @functools.cached_property
    def shifts(self) -> tuple:
        """The shift plan: one (s, span, parts) per flat shift s = dy w
        + dx of the offsets, ascending. Value p of a per-pixel vector
        over the shift belongs to the pair (p, p + s), and seen as an
        h x w grid its part of offset o is o's window: each of `parts`
        is an offset's (src, slots) from `windows`. `span` is the slice
        of pixels from the first part's first pair to the last part's
        last; the pairs in it that no part holds are junk."""
        width, plan = self.width, {}
        for src, dst, slots in self.windows:
            s = ((dst[0].start - src[0].start) * width
                 + dst[1].start - src[1].start)
            plan.setdefault(s, []).append((src, slots))
        return tuple(
            (s, slice(min(r.start * width + c.start for (r, c), _ in parts),
                      max((r.stop - 1) * width + c.stop
                          for (r, c), _ in parts)), tuple(parts))
            for s, parts in sorted(plan.items()))

    @functools.cached_property
    def row_order(self) -> tuple:
        """(order, cols, indptr): the pair slots sorted by row, their
        columns and a per-row indptr over the pairs, so that the pair
        values v are the CSR matrix (v[order], cols, indptr) of W_h,
        which is strictly upper triangular. A row's pairs already ascend
        in column, so a stable sort of `rows_h` is enough."""
        n, index = self.num_pixels, self.rows_h.dtype
        # one buffer for order and cols: two persistent blocks left more
        # of the heap unusable to later per-solve arrays
        order_cols = np.empty((2, self.num_pairs), dtype=index)
        order_cols[0] = np.argsort(self.rows_h, kind="stable")
        np.take(self.cols_h, order_cols[0], out=order_cols[1])
        indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(np.bincount(self.rows_h, minlength=n), out=indptr[1:])
        order, cols = _read_only(order_cols)
        return order, cols, _read_only(indptr)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def neighbor_offsets(height: int, width: int, radius: int) -> np.ndarray:
    """The offsets o = (dy, dx) > (0, 0) within Euclidean distance
    `radius` that fit on a height x width grid, ascending, as an (r, 2)
    array: `build_sparsity` joins each pixel p to p + o and p - o for
    every o, where those lie on the grid."""
    if height < 1 or width < 1:
        raise InvalidInputError(f"bad grid {height}x{width}")
    if radius < 1:
        raise InvalidInputError(f"radius must be >= 1, got {radius}")
    span_y, span_x = min(int(radius), height - 1), min(int(radius), width - 1)
    return np.array([(dy, dx) for dy in range(span_y + 1)
                     for dx in range(-span_x if dy else 1, span_x + 1)
                     if dy * dy + dx * dx <= radius * radius],
                    dtype=np.intp).reshape(-1, 2)


def build_sparsity(height: int, width: int, radius: int) -> SparsityPattern:
    """Enumerate all pixel pairs within Euclidean distance `radius` of
    each other (`neighbor_offsets`); self-pairs are never included.
    Deterministic.

    The last few patterns are memoised: equal arguments return the same
    object, whose arrays are read-only.
    """
    return _build_sparsity(int(height), int(width), radius)


@functools.lru_cache(maxsize=4)
def _build_sparsity(height, width, radius):
    pixels = np.arange(height * width, dtype=np.int64).reshape(height, width)
    windows, srcs, dsts, stop = [], [], [], 0
    for dy, dx in neighbor_offsets(height, width, radius).tolist():
        # pixel (y, x) of the window has the neighbor (y + dy, x + dx)
        x0, x1 = max(0, -dx), width - max(0, dx)
        src = (slice(0, height - dy), slice(x0, x1))
        dst = (slice(dy, height), slice(x0 + dx, x1 + dx))
        start, stop = stop, stop + (height - dy) * (x1 - x0)
        windows.append((src, dst, slice(start, stop)))
        srcs.append(pixels[src].ravel())
        dsts.append(pixels[dst].ravel())

    n = height * width
    index = np.int32 if 2 * stop < 2 ** 31 else np.int64
    empty = [np.empty(0, dtype=index)]
    rows_h = np.concatenate(srcs or empty, dtype=index)
    cols_h = np.concatenate(dsts or empty, dtype=index)
    del srcs, dsts
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(rows_h, minlength=n)
              + np.bincount(cols_h, minlength=n), out=indptr[1:])
    return SparsityPattern(height, width, radius, _read_only(indptr),
                           _read_only(rows_h), _read_only(cols_h),
                           tuple(windows))


def _pixel_grid(stack: np.ndarray, pattern: SparsityPattern) -> np.ndarray:
    """The (height, width, k) feature stack as float64."""
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise InvalidInputError(f"bad stack shape {stack.shape}")
    if stack.shape[:2] != (pattern.height, pattern.width):
        raise InvalidInputError(
            f"stack {stack.shape[:2]} does not match pattern "
            f"{pattern.height}x{pattern.width}")
    return stack


def channel_distances(stack: np.ndarray, pattern: SparsityPattern) -> np.ndarray:
    """Per-channel L1 distances |S_i - S_j|, one row per directed edge:
    the gathered E x k reference of `learned_affinity`, which never
    holds it."""
    flat = _pixel_grid(stack, pattern).reshape(pattern.num_pixels, -1)
    return np.abs(flat[pattern.rows] - flat[pattern.cols])


def learned_affinity(stack: np.ndarray, pattern: SparsityPattern,
                     theta: np.ndarray) -> np.ndarray:
    """Affinities W = exp(F theta), one per pixel pair of `pattern`.

    The log-affinity of the pair (i, j) is u_i + u_j - 2 theta .
    min(S_i, S_j), u = S theta, with the minima of a shift taken
    `_BAND_ROWS` pixels at a time, one gemv each (see
    `SparsityPattern.shifts`). Against the subtract-and-abs
    ``affinity_forward(channel_distances(...), theta)`` it differs by
    both sides' length-k dot-product rounding, at worst (2k + 4) eps
    sum_c |theta_c| (|S_ic| + |S_jc|), eps the machine epsilon.
    """
    grid = _pixel_grid(stack, pattern)
    theta = np.asarray(theta, dtype=np.float64)
    _check_head(grid.shape[2], theta)
    # one gemv per grid row: BLAS threads an n x k gemv, and in repeated
    # passes at 64x64 that took 8 against 0.2 ms (2-core host)
    u = (grid @ theta).ravel()
    flat, scale = grid.reshape(u.size, -1), -2.0 * theta  # exact
    w, logit = np.empty(pattern.num_pairs), np.empty(u.size)
    fmin = np.empty((min(_BAND_ROWS, u.size), flat.shape[1]))
    logit_grid = logit.reshape(grid.shape[:2])
    with np.errstate(over="ignore"):  # overflow to inf is caught in transition
        for s, span, parts in pattern.shifts:
            for a in range(span.start, span.stop, _BAND_ROWS):
                b = min(a + _BAND_ROWS, span.stop)
                np.minimum(flat[a:b], flat[a + s:b + s], out=fmin[:b - a])
                np.matmul(fmin[:b - a], scale, out=logit[a:b])
            logit[span] += u[span] + u[span.start + s:span.stop + s]
            for src, slots in parts:
                w[slots].reshape(logit_grid[src].shape)[...] = logit_grid[src]
        np.exp(w, out=w)
    return w


def neighbor_affinity(stack: np.ndarray, radius: int, theta: np.ndarray,
                      pixels: np.ndarray):
    """W between each of `pixels` and its neighbors in `build_sparsity`'s
    pattern, by `learned_affinity`'s formula, without the pattern.

    Returns (neighbors, w, error), one row per pixel and one column per
    offset +o, then -o, of `neighbor_offsets`: the neighbor's flat index
    (the pixel itself where the offset leaves the grid) and the pair's
    affinity (0 there). Rows are gathered `_RUN_EDGES` pairs at a time.
    The two computations round differently, each within the documented
    bound of `learned_affinity` of the exact logit, so `error` bounds
    each row's |w / W - 1| against `learned_affinity`'s W: exp of twice
    that bound, plus both exps' rounding.
    """
    grid = np.asarray(stack, dtype=np.float64)
    if grid.ndim != 3:
        raise InvalidInputError(f"bad stack shape {grid.shape}")
    height, width, k = grid.shape
    theta = np.asarray(theta, dtype=np.float64)
    _check_head(k, theta)
    offsets = neighbor_offsets(height, width, radius)
    offsets = np.concatenate((offsets, -offsets))
    pixels = np.asarray(pixels, dtype=np.intp)
    y, x = np.divmod(pixels[:, None], width)
    y, x = y + offsets[:, 0], x + offsets[:, 1]
    inside = (y >= 0) & (y < height) & (x >= 0) & (x < width)
    neighbors = np.where(inside, y * width + x, pixels[:, None])
    flat = grid.reshape(-1, k)
    logit, size = np.empty(neighbors.shape), np.empty(neighbors.shape)
    scale, magnitude = -2.0 * theta, np.abs(theta)
    step = max(1, _RUN_EDGES // max(1, offsets.shape[0]))
    for start in range(0, pixels.size, step):
        part = slice(start, start + step)
        src, dst = flat[pixels[part]][:, None, :], flat[neighbors[part]]
        logit[part] = (src @ theta + dst @ theta
                       + np.minimum(src, dst) @ scale)
        size[part] = np.abs(src) @ magnitude + np.abs(dst) @ magnitude
    with np.errstate(over="ignore"):
        w = np.where(inside, np.exp(logit), 0.0)
        # sum_c |theta_c| (|S_ic| + |S_jc|), as the bound has it
        size = np.where(inside, size, 0.0).max(axis=1, initial=0.0)
        error = np.expm1(2.0 * (2 * k + 4) * _EPS * size) + 3.0 * _EPS
    return neighbors, w, error


def pair_affinity_backward(stack: np.ndarray, pattern: SparsityPattern,
                           g: np.ndarray) -> np.ndarray:
    """dtheta given each pixel pair's weight g, the sum of w dL/dw over
    its two edges, indexed by the pair's slot.

    The pair (i, j) adds g (S_i + S_j - 2 min(S_i, S_j)), so dtheta =
    S^T G - 2 sum_shifts g_s^T fmin_s, with G_p the sum of g over the
    pairs at pixel p and g_s the per-pixel vector of shift s: g scattered
    to its pairs by the shift plan, 0 at its junk. It rounds sums of g
    (|S_i| + |S_j|), not of g |S_i - S_j|. Shifts and bands are summed in
    a fixed order, so repeated calls are bit-identical."""
    grid = _pixel_grid(stack, pattern)
    n, pairs = pattern.num_pixels, pattern.num_pairs
    if g.shape != (pairs,):
        raise InvalidInputError(f"{g.shape} weights for {pairs} pixel pairs")
    pulls = (np.bincount(pattern.rows_h, weights=g, minlength=n)
             + np.bincount(pattern.cols_h, weights=g, minlength=n))
    flat = grid.reshape(n, -1)
    dmin, per_pixel = np.zeros(flat.shape[1]), np.empty(n)
    fmin = np.empty((min(_BAND_ROWS, n), flat.shape[1]))
    per_pixel_grid = per_pixel.reshape(grid.shape[:2])
    for s, span, parts in pattern.shifts:
        per_pixel[span] = 0.0
        for src, slots in parts:
            part = per_pixel_grid[src]
            part[...] = g[slots].reshape(part.shape)
        for a in range(span.start, span.stop, _BAND_ROWS):
            b = min(a + _BAND_ROWS, span.stop)
            np.minimum(flat[a:b], flat[a + s:b + s], out=fmin[:b - a])
            dmin += per_pixel[a:b] @ fmin[:b - a]
    # S^T G without an n x k gemv, as for u in `learned_affinity`
    return (np.einsum("hwc,hw->c", grid, pulls.reshape(grid.shape[:2]))
            - 2.0 * dmin)


def _check_head(channels: int, theta: np.ndarray) -> None:
    """The head takes one finite parameter per distance channel."""
    if not np.all(np.isfinite(theta)):
        raise InvalidInputError("non-finite affinity parameters")
    if theta.shape != (channels,):
        raise InvalidInputError(
            f"distance tensor has {channels} channels, theta has shape "
            f"{theta.shape}")


def affinity_forward(fdist: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Affinity head W_e = exp(sum_c theta_c fdist[e, c]): a 1x1
    convolution over the k distance channels, no bias, then exp."""
    theta = np.asarray(theta, dtype=np.float64)
    if fdist.ndim != 2:
        raise InvalidInputError(f"bad distance tensor shape {fdist.shape}")
    _check_head(fdist.shape[1], theta)
    with np.errstate(over="ignore"):  # overflow to inf is caught in transition
        return np.exp(fdist @ theta)


def same_label_pairs(labels: np.ndarray,
                     pattern: SparsityPattern) -> np.ndarray:
    """Whether each pixel pair joins two pixels of one label, as a bool
    array indexed by the pair's slot."""
    labels = np.asarray(labels)
    if labels.shape != (pattern.height, pattern.width):
        raise InvalidInputError(
            f"labels {labels.shape} do not match pattern "
            f"{pattern.height}x{pattern.width}")
    labels = labels.ravel()
    if labels.dtype.kind in "iu" and 0 <= labels.min() <= labels.max() < 256:
        labels = labels.astype(np.uint8)  # a smaller gather, same equalities
    return labels.take(pattern.rows_h) == labels.take(pattern.cols_h)


def ground_truth_affinity(labels: np.ndarray,
                          pattern: SparsityPattern) -> np.ndarray:
    """Target affinities per edge slot: 1 where the edge joins same-label
    pixels, else 0 (`same_label_pairs`, for the pairs and the mirrors)."""
    return np.tile(same_label_pairs(labels, pattern), 2).astype(np.float64)


def affinity_loss_grad(w: np.ndarray, targets: np.ndarray):
    """Euclidean loss over edges: loss = 1/2 sum_e (w_e - t_e)^2, dW = w - t."""
    if w.shape != targets.shape:
        raise InvalidInputError(
            f"affinities {w.shape} and targets {targets.shape} differ")
    diff = w - targets
    return 0.5 * float(diff @ diff), diff


@dataclass
class TransitionMatrix:
    """Row-stochastic walk matrix A = D^-1 W over a shared pattern.

    `degree[i]` is D_ii, the sum of row i's affinities (1 for a pixel
    without neighbors, whose row stays empty: it receives nothing from
    the walk and is held in place by the damped step's (1 - alpha) f
    term). `weights` is W per pixel pair, W_h with W = W_h + W_h^T, which
    makes A `symmetric`; or else A per edge slot (a non-symmetric W, or
    free entries). Products wrap `weights` and the pattern's index arrays
    in one COO matrix and its kept transpose, without copies; in the
    symmetric form A x = D^-1 (W x) and A^T x = W D^-1 x. The solver
    applies D^-1/2 W D^-1/2 from its own CSR copy, in `row_order`.
    `values` is A per edge slot.
    """

    pattern: SparsityPattern
    weights: np.ndarray
    degree: np.ndarray

    @property
    def num_pixels(self) -> int:
        return self.pattern.num_pixels

    @property
    def symmetric(self) -> bool:
        return self.weights.size == self.pattern.num_pairs

    @functools.cached_property
    def values(self) -> np.ndarray:
        if not self.symmetric:
            return self.weights
        return np.tile(self.weights, 2) / self.degree.take(self.pattern.rows)

    @functools.cached_property
    def _coo(self) -> sp.coo_matrix:
        p, n = self.pattern, self.num_pixels
        index = (p.rows_h, p.cols_h) if self.symmetric else (p.rows, p.cols)
        return sp.coo_matrix((self.weights, index), shape=(n, n))

    @functools.cached_property
    def _coo_t(self) -> sp.coo_matrix:
        return self._coo.T

    def _wmatvec(self, x: np.ndarray) -> np.ndarray:
        """W @ x in the symmetric form."""
        return self._coo @ x + self._coo_t @ x

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x for per-pixel rows x, (n,) or (n, m). Where W x overflows
        but A x, a convex combination, cannot, x is scaled down first."""
        if not self.symmetric:
            return self._coo @ x
        degree = self.degree if x.ndim == 1 else self.degree[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            y = self._wmatvec(x) / degree
            if np.isfinite(y).all() or not np.isfinite(x).all():
                return y
            scale = np.ldexp(1.0, -np.frexp(np.abs(x).max())[1])  # exact, < 1
            return self._wmatvec(x * scale) / degree / scale

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """A^T @ x, through the kept transpose (no copy)."""
        if not self.symmetric:
            return self._coo_t @ x
        degree = self.degree if x.ndim == 1 else self.degree[:, None]
        return self._wmatvec(x / degree)

    def dense(self) -> np.ndarray:
        p, n = self.pattern, self.num_pixels
        return sp.coo_matrix((self.values, (p.rows, p.cols)),
                             shape=(n, n)).toarray()


def transition(pattern: SparsityPattern, w: np.ndarray) -> TransitionMatrix:
    """Row-normalize affinities W, per pixel pair or per edge slot (taken per
    pair if its halves are equal), into walk probabilities W_ij / D_i. The
    degrees D = W 1 are one product of the matrix with D = I, which is W."""
    w = np.asarray(w, dtype=np.float64)
    pairs, n = pattern.num_pairs, pattern.num_pixels
    if w.shape == (2 * pairs,) and np.array_equal(w[:pairs], w[pairs:]):
        w = w[:pairs]
    if w.shape not in ((pairs,), (2 * pairs,)):
        raise InvalidInputError(f"{w.shape} affinities for {pairs} pairs")
    degree = TransitionMatrix(pattern, w, np.ones(n)).matvec(np.ones(n))
    if not np.all(np.isfinite(degree)):  # as W is, or its rows overflow
        raise InvalidInputError("non-finite affinities")
    degree[np.diff(pattern.indptr) == 0] = 1.0  # no edges: A does not change
    if np.any(degree <= 0.0):  # every row must be normalizable
        raise InvalidInputError("row of affinities sums to zero")
    if w.size != pairs:
        w = w / np.take(degree, pattern.rows)
    return TransitionMatrix(pattern, w, degree)


def dump_edges(pattern: SparsityPattern, values: np.ndarray, fh) -> None:
    """Write per-edge values as text triplets "i j value", one per line,
    sorted by (i, j)."""
    order = np.lexsort((pattern.cols, pattern.rows))
    rows, cols = pattern.rows[order], pattern.cols[order]
    for i, j, v in zip(rows, cols, values[order]):
        fh.write(f"{i} {j} {float(v)!r}\n")
