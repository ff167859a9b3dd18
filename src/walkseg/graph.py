"""Sparse pixel-affinity graphs and the row-stochastic transition matrix.

A pixel grid induces a symmetric neighbor pattern: pixel i connects to
every pixel j != i whose grid coordinates lie within a radius R of i's.
All per-edge quantities (affinities W, transition weights A, their
gradients, ground-truth targets) are flat arrays parallel to one shared
pattern, in one edge order, the offset-major order of
`SparsityPattern`. The transition matrix is the row normalization
A = D^-1 W with D_ii the sum of row i's off-diagonal affinities; its rows
are probability distributions over neighbors. Patterns are memoised on
(height, width, radius), so their arrays are shared and read-only.

The pattern is translation-invariant, which the learned affinities use.
A neighbor offset o = (dy, dx) joins every pixel p of one rectangular
window of the grid to p + o, so the per-channel L1 distances of its
edges form one block |S[window] - S[window + o]| of at most h*w rows,
sliced from the (h, w, k) feature stack S. The mirror offset -o joins
the same pixel pairs in the opposite direction and in the same order,
so one block serves both. The pattern is built by one enumeration of
the offsets > (0, 0), which lists the edges offset-major: the edges
(p, p + o) block by block, then their mirrors in the same order, so
slots t and t + E/2 join the same pixel pair. The same enumeration
plans the runs of the affinity head: it cuts a window of more than
`_RUN_EDGES` edges into bands of whole rows and groups consecutive
blocks into runs of at most that many edges (1 MiB of distances at
k = 131), and the pattern keeps that plan. `learned_affinity`, its
backward pass and `walk.rw_backward_a` work through the blocks, the
affinity head a run at a time, so the E x k distance tensor is never
held. `channel_distances` gathers that tensor in one piece; it is the
reference path the tests compare against, not part of the pipeline.

The sparse product reads the same order: `TransitionMatrix` wraps the
pattern's `rows`, `cols` and its own values in one scipy COO matrix,
with no copy and no sort, and multiplies by A^T through its transpose.

Backward passes are exact Jacobian transposes:
  affinity head   W_e = exp(sum_c theta_c F_ec)  ->  dtheta_c = sum_e dW_e W_e F_ec
  row normalize   A_ij = W_ij / D_i              ->  dW_ij = (dA_ij - sum_j' dA_ij' A_ij') / D_i
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import InvalidInputError


# a run of distances holds at most this many edges (1 MiB of float64 at
# 131 channels), unless a single grid row holds more (see `SparsityPattern`)
_RUN_EDGES = 1000


@dataclass
class OffsetBlock:
    """A band of whole window rows of one offset o = (dy, dx) > (0, 0),
    and of its mirror -o.

    Offset o joins each pixel of the grid window `src` (a pair of row
    and column slices) to the pixel at the same place in `dst`, which is
    `src` shifted by o. These edges take the offset-major slots
    `start:stop`, row-major over `src`; the mirrored edges take the same
    slots shifted by half the pattern's edge count.
    """

    src: tuple
    dst: tuple
    start: int
    stop: int


@dataclass
class SparsityPattern:
    """Symmetric neighbor structure of a height x width pixel grid.

    Edge slot e is the directed pair (rows[e], cols[e]), in offset-major
    order: the first half of the slots holds the edges (p, p + o) of
    every offset o > (0, 0) in ascending (dy, dx) order, listed by
    `blocks`; the second half holds the mirrored edges (p + o, p) in the
    same order. So slots t and t + num_edges // 2 join the same pixel
    pair, and an edge array ``v`` is symmetric iff ``v[:half] == v[half:]``.

    The pattern carries the run plan of the learned affinities. An
    offset's window is one block, or, where it holds more than
    `_RUN_EDGES` edges, row bands of at most that many (one grid row at
    least). `runs` groups consecutive blocks into runs of at most
    `_RUN_EDGES` edges, of which only a one-row band can hold more, and
    `blocks` is their concatenation.

    ``indptr[i + 1] - indptr[i]`` is pixel i's neighbor count. The three
    index arrays are int32 where E fits, the index type scipy keeps
    without a copy.
    """

    height: int
    width: int
    radius: int
    indptr: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    blocks: list = field(repr=False)
    runs: list = field(repr=False)

    @property
    def num_pixels(self) -> int:
        return self.height * self.width

    @property
    def num_edges(self) -> int:
        return int(self.rows.size)


def build_sparsity(height: int, width: int, radius: int) -> SparsityPattern:
    """Enumerate all ordered pixel pairs within Euclidean distance
    `radius` of each other; self-pairs are never included. Deterministic.

    The last few patterns are memoised: equal arguments return the same
    object, whose arrays are read-only.
    """
    if height < 1 or width < 1:
        raise InvalidInputError(f"bad grid {height}x{width}")
    if radius < 1:
        raise InvalidInputError(f"radius must be >= 1, got {radius}")
    return _build_sparsity(int(height), int(width), radius)


@functools.lru_cache(maxsize=4)
def _build_sparsity(height, width, radius):
    pixels = np.arange(height * width, dtype=np.int64).reshape(height, width)
    blocks, runs, srcs, dsts = [], [], [], []
    span_y, span_x = min(int(radius), height - 1), min(int(radius), width - 1)
    for dy in range(span_y + 1):
        for dx in range(-span_x if dy else 1, span_x + 1):
            if dy * dy + dx * dx > radius * radius:
                continue
            # pixel (y, x) of the window has the neighbor (y + dy, x + dx)
            x0, x1 = max(0, -dx), width - max(0, dx)
            step = max(1, _RUN_EDGES // (x1 - x0))
            for y0 in range(0, height - dy, step):
                y1 = min(y0 + step, height - dy)
                start = blocks[-1].stop if blocks else 0
                block = OffsetBlock(
                    (slice(y0, y1), slice(x0, x1)),
                    (slice(y0 + dy, y1 + dy), slice(x0 + dx, x1 + dx)),
                    start, start + (y1 - y0) * (x1 - x0))
                if runs and block.stop - runs[-1][0].start <= _RUN_EDGES:
                    runs[-1].append(block)
                else:
                    runs.append([block])
                blocks.append(block)
                srcs.append(pixels[block.src].ravel())
                dsts.append(pixels[block.dst].ravel())

    # offset-major order: the edges (p, p + o), then their mirrors
    n = height * width
    edges = 2 * (blocks[-1].stop if blocks else 0)
    index = np.int32 if edges < 2 ** 31 else np.int64
    empty = [np.empty(0, dtype=index)]
    rows = np.concatenate(srcs + dsts or empty, dtype=index)
    cols = np.concatenate(dsts + srcs or empty, dtype=index)
    del srcs, dsts
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    for array in (indptr, rows, cols):
        array.setflags(write=False)
    return SparsityPattern(height, width, radius, indptr, rows, cols, blocks,
                           runs)


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
    """Per-edge, per-channel L1 distances: out[e, c] = |stack_i[c] - stack_j[c]|.

    Distances are kept separate per channel, one row per edge of the
    pattern, both edge directions stored. This gathers the whole E x k
    tensor; it is the reference for `learned_affinity`, which never
    holds it.
    """
    flat = _pixel_grid(stack, pattern).reshape(pattern.num_pixels, -1)
    return np.abs(flat[pattern.rows] - flat[pattern.cols])


def _distance_runs(grid: np.ndarray, pattern: SparsityPattern):
    """Yield (slots, distances) per run of `pattern.runs`: the slice of
    first-half slots the run covers and its edges' distances
    |S[src] - S[dst]| as (edges, k) rows. Every run overwrites one
    shared buffer, so a caller must be done with a run before asking
    for the next."""
    buffer = np.empty((max(_RUN_EDGES, pattern.width), grid.shape[2]))
    for run in pattern.runs:
        first = run[0].start
        fdist = buffer[:run[-1].stop - first]
        for block in run:
            src = grid[block.src]
            out = fdist[block.start - first:block.stop - first]
            np.subtract(src, grid[block.dst], out=out.reshape(src.shape))
        np.abs(fdist, out=fdist)
        yield slice(first, run[-1].stop), fdist


def learned_affinity(stack: np.ndarray, pattern: SparsityPattern,
                     theta: np.ndarray) -> np.ndarray:
    """Affinities W = exp(F theta) on every edge of `pattern`.

    Equal, up to the rounding of each edge's dot product, to
    ``affinity_forward(channel_distances(stack, pattern), theta)``, but
    computed a run of blocks at a time (see `SparsityPattern`), so the
    distances held at once take at most `_RUN_EDGES` rows, or one grid
    row where a row is wider than that.
    A pixel pair's two edges get the same value, so the two halves of
    ``w`` are equal exactly.
    """
    grid = _pixel_grid(stack, pattern)
    theta = np.asarray(theta, dtype=np.float64)
    _check_head(grid.shape[2], theta)
    half = pattern.num_edges // 2
    w = np.empty(pattern.num_edges)
    with np.errstate(over="ignore"):  # overflow to inf is caught in transition
        for slots, fdist in _distance_runs(grid, pattern):
            w[slots] = w[half + slots.start:half + slots.stop] = _exp_head(
                fdist, theta)
    return w


def learned_affinity_backward(stack: np.ndarray, pattern: SparsityPattern,
                              w: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """dtheta for the affinities `w` that `learned_affinity` returned.

    A pixel pair's two edges share their distances and their affinity,
    so a run contributes ``affinity_backward(fdist, w_run, dw_run +
    dw_mirrored_run)``. Runs are summed in a fixed order, so repeated
    calls are bit-identical.
    """
    grid = _pixel_grid(stack, pattern)
    half = pattern.num_edges // 2
    dtheta = np.zeros(grid.shape[2])
    for slots, fdist in _distance_runs(grid, pattern):
        mirrored = slice(half + slots.start, half + slots.stop)
        dtheta += affinity_backward(fdist, w[slots], dw[slots] + dw[mirrored])
    return dtheta


def _check_head(channels: int, theta: np.ndarray) -> None:
    """The head takes one finite parameter per distance channel."""
    if not np.all(np.isfinite(theta)):
        raise InvalidInputError("non-finite affinity parameters")
    if theta.shape != (channels,):
        raise InvalidInputError(
            f"distance tensor has {channels} channels, theta has shape "
            f"{theta.shape}")


def _exp_head(fdist: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The head's arithmetic, for a theta that `_check_head` passed."""
    return np.exp(fdist @ theta)


def affinity_forward(fdist: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Affinity head: W_e = exp(sum_c theta_c * fdist[e, c]).

    A 1x1 convolution over the k distance channels followed by an
    exponential; no bias, so the head has exactly k parameters.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if fdist.ndim != 2:
        raise InvalidInputError(f"bad distance tensor shape {fdist.shape}")
    _check_head(fdist.shape[1], theta)
    with np.errstate(over="ignore"):  # overflow to inf is caught in transition
        return _exp_head(fdist, theta)


def affinity_backward(fdist: np.ndarray, w: np.ndarray,
                      dw: np.ndarray) -> np.ndarray:
    """Chain rule through the exponential and the 1x1 convolution.

    dtheta_c = sum_e dw[e] * w[e] * fdist[e, c]. Summation order is the
    fixed edge order, so repeated calls are bit-identical.
    """
    return fdist.T @ (dw * w)


def ground_truth_affinity(labels: np.ndarray,
                          pattern: SparsityPattern) -> np.ndarray:
    """Target affinities: 1 where the edge joins same-label pixels, else 0.

    Slots t and t + E/2 join the same pixel pair, so only the first half
    is compared and the second half is its copy."""
    labels = np.asarray(labels)
    if labels.shape != (pattern.height, pattern.width):
        raise InvalidInputError(
            f"labels {labels.shape} do not match pattern "
            f"{pattern.height}x{pattern.width}")
    labels = labels.ravel()
    half = pattern.num_edges // 2
    targets = np.empty(pattern.num_edges)
    targets[:half] = labels[pattern.rows[:half]] == labels[pattern.cols[:half]]
    targets[half:] = targets[:half]
    return targets


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

    `values[e]` is A at edge slot e, `degree[i]` is D_ii (the sum of row
    i's affinities). Rows without neighbors stay empty: such a pixel
    receives nothing from the walk and is held in place by the damped
    step's (1 - alpha) f term. `symmetric` says that W was exactly
    symmetric, which the solver's conjugate gradients need and
    `values * degree[rows]` does not reproduce bit for bit; `transition`
    sets it. The first product wraps `values` and the pattern's index
    arrays in a scipy COO matrix, without copying them, and keeps it.
    """

    pattern: SparsityPattern
    values: np.ndarray
    degree: np.ndarray
    symmetric: bool = False
    _coo: sp.coo_matrix = field(default=None, repr=False, compare=False)

    @property
    def num_pixels(self) -> int:
        return self.pattern.num_pixels

    def _matrix(self) -> sp.coo_matrix:
        if self._coo is None:
            pattern, n = self.pattern, self.num_pixels
            self._coo = sp.coo_matrix(
                (self.values, (pattern.rows, pattern.cols)), shape=(n, n))
        return self._coo

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a dense (n, m) matrix of per-pixel rows."""
        return self._matrix() @ x

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """A^T @ x, through the transpose of A's COO matrix (no copy)."""
        return self._matrix().T @ x

    def dense(self) -> np.ndarray:
        return self._matrix().toarray()


def transition(pattern: SparsityPattern, w: np.ndarray) -> TransitionMatrix:
    """Row-normalize affinities into walk probabilities A_ij = W_ij / D_i."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (pattern.num_edges,):
        raise InvalidInputError(
            f"{w.shape} affinities for {pattern.num_edges} edges")
    if not np.all(np.isfinite(w)):
        raise InvalidInputError("non-finite affinities")
    degree = np.bincount(pattern.rows, weights=w, minlength=pattern.num_pixels)
    # every row that has neighbors must be normalizable
    occupied = np.diff(pattern.indptr) > 0
    if np.any(degree[occupied] <= 0.0):
        raise InvalidInputError("row of affinities sums to zero")
    values = w / degree[pattern.rows] if w.size else w.copy()
    half = w.size // 2
    return TransitionMatrix(pattern, values, degree,
                            np.array_equal(w[:half], w[half:]))


def transition_backward(a: TransitionMatrix, da: np.ndarray) -> np.ndarray:
    """Jacobian-transpose of row normalization.

    dW_ij = (dA_ij - sum_j' dA_ij' A_ij') / D_i. A uniform dA within a
    row yields zero because each row of A sums to one.
    """
    pattern = a.pattern
    if da.shape != (pattern.num_edges,):
        raise InvalidInputError(
            f"{da.shape} gradients for {pattern.num_edges} edges")
    row_dot = np.bincount(pattern.rows, weights=da * a.values,
                          minlength=pattern.num_pixels)
    return (da - row_dot[pattern.rows]) / a.degree[pattern.rows]


def dump_edges(pattern: SparsityPattern, values: np.ndarray, fh) -> None:
    """Write per-edge values as text triplets "i j value", one per line,
    sorted by (i, j)."""
    order = np.lexsort((pattern.cols, pattern.rows))
    rows, cols = pattern.rows[order], pattern.cols[order]
    for i, j, v in zip(rows, cols, values[order]):
        fh.write(f"{i} {j} {float(v)!r}\n")
