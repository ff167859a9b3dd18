"""The diffusion layer: one walk step, the damped step, and both adjoints.

Forward is a sparse matrix product y_hat = A f over (n, m) per-pixel class
scores. The damped step mixes diffusion with the original scores:
y_{t+1} = alpha * A y_t + (1 - alpha) * f. Backward passes are the exact
transposes of the forward product: the gradient reaching the score branch
is A^T dY, and the gradient reaching the affinity branch is the outer
product dY f^T restricted to the pattern's edges.
"""

import numpy as np

from .errors import InvalidInputError
from .graph import SparsityPattern, TransitionMatrix


def _check_scores(a: TransitionMatrix, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] != a.num_pixels:
        raise InvalidInputError(
            f"scores {f.shape} do not match {a.num_pixels} pixels")
    return f


def rw_forward(a: TransitionMatrix, f: np.ndarray) -> np.ndarray:
    """One walk step y_hat = A f; each output row is a convex combination
    of its neighbors' rows."""
    return a.matvec(_check_scores(a, f))


def rw_step(a: TransitionMatrix, f: np.ndarray, y_t: np.ndarray,
            alpha: float) -> np.ndarray:
    """Damped step y_{t+1} = alpha * A y_t + (1 - alpha) * f."""
    if not 0.0 <= alpha <= 1.0:
        raise InvalidInputError(f"alpha must lie in [0, 1], got {alpha}")
    f = _check_scores(a, f)
    y_t = _check_scores(a, y_t)
    if f.shape != y_t.shape:
        raise InvalidInputError(f"shapes {f.shape} vs {y_t.shape} differ")
    return alpha * a.matvec(y_t) + (1.0 - alpha) * f


def rw_backward_f(a: TransitionMatrix, dy: np.ndarray) -> np.ndarray:
    """Gradient into the score branch: dF = A^T dY."""
    return a.rmatvec(_check_scores(a, dy))


def rw_backward_a(pattern: SparsityPattern, dy: np.ndarray,
                  f: np.ndarray) -> np.ndarray:
    """Gradient into the affinity branch: dA_ij = dY_i . f_j, computed only
    on the pattern's edges.

    Runs one offset pair at a time (see `graph.SparsityPattern`): for the
    pixel pairs (p, p + o) of one offset o, dA is the per-pixel dot of
    the slices dY[window] and f[window + o], and the mirror offset -o
    takes dY[window + o] . f[window].
    """
    dy = np.asarray(dy, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if dy.shape != f.shape or dy.ndim != 2 or dy.shape[0] != pattern.num_pixels:
        raise InvalidInputError(
            f"gradient {dy.shape} / scores {f.shape} do not match "
            f"{pattern.num_pixels} pixels")
    grid_shape = (pattern.height, pattern.width, dy.shape[1])
    dy, f = dy.reshape(grid_shape), f.reshape(grid_shape)
    half = pattern.num_edges // 2
    da = np.empty(pattern.num_edges)
    for block in pattern.blocks:
        da[block.start:block.stop] = np.einsum(
            "...c,...c->...", dy[block.src], f[block.dst]).ravel()
        da[half + block.start:half + block.stop] = np.einsum(
            "...c,...c->...", dy[block.dst], f[block.src]).ravel()
    return da
