"""The diffusion layer: one walk step, the damped step, and their adjoints.

Forward is a sparse matrix product y_hat = A f over (n, m) per-pixel class
scores. The damped step mixes diffusion with the original scores:
y_{t+1} = alpha * A y_t + (1 - alpha) * f. Backward passes are exact
Jacobian transposes: the score branch gets A^T dY and the affinity branch
the outer product dY f^T on the pattern's edges; training's layer carries
that through A = D^-1 W to dW summed over each pixel pair.
"""

import numpy as np

from .errors import InvalidInputError
from .graph import SparsityPattern, TransitionMatrix


def _check_scores(a: TransitionMatrix, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] != a.num_pixels:
        raise InvalidInputError(
            f"scores {f.shape} do not match {a.num_pixels} pixels")
    if not np.isfinite(f).all():
        raise InvalidInputError("non-finite class scores")
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


def _check_outer(pattern: SparsityPattern, dy: np.ndarray, f: np.ndarray):
    dy = np.asarray(dy, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if dy.shape != f.shape or dy.ndim != 2 or dy.shape[0] != pattern.num_pixels:
        raise InvalidInputError(
            f"gradient {dy.shape} / scores {f.shape} do not match "
            f"{pattern.num_pixels} pixels")
    return dy, f


def rw_backward_a(pattern: SparsityPattern, dy: np.ndarray,
                  f: np.ndarray) -> np.ndarray:
    """Gradient into the affinity branch: dA_ij = dY_i . f_j, computed only
    on the pattern's edges, one gathered row pair per edge. The per-edge
    reference of the acceptance tests; training takes `rw_backward_pairs`."""
    dy, f = _check_outer(pattern, dy, f)
    return np.einsum("ec,ec->e", dy[pattern.rows], f[pattern.cols])


def rw_backward_pairs(a: TransitionMatrix, dy: np.ndarray, f: np.ndarray,
                      af: np.ndarray, alpha: float) -> np.ndarray:
    """dL/dW summed over each pixel pair's two edges, by the pair's
    slot, for a y whose walk term is alpha A f (af = A f):
    with s = dY / D and q_i = s_i . (A f)_i, row normalization gives

        g_ij = dW_ij + dW_ji = alpha (s_i . f_j + s_j . f_i - q_i - q_j)

    One einsum per offset block (see `graph.SparsityPattern`) dots
    [x | y][window] with [y | x][window + o] for x = alpha [s | q] and
    y = [f | -1], both directions at once; q against -1 subtracts q_i + q_j."""
    pattern = a.pattern
    dy, f = _check_outer(pattern, dy, f)
    s = dy / a.degree[:, None]
    q = np.einsum("ic,ic->i", s, af)[:, None]
    x = alpha * np.hstack((s, q))
    y = np.hstack((f, np.full_like(q, -1.0)))
    grid_shape = (pattern.height, pattern.width, 2 * x.shape[1])
    left = np.concatenate((x, y), axis=1).reshape(grid_shape)
    right = np.concatenate((y, x), axis=1).reshape(grid_shape)
    pairs = np.empty(pattern.num_pairs)
    for block in pattern.blocks:
        src = left[block.src]
        np.einsum("...c,...c->...", src, right[block.dst],
                  out=pairs[block.start:block.stop].reshape(src.shape[:2]))
    return pairs
