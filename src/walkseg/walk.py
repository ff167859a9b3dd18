"""The diffusion layer: one walk step, the damped step, and their adjoints.

Forward is a sparse matrix product y_hat = A f over (n, m) per-pixel class
scores. The damped step mixes diffusion with the original scores:
y_{t+1} = alpha * A y_t + (1 - alpha) * f. Backward passes are exact
Jacobian transposes: the score branch gets A^T dY and the affinity branch
the outer product dY f^T on the pattern's edges; training's layer carries
that through A = D^-1 W to dW summed over each pixel pair.
`certify_labels` bounds every walk's scores by interval, to decide labels
without running the walk.
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


def certify_labels(f: np.ndarray, alpha: float, rows=slice(None), af=None,
                   af_error=0.0, y=None, hops: int = 1):
    """Labels that f decides for every walk from it, by interval: returns
    (labels, certain) for f[rows].

    Each column of y_N, N >= 1 damped steps from f, and of the fixed
    point y* lies in f's column range [m_c, M_c], and so does A times
    either. So y - f = alpha (A y' - f) puts y_ic in f_ic + alpha [m_c -
    f_ic, M_c - f_ic]. Given af = (A^K f)[rows] and y = y_K[rows], K =
    `hops` <= N sweeps (by default y_1 = alpha A f + (1 - alpha) f),
    y - y_K = (alpha A)^K (y' - f) = alpha^(K+1) (A^(K+1) y'' - A^K f)
    narrows that: y_ic lies in y_K,ic + alpha^(K+1) [m_c - (A^K f)_ic,
    M_c - (A^K f)_ic]. Both hold for pixels with a neighbor; on a 1 x 1
    grid y = (1 - alpha) f, outside the first interval, which is then the
    point f and orders the classes as y does. A row is certain where its
    best class's lower end exceeds every other class's upper end, so
    exact ties never are. The ends widen by (alpha + alpha^(K+1))
    `af_error`, a bound on |af - A^K f| and on |y - y_K| / alpha, and by
    8 eps max|f|, their own rounding (a few terms, each at most 2 max|f|).
    """
    f_min, f_max = f.min(axis=0), f.max(axis=0)
    slack = 8.0 * np.finfo(np.float64).eps * np.abs(f).max(initial=0.0)
    if af is None:
        y = anchor = f[rows]
        reach = alpha
    else:
        if y is None:
            y = alpha * af + (1.0 - alpha) * f[rows]
        anchor, reach = af, alpha ** (hops + 1)
        slack = slack + (alpha + reach) * af_error
    with np.errstate(invalid="ignore"):  # a non-finite af certifies nothing
        low = y + reach * (f_min - anchor) - slack
        high = y + reach * (f_max - anchor) + slack
        labels = np.argmax(low, axis=1)
        best = np.take_along_axis(low, labels[:, None], axis=1)[:, 0]
        np.put_along_axis(high, labels[:, None], -np.inf, axis=1)
        return labels, best > high.max(axis=1, initial=-np.inf)


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

    One einsum per flat shift s (see `graph.SparsityPattern.shifts`)
    dots [x | y]_p with [y | x]_(p + s) for x = alpha [s | q] and y =
    [f | -1], both directions at once; q against -1 subtracts q_i + q_j."""
    pattern = a.pattern
    dy, f = _check_outer(pattern, dy, f)
    s = dy / a.degree[:, None]
    q = np.einsum("ic,ic->i", s, af)[:, None]
    x = alpha * np.hstack((s, q))
    y = np.hstack((f, np.full_like(q, -1.0)))
    left = np.concatenate((x, y), axis=1)
    right = np.concatenate((y, x), axis=1)
    pairs, dots = np.empty(pattern.num_pairs), np.empty(pattern.num_pixels)
    dots_grid = dots.reshape(pattern.height, pattern.width)
    for shift, span, parts in pattern.shifts:
        np.einsum("ic,ic->i", left[span],
                  right[span.start + shift:span.stop + shift], out=dots[span])
        for src, slots in parts:
            pairs[slots].reshape(dots_grid[src].shape)[...] = dots_grid[src]
    return pairs
