"""Test-time diffusion: solve for the fixed point of the damped step, or
sum the geometric series for the closed form.

With A row-stochastic and 0 <= alpha < 1, the spectral radius of alpha*A is
at most alpha, so I - alpha*A is invertible and the series
sum_i (alpha A)^i f converges geometrically with ratio <= alpha. Two
closed-form quantities coexist:

  fixed point of the damped step:  y = (1 - alpha) (I - alpha A)^-1 f
  plain resolvent:                 y = (I - alpha A)^-1 f

They differ by the uniform positive factor (1 - alpha), so the per-pixel
argmax is identical. `solve`, the entry point the pipeline uses, and
`diffuse_to_convergence` return the first; `solve_closed_form` and
`dense_oracle_solve`, the independent reference routes of the tests and
benchmarks, return the second.

`solve` is the one route table, written out in `_solve`, which also
gives `bench_step_vs_solve` the iteration count. It alone reads
CG_MIN_ALPHA, DEFLATE_MIN_ALPHA and W's symmetry, and picks one of two
paths and, for conjugate gradients, the coarse space. `_symmetric_cg`
deflates with the space it is given and decides nothing else:

  * the fixed-point loop y <- alpha A y + (1 - alpha) f. Its max-abs
    change contracts by alpha per sweep, so ||y - y*|| <= alpha / (1 -
    alpha) ||dy||; it stops when that bound (or ||dy|| itself, for
    alpha <= 1/2) falls below `tolerance`.
  * block conjugate gradients, when alpha >= CG_MIN_ALPHA and W is
    symmetric, which it is by construction where `graph.transition`
    stores it as one value per pixel pair (learned and oracle affinities
    are). A = D^-1 W then makes (I - alpha A) y = f the SPD system
    (D - alpha W) y = D f;
    with S = D^-1/2 W D^-1/2 it is (I - alpha S) z = D^1/2 f and
    y = (1 - alpha) D^-1/2 z. The loop needs about log(tol) / log(alpha)
    sweeps, CG about sqrt(1 / (1 - alpha)) iterations. CG forms the
    strict upper triangle K_h = -alpha D^-1/2 W_h D^-1/2 of I - alpha S
    once per solve, one CSR matrix in the pattern's row order, and
    applies I - alpha S = I + K_h + K_h^T as one CSR and one CSC pass
    over the same three arrays. Because the error of y is (1 - alpha)
    (I - alpha A)^-1 D^-1/2 r for the residual r of the z system, and
    (1 - alpha) sum_k alpha^k A^k is nonnegative with row sums <= 1, the
    residual bounds the error: ||y - y*||_inf <= max_ic |r_ic| / sqrt(D_i).
    CG stops when that falls below `tolerance` on the recomputed residual
    b - (I - alpha S) z. The updated residual drifts from it, so when only
    the updated one passes, CG restarts from the recomputed one. It
    reports its products with S, its iterations and restarts, the final
    bound and its tiles.
    From alpha DEFLATE_MIN_ALPHA on, CG is deflated (Nicolaides 1987). S
    has about one eigenvalue >= 0.99 per segment, near D^1/2 times a
    piecewise-constant vector, so p tile aggregates Z_ip = D_i^1/2, i in
    tile p (tiles of t x t pixels, see the rule), hold the slow modes.
    Each start and restart first solves on Z, z += Z u with E u = Z^T r,
    E = Z^T (I - alpha S) Z, built from K_h Z and K_h^T Z, banded and
    factored once by Cholesky. Every iteration is then the preconditioned
    CG step with Tang et al. 2009's A-DEF2 operator, a (re)start being
    that step with beta = 0. z and r stay the original system's, so the
    stop rule and the bound hold as they are.

The series of `solve_closed_form` stops when its terms after term t, at
most alpha / (1 - alpha) max|term_t|, fall below `tolerance`. Errors are
absolute, not relative: score columns may be zero for absent classes.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse._sparsetools import (csc_matvecs, csr_matvecs,
                                       csr_scale_columns, csr_scale_rows)

from .errors import ConvergenceError, InvalidInputError
from .graph import SparsityPattern, TransitionMatrix, build_sparsity, transition
from .walk import rw_step, _check_scores

# dense solves above this pixel count are almost certainly a mistake
DENSE_PIXEL_LIMIT = 4096

# `solve` uses conjugate gradients at and above this alpha when W is
# symmetric. Loop against plain CG on 64x64 scenes at R5, tolerance 1e-6,
# 2-core host, the pattern's row order built beforehand (per-scene
# medians of 5 alternating runs, then the median over scenes), in ms:
#   alpha                    0.4          0.5          0.6          0.7
#   oracle W (16 scenes)  15.5 / 13.1  24.9 / 19.4  27.7 / 17.6  43.8 / 25.7
#   learned W (12 scenes) 17.3 / 13.9  21.2 / 14.9  31.1 / 17.2  42.5 / 20.9
# At 0.4 that is 11 sweeps against 9 products on oracle W. CG was faster
# on every scene at every alpha here, so the crossover lies below 0.4.
CG_MIN_ALPHA = 0.6

# CG is deflated by tiles from this alpha on. Plain against deflated CG,
# same set-up, in ms (scenes where deflated CG was faster):
#   alpha             0.6        0.7        0.9        0.95       0.97
#   oracle W      17.6/25.7  25.7/30.5  46.8/51.7  56.3/48.2  58.2/53.9
#                   (0/16)     (0/16)     (0/16)     (8/16)    (10/16)
#   learned W     17.2/19.3  20.9/20.3  35.7/22.3  58.4/26.1  68.1/27.4
#                   (0/12)     (8/12)    (12/12)    (12/12)    (12/12)
# At 0.99, 95.8/71.1 ms on oracle W (products 69 -> 37) and 90.4/26.1 on
# learned W (61 -> 12). So this value fits oracle W, while on learned W
# deflation pays from 0.7 on. Its fixed cost at 64x64 is about 6 ms of
# `_tile_space` plus 0.3 ms of preconditioning per iteration.
DEFLATE_MIN_ALPHA = 0.97
# Tiles are t x t, t = max(4, ceil(max(h, w) / 16), ceil(R / 2)), so that
# p <= 256 and each pixel's neighbors lie within 5 x 5 tiles, which
# bounds E's band. The rule was measured at 64x64 only: there 4 x 4 tiles
# took the 37 products above and 8 x 8 took 47. At 375x500 it gives 192
# tiles of 32 x 32.


@dataclass
class SolverConfig:
    alpha: float = 0.01
    tolerance: float = 1e-6
    max_iterations: int = 10000

    def validate(self):
        if not 0.0 <= self.alpha < 1.0:
            raise InvalidInputError(
                f"alpha must lie in [0, 1), got {self.alpha}")
        if not 0.0 < self.tolerance < np.inf:
            raise InvalidInputError("tolerance must be positive and finite")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")

    def __post_init__(self):
        self.validate()


def diffuse_to_convergence(a: TransitionMatrix, f: np.ndarray,
                           cfg: SolverConfig):
    """Iterate y <- alpha A y + (1 - alpha) f from y = f until the error
    bound max|dy| * max(1, alpha / (1 - alpha)) falls below `tolerance`.

    Returns (fixed point, iterations used); a `ConvergenceError` reports
    the last bound. The max-abs change contracts by alpha per sweep, so
    the result is within alpha / (1 - alpha) * max|dy| < `tolerance`
    (max-abs) of (1 - alpha) (I - alpha A)^-1 f.
    """
    f = _check_scores(a, f)
    factor = max(1.0, cfg.alpha / (1.0 - cfg.alpha))
    y = f
    for iteration in range(1, cfg.max_iterations + 1):
        y_next = rw_step(a, f, y, cfg.alpha)
        bound = factor * float(np.max(np.abs(y_next - y))) if y.size else 0.0
        y = y_next
        if bound < cfg.tolerance:
            return y, iteration
    raise ConvergenceError(
        f"no fixed point after {cfg.max_iterations} sweeps "
        f"(error bound {bound:.3e})", residual=bound,
        iterations=cfg.max_iterations)


def _tile_space(pattern: SparsityPattern, k_h: sp.csr_matrix,
                root: np.ndarray):
    """Z (Z_ip = root_i for pixel i in tile p), Z - KZ and x -> E^-1 x,
    E = Z^T K Z, for K = I + K_h + K_h^T. Z - KZ = -(K_h Z + K_h^T Z),
    one sparse product each way. Neighbors lie within two tiles per
    axis, so E, in row-major tile order, is zero beyond its 2 across + 2
    bands: one banded Cholesky factor solves it."""
    side = max(4, -(-max(pattern.height, pattern.width) // 16),
               -(-pattern.radius // 2))
    down, across = -(-pattern.height // side), -(-pattern.width // side)
    y, x = np.divmod(np.arange(pattern.num_pixels), pattern.width)
    z = sp.csr_matrix((root[:, 0], y // side * across + x // side,
                       np.arange(y.size + 1)), shape=(y.size, down * across))
    leak = -(k_h @ z + k_h.T @ z)
    e, bands = z.T @ (z - leak), min(2 * across + 2, down * across - 1)
    # E's upper band, its k-th diagonal in row bands - k
    factor = cholesky_banded([np.pad(e.diagonal(k), (k, 0))
                              for k in range(bands, -1, -1)])
    return z, leak, lambda r: cho_solve_banded((factor, False), r)


def _symmetric_cg(a: TransitionMatrix, f: np.ndarray, cfg: SolverConfig,
                  coarse_space):
    """Block conjugate gradients on (I - alpha S) z = D^1/2 f, one column
    per class with its own step and beta, with K = I - alpha S applied and
    stopped as the module docstring says. Returns y = (1 - alpha) D^-1/2 z
    and a report dict: the `products` with S, the `iterations`, the
    `restarts`, the final error `bound` and the coarse space's `tiles` p
    (0 without one). `coarse_space(pattern, K_h, root)` gives (Z, Z - KZ,
    x -> E^-1 x), see `_tile_space`; None runs plain CG. Every step
    preconditions by A-DEF2, s = r + Z E^-1 (Z - KZ)^T r, and a (re)start
    is that step with beta = 0, after z += Z u. `transition` gives a row
    without neighbors degree 1, so S is zero there and y = (1 - alpha) f,
    as in the loop.
    """
    f = _check_scores(a, f)
    alpha, n = cfg.alpha, a.num_pixels
    root = np.sqrt(a.degree)[:, None]
    inv_root = 1.0 / root
    order, cols, indptr = a.pattern.row_order
    k_h = a.weights[order]  # W_h, scaled in place: no pair-sized temporary
    csr_scale_rows(n, n, indptr, cols, k_h, -alpha * inv_root[:, 0])
    csr_scale_columns(n, n, indptr, cols, k_h, inv_root[:, 0])
    k_h = sp.csr_matrix((k_h, cols, indptr), shape=(n, n))

    def apply(x):
        report["products"] += 1
        kx = x.copy()
        for matvecs in (csr_matvecs, csc_matvecs):
            matvecs(n, n, x.shape[1], k_h.indptr, k_h.indices, k_h.data, x,
                    kx)
        return kx

    report = dict(products=0, iterations=0, restarts=0, bound=0.0, tiles=0)
    if coarse_space:
        z_c, leak, coarse_solve = coarse_space(a.pattern, k_h, root)
        report["tiles"] = z_c.shape[1]
    b = root * f
    z = b / (1.0 - alpha)  # y = f, the loop's starting point
    r, recomputed, rr = b - apply(z), True, None
    while True:
        # the bound on y's error, from the module docstring
        report["bound"] = float(np.abs(inv_root * r).max()) if r.size else 0.0
        if report["bound"] < cfg.tolerance:
            if recomputed:
                return (1.0 - alpha) * inv_root * z, report
            r, recomputed = b - apply(z), True
            continue
        if report["iterations"] == cfg.max_iterations:
            raise ConvergenceError(
                f"conjugate gradients not converged after {cfg.max_iterations}"
                f" iterations (error bound {report['bound']:.3e})",
                residual=report["bound"], iterations=report["iterations"])
        if recomputed:  # start, or restart, from the recomputed residual
            report["restarts"] += report["iterations"] > 0
            if coarse_space:  # solve on Z first, so that Z^T r = 0
                u = coarse_solve(z_c.T @ r)
                z, r = z + z_c @ u, r - z_c @ u + leak @ u
        s = r + z_c @ coarse_solve(leak.T @ r) if coarse_space else r
        rr, rr_prev = np.einsum("ij,ij->j", r, s), rr
        p = s if recomputed else s + (
            rr / np.where(rr_prev > 0.0, rr_prev, 1.0)) * p
        q = apply(p)
        pq = np.einsum("ij,ij->j", p, q)
        step = rr / np.where(pq > 0.0, pq, 1.0)
        z = z + step * p
        r, recomputed = r - step * q, False
        report["iterations"] += 1


def solve_closed_form(a: TransitionMatrix, f: np.ndarray,
                      cfg: SolverConfig) -> np.ndarray:
    """Solve (I - alpha A) y = f by the truncated geometric series
    y = sum_i (alpha A)^i f, stopped on its error bound (module docstring)."""
    f = _check_scores(a, f)
    factor = cfg.alpha / (1.0 - cfg.alpha)
    y = f.copy()
    term = f
    for _ in range(1, cfg.max_iterations + 1):
        term = cfg.alpha * a.matvec(term)
        y += term
        bound = factor * float(np.max(np.abs(term))) if term.size else 0.0
        if bound < cfg.tolerance:
            return y
    raise ConvergenceError(
        f"series not converged after {cfg.max_iterations} terms "
        f"(error bound {bound:.3e})", residual=bound,
        iterations=cfg.max_iterations)


def dense_oracle_solve(a: TransitionMatrix, f: np.ndarray,
                       alpha: float) -> np.ndarray:
    """Exact dense elimination solve of (I - alpha A) y = f.

    Independent verification route for the iterative paths; guarded to
    small graphs so an accidental large input cannot materialize an
    n x n dense matrix.
    """
    f = _check_scores(a, f)
    n = a.num_pixels
    if n > DENSE_PIXEL_LIMIT:
        raise InvalidInputError(
            f"dense solve limited to {DENSE_PIXEL_LIMIT} pixels, got {n}")
    system = np.eye(n) - alpha * a.dense()
    return np.linalg.solve(system, f)


def solve(a: TransitionMatrix, f: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """The damped fixed point (1 - alpha) (I - alpha A)^-1 f: by the loop
    below CG_MIN_ALPHA or where W is not exactly symmetric, else by
    conjugate gradients, deflated by tiles from DEFLATE_MIN_ALPHA on."""
    return _solve(a, f, cfg)[0]


def _solve(a: TransitionMatrix, f: np.ndarray, cfg: SolverConfig):
    """`solve`'s route table; returns (y, iterations)."""
    cfg.validate()
    if cfg.alpha < CG_MIN_ALPHA or not a.symmetric:
        return diffuse_to_convergence(a, f, cfg)
    y, report = _symmetric_cg(a, f, cfg, _tile_space
                              if cfg.alpha >= DEFLATE_MIN_ALPHA else None)
    return y, report["iterations"]


@dataclass
class BenchRow:
    n_pixels: int
    radius: int
    nnz: int
    step_ms: float
    solve_ms: float
    dense_ms: float
    iters: int


@dataclass
class BenchReport:
    rows: list = field(default_factory=list)

    CSV_HEADER = "n_pixels,radius,nnz,step_ms,solve_ms,dense_ms,iters"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.n_pixels},{r.radius},{r.nnz},{r.step_ms:.6f},"
                f"{r.solve_ms:.6f},{r.dense_ms:.6f},{r.iters}")
        return "\n".join(lines) + "\n"


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        begin = time.perf_counter()
        fn()
        times.append(time.perf_counter() - begin)
    return float(np.median(times)) * 1e3


def bench_step_vs_solve(sizes, radius: int, cfg: SolverConfig,
                        repeats: int = 9) -> BenchReport:
    """Wall-clock one sparse step vs the converged solve, by the route
    `solve` takes, vs the dense solve.

    One row per (h, w) in `sizes`, on uniform random affinities, one per
    pixel pair as the model and the oracle give them, and 3 random score
    columns (seed 0). The sparse step runs on one thread, so
    timings are comparable across machines. The dense elimination uses
    whatever the BLAS provides, which only makes the dense side look
    faster. `dense_ms` is NaN where the dense guard forbids the solve.
    """
    if not sizes:
        raise InvalidInputError("need at least one (h, w) size")
    if repeats < 1:
        raise InvalidInputError("repeats must be >= 1")
    rng = np.random.default_rng(0)
    report = BenchReport()
    for height, width in sizes:
        pattern = build_sparsity(height, width, radius)
        w = rng.uniform(0.5, 1.5, pattern.num_pairs)
        a = transition(pattern, w)
        f = rng.standard_normal((pattern.num_pixels, 3))
        a.matvec(f)  # build A's sparse matrix before timing
        step_ms = _median_time(lambda: a.matvec(f), repeats)
        begin = time.perf_counter()
        _, iters = _solve(a, f, cfg)
        solve_ms = (time.perf_counter() - begin) * 1e3
        if pattern.num_pixels <= DENSE_PIXEL_LIMIT:
            dense_ms = _median_time(
                lambda: dense_oracle_solve(a, f, cfg.alpha), max(1, repeats // 3))
        else:
            dense_ms = float("nan")
        report.rows.append(BenchRow(pattern.num_pixels, radius,
                                    pattern.num_edges, step_ms, solve_ms,
                                    dense_ms, iters))
    return report
