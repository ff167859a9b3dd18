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

`solve` takes one of two paths:

  * the fixed-point loop y <- alpha A y + (1 - alpha) f. Its max-abs
    change contracts by alpha per sweep, so ||y - y*|| <= alpha / (1 -
    alpha) ||dy||; it stops when that bound (or ||dy|| itself, for
    alpha <= 1/2) falls below `tolerance`.
  * block conjugate gradients, when alpha >= CG_MIN_ALPHA and W is
    exactly symmetric (learned and oracle affinities are), which
    `graph.transition` records as `TransitionMatrix.symmetric`. A = D^-1 W
    then makes (I - alpha A) y = f the SPD system (D - alpha W) y = D f;
    with S = D^-1/2 W D^-1/2 it is (I - alpha S) z = D^1/2 f and
    y = (1 - alpha) D^-1/2 z. The loop needs about log(tol) / log(alpha)
    sweeps, CG about sqrt(1 / (1 - alpha)) iterations. Because
    the error of y is (1 - alpha) (I - alpha A)^-1 D^-1/2 r for the
    residual r of the z system, and (1 - alpha) sum_k alpha^k A^k is
    nonnegative with row sums <= 1, the residual bounds the error:
    ||y - y*||_inf <= max_ic |r_ic| / sqrt(D_i). CG stops when that
    falls below `tolerance` on the recomputed residual b - (I - alpha S) z.
    The updated residual drifts from it, so when only the updated one
    passes, CG restarts from the recomputed one. It reports its products
    with S, its iterations and restarts, and the final bound.

Convergence is measured in absolute terms, not relative: score columns
may be identically zero for absent classes.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, InvalidInputError
from .graph import TransitionMatrix, build_sparsity, transition
from .walk import rw_step, _check_scores

# dense solves above this pixel count are almost certainly a mistake
DENSE_PIXEL_LIMIT = 4096

# `solve` uses conjugate gradients at and above this alpha when W is
# symmetric. Measured on 64x64 oracle scenes at R5, tolerance 1e-6, on a
# 2-core host (median of 8 scenes x 3 runs; ranges over two repeats),
# loop against CG: 16-17 against 16-17 ms at alpha 0.5 (14 sweeps, 10-12
# products), 21-24 against 17-20 ms at 0.6 (18-19 sweeps, 11-13
# products) and 35 against 24-25 ms at 0.7 (25-27 sweeps, 14-16
# products). The two tie at 0.5 and CG is ahead from 0.6 on.
CG_MIN_ALPHA = 0.6


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

    Returns (fixed point, iterations used). The max-abs change contracts
    by alpha per sweep, so the result is within alpha / (1 - alpha) *
    max|dy| < `tolerance` (max-abs) of (1 - alpha) (I - alpha A)^-1 f.
    """
    f = _check_scores(a, f)
    factor = max(1.0, cfg.alpha / (1.0 - cfg.alpha))
    y = f
    for iteration in range(1, cfg.max_iterations + 1):
        y_next = rw_step(a, f, y, cfg.alpha)
        delta = float(np.max(np.abs(y_next - y))) if y.size else 0.0
        y = y_next
        if delta * factor < cfg.tolerance:
            return y, iteration
    raise ConvergenceError(
        f"no fixed point after {cfg.max_iterations} sweeps "
        f"(last change {delta:.3e})", residual=delta,
        iterations=cfg.max_iterations)


def _symmetric_cg(a: TransitionMatrix, f: np.ndarray, cfg: SolverConfig):
    """Block conjugate gradients on (I - alpha S) z = D^1/2 f, one column
    per class with its own step and beta, stopped as the module docstring
    says. Returns y = (1 - alpha) D^-1/2 z and a report dict: the
    `products` with S, the `iterations`, the `restarts` and the final
    error `bound`.

    S x = D^1/2 A (D^-1/2 x) reuses A's sparse matrix. Rows without
    neighbors take degree 1, so S is zero there and y = (1 - alpha) f, as
    in the loop.
    """
    f = _check_scores(a, f)
    alpha = cfg.alpha
    root = np.sqrt(np.where(a.degree > 0.0, a.degree, 1.0))[:, None]
    inv_root = 1.0 / root
    alpha_root = alpha * root

    def apply(x):
        report["products"] += 1
        return x - alpha_root * a.matvec(inv_root * x)

    report = dict(products=0, iterations=0, restarts=0, bound=0.0)
    b = root * f
    z = b / (1.0 - alpha)  # y = f, the loop's starting point
    r, recomputed = b - apply(z), True
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
            p, rr = r, np.einsum("ij,ij->j", r, r)
        else:
            rr, rr_prev = np.einsum("ij,ij->j", r, r), rr
            p = r + (rr / np.where(rr_prev > 0.0, rr_prev, 1.0)) * p
        q = apply(p)
        pq = np.einsum("ij,ij->j", p, q)
        step = rr / np.where(pq > 0.0, pq, 1.0)
        z = z + step * p
        r, recomputed = r - step * q, False
        report["iterations"] += 1


def solve_closed_form(a: TransitionMatrix, f: np.ndarray,
                      cfg: SolverConfig) -> np.ndarray:
    """Solve (I - alpha A) y = f by the truncated geometric series
    y = sum_i (alpha A)^i f, stopping when the appended term's max-abs
    falls below `tolerance`."""
    f = _check_scores(a, f)
    y = f.copy()
    term = f
    for _ in range(1, cfg.max_iterations + 1):
        term = cfg.alpha * a.matvec(term)
        y += term
        largest = float(np.max(np.abs(term))) if term.size else 0.0
        if largest < cfg.tolerance:
            return y
    raise ConvergenceError(
        f"series not converged after {cfg.max_iterations} terms "
        f"(last term {largest:.3e})", residual=largest,
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
    """The damped fixed point (1 - alpha) (I - alpha A)^-1 f, by conjugate
    gradients when alpha >= CG_MIN_ALPHA and W is exactly symmetric, and
    by the fixed-point loop otherwise."""
    cfg.validate()
    if cfg.alpha >= CG_MIN_ALPHA and a.symmetric:
        return _symmetric_cg(a, f, cfg)[0]
    y, _ = diffuse_to_convergence(a, f, cfg)
    return y


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
                        num_classes: int = 3, repeats: int = 9,
                        seed: int = 0) -> BenchReport:
    """Wall-clock one sparse step vs the converged solve vs the dense solve.

    One row per (h, w) in `sizes`. The sparse step runs on one thread, so
    timings are comparable across machines. The dense elimination uses
    whatever the BLAS provides, which only makes the dense side look
    faster. `dense_ms` is NaN where the dense guard forbids the solve.
    """
    if not sizes:
        raise InvalidInputError("need at least one (h, w) size")
    if repeats < 1:
        raise InvalidInputError("repeats must be >= 1")
    rng = np.random.default_rng(seed)
    report = BenchReport()
    for height, width in sizes:
        pattern = build_sparsity(height, width, radius)
        w = rng.uniform(0.5, 1.5, pattern.num_edges)
        a = transition(pattern, w)
        f = rng.standard_normal((pattern.num_pixels, num_classes))
        a.matvec(f)  # build A's sparse matrix before timing
        step_ms = _median_time(lambda: a.matvec(f), repeats)
        begin = time.perf_counter()
        _, iters = diffuse_to_convergence(a, f, cfg)
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
