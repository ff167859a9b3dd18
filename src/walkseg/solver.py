"""Test-time diffusion: iterate the damped step to its fixed point, or sum
the geometric series for the closed form.

With A row-stochastic and 0 <= alpha < 1, the spectral radius of alpha*A is
at most alpha, so I - alpha*A is invertible and the series
sum_i (alpha A)^i f converges geometrically with ratio <= alpha. Two
closed-form quantities coexist:

  fixed point of the damped step:  y = (1 - alpha) (I - alpha A)^-1 f
  plain resolvent:                 y = (I - alpha A)^-1 f

They differ by the uniform positive factor (1 - alpha), so the per-pixel
argmax is identical. Both are implemented; nothing here silently picks one.

Convergence is measured by max-abs change (absolute, not relative: score
columns may be identically zero for absent classes).
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, InvalidInputError
from .graph import TransitionMatrix, build_sparsity, transition
from .walk import rw_step, _check_scores

MODES = ("iterate", "neumann", "dense_oracle")

# dense solves above this pixel count are almost certainly a mistake
DENSE_PIXEL_LIMIT = 4096


@dataclass
class SolverConfig:
    alpha: float = 0.01
    tolerance: float = 1e-6
    max_iterations: int = 10000
    mode: str = "iterate"

    def validate(self):
        if not 0.0 <= self.alpha < 1.0:
            raise InvalidInputError(
                f"alpha must lie in [0, 1), got {self.alpha}")
        if self.tolerance <= 0.0:
            raise InvalidInputError("tolerance must be positive")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")
        if self.mode not in MODES:
            raise InvalidInputError(f"unknown solver mode {self.mode!r}")

    def __post_init__(self):
        self.validate()


def diffuse_to_convergence(a: TransitionMatrix, f: np.ndarray,
                           cfg: SolverConfig):
    """Iterate y <- alpha A y + (1 - alpha) f from y = f until the sweep
    changes no entry by more than `tolerance`.

    Returns (fixed point, iterations used). The result equals
    (1 - alpha) (I - alpha A)^-1 f up to the tolerance.
    """
    f = _check_scores(a, f)
    y = f
    for iteration in range(1, cfg.max_iterations + 1):
        y_next = rw_step(a, f, y, cfg.alpha)
        delta = float(np.max(np.abs(y_next - y))) if y.size else 0.0
        y = y_next
        if delta < cfg.tolerance:
            return y, iteration
    raise ConvergenceError(
        f"no fixed point after {cfg.max_iterations} sweeps "
        f"(last change {delta:.3e})", residual=delta,
        iterations=cfg.max_iterations)


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
    """Run the configured inference path. Note the "iterate" mode returns
    the damped fixed point, which is (1 - alpha) times the other two modes'
    result; argmax labelings agree."""
    cfg.validate()
    if cfg.mode == "iterate":
        y, _ = diffuse_to_convergence(a, f, cfg)
        return y
    if cfg.mode == "neumann":
        return solve_closed_form(a, f, cfg)
    return dense_oracle_solve(a, f, cfg.alpha)


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
    rng = np.random.default_rng(seed)
    report = BenchReport()
    for height, width in sizes:
        pattern = build_sparsity(height, width, radius)
        w = rng.uniform(0.5, 1.5, pattern.num_edges)
        a = transition(pattern, w)
        f = rng.standard_normal((pattern.num_pixels, num_classes))
        a.matvec(f)  # warm the CSR shell before timing
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
