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
    bound and its coarse space's size.
    From alpha DEFLATE_MIN_ALPHA on, CG is deflated (Nicolaides 1987). S
    has about one eigenvalue >= 0.99 per segment, near D^1/2 times a
    piecewise-constant vector, so p aggregates Z_ip = D_i^1/2, i in
    aggregate p, hold the slow modes: the connected components of W's
    strong pairs inside t x t pixel tiles, which a segment boundary
    splits (see `_tile_space`).
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
from .graph import TransitionMatrix, build_sparsity, transition
from .walk import rw_step, _check_scores

# dense solves above this pixel count are almost certainly a mistake
DENSE_PIXEL_LIMIT = 4096

# `solve` uses conjugate gradients at and above this alpha when W is
# symmetric. Loop against plain CG on 64x64 scenes at R5, tolerance 1e-6,
# 2-core host (per-scene medians of 5 alternating runs, then the median
# over scenes), in ms: loop / CG with the pattern's row order built
# beforehand, as in-process callers reuse it / CG with its build counted,
# as one `walkseg infer` request pays it:
#   alpha              0.3             0.4             0.5             0.6
#   oracle W (16)  9.7/9.0/10.9  12.0/10.0/12.2  15.2/11.7/13.7  22.4/16.2/17.6
#   learned W (12) 11.4/9.3/11.6 15.0/11.8/13.9  27.2/17.2/20.2  27.3/16.3/17.3
# With the build counted, CG was faster on 0/16 oracle and 2/12 learned
# scenes at 0.3, 6/16 and 12/12 at 0.4 and 16/16 and 12/12 at 0.5 (13/16
# and 12/12 in a second run). At 0.5 that is 14 sweeps against 11
# products on oracle W.
CG_MIN_ALPHA = 0.5

# CG is deflated from this alpha on (see `_tile_space`). Plain against
# deflated CG, same set-up, on 16 held-out oracle scenes (index 100-115,
# corruption seed 1000 + i) and 12 learned-W ones, in ms (scenes where
# deflated CG was faster; median products plain/deflated):
#   alpha        0.6        0.7        0.8        0.85       0.9        0.97
#   oracle W  21.8/26.7  24.1/27.1  30.3/29.3  24.9/20.9  28.7/21.4  48.1/22.7
#               (0/16)     (0/16)    (14/16)    (16/16)    (16/16)    (16/16)
#               12/8       15/8      18.5/9     21/9       26/10      45/11
#   learned W 19.9/24.3  15.7/17.3  21.6/21.3  21.6/17.9  42.4/28.8  47.5/21.8
#               (0/12)     (2/12)     (8/12)    (12/12)    (12/12)    (12/12)
#               13/8       15/8       19/9       22/9      27.5/10     45/11
# At 0.85 both kinds won on every scene in a second run too (29.5/24.4
# and 32.2/24.1 ms); at 0.8 oracle W won on 11/16 and 10/16 scenes in two
# more runs. At 0.5 deflation lost on all 28 scenes, so CG_MIN_ALPHA
# stays below it. Its fixed cost at 64x64 is about 9 ms of `_tile_space`
# plus 0.3 ms of preconditioning per iteration.
DEFLATE_MIN_ALPHA = 0.85

# A pair (i, j) inside one deflation tile is strong when S_ij >= this
# times min(max_k S_ik, max_k S_jk) (see `_tile_space`). At 64x64, R5,
# alpha 0.99, every value from 0.001 to 0.5 gave the same aggregates: a
# median of 308.5 for 256 tiles and 11 products on 16 oracle scenes, and
# no split on 12 learned-W ones (12 products). 0.7 split learned W into
# 301.5 aggregates for 11 products at equal time; 0.9 made 1663 on oracle
# W and 665 on learned W, whose solves then took 2.2 and 1.3 times as
# long. At 375x500 (one scene), 0.1 and 0.5 made the same 12,094 oracle
# aggregates, and 0.7 split learned W into 12,038 for 11 products
# against 13 at equal solve time (1.40 against 1.35 s).
STRONG_PAIR = 0.1


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


def _tile_space(a: TransitionMatrix, k_h: sp.csr_matrix, root: np.ndarray):
    """Z (Z_ip = root_i for pixel i in aggregate p), Z - KZ and x -> E^-1 x,
    E = Z^T K Z, for K = I + K_h + K_h^T. Z - KZ = -(K_h Z + K_h^T Z),
    one sparse product each way.

    The aggregates are the connected components of W's strong pairs
    inside each tile. Tiles are t x t pixels, t = max(4, ceil(R / 2)),
    whatever the image size, and the pair (i, j) is strong when S_ij >=
    STRONG_PAIR min(max_k S_ik, max_k S_jk). So a tile that a segment
    boundary crosses splits along it, and one that no strong boundary
    crosses stays one aggregate: on learned W no tile splits. Only the
    offsets with |dy|, |dx| < t join two pixels of one tile, and their
    windows give the strong pairs as masks, over which min-label
    propagation labels each component by its least pixel. Aggregates are
    ordered by tile, row-major, then by that pixel. A pixel's neighbors
    lie within two tiles per axis, so E is banded; its band is read from
    E's non-zeros, and one banded Cholesky factor solves it.

    Small tiles hold the slow, piecewise-constant modes. At 64x64, R5,
    alpha 0.99 4 x 4 tiles took 37 products and 8 x 8 tiles 47 (oracle
    W). Tiles that grow with the image lose more: a term ceil(max(h, w)
    / 16), which kept p <= 256, made 32 x 32 tiles at 375x500. Against
    it, at R5, tolerance 1e-6 (medians over scenes of 3 fresh-process
    runs, 2-core host), products and solve times went, with equal labels:

      alpha 0.99   oracle W                    learned W
      128x128      53.5 -> 39, 269 -> 234 ms   18 -> 12, 118 -> 95 ms
      256x256      83 -> 51, 1.55 -> 1.19 s    31 -> 13, 0.69 -> 0.42 s
      375x500      81 -> 40, 4.34 -> 3.13 s    52 -> 13, 3.21 -> 1.40 s

    At 375x500 that is 11,750 tiles; E's factor, (band + 1) p doubles,
    is about n w / 4 bytes there. Split by their strong pairs (alpha
    0.99, R5), oracle W took a median of 37 -> 11 products on perfbench's
    64 scenes at 64x64, with 308.5 aggregates for 256 tiles, and 36 -> 11
    at 375x500, with 12,094 for 11,750, where the solve went 3.7-4.3 ->
    1.3-1.5 s. The set-up took about 9 against 5 ms at 64x64 and 0.28 s
    either way at 375x500. Learned W splits no tile, so its products
    stay (13 at 375x500)."""
    pattern = a.pattern
    height, width = pattern.height, pattern.width
    side = max(4, -(-pattern.radius // 2))
    inv_root = (1.0 / root).reshape(height, width)
    peak, windows = np.zeros((height, width)), []  # peak_i = max_k S_ik
    for src, dst, slots in pattern.windows:
        w = a.weights[slots].reshape(src[0].stop - src[0].start, -1)
        np.maximum(peak[src], w * inv_root[dst], out=peak[src])
        np.maximum(peak[dst], w * inv_root[src], out=peak[dst])
        windows.append((src, dst, w))
    peak *= inv_root
    (tile_y, in_y), (tile_x, in_x) = (np.divmod(np.arange(size), side)
                                      for size in (height, width))
    # a label is a pixel of the tile, t y + x there; x | weak = weak,
    # which lies above every label
    local = np.min_scalar_type(side * side)
    weak = np.iinfo(local).max
    links = []  # per offset that fits in a tile, `cut` is 0 on the pairs
    for src, dst, w in windows:  # that are strong and in one tile
        dy, dx = dst[0].start - src[0].start, dst[1].start - src[1].start
        if dy < side and abs(dx) < side:
            strong = w * inv_root[src] * inv_root[dst] >= STRONG_PAIR * (
                np.minimum(peak[src], peak[dst]))
            strong &= (tile_y[src[0]] == tile_y[dst[0]])[:, None]
            strong &= tile_x[src[1]] == tile_x[dst[1]]
            links.append((src, dst, np.where(strong, 0, weak).astype(local)))
    label = np.add.outer(in_y * side, in_x).astype(local)
    while True:  # labels only fall, so a round that changes none leaves
        before = label.copy()  # both pixels of every strong pair equal
        for src, dst, cut in links:
            np.minimum(label[src], label[dst] | cut, out=label[src])
            np.minimum(label[dst], label[src] | cut, out=label[dst])
        if np.array_equal(label, before):
            break
    # the (tile, label) pairs in order number the aggregates
    key = (np.add.outer(tile_y * -(-width // side), tile_x) * side * side
           + label).ravel()
    used = np.zeros(key.max() + 1, dtype=bool)
    used[key] = True
    index = np.cumsum(used) - 1
    z = sp.csr_matrix((root[:, 0], index[key], np.arange(key.size + 1)),
                      shape=(key.size, index[-1] + 1))
    leak = -(k_h @ z + k_h.T @ z)
    e = (z.T @ (z - leak)).tocoo()
    upper = e.col >= e.row
    rows, cols = e.row[upper], e.col[upper]
    bands = int((cols - rows).max(initial=0))
    # E's upper band, its k-th diagonal in row bands - k
    band = np.zeros((bands + 1, z.shape[1]))
    band[bands - (cols - rows), cols] = e.data[upper]
    factor = cholesky_banded(band)
    return z, leak, lambda r: cho_solve_banded((factor, False), r)


def _symmetric_cg(a: TransitionMatrix, f: np.ndarray, cfg: SolverConfig,
                  coarse_space):
    """Block conjugate gradients on (I - alpha S) z = D^1/2 f, one column
    per class with its own step and beta, with K = I - alpha S applied and
    stopped as the module docstring says. Returns y = (1 - alpha) D^-1/2 z
    and a report dict: the `products` with S, the `iterations`, the
    `restarts`, the final error `bound` and the coarse space's
    `aggregates` p (0 without one). `coarse_space(a, K_h, root)` gives
    (Z, Z - KZ, x -> E^-1 x), see `_tile_space`; None runs plain CG.
    Every step preconditions by A-DEF2, s = r + Z E^-1 (Z - KZ)^T r, and
    a (re)start is that step with beta = 0, after z += Z u. `transition`
    gives a row without neighbors degree 1, so S is zero there and y =
    (1 - alpha) f, as in the loop.
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

    report = dict(products=0, iterations=0, restarts=0, bound=0.0,
                  aggregates=0)
    if coarse_space:
        z_c, leak, coarse_solve = coarse_space(a, k_h, root)
        report["aggregates"] = z_c.shape[1]
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
    conjugate gradients, deflated from DEFLATE_MIN_ALPHA on."""
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
