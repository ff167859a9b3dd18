"""End-to-end prediction paths shared by the CLI, the ablation harness,
and the acceptance suite.

Two pipelines exist. The model pipeline runs a trained checkpoint: feature
stack -> linear scores and learned affinities -> transition matrix ->
diffusion. Its labels-only route, `predict_labels`, certifies labels from
the scores and builds affinities only where a label can move. The oracle
pipeline bypasses learning entirely: affinities come straight from
ground-truth labels and the scores are corrupted one-hot encodings, which
isolates what diffusion itself can repair.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .features import prepare_stack
from .graph import (build_sparsity, dump_edges, learned_affinity,
                    neighbor_affinity, neighbor_offsets, transition)
from .metrics import onehot_probabilities, trimap_band
from .solver import SolverConfig, solve
from .synth import corrupt_unaries, oracle_affinity
from .training import ModelCheckpoint, unary_forward
from .walk import certify_labels, rw_step

# `predict_labels` sweeps locally while all the rows of W it gathers hold
# at most LOCAL_SWEEP_MAX_SHARE of the pattern's pixel pairs, the only
# limit on the number of sweeps. A gathered pair costs about 2.5 times a
# pattern pair of the full route: at 64x64, R5, 131 channels (152,872
# pairs, full route 25-28 ms, 2-core host) one sweep took 0.6, 2.1, 3.6
# and 6.8 ms at shares 0.003, 0.026, 0.052 and 0.105. Sweep K needs the
# rows within K - 1 steps of the pixels it takes, at that size about 0.04
# of the pairs per pixel for K = 2 and 0.17 for K = 3. On perfbench's
# `infer` scenes (64 scenes each at seeds 1-12, alpha 0.01) a share of
# 0.04 left 4 scenes to the full route at seed 1, 0.08 one and 0.1 none
# at any seed, none with a third sweep. At alpha 0.1 (seed 1), 0.1
# against 0.04 certified 10 more scenes, 50 fell back, and the median
# scene took 46.4 against 45.1 ms (`predict` 43.4 ms). At 375x500, alpha
# 0.1, three sweeps certify all 894 pixels f leaves open from 6463 rows
# (a share of 0.07) in a median 0.79 s and 332 MB; the full route takes
# 2.26-2.40 s and 465 MB there.
LOCAL_SWEEP_MAX_SHARE = 0.1


@dataclass
class CorruptionConfig:
    band_width: int = 4
    flip_prob: float = 0.3
    blur_radius: int = 1
    seed: int = 0


def model_scores(ckpt: ModelCheckpoint, image):
    """Pre-diffusion class scores of a checkpointed model, (h*w, m)."""
    return predict(ckpt, image, steps=0)[1]


def model_transition(ckpt: ModelCheckpoint, image, radius: int):
    return _learned_transition(prepare_stack(image, ckpt.bank), ckpt.theta,
                               radius)


def _learned_transition(stack, theta, radius: int):
    pattern = build_sparsity(stack.shape[0], stack.shape[1], radius)
    return transition(pattern, learned_affinity(stack, pattern, theta))


def _stack_and_scores(ckpt: ModelCheckpoint, image):
    """The feature stack and the class scores f, which every route checks
    here, before any walk, certificate or argmax reads them."""
    stack = prepare_stack(image, ckpt.bank)
    f = unary_forward(stack.reshape(-1, ckpt.k), ckpt.unary)
    if not np.isfinite(f).all():
        raise InvalidInputError("non-finite class scores")
    return stack, f


def _checked_steps(steps):
    if steps != "converge" and int(steps) < 0:
        raise InvalidInputError("steps must be >= 0")
    return steps if steps == "converge" else int(steps)


def diffuse(a, f, steps, cfg: SolverConfig):
    """Run `steps` damped walk steps ("converge" for the configured solver)."""
    steps = _checked_steps(steps)
    if steps == "converge":
        return solve(a, f, cfg)
    y = f
    for _ in range(steps):
        y = rw_step(a, f, y, cfg.alpha)
    return y


def predict(ckpt: ModelCheckpoint, image, steps="converge", radius: int = 5,
            solver_cfg: SolverConfig = None, dump_prefix: str = None):
    """Checkpoint inference. Returns (label map, diffused scores).

    With `dump_prefix`, the walk's W and A are also written as "i j value"
    triplets to `<prefix>.W.txt` and `<prefix>.A.txt` (at steps=0 too).
    """
    solver_cfg = solver_cfg or SolverConfig()
    stack, y = _stack_and_scores(ckpt, image)
    if steps != 0 or dump_prefix:
        a = _learned_transition(stack, ckpt.theta, radius)
        del stack  # W is built: the stack's memory goes before the solve
        if dump_prefix:
            for suffix, values in ((".W.txt", np.tile(a.weights, 2)),
                                   (".A.txt", a.values)):
                with open(dump_prefix + suffix, "w", encoding="utf-8") as fh:
                    dump_edges(a.pattern, values, fh)
        if steps != 0:
            y = diffuse(a, y, steps, solver_cfg)
    return argmax_labels(y, image.shape[:2]), y


def predict_labels(ckpt: ModelCheckpoint, image, steps="converge",
                   radius: int = 5, solver_cfg: SolverConfig = None):
    """`predict`'s label map alone, with affinities only where a label can
    move. Returns (label map, counts).

    `walk.certify_labels` first decides what f alone decides (K = 0).
    For the pixels U still open after K sweeps, `_local_walk` gathers
    the rows of W within K steps of U (`graph.neighbor_affinity`), gives
    A^(K+1) f and y_(K+1) on U, and the certificate runs again. Sweeps
    go on while a pixel is open, K < `steps` and the gathered rows stay
    within LOCAL_SWEEP_MAX_SHARE of the pattern's pairs, and end once
    every row is gathered. If any pixel is still open, `predict`'s route
    runs on the same stack and f and gives every label. A certified
    label is the exact walk's, which `predict`'s equals wherever its
    solve is decided. `counts` holds the pixels certified by f
    (`scores`) and by the local sweeps (`sweep`), and those left to the
    full route (`fallback`).
    """
    solver_cfg = solver_cfg or SolverConfig()
    solver_cfg.validate()
    steps = _checked_steps(steps)
    height, width = image.shape[:2]
    offsets = neighbor_offsets(height, width, radius)
    stack, f = _stack_and_scores(ckpt, image)
    if steps == 0:
        return argmax_labels(f, (height, width)), dict(
            scores=f.shape[0], sweep=0, fallback=0)
    alpha = solver_cfg.alpha
    last = np.inf if steps == "converge" else steps
    pairs = ((height - offsets[:, 0]) * (width - np.abs(offsets[:, 1]))).sum()
    rows = _GatheredRows(stack, radius, ckpt.theta, f.shape[0],
                         2 * len(offsets), LOCAL_SWEEP_MAX_SHARE * pairs)
    labels = np.empty(f.shape[0], dtype=np.intp)
    counts = dict(scores=0, sweep=0, fallback=0)
    left, walk, hops = np.arange(f.shape[0]), (f, 0.0, f), 0
    while walk is not None:
        swept, sure = certify_labels(f, alpha, *walk, hops)
        labels[left[sure]] = swept[sure]
        counts["sweep" if hops else "scores"] += int(sure.sum())
        left, hops = left[~sure], hops + 1
        done = not left.size or hops > last or len(rows.w) == f.shape[0]
        walk = None if done else _local_walk(rows, f, alpha, left, hops)
    if left.size:
        counts["fallback"] = int(left.size)
        a = _learned_transition(stack, ckpt.theta, radius)
        del stack, rows  # both hold the stack, which the solve does not need
        labels = np.argmax(diffuse(a, f, steps, solver_cfg), axis=1)
    return labels.reshape(height, width), counts


class _GatheredRows:
    """The rows of W that `neighbor_affinity` gathered for one labels
    request, each pixel's once, row `slot[p]` for pixel p, up to a budget
    of `budget` pairs."""

    def __init__(self, stack, radius, theta, num_pixels, width, budget):
        self._gather = lambda pixels: neighbor_affinity(stack, radius, theta,
                                                        pixels)
        self.slot = np.full(num_pixels, -1, dtype=np.intp)
        self.neighbors = np.empty((0, width), dtype=np.intp)
        self.w = np.empty((0, width))
        self.error = np.empty(0)
        self.budget = budget

    def gather(self, pixels) -> bool:
        """Gather the rows of `pixels` not yet gathered; False, gathering
        nothing, if that would pass the budget or the rows hold no pair."""
        new = pixels[self.slot[pixels] < 0]
        total = len(self.w) + new.size
        if not 0 < total * self.w.shape[1] <= self.budget:
            return False
        if new.size:
            self.slot[new] = np.arange(len(self.w), total)
            parts = zip((self.neighbors, self.w, self.error),
                        self._gather(new))
            self.neighbors, self.w, self.error = (
                np.concatenate(part) for part in parts)
        return True


def _local_walk(rows: _GatheredRows, f, alpha, pixels, hops: int):
    """(A^K f, a bound on its rounding, y_K) on `pixels`, K = `hops`, as
    `certify_labels` takes them, from the rows of W within K - 1 neighbor
    steps of `pixels`; None if those pass the rows' budget.

    Sweep k computes A^k f and y_k on the pixels within K - k steps, from
    sweep k - 1's values at their neighbors. A row that is isolated, has
    non-finite W or no error bound gives NaN, which certifies nothing
    wherever it reaches. Each sweep's bound carries the last one's
    through a row summing to 1 within its rounding, and adds the sums'
    rounding and W's against `learned_affinity`'s, which moves A x by at
    most error / (1 - error) of f's range.
    """
    regions = [pixels]
    while rows.gather(regions[-1]):
        if len(regions) == hops:
            break
        regions.append(np.union1d(regions[-1],
                                  rows.neighbors[rows.slot[regions[-1]]]))
    else:
        return None
    eps = np.finfo(np.float64).eps
    width = rows.w.shape[1]
    rounding = (width + 1) * eps * np.abs(f).max()
    af, y = (np.empty((len(rows.w), f.shape[1])) for _ in range(2))
    carried = np.zeros(f.shape[1])
    for k, region in enumerate(reversed(regions)):
        at = rows.slot[region]
        w, neighbors, error = rows.w[at], rows.neighbors[at], rows.error[at]
        degree = w.sum(axis=1)
        valid = (degree > 0.0) & np.isfinite(degree) & (error < 1.0)
        if k == 0:
            last_af = last_y = f[neighbors]
        else:
            last_af, last_y = af[rows.slot[neighbors]], y[rows.slot[neighbors]]
        with np.errstate(invalid="ignore", divide="ignore"):
            af[at] = np.einsum("up,upc->uc", w, last_af) / degree[:, None]
            y[at] = (alpha * np.einsum("up,upc->uc", w, last_y)
                     / degree[:, None] + (1.0 - alpha) * f[region])
            ratio = np.where(valid, error / (1.0 - error), 0.0)
        af[at[~valid]] = y[at[~valid]] = np.nan
        bound = (carried * (1.0 + (width + 1) * eps) + rounding
                 + np.ptp(f, axis=0) * ratio[:, None])
        carried = bound.max(axis=0)
    return af[at], bound, y[at]


def oracle_scene(labels, corrupt: CorruptionConfig, num_classes: int = None):
    """Corrupted one-hot scores for a label map, plus the clean one-hots."""
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    clean = onehot_probabilities(labels, num_classes)
    band = trimap_band(labels, corrupt.band_width)
    damaged = corrupt_unaries(clean, band, corrupt.flip_prob,
                              corrupt.blur_radius, corrupt.seed)
    return damaged, clean


def oracle_transition(labels, radius: int):
    pattern = build_sparsity(labels.shape[0], labels.shape[1], radius)
    return transition(pattern, oracle_affinity(labels, pattern))


def argmax_labels(y, shape):
    return np.argmax(y, axis=1).reshape(shape)
