"""End-to-end prediction paths shared by the CLI, the ablation harness,
and the acceptance suite.

Two pipelines exist. The model pipeline runs a trained checkpoint: feature
stack -> linear scores and learned affinities -> transition matrix ->
diffusion. The oracle pipeline bypasses learning entirely: affinities come
straight from ground-truth labels and the scores are corrupted one-hot
encodings, which isolates what diffusion itself can repair.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .features import prepare_stack
from .graph import build_sparsity, dump_edges, learned_affinity, transition
from .metrics import onehot_probabilities, trimap_band
from .solver import SolverConfig, solve
from .synth import corrupt_unaries, oracle_affinity
from .training import ModelCheckpoint, unary_forward
from .walk import rw_step


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
    stack = prepare_stack(image, ckpt.bank)
    pattern = build_sparsity(stack.shape[0], stack.shape[1], radius)
    return transition(pattern, learned_affinity(stack, pattern, ckpt.theta))


def diffuse(a, f, steps, cfg: SolverConfig):
    """Run `steps` damped walk steps ("converge" for the configured solver)."""
    if steps == "converge":
        return solve(a, f, cfg)
    steps = int(steps)
    if steps < 0:
        raise InvalidInputError("steps must be >= 0")
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
    stack = prepare_stack(image, ckpt.bank)
    y = unary_forward(stack.reshape(-1, ckpt.k), ckpt.unary)
    if steps != 0 or dump_prefix:
        pattern = build_sparsity(stack.shape[0], stack.shape[1], radius)
        w = learned_affinity(stack, pattern, ckpt.theta)
        a = transition(pattern, w)
        if dump_prefix:
            for suffix, values in ((".W.txt", np.concatenate((w, w))),
                                   (".A.txt", a.values)):
                with open(dump_prefix + suffix, "w", encoding="utf-8") as fh:
                    dump_edges(pattern, values, fh)
        if steps != 0:
            y = diffuse(a, y, steps, solver_cfg)
    return argmax_labels(y, image.shape[:2]), y


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
