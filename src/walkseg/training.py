"""Joint training of the score branch and the affinity branch through the
diffusion layer.

The score branch is a per-pixel linear classifier over the feature stack;
the affinity branch is the k-parameter exponential head. Each optimizer
step runs one damped walk step y = alpha A f + (1 - alpha) f on the
scores, attaches a softmax loss to the diffused scores and a Euclidean
loss to the affinities, and back-propagates through both branches as a
chain of layers, each with its own backward pass. The classifier gets
A^T dY. W and its targets are one value per pixel pair, so the affinity
branch runs over the E/2 pairs with no edge-sized dA, dW or targets: the walk's
`rw_backward_pairs` gives each pair its dW summed over both edges, the
affinity loss adds 2 aff_w (w - t) for the same-label target t, and
`graph.pair_affinity_backward` takes the sum, weighted by w, to dtheta.
Updates are SGD with momentum and weight decay:

    v <- momentum * v - lr * (g + weight_decay * p);  p <- p + v

Everything is seeded and summation orders are fixed, so a training run is
a pure function of (dataset, config): equal seeds give bit-identical
checkpoints.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (DataFormatError, DivergenceError, InvalidInputError,
                     UnsupportedVersionError)
from .features import FilterBankConfig, prepare_stack
from .graph import (build_sparsity, learned_affinity, pair_affinity_backward,
                    same_label_pairs, transition)
from .walk import rw_backward_f, rw_backward_pairs, rw_forward

CHECKPOINT_MAGIC = b"RWNCKPT1"


@dataclass
class TrainConfig:
    learning_rate: float = 1e-2  # desk-scale default; the "paper" preset uses 1e-5
    momentum: float = 0.9
    weight_decay: float = 5e-5
    batch_size: int = 15
    iterations: int = 2000
    train_radius: int = 40
    alpha: float = 0.01
    seg_loss_weight: float = 1.0
    aff_loss_weight: float = 1.0
    seed: int = 0
    augment_hflip: bool = True

    def validate(self):
        for name in ("learning_rate", "momentum", "weight_decay",
                     "seg_loss_weight", "aff_loss_weight"):
            if not 0 <= getattr(self, name) < np.inf:
                raise InvalidInputError(f"{name} must be finite and >= 0")
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if self.iterations < 0:
            raise InvalidInputError("iterations must be >= 0")
        if self.train_radius < 1:
            raise InvalidInputError("train_radius must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidInputError("alpha must lie in [0, 1]")


@dataclass
class UnaryParams:
    """Per-pixel linear classifier: scores = weights @ features + bias."""

    weights: np.ndarray  # (m, k)
    bias: np.ndarray     # (m,)


@dataclass
class ModelCheckpoint:
    theta: np.ndarray
    unary: UnaryParams
    bank: FilterBankConfig
    num_classes: int
    iteration: int = 0

    @property
    def k(self) -> int:
        return int(self.theta.size)


def init_theta(k: int) -> np.ndarray:
    # -1/k per channel: initial affinities start in (0, 1] and decay with distance
    return np.full(k, -1.0 / k)


def init_unary(k: int, num_classes: int, rng) -> UnaryParams:
    weights = rng.normal(0.0, 0.1, (num_classes, k))
    return UnaryParams(weights, np.zeros(num_classes))


def unary_forward(flat_stack: np.ndarray, params: UnaryParams) -> np.ndarray:
    """Per-pixel class scores f[i] = W @ stack[i] + b."""
    if flat_stack.shape[1] != params.weights.shape[1]:
        raise InvalidInputError(
            f"stack has {flat_stack.shape[1]} channels, classifier expects "
            f"{params.weights.shape[1]}")
    with np.errstate(over="ignore"):  # the pipeline rejects non-finite f
        return flat_stack @ params.weights.T + params.bias


def softmax(y: np.ndarray) -> np.ndarray:
    """Row-wise softmax, each row shifted by its maximum before exp."""
    expy = np.exp(y - y.max(axis=1, keepdims=True))
    return expy / expy.sum(axis=1, keepdims=True)


def softmax_loss_grad(y: np.ndarray, labels: np.ndarray):
    """Mean per-pixel cross-entropy after a row-wise softmax.

    Returns (loss, dY) with dY = (softmax(y) - onehot(labels)) / n.
    """
    labels = np.asarray(labels).ravel()
    n, m = y.shape
    if labels.size != n:
        raise InvalidInputError(f"{labels.size} labels for {n} rows")
    if labels.min() < 0 or labels.max() >= m:
        raise InvalidInputError("label index out of range")
    probs = softmax(y)
    picked = probs[np.arange(n), labels]
    loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    dy = probs
    dy[np.arange(n), labels] -= 1.0
    return loss, dy / n


@dataclass
class TrainState:
    theta: np.ndarray
    unary: UnaryParams
    vel_theta: np.ndarray
    vel_weights: np.ndarray
    vel_bias: np.ndarray
    iteration: int = 0


def init_state(k: int, num_classes: int, seed: int) -> TrainState:
    rng = np.random.default_rng(seed)
    unary = init_unary(k, num_classes, rng)
    return TrainState(init_theta(k), unary, np.zeros(k),
                      np.zeros_like(unary.weights), np.zeros_like(unary.bias))


def sgd_update(param: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
               cfg: TrainConfig) -> None:
    grad = grad + cfg.weight_decay * param
    velocity *= cfg.momentum
    velocity -= cfg.learning_rate * grad
    param += velocity


def sample_losses_grads(image, labels, theta, unary, cfg: TrainConfig,
                        bank: FilterBankConfig, pattern):
    """Forward and backward for one (image, labels) sample.

    Returns (seg_loss, aff_loss, dtheta, dweights, dbias) where the
    gradients are of seg_loss_weight * L_seg + aff_loss_weight * L_aff.
    """
    cfg.validate()
    stack = prepare_stack(image, bank)
    height, width, k = stack.shape
    flat = stack.reshape(height * width, k)
    f = unary_forward(flat, unary)

    w = learned_affinity(stack, pattern, theta)
    a = transition(pattern, w)
    af = rw_forward(a, f)
    # rw_step(a, f, f, alpha), keeping A f for the backward pass
    y = cfg.alpha * af + (1.0 - cfg.alpha) * f
    seg_loss, dy = softmax_loss_grad(y, labels)

    # y = alpha * A f + (1 - alpha) * f: f feeds both the walk and the residual
    df = cfg.alpha * rw_backward_f(a, dy) + (1.0 - cfg.alpha) * dy

    # one weight g per pixel pair (module docstring)
    diff = w - same_label_pairs(labels, pattern)
    aff_loss = float(diff @ diff)
    g = rw_backward_pairs(a, dy, f, af, cfg.seg_loss_weight * cfg.alpha)
    diff *= 2.0 * cfg.aff_loss_weight
    g += diff
    g *= w
    dtheta = pair_affinity_backward(stack, pattern, g)

    df *= cfg.seg_loss_weight
    dweights = df.T @ flat
    dbias = df.sum(axis=0)
    return seg_loss, aff_loss, dtheta, dweights, dbias


def train_step(batch, state: TrainState, cfg: TrainConfig,
               bank: FilterBankConfig):
    """One optimizer step over a minibatch of (image, labels) samples.

    Gradients and losses are averaged across the batch; a single sample is
    just a batch of one. Returns (seg_loss, aff_loss, total_loss) with
    total = seg_loss_weight * seg + aff_loss_weight * aff.
    """
    if not batch:
        raise InvalidInputError("empty batch")
    sums = (0.0,) * 5  # losses and gradients, summed in batch order
    for image, labels in batch:
        pattern = build_sparsity(labels.shape[0], labels.shape[1],
                                 cfg.train_radius)
        sample = sample_losses_grads(image, labels, state.theta, state.unary,
                                     cfg, bank, pattern)
        sums = tuple(s + x for s, x in zip(sums, sample))
    scale = 1.0 / len(batch)
    seg_loss, aff_loss, *grads = (s * scale for s in sums)
    total = cfg.seg_loss_weight * seg_loss + cfg.aff_loss_weight * aff_loss
    if not np.isfinite(total):
        raise DivergenceError(
            f"non-finite loss at iteration {state.iteration + 1}",
            iteration=state.iteration + 1)
    params = (state.theta, state.unary.weights, state.unary.bias)
    velocities = (state.vel_theta, state.vel_weights, state.vel_bias)
    for param, grad, velocity in zip(params, grads, velocities):
        sgd_update(param, grad, velocity, cfg)
    state.iteration += 1
    return seg_loss, aff_loss, total


def train(dataset, cfg: TrainConfig, bank: FilterBankConfig = None,
          num_classes: int = None):
    """Run cfg.iterations optimizer steps over seeded, shuffled minibatches.

    Returns (checkpoint, history) with history rows (iteration, seg_loss,
    aff_loss). Horizontal-flip augmentation, when enabled, flips image and
    labels together with a seeded coin per drawn sample.
    """
    cfg.validate()
    if not dataset:
        raise InvalidInputError("empty dataset")
    bank = bank or FilterBankConfig()
    if num_classes is None:
        num_classes = 1 + max(int(np.max(labels)) for _, labels in dataset)
    # bad labels are input errors; inside the loop they would read as divergence
    for index, (_, labels) in enumerate(dataset):
        low, high = int(np.min(labels)), int(np.max(labels))
        if low < 0 or high >= num_classes:
            raise InvalidInputError(
                f"label map {index} has labels {low}..{high}, but "
                f"num_classes is {num_classes}")
    state = init_state(bank.num_channels, num_classes, cfg.seed)
    rng = np.random.default_rng(cfg.seed)

    order = []
    history = []
    for iteration in range(1, cfg.iterations + 1):
        batch = []
        for _ in range(cfg.batch_size):
            if not order:
                order = list(rng.permutation(len(dataset)))
            image, labels = dataset[order.pop()]
            if cfg.augment_hflip and rng.random() < 0.5:
                image, labels = image[:, ::-1], labels[:, ::-1]
            batch.append((image, labels))
        try:
            seg_loss, aff_loss, _ = train_step(batch, state, cfg, bank)
        except InvalidInputError as exc:
            # non-finite parameters surface as input errors downstream
            raise DivergenceError(
                f"training diverged at iteration {iteration}: {exc}",
                iteration=iteration) from exc
        history.append((iteration, seg_loss, aff_loss))
    checkpoint = ModelCheckpoint(state.theta.copy(),
                                 UnaryParams(state.unary.weights.copy(),
                                             state.unary.bias.copy()),
                                 bank, num_classes, state.iteration)
    return checkpoint, history


def save_checkpoint(path, ckpt: ModelCheckpoint) -> None:
    """Serialize: magic, six little-endian u32 fields (k, m, f1, f2, seed,
    iteration), then little-endian f64 arrays theta, weights (row-major),
    biases."""
    k, m = ckpt.k, ckpt.num_classes
    if ckpt.unary.weights.shape != (m, k) or ckpt.unary.bias.shape != (m,):
        raise InvalidInputError("checkpoint field shapes are inconsistent")
    for name, value in (("f1", ckpt.bank.f1), ("f2", ckpt.bank.f2),
                        ("seed", ckpt.bank.seed), ("iteration", ckpt.iteration)):
        if not 0 <= value < 2 ** 32:
            raise InvalidInputError(f"{name} does not fit an unsigned 32-bit field")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<6I", k, m, ckpt.bank.f1, ckpt.bank.f2,
                             ckpt.bank.seed, ckpt.iteration))
        fh.write(ckpt.theta.astype("<f8").tobytes())
        fh.write(ckpt.unary.weights.astype("<f8").tobytes())
        fh.write(ckpt.unary.bias.astype("<f8").tobytes())


def load_checkpoint(path) -> ModelCheckpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + 24:
        raise DataFormatError("truncated checkpoint header")
    magic = blob[: len(CHECKPOINT_MAGIC)]
    if magic != CHECKPOINT_MAGIC:
        if magic[:7] == CHECKPOINT_MAGIC[:7]:
            raise UnsupportedVersionError(
                f"unsupported checkpoint version {magic!r}")
        raise DataFormatError(f"not a checkpoint file (magic {magic!r})")
    k, m, f1, f2, seed, iteration = struct.unpack_from("<6I", blob, 8)
    if m < 1:
        raise DataFormatError("checkpoint has no classes")
    if k != 3 + f1 + f2:
        raise DataFormatError(
            f"channel count {k} does not match banks 3 + {f1} + {f2}")
    expected = 8 + 24 + 8 * (k + m * k + m)
    if len(blob) != expected:
        raise DataFormatError(
            f"checkpoint is {len(blob)} bytes, expected {expected}")
    params = np.frombuffer(blob, "<f8", offset=32).astype(np.float64)
    if not np.all(np.isfinite(params)):
        raise DataFormatError("checkpoint holds non-finite parameters")
    theta, weights, bias = np.split(params, [k, k + m * k])
    return ModelCheckpoint(theta, UnaryParams(weights.reshape(m, k), bias),
                           FilterBankConfig(f1, f2, seed), m, iteration)
