"""Shared test oracles: finite differences, dense reference evaluations,
and small random problem instances."""

import numpy as np

from walkseg.features import FilterBankConfig, extract_features, per_channel_normalize
from walkseg.graph import affinity_forward, build_sparsity, channel_distances, transition


def rel_error(approx, exact):
    """Norm-wise relative error |a - b| / max(|b|, tiny)."""
    approx = np.asarray(approx, dtype=float).ravel()
    exact = np.asarray(exact, dtype=float).ravel()
    return np.linalg.norm(approx - exact) / max(np.linalg.norm(exact), 1e-12)


def affinity_backward(fdist, w, dw):
    """The head's per-edge backward: dtheta_c = sum_e dw[e] w[e]
    fdist[e, c], summed in the fixed edge order."""
    return fdist.T @ (dw * w)


def transition_backward(a, da):
    """Jacobian-transpose of row normalization, per edge slot:
    dW_ij = (dA_ij - sum_j' dA_ij' A_ij') / D_i. A uniform dA within a
    row yields zero because each row of A sums to one."""
    pattern = a.pattern
    assert da.shape == (pattern.num_edges,)
    row_dot = np.bincount(pattern.rows, weights=da * a.values,
                          minlength=pattern.num_pixels)
    return (da - row_dot[pattern.rows]) / a.degree[pattern.rows]


def pair_weights(w, dw):
    """The head backward's weight per pixel pair: w dw summed over the
    pair's two edges, indexed by its first-half slot."""
    half = w.size // 2
    return w[:half] * dw[:half] + w[half:] * dw[half:]


def numerical_gradient(scalar_fn, array, step=1e-5):
    """Central finite differences of scalar_fn() w.r.t. `array` in place."""
    grad = np.zeros_like(array, dtype=float)
    flat, gflat = array.ravel(), grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        plus = scalar_fn()
        flat[i] = original - step
        minus = scalar_fn()
        flat[i] = original
        gflat[i] = (plus - minus) / (2.0 * step)
    return grad


def damped_series_dense(a_dense, f, alpha, steps):
    """Closed sum (alpha A)^t f + (1 - alpha) * sum_{i<t} (alpha A)^i f,
    evaluated densely with matrix powers."""
    n = a_dense.shape[0]
    aa = alpha * a_dense
    acc = np.zeros_like(f)
    power = np.eye(n)
    for _ in range(steps):
        acc += power @ f
        power = aa @ power
    return power @ f + (1.0 - alpha) * acc


def random_stack(height, width, channels, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, (height, width, channels))


def random_transition(height, width, radius, seed=0):
    """Transition matrix with random positive affinities on a grid pattern."""
    rng = np.random.default_rng(seed)
    pattern = build_sparsity(height, width, radius)
    w = rng.uniform(0.2, 2.0, pattern.num_edges)
    return transition(pattern, w), w


def random_image_transition(height, width, radius, seed=0, channels=5):
    """Transition built the production way: feature distances -> exp head."""
    rng = np.random.default_rng(seed)
    stack = per_channel_normalize(random_stack(height, width, channels, seed))
    pattern = build_sparsity(height, width, radius)
    fdist = channel_distances(stack, pattern)
    theta = rng.normal(-0.5, 0.3, channels)
    w = affinity_forward(fdist, theta)
    return transition(pattern, w)


def tiny_feature_setup(height=6, width=6, num_classes=3, radius=2, seed=42,
                       bank=None):
    """Small full-pipeline instance used by the gradient checks."""
    bank = bank or FilterBankConfig(f1=2, f2=2, seed=3)
    rng = np.random.default_rng(seed)
    image = rng.uniform(0.0, 1.0, (height, width, 3))
    labels = rng.integers(0, num_classes, (height, width))
    stack = per_channel_normalize(extract_features(image, bank))
    pattern = build_sparsity(height, width, radius)
    return image, labels, stack, pattern, bank
