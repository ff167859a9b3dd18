import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (affinity_backward, numerical_gradient, rel_error,
                     tiny_feature_setup, transition_backward)
from walkseg import graph
from walkseg.config import Config, apply_preset
from walkseg.errors import (DataFormatError, DivergenceError,
                            InvalidInputError, UnsupportedVersionError)
from walkseg.features import (FilterBankConfig, extract_features,
                              per_channel_normalize)
from walkseg.graph import (affinity_loss_grad, build_sparsity,
                           channel_distances, learned_affinity, transition)
from walkseg.pipeline import predict
from walkseg.solver import SolverConfig
from walkseg.synth import SceneSpec, generate
from walkseg.training import (ModelCheckpoint, TrainConfig, UnaryParams,
                              init_state, init_theta, init_unary,
                              load_checkpoint, sample_losses_grads,
                              save_checkpoint, sgd_update, softmax_loss_grad,
                              train, train_step, unary_forward)
from walkseg.walk import rw_backward_a, rw_backward_f, rw_step

# ---------------------------------------------------------------------------
# linear score branch


def test_zero_weights_give_bias_scores():
    stack = np.random.default_rng(0).uniform(0, 1, (10, 5))
    params = UnaryParams(np.zeros((3, 5)), np.array([0.1, 0.2, 0.3]))
    scores = unary_forward(stack, params)
    np.testing.assert_allclose(scores, np.tile([0.1, 0.2, 0.3], (10, 1)))


def test_one_hot_weight_selects_channel():
    stack = np.random.default_rng(1).uniform(0, 1, (8, 4))
    weights = np.zeros((2, 4))
    weights[1, 2] = 1.0
    scores = unary_forward(stack, UnaryParams(weights, np.zeros(2)))
    np.testing.assert_allclose(scores[:, 1], stack[:, 2])


def test_unary_shape_mismatch_rejected():
    with pytest.raises(InvalidInputError):
        unary_forward(np.ones((4, 3)), UnaryParams(np.zeros((2, 5)), np.zeros(2)))


def test_unary_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    stack = rng.uniform(0, 1, (12, 4))
    labels = rng.integers(0, 3, 12)
    params = UnaryParams(rng.normal(0, 0.2, (3, 4)), rng.normal(0, 0.1, 3))

    def loss():
        return softmax_loss_grad(unary_forward(stack, params), labels)[0]

    _, dy = softmax_loss_grad(unary_forward(stack, params), labels)
    dweights = dy.T @ stack
    dbias = dy.sum(axis=0)
    assert rel_error(dweights, numerical_gradient(loss, params.weights)) < 1e-6
    assert rel_error(dbias, numerical_gradient(loss, params.bias)) < 1e-6


# ---------------------------------------------------------------------------
# softmax loss


def test_uniform_scores_cost_log_m():
    y = np.zeros((6, 4))
    loss, _ = softmax_loss_grad(y, np.zeros(6, dtype=int))
    assert loss == pytest.approx(np.log(4))


def test_saturated_margin_costs_nothing():
    y = np.zeros((5, 3))
    labels = np.array([0, 1, 2, 0, 1])
    y[np.arange(5), labels] = 200.0
    loss, _ = softmax_loss_grad(y, labels)
    assert loss < 1e-12


def test_softmax_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    y = rng.standard_normal((9, 3))
    labels = rng.integers(0, 3, 9)
    _, dy = softmax_loss_grad(y.copy(), labels)
    fd = numerical_gradient(lambda: softmax_loss_grad(y, labels)[0], y)
    assert rel_error(dy, fd) < 1e-6


def test_label_out_of_range_rejected():
    with pytest.raises(InvalidInputError):
        softmax_loss_grad(np.zeros((3, 2)), np.array([0, 1, 2]))


# ---------------------------------------------------------------------------
# optimizer


def test_zero_learning_rate_freezes_parameters():
    image, labels, stack, pattern, bank = tiny_feature_setup()
    cfg = TrainConfig(learning_rate=0.0, train_radius=2)
    state = init_state(bank.num_channels, 3, seed=0)
    before = copy.deepcopy((state.theta, state.unary.weights, state.unary.bias))
    seg, aff, total = train_step([(image, labels)], state, cfg, bank)
    assert seg > 0 and aff > 0
    np.testing.assert_array_equal(state.theta, before[0])
    np.testing.assert_array_equal(state.unary.weights, before[1])
    np.testing.assert_array_equal(state.unary.bias, before[2])


def test_weight_decay_shrinks_parameters_exactly():
    cfg = TrainConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.01)
    param = np.array([2.0, -3.0, 0.5])
    velocity = np.zeros(3)
    expected = param.copy()
    for _ in range(4):
        sgd_update(param, np.zeros(3), velocity, cfg)
        expected *= 1.0 - cfg.learning_rate * cfg.weight_decay
        np.testing.assert_array_equal(param, expected)


def test_weight_decay_first_step_with_momentum():
    cfg = TrainConfig(learning_rate=0.05, momentum=0.9, weight_decay=0.02)
    param = np.array([1.5, -0.7])
    velocity = np.zeros(2)
    expected = param * (1.0 - cfg.learning_rate * cfg.weight_decay)
    sgd_update(param, np.zeros(2), velocity, cfg)
    np.testing.assert_allclose(param, expected, rtol=1e-15)


def test_joint_gradient_matches_finite_differences():
    """Every parameter group of the joint objective vs central differences
    (step 1e-5) on a 6x6 scene, 3 classes, radius 2, alpha 0.01."""
    image, labels, stack, pattern, bank = tiny_feature_setup()
    cfg = TrainConfig(alpha=0.01, train_radius=2, seg_loss_weight=1.0,
                      aff_loss_weight=1.0)
    state = init_state(bank.num_channels, 3, seed=0)
    theta, unary = state.theta, state.unary

    from walkseg.features import extract_features, per_channel_normalize
    from walkseg.graph import (affinity_forward, affinity_loss_grad,
                               channel_distances, ground_truth_affinity,
                               transition)
    from walkseg.walk import rw_step

    stack_n = per_channel_normalize(extract_features(image, bank))
    flat = stack_n.reshape(-1, bank.num_channels)
    fdist = channel_distances(stack_n, pattern)
    targets = ground_truth_affinity(labels, pattern)

    def total_loss():
        f = unary_forward(flat, unary)
        w = affinity_forward(fdist, theta)
        aff = affinity_loss_grad(w, targets)[0]
        y = rw_step(transition(pattern, w), f, f, cfg.alpha)
        seg = softmax_loss_grad(y, labels)[0]
        return cfg.seg_loss_weight * seg + cfg.aff_loss_weight * aff

    _, _, dtheta, dweights, dbias = sample_losses_grads(
        image, labels, theta, unary, cfg, bank, pattern)
    assert rel_error(dtheta, numerical_gradient(total_loss, theta)) < 1e-4
    assert rel_error(dweights,
                     numerical_gradient(total_loss, unary.weights)) < 1e-4
    assert rel_error(dbias, numerical_gradient(total_loss, unary.bias)) < 1e-4


def test_paper_recipe_theta_gradient_on_seed_four_scene():
    """dtheta entries 0, 5 and 10 against central differences (step 1e-6)
    of the weighted loss, below 1e-6 relative, on the 16x16 crop of scene
    0 of seed 4 at the paper recipe, radius 3, 4 + 4 filters. On this
    scene dtheta[10] is about 1e-3 of dtheta[0], so it is the tightest
    of seeds 0-12."""
    cfg = Config()
    apply_preset(cfg, "paper")
    cfg = dataclasses.replace(cfg.train, train_radius=3)
    image, labels = generate(SceneSpec(seed=4), 1)[0]
    image, labels = image[:16, :16], labels[:16, :16]
    bank = FilterBankConfig(f1=4, f2=4)
    pattern = build_sparsity(16, 16, 3)
    theta = init_theta(bank.num_channels)
    unary = init_unary(bank.num_channels, 4, np.random.default_rng(0))

    def loss(th):
        seg, aff, *_ = sample_losses_grads(image, labels, th, unary, cfg,
                                           bank, pattern)
        return cfg.seg_loss_weight * seg + cfg.aff_loss_weight * aff

    dtheta = sample_losses_grads(image, labels, theta, unary, cfg, bank,
                                 pattern)[2]
    step = 1e-6
    for c in (0, 5, 10):
        shift = np.zeros_like(theta)
        shift[c] = step
        numeric = (loss(theta + shift) - loss(theta - shift)) / (2 * step)
        assert abs(numeric - dtheta[c]) < 1e-6 * abs(dtheta[c])


def edge_chain_losses_grads(image, labels, theta, unary, cfg, bank, pattern):
    """`sample_losses_grads` as a chain of per-edge layers: E-sized
    targets, dA, dW and affinity-loss gradient, as the pair-weight
    backward replaces them. The targets are gathered here and dtheta is
    taken from the gathered distances, so no pixel-pair function of the
    training path is on this side."""
    stack = per_channel_normalize(extract_features(image, bank))
    flat = stack.reshape(-1, stack.shape[2])
    f = unary_forward(flat, unary)
    w = np.tile(learned_affinity(stack, pattern, theta), 2)
    flat_labels = labels.ravel()
    targets = (flat_labels[pattern.rows] == flat_labels[pattern.cols])
    half = pattern.num_edges // 2
    np.testing.assert_array_equal(targets[:half], targets[half:])
    aff_loss, dw_aff = affinity_loss_grad(w, targets.astype(np.float64))
    a = transition(pattern, w)
    seg_loss, dy = softmax_loss_grad(rw_step(a, f, f, cfg.alpha), labels)
    df = cfg.alpha * rw_backward_f(a, dy) + (1.0 - cfg.alpha) * dy
    da = cfg.alpha * rw_backward_a(pattern, dy, f)
    dw = (cfg.seg_loss_weight * transition_backward(a, da)
          + cfg.aff_loss_weight * dw_aff)
    dtheta = affinity_backward(channel_distances(stack, pattern), w, dw)
    df *= cfg.seg_loss_weight
    return seg_loss, aff_loss, dtheta, df.T @ flat, df.sum(axis=0)


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 8), w=st.integers(1, 8), r=st.integers(1, 12),
       labelling=st.sampled_from(["random", "single", "distinct"]),
       constant=st.booleans(), alpha=st.floats(0.0, 1.0),
       weights=st.sampled_from([(1.0, 1.0), (0.0, 1.0), (1.0, 0.0),
                                (0.7, 1e-4)]),
       seed=st.integers(0, 2 ** 16))
@example(h=1, w=1, r=40, labelling="random", constant=False, alpha=0.01,
         weights=(1.0, 1.0), seed=0)
@example(h=1, w=5, r=40, labelling="distinct", constant=False, alpha=0.5,
         weights=(1.0, 1.0), seed=1)
@example(h=5, w=1, r=40, labelling="random", constant=False, alpha=1.0,
         weights=(1.0, 1.0), seed=2)
@example(h=2, w=2, r=40, labelling="single", constant=True, alpha=0.0,
         weights=(1.0, 1.0), seed=3)
@example(h=3, w=3, r=40, labelling="random", constant=False, alpha=0.01,
         weights=(1.0, 1.0), seed=4)
def test_pair_backward_matches_edge_chain(h, w, r, labelling, constant,
                                          alpha, weights, seed):
    """The pixel-pair backward of `sample_losses_grads` against the
    per-edge layer chain, on grids of 1x1 to 8x8 and radii up to past the
    grid's diagonal: the seg loss and the classifier gradients are
    bit-identical; dtheta and the affinity loss, summed in
    another order, agree to 1e-12 relative above a floor of 1e-14 times
    the pair count (a constant image has dtheta = 0)."""
    rng = np.random.default_rng(seed)
    bank = FilterBankConfig(f1=2, f2=2, seed=3)
    image = (np.full((h, w, 3), 0.4) if constant
             else rng.uniform(0.0, 1.0, (h, w, 3)))
    labels = {"random": rng.integers(0, 3, (h, w)),
              "single": np.zeros((h, w), dtype=int),
              "distinct": np.arange(h * w).reshape(h, w)}[labelling]
    cfg = TrainConfig(alpha=alpha, train_radius=r,
                      seg_loss_weight=weights[0], aff_loss_weight=weights[1])
    pattern = build_sparsity(h, w, r)
    theta = rng.normal(-0.3, 0.2, bank.num_channels)
    unary = init_unary(bank.num_channels, int(labels.max()) + 2, rng)
    unary.bias[:] = rng.normal(0.0, 0.5, unary.bias.size)

    seg, aff, dtheta, dweights, dbias = sample_losses_grads(
        image, labels, theta, unary, cfg, bank, pattern)
    ref = edge_chain_losses_grads(image, labels, theta, unary, cfg, bank,
                                  pattern)
    assert seg == ref[0]
    np.testing.assert_array_equal(dweights, ref[3])
    np.testing.assert_array_equal(dbias, ref[4])
    floor = 1e-14 * (pattern.num_edges // 2 + 1)
    assert abs(aff - ref[1]) <= 1e-12 * abs(ref[1]) + floor
    assert (np.linalg.norm(dtheta - ref[2])
            <= 1e-12 * np.linalg.norm(ref[2]) + floor)


def test_sample_and_predict_build_no_edge_arrays(monkeypatch):
    """One training sample and one prediction, at the loop's alpha and
    at conjugate gradients', run on the pixel pairs alone: they never
    read the pattern's directed edges or A per edge slot."""
    def per_edge(self):
        raise AssertionError("a per-edge array was read")

    for cls, name in ((graph.SparsityPattern, "rows"),
                      (graph.SparsityPattern, "cols"),
                      (graph.TransitionMatrix, "values")):
        monkeypatch.setattr(cls, name, property(per_edge))
    image, labels, _, pattern, bank = tiny_feature_setup(8, 8, radius=3)
    state = init_state(bank.num_channels, 3, seed=0)
    sample_losses_grads(image, labels, state.theta, state.unary,
                        TrainConfig(train_radius=3), bank, pattern)
    ckpt = ModelCheckpoint(state.theta, state.unary, bank, 3)
    for alpha in (0.01, 0.99):
        predict(ckpt, image, radius=3, solver_cfg=SolverConfig(alpha=alpha))
    with pytest.raises(AssertionError, match="per-edge"):
        pattern.rows


def test_sample_with_alpha_outside_unit_interval_rejected():
    image, labels, stack, pattern, bank = tiny_feature_setup()
    state = init_state(bank.num_channels, 3, seed=0)
    with pytest.raises(InvalidInputError, match="alpha"):
        sample_losses_grads(image, labels, state.theta, state.unary,
                            TrainConfig(alpha=1.5, train_radius=2), bank,
                            pattern)


def test_loss_additivity():
    image, labels, stack, pattern, bank = tiny_feature_setup()
    cfg = TrainConfig(train_radius=2, seg_loss_weight=0.7, aff_loss_weight=0.3)
    state = init_state(bank.num_channels, 3, seed=1)
    seg, aff, total = train_step([(image, labels)], state, cfg, bank)
    assert abs(total - (0.7 * seg + 0.3 * aff)) < 1e-12


# ---------------------------------------------------------------------------
# training loop


def smoke_dataset(count=4):
    return generate(SceneSpec(height=16, width=16, seed=13), count)


def smoke_config(**overrides):
    base = dict(learning_rate=1e-2, batch_size=2, iterations=5,
                train_radius=3, aff_loss_weight=1e-4, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def test_single_sample_training_equals_train_step():
    dataset = smoke_dataset(1)
    bank = FilterBankConfig(f1=2, f2=2, seed=0)
    cfg = smoke_config(iterations=1, batch_size=1, augment_hflip=False)
    ckpt, history = train(dataset, cfg, bank, num_classes=4)

    state = init_state(bank.num_channels, 4, cfg.seed)
    seg, aff, _ = train_step([dataset[0]], state, cfg, bank)
    assert history == [(1, seg, aff)]
    np.testing.assert_array_equal(ckpt.theta, state.theta)
    np.testing.assert_array_equal(ckpt.unary.weights, state.unary.weights)


def test_batch_step_is_the_summed_samples_then_one_update_per_parameter():
    """A 3-sample `train_step` against an independent reference: each
    sample's `sample_losses_grads` summed in batch order, scaled by 1/3,
    then one `sgd_update` per parameter. Losses, parameters and
    velocities match bit for bit, after a first step has made the
    velocities non-zero."""
    dataset = smoke_dataset(3)
    bank = FilterBankConfig(f1=2, f2=2, seed=0)
    cfg = smoke_config(momentum=0.9, weight_decay=5e-3)
    state = init_state(bank.num_channels, 4, cfg.seed)
    train_step(dataset[:1], state, cfg, bank)
    ref = copy.deepcopy(state)

    losses = train_step(dataset, state, cfg, bank)

    pattern = build_sparsity(16, 16, cfg.train_radius)
    seg = aff = 0.0
    grads = [np.zeros_like(p) for p in (ref.theta, ref.unary.weights,
                                        ref.unary.bias)]
    for image, labels in dataset:
        s, a, *g = sample_losses_grads(image, labels, ref.theta, ref.unary,
                                       cfg, bank, pattern)
        seg, aff = seg + s, aff + a
        for total, part in zip(grads, g):
            total += part
    scale = 1.0 / 3
    seg, aff = seg * scale, aff * scale
    assert losses == (seg, aff, cfg.seg_loss_weight * seg
                      + cfg.aff_loss_weight * aff)
    sgd_update(ref.theta, grads[0] * scale, ref.vel_theta, cfg)
    sgd_update(ref.unary.weights, grads[1] * scale, ref.vel_weights, cfg)
    sgd_update(ref.unary.bias, grads[2] * scale, ref.vel_bias, cfg)
    for name in ("theta", "vel_theta", "vel_weights", "vel_bias"):
        assert getattr(state, name).tobytes() == getattr(ref, name).tobytes()
    assert state.unary.weights.tobytes() == ref.unary.weights.tobytes()
    assert state.unary.bias.tobytes() == ref.unary.bias.tobytes()
    assert state.iteration == 2


def test_seeded_runs_are_bit_identical():
    dataset = smoke_dataset()
    bank = FilterBankConfig(f1=2, f2=2, seed=0)
    cfg = smoke_config(iterations=10)
    first, h1 = train(dataset, cfg, bank, num_classes=4)
    second, h2 = train(dataset, cfg, bank, num_classes=4)
    assert h1 == h2
    assert first.theta.tobytes() == second.theta.tobytes()
    assert first.unary.weights.tobytes() == second.unary.weights.tobytes()
    assert first.unary.bias.tobytes() == second.unary.bias.tobytes()


def test_hflip_augmentation_is_seeded():
    dataset = smoke_dataset()
    bank = FilterBankConfig(f1=2, f2=2, seed=0)
    cfg = smoke_config(iterations=6, augment_hflip=True)
    _, h1 = train(dataset, cfg, bank, num_classes=4)
    _, h2 = train(dataset, cfg, bank, num_classes=4)
    assert h1 == h2


def test_divergence_reports_iteration():
    dataset = smoke_dataset(2)
    bank = FilterBankConfig(f1=2, f2=2, seed=0)
    cfg = smoke_config(learning_rate=1e6, iterations=50, aff_loss_weight=1.0)
    with pytest.raises(DivergenceError) as err:
        train(dataset, cfg, bank, num_classes=4)
    assert err.value.iteration >= 1


def test_empty_dataset_rejected():
    with pytest.raises(InvalidInputError):
        train([], smoke_config())


# ---------------------------------------------------------------------------
# checkpoint serialization


def make_checkpoint():
    rng = np.random.default_rng(17)
    bank = FilterBankConfig(f1=2, f2=3, seed=9)
    k = bank.num_channels
    return ModelCheckpoint(rng.standard_normal(k),
                           UnaryParams(rng.standard_normal((4, k)),
                                       rng.standard_normal(4)),
                           bank, 4, iteration=55)


def test_checkpoint_roundtrip_bytes_identical(tmp_path):
    path = tmp_path / "model.ckpt"
    ckpt = make_checkpoint()
    save_checkpoint(path, ckpt)
    first = path.read_bytes()
    loaded = load_checkpoint(path)
    save_checkpoint(path, loaded)
    assert path.read_bytes() == first
    np.testing.assert_array_equal(loaded.theta, ckpt.theta)
    np.testing.assert_array_equal(loaded.unary.weights, ckpt.unary.weights)
    np.testing.assert_array_equal(loaded.unary.bias, ckpt.unary.bias)
    assert loaded.bank == ckpt.bank
    assert loaded.num_classes == ckpt.num_classes
    assert loaded.iteration == ckpt.iteration


def test_truncated_checkpoint_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_checkpoint())
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(DataFormatError):
        load_checkpoint(path)


def test_version_mismatch_is_explicit(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_checkpoint())
    blob = bytearray(path.read_bytes())
    blob[7] = ord("2")  # future version digit
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedVersionError):
        load_checkpoint(path)


@pytest.mark.parametrize("part, value", [
    ("theta", np.inf), ("weights", -np.inf), ("bias", np.nan)])
def test_non_finite_checkpoint_rejected(tmp_path, part, value):
    """A well-formed checkpoint with one non-finite parameter is a data
    error at load time, before any model runs on it."""
    ckpt = make_checkpoint()
    target = ckpt.theta if part == "theta" else getattr(ckpt.unary, part)
    target.flat[1] = value
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    with pytest.raises(DataFormatError, match="non-finite"):
        load_checkpoint(path)


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"not a checkpoint at all, nope")
    with pytest.raises(DataFormatError):
        load_checkpoint(path)


def test_default_head_has_131_parameters():
    assert init_theta(FilterBankConfig().num_channels).size == 131
