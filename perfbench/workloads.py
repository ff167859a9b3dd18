"""The benchmark's three workloads: infer, train and oracle.

Each workload is built in set-up (its constructor) from `synth.generate`,
seeded from the benchmark seed. `item(i)` is the timed unit of work and
calls walkseg only, always through module attributes so that the tracer's
wrappers see every call. `check(i, result)` verifies one item and
`final_check()` runs the once-per-run checks; both run outside the timed
region. The item with index 0 is the untimed warm-up, and the
once-per-run checks look at its output.
"""

import dataclasses

import numpy as np

from walkseg import (cli, config, features, graph, metrics, pipeline, pnm,
                     solver, synth, training)

NUM_CLASSES = 4
RADIUS = 5  # the test-time radius of `infer` and of the oracle harness

# the brief, deterministic recipe that gives `infer` a 131-channel checkpoint
CHECKPOINT_RECIPE = training.TrainConfig(
    learning_rate=0.1, batch_size=1, iterations=30, train_radius=2,
    aff_loss_weight=1e-4)


def agrees_with_dense(labels, a, f, cfg: solver.SolverConfig):
    """Compare iterated labels with the argmax of the exact dense solve.

    The fixed-point loop stops once a sweep changes no entry by more than
    the tolerance, which leaves it within alpha / (1 - alpha) * tolerance
    of the fixed point; a pixel whose top two exact scores are closer than
    twice that is not decided by the solver and is left out. Returns
    (agree, undecided pixel count).
    """
    exact = (1.0 - cfg.alpha) * solver.dense_oracle_solve(a, f, cfg.alpha)
    top_two = np.sort(exact, axis=1)[:, -2:]
    bound = 2.0 * cfg.alpha * cfg.tolerance / (1.0 - cfg.alpha)
    decided = top_two[:, 1] - top_two[:, 0] > bound
    agree = np.array_equal(np.ravel(labels)[decided],
                           np.argmax(exact, axis=1)[decided])
    return agree, int((~decided).sum())


def labels_valid(labels, shape) -> bool:
    return (labels.shape == shape and labels.min() >= 0
            and labels.max() < NUM_CLASSES)


class Infer:
    """One `walkseg infer` request per item: a 64x64 PPM in, a PGM out.

    Default alpha (0.01) run to convergence at radius 5 with a checkpoint
    that set-up trains. Each request loads the checkpoint and rebuilds
    the neighbor pattern, as the command does.
    """

    POOL = 64
    SIZE = 64

    def __init__(self, seed: int, work):
        scenes = synth.generate(
            synth.SceneSpec(self.SIZE, self.SIZE, seed=seed), self.POOL)
        train_set = synth.generate(synth.SceneSpec(24, 24, seed=seed), 12,
                                   start_index=self.POOL)
        ckpt, _ = training.train(train_set, CHECKPOINT_RECIPE,
                                 features.FilterBankConfig(), NUM_CLASSES)
        self.checkpoint = str(work / "model.ckpt")
        training.save_checkpoint(self.checkpoint, ckpt)
        self.images, self.outputs, self.truth = [], [], []
        for index, (image, labels) in enumerate(scenes):
            self.images.append(str(work / f"img{index:03d}.ppm"))
            self.outputs.append(str(work / f"out{index:03d}.pgm"))
            pnm.write_ppm(self.images[-1], image)
            self.truth.append(labels)
        self.work = work
        self.solver_cfg = solver.SolverConfig()
        self.first_output = None

    def item(self, i):
        k = i % self.POOL
        return cli.main(["infer", "--checkpoint", self.checkpoint,
                         "--image", self.images[k],
                         "--out-labels", self.outputs[k],
                         "--steps", "converge", "--radius", str(RADIUS)])

    def check(self, i, exit_code):
        k = i % self.POOL
        if exit_code != 0:
            return False, {}
        labels = pnm.read_pgm(self.outputs[k])
        if not labels_valid(labels, self.truth[k].shape):
            return False, {}
        if i == 0:
            with open(self.outputs[k], "rb") as fh:
                self.first_output = (labels, fh.read())
        return True, {"mean_iou": metrics.mean_iou(labels, self.truth[k],
                                                   NUM_CLASSES)}

    def final_check(self):
        """The first request's labels equal the dense solve's argmax on the
        same transition, and its PGM reads back and rewrites unchanged."""
        labels, blob = self.first_output
        image = pnm.read_ppm(self.images[0])
        ckpt = training.load_checkpoint(self.checkpoint)
        a = pipeline.model_transition(ckpt, image, RADIUS)
        f = pipeline.model_scores(ckpt, image)
        agree, undecided = agrees_with_dense(labels, a, f, self.solver_cfg)
        rewritten = self.work / "roundtrip.pgm"
        pnm.write_pgm(rewritten, labels)
        same = rewritten.read_bytes() == blob
        return agree and same, {"dense_undecided_px": undecided}


class Train:
    """One `train_step` per item at the `paper` preset with batch 1:
    32x32 scenes, radius 40, alpha 0.01, 131 channels."""

    POOL = 32

    def __init__(self, seed: int, work):
        cfg = config.Config()
        config.apply_preset(cfg, "paper")
        cfg.train.batch_size = 1
        cfg.scene.seed = seed
        self.cfg = cfg
        self.samples = synth.generate(cfg.scene, self.POOL)
        self.gradient_error = gradient_check(self.samples[0], cfg.train)
        self.state = training.init_state(cfg.bank.num_channels, NUM_CLASSES,
                                         cfg.train.seed)
        # train_step fills this cache on its first call; filling it here
        # keeps the radius-40 pattern build in set-up
        fill = getattr(training, "_cached_pattern", None)
        if fill is not None:
            fill(self.state, cfg.scene.height, cfg.scene.width,
                 cfg.train.train_radius)

    def item(self, i):
        return training.train_step([self.samples[i % self.POOL]], self.state,
                                   self.cfg.train, self.cfg.bank)

    def check(self, i, losses):
        params = (self.state.theta, self.state.unary.weights,
                  self.state.unary.bias)
        finite = (all(np.isfinite(losses))
                  and all(np.all(np.isfinite(p)) for p in params))
        return finite, {"seg_loss": losses[0]} if finite else {}

    def final_check(self):
        """dtheta of one sample matched central differences in set-up."""
        return self.gradient_error < 1e-6, {
            "gradient_rel_error": self.gradient_error}


def gradient_check(sample, train_cfg, size=16, radius=3, entries=(0, 5, 10)):
    """Largest relative error between `sample_losses_grads`'s dtheta and
    central differences of the weighted loss, on a few theta entries of a
    reduced problem (a size x size crop, 4 + 4 filters, radius 3)."""
    image, labels = sample[0][:size, :size], sample[1][:size, :size]
    bank = features.FilterBankConfig(f1=4, f2=4)
    cfg = dataclasses.replace(train_cfg, train_radius=radius)
    pattern = graph.build_sparsity(size, size, radius)
    rng = np.random.default_rng(0)
    theta = training.init_theta(bank.num_channels)
    unary = training.init_unary(bank.num_channels, NUM_CLASSES, rng)

    def loss(th):
        seg, aff, *_ = training.sample_losses_grads(image, labels, th, unary,
                                                    cfg, bank, pattern)
        return cfg.seg_loss_weight * seg + cfg.aff_loss_weight * aff

    dtheta = training.sample_losses_grads(image, labels, theta, unary, cfg,
                                          bank, pattern)[2]
    step = 1e-6
    worst = 0.0
    for c in entries:
        shift = np.zeros_like(theta)
        shift[c] = step
        numeric = (loss(theta + shift) - loss(theta - shift)) / (2 * step)
        worst = max(worst, abs(numeric - dtheta[c]) / max(abs(dtheta[c]), 1e-12))
    return worst


class Oracle:
    """One oracle scene per item at 64x64: corrupted one-hot scores,
    ground-truth affinities at radius 5, alpha 0.99 run to convergence,
    then the scores `walkseg eval` computes."""

    POOL = 64
    SIZE = 64

    def __init__(self, seed: int, work):
        scenes = synth.generate(
            synth.SceneSpec(self.SIZE, self.SIZE, seed=seed), self.POOL)
        self.truth = [labels for _, labels in scenes]
        self.seed = seed
        self.solver_cfg = solver.SolverConfig(alpha=0.99)
        self.eval_cfg = config.EvalConfig()
        self.first = None

    def _inputs(self, i):
        labels = self.truth[i % self.POOL]
        corrupt = pipeline.CorruptionConfig(seed=self.seed * self.POOL
                                            + i % self.POOL)
        damaged, _ = pipeline.oracle_scene(labels, corrupt, NUM_CLASSES)
        return labels, damaged, pipeline.oracle_transition(labels, RADIUS)

    def item(self, i):
        labels, damaged, a = self._inputs(i)
        y = pipeline.diffuse(a, damaged, "converge", self.solver_cfg)
        pred = pipeline.argmax_labels(y, labels.shape)
        strength = metrics.extract_boundary_strength(
            metrics.onehot_probabilities(pred, NUM_CLASSES), pred.shape)
        mf, ap, _ = metrics.boundary_pr(
            strength, metrics.label_boundary_mask(labels),
            tolerance=self.eval_cfg.boundary_tolerance,
            thresholds=self.eval_cfg.thresholds)
        trimap = metrics.trimap_error(
            pred, labels, range(1, self.eval_cfg.trimap_max_width + 1))
        return {"pred": pred, "mf": mf, "ap": ap, "trimap": trimap,
                "mean_iou": metrics.mean_iou(pred, labels, NUM_CLASSES),
                "overall_iou": metrics.overall_iou(pred, labels)}

    def check(self, i, scores):
        pred = scores["pred"]
        if not labels_valid(pred, self.truth[i % self.POOL].shape):
            return False, {}
        unit = [scores["mean_iou"], scores["overall_iou"], scores["mf"],
                scores["ap"]] + [rate for _, rate in scores["trimap"]]
        if not all(0.0 <= value <= 1.0 for value in unit):
            return False, {}
        if i == 0:
            self.first = pred
        return True, {"mean_iou": scores["mean_iou"]}

    def final_check(self):
        """The first scene's labels agree with the dense solve's argmax."""
        _, damaged, a = self._inputs(0)
        agree, undecided = agrees_with_dense(self.first, a, damaged,
                                             self.solver_cfg)
        return agree, {"dense_undecided_px": undecided}


WORKLOADS = {"infer": Infer, "train": Train, "oracle": Oracle}
