import contextlib
import dataclasses
import hashlib
import io
import os
import string
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walkseg import cli, features, pipeline, pnm
from walkseg.cli import main
from walkseg.config import (Config, PRESETS, apply_overrides, apply_preset,
                            parse_config, serialize_config)
from walkseg.errors import DataFormatError
from walkseg.graph import affinity_forward, channel_distances
from walkseg.pipeline import predict
from walkseg.solver import SolverConfig
from walkseg.features import FilterBankConfig
from walkseg.training import (CHECKPOINT_MAGIC, ModelCheckpoint, UnaryParams,
                              load_checkpoint, save_checkpoint, softmax)

# ---------------------------------------------------------------------------
# config text format


def test_serialize_parse_roundtrip():
    cfg = Config()
    cfg.train.learning_rate = 3e-4
    cfg.scene.shape_types = ("ellipse", "polygon")
    text = serialize_config(cfg)
    reparsed = parse_config(text)
    assert serialize_config(reparsed) == text
    assert reparsed.train.learning_rate == 3e-4
    assert reparsed.scene.shape_types == ("ellipse", "polygon")


def test_parse_ignores_comments_and_blanks():
    cfg = parse_config("\n# a comment\ntrain.batch_size = 7  # trailing\n\n")
    assert cfg.train.batch_size == 7


def test_infer_section_carries_radius():
    cfg = parse_config("infer.radius = 9\n")
    assert cfg.infer.radius == 9
    assert "infer.radius = 9" in serialize_config(cfg)


def test_unknown_keys_rejected():
    with pytest.raises(DataFormatError):
        parse_config("train.warp_speed = 9")
    with pytest.raises(DataFormatError):
        parse_config("warp.factor = 9")
    with pytest.raises(DataFormatError):
        apply_overrides(Config(), ["no_equals_sign"])


def test_bad_value_rejected():
    with pytest.raises(DataFormatError):
        parse_config("train.batch_size = lots")


def test_paper_preset_is_the_reference_recipe():
    cfg = apply_preset(Config(), "paper")
    assert cfg.train.learning_rate == 1e-5
    assert cfg.train.momentum == 0.9
    assert cfg.train.weight_decay == 5e-5
    assert cfg.train.batch_size == 15
    assert cfg.train.iterations == 2000
    assert cfg.train.train_radius == 40
    assert cfg.train.alpha == 0.01
    assert "paper" in PRESETS and "smoke" in PRESETS


# the canonical text of the defaults and of both presets, every key once
GOLDEN = {
    None: """\
scene.height = 32
scene.width = 32
scene.num_classes = 4
scene.min_shapes = 4
scene.max_shapes = 7
scene.shape_types = ellipse,rectangle,polygon
scene.texture_sigma = 0.02
scene.noise_sigma = 0.02
scene.seed = 7
generate.train_count = 100
generate.test_count = 20
bank.f1 = 64
bank.f2 = 64
bank.seed = 0
train.learning_rate = 0.01
train.momentum = 0.9
train.weight_decay = 5e-05
train.batch_size = 15
train.iterations = 2000
train.train_radius = 40
train.alpha = 0.01
train.seg_loss_weight = 1.0
train.aff_loss_weight = 1.0
train.seed = 0
train.augment_hflip = true
solver.alpha = 0.01
solver.tolerance = 1e-06
solver.max_iterations = 10000
infer.radius = 5
corrupt.band_width = 4
corrupt.flip_prob = 0.3
corrupt.blur_radius = 1
corrupt.seed = 0
eval.trimap_max_width = 10
eval.boundary_tolerance = 2.0
eval.thresholds = 20
""",
    "paper": """\
scene.height = 32
scene.width = 32
scene.num_classes = 4
scene.min_shapes = 4
scene.max_shapes = 7
scene.shape_types = ellipse,rectangle,polygon
scene.texture_sigma = 0.02
scene.noise_sigma = 0.02
scene.seed = 7
generate.train_count = 100
generate.test_count = 20
bank.f1 = 64
bank.f2 = 64
bank.seed = 0
train.learning_rate = 1e-05
train.momentum = 0.9
train.weight_decay = 5e-05
train.batch_size = 15
train.iterations = 2000
train.train_radius = 40
train.alpha = 0.01
train.seg_loss_weight = 1.0
train.aff_loss_weight = 1.0
train.seed = 0
train.augment_hflip = true
solver.alpha = 0.01
solver.tolerance = 1e-06
solver.max_iterations = 10000
infer.radius = 5
corrupt.band_width = 4
corrupt.flip_prob = 0.3
corrupt.blur_radius = 1
corrupt.seed = 0
eval.trimap_max_width = 10
eval.boundary_tolerance = 2.0
eval.thresholds = 20
""",
    "smoke": """\
scene.height = 24
scene.width = 24
scene.num_classes = 4
scene.min_shapes = 4
scene.max_shapes = 7
scene.shape_types = ellipse,rectangle,polygon
scene.texture_sigma = 0.02
scene.noise_sigma = 0.02
scene.seed = 7
generate.train_count = 12
generate.test_count = 4
bank.f1 = 8
bank.f2 = 8
bank.seed = 0
train.learning_rate = 0.01
train.momentum = 0.9
train.weight_decay = 5e-05
train.batch_size = 3
train.iterations = 200
train.train_radius = 5
train.alpha = 0.01
train.seg_loss_weight = 1.0
train.aff_loss_weight = 0.0001
train.seed = 0
train.augment_hflip = true
solver.alpha = 0.01
solver.tolerance = 1e-06
solver.max_iterations = 10000
infer.radius = 5
corrupt.band_width = 4
corrupt.flip_prob = 0.3
corrupt.blur_radius = 1
corrupt.seed = 0
eval.trimap_max_width = 10
eval.boundary_tolerance = 2.0
eval.thresholds = 20
""",
}


@pytest.mark.parametrize("preset", list(GOLDEN))
def test_serialized_config_is_pinned(preset):
    cfg = Config()
    if preset:
        apply_preset(cfg, preset)
    text = serialize_config(cfg)
    assert text == GOLDEN[preset]
    assert len(text.splitlines()) == 36


# random values of each declared key type; a key of any other type fails
VALUES = {
    int: st.integers(-2 ** 40, 2 ** 40),
    float: st.floats(allow_nan=False),
    str: st.text(string.ascii_letters + string.digits + "_-", min_size=1),
    bool: st.booleans(),
    tuple: st.lists(st.text(string.ascii_lowercase + "_", min_size=1),
                    max_size=4).map(tuple),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_key_round_trips(data):
    cfg = Config()
    for section in fields(Config):
        values = getattr(cfg, section.name)
        for key in fields(values):
            dotted = f"{section.name}.{key.name}"
            assert key.type in VALUES, f"{dotted} has no parser"
            setattr(values, key.name, data.draw(VALUES[key.type], label=dotted))
    text = serialize_config(cfg)
    reparsed = parse_config(text)
    assert reparsed == cfg
    assert serialize_config(reparsed) == text


# ---------------------------------------------------------------------------
# CLI plumbing


def sha256_tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_generate_default_counts(tmp_path):
    out = tmp_path / "data"
    assert main(["generate", str(out)]) == 0
    assert len(list((out / "train").glob("*.ppm"))) == 100
    assert len(list((out / "test").glob("*.ppm"))) == 20
    assert (out / "train.txt").exists() and (out / "test.txt").exists()
    lines = (out / "train.txt").read_text().splitlines()
    assert len(lines) == 100


def test_generate_rerun_is_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    args = ["--set", "generate.train_count=4", "--set", "generate.test_count=2"]
    assert main(["generate", *args, str(first)]) == 0
    assert main(["generate", *args, str(second)]) == 0
    assert sha256_tree(first) == sha256_tree(second)


def test_generate_zero_count(tmp_path):
    out = tmp_path / "none"
    code = main(["generate", "--set", "generate.train_count=0",
                 "--set", "generate.test_count=0", str(out)])
    assert code == 0
    assert (out / "train.txt").read_text() == ""


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 1


def test_unknown_config_key_exit_code(tmp_path):
    assert main(["generate", "--set", "bogus.key=1", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("override", ["solver.mode=iterate",
                                      "infer.metric=euclidean"])
def test_removed_config_keys_are_unknown(override, tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["generate", "--set", override, str(out)]) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert not out.exists()


def test_infer_has_no_mode_flag(tmp_path, capsys):
    assert main(["infer", "--checkpoint", str(tmp_path / "m.ckpt"),
                 "--image", str(tmp_path / "in.ppm"),
                 "--out-labels", str(tmp_path / "out.pgm"),
                 "--mode", "iterate"]) == 1
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize("override", [
    "scene.noise_sigma=-1", "scene.texture_sigma=nan",
    "scene.noise_sigma=inf", "generate.train_count=-2",
    "generate.test_count=-1"])
def test_generate_rejects_bad_scene_settings(override, tmp_path, capsys):
    """Negative or non-finite sigmas and negative counts are data errors
    (exit 2, one line, no traceback) raised before anything is written."""
    out = tmp_path / "data"
    assert main(["generate", "--set", override, str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.fixture(scope="module")
def smoke_workspace(tmp_path_factory):
    """Generate a small dataset and train a short smoke model once."""
    root = tmp_path_factory.mktemp("workspace")
    data = root / "data"
    overrides = ["--preset", "smoke", "--set", "train.iterations=40"]
    assert main(["generate", *overrides, str(data)]) == 0
    ckpt = root / "model.ckpt"
    losses = root / "losses.csv"
    assert main(["train", *overrides, "--manifest", str(data / "train.txt"),
                 "--out-checkpoint", str(ckpt), "--loss-csv", str(losses)]) == 0
    return root, data, ckpt, losses, overrides


def test_train_smoke_loss_log(smoke_workspace):
    root, data, ckpt, losses, _ = smoke_workspace
    text = losses.read_text().splitlines()
    header = [line for line in text if line.startswith("#")]
    body = [line for line in text if not line.startswith("#")]
    assert "# train.learning_rate = 0.01" in header
    assert body[0] == "iter,seg_loss,aff_loss"
    assert len(body) == 41
    first = float(body[1].split(",")[1])
    last = float(body[-1].split(",")[1])
    assert last < first  # quick sanity; the long-run check lives in acceptance
    loaded = load_checkpoint(ckpt)
    assert loaded.iteration == 40
    assert loaded.num_classes == 4


def test_train_divergence_exit_code(smoke_workspace, tmp_path, capsys):
    root, data, ckpt, _, overrides = smoke_workspace
    train = ["train", *overrides, "--manifest", str(data / "train.txt"),
             "--out-checkpoint", str(tmp_path / "diverged.ckpt")]
    code = main([*train, "--set", "train.learning_rate=1e6",
                 "--set", "train.aff_loss_weight=1.0"])
    assert code == 3
    # non-finite settings are bad input (exit 2), not a numerical failure
    infer = ["infer", *overrides, "--checkpoint", str(ckpt),
             "--image", str(data / "test" / "img000.ppm"),
             "--out-labels", str(tmp_path / "p.pgm")]
    capsys.readouterr()
    for argv, setting in [
            (train, "train.learning_rate=nan"), (train, "train.momentum=inf"),
            (train, "train.weight_decay=nan"),
            (train, "train.seg_loss_weight=nan"),
            (train, "train.aff_loss_weight=inf"),
            (infer, "solver.tolerance=nan"), (infer, "solver.tolerance=inf")]:
        assert main([*argv, "--set", setting]) == 2, setting
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, setting


@pytest.mark.parametrize("bad_class, override", [
    (7, []), (None, ["--set", "scene.num_classes=0"])])
def test_train_rejects_labels_outside_classes(smoke_workspace, tmp_path,
                                              capsys, bad_class, override):
    """A label map holding a class >= scene.num_classes is bad input:
    exit 2 before the first step, not a divergence, and nothing written."""
    root, data, _, _, overrides = smoke_workspace
    manifest = data / "train.txt"
    if bad_class is not None:
        labels = pnm.read_pgm(data / "train" / "lab001.pgm")
        labels[0, 0] = bad_class
        pnm.write_pgm(tmp_path / "bad.pgm", labels)
        manifest = tmp_path / "bad.txt"
        manifest.write_text(f"{data / 'train' / 'img000.ppm'} "
                            f"{data / 'train' / 'lab000.pgm'}\n"
                            f"{data / 'train' / 'img001.ppm'} "
                            f"{tmp_path / 'bad.pgm'}\n")
    ckpt, losses = tmp_path / "m.ckpt", tmp_path / "m.loss.csv"
    capsys.readouterr()
    code = main(["train", *overrides, *override, "--manifest", str(manifest),
                 "--out-checkpoint", str(ckpt), "--loss-csv", str(losses)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not ckpt.exists() and not losses.exists()


def test_zero_class_checkpoint_is_a_data_error(smoke_workspace, tmp_path,
                                               capsys):
    root, data, _, _, _ = smoke_workspace
    ckpt = tmp_path / "empty.ckpt"
    f1 = f2 = 1
    k = 3 + f1 + f2
    ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<6I", k, 0, f1, f2, 0, 0)
                     + np.zeros(k).astype("<f8").tobytes())
    code = main(["infer", "--checkpoint", str(ckpt),
                 "--image", str(data / "test" / "img000.ppm"),
                 "--out-labels", str(tmp_path / "out.pgm")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "out.pgm").exists()


@pytest.fixture(scope="module")
def clean_inputs(tmp_path_factory):
    """A 6x6 image and a 5-channel, 2-class checkpoint for `infer`, and a
    predicted and a true 6x6 label map for `eval`."""
    root = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(2)
    (root / "pred").mkdir()
    (root / "gt").mkdir()
    labels = np.zeros((6, 6), dtype=np.int64)
    labels[:, 3:] = 1
    pnm.write_ppm(root / "img.ppm", rng.uniform(0, 1, (6, 6, 3)))
    pnm.write_pgm(root / "gt" / "m.pgm", labels)
    pnm.write_pgm(root / "pred" / "m.pgm", np.roll(labels, 1, axis=1))
    save_checkpoint(root / "model.ckpt", ModelCheckpoint(
        rng.normal(0, 0.1, 5), UnaryParams(rng.normal(0, 1, (2, 5)),
                                           rng.normal(0, 1, 2)),
        FilterBankConfig(f1=1, f2=1, seed=3), 2))
    return root


@settings(max_examples=300, deadline=None)
@given(target=st.sampled_from(["img.ppm", "model.ckpt", "pred/m.pgm",
                               "gt/m.pgm"]),
       at=st.integers(0, 10_000), byte=st.none() | st.integers(0, 255))
# a huge classifier weight: W f overflows where A f does not
@example(target="model.ckpt", at=255, byte=127)
def test_damaged_input_file_is_a_data_error(clean_inputs, target, at, byte):
    """The prefix before `at`, or with `byte` at `at`, of a valid PPM, PGM
    or checkpoint makes `infer` or `eval` exit 0 or 2, with at most one
    error line."""
    root = clean_inputs
    path = root / target
    clean = path.read_bytes()
    at %= len(clean)
    damaged = clean[:at] if byte is None else (
        clean[:at] + bytes([byte]) + clean[at + 1:])
    if target.endswith(".pgm"):
        argv = ["eval", "--pred-dir", str(root / "pred"),
                "--gt-dir", str(root / "gt"), "--out-csv", str(root / "m.csv")]
    else:
        argv = ["infer", "--checkpoint", str(root / "model.ckpt"),
                "--image", str(root / "img.ppm"),
                "--out-labels", str(root / "out.pgm")]
    err = io.StringIO()
    try:
        path.write_bytes(damaged)
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    finally:
        path.write_bytes(clean)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 2
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("alpha", ["0.01", "0.7", "0.99"])
def test_non_finite_class_scores_are_a_data_error(tmp_path, alpha, capsys):
    """A checkpoint of finite values whose classifier weights overflow the
    class scores makes `infer` exit 2 with one error line on each solver
    route: the loop, plain and deflated conjugate gradients."""
    rng = np.random.default_rng(4)
    pnm.write_ppm(tmp_path / "img.ppm", rng.uniform(0, 1, (16, 16, 3)))
    save_checkpoint(tmp_path / "model.ckpt", ModelCheckpoint(
        rng.normal(0, 0.1, 5), UnaryParams(np.full((5, 5), 1e308),
                                           np.zeros(5)),
        FilterBankConfig(f1=1, f2=1, seed=3), 5))
    code = main(["infer", "--checkpoint", str(tmp_path / "model.ckpt"),
                 "--image", str(tmp_path / "img.ppm"),
                 "--out-labels", str(tmp_path / "out.pgm"),
                 "--radius", "2", "--alpha", alpha])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: non-finite class scores\n"


def test_train_missing_manifest_entry(smoke_workspace, tmp_path):
    root, data, _, _, overrides = smoke_workspace
    manifest = tmp_path / "broken.txt"
    manifest.write_text("train/does-not-exist.ppm train/lab000.pgm\n")
    code = main(["train", *overrides, "--manifest", str(manifest),
                 "--out-checkpoint", str(tmp_path / "x.ckpt")])
    assert code == 2


def test_infer_steps_zero_is_pure_argmax(smoke_workspace, tmp_path):
    root, data, ckpt, _, overrides = smoke_workspace
    image_path = data / "test" / "img000.ppm"
    out = tmp_path / "pred.pgm"
    probs = tmp_path / "pred.probs"
    assert main(["infer", *overrides, "--checkpoint", str(ckpt),
                 "--image", str(image_path), "--out-labels", str(out),
                 "--out-probs", str(probs), "--steps", "0"]) == 0
    pred = pnm.read_pgm(out)
    image = pnm.read_ppm(image_path)
    assert pred.shape == image.shape[:2]
    expected, _ = predict(load_checkpoint(ckpt), image, steps=0)
    np.testing.assert_array_equal(pred, expected)
    raw = np.frombuffer(probs.read_bytes(), "<f8").reshape(-1, 4)
    np.testing.assert_allclose(raw.sum(axis=1), 1.0, atol=1e-9)
    sidecar = Path(str(probs) + ".txt").read_text().split()
    assert [int(x) for x in sidecar] == [24, 24, 4]


def test_infer_converge_matches_solver(smoke_workspace, tmp_path):
    root, data, ckpt, _, overrides = smoke_workspace
    image_path = data / "test" / "img001.ppm"
    out = tmp_path / "pred.pgm"
    assert main(["infer", *overrides, "--checkpoint", str(ckpt),
                 "--image", str(image_path), "--out-labels", str(out),
                 "--steps", "converge", "--radius", "5"]) == 0
    image = pnm.read_ppm(image_path)
    expected, _ = predict(load_checkpoint(ckpt), image, steps="converge",
                          radius=5, solver_cfg=SolverConfig())
    np.testing.assert_array_equal(pnm.read_pgm(out), expected)


def test_infer_alpha_from_flag_and_config_file(smoke_workspace, tmp_path):
    """`--alpha 0.9` writes the labels and probabilities `predict` gives
    at alpha 0.9; a `--config` file holding solver.alpha = 0.9 writes the
    same bytes, and `--alpha 0.5` overrides the file. The labels of this
    scene do not move with alpha, its probabilities do."""
    root, data, ckpt, _, _ = smoke_workspace
    image_path = data / "test" / "img001.ppm"
    config = tmp_path / "walk.cfg"
    config.write_text("solver.alpha = 0.9\n", encoding="utf-8")

    def infer(name, *flags):
        out = tmp_path / name
        assert main(["infer", *flags, "--checkpoint", str(ckpt),
                     "--image", str(image_path), "--out-labels", str(out),
                     "--out-probs", str(out) + ".probs", "--radius", "5"]) == 0
        return out.read_bytes(), Path(str(out) + ".probs").read_bytes()

    model, image = load_checkpoint(ckpt), pnm.read_ppm(image_path)

    def expected(alpha):
        labels, scores = predict(model, image, steps="converge", radius=5,
                                 solver_cfg=SolverConfig(alpha=alpha))
        return labels, softmax(scores).astype("<f8").tobytes()

    flag = infer("flag.pgm", "--alpha", "0.9")
    labels, probs = expected(0.9)
    np.testing.assert_array_equal(pnm.read_pgm(tmp_path / "flag.pgm"), labels)
    assert flag[1] == probs
    assert infer("file.pgm", "--config", str(config)) == flag
    both = infer("both.pgm", "--config", str(config), "--alpha", "0.5")
    labels, probs = expected(0.5)
    np.testing.assert_array_equal(pnm.read_pgm(tmp_path / "both.pgm"), labels)
    assert both[1] == probs != flag[1]


def test_infer_affinity_dump(smoke_workspace, tmp_path):
    root, data, ckpt, _, overrides = smoke_workspace
    prefix = str(tmp_path / "edges")
    image_path = data / "test" / "img000.ppm"
    assert main(["infer", *overrides, "--checkpoint", str(ckpt),
                 "--image", str(image_path),
                 "--out-labels", str(tmp_path / "p.pgm"),
                 "--radius", "2", "--dump-affinity", prefix]) == 0
    w_lines = Path(prefix + ".W.txt").read_text().splitlines()
    a_lines = Path(prefix + ".A.txt").read_text().splitlines()
    assert len(w_lines) == len(a_lines) > 0
    i, j, value = w_lines[0].split()
    assert float(value) > 0
    # W matches the gather reference, A the model's transition matrix
    dumped_w = np.loadtxt(prefix + ".W.txt", ndmin=2)
    dumped_a = np.loadtxt(prefix + ".A.txt", ndmin=2)
    model = load_checkpoint(ckpt)
    image = pnm.read_ppm(image_path)
    a = pipeline.model_transition(model, image, 2)
    # edges are listed by (i, j)
    order = np.lexsort((a.pattern.cols, a.pattern.rows))
    np.testing.assert_array_equal(dumped_w[:, 0], a.pattern.rows[order])
    np.testing.assert_array_equal(dumped_w[:, 1], a.pattern.cols[order])
    np.testing.assert_array_equal(dumped_a[:, :2], dumped_w[:, :2])
    stack = pipeline.prepare_stack(image, model.bank)
    reference = affinity_forward(channel_distances(stack, a.pattern),
                                 model.theta)
    np.testing.assert_allclose(dumped_w[:, 2], reference[order], rtol=1e-13,
                               atol=0)
    np.testing.assert_array_equal(dumped_a[:, 2], a.values[order])


def test_infer_builds_feature_stack_once(smoke_workspace, tmp_path,
                                         monkeypatch):
    """One feature stack and one W per request, an affinity dump included."""
    root, data, ckpt, _, overrides = smoke_workspace
    calls = []
    # each where `prepare_stack` and `predict` look it up
    for module, name in ((features, "extract_features"),
                         (pipeline, "learned_affinity")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, _name=name, _original=original:
                            calls.append(_name) or _original(*args))
    argv = ["infer", *overrides, "--checkpoint", str(ckpt),
            "--image", str(data / "test" / "img000.ppm"),
            "--out-labels", str(tmp_path / "p.pgm"), "--radius", "2"]
    assert main(argv) == 0
    assert sorted(calls) == ["extract_features", "learned_affinity"]
    calls.clear()
    assert main([*argv, "--dump-affinity", str(tmp_path / "edges")]) == 0
    assert sorted(calls) == ["extract_features", "learned_affinity"]
    assert (tmp_path / "edges.W.txt").exists()


def test_eval_perfect_predictions(smoke_workspace, tmp_path):
    root, data, _, _, overrides = smoke_workspace
    gt_dir = tmp_path / "gt"
    gt_dir.mkdir()
    for lab in (data / "test").glob("lab*.pgm"):
        (gt_dir / lab.name).write_bytes(lab.read_bytes())
    out_csv = tmp_path / "metrics.csv"
    trimap_csv = tmp_path / "trimap.csv"
    pr_csv = tmp_path / "pr.csv"
    assert main(["eval", "--pred-dir", str(gt_dir), "--gt-dir", str(gt_dir),
                 "--out-csv", str(out_csv), "--trimap-csv", str(trimap_csv),
                 "--pr-csv", str(pr_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "image,mean_iou,overall_iou,mf,ap"
    for line in lines[1:]:
        name, miou, oiou, mf, ap = line.split(",")
        assert float(miou) == 1.0 and float(oiou) == 1.0
        assert float(mf) == 1.0 and float(ap) == 1.0
    trimap = trimap_csv.read_text().splitlines()
    assert trimap[0] == "width,error"
    assert all(float(line.split(",")[1]) == 0.0 for line in trimap[1:])
    assert pr_csv.read_text().splitlines()[0] == "threshold,precision,recall"


def test_eval_pools_trimap_counts_over_maps(tmp_path):
    """The pooled trimap rate is summed wrong pixels over summed band
    pixels, not the mean of the per-map rates."""
    gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    # a: 4x6, boundary between columns 2 and 3; bands of 8, 16, 24 pixels;
    # one wrong pixel, on the boundary
    gt_a = np.zeros((4, 6), dtype=np.int64)
    gt_a[:, 3:] = 1
    pred_a = gt_a.copy()
    pred_a[0, 3] = 0
    # b: 5x6, boundary between columns 0 and 1; bands of 10, 15, 20 pixels;
    # predicted all 0, so columns 1-5 are wrong: 5, 10, 15 inside the bands
    gt_b = np.zeros((5, 6), dtype=np.int64)
    gt_b[:, 1:] = 1
    pred_b = np.zeros_like(gt_b)
    for name, gt, pred in (("a.pgm", gt_a, pred_a), ("b.pgm", gt_b, pred_b)):
        pnm.write_pgm(gt_dir / name, gt)
        pnm.write_pgm(pred_dir / name, pred)
    trimap_csv = tmp_path / "trimap.csv"
    assert main(["eval", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                 "--out-csv", str(tmp_path / "m.csv"),
                 "--trimap-csv", str(trimap_csv),
                 "--set", "eval.trimap_max_width=3"]) == 0
    # 6/18, 11/31, 16/44; the per-map means would be 0.3125, 0.364583, 0.395833
    assert trimap_csv.read_text().splitlines() == [
        "width,error", "1,0.333333", "2,0.354839", "3,0.363636"]


def test_eval_missing_pair_lists_file(smoke_workspace, tmp_path, capsys):
    root, data, _, _, _ = smoke_workspace
    pred_dir = tmp_path / "preds"
    pred_dir.mkdir()
    code = main(["eval", "--pred-dir", str(pred_dir),
                 "--gt-dir", str(data / "test"),
                 "--out-csv", str(tmp_path / "m.csv")])
    assert code == 2
    assert "lab000.pgm" in capsys.readouterr().err


def test_eval_names_the_map_without_boundaries(tmp_path, capsys):
    """A uniform ground-truth map among normal ones: exit 2, the message
    names that map, and no CSV is written."""
    two_region = np.zeros((6, 6), dtype=np.int64)
    two_region[:, 3:] = 1
    for name, gt in (("a.pgm", two_region), ("b.pgm", np.ones((6, 6), np.int64)),
                     ("c.pgm", two_region)):
        pnm.write_pgm(tmp_path / name, gt)
    out_csv = tmp_path / "m.csv"
    code = main(["eval", "--pred-dir", str(tmp_path), "--gt-dir", str(tmp_path),
                 "--out-csv", str(out_csv)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "b.pgm: ground truth has no boundary pixels" in err
    assert "a.pgm" not in err and "c.pgm" not in err
    assert not out_csv.exists()


@pytest.mark.parametrize("override", [
    "eval.thresholds=0", "eval.thresholds=-3",
    "eval.boundary_tolerance=-1", "eval.boundary_tolerance=nan",
    "eval.boundary_tolerance=inf"])
def test_eval_rejects_bad_boundary_settings(override, tmp_path, capsys):
    """Thresholds below 1 and a negative or non-finite boundary tolerance
    are data errors: exit 2, one line, no traceback."""
    gt = np.zeros((6, 6), dtype=np.int64)
    gt[:, 3:] = 1
    pnm.write_pgm(tmp_path / "a.pgm", gt)
    code = main(["eval", "--pred-dir", str(tmp_path), "--gt-dir", str(tmp_path),
                 "--out-csv", str(tmp_path / "m.csv"), "--set", override])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_ablate_steps_csv(smoke_workspace, tmp_path):
    root, data, _, _, _ = smoke_workspace
    out = tmp_path / "steps.csv"
    assert main(["ablate", "--manifest", str(data / "test.txt"),
                 "--sweep", "steps", "--steps", "0,1,converge",
                 "--radius", "3", "--out-csv", str(out),
                 "--set", "scene.num_classes=4"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "steps,mean_iou"
    assert lines[1].startswith("0,") and lines[3].startswith("converge,")
    assert float(lines[3].split(",")[1]) >= float(lines[1].split(",")[1])


def test_ablate_radius_csv(smoke_workspace, tmp_path):
    root, data, _, _, _ = smoke_workspace
    out = tmp_path / "radius.csv"
    assert main(["ablate", "--manifest", str(data / "test.txt"),
                 "--sweep", "radius", "--radii", "2,3",
                 "--out-csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "radius,mean_iou"
    assert len(lines) == 3


def test_bench_csv_header_and_timings(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--sizes", "8x8,12x12", "--radius", "2",
                 "--repeats", "3", "--out-csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n_pixels,radius,nnz,step_ms,solve_ms,dense_ms,iters"
    for line in lines[1:]:
        n_pixels, radius, nnz, step_ms, solve_ms, dense_ms, iters = line.split(",")
        assert float(step_ms) > 0 and float(solve_ms) > 0 and float(dense_ms) > 0


@pytest.mark.parametrize("argv", [
    ["bench", "--sizes", "3xq"],
    ["bench", "--sizes", "3x4x5"],
    ["ablate", "--sweep", "radius", "--radii", "3,x"],
    ["ablate", "--sweep", "steps", "--steps", "0,x"],
    ["ablate", "--sweep", "steps", "--steps", "0,-1"],
    ["ablate", "--sweep", "radius", "--radii", "3,0"],
    ["ablate", "--sweep", "steps", "--radius", "0"],
    ["bench", "--sizes", "4x4", "--radius", "1", "--repeats", "0"],
    ["bench", "--sizes", "4x4", "--radius", "-1"],
    ["infer", "--radius", "0"],
    ["infer", "--alpha", "1.5"],
    ["infer", "--alpha", "nan"],
    ["infer", "--alpha", "-0.1"],
    ["eval", "--classes", "1"],
    ["infer", "--steps", "-1"],
    ["infer", "--steps", "x"],
    ["bench", "--sizes", "4x"],
    ["ablate", "--sweep", "radius", "--steps", "x"],
    ["infer", "--radius", "x"],
    ["bench", "--sizes", "4x4", "--radius", "1", "--repeats", "x"],
    ["infer", "--alpha", "x"],
    ["bench", "--sizes", "3"],
])
def test_malformed_list_flag_is_a_usage_error(smoke_workspace, argv, capsys,
                                              tmp_path):
    _, data, ckpt, _, _ = smoke_workspace
    if argv[0] == "ablate":
        argv = [*argv, "--manifest", str(data / "test.txt")]
    if argv[0] == "infer":
        argv = [*argv, "--checkpoint", str(ckpt),
                "--image", str(data / "test" / "img000.ppm"),
                "--out-labels", str(tmp_path / "out.pgm")]
    if argv[0] == "eval":
        # the 4-class test labels scored against themselves
        argv = [*argv, "--pred-dir", str(data / "test"),
                "--gt-dir", str(data / "test"),
                "--out-csv", str(tmp_path / "m.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    if argv[0] in ("infer", "eval"):
        assert argv[1] in err  # the message names the flag
    assert "Traceback" not in err
    # the message says what the flag takes, not which function parsed it
    for leak in ("invalid _", "unpack", "literal"):
        assert leak not in err


def test_paper_preset_run_header(tmp_path, monkeypatch):
    """The reference-recipe preset must land verbatim in the loss log
    header. The header is written from the config, so the real `train`
    runs only 2 of the preset's 2000 iterations, on the same config."""
    real_train = cli.train

    def two_iterations(dataset, cfg, *args, **kwargs):
        return real_train(dataset, dataclasses.replace(cfg, iterations=2),
                          *args, **kwargs)

    monkeypatch.setattr(cli, "train", two_iterations)
    rng = np.random.default_rng(5)
    data = tmp_path / "tiny"
    data.mkdir()
    lines = []
    for s in range(2):
        labels = np.zeros((6, 6), dtype=np.int64)
        labels[1:4, 2 + s:5] = 1
        image = np.clip(0.2 + 0.6 * labels[..., None]
                        + rng.normal(0, 0.02, (6, 6, 3)), 0, 1)
        pnm.write_ppm(data / f"img{s}.ppm", image)
        pnm.write_pgm(data / f"lab{s}.pgm", labels)
        lines.append(f"img{s}.ppm lab{s}.pgm")
    manifest = data / "manifest.txt"
    manifest.write_text("".join(line + "\n" for line in lines))
    losses = tmp_path / "losses.csv"
    code = main(["train", "--preset", "paper",
                 "--set", "bank.f1=2", "--set", "bank.f2=2",
                 "--set", "scene.num_classes=2",
                 "--manifest", str(manifest),
                 "--out-checkpoint", str(tmp_path / "paper.ckpt"),
                 "--loss-csv", str(losses)])
    assert code == 0
    header = [line for line in losses.read_text().splitlines()
              if line.startswith("#")]
    expected = {
        "# train.learning_rate = 1e-05",
        "# train.momentum = 0.9",
        "# train.weight_decay = 5e-05",
        "# train.batch_size = 15",
        "# train.iterations = 2000",
        "# train.train_radius = 40",
        "# train.alpha = 0.01",
    }
    assert expected.issubset(set(header))
    rows = losses.read_text().splitlines()[len(header):]
    assert rows[0] == "iter,seg_loss,aff_loss"
    assert [row.split(",")[0] for row in rows[1:]] == ["1", "2"]


def test_module_entry_point_exit_code(tmp_path):
    """`python -m walkseg` runs the command-line front end from the
    source tree; a missing required flag is a usage error."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-m", "walkseg", "infer",
         "--image", str(tmp_path / "in.ppm"),
         "--out-labels", str(tmp_path / "out.pgm")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 1
    assert result.stderr.startswith("usage error:")
    assert "--checkpoint" in result.stderr
