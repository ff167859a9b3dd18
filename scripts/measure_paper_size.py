#!/usr/bin/env python3
"""Stage times and peak memory of walkseg at the paper's image size.

Four cases run on one synthetic scene, `SceneSpec(H, W, seed=3)` at
radius 5, each in a fresh Python process that prints one JSON line:

  labels  `walkseg infer` at alpha 0.01, labels only
  probs   the same request with `--out-probs`
  alpha   `walkseg infer --alpha A` (learned affinities, A = --alpha)
  oracle  ground-truth affinities and corrupted one-hot scores (corruption
          seed 7), solved at alpha A

A line holds each stage's wall time in seconds (features, pattern,
affinities, transition, solve), the whole case's, `ru_maxrss` in MB and
the SHA-256 of the label map. Where conjugate gradients run it also holds
their report (products with S, iterations, restarts, tiles) and the
coarse space's set-up time, which the solve time includes. Without
`--checkpoint`, a 131-channel checkpoint is trained first by the brief
recipe of perfbench's `infer` workload, at seed 11.

    PYTHONPATH=src python scripts/measure_paper_size.py [--size 375x500]
        [--checkpoint FILE] [--alpha 0.99] [--index 0]
        [--cases labels,probs,alpha,oracle]
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from walkseg import cli, features, pipeline, pnm, solver, synth, training

CASES = ("labels", "probs", "alpha", "oracle")
RADIUS = 5
SCENE_SEED = 3
CORRUPTION_SEED = 7
# perfbench's CHECKPOINT_RECIPE and its training scenes, at seed 11
RECIPE = dict(learning_rate=0.1, batch_size=1, iterations=30, train_radius=2,
              aff_loss_weight=1e-4)
TRAIN_SCENES = (synth.SceneSpec(24, 24, seed=11), 12, 64)
STAGES = {"prepare_stack": "features", "unary_forward": "features",
          "build_sparsity": "pattern", "learned_affinity": "affinities",
          "oracle_affinity": "affinities", "transition": "transition",
          "solve": "solve"}


def size(text):
    height, width = (int(part) for part in text.lower().split("x"))
    if height < 1 or width < 1:
        raise ValueError(text)
    return height, width


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=size, default=(375, 500),
                        help="image size HxW (default 375x500)")
    parser.add_argument("--checkpoint", help="a trained model checkpoint")
    parser.add_argument("--alpha", type=float, default=0.99,
                        help="alpha of the `alpha` and `oracle` cases")
    parser.add_argument("--index", type=int, default=0,
                        help="the scene's index in its seeded sequence")
    parser.add_argument("--cases", default=",".join(CASES),
                        help="comma-separated subset of " + ",".join(CASES))
    parser.add_argument("--case", choices=CASES, help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.cases = args.cases.split(",")
    if not set(args.cases) <= set(CASES):
        parser.error(f"--cases takes a subset of {','.join(CASES)}")
    return args


def instrument():
    """Time each pipeline stage and keep conjugate gradients' reports.
    Returns the dict the wrappers fill."""
    found = {"stages_s": {stage: 0.0 for stage in STAGES.values()}}

    def timed(fn, add):
        def wrapper(*args, **kwargs):
            begin = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                add(time.perf_counter() - begin)
        return wrapper

    for name, stage in STAGES.items():
        def add(seconds, stage=stage):
            found["stages_s"][stage] += seconds
        setattr(pipeline, name, timed(getattr(pipeline, name), add))
    cg, tiles = solver._symmetric_cg, solver._tile_space

    def symmetric_cg(*args):
        y, report = cg(*args)
        found.setdefault("cg", {}).update(report)
        return y, report
    solver._symmetric_cg = symmetric_cg
    solver._tile_space = timed(tiles, lambda seconds: found.setdefault(
        "cg", {}).update(coarse_setup_s=seconds))
    return found


def run_case(args):
    work = Path(args.work)
    found = instrument()
    alpha = 0.01 if args.case in ("labels", "probs") else args.alpha
    begin = time.perf_counter()
    if args.case == "oracle":
        labels = pnm.read_pgm(work / "labels.pgm")
        damaged, _ = pipeline.oracle_scene(
            labels, pipeline.CorruptionConfig(seed=CORRUPTION_SEED))
        a = pipeline.oracle_transition(labels, RADIUS)
        y = pipeline.diffuse(a, damaged, "converge",
                             solver.SolverConfig(alpha=alpha))
        labels = pipeline.argmax_labels(y, labels.shape)
    else:
        argv = ["infer", "--checkpoint", args.checkpoint,
                "--image", str(work / "image.ppm"),
                "--out-labels", str(work / "out.pgm"),
                "--radius", str(RADIUS), "--alpha", repr(alpha)]
        if args.case == "probs":
            argv += ["--out-probs", str(work / "out.probs")]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"walkseg {' '.join(argv)} failed")
        labels = pnm.read_pgm(work / "out.pgm")
    total = time.perf_counter() - begin
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"case": args.case, "size": "x".join(map(str, args.size)),
            "index": args.index, "radius": RADIUS, "alpha": alpha,
            "total_s": total, **found, "ru_maxrss_mb": rss,
            "labels_sha256": hashlib.sha256(
                np.ascontiguousarray(labels, dtype=np.int64)).hexdigest()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.case:
        print(json.dumps(run_case(args)), flush=True)
        return 0
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        height, width = args.size
        (image, labels), = synth.generate(
            synth.SceneSpec(height, width, seed=SCENE_SEED), 1,
            start_index=args.index)
        pnm.write_ppm(work / "image.ppm", image)
        pnm.write_pgm(work / "labels.pgm", labels)
        checkpoint = args.checkpoint
        if checkpoint is None and set(args.cases) - {"oracle"}:
            spec, count, start = TRAIN_SCENES
            ckpt, _ = training.train(
                synth.generate(spec, count, start_index=start),
                training.TrainConfig(**RECIPE), features.FilterBankConfig(),
                spec.num_classes)
            checkpoint = str(work / "model.ckpt")
            training.save_checkpoint(checkpoint, ckpt)
        for case in args.cases:
            command = [sys.executable, __file__, "--case", case,
                       "--work", str(work), "--size", f"{height}x{width}",
                       "--alpha", repr(args.alpha), "--index", str(args.index)]
            if checkpoint:
                command += ["--checkpoint", str(checkpoint)]
            line = subprocess.run(command, check=True, stdout=subprocess.PIPE,
                                  text=True).stdout
            print(line, end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
