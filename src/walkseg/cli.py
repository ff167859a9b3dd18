"""Command-line front end.

Subcommands: generate, train, infer, eval, ablate, bench. Exit codes:
0 success, 1 usage error, 2 data/format error, 3 numerical failure.
All binary outputs (PPM/PGM rasters, probability dumps, checkpoints) are
little-endian.
"""

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import metrics, pnm, synth
from .errors import (ConvergenceError, DataFormatError, DivergenceError,
                     InvalidInputError)
from .pipeline import (argmax_labels, diffuse, oracle_scene,
                       oracle_transition, predict)
from .solver import bench_step_vs_solve
from .training import load_checkpoint, save_checkpoint, softmax, train


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_cfg(args) -> cfgmod.Config:
    cfg = cfgmod.Config()
    if getattr(args, "config", None):
        cfgmod.load_config(args.config, cfg)
    if getattr(args, "preset", None):
        cfgmod.apply_preset(cfg, args.preset)
    cfgmod.apply_overrides(cfg, getattr(args, "set", None) or [])
    return cfg


def _read_manifest(path):
    """Manifest lines are "image.ppm labels.pgm", relative to the manifest."""
    base = Path(path).parent
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DataFormatError(
                    f"{path}:{lineno}: expected 'image labels'")
            pairs.append((base / parts[0], base / parts[1]))
    for img, lab in pairs:
        for member in (img, lab):
            if not member.exists():
                raise DataFormatError(f"manifest entry missing on disk: {member}")
    return pairs


def _load_dataset(manifest_path):
    return [(pnm.read_ppm(img), pnm.read_pgm(lab))
            for img, lab in _read_manifest(manifest_path)]


def cmd_generate(args) -> int:
    cfg = _load_cfg(args)
    out = Path(args.out_dir)
    counts = {"train": cfg.generate.train_count, "test": cfg.generate.test_count}
    if min(counts.values()) < 0:
        raise InvalidInputError(f"scene counts must be >= 0, got {counts}")
    start = 0
    for split, count in counts.items():
        scenes = synth.generate(cfg.scene, count, start_index=start)
        split_dir = out / split
        split_dir.mkdir(parents=True, exist_ok=True)
        start += count
        lines = []
        for i, (image, labels) in enumerate(scenes):
            img_name = f"img{i:03d}.ppm"
            lab_name = f"lab{i:03d}.pgm"
            pnm.write_ppm(split_dir / img_name, image)
            pnm.write_pgm(split_dir / lab_name, labels)
            lines.append(f"{split}/{img_name} {split}/{lab_name}")
        manifest = out / f"{split}.txt"
        manifest.write_text("".join(line + "\n" for line in lines),
                            encoding="utf-8")
        print(f"wrote {count} {split} pairs under {split_dir} "
              f"(manifest {manifest})")
    return 0


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    dataset = _load_dataset(args.manifest)
    checkpoint, history = train(dataset, cfg.train, cfg.bank,
                                num_classes=cfg.scene.num_classes)
    save_checkpoint(args.out_checkpoint, checkpoint)
    loss_csv = args.loss_csv or str(Path(args.out_checkpoint).with_suffix(".loss.csv"))
    with open(loss_csv, "w", encoding="utf-8") as fh:
        for line in cfgmod.serialize_config(cfg).splitlines():
            fh.write(f"# {line}\n")
        fh.write("iter,seg_loss,aff_loss\n")
        for iteration, seg, aff in history:
            fh.write(f"{iteration},{seg!r},{aff!r}\n")
    print(f"trained {cfg.train.iterations} iterations; "
          f"checkpoint {args.out_checkpoint}, loss log {loss_csv}")
    return 0


def _positive_int(text: str) -> int:
    """argparse type of --radius and --repeats: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _alpha(text: str) -> float:
    """argparse type of --alpha: a finite number in [0, 1)."""
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1), got {value}")
    return value


def _parse_int(flag: str, text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise UsageError(f"{flag} takes integers: {exc}")


def _parse_steps(text: str):
    if text == "converge":
        return text
    try:
        steps = int(text)
    except ValueError as exc:
        raise UsageError(f"--steps takes an integer or 'converge': {exc}")
    if steps < 0:
        raise UsageError("--steps must be >= 0")
    return steps


def cmd_infer(args) -> int:
    cfg = _load_cfg(args)
    ckpt = load_checkpoint(args.checkpoint)
    image = pnm.read_ppm(args.image)
    alpha = args.alpha if args.alpha is not None else cfg.solver.alpha
    solver_cfg = dataclasses.replace(cfg.solver, alpha=alpha)
    radius = args.radius if args.radius is not None else cfg.infer.radius
    steps = _parse_steps(args.steps)
    labels, scores = predict(ckpt, image, steps=steps, radius=radius,
                             solver_cfg=solver_cfg,
                             dump_prefix=args.dump_affinity)
    pnm.write_pgm(args.out_labels, labels)
    if args.out_probs:
        with open(args.out_probs, "wb") as fh:
            fh.write(softmax(scores).astype("<f8").tobytes())
        sidecar = Path(args.out_probs).with_suffix(
            Path(args.out_probs).suffix + ".txt")
        sidecar.write_text(
            f"{image.shape[0]} {image.shape[1]} {ckpt.num_classes}\n",
            encoding="utf-8")
    print(f"wrote {args.out_labels}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    gt_dir, pred_dir = Path(args.gt_dir), Path(args.pred_dir)
    gt_files = sorted(gt_dir.glob("*.pgm"))
    if not gt_files:
        raise DataFormatError(f"no .pgm label maps under {gt_dir}")
    pairs = []
    for gt_path in gt_files:
        pred_path = pred_dir / gt_path.name
        if not pred_path.exists():
            raise DataFormatError(f"missing prediction for {gt_path.name}: "
                                  f"{pred_path}")
        pairs.append((pred_path, gt_path))

    maps = [(pnm.read_pgm(p), pnm.read_pgm(g)) for p, g in pairs]
    needed = 1 + max(max(int(p.max()), int(g.max())) for p, g in maps)
    num_classes = needed if args.classes is None else args.classes
    if num_classes < needed:
        raise UsageError(f"--classes must be at least 1 + the largest label, "
                         f"{needed}, got {num_classes}")

    widths = range(1, cfg.eval.trimap_max_width + 1)
    rows = []
    band_hits = {w: [0, 0] for w in widths}
    pooled = {}
    for (pred_path, gt_path), (pred, gt) in zip(pairs, maps):
        strength = metrics.extract_boundary_strength(
            metrics.onehot_probabilities(pred, num_classes), pred.shape)
        try:
            mf, ap, curve = metrics.boundary_pr(
                strength, metrics.label_boundary_mask(gt),
                tolerance=cfg.eval.boundary_tolerance,
                thresholds=cfg.eval.thresholds)
        except InvalidInputError as exc:
            raise InvalidInputError(f"{gt_path}: {exc}") from exc
        rows.append((pred_path.name, metrics.mean_iou(pred, gt, num_classes),
                     metrics.overall_iou(pred, gt), mf, ap))
        for tau, precision, recall in curve:
            agg = pooled.setdefault(tau, [0.0, 0.0, 0])
            agg[0] += precision
            agg[1] += recall
            agg[2] += 1
        for w, wrong, total in metrics.trimap_counts(pred, gt, widths):
            band_hits[w][0] += wrong
            band_hits[w][1] += total

    with open(args.out_csv, "w", encoding="utf-8") as fh:
        fh.write("image,mean_iou,overall_iou,mf,ap\n")
        for name, miou, oiou, mf, ap in rows:
            fh.write(f"{name},{miou:.6f},{oiou:.6f},{mf:.6f},{ap:.6f}\n")
    if args.trimap_csv:
        with open(args.trimap_csv, "w", encoding="utf-8") as fh:
            fh.write("width,error\n")
            for w in widths:
                wrong, total = band_hits[w]
                rate = wrong / total if total else 0.0
                fh.write(f"{w},{rate:.6f}\n")
    if args.pr_csv:
        with open(args.pr_csv, "w", encoding="utf-8") as fh:
            fh.write("threshold,precision,recall\n")
            for tau in sorted(pooled, reverse=True):
                psum, rsum, count = pooled[tau]
                fh.write(f"{tau:.6f},{psum / count:.6f},{rsum / count:.6f}\n")
    mean_of_means = np.mean([row[1] for row in rows])
    print(f"evaluated {len(rows)} maps; mean IOU {mean_of_means:.4f} "
          f"-> {args.out_csv}")
    return 0


def _oracle_iou(dataset_labels, cfg, steps, radius):
    scores = []
    for labels in dataset_labels:
        damaged, _ = oracle_scene(labels, cfg.corrupt,
                                  num_classes=cfg.scene.num_classes)
        a = oracle_transition(labels, radius)
        y = diffuse(a, damaged, steps, cfg.solver)
        pred = argmax_labels(y, labels.shape)
        scores.append(metrics.mean_iou(pred, labels, cfg.scene.num_classes))
    return float(np.mean(scores))


def cmd_ablate(args) -> int:
    cfg = _load_cfg(args)
    labels_list = [pnm.read_pgm(lab) for _, lab in _read_manifest(args.manifest)]
    lines = []
    if args.sweep == "steps":
        radius = args.radius if args.radius is not None else cfg.infer.radius
        tokens = (args.steps or "0,1,2,4,8,16,converge").split(",")
        sweep = [(token, _parse_steps(token)) for token in tokens]
        lines.append("steps,mean_iou")
        for token, steps in sweep:
            iou = _oracle_iou(labels_list, cfg, steps, radius)
            lines.append(f"{token},{iou:.6f}")
    else:
        radii = [_parse_int("--radii", r)
                 for r in (args.radii or "3,5,10,20").split(",")]
        if min(radii) < 1:
            raise UsageError(f"--radii must be >= 1, got {min(radii)}")
        lines.append("radius,mean_iou")
        for radius in radii:
            iou = _oracle_iou(labels_list, cfg, "converge", radius)
            lines.append(f"{radius},{iou:.6f}")
    text = "".join(line + "\n" for line in lines)
    if args.out_csv:
        Path(args.out_csv).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def _parse_sizes(text: str):
    sizes = []
    for token in text.split(","):
        token = token.strip().lower()
        if token.count("x") != 1:
            raise UsageError(f"size {token!r} is not HxW")
        h, w = token.split("x")
        sizes.append((_parse_int("--sizes", h), _parse_int("--sizes", w)))
    return sizes


def cmd_bench(args) -> int:
    cfg = _load_cfg(args)
    sizes = _parse_sizes(args.sizes)
    radius = args.radius if args.radius is not None else cfg.infer.radius
    report = bench_step_vs_solve(sizes, radius, cfg.solver,
                                 repeats=args.repeats)
    text = report.to_csv()
    if args.out_csv:
        Path(args.out_csv).write_text(text, encoding="utf-8")
    print(text, end="")
    for row in report.rows:
        if np.isfinite(row.dense_ms) and row.step_ms > 0:
            print(f"# {row.n_pixels} px: dense/step ratio "
                  f"{row.dense_ms / row.step_ms:.1f}x")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="walkseg",
                     description="random-walk label diffusion pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="config file (section.key = value)")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override one config entry")
        p.add_argument("--preset", choices=sorted(cfgmod.PRESETS),
                       help="apply a named config preset")

    p = sub.add_parser("generate", help="write a synthetic dataset")
    common(p)
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train from a dataset manifest")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--loss-csv")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="label one image with a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out-labels", required=True)
    p.add_argument("--out-probs")
    p.add_argument("--steps", default="converge",
                   help="walk steps, or 'converge'")
    p.add_argument("--radius", type=_positive_int)
    p.add_argument("--alpha", type=_alpha)
    p.add_argument("--dump-affinity", metavar="PREFIX",
                   help="write W and A as 'i j value' text triplets")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    common(p)
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--gt-dir", required=True)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--trimap-csv")
    p.add_argument("--pr-csv")
    p.add_argument("--classes", type=int)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="sweep steps or radius on oracle affinities")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--sweep", choices=("steps", "radius"), required=True)
    p.add_argument("--steps", help="comma list for --sweep steps")
    p.add_argument("--radii", help="comma list for --sweep radius")
    p.add_argument("--radius", type=_positive_int,
                   help="fixed radius for --sweep steps")
    p.add_argument("--out-csv")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("bench", help="time sparse steps vs solves")
    common(p)
    p.add_argument("--sizes", default="32x32,64x64")
    p.add_argument("--radius", type=_positive_int)
    p.add_argument("--repeats", type=_positive_int, default=9)
    p.add_argument("--out-csv")
    p.set_defaults(func=cmd_bench)
    return parser


_parser = functools.cache(build_parser)  # parsing leaves it unchanged


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, DivergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
