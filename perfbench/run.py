#!/usr/bin/env python3
"""End-to-end benchmark of walkseg: inference, paper-recipe training and
large-alpha oracle scoring.

    python3 perfbench/run.py --workload {infer,train,oracle,all}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; walkseg is imported from its `src/`.
Each workload runs in one process as a closed loop with one client: an
item starts only after the previous one has finished. The run sets up
SETUP_REPEATS times, runs one untimed warm-up item, then times items for
`--seconds` (and at least MIN_TIMED items), and checks every output.
Bounded times are scaled by a host probe taken between items, which
removes the shared host's speed drift (see HostGauge).

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json; with `--trace 1` it holds the
per-layer metrics instead, from items run with span-recording wrappers
around walkseg's functions (see tracer.py). Lines before it give every
metric with its unit and the environment. `--workload all` runs the
three workloads one after another, each in its own process.
"""

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from tracer import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("infer", "train", "oracle")
SETUP_REPEATS = 5
MIN_TIMED = 20      # keeps the tail percentile at p50 or above
COUNT_WINDOW = 4    # per-item counts come from the first traced items
TAIL_BEYOND = 10    # samples required above the tail percentile

# per-layer self times; the span is the metric name without its last part
LAYER_TIMES = (
    "features.extract_features.ms", "features.per_channel_normalize.ms",
    "graph.build_sparsity.ms", "graph.channel_distances.ms",
    "graph.affinity_forward.ms", "graph.affinity_backward.ms",
    "graph.transition.ms", "graph.transition_backward.ms",
    "graph.ground_truth_affinity.ms",
    "walk.rw_step.ms", "walk.rw_backward_f.ms", "walk.rw_backward_a.ms",
    "training.train_step.self_ms", "training.sample_losses_grads.self_ms",
    "training.softmax_loss_grad.ms", "training.load_checkpoint.ms",
    "metrics.boundary_pr.self_ms", "metrics.greedy_match_boundaries.ms",
    "metrics.trimap_error.ms", "metrics.extract_boundary_strength.ms",
    "metrics.mean_iou.ms",
    "synth.corrupt_unaries.ms", "synth.oracle_affinity.ms",
    "pipeline.predict.self_ms", "pipeline.oracle_transition.self_ms",
    "pipeline.diffuse.self_ms", "cli.main.self_ms",
    "pnm.read_ppm.ms", "pnm.write_pgm.ms",
)
LAYER_CALLS = ("features.extract_features", "graph.build_sparsity",
               "walk.rw_step", "metrics.greedy_match_boundaries")
# output quality, printed with the end-to-end metrics: (unit, better)
QUALITY = {"mean_iou": ("ratio", "higher"), "seg_loss": ("nats", "lower")}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def median(values):
    return float(statistics.median(values))


def tail(samples):
    """The highest nearest-rank percentile with TAIL_BEYOND samples above
    it: (value, percentile)."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def blas_threads():
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs", "libscipy_openblas*.so")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


class HostGauge:
    """Gauges how fast the shared host runs at the moment.

    A probe times two fixed pieces of work, a pure-Python loop and a
    memory-bound numpy gather, the two kinds of work walkseg's items mix,
    and takes the geometric mean of the two times. The host's speed
    drifts by a quarter or more within minutes, and item times drift
    with it. Scaling a measured time by REFERENCE_MS / probe, with probes
    taken just before and just after it, removes most of that drift: the
    result is the time the work would take on a host whose probe reads
    REFERENCE_MS.
    """

    REFERENCE_MS = 5.0
    SIZE = 400_000

    def __init__(self):
        rng = np.random.default_rng(0)
        self._values = rng.random(self.SIZE)
        self._order = rng.permutation(self.SIZE)
        self._scratch = np.empty(self.SIZE)
        self.readings = []

    def probe(self) -> float:
        begin = time.perf_counter()
        total = 0
        for k in range(50_000):
            total += k * k
        middle = time.perf_counter()
        for _ in range(2):
            np.take(self._values, self._order, out=self._scratch)
            np.subtract(self._scratch, self._values, out=self._scratch)
            np.abs(self._scratch, out=self._scratch)
            self._scratch.sum()
        end = time.perf_counter()
        reading = math.sqrt((middle - begin) * (end - middle)) * 1e3
        self.readings.append(reading)
        return reading

    def scale(self, seconds, before, after):
        """`seconds` as measured between the probes `before` and `after`,
        restated at the reference host speed."""
        return seconds * self.REFERENCE_MS / ((before + after) / 2.0)


def environment(args, items, tail_percentile):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "items": items,
        "tail_percentile": tail_percentile,
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


class Run:
    """One workload's set-up, warm-up, timed loop and checks."""

    def __init__(self, args, workload_cls, work: Path):
        self.args = args
        self.cls = workload_cls
        self.work = work
        self.gauge = HostGauge()
        self.attempted = self.failed = 0
        self.quality = {}

    def _attempt(self, workload, i, call):
        """Run one item through `call`, then check it outside the timing.

        Returns the call's wall seconds, or None if the item failed.
        """
        self.attempted += 1
        try:
            begin = time.perf_counter()
            result = call()
            wall = time.perf_counter() - begin
            ok, quality = workload.check(i, result)
        except Exception:  # an item that raises is a failed item
            traceback.print_exc(file=sys.stderr)
            ok, quality = False, {}
        if not ok:
            self.failed += 1
            return None
        for key, value in quality.items():
            self.quality.setdefault(key, []).append(float(value))
        return wall

    def _setup(self, tracer):
        """Set up SETUP_REPEATS times; keep the last workload.

        Returns (workload, [(wall, host-scaled) seconds], traced profiles).
        """
        times, profiles = [], []
        before = self.gauge.probe()
        for repeat in range(SETUP_REPEATS):
            shutil.rmtree(self.work, ignore_errors=True)
            self.work.mkdir(parents=True)
            build = lambda: self.cls(self.args.seed, self.work)
            if tracer is None:
                begin = time.perf_counter()
                workload = build()
                wall = time.perf_counter() - begin
                after = self.gauge.probe()
                times.append((wall, self.gauge.scale(wall, before, after)))
                before = after
            else:
                workload, spans, wall = tracer.trace(build, f"setup{repeat}")
                profiles.append(summarize(spans, wall))
        return workload, times, profiles

    def execute(self):
        tracer = Tracer() if self.args.trace else None
        workload, setup_times, setup_profiles = self._setup(tracer)
        # warm-up: lazy set-up and allocator growth finish before timing
        with contextlib.redirect_stdout(io.StringIO()):
            self._attempt(workload, 0, lambda: workload.item(0))
            if tracer is None:
                timed = self._timed_loop(workload)
            else:
                timed = self._traced_loop(workload, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            checked, notes = workload.final_check()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            checked, notes = False, {}
        if not checked and self.failed == 0:
            self.failed += 1  # the once-per-run checks look at item 0
        notes["host_probe_ms"] = median(self.gauge.readings)
        notes["host_reference_ms"] = HostGauge.REFERENCE_MS
        return timed, setup_times, setup_profiles, peak_rss_mb, notes

    def _timed_loop(self, workload):
        """Returns [(wall, host-scaled) seconds] of the items that passed."""
        walls = []
        start = time.perf_counter()
        before = self.gauge.probe()
        i = 1
        while time.perf_counter() - start < self.args.seconds or i <= MIN_TIMED:
            wall = self._attempt(workload, i, lambda: workload.item(i))
            after = self.gauge.probe()
            if wall is not None:
                walls.append((wall, self.gauge.scale(wall, before, after)))
            before = after
            i += 1
        return walls

    def _traced_loop(self, workload, tracer):
        """Run each item twice, traced and plain, alternating which goes
        first, so the two medians see the same inputs."""
        plain, profiles = [], []
        start = time.perf_counter()
        self.gauge.probe()
        i = 1
        while (time.perf_counter() - start < self.args.seconds
               or i <= COUNT_WINDOW):
            for traced in ((True, False) if i % 2 else (False, True)):
                if traced:
                    record = {}

                    def call():
                        result, spans, wall = tracer.trace(
                            lambda: workload.item(i), i)
                        record["profile"] = summarize(spans, wall)
                        return result

                    if self._attempt(workload, i, call) is not None:
                        profiles.append(record["profile"])
                else:
                    wall = self._attempt(workload, i, lambda: workload.item(i))
                    if wall is not None:
                        plain.append(wall)
            i += 1
        self.gauge.probe()
        return plain, profiles


def end_to_end(walls, setup_times, peak_rss_mb):
    """End-to-end metrics from [(wall, host-scaled)] item and set-up times.

    The bounded timings use the host-scaled times; the raw wall-clock
    median and set-up time are returned beside them, for reading.
    """
    scaled = [s for _, s in walls]
    tail_value, tail_percentile = tail(scaled)
    return {
        "latency_p50_ms": median(scaled) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "throughput_items_s": len(scaled) / sum(scaled),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": median([s for _, s in setup_times]),
    }, {
        "wall_latency_p50_ms": median([w for w, _ in walls]) * 1e3,
        "wall_setup_s": median([w for w, _ in setup_times]),
        "tail_percentile": tail_percentile,
    }


def per_layer(plain, profiles, setup_profiles):
    window = profiles[:COUNT_WINDOW]

    def over_items(get, items=profiles):
        return median([get(p) for p in items])

    def ratio(span):
        calls = sum(p["calls"].get(span, 0) for p in window)
        distinct = sum(p["distinct_inputs"].get(span, 0) for p in window)
        return distinct / calls if calls else 0.0

    out = {}
    for metric in LAYER_TIMES:
        span = metric.rsplit(".", 1)[0]
        out[metric] = over_items(lambda p: p["self_ms"].get(span, 0.0))
    # the loop and its convergence test: every solver function's self time
    out["solver.solve.self_ms"] = over_items(lambda p: sum(
        ms for name, ms in p["self_ms"].items() if name.startswith("solver.")))
    out["synth.generate.ms"] = over_items(
        lambda p: p["self_ms"].get("synth.generate", 0.0), setup_profiles)
    for span in LAYER_CALLS:
        out[f"{span}.calls"] = over_items(
            lambda p: p["calls"].get(span, 0), window)
    out["solver.iterations"] = over_items(lambda p: p["solver_steps"], window)
    out["graph.edges"] = over_items(
        lambda p: p["extra"].get("graph.transition.edges", 0), window)
    out["graph.channel_distances.bytes"] = over_items(
        lambda p: p["extra"].get("graph.channel_distances.bytes", 0), window)
    out["graph.channel_distances.peak_mb"] = over_items(
        lambda p: p["peak_bytes"].get("graph.channel_distances", 0) / 2 ** 20)
    out["features.useful_ratio"] = ratio("features.extract_features")
    out["metrics.match_useful_ratio"] = ratio("metrics.greedy_match_boundaries")
    out["trace.coverage"] = over_items(lambda p: p["covered_ms"] / p["wall_ms"])
    traced_ms = over_items(lambda p: p["wall_ms"])
    out["trace.overhead_pct"] = 100.0 * (traced_ms / (median(plain) * 1e3) - 1.0)
    return out


def span_self_times(profiles):
    """Median self time per item of every span name, largest first."""
    names = {name for p in profiles for name in p["self_ms"]}
    times = {name: median([p["self_ms"].get(name, 0.0) for p in profiles])
             for name in names}
    return sorted(times.items(), key=lambda entry: -entry[1])


def run_one(args, spec, workload_cls):
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        run = Run(args, workload_cls, work)
        timed, setup_times, setup_profiles, peak_rss_mb, notes = run.execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    if args.trace:
        plain, profiles = timed
        values = per_layer(plain, profiles, setup_profiles)
        declared = spec["per_layer"]
        env = environment(args, len(profiles), None)
        for name, ms in span_self_times(profiles):
            print(f"span {name} {ms!r} ms self")
    else:
        values, raw = end_to_end(timed, setup_times, peak_rss_mb)
        declared = spec["end_to_end"]
        env = environment(args, len(timed), raw.pop("tail_percentile"))
        env.update(raw)
    env.update(notes)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"error_rate {run.failed / run.attempted!r} ratio "
          f"({run.failed} of {run.attempted} items)")
    for key, samples in sorted(run.quality.items()):
        unit, better = QUALITY[key]
        print(f"{key} {statistics.fmean(samples)!r} {unit} ({better} is "
              f"better; mean of {len(samples)} items)")
    metrics = {}
    for entry in declared:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']} {value!r} {entry['unit']} "
              f"({entry['better']} is better)")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], check=False)
        status = status or child.returncode
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "walkseg" / "__init__.py").is_file():
        print(f"error: no walkseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    return run_one(args, spec, WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
