"""Span tracer that times walkseg's layers from outside the program.

Every public function defined in a walkseg module is wrapped at each
module attribute that names it, which is where its callers look it up
(`walkseg.pipeline.channel_distances` and `walkseg.training.channel_distances`
share one wrapper). A wrapper records one span: the function's name, its
start and end, the span that was open when it was called, and the item
it ran for. The wrappers are installed only for the duration of a traced
call, so untraced items run the original functions.

Nothing under `src/` is edited. The cost is one Python call per traced
call, paid only by traced items.
"""

import functools
import hashlib
import importlib
import inspect
import pkgutil
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

# spans whose peak traced allocation is recorded (tracemalloc runs only
# for the duration of these calls, so other layers pay nothing for it)
MEMORY_SPANS = ("graph.channel_distances",)


def _digest(array) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(array).tobytes(),
                           digest_size=16).digest()


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


# counters recorded at a layer boundary, from the call's arguments and result
HOOKS = {
    # which image went in: distinct inputs / calls is the useful-work ratio
    "features.extract_features":
        lambda args, kwargs, result: {"input": _digest(_first(args, kwargs))},
    # which thresholded mask (its sorted boundary points) went in
    "metrics.greedy_match_boundaries":
        lambda args, kwargs, result: {"input": _digest(_first(args, kwargs))},
    "graph.channel_distances":
        lambda args, kwargs, result: {"bytes": int(result.nbytes)},
    "graph.transition":
        lambda args, kwargs, result: {"edges": int(result.pattern.num_edges)},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "extra")

    def __init__(self, name, parent, item):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.item = item
        self.extra = {}


class Tracer:
    """Installs span-recording wrappers around a package's public functions."""

    def __init__(self, package_name: str = "walkseg"):
        package = importlib.import_module(package_name)
        modules = [package] + [
            importlib.import_module(f"{package_name}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]
        wrappers = {}
        self._patches = []  # (module, attribute, original, wrapper)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(package_name + "."):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._patches.append((module, attr, obj, wrappers[obj]))
        self.spans = []
        self._open = []
        self._item = None

    def _wrap(self, fn):
        name = f"{fn.__module__.split('.', 1)[1]}.{fn.__qualname__}"
        hook = HOOKS.get(name)
        memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None,
                        self._item)
            self._open.append(len(self.spans))
            self.spans.append(span)
            if memory:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if memory:
                    span.extra["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._open.pop()
            if hook is not None:
                span.extra.update(hook(args, kwargs, result))
            return result

        return traced

    def trace(self, call, item):
        """Run call() with the wrappers installed.

        Returns (result, spans, wall seconds of the call).
        """
        self.spans, self._open, self._item = [], [], item
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            begin = time.perf_counter()
            result = call()
            wall = time.perf_counter() - begin
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
        return result, self.spans, wall


def _ancestors(spans, span):
    while span.parent is not None:
        span = spans[span.parent]
        yield span


def summarize(spans, wall: float) -> dict:
    """Per-item layer figures from the spans of one traced item.

    A span's self time is its duration minus the durations of its child
    spans (children of one span never overlap: the program runs one call
    at a time).
    """
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    self_ms = defaultdict(float)
    calls = Counter()
    inputs = defaultdict(set)
    extra = defaultdict(int)  # bytes add up over calls; edges is a size
    peak = defaultdict(int)
    solver_steps = 0
    for index, span in enumerate(spans):
        self_ms[span.name] += (span.end - span.start - child_time[index]) * 1e3
        calls[span.name] += 1
        if "input" in span.extra:
            inputs[span.name].add(span.extra["input"])
        if "bytes" in span.extra:
            extra[f"{span.name}.bytes"] += span.extra["bytes"]
        if "edges" in span.extra:
            extra[f"{span.name}.edges"] = max(extra[f"{span.name}.edges"],
                                              span.extra["edges"])
        if "peak_bytes" in span.extra:
            peak[span.name] = max(peak[span.name], span.extra["peak_bytes"])
        if span.name == "walk.rw_step" and any(
                a.name.startswith("solver.") for a in _ancestors(spans, span)):
            solver_steps += 1
    return {
        "self_ms": dict(self_ms),
        "calls": dict(calls),
        "distinct_inputs": {name: len(keys) for name, keys in inputs.items()},
        "extra": dict(extra),
        "peak_bytes": dict(peak),
        "solver_steps": solver_steps,
        "covered_ms": sum(self_ms.values()),
        "wall_ms": wall * 1e3,
    }
