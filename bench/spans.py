"""Outside-in span recorder for the fdrlink benchmark.

The recorder never edits the package. It replaces names in the namespace of
the module that *calls* them (``fdrlink.mc.sample_null_pvalues``,
``fdrlink.experiments.write_csv``, ...) with wrappers that record a span per
call: name, start, end and parent id. Spans stay in memory until the
benchmark ends. ``install`` returns a function that restores every original.

Layers are the package modules; a span is named ``<layer>.<function>``, where
the layer is the module that defines the function. Work that ``--workers``
moves into pool processes is not traced: it shows only as the parent's wait
inside the ``mc.pool`` span and as the children's CPU time.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from collections import Counter
from time import perf_counter

LAYERS = ("dependence", "procedures", "adversaries", "bounds", "mc", "experiments", "cli")

# Calls that each complete `cfg.reps` replications (verify_linking is not one:
# it issues an estimate_fdr and an estimate_fdr0_curve pass of its own).
ESTIMATES = ("estimate_fdr", "estimate_fdx", "estimate_fdp_moment",
             "estimate_fdr0_curve", "estimate_worst_fdr_limit")

# A module's own functions that are traced besides the names it imports from
# other layers: the estimate entry points (called by the benchmark, by
# verify_linking and by the presets) and the experiment runner and writers.
_OWN = {
    "fdrlink.mc": ESTIMATES + ("verify_linking", "derive_seed"),
    "fdrlink.experiments": ("run", "write_csv", "emit_series", "render_svg_line_chart"),
}
_WRITERS = ("write_csv", "emit_series", "render_svg_line_chart")
_CALLERS = ("fdrlink.mc", "fdrlink.experiments", "fdrlink.cli")


class Recorder:
    """Spans in four parallel lists plus named counters and span attributes."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.counts: Counter = Counter()
        self._stack = [-1]

    def open(self, name: str, **attrs) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        if attrs:
            self.attrs[sid] = attrs
        self._stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = perf_counter()
        self._stack.pop()

    def to_json(self) -> dict:
        return dict(names=self.names, starts=self.starts, ends=self.ends,
                    parents=self.parents, attrs={str(k): v for k, v in self.attrs.items()},
                    counts=dict(self.counts))

    @classmethod
    def from_json(cls, doc: dict) -> "Recorder":
        rec = cls()
        rec.names, rec.starts, rec.ends = doc["names"], doc["starts"], doc["ends"]
        rec.parents = doc["parents"]
        rec.attrs = {int(k): v for k, v in doc["attrs"].items()}
        rec.counts = Counter(doc["counts"])
        return rec


def _reps_of(args, kwargs):
    from fdrlink.mc import McConfig

    for value in (*args, *kwargs.values()):
        if isinstance(value, McConfig):
            return int(value.reps)
    return 0


def _span_wrapper(rec: Recorder, name: str, fn):
    short = name.split(".", 1)[1]
    counts_reps = short in ESTIMATES
    writes = short in _WRITERS

    @functools.wraps(fn, updated=())
    def wrapper(*args, **kwargs):
        sid = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        if counts_reps:
            rec.attrs[sid] = {"reps": _reps_of(args, kwargs)}
        elif writes:
            rec.attrs[sid] = {"bytes": os.path.getsize(result)}
        return result

    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _pool_class(rec: Recorder, base):
    class TracedPool(base):
        """Counts pools and spans the parent's time inside the ``with`` block."""

        def __init__(self, *args, **kwargs):
            rec.counts["mc.pools_started"] += 1
            super().__init__(*args, **kwargs)

        def __enter__(self):
            self._span = rec.open("mc.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                rec.close(self._span)

    return TracedPool


def _targets(module):
    """(attribute, span name) for every name the module calls into a layer."""
    prefix = module.__name__
    own = _OWN.get(prefix, ())
    for attr, value in vars(module).items():
        if attr.startswith("__"):
            continue
        if inspect.isfunction(value):
            origin = value.__module__
            if origin == prefix and attr not in own:
                continue
        elif attr == "EmpiricalCurve":
            origin = value.__module__
        else:
            continue
        if not origin.startswith("fdrlink."):
            continue
        layer = origin.split(".", 1)[1]
        if layer in LAYERS:
            yield attr, f"{layer}.{attr}"


def install(rec: Recorder):
    """Wrap the layer calls of fdrlink.mc, .experiments and .cli; returns undo."""
    import importlib

    saved = []
    for modname in _CALLERS:
        module = importlib.import_module(modname)
        for attr, name in list(_targets(module)):
            original = getattr(module, attr)
            if attr == "derive_seed":
                wrapped = _count_wrapper(rec, "mc.derive_seed", original)
            else:
                wrapped = _span_wrapper(rec, name, original)
            saved.append((module, attr, original))
            setattr(module, attr, wrapped)
    mc = importlib.import_module("fdrlink.mc")
    saved.append((mc, "ProcessPoolExecutor", mc.ProcessPoolExecutor))
    mc.ProcessPoolExecutor = _pool_class(rec, mc.ProcessPoolExecutor)

    def undo() -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return undo


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(rec: Recorder) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Spans come from one thread, so children lie inside their parent and
    never overlap each other: the covered part is the sum of their durations.
    """
    durations = [end - start for start, end in zip(rec.starts, rec.ends)]
    own = list(durations)
    for i, parent in enumerate(rec.parents):
        if parent >= 0:
            own[parent] -= durations[i]
    return own


def ancestors(rec: Recorder, sid: int):
    parent = rec.parents[sid]
    while parent >= 0:
        yield parent
        parent = rec.parents[parent]


def summarize(rec: Recorder) -> dict[str, float]:
    """Per-layer busy time, self time and call counts, plus replication and
    experiment counters, for the spans of one process.

    A layer is busy while any of its spans is open; a span nested in another
    span of the same layer adds no busy time. Replications are those of the
    estimate spans; the ones run in this process are those whose estimate
    opened no pool.
    """
    layers = [layer_of(name) for name in rec.names]
    selfs = self_times(rec)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for key in ("reps", "reps_in_process", "limit_reps", "experiments.estimate_calls",
                "experiments.reps_drawn", "experiments.bytes_written"):
        out[key] = 0
    out["limit_s"] = out["experiments.write_s"] = 0.0
    pooled = {a for i, name in enumerate(rec.names) if name == "mc.pool"
              for a in ancestors(rec, i)}
    for i, layer in enumerate(layers):
        if layer not in LAYERS:
            continue
        duration = rec.ends[i] - rec.starts[i]
        up = [layers[a] for a in ancestors(rec, i)]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += selfs[i]
        if layer not in up:
            out[f"{layer}.busy_s"] += duration
        if layer == "mc" and up and up[0] == "experiments":
            out["experiments.estimate_calls"] += 1
        attrs = rec.attrs.get(i, {})
        if "reps" in attrs:
            out["reps"] += attrs["reps"]
            if i not in pooled:
                out["reps_in_process"] += attrs["reps"]
            if "experiments" in up:
                out["experiments.reps_drawn"] += attrs["reps"]
            if rec.names[i] == "mc.estimate_worst_fdr_limit":
                out["limit_s"] += duration
                out["limit_reps"] += attrs["reps"]
        if "bytes" in attrs:
            out["experiments.write_s"] += duration
            out["experiments.bytes_written"] += attrs["bytes"]
    out["derive_seed_calls"] = rec.counts["mc.derive_seed"]
    out["pools_started"] = rec.counts["mc.pools_started"]
    return out
