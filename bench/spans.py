"""In-memory span tracer for the benchmark's traced run.

A span opens at each call into one of curvbound's seven computational
modules, as that call is bound in *another* module: a function imported
across modules (``harness.restrict_field`` is ``operators.restrict_field``),
a chart's ``value``/``jet``, and each library function the benchmark itself
calls.  Calls inside one module stay unwrapped so tracing stays cheap, except
for the few stage functions in ``STAGES``: per-layer metrics are defined on
them and they run at most once per frame or per scenario.

Each span stores its name, start, end and parent in flat arrays; spans are
written out only when the run ends.  A span's self time is its duration
minus the durations of its children, which nest because the benchmark is a
single thread issuing one call at a time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from array import array

import numpy as np

MODULES = ("spaceform", "charts", "immersion", "curvature", "comparison", "operators", "harness")

# Intra-module functions wrapped anyway, because per-layer metrics name them.
STAGES = {
    "immersion": ("frame_at",),
    "operators": ("intrinsic_hessian_fd", "operator_data", "restrict_field"),
    "harness": (
        "collect_samples",
        "refined_distance_extremum",
        "verify_riemannian_estimate",
        "verify_h2_corollary",
        "verify_lorentz_estimates",
    ),
}

CHART_METHODS = ("value", "jet")

VERIFY_STAGES = tuple(f"harness.{s}" for s in STAGES["harness"] if s.startswith("verify_"))


def span_name(fn) -> str:
    """``<module>.<function>`` for a curvbound function."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    """Collects spans and boundary counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = {
            "immersion.sample_grid.skipped": 0,
            "operators.omori_yau_search.evaluations": 0,
        }
        self.refine_keys: set = set()
        self._patched: list = []
        self._after = {
            "harness.refined_distance_extremum": self._count_refine,
            "immersion.sample_grid": self._count_skipped,
            "operators.omori_yau_search": self._count_evaluations,
        }

    # -- recording --------------------------------------------------------

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        after = self._after.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _count_refine(self, args, kwargs, _):
        # One key per (enclosing top-level call, mode): refining the same
        # extremum twice within one scenario run is wasted work.
        mode = args[1] if len(args) > 1 else kwargs["mode"]
        root = self._stack[1] if len(self._stack) > 1 else len(self.start) - 1
        self.refine_keys.add((root, mode))

    def _count_skipped(self, _, __, result):
        self.counters["immersion.sample_grid.skipped"] += len(result.skipped)

    def _count_evaluations(self, _, __, result):
        self.counters["operators.omori_yau_search.evaluations"] += result.evaluations

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap cross-module bindings, stage functions and chart methods."""
        mods = {m: importlib.import_module(f"curvbound.{m}") for m in MODULES}
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home not in mods or (home == mname and attr not in STAGES.get(mname, ())):
                    continue
                self._patch(mod, attr, self.wrap(span_name(obj), obj))
        charts = mods["charts"]
        for cls in vars(charts).values():
            if isinstance(cls, type) and issubclass(cls, charts.Chart):
                for meth in CHART_METHODS:
                    if meth in vars(cls):
                        self._patch(cls, meth, self.wrap(f"charts.{meth}", vars(cls)[meth]))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def per_name(self) -> dict:
        """name -> (calls, inclusive seconds, self seconds)."""
        if not len(self.start):
            return {}
        nid = np.array(self.name_id, dtype=np.intp)
        par = np.array(self.parent, dtype=np.intp)
        dur = np.array(self.end) - np.array(self.start)
        nested = par >= 0
        child = np.bincount(par[nested], weights=dur[nested], minlength=dur.size)
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid, weights=dur, minlength=k)
        excl = np.bincount(nid, weights=self_t, minlength=k)
        return {
            name: (int(calls[i]), float(incl[i]), float(excl[i]))
            for i, name in enumerate(self.names)
        }

    def root_seconds(self) -> float:
        """Time covered by top-level spans, i.e. spent inside the library."""
        par = np.array(self.parent, dtype=np.intp)
        dur = np.array(self.end) - np.array(self.start)
        return float(dur[par < 0].sum())

    def dump(self, path) -> None:
        """Write every span as [name, start_s, end_s, parent_index]."""
        spans = zip(self.name_id, self.start, self.end, self.parent)
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start_s", "end_s", "parent"],
                    "spans": [list(s) for s in spans],
                    "counters": self.counters,
                },
                fh,
            )


def layer_metrics(tracer: Tracer, traced: list, untraced: list) -> dict:
    """Per-layer metrics, per pass, from the spans of the ``traced`` passes.

    ``traced`` and ``untraced`` hold the ``PassTiming`` of each pass.  The
    speed reference's kernel runs inside whatever span is open when its timer
    fires, so span times are scaled by the passes' time at the reference
    speed over their wall time: that takes the kernel runs out and puts span
    times on the same basis as ``trace.wall_s``.  The tracing overhead is the
    difference of the median traced and untraced pass times at the reference
    speed.
    """
    passes = len(traced)
    reference_s = sum(p.rescaled for p in traced)
    scale = reference_s / sum(p.elapsed for p in traced) / passes
    stats = tracer.per_name()

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0] / passes

    def incl(name):
        return stats.get(name, (0, 0.0, 0.0))[1] * scale

    def excl(name):
        return stats.get(name, (0, 0.0, 0.0))[2] * scale

    def per(x, n, unit=1.0):
        return x * unit / n if n else 0.0

    module_calls = dict.fromkeys(MODULES, 0.0)
    module_self = dict.fromkeys(MODULES, 0.0)
    for name, (c, _, s) in stats.items():
        mod = name.partition(".")[0]
        module_calls[mod] += c / passes
        module_self[mod] += s * scale

    out = {}
    for mod in MODULES:
        out[f"{mod}.calls"] = (module_calls[mod], "count")
        out[f"{mod}.self_s"] = (module_self[mod], "s")
        out[f"{mod}.self_share"] = (per(module_self[mod] * passes, reference_s), "ratio")

    frames = calls("immersion.frame_at")
    out["charts.value.calls_per_frame"] = (per(calls("charts.value"), frames), "count/frame")
    out["charts.jet.calls_per_frame"] = (per(calls("charts.jet"), frames), "count/frame")
    out["charts.self_us_per_frame"] = (per(module_self["charts"], frames, 1e6), "us/frame")
    out["immersion.frame_at.calls"] = (frames, "count")
    out["immersion.frame_at.self_us_per_call"] = (
        per(excl("immersion.frame_at"), frames, 1e6), "us/call")
    out["immersion.sample_grid.skipped"] = (
        tracer.counters["immersion.sample_grid.skipped"] / passes, "count")
    out["curvature.newton_family.calls"] = (calls("curvature.newton_family"), "count")
    out["curvature.newton_family.us_per_call"] = (
        per(incl("curvature.newton_family"), calls("curvature.newton_family"), 1e6), "us/call")
    out["curvature.self_us_per_frame"] = (per(module_self["curvature"], frames, 1e6), "us/frame")
    for name in ("operators.operator_data", "operators.restrict_field"):
        out[f"{name}.self_us_per_call"] = (per(excl(name), calls(name), 1e6), "us/call")
    out["operators.omori_yau_search.evaluations"] = (
        tracer.counters["operators.omori_yau_search.evaluations"] / passes, "count")
    out["operators.intrinsic_hessian_fd.us_per_call"] = (
        per(incl("operators.intrinsic_hessian_fd"), calls("operators.intrinsic_hessian_fd"), 1e6),
        "us/call")
    out["spaceform.distance_hessian_bilinear.calls_per_frame"] = (
        per(calls("spaceform.distance_hessian_bilinear"), frames), "count/frame")
    out["spaceform.ambient_distance.calls"] = (calls("spaceform.ambient_distance"), "count")
    out["spaceform.self_us_per_frame"] = (per(module_self["spaceform"], frames, 1e6), "us/frame")
    out["harness.collect_samples.s"] = (incl("harness.collect_samples"), "s")
    refine_calls = calls("harness.refined_distance_extremum")
    out["harness.refined_distance_extremum.calls"] = (refine_calls, "count")
    out["harness.refined_distance_extremum.s"] = (incl("harness.refined_distance_extremum"), "s")
    out["harness.refine.useful_ratio"] = (
        per(len(tracer.refine_keys) / passes, refine_calls), "ratio")
    out["harness.verify.self_s"] = (sum(excl(n) for n in VERIFY_STAGES), "s")

    traced_s = statistics.median(p.rescaled for p in traced)
    untraced_s = statistics.median(p.rescaled for p in untraced)
    out["trace.spans"] = (len(tracer.start) / passes, "count")
    out["trace.wall_s"] = (traced_s, "s")
    out["trace.untraced_wall_s"] = (untraced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out["trace.overhead_share"] = (per(traced_s - untraced_s, untraced_s), "ratio")
    attributed = tracer.root_seconds() * scale * passes / reference_s
    out["trace.unattributed_share"] = (1.0 - attributed, "ratio")
    return out
