"""Span tracer for the traced benchmark run.

The tracer wraps functions of each bmink module from outside the package;
no file of bmink changes.  bmink modules bind imported names by value
(``from .voxel import dilate``), so a wrapper is bound in place of the
original under every name, in every loaded bmink module, that refers to
it.  Methods are replaced on their class.

Each thread keeps its own span stack and totals, so two worker threads
never update the same counter.  A span's self time is its duration minus
the time its child spans cover.  Child spans on the span's own thread nest,
so their durations add up without overlap.  The root span, one
``run_campaign`` call, also has children on the pool's worker threads: its
self time is its wall time minus the union of all its children's
intervals, kept as a running count of open children under a lock.

Times are wall clock.  With W workers sharing the interpreter lock, a
thread waiting for the lock inside a span is still inside it, so layer
seconds summed over threads come to about W times the wall time.

Counts are computed from the arguments and results of the wrapped calls
(cell counts, vertex counts, output bytes); they depend only on the
inputs, so two traced runs of the same chunks give the same counts.  The
bookkeeping runs outside the measured interval of the span it counts for.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter_ns
from typing import Callable, Optional

ROOT = "campaign.run_campaign"
PACKAGE = "bmink"


class _ThreadStats:
    __slots__ = ("index", "ident", "name", "stack", "calls", "self_ns",
                 "total_ns", "counts")

    def __init__(self, index: int) -> None:
        thread = threading.current_thread()
        self.index = index
        self.ident = thread.ident
        self.name = thread.name
        self.stack: list[list] = []     # frames: [span name, child ns]
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}


def _bump(table: dict, key: str, amount: int) -> None:
    table[key] = table.get(key, 0) + amount


class Tracer:
    """Collects spans and counts from every thread that calls a wrapper."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[_ThreadStats] = []
        self._root_open = False
        self._active = 0
        self._idle_since = 0
        self._uncovered = 0

    def state(self) -> _ThreadStats:
        try:
            return self._local.stats
        except AttributeError:
            with self._lock:
                stats = _ThreadStats(len(self.threads))
                self.threads.append(stats)
            self._local.stats = stats
            return stats

    # -- union of the root's child intervals ------------------------------

    def _child_enter(self) -> None:
        with self._lock:
            if self._active == 0:
                self._uncovered += perf_counter_ns() - self._idle_since
            self._active += 1

    def _child_exit(self) -> None:
        with self._lock:
            self._active -= 1
            if self._active == 0:
                self._idle_since = perf_counter_ns()

    # -- wrappers ----------------------------------------------------------

    def root(self, fn: Callable) -> Callable:
        """Wrap the campaign entry point; its self time is uncovered wall."""
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer.state()
            with tracer._lock:
                tracer._root_open = True
                tracer._active = 0
                tracer._uncovered = 0
                t0 = tracer._idle_since = perf_counter_ns()
            st.stack.append([ROOT, 0])
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                st.stack.pop()
                with tracer._lock:
                    if tracer._active == 0:
                        tracer._uncovered += t1 - tracer._idle_since
                    tracer._root_open = False
                    uncovered = tracer._uncovered
                _bump(st.calls, ROOT, 1)
                _bump(st.self_ns, ROOT, uncovered)
                _bump(st.total_ns, ROOT, t1 - t0)

        return wrapper

    def span(self, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """Wrap `fn` so each call records a span on its thread.

        `before(stats, args)` may return another span name (and count
        work); `after(stats, args, result, parent)` counts the result.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer.state()
            stack = st.stack
            span_name = name if before is None else before(st, args)
            root_child = tracer._root_open and (not stack or stack[-1][0] == ROOT)
            if root_child:
                tracer._child_enter()
            frame = [span_name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                _bump(st.calls, span_name, 1)
                _bump(st.self_ns, span_name, dur - frame[1])
                _bump(st.total_ns, span_name, dur)
                if root_child:
                    tracer._child_exit()
            if after is not None:
                after(st, args, result, stack[-1][0] if stack else None)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Count successful calls of `fn` without recording a span."""
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            _bump(tracer.state().counts, name, 1)
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def totals(self) -> dict:
        """Sums over threads, plus the per-thread breakdown."""
        out = {"calls": {}, "self_ns": {}, "total_ns": {}, "counts": {},
               "threads": []}
        for st in self.threads:
            for key in ("calls", "self_ns", "total_ns", "counts"):
                for name, value in getattr(st, key).items():
                    _bump(out[key], name, value)
            out["threads"].append({
                "thread": st.index, "ident": st.ident, "name": st.name,
                "self_s": {k: v / 1e9 for k, v in sorted(st.self_ns.items())},
                "calls": dict(sorted(st.calls.items())),
            })
        return out


# -- counting hooks ----------------------------------------------------------

def _dilate_before(st: _ThreadStats, args: tuple) -> str:
    # dilate ORs the larger operand's array once per cell of the smaller.
    a, b = args[0], args[1]
    ca, cb = a.count, b.count
    small, big, cs = (a, b, ca) if ca <= cb else (b, a, cb)
    if ca and cb:
        _bump(st.counts, "voxel.dilate.cell_ops", cs * big.occ.size)
    return "voxel.dilate.dense" if 2 * cs > small.occ.size else "voxel.dilate.sparse"


def _erode_open_before(st: _ThreadStats, args: tuple) -> str:
    # erode_open ANDs a shifted interior array once per cell of b.
    a, b = args[0], args[1]
    if not a.is_empty:
        _bump(st.counts, "voxel.erode_open.cell_ops", b.count * a.occ.size)
    return "voxel.erode_open"


def _rasterize_after(st, args, result, parent) -> None:
    _bump(st.counts, "voxel.rasterize.cells", result.count)
    if parent == "generators.gen_connected_boundary_set":
        _bump(st.counts, "generators.set_rasterizations", 1)


def _boundary_set_after(st, args, result, parent) -> None:
    _bump(st.counts, "generators.boundary_sets", 1)


def _erode_after(st, args, result, parent) -> None:
    if not result.is_empty:
        _bump(st.counts, "exact2d.erode.nonempty", 1)


def _polygon_after(st, args, result, parent) -> None:
    _bump(st.counts, "exact2d.vertices_out", len(args[0].vertices))


def _dumps_after(st, args, result, parent) -> None:
    _bump(st.counts, "serialize.dumps_canonical.bytes", len(result))


# (module, attribute, span name, before, after); a dotted attribute is a
# method of a class in that module.  Private names are optional: a later
# refactor may drop them, and the spans below them still nest under the
# root.
SPANS = (
    ("bmink.campaign", "_run_trial", "campaign.run_trial", None, None),
    ("bmink.campaign", "_consume", "campaign.consume", None, None),
    ("bmink.generators", "trial_rng", "generators.trial_rng", None, None),
    ("bmink.generators", "gen_polygon_pair", "generators.gen_polygon_pair",
     None, None),
    ("bmink.generators", "gen_connected_boundary_set",
     "generators.gen_connected_boundary_set", None, _boundary_set_after),
    ("bmink.generators", "gen_decomposition_pair",
     "generators.gen_decomposition_pair", None, None),
    ("bmink.exact2d", "ConvexPolygon.hull", "exact2d.hull", None, None),
    ("bmink.exact2d", "ConvexPolygon.__init__", "exact2d.ConvexPolygon",
     None, _polygon_after),
    ("bmink.exact2d", "minkowski_sum", "exact2d.minkowski_sum", None, None),
    ("bmink.exact2d", "erode", "exact2d.erode", None, _erode_after),
    ("bmink.exact2d", "partial_sum_area", "exact2d.partial_sum_area",
     None, None),
    ("bmink.exact2d", "scale", "exact2d.scale", None, None),
    ("bmink.exact2d", "classify_equality", "exact2d.classify_equality",
     None, None),
    ("bmink.voxel", "rasterize", "voxel.rasterize", None, _rasterize_after),
    ("bmink.voxel", "dilate", "voxel.dilate", _dilate_before, None),
    ("bmink.voxel", "erode_open", "voxel.erode_open", _erode_open_before,
     None),
    ("bmink.voxel", "boundary", "voxel.boundary", None, None),
    ("bmink.voxel", "is_boundary_connected", "voxel.is_boundary_connected",
     None, None),
    ("bmink.restricted", "check_theta_bounds", "restricted.check_theta_bounds",
     None, None),
    ("bmink.restricted", "restricted_sum", "restricted.restricted_sum",
     None, None),
    ("bmink.restricted", "check_arithmetic_bm",
     "restricted.check_arithmetic_bm", None, None),
    ("bmink.inequalities", "check_thm_av", "inequalities.check_thm_av",
     None, None),
    ("bmink.inequalities", "check_thm_bbm", "inequalities.check_thm_bbm",
     None, None),
    ("bmink.inequalities", "check_cor_multi", "inequalities.check_cor_multi",
     None, None),
    ("bmink.inequalities", "check_lemma_pbm", "inequalities.check_lemma_pbm",
     None, None),
    ("bmink.inequalities", "check_rn", "inequalities.check_rn", None, None),
    ("bmink.inequalities", "InequalityReport.to_json_dict",
     "serialize.report_dict", None, None),
    ("bmink.serialize", "dumps_canonical", "serialize.dumps_canonical",
     None, _dumps_after),
)

# Calls counted without a span, so their time stays in the caller's span.
COUNTERS = (
    ("bmink.generators", "gen_convex_polygon", "generators.polygons"),
    ("bmink.generators", "gen_symmetric_polygon", "generators.polygons"),
)


def _rebind(original: Callable, wrapped: Callable) -> int:
    """Bind `wrapped` wherever a bmink module refers to `original`."""
    modules = [m for n, m in list(sys.modules.items())
               if n == PACKAGE or n.startswith(PACKAGE + ".")]
    bound = 0
    for module in modules:
        names = [k for k, v in vars(module).items() if v is original]
        for k in names:
            setattr(module, k, wrapped)
            bound += 1
    return bound


def _install_one(module_name: str, attr: str, make: Callable) -> bool:
    module = sys.modules.get(module_name)
    if module is None:
        return False
    if "." in attr:
        cls_name, meth = attr.split(".", 1)
        cls = getattr(module, cls_name, None)
        raw = None if cls is None else cls.__dict__.get(meth)
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(make(raw.__func__)))
        else:
            setattr(cls, meth, make(raw))
        return True
    original = getattr(module, attr, None)
    if original is None:
        return False
    return _rebind(original, make(original)) > 0


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function; returns the targets that were missing."""
    missing = []
    if not _install_one("bmink.campaign", "run_campaign", tracer.root):
        missing.append("bmink.campaign.run_campaign")
    for module_name, attr, name, before, after in SPANS:
        def make(fn, name=name, before=before, after=after):
            return tracer.span(name, fn, before, after)
        if not _install_one(module_name, attr, make):
            missing.append(f"{module_name}.{attr}")
    for module_name, attr, name in COUNTERS:
        if not _install_one(module_name, attr,
                            lambda fn, name=name: tracer.counter(name, fn)):
            missing.append(f"{module_name}.{attr}")
    return missing


# -- per-layer metrics -------------------------------------------------------

TIMED = (
    "exact2d.hull", "exact2d.ConvexPolygon", "exact2d.minkowski_sum",
    "exact2d.erode", "exact2d.partial_sum_area", "exact2d.scale",
    "exact2d.classify_equality",
)
SELF_SECONDS = (
    "generators.gen_polygon_pair", "generators.gen_connected_boundary_set",
    "generators.gen_decomposition_pair", "generators.trial_rng",
    "voxel.rasterize", "voxel.dilate.dense", "voxel.dilate.sparse",
    "voxel.erode_open", "voxel.boundary", "voxel.is_boundary_connected",
    "restricted.check_theta_bounds", "restricted.restricted_sum",
    "restricted.check_arithmetic_bm",
    "inequalities.check_thm_av", "inequalities.check_thm_bbm",
    "inequalities.check_cor_multi", "inequalities.check_lemma_pbm",
    "inequalities.check_rn",
    "serialize.report_dict", "serialize.dumps_canonical",
    "campaign.run_trial", "campaign.consume",
)
COMPUTED = "count.computed"
RATIO = "ratio.computed"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in TIMED:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = COMPUTED
    units["exact2d.erode.nonempty_ratio"] = RATIO
    units["exact2d.vertices_out"] = COMPUTED
    for name in SELF_SECONDS:
        units[f"{name}.s"] = "s"
    units.update({
        "generators.hull_per_polygon": RATIO,
        "generators.rasterize_per_set": RATIO,
        "voxel.rasterize.cells": COMPUTED,
        "voxel.dilate.dense.calls": COMPUTED,
        "voxel.dilate.sparse.calls": COMPUTED,
        "voxel.dilate.cell_ops": COMPUTED,
        "voxel.erode_open.cell_ops": COMPUTED,
        "serialize.dumps_canonical.bytes": COMPUTED,
        "campaign.run_campaign.self_s": "s",
        "campaign.trials": COMPUTED,
        "campaign.workers": "count",
        "trace.span_coverage": "ratio",
        "trace.trials_per_s.traced": "1/s",
        "trace.trials_per_s.untraced": "1/s",
        "trace.overhead": "ratio",
    })
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(totals: dict, trials: int, workers: int,
                      traced_rate: float, untraced_rate: float) -> dict:
    """Per-layer metric values from one traced pass's totals."""
    calls, counts = totals["calls"], totals["counts"]
    self_s = {k: v / 1e9 for k, v in totals["self_ns"].items()}
    values = {}
    for name in TIMED:
        values[f"{name}.s"] = self_s.get(name, 0.0)
        values[f"{name}.calls"] = calls.get(name, 0)
    values["exact2d.erode.nonempty_ratio"] = _ratio(
        counts.get("exact2d.erode.nonempty", 0), calls.get("exact2d.erode", 0))
    values["exact2d.vertices_out"] = counts.get("exact2d.vertices_out", 0)
    for name in SELF_SECONDS:
        values[f"{name}.s"] = self_s.get(name, 0.0)
    values.update({
        "generators.hull_per_polygon": _ratio(
            calls.get("exact2d.hull", 0), counts.get("generators.polygons", 0)),
        "generators.rasterize_per_set": _ratio(
            counts.get("generators.set_rasterizations", 0),
            counts.get("generators.boundary_sets", 0)),
        "voxel.rasterize.cells": counts.get("voxel.rasterize.cells", 0),
        "voxel.dilate.dense.calls": calls.get("voxel.dilate.dense", 0),
        "voxel.dilate.sparse.calls": calls.get("voxel.dilate.sparse", 0),
        "voxel.dilate.cell_ops": counts.get("voxel.dilate.cell_ops", 0),
        "voxel.erode_open.cell_ops": counts.get("voxel.erode_open.cell_ops", 0),
        "serialize.dumps_canonical.bytes":
            counts.get("serialize.dumps_canonical.bytes", 0),
        "campaign.run_campaign.self_s": self_s.get(ROOT, 0.0),
        "campaign.trials": trials,
        "campaign.workers": workers,
        "trace.span_coverage": 1.0 - _ratio(
            totals["self_ns"].get(ROOT, 0), totals["total_ns"].get(ROOT, 0)),
        "trace.trials_per_s.traced": traced_rate,
        "trace.trials_per_s.untraced": untraced_rate,
        "trace.overhead": _ratio(untraced_rate, traced_rate),
    })
    return values


def computed_counts(totals: dict) -> dict:
    """The counts that must repeat exactly between two traced runs."""
    return {"calls": dict(sorted(totals["calls"].items())),
            "counts": dict(sorted(totals["counts"].items()))}
