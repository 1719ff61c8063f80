"""Span recording, the traced run's instrumentation, and self-time arithmetic.

Spans are recorded from the benchmark alone: the package's public
functions are wrapped at their module attributes and at every name a
package module bound them to, so internal calls (which resolve globals
at call time) are caught too.  ``GentleQuiver.compose`` and the scalar
operations of the field objects handed to the package run millions of
times, so they are counted without spans, in a separate pass whose
cost does not distort the span timings.

A span is (name, start, end, parent, item).  Its self time is its
duration minus the part of that interval its children cover; the time
no root span covers is reported as uncovered, so self times plus
uncovered time add up to the traced wall time.
"""

from __future__ import annotations

import copy
import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import ribbonorders as ro

# (module, function) pairs wrapped with spans, grouped by layer
WRAPPED = (
    ("decide", "batch"),
    ("decide", "decide"),
    ("decide", "report_to_jsonable"),
    ("polarize", "enumerate_polarizations"),
    ("polarize", "find_sigma_stable"),
    ("ribbon", "is_bipartite"),
    ("ribbon", "graph_of_quiver"),
    ("ribbon", "quiver_from_ribbon_graph"),
    ("quiver", "quiver_isomorphism"),
    ("fdalg", "build_quotient_algebra"),
    ("fdalg", "symmetric_forms"),
    ("fdalg", "socle"),
    ("fdalg", "bilinear_matrix"),
    ("fdalg", "is_symmetric_oracle"),
    ("fdalg", "construct_psi_isomorphism"),
    ("linalg", "nullspace"),
    ("linalg", "det"),
    ("order", "check_nu_symmetry"),
    ("order", "verify_theta_psi"),
    ("order", "multiply"),
    ("order", "to_canonical_coordinates"),
    ("specfile", "parse_spec"),
    ("specfile", "serialize_quiver"),
)
LAYERS = ("decide", "polarize", "ribbon", "quiver", "fdalg", "linalg", "order", "specfile", "bench")
FIELD_OPS = ("from_int", "add", "sub", "mul", "neg", "inv", "div", "is_zero")

ITEM_SPAN = "bench.item"
HOOK_SPAN = "bench.hook"

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# counters kept by the hooks, the compose counter and the counting fields
COUNTERS = (
    "polarize.enumerate_polarizations.generated",
    "quiver.compose.calls",
    "fdalg.table.entries",
    "fdalg.table.nonzero",
    "fdalg.s_dim",
    "fdalg.socle_dim",
    "fdalg.oracle.trials",
    "linalg.nullspace.entries",
    "linalg.det.max_n",
    "fields.ops",
    "fields.inv",
    "order.check_nu_symmetry.pairs",
)


def declared_per_layer() -> List[Tuple[str, str]]:
    """The per-layer metrics the traced run prints, as (name, unit), in
    the order BENCHMARK.json lists them."""
    return [(m["name"], m["unit"]) for m in json.loads(BENCHMARK_JSON.read_text())["per_layer"]]


class Recorder:
    """Spans kept in memory as parallel arrays, plus named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.item = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.item_id = -1
        self.counts: Counter = Counter()
        self.active = False

    def __len__(self) -> int:
        return len(self.start)

    def record(self, name: str, start: float, end: float, parent: int = -1, item: int = -1) -> int:
        """Append a finished span and return its id."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.item.append(item)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def begin(self, name: str) -> int:
        sid = self.record(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item_id)
        self._stack.append(sid)
        self.start[sid] = self.clock()
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self._stack.pop()

    def name_of(self, sid: int) -> str:
        return self.names[self.name_id[sid]]

    def write(self, path) -> None:
        """Write every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\titem\tname\tstart_s\tend_s\n")
            for sid in range(len(self)):
                out.write(
                    f"{sid}\t{self.parent[sid]}\t{self.item[sid]}\t{self.name_of(sid)}\t"
                    f"{self.start[sid]!r}\t{self.end[sid]!r}\n"
                )


# ---------------------------------------------------------------------------
# self-time arithmetic


def covered(intervals: Iterable[Tuple[float, float]], lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(rec: Recorder) -> List[float]:
    """Each span's duration minus its children's coverage of it."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sid in range(len(rec)):
        p = rec.parent[sid]
        if p >= 0:
            children[p].append((rec.start[sid], rec.end[sid]))
    out = []
    for sid in range(len(rec)):
        lo, hi = rec.start[sid], rec.end[sid]
        out.append(hi - lo - covered(children.get(sid, ()), lo, hi))
    return out


def uncovered(rec: Recorder, wall_start: float, wall_end: float) -> float:
    roots = [(rec.start[s], rec.end[s]) for s in range(len(rec)) if rec.parent[s] < 0]
    return (wall_end - wall_start) - covered(roots, wall_start, wall_end)


def summarize(rec: Recorder) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total inclusive seconds, total self seconds."""
    selfs = self_times(rec)
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for sid in range(len(rec)):
        row = out[rec.name_of(sid)]
        row["calls"] += 1
        row["s"] += rec.end[sid] - rec.start[sid]
        row["self_s"] += selfs[sid]
    return dict(out)


# ---------------------------------------------------------------------------
# instrumentation


# size counters read off a wrapped call's arguments and result
def _count_polarizations(c, args, res):
    c["polarize.enumerate_polarizations.generated"] += len(res)


def _count_table(c, args, res):
    c["fdalg.table.entries"] += res.dim * res.dim
    c["fdalg.table.nonzero"] += sum(1 for row in res.table for entry in row if entry)


def _count_s_dim(c, args, res):
    c["fdalg.s_dim"] += len(res)


def _count_socle_dim(c, args, res):
    c["fdalg.socle_dim"] += len(res)


def _count_trials(c, args, res):
    c["fdalg.oracle.trials"] += res.trials


def _count_nullspace_entries(c, args, res):
    mat = args[1]
    if mat:
        c["linalg.nullspace.entries"] += len(mat) * len(mat[0])


def _count_det_size(c, args, res):
    c["linalg.det.max_n"] = max(c["linalg.det.max_n"], len(args[1]))


def _count_pairs(c, args, res):
    c["order.check_nu_symmetry.pairs"] += res.pair_count


HOOKS = {
    "polarize.enumerate_polarizations": _count_polarizations,
    "fdalg.build_quotient_algebra": _count_table,
    "fdalg.symmetric_forms": _count_s_dim,
    "fdalg.socle": _count_socle_dim,
    "fdalg.is_symmetric_oracle": _count_trials,
    "linalg.nullspace": _count_nullspace_entries,
    "linalg.det": _count_det_size,
    "order.check_nu_symmetry": _count_pairs,
}


def _wrap(rec: Recorder, name: str, fn: Callable) -> Callable:
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        sid = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.finish(sid)
        if hook is not None:
            hid = rec.begin(HOOK_SPAN)
            hook(rec.counts, args, result)
            rec.finish(hid)
        return result

    return traced


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every function in WRAPPED with spans; return a function that
    puts the originals back."""
    modules = [m for n, m in sys.modules.items() if n == "ribbonorders" or n.startswith("ribbonorders.")]
    undo = []
    for modname, fname in WRAPPED:
        original = getattr(sys.modules[f"ribbonorders.{modname}"], fname)
        wrapper = _wrap(rec, f"{modname}.{fname}", original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
                    undo.append((m, attr, original))

    def restore():
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)

    return restore


def install_compose_counter(rec: Recorder) -> Callable[[], None]:
    """Count ``GentleQuiver.compose`` calls at class level; return the undo."""
    compose = ro.GentleQuiver.compose
    counts = rec.counts

    @functools.wraps(compose)
    def counted_compose(self, q, p):
        if rec.active:
            counts["quiver.compose.calls"] += 1
        return compose(self, q, p)

    ro.GentleQuiver.compose = counted_compose

    def restore():
        ro.GentleQuiver.compose = compose

    return restore


def counting_field(fld: ro.Field, rec: Recorder) -> ro.Field:
    """A copy of the field whose scalar operations count their calls.

    The copy compares equal to the original, so the package treats it
    the same; internal calls such as ``div`` -> ``mul`` are counted too.
    """
    twin = copy.copy(fld)
    counts = rec.counts
    for op in FIELD_OPS:
        bound = getattr(twin, op)
        keys = ("fields.ops", "fields.inv") if op == "inv" else ("fields.ops",)

        def counted(*args, _call=bound, _keys=keys):
            if rec.active:
                for k in _keys:
                    counts[k] += 1
            return _call(*args)

        setattr(twin, op, counted)
    return twin


def with_counting_fields(args: Sequence, rec: Recorder, twins: Dict[int, ro.Field]) -> Tuple:
    """The item arguments with every field object swapped for its twin."""
    out = []
    for a in args:
        if isinstance(a, ro.Field):
            if id(a) not in twins:
                twins[id(a)] = counting_field(a, rec)
            a = twins[id(a)]
        out.append(a)
    return tuple(out)


# ---------------------------------------------------------------------------
# per-layer metrics


def per_layer_metrics(rec: Recorder, wall_start: float, wall_end: float, untraced_wall: float) -> Dict[str, float]:
    """Every metric the trace can give, by name: per wrapped function its
    calls, inclusive seconds (.s) and self seconds (.self_s); the
    counters; two ratios; the self time of each layer; and the trace
    accounting (trace.*)."""
    summary = summarize(rec)
    values: Dict[str, float] = {}
    for modname, fname in WRAPPED:
        row = summary.get(f"{modname}.{fname}", {"calls": 0, "s": 0.0, "self_s": 0.0})
        for stat, value in row.items():
            values[f"{modname}.{fname}.{stat}"] = value
    for name in COUNTERS:
        values[name] = rec.counts[name]
    decisions = values["decide.decide.calls"]
    values["ribbon.is_bipartite.per_decision"] = values["ribbon.is_bipartite.calls"] / decisions if decisions else 0
    entries = values["fdalg.table.entries"]
    values["fdalg.table.nonzero_share"] = values["fdalg.table.nonzero"] / entries if entries else 0

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span_name, row in summary.items():
        layer_self[span_name.split(".", 1)[0]] += row["self_s"]
    for layer, s in layer_self.items():
        values[f"{layer}.self_s"] = s

    wall = wall_end - wall_start
    values["trace.wall_s"] = wall
    values["trace.uncovered_s"] = uncovered(rec, wall_start, wall_end)
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = wall - untraced_wall
    values["trace.spans"] = len(rec)
    return values


def trace_problems(rec: Recorder, values: Dict[str, float]) -> List[str]:
    """Reasons not to trust a traced pass: spans left open or ending
    before they start, package spans outside every item span, and self
    times plus uncovered time that do not add up to the traced wall time."""
    problems = []
    if rec._stack:
        problems.append(f"{len(rec._stack)} spans left open")
    backwards = sum(1 for s in range(len(rec)) if rec.end[s] < rec.start[s])
    if backwards:
        problems.append(f"{backwards} spans end before they start")
    root: List[int] = []
    for sid in range(len(rec)):  # a parent is always recorded before its children
        p = rec.parent[sid]
        root.append(sid if p < 0 else root[p])
    orphans = sum(1 for sid in range(len(rec)) if rec.name_of(root[sid]) != ITEM_SPAN)
    if orphans:
        problems.append(f"{orphans} spans lie outside every item span")
    error = sum(values[f"{layer}.self_s"] for layer in LAYERS) + values["trace.uncovered_s"] - values["trace.wall_s"]
    if abs(error) > 1e-6:
        problems.append(f"self times plus uncovered time miss the traced wall time by {error:.3e} s")
    return problems
