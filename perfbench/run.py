"""Run one benchmark workload against this checkout's ``src/ribbonorders``.

    python3 perfbench/run.py --workload corpus_grid --seed 1 --trace 0

Workloads: corpus_grid, decide_scaling, order_structure (see
perfbench/README.md).  One process runs one workload, single-threaded,
as a closed loop: the next item starts when the previous one returns.

--trace 0 cycles through the workload's items until each has run once
and --seconds (by default BENCHMARK.json's run_seconds) have elapsed,
checks every output right after its item, outside the timed region, and
prints the end-to-end metrics, with every time scaled to a fixed host
speed (see README.md).  --trace 1 runs three passes over the same
items: untraced, traced with spans, and one that only counts compose
calls and scalar operations; it prints the per-layer metrics and writes
the spans to .bench_out/ at the end.

A table for people comes first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SETUP_PROBES = 4  # fresh processes that repeat the set-up, besides this one
PROBE_TIMEOUT_S = 60
# Host speed.  The reference loop is timed next to every measurement and
# every time is scaled to the speed at which one reference loop takes
# REF_MS, about its time on a quiet 2-vCPU Xeon VM (see README.md).
REF_MS = 0.5
REF_SHARE = 0.1  # reference time after an item, as a share of the item's latency
# An item faster than this repeats within one timed run until the run
# lasts about this long, so that a sub-millisecond item is not timed on
# the timer's grain and the noise of a single instant.
MIN_RUN_S = 0.005
SETUP_REFS = 20  # reference loops before and after each set-up


def reference_loop() -> int:
    """Fixed pure-Python work (dict updates, integer and Fraction
    arithmetic) whose time shows how fast the host runs right now."""
    table = {}
    acc = Fraction(0)
    for i in range(2000):
        k = (i * 7919) % 211
        table[k] = (table.get(k, 0) + i * i) % 3
        if i % 40 == 0:
            acc += Fraction(i, 7) * Fraction(3, i + 1)
    return len(table)


def reference_times(count: int = 1, seconds: float = 0.0) -> list:
    """Run the reference loop at least ``count`` times and for at least
    ``seconds``; return each run's seconds."""
    out = []
    while len(out) < count or sum(out) < seconds:
        t0 = time.perf_counter()
        reference_loop()
        out.append(time.perf_counter() - t0)
    return out


def at_reference_speed(seconds: float, refs) -> float:
    """Seconds measured while the reference loop took ``mean(refs)``, scaled
    to the speed at which it takes REF_MS."""
    return seconds * (REF_MS / 1000) / statistics.fmean(refs)


def load_package():
    """Import ribbonorders from this checkout's src/ and from nowhere else."""
    init = SRC / "ribbonorders" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from the root of a ribbonorders checkout")
    sys.path.insert(0, str(SRC))
    import ribbonorders

    if Path(ribbonorders.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported ribbonorders from {ribbonorders.__file__}, not {init}")


def setup(workload: str, seed: int):
    """Imports plus input generation; returns the items and the seconds
    taken, at reference speed, measured between two reference blocks."""
    refs = reference_times(SETUP_REFS)
    t0 = time.perf_counter()
    load_package()
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    items = workloads.WORKLOADS[workload](seed)
    seconds = time.perf_counter() - t0
    return items, at_reference_speed(seconds, refs + reference_times(SETUP_REFS))


def probe_setups(workload: str, seed: int) -> list:
    """Set-up seconds measured in fresh interpreters, one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
            cwd=ROOT,
        )
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def run_pass(items, rec=None, repeat=1):
    """Run every item ``repeat`` times, back to back; outputs are checked
    afterwards.

    Returns (outcomes, latencies, start, end); an outcome is (result of
    the last repetition, error text or None), a latency is seconds per
    repetition.
    """
    import spans
    import workloads

    outcomes, latencies = [], []
    start = time.perf_counter()
    for k, item in enumerate(items):
        if rec is not None:
            rec.item_id = k
            sid = rec.begin(spans.ITEM_SPAN)
        t0 = time.perf_counter()
        try:
            for _ in range(repeat):
                result = workloads.run_item(item)
            outcome = (result, None)
        except Exception as exc:  # a raising item is counted as failed, the run goes on
            outcome = (None, f"raised {type(exc).__name__}: {exc}")
        latencies.append((time.perf_counter() - t0) / repeat)
        if rec is not None:
            rec.finish(sid)
        outcomes.append(outcome)
    return outcomes, latencies, start, time.perf_counter()


def check_pass(items, outcomes):
    """Per item: the list of problems (empty when the output is right)."""
    import checks

    out = []
    for item, (result, error) in zip(items, outcomes):
        if error is not None:
            out.append([error])
            continue
        try:
            out.append(checks.check_item(item, result))
        except Exception as exc:  # malformed output that the check could not read
            out.append([f"check raised {type(exc).__name__}: {exc}"])
    return out


def report_failures(items, problems, limit=10):
    shown = 0
    for item, probs in zip(items, problems):
        if probs and shown < limit:
            print(f"FAILED {item.kind} {item.label}: {'; '.join(probs)}")
            shown += 1


def run_untraced(workload, seed, seconds, items, setup_s):
    """Cycle through the items until every item has run once and --seconds
    have passed.  Each output is checked right after its item, and a
    reference block follows, both outside the timed region.  After its
    first run, an item shorter than MIN_RUN_S repeats within each timed
    run, and its latency is the time per repetition."""
    import workloads

    probes = probe_setups(workload, seed)
    runs = []  # (item index, latency, reference times right after it)
    repeats = [1] * len(items)  # set from each item's first run
    decisions, undecided = set(), set()  # indices of decision items
    failed = calls = 0
    busy = 0.0  # seconds spent in item calls, unscaled
    t_begin = time.perf_counter()
    while len(runs) < len(items) or time.perf_counter() - t_begin < seconds:
        k = len(runs) % len(items)
        outcomes, lat, _, _ = run_pass(items[k : k + 1], repeat=repeats[k])
        problems = check_pass(items[k : k + 1], outcomes)
        report_failures(items[k : k + 1], problems)
        runs.append((k, lat[0], reference_times(seconds=REF_SHARE * lat[0] * repeats[k])))
        calls += repeats[k]
        busy += lat[0] * repeats[k]
        if len(runs) <= len(items):
            repeats[k] = max(1, math.ceil(MIN_RUN_S / max(lat[0], 1e-9)))
        failed += bool(problems[0])
        result = outcomes[0][0]
        if workloads.is_decision(items[k]) and result is not None:
            decisions.add(k)
            if result[0].conditions["c2"].status not in ("true", "false"):
                undecided.add(k)

    # Each item run is scaled by the reference blocks on either side of
    # it; an item's latency is the median of its scaled runs.
    scaled = [[] for _ in items]
    for j, (k, lat, refs) in enumerate(runs):
        around = (runs[j - 1][2] if j else []) + refs
        scaled[k].append(at_reference_speed(lat, around))
    typical = [statistics.median(s) for s in scaled]
    counts = sorted(len(s) for s in scaled)
    p90 = statistics.quantiles(typical, n=10)[8]
    beyond = sum(1 for x in typical if x > p90)
    slowdown = statistics.median(t for _, _, refs in runs for t in refs) / (REF_MS / 1000)
    metrics = {
        "items_per_s": (len(typical) / sum(typical), "1/s"),
        "item_p50_ms": (statistics.median(typical) * 1000, "ms"),
        "item_p90_ms": (p90 * 1000, "ms"),
        "setup_s": (statistics.median([setup_s] + probes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "decided_share": (1 - len(undecided) / len(decisions) if decisions else 1.0, "share"),
    }
    notes = {
        "items_per_s": f"{len(items)} items over the sum of their latencies",
        "item_p50_ms": f"n={len(typical)} items, median of {counts[0]} to {counts[-1]} runs each",
        "item_p90_ms": f"n={len(typical)}, {beyond} beyond" + ("" if beyond >= 10 else " (fewer than 10: indicative only)"),
        "setup_s": f"median of {1 + len(probes)} set-ups",
        "decided_share": f"{len(decisions) - len(undecided)}/{len(decisions)} decision items with a certain c2",
    }
    wall = time.perf_counter() - t_begin
    print(f"workload {workload}  seed {seed}  items {len(items)}  timed item runs {len(runs)}  wall {wall:.1f} s")
    print(f"  times at reference speed; the reference loop ran at {slowdown:.2f}x its reference time (median)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:16} {value:12.4f} {unit:6} {notes.get(name, '')}")
    print(f"  {'failed_share':16} {failed / len(runs):12.4f} {'share':6} {failed}/{len(runs)} item runs")
    print(f"  {'undecided_share':16} {(len(undecided) / len(decisions) if decisions else 0):12.4f} {'share':6} "
          f"{len(undecided)}/{len(decisions)} decision items")
    print(f"  {'wall_items_per_s':16} {calls / busy:12.4f} {'1/s':6} "
          f"{calls} item calls per second spent in them, unscaled")
    return failed == 0, len(runs), failed, metrics


def run_traced(workload, seed, items):
    import spans
    import workloads

    outcomes, _, start, end = run_pass(items)
    untraced_wall = end - start
    problems = check_pass(items, outcomes)

    rec = spans.Recorder()
    restore = spans.install(rec)
    rec.active = True
    try:
        outcomes, _, start, end = run_pass(items, rec)
    finally:
        rec.active = False
        restore()
    problems += check_pass(items, outcomes)

    # operation counts come from a third pass without spans
    twins = {}
    counted_items = [workloads.Item(i.kind, i.label, spans.with_counting_fields(i.args, rec, twins)) for i in items]
    restore = spans.install_compose_counter(rec)
    rec.active = True
    try:
        outcomes, _, _, _ = run_pass(counted_items)
    finally:
        rec.active = False
        restore()
    problems += check_pass(counted_items, outcomes)
    report_failures(items * 3, problems)
    failed = sum(1 for p in problems if p)

    values = spans.per_layer_metrics(rec, start, end, untraced_wall)
    trace_problems = spans.trace_problems(rec, values)
    decision_items = sum(1 for i in items if workloads.is_decision(i))
    if values["decide.decide.calls"] != decision_items:
        trace_problems.append(f"{values['decide.decide.calls']} decide spans for {decision_items} decision items")
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{workload}-seed{seed}.tsv.gz"
    rec.write(span_file)

    print(f"workload {workload}  seed {seed}  traced items {len(items)}  spans {len(rec)} -> {span_file}")
    print(f"  traced wall {values['trace.wall_s']:.4f} s, untraced wall {untraced_wall:.4f} s, "
          f"overhead {values['trace.overhead_s']:.4f} s")
    layer_sum = sum(values[layer + ".self_s"] for layer in spans.LAYERS)
    print(f"  self times + uncovered - traced wall = "
          f"{layer_sum + values['trace.uncovered_s'] - values['trace.wall_s']:.3e} s")
    for problem in trace_problems:
        print(f"  TRACE PROBLEM: {problem}")
    print("  self time by layer:")
    for layer in spans.LAYERS:
        print(f"    {layer:10} {values[layer + '.self_s']:10.4f} s")
    print(f"    {'uncovered':10} {values['trace.uncovered_s']:10.4f} s")
    print("  absent: none; every per-layer metric is observed at a public function boundary,")
    print("  except the private fdalg._socle_certificate, whose time lands in fdalg.is_symmetric_oracle.self_s")
    metrics = {name: (values[name], unit) for name, unit in spans.declared_per_layer()}
    return failed == 0 and not trace_problems, 3 * len(items), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=json.loads(BENCHMARK_JSON.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    items, setup_s = setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    if args.trace:
        correct, attempted, failed, metrics = run_traced(args.workload, args.seed, items)
    else:
        correct, attempted, failed, metrics = run_untraced(args.workload, args.seed, args.seconds, items, setup_s)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
