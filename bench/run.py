"""qprim benchmark: one workload, one serial process, one closed-loop caller.

    python3 bench/run.py --workload grid_acceptance --seed 1 --seconds 25 --trace 0

Set-up (import of the library plus input generation) is repeated
SETUP_REPS times and reported as its median.  The workload then runs in
passes over the same inputs until the next pass would overrun --seconds
(at least one pass); the full check of the first pass comes on top.
Every pass starts with the library's caches cleared, as a fresh CLI
call would.  Each output of the first pass is checked in full and every
later pass must reproduce its fingerprint; checks run outside the timed
region.

Times are reported in reference seconds.  The speed of a shared virtual
machine drifts by 10-30% over tens of seconds and can step within one,
so a fixed calibration burst is timed between operations, about one per
CAL_INTERVAL_S of the run, and every operation's time is scaled by
CAL_REF_S over the median of the bursts nearest to it.  The raw seconds
are printed alongside.

With --trace 0 the result carries the end-to-end metrics.  With --trace 1
untraced and traced passes alternate, the result carries the per-layer
metrics, and the spans of the first traced pass are written to
.bench_out/spans_<workload>.tsv.  The last line of stdout is the JSON
result; the lines before it print each metric with its unit.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LAYERS = ("qform", "classgroup", "repcount", "pprim", "oracle", "ternary", "intarith")
SETUP_REPS = 9
CAL_ITERATIONS = 10000
CAL_REF_S = 0.008  # one calibration burst at reference speed
CAL_INTERVAL_S = 0.1
CAL_NEAREST = 8

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "op_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "repcount.rep_profile.calls": "count",
    "repcount.rep_profile.self_s": "s",
    "repcount.rep_profile.bound_sum": "count",
    "repcount.rep_profile.values": "count",
    "oracle.brute_force_cpp.calls": "count",
    "oracle.brute_force_cpp.self_s": "s",
    "oracle.escalation.first_rung_calls": "count",
    "oracle.escalation.ceiling_rung_calls": "count",
    "oracle.escalation.hit_ratio": "ratio",
    "oracle.witness_headroom": "ratio",
    "repcount.enumerate_solutions.calls": "count",
    "repcount.enumerate_solutions.self_s": "s",
    "repcount.enumerate_solutions.solutions": "count",
    "repcount.rep_counts.calls": "count",
    "repcount.rep_counts.self_s": "s",
    "classgroup.element_order.calls": "count",
    "classgroup.element_order.self_s": "s",
    "classgroup.compose.calls": "count",
    "classgroup.compose.self_s": "s",
    "qform.reduce.calls": "count",
    "qform.reduce.self_s": "s",
    "classgroup.enumerate_classes.calls": "count",
    "classgroup.enumerate_classes.self_s": "s",
    "intarith.kronecker.calls": "count",
    "pprim.solve_two_square.calls": "count",
    "pprim.classify.calls": "count",
    "pprim.classify.self_s": "s",
    "pprim.route.symbol_minus_one": "count",
    "pprim.route.principal_square": "count",
    "pprim.route.order_four_square": "count",
    "pprim.route.order_four_square_failed": "count",
    "oracle.verify_classification_grid.self_s": "s",
    "pprim.classify_all.self_s": "s",
    "ternary.rep_count_table.calls": "count",
    "ternary.rep_count_table.self_s": "s",
    "ternary.rep_count_table.values": "count",
    "ternary.unimodular_match.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.missing_names": "count",
}


def import_qprim() -> SimpleNamespace:
    """Import every layer afresh, so each set-up repetition pays the import."""
    for name in [m for m in sys.modules if m == "qprim" or m.startswith("qprim.")]:
        del sys.modules[name]
    q = SimpleNamespace(**{name: importlib.import_module(f"qprim.{name}") for name in LAYERS})
    if not Path(q.qform.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qprim was imported from {q.qform.__file__}, not from {SRC}")
    return q


def library_caches(q: SimpleNamespace) -> list:
    """Every functools cache defined in the library."""
    found = {}
    for mod in vars(q).values():
        for value in vars(mod).values():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", "").startswith("qprim"):
                found[id(value)] = value
    return list(found.values())


def calibration_burst() -> float:
    """Seconds taken by a fixed piece of interpreter work.

    Integer arithmetic on a small int-to-int dict, then scattered writes
    to a large one, with the cyclic collector off, so nothing the library
    leaves in memory changes its cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    gcd = math.gcd
    start = time.perf_counter()
    for modulus in (4093, 1000003):
        table: dict[int, int] = {}
        acc = 0
        for i in range(CAL_ITERATIONS):
            v = (i * 7919) % modulus
            table[v] = table.get(v, 0) + gcd(i, 360)
            acc += i * i % 7
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class Calibration:
    """Calibration bursts spread evenly over the timed part of a run."""

    def __init__(self) -> None:
        self.at: list[float] = []  # when each burst ran
        self.bursts: list[float] = []  # how long it took
        self.last = time.perf_counter() - CAL_INTERVAL_S

    def burst(self) -> None:
        self.at.append(time.perf_counter())
        self.bursts.append(calibration_burst())
        self.last = time.perf_counter()

    def tick(self) -> None:
        """One burst for every CAL_INTERVAL_S since the last (at most 10)."""
        due = int((time.perf_counter() - self.last) / CAL_INTERVAL_S)
        for _ in range(min(due, 10)):
            self.burst()

    def scale(self, start: float, seconds: float) -> float:
        """Raw seconds measured from `start` in reference seconds, by the
        median of the CAL_NEAREST bursts on either side of their midpoint."""
        i = bisect.bisect(self.at, start + seconds / 2)
        near = self.bursts[max(0, i - CAL_NEAREST):i + CAL_NEAREST]
        return seconds * CAL_REF_S / statistics.median(near)


def run_pass(plan, caches, cal: Calibration, after) -> tuple[array, array]:
    """Issue every operation in order; returns the start and the raw
    seconds of each, as arrays so that keeping them costs little memory.

    Calibration bursts run between operations.  `after(i, output)` runs
    outside the timed region, right after the operation, so no output
    outlives its check and the heap an operation runs in does not grow
    with the pass.
    """
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    clock = time.perf_counter
    starts, seconds = array("d"), array("d")
    for i, op in enumerate(plan.ops):
        cal.tick()
        t0 = clock()
        try:
            result = op()
        except Exception as exc:  # a raised error is a failed operation, not a crash
            result = exc
        seconds.append(clock() - t0)
        starts.append(t0)
        after(i, result)
    cal.tick()
    return starts, seconds


def check_output(plan, i: int, result) -> bool:
    """Full check of one output of the first pass."""
    if isinstance(result, Exception):
        print(f"operation {i} raised:", file=sys.stderr)
        traceback.print_exception(result, file=sys.stderr)
        return False
    try:
        good = bool(plan.check_op(i, result))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        good = False
    if not good:
        print(f"operation {i} failed its output check", file=sys.stderr)
    return good


def digest(result) -> bytes:
    """A fingerprint of an output, so later passes are compared without
    keeping earlier outputs alive."""
    return hashlib.sha256(repr(result).encode()).digest()


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer_metrics(plan, traced: list[dict], overhead: float, missing: list[str]) -> dict:
    """Per-layer metrics: counts from the first traced pass, times as medians."""
    first = traced[0]
    out = {}
    for name in PER_LAYER:
        if name.endswith("self_s"):
            out[name] = statistics.median(t.get(name, 0.0) for t in traced)
        else:
            out[name] = first.get(name, 0)
    calls = sum(v for k, v in first.items() if k.startswith("oracle.brute_force_cpp.bound."))
    hits = sum(v for k, v in first.items() if k.startswith("oracle.brute_force_cpp.hits."))
    if plan.rungs is not None:
        first_rung, ceiling = plan.rungs
        out["oracle.escalation.first_rung_calls"] = first.get(f"oracle.brute_force_cpp.bound.{first_rung}", 0)
        out["oracle.escalation.ceiling_rung_calls"] = first.get(f"oracle.brute_force_cpp.bound.{ceiling}", 0)
    out["oracle.escalation.hit_ratio"] = hits / calls if calls else 0.0
    out["trace.overhead_ratio"] = overhead
    out["trace.missing_names"] = len(missing)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "qprim" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    build = WORKLOADS[args.workload]
    cal = Calibration()
    setup_times = []  # (start, raw seconds)
    for _ in range(SETUP_REPS):
        q = plan = None  # one set-up's objects alive at a time
        gc.collect()
        cal.burst()  # set-ups are short: calibrate next to each one
        t0 = time.perf_counter()
        q = import_qprim()
        plan = build(q, args.seed, args.size)
        setup_times.append((t0, time.perf_counter() - t0))
    caches = library_caches(q)

    tracer = Tracer() if args.trace else None
    plain, traced = [], []  # per pass: starts and raw seconds of the operations
    traced_summaries, kept_spans = [], None
    reference: list[bytes] = []  # fingerprints of the first pass's outputs
    ok: list[bool] = []  # whether each output of the first pass passed its check
    summaries: list = []
    later: list[bool] = []

    def check_first(i, result):
        reference.append(digest(result))
        ok.append(check_output(plan, i, result))
        summaries.append(plan.summary(result) if ok[-1] else None)

    def check_later(i, result):
        later.append(ok[i] and digest(result) == reference[i])

    problems: list[str] = []
    derived: dict = {}
    attempted = failed = 0
    raw_walls = []
    start = time.perf_counter()
    while True:
        first = not reference
        after = check_first if first else check_later
        later.clear()
        pass_start = time.perf_counter()
        if tracer is not None and len(plain) > len(traced):
            tracer.reset()
            with tracer.installed():
                times = run_pass(plan, caches, cal, after)
            traced.append(times)
            traced_summaries.append(tracer.summary())
            if kept_spans is None:
                kept_spans = tracer.spans
        else:
            times = run_pass(plan, caches, cal, after)
            plain.append(times)
        raw_walls.append(sum(times[1]))
        if first:
            if all(ok):  # the pass-level checks need every summary
                problems = plan.check_pass(summaries)
                derived = plan.layer_metrics(summaries)
            start += time.perf_counter() - pass_start - raw_walls[-1]  # checking is not budgeted
            pass_ok = ok
        else:
            pass_ok = later
        attempted += len(pass_ok)
        failed += len(pass_ok) if problems else pass_ok.count(False)  # a wrong aggregate fails the pass
        elapsed = time.perf_counter() - start
        if (tracer is None or traced) and elapsed + statistics.median(raw_walls) > args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the summing up
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = failed == 0
    print(f"calibration: {len(cal.bursts)} bursts, median {statistics.median(cal.bursts) * 1e3:.4g} ms; "
          f"raw seconds: pass {statistics.median(raw_walls):.6g}, "
          f"setup {statistics.median(d for _, d in setup_times):.6g}")
    scaled = [[cal.scale(t, d) for t, d in zip(*times)] for times in plain]
    walls = [sum(times) for times in scaled]
    if tracer is None:
        op_times = [statistics.median(per_pass) for per_pass in zip(*scaled)]
        metrics = {
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(op_times) * 1e3,
            "op_p95_ms": quantile(op_times, 95) * 1e3,
            "op_p99_ms": quantile(op_times, 99) * 1e3,
            "setup_s": statistics.median(cal.scale(t, d) for t, d in setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        if len({tuple((k, v) for k, v in s.items() if not k.endswith("self_s")) for s in traced_summaries}) > 1:
            print("warning: counts differ between traced passes", file=sys.stderr)
        for name in tracer.missing:
            print(f"trace: skipped {name}, which no longer exists", file=sys.stderr)
        traced_walls = []
        for times, summary in zip(traced, traced_summaries):
            wall = sum(cal.scale(t, d) for t, d in zip(*times))
            factor = wall / sum(times[1])
            traced_walls.append(wall)
            for name in summary:
                if name.endswith(".self_s"):
                    summary[name] *= factor
        overhead = statistics.median(traced_walls) / statistics.median(walls)
        metrics = per_layer_metrics(plan, traced_summaries, overhead, tracer.missing)
        metrics.update(derived)
        units = PER_LAYER
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.spans = kept_spans
        tracer.write(out_dir / f"spans_{args.workload}.tsv")

    passes = len(plain) + len(traced)
    print(f"workload {args.workload} seed {args.seed} passes {passes} operations/pass {len(plan.ops)}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"fail_rate {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
