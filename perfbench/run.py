"""Layered benchmark for subcover; see README.md in this directory.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload coverage-monotone --seed 0 --seconds 25 --trace 0

One run sets up the workload's instances from ``--seed``, then repeats
rounds of the workload's calls while another round fits in ``--seconds``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer ones); the line before it is the run record,
which is also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "solve_rel": "ratio",
    "queries": "count",
    "solution_size": "count",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
INTEGER_LOOPS, COPY_LOOPS = 20_000, 300  # about 10 ms each: one calibration slice
CALIBRATE_EVERY_S = 0.25  # a slice before a job when this long has passed since the last


def _import_program():
    """Put the checkout's sources first on the path, or exit non-zero."""
    if not (ROOT / "src" / "subcover" / "__init__.py").is_file() or not (
            ROOT / "tests" / "util.py").is_file():
        sys.exit(f"perfbench: {ROOT} holds no src/subcover package or tests/util.py")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).parent)]


CALIBRATION_SET = frozenset(range(0, 3000, 3))
CALIBRATION_DICT = {i: i for i in range(2000)}


def calibrate():
    """Time one calibration slice: a fixed integer-and-dict loop, then fixed
    set and dict copies and small sorts, each about half of the slice.

    ``solve_rel`` divides a round's call time by the mean slice time of the
    same round; slices run between the calls.  Wall time on a small shared
    VM drifts: one fixed ``greedy_cover`` solve (AC3, eps=0.05) ranged from
    0.39 to 0.91 s across processes a few seconds apart on a 2-vCPU VM,
    while host steal time barely moved and process CPU time tracked wall
    time exactly.  The host switches between two speeds 1.5-2x apart, in
    spells from under a second to minutes.  In the slow spells the integer
    loop alone slowed down more than the solvers and the container copies
    alone less, so a slice holds both.
    """
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(INTEGER_LOOPS):
        key = i & 1023
        acc += ((i * 2654435761) & 0xFFFFFFFF).bit_count()
        table[key] = table.get(key, 0) + 1
    for i in range(COPY_LOOPS):
        set(CALIBRATION_SET)
        dict(CALIBRATION_DICT)
        sorted(((i * 31 + j) % 997, j) for j in range(60))
    return time.perf_counter() - start


@dataclass
class Round:
    wall_s: float = 0.0
    times: list = field(default_factory=list)  # seconds per job
    slices: list = field(default_factory=list)  # calibration times between jobs
    records: list = field(default_factory=list)  # (label, record) per job
    queries: int = 0
    size: int = 0
    failures: list = field(default_factory=list)

    @property
    def solve_s(self):
        return sum(self.times)

    @property
    def calibration_s(self):
        return statistics.mean(self.slices)


def run_round(workload):
    from workloads import Outcome

    jobs = workload.jobs()
    started = time.perf_counter()
    rnd = Round()
    last_slice = -math.inf
    for job in jobs:
        if time.perf_counter() - last_slice >= CALIBRATE_EVERY_S:
            rnd.slices.append(calibrate())
            last_slice = time.perf_counter()
        start = time.perf_counter()
        try:
            result = job.call()
        except Exception as exc:  # a failing call is counted, not fatal
            rnd.times.append(time.perf_counter() - start)
            outcome = Outcome(False, 0, 0, ("raised", type(exc).__name__), repr(exc))
        else:
            rnd.times.append(time.perf_counter() - start)
            try:
                outcome = job.check(result)
            except Exception as exc:
                outcome = Outcome(False, 0, 0, ("check raised", type(exc).__name__), repr(exc))
        rnd.records.append((job.label, outcome.record))
        rnd.queries += outcome.queries
        rnd.size += outcome.size
        if not outcome.ok:
            rnd.failures.append(f"{job.label}: {outcome.reason}")
    rnd.slices.append(calibrate())
    rnd.wall_s = time.perf_counter() - started
    return rnd


def measure(workload, budget_s):
    """Run rounds while another round of typical length fits in budget_s."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(workload))
        typical = statistics.median(r.wall_s for r in rounds)
        if time.perf_counter() - start + typical > budget_s:
            return rounds


def fastest_total(rounds):
    """Raw solve time: each call at its fastest repetition in the run, summed.

    The host's slowdowns only ever add time, so a call's fastest repetition
    is the closest to its undisturbed time.  This figure is recorded, not
    gated: when a slow spell covers a whole run it still moves by 1.5x.
    """
    return sum(min(times) for times in zip(*(r.times for r in rounds)))


def digest(records):
    return hashlib.sha256(repr(records).encode()).hexdigest()[:16]


def tally(rounds, reference):
    """attempted, failed and failure notes; a job whose output differs from
    the first round's counts as failed."""
    attempted = failed = 0
    notes = []
    for rnd in rounds:
        attempted += len(rnd.records)
        failed += len(rnd.failures)
        notes.extend(rnd.failures)
        for (label, record), (_, first) in zip(rnd.records, reference.records):
            if record != first:
                failed += 1
                notes.append(f"{label}: output differs from the first round")
    return attempted, failed, notes


def peak_rss_mb():
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def roadmap_counts(rnd):
    from workloads import ROADMAP_COUNTS

    found = {label: record[2] for label, record in rnd.records if label in ROADMAP_COUNTS}
    return {label: {"expected": expected, "got": found[label]}
            for label, expected in ROADMAP_COUNTS.items() if label in found}


def per_layer_unit(name):
    if name.endswith((".calls", ".queries")):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ms", "ms_sum")):
        return "ms"
    if name.endswith((".us", "us_per_query")):
        return "us"
    return "ratio"


def main(argv=None):
    from tracing import Tracer
    from workloads import WORKLOADS, make_workload

    parser = argparse.ArgumentParser(description="Layered benchmark for subcover.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal instance sizes, for the benchmark's own test")
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workload = make_workload(args.workload, str(OUT_DIR), smoke=args.smoke)
    setup_times = workload.setup(args.seed)

    sweep = args.workload == "sweep"
    share = args.seconds / (3 if args.trace and sweep else 2 if args.trace else 1)
    rounds = measure(workload, share)
    first = rounds[0]
    solve_s = fastest_total(rounds)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "digest": digest(first.records),
        "solve_s": solve_s,
        "round_s": [r.solve_s for r in rounds],
        "calibration_s": [r.calibration_s for r in rounds],
        "setup_s": setup_times,
    }
    if args.seed == 0 and not args.smoke:
        details["roadmap_counts"] = roadmap_counts(first)

    if args.trace:
        layer = {
            "solve_s": solve_s,
            "oracles.us_per_query": solve_s * 1e6 / max(first.queries, 1),
            "harness.cell_ms_sum": statistics.median(workload.cell_ms) if sweep else 0.0,
            "harness.parallel_efficiency": statistics.median(
                cell_ms / (workload.workers * r.solve_s * 1000.0)
                for cell_ms, r in zip(workload.cell_ms, rounds)) if sweep else 0.0,
        }
        baseline_s = solve_s
        if sweep:
            workload.workers = 1
            baseline = measure(workload, share)
            baseline_s = fastest_total(baseline)
            rounds += baseline
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, share)
        finally:
            tracer.uninstall()
        rounds += traced
        layer.update(tracer.layer_metrics(len(traced)))
        layer["trace.solve_s"] = fastest_total(traced)
        layer["trace.overhead_s"] = layer["trace.solve_s"] - baseline_s
        details["spans"] = tracer.spans
        details["oracle_calls"] = [[index, method, count, seconds] for (index, method), (
            count, seconds) in tracer.oracle_calls.items()]

    attempted, failed, notes = tally(rounds, first)
    details.update(attempted=attempted, failed=failed, error_frac=failed / attempted,
                   failures=notes[:20])
    if args.trace:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in sorted(layer.items())}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "solve_rel": statistics.median(r.solve_s / r.calibration_s for r in rounds),
            "queries": first.queries,
            "solution_size": first.size,
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {**details, "metrics": metrics, "job_s": [r.times for r in rounds],
              "slices_s": [r.slices for r in rounds]}
    record_path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    details.pop("spans", None)
    details.pop("oracle_calls", None)
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    _import_program()
    sys.exit(main())
