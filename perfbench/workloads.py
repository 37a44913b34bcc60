"""The benchmark's four workloads.

A workload builds its instances from the workload seed (``setup``) and then
returns the list of jobs one round runs (``jobs``).  A job is one public-API
call plus the check of its output; the runner times the call and runs the
check outside the timed region.  Every solver seed inside a job is fixed, so
the seed passed to ``setup`` changes only the generated instances.

Default seed 0 reproduces the ROADMAP instances: the AC3 coverage instance
(coverage seed 0) and the AC6 stand-in graph (graph seed 7).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from subcover import cli, dataio, monotone, nonmonotone, oracles, regularized
from subcover.oracles import TOL, CoverInstance, RegularizedInstance
from subcover.results import Status
from util import preferential_attachment_graph  # tests/util.py, imported as is

GRAPH_SEED = 7  # seed of the AC6 stand-in graph at workload seed 0
SETUP_REPEATS = 5  # set-ups per run; setup_s is their median

# exact query counts of the ROADMAP baseline at workload seed 0 (not gated)
ROADMAP_COUNTS = {
    "greedy_cover eps=0.05": 374695,
    "stream_cover fex seed=3": 177461,
    "stream_cover dg seed=0": 161564,
}


@dataclass
class Outcome:
    """What a job's check makes of one call."""

    ok: bool
    queries: int
    size: int
    record: tuple  # enters the round digest
    reason: str = ""


@dataclass
class Job:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def _timed_setups(build):
    """Run build() SETUP_REPEATS times; return the last result and every duration."""
    durations = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        built = build()
        durations.append(time.perf_counter() - start)
    return built, durations


def _cover_check(value_of):
    """Solved, and the uncounted re-check value_of(solution) reaches the target."""

    def check(res):
        value = value_of(res.solution)
        ok = res.status == Status.SOLVED and value >= res.target - TOL
        reason = "" if ok else f"status {res.status}, value {value} vs target {res.target}"
        return Outcome(ok, res.queries, res.size,
                       (res.solution, str(res.status), res.queries), reason)

    return check


class CoverageMonotone:
    """AC3 coverage instance: monotone cover solvers and distorted cover."""

    name = "coverage-monotone"

    def __init__(self, smoke=False):
        self.m, self.n, self.head = (400, 200, 25) if smoke else (4000, 2000, 250)

    def _build(self, seed):
        base = oracles.make_synthetic_summarization(self.m, self.n, 0.4, 0.002, self.head, seed=seed)
        f_all = base.peek(range(base.n))
        max_single = max(base.peek((u,)) for u in range(base.n))
        costs = np.random.default_rng((seed, 1)).uniform(0.0, 1.0, size=base.n)
        return base, f_all, max_single, costs

    def setup(self, seed):
        (self.base, f_all, max_single, self.costs), times = _timed_setups(
            lambda: self._build(seed))
        self.tau = 0.6 * f_all
        self.guess = self.tau / max_single
        self.reg_tau = 0.3 * f_all
        return times

    def jobs(self):
        tau, guess = self.tau, self.guess
        jobs = []

        def cover(label, run):
            oracle = self.base.clone()
            jobs.append(Job(label, lambda: run(CoverInstance(oracle, tau)), _cover_check(oracle.peek)))

        for eps in (0.05, 0.2):
            cover(f"greedy_cover eps={eps}", lambda inst, e=eps: monotone.greedy_cover(inst, e))
            cover(f"threshold_greedy_cover eps={eps}",
                  lambda inst, e=eps: monotone.threshold_greedy_cover(inst, e))
        for seed in (0, 1):
            cover(f"stochastic_greedy_cover seed={seed}",
                  lambda inst, s=seed: monotone.stochastic_greedy_cover(
                      inst, 0.2, 0.1, 0.1, s, initial_guess=guess))
            cover(f"convert_cover seed={seed}",
                  lambda inst, s=seed: monotone.convert_cover(
                      monotone.stochastic_max_subroutine(0.2), inst, 0.1, 0.8,
                      seed=s, initial_budget=guess))
        cover("convert_cover_randomized seed=0",
              lambda inst: monotone.convert_cover_randomized(
                  monotone.stochastic_max_subroutine(0.2), inst, 0.1, 0.1, 0.2,
                  seed=0, initial_budget=guess))

        eps = 0.2
        scale = (1.0 - eps) / math.log(1.0 / eps)  # distorted_cover's gamma / beta
        oracle = self.base.clone()
        inst = RegularizedInstance(oracle, self.costs, tau=self.reg_tau)

        jobs.append(Job("distorted_cover eps=0.2",
                        lambda: regularized.distorted_cover(inst, eps, 0.5),
                        _cover_check(lambda s: oracle.peek(s) - scale * inst.cost(s))))
        return jobs


def _stream_graph(seed, smoke):
    return (preferential_attachment_graph(300, 5, seed) if smoke
            else preferential_attachment_graph(4039, 22, seed))


class CutStream:
    """AC6 stand-in graph: stream cover with the fex, dg and rg subroutines."""

    name = "cut-stream"

    def __init__(self, smoke=False):
        self.smoke = smoke

    def _build(self, seed):
        base = _stream_graph(GRAPH_SEED + seed, self.smoke)
        reference = base.peek(nonmonotone.double_greedy_max(base.clone(), seed=0))
        return base, 0.9 * reference

    def setup(self, seed):
        (self.base, self.tau), times = _timed_setups(lambda: self._build(seed))
        return times

    def jobs(self):
        jobs = []
        for kind, seed in (("fex", 3), ("dg", 0), ("dg", 1), ("rg", 0), ("rg", 1)):
            oracle = self.base.clone()
            inst = CoverInstance(oracle, self.tau)
            sub = nonmonotone.smp_subroutine(kind, timeout_ms=60000)
            jobs.append(Job(
                f"stream_cover {kind} seed={seed}",
                lambda inst=inst, sub=sub, s=seed: nonmonotone.stream_cover(
                    inst, 0.5, 0.5, sub, seed=s, initial_guess=1.45),
                _cover_check(oracle.peek),
            ))
        return jobs


class CutExact:
    """Exhaustive search over the top-G hubs of several graphs of the AC6 family.

    One graph's search cost varies by about 18% (coefficient of variation)
    with the graph seed, so a round sums the searches over several graphs.
    """

    name = "cut-exact"

    def __init__(self, smoke=False):
        self.smoke = smoke
        self.graphs, self.hubs = (2, 12) if smoke else (14, 40)

    def setup(self, seed):
        self.instances = []
        times = []
        for j in range(self.graphs):
            start = time.perf_counter()
            base = _stream_graph(GRAPH_SEED + seed * self.graphs + j, self.smoke)
            degree = np.array([len(nbrs) for nbrs in base.adjacency])
            ground = tuple(sorted(np.argsort(-degree, kind="stable")[: self.hubs].tolist()))
            times.append(time.perf_counter() - start)
            self.instances.append((base, ground))
        return times

    def jobs(self):
        jobs = []
        for j, (base, ground) in enumerate(self.instances):
            found = {}  # values of this graph's searches, filled by the checks
            for name, run in (
                ("exact_max_search", lambda o, g: nonmonotone.exact_max_search(
                    o, g, len(g), timeout_ms=60000)),
                ("fast_exact_max_search", lambda o, g: nonmonotone.fast_exact_max_search(
                    o, g, len(g), timeout_ms=60000)),
                ("double_greedy_max", lambda o, g: nonmonotone.double_greedy_max(o, 0, ground=g)),
                ("random_greedy_max", lambda o, g: nonmonotone.random_greedy_max(
                    o, len(g), 0, ground=g)),
            ):
                oracle = base.clone()
                jobs.append(Job(f"{name} graph={j}",
                                lambda run=run, o=oracle, g=ground: run(o, g),
                                self._check(name, oracle, ground, found)))
        return jobs

    @staticmethod
    def _check(name, oracle, ground, found):
        """Exact searches must agree, match their own value and not lose to
        either greedy; the greedy routines run after them on the same ground."""

        def check(res):
            queries = oracle.query_count
            if isinstance(res, nonmonotone.SmpSearch):
                solution = res.solution
                value = oracle.peek(solution)
                ok = not res.timed_out and value == res.value
                reason = "" if ok else f"timed out {res.timed_out}, value {res.value} vs {value}"
                if ok and "exact" in found and value != found["exact"]:
                    ok, reason = False, f"{name} value {value} != exact {found['exact']}"
                found.setdefault("exact", value)
                status = "timeout" if res.timed_out else "done"
            else:
                solution = res
                value = oracle.peek(solution)
                ok = set(solution) <= set(ground) and value <= found.get("exact", math.inf) + TOL
                reason = "" if ok else f"{name} value {value} beats exact {found.get('exact')}"
                status = "done"
            return Outcome(ok, queries, len(solution), (solution, status, queries), reason)

        return check


class Sweep:
    """`subcover run` in process on a generated tags file, two workers."""

    name = "sweep"
    algorithms = ("greedy", "thresh", "stoch", "convert", "convert-rand")
    eps_values = ("0.1", "0.2")
    seeds = ("0", "1")
    cells = len(algorithms) * len(eps_values) * len(seeds)

    def __init__(self, out_dir, smoke=False):
        self.out_dir = out_dir
        self.m, self.n, self.head = (200, 100, 12) if smoke else (2000, 1000, 125)
        self.workers = 2
        self.cell_ms = []  # summed wall_ms of the rows, per round

    def _write_tags(self, seed):
        tags = oracles.make_synthetic_summarization(self.m, self.n, 0.4, 0.002, self.head, seed=seed)
        with open(self.tags_path, "w", encoding="utf-8") as handle:
            for elem, elem_tags in enumerate(tags.tag_sets):
                handle.write(" ".join(map(str, (elem, *sorted(elem_tags)))) + "\n")

    def setup(self, seed):
        self.tags_path = os.path.join(self.out_dir, f"sweep-tags-{seed}.txt")
        self.csv_path = os.path.join(self.out_dir, f"sweep-runs-{seed}.csv")
        _, times = _timed_setups(lambda: self._write_tags(seed))
        return times

    def argv(self):
        return ["run", "--dataset", self.tags_path, "--kind", "tags",
                "--alg", ",".join(self.algorithms), "--eps", ",".join(self.eps_values),
                "--tau-frac", "0.6", "--seeds", ",".join(self.seeds),
                "--jobs", str(self.workers), "--out", self.csv_path]

    def jobs(self):
        return [Job("subcover run", lambda: cli.main(self.argv()), self._check)]

    def _check(self, code):
        rows = dataio.read_results_csv(self.csv_path)
        bad = [row for row in rows if row.status != str(Status.SOLVED)]
        ok = code == 0 and len(rows) == self.cells and not bad
        reason = "" if ok else f"exit {code}, {len(rows)} rows, {len(bad)} not Solved"
        self.cell_ms.append(sum(row.wall_ms for row in rows))
        record = tuple((r.algorithm, r.eps, r.seed, r.f_value, r.size, r.queries, r.status)
                       for r in rows)
        return Outcome(ok, sum(r.queries for r in rows), sum(r.size for r in rows), record, reason)


def make_workload(name, out_dir, smoke=False):
    if name == Sweep.name:
        return Sweep(out_dir, smoke)
    return {cls.name: cls for cls in (CoverageMonotone, CutStream, CutExact)}[name](smoke)


WORKLOADS = (CoverageMonotone.name, CutStream.name, CutExact.name, Sweep.name)
