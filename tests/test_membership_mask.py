"""The greedy-style loops' membership masks against the step they replaced.

Each loop keeps a bool mask of its solution and charges the candidates
outside it in one tick.  These tests run every such loop once as it is and
once with each step routed through ``reference_outside_gains`` /
``reference_best_gain`` (the unselected ids rebuilt from ``state.members``
and the checked ``state.gains``), and check the charge of each sampled step.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest

from subcover import (
    CoverageOracle,
    CoverInstance,
    RegularizedInstance,
    TruncatedOracle,
    convert_cover,
    convert_cover_randomized,
    distorted_greedy_max,
    greedy_cover,
    greedy_max,
    random_greedy_max,
    stochastic_greedy_cover,
    stochastic_max_subroutine,
    threshold_greedy_cover,
)
from subcover import monotone, nonmonotone, oracles, regularized

from util import (
    FallbackCoverage,
    random_coverage,
    random_graph,
    reference_best_gain,
    reference_outside_gains,
)


def assert_mask(state, inside):
    assert np.flatnonzero(inside).tolist() == sorted(state.members)


@contextlib.contextmanager
def reference_steps():
    """Route every masked step through the reference step.  Each step first
    checks the caller's mask against the solution, and every mask seen is
    checked again on exit.  Yields the list of steps taken, by helper name."""
    masks, steps = {}, []

    def check(name, state, inside):
        steps.append(name)
        masks[id(inside)] = (state, inside)
        assert_mask(state, inside)

    def best_gain(state, candidates, inside):
        check("best_gain", state, inside)
        return reference_best_gain(state, candidates)

    def outside_gains(state, candidates, inside):
        check("outside_gains", state, inside)
        return reference_outside_gains(state, candidates)

    def threshold_scan(ids, states, bar):
        # threshold greedy's mask only picks each pass's ids: the unselected ids in order
        steps.append("threshold_scan")
        members = states[0].members
        rest = np.array([x for x in range(states[0].oracle.n) if x not in members], dtype=np.int64)
        assert ids.tolist() == rest.tolist()
        yield from oracles._threshold_scan(rest, states, bar)

    with mock.patch.object(monotone, "_best_gain", best_gain), \
            mock.patch.object(regularized, "_outside_gains", outside_gains), \
            mock.patch.object(nonmonotone, "_outside_gains", outside_gains), \
            mock.patch.object(monotone, "_threshold_scan", threshold_scan):
        yield steps
    for state, inside in masks.values():
        assert_mask(state, inside)


def _coverage(rng, cls=CoverageOracle):
    base = random_coverage(rng, int(rng.integers(30, 61)), max_tags=40, max_per_element=6)
    tag_sets = base.tag_sets
    return lambda: cls(tag_sets)


def _truncated(rng):
    fresh = _coverage(rng)
    oracle = fresh()
    tau = 0.7 * oracle.peek(range(oracle.n))
    return lambda: TruncatedOracle(fresh(), tau)


def _cut(rng):
    base = random_graph(rng, int(rng.integers(30, 51)), 0.15, weighted=True)
    return base.clone


def _cut_view(rng):
    fresh = _cut(rng)
    n = fresh().n
    ground = sorted(rng.choice(n, size=n // 2, replace=False).tolist())
    return lambda: fresh().restrict(ground)


# each oracle kind builds, from an rng, a function returning fresh copies of one instance
ORACLES = {
    "coverage": _coverage,
    "generic": lambda rng: _coverage(rng, FallbackCoverage),
    "truncated": _truncated,
    "cut": _cut,
    "cut-view": _cut_view,
}
MONOTONE_KINDS = ("coverage", "generic", "truncated")


def _cover(solve):
    def run(oracle, rng):
        res = solve(CoverInstance(oracle, 0.8 * oracle.peek(range(oracle.n))))
        return res.solution, res.status, res.queries
    return run


def _maximize(solve):
    def run(oracle, rng):
        return solve(oracle, rng), oracle.query_count
    return run


# name: (runs on monotone oracles only, run(oracle, rng) -> comparable outcome)
SOLVERS = {
    "greedy_cover": (True, _cover(lambda inst: greedy_cover(inst, 0.1))),
    "threshold_greedy_cover": (True, _cover(lambda inst: threshold_greedy_cover(inst, 0.2))),
    "stochastic_greedy_cover": (True, _cover(
        lambda inst: stochastic_greedy_cover(inst, 0.2, 0.1, 0.2, seed=3))),
    "convert_cover": (True, _cover(lambda inst: convert_cover(
        stochastic_max_subroutine(0.2), inst, 0.3, 0.8, seed=1))),
    "convert_cover_randomized": (True, _cover(lambda inst: convert_cover_randomized(
        stochastic_max_subroutine(0.2), inst, 0.3, 0.1, 0.2, seed=2))),
    "greedy_max": (False, _maximize(lambda oracle, rng: greedy_max(oracle, 6))),
    "stochastic_max_subroutine": (False, _maximize(
        lambda oracle, rng: stochastic_max_subroutine(0.2)(oracle, 5, 7))),
    "distorted_greedy_max": (True, _maximize(lambda oracle, rng: distorted_greedy_max(
        RegularizedInstance(oracle, rng.uniform(0.0, 1.0, size=oracle.n)), 6, 0.2))),
    "random_greedy_max": (False, _maximize(lambda oracle, rng: random_greedy_max(
        oracle, 4, 11, ground=range(0, oracle.n, 2)))),
}
CASES = [(solver, kind) for solver, (monotone_only, _) in SOLVERS.items()
         for kind in ORACLES if kind in MONOTONE_KINDS or not monotone_only]


@pytest.mark.parametrize("solver, kind", CASES)
def test_masked_steps_match_the_reference(solver, kind):
    """Equal solutions, statuses and query counts through both steps, with
    the mask equal to the solution at every step."""
    run = SOLVERS[solver][1]
    for seed in range(3):
        fresh = ORACLES[kind](np.random.default_rng((seed, 21)))
        masked = run(fresh(), np.random.default_rng(seed))
        with reference_steps() as steps:
            reference = run(fresh(), np.random.default_rng(seed))
        assert steps
        assert masked == reference


def _charged_steps(solve):
    """solve() with every _best_gain step checked to charge, in one tick, the
    number of its candidates outside the solution; returns those numbers."""
    ticks, charges = [], []
    tick, best_gain = oracles.QueryCounter.tick, monotone._best_gain

    def counted(counter, queries=1):
        ticks.append(queries)
        tick(counter, queries)

    def step(state, candidates, inside):
        outside = sum(x not in state.members for x in candidates.tolist())
        start = len(ticks)
        found = best_gain(state, candidates, inside)
        assert ticks[start:] == [outside]
        charges.append(outside)
        return found

    with mock.patch.object(oracles.QueryCounter, "tick", counted), \
            mock.patch.object(monotone, "_best_gain", step):
        solve()
    return charges


class TestSampledStepCharge:
    # eight elements with a tag each: samples of three to five ids, and
    # runs long enough that some sample holds only members
    ORACLE = [[x] for x in range(8)]

    def test_subroutine_steps(self):
        charges = _charged_steps(
            lambda: stochastic_max_subroutine(0.2)(CoverageOracle(self.ORACLE), 6, 4))
        assert 0 in charges and max(charges) == 3

    def test_stochastic_greedy_cover_steps(self):
        inst = CoverInstance(CoverageOracle(self.ORACLE), 8.0)
        charges = _charged_steps(lambda: stochastic_greedy_cover(
            inst, 0.05, 0.1, 0.1, seed=0, initial_guess=8))
        assert 0 in charges and max(charges) == 5

    def test_step_over_members_only_charges_nothing(self):
        oracle = CoverageOracle(self.ORACLE)
        state = oracle.state(())
        inside = np.zeros(oracle.n, dtype=bool)
        for x in (1, 4):
            state.add(x)
            inside[x] = True
        before = oracle.query_count
        assert monotone._best_gain(state, np.array([1, 4]), inside) == (None, None)
        assert oracle.query_count == before
        assert monotone._best_gain(state, np.array([1, 2, 4, 6]), inside) == (2, 1.0)
        assert oracle.query_count == before + 2
