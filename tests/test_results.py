"""The result contract every cover entry point keeps: what a BicriteriaResult
reports, measured the same way in each solver."""

import math

import numpy as np
import pytest

from subcover import (
    CoverageOracle,
    CoverInstance,
    RegularizedInstance,
    Status,
    convert_cover,
    convert_cover_randomized,
    distorted_cover,
    greedy_cover,
    greedy_max,
    smp_subroutine,
    stochastic_greedy_cover,
    stochastic_max_subroutine,
    stream_cover,
    threshold_greedy_cover,
)
from subcover.oracles import TOL

from util import brute_max_all, random_coverage, random_graph

EPS = 0.2


def _cover(run):
    """A solver on a CoverInstance, re-checked by peek, aiming at (1 - eps) tau."""
    return lambda oracle, tau: (run(CoverInstance(oracle, tau)), oracle.peek, (1.0 - EPS) * tau)


def _distorted(oracle, tau):
    costs = np.random.default_rng(oracle.n).uniform(0.0, 0.3, size=oracle.n)
    inst = RegularizedInstance(oracle, costs, tau=tau)
    scale = (1.0 - EPS) / math.log(1.0 / EPS)  # gamma / beta of distorted_cover
    return (distorted_cover(inst, EPS, 0.5),
            lambda S: oracle.peek(S) - scale * inst.cost(S), (1.0 - EPS) * tau)


def _stream(kind, ratio, timeout_ms=None):
    def solve(oracle, tau):
        res = stream_cover(CoverInstance(oracle, tau), EPS, 0.5,
                           smp_subroutine(kind, timeout_ms=timeout_ms), seed=1)
        return res, oracle.peek, ratio * (1.0 - EPS) * tau

    return solve


MONOTONE_SOLVERS = {
    "greedy": _cover(lambda inst: greedy_cover(inst, EPS)),
    "thresh": _cover(lambda inst: threshold_greedy_cover(inst, EPS)),
    "stoch": _cover(lambda inst: stochastic_greedy_cover(inst, EPS, 0.1, 0.5, seed=2)),
    "convert greedy_max": lambda oracle, tau: (
        convert_cover(greedy_max, CoverInstance(oracle, tau), 0.5, 0.9), oracle.peek, 0.9 * tau),
    "convert stochastic": lambda oracle, tau: (
        convert_cover(stochastic_max_subroutine(EPS), CoverInstance(oracle, tau), 0.5, 0.9,
                      seed=3), oracle.peek, 0.9 * tau),
    "convert-rand": _cover(lambda inst: convert_cover_randomized(
        stochastic_max_subroutine(EPS / 2.0), inst, 0.5, 0.1, EPS, seed=4)),
    "distorted": _distorted,
}
STREAM_SOLVERS = {
    "stream ex": _stream("ex", 1.0),
    "stream ex timeout 0": _stream("ex", 1.0, timeout_ms=0.0),
    "stream fex": _stream("fex", 1.0),
    "stream dg": _stream("dg", 0.5),
    "stream rg": _stream("rg", 1.0 / math.e),
}
FRACTIONS = (0.6, 1.0, 1.5)  # of f(U) or the maximum cut; 1.5 cannot be reached


def _corpus():
    for seed in range(3):
        oracle = random_coverage(np.random.default_rng(seed), 10)
        for frac in FRACTIONS:
            for name, solve in MONOTONE_SOLVERS.items():
                yield name, oracle.clone(), frac * oracle.peek(range(oracle.n)), solve
        graph = random_graph(np.random.default_rng(100 + seed), 10, 0.4)
        best, _ = brute_max_all(graph)
        for frac in FRACTIONS:
            for name, solve in STREAM_SOLVERS.items():
                yield name, graph.clone(), frac * best, solve


def test_every_cover_result_reports_the_same_measures():
    seen = set()
    for name, oracle, tau, solve in _corpus():
        before = oracle.query_count
        res, recheck, target = solve(oracle, tau)
        where = f"{name} at tau {tau}"
        assert res.solution == tuple(sorted(set(res.solution))), where
        assert all(type(x) is int for x in res.solution), where
        assert res.size == len(res.solution), where
        assert res.queries == oracle.query_count - before, where
        assert res.f_value == recheck(res.solution), where
        assert res.target == target, where
        assert res.wall_ms >= 0.0, where
        if res.status == Status.SOLVED:
            assert res.f_value >= res.target - TOL, where
        seen.add(res.status)
    assert seen == set(Status)


ZERO_TAU_CHARGES = {
    "greedy": 0, "thresh": 0, "stoch": 0, "convert-rand": 0,
    "convert greedy_max": 1, "convert stochastic": 1, "distorted": 1,
    "stream ex": 1, "stream fex": 1, "stream dg": 1, "stream rg": 1,
}


@pytest.mark.parametrize("name, charge", ZERO_TAU_CHARGES.items(), ids=list(ZERO_TAU_CHARGES))
def test_zero_threshold_returns_the_empty_set_at_its_charge(name, charge):
    """Convert, distorted and stream charge the eval of the empty set; the rest
    return before any query."""
    if name.startswith("stream"):
        oracle = random_graph(np.random.default_rng(5), 6, 0.5)
    else:
        oracle = CoverageOracle([{0, 1}, {1}, {2}])
    res, _, _ = {**MONOTONE_SOLVERS, **STREAM_SOLVERS}[name](oracle, 0.0)
    assert (res.status, res.solution, res.queries) == (Status.SOLVED, (), charge)
    assert oracle.query_count == charge
