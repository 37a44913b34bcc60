"""The exact searches' optima, cross-checked against independent enumerations."""

import numpy as np
import pytest

from subcover import (
    CoverageOracle,
    CoverInstance,
    GraphCutOracle,
    RegularizedInstance,
    SetFunctionOracle,
    exact_max_search,
    exact_min_cover,
)

from util import (
    brute_max_regularized,
    brute_max_subsets,
    brute_min_cover,
    brute_min_cover_regularized,
    random_coverage,
    random_graph,
)


def four_cycle():
    return GraphCutOracle(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


class RegularizedObjective(SetFunctionOracle):
    """g - c of a RegularizedInstance as an oracle: submodular, not
    monotone, and negative where the costs outweigh the gains."""

    nonnegative = False

    def __init__(self, inst):
        super().__init__(inst.oracle.n)
        self.inst = inst

    def _value(self, members):
        return self.inst.oracle.peek(members) - self.inst.cost(members)


def cover_corpus(seed):
    """(oracle, tau) pairs on 5-10 elements: coverage, unit cuts and
    real-weighted cuts, each at feasible taus up to its maximum and at an
    infeasible tau just above it."""
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(8):
        n = int(rng.integers(5, 11))
        for oracle in (random_coverage(rng, n), random_graph(rng, n, 0.5),
                       random_graph(rng, n, 0.5, weighted=True)):
            best, _ = brute_max_subsets(oracle, n)
            taus = [float(rng.uniform(0.3, 0.9)) * best, best, best + 0.5]
            corpus.extend((oracle, tau) for tau in taus)
    return corpus


class TestExactMinCover:
    def test_zero_threshold(self):
        oracle = CoverageOracle([{0}, {1}])
        res = exact_min_cover(CoverInstance(oracle, 0.0))
        assert res.solution == () and oracle.query_count == 1

    def test_prefers_single_covering_element(self):
        oracle = CoverageOracle([{0}, {1}, {0, 1}])
        res = exact_min_cover(CoverInstance(oracle, 2.0))
        assert res.solution == (2,)

    def test_four_cycle_full_cut(self):
        res = exact_min_cover(CoverInstance(four_cycle(), 4.0))
        assert res.solution in ((0, 2), (1, 3)) and res.value == 4.0

    def test_infeasible_returns_none(self):
        oracle = CoverageOracle([{0}, {1}])
        assert exact_min_cover(CoverInstance(oracle, 5.0)) is None
        assert oracle.query_count == 0  # f(U) < tau needs no search

    def test_matches_independent_enumeration(self):
        infeasible = 0
        for oracle, tau in cover_corpus(21):
            res = exact_min_cover(CoverInstance(oracle.clone(), tau))
            ref = brute_min_cover(oracle, tau)
            if ref is None:
                assert res is None
                infeasible += 1
            else:
                assert len(res.solution) == len(ref)
                assert res.value >= tau - 1e-9
                assert oracle.peek(res.solution) == pytest.approx(res.value)
        assert infeasible == 24  # every tau above the maximum, monotone and cut


class TestExactMaxCardinality:
    def test_zero_budget(self):
        res = exact_max_search(four_cycle(), None, 0)
        assert res.solution == ()

    def test_four_cycle_pair(self):
        res = exact_max_search(four_cycle(), None, 2)
        assert res.value == 4.0

    def test_monotone_full_budget_reaches_total(self):
        rng = np.random.default_rng(22)
        oracle = random_coverage(rng, 7)
        res = exact_max_search(oracle.clone(), None, 7)
        assert res.value == oracle.peek(range(7))

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(23)
        oracle = random_coverage(rng, 7)
        values = [exact_max_search(oracle.clone(), None, k).value for k in range(8)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            oracle = random_graph(rng, 7, 0.5, weighted=True)
            res = exact_max_search(oracle.clone(), None, 3)
            ref_val, _ = brute_max_subsets(oracle, 3)
            assert res.value == pytest.approx(ref_val)


class TestExactMaxRegularized:
    """The exact search on g - c, against the brute-force regularized maximum."""

    def test_huge_costs_give_empty(self):
        rng = np.random.default_rng(25)
        oracle = random_coverage(rng, 6)
        inst = RegularizedInstance(oracle, np.full(6, 100.0))
        assert exact_max_search(RegularizedObjective(inst), None, 3).solution == ()

    def test_zero_costs_match_plain_maximum(self):
        rng = np.random.default_rng(26)
        oracle = random_coverage(rng, 7)
        inst = RegularizedInstance(oracle.clone(), np.zeros(7))
        reg = exact_max_search(RegularizedObjective(inst), None, 3)
        plain = exact_max_search(oracle.clone(), None, 3)
        assert reg.value == pytest.approx(plain.value)

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            oracle = random_coverage(rng, 8)
            costs = rng.uniform(0.0, 0.5, size=8)
            inst = RegularizedInstance(oracle, costs)
            res = exact_max_search(RegularizedObjective(inst), None, 3)
            ref_val, _ = brute_max_regularized(inst, 3)
            assert res.value == pytest.approx(ref_val)


class TestExactMinCoverRegularized:
    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            oracle = random_coverage(rng, 7)
            costs = rng.uniform(0.0, 0.3, size=7)
            best, _ = brute_max_regularized(
                RegularizedInstance(oracle, costs), 7
            )
            tau = 0.6 * best
            inst = RegularizedInstance(oracle, costs, tau=tau)
            res = exact_min_cover(CoverInstance(RegularizedObjective(inst), tau))
            ref = brute_min_cover_regularized(inst)
            if ref is None:
                assert res is None
            else:
                assert len(res.solution) == len(ref)
