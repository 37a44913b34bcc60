"""Brute-force reference solvers, cross-checked against independent enumerations."""

import math

import numpy as np
import pytest

from subcover import (
    CoverageOracle,
    CoverInstance,
    GraphCutOracle,
    GuardError,
    InputError,
    RegularizedInstance,
    exact_max_cardinality,
    exact_max_regularized,
    exact_min_cover,
    exact_min_cover_regularized,
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


class TestExactMinCover:
    def test_zero_threshold(self):
        oracle = CoverageOracle([{0}, {1}])
        res = exact_min_cover(CoverInstance(oracle, 0.0))
        assert res.optimum_set == () and res.enumerated == 1

    def test_prefers_single_covering_element(self):
        oracle = CoverageOracle([{0}, {1}, {0, 1}])
        res = exact_min_cover(CoverInstance(oracle, 2.0))
        assert res.optimum_set == (2,)

    def test_four_cycle_full_cut(self):
        res = exact_min_cover(CoverInstance(four_cycle(), 4.0))
        assert res.optimum_set == (0, 2)  # lexicographically least opposite pair

    def test_infeasible_returns_none(self):
        oracle = CoverageOracle([{0}, {1}])
        assert exact_min_cover(CoverInstance(oracle, 5.0)) is None

    def test_guard_trips(self):
        oracle = CoverageOracle([{0}] * 25)
        with pytest.raises(GuardError):
            exact_min_cover(CoverInstance(oracle, 1.0))

    @pytest.mark.parametrize("max_n", [math.inf, math.nan, "x", 2.5])
    def test_bad_guard_rejected_before_any_enumeration(self, max_n):
        oracle = CoverageOracle([{0}, {1}])
        with pytest.raises(InputError, match="every max_n must be an integer") as raised:
            exact_min_cover(CoverInstance(oracle, 1.0), max_n=max_n)
        assert not isinstance(raised.value, GuardError)
        assert oracle.query_count == 0

    def test_guard_override(self):
        oracle = CoverageOracle([{0}] * 25)
        res = exact_min_cover(CoverInstance(oracle, 1.0), max_n=25)
        assert res.optimum_set == (0,)

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            oracle = random_coverage(rng, 8)
            tau = 0.7 * oracle.peek(range(8))
            res = exact_min_cover(CoverInstance(oracle.clone(), tau))
            ref = brute_min_cover(oracle, tau)
            if ref is None:
                assert res is None
            else:
                assert len(res.optimum_set) == len(ref)
                assert res.optimum_value >= tau - 1e-9


class TestExactMaxCardinality:
    def test_zero_budget(self):
        res = exact_max_cardinality(four_cycle(), 0)
        assert res.optimum_set == ()

    def test_four_cycle_pair(self):
        res = exact_max_cardinality(four_cycle(), 2)
        assert res.optimum_value == 4.0

    def test_monotone_full_budget_reaches_total(self):
        rng = np.random.default_rng(22)
        oracle = random_coverage(rng, 7)
        res = exact_max_cardinality(oracle.clone(), 7)
        assert res.optimum_value == oracle.peek(range(7))

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(23)
        oracle = random_coverage(rng, 7)
        values = [
            exact_max_cardinality(oracle.clone(), k).optimum_value for k in range(8)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            oracle = random_graph(rng, 7, 0.5, weighted=True)
            res = exact_max_cardinality(oracle.clone(), 3)
            ref_val, _ = brute_max_subsets(oracle, 3)
            assert res.optimum_value == pytest.approx(ref_val)


class TestExactMaxRegularized:
    def test_huge_costs_give_empty(self):
        rng = np.random.default_rng(25)
        oracle = random_coverage(rng, 6)
        inst = RegularizedInstance(oracle, np.full(6, 100.0))
        assert exact_max_regularized(inst, 3).optimum_set == ()

    def test_zero_costs_match_plain_maximum(self):
        rng = np.random.default_rng(26)
        oracle = random_coverage(rng, 7)
        inst = RegularizedInstance(oracle.clone(), np.zeros(7))
        reg = exact_max_regularized(inst, 3)
        plain = exact_max_cardinality(oracle.clone(), 3)
        assert reg.optimum_value == pytest.approx(plain.optimum_value)

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            oracle = random_coverage(rng, 8)
            costs = rng.uniform(0.0, 0.5, size=8)
            inst = RegularizedInstance(oracle, costs)
            res = exact_max_regularized(inst, 3)
            ref_val, _ = brute_max_regularized(inst, 3)
            assert res.optimum_value == pytest.approx(ref_val)


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
            res = exact_min_cover_regularized(inst)
            ref = brute_min_cover_regularized(inst)
            if ref is None:
                assert res is None
            else:
                assert len(res.optimum_set) == len(ref)
