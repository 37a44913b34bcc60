"""Distorted greedy maximization, its cover conversion, and the streaming variant."""

import itertools
import math

import numpy as np
import pytest

from subcover import (
    CoverageOracle,
    InputError,
    RegularizedInstance,
    Status,
    convert_regularized,
    distorted_cover,
    distorted_greedy_max,
    distorted_potential,
    distorted_stream_cover,
    distortion_horizon,
    greedy_max,
)

from util import (
    brute_max_regularized,
    brute_min_cover_regularized,
    random_coverage,
)


def instance(rng, n, cost_high=0.3, kappa=None, tau=None):
    oracle = random_coverage(rng, n)
    costs = rng.uniform(0.0, cost_high, size=n)
    return RegularizedInstance(oracle, costs, kappa=kappa, tau=tau)


class TestDistortedPotential:
    def test_final_step_is_plain_difference(self):
        rng = np.random.default_rng(51)
        inst = instance(rng, 6, kappa=3)
        t = distortion_horizon(0.2, 3)
        for _ in range(10):
            X = [int(x) for x in rng.permutation(6)[: rng.integers(0, 7)]]
            plain = inst.oracle.peek(X) - inst.cost(X)
            assert distorted_potential(inst, 0.2, t, X) == pytest.approx(plain, abs=1e-12)

    def test_empty_set_keeps_scaled_base(self):
        rng = np.random.default_rng(52)
        inst = instance(rng, 5, kappa=2)
        value = distorted_potential(inst, 0.2, 0, ())
        assert value == pytest.approx(0.0)  # coverage of empty set is 0

    def test_kappa_one_zeroes_gain_term(self):
        rng = np.random.default_rng(53)
        inst = instance(rng, 5, kappa=1)
        t = distortion_horizon(0.2, 1)
        if t > 1:
            assert distorted_potential(inst, 0.2, 0, [0]) == pytest.approx(-inst.cost([0]))

    def test_step_bounds_checked(self):
        rng = np.random.default_rng(54)
        inst = instance(rng, 5, kappa=2)
        with pytest.raises(InputError):
            distorted_potential(inst, 0.2, distortion_horizon(0.2, 2) + 1, ())

    def test_zero_budget_rejected(self):
        rng = np.random.default_rng(54)
        with pytest.raises(InputError):
            instance(rng, 5, kappa=0)


class TestDistortedGreedyMax:
    def test_zero_costs_reduce_to_plain_greedy(self):
        # kappa >= 2 keeps the distortion factor positive; kappa = 1 zeroes it
        rng = np.random.default_rng(55)
        for _ in range(10):
            oracle = random_coverage(rng, 8)
            kappa = int(rng.integers(2, 4))
            inst = RegularizedInstance(oracle.clone(), np.zeros(8), kappa=kappa)
            t = distortion_horizon(0.2, kappa)
            assert distorted_greedy_max(inst, 0.2) == greedy_max(oracle.clone(), t)

    def test_dominating_costs_give_empty(self):
        # modular objective with every cost above the element value
        oracle = CoverageOracle([{0}, {1}, {2}])
        inst = RegularizedInstance(oracle, np.array([1.5, 1.5, 1.5]), kappa=1)
        assert distorted_greedy_max(inst, 0.2) == ()

    def test_size_within_horizon(self):
        rng = np.random.default_rng(56)
        for _ in range(10):
            inst = instance(rng, 9, kappa=int(rng.integers(1, 4)))
            sol = distorted_greedy_max(inst, 0.2)
            assert len(sol) <= distortion_horizon(0.2, inst.kappa)

    def test_value_guarantee_by_enumeration(self):
        rng = np.random.default_rng(57)
        eps = 0.2
        for _ in range(15):
            inst = instance(rng, 8, kappa=3)
            sol = distorted_greedy_max(inst, eps)
            achieved = inst.oracle.peek(sol) - inst.cost(sol)
            for size in range(4):
                for X in itertools.combinations(range(8), size):
                    bound = (1 - eps) * inst.oracle.peek(X) - math.log(1 / eps) * inst.cost(X)
                    assert achieved >= bound - 1e-9

    def test_gate_never_accepts_nonpositive_distorted_gain(self):
        rng = np.random.default_rng(58)
        events = []
        inst = instance(rng, 9, kappa=3)
        sol = distorted_greedy_max(inst, 0.2, on_event=lambda *event: events.append(event))
        # one "step" event per added element, numbered from 1
        assert [kind for kind, _ in events] == ["step"] * len(sol)
        assert [fields["step"] for _, fields in events] == list(range(1, len(sol) + 1))
        assert sorted(fields["element"] for _, fields in events) == list(sol)
        assert all(fields["score"] > 0 for _, fields in events)

    def test_potential_increments_dominated_by_optimum(self):
        # along the trajectory, each potential step beats the scaled optimum bound
        rng = np.random.default_rng(59)
        eps = 0.25
        for _ in range(10):
            inst = instance(rng, 8, cost_high=0.2, kappa=3)
            kappa = inst.kappa
            t = distortion_horizon(eps, kappa)
            picks = []
            distorted_greedy_max(
                inst, eps, on_event=lambda kind, fields: picks.append(fields["element"]))
            _, x_star = brute_max_regularized(inst, kappa)
            g_star = inst.oracle.peek(x_star)
            c_star = inst.cost(x_star)
            prefix = []
            for i in range(1, len(picks) + 1):
                before = distorted_potential(inst, eps, i - 1, prefix)
                prefix.append(picks[i - 1])
                after = distorted_potential(inst, eps, i, prefix)
                floor = (1 / kappa) * (1 - 1 / kappa) ** (t - i) * g_star - c_star / kappa
                assert after - before >= floor - 1e-9


class TestConvertRegularized:
    def test_zero_threshold(self):
        rng = np.random.default_rng(60)
        inst = instance(rng, 6, tau=0.0)
        res = distorted_cover(inst, 0.2, alpha=0.5)
        assert res.solution == () and res.status == Status.SOLVED

    def test_closing_bound_on_solvable_instances(self):
        rng = np.random.default_rng(61)
        eps, alpha = 0.2, 0.1
        solved = 0
        while solved < 15:
            oracle = random_coverage(rng, 9)
            costs = rng.uniform(0.0, 0.2, size=9)
            best, _ = brute_max_regularized(RegularizedInstance(oracle, costs), 9)
            if best <= 0:
                continue
            inst = RegularizedInstance(oracle, costs, tau=0.6 * best)
            res = distorted_cover(inst, eps, alpha)
            assert res.status == Status.SOLVED
            scale = (1 - eps) / math.log(1 / eps)
            value = inst.oracle.peek(res.solution) - scale * inst.cost(res.solution)
            assert value >= (1 - eps) * inst.tau - 1e-9
            solved += 1

    def test_zero_costs_behave_like_monotone_conversion(self):
        rng = np.random.default_rng(62)
        oracle = random_coverage(rng, 8)
        tau = 0.8 * oracle.peek(range(8))
        inst = RegularizedInstance(oracle, np.zeros(8), tau=tau)
        res = distorted_cover(inst, 0.2, alpha=0.5)
        assert res.status == Status.SOLVED
        assert inst.oracle.peek(res.solution) >= 0.8 * tau - 1e-9

    def test_infeasible_threshold(self):
        oracle = CoverageOracle([{0}])
        inst = RegularizedInstance(oracle, np.zeros(1), tau=10.0)
        res = distorted_cover(inst, 0.2, alpha=1.0)
        assert res.status == Status.INFEASIBLE


    @pytest.mark.parametrize("tau, status", [(1.0, Status.SOLVED), (10.0, Status.INFEASIBLE)])
    def test_f_value_is_the_cost_scaled_objective(self, tau, status):
        eps = 0.2
        inst = RegularizedInstance(CoverageOracle([{0}, {1, 2}, {3}]), [0.1, 0.05, 0.2], tau=tau)
        res = distorted_cover(inst, eps, alpha=0.5)
        assert res.status == status and res.solution
        scale = (1 - eps) / math.log(1 / eps)
        assert res.f_value == inst.oracle.peek(res.solution) - scale * inst.cost(res.solution)


class TestDistortedStreamCover:
    def test_everything_below_bar_gives_empty(self):
        oracle = CoverageOracle([{0}, {1}])
        inst = RegularizedInstance(oracle, np.zeros(2), tau=100.0)
        assert distorted_stream_cover(inst, 0.5, 1.0, opt_size=1) == ()

    def test_plain_thresholding_when_costs_vanish(self):
        rng = np.random.default_rng(63)
        oracle = random_coverage(rng, 8)
        tau = oracle.peek(range(8))
        inst = RegularizedInstance(oracle.clone(), np.zeros(8), tau=tau)
        eps, opt_size = 0.25, 2
        sol = distorted_stream_cover(inst, eps, 1.0, opt_size)
        bar = eps * tau / opt_size
        state = set()
        expected = []
        for u in range(8):
            if len(expected) >= math.ceil(opt_size / eps):
                break
            gain = oracle.peek(state | {u}) - oracle.peek(state)
            if gain >= bar - 1e-9:
                expected.append(u)
                state.add(u)
        assert sol == tuple(expected)

    def test_size_cap(self):
        rng = np.random.default_rng(64)
        inst = instance(rng, 10, cost_high=0.01, tau=1.0)
        sol = distorted_stream_cover(inst, 0.5, 1.0, opt_size=1)
        assert len(sol) <= math.ceil(1 / 0.5)

    def test_draft_guarantee_by_enumeration(self):
        rng = np.random.default_rng(65)
        eps, beta = 0.25, 4.0
        checked = 0
        while checked < 12:
            oracle = random_coverage(rng, 8)
            costs = np.full(8, 0.05)
            reg = RegularizedInstance(oracle, costs)
            best, _ = brute_max_regularized(reg, 8)
            if best <= 0:
                continue
            tau = 0.5 * best
            inst = RegularizedInstance(oracle, costs, tau=tau)
            opt = brute_min_cover_regularized(inst)
            if opt is None or not opt:
                continue
            sol = distorted_stream_cover(inst, eps, beta, opt_size=len(opt))
            achieved = oracle.peek(sol) - inst.cost(sol)
            g_opt = oracle.peek(opt)
            c_opt = inst.cost(opt)
            lhs = (1 - 1 / beta - eps * (1 - 1 / beta)) * g_opt
            rhs = (beta + 1 - eps * (1 - 1 / beta)) * c_opt
            assert achieved >= lhs - rhs - 1e-9
            checked += 1


class TestCostModularityContract:
    def test_additive_over_disjoint_sets(self):
        rng = np.random.default_rng(66)
        inst = instance(rng, 10)
        for _ in range(25):
            ids = rng.permutation(10)
            cut = int(rng.integers(0, 11))
            a, b = [int(x) for x in ids[:cut]], [int(x) for x in ids[cut:]]
            assert inst.cost(a) + inst.cost(b) == pytest.approx(inst.cost(list(ids)))


class TestNonFiniteInputs:
    @pytest.mark.parametrize("tau, costs", [
        (math.nan, [0.1, 0.2]),
        (math.inf, [0.1, 0.2]),
        (-math.inf, [0.1, 0.2]),
        (1.0, [0.1, math.nan]),
        (1.0, [math.inf, 0.2]),
    ])
    def test_rejected(self, tau, costs):
        with pytest.raises(InputError):
            RegularizedInstance(CoverageOracle([{0}, {1}]), costs, tau=tau)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteSweepParameters:
    @staticmethod
    def inst():
        return RegularizedInstance(CoverageOracle([{0}, {1}, {0, 1}]), [0.1, 0.2, 0.3], tau=1.0)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_convert_regularized(self, name, value):
        kwargs = {"alpha": 0.5, "beta": 1.5, name: value}
        with pytest.raises(InputError, match=name):
            convert_regularized(lambda scaled: (), self.inst(), gamma=0.8, **kwargs)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ["beta", "opt_size"])
    def test_distorted_stream_cover(self, name, value):
        kwargs = {"beta": 1.5, "opt_size": 2, name: value}
        with pytest.raises(InputError, match=name):
            distorted_stream_cover(self.inst(), 0.2, **kwargs)
