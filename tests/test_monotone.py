"""Monotone cover solvers: examples, size bounds, query accounting, determinism."""

import itertools
import math
import re
import time
from unittest import mock

import numpy as np
import pytest

from subcover import (
    CoverageOracle,
    CoverInstance,
    ExperimentGrid,
    GraphCutOracle,
    InputError,
    RegularizedInstance,
    Status,
    TruncatedOracle,
    convert_cover,
    convert_cover_randomized,
    convert_rand_repetitions,
    convert_regularized,
    derive_seed,
    distorted_cover,
    distorted_greedy_max,
    distortion_horizon,
    double_greedy_max,
    exact_max_search,
    exact_min_cover,
    fast_exact_max_search,
    greedy_cover,
    greedy_max,
    make_greedy_tightness_instance,
    make_synthetic_summarization,
    random_greedy_max,
    smp_subroutine,
    stochastic_greedy_cover,
    stochastic_max_subroutine,
    stream_cover,
    threshold_greedy_cover,
)

from subcover import monotone, oracles
from subcover.monotone import _budget_schedule

from util import FallbackCoverage, brute_max_subsets, random_coverage, reference_threshold_greedy


def cover_corpus(seed, count, n_max=14, n_min=5):
    """Random feasible monotone instances with a tau fraction of f(U)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(n_min, n_max + 1))
        oracle = random_coverage(rng, n)
        total = oracle.peek(range(n))
        if total == 0:
            continue
        tau = float(rng.uniform(0.3, 0.95)) * total
        out.append(CoverInstance(oracle, tau))
    return out


class TestGreedyCover:
    def test_single_dominant_element(self):
        oracle = CoverageOracle([{0, 1}, {1}])
        res = greedy_cover(CoverInstance(oracle, 2.0), 0.1)
        assert res.solution == (0,) and res.f_value == 2.0
        assert res.status == Status.SOLVED

    def test_zero_threshold(self):
        oracle = CoverageOracle([{0}])
        res = greedy_cover(CoverInstance(oracle, 0.0), 0.3)
        assert res.solution == () and res.f_value == 0.0
        assert res.status == Status.SOLVED

    def test_tightness_lower_bound(self):
        inst = make_greedy_tightness_instance(10, 1000)
        res = greedy_cover(CoverInstance(inst.oracle.clone(), inst.tau), 0.05)
        need = math.ceil(math.log(0.05) / math.log(1 - 1 / 10))
        assert res.size >= need
        assert set(res.solution) <= set(inst.slice_ids)

    def test_eps_validation(self):
        oracle = CoverageOracle([{0}])
        with pytest.raises(InputError):
            greedy_cover(CoverInstance(oracle, 1.0), 1.0)

    def test_infeasible_detected(self):
        oracle = CoverageOracle([{0}, {1}])
        res = greedy_cover(CoverInstance(oracle, 10.0), 0.2)
        assert res.status == Status.INFEASIBLE

    def test_monotone_progress_and_size_bound(self):
        for inst in cover_corpus(101, 40):
            opt = exact_min_cover(
                CoverInstance(inst.oracle.clone(), inst.tau)
            )
            for eps in (0.05, 0.2, 0.5):
                res = greedy_cover(inst, eps)
                assert res.status == Status.SOLVED
                assert res.f_value >= (1 - eps) * inst.tau - 1e-9
                assert res.size <= math.ceil(math.log(1 / eps) * len(opt.solution)) + 1
                # replaying the chosen prefix never decreases f
                values = [
                    inst.oracle.peek(res.solution[: i + 1])
                    for i in range(res.size)
                ]
                assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_query_budget(self):
        for inst in cover_corpus(102, 10):
            res = greedy_cover(inst, 0.2)
            n = inst.oracle.n
            assert res.queries <= n * (res.size + 1) + 1

    def test_matches_naive_reimplementation(self):
        # replay plain greedy with uncounted evaluations only
        for inst in cover_corpus(104, 15):
            res = greedy_cover(inst, 0.2)
            oracle, chosen = inst.oracle, []
            while oracle.peek(chosen) < 0.8 * inst.tau - 1e-9:
                gains = [
                    (oracle.peek(chosen + [x]) - oracle.peek(chosen), x)
                    for x in range(oracle.n) if x not in chosen
                ]
                best_gain = max(g for g, _ in gains)
                if best_gain <= 1e-9:
                    break
                chosen.append(min(x for g, x in gains if g == best_gain))
            assert res.solution == tuple(sorted(chosen))


class TestThresholdGreedyCover:
    def test_first_pass_pick(self):
        oracle = CoverageOracle([{0, 1, 2}, {0}, {1}])
        res = threshold_greedy_cover(CoverInstance(oracle, 3.0), 0.2)
        assert res.solution == (0,) and res.f_value == 3.0

    def test_zero_threshold(self):
        oracle = CoverageOracle([{0}])
        res = threshold_greedy_cover(CoverInstance(oracle, 0.0), 0.2)
        assert res.solution == ()

    def test_matches_greedy_first_pick(self):
        oracle = CoverageOracle([{0, 1}, {1}])
        res = threshold_greedy_cover(CoverInstance(oracle, 2.0), 0.1)
        assert res.solution == (0,)

    def test_infeasible_floor(self):
        oracle = CoverageOracle([{0}, {1}])
        res = threshold_greedy_cover(CoverInstance(oracle, 10.0), 0.2)
        assert res.status == Status.INFEASIBLE

    def test_matches_one_by_one_scan(self):
        """Small instances, and 40-90 elements on the packed and on the
        generic coverage state, whose passes also scan windows of 16 ids and
        more as batches."""
        large = cover_corpus(106, 8, n_min=40, n_max=90)
        corpus = cover_corpus(105, 15) + large + [
            CoverInstance(FallbackCoverage(inst.oracle.tag_sets), inst.tau) for inst in large]
        with mock.patch.object(oracles, "_batched_window", wraps=oracles._batched_window) as batched:
            for inst in corpus:
                for eps in (0.05, 0.3):
                    res = threshold_greedy_cover(inst, eps)
                    assert (res.solution, res.status, res.queries) == reference_threshold_greedy(inst, eps)
        assert batched.call_count > 0

    def test_size_bound_on_corpus(self):
        for inst in cover_corpus(103, 40):
            opt = exact_min_cover(CoverInstance(inst.oracle.clone(), inst.tau))
            for eps in (0.05, 0.2, 0.5):
                res = threshold_greedy_cover(inst, eps)
                assert res.status == Status.SOLVED
                assert res.f_value >= (1 - eps) * inst.tau - 1e-9
                bound = math.ceil((math.log(2 / eps) + 1) * len(opt.solution)) + 1
                assert res.size <= bound


class TestStochasticGreedyCover:
    def test_single_element_universe(self):
        oracle = CoverageOracle([{0}])
        res = stochastic_greedy_cover(CoverInstance(oracle, 1.0), 0.2, 0.2, 0.5, seed=0)
        assert res.solution == (0,) and res.status == Status.SOLVED

    def test_full_sampling_matches_greedy_trajectory(self):
        # eps large enough that every sample is the whole universe
        rng = np.random.default_rng(200)
        oracle = random_coverage(rng, 8)
        tau = 0.8 * oracle.peek(range(8))
        res = stochastic_greedy_cover(
            CoverInstance(oracle.clone(), tau), eps=0.5, delta=0.5, alpha=0.1,
            seed=3, initial_guess=1.0,
        )
        ref = greedy_cover(CoverInstance(oracle.clone(), tau), 0.5)
        assert res.solution == ref.solution

    def test_deterministic_given_seed(self):
        oracle = make_synthetic_summarization(60, 40, 0.3, 0.02, 10, seed=4)
        tau = 0.6 * oracle.peek(range(40))
        a = stochastic_greedy_cover(CoverInstance(oracle.clone(), tau), 0.2, 0.1, 0.1, seed=7)
        b = stochastic_greedy_cover(CoverInstance(oracle.clone(), tau), 0.2, 0.1, 0.1, seed=7)
        assert a.solution == b.solution and a.queries == b.queries

    def test_infeasible_detected(self):
        oracle = CoverageOracle([{0}, {1}])
        res = stochastic_greedy_cover(CoverInstance(oracle, 10.0), 0.3, 0.3, 0.5, seed=0)
        assert res.status == Status.INFEASIBLE

    def test_query_accounting_per_iteration(self):
        # with a fixed guess, every iteration costs at most one query per
        # sampled element per tracked solution (plus the initial evaluations)
        rng = np.random.default_rng(210)
        oracle = random_coverage(rng, 30, max_tags=30)
        tau = 0.7 * oracle.peek(range(30))
        guess = 5.0
        res = stochastic_greedy_cover(
            CoverInstance(oracle, tau), eps=0.3, delta=0.5, alpha=100.0,
            seed=2, initial_guess=guess,
        )
        sample_size = min(30, math.ceil(30 * math.log(3 / 0.3) / guess))
        iterations = res.size  # one add per iteration for the single solution
        assert res.queries <= 1 + (iterations + 1) * sample_size

    @pytest.mark.parametrize("tau, status", [(2.0, Status.SOLVED), (3.0, Status.INFEASIBLE)])
    def test_returns_the_smallest_solution_of_the_pool(self, tau, status):
        """The smallest solution that reaches the target, or the smallest of
        all when none does, not the first: the steps of the two solutions are
        scripted, and the second skips its first step and ends smaller."""
        oracle = CoverageOracle([{0, 1}, {0}, {1}, set()])
        moves = iter([1, None, 2, 0, 3])  # the two solutions step in turn, then stop

        def step(state, rng, size):
            x = next(moves, None)
            if x is not None:
                state.add(x)

        with mock.patch.object(monotone, "_sampled_step", side_effect=step):
            res = stochastic_greedy_cover(CoverInstance(oracle, tau), 0.01, 0.25, 0.5, seed=0)
        assert (res.solution, res.status) == ((0,), status)

    def test_solved_runs_meet_threshold(self):
        rng = np.random.default_rng(201)
        for _ in range(20):
            oracle = random_coverage(rng, 12)
            total = oracle.peek(range(12))
            if total == 0:
                continue
            tau = 0.7 * total
            res = stochastic_greedy_cover(
                CoverInstance(oracle, tau), 0.2, 0.1, 0.1, seed=int(rng.integers(10**6))
            )
            if res.status == Status.SOLVED:
                assert res.f_value >= 0.8 * tau - 1e-9


class TestStochasticGreedyMax:
    def test_single_element(self):
        oracle = CoverageOracle([{0}])
        assert stochastic_max_subroutine(0.2)(oracle, 1, 0) == (0,)

    def test_full_budget_covers_universe(self):
        rng = np.random.default_rng(202)
        oracle = random_coverage(rng, 6)
        solution = stochastic_max_subroutine(0.2)(oracle.clone(), 6, 1)
        assert oracle.peek(solution) == oracle.peek(range(6))

    def test_size_within_ceiling(self):
        rng = np.random.default_rng(203)
        oracle = random_coverage(rng, 12)
        kappa = 3
        solution = stochastic_max_subroutine(0.2)(oracle, kappa, 5)
        assert len(solution) <= math.ceil(math.log(3 / 0.4)) * kappa

    @pytest.mark.parametrize("budget, expected", [
        (1e-310, (0,)),  # n / kappa overflows: one step over the whole ground set
        (1e308, (0, 1, 2)),  # lead * kappa overflows
        (1e18, (0, 1, 2)),  # ~1e18 steps, all but three with nothing to add
    ])
    def test_extreme_budget_stops_once_every_element_is_selected(self, budget, expected):
        oracle = CoverageOracle([[0], [1], [2]])
        best_gain = monotone._best_gain

        def step(state, candidates):
            assert len(state.members) < oracle.n, "a step ran with every element selected"
            return best_gain(state, candidates)

        with mock.patch.object(monotone, "_best_gain", step):
            assert stochastic_max_subroutine(0.2)(oracle, budget, 0) == expected

    def test_expected_value_near_optimum(self):
        rng = np.random.default_rng(204)
        oracle = random_coverage(rng, 12)
        kappa = 3
        opt, _ = brute_max_subsets(oracle, kappa)
        values = [
            oracle.peek(stochastic_max_subroutine(0.2)(oracle.clone(), kappa, s))
            for s in range(120)
        ]
        assert sum(values) / len(values) >= 0.8 * opt * 0.97


class TestConvertCover:
    def test_budget_sweep_with_greedy(self):
        rng = np.random.default_rng(205)
        oracle = random_coverage(rng, 10)
        tau = 0.9 * oracle.peek(range(10))
        res = convert_cover(greedy_max, CoverInstance(oracle, tau), alpha=1.0, gamma=0.8)
        assert res.status == Status.SOLVED
        assert res.f_value >= 0.8 * tau - 1e-9

    def test_zero_threshold_short_circuits(self):
        oracle = CoverageOracle([{0}])
        res = convert_cover(greedy_max, CoverInstance(oracle, 0.0), 1.0, 0.9)
        assert res.solution == () and res.queries <= 1

    def test_infeasible(self):
        oracle = CoverageOracle([{0}])
        res = convert_cover(greedy_max, CoverInstance(oracle, 5.0), 1.0, 0.9)
        assert res.status == Status.INFEASIBLE

    def test_costlier_than_direct_stochastic_on_tightness(self):
        inst = make_greedy_tightness_instance(10, 1000)
        tau = inst.tau
        conv = convert_cover(
            stochastic_max_subroutine(0.2),
            CoverInstance(inst.oracle.clone(), tau), alpha=0.1, gamma=0.8, seed=2,
        )
        direct = stochastic_greedy_cover(
            CoverInstance(inst.oracle.clone(), tau), 0.2, 0.1, 0.1, seed=2
        )
        assert conv.status == Status.SOLVED and direct.status == Status.SOLVED
        assert conv.queries > direct.queries


class TestConvertCoverRandomized:
    def test_half_delta_is_single_repetition(self):
        assert convert_rand_repetitions(0.5) == 1
        assert convert_rand_repetitions(0.1) == 4

    def test_deterministic_subroutine_matches_convert(self):
        rng = np.random.default_rng(206)
        oracle = random_coverage(rng, 9)
        tau = 0.8 * oracle.peek(range(9))
        eps = 0.2
        res_r = convert_cover_randomized(
            greedy_max, CoverInstance(oracle.clone(), tau),
            alpha=0.5, delta=0.5, eps=eps, seed=0,
        )
        res_d = convert_cover(
            greedy_max, CoverInstance(oracle.clone(), tau),
            alpha=0.5, gamma=1 - eps,
        )
        assert res_r.solution == res_d.solution

    def test_monte_carlo_success_rate(self):
        rng = np.random.default_rng(207)
        oracle = random_coverage(rng, 20, max_tags=24)
        tau = 0.75 * oracle.peek(range(20))
        opt = exact_min_cover(CoverInstance(oracle.clone(), tau))
        eps, delta, alpha = 0.2, 0.1, 0.1
        hits = 0
        trials = 100
        for seed in range(trials):
            res = convert_cover_randomized(
                stochastic_max_subroutine(eps / 2), CoverInstance(oracle.clone(), tau),
                alpha=alpha, delta=delta, eps=eps, seed=seed,
            )
            if res.status == Status.SOLVED and res.f_value >= (1 - eps) * tau - 1e-9:
                hits += 1
        assert hits >= 0.9 * trials
        assert opt is not None  # instance genuinely solvable


class TestGreedyMax:
    def test_respects_budget(self):
        rng = np.random.default_rng(208)
        oracle = random_coverage(rng, 10)
        assert len(greedy_max(oracle, 3)) <= 3

    def test_matches_exact_on_modular(self):
        oracle = CoverageOracle([{0}, {1, 2}, {3}])
        assert greedy_max(oracle, 1) == (1,)


class TestFeasibilityOnSuccess:
    def test_every_solved_result_reaches_target(self):
        for inst in cover_corpus(209, 25):
            for runner in (
                lambda i: greedy_cover(i, 0.2),
                lambda i: threshold_greedy_cover(i, 0.2),
                lambda i: stochastic_greedy_cover(i, 0.2, 0.2, 0.2, seed=13),
            ):
                res = runner(inst)
                if res.status == Status.SOLVED:
                    fresh = inst.oracle.peek(res.solution)
                    assert fresh == pytest.approx(res.f_value)
                    assert fresh >= 0.8 * inst.tau - 1e-9


class TestBudgetSchedule:
    def test_first_budgets_unchanged(self):
        schedule = _budget_schedule(2000, 1e-6, 1.0)
        step = 1.0 + 1e-6
        assert list(itertools.islice(schedule, 3)) == [1.0, step, step * step]

    def test_ends_with_first_budget_reaching_n(self):
        assert list(_budget_schedule(5, 1.0, 0.5)) == [1.0, 2.0, 4.0, 5.0]
        assert list(_budget_schedule(3, 1.0, 7.0)) == [3.0]

    def test_empty_ground_set_has_no_budgets(self):
        assert list(_budget_schedule(0, 1.0)) == []

    def test_convert_cover_hands_the_maximizer_every_budget(self):
        budgets = []

        def recording(oracle, kappa, seed):
            budgets.append(kappa)
            return greedy_max(oracle, kappa, seed)

        oracle = CoverageOracle([{0}, {1}, {2}, {3}, {4}])
        res = convert_cover(recording, CoverInstance(oracle, 10.0), alpha=0.5, gamma=1.0,
                            initial_budget=1.2)
        assert res.status == Status.INFEASIBLE
        assert budgets == list(_budget_schedule(5, 0.5, 1.2))

    @pytest.mark.parametrize("initial", [None, 0.3, 1.2, 2.9, 9.0])
    def test_stream_cover_passes_take_the_convert_cover_budgets(self, initial):
        budgets, guesses = [], []

        def recording(oracle, kappa, seed):
            budgets.append(kappa)
            return ()

        oracle = CoverageOracle([{i} for i in range(7)])
        res = convert_cover(recording, CoverInstance(oracle.clone(), 50.0), alpha=0.5,
                            gamma=1.0, initial_budget=initial)
        assert res.status == Status.INFEASIBLE
        res = stream_cover(
            CoverInstance(oracle.clone(), 50.0), 0.5, 0.5, smp_subroutine("dg"),
            initial_guess=initial,
            on_event=lambda kind, p: guesses.append(p["g"]) if kind == "pass" else None,
        )
        assert res.status == Status.INFEASIBLE
        assert guesses == budgets == list(_budget_schedule(7, 0.5, initial))

    @pytest.mark.parametrize("initial, alpha", [
        (None, 0.5), (0.5, 0.1), (1.0, 1e-3), (3.7, 2.0), (1e6, 0.5),
    ])
    def test_stochastic_greedy_sample_sizes_follow_the_schedule(self, initial, alpha):
        """Every iteration samples min(n, ceil(n ln(3/eps) / g)) ids, g
        taking the _budget_schedule guesses in order, the next one after
        iteration r - 1 once r > ln(3/eps) g, and staying at n at the end."""
        n, eps = 30, 0.3
        oracle = CoverageOracle([{i} for i in range(n)])
        with mock.patch.object(monotone, "_sampled_step", wraps=monotone._sampled_step) as step:
            res = stochastic_greedy_cover(CoverInstance(oracle, 2.0 * n), eps, 0.5, alpha,
                                          seed=1, initial_guess=initial)
        assert res.status == Status.INFEASIBLE  # one repetition: one step per iteration
        sizes = [call.args[2] for call in step.call_args_list]
        lead = math.log(3 / eps)
        guesses = _budget_schedule(n, alpha, initial)
        g, expected = next(guesses), []
        for r in range(2, len(sizes) + 2):
            expected.append(min(n, math.ceil(n * lead / g)))
            if r > lead * g:
                g = next(guesses, g)
        assert sizes == expected
        assert next(guesses, None) is None and sizes[-1] == math.ceil(lead)

    def test_tiny_alpha_returns_promptly(self):
        # the whole schedule at n = 2000, alpha = 1e-6 has ~7.6M budgets;
        # the first one already solves this instance
        oracle = CoverageOracle([{0}] + [set()] * 1999)
        started = time.perf_counter()
        res = convert_cover(greedy_max, CoverInstance(oracle, 1.0), alpha=1e-6, gamma=1.0)
        assert time.perf_counter() - started < 1.0
        assert res.status == Status.SOLVED and res.solution == (0,)


EMPTY_ORACLES = {"coverage": lambda: CoverageOracle([]), "cut": lambda: GraphCutOracle(0, [])}
EMPTY_COVER_SOLVERS = {
    "greedy": lambda inst: greedy_cover(inst, 0.2),
    "thresh": lambda inst: threshold_greedy_cover(inst, 0.2),
    "stoch": lambda inst: stochastic_greedy_cover(inst, 0.2, 0.1, 0.1, seed=0),
    "convert greedy": lambda inst: convert_cover(greedy_max, inst, 0.5, 0.8),
    "convert stoch": lambda inst: convert_cover(stochastic_max_subroutine(0.2), inst, 0.5, 0.8),
    "convert-rand": lambda inst: convert_cover_randomized(
        stochastic_max_subroutine(0.2), inst, 0.5, 0.1, 0.2),
    "distorted": lambda inst: distorted_cover(
        RegularizedInstance(inst.oracle, np.zeros(0), tau=inst.tau), 0.2, 0.5),
    **{f"stream {kind}": lambda inst, kind=kind: stream_cover(inst, 0.5, 0.5, smp_subroutine(kind))
       for kind in ("ex", "fex", "dg", "rg")},
}


@pytest.mark.parametrize("tau, status", [(1.0, Status.INFEASIBLE), (0.0, Status.SOLVED)])
@pytest.mark.parametrize("oracle_name, solver_name", [
    (oracle_name, solver_name) for oracle_name in EMPTY_ORACLES for solver_name in EMPTY_COVER_SOLVERS
    if oracle_name == "coverage" or solver_name.startswith("stream")
])
def test_empty_ground_set(oracle_name, solver_name, tau, status):
    inst = CoverInstance(EMPTY_ORACLES[oracle_name](), tau)
    res = EMPTY_COVER_SOLVERS[solver_name](inst)
    assert res.status == status and res.solution == ()


@pytest.mark.parametrize("run", [
    lambda inst: stochastic_greedy_cover(inst, 0.2, 5.0, 0.1, seed=0),
    lambda inst: convert_cover_randomized(greedy_max, inst, 0.5, 5.0, 0.2),
], ids=["stoch", "convert-rand"])
def test_bad_delta_raises_even_at_zero_threshold(run):
    with pytest.raises(InputError, match="delta"):
        run(CoverInstance(CoverageOracle([{0}]), 0.0))


@pytest.mark.parametrize("eps", [0.0, -0.1, 1.0, 2.0, math.nan])
def test_stochastic_max_subroutine_rejects_eps_outside_unit_interval(eps):
    with pytest.raises(InputError, match="eps"):
        stochastic_max_subroutine(eps)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteSweepParameters:
    @staticmethod
    def inst():
        return CoverInstance(CoverageOracle([{0}, {1}, {0, 1}]), 2.0)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ["alpha", "initial_guess"])
    def test_stochastic_greedy_cover(self, name, value):
        kwargs = {"alpha": 0.1, name: value}
        with pytest.raises(InputError):
            stochastic_greedy_cover(self.inst(), 0.2, 0.1, seed=0, **kwargs)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ["alpha", "initial_budget"])
    def test_convert_cover(self, name, value):
        kwargs = {"alpha": 0.1, name: value}
        with pytest.raises(InputError):
            convert_cover(greedy_max, self.inst(), gamma=0.9, **kwargs)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ["alpha", "initial_budget"])
    def test_convert_cover_randomized(self, name, value):
        kwargs = {"alpha": 0.1, name: value}
        with pytest.raises(InputError):
            convert_cover_randomized(greedy_max, self.inst(), delta=0.1, eps=0.2,
                                     **kwargs)


def _no_query(*args, **kwargs):
    raise AssertionError("a query was charged")


TINY_ALPHA_SOLVERS = {
    "convert": lambda inst, alpha: convert_cover(stochastic_max_subroutine(0.2), inst, alpha, 0.8),
    "convert-rand": lambda inst, alpha: convert_cover_randomized(
        stochastic_max_subroutine(0.2), inst, alpha, 0.1, 0.2),
    "distorted": lambda inst, alpha: distorted_cover(
        RegularizedInstance(inst.oracle, np.zeros(inst.oracle.n), tau=inst.tau), 0.2, alpha),
    "stoch": lambda inst, alpha: stochastic_greedy_cover(inst, 0.2, 0.1, alpha, seed=0),
    "stream": lambda inst, alpha: stream_cover(inst, 0.5, alpha, smp_subroutine("dg")),
}


@pytest.mark.parametrize("tau, alpha", [(2.0, 1e-17), (9.0, 1e-17), (2.0, 2.3e-16), (9.0, 2.3e-16)],
                         ids=["feasible", "infeasible", "feasible-2.3e-16", "infeasible-2.3e-16"])
@pytest.mark.parametrize("solver", TINY_ALPHA_SOLVERS)
def test_alpha_that_cannot_grow_a_guess_rejected_before_any_query(solver, tau, alpha):
    """1 + 1e-17 rounds to 1, so the guesses would never grow; with 2.3e-16
    they would take about 6e15 guesses to reach n = 4."""
    inst = CoverInstance(CoverageOracle([{0}, {1}, {0, 1}, {2}]), tau)
    with mock.patch.object(oracles.QueryCounter, "tick", _no_query), \
            pytest.raises(InputError, match="alpha"):
        TINY_ALPHA_SOLVERS[solver](inst, alpha)
    assert inst.oracle.query_count == 0


class TestBatchedGainsMatchFallback:
    """The packed-word batched gains against the per-element fallback states:
    same solutions, statuses and query counts from every monotone solver,
    and from double greedy, which removes elements and so builds the
    coverage state's per-tag counts."""

    @staticmethod
    def runs(oracle_cls):
        base = make_synthetic_summarization(150, 80, 0.4, 0.02, 20, seed=3)
        oracle = oracle_cls(base.tag_sets)
        f_all = oracle.peek(range(oracle.n))
        tau = 0.7 * f_all
        guess = tau / max(oracle.peek((u,)) for u in range(oracle.n))
        costs = np.random.default_rng(4).uniform(0.0, 1.0, size=oracle.n)
        cover = {
            "greedy": lambda inst: greedy_cover(inst, 0.05),
            "thresh 0.05": lambda inst: threshold_greedy_cover(inst, 0.05),
            "thresh 0.4": lambda inst: threshold_greedy_cover(inst, 0.4),
            "stoch": lambda inst: stochastic_greedy_cover(
                inst, 0.2, 0.1, 0.1, seed=1, initial_guess=guess),
            "convert": lambda inst: convert_cover(
                stochastic_max_subroutine(0.2), inst, 0.1, 0.8, seed=0, initial_budget=guess),
            "convert-rand": lambda inst: convert_cover_randomized(
                stochastic_max_subroutine(0.2), inst, 0.1, 0.1, 0.2, seed=0,
                initial_budget=guess),
        }
        out = {name: run(CoverInstance(oracle.clone(), tau)) for name, run in cover.items()}
        reg = RegularizedInstance(oracle.clone(), costs, tau=0.3 * f_all)
        out["distorted"] = distorted_cover(reg, 0.2, 0.5)
        return {name: (res.solution, res.status, res.queries, res.f_value)
                for name, res in out.items()}

    def test_fallback_states_are_generic(self):
        oracle = FallbackCoverage([{0}, {1}])
        assert type(oracle.state(())).__name__ == "SolutionState"
        assert type(oracle.clone()) is FallbackCoverage

    def test_identical_outputs(self):
        fast, fallback = self.runs(CoverageOracle), self.runs(FallbackCoverage)
        assert fast == fallback
        assert all(status == Status.SOLVED for _, status, _, _ in fast.values())

    @pytest.mark.parametrize("seed", [0, 1])
    def test_double_greedy_identical(self, seed):
        base = make_synthetic_summarization(150, 80, 0.4, 0.02, 20, seed=3)
        runs = []
        for oracle_cls in (CoverageOracle, FallbackCoverage):
            oracle = oracle_cls(base.tag_sets)
            chosen = double_greedy_max(oracle, seed, ground=range(0, oracle.n, 2))
            runs.append((chosen, oracle.query_count, oracle.peek(chosen)))
        assert runs[0] == runs[1] and runs[0][0]

    def test_removal_gains_along_a_shrink_sweep(self):
        """Double greedy's output on a monotone oracle does not depend on the
        removal gains' values, so compare them directly along its shrinking
        sweep, with adds mixed in."""
        base = make_synthetic_summarization(150, 80, 0.4, 0.02, 20, seed=3)
        states = [cls(base.tag_sets).state(range(80))
                  for cls in (CoverageOracle, FallbackCoverage)]
        for u in range(80):
            gains = [st.removal_gain(u) for st in states]
            assert gains[0] == gains[1]
            for st in states:
                st.remove(u, gains[0])
                if u % 3 == 2:
                    st.add(u - 1)
            assert states[0].value == states[1].value == base.peek(states[0].members)


def _cover(oracle=None):
    return CoverInstance(oracle or CoverageOracle([{0}, {1}, {0, 1}]), 2.0)


def _path():
    return GraphCutOracle(3, [(0, 1), (1, 2)])


def _reg(tau=1.0):
    return RegularizedInstance(CoverageOracle([{0}, {1}, {0, 1}]), np.zeros(3), tau=tau)


def _grid(**field):
    return ExperimentGrid(**{"dataset": "m=6,n=3,head=2", "kind": "synthetic",
                             "algorithms": ("greedy",), "eps_values": (0.2,),
                             "tau_fractions": (0.5,), **field})


# (entry point, parameter, its interval, whether None is allowed, the call
# with that parameter set to a value and every other argument valid)
REAL_PARAMETERS = [
    ("greedy", "eps", "(0, 1)", False, lambda v: greedy_cover(_cover(), v)),
    ("thresh", "eps", "(0, 1)", False, lambda v: threshold_greedy_cover(_cover(), v)),
    ("stoch", "eps", "(0, 1)", False, lambda v: stochastic_greedy_cover(_cover(), v, 0.1, 0.1, 0)),
    ("stoch", "delta", "(0, 1)", False,
     lambda v: stochastic_greedy_cover(_cover(), 0.2, v, 0.1, 0)),
    ("stoch", "alpha", "(-inf, inf)", False,
     lambda v: stochastic_greedy_cover(_cover(), 0.2, 0.1, v, 0)),
    ("stoch", "initial_guess", "(-inf, inf)", True,
     lambda v: stochastic_greedy_cover(_cover(), 0.2, 0.1, 0.1, 0, initial_guess=v)),
    ("sampled-max", "eps", "(0, 1)", False, lambda v: stochastic_max_subroutine(v)),
    ("sampled-max-call", "budget", "[0, inf)", False,
     lambda v: stochastic_max_subroutine(0.2)(_cover().oracle, v, 0)),
    ("greedy-max", "budget", "[0, inf)", False, lambda v: greedy_max(_cover().oracle, v)),
    ("convert", "alpha", "(-inf, inf)", False, lambda v: convert_cover(greedy_max, _cover(), v, 0.8)),
    ("convert", "gamma", "(0, 1]", False, lambda v: convert_cover(greedy_max, _cover(), 0.1, v)),
    ("convert", "initial_budget", "(-inf, inf)", True,
     lambda v: convert_cover(greedy_max, _cover(), 0.1, 0.8, initial_budget=v)),
    ("repetitions", "delta", "(0, 1)", False, lambda v: convert_rand_repetitions(v)),
    ("convert-rand", "alpha", "(-inf, inf)", False,
     lambda v: convert_cover_randomized(greedy_max, _cover(), v, 0.1, 0.2)),
    ("convert-rand", "delta", "(0, 1)", False,
     lambda v: convert_cover_randomized(greedy_max, _cover(), 0.1, v, 0.2)),
    ("convert-rand", "eps", "(0, 1)", False,
     lambda v: convert_cover_randomized(greedy_max, _cover(), 0.1, 0.1, v)),
    ("convert-rand", "initial_budget", "(-inf, inf)", True,
     lambda v: convert_cover_randomized(greedy_max, _cover(), 0.1, 0.1, 0.2, initial_budget=v)),
    ("stream", "eps", "(0, 1)", False,
     lambda v: stream_cover(_cover(_path()), v, 0.5, smp_subroutine("dg"))),
    ("stream", "alpha", "(-inf, inf)", False,
     lambda v: stream_cover(_cover(_path()), 0.5, v, smp_subroutine("dg"))),
    ("stream", "initial_guess", "(-inf, inf)", True,
     lambda v: stream_cover(_cover(_path()), 0.5, 0.5, smp_subroutine("dg"), initial_guess=v)),
    ("smp-subroutine", "timeout_ms", "[0, inf]", True, lambda v: smp_subroutine("ex", timeout_ms=v)),
    ("exact", "budget", "[0, inf)", False, lambda v: exact_max_search(_path(), None, v)),
    ("exact", "timeout_ms", "[0, inf]", True,
     lambda v: exact_max_search(_path(), None, 2, timeout_ms=v)),
    ("fast-exact", "budget", "[0, inf)", False, lambda v: fast_exact_max_search(_path(), None, v)),
    ("fast-exact", "timeout_ms", "[0, inf]", True,
     lambda v: fast_exact_max_search(_path(), None, 2, timeout_ms=v)),
    ("random-greedy", "budget", "[0, inf)", False, lambda v: random_greedy_max(_path(), v, 0)),
    ("exact", "target", "(-inf, inf)", True, lambda v: exact_max_search(_path(), None, 2, target=v)),
    ("fast-exact", "target", "(-inf, inf)", True,
     lambda v: fast_exact_max_search(_path(), None, 2, target=v)),
    ("random-greedy", "target", "(-inf, inf)", True,
     lambda v: random_greedy_max(_path(), 2, 0, target=v)),
    ("horizon", "eps", "(0, 1)", False, lambda v: distortion_horizon(v, 2)),
    ("horizon", "budget", "[0, inf)", False, lambda v: distortion_horizon(0.2, v)),
    ("distorted-max", "eps", "(0, 1)", False, lambda v: distorted_greedy_max(_reg(), 2, v)),
    ("distorted-max", "budget", "[0, inf)", False, lambda v: distorted_greedy_max(_reg(), v, 0.2)),
    ("convert-reg", "alpha", "(-inf, inf)", False,
     lambda v: convert_regularized(lambda scaled, budget: (), _reg(), v, 0.8, 1.0)),
    ("convert-reg", "gamma", "(0, 1]", False,
     lambda v: convert_regularized(lambda scaled, budget: (), _reg(), 0.1, v, 1.0)),
    ("convert-reg", "beta", "(0, inf)", False,
     lambda v: convert_regularized(lambda scaled, budget: (), _reg(), 0.1, 0.8, v)),
    ("distorted-cover", "eps", "(0, 1)", False, lambda v: distorted_cover(_reg(), v, 0.5)),
    ("distorted-cover", "alpha", "(-inf, inf)", False, lambda v: distorted_cover(_reg(), 0.2, v)),
    ("truncate", "truncation threshold", "[0, inf)", False, lambda v: TruncatedOracle(_path(), v)),
    ("cover-instance", "tau", "[0, inf)", False, lambda v: CoverInstance(_path(), v)),
    ("regularized-instance", "tau", "(-inf, inf)", True, lambda v: _reg(tau=v)),
    ("synthetic", "p_head", "[0, 1]", False,
     lambda v: make_synthetic_summarization(10, 5, v, 0.1, 2, seed=0)),
    ("synthetic", "p_tail", "[0, 1]", False,
     lambda v: make_synthetic_summarization(10, 5, 0.4, v, 2, seed=0)),
    ("grid", "eps", "(0, 1)", False, lambda v: _grid(eps_values=(0.2, v))),
    ("grid", "tau fraction", "[0, inf)", False, lambda v: _grid(tau_fractions=(v,))),
    ("grid", "alpha", "(-inf, inf)", False, lambda v: _grid(alpha=v)),
    ("grid", "delta", "(0, 1)", False, lambda v: _grid(delta=v)),
    ("grid", "timeout_ms", "[0, inf]", True, lambda v: _grid(sub_timeout_ms=v)),
]


def _bad_values(param, interval, optional):
    """A str; True where 1 would be accepted (0 and 1 both lie outside (0, 1),
    so there a bool always failed); None where None is not allowed; for a
    budget an int beyond float range; and for a search target, under which
    a NaN would never prune, NaN and inf."""
    yield "str", "0.5"
    if interval != "(0, 1)":
        yield "bool", True
    if not optional:
        yield "None", None
    if param == "budget":
        yield "10**400", 10**400
    if param == "target":
        yield "nan", math.nan
        yield "inf", math.inf


INPUT_CHECKS = {
    "gamma-zero": (lambda: convert_cover(greedy_max, _cover(), 0.1, 0.0), "gamma must lie in"),
    "gamma-above-one": (lambda: convert_cover(greedy_max, _cover(), 0.1, 1.5), "gamma must lie in"),
    "gamma-nan": (lambda: convert_cover(greedy_max, _cover(), 0.1, math.nan), "gamma must lie in"),
    "greedy-on-cut": (lambda: greedy_cover(_cover(_path()), 0.2), "requires a monotone oracle"),
    "thresh-on-cut": (lambda: threshold_greedy_cover(_cover(_path()), 0.2),
                      "requires a monotone oracle"),
    "stoch-on-cut": (lambda: stochastic_greedy_cover(_cover(_path()), 0.2, 0.1, 0.1, seed=0),
                     "requires a monotone oracle"),
    **{f"{entry}-{param}-{label}": (lambda call=call, value=value: call(value),
                                    f"{param} must lie in {re.escape(interval)}, got ")
       for entry, param, interval, optional, call in REAL_PARAMETERS
       for label, value in _bad_values(param, interval, optional)},
    # past the 4300-digit limit of int to str, the message gives the int's size
    "greedy-max-budget-10**5000": (lambda: greedy_max(_cover().oracle, 10**5000),
                                   r"budget must lie in \[0, inf\), got an int of 16610 bits"),
    "stream-without-sub": (lambda: stream_cover(_cover(_path()), 0.5, 0.5, None),
                           "unknown SMP subroutine kind None"),
    "cut-fractional-size": (lambda: GraphCutOracle(2.5, [(0, 1)]),
                            "ground set size must be an integer"),
    "cut-str-size": (lambda: GraphCutOracle("3", [(0, 1)]), "ground set size must be an integer"),
    "cut-bool-size": (lambda: GraphCutOracle(True, []), "ground set size must be an integer"),
    "cut-str-weight": (lambda: GraphCutOracle(3, [(0, 1, "2.5")]),
                       "each edge weight must be a real number"),
    "cut-bool-weight": (lambda: GraphCutOracle(3, [(0, 1, True)]),
                        "each edge weight must be a real number"),
    "str-costs": (lambda: RegularizedInstance(CoverageOracle([{0}, {1}]), ["0.1", "x"]),
                  "each cost must be a real number"),
    "bool-costs": (lambda: RegularizedInstance(CoverageOracle([{0}, {1}]), [True, False]),
                   "each cost must be a real number"),
    # a bool is no element id, endpoint, tag id, weight or cost, also where
    # numpy would read its list as numbers
    "bool-element-eval": (lambda: CoverageOracle([{0}, {1, 2}]).eval([True]),
                          "every element id must be an integer"),
    "bool-element-ground": (lambda: exact_max_search(_path(), [True, 0], 2),
                            "every element id must be an integer"),
    "cut-bool-endpoint": (lambda: GraphCutOracle(2, [(True, 0)]),
                          "every edge endpoint must be an integer"),
    "coverage-bool-tag": (lambda: CoverageOracle([[0, True]]), "every tag id must be an integer"),
    "cut-bool-among-weights": (lambda: GraphCutOracle(2, [(0, 1, True), (0, 1, 2)]),
                               "each edge weight must be a real number, got a bool"),
    "bool-among-costs": (lambda: RegularizedInstance(CoverageOracle([{0}, {1}, {2}]), [1, True, 0.5]),
                         "each cost must be a real number, got a bool"),
    "grid-unknown-kind": (lambda: _grid(kind="bogus"), "unknown dataset kind 'bogus'"),
    "grid-unhashable-kind": (lambda: _grid(kind=["tags"]), "unknown dataset kind"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_checks_raise_before_any_query(case):
    run, message = INPUT_CHECKS[case]
    with mock.patch.object(oracles.QueryCounter, "tick", _no_query), \
            pytest.raises(InputError, match=message):
        run()


SEEDED = {
    "stoch": lambda seed: stochastic_greedy_cover(_cover(), 0.2, 0.1, 0.1, seed),
    "convert": lambda seed: convert_cover(
        stochastic_max_subroutine(0.2), _cover(), 0.1, 0.8, seed=seed),
    "convert-rand": lambda seed: convert_cover_randomized(
        stochastic_max_subroutine(0.2), _cover(), 0.1, 0.1, 0.2, seed=seed),
    "stream": lambda seed: stream_cover(_cover(_path()), 0.2, 0.1, smp_subroutine("rg"), seed=seed),
    "sampled-max": lambda seed: stochastic_max_subroutine(0.2)(_cover().oracle, 2, seed),
    "random-greedy": lambda seed: random_greedy_max(_path(), 2, seed),
    "double-greedy": lambda seed: double_greedy_max(_path(), seed),
    "synthetic": lambda seed: make_synthetic_summarization(10, 5, 0.4, 0.1, 2, seed).tag_sets,
    "derive-seed": lambda seed: derive_seed(seed, 0),
    "derive-seed-key": lambda seed: derive_seed(0, 1, seed),
}
# the name a message gives the checked value, where it is not "seed"
SEED_NAMES = {"derive-seed-key": "seed key"}


@pytest.mark.parametrize("seed, rule", [(-1, "seed must be non-negative"),
                                        (1.5, "seed must be an integer"),
                                        (True, "seed must be an integer")])
@pytest.mark.parametrize("name", SEEDED)
def test_seed_checked_before_any_query(name, seed, rule):
    # every broken rule raises the one message, which names the interval
    what = SEED_NAMES.get(name, "seed")
    message = re.escape(f"{what} must be an integer in [0, inf), got {seed!r}")
    with mock.patch.object(oracles.QueryCounter, "tick", _no_query), \
            pytest.raises(InputError, match=message):
        SEEDED[name](seed)


@pytest.mark.parametrize("name", SEEDED)
def test_whole_float_seed_runs_as_that_integer(name):
    first, second = SEEDED[name](2.0), SEEDED[name](2)
    assert getattr(first, "solution", first) == getattr(second, "solution", second)


@pytest.mark.parametrize("name", ["derive-seed", "derive-seed-key"])
def test_seed_past_int64_rejected(name):
    what = SEED_NAMES.get(name, "seed")
    with pytest.raises(InputError, match=re.escape(f"{what} must be an integer in the int64 range")):
        SEEDED[name](2**64)
