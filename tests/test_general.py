"""Stream cover, its maximization subroutines, and the structural claims
behind them."""

import dataclasses
import itertools
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subcover import (
    CoverageOracle,
    CoverInstance,
    GraphCutOracle,
    InputError,
    RegularizedInstance,
    SmpSubroutine,
    Status,
    TruncatedOracle,
    classify_monotone_elements,
    convert_cover,
    distorted_greedy_max,
    double_greedy_max,
    exact_max_search,
    exact_min_cover,
    fast_exact_max_search,
    greedy_max,
    make_synthetic_summarization,
    random_greedy_max,
    smp_subroutine,
    stochastic_max_subroutine,
    stream_cover,
)

from subcover import nonmonotone, oracles
from subcover.monotone import _budget_schedule
from subcover.oracles import TOL, SetFunctionOracle, SolutionState

from util import (
    FallbackCoverage,
    SignedCut,
    brute_max_all,
    brute_max_subsets,
    random_coverage,
    random_edges,
    random_graph,
    reference_exact_max_search,
    reference_fill_buckets,
    reference_random_greedy,
    reference_random_greedy_rounds,
    stream_event_faults,
)


def four_cycle():
    return GraphCutOracle(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def star(leaves):
    return GraphCutOracle(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestStreamCover:
    def test_zero_threshold(self):
        res = stream_cover(CoverInstance(four_cycle(), 0.0), 0.5, 0.2, smp_subroutine("ex"))
        assert res.solution == () and res.status == Status.SOLVED

    def test_monotone_instance_with_exact(self):
        rng = np.random.default_rng(31)
        oracle = random_coverage(rng, 10)
        tau = oracle.peek(range(10))
        opt = exact_min_cover(CoverInstance(oracle.clone(), tau))
        res = stream_cover(CoverInstance(oracle.clone(), tau), 0.5, 0.2, smp_subroutine("ex"))
        assert res.status == Status.SOLVED
        assert res.f_value >= 0.5 * tau - 1e-9
        assert res.size <= 1.2 * (2 / 0.5 + 1) * len(opt.solution)

    def test_four_cycle_maxcut_threshold(self):
        res = stream_cover(CoverInstance(four_cycle(), 4.0), 0.5, 0.2, smp_subroutine("ex"))
        assert res.status == Status.SOLVED
        assert res.f_value >= 2.0 - 1e-9

    def test_solved_never_below_acceptance(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            oracle = random_graph(rng, 9, 0.4)
            best, _ = brute_max_all(oracle)
            if best == 0:
                continue
            tau = 0.8 * best
            res = stream_cover(CoverInstance(oracle, tau), 0.5, 0.2, smp_subroutine("ex"))
            if res.status == Status.SOLVED:
                assert res.f_value >= 0.5 * tau - 1e-9

    def test_bucket_invariant_every_element(self):
        rng = np.random.default_rng(33)
        oracle = random_graph(rng, 10, 0.5)
        best, _ = brute_max_all(oracle)
        events = []
        eps = 0.5
        stream_cover(
            CoverInstance(oracle, 0.7 * best), eps, 0.3, smp_subroutine("ex"),
            on_event=lambda kind, fields: events.append((kind, fields)),
        )
        # one "store" per stored element, the buckets checked after each,
        # then one "pass" whose stored set is the union of the stores
        faults, passes = stream_event_faults(events, math.ceil(2 / eps))
        assert passes and not faults
        assert sum(kind == "store" for kind, _ in events) == sum(
            len(fields["stored"]) for kind, fields in events if kind == "pass")

    def test_infeasible_when_threshold_unreachable(self):
        oracle = GraphCutOracle(3, [(0, 1)])
        res = stream_cover(CoverInstance(oracle, 50.0), 0.5, 0.5, smp_subroutine("ex"))
        assert res.status == Status.INFEASIBLE

    def test_bucket_filter_matches_naive_replay(self):
        # replay the pass filter with uncounted evaluations only
        rng = np.random.default_rng(50)
        eps = 0.5
        for _ in range(15):
            oracle = random_graph(rng, 11, 0.5, weighted=True)
            best, _ = brute_max_all(oracle)
            if best == 0:
                continue
            tau = 0.9 * best
            g = float(rng.uniform(1.0, 4.0))
            passes = []
            stream_cover(
                CoverInstance(oracle.clone(), tau), eps, 0.3, smp_subroutine("ex"),
                on_event=lambda kind, p: passes.append(p) if kind == "pass" else None,
                initial_guess=g,
            )
            cap = math.ceil(2 * g / eps)
            bar = eps * tau / (2 * g)
            buckets = [[] for _ in range(math.ceil(2 / eps))]
            for u in range(11):
                for bucket in buckets:
                    if len(bucket) >= cap:
                        continue
                    gain = oracle.peek(bucket + [u]) - oracle.peek(bucket)
                    if gain >= bar - 1e-9:
                        bucket.append(u)
                        break
            expected = sorted(x for bucket in buckets for x in bucket)
            assert list(passes[0]["stored"]) == expected


    @pytest.mark.parametrize("tau", [3.0, 50.0])
    def test_pass_guesses_follow_the_budget_schedule(self, tau):
        oracle = GraphCutOracle(6, [(0, 1), (2, 3), (4, 5)])
        guesses = []
        res = stream_cover(
            CoverInstance(oracle, tau), 0.5, 0.5, smp_subroutine("dg"), initial_guess=1.3,
            on_event=lambda kind, p: guesses.append(p["g"]) if kind == "pass" else None,
        )
        schedule = list(_budget_schedule(6, 0.5, 1.3))
        assert guesses and guesses == schedule[:len(guesses)]
        assert (res.status == Status.INFEASIBLE) == (guesses == schedule)

    def test_infeasible_run_returns_a_better_earlier_pass(self):
        """The first pass finds {0, 2} (value 2) and every later one {0}
        (value 1); no pass reaches the target, and the run returns the first
        pass's set, not the last one's."""
        oracle = GraphCutOracle(6, [(0, 1), (2, 3), (4, 5)])
        searches = itertools.chain([nonmonotone.SmpSearch((0, 2), 2.0)],
                                   itertools.repeat(nonmonotone.SmpSearch((0,), 1.0)))
        values = []
        with mock.patch.object(nonmonotone, "exact_max_search", side_effect=searches):
            res = stream_cover(
                CoverInstance(oracle, 50.0), 0.5, 0.5, smp_subroutine("ex"),
                on_event=lambda kind, p: values.append(p["smp_value"]) if kind == "pass" else None,
            )
        assert values == [2.0] + [1.0] * (len(list(_budget_schedule(6, 0.5))) - 1)
        assert res.status == Status.INFEASIBLE
        assert res.solution == (0, 2) and res.f_value == 2.0


class TestSmpSubroutineNames:
    @pytest.mark.parametrize("kind, long_name", [
        ("ex", "exact"), ("fex", "fast-exact"), ("dg", "double-greedy"), ("rg", "random-greedy"),
    ])
    def test_short_names(self, kind, long_name):
        assert smp_subroutine(kind).kind == kind
        with pytest.raises(InputError):
            smp_subroutine(long_name)

    @pytest.mark.parametrize("kind", [
        "exact", "fast-exact", "double-greedy", "random-greedy", "EX", "Fex", "greedy", ["ex"],
    ])
    def test_other_names_rejected(self, kind):
        with pytest.raises(InputError):
            smp_subroutine(kind)

    @pytest.mark.parametrize("kind", ["exact-ish", "fast-exact", "double-greedy", ["exact"], None])
    def test_descriptor_rejects_unknown_kind_before_any_query(self, kind):
        oracle = star(3)
        with pytest.raises(InputError, match="unknown SMP subroutine kind"):
            stream_cover(CoverInstance(oracle, 3.0), 0.5, 0.5, SmpSubroutine(kind))
        assert oracle.query_count == 0

    def test_stream_cover_checks_a_hand_made_descriptor(self):
        oracle = star(3)
        sub = SimpleNamespace(kind="exact", timeout_ms=None)  # skips SmpSubroutine's check
        with pytest.raises(InputError, match="unknown SMP subroutine kind"):
            stream_cover(CoverInstance(oracle, 3.0), 0.5, 0.5, sub)
        assert oracle.query_count == 0


class TestStreamCoverNonFiniteParameters:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["alpha", "initial_guess"])
    def test_rejected(self, name, value):
        kwargs = {"alpha": 0.5, name: value}
        with pytest.raises(InputError, match=name):
            stream_cover(CoverInstance(four_cycle(), 4.0), 0.5, sub=smp_subroutine("ex"), **kwargs)


@pytest.mark.parametrize("eps", [1e-308, 5e-324])
def test_stream_cover_rejects_an_eps_whose_largest_cap_overflows(eps):
    """2 max(n, 1) / eps, the cap of the last guess, is inf: InputError
    before any query, not an OverflowError from the bucket count."""
    oracle = four_cycle()
    with pytest.raises(InputError, match="largest bucket cap"):
        stream_cover(CoverInstance(oracle, 4.0), eps, 0.5, smp_subroutine("dg"))
    assert oracle.query_count == 0


def test_stream_cover_at_an_eps_just_inside_the_float_range():
    """eps = 1e-300 on four vertices: 2e300 buckets a pass, all but the
    ones that store charged without being built."""
    res = stream_cover(CoverInstance(four_cycle(), 4.0), 1e-300, 0.5, smp_subroutine("dg"))
    assert res.status == Status.SOLVED and res.f_value == 4.0
    assert res.queries >= math.ceil(2.0 / 1e-300)


@pytest.mark.parametrize("kind", ["ex", "dg"])
def test_stream_cover_requires_a_nonnegative_oracle(kind):
    oracle = SignedCut(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(InputError, match="requires a non-negative oracle"):
        stream_cover(CoverInstance(oracle, 4.0), 0.5, 0.5, smp_subroutine(kind))
    assert oracle.query_count == 0


class TestRandomGreedy:
    def test_single_element(self):
        oracle = CoverageOracle([{0}])
        assert random_greedy_max(oracle, 1, seed=0) == (0,)

    def test_full_budget_value_bounded_by_total(self):
        rng = np.random.default_rng(36)
        oracle = random_coverage(rng, 6)
        sol = random_greedy_max(oracle.clone(), 6, seed=1)
        assert oracle.peek(sol) <= oracle.peek(range(6))

    def test_expected_value_at_least_1_over_e(self):
        rng = np.random.default_rng(37)
        oracle = random_graph(rng, 5, 0.6)
        kappa = 2
        opt, _ = brute_max_subsets(oracle, kappa)
        values = [
            oracle.peek(random_greedy_max(oracle.clone(), kappa, seed=s))
            for s in range(300)
        ]
        assert sum(values) / len(values) >= (opt / math.e) * 0.97


MAXIMIZERS = {
    "greedy": lambda o, kappa: greedy_max(o, kappa),
    "sampled": lambda o, kappa: stochastic_max_subroutine(0.2)(o, kappa, 0),
    "random": lambda o, kappa: random_greedy_max(o, kappa, 0),
    "exact": lambda o, kappa: exact_max_search(o, range(o.n), kappa).solution,
    "fast-exact": lambda o, kappa: fast_exact_max_search(o, range(o.n), kappa).solution,
    # the exact maximum over the whole ground set: no ground, so no restricted view
    "brute": lambda o, kappa: exact_max_search(o, None, kappa).solution,
    "distorted": lambda o, kappa: distorted_greedy_max(
        RegularizedInstance(o, np.zeros(o.n)), kappa, 0.2),
}


class TestMaximizerBudgets:
    """Every maximizer checks its budget with one rule, before any query."""

    @pytest.mark.parametrize("kappa", [-1, -3, -0.5, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", list(MAXIMIZERS))
    def test_negative_or_non_finite_budget_rejected(self, name, kappa):
        oracle = CoverageOracle([{0}, {1, 2}, {2}])
        with pytest.raises(InputError, match="budget"):
            MAXIMIZERS[name](oracle, kappa)
        assert oracle.query_count == 0

    @pytest.mark.parametrize("kappa", [2.5, 3 - 1e-13])
    @pytest.mark.parametrize("name", ["greedy", "random", "exact", "fast-exact", "brute"])
    def test_real_budget_runs_as_rounded_up_integer(self, name, kappa):
        # one rounding rule: up, less 1e-12 of float slack
        oracle, reference = (CoverageOracle([{0}, {1, 2}, {2}, {3}]) for _ in range(2))
        assert MAXIMIZERS[name](oracle, kappa) == MAXIMIZERS[name](reference, 3)
        assert oracle.query_count == reference.query_count
        slack = MAXIMIZERS[name](oracle.clone(), 2.0 + 1e-13)
        assert slack == MAXIMIZERS[name](reference.clone(), 2)

    @pytest.mark.parametrize("name", list(MAXIMIZERS))
    def test_zero_budget_chooses_nothing(self, name):
        # distorted greedy too, although in (0, 1) its budget raises
        oracle = CoverageOracle([{0}, {1, 2}, {2}])
        assert MAXIMIZERS[name](oracle, 0) == ()
        # the exact maximizers report the empty set's value, and that costs one query
        assert oracle.query_count == (name in ("exact", "fast-exact", "brute"))

    def test_real_valued_budget_accepted(self):
        # convert_cover hands its maximizer real-valued budget guesses
        oracle = CoverageOracle([{0}, {1, 2}, {3}])
        assert greedy_max(oracle, 1.5) == (0, 1)
        assert set(stochastic_max_subroutine(0.2)(oracle, 1.5, 0)) <= {0, 1, 2}
        assert MAXIMIZERS["distorted"](oracle, 1.5) == (0, 1, 2)

    def test_random_greedy_runs_in_the_conversion(self):
        # its first guess is 1 + alpha = 1.1, rounded up to 2
        inst = CoverInstance(CoverageOracle([{0}, {1, 2}, {3}, {4, 5}]), 6.0)
        res = convert_cover(random_greedy_max, inst, 0.1, 0.5, seed=0)
        assert res.status == Status.SOLVED and res.f_value >= 3.0

    def test_random_greedy_budget_beyond_its_draw_range_rejected(self):
        # a draw among 10**19 slots is outside numpy's int64 range
        oracle = CoverageOracle([[0], [1], [2]])
        with pytest.raises(InputError, match="kappa must be at most 2\\*\\*63"):
            random_greedy_max(oracle, 1e19, 0)
        assert oracle.query_count == 0

    def test_distorted_greedy_budget_with_an_overflowing_horizon_rejected(self):
        # ln(1/0.1) * 1e308 is inf, so the horizon has no integer value
        oracle = CoverageOracle([[0], [1], [2]])
        with pytest.raises(InputError, match="budget .* too large"):
            distorted_greedy_max(RegularizedInstance(oracle, np.zeros(3)), 1e308, 0.1)
        assert oracle.query_count == 0

    @pytest.mark.parametrize("kappa,size", [(2.5, 3), (3.5, 4)])
    @pytest.mark.parametrize("name", ["greedy", "exact", "fast-exact"])
    def test_real_budget_rounded_up_alike(self, name, kappa, size):
        # one rounding rule: a budget sweep hands every maximizer the same cap
        assert len(MAXIMIZERS[name](CoverageOracle([[0], [1], [2], [3]]), kappa)) == size


class TestDoubleGreedy:
    def test_modular_accepts_positive_values_only(self):
        oracle = CoverageOracle([{0}, {1}, set(), {2, 3}])
        assert double_greedy_max(oracle, seed=0) == (0, 1, 3)

    def test_empty_graph_is_zero(self):
        oracle = GraphCutOracle(4, [])
        sol = double_greedy_max(oracle, seed=0)
        assert oracle.peek(sol) == 0.0

    def test_expected_value_at_least_half(self):
        rng = np.random.default_rng(38)
        oracle = random_graph(rng, 5, 0.6)
        opt, _ = brute_max_all(oracle)
        values = [
            oracle.peek(double_greedy_max(oracle.clone(), seed=s)) for s in range(300)
        ]
        assert sum(values) / len(values) >= (opt / 2) * 0.97


class TestExactMaxSearch:
    def test_monotone_full_budget(self):
        rng = np.random.default_rng(39)
        oracle = random_coverage(rng, 7)
        found = exact_max_search(oracle.clone(), range(7), 7)
        assert found.value == pytest.approx(oracle.peek(range(7)))

    def test_four_cycle_best_pair(self):
        found = exact_max_search(four_cycle(), range(4), 2)
        assert found.value == 4.0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(40)
        for _ in range(15):
            oracle = random_coverage(rng, 6)
            found = exact_max_search(oracle.clone(), range(6), 2)
            ref, _ = brute_max_subsets(oracle, 2)
            assert found.value == pytest.approx(ref)
        for _ in range(15):
            oracle = random_graph(rng, 7, 0.5, weighted=True)
            found = exact_max_search(oracle.clone(), range(7), 3)
            ref, _ = brute_max_subsets(oracle, 3)
            assert found.value == pytest.approx(ref)

    def test_greedy_prefix_meets_target_early(self):
        rng = np.random.default_rng(41)
        oracle = random_coverage(rng, 8)
        total = oracle.peek(range(8))
        found = exact_max_search(oracle.clone(), range(8), 8, target=0.5 * total)
        assert found.value >= 0.5 * total - 1e-9

    def test_timeout_flag(self):
        rng = np.random.default_rng(42)
        oracle = random_graph(rng, 16, 0.5)
        found = exact_max_search(oracle, range(16), 8, target=10 ** 9, timeout_ms=0.0)
        assert found.timed_out

    def test_unreachable_target_still_returns_exact_best(self):
        # pruning only cuts branches that can neither beat the incumbent nor
        # reach the target, so a futile target degrades nothing
        rng = np.random.default_rng(51)
        for _ in range(15):
            oracle = random_graph(rng, 8, 0.5, weighted=True)
            ref, _ = brute_max_subsets(oracle, 3)
            found = exact_max_search(oracle.clone(), range(8), 3, target=ref * 10 + 5)
            assert not found.timed_out
            assert found.value == pytest.approx(ref)

    @pytest.mark.parametrize("kappa", [1, 3, 9])
    def test_root_gains_charged_in_one_batch(self, kappa):
        # the branch-and-bound's first descent is the greedy phase, so the
        # empty root's gains over the ground are charged once, not twice
        oracle = random_graph(np.random.default_rng(43), 14, 0.4)
        ground = (0, 2, 3, 5, 7, 8, 10, 12, 13)
        ticks = []
        tick = oracles.QueryCounter.tick

        def counted(counter, queries=1):
            ticks.append(queries)
            tick(counter, queries)
        with mock.patch.object(oracles.QueryCounter, "tick", counted):
            exact_max_search(oracle, ground, kappa)
        assert ticks[:2] == [1, len(ground)]
        assert ticks.count(len(ground)) == 1
        assert sum(ticks) == oracle.query_count

    @pytest.mark.parametrize("seed", range(12))
    def test_optimum_as_target_is_reached(self, seed):
        rng = np.random.default_rng(seed)
        edges = [(u, v, float(rng.integers(1, 4)) if seed % 2 else 1.0)
                 for u, v, _ in random_edges(rng, 9, 0.5)]
        oracle = GraphCutOracle(9, edges)
        kappa = int(rng.integers(1, 10))
        best, _ = brute_max_subsets(oracle, kappa)
        found = exact_max_search(oracle, range(9), kappa, target=best)
        assert not found.timed_out
        assert found.value >= best - TOL
        assert len(found.solution) <= kappa
        assert oracle.peek(found.solution) == found.value


@st.composite
def search_oracles(draw):
    """(oracle, integral): a small cut, coverage or truncated oracle, and
    whether all its values are integers (unit or integer cut weights,
    coverage, integer truncation levels)."""
    kind = draw(st.sampled_from(
        ["unit", "integer", "float", "coverage", "truncated-coverage", "truncated-cut"]))
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from([0.3, 0.6]))
    if kind in ("coverage", "truncated-coverage"):
        oracle = random_coverage(rng, n)
    elif kind == "float":
        oracle = GraphCutOracle(n, random_edges(rng, n, p, weighted=True))
    else:
        edges = random_edges(rng, n, p)
        if kind == "integer":
            edges = [(u, v, float(rng.integers(1, 6))) for u, v, _ in edges]
        oracle = GraphCutOracle(n, edges)
    if kind.startswith("truncated"):
        oracle = TruncatedOracle(oracle, draw(st.integers(1, 10)))
    return oracle, kind != "float"


@settings(max_examples=200, deadline=None)
@given(inst=search_oracles(), data=st.data())
def test_exact_searches_match_the_reference(inst, data):
    """The searches against the pre-bisect, unrestricted reference: the same
    solution, value, timeout flag and query count on integer values; the
    same best value within TOL on real-valued cut weights."""
    oracle, integral = inst
    ground = sorted(data.draw(st.sets(st.integers(0, oracle.n - 1), min_size=1)))
    kappa = data.draw(st.integers(1, len(ground)))
    levels = st.integers(0, 16).map(float) if integral else st.floats(0.0, 16.0)
    target = data.draw(st.none() | levels)
    fast = data.draw(st.booleans())
    ours, theirs = oracle.clone(), oracle.clone()
    search = fast_exact_max_search if fast else exact_max_search
    found = search(ours, ground, kappa, target=target)
    ref = reference_exact_max_search(theirs, ground, kappa, target,
                                     fast=fast and kappa >= len(ground))
    if integral:
        assert found == ref
        assert ours.query_count == theirs.query_count
        return
    assert not found.timed_out
    assert found.value == pytest.approx(oracle.peek(found.solution), abs=TOL)
    if target is not None and ref.value >= target - TOL:
        assert found.value >= target - TOL
    else:
        assert abs(found.value - ref.value) <= TOL


@settings(max_examples=100, deadline=None)
@given(n=st.integers(12, 24), data=st.data())
def test_exact_searches_match_the_reference_at_search_scale(n, data):
    """On unit and integer cut graphs of up to 24 vertices with kappa well
    below the ground, windows end inside the list, so refreshes and
    branching shift entries in at a window's end: the running bound must
    give the reference's solution, value and query count."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    edges = random_edges(rng, n, data.draw(st.sampled_from([0.15, 0.3, 0.5])))
    if data.draw(st.booleans()):
        edges = [(u, v, float(rng.integers(1, 6))) for u, v, _ in edges]
    oracle = GraphCutOracle(n, edges)
    ground = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=n // 2)))
    kappa = data.draw(st.integers(1, max(1, len(ground) // 3)))
    target = data.draw(st.none() | st.integers(0, 4 * n).map(float))
    for search in (exact_max_search, fast_exact_max_search):
        ours, theirs = oracle.clone(), oracle.clone()
        found = search(ours, ground, kappa, target=target)
        assert found == reference_exact_max_search(theirs, ground, kappa, target)
        assert ours.query_count == theirs.query_count


@pytest.mark.parametrize("tau, integral", [(3.0, True), (2.5, False)])
def test_non_integral_gain_switches_the_bound_to_fsum(tau, integral):
    # root gains are 2, 2, 2; once one set is in, a second one gains
    # min(2 + 2, tau) - 2, which is 0.5 at tau 2.5: the first refresh in the
    # child meets a non-integral gain and bounds with fsum from then on
    base = CoverageOracle([[0, 1], [2, 3], [4, 5]])
    ours, theirs = TruncatedOracle(base, tau), TruncatedOracle(base.clone(), tau)
    with mock.patch.object(nonmonotone.math, "fsum", wraps=math.fsum) as fsum:
        found = exact_max_search(ours, range(3), 2)
    assert found == reference_exact_max_search(theirs, range(3), 2)
    assert found.solution == (0, 1) and found.value == tau
    assert ours.query_count == theirs.query_count
    # one fsum is the root window's sum; the running bound needs no other
    assert (fsum.call_count == 1) == integral


class UnrestrictedCut(GraphCutOracle):
    """Cut oracle whose restrict is the default one: a subroutine given a
    ground runs on the oracle itself, over the oracle's own ids."""

    restrict = SetFunctionOracle.restrict


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 10), data=st.data())
def test_subroutines_on_the_view_match_the_oracle(n, data):
    """Every subroutine given a ground, as a sorted list, a reversed tuple
    or a set, returns the same output and charges the same queries on the
    restricted view as on the oracle itself (integer weights, so both runs
    see the same floats); each solution is increasing oracle ids inside the
    ground."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    edges = [(u, v, float(rng.integers(1, 4))) for u, v, _ in random_edges(rng, n, 0.5)]
    drawn = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    ground = data.draw(st.sampled_from([sorted(drawn), tuple(sorted(drawn, reverse=True)), drawn]))
    kappa = data.draw(st.integers(1, len(ground) + 1))
    target = data.draw(st.none() | st.integers(0, 12).map(float))
    seed = data.draw(st.integers(0, 1000))
    runs = [
        lambda o: exact_max_search(o, ground, kappa, target=target),
        lambda o: fast_exact_max_search(o, ground, kappa, target=target),
        lambda o: double_greedy_max(o, seed, ground=ground),
        lambda o: random_greedy_max(o, kappa, seed, ground=ground, target=target),
    ]
    for run in runs:
        viewed, direct = GraphCutOracle(n, edges), UnrestrictedCut(n, edges)
        found = run(viewed)
        assert found == run(direct)
        assert viewed.query_count == direct.query_count
        solution = getattr(found, "solution", found)
        assert list(solution) == sorted(set(solution)) and set(solution) <= drawn


@st.composite
def pass_oracles(draw, max_n=90):
    """A stream-pass oracle: a unit-weight or weighted cut, a coverage
    oracle, a truncated one, or a coverage oracle on the generic state, on
    up to max_n elements; 90 make a pass span several doubled windows."""
    kind = draw(st.sampled_from(["unit", "weighted", "coverage", "truncated", "generic"]))
    n = draw(st.integers(0, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("unit", "weighted"):
        p = draw(st.sampled_from([0.05, 0.2, 0.5]))
        return GraphCutOracle(n, random_edges(rng, n, p, weighted=kind == "weighted"))
    oracle = random_coverage(rng, n, max_tags=40, ensure_nonempty=False)
    if kind == "truncated":
        return TruncatedOracle(oracle, draw(st.integers(0, 20)) / 2.0)
    if kind == "generic":
        return FallbackCoverage(oracle.tag_sets)
    return oracle


@settings(max_examples=200, deadline=None)
@given(oracle=pass_oracles(max_n=30), data=st.data())
def test_random_greedy_matches_the_per_candidate_loop(oracle, data):
    """The batched ranking against the per-candidate loop it replaced, with
    and without a ground and a target, budgets up to past the pool: the
    same solution and the same query count."""
    ground = data.draw(st.none() | st.sets(st.integers(0, max(oracle.n - 1, 0)), max_size=oracle.n))
    pool = oracle.n if ground is None else len(ground)
    kappa = data.draw(st.integers(0, pool + 3))
    target = data.draw(st.none() | st.integers(0, 12).map(float))
    seed = data.draw(st.integers(0, 1000))
    ours, theirs = oracle.clone(), oracle.clone()
    found = random_greedy_max(ours, kappa, seed, ground=ground, target=target)
    assert found == reference_random_greedy(theirs, kappa, seed, ground=ground, target=target)
    assert ours.query_count == theirs.query_count


@settings(max_examples=200, deadline=None)
@given(oracle=pass_oracles(max_n=30), data=st.data(), above=st.booleans())
def test_random_greedy_matches_the_per_round_loop(oracle, data, above):
    """Reusing the ranking of a round after a dummy pick, against the loop
    that ranks every round afresh, on cut, coverage and truncated oracles
    with kappa at most or above the pool: the same solution and the same
    query count.  Above the pool every round keeps all candidates and most
    picks are dummies."""
    ground = data.draw(st.none() | st.sets(st.integers(0, max(oracle.n - 1, 0)), max_size=oracle.n))
    pool = oracle.n if ground is None else len(ground)
    kappa = data.draw(st.integers(pool + 1, 4 * pool + 4) if above else st.integers(0, pool))
    target = data.draw(st.none() | st.integers(0, 12).map(float))
    seed = data.draw(st.integers(0, 1000))
    ours, theirs = oracle.clone(), oracle.clone()
    found = random_greedy_max(ours, kappa, seed, ground=ground, target=target)
    assert found == reference_random_greedy_rounds(theirs, kappa, seed, ground=ground, target=target)
    assert ours.query_count == theirs.query_count


@settings(max_examples=200, deadline=None)
@given(oracle=pass_oracles(), data=st.data())
def test_bucket_pass_matches_the_sequential_scan(oracle, data):
    """The batched pass against the one-by-one scan, with one to eight
    buckets and caps that fill mid-pass: the same buckets, bucket values,
    query count and "store" events, with and without a hook.  The pass
    builds only the buckets up to the first empty one; every bucket of the
    scan after those is empty, with value f(empty)."""
    num_buckets = data.draw(st.integers(1, 8))
    cap = data.draw(st.integers(1, oracle.n + 1))
    threshold = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]) | st.floats(-1.0, 6.0))
    runs = []
    for fill, hooked in ((nonmonotone._fill_buckets, True), (reference_fill_buckets, True),
                         (nonmonotone._fill_buckets, False)):
        copy, events = oracle.clone(), []
        buckets = fill(copy, num_buckets, 1.5, cap, threshold,
                       (lambda kind, payload: events.append((kind, payload))) if hooked else None)
        runs.append(([sorted(b.members) for b in buckets], [b.value for b in buckets],
                     copy.query_count, events if hooked else None))
    ours, ref, unhooked = runs
    built = len(ours[0])
    assert 1 <= built <= num_buckets
    assert ours[0] == ref[0][:built] and ours[1] == ref[1][:built]
    assert ref[0][built:] == [[]] * (num_buckets - built)
    assert ref[1][built:] == [oracle.peek(())] * (num_buckets - built)
    assert ours[2:] == ref[2:]
    assert unhooked[:3] == ours[:3]


def pass_with_states_built(oracle, num_buckets, cap, threshold):
    """_fill_buckets on oracle, and the number of solution states it built
    on oracle: its oracle.state calls and copies of its states."""
    with mock.patch.object(SetFunctionOracle, "state", autospec=True,
                           side_effect=SetFunctionOracle.state) as state, \
            mock.patch.object(SolutionState, "copy", autospec=True,
                              side_effect=SolutionState.copy) as copy:
        buckets = nonmonotone._fill_buckets(oracle, num_buckets, 1.5, cap, threshold, None)
    built = sum(call.args[0] is oracle for call in state.call_args_list)
    return buckets, built + sum(call.args[0].oracle is oracle for call in copy.call_args_list)


def test_a_pass_over_a_billion_buckets_builds_one_state():
    """10**9 buckets and a threshold above every singleton gain: one state
    built, and the one-by-one scan's charge, one query per bucket and one
    per bucket and element."""
    oracle = random_graph(np.random.default_rng(7), 40, 0.2)
    threshold = max(oracle.peek([x]) for x in range(oracle.n)) + 1.0
    buckets, built = pass_with_states_built(oracle, 10**9, 3, threshold)
    assert built == 1 and [b.members for b in buckets] == [set()]
    assert oracle.query_count == 10**9 * (oracle.n + 1)


@settings(max_examples=100, deadline=None)
@given(oracle=pass_oracles(), data=st.data())
def test_bucket_pass_builds_one_state_more_than_it_stores_at_most(oracle, data):
    """A pass builds one state for each bucket it returns, and returns the
    buckets that stored plus at most one empty one, however many buckets
    the pass has."""
    num_buckets = data.draw(st.integers(1, 8) | st.just(10**9))
    cap = data.draw(st.integers(1, oracle.n + 1))
    threshold = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]) | st.floats(-1.0, 6.0))
    buckets, built = pass_with_states_built(oracle, num_buckets, cap, threshold)
    stored = sum(len(b.members) for b in buckets)
    assert built == len(buckets) <= min(num_buckets, stored + 1)
    assert all(b.members for b in buckets[:-1])


@pytest.mark.parametrize("kind, solution, queries", [
    ("dg", (0, 1, 2, 4, 14, 15, 19), 2_000_177),
    ("ex", (22,), 2_000_147),
])
def test_stream_cover_at_eps_1e_6_charges_the_unbuilt_buckets(kind, solution, queries):
    """eps = 1e-6 makes 2,000,000 buckets a pass; the queries are those of
    the pass that built every bucket."""
    oracle = make_synthetic_summarization(60, 30, 0.4, 0.002, 8, seed=0)
    inst = CoverInstance(oracle, 0.5 * oracle.peek(range(oracle.n)))
    res = stream_cover(inst, 1e-6, 0.5, smp_subroutine(kind), seed=0)
    assert res.status == Status.SOLVED
    assert (res.solution, res.queries) == (solution, queries)


def test_bucket_pass_takes_scalar_and_batched_windows():
    """A run of stores, a stretch of 100 elements with no store, then one
    more store in each bucket: the run and the start of the stretch are
    scanned with scalar gains, the rest of the stretch in batches, and the
    pass still matches the one-by-one scan."""
    oracle = CoverageOracle([{t} for t in range(5)] + [set()] * 100 + [{5}, {0}])

    def run(fill):
        copy, events = oracle.clone(), []
        buckets = fill(copy, 2, 1.0, 10, 1.0, lambda kind, payload: events.append(payload))
        return [sorted(b.members) for b in buckets], copy.query_count, events

    with mock.patch.object(oracles, "_batched_window", wraps=oracles._batched_window) as batched, \
            mock.patch.object(oracles, "_scalar_window", wraps=oracles._scalar_window) as scalar:
        ours = run(nonmonotone._fill_buckets)
    assert scalar.call_count > 5 and batched.call_count >= 3
    assert ours == run(reference_fill_buckets)
    assert ours[0] == [[0, 1, 2, 3, 4, 105], [106]]


@settings(max_examples=60, deadline=None)
@given(oracle=pass_oracles(max_n=40), data=st.data())
def test_stream_cover_matches_the_sequential_scan(oracle, data):
    """Whole stream_cover runs on the batched pass and on the one-by-one
    scan: the same result (solution, value, status, queries) and the same
    "store" and "pass" payloads."""
    kinds = ["dg", "rg"] + (["ex", "fex"] if oracle.n <= 12 else [])
    sub = smp_subroutine(data.draw(st.sampled_from(kinds)))
    eps = data.draw(st.sampled_from([0.3, 0.5, 0.9]))
    tau = data.draw(st.sampled_from([1.0, 2.5, 4.0, 8.0]))
    guess = data.draw(st.none() | st.sampled_from([1.0, 1.5, 3.0]))
    seed = data.draw(st.integers(0, 1000))
    runs = []
    for fill in (nonmonotone._fill_buckets, reference_fill_buckets):
        copy, events = oracle.clone(), []
        with mock.patch.object(nonmonotone, "_fill_buckets", fill):
            res = stream_cover(CoverInstance(copy, tau), eps, 0.5, sub, seed=seed,
                               initial_guess=guess,
                               on_event=lambda kind, payload: events.append((kind, payload)))
        runs.append((dataclasses.replace(res, wall_ms=0.0), copy.query_count, events))
    assert runs[0] == runs[1]


class TestTimeouts:
    # vertices 0 and 1 are hubs with six leaves each; 2 hangs off both by
    # weight-4 edges.  A stream pass at guess 4 stores exactly {0, 1, 2}, on
    # which fex pins the monotone {0, 1} (value 20) before any branching
    EDGES = ([(0, 2, 4.0), (1, 2, 4.0)] + [(0, v) for v in range(3, 9)]
             + [(1, v) for v in range(9, 15)])

    @pytest.mark.parametrize("timeout_ms", [math.nan, -1.0, -math.inf])
    def test_bad_timeout_rejected_before_any_query(self, timeout_ms):
        with pytest.raises(InputError, match="timeout_ms"):
            smp_subroutine("ex", timeout_ms=timeout_ms)
        with pytest.raises(InputError, match="timeout_ms"):
            SmpSubroutine("fex", timeout_ms=timeout_ms)
        for search in (exact_max_search, fast_exact_max_search):
            oracle = four_cycle()
            with pytest.raises(InputError, match="timeout_ms"):
                search(oracle, range(4), 4, timeout_ms=timeout_ms)
            assert oracle.query_count == 0

    @pytest.mark.parametrize("timeout_ms", [None, 0.0, 5.5, math.inf])
    def test_good_timeout_accepted(self, timeout_ms):
        assert smp_subroutine("fex", timeout_ms=timeout_ms).timeout_ms == timeout_ms

    @pytest.mark.parametrize("kind, best", [("ex", ()), ("fex", (0, 1))])
    def test_stream_cover_returns_best_so_far_on_timeout(self, kind, best):
        oracle = GraphCutOracle(15, self.EDGES)
        passes = []
        res = stream_cover(
            CoverInstance(oracle, 48.0), 0.5, 0.5, smp_subroutine(kind, timeout_ms=0),
            initial_guess=4, on_event=lambda event, payload: passes.append(payload)
            if event == "pass" else None,
        )
        assert res.status == Status.BUDGET_EXHAUSTED
        assert [p["stored"] for p in passes] == [(0, 1, 2)]
        assert res.solution == best
        assert res.f_value == oracle.peek(res.solution) == passes[0]["smp_value"]
        assert res.f_value < res.target
        # without the deadline every pass runs and none reaches the target
        rerun = stream_cover(CoverInstance(oracle.clone(), 48.0), 0.5, 0.5,
                             smp_subroutine(kind), initial_guess=4)
        assert rerun.status == Status.INFEASIBLE

    @pytest.mark.parametrize("second, best", [((0,), (0, 2)), ((0, 2, 4), (0, 2, 4))])
    def test_timeout_at_the_second_pass_returns_the_best_of_both(self, second, best):
        """The first pass ends in time with {0, 2} (value 2); the second times
        out with a worse or a better set.  The run ends there, BudgetExhausted,
        with the better of the two."""
        oracle = GraphCutOracle(6, [(0, 1), (2, 3), (4, 5)])
        searches = [nonmonotone.SmpSearch((0, 2), 2.0),
                    nonmonotone.SmpSearch(second, float(len(second)), True)]
        with mock.patch.object(nonmonotone, "exact_max_search", side_effect=searches) as search:
            res = stream_cover(CoverInstance(oracle, 50.0), 0.5, 0.5, smp_subroutine("ex"))
        assert search.call_count == 2
        assert res.status == Status.BUDGET_EXHAUSTED
        assert res.solution == best and res.f_value == oracle.peek(best)


class TestClassifyMonotone:
    def test_monotone_oracle_all_monotone(self):
        rng = np.random.default_rng(43)
        oracle = random_coverage(rng, 8)
        mono, nonmono = classify_monotone_elements(oracle, range(8))
        assert mono == tuple(range(8)) and nonmono == ()

    def test_star_center_is_nonmonotone(self):
        oracle = star(4)
        mono, nonmono = classify_monotone_elements(oracle, range(5))
        assert 0 in nonmono  # cut(V) = 0 while cut(V - {center}) = deg

    def test_matches_per_element_recomputation(self):
        rng = np.random.default_rng(49)
        for _ in range(20):
            oracle = random_graph(rng, 8, 0.5, weighted=True)
            subset = sorted(int(x) for x in rng.permutation(8)[:6])
            mono, nonmono = classify_monotone_elements(oracle.clone(), subset)
            for x in subset:
                rest = [y for y in subset if y != x]
                delta = oracle.peek(subset) - oracle.peek(rest)
                assert (x in mono) == (delta >= -1e-9)

    def test_empty_input(self):
        assert classify_monotone_elements(star(3), ()) == ((), ())


class TestFastExactMaxSearch:
    def test_all_monotone_short_circuit(self):
        rng = np.random.default_rng(44)
        oracle = random_coverage(rng, 7)
        found = fast_exact_max_search(oracle.clone(), range(7), 7)
        assert set(found.solution) == set(range(7))

    def test_star_two_way_choice(self):
        oracle = star(4)
        found = fast_exact_max_search(oracle.clone(), range(5), 5)
        best = max(oracle.peek([1, 2, 3, 4]), oracle.peek([0, 1, 2, 3, 4]))
        assert found.value == pytest.approx(best)

    def test_equals_exact_when_unconstrained(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            oracle = random_graph(rng, 8, 0.5, weighted=True)
            fast = fast_exact_max_search(oracle.clone(), range(8), 8)
            slow = exact_max_search(oracle.clone(), range(8), 8)
            assert fast.value == pytest.approx(slow.value)

    def test_falls_back_when_constrained(self):
        rng = np.random.default_rng(46)
        oracle = random_graph(rng, 7, 0.5)
        fast = fast_exact_max_search(oracle.clone(), range(7), 2)
        ref, _ = brute_max_subsets(oracle, 2)
        assert fast.value == pytest.approx(ref)


class TestDisjointUnionLowerBound:
    def test_max_over_disjoint_parts(self):
        # for disjoint A_1..A_m and any B: max_i f(A_i u B) >= (1 - 1/m) f(B)
        rng = np.random.default_rng(47)
        for _ in range(200):
            n = int(rng.integers(4, 11))
            oracle = random_graph(rng, n, 0.4, weighted=True)
            ids = list(rng.permutation(n))
            m = int(rng.integers(2, 5))
            parts = [set() for _ in range(m)]
            usable = int(rng.integers(0, n + 1))
            for idx, x in enumerate(ids[:usable]):
                if rng.random() < 0.7:
                    parts[idx % m].add(int(x))
            b = {int(x) for x in rng.permutation(n)[: rng.integers(0, n + 1)]}
            best = max(oracle.peek(part | b) for part in parts)
            assert best >= (1 - 1 / m) * oracle.peek(b) - 1e-9


class TestStoredSetSuffices:
    def test_exact_over_union_reaches_target_once_guess_is_large(self):
        # after a pass whose guess is at least the optimal cover size, the
        # stored union contains a set of size <= (2/eps + 1) * g reaching
        # (1 - eps) * tau
        rng = np.random.default_rng(48)
        eps = 0.5
        checked = 0
        for _ in range(40):
            oracle = random_graph(rng, 10, 0.4)
            best, _ = brute_max_all(oracle)
            if best == 0:
                continue
            tau = 0.9 * best
            opt = exact_min_cover(CoverInstance(oracle.clone(), tau))
            if opt is None or not opt.solution:
                continue
            opt_size = len(opt.solution)
            passes = []

            def on_event(kind, payload):
                if kind == "pass":
                    passes.append(payload)

            stream_cover(
                CoverInstance(oracle.clone(), tau), eps, 0.2,
                smp_subroutine("ex"), on_event=on_event, initial_guess=opt_size,
            )
            payload = passes[0]
            assert payload["g"] >= opt_size
            budget = math.ceil((2 / eps + 1) * payload["g"])
            found = exact_max_search(oracle.clone(), payload["stored"], budget)
            assert found.value >= (1 - eps) * tau - 1e-9
            checked += 1
        assert checked > 10
