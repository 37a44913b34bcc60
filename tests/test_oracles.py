"""Oracle-layer behaviour: evaluation, counting, truncation, generators."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import subcover
from subcover import (
    CoverageOracle,
    CoverInstance,
    GraphCutOracle,
    InputError,
    RegularizedInstance,
    SetFunctionOracle,
    TOL,
    Status,
    TruncatedOracle,
    exact_max_search,
    exact_min_cover,
    greedy_cover,
    make_greedy_tightness_instance,
    make_synthetic_summarization,
    smp_subroutine,
    stream_cover,
    threshold_greedy_cover,
)

from subcover.oracles import _CoverageState, _ranks, _threshold_scan

from util import (FallbackCoverage, SignedCut, brute_max_subsets, edge_list_cut, random_coverage,
                  random_edges, random_graph, reference_cut_inside, reference_cut_value,
                  reference_cut_value_fsum, reference_tightness_slices)


def two_element_coverage():
    # t(0) = {t1, t2}, t(1) = {t2, t3}
    return CoverageOracle([{0, 1}, {1, 2}])


def triangle_cut():
    return GraphCutOracle(3, [(0, 1), (1, 2), (0, 2)])


class TestEval:
    def test_empty_set_is_zero(self):
        assert two_element_coverage().eval([]) == 0.0

    def test_union_of_tags(self):
        # independent check: union of {t1,t2} and {t2,t3} has 3 tags
        expected = len({0, 1} | {1, 2})
        assert two_element_coverage().eval([0, 1]) == expected

    def test_triangle_single_vertex_cut(self):
        # vertex 0 touches edges (0,1) and (0,2)
        assert triangle_cut().eval([0]) == 2.0

    def test_out_of_range_element(self):
        with pytest.raises(InputError):
            two_element_coverage().eval([0, 5])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InputError):
            two_element_coverage().eval([0, 0])


ELEMENT_QUERIES = {
    "peek": lambda oracle, x: oracle.peek([x]),
    "eval": lambda oracle, x: oracle.eval([x]),
    "state": lambda oracle, x: oracle.state([x]).value,
    "gain": lambda oracle, x: oracle.state(()).gain(x),
    "removal_gain": lambda oracle, x: oracle.state([1]).removal_gain(x),
    "gains": lambda oracle, x: oracle.state(()).gains([x]).tolist(),
    "restrict": lambda oracle, x: oracle.restrict([x]).n,
}


@pytest.mark.parametrize("query", sorted(ELEMENT_QUERIES))
@pytest.mark.parametrize("make", [two_element_coverage, triangle_cut])
def test_element_ids_checked_at_query_time(make, query):
    """An element id must be an integer or an integral float: 0.7, 1.5,
    nan, inf and "1" raise instead of being truncated to an element, and
    True and False instead of standing for 1 and 0."""
    ask = ELEMENT_QUERIES[query]
    for bad in (0.7, 1.5, np.float64(1.5), math.nan, math.inf, "1", True, False, np.True_):
        with pytest.raises(InputError):
            ask(make(), bad)
    assert ask(make(), 1.0) == ask(make(), np.float64(1.0)) == ask(make(), 1)


@pytest.mark.parametrize("cands", [[True, 0], [0, np.False_], (1, False), np.array([True, False])],
                         ids=["list", "numpy-bool-in-list", "tuple", "bool-array"])
@pytest.mark.parametrize("make", [two_element_coverage, triangle_cut])
def test_bool_candidates_rejected(make, cands):
    """A bool among a batch's candidates raises, also where numpy would read
    the list as integers; the refused batch charges nothing."""
    oracle = make()
    state = oracle.state(())
    with pytest.raises(InputError, match="every element id must be an integer"):
        state.gains(cands)
    assert oracle.query_count == 1


THREE_ELEMENT_ORACLES = {
    "coverage": lambda: CoverageOracle([[0], [1, 2], [3]]),
    "truncated": lambda: TruncatedOracle(CoverageOracle([[0], [1, 2], [3]]), 2.5),
    "generic": lambda: FallbackCoverage([[0], [1, 2], [3]]),
    "cut": lambda: GraphCutOracle(3, [(0, 1), (1, 2, 2.0)]),
}


@pytest.mark.parametrize("kind", sorted(THREE_ELEMENT_ORACLES))
def test_uint64_candidates_past_int64_rejected(kind):
    """A uint64 candidate past the int64 range raises the int64-range error
    (not that of the negative id it wraps to) and charges nothing; uint64
    ids that int64 holds are taken."""
    oracle = THREE_ELEMENT_ORACLES[kind]()
    state = oracle.state(())
    for big in (2**63, 2**64 - 1):
        with pytest.raises(InputError, match="int64 range"):
            state.gains(np.array([big], dtype=np.uint64))
    assert oracle.query_count == 1
    assert state.gains(np.arange(3, dtype=np.uint64)).tolist() == state.gains([0, 1, 2]).tolist()


@pytest.mark.parametrize("members, change", [
    ((), lambda state: state.add(1.5, 2.0)),
    ((0,), lambda state: state.add(0, 1.0)),
    ((), lambda state: state.add(99, 0.0)),
    ((0,), lambda state: state.remove(0.5, -1.0)),
    ((0,), lambda state: state.remove(1, -2.0)),
    ((0,), lambda state: state.remove(99, 0.0)),
], ids=["add-fraction", "add-member", "add-outside", "remove-fraction", "remove-non-member",
        "remove-outside"])
@pytest.mark.parametrize("kind", sorted(THREE_ELEMENT_ORACLES))
def test_add_and_remove_with_a_gain_check_the_id(kind, members, change):
    """A supplied gain skips the query, not the id and membership checks;
    a refused change leaves the state and the counter as they were."""
    oracle = THREE_ELEMENT_ORACLES[kind]()
    state = oracle.state(members)
    before = (set(state.members), state.value, oracle.query_count)
    with pytest.raises(InputError):
        change(state)
    assert (set(state.members), state.value, oracle.query_count) == before


class TestQueryCount:
    def test_fresh_oracle_is_zero(self):
        assert two_element_coverage().query_count == 0

    def test_counts_eval_calls(self):
        oracle = two_element_coverage()
        for _ in range(3):
            oracle.eval([0])
        assert oracle.query_count == 3

    def test_peek_is_free(self):
        oracle = two_element_coverage()
        oracle.peek([0, 1])
        assert oracle.query_count == 0

    def test_clone_has_independent_counter(self):
        oracle = two_element_coverage()
        oracle.eval([0])
        dup = oracle.clone()
        assert dup.query_count == 0
        dup.eval([1])
        assert oracle.query_count == 1 and dup.query_count == 1

    def test_state_gains_cost_one_each(self):
        oracle = two_element_coverage()
        state = oracle.state(())  # one query for f(empty)
        state.gain(0)
        state.gain(1)
        assert oracle.query_count == 3


class TestTruncation:
    def test_min_semantics(self):
        oracle = two_element_coverage()
        capped = TruncatedOracle(oracle, 2.0)
        assert capped.eval([0, 1]) == 2.0
        assert capped.eval([0]) == 2.0
        assert TruncatedOracle(oracle, 3.0).eval([0]) == 2.0

    def test_negative_tau_rejected(self):
        with pytest.raises(InputError):
            TruncatedOracle(two_element_coverage(), -1.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(InputError):
            TruncatedOracle(two_element_coverage(), tau)

    def test_shares_query_counter(self):
        oracle = two_element_coverage()
        capped = TruncatedOracle(oracle, 2.0)
        capped.eval([0])
        oracle.eval([1])
        assert oracle.query_count == 2 and capped.query_count == 2

    def test_preserves_flags(self):
        capped = TruncatedOracle(two_element_coverage(), 1.0)
        assert capped.monotone and capped.nonnegative

    def test_truncated_state_tracks_values(self):
        oracle = two_element_coverage()
        capped = TruncatedOracle(oracle, 2.0)
        state = capped.state(())
        g0 = state.gain(0)
        state.add(0, g0)
        g1 = state.gain(1)
        state.add(1, g1)
        assert state.value == capped.peek([0, 1]) == 2.0

    def test_truncated_state_removal(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            oracle = random_coverage(rng, 8)
            cap = 0.6 * oracle.peek(range(8))
            capped = TruncatedOracle(oracle, cap)
            state = capped.state(range(8))
            for x in [int(v) for v in rng.permutation(8)[:4]]:
                state.remove(x, state.removal_gain(x))
                assert state.value == pytest.approx(capped.peek(state.members))

    def test_truncated_clone_independent(self):
        oracle = two_element_coverage()
        capped = TruncatedOracle(oracle, 2.0)
        capped.eval([0])
        dup = capped.clone()
        assert dup.query_count == 0
        dup.eval([0, 1])
        assert capped.query_count == 1 and dup.query_count == 1
        assert dup.peek([0, 1]) == 2.0


class TestStateIncrementalConsistency:
    def test_coverage_matches_full_eval(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            oracle = random_coverage(rng, 10)
            state = oracle.state(())
            order = rng.permutation(10)
            for x in order[:6]:
                state.add(int(x), state.gain(int(x)))
            assert state.value == pytest.approx(oracle.peek(state.members))
            for x in list(state.members)[:2]:
                state.remove(x, state.removal_gain(x))
            assert state.value == pytest.approx(oracle.peek(state.members))

    def test_graph_cut_matches_full_eval(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            oracle = random_graph(rng, 9, 0.5, weighted=True)
            state = oracle.state(())
            for x in rng.permutation(9)[:5]:
                state.add(int(x), state.gain(int(x)))
            assert state.value == pytest.approx(oracle.peek(state.members))
            for x in list(state.members)[:2]:
                state.remove(x, state.removal_gain(x))
            assert state.value == pytest.approx(oracle.peek(state.members))


class TestGraphCutStorage:
    # 0-1 twice, 1-0 once, a self-loop on 2, vertex 4 isolated
    EDGES = [(0, 1, 0.5), (2, 2, 9.0), (1, 0), (0, 1, 0.25), (1, 2), (3, 0, 2.0)]

    def oracle(self):
        return GraphCutOracle(5, self.EDGES)

    def test_merged_sorted_rows(self):
        oracle = self.oracle()
        assert [a.tolist() for a in oracle.adjacency] == [[1, 3], [0, 2], [1], [0], []]
        assert [w.tolist() for w in oracle.edge_weights] == [
            [1.75, 2.0], [1.75, 1.0], [1.0], [2.0], []]
        assert oracle.weighted_degree.tolist() == [3.75, 2.75, 1.0, 2.0, 0.0]
        assert sum(map(len, oracle.adjacency)) // 2 == 3

    def test_peek_matches_edge_list(self):
        oracle = self.oracle()
        for size in range(6):
            for S in itertools.combinations(range(5), size):
                assert oracle.peek(S) == edge_list_cut(self.EDGES, S)

    @pytest.mark.parametrize("edges", [
        [(0, 1, 1e308)],
        [(0, 1, 6e307), (2, 3, 6e307)],
        [(0, 1, 1e308), (1, 0, 1e308)],  # the merged weight itself overflows
    ])
    def test_doubled_total_weight_past_the_float_range_rejected(self, edges):
        with pytest.raises(InputError, match="total edge weight, doubled"):
            GraphCutOracle(4, edges)

    def test_huge_weights_with_a_finite_doubled_total_give_exact_cuts(self):
        assert GraphCutOracle(2, [(0, 1, 1e307)]).peek((0, 1)) == 0.0
        # powers of two, so that the weighted degrees are exact
        oracle = GraphCutOracle(3, [(0, 1, 2.0**1020), (1, 2, 2.0**1021)])
        assert oracle.peek((0, 1, 2)) == oracle.peek(()) == 0.0
        assert oracle.peek((0, 1)) == 2.0**1021 and oracle.peek((1,)) == 3 * 2.0**1020
        assert oracle.state((0, 1)).gain(2) == -(2.0**1021)

    def test_clone_shares_graph(self):
        oracle = self.oracle()
        dup = oracle.clone()
        assert dup.adjacency is oracle.adjacency
        assert dup.edge_weights is oracle.edge_weights
        view = oracle.restrict([1, 2, 4])  # charges the parent's counter; its clone does not
        view.eval([0])
        dup = view.clone()
        assert dup.n == view.n == 3 and dup._cols is view._cols
        assert dup.query_count == 0
        dup.eval([1])
        assert (oracle.query_count, view.query_count, dup.query_count) == (1, 1, 1)

    def test_clone_keeps_the_subclass(self):
        oracle = SignedCut(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        dup = oracle.clone()
        assert type(dup) is SignedCut and dup.nonnegative is False
        with pytest.raises(InputError, match="requires a non-negative oracle"):
            stream_cover(CoverInstance(dup, 4.0), 0.5, 0.5, smp_subroutine("dg"))
        assert dup.query_count == 0

    def test_value_does_not_depend_on_member_order(self):
        # the same ten members inserted in two orders iterate in two orders;
        # the walk, which adds in iteration order, gives two floats for them
        oracle = random_graph(np.random.default_rng(61), 40, 0.3, weighted=True)
        order = [30, 19, 1, 33, 7, 2, 15, 24, 9, 23]
        forward, backward = set(), set()
        for x in order:
            forward.add(x)
        for x in reversed(order):
            backward.add(x)
        assert list(forward) != list(backward)
        assert reference_cut_value(oracle, forward) != reference_cut_value(oracle, backward)
        assert oracle.peek(forward) == oracle.peek(backward) == oracle.state(backward).value

    def test_empty_ground_set(self):
        oracle = GraphCutOracle(0, [])
        assert oracle.peek(()) == 0.0 and not sum(map(len, oracle.adjacency))
        assert oracle.state(()).value == 0.0

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_weight_rejected(self, weight):
        with pytest.raises(InputError):
            GraphCutOracle(3, [(0, 1), (1, 2, weight)])

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 3)], [(0, 1.5)], [(0, math.nan)], [(math.inf, 1)], [(0, 2**70)],
        [(-2**63 - 1, 1)], [(0, "1")],
    ], ids=["outside", "non-integral", "nan", "inf", "beyond-int64", "below-int64", "string"])
    def test_out_of_range_endpoint_rejected(self, edges):
        with pytest.raises(InputError):
            GraphCutOracle(3, edges)

    @pytest.mark.parametrize("edge", [(0,), (0, 1, 1.0, 2), ()])
    def test_edge_of_wrong_length_rejected(self, edge):
        with pytest.raises(InputError, match=re.escape(repr(edge))):
            GraphCutOracle(3, [(0, 1), edge])

    def test_integral_float_endpoints_accepted(self):
        oracle = GraphCutOracle(3, [(0.0, np.float64(1)), (np.int64(1), 2)])
        assert oracle.adjacency[1].tolist() == [0, 2]


@st.composite
def cut_graphs(draw):
    """(n, edges, weighted): unit-weight edge lists with duplicates and
    self-loops, or random_edges weights with duplicates and self-loops added."""
    n = draw(st.integers(0, 7))
    weighted = draw(st.booleans())
    if n == 0:
        return 0, [], weighted
    vertex = st.integers(0, n - 1)
    if weighted:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        edges = random_edges(rng, n, draw(st.sampled_from([0.2, 0.5, 1.0])), weighted=True)
        if edges:
            edges += draw(st.lists(st.sampled_from(edges), max_size=3))
        edges += [(v, v, 1.5) for v in draw(st.lists(vertex, max_size=2))]
    else:
        edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    return n, edges, weighted


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["unit", "weighted", "view", "coverage", "truncated"]),
       data=st.data())
def test_child_is_a_copy_with_the_add(kind, data):
    """state._child(x, gain) against copy(), _apply_add(x) and value += gain,
    over a chain of children: the same class, members and value, and equal
    bookkeeping (a cut state's inside weights; a coverage state's covered
    mask and its per-tag counts and gain vector once built), with no query
    charged and the parent left as it was."""
    n = data.draw(st.integers(1, 30))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind in ("unit", "weighted", "view"):
        p = data.draw(st.sampled_from([0.1, 0.3, 0.8]))
        oracle = GraphCutOracle(n, random_edges(rng, n, p, weighted=kind != "unit"))
        if kind == "view":
            oracle = oracle.restrict(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    else:
        oracle = random_coverage(rng, n, max_tags=140, ensure_nonempty=False)
        if kind == "truncated":
            oracle = TruncatedOracle(oracle, data.draw(st.integers(0, 40)) / 2.0)
    state = oracle.state(data.draw(st.sets(st.integers(0, oracle.n - 1), max_size=oracle.n - 1)))
    inner = getattr(state, "_inner", state)
    if isinstance(inner, _CoverageState):
        if data.draw(st.booleans()):
            inner._counts()
        if data.draw(st.booleans()):
            state.gains([x for x in range(oracle.n) if x not in state.members])
    while len(state.members) < oracle.n:
        x = data.draw(st.sampled_from(sorted(set(range(oracle.n)) - state.members)))
        gain = state.gain(x)
        before, queries = state.copy(), oracle.query_count
        child = state._child(x, gain)
        ref = state.copy()
        ref._apply_add(x)
        ref.value += gain
        assert oracle.query_count == queries
        for one, other in ((child, ref), (state, before)):
            assert type(one) is type(other)
            assert one.members == other.members and one.value == other.value
            one, other = getattr(one, "_inner", one), getattr(other, "_inner", other)
            if isinstance(one, _CoverageState):
                assert one._covered == other._covered
                for name in ("_count", "_vec"):
                    a, b = getattr(one, name), getattr(other, name)
                    assert (a is None and b is None) or np.array_equal(a, b)
            else:
                assert np.array_equal(one._inside, other._inside)
        if data.draw(st.booleans()):
            break
        state = child


STATE_OPS = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "copy", "gain", "removal_gain"]),
              st.integers(0, 1000)),
    max_size=25,
)


@settings(max_examples=100, deadline=None)
@given(graph=cut_graphs(), ops=STATE_OPS)
def test_graph_cut_state_matches_peek(graph, ops):
    """Incremental cut states against the uncounted evaluation, and that
    against the edge list; exact on unit weights, within TOL otherwise."""
    n, edges, weighted = graph
    oracle = GraphCutOracle(n, edges)

    def same(a, b):
        return abs(a - b) <= TOL if weighted else a == b

    def check(state):
        members = state.members
        value = oracle.peek(members)
        assert same(value, edge_list_cut(edges, members))
        assert same(state.value, value)
        for x in range(n):
            if x in members:
                assert same(state.removal_gain(x), oracle.peek(members - {x}) - value)
            else:
                assert same(state.gain(x), oracle.peek(members | {x}) - value)
        # the vectorised batch equals the scalar gains bit for bit, in any
        # order and with repeats
        outside = [x for x in range(n) if x not in members]
        batch = outside[::-1] + outside
        assert state.gains(batch).tolist() == [state.gain(x) for x in batch]

    state = oracle.state(())
    parents = []  # (copied state, its members and value at the copy)
    for op, pick in ops:
        inside = sorted(state.members)
        outside = [x for x in range(n) if x not in state.members]
        if op == "copy":
            parents.append((state, set(state.members), state.value))
            state = state.copy()
        elif op in ("add", "gain") and outside:
            x = outside[pick % len(outside)]
            gain = state.gain(x)
            if op == "add":
                state.add(x, gain)
        elif op in ("remove", "removal_gain") and inside:
            x = inside[pick % len(inside)]
            gain = state.removal_gain(x)
            if op == "remove":
                state.remove(x, gain)
        check(state)
    for parent, members, value in parents:
        assert parent.members == members and parent.value == value
        check(parent)


@settings(max_examples=100, deadline=None)
@given(graph=cut_graphs(), data=st.data())
def test_graph_cut_restrict_matches_parent(graph, data):
    """A restricted view against its parent: values of every subset of the
    ground (exact on unit weights, within TOL otherwise), state values and
    gains along one add/remove sequence (exact), the shared query counter,
    and ids outside the ground."""
    n, edges, weighted = graph
    oracle = GraphCutOracle(n, edges)
    ground = sorted(data.draw(st.sets(st.integers(0, n - 1)))) if n else []
    view = oracle.restrict(reversed(ground))
    assert view.n == len(ground)

    def on_parent(members):
        return {ground[i] for i in members}

    for size in range(len(ground) + 1):
        for S in itertools.combinations(range(len(ground)), size):
            a, b = view.peek(S), oracle.peek(on_parent(S))
            assert abs(a - b) <= TOL if weighted else a == b
    before = oracle.query_count
    local, parent = view.state(()), oracle.state(())
    ops = data.draw(st.lists(st.integers(0, max(len(ground) - 1, 0)), max_size=12))
    for pick in ops if ground else ():
        for x in range(len(ground)):
            if x in local.members:
                assert local.removal_gain(x) == parent.removal_gain(ground[x])
            else:
                assert local.gain(x) == parent.gain(ground[x])
        if pick in local.members:
            local.remove(pick, local.removal_gain(pick))
            parent.remove(ground[pick], parent.removal_gain(ground[pick]))
        else:
            local.add(pick, local.gain(pick))
            parent.add(ground[pick], parent.gain(ground[pick]))
        assert local.value == parent.value
        assert on_parent(local.members) == parent.members
    spent = oracle.query_count - before
    assert spent % 2 == 0 and view.query_count == oracle.query_count
    view.eval(range(len(ground)))
    assert oracle.query_count - before == spent + 1
    with pytest.raises(InputError):
        view.peek([len(ground)])
    with pytest.raises(InputError):
        view.state(()).gain(len(ground))
    with pytest.raises(InputError):
        oracle.restrict([n])


@st.composite
def larger_cut_graphs(draw):
    """(n, edges, weighted) on 8-200 vertices: random_edges with unit,
    integer (1-999) or real weights."""
    n = draw(st.integers(8, 200))
    weights = draw(st.sampled_from(["unit", "integer", "real"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = random_edges(rng, n, draw(st.sampled_from([0.02, 0.1, 0.3])), weighted=weights == "real")
    if weights == "integer":
        edges = [(u, v, int(rng.integers(1, 1000))) for u, v, _ in edges]
    return n, edges, weights == "real"


@settings(max_examples=150, deadline=None)
@given(graph=st.one_of(cut_graphs(), larger_cut_graphs()), data=st.data())
def test_cut_value_and_state_match_the_walk(graph, data):
    """The gathered cut value against the walk over the members' rows:
    equal on integer weights, within 1e-12 of the total weight on real ones,
    and one float for the same members inserted in two orders.  A state's
    inside weights equal one add per member bit for bit, also on the empty
    set and on members without edges."""
    n, edges, weighted = graph
    oracle = GraphCutOracle(n, edges)
    # at most 40 members, so that ids beyond a small set's hash table collide
    # and the two insertion orders iterate differently
    order = data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, min(n, 40)))]
    forward, backward = set(), set()
    for x in order:
        forward.add(x)
    for x in reversed(order):
        backward.add(x)
    value = oracle.peek(forward)
    assert oracle.peek(backward) == value == reference_cut_value_fsum(oracle, forward)
    walk = reference_cut_value(oracle, forward)
    if weighted:
        assert abs(value - walk) <= 1e-12 * max(1.0, oracle.weighted_degree.sum())
    else:
        assert value == walk == reference_cut_value(oracle, backward)
    edgeless = {v for v in range(n) if not oracle.adjacency[v].size}
    for members in (forward, backward, set(), edgeless):
        state = oracle.state(members)
        assert state._inside.dtype == np.float64
        assert np.array_equal(state._inside, reference_cut_inside(oracle, state.members))
        assert state.value == oracle.peek(members)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 12), data=st.data())
def test_cut_value_matches_the_two_orientation_fsum(n, data):
    """Internal edges entering the value's fsum once, as -2 * w, against
    both orientations entering it as -w: the same float, on weights spread
    over 600 orders of magnitude, duplicates summed."""
    vertex = st.integers(0, n - 1)
    weight = st.floats(0.0, 1.0) | st.floats(1e-300, 1e300) | st.sampled_from([0.1, 1.0, 3.0])
    edges = data.draw(st.lists(st.tuples(vertex, vertex, weight), max_size=4 * n))
    oracle = GraphCutOracle(n, edges)
    members = set(data.draw(st.lists(vertex, max_size=n)))
    assert oracle.peek(members) == reference_cut_value_fsum(oracle, members)


class TestRestrict:
    def test_cut_view_keeps_inner_edges_and_global_degrees(self):
        oracle = GraphCutOracle(5, [(0, 1, 1.5), (1, 2), (2, 3, 2.0), (3, 4), (0, 4)])
        view = oracle.restrict([4, 1, 2])  # view ids 0, 1, 2 stand for 1, 2, 4
        assert [a.tolist() for a in view.adjacency] == [[1], [0], []]
        assert [w.tolist() for w in view.edge_weights] == [[1.0], [1.0], []]
        assert view.weighted_degree.tolist() == [2.5, 3.0, 2.0]
        assert sum(map(len, view.adjacency)) // 2 == 1

    def test_cut_view_keeps_the_subclass(self):
        view = SignedCut(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).restrict([0, 1, 2])
        assert type(view) is SignedCut and view.nonnegative is False

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InputError):
            triangle_cut().restrict([0, 0])

    def test_default_is_the_oracle_itself(self):
        oracle = two_element_coverage()
        assert oracle.restrict([1]) is oracle
        capped = TruncatedOracle(triangle_cut(), 1.0)
        assert capped.restrict([0, 2]) is capped
        with pytest.raises(InputError):
            oracle.restrict([2])


class TestCoverageStorage:
    def test_words_hold_the_tag_bits(self):
        """Bit t of row x is set for each tag of x, t being the tag's rank
        among the 75 tag ids present, so the rows span two words."""
        tag_sets = [{0, 63, 64}, set(), {1000}, {1, 2, 3}, [64, 5, 64, 0, 5],
                    list(range(100, 300, 3))]
        oracle = CoverageOracle(tag_sets)
        ids = sorted(set().union(*tag_sets))
        assert len(ids) == 75 and oracle._tag_ids.tolist() == ids
        assert oracle._words.shape == (6, 2) and oracle._words.dtype == np.uint64
        for x, tags in enumerate(tag_sets):
            bits = {64 * w + b for w in range(2) for b in range(64)
                    if int(oracle._words[x, w]) >> b & 1}
            ranks = {ids.index(t) for t in tags}
            assert bits == ranks and oracle._masks[x].bit_count() == len(bits)
            assert oracle.tag_sets[x] == frozenset(tags)
            assert oracle._row(x).tolist() == sorted(ranks)

    def test_clone_shares_words(self):
        oracle = two_element_coverage()
        dup = oracle.clone()
        assert dup._words is oracle._words and dup._masks is oracle._masks
        assert not oracle._words.flags.writeable
        assert type(dup) is CoverageOracle and dup.query_count == 0

    def test_empty_ground_set(self):
        oracle = CoverageOracle([])
        state = oracle.state(())
        gains = state.gains([])
        assert gains.dtype == np.float64 and gains.shape == (0,)
        assert oracle.query_count == 1

    def test_no_tags_at_all(self):
        oracle = CoverageOracle([set(), set()])
        assert oracle._words.shape == (2, 0)
        assert oracle.state(()).gains([0, 1]).tolist() == [0.0, 0.0]

    def test_holder_lists(self):
        """The holders of the tag of rank t, over 74 tag ids present."""
        tag_sets = [{0, 63, 64}, set(), {129}, {1, 2, 3}, {0, 64, 129}, [2, 129, 2, 2],
                    list(range(130, 264, 2))]
        oracle = CoverageOracle(tag_sets)
        ids = sorted(set().union(*tag_sets))
        assert len(ids) == 74 and oracle._tag_ids.tolist() == ids
        assert oracle._holder_ptr.shape == (75,) and oracle._holders.dtype == np.int32
        for t, tag in enumerate(ids):
            held = oracle._holders[oracle._holder_ptr[t]:oracle._holder_ptr[t + 1]]
            assert held.tolist() == [x for x, tags in enumerate(tag_sets) if tag in tags]
        assert oracle.tag_sets[5] == frozenset(tag_sets[5])
        dup = oracle.clone()
        assert dup._holders is oracle._holders and dup._holder_ptr is oracle._holder_ptr
        assert not oracle._holders.flags.writeable and not oracle._holder_ptr.flags.writeable

    @pytest.mark.parametrize("far", [10**7, 2**40, 2**62])
    def test_sparse_tag_ids(self, far):
        """Far-apart tag ids build structures sized by the three tags present,
        and values, gains and removal gains equal those of the same rows
        written with the ids 0, 1, 2; tag_sets keeps the given ids."""
        rows = [[far], [0, 1], [1, far], [], [far, 0]]
        oracle, dense = CoverageOracle(rows), CoverageOracle([[2], [0, 1], [1, 2], [], [2, 0]])
        assert oracle.tag_sets == tuple(map(frozenset, rows))
        assert (oracle._words.shape, oracle._holder_ptr.shape) == ((5, 1), (4,))
        for members in itertools.chain.from_iterable(
                itertools.combinations(range(5), r) for r in range(6)):
            assert oracle.peek(members) == dense.peek(members)
            ours, theirs = oracle.state(members), dense.state(members)
            outside = [x for x in range(5) if x not in members]
            assert ours.gains(outside).tolist() == theirs.gains(outside).tolist()
            assert ([ours.removal_gain(x) for x in members]
                    == [theirs.removal_gain(x) for x in members])

    def test_storage_ignores_total_tags(self):
        """Arrays are sized by the distinct tags present; no tag total is kept."""
        oracle = CoverageOracle([[0], [1], [2]])
        assert not hasattr(oracle, "total_tags")
        state = oracle.state([0, 1])
        state.remove(0)
        assert state.gains([0, 2]).tolist() == [1.0, 1.0] and state._vec is not None
        assert (oracle._words.shape, oracle._holder_ptr.shape, oracle._holders.shape,
                state._count.shape, state._vec.shape) == ((3, 1), (4,), (3,), (64,), (3,))
        res = greedy_cover(CoverInstance(oracle, 3.0), 0.1)
        assert res.solution == (0, 1, 2) and res.status == Status.SOLVED

    # the ids are those of an earlier (tag_sets, total_tags) parametrization
    @pytest.mark.parametrize("tag_sets", [
        [{0, 1}, {-3}], [{0}, {2, -1}], [[1.5]], [[0], [math.nan]], [[math.inf]],
        [[-math.inf]], [[2**70]], [[np.float64(0.5)]], [["3"]],
    ], ids=["tag_sets0-None", "tag_sets1-10", "tag_sets4-None", "tag_sets5-None", "tag_sets6-None",
            "tag_sets7-None", "tag_sets8-None", "tag_sets9-4", "tag_sets10-None"])
    def test_bad_tags_rejected(self, tag_sets):
        with pytest.raises(InputError):
            CoverageOracle(tag_sets)

    def test_integral_float_tags_accepted(self):
        oracle = CoverageOracle([[2.0, np.int64(3), 2], (np.float64(0),)])
        assert oracle.tag_sets == (frozenset({2, 3}), frozenset({0}))

    @pytest.mark.parametrize("row, message", [
        (np.array([False, True]), "int64 range"), (np.array([0.5]), "int64 range"),
        (np.array([np.nan]), "int64 range"), (np.array([2, -1]), "negative tag id -1"),
        (np.array([2**63], dtype=np.uint64), "int64 range"), (np.array([[0, 1]]), "int64 range"),
    ], ids=["bool", "fraction", "nan", "negative", "uint64-beyond-int64", "two-dimensional"])
    def test_bad_array_rows_rejected(self, row, message):
        for tag_sets in ([np.array([1, 2]), row], [[1, 2], row]):
            with pytest.raises(InputError, match=message):
                CoverageOracle(tag_sets)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(st.integers(0, 140), max_size=8), max_size=8),
       dtype=st.sampled_from([np.int64, np.int32, np.uint8, np.uint32, np.intp]),
       mixed=st.booleans())
def test_coverage_array_rows_match_list_rows(rows, dtype, mixed):
    """Integer array rows, every row or all but the first, build the same
    structures as the same rows given as lists."""
    arrays = [np.array(row, dtype=dtype) for row in rows]
    if mixed and rows:
        arrays[0] = rows[0]
    listed, joined = CoverageOracle(rows), CoverageOracle(arrays)
    for name in ("_tag_ptr", "_tags", "_words", "_holder_ptr", "_holders"):
        ours, theirs = getattr(joined, name), getattr(listed, name)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name
    assert joined._masks == listed._masks and joined.tag_sets == listed.tag_sets


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(st.integers(0, 300), max_size=40), far=st.booleans())
def test_tag_ranks_match_unique(ids, far):
    """The ranks of tag ids, from a present-id mask when the ids are dense
    enough and from np.unique otherwise, are np.unique's."""
    ids = np.array(ids + [2**50] * far, dtype=np.int64)
    present, ranks = _ranks(ids)
    distinct, inverse = np.unique(ids, return_inverse=True)
    assert present.tolist() == distinct.tolist() and ranks.tolist() == inverse.tolist()


class TestCoverageStateBookkeeping:
    def test_counts_built_on_first_removal(self):
        oracle = CoverageOracle([{0, 1}, {1, 2}, {2}, {3}])
        state = oracle.state([0, 1])
        state.add(2, state.gain(2))
        assert state._count is None
        assert state.removal_gain(1) == 0.0 and state._count is not None
        assert state.removal_gain(0) == -1.0 and state.removal_gain(2) == 0.0
        state.remove(2, 0.0)
        assert state.removal_gain(1) == -1.0
        state.add(3)
        assert state.removal_gain(3) == -1.0 and state.value == oracle.peek([0, 1, 3])

    def test_remove_with_a_supplied_gain_builds_the_counts(self):
        oracle = CoverageOracle([{0, 1}, {1, 2}, {2}])
        gain = oracle.state([0, 1]).removal_gain(0)
        state = oracle.state([0, 1])
        state.remove(0, gain)
        assert state._count is not None
        assert state.value == 2.0 and state.gain(0) == 1.0
        assert state.removal_gain(1) == -2.0

    def test_copies_do_not_share_bookkeeping(self):
        oracle = CoverageOracle([{0, 1}, {1, 2}, {2, 3}, {4}])
        state = oracle.state([0])
        state.removal_gain(0)
        state.gains([1, 2, 3])
        dup = state.copy()
        assert dup._count is not state._count and dup._vec is not state._vec
        dup.add(2)
        dup.remove(0)
        assert dup.gains([0, 1, 3]).tolist() == [2.0, 1.0, 1.0]
        assert state.gains([1, 2, 3]).tolist() == [1.0, 2.0, 1.0]
        assert state.removal_gain(0) == -2.0

    def test_gain_vector_is_chosen_by_batch_length(self):
        """The gain vector is chosen by count: a batch at least as long as the
        non-members builds it, even one whose ids repeat and miss a
        non-member; a shorter batch keeps the word scan.  Values and charges
        are the same either way."""
        oracle = CoverageOracle([{0}, {1, 3}, {0}, {0, 3}])
        state = oracle.state([0])
        before = oracle.query_count
        assert state.gains([1, 1, 3]).tolist() == [2.0, 2.0, 1.0]
        assert state._vec is not None
        # 33 ids: the threshold scan's window over positions 15-30 is a batch
        assert list(_threshold_scan(np.array([3, 3, 1] * 11), [state], 3.0)) == []
        assert state._vec is not None
        assert state.gains([3, 2, 1, 2]).tolist() == [1.0, 0.0, 2.0, 0.0]
        assert state._vec is not None
        state.add(3, 1.0)
        assert state.gains([2, 1]).tolist() == [0.0, 1.0]
        assert oracle.query_count - before == 3 + 33 + 4 + 2
        short = oracle.state([0])
        assert short.gains([1, 3]).tolist() == [2.0, 1.0]
        assert short._vec is None


class TestBatchedGains:
    def test_charges_one_query_per_candidate(self):
        oracle = CoverageOracle([{0, 1}, {1, 2}, {3}, set()])
        state = oracle.state([0])
        before = oracle.query_count
        assert state.gains([1, 2, 3, 2]).tolist() == [1.0, 1.0, 0.0, 1.0]
        assert oracle.query_count - before == 4

    @pytest.mark.parametrize("cands", [[1, 0], [1, 4], [-1], [[1]]])
    def test_bad_candidates_charge_nothing(self, cands):
        oracle = CoverageOracle([{0, 1}, {1, 2}, {3}, set()])
        state = oracle.state([0])
        before = oracle.query_count
        with pytest.raises(InputError):
            state.gains(cands)
        assert oracle.query_count == before

    def test_truncated_add_with_gain_is_free(self):
        capped = TruncatedOracle(CoverageOracle([{0, 1}, {1, 2}, {3}]), 2.5)
        state = capped.state(())
        gains = state.gains([0, 1, 2])
        before = capped.query_count
        assert state.add(0, gains[0]) == 2.0
        assert capped.query_count == before
        copy = state.copy()
        assert copy.add(1, 0.5) == 0.5 and capped.query_count == before
        assert copy.value == capped.peek([0, 1]) == 2.5
        assert state.add(2) == 0.5 and capped.query_count == before + 1


class TestThresholdScan:
    def test_charges_the_scanned_prefix(self):
        oracle = CoverageOracle([{0}, {0, 1}, {2, 3, 4}, {5, 6}])
        state = oracle.state(())
        before = oracle.query_count
        scan = _threshold_scan(np.arange(4), [state], 2.0)
        assert next(scan) == (1, 0, 2.0)
        assert oracle.query_count - before == 2
        assert list(scan) == [(2, 0, 3.0), (3, 0, 2.0)]
        assert oracle.query_count - before == 4
        assert list(_threshold_scan(np.array([0, 1, 3]), [state], 3.0)) == []
        assert oracle.query_count - before == 7


class OnePlusSize(SetFunctionOracle):
    """f(S) = 1 + |S|: a monotone oracle that defines only _value, so it runs
    on the generic state and every default of the oracle layer."""

    monotone = True

    def _value(self, members):
        return 1.0 + len(members)


class TestGenericDefaults:
    @pytest.mark.parametrize("solve", [greedy_cover, threshold_greedy_cover])
    def test_empty_set_already_covers(self, solve):
        oracle = OnePlusSize(3)
        res = solve(CoverInstance(oracle, 1.0), 0.2)
        assert (res.solution, res.status, res.queries) == ((), Status.SOLVED, 1)

    def test_clone_has_its_own_counter(self):
        oracle = OnePlusSize(4)
        oracle.eval([0])
        dup = oracle.clone()
        assert type(dup) is OnePlusSize and (dup.n, dup.query_count) == (4, 0)
        assert dup.eval([1, 2]) == 3.0
        assert (oracle.query_count, dup.query_count) == (1, 1)

    def test_exact_search_matches_enumeration(self):
        oracle = OnePlusSize(4)
        res = exact_max_search(oracle, range(4), 2)
        assert (res.value, len(res.solution)) == (brute_max_subsets(oracle, 2)[0], 2)
        assert oracle.peek(res.solution) == res.value


def test_every_export_resolves():
    assert all(hasattr(subcover, name) for name in subcover.__all__)


@st.composite
def coverage_oracles(draw):
    """(oracle, view): tag rows over up to three 64-bit words, with repeated
    tags, empty rows and n = 0 included; view is the oracle or a TruncatedOracle
    of it at a half-integer or integer cap, or at the non-dyadic cap
    0.3 or 0.6 f(U) of the benchmarks."""
    n = draw(st.integers(0, 7))
    m = draw(st.sampled_from([0, 1, 5, 64, 65, 140]))
    tags = st.lists(st.integers(0, m - 1), max_size=8) if m else st.just([])
    tag_sets = draw(st.lists(tags, min_size=n, max_size=n))
    oracle = CoverageOracle(tag_sets)
    if draw(st.booleans()):
        return oracle, TruncatedOracle(oracle, draw(st.integers(0, 2 * m)) / 2.0)
    if draw(st.booleans()):
        return oracle, TruncatedOracle(oracle, draw(st.sampled_from([0.3, 0.6])) * oracle.peek(range(n)))
    return oracle, oracle


COVERAGE_OPS = st.lists(
    st.tuples(st.sampled_from(["add", "add_unpaid", "remove", "remove_unpaid", "copy", "gain",
                               "removal_gain", "gains", "scan_all", "first"]),
              st.integers(0, 1000)),
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(drawn=coverage_oracles(), root=st.sets(st.integers(0, 6), max_size=4), ops=COVERAGE_OPS)
def test_coverage_state_matches_peek(drawn, root, ops):
    """Coverage and truncated states against the uncounted evaluation: every
    inner value and gain is an integer, and a truncated state's running value
    min(inner value, tau) is exact for every cap, so they must match bit for
    bit.  Every add and remove returns the gain it made, charging one query
    without a supplied gain and none with one.

    States start at a random root set.  "scan_all" batches every non-member
    (rotated, sometimes with a repeat), which switches a coverage state to
    its gain vector; other "gains" batches then read that vector, or scan
    the words on states that never had a full batch.  "first" runs the
    threshold scan over the non-members from a rotating start, which must
    stop at the first clearing gain and charge the scanned prefix.
    ``check`` runs its own full batch on a copy, so the checked state keeps
    the path it was on.
    """
    oracle, view = drawn
    n = oracle.n

    def charged(run):
        before = oracle.query_count
        out = run()
        return out, oracle.query_count - before

    def expected_gains(state, cands):
        return [view.peek(state.members | {x}) - state.value for x in cands]

    def check(state):
        members = state.members
        value = view.peek(members)
        assert state.value == value
        if view is not oracle:
            assert state.value == min(state._inner.value, view.tau)
        outside = [x for x in range(n) if x not in members]
        expected = expected_gains(state, outside)
        probe = state.copy()
        gains, cost = charged(lambda: probe.gains(outside))
        assert gains.dtype == np.float64 and gains.tolist() == expected
        assert cost == len(outside)
        for x, gain in zip(outside, expected):
            assert state.gain(x) == gain
        for x in members:
            assert state.removal_gain(x) == view.peek(members - {x}) - value
        bad_lists = [[*outside, n], [-1, *outside]]
        if members:
            bad_lists.append([*outside, min(members)])
        for bad in bad_lists:
            before = oracle.query_count
            with pytest.raises(InputError):
                state.gains(bad)
            assert oracle.query_count == before

    state = view.state({x for x in root if x < n})
    parents = []  # (copied state, its members and value at the copy)
    for op, pick in ops:
        inside = sorted(state.members)
        outside = [x for x in range(n) if x not in state.members]
        if op == "copy":
            parents.append((state, set(state.members), state.value))
            state = state.copy()
        elif op in ("add", "gain", "add_unpaid") and outside:
            x = outside[pick % len(outside)]
            expected = view.peek(state.members | {x}) - state.value
            if op == "add_unpaid":
                made, cost = charged(lambda: state.add(x))
                assert made == expected and cost == 1
            else:
                gain, cost = charged(lambda: state.gain(x))
                assert gain == expected and cost == 1
                if op == "add":
                    made, cost = charged(lambda: state.add(x, gain))
                    assert made == gain and cost == 0
        elif op in ("remove", "remove_unpaid", "removal_gain") and inside:
            x = inside[pick % len(inside)]
            expected = view.peek(state.members - {x}) - state.value
            if op == "remove_unpaid":
                made, cost = charged(lambda: state.remove(x))
                assert made == expected and cost == 1
            else:
                gain, cost = charged(lambda: state.removal_gain(x))
                assert gain == expected and cost == 1
                if op == "remove":
                    made, cost = charged(lambda: state.remove(x, gain))
                    assert made == gain and cost == 0
        elif op in ("gains", "scan_all") and outside:
            if op == "gains":  # up to three ids, repeats when few are outside
                picks = [outside[(pick + i) % len(outside)] for i in range(pick % 4)]
            else:
                k = pick % len(outside)
                picks = outside[k:] + outside[:k] + outside[:pick % 2]
            gains, cost = charged(lambda: state.gains(picks))
            assert gains.tolist() == expected_gains(state, picks) and cost == len(picks)
        elif op == "first":
            bar = (pick % 8) / 2.0
            # every non-member when pick is a multiple of their number
            rest = outside[pick % len(outside):] if outside else []
            gains = expected_gains(state, rest)
            hits = [i for i, gain in enumerate(gains) if gain >= bar]
            scan = _threshold_scan(np.array(rest, dtype=np.int64), [state], bar)
            found, cost = charged(lambda: next(scan, None))
            if hits:
                assert found == (hits[0], 0, gains[hits[0]]) and cost == hits[0] + 1
            else:
                assert found is None and cost == len(rest)
        check(state)
    for parent, members, value in parents:
        assert parent.members == members and parent.value == value
        check(parent)


def diminishing_returns_holds(oracle, a, b, x):
    small = oracle.peek(a | {x}) - oracle.peek(a)
    large = oracle.peek(b | {x}) - oracle.peek(b)
    return small >= large - 1e-9


class TestStructuralProperties:
    def test_submodularity_exhaustive_small(self):
        rng = np.random.default_rng(5)
        oracles = [random_coverage(rng, 5), random_graph(rng, 5, 0.6, weighted=True)]
        for oracle in oracles:
            universe = range(oracle.n)
            for b_size in range(oracle.n):
                for b in itertools.combinations(universe, b_size):
                    b = set(b)
                    for a_size in range(len(b) + 1):
                        for a in itertools.combinations(sorted(b), a_size):
                            for x in universe:
                                if x in b:
                                    continue
                                assert diminishing_returns_holds(oracle, set(a), b, x)

    def test_coverage_monotone_graph_cut_not(self):
        rng = np.random.default_rng(6)
        cov = random_coverage(rng, 6)
        for size in range(6):
            for b in itertools.combinations(range(6), size + 1):
                for a in itertools.combinations(b, size):
                    assert cov.peek(a) <= cov.peek(b) + 1e-9
        cut = GraphCutOracle(3, [(0, 1)])
        assert cut.peek([0, 1, 2]) < cut.peek([0])  # f(V) = 0 < f({endpoint})

    def test_truncation_preserves_structure(self):
        rng = np.random.default_rng(7)
        oracle = random_coverage(rng, 5)
        capped = TruncatedOracle(oracle, oracle.peek(range(5)) * 0.5)
        universe = range(5)
        for b_size in range(5):
            for b in itertools.combinations(universe, b_size):
                b = set(b)
                for a_size in range(len(b) + 1):
                    for a in itertools.combinations(sorted(b), a_size):
                        assert capped.peek(a) <= capped.peek(b) + 1e-9
                        for x in universe:
                            if x not in b:
                                assert diminishing_returns_holds(capped, set(a), b, x)


class TestCoverInstance:
    def test_feasibility_shortcut(self):
        oracle = two_element_coverage()
        assert CoverInstance(oracle, 3.0).feasible()
        assert not CoverInstance(oracle, 3.5).feasible()

    def test_feasibility_requires_monotone(self):
        with pytest.raises(InputError, match="requires a monotone oracle"):
            CoverInstance(triangle_cut(), 1.0).feasible()

    def test_negative_tau_rejected(self):
        with pytest.raises(InputError):
            CoverInstance(two_element_coverage(), -1.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(InputError):
            CoverInstance(two_element_coverage(), tau)


class TestSyntheticSummarization:
    def test_zero_probability_gives_empty(self):
        oracle = make_synthetic_summarization(20, 10, 0.0, 0.0, 5, seed=1)
        assert oracle.peek(range(10)) == 0.0

    def test_full_probability_covers_everything(self):
        oracle = make_synthetic_summarization(20, 10, 1.0, 1.0, 5, seed=1)
        assert oracle.peek([3]) == 20.0

    def test_deterministic_given_seed(self):
        a = make_synthetic_summarization(400, 50, 0.4, 0.002, 25, seed=9)
        b = make_synthetic_summarization(400, 50, 0.4, 0.002, 25, seed=9)
        assert a.tag_sets == b.tag_sets

    def test_invalid_probability(self):
        with pytest.raises(InputError):
            make_synthetic_summarization(10, 5, 1.5, 0.0, 2, seed=0)

    @pytest.mark.parametrize("sizes", [(10.5, 5, 2), (10, 2.5, 2), (10, 5, 2.5), (10, 5, math.nan),
                                       (math.inf, 5, 2), (10, "5", 2), (True, 5, 0), (10, True, 2),
                                       (10, 5, True)])
    def test_non_integral_size_rejected(self, sizes):
        m, n, head = sizes
        with pytest.raises(InputError, match="(m|n|head_size) must be an integer in"):
            make_synthetic_summarization(m, n, 0.5, 0.1, head, seed=0)

    def test_integral_float_sizes_accepted(self):
        a = make_synthetic_summarization(40.0, 10.0, 0.4, 0.1, np.float64(5), seed=3)
        b = make_synthetic_summarization(40, 10, 0.4, 0.1, 5, seed=3)
        assert a.n == 10 and a.tag_sets == b.tag_sets


class TestTightnessInstance:
    def test_small_construction(self):
        inst = make_greedy_tightness_instance(2, 4)
        oracle = inst.oracle
        # first slice covers l/k = 2 tags per group
        assert oracle.peek([inst.slice_ids[0]]) == 4.0
        assert oracle.peek(inst.group_ids) == 8.0 == inst.tau

    @pytest.mark.parametrize("k, l", [(2, 4), (3, 3), (5, 200), (10, 1000), (20, 2000)])
    def test_k_group_sets_are_optimal(self, k, l):
        # the exact search proves that no k - 1 sets cover all k * l tags
        inst = make_greedy_tightness_instance(k, l)
        res = exact_min_cover(CoverInstance(inst.oracle.clone(), inst.tau))
        assert len(res.solution) == k

    def test_k_below_two_rejected(self):
        with pytest.raises(InputError):
            make_greedy_tightness_instance(1, 4)

    @pytest.mark.parametrize("k, l", [(2.5, 10), (3, 10.5), (math.nan, 10), (3, math.inf), ("3", 9),
                                      (True, 9), (3, True)])
    def test_non_integral_size_rejected(self, k, l):
        with pytest.raises(InputError, match="[kl] must be an integer in"):
            make_greedy_tightness_instance(k, l)

    def test_integral_float_sizes_accepted(self):
        inst = make_greedy_tightness_instance(3.0, 9.0)
        assert (inst.k, inst.l) == (3, 9) and type(inst.k) is type(inst.l) is int
        assert inst.oracle.tag_sets == make_greedy_tightness_instance(3, 9).oracle.tag_sets

    def test_slices_cover_everything(self):
        inst = make_greedy_tightness_instance(4, 8)
        assert inst.oracle.peek(inst.slice_ids) == inst.tau

    def test_slices_match_the_tag_by_tag_construction(self):
        """The round-robin slices equal the fullest-group-first loop, for
        divisible and padded (non-divisible) l alike."""
        padded = 0
        for k, l in itertools.product(range(2, 8), range(1, 26)):
            inst = make_greedy_tightness_instance(k, l)
            slices = inst.oracle.tag_sets[:len(inst.slice_ids)]
            assert slices == tuple(map(frozenset, reference_tightness_slices(k, l)))
            assert inst.l == -(-l // k) * k
            padded += inst.l != l
        assert padded


CONSTRUCTOR_CHECKS = {
    "negative-n": (lambda: GraphCutOracle(-1, []),
                   r"ground set size must be an integer in \[0, inf\), got -1"),
    "gain-of-member": (lambda: two_element_coverage().state([0]).gain(0),
                       "already in the solution"),
    "head-above-m": (lambda: make_synthetic_summarization(10, 5, 0.4, 0.0, 11, seed=0),
                     r"head_size must be an integer in \[0, 10\], got 11"),
    "negative-head": (lambda: make_synthetic_summarization(10, 5, 0.4, 0.0, -1, seed=0),
                      r"head_size must be an integer in \[0, 10\], got -1"),
    "negative-m": (lambda: make_synthetic_summarization(-10, 5, 0.4, 0.0, 0, seed=0),
                   r"m must be an integer in \[0, inf\), got -10"),
    "negative-synthetic-n": (lambda: make_synthetic_summarization(10, -3, 0.5, 0.1, 2, seed=0),
                             r"n must be an integer in \[0, inf\), got -3"),
    "tightness-l-zero": (lambda: make_greedy_tightness_instance(3, 0),
                         r"l must be an integer in \[1, inf\), got 0"),
    "cost-length": (lambda: RegularizedInstance(two_element_coverage(), [0.5], tau=1.0),
                    "cost vector length"),
    "negative-cost": (lambda: RegularizedInstance(two_element_coverage(), [0.5, -0.1], tau=1.0),
                      r"cost must lie in \[0, inf\), got -0.1"),
}


@pytest.mark.parametrize("case", CONSTRUCTOR_CHECKS)
def test_constructor_and_state_checks(case):
    run, message = CONSTRUCTOR_CHECKS[case]
    with pytest.raises(InputError, match=message):
        run()
