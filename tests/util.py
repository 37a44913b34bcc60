"""Shared instance generators and independent brute-force checkers.

The brute_* enumerations here deliberately avoid the package's exact
search, so that tests cross-check two separate implementations.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from subcover import (
    CoverageOracle,
    GraphCutOracle,
    SmpSearch,
    Status,
    classify_monotone_elements,
    distortion_horizon,
)
from subcover.oracles import TOL, SolutionState


def random_coverage(rng, n, max_tags=18, max_per_element=4, ensure_nonempty=True):
    """Random coverage oracle on n elements with small random tag sets."""
    m = int(rng.integers(max(4, max_tags // 2), max_tags + 1))
    tag_sets = []
    for _ in range(n):
        size = int(rng.integers(0, max_per_element + 1))
        tags = sorted(rng.choice(m, size=size, replace=False)) if size else []
        tag_sets.append(tags)
    if ensure_nonempty and not any(tag_sets):
        tag_sets[0] = [0]
    return CoverageOracle(tag_sets)


class FallbackCoverage(CoverageOracle):
    """Coverage oracle whose states are the generic ``SolutionState``.

    Every gain re-evaluates f(S + x) from the tag masks and ``gains`` loops
    over single gains, so solvers run on it take the oracle layer's fallback
    path instead of the packed-word one.
    """

    def _make_state(self, members):
        return SolutionState(self, members)


class SignedCut(GraphCutOracle):
    """A cut oracle that does not vouch for non-negative values."""

    nonnegative = False


def random_edges(rng, n, p, weighted=False):
    """Erdos-Renyi style edge list; optional uniform random weights."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                w = float(rng.uniform(0.2, 2.0)) if weighted else 1.0
                edges.append((u, v, w))
    return edges


def random_graph(rng, n, p, weighted=False):
    """Cut oracle on a random_edges graph."""
    return GraphCutOracle(n, random_edges(rng, n, p, weighted))


def edge_list_cut(edges, members):
    """Cut weight of members read straight off an edge list.

    Independent of the oracle's graph storage: every listed edge with exactly
    one endpoint in members counts (duplicates once each, self-loops never).
    """
    members = set(members)
    total = 0.0
    for edge in edges:
        w = edge[2] if len(edge) == 3 else 1.0
        if (edge[0] in members) != (edge[1] in members):
            total += w
    return total


def reference_cut_value(oracle, members):
    """Cut value of the set members as a walk over each member's adjacency
    row, adding in the iteration order of members: the weighted degrees less
    twice each internal edge, one float addition at a time."""
    total = internal = 0.0
    for v in members:
        total += oracle.weighted_degree.item(v)
        for nbr, w in zip(oracle.adjacency[v].tolist(), oracle.edge_weights[v].tolist()):
            if nbr > v and nbr in members:
                internal += w
    return total - 2.0 * internal


def reference_cut_value_fsum(oracle, members):
    """Cut value of the set members as one math.fsum over the members'
    weighted degrees and the negated weight of both orientations of every
    internal edge: the gathered value before each internal edge entered
    the sum once, as -2 * w.  A sum below 0 (the degrees' rounding error)
    reads 0.0, as the oracle clamps it."""
    terms = [oracle.weighted_degree.item(v) for v in members]
    for v in members:
        for nbr, w in zip(oracle.adjacency[v].tolist(), oracle.edge_weights[v].tolist()):
            if nbr in members:
                terms.append(-w)
    return max(0.0, math.fsum(terms))


def reference_cut_inside(oracle, members):
    """Each vertex's edge weight into members, as one fancy add per member
    in the iteration order of members."""
    inside = np.zeros(oracle.n)
    for x in members:
        inside[oracle.adjacency[x]] += oracle.edge_weights[x]
    return inside


def preferential_attachment_graph(n, attach, seed):
    """Hub-heavy random graph with roughly attach * n edges."""
    rng = np.random.default_rng(seed)
    edges = []
    repeated = []
    for v in range(1, n):
        m = min(attach, v)
        chosen = set()
        while len(chosen) < m:
            if repeated and rng.random() < 0.9:
                u = repeated[int(rng.integers(len(repeated)))]
            else:
                u = int(rng.integers(v))
            chosen.add(u)
        for u in chosen:
            edges.append((u, v))
            repeated.append(u)
            repeated.append(v)
    return GraphCutOracle(n, edges)


def brute_min_cover(oracle, tau, tol=1e-9):
    """Smallest set with f >= tau - tol via plain enumeration; None if none."""
    n = oracle.n
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            if oracle.peek(combo) >= tau - tol:
                return combo
    return None


def brute_max_subsets(oracle, kappa, ground=None):
    """Exact maximum of f over subsets of size <= kappa (value, set)."""
    pool = tuple(range(oracle.n)) if ground is None else tuple(ground)
    best_val, best_set = oracle.peek(()), ()
    for size in range(1, min(kappa, len(pool)) + 1):
        for combo in itertools.combinations(pool, size):
            val = oracle.peek(combo)
            if val > best_val + 1e-12:
                best_val, best_set = val, combo
    return best_val, best_set


def brute_max_all(oracle, ground=None):
    """Exact unconstrained maximum of f (value, set)."""
    pool = tuple(range(oracle.n)) if ground is None else tuple(ground)
    return brute_max_subsets(oracle, len(pool), ground=pool)


def brute_max_regularized(inst, kappa):
    """Exact maximum of g - c over subsets of size <= kappa (value, set)."""
    oracle = inst.oracle
    best_val, best_set = oracle.peek(()), ()
    for size in range(1, min(kappa, oracle.n) + 1):
        for combo in itertools.combinations(range(oracle.n), size):
            val = oracle.peek(combo) - inst.cost(combo)
            if val > best_val + 1e-12:
                best_val, best_set = val, combo
    return best_val, best_set


def distorted_potential(inst, kappa, eps, i, X):
    """The potential of the distorted greedy analysis after step i,
    (1 - 1/kappa)^(t - i) * g(X) - c(X) with t the distortion horizon; an
    unchecked, uncounted reference for kappa >= 1 and 0 <= i <= t."""
    factor = (1.0 - 1.0 / kappa) ** (distortion_horizon(eps, kappa) - i)
    return factor * inst.oracle.peek(X) - inst.cost(X)


def brute_min_cover_regularized(inst, tol=1e-9):
    """Smallest set with g - c >= tau - tol, or None."""
    oracle = inst.oracle
    for size in range(oracle.n + 1):
        for combo in itertools.combinations(range(oracle.n), size):
            if oracle.peek(combo) - inst.cost(combo) >= inst.tau - tol:
                return combo
    return None


def reference_exact_max_search(oracle, ground, kappa, target=None, fast=False):
    """The exact searches as they were before the bisect/fsum bound and the
    restricted view: run on the oracle itself, with the bound folded entry by
    entry.  ``fast`` pins the monotone elements first, as fast_exact_max_search
    does when kappa >= |ground|."""
    ground = tuple(sorted(oracle._check_members(ground)))
    if fast:
        mono, nonmono = classify_monotone_elements(oracle, ground)
        base = oracle.state(mono)
        best_set, best_val = tuple(sorted(base.members)), base.value
        if target is not None and best_val >= target - TOL:
            return SmpSearch(best_set, best_val)
        return _reference_branch_search(base, list(nonmono), len(nonmono), target,
                                        best_set, best_val)
    kappa = max(0, min(int(kappa), len(ground)))
    root = oracle.state(())
    best_set, best_val = (), root.value
    if target is not None and best_val >= target - TOL:
        return SmpSearch(best_set, best_val)
    if kappa == 0:
        return SmpSearch(best_set, best_val)
    return _reference_branch_search(root, list(ground), kappa, target, best_set, best_val)


def _reference_branch_search(base_state, candidates, budget, target, best_set, best_val):
    if budget <= 0 or not candidates:
        return SmpSearch(best_set, best_val)
    seeded = sorted((-base_state.gain(c), c) for c in candidates)
    frames = [[base_state, seeded, 0, budget]]
    while frames:
        frame = frames[-1]
        state, ordered, pos, remaining = frame
        if pos >= len(ordered) or remaining == 0:
            frames.pop()
            continue
        upper = state.value
        slots = remaining
        idx = pos
        while idx < len(ordered) and slots:
            neg = ordered[idx][0]
            if neg >= 0:
                break
            upper -= neg
            slots -= 1
            idx += 1
        if upper <= best_val + 1e-12 and (target is None or upper < target - TOL):
            frames.pop()
            continue
        neg, chosen = ordered[pos]
        fresh = state.gain(chosen)
        if fresh < -neg - 1e-12:
            del ordered[pos]
            bisect.insort(ordered, (-fresh, chosen), lo=pos)
            continue
        frame[2] = pos + 1
        child = state.copy()
        child.add(chosen, fresh)
        if child.value > best_val + 1e-12:
            best_set, best_val = tuple(sorted(child.members)), child.value
        if target is not None and child.value >= target - TOL:
            return SmpSearch(tuple(sorted(child.members)), best_val)
        if remaining > 1 and pos + 1 < len(ordered):
            frames.append([child, ordered[pos + 1:], 0, remaining - 1])
    return SmpSearch(best_set, best_val)


def reference_outside_gains(state, candidates):
    """The candidates (an int64 array of valid ids) not in the solution, in
    order, and their gains: the step the greedy-style loops took before they
    kept a membership mask, rebuilding the unselected ids from state.members
    and charging through the checked state.gains.  A step with no candidate
    left takes no gains."""
    if state.members:
        inside = np.zeros(state.oracle.n, dtype=bool)
        inside[list(state.members)] = True
        candidates = candidates[~inside[candidates]]
    if not candidates.size:
        return candidates, np.zeros(0)
    return candidates, state.gains(candidates)


def reference_best_gain(state, candidates):
    """Argmax gain over the reference_outside_gains step, lowest id on ties
    for ascending candidates; Nones when every candidate is selected."""
    candidates, gains = reference_outside_gains(state, candidates)
    if not candidates.size:
        return None, None
    i = int(gains.argmax())
    return int(candidates[i]), float(gains[i])


def reference_random_greedy(oracle, kappa, seed, ground=None, target=None):
    """random_greedy_max as the per-candidate loop the batched ranking
    replaced, run on the oracle itself: each round takes one counted gain()
    per candidate outside the solution, sorts on (-gain, id) and fills the
    top-kappa slots with the gains >= -1e-12, then adds a uniformly random
    slot (a pick past the filled slots adds nothing).  Budget 0 returns ()
    without a query."""
    rng = np.random.default_rng(seed)
    pool = range(oracle.n) if ground is None else sorted(oracle._check_members(ground))
    if kappa == 0:
        return ()
    state = oracle.state(())
    for _ in range(kappa):
        if target is not None and state.value >= target - TOL:
            break
        scored = []
        for x in pool:
            if x in state.members:
                continue
            scored.append((state.gain(x), x))
        scored.sort(key=lambda t: (-t[0], t[1]))
        slots = []
        for gain, x in scored:
            if len(slots) == kappa or gain < -1e-12:
                break
            slots.append((gain, x))
        pick = int(rng.integers(kappa))
        if pick < len(slots):
            gain, x = slots[pick]
            state.add(x, gain)
    return tuple(sorted(state.members))


def reference_random_greedy_rounds(oracle, kappa, seed, ground=None, target=None):
    """random_greedy_max as the per-round loop it was before a round after a
    dummy pick reused the last ranking, run on the oracle itself: every
    round takes and charges one batch of gains over the candidates outside
    the solution, ranks them on (-gain, id) and keeps the top kappa with
    gains >= -1e-12, then draws one of kappa slots (a pick past the kept
    entries adds nothing).  Budget 0 returns () without a query."""
    if kappa == 0:
        return ()
    rng = np.random.default_rng(seed)
    pool = np.array(range(oracle.n) if ground is None else sorted(oracle._check_members(ground)),
                    dtype=np.int64)
    state = oracle.state(())
    inside = np.zeros(oracle.n, dtype=bool)
    for _ in range(kappa):
        if target is not None and state.value >= target - TOL:
            break
        cands = pool[~inside[pool]]
        if not cands.size:
            break
        gains = state.gains(cands)
        top = np.lexsort((cands, -gains))[:kappa]
        top = top[gains[top] >= -1e-12]
        pick = int(rng.integers(kappa))
        if pick < top.size:
            x = cands.item(top[pick])
            state.add(x, gains.item(top[pick]))
            inside[x] = True
    return tuple(sorted(state.members))


def stream_event_faults(events, num_buckets):
    """Check a stream_cover event list against the bucket discipline.

    Each pass must be its "store" events, one per stored element, then one
    "pass" event whose stored set is the union of those stores.  Replaying
    the stores, after every one: its bucket index is in range, element ids
    strictly increase within the pass, and the buckets are pairwise disjoint
    and each within the pass's cap.  Returns (faults, number of passes),
    faults being a list of messages.
    """
    faults, stores, passes = [], [], 0
    for kind, fields in events:
        if kind == "store":
            stores.append(fields)
            continue
        if kind != "pass":
            faults.append(f"unexpected event kind {kind!r}")
            continue
        passes += 1
        buckets = [set() for _ in range(num_buckets)]
        last = -1
        for store in stores:
            u, index = store["element"], store["bucket"]
            if store["g"] != fields["g"]:
                faults.append(f"store of {u} at guess {store['g']} in pass {fields['g']}")
            if not 0 <= index < num_buckets:
                faults.append(f"bucket index {index} of {u} out of range")
                continue
            if u <= last:
                faults.append(f"element {u} stored after {last}")
            last = u
            buckets[index].add(u)
            if any(len(b) > fields["cap"] for b in buckets):
                faults.append(f"a bucket exceeds cap {fields['cap']} after storing {u}")
            if any(a & b for a, b in itertools.combinations(buckets, 2)):
                faults.append(f"buckets overlap after storing {u}")
        if [store["element"] for store in stores] != list(fields["stored"]):
            faults.append(f"stores {[s['element'] for s in stores]} but pass stored "
                          f"{list(fields['stored'])}")
        stores = []
    if stores:
        faults.append(f"{len(stores)} stores after the last pass")
    return faults, passes


def reference_fill_buckets(oracle, num_buckets, g, cap, threshold, on_event):
    """stream_cover's bucket pass as the one-by-one scan the batched pass
    replaced: each element tries the buckets below cap in order, one counted
    gain each, and goes into the first where the gain clears threshold.
    Same arguments, buckets and "store" events as
    ``nonmonotone._fill_buckets``."""
    buckets = [oracle.state(()) for _ in range(num_buckets)]
    for u in range(oracle.n):
        for index, bucket in enumerate(buckets):
            if len(bucket.members) >= cap:
                continue
            gain = bucket.gain(u)
            if gain >= threshold - TOL:
                bucket.add(u, gain)
                if on_event is not None:
                    on_event("store", {"g": g, "element": u, "bucket": index})
                break
    return buckets


def reference_threshold_greedy(inst, eps):
    """threshold_greedy_cover replayed one gain at a time with uncounted
    evaluations, counting one query per gain examined on top of the root
    state and the first batch of singleton gains.  Returns (solution,
    status, queries) for an instance with tau > 0 and a positive singleton."""
    oracle, n = inst.oracle, inst.oracle.n
    target = (1 - eps) * inst.tau
    chosen, queries = [], 1 + n
    w = max(oracle.peek([x]) for x in range(n))
    floor = eps * w / n
    status = None
    while status is None:
        for u in range(n):
            if u in chosen:
                continue
            queries += 1
            if oracle.peek(chosen + [u]) - oracle.peek(chosen) >= w - 1e-9:
                chosen.append(u)
                if oracle.peek(chosen) >= target - 1e-9:
                    status = Status.SOLVED
                    break
        else:
            w *= 1 - eps / 2
            if w < floor:
                status = Status.INFEASIBLE
    return tuple(sorted(chosen)), status, queries


def reference_tightness_slices(k, l):
    """The slice sets of make_greedy_tightness_instance(k, l) built tag by
    tag: each tag comes from the group with the most uncovered tags, the
    lowest index on a tie (l is padded up to a multiple of k first)."""
    if l % k:
        l += k - (l % k)
    remaining = [l] * k
    next_tag = [i * l for i in range(k)]
    slices = []
    total_left = k * l
    while total_left:
        take = math.ceil(total_left / k)
        tags = []
        for _ in range(take):
            grp = max(range(k), key=lambda i: (remaining[i], -i))
            tags.append(next_tag[grp])
            next_tag[grp] += 1
            remaining[grp] -= 1
        slices.append(tags)
        total_left -= take
    return slices
