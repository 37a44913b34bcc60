"""Shared instance generators and independent brute-force checkers.

The enumeration helpers here deliberately avoid the package's exact-solver
module so that tests cross-check two separate implementations.
"""

from __future__ import annotations

import bisect
import heapq
import itertools

import numpy as np

from subcover import CoverageOracle, GraphCutOracle, SmpSearch, classify_monotone_elements
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
    return GraphCutOracle(n, edges, name="pa-proxy")


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
    greedy = root.copy()
    heap = [(-greedy.gain(c), c) for c in ground]
    heapq.heapify(heap)
    while len(greedy.members) < kappa and heap:
        _, x = heapq.heappop(heap)
        fresh = greedy.gain(x)
        if heap and (-fresh, x) > heap[0]:
            heapq.heappush(heap, (-fresh, x))
            continue
        if fresh <= TOL:
            break
        greedy.add(x, fresh)
        if greedy.value > best_val + 1e-12:
            best_set, best_val = tuple(sorted(greedy.members)), greedy.value
        if target is not None and greedy.value >= target - TOL:
            return SmpSearch(tuple(sorted(greedy.members)), greedy.value)
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
