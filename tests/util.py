"""Shared instance generators and independent brute-force checkers.

The enumeration helpers here deliberately avoid the package's exact-solver
module so that tests cross-check two separate implementations.
"""

from __future__ import annotations

import itertools

import numpy as np

from subcover import CoverageOracle, GraphCutOracle
from subcover.oracles import SolutionState


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
    return CoverageOracle(tag_sets, total_tags=m)


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
