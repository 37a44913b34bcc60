"""Guard-railed brute-force reference solvers used for test provenance."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .monotone import _check_budget, _size_limit
from .oracles import TOL, InputError, _int_ids


class GuardError(InputError):
    """The instance exceeds the brute-force size guard."""


def _check_guard(count, max_n):
    limit = 20 if max_n is None else _int_ids([max_n], "max_n").item()
    if count > limit:
        raise GuardError(f"brute force over {count} elements exceeds the guard {limit} (pass max_n)")


@dataclass(frozen=True)
class ExactResult:
    optimum_set: tuple
    optimum_value: float
    enumerated: int


def _enumerate(pool, max_size, score, stop_at=None):
    """Score subsets of pool of size <= max_size in size-then-lexicographic order.

    With stop_at: the first subset scoring at least stop_at - 1e-9, or None.
    Without: the first subset of maximum score.  ``enumerated`` counts the
    subsets scored.
    """
    best = None
    examined = 0
    for size in range(min(max_size, len(pool)) + 1):
        for combo in itertools.combinations(pool, size):
            examined += 1
            value = score(combo)
            if stop_at is not None:
                if value >= stop_at - TOL:
                    return ExactResult(combo, value, examined)
            elif best is None or value > best[1] + 1e-12:
                best = (combo, value)
    return None if stop_at is not None else ExactResult(*best, examined)


def exact_min_cover(instance, max_n=None):
    """Smallest set with f >= tau - 1e-9, ties broken lexicographically.

    Enumerates subsets in size-then-lexicographic order; returns None when no
    subset reaches the threshold.
    """
    n = instance.oracle.n
    _check_guard(n, max_n)
    return _enumerate(range(n), n, instance.oracle.eval, stop_at=instance.tau)


def exact_max_cardinality(oracle, kappa, max_n=None):
    """Exact maximum of f over subsets of size <= kappa rounded up (one query at 0)."""
    kappa = _size_limit(_check_budget(kappa))
    _check_guard(oracle.n, max_n)
    return _enumerate(range(oracle.n), kappa, oracle.eval)


def exact_max_regularized(inst, kappa, max_n=None):
    """Exact maximum of g - c over subsets of size <= kappa rounded up."""
    kappa = _size_limit(_check_budget(kappa))
    n = inst.oracle.n
    _check_guard(n, max_n)
    return _enumerate(range(n), kappa, lambda X: inst.oracle.eval(X) - inst.cost(X))


def exact_min_cover_regularized(inst, max_n=None):
    """Smallest set with g - c >= tau - 1e-9, or None when infeasible."""
    n = inst.oracle.n
    _check_guard(n, max_n)
    return _enumerate(range(n), n, lambda X: inst.oracle.eval(X) - inst.cost(X), stop_at=inst.tau)
