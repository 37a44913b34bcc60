"""Shared result types for the cover and maximization solvers."""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum


class Status(str, Enum):
    SOLVED = "Solved"
    INFEASIBLE = "InfeasibleDetected"
    BUDGET_EXHAUSTED = "BudgetExhausted"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class BicriteriaResult:
    """Outcome of a solver run.

    ``f_value`` is a fresh, uncounted re-evaluation of ``solution``.
    ``target`` is the objective level the run aimed for; Solved implies
    f_value >= target - 1e-9.  Maximization runs carry target 0.
    """

    solution: tuple
    f_value: float
    size: int
    queries: int
    status: Status
    wall_ms: float
    target: float = 0.0


def finish_run(oracle, members, status, target, queries_before, started_at, value=None):
    """Assemble a result, re-evaluating the solution without counting.

    ``value`` re-checks the solution in place of ``oracle.peek`` when the run
    aims at another objective than f.
    """
    solution = tuple(sorted(int(x) for x in members))
    return BicriteriaResult(
        solution=solution,
        f_value=(oracle.peek if value is None else value)(solution),
        size=len(solution),
        queries=oracle.query_count - queries_before,
        status=status,
        wall_ms=(time.perf_counter() - started_at) * 1000.0,
        target=target,
    )
