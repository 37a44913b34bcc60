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
    f_value >= target - 1e-9.
    """

    solution: tuple
    f_value: float
    size: int
    queries: int
    status: Status
    wall_ms: float
    target: float


class Run:
    """The measuring frame of one cover run: opened once the inputs are checked,
    it notes the clock and the query count, and ``finish`` builds the result.
    ``value`` re-checks the solution uncounted in place of ``oracle.peek``, for
    a run that aims at another objective than f."""

    def __init__(self, oracle, target, value=None):
        self.oracle, self.target = oracle, target
        self._value = oracle.peek if value is None else value
        self._started, self._queries = time.perf_counter(), oracle.query_count

    def finish(self, members, status):
        solution = tuple(sorted(int(x) for x in members))
        return BicriteriaResult(
            solution=solution,
            f_value=self._value(solution),
            size=len(solution),
            queries=self.oracle.query_count - self._queries,
            status=status,
            wall_ms=(time.perf_counter() - self._started) * 1000.0,
            target=self.target,
        )
