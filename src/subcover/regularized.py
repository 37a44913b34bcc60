"""Regularized cover: distorted greedy maximization and its cover conversion."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .checks import InputError, _check_alpha, _check_budget, _check_real, _require_monotone
from .monotone import _budget_sweep, _outside_gains
from .oracles import TOL
from .results import Run, Status


def distortion_horizon(eps, kappa):
    """Number of distorted steps: ceil(ln(1/eps) * kappa); a budget whose
    horizon overflows a float raises InputError."""
    horizon = math.log(1.0 / _check_real("eps", eps, "(0, 1)")) * _check_budget(kappa)
    if horizon == math.inf:
        raise InputError(f"budget {kappa} too large: ln(1/eps) * kappa overflows")
    return math.ceil(horizon)


def distorted_greedy_max(inst, kappa, eps, on_event=None):
    """Greedy on the distorted objective with a positive-gain gate.

    At step i the element maximizing
    (1 - 1/kappa)^(t - i) * dg(S, x) - c_x is added, provided that quantity
    is positive; otherwise the run stops early.  At most t elements are
    chosen.  The real budget kappa is 0, which costs no query, or at least
    1, since below 1 the factor 1 - 1/kappa is negative.  An optional
    on_event(kind, fields) hook gets a "step" event {step, element, score}
    for every element added.
    """
    _require_monotone(inst.oracle)
    t = distortion_horizon(eps, kappa)
    if not kappa:
        return ()
    if kappa < 1:
        raise InputError(f"budget must be 0 or at least 1, got {kappa}")
    oracle = inst.oracle
    state = oracle.state(())
    ground = np.arange(oracle.n)
    inside = np.zeros(oracle.n, dtype=bool)
    step = 1
    while len(state.members) < t:
        factor = (1.0 - 1.0 / kappa) ** (t - step)
        cands, gains = _outside_gains(state, ground, inside)
        if not cands.size:
            break
        scores = factor * gains - inst.costs[cands]
        i = int(scores.argmax())  # first maximum: the lowest id
        best, best_score = int(cands[i]), scores[i]
        if best_score <= TOL:
            break
        state.add(best, float(gains[i]))
        inside[best] = True
        if on_event is not None:
            on_event("step", {"step": step, "element": best, "score": float(best_score)})
        step += 1
    return tuple(sorted(state.members))


def convert_regularized(reg_alg, inst, alpha, gamma, beta):
    """Budget sweep turning a regularized maximizer into a cover routine.

    Runs reg_alg(scaled, budget) on the cost-scaled objective
    g - (gamma/beta) * c with geometrically growing budgets until
    g(S) - (gamma/beta) * c(S) reaches gamma * tau.  ``f_value`` of the
    result reports that checked quantity.
    """
    _require_monotone(inst.oracle)
    if inst.tau is None:
        raise InputError("instance carries no cover threshold")
    _check_alpha(alpha, inst.oracle.n)
    _check_real("beta", beta, "(0, inf)")
    _check_real("gamma", gamma, "(0, 1]")
    oracle = inst.oracle
    scale = gamma / beta
    run = Run(oracle, gamma * inst.tau, value=lambda S: oracle.peek(S) - scale * inst.cost(S))
    if oracle.eval(()) >= run.target - TOL:
        return run.finish((), Status.SOLVED)
    scaled = dataclasses.replace(inst, costs=inst.costs * scale)

    def attempt(index, budget):
        chosen = tuple(reg_alg(scaled, budget))
        hit = oracle.eval(chosen) - scale * inst.cost(chosen) >= run.target - TOL
        return Status.SOLVED if hit else None, chosen

    return _budget_sweep(run, alpha, None, attempt)


def distorted_cover(inst, eps, alpha):
    """Cover through the distorted maximizer with its natural constants."""
    _check_real("eps", eps, "(0, 1)")
    gamma = 1.0 - eps
    beta = math.log(1.0 / eps)
    return convert_regularized(lambda scaled, budget: distorted_greedy_max(scaled, budget, eps),
                               inst, alpha, gamma, beta)

