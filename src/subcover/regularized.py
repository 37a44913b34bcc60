"""Regularized cover: distorted greedy maximization, a cover conversion for
it, and a single-pass streaming variant."""

from __future__ import annotations

import math
import time

import numpy as np

from .monotone import _budget_sweep, _check_gamma, _check_positive, _check_unit_interval, _unselected
from .oracles import TOL, InputError
from .results import Status, finish_run


def _check_instance(inst, need_kappa=False, need_tau=False):
    if not inst.oracle.monotone:
        raise InputError("regularized objectives require a monotone gain oracle")
    if need_kappa and inst.kappa is None:
        raise InputError("instance carries no budget")
    if need_tau and inst.tau is None:
        raise InputError("instance carries no cover threshold")


def distortion_horizon(eps, kappa):
    """Number of distorted steps: ceil(ln(1/eps) * kappa)."""
    _check_unit_interval("eps", eps)
    return math.ceil(math.log(1.0 / eps) * kappa)


def distorted_potential(inst, eps, i, X):
    """(1 - 1/kappa)^(t - i) * g(X) - c(X) with t the distortion horizon."""
    _check_instance(inst, need_kappa=True)
    kappa = inst.kappa
    t = distortion_horizon(eps, kappa)
    if not 0 <= i <= t:
        raise InputError(f"step index {i} outside [0, {t}]")
    factor = (1.0 - 1.0 / kappa) ** (t - i)
    return factor * inst.oracle.eval(X) - inst.cost(X)


def distorted_greedy_max(inst, eps, on_event=None):
    """Greedy on the distorted objective with a positive-gain gate.

    At step i the element maximizing
    (1 - 1/kappa)^(t - i) * dg(S, x) - c_x is added, provided that quantity
    is positive; otherwise the run stops early.  At most t elements are
    chosen.  An optional on_event(kind, fields) hook gets a "step" event
    {step, element, score} for every element added.
    """
    _check_instance(inst, need_kappa=True)
    oracle = inst.oracle
    kappa = inst.kappa
    t = distortion_horizon(eps, kappa)
    state = oracle.state(())
    ground = np.arange(oracle.n)
    step = 1
    while len(state.members) < t:
        factor = (1.0 - 1.0 / kappa) ** (t - step)
        cands = _unselected(state, ground)
        if not cands.size:
            break
        gains = state.gains(cands)
        scores = factor * gains - inst.costs[cands]
        i = int(scores.argmax())  # first maximum: the lowest id
        best, best_score = int(cands[i]), scores[i]
        if best_score <= TOL:
            break
        state.add(best, float(gains[i]))
        if on_event is not None:
            on_event("step", {"step": step, "element": best, "score": float(best_score)})
        step += 1
    return tuple(sorted(state.members))


def convert_regularized(reg_alg, inst, alpha, gamma, beta):
    """Budget sweep turning a regularized maximizer into a cover routine.

    Runs reg_alg on the cost-scaled objective g - (gamma/beta) * c with
    geometrically growing budgets until g(S) - (gamma/beta) * c(S) reaches
    gamma * tau.  ``f_value`` of the result reports that checked quantity.
    """
    _check_instance(inst, need_tau=True)
    _check_positive("alpha", alpha)
    _check_positive("beta", beta)
    _check_gamma(gamma)
    oracle = inst.oracle
    scale = gamma / beta
    target = gamma * inst.tau
    t0, q0 = time.perf_counter(), oracle.query_count

    def value(S):
        return oracle.peek(S) - scale * inst.cost(S)

    if oracle.eval(()) >= target - TOL:
        return finish_run(oracle, (), Status.SOLVED, target, q0, t0, value)
    scaled = inst.with_scaled_costs(scale)

    def attempt(index, budget):
        chosen = tuple(reg_alg(scaled.with_scaled_costs(1.0, kappa=budget)))
        return oracle.eval(chosen) - scale * inst.cost(chosen) >= target - TOL, chosen

    return _budget_sweep(oracle, alpha, None, attempt, target, q0, t0, value)


def distorted_cover(inst, eps, alpha):
    """Cover through the distorted maximizer with its natural constants."""
    _check_unit_interval("eps", eps)
    gamma = 1.0 - eps
    beta = math.log(1.0 / eps)

    def run(scaled_inst):
        return distorted_greedy_max(scaled_inst, eps)

    return convert_regularized(run, inst, alpha, gamma, beta)


def distorted_stream_cover(inst, eps, beta, opt_size):
    """One ordered pass accepting u when dg(S, u) - beta * c_u clears
    eps * tau / opt_size; stops at ceil(opt_size / eps) elements.

    opt_size is a caller-supplied guess of the optimal cover size;
    experimental, wrap in a geometric guessing loop for end-to-end use.
    """
    _check_instance(inst, need_tau=True)
    _check_unit_interval("eps", eps)
    if not (math.isfinite(beta) and beta >= 1.0):
        raise InputError(f"beta must be finite and at least 1, got {beta}")
    if not (math.isfinite(opt_size) and opt_size >= 1):
        raise InputError(f"opt_size must be finite and at least 1, got {opt_size}")
    oracle = inst.oracle
    limit = math.ceil(opt_size / eps)
    bar = eps * inst.tau / opt_size
    state = oracle.state(())
    for u in range(oracle.n):
        if len(state.members) >= limit:
            break
        gain = state.gain(u)
        if gain - beta * inst.costs[u] >= bar - TOL:
            state.add(u, gain)
    return tuple(sorted(state.members))
