"""Solvers for monotone submodular cover and the maximization routines they reuse."""

from __future__ import annotations

import math

import numpy as np

from .checks import (_check_alpha, _check_budget, _check_int, _check_real, _check_seed,
                     _require_monotone, _size_limit)
from .oracles import TOL, TruncatedOracle, _threshold_scan
from .results import Run, Status


def derive_seed(seed, *key):
    """Deterministic child seed for stream (seed, key...); the seed and each
    key part are checked as every solver's seed is."""
    seed = _check_seed(seed)
    key = tuple(_check_int("seed key", k, "[0, inf)") for k in key)
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


def _outside_gains(state, candidates):
    """The candidates (valid int64 ids) outside the solution, read from the
    state's membership mask, and their gains, charged in one tick."""
    candidates = state._outside(candidates)
    state.oracle._counter.tick(candidates.size)
    return candidates, state._gains(candidates)


def _best_gain(state, candidates):
    """Argmax marginal gain over the candidates outside the solution, or
    Nones when there is none; candidates in ascending order make argmax's
    first occurrence the lowest-id tie-break."""
    candidates, gains = _outside_gains(state, candidates)
    if not candidates.size:
        return None, None
    i = int(gains.argmax())
    return candidates.item(i), gains.item(i)


def _greedy(state, done):
    """Add the element of largest gain until done(state), and return True;
    return False first if no element outside the solution gains above TOL."""
    ground = np.arange(state.oracle.n)
    while not done(state):
        best, gain = _best_gain(state, ground)
        if best is None or gain <= TOL:
            return False
        state.add(best, gain)
    return True


def _sampled_step(state, rng, size):
    """Add the best element of a uniform sample of size ids, if the sample
    holds one outside the solution, whatever its gain."""
    sample = np.sort(rng.choice(state.oracle.n, size=size, replace=False))
    best, gain = _best_gain(state, sample)
    if best is not None:
        state.add(best, gain)


def greedy_cover(instance, eps):
    """Plain greedy: add the best element until f reaches (1 - eps) * tau."""
    _check_real("eps", eps, "(0, 1)")
    _require_monotone(instance.oracle)
    oracle = instance.oracle
    run = Run(oracle, (1.0 - eps) * instance.tau)
    if instance.tau <= 0:
        return run.finish((), Status.SOLVED)
    state = oracle.state(())
    # monotone + submodular: once no element gains, none ever can
    reached = _greedy(state, lambda st: st.value >= run.target - TOL)
    return run.finish(state.members, Status.SOLVED if reached else Status.INFEASIBLE)


def threshold_greedy_cover(instance, eps):
    """Descending-threshold greedy; every pass adds all elements above w.

    w starts at the best singleton value and shrinks by (1 - eps/2) per
    pass.  The run stops as soon as f reaches (1 - eps) * tau, or reports
    InfeasibleDetected once w sinks below eps * max_single / n.
    """
    _check_real("eps", eps, "(0, 1)")
    _require_monotone(instance.oracle)
    oracle = instance.oracle
    run = Run(oracle, (1.0 - eps) * instance.tau)
    if instance.tau <= 0:
        return run.finish((), Status.SOLVED)
    state = oracle.state(())
    if state.value >= run.target - TOL:
        return run.finish(state.members, Status.SOLVED)
    gains = state.gains(np.arange(oracle.n))
    w = float(gains.max()) if gains.size else 0.0
    if w <= TOL:
        return run.finish(state.members, Status.INFEASIBLE)
    floor = eps * w / oracle.n
    status = None
    while status is None:
        # one pass in id order: each hit is added and the rest of the pass
        # is scanned against the new state
        rest = state._outside(np.arange(oracle.n))
        for k, _, gain in _threshold_scan(rest, [state], w - TOL):
            state.add(rest.item(k), gain)
            if state.value >= run.target - TOL:
                status = Status.SOLVED
                break
        if status is None:
            w *= 1.0 - eps / 2.0
            if w < floor:
                status = Status.INFEASIBLE
    return run.finish(state.members, status)


def stochastic_greedy_cover(instance, eps, delta, alpha, seed, initial_guess=None):
    """Sampled greedy cover with a growing guess of the optimum size.

    Keeps ceil(ln(1/delta)/ln 2) candidate solutions.  Each iteration extends
    every solution with the best element of a fresh uniform sample of size
    min(n, ceil(n * ln(3/eps) / g)); after iteration r > ln(3/eps) * g the
    guess g takes the next _budget_schedule guess (at n it stays at n).
    Gains are taken against the truncated objective min(f, tau).  Stops once
    some solution reaches (1 - eps) * tau and returns the smallest one.
    """
    _check_real("eps", eps, "(0, 1)")
    _check_real("delta", delta, "(0, 1)")
    _check_alpha(alpha, instance.oracle.n, initial_guess)
    _require_monotone(instance.oracle)
    seed = _check_seed(seed)
    oracle = instance.oracle
    tau = instance.tau
    run = Run(oracle, (1.0 - eps) * tau)
    if tau <= 0:
        return run.finish((), Status.SOLVED)
    n = oracle.n
    capped = TruncatedOracle(oracle, tau)  # shares the query counter
    num_solutions = convert_rand_repetitions(delta)
    states = [capped.state(()) for _ in range(num_solutions)]
    rngs = [np.random.default_rng(derive_seed(seed, i)) for i in range(num_solutions)]
    lead = math.log(3.0 / eps)
    guesses = _budget_schedule(n, alpha, initial_guess)
    g = next(guesses, float(n))
    r = 1
    stalled = 0
    stall_limit = math.ceil(lead * n)
    status = Status.SOLVED
    while not any(st.value >= run.target - TOL for st in states):
        if g >= n and stalled >= stall_limit:
            status = Status.INFEASIBLE
            break
        sample_size = min(n, math.ceil(n * lead / g))
        for st, rng in zip(states, rngs):
            _sampled_step(st, rng, sample_size)
        r += 1
        if r > lead * g:
            g = next(guesses, g)
        if g >= n:
            stalled += 1
    winners = [st for st in states if st.value >= run.target - TOL]
    return run.finish(min(winners or states, key=lambda st: len(st.members)).members, status)


def stochastic_max_subroutine(eps):
    """Sampled-greedy maximization as an (oracle, kappa, seed) callable.

    Runs ceil(ln(3/(2 eps)) * kappa) steps, each adding the best element of a
    uniform sample of size min(n, ceil((n / kappa) * ln(3/(2 eps)))), and
    stops early once every element is selected.  Over budget by that log
    factor, with expected value near the optimum of size kappa.
    """
    _check_real("eps", eps, "(0, 1)")
    lead = math.log(3.0 / (2.0 * eps))

    def run(oracle, kappa, seed):
        seed = _check_seed(seed)
        if not _check_budget(kappa):
            return ()
        rng = np.random.default_rng(seed)
        # clamped in float: n / kappa and lead * kappa may overflow to inf
        sample_size = math.ceil(min(float(oracle.n), (oracle.n / kappa) * lead))
        state = oracle.state(())
        step = 0
        while step < lead * kappa and len(state.members) < oracle.n:
            step += 1
            _sampled_step(state, rng, sample_size)
        return tuple(sorted(state.members))

    return run


def greedy_max(oracle, kappa, seed=None):
    """Budgeted greedy maximization; stops early when no positive gain remains.

    Deterministic: ``seed`` is ignored; it is there for the (oracle, kappa,
    seed) shape the cover conversions call.  Budget 0 costs no query.
    """
    limit = _size_limit(kappa)
    if not limit:
        return ()
    state = oracle.state(())
    _greedy(state, lambda st: len(st.members) >= limit)
    return tuple(sorted(state.members))


def _budget_schedule(n, alpha, initial=None):
    """Yield geometric budget guesses max(1, initial) * (1 + alpha)^r, capped
    at n and ending with the first one that reaches n; nothing when n is 0.
    initial defaults to 1 + alpha.  The guesses are real-valued; every one is
    a separate subroutine run even when consecutive guesses are close."""
    if n == 0:
        return
    g = max(1.0, float(1.0 + alpha if initial is None else initial))
    while True:
        budget = min(float(n), g)
        yield budget
        if budget >= n:
            return
        g *= 1.0 + alpha


def _budget_sweep(run, alpha, initial, attempt):
    """Call attempt(index, budget) -> (status, chosen) per budget of the schedule;
    the first status that is not None finishes the run with chosen.  When the
    schedule ends the run is InfeasibleDetected with the last chosen set."""
    chosen = ()
    for index, budget in enumerate(_budget_schedule(run.oracle.n, alpha, initial)):
        status, chosen = attempt(index, budget)
        if status is not None:
            return run.finish(chosen, status)
    return run.finish(chosen, Status.INFEASIBLE)


def convert_cover(smp_alg, instance, alpha, gamma, seed=0, initial_budget=None):
    """Solve cover by sweeping budgets through a maximization routine.

    Reruns smp_alg with the real-valued budgets initial_budget * (1 + alpha)^r
    (initial_budget defaults to 1 + alpha; capped at n, one run per guess
    however close consecutive guesses are) until f of its output reaches
    gamma * tau.
    """
    _check_alpha(alpha, instance.oracle.n, initial_budget, "initial_budget")
    _check_real("gamma", gamma, "(0, 1]")
    seed = _check_seed(seed)
    oracle = instance.oracle
    run = Run(oracle, gamma * instance.tau)
    if oracle.eval(()) >= run.target - TOL:
        return run.finish((), Status.SOLVED)

    def attempt(index, budget):
        chosen = tuple(smp_alg(oracle, budget, derive_seed(seed, index)))
        return Status.SOLVED if oracle.eval(chosen) >= run.target - TOL else None, chosen

    return _budget_sweep(run, alpha, initial_budget, attempt)


def convert_rand_repetitions(delta):
    """How many runs per budget guess the randomized conversion performs."""
    _check_real("delta", delta, "(0, 1)")
    return max(1, math.ceil(math.log(1.0 / delta) / math.log(2.0)))


def convert_cover_randomized(smp_alg, instance, alpha, delta, eps, seed=0, initial_budget=None):
    """Randomized conversion: repeat the maximization per guess until one hits.

    Each budget guess g runs smp_alg ceil(ln(1/delta)/ln 2) times on the
    truncated objective min(f, tau); stops when any repetition reaches
    (1 - eps) * tau and returns the smallest successful solution.
    """
    _check_alpha(alpha, instance.oracle.n, initial_budget, "initial_budget")
    _check_real("eps", eps, "(0, 1)")
    seed = _check_seed(seed)
    reps = convert_rand_repetitions(delta)
    oracle = instance.oracle
    tau = instance.tau
    run = Run(oracle, (1.0 - eps) * tau)
    if tau <= 0:
        return run.finish((), Status.SOLVED)
    capped = TruncatedOracle(oracle, tau)

    def attempt(index, budget):
        winners = []
        for i in range(reps):
            candidate = tuple(smp_alg(capped, budget, derive_seed(seed, index, i)))
            if capped.eval(candidate) >= run.target - TOL:
                winners.append(candidate)
        return (Status.SOLVED, min(winners, key=len)) if winners else (None, candidate)

    return _budget_sweep(run, alpha, initial_budget, attempt)
