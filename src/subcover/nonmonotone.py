"""General (non-monotone) submodular cover via threshold buckets, plus the
pluggable maximization subroutines used after each pass."""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .checks import InputError, _check_alpha, _check_real, _check_seed, _size_limit
from .monotone import _budget_sweep, _outside_gains, derive_seed
from .oracles import TOL, _threshold_scan
from .results import Run, Status


@dataclass(frozen=True)
class SmpSearch:
    """Outcome of an exact-style subset search."""

    solution: tuple
    value: float
    timed_out: bool = False


# each subroutine kind's approximation ratio, which sets stream_cover's acceptance level
_APPROX_RATIOS = {"ex": 1.0, "fex": 1.0, "dg": 0.5, "rg": 1.0 / math.e}


@dataclass(frozen=True)
class SmpSubroutine:
    """Maximization routine run over the stored elements after each pass.

    ``kind`` is ex, fex, dg or rg (exact search, fast exact search, double
    greedy, random greedy), checked here, before any query.
    ``timeout_ms`` bounds each ex or fex search, whose clock is read at its
    first step and then every 256 steps; dg and rg ignore it.
    """

    kind: str
    timeout_ms: float = None

    def __post_init__(self):
        # a str first: an unhashable kind such as ["ex"] cannot be looked up
        if not isinstance(self.kind, str) or self.kind not in _APPROX_RATIOS:
            raise InputError(f"unknown SMP subroutine kind {self.kind!r}")
        if self.timeout_ms is not None:
            _check_real("timeout_ms", self.timeout_ms, "[0, inf]")


smp_subroutine = SmpSubroutine


def classify_monotone_elements(oracle, T):
    """Split T into elements whose last-in marginal gain is >= 0 and the rest."""
    members = sorted(oracle._check_members(T))
    if not members:
        return (), ()
    state = oracle.state(members)
    mono, nonmono = [], []
    for x in members:
        # gain of x on top of T - {x} equals minus the removal gain
        if state.removal_gain(x) <= TOL:
            mono.append(x)
        else:
            nonmono.append(x)
    return tuple(mono), tuple(nonmono)


def _root_window_sum(seeded, budget):
    """The sum of the positive gains in ``seeded[:budget]`` when every root
    gain is an integral float and that sum is below 2**52, else None."""
    if not all(isinstance(neg, float) and neg.is_integer() for neg, _ in seeded):
        return None
    total = math.fsum(-neg for neg, _ in seeded[:budget] if neg < 0)
    return total if total < 2.0 ** 52 else None


def _branch_search(base_state, candidates, budget, target, deadline):
    """Depth-first search over subsets of candidates (size <= budget) on top
    of base_state; the one search body of both exact searches.

    The root list holds (-gain, id) entries in decreasing gain, from one
    batch of gains on base_state.  Cached gains from ancestor states stay
    valid upper bounds by submodularity and are refreshed lazily, just
    before an element is branched on, so the first descent is the lazy
    greedy (Minoux, 1978).  A frame's bound is its value plus the sum of the
    positive cached gains in its window ``ordered[pos:pos+remaining]``;
    branches whose bound cannot beat the incumbent or reach the target are
    pruned.  The frame keeps that sum as a running total, updated as a
    refresh or a branch moves entries through the window, and a child
    starts from its parent's total less the chosen cached gain.  While
    every gain in it is an integral float and the root window's sum is
    below 2**52 (unit or integer cuts, coverage, integer truncation), each
    update is exact, so the total is the ``math.fsum`` of the window.  A
    frame whose refresh meets a non-integral gain, its descendants, and
    every frame of a search with a non-integral root gain take that fsum
    over the slice of positive gains instead.  Either way the bound is
    exactly rounded, and so independent of the Python version and of the
    summation order.

    The ids come from the candidate list, valid and outside each frame's
    state by construction: a refreshed gain is one counter tick and an
    unchecked read, a child one ``state._child(id, fresh gain)``, a copy of
    the state with an unchecked add.  Every child gets its own state and its
    own list ``ordered[pos+1:]``: the gains a child refreshes are bounds for
    the child only, not for its parent's later siblings, so the lists cannot
    be shared, and undoing an add in place of the copy saves nothing on a
    compact graph view while it makes a coverage state build its per-tag
    counts.  With a deadline, the clock is read at the first step (a
    refresh, branch, prune or pop) and then every 256 steps, and a search
    past it returns the best set so far, timed out.  Returns base_state's
    own set when it reaches the target, the budget is 0 or there are no
    candidates; else the first set reaching the target, else the best set
    found.
    """
    best_set, best_val = tuple(sorted(base_state.members)), base_state.value
    if (target is not None and best_val >= target - TOL) or budget <= 0 or not candidates:
        return SmpSearch(best_set, best_val)
    seeded = sorted(zip((-base_state.gains(candidates)).tolist(), candidates))
    # a frame: [state, ordered, pos, remaining, running total or None]
    frames = [[base_state, seeded, 0, budget, _root_window_sum(seeded, budget)]]
    tick, clock, steps = base_state.oracle._counter.tick, time.perf_counter, 0
    while frames:
        frame = frames[-1]
        state, ordered, pos, remaining, window = frame
        value, gain, size = state.value, state._gain, len(ordered)
        # the frame's steps run on locals; the frame is written back only
        # when it pushes a child, and dropped when it pops
        while True:
            if deadline is not None:
                steps += 1
                if steps & 255 == 1 and clock() > deadline:
                    return SmpSearch(best_set, best_val, True)
            if pos >= size:
                frames.pop()
                break
            end = pos + remaining
            if window is None:
                stop = bisect.bisect_left(ordered, (0.0,), pos, min(end, size))
                upper = value - math.fsum(map(itemgetter(0), ordered[pos:stop]))
            else:
                upper = value + window
            if upper <= best_val + 1e-12 and (target is None or upper < target - TOL):
                frames.pop()
                break
            # past the prune test the head's gain is positive: with none, the
            # bound would be the frame's own value, which was already no better
            neg, chosen = ordered[pos]
            tick()
            fresh = gain(chosen)
            if fresh < -neg - 1e-12:
                # stale entry: refresh and keep the tail in decreasing-gain order
                del ordered[pos]
                at = bisect.bisect_right(ordered, (-fresh, chosen), pos)
                ordered.insert(at, (-fresh, chosen))
                if window is not None:
                    if isinstance(fresh, float) and fresh.is_integer():
                        # the head leaves the window; the fresh gain or the
                        # entry now at the window's end comes in
                        last = -fresh if at < end else ordered[end - 1][0]
                        window = window + neg - last if last < 0 else window + neg
                    else:
                        window = None
                continue
            child = state._child(chosen, fresh)
            if child.value > best_val + 1e-12:
                best_set, best_val = tuple(sorted(child.members)), child.value
            if target is not None and child.value >= target - TOL:
                return SmpSearch(tuple(sorted(child.members)), best_val)
            pos += 1
            inherited = window
            if window is not None:
                # the head leaves both windows; the parent's takes in the entry at its end
                inherited += neg
                last = ordered[end][0] if end < size else 0.0
                window = inherited - last if last < 0 else inherited
            if remaining > 1 and pos < size:
                frame[2], frame[4] = pos, window
                frames.append([child, ordered[pos:], 0, remaining - 1, inherited])
                break
    return SmpSearch(best_set, best_val)


def _restricted(oracle, ground):
    """(view, ids, back): oracle.restrict(ground), the ground's ids on the
    view, and back(solution), which maps a sorted view solution to sorted
    oracle ids; with no ground, or a restrict that returns the oracle
    itself, (oracle, range(n) or the sorted ground, tuple).

    View ids keep the order of the ids they stand for, so sorted solutions,
    tie-breaks and random draws are those of a run on the oracle itself.
    """
    if ground is None:
        return oracle, range(oracle.n), tuple
    ground = tuple(sorted(oracle._check_members(ground)))
    view = oracle.restrict(ground)
    if view is oracle:
        return oracle, ground, tuple
    return view, range(len(ground)), lambda solution: tuple(ground[i] for i in solution)


def _limits(kappa, target, timeout_ms=None):
    """A maximizer's budget rounded up as in greedy_max, and the perf_counter
    time a search must stop at (None without timeout_ms); the budget, target
    and timeout_ms are checked here, before any query."""
    budget = _size_limit(kappa)
    if target is not None:
        _check_real("target", target, "(-inf, inf)")
    if timeout_ms is None:
        return budget, None
    return budget, time.perf_counter() + _check_real("timeout_ms", timeout_ms, "[0, inf]") / 1000.0


def exact_max_search(oracle, ground, kappa, target=None, timeout_ms=None):
    """Exhaustive branch-and-bound over subsets of ground of size <= kappa,
    from the empty set; its first descent is the lazy greedy.

    With a target: returns the first set reaching it (the greedy prefix
    when it does), else the best set found.  Without a target the search
    runs to completion and the result is the exact maximum.  kappa is
    rounded up as in greedy_max; budget 0 charges one query, for the value
    it reports.  With timeout_ms, a search still running when it has passed
    returns the best set so far, timed out; the clock is read at the first
    step and then every 256 steps, so timeout_ms=0 stops before the first
    refresh or branch.  Runs on ``oracle.restrict(ground)``.
    """
    budget, deadline = _limits(kappa, target, timeout_ms)
    view, ids, back = _restricted(oracle, ground)
    found = _branch_search(view.state(()), list(ids), budget, target, deadline)
    return SmpSearch(back(found.solution), found.value, found.timed_out)


def exact_min_cover(instance):
    """A smallest set with f >= tau - 1e-9, as the SmpSearch that found it,
    or None when no set reaches tau.

    Runs exact_max_search with target tau at budgets 0, 1, .., n and
    returns the first search that reaches it.  Every smaller budget's search
    ran to completion without reaching tau, so the size is minimal.  A
    monotone instance with f(U) < tau returns None without a query.
    """
    oracle, tau = instance.oracle, instance.tau
    if oracle.monotone and not instance.feasible():
        return None
    for k in range(oracle.n + 1):
        found = exact_max_search(oracle, None, k, target=tau)
        if found.value >= tau - TOL:
            return found
    return None


def fast_exact_max_search(oracle, ground, kappa, target=None, timeout_ms=None):
    """Exact search that first pins every monotone element of ground and
    branches over the rest.

    Only applicable in the unconstrained case (kappa >= |ground|, kappa
    rounded up); searches from the empty set, as exact_max_search does,
    otherwise.  timeout_ms is read as by exact_max_search (the clock every
    256 steps).  Runs on ``oracle.restrict(ground)``.
    """
    budget, deadline = _limits(kappa, target, timeout_ms)
    view, ids, back = _restricted(oracle, ground)
    pinned, rest = ((), ids) if budget < len(ids) else classify_monotone_elements(view, ids)
    found = _branch_search(view.state(pinned), list(rest), budget, target, deadline)
    return SmpSearch(back(found.solution), found.value, found.timed_out)


def random_greedy_max(oracle, kappa, seed, ground=None, target=None):
    """Randomized greedy for non-monotone maximization (1/e in expectation).

    Each of the kappa rounds ranks the remaining elements by marginal gain
    (one batch of gains, ties to the lower id), pads the top-kappa pool with
    zero-gain dummies, and adds a uniformly random pool entry (a dummy pick
    adds nothing, and the next round reuses the ranking while charging its
    batch again).  An optional target value stops the run early once
    reached.  kappa is rounded up as in greedy_max; budget 0 costs no
    query.  The draw is among kappa slots, so a rounded kappa above 2**63
    (numpy's int64 draw range) raises InputError.  Given a ground, runs on
    ``oracle.restrict(ground)``.
    """
    kappa = _limits(kappa, target)[0]
    if kappa > 2**63:
        raise InputError("random greedy draws among kappa slots, so kappa must be at most "
                         f"2**63, got {kappa}")
    seed = _check_seed(seed)
    view, ids, back = _restricted(oracle, ground)
    if not kappa:
        return ()
    rng = np.random.default_rng(seed)
    pool = np.asarray(ids, dtype=np.int64)
    state = view.state(())
    inside = np.zeros(view.n, dtype=bool)
    tick, changed = view._counter.tick, True
    for _ in range(kappa):
        if target is not None and state.value >= target - TOL:
            break
        if changed:
            cands, gains = _outside_gains(state, pool, inside)
            if not cands.size:
                break
            top = np.lexsort((cands, -gains))[:kappa]
            top = top[gains[top] >= -1e-12]
            changed = False
        else:
            # a dummy pick left the state as it was: the round is the last
            # one, charged as the batch of gains it repeats
            tick(cands.size)
        pick = int(rng.integers(kappa))
        if pick < top.size:
            x = cands.item(top[pick])
            state.add(x, gains.item(top[pick]))
            inside[x] = True
            changed = True
    return back(sorted(state.members))


def double_greedy_max(oracle, seed, ground=None):
    """Randomized double greedy for unconstrained maximization (1/2 in
    expectation).  Given a ground, runs on ``oracle.restrict(ground)``."""
    seed = _check_seed(seed)
    view, ids, back = _restricted(oracle, ground)
    rng = np.random.default_rng(seed)
    grow, shrink = view.state(()), view.state(ids)
    for u in ids:
        a = grow.gain(u)
        b = shrink.removal_gain(u)
        a_pos, b_pos = max(a, 0.0), max(b, 0.0)
        if a_pos + b_pos <= 1e-12:
            shrink.remove(u, b)
            continue
        if rng.random() < a_pos / (a_pos + b_pos):
            grow.add(u, a)
        else:
            shrink.remove(u, b)
    return back(sorted(grow.members))


def _run_subroutine(oracle, ground, budget, sub, accept_level, seed):
    if sub.kind in ("ex", "fex"):
        search = exact_max_search if sub.kind == "ex" else fast_exact_max_search
        found = search(oracle, ground, budget, target=accept_level, timeout_ms=sub.timeout_ms)
        return found.solution, found.timed_out
    if not ground:
        return (), False
    if sub.kind == "dg":
        return double_greedy_max(oracle, seed, ground=ground), False
    return random_greedy_max(oracle, budget, seed, ground=ground, target=accept_level), False


def _fill_buckets(oracle, num_buckets, g, cap, threshold, on_event):
    """One stream pass with guess g: scan the elements in order and store
    each in the first bucket below cap where its gain is at least threshold.

    The pass is one _threshold_scan over the open buckets, charged what the
    one-by-one scan over all num_buckets buckets pays.  Every empty bucket
    gives an element the same gain, so the first empty bucket stands for
    the empty ones behind it: only it is built, the rest are charged as
    built (one query each) and, while the scan runs, as tried for every id
    passed over.  When it stores its first element, a copy of it taken
    just before opens the next bucket.  Returns the built buckets, in
    order; every bucket after them is empty.  A hook gets a "store" event
    {g, element, bucket} at each store, bucket being the index among all
    num_buckets buckets; the buckets after any element are those after the
    last store at or before it.
    """
    buckets, counter = [oracle.state(())], oracle._counter
    open_buckets, open_ids = list(buckets), [0]
    # spare: the empty buckets not built; start: the first id not yet charged for them
    spare, start = num_buckets - 1, 0
    counter.tick(spare)
    for u, chosen, gain in _threshold_scan(np.arange(oracle.n), open_buckets, threshold - TOL):
        counter.tick(spare * (u - start))
        start = u + 1
        bucket, bucket_id = open_buckets[chosen], open_ids[chosen]
        if spare and bucket_id == len(buckets) - 1:
            # the empty bucket stores: an empty copy stands for the rest
            buckets.append(bucket.copy())
            open_buckets.append(buckets[-1])
            open_ids.append(bucket_id + 1)
            spare -= 1
        bucket.add(u, gain)
        if on_event is not None:
            on_event("store", {"g": g, "element": u, "bucket": bucket_id})
        if len(bucket.members) >= cap:
            del open_buckets[chosen], open_ids[chosen]
    counter.tick(spare * (oracle.n - start))
    return buckets


def stream_cover(instance, eps, alpha, sub, seed=0, initial_guess=None, on_event=None):
    """Bucketed threshold passes for general submodular cover.

    Per pass with guess g, elements are scanned in order and stored in the
    first of ceil(2/eps) buckets where the marginal gain is at least
    eps * tau / (2 g) and the bucket is below its cap ceil(2 g / eps).  After
    the pass a maximization subroutine runs over the stored elements with
    budget equal to the cap; its output is accepted once it reaches the
    subroutine's approximation ratio (1 for ex and fex, 1/2 for dg, 1/e for
    rg) times (1 - eps) * tau.  Buckets are reset between guesses.  A timeout
    ends the run BudgetExhausted, and a schedule with no accepted output
    InfeasibleDetected, both with the best set any pass found.

    An optional on_event(kind, fields) hook gets a "store" event for every
    stored element (see _fill_buckets) and, after each subroutine run, a
    "pass" event {g, cap, stored, smp_value}.  An eps so small that the
    largest cap, 2 max(n, 1) / eps, overflows a float raises InputError
    before any query.
    """
    _check_real("eps", eps, "(0, 1)")
    if not math.isfinite(2.0 * max(instance.oracle.n, 1) / eps):
        raise InputError(f"eps = {eps} makes the largest bucket cap, 2 max(n, 1) / eps, "
                         "overflow a float")
    _check_alpha(alpha, instance.oracle.n, initial_guess)
    seed = _check_seed(seed)
    # a hand-made descriptor, or none, gets the descriptor's own checks
    sub = SmpSubroutine(getattr(sub, "kind", None), getattr(sub, "timeout_ms", None))
    ratio = _APPROX_RATIOS[sub.kind]
    if not instance.oracle.nonnegative:
        raise InputError("stream cover requires a non-negative oracle")
    oracle = instance.oracle
    tau = instance.tau
    run = Run(oracle, ratio * (1.0 - eps) * tau)
    if oracle.eval(()) >= run.target - TOL:
        return run.finish((), Status.SOLVED)
    num_buckets = math.ceil(2.0 / eps)
    best_members, best_value = (), 0.0

    def attempt(pass_index, g):
        nonlocal best_members, best_value
        cap = math.ceil(2.0 * g / eps)
        threshold = eps * tau / (2.0 * g)
        buckets = _fill_buckets(oracle, num_buckets, g, cap, threshold, on_event)
        ground = sorted(u for b in buckets for u in b.members)
        sub_seed = derive_seed(seed, 1, pass_index)
        solution, timed_out = _run_subroutine(oracle, ground, cap, sub, run.target, sub_seed)
        value = oracle.eval(solution)
        if value > best_value + 1e-12:
            best_members, best_value = solution, value
        if on_event is not None:
            on_event("pass", {"g": g, "cap": cap, "stored": tuple(ground), "smp_value": value})
        if timed_out:
            return Status.BUDGET_EXHAUSTED, best_members
        if value >= run.target - TOL:
            return Status.SOLVED, solution
        return None, best_members

    return _budget_sweep(run, alpha, initial_guess, attempt)
