"""General (non-monotone) submodular cover via threshold buckets, plus the
pluggable maximization subroutines used after each pass."""

from __future__ import annotations

import bisect
import heapq
import math
import time
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .monotone import _budget_schedule, _check_finite, _check_positive, _check_unit_interval, derive_seed
from .oracles import TOL, InputError
from .results import Status, finish_run


@dataclass(frozen=True)
class SmpSearch:
    """Outcome of an exact-style subset search."""

    solution: tuple
    value: float
    timed_out: bool = False


# each subroutine kind's approximation ratio, which sets stream_cover's acceptance level
_APPROX_RATIOS = {"ex": 1.0, "fex": 1.0, "dg": 0.5, "rg": 1.0 / math.e}


# a stream-pass window narrower than this is scanned one scalar gain at a time
# (see _fill_buckets): one uncounted batch with its first-hit search cost as
# much as 16 scalar gains on a cut state and about 30 on a coverage state
# (3-9 us per batch against 0.3-0.5 us per gain, 2-vCPU Xeon VM)
_SCALAR_SPAN = 16


def _approx_ratio(kind):
    try:
        return _APPROX_RATIOS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise InputError(f"unknown SMP subroutine kind {kind!r}") from None


@dataclass(frozen=True)
class SmpSubroutine:
    """Maximization routine run over the stored elements after each pass.

    ``kind`` is ex, fex, dg or rg (exact search, fast exact search, double
    greedy, random greedy), checked here, before any query.
    ``timeout_ms`` bounds each ex or fex search; dg and rg ignore it.
    """

    kind: str
    timeout_ms: float = None

    def __post_init__(self):
        _approx_ratio(self.kind)
        _check_timeout(self.timeout_ms)


smp_subroutine = SmpSubroutine


def _check_timeout(timeout_ms):
    if timeout_ms is not None and not timeout_ms >= 0:  # NaN fails the comparison
        raise InputError(f"timeout_ms must be None or non-negative, got {timeout_ms}")


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


def _branch_search(oracle, base_state, candidates, budget, target, deadline, best_set, best_val):
    """Depth-first search over subsets of candidates (size <= budget) on top
    of base_state.

    Candidate lists hold (-cached_gain, id) entries in decreasing cached
    gain; cached gains from ancestor states stay valid upper bounds by
    submodularity and are refreshed lazily, just before an element is
    branched on (Minoux's lazy evaluation).  A frame's bound is its value
    plus the positive cached gains among its next ``remaining`` entries: a
    bisect finds where the positive gains end and ``math.fsum`` adds them,
    exactly rounded and so independent of the Python version and of the
    summation order (on integer gains it equals a left-to-right fold).
    Branches whose bound cannot beat the incumbent or reach the target are
    pruned.

    Every child gets its own state copy and its own list ``ordered[pos+1:]``:
    the gains a child refreshes are bounds for the child only, not for its
    parent's later siblings, so the lists cannot be shared, and undoing an
    add in place of the copy saves nothing on a compact graph view while it
    makes a coverage state build its per-tag counts.  Returns the first set
    reaching the target, else the best set found.
    """
    if budget <= 0 or not candidates:
        return SmpSearch(best_set, best_val)
    seeded = sorted((-base_state.gain(c), c) for c in candidates)
    frames = [[base_state, seeded, 0, budget]]
    while frames:
        if deadline is not None and time.perf_counter() > deadline:
            return SmpSearch(best_set, best_val, True)
        frame = frames[-1]
        state, ordered, pos, remaining = frame
        if pos >= len(ordered) or remaining == 0:
            frames.pop()
            continue
        stop = bisect.bisect_left(ordered, (0.0,), pos, min(pos + remaining, len(ordered)))
        upper = state.value - math.fsum(map(itemgetter(0), ordered[pos:stop]))
        if upper <= best_val + 1e-12 and (target is None or upper < target - TOL):
            frames.pop()
            continue
        neg, chosen = ordered[pos]
        fresh = state.gain(chosen)
        if fresh < -neg - 1e-12:
            # stale entry: refresh and keep the tail in decreasing-gain order
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


def _on_ground(oracle, ground, run):
    """run(view, ids) on oracle.restrict(ground), ids being the ground's ids
    on the view, with the returned solution mapped back to oracle ids.

    View ids keep the order of the ids they stand for, so sorted solutions,
    tie-breaks and random draws are those of a run on the oracle itself.
    """
    ground = tuple(sorted(oracle._check_members(ground)))
    view = oracle.restrict(ground)
    if view is oracle:
        return run(oracle, ground)
    found = run(view, tuple(range(len(ground))))
    if isinstance(found, SmpSearch):
        return SmpSearch(tuple(ground[i] for i in found.solution), found.value, found.timed_out)
    return tuple(ground[i] for i in found)


def exact_max_search(oracle, ground, kappa, target=None, timeout_ms=None):
    """Greedy first, then exhaustive branch-and-bound over subsets <= kappa.

    With a target: returns the first set reaching it (greedy prefix when
    possible), else the best set found.  Without a target the search runs to
    completion and the result is the exact maximum.  Runs on
    ``oracle.restrict(ground)``.
    """
    _check_timeout(timeout_ms)
    return _on_ground(oracle, ground, lambda view, ids: _exact_search(
        view, ids, kappa, target, timeout_ms))


def _exact_search(oracle, ground, kappa, target, timeout_ms):
    kappa = max(0, min(int(kappa), len(ground)))
    deadline = None if timeout_ms is None else time.perf_counter() + timeout_ms / 1000.0
    root = oracle.state(())
    best_set, best_val = (), root.value
    if kappa == 0 or (target is not None and best_val >= target - TOL):
        return SmpSearch(best_set, best_val)
    # greedy phase with lazily re-evaluated gains (stale gains are upper bounds)
    greedy = root.copy()
    heap = [(-greedy.gain(c), c) for c in ground]
    heapq.heapify(heap)
    while len(greedy.members) < kappa and heap:
        if deadline is not None and time.perf_counter() > deadline:
            return SmpSearch(best_set, best_val, True)
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
    return _branch_search(oracle, root, list(ground), kappa, target, deadline, best_set, best_val)


def fast_exact_max_search(oracle, ground, kappa, target=None, timeout_ms=None):
    """Exact search that first pins every monotone element of ground.

    Only applicable in the unconstrained case (kappa >= |ground|); falls back
    to the plain exact search otherwise.  Runs on ``oracle.restrict(ground)``.
    """
    _check_timeout(timeout_ms)
    ground = tuple(sorted(oracle._check_members(ground)))
    if kappa < len(ground):
        return exact_max_search(oracle, ground, kappa, target=target, timeout_ms=timeout_ms)
    return _on_ground(oracle, ground, lambda view, ids: _fast_exact_search(
        view, ids, target, timeout_ms))


def _fast_exact_search(oracle, ground, target, timeout_ms):
    deadline = None if timeout_ms is None else time.perf_counter() + timeout_ms / 1000.0
    mono, nonmono = classify_monotone_elements(oracle, ground)
    base = oracle.state(mono)
    best_set, best_val = tuple(sorted(base.members)), base.value
    if target is not None and best_val >= target - TOL:
        return SmpSearch(best_set, best_val)
    return _branch_search(oracle, base, list(nonmono), len(nonmono), target, deadline, best_set, best_val)


def random_greedy_max(oracle, kappa, seed, ground=None, target=None):
    """Randomized greedy for non-monotone maximization (1/e in expectation).

    Each of the kappa rounds ranks the remaining elements by marginal gain,
    pads the top-kappa pool with zero-gain dummies, and adds a uniformly
    random pool entry (a dummy pick adds nothing).  An optional target value
    stops the run early once reached.  Given a ground, runs on
    ``oracle.restrict(ground)``.
    """
    if kappa < 1:
        raise InputError(f"budget must be at least 1, got {kappa}")
    if ground is not None:
        return _on_ground(oracle, ground, lambda view, ids: _random_greedy(
            view, kappa, seed, ids, target))
    return _random_greedy(oracle, kappa, seed, range(oracle.n), target)


def _random_greedy(oracle, kappa, seed, pool, target):
    rng = np.random.default_rng(seed)
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


def double_greedy_max(oracle, seed, ground=None):
    """Randomized double greedy for unconstrained maximization (1/2 in
    expectation).  Given a ground, runs on ``oracle.restrict(ground)``."""
    if ground is not None:
        return _on_ground(oracle, ground, lambda view, ids: _double_greedy(view, seed, ids))
    return _double_greedy(oracle, seed, range(oracle.n))


def _double_greedy(oracle, seed, pool):
    rng = np.random.default_rng(seed)
    grow = oracle.state(())
    shrink = oracle.state(pool)
    for u in pool:
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
    return tuple(sorted(grow.members))


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

    The open buckets and their states change only at an add, so the pass
    runs from one add to the next over windows of the next elements: the
    earliest element in a window clearing an open bucket is stored in the
    lowest such bucket.  A window starts at one element after each store and
    doubles after each window with no store, so a window is never more than
    twice the stretch it ends.  Windows narrower than _SCALAR_SPAN are
    scanned with uncounted scalar gains, element by element; wider ones take
    one uncounted batch of gains per open bucket.  Stores often come in runs
    (most gaps between stores are 0, on cut graphs and on coverage), where a
    batch per store would cost more than the scan, while most elements of a
    pass are passed over in long stretches, where the batches pay.

    The counter is charged what the one-by-one scan pays, one query per open
    bucket tried: every open bucket for each element passed over, and the
    buckets up to the chosen one for the stored element.  A hook gets a
    "store" event {g, element, bucket} at each store, bucket being the index
    among all num_buckets buckets; the buckets after any element are those
    after the last store at or before it.
    """
    buckets = [oracle.state(()) for _ in range(num_buckets)]
    open_buckets = [b for b in buckets if len(b.members) < cap]
    bar = threshold - TOL
    start, width = 0, 1
    while start < oracle.n:
        end = oracle.n if not open_buckets else min(start + width, oracle.n)
        scan = _scan_scalar if end - start < _SCALAR_SPAN else _scan_batched
        hit, chosen, gain = scan(open_buckets, start, end, bar)
        passed = end if hit is None else hit
        oracle._counter.tick((passed - start) * len(open_buckets)
                             + (0 if hit is None else chosen + 1))
        if hit is None:
            start, width = end, 2 * width
            continue
        bucket = open_buckets[chosen]
        bucket.add(hit, gain)
        if on_event is not None:
            on_event("store", {"g": g, "element": hit, "bucket": buckets.index(bucket)})
        if len(bucket.members) >= cap:
            del open_buckets[chosen]
        start, width = hit + 1, 1
    return buckets


def _scan_scalar(open_buckets, start, end, bar):
    """The first (element, bucket index, gain) in [start, end) whose gain
    clears bar, elements in order and buckets in order for each; Nones when
    nothing clears."""
    for u in range(start, end):
        for k, bucket in enumerate(open_buckets):
            gain = bucket._gain(u)
            if gain >= bar:
                return u, k, gain
    return None, None, None


def _scan_batched(open_buckets, start, end, bar):
    """_scan_scalar's answer from one batch of gains per open bucket."""
    window = np.arange(start, end)
    hit = chosen = gain = None
    for k, bucket in enumerate(open_buckets):
        gains = bucket._gains(window)
        clears = gains >= bar
        if clears.any():
            at = int(clears.argmax())  # earlier than any hit so far: the window shrank to it
            hit, chosen, gain = start + at, k, gains.item(at)
            window = window[:at]
            if not at:
                break
    return hit, chosen, gain


def stream_cover(instance, eps, alpha, sub, seed=0, initial_guess=None, on_event=None):
    """Bucketed threshold passes for general submodular cover.

    Per pass with guess g, elements are scanned in order and stored in the
    first of ceil(2/eps) buckets where the marginal gain is at least
    eps * tau / (2 g) and the bucket is below its cap ceil(2 g / eps).  After
    the pass a maximization subroutine runs over the stored elements with
    budget equal to the cap; its output is accepted once it reaches the
    subroutine's approximation ratio (1 for ex and fex, 1/2 for dg, 1/e for
    rg) times (1 - eps) * tau.  Buckets are reset between guesses.

    An optional on_event(kind, fields) hook gets a "store" event for every
    stored element (see _fill_buckets) and, after each subroutine run, a
    "pass" event {g, cap, stored, smp_value}.
    """
    _check_unit_interval("eps", eps)
    _check_positive("alpha", alpha)
    _check_finite("initial_guess", initial_guess)
    ratio = _approx_ratio(sub.kind)
    if not instance.oracle.nonnegative:
        raise InputError("stream cover requires a non-negative oracle")
    oracle = instance.oracle
    tau = instance.tau
    t0, q0 = time.perf_counter(), oracle.query_count
    accept_level = ratio * (1.0 - eps) * tau
    if oracle.eval(()) >= accept_level - TOL:
        return finish_run(oracle, (), Status.SOLVED, accept_level, q0, t0)
    num_buckets = math.ceil(2.0 / eps)
    best_members, best_value = (), 0.0
    for pass_index, g in enumerate(_budget_schedule(oracle.n, alpha, initial_guess)):
        cap = math.ceil(2.0 * g / eps)
        threshold = eps * tau / (2.0 * g)
        buckets = _fill_buckets(oracle, num_buckets, g, cap, threshold, on_event)
        ground = sorted(u for b in buckets for u in b.members)
        sub_seed = derive_seed(seed, 1, pass_index)
        solution, timed_out = _run_subroutine(oracle, ground, cap, sub, accept_level, sub_seed)
        value = oracle.eval(solution)
        if value > best_value + 1e-12:
            best_members, best_value = solution, value
        if on_event is not None:
            on_event("pass", {"g": g, "cap": cap, "stored": tuple(ground), "smp_value": value})
        if timed_out:
            return finish_run(oracle, best_members, Status.BUDGET_EXHAUSTED, accept_level, q0, t0)
        if value >= accept_level - TOL:
            return finish_run(oracle, solution, Status.SOLVED, accept_level, q0, t0)
    return finish_run(oracle, best_members, Status.INFEASIBLE, accept_level, q0, t0)
