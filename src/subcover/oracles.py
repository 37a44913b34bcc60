"""Query-counted set-function oracles, truncation, and instance generators."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .checks import (
    InputError,
    _check_int,
    _check_real,
    _check_seed,
    _int64_row,
    _int_ids,
    _nonnegative_array,
    _require_monotone,
)

TOL = 1e-9


class QueryCounter:
    """Mutable query tally, shared between an oracle and its derived views."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def tick(self, queries=1):
        self.count += queries


class SetFunctionOracle:
    """Value oracle for a set function over the ground set {0, .., n-1}.

    Every evaluation increments the query counter by exactly one.  Marginal
    gains taken through a ``SolutionState`` also cost one query each: the
    value of the current solution prefix is cached, so only the extended set
    has to be (conceptually) evaluated.
    """

    monotone = False
    nonnegative = True

    def __init__(self, n, counter=None):
        self.n = _check_int("ground set size", n, "[0, inf)")
        self._counter = counter if counter is not None else QueryCounter()

    # subclasses implement the raw set function
    def _value(self, members):
        raise NotImplementedError

    def _check_element(self, x):
        if type(x) is not int:  # numpy ints and whole floats pass; bools raise
            x = int(_int_ids([x], "element id")[0])
        if not 0 <= x < self.n:
            raise InputError(f"element {x} outside ground set of size {self.n}")
        return x

    def _check_ids(self, ids):
        """ids as a one-dimensional int64 array, all inside the ground set.
        All but an integer array that int64 holds is read by _int_ids, so a
        bool raises, even in a list numpy reads as integers, as does a uint64
        id past the int64 range."""
        array = np.asarray(ids)
        if array.ndim != 1:
            raise InputError("element ids must form a one-dimensional array")
        if array is ids and _int64_row(array):
            ids = array.astype(np.int64, copy=False)
        else:  # sequences, and arrays of bools, floats, uint64, strings or objects
            ids = _int_ids(array.tolist() if array is ids else list(ids), "element id")
        outside = ids.view(np.uint64) >= self.n  # negative ids wrap to huge ones
        if outside.any():
            self._check_element(ids[outside.argmax()])  # raises the usual message
        return ids

    def _check_members(self, S):
        members = [self._check_element(x) for x in S]
        out = set(members)
        if len(out) != len(members):
            raise InputError("element set contains duplicate ids")
        return out

    query_count = property(operator.attrgetter("_counter.count"), doc="Queries charged so far.")

    def eval(self, S):
        """Evaluate f(S); counts one query."""
        members = self._check_members(S)
        self._counter.tick()
        return self._value(members)

    def peek(self, S):
        """Evaluate f(S) without counting; for post-hoc verification only."""
        return self._value(self._check_members(S))

    def state(self, S=()):
        """Incremental solution evaluator rooted at S; costs one query."""
        return self._make_state(self._check_members(S))

    def restrict(self, ground):
        """An oracle for f on subsets of ground, sharing this query counter.

        A compact view numbers the sorted ground 0, 1, ..: view id i stands
        for the i-th smallest id of ground, so the ids keep their order.
        This default has no compact form and returns the oracle itself, ids
        unchanged.
        """
        self._check_members(ground)
        return self

    def _make_state(self, members):
        return SolutionState(self, members)

    def clone(self):
        """A copy of this oracle's class with a fresh query counter; it shares
        every other attribute, as the structures of an oracle are read-only."""
        dup = object.__new__(type(self))
        dup.__dict__.update(self.__dict__)
        dup._counter = QueryCounter()
        return dup


class SolutionState:
    """A solution set with its cached objective value.

    ``gain``/``removal_gain`` cost one query each and ``gains(cands)`` one
    per candidate.  ``add``/``remove`` are free when handed the gain just
    computed against this state; otherwise they recompute it (one query).
    Either way the id is checked, and must lie outside the solution for
    ``add`` and inside it for ``remove``.
    """
    _mask = None  # see _outside

    def __init__(self, oracle, members):
        self.oracle = oracle
        self.members = set(members)
        oracle._counter.tick()
        self.value = oracle._value(self.members)

    def gain(self, x):
        x = self._check_new(x)
        self.oracle._counter.tick()
        return self._gain(x)

    def gains(self, cands):
        """Marginal gains of the candidate ids (a float64 array).

        Candidates must lie in the ground set and outside the solution;
        duplicates are allowed.  Charges len(cands) queries in one update.
        """
        cands = self._check_candidates(cands)
        self.oracle._counter.tick(len(cands))
        return self._gains(cands)

    def _check_candidates(self, cands):
        cands = self.oracle._check_ids(cands)
        if not self.members.isdisjoint(cands.tolist()):
            x = next(x for x in cands.tolist() if x in self.members)
            raise InputError(f"element {x} already in the solution")
        return cands

    def _check_new(self, x):
        x = self.oracle._check_element(x)
        if x in self.members:
            raise InputError(f"element {x} already in the solution")
        return x

    def _check_held(self, x):
        x = self.oracle._check_element(x)
        if x not in self.members:
            raise InputError(f"element {x} not in the solution")
        return x

    def removal_gain(self, x):
        x = self._check_held(x)
        self.oracle._counter.tick()
        return self._removal_gain(x)

    def add(self, x, gain=None):
        x = self._check_new(x)
        if gain is None:
            self.oracle._counter.tick()
            gain = self._gain(x)
        self._apply_add(x)
        self.members.add(x)
        if self._mask is not None:
            self._mask[x] = True
        self.value += gain
        return gain

    def remove(self, x, gain=None):
        x = self._check_held(x)
        if gain is None:
            self.oracle._counter.tick()
            gain = self._removal_gain(x)
        self._apply_remove(x)
        self.members.discard(x)
        if self._mask is not None:
            self._mask[x] = False
        self.value += gain
        return gain

    def copy(self):
        dup = object.__new__(type(self))
        dup.__dict__.update(self.__dict__)
        dup.members, dup._mask = set(self.members), None
        self._copy_into(dup)
        return dup

    def _child(self, x, gain):
        """A new state for the solution plus x, x being outside it and gain
        its marginal gain here; unchecked and uncounted."""
        child = self.copy()
        child._apply_add(x)
        child.members.add(x)
        child.value += gain
        return child

    def _outside(self, ids):
        """The ids (valid, an int64 array) outside the solution, in order, from
        a bool mask: built by the first call, kept by add and remove, not copied."""
        if self._mask is None:
            self._mask = np.zeros(self.oracle.n, dtype=bool)
            self._mask[np.fromiter(self.members, dtype=np.int64, count=len(self.members))] = True
        return ids[~self._mask[ids]]

    # default implementations fall back to full evaluation
    def _gain(self, x):
        return self.oracle._value(self.members | {x}) - self.value

    def _gains(self, cands):
        return np.array([self._gain(x) for x in cands.tolist()], dtype=float)

    def _removal_gain(self, x):
        return self.oracle._value(self.members - {x}) - self.value

    # the state keeps members; these move only a subclass's own structures,
    # before the set changes
    def _apply_add(self, x):
        pass

    def _apply_remove(self, x):
        pass

    def _copy_into(self, dup):
        pass


# a scan window narrower than this is scanned one scalar gain at a time (see
# _threshold_scan): one uncounted batch with its first-hit search cost as
# much as 16 scalar gains on a cut state and about 30 on a coverage state
# (3-9 us per batch against 0.3-0.5 us per gain, 2-vCPU Xeon VM)
_SCALAR_SPAN = 16


def _threshold_scan(ids, states, bar):
    """Scan the ids (an int64 array) in order, each against the open states
    in order, and yield (position, state index, gain) at each first id and
    state whose gain clears bar.

    Before resuming, the caller may change the yielded state, drop states
    from the list and append states to it; the scan goes on after the
    yielded position and ends when the ids or the states run out.  The ids
    must lie outside every open state; they are not checked.

    The states change only between yields, so the scan runs over windows
    that start at one id after each yield and double after each window with
    no hit.  Windows narrower than _SCALAR_SPAN take uncounted scalar gains
    (hits often come in runs, where a batch per hit costs more); wider ones
    one uncounted batch of gains per open state.  Each window charges what
    the one-by-one scan pays: one query per open state for each id passed
    over, and one per state tried for the yielded id.
    """
    start, width = 0, 1
    while start < len(ids) and states:
        end = min(start + width, len(ids))
        window = _scalar_window if end - start < _SCALAR_SPAN else _batched_window
        hit, chosen, gain = window(ids, states, start, end, bar)
        passed = end if hit is None else hit
        states[0].oracle._counter.tick((passed - start) * len(states)
                                       + (0 if hit is None else chosen + 1))
        if hit is None:
            start, width = end, 2 * width
            continue
        yield hit, chosen, gain
        start, width = hit + 1, 1


def _scalar_window(ids, states, start, end, bar):
    """The first (position, state index, gain) in [start, end) that clears
    bar, ids in order and states in order for each; Nones when none does."""
    for i in range(start, end):
        u = ids.item(i)
        for k, state in enumerate(states):
            gain = state._gain(u)
            if gain >= bar:
                return i, k, gain
    return None, None, None


def _batched_window(ids, states, start, end, bar):
    """_scalar_window's answer from one batch of gains per open state."""
    window = ids[start:end]
    hit = chosen = gain = None
    for k, state in enumerate(states):
        gains = state._gains(window)
        clears = gains >= bar
        if clears.any():
            at = int(clears.argmax())  # earlier than any hit so far: the window shrank to it
            hit, chosen, gain = start + at, k, gains.item(at)
            window = window[:at]
            if not at:
                break
    return hit, chosen, gain


class CoverageOracle(SetFunctionOracle):
    """Tag-coverage objective: f(S) is the number of distinct tags on S.

    Monotone, submodular, f(empty) = 0.  Each row of tag_sets is a
    collection of tag ids (repeats are dropped).  Rows that are all integer
    arrays are joined with one concatenate, anything else is read id by id
    by _int_ids.  Inside, a tag is its rank t among the distinct tag ids
    present, ``_tag_ids[t]`` being its id, so every structure is sized by
    the span of distinct tags, however large the ids.  Every (element, tag)
    pair is sorted once as the key element * span + t, and three structures
    are built from that one list:

    - ``_tags[_tag_ptr[x]:_tag_ptr[x + 1]]``, the tags of x in increasing
      order (an int32 CSR);
    - ``_words``, an (n, ceil(span/64)) uint64 matrix with bit t of row x set
      for each tag t of x, against which a state counts batches of gains;
    - ``_holders[_holder_ptr[t]:_holder_ptr[t + 1]]``, the elements carrying
      tag t in increasing order (the same keys sorted tag-major).

    ``_masks`` keeps the rows of ``_words`` as Python ints: a single gain or
    one-element ``_value`` takes ~1 µs on one and 6-9 µs on a word row, and
    a solver round takes thousands.  ``tag_sets`` is rebuilt from the CSR per
    access, with the caller's ids.  Clones share it all.
    """

    monotone = True
    nonnegative = True

    def __init__(self, tag_sets):
        rows = list(tag_sets)
        super().__init__(len(rows))
        sizes = np.fromiter(map(len, rows), dtype=np.int64, count=self.n)
        if rows and all(map(_int64_row, rows)):
            keys = np.concatenate(rows, dtype=np.int64)  # tag ids, for now
        else:  # lists, and rows of bools, floats, uint64 or objects
            keys = _int_ids(list(itertools.chain.from_iterable(rows)), "tag id")
        if keys.size and keys.min() < 0:
            raise InputError(f"negative tag id {keys.min()}")
        self._tag_ids, keys = _ranks(keys)
        span = self._tag_ids.size
        keys += np.repeat(np.arange(self.n, dtype=np.int64) * span, sizes)  # element * span + tag
        keys.sort()
        elems, tags = np.divmod(keys[np.diff(keys, prepend=-1) != 0], max(span, 1))  # drops repeats
        del keys
        self._tag_ptr = _row_pointers(elems, self.n)
        self._tags = tags.astype(np.int32 if span <= 1 << 31 else np.int64)
        self._width = -(-span // 64)
        self._words = words = np.zeros((self.n, self._width), dtype="<u8")
        np.bitwise_or.at(words, (elems, tags >> 6), np.uint64(1) << (tags & 63).astype("<u8"))
        step = 8 * self._width
        raw = memoryview(words.view(np.uint8).reshape(-1))
        self._masks = tuple(int.from_bytes(raw[x * step:(x + 1) * step], "little")
                            for x in range(self.n))
        self._holder_ptr = _row_pointers(tags, span)
        self._holders = (np.sort(tags * self.n + elems) % max(self.n, 1)).astype(np.int32)
        for array in (self._tag_ids, self._tag_ptr, self._tags, self._words, self._holder_ptr,
                      self._holders):
            array.flags.writeable = False  # shared by clones

    @property
    def tag_sets(self):
        """Each element's tag ids as a frozenset, rebuilt from the CSR per access."""
        bounds, tags = self._tag_ptr.tolist(), self._tag_ids[self._tags].tolist()
        return tuple(frozenset(tags[a:b]) for a, b in zip(bounds, bounds[1:]))

    def _value(self, members):
        covered = 0
        for x in members:
            covered |= self._masks[x]
        return float(covered.bit_count())

    def _make_state(self, members):
        return _CoverageState(self, members)

    def _row(self, x):
        """The tags of element x in increasing order (a read-only view)."""
        return self._tags[self._tag_ptr[x]:self._tag_ptr[x + 1]]

    def _holder_counts(self, mask):
        """Per element, how many of the tags set in the int mask it carries."""
        raw = np.frombuffer(mask.to_bytes(8 * self._width, "little"), dtype=np.uint8)
        tags = np.flatnonzero(np.unpackbits(raw, bitorder="little"))
        return np.bincount(self._holders[_row_positions(self._holder_ptr, tags)],
                           minlength=self.n)


def _ranks(ids):
    """The distinct ids (non-negative int64) in increasing order, and the
    rank of each id among them.  A mask of the ids present is cheaper than
    np.unique (0.5 against 6.9 ms on the AC3 tags, 2-vCPU Xeon VM), but it
    is as long as the largest id, so it is taken only up to 4 ids per entry."""
    top = int(ids.max()) + 1 if ids.size else 0
    if top > 4 * ids.size:
        return np.unique(ids, return_inverse=True)
    present = np.zeros(top, dtype=bool)
    present[ids] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[ids]


def _row_pointers(rows, size):
    """CSR pointers (int64, length size + 1) of entries sorted by row id."""
    ptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=size), out=ptr[1:])
    return ptr


def _row_positions(ptr, ids):
    """Positions, in a CSR's entry arrays, of the rows ids, concatenated."""
    starts = ptr[ids]
    lens = ptr[ids + 1] - starts
    at = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    at += np.arange(at.size)
    return at


class _CoverageState(SolutionState):
    """Coverage state: the covered tags as an int bitmask, plus two caches,
    each built on demand for one kind of move and dropped by the other.

    ``_count`` (per-tag member counts, an int32 array) serves removals: the
    first removal gain or removal builds it with one bincount over the
    members' CSR rows, and a removal updates the counts of x's tags.  An
    add drops it.  ``_vec`` (every element's gain, float64) serves batches:
    a batch at least as long as the elements outside the solution (on
    distinct non-member ids, one naming every one of them) builds it, exact
    for the covered mask ``_vec_covered``, and the next batch after adds
    takes one from each holder of a newly covered tag.  A removal drops it.
    States without it (sampled scans) count the candidates' bits against
    the covered words instead.  A copy carries neither cache.
    """

    def __init__(self, oracle, members):
        self._covered = 0
        for x in members:
            self._covered |= oracle._masks[x]
        self._count = None
        self._vec = None
        super().__init__(oracle, members)

    def _counts(self):
        if self._count is None:
            oracle = self.oracle
            at = _row_positions(oracle._tag_ptr, np.array(list(self.members), dtype=np.int64))
            self._count = np.bincount(oracle._tags[at], minlength=64 * oracle._width).astype(np.int32)
        return self._count

    def _gain(self, x):
        return float((self.oracle._masks[x] & ~self._covered).bit_count())

    def _gains(self, cands):
        if self._vec is None:
            outside = self.oracle.n - len(self.members)
            if not outside or len(cands) < outside:
                return self._scan(cands)
            self._vec, self._vec_covered = self._scan(np.arange(self.oracle.n)), self._covered
        elif self._vec_covered != self._covered:  # only adds since, as a removal drops it
            self._vec -= self.oracle._holder_counts(self._covered & ~self._vec_covered)
            self._vec_covered = self._covered
        return self._vec[cands]

    def _scan(self, cands):
        oracle = self.oracle
        covered = np.frombuffer(
            self._covered.to_bytes(8 * oracle._width, "little"), dtype="<u8")
        fresh = oracle._words[cands]
        fresh &= ~covered
        return np.bitwise_count(fresh).sum(axis=1, dtype=np.uint32).astype(float)

    def _removal_gain(self, x):
        return -float(np.count_nonzero(self._counts()[self.oracle._row(x)] == 1))

    def _apply_add(self, x):
        self._count = None
        self._covered |= self.oracle._masks[x]

    def _apply_remove(self, x):
        count = self._counts()
        self._vec = None
        tags = self.oracle._row(x)
        count[tags] -= 1
        gone = np.zeros(64 * self.oracle._width, dtype=bool)
        gone[tags[count[tags] == 0]] = True  # tags x alone carried
        self._covered &= ~int.from_bytes(np.packbits(gone, bitorder="little").tobytes(), "little")

    def _copy_into(self, dup):
        dup._count = dup._vec = None


class GraphCutOracle(SetFunctionOracle):
    """Weighted undirected graph cut: f(S) = total weight crossing (S, V-S).

    Submodular, non-monotone, f(empty) = f(V) = 0.  Duplicate edges have
    their weights summed; self-loops contribute nothing.

    The graph is stored once in compressed sparse row (CSR) form and shared
    by clones: ``adjacency[v]`` is a read-only view of v's neighbour ids in
    increasing order and ``edge_weights[v]`` the matching edge weights;
    ``weighted_degree`` is a read-only float64 array of each vertex's total
    edge weight.  ``restrict`` builds a compact oracle over a subset of the
    vertices.  The total edge weight, doubled, must be finite in float.
    """

    monotone = False
    nonnegative = True

    def __init__(self, n, edges):
        super().__init__(n)
        ends, weights = [], []
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                w = 1.0
            elif len(edge) == 3:
                u, v, w = edge
            else:
                raise InputError(f"an edge is (u, v) or (u, v, weight), got {edge!r}")
            ends.append(u)
            ends.append(v)
            weights.append(w)
        ends = self._check_ids(_int_ids(ends, "edge endpoint"))
        weights = _nonnegative_array(weights, "edge weight")
        ends = ends.reshape(-1, 2)
        keep = ends[:, 0] != ends[:, 1]  # self-loops contribute nothing
        ends, weights = ends[keep], weights[keep]
        # both orientations of every edge, sorted by (row, neighbour); the
        # sort is stable, so duplicate weights are summed in input order
        rows, cols = ends.ravel(), ends[:, ::-1].ravel()
        keys = rows * self.n + cols
        order = np.argsort(keys, kind="stable")
        keys, weights = keys[order], weights.repeat(2)[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        with np.errstate(over="ignore"):
            if starts.size:
                weights = np.add.reduceat(weights, starts)
            # both orientations: the doubled total, which bounds every
            # partial sum of a cut value
            doubled = weights.sum()
        if not np.isfinite(doubled):
            raise InputError("the total edge weight, doubled, must be finite in float")
        rows, cols = np.divmod(keys[starts], self.n)
        self._set_csr(rows, cols, weights, np.bincount(rows, weights=weights, minlength=self.n))

    def _set_csr(self, rows, cols, weights, weighted_degree):
        """Store the (row, neighbour)-sorted entries as CSR arrays, and each
        vertex's weighted degree (float64) beside them."""
        indptr = _row_pointers(rows, self.n)
        for array in (indptr, cols, weights, weighted_degree):
            array.setflags(write=False)
        self._indptr, self._cols, self._weights = indptr, cols, weights
        bounds = indptr.tolist()
        self.adjacency = tuple(cols[a:b] for a, b in zip(bounds, bounds[1:]))
        self.edge_weights = tuple(weights[a:b] for a, b in zip(bounds, bounds[1:]))
        self.weighted_degree = weighted_degree
        self._degrees = weighted_degree.tolist()  # scalar gains index a list faster

    def restrict(self, ground):
        """Cut oracle over the sorted ground, re-indexed from 0.

        It keeps the edges with both ends in ground and every vertex's
        *global* weighted degree, so f of a subset of ground, and every gain
        and removal gain of a state inside ground, is the parent's.  A state
        on it costs O(|ground|) to copy and O(degree inside ground) to add
        to.  Shares the parent's query counter.
        """
        ids = np.array(sorted(self._check_members(ground)), dtype=np.int64)
        local = np.full(self.n, -1, dtype=np.int64)
        local[ids] = np.arange(ids.size)
        at = _row_positions(self._indptr, ids)
        lens = self._indptr[ids + 1] - self._indptr[ids]
        cols = local[self._cols[at]]
        inside = cols >= 0
        view = object.__new__(type(self))  # a subclass view keeps its class
        SetFunctionOracle.__init__(view, ids.size, counter=self._counter)
        view._set_csr(np.repeat(np.arange(ids.size), lens)[inside], cols[inside],
                      self._weights[at][inside], self.weighted_degree[ids])
        return view

    def _value(self, members):
        # one gather over the members' rows, O(volume of members), so peeks
        # of small sets stay cheap on large graphs: the weighted degrees less
        # twice every internal edge, taken once from its lower end (-2 * w
        # is exact), summed exactly rounded, so the value does not depend on
        # the order of the members
        if not members:
            return 0.0
        ids = np.fromiter(members, dtype=np.int64, count=len(members))
        inside = np.zeros(self.n, dtype=bool)
        inside[ids] = True
        at = _row_positions(self._indptr, ids)
        cols = self._cols[at]
        rows = np.repeat(ids, self._indptr[ids + 1] - self._indptr[ids])
        at = at[inside[cols] & (cols > rows)]
        # the weighted degrees are rounded sums, so a cut of ~0 may read a few
        # ulps below it; the true cut is >= 0, so the clamp only moves toward it
        return max(0.0, math.fsum(np.concatenate((self.weighted_degree[ids], -2.0 * self._weights[at])).tolist()))

    def _make_state(self, members):
        return _GraphCutState(self, members)


class _GraphCutState(SolutionState):
    """Cut state with ``_inside[v]``, the edge weight from v into the solution.

    Gains are O(1), a batch of them one array expression; add and remove
    update the neighbours of x in O(deg x).
    """

    def __init__(self, oracle, members):
        super().__init__(oracle, members)
        if not self.members:
            self._inside = np.zeros(oracle.n)
            return
        # one bincount over the members' rows; it adds in entry order, so
        # member by member as an add per member would, and counts in int64
        # when the members have no edges
        ids = np.fromiter(self.members, dtype=np.int64, count=len(self.members))
        at = _row_positions(oracle._indptr, ids)
        self._inside = np.bincount(oracle._cols[at], weights=oracle._weights[at],
                                   minlength=oracle.n).astype(np.float64, copy=False)

    def _gain(self, x):
        return self.oracle._degrees[x] - 2.0 * self._inside.item(x)

    def _gains(self, cands):
        return self.oracle.weighted_degree[cands] - 2.0 * self._inside[cands]

    def _removal_gain(self, x):
        return 2.0 * self._inside.item(x) - self.oracle._degrees[x]

    def _apply_add(self, x):
        self._inside[self.oracle.adjacency[x]] += self.oracle.edge_weights[x]

    def _apply_remove(self, x):
        self._inside[self.oracle.adjacency[x]] -= self.oracle.edge_weights[x]

    def _copy_into(self, dup):
        dup._inside = self._inside.copy()

    def _child(self, x, gain):
        # built field by field: the exact search makes one per branch
        child = object.__new__(type(self))
        child.oracle = oracle = self.oracle
        child.members = self.members | {x}
        child.value = self.value + gain
        child._inside = inside = self._inside.copy()
        inside[oracle.adjacency[x]] += oracle.edge_weights[x]
        return child


class TruncatedOracle(SetFunctionOracle):
    """min(f, tau), monotone and submodular when f is; shares the inner
    oracle's query counter."""

    def __init__(self, inner, tau):
        _check_real("truncation threshold", tau, "[0, inf)")
        super().__init__(inner.n, counter=inner._counter)
        self.inner = inner
        self.tau = float(tau)
        self.monotone = inner.monotone
        self.nonnegative = inner.nonnegative

    def _value(self, members):
        return min(self.inner._value(members), self.tau)

    def _make_state(self, members):
        return _TruncatedState(self, members)

    def clone(self):
        return TruncatedOracle(self.inner.clone(), self.tau)


class _TruncatedState(SolutionState):
    """min(f, tau) over an inner state of the wrapped oracle.

    Gains are min(inner value + inner gain, tau) - value.  ``add``/``remove``
    charge as on any state; the inner move recomputes its own gain
    uncounted, since the truncated gain already paid for that query.
    """

    def __init__(self, oracle, members):
        # the inner state's construction already pays the single query
        self._inner = oracle.inner._make_state(set(members))
        self.oracle = oracle
        self.members = self._inner.members
        self.value = min(self._inner.value, oracle.tau)

    def _gain(self, x):
        return min(self._inner.value + self._inner._gain(x), self.oracle.tau) - self.value

    def _gains(self, cands):
        return np.minimum(self._inner.value + self._inner._gains(cands), self.oracle.tau) - self.value

    def _removal_gain(self, x):
        return min(self._inner.value + self._inner._removal_gain(x), self.oracle.tau) - self.value

    def _apply_add(self, x):
        self._inner.add(x, self._inner._gain(x))

    def _apply_remove(self, x):
        self._inner.remove(x, self._inner._removal_gain(x))

    def _copy_into(self, dup):
        dup._inner = self._inner.copy()
        dup.members = dup._inner.members


@dataclass(frozen=True)
class CoverInstance:
    """A cover instance: reach f >= tau with as few elements as possible."""

    oracle: SetFunctionOracle
    tau: float

    def __post_init__(self):
        _check_real("tau", self.tau, "[0, inf)")

    def feasible(self):
        """Whether f(U) >= tau; only meaningful for monotone objectives."""
        _require_monotone(self.oracle, "CoverInstance.feasible")
        return self.oracle.peek(range(self.oracle.n)) >= self.tau - TOL


def make_synthetic_summarization(m, n, p_head, p_tail, head_size, seed):
    """Random tag-coverage instance with a dense head and a sparse tail.

    Each element carries tag i < head_size independently with probability
    p_head and every later tag with probability p_tail.  Deterministic for a
    fixed seed.
    """
    m, n = _check_int("m", m, "[0, inf)"), _check_int("n", n, "[0, inf)")
    head_size = _check_int("head_size", head_size, f"[0, {m}]")
    seed = _check_seed(seed)
    _check_real("p_head", p_head, "[0, 1]")
    _check_real("p_tail", p_tail, "[0, 1]")
    rng = np.random.default_rng(seed)
    probs = np.full(m, p_tail)
    probs[:head_size] = p_head
    tag_sets = [np.flatnonzero(rng.random(m) < probs) for _ in range(n)]
    return CoverageOracle(tag_sets)


@dataclass(frozen=True)
class TightnessInstance:
    """Set-cover instance on which plain greedy needs ~log(1/eps) * k picks.

    Element ids: the "slice" sets come first (ids 0..), then the k "group"
    sets; greedy's lowest-id tie-break therefore prefers slices, which is
    what makes the construction bite.
    """

    oracle: CoverageOracle
    tau: float
    slice_ids: tuple
    group_ids: tuple
    k: int
    l: int


def make_greedy_tightness_instance(k, l):
    """Build the adversarial cover instance with optimal size exactly k.

    Tags form k groups of l each.  Group set i covers all of group i.  Slice
    set j covers ceil(U_j / k) still-uncovered tags, always taken from the
    groups with the most uncovered tags, so its greedy gain ties the best
    group set at every step.  Non-divisible l is padded up to a multiple of k.
    Taking from the fullest group, lowest index first, visits the groups
    round robin: the t-th tag taken is tag t // k of group t % k.
    """
    k, l = _check_int("k", k, "[2, inf)"), _check_int("l", l, "[1, inf)")
    if l % k:
        l += k - (l % k)
    order = [(t % k) * l + t // k for t in range(k * l)]
    slices, start = [], 0
    while start < k * l:
        take = math.ceil((k * l - start) / k)
        slices.append(order[start:start + take])
        start += take
    groups = [list(range(i * l, (i + 1) * l)) for i in range(k)]
    oracle = CoverageOracle(slices + groups)
    m = len(slices)
    return TightnessInstance(
        oracle=oracle,
        tau=float(k * l),
        slice_ids=tuple(range(m)),
        group_ids=tuple(range(m, m + k)),
        k=k,
        l=l,
    )


@dataclass(frozen=True)
class RegularizedInstance:
    """Monotone objective g minus a modular non-negative cost c, with the
    threshold tau of a cover; a maximizer takes its budget as an argument."""

    oracle: SetFunctionOracle
    costs: np.ndarray
    tau: float = None

    def __post_init__(self):
        costs = _nonnegative_array(self.costs, "cost")
        if costs.shape != (self.oracle.n,):
            raise InputError("cost vector length must match the ground set size")
        object.__setattr__(self, "costs", costs)
        if self.tau is not None:
            _check_real("tau", self.tau, "(-inf, inf)")

    def cost(self, S):
        """c(S), summed in increasing id order; the ids are checked as by a query."""
        return float(sum(self.costs[x] for x in sorted(self.oracle._check_members(S))))
