"""The input rules that more than one module applies; each raises InputError
before the first counted query."""

from __future__ import annotations

import math
import numbers
import operator
import reprlib

import numpy as np


class InputError(ValueError):
    """An argument violates an operation's precondition."""


def _check_real(name, value, interval):
    """value, unchanged, when it is a real number (not a bool) in interval,
    written as text such as "(0, 1)", "(0, 1]", "[0, inf)" or "[0, inf]";
    else InputError naming that interval.  NaN, and an int beyond float
    range, lie in none."""
    try:
        x = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:
        x = math.nan
    if not _inside(x, interval):
        raise InputError(f"{name} must lie in {interval}, got {_shown(value)}")
    return value


def _check_int(name, value, interval):
    """value as an int when it is an integer or a whole float (not a bool),
    as _int_ids reads one, in the int64 range and in interval, written as
    for _check_real; else InputError naming that interval."""
    try:
        x = None if isinstance(value, bool) else _whole(value)
    except TypeError:
        x = None
    if x is not None and not -2**63 <= x < 2**63:
        raise InputError(f"{name} must be an integer in the int64 range, got {_shown(value)}")
    if x is None or not _inside(x, interval):
        raise InputError(f"{name} must be an integer in {interval}, got {_shown(value)}")
    return x


def _check_seed(seed):
    """A random seed as an int: an integer, or a whole float, in [0, 2**63);
    not a bool."""
    return _check_int("seed", seed, "[0, inf)")


def _inside(x, interval):
    low, high = interval[1:-1].split(", ")
    above = x > float(low) or (interval[0] == "[" and x == float(low))
    below = x < float(high) or (interval[-1] == "]" and x == float(high))
    return above and below


def _shown(value):
    try:
        return reprlib.repr(value)  # long ints and strings shortened
    except ValueError:  # an int past the digit limit of int to str
        return f"an int of {value.bit_length()} bits"


def _whole(v):
    return int(v) if isinstance(v, (float, np.floating)) and float(v).is_integer() else operator.index(v)


def _int_ids(values, what):
    """The ids in the list values as int64.  Each must be an integer, or a
    whole float, in the int64 range, and not a bool: 1.5, nan, inf, 2**70,
    "3" or True raise."""
    if not _holds_bool(values):
        for to_int in (operator.index, _whole):  # the first pass refuses all floats
            try:
                return np.fromiter(map(to_int, values), dtype=np.int64, count=len(values))
            except (TypeError, OverflowError):
                pass
    raise InputError(f"every {what} must be an integer in the int64 range")


def _int64_row(row):
    """Whether row is a one-dimensional integer array that int64 holds
    exactly (not bool, not uint64)."""
    return (isinstance(row, np.ndarray) and row.ndim == 1 and row.dtype.kind in "iu"
            and np.can_cast(row.dtype, np.int64))


_BOOLS = frozenset((bool, np.bool_))


def _holds_bool(values):
    """Whether the sequence values holds a bool (Python's or numpy's); one
    scan of the entry types at C speed (3.3 ms on 177k entries, 2-vCPU
    Xeon VM)."""
    return not _BOOLS.isdisjoint(map(type, values))


def _nonnegative_array(values, what):
    """values as a float64 array.  numpy must read them as integers or
    floats, and a sequence must hold no bool (numpy reads [True, 2] as
    integers), so a str, bool or object entry raises InputError, as does the
    first entry outside [0, inf)."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise InputError(f"each {what} must be a real number, got dtype {array.dtype}")
    if array is not values and _holds_bool(values):
        raise InputError(f"each {what} must be a real number, got a bool")
    array = array.astype(float, copy=False)
    bad = np.flatnonzero(~(np.isfinite(array) & (array >= 0)))
    if bad.size:
        _check_real(what, array.item(bad[0]), "[0, inf)")
    return array


# the most guesses a geometric schedule may take to grow from 1 to n
MAX_GUESSES = 10**8


def _check_alpha(alpha, n, initial=None, name="initial_guess"):
    """A guess grows by the factor 1 + alpha, which must be above 1 in float,
    and reach n within MAX_GUESSES guesses.  The first guess initial, the
    parameter called name, is None or a real number."""
    if not 1.0 + _check_real("alpha", alpha, "(-inf, inf)") > 1.0:
        raise InputError(f"alpha must have 1 + alpha > 1 in float, got {alpha!r}")
    length = math.log(n) / math.log1p(alpha) if n > 1 else 0.0
    if length > MAX_GUESSES:
        raise InputError(f"alpha = {alpha} takes about {length:.3g} guesses to reach n = {n}, "
                         f"above the limit of {MAX_GUESSES:.0e}")
    if initial is not None:
        _check_real(name, initial, "(-inf, inf)")


def _check_budget(kappa):
    """A maximizer's real budget."""
    return _check_real("budget", kappa, "[0, inf)")


def _size_limit(kappa):
    """A checked budget rounded up to a set size, less 1e-12 of float slack."""
    return math.ceil(_check_budget(kappa) - 1e-12)


def _require_monotone(oracle, what="this solver"):
    if not oracle.monotone:
        raise InputError(f"{what} requires a monotone oracle")
