"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces the public entry points of each layer with
wrappers and ``uninstall()`` puts the originals back.  A module-level
function is replaced in every ``subcover`` module that holds it, so calls
that go through a module attribute (the benchmark's own, ``stream_cover``'s
subroutines, ``distorted_cover``'s maximizer, the harness's solvers) are
seen.  Layer calls become spans (name, parent, start, end, queries).  Oracle
method calls number in the millions, so they are kept as
(parent span, method) -> [calls, seconds]; an oracle call made inside
another oracle call (a truncated state delegating to its inner state) is
part of the outer one.  Everything stays in memory until ``layer_metrics``.
"""

from __future__ import annotations

import sys
import time

from subcover import cli, dataio, harness, monotone, nonmonotone, oracles, regularized

ORACLE_METHODS = {
    oracles.SolutionState: ("gain", "removal_gain", "add", "remove", "copy"),
    oracles.SetFunctionOracle: ("eval", "state"),
}
MONOTONE_SOLVERS = ("greedy_cover", "threshold_greedy_cover", "stochastic_greedy_cover",
                    "convert_cover", "convert_cover_randomized")
SUBROUTINES = ("exact_max_search", "fast_exact_max_search", "double_greedy_max",
               "random_greedy_max")
STREAM_SUBS = {"fast-exact": "fex", "double-greedy": "dg", "random-greedy": "rg"}
SPANNED = (  # (module, function, span name) of each wrapped layer entry point
    [(monotone, name, f"monotone.{name}") for name in MONOTONE_SOLVERS]
    + [(regularized, name, f"regularized.{name}")
       for name in ("distorted_cover", "distorted_greedy_max")]
    + [(nonmonotone, name, f"nonmonotone.{name}") for name in SUBROUTINES]
    + [(cli, "main", "cli.main"), (harness, "load_dataset", "harness.load_dataset"),
       (dataio, "parse_tag_assignments", "dataio.parse_tag_assignments"),
       (dataio, "write_results_csv", "dataio.write_results_csv")]
)
ORACLE_METHOD_NAMES = tuple(m for methods in ORACLE_METHODS.values() for m in methods)
# the span metrics reported, by span name; self_ms excludes child spans and
# the oracle calls made directly in the span
REPORTED = {
    **{f"monotone.{name}": ("ms", "queries", "self_ms") for name in MONOTONE_SOLVERS},
    "monotone.max_subroutine": ("calls", "ms"),
    "regularized.distorted_cover": ("ms", "queries", "self_ms"),
    "regularized.distorted_greedy_max": ("calls", "ms"),
    **{f"nonmonotone.stream_cover.{sub}": ("ms", "queries") for sub in STREAM_SUBS.values()},
    **{f"nonmonotone.{name}": ("calls", "ms", "queries") for name in SUBROUTINES},
    "nonmonotone.exact_max_search": ("calls", "ms", "queries", "self_ms"),
    **{name: ("ms",) for name in ("cli.main", "harness.load_dataset",
                                  "dataio.parse_tag_assignments", "dataio.write_results_csv")},
}


def _query_count(args):
    """Query counter of the first oracle or instance argument, or None."""
    for arg in args:
        count = getattr(getattr(arg, "oracle", arg), "query_count", None)
        if count is not None:
            return count
    return None


def _stream_span_name(args, kwargs):
    sub = args[3] if len(args) > 3 else kwargs["sub"]
    return f"nonmonotone.stream_cover.{STREAM_SUBS.get(sub.kind, sub.kind)}"


class Tracer:
    """Spans and oracle-call tallies of the layer calls made while installed."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, queries]
        self.stack = [-1]
        self.oracle_calls = {}  # (span index, method) -> [calls, seconds]
        self._in_oracle = False
        self._undo = []

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, fn, name, name_of=None):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            q0 = _query_count(args)
            span = [name if name_of is None else name_of(args, kwargs),
                    self.stack[-1], time.perf_counter(), None, 0]
            self.spans.append(span)
            self.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
                if q0 is not None:
                    span[4] = _query_count(args) - q0

        return wrapper

    def _oracle_wrapper(self, fn, method):
        calls = self.oracle_calls

        def wrapper(*args, **kwargs):
            if self._in_oracle:
                return fn(*args, **kwargs)
            self._in_oracle = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._in_oracle = False
                slot = calls.get((self.stack[-1], method))
                if slot is None:
                    calls[(self.stack[-1], method)] = [1, elapsed]
                else:
                    slot[0] += 1
                    slot[1] += elapsed

        return wrapper

    def _factory_wrapper(self, factory, name):
        """Wrap the callables a factory returns (the conversions' maximizer)."""

        def wrapper(*args, **kwargs):
            return self._span_wrapper(factory(*args, **kwargs), name)

        return wrapper

    # -- patching ---------------------------------------------------------
    def _replace_everywhere(self, original, replacement):
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] != "subcover":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self):
        for module, attr, name in SPANNED:
            fn = getattr(module, attr)
            self._replace_everywhere(fn, self._span_wrapper(fn, name))
        stream = nonmonotone.stream_cover
        self._replace_everywhere(
            stream, self._span_wrapper(stream, None, name_of=_stream_span_name))
        factory = monotone.stochastic_max_subroutine
        self._replace_everywhere(factory, self._factory_wrapper(factory, "monotone.max_subroutine"))
        for base, methods in ORACLE_METHODS.items():
            for cls in (base, *_subclasses(base)):
                for method in methods:
                    if method in vars(cls):
                        fn = vars(cls)[method]
                        setattr(cls, method, self._oracle_wrapper(fn, method))
                        self._undo.append((cls, method, fn))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------
    def layer_metrics(self, rounds):
        """Per-round per-layer totals, keyed like BENCHMARK.json's per_layer."""
        child_ms = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1000.0
        oracle_ms = [0.0] * len(self.spans)
        by_method = {}
        for (index, method), (count, seconds) in self.oracle_calls.items():
            if index >= 0:
                oracle_ms[index] += seconds * 1000.0
            slot = by_method.setdefault(method, [0, 0.0])
            slot[0] += count
            slot[1] += seconds

        out = {f"oracles.{method}.calls": by_method.get(method, (0, 0.0))[0]
               for method in ORACLE_METHOD_NAMES}
        for name, suffixes in REPORTED.items():
            out.update((f"{name}.{suffix}", 0.0) for suffix in suffixes)
        out["nonmonotone.stream_cover.pass_ms"] = 0.0
        for index, (name, parent, start, end, queries) in enumerate(self.spans):
            if name not in REPORTED:
                continue
            ms = (end - start) * 1000.0
            values = {"calls": 1, "ms": ms, "queries": queries,
                      "self_ms": ms - child_ms[index] - oracle_ms[index]}
            for suffix in REPORTED[name]:
                out[f"{name}.{suffix}"] += values[suffix]
            if name.startswith("nonmonotone.stream_cover."):
                out["nonmonotone.stream_cover.pass_ms"] += ms - child_ms[index]
        out = {key: value / rounds for key, value in out.items()}
        for method in ORACLE_METHOD_NAMES:  # mean time of one call
            count, seconds = by_method.get(method, (0, 0.0))
            out[f"oracles.{method}.us"] = seconds * 1e6 / count if count else 0.0
        return out


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
