"""Module layout: one home for each shared input rule, and every name the
benchmark reads from the package still importable."""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import pytest

from subcover import checks, harness, monotone, nonmonotone, oracles, regularized

# the input rules that more than one module applies
SHARED_RULES = (
    "InputError", "_check_real", "_check_int", "_check_seed", "_int_ids", "_int64_row",
    "_holds_bool", "_BOOLS", "_whole", "_inside", "_shown", "_nonnegative_array",
    "_check_alpha", "MAX_GUESSES", "_check_budget", "_size_limit", "_require_monotone",
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_shared_rules_are_defined_in_checks():
    for name in SHARED_RULES:
        rule = getattr(checks, name)
        if callable(rule):
            assert rule.__module__ == "subcover.checks", name


@pytest.mark.parametrize("module", [oracles, monotone, nonmonotone, regularized, harness],
                         ids=lambda module: module.__name__)
def test_modules_take_shared_rules_from_checks(module):
    for name in SHARED_RULES:
        if hasattr(module, name):
            assert getattr(module, name) is getattr(checks, name), f"{module.__name__}.{name}"


def _imported(module, name):
    """What `from module import name` binds, importing a submodule if need be;
    None when it does not resolve."""
    parent = importlib.import_module(module)
    if hasattr(parent, name):
        return getattr(parent, name)
    if hasattr(parent, "__path__") and importlib.util.find_spec(f"{module}.{name}"):
        return importlib.import_module(f"{module}.{name}")
    return None


def _benchmark_reads():
    """(file, module, name) for every `from subcover[.X] import name` in
    perfbench/*.py, and (file, subcover.X, attr) for every `X.attr` read on
    a module X so imported."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and not node.level
                    and node.module.split(".")[0] == "subcover"):
                for alias in node.names:
                    yield path.name, node.module, alias.name
                    if isinstance(_imported(node.module, alias.name), types.ModuleType):
                        modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                yield path.name, modules[node.value.id], node.attr


def test_benchmark_imports_resolve():
    reads = set(_benchmark_reads())
    # the scan sees the benchmark's imports at all
    assert ("workloads.py", "subcover.oracles", "make_synthetic_summarization") in reads
    assert ("tracing.py", "subcover.oracles", "SolutionState") in reads
    missing = sorted(read for read in reads if _imported(read[1], read[2]) is None)
    assert not missing
