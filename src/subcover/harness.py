"""Batch experiment runner: grid sweeps over datasets, algorithms and
parameters, with CSV output and plot-ready aggregation."""

from __future__ import annotations

import itertools
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .checks import InputError, _check_alpha, _check_int, _check_real, _check_seed
from .dataio import (
    ResultRow,
    parse_edge_list,
    parse_tag_assignments,
    read_results_csv,
    write_results_csv,
)
from .monotone import (
    convert_cover,
    convert_cover_randomized,
    greedy_cover,
    stochastic_greedy_cover,
    stochastic_max_subroutine,
    threshold_greedy_cover,
)
from .nonmonotone import double_greedy_max, smp_subroutine, stream_cover
from .oracles import CoverInstance, make_greedy_tightness_instance, make_synthetic_summarization

# each --alg name's solver call; every solver is looked up by its module name
# at call time, so patching harness.<solver> reaches the cell
_SOLVERS = {
    "greedy": lambda inst, eps, seed, grid, guess: greedy_cover(inst, eps),
    "thresh": lambda inst, eps, seed, grid, guess: threshold_greedy_cover(inst, eps),
    "stoch": lambda inst, eps, seed, grid, guess: stochastic_greedy_cover(
        inst, eps, grid.delta, grid.alpha, seed, initial_guess=guess),
    "convert": lambda inst, eps, seed, grid, guess: convert_cover(
        stochastic_max_subroutine(eps), inst, grid.alpha, 1.0 - eps,
        seed=seed, initial_budget=guess),
    "convert-rand": lambda inst, eps, seed, grid, guess: convert_cover_randomized(
        stochastic_max_subroutine(eps / 2.0), inst, grid.alpha, grid.delta, eps,
        seed=seed, initial_budget=guess),
    "stream": lambda inst, eps, seed, grid, guess: stream_cover(
        inst, eps, grid.alpha,
        smp_subroutine(grid.subroutine, timeout_ms=grid.sub_timeout_ms), seed=seed),
}
ALGORITHMS = tuple(_SOLVERS)
# initial optimum-size guess of stoch, convert and convert-rand: tau over the largest
# singleton value, or the geometric budget schedule's default 1 + alpha
GUESS_MODES = ("tau-ratio", "geometric")

# each generator's dataset parameters, in the order of its arguments
_SYNTHETIC_DEFAULTS = {
    "m": 4000, "n": 2000, "p_head": 0.4, "p_tail": 0.002, "head": 250, "seed": 0,
}
_TIGHTNESS_DEFAULTS = {"k": 10, "l": 1000}


@dataclass(frozen=True)
class ExperimentGrid:
    """A sweep: every combination of algorithm, eps, tau fraction and seed."""

    dataset: str
    kind: str
    algorithms: tuple
    eps_values: tuple
    tau_fractions: tuple
    alpha: float = 0.1
    delta: float = 0.1
    seeds: tuple = (0,)
    subroutine: str = "ex"
    jobs: int = 1
    ref_seed: int = 0
    guess_mode: str = "tau-ratio"
    sub_timeout_ms: float = 300000.0

    def __post_init__(self):
        # an empty axis, an unknown dataset kind or algorithm, a bad eps, tau
        # fraction, alpha, delta, seed, reference seed, job count, subroutine,
        # timeout or guess mode fails here, not in every cell
        for name in ("algorithms", "eps_values", "tau_fractions", "seeds"):
            if not len(getattr(self, name)):
                raise InputError(f"{name} must not be empty")
        _check_choice("dataset kind", self.kind, KINDS)
        for alg in self.algorithms:
            _check_choice("algorithm", alg, ALGORITHMS)
        for eps in self.eps_values:
            _check_real("eps", eps, "(0, 1)")
        for frac in self.tau_fractions:
            _check_real("tau fraction", frac, "[0, inf)")
        _check_alpha(self.alpha, 1)  # the guess-count limit depends on each cell's n
        _check_real("delta", self.delta, "(0, 1)")
        object.__setattr__(self, "seeds", tuple(map(_check_seed, self.seeds)))
        object.__setattr__(self, "ref_seed", _check_seed(self.ref_seed))
        object.__setattr__(self, "jobs", _check_int("jobs", self.jobs, "[1, inf)"))
        smp_subroutine(self.subroutine, timeout_ms=self.sub_timeout_ms)
        _check_choice("guess mode", self.guess_mode, GUESS_MODES)

    def cells(self):
        axes = (self.algorithms, self.eps_values, self.tau_fractions, self.seeds)
        for run_id, cell in enumerate(itertools.product(*axes)):
            yield (run_id, *cell)


def _parse_params(text, defaults):
    given = {}
    if text:
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise InputError(f"expected key=value in dataset string, got {chunk!r}")
            key, value = chunk.split("=", 1)
            key = key.strip()
            if key not in defaults:
                raise InputError(f"unknown dataset parameter {key!r}")
            if key in given:
                raise InputError(f"dataset parameter {key} given twice")
            given[key] = _parse_number(key, value, isinstance(defaults[key], int))
    return {**defaults, **given}


def _parse_number(key, value, integer):
    """A dataset parameter's value: a float, or for an integer parameter an
    integer literal read exactly, however many digits it has.  The
    generator checks it, so "60.0" is 60 and 60.7, nan and inf raise."""
    if integer:
        try:
            return int(value)
        except ValueError:
            pass  # not an integer literal, maybe a whole float
    try:
        return float(value)
    except ValueError:
        raise InputError(f"dataset parameter {key} must be a number, "
                         f"got {value.strip()!r}") from None


# each --kind name's loader; the loaders too are looked up at call time
_LOADERS = {
    "tags": lambda dataset: parse_tag_assignments(dataset),
    "edges": lambda dataset: parse_edge_list(dataset),
    "synthetic": lambda dataset: make_synthetic_summarization(
        *_parse_params(dataset, _SYNTHETIC_DEFAULTS).values()),
    "tightness": lambda dataset: make_greedy_tightness_instance(
        *_parse_params(dataset, _TIGHTNESS_DEFAULTS).values()).oracle,
}
KINDS = tuple(_LOADERS)


def _check_choice(what, value, choices):
    if value not in choices:
        raise InputError(f"unknown {what} {value!r}; choose from {', '.join(choices)}")


def load_dataset(kind, dataset):
    """Materialize the base oracle for a grid's dataset reference."""
    _check_choice("dataset kind", kind, KINDS)
    return _LOADERS[kind](dataset)


@dataclass
class _Context:
    base: object
    tau_basis: float
    label: str
    max_single: float


def _build_context(grid):
    base = load_dataset(grid.kind, grid.dataset)
    if grid.kind == "edges":
        # non-monotone: f(U) = 0, so the threshold scale comes from an
        # unconstrained maximization reference (seed recorded in the label)
        reference = double_greedy_max(base.clone(), seed=grid.ref_seed)
        basis = base.peek(reference)
        label = f"{grid.dataset}@dgref{grid.ref_seed}"
    else:
        basis = base.peek(range(base.n))
        label = grid.dataset
    # one batch; it charges the base's counter, which no run reads (cells run on clones)
    max_single = float(base.state(()).gains(np.arange(base.n)).max(initial=0.0))
    return _Context(base=base, tau_basis=basis, label=label, max_single=max_single)


def run_cell(context, grid, cell, stable_output=False):
    run_id, alg, eps, frac, seed = cell
    oracle = context.base.clone()
    tau = frac * context.tau_basis
    instance = CoverInstance(oracle, tau)
    guess = None
    if grid.guess_mode == "tau-ratio" and context.max_single > 0 and tau > 0:
        guess = tau / context.max_single
    status = "Error"
    f_value, size, queries, wall_ms = 0.0, 0, 0, 0.0
    try:
        res = _SOLVERS[alg](instance, eps, seed, grid, guess)
        status = str(res.status)
        f_value, size, queries = res.f_value, res.size, res.queries
        wall_ms = 0.0 if stable_output else res.wall_ms
    except Exception as exc:  # crash isolation: one cell never kills the sweep
        status = f"Error:{type(exc).__name__}"
    return ResultRow(
        run_id=run_id, dataset=context.label, algorithm=alg, eps=eps, tau=tau,
        alpha=grid.alpha, delta=grid.delta, seed=seed, f_value=f_value,
        size=size, queries=queries, wall_ms=wall_ms, status=status,
    )


_WORKER_STATE = {}


def _pool_worker(payload):
    grid, cell, stable_output = payload
    key = (grid.kind, grid.dataset, grid.ref_seed)
    if key not in _WORKER_STATE:
        _WORKER_STATE[key] = _build_context(grid)
    return run_cell(_WORKER_STATE[key], grid, cell, stable_output=stable_output)


def run_experiment(grid, out_path, stable_output=False):
    """Execute every grid cell (fresh oracle clone each) and write the CSV.

    Returns the rows.  Timeouts surface as ordinary status rows; unexpected
    exceptions become `Error:*` rows without aborting the sweep.
    """
    cells = list(grid.cells())
    if grid.jobs > 1:
        payloads = [(grid, cell, stable_output) for cell in cells]
        # a fork-started pool forks all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(grid.jobs, len(cells))) as pool:
            rows = list(pool.map(_pool_worker, payloads))
    else:
        context = _build_context(grid)
        rows = [run_cell(context, grid, cell, stable_output=stable_output) for cell in cells]
    write_results_csv(rows, out_path)
    return rows


def emit_plot_data(csv_path, x_axis, metric, out_path):
    """Aggregate a results CSV into `algorithm x mean stddev n` TSV lines."""
    if x_axis not in ("eps", "tau"):
        raise InputError(f"x axis must be 'eps' or 'tau', got {x_axis!r}")
    if metric not in ("f_value", "size", "queries"):
        raise InputError(f"metric must be f_value/size/queries, got {metric!r}")
    rows = read_results_csv(csv_path)
    groups = {}
    for row in rows:
        if row.status.startswith("Error"):
            continue
        key = (row.algorithm, getattr(row, x_axis))
        groups.setdefault(key, []).append(float(getattr(row, metric)))
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(f"# algorithm\t{x_axis}\tmean\tstddev\tn\n")
        if not groups:
            handle.write("# WARNING: empty selection\n")
            return
        for (alg, x), values in sorted(groups.items()):
            handle.write(f"{alg}\t{x:.6g}\t{statistics.fmean(values):.6g}\t"
                         f"{statistics.pstdev(values):.6g}\t{len(values)}\n")
