"""Batch experiment runner: grid sweeps over datasets, algorithms and
parameters, with CSV output and plot-ready aggregation."""

from __future__ import annotations

import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

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
from .oracles import (
    CoverInstance,
    InputError,
    _int_ids,
    make_greedy_tightness_instance,
    make_synthetic_summarization,
)

ALGORITHMS = ("greedy", "thresh", "stoch", "convert", "convert-rand", "stream")
# initial optimum-size guess of stoch and convert: tau over the largest
# singleton value, or the geometric budget schedule's default 1 + alpha
GUESS_MODES = ("tau-ratio", "geometric")

_SYNTHETIC_DEFAULTS = {
    "m": 4000, "n": 2000, "head": 250, "p_head": 0.4, "p_tail": 0.002, "seed": 0,
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
    repetitions: int = 1
    jobs: int = 1
    ref_seed: int = 0
    guess_mode: str = "tau-ratio"
    sub_timeout_ms: float = 300000.0

    def __post_init__(self):
        # a bad count, subroutine, timeout or guess mode fails here, not in every cell
        for name, count in (("repetitions", self.repetitions), ("jobs", self.jobs)):
            if count < 1:
                raise InputError(f"{name} must be at least 1, got {count}")
        smp_subroutine(self.subroutine, timeout_ms=self.sub_timeout_ms)
        if self.guess_mode not in GUESS_MODES:
            raise InputError(f"unknown guess mode {self.guess_mode!r}; "
                             f"choose from {', '.join(GUESS_MODES)}")

    def cells(self):
        run_id = 0
        for alg in self.algorithms:
            for eps in self.eps_values:
                for frac in self.tau_fractions:
                    for seed in self.seeds:
                        for rep in range(self.repetitions):
                            yield (run_id, alg, eps, frac, seed, rep)
                            run_id += 1

    def total_runs(self):
        return (len(self.algorithms) * len(self.eps_values) * len(self.tau_fractions)
                * len(self.seeds) * self.repetitions)


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


def _parse_number(key, value, integral):
    """A dataset parameter's value: a float, or for an integer parameter an
    int in the int64 range.  An integer literal is read exactly, however
    many digits it has; "60.0" is 60; 60.7, nan and inf raise."""
    if integral:
        try:
            exact = int(value)
        except ValueError:
            pass  # not an integer literal, maybe an integral float
        else:
            return int(_int_ids([exact], f"{key} value")[0])
    try:
        number = float(value)
    except ValueError:
        raise InputError(f"dataset parameter {key} must be a number, "
                         f"got {value.strip()!r}") from None
    return int(_int_ids([number], f"{key} value")[0]) if integral else number


def load_dataset(kind, dataset):
    """Materialize the base oracle for a grid's dataset reference."""
    if kind == "tags":
        return parse_tag_assignments(dataset)
    if kind == "edges":
        return parse_edge_list(dataset)
    if kind == "synthetic":
        p = _parse_params(dataset, _SYNTHETIC_DEFAULTS)
        return make_synthetic_summarization(
            p["m"], p["n"], p["p_head"], p["p_tail"], p["head"], p["seed"]
        )
    if kind == "tightness":
        p = _parse_params(dataset, _TIGHTNESS_DEFAULTS)
        return make_greedy_tightness_instance(p["k"], p["l"]).oracle
    raise InputError(f"unknown dataset kind {kind!r}")


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
    max_single = max((base.peek((u,)) for u in range(base.n)), default=0.0)
    return _Context(base=base, tau_basis=basis, label=label, max_single=max_single)


def run_cell(context, grid, cell, stable_output=False):
    run_id, alg, eps, frac, seed, rep = cell
    oracle = context.base.clone()
    tau = frac * context.tau_basis
    run_seed = int(seed) + 1_000_003 * rep
    instance = CoverInstance(oracle, tau)
    guess = None
    if grid.guess_mode == "tau-ratio" and context.max_single > 0 and tau > 0:
        guess = tau / context.max_single
    status = "Error"
    f_value, size, queries, wall_ms = 0.0, 0, 0, 0.0
    try:
        if alg == "greedy":
            res = greedy_cover(instance, eps)
        elif alg == "thresh":
            res = threshold_greedy_cover(instance, eps)
        elif alg == "stoch":
            res = stochastic_greedy_cover(
                instance, eps, grid.delta, grid.alpha, run_seed, initial_guess=guess
            )
        elif alg == "convert":
            res = convert_cover(
                stochastic_max_subroutine(eps), instance, grid.alpha, 1.0 - eps,
                seed=run_seed, initial_budget=guess,
            )
        elif alg == "convert-rand":
            res = convert_cover_randomized(
                stochastic_max_subroutine(eps / 2.0), instance, grid.alpha,
                grid.delta, eps, seed=run_seed, initial_budget=guess,
            )
        elif alg == "stream":
            res = stream_cover(
                instance, eps, grid.alpha,
                smp_subroutine(grid.subroutine, timeout_ms=grid.sub_timeout_ms),
                seed=run_seed,
            )
        else:
            raise InputError(f"unknown algorithm {alg!r}")
        status = str(res.status)
        f_value, size, queries = res.f_value, res.size, res.queries
        wall_ms = 0.0 if stable_output else res.wall_ms
    except Exception as exc:  # crash isolation: one cell never kills the sweep
        status = f"Error:{type(exc).__name__}"
    return ResultRow(
        run_id=run_id, dataset=context.label, algorithm=alg, eps=eps, tau=tau,
        alpha=grid.alpha, delta=grid.delta, seed=int(seed), f_value=f_value,
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
        with ProcessPoolExecutor(max_workers=grid.jobs) as pool:
            rows = list(pool.map(_pool_worker, payloads))
    else:
        context = _build_context(grid)
        rows = [run_cell(context, grid, cell, stable_output=stable_output) for cell in cells]
    rows.sort(key=lambda r: r.run_id)
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
