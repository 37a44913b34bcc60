"""Command-line entry point: `subcover run` sweeps, `subcover plot` aggregates."""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields

from .harness import ALGORITHMS, GUESS_MODES, KINDS, ExperimentGrid, emit_plot_data, run_experiment
from .nonmonotone import _APPROX_RATIOS

_METRICS = {"f": "f_value", "size": "size", "queries": "queries"}


def _floats(text):
    return tuple(float(x) for x in text.split(",") if x.strip())


def _ints(text):
    return tuple(int(x) for x in text.split(",") if x.strip())


def _names(text):
    return tuple(x.strip() for x in text.split(",") if x.strip())


def build_parser():
    parser = argparse.ArgumentParser(
        prog="subcover",
        description="Submodular cover experiment harness.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_p = commands.add_parser("run", help="execute a sweep and write a results CSV")
    run_p.add_argument("--dataset", required=True,
                       help="file path (tags/edges) or key=value string (synthetic/tightness)")
    run_p.add_argument("--kind", required=True, choices=KINDS)
    run_p.add_argument("--alg", dest="algorithms", required=True, type=_names,
                       help=f"comma list from: {', '.join(ALGORITHMS)}")
    run_p.add_argument("--eps", dest="eps_values", required=True, type=_floats,
                       help="comma list of eps values")
    run_p.add_argument("--tau-frac", dest="tau_fractions", required=True, type=_floats,
                       help="comma list of threshold fractions of the reference value")
    run_p.add_argument("--alpha", type=float)
    run_p.add_argument("--delta", type=float)
    run_p.add_argument("--seeds", type=_ints, help="comma list of seeds")
    run_p.add_argument("--sub", dest="subroutine", choices=tuple(_APPROX_RATIOS),
                       help="maximization subroutine for the stream algorithm")
    run_p.add_argument("--jobs", type=int)
    run_p.add_argument("--out", required=True)
    run_p.add_argument("--ref-seed", type=int,
                       help="seed of the double-greedy threshold reference on graphs")
    run_p.add_argument("--guess", dest="guess_mode", choices=GUESS_MODES,
                       help="initial optimum-size guess for stoch/convert/convert-rand")
    run_p.add_argument("--sub-timeout-ms", type=float,
                       help="time limit of each ex/fex subroutine call; dg and rg ignore it")
    run_p.add_argument("--stable-output", action="store_true",
                       help="zero the wall_ms column so reruns are byte-identical")
    # every optional grid field's default is the dataclass's own
    run_p.set_defaults(**{f.name: f.default for f in fields(ExperimentGrid) if f.default is not MISSING})

    plot_p = commands.add_parser("plot", help="aggregate a results CSV into TSV plot data")
    plot_p.add_argument("--in", dest="csv_in", required=True)
    plot_p.add_argument("--x", choices=("eps", "tau"), required=True)
    plot_p.add_argument("--metric", choices=tuple(_METRICS), required=True)
    plot_p.add_argument("--out", required=True)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            # every run flag but --out and --stable-output is a grid field of the same name
            grid = ExperimentGrid(**{f.name: getattr(args, f.name) for f in fields(ExperimentGrid)})
            rows = run_experiment(grid, args.out, stable_output=args.stable_output)
            errors = sum(1 for row in rows if row.status.startswith("Error"))
            print(f"wrote {len(rows)} rows to {args.out}" + (f" ({errors} errored)" if errors else ""))
            return 1 if errors else 0
        emit_plot_data(args.csv_in, args.x, _METRICS[args.metric], args.out)
        print(f"wrote plot data to {args.out}")
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
