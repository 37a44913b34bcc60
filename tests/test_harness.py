"""Experiment grid execution, CSV determinism, plot aggregation, CLI wiring."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

from subcover import (
    CSV_COLUMNS,
    CoverInstance,
    ExperimentGrid,
    InputError,
    ResultRow,
    convert_cover,
    double_greedy_max,
    emit_plot_data,
    load_dataset,
    parse_edge_list,
    parse_tag_assignments,
    read_results_csv,
    run_experiment,
    stochastic_greedy_cover,
    stochastic_max_subroutine,
    write_results_csv,
)
from subcover.cli import build_parser, main
from subcover.harness import ALGORITHMS


def write_tag_file(tmp_path, rng, n=20, m=18):
    lines = []
    for elem in range(n):
        count = int(rng.integers(0, 4))
        tags = sorted(int(t) for t in rng.choice(m, size=count, replace=False))
        lines.append(" ".join(str(x) for x in [elem] + tags))
    path = tmp_path / "tags.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_edge_file(tmp_path, rng, n=14, p=0.4):
    lines = ["# test graph"]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                lines.append(f"{u} {v}")
    path = tmp_path / "edges.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def small_grid(dataset, kind="tags", algorithms=("greedy",), seeds=(0,), **kw):
    return ExperimentGrid(
        dataset=dataset,
        kind=kind,
        algorithms=algorithms,
        eps_values=(0.2,),
        tau_fractions=(0.6,),
        seeds=seeds,
        **kw,
    )


class TestRunExperiment:
    def test_one_cell_one_row(self, tmp_path):
        rng = np.random.default_rng(71)
        dataset = write_tag_file(tmp_path, rng)
        out = tmp_path / "out.csv"
        rows = run_experiment(small_grid(dataset), str(out))
        assert len(rows) == 1
        back = read_results_csv(str(out))
        assert len(back) == 1
        # wall_ms goes through 6-significant-digit formatting; rest is exact
        assert (back[0].f_value, back[0].size, back[0].queries, back[0].status) == (
            rows[0].f_value, rows[0].size, rows[0].queries, rows[0].status
        )

    def test_total_runs_is_grid_product(self, tmp_path):
        rng = np.random.default_rng(72)
        dataset = write_tag_file(tmp_path, rng)
        grid = ExperimentGrid(
            dataset=dataset, kind="tags",
            algorithms=("greedy", "stoch"), eps_values=(0.1, 0.2),
            tau_fractions=(0.5,), seeds=(0, 1, 2, 3, 4, 5),
        )
        rows = run_experiment(grid, str(tmp_path / "out.csv"))
        assert len(rows) == len(list(grid.cells())) == 2 * 2 * 1 * 6

    def test_byte_identical_reruns(self, tmp_path):
        rng = np.random.default_rng(73)
        dataset = write_tag_file(tmp_path, rng)
        grid = small_grid(dataset, algorithms=("greedy", "stoch", "convert"), seeds=(0, 1))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(grid, str(a), stable_output=True)
        run_experiment(grid, str(b), stable_output=True)
        assert a.read_bytes() == b.read_bytes()

    def test_same_seed_same_measurements(self, tmp_path):
        rng = np.random.default_rng(74)
        dataset = write_tag_file(tmp_path, rng)
        grid = small_grid(dataset, algorithms=("stoch",), seeds=(5,))
        first = run_experiment(grid, str(tmp_path / "a.csv"))[0]
        second = run_experiment(grid, str(tmp_path / "b.csv"))[0]
        assert (first.f_value, first.size, first.queries) == (
            second.f_value, second.size, second.queries
        )

    def test_stream_on_edges(self, tmp_path):
        rng = np.random.default_rng(75)
        dataset = write_edge_file(tmp_path, rng)
        grid = ExperimentGrid(
            dataset=dataset, kind="edges", algorithms=("stream",),
            eps_values=(0.5,), tau_fractions=(0.7,), seeds=(0,), subroutine="ex",
        )
        rows = run_experiment(grid, str(tmp_path / "out.csv"))
        assert rows[0].status == "Solved"
        assert "@dgref0" in rows[0].dataset

    def test_ref_seed_sets_the_edge_threshold(self, tmp_path):
        dataset = write_edge_file(tmp_path, np.random.default_rng(75))
        grid = ExperimentGrid(
            dataset=dataset, kind="edges", algorithms=("stream",),
            eps_values=(0.5,), tau_fractions=(0.7,), ref_seed=1,
        )
        (row,) = run_experiment(grid, str(tmp_path / "out.csv"))
        base = parse_edge_list(dataset)
        assert row.dataset == f"{dataset}@dgref1"
        assert row.tau == 0.7 * base.peek(double_greedy_max(base.clone(), seed=1))

    def test_geometric_guess_rows_match_direct_calls(self, tmp_path):
        dataset = write_tag_file(tmp_path, np.random.default_rng(78), n=60, m=40)
        grid = small_grid(dataset, algorithms=("stoch", "convert"), seeds=(0, 1),
                          guess_mode="geometric")
        rows = run_experiment(grid, str(tmp_path / "out.csv"))
        base = parse_tag_assignments(dataset)
        for row in rows:
            instance = CoverInstance(base.clone(), row.tau)
            if row.algorithm == "stoch":
                res = stochastic_greedy_cover(instance, 0.2, grid.delta, grid.alpha, row.seed)
            else:
                res = convert_cover(stochastic_max_subroutine(0.2), instance, grid.alpha, 0.8,
                                    seed=row.seed)
            assert (row.queries, row.size, row.f_value) == (res.queries, res.size, res.f_value)

    @pytest.mark.parametrize("mode", ["tau_ratio", "Geometric", None])
    def test_unknown_guess_mode_rejected(self, mode):
        with pytest.raises(InputError, match="guess mode"):
            small_grid("tags.txt", guess_mode=mode)

    @pytest.mark.parametrize("field, count", [("jobs", 0), ("jobs", -3)])
    def test_bad_counts_rejected(self, field, count):
        with pytest.raises(InputError, match=rf"{field} must be an integer in \[1, inf\)"):
            small_grid("tags.txt", **{field: count})

    @pytest.mark.parametrize("jobs", [1.5, True, "2", None, math.nan])
    def test_non_integral_jobs_rejected(self, jobs):
        with pytest.raises(InputError, match="job"):
            small_grid("tags.txt", jobs=jobs)

    @pytest.mark.parametrize("field, value, message", [
        ("delta", 2.0, "delta must lie in"), ("alpha", "0.1", r"alpha must lie in \(-inf, inf\)"),
        ("alpha", -1.0, "1 \\+ alpha > 1"), ("alpha", math.nan, r"alpha must lie in \(-inf, inf\)"),
        pytest.param("ref_seed", -3, r"seed must be an integer in \[0, inf\), got -3",
                     id="ref_seed--3-non-negative"),
        pytest.param("ref_seed", 1.5, r"seed must be an integer in \[0, inf\), got 1.5",
                     id="ref_seed-1.5-seed must be an integer"),
    ])
    def test_bad_alpha_delta_or_reference_seed_rejected(self, field, value, message):
        with pytest.raises(InputError, match=message):
            small_grid("tags.txt", **{field: value})

    def test_integral_float_jobs_is_that_integer(self):
        grid = small_grid("tags.txt", jobs=np.float64(2.0))
        assert grid.jobs == 2 and type(grid.jobs) is int

    @pytest.mark.parametrize("field, values", [
        ("eps_values", ("0.2",)), ("eps_values", (0.2, None)),
        ("tau_fractions", ("0.5",)), ("tau_fractions", (True,)),
    ])
    def test_non_numeric_eps_or_tau_fraction_rejected(self, field, values):
        axes = {"eps_values": (0.2,), "tau_fractions": (0.6,), field: values}
        message = {"eps_values": r"eps must lie in \(0, 1\)",
                   "tau_fractions": r"tau fraction must lie in \[0, inf\)"}[field]
        with pytest.raises(InputError, match=message):
            ExperimentGrid(dataset="tags.txt", kind="tags", algorithms=("greedy",), **axes)

    @pytest.mark.parametrize("algorithms", [("gredy",), ("greedy", "Stream"), ("greedy", "")])
    def test_unknown_algorithm_rejected(self, algorithms):
        with pytest.raises(InputError, match="unknown algorithm"):
            small_grid("tags.txt", algorithms=algorithms)

    @pytest.mark.parametrize("seeds", [(1.5,), (0, math.nan), (math.inf,), ("1",)])
    def test_non_integral_seed_rejected(self, seeds):
        with pytest.raises(InputError, match="seed must be an integer"):
            small_grid("tags.txt", algorithms=("stoch",), seeds=seeds)

    def test_integral_float_seed_runs_as_that_integer(self, tmp_path):
        dataset = write_tag_file(tmp_path, np.random.default_rng(74))
        grid = small_grid(dataset, algorithms=("stoch",), seeds=(2.0,))
        assert grid.seeds == (2,) and type(grid.seeds[0]) is int
        (row,) = run_experiment(grid, str(tmp_path / "a.csv"))
        (ref,) = run_experiment(small_grid(dataset, algorithms=("stoch",), seeds=(2,)),
                                str(tmp_path / "b.csv"))
        assert row.seed == 2 and (row.queries, row.size) == (ref.queries, ref.size)

    @pytest.mark.parametrize("fractions", [(math.nan,), (0.5, -0.1), (math.inf,), (0.5, -math.inf)])
    def test_bad_tau_fraction_rejected(self, fractions):
        with pytest.raises(InputError, match=r"tau fraction must lie in \[0, inf\)"):
            ExperimentGrid(dataset="tags.txt", kind="tags", algorithms=("greedy",),
                           eps_values=(0.2,), tau_fractions=fractions)

    @pytest.mark.parametrize("kind, dataset", [
        ("synthetic", "m=10,m=20"),
        ("synthetic", "m=60,n=30,head=8, n =30"),
        ("tightness", "k=3,l=9,k=4"),
    ])
    def test_repeated_dataset_parameter_rejected(self, kind, dataset):
        with pytest.raises(InputError, match="given twice"):
            load_dataset(kind, dataset)

    def test_synthetic_and_tightness_kinds(self, tmp_path):
        grid = ExperimentGrid(
            dataset="m=60,n=30,head=8,p_head=0.4,p_tail=0.01,seed=1",
            kind="synthetic", algorithms=("greedy",),
            eps_values=(0.2,), tau_fractions=(0.5,),
        )
        rows = run_experiment(grid, str(tmp_path / "a.csv"))
        assert rows[0].status == "Solved"
        grid = ExperimentGrid(
            dataset="k=3,l=9", kind="tightness", algorithms=("greedy",),
            eps_values=(0.2,), tau_fractions=(1.0,),
        )
        rows = run_experiment(grid, str(tmp_path / "b.csv"))
        assert rows[0].status == "Solved"

    @pytest.mark.parametrize("kind, dataset", [
        ("synthetic", "m=60.7,n=30,head=8"),
        ("synthetic", "m=60,n=30.9,head=8"),
        ("synthetic", "m=60,n=30,head=8,seed=1.5"),
        ("synthetic", "m=nan,n=30,head=8"),
        ("synthetic", "m=60,n=inf,head=8"),
        ("synthetic", "m=sixty,n=30,head=8"),
        ("tightness", "k=3,l=9.5"),
        ("tightness", "k=-inf,l=9"),
        ("synthetic", "m=60,n=30,head=8,seed=99999999999999999999"),
    ])
    def test_integer_dataset_parameters_not_truncated(self, kind, dataset):
        with pytest.raises(InputError):
            load_dataset(kind, dataset)

    def test_integral_float_dataset_parameters_accepted(self):
        params = "head=8,p_head=0.4,p_tail=0.01"
        as_floats = load_dataset("synthetic", f"m=60.0,n=30.0,seed=1.0,{params}")
        as_ints = load_dataset("synthetic", f"m=60,n=30,seed=1,{params}")
        assert as_floats.n == 30
        assert as_floats.tag_sets == as_ints.tag_sets
        assert load_dataset("tightness", "k=3.0,l=9").tag_sets == load_dataset(
            "tightness", "k=3,l=9").tag_sets

    @pytest.mark.parametrize("kind, dataset, plain", [
        ("synthetic", "m=60,,n=30,head=8", "m=60,n=30,head=8"),
        ("synthetic", "m=60,n=30,head=8,", "m=60,n=30,head=8"),
        ("tightness", " , k=3,l=9", "k=3,l=9"),
    ])
    def test_empty_dataset_chunks_skipped(self, kind, dataset, plain):
        """An empty chunk, doubled or trailing comma included, is no parameter."""
        assert load_dataset(kind, dataset).tag_sets == load_dataset(kind, plain).tag_sets

    def test_integer_dataset_parameters_read_exactly(self):
        # 2**53 + 1 rounds to 2**53 as a float; the dataset must get it unchanged
        with mock.patch("subcover.harness.make_synthetic_summarization") as make:
            load_dataset("synthetic", "m=60,n=30,head=8,seed= 9007199254740993")
        args = make.call_args.args
        assert args[-1] == 9007199254740993 and type(args[-1]) is int
        assert args[:2] == (60, 30) and args[4] == 8

    def test_crash_isolation(self, tmp_path):
        rng = np.random.default_rng(76)
        dataset = write_tag_file(tmp_path, rng)
        grid = small_grid(dataset, algorithms=("greedy", "thresh", "stoch"))
        with mock.patch("subcover.harness.threshold_greedy_cover", side_effect=RuntimeError):
            rows = run_experiment(grid, str(tmp_path / "out.csv"))
        statuses = [row.status for row in rows]
        assert statuses == ["Solved", "Error:RuntimeError", "Solved"]

    def test_parallel_jobs_match_serial(self, tmp_path):
        rng = np.random.default_rng(77)
        dataset = write_tag_file(tmp_path, rng)
        serial = small_grid(dataset, algorithms=("greedy", "stoch"), seeds=(0, 1))
        parallel = small_grid(
            dataset, algorithms=("greedy", "stoch"), seeds=(0, 1), jobs=2
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(serial, str(a), stable_output=True)
        run_experiment(parallel, str(b), stable_output=True)
        assert a.read_bytes() == b.read_bytes()


    def test_every_algorithm_serial_and_parallel(self, tmp_path):
        def grid(jobs):
            return ExperimentGrid(dataset="m=60,n=30,head=8,p_head=0.4,p_tail=0.01,seed=2",
                                  kind="synthetic", algorithms=ALGORITHMS, eps_values=(0.2,),
                                  tau_fractions=(0.9,), seeds=(0, 1), jobs=jobs)
        serial = run_experiment(grid(1), str(tmp_path / "a.csv"), stable_output=True)
        parallel = run_experiment(grid(2), str(tmp_path / "b.csv"), stable_output=True)
        assert serial == parallel
        assert [row.algorithm for row in serial] == [a for a in ALGORITHMS for _ in (0, 1)]
        assert {row.status for row in serial} == {"Solved"}

    def test_pool_is_no_larger_than_the_grid(self, tmp_path):
        sizes = []

        class InProcessPool:
            """Stands in for ProcessPoolExecutor: notes its size, runs in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        grid = small_grid(write_tag_file(tmp_path, np.random.default_rng(79)), seeds=(0, 1), jobs=64)
        with mock.patch("subcover.harness.ProcessPoolExecutor", InProcessPool), \
                mock.patch.dict("subcover.harness._WORKER_STATE", clear=True):
            pooled = run_experiment(grid, str(tmp_path / "a.csv"), stable_output=True)
        serial = run_experiment(dataclasses.replace(grid, jobs=1), str(tmp_path / "b.csv"),
                                stable_output=True)
        assert sizes == [2]
        assert pooled == serial


HARNESS_CHECKS = {
    "chunk-without-equals": (lambda p: load_dataset("synthetic", "m=60,n30"),
                             "expected key=value"),
    "unknown-key": (lambda p: load_dataset("tightness", "k=3,width=9"),
                    "unknown dataset parameter 'width'"),
    "unknown-kind": (lambda p: load_dataset("graphml", "x.txt"), "unknown dataset kind"),
    "bad-axis": (lambda p: emit_plot_data(p, "seed", "queries", p + ".tsv"), "x axis must be"),
    "bad-metric": (lambda p: emit_plot_data(p, "eps", "wall_ms", p + ".tsv"), "metric must be"),
}


@pytest.mark.parametrize("case", HARNESS_CHECKS)
def test_harness_input_checks(tmp_path, case):
    run, message = HARNESS_CHECKS[case]
    with pytest.raises(InputError, match=message):
        run(str(tmp_path / "missing.csv"))

class TestEmitPlotData:
    def make_csv(self, tmp_path, seeds=(0, 1, 2)):
        rng = np.random.default_rng(78)
        dataset = write_tag_file(tmp_path, rng)
        out = tmp_path / "runs.csv"
        grid = small_grid(dataset, algorithms=("greedy", "stoch"), seeds=seeds)
        run_experiment(grid, str(out))
        return out

    def test_single_row_group(self, tmp_path):
        csv_path = self.make_csv(tmp_path, seeds=(0,))
        out = tmp_path / "plot.tsv"
        emit_plot_data(str(csv_path), "eps", "queries", str(out))
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 2  # greedy and stoch
        for line in lines:
            fields = line.split("\t")
            assert fields[3] == "0" and fields[4] == "1"

    def test_mean_matches_hand_computation(self, tmp_path):
        csv_path = self.make_csv(tmp_path)
        rows = read_results_csv(str(csv_path))
        stoch = [r.queries for r in rows if r.algorithm == "stoch"]
        out = tmp_path / "plot.tsv"
        emit_plot_data(str(csv_path), "eps", "queries", str(out))
        line = next(
            l for l in out.read_text().splitlines() if l.startswith("stoch")
        )
        mean = float(line.split("\t")[2])
        assert mean == pytest.approx(sum(stoch) / len(stoch), rel=1e-4)

    def test_identical_rows_have_zero_stddev(self, tmp_path):
        # stochastic runs with the same seed collapse to one value
        csv_path = self.make_csv(tmp_path, seeds=(4, 4))
        out = tmp_path / "plot.tsv"
        emit_plot_data(str(csv_path), "eps", "f_value", str(out))
        line = next(l for l in out.read_text().splitlines() if l.startswith("stoch"))
        fields = line.split("\t")
        assert float(fields[3]) == 0.0 and fields[4] == "2"

    @pytest.mark.parametrize("queries", [
        (3079400123, 3079400124, 3079400126),
        (20288228, 20288229, 20288231),
    ])
    def test_stddev_of_large_close_values(self, tmp_path, queries):
        # population stddev of offsets 0, 1, 3 is sqrt(14/9) = 1.24722
        rows = [ResultRow(run_id=i, dataset="d", algorithm="convert-rand", eps=0.1, tau=1.0,
                          alpha=0.1, delta=0.1, seed=i, f_value=1.0, size=1, queries=q,
                          wall_ms=0.0, status="Solved") for i, q in enumerate(queries)]
        csv_path, out = tmp_path / "runs.csv", tmp_path / "plot.tsv"
        write_results_csv(rows, str(csv_path))
        emit_plot_data(str(csv_path), "eps", "queries", str(out))
        line = next(l for l in out.read_text().splitlines() if not l.startswith("#"))
        fields = line.split("\t")
        assert fields[3] == "1.24722" and fields[4] == "3"
        assert fields[2] == f"{queries[0] + 4 / 3:.6g}"

    def test_error_rows_left_out(self, tmp_path):
        """Error rows, one in a group of solved rows and one in a group of
        its own, aggregate as if they were absent."""
        csv_path = self.make_csv(tmp_path)
        rows = read_results_csv(str(csv_path))
        failed = [dataclasses.replace(rows[0], f_value=-1.0, size=999, queries=10**9,
                                      status="Error:ValueError"),
                  dataclasses.replace(rows[0], algorithm="convert", status="Error:ValueError")]
        with_errors = tmp_path / "with_errors.csv"
        write_results_csv(rows[:1] + failed + rows[1:], str(with_errors))
        for metric in ("f_value", "size", "queries"):
            for x_axis in ("eps", "tau"):
                plain, noisy = tmp_path / "plain.tsv", tmp_path / "noisy.tsv"
                emit_plot_data(str(csv_path), x_axis, metric, str(plain))
                emit_plot_data(str(with_errors), x_axis, metric, str(noisy))
                assert noisy.read_text() == plain.read_text()

    def test_empty_selection_warning(self, tmp_path):
        csv_path = tmp_path / "empty.csv"
        from subcover import write_results_csv

        write_results_csv([], str(csv_path))
        out = tmp_path / "plot.tsv"
        emit_plot_data(str(csv_path), "eps", "queries", str(out))
        assert "WARNING: empty selection" in out.read_text()


class TestCli:
    def test_run_and_plot(self, tmp_path, capsys):
        rng = np.random.default_rng(79)
        dataset = write_tag_file(tmp_path, rng)
        out_csv = tmp_path / "cli.csv"
        code = main([
            "run", "--dataset", dataset, "--kind", "tags",
            "--alg", "greedy,thresh", "--eps", "0.1,0.3", "--tau-frac", "0.5",
            "--seeds", "0", "--out", str(out_csv), "--stable-output",
        ])
        assert code == 0
        assert len(read_results_csv(str(out_csv))) == 4
        out_tsv = tmp_path / "cli.tsv"
        code = main([
            "plot", "--in", str(out_csv), "--x", "eps", "--metric", "queries",
            "--out", str(out_tsv),
        ])
        assert code == 0
        assert out_tsv.read_text().count("\n") >= 4

    def test_unknown_algorithm_rejected(self, tmp_path, capsys):
        code = main([
            "run", "--dataset", "x", "--kind", "tags", "--alg", "nope",
            "--eps", "0.1", "--tau-frac", "0.5", "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 2
        assert "unknown algorithm 'nope'" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("timeout", ["nan", "-1"])
    def test_bad_sub_timeout_rejected_before_any_cell(self, tmp_path, capsys, timeout):
        dataset = write_edge_file(tmp_path, np.random.default_rng(75))
        out_csv = tmp_path / "o.csv"
        code = main([
            "run", "--dataset", dataset, "--kind", "edges", "--alg", "stream",
            "--eps", "0.5", "--tau-frac", "0.7", "--sub-timeout-ms", timeout,
            "--out", str(out_csv),
        ])
        assert code == 2
        assert "timeout_ms" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("flags", [
        ["--alg", "greedy,gredy"], ["--tau-frac", "0.5,nan"], ["--jobs", "0"], ["--jobs", "-3"],
        ["--dataset", "m=60,n=30,head=8,m=60"], ["--eps", ","], ["--tau-frac", ""],
        ["--seeds", ""], ["--alg", " , "],
        ["--alg", "greedy,stoch", "--eps", "1.5"], ["--eps", "0.2,0"], ["--eps", "nan"],
        ["--alg", "greedy,stoch", "--seeds=-1"],
    ])
    def test_bad_grid_exits_before_any_cell(self, tmp_path, capsys, flags):
        out_csv = tmp_path / "o.csv"
        code = main([
            "run", "--dataset", "m=60,n=30,head=8", "--kind", "synthetic", "--alg", "greedy",
            "--eps", "0.2", "--tau-frac", "0.5", "--out", str(out_csv), *flags,
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_plot_of_truncated_row_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "short.csv"
        csv_path.write_text(",".join(CSV_COLUMNS) + "\n0,d,greedy\n")
        code = main(["plot", "--in", str(csv_path), "--x", "eps", "--metric", "queries",
                     "--out", str(tmp_path / "o.tsv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "short.csv:2: 3 fields" in err

    def test_run_flags_are_the_grid_fields(self, tmp_path):
        args = build_parser().parse_args([
            "run", "--dataset", "x", "--kind", "tags", "--alg", "greedy", "--eps", "0.1",
            "--tau-frac", "0.5", "--out", str(tmp_path / "o.csv"),
        ])
        grid_fields = [f.name for f in dataclasses.fields(ExperimentGrid)]
        assert sorted(vars(args)) == sorted(["command", "out", "stable_output", *grid_fields])

    def test_minimal_run_builds_the_default_grid(self):
        args = build_parser().parse_args([
            "run", "--dataset", "x", "--kind", "tags", "--alg", "greedy", "--eps", "0.1",
            "--tau-frac", "0.5", "--out", "o.csv",
        ])
        grid = ExperimentGrid(**{f.name: getattr(args, f.name)
                                 for f in dataclasses.fields(ExperimentGrid)})
        assert grid == ExperimentGrid(dataset="x", kind="tags", algorithms=("greedy",),
                                      eps_values=(0.1,), tau_fractions=(0.5,))
        assert not args.stable_output

    def test_unreadable_dataset_exits_cleanly(self, tmp_path, capsys):
        code = main([
            "run", "--dataset", str(tmp_path / "missing.txt"), "--kind", "tags",
            "--alg", "greedy", "--eps", "0.1", "--tau-frac", "0.5",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
