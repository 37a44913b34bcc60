"""Experiment grid execution, CSV determinism, plot aggregation, CLI wiring."""

from unittest import mock

import numpy as np
import pytest

from subcover import (
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
from subcover.cli import main


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
            tau_fractions=(0.5,), seeds=(0, 1, 2), repetitions=2,
        )
        rows = run_experiment(grid, str(tmp_path / "out.csv"))
        assert len(rows) == grid.total_runs() == 2 * 2 * 1 * 3 * 2

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

    @pytest.mark.parametrize("field, count", [
        ("repetitions", 0), ("repetitions", -2), ("jobs", 0), ("jobs", -3),
    ])
    def test_bad_counts_rejected(self, field, count):
        with pytest.raises(InputError, match=f"{field} must be at least 1"):
            small_grid("tags.txt", **{field: count})

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
        grid = small_grid(dataset, algorithms=("greedy", "bogus", "stoch"))
        rows = run_experiment(grid, str(tmp_path / "out.csv"))
        statuses = [row.status for row in rows]
        assert statuses[0] == "Solved" and statuses[2] == "Solved"
        assert statuses[1].startswith("Error")

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

    def test_unknown_algorithm_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "run", "--dataset", "x", "--kind", "tags", "--alg", "nope",
                "--eps", "0.1", "--tau-frac", "0.5", "--out", str(tmp_path / "o.csv"),
            ])

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
        ["--reps", "-2"], ["--reps", "0"], ["--jobs", "0"], ["--jobs", "-3"],
        ["--dataset", "m=60,n=30,head=8,m=60"],
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

    def test_unreadable_dataset_exits_cleanly(self, tmp_path, capsys):
        code = main([
            "run", "--dataset", str(tmp_path / "missing.txt"), "--kind", "tags",
            "--alg", "greedy", "--eps", "0.1", "--tau-frac", "0.5",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
