"""File ingestion and CSV round-trips."""

import pytest

from subcover import (
    CSV_COLUMNS,
    InputError,
    ParseError,
    ResultRow,
    parse_edge_list,
    parse_tag_assignments,
    read_results_csv,
    write_results_csv,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseEdgeList:
    def test_path_graph(self, tmp_path):
        oracle = parse_edge_list(write(tmp_path, "p.txt", "0 1\n1 2\n"))
        assert oracle.n == 3
        assert oracle.peek([1]) == 2.0

    def test_comment_only_file(self, tmp_path):
        oracle = parse_edge_list(write(tmp_path, "c.txt", "# c\n"))
        assert oracle.n == 0 and oracle.peek([]) == 0.0

    def test_duplicate_edges_sum(self, tmp_path):
        oracle = parse_edge_list(write(tmp_path, "d.txt", "0 1\n0 1\n"))
        assert oracle.peek([0]) == 2.0

    def test_weights_and_crlf(self, tmp_path):
        oracle = parse_edge_list(write(tmp_path, "w.txt", "0 1 0.5\r\n1 2 2\r\n"))
        assert oracle.peek([1]) == 2.5

    def test_self_loop_dropped(self, tmp_path):
        oracle = parse_edge_list(write(tmp_path, "s.txt", "0 0\n0 1\n"))
        assert oracle.peek([0]) == 1.0

    def test_id_remapping_is_dense_bijection(self, tmp_path):
        oracle = parse_edge_list(write(tmp_path, "r.txt", "10 30\n30 20\n"))
        assert oracle.n == 3
        assert oracle.original_ids == (10, 20, 30)
        assert oracle.peek([two for two in [2]]) == 2.0  # 30 is the middle node

    def test_malformed_line_reports_position(self, tmp_path):
        path = write(tmp_path, "bad.txt", "0 1\nnot an edge line x\n")
        with pytest.raises(ParseError, match=":2"):
            parse_edge_list(path)

    @pytest.mark.parametrize("text", ["0 x\n", "0 1 heavy\n", "0.5 1\n"])
    def test_unreadable_edge_numbers_rejected(self, tmp_path, text):
        with pytest.raises(ParseError, match=":2: malformed edge"):
            parse_edge_list(write(tmp_path, "bad.txt", "1 2\n" + text))

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, tmp_path, weight):
        with pytest.raises(InputError):
            parse_edge_list(write(tmp_path, "nf.txt", f"0 1 {weight}\n1 2\n"))

    @pytest.mark.parametrize("text", ["0 1\n3 3 -5\n", "0 1\n3 3 nan\n"])
    def test_self_loop_weight_checked(self, tmp_path, text):
        with pytest.raises(InputError):
            parse_edge_list(write(tmp_path, "sl.txt", text))

    def test_directed_duplicates_collapse(self, tmp_path):
        # a directed file listing both orientations doubles the weight
        oracle = parse_edge_list(write(tmp_path, "dir.txt", "0 1\n1 0\n"))
        assert oracle.peek([0]) == 2.0


class TestParseTagAssignments:
    def test_union_count(self, tmp_path):
        oracle = parse_tag_assignments(write(tmp_path, "t.txt", "0 5 7\n1 7\n"))
        assert oracle.peek([0, 1]) == 2.0

    def test_empty_file(self, tmp_path):
        oracle = parse_tag_assignments(write(tmp_path, "e.txt", ""))
        assert oracle.n == 0

    def test_element_without_tags(self, tmp_path):
        oracle = parse_tag_assignments(write(tmp_path, "n.txt", "0\n"))
        assert oracle.n == 1 and oracle.peek([0]) == 0.0

    def test_duplicate_element_rejected(self, tmp_path):
        path = write(tmp_path, "dup.txt", "0 1\n0 2\n")
        with pytest.raises(ParseError, match=":2"):
            parse_tag_assignments(path)

    @pytest.mark.parametrize("text", ["0 a\n", "x 1 2\n", "2 1.5\n"])
    def test_unreadable_assignment_rejected(self, tmp_path, text):
        with pytest.raises(ParseError, match=":2: malformed assignment"):
            parse_tag_assignments(write(tmp_path, "bad.txt", "1 4\n" + text))

    def test_repeated_tag_counts_once(self, tmp_path):
        twice = parse_tag_assignments(write(tmp_path, "r.txt", "0 5 7 5\n1 7 9 7 7\n"))
        once = parse_tag_assignments(write(tmp_path, "o.txt", "0 5 7\n1 7 9\n"))
        assert twice.tag_sets == once.tag_sets == (frozenset({0, 1}), frozenset({1, 2}))
        for subset in ([], [0], [1], [0, 1]):
            assert twice.peek(subset) == once.peek(subset)

    def test_tag_remapping(self, tmp_path):
        oracle = parse_tag_assignments(write(tmp_path, "m.txt", "7 100\n3 900 100\n"))
        assert oracle.n == 2
        assert oracle.original_ids == (3, 7)
        assert oracle.original_tags == (100, 900)
        assert oracle.peek([0, 1]) == 2.0


def sample_rows():
    return [
        ResultRow(0, "d", "greedy", 0.1, 12.5, 0.1, 0.1, 3, 11.0, 4, 120, 1.25, "Solved"),
        ResultRow(1, "d", "stoch", 0.2, 12.5, 0.1, 0.1, 4, 10.0, 5, 80, 0.5, "Solved"),
    ]


class TestResultsCsv:
    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_results_csv([], str(path))
        assert path.read_text().strip() == ",".join(CSV_COLUMNS)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_results_csv(sample_rows(), str(path))
        back = read_results_csv(str(path))
        assert back == sample_rows()

    def test_six_significant_digits(self, tmp_path):
        path = tmp_path / "fmt.csv"
        rows = [ResultRow(0, "d", "greedy", 0.123456789, 3.0, 0.1, 0.1, 0,
                          1234.56789, 1, 1, 0.000123456789, "Solved")]
        write_results_csv(rows, str(path))
        body = path.read_text().splitlines()[1]
        assert "0.123457" in body and "1234.57" in body

    def test_reject_foreign_header(self, tmp_path):
        path = tmp_path / "alien.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError):
            read_results_csv(str(path))

    def test_columns_are_the_documented_header(self):
        header = "run_id,dataset,algorithm,eps,tau,alpha,delta,seed,f_value,size,queries,wall_ms,status"
        assert CSV_COLUMNS == tuple(header.split(","))

    @pytest.mark.parametrize("body, message", [
        ("0,d,greedy", r"3 fields, not 13: eps missing"),
        ("0,d,greedy,0.1,3,0.1,0.1,0,3,1,1,0", r"12 fields, not 13: status missing"),
        ("0,d,greedy,0.1,3,0.1,0.1,0,3,1,1,0,Solved,x", r"14 fields, not 13: extra after status"),
        ("x,d,greedy,0.1,3,0.1,0.1,0,3,1,1,0,Solved", r"run_id is 'x', not int"),
        ("0,d,greedy,0.1,3,0.1,0.1,0,three,1,1,0,Solved", r"f_value is 'three', not float"),
        ("0,d,greedy,0.1,3,0.1,0.1,0,3,1.5,1,0,Solved", r"size is '1.5', not int"),
    ], ids=["short", "no-status", "extra", "run_id", "f_value", "size"])
    def test_malformed_row_names_line_and_column(self, tmp_path, body, message):
        good = "0,d,greedy,0.1,3,0.1,0.1,0,3,1,1,0,Solved"
        path = write(tmp_path, "bad.csv", f"{','.join(CSV_COLUMNS)}\n{good}\n{body}\n")
        with pytest.raises(ParseError, match=f"bad.csv:3: {message}"):
            read_results_csv(path)

    def test_blank_lines_hold_no_row(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_results_csv(sample_rows(), str(path))
        path.write_text(path.read_text().replace("\r\n", "\r\n\r\n"))
        assert read_results_csv(str(path)) == sample_rows()

    def test_parse_write_parse_fixed_point(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_results_csv(sample_rows(), str(first))
        write_results_csv(read_results_csv(str(first)), str(second))
        assert first.read_text() == second.read_text()
