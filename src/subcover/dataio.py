"""Dataset ingestion (edge lists, tag assignments) and results CSV handling."""

from __future__ import annotations

import csv
import typing
from dataclasses import dataclass, fields

from .oracles import CoverageOracle, GraphCutOracle


class ParseError(ValueError):
    """A dataset file line could not be interpreted."""


def _data_lines(path):
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def parse_edge_list(path):
    """Read a whitespace-separated `u v [w]` edge list into a cut oracle.

    Comment lines start with '#'.  Edges are undirected; duplicates have
    their weights summed (default 1); self-loops, once checked, are dropped.
    Node ids are remapped onto 0..n-1 in sorted order; the original ids are
    kept on the oracle as ``original_ids``.
    """
    raw_edges = []
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"{path}:{lineno}: expected 'u v [w]', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise ParseError(f"{path}:{lineno}: malformed edge {line!r}") from None
        raw_edges.append((u, v, w))
    original = sorted({u for u, _, _ in raw_edges} | {v for _, v, _ in raw_edges})
    index = {node: i for i, node in enumerate(original)}
    edges = [(index[u], index[v], w) for u, v, w in raw_edges]
    oracle = GraphCutOracle(len(original), edges)
    oracle.original_ids = tuple(original)
    return oracle


def parse_tag_assignments(path):
    """Read `elem_id tag_id tag_id ...` lines into a coverage oracle.

    Elements and tags are both remapped densely (sorted order); empty tag
    lists are allowed.  Repeated element ids are an error.  The original ids
    are kept as ``original_ids`` / ``original_tags``.
    """
    per_element = {}
    for lineno, line in _data_lines(path):
        parts = line.split()
        try:
            ids = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"{path}:{lineno}: malformed assignment {line!r}") from None
        elem, tags = ids[0], ids[1:]
        if elem in per_element:
            raise ParseError(f"{path}:{lineno}: duplicate element id {elem}")
        per_element[elem] = tags
    original_elems = sorted(per_element)
    original_tags = sorted({t for tags in per_element.values() for t in tags})
    tag_index = {t: i for i, t in enumerate(original_tags)}
    tag_sets = [[tag_index[t] for t in per_element[e]] for e in original_elems]
    oracle = CoverageOracle(tag_sets)
    oracle.original_ids = tuple(original_elems)
    oracle.original_tags = tuple(original_tags)
    return oracle


@dataclass(frozen=True)
class ResultRow:
    run_id: int
    dataset: str
    algorithm: str
    eps: float
    tau: float
    alpha: float
    delta: float
    seed: int
    f_value: float
    size: int
    queries: int
    wall_ms: float
    status: str


CSV_COLUMNS = tuple(field.name for field in fields(ResultRow))


def write_results_csv(rows, path):
    """Write result rows with the fixed header; floats use 6 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            values = (getattr(row, col) for col in CSV_COLUMNS)
            writer.writerow([format(v, ".6g") if isinstance(v, float) else str(v) for v in values])


def read_results_csv(path):
    """Read back rows written by write_results_csv, converting each column by
    its ResultRow field type; a malformed row raises ParseError."""
    types = typing.get_type_hints(ResultRow)
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_COLUMNS:
            raise ParseError(f"{path}: unexpected results header {header}")
        for record in filter(None, reader):  # a blank line holds no row
            where = f"{path}:{reader.line_num}"
            if len(record) != len(CSV_COLUMNS):
                detail = (f"{CSV_COLUMNS[len(record)]} missing" if len(record) < len(CSV_COLUMNS)
                          else "extra after status")
                raise ParseError(f"{where}: {len(record)} fields, not {len(CSV_COLUMNS)}: {detail}")
            values = []
            for col, text in zip(CSV_COLUMNS, record):
                try:
                    values.append(types[col](text))
                except ValueError:
                    raise ParseError(f"{where}: {col} is {text!r}, not {types[col].__name__}") from None
            rows.append(ResultRow(*values))
    return rows
