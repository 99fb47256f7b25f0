"""Deterministic tabular output for the CLI.

TSV rows carry no header so they diff cleanly against golden files.  A
JSON-lines row of a ``table`` names its table in a ``"table"`` field; an
``enumerate`` record holds only the object's fields.  All rows are emitted in
a fixed enumeration order.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from .abseq import enumerate_sequences
from .bijections import count_strict_by_parts_rank_formula, split_strict
from .partitions import (
    enumerate_partitions,
    enumerate_strict_partitions,
    partition_count,
)
from .qseries import euler_product, gf_coefficients
from .verify import canonical_json, theorem34_cells

__all__ = [
    "FORMATS",
    "TABLE_KINDS",
    "ENUMERATIONS",
    "emit_table",
    "emit_partitions",
    "emit_strict_partitions",
    "emit_sequences",
]

FORMATS = ("tsv", "json-lines")
# Table kind -> (name of the sweep in ``verify`` whose grid parameters (and
# defaults) it reads, or None for a kind that reads only the weight ``n``;
# help text).
TABLE_KINDS: dict[str, tuple[Optional[str], str]] = {
    "table1": (None, "strict partitions of n -> (triangular, sequence)"),
    "s-coeffs": ("verify_gf", "generating function coefficients by (a, b, n)"),
    "theorem34": ("verify_theorem34", "counts by (parts, BG-rank), enumerated vs closed form"),
    "counts": (None, "p(m) and the strict partition count for each m <= n"),
}
# ``enumerate`` kind -> (name of its emitter in this module, help text).
# Each emitter's signature declares the kind's flags and defaults.
ENUMERATIONS: dict[str, tuple[str, str]] = {
    "partitions": ("emit_partitions", "partitions of n"),
    "strict": ("emit_strict_partitions", "strict partitions of n"),
    "abseq": ("emit_sequences", "sequences with parameters (a, b) and weight 2n"),
}


def _emit(rows: Iterable, fmt: str, tsv: Callable[..., str], record: Callable[..., dict]) -> Iterator[str]:
    """Format each row as the TSV line ``tsv(row)`` or the JSON record
    ``record(row)``, for every table and enumeration (a report formats its own lines)."""
    if fmt == "tsv":
        return map(tsv, rows)
    if fmt == "json-lines":
        return (canonical_json(record(row)) for row in rows)
    raise ValueError(f"unknown format {fmt!r}")


def _tab(row: tuple) -> str:
    return "\t".join(map(str, row))


def _fields(table: str, *names: str) -> Callable[[tuple], dict]:
    """Record maker naming the columns of a tuple row."""
    return lambda row: {"table": table, **dict(zip(names, row))}


def _parts_record(obj) -> dict:
    return {"parts": list(obj.parts), "weight": obj.weight}


def emit_table(kind: str, fmt: str = "tsv", **params: Optional[int]) -> Iterator[str]:
    """Rows of the named table as formatted lines, from the bounds
    ``TABLE_KINDS`` names for ``kind``."""
    if kind == "table1":
        rows = ((s, split_strict(s)) for s in enumerate_strict_partitions(params["n"]))
        return _emit(
            rows,
            fmt,
            _tab,
            lambda row: {
                "table": "table1",
                "partition": list(row[0].parts),
                "t": row[1].triangular,
                "delta": list(row[1].seq.entries),
            },
        )
    if kind == "counts":
        rows = ((m, partition_count(m), strict) for m, strict in enumerate(euler_product(params["n"])))
        return _emit(rows, fmt, _tab, _fields("counts", "n", "partitions", "strict"))
    if kind == "s-coeffs":
        table = gf_coefficients(params["a_max"], params["b_max"], params["trunc"])
        rows = (cell + (value,) for cell, value in table.items())
        return _emit(rows, fmt, _tab, _fields("s-coeffs", "a", "b", "n", "count"))
    if kind == "theorem34":
        cells = theorem34_cells(params["k_min"], params["k_max"], params["m_max"], params["n_max"])
        rows = (cell + (count_strict_by_parts_rank_formula(*cell[:3]),) for cell in cells)
        return _emit(rows, fmt, _tab, _fields("theorem34", "k", "m", "n", "count", "formula"))
    raise ValueError(f"unknown table kind {kind!r}")


def emit_partitions(
    n: int, max_part: Optional[int] = None, even_only: bool = False, fmt: str = "tsv"
) -> Iterator[str]:
    return _emit(enumerate_partitions(n, max_part, even_only), fmt, str, _parts_record)


def emit_strict_partitions(n: int, parts: Optional[int] = None, fmt: str = "tsv") -> Iterator[str]:
    return _emit(enumerate_strict_partitions(n, num_parts=parts), fmt, str, _parts_record)


def emit_sequences(a: int, b: int, half_weight: int, fmt: str = "tsv") -> Iterator[str]:
    return _emit(
        enumerate_sequences(a, b, half_weight),
        fmt,
        str,
        lambda seq: {"a": seq.a, "b": seq.b, "entries": list(seq.entries), "weight": seq.weight},
    )
