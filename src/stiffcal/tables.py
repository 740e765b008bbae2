"""Headed CSV tables: the one reader and writer behind every data file.

Each data format (plan, deflection records, marker sweeps) keeps its
header and its row meaning in its own module and reaches the file only
through :func:`read_table` and :func:`write_table`, so every format
skips blank rows, checks field counts and rejects unparsable or non-finite
cells the same way, naming ``path:line`` and the column.

:func:`read_table` parses a table's body in one bulk ``np.loadtxt`` pass,
which skips empty lines.  Only a file the bulk pass rejects (a row of
blank cells, a quoted cell, a non-finite or unparsable cell, anything that
is not one row per non-empty line) is read again by the cell-by-cell loop,
which accepts what Python's ``float``/``int`` accept and otherwise names
the first bad ``path:line``.
"""
from __future__ import annotations

import csv
import io
import math
import re
import warnings
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DataLayoutError

Columns = Dict[str, np.ndarray]


def read_table(path, header: Optional[Sequence[str]] = None, *, kind: str = "",
               ints: Sequence[str] = ()) -> Tuple[Columns, np.ndarray]:
    """Read a headed CSV; return its columns, by stripped header name in file
    order, and each row's line number in the file.

    With ``header`` given the file's header must equal it (``kind`` names
    the format in the message).  A UTF-8 byte-order mark is ignored.  Rows
    whose cells are all blank are skipped; every other row must have one
    field per header column.  The columns named in ``ints`` are int64 (an
    integer outside that range makes the column an object array of Python
    ints, for the caller to reject), all others finite float64.  A bad
    cell, field count or CSV syntax error raises :class:`DataLayoutError`
    starting ``path:line``; every other failure to read the file as UTF-8
    CSV starts ``path``.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
        body = io.StringIO(text, newline="")
        reader = csv.reader(body)
        names = _names(path, next(reader, None), header, kind)
    except (UnicodeDecodeError, csv.Error):
        return _read_cells(path, header, kind, ints)
    table = _read_bulk(text, body, names, ints)
    return table if table is not None else _read_cells(path, header, kind, ints)


def _names(path, cells: Optional[List[str]], header: Optional[Sequence[str]],
           kind: str) -> List[str]:
    """The stripped header ``cells`` (None: the file is empty), checked."""
    if cells is None:
        raise DataLayoutError(f"{path}: empty file")
    names = [h.strip() for h in cells]
    if header is not None and names != list(header):
        raise DataLayoutError(f"{path}: expected {kind} header "
                              f"{','.join(header)}, got {names}")
    if len(set(names)) < len(names):
        raise DataLayoutError(f"{path}: duplicate column name in header {names}")
    return names


def _read_bulk(text: str, body: io.StringIO, names: List[str],
               ints: Sequence[str]) -> Optional[Tuple[Columns, np.ndarray]]:
    """The table of ``body`` (``text`` after its header) from one
    ``np.loadtxt`` call, or None where the cell loop must decide.

    The bulk pass takes a row only as the loop would take it: one row on
    each line after the first that is not empty, no quoting, no warning,
    every float finite.  An empty line is skipped by ``loadtxt`` and the
    loop alike, so each row is numbered by the non-empty lines after the
    first (CRLF, LF and a lone CR end a line, as in the csv module); a
    whitespace-only line fails ``loadtxt``, and a header spanning lines
    leaves fewer rows than non-empty lines.
    """
    limit = csv.field_size_limit()
    if len(text) > limit and re.search(f"[^,\r\n]{{{limit + 1}}}", text):
        return None   # a field the csv module refuses
    dtype = np.dtype([(f"c{j}", np.int64 if n in ints else np.float64)
                      for j, n in enumerate(names)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = np.loadtxt(body, dtype=dtype, delimiter=",", comments=None,
                           quotechar=None, ndmin=1)
    except (ValueError, Warning):
        return None
    cols = {n: a[f"c{j}"] for j, n in enumerate(names)}
    if not all(np.isfinite(cols[n]).all() for n in names if n not in ints):
        return None
    # bytes split lines at CRLF, LF and CR alone, as the csv module does
    rows = [k for k, line in enumerate(text.encode().splitlines()[1:], 2) if line]
    return (cols, np.array(rows, dtype=np.int64)) if len(a) == len(rows) else None


def _read_cells(path, header: Optional[Sequence[str]], kind: str,
                ints: Sequence[str]) -> Tuple[Columns, np.ndarray]:
    """:func:`read_table` one cell at a time with ``float``/``int``, raising
    at the first bad header, row or cell in file order."""
    def where() -> str:   # built only for a message: most rows never need it
        return f"{path}:{reader.line_num}"

    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            names = _names(path, next(reader, None), header, kind)
            integer = [n in ints for n in names]
            rows, lines = [], []
            for cells in reader:
                if not any(c.strip() for c in cells):
                    continue
                if len(cells) != len(names):
                    raise DataLayoutError(
                        f"{where()}: expected {len(names)} fields, got {len(cells)}")
                vals = []
                for name, is_int, cell in zip(names, integer, cells):
                    try:
                        v = int(cell) if is_int else float(cell)
                    except ValueError as exc:
                        raise DataLayoutError(f"{where()}: column {name}: {exc}") from exc
                    if not (is_int or math.isfinite(v)):
                        raise DataLayoutError(
                            f"{where()}: column {name} must be finite, got {cell.strip()!r}")
                    vals.append(v)
                rows.append(vals)
                lines.append(reader.line_num)
    except csv.Error as exc:
        raise DataLayoutError(f"{where()}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataLayoutError(f"{path}: not UTF-8 text: {exc}") from exc
    values = list(zip(*rows)) if rows else [()] * len(names)
    return ({n: _column(v, is_int) for n, is_int, v in zip(names, integer, values)},
            np.array(lines, dtype=np.int64))


def _column(values: Sequence, is_int: bool) -> np.ndarray:
    if not is_int:
        return np.array(values, dtype=np.float64)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def write_table(path, header: Sequence[str], formats: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    """Write ``header`` then one line per row of values (``\\r\\n`` line ends).

    ``formats`` holds one printf spec per column (``".10g"``, ``"d"``,
    ``".6f"``, ``"s"``), so each row is formatted with one
    ``template % tuple(row)``.  Cells are written unquoted, so a line
    holding ``,`` inside a cell, ``"``, CR or LF raises ``ValueError``
    before the file is opened.
    """
    template = ",".join("%" + f for f in formats)
    lines = [",".join(header)]
    lines += [template % tuple(row) for row in rows]
    commas = max(len(header) - 1, 0)
    for line in lines:
        if line.count(",") > commas or '"' in line or "\r" in line or "\n" in line:
            raise ValueError(f"{path}: a cell would need CSV quoting "
                             f"(it holds ',', '\"', CR or LF): {line!r}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
