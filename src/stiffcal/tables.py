"""Headed CSV tables: the one reader and writer behind every data file.

Each data format (plan, deflection records, marker sweeps) keeps its
header and its row meaning in its own module and reaches the file only
through :func:`read_table` and :func:`write_table`, so every format
skips blank rows, checks field counts and rejects unparsable or non-finite
cells the same way, naming ``path:line`` and the column.
"""
from __future__ import annotations

import csv
import math
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .errors import DataLayoutError


def read_table(path, header: Optional[Sequence[str]] = None, *, kind: str = "",
               ints: Sequence[str] = (),
               row: Callable[[list], object] = list) -> Tuple[List[str], list]:
    """Read a headed CSV; return its stripped header and one ``row(values)`` per row.

    With ``header`` given the file's header must equal it (``kind`` names
    the format in the message).  Rows whose cells are all blank are
    skipped; every other row must have one field per header column.  Cells
    of the columns named in ``ints`` parse as ``int``, all others as finite
    floats.  A bad cell, field count, CSV syntax error or ``ValueError``
    from ``row`` raises :class:`DataLayoutError` starting ``path:line``;
    every other failure to read the file as UTF-8 CSV starts ``path``.
    """
    def where() -> str:   # built only for a message: most rows never need it
        return f"{path}:{reader.line_num}"

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                names = [h.strip() for h in next(reader)]
            except StopIteration:
                raise DataLayoutError(f"{path}: empty file") from None
            if header is not None and names != list(header):
                raise DataLayoutError(f"{path}: expected {kind} header "
                                      f"{','.join(header)}, got {names}")
            if len(set(names)) < len(names):
                raise DataLayoutError(f"{path}: duplicate column name in header {names}")
            integer = [n in ints for n in names]
            out = []
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
                try:
                    out.append(row(vals))
                except ValueError as exc:
                    raise DataLayoutError(f"{where()}: {exc}") from exc
    except csv.Error as exc:
        raise DataLayoutError(f"{where()}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataLayoutError(f"{path}: not UTF-8 text: {exc}") from exc
    return names, out


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
