import csv
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import table_bytes_per_cell
from stiffcal.doe import PLAN_CSV_HEADER, load_plan_csv
from stiffcal.elasto_id import DEFLECTION_CSV_HEADER, load_deflection_csv
from stiffcal.errors import DataLayoutError
from stiffcal.geometry_id import load_marker_csv
from stiffcal.tables import write_table

MARKER_HEADER = ("q2_deg", "P1_x", "P1_y", "P01_x", "P01_y", "P02_x", "P02_y")
LOADERS = [(load_plan_csv, PLAN_CSV_HEADER),
           (load_deflection_csv, DEFLECTION_CSV_HEADER),
           (load_marker_csv, MARKER_HEADER)]

TOKENS = ["0", "1", "7", "-", "+", ".", "e", "nan", "inf", " ", ",", '"', "x"]
CELLS = ["0", "1", "-2.5", "+3", "1e3", "-45", "nan", "-inf", "", " ", '"1"', "x"]
text = st.lists(st.sampled_from(TOKENS), max_size=30).map("".join)


@st.composite
def table(draw):
    loader, header = draw(st.sampled_from(LOADERS))
    head = draw(st.one_of(st.just(",".join(header)), text))
    row = st.one_of(text, st.lists(st.sampled_from(CELLS), min_size=len(header),
                                   max_size=len(header)).map(",".join))
    return loader, "\n".join([head] + draw(st.lists(row, max_size=6)))


@given(case=table())
@settings(max_examples=300, deadline=None)
def test_loaders_load_or_name_the_line(case):
    """Any text either loads or raises DataLayoutError starting with the path,
    and a message about a row's cells or fields starts with ``path:line``."""
    loader, body = case
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "data.csv"
        p.write_text(body, encoding="utf-8")
        try:
            loader(p)
        except DataLayoutError as exc:
            msg = str(exc)
            assert re.match(rf"{re.escape(str(p))}(:\d+)?: \S", msg), msg
            if ": column " in msg or " fields, got " in msg:
                assert re.match(rf"{re.escape(str(p))}:\d+: ", msg), msg


# cells of characters csv.writer leaves unquoted, space, tab, ';' and non-ASCII among them
plain_cell = st.lists(st.sampled_from(["0", "1", "-", ".", "e", "x", " ", "\t", ";", "'",
                                       "é", "µ"]), max_size=8).map("".join)


@st.composite
def plain_table(draw):
    header = draw(st.lists(plain_cell, min_size=2, max_size=5))
    row = st.lists(plain_cell, min_size=len(header), max_size=len(header))
    return header, draw(st.lists(row, max_size=5))


@given(table=plain_table())
@settings(max_examples=200, deadline=None)
def test_write_table_bytes_equal_csv_writer(table):
    """Cells that need no quoting are written as ``csv.writer`` writes them."""
    header, rows = table
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([header, *rows])
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "t.csv"
        write_table(p, header, ("s",) * len(header), rows)
        assert p.read_bytes() == buf.getvalue().encode("utf-8")


# finite floats, with the edges a printf spec could format differently from
# a per-cell format: signed zeros, subnormals, the largest magnitudes, whole
# numbers past 2**53, and numpy float64 scalars (eta.csv and markers.csv get those)
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308,
               1.7e308, -1.7e308, 1e16, -1e16, 1e15, 123456789012345.0, 0.5, 1e-5]
finite_float = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from(EDGE_FLOATS))
float_cell = st.one_of(finite_float, finite_float.map(np.float64))
int_cell = st.one_of(st.integers(0, 2**63 - 1), st.sampled_from([0, 1, 2**53 + 1, 2**63 - 1]))
CELLS_OF = {".10g": float_cell, ".6f": float_cell, "d": int_cell}


@st.composite
def numeric_table(draw):
    formats = draw(st.lists(st.sampled_from(sorted(CELLS_OF)), min_size=1, max_size=6))
    row = st.tuples(*(CELLS_OF[f] for f in formats))
    return [f"c{j}" for j in range(len(formats))], formats, draw(st.lists(row, max_size=5))


@given(table=numeric_table())
@settings(max_examples=300, deadline=None)
def test_write_table_bytes_equal_per_cell_formats(table):
    """One printf per row writes the bytes of formatting each cell on its own."""
    header, formats, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "t.csv"
        write_table(p, header, formats, rows)
        assert p.read_bytes() == table_bytes_per_cell(header, formats, rows)


@pytest.mark.parametrize("cell", ["1,5", ",", 'say "x"', "a\rb", "a\nb"])
@pytest.mark.parametrize("in_header", [False, True])
def test_write_table_refuses_cells_that_need_quoting(tmp_path, cell, in_header):
    p = tmp_path / "t.csv"
    header, rows = ("a", "b"), [("0", "1"), ("2", cell)]
    if in_header:
        header, rows = ("a", cell), rows[:1]
    with pytest.raises(ValueError, match="would need CSV quoting"):
        write_table(p, header, ("s", "s"), rows)
    assert not p.exists()
