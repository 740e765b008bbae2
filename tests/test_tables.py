import csv
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@given(header=st.lists(plain_cell, min_size=2, max_size=5),
       rows=st.lists(st.lists(plain_cell, min_size=2, max_size=5), max_size=5))
@settings(max_examples=200, deadline=None)
def test_write_table_bytes_equal_csv_writer(header, rows):
    """Cells that need no quoting are written as ``csv.writer`` writes them."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([header, *rows])
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "t.csv"
        write_table(p, header, rows)
        assert p.read_bytes() == buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("cell", ["1,5", ",", 'say "x"', "a\rb", "a\nb"])
@pytest.mark.parametrize("in_header", [False, True])
def test_write_table_refuses_cells_that_need_quoting(tmp_path, cell, in_header):
    p = tmp_path / "t.csv"
    header, rows = ("a", "b"), [("0", "1"), ("2", cell)]
    if in_header:
        header, rows = ("a", cell), rows[:1]
    with pytest.raises(ValueError, match="would need CSV quoting"):
        write_table(p, header, rows)
    assert not p.exists()
