import csv
import dataclasses
import io
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (load_deflection_csv_loop, load_marker_csv_loop, load_plan_csv_loop,
                     read_table_loop, table_bytes_per_cell)
from plans import spread_plan
from record_tables import table as record_table
from stiffcal import tables
from stiffcal.doe import PLAN_CSV_HEADER, CalibrationPlan, load_plan_csv, save_plan_csv
from stiffcal.elasto_id import DEFLECTION_CSV_HEADER, load_deflection_csv, save_deflection_csv
from stiffcal.errors import DataLayoutError
from stiffcal.geometry_id import MarkerDataset, load_marker_csv
from stiffcal.tables import read_table, write_table

MARKER_HEADER = ("q2_deg", "P1_x", "P1_y", "P01_x", "P01_y", "P02_x", "P02_y")
# each loader, its cell-loop oracle, its header and its integer columns
FORMATS = [(load_plan_csv, load_plan_csv_loop, PLAN_CSV_HEADER, ("repeats",)),
           (load_deflection_csv, load_deflection_csv_loop, DEFLECTION_CSV_HEADER,
            ("marker_id", "repeat")),
           (load_marker_csv, load_marker_csv_loop, MARKER_HEADER, ())]
LOADERS = [(loader, header) for loader, _, header, _ in FORMATS]

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


# cells the bulk pass reads differently from float()/int() or not at all:
# Python-only spellings, hex, a float in an int column, ids past 2**53 and
# past int64, quoting, odd whitespace, an overflow, a comment mark
ODD_CELLS = CELLS + ["1_000", "١٢", "0x10", "1.0", str(2**53 + 1), str(2**63),
                     str(-2**63 - 1), '"1,5"', '"2\n3"', '""', "\xa05", "5 ", "\x0c1",
                     "1e400", "#1", "-1", "0", "10001"]
float_text = st.one_of(finite_float.map(repr), finite_float.map("{:.10g}".format),
                       st.sampled_from(["1e5", "+3", "-0", ".5", "5.", "1E+02", " 7 ", "\t-2.5"]))
int_text = st.one_of(st.integers(1, 10000).map(str), st.integers(0, 2**63 - 1).map(str),
                     st.sampled_from([str(2**53 + 1), " 3 ", "+4", "007", "-1", str(2**63)]))


@st.composite
def csv_file(draw):
    """A format and the text of a file in it: rows the bulk pass reads, rows
    with one odd cell, blank, all-comma, short and random rows, mixed line
    ends, sometimes a byte-order mark or a header that is off."""
    loader, oracle, header, ints = draw(st.sampled_from(FORMATS))
    head = draw(st.sampled_from([",".join(header), ", ".join(header), ",".join(header[:-1])])
                if draw(st.integers(0, 7)) else text)

    def row():
        cells = [draw(int_text if name in ints else float_text) for name in header]
        kind = draw(st.integers(0, 15))
        if 10 <= kind < 13:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(ODD_CELLS))
        elif kind == 13:
            return ""
        elif kind == 14:
            return draw(st.sampled_from(["   ", "," * (len(header) - 1), ",".join(cells[:-1])]))
        elif kind == 15:
            return draw(text)
        return ",".join(cells)

    lines = [head] + [row() for _ in range(draw(st.integers(0, 6)))]
    ends = st.sampled_from(["\r\n"] * 4 + ["\n"] * 4 + ["\r"])
    body = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        body = body.rstrip("\r\n")
    return loader, oracle, header, ints, draw(st.sampled_from(["", "\ufeff"])) + body


def _arrays(loaded):
    """Every array a loaded table holds, as (dtype, shape, bytes)."""
    if isinstance(loaded, CalibrationPlan):
        assert all(type(e.repeats) is int for e in loaded.entries)
        arrays = [np.array([e.q_rad + e.wrench for e in loaded.entries]),
                  np.array([e.repeats for e in loaded.entries])]
    elif isinstance(loaded, MarkerDataset):
        arrays = [loaded.q2_rad, loaded.crank, *loaded.satellites]
    else:
        arrays = [getattr(loaded, f.name) for f in dataclasses.fields(loaded)]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _outcome(read, path):
    """``read(path)``, or the type and text of what it raised."""
    try:
        return read(path), None
    except Exception as exc:   # a loader may raise past DataLayoutError, the same way
        return None, f"{type(exc).__name__}: {exc}"


def _line(message):
    return int(re.match(r".*?\.csv:(\d+): ", message).group(1))


def _empty_lines(end):
    """A deflection table with empty lines after its header, between its
    rows and at its end, every line ended by ``end``."""
    row = ",".join(["1.5"] * 12 + ["0", "0.25", "-0.5", "0.75", "0"])
    lines = [",".join(DEFLECTION_CSV_HEADER), "", row, "", "", row, ""]
    return (load_deflection_csv, load_deflection_csv_loop, DEFLECTION_CSV_HEADER,
            ("marker_id", "repeat"), end.join(lines) + end)


@given(case=csv_file())
@example(case=_empty_lines("\n"))
@example(case=_empty_lines("\r\n"))
@example(case=FORMATS[2] + ('"q2\n_deg",P1_x\n1,2\n\n3,4\n',))   # a header over two lines
@settings(max_examples=400, deadline=None)
def test_read_table_matches_the_cell_loop(case):
    """The bulk pass with its fallback gives the cell loop's columns bit for
    bit and each row's line, or the loop's exact message."""
    _, _, header, ints, body = case
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "data.csv"
        p.write_bytes(body.encode("utf-8"))
        got, got_msg = _outcome(lambda path: read_table(path, ints=ints), p)
        want, want_msg = _outcome(lambda path: read_table_loop(path, ints=ints), p)
    assert got_msg == want_msg
    if want is not None:
        (cols, lines), (names, rows, want_lines) = got, want
        assert list(cols) == names and lines.tolist() == want_lines
        for j, name in enumerate(names):
            column = [r[j] for r in rows]
            if name in ints:
                assert cols[name].tolist() == column
            else:
                assert cols[name].dtype == np.float64
                assert cols[name].tobytes() == np.array(column, dtype=float).tobytes()


ROW_CHECK = re.compile(r": (column (marker_id|repeat)|repeats) must be [<>]= ")


@given(case=csv_file())
@settings(max_examples=400, deadline=None)
def test_loaders_match_the_cell_loop(case):
    """Each loader accepts what its cell-loop oracle accepts, with the same
    arrays bit for bit, and rejects the rest with the oracle's message.  The
    one difference: the oracle checks a row's ids or repeats as it reads the
    row, the loader after every cell has parsed, so a file with a bad id
    and a bad cell on a later line names the cell."""
    loader, oracle, _, _, body = case
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "data.csv"
        p.write_bytes(body.encode("utf-8"))
        got, got_msg = _outcome(loader, p)
        want, want_msg = _outcome(oracle, p)
    if got_msg == want_msg:
        assert want_msg is not None or _arrays(got) == _arrays(want)
    else:
        assert got_msg is not None and want_msg is not None, (got_msg, want_msg)
        assert ROW_CHECK.search(want_msg) and not ROW_CHECK.search(got_msg), (got_msg, want_msg)
        assert _line(got_msg) > _line(want_msg)


def _saved(tmp_path, loader):
    """A table in ``loader``'s format as the commands write it."""
    p = tmp_path / "plain.csv"
    if loader is load_plan_csv:
        save_plan_csv(p, spread_plan())
    elif loader is load_deflection_csv:
        save_deflection_csv(p, record_table([(np.radians([10, -90, 45, 0, 0, 180]),
                                              [0, 0, -2600, 0, 0, 0], 1, [0.1, -0.2, 0.3], 2)]))
    else:
        p.write_bytes((Path(__file__).parents[1] / "data" / "table1.csv").read_bytes())
    return p


@pytest.mark.parametrize("loader", [load_plan_csv, load_deflection_csv, load_marker_csv])
def test_a_byte_order_mark_is_ignored(tmp_path, loader):
    """A table saved as "CSV UTF-8" by a spreadsheet starts with a BOM."""
    plain = _saved(tmp_path, loader)
    with_bom = tmp_path / "bom.csv"
    with_bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert _arrays(loader(with_bom)) == _arrays(loader(plain))


@pytest.mark.parametrize("empty", [None, b"\n", b"\r\n"])
@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
@pytest.mark.parametrize("loader", [load_plan_csv, load_deflection_csv, load_marker_csv])
def test_a_well_formed_table_takes_the_bulk_pass(tmp_path, monkeypatch, loader, bom, empty):
    """Also with empty lines (ended by LF or CRLF) after the header,
    between the rows and at the end: each row keeps its line in the file."""
    def cell_loop(*args):
        raise AssertionError("the cell loop re-read a well-formed table")

    p = _saved(tmp_path, loader)
    want = _arrays(loader(p))
    text = p.read_bytes()
    if empty is not None:
        lines = text.replace(b"\r\n", b"\n").split(b"\n")[:-1]
        lines = lines[:1] + [b""] + lines[1:2] + [b"", b""] + lines[2:] + [b""]
        text = empty.join(lines) + empty
    p.write_bytes(bom + text)
    want_lines = read_table_loop(p)[2]
    monkeypatch.setattr(tables, "_read_cells", cell_loop)
    assert _arrays(loader(p)) == want
    assert read_table(p)[1].tolist() == want_lines
    if empty is not None:
        assert want_lines == [3] + list(range(6, 5 + len(want_lines)))


def test_a_field_past_the_csv_limit_is_refused(tmp_path):
    """``loadtxt`` reads a padded cell of any length; the csv module, and so
    the reader, refuses one longer than its field limit."""
    p = tmp_path / "wide.csv"
    p.write_text("a,b\n1," + " " * csv.field_size_limit() + "2\n")
    with pytest.raises(DataLayoutError, match=r"wide\.csv:2: field larger than field limit"):
        read_table(p)


def test_a_header_only_table_is_empty_without_a_warning(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("a,b\r\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cols, lines = read_table(p, ints=("b",))
    assert not caught
    assert lines.size == cols["a"].size == cols["b"].size == 0
    assert (cols["a"].dtype, cols["b"].dtype) == (np.float64, np.int64)


def test_a_row_check_comes_after_every_cell(tmp_path):
    """A bad id is found once every cell has parsed: with a bad cell on a
    later line the cell is named; with two bad ids, the first."""
    good = ["0"] * len(DEFLECTION_CSV_HEADER)
    bad_id = good[:12] + ["-1"] + good[13:]
    p = tmp_path / "two.csv"
    for later, named in [(good[:3] + ["x"] + good[4:], r"two\.csv:3: column q4_deg: "),
                         (good[:16] + ["-2"], r"two\.csv:2: column marker_id must be >= 0, got -1$")]:
        p.write_text("\n".join(",".join(r) for r in (DEFLECTION_CSV_HEADER, bad_id, later)))
        with pytest.raises(DataLayoutError, match=named):
            load_deflection_csv(p)
