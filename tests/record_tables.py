"""Deflection-record tables built from rows, cut into rows or resliced."""

import dataclasses

import numpy as np

from stiffcal.elasto_id import DeflectionRecords


def table(rows):
    """The table of ``(q_rad, wrench, marker_id, deflection_mm[, repeat])``
    rows; ``repeat`` defaults to 0."""
    q, w, m, d, r = zip(*(tuple(row) + (0,) * (5 - len(row)) for row in rows))
    return DeflectionRecords(np.array(q, dtype=float), np.array(w, dtype=float),
                             np.array(m, dtype=int), np.array(r, dtype=int),
                             np.array(d, dtype=float))


def rows(records):
    """Each record of ``records`` as ``(q_rad, wrench, marker_id,
    deflection_mm, repeat)``."""
    return list(zip(records.q_rad, records.wrench, records.marker_id.tolist(),
                    records.deflection_mm, records.repeat.tolist()))


def take(records, index):
    """The records at ``index`` (a slice, a list of rows or a mask), as a table."""
    return DeflectionRecords(**{f.name: getattr(records, f.name)[index]
                                for f in dataclasses.fields(records)})
