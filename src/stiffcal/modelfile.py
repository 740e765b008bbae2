"""Robot model files: a strict YAML schema for the manipulator description.

The file is plain key/value + arrays.  Each section's keys are the fields
of its model type, which holds their defaults and checks their values.
Unknown keys are rejected so typos fail loudly rather than silently falling
back to defaults, and every number must be finite.  Schema::

    joints:                      # exactly 6 entries, base outwards
      - axis: [0, 0, 1]                  # unit vector, parent frame
        link_translation_mm: [x, y, z]   # fixed link transform to next joint
        link_rotation_rpy_rad: [r, p, y] # optional, default zeros
        compliance_rad_per_Nmm: 3.0e-10  # joint elastic compliance
        mass_kg: 350.0                   # optional, default 0
        com_mm: [x, y, z]                # optional, default mid-link
    base: {translation_mm: [...], rotation_rpy_rad: [...]}   # optional
    tool: {translation_mm: [...], rotation_rpy_rad: [...]}   # optional
    markers: [[x, y, z], ...]    # optional tool-frame offsets, ids = indices
    gravity: [0, 0, -9.81]       # optional, N/kg
    compensator:                 # optional gravity-compensator block
      L_mm: 185.0
      ax_mm: 25.0
      ay_mm: 695.0
      Kc_N_per_mm: 6000.0
      s0_mm: 458.0
      q2_sign: 1                 # optional, +1/-1
"""
from __future__ import annotations

import dataclasses
import os
from typing import Any, Mapping

import yaml

from .compensator import CompensatorElastics, CompensatorGeometry, CompensatorParams
from .errors import ModelFileError
from .robot import FrameSpec, JointSpec, ManipulatorModel


def _require_mapping(obj: Any, where: str) -> Mapping:
    if not isinstance(obj, Mapping):
        raise ModelFileError(f"{where}: expected a mapping, got {type(obj).__name__}")
    return obj


def _require_list(obj: Any, where: str) -> list:
    if not isinstance(obj, (list, tuple)):
        raise ModelFileError(f"{where}: expected a list, got {type(obj).__name__}")
    return obj


def _section(obj: Any, where: str, *types, **nested) -> list:
    """One instance of each dataclass in ``types`` from the mapping ``obj``,
    whose keys are split among the types' fields.  A field is required when
    it has no default.  ``nested`` maps a key to the parser of its value, run
    once the keys are checked."""
    m = _require_mapping(obj, where)
    fields = [f for t in types for f in dataclasses.fields(t)]
    unknown = set(m) - {f.name for f in fields}
    if unknown:
        raise ModelFileError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = {f.name for f in fields if f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING} - set(m)
    if missing:
        raise ModelFileError(f"{where}: missing required key(s) {sorted(missing)}")
    m = {k: nested[k](v) if k in nested else v for k, v in m.items()}
    try:
        return [t(**{f.name: m[f.name] for f in dataclasses.fields(t) if f.name in m})
                for t in types]
    except (ValueError, TypeError) as exc:
        raise ModelFileError(f"{where}: {exc}") from exc


def load_model(path: str | os.PathLike) -> ManipulatorModel:
    """Parse and validate a robot model file.

    Raises :class:`ModelFileError` naming the offending field on schema or
    invariant violations; YAML syntax errors keep the parser's line/column.
    Parses with libyaml when PyYAML was built with it; both safe loaders
    share one constructor, so the document is the same.
    """
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=loader)
    except OSError as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ModelFileError(f"YAML parse error in {path}: {exc}") from exc

    return _section(
        doc, "model file", ManipulatorModel,
        joints=lambda v: [_section(j, f"joints[{i}]", JointSpec)[0]
                          for i, j in enumerate(_require_list(v, "joints"))],
        base=lambda v: _section(v, "base", FrameSpec)[0],
        tool=lambda v: _section(v, "tool", FrameSpec)[0],
        markers=lambda v: _require_list(v, "markers"),
        compensator=lambda v: CompensatorParams(
            *_section(v, "compensator", CompensatorGeometry, CompensatorElastics)),
    )[0]
