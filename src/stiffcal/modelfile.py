"""Robot model files: a strict YAML schema for the manipulator description.

The file is plain key/value + arrays.  Unknown keys are rejected so typos
fail loudly rather than silently falling back to defaults, and every
number must be finite.  Schema::

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

import os
from typing import Any, Mapping

import numpy as np
import yaml

from .compensator import CompensatorElastics, CompensatorGeometry, CompensatorParams
from .errors import ModelFileError
from .robot import FrameSpec, JointSpec, ManipulatorModel

_JOINT_KEYS = {"axis", "link_translation_mm", "link_rotation_rpy_rad",
               "compliance_rad_per_Nmm", "mass_kg", "com_mm"}
_FRAME_KEYS = {"translation_mm", "rotation_rpy_rad"}
_TOP_KEYS = {"joints", "base", "tool", "markers", "gravity", "compensator"}
_COMP_KEYS = {"L_mm", "ax_mm", "ay_mm", "Kc_N_per_mm", "s0_mm", "q2_sign"}


def _require_mapping(obj: Any, where: str) -> Mapping:
    if not isinstance(obj, Mapping):
        raise ModelFileError(f"{where}: expected a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(obj: Mapping, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ModelFileError(f"{where}: unknown key(s) {sorted(unknown)}")


def _frame(obj: Any, where: str) -> FrameSpec:
    m = _require_mapping(obj, where)
    _check_keys(m, _FRAME_KEYS, where)
    try:
        return FrameSpec(
            translation_mm=m.get("translation_mm"),
            rotation_rpy_rad=m.get("rotation_rpy_rad"),
        )
    except (ValueError, TypeError) as exc:
        raise ModelFileError(f"{where}: {exc}") from exc


def _joint(obj: Any, where: str) -> JointSpec:
    m = _require_mapping(obj, where)
    _check_keys(m, _JOINT_KEYS, where)
    for key in ("axis", "link_translation_mm", "compliance_rad_per_Nmm"):
        if key not in m:
            raise ModelFileError(f"{where}: missing required key '{key}'")
    try:
        return JointSpec(
            axis=m["axis"],
            link_translation_mm=m["link_translation_mm"],
            link_rotation_rpy_rad=m.get("link_rotation_rpy_rad", (0.0, 0.0, 0.0)),
            compliance_rad_per_Nmm=float(m["compliance_rad_per_Nmm"]),
            mass_kg=float(m.get("mass_kg", 0.0)),
            com_mm=m.get("com_mm"),
        )
    except (ValueError, TypeError) as exc:
        raise ModelFileError(f"{where}: {exc}") from exc


def _compensator(obj: Any, where: str) -> CompensatorParams:
    m = _require_mapping(obj, where)
    _check_keys(m, _COMP_KEYS, where)
    missing = {"L_mm", "ax_mm", "ay_mm", "Kc_N_per_mm", "s0_mm"} - set(m)
    if missing:
        raise ModelFileError(f"{where}: missing required key(s) {sorted(missing)}")
    try:
        geom = CompensatorGeometry(L_mm=float(m["L_mm"]), ax_mm=float(m["ax_mm"]),
                                   ay_mm=float(m["ay_mm"]),
                                   q2_sign=float(m.get("q2_sign", 1.0)))
        el = CompensatorElastics(Kc_N_per_mm=float(m["Kc_N_per_mm"]),
                                 s0_mm=float(m["s0_mm"]))
        return CompensatorParams(geometry=geom, elastics=el)
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

    m = _require_mapping(doc, "model file")
    _check_keys(m, _TOP_KEYS, "model file")
    if "joints" not in m:
        raise ModelFileError("model file: missing required key 'joints'")
    joints_raw = m["joints"]
    if not isinstance(joints_raw, (list, tuple)):
        raise ModelFileError("joints: expected a list")
    if len(joints_raw) != 6:
        raise ModelFileError(f"joints: exactly 6 joints required, got {len(joints_raw)}")
    joints = [_joint(j, f"joints[{i}]") for i, j in enumerate(joints_raw)]

    base = _frame(m["base"], "base") if "base" in m else FrameSpec()
    tool = _frame(m["tool"], "tool") if "tool" in m else FrameSpec()

    markers = []
    if "markers" in m:
        if not isinstance(m["markers"], (list, tuple)):
            raise ModelFileError("markers: expected a list of 3-vectors")
        for i, mk in enumerate(m["markers"]):
            try:
                arr = np.asarray(mk, dtype=float)
            except (ValueError, TypeError):
                arr = None
            if arr is None or arr.shape != (3,) or not np.isfinite(arr).all():
                raise ModelFileError(f"markers[{i}]: expected a 3-vector of finite numbers")
            markers.append(arr)

    comp = _compensator(m["compensator"], "compensator") if "compensator" in m else None

    try:
        model = ManipulatorModel(joints=joints, base=base, tool=tool,
                                 markers=markers, gravity=m.get("gravity"),
                                 compensator=comp)
    except (ValueError, TypeError) as exc:
        raise ModelFileError(f"model file: {exc}") from exc
    return model
