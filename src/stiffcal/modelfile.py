"""Robot model files: a strict YAML schema for the manipulator description.

The file is composed into YAML nodes by libyaml when PyYAML has it, else by
PyYAML's pure-Python safe loader, and the nodes are walked into values
here: mappings (merge keys ``<<`` flattened by PyYAML), sequences, strings
and plain floats are read directly; ints, bools, nulls, floats written with
``_`` or ``:`` and nodes of any other tag go to PyYAML's safe constructors,
so the values are the ones ``yaml.safe_load`` gives.  A recursive alias (a
node that contains itself) is refused with its line.

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
import functools
import os
from collections.abc import Hashable
from typing import Any, Mapping

import yaml
from yaml.constructor import ConstructorError
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

from .compensator import CompensatorElastics, CompensatorGeometry, CompensatorParams
from .errors import ModelFileError
from .robot import FrameSpec, JointSpec, ManipulatorModel


_STR, _FLOAT, _SEQ, _MAP = (f"tag:yaml.org,2002:{t}" for t in ("str", "float", "seq", "map"))


def _read(loader) -> Any:
    """The document of ``loader`` as the safe loader's ``get_single_data``
    would construct it, walked from its composed nodes.  Merge keys are
    flattened by PyYAML; a float without ``_`` or ``:`` is ``float`` of its
    text; other floats and nodes of any other tag (ints, bools, nulls, ...)
    are PyYAML's.  Aliased collections are built once.  A node that contains
    itself raises ``ConstructorError`` at its mark."""
    built = {}   # collection node -> its value, or None while it is built

    def value(node):
        kind, tag = type(node), node.tag
        if kind is ScalarNode:
            text = node.value
            if tag == _FLOAT and "_" not in text and ":" not in text:
                try:
                    return float(text)
                except ValueError:   # .inf, .nan and what PyYAML refuses
                    pass
            elif tag == _STR:
                return text
        elif kind is SequenceNode and tag == _SEQ or kind is MappingNode and tag == _MAP:
            out = built.get(node, built)
            if out is not built:
                if out is None:
                    raise ConstructorError(None, None, "found a recursive alias: "
                                           "a node that contains itself", node.start_mark)
                return out
            built[node] = None
            if kind is SequenceNode:
                out = [value(item) for item in node.value]
            else:
                loader.flatten_mapping(node)
                out = {}
                for key_node, value_node in node.value:
                    if type(key_node) is ScalarNode and key_node.tag == _STR:
                        key = key_node.value
                    else:   # as PyYAML, which reads no item of a collection key
                        key = loader.construct_object(key_node)
                        if not isinstance(key, Hashable):
                            raise ConstructorError(
                                "while constructing a mapping", node.start_mark,
                                "found unhashable key", key_node.start_mark)
                    out[key] = value(value_node)
            built[node] = out
            return out
        return loader.construct_object(node, deep=True)

    try:
        node = loader.get_single_node()
        return None if node is None else value(node)
    finally:
        del value   # it refers to itself: without this, a cycle keeps every node


def _require_mapping(obj: Any, where: str) -> Mapping:
    if not isinstance(obj, Mapping):
        raise ModelFileError(f"{where}: expected a mapping, got {type(obj).__name__}")
    return obj


def _require_list(obj: Any, where: str) -> list:
    if not isinstance(obj, (list, tuple)):
        raise ModelFileError(f"{where}: expected a list, got {type(obj).__name__}")
    return obj


@functools.cache
def _fields(types: tuple) -> tuple:
    """Per type of ``types`` its field names, all the names, and the names
    without a default."""
    names = tuple(tuple(f.name for f in dataclasses.fields(t)) for t in types)
    required = frozenset(f.name for t in types for f in dataclasses.fields(t)
                         if f.default is dataclasses.MISSING
                         and f.default_factory is dataclasses.MISSING)
    return names, frozenset(n for ns in names for n in ns), required


def _section(obj: Any, where: str, *types, **nested) -> list:
    """One instance of each dataclass in ``types`` from the mapping ``obj``,
    whose keys are split among the types' fields.  A field is required when
    it has no default.  ``nested`` maps a key to the parser of its value, run
    once the keys are checked."""
    m = _require_mapping(obj, where)
    names, known, required = _fields(types)
    unknown = m.keys() - known
    if unknown:
        raise ModelFileError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = required - m.keys()
    if missing:
        raise ModelFileError(f"{where}: missing required key(s) {sorted(missing)}")
    m = {k: nested[k](v) if k in nested else v for k, v in m.items()}
    try:
        return [t(**{n: m[n] for n in ns if n in m}) for t, ns in zip(types, names)]
    except (ValueError, TypeError) as exc:
        raise ModelFileError(f"{where}: {exc}") from exc


def load_model(path: str | os.PathLike) -> ManipulatorModel:
    """Parse and validate a robot model file.

    Raises :class:`ModelFileError` naming the offending field on schema or
    invariant violations; YAML syntax errors keep the parser's line/column.
    The document is read as the module docstring says, into the values
    ``yaml.safe_load`` gives.  A recursive alias, a document nested too
    deeply to walk and a tagged value PyYAML cannot read (``!!bool maybe``)
    raise it as well.
    """
    loader_cls = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loader = loader_cls(fh)
            try:
                doc = _read(loader)
            finally:
                loader.dispose()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ModelFileError(f"YAML parse error in {path}: {exc}") from exc
    except (ValueError, KeyError) as exc:   # PyYAML's own, e.g. on `!!bool maybe`
        raise ModelFileError(f"YAML parse error in {path}: "
                             f"{type(exc).__name__}: {exc}") from exc
    except RecursionError as exc:
        raise ModelFileError(f"YAML parse error in {path}: nested too deeply") from exc

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
