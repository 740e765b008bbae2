import dataclasses
import hashlib
import pathlib
import re
import textwrap

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from stiffcal.cli import main
from stiffcal.compensator import CompensatorElastics, CompensatorGeometry, CompensatorParams
from stiffcal.errors import ModelFileError
from stiffcal.modelfile import _read, load_model
from stiffcal.robot import FrameSpec, JointSpec, ManipulatorModel

MINIMAL = textwrap.dedent("""\
    joints:
      - {axis: [0, 0, 1], link_translation_mm: [350, 0, 675], compliance_rad_per_Nmm: 2.5e-10}
      - {axis: [0, 1, 0], link_translation_mm: [1150, 0, 0], compliance_rad_per_Nmm: 3.0e-10}
      - {axis: [0, 1, 0], link_translation_mm: [1000, 0, 41], compliance_rad_per_Nmm: 4.0e-10}
      - {axis: [1, 0, 0], link_translation_mm: [200, 0, 0], compliance_rad_per_Nmm: 3.0e-9}
      - {axis: [0, 1, 0], link_translation_mm: [0, 0, 0], compliance_rad_per_Nmm: 3.3e-9}
      - {axis: [1, 0, 0], link_translation_mm: [240, 0, 0], compliance_rad_per_Nmm: 2.4e-9}
    """)


def _write(tmp_path, text, name="m.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_reference_model_loads(model_path):
    model = load_model(model_path)
    assert len(model.joints) == 6
    assert model.compensator is not None
    assert model.compensator.geometry.L_mm == pytest.approx(185.0)
    assert len(model.markers) == 3


def test_readme_schema_example_loads(tmp_path):
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```yaml\n(.*?)```", readme.read_text(), re.S).group(1)
    doc = yaml.safe_load(block)
    doc["joints"] = doc["joints"] * 6   # the example shows one joint entry
    model = load_model(_write(tmp_path, yaml.safe_dump(doc)))
    assert len(model.joints) == 6
    assert model.compensator is not None


def test_minimal_model(tmp_path):
    model = load_model(_write(tmp_path, MINIMAL))
    assert model.compensator is None
    assert model.markers == [] or len(model.markers) == 0
    assert np.allclose(model.joints[0].axis, [0, 0, 1])


def test_defaults_mass_and_rotation(tmp_path):
    model = load_model(_write(tmp_path, MINIMAL))
    j = model.joints[1]
    assert j.mass_kg == 0.0
    assert np.allclose(j.link_rotation_rpy_rad, 0.0)
    # default com: middle of the link
    assert np.allclose(j.com_mm, [575, 0, 0])


def test_null_link_rotation_is_the_default(tmp_path):
    text = MINIMAL.replace("compliance_rad_per_Nmm: 3.0e-9}",
                           "compliance_rad_per_Nmm: 3.0e-9, link_rotation_rpy_rad: null}")
    assert text != MINIMAL
    assert np.array_equal(load_model(_write(tmp_path, text)).joints[3].link_rotation_rpy_rad,
                          np.zeros(3))


def test_exponent_without_point_reads_as_number(tmp_path):
    """YAML 1.1 reads ``3e-10`` as a string; the model types convert it."""
    text = MINIMAL.replace("2.5e-10", "25e-11") + textwrap.dedent("""\
        compensator: {L_mm: 185, ax_mm: 25, ay_mm: 695, Kc_N_per_mm: 6e3, s0_mm: 458}
        """)
    assert isinstance(yaml.safe_load(text)["compensator"]["Kc_N_per_mm"], str)
    model = load_model(_write(tmp_path, text))
    assert model.joints[0].compliance_rad_per_Nmm == 2.5e-10
    el = model.compensator.elastics
    assert (el.Kc_N_per_mm, type(el.Kc_N_per_mm)) == (6000.0, float)


def test_unknown_top_key(tmp_path):
    with pytest.raises(ModelFileError, match=r"unknown key\(s\).*'payload'"):
        load_model(_write(tmp_path, MINIMAL + "payload: 5\n"))


def test_unknown_joint_key_names_entry(tmp_path):
    bad = MINIMAL.replace(
        "compliance_rad_per_Nmm: 2.4e-9}",
        "compliance_rad_per_Nmm: 2.4e-9, stiffnes: 1}")
    with pytest.raises(ModelFileError, match=r"joints\[5\].*stiffnes"):
        load_model(_write(tmp_path, bad))


def test_missing_compliance_names_field(tmp_path):
    bad = MINIMAL.replace(", compliance_rad_per_Nmm: 3.0e-10}", "}", 1)
    with pytest.raises(ModelFileError,
                       match=r"joints\[1\]: missing required key\(s\) \['compliance_rad_per_Nmm'\]"):
        load_model(_write(tmp_path, bad))


def test_wrong_joint_count(tmp_path):
    lines = MINIMAL.strip().splitlines()
    with pytest.raises(ModelFileError, match="model file: exactly 6 joints required, got 5"):
        load_model(_write(tmp_path, "\n".join(lines[:-1]) + "\n"))


def test_non_unit_axis_rejected(tmp_path):
    bad = MINIMAL.replace("axis: [0, 0, 1]", "axis: [0, 0, 2]")
    with pytest.raises(ModelFileError, match=r"joints\[0\]"):
        load_model(_write(tmp_path, bad))


def test_missing_joints_key(tmp_path):
    with pytest.raises(ModelFileError, match=r"model file: missing required key\(s\) \['joints'\]"):
        load_model(_write(tmp_path, "markers: [[0, 0, 0]]\n"))


def test_markers_must_be_3vectors(tmp_path):
    with pytest.raises(ModelFileError, match=r"markers\[1\]"):
        load_model(_write(tmp_path, MINIMAL + "markers: [[1, 2, 3], [1, 2]]\n"))


def test_yaml_syntax_error_wrapped(tmp_path):
    with pytest.raises(ModelFileError, match="YAML parse error"):
        load_model(_write(tmp_path, "joints: [\n"))


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML without libyaml")
def test_parses_with_libyaml_when_available(model_path, monkeypatch):
    used = []

    class Spy(yaml.CSafeLoader):
        def __init__(self, stream):
            used.append(True)
            super().__init__(stream)

    monkeypatch.setattr(yaml, "CSafeLoader", Spy)
    load_model(model_path)
    assert used


def test_pure_python_loader_gives_the_same_model(model_path, monkeypatch):
    fast = load_model(model_path)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    slow = load_model(model_path)
    for a, b in zip(fast.joints, slow.joints):
        for f in ("axis", "link_translation_mm", "link_rotation_rpy_rad", "com_mm"):
            assert np.array_equal(getattr(a, f), getattr(b, f))
        assert (a.compliance_rad_per_Nmm, a.mass_kg) == (b.compliance_rad_per_Nmm, b.mass_kg)
    assert np.array_equal(np.stack(fast.markers), np.stack(slow.markers))
    assert np.array_equal(fast.gravity, slow.gravity)
    assert np.array_equal(fast.tool.translation_mm, slow.tool.translation_mm)
    assert fast.compensator == slow.compensator


def _parsed_values(model) -> dict:
    """The model's values as read from its file, each as bytes: every joint
    field, the markers, gravity, base, tool and the compensator's fields."""
    out = {}
    for i, j in enumerate(model.joints):
        for f in dataclasses.fields(j):
            out[f"joints[{i}].{f.name}"] = np.asarray(getattr(j, f.name)).tobytes()
    out["markers"] = np.array(model.markers).tobytes()
    out["gravity"] = model.gravity.tobytes()
    for frame in ("base", "tool"):
        for f in dataclasses.fields(FrameSpec):
            out[f"{frame}.{f.name}"] = getattr(getattr(model, frame), f.name).tobytes()
    comp = model.compensator
    for part in () if comp is None else (comp.geometry, comp.elastics):
        for f in dataclasses.fields(part):
            out[f"compensator.{f.name}"] = np.float64(getattr(part, f.name)).tobytes()
    return out


def _same_model(a, b) -> None:
    """``a`` and ``b`` hold the same values and derived arrays, bit for bit."""
    assert _parsed_values(a) == _parsed_values(b)
    assert a.compensator == b.compensator
    for name in ("_link_R", "_link_p", "_axes", "_axis_K", "_axis_kk", "_R_base", "_R_tool",
                 "_joint_stiffness"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a._link_turns == b._link_turns
    assert a._gravity_loading.wrenches.tobytes() == b._gravity_loading.wrenches.tobytes()


@pytest.fixture(params=["libyaml", "pure-python"])
def yaml_loader(request, monkeypatch):
    """The loader class ``load_model`` composes with: libyaml's, or, with
    ``yaml.CSafeLoader`` removed, PyYAML's pure-Python safe loader."""
    if request.param == "pure-python":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    elif not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML without libyaml")
    return getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def test_reference_model_is_the_safe_load_build(model_path, yaml_loader):
    """The walked document builds the model that ``yaml.safe_load``'s
    document builds through the model types, bit for bit; its parsed values
    are the ones the model file has always given (a pinned digest)."""
    doc = yaml.safe_load(model_path.read_text())
    comp = doc["compensator"]
    want = ManipulatorModel(
        joints=[JointSpec(**j) for j in doc["joints"]], tool=FrameSpec(**doc["tool"]),
        markers=doc["markers"], gravity=doc["gravity"],
        compensator=CompensatorParams(
            CompensatorGeometry(**{k: comp[k] for k in ("L_mm", "ax_mm", "ay_mm")}),
            CompensatorElastics(**{k: comp[k] for k in ("Kc_N_per_mm", "s0_mm")})))
    got = load_model(model_path)
    _same_model(got, want)
    values = _parsed_values(got)
    digest = hashlib.sha256(b"".join(k.encode() + v for k, v in sorted(values.items())))
    assert digest.hexdigest() == (
        "801b0e16966976a1b9ca99e3a7d0e57c50e1746ccde9c2ecd3d285b2f38680d8")


def test_merge_key_and_aliased_list_give_the_written_out_model(tmp_path, yaml_loader):
    aliased = MINIMAL.replace(
        "- {axis: [0, 1, 0], link_translation_mm: [1150, 0, 0], compliance_rad_per_Nmm: 3.0e-10}",
        "- &j2 {axis: &y [0, 1, 0], link_translation_mm: [1150, 0, 0], "
        "compliance_rad_per_Nmm: 3.0e-10}").replace(
        "- {axis: [0, 1, 0], link_translation_mm: [1000, 0, 41], compliance_rad_per_Nmm: 4.0e-10}",
        "- {<<: *j2, link_translation_mm: [1000, 0, 41], compliance_rad_per_Nmm: 4.0e-10}"
    ).replace("- {axis: [0, 1, 0], link_translation_mm: [0, 0, 0]",
              "- {axis: *y, link_translation_mm: [0, 0, 0]")
    assert aliased.count("*") == 2 and "<<" in aliased
    _same_model(load_model(_write(tmp_path, aliased, "aliased.yaml")),
                load_model(_write(tmp_path, MINIMAL)))


def test_recursive_alias_is_refused_naming_its_line(tmp_path, yaml_loader, capsys):
    path = _write(tmp_path, MINIMAL + "markers: [&r [120.0, 0.0, *r]]\n")
    with pytest.raises(ModelFileError, match=r"(?s)recursive alias.*line 8, column 11"):
        load_model(path)
    assert main(["predict", "--model", str(path), "--q=0,-45,0,0,0,0",
                 "--out", str(tmp_path / "out")]) == 2
    assert "recursive alias" in capsys.readouterr().err


def test_deeply_nested_document_is_refused(tmp_path, yaml_loader):
    path = _write(tmp_path, MINIMAL + "markers: " + "[" * 5000 + "1" + "]" * 5000 + "\n")
    with pytest.raises(ModelFileError, match=r"YAML parse error"):
        load_model(path)


def test_unhashable_key_is_a_parse_error(tmp_path, yaml_loader):
    with pytest.raises(ModelFileError, match=r"(?s)YAML parse error.*unhashable key"):
        load_model(_write(tmp_path, MINIMAL + "? [1, 2] : 3\n"))


@pytest.mark.parametrize("value", ["2001-12-14", "!!binary aGVsbG8="])
def test_tagged_mass_is_not_a_number(tmp_path, yaml_loader, value):
    text = MINIMAL.replace("compliance_rad_per_Nmm: 2.5e-10}",
                           f"compliance_rad_per_Nmm: 2.5e-10, mass_kg: {value}}}")
    with pytest.raises(ModelFileError, match=r"joints\[0\]: mass_kg must be a number"):
        load_model(_write(tmp_path, text))


@pytest.mark.parametrize("value", ["!!bool maybe", "!!float abc", "!!int 0x"])
def test_tagged_value_pyyaml_cannot_read_is_a_parse_error(tmp_path, yaml_loader, value):
    text = MINIMAL.replace("compliance_rad_per_Nmm: 2.5e-10}",
                           f"compliance_rad_per_Nmm: 2.5e-10, mass_kg: {value}}}")
    with pytest.raises(ModelFileError, match=r"YAML parse error"):
        load_model(_write(tmp_path, text))


def test_yaml_1_1_numbers_read_as_pyyaml_reads_them(tmp_path, yaml_loader):
    """Octal ints, underscores and sexagesimal floats take PyYAML's reading."""
    text = MINIMAL.replace(
        "compliance_rad_per_Nmm: 2.5e-10}", "compliance_rad_per_Nmm: 2.5e-10, mass_kg: 1_000.5}"
    ).replace(
        "compliance_rad_per_Nmm: 3.0e-10}", "compliance_rad_per_Nmm: 3.0e-10, mass_kg: 010}"
    ) + textwrap.dedent("""\
        compensator: {L_mm: 3:05.0, ax_mm: 2_5.0, ay_mm: 695.0, Kc_N_per_mm: 6e3,
                      s0_mm: 7:38.0, q2_sign: 01}
        """)
    doc = yaml.safe_load(text)
    model = load_model(_write(tmp_path, text))
    masses = [j["mass_kg"] for j in doc["joints"][:2]]
    assert [j.mass_kg for j in model.joints[:2]] == masses == [1000.5, 8]
    comp = doc["compensator"]
    geo, el = model.compensator.geometry, model.compensator.elastics
    assert (geo.L_mm, geo.ax_mm, el.s0_mm) == (comp["L_mm"], comp["ax_mm"], comp["s0_mm"])
    assert (geo.L_mm, geo.ax_mm, el.s0_mm) == (185.0, 25.0, 458.0)
    assert comp["q2_sign"] == geo.q2_sign == 1


_DOCS = st.recursive(
    st.floats(allow_nan=False) | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.text(max_size=8) | st.integers(), inner, max_size=4),
    max_leaves=30)


@pytest.mark.parametrize("yaml_loader", [
    pytest.param(getattr(yaml, "CSafeLoader", None), id="libyaml", marks=pytest.mark.skipif(
        not hasattr(yaml, "CSafeLoader"), reason="PyYAML without libyaml")),
    pytest.param(yaml.SafeLoader, id="pure-python")])
@given(doc=_DOCS)
@settings(max_examples=150, deadline=None)
def test_walked_document_is_the_safe_load_document(yaml_loader, doc):
    """Documents of nested maps, lists, floats, ints and strings, written by
    ``yaml.safe_dump``, walk into what the safe loaders construct: equal
    values of equal types, signed zeros and infinities included."""
    text = yaml.safe_dump(doc)
    loader = yaml_loader(text)
    try:
        walked = _read(loader)
    finally:
        loader.dispose()
    assert repr(walked) == repr(yaml.safe_load(text)) == repr(yaml.load(text, yaml_loader))


@pytest.mark.parametrize("libyaml", [True, False])
def test_yaml_syntax_error_keeps_line_number(tmp_path, monkeypatch, libyaml):
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    bad = _write(tmp_path, MINIMAL + "markers: [[1, 2, 3]\n")
    with pytest.raises(ModelFileError,
                       match=r"(?s)YAML parse error in .*m\.yaml.*line 8, column"):
        load_model(bad)


def test_missing_file(tmp_path):
    with pytest.raises(ModelFileError, match="cannot read model file"):
        load_model(tmp_path / "nope.yaml")


def test_compensator_block_parsed(tmp_path):
    text = MINIMAL + textwrap.dedent("""\
        compensator:
          L_mm: 185.0
          ax_mm: 25.0
          ay_mm: 695.0
          Kc_N_per_mm: 6000.0
          s0_mm: 458.0
          q2_sign: -1
        """)
    comp = load_model(_write(tmp_path, text)).compensator
    assert comp.geometry.q2_sign == -1
    assert comp.elastics.s0_mm == pytest.approx(458.0)
    assert comp.geometry.a_mm == pytest.approx(np.hypot(25.0, 695.0))


def test_compensator_missing_keys_listed(tmp_path):
    text = MINIMAL + "compensator: {L_mm: 185.0, ax_mm: 25.0}\n"
    with pytest.raises(ModelFileError,
                       match=r"compensator: missing required key\(s\)"):
        load_model(_write(tmp_path, text))


def test_compensator_bad_sign(tmp_path):
    text = MINIMAL + textwrap.dedent("""\
        compensator:
          L_mm: 185.0
          ax_mm: 25.0
          ay_mm: 695.0
          Kc_N_per_mm: 6000.0
          s0_mm: 458.0
          q2_sign: 0
        """)
    with pytest.raises(ModelFileError, match=r"q2_sign must be \+1 or -1"):
        load_model(_write(tmp_path, text))


def test_compensator_anchor_inside_crank(tmp_path):
    text = MINIMAL + textwrap.dedent("""\
        compensator:
          L_mm: 185.0
          ax_mm: 3.0
          ay_mm: 4.0
          Kc_N_per_mm: 6000.0
          s0_mm: 458.0
        """)
    with pytest.raises(ModelFileError, match="anchor distance"):
        load_model(_write(tmp_path, text))


def test_document_must_be_mapping(tmp_path):
    with pytest.raises(ModelFileError, match="model file: expected a mapping"):
        load_model(_write(tmp_path, "- 1\n- 2\n"))


def test_gravity_override(tmp_path):
    model = load_model(_write(tmp_path, MINIMAL + "gravity: [0, 0, -10]\n"))
    assert np.allclose(model.gravity, [0, 0, -10])


INF, NAN = float("inf"), float("nan")


def _set(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


NON_FINITE = [
    (("joints", 0, "link_translation_mm"), [350.0, 0.0, INF],
     r"joints\[0\]: link_translation_mm must be finite"),
    (("joints", 2, "link_rotation_rpy_rad"), [0.0, INF, 0.0],
     r"joints\[2\]: link_rotation_rpy_rad must be finite"),
    (("joints", 1, "axis"), [NAN, 0.0, 1.0], r"joints\[1\]: axis must be finite"),
    (("joints", 3, "compliance_rad_per_Nmm"), NAN,
     r"joints\[3\]: compliance_rad_per_Nmm must be finite"),
    (("joints", 3, "compliance_rad_per_Nmm"), INF,
     r"joints\[3\]: compliance_rad_per_Nmm must be finite"),
    (("joints", 4, "mass_kg"), NAN, r"joints\[4\]: mass_kg must be finite"),
    (("joints", 4, "mass_kg"), INF, r"joints\[4\]: mass_kg must be finite"),
    (("joints", 5, "com_mm"), [NAN, 0.0, 0.0], r"joints\[5\]: com_mm must be finite"),
    (("gravity",), [0.0, 0.0, INF], r"model file: gravity must be finite"),
    (("tool", "translation_mm"), [150.0, NAN, 130.0], r"tool: translation_mm must be finite"),
    (("base",), {"rotation_rpy_rad": [0.0, 0.0, -INF]},
     r"base: rotation_rpy_rad must be finite"),
    (("markers", 0), [120.0, 0.0, INF], r"model file: markers\[0\] must be finite"),
    (("markers", 1), [120.0, 0.0, "x"], r"model file: markers\[1\] must be a 3-vector of numbers"),
    (("markers", 2), [120.0, 0.0, [80.0]],
     r"model file: markers\[2\] must be a 3-vector of numbers"),
    (("compensator", "L_mm"), NAN, r"compensator: L_mm must be finite"),
    (("compensator", "ax_mm"), INF, r"compensator: ax_mm must be finite"),
    (("compensator", "ay_mm"), -INF, r"compensator: ay_mm must be finite"),
    (("compensator", "Kc_N_per_mm"), INF, r"compensator: Kc_N_per_mm must be finite"),
    (("compensator", "s0_mm"), NAN, r"compensator: s0_mm must be finite"),
    (("compensator", "s0_mm"), INF, r"compensator: s0_mm must be finite"),
]


@pytest.mark.parametrize("path, value, message", NON_FINITE, ids=[
    "-".join(map(str, path + (value,))).replace(" ", "") for path, value, _ in NON_FINITE])
def test_non_finite_numbers_name_the_field(tmp_path, model_path, path, value, message):
    """Every number of a model file must be finite; the error names the field
    (and the run turns any RuntimeWarning on the way into a failure)."""
    doc = yaml.safe_load(model_path.read_text())
    _set(doc, path, value)
    with pytest.raises(ModelFileError, match=message):
        load_model(_write(tmp_path, yaml.safe_dump(doc)))


def test_documented_schema_names_the_model_fields():
    """The schema block of the module docstring is the only list of keys
    outside the model types; it names exactly their fields."""
    from stiffcal import modelfile
    from stiffcal.compensator import CompensatorElastics, CompensatorGeometry
    from stiffcal.robot import FrameSpec, JointSpec, ManipulatorModel

    def names(*types):
        return {f.name for t in types for f in dataclasses.fields(t)}

    block = textwrap.dedent(modelfile.__doc__.split("Schema::\n", 1)[1])
    doc = yaml.safe_load(block)
    assert set(doc) == names(ManipulatorModel)
    assert set(doc["joints"][0]) == names(JointSpec)
    assert set(doc["base"]) == set(doc["tool"]) == names(FrameSpec)
    assert set(doc["compensator"]) == names(CompensatorGeometry, CompensatorElastics)
