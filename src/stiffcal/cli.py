"""Command-line front end.

Subcommands cover the full workflow: identify the compensator linkage
geometry from marker tracks, identify joint compliances and compensator
constants from deflection records, design a measurement plan, generate
synthetic datasets, predict deflections, and tabulate the compensator
stiffness-contribution curve.

Every run writes a ``manifest.json`` capturing the subcommand, the sha256
of each input file, the seed and every other flag but ``--out``, so results
can be reproduced bit for bit.  All CSV/JSON payloads are deterministic (sorted
keys, fixed float formats, no timestamps).

Exit codes: 0 success, 1 bad usage, 2 numerical/validation failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__
from .compensator import eta_curve
from .doe import (MAX_REPEATS, NoiseModel, PlanConstraints, TestPose, load_plan_csv,
                  optimize_plan, save_plan_csv)
from .elasto_id import (confidence_intervals_elasto, identify_elastostatics,
                        load_deflection_csv, save_deflection_csv)
from .errors import CalibrationError, UsageError
from .geometry_id import (confidence_intervals_geometry,
                          identify_compensator_geometry, load_marker_csv,
                          save_marker_csv)
from .modelfile import load_model
from .robot import ManipulatorModel, fk
from .sim import (GroundTruth, simulate_deflection_records,
                  simulate_geometry_dataset)
from .stiffness import (cartesian_stiffness, loaded_equilibrium, mirror_deflection,
                        predict_marker_deflections, predict_tool_deflection)
from .tables import write_table

_DEFAULT_LIMITS_DEG = "-185:185,-140:-0.001,-120:155,-350:350,-122.5:122.5,-350:350"
# Flags naming input files: the manifest records their sha256.
_INPUT_FLAGS = ("markers", "model", "records", "plan")
# Printed for a half-width that is null in the payload: --ci-samples below 2.
_NO_CI = "(no interval: fewer than 2 usable resamples)"
# Largest --ci-samples, --starts, --configs-per-bucket and start:stop:count
# count: each is one refit, one random start, one plan row per bucket or one pose.
MAX_COUNT = 10_000
# Largest --starts x buckets x --configs-per-bucket: the plan search holds the
# frames of every configuration at once, 384 bytes each with three markers.
MAX_SEARCH_CONFIGS = 1_000_000
# result lines; file name -> JSON dict, (x, series, y) plot rows or a writer taking the path
Result = Tuple[List[str], Dict[str, Union[Dict, List[tuple], Callable[[str], None]]]]


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via :class:`UsageError`.

    Stock argparse exits with status 2 on bad flags; this tool reserves 2
    for numerical failures, so usage errors are rerouted to exit code 1.
    """

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# small helpers


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(args, outputs: Sequence[str]) -> Dict:
    """``manifest.json`` of a run writing ``outputs``, from the parsed flags:
    the file flags are the inputs, ``--seed`` the seed (null without one), and
    every other flag but ``--out`` an override, each as parsed."""
    flags = {name: value for name, value in vars(args).items()
             if name not in ("command", "sim_kind", "func", "out")}
    inputs = {name: flags.pop(name) for name in _INPUT_FLAGS if name in flags}
    seed = flags.pop("seed", None)
    return {
        "tool": "stiffcal",
        "version": __version__,
        "subcommand": "-".join(filter(None, (args.command, getattr(args, "sim_kind", None)))),
        "inputs": {name: {"path": os.path.abspath(p), "sha256": _sha256(p)}
                   for name, p in inputs.items()},
        "outputs": sorted(outputs),
        "seed": seed,
        "overrides": flags,
        "out_dir": os.path.abspath(args.out),
    }


def _or_null(v):
    """``v``, or None (JSON null) when it is NaN or infinite."""
    return v if math.isfinite(v) else None


def _finite(vals: List[float], name: str) -> List[float]:
    if not all(math.isfinite(v) for v in vals):
        raise UsageError(f"{name}: values must be finite")
    return vals


def _parse_float_list(text: str, name: str, n: Optional[int] = None) -> List[float]:
    try:
        vals = [float(t) for t in text.replace(";", ",").split(",") if t.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse {name}: {exc}") from exc
    if not vals:
        raise UsageError(f"{name}: expected at least one value")
    if n is not None and len(vals) != n:
        raise UsageError(f"{name} needs {n} comma-separated values, got {len(vals)}")
    return _finite(vals, name)


def _parse_grid(text: str, name: str) -> np.ndarray:
    """Either 'start:stop:count' or a comma-separated list (degrees)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"{name}: expected start:stop:count")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise UsageError(f"{name}: {exc}") from exc
        if not 2 <= count <= MAX_COUNT:
            raise UsageError(f"{name}: count must be in 2..{MAX_COUNT}, got {count}")
        _finite([start, stop], name)
        return np.linspace(start, stop, count)
    return np.array(_parse_float_list(text, name))


def _parse_ranges(text: str, name: str) -> List[tuple]:
    """Comma-separated lo:hi pairs in degrees, each lo below its hi, returned
    in radians."""
    out = []
    for i, part in enumerate(text.split(",")):
        bits = part.split(":")
        if len(bits) != 2:
            raise UsageError(f"{name} entry {i + 1}: expected lo:hi")
        try:
            lo, hi = float(bits[0]), float(bits[1])
        except ValueError as exc:
            raise UsageError(f"{name} entry {i + 1}: {exc}") from exc
        _finite([lo, hi], f"{name} entry {i + 1}")
        if not lo < hi:
            raise UsageError(f"{name} entry {i + 1}: lo must be below hi, got {part}")
        out.append((math.radians(lo), math.radians(hi)))
    return out


def _bounded(convert, ok, rule: str):
    """argparse type: ``convert(text)``, rejected unless ``ok`` holds."""
    def parse(text: str):
        v = convert(text)
        if not ok(v):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return v
    parse.__name__ = convert.__name__  # argparse names it on a failed parse
    return parse


_count = _bounded(int, lambda v: 1 <= v <= MAX_COUNT, f"in 1..{MAX_COUNT}")
_repeats = _bounded(int, lambda v: 1 <= v <= MAX_REPEATS, f"in 1..{MAX_REPEATS}")
_seed = _bounded(int, lambda v: v >= 0, ">= 0")
_ci_samples = _bounded(int, lambda v: 0 <= v <= MAX_COUNT, f"in 0..{MAX_COUNT}")
_sigma = _bounded(float, lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0")
_magnitude = _bounded(float, lambda v: math.isfinite(v) and v > 0.0, "finite and > 0")


def _compensated_model(path: str) -> ManipulatorModel:
    """The model file at ``path``; a usage error unless it has a compensator."""
    model = load_model(path)
    if model.compensator is None:
        raise UsageError(f"{path}: model has no compensator section")
    return model


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_geom_ident(args) -> Result:
    dataset = load_marker_csv(args.markers)
    est = identify_compensator_geometry(dataset, angle_sign=args.angle_sign)
    ci = confidence_intervals_geometry(dataset, est, n_samples=args.ci_samples,
                                       seed=args.seed)
    halves = (ci.halfwidth3_L_mm, ci.halfwidth3_ax_mm, ci.halfwidth3_ay_mm)
    payload = {
        "L_mm": est.L_mm, "ax_mm": est.ax_mm, "ay_mm": est.ay_mm,
        "p2_mm": list(est.p2), "p0_mm": list(est.p0),
        "crank_rms_mm": est.crank_fit.residual_rms,
        "crank_angle_sign": est.crank_fit.angle_sign,
        "satellite_radii_mm": list(est.satellite_fit.radii),
        "ci3": dict(zip(("L_mm", "ax_mm", "ay_mm"), map(_or_null, halves))),
        "noise_sigma_mm": {"crank": ci.sigma_crank_mm,
                           "satellite": ci.sigma_satellite_mm},
        "ci_samples": ci.n_samples,
    }
    q2_deg = np.degrees(dataset.q2_rad)
    fit_pts = est.crank_fit.predict(dataset.q2_rad)
    rows = []
    for i in range(dataset.n_poses):
        rows.append((q2_deg[i], "crank_meas_x", dataset.crank[i, 0]))
        rows.append((q2_deg[i], "crank_meas_y", dataset.crank[i, 1]))
        rows.append((q2_deg[i], "crank_fit_x", fit_pts[i, 0]))
        rows.append((q2_deg[i], "crank_fit_y", fit_pts[i, 1]))
    lines = [f"{lab} = {payload[key]:10.3f} "
             + (f"mm {_NO_CI}" if half is None else f"+/- {half:.3f} mm")
             for lab, (key, half) in zip(("L ", "ax", "ay"), payload["ci3"].items())]
    return lines, {"geometry.json": payload, "fit_tracks.csv": rows}


def _cmd_elasto_ident(args) -> Result:
    model = _compensated_model(args.model)
    est = identify_elastostatics(model, load_deflection_csv(args.records))
    ci = confidence_intervals_elasto(est, n_samples=args.ci_samples, seed=args.seed)
    params = [{"name": lab, "value": val, "ci3": _or_null(half), "ci3_percent": _or_null(pct)}
              for lab, val, half, pct in zip(ci.labels, ci.values, ci.halfwidth3, ci.percent)]
    lay = est.fit.layout
    payload = {
        "parameters": params,
        "joint2_buckets_deg": [math.degrees(b) for b in lay.bucket_q2_rad],
        "joint2_stiffness_Nmm_per_rad": list(est.fit.joint2_stiffnesses()),
        "stage1_sigma_mm": est.fit.sigma_hat_mm,
        "stage1_condition": est.fit.lsq.condition,
        "stage1_labels": list(est.fit.labels),
        "stage1_compliances": list(est.fit.values),
        "separation": {"condition": est.separation.lsq.condition,
                       "residual_rel": est.separation.residual_rel},
        "ci_samples": ci.n_samples,
        "ci_failed": ci.n_failed,
    }
    K2 = est.fit.joint2_stiffnesses()
    rows = []
    for b, q2 in enumerate(lay.bucket_q2_rad):
        rows.append((math.degrees(q2), "K2_measured", K2[b]))
        rows.append((math.degrees(q2), "K2_separation_fit",
                     est.separation.K2_fit_Nmm_per_rad[b]))
    lines = [f"{p['name']:4s} = {p['value']: .6e} "
             + (_NO_CI if p["ci3"] is None else f"+/- {p['ci3']:.2e}"
                + (f" ({p['ci3_percent']:5.1f}%)" if p["ci3_percent"] is not None else ""))
             for p in params]
    return lines, {"elasto.json": payload, "joint2_stiffness.csv": rows}


def _cmd_doe(args) -> Result:
    model = load_model(args.model)
    test_q = np.radians(_parse_float_list(args.test_q, "--test-q", 6))
    buckets = np.radians(_parse_grid(args.buckets, "--buckets"))
    limits = _parse_ranges(args.limits, "--limits")
    if len(limits) != 6:
        raise UsageError(f"--limits needs six lo:hi pairs, got {len(limits)}")
    q1_windows = None
    if args.q1_windows:
        q1_windows = tuple(_parse_ranges(args.q1_windows, "--q1-windows"))
    try:    # limits and load are checked above: only the windows can fail
        cons = PlanConstraints(joint_limits_rad=tuple(limits),
                               load_magnitude_N=args.load,
                               q1_intervals_rad=q1_windows)
    except ValueError as exc:
        raise UsageError(f"--q1-windows: {exc}") from exc
    try:
        cons.bucket_layout(buckets)
    except ValueError as exc:
        raise UsageError(f"--buckets: {exc}") from exc
    n_configs = args.starts * len(buckets) * args.configs_per_bucket
    if n_configs > MAX_SEARCH_CONFIGS:
        raise UsageError(f"--starts and --configs-per-bucket: {n_configs} configurations "
                         f"(starts x buckets x per bucket), more than {MAX_SEARCH_CONFIGS}")
    test = TestPose(tuple(test_q), tuple(cons.wrench()))
    opt = optimize_plan(model, test, buckets, cons, NoiseModel(sigma_mm=args.noise),
                        configs_per_bucket=args.configs_per_bucket,
                        repeats=args.repeats, n_starts=args.starts,
                        seed=args.seed)
    payload = {
        "rho0_sq_mm2": opt.accuracy.rho0_sq_mm2,
        "rho0_mm": opt.accuracy.rho0_mm,
        "per_bucket_mm2": list(opt.accuracy.per_bucket_mm2),
        "bucket_q2_deg": [math.degrees(b) for b in opt.accuracy.bucket_q2_rad],
        "random_start_values_mm2": list(opt.start_values_mm2),
        "n_evaluations": opt.n_evaluations,
        "searched_joints": list(opt.searched_joints),
    }
    rows = [(math.degrees(b), "rho0_sq_contribution",
             opt.accuracy.per_bucket_mm2[i])
            for i, b in enumerate(opt.accuracy.bucket_q2_rad)]
    line = (f"rho0 = {opt.accuracy.rho0_mm:.4f} mm "
            f"(variance {opt.accuracy.rho0_sq_mm2:.3e} mm^2, "
            f"{opt.plan.n_entries} configurations)")
    return [line], {"plan.csv": lambda path: save_plan_csv(path, opt.plan),
                    "doe.json": payload, "bucket_contributions.csv": rows}


def _cmd_simulate_geometry(args) -> Result:
    geom = _compensated_model(args.model).compensator.geometry
    q2 = np.radians(_parse_grid(args.q2, "--q2"))
    ds = simulate_geometry_dataset(geom, q2, noise_mm=args.noise, seed=args.seed)
    return ([f"wrote {ds.n_poses} sweep poses to {os.path.join(args.out, 'markers.csv')}"],
            {"markers.csv": lambda path: save_marker_csv(path, ds)})


def _cmd_simulate_deflections(args) -> Result:
    model = _compensated_model(args.model)
    records = simulate_deflection_records(model, load_plan_csv(args.plan),
                                          noise_mm=args.noise, seed=args.seed,
                                          response=args.response)
    truth = GroundTruth.from_model(model)
    return ([f"wrote {len(records)} deflection records to "
             f"{os.path.join(args.out, 'records.csv')}"],
            {"records.csv": lambda path: save_deflection_csv(path, records),
             "truth.json": {"labels": list(truth.labels), "values": list(truth.values)}})


def _cmd_predict(args) -> Result:
    model = load_model(args.model)
    q = np.radians(_parse_float_list(args.q, "--q", 6))
    wrench = np.array(_parse_float_list(args.wrench, "--wrench", 6))
    comp = model.compensator
    state, delta = loaded_equilibrium(model, comp, q, wrench)
    kc = cartesian_stiffness(model, comp, state)
    twist = predict_tool_deflection(model, comp, q, wrench)
    markers = predict_marker_deflections(model, comp, q, wrench)
    rigid = fk(model, q)
    commanded = mirror_deflection(rigid, delta)
    payload = {
        "q_deg": [math.degrees(v) for v in q],
        "wrench": list(wrench),
        "converged": bool(state.converged),
        "iterations": state.iterations,
        "equilibrium_tool_mm": list(state.pose.p),
        "rigid_tool_mm": list(rigid.p),
        "linear_tool_twist": list(twist),
        "marker_deflections_mm": [list(m) for m in markers],
        "cartesian_stiffness": [list(r) for r in kc.matrix],
        "compensated_target_mm": list(commanded.p),
    }
    return ([f"converged={state.converged} iters={state.iterations} "
             f"linear tool sag {np.linalg.norm(twist[:3]):.3f} mm"],
            {"prediction.json": payload})


def _cmd_eta_curve(args) -> Result:
    geom = _compensated_model(args.model).compensator.geometry
    s0_vals = _parse_float_list(args.s0, "--s0")
    if min(s0_vals) < 0.0:
        raise UsageError(f"--s0: free lengths must be >= 0, got {min(s0_vals):g}")
    q2 = np.radians(_parse_grid(args.q2, "--q2"))
    table = eta_curve(geom, s0_vals, q2)
    rows = [(math.degrees(r[0]), f"s0={r[1]:g}mm", r[2]) for r in table]
    lines = [f"wrote {len(table)} eta samples to {os.path.join(args.out, 'eta.csv')}"]
    lines += [f"s0={s0:6.1f} mm: eta in [{eta.min():+.3f}, {eta.max():+.3f}], "
              f"{int(np.sum(eta <= 0))} non-positive"
              for s0, eta in zip(s0_vals, table[:, 2].reshape(len(s0_vals), -1))]
    return lines, {"eta.csv": lambda path: write_table(
                       path, ("q2_deg", "s0_mm", "eta"), (".10g",) * 3,
                       ((math.degrees(q2_rad), s0, e) for q2_rad, s0, e in table)),
                   "eta_plot.csv": rows}


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="stiffcal",
                description="Stiffness calibration toolkit for a gravity-"
                            "compensated 6R manipulator")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", metavar="COMMAND")

    g = sub.add_parser("geom-ident", help="identify compensator linkage geometry "
                                          "from marker tracks")
    g.add_argument("--markers", required=True, help="marker track CSV")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--angle-sign", choices=["auto", "+1", "-1"],
                   default="auto", help="crank rotation direction vs q2")
    g.add_argument("--ci-samples", type=_ci_samples, default=200)
    g.add_argument("--seed", type=_seed, default=0)
    g.set_defaults(func=_cmd_geom_ident)

    e = sub.add_parser("elasto-ident",
                       help="identify joint compliances and compensator "
                            "constants from deflection records")
    e.add_argument("--model", required=True, help="robot model YAML")
    e.add_argument("--records", required=True, help="deflection record CSV")
    e.add_argument("--out", required=True)
    e.add_argument("--ci-samples", type=_ci_samples, default=200)
    e.add_argument("--seed", type=_seed, default=0)
    e.set_defaults(func=_cmd_elasto_ident)

    d = sub.add_parser("doe", help="optimize a measurement plan for a "
                                   "reference test pose")
    d.add_argument("--model", required=True)
    d.add_argument("--test-q", required=True,
                   help="test pose joint angles, deg, comma separated")
    d.add_argument("--buckets", required=True,
                   help="joint-2 angles: list or start:stop:count (deg)")
    d.add_argument("--out", required=True)
    d.add_argument("--limits", default=_DEFAULT_LIMITS_DEG,
                   help="six lo:hi joint ranges, deg")
    d.add_argument("--q1-windows", default=None,
                   help="allowed q1 windows lo:hi[,lo:hi...], deg")
    d.add_argument("--load", type=_magnitude, default=2600.0,
                   help="test load magnitude, N (applied along -z)")
    d.add_argument("--noise", type=_sigma, default=0.05,
                   help="marker noise sigma, mm")
    d.add_argument("--configs-per-bucket", type=_count, default=3)
    d.add_argument("--repeats", type=_repeats, default=3)
    d.add_argument("--starts", type=_count, default=20)
    d.add_argument("--seed", type=_seed, default=0)
    d.set_defaults(func=_cmd_doe)

    s = sub.add_parser("simulate", help="generate synthetic datasets")
    ssub = s.add_subparsers(dest="sim_kind", metavar="KIND")
    sg = ssub.add_parser("geometry", help="marker tracks of a joint-2 sweep")
    sg.add_argument("--model", required=True)
    sg.add_argument("--q2", required=True,
                    help="sweep angles: list or start:stop:count (deg)")
    sg.add_argument("--out", required=True)
    sg.add_argument("--noise", type=_sigma, default=0.0)
    sg.add_argument("--seed", type=_seed, default=0)
    sg.set_defaults(func=_cmd_simulate_geometry)
    sd = ssub.add_parser("deflections",
                         help="deflection records for a measurement plan")
    sd.add_argument("--model", required=True)
    sd.add_argument("--plan", required=True, help="plan CSV")
    sd.add_argument("--out", required=True)
    sd.add_argument("--noise", type=_sigma, default=0.0)
    sd.add_argument("--response", choices=["nonlinear", "linear"],
                    default="nonlinear")
    sd.add_argument("--seed", type=_seed, default=0)
    sd.set_defaults(func=_cmd_simulate_deflections)

    pr = sub.add_parser("predict", help="predict deflections under a load")
    pr.add_argument("--model", required=True)
    pr.add_argument("--q", required=True, help="joint angles, deg")
    pr.add_argument("--wrench", default="0,0,0,0,0,0",
                    help="tool wrench Fx,Fy,Fz,Mx,My,Mz (N / N*mm)")
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=_cmd_predict)

    et = sub.add_parser("eta-curve",
                        help="compensator stiffness-contribution curve")
    et.add_argument("--model", required=True)
    et.add_argument("--s0", required=True,
                    help="free spring lengths, mm, comma separated")
    et.add_argument("--q2", required=True,
                    help="joint-2 grid: list or start:stop:count (deg)")
    et.add_argument("--out", required=True)
    et.set_defaults(func=_cmd_eta_curve)
    return p


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, built once per process; ``parse_args`` keeps no
    state on the parser, so every call parses as a fresh one would."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command, write its files to ``--out``, print its lines, return 0, 1 or 2.

    The parser is built once per process, so ``main`` may be called
    repeatedly in-process (a benchmark or a notebook running one command
    after another) without rebuilding it; each call leaves no other state.
    """
    try:
        args = _shared_parser().parse_args(argv)
        if getattr(args, "command", None) is None:
            raise UsageError("no subcommand given (see --help)")
        if args.command == "simulate" and getattr(args, "sim_kind", None) is None:
            raise UsageError("simulate needs a KIND: geometry or deflections")
        bad = [name for name, value in vars(args).items() if isinstance(value, list)]
        if bad:     # argparse before Python 3.12 reads --flag=-- as an empty list
            raise UsageError(f"--{bad[0].replace('_', '-')}: expected a value, got --")
        with np.errstate(over="raise"):
            lines, outputs = args.func(args)
            outputs["manifest.json"] = _manifest(args, list(outputs))
            os.makedirs(args.out, exist_ok=True)
            for name, content in outputs.items():
                path = os.path.join(args.out, name)
                if isinstance(content, dict):
                    with open(path, "w") as fh:
                        json.dump(content, fh, indent=2, sort_keys=True)
                        fh.write("\n")
                elif callable(content):
                    content(path)
                else:   # the long-format plot table
                    write_table(path, ("x", "series", "y"), (".10g", "s", ".10g"), content)
            for line in lines:
                print(line)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CalibrationError, ValueError, OSError) as exc:
        # bad data rather than bad flags: validation guards raise ValueError,
        # unreadable inputs raise OSError, the numerics raise CalibrationError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        # finite inputs too large for the numerics, e.g. --wrench=1e308,...
        print(f"error: input values out of range: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
