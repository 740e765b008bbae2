"""Command-line front end.

Subcommands cover the full workflow: identify the compensator linkage
geometry from marker tracks, identify joint compliances and compensator
constants from deflection records, design a measurement plan, generate
synthetic datasets, predict deflections, and tabulate the compensator
stiffness-contribution curve.

Every run writes a ``manifest.json`` capturing the subcommand, the sha256
of each input file, the seed and parameter overrides, so results can be
reproduced bit for bit.  All CSV/JSON payloads are deterministic (sorted
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
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from .compensator import CompensatorGeometry, eta_curve
from .doe import (MAX_REPEATS, NoiseModel, PlanConstraints, TestPose, load_plan_csv,
                  optimize_plan, save_plan_csv)
from .elasto_id import (confidence_intervals_elasto, identify_elastostatics,
                        load_deflection_csv, save_deflection_csv)
from .errors import CalibrationError, UsageError
from .geometry_id import (confidence_intervals_geometry,
                          identify_compensator_geometry, load_marker_csv,
                          save_marker_csv)
from .modelfile import load_model
from .robot import fk
from .sim import (GroundTruth, simulate_deflection_records,
                  simulate_geometry_dataset)
from .stiffness import (cartesian_stiffness, compensate_target,
                        predict_marker_deflections, predict_tool_deflection,
                        solve_equilibrium)
from .tables import write_table

_DEFAULT_LIMITS_DEG = "-185:185,-140:-0.001,-120:155,-350:350,-122.5:122.5,-350:350"
# Largest --ci-samples and start:stop:count count: each is one refit or one pose.
MAX_COUNT = 10_000


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


def _write_manifest(out_dir: str, subcommand: str, inputs: Dict[str, str],
                    outputs: Sequence[str], seed: Optional[int],
                    overrides: Dict) -> None:
    manifest = {
        "tool": "stiffcal",
        "version": __version__,
        "subcommand": subcommand,
        "inputs": {name: {"path": os.path.abspath(p), "sha256": _sha256(p)}
                   for name, p in inputs.items()},
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "seed": seed,
        "overrides": overrides,
        "out_dir": os.path.abspath(out_dir),
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _write_json(path: str, payload: Dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_plot_data(path: str, rows) -> None:
    """Long-format plot table: one (x, series, y) triple per row."""
    write_table(path, ("x", "series", "y"),
                ((f"{float(x):.10g}", series, f"{float(y):.10g}") for x, series, y in rows))


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
    """Comma-separated lo:hi pairs in degrees, returned in radians."""
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


_count = _bounded(int, lambda v: v >= 1, ">= 1")
_repeats = _bounded(int, lambda v: 1 <= v <= MAX_REPEATS, f"in 1..{MAX_REPEATS}")
_seed = _bounded(int, lambda v: v >= 0, ">= 0")
_ci_samples = _bounded(int, lambda v: 0 <= v <= MAX_COUNT, f"in 0..{MAX_COUNT}")
_sigma = _bounded(float, lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0")
_magnitude = _bounded(float, lambda v: math.isfinite(v) and v > 0.0, "finite and > 0")


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _geometry_from_model(path: str) -> CompensatorGeometry:
    model = load_model(path)
    if model.compensator is None:
        raise UsageError(f"{path}: model has no compensator section")
    return model.compensator.geometry


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_geom_ident(args) -> int:
    dataset = load_marker_csv(args.markers)
    sign = {"auto": "auto", "+1": 1, "-1": -1}[args.angle_sign]
    est = identify_compensator_geometry(dataset, angle_sign=sign)
    ci = confidence_intervals_geometry(dataset, est, n_samples=args.ci_samples,
                                       seed=args.seed)
    out = _ensure_out(args.out)
    payload = {
        "L_mm": est.L_mm, "ax_mm": est.ax_mm, "ay_mm": est.ay_mm,
        "p2_mm": list(est.p2), "p0_mm": list(est.p0),
        "crank_rms_mm": est.crank_fit.residual_rms,
        "crank_angle_sign": est.crank_fit.angle_sign,
        "satellite_radii_mm": list(est.satellite_fit.radii),
        "ci3": {"L_mm": ci.halfwidth3_L_mm, "ax_mm": ci.halfwidth3_ax_mm,
                "ay_mm": ci.halfwidth3_ay_mm},
        "noise_sigma_mm": {"crank": ci.sigma_crank_mm,
                           "satellite": ci.sigma_satellite_mm},
        "ci_samples": ci.n_samples,
    }
    _write_json(os.path.join(out, "geometry.json"), payload)
    q2_deg = np.degrees(dataset.q2_rad)
    fit_pts = est.crank_fit.predict(dataset.q2_rad)
    rows = []
    for i in range(dataset.n_poses):
        rows.append((q2_deg[i], "crank_meas_x", dataset.crank[i, 0]))
        rows.append((q2_deg[i], "crank_meas_y", dataset.crank[i, 1]))
        rows.append((q2_deg[i], "crank_fit_x", fit_pts[i, 0]))
        rows.append((q2_deg[i], "crank_fit_y", fit_pts[i, 1]))
    write_plot_data(os.path.join(out, "fit_tracks.csv"), rows)
    _write_manifest(out, "geom-ident", {"markers": args.markers},
                    ["geometry.json", "fit_tracks.csv"], args.seed,
                    {"angle_sign": args.angle_sign, "ci_samples": args.ci_samples})
    print(f"L  = {est.L_mm:10.3f} +/- {ci.halfwidth3_L_mm:.3f} mm")
    print(f"ax = {est.ax_mm:10.3f} +/- {ci.halfwidth3_ax_mm:.3f} mm")
    print(f"ay = {est.ay_mm:10.3f} +/- {ci.halfwidth3_ay_mm:.3f} mm")
    return 0


def _cmd_elasto_ident(args) -> int:
    model = load_model(args.model)
    records = load_deflection_csv(args.records)
    est = identify_elastostatics(model, records)
    ci = confidence_intervals_elasto(model, records, est,
                                     n_samples=args.ci_samples, seed=args.seed)
    out = _ensure_out(args.out)
    params = []
    for lab, val, half, pct in zip(ci.labels, ci.values, ci.halfwidth3, ci.percent):
        params.append({"name": lab, "value": val, "ci3": half,
                       "ci3_percent": None if not np.isfinite(pct) else pct})
    lay = est.fit.layout
    payload = {
        "parameters": params,
        "joint2_buckets_deg": [math.degrees(b) for b in lay.bucket_q2_rad],
        "joint2_stiffness_Nmm_per_rad": list(est.fit.joint2_stiffnesses()),
        "stage1_sigma_mm": est.fit.sigma_hat_mm,
        "stage1_condition": est.fit.condition,
        "stage1_labels": list(est.fit.labels),
        "stage1_compliances": list(est.fit.values),
        "separation": {"condition": est.separation.condition,
                       "residual_rel": est.separation.residual_rel},
        "ci_samples": ci.n_samples,
        "ci_failed": ci.n_failed,
    }
    _write_json(os.path.join(out, "elasto.json"), payload)
    K2 = est.fit.joint2_stiffnesses()
    rows = []
    for b, q2 in enumerate(lay.bucket_q2_rad):
        rows.append((math.degrees(q2), "K2_measured", K2[b]))
        rows.append((math.degrees(q2), "K2_separation_fit",
                     est.separation.K2_fit_Nmm_per_rad[b]))
    write_plot_data(os.path.join(out, "joint2_stiffness.csv"), rows)
    _write_manifest(out, "elasto-ident",
                    {"model": args.model, "records": args.records},
                    ["elasto.json", "joint2_stiffness.csv"], args.seed,
                    {"ci_samples": args.ci_samples})
    for p in params:
        pct = p["ci3_percent"]
        pct_s = f" ({pct:5.1f}%)" if pct is not None else ""
        print(f"{p['name']:4s} = {p['value']: .6e} +/- {p['ci3']:.2e}{pct_s}")
    return 0


def _cmd_doe(args) -> int:
    model = load_model(args.model)
    test_q = np.radians(_parse_float_list(args.test_q, "--test-q", 6))
    buckets = np.radians(_parse_grid(args.buckets, "--buckets"))
    limits = _parse_ranges(args.limits, "--limits")
    if len(limits) != 6:
        raise UsageError(f"--limits needs six lo:hi pairs, got {len(limits)}")
    q1_windows = None
    if args.q1_windows:
        q1_windows = tuple(_parse_ranges(args.q1_windows, "--q1-windows"))
    cons = PlanConstraints(joint_limits_rad=tuple(limits),
                           load_magnitude_N=args.load,
                           q1_intervals_rad=q1_windows)
    test = TestPose(tuple(test_q), tuple(cons.wrench()))
    noise = NoiseModel(sigma_mm=args.noise)
    opt = optimize_plan(model, test, buckets, cons, noise,
                        configs_per_bucket=args.configs_per_bucket,
                        repeats=args.repeats, n_starts=args.starts,
                        seed=args.seed)
    out = _ensure_out(args.out)
    save_plan_csv(os.path.join(out, "plan.csv"), opt.plan)
    payload = {
        "rho0_sq_mm2": opt.accuracy.rho0_sq_mm2,
        "rho0_mm": opt.accuracy.rho0_mm,
        "per_bucket_mm2": list(opt.accuracy.per_bucket_mm2),
        "bucket_q2_deg": [math.degrees(b) for b in opt.accuracy.bucket_q2_rad],
        "random_start_values_mm2": list(opt.start_values_mm2),
        "n_evaluations": opt.n_evaluations,
        "searched_joints": list(opt.searched_joints),
    }
    _write_json(os.path.join(out, "doe.json"), payload)
    rows = [(math.degrees(b), "rho0_sq_contribution",
             opt.accuracy.per_bucket_mm2[i])
            for i, b in enumerate(opt.accuracy.bucket_q2_rad)]
    write_plot_data(os.path.join(out, "bucket_contributions.csv"), rows)
    _write_manifest(out, "doe", {"model": args.model},
                    ["plan.csv", "doe.json", "bucket_contributions.csv"],
                    args.seed,
                    {"load": args.load, "noise": args.noise,
                     "configs_per_bucket": args.configs_per_bucket,
                     "repeats": args.repeats, "starts": args.starts})
    print(f"rho0 = {opt.accuracy.rho0_mm:.4f} mm "
          f"(variance {opt.accuracy.rho0_sq_mm2:.3e} mm^2, "
          f"{opt.plan.n_entries} configurations)")
    return 0


def _cmd_simulate(args) -> int:
    if args.sim_kind == "geometry":
        geom = _geometry_from_model(args.model)
        q2 = np.radians(_parse_grid(args.q2, "--q2"))
        ds = simulate_geometry_dataset(geom, q2, noise_mm=args.noise,
                                       seed=args.seed,
                                       angle_sign=args.angle_sign)
        out = _ensure_out(args.out)
        path = os.path.join(out, "markers.csv")
        save_marker_csv(path, ds)
        _write_manifest(out, "simulate-geometry", {"model": args.model},
                        ["markers.csv"], args.seed,
                        {"noise": args.noise, "angle_sign": args.angle_sign})
        print(f"wrote {ds.n_poses} sweep poses to {path}")
        return 0
    # deflection records
    model = load_model(args.model)
    plan = load_plan_csv(args.plan)
    records = simulate_deflection_records(model, plan, noise_mm=args.noise,
                                          seed=args.seed,
                                          response=args.response)
    out = _ensure_out(args.out)
    path = os.path.join(out, "records.csv")
    save_deflection_csv(path, records)
    truth = GroundTruth.from_model(model)
    _write_json(os.path.join(out, "truth.json"),
                {"labels": list(truth.labels), "values": list(truth.values)})
    _write_manifest(out, "simulate-deflections",
                    {"model": args.model, "plan": args.plan},
                    ["records.csv", "truth.json"], args.seed,
                    {"noise": args.noise, "response": args.response})
    print(f"wrote {len(records)} deflection records to {path}")
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    q = np.radians(_parse_float_list(args.q, "--q", 6))
    wrench = np.array(_parse_float_list(args.wrench, "--wrench", 6))
    comp = model.compensator
    state = solve_equilibrium(model, comp, q, tool_wrench=wrench)
    kc = cartesian_stiffness(model, comp, state)
    twist = predict_tool_deflection(model, comp, q, wrench)
    markers = predict_marker_deflections(model, comp, q, wrench)
    rigid = fk(model, q)
    commanded = compensate_target(model, comp, q, wrench, rigid)
    out = _ensure_out(args.out)
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
    _write_json(os.path.join(out, "prediction.json"), payload)
    _write_manifest(out, "predict", {"model": args.model},
                    ["prediction.json"], None, {"wrench": list(wrench)})
    dp = np.linalg.norm(twist[:3])
    print(f"converged={state.converged} iters={state.iterations} "
          f"linear tool sag {dp:.3f} mm")
    return 0


def _cmd_eta_curve(args) -> int:
    geom = _geometry_from_model(args.model)
    s0_vals = _parse_float_list(args.s0, "--s0")
    q2 = np.radians(_parse_grid(args.q2, "--q2"))
    table = eta_curve(geom, s0_vals, q2)
    out = _ensure_out(args.out)
    path = os.path.join(out, "eta.csv")
    write_table(path, ("q2_deg", "s0_mm", "eta"),
                ((f"{math.degrees(q2_rad):.10g}", f"{s0:.10g}", f"{e:.10g}")
                 for q2_rad, s0, e in table))
    rows = [(math.degrees(r[0]), f"s0={r[1]:g}mm", r[2]) for r in table]
    write_plot_data(os.path.join(out, "eta_plot.csv"), rows)
    _write_manifest(out, "eta-curve", {"model": args.model},
                    ["eta.csv", "eta_plot.csv"], None, {"s0": s0_vals})
    print(f"wrote {len(table)} eta samples to {path}")
    for s0, eta in zip(s0_vals, table[:, 2].reshape(len(s0_vals), -1)):
        print(f"s0={s0:6.1f} mm: eta in [{eta.min():+.3f}, {eta.max():+.3f}], "
              f"{int(np.sum(eta <= 0))} non-positive")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="stiffcal",
                description="Stiffness calibration toolkit for a gravity-"
                            "compensated 6R manipulator")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", metavar="COMMAND")

    g = sub.add_parser("geom-ident", parents=[], description=None,
                       help="identify compensator linkage geometry from "
                            "marker tracks")
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
    sg.add_argument("--angle-sign", type=int, choices=[1, -1], default=1)
    sg.add_argument("--seed", type=_seed, default=0)
    sg.set_defaults(func=_cmd_simulate)
    sd = ssub.add_parser("deflections",
                         help="deflection records for a measurement plan")
    sd.add_argument("--model", required=True)
    sd.add_argument("--plan", required=True, help="plan CSV")
    sd.add_argument("--out", required=True)
    sd.add_argument("--noise", type=_sigma, default=0.0)
    sd.add_argument("--response", choices=["nonlinear", "linear"],
                    default="nonlinear")
    sd.add_argument("--seed", type=_seed, default=0)
    sd.set_defaults(func=_cmd_simulate)

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
    """Run one command and return its exit code (0, 1 or 2).

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
            return args.func(args)
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
