"""The three benchmark workloads: ``design``, ``calibrate`` and ``predict_map``.

Each workload builds its inputs from the seed in ``__init__`` and
``warm_up``; ``op`` is one timed operation, ``observe`` turns its raw
result into an :class:`Outcome` (bench-side checks only, untimed) and
``verify`` adds the checks that call back into ``stiffcal``, after the
measured phase so they never show up in a trace.  Every outcome carries
deterministic work counters and a digest of its payload; two operations
with the same ``key`` must agree on both.

Stiffcal functions are always reached through their module attribute
(``doe.optimize_plan``, never a local alias), so the tracer's wrappers
see the calls.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from stiffcal import cli, doe, robot, stiffness
from stiffcal.modelfile import load_model

HERE = os.path.dirname(os.path.abspath(__file__))
MODEL_PATH = os.path.join(HERE, "kr270_like.yaml")

# Reference problem of the paper's measurement design (joint-2 buckets, test
# pose) and the ``stiffcal doe`` default joint limits, in degrees.
BUCKETS_DEG = (-0.01, -25.24, -56.9, -99.85, -140.0)
TEST_Q_DEG = (79.2, -0.01, -5.57, 51.0, -97.52, -91.67)
LIMITS_DEG = ((-185.0, 185.0), (-140.0, -0.001), (-120.0, 155.0),
              (-350.0, 350.0), (-122.5, 122.5), (-350.0, 350.0))
LOAD_N = 2600.0
DESIGN_SIGMA_MM = 0.05

# Position tolerance of the dual equilibrium solve (stiffness._POSITION_TOL_MM).
DUAL_TOL_MM = 1e-9

SIZES = {
    "design": {
        "full": {"n_grid": 7, "n_levels": 3, "n_starts": 2,
                 "configs_per_bucket": 3, "repeats": 3},
        "tiny": {"n_grid": 3, "n_levels": 1, "n_starts": 1,
                 "configs_per_bucket": 3, "repeats": 1},
    },
    "calibrate": {
        "full": {"n_buckets": 8, "configs_per_bucket": 4, "repeats": 3,
                 "sweep_angles": 16, "ci_samples": 200},
        "tiny": {"n_buckets": 3, "configs_per_bucket": 2, "repeats": 1,
                 "sweep_angles": 8, "ci_samples": 10},
    },
    "predict_map": {
        "full": {"n_poses": 256},
        "tiny": {"n_poses": 6},
    },
}


@dataclass
class Outcome:
    """What one operation produced, reduced to what the checks need."""

    key: int                              # operations with equal keys repeat work
    counters: Dict[str, int]
    digest: str                           # hash of the deterministic payload
    problems: List[str] = field(default_factory=list)
    detail: Dict[str, float] = field(default_factory=dict)
    raw: object = None                    # kept only until ``verify`` ran


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _limits_rad():
    return tuple((math.radians(lo), math.radians(hi)) for lo, hi in LIMITS_DEG)


class Workload:
    """Inputs from a seed; ``warm_up``, ``op``, ``observe``, ``verify`` and
    ``summary`` (quality figures, reported but not used as metrics).

    ``unit`` operations make one pass over all inputs; ``op(i)`` works on
    input ``i % unit``.
    """

    unit = 1

    def verify(self, out: Outcome) -> None:
        """Checks that call ``stiffcal``; run after the measured phase."""

    def summary(self, outcomes: List[Outcome]) -> Dict[str, float]:
        ok = [o for o in outcomes if o.detail]
        return dict(ok[0].detail) if ok else {}


class Design(Workload):
    """``doe.optimize_plan`` on the reference problem; the seed drives the starts."""

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.params = dict(SIZES["design"][size])
        self.model = load_model(MODEL_PATH)
        self.constraints = doe.PlanConstraints(_limits_rad(), LOAD_N)
        self.test = doe.TestPose(tuple(np.radians(TEST_Q_DEG)),
                                 tuple(self.constraints.wrench()))
        self.noise = doe.NoiseModel(DESIGN_SIGMA_MM)
        self.buckets = np.radians(BUCKETS_DEG)

    def _optimize(self, **params):
        return doe.optimize_plan(self.model, self.test, self.buckets,
                                 self.constraints, self.noise, seed=self.seed,
                                 **params)

    def warm_up(self) -> None:
        self._optimize(**SIZES["design"]["tiny"])

    def op(self, i: int):
        return self._optimize(**self.params)

    def observe(self, i: int, opt) -> Outcome:
        qs = np.array([e.q_rad for e in opt.plan.entries])
        out = Outcome(key=0, counters={"doe.n_evaluations": opt.n_evaluations},
                      digest=_digest(qs, [opt.accuracy.rho0_sq_mm2]),
                      detail={"rho0_um": 1e3 * opt.accuracy.rho0_mm},
                      raw=opt)
        per_bucket = self.params["configs_per_bucket"]
        buckets = np.repeat(np.sort(self.buckets)[::-1], per_bucket)
        if qs.shape[0] != buckets.size or not np.array_equal(qs[:, 1], buckets):
            out.problems.append("q2 not pinned to its bucket")
        lim = np.array(_limits_rad())
        if np.any(qs < lim[:, 0]) or np.any(qs > lim[:, 1]):
            out.problems.append("joint outside its limits")
        if not opt.accuracy.rho0_sq_mm2 <= min(opt.start_values_mm2):
            out.problems.append("rho0^2 above the best random start")
        return out

    def verify(self, out: Outcome) -> None:
        opt = out.raw
        acc = doe.test_pose_accuracy(self.model, opt.plan, self.test, self.noise)
        ref = opt.accuracy.rho0_sq_mm2
        if not abs(acc.rho0_sq_mm2 - ref) <= 1e-9 * abs(ref):
            out.problems.append("recomputed rho0^2 differs from the reported one")


PLAN_HEADER = ("q1_deg", "q2_deg", "q3_deg", "q4_deg", "q5_deg", "q6_deg",
               "Fx_N", "Fy_N", "Fz_N", "Mx_Nmm", "My_Nmm", "Mz_Nmm", "repeats")


class Calibrate(Workload):
    """Five CLI commands in-process: geometry sweep to prediction."""

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.params = p = dict(SIZES["calibrate"][size])
        self.model = load_model(MODEL_PATH)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.plan_path = os.path.join(workdir, "plan.csv")
        rng = np.random.default_rng(seed)
        # wide, seeded spread of the free joints: every compliance is excited
        with open(self.plan_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(PLAN_HEADER)
            for q2 in np.linspace(-140.0, -0.01, p["n_buckets"]):
                for _ in range(p["configs_per_bucket"]):
                    q = np.degrees([rng.uniform(-1.2, 1.2), 0.0,
                                    rng.uniform(-1.5, 0.5), rng.uniform(-2.5, 2.5),
                                    rng.uniform(-1.8, 1.8), rng.uniform(-2.5, 2.5)])
                    q[1] = q2
                    w.writerow([f"{v:.10g}" for v in q]
                               + ["0", "0", f"{-LOAD_N:g}", "0", "0", "0",
                                  str(p["repeats"])])

    def _commands(self, out: str) -> List[List[str]]:
        s, p = str(self.seed), self.params
        ci = f"--ci-samples={p['ci_samples']}"
        q = ",".join(f"{v:g}" for v in TEST_Q_DEG)
        return [
            ["simulate", "geometry", "--model", MODEL_PATH,
             f"--q2=-140:0:{p['sweep_angles']}", "--noise=0.05", "--seed", s,
             "--out", f"{out}/sweep"],
            ["geom-ident", "--markers", f"{out}/sweep/markers.csv", ci,
             "--seed", s, "--out", f"{out}/geometry"],
            ["simulate", "deflections", "--model", MODEL_PATH,
             "--plan", self.plan_path, "--noise=0.02", "--seed", s,
             "--out", f"{out}/records"],
            ["elasto-ident", "--model", MODEL_PATH,
             "--records", f"{out}/records/records.csv", ci, "--seed", s,
             "--out", f"{out}/elasto"],
            ["predict", "--model", MODEL_PATH, f"--q={q}",
             f"--wrench=0,0,{-LOAD_N:g},0,0,0", "--out", f"{out}/predict"],
        ]

    def _pass(self, out: str) -> List[int]:
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in self._commands(out):
                codes.append(cli.main(argv))
                if codes[-1] != 0:
                    break
        return codes

    def warm_up(self) -> None:
        self._pass(os.path.join(self.workdir, "warm-up"))

    def op(self, i: int):
        return self._pass(os.path.join(self.workdir, "out"))

    def observe(self, i: int, codes: List[int]) -> Outcome:
        out_dir = os.path.join(self.workdir, "out")
        out = Outcome(key=0, counters={}, digest="")
        if codes != [0] * 5:
            out.problems.append(f"command exit codes {codes}")
            return out
        h = hashlib.sha256()
        for sub in sorted(os.listdir(out_dir)):
            for name in sorted(os.listdir(os.path.join(out_dir, sub))):
                if name != "manifest.json":   # holds absolute paths
                    with open(os.path.join(out_dir, sub, name), "rb") as fh:
                        h.update(f"{sub}/{name}\0".encode())
                        h.update(fh.read())
        out.digest = h.hexdigest()

        def load(rel):
            with open(os.path.join(out_dir, rel)) as fh:
                return json.load(fh)

        geo, el = load("geometry/geometry.json"), load("elasto/elasto.json")
        truth, pred = load("records/truth.json"), load("predict/prediction.json")
        with open(os.path.join(out_dir, "records", "records.csv")) as fh:
            n_records = sum(1 for _ in fh) - 1
        out.counters = {"sim.records": n_records,
                        "elasto_id.ci_samples": el["ci_samples"],
                        "geometry_id.ci_samples": geo["ci_samples"],
                        "predict.iterations": pred["iterations"]}
        values = {p["name"]: p["value"] for p in el["parameters"]}
        identified = list(values.values()) + [geo[k] for k in ("L_mm", "ax_mm", "ay_mm")]
        if not all(math.isfinite(v) and v > 0 for v in identified):
            out.problems.append("identified parameter not finite and positive")
        if not pred["converged"]:
            out.problems.append("prediction did not converge")
        tv = dict(zip(truth["labels"], truth["values"]))
        g = self.model.compensator.geometry
        out.detail = {
            "param_err_pct": max(100.0 * abs(values[k] - v) / abs(v) for k, v in tv.items()),
            "geom_err_mm": max(abs(geo["L_mm"] - g.L_mm), abs(geo["ax_mm"] - g.ax_mm),
                               abs(geo["ay_mm"] - g.ay_mm)),
        }
        return out


class PredictMap(Workload):
    """Deflection-compensation map: equilibria and stiffness over seeded poses."""

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.params = dict(SIZES["predict_map"][size])
        self.unit = n = self.params["n_poses"]
        self.model = load_model(MODEL_PATH)
        rng = np.random.default_rng(seed)
        lim = np.array(_limits_rad())
        self.poses = rng.uniform(lim[:, 0], lim[:, 1], size=(n, 6))
        self.wrenches = np.hstack([rng.normal(0.0, 1500.0, (n, 3)),
                                   rng.normal(0.0, 1e5, (n, 3))])

    def warm_up(self) -> None:
        self.op(0)

    def op(self, i: int):
        m, comp = self.model, self.model.compensator
        k = i % self.unit
        q, w = self.poses[k], self.wrenches[k]
        primal = stiffness.solve_equilibrium(m, comp, q, tool_wrench=w)
        kc = stiffness.cartesian_stiffness(m, comp, primal)
        rigid = robot.fk(m, q)
        commanded = stiffness.compensate_target(m, comp, q, w, rigid)
        dual = stiffness.solve_equilibrium(m, comp, q, target=rigid)
        return primal, kc, commanded, dual

    def observe(self, i: int, raw) -> Outcome:
        primal, kc, commanded, dual = raw
        out = Outcome(key=i % self.unit,
                      counters={"primal.iterations": primal.iterations,
                                "dual.iterations": dual.iterations},
                      digest=_digest(primal.theta, kc.matrix, commanded.p,
                                     commanded.R, dual.theta, dual.tool_wrench),
                      detail={"dual_residual_mm": dual.residual_position_mm})
        if not (primal.converged and dual.converged):
            out.problems.append("equilibrium did not converge")
        K = kc.matrix
        if not np.array_equal(K, K.T):
            out.problems.append("Cartesian stiffness not symmetric")
        else:
            try:
                np.linalg.cholesky(K)
            except np.linalg.LinAlgError:
                out.problems.append("Cartesian stiffness not positive definite")
        if not dual.residual_position_mm <= DUAL_TOL_MM:
            out.problems.append("dual solve missed its target")
        return out

    def summary(self, outcomes: List[Outcome]) -> Dict[str, float]:
        res = [o.detail["dual_residual_mm"] for o in outcomes if o.detail]
        return {"dual_residual_max_mm": max(res)} if res else {}


WORKLOADS = {"design": Design, "calibrate": Calibrate, "predict_map": PredictMap}
