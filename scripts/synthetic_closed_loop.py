"""Closed-loop validation on a synthetic machine with known parameters.

Designs a measurement plan for a reference test pose, generates noisy
deflection records from the true model, runs the two-stage elastostatic
identification and compares the estimates (with bootstrap 3-sigma
intervals) against the ground truth.  Everything is seeded, so two runs
print the same numbers.

Usage: python scripts/synthetic_closed_loop.py [--starts N] [--noise MM]
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from stiffcal import (GroundTruth, NoiseModel, PlanConstraints, TestPose,
                      confidence_intervals_elasto, identify_elastostatics,
                      load_model, optimize_plan, simulate_deflection_records)

BUCKETS_DEG = (-0.01, -25.24, -56.9, -99.85, -140.0)
TEST_Q_DEG = (79.20, -0.01, -5.57, 51.00, -97.52, -91.67)
LIMITS_DEG = ((-185, 185), (-140, -0.001), (-120, 155),
              (-350, 350), (-122.5, 122.5), (-350, 350))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--starts", type=int, default=8)
    ap.add_argument("--noise", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    model_path = Path(__file__).resolve().parents[1] / "configs" / "kr270_like.yaml"
    model = load_model(model_path)
    truth = GroundTruth.from_model(model)

    cons = PlanConstraints(
        joint_limits_rad=tuple((math.radians(a), math.radians(b))
                               for a, b in LIMITS_DEG),
        load_magnitude_N=2600.0)
    test = TestPose(tuple(np.radians(TEST_Q_DEG)), tuple(cons.wrench()))
    noise = NoiseModel(sigma_mm=args.noise)

    t0 = time.time()
    opt = optimize_plan(model, test, np.radians(BUCKETS_DEG), cons, noise,
                        n_starts=args.starts, seed=args.seed)
    print(f"plan: {opt.plan.n_entries} configurations, "
          f"rho0 = {opt.accuracy.rho0_mm:.4f} mm at the test pose "
          f"({time.time() - t0:.1f} s, best random start "
          f"{math.sqrt(min(opt.start_values_mm2)):.4f} mm)")

    records = simulate_deflection_records(model, opt.plan,
                                          noise_mm=args.noise,
                                          seed=args.seed + 1)
    est = identify_elastostatics(model, records)
    ci = confidence_intervals_elasto(est, n_samples=300, seed=args.seed + 2)

    print(f"\n{'param':6s} {'estimate':>12s} {'truth':>12s} "
          f"{'3sigma':>10s} {'CI%':>6s}")
    for lab, val, tr, half, pct in zip(ci.labels, ci.values, truth.values,
                                       ci.halfwidth3, ci.percent):
        mark = "" if abs(val - tr) <= half else "  <-- outside CI"
        print(f"{lab:6s} {val:12.5e} {tr:12.5e} {half:10.2e} "
              f"{pct:5.1f}%{mark}")

    print(f"\npredicted test-pose deflection uncertainty: "
          f"{opt.accuracy.rho0_mm * 1000:.1f} um (rms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
