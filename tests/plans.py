"""Shared fixtures-in-code: deterministic measurement plans for the tests.

Kept out of conftest so the acceptance suite and the unit tests can import
exactly the same plan builders.
"""
import numpy as np

from stiffcal.doe import CalibrationPlan, PlanEntry

BUCKETS_DEG = (-0.01, -25.24, -56.9, -99.85, -140.0)
TEST_Q_DEG = (79.20, -0.01, -5.57, 51.00, -97.52, -91.67)
LIMITS_DEG = ((-185, 185), (-140, -0.001), (-120, 155),
              (-350, 350), (-122.5, 122.5), (-350, 350))
LOAD_N = 2600.0


def replicated(plan: CalibrationPlan, factor: int) -> CalibrationPlan:
    """The same configurations with every repeat count multiplied by ``factor``."""
    return CalibrationPlan(tuple(PlanEntry(e.q_rad, e.wrench, e.repeats * factor)
                                 for e in plan.entries))


def spread_plan(buckets_deg=BUCKETS_DEG, configs_per_bucket=3, repeats=3,
                load_N=LOAD_N, seed=7) -> CalibrationPlan:
    """Random-but-seeded wide-spread plan: good conditioning without search.

    Per-configuration generators keep the plan independent of iteration
    order; the arm joints are drawn wide so every compliance direction is
    excited.
    """
    wrench = (0.0, 0.0, -load_N, 0.0, 0.0, 0.0)
    entries = []
    for b, q2_deg in enumerate(buckets_deg):
        for c in range(configs_per_bucket):
            rng = np.random.default_rng((seed, b, c))
            q = (rng.uniform(-1.2, 1.2),
                 np.radians(q2_deg),
                 rng.uniform(-1.5, 0.5),
                 rng.uniform(-2.5, 2.5),
                 rng.uniform(-1.8, 1.8),
                 rng.uniform(-2.5, 2.5))
            entries.append(PlanEntry(q, wrench, repeats))
    return CalibrationPlan(tuple(entries))
