"""Stiffness calibration toolkit for a gravity-compensated 6R manipulator.

The package covers the full loop: a lumped-elasticity robot model with an
articulated gravity compensator on joint 2, circle-fit based identification
of the compensator linkage geometry from tracker data, two-stage
identification of joint compliances and spring constants from deflection
records, measurement-plan design, Cartesian stiffness prediction and
deflection compensation, plus a synthetic data generator for closed-loop
validation.
"""

__version__ = "0.1.0"

from .compensator import (CompensatorElastics, CompensatorGeometry,
                          CompensatorParams, compensator_torque,
                          equivalent_joint_stiffness, eta, eta_curve,
                          spring_span)
from .errors import (AngleDirectionError, CalibrationError, ConvergenceError,
                     DataLayoutError, DegenerateGeometryError,
                     IdentifiabilityError, ModelFileError,
                     SingularConfigurationError, UsageError)
from .robot import (ChainState, FrameSpec, JointSpec, ManipulatorModel,
                    NodeLoading, Pose, chain_state, fk, gravity_loading,
                    hessian_theta, marker_positions)
from .circle_fit import (CircleFit, ConcentricFit, fit_circle_procrustes,
                         fit_concentric_arcs)
from .geometry_id import (CompensatorGeometryEstimate, GeometryCI,
                          MarkerDataset, confidence_intervals_geometry,
                          identify_compensator_geometry, load_marker_csv,
                          save_marker_csv)
from .elasto_id import (CompliancesFit, DeflectionRecords, ElastoCI,
                        ElastostaticEstimate, ParameterLayout,
                        build_regressor, confidence_intervals_elasto,
                        identify_compliances, identify_elastostatics,
                        load_deflection_csv, save_deflection_csv,
                        separate_compensator)
from .stiffness import (CartesianStiffness, EquilibriumState,
                        cartesian_stiffness, compensate_target,
                        joint_stiffnesses, loaded_equilibrium, mirror_deflection,
                        predict_marker_deflections, predict_tool_deflection,
                        solve_equilibria, solve_equilibrium)
from .doe import (CalibrationPlan, NoiseModel, OptimizedPlan, PlanConstraints,
                  PlanEntry, TestPose, load_plan_csv, optimize_plan,
                  save_plan_csv, test_pose_accuracy)
from .sim import (GroundTruth, simulate_deflection_records,
                  simulate_geometry_dataset)
from .modelfile import load_model

__all__ = [name for name in dir() if not name.startswith("_")]
