"""Exception hierarchy for the calibration toolkit.

All toolkit-specific failures derive from :class:`CalibrationError` so that
callers (and the CLI) can distinguish numerical/validation failures from
programming errors.
"""


class CalibrationError(Exception):
    """Base class for all toolkit errors."""


class ModelFileError(CalibrationError):
    """Raised when a robot model file cannot be parsed or violates the schema."""


class DegenerateGeometryError(CalibrationError):
    """Raised when marker data is too degenerate for a circle/arc fit."""


class AngleDirectionError(DegenerateGeometryError):
    """Raised when the annotated joint angles rotate opposite to the data.

    Carries a suggestion for the sign flip that would reconcile them.
    """


class SingularConfigurationError(CalibrationError):
    """Raised when a Jacobian or stiffness operator is singular."""


class ConvergenceError(CalibrationError):
    """Raised when an iterative solver fails to converge."""


class DataLayoutError(CalibrationError, ValueError):
    """Raised when a data file is malformed or a measurement record cannot be
    mapped onto the parameter layout (unknown marker id, joint-2 angle
    outside every bucket, ...)."""


class IdentifiabilityError(CalibrationError):
    """Raised when a regressor / information matrix is rank deficient.

    ``null_directions`` (if set) holds unit vectors spanning the unobservable
    parameter subspace, in the column order of the offending matrix.
    """

    def __init__(self, message, null_directions=None):
        super().__init__(message)
        self.null_directions = null_directions


class UsageError(CalibrationError):
    """Raised by the CLI front end for bad invocations (exit code 1)."""
