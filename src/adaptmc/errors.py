"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all adaptmc errors."""


class NonPsd(Error):
    """Matrix is not positive semidefinite within tolerance."""


class DimensionMismatch(Error):
    """Array dimensions are incompatible."""


# the name the transport routines raise under; one error, two names
DimensionError = DimensionMismatch


class DomainError(Error):
    """State lies outside the kernel's domain."""


class StepSizeOutOfRange(Error):
    """Langevin step size lies outside the admissible interval."""


class VariantMismatch(Error):
    """Tuning parameter variant does not match the kernel family."""


class ZeroDensity(Error):
    """Target density vanishes at the current state."""


class SizeCap(Error):
    """Problem size exceeds the exact-solver cap."""


class Infeasible(Error):
    """Transport problem reported infeasible or the solver failed."""


class ParamOutOfRange(Error):
    """Constant lies outside the range required by the bound."""


class HypothesisFailed(Error):
    """Enumerated chain violates a required precondition."""


class ContractionViolated(Error):
    """Exact transport distance exceeds the certified contraction bound."""


class SchemaError(Error):
    """Experiment config failed validation."""


class UnknownField(SchemaError):
    """Experiment config contains an unrecognized field."""


class MissingArtifact(Error):
    """Expected output file is absent from the run directory."""
