"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class FamilyError(ValueError):
    """A subordinator family is invalid or unsupported for the operation."""


class CalibrationError(RuntimeError):
    """An operation requiring a calibrated family received an uncalibrated one."""


class QuadratureError(ArithmeticError):
    """Numerical integration failed to reach the requested accuracy.

    Carries the best available estimate and its error bound so callers can
    decide whether to degrade gracefully.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class LatticeError(ArithmeticError):
    """Finite atoms lie on no lattice fine enough for an accurate exact law."""
