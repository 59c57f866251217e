"""Exception types shared across the package.

Contract violations on otherwise-valid objects (wrong index order, grid
mismatch, degenerate probe inputs) raise plain ``ValueError``; the classes
below mark configuration problems and numerical failures so the CLI can map
them onto distinct exit codes.
"""


class ConfigurationError(Exception):
    """Invalid configuration: bad grid parameters, schema violations, failed
    exponent constraints."""


class NumericalError(Exception):
    """Numerical failure during a computation (overflow, singular matrix,
    divergence).  ``report`` (when set) holds the partial diagnostics of the
    recovery it ended, its completed sweeps and their distances among them."""

    report = None


class SingularOperatorError(NumericalError):
    """A resolvent matrix is numerically singular.

    Carries the offending smallest singular value in ``sigma_min``.
    """

    def __init__(self, message: str, sigma_min: float):
        super().__init__(message)
        self.sigma_min = sigma_min


class ConvergenceError(NumericalError):
    """An iteration failed to converge."""


class BallViolationError(NumericalError):
    """A state left the admissible ball of the model."""

    def __init__(self, message: str, norm: float, radius: float):
        super().__init__(message)
        self.norm = norm
        self.radius = radius
