"""Exception hierarchy for the qkdprobe toolkit.

Every error raised by the library derives from :class:`QkdProbeError`, so
callers (in particular the CLI) can distinguish domain/model failures from
programming errors.
"""


class QkdProbeError(Exception):
    """Base class for all qkdprobe errors."""


class DomainError(QkdProbeError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class OutOfDomainError(DomainError):
    """A requested error rate or arcsine argument leaves the feasible range."""


class DegenerateModelError(QkdProbeError):
    """Coefficients are not realizable by any probe setting.

    Raised when a detection probability leaves [0, 1] beyond tolerance or
    when the overlap denominator radicand is non-positive.
    """


class InfeasibleConstraintError(QkdProbeError):
    """No probe angle can meet the requested error-rate constraint."""


class SingularLambdaError(QkdProbeError):
    """sin(lambda) ~ 0, so mu has no effect and cannot be solved for."""


class NotNormalizedError(QkdProbeError):
    """A probability distribution does not sum to one within tolerance."""


class TooLargeError(QkdProbeError):
    """An exhaustive-enumeration guard was exceeded."""


class EmptyFeasibleSetError(QkdProbeError):
    """A constrained scan found no grid point meeting the error constraint."""


class DegenerateRunError(QkdProbeError):
    """A simulation produced no sifted bits."""
