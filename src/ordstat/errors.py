"""Exception hierarchy.

All errors raised deliberately by this package derive from
:class:`OrdstatError` so callers can catch the package's failures without
swallowing genuine bugs (TypeError, AttributeError, ...).
"""

__all__ = [
    "OrdstatError",
    "DomainError",
    "DivergentIntegralError",
    "UnsupportedShapeError",
    "ConvergenceError",
]


class OrdstatError(Exception):
    """Base class for all package errors."""


class DomainError(OrdstatError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DivergentIntegralError(DomainError):
    """A moment-style integral does not converge for the requested argument.

    Raised e.g. when a kernel is evaluated at Re(lambda) at or beyond the
    distribution's declared convergence abscissa with an unbounded upper
    integration limit.
    """


class UnsupportedShapeError(OrdstatError):
    """A partition does not reduce to any supported closed-form family.

    Attributes
    ----------
    nearest : str
        Human-readable hint naming the closest supported shape.
    """

    def __init__(self, message, nearest=""):
        super().__init__(message)
        self.nearest = nearest


class ConvergenceError(OrdstatError, ArithmeticError):
    """A numerical procedure failed to reach its accuracy target."""
