"""Exception hierarchy.

Every error raised by this package derives from :class:`LuInvarError`,
which itself derives from ``ValueError`` so generic callers can treat any
of them as a bad-input condition.
"""

from __future__ import annotations


class LuInvarError(ValueError):
    """Base class for all errors raised by lu_invar."""


class ValidationError(LuInvarError):
    """A density-matrix invariant (Hermiticity, trace, positivity) failed."""


class NotHermitianError(ValidationError):
    pass


class NotUnitTraceError(ValidationError):
    pass


class NotPSDError(ValidationError):
    pass


class NoConvergenceError(LuInvarError):
    """An iterative eigenvalue/singular-value routine failed to converge."""


class NotUnitaryError(LuInvarError):
    pass


class DimensionMismatchError(LuInvarError):
    pass


class BadLengthError(LuInvarError):
    pass


class BadCutError(LuInvarError):
    pass


class BadToleranceError(LuInvarError):
    """A comparison or rank tolerance is negative, NaN or infinite."""


class TooLargeError(LuInvarError):
    pass


class BadShapeError(LuInvarError):
    pass


class UnsupportedFormatError(BadShapeError):
    """The input is not of the format the requested invariant or hypermatrix reads."""


class NotBipartiteError(LuInvarError):
    pass


class StateFormatError(LuInvarError):
    """A state or report file failed to parse against its schema."""
