"""Exception hierarchy for numeric failures.

Domain errors (bad arguments, invalid parameter combinations) raise the
built-in ValueError. Everything that fails *during* a numeric computation
that started from valid inputs derives from NumericsError, so callers can
distinguish "your request is malformed" from "the computation broke down".
"""


class NumericsError(RuntimeError):
    """Base class for runtime numeric failures."""


class QuadratureError(NumericsError):
    """An integral did not converge to the requested tolerance."""


class AccuracyError(NumericsError):
    """A special function evaluated to a value outside its range, such as
    an infinite (overflowing) U."""


class ConstructionError(NumericsError):
    """Numeric construction of a fundamental solution failed validation."""
