"""Exception types shared across the library, and the three scalar input rules.

``check_positive``, ``check_nonneg`` and ``check_integer`` are the one
implementation of "finite and > 0", "finite and >= 0" and "an integer >= k"
that every module calls for a lambda, radius, offset, tolerance, count or
size.  Each raises ``InvalidParamError`` naming the field, or returns the
value as a plain ``float`` or ``int``.  A bool is no quantity and no count,
and is refused; numpy numbers are accepted.
"""

import math
import numbers


class PoissonCSError(Exception):
    """Base class for all library errors."""


class LengthMismatchError(PoissonCSError, ValueError):
    """Two vectors that must have equal length do not."""


class DomainError(PoissonCSError, ValueError):
    """An input lies outside the mathematical domain of the operation."""


class InvalidParamError(PoissonCSError, ValueError):
    """A scalar parameter is out of range (negative rate, bad probability, ...)."""


class TooManySupportsError(PoissonCSError, ValueError):
    """Exhaustive RIC enumeration would exceed the configured support cap."""


class MissingSamplesError(PoissonCSError, ValueError):
    """Percentile-based epsilon selection was requested without enough samples."""


class InfeasibleStartError(PoissonCSError, ValueError):
    """The solver's starting point violates the fit term's domain."""


class InfeasibleEpsilonError(PoissonCSError, ValueError):
    """The constraint radius is below what any coefficient vector can achieve."""


def _number(value, kind=numbers.Real) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


# In the two real-valued rules, NaN fails the comparison and is refused too.
def check_positive(name: str, value) -> float:
    if not (_number(value) and value > 0.0 and math.isfinite(value)):
        raise InvalidParamError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def check_nonneg(name: str, value) -> float:
    if not (_number(value) and value >= 0.0 and math.isfinite(value)):
        raise InvalidParamError(f"{name} must be finite and >= 0, got {value!r}")
    return float(value)


def check_integer(name: str, value, least: int) -> int:
    if not (_number(value, numbers.Integral) and value >= least):
        raise InvalidParamError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)
