"""Exception types shared across the package, and the argument checks.

Every public function either returns its documented result or raises a
:class:`BlowupLabError`.  A scalar argument is checked by
:func:`check_real` or :func:`check_integer`, which reject with
:class:`DomainError` a bool, a value of the wrong type (a str, ``None``,
a complex number, or a non-integral number where an integer is due), nan,
an infinity unless the argument may be ``+inf``, and a number outside
the argument's bound.  numpy scalars pass like Python numbers.  An array
argument is checked by :func:`check_array`, which rejects a value that
is not a 1-d sequence of finite real numbers, is too short, or breaks
the argument's sign or order rule.  The message always takes one form:
``"<name> must be <requirement>, got <repr of value>"``, for instance
``"k must be a finite real number > 0, got '2'"``.
"""

import math
import numbers
import reprlib

import numpy as np


class BlowupLabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BlowupLabError, ValueError):
    """Input lies outside the mathematical domain of an operation.

    Raised for nonpositive levels, exponents out of range, evaluation at
    or beyond a blow-up time, and similar contract violations.
    """


class LevelOverflowError(DomainError):
    """A level exceeds the representable floating-point range.

    Distinct from a finite-time blow-up: the trajectory is perfectly
    regular, it merely left double precision (doubly exponential growth
    does this quickly).
    """


class StiffnessError(BlowupLabError, RuntimeError):
    """Adaptive step size underflowed without a threshold crossing."""


class FieldEvaluationError(BlowupLabError, RuntimeError):
    """A user-supplied field or model could not be evaluated.

    Raised when a vector field's rate raises or returns a non-finite or
    malformed derivative, and when a stochastic model's drift or
    diffusion raises or returns ``None`` or a result of the wrong shape;
    the message then names the model's ``label``.
    """


class InsufficientDataError(BlowupLabError, ValueError):
    """A statistical routine received fewer samples than it requires."""


class DslError(BlowupLabError, ValueError):
    """Base class for growth-law DSL failures."""


class DslSyntaxError(DslError):
    """Source text does not match the grammar.

    Carries the 1-based ``line`` and ``column`` of the offending token.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class BindingError(DslError):
    """An expression references a name with no bound value."""


def _bound(above: float | None, at_least: float | None) -> str:
    if above is not None:
        return f" > {above:g}"
    return "" if at_least is None else f" >= {at_least:g}"


def check_integer(name: str, value, at_least: int | None = None) -> int:
    """Return ``value`` as an int; reject bools, non-integral values and
    values below ``at_least``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) \
            and (at_least is None or value >= at_least):
        return int(value)
    raise DomainError(f"{name} must be an integer{_bound(None, at_least)}, got {value!r}")


def as_real(value) -> float | None:
    """``value`` as a float if it is a real number, not a bool, that a
    double can hold; else ``None``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int too large for a double
            pass
    return None


def check_real(name: str, value, *, above: float | None = None,
               at_least: float | None = None, allow_inf: bool = False):
    """Return ``value`` unchanged if it is a real number in range.

    The value must be finite, or ``+inf`` when ``allow_inf`` is set, and
    lie ``above`` the one bound or ``at_least`` at it, when either is
    given; anything else raises :class:`DomainError`.
    """
    x = as_real(value)
    if x is not None and (math.isfinite(x) or allow_inf and x == math.inf) \
            and (above is None or x > above) and (at_least is None or x >= at_least):
        return value
    requirement = "a finite real number" + _bound(above, at_least) + (" or inf" if allow_inf else "")
    raise DomainError(f"{name} must be {requirement}, got {value!r}")


def check_array(name: str, value, *, min_len: int = 1, positive: bool = False,
                increasing: bool = False) -> np.ndarray:
    """Return ``value`` as a 1-d float64 array of at least ``min_len``
    finite real numbers, each ``> 0`` if ``positive``, increasing strictly
    if ``increasing``; a float64 array comes back as itself, not a copy."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):  # a ragged nest of sequences is not 1-d
        arr = np.empty((0, 0))
    if arr.ndim == 1 and arr.dtype.kind in "iuf" and len(arr) >= min_len:
        arr = arr.astype(float, copy=False)
        if np.all(np.isfinite(arr)) and (not positive or np.all(arr > 0.0)) \
                and (not increasing or np.all(arr[1:] > arr[:-1])):
            return arr
    requirement = ("a strictly increasing " if increasing else "a ") \
        + ("non-empty " if min_len == 1 else "") + "1-d sequence of " \
        + (f"at least {min_len} " if min_len > 1 else "") + "finite real numbers" \
        + (" > 0" if positive else "")
    raise DomainError(f"{name} must be {requirement}, got {reprlib.repr(value)}")
