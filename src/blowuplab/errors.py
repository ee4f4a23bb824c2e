"""Exception types shared across the package, and the integer check that raises one."""

import numbers


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
    diffusion raises; the message then names the model's ``label``.
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


def check_integer(name: str, value) -> int:
    """Return ``value`` as an int; reject bools and non-integral values."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)
