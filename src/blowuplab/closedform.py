"""Closed-form solutions for self-accelerating growth models.

The model family has two phases.  In phase 1 a level ``A`` grows
exponentially under an external driver of fixed capability ``I``:
``dA/dt = k*I*A``, so with ``A = 1`` at ``t1 = 0`` the level reaches the
driver's capability after ``ln(I)/ln(R)`` years, where ``R = exp(k*I)``
is the annual growth factor.  In phase 2 the driver is the level itself
and the dynamics turn self-referential.  Depending on how the growth
rate couples to the level, phase 2 is

* hyperbolic, ``dA/dt = k*A**2``, blowing up at ``t2 = 1/(k*I)``;
* a power law, ``dA/dt = k*A**n`` with ``n > 1``, blowing up at
  ``t2 = 1/((n-1)*k*I**(n-1))``;
* logarithmic, ``dA/dt = k*ln(A)*A``, doubly exponential and finite for
  every finite time;
* or a coupled pair ``dY = k1*Y*A``, ``dA = k2*Y*A`` whose balanced
  start ``Y0 = k1/k2`` with ``A0 = 1`` gives ``A(t) = 1/(1 - k1*t)``.

Two separate clocks are used on purpose.  Phase-1 time ``t1`` runs from
the moment ``A = 1``; phase-2 time ``t2`` runs from the moment ``A = I``.
Total elapsed time is the sum of the two segment readings, as in
:func:`total_singularity_time`.

Every function takes its parameters as plain numbers, validates them
and raises :class:`~blowuplab.errors.DomainError` on violations rather
than returning junk.  A phase-1 rate given as an annual growth factor
``R`` becomes ``k`` through :func:`calibrate_k`.  Evaluation within a relative guard band of ``1e-12``
around a blow-up time is rejected: so close to the pole the closed form
has no float accuracy left.  No function returns inf: a level past
double range raises :class:`~blowuplab.errors.LevelOverflowError`, and a
blow-up time past it (``1/(k*I)`` where ``k*I`` underflows, for
instance) raises DomainError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, LevelOverflowError, check_real

__all__ = [
    "BlowUpTime",
    "calibrate_k",
    "exp_phase_solution",
    "phase1_duration",
    "hyperbolic_solution",
    "hyperbolic_blowup_time",
    "total_singularity_time",
    "powerlaw_solution",
    "powerlaw_blowup_time",
    "loglaw_solution",
    "coupled_gdp_solution",
]

# Relative half-width of the rejection band around a blow-up time.
BLOWUP_GUARD = 1e-12

# Largest x with exp(exp(x)) still representable in a double.
_MAX_DOUBLE_EXP_ARG = math.log(math.log(1.7976931348623157e308))


@dataclass(frozen=True)
class BlowUpTime:
    """Outcome of a blow-up time computation.

    ``finite`` tells whether the model reaches infinity in finite time;
    ``t_star`` is the blow-up time when it does and ``None`` otherwise.
    Construct via :meth:`at` or :meth:`never`.
    """

    finite: bool
    t_star: float | None = None

    def __post_init__(self) -> None:
        if self.finite:
            check_real("t_star of a finite blow-up", self.t_star, above=0.0)
        elif self.t_star is not None:
            raise DomainError("t_star must be None when no finite blow-up occurs")

    @classmethod
    def at(cls, t_star: float) -> "BlowUpTime":
        return cls(finite=True, t_star=t_star)

    @classmethod
    def never(cls) -> "BlowUpTime":
        return cls(finite=False, t_star=None)


def _check_before_blowup(t: float, t_star: float, what: str) -> None:
    if t >= t_star * (1.0 - BLOWUP_GUARD):
        raise DomainError(
            f"{what} is undefined at t={t!r}: blow-up at t_star={t_star!r} "
            f"(evaluation rejected within a relative guard of {BLOWUP_GUARD:g})"
        )


def _in_range(level: float, what: str, t: float) -> float:
    if not level < math.inf:  # inf or nan
        raise LevelOverflowError(f"{what} exceeds double range at t={t!r}")
    return level


def calibrate_k(R: float, I: float) -> float:
    """Growth coefficient matching an observed annual growth factor.

    Solves ``exp(k*I) = R`` for ``k``, i.e. ``k = ln(R)/I``: the rate at
    which a driver of capability ``I`` must improve the level per unit
    of its own capability so the level grows by factor ``R`` a year.
    Requires ``R > 1`` and ``I > 0``, and a quotient that does not
    underflow to 0.
    """
    check_real("I", I, above=0.0)
    check_real("growth factor R", R, above=1.0)
    k = math.log(R) / I
    if k == 0.0:
        raise DomainError(f"growth coefficient ln(R)/I underflows to 0 for growth factor "
                          f"R={R!r} and I={I!r}")
    return k


def exp_phase_solution(k: float, I: float, t1: float, c: float = 1.0) -> float:
    """Level after ``t1`` years of externally driven exponential growth.

    Evaluates ``c * exp(k*I*t1)``.  With ``k = calibrate_k(R, I)`` this
    equals ``c * R**t1``.
    """
    check_real("phase-1 time", t1, at_least=0.0)
    c = check_real("c", c, above=0.0)
    k = check_real("k", k, above=0.0)
    I = check_real("I", I, above=0.0)
    # k*I may pass double range where the exponent does not (t1 is 0, or
    # tiny): t1 then scales the larger factor first
    exponent = k * I * t1 if k * I <= sys.float_info.max else max(k, I) * t1 * min(k, I)
    try:
        # past 709, e**exponent may leave double range where c * e**exponent does not
        level = c * math.exp(exponent) if exponent <= 709.0 else math.exp(exponent + math.log(c))
    except OverflowError:
        level = math.inf
    return _in_range(level, "exp-phase level", t1)


def phase1_duration(R: float, I: float) -> float:
    """Years for the level to climb from 1 to the driver capability ``I``.

    Equals ``ln(I)/ln(R)``.  ``I = 1`` means the phase is already over
    (returns 0); ``I < 1`` has no meaning here and is rejected.
    """
    check_real("growth factor R", R, above=1.0)
    check_real("capability ratio I", I, at_least=1.0)
    if I == 1.0:
        return 0.0
    return math.log(I) / math.log(R)


def hyperbolic_solution(k: float, I: float, t2: float) -> float:
    """Level ``t2`` years into the self-referential hyperbolic phase.

    Solves ``dA/dt2 = k*A**2`` from ``A(0) = I``, giving
    ``A = I / (1 - k*I*t2)``.  This form keeps full precision near the
    pole, unlike ``1/(1/I - k*t2)`` whose subtraction cancels.
    Evaluation at or beyond ``t2 = 1/(k*I)`` raises
    :class:`~blowuplab.errors.DomainError`.
    """
    t_star = hyperbolic_blowup_time(k, I).t_star
    check_real("phase-2 time", t2, at_least=0.0)
    _check_before_blowup(t2, t_star, "hyperbolic level")
    return _in_range(I / (1.0 - k * I * t2), "hyperbolic level", t2)


def hyperbolic_blowup_time(k: float, I: float) -> BlowUpTime:
    """Blow-up time ``1/(k*I)`` of the hyperbolic phase."""
    check_real("k", k, above=0.0)
    check_real("I", I, above=0.0)
    rate = k * I  # 0 where it underflows: the blow-up time is past double range
    return BlowUpTime.at(1.0 / rate if rate > 0.0 else math.inf)


def total_singularity_time(R: float, I: float) -> float:
    """Years from ``A = 1`` to the hyperbolic blow-up, both phases.

    Phase 1 contributes ``ln(I)/ln(R)``; phase 2, entered at ``A = I``
    with ``k`` calibrated to the same growth factor, contributes
    ``1/(k*I) = 1/ln(R)``.  Notably the phase-2 term does not depend on
    ``I``: a more capable driver shortens phase 1 only.
    """
    duration1 = phase1_duration(R, I)
    return duration1 + 1.0 / math.log(R)


def powerlaw_solution(k: float, I: float, n_exp: float, t2: float) -> float:
    """Level ``t2`` years into a power-law phase ``dA/dt2 = k*A**n``.

    For ``n > 1`` the solution is
    ``A = (I**(1-n) - (n-1)*k*t2) ** (-1/(n-1))``, blowing up when the
    bracket reaches zero.  ``n <= 1`` does not blow up and is rejected
    here; use :func:`powerlaw_blowup_time` to probe finiteness without
    an exception.  ``n = 2`` reproduces :func:`hyperbolic_solution`.
    """
    check_real("exponent n", n_exp, above=1.0)
    t_star = powerlaw_blowup_time(k, I, n_exp).t_star
    check_real("phase-2 time", t2, at_least=0.0)
    _check_before_blowup(t2, t_star, "power-law level")
    m = n_exp - 1.0
    try:
        level = (I ** (-m) - m * k * t2) ** (-1.0 / m)
    except (OverflowError, ZeroDivisionError):  # a bracket rounded to 0 included
        level = math.inf
    return _in_range(level, "power-law level", t2)


def powerlaw_blowup_time(k: float, I: float, n_exp: float) -> BlowUpTime:
    """Blow-up time of the power-law phase, finite only for ``n > 1``.

    Returns ``1/((n-1)*k*I**(n-1))`` wrapped in a finite
    :class:`BlowUpTime`; exponents ``n <= 1`` yield the not-finite
    outcome instead of an exception, so callers can scan exponent
    ranges without try/except.
    """
    check_real("k", k, above=0.0)
    check_real("I", I, above=0.0)
    if check_real("exponent n", n_exp) <= 1.0:
        return BlowUpTime.never()
    m = n_exp - 1.0
    try:
        t_star = I ** (-m) / (m * k)
    except (OverflowError, ZeroDivisionError):  # past double range, or m*k underflowed
        t_star = math.inf
    return BlowUpTime.at(t_star)


def loglaw_solution(c: float, k: float, t: float) -> float:
    """Level under logarithmic rate coupling, ``dA/dt = k*ln(A)*A``.

    The solution ``A = exp(exp(c + k*t))`` grows doubly exponentially
    yet stays finite for every finite ``t``: there is no blow-up.  What
    it can do is leave double precision, around ``c + k*t > 6.565``;
    that raises :class:`~blowuplab.errors.LevelOverflowError`, which is
    a representation limit, not a singularity.
    """
    # any finite (c, k, t) is fine: k = 0 freezes the level and k < 0
    # decays it toward 1; only overflow needs guarding
    check_real("growth coefficient", k)
    check_real("integration constant", c)
    check_real("time", t)
    inner = c + k * t
    if inner > _MAX_DOUBLE_EXP_ARG:
        raise LevelOverflowError(
            f"doubly exponential level exceeds double range at t={t!r} "
            f"(c + k*t = {inner!r} > {_MAX_DOUBLE_EXP_ARG:.6f}); this is an "
            "overflow of the representation, not a blow-up"
        )
    return math.exp(math.exp(inner))


def coupled_gdp_solution(k1: float, t: float) -> float:
    """Level of the balanced coupled economy, ``A(t) = 1/(1 - k1*t)``.

    In the pair ``dY/dt = k1*Y*A``, ``dA/dt = k2*Y*A`` the combination
    ``Y - (k1/k2)*A`` is conserved.  Starting from ``A0 = 1`` with the
    balanced co-factor ``Y0 = k1/k2`` it vanishes, ``Y`` stays
    proportional to ``A``, and the level follows the hyperbola above,
    blowing up at ``t = 1/k1``.  Evaluation at or beyond the pole is
    rejected.
    """
    check_real("k1", k1, above=0.0)
    check_real("time", t, at_least=0.0)
    t_star = 1.0 / k1
    _check_before_blowup(t, t_star, "coupled-economy level")
    return 1.0 / (1.0 - k1 * t)
