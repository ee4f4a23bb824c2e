"""Reverse-task analysis: read the fate of a growth law from its form.

Given an autonomous rate ``dA/dt = F(A)``, the time to reach infinity
from ``A0`` is ``integral dA / F(A)``.  :func:`classify_growth_law`
decides whether that integral converges using two independent routes
and only commits to a verdict when both agree:

1. a quadrature ladder: the integral is accumulated over the decades
   ``[A0*10^j, A0*10^(j+1)]``, eight at a time in one call of
   :func:`~blowuplab.ode.gauss_kronrod` (in ``x = ln A``, the law
   evaluated node by node), for at most 280 decades and not past 1e306.
   Geometrically shrinking increments mean convergence (with a geometric
   tail estimate) and non-decreasing ones divergence.  Between them, from
   24 increments on, a fitted decay order of at most 1.1 reads as
   divergence, although orders in (1, 1.1] are summable; a ladder that
   meets its cap first reads finite above order 1.05;
2. a tail exponent probe: ``p(A) = ln(F(e*A)/F(A))`` measures the local
   power ``F ~ A**p``.  Clearly above 1 means finite time, at or below
   1 means infinite time.  The delicate strip just above 1 is resolved
   by fitting ``p(A) - 1 ~ a + beta/ln(A)``: a vanishing intercept with
   slope ``beta`` indicates ``F ~ A * ln(A)**beta``, which converges
   only for ``beta > 1``.  The fitted ``beta`` separates
   ``A*ln(A)`` (infinite) from ``A*ln(A)**2`` (finite), which the raw
   margin rule alone cannot do.

:func:`barometer` is the online counterpart: a quadratic trend test on
``ln(value)`` over a trailing window, flagging super-exponential
curvature when its t-statistic clears a threshold;
:func:`barometer_batch` tests many series on one time grid in one fit.
Exactly exponential data fits the quadratic term at machine-epsilon
size with machine-epsilon residuals, so its t-statistic is rounding
noise that can be huge; a tiny absolute curvature floor filters those.

:func:`compose_phases` stitches the externally driven exponential
phase to a self-referential second phase at the exact switching level.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import dsl
from .closedform import calibrate_k
from .errors import (DomainError, FieldEvaluationError, InsufficientDataError,
                     LevelOverflowError, check_array, check_integer, check_real)
from .ode import BlowUpEvent, VectorField, estimate_blowup_time, fit_line, gauss_kronrod, integrate

__all__ = [
    "FINITE_TIME",
    "INFINITE_TIME",
    "INCONCLUSIVE",
    "GrowthLaw",
    "MethodReading",
    "ConvergenceVerdict",
    "BarometerReport",
    "PhasePlan",
    "classify_growth_law",
    "barometer",
    "barometer_batch",
    "compose_phases",
]

FINITE_TIME = "finite-time"
INFINITE_TIME = "infinite-time"
INCONCLUSIVE = "inconclusive"

# A growth law is a rate expression in one level variable: DSL source,
# a parsed DSL expression or equation, or any float-to-float callable.
GrowthLaw = Union[str, dsl.Expr, dsl.SystemSpec, Callable]


# Classifier settings.  The quadrature ladder adds eight decades a pass
# while slowly decaying increments need them, up to 280 decades and 1e306
# (inside double range); from 24 rungs on, a decay order of at most
# _LOG_ORDER_INFINITE reads as divergence.
_LADDER_DECADES = 8
_MAX_LADDER_DECADES = 280
_EXPONENT_MARGIN = 0.05
_EXPONENT_GRID = (1e4, 1e5, 1e6, 1e7, 1e8)
_LOG_ORDER_INFINITE = 1.1
_LOG_ORDER_FINITE = 1.5
_INTERCEPT_SLACK = 0.01
_TAIL_TARGET = 0.02
_QUAD_RTOL = 1e-10
# relative floor under the barometer's curvature, in standardized units
_CURVATURE_FLOOR = 1e-12
# samples of compose_phases' exponential phase, the switch included
_PHASE1_SAMPLES = 129


@dataclass(frozen=True)
class MethodReading:
    """One sub-method's verdict with its numbers."""

    verdict: str
    estimate: float | None
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Joint classification of a growth law.

    The overall ``verdict`` is non-inconclusive only when both
    sub-methods agree.  ``singularity_time_estimate`` measures from
    ``A0`` and is present for finite-time verdicts;
    ``tail_exponent`` is the fitted asymptotic power of the rate.
    """

    verdict: str
    singularity_time_estimate: float | None
    tail_exponent: float | None
    evidence: dict[str, MethodReading]


@dataclass(frozen=True)
class BarometerReport:
    """Trend-test outcome over a trailing window.

    ``window`` is the analyzed time range ``(start, end)``;
    ``quadratic_coeff`` is the fitted second-order coefficient of
    ``ln(value)`` in original time units; ``flagged`` requires positive
    curvature, a t-statistic above the threshold, and curvature above
    the numeric floor.
    """

    window: tuple[float, float]
    n_samples: int
    quadratic_coeff: float
    z_score: float
    flagged: bool


@dataclass(frozen=True, eq=False)
class PhasePlan:
    """A two-phase scenario stitched at the switching level.

    ``times``/``levels`` hold the combined trajectory with the switch
    sample shared exactly; phase 2's ``blowup`` and its estimate
    ``total_blowup_time`` are on the combined clock and ``None`` when
    phase 2 never blows up (or its asymptote cannot be pinned down).
    """

    switch_time: float
    switch_level: float
    phase1_label: str
    phase2_label: str
    times: np.ndarray
    levels: np.ndarray
    blowup: BlowUpEvent | None

    @property
    def total_blowup_time(self) -> float | None:
        return None if self.blowup is None else self.blowup.estimate


# --------------------------------------------------------------------------
# growth-law coercion


def _as_rate(law: GrowthLaw, parameters: Mapping[str, float] | None = None):
    """Coerce a growth law to ``(scalar_callable, label)``: DSL text is
    parsed, a parsed law compiles with :func:`dsl.as_function` and a
    callable is kept; the label is the callable's name."""
    if isinstance(law, str):
        law = dsl.parse(law)
    if isinstance(law, (dsl.SystemSpec, dsl.Num, dsl.Name, dsl.Neg, dsl.BinOp, dsl.Call)):
        law = dsl.as_function(law, parameters)
    elif not callable(law):
        raise DomainError(f"cannot interpret {law!r} as a growth law")
    elif parameters is not None:
        raise DomainError("parameters must be None for a callable law, got "
                          f"{reprlib.repr(parameters)}")
    return law, getattr(law, "__name__", None) or "callable"


def _safe_rate(fn: Callable, label: str) -> Callable[[float], float]:
    """Scalar evaluation that maps overflow to inf; an undefined value is a
    DomainError, any other failure, a non-number included, a FieldEvaluationError."""

    def call(level: float) -> float:
        try:
            return float(fn(level))
        except (OverflowError, LevelOverflowError):
            return math.inf
        except DomainError as exc:
            raise DomainError(f"growth law {label!r} is undefined at level {level!r}: "
                              f"{exc}") from exc
        except Exception as exc:
            raise FieldEvaluationError(
                f"growth law {label!r} failed at level {level!r}: {exc!r}"
            ) from exc

    return call


# --------------------------------------------------------------------------
# method 1: quadrature ladder


def _ladder_integrand(rate):
    """``dA/F(A)`` in ``x = ln A``, which tames the huge range, node by
    node: a growth law maps one float to one float."""

    def integrand(x: float) -> float:
        level = math.exp(x)
        f = rate(level)
        if not f > 0.0:
            return math.inf
        if math.isinf(f):
            return 0.0
        return level / f

    return lambda nodes: np.fromiter(map(integrand, nodes.tolist()), float, len(nodes))


def _quadrature_method(rate, A0: float) -> MethodReading:
    """Osgood's integral over rungs ``d``, rung j the decade ``[A0*10^j, A0*10^(j+1)]``."""
    log10 = math.log(10.0)
    x0 = math.log(A0)
    x_top = math.log(1e306)
    integrand = _ladder_integrand(rate)
    d: list[float] = []
    while True:
        n = len(d)
        top = min(n + _LADDER_DECADES, _MAX_LADDER_DECADES)
        edges = [x for j in range(n, top + 1) if (x := x0 + j * log10) <= x_top]
        if len(edges) > 1:
            d.extend(gauss_kronrod(integrand, edges, _QUAD_RTOL).tolist())
        elif d:
            # no rung fits: the last pass's alpha, total and tail stand
            details = {"mode": "polynomial-truncated", "decay_order": alpha, "rungs": n}
            if alpha > 1.0 + (_LOG_ORDER_INFINITE - 1.0) / 2.0:
                return MethodReading(FINITE_TIME, total + tail, {**details, "tail": tail})
            return MethodReading(INCONCLUSIVE, None, details)
        if len(d) < 3 or not all(map(math.isfinite, d[n:])):
            return MethodReading(INCONCLUSIVE, None,
                                 {"reason": "ladder not computable", "rungs": len(d)})

        if d[-1] <= 0.0:
            ratio = 0.0  # the integrand vanished: nothing left beyond this rung
        elif d[-1] >= d[-2] * (1.0 - 1e-12) and d[-2] >= d[-3] * (1.0 - 1e-12):
            return MethodReading(INFINITE_TIME, None, {
                "mode": "non-decreasing", "rungs": len(d), "last_ratio": d[-1] / d[-2]})
        else:
            # true geometric decay keeps the rung ratio constant, to within the
            # rungs' quadrature error, however close to 1; polynomial or
            # log-corrected decay drifts toward 1 and must be order-fitted
            last = d[-6:]
            ratios = [b / a for a, b in zip(last, last[1:])]
            constant = max(ratios) - min(ratios) <= 100 * _QUAD_RTOL * max(ratios)
            ratio = ratios[-1] if ratios[-1] < 1.0 and constant else None
        if ratio is not None:
            # the tail left is a geometric series, empty once the integrand vanished
            total = math.fsum(d)
            tail = d[-1] * ratio / (1.0 - ratio)
            return MethodReading(FINITE_TIME, total + tail, {
                "mode": "geometric", "ratio": ratio, "rungs": len(d), "tail": tail})

        # polynomial decay: the least-squares order of d_j ~ j**(-alpha) over
        # the tail rungs, whose distinct indices make the fit exist
        take = min(len(d), max(6, min(16, len(d) // 2)))
        idx = np.arange(len(d) - take + 1, len(d) + 1, dtype=float)
        alpha = -fit_line(np.log(idx), np.log(np.array(d[-take:])))[0]
        total = math.fsum(d)
        tail = d[-1] * len(d) / (alpha - 1.0) if alpha > 1.0 else math.inf
        details = {"mode": "polynomial", "decay_order": alpha, "rungs": len(d)}
        if len(d) >= 3 * _LADDER_DECADES and alpha <= _LOG_ORDER_INFINITE:
            return MethodReading(INFINITE_TIME, None, details)
        if len(d) >= 3 * _LADDER_DECADES and tail <= _TAIL_TARGET * total:
            return MethodReading(FINITE_TIME, total + tail, {**details, "tail": tail})


# --------------------------------------------------------------------------
# method 2: tail exponent probe


def _exponent_method(rate, A0: float) -> MethodReading:
    scale = max(A0, 1.0)
    points = []
    for base in _EXPONENT_GRID:
        level = base * scale
        f_lo = rate(level)
        f_hi = rate(level * math.e)
        if 0.0 < f_lo < math.inf and 0.0 < f_hi < math.inf:
            points.append((level, math.log(f_hi / f_lo)))
    if len(points) < 3:
        return MethodReading(INCONCLUSIVE, None,
                             {"reason": "rate not evaluable on the probe grid"})
    levels = np.array([lvl for lvl, _ in points])
    p = np.array([pv for _, pv in points])
    # distinct probe levels: the fit always exists
    slope, x_mean, p_mean = fit_line(1.0 / np.log(levels), p)
    intercept = p_mean - 1.0 - slope * x_mean
    p_limit = 1.0 + intercept

    details = {
        "p_values": tuple(float(v) for v in p),
        "p_limit": p_limit,
        "log_order": slope,
    }
    s = _EXPONENT_MARGIN
    if float(np.max(p)) <= 1.0 + 1e-9:
        return MethodReading(INFINITE_TIME, None, {**details, "mode": "subcritical"})
    if p_limit >= 1.0 + s and float(np.min(p)) >= 1.0 + s:
        return MethodReading(FINITE_TIME, None, {**details, "mode": "supercritical"})
    if abs(intercept) < _INTERCEPT_SLACK:
        if slope >= _LOG_ORDER_FINITE:
            return MethodReading(FINITE_TIME, None, {**details, "mode": "log-corrected"})
        if slope <= _LOG_ORDER_INFINITE:
            return MethodReading(INFINITE_TIME, None, {**details, "mode": "log-corrected"})
    return MethodReading(INCONCLUSIVE, None, {**details, "mode": "boundary"})


def _validate_rate_shape(rate, A0: float) -> None:
    # positivity and monotonicity are assumptions of the whole method;
    # sample them instead of trusting the caller, upward from A0 even
    # where A0 lies above 1e300
    top = max(min(1e12 * max(A0, 1.0), 1e300), A0)
    grid = np.exp(np.linspace(math.log(A0), math.log(top), 49))
    previous = None
    for level in grid.tolist():
        value = rate(level)
        if math.isinf(value):
            break
        if not value > 0.0:
            raise DomainError(
                f"rate must be strictly positive on [A0, inf); "
                f"found {value!r} at level {level!r}"
            )
        if previous is not None and value < previous * (1.0 - 1e-9):
            raise DomainError(
                f"rate must be monotone non-decreasing; it drops near level {level!r}"
            )
        previous = value


def classify_growth_law(law: GrowthLaw, A0: float = 1.0,
                        parameters: Mapping[str, float] | None = None) -> ConvergenceVerdict:
    """Decide whether ``dA/dt = F(A)`` reaches infinity in finite time.

    Runs the quadrature ladder and the tail exponent probe
    independently; the overall verdict is their agreement and
    ``inconclusive`` otherwise.  For finite-time verdicts the ladder's
    integral supplies the singularity time measured from ``A0``.

    The law must be positive and monotone non-decreasing on
    ``[A0, inf)``; both are validated by sampling.  A level where it is
    undefined raises DomainError; one where it overflows reads as an
    infinite rate.  ``parameters`` bind the names of a DSL law and must
    be None for a callable one.
    """
    check_real("A0", A0, above=0.0)
    fn, label = _as_rate(law, parameters)
    rate = _safe_rate(fn, label)
    _validate_rate_shape(rate, A0)

    quadrature = _quadrature_method(rate, A0)
    exponent = _exponent_method(rate, A0)

    if quadrature.verdict == exponent.verdict and quadrature.verdict != INCONCLUSIVE:
        verdict = quadrature.verdict
    else:
        verdict = INCONCLUSIVE
    estimate = quadrature.estimate if verdict == FINITE_TIME else None
    tail_exponent = exponent.details.get("p_limit")
    return ConvergenceVerdict(
        verdict=verdict,
        singularity_time_estimate=estimate,
        tail_exponent=tail_exponent,
        evidence={"quadrature": quadrature, "tail_exponent": exponent,
                  "law": MethodReading(verdict, None, {"label": label, "A0": A0})},
    )


# --------------------------------------------------------------------------
# online barometer


def barometer(times: Sequence[float], values: Sequence[float], window: int,
              z_threshold: float = 3.0) -> BarometerReport:
    """Flag super-exponential curvature in the trailing window.

    Fits ``ln(value) ~ b0 + b1*t + b2*t**2`` over the last ``window``
    samples (time standardized for conditioning) and reports the
    curvature's t-statistic.  ``flagged`` requires ``b2`` positive,
    ``z > z_threshold``, and ``b2`` above a floor of
    ``1e-12 * max(1, |b0|, |b1|)`` in standardized units.  On exactly
    exponential data ``b2`` and its standard error are both rounding
    noise, so ``z`` is arbitrary there and the floor decides.  The
    t-statistic assumes independent residuals; on a random-walk
    log-level such as geometric Brownian motion it flags more paths the
    longer the window (0.28, 0.38 and 0.45 of them at windows 50, 200
    and 1000).  Only the trailing window is read, so only its samples
    must be finite, increasing in time and positive.
    """
    tw = _window_times(times, window, z_threshold)
    vw = check_array("window values", _trailing(values, window), min_len=0, positive=True)
    if len(times) != len(values):
        raise DomainError("times and values must be equally long")
    if len(tw) < window:
        raise InsufficientDataError(f"need at least {window} samples, got {len(tw)}")
    return _trend_fit(tw, vw[None, :], z_threshold)[0]


def barometer_batch(times: Sequence[float], series: Sequence[Sequence[float]],
                    window: int, z_threshold: float = 3.0) -> list[BarometerReport]:
    """:func:`barometer` on every row of the 2-d ``series``, whose rows share ``times``.

    Each row's report equals, bit for bit, ``barometer`` on that row
    alone, so the same caveats hold: ``z`` on exactly exponential data
    is rounding noise and the floor decides, and on a random-walk
    log-level the independence the t-statistic assumes fails, so longer
    windows flag more.  Only the trailing window of each row is read.
    """
    tw = _window_times(times, window, z_threshold)
    try:
        block = np.asarray(series)
    except (TypeError, ValueError):  # ragged rows
        block = np.empty(0)
    if block.ndim != 2 or block.dtype.kind not in "iuf":
        raise DomainError(f"series must be a 2-d real array, got {reprlib.repr(series)}")
    if block.shape[1] != len(times):
        raise DomainError(f"rows of series must be as long as times, got {block.shape[1]}")
    if len(tw) < window:
        raise InsufficientDataError(f"need at least {window} samples, got {len(tw)}")
    block = block[:, -window:].astype(float, copy=False)
    bad = ~(np.isfinite(block) & (block > 0.0)).all(axis=1)
    if bad.any():
        row = int(bad.argmax())
        check_array(f"window values of row {row}", block[row], min_len=0, positive=True)
    return _trend_fit(tw, block, z_threshold)


def _trailing(seq, window: int):
    try:
        return seq[-window:]
    except (TypeError, IndexError, KeyError):  # not a sequence; check_array names it
        return seq


def _window_times(times, window: int, z_threshold: float) -> np.ndarray:
    """Check ``window`` and ``z_threshold``, then the trailing ``window`` of ``times``."""
    check_integer("window", window, at_least=8)
    check_real("z_threshold", z_threshold)
    return check_array("window times", _trailing(times, window), min_len=0, increasing=True)


def _trend_fit(tw: np.ndarray, block: np.ndarray, z_threshold: float) -> list[BarometerReport]:
    # one 3 x window projection serves every row, each row reduced on its own
    # in a C-contiguous block: no BLAS call grows with the row count (a large
    # one starts BLAS threads) and no row's numbers depend on the others
    y = np.log(block, order="C")
    spread = tw.std()
    tau = (tw - tw.mean()) / spread
    design = np.column_stack([np.ones_like(tau), tau, tau * tau])
    gram_inv = np.linalg.inv(design.T @ design)
    b0, b1, b2 = ((y * row).sum(axis=1) for row in gram_inv @ design.T)
    residual = y - (b0[:, None] + b1[:, None] * tau + b2[:, None] * tau * tau)
    sigma2 = (residual * residual).sum(axis=1) / (len(tw) - 3)
    se = np.sqrt(np.maximum(sigma2 * gram_inv[2, 2], 0.0))
    above_floor = b2 > _CURVATURE_FLOOR * np.maximum(1.0, np.maximum(abs(b0), abs(b1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0.0, b2 / se, np.where(above_floor, math.inf, 0.0))
    flagged = above_floor & (z > z_threshold)
    span = (float(tw[0]), float(tw[-1]))
    return [BarometerReport(span, len(tw), coeff, z_score, flag) for coeff, z_score, flag
            in zip((b2 / spread ** 2).tolist(), z.tolist(), flagged.tolist())]


# --------------------------------------------------------------------------
# phase composition


def compose_phases(R: float, I: float, phase2_law: GrowthLaw, *,
                   c: float = 1.0,
                   switch_level: float | None = None,
                   horizon: float = 1e4,
                   parameters: Mapping[str, float] | None = None) -> PhasePlan:
    """Stitch the driven exponential phase to a self-referential phase.

    Phase 1 grows as ``c * R**t``, in 129 samples, until the switching
    level (default: the driver capability ``I``), which both phases
    share as the exact same float.  Phase 2 integrates ``phase2_law``
    from that level; its blow-up, when one is found, is reported on the
    combined clock.  ``parameters`` bind the names of a DSL law and must
    be None for a callable one.
    """
    k = calibrate_k(R, I)
    check_real("initial level c", c, above=0.0)
    switch = float(check_real("switch level", I if switch_level is None else switch_level))
    if switch <= c:
        raise DomainError(
            f"switch level must exceed the initial level {c!r}, got {switch!r}"
        )

    t_switch = math.log(switch / c) / math.log(R)
    t1 = np.linspace(0.0, t_switch, _PHASE1_SAMPLES)
    levels1 = c * np.exp(math.log(R) * t1)
    levels1[-1] = switch  # the boundary sample is shared bit for bit

    fn, label2 = _as_rate(phase2_law, parameters)

    def rate(state: np.ndarray) -> np.ndarray:
        return np.atleast_1d(np.asarray(fn(np.asarray(state[0])), dtype=float))

    field2 = VectorField(dimension=1, rate=rate, names=("A",))
    trajectory = integrate(field2, [switch], horizon)
    event = estimate_blowup_time(field2, [switch], horizon)

    times2 = trajectory.times[1:] + t_switch
    levels2 = trajectory.states[1:, 0]
    times = np.concatenate([t1, times2])
    levels = np.concatenate([levels1, levels2])

    if event is not None:
        event = replace(event, t_low=event.t_low + t_switch, t_high=event.t_high + t_switch,
                        estimate=event.estimate + t_switch)
    return PhasePlan(
        switch_time=t_switch,
        switch_level=switch,
        phase1_label=f"exponential(R={R!r}, c={c!r}, k={k!r})",
        phase2_label=label2,
        times=times,
        levels=levels,
        blowup=event,
    )
