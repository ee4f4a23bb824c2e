"""Adaptive integrator for blow-up prone growth systems.

The integrator is an embedded Dormand-Prince 5(4) pair with the usual
proportional step control and the FSAL optimization.  What is not
usual is the contract around finite-time blow-up:

* integration stops cleanly when a state component reaches a threshold
  (default ``1e9``) instead of drowning in overflow;
* the crossing time is located by bisecting the final step, giving a
  bracket ``[t_low, t_high]``;
* :func:`estimate_blowup_time` goes further and estimates the actual
  asymptote: it fits the local rate exponent ``p`` from the trajectory
  tail (``ln rate`` against ``ln state``), extrapolates the transformed
  level ``A**(1-p)`` linearly to zero, and keeps raising the threshold
  until consecutive estimates converge within tolerance.  Growth that
  crosses any fixed threshold yet has no finite-time singularity, such
  as ``dA = ln(A)*A``, never converges in this sense and is correctly
  reported as having no blow-up.

The step runs on lists of Python floats, component by component, for
every dimension, through one rate from a float list to a float list:
a user's rate gets a fresh ``float64`` array, a DSL field is evaluated
on the floats with the array's bits, and no stage state that is not
finite reaches either.

Step-size underflow without a threshold crossing raises
:class:`~blowuplab.errors.StiffnessError`; a field that raises, returns
the wrong shape, or returns a non-finite derivative at a valid state
raises :class:`~blowuplab.errors.FieldEvaluationError`.

The package's shared numerics live here too.  :func:`gauss_kronrod`
is its quadrature: QUADPACK's 21-point rule on many intervals at once,
for the classifier's ladder and the ergodicity transform.
:func:`fit_line` is its least-squares line, for the tail extrapolation
above, the classifier's decay order and tail exponent, and the
pathwise growth slope.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from math import isfinite
from typing import Callable, Sequence

import numpy as np

from .errors import (DomainError, FieldEvaluationError, StiffnessError, check_array,
                     check_instance, check_integer, check_real)

__all__ = [
    "VectorField",
    "Trajectory",
    "BlowUpEvent",
    "IntegrationOptions",
    "integrate",
    "estimate_blowup_time",
    "DEFAULT_BLOWUP_THRESHOLD",
]

DEFAULT_BLOWUP_THRESHOLD = 1e9

# Dormand-Prince 5(4) tableau; the 7th stage equals the next step's
# first stage (FSAL).  The error weights are _B5 - _B4.
_STAGE_COEFFS = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)
# The kernel's view of the tableau: per stage, the first weight and the
# (weight, stage index) pairs of the other nonzero weights, in order,
# and the nonzero error weights with their stage indices
_STAGES = tuple(
    (coeffs[0], tuple((a_ij, j) for j, a_ij in enumerate(coeffs) if j and a_ij != 0.0))
    for coeffs in _STAGE_COEFFS[1:]
)
_ERR_TERMS = tuple((b5 - b4, i) for i, (b5, b4) in enumerate(zip(_B5, _B4)) if b5 != b4)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_H_MIN_REL = 1e-14  # of the integration horizon
_TAIL_CAPACITY = 4096
# estimate_blowup_time raises the threshold by this factor per round
# and gives up once it passes the cap
_THRESHOLD_BOOST = 1e12
_THRESHOLD_CAP = 1e250


@dataclass(frozen=True)
class VectorField:
    """An autonomous first-order system ``dy/dt = rate(y)``.

    ``rate`` maps a state vector of length ``dimension`` to the vector
    of derivatives.  ``names``, a tuple of str, labels the components
    for output; when given it has one name per component.
    """

    dimension: int
    rate: Callable[[np.ndarray], np.ndarray]
    names: tuple[str, ...] = ()
    # rate from a float list to a float list; only dsl.to_field sets it
    _float_rate: Callable | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_integer("dimension", self.dimension, at_least=1)
        check_instance("names", self.names, tuple, "a tuple of str")
        for name in self.names:
            check_instance("names entry", name, str, "a str")
        if self.names and len(self.names) != self.dimension:
            raise DomainError(f"got {len(self.names)} names for dimension {self.dimension}")


@dataclass(frozen=True)
class BlowUpEvent:
    """A detected finite-time blow-up.

    ``t_low`` and ``t_high`` bracket the blow-up; ``estimate`` lies
    inside the bracket.  ``method`` records how the estimate was made:
    ``"threshold-crossing"`` brackets the moment the state reached the
    integration threshold (a lower bound on the true asymptote), while
    ``"reciprocal-extrapolation"`` brackets the asymptote itself.
    """

    t_low: float
    t_high: float
    estimate: float
    method: str

    def __post_init__(self) -> None:
        if self.method not in ("threshold-crossing", "reciprocal-extrapolation"):
            raise DomainError(f"unknown blow-up method {self.method!r}")
        if not (0.0 <= self.t_low <= self.estimate <= self.t_high):
            raise DomainError(
                f"inconsistent blow-up bracket: t_low={self.t_low!r}, "
                f"estimate={self.estimate!r}, t_high={self.t_high!r}"
            )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded integration output.

    ``times`` has shape ``(n,)`` and increases strictly; ``states`` has
    shape ``(n, dimension)`` and is everywhere finite.  When ``blowup``
    is present every recorded time precedes ``blowup.t_low``.
    """

    times: np.ndarray
    states: np.ndarray
    blowup: BlowUpEvent | None = None

    def __post_init__(self) -> None:
        check_array("times", self.times, min_len=0, increasing=True)
        if self.states.ndim != 2 or len(self.times) != len(self.states):
            raise DomainError("times and states shapes disagree")
        if not np.all(np.isfinite(self.states)):
            raise DomainError("states must be finite everywhere")
        if self.blowup is not None and len(self.times) > 0 \
                and self.times[-1] >= self.blowup.t_low:
            raise DomainError("recorded samples must precede the blow-up bracket")


@dataclass(frozen=True)
class IntegrationOptions:
    """Tolerances and limits for the adaptive integrator.

    ``blowup_tol`` bounds the width of a reported blow-up bracket; when
    ``None`` it defaults to ``1e-3`` of the running blow-up estimate.
    Tight relative tolerances cost little here because the systems are
    tiny; the defaults favor accuracy.
    """

    rtol: float = 1e-8
    atol: float = 1e-10
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD
    blowup_tol: float | None = None

    def __post_init__(self) -> None:
        check_real("rtol", self.rtol, above=0.0)
        check_real("atol", self.atol, above=0.0)
        check_real("blowup_threshold", self.blowup_threshold, above=0.0, allow_inf=True)
        if self.blowup_tol is not None:
            check_real("blowup_tol", self.blowup_tol, above=0.0)


def _list_rate(field: VectorField) -> Callable[[list], list]:
    """``field``'s rate from a float list to a float list: the user's rate
    on a fresh float64 array, or a ``dsl.to_field`` field's closures on
    the floats, and on the array where those raise (``**`` on overflow, a
    complex power, an undefined constant), so bits and errors are the array's."""
    rate, dim, floats = field.rate, field.dimension, field._float_rate

    def array_rate(y):
        state = np.array(y)
        try:
            out = np.asarray(rate(state), dtype=float)
        except Exception as exc:  # a rate that raises is a malformed field
            raise FieldEvaluationError(
                f"field evaluation failed at state {state!r}: {exc}") from exc
        if out.shape != (dim,):
            raise FieldEvaluationError(
                f"field returned shape {out.shape} for state of dimension {dim}")
        return out.tolist()

    def float_rate(y):
        try:
            return floats(y)
        except (ArithmeticError, TypeError, ValueError):  # the array's inf, nan or error
            return array_rate(y)

    return array_rate if floats is None else float_rate


def _try_step(rate: Callable, y: list, f0: list, h: float):
    """One trial Dormand-Prince step on lists of Python floats.

    Each stage state is summed component by component from that
    component's stage derivatives, ``c0*k0`` first and then ``+ a_ij*k_j``
    for the nonzero ``a_ij`` in stage order, and each value is tested to
    be finite as it is made: no state that is not finite reaches
    ``rate``, a :func:`_list_rate`.  A stage state that is not finite is
    summed again as ``y + (h*c0)*k0 + (h*a_ij)*k_j + ...``: with
    derivatives near the top of the float range an unscaled sum such as
    ``-25360/2187*k`` overflows although the step does not.  Finite sums
    keep the first order.  The error estimate is not summed again: its
    weights add up to 0.16 in absolute value, so its unscaled sum stays
    finite, and where ``h`` times it overflows a sum with ``h`` folded
    in would too.

    Returns ``(y_new, f_new, err)`` as new lists, or ``None`` when any
    stage went non-finite (the caller treats that as a failed step and
    shrinks).  A stage rate that raises or has the wrong shape raises
    :class:`~blowuplab.errors.FieldEvaluationError`.
    """
    dim = len(y)
    stages = [[f_m] for f_m in f0]  # per component, its stage derivatives
    for c0, terms in _STAGES:
        y_stage = []
        for y_m, k_m in zip(y, stages):
            increment = c0 * k_m[0]
            for a_ij, j in terms:
                increment += a_ij * k_m[j]
            value = y_m + h * increment
            if not isfinite(value):
                break
            y_stage.append(value)
        if len(y_stage) < dim:
            y_stage = []
            for y_m, k_m in zip(y, stages):
                increment = (h * c0) * k_m[0]
                for a_ij, j in terms:
                    increment += (h * a_ij) * k_m[j]
                value = y_m + increment
                if not isfinite(value):
                    return None
                y_stage.append(value)
        f_stage = rate(y_stage)
        for k_m, f_m in zip(stages, f_stage):
            if not isfinite(f_m):
                return None
            k_m.append(f_m)
    err = []
    for k_m in stages:
        total = 0.0
        for e_i, i in _ERR_TERMS:
            total += e_i * k_m[i]
        value = h * total
        if not isfinite(value):
            return None
        err.append(value)
    # stage 7 state is exactly the 5th-order solution (FSAL)
    return y_stage, f_stage, err


def _error_norm(err, y_old, y_new, rtol, atol) -> float:
    total = 0.0
    for e, a, b in zip(err, y_old, y_new):
        q = e / (atol + rtol * max(abs(a), abs(b)))
        total += q * q
    return math.sqrt(total / len(err))


class _Core:
    """Stepping loop shared by :func:`integrate` and the blow-up refiner.

    Keeps the current ``(t, y, f)`` triple and a bounded tail of recent
    accepted samples for exponent fitting.  A run advances to one target
    time and lands on it exactly; the core can then run on to a later
    target, or be resumed with a higher threshold after a crossing.
    ``y`` and ``f`` are lists of Python floats that are replaced, never
    mutated, so the tail and the recorded samples hold them without
    copies; ``rate`` is the field's :func:`_list_rate`.  A run hands back
    its blow-up event; the core keeps no result of its own.
    """

    def __init__(self, field: VectorField, y0: np.ndarray, opts: IntegrationOptions,
                 horizon: float):
        self.rate = _list_rate(field)
        self.opts = opts
        self.t = 0.0
        self.y = y0.tolist()
        with np.errstate(all="ignore"):
            self.f = self.rate(self.y)
        if not all(map(isfinite, self.f)):
            raise FieldEvaluationError(f"field is non-finite at the initial state {y0!r}")
        speed = max(map(abs, self.f))
        guess = 0.01 * (max(map(abs, self.y)) + opts.atol) / speed if speed > 0.0 \
            else horizon / 100.0
        self.h = min(guess, horizon)
        self.h_min = _H_MIN_REL * horizon
        self.tail: deque = deque(maxlen=_TAIL_CAPACITY)
        self.tail.append((self.t, self.y, self.f))
        self.samples: list[tuple[float, list]] = []

    def record(self) -> None:
        self.samples.append((self.t, self.y))

    def run(self, t_end: float, threshold: float, *, record: bool,
            xtol: float | None = None) -> BlowUpEvent | None:
        """Advance to ``t_end``, landing on it exactly, or to a blow-up.

        Returns ``None`` at ``t_end``; with ``record`` every accepted
        step is recorded.  At a threshold crossing it returns the
        ``threshold-crossing`` event, whose bracket is at most ``xtol``
        wide (default: ``opts.blowup_tol``, else ``1e-3`` of the time
        the crossing step ends), and the core sits at the last
        sub-threshold point, ``t_low``.  A stall that the tail resolves
        returns the ``reciprocal-extrapolation`` event.
        """
        rejects = 0
        with np.errstate(all="ignore"):
            while self.t < t_end:
                # only the controller's own step can underflow; a step
                # shortened to land on t_end may be tiny
                if self.h < self.h_min:
                    return self._stall()
                h = min(self.h, t_end - self.t)
                hit_target = h >= t_end - self.t
                attempt = _try_step(self.rate, self.y, self.f, h)
                # a stage that went non-finite fails like an infinite error
                norm = math.inf if attempt is None else \
                    _error_norm(attempt[2], self.y, attempt[0], self.opts.rtol, self.opts.atol)
                if norm > 1.0:
                    self.h = h * max(_MIN_FACTOR, _SAFETY * norm ** -0.2)
                    rejects += 1
                    if rejects > 200:
                        return self._stall()
                    continue
                rejects = 0
                if max(attempt[0]) >= threshold:
                    return self._bisect_crossing(h, threshold, xtol)
                self.t = t_end if hit_target else self.t + h
                self.y, self.f, _ = attempt
                self.tail.append((self.t, self.y, self.f))
                if record:
                    self.record()
                grow = _MAX_FACTOR if norm == 0.0 else \
                    min(_MAX_FACTOR, _SAFETY * norm ** -0.2)
                self.h = max(h * max(1.0, grow), self.h) if hit_target else h * grow
        return None

    def _stall(self) -> BlowUpEvent:
        """Handle step-size underflow (or a reject storm).

        Near a blow-up the time between the last representable state
        and the asymptote can shrink below the smallest usable step, so
        the threshold is never formally crossed.  When the tail shows
        that structure the stall is resolved as a blow-up and its event
        returned; otherwise it is a genuine failure and raises.  Runs
        inside :meth:`run`'s ``np.errstate``.
        """
        probe = [y_m + self.h_min * f_m for y_m, f_m in zip(self.y, self.f)]
        if not all(map(isfinite, self.rate(probe))):
            raise FieldEvaluationError(
                f"field becomes non-finite adjacent to t={self.t!r}, "
                f"state {np.array(self.y)!r}; the derivative left the "
                "representable range"
            )
        t_hat = _tail_asymptote(self.tail, self.y)
        # the extrapolated asymptote must sit inside the stalled step's
        # neighborhood, up to the accumulated time drift of the tracker
        drift = math.inf if t_hat is None else abs(t_hat - self.t)
        if drift > max(100.0 * self.h_min, 1e3 * self.opts.rtol * max(self.t, self.h_min)):
            raise StiffnessError(
                f"step size underflowed at t={self.t!r} without a threshold "
                "crossing; the system is too stiff for this integrator"
            )
        estimate = max(float(t_hat), float(np.nextafter(self.t, math.inf)))
        # bracket padding covers global integration error, which
        # dominates both the drift and the stalled step size
        pad = max(3.0 * drift, 100.0 * self.opts.rtol * estimate,
                  10.0 * self.h_min)
        return BlowUpEvent(
            t_low=max(0.0, estimate - pad),
            t_high=estimate + pad,
            estimate=estimate,
            method="reciprocal-extrapolation",
        )

    def _bisect_crossing(self, h: float, threshold: float,
                         xtol: float | None) -> BlowUpEvent:
        """Shrink the crossing bracket by bisecting the final step.

        Advances ``(t, y, f)`` along sub-threshold midpoints, so the
        core ends at the last known point below the threshold, and
        returns the event bracketing the crossing by ``(t, t + rem]``.
        """
        if xtol is None:
            xtol = self.opts.blowup_tol
        if xtol is None:
            xtol = 1e-3 * max(self.t + h, 1e-300)
        rem = h
        for _ in range(200):
            if rem <= xtol or rem / 2.0 < self.h_min:
                break
            half = rem / 2.0
            attempt = _try_step(self.rate, self.y, self.f, half)
            if attempt is None or max(attempt[0]) >= threshold:
                rem = half
                continue
            self.t += half
            self.y, self.f, _ = attempt
            self.tail.append((self.t, self.y, self.f))
            rem -= half
        t_high = self.t + rem
        return BlowUpEvent(t_low=self.t, t_high=t_high, estimate=0.5 * (self.t + t_high),
                           method="threshold-crossing")


def _run_arguments(field: VectorField, state0, t_end: float,
                   opts: IntegrationOptions | None) -> tuple[np.ndarray, IntegrationOptions]:
    """The checked initial state and options of a run of ``field`` to ``t_end``."""
    check_instance("field", field, VectorField, "a VectorField")
    if opts is not None:
        check_instance("opts", opts, IntegrationOptions, "an IntegrationOptions or None")
    # a bare number is the state of a one-dimensional field
    y0 = check_array("state0", state0 if np.iterable(state0) else [state0], positive=True)
    if y0.shape != (field.dimension,):
        raise DomainError(f"initial state has shape {y0.shape}, "
                          f"field dimension is {field.dimension}")
    check_real("t_end", t_end, above=0.0)
    return y0, opts or IntegrationOptions()


def integrate(field: VectorField, state0, t_end: float,
              opts: IntegrationOptions | None = None,
              t_eval: Sequence[float] | None = None) -> Trajectory:
    """Integrate a growth system until ``t_end`` or a threshold crossing.

    Without ``t_eval`` every accepted step is recorded; with it only
    the requested times are (they must be finite, sorted, unique, and
    inside ``[0, t_end]``).  If a state component reaches the blow-up
    threshold the trajectory ends early and carries a
    ``threshold-crossing`` :class:`BlowUpEvent` bracketing the moment
    of crossing.  That moment is a lower bound for the true asymptote;
    use :func:`estimate_blowup_time` when the asymptote itself is
    wanted.

    Fast blow-ups (for instance cubic laws) can reach the point where
    the next step would be smaller than time resolution allows while
    every component is still below the threshold; such a stall is
    resolved by tail extrapolation and reported as a
    ``reciprocal-extrapolation`` event instead of a stiffness error.
    """
    y0, opts = _run_arguments(field, state0, t_end, opts)
    eval_arr = None if t_eval is None else check_array("t_eval", t_eval, increasing=True)
    if eval_arr is not None and (eval_arr[0] < 0.0 or eval_arr[-1] > t_end):
        raise DomainError("t_eval must lie within [0, t_end]")

    core = _Core(field, y0, opts, horizon=t_end)
    if eval_arr is None:
        core.record()
        blowup = core.run(t_end, opts.blowup_threshold, record=True)
    else:
        # run to each requested time in turn and record there, then on to t_end
        for t in eval_arr.tolist():
            blowup = core.run(t, opts.blowup_threshold, record=False)
            if blowup is not None:
                break
            core.record()
        else:
            blowup = core.run(t_end, opts.blowup_threshold, record=False)
    samples = [(t, y) for t, y in core.samples if blowup is None or t < blowup.t_low]
    times = np.array([t for t, _ in samples], dtype=float)
    states = np.array([y for _, y in samples], dtype=float).reshape(len(samples), field.dimension)
    return Trajectory(times=times, states=states, blowup=blowup)


def _tail_asymptote(tail, y: list) -> float | None:
    """Extrapolate the blow-up time from the recent trajectory tail.

    Takes the largest component of ``y`` and the tail samples within
    one decade below its peak, failing that two, four, then eight; fits
    the local rate exponent ``p`` as the least-squares slope of
    ln(rate) against ln(level); then fits ``A**(1-p)`` linearly in t
    and returns its root.  The narrowest window that holds five usable
    samples keeps the fit in the asymptotic regime: in a coupled
    system the offsets between components bend the exponent at low
    levels.  For an exact power-law blow-up the transform is exactly
    linear and hits zero at the asymptote.  Returns ``None`` when no
    window holds five usable samples, when ``p`` is at fit-noise level
    above 1 (there the reciprocal transform degenerates; log-corrected
    blow-ups approach 1 from above much slower than this margin), or
    when the fitted line does not slope downward.
    """
    component = int(np.argmax(y))
    peak = float(y[component])
    for span in (1e1, 1e2, 1e4, 1e8):
        lo = peak / span
        points = [(t, s[component], f[component]) for t, s, f in tail
                  if lo <= s[component] <= peak and f[component] > 0.0]
        if len(points) < 5:
            continue
        exponent = fit_line(np.log([v for _, v, _ in points]),
                            np.log([r for _, _, r in points]))
        if exponent is not None:
            break
    else:
        return None
    p = exponent[0]
    if p <= 1.001:
        return None
    line = fit_line(np.array([pt[0] for pt in points]),
                    np.array([pt[1] for pt in points]) ** (1.0 - p))
    if line is None or line[0] >= 0.0:
        return None
    slope, t_mean, w_mean = line
    return t_mean - w_mean / slope


def estimate_blowup_time(field: VectorField, state0, t_end: float,
                         opts: IntegrationOptions | None = None) -> BlowUpEvent | None:
    """Estimate the finite-time blow-up of a growth system, if any.

    Integrates until the blow-up threshold is crossed, fits the local
    rate exponent ``p`` over the trajectory tail, and extrapolates
    ``A**(1-p)`` to zero.  The threshold is then raised by a factor of
    ``1e12`` and the process repeated until the modeled remaining time
    drops below a quarter of the bracket tolerance.

    Returns ``None`` when no crossing happens before ``t_end``, and
    also when the estimates never converge: the threshold passes
    ``1e250``, the modeled remaining time plateaus across threshold
    decades, the refinement runs past ``t_end``, or the field fails (a
    stiffness stall or a field evaluation error) while the threshold is
    being raised past the first one.  That is the honest answer for
    super-exponential growth without a finite singularity (``dA =
    ln(A)*A`` crosses any threshold but blows up only at infinity), and
    for blow-ups whose asymptote cannot be pinned to the requested
    tolerance within double precision.
    """
    y0, opts = _run_arguments(field, state0, t_end, opts)
    core = _Core(field, y0, opts, horizon=t_end)

    threshold = opts.blowup_threshold
    xtol = None
    plateau = 0
    prev_delta = None
    while True:
        try:
            event = core.run(t_end, threshold, record=False, xtol=xtol)
        except (StiffnessError, FieldEvaluationError):
            if threshold > opts.blowup_threshold:
                # the field stopped being integrable beyond the user's
                # threshold; no convergent estimate is available
                return None
            raise
        if event is None or event.method != "threshold-crossing":
            # no blow-up before t_end; or a pole: the asymptote sits
            # closer than one representable step, which is as converged
            # as double precision allows
            return event
        t_hat = _tail_asymptote(core.tail, core.y)
        if t_hat is not None and t_hat > core.t:
            delta = t_hat - core.t
            tol = opts.blowup_tol if opts.blowup_tol is not None \
                else 1e-3 * t_hat
            # later crossings must be located finer than the
            # convergence test below requires
            xtol = tol / 16.0
            if delta <= tol / 4.0:
                return BlowUpEvent(
                    t_low=float(core.t),
                    t_high=float(t_hat + 3.0 * delta),
                    estimate=float(t_hat),
                    method="reciprocal-extrapolation",
                )
            if prev_delta is not None and \
                    abs(delta - prev_delta) < 0.05 * prev_delta:
                plateau += 1
                if plateau >= 3:
                    return None
            else:
                plateau = 0
            prev_delta = delta
        threshold *= _THRESHOLD_BOOST
        if threshold > _THRESHOLD_CAP:
            return None


# --------------------------------------------------------------------------
# quadrature and line fit

# QUADPACK's 21-point Gauss-Kronrod rule (dqk21, Piessens et al. 1983):
# its nodes c +- h*x on an interval with centre c and half-width h, and
# their Kronrod and Gauss weights; the centre, x = 0, comes first
_GK_X = (0.0,
         0.148874338981631210884826001129720, 0.294392862701460198131126603103866,
         0.433395394129247190799265943165784, 0.562757134668604683339000099272694,
         0.679409568299024406234327365114874, 0.780817726586416897063717578345042,
         0.865063366688984510732096688423493, 0.930157491355708226001207180059508,
         0.973906528517171720077964012084452, 0.995657163025808080735527280689003)
_GK_W = (0.149445554002916905664936468389821,
         0.147739104901338491374841515972068, 0.142775938577060080797094273138717,
         0.134709217311473325928054001771707, 0.123491976262065851077958109831074,
         0.109387158802297641899210590325805, 0.093125454583697605535065465083366,
         0.075039674810919952767043140916190, 0.054755896574351996031381300244580,
         0.032558162307964727478818972459390, 0.011694638867371874278064396062192)
_G_W = (0.0, 0.295524224714752870173892994651338, 0.0, 0.269266719309996355091226921569469,
        0.0, 0.219086362515982043995534934228163, 0.0, 0.149451349150580593145776339657697,
        0.0, 0.066671344308688137593568809893332, 0.0)
# Row i of a (21, m) node array holds node i of m intervals: the centre,
# the ten c - h*x, then the ten c + h*x.  _GK_NODES places them as
# fractions of each interval.  _GK_WEIGHTS gives the Kronrod sum and 200
# times its excess over the Gauss sum, whose size bounds dqk21's error
# estimate from above; _GK_ROUNDING gives the estimate's floor for float
# rounding.
_GK_NODES = np.array([0.5 - 0.5 * x for x in _GK_X]
                     + [0.5 + 0.5 * x for x in _GK_X[1:]])[:, None]
_GK_KRONROD = np.array(_GK_W + _GK_W[1:])
_GK_WEIGHTS = np.array([_GK_KRONROD, 200.0 * (_GK_KRONROD - np.array(_G_W + _G_W[1:]))])
_GK_ROUNDING = 50.0 * float(np.finfo(float).eps) * _GK_KRONROD
# the most pieces one interval is cut into, QUADPACK's default limit
_GK_LIMIT = 200


def _kronrod21(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """The rule on each ``[lo[i], hi[i]]``: ``(integrals, excesses,
    values)``, an excess being at least dqk21's error estimate."""
    width = hi - lo
    values = f((lo + width * _GK_NODES).ravel()).reshape(21, -1)
    kronrod, excess = _GK_WEIGHTS @ values
    half = 0.5 * width
    return kronrod * half, np.abs(excess * half), values


def _dqk21_error(value, excess, values, lo, hi):
    """dqk21's error estimate of each piece, and its floor for float
    rounding: an error at most twice the floor cannot shrink."""
    half = 0.5 * (hi - lo)
    resasc = (_GK_KRONROD @ np.abs(values - 0.5 * value / half)) * np.abs(half)
    floor = (_GK_ROUNDING @ np.abs(values)) * np.abs(half)
    return np.maximum(resasc * np.fmin(1.0, excess / resasc) ** 1.5, floor), floor


def gauss_kronrod(f: Callable[[np.ndarray], np.ndarray], edges, rtol: float,
                  atol: float = 0.0) -> np.ndarray:
    """Integrals of ``f`` over the intervals ``[edges[i], edges[i + 1]]``.

    ``f`` maps a 1-d float64 array of nodes to the float64 array of its
    values.  Each interval gets QUADPACK's 21-point Gauss-Kronrod rule
    and its error estimate.  An interval whose error exceeds
    ``max(atol, rtol * |integral|)`` is bisected, and every round
    bisects the pieces of all such intervals at once: a piece whose
    error fits its length's share of the bound, or is down to float
    rounding, is kept.  An interval stops at 200 pieces with the
    estimate it has, and one whose integral is not finite (a node value
    was not) stops at once, so the work is bounded for any ``f``.

    The arguments are not checked: ``edges`` must be a 1-d sequence of
    finite floats and the tolerances non-negative, as the package's
    callers pass them.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    with np.errstate(all="ignore"):  # inf and nan node values pass on to their interval
        value, excess, values = _kronrod21(f, lo, hi)
        bound = np.maximum(atol, rtol * np.abs(value))
        # the excess bounds the error, so this test rarely needs the error
        # itself; a non-finite integral has a nan or inf excess and error
        if not (excess > bound).any():
            return value
        error, floor = _dqk21_error(value, excess, values, lo, hi)
        if not ((error > bound) & (error > 2.0 * floor)).any():
            return value

        n = len(lo)
        width = hi - lo
        owner = np.arange(n)  # the interval each piece belongs to
        total = np.zeros(n)  # the sum of each interval's kept pieces, and their error
        kept_error = np.zeros(n)
        pieces = np.ones(n, dtype=int)
        while True:
            sums = total + np.bincount(owner, value, n)
            bound = np.maximum(atol, rtol * np.abs(sums))
            done = (kept_error + np.bincount(owner, error, n) <= bound) | ~np.isfinite(sums)
            split = ~done[owner] & (error > bound[owner] * (hi - lo) / width[owner]) \
                & (error > 2.0 * floor)
            pieces += np.bincount(owner[split], minlength=n)
            done |= pieces > _GK_LIMIT
            split &= ~done[owner]
            keep = ~split & ~done[owner]
            total = np.where(done, sums, total + np.bincount(owner[keep], value[keep], n))
            if not split.any():
                return total
            kept_error += np.bincount(owner[keep], error[keep], n)
            lo, hi, owner = lo[split], hi[split], owner[split]
            mid = 0.5 * (lo + hi)
            lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
            owner = np.concatenate((owner, owner))
            value, excess, values = _kronrod21(f, lo, hi)
            error, floor = _dqk21_error(value, excess, values, lo, hi)


def fit_line(x, y) -> tuple[float, float, float] | None:
    """Least-squares line through the points ``(x[i], y[i])``.

    Returns ``(slope, mean of x, mean of y)``, the line passing through
    the two means, or ``None`` when ``x`` has no spread.  ``x`` and
    ``y`` are equally long 1-d float arrays, as the package's callers
    pass them.
    """
    x_mean = x.mean()
    xc = x - x_mean
    denom = float(xc @ xc)
    if not denom > 0.0:
        return None
    y_mean = y.mean()
    return float(xc @ (y - y_mean)) / denom, float(x_mean), float(y_mean)
