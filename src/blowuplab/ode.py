"""Adaptive integrator for blow-up prone growth systems.

The integrator is an embedded Dormand-Prince 5(4) pair with the usual
proportional step control and the FSAL optimization.  What is not
usual is the contract around finite-time blow-up:

* integration stops cleanly when a state component reaches a threshold
  (default ``1e9``) instead of drowning in overflow;
* the crossing time is located by bisecting the final step, giving a
  bracket ``[t_low, t_high]``;
* :func:`estimate_blowup_time` goes further and estimates the actual
  asymptote.  It integrates on a log-level clock ``s`` (Sundman time),
  on which the fastest growing component gains one e-fold per unit, so
  a pole at ``t*`` sits at ``s = inf`` and ``t(s)`` climbs toward
  ``t*`` without ever passing it.  The time each decade of ``s`` adds
  is a rung; the classifier's tail rules read the time the rungs still
  to come add up to.  Growth that crosses any fixed threshold yet has
  no finite-time singularity, such as ``dA = ln(A)*A``, leaves rungs
  that shrink too slowly to sum and is reported as having no blow-up.

The step is straight-line code on Python floats, compiled once per
dimension from the tableau, with one local per component and stage.
It calls one rate from a float list to a float list: a user's rate
gets a fresh ``float64`` array, a DSL field is evaluated on the floats
with the array's bits, and no stage state that is not finite reaches
either.

Step-size underflow without a threshold crossing raises
:class:`~blowuplab.errors.StiffnessError`; a field that raises, returns
the wrong shape, or returns a non-finite derivative at a valid state
raises :class:`~blowuplab.errors.FieldEvaluationError`.

The package's shared numerics live here too.  :func:`gauss_kronrod`
is its quadrature: QUADPACK's 21-point rule on many intervals at once,
for the classifier's ladder and the ergodicity transform.
:func:`tail_rule` reads the tail of a ladder of rungs, the classifier's or
the clock's.  :func:`fit_line` is its least-squares line, for the
integrator's stall extrapolation, the classifier's decay order and
tail exponent, and the pathwise growth slope.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field, replace
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
# The log-level clock: its s spans the log-levels of doubles, and its step
# floor is _H_MIN_REL of that; a rung is a decade of s, the tail rules take
# its rungs' ratios as constant within _CLOCK_RTOL and sum a polynomial tail
# from _CLOCK_RUNGS rungs on.  The estimate comes from a clock at tolerances
# _CLOCK_REFINE times tighter than the options', whose difference from a
# clock at the options' tolerances measures its integration error.
_LOG_SPAN = math.log(sys.float_info.max) - math.log(math.ulp(0.0))
_LN10 = math.log(10.0)
_CLOCK_RTOL = 1e-6
_CLOCK_RUNGS = 24
_CLOCK_REFINE = 10.0
# tail_rule's polynomial rule: the decay order that reads as divergence
# (the classifier's exponent probe reads it so too), and the share of the
# sum a summed tail may be
LOG_ORDER_INFINITE = 1.1
_TAIL_TARGET = 0.02


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
    ``"reciprocal-extrapolation"`` covers any estimate of the asymptote
    itself: a stall resolved by extrapolating the reciprocal level, or
    :func:`estimate_blowup_time`'s tail past its log-level clock.
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


_STEPS: dict[int, Callable] = {}  # per dimension, the step _build_step compiled


def _try_step(rate: Callable, y: list, f0: list, h: float):
    """One trial Dormand-Prince step on lists of Python floats.

    The step for ``len(y)`` components is compiled once, by
    :func:`_build_step`, into straight-line code.  Each component of a
    stage state is summed left to right from that component's stage
    derivatives, ``y + h*(c0*k0 + a_ij*k_j + ...)`` over the nonzero
    ``a_ij`` in stage order, and every component is tested to be finite
    before the stage calls ``rate``, a :func:`_list_rate`: no state that
    is not finite reaches it.  When any component is not finite, every
    component of the stage is summed again as
    ``y + ((h*c0)*k0 + (h*a_ij)*k_j + ...)``: with derivatives near the
    top of the float range an unscaled sum such as ``-25360/2187*k``
    overflows although the step does not.  The error estimate,
    ``h*(0.0 + e_i*k_i + ...)``, is not summed again: its weights add up
    to 0.16 in absolute value, so its unscaled sum stays finite, and
    where ``h`` times it overflows a sum with ``h`` folded in would too.

    Returns ``(y_new, f_new, err)`` as new lists, or ``None`` when any
    stage went non-finite (the caller treats that as a failed step and
    shrinks).  A stage rate that raises or has the wrong shape raises
    :class:`~blowuplab.errors.FieldEvaluationError`.
    """
    step = _STEPS.get(len(y))
    if step is None:
        step = _STEPS[len(y)] = _build_step(len(y))
    return step(rate, y, f0, h)


def _build_step(dim: int) -> Callable:
    """:func:`_try_step` for ``dim`` components, compiled from ``_STAGES``
    and ``_ERR_TERMS``: one local per component and stage, the weights
    inlined by ``repr``, which round-trips.  The last stage state is the
    5th-order solution (FSAL)."""
    def each(template, sep=", "):
        return sep.join(template.format(m=m) for m in range(dim))

    def finite(name):
        return each(f"isfinite({name}{{m}})", " and ")
    lines = ["def step(rate, y, f0, h):", f"    {each('y{m}')}, = y", f"    {each('k0_{m}')}, = f0"]
    for i, (c0, terms) in enumerate(_STAGES, 1):
        plain = " + ".join(f"{a!r}*k{j}_{{m}}" for a, j in ((c0, 0), *terms))
        folded = " + ".join(f"(h*{a!r})*k{j}_{{m}}" for a, j in ((c0, 0), *terms))
        lines += [each(f"    s{{m}} = y{{m}} + h*({plain})", "\n"),
                  f"    if not ({finite('s')}):",
                  each(f"        s{{m}} = y{{m}} + ({folded})", "\n"),
                  f"        if not ({finite('s')}):", "            return None",
                  f"    s = [{each('s{m}')}]", f"    {each(f'k{i}_{{m}}')}, = f = rate(s)",
                  f"    if not ({finite(f'k{i}_')}):", "        return None"]
    err = " + ".join(f"{e!r}*k{i}_{{m}}" for e, i in _ERR_TERMS)
    lines += [each(f"    e{{m}} = h*(0.0 + {err})", "\n"), f"    if not ({finite('e')}):",
              "        return None", f"    return s, f, [{each('e{m}')}]"]
    namespace = {"isfinite": isfinite}
    exec(compile("\n".join(lines), f"<dopri5 step, dimension {dim}>", "exec"), namespace)
    return namespace["step"]


def _error_norm(err, y_old, y_new, rtol, atol) -> float:
    total = 0.0
    for e, a, b in zip(err, y_old, y_new):
        q = e / (atol + rtol * max(abs(a), abs(b)))
        total += q * q
    return math.sqrt(total / len(err))


class _Core:
    """Stepping loop of :func:`integrate`, and of :class:`_Clock`.

    Keeps the current ``(t, y, f)`` triple and a bounded tail of recent
    accepted samples for exponent fitting.  A run advances to one target
    time and lands on it exactly; the core can then run on to a later
    target.  ``y`` and ``f`` are lists of Python floats that are
    replaced, never mutated, so the tail and the recorded samples hold
    them without copies; ``rate`` is the field's :func:`_list_rate`.  A
    run hands back its blow-up event; the core keeps no result of its
    own.
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

    def run(self, t_end: float, threshold: float, *, record: bool) -> BlowUpEvent | None:
        """Advance to ``t_end``, landing on it exactly, or to a blow-up.

        Returns ``None`` at ``t_end``; with ``record`` every accepted
        step is recorded.  At a threshold crossing it returns the
        ``threshold-crossing`` event, whose bracket is at most
        ``opts.blowup_tol`` wide (default ``1e-3`` of the time the
        crossing step ends), and the core sits at the last
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
                    return self._bisect_crossing(h, threshold)
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
        returned; otherwise it is a genuine failure and raises, naming
        :meth:`position`.  Runs inside :meth:`run`'s ``np.errstate``.
        """
        probe = [y_m + self.h_min * f_m for y_m, f_m in zip(self.y, self.f)]
        # a probe that is not finite fails as a stage does, before the rate
        if not (all(map(isfinite, probe)) and all(map(isfinite, self.rate(probe)))):
            t, state = self.position()
            raise FieldEvaluationError(
                f"field becomes non-finite adjacent to t={t!r}, "
                f"state {state!r}; the derivative left the "
                "representable range"
            )
        t_hat = _tail_asymptote(self.tail, self.y)
        # the extrapolated asymptote must sit inside the stalled step's
        # neighborhood, up to the accumulated time drift of the tracker
        drift = math.inf if t_hat is None else abs(t_hat - self.t)
        if drift > max(100.0 * self.h_min, 1e3 * self.opts.rtol * max(self.t, self.h_min)):
            raise StiffnessError(
                f"step size underflowed at t={self.position()[0]!r} without a "
                "threshold crossing; the system is too stiff for this integrator"
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

    def position(self) -> tuple[float, np.ndarray]:
        """The time and the state that the core's errors name."""
        return self.t, np.array(self.y)

    def _bisect_crossing(self, h: float, threshold: float) -> BlowUpEvent:
        """Shrink the crossing bracket by bisecting the final step.

        Advances ``(t, y, f)`` along sub-threshold midpoints, so the
        core ends at the last known point below the threshold, and
        returns the event bracketing the crossing by ``(t, t + rem]``.
        """
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


class _Clock(_Core):
    """The core on log-level Sundman time ``s`` (Stuart & Floater 1990,
    *On the computation of blow-up*).

    The state is ``[ln y_1, ..., ln y_d, t/tau]``, with ``d ln y_i/ds =
    (F_i/y_i)/M`` and ``dt/ds = 1/M`` for ``M = max(max_i F_i/y_i, 1/(t +
    tau))``: the fastest growing component gains one e-fold per unit of
    ``s``, so a pole at ``t*`` sits at ``s = inf`` and ``t(s) < t*``.  The
    floor on ``M``, ``1/tau`` being ``M`` at the start with a floor of
    ``1/t_end``, keeps decaying, constant and stiff fields moving in
    ``t``, at most exponentially in ``s``; ``1/t_end`` alone leaves ``t =
    inf`` at a finite ``s`` where the log-rates decay exponentially.  Time
    is counted in units of ``tau``, so that ``opts.atol`` bounds its error
    relative to the field's own time scale.  A stage whose level leaves
    double range fails, so the field sees only finite levels; a level
    that underflowed to 0 stays there.  The clock keeps no tail, so a
    stall raises, naming ``t`` and the levels.
    """

    def __init__(self, field: VectorField, y0: np.ndarray, opts: IntegrationOptions,
                 t_end: float):
        super().__init__(field, y0, opts, horizon=t_end)
        level_rate = self.rate
        start = max(1.0 / t_end, *(f_m / y_m for f_m, y_m in zip(self.f, self.y)))
        self.tau = tau = 1.0 / min(start, sys.float_info.max)

        def clock(y, f, theta):
            logs = [f_m / y_m if y_m else 0.0 for f_m, y_m in zip(f, y)]
            m = max(1.0 / (tau * (theta + 1.0)), *logs)
            if not m > 0.0:  # t + tau left double range
                return [math.inf] * (len(logs) + 1)
            return [g / m for g in logs] + [1.0 / (m * tau)]

        def rate(w):
            try:
                y = [math.exp(z) for z in w[:-1]]
            except OverflowError:
                return [math.inf] * len(w)
            return clock(y, level_rate(y), w[-1])

        self.rate = rate
        self.f = clock(self.y, self.f, 0.0)
        self.y = [math.log(y_m) for y_m in self.y] + [0.0]
        # a hundredth of the s in which the fastest component moves by one
        # e-fold; t/tau moves by at most t/tau + 1 per unit
        self.h = 0.01 / max(1.0, *map(abs, self.f[:-1]))
        self.h_min = _H_MIN_REL * _LOG_SPAN
        self.tail = deque(maxlen=0)

    def time(self) -> float:
        return self.y[-1] * self.tau

    def position(self) -> tuple[float, np.ndarray]:
        return self.time(), np.array([math.exp(z) for z in self.y[:-1]])


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

    Integrates on the log-level clock of :class:`_Clock`, on which a
    pole sits at ``s = inf``, and records the time each decade of ``s``
    adds as a rung: in one dimension, the time each decade of the level
    takes.  From the third rung on, :func:`tail_rule` reads the time the
    rungs to come add up to; a rung whose time rounds to 0 leaves none.
    The estimate is the last rung's time ``t`` plus that tail, read on a
    clock at a tenth of ``opts``' tolerances, with ``u`` the spread a
    geometric ratio may have, or the change the last rung made to a
    polynomial reading times the rung count.  ``pad``, the integration
    error, is the difference from the reading of a clock at ``opts``'
    tolerances, stepped alongside.  The first bracket ``[max(t, estimate
    - u) - pad, estimate + u + pad]`` at most ``opts.blowup_tol`` wide
    (default ``1e-3`` of the estimate) makes a
    ``reciprocal-extrapolation`` event.

    Returns ``None`` when the clock passes ``t_end``, or the estimate
    does, since ``t`` never passes the pole; when the tail rules read a
    divergent tail, as for super-exponential growth without a finite
    singularity (``dA = ln(A)*A`` crosses any threshold but blows up only
    at infinity); and when the ladder ends before a bracket is narrow
    enough.  The ladder ends at its last complete rung where the field
    fails (a stiffness stall or a field evaluation error, a level past
    double range included) after a component reached
    ``opts.blowup_threshold``.  A failure below it is left to
    :func:`integrate`'s stepping in ``t``, whose ``None`` at ``t_end``,
    stall resolved as a pole, or error stands; where that crosses the
    threshold instead, the clock's failure raises, naming ``t``.
    """
    y0, opts = _run_arguments(field, state0, t_end, opts)
    fine = replace(opts, rtol=opts.rtol / _CLOCK_REFINE, atol=opts.atol / _CLOCK_REFINE)
    clocks = (_Clock(field, y0, opts, t_end), _Clock(field, y0, fine, t_end))
    top = math.log(opts.blowup_threshold)
    ladders = ([], [])  # the rungs of the clock at opts' tolerances, and of the fine one
    times = (0.0, 0.0)
    reading = 0.0
    while True:
        try:
            for clock in clocks:
                clock.run((len(ladders[0]) + 1) * _LN10, math.inf, record=False)
        except (StiffnessError, FieldEvaluationError):
            if max(clock.y[:-1]) >= top:
                return None  # the ladder ends at its last complete rung
            event = _Core(field, y0, opts, horizon=t_end).run(
                t_end, opts.blowup_threshold, record=False)
            if event is None or event.method == "reciprocal-extrapolation":
                return event
            raise
        last, times = times, tuple(clock.time() for clock in clocks)
        t = times[1]
        if t > t_end:
            return None
        for rungs, now, before in zip(ladders, times, last):
            rungs.append(now - before)
        value, tail, details = _clock_reading(ladders[1], t)
        if tail == math.inf:
            return None
        if "tail" in details:  # from the third rung on
            reading, previous = value, reading
        if tail is None:
            continue
        # a ratio constant within _CLOCK_RTOL; a polynomial tail's error
        # falls as a power of the rung count, so the change one rung
        # made, times the count, exceeds it
        u = tail * _CLOCK_RTOL / (1.0 - details["ratio"]) \
            if details["mode"] == "geometric" else len(ladders[1]) * abs(reading - previous)
        tol = opts.blowup_tol if opts.blowup_tol is not None else 1e-3 * reading
        if max(t, reading - u) < reading + u - tol:
            continue  # too wide before any pad
        # pad: the integration error, at least _Core._stall's guess
        pad = max(100.0 * opts.rtol * reading, abs(reading - _clock_reading(ladders[0], times[0])[0]))
        t_low, t_high = max(0.0, max(t, reading - u) - pad), reading + u + pad
        if t_high - t_low <= tol:
            if not 0.0 < reading <= t_end:
                return None
            return BlowUpEvent(t_low=t_low, t_high=t_high, estimate=reading,
                               method="reciprocal-extrapolation")


def _clock_reading(rungs: list, t: float) -> tuple[float, float | None, dict]:
    """The pole time a clock's ladder that ends at ``t`` reads, with
    :func:`tail_rule`'s ``(tail, details)``.  Rungs that round to 0 leave
    no time, a geometric tail of ratio 0; below three rungs the reading
    is ``inf``, undecided, and the details are empty."""
    if not rungs[-1] > 0.0:
        return t, 0.0, {"mode": "geometric", "ratio": 0.0, "tail": 0.0}
    if len(rungs) < 3:
        return math.inf, None, {}
    tail, details = tail_rule(rungs, _CLOCK_RTOL, _CLOCK_RUNGS)
    return t + details.get("tail", math.inf), tail, details


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


def tail_rule(d: list, rtol: float, min_rungs: int) -> tuple[float | None, dict]:
    """What a ladder's rungs ``d``, at least three, finite and positive,
    add up to past the last one, by the first of three rules that decides.

    * *non-decreasing*: the last three rungs do not shrink, the tail is
      divergent;
    * *geometric*: the ratios of the last six rungs are below 1 and
      constant within ``rtol``, the tail is a geometric series;
    * *polynomial*: ``d_j ~ j**(-alpha)``, the least-squares order over
      the tail rungs, with tail ``d[-1]*len(d)/(alpha - 1)``; from
      ``min_rungs`` rungs on it is divergent at an order of at most
      :data:`LOG_ORDER_INFINITE`, and summed where it is at most 2% of
      ``fsum(d)``.

    Returns ``(tail, details)``: ``tail`` is ``inf`` for a divergent
    ladder and ``None`` while undecided; ``details`` names the rule's
    ``"mode"`` with its numbers, and a summed or undecided ``"tail"``.
    """
    if d[-1] >= d[-2] * (1.0 - 1e-12) and d[-2] >= d[-3] * (1.0 - 1e-12):
        return math.inf, {"mode": "non-decreasing", "rungs": len(d), "last_ratio": d[-1] / d[-2]}
    # true geometric decay keeps the rung ratio constant, to within the
    # rungs' error, however close to 1; polynomial or log-corrected decay
    # drifts toward 1 and must be order-fitted
    last = d[-6:]
    ratios = [b / a for a, b in zip(last, last[1:])]
    if ratios[-1] < 1.0 and max(ratios) - min(ratios) <= rtol * max(ratios):
        ratio = ratios[-1]
        tail = d[-1] * ratio / (1.0 - ratio)
        return tail, {"mode": "geometric", "ratio": ratio, "rungs": len(d), "tail": tail}

    # the order of d_j ~ j**(-alpha) over the tail rungs, whose distinct
    # indices make the fit exist
    take = min(len(d), max(6, min(16, len(d) // 2)))
    idx = np.arange(len(d) - take + 1, len(d) + 1, dtype=float)
    alpha = -fit_line(np.log(idx), np.log(np.array(d[-take:])))[0]
    tail = d[-1] * len(d) / (alpha - 1.0) if alpha > 1.0 else math.inf
    details = {"mode": "polynomial", "decay_order": alpha, "rungs": len(d)}
    if len(d) >= min_rungs and alpha <= LOG_ORDER_INFINITE:
        return math.inf, details
    details["tail"] = tail
    if len(d) >= min_rungs and tail <= _TAIL_TARGET * math.fsum(d):
        return tail, details
    return None, details


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
