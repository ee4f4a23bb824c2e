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

The step itself runs on lists of Python floats, component by
component, for every dimension: only the user's rate function sees a
numpy array, a fresh ``float64`` one per call, and a stage state that
is not finite never reaches it.

Step-size underflow without a threshold crossing raises
:class:`~blowuplab.errors.StiffnessError`; a field that raises, returns
the wrong shape, or returns a non-finite derivative at a valid state
raises :class:`~blowuplab.errors.FieldEvaluationError`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, FieldEvaluationError, StiffnessError

__all__ = [
    "VectorField",
    "Trajectory",
    "BlowUpEvent",
    "IntegrationOptions",
    "integrate",
    "estimate_blowup_time",
    "integrate_multiplicative",
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
    of derivatives.  ``names`` labels the components for output; it is
    padded to ``x1, x2, ...`` when not given.
    """

    dimension: int
    rate: Callable[[np.ndarray], np.ndarray]
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise DomainError(f"dimension must be >= 1, got {self.dimension!r}")
        if self.names and len(self.names) != self.dimension:
            raise DomainError(
                f"got {len(self.names)} names for dimension {self.dimension}"
            )

    def component_names(self) -> tuple[str, ...]:
        if self.names:
            return self.names
        if self.dimension == 1:
            return ("A",)
        return tuple(f"x{i + 1}" for i in range(self.dimension))


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
        if self.times.ndim != 1 or self.states.ndim != 2 \
                or len(self.times) != len(self.states):
            raise DomainError("times and states shapes disagree")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0.0):
            raise DomainError("times must increase strictly")
        if not np.all(np.isfinite(self.states)):
            raise DomainError("states must be finite everywhere")
        if self.blowup is not None and len(self.times) > 0 \
                and self.times[-1] >= self.blowup.t_low:
            raise DomainError("recorded samples must precede the blow-up bracket")

    @property
    def dimension(self) -> int:
        return self.states.shape[1]


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
        # each check is written so that nan fails it
        if not (0.0 < self.rtol < math.inf and 0.0 < self.atol < math.inf):
            raise DomainError("tolerances must be positive and finite")
        if not self.blowup_threshold > 0.0:
            raise DomainError("blowup_threshold must be positive")
        if self.blowup_tol is not None and not self.blowup_tol > 0.0:
            raise DomainError("blowup_tol must be positive")


def _call_rate(rate: Callable, y: np.ndarray, dim: int) -> np.ndarray:
    try:
        out = np.asarray(rate(y), dtype=float)
    except Exception as exc:  # a rate that raises is a malformed field
        raise FieldEvaluationError(f"field evaluation failed at state {y!r}: {exc}") from exc
    if out.shape != (dim,):
        raise FieldEvaluationError(
            f"field returned shape {out.shape} for state of dimension {dim}"
        )
    return out


def _all_finite(values) -> bool:
    return all(map(math.isfinite, values))


def _try_step(rate: Callable, y: list, f0: list, h: float):
    """One trial Dormand-Prince step on lists of Python floats.

    Each stage state is summed component by component, ``c0*k0`` first
    and then ``+ a_ij*k_j`` for the nonzero ``a_ij`` in stage order,
    and checked to be finite before the rate function, the only code
    that sees an ndarray, gets it as a fresh ``float64`` array; the
    derivatives come back as a list and are checked too.

    Returns ``(y_new, f_new, err)`` as new lists, or ``None`` when any
    stage went non-finite (the caller treats that as a failed step and
    shrinks).  A stage rate that raises or has the wrong shape raises
    :class:`~blowuplab.errors.FieldEvaluationError`.
    """
    dim = len(y)
    k = [f0]
    for c0, terms in _STAGES:
        y_stage = []
        for y_m, k_m in zip(y, zip(*k)):
            increment = c0 * k_m[0]
            for a_ij, j in terms:
                increment += a_ij * k_m[j]
            y_stage.append(y_m + h * increment)
        if not _all_finite(y_stage):
            return None
        f_stage = _call_rate(rate, np.array(y_stage), dim).tolist()
        if not _all_finite(f_stage):
            return None
        k.append(f_stage)
    err = []
    for k_m in zip(*k):
        total = 0.0
        for e_i, i in _ERR_TERMS:
            total += e_i * k_m[i]
        err.append(h * total)
    if not _all_finite(err):
        return None
    # stage 7 state is exactly the 5th-order solution (FSAL)
    return y_stage, k[6], err


def _error_norm(err, y_old, y_new, rtol, atol) -> float:
    total = 0.0
    for e, a, b in zip(err, y_old, y_new):
        q = e / (atol + rtol * max(abs(a), abs(b)))
        total += q * q
    return math.sqrt(total / len(err))


def _initial_step(y0, f0, t_end, atol: float) -> float:
    speed = float(np.max(np.abs(f0)))
    if speed > 0.0:
        scale = float(np.max(np.abs(y0))) + atol
        guess = 0.01 * scale / speed
    else:
        guess = t_end / 100.0
    return min(guess, t_end)


class _Core:
    """Stepping loop shared by :func:`integrate` and the blow-up refiner.

    Keeps the current ``(t, y, f)`` triple and a bounded tail of recent
    accepted samples for exponent fitting, and can be resumed with a
    higher threshold after a crossing.  ``y`` and ``f`` are lists of
    Python floats that are replaced, never mutated, so the tail and the
    recorded samples hold them without copies.
    """

    def __init__(self, rate, y0: np.ndarray, opts: IntegrationOptions,
                 horizon: float):
        self.rate = rate
        self.dim = len(y0)
        self.opts = opts
        self.t = 0.0
        with np.errstate(all="ignore"):
            f0 = _call_rate(rate, y0, self.dim)
        if not np.all(np.isfinite(f0)):
            raise FieldEvaluationError(
                f"field is non-finite at the initial state {y0!r}"
            )
        self.y = y0.tolist()
        self.f = f0.tolist()
        self.h = _initial_step(y0, f0, horizon, opts.atol)
        self.horizon = horizon
        self.h_min = _H_MIN_REL * horizon
        self.crossing_xtol: float | None = None
        self.pole: BlowUpEvent | None = None
        self.tail: deque = deque(maxlen=_TAIL_CAPACITY)
        self.tail.append((self.t, self.y, self.f))
        self.samples: list[tuple[float, list]] = []

    def record(self) -> None:
        self.samples.append((self.t, self.y))

    def run(self, t_end: float, threshold: float, *, record: bool,
            t_eval: np.ndarray | None = None) -> str:
        """Advance until ``t_end`` or a threshold crossing.

        Returns ``"end"``, ``"crossed"`` or ``"pole"``.  After a
        crossing the core sits at the last sub-threshold point and
        ``self.cross_rem`` holds the bracket width to the crossing.
        """
        eval_idx = 0
        if t_eval is not None:
            eval_idx = int(np.searchsorted(t_eval, self.t, side="right"))
            # a requested point at the very start records immediately
            if eval_idx > 0 and t_eval[eval_idx - 1] == self.t:
                self.record()
        elif record and not self.samples:
            self.record()

        rejects = 0
        with np.errstate(all="ignore"):
            while self.t < t_end:
                # only the controller's own step can underflow; a step
                # shortened to land on a requested time may be tiny
                if self.h < self.h_min:
                    return self._stall()
                target = t_end
                if t_eval is not None and eval_idx < len(t_eval):
                    target = min(target, float(t_eval[eval_idx]))
                h = min(self.h, target - self.t)
                hit_target = h >= target - self.t
                attempt = _try_step(self.rate, self.y, self.f, h)
                if attempt is None:
                    self.h = max(h * _MIN_FACTOR, 0.0)
                    rejects += 1
                    if rejects > 200:
                        return self._stall()
                    continue
                y_new, f_new, err = attempt
                norm = _error_norm(err, self.y, y_new, self.opts.rtol, self.opts.atol)
                if norm > 1.0:
                    factor = max(_MIN_FACTOR, _SAFETY * norm ** -0.2)
                    self.h = h * factor
                    rejects += 1
                    if rejects > 200:
                        return self._stall()
                    continue
                rejects = 0
                if max(y_new) >= threshold:
                    self._bisect_crossing(h, threshold)
                    return "crossed"
                self.t = target if hit_target else self.t + h
                self.y = y_new
                self.f = f_new
                self.tail.append((self.t, self.y, self.f))
                if t_eval is not None:
                    if eval_idx < len(t_eval) and self.t == float(t_eval[eval_idx]):
                        self.record()
                        eval_idx += 1
                elif record:
                    self.record()
                grow = _MAX_FACTOR if norm == 0.0 else \
                    min(_MAX_FACTOR, _SAFETY * norm ** -0.2)
                self.h = max(h * max(1.0, grow), self.h) if hit_target else h * grow
        return "end"

    def _stall(self) -> str:
        """Handle step-size underflow (or a reject storm).

        Near a blow-up the time between the last representable state
        and the asymptote can shrink below the smallest usable step, so
        the threshold is never formally crossed.  When the tail shows
        that structure the stall is resolved as a blow-up; otherwise it
        is a genuine failure and raises.  Runs inside :meth:`run`'s
        ``np.errstate``.
        """
        probe = [y_m + self.h_min * f_m for y_m, f_m in zip(self.y, self.f)]
        f_probe = _call_rate(self.rate, np.array(probe), self.dim)
        if not np.all(np.isfinite(f_probe)):
            raise FieldEvaluationError(
                f"field becomes non-finite adjacent to t={self.t!r}, "
                f"state {np.array(self.y)!r}; the derivative left the "
                "representable range"
            )
        event = self._pole_event()
        if event is not None:
            self.pole = event
            return "pole"
        raise StiffnessError(
            f"step size underflowed at t={self.t!r} without a threshold "
            "crossing; the system is too stiff for this integrator"
        )

    def _pole_event(self) -> "BlowUpEvent | None":
        t_hat = _tail_asymptote(self.tail, self.y)
        if t_hat is None:
            return None
        # the extrapolated asymptote must sit inside the stalled step's
        # neighborhood, up to the accumulated time drift of the tracker
        drift = abs(t_hat - self.t)
        slop = max(100.0 * self.h_min,
                   1e3 * self.opts.rtol * max(self.t, self.h_min))
        if drift > slop:
            return None
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

    def _bisect_crossing(self, h: float, threshold: float) -> None:
        """Shrink the crossing bracket by bisecting the final step.

        Advances ``(t, y, f)`` along sub-threshold midpoints, so the
        core ends at the last known point below the threshold with the
        crossing inside ``(t, t + cross_rem]``.
        """
        xtol = self.crossing_xtol
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
            if attempt is None:
                rem = half
                continue
            y_mid, f_mid, _ = attempt
            if max(y_mid) >= threshold:
                rem = half
                continue
            self.t += half
            self.y = y_mid
            self.f = f_mid
            self.tail.append((self.t, self.y, self.f))
            rem -= half
        self.cross_rem = rem


def _as_state(state0, dimension: int) -> np.ndarray:
    y0 = np.atleast_1d(np.asarray(state0, dtype=float))
    if y0.shape != (dimension,):
        raise DomainError(
            f"initial state has shape {y0.shape}, field dimension is {dimension}"
        )
    if not np.all(np.isfinite(y0)) or np.any(y0 <= 0.0):
        raise DomainError(
            f"initial levels must be positive and finite, got {y0!r}"
        )
    return y0


def integrate(field: VectorField, state0, t_end: float,
              opts: IntegrationOptions | None = None,
              t_eval: Sequence[float] | None = None) -> Trajectory:
    """Integrate a growth system until ``t_end`` or a threshold crossing.

    Without ``t_eval`` every accepted step is recorded; with it only
    the requested times are (they must be sorted, unique, and inside
    ``[0, t_end]``).  If a state component reaches the blow-up
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
    opts = opts or IntegrationOptions()
    if not math.isfinite(t_end) or t_end <= 0.0:
        raise DomainError(f"t_end must be positive and finite, got {t_end!r}")
    y0 = _as_state(state0, field.dimension)
    eval_arr = None
    if t_eval is not None:
        eval_arr = np.asarray(t_eval, dtype=float)
        if eval_arr.ndim != 1 or len(eval_arr) == 0:
            raise DomainError("t_eval must be a non-empty 1-d sequence")
        if np.any(np.diff(eval_arr) <= 0.0):
            raise DomainError("t_eval must increase strictly")
        if eval_arr[0] < 0.0 or eval_arr[-1] > t_end:
            raise DomainError("t_eval must lie within [0, t_end]")

    core = _Core(field.rate, y0, opts, horizon=t_end)
    status = core.run(t_end, opts.blowup_threshold, record=True, t_eval=eval_arr)

    blowup = None
    if status == "crossed":
        t_low = core.t
        t_high = core.t + core.cross_rem
        blowup = BlowUpEvent(
            t_low=t_low, t_high=t_high, estimate=0.5 * (t_low + t_high),
            method="threshold-crossing",
        )
    elif status == "pole":
        blowup = core.pole
    samples = core.samples
    if blowup is not None:
        samples = [(t, y) for t, y in samples if t < blowup.t_low]
    if samples:
        times = np.array([t for t, _ in samples])
        states = np.array([y for _, y in samples])
    else:
        times = np.empty(0)
        states = np.empty((0, field.dimension))
    return Trajectory(times=times, states=states, blowup=blowup)


def _tail_asymptote(tail, y: list) -> float | None:
    """Extrapolate the blow-up time from the recent trajectory tail.

    Takes the largest component of ``y`` and the tail samples within
    four (failing that, eight) decades below its peak; fits the local
    rate exponent ``p`` as the least-squares slope of ln(rate) against
    ln(level); then fits ``A**(1-p)`` linearly in t and returns its
    root.  For an exact power-law blow-up the transform is exactly
    linear and hits zero at the asymptote.  Returns ``None`` when no
    window holds five usable samples, when ``p`` is at fit-noise level
    above 1 (there the reciprocal transform degenerates; log-corrected
    blow-ups approach 1 from above much slower than this margin), or
    when the fitted line does not slope downward.
    """
    component = int(np.argmax(y))
    peak = float(y[component])
    for span in (1e4, 1e8):
        lo = peak / span
        points = [(t, s[component], f[component]) for t, s, f in tail
                  if lo <= s[component] <= peak and f[component] > 0.0]
        if len(points) < 5:
            continue
        log_v = np.log([v for _, v, _ in points])
        log_r = np.log([r for _, _, r in points])
        vc = log_v - log_v.mean()
        denom = float(vc @ vc)
        if denom > 0.0:
            break
    else:
        return None
    p = float(vc @ (log_r - log_r.mean())) / denom
    if p <= 1.001:
        return None
    t = np.array([pt[0] for pt in points])
    w = np.array([pt[1] for pt in points]) ** (1.0 - p)
    t_ref = t.mean()
    tc = t - t_ref
    denom = float(tc @ tc)
    if denom <= 0.0:
        return None
    slope = float(tc @ (w - w.mean())) / denom
    if slope >= 0.0:
        return None
    intercept = float(w.mean())
    return t_ref - intercept / slope


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
    decades, or the refinement runs past ``t_end``.  That is
    the honest answer for super-exponential growth without a finite
    singularity (``dA = ln(A)*A`` crosses any threshold but blows up
    only at infinity), and for blow-ups whose asymptote cannot be
    pinned to the requested tolerance within double precision.
    """
    opts = opts or IntegrationOptions()
    if not math.isfinite(t_end) or t_end <= 0.0:
        raise DomainError(f"t_end must be positive and finite, got {t_end!r}")
    y0 = _as_state(state0, field.dimension)
    core = _Core(field.rate, y0, opts, horizon=t_end)

    threshold = opts.blowup_threshold
    refining = False
    plateau = 0
    prev_delta = None
    while True:
        try:
            status = core.run(t_end, threshold, record=False)
        except (StiffnessError, FieldEvaluationError):
            if refining:
                # the field stopped being integrable beyond the user's
                # threshold; no convergent estimate is available
                return None
            raise
        if status == "end":
            return None
        if status == "pole":
            # the asymptote sits closer than one representable step;
            # that is as converged as double precision allows
            return core.pole
        t_hat = _tail_asymptote(core.tail, core.y)
        if t_hat is not None and t_hat > core.t:
            delta = t_hat - core.t
            tol = opts.blowup_tol if opts.blowup_tol is not None \
                else 1e-3 * t_hat
            # later crossings must be located finer than the
            # convergence test below requires
            core.crossing_xtol = tol / 16.0
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
        refining = True


def integrate_multiplicative(coeffs: Sequence[float], state0, t_end: float,
                             opts: IntegrationOptions | None = None) -> Trajectory:
    """Integrate ``dE_i/dt = k_i * prod_j(E_j)`` for positive levels.

    Every component shares the common product factor, so the pairwise
    differences ``E_i/k_i - E_j/k_j`` are conserved exactly; with two
    factors this is the coupled economy growth system.  A single factor
    drives itself, ``dE/dt = k * E**2`` (the hyperbolic law): a lone
    ``k * E`` would grow exponentially forever, falling outside this
    family, where every member reaches a finite-time blow-up.
    """
    k = np.asarray(coeffs, dtype=float)
    if k.ndim != 1 or len(k) < 1:
        raise DomainError("coeffs must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(k)) or np.any(k <= 0.0):
        raise DomainError(f"growth coefficients must be positive, got {k!r}")
    names = tuple(f"E{i + 1}" for i in range(len(k)))
    if len(k) == 1:
        rate = lambda y: k * y * y
    else:
        rate = lambda y: k * np.prod(y)
    field = VectorField(
        dimension=len(k),
        rate=rate,
        names=names,
    )
    return integrate(field, state0, t_end, opts)
