"""The stochastic engine: Euler-Maruyama paths, ensemble batches and ergodicity.

Paths of ``dA = a(A) dt + b(A) dW`` are simulated on a fixed grid with
per-path random streams derived as
``PCG64(SeedSequence(master_seed, spawn_key=(path_index,)))``, so any
path can be reproduced bit for bit in isolation or inside a vectorized
batch beside other ensembles: the draws depend only on the master seed
and the path's index.  :func:`em_path` steps one path on Python
floats.  :func:`simulate_batches` steps the ensembles of several
:class:`EnsembleSpec` in one lockstep batch on numpy arrays, drawing
each shared stream once, and each spec's last few live lanes alone in
:func:`em_path`'s loop; :class:`StochasticModel` says which models
give the same bits on floats as on arrays.

Discretized self-accelerating growth behaves qualitatively differently
from its continuous limit: a path that wanders high enough takes one
huge Euler step and leaves through the explosion threshold (default
shared with the ODE engine, ``1e9``), while a path kicked to a
nonpositive level is absorbed.  Both terminations are tracked
separately, and both belong to the scheme.  For the hyperbolic model
``dA = k*A**2 dt + sigma*A**2 dW``, Ito's formula gives ``X = 1/A``
the dynamics ``dX = (sigma**2/X - k) dt - sigma dW``, whose stationary
law is Gamma(3, rate ``2*k/sigma**2``): the continuous process neither
explodes nor reaches zero.  "Exploded" here always means the discrete
scheme crossed the threshold, at widely dispersed times rather than at
the deterministic blow-up, and both outcome fractions depend on ``dt``.

The ergodicity utilities implement the standard variance-stabilizing
change of variable: ``u(A)`` with ``u'(A) = 1/b(A)`` turns the
diffusion coefficient into 1, and the transformed drift is
``a_u(A) = a(A)/b(A) - b'(A)/2``.  When ``a_u`` is constant in ``A``
the transformed process is a Brownian motion with drift, time averages
converge, and ensemble statistics can be read off a single long path;
geometric growth passes, self-referential (hyperbolic) growth does
not.
"""

from __future__ import annotations

import copy
import math
import mmap
import reprlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (DomainError, FieldEvaluationError, InsufficientDataError, check_array,
                     check_instance, check_integer, check_real)
from .ode import DEFAULT_BLOWUP_THRESHOLD, fit_line, gauss_kronrod

__all__ = [
    "StochasticModel",
    "PathResult",
    "EnsembleSpec",
    "EnsembleStats",
    "ErgodicityReport",
    "em_path",
    "simulate_batches",
    "gbm_model",
    "gbm_time_average_exponent",
    "hyperbolic_sde_model",
    "ergodicity_check",
    "ergodic_drift",
    "pathwise_growth_slope",
]

# a block of draws is min(_BLOCK_STEPS, steps left) rows of every live
# stream in the batch kernel, and of its own stream for a path on floats
_BLOCK_STEPS = 1024
# a spec's lanes leave the arrays of a pass, each to finish alone on
# Python floats, once at most this many of them are live there
_FEW_LANES = 16
# the paths of each spec in one lockstep pass of the batch kernel, so a
# block's draws take at most 32 MiB per master seed in the batch
_PASS_STREAMS = 4096
# the draw buffer is private anonymous memory (on Windows, whatever
# mmap.mmap(-1, ...) maps)
_MAP_FLAGS = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
_MIN_SLOPE_SAMPLES = 10
# the types of an em_path level, tested by type: numpy before 2.4 turns a
# one-element array into a number with only a DeprecationWarning
_ONE_NUMBER = (float, np.floating)
# relative step of the central difference for b'(A), and the largest
# relative spread of the transformed drift that still counts as constant
_REL_DERIVATIVE_STEP = 1e-6
_CONSTANCY_TOLERANCE = 1e-6
# relative and absolute tolerance of each segment of u(A), QUADPACK's default
_U_TOL = 1.49e-8


@dataclass(frozen=True)
class StochasticModel:
    """Drift and diffusion of a scalar SDE ``dA = drift dt + diffusion dW``.

    Both callables must accept floats and numpy arrays elementwise:
    :func:`em_path` calls them on Python floats, and so does
    :func:`simulate_batches` for the last few live lanes of each spec,
    which it calls on arrays of live levels before.  A callable built
    from ``+ - * /`` and numpy ufuncs gives the same bits either way;
    Python's ``**`` on a float may round differently from numpy's array
    ``power`` in the last ulp, so a batch row of such a model depends
    on the step its lane left the arrays.
    """

    drift: Callable
    diffusion: Callable
    label: str = "custom"


@dataclass(frozen=True, eq=False)
class PathResult:
    """One simulated path.

    ``times``/``values`` hold the samples, all finite and positive:
    :func:`em_path` keeps the level of every step.  ``outcome`` is
    ``"exploded"``, ``"absorbed"`` or ``"survived"`` and ``event_time``
    the time of the ending step (``None`` for a survivor), as in
    :class:`EnsembleStats`.  An exploded path ends with the crossing
    sample when it is finite; an absorbed path ends with the last
    positive sample.  ``seed`` is the ``(master_seed, path_index)``
    pair that reproduces the path exactly.
    """

    times: np.ndarray
    values: np.ndarray
    outcome: str
    event_time: float | None
    seed: tuple[int, int]

    @property
    def exploded(self) -> bool:
        return self.outcome == "exploded"

    @property
    def absorbed(self) -> bool:
        return self.outcome == "absorbed"


@dataclass(frozen=True)
class EnsembleSpec:
    """Everything that determines an ensemble, and nothing else.

    ``model`` may be ``None`` in templates that a scan fills in.
    The same spec always produces the same statistics.
    """

    model: StochasticModel | None
    A0: float
    dt: float
    t_end: float
    n_paths: int
    master_seed: int
    threshold: float = DEFAULT_BLOWUP_THRESHOLD

    def steps(self) -> int:
        return _validate_grid(self.A0, self.dt, self.t_end, self.threshold)

    def validate(self) -> None:
        if self.model is None:
            raise DomainError("ensemble spec has no model bound")
        check_integer("n_paths", self.n_paths, at_least=1)
        check_integer("master_seed", self.master_seed, at_least=0)
        self.steps()


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Per-path outcomes of one ensemble, and the statistics derived from them.

    The stored arrays are indexed by path: ``outcomes`` holds one of
    ``"exploded"``, ``"absorbed"``, ``"survived"``; ``event_times`` the
    explosion or absorption time (``nan`` for survivors);
    ``final_levels`` the finite crossing sample of an exploded path, the
    final value of a survivor, and ``nan`` otherwise; ``slopes`` the
    least-squares slope of ``ln(level)`` against time over the steps a
    path was alive (``nan`` where it was not measurable).  A recorded
    ensemble also holds its levels every few steps, on the step grid
    ``rec_steps``, in the rows of ``series`` (``nan`` once a path has
    ended); both are ``None`` otherwise.

    Derived from these: ``n_paths``; the outcome masks ``exploded``,
    ``absorbed`` and ``survived`` (alive at the horizon) and the first
    two's fractions; ``slope_mean`` and ``slope_std`` over the
    measurable slopes; ``blowup_times``, ``quantiles`` and
    ``terminal_values``.
    """

    outcomes: np.ndarray
    event_times: np.ndarray
    final_levels: np.ndarray
    slopes: np.ndarray
    rec_steps: np.ndarray | None = None
    series: np.ndarray | None = None

    @property
    def n_paths(self) -> int:
        return len(self.outcomes)

    @property
    def exploded(self) -> np.ndarray:
        return self.outcomes == "exploded"

    @property
    def absorbed(self) -> np.ndarray:
        return self.outcomes == "absorbed"

    @property
    def survived(self) -> np.ndarray:
        return self.outcomes == "survived"

    @property
    def exploded_fraction(self) -> float:
        return float(np.count_nonzero(self.exploded)) / self.n_paths

    @property
    def absorbed_fraction(self) -> float:
        return float(np.count_nonzero(self.absorbed)) / self.n_paths

    @property
    def slope_mean(self) -> float | None:
        measurable = self.slopes[np.isfinite(self.slopes)]
        return float(measurable.mean()) if measurable.size else None

    @property
    def slope_std(self) -> float | None:
        measurable = self.slopes[np.isfinite(self.slopes)]
        return float(measurable.std(ddof=1)) if measurable.size > 1 else None

    @property
    def blowup_times(self) -> np.ndarray:
        """Explosion times of the exploded paths, in ascending order."""
        return np.sort(self.event_times[self.exploded])

    @property
    def quantiles(self) -> dict[int, float] | None:
        """Quantiles 5, 25, 50, 75, 95 of blowup_times; ``None`` if empty."""
        times = self.blowup_times
        if not times.size:
            return None
        return {q: float(np.quantile(times, q / 100.0)) for q in (5, 25, 50, 75, 95)}

    @property
    def terminal_values(self) -> np.ndarray:
        """Final levels of the surviving paths, in path order."""
        return self.final_levels[self.survived]


@dataclass(frozen=True, eq=False)
class ErgodicityReport:
    """Outcome of the variance-stabilizing transform analysis.

    ``levels`` is the probe grid in the original variable, ``u_of_A``
    the transform sampled on it (anchored to 0 at the first level), and
    ``drift_of_u`` the transformed drift.  ``constancy_score`` is the
    largest deviation of the transformed drift from its grid mean,
    relative to that mean; the transform exists when the score stays
    below ``1e-6``.  ``reason`` is set when no transform could be
    constructed at all (for instance a vanishing diffusion).
    """

    transform_exists: bool
    levels: np.ndarray
    u_of_A: np.ndarray
    drift_of_u: np.ndarray
    constancy_score: float
    reason: str | None = None


def _normalize_seed(seed) -> tuple[int, int]:
    if isinstance(seed, tuple):
        if len(seed) != 2:
            raise DomainError(f"seed tuple must be (master_seed, path_index), got {seed!r}")
        master, index = seed
    else:
        master, index = seed, 0
    return check_integer("master_seed", master, at_least=0), \
        check_integer("path_index", index, at_least=0)


def _derive_rng(master_seed: int, path_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(master_seed, spawn_key=(path_index,))
    return np.random.Generator(np.random.PCG64(seq))


def _record_lattice(n_steps: int, stride: int) -> np.ndarray:
    """Recorded steps: every ``stride``-th from 0, plus the horizon."""
    steps = np.arange(0, n_steps + 1, stride)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    return steps


def _model_failure(model: StochasticModel, t: float | None,
                   exc: Exception) -> FieldEvaluationError:
    where = "on the probe grid" if t is None else f"at t={t!r}"
    return FieldEvaluationError(
        f"drift or diffusion of model {model.label!r} raised {where}: {exc!r}"
    )


def _coefficient(model: StochasticModel, fn: Callable, a: np.ndarray, t: float | None):
    """The drift or diffusion ``fn`` of ``model`` at levels ``a``: one number, or one per level."""
    try:
        out = fn(a)
        arr = np.asarray(out, dtype=float)  # reads None as nan
        if out is None or arr.ndim and arr.shape != a.shape:
            raise ValueError(f"returned {reprlib.repr(out)} for levels of shape {a.shape}")
    except Exception as exc:
        raise _model_failure(model, t, exc) from exc
    return arr


def _evaluate(model: StochasticModel, a: np.ndarray, t: float):
    return _coefficient(model, model.drift, a, t), _coefficient(model, model.diffusion, a, t)


def _live_coefficients(slices: list, levels: np.ndarray, t: float):
    """Drift and diffusion at the live ``levels``, each ``(model, lo, hi)`` slice by its model."""
    if len(slices) == 1:
        # no assembly: about 10% of ensemble-lockstep's time
        # (core_ms_p50 589 -> 524 ms, side 641 -> 586 ms)
        return _evaluate(slices[0][0], levels, t)
    drift = np.empty(levels.size)
    diffusion = np.empty(levels.size)
    for model, lo, hi in slices:
        drift[lo:hi], diffusion[lo:hi] = _evaluate(model, levels[lo:hi], t)
    return drift, diffusion


def _compact_slices(slices: list, ok) -> list:
    """The ``(model, lo, hi)`` slices of the lanes that ``ok`` keeps, the empty ones dropped."""
    ends = np.cumsum(ok)[[hi - 1 for _, _, hi in slices]].tolist()
    return [(model, lo, hi) for (model, _, _), lo, hi in zip(slices, [0] + ends, ends) if hi > lo]


def _add_slope_terms(y_run: np.ndarray, ty_run: np.ndarray, levels: np.ndarray, first: int,
                     dt: float, t_shift: float) -> tuple[np.ndarray, np.ndarray]:
    """The slope sums with the terms of steps ``first, first+1, ...`` added.

    Row ``i`` of ``levels`` holds the lanes' levels at step ``first + i``;
    its terms are ``y = ln(level)`` and ``y * (t - t_shift)``.  The rows
    are added one after another with ``np.add.accumulate``, so each sum
    comes out as if the terms were added step by step.
    """
    y = np.log(levels)
    shift = np.arange(first, first + len(levels)) * dt - t_shift
    return (np.add.accumulate(np.vstack((y_run, y)))[-1],
            np.add.accumulate(np.vstack((ty_run, y * shift[:, None])))[-1])


def simulate_batches(specs: Sequence[EnsembleSpec],
                     record_points: int | None = None) -> list[EnsembleStats]:
    """Simulate every path of every spec in one lockstep batch.

    The specs must share ``A0``, ``dt``, ``t_end`` and ``threshold``;
    their models, path counts and master seeds may differ.  Returns the
    stats of each spec, in order, each bit for bit what the spec gives
    alone: path ``i`` of a spec is driven by the stream ``(master_seed,
    i)``, and specs that share a master seed share those streams.  With
    ``record_points`` each level is also recorded every ``max(1, steps
    // record_points)`` steps and at the horizon, into ``series`` on the
    step grid ``rec_steps`` (``nan`` once a path has ended).  A drift or
    diffusion that raises, or returns neither one number nor one per
    level, surfaces as :class:`~blowuplab.errors.FieldEvaluationError`
    naming the model's ``label`` and the time.

    The paths run in passes over consecutive path indices: a pass holds
    paths ``first .. first + _PASS_STREAMS - 1`` of every spec, whatever
    the other specs' seeds, so a large ensemble keeps few generators
    alive.  Each block draws ``min(_BLOCK_STEPS, steps left)`` rows of
    every live stream once, and a lane reads its stream's column: the
    draws take at most 32 MiB per master seed in the batch.  A stream's
    draws do not depend on how its steps are split into blocks, so every
    path comes out as if simulated alone.  The live lanes of a spec stay in
    one contiguous slice of numpy arrays: each model is called once per
    step on its own live levels, and a lane that ends is dropped.

    Once a spec has at most ``_FEW_LANES`` live lanes in a pass, at its
    start or when lanes end, those lanes leave the arrays, where most of
    a step would be numpy's fixed cost per call.  Each finishes alone in
    :func:`em_path`'s loop on Python floats, reading the draws left in
    the block and then a copy of its stream's generator, and shares the
    bookkeeping of ended lanes, slopes and recorded rows with the
    arrays.  Models built from ``+ - * /`` and numpy ufuncs give the
    same bits on floats as on arrays; Python's ``**`` may round
    differently from numpy's array ``power``.  The switch depends only
    on the spec's own lanes, so such a model's spec, too, gives the same
    bits alone as beside others.
    """
    given, specs = specs, list(specs) if np.iterable(specs) else []
    if not specs or not all(isinstance(spec, EnsembleSpec) for spec in specs):
        raise DomainError("specs must be a non-empty sequence of EnsembleSpec, "
                          f"got {reprlib.repr(given)}")
    for spec in specs:
        spec.validate()
    head = specs[0]
    A0, dt, threshold = head.A0, head.dt, head.threshold
    if any((s.A0, s.dt, s.t_end, s.threshold) != (A0, dt, head.t_end, threshold)
           for s in specs):
        raise DomainError("specs in one batch must share A0, dt, t_end and threshold")
    n_steps = head.steps()
    record_stride = None
    if record_points is not None:
        check_integer("record_points", record_points, at_least=1)
        record_stride = max(1, n_steps // record_points)
    sizes = [int(s.n_paths) for s in specs]
    bounds = np.cumsum([0] + sizes).tolist()  # rows of each spec in the output
    n = bounds[-1]
    stream = np.empty(n, dtype=np.intp)  # generator of each output row in its pass
    sqdt = math.sqrt(dt)
    outcomes = np.full(n, "survived")
    event_times = np.full(n, np.nan)
    final_levels = np.full(n, np.nan)

    # slope sums of y = ln(value) against time; time is shifted by half
    # the horizon to keep the normal equations well conditioned.  A path
    # adds its y at steps 0..last[path], so its count and time sums are
    # prefix sums of one grid; only the sums of y and t*y are run per lane.
    t_shift = 0.5 * n_steps * dt
    last = np.full(n, n_steps)
    sy = np.zeros(n)
    sty = np.zeros(n)

    rec_steps = None
    series = None
    first_rec = n_steps + 1  # never reached unless recording
    if record_stride is not None:
        rec_steps = _record_lattice(n_steps, record_stride)
        series = np.full((n, len(rec_steps)), np.nan)
        series[:, 0] = A0
        first_rec = min(record_stride, n_steps)

    def settle(gone, level, at, y, ty):
        """Book rows ``gone``, alive up to step ``at``: ``level`` ended each, or is a survivor's."""
        out = ~((level > 0.0) & (level < threshold))
        # nan and -inf count as exploded
        sunk = (level <= 0.0) & (level > -np.inf)
        outcomes[gone] = np.where(out, np.where(sunk, "absorbed", "exploded"), "survived")
        event_times[gone] = np.where(out, (at + 1) * dt, np.nan)
        final_levels[gone] = np.where(np.isfinite(level) & ~sunk, level, np.nan)
        last[gone] = at
        sy[gone] = y
        sty[gone] = ty

    def finish_alone(row, model, level, step, normals, y, ty):
        """Step output ``row`` alone on floats from ``level`` at ``step``, reading ``normals``
        and then a copy of its stream's generator in this pass, and book it."""
        values, end_step, end = _float_path(model, level, step, n_steps, dt, threshold,
                                            normals, copy.deepcopy(rngs[stream[row]]))
        y, ty = _add_slope_terms(y, ty, values[:, None], step, dt, t_shift)
        if series is not None:
            kept = slice(*np.searchsorted(rec_steps, (step, end_step + 1)))
            series[row, kept] = values[rec_steps[kept] - step]
        settle([row], values[-1:] if end is None else np.array([end]), end_step, y, ty)

    with np.errstate(all="ignore"):
        for first in range(0, max(sizes), _PASS_STREAMS):
            # paths first..first+_PASS_STREAMS-1 of each spec that has them
            part = [(s.model, int(s.master_seed), lo + first,
                     lo + min(count, first + _PASS_STREAMS))
                    for s, count, lo in zip(specs, sizes, bounds) if count > first]
            keys: dict[tuple[int, int], int] = {}
            for _, master, lo, hi in part:
                stream[lo:hi] = [keys.setdefault((master, first + j), len(keys))
                                 for j in range(hi - lo)]
            rngs = [_derive_rng(master, i) for master, i in keys]
            if not first:
                # the draws of every block in turn, sized for the first pass,
                # which has the most streams.  Mapped, not taken from the heap,
                # so its pages go back to the system when the call returns: a
                # freed heap block this size stays with the allocator, and
                # peak memory moved by a whole buffer between identical runs.
                buffer = np.frombuffer(mmap.mmap(-1, 8 * _BLOCK_STEPS * len(rngs), **_MAP_FLAGS))
            # a spec with few paths in this pass steps each alone, the others on arrays
            for model, _, lo, hi in part:
                if hi - lo <= _FEW_LANES:
                    for row in range(lo, hi):
                        finish_alone(row, model, float(A0), 0, [], np.zeros(1), np.zeros(1))
            part = [p for p in part if p[3] - p[2] > _FEW_LANES]
            lanes = np.array([row for *_, lo, hi in part for row in range(lo, hi)], dtype=np.intp)
            ends = np.cumsum([hi - lo for *_, lo, hi in part]).tolist()
            slices = [(model, lo, hi) for (model, *_), lo, hi in zip(part, [0] + ends, ends)]
            a = np.full(lanes.size, float(A0))
            y_run = np.zeros(lanes.size)
            ty_run = np.zeros(lanes.size)
            step = 0
            rec_pos = 1
            next_rec = first_rec
            while step < n_steps and lanes.size:
                live_streams = np.unique(stream[lanes])
                block = min(_BLOCK_STEPS, n_steps - step)
                # one row per step, so each step reads contiguous draws
                draws = buffer[:block * live_streams.size].reshape(block, live_streams.size)
                for col, s in enumerate(live_streams.tolist()):
                    draws[:, col] = rngs[s].standard_normal(block)
                cols = np.searchsorted(live_streams, stream[lanes])
                for row, z in enumerate(draws):
                    y = np.log(a)
                    y_run += y
                    ty_run += y * (step * dt - t_shift)
                    drift, diffusion = _live_coefficients(slices, a, step * dt)
                    a_next = a + drift * dt + diffusion * sqdt * z[cols]
                    ok = (a_next > 0.0) & (a_next < threshold)
                    step += 1
                    if np.count_nonzero(ok) < lanes.size:
                        ended = ~ok
                        settle(lanes[ended], a_next[ended], step - 1, y_run[ended], ty_run[ended])
                        # a spec left with few live lanes sends them to finish alone
                        for model, lo, hi in slices:
                            alone = lo + np.flatnonzero(ok[lo:hi])
                            if alone.size > _FEW_LANES:
                                continue
                            ok[alone] = False
                            for i in alone.tolist():
                                left = draws[row + 1:, cols[i]]
                                finish_alone(lanes[i], model, float(a_next[i]), step,
                                             left.tolist(), y_run[i:i + 1], ty_run[i:i + 1])
                        lanes = lanes[ok]
                        a_next = a_next[ok]
                        y_run = y_run[ok]
                        ty_run = ty_run[ok]
                        cols = cols[ok]
                        slices = _compact_slices(slices, ok)
                        if not lanes.size:
                            break
                    a = a_next
                    if step == next_rec:
                        series[lanes, rec_pos] = a
                        rec_pos += 1
                        next_rec = min(next_rec + record_stride, n_steps)
            if lanes.size:
                y = np.log(a)
                settle(lanes, a, n_steps, y_run + y, ty_run + y * (n_steps * dt - t_shift))

        ts = np.arange(n_steps + 1) * dt - t_shift
        cnt = (last + 1).astype(float)
        st = np.cumsum(ts)[last]
        stt = np.cumsum(ts * ts)[last]
        sxx = stt - st * st / np.maximum(cnt, 1.0)
        sxy = sty - st * sy / np.maximum(cnt, 1.0)
        slopes = np.where((cnt >= _MIN_SLOPE_SAMPLES) & (sxx > 0.0), sxy / sxx, np.nan)

    return [EnsembleStats(outcomes=outcomes[lo:hi], event_times=event_times[lo:hi],
                          final_levels=final_levels[lo:hi], slopes=slopes[lo:hi],
                          rec_steps=rec_steps,
                          series=None if series is None else series[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])]


def _validate_grid(A0: float, dt: float, t_end: float, threshold: float) -> int:
    check_real("explosion threshold", threshold, above=0.0, allow_inf=True)
    check_real("initial level", A0, above=0.0)
    if threshold <= A0:
        raise DomainError(
            f"explosion threshold {threshold!r} must exceed the initial level {A0!r}"
        )
    check_real("dt", dt, above=0.0)
    check_real("t_end", t_end, above=0.0)
    n_steps = int(round(t_end / dt))
    if n_steps < 1:
        raise DomainError(f"horizon {t_end!r} is shorter than one step {dt!r}")
    return n_steps


def _float_path(model: StochasticModel, a: float, step: int, n_steps: int, dt: float,
                threshold: float, normals: list, rng: np.random.Generator):
    """Step one path on Python floats from level ``a`` at ``step`` to its end.

    It reads ``normals``, then blocks of at most ``_BLOCK_STEPS`` draws of
    ``rng``.  Returns the levels from ``step`` on while alive, the last
    step alive, and the level that ended the path (``None`` if it survived).
    """
    drift, diffusion = model.drift, model.diffusion
    sqdt = math.sqrt(dt)
    values = np.empty(n_steps - step + 1)
    values[0] = a
    i = 0  # steps taken
    while True:
        for z in normals:
            try:
                da, db = drift(a), diffusion(a)
            except (OverflowError, ZeroDivisionError):
                # numpy scalars give inf or nan here, as an array step does
                da, db = _evaluate(model, np.float64(a), (step + i) * dt)
            except Exception as exc:
                raise _model_failure(model, (step + i) * dt, exc) from exc
            try:
                a_next = a + da * dt + db * sqdt * z
                if not isinstance(a_next, _ONE_NUMBER):
                    raise TypeError(f"level is not one number: {a_next!r}")
                if not 0.0 < a_next < threshold:
                    return values[:i + 1], step + i, float(a_next)
            except (TypeError, ValueError) as exc:
                # a result that is not one number
                raise _model_failure(model, (step + i) * dt, exc) from exc
            i += 1
            values[i] = a = a_next
        if step + i == n_steps:
            return values, n_steps, None
        normals = rng.standard_normal(min(_BLOCK_STEPS, n_steps - step - i)).tolist()


def em_path(model: StochasticModel, A0: float, dt: float, t_end: float, seed,
            *, threshold: float = DEFAULT_BLOWUP_THRESHOLD) -> PathResult:
    """Simulate one Euler-Maruyama path, reproducibly.

    ``seed`` is either a master seed (path index 0) or a
    ``(master_seed, path_index)`` pair.  The effective horizon is
    ``round(t_end/dt)`` steps.  The path keeps the level of every step,
    and its termination sample (the threshold crossing if it is finite;
    an absorbed path ends with the last positive level).  The path is
    stepped on Python floats, as the last few lanes of each spec in
    :func:`simulate_batches` are; a step whose float evaluation
    overflows or divides by zero is redone on ``np.float64``, so it
    ends the path as an array step would instead of raising.  A drift
    or diffusion that still raises, or whose result is not one number,
    surfaces as :class:`~blowuplab.errors.FieldEvaluationError` naming
    the model's ``label`` and the time, as it does in the batch kernel.
    """
    check_instance("model", model, StochasticModel, "a StochasticModel")
    n_steps = _validate_grid(A0, dt, t_end, threshold)
    master, index = _normalize_seed(seed)
    with np.errstate(all="ignore"):
        values, last, end = _float_path(model, float(A0), 0, n_steps, dt, threshold, [],
                                        _derive_rng(master, index))
    times = np.arange(last + 1) * dt
    if end is None:
        return PathResult(times, values, "survived", None, (master, index))
    values = values.copy()  # lets go of the steps never taken
    event = (last + 1) * dt  # the step that ended the path
    if -math.inf < end <= 0.0:
        return PathResult(times, values, "absorbed", event, (master, index))
    if math.isfinite(end):
        times = np.append(times, event)
        values = np.append(values, end)
    return PathResult(times, values, "exploded", event, (master, index))


def pathwise_growth_slope(path: PathResult) -> float:
    """Least-squares slope of ``ln(value)`` against time for one path.

    Uses the recorded samples up to but excluding the explosion
    crossing; requires at least 10 of them.  The times and values of
    ``path`` must be equally long sequences of finite numbers, the
    values positive, as :func:`em_path` builds them.
    """
    check_instance("path", path, PathResult, "a PathResult")
    times = check_array("path times", path.times, min_len=0)
    values = check_array("path values", path.values, min_len=0, positive=True)
    if len(times) != len(values):
        raise DomainError("path times and values must be equally long")
    if path.exploded and len(times) and times[-1] == path.event_time:
        times = times[:-1]
        values = values[:-1]
    if len(times) < _MIN_SLOPE_SAMPLES:
        raise InsufficientDataError(
            f"growth slope needs at least {_MIN_SLOPE_SAMPLES} samples, "
            f"got {len(times)}"
        )
    shift = 0.5 * (float(times[0]) + float(times[-1]))
    line = fit_line(times - shift, np.log(values))
    if line is None:
        raise InsufficientDataError("time grid is degenerate")
    return line[0]


def gbm_model(k: float, I: float, sigma: float) -> StochasticModel:
    """Geometric growth with proportional noise.

    ``dA = k*I*A dt + sigma*I*A dW``: the externally driven exponential
    phase with the driver's capability scaling both the push and the
    noise.
    """
    check_real("k", k, above=0.0)
    check_real("I", I, above=0.0)
    check_real("sigma", sigma, at_least=0.0)
    mu = k * I
    vol = sigma * I
    return StochasticModel(
        drift=lambda a: mu * a,
        diffusion=lambda a: vol * a,
        label="gbm",
    )


def gbm_time_average_exponent(k: float, I: float, sigma: float) -> float:
    """Almost-sure exponential rate of a single geometric path.

    ``ln A(t) / t`` converges to ``k*I - (sigma*I)**2 / 2``: the noise
    correction subtracts half the squared total volatility, so a large
    ensemble can grow in the mean while almost every individual path
    decays.
    """
    check_real("k", k, above=0.0)
    check_real("I", I, above=0.0)
    check_real("sigma", sigma, at_least=0.0)
    return k * I - 0.5 * (sigma * I) ** 2


def hyperbolic_sde_model(k: float, sigma: float) -> StochasticModel:
    """Self-referential growth with level-squared noise.

    ``dA = k*A**2 dt + sigma*A**2 dW``.  Deterministically this blows
    up at ``1/(k*A0)``.  With noise the continuous process does
    neither: ``X = 1/A`` follows ``dX = (sigma**2/X - k) dt - sigma dW``,
    stationary at Gamma(3, rate ``2*k/sigma**2``), so ``A`` stays
    positive and finite.  Euler-Maruyama paths still explode at widely
    dispersed times or get absorbed: a step from a high level is a
    large kick either way.  Both outcome fractions are properties of
    the scheme and depend on ``dt``.
    """
    check_real("k", k, above=0.0)
    check_real("sigma", sigma, at_least=0.0)
    return StochasticModel(
        drift=lambda a: k * a * a,
        diffusion=lambda a: sigma * a * a,
        label="hyperbolic-sde",
    )


def _central_derivative(fn, levels: np.ndarray) -> np.ndarray:
    h = _REL_DERIVATIVE_STEP * np.abs(levels)
    upper = np.asarray(fn(levels + h), dtype=float)
    lower = np.asarray(fn(levels - h), dtype=float)
    return (upper - lower) / (2.0 * h)


def ergodicity_check(model: StochasticModel,
                     levels: Sequence[float] | None = None) -> ErgodicityReport:
    """Probe whether the unit-diffusion transform has constant drift.

    Maps the process through ``u`` with ``u'(A) = 1/b(A)``, integrated
    over all the grid's segments in one call of
    :func:`~blowuplab.ode.gauss_kronrod`, which evaluates the diffusion
    on all its nodes at once; by Ito's formula the transformed drift is
    ``a(A)/b(A) - b'(A)/2`` with ``b'`` taken by central differences at
    relative step ``1e-6``.
    The transform is declared to exist when the transformed drift is
    constant over ``levels`` (default ``1, 2, ..., 100``): its largest
    relative deviation from the grid mean stays below ``1e-6``.
    Existence means time averages of one long path stand in for
    ensemble averages.

    A diffusion that vanishes somewhere on the grid admits no
    transform at all; that comes back as a report with
    ``transform_exists=False`` and ``reason`` set rather than an
    exception, because "no transformation" is a legitimate finding.  A
    drift or diffusion that raises, or returns neither one number nor
    one per level, and a diffusion that is zero at a quadrature node,
    is a ``FieldEvaluationError`` naming the model.
    """
    check_instance("model", model, StochasticModel, "a StochasticModel")
    grid = np.arange(1.0, 101.0) if levels is None else \
        check_array("levels", levels, min_len=3, positive=True, increasing=True)

    nan_grid = np.full(len(grid), math.nan)
    diffusion = _coefficient(model, model.diffusion, grid, None)
    if np.any(~np.isfinite(diffusion)) or np.any(diffusion < 0.0):
        raise DomainError(
            "diffusion must be nonnegative and finite on the probe grid"
        )
    if np.any(diffusion == 0.0):
        return ErgodicityReport(
            transform_exists=False,
            levels=grid,
            u_of_A=nan_grid,
            drift_of_u=nan_grid,
            constancy_score=math.inf,
            reason="diffusion vanishes on the grid; the transform divides by it",
        )
    drift = _coefficient(model, model.drift, grid, None)
    if np.any(~np.isfinite(drift)):
        raise DomainError("drift must be finite on the probe grid")

    derivative = _central_derivative(lambda x: _coefficient(model, model.diffusion, x, None), grid)
    drift_u = drift / diffusion - 0.5 * derivative

    def inverse_diffusion(nodes: np.ndarray) -> np.ndarray:
        b = np.broadcast_to(_coefficient(model, model.diffusion, nodes, None), nodes.shape)
        if not np.all(b):
            raise FieldEvaluationError(
                f"diffusion of model {model.label!r} vanishes at a quadrature node"
            )
        return 1.0 / b

    segments = gauss_kronrod(inverse_diffusion, grid, _U_TOL, _U_TOL)
    u = np.concatenate(([0.0], np.cumsum(segments)))

    mean = float(np.mean(drift_u))
    deviation = float(np.max(np.abs(drift_u - mean)))
    if deviation == 0.0:
        score = 0.0
    elif mean == 0.0:
        score = math.inf
    else:
        score = deviation / abs(mean)
    return ErgodicityReport(
        transform_exists=bool(score < _CONSTANCY_TOLERANCE),
        levels=grid,
        u_of_A=u,
        drift_of_u=drift_u,
        constancy_score=score,
    )


def ergodic_drift(diffusion, a_u: float):
    """Build the drift that makes ``diffusion`` exactly transformable.

    Inverts the transform relation: the returned callable is
    ``a(A) = a_u * b(A) + b(A) * b'(A) / 2`` with ``b'`` taken by
    central differences.  An SDE with this drift and the given
    diffusion maps through the unit-diffusion transform to constant
    coefficients, so :func:`ergodicity_check` on it reports that the
    transform exists.  The drift takes one level or a 1-d sequence of
    levels, finite real numbers, and returns a float or an array.
    """
    if not callable(diffusion):
        raise DomainError("diffusion must be callable")
    a_u = float(check_real("a_u", a_u))

    def drift(level):
        values = check_array("level", level, min_len=0) if np.ndim(level) else \
            np.float64(check_real("level", level))
        b = np.asarray(diffusion(values), dtype=float)
        if np.any(~np.isfinite(b)) or np.any(b <= 0.0):
            raise DomainError("diffusion must be positive where the drift is evaluated")
        derivative = _central_derivative(diffusion, values)
        result = a_u * b + 0.5 * b * derivative
        if np.ndim(level) == 0:
            return float(result)
        return result

    return drift
