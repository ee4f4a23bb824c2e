"""Monte Carlo ensembles of growth paths with deterministic parallelism.

Each path's random stream is keyed by ``(master_seed, path_index)``
alone, so an ensemble's statistics are a pure function of its spec: the
paths can be simulated in one vectorized batch, split into chunks, or
spread over worker threads and the merged result is bit-for-bit the
same.  Pathwise log-growth slopes come from running sums of the
log-level and of its product with time, plus prefix sums of the time
grid up to each path's last step, which lets the engine track a
least-squares slope per path without storing the paths.

The volatility masking scan reruns one hyperbolic ensemble per noise
level with common random numbers and feeds every surviving path's
trailing window to the trend barometer: rising noise hides the
super-exponential curvature, so the flagged fraction falls even though
the drift, and the eventual singularity, is unchanged.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .analysis import barometer
from .errors import DomainError
from .ode import DEFAULT_BLOWUP_THRESHOLD
from .sde import (StochasticModel, _Batch, _derive_rng, _simulate_paths,
                  _validate_grid, hyperbolic_sde_model)

__all__ = [
    "EnsembleSpec",
    "EnsembleStats",
    "MaskingPoint",
    "run_ensemble",
    "simulate_batch",
    "volatility_masking_scan",
]

_CHUNK_PATHS = 512
_QUANTILE_ORDERS = (5, 25, 50, 75, 95)


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
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths!r}")
        if int(self.master_seed) < 0:
            raise DomainError("master_seed must be nonnegative")
        self.steps()


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Merged outcome statistics of one ensemble.

    The arrays are indexed by path: ``outcomes`` holds one of
    ``"exploded"``, ``"absorbed"``, ``"survived"``; ``event_times`` the
    explosion or absorption time (``nan`` for survivors);
    ``final_levels`` the last meaningful level (crossing sample for
    exploded paths, final value for survivors, ``nan`` for absorbed).
    ``slopes`` has one entry per path (``nan`` where a slope was not
    measurable); ``slope_mean``/``slope_std`` summarize the measurable
    ones.
    """

    n_paths: int
    exploded_fraction: float
    absorbed_fraction: float
    slopes: np.ndarray
    slope_mean: float | None
    slope_std: float | None
    outcomes: np.ndarray
    event_times: np.ndarray
    final_levels: np.ndarray

    @property
    def blowup_times(self) -> np.ndarray:
        """Explosion times of the exploded paths, in ascending order."""
        return np.sort(self.event_times[self.outcomes == "exploded"])

    @property
    def quantiles(self) -> dict[int, float] | None:
        """Quantiles 5, 25, 50, 75, 95 of blowup_times; ``None`` if empty."""
        times = self.blowup_times
        if not times.size:
            return None
        return {q: float(np.quantile(times, q / 100.0)) for q in _QUANTILE_ORDERS}

    @property
    def terminal_values(self) -> np.ndarray:
        """Final levels of the surviving paths, in path order."""
        return self.final_levels[self.outcomes == "survived"]


def simulate_batch(spec: EnsembleSpec, workers: int = 1,
                   record_points: int | None = None) -> _Batch:
    """Simulate every path of ``spec`` and merge the chunks in path order.

    Chunks of ``_CHUNK_PATHS`` paths run on ``workers`` threads; the
    result is the same for any ``workers`` because every path's draws
    are fixed by ``(master_seed, path_index)``.  With ``record_points``
    each level is also recorded every ``max(1, steps // record_points)``
    steps and at the horizon, into ``series`` on the step grid
    ``rec_steps`` (``nan`` once a path has ended).
    """
    spec.validate()
    n_steps = spec.steps()
    stride = None
    if record_points is not None:
        if record_points < 1:
            raise DomainError(f"record_points must be >= 1, got {record_points!r}")
        stride = max(1, n_steps // record_points)

    def chunk(lo: int) -> _Batch:
        rngs = [_derive_rng(int(spec.master_seed), i)
                for i in range(lo, min(lo + _CHUNK_PATHS, spec.n_paths))]
        return _simulate_paths(spec.model, spec.A0, spec.dt, n_steps, rngs,
                               spec.threshold, record_stride=stride)

    starts = range(0, spec.n_paths, _CHUNK_PATHS)
    if workers <= 1 or len(starts) == 1:
        batches = [chunk(lo) for lo in starts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(chunk, starts))
    merged = {name: np.concatenate([getattr(b, name) for b in batches])
              for name in ("exploded", "absorbed", "alive", "event_time",
                           "final_levels", "slopes")}
    if stride is not None:
        merged["series"] = np.concatenate([b.series for b in batches])
    return replace(batches[0], **merged)


def run_ensemble(spec: EnsembleSpec, workers: int = 1) -> EnsembleStats:
    """Simulate the ensemble and merge per-path outcomes into statistics.

    ``workers`` only sets the number of threads; the result is
    identical for any value (see :func:`simulate_batch`).
    """
    batch = simulate_batch(spec, workers)
    n = spec.n_paths
    outcomes = np.where(batch.exploded, "exploded",
                        np.where(batch.absorbed, "absorbed", "survived"))
    slopes = batch.slopes
    measurable = slopes[np.isfinite(slopes)]
    slope_mean = float(measurable.mean()) if measurable.size else None
    slope_std = float(measurable.std(ddof=1)) if measurable.size > 1 else None
    return EnsembleStats(
        n_paths=n,
        exploded_fraction=float(np.count_nonzero(batch.exploded)) / n,
        absorbed_fraction=float(np.count_nonzero(batch.absorbed)) / n,
        slopes=slopes,
        slope_mean=slope_mean,
        slope_std=slope_std,
        outcomes=outcomes,
        event_times=batch.event_time,
        final_levels=batch.final_levels,
    )


@dataclass(frozen=True)
class MaskingPoint:
    """Barometer outcome for one noise level of the masking scan."""

    sigma: float
    n_paths: int
    n_analyzed: int
    n_flagged: int
    flagged_fraction: float
    exploded_fraction: float
    absorbed_fraction: float


def volatility_masking_scan(k: float, sigmas: Sequence[float],
                            template: EnsembleSpec, *,
                            window: int = 64,
                            record_points: int = 256,
                            workers: int = 1) -> list[MaskingPoint]:
    """Measure how noise hides super-exponential growth from the barometer.

    For each noise level the template ensemble is rerun with the
    hyperbolic model ``dA = k*A**2 dt + sigma*A**2 dW`` and the same
    master seed (common random numbers), and every path still alive at
    the horizon is tested: its trailing ``window`` recorded samples go
    through :func:`~blowuplab.analysis.barometer`.  Returned points
    follow the order of ``sigmas``; ``flagged_fraction`` is ``nan``
    when no path survived to be analyzed.  Paths absorbed before the
    horizon have no complete log-trajectory to test; they are excluded
    from the fraction and counted in ``absorbed_fraction`` instead.
    """
    if window < 8:
        raise DomainError(f"window must be at least 8, got {window!r}")
    if record_points < window:
        raise DomainError(
            f"record_points={record_points!r} cannot support window={window!r}"
        )
    levels = [float(s) for s in sigmas]
    if not levels:
        raise DomainError("sigmas must not be empty")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise DomainError("sigmas must increase strictly")
    points: list[MaskingPoint] = []
    for sigma in levels:
        spec = replace(template, model=hyperbolic_sde_model(k, sigma))
        batch = simulate_batch(spec, workers, record_points)
        live = np.flatnonzero(batch.alive)
        times = batch.rec_steps * spec.dt
        if live.size and len(times) < window:
            raise DomainError(
                f"recorded grid has {len(times)} samples, window needs {window}"
            )
        n_flagged = sum(int(barometer(times, batch.series[lane], window).flagged)
                        for lane in live)
        n_analyzed = int(live.size)
        fraction = (n_flagged / n_analyzed) if n_analyzed else math.nan
        points.append(MaskingPoint(
            sigma=sigma,
            n_paths=spec.n_paths,
            n_analyzed=n_analyzed,
            n_flagged=n_flagged,
            flagged_fraction=fraction,
            exploded_fraction=int(np.count_nonzero(batch.exploded)) / spec.n_paths,
            absorbed_fraction=int(np.count_nonzero(batch.absorbed)) / spec.n_paths,
        ))
    return points
