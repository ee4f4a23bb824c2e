"""Monte Carlo ensembles of growth paths, stepped in one lockstep batch.

Each path's random stream is keyed by ``(master_seed, path_index)``
alone, so an ensemble's statistics are a pure function of its spec: it
comes out bit for bit the same whether it is simulated alone or in one
batch beside other ensembles on the same grid, and ensembles that share
a master seed draw their common streams once.  Pathwise log-growth
slopes come from running sums of the log-level and of its product with
time, plus prefix sums of the time grid up to each path's last step,
which lets the engine track a least-squares slope per path without
storing the paths.

The volatility masking scan runs one hyperbolic ensemble per noise
level with common random numbers, all in one batch, and feeds every
surviving path's trailing window to the trend barometer: rising noise
hides the super-exponential curvature, so the flagged fraction falls
even though the drift, and the eventual singularity, is unchanged.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .analysis import barometer
from .errors import DomainError
from .ode import DEFAULT_BLOWUP_THRESHOLD
from .sde import (StochasticModel, _Batch, _record_lattice, _simulate_paths,
                  _validate_grid, hyperbolic_sde_model)

__all__ = [
    "EnsembleSpec",
    "EnsembleStats",
    "MaskingPoint",
    "run_ensemble",
    "simulate_batch",
    "simulate_batches",
    "volatility_masking_scan",
]

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
        for name in ("n_paths", "master_seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths!r}")
        if self.master_seed < 0:
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


def _record_stride(n_steps: int, record_points: int | None) -> int | None:
    if record_points is None:
        return None
    if record_points < 1:
        raise DomainError(f"record_points must be >= 1, got {record_points!r}")
    return max(1, n_steps // record_points)


def simulate_batches(specs: Sequence[EnsembleSpec],
                     record_points: int | None = None) -> list[_Batch]:
    """Simulate every path of every spec in one lockstep batch.

    The specs must share ``A0``, ``dt``, ``t_end`` and ``threshold``;
    their models, path counts and master seeds may differ.  Returns one
    batch per spec, in order, each bit for bit what the spec gives
    alone, because every path's draws are fixed by ``(master_seed,
    path_index)``.  With ``record_points`` each level is also recorded
    every ``max(1, steps // record_points)`` steps and at the horizon,
    into ``series`` on the step grid ``rec_steps`` (``nan`` once a path
    has ended).
    """
    specs = list(specs)
    if not specs:
        raise DomainError("specs must not be empty")
    for spec in specs:
        spec.validate()
    head = specs[0]
    grid = (head.A0, head.dt, head.t_end, head.threshold)
    if any((s.A0, s.dt, s.t_end, s.threshold) != grid for s in specs):
        raise DomainError("specs in one batch must share A0, dt, t_end and threshold")
    n_steps = head.steps()
    groups = [(s.model, int(s.master_seed), int(s.n_paths)) for s in specs]
    return _simulate_paths(groups, head.A0, head.dt, n_steps, head.threshold,
                           record_stride=_record_stride(n_steps, record_points))


def simulate_batch(spec: EnsembleSpec, *,
                   record_points: int | None = None) -> _Batch:
    """Simulate every path of ``spec``; see :func:`simulate_batches`."""
    return simulate_batches([spec], record_points)[0]


def run_ensemble(spec: EnsembleSpec, workers: int = 1) -> EnsembleStats:
    """Simulate the ensemble and merge per-path outcomes into statistics.

    ``workers`` has no effect; it is accepted for compatibility.
    """
    batch = simulate_batch(spec)
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

    For each noise level the template ensemble is run with the
    hyperbolic model ``dA = k*A**2 dt + sigma*A**2 dW`` and the same
    master seed (common random numbers), all levels in one batch, and
    every path still alive at the horizon is tested: its trailing
    ``window`` recorded samples go through
    :func:`~blowuplab.analysis.barometer`.  Returned points follow the
    order of ``sigmas``; ``flagged_fraction`` is ``nan`` when no path
    survived to be analyzed.  Paths absorbed before the horizon have no
    complete log-trajectory to test; they are excluded from the
    fraction and counted in ``absorbed_fraction`` instead.  ``workers``
    has no effect; it is accepted for compatibility.
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
    n_steps = template.steps()
    n_samples = len(_record_lattice(n_steps, _record_stride(n_steps, record_points)))
    if n_samples < window:
        raise DomainError(
            f"recorded grid has {n_samples} samples, window needs {window}"
        )
    specs = [replace(template, model=hyperbolic_sde_model(k, sigma)) for sigma in levels]
    points: list[MaskingPoint] = []
    for sigma, spec, batch in zip(levels, specs, simulate_batches(specs, record_points)):
        live = np.flatnonzero(batch.alive)
        times = batch.rec_steps * spec.dt
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
