"""Running ensembles, and the volatility masking scan.

:func:`run_ensemble` simulates one
:class:`~blowuplab.sde.EnsembleSpec` with the lockstep batch kernel
:func:`~blowuplab.sde.simulate_batches`; :mod:`~blowuplab.sde` owns
the specs, the seeded per-path streams and the
:class:`~blowuplab.sde.EnsembleStats` that come back, so an ensemble's
statistics are a pure function of its spec.

The volatility masking scan runs one hyperbolic ensemble per noise
level with common random numbers, all in one batch, and feeds every
surviving path's trailing window to the trend barometer: rising noise
hides the super-exponential curvature, so the flagged fraction falls
even though the drift, and the eventual singularity, is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .analysis import barometer
from .errors import DomainError, check_array, check_integer
from .sde import EnsembleSpec, EnsembleStats, hyperbolic_sde_model, simulate_batches

__all__ = [
    "MaskingPoint",
    "run_ensemble",
    "volatility_masking_scan",
]


def run_ensemble(spec: EnsembleSpec, workers: int = 1) -> EnsembleStats:
    """Simulate the ensemble; see :func:`simulate_batches`.

    ``workers`` has no effect; it is accepted for compatibility.
    """
    return simulate_batches([spec])[0]


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
    check_integer("window", window, at_least=8)
    check_integer("record_points", record_points, at_least=window)
    levels = check_array("sigmas", sigmas, increasing=True).tolist()
    # with record_points >= window the grid is short only at stride 1
    n_samples = template.steps() + 1
    if n_samples < window:
        raise DomainError(
            f"recorded grid has {n_samples} samples, window needs {window}"
        )
    specs = [replace(template, model=hyperbolic_sde_model(k, sigma)) for sigma in levels]
    points: list[MaskingPoint] = []
    for sigma, spec, stats in zip(levels, specs, simulate_batches(specs, record_points)):
        live = np.flatnonzero(stats.survived)
        times = stats.rec_steps * spec.dt
        n_flagged = sum(int(barometer(times, stats.series[lane], window).flagged)
                        for lane in live)
        n_analyzed = int(live.size)
        fraction = (n_flagged / n_analyzed) if n_analyzed else math.nan
        points.append(MaskingPoint(
            sigma=sigma,
            n_paths=spec.n_paths,
            n_analyzed=n_analyzed,
            n_flagged=n_flagged,
            flagged_fraction=fraction,
            exploded_fraction=stats.exploded_fraction,
            absorbed_fraction=stats.absorbed_fraction,
        ))
    return points
