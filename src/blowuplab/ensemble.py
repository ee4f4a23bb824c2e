"""Monte Carlo ensembles of growth paths, stepped in one lockstep batch.

Each path's random stream is keyed by ``(master_seed, path_index)``
alone, so an ensemble's statistics are a pure function of its spec: it
comes out bit for bit the same whether it is simulated alone or in one
batch beside other ensembles on the same grid, and ensembles that share
a master seed draw their common streams once.  Every ensemble comes
back as one :class:`~blowuplab.sde.EnsembleStats`, optionally with its
paths recorded.  Pathwise log-growth slopes come from running sums of
the log-level and of its product with time, plus prefix sums of the
time grid up to each path's last step, which lets the engine track a
least-squares slope per path without storing the paths.

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
from .errors import DomainError, check_integer
from .ode import DEFAULT_BLOWUP_THRESHOLD
from .sde import (EnsembleStats, StochasticModel, _record_lattice, _simulate_paths,
                  _validate_grid, hyperbolic_sde_model)

__all__ = [
    "EnsembleSpec",
    "EnsembleStats",
    "MaskingPoint",
    "run_ensemble",
    "simulate_batches",
    "volatility_masking_scan",
]


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
        check_integer("n_paths", self.n_paths)
        check_integer("master_seed", self.master_seed)
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths!r}")
        if self.master_seed < 0:
            raise DomainError("master_seed must be nonnegative")
        self.steps()


def _record_stride(n_steps: int, record_points: int | None) -> int | None:
    if record_points is None:
        return None
    if check_integer("record_points", record_points) < 1:
        raise DomainError(f"record_points must be >= 1, got {record_points!r}")
    return max(1, n_steps // record_points)


def simulate_batches(specs: Sequence[EnsembleSpec],
                     record_points: int | None = None) -> list[EnsembleStats]:
    """Simulate every path of every spec in one lockstep batch.

    The specs must share ``A0``, ``dt``, ``t_end`` and ``threshold``;
    their models, path counts and master seeds may differ.  Returns the
    stats of each spec, in order, each bit for bit what the spec gives
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
    if check_integer("window", window) < 8:
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
