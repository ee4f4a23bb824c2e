"""The four benchmark workloads: inputs from a seed, one pass, output checks.

Each workload builds its inputs from the workload seed alone, then runs
a fixed list of ops per pass.  An op is one call into the package's
public API; the benchmark times it, and afterwards, outside the timed
interval, checks its output.  Every workload names a *core* op and a
*side* op; the end-to-end metrics ``core_ms_p50`` and ``side_ms_p50``
are their median latencies:

=================  ==============================  =========================
workload           core op                         side op
=================  ==============================  =========================
ensemble-lockstep  ``run_ensemble(workers=2)``     ``run_ensemble(workers=1)``
recorded-paths     ``volatility_masking_scan``     ``cli.main reproduce fig3``
single-path        ``em_path``                     ``ergodicity_check``
blowup-corpus      ``estimate_blowup_time``        ``classify_growth_law``
=================  ==============================  =========================

Seeds vary coefficients and random streams, never the shape of the
work: grid sizes, path counts and the exponents of the power laws are
fixed, so the cost of a pass does not depend on the seed.  Times are
rescaled by a reference loop; see ``reference_seconds``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import shutil
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from tracer import Tracer

WORKERS = 2
# Ensembles whose lanes nearly all die early keep the master seed of the
# acceptance criteria.  The lockstep kernel steps each chunk of paths
# until its longest-lived lane ends, so the work in such an ensemble
# varies with the master seed: over 40 seeds of criterion 6's ensemble
# the computed lane-steps spread by 24% between quartiles, wider than
# any useful regression bound.  The seed-driven inputs elsewhere keep
# their lanes alive to the horizon, so their work does not vary.
DYING_LANES_SEED = 42


def load_library(src: Path) -> SimpleNamespace:
    """Import the package from ``src`` and nowhere else."""
    if not (src / "blowuplab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no package source under {src}")
    sys.path.insert(0, str(src))
    import blowuplab
    from blowuplab import analysis, cli, closedform, dsl, ensemble, ode, sde

    where = Path(blowuplab.__file__).resolve().parent
    if where != (src / "blowuplab").resolve():
        raise ImportError(f"blowuplab was imported from {where}, not {src}")
    return SimpleNamespace(analysis=analysis, cli=cli, closedform=closedform,
                           dsl=dsl, ensemble=ensemble, ode=ode, sde=sde)


# --------------------------------------------------------------------------
# one pass


# A shared virtual machine changes speed by up to 2x over seconds to
# minutes, as other tenants come and go; the constants below come from a
# 2-vCPU Intel Xeon virtual machine that does.  So every op is timed
# between two measurements of a fixed reference loop, and its time is
# rescaled to a machine on which that loop takes REFERENCE_S.  The loop
# mixes interpreter work with small numpy operations, the two costs that
# dominate every workload here; a measurement is the median of three
# runs of it, which discards a run hit by a millisecond-long stall.  An
# op on two worker threads is measured against the loop run on two
# threads at once, which also feels the contention for the interpreter
# lock; REFERENCE_S for two threads is 2.8 times the one-thread value,
# the ratio measured on that machine.
REFERENCE_S = {1: 0.0035, 2: 0.0098}
_REFERENCE_LEVELS = np.linspace(0.5, 1.5, 512)


def _reference_once() -> None:
    a = _REFERENCE_LEVELS
    for _ in range(150):
        a = np.where(a > 0.0, a * 1.0000001, a) + 0.0
    total = 0
    for i in range(30_000):
        total += i * i


def _reference_run(threads: int) -> float:
    start = time.perf_counter()
    if threads == 1:
        _reference_once()
    else:
        workers = [threading.Thread(target=_reference_once) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    return time.perf_counter() - start


def reference_seconds(threads: int = 1) -> float:
    return statistics.median(_reference_run(threads) for _ in range(3))


@dataclass
class Op:
    label: str
    kind: str | None
    threads: int
    seconds: float
    reference_before: float
    reference_after: float = 0.0
    problem: str | None = None

    @property
    def scaled(self) -> float:
        """Seconds on the reference machine."""
        mean = 0.5 * (self.reference_before + self.reference_after)
        return self.seconds * REFERENCE_S[self.threads] / mean


@dataclass
class Pass:
    """Times the ops of one pass and records failed output checks."""

    tracer: Tracer | None = None
    ops: list[Op] = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    def run(self, label: str, fn: Callable, *, kind: str | None = None,
            threads: int = 1, check: Callable | None = None):
        scope = self.tracer.open("op:" + label) if self.tracer else contextlib.nullcontext()
        reference = reference_seconds(threads)
        if self.ops:
            last = self.ops[-1]
            last.reference_after = reference if last.threads == threads \
                else reference_seconds(last.threads)
        start = time.perf_counter()
        try:
            with scope:
                result = fn()
        except Exception as exc:  # a raising op is a failed op, not a crash
            self.ops.append(Op(label, kind, threads, time.perf_counter() - start,
                               reference, problem=f"raised {exc!r}"))
            traceback.print_exc()
            return None
        op = Op(label, kind, threads, time.perf_counter() - start, reference)
        self.ops.append(op)
        if check is not None:
            try:
                op.problem = check(result)
            except Exception as exc:  # a check that cannot run fails the op
                op.problem = f"check raised {exc!r}"
        return result

    def close(self) -> None:
        """Measure the reference after the last op."""
        if self.ops:
            self.ops[-1].reference_after = reference_seconds(self.ops[-1].threads)

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def scaled(self) -> float:
        return sum(op.scaled for op in self.ops)

    def failures(self) -> list[str]:
        return [f"{op.label}: {op.problem}" for op in self.ops if op.problem]


def median_ms(passes: list[Pass], kind: str, scaled: bool = True) -> float:
    return 1e3 * statistics.median(op.scaled if scaled else op.seconds
                                   for p in passes for op in p.ops if op.kind == kind)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _first_or_same(store: dict, key, value, what: str) -> str | None:
    """Record ``value`` the first time; later passes must reproduce it."""
    if key not in store:
        store[key] = value
        return None
    return None if store[key] == value else f"{what} differs from the first pass"


def _quiet_main(lib, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return lib.cli.main(argv)


def _live_steps(event_times: np.ndarray, dt: float, n_steps: int) -> int:
    """Lane-steps taken while each path was alive, from its event time."""
    ended = np.isfinite(event_times)
    return int(np.rint(event_times[ended] / dt).sum()) + n_steps * int((~ended).sum())


class Workload:
    name = ""

    def __init__(self, lib: SimpleNamespace, seed: int, scratch: Path):
        self.lib = lib
        self.scratch = scratch
        self.reference: dict = {}

    def warmup(self) -> None:
        raise NotImplementedError

    def run_pass(self, p: Pass, tracer: Tracer | None) -> None:
        raise NotImplementedError

    def report(self, passes: list[Pass]) -> list[tuple[str, float, str]]:
        """Workload-specific figures printed next to the metrics."""
        return []

    def layer_facts(self, plain: list[Pass], traced: list[Pass]) -> dict:
        """Per-layer numbers that come from outputs rather than spans."""
        return {}


# --------------------------------------------------------------------------
# ensemble-lockstep


class EnsembleLockstep(Workload):
    """Criterion 6's ensemble: 1000 hyperbolic paths, most absorbed early."""

    name = "ensemble-lockstep"

    def __init__(self, lib, seed, scratch):
        super().__init__(lib, seed, scratch)
        self.spec = lib.ensemble.EnsembleSpec(
            model=lib.sde.hyperbolic_sde_model(0.05, 0.05), A0=1.0, dt=0.01,
            t_end=200.0, n_paths=1000, master_seed=DYING_LANES_SEED)

    def warmup(self) -> None:
        small = replace(self.spec, n_paths=16, t_end=2.0)
        self.lib.ensemble.run_ensemble(small, workers=WORKERS)

    def run_pass(self, p: Pass, tracer: Tracer | None) -> None:
        ens = self.lib.ensemble
        spec = self.spec if tracer is None else replace(self.spec, model=tracer.model(self.spec.model))
        threaded = p.run("run_ensemble workers=2",
                         lambda: ens.run_ensemble(spec, workers=WORKERS),
                         kind="core", threads=WORKERS, check=self._check_threaded)
        p.run("run_ensemble workers=1", lambda: ens.run_ensemble(spec, workers=1),
              kind="side", check=lambda s: self._check_serial(s, threaded))
        if threaded is not None:
            p.facts["stats"] = threaded

    def _check_threaded(self, stats) -> str | None:
        counts = self._counts(stats)
        if sum(counts.values()) != self.spec.n_paths or counts["exploded"] == 0:
            return f"outcome counts {counts} do not cover {self.spec.n_paths} paths"
        return _first_or_same(self.reference, "stats", self._fingerprint(stats),
                              "ensemble statistics")

    def _check_serial(self, serial, threaded) -> str | None:
        if threaded is None:
            return "no workers=2 result to compare with"
        if self._fingerprint(serial) != self._fingerprint(threaded):
            return "workers=1 and workers=2 results differ"
        return None

    @staticmethod
    def _fingerprint(stats) -> str:
        return _digest(stats.outcomes.astype("U8"), stats.slopes, stats.event_times,
                       stats.final_levels)

    @staticmethod
    def _counts(stats) -> dict:
        return {o: int(np.count_nonzero(stats.outcomes == o))
                for o in ("exploded", "absorbed", "survived")}

    def report(self, passes):
        stats = next(p.facts["stats"] for p in passes if "stats" in p.facts)
        path_steps = self.spec.n_paths * self.spec.steps()
        counts = self._counts(stats)
        return [
            ("path_steps_per_s", 1e3 * path_steps / median_ms(passes, "core"), "1/s"),
            ("ensemble.exploded", counts["exploded"], "count"),
            ("ensemble.absorbed", counts["absorbed"], "count"),
            ("ensemble.survived", counts["survived"], "count"),
        ]

    def layer_facts(self, plain, traced):
        stats = next(p.facts["stats"] for p in traced if "stats" in p.facts)
        live = _live_steps(stats.event_times, self.spec.dt, self.spec.steps())
        # both ensemble ops of a pass step the same lanes
        return {"sde.live_lane_steps": 2 * live, **{
            f"ensemble.{k}": v for k, v in self._counts(stats).items()}}


# --------------------------------------------------------------------------
# recorded-paths


SCAN_K = 0.01
SCAN_SIGMAS = tuple(SCAN_K * m for m in (0.0, 1.0, 2.0, 5.0, 10.0))
CLI_TARGETS = ("headline", "fig1", "fig2", "fig3")
FIG3_PATHS = 100
FIG3_T_END = 200.0


class RecordedPaths(Workload):
    """Criterion 11's masking scan plus the ``reproduce`` CLI targets."""

    name = "recorded-paths"

    def __init__(self, lib, seed, scratch):
        super().__init__(lib, seed, scratch)
        rng = random.Random(seed)
        self.template = lib.ensemble.EnsembleSpec(
            model=None, A0=1.0, dt=0.01, t_end=80.0, n_paths=300,
            master_seed=rng.randrange(2 ** 32))
        self.cli_seed = DYING_LANES_SEED
        self.pass_index = 0

    def _scan(self, template, record_points=320):
        return self.lib.ensemble.volatility_masking_scan(
            SCAN_K, SCAN_SIGMAS, template, window=64,
            record_points=record_points, workers=WORKERS)

    def warmup(self) -> None:
        self._scan(replace(self.template, n_paths=8, t_end=2.0), record_points=64)

    def run_pass(self, p: Pass, tracer: Tracer | None) -> None:
        points = p.run("volatility_masking_scan", lambda: self._scan(self.template),
                       kind="core", check=self._check_scan)
        if points is not None:
            p.facts["points"] = points
        out = self.scratch / f"pass{self.pass_index}"
        self.pass_index += 1
        written = 0
        for target in CLI_TARGETS:
            where = out / target
            argv = ["reproduce", target, "--seed", str(self.cli_seed), "--out", str(where)]
            p.run(f"reproduce {target}", lambda: _quiet_main(self.lib, argv),
                  kind="side" if target == "fig3" else None,
                  check=lambda rc, t=target, w=where: self._check_cli(t, w, rc))
            written += sum(f.stat().st_size for f in where.glob("*") if f.is_file())
        p.facts["bytes_written"] = written
        shutil.rmtree(out, ignore_errors=True)

    def _check_scan(self, points) -> str | None:
        fractions = [pt.flagged_fraction for pt in points]
        if fractions[0] != 1.0:
            return f"noiseless paths flagged at {fractions[0]!r}, expected 1.0"
        # criterion 11 allows one rise of at most 0.02 in the flagged
        # fraction, a margin fitted to its pinned seed; over arbitrary
        # seeds the plateau at high noise rises by more about one seed in
        # twelve, so a rise is a failure only beyond three standard errors
        # of the difference of two binomial fractions
        for a, b in zip(points, points[1:]):
            fa, fb = a.flagged_fraction, b.flagged_fraction
            se = math.sqrt(fa * (1 - fa) / a.n_analyzed + fb * (1 - fb) / b.n_analyzed)
            if fb - fa > 3.0 * se:
                return f"flagged fraction rises from {fa:.3f} to {fb:.3f} at sigma={b.sigma:g}"
        if not fractions[-1] < fractions[0]:
            return "noise does not mask the curvature"
        return _first_or_same(self.reference, "scan", repr(points), "scan result")

    def _check_cli(self, target: str, where: Path, rc: int) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        files = sorted(f for f in where.glob("*") if f.is_file())
        if not files:
            return "wrote no files"
        digest = hashlib.sha256(b"".join(f.name.encode() + f.read_bytes() for f in files)).hexdigest()
        return _first_or_same(self.reference, target, digest, "output files")

    def _rule_11(self, points) -> bool:
        fractions = [pt.flagged_fraction for pt in points]
        rises = [max(0.0, b - a) for a, b in zip(fractions, fractions[1:])]
        return fractions[0] == 1.0 and sum(r > 0 for r in rises) <= 1 and max(rises) <= 0.02

    def report(self, passes):
        points = next(p.facts["points"] for p in passes if "points" in p.facts)
        path_steps = len(SCAN_SIGMAS) * self.template.n_paths * self.template.steps()
        return [
            ("path_steps_per_s", 1e3 * path_steps / median_ms(passes, "core"), "1/s"),
            ("analysis.flagged_fractions", [round(pt.flagged_fraction, 4) for pt in points], "1"),
            ("criterion_11_margin_met", int(self._rule_11(points)), "bool"),
            ("cli.bytes_written", passes[0].facts["bytes_written"], "B"),
        ]

    def layer_facts(self, plain, traced):
        lib = self.lib
        points = next(p.facts["points"] for p in traced if "points" in p.facts)
        # the scan reports only fractions; its lanes' event times come
        # from rerunning each noise level, which draws the same paths
        live = 0
        for sigma in SCAN_SIGMAS:
            spec = replace(self.template, model=lib.sde.hyperbolic_sde_model(SCAN_K, sigma))
            live += _live_steps(lib.ensemble.run_ensemble(spec, workers=WORKERS).event_times,
                                spec.dt, spec.steps())
        for k, sigma in lib.cli._FIG3_SETTINGS:
            spec = lib.ensemble.EnsembleSpec(
                model=lib.sde.hyperbolic_sde_model(k, sigma), A0=1.0, dt=0.01,
                t_end=FIG3_T_END, n_paths=FIG3_PATHS, master_seed=self.cli_seed)
            live += _live_steps(lib.ensemble.run_ensemble(spec, workers=WORKERS).event_times,
                                spec.dt, spec.steps())
        n = self.template.n_paths
        return {
            "sde.live_lane_steps": live,
            "ensemble.exploded": sum(round(pt.exploded_fraction * n) for pt in points),
            "ensemble.absorbed": sum(round(pt.absorbed_fraction * n) for pt in points),
            "ensemble.survived": sum(n - round(pt.exploded_fraction * n)
                                     - round(pt.absorbed_fraction * n) for pt in points),
            "cli.bytes_written": traced[0].facts["bytes_written"],
        }


# --------------------------------------------------------------------------
# single-path


GBM = (0.0005, 100.0, 0.001)
SINGLE_PATHS = 4
SINGLE_T_END = 200.0
SINGLE_DT = 0.01
ERGODICITY_REPEATS = 4


class SinglePath(Workload):
    """Criterion 5's GBM path (shortened) and criterion 8's ergodicity checks."""

    name = "single-path"

    def __init__(self, lib, seed, scratch):
        super().__init__(lib, seed, scratch)
        rng = random.Random(seed)
        master = rng.randrange(2 ** 32)
        self.seeds = [(master, i) for i in range(SINGLE_PATHS)]
        self.model = lib.sde.gbm_model(*GBM)
        self.expected_slope = lib.sde.gbm_time_average_exponent(*GBM)
        hyp = lib.sde.hyperbolic_sde_model
        self.ergodicity_cases = (
            ("hyperbolic k=0.04", hyp(0.04, 0.07), (0.04, 0.07), False, "pointwise"),
            ("hyperbolic k=0.05", hyp(0.05, 0.05), (0.05, 0.05), False, "normwise"),
            ("gbm", lib.sde.gbm_model(0.00462, 100.0, 0.001), None, True, None),
        )

    def warmup(self) -> None:
        self.lib.sde.em_path(self.model, 1.0, SINGLE_DT, 2.0, seed=self.seeds[0],
                             threshold=1e300)

    def run_pass(self, p: Pass, tracer: Tracer | None) -> None:
        sde = self.lib.sde
        model = self.model if tracer is None else tracer.model(self.model)
        n_steps = int(round(SINGLE_T_END / SINGLE_DT))
        for seed in self.seeds:
            path = p.run(f"em_path {seed[1]}",
                         lambda: sde.em_path(model, 1.0, SINGLE_DT, SINGLE_T_END,
                                             seed=seed, threshold=1e300),
                         kind="core", check=lambda r, s=seed: self._check_path(r, s, n_steps))
            if path is None:
                continue
            p.run(f"pathwise_growth_slope {seed[1]}",
                  lambda: sde.pathwise_growth_slope(path),
                  check=lambda slope, path=path: self._check_slope(slope, path))
        # a check takes about a millisecond; repeats give the median more
        # samples
        for _ in range(ERGODICITY_REPEATS):
            for label, model_, coeffs, exists, measure in self.ergodicity_cases:
                p.run(f"ergodicity_check {label}", lambda m=model_: sde.ergodicity_check(m),
                      kind="side",
                      check=lambda r, c=coeffs, e=exists, m=measure: self._check_ergodicity(r, c, e, m))

    def _check_path(self, path, seed, n_steps) -> str | None:
        if path.exploded or path.absorbed:
            return "GBM path exploded or was absorbed"
        if len(path.values) != n_steps + 1 or not np.all(path.values > 0.0):
            return f"recorded {len(path.values)} samples, expected {n_steps + 1} positive"
        return _first_or_same(self.reference, seed, _digest(path.times, path.values), "path")

    def _check_slope(self, slope: float, path) -> str | None:
        # independent least squares on the same samples
        t = path.times - path.times.mean()
        y = np.log(path.values)
        reference = float(np.dot(t, y - y.mean()) / np.dot(t, t))
        if not math.isclose(slope, reference, rel_tol=1e-9, abs_tol=1e-12):
            return f"slope {slope!r} differs from least squares {reference!r}"
        # six standard deviations of a 200-period Brownian slope at vol 0.1
        if abs(slope - self.expected_slope) > 0.05:
            return f"slope {slope:.4f} far from the time-average rate {self.expected_slope:.4f}"
        return None

    @staticmethod
    def _check_ergodicity(report, coeffs, exists, measure) -> str | None:
        if report.transform_exists != exists:
            return f"transform_exists={report.transform_exists}, expected {exists}"
        if coeffs is None:
            return None
        k, sigma = coeffs
        expected = (k - sigma ** 2 * report.levels) / sigma
        error = np.abs(report.drift_of_u - expected)
        if measure == "pointwise":
            worst = float(np.max(error / np.abs(expected)))
        else:
            worst = float(np.max(error) / np.max(np.abs(expected)))
        return None if worst <= 1e-4 else f"{measure} drift error {worst:.2e} > 1e-4"

    def report(self, passes):
        n_steps = int(round(SINGLE_T_END / SINGLE_DT))
        return [("path_steps_per_s", 1e3 * n_steps / median_ms(passes, "core"), "1/s")]

    def layer_facts(self, plain, traced):
        return {"sde.live_lane_steps": SINGLE_PATHS * int(round(SINGLE_T_END / SINGLE_DT))}


# --------------------------------------------------------------------------
# blowup-corpus


# The exponents are fixed and the seed sets only the coefficients, whose
# scale leaves the integrator's step sequence and so the cost of a pass
# unchanged.  Below n = 1.1 the classifier's exponent margin makes it
# inconclusive by design.  Six of the eight laws have n >= 1.5 and need
# about 2000 rate evaluations each, so the median estimate falls among
# them rather than between two cost clusters.
POWER_EXPONENTS = (1.1, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 3.0)
CLASSIFY_REPEATS = 3
FINITE, INFINITE = "finite-time", "infinite-time"


@dataclass
class Law:
    name: str
    source: str            # DSL system
    params: dict
    rate: Callable         # hand-written rate of the same system
    y0: list
    t_end: float
    t_star: float | None   # closed-form blow-up time, None for controls
    opts: object = None    # IntegrationOptions for the estimate
    estimate_rtol: float = 1e-3
    grid: np.ndarray | None = None   # integrate() check points
    exact: Callable | None = None    # closed-form level on the grid
    component: int = 0
    law: str | None = None           # one-dimensional rate for the classifier
    label: str | None = None


class BlowupCorpus(Workload):
    """Blow-up estimation, integration and classification over a law corpus."""

    name = "blowup-corpus"

    def __init__(self, lib, seed, scratch):
        super().__init__(lib, seed, scratch)
        cf = lib.closedform
        rng = random.Random(seed)
        laws = []
        for n in POWER_EXPONENTS:
            k = 10.0 ** rng.uniform(-2.0, -1.0)
            t_star = cf.powerlaw_blowup_time(k, 1.0, n).t_star
            # integrate() stops at its 1e9 threshold, so the checked grid
            # ends where the level is 1e4 (or at 0.95 t_star, if sooner)
            grid_end = min(0.95, 1.0 - 1e4 ** (1.0 - n)) * t_star
            laws.append(Law(
                name=f"{k:.4g}*A^{n:.4f}", source="dA = k*A^n", params={"k": k, "n": n},
                rate=lambda y, k=k, n=n: np.array([k * y[0] ** n]),
                y0=[1.0], t_end=1.5 * t_star, t_star=t_star,
                grid=np.linspace(0.0, grid_end, 20),
                exact=lambda t, k=k, n=n: cf.powerlaw_solution(k, 1.0, n, t),
                law="k*A^n", label=FINITE))
        # the log-type laws scale their horizon and tolerance with the
        # coefficient, so every seed poses the same problem in rescaled time
        c = rng.uniform(0.5, 2.0)
        laws.append(Law(
            name=f"{c:.4g}*A*ln(A)^2", source="dA = c*A*ln(A)^2", params={"c": c},
            rate=lambda y, c=c: np.array([c * y[0] * np.log(y[0]) ** 2]),
            y0=[math.e], t_end=1e4 / c, t_star=1.0 / c,
            opts=lib.ode.IntegrationOptions(blowup_tol=0.01 / c), estimate_rtol=0.01,
            law="c*A*ln(A)^2", label=FINITE))
        c = rng.uniform(0.5, 2.0)
        laws.append(Law(
            name=f"{c:.4g}*A", source="dA = c*A", params={"c": c},
            rate=lambda y, c=c: np.array([c * y[0]]),
            y0=[1.0], t_end=1e4 / c, t_star=None, law="c*A", label=INFINITE))
        c = rng.uniform(0.5, 2.0)
        laws.append(Law(
            name=f"{c:.4g}*A*ln(A)", source="dA = c*A*ln(A)", params={"c": c},
            rate=lambda y, c=c: np.array([c * y[0] * np.log(y[0])]),
            y0=[math.e], t_end=1e4 / c, t_star=None, law="c*A*ln(A)", label=INFINITE))
        k1 = rng.uniform(0.02, 0.1)
        k2 = k1 * rng.uniform(1.5, 3.0)
        laws.append(Law(
            name=f"coupled k1={k1:.4g}", source="dY = k1*Y*A; dA = k2*Y*A",
            params={"k1": k1, "k2": k2},
            rate=lambda y, k1=k1, k2=k2: np.array([k1 * y[0] * y[1], k2 * y[0] * y[1]]),
            y0=[k1 / k2, 1.0], t_end=1.5 / k1, t_star=1.0 / k1,
            grid=np.linspace(0.0, 0.95 / k1, 20),
            exact=lambda t, k1=k1: cf.coupled_gdp_solution(k1, t), component=1))
        self.laws = laws
        self.max_rel_err = 0.0

    def _lambda_field(self, law: Law, tracer: Tracer | None):
        rate = law.rate if tracer is None else tracer.wrap("ode.rate", law.rate)
        return self.lib.ode.VectorField(len(law.y0), rate)

    def warmup(self) -> None:
        law = self.laws[3]
        self.lib.ode.estimate_blowup_time(self._lambda_field(law, None), law.y0, law.t_end)
        self.lib.dsl.to_field(self.lib.dsl.parse(law.source), law.params)

    def run_pass(self, p: Pass, tracer: Tracer | None) -> None:
        lib = self.lib
        estimates: dict[tuple[str, str], Op] = {}
        p.facts["estimates"] = estimates
        for law in self.laws:
            dsl_field = p.run(f"to_field {law.name}",
                              lambda: lib.dsl.to_field(lib.dsl.parse(law.source), law.params))
            fields = [("lambda", self._lambda_field(law, tracer))]
            if dsl_field is not None:
                fields.append(("dsl", dsl_field))
            for how, vf in fields:
                label = f"estimate {how} {law.name}"
                p.run(label, lambda: lib.ode.estimate_blowup_time(vf, law.y0, law.t_end, law.opts),
                      kind="core", check=lambda ev, law=law: self._check_estimate(law, ev))
                estimates[(how, law.name)] = p.ops[-1]
                if law.grid is not None:
                    p.run(f"integrate {how} {law.name}",
                          lambda: lib.ode.integrate(vf, law.y0, float(law.grid[-1]), t_eval=law.grid),
                          check=lambda tr, law=law: self._check_trajectory(law, tr))
            # a classification takes about a millisecond; repeats give the
            # median more samples
            for _ in range(CLASSIFY_REPEATS if law.law is not None else 0):
                p.run(f"classify {law.name}",
                      lambda: lib.analysis.classify_growth_law(law.law, A0=law.y0[0],
                                                               parameters=law.params),
                      kind="side", check=lambda v, law=law: self._check_verdict(law, v))

    def _check_estimate(self, law: Law, event) -> str | None:
        if law.t_star is None:
            return None if event is None else f"control blew up at {event.estimate!r}"
        if event is None:
            return "no blow-up found"
        rel = abs(event.estimate - law.t_star) / law.t_star
        if law.opts is None:
            self.max_rel_err = max(self.max_rel_err, rel)
        return None if rel <= law.estimate_rtol else f"estimate off by {rel:.2e} relative"

    def _check_trajectory(self, law: Law, trajectory) -> str | None:
        if trajectory.blowup is not None or len(trajectory.times) != len(law.grid):
            return "trajectory ended before the last requested time"
        expected = np.array([law.exact(float(t)) for t in law.grid])
        rel = float(np.max(np.abs(trajectory.states[:, law.component] - expected) / expected))
        self.max_rel_err = max(self.max_rel_err, rel)
        return None if rel <= 1e-6 else f"level off by {rel:.2e} relative"

    def _check_verdict(self, law: Law, verdict) -> str | None:
        if verdict.verdict != law.label:
            return f"verdict {verdict.verdict!r}, expected {law.label!r}"
        if law.label == FINITE:
            rel = abs(verdict.singularity_time_estimate - law.t_star) / law.t_star
            if rel > 0.01:
                return f"singularity time off by {rel:.2e} relative"
        return None

    def report(self, passes):
        return [
            ("blowup_ms_p50", median_ms(passes, "core"), "ms"),
            ("classify_ms_p50", median_ms(passes, "side"), "ms"),
        ]

    def _field_over_lambda(self, passes: list[Pass]) -> float:
        ratios = []
        for law in self.laws:
            lam = [p.facts["estimates"][("lambda", law.name)].scaled for p in passes]
            dsl = [p.facts["estimates"][("dsl", law.name)].scaled for p in passes
                   if ("dsl", law.name) in p.facts["estimates"]]
            if dsl:
                ratios.append(statistics.median(dsl) / statistics.median(lam))
        return statistics.median(ratios)

    def layer_facts(self, plain, traced):
        return {"ode.max_rel_err": self.max_rel_err,
                "dsl.field_over_lambda": self._field_over_lambda(plain)}


WORKLOADS = {w.name: w for w in (EnsembleLockstep, RecordedPaths, SinglePath, BlowupCorpus)}
