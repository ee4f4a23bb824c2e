"""Acceptance suite: the twelve delivery criteria, one test each.

Every test prints the measured numbers next to its frozen targets, so a
verbose run reads as a checklist.  Tolerances and runtime budgets are
part of the contract and are asserted, not just reported.
"""

import hashlib
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from blowuplab import (
    EnsembleSpec,
    IntegrationOptions,
    ScenarioParams,
    VectorField,
    barometer,
    calibrate_k,
    classify_growth_law,
    coupled_gdp_solution,
    em_path,
    ergodicity_check,
    estimate_blowup_time,
    exp_phase_solution,
    gbm_model,
    hyperbolic_sde_model,
    hyperbolic_solution,
    integrate,
    loglaw_solution,
    pathwise_growth_slope,
    phase1_duration,
    powerlaw_blowup_time,
    powerlaw_solution,
    run_ensemble,
    volatility_masking_scan,
)


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "blowuplab", *argv],
                          capture_output=True, text=True)


def scalar_field(fn):
    return VectorField(
        dimension=1,
        rate=lambda s: np.atleast_1d(np.asarray(fn(s[0]), dtype=float)),
        names=("A",))


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_criterion_01_headline_numbers(tmp_path):
    with Stopwatch() as clock:
        proc = run_cli("reproduce", "headline", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["t1"] == pytest.approx(9.968, abs=0.01)
    assert data["t2"] == pytest.approx(2.165, abs=0.01)
    assert data["k"] == pytest.approx(0.004620, abs=1e-5)
    assert data["t_s"] == pytest.approx(12.13, abs=0.02)
    print(f"criterion 1: t1={data['t1']:.6f} t2={data['t2']:.6f} "
          f"k={data['k']:.8f} t_s={data['t_s']:.6f} "
          f"[{clock.elapsed:.2f}s < 1s+startup]")
    assert clock.elapsed < 1.0 + 2.0  # interpreter startup is not the command


def test_criterion_02_deterministic_blowup_times():
    with Stopwatch() as slow_clock:
        slow = estimate_blowup_time(scalar_field(lambda a: 0.01 * a * a),
                                    [1.0], 150.0)
    with Stopwatch() as fast_clock:
        fast = estimate_blowup_time(scalar_field(lambda a: 0.05 * a * a),
                                    [1.0], 30.0)
    assert slow is not None and fast is not None
    assert slow.estimate == pytest.approx(100.0, abs=0.1)
    assert fast.estimate == pytest.approx(20.0, abs=0.05)
    print(f"criterion 2: k=0.01 -> {slow.estimate:.6f} (target 100±0.1), "
          f"k=0.05 -> {fast.estimate:.6f} (target 20±0.05) "
          f"[{slow_clock.elapsed:.2f}s, {fast_clock.elapsed:.2f}s < 1s each]")
    assert slow_clock.elapsed < 1.0 and fast_clock.elapsed < 1.0


def test_criterion_03_closed_form_oracle_agreement():
    R, I = 1.5872, 100.0
    k = calibrate_k(R, I)
    params = ScenarioParams(c=1.0, R=R, I=I)
    k1 = 0.05
    cases = [
        ("exponential", lambda a: k * I * a, 1.0,
         phase1_duration(R, I), lambda t: exp_phase_solution(params, t)),
        ("hyperbolic", lambda a: 0.01 * a * a, 1.0,
         100.0, lambda t: hyperbolic_solution(0.01, 1.0, t)),
        ("powerlaw n=1.5", lambda a: 0.5 * a ** 1.5, 1.0,
         4.0, lambda t: powerlaw_solution(0.5, 1.0, 1.5, t)),
        ("powerlaw n=3", lambda a: 0.5 * a ** 3, 1.0,
         1.0, lambda t: powerlaw_solution(0.5, 1.0, 3.0, t)),
        ("loglaw", lambda a: 0.5 * np.log(a) * a, math.e,
         3.0, lambda t: loglaw_solution(0.0, 0.5, t)),
        ("coupled", None, None, 20.0, None),
    ]
    worst = {}
    with Stopwatch() as clock:
        for name, rate, y0, t_ref, exact in cases:
            grid = np.linspace(0.0, 0.95 * t_ref, 20)
            if name == "coupled":
                field = VectorField(
                    2, lambda s: np.array([k1 * s[0] * s[1],
                                           2 * k1 * s[0] * s[1]]),
                    ("Y", "A"))
                traj = integrate(field, [0.5, 1.0], grid[-1],
                                 IntegrationOptions(), t_eval=grid)
                values = traj.states[:, 1]
                expected = np.array([coupled_gdp_solution(k1, float(t))
                                     for t in grid])
            else:
                traj = integrate(scalar_field(rate), [y0], grid[-1],
                                 IntegrationOptions(), t_eval=grid)
                values = traj.states[:, 0]
                expected = np.array([exact(float(t)) for t in grid])
            rel = np.max(np.abs(values - expected) / np.abs(expected))
            worst[name] = float(rel)
            assert rel <= 1e-6, (name, rel)
    readable = " ".join(f"{name}={err:.1e}" for name, err in worst.items())
    print(f"criterion 3: max rel errors {readable} (target <=1e-6) "
          f"[{clock.elapsed:.2f}s < 10s]")
    assert clock.elapsed < 10.0


def test_criterion_04_powerlaw_blowup_limits():
    with Stopwatch() as clock:
        grid = [1.0001, 1.5, 2.0, 3.0, 10.0, 100.0]
        times = [powerlaw_blowup_time(0.01, 100.0, n).t_star for n in grid]
    assert all(a > b for a, b in zip(times, times[1:]))
    span = math.log10(times[0] / times[-1])
    assert span >= 6.0
    print(f"criterion 4: t_star from {times[0]:.4g} down to {times[-1]:.4g}, "
          f"span {span:.1f} decades (target >=6, strictly decreasing) "
          f"[{clock.elapsed:.3f}s < 1s]")
    assert clock.elapsed < 1.0


def test_criterion_05_gbm_time_average_slope():
    with Stopwatch() as clock:
        model = gbm_model(0.0005, 100.0, 0.001)  # k*I = 0.05, sigma*I = 0.1
        path = em_path(model, 1.0, 0.01, 2000.0, seed=42, threshold=1e300)
        slope = pathwise_growth_slope(path)
    assert not path.exploded and not path.absorbed
    assert slope == pytest.approx(0.045, abs=0.01)
    print(f"criterion 5: fitted log-slope {slope:.6f} "
          f"(target 0.045±0.01, ensemble rate would be 0.05) "
          f"[{clock.elapsed:.2f}s < 30s]")
    assert clock.elapsed < 30.0


def test_criterion_06_stochastic_dispersion():
    with Stopwatch() as clock:
        spec = EnsembleSpec(model=hyperbolic_sde_model(0.05, 0.05), A0=1.0,
                            dt=0.01, t_end=200.0, n_paths=1000,
                            master_seed=42)
        stats = run_ensemble(spec, workers=4)
    # the paths themselves, pinned: 27 exploded, 971 absorbed and 2
    # survived.  The slopes are left out, because np.log may round
    # differently on another CPU; the kernel oracle tests cover them.
    digest = hashlib.sha256()
    for values in (stats.outcomes.astype("U8"), stats.event_times, stats.final_levels):
        digest.update(values.tobytes())
    assert digest.hexdigest() == \
        "38f63e77ab75dc3d7c079adfbee6f855f639e590c82c8eb79c780b9780e4427c"
    assert 0.0 < stats.exploded_fraction < 1.0
    iqr = stats.quantiles[75] - stats.quantiles[25]
    assert iqr >= 5.0
    print(f"criterion 6: exploded_fraction={stats.exploded_fraction:.3f} "
          f"(target in (0,1)), blow-up IQR={iqr:.2f} periods (target >=5) "
          f"[{clock.elapsed:.2f}s < 60s]")
    assert clock.elapsed < 60.0


def test_criterion_07_non_explosion_regime():
    with Stopwatch() as clock:
        spec = EnsembleSpec(model=hyperbolic_sde_model(0.01, 0.1), A0=1.0,
                            dt=0.01, t_end=200.0, n_paths=1000,
                            master_seed=42)
        stats = run_ensemble(spec, workers=4)
        deterministic = estimate_blowup_time(
            scalar_field(lambda a: 0.01 * a * a), [1.0], 150.0)
    survived = 1.0 - stats.exploded_fraction - stats.absorbed_fraction
    assert survived >= 0.10
    assert deterministic.estimate == pytest.approx(100.0, abs=0.1)
    print(f"criterion 7: survived fraction {survived:.3f} (target >=0.10) "
          f"while the noiseless system blows up at "
          f"{deterministic.estimate:.3f} [{clock.elapsed:.2f}s < 60s]")
    assert clock.elapsed < 60.0


def test_criterion_08_ergodicity_transform_check():
    with Stopwatch() as clock:
        # off-grid sign change keeps the pointwise comparison conditioned
        k, sigma = 0.04, 0.07
        clean = ergodicity_check(hyperbolic_sde_model(k, sigma))
        expected = (k - sigma ** 2 * clean.levels) / sigma
        pointwise = float(np.max(np.abs(clean.drift_of_u - expected)
                                 / np.abs(expected)))

        # the standard setting has a_u = 0 exactly at on-grid A = 20,
        # where pointwise relative error is undefined; measure normwise
        kp, sp = 0.05, 0.05
        paper = ergodicity_check(hyperbolic_sde_model(kp, sp))
        target = (kp - sp ** 2 * paper.levels) / sp
        normwise = float(np.max(np.abs(paper.drift_of_u - target))
                         / np.max(np.abs(target)))

        gbm = ergodicity_check(gbm_model(0.00462, 100.0, 0.001))
    assert pointwise <= 1e-4
    assert normwise <= 1e-4
    assert not clean.transform_exists and not paper.transform_exists
    assert gbm.transform_exists
    print(f"criterion 8: a_u rel error pointwise={pointwise:.2e} "
          f"normwise={normwise:.2e} (target <=1e-4); verdicts: "
          f"quadratic-noise none, gbm exists [{clock.elapsed:.3f}s < 1s]")
    assert clock.elapsed < 1.0


def test_criterion_09_classifier_corpus():
    corpus = [
        ("A^2", "finite-time", 1.0, 1.0),
        ("A^1.5", "finite-time", 2.0, 1.0),
        ("A", "infinite-time", None, 1.0),
        ("A^0.5", "infinite-time", None, 1.0),
        ("ln(A)*A", "infinite-time", None, math.e),
        ("A*ln(A)^2", "finite-time", None, math.e),
    ]
    simulator_rates = {
        "A^2": lambda a: a * a,
        "A^1.5": lambda a: a ** 1.5,
        "A": lambda a: a,
        "A^0.5": lambda a: np.sqrt(a),
        "ln(A)*A": lambda a: a * np.log(a),
        "A*ln(A)^2": lambda a: a * np.log(a) ** 2,
    }
    lines = []
    with Stopwatch() as clock:
        for law, expected, target, A0 in corpus:
            verdict = classify_growth_law(law, A0=A0)
            assert verdict.verdict == expected, law
            if target is not None:
                assert verdict.singularity_time_estimate == pytest.approx(
                    target, abs=1e-3), law

            opts = IntegrationOptions(blowup_tol=0.01) \
                if law == "A*ln(A)^2" else IntegrationOptions()
            event = estimate_blowup_time(scalar_field(simulator_rates[law]),
                                         [A0], 1e4, opts)
            if expected == "finite-time":
                assert event is not None, law
                rel = abs(verdict.singularity_time_estimate - event.estimate) \
                    / event.estimate
                assert rel <= 0.01, (law, rel)
                lines.append(f"{law}:finite({verdict.singularity_time_estimate:.4f},"
                             f" sim {event.estimate:.4f})")
            else:
                assert event is None, law
                lines.append(f"{law}:infinite(sim agrees)")
    print(f"criterion 9: {'; '.join(lines)} [{clock.elapsed:.2f}s < 30s]")
    assert clock.elapsed < 30.0


def test_criterion_10_barometer_discrimination():
    with Stopwatch() as clock:
        times = np.linspace(0.0, 50.0, 400)
        exponential = np.exp(0.05 * times)
        for window in (8, 16, 32, 64, 128, 200):
            assert not barometer(times, exponential, window).flagged, window

        # t_star = 100 here, so each of these end times is past t_star/2
        flagged_windows = 0
        for end in (55.0, 70.0, 85.0, 95.0):
            grid = np.linspace(0.0, end, 400)
            hyperbolic = 1.0 / (1.0 - 0.01 * grid)
            report = barometer(grid, hyperbolic, 64)
            assert report.flagged, end
            assert report.quadratic_coeff > 0.0
            flagged_windows += 1
    print(f"criterion 10: exponential unflagged at 6 window sizes; "
          f"hyperbolic flagged in {flagged_windows}/4 windows past t*/2 "
          f"[{clock.elapsed:.3f}s < 5s]")
    assert clock.elapsed < 5.0


def test_criterion_11_volatility_masking_trend():
    k = 0.01
    with Stopwatch() as clock:
        template = EnsembleSpec(model=None, A0=1.0, dt=0.01, t_end=80.0,
                                n_paths=300, master_seed=2718)
        points = volatility_masking_scan(
            k, [0.0, k, 2 * k, 5 * k, 10 * k], template,
            window=64, record_points=320, workers=4)
    fractions = [p.flagged_fraction for p in points]
    assert fractions[0] == 1.0
    inversions = [max(0.0, b - a) for a, b in zip(fractions, fractions[1:])]
    assert sum(1 for x in inversions if x > 0.0) <= 1
    assert max(inversions) <= 0.02
    readable = ", ".join(f"{p.sigma:g}:{p.flagged_fraction:.3f}"
                         for p in points)
    print(f"criterion 11: flagged fraction by sigma {readable} "
          f"(non-increasing, worst inversion {max(inversions):.4f} <= 0.02) "
          f"[{clock.elapsed:.2f}s < 120s]")
    assert clock.elapsed < 120.0


def test_criterion_12_determinism(tmp_path):
    with Stopwatch() as clock:
        argv = ("ensemble", "--model", "hyperbolic-sde", "--k", "0.05",
                "--sigma", "0.05", "--paths", "200", "--t-max", "50",
                "--seed", "42")
        first = run_cli(*argv, "--out", str(tmp_path / "a"))
        second = run_cli(*argv, "--out", str(tmp_path / "b"))
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        for name in ("ensemble_paths.csv", "ensemble_stats.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

        spec = EnsembleSpec(model=hyperbolic_sde_model(0.05, 0.05), A0=1.0,
                            dt=0.01, t_end=30.0, n_paths=700, master_seed=11)
        serial = run_ensemble(spec, workers=1)
        threaded = run_ensemble(spec, workers=8)
        assert serial.exploded_fraction == threaded.exploded_fraction
        assert serial.absorbed_fraction == threaded.absorbed_fraction
        assert np.array_equal(serial.blowup_times, threaded.blowup_times)
        assert serial.quantiles == threaded.quantiles
        assert np.array_equal(serial.slopes, threaded.slopes, equal_nan=True)
        assert np.array_equal(serial.event_times, threaded.event_times,
                              equal_nan=True)
    print(f"criterion 12: seeded CLI rerun byte-identical "
          f"(csv+json+stdout); serial == 8-thread ensemble "
          f"[{clock.elapsed:.2f}s < 60s]")
    assert clock.elapsed < 60.0
