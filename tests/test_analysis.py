import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowuplab import (
    FINITE_TIME,
    INFINITE_TIME,
    DomainError,
    InsufficientDataError,
    IntegrationOptions,
    VectorField,
    barometer,
    calibrate_k,
    classify_growth_law,
    compose_phases,
    estimate_blowup_time,
    phase1_duration,
    total_singularity_time,
)

E = math.e


def scalar_field(fn):
    return VectorField(
        dimension=1,
        rate=lambda s: np.atleast_1d(np.asarray(fn(s[0]), dtype=float)),
        names=("A",))


class TestClassifierVerdicts:
    # classifying from A0 = e keeps ln(A) positive from the start
    @pytest.mark.parametrize("law,expected", [
        ("A^0.5", INFINITE_TIME),
        ("A", INFINITE_TIME),
        ("A^1.5", FINITE_TIME),
        ("A^2", FINITE_TIME),
        ("A^3", FINITE_TIME),
        ("ln(A)*A", INFINITE_TIME),
        ("A*ln(A)^2", FINITE_TIME),
        ("A*(1+ln(A))", INFINITE_TIME),
    ])
    def test_corpus_verdict(self, law, expected):
        verdict = classify_growth_law(law, A0=E)
        assert verdict.verdict == expected
        if expected == FINITE_TIME:
            assert verdict.singularity_time_estimate > 0.0
        else:
            assert verdict.singularity_time_estimate is None

    @pytest.mark.parametrize("law,exact,rel", [
        ("A^1.5", 2.0 / math.sqrt(E), 1e-6),  # integral of A^-1.5 from e
        ("A^2", 1.0 / E, 1e-6),
        ("A^3", 1.0 / (2.0 * E * E), 1e-6),
        ("A*ln(A)^2", 1.0, 1e-3),             # integral of 1/(A ln^2 A) from e
    ])
    def test_estimate_matches_exact_integral(self, law, exact, rel):
        verdict = classify_growth_law(law, A0=E)
        assert verdict.singularity_time_estimate == pytest.approx(exact, rel=rel)

    def test_documented_examples(self):
        assert classify_growth_law("A^2").singularity_time_estimate == \
            pytest.approx(1.0, abs=1e-3)
        assert classify_growth_law("A^1.5").singularity_time_estimate == \
            pytest.approx(2.0, abs=1e-3)

    @pytest.mark.parametrize("law,power", [
        ("A", 1.0), ("A^2", 2.0), ("A^3", 3.0),
    ])
    def test_tail_exponent(self, law, power):
        assert classify_growth_law(law, A0=E).tail_exponent == \
            pytest.approx(power, abs=0.01)

    @pytest.mark.parametrize("law,fn,opts", [
        ("A^1.5", lambda a: a ** 1.5, None),
        ("A^2", lambda a: a * a, None),
        ("A^3", lambda a: a ** 3, None),
        # the slow log-squared approach to the pole needs a loose bracket
        ("A*ln(A)^2", lambda a: a * np.log(a) ** 2,
         IntegrationOptions(blowup_tol=0.01)),
    ])
    def test_agrees_with_the_simulator(self, law, fn, opts):
        verdict = classify_growth_law(law, A0=E)
        event = estimate_blowup_time(scalar_field(fn), [E], 1e4,
                                     opts or IntegrationOptions())
        assert event is not None
        rel = abs(verdict.singularity_time_estimate - event.estimate) / event.estimate
        assert rel <= 0.01

    @given(st.floats(min_value=0.5, max_value=20.0))
    def test_scaling_the_rate_divides_the_time(self, c):
        verdict = classify_growth_law(f"{c!r}*A^2")
        assert verdict.verdict == FINITE_TIME
        assert verdict.singularity_time_estimate == pytest.approx(1.0 / c,
                                                                  rel=1e-6)

    def test_callable_law(self):
        verdict = classify_growth_law(lambda a: a * a)
        assert verdict.verdict == FINITE_TIME
        assert verdict.singularity_time_estimate == pytest.approx(1.0, rel=1e-6)

    def test_parameter_binding(self):
        verdict = classify_growth_law("k*A^2", parameters={"k": 0.01})
        assert verdict.singularity_time_estimate == pytest.approx(100.0,
                                                                  rel=1e-6)

    def test_evidence_carries_both_methods(self):
        verdict = classify_growth_law("A^2")
        assert set(verdict.evidence) >= {"quadrature", "tail_exponent"}
        assert verdict.evidence["quadrature"].verdict == FINITE_TIME
        assert verdict.evidence["tail_exponent"].verdict == FINITE_TIME

    def test_rejects_rate_vanishing_at_start(self):
        with pytest.raises(DomainError, match="level 1.0"):
            classify_growth_law("ln(A)*A", A0=1.0)

    def test_rejects_decreasing_rate(self):
        with pytest.raises(DomainError, match="monotone"):
            classify_growth_law("1/A")

    def test_rejects_negative_rate(self):
        with pytest.raises(DomainError, match="positive"):
            classify_growth_law("-A")

    def test_rejects_unbound_names(self):
        with pytest.raises(DomainError, match="free names"):
            classify_growth_law("k*A^2")

    def test_rejects_bad_start(self):
        with pytest.raises(DomainError):
            classify_growth_law("A^2", A0=0.0)
        with pytest.raises(DomainError):
            classify_growth_law("A^2", A0=-1.0)


class TestBarometer:
    def test_exact_exponential_is_never_flagged(self):
        times = np.linspace(0.0, 50.0, 400)
        values = np.exp(0.05 * times)
        for window in (8, 16, 64, 200):
            assert not barometer(times, values, window).flagged

    def test_curvature_floor_beats_a_significant_fit(self):
        # machine-epsilon curvature on exact exponential data clears the
        # t-statistic threshold; only the floor keeps it unflagged
        times = np.linspace(0.0, 50.0, 400)
        report = barometer(times, np.exp(0.05 * times), 200)
        assert report.z_score > 3.0
        assert not report.flagged

    def test_hyperbolic_growth_is_flagged(self):
        times = np.linspace(0.0, 95.0, 500)
        values = 1.0 / (1.0 - 0.01 * times)
        report = barometer(times, values, 64)
        assert report.flagged
        assert report.quadratic_coeff > 0.0
        assert report.z_score > 3.0

    def test_double_exponential_growth_is_flagged(self):
        times = np.linspace(0.0, 3.0, 300)
        assert barometer(times, np.exp(np.exp(times)), 64).flagged

    def test_decaying_series_is_not_flagged(self):
        times = np.linspace(0.0, 10.0, 100)
        assert not barometer(times, np.exp(-0.3 * times), 32).flagged

    def test_window_metadata(self):
        times = np.linspace(0.0, 9.9, 100)
        report = barometer(times, np.exp(times), 16)
        assert report.n_samples == 16
        assert report.window == (float(times[-16]), float(times[-1]))

    @settings(max_examples=80, deadline=None)
    @given(curvature=st.floats(min_value=-0.05, max_value=0.05),
           scale=st.floats(min_value=1e-6, max_value=1e6),
           shift=st.floats(min_value=-1e3, max_value=1e3),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_invariant_under_value_scaling_and_time_shift(self, curvature, scale,
                                                           shift, seed):
        # ln(c*v) = ln(c) + ln(v) moves only the intercept, and the fit
        # standardizes time, so a shift moves nothing but rounding
        noise = 0.05 * np.random.default_rng(seed).standard_normal(64)
        times = np.linspace(0.0, 20.0, 64)
        values = np.exp(0.3 * times + curvature * times**2 + noise)
        base = barometer(times, values, 64)
        moved = barometer(times + shift, scale * values, 64)
        assert moved.quadratic_coeff == pytest.approx(base.quadratic_coeff,
                                                      rel=1e-7, abs=1e-10)
        assert moved.z_score == pytest.approx(base.z_score, rel=1e-7, abs=1e-7)

    def test_input_validation(self):
        times = np.linspace(0.0, 1.0, 32)
        values = np.exp(times)
        with pytest.raises(DomainError):
            barometer(times, values, 4)
        with pytest.raises(InsufficientDataError):
            barometer(times[:8], values[:8], 16)
        with pytest.raises(DomainError):
            barometer(times[::-1], values, 16)
        with pytest.raises(DomainError):
            barometer(times, -values, 16)
        with pytest.raises(DomainError):
            barometer(times, values[:-1], 16)

    def test_rejects_a_non_integral_window(self):
        times = np.linspace(0.0, 1.0, 32)
        with pytest.raises(DomainError, match="window must be an integer"):
            barometer(times, np.exp(times), 8.5)
        assert barometer(times, np.exp(times), np.int64(16)).n_samples == 16


class TestComposePhases:
    HEADLINE = dict(R=1.5872, I=100.0)

    def headline_plan(self, law="k*A^2", **kwargs):
        k = calibrate_k(**self.HEADLINE)
        return compose_phases(self.HEADLINE["R"], self.HEADLINE["I"], law,
                              parameters={"k": k}, **kwargs)

    def test_headline_matches_closed_form(self):
        plan = self.headline_plan()
        expected = total_singularity_time(**self.HEADLINE)
        assert plan.total_blowup_time == pytest.approx(expected, rel=1e-8)
        assert plan.switch_time == pytest.approx(
            phase1_duration(**self.HEADLINE), rel=1e-12)
        assert plan.switch_level == self.HEADLINE["I"]

    def test_switch_sample_is_shared_exactly(self):
        plan = self.headline_plan()
        boundary = 129  # default phase1_samples
        assert plan.levels[0] == 1.0
        assert plan.levels[boundary - 1] == 100.0
        assert plan.times[boundary - 1] == plan.switch_time
        assert np.all(np.diff(plan.times) > 0.0)
        assert plan.blowup is not None
        assert plan.blowup.t_low <= plan.total_blowup_time <= plan.blowup.t_high

    def test_log_law_phase2_never_blows_up(self):
        plan = self.headline_plan("k*ln(A)*A")
        assert plan.total_blowup_time is None
        assert plan.blowup is None
        assert np.all(np.isfinite(plan.levels))

    def test_unit_example(self):
        plan = compose_phases(E, 2.0, "A^2")
        assert plan.switch_time == pytest.approx(math.log(2.0), rel=1e-12)
        assert plan.total_blowup_time == pytest.approx(math.log(2.0) + 0.5,
                                                       rel=1e-8)

    def test_switch_level_override(self):
        plan = self.headline_plan(switch_level=50.0)
        R = self.HEADLINE["R"]
        k = calibrate_k(**self.HEADLINE)
        assert plan.switch_time == pytest.approx(math.log(50.0) / math.log(R),
                                                 rel=1e-12)
        assert plan.total_blowup_time == pytest.approx(
            plan.switch_time + 1.0 / (k * 50.0), rel=1e-8)

    def test_phase_labels_name_both_laws(self):
        plan = self.headline_plan()
        assert "exponential" in plan.phase1_label
        assert "A" in plan.phase2_label

    def test_validation(self):
        with pytest.raises(DomainError):
            self.headline_plan(c=0.0)
        with pytest.raises(DomainError):
            self.headline_plan(switch_level=0.5)  # below the initial level
        with pytest.raises(DomainError):
            self.headline_plan(phase1_samples=1)
        with pytest.raises(DomainError):
            compose_phases(1.0, 100.0, "A^2")  # no growth, k undefined
