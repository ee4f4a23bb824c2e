import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowuplab import (
    FINITE_TIME,
    INCONCLUSIVE,
    INFINITE_TIME,
    BindingError,
    DomainError,
    InsufficientDataError,
    IntegrationOptions,
    PhasePlan,
    VectorField,
    barometer,
    barometer_batch,
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

    def test_a_power_law_takes_227_evaluations(self):
        # 49 shape checks, 10 exponent probes and 8 rungs of 21 nodes
        levels = []
        classify_growth_law(lambda a: levels.append(a) or a * a)
        assert len(levels) == 227

    def test_a_rate_vanishing_between_the_checked_levels_stops_the_ladder(self):
        # positive at the 49 shape-check levels (1, 1.78, 3.16, ...), zero
        # at a node of the first rung: its integrand is inf there
        verdict = classify_growth_law(lambda a: 0.0 if 2.0 < a < 2.5 else a * a)
        assert verdict.verdict == INCONCLUSIVE
        assert verdict.evidence["quadrature"].details == {
            "reason": "ladder not computable", "rungs": 8}

    def test_the_ladder_stops_at_the_top_of_double_range(self):
        # from 1e285 only 21 rungs fit below 1e306, too few to fit the
        # slow decay of A*ln(A)^1.5's increments
        ladder = classify_growth_law("0.001*A*ln(A)^1.5", A0=1e285).evidence["quadrature"]
        assert ladder.details["mode"] == "polynomial-truncated"
        assert ladder.details["rungs"] == 21

    def test_a_rung_ratio_near_1_is_still_geometric(self):
        # A^1.01's rungs shrink by the constant ratio 10^-0.01 = 0.977
        ladder = classify_growth_law("A^1.01", A0=1e285).evidence["quadrature"]
        assert ladder.details["mode"] == "geometric"
        assert ladder.details["rungs"] == 8

    @pytest.mark.parametrize("law,A0,verdict,mode,rungs", [
        ("A", 1.0, INFINITE_TIME, "non-decreasing", 8),
        ("A^2", 1.0, FINITE_TIME, "geometric", 8),
        # exp(A) overflows from 710 on, inside the first block
        ("exp(A)", 1.0, INCONCLUSIVE, "ladder not computable", 8),
        ("A*ln(A)", E, INFINITE_TIME, "polynomial", 24),
        ("A*ln(A)^2", E, FINITE_TIME, "polynomial", 24),
        ("A*ln(A)*ln(ln(A))", 20.0, FINITE_TIME, "polynomial-truncated", 280),
        # A*ln(A) overflows below 1e306, 0.01*A*ln(A) does not
        ("A*ln(A)", 1e290, INCONCLUSIVE, "ladder not computable", 16),
        ("0.01*A*ln(A)", 1e290, INCONCLUSIVE, "polynomial-truncated", 16),
        ("A*ln(A)^2", 1e285, INCONCLUSIVE, "ladder not computable", 21),
        # the integrand 1e-300/1e150 underflows to 0 in the first rung
        ("1e300*A^0.5", 1e-300, INCONCLUSIVE, "ladder not computable", 8),
        ("A^2", 1e306, INCONCLUSIVE, "ladder not computable", 0),
        # the rate reaches 0 at 1e30, above the shape check's top of 3e12:
        # the fourth block holds a rung that is not finite
        ("A*ln(A)^1.5*(1e30-A)", 3.0, INCONCLUSIVE, "ladder not computable", 32),
    ])
    def test_each_ladder_exit(self, law, A0, verdict, mode, rungs):
        # no float is pinned: the order fit's matrix product goes through
        # BLAS, whose last bits may differ between CPUs
        ladder = classify_growth_law(law, A0=A0).evidence["quadrature"]
        details = ladder.details
        assert (ladder.verdict, details.get("mode", details.get("reason")),
                details["rungs"]) == (verdict, mode, rungs)

    @pytest.mark.parametrize("p", [1.001, 1.005, 1.01, 1.02, 1.03, 1.04])
    @pytest.mark.parametrize("A0", [3.0, 100.0, 1e10])
    def test_a_power_just_above_1_is_never_infinite_time(self, p, A0):
        assert classify_growth_law(f"A^{p}", A0=A0).verdict != INFINITE_TIME

    @pytest.mark.parametrize("law,truth", [
        ("A", INFINITE_TIME), ("A^0.5", INFINITE_TIME), ("A^1.01", FINITE_TIME),
        ("A*ln(A)", INFINITE_TIME), ("A*ln(A)^2", FINITE_TIME), ("A^2", FINITE_TIME),
        ("exp(A)", FINITE_TIME),
    ])
    def test_no_wrong_verdict_near_the_top_of_double_range(self, law, truth):
        # above 1e300 the shape check still samples upward from A0, and a
        # ladder of 3 to 5 rungs is fitted over the rungs it has
        for A0 in np.logspace(280, 307, 60).tolist():
            assert classify_growth_law(law, A0=A0).verdict in (truth, INCONCLUSIVE), A0

    def test_an_overflowing_rate_makes_the_ladder_not_computable(self):
        # exp(A) overflows to inf past 709.8: a rung there has no finite
        # integrand to read, not an empty one
        verdict = classify_growth_law("exp(A)")
        assert verdict.evidence["quadrature"].details == {
            "reason": "ladder not computable", "rungs": 8}
        assert verdict.verdict == INCONCLUSIVE

    @pytest.mark.parametrize("law", [
        lambda a: math.inf if 1e18 < a < 1e20 else a * math.log(a) ** 2,
        lambda a: math.inf if 1e5 < a < 1e7 else a * a,
    ], ids=["log-squared", "square"])
    def test_a_band_of_overflow_is_inconclusive(self, law):
        # the rate is inf on a band of levels and finite again above it; the
        # shape check stops at the first inf, and no rung may read it as zero
        verdict = classify_growth_law(law, A0=E)
        assert verdict.verdict == INCONCLUSIVE
        assert verdict.evidence["quadrature"].details["reason"] == "ladder not computable"

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.tuples(st.just("power"), st.floats(1.05, 4.0)),
                     st.tuples(st.just("log"), st.floats(1.05, 3.0))),
           st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
           st.floats(1.0, math.log(1e300)).map(math.exp))
    @example(("log", 2.0), 1.0, 1e285)
    @example(("log", 2.495496605048383), 11.59831615597424, 2.691314743226855e+22)
    def test_a_finite_time_estimate_is_the_osgood_integral(self, law, k, A0):
        # k*A^p and k*A*ln(A)^q have the exact Osgood integrals below;
        # a finite-time verdict must carry that time, whatever else it reads
        kind, power = law
        if kind == "power":
            source, log_exact = f"{k!r}*A^{power!r}", (1.0 - power) * math.log(A0)
        else:
            source, log_exact = f"{k!r}*A*ln(A)^{power!r}", (1.0 - power) * math.log(math.log(A0))
        verdict = classify_growth_law(source, A0=A0)
        if verdict.verdict == FINITE_TIME:
            exact = math.exp(log_exact - math.log(k * (power - 1.0)))
            assert verdict.singularity_time_estimate == pytest.approx(exact, rel=0.01)

    @pytest.mark.parametrize("law", ["(A-3)^0.5*A^2", "ln(A-2)*A^2", "A^2/(A-1)"])
    def test_a_law_undefined_at_A0_is_rejected(self, law):
        # only an overflow reads as an infinitely fast rate, so a law
        # undefined at A0 cannot pass the shape check and get a verdict
        with pytest.raises(DomainError, match=r"is undefined at level 1\.0: ") as info:
            classify_growth_law(law, A0=1.0)
        assert type(info.value) is DomainError

    def test_a_triple_log_law_is_inconclusive(self):
        # it diverges, since its integral is ln ln ln A, and the ladder
        # alone reads finite-time over 280 rungs; the exponent probe's
        # boundary reading keeps the verdict from being wrong
        assert classify_growth_law("A*ln(A)*ln(ln(A))", A0=20).verdict == INCONCLUSIVE

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

    def test_an_equation_is_a_law_in_its_own_variable(self):
        in_y = classify_growth_law("dY = k*Y^2", parameters={"k": 0.01})
        bare = classify_growth_law("k*A^2", parameters={"k": 0.01})
        assert in_y.verdict == FINITE_TIME
        assert in_y.singularity_time_estimate == bare.singularity_time_estimate
        # x is not the equation's variable A, so it is unbound
        with pytest.raises(BindingError, match=r"unbound names \['x'\]"):
            classify_growth_law("dA = x^2")
        with pytest.raises(BindingError, match=r"unbound names \['k'\]"):
            classify_growth_law("dA = k*A^2")

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

    def test_report_fields_are_python_numbers(self):
        times = np.linspace(0.0, 95.0, 500)
        report = barometer(times, 1.0 / (1.0 - 0.01 * times), 64)
        assert type(report.quadratic_coeff) is float
        assert type(report.z_score) is float
        assert type(report.flagged) is bool

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


class TestBarometerBatch:
    @settings(max_examples=60, deadline=None)
    @given(kinds=st.lists(st.sampled_from(["curved", "exponential", "constant"]),
                          min_size=1, max_size=40),
           window=st.integers(8, 200), extra=st.integers(0, 20),
           start=st.floats(-100.0, 100.0), span=st.floats(0.1, 1000.0),
           seed=st.integers(0, 2**16))
    def test_each_row_equals_its_own_barometer(self, kinds, window, extra, start, span,
                                                seed):
        rng = np.random.default_rng(seed)
        times = np.linspace(start, start + span, window + extra)
        u = np.linspace(0.0, 1.0, window + extra)
        rows = []
        for kind in kinds:
            rate, curvature = rng.uniform(-2.0, 5.0), rng.uniform(-3.0, 3.0)
            level = rng.uniform(1e-3, 1e3)
            if kind == "curved":
                noise = 0.05 * rng.standard_normal(len(u))
                rows.append(level * np.exp(rate * u + curvature * u * u + noise))
            elif kind == "exponential":
                rows.append(level * np.exp(rate * u))
            else:
                rows.append(np.full(len(u), level))
        reports = barometer_batch(times, np.array(rows), window)
        assert len(reports) == len(rows)
        for row, report in zip(rows, reports):
            # repr tells every double apart, -0.0 from 0.0 included
            assert repr(report) == repr(barometer(times, row, window))

    def test_zero_rows_give_no_reports(self):
        times = np.linspace(0.0, 1.0, 32)
        assert barometer_batch(times, np.empty((0, 32)), 16) == []


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
        boundary = 129  # samples of the exponential phase
        assert plan.levels[0] == 1.0
        assert plan.levels[boundary - 1] == 100.0
        assert plan.times[boundary - 1] == plan.switch_time
        assert np.all(np.diff(plan.times) > 0.0)
        assert plan.blowup is not None
        assert plan.blowup.t_low <= plan.total_blowup_time <= plan.blowup.t_high

    def test_the_total_is_the_blowup_estimate(self):
        plan = self.headline_plan()
        assert plan.total_blowup_time == plan.blowup.estimate
        # a plan holds no second copy that could disagree with its event
        assert "total_blowup_time" not in {f.name for f in dataclasses.fields(PhasePlan)}

    def test_an_equation_is_a_law_in_its_own_variable(self):
        plan = compose_phases(E, 2.0, "dY = Y^2")
        assert plan.total_blowup_time == pytest.approx(math.log(2.0) + 0.5, rel=1e-8)
        with pytest.raises(BindingError, match=r"unbound names \['x'\]"):
            compose_phases(E, 2.0, "dA = x^2")

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
            compose_phases(1.0, 100.0, "A^2")  # no growth, k undefined
