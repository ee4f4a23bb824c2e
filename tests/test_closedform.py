import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowuplab import (
    BlowupLabError,
    BlowUpTime,
    DomainError,
    LevelOverflowError,
    calibrate_k,
    coupled_gdp_solution,
    exp_phase_solution,
    hyperbolic_blowup_time,
    hyperbolic_solution,
    loglaw_solution,
    phase1_duration,
    powerlaw_blowup_time,
    powerlaw_solution,
    total_singularity_time,
)

R_DEFAULT = 1.5872
I_DEFAULT = 100.0


class TestCalibrateK:
    def test_default_scenario(self):
        assert calibrate_k(R_DEFAULT, I_DEFAULT) == pytest.approx(
            0.004619714575484712, rel=1e-15)

    def test_unit_case(self):
        assert calibrate_k(math.e, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_doubling_half_century(self):
        assert calibrate_k(2.0, 50.0) == pytest.approx(
            0.013862943611198906, rel=1e-15)

    @pytest.mark.parametrize("R,I", [(1.0, 10.0), (0.5, 10.0), (2.0, 0.0), (2.0, -1.0)])
    def test_domain_errors(self, R, I):
        with pytest.raises(DomainError):
            calibrate_k(R, I)

    def test_a_quotient_that_underflows_is_a_domain_error(self):
        # ln(R) is 2.2e-16 and ln(R)/I underflows to 0, which is no k > 0
        with pytest.raises(DomainError, match=r"R=1\.0000000000000002 and I=1e\+308"):
            calibrate_k(1.0000000000000002, 1e308)


class TestExpPhase:
    K_DEFAULT = calibrate_k(R_DEFAULT, I_DEFAULT)

    def test_start_level(self):
        assert exp_phase_solution(self.K_DEFAULT, I_DEFAULT, 0.0) == pytest.approx(1.0)

    def test_reaches_driver_level(self):
        assert exp_phase_solution(self.K_DEFAULT, I_DEFAULT, 9.97) == \
            pytest.approx(100.0, abs=0.2)

    def test_power_of_growth_factor(self):
        assert exp_phase_solution(calibrate_k(2.0, 10.0), 10.0, 3.0) == \
            pytest.approx(8.0, rel=1e-12)

    def test_level_constant_scales_the_level(self):
        k = calibrate_k(2.0, 10.0)
        assert exp_phase_solution(k, 10.0, 3.0, 2.5) == 2.5 * exp_phase_solution(k, 10.0, 3.0)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            exp_phase_solution(calibrate_k(2.0, 10.0), 10.0, -0.1)

    def test_k_times_I_past_double_range_need_not_overflow(self):
        # k*I is inf, the exponent k*I*t1 is 0 and 1e-3
        assert exp_phase_solution(1e200, 1e200, 0.0) == 1.0
        assert exp_phase_solution(1e160, 1e160, 1e-323) == pytest.approx(1.001, rel=1e-3)
        with pytest.raises(LevelOverflowError):
            exp_phase_solution(1e200, 1e200, 1e-100)

    def test_overflow_is_a_level_overflow(self):
        # e**800 is past the double range
        with pytest.raises(LevelOverflowError, match="exceeds double range"):
            exp_phase_solution(1, 1, 800)


class TestPhase1Duration:
    def test_default_scenario(self):
        assert phase1_duration(R_DEFAULT, I_DEFAULT) == pytest.approx(
            9.968516692408222, rel=1e-15)

    def test_already_at_parity(self):
        assert phase1_duration(2.0, 1.0) == 0.0

    def test_integer_log(self):
        assert phase1_duration(4.0, 16.0) == pytest.approx(2.0, rel=1e-15)

    def test_below_parity_rejected(self):
        with pytest.raises(DomainError):
            phase1_duration(2.0, 0.5)

    @pytest.mark.parametrize("R,I", [(R_DEFAULT, 10.0), (2.0, 1000.0), (1.1, 7.0)])
    def test_consistency_with_exp_phase(self, R, I):
        t1 = phase1_duration(R, I)
        level = exp_phase_solution(calibrate_k(R, I), I, t1)
        assert level == pytest.approx(I, rel=1e-9)


class TestHyperbolic:
    def test_initial_level(self):
        assert hyperbolic_solution(0.00462, 100.0, 0.0) == pytest.approx(100.0)

    def test_one_year_in(self):
        assert hyperbolic_solution(0.00462, 100.0, 1.0) == pytest.approx(
            185.87360594795538, rel=1e-12)

    def test_halfway_doubling(self):
        assert hyperbolic_solution(0.01, 1.0, 50.0) == pytest.approx(2.0, rel=1e-12)

    def test_strictly_increasing(self):
        t_star = 1.0 / (0.00462 * 100.0)
        samples = [hyperbolic_solution(0.00462, 100.0, f * t_star)
                   for f in (0.0, 0.2, 0.5, 0.8, 0.95, 0.999)]
        assert all(a < b for a, b in zip(samples, samples[1:]))

    def test_at_blowup_rejected(self):
        t_star = 1.0 / (0.01 * 1.0)
        for t2 in (t_star, t_star * 1.5, t_star * (1.0 - 1e-14)):
            with pytest.raises(DomainError):
                hyperbolic_solution(0.01, 1.0, t2)

    def test_blowup_time_default_scenario(self):
        k = calibrate_k(R_DEFAULT, I_DEFAULT)
        event = hyperbolic_blowup_time(k, I_DEFAULT)
        assert event.finite
        assert event.t_star == pytest.approx(2.164635896136673, rel=1e-12)

    def test_blowup_time_unit_cases(self):
        assert hyperbolic_blowup_time(0.01, 1.0).t_star == pytest.approx(100.0)
        assert hyperbolic_blowup_time(1.0, 1.0).t_star == pytest.approx(1.0)


class TestTotalSingularityTime:
    def test_default_scenario(self):
        assert total_singularity_time(R_DEFAULT, I_DEFAULT) == pytest.approx(
            12.133152588544895, rel=1e-12)

    def test_unit_case(self):
        assert total_singularity_time(math.e, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_large_driver(self):
        assert total_singularity_time(R_DEFAULT, 1e7) == pytest.approx(37.0, abs=0.1)

    def test_order_of_magnitude_robustness(self):
        # each tenfold increase of the target level delays the
        # singularity by less than five years
        for I in (1e2, 1e4, 1e6, 1e8):
            delta = (total_singularity_time(R_DEFAULT, I * 10.0)
                     - total_singularity_time(R_DEFAULT, I))
            assert 0.0 < delta < 5.0


class TestPowerLaw:
    def test_reduces_to_hyperbolic(self):
        for t2 in (0.0, 0.5, 1.0, 1.9):
            expected = hyperbolic_solution(0.00462, 100.0, t2)
            assert powerlaw_solution(0.00462, 100.0, 2.0, t2) == pytest.approx(
                expected, rel=1e-12)

    def test_initial_level(self):
        assert powerlaw_solution(0.3, 7.0, 1.5, 0.0) == pytest.approx(7.0)

    def test_cubic_case(self):
        assert powerlaw_solution(0.5, 1.0, 3.0, 0.5) == pytest.approx(
            math.sqrt(2.0), rel=1e-12)

    def test_subquadratic_regimes_rejected(self):
        for n in (1.0, 0.5, -1.0):
            with pytest.raises(DomainError):
                powerlaw_solution(0.1, 1.0, n, 0.1)

    def test_beyond_blowup_rejected(self):
        t_star = powerlaw_blowup_time(0.5, 1.0, 3.0).t_star
        with pytest.raises(DomainError):
            powerlaw_solution(0.5, 1.0, 3.0, t_star)

    def test_blowup_reduces_to_hyperbolic(self):
        assert powerlaw_blowup_time(0.02, 5.0, 2.0).t_star == pytest.approx(
            1.0 / (0.02 * 5.0), rel=1e-12)

    def test_blowup_cubic(self):
        assert powerlaw_blowup_time(0.5, 1.0, 3.0).t_star == pytest.approx(1.0)

    def test_blowup_near_one_diverges(self):
        event = powerlaw_blowup_time(0.01, 100.0, 1.0001)
        assert event.finite and event.t_star > 1e4

    def test_blowup_not_finite_at_or_below_one(self):
        for n in (1.0, 0.7):
            event = powerlaw_blowup_time(0.01, 100.0, n)
            assert not event.finite and event.t_star is None

    def test_blowup_decreasing_in_exponent(self):
        times = [powerlaw_blowup_time(0.01, 10.0, n).t_star
                 for n in (1.5, 2.0, 3.0, 5.0, 10.0)]
        assert all(a > b for a, b in zip(times, times[1:]))


class TestLogLaw:
    def test_fixed_point_of_exponent(self):
        for t in (0.0, 1.0, 7.0):
            assert loglaw_solution(0.0, 0.0, t) == pytest.approx(math.e, rel=1e-15)

    def test_double_exponential_value(self):
        assert loglaw_solution(0.0, 1.0, 1.0) == pytest.approx(
            15.154262241479262, rel=1e-12)

    def test_inner_constant(self):
        assert loglaw_solution(math.log(math.log(2.0)), 0.0, 0.0) == pytest.approx(
            2.0, rel=1e-12)

    def test_log_log_slope_is_k(self):
        k = 0.37
        h = 1e-4
        for t in (0.0, 2.0, 5.0):
            upper = math.log(math.log(loglaw_solution(0.1, k, t + h)))
            lower = math.log(math.log(loglaw_solution(0.1, k, t - h)))
            assert (upper - lower) / (2.0 * h) == pytest.approx(k, abs=1e-5)

    def test_overflow_is_not_blowup(self):
        # the level leaves double range in finite time, which is a
        # representation limit, not a finite-time singularity
        with pytest.raises(LevelOverflowError):
            loglaw_solution(0.0, 1.0, 10.0)

    def test_strictly_increasing(self):
        values = [loglaw_solution(0.0, 0.5, t) for t in (0.0, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestCoupledGdp:
    def test_initial_level(self):
        assert coupled_gdp_solution(0.05, 0.0) == pytest.approx(1.0)

    def test_halfway(self):
        assert coupled_gdp_solution(0.05, 10.0) == pytest.approx(2.0, rel=1e-12)

    def test_blowup_boundary_rejected(self):
        for t in (20.0, 25.0):
            with pytest.raises(DomainError):
                coupled_gdp_solution(0.05, t)

    def test_grows_without_bound_near_pole(self):
        assert coupled_gdp_solution(0.05, 19.99) > 1e3


# log-uniform over the double range, and exponents n log-uniformly above 1
_POSITIVE = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
_TIME = st.one_of(st.just(0.0), _POSITIVE)
_EXPONENT = st.floats(-10.0, 2.0).map(lambda e: 1.0 + 10.0 ** e)
_REAL = st.one_of(_POSITIVE, _POSITIVE.map(lambda x: -x))
_CALLS = st.one_of(
    st.tuples(st.just(exp_phase_solution), st.tuples(_POSITIVE, _POSITIVE, _TIME, _POSITIVE)),
    st.tuples(st.just(hyperbolic_solution), st.tuples(_POSITIVE, _POSITIVE, _TIME)),
    st.tuples(st.just(hyperbolic_blowup_time), st.tuples(_POSITIVE, _POSITIVE)),
    st.tuples(st.just(powerlaw_solution), st.tuples(_POSITIVE, _POSITIVE, _EXPONENT, _TIME)),
    st.tuples(st.just(powerlaw_blowup_time), st.tuples(_POSITIVE, _POSITIVE, _EXPONENT)),
    st.tuples(st.just(loglaw_solution), st.tuples(_REAL, _REAL, _REAL)),
    st.tuples(st.just(coupled_gdp_solution), st.tuples(_POSITIVE, _TIME)),
    st.tuples(st.just(total_singularity_time), st.tuples(_EXPONENT, _POSITIVE)),
)


@settings(max_examples=400, deadline=None)
@given(_CALLS)
@example((powerlaw_solution, (1, 1, 1.01, 99.99)))
@example((powerlaw_blowup_time, (1, 1e-10, 100)))
@example((hyperbolic_blowup_time, (1e-200, 1e-200)))
@example((hyperbolic_solution, (1e-200, 1e-200, 0)))
@example((exp_phase_solution, (1, 1, 709, 10)))
@example((hyperbolic_solution, (1e-300, 1e300, 1 - 1e-11)))
@example((exp_phase_solution, (1, 1, 709.5, 1e-10)))
@example((exp_phase_solution, (1e200, 1e200, 0.0, 1.0)))
@example((exp_phase_solution, (1e160, 1e160, 1e-323, 1.0)))
def test_a_closed_form_is_finite_and_positive_or_raises(call):
    # no ArithmeticError leaks and no inf comes back: a level past double
    # range is a LevelOverflowError, a blow-up time past it a DomainError
    fn, args = call
    try:
        result = fn(*args)
    except BlowupLabError:
        return
    if isinstance(result, BlowUpTime):
        if not result.finite:
            return
        result = result.t_star
    assert 0.0 < result < math.inf


_LEVEL_PAST_RANGE = (LevelOverflowError, "level exceeds double range")
_TIME_PAST_RANGE = (DomainError, r"t_star of a finite blow-up must be a finite real number > 0, "
                                  r"got inf")


@pytest.mark.parametrize("call,expected", [
    (lambda: powerlaw_solution(1, 1, 1.01, 99.99), _LEVEL_PAST_RANGE),
    (lambda: hyperbolic_solution(1e-300, 1e300, 1 - 1e-11), _LEVEL_PAST_RANGE),
    (lambda: exp_phase_solution(1, 1, 709, c=10), _LEVEL_PAST_RANGE),
    (lambda: powerlaw_blowup_time(1, 1e-10, 100), _TIME_PAST_RANGE),
    (lambda: hyperbolic_blowup_time(1e-200, 1e-200), _TIME_PAST_RANGE),
], ids=["powerlaw", "hyperbolic", "exp-phase", "powerlaw-time", "hyperbolic-time"])
def test_past_double_range_is_an_error_of_its_kind(call, expected):
    error, message = expected
    with pytest.raises(error, match=message):
        call()


def test_a_small_c_keeps_an_exp_phase_level_in_range():
    # e**709.5 is 1.35e308 and e**720 is past double range; times 1e-10 neither is
    assert exp_phase_solution(1, 1, 709.5, c=1e-10) == pytest.approx(1.3549e298, rel=1e-4)
    assert exp_phase_solution(1, 1, 720, c=1e-10) == pytest.approx(
        math.exp(720 - 10 * math.log(10)), rel=1e-12)
