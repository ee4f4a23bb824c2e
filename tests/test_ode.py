import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from blowuplab import (
    DomainError,
    FieldEvaluationError,
    IntegrationOptions,
    VectorField,
    coupled_gdp_solution,
    estimate_blowup_time,
    hyperbolic_solution,
    integrate,
    integrate_multiplicative,
    powerlaw_blowup_time,
    powerlaw_solution,
)


def scalar_field(fn):
    return VectorField(dimension=1, rate=lambda y: np.array([fn(float(y[0]))]),
                       names=("A",))


def checkpoints(t_star, n=20):
    return np.linspace(0.0, 0.95 * t_star, n)


class TestClosedFormAgreement:
    """Numerical trajectories against every analytic solution."""

    def check(self, field, state0, grid, exact, rel=1e-7):
        trail = integrate(field, state0, float(grid[-1]), t_eval=grid)
        assert np.array_equal(trail.times, grid)
        for t, state in zip(trail.times, trail.states):
            expected = exact(float(t))
            assert state[0] == pytest.approx(expected, rel=rel)

    def test_exponential(self):
        k, I = 0.00462, 100.0
        self.check(scalar_field(lambda A: k * I * A), [1.0],
                   checkpoints(9.97 / 0.95),
                   lambda t: math.exp(k * I * t))

    def test_hyperbolic(self):
        k, I = 0.00462, 100.0
        t_star = 1.0 / (k * I)
        self.check(scalar_field(lambda A: k * A * A), [I],
                   checkpoints(t_star),
                   lambda t: hyperbolic_solution(k, I, t))

    def test_powerlaw_three_halves(self):
        k, I, n = 0.01, 4.0, 1.5
        t_star = powerlaw_blowup_time(k, I, n).t_star
        self.check(scalar_field(lambda A: k * A ** n), [I],
                   checkpoints(t_star),
                   lambda t: powerlaw_solution(k, I, n, t))

    def test_powerlaw_cubic(self):
        k, I, n = 0.5, 1.0, 3.0
        t_star = powerlaw_blowup_time(k, I, n).t_star
        self.check(scalar_field(lambda A: k * A ** n), [I],
                   checkpoints(t_star),
                   lambda t: powerlaw_solution(k, I, n, t))

    def test_loglaw(self):
        self.check(scalar_field(lambda A: math.log(A) * A), [math.e],
                   np.linspace(0.0, 1.8, 20),
                   lambda t: math.exp(math.exp(t)))

    def test_coupled_gdp(self):
        k1, k2 = 0.05, 0.1
        field = VectorField(
            dimension=2,
            rate=lambda s: np.array([k1 * s[0] * s[1], k2 * s[0] * s[1]]),
            names=("Y", "A"))
        grid = checkpoints(1.0 / k1)
        trail = integrate(field, [k1 / k2, 1.0], float(grid[-1]), t_eval=grid)
        for t, state in zip(trail.times, trail.states):
            expected = coupled_gdp_solution(k1, float(t))
            assert state[1] == pytest.approx(expected, rel=1e-7)
            assert state[0] == pytest.approx(0.5 * expected, rel=1e-7)

    def test_independent_oracle(self):
        # cross-check the integrator itself against a reference solver
        k, I = 0.00462, 100.0
        grid = checkpoints(1.0 / (k * I))
        trail = integrate(scalar_field(lambda A: k * A * A), [I],
                          float(grid[-1]), t_eval=grid)
        reference = solve_ivp(lambda t, y: k * y * y, (0.0, float(grid[-1])),
                              [I], t_eval=grid, rtol=1e-10, atol=1e-12)
        assert np.allclose(trail.states[:, 0], reference.y[0], rtol=1e-6)


class TestIntegrate:
    def test_exponential_endpoint(self):
        trail = integrate(scalar_field(lambda A: 0.462 * A), [1.0], 9.97)
        assert trail.blowup is None
        assert trail.states[-1, 0] == pytest.approx(math.exp(0.462 * 9.97),
                                                    rel=1e-6)

    def test_zero_rate_is_constant(self):
        trail = integrate(scalar_field(lambda A: 0.0), [5.0], 10.0)
        assert trail.blowup is None
        assert np.all(trail.states == 5.0)

    def test_cubic_blowup_event(self):
        trail = integrate(scalar_field(lambda A: 0.5 * A ** 3), [1.0], 2.0)
        event = trail.blowup
        assert event is not None
        assert event.estimate == pytest.approx(1.0, abs=1e-6)
        assert event.t_low <= 1.0 <= event.t_high
        assert event.method == "reciprocal-extrapolation"

    def test_trajectory_invariants(self):
        trail = integrate(scalar_field(lambda A: 0.05 * A * A), [1.0], 30.0)
        assert np.all(np.diff(trail.times) > 0.0)
        assert np.all(np.isfinite(trail.states))
        assert trail.blowup is not None
        assert trail.times[-1] < trail.blowup.t_low

    def test_monotone_field_gives_monotone_samples(self):
        trail = integrate(scalar_field(lambda A: 0.01 * A ** 1.5), [1.0], 50.0)
        assert np.all(np.diff(trail.states[:, 0]) > 0.0)

    def test_tolerance_halving_never_hurts(self):
        k, I = 0.00462, 100.0
        grid = checkpoints(1.0 / (k * I), 10)

        def max_error(rtol, atol):
            trail = integrate(scalar_field(lambda A: k * A * A), [I],
                              float(grid[-1]),
                              IntegrationOptions(rtol=rtol, atol=atol),
                              t_eval=grid)
            exact = np.array([hyperbolic_solution(k, I, float(t)) for t in grid])
            return float(np.max(np.abs(trail.states[:, 0] - exact) / exact))

        errors = [max_error(1e-6 / 2 ** i, 1e-8 / 2 ** i) for i in range(4)]
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse * (1.0 + 1e-12)

    @pytest.mark.parametrize("t_eval", [[0.5, 0.5 + 4e-15], [1e-16, 0.5]])
    def test_requested_times_closer_than_the_step_floor(self, t_eval):
        # the step floor is 1e-14 of the horizon; a step shortened only
        # to land on a requested time is not a step-size underflow
        trail = integrate(VectorField(1, lambda y: 0.1 * y), [1.0], 1.0, t_eval=t_eval)
        assert trail.blowup is None
        assert trail.times.tolist() == t_eval
        assert trail.states[:, 0] == pytest.approx(np.exp(0.1 * np.array(t_eval)),
                                                   rel=1e-8)

    def test_nonpositive_state_rejected(self):
        for state0 in ([0.0], [-1.0]):
            with pytest.raises(DomainError):
                integrate(scalar_field(lambda A: A), state0, 1.0)

    def test_nonfinite_rate_reported(self):
        with pytest.raises(FieldEvaluationError):
            integrate(scalar_field(lambda A: math.nan), [1.0], 1.0)

    @pytest.mark.parametrize("rate", [
        # overshoots below 0.5 inside a trial stage
        lambda y: np.array([math.log(y[0] - 0.5) * y[0]]),
        # right shape at the initial state only
        lambda y: np.array([0.1 * y[0]]) if y[0] == 1.0
        else np.array([0.1 * y[0], 1.0]),
    ], ids=["raises-at-stage", "wrong-shape-at-stage"])
    def test_stage_failures_are_field_errors(self, rate):
        field = VectorField(1, rate)
        with pytest.raises(FieldEvaluationError):
            integrate(field, [1.0], 5.0)
        with pytest.raises(FieldEvaluationError):
            estimate_blowup_time(field, [1.0], 5.0)

    def test_option_validation(self):
        with pytest.raises(DomainError):
            integrate(scalar_field(lambda A: A), [1.0], 1.0,
                      IntegrationOptions(rtol=-1e-8))
        # a non-finite tolerance would end the run early with no blow-up
        for bad in (dict(rtol=math.nan), dict(rtol=math.inf), dict(atol=math.nan),
                    dict(atol=math.inf), dict(blowup_threshold=math.nan),
                    dict(blowup_tol=math.nan)):
            with pytest.raises(DomainError):
                IntegrationOptions(**bad)


class TestEstimateBlowupTime:
    def test_hyperbolic_hundred_periods(self):
        event = estimate_blowup_time(scalar_field(lambda A: 0.01 * A * A),
                                     [1.0], 150.0)
        assert event.estimate == pytest.approx(100.0, abs=0.1)
        assert event.t_low <= event.estimate <= event.t_high

    def test_fast_hyperbolic(self):
        event = estimate_blowup_time(scalar_field(lambda A: 0.05 * A * A),
                                     [1.0], 50.0)
        assert event.estimate == pytest.approx(20.0, abs=0.05)

    def test_loglaw_never_blows_up(self):
        event = estimate_blowup_time(
            scalar_field(lambda A: 0.02 * math.log(A) * A), [math.e], 1e4)
        assert event is None

    def test_coupled_system(self):
        field = VectorField(
            dimension=2,
            rate=lambda s: np.array([0.05 * s[0] * s[1], 0.1 * s[0] * s[1]]),
            names=("Y", "A"))
        event = estimate_blowup_time(field, [0.5, 1.0], 30.0)
        assert event.estimate == pytest.approx(20.0, abs=0.1)

    def test_end_of_horizon_is_none(self):
        event = estimate_blowup_time(scalar_field(lambda A: 0.01 * A * A),
                                     [1.0], 50.0)
        assert event is None

    def test_cubic_pole_resolution(self):
        # the crossing time of any finite threshold sits within one
        # representable step of the asymptote here, so the event comes
        # from extrapolation at the step-size floor
        event = estimate_blowup_time(scalar_field(lambda A: A ** 3), [1.0], 2.0)
        assert event is not None
        assert event.method == "reciprocal-extrapolation"
        assert event.t_low <= 0.5 <= event.t_high
        assert event.estimate == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("k", [0.01, 0.1, 1.0])
    @pytest.mark.parametrize("I", [1.0, 10.0, 100.0])
    @pytest.mark.parametrize("n", [1.5, 2.0, 3.0])
    def test_formula_grid(self, k, I, n):
        expected = powerlaw_blowup_time(k, I, n).t_star
        event = estimate_blowup_time(scalar_field(lambda A: k * A ** n), [I],
                                     expected * 2.0)
        assert event is not None
        assert event.t_low <= event.estimate <= event.t_high
        assert abs(event.estimate - expected) <= (event.t_high - event.t_low)

    @settings(max_examples=20)
    @given(k=st.floats(0.01, 1.0), n=st.floats(1.2, 3.0),
           A0=st.floats(0.5, 10.0))
    def test_powerlaw_formula_property(self, k, n, A0):
        expected = powerlaw_blowup_time(k, A0, n).t_star
        event = estimate_blowup_time(scalar_field(lambda A: k * A ** n), [A0],
                                     expected * 2.0)
        assert event is not None
        assert event.estimate == pytest.approx(expected, rel=1e-3)


class TestMultiplicative:
    def test_reduces_to_coupled_gdp(self):
        grid = np.linspace(0.0, 19.0, 20)
        trail = integrate_multiplicative([0.05, 0.1], [0.5, 1.0], 19.0)
        probe = integrate_multiplicative([0.05, 0.1], [0.5, 1.0], 19.0)
        assert np.array_equal(trail.states, probe.states)
        sampled = integrate(
            VectorField(dimension=2,
                        rate=lambda s: np.array([0.05 * s[0] * s[1],
                                                 0.1 * s[0] * s[1]]),
                        names=("E1", "E2")),
            [0.5, 1.0], 19.0, t_eval=grid)
        for t, state in zip(sampled.times, sampled.states):
            assert state[1] == pytest.approx(coupled_gdp_solution(0.05, float(t)),
                                             rel=1e-7)

    def test_single_factor_hyperbolic(self):
        trail = integrate_multiplicative([0.01], [1.0], 150.0)
        assert trail.blowup is not None
        assert trail.blowup.estimate == pytest.approx(100.0, abs=0.1)

    def test_three_factor_symmetric(self):
        trail = integrate_multiplicative([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 1.0)
        assert trail.blowup is not None
        assert trail.blowup.estimate == pytest.approx(0.5, abs=1e-3)
        spread = np.max(trail.states, axis=1) - np.min(trail.states, axis=1)
        assert np.all(spread <= 1e-9 * np.max(trail.states, axis=1))

    def test_conserved_differences(self):
        coeffs = [0.05, 0.1, 0.25]
        trail = integrate_multiplicative(coeffs, [0.5, 1.0, 2.0], 5.0)
        ratios = trail.states / np.asarray(coeffs)
        for i in range(3):
            for j in range(i + 1, 3):
                diff = ratios[:, i] - ratios[:, j]
                assert np.max(np.abs(diff - diff[0])) <= 1e-6 * max(
                    1.0, float(np.max(np.abs(diff))))

    def test_positive_inputs_required(self):
        with pytest.raises(DomainError):
            integrate_multiplicative([0.05, -0.1], [1.0, 1.0], 1.0)
        with pytest.raises(DomainError):
            integrate_multiplicative([0.05, 0.1], [1.0, 0.0], 1.0)

    def test_always_detects_blowup(self):
        cases = [
            ((0.3,), (2.0,), 10.0),
            ((0.05, 0.1), (0.5, 1.0), 30.0),
            ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), 2.0),
            ((0.2, 0.7), (3.0, 0.25), 10.0),
        ]
        for coeffs, state0, horizon in cases:
            trail = integrate_multiplicative(list(coeffs), list(state0), horizon)
            assert trail.blowup is not None
