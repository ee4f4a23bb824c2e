import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad, solve_ivp

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
from blowuplab.ode import fit_line, gauss_kronrod


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


@st.composite
def multiplicative_systems(draw):
    """Coefficients and unequal starting levels of 2 to 7 factors."""
    n = draw(st.integers(2, 7))
    return (draw(st.lists(st.floats(0.05, 0.5), min_size=n, max_size=n)),
            draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))


def reduced_blowup_time(coeffs, state0):
    """Blow-up time of ``dE_i = k_i * prod(E)`` from the scalar law it reduces to.

    Every ``E_j/k_j`` moves at the same rate, so with ``u = E_1/k_1``
    it is ``u + d_j`` with ``d_j = E_j(0)/k_j - u0``, and
    ``du/dt = prod(k) * prod(u + d_j)``: the system blows up at
    ``integral from u0 to inf of du / (prod(k) * prod(u + d_j))``.
    """
    u0 = state0[0] / coeffs[0]
    offsets = [e / k - u0 for e, k in zip(state0, coeffs)]
    scale = math.prod(coeffs)
    value, _ = quad(lambda u: 1.0 / (scale * math.prod(u + d for d in offsets)),
                    u0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)
    return value


class TestMultiplicative:
    @settings(max_examples=40)
    @given(system=multiplicative_systems())
    # a tail fit that reaches back to low levels, where the offsets
    # between the factors bend the exponent, stalls at t = 2.2653 here
    @example(system=([0.1] * 4, [1.0, 2.0, 0.5, 1.5]))
    def test_blowup_time_matches_the_reduced_law(self, system):
        coeffs, state0 = system
        expected = reduced_blowup_time(coeffs, state0)
        trail = integrate_multiplicative(coeffs, state0, 2.0 * expected)
        assert trail.blowup is not None
        assert trail.blowup.estimate == pytest.approx(expected, rel=1e-6)

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


class TestGaussKronrod:
    """The quadrature behind the classifier's ladder and the ergodicity transform."""

    # (integrand, closed-form integral over [a, a + length]) for a shape s
    INTEGRANDS = {
        "power": (lambda s: lambda x: x ** s,
                  lambda s, a, length: a ** (s + 1) * math.expm1((s + 1) * math.log1p(length / a))
                  / (s + 1)),
        "exp": (lambda s: lambda x: np.exp(s * x),
                lambda s, a, length: math.exp(s * a) * math.expm1(s * length) / s),
        "inverse-square": (lambda s: lambda x: 1.0 / (x * x),
                           lambda s, a, length: length / (a * (a + length))),
    }

    @given(kind=st.sampled_from(sorted(INTEGRANDS)),
           shape=st.floats(-3.0, 3.0).filter(lambda s: abs(s) > 0.01 and abs(s + 1.0) > 0.01),
           start=st.floats(0.1, 10.0),
           lengths=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=5))
    def test_closed_forms_to_rtol(self, kind, shape, start, lengths):
        integrand, exact = self.INTEGRANDS[kind]
        edges = start + np.concatenate(([0.0], np.cumsum(lengths)))
        result = gauss_kronrod(integrand(shape), edges, 1e-10)
        assert result.shape == (len(lengths),)
        for a, b, value in zip(edges[:-1], edges[1:], result):
            assert value == pytest.approx(exact(shape, a, b - a), rel=1e-10)
        reverse = gauss_kronrod(integrand(shape), edges[::-1], 1e-10)
        np.testing.assert_allclose(reverse, -result[::-1], rtol=1e-10)

    def test_an_integrand_that_never_converges_stops_at_200_pieces(self):
        rng = np.random.default_rng(0)
        nodes = []

        def noise(x):
            nodes.append(len(x))
            return rng.random(len(x))

        result = gauss_kronrod(noise, [0.0, 1.0, 2.0], 1e-10)
        assert np.all(np.isfinite(result))
        # per interval: one piece, then at most 199 bisections into two new pieces
        assert 2 * 21 * 100 < sum(nodes) <= 2 * 21 * (1 + 2 * 199)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_a_non_finite_node_value_gives_a_non_finite_segment(self, bad):
        first, second = gauss_kronrod(lambda x: np.where(x > 1.0, bad, 1.0), [0.0, 1.0, 2.0],
                                      1e-10)
        assert first == pytest.approx(1.0, rel=1e-14)
        assert not math.isfinite(second)


class TestFitLine:
    """The least-squares line behind the tail fit, the classifier and the path slope."""

    @given(a=st.floats(-100.0, 100.0), b=st.floats(-100.0, 100.0),
           xs=st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=20)
           .filter(lambda xs: max(xs) - min(xs) >= 1e-2))
    def test_a_line_is_recovered(self, a, b, xs):
        x = np.array(xs)
        slope, x_mean, y_mean = fit_line(x, a + b * x)
        assert slope == pytest.approx(b, abs=1e-7)
        assert y_mean - slope * x_mean == pytest.approx(a, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_polyfit(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 50))
        x = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        y = rng.normal(size=n) + rng.normal() * x
        slope, x_mean, y_mean = fit_line(x, y)
        expected_slope, expected_intercept = np.polyfit(x, y, 1)
        assert slope == pytest.approx(expected_slope, rel=1e-9)
        assert y_mean - slope * x_mean == pytest.approx(expected_intercept, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 5])
    def test_an_x_without_spread_gives_none(self, n):
        assert fit_line(np.full(n, 3.0), np.arange(float(n))) is None
