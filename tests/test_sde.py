import math

import numpy as np
import pytest

from blowuplab import (
    DomainError,
    InsufficientDataError,
    PathResult,
    StochasticModel,
    em_path,
    ergodic_drift,
    ergodicity_check,
    gbm_model,
    gbm_time_average_exponent,
    hyperbolic_sde_model,
    pathwise_growth_slope,
)


def exact_path(times, values):
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    return PathResult(times=times, values=values, outcome="survived",
                      event_time=None, seed=(0, 0))


class TestModels:
    def test_gbm_coefficients(self):
        model = gbm_model(0.00462, 100.0, 0.001)
        assert model.label == "gbm"
        assert model.drift(1.0) == pytest.approx(0.462)
        assert model.diffusion(1.0) == pytest.approx(0.1)
        assert model.drift(3.0) == pytest.approx(3.0 * 0.462)

    def test_gbm_zero_noise_is_deterministic_exponential(self):
        model = gbm_model(0.05, 1.0, 0.0)
        path = em_path(model, 1.0, 0.001, 10.0, seed=123)
        assert not path.exploded
        assert path.values[-1] == pytest.approx(math.exp(0.05 * 10.0), rel=1e-3)

    def test_hyperbolic_coefficients(self):
        model = hyperbolic_sde_model(0.05, 0.05)
        assert model.label == "hyperbolic-sde"
        assert model.drift(2.0) == pytest.approx(0.2)
        assert model.diffusion(2.0) == pytest.approx(0.2)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            gbm_model(-0.1, 1.0, 0.1)
        with pytest.raises(DomainError):
            hyperbolic_sde_model(0.05, -0.01)


class TestTimeAverageExponent:
    def test_zero_noise(self):
        assert gbm_time_average_exponent(0.05, 1.0, 0.0) == pytest.approx(0.05)

    def test_ito_correction(self):
        assert gbm_time_average_exponent(0.05, 1.0, 0.1) == pytest.approx(0.045)

    def test_drift_equals_half_variance(self):
        assert gbm_time_average_exponent(0.005, 1.0, 0.1) == pytest.approx(
            0.0, abs=1e-15)

    def test_scales_with_driver(self):
        assert gbm_time_average_exponent(0.0005, 10.0, 0.01) == pytest.approx(
            0.005 - 0.5 * 0.1 ** 2)


class TestEmPath:
    def test_zero_noise_matches_hyperbola(self):
        model = hyperbolic_sde_model(0.01, 0.0)
        path = em_path(model, 1.0, 0.001, 150.0, seed=5)
        assert path.exploded
        assert path.event_time == pytest.approx(100.0, abs=0.1)
        keep = path.times <= 90.0
        exact = 1.0 / (1.0 - 0.01 * path.times[keep])
        assert np.max(np.abs(path.values[keep] - exact)) < 0.01

    def test_first_order_convergence(self):
        model = hyperbolic_sde_model(0.01, 0.0)
        errors = []
        steps = [0.01, 0.005, 0.0025]
        for dt in steps:
            path = em_path(model, 1.0, dt, 90.0, seed=1)
            exact = 1.0 / (1.0 - 0.01 * path.times)
            errors.append(float(np.max(np.abs(path.values - exact))))
        slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
        assert slope >= 0.95

    def test_frozen_path_stays_constant(self):
        model = StochasticModel(drift=lambda A: 0.0 * np.asarray(A),
                                diffusion=lambda A: 0.0 * np.asarray(A),
                                label="custom")
        path = em_path(model, 7.0, 0.01, 5.0, seed=9)
        assert not path.exploded and not path.absorbed
        assert np.all(path.values == 7.0)

    def test_seed_determinism_bitwise(self):
        model = hyperbolic_sde_model(0.05, 0.05)
        one = em_path(model, 1.0, 0.01, 50.0, seed=(42, 3))
        two = em_path(model, 1.0, 0.01, 50.0, seed=(42, 3))
        assert np.array_equal(one.times, two.times)
        assert np.array_equal(one.values, two.values)
        assert one.exploded == two.exploded
        assert one.seed == two.seed == (42, 3)

    def test_different_seeds_differ(self):
        model = hyperbolic_sde_model(0.05, 0.05)
        one = em_path(model, 1.0, 0.01, 20.0, seed=(42, 0))
        two = em_path(model, 1.0, 0.01, 20.0, seed=(42, 1))
        assert not np.array_equal(one.values, two.values)

    def test_infinite_threshold_runs_to_the_horizon(self):
        path = em_path(gbm_model(0.0005, 100.0, 0.001), 1.0, 0.01, 10.0, seed=3,
                       threshold=math.inf)
        assert not path.exploded and not path.absorbed
        assert len(path.times) == 1001
        assert path.times[-1] == pytest.approx(10.0)

    def test_infinite_threshold_ends_on_overflow(self):
        # an inf threshold means the path ends only when the level overflows
        model = StochasticModel(drift=lambda a: a**3, diffusion=lambda a: 0.0 * a,
                                label="cubic")
        path = em_path(model, 1.0, 0.01, 10.0, seed=0, threshold=math.inf)
        assert path.exploded and not path.absorbed
        assert path.event_time is not None
        # no crossing sample: the last sample is the last finite level
        assert np.all(np.isfinite(path.values))
        assert len(path.times) == round(path.event_time / 0.01)
        assert path.times[-1] < path.event_time

    def test_negative_excursion_is_absorbed(self):
        model = StochasticModel(drift=lambda A: -1000.0 * np.ones_like(np.asarray(A, dtype=float)),
                                diffusion=lambda A: 0.0 * np.asarray(A),
                                label="custom")
        path = em_path(model, 1.0, 0.01, 5.0, seed=2)
        assert path.absorbed and not path.exploded
        assert path.outcome == "absorbed"
        assert path.event_time is not None

    def test_explosion_flags_are_consistent(self):
        model = hyperbolic_sde_model(0.05, 0.0)
        path = em_path(model, 1.0, 0.01, 50.0, seed=0)
        assert path.exploded
        assert path.event_time is not None
        assert np.all(np.isfinite(path.values))

    def test_input_validation(self):
        model = hyperbolic_sde_model(0.05, 0.05)
        with pytest.raises(DomainError):
            em_path(model, -1.0, 0.01, 10.0, seed=0)
        with pytest.raises(DomainError):
            em_path(model, 1.0, 0.0, 10.0, seed=0)
        with pytest.raises(DomainError):
            em_path(model, 1.0, 0.01, 10.0, seed=(1, 2, 3))
        for threshold in (-5.0, 0.0, math.nan):
            with pytest.raises(DomainError, match="threshold"):
                em_path(model, 1.0, 0.01, 10.0, seed=0, threshold=threshold)

    @pytest.mark.parametrize("seed", [1.5, (True, 0.9), (0, 2.0), None])
    def test_rejects_a_non_integral_seed(self, seed):
        with pytest.raises(DomainError, match="must be an integer"):
            em_path(hyperbolic_sde_model(0.05, 0.05), 1.0, 0.01, 1.0, seed=seed)

    def test_numpy_integer_seeds_pass(self):
        model = hyperbolic_sde_model(0.05, 0.05)
        path = em_path(model, 1.0, 0.01, 1.0, seed=(np.int64(3), np.uint8(1)))
        assert path.seed == (3, 1)
        assert path.values.tobytes() == em_path(model, 1.0, 0.01, 1.0,
                                                seed=(3, 1)).values.tobytes()

    def test_threshold_must_exceed_the_initial_level(self):
        # a threshold at or below A0 would "explode" every path at step 1
        model = hyperbolic_sde_model(0.05, 0.05)
        for threshold in (0.5, 1.0):
            with pytest.raises(DomainError, match="initial level"):
                em_path(model, 1.0, 0.01, 10.0, seed=0, threshold=threshold)


class TestPathwiseSlope:
    def test_exponential_slope(self):
        times = np.linspace(0.0, 10.0, 200)
        path = exact_path(times, np.exp(0.462 * times))
        assert pathwise_growth_slope(path) == pytest.approx(0.462, abs=1e-6)

    def test_constant_path_slope_zero(self):
        times = np.linspace(0.0, 10.0, 50)
        path = exact_path(times, np.full(50, 3.0))
        assert pathwise_growth_slope(path) == pytest.approx(0.0, abs=1e-12)

    def test_exploded_path_drops_its_crossing_sample(self):
        path = em_path(hyperbolic_sde_model(0.5, 0.1), 1.0, 0.01, 10.0, seed=0,
                       threshold=50.0)
        assert path.exploded and len(path.times) == 191
        assert path.times[-1] == path.event_time == pytest.approx(1.9)
        assert pathwise_growth_slope(path) == pytest.approx(1.280799981006795, rel=1e-12)
        # the same samples on a path that did not explode keep the crossing
        whole = exact_path(path.times, path.values)
        assert pathwise_growth_slope(whole) == pytest.approx(1.3118234007988414, rel=1e-12)

    def test_insufficient_data(self):
        times = np.linspace(0.0, 1.0, 5)
        with pytest.raises(InsufficientDataError):
            pathwise_growth_slope(exact_path(times, np.exp(times)))


class TestErgodicityCheck:
    def test_hyperbolic_reproduces_transformed_drift(self):
        # the grid zero of a_u sits off-grid here, so the pointwise
        # relative comparison is well-conditioned everywhere
        k, sigma = 0.04, 0.07
        report = ergodicity_check(hyperbolic_sde_model(k, sigma))
        expected = (k - sigma ** 2 * report.levels) / sigma
        rel = np.max(np.abs(report.drift_of_u - expected) / np.abs(expected))
        assert rel <= 1e-4
        assert not report.transform_exists

    def test_hyperbolic_paper_setting_normwise(self):
        k, sigma = 0.05, 0.05
        report = ergodicity_check(hyperbolic_sde_model(k, sigma))
        expected = (k - sigma ** 2 * report.levels) / sigma
        scale = float(np.max(np.abs(expected)))
        assert float(np.max(np.abs(report.drift_of_u - expected))) <= 1e-4 * scale
        assert not report.transform_exists
        assert report.constancy_score > 1.0

    def test_gbm_transform_exists(self):
        report = ergodicity_check(gbm_model(0.00462, 100.0, 0.001))
        assert report.transform_exists
        assert report.constancy_score < 1e-6
        # u'(A) = 1/(sigma*I*A) integrates to a logarithm
        logs = np.log(report.levels / report.levels[0]) / 0.1
        assert np.allclose(report.u_of_A, logs, rtol=1e-8, atol=1e-10)

    def test_small_levels_approximate_transform(self):
        report = ergodicity_check(hyperbolic_sde_model(0.01, 0.1),
                                  levels=np.linspace(0.001, 0.01, 12))
        assert not report.transform_exists
        assert report.constancy_score < 0.01

    def test_vanishing_diffusion_reported_not_raised(self):
        model = StochasticModel(drift=lambda A: 0.1 * np.asarray(A),
                                diffusion=lambda A: 0.0 * np.asarray(A),
                                label="custom")
        report = ergodicity_check(model)
        assert not report.transform_exists
        assert report.reason is not None
        assert math.isinf(report.constancy_score)

    def test_constant_coefficients_score_zero(self):
        report = ergodicity_check(StochasticModel(drift=lambda A: 0.3,
                                                  diffusion=lambda A: 0.2))
        assert report.constancy_score == 0.0
        assert report.transform_exists

    def test_drift_with_zero_mean_scores_inf(self):
        # on the default grid 1, 2, ..., 100 the drift A - 50.5 averages
        # to exactly 0, so no relative deviation exists
        report = ergodicity_check(StochasticModel(drift=lambda A: A - 50.5,
                                                  diffusion=lambda A: 1.0))
        assert float(np.mean(report.drift_of_u)) == 0.0
        assert report.constancy_score == math.inf
        assert not report.transform_exists

    def test_grid_validation(self):
        model = gbm_model(0.05, 1.0, 0.1)
        with pytest.raises(DomainError):
            ergodicity_check(model, levels=[1.0, 2.0])
        with pytest.raises(DomainError):
            ergodicity_check(model, levels=[1.0, 3.0, 2.0])
        with pytest.raises(DomainError):
            ergodicity_check(model, levels=[-1.0, 1.0, 2.0])


class TestErgodicDrift:
    def test_recovers_gbm_drift(self):
        mu, sigma = 0.07, 0.2
        drift = ergodic_drift(lambda A: sigma * np.asarray(A),
                              (mu - sigma ** 2 / 2.0) / sigma)
        probe = np.array([1.0, 5.0, 42.0])
        assert np.allclose(drift(probe), mu * probe, rtol=1e-9)
        assert isinstance(drift(2.0), float)

    def test_quadratic_diffusion_drift(self):
        k, sigma = 0.05, 0.05
        drift = ergodic_drift(lambda A: sigma * np.asarray(A) ** 2, k / sigma)
        probe = np.array([1.0, 3.0, 10.0])
        assert np.allclose(drift(probe), k * probe ** 2 + sigma ** 2 * probe ** 3,
                           rtol=1e-9)

    def test_constant_diffusion_constant_drift(self):
        beta, alpha = 0.3, 0.04
        drift = ergodic_drift(
            lambda A: beta * np.ones_like(np.asarray(A, dtype=float)),
            alpha / beta)
        assert drift(17.0) == pytest.approx(alpha, rel=1e-9)

    @pytest.mark.parametrize("diffusion,ratio", [
        (lambda A: 0.2 * np.asarray(A), 0.3),
        (lambda A: 0.05 * np.asarray(A) ** 2, 1.0),
        (lambda A: 0.3 * np.ones_like(np.asarray(A, dtype=float)), 0.1),
    ])
    def test_round_trip_constancy(self, diffusion, ratio):
        drift = ergodic_drift(diffusion, ratio)
        model = StochasticModel(drift=drift, diffusion=diffusion, label="custom")
        report = ergodicity_check(model)
        assert report.transform_exists
        assert report.constancy_score < 1e-6

    def test_zero_scale_rejected(self):
        with pytest.raises(DomainError):
            ergodic_drift(3.5, 1.0)
