import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blowuplab import (
    DomainError,
    EnsembleSpec,
    EnsembleStats,
    StochasticModel,
    barometer,
    em_path,
    ensemble,
    gbm_model,
    hyperbolic_sde_model,
    pathwise_growth_slope,
    run_ensemble,
    sde,
    simulate_batches,
    volatility_masking_scan,
)

PAPER = dict(k=0.05, sigma=0.05)


def paper_spec(n_paths, master_seed, t_end=30.0):
    return EnsembleSpec(model=hyperbolic_sde_model(**PAPER), A0=1.0, dt=0.01,
                        t_end=t_end, n_paths=n_paths, master_seed=master_seed)


class TestRunEnsemble:
    def test_serial_equals_parallel(self):
        # workers is accepted and changes nothing
        serial = run_ensemble(paper_spec(700, 11), workers=1)
        threaded = run_ensemble(paper_spec(700, 11), workers=8)
        assert serial.exploded_fraction == threaded.exploded_fraction
        assert serial.absorbed_fraction == threaded.absorbed_fraction
        assert np.array_equal(serial.blowup_times, threaded.blowup_times)
        assert serial.quantiles == threaded.quantiles
        assert np.array_equal(serial.terminal_values, threaded.terminal_values)
        assert np.array_equal(serial.slopes, threaded.slopes, equal_nan=True)
        assert np.array_equal(serial.outcomes, threaded.outcomes)
        assert np.array_equal(serial.event_times, threaded.event_times,
                              equal_nan=True)
        assert np.array_equal(serial.final_levels, threaded.final_levels,
                              equal_nan=True)

    def test_single_path_matches_em_path(self):
        stats = run_ensemble(paper_spec(1, 77))
        path = em_path(hyperbolic_sde_model(**PAPER), 1.0, 0.01, 30.0,
                       seed=(77, 0))
        assert stats.outcomes[0] == "survived"
        assert not path.exploded and not path.absorbed
        assert math.isnan(stats.event_times[0])
        assert stats.final_levels[0] == path.values[-1]
        assert stats.slopes[0] == pytest.approx(pathwise_growth_slope(path),
                                                rel=1e-12)

    def test_single_exploding_path_matches_em_path(self):
        model = hyperbolic_sde_model(0.05, 0.0)
        spec = EnsembleSpec(model=model, A0=1.0, dt=0.01, t_end=30.0,
                            n_paths=1, master_seed=77)
        stats = run_ensemble(spec)
        path = em_path(model, 1.0, 0.01, 30.0, seed=(77, 0))
        assert stats.outcomes[0] == "exploded"
        assert stats.event_times[0] == path.event_time
        assert stats.final_levels[0] >= spec.threshold

    def test_zero_noise_ensemble_is_degenerate(self):
        spec = EnsembleSpec(model=hyperbolic_sde_model(0.01, 0.0), A0=1.0,
                            dt=0.01, t_end=150.0, n_paths=16, master_seed=3)
        stats = run_ensemble(spec)
        assert stats.exploded_fraction == 1.0
        assert stats.absorbed_fraction == 0.0
        assert stats.blowup_times.min() == stats.blowup_times.max()
        assert stats.blowup_times[0] == pytest.approx(100.0, abs=0.5)
        assert len(set(stats.quantiles.values())) == 1
        assert stats.terminal_values.size == 0

    def test_master_seed_changes_little(self):
        a = run_ensemble(paper_spec(2000, 42), workers=4)
        b = run_ensemble(paper_spec(2000, 43), workers=4)
        assert abs(a.exploded_fraction - b.exploded_fraction) < 0.05
        assert abs(a.absorbed_fraction - b.absorbed_fraction) < 0.05

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            run_ensemble(EnsembleSpec(model=None, A0=1.0, dt=0.01, t_end=1.0,
                                      n_paths=4, master_seed=0))
        with pytest.raises(DomainError):
            run_ensemble(paper_spec(0, 1))
        bad = EnsembleSpec(model=hyperbolic_sde_model(**PAPER), A0=-1.0,
                           dt=0.01, t_end=1.0, n_paths=4, master_seed=0)
        with pytest.raises(DomainError):
            run_ensemble(bad)
        for threshold in (-5.0, math.nan):
            with pytest.raises(DomainError, match="threshold"):
                run_ensemble(dataclasses.replace(paper_spec(4, 0), threshold=threshold))
        for threshold in (0.5, 1.0):
            spec = dataclasses.replace(paper_spec(4, 0), threshold=threshold)
            with pytest.raises(DomainError, match="initial level"):
                spec.validate()

    @pytest.mark.parametrize("field", ["n_paths", "master_seed"])
    @pytest.mark.parametrize("value", [10.0, 1.5, True, "3", None])
    def test_spec_rejects_non_integers(self, field, value):
        # a float count would reach range() and a float seed would be
        # truncated to another spec's ensemble
        spec = dataclasses.replace(paper_spec(4, 1), **{field: value})
        with pytest.raises(DomainError, match=field):
            spec.validate()
        with pytest.raises(DomainError, match=field):
            run_ensemble(spec)

    def test_spec_accepts_numpy_integers(self):
        spec = dataclasses.replace(paper_spec(4, 1), n_paths=np.int64(4),
                                   master_seed=np.uint32(1))
        assert run_ensemble(spec).outcomes.tolist() == \
            run_ensemble(paper_spec(4, 1)).outcomes.tolist()


# strong noise and a low threshold give exploded, absorbed and surviving
# paths within a few hundred steps
BATCH_MODELS = st.one_of(
    st.builds(hyperbolic_sde_model, st.sampled_from([0.5, 1.0]),
              st.sampled_from([0.0, 0.8, 1.5])),
    st.builds(gbm_model, st.just(0.5), st.just(1.0), st.sampled_from([0.3, 1.0])),
)


class TestSimulateBatch:
    @settings(max_examples=25, deadline=None)
    @given(members=st.lists(st.tuples(BATCH_MODELS, st.integers(1, 9),
                                      st.sampled_from([5, 6, 2 ** 40])),
                            min_size=1, max_size=4),
           steps=st.integers(1, 250),
           threshold=st.sampled_from([5.0, 1e9]),
           block=st.sampled_from([3, 64, 4096]),
           budget=st.sampled_from([1, 4, 17, 1 << 21]),
           width=st.sampled_from([1, 2, 5, 4096]),
           few=st.sampled_from([0, sde._FEW_LANES, 10 ** 6]),
           record_points=st.one_of(st.none(), st.integers(1, 150)))
    def test_rows_do_not_depend_on_the_batch_around_them(
            self, members, steps, threshold, block, budget, width, few, record_points):
        # common master seeds make lanes share streams, which each block
        # draws once; small blocks and budgets split the draws differently,
        # a small pass width steps the path indices in several passes, and
        # the lane count at which a pass leaves the array step varies
        specs = [EnsembleSpec(model=model, A0=1.0, dt=0.01, t_end=steps * 0.01,
                              n_paths=n_paths, master_seed=seed, threshold=threshold)
                 for model, n_paths, seed in members]
        alone = [simulate_batches([spec], record_points)[0] for spec in specs]
        with mock.patch.object(sde, "_BLOCK_STEPS", block), \
                mock.patch.object(sde, "_DRAW_BUDGET", budget), \
                mock.patch.object(sde, "_PASS_STREAMS", width), \
                mock.patch.object(sde, "_FEW_LANES", few):
            together = simulate_batches(specs, record_points=record_points)
        assert len(together) == len(specs)
        for reference, batch in zip(alone, together):
            for field in dataclasses.fields(reference):
                name = field.name
                expected, got = getattr(reference, name), getattr(batch, name)
                if expected is None:
                    assert got is None and record_points is None
                else:
                    assert got.dtype == expected.dtype
                    assert got.shape == expected.shape
                    assert got.tobytes() == expected.tobytes(), name
            for name in ("n_paths", "exploded_fraction", "absorbed_fraction",
                         "slope_mean", "slope_std"):
                assert getattr(batch, name) == getattr(reference, name), name
            assert np.array_equal(batch.survived, reference.survived)

    @pytest.mark.parametrize("seed", range(5))
    def test_a_power_law_spec_gives_its_own_bits_beside_a_large_one(self, seed):
        # Python's ** on a float and numpy's array power round differently in
        # the last ulp, so the spec's 12 lanes must step the same way alone
        # and beside 200 hyperbolic paths on another seed: on floats, each
        # alone from the start
        model = StochasticModel(drift=lambda a: 0.4 * a ** 1.5,
                                diffusion=lambda a: 0.9 * a ** 1.2, label="power")
        small = EnsembleSpec(model=model, A0=1.0, dt=0.01, t_end=5.0, n_paths=12,
                             master_seed=seed)
        alone = simulate_batches([small], 50)[0]
        beside = simulate_batches([small, paper_spec(200, seed + 100, t_end=5.0)], 50)[0]
        for field in dataclasses.fields(alone):
            name = field.name
            assert getattr(beside, name).tobytes() == getattr(alone, name).tobytes(), name

    def test_rejects_an_empty_list_and_mismatched_grids(self):
        with pytest.raises(DomainError, match="empty"):
            simulate_batches([])
        base = paper_spec(3, 1)
        for change in (dict(A0=2.0), dict(dt=0.02), dict(t_end=20.0),
                       dict(threshold=1e8)):
            with pytest.raises(DomainError, match="share"):
                simulate_batches([base, dataclasses.replace(base, **change)])
        # each spec is still validated on its own
        with pytest.raises(DomainError, match="n_paths"):
            simulate_batches([base, dataclasses.replace(base, n_paths=0)])

    def test_rows_follow_path_order(self):
        spec = paper_spec(3, 77)
        batch = simulate_batches([spec], 100)[0]
        assert batch.series.shape == (3, len(batch.rec_steps))
        for index in range(3):
            path = em_path(spec.model, 1.0, 0.01, 30.0, seed=(77, index))
            row = batch.series[index]
            kept = np.isfinite(row)
            assert np.array_equal(path.values[batch.rec_steps[kept]], row[kept])

    def test_rejects_nonpositive_record_points(self):
        with pytest.raises(DomainError):
            simulate_batches([paper_spec(2, 1)], 0)[0]

    @pytest.mark.parametrize("record_points", [2.5, True])
    def test_rejects_non_integral_record_points(self, record_points):
        with pytest.raises(DomainError, match="record_points must be an integer"):
            simulate_batches([paper_spec(2, 1)], record_points)

    def test_is_the_one_result_type(self):
        stats = simulate_batches([paper_spec(2, 1)])[0]
        assert type(stats) is EnsembleStats
        assert stats.rec_steps is None and stats.series is None


@pytest.fixture(scope="module")
def stats():
    return run_ensemble(paper_spec(500, 42), workers=4)


SCAN_TEMPLATE = EnsembleSpec(model=None, A0=1.0, dt=0.01, t_end=80.0,
                             n_paths=60, master_seed=2718)
SCAN_SIGMAS = [0.0, 0.02, 0.1]


@pytest.fixture(scope="module")
def points():
    return volatility_masking_scan(0.01, SCAN_SIGMAS, SCAN_TEMPLATE,
                                   window=64, record_points=320)


class TestStatsInvariants:
    def test_fractions_and_counts_agree(self, stats):
        n = stats.n_paths
        exploded = int(np.count_nonzero(stats.outcomes == "exploded"))
        absorbed = int(np.count_nonzero(stats.outcomes == "absorbed"))
        survived = int(np.count_nonzero(stats.outcomes == "survived"))
        assert exploded + absorbed + survived == n
        assert stats.exploded_fraction == exploded / n
        assert stats.absorbed_fraction == absorbed / n
        assert stats.terminal_values.size == survived
        assert stats.blowup_times.size == exploded
        assert stats.slopes.size == n

    def test_event_times_mark_non_survivors(self, stats):
        finite = np.isfinite(stats.event_times)
        assert np.array_equal(finite, stats.outcomes != "survived")
        assert np.all(stats.event_times[finite] > 0.0)

    def test_final_levels_semantics(self, stats):
        absorbed = stats.outcomes == "absorbed"
        assert np.all(np.isnan(stats.final_levels[absorbed]))
        exploded = stats.outcomes == "exploded"
        assert np.all(stats.final_levels[exploded] >= 1e9)
        survived = stats.outcomes == "survived"
        assert np.array_equal(np.sort(stats.final_levels[survived]),
                              np.sort(stats.terminal_values))

    def test_blowup_times_sorted_and_quantiles_monotone(self, stats):
        times = stats.blowup_times
        assert np.all(np.diff(times) >= 0.0)
        orders = sorted(stats.quantiles)
        values = [stats.quantiles[q] for q in orders]
        assert orders == [5, 25, 50, 75, 95]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert times.min() <= values[0] and values[-1] <= times.max()

    def test_slope_summary_matches_measurable_slopes(self, stats):
        measured = stats.slopes[np.isfinite(stats.slopes)]
        assert stats.slope_mean == pytest.approx(float(measured.mean()))
        assert stats.slope_std == pytest.approx(float(measured.std(ddof=1)))

    @settings(max_examples=50)
    @given(rows=st.lists(st.tuples(st.sampled_from(["exploded", "absorbed", "survived"]),
                                   st.floats(0.01, 100.0),
                                   st.one_of(st.just(math.nan), st.floats(-1.0, 1.0))),
                         min_size=1, max_size=30))
    def test_derived_values_recompute_from_the_path_arrays(self, rows):
        # few paths, so the empty-quantile and single-slope cases come up
        outcomes = np.array([outcome for outcome, _, _ in rows])
        times = np.array([time for _, time, _ in rows])
        slopes = np.array([slope for _, _, slope in rows])
        levels = np.where(outcomes == "absorbed", np.nan, 10.0 * times)
        stats = EnsembleStats(outcomes=outcomes, final_levels=levels, slopes=slopes,
                              event_times=np.where(outcomes == "survived", np.nan, times))
        n = len(rows)
        assert stats.n_paths == n
        for outcome in ("exploded", "absorbed"):
            count = sum(1 for row in rows if row[0] == outcome)
            assert getattr(stats, f"{outcome}_fraction") == count / n
        measurable = [slope for _, _, slope in rows if not math.isnan(slope)]
        assert stats.slope_mean == (float(np.mean(measurable)) if measurable else None)
        assert stats.slope_std == (float(np.std(measurable, ddof=1))
                                   if len(measurable) > 1 else None)
        exploded = sorted(time for outcome, time, _ in rows if outcome == "exploded")
        assert stats.blowup_times.tolist() == exploded
        assert stats.quantiles == ({q: float(np.quantile(exploded, q / 100.0))
                                    for q in (5, 25, 50, 75, 95)} if exploded else None)
        assert stats.terminal_values.tolist() == [10.0 * time for outcome, time, _ in rows
                                                  if outcome == "survived"]


class TestMaskingScan:
    def test_noiseless_growth_is_always_flagged(self, points):
        assert points[0].sigma == 0.0
        assert points[0].flagged_fraction == 1.0
        assert points[0].n_analyzed == points[0].n_paths

    def test_noise_masks_the_signal(self, points):
        fractions = [p.flagged_fraction for p in points]
        assert fractions[1] < fractions[0]
        assert fractions[2] < fractions[0]
        # frozen run: 1.0, 0.45, then 23 of 59 once one path is absorbed
        assert fractions[1] == pytest.approx(0.45, abs=1e-12)
        assert points[2].n_analyzed == 59

    def test_absorbed_paths_leave_the_denominator(self, points):
        noisy = points[2]
        assert noisy.absorbed_fraction == pytest.approx(1.0 / 60.0)
        assert noisy.n_analyzed == noisy.n_paths - 1
        assert noisy.flagged_fraction == noisy.n_flagged / noisy.n_analyzed

    def test_flags_match_a_loop_of_barometer_over_the_survivors(self, points):
        specs = [dataclasses.replace(SCAN_TEMPLATE, model=hyperbolic_sde_model(0.01, sigma))
                 for sigma in SCAN_SIGMAS]
        for point, spec, stats in zip(points, specs, simulate_batches(specs, 320)):
            times = stats.rec_steps * spec.dt
            n_flagged = sum(int(barometer(times, stats.series[lane], 64).flagged)
                            for lane in np.flatnonzero(stats.survived))
            assert point.n_flagged == n_flagged

    def test_rejects_bad_arguments(self):
        template = EnsembleSpec(model=None, A0=1.0, dt=0.01, t_end=80.0,
                                n_paths=4, master_seed=0)
        with pytest.raises(DomainError):
            volatility_masking_scan(0.01, [], template)
        with pytest.raises(DomainError):
            volatility_masking_scan(0.01, [0.1, 0.1], template)
        with pytest.raises(DomainError):
            volatility_masking_scan(0.01, [0.1, 0.05], template)
        with pytest.raises(DomainError):
            volatility_masking_scan(0.01, [0.0], template, window=4)
        with pytest.raises(DomainError):
            volatility_masking_scan(0.01, [0.0], template, window=64,
                                    record_points=32)
        with pytest.raises(DomainError, match="initial level"):
            volatility_masking_scan(0.01, [0.0],
                                    dataclasses.replace(template, threshold=1.0))

    def test_rejects_a_non_integral_window(self):
        template = EnsembleSpec(model=None, A0=1.0, dt=0.01, t_end=1.0,
                                n_paths=2, master_seed=0)
        with pytest.raises(DomainError, match="window must be an integer"):
            volatility_masking_scan(0.01, [0.0], template, window=8.5, record_points=64)

    def test_short_grid_is_rejected_before_stepping(self):
        # 50 steps record 51 samples, fewer than the window; the threshold
        # makes every path explode, so no survivor would reach the check
        # after the batch
        template = EnsembleSpec(model=None, A0=1.0, dt=0.01, t_end=0.5,
                                n_paths=4, master_seed=0, threshold=1.0001)
        with mock.patch.object(ensemble, "simulate_batches",
                               side_effect=AssertionError("stepped")):
            with pytest.raises(DomainError, match="51 samples"):
                volatility_masking_scan(0.01, [0.0, 0.1], template, window=64,
                                        record_points=64)

    @settings(max_examples=200, deadline=None)
    @given(n_steps=st.integers(1, 3000), window=st.integers(8, 400),
           extra_points=st.integers(0, 400))
    def test_short_grid_check_matches_the_recorded_lattice(self, n_steps, window,
                                                           extra_points):
        # the scan checks the step count; the recorded lattice it stands
        # for is short exactly when the step count is
        record_points = window + extra_points
        lattice = sde._record_lattice(n_steps, max(1, n_steps // record_points))
        template = EnsembleSpec(model=None, A0=1.0, dt=1.0, t_end=float(n_steps),
                                n_paths=1, master_seed=0)
        stepped = AssertionError("stepped")
        with mock.patch.object(ensemble, "simulate_batches", side_effect=stepped):
            with pytest.raises((DomainError, AssertionError)) as info:
                volatility_masking_scan(0.01, [0.0], template, window=window,
                                        record_points=record_points)
        assert (info.value is not stepped) == (len(lattice) < window)
        if len(lattice) < window:
            assert f"{len(lattice)} samples" in str(info.value)
