"""The Euler-Maruyama kernels against the masked lockstep loop they replace.

``masked_lockstep`` is the earlier batch kernel: every lane, live or
dead, draws, steps and accumulates masked slope sums on every step.
The compacted batch kernel and the scalar ``em_path`` loop must
reproduce it bit for bit on product-form models.  A spec with at most
``sde._FEW_LANES`` paths steps every lane in ``em_path``'s loop, so it
reproduces ``em_path`` bit for bit for any model.
"""

import copy
import dataclasses
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blowuplab import (
    EnsembleSpec,
    EnsembleStats,
    FieldEvaluationError,
    StochasticModel,
    em_path,
    gbm_model,
    hyperbolic_sde_model,
    run_ensemble,
    sde,
    simulate_batches,
)


def masked_lockstep(model, A0, dt, n_steps, rngs, threshold, record_stride=None):
    n = len(rngs)
    sqdt = math.sqrt(dt)
    a = np.full(n, float(A0))
    alive = np.ones(n, dtype=bool)
    exploded = np.zeros(n, dtype=bool)
    absorbed = np.zeros(n, dtype=bool)
    event_time = np.full(n, np.nan)
    final_value = np.full(n, np.nan)

    t_shift = 0.5 * n_steps * dt
    cnt = np.zeros(n)
    st_ = np.zeros(n)
    stt = np.zeros(n)
    sy = np.zeros(n)
    sty = np.zeros(n)

    recording = record_stride is not None
    rec_steps = None
    series = None
    rec_pos = 0
    if recording:
        stride = max(1, int(record_stride))
        steps = list(range(0, n_steps + 1, stride))
        if steps[-1] != n_steps:
            steps.append(n_steps)
        rec_steps = np.array(steps, dtype=np.int64)
        series = np.full((n, len(rec_steps)), np.nan)
        series[:, 0] = a
        rec_pos = 1

    def accumulate(t_value):
        if not alive.any():
            return
        ts = t_value - t_shift
        y = np.where(alive, np.log(np.where(alive, a, 1.0)), 0.0)
        live = alive.astype(float)
        cnt[:] += live
        st_[:] += live * ts
        stt[:] += live * ts * ts
        sy[:] += y
        sty[:] += y * ts

    step = 0
    while step < n_steps:
        block = min(sde._BLOCK_STEPS, n_steps - step)
        draws = np.empty((n, block))
        for i, rng in enumerate(rngs):
            draws[i] = rng.standard_normal(block)
        for j in range(block):
            accumulate(step * dt)
            if not alive.any():
                step = n_steps
                break
            with np.errstate(all="ignore"):
                drift = np.asarray(model.drift(a), dtype=float)
                diffusion = np.asarray(model.diffusion(a), dtype=float)
                a_next = a + drift * dt + diffusion * sqdt * draws[:, j]
            step += 1
            t_next = step * dt
            nonfinite = ~np.isfinite(a_next)
            newly_exploded = alive & (nonfinite | (a_next >= threshold))
            newly_absorbed = alive & ~newly_exploded & (a_next <= 0.0)
            if newly_exploded.any():
                exploded |= newly_exploded
                event_time[newly_exploded] = t_next
                crossing_ok = newly_exploded & ~nonfinite
                final_value[crossing_ok] = a_next[crossing_ok]
            if newly_absorbed.any():
                absorbed |= newly_absorbed
                event_time[newly_absorbed] = t_next
            survivors = alive & ~newly_exploded & ~newly_absorbed
            a = np.where(survivors, a_next, a)
            alive = survivors
            if recording and rec_pos < len(rec_steps) and step == rec_steps[rec_pos]:
                series[:, rec_pos] = np.where(alive, a, np.nan)
                rec_pos += 1
        else:
            continue
        break
    if alive.any():
        accumulate(n_steps * dt)

    with np.errstate(all="ignore"):
        sxx = stt - st_ * st_ / np.maximum(cnt, 1.0)
        sxy = sty - st_ * sy / np.maximum(cnt, 1.0)
        slopes = np.where((cnt >= sde._MIN_SLOPE_SAMPLES) & (sxx > 0.0), sxy / sxx, np.nan)

    return EnsembleStats(outcomes=np.where(exploded, "exploded",
                                           np.where(absorbed, "absorbed", "survived")),
                         event_times=event_time,
                         final_levels=np.where(alive, a, final_value),
                         slopes=slopes, rec_steps=rec_steps, series=series)


def oracle_batch(spec, record_points=None):
    n_steps = spec.steps()
    stride = None if record_points is None else max(1, n_steps // record_points)
    rngs = [sde._derive_rng(spec.master_seed, i) for i in range(spec.n_paths)]
    return masked_lockstep(spec.model, spec.A0, spec.dt, n_steps, rngs,
                           spec.threshold, record_stride=stride)


def assert_batches_identical(expected, got):
    for field in dataclasses.fields(expected):
        want, have = getattr(expected, field.name), getattr(got, field.name)
        if want is None:
            assert have is None, field.name
        else:
            assert have.dtype == want.dtype, field.name
            assert have.shape == want.shape, field.name
            assert have.tobytes() == want.tobytes(), field.name


def absorbing_model(push):
    # a downward push against proportional noise: most paths hit zero
    return StochasticModel(drift=lambda a: 0.1 * a - push,
                           diffusion=lambda a: 0.8 * a, label="absorbing")


def cliff_model(floor):
    # the drift is -inf below ``floor``, so a step from there lands on -inf
    return StochasticModel(drift=lambda a: np.where(a < floor, -np.inf, 0.2 * a),
                           diffusion=lambda a: 0.6 * a, label="cliff")


MODELS = {
    "hyperbolic": st.builds(hyperbolic_sde_model, st.floats(0.2, 2.0),
                            st.floats(0.0, 2.0)),
    "gbm": st.builds(gbm_model, st.floats(0.01, 1.0), st.floats(0.5, 2.0),
                     st.floats(0.0, 1.0)),
    "absorbing": st.builds(absorbing_model, st.floats(0.5, 5.0)),
    "cliff": st.builds(cliff_model, st.floats(0.3, 0.95)),
}


# the batch kernel steps a spec's lanes on arrays while more than
# sde._FEW_LANES of them are live in a pass, and each alone on Python floats
# after that: 0 keeps every step on arrays and 10**6 steps every lane alone
FEW_LANES = [0, sde._FEW_LANES, 10 ** 6]

# the arrays step in chunks of at most sde._CHUNK_STEPS steps of a block, and
# lanes end, leave for floats and are recorded once per chunk: chunks of 1 and
# 7 steps put those events at every row of a chunk and on chunk edges
CHUNK_STEPS = [1, 7, sde._CHUNK_STEPS]

# models outside product form: Python's ** on a float and numpy's array
# power may round differently in the last ulp
POWER_MODELS = st.one_of(
    st.builds(lambda c, s: StochasticModel(drift=lambda a: c * a ** 1.5,
                                           diffusion=lambda a: s * a ** 1.2, label="power"),
              st.floats(0.2, 1.0), st.floats(0.3, 1.5)),
    st.builds(lambda s: StochasticModel(drift=lambda a: a ** 3, diffusion=lambda a: s * a,
                                        label="cubic"), st.floats(0.1, 1.0)),
)


class TestBatchMatchesMaskedLockstep:
    # more paths than sde._FEW_LANES let a pass switch from arrays to
    # floats, and one-row blocks put a switch on a block's last row
    @settings(max_examples=40)
    @given(model=st.one_of(*MODELS.values()),
           n_paths=st.integers(1, 40), steps=st.integers(1, 300),
           master_seed=st.integers(0, 2 ** 32 - 1),
           threshold=st.sampled_from([2.0, 5.0, 1e9]),
           block=st.sampled_from([1, 7, 64, 4096]),
           chunk=st.sampled_from(CHUNK_STEPS),
           few=st.sampled_from(FEW_LANES),
           record_points=st.one_of(st.none(), st.integers(1, 120)))
    def test_bitwise(self, model, n_paths, steps, master_seed, threshold, block, chunk, few,
                     record_points):
        spec = EnsembleSpec(model=model, A0=1.0, dt=0.01, t_end=steps * 0.01,
                            n_paths=n_paths, master_seed=master_seed,
                            threshold=threshold)
        with mock.patch.object(sde, "_BLOCK_STEPS", block), \
                mock.patch.object(sde, "_CHUNK_STEPS", chunk), \
                mock.patch.object(sde, "_FEW_LANES", few):
            expected = oracle_batch(spec, record_points)
            got = simulate_batches([spec], record_points)[0]
        assert_batches_identical(expected, got)

    @settings(max_examples=25, deadline=None)
    @given(members=st.lists(st.tuples(st.one_of(*MODELS.values()), st.integers(1, 8),
                                      st.sampled_from([0, 1, 2 ** 32 - 1])),
                            min_size=2, max_size=4),
           steps=st.integers(1, 300),
           threshold=st.sampled_from([2.0, 5.0, 1e9]),
           block=st.sampled_from([1, 7, 4096]),
           width=st.sampled_from([3, 4096]),
           chunk=st.sampled_from(CHUNK_STEPS),
           few=st.sampled_from(FEW_LANES),
           record_points=st.one_of(st.none(), st.integers(1, 120)))
    def test_bitwise_multi_spec(self, members, steps, threshold, block, width, chunk, few,
                                record_points):
        specs = [EnsembleSpec(model=model, A0=1.0, dt=0.01, t_end=steps * 0.01,
                              n_paths=n_paths, master_seed=seed, threshold=threshold)
                 for model, n_paths, seed in members]
        with mock.patch.object(sde, "_BLOCK_STEPS", block), \
                mock.patch.object(sde, "_PASS_STREAMS", width), \
                mock.patch.object(sde, "_CHUNK_STEPS", chunk), \
                mock.patch.object(sde, "_FEW_LANES", few):
            expected = [oracle_batch(spec, record_points) for spec in specs]
            got = simulate_batches(specs, record_points=record_points)
        for want, have in zip(expected, got, strict=True):
            assert_batches_identical(want, have)

    # hyperbolic specs of different k and sigma, a gbm spec and a user's model
    # that splits the run of hyperbolic specs: the built-in models carry their
    # law, a run of one law steps with one call on per-lane parameters, and
    # each must give the bits of the callables that a replace copy steps by
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(),
           hyperbolic=st.lists(MODELS["hyperbolic"], min_size=2, max_size=4),
           gbm=MODELS["gbm"], user=st.one_of(MODELS["absorbing"], MODELS["cliff"]),
           steps=st.integers(1, 300),
           threshold=st.sampled_from([2.0, 5.0, 1e9]),
           block=st.sampled_from([1, 7, 1024]),
           chunk=st.sampled_from(CHUNK_STEPS),
           few=st.sampled_from([0, 3, 16]),
           record_points=st.sampled_from([None, 7]))
    def test_a_run_of_one_law_steps_as_its_models_alone(self, data, hyperbolic, gbm, user, steps,
                                                         threshold, block, chunk, few,
                                                         record_points):
        split = data.draw(st.integers(1, len(hyperbolic) - 1))
        models = hyperbolic[:split] + [user] + hyperbolic[split:]
        models.insert(data.draw(st.integers(0, len(models))), gbm)
        specs = [EnsembleSpec(model=model, A0=1.0, dt=0.01, t_end=steps * 0.01,
                              n_paths=data.draw(st.integers(1, 40)),
                              master_seed=data.draw(st.sampled_from([0, 1])), threshold=threshold)
                 for model in models]
        copies = [dataclasses.replace(s, model=dataclasses.replace(s.model, label=s.model.label))
                  for s in specs]
        assert all(copy.model._columns is None for copy in copies)
        assert sum(spec.model._columns is not None for spec in specs) == len(specs) - 1
        with mock.patch.object(sde, "_BLOCK_STEPS", block), \
                mock.patch.object(sde, "_CHUNK_STEPS", chunk), \
                mock.patch.object(sde, "_FEW_LANES", few):
            got = simulate_batches(specs, record_points)
            by_callables = simulate_batches(copies, record_points)
            alone = [simulate_batches([spec], record_points)[0] for spec in specs]
        for have, want, single in zip(got, by_callables, alone, strict=True):
            assert_batches_identical(want, have)
            assert_batches_identical(single, have)

    def test_a_replace_copy_is_called_through_its_callables(self):
        # a copy has no law, so a wrapper around its drift (as a tracer's) is
        # called once per array step, even beside specs of the model's law
        model = hyperbolic_sde_model(0.05, 0.05)
        sizes = []

        def drift(a):
            sizes.append(np.size(a))
            return model.drift(a)

        specs = [EnsembleSpec(model=m, A0=1.0, dt=0.01, t_end=1.0, n_paths=40, master_seed=3)
                 for m in (model, dataclasses.replace(model, drift=drift), model)]
        with mock.patch.object(sde, "_FEW_LANES", 0):
            got = simulate_batches(specs)
        assert got[1].survived.all()
        assert sizes == [40] * 100
        for batch in got[1:]:
            assert_batches_identical(got[0], batch)

    @pytest.mark.parametrize("chunk", CHUNK_STEPS)
    @pytest.mark.parametrize("few", [0, sde._FEW_LANES])
    def test_a_callable_sees_no_level_that_ended_a_lane(self, chunk, few):
        # a law's lanes step on to the end of their chunk after they end, but
        # a batch with a model that carries no law ends each chunk at the
        # first step that ends a lane, so this drift never raises
        threshold = 5.0

        def drift(a):
            if not np.all((a > 0.0) & (a < threshold)):
                raise ValueError("drift called on a level that ended its lane")
            return 0.3 * a - 0.5

        strict = StochasticModel(drift=drift, diffusion=lambda a: 0.9 * a, label="strict")
        specs = [EnsembleSpec(model=model, A0=1.0, dt=0.01, t_end=5.0, n_paths=n_paths,
                              master_seed=7, threshold=threshold)
                 for model, n_paths in ((hyperbolic_sde_model(1.0, 1.5), 60), (strict, 50))]
        with mock.patch.object(sde, "_CHUNK_STEPS", chunk), \
                mock.patch.object(sde, "_FEW_LANES", few):
            got = simulate_batches(specs, 40)
        for spec, batch in zip(specs, got, strict=True):
            assert_batches_identical(oracle_batch(spec, 40), batch)
            assert batch.absorbed.any() and batch.exploded.any()

    def test_a_pass_leaves_the_array_step_within_a_block(self):
        # four specs of more than sde._FEW_LANES paths on one master seed, so
        # they share streams, and one model returns one number.  The first
        # three end lanes on arrays until at most sde._FEW_LANES of theirs are
        # left, inside a block of 64 steps, then finish each alone on floats:
        # the draws left in the block, then a copy of a generator that the
        # fourth spec's lanes, on arrays to the horizon, go on drawing from
        constant = StochasticModel(drift=lambda a: -1.0, diffusion=lambda a: 0.5,
                                   label="constant")
        specs = [EnsembleSpec(model=model, A0=1.0, dt=0.01, t_end=3.0, n_paths=n_paths,
                              master_seed=5)
                 for model, n_paths in ((absorbing_model(2.0), 20), (absorbing_model(1.0), 24),
                                        (constant, 22), (gbm_model(0.1, 1.0, 0.3), 30))]
        with mock.patch.object(sde, "_BLOCK_STEPS", 64):
            got = simulate_batches(specs, 60)
        for spec, batch in zip(specs, got):
            assert_batches_identical(oracle_batch(spec, 60), batch)
        ends = [np.where(batch.survived, np.inf, batch.event_times) for batch in got]
        switches = [np.sort(end)[end.size - sde._FEW_LANES - 1] for end in ends]
        assert all(0 < round(switch / 0.01) % 64 for switch in switches[:3])
        assert got[3].survived.sum() > sde._FEW_LANES
        # each leaving spec still has live lanes after its switch, one survives
        assert all((end > switch).any() for end, switch in zip(ends, switches[:3]))
        assert got[2].absorbed[ends[2] > switches[2]].all()
        assert sum(batch.survived.sum() for batch in got[:3]) == 1

    @staticmethod
    def hand_overs(specs, chunk):
        """The specs' stats, and the steps at which each spec's lanes left for floats."""
        with mock.patch.object(sde, "_float_path", wraps=sde._float_path) as float_path, \
                mock.patch.object(sde, "_BLOCK_STEPS", 100), \
                mock.patch.object(sde, "_CHUNK_STEPS", chunk):
            got = simulate_batches(specs, 30)
        for spec, batch in zip(specs, got, strict=True):
            assert_batches_identical(oracle_batch(spec, 30), batch)
        steps = {id(spec.model): [] for spec in specs}
        for call in float_path.call_args_list:
            steps[id(call.args[0])].append(call.args[2])
        return got, [steps[id(spec.model)] for spec in specs]

    @pytest.mark.parametrize("chunk", CHUNK_STEPS)
    def test_a_law_batch_hands_lanes_over_at_a_chunk_end(self, chunk):
        # built-in laws give the same bits on floats as on arrays, so a
        # spec's last lanes leave at the end of the chunk in which its live
        # count fell to sde._FEW_LANES; a spec of few paths starts alone
        specs = [EnsembleSpec(model=model, A0=1.0, dt=0.01, t_end=6.0, n_paths=n_paths,
                              master_seed=2, threshold=5.0)
                 for model, n_paths in ((hyperbolic_sde_model(1.0, 1.5), 40),
                                        (gbm_model(1.0, 1.0, 1.0), 30),
                                        (hyperbolic_sde_model(0.5, 1.0), 8))]
        _, steps = self.hand_overs(specs, chunk)
        assert steps[2] == [0] * 8
        assert steps[0] and steps[1]
        # a 100-step block's chunks end at its multiples of chunk, and at 100
        assert all(step % 100 % chunk == 0 for step in steps[0] + steps[1])

    @pytest.mark.parametrize("chunk", CHUNK_STEPS)
    def test_a_guarded_batch_hands_lanes_over_where_they_fall_to_few(self, chunk):
        # a model without a law ends each chunk at the first step that ends
        # a lane, so a spec's last lanes leave at the step where its live
        # count fell to sde._FEW_LANES.  The last spec, a copy without a law
        # whose lanes all survive, keeps every chunk guarded
        calm = dataclasses.replace(gbm_model(0.01, 1.0, 0.1))
        specs = [EnsembleSpec(model=model, A0=1.0, dt=0.01, t_end=6.0, n_paths=n_paths,
                              master_seed=2, threshold=5.0)
                 for model, n_paths in ((absorbing_model(1.0), 30),
                                        (gbm_model(1.0, 1.0, 1.0), 30),
                                        (hyperbolic_sde_model(1.0, 1.5), 40), (calm, 20))]
        got, steps = self.hand_overs(specs, chunk)
        assert got[3].survived.all() and not steps[3]
        for batch, handed in zip(got[:3], steps[:3]):
            ends = np.where(batch.survived, np.inf, np.round(batch.event_times / 0.01))
            switch = np.sort(ends)[ends.size - sde._FEW_LANES - 1]
            assert handed
            assert handed == [switch] * np.count_nonzero(ends > switch)

    # a model outside product form may give other bits on floats than on
    # arrays, so its spec's lanes must leave the arrays at the step they
    # leave alone, whatever specs of built-in laws step beside it, each with
    # more than sde._FEW_LANES paths
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), power=POWER_MODELS,
           others=st.lists(st.one_of(MODELS["hyperbolic"], MODELS["gbm"]),
                           min_size=1, max_size=3),
           steps=st.integers(1, 300),
           threshold=st.sampled_from([2.0, 5.0, 1e9]),
           chunk=st.sampled_from(CHUNK_STEPS),
           record_points=st.sampled_from([None, 7]))
    def test_a_power_spec_steps_beside_others_as_alone(self, data, power, others, steps,
                                                       threshold, chunk, record_points):
        specs = [EnsembleSpec(model=model, A0=1.0, dt=0.01, t_end=steps * 0.01,
                              n_paths=data.draw(st.integers(sde._FEW_LANES + 1, 40)),
                              master_seed=data.draw(st.sampled_from([0, 1])), threshold=threshold)
                 for model in [power] + others]
        at = data.draw(st.integers(0, len(others)))
        specs.insert(at, specs.pop(0))
        with mock.patch.object(sde, "_CHUNK_STEPS", chunk):
            got = simulate_batches(specs, record_points)[at]
            alone = simulate_batches([specs[at]], record_points)[0]
        assert_batches_identical(alone, got)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_every_model_reaches_its_ending(self, name):
        # the property above only means something if the models end lanes
        # the way their names say
        model = {"hyperbolic": hyperbolic_sde_model(1.0, 1.5),
                 "gbm": gbm_model(0.5, 1.0, 1.0),
                 "absorbing": absorbing_model(3.0),
                 "cliff": cliff_model(0.9)}[name]
        spec = EnsembleSpec(model=model, A0=1.0, dt=0.01, t_end=2.0,
                            n_paths=40, master_seed=3, threshold=5.0)
        batch = simulate_batches([spec], 50)[0]
        assert_batches_identical(oracle_batch(spec, 50), batch)
        if name == "absorbing":
            assert batch.absorbed.any()
        elif name == "cliff":
            # -inf counts as exploded, with no finite crossing sample
            assert batch.exploded.any()
            assert np.isnan(batch.final_levels[batch.exploded]).any()
        else:
            assert batch.exploded.any() and batch.survived.any()


class TestSlopeSums:
    # the batch kernel adds a chunk's slope terms at once; each sum must come
    # out as the per-step += of the terms gives it, whatever order numpy's
    # reduce would choose.  Levels span 1e-26..1e26, so an order that
    # differs shows in the last bits
    @settings(max_examples=80, deadline=None)
    @given(lanes=st.integers(1, 40), rows=st.integers(1, 130), first=st.integers(0, 10 ** 4),
           seed=st.integers(0, 2 ** 32 - 1), cuts=st.booleans())
    def test_the_helper_adds_as_a_per_step_loop(self, lanes, rows, first, seed, cuts):
        rng = np.random.default_rng(seed)
        levels = np.exp(rng.normal(0.0, 20.0, (rows, lanes)))
        levels[rng.random((rows, lanes)) < 0.1] = 1.0  # a term of 0.0
        # a lane adds nothing from its row cut on, as a lane that ended
        cut = rng.integers(1, rows + 2, lanes) if cuts else None
        y_run, ty_run = rng.normal(0.0, 1e3, lanes), rng.normal(0.0, 1e5, lanes)
        dt, t_shift = 0.01, 37.5
        # rows of a longer buffer, as the kernel lays out a chunk
        terms = np.empty((rows + 3) * lanes)[:(rows + 1) * lanes].reshape(rows + 1, lanes)
        terms[1:] = levels
        got = sde._add_slope_terms(terms, y_run, ty_run, first, dt, t_shift, cut)
        want = y_run.copy(), ty_run.copy()
        for i, level in enumerate(levels):
            live = slice(None) if cut is None else i + 1 < cut
            y = np.log(level)
            want[0][live] += y[live]
            want[1][live] += (y * ((first + i) * dt - t_shift))[live]
        for have, expected in zip(got, want, strict=True):
            assert have.tobytes() == expected.tobytes()


def assert_row_is_path(batch, index, path, steps):
    # the path keeps every step it was alive for, the batch row the
    # recorded ones among them
    alive = steps + 1 if batch.survived[index] else round(batch.event_times[index] / 0.01)
    times = np.arange(alive) * 0.01
    crossing = batch.final_levels[index]
    if batch.exploded[index] and np.isfinite(crossing):
        times = np.append(times, batch.event_times[index])
        assert path.values[-1] == crossing
    assert path.times.tobytes() == times.tobytes()
    row = batch.series[index]
    kept = batch.rec_steps < alive
    assert np.array_equal(np.isfinite(row), kept)
    assert path.values[batch.rec_steps[kept]].tobytes() == row[kept].tobytes()
    assert path.outcome == batch.outcomes[index]
    if batch.survived[index]:
        assert path.event_time is None
    else:
        assert path.event_time == batch.event_times[index]


class TestScalarPath:
    @settings(max_examples=30)
    @given(model=st.one_of(MODELS["hyperbolic"], MODELS["gbm"]),
           steps=st.integers(1, 400), index=st.integers(0, 50),
           threshold=st.sampled_from([3.0, 1e9]),
           record_points=st.integers(1, 400))
    def test_em_path_equals_the_batch_row(self, model, steps, index, threshold,
                                          record_points):
        spec = EnsembleSpec(model=model, A0=1.0, dt=0.01, t_end=steps * 0.01,
                            n_paths=index + 1, master_seed=11, threshold=threshold)
        batch = simulate_batches([spec], record_points)[0]
        path = em_path(model, 1.0, 0.01, spec.t_end, seed=(11, index), threshold=threshold)
        assert_row_is_path(batch, index, path, steps)

    @settings(max_examples=30)
    @given(model=POWER_MODELS, n_paths=st.integers(1, sde._FEW_LANES),
           steps=st.integers(1, 400), master_seed=st.integers(0, 2 ** 32 - 1),
           threshold=st.sampled_from([3.0, 1e9, 1e300]),
           record_points=st.integers(1, 400))
    def test_a_small_ensemble_is_em_path_for_any_model(self, model, n_paths, steps,
                                                       master_seed, threshold, record_points):
        spec = EnsembleSpec(model=model, A0=1.0, dt=0.01, t_end=steps * 0.01,
                            n_paths=n_paths, master_seed=master_seed, threshold=threshold)
        batch = simulate_batches([spec], record_points)[0]
        for index in range(n_paths):
            path = em_path(model, 1.0, 0.01, spec.t_end, seed=(master_seed, index),
                           threshold=threshold)
            assert_row_is_path(batch, index, path, steps)

    def test_em_path_outputs_are_pinned(self):
        # times, values, outcome and event time of 240 paths, pinned: they
        # survive, explode with and without a crossing sample, and are
        # absorbed.  np.sqrt returns a numpy scalar and rounds correctly on
        # every CPU; np.exp would not do here, since it rounds differently
        # where numpy runs its AVX-512 code
        models = [hyperbolic_sde_model(0.05, 0.05), hyperbolic_sde_model(1.0, 1.5),
                  gbm_model(0.5, 1.0, 1.0),
                  StochasticModel(drift=lambda a: a ** 3, diffusion=lambda a: 0.5 * a,
                                  label="cubic"),
                  StochasticModel(drift=lambda a: np.sqrt(a) * a, diffusion=lambda a: 0.7 * a,
                                  label="numpy-scalar")]
        digest = hashlib.sha256()
        for model in models:
            for t_end in (0.01, 0.37, 5.0, 40.0):
                for seed in (0, (3, 1), (11, 7), (42, 999)):
                    for threshold in (3.0, 1e9, math.inf):
                        path = em_path(model, 1.0, 0.01, t_end, seed, threshold=threshold)
                        for part in (path.times, path.values):
                            digest.update(part.tobytes())
                        digest.update(repr((path.outcome, path.event_time)).encode())
        assert digest.hexdigest() == \
            "76c0ab238c2aeab269083a2a62e2ce42edee6fa3d489f74b7ad984294ce0c904"

    def test_overflowing_power_explodes_without_a_crossing_sample(self):
        model = StochasticModel(drift=lambda a: a ** 3,
                                diffusion=lambda a: 0.5 * a, label="cubic")
        n_steps = 500
        expected = masked_lockstep(model, 1.0, 0.01, n_steps,
                                   [sde._derive_rng(1, 2)], 1e300)
        assert expected.exploded[0] and np.isnan(expected.final_levels[0])
        path = em_path(model, 1.0, 0.01, n_steps * 0.01, seed=(1, 2),
                       threshold=1e300)
        assert path.exploded and not path.absorbed
        assert path.event_time == expected.event_times[0]
        assert path.times[-1] < path.event_time
        assert len(path.values) == round(path.event_time / 0.01)
        assert np.all(np.isfinite(path.values))
        # the last step overflowed a float power, which em_path recovers from
        with pytest.raises(OverflowError):
            float(path.values[-1]) ** 3

    def test_division_by_zero_explodes_as_in_the_batch(self):
        model = StochasticModel(drift=lambda a: 1.0 / (a - 1.0),
                                diffusion=lambda a: 0.0 * a, label="pole")
        spec = EnsembleSpec(model=model, A0=1.0, dt=0.01, t_end=1.0,
                            n_paths=1, master_seed=0)
        batch = simulate_batches([spec], 100)[0]
        path = em_path(model, 1.0, 0.01, 1.0, seed=0)
        assert batch.exploded[0] and path.exploded
        assert path.event_time == batch.event_times[0] == 0.01
        assert path.values.tolist() == [1.0]


class CountingGenerator:
    """A generator that adds the normals it draws, and its copies draw, to ``drawn[0]``."""

    def __init__(self, rng, drawn):
        self.rng = rng
        self.drawn = drawn

    def standard_normal(self, size):
        self.drawn[0] += size
        return self.rng.standard_normal(size)

    def __deepcopy__(self, memo):
        return CountingGenerator(copy.deepcopy(self.rng, memo), self.drawn)


class TestPassesAndBlocks:
    def test_a_spec_splits_into_passes_whatever_runs_beside_it(self):
        # a pass holds the same paths of a spec beside a spec on another
        # master seed as alone, so its lanes leave the arrays at the same
        # steps; Python's ** on floats would show any other step in the bits
        power = StochasticModel(drift=lambda a: 0.4 * a ** 1.5,
                                diffusion=lambda a: 0.9 * a ** 1.2, label="power")
        spec = EnsembleSpec(model=power, A0=1.0, dt=0.01, t_end=5.0, n_paths=40,
                            master_seed=1)
        other = EnsembleSpec(model=hyperbolic_sde_model(0.05, 0.05), A0=1.0, dt=0.01,
                             t_end=5.0, n_paths=50, master_seed=2)
        with mock.patch.object(sde, "_PASS_STREAMS", 40):
            alone = simulate_batches([spec], 100)[0]
            beside = simulate_batches([spec, other], 100)[0]
        assert_batches_identical(alone, beside)

    def test_blocks_draw_little_more_than_the_live_lanes_read(self):
        # criterion 6's ensemble: most paths end early, and each block
        # draws every live stream to the block's end
        spec = EnsembleSpec(model=hyperbolic_sde_model(0.05, 0.05), A0=1.0, dt=0.01,
                            t_end=200.0, n_paths=1000, master_seed=42)
        drawn = [0]
        derive = sde._derive_rng
        with mock.patch.object(sde, "_derive_rng",
                               lambda *seed: CountingGenerator(derive(*seed), drawn)):
            stats = simulate_batches([spec])[0]
        ended = np.isfinite(stats.event_times)
        live = int(np.rint(stats.event_times[ended] / spec.dt).sum()) + \
            spec.steps() * int(np.count_nonzero(~ended))
        assert drawn[0] <= 1.2 * live, (drawn[0], live)


class TestModelFailures:
    """A drift or diffusion that raises surfaces as FieldEvaluationError."""

    @staticmethod
    def failing(exc_type=ZeroDivisionError):
        def drift(a):
            if exc_type is ZeroDivisionError:
                return 1 / 0
            raise exc_type("bad level")
        return StochasticModel(drift=drift, diffusion=lambda a: 0.1 * a,
                               label="broken")

    @pytest.mark.parametrize("exc_type", [ZeroDivisionError, ValueError, TypeError])
    def test_batch(self, exc_type):
        spec = EnsembleSpec(model=self.failing(exc_type), A0=1.0, dt=0.01,
                            t_end=1.0, n_paths=3, master_seed=0)
        with pytest.raises(FieldEvaluationError, match="'broken'") as info:
            run_ensemble(spec)
        assert isinstance(info.value.__cause__, exc_type)

    def test_batch_names_the_failing_member(self):
        good = EnsembleSpec(model=hyperbolic_sde_model(0.5, 0.5), A0=1.0, dt=0.01,
                            t_end=1.0, n_paths=3, master_seed=0)
        bad = dataclasses.replace(good, model=self.failing())
        with pytest.raises(FieldEvaluationError, match="'broken'"):
            simulate_batches([good, bad])

    @pytest.mark.parametrize("exc_type", [ZeroDivisionError, ValueError, TypeError])
    def test_em_path(self, exc_type):
        # ZeroDivisionError is retried on np.float64 and raises again
        with pytest.raises(FieldEvaluationError, match="'broken'") as info:
            em_path(self.failing(exc_type), 1.0, 0.01, 1.0, seed=0)
        assert isinstance(info.value.__cause__, exc_type)

    # drift and diffusion results that are not one number per level
    WRONG_SHAPES = {
        "array drift": (lambda a: np.ones(2), lambda a: 0.1 * a),
        "list drift": (lambda a: [1.0, 1.0], lambda a: 0.1 * a),
        "array diffusion": (lambda a: 0.1 * a, lambda a: np.ones(4)),
        "none drift": (lambda a: None, lambda a: 0.1 * a),
    }
    # a one-element array broadcasts to one number per level in the
    # batch, but em_path needs one number
    NOT_ONE_NUMBER = {**WRONG_SHAPES,
                      "one-element drift": (lambda a: np.array([1.0]) * a, lambda a: 0.0 * a)}

    @pytest.mark.parametrize("case", sorted(WRONG_SHAPES))
    def test_batch_rejects_results_of_the_wrong_shape(self, case):
        drift, diffusion = self.WRONG_SHAPES[case]
        model = StochasticModel(drift=drift, diffusion=diffusion, label="shapeless")
        spec = EnsembleSpec(model=model, A0=1.0, dt=0.01, t_end=1.0, n_paths=3,
                            master_seed=0)
        with pytest.raises(FieldEvaluationError, match=r"'shapeless' .*t=0\.0"):
            run_ensemble(spec)

    @pytest.mark.parametrize("case", sorted(NOT_ONE_NUMBER))
    def test_em_path_rejects_results_that_are_not_one_number(self, case):
        drift, diffusion = self.NOT_ONE_NUMBER[case]
        model = StochasticModel(drift=drift, diffusion=diffusion, label="shapeless")
        # at 1.001 the first step ends the path before a level is recorded
        for threshold in (1e9, 1.001):
            with pytest.raises(FieldEvaluationError, match=r"'shapeless' .*t=0\.0"):
                em_path(model, 1.0, 0.01, 1.0, seed=0, threshold=threshold)

    def test_em_path_reports_the_failing_step(self):
        # the drift pushes the level down until math.log leaves its
        # domain; with no noise that happens at step 39
        model = StochasticModel(drift=lambda a: math.log(a - 1.0),
                                diffusion=lambda a: 0.0 * a, label="log")
        with pytest.raises(FieldEvaluationError, match=r"'log' raised at t=0\.39:"):
            em_path(model, 1.5, 0.01, 1.0, seed=0)
