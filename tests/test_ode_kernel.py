"""The Dormand-Prince step on Python floats against the numpy step it replaces.

``numpy_try_step`` and ``numpy_error_norm`` are the earlier kernel: the
state, the stages and the error estimate are float64 arrays and every
stage sum is an array expression.  The float kernel is straight-line
code that ``ode._build_step`` compiles once per dimension, one local
per component and stage; it sums the same terms in the same order, left
to right, so the two must agree bit for bit, including on which trial
steps fail.  The oracle has no stage re-sum with ``h`` folded in;
``TestStageSafety`` covers that path.

The float kernel calls a field's rate through ``ode._list_rate``, a
list of floats in and a list out.  For a field the user builds that is
the array rate on a fresh float64 array; the oracle steps call the same
array rate.  A ``dsl.to_field`` field is evaluated on the floats
themselves; the oracle runs it rebuilt as ``VectorField(dimension,
rate, names)``, which has only the array rate, and so does the
benchmark's traced run.  ``TestFloatRate`` checks that the two
evaluations agree bit for bit.
"""

import dataclasses
import hashlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blowuplab import (
    FieldEvaluationError,
    IntegrationOptions,
    VectorField,
    dsl,
    estimate_blowup_time,
    integrate,
    ode,
)

_STAGE_COEFFS = ode._STAGE_COEFFS
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_E = _B5 - _B4


def numpy_try_step(rate, y, f0, h):
    """The array step; ``rate`` is a list rate, as ``ode._list_rate`` gives."""
    k = [f0]
    with np.errstate(all="ignore"):
        for i in range(1, 7):
            coeffs = _STAGE_COEFFS[i]
            increment = coeffs[0] * k[0]
            for a_ij, k_j in zip(coeffs[1:], k[1:]):
                if a_ij != 0.0:
                    increment = increment + a_ij * k_j
            y_stage = y + h * increment
            if not np.all(np.isfinite(y_stage)):
                return None
            k.append(np.array(rate(y_stage.tolist())))
            if not np.all(np.isfinite(k[-1])):
                return None
        y_new = y_stage
        f_new = k[6]
        err = h * sum(e_i * k_i for e_i, k_i in zip(_E, k) if e_i != 0.0)
    if not np.all(np.isfinite(err)):
        return None
    return y_new, f_new, err


def numpy_error_norm(err, y_old, y_new, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def numpy_step_on_lists(rate, y, f0, h):
    out = numpy_try_step(rate, np.array(y), np.array(f0), h)
    return None if out is None else tuple(part.tolist() for part in out)


def numpy_norm_on_lists(err, y_old, y_new, rtol, atol):
    return numpy_error_norm(np.array(err), np.array(y_old), np.array(y_new), rtol, atol)


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


# fields of the shapes the corpus uses: power, log-type and product laws
FIELDS = {
    "power": lambda c, n: lambda y: c * y ** n,
    "log-type": lambda c, n: lambda y: c * y * np.log(1.0 + y) ** n,
    "product": lambda c, n: lambda y: c * np.prod(y) ** (n / 2.0),
}


@st.composite
def step_cases(draw):
    dim = draw(st.sampled_from([1, 2, 3, 7, 12]))
    kind = draw(st.sampled_from(sorted(FIELDS)))
    # growing and decaying fields, so either the old or the new state
    # can be the larger one in the error scale
    sign = draw(st.sampled_from([1.0, -1.0]))
    c = sign * np.array(draw(st.lists(st.floats(1e-3, 10.0), min_size=dim,
                                      max_size=dim)))
    n = draw(st.floats(1.0, 3.0))
    y = np.array(draw(st.lists(st.floats(1e-3, 1e6), min_size=dim, max_size=dim)))
    # from tiny steps to ones whose stages overflow to inf
    h = 10.0 ** draw(st.floats(-12.0, 12.0))
    return FIELDS[kind](c, n), y, h


class TestStepOracle:
    @settings(max_examples=400)
    @given(case=step_cases(), rtol=st.sampled_from([1e-8, 1e-4]),
           atol=st.sampled_from([1e-10, 1e-3]))
    def test_bitwise(self, case, rtol, atol):
        rate, y, h = case
        rate = ode._list_rate(VectorField(len(y), rate))
        with np.errstate(all="ignore"):
            f0 = rate(y.tolist())
            assert np.all(np.isfinite(f0))
            expected = numpy_try_step(rate, y, np.array(f0), h)
            got = ode._try_step(rate, y.tolist(), f0, h)
        if expected is None:
            assert got is None
            return
        assert got is not None
        for new, old in zip(got, expected):
            assert isinstance(new, list)
            assert bits(new) == bits(old)
        y_new, _, err = got
        norm = ode._error_norm(err, y.tolist(), y_new, rtol, atol)
        with np.errstate(over="ignore"):
            old_norm = numpy_error_norm(expected[2], y, expected[0], rtol, atol)
        assert bits([norm]) == bits([old_norm])

    def test_a_traceback_names_the_compiled_step(self):
        def rate(y):
            raise ZeroDivisionError("rate")

        with pytest.raises(ZeroDivisionError) as info:
            ode._try_step(rate, [1.0, 2.0], [1.0, 1.0], 0.1)
        assert "<dopri5 step, dimension 2>" in [entry.frame.code.raw.co_filename
                                                for entry in info.traceback]


def corpus_laws():
    """Laws shaped like the benchmark corpus, as lambda and DSL fields."""
    laws = []
    for n, k in ((1.1, 0.05), (1.5, 0.02), (2.0, 0.03), (3.0, 0.07)):
        t_star = 1.0 / (k * (n - 1.0))
        laws.append((f"{k}*A^{n}", "dA = k*A^n", {"k": k, "n": n},
                     lambda y, k=k, n=n: np.array([k * y[0] ** n]),
                     [1.0], 1.5 * t_star, None))
    c = 1.3
    laws.append(("c*A*ln(A)^2", "dA = c*A*ln(A)^2", {"c": c},
                 lambda y: np.array([c * y[0] * np.log(y[0]) ** 2]),
                 [math.e], 1e4 / c, IntegrationOptions(blowup_tol=0.01 / c)))
    laws.append(("c*A*ln(A)", "dA = c*A*ln(A)", {"c": c},
                 lambda y: np.array([c * y[0] * np.log(y[0])]),
                 [math.e], 1e4 / c, None))
    k1, k2 = 0.04, 0.09
    laws.append(("coupled", "dY = k1*Y*A; dA = k2*Y*A", {"k1": k1, "k2": k2},
                 lambda y: np.array([k1 * y[0] * y[1], k2 * y[0] * y[1]]),
                 [k1 / k2, 1.0], 1.5 / k1, None))
    cases = []
    for name, source, params, rate, y0, t_end, opts in laws:
        cases.append(pytest.param(VectorField(len(y0), rate), y0, t_end, opts,
                                  id=f"lambda {name}"))
        cases.append(pytest.param(dsl.to_field(dsl.parse(source), params), y0, t_end,
                                  opts, id=f"dsl {name}"))
    return cases


def array_only(field):
    """``field`` rebuilt from its public parts, so it keeps only the array rate."""
    return VectorField(field.dimension, field.rate, field.names)


def run_all(field, y0, t_end, opts):
    event = estimate_blowup_time(field, y0, t_end, opts)
    trail = integrate(field, y0, t_end)
    grid = np.linspace(0.0, 0.5 * t_end, 11)
    sampled = integrate(field, y0, 0.5 * t_end, t_eval=grid)
    return event, trail, sampled


def assert_same_runs(new, old):
    assert repr(new[0]) == repr(old[0])
    for got, expected in zip(new[1:], old[1:]):
        assert repr(got.blowup) == repr(expected.blowup)
        assert got.times.tobytes() == expected.times.tobytes()
        assert got.states.tobytes() == expected.states.tobytes()
        assert got.states.dtype == np.float64


class TestEndToEndOracle:
    @pytest.mark.parametrize("field, y0, t_end, opts", corpus_laws())
    def test_same_results_as_a_core_on_the_numpy_step(self, field, y0, t_end, opts):
        new = run_all(field, y0, t_end, opts)
        # the numpy step on the array rate alone
        with mock.patch.object(ode, "_try_step", numpy_step_on_lists), \
                mock.patch.object(ode, "_error_norm", numpy_norm_on_lists):
            old = run_all(array_only(field), y0, t_end, opts)
        assert_same_runs(new, old)

    def test_integrate_outputs_are_pinned(self):
        # times, states and blow-up of 90 runs, pinned: laws that blow up
        # at a threshold crossing (t = 100), in a stall that tail
        # extrapolation resolves (t = 0.5) and not at all, and a coupled
        # and a three-factor system (t = 20 and 4.6287); on no grid, seven
        # points from 0, points ending before the blow-up, t_end alone, 0
        # alone and 30 random times.  The rates use only + - * /, which
        # round the same on every CPU (see test_em_path_outputs_are_pinned);
        # the tail fits' np.log gives the same digest with numpy's AVX2 and
        # AVX-512 loops turned off (NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4")
        product = "(E1*E2*E3)"
        laws = [("dA = 0.01*A*A", [1.0], 150.0, 90.0),
                ("dA = A*A*A", [1.0], 2.0, 0.45),
                ("dA = 0.5*A", [1.0], 20.0, 10.0),
                ("dY = 0.05*Y*A; dA = 0.1*Y*A", [0.5, 1.0], 30.0, 18.0),
                (f"dE1 = 0.05*{product}; dE2 = 0.1*{product}; dE3 = 0.25*{product}",
                 [0.5, 1.0, 2.0], 6.0, 4.0)]
        options = [IntegrationOptions(), IntegrationOptions(rtol=1e-6),
                   IntegrationOptions(blowup_threshold=1e4)]
        rng = np.random.default_rng(22)
        digest = hashlib.sha256()
        for source, y0, t_end, before in laws:
            field = dsl.to_field(dsl.parse(source))
            grids = [None, np.linspace(0.0, t_end, 7), np.linspace(0.25 * before, before, 5),
                     [t_end], [0.0], np.sort(rng.uniform(0.0, t_end, 30))]
            for grid in grids:
                for opts in options:
                    trail = integrate(field, y0, t_end, opts, t_eval=grid)
                    for part in (trail.times, trail.states):
                        digest.update(part.tobytes())
                    digest.update(repr(trail.blowup).encode())
        assert digest.hexdigest() == \
            "47ded8b50f3f2d33bdd2e0c7b4bd8f9a82e7ce8f4eb00a3ae1678792314268d5"


class TestStageSafety:
    """No non-finite state ever reaches the user's rate."""

    @staticmethod
    def recording(fn):
        seen = []

        def rate(y):
            seen.append(np.array(y, copy=True))
            return fn(y)
        return rate, seen

    def test_overflowing_cubic_stages_never_reach_the_rate(self):
        # y**3 overflows above 5.6e102, well before the pole at t = 0.5,
        # so trial steps that overshoot get an infinite stage derivative
        rate, seen = self.recording(lambda y: 1e-200 * y ** 3)
        failed = []
        step = ode._try_step

        def spy(*args):
            out = step(*args)
            failed.append(out is None)
            return out

        field = VectorField(1, rate)
        opts = IntegrationOptions(blowup_threshold=1e200)
        with mock.patch.object(ode, "_try_step", spy):
            trail = integrate(field, [1e100], 1.0, opts)
            event = estimate_blowup_time(field, [1e100], 1.0, opts)
        assert trail.blowup is not None
        assert event.estimate == pytest.approx(0.5, rel=1e-6)
        assert any(failed)
        assert seen and all(np.all(np.isfinite(y)) for y in seen)

    def test_levels_past_double_range_fail_the_clock_stage(self):
        # the polynomial tail of A*ln(A)^1.5 stays above 2% of the sum, so
        # the clock climbs until exp(ln A) overflows, with the rate below A
        rate, seen = self.recording(lambda y: 1e-5 * y * np.log(y) ** 1.5)
        field = VectorField(1, rate)
        assert estimate_blowup_time(field, [math.e], 1e7) is None
        assert max(float(y[0]) for y in seen) > 1e307
        assert all(np.all(np.isfinite(y)) for y in seen)
        # with no threshold to pass, the failure is left to the stepping in
        # t, which raises as integrate does
        unbounded = IntegrationOptions(blowup_threshold=math.inf)
        with pytest.raises(FieldEvaluationError, match="t=192492.98"):
            estimate_blowup_time(field, [math.e], 1e7, unbounded)

    def test_the_stall_probe_never_reaches_the_rate_past_double_range(self):
        # integrate stalls next to double max, where the probe y + h_min*f
        # overflows: it fails as a stage does, without calling the rate
        rate, seen = self.recording(lambda y: 1e-5 * y * np.log(y) ** 1.5)
        with pytest.raises(FieldEvaluationError, match="t=192492.98"):
            integrate(VectorField(1, rate), [math.e], 1e7,
                      IntegrationOptions(blowup_threshold=math.inf))
        assert max(float(y[0]) for y in seen) > 1e307
        assert all(np.all(np.isfinite(y)) for y in seen)

    def test_overflowing_stage_states_never_reach_the_rate(self):
        # once the derivative 2*y passes 1.55e307, a stage increment
        # such as -25360/2187 * k overflows before h scales it down; the
        # kernel sums such a stage again with h folded in, so the path
        # reaches a threshold just below the top of the float range
        rate, seen = self.recording(lambda y: 2.0 * y)
        event = integrate(VectorField(1, rate), [1e300], 30.0,
                          IntegrationOptions(blowup_threshold=5e307)).blowup
        # y = 1e300 * exp(2t) reaches 5e307 at t = 8.8638
        assert event.t_low < 8.8638 < event.t_high
        assert event.t_high - event.t_low < 0.01
        assert max(float(y[0]) for y in seen) > 1.55e307
        assert all(np.all(np.isfinite(y)) for y in seen)
        # 2*y itself overflows at 8.99e307, below a threshold of 1e308
        seen.clear()
        with pytest.raises(FieldEvaluationError, match="left the representable range"):
            integrate(VectorField(1, rate), [1e300], 30.0,
                      IntegrationOptions(blowup_threshold=1e308))
        assert max(float(y[0]) for y in seen) > 8e307
        assert all(np.all(np.isfinite(y)) for y in seen)

    def test_a_stage_is_summed_again_in_every_component(self):
        # only Y's stage sums overflow; A's are finite but are summed
        # again with h folded in too, and must stay on exp(0.5*t)
        rate, seen = self.recording(lambda y: np.array([2.0, 0.5]) * y)
        trail = integrate(VectorField(2, rate), [1e300, 1.0], 30.0,
                          IntegrationOptions(blowup_threshold=5e307))
        assert max(float(y[0]) for y in seen) > 1.55e307
        assert all(np.all(np.isfinite(y)) for y in seen)
        # Y = 1e300 * exp(2t) reaches 5e307 at t = 8.8638
        assert trail.blowup.t_low < 8.8638 < trail.blowup.t_high
        assert trail.states[-1, 1] == pytest.approx(math.exp(0.5 * trail.times[-1]), rel=1e-6)

    def test_log_overshoot_is_a_field_error_showing_the_array(self):
        rate, seen = self.recording(lambda y: np.array([math.log(y[0] - 0.5) * y[0]]))
        with pytest.raises(FieldEvaluationError) as info:
            integrate(VectorField(1, rate), [1.0], 5.0)
        assert "at state array([" in str(info.value)
        assert all(np.all(np.isfinite(y)) for y in seen)
        assert all(isinstance(y, np.ndarray) and y.dtype == np.float64 for y in seen)

    def test_other_field_errors_show_the_array(self):
        with pytest.raises(FieldEvaluationError, match=r"initial state array\(\[1\.\]\)"):
            integrate(VectorField(1, lambda y: np.array([math.nan])), [1.0], 1.0)
        # the first step is below the step floor, and the stall probe
        # one floor step ahead overflows y**3
        with pytest.raises(FieldEvaluationError,
                           match=r"adjacent to t=0\.0, state array\(\[1\.e\+100\]\)"):
            integrate(VectorField(1, lambda y: 1e-10 * y ** 3), [1e100], 10.0)
        # a DSL law whose constant part is undefined fails on every call,
        # on the floats as on the array
        with pytest.raises(FieldEvaluationError,
                           match=r"failed at state array\(\[1\.\]\): invalid arithmetic in '1 / 0'"):
            integrate(dsl.to_field(dsl.parse("dA = A + 1/0")), [1.0], 1.0)


@st.composite
def float_rate_cases(draw):
    """A DSL field and a state, often one where Python's arithmetic raises:
    ``**`` past the double range, ``x/0.0``, ``0.0**-1`` and a fractional
    power of a negative base."""
    k = draw(st.floats(1e-3, 10.0))
    n = draw(st.floats(-2.0, 3.0))
    x = draw(st.floats(0.5, 5.0))
    source, params = draw(st.sampled_from([
        ("dA = k*A^n", {"k": k, "n": n}),
        ("dA = c*A*ln(A)^q", {"c": k, "q": n}),
        ("dA = exp(A)", {}),
        ("dA = k*A/(A-x)", {"k": k, "x": x}),
        ("dA = (A-x)^0.5", {"x": x}),
        ("dY = k*Y*A^n; dA = c*Y*A", {"k": k, "n": n, "c": x}),
    ]))
    field = dsl.to_field(dsl.parse(source), params)
    level = st.one_of(st.floats(-1e3, 1e3), st.floats(1e100, 1e300),
                      st.sampled_from([0.0, -0.0, x, -x, 1.0, 1e308]))
    return field, draw(st.lists(level, min_size=field.dimension, max_size=field.dimension))


class TestFloatRate:
    """A DSL field steps on floats with the bits of its array rate."""

    @settings(max_examples=500)
    @given(case=float_rate_cases())
    def test_bitwise_with_the_array_rate(self, case):
        field, y = case
        with np.errstate(all="ignore"):
            got = ode._list_rate(field)(y)
            expected = field.rate(np.array(y))
        assert all(type(value) is float for value in got)
        assert bits(got) == bits(expected)

    @pytest.mark.parametrize("source, params, y", [
        ("dA = k*A^n", {"k": 2.0, "n": 3.0}, [1e200]),
        ("dA = k*A^n", {"k": 2.0, "n": -1.0}, [0.0]),
        ("dA = k*A/(A-x)", {"k": 2.0, "x": 1.5}, [1.5]),
        ("dA = (A-x)^0.5", {"x": 1.5}, [1.0]),
        # np.log of Python's complex is numpy's complex, which float() would take
        ("dA = ln((A-x)^0.5)", {"x": 1.5}, [1.0]),
    ])
    def test_arithmetic_python_refuses_is_done_on_an_array(self, source, params, y):
        field = dsl.to_field(dsl.parse(source), params)
        # warnings ignored, as outside this suite, where float() would take
        # numpy's complex with a warning instead of raising
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises((ArithmeticError, TypeError)):
                field._float_rate(y)
            got = ode._list_rate(field)(y)
            expected = field.rate(np.array(y))
        assert bits(got) == bits(expected)
        assert not all(map(math.isfinite, got))

    def test_the_float_rate_is_not_part_of_the_value(self):
        field = dsl.to_field(dsl.parse("dA = 2*A"))
        assert field._float_rate is not None
        assert array_only(field) == field and hash(array_only(field)) == hash(field)
        assert repr(array_only(field)) == repr(field)
        # a field rebuilt, or given another rate, steps through its array rate
        assert array_only(field)._float_rate is None
        assert dataclasses.replace(field, rate=lambda y: 3.0 * y)._float_rate is None

    @pytest.mark.parametrize("field, y0, t_end, opts", corpus_laws())
    def test_a_rebuilt_field_gives_the_same_runs(self, field, y0, t_end, opts):
        assert_same_runs(run_all(field, y0, t_end, opts),
                         run_all(array_only(field), y0, t_end, opts))
