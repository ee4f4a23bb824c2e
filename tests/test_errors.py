"""Every public entry point rejects a malformed argument with DomainError.

Each row of ``ROWS`` is one scalar parameter of a public function: a
call that takes the parameter's value, a valid value, and numbers out
of its range.  Swapping the valid value for a str, ``None``, a bool, a
complex number, nan or an out-of-range number must raise exactly
:class:`DomainError`; it is itself a ``ValueError``, so a leaked raw
``ValueError`` must not pass.  numpy scalars of a valid value pass.

Each row of ``ARRAY_ROWS`` is one array or sequence argument, or one DSL
parameter binding: swapping its valid value for a str, ``None``, a bool,
a complex number, a bool list, a nested or ragged list, or a list
holding nan, an infinity, ``None``, a str or a complex number must raise
exactly :class:`DomainError` too.

Each row of ``OBJECT_ROWS`` is one argument of another type, such as a
field, a model, a parsed tree, source text or a mapping, or one whose
valid values depend on the others, such as a state that must match the
field's dimension: each of its malformed values, ``None``, an object of
a neighbouring type or a value that breaks that dependence, must raise
exactly :class:`DomainError`.  A name in ``blowuplab.__all__``
that takes an argument is in one of the tables or in ``EXEMPT``.
"""

import dataclasses
import inspect
import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

import blowuplab
from blowuplab import (
    BlowUpTime,
    DomainError,
    EnsembleSpec,
    FieldEvaluationError,
    InsufficientDataError,
    IntegrationOptions,
    StochasticModel,
    VectorField,
    as_function,
    barometer,
    barometer_batch,
    calibrate_k,
    classify_growth_law,
    compose_phases,
    coupled_gdp_solution,
    em_path,
    ergodic_drift,
    ergodicity_check,
    estimate_blowup_time,
    evaluate,
    exp_phase_solution,
    gbm_model,
    gbm_time_average_exponent,
    hyperbolic_blowup_time,
    hyperbolic_sde_model,
    hyperbolic_solution,
    integrate,
    loglaw_solution,
    parse,
    pathwise_growth_slope,
    phase1_duration,
    powerlaw_blowup_time,
    powerlaw_solution,
    pretty_print,
    run_ensemble,
    simulate_batches,
    to_field,
    total_singularity_time,
    volatility_masking_scan,
)
from blowuplab.dsl import Num
from blowuplab.errors import check_array, check_integer, check_real

inf = math.inf


class Row(NamedTuple):
    name: str
    call: Callable
    valid: float
    out_of_range: tuple
    integer: bool = False
    none_ok: bool = False  # None selects a default


POSITIVE = (0, -1.0, inf)
NONNEGATIVE = (-0.5, inf)
FINITE = (inf, -inf)
THRESHOLD = (0.0, -1.0, -inf)

MODEL = hyperbolic_sde_model(0.05, 0.05)
SPEC = EnsembleSpec(model=MODEL, A0=1.0, dt=0.01, t_end=0.1, n_paths=2, master_seed=0)
TEMPLATE = dataclasses.replace(SPEC, model=None, t_end=1.0)
FIELD = VectorField(1, lambda y: y)
TIMES = np.linspace(0.0, 1.0, 16)


def scan(k=0.05, sigma=0.1, window=8, record_points=16):
    return volatility_masking_scan(k, [sigma], TEMPLATE, window=window,
                                   record_points=record_points)


ROWS = [
    # closedform
    Row("calibrate_k.R", lambda v: calibrate_k(v, 1.0), 2, (1.0, 0.5, inf)),
    Row("calibrate_k.I", lambda v: calibrate_k(2.0, v), 1, POSITIVE),
    Row("exp_phase_solution.k", lambda v: exp_phase_solution(v, 1.0, 1.0), 1, POSITIVE),
    Row("exp_phase_solution.I", lambda v: exp_phase_solution(0.1, v, 1.0), 1, POSITIVE),
    Row("exp_phase_solution.t1", lambda v: exp_phase_solution(0.1, 1.0, v), 1, NONNEGATIVE),
    Row("exp_phase_solution.c", lambda v: exp_phase_solution(0.1, 1.0, 1.0, v), 2, POSITIVE),
    Row("phase1_duration.R", lambda v: phase1_duration(v, 100.0), 2, (1.0, inf)),
    Row("phase1_duration.I", lambda v: phase1_duration(2.0, v), 100, (0.5, -1.0, inf)),
    Row("hyperbolic_solution.k", lambda v: hyperbolic_solution(v, 1.0, 0.0), 1, POSITIVE),
    Row("hyperbolic_solution.I", lambda v: hyperbolic_solution(0.1, v, 0.0), 1, POSITIVE),
    Row("hyperbolic_solution.t2", lambda v: hyperbolic_solution(0.1, 1.0, v), 1, NONNEGATIVE),
    Row("hyperbolic_blowup_time.k", lambda v: hyperbolic_blowup_time(v, 1.0), 1, POSITIVE),
    Row("hyperbolic_blowup_time.I", lambda v: hyperbolic_blowup_time(1.0, v), 1, POSITIVE),
    Row("total_singularity_time.R", lambda v: total_singularity_time(v, 100.0), 2, (1.0, inf)),
    Row("total_singularity_time.I", lambda v: total_singularity_time(2.0, v), 100, (0.5, inf)),
    Row("powerlaw_solution.k", lambda v: powerlaw_solution(v, 1.0, 2.0, 0.0), 1, POSITIVE),
    Row("powerlaw_solution.I", lambda v: powerlaw_solution(0.1, v, 2.0, 0.0), 1, POSITIVE),
    Row("powerlaw_solution.n_exp", lambda v: powerlaw_solution(0.1, 1.0, v, 0.0), 2,
        (1.0, 0.5, inf)),
    Row("powerlaw_solution.t2", lambda v: powerlaw_solution(0.1, 1.0, 2.0, v), 1, NONNEGATIVE),
    Row("powerlaw_blowup_time.k", lambda v: powerlaw_blowup_time(v, 1.0, 2.0), 1, POSITIVE),
    Row("powerlaw_blowup_time.I", lambda v: powerlaw_blowup_time(0.1, v, 2.0), 1, POSITIVE),
    Row("powerlaw_blowup_time.n_exp", lambda v: powerlaw_blowup_time(0.1, 1.0, v), 2, FINITE),
    Row("loglaw_solution.c", lambda v: loglaw_solution(v, 1.0, 1.0), 1, FINITE),
    Row("loglaw_solution.k", lambda v: loglaw_solution(1.0, v, 1.0), 1, FINITE),
    Row("loglaw_solution.t", lambda v: loglaw_solution(1.0, 1.0, v), 1, FINITE),
    Row("coupled_gdp_solution.k1", lambda v: coupled_gdp_solution(v, 0.0), 1, POSITIVE),
    Row("coupled_gdp_solution.t", lambda v: coupled_gdp_solution(0.5, v), 1, NONNEGATIVE),
    Row("BlowUpTime.at", BlowUpTime.at, 1, POSITIVE),
    # ode
    Row("VectorField.dimension", lambda v: VectorField(v, FIELD.rate), 1, (0, -1),
        integer=True),
    Row("IntegrationOptions.rtol", lambda v: IntegrationOptions(rtol=v), 1e-6, POSITIVE),
    Row("IntegrationOptions.atol", lambda v: IntegrationOptions(atol=v), 1e-6, POSITIVE),
    Row("IntegrationOptions.blowup_threshold",
        lambda v: IntegrationOptions(blowup_threshold=v), 1e9, THRESHOLD),
    Row("IntegrationOptions.blowup_tol", lambda v: IntegrationOptions(blowup_tol=v), 0.01,
        POSITIVE, none_ok=True),
    Row("integrate.t_end", lambda v: integrate(FIELD, [1.0], v), 1, POSITIVE),
    Row("estimate_blowup_time.t_end", lambda v: estimate_blowup_time(FIELD, [1.0], v), 1,
        POSITIVE),
    # sde
    Row("em_path.A0", lambda v: em_path(MODEL, v, 0.01, 0.1, seed=0), 1, POSITIVE),
    Row("em_path.dt", lambda v: em_path(MODEL, 1.0, v, 0.1, seed=0), 0.01, POSITIVE),
    # a horizon shorter than one step
    Row("em_path.t_end", lambda v: em_path(MODEL, 1.0, 0.01, v, seed=0), 1,
        POSITIVE + (0.005,)),
    Row("em_path.threshold", lambda v: em_path(MODEL, 1.0, 0.01, 0.1, seed=0, threshold=v),
        1e9, THRESHOLD + (0.5,)),
    Row("EnsembleSpec.A0", lambda v: run_ensemble(dataclasses.replace(SPEC, A0=v)), 1,
        POSITIVE),
    Row("EnsembleSpec.dt", lambda v: run_ensemble(dataclasses.replace(SPEC, dt=v)), 0.01,
        POSITIVE),
    Row("EnsembleSpec.t_end", lambda v: run_ensemble(dataclasses.replace(SPEC, t_end=v)), 1,
        POSITIVE),
    Row("EnsembleSpec.threshold",
        lambda v: run_ensemble(dataclasses.replace(SPEC, threshold=v)), 1e9,
        THRESHOLD + (1.0,)),
    Row("simulate_batches.record_points", lambda v: simulate_batches([SPEC], v), 4, (0,),
        integer=True, none_ok=True),
    Row("gbm_model.k", lambda v: gbm_model(v, 1.0, 0.1), 1, POSITIVE),
    Row("gbm_model.I", lambda v: gbm_model(0.1, v, 0.1), 1, POSITIVE),
    Row("gbm_model.sigma", lambda v: gbm_model(0.1, 1.0, v), 0, NONNEGATIVE),
    Row("gbm_time_average_exponent.k", lambda v: gbm_time_average_exponent(v, 1.0, 0.1), 1,
        POSITIVE),
    Row("gbm_time_average_exponent.I", lambda v: gbm_time_average_exponent(0.1, v, 0.1), 1,
        POSITIVE),
    Row("gbm_time_average_exponent.sigma",
        lambda v: gbm_time_average_exponent(0.1, 1.0, v), 0, NONNEGATIVE),
    Row("hyperbolic_sde_model.k", lambda v: hyperbolic_sde_model(v, 0.1), 1, POSITIVE),
    Row("hyperbolic_sde_model.sigma", lambda v: hyperbolic_sde_model(0.1, v), 0, NONNEGATIVE),
    Row("ergodic_drift.a_u", lambda v: ergodic_drift(lambda a: a, v), 1, FINITE),
    # analysis
    Row("classify_growth_law.A0", lambda v: classify_growth_law("A^2", A0=v), 1, POSITIVE),
    Row("barometer.window", lambda v: barometer(TIMES, np.exp(TIMES), v), 8, (7, 0),
        integer=True),
    Row("barometer.z_threshold", lambda v: barometer(TIMES, np.exp(TIMES), 8, v), 3, FINITE),
    Row("barometer_batch.window", lambda v: barometer_batch(TIMES, [np.exp(TIMES)], v), 8,
        (7, 0), integer=True),
    Row("barometer_batch.z_threshold",
        lambda v: barometer_batch(TIMES, [np.exp(TIMES)], 8, v), 3, FINITE),
    Row("compose_phases.R", lambda v: compose_phases(v, 10.0, "0.1*A^2"), 2, (1.0, inf)),
    Row("compose_phases.I", lambda v: compose_phases(2.0, v, "0.1*A^2"), 10, POSITIVE),
    Row("compose_phases.c", lambda v: compose_phases(2.0, 10.0, "0.1*A^2", c=v), 1, POSITIVE),
    Row("compose_phases.switch_level",
        lambda v: compose_phases(2.0, 10.0, "0.1*A^2", switch_level=v), 10, (0.5, inf),
        none_ok=True),
    Row("compose_phases.horizon",
        lambda v: compose_phases(2.0, 10.0, "0.1*A^2", horizon=v), 10, POSITIVE),
    # ensemble
    Row("volatility_masking_scan.k", lambda v: scan(k=v), 1, POSITIVE),
    Row("volatility_masking_scan.sigmas", lambda v: scan(sigma=v), 0, NONNEGATIVE),
    Row("volatility_masking_scan.window", lambda v: scan(window=v), 8, (4, 17), integer=True),
    Row("volatility_masking_scan.record_points", lambda v: scan(record_points=v), 16, (4, 0),
        integer=True),
    # dsl: a literal is what the parser reads, so a minus sign is a Neg node
    Row("Num.value", Num, 1.0, (-1.0, inf, -inf)),
]


class ArrayRow(NamedTuple):
    name: str
    call: Callable
    valid: object  # a list, or one number or object the malformed lists stand in for
    none_ok: bool = False  # None selects a default


SERIES = TIMES.tolist()
WHOLE = len(SERIES)  # a barometer window over every sample, so each entry is read

ARRAY_ROWS = [
    # ode
    ArrayRow("integrate.state0", lambda v: integrate(FIELD, v, 1.0), [1.0]),
    ArrayRow("integrate.t_eval", lambda v: integrate(FIELD, [1.0], 1.0, t_eval=v), [0.25, 0.5],
             none_ok=True),
    ArrayRow("estimate_blowup_time.state0", lambda v: estimate_blowup_time(FIELD, v, 1.0), [1.0]),
    # sde
    ArrayRow("simulate_batches.specs", simulate_batches, [SPEC]),
    ArrayRow("run_ensemble.spec", run_ensemble, SPEC),
    ArrayRow("ergodicity_check.levels", lambda v: ergodicity_check(MODEL, v), [1.0, 2.0, 4.0],
             none_ok=True),
    ArrayRow("pathwise_growth_slope.path", pathwise_growth_slope,
             em_path(MODEL, 1.0, 0.01, 0.2, seed=0)),
    # analysis
    ArrayRow("barometer.times", lambda v: barometer(v, np.exp(TIMES), WHOLE), SERIES),
    ArrayRow("barometer.values", lambda v: barometer(TIMES, v, WHOLE),
             np.exp(TIMES).tolist()),
    ArrayRow("barometer_batch.times", lambda v: barometer_batch(v, [np.exp(TIMES)], WHOLE),
             SERIES),
    ArrayRow("barometer_batch.series", lambda v: barometer_batch(TIMES, v, WHOLE),
             [np.exp(TIMES).tolist()]),
    ArrayRow("classify_growth_law.parameters",
             lambda v: classify_growth_law("k*A^2", parameters={"k": v}), 1.0),
    ArrayRow("compose_phases.parameters",
             lambda v: compose_phases(2.0, 10.0, "k*A^2", parameters={"k": v}), 0.1),
    # ensemble
    ArrayRow("volatility_masking_scan.sigmas",
             lambda v: volatility_masking_scan(0.05, v, TEMPLATE, window=8, record_points=16),
             [0.05, 0.1]),
    # dsl
    ArrayRow("evaluate.bindings", lambda v: evaluate(parse("k*2"), {"k": v}), 2.0),
    ArrayRow("as_function.parameters",
             lambda v: as_function(parse("k*A"), parameters={"k": v})(1.0), 2.0),
    ArrayRow("to_field.parameters", lambda v: to_field(parse("dA = k*A"), {"k": v}), 2.0),
]

class ObjectRow(NamedTuple):
    name: str
    call: Callable
    valid: object
    malformed: tuple


EXPR = parse("k*A")
SYSTEM = parse("dA = k*A")
K = {"k": 2.0}

OBJECT_ROWS = [
    # closedform
    ObjectRow("BlowUpTime.t_star", lambda v: BlowUpTime(finite=False, t_star=v), None, (1.0,)),
    # ode
    ObjectRow("VectorField.names", lambda v: VectorField(1, FIELD.rate, names=v), ("A",),
              (1, "A", (1,), ("A", "B"))),
    ObjectRow("integrate.field", lambda v: integrate(v, [1.0], 1.0), FIELD,
              (None, "dA = A", SYSTEM)),
    ObjectRow("integrate.opts", lambda v: integrate(FIELD, [1.0], 1.0, v), IntegrationOptions(),
              ("x", 1.0, {})),
    # a t_eval outside [0, t_end]; a state of the wrong shape
    ObjectRow("integrate.t_eval", lambda v: integrate(FIELD, [1.0], 1.0, t_eval=v), [0.5],
              ([-0.5, 0.5], [0.5, 2.0])),
    ObjectRow("integrate.state0", lambda v: integrate(FIELD, v, 1.0), [1.0], ([1.0, 2.0],)),
    ObjectRow("estimate_blowup_time.field", lambda v: estimate_blowup_time(v, [1.0], 1.0), FIELD,
              (None, "dA = A", SYSTEM)),
    ObjectRow("estimate_blowup_time.opts", lambda v: estimate_blowup_time(FIELD, [1.0], 1.0, v),
              IntegrationOptions(), ("x", 1.0, {})),
    # sde
    ObjectRow("em_path.model", lambda v: em_path(v, 1.0, 0.01, 0.1, seed=0), MODEL,
              (None, "gbm", SPEC)),
    ObjectRow("ergodicity_check.model", ergodicity_check, MODEL, (None, "gbm", SPEC)),
    # analysis
    ObjectRow("classify_growth_law.law", classify_growth_law, "A^2", ("dA = A; dY = Y", 3.0)),
    ObjectRow("classify_growth_law.parameters",
              lambda v: classify_growth_law("k*A^2", parameters=v), K, (1.0, "k")),
    # a callable law binds no names, so it takes no parameters
    ObjectRow("classify_growth_law.parameters_of_a_callable",
              lambda v: classify_growth_law(lambda a: a * a, parameters=v), None, ("junk", K, {})),
    ObjectRow("compose_phases.parameters_of_a_callable",
              lambda v: compose_phases(2.0, 10.0, lambda a: a * a, parameters=v), None,
              ("junk", K, {})),
    # ensemble
    ObjectRow("volatility_masking_scan.template",
              lambda v: volatility_masking_scan(0.05, [0.1], v, window=8, record_points=16),
              TEMPLATE, (None, "x", MODEL)),
    # dsl
    ObjectRow("parse.source", parse, "dA = k*A", (None, 1.0, b"dA = A", ["dA = A"])),
    ObjectRow("evaluate.expr", lambda v: evaluate(v, K), parse("k*2"), (None, "k*2", SYSTEM)),
    ObjectRow("evaluate.bindings", lambda v: evaluate(parse("k*2"), v), K, (None, 1.0, "k")),
    ObjectRow("as_function.law", lambda v: as_function(v, parameters=K), EXPR,
              (None, "k*A", parse("dA = A; dY = Y"))),
    ObjectRow("as_function.parameters", lambda v: as_function(EXPR, parameters=v), K, (1.0, "k")),
    # the compiled law takes one number: values it cannot combine with numbers
    ObjectRow("as_function.value", as_function(parse("A*2")), 2.0,
              ([1.0, 2.0], "ab", None, {})),
    ObjectRow("as_function.value_of_a_sum", as_function(parse("A + 2")), 2.0,
              ([1.0, 2.0], "ab", None)),
    ObjectRow("as_function.value_of_a_log", as_function(parse("ln(A)")), 2.0,
              ([1.0, 2.0], "ab", None, 1 + 2j)),
    # numpy values take IEEE arithmetic, which has no loop for these
    ObjectRow("as_function.numpy_value", as_function(parse("A*2")), np.float64(2.0),
              (np.str_("x"), np.array(["a"]), np.array([None]))),
    ObjectRow("pretty_print.node", pretty_print, EXPR, (None, "k*A", 1.0)),
    ObjectRow("to_field.spec", lambda v: to_field(v, K), SYSTEM, (None, "dA = k*A", EXPR)),
    ObjectRow("to_field.parameters", lambda v: to_field(SYSTEM, v), K, (1.0, "k")),
]

# names of blowuplab.__all__ that take an argument and are in no table
EXEMPT = {
    # results the library builds and hands back
    "Trajectory", "BlowUpEvent", "PathResult", "EnsembleStats", "ErgodicityReport",
    "MaskingPoint", "ConvergenceVerdict", "BarometerReport", "PhasePlan", "SystemSpec",
    # holds the drift and diffusion; one that fails is a FieldEvaluationError when called
    "StochasticModel",
}


def malformed_sequence(row: ArrayRow):
    base = row.valid if isinstance(row.valid, list) else [row.valid]
    entries = st.one_of(st.sampled_from([math.nan, inf, -inf, None]), st.text(),
                        st.complex_numbers())
    spliced = st.tuples(st.integers(0, len(base) - 1), entries).map(
        lambda pair: base[:pair[0]] + [pair[1]] + base[pair[0] + 1:])
    kinds = [st.text(), st.booleans(), st.complex_numbers(),
             st.lists(st.booleans(), min_size=len(base), max_size=len(base)),
             st.sampled_from([[base], [base, base[:1] + base]]), spliced]
    if not row.none_ok:
        kinds.append(st.none())
    return st.one_of(kinds)


@pytest.mark.parametrize("row", ARRAY_ROWS, ids=[row.name for row in ARRAY_ROWS])
@given(data=st.data())
def test_a_malformed_array_raises_domain_error(row, data):
    value = data.draw(malformed_sequence(row), label=row.name)
    with pytest.raises(DomainError) as info:
        row.call(value)
    assert type(info.value) is DomainError


@pytest.mark.parametrize("row", ARRAY_ROWS, ids=[row.name for row in ARRAY_ROWS])
def test_a_valid_array_passes(row):
    row.call(row.valid)
    if isinstance(row.valid, list) and isinstance(row.valid[0], float):
        row.call(np.asarray(row.valid))


def test_every_entry_point_is_in_a_table_or_exempt():
    covered = {row.name.split(".")[0] for row in ROWS + ARRAY_ROWS + OBJECT_ROWS}
    unchecked = []
    for name in blowuplab.__all__:
        obj = getattr(blowuplab, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
            continue
        if inspect.signature(obj).parameters and name not in covered | EXEMPT:
            unchecked.append(name)
    assert not unchecked, f"add rows for {unchecked} or exempt them"
    assert not EXEMPT & covered


@pytest.mark.parametrize("row", OBJECT_ROWS, ids=[row.name for row in OBJECT_ROWS])
def test_a_malformed_object_raises_domain_error(row):
    row.call(row.valid)
    for value in row.malformed:
        with pytest.raises(DomainError) as info:
            row.call(value)
        assert type(info.value) is DomainError, value


def malformed(row: Row):
    kinds = [st.text(), st.booleans(), st.complex_numbers(), st.just(math.nan),
             st.sampled_from(row.out_of_range)]
    if not row.none_ok:
        kinds.append(st.none())
    if row.integer:
        kinds.append(st.floats())
    return st.one_of(kinds)


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
@given(data=st.data())
def test_a_malformed_scalar_raises_domain_error(row, data):
    value = data.draw(malformed(row), label=row.name)
    with pytest.raises(DomainError) as info:
        row.call(value)
    assert type(info.value) is DomainError


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_numpy_scalars_of_a_valid_value_pass(row):
    kinds = [np.int64] if row.integer else [np.float64]
    if not row.integer and float(row.valid).is_integer():
        kinds.append(np.int64)
    for kind in kinds:
        row.call(kind(row.valid))


def test_the_message_names_the_argument_its_requirement_and_the_value():
    with pytest.raises(DomainError, match=r"^k must be a finite real number > 0, got '2'$"):
        check_real("k", "2", above=0.0)
    with pytest.raises(DomainError,
                       match=r"^threshold must be a finite real number >= 1 or inf, got nan$"):
        check_real("threshold", math.nan, at_least=1.0, allow_inf=True)
    with pytest.raises(DomainError, match=r"^window must be an integer >= 8, got 7\.5$"):
        check_integer("window", 7.5, at_least=8)


def test_values_pass_unchanged():
    assert check_real("t", 3) == 3 and type(check_real("t", 3)) is int
    assert check_real("threshold", inf, above=0.0, allow_inf=True) == inf
    assert check_integer("n", np.int64(5), at_least=1) == 5


def test_an_int_too_large_for_a_double_is_not_finite():
    with pytest.raises(DomainError):
        check_real("k", 10 ** 400, above=0.0)


class TestArrayRegressions:
    def test_nan_in_t_eval_is_rejected_not_dropped(self):
        with pytest.raises(DomainError, match=r"^t_eval must be .*, got \[0\.5, nan, 0\.9\]$"):
            integrate(FIELD, [1.0], 1.0, t_eval=[0.5, math.nan, 0.9])

    def test_none_in_t_eval_is_rejected_not_an_empty_trajectory(self):
        with pytest.raises(DomainError):
            integrate(FIELD, [1.0], 1.0, t_eval=[None])

    def test_a_scalar_state_still_serves_a_one_dimensional_field(self):
        for state0 in (1.0, 1, np.float64(1.0), np.array(1.0)):
            assert integrate(FIELD, state0, 1.0).states[-1, 0] == pytest.approx(math.e)

    def test_a_bool_array_is_rejected(self):
        with pytest.raises(DomainError):
            integrate(FIELD, np.array([True]), 1.0)

    def test_barometer_reads_only_its_trailing_window(self):
        times = np.concatenate([[math.nan, -1.0], TIMES])
        values = np.concatenate([[-1.0, math.inf], np.exp(TIMES)])
        assert barometer(times, values, 16).n_samples == 16
        with pytest.raises(DomainError):
            barometer(times, values, 17)

    @pytest.mark.parametrize("series,message", [
        (np.exp(TIMES), r"^series must be a 2-d real array, got "),
        ([np.exp(TIMES), np.exp(TIMES[1:])], r"^series must be a 2-d real array, got "),
        ([np.exp(TIMES[1:])], r"^rows of series must be as long as times, got 15$"),
        ([np.exp(TIMES), np.exp(TIMES), -np.exp(TIMES)], r"^window values of row 2 must"),
        ([np.exp(TIMES), np.where(TIMES > 0.5, math.nan, 1.0)], r"^window values of row 1 must"),
        ([np.exp(TIMES), np.where(TIMES > 0.5, inf, 1.0)], r"^window values of row 1 must"),
        ([np.exp(TIMES), np.where(TIMES > 0.9, 0.0, 1.0)], r"^window values of row 1 must"),
    ], ids=["1-d", "ragged", "length", "negative", "nan", "inf", "zero"])
    def test_barometer_batch_rejects_a_malformed_series(self, series, message):
        with pytest.raises(DomainError, match=message) as info:
            barometer_batch(TIMES, series, 8)
        assert type(info.value) is DomainError

    def test_barometer_batch_reads_only_the_trailing_window_of_each_row(self):
        times = np.concatenate([[math.nan, -1.0], TIMES])
        row = np.concatenate([[-1.0, math.inf], np.exp(TIMES)])
        assert len(barometer_batch(times, [row, row], 16)) == 2
        with pytest.raises(DomainError, match="^window values of row 0 must"):
            barometer_batch(times, [row, row], 17)
        with pytest.raises(DomainError, match="^window times must"):
            barometer_batch(times, [row, row], 18)
        with pytest.raises(InsufficientDataError, match="^need at least 32 samples, got 16$"):
            barometer_batch(TIMES, [np.exp(TIMES)], 32)

    def test_inf_and_nan_stay_legal_bindings(self):
        for value in (inf, -inf, math.nan):
            assert repr(evaluate(parse("k"), {"k": value})) == repr(value)
            assert repr(as_function(parse("k + 0*A"), parameters={"k": value})(1.0)) == repr(value)
            to_field(parse("dA = k*A"), {"k": value})

    def test_the_message_names_the_argument_its_requirement_and_the_value(self):
        with pytest.raises(DomainError, match=r"^levels must be a strictly increasing 1-d "
                           r"sequence of at least 3 finite real numbers > 0, got \[1, 2\]$"):
            check_array("levels", [1, 2], min_len=3, positive=True, increasing=True)
        with pytest.raises(DomainError, match=r"^parameter 'k' must be a real number, got 'x'$"):
            evaluate(parse("k*2"), {"k": "x"})

    def test_the_drift_of_ergodic_drift_checks_its_level(self):
        drift = ergodic_drift(lambda a: a, 0.1)
        assert drift(2.0) == pytest.approx(0.1 * 2.0 + 0.5 * 2.0)
        for level in ("abc", None, ["a"], [1.0, math.nan]):
            with pytest.raises(DomainError) as info:
                drift(level)
            assert type(info.value) is DomainError
        for diffusion in (lambda a: -a, lambda a: 0.0 * a):
            with pytest.raises(DomainError, match="diffusion must be positive") as info:
                ergodic_drift(diffusion, 0.1)(2.0)
            assert type(info.value) is DomainError

    def test_pathwise_growth_slope_checks_a_caller_built_path(self):
        good = em_path(MODEL, 1.0, 0.01, 0.2, seed=0)
        for times, values in [(good.times.astype(str), good.values),
                              (good.times, good.values.astype(str)),
                              (good.times, -good.values),
                              (good.times[:-1], good.values)]:
            with pytest.raises(DomainError) as info:
                pathwise_growth_slope(dataclasses.replace(good, times=times, values=values))
            assert type(info.value) is DomainError
        # twelve samples at one time leave the fitted line no spread
        with pytest.raises(InsufficientDataError, match="degenerate"):
            pathwise_growth_slope(dataclasses.replace(good, times=np.full(12, 0.1),
                                                      values=good.values[:12]))

    def test_a_float64_array_comes_back_as_itself(self):
        assert check_array("times", TIMES) is TIMES
        assert check_array("levels", [1, 2]).dtype == np.float64


def _raises(level):
    raise RuntimeError("no rate here")


class TestModelFailures:
    GOOD = hyperbolic_sde_model(0.05, 0.05)

    @pytest.mark.parametrize("drift, diffusion", [
        (GOOD.drift, lambda a: _raises(a)),
        (lambda a: _raises(a), GOOD.diffusion),
        (GOOD.drift, lambda a: np.ones(3)),
        (lambda a: "x", GOOD.diffusion),
        (lambda a: None, GOOD.diffusion),
        # right on the 100-level probe grid, wrong or zero at the quadrature's nodes
        (GOOD.drift, lambda a: MODEL.diffusion(a) if np.size(a) <= 100 else a[:1]),
        (GOOD.drift, lambda a: MODEL.diffusion(a) * (np.size(a) <= 100)),
    ])
    def test_ergodicity_check_reports_a_failing_model(self, drift, diffusion):
        model = StochasticModel(drift=drift, diffusion=diffusion, label="faulty")
        with pytest.raises(FieldEvaluationError, match="'faulty'"):
            ergodicity_check(model)

    def test_ergodicity_check_keeps_its_domain_errors(self):
        for drift, diffusion in [(self.GOOD.drift, lambda a: -a), (lambda a: a / 0.0, lambda a: a)]:
            with pytest.raises(DomainError), np.errstate(divide="ignore"):
                ergodicity_check(StochasticModel(drift=drift, diffusion=diffusion))

    @pytest.mark.parametrize("law", [lambda a: _raises(a), lambda a: "x", lambda a: None,
                                     lambda a: [a, a]])
    def test_classify_growth_law_reports_a_failing_callable(self, law):
        with pytest.raises(FieldEvaluationError, match="failed at level"):
            classify_growth_law(law)

    def test_classify_growth_law_still_reads_overflow_as_inf(self):
        # a float power past the double range raises OverflowError
        assert classify_growth_law(lambda a: a ** 2.0).verdict == "finite-time"

    @pytest.mark.parametrize("specs", [None, 5, [None], [], "abc"])
    def test_simulate_batches_rejects_malformed_specs(self, specs):
        with pytest.raises(DomainError) as info:
            simulate_batches(specs)
        assert type(info.value) is DomainError

    def test_run_ensemble_rejects_a_missing_spec(self):
        with pytest.raises(DomainError, match="EnsembleSpec"):
            run_ensemble(None)
