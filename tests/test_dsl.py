"""Parser, printer and the compiled evaluator of the growth-law DSL.

``tree_walk_evaluate`` is the earlier evaluator: it walks the tree on
every call and picks strict or IEEE arithmetic per node, by whether an
operand is a numpy array.  The compiled closures behind ``evaluate``,
``as_function`` and ``to_field`` must agree with it.
"""

import dataclasses
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blowuplab import (
    BindingError,
    DomainError,
    DslSyntaxError,
    calibrate_k,
    cli,
    hyperbolic_solution,
    integrate,
)
from blowuplab.dsl import (
    BinOp,
    Call,
    Name,
    Neg,
    Num,
    SystemSpec,
    as_function,
    evaluate,
    free_names,
    level_variable,
    parse,
    pretty_print,
    to_field,
)

_A, _B, _C = Name("A"), Name("B"), Name("C")

ROUND_TRIP_CORPUS = [
    "1",
    "0.5",
    "2e-3",
    "A",
    "k_1",
    "-A",
    "A + 1",
    "A - 1",
    "A - 1 + 2",
    "1 - (2 - 3)",
    "k*A",
    "A/2",
    "1/(2/3)",
    "A^2",
    "A^2^3",
    "(A^2)^3",
    "-A^2",
    "(-A)^2",
    "2^-3",
    "k*A^2",
    "ln(A)",
    "exp(k*A)",
    "ln(A)*A",
    "k*ln(A)*A + c",
    "-1/(k*t - 1/I)",
    "exp(exp(c + k*t))",
]


class TestParsing:
    def test_expression_vs_system_dispatch(self):
        assert isinstance(parse("k*A^2"), BinOp)
        spec = parse("dA = k*A^2")
        assert spec.state_names == ("A",)
        spec = parse("dY = k1*Y*A; dA = k2*Y*A")
        assert spec.state_names == ("Y", "A")

    def test_precedence_shapes(self):
        assert parse("k*A^2") == parse("k*(A^2)")
        assert parse("-A^2") == parse("-(A^2)")
        assert parse("a + b*c") == parse("a + (b*c)")
        assert parse("a - b + c") == parse("(a - b) + c")
        assert parse("a/b/c") == parse("(a/b)/c")
        assert parse("2*-A") == BinOp("*", Num(2.0), Neg(_A))
        assert parse("A - -B") == BinOp("-", _A, Neg(_B))
        assert parse("-A*B") == BinOp("*", Neg(_A), _B)
        assert parse("A^-B^C") == BinOp("^", _A, Neg(BinOp("^", _B, _C)))

    def test_power_is_right_associative(self):
        assert parse("A^2^3") == BinOp("^", Name("A"),
                                       BinOp("^", Num(2.0), Num(3.0)))
        assert evaluate(parse("2^3^2"), {}) == pytest.approx(512.0)

    def test_syntax_error_reports_position(self):
        with pytest.raises(DslSyntaxError, match=r"line 1, column 8"):
            parse("dA = k*/A")
        with pytest.raises(DslSyntaxError, match="end of input"):
            parse("dA = k*A +")

    @pytest.mark.parametrize("source,message", [
        ("A $ 2", r"unexpected character '\$' \(line 1, column 3\)"),
        ("(A + 2", r"expected '\)' .*found 'end of input' \(line 1, column 7\)"),
        ("x = A", r"form 'd<var> = <expr>', found 'x' \(line 1, column 1\)"),
        ("A 2", r"unparsed input after expression, found '2' \(line 1, column 3\)"),
        ("--A", r"expected a number, name, function call, or '\(', found '-' \(line 1, column 2\)"),
    ])
    def test_malformed_source_rejected_at_its_position(self, source, message):
        with pytest.raises(DslSyntaxError, match=message):
            parse(source)

    def test_duplicate_state_variable_rejected(self):
        # the position is that of the repeated d<var>
        with pytest.raises(DslSyntaxError, match=r"more than once \(line 1, column 9\)$"):
            parse("dA = A; dA = 2*A")
        with pytest.raises(DslSyntaxError, match=r"more than once \(line 2, column 3\)$"):
            parse("dA = A;\n  dA = 2")

    def test_reserved_words_cannot_be_states(self):
        with pytest.raises(DslSyntaxError):
            parse("dln = A")

    @pytest.mark.parametrize("source,column", [
        ("1e999*A", 1), ("k*A^2e400", 5), ("dA = 1e999*A", 6), ("9e308", 1),
    ])
    def test_non_finite_literal_rejected_at_its_position(self, source, column):
        with pytest.raises(DslSyntaxError, match=rf"out of range \(line 1, column {column}\)"):
            parse(source)

    # 600 parentheses and 1 200 exponents nest past the limit; each is
    # reported at the token of the expression one too deep, not as
    # Python's RecursionError
    @pytest.mark.parametrize("source,column", [
        ("(" * 600 + "A" + ")" * 600, 201),
        ("A" + "^A" * 1200, 401),
        ("dA = " + "exp(" * 300 + "A" + ")" * 300, 806),
        ("(" * 200 + "A" + ")" * 200, 201),
    ])
    def test_deep_nesting_rejected_at_its_position(self, source, column):
        with pytest.raises(DslSyntaxError,
                           match=rf"nests more than 200 deep, .*\(line 1, column {column}\)$"):
            parse(source)

    def test_nesting_just_under_the_limit_parses(self):
        assert parse("(" * 199 + "A" + ")" * 199) == _A
        tree = parse("A" + "^A" * 199)
        assert parse(pretty_print(tree)) == tree
        assert evaluate(tree, {"A": 1.0}) == 1.0
        assert parse("dA = " + "-(" * 99 + "A" + ")" * 99).equations[0][1] == \
            parse("-(" * 99 + "A" + ")" * 99)

    # a flat chain of 1 000 operators parses to a tree 1 001 deep, which the
    # printer and the compiler would walk into Python's RecursionError
    @pytest.mark.parametrize("source,column", [
        ("A" + "+A" * 1000, 401),
        ("A" + "*A" * 1000, 401),
        ("dA = A" + "-A" * 1000, 406),
    ], ids=["sum", "product", "system"])
    def test_a_long_chain_is_rejected_at_its_position(self, source, column):
        with pytest.raises(DslSyntaxError,
                           match=rf"nests more than 200 deep, .*\(line 1, column {column}\)$"):
            parse(source)

    def test_a_chain_just_under_the_limit_works(self):
        tree = parse("A" + "+A" * 199)
        assert parse(pretty_print(tree)) == tree
        assert evaluate(tree, {"A": 1.0}) == 200.0
        assert as_function(tree)(np.float64(0.5)) == 100.0
        assert to_field(parse("dA = A" + "-A" * 199)).rate([1.0]).tolist() == [-198.0]

    # each level's chain puts the chain it holds as many levels deeper: the
    # first two trees are 199 and 181 deep, the others would be 751 to 1 001
    @pytest.mark.parametrize("levels,terms,parses", [
        (2, 99, True), (3, 60, True), (5, 150, False), (10, 100, False), (50, 20, False),
    ])
    def test_chains_inside_chains_nest_no_deeper_than_the_limit(self, levels, terms, parses):
        source = "A"
        for _ in range(levels):
            source = "(" + source + "+A" * terms + ")"
        if not parses:
            with pytest.raises(DslSyntaxError, match="nests more than 200 deep"):
                parse(source)
            return

        def height(node):
            return 1 + max(height(node.left), height(node.right)) if isinstance(node, BinOp) else 1
        tree = parse(source)
        assert height(tree) == levels * terms + 1
        assert parse(pretty_print(tree)) == tree

    def test_non_finite_literal_on_a_later_line(self):
        with pytest.raises(DslSyntaxError, match=r"out of range.*line 2, column 10"):
            parse("dY = Y;\ndA = 2 * 1e400 * A")

    @pytest.mark.parametrize("source", ROUND_TRIP_CORPUS)
    def test_round_trip_corpus(self, source):
        tree = parse(source)
        assert parse(pretty_print(tree)) == tree


_names = st.sampled_from(["A", "Y", "k", "k1", "beta_2", "I"])
_leaves = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=1e9,
                             allow_nan=False, allow_infinity=False)),
    st.builds(Name, _names),
)
_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(Call, st.sampled_from(["ln", "exp"]), children),
        st.builds(BinOp, st.sampled_from(list("+-*/^")), children, children),
    ),
    max_leaves=25,
)


class TestRoundTripProperty:
    @pytest.mark.parametrize("tree,text", [
        (Neg(BinOp("*", _A, _B)), "-(A * B)"),
        (BinOp("^", Neg(_A), Num(2.0)), "(-A)^2"),
        (BinOp("^", _A, Neg(Num(2.0))), "A^-2"),
        (BinOp("-", _A, Neg(_B)), "A - -B"),
        (BinOp("*", Neg(_A), _B), "-A * B"),
        (BinOp("^", BinOp("^", _A, Num(2.0)), Num(3.0)), "(A^2)^3"),
        (BinOp("/", _A, BinOp("*", _B, _C)), "A / (B * C)"),
        (BinOp("^", _A, BinOp("*", _B, _C)), "A^(B * C)"),
        (Neg(Neg(_A)), "-(-A)"),
    ])
    def test_parentheses_only_where_the_tree_needs_them(self, tree, text):
        assert pretty_print(tree) == text
        assert parse(text) == tree

    @given(_trees)
    def test_printed_tree_reparses_equal(self, tree):
        assert parse(pretty_print(tree)) == tree

    @given(st.sampled_from(ROUND_TRIP_CORPUS).map(parse))
    def test_printing_is_stable(self, tree):
        once = pretty_print(tree)
        assert pretty_print(parse(once)) == once


class TestEvaluate:
    def test_quadratic_rate(self):
        assert evaluate(parse("k*A^2"), {"k": 0.05, "A": 3.0}) == pytest.approx(0.45)

    def test_log_fixed_point(self):
        assert evaluate(parse("ln(A)*A"), {"A": 1.0}) == 0.0

    def test_hyperbola_transcription(self):
        value = evaluate(parse("-1/(k*t - 1/I)"),
                         {"k": 0.00462, "I": 100.0, "t": 1.0})
        assert value == pytest.approx(hyperbolic_solution(0.00462, 100.0, 1.0),
                                      rel=1e-12)

    def test_ln_domain_error_names_offender(self):
        with pytest.raises(DomainError, match=r"ln.*A"):
            evaluate(parse("ln(A)"), {"A": -1.0})

    def test_division_by_zero(self):
        with pytest.raises(DomainError, match="division by zero"):
            evaluate(parse("1/(A - 2)"), {"A": 2.0})

    def test_unbound_name(self):
        with pytest.raises(BindingError):
            evaluate(parse("k*A"), {"A": 1.0})
        with pytest.raises(BindingError, match=r"unbound names \['k'\]"):
            as_function(parse("dA = k*A"))

    def test_array_broadcast(self):
        values = evaluate(parse("k*A^2"), {"k": 2.0, "A": np.array([1.0, 2.0, 3.0])})
        assert np.allclose(values, [2.0, 8.0, 18.0])

    @given(st.floats(min_value=0.1, max_value=50.0),
           st.floats(min_value=0.1, max_value=50.0))
    def test_precedence_by_evaluation(self, a, b):
        bindings = {"a": a, "b": b}
        assert evaluate(parse("a*b^2"), bindings) == evaluate(
            parse("a*(b^2)"), bindings)
        assert evaluate(parse("-a^2"), bindings) == evaluate(
            parse("-(a^2)"), bindings)
        assert evaluate(parse("a - b + a"), bindings) == evaluate(
            parse("(a - b) + a"), bindings)

    def test_free_names(self):
        assert free_names(parse("k*A^2 + exp(c)")) == {"k", "A", "c"}


class TestNativeEquivalence:
    GRID = np.geomspace(0.5, 1e6, 25)

    def check(self, source, native, **params):
        fn = as_function(parse(source), params)
        for level in self.GRID:
            expected = native(float(level))
            if expected == 0.0:
                assert fn(float(level)) == 0.0
            else:
                assert fn(float(level)) == pytest.approx(expected, rel=1e-15)

    def test_exponential(self):
        self.check("k*I*A", lambda A: 0.00462 * 100.0 * A, k=0.00462, I=100.0)

    def test_hyperbolic(self):
        self.check("k*A^2", lambda A: 0.05 * A * A, k=0.05)

    def test_powerlaw(self):
        self.check("k*A^n", lambda A: 0.01 * A ** 1.5, k=0.01, n=1.5)

    def test_loglaw(self):
        self.check("k*ln(A)*A", lambda A: 0.02 * math.log(A) * A, k=0.02)

    def test_coupled_system(self):
        field = to_field(parse("dY = k1*Y*A; dA = k2*Y*A"), {"k1": 0.05, "k2": 0.1})
        assert field.dimension == 2
        for Y, A in [(0.5, 1.0), (2.0, 3.0), (1e3, 1e4)]:
            rate = field.rate(np.array([Y, A]))
            assert rate[0] == pytest.approx(0.05 * Y * A, rel=1e-15)
            assert rate[1] == pytest.approx(0.1 * Y * A, rel=1e-15)


class TestToField:
    def test_symmetric_product_system(self):
        field = to_field(parse("dE1 = E1*E2*E3; dE2 = E1*E2*E3; dE3 = E1*E2*E3"))
        rate = field.rate(np.array([2.0, 3.0, 5.0]))
        assert np.allclose(rate, 30.0)
        assert field.names == ("E1", "E2", "E3")

    def test_constant_rate_integrates_to_line(self):
        field = to_field(parse("dA = 1"))
        trail = integrate(field, [1.0], 10.0)
        assert trail.blowup is None
        assert np.allclose(trail.states[:, 0], 1.0 + trail.times, rtol=1e-9)

    def test_unbound_parameter_rejected(self):
        with pytest.raises(BindingError, match="k"):
            to_field(parse("dA = k*A^2"))

    def test_level_variable_is_the_one_unbound_name(self):
        assert level_variable(parse("k*x^2"), {"k": 1.0}) == "x"
        assert level_variable(parse("k*A^2"), {"k": 1.0}) == "A"
        assert level_variable(parse("2*k"), {"k": 1.0}) == "A"
        with pytest.raises(DomainError, match=r"several free names \['A', 'k'\]"):
            level_variable(parse("k*A^2"), {})

    def test_parameters_bind_per_call(self):
        # a parsed system holds only its equations; each to_field call
        # binds its own parameters
        spec = parse("dA = k*A")
        assert [f.name for f in dataclasses.fields(spec)] == ["equations"]
        assert to_field(spec, {"k": 1.0}).rate(np.array([5.0]))[0] == 5.0
        assert to_field(spec, {"k": 2.0}).rate(np.array([5.0]))[0] == 10.0
        assert spec == parse("dA = k*A")


_TREE_WALK_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                  "/": operator.truediv, "^": operator.pow}


def tree_walk_evaluate(expr, bindings):
    """The earlier evaluator, kept as the oracle of the compiled one."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Name):
        try:
            return bindings[expr.ident]
        except KeyError:
            raise BindingError(f"unbound name {expr.ident!r}") from None
    if isinstance(expr, Neg):
        return -tree_walk_evaluate(expr.operand, bindings)
    if isinstance(expr, Call):
        arg = tree_walk_evaluate(expr.arg, bindings)
        if isinstance(arg, np.ndarray):
            with np.errstate(all="ignore"):
                return np.log(arg) if expr.func == "ln" else np.exp(arg)
        if expr.func == "ln":
            if arg <= 0.0 or not math.isfinite(arg):
                raise DomainError(f"ln of non-positive value {arg!r}")
            return math.log(arg)
        try:
            return math.exp(arg)
        except OverflowError:
            return math.inf
    left = tree_walk_evaluate(expr.left, bindings)
    right = tree_walk_evaluate(expr.right, bindings)
    apply = _TREE_WALK_OPS[expr.op]
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        with np.errstate(all="ignore"):
            return apply(left, right)
    try:
        if expr.op == "/" and right == 0.0:
            raise ZeroDivisionError
        result = apply(left, right)
    except ZeroDivisionError:
        raise DomainError("division by zero") from None
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"invalid arithmetic: {exc}") from None
    if isinstance(result, complex):
        raise DomainError("fractional power of a negative base")
    return result


def outcome(fn, *args):
    """The value of ``fn(*args)``, or DomainError if it raises one."""
    try:
        return fn(*args)
    except DomainError:
        return DomainError


def same(expected, actual):
    if expected is DomainError or actual is DomainError:
        return expected is actual
    if isinstance(expected, np.ndarray):
        return (isinstance(actual, np.ndarray)
                and np.array_equal(expected, actual, equal_nan=True))
    return expected == actual or (math.isnan(expected) and math.isnan(actual))


_NAMES = ["A", "Y", "k", "k1", "beta_2", "I"]
_floats = st.one_of(st.floats(min_value=-1e3, max_value=1e3),
                    st.sampled_from([0.0, 1.0, -1.0, 1e9, -1e9, 1e300,
                                     math.inf, -math.inf, math.nan]))
_float_bindings = st.fixed_dictionaries({name: _floats for name in _NAMES})
_arrays = st.lists(_floats, min_size=4, max_size=4).map(np.array)


class TestCompiledAgainstTreeWalk:
    @settings(max_examples=300, deadline=None)
    @given(_trees, _float_bindings)
    def test_python_floats(self, tree, bindings):
        expected = outcome(tree_walk_evaluate, tree, bindings)
        assert same(expected, outcome(evaluate, tree, bindings))
        params = {name: bindings[name] for name in free_names(tree) - {"A"}}
        law = as_function(tree, params)
        assert same(expected, outcome(law, bindings["A"]))

    @settings(max_examples=300, deadline=None)
    @given(_trees, _float_bindings, st.sets(st.sampled_from(_NAMES), min_size=1), _arrays)
    def test_numpy_arrays(self, tree, floats, array_names, array):
        # the names in array_names read arrays, the others Python floats
        bindings = {name: array * (1 + index) if name in array_names else floats[name]
                    for index, name in enumerate(_NAMES)}
        expected = outcome(tree_walk_evaluate, tree, bindings)
        assert same(expected, outcome(evaluate, tree, bindings))
        if array_names == {"A"}:
            law = as_function(tree, {n: bindings[n] for n in free_names(tree) - {"A"}})
            assert same(expected, outcome(law, bindings["A"]))


class TestBindingRule:
    @settings(max_examples=300, deadline=None)
    @given(_trees, st.sets(st.sampled_from(_NAMES)), _float_bindings)
    def test_parameters_bind_exactly_the_names_read(self, tree, names, floats):
        # as the equation dA = tree the law's variable is A, whatever it reads
        law = SystemSpec((("A", tree),))
        exact = {name: floats[name] for name in free_names(tree) - {"A"}}
        fn, field = as_function(law, exact), to_field(law, exact)
        level = np.float64(floats["A"])
        assert same(outcome(evaluate, tree, floats), outcome(fn, floats["A"]))
        expected = outcome(evaluate, tree, {**floats, "A": level})
        assert same(expected, outcome(fn, level))
        with np.errstate(all="ignore"):
            assert same(expected, outcome(lambda: field.rate(np.array([level]))[0]))
        # an unbound name, a parameter named A or one the law does not read
        if names != set(exact):
            params = {name: floats[name] for name in names}
            with pytest.raises(BindingError):
                as_function(law, params)
            with pytest.raises(BindingError):
                to_field(law, params)


def _model_args(*argv):
    return cli.build_parser().parse_args(["simulate", *argv, "--t-max", "1"])


# the hand-written fields of simulate --model before they became DSL
# rows of the CLI's model table: (flags, rate, state0, label)
def _exponential(k):
    return lambda y: np.array([k * y[0]])


BUILT_IN_FIELDS = {
    "exponential": (["--R", "1.5872", "--I", "100"],
                    _exponential(calibrate_k(1.5872, 100.0) * 100.0),
                    [1.0], "exponential(k*I=0.46197145754847124)"),
    "exponential-k": (["--k", "0.00462", "--A0", "3"],
                      _exponential(0.00462 * 1.0), [3.0], "exponential(k*I=0.00462)"),
    "hyperbolic": (["--k", "0.01"], lambda y: np.array([0.01 * y[0] * y[0]]),
                   [1.0], "hyperbolic(k=0.01)"),
    "powerlaw": (["--k", "0.01", "--n", "1.7"], lambda y: np.array([0.01 * y[0] ** 1.7]),
                 [1.0], "powerlaw(k=0.01, n=1.7)"),
    "loglaw": (["--k", "0.02", "--A0", "2"],
               lambda y: np.array([0.02 * np.log(y[0]) * y[0]]), [2.0], "loglaw(k=0.02)"),
    "coupled-gdp": (["--k1", "0.05", "--k2", "0.3"],
                    lambda y: np.array([0.05 * (y[0] * y[1]), 0.3 * (y[0] * y[1])]),
                    [0.05 / 0.3, 1.0], "coupled-gdp(k1=0.05, k2=0.3)"),
}


class TestBuiltInModels:
    STATES = np.concatenate([np.geomspace(1e-3, 1e200, 300), [0.0, -1.0, np.inf]])

    @pytest.mark.parametrize("name", sorted(BUILT_IN_FIELDS))
    def test_field_equals_the_hand_written_lambda(self, name):
        flags, native, state0, label = BUILT_IN_FIELDS[name]
        field, start, got_label = cli._model_field(
            _model_args("--model", name.removesuffix("-k"), *flags))
        assert got_label == label
        assert start.tolist() == state0
        pairs = zip(self.STATES, self.STATES[::-1]) if field.dimension == 2 \
            else ((a,) for a in self.STATES)
        with np.errstate(all="ignore"):
            for state in map(np.array, pairs):
                assert np.array_equal(field.rate(state), native(state), equal_nan=True), state
