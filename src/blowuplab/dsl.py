"""A small expression language for growth laws.

Systems of autonomous first-order equations are written as

    dA = k * A^2
    dY = k1 * Y * A; dA = k2 * Y * A

with the grammar

    system   := equation (";" equation)*
    equation := "d" IDENT "=" expr
    expr     := term (("+" | "-") term)*
    term     := factor (("*" | "/") factor)*
    factor   := ("-")? power
    power    := atom ("^" factor)?
    atom     := NUMBER | IDENT | func | "(" expr ")"
    func     := ("ln" | "exp") "(" expr ")"

``^`` binds tighter than unary minus, which binds tighter than ``*``
and ``/``, which bind tighter than ``+`` and ``-``; ``^`` associates to
the right (``A^2^3`` is ``A^(2^3)``).  The parser and the printer read
these rules from one operator table.  ``ln`` and ``exp`` are reserved
words and cannot name parameters or state variables.  NUMBER is an
unsigned decimal literal with optional exponent; a leading minus is
parsed as unary negation.

:func:`evaluate`, :func:`as_function` and :func:`to_field` compile an
expression once to nested closures, with the parameters bound as floats
at compile time.  A parameter must be a real number, a Python or numpy
int or float, where ``inf``, ``-inf`` and ``nan`` are allowed; a str,
``None``, a bool, a complex number or a sequence raises
:class:`~blowuplab.errors.DomainError` naming the parameter.  Python
numbers get strict arithmetic (``ln`` of a nonpositive value, division
by zero and the like raise :class:`~blowuplab.errors.DomainError`, an
overflowing power or ``ln(inf)`` its subclass
:class:`~blowuplab.errors.LevelOverflowError`); numpy values, such as the
components of a state vector, get IEEE semantics, producing
``nan``/``inf`` for the integrators to handle.

:func:`parse` returns a :class:`SystemSpec` for equation input and a
bare expression node otherwise; :func:`pretty_print` renders any node
back to source that reparses to an equal tree.  Parameters are always
call arguments, ``to_field(parse(source), {"k": 0.05})``; a parsed
system holds only its equations.  :func:`as_function` and
:func:`to_field` bind them by one rule: every name an equation reads is
a state variable or a parameter, and a parameter that names a state
variable or that no equation reads is a
:class:`~blowuplab.errors.BindingError`.  A bare expression's variable
is the one name its parameters leave unbound (:func:`level_variable`).
:func:`evaluate` is exempt: its one mapping holds variables and
parameters alike, and it ignores names the expression does not read.
"""

from __future__ import annotations

import math
import operator
import re
import reprlib
from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np

from .errors import (BindingError, DomainError, DslSyntaxError, LevelOverflowError, as_real,
                     check_instance, check_real)

__all__ = [
    "Num",
    "Name",
    "Neg",
    "BinOp",
    "Call",
    "Expr",
    "SystemSpec",
    "parse",
    "evaluate",
    "pretty_print",
    "free_names",
    "level_variable",
    "as_function",
    "to_field",
]

_RESERVED = frozenset({"ln", "exp"})


# --------------------------------------------------------------------------
# syntax tree


@dataclass(frozen=True)
class Num:
    value: float  # finite and >= 0, as the parser produces: a minus sign is a Neg

    def __post_init__(self):
        check_real("Num value", self.value, at_least=0.0)


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str  # "ln" or "exp"
    arg: "Expr"


Expr = Union[Num, Name, Neg, BinOp, Call]
_NODES = (Num, Name, Neg, BinOp, Call)


def _bindings(name: str, value) -> dict:
    """A mapping argument as a new dict; ``None`` is an empty one."""
    if value is None:
        return {}
    return dict(check_instance(name, value, Mapping, "a mapping or None"))


@dataclass(frozen=True)
class SystemSpec:
    """A parsed equation system.

    ``equations`` maps each state variable to its rate expression, in
    source order.  Parameter values bind when :func:`to_field` compiles
    the system; starting levels go to the integrator.
    """

    equations: tuple[tuple[str, Expr], ...]

    @property
    def state_names(self) -> tuple[str, ...]:
        return tuple(var for var, _ in self.equations)


# --------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"""
      (?P<NUMBER>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<OP>[-+*/^();=])
    | (?P<WS>\s+)
    | (?P<BAD>.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER | IDENT | OP | END
    text: str
    line: int
    column: int


def _tokenize(source: str) -> list[_Token]:
    check_instance("source", source, str, "a str")
    tokens: list[_Token] = []
    line = 1
    line_start = 0
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        text = match.group()
        column = match.start() - line_start + 1
        if kind == "WS":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rfind("\n") + 1
            continue
        if kind == "BAD":
            raise DslSyntaxError(f"unexpected character {text!r}", line, column)
        tokens.append(_Token(kind, text, line, column))
    tokens.append(_Token("END", "", line, len(source) - line_start + 1))
    return tokens


# --------------------------------------------------------------------------
# parser

# The operator table, read by the parser and the printer alike.
# op -> (level, left floor, right floor): an operand slot takes what binds
# at its floor or tighter, and a looser operand goes in parentheses.
# ``+ -`` and ``* /`` associate to the left, their right floor one above
# their level; ``^`` takes an atom for its base and a negation or a power
# for its exponent, so it associates to the right.
_BINARY = {"+": (1, 1, 2), "-": (1, 1, 2), "*": (2, 2, 3), "/": (2, 2, 3), "^": (4, 5, 3)}
# a negation binds at 3, its operand at the level of ``^``; atoms at 5
_NEG_LEVEL, _NEG_FLOOR = 3, 4
_ATOM_LEVEL = 5
# how deep expressions may nest, in parentheses, calls, negations and
# exponents: deeper input is a syntax error, not Python's RecursionError
_MAX_NESTING = 200


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0  # of the expressions being parsed

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def match_op(self, *ops: str) -> _Token | None:
        token = self.current
        if token.kind == "OP" and token.text in ops:
            return self.advance()
        return None

    def expect_op(self, op: str, context: str) -> None:
        if self.match_op(op) is None:
            raise self.fail(f"expected {op!r} {context}")

    def fail(self, message: str) -> DslSyntaxError:
        token = self.current
        return DslSyntaxError(f"{message}, found {token.text or 'end of input'!r}",
                              token.line, token.column)

    # grammar rules

    def system(self) -> SystemSpec:
        # each equation's d<var> token, to place a repeated one
        heads = [self.current]
        equations = [self.equation()]
        while self.match_op(";"):
            heads.append(self.current)
            equations.append(self.equation())
        self.end()
        seen: set[str] = set()
        for (var, _), token in zip(equations, heads):
            if var in seen:
                raise DslSyntaxError(
                    f"state variable {var!r} defined more than once",
                    token.line, token.column,
                )
            seen.add(var)
        return SystemSpec(equations=tuple(equations))

    def equation(self) -> tuple[str, Expr]:
        token = self.current
        if token.kind != "IDENT" or len(token.text) < 2 or not token.text.startswith("d"):
            raise self.fail("expected an equation of the form 'd<var> = <expr>'")
        self.advance()
        var = token.text[1:]
        if var in _RESERVED:
            raise DslSyntaxError(f"{var!r} is a reserved word", token.line, token.column)
        self.expect_op("=", f"after 'd{var}'")
        return var, self.expr()

    def expr(self, floor: int = 1) -> Expr:
        """An expression binding at ``floor`` or tighter, by precedence
        climbing over :data:`_BINARY`.  The left floors are the printer's:
        an operand this loop has built always meets them."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise self.fail(f"expression nests more than {_MAX_NESTING} deep")
        if floor <= _NEG_LEVEL and self.match_op("-"):
            node = Neg(self.expr(_NEG_FLOOR))
        else:
            node = self.atom()
        while (token := self.current).text in _BINARY and _BINARY[token.text][0] >= floor:
            self.advance()
            node = BinOp(token.text, node, self.expr(_BINARY[token.text][2]))
        self.depth -= 1
        return node

    def atom(self) -> Expr:
        token = self.current
        if token.kind == "NUMBER":
            self.advance()
            if not math.isfinite(float(token.text)):
                raise DslSyntaxError(f"number {token.text} is out of range",
                                     token.line, token.column)
            return Num(float(token.text))
        if token.kind == "IDENT":
            self.advance()
            if token.text in _RESERVED:
                self.expect_op("(", f"after function {token.text!r}")
                arg = self.expr()
                self.expect_op(")", f"to close {token.text!r} call")
                return Call(token.text, arg)
            return Name(token.text)
        if self.match_op("("):
            node = self.expr()
            self.expect_op(")", "to close parenthesized expression")
            return node
        raise self.fail("expected a number, name, function call, or '('")

    def end(self) -> None:
        if self.current.kind != "END":
            raise self.fail("unparsed input after expression")


def parse(source: str) -> Expr | SystemSpec:
    """Parse source as a system if it contains ``=``, else as an expression.

    Source off the grammar, or nested more than 200 expressions deep,
    raises :class:`~blowuplab.errors.DslSyntaxError` at the line and
    column of the token where parsing stopped.
    """
    parser = _Parser(source)
    if any(tok.kind == "OP" and tok.text == "=" for tok in parser.tokens):
        return parser.system()
    node = parser.expr()
    parser.end()
    return node


# --------------------------------------------------------------------------
# evaluation: a tree compiles once to nested closures


def _ln(arg):
    if 0.0 < arg < math.inf:
        return math.log(arg)
    if arg == math.inf:  # a level that overflowed earlier, not an undefined value
        raise OverflowError("ln of an overflowed level, inf")
    raise ValueError(f"ln of non-positive value {arg!r}" if arg <= 0.0 else "ln of nan")


def _exp(arg):
    try:
        return math.exp(arg)
    except OverflowError:
        return math.inf


# operation -> its function; numpy values take _IEEE_OPS's in its place, if any
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
        "^": operator.pow, "neg": operator.neg, "ln": _ln, "exp": _exp}
_IEEE_OPS = {"ln": np.log, "exp": np.exp}
_NUMPY_TYPES = (np.ndarray, np.generic)
# float(), but numpy's complex raises as Python's does (float() takes its real part)
_as_float = float.__float__


def _strict(expr: Expr, apply: Callable) -> Callable:
    """``apply`` raising DomainError, or LevelOverflowError on overflow, naming ``expr``."""
    def op(*args):
        try:
            result = apply(*args)
        except (ArithmeticError, ValueError) as exc:
            error = LevelOverflowError if isinstance(exc, OverflowError) else DomainError
            raise error(f"invalid arithmetic in {pretty_print(expr)!r}: {exc}") from None
        if isinstance(result, complex):
            raise DomainError(f"fractional power of a negative base in {pretty_print(expr)!r}")
        return result
    return op


def _function(compiled) -> Callable:
    return compiled if callable(compiled) else lambda v: compiled


def _compile(expr: Expr, slots: Mapping[str, int], params: Mapping, ieee: bool):
    """Compile a tree to a constant or to a function of the variables.

    The function takes the sequence of variable values, where ``slots``
    gives each variable's index; other names read ``params`` now.  A
    subtree without variables is computed now, with strict arithmetic;
    if that fails, it fails again on every call.
    """
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Name):
        if expr.ident in slots:
            return operator.itemgetter(slots[expr.ident])
        if expr.ident not in params:
            raise BindingError(f"unbound name {expr.ident!r}")
        value = as_real(params[expr.ident])
        if value is None:
            raise DomainError(f"parameter {expr.ident!r} must be a real number, "
                              f"got {params[expr.ident]!r}")
        return value
    key = expr.op if isinstance(expr, BinOp) else expr.func if isinstance(expr, Call) else "neg"
    strict = _strict(expr, _OPS[key])
    parts = [_compile(child, slots, params, ieee) for child in _children(expr)]
    if not any(map(callable, parts)):
        try:
            return strict(*parts)
        except DomainError:
            ieee = False
    op = _IEEE_OPS.get(key, _OPS[key]) if ieee else strict
    funcs = [_function(part) for part in parts]
    if len(funcs) == 1:
        return lambda v, arg=funcs[0]: op(arg(v))
    left, right = funcs
    return lambda v: op(left(v), right(v))


def evaluate(expr: Expr, bindings: Mapping[str, float | np.ndarray]):
    """Evaluate an expression tree under the given name bindings.

    Python numbers give strict arithmetic: ``ln`` of a nonpositive
    value, division by zero or a fractional power of a negative base
    raise :class:`~blowuplab.errors.DomainError`, and an overflowing
    power or ``ln(inf)`` its subclass
    :class:`~blowuplab.errors.LevelOverflowError`.
    Numpy values (arrays and numpy scalars) give IEEE semantics:
    ``nan``/``inf`` propagate silently.  The Python numbers bind as
    parameters at compile time, so what reads only them stays strict.
    """
    check_instance("expr", expr, _NODES, "a parsed expression")
    check_instance("bindings", bindings, Mapping, "a mapping")
    variables = {name: value for name, value in bindings.items()
                 if isinstance(value, _NUMPY_TYPES)}
    slots = {name: index for index, name in enumerate(variables)}
    compiled = _function(_compile(expr, slots, bindings, ieee=True))
    with np.errstate(all="ignore"):
        return compiled(tuple(variables.values()))


def _children(expr: Expr) -> tuple[Expr, ...]:
    if isinstance(expr, BinOp):
        return expr.left, expr.right
    if isinstance(expr, Neg):
        return (expr.operand,)
    return (expr.arg,) if isinstance(expr, Call) else ()


def free_names(expr: Expr) -> frozenset[str]:
    """All identifiers an expression reads."""
    if isinstance(expr, Name):
        return frozenset((expr.ident,))
    return frozenset().union(*map(free_names, _children(expr)))


def level_variable(expr: Expr, parameters: Mapping[str, float]) -> str:
    """The variable of a bare rate expression such as ``k*x^2``.

    It is the one name that ``parameters`` leaves unbound, or ``A`` when
    there is none.  Several unbound names raise
    :class:`~blowuplab.errors.DomainError`.
    """
    free = sorted(free_names(expr) - set(parameters))
    if len(free) > 1:
        raise DomainError(
            f"rate expression has several free names {free}; bind all "
            "but the level variable via parameters"
        )
    return free[0] if free else "A"


# --------------------------------------------------------------------------
# pretty printer


def _operand(expr: Expr, floor: int) -> str:
    """``expr``'s text, in parentheses where it binds below ``floor``."""
    text, level = _render(expr)
    return f"({text})" if level < floor else text


def _render(expr: Expr) -> tuple[str, int]:
    """``expr``'s text and the level it binds at."""
    if isinstance(expr, BinOp):
        level, left, right = _BINARY[expr.op]
        op = "^" if expr.op == "^" else f" {expr.op} "
        return f"{_operand(expr.left, left)}{op}{_operand(expr.right, right)}", level
    if isinstance(expr, Neg):
        return f"-{_operand(expr.operand, _NEG_FLOOR)}", _NEG_LEVEL
    if isinstance(expr, Call):
        return f"{expr.func}({_render(expr.arg)[0]})", _ATOM_LEVEL
    if isinstance(expr, Name):
        return expr.ident, _ATOM_LEVEL
    value = expr.value
    if value == int(value) and abs(value) < 1e16:
        value = int(value)
    return repr(value), _ATOM_LEVEL


def pretty_print(node: Expr | SystemSpec) -> str:
    """Render a tree back to source text that reparses to an equal tree."""
    check_instance("node", node, _NODES + (SystemSpec,), "a parsed expression or system")
    if isinstance(node, SystemSpec):
        return "; ".join(f"d{var} = {_render(rhs)[0]}" for var, rhs in node.equations)
    return _render(node)[0]


# --------------------------------------------------------------------------
# compilation to callables


def _check_bindings(spec: SystemSpec, params: dict, unbound: str) -> None:
    """Raise BindingError unless ``params`` bind ``spec`` by the module's
    rule; ``unbound`` formats where an unbound name sits."""
    states = set(spec.state_names)
    for var, rhs in spec.equations:
        missing = sorted(free_names(rhs) - states - set(params))
        if missing:
            raise BindingError(f"unbound names {missing} in "
                               + unbound.format(var=var, law=pretty_print(rhs)))
    read = set().union(*(free_names(rhs) for _, rhs in spec.equations))
    for names, fault in ((states & set(params), "name state variables of"),
                         (set(params) - read, "are read by no equation of")):
        if names:
            raise BindingError(f"parameters {sorted(names)} {fault} {pretty_print(spec)!r}")


def as_function(law: Expr | SystemSpec, parameters: Mapping[str, float] | None = None) -> Callable:
    """Compile a growth law to a function of its one variable.

    ``law`` is an expression, whose variable is :func:`level_variable`'s,
    or a system of one equation ``dx = ...``, whose variable is ``x``.
    ``parameters`` bind now by the module's rule, so an unbound name, a
    parameter that names the variable or one the law does not read is a
    :class:`~blowuplab.errors.BindingError`.  The returned callable,
    named by the law's :func:`pretty_print`, takes a Python number
    (strict arithmetic) or a numpy array or scalar (IEEE semantics); a
    value of another type that the law cannot combine with numbers, such
    as a str or a list, is a :class:`~blowuplab.errors.DomainError`.
    """
    check_instance("law", law, _NODES + (SystemSpec,), "a parsed expression or system")
    params = _bindings("parameters", parameters)
    if not isinstance(law, SystemSpec):
        law = SystemSpec(((level_variable(law, params), law),))
    if len(law.equations) != 1:
        raise DomainError(f"a growth law is a single equation; got {len(law.equations)}")
    _check_bindings(law, params, "{law!r}; bind them via parameters or use variable {var!r}")
    [(var, law)] = law.equations
    strict, ieee = (_function(_compile(law, {var: 0}, params, mode))
                    for mode in (False, True))

    def fn(value):
        try:
            if isinstance(value, _NUMPY_TYPES):
                with np.errstate(all="ignore"):
                    return ieee((value,))
            return strict((value,))
        except TypeError:  # numpy's UFuncTypeError included
            raise DomainError(f"{fn.__name__!r} takes a real number or a numpy value, "
                              f"got {reprlib.repr(value)}") from None

    fn.__name__ = pretty_print(law)
    fn.__doc__ = f"Evaluate {fn.__name__!r} at {var}."
    return fn


def to_field(spec: SystemSpec, parameters: Mapping[str, float] | None = None):
    """Compile a system to an ODE vector field.

    ``parameters`` bind now by the module's rule: a
    :class:`~blowuplab.errors.BindingError` names the equation that reads
    an unbound name, else the parameters that name a state variable or
    that no equation reads.  The field's state order is the equation order.
    The integrator steps the field on Python floats, through the same IEEE
    closures as its array rate and with unchanged bits.
    """
    from .ode import VectorField  # deferred: ode does not import dsl

    check_instance("spec", spec, SystemSpec, "a parsed system")
    params = _bindings("parameters", parameters)
    _check_bindings(spec, params, "equation for d{var} ({law!r})")
    names = spec.state_names
    slots = {name: index for index, name in enumerate(names)}
    rates = [_function(_compile(rhs, slots, params, ieee=True))
             for _, rhs in spec.equations]

    def rate(state):
        # the components of a float64 state are np.float64 scalars, so
        # they take IEEE semantics: an overflow in a trial stage yields
        # inf for the step controller to reject, not an exception
        state = np.asarray(state, dtype=float)
        return np.array([f(state) for f in rates], dtype=float)

    field = VectorField(dimension=len(names), rate=rate, names=names)
    # on Python floats, which raise where numpy gives inf or nan (** on
    # overflow, x/0.0, 0.0**-1): the integrator then takes the array rate
    object.__setattr__(field, "_float_rate", lambda state: [_as_float(f(state)) for f in rates])
    return field
