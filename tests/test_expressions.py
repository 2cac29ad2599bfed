"""Expression grammar: parsing, precedence, evaluation, symbolic derivative."""

import math
import operator
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import contactmech as cm
from contactmech import expressions
from contactmech.errors import ExpressionError
from contactmech.scenario import build_model, parse_scenario


def test_trivial_constant():
    e = cm.parse_expression("0", "q")
    assert e(5.0) == 0.0
    assert e.derivative(5.0) == 0.0


def test_spec_examples():
    e = cm.parse_expression("q^2/2", "q")
    assert e(2.0) == 2.0
    assert e.derivative(2.0) == 2.0
    w = cm.parse_expression("1 + 0.1*sin(0.3*t)", "t")
    assert w(0.0) == 1.0
    assert w.derivative(0.0) == pytest.approx(0.03)


@pytest.mark.parametrize("text,var,x,value", [
    ("2^3^2", "q", 0.0, 512.0),          # ^ is right-associative
    ("-2^2", "q", 0.0, -4.0),            # unary minus binds below ^
    ("2^-3", "q", 0.0, 0.125),           # negative exponents parse
    ("2*-3", "q", 0.0, -6.0),
    ("(1+2)*3", "q", 0.0, 9.0),
    ("1 - 2 - 3", "q", 0.0, -4.0),       # left-associative +/-
    ("12/4/3", "q", 0.0, 1.0),
    ("pi", "q", 0.0, math.pi),
    ("e^2", "q", 0.0, math.e ** 2),
    ("sqrt(q)", "q", 4.0, 2.0),
    ("log(e)", "q", 0.0, 1.0),
    ("cos(0)", "q", 0.0, 1.0),
    ("exp(0)", "q", 0.0, 1.0),
    ("1e-3*q", "q", 2.0, 2e-3),
])
def test_grammar_values(text, var, x, value):
    assert cm.parse_expression(text, var)(x) == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("text,x,deriv", [
    ("q^3", -2.0, 12.0),                 # constant-exponent rule at negative base
    ("q*q", 3.0, 6.0),
    ("sin(q)", 0.5, math.cos(0.5)),
    ("cos(2*q)", 0.3, -2 * math.sin(0.6)),
    ("exp(-q)", 1.0, -math.exp(-1.0)),
    ("sqrt(q)", 4.0, 0.25),
    ("log(q)", 2.0, 0.5),
    ("1/q", 2.0, -0.25),
    ("q^q", 2.0, 4.0 * (math.log(2.0) + 1.0)),  # general power rule
])
def test_symbolic_derivatives(text, x, deriv):
    assert cm.parse_expression(text, "q").derivative(x) == pytest.approx(deriv, rel=1e-12)


@pytest.mark.parametrize("text,x,second", [
    ("q^4 - 3*q^2 + 2*q", 1.5, 21.0),
    ("sin(q)", 0.5, -math.sin(0.5)),
    ("exp(2*q)", 0.3, 4 * math.exp(0.6)),
    ("log(q)", 2.0, -0.25),
    ("sqrt(q)", 4.0, -1 / 32),
    ("q^q", 2.0, 4.0 * ((math.log(2.0) + 1.0) ** 2 + 0.5)),  # variable exponent
    ("2^q", 1.5, math.log(2.0) ** 2 * 2 ** 1.5),
])
def test_symbolic_second_derivatives(text, x, second):
    assert cm.parse_expression(text, "q").second_derivative(x) == pytest.approx(second,
                                                                                 rel=1e-12)


def test_a_polynomial_second_derivative_is_exact_at_dyadic_points():
    """At these q every product and sum of 12 q^2 - 6 is a float, so no rounding."""
    V = cm.parse_expression("q^4 - 3*q^2 + 2*q", "q")
    for q in (-1.25, -0.0, 0.5, 2.0, 3.75):
        assert V.second_derivative(q) == 12 * q * q - 6


def test_second_derivative_errors_name_the_key_and_offset_of_the_first_derivative():
    V = cm.parse_expression("1/q", "q", "model.V")
    for call in (V.derivative, V.second_derivative):
        with pytest.raises(ExpressionError) as err:
            call(0.0)
        assert str(err.value) == "model.V: division by zero (at offset 1)"
        assert err.value.position == 1


def test_the_second_derivative_is_built_on_its_first_call_only(monkeypatch):
    """Parsing, and building a model from a scenario, differentiate once; the
    first second_derivative call differentiates again and compiles, the next
    call neither."""
    diffs = []
    diff = expressions._Dag.diff

    def counted(self, root):
        diffs.append(root)
        return diff(self, root)

    monkeypatch.setattr(expressions._Dag, "diff", counted)
    text = ("[model]\nkind = linear_dissipation\nm = 1\ngamma = 0.1\nV = q^2/2 + q^4\n"
            "[initial]\nq = 1\np = 0\n[integration]\nt_end = 1\n")
    V = build_model(parse_scenario(text)).params["V"]
    assert len(diffs) == 1 and V._curvature is None
    assert V.second_derivative(0.5) == 4.0
    assert len(diffs) == 2 and diffs[1] is V.derivative_ast
    assert V.second_derivative(1.0) == 13.0
    assert len(diffs) == 2


def test_a_second_derivative_survives_pickling():
    e = cm.parse_expression("sqrt(q) + q^3/2", "q", "model.V")
    assert e.second_derivative(2.0) == pytest.approx(-0.25 * 2.0 ** -1.5 + 6.0, rel=1e-12)
    back = pickle.loads(pickle.dumps(e))
    assert back == e and back.key == "model.V" and back._curvature is None
    assert back.second_derivative(2.0) == e.second_derivative(2.0)


@given(st.floats(min_value=0.2, max_value=3.0))
@settings(max_examples=50, deadline=None)
def test_derivative_matches_fd_property(x):
    exprs = ["q^2/2 + sin(q)*exp(-q/2)", "sqrt(q) * log(q + 1)", "1/(1+q^2)"]
    h = 1e-6 * max(1.0, abs(x))
    for text in exprs:
        e = cm.parse_expression(text, "q")
        fd = (e(x + h) - e(x - h)) / (2 * h)
        assert e.derivative(x) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_syntax_errors_carry_positions():
    with pytest.raises(ExpressionError) as err:
        cm.parse_expression("1 + * 2", "q")
    assert err.value.position == 4
    with pytest.raises(ExpressionError) as err:
        cm.parse_expression("sin(q", "q")
    assert err.value.position is not None
    with pytest.raises(ExpressionError) as err:
        cm.parse_expression("q @ 2", "q")
    assert err.value.position == 2
    with pytest.raises(ExpressionError) as err:
        cm.parse_expression("1 2", "q")
    assert err.value.position == 2
    with pytest.raises(ExpressionError):
        cm.parse_expression("", "q")
    with pytest.raises(ExpressionError):
        cm.parse_expression("   ", "q")


def test_unknown_identifiers():
    with pytest.raises(ExpressionError) as err:
        cm.parse_expression("x + 1", "q")
    assert "unknown identifier" in str(err.value)
    with pytest.raises(ExpressionError) as err:
        cm.parse_expression("tanh(q)", "q")
    assert "unknown function" in str(err.value)
    # the declared variable is accepted; any other name is not
    assert cm.parse_expression("t^2", "t")(3.0) == 9.0
    with pytest.raises(ExpressionError):
        cm.parse_expression("t^2", "q")


def test_domain_errors():
    with pytest.raises(ExpressionError) as err:
        cm.parse_expression("sqrt(q)", "q")(-1.0)
    assert err.value.position == 0
    with pytest.raises(ExpressionError) as err:
        cm.parse_expression("log(q)", "q")(0.0)
    assert err.value.position == 0
    with pytest.raises(ExpressionError) as err:
        cm.parse_expression("1/q", "q")(0.0)
    assert err.value.position == 1
    with pytest.raises(ExpressionError) as err:
        cm.parse_expression("q^0.5", "q")(-2.0)
    assert err.value.position == 1
    with pytest.raises(ExpressionError) as err:
        cm.parse_expression("sin(q*1e308*10)", "q")(1.0)
    assert err.value.position == 0
    # the derivative reuses a raising node of the expression (or the ^'s
    # offset), and raises the error a tree walk meets first
    for text, x, message, position in _SHARED_RAISING:
        with pytest.raises(ExpressionError) as err:
            cm.parse_expression(text, "q").derivative(x)
        assert str(err.value) == f"{message} (at offset {position})"
        assert err.value.position == position


# (text, x, the derivative's error there, its offset); the value raises too
_SHARED_RAISING = [
    ("sqrt(q)", -1.0, "sqrt of negative value -1.0", 0),
    ("1/(q-1)", 1.0, "division by zero", 1),
    ("q^0.5", -2.0, "invalid power -2.0^-0.5: math domain error", 1),
    ("log(q)^2", 0.0, "log of non-positive value 0.0", 0),
    # d(q^q) has its own log(q), at the ^; the value raises at offset 6
    ("q^q + log(q)", 0.0, "log of non-positive value 0.0", 1),
]


_ORACLE_NAMES = {"pi": math.pi, "e": math.e, "sin": math.sin, "cos": math.cos,
                 "exp": math.exp, "sqrt": math.sqrt, "log": math.log}

_literals = st.floats(min_value=0.1, max_value=10.0).map(lambda v: repr(round(v, 3)))
_leaves = st.one_of(st.sampled_from(["q", "pi", "e"]), _literals)


def _grow(sub):
    bare = st.tuples(sub, st.sampled_from("+-*/^"), sub).map("".join)
    grouped = st.tuples(sub, st.sampled_from("+-*/^"), sub).map(
        lambda t: f"({t[0]}){t[1]}({t[2]})")
    calls = st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt", "log"]), sub).map(
        lambda t: f"{t[0]}({t[1]})")
    return st.one_of(bare, grouped, calls, sub.map(lambda a: "-" + a))


_expressions = st.recursive(_leaves, _grow, max_leaves=12)


@given(_expressions, st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=300, deadline=None)
def test_compiled_value_matches_python_eval(text, x):
    """Literals are floats, so Python's float operators and math functions are
    an independent oracle: `^` becomes `**`, which shares its associativity and
    its precedence over unary minus."""
    try:
        want = eval(text.replace("^", "**"), {"__builtins__": {}},
                    dict(_ORACLE_NAMES, q=x))
    except (ArithmeticError, ValueError, TypeError):  # TypeError: a complex ** result
        want = None
    assume(isinstance(want, float))
    got = cm.parse_expression(text, "q")(x)
    assert got == want or (math.isnan(got) and math.isnan(want))


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_DOMAINS = {"sin": "infinite", "cos": "infinite", "sqrt": "negative", "log": "non-positive"}


def _tree_walk(node, x):
    """The reference for the compiled code: a tree walk, left operand first,
    with the errors of the nested closures that evaluated expressions before."""
    if node.op in ("num", "const"):
        return node.value
    if node.op == "var":
        return x
    a, *b = [_tree_walk(arg, x) for arg in node.args]
    op, pos = node.op, node.pos
    if op == "neg":
        return -a
    if op in _ARITHMETIC:
        return _ARITHMETIC[op](a, b[0])
    if op == "/":
        if b[0] == 0:
            raise ExpressionError("division by zero", position=pos)
        return a / b[0]
    try:
        return math.pow(a, b[0]) if op == "^" else getattr(math, op)(a)
    except ValueError as exc:
        raise ExpressionError(f"invalid power {a!r}^{b[0]!r}: {exc}" if op == "^"
                              else f"{op} of {_DOMAINS[op]} value {a!r}", position=pos)
    except OverflowError as exc:
        operands = f"power {a!r}^{b[0]!r}" if op == "^" else f"{op} of {a!r}"
        raise OverflowError(f"{operands} overflows: {exc} (at offset {pos})")


@given(_expressions, st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=300, deadline=None)
def test_compiled_code_matches_tree_walk(text, x):
    """Value and first and second derivatives equal a tree walk of their DAGs
    bit for bit (any NaN matches any NaN), or raise its exception with the same
    message."""
    e = cm.parse_expression(text, "q")
    second_ast = expressions._Dag().diff(e.derivative_ast)
    for root, compiled in ((e.ast, e), (e.derivative_ast, e.derivative),
                           (second_ast, e.second_derivative)):
        try:
            want = _tree_walk(root, x)
        except (ExpressionError, OverflowError) as exc:
            with pytest.raises(type(exc)) as err:
                compiled(x)
            assert type(err.value) is type(exc) and str(err.value) == str(exc)
        else:
            assert compiled(x).hex() == want.hex()


def test_long_sums_compile():
    """A flat 600-term sum parses and evaluates as value and derivative."""
    e = cm.parse_expression("+".join(["q"] * 600), "q")
    assert e(1.5) == 900.0
    assert e.derivative(1.5) == 600.0


def _size(root):
    """The number of distinct nodes reachable from `root`."""
    seen, stack = {root}, [root]
    while stack:
        for arg in stack.pop().args:
            if arg not in seen:
                seen.add(arg)
                stack.append(arg)
    return len(seen)


def test_shared_subtrees_keep_derivatives_small():
    """Equal subtrees are one node, so d(q*q*...*q) holds each partial product
    once: 596 distinct nodes, where a tree would have 40197."""
    x = 1.01
    product = cm.parse_expression("*".join(["q"] * 200), "q")
    assert _size(product.derivative_ast) < 1000
    assert product(x) == pytest.approx(x ** 200, rel=1e-12)
    assert product.derivative(x) == pytest.approx(200 * x ** 199, rel=1e-12)
    chain = cm.parse_expression("exp(exp(exp(exp(exp(q)))))", "q")
    assert _size(chain.derivative_ast) < 20
    x, slope = -1.0, 1.0
    for _ in range(5):
        x = math.exp(x)
        slope *= x
    assert chain(-1.0) == pytest.approx(x, rel=1e-12)
    assert chain.derivative(-1.0) == pytest.approx(slope, rel=1e-12)


def test_deep_nesting_is_an_expression_error():
    """Nesting deeper than the recursion limit is a syntax-level error, not a
    RecursionError; shallower nesting still parses."""
    assert cm.parse_expression("(" * 150 + "q" + ")" * 150, "q")(2.0) == 2.0
    with pytest.raises(ExpressionError) as err:
        cm.parse_expression("(" * 300 + "q" + ")" * 300, "q")
    assert str(err.value) == "expression nested too deeply (at offset 0)"


def test_expressions_pickle_by_text():
    e = cm.parse_expression("sqrt(q) + q^3/2", "q")
    back = pickle.loads(pickle.dumps(e))
    assert back == e and back(2.0) == e(2.0) and back.derivative(2.0) == e.derivative(2.0)


def test_key_names_evaluation_errors_only():
    e = cm.parse_expression("1/(q - 2) + log(q)", "q", "model.V")
    with pytest.raises(ExpressionError, match=r"^model\.V: division by zero \(at offset 1\)$"):
        e(2.0)
    with pytest.raises(ExpressionError, match=r"^model\.V: division by zero"):
        e.derivative(2.0)
    with pytest.raises(ExpressionError, match=r"^model\.V: log of non-positive value -1\.0"):
        e(-1.0)
    plain = cm.parse_expression(e.text, "q")
    assert plain == e and hash(plain) == hash(e)
    back = pickle.loads(pickle.dumps(e))
    assert back == e and back.key == "model.V"
    with pytest.raises(ExpressionError, match=r"^division by zero"):
        plain(2.0)
    for text, x, message, position in _SHARED_RAISING:
        keyed = cm.parse_expression(text, "q", "model.V")
        with pytest.raises(ExpressionError, match=r"^model\.V: "):
            keyed(x)
        with pytest.raises(ExpressionError) as err:
            keyed.derivative(x)
        assert str(err.value) == f"model.V: {message} (at offset {position})"
