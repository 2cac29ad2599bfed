"""Expression grammar: parsing, precedence, evaluation, symbolic derivative."""

import math
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import contactmech as cm
from contactmech.errors import ExpressionError


def test_trivial_constant():
    e = cm.parse_expression("0", "q")
    assert e(5.0) == 0.0
    assert e.derivative(5.0) == 0.0
    assert e.is_constant()


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


@given(st.recursive(_leaves, _grow, max_leaves=12),
       st.floats(min_value=-3.0, max_value=3.0))
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


def test_long_sums_compile():
    """A flat 600-term sum parses and evaluates as value and derivative."""
    e = cm.parse_expression("+".join(["q"] * 600), "q")
    assert e(1.5) == 900.0
    assert e.derivative(1.5) == 600.0


def test_as_scalar_function_bridge():
    fn = cm.parse_expression("q^2/2", "q").as_scalar_function()
    assert fn(3.0) == 4.5
    assert fn.derivative(3.0) == 3.0
    const = cm.parse_expression("2*pi", "t").as_scalar_function()
    assert const.is_constant


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
