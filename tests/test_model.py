"""Model layer: states, built-in Hamiltonians, closed-form vs FD partials."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import contactmech as cm
from contactmech import dynamics, expressions, model
from contactmech.errors import DimensionMismatchError, NonFiniteError
from contactmech.model import _block_model, rowwise
from contactmech.scenario import KINDS, build_model, parse_scenario

from conftest import builtin_points, second_derivative


def test_linear_dissipation_eval_examples(linear_model):
    assert linear_model.evaluate(cm.make_state(0.0, 0.0, 0.0, 0.0)) == 0.0
    assert linear_model.evaluate(cm.make_state(1.0, 0.0, 0.0, 0.0)) == 0.5
    m2 = cm.make_linear_dissipation(2.0, 0.5, 0.0)
    assert m2.evaluate(cm.make_state(0.0, 2.0, 1.0, 0.0)) == pytest.approx(1.5)


def test_damped_parametric_eval_examples():
    m = cm.make_damped_parametric(1.0, 0.1, 2.0)
    assert m.evaluate(cm.make_state(1.0, 2.0, 3.0, 0.0)) == pytest.approx(4.3)
    m1 = cm.make_damped_parametric(1.0, 0.1, 1.0)
    assert m1.evaluate(cm.make_state(1.0, 0.0, 0.0, 0.0)) == pytest.approx(0.5)
    assert m1.evaluate(cm.make_state(1.0, 0.0, 1.0, 0.0)) == pytest.approx(0.6)
    free = cm.make_damped_parametric(1.0, 0.1, 0.0)
    assert free.evaluate(cm.make_state(0.3, 2.0, 1.0, 4.0)) == pytest.approx(2.0 + 0.1)


def test_caldirola_kanai_eval_examples():
    ck = cm.make_caldirola_kanai(1.0, 0.1, cm.parse_expression("q^2/2", "q"))
    assert ck.evaluate(cm.make_state(1.0, 1.0, 0.0, 0.0)) == pytest.approx(1.0)
    cons = cm.make_caldirola_kanai(1.0, 0.0, cm.parse_expression("q^2/2", "q"))
    assert cons.partials(cm.make_state(1.0, 0.5, 5.0, 3.0))[3] == 0.0
    assert cons.evaluate(cm.make_state(1.0, 0.0, 5.0, 3.0)) == pytest.approx(0.5)


def test_partials_examples(linear_model):
    d = linear_model.partials(cm.make_state(1.0, 2.0, 0.0, 0.0))
    assert_allclose(d[:2], [1.0, 2.0])
    assert d[2] == 0.1
    assert d[3] == 0.0


def test_caldirola_kanai_partials_at_origin_time():
    ck = cm.make_caldirola_kanai(1.0, 0.1, cm.parse_expression("q^2/2", "q"))
    d = ck.partials(cm.make_state(1.0, 1.0, 0.0, 0.0))
    assert_allclose(d[:2], [1.0, 1.0])
    assert d[2] == 0.0
    # dH/dt = gamma (V - p^2/2m) vanishes at (1, 1, , 0)
    assert d[3] == pytest.approx(0.0, abs=1e-15)


def test_flag_contract_S_independent():
    ck = cm.make_caldirola_kanai(1.0, 0.1, cm.parse_expression("q^2/2", "q"))
    cons = cm.make_linear_dissipation(1.0, 0.0, cm.parse_expression("q^2/2", "q"))
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = cm.make_state(rng.uniform(-2, 2), rng.uniform(-2, 2),
                          rng.uniform(-2, 2), rng.uniform(0, 5))
        assert ck.partials(x)[2] == 0.0
        assert cons.partials(x)[2] == 0.0
        assert cons.partials(x)[3] == 0.0


@pytest.mark.parametrize("factory", [
    lambda: cm.make_linear_dissipation(1.0, 0.1, cm.parse_expression("q^2/2", "q")),
    lambda: cm.make_linear_dissipation(2.0, 0.3, cm.parse_expression("cos(q)", "q")),
    lambda: cm.make_damped_parametric(1.0, 0.1,
                                      cm.parse_expression("1 + 0.1*sin(0.3*t)", "t")),
    lambda: cm.make_caldirola_kanai(1.5, 0.2, cm.parse_expression("2*q^2/2", "q")),
])
def test_closed_form_partials_match_fd(factory):
    """Backbone oracle: ship analytic partials, check them against central FD."""
    model = factory()
    fd_model = cm.make_custom(model.n, lambda t, y: model.value(t, y[None])[0])
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = cm.make_state(rng.uniform(0.3, 2.0), rng.uniform(-2, 2),
                          rng.uniform(-1, 1), rng.uniform(0.0, 4.0))
        assert_allclose(model.partials(x), fd_model.partials(x), rtol=1e-5, atol=1e-8)


def test_eval_and_partials_are_pure(linear_model):
    x = cm.make_state(0.7, -0.4, 0.2, 1.3)
    assert linear_model.evaluate(x) == linear_model.evaluate(x)
    assert np.array_equal(linear_model.partials(x), linear_model.partials(x))


@given(q=st.floats(-3, 3), p=st.floats(-3, 3), S=st.floats(-3, 3))
@settings(max_examples=60, deadline=None)
def test_linear_model_partials_property(q, p, S):
    model = cm.make_linear_dissipation(1.0, 0.1, cm.parse_expression("q^2/2", "q"))
    d = model.partials(cm.make_state(q, p, S, 0.0))
    assert d[0] == pytest.approx(q)
    assert d[1] == pytest.approx(p)
    assert d[2] == 0.1


def test_make_custom_examples():
    zero = cm.make_custom(1, lambda t, y: 0.0)
    d = zero.partials(cm.make_state(1.0, 2.0, 3.0, 4.0))
    assert_allclose(d, 0.0, atol=1e-9)

    free = cm.make_custom(1, lambda t, y: y[1] ** 2 / 2)
    assert free.partials(cm.make_state(0.0, 1.5, 0.0, 0.0))[1] == pytest.approx(1.5, rel=1e-9)

    contraction = cm.make_custom(1, lambda t, y: 0.3 * y[2])
    assert contraction.partials(cm.make_state(0.0, 0.0, 2.0, 0.0))[2] == pytest.approx(0.3, rel=1e-9)


def test_a_custom_tangent_takes_one_gradient_per_call():
    """The field's and A's gradient are one: per `tangent_rhs` call a value-only
    model evaluates H on 28 rows in 3 blocks (the 8-point gradient, the 19-point
    Hessian and the value), and a model with its gradient makes 7 gradient calls
    (one, then 6 for the Hessian's central differences)."""
    blocks, grads = [], []

    def values(t, Y):
        blocks.append(len(Y))
        return Y[:, 1] ** 2 / 2 + Y[:, 0] ** 4 / 4 + 0.3 * Y[:, 2]

    def grad(t, y):
        grads.append(1)
        return np.array([y[0] ** 3, y[1], 0.3, 0.0])

    z = np.concatenate([[0.7, -0.2, 0.1], np.eye(3).ravel()])
    _block_model(1, values).tangent_rhs(0.5, z)
    assert blocks == [8, 19, 1]
    cm.make_custom(1, lambda t, y: values(t, y[None])[0], grad).tangent_rhs(0.5, z)
    assert len(grads) == 7


@pytest.mark.parametrize("n, length", [(1, 3), (1, 5), (2, 4), (2, 7)])
def test_a_custom_grad_of_the_wrong_length_names_the_model(n, length):
    model = cm.make_custom(n, lambda t, y: 0.0, lambda t, y: np.zeros(length), name="short")
    d = 2 * n + 1
    for call, y in ((model.grad, np.zeros((1, d))), (model.field, np.zeros(d)),
                    (model.tangent_rhs, np.zeros(d + d * d))):
        with pytest.raises(DimensionMismatchError, match=f"'short' needs a grad of length "
                                                         f"{2 * n + 2}"):
            call(0.0, y)
    with pytest.raises(DimensionMismatchError, match="'short'"):
        model.partials(cm.make_state(np.zeros(n), np.zeros(n), 0.0, 0.0))


def test_constructor_preconditions():
    with pytest.raises(ValueError):
        cm.make_linear_dissipation(0.0, 0.1, cm.parse_expression("q^2/2", "q"))
    with pytest.raises(ValueError):
        cm.make_linear_dissipation(-1.0, 0.1, cm.parse_expression("q^2/2", "q"))
    with pytest.raises(ValueError):
        cm.make_damped_parametric(1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        cm.make_caldirola_kanai(-2.0, 0.1, cm.parse_expression("q^2/2", "q"))
    with pytest.raises(ValueError):
        cm.make_custom(0, lambda t, y: 0.0)
    for n in (1.7, 2.0, True, "2"):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            cm.make_custom(n, lambda t, y: 0.0)
    assert cm.make_custom(np.int64(2), lambda t, y: 0.0).n == 2
    with pytest.raises(ValueError, match="mass must be positive"):
        cm.make_damped_parametric(math.nan, 0.1, 1.0)
    with pytest.raises(ValueError, match="damping rate must be non-negative"):
        cm.make_linear_dissipation(1.0, math.nan, cm.parse_expression("q^2/2", "q"))
    with pytest.raises(ValueError, match="mass must be positive"):
        cm.make_caldirola_kanai(math.nan, 0.1, cm.parse_expression("q^2/2", "q"))
    with pytest.raises(ValueError, match="damping rate must be non-negative"):
        cm.make_caldirola_kanai(1.0, math.nan, cm.parse_expression("q^2/2", "q"))
    with pytest.raises(ValueError, match="mass must be positive"):
        cm.make_linear_dissipation(math.inf, 0.1, 1.0)
    with pytest.raises(ValueError, match="damping rate must be non-negative"):
        cm.make_damped_parametric(1.0, math.inf, 1.0)
    with pytest.raises(ValueError, match="mass must be positive"):
        cm.make_caldirola_kanai(math.inf, 0.1, cm.parse_expression("q^2/2", "q"))
    with pytest.raises(ValueError, match="damping rate must be non-negative"):
        cm.make_caldirola_kanai(1.0, math.inf, cm.parse_expression("q^2/2", "q"))


def test_dimension_and_finiteness_errors(linear_model):
    bad_dim = cm.ExtendedState([1.0, 2.0], [0.0, 0.0], 0.0, 0.0)
    with pytest.raises(DimensionMismatchError):
        linear_model.evaluate(bad_dim)
    with pytest.raises(DimensionMismatchError):
        linear_model.partials(bad_dim)
    exploding = cm.make_custom(1, lambda t, y: math.inf)
    with pytest.raises(NonFiniteError):
        exploding.evaluate(cm.make_state(1.0, 0.0, 0.0, 0.0))


def test_state_validation():
    with pytest.raises(DimensionMismatchError):
        cm.ExtendedState([1.0], [1.0, 2.0], 0.0, 0.0)
    with pytest.raises(DimensionMismatchError):
        cm.ExtendedState([], [], 0.0, 0.0)
    with pytest.raises(NonFiniteError):
        cm.ExtendedState([np.nan], [0.0], 0.0, 0.0)
    with pytest.raises(NonFiniteError):
        cm.make_state(1.0, 0.0, 0.0, np.inf)
    st_ = cm.ExtendedState([1.0], [2.0], 3.0, 0.0)
    assert st_.n == 1
    with pytest.raises(ValueError):
        st_.q[0] = 5.0  # immutable storage


@pytest.mark.parametrize("n", [1, 2])
def test_states_compare_and_hash_by_value(n):
    q, p = np.linspace(0.5, 1.5, n), -np.arange(n, dtype=float)
    x = cm.make_state(q, p, 0.3, 1.0)
    same = cm.make_state(q.tolist(), p.copy(), 0.3, 1.0)
    assert x == same and not x != same and hash(x) == hash(same)
    for other in (cm.make_state(q + 1.0, p, 0.3, 1.0), cm.make_state(q, p + 1.0, 0.3, 1.0),
                  cm.make_state(q, p, 0.4, 1.0), cm.make_state(q, p, 0.3, 2.0)):
        assert x != other and not x == other
    assert x != (q, p, 0.3, 1.0)
    assert cm.make_state(q, p, 0.0, 1.0) == cm.make_state(q, p, -0.0, 1.0)
    assert hash(cm.make_state(q, p, 0.0, 1.0)) == hash(cm.make_state(q, p, -0.0, 1.0))
    states = {x, same, cm.make_state(q, p, 0.4, 1.0)}
    assert len(states) == 2 and same in states and cm.make_state(q, p, 0.5, 1.0) not in states


FACTORIES = [(cm.make_linear_dissipation, "V", "q"), (cm.make_damped_parametric, "omega", "t"),
             (cm.make_caldirola_kanai, "V", "q")]


def test_an_expression_passed_to_a_factory_keeps_its_symbolic_derivative():
    for factory, name, var in FACTORIES:
        expr = cm.parse_expression(f"0.7 + {var}^2/2 + 0.05*{var}^4", var)
        assert factory(1.3, 0.2, expr).params[name] is expr
    V = cm.parse_expression("0.7 + q^2/2 + 0.05*q^4", "q")
    model = cm.make_linear_dissipation(1.3, 0.2, V)
    for q, p in ((0.4, -0.7), (-1.3, 0.0), (2.0, 1.0)):
        assert model.field(0.0, np.array([q, p, 0.3]))[1] == -V.derivative(q) - p * 0.2


@pytest.mark.parametrize("factory, name, var", FACTORIES)
def test_a_number_passed_to_a_factory_is_its_parsed_repr(factory, name, var):
    for c in (1.5, 0, 2, -0.0, -3.25, 1e-300):
        by_number = factory(1.3, 0.2, c)
        by_text = factory(1.3, 0.2, cm.parse_expression(repr(float(c)), var))
        for t, y in ((0.0, [0.4, -0.7, 0.2]), (1.7, [-1.3, 0.0, -0.5]), (3.0, [0.0, 2.0, 1.0])):
            y, z = np.array(y), np.array(y + np.eye(3).ravel().tolist())
            assert [v.hex() for v in by_number.field(t, y)] == \
                [v.hex() for v in by_text.field(t, y)]
            assert [v.hex() for v in by_number.tangent_rhs(t, z)] == \
                [v.hex() for v in by_text.tangent_rhs(t, z)]


@pytest.mark.parametrize("factory, name, var", FACTORIES)
def test_factories_reject_anything_else_by_name(factory, name, var):
    for bad in (lambda x: x, f"{var}^2/2", True, math.nan, math.inf, -math.inf, None):
        with pytest.raises((TypeError, ValueError), match=f"^{name} must be"):
            factory(1.3, 0.2, bad)


def test_the_solvers_reject_a_bare_callable_or_a_non_finite_omega_by_name():
    grid = np.linspace(0.0, 1.0, 5)
    calls = [lambda w: cm.solve_ermakov(w, 0.1, 1.0, 0.0, grid),
             lambda w: cm.solve_riccati(w, 0.1, 0.5, grid),
             lambda w: cm.riccati_sensitivity(w, 0.1, 0.5, grid)]
    for call in calls:
        for bad in (lambda t: 1.0, "1 + t", False, math.nan):
            with pytest.raises((TypeError, ValueError), match="^omega must be"):
                call(bad)


def test_the_tangent_takes_V2_from_the_symbolic_second_derivative():
    """A[1, 0] = -V''(q) at p = 0, the entry of the tangent right-hand side at
    J = I, with V'' the symbolic second derivative of V's own DAG."""
    def d2V(V, q):
        model = cm.make_linear_dissipation(1.0, 0.0, V)
        return -model.tangent_rhs(0.0, np.array([q, 0.0, 0.0, *np.eye(3).ravel()]))[6]
    assert d2V(cm.parse_expression("2.5*q^2/2", "q"), 0.7) == 2.5
    assert d2V(2.5, 10.0) == 0.0
    quartic = cm.parse_expression("q^4", "q")
    for q in (-1.7, -0.3, 0.4, 2.0, 15.0):
        assert d2V(quartic, q) == second_derivative(quartic)(q)
        assert d2V(quartic, q) == pytest.approx(12 * q * q, rel=1e-14)


_H = {  # each built-in's H in the float operations of its template
    "linear_dissipation": lambda m, g, f, q, p, S, t: p * p / (2 * m) + f(q) + g * S,
    "damped_parametric": lambda m, g, f, q, p, S, t:
        p * p / (2 * m) + 0.5 * m * f(t) * f(t) * q * q + g * S,
    "caldirola_kanai": lambda m, g, f, q, p, S, t:
        math.exp(-g * t) * p * p / (2 * m) + math.exp(g * t) * f(q),
}


@pytest.mark.parametrize("kind", list(KINDS))
def test_a_kind_is_parsed_differentiated_and_compiled_once(kind, monkeypatch):
    """24 models of one kind and one shape, each with its own m, gamma and
    literals of V or omega: the first build parses and differentiates the
    kind's template with the text and compiles its four functions, and the
    other 23 do neither; each binds its own values."""
    _, key, var = KINDS[kind]
    configs = [parse_scenario(f"[model]\nkind = {kind}\nm = {1 + i / 8}\ngamma = {i / 16}\n"
                              f"{key} = {1.1 + i / 4:.4f}*{var}^2/2 + {0.01 + i / 50:.4f}*{var}^4\n"
                              "[initial]\nq = 1\np = 0\n[integration]\nt_end = 1\n")
               for i in range(24)]
    diffs, diff = [], expressions._Dag.diff
    monkeypatch.setattr(expressions._Dag, "diff",
                        lambda self, root, x=None: diffs.append(x) or diff(self, root, x))
    model._kind_code.cache_clear()
    expressions._template.cache_clear()
    models = [build_model(configs[0])]
    first = (len(diffs), expressions._template.cache_info().misses)
    models += [build_model(config) for config in configs[1:]]
    assert first[0] >= 4 and first[1] == 4   # the gradient's four, then the Hessian's
    assert (len(diffs), expressions._template.cache_info().misses) == first
    y = np.array([[0.7, -0.3, 0.2]])
    for config, built in zip(configs, models):
        f = getattr(config, key)
        assert built.params == {"m": config.m, "gamma": config.gamma, key: f}
        assert built.value(0.5, y)[0] == _H[kind](config.m, config.gamma, f, 0.7, -0.3, 0.2, 0.5)


@pytest.mark.parametrize("kind", list(KINDS))
def test_a_substep_is_compiled_on_the_first_fixed_step_solve_of_its_kind(kind, monkeypatch):
    """`build_model` compiles no RK4 substep.  The first fixed-step solve of a
    kind and shape compiles its field's substep; the other models of the kind
    and shape compile nothing, an adaptive solve takes no substep, and a
    fixed-step tangent solve takes `dynamics._rk4` over tangent_rhs, which
    carries no substep of its own."""
    _, key, var = KINDS[kind]
    configs = [parse_scenario(f"[model]\nkind = {kind}\nm = {1 + i / 8}\ngamma = {i / 16}\n"
                              f"{key} = {1.25 + i / 4:.2f}*{var}^2/2\n"
                              "[initial]\nq = 1\np = 0\n[integration]\nt_end = 1\n")
               for i in range(3)]
    compiled = []
    monkeypatch.setattr(expressions, "compile", lambda *args: compiled.append(args[0])
                        or compile(*args), raising=False)
    model._kind_step.cache_clear()
    expressions._template.cache_clear()

    def substeps():
        return [source for source in compiled if source.startswith("def f(t, y, h):")]

    models = [build_model(config) for config in configs]
    assert not substeps()
    x0 = cm.make_state(1.0, 0.0, 0.0, 0.0)
    for built_model in models:
        cm.integrate(built_model, x0, 0.5)
    assert not substeps()
    fixed = cm.IntegratorOptions(method="fixed_rk4", step=0.01)
    for tangent in (False, True):
        for built_model in models:
            cm.integrate(built_model, x0, 0.5, fixed, tangent=tangent)
            assert not hasattr(built_model.tangent_rhs, "rk4_step")
        assert len(substeps()) == 1
        assert substeps()[-1].startswith("def f(t, y, h):\n    q, p, S = y\n")


_SHAPES = [  # (kind, two texts of one shape); numbers become the parsed repr(float(c))
    ("linear_dissipation", "1.2*q^2/2 + 0.3*q^4", "0.7*q^3/5 + 0.9*q^2"),
    ("caldirola_kanai", "1.2*q^2/2 + 0.3*q^4", "0.7*q^3/5 + 0.9*q^2"),
    ("linear_dissipation", "1 - cos(q)", "1 - cos(q)"),
    ("caldirola_kanai", "2 - cos(3*q)", "5 - cos(7*q)"),
    ("linear_dissipation", "q^2/3", "q^5/7"),   # 3 and 7 are variable-free divisors
    ("caldirola_kanai", 2.5, 7.5),
    ("damped_parametric", 0, 0.0),
    ("damped_parametric", "1 + 0.1*sin(0.3*t)", "1 + 0.7*sin(0.2*t)"),
]


def _shape_rows():
    """(t, z, h) rows with zeros of both signs, q < 0, and p = 0 or gamma = 0 in
    the models below, so that p * dH/dS can be a signed zero."""
    rng = np.random.default_rng(53)
    rows = []
    for t, y in builtin_points():
        for J in (np.eye(3), rng.uniform(-2, 2, (3, 3)), -np.eye(3)):
            rows.append((t, np.concatenate([y, J.ravel()]), rng.choice([0.01, -0.25])))
    return rows


def _own_text(kind, m, gamma, expr):
    """value, grad, field, tangent_rhs, the field's substep and `dynamics._rk4`
    over tangent_rhs of `expr`'s own text, its literals in the code: the code
    a shape stands for."""
    key = (kind, expr.text, expr._where, False)
    params = {"m": m, "gamma": gamma}
    value, grad, field, tangent_rhs = model._bind(model._kind_code(*key), params)
    return (value, grad, field, tangent_rhs, model._bind(model._kind_step(*key), params)[0],
            functools.partial(dynamics._rk4, tangent_rhs))


def _outputs(functions, rows):
    """Each function's output bytes, or its error, on each row."""
    value, grad, field, tangent, step, tangent_step = functions
    out = []
    for t, z, h in rows:
        for f, args in ((value, (t, z[None, :3])), (grad, (t, z[None, :3])),
                        (field, (t, z[:3])), (tangent, (t, z)),
                        (step, (t, z[:3].tolist(), h)), (tangent_step, (t, z.tolist(), h))):
            try:
                out.append(np.asarray(f(*args), dtype=float).tobytes())
            except (ArithmeticError, ValueError) as exc:
                out.append(f"{type(exc).__name__}: {exc}")
    return out


@pytest.mark.parametrize("kind, first, second", _SHAPES)
def test_texts_of_one_shape_give_the_bits_of_their_own_text(kind, first, second):
    """Two texts of one shape, built in either order, so that each is once a
    miss of the shape cache and once a hit: value, grad, field, tangent_rhs,
    the field's RK4 substep and the tangent's, `dynamics._rk4` over
    tangent_rhs, are those of the code with the text's own literals, bit for
    bit and signs of zeros included."""
    factory, name, var = KINDS[kind]
    texts = [t if not isinstance(t, str) else cm.parse_expression(t, var, f"model.{name}")
             for t in (first, second)]
    rows = _shape_rows()
    for order in (texts, texts[::-1]):
        model._kind_code.cache_clear()
        model._kind_step.cache_clear()
        built = [factory(1.3, gamma, text) for gamma in (0.0, 0.3) for text in order]
        steps = [(b.field.rk4_step(), dynamics._substep(b.tangent_rhs)) for b in built]
        assert model._kind_code.cache_info()[:2] == (3, 1)
        assert model._kind_step.cache_info()[:2] == (3, 1)
        exprs = [b.params[name] for b in built]
        assert len({model._shape(e.text)[0] for e in exprs}) == 1
        for b, expr, step in zip(built, exprs, steps):
            functions = (b.value, b.grad, b.field, b.tangent_rhs, *step)
            assert _outputs(functions, rows) == \
                _outputs(_own_text(kind, 1.3, b.params["gamma"], expr), rows)


def test_a_literal_node_tested_for_zero_takes_the_code_of_the_text():
    """d/dq of (2q - 2q) exp(-q) has the node 2 - 2, which the rules drop as
    the number 0 in the code of the text itself but keep in its shape's code,
    where it is a node of literals: there V' would be 0 exp(-q) + (2q - 2q)
    (-exp(-q)) = +0.0, not -0.0, and the field's dp/dt -0.0.  The model takes
    the code of its text, as does one whose literals divide by 0."""
    rows = _shape_rows()
    for text in ("(2*q - 2*q)*exp(-q)", "(5*q - 5*q)*exp(-q)", "q + 3/(2-2)"):
        expr = cm.parse_expression(text, "q", "model.V")
        built = cm.make_linear_dissipation(1.3, 0.0, expr)
        functions = (built.value, built.grad, built.field, built.tangent_rhs,
                     built.field.rk4_step(), dynamics._substep(built.tangent_rhs))
        assert _outputs(functions, rows) == \
            _outputs(_own_text("linear_dissipation", 1.3, 0.0, expr), rows)
    built = cm.make_linear_dissipation(1.3, 0.0, cm.parse_expression("(2*q - 2*q)*exp(-q)", "q"))
    assert_array_equal(np.signbit(built.field(0.0, np.array([0.5, 0.3, 0.0]))), [0, 0, 0])


@pytest.mark.parametrize("kind, texts, build, evaluate, message", [
    ("caldirola_kanai", ("exp(q)", "exp(q)"), 1, (0.0, [800.0, 0.0, 0.0]),
     "model.V: exp of 800.0 overflows: math range error (at offset 0)"),
    ("caldirola_kanai", ("exp(2*q)", "exp(4*q)"), 1, (0.0, None),
     "model.V: exp of 800.0 overflows: math range error (at offset 0)"),
    ("caldirola_kanai", ("2*q^2/2", "3*q^2/2"), 0.1, (100000.0, [1.0, 0.0, 0.0]),
     "caldirola_kanai: e^(±gamma t) with model.gamma = 0.1 overflows at t=100000.0: "
     "math range error"),
    ("linear_dissipation", ("q/(2-2)", "q/(3-3)"), 0.1, (0.0, [1.0, 0.0, 0.0]),
     "model.V: division by zero (at offset 1)"),
])
def test_error_texts_hold_for_texts_of_one_shape(kind, texts, build, evaluate, message):
    """Each built-in function raises the error text of the text itself on
    every text of a shape: an exp of V is V's own overflow, not the template's
    e^(±gamma t); a division by zero in V raises when V is evaluated, not when
    the model is built."""
    factory, name, var = KINDS[kind]
    t, y = evaluate
    for text in texts:
        built = factory(1.3, build, cm.parse_expression(text, var, f"model.{name}"))
        q = y if y is not None else [800.0 / float(text[4]), 0.0, 0.0]
        z = np.array([*q, *np.eye(3).ravel()])
        calls = [lambda: rowwise(built.value, t, np.array([q])),
                 lambda: rowwise(built.grad, t, np.array([q])),
                 lambda: built.field(t, np.array(q)), lambda: built.tangent_rhs(t, z),
                 lambda: built.field.rk4_step()(t, q, 0.01),
                 lambda: dynamics._substep(built.tangent_rhs)(t, z.tolist(), 0.01),
                 lambda: built.evaluate(cm.make_state(*q, t))]
        for call in calls:
            with pytest.raises((ArithmeticError, ValueError)) as err:
                call()
            assert str(err.value) == message


@pytest.mark.parametrize("factory, name, var", FACTORIES)
def test_an_expression_in_another_variable_is_refused_by_name(factory, name, var):
    """V must be in q and omega in t: an expression in p, S, t or q is never
    read as the template's variable of that name."""
    for other in ("p", "S", "q" if var == "t" else "t", "x"):
        with pytest.raises(ValueError, match=f"^{name} must be an expression in {var}, "
                                             f"got one in {other}$"):
            factory(1.3, 0.2, cm.parse_expression(f"{other}^2/2", other))


def test_the_shape_caches_are_bounded():
    """40 shapes keep at most the caches' fixed sizes of compiled code."""
    for i in range(40):
        built = cm.make_linear_dissipation(1.0, 0.1, cm.parse_expression(f"q^2/2{' + q' * i}",
                                                                         "q"))
        built.field.rk4_step()
    for cache in (model._kind_code, model._kind_step):
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize < 40


def test_a_profile_names_each_kind_s_tangent():
    """cProfile keeps one entry per (file, line, function): each emitted code
    object is named by what it computes, so the tangents of two kinds, and
    the field's RK4 substep, are entries of their own."""
    import cProfile
    import pstats
    profile = cProfile.Profile()
    x0 = cm.make_state(0.8, -0.2, 0.1, 0.0)
    V = cm.parse_expression("0.9*q^2/2 + 0.05*q^4", "q", "model.V")
    models = [cm.make_linear_dissipation(1.2, 0.2, V), cm.make_caldirola_kanai(1.2, 0.2, V)]
    profile.enable()
    for built in models:
        cm.jacobian_determinant_series(built, x0, 1.0)
        cm.integrate(built, x0, 0.5, cm.IntegratorOptions(method="fixed_rk4", step=0.01))
    profile.disable()
    entries = {(file, name): stats[1]
               for (file, _, name), stats in pstats.Stats(profile).stats.items()}
    for kind in ("linear_dissipation", "caldirola_kanai"):
        assert entries[(f"<{kind}.tangent>", f"{kind}.tangent")] > 50
        assert entries[(f"<rk4 {kind}.field>", f"rk4 {kind}.field")] == 50
    assert not any(file == "<expression>" for file, _ in entries)


def test_a_deep_text_builds_the_same_model_at_any_caller_depth():
    """A model parses V's text again, deeper in the stack than V's own parse:
    built 30 frames deeper, first, a model of a text 5,000 parentheses deep
    gives the bits of one built at the top."""
    V = cm.parse_expression("(" * 5000 + "q^2/2 + 0.1*q^4" + ")" * 5000, "q", "model.V")

    def deeper(k):
        return cm.make_linear_dissipation(1.0, 0.1, V) if k == 0 else deeper(k - 1)

    deep, top = deeper(30), cm.make_linear_dissipation(1.0, 0.1, V)
    y = np.array([[0.5, -0.3, 0.2], [-1.5, 0.7, 0.0]])
    for f in ("value", "grad"):
        assert_array_equal(getattr(deep, f)(0.5, y), getattr(top, f)(0.5, y))
    assert_array_equal(deep.field(0.5, y[0]), top.field(0.5, y[0]))
