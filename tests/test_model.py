"""Model layer: states, built-in Hamiltonians, closed-form vs FD partials."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import contactmech as cm
from contactmech import expressions, model
from contactmech.errors import DimensionMismatchError, NonFiniteError
from contactmech.scenario import KINDS, build_model, parse_scenario


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
    J = I, with V'' the expression's symbolic second derivative."""
    def d2V(V, q):
        model = cm.make_linear_dissipation(1.0, 0.0, V)
        return -model.tangent_rhs(0.0, np.array([q, 0.0, 0.0, *np.eye(3).ravel()]))[6]
    assert d2V(cm.parse_expression("2.5*q^2/2", "q"), 0.7) == 2.5
    assert d2V(2.5, 10.0) == 0.0
    quartic = cm.parse_expression("q^4", "q")
    for q in (-1.7, -0.3, 0.4, 2.0, 15.0):
        assert d2V(quartic, q) == quartic.second_derivative(q)
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
    """24 models of one kind, each with its own m, gamma and V or omega: the
    first build parses and differentiates the kind's template and compiles its
    four functions, and the other 23 do neither; each binds its own values."""
    _, key, var = KINDS[kind]
    configs = [parse_scenario(f"[model]\nkind = {kind}\nm = {1 + i / 8}\ngamma = {i / 16}\n"
                              f"{key} = {1 + i / 4}*{var}^2/2 + {i / 50}*{var}^4\n"
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
    kind compiles its field's substep and the first with the tangent the
    tangent's; the other models of the kind compile nothing, and an adaptive
    solve takes no substep."""
    _, key, var = KINDS[kind]
    configs = [parse_scenario(f"[model]\nkind = {kind}\nm = {1 + i / 8}\ngamma = {i / 16}\n"
                              f"{key} = {1 + i / 4}*{var}^2/2\n"
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
    for tangent, names in ((False, "q, p, S = y\n"), (True, "q, p, S, J00, ")):
        for built_model in models:
            cm.integrate(built_model, x0, 0.5, fixed, tangent=tangent)
        assert len(substeps()) == 1 + tangent
        assert substeps()[-1].startswith(f"def f(t, y, h):\n    {names}")
