"""Model layer: states, built-in Hamiltonians, closed-form vs FD partials."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import contactmech as cm
from contactmech.errors import DimensionMismatchError, NonFiniteError


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
    ck = cm.make_caldirola_kanai(1.0, 0.1, cm.quadratic_potential())
    assert ck.evaluate(cm.make_state(1.0, 1.0, 0.0, 0.0)) == pytest.approx(1.0)
    cons = cm.make_caldirola_kanai(1.0, 0.0, cm.quadratic_potential())
    assert not cons.depends_on_t
    assert cons.evaluate(cm.make_state(1.0, 0.0, 5.0, 3.0)) == pytest.approx(0.5)


def test_partials_examples(linear_model):
    d = linear_model.partials(cm.make_state(1.0, 2.0, 0.0, 0.0))
    assert_allclose(d.dH_dq, [1.0])
    assert_allclose(d.dH_dp, [2.0])
    assert d.dH_dS == 0.1
    assert d.dH_dt == 0.0


def test_caldirola_kanai_partials_at_origin_time():
    ck = cm.make_caldirola_kanai(1.0, 0.1, cm.quadratic_potential())
    d = ck.partials(cm.make_state(1.0, 1.0, 0.0, 0.0))
    assert_allclose(d.dH_dq, [1.0])
    assert_allclose(d.dH_dp, [1.0])
    assert d.dH_dS == 0.0
    # dH/dt = gamma (V - p^2/2m) vanishes at (1, 1, , 0)
    assert d.dH_dt == pytest.approx(0.0, abs=1e-15)


def test_flag_contract_S_independent():
    ck = cm.make_caldirola_kanai(1.0, 0.1, cm.quadratic_potential())
    cons = cm.make_linear_dissipation(1.0, 0.0, cm.quadratic_potential())
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = cm.make_state(rng.uniform(-2, 2), rng.uniform(-2, 2),
                          rng.uniform(-2, 2), rng.uniform(0, 5))
        assert ck.partials(x).dH_dS == 0.0
        assert cons.partials(x).dH_dS == 0.0
        assert cons.partials(x).dH_dt == 0.0


@pytest.mark.parametrize("factory", [
    lambda: cm.make_linear_dissipation(1.0, 0.1, cm.quadratic_potential()),
    lambda: cm.make_linear_dissipation(2.0, 0.3, cm.ScalarFunction(
        f=lambda q: math.cos(q), df=lambda q: -math.sin(q))),
    lambda: cm.make_damped_parametric(1.0, 0.1, cm.ScalarFunction(
        f=lambda t: 1 + 0.1 * math.sin(0.3 * t),
        df=lambda t: 0.03 * math.cos(0.3 * t))),
    lambda: cm.make_caldirola_kanai(1.5, 0.2, cm.quadratic_potential(2.0)),
])
def test_closed_form_partials_match_fd(factory):
    """Backbone oracle: ship analytic partials, check them against central FD."""
    model = factory()
    fd_model = cm.make_custom(model.n, model.value,
                              depends_on_S=model.depends_on_S,
                              depends_on_t=model.depends_on_t)
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = cm.make_state(rng.uniform(0.3, 2.0), rng.uniform(-2, 2),
                          rng.uniform(-1, 1), rng.uniform(0.0, 4.0))
        da, dn = model.partials(x), fd_model.partials(x)
        assert_allclose(da.dH_dq, dn.dH_dq, rtol=1e-5, atol=1e-8)
        assert_allclose(da.dH_dp, dn.dH_dp, rtol=1e-5, atol=1e-8)
        assert_allclose(da.dH_dS, dn.dH_dS, rtol=1e-5, atol=1e-8)
        assert_allclose(da.dH_dt, dn.dH_dt, rtol=1e-5, atol=1e-8)


def test_eval_and_partials_are_pure(linear_model):
    x = cm.make_state(0.7, -0.4, 0.2, 1.3)
    assert linear_model.evaluate(x) == linear_model.evaluate(x)
    d1, d2 = linear_model.partials(x), linear_model.partials(x)
    assert np.array_equal(d1.dH_dq, d2.dH_dq)
    assert np.array_equal(d1.dH_dp, d2.dH_dp)
    assert d1.dH_dS == d2.dH_dS and d1.dH_dt == d2.dH_dt


@given(q=st.floats(-3, 3), p=st.floats(-3, 3), S=st.floats(-3, 3))
@settings(max_examples=60, deadline=None)
def test_linear_model_partials_property(q, p, S):
    model = cm.make_linear_dissipation(1.0, 0.1, cm.quadratic_potential())
    d = model.partials(cm.make_state(q, p, S, 0.0))
    assert d.dH_dq[0] == pytest.approx(q)
    assert d.dH_dp[0] == pytest.approx(p)
    assert d.dH_dS == 0.1


def test_make_custom_examples():
    zero = cm.make_custom(1, lambda t, y: 0.0, depends_on_S=False, depends_on_t=False)
    d = zero.partials(cm.make_state(1.0, 2.0, 3.0, 4.0))
    assert_allclose([d.dH_dq[0], d.dH_dp[0], d.dH_dS, d.dH_dt], 0.0, atol=1e-9)

    free = cm.make_custom(1, lambda t, y: y[1] ** 2 / 2, depends_on_S=False,
                          depends_on_t=False)
    assert free.partials(cm.make_state(0.0, 1.5, 0.0, 0.0)).dH_dp[0] == pytest.approx(1.5, rel=1e-9)

    contraction = cm.make_custom(1, lambda t, y: 0.3 * y[2], depends_on_t=False)
    assert contraction.partials(cm.make_state(0.0, 0.0, 2.0, 0.0)).dH_dS == pytest.approx(0.3, rel=1e-9)


@pytest.mark.parametrize("n, length", [(1, 3), (1, 5), (2, 4), (2, 7)])
def test_a_custom_grad_of_the_wrong_length_names_the_model(n, length):
    model = cm.make_custom(n, lambda t, y: 0.0, lambda t, y: np.zeros(length), name="short")
    y = np.zeros(2 * n + 1)
    for call in (model.grad, model.field, model.field_jacobian):
        with pytest.raises(DimensionMismatchError, match=f"'short' needs a grad of length "
                                                         f"{2 * n + 2}"):
            call(0.0, y)
    with pytest.raises(DimensionMismatchError, match="'short'"):
        model.partials(cm.make_state(np.zeros(n), np.zeros(n), 0.0, 0.0))


def test_constructor_preconditions():
    with pytest.raises(ValueError):
        cm.make_linear_dissipation(0.0, 0.1, cm.quadratic_potential())
    with pytest.raises(ValueError):
        cm.make_linear_dissipation(-1.0, 0.1, cm.quadratic_potential())
    with pytest.raises(ValueError):
        cm.make_damped_parametric(1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        cm.make_caldirola_kanai(-2.0, 0.1, cm.quadratic_potential())
    with pytest.raises(ValueError):
        cm.make_custom(0, lambda t, y: 0.0)
    with pytest.raises(ValueError, match="mass must be positive"):
        cm.make_damped_parametric(math.nan, 0.1, 1.0)
    with pytest.raises(ValueError, match="damping rate must be non-negative"):
        cm.make_linear_dissipation(1.0, math.nan, cm.quadratic_potential())
    with pytest.raises(ValueError, match="mass must be positive"):
        cm.make_caldirola_kanai(math.nan, 0.1, cm.quadratic_potential())
    with pytest.raises(ValueError, match="damping rate must be non-negative"):
        cm.make_caldirola_kanai(1.0, math.nan, cm.quadratic_potential())
    with pytest.raises(ValueError, match="mass must be positive"):
        cm.make_linear_dissipation(math.inf, 0.1, 1.0)
    with pytest.raises(ValueError, match="damping rate must be non-negative"):
        cm.make_damped_parametric(1.0, math.inf, 1.0)
    with pytest.raises(ValueError, match="mass must be positive"):
        cm.make_caldirola_kanai(math.inf, 0.1, cm.quadratic_potential())
    with pytest.raises(ValueError, match="damping rate must be non-negative"):
        cm.make_caldirola_kanai(1.0, math.inf, cm.quadratic_potential())


def test_dimension_and_finiteness_errors(linear_model):
    bad_dim = cm.ExtendedState(cm.ContactState([1.0, 2.0], [0.0, 0.0], 0.0), 0.0)
    with pytest.raises(DimensionMismatchError):
        linear_model.evaluate(bad_dim)
    with pytest.raises(DimensionMismatchError):
        linear_model.partials(bad_dim)
    exploding = cm.make_custom(1, lambda t, y: math.inf)
    with pytest.raises(NonFiniteError):
        exploding.evaluate(cm.make_state(1.0, 0.0, 0.0, 0.0))


def test_state_validation():
    with pytest.raises(DimensionMismatchError):
        cm.ContactState([1.0], [1.0, 2.0], 0.0)
    with pytest.raises(DimensionMismatchError):
        cm.ContactState([], [], 0.0)
    with pytest.raises(NonFiniteError):
        cm.ContactState([np.nan], [0.0], 0.0)
    with pytest.raises(NonFiniteError):
        cm.make_state(1.0, 0.0, 0.0, np.inf)
    st_ = cm.ContactState([1.0], [2.0], 3.0)
    assert st_.n == 1
    with pytest.raises(ValueError):
        st_.q[0] = 5.0  # immutable storage


def test_scalar_function_fallback_and_constants():
    fd = cm.ScalarFunction(f=lambda x: x ** 3)
    assert fd.derivative(2.0) == pytest.approx(12.0, rel=1e-8)
    const = cm.as_scalar_fn(2.5)
    assert const(10.0) == 2.5 and const.derivative(10.0) == 0.0 and const.is_constant
    with pytest.raises(TypeError):
        cm.as_scalar_fn("not a function")


def test_an_expression_passed_to_a_factory_keeps_its_symbolic_derivative():
    expr = cm.parse_expression("q^2/2 + 0.05*q^4", "q")
    direct = cm.make_linear_dissipation(1, 0.3, expr)
    bridged = cm.make_linear_dissipation(1, 0.3, expr.as_scalar_function())
    assert direct.params["V"].df is not None
    x0, opts = cm.make_state(1.2, -0.3, 0.1), cm.IntegratorOptions(rel_tol=1e-9)
    _, det_direct = cm.jacobian_determinant_series(direct, x0, 4.0, opts)
    _, det_bridged = cm.jacobian_determinant_series(bridged, x0, 4.0, opts)
    assert_array_equal(det_direct, det_bridged)


def test_scalar_function_second_derivative():
    assert cm.quadratic_potential(2.5).second_derivative(0.7) == pytest.approx(2.5, rel=1e-9)
    assert cm.as_scalar_fn(2.5).second_derivative(10.0) == 0.0
    quartic = cm.parse_expression("q^4", "q").as_scalar_function()
    for q in (-1.7, -0.3, 0.4, 2.0, 15.0):
        assert quartic.second_derivative(q) == pytest.approx(12 * q * q, rel=1e-6)
    cubic = cm.ScalarFunction(f=lambda x: x ** 3)  # no df: a difference of differences
    assert cubic.second_derivative(2.0) == pytest.approx(12.0, rel=1e-4)

