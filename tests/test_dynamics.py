"""Flow layer: vector field, integrators, decay laws, volume contraction."""

import dataclasses
import functools
import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import contactmech as cm
from contactmech import cli, diagnostics, dynamics
from contactmech.dynamics import _integrate_flat
from contactmech.expressions import parse_template
from contactmech.model import (_bind, _compile, _contact_field, _contact_jacobian, _rk4_nodes,
                               central_difference)
from contactmech.scenario import build_model, parse_scenario
from contactmech.errors import (IntegrationError, NonFiniteError, ScenarioError,
                                SingularMeasureError, UnsupportedModelError)

from conftest import assert_bits_equal, builtin_points, second_derivative

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted(p.stem for p in (ROOT / "scenarios").glob("*.ini"))


def test_vector_field_examples(linear_model):
    f0 = cm.vector_field(linear_model, cm.make_state(0.0, 0.0, 0.0, 0.0))
    assert_allclose(f0, [0.0, 0.0, 0.0])
    f1 = cm.vector_field(linear_model, cm.make_state(1.0, 0.0, 0.0, 0.0))
    assert_allclose(f1, [0.0, -1.0, -0.5])


def test_vector_field_reduces_to_symplectic_for_S_independent():
    ck = cm.make_caldirola_kanai(1.0, 0.1, cm.parse_expression("q^2/2", "q"))
    x = cm.make_state(0.8, -0.5, 3.0, 1.2)
    f = cm.vector_field(ck, x)
    d = ck.partials(x)
    assert_allclose(f[1], -d[0])  # no p dH/dS term
    assert_allclose(f[0], d[1])


def test_step_rk4_zero_model():
    zero = cm.make_custom(1, lambda t, y: 0.0)
    x = cm.make_state(1.0, 2.0, 3.0, 4.0)
    y = cm.step_rk4(zero, x, 0.25)
    assert_allclose([y.q[0], y.p[0], y.S, y.t], [1.0, 2.0, 3.0, 4.25])
    with pytest.raises(ValueError):
        cm.step_rk4(zero, x, 0.0)


def test_step_rk4_matches_adaptive_reference(linear_model):
    x = cm.make_state(1.0, 0.0, 0.0, 0.0)
    h = 1e-3
    one = cm.step_rk4(linear_model, x, h)
    opts = cm.IntegratorOptions(rel_tol=1e-12, abs_tol=1e-14, sample_interval=h)
    ref = cm.integrate(linear_model, x, h, opts)
    assert_allclose([one.q[0], one.p[0], one.S],
                    [ref.q[-1, 0], ref.p[-1, 0], ref.S[-1]], atol=1e-12)


def test_rk4_full_period_return(conservative_model):
    x = cm.make_state(1.0, 0.0, 0.0, 0.0)
    h = 1e-3
    state = x
    steps = int(round(2 * math.pi / h))
    for _ in range(steps):
        state = cm.step_rk4(conservative_model, state, h)
    state = cm.step_rk4(conservative_model, state, 2 * math.pi - steps * h)
    assert abs(state.q[0] - 1.0) < 1e-8
    assert abs(state.p[0]) < 1e-8


def test_integrate_decay_example(linear_traj):
    assert linear_traj.H[-1] == pytest.approx(0.5 * math.exp(-1.0), rel=1e-8)
    pred = 0.5 * np.exp(-0.1 * linear_traj.times)
    assert np.max(np.abs(linear_traj.H - pred) / pred) < 1e-8


def test_integrate_zero_model_constant():
    zero = cm.make_custom(1, lambda t, y: 0.0)
    traj = cm.integrate(zero, cm.make_state(1.0, -2.0, 0.7, 0.0), 3.0,
                        cm.IntegratorOptions(sample_interval=0.5))
    assert_allclose(traj.q, 1.0)
    assert_allclose(traj.p, -2.0)
    assert_allclose(traj.S, 0.7)
    assert traj.times[-1] == 3.0


def test_integrate_fixed_rk4_lands_on_samples(linear_model):
    opts = cm.IntegratorOptions(method="fixed_rk4", step=1e-3, sample_interval=0.37)
    traj = cm.integrate(linear_model, cm.make_state(1.0, 0.0, 0.0, 0.0), 2.0, opts)
    assert traj.times[-1] == 2.0
    assert np.max(np.diff(traj.times)) <= 0.37 + 1e-12
    pred = 0.5 * np.exp(-0.1 * traj.times)
    assert np.max(np.abs(traj.H - pred) / pred) < 1e-9


def test_caldirola_kanai_q_matches_contact_model(tight_opts):
    """Both models produce the damped Newton equation for q."""
    hs = cm.make_linear_dissipation(1.0, 0.1, cm.parse_expression("q^2/2", "q"))
    ck = cm.make_caldirola_kanai(1.0, 0.1, cm.parse_expression("q^2/2", "q"))
    x0 = cm.make_state(1.0, 0.0, 0.0, 0.0)
    t1 = cm.integrate(hs, x0, 10.0, tight_opts)
    t2 = cm.integrate(ck, x0, 10.0, tight_opts)
    assert np.max(np.abs(t1.q - t2.q)) < 1e-6
    # physical momentum p = e^{-gamma t} p_CK
    assert np.max(np.abs(t1.p[:, 0] - np.exp(-0.1 * t2.times) * t2.p[:, 0])) < 1e-6


def test_divergence_examples(linear_model, conservative_model):
    x = cm.make_state(0.3, -1.2, 0.8, 2.0)
    assert cm.divergence(linear_model, x) == -0.2
    assert cm.divergence(conservative_model, x) == 0.0
    s2 = cm.make_custom(1, lambda t, y: y[2] ** 2)
    assert cm.divergence(s2, cm.make_state(0.0, 0.0, 1.0, 0.0)) == pytest.approx(-4.0, rel=1e-9)


@pytest.mark.parametrize("factory", [
    lambda: cm.make_linear_dissipation(1.3, 0.25, cm.parse_expression("2*q^2/2", "q")),
    lambda: cm.make_damped_parametric(
        0.8, 0.15, cm.parse_expression("1 + 0.3*sin(0.7*t)", "t")),
    lambda: cm.make_caldirola_kanai(1.0, 0.2, cm.parse_expression("q^2/2", "q")),
    lambda: cm.make_custom(1, lambda t, y: y[2] ** 2),
])
def test_divergence_is_trace_of_fd_field_jacobian(factory):
    """Pointwise identity tr(dX/dy) = -(n+1) dH/dS: the trace comes from finite
    differences of the flat field, the divergence from the model's dH/dS."""
    model = factory()
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = cm.make_state(rng.uniform(-2, 2), rng.uniform(-2, 2),
                          rng.uniform(-2, 2), rng.uniform(0.0, 5.0))
        A = central_difference(lambda Y: [model.field(x.t, y) for y in Y], x.flat())
        assert_allclose(np.trace(A), cm.divergence(model, x), rtol=1e-6, atol=1e-8)


def _tangent_A(model, t, y):
    """A = d(field)/dy, as the A J rows of the model's tangent right-hand side at J = I."""
    d = 2 * model.n + 1
    z = np.concatenate([y, np.eye(d).ravel()])
    return np.reshape(model.tangent_rhs(t, z)[d:], (d, d))


def _quartic_s_coupled(t, y):
    q, p, S = y
    return p ** 2 / 2 + q ** 4 / 4 + 0.3 * S * p + 0.2 * S ** 2


def _quartic_s_coupled_partials(t, y):
    q, p, S = y
    return [q ** 3, p + 0.3 * S, 0.3 * p + 0.4 * S, 0.0]


def _n2_coupled(t, y):
    q1, q2, p1, p2, S = y
    return (p1 ** 2 + p2 ** 2) / 2 + q1 * q2 ** 2 + S * (p1 - 0.5 * q2) + 0.1 * S ** 2 \
        + 0.2 * t * p2 * q1


def _n2_coupled_partials(t, y):
    q1, q2, p1, p2, S = y
    return [q2 ** 2 + 0.2 * t * p2, 2 * q1 * q2 - 0.5 * S, p1 + S, p2 + 0.2 * t * q1,
            p1 - 0.5 * q2 + 0.2 * S, 0.2 * p2 * q1]


@pytest.mark.parametrize("factory", [
    lambda: cm.make_linear_dissipation(
        1.3, 0.25, cm.parse_expression("1.7*q^2/2 + 0.08*q^4", "q")),
    lambda: cm.make_caldirola_kanai(1.2, 0.3, cm.parse_expression(
        "0.9*q^2/2 + 0.05*q^4", "q")),
    lambda: cm.make_damped_parametric(
        0.8, 0.15, cm.parse_expression("1 + 0.3*sin(0.5*t)", "t")),
    lambda: cm.make_custom(2, _n2_coupled, _n2_coupled_partials),
    lambda: cm.make_custom(1, _quartic_s_coupled, _quartic_s_coupled_partials),
])
def test_field_jacobian_matches_fd_oracle(factory):
    """The field Jacobian A that the model's tangent right-hand side applies,
    which the det series integrates, against central differences of the flat
    field.  A make_custom model without partials is held to the exact A in
    the tests below: this oracle would difference its FD gradient, whose noise
    (up to 1.7e-4) exceeds the error of its A."""
    model = factory()
    d = 2 * model.n + 1
    rng = np.random.default_rng(29)
    for _ in range(8):
        t, y = rng.uniform(0.0, 5.0), rng.uniform(-2, 2, d)
        oracle = central_difference(lambda W: [model.field(t, w) for w in W], y)
        assert_allclose(_tangent_A(model, t, y), oracle, rtol=1e-6, atol=1e-8)


_QUARTIC = cm.parse_expression("0.9*q^2/2 + 0.05*q^4", "q")


_BUILTIN_MODELS = {
    "linear-gamma0": cm.make_linear_dissipation(1.3, 0.0, cm.parse_expression("2*q^2/2", "q")),
    "linear-quartic": cm.make_linear_dissipation(0.7, 0.25, _QUARTIC),
    "parametric-const-gamma0": cm.make_damped_parametric(0.8, 0.0, 1.3),
    "parametric-omega0": cm.make_damped_parametric(1.1, 0.15, 0.0),
    "parametric-omega-t": cm.make_damped_parametric(
        0.8, 0.2, cm.parse_expression("1.2 + 0.2*sin(0.5*t)", "t")),
    "ck-gamma0": cm.make_caldirola_kanai(1.0, 0.0, _QUARTIC),
    "ck": cm.make_caldirola_kanai(1.2, 0.3, cm.parse_expression("q^2/2", "q")),
}
_BUILTINS = pytest.mark.parametrize("model", list(_BUILTIN_MODELS.values()),
                                    ids=list(_BUILTIN_MODELS))


@_BUILTINS
def test_builtin_field_is_the_generic_construction_bit_for_bit(model):
    """Each built-in's closed-form field against `_contact_field` of its value
    and gradient, down to the sign of a zero: at q = 0 with p < 0 and dH/dS =
    0, -dH/dq - p dH/dS is +0.0 where -dH/dq alone is -0.0."""
    for t, y in builtin_points():
        f = np.array(model.field(t, y))
        generic = _contact_field(1, y, model.value(t, y[None])[0], model.grad(t, y[None])[0])
        assert_array_equal(f, generic)
        assert_array_equal(np.signbit(f), np.signbit(generic))


@_BUILTINS
def test_builtin_value_and_grad_over_a_block_are_the_one_row_calls_bit_for_bit(model):
    """``value`` and ``grad`` on all of `builtin_points` at once, with one time
    per row or one time for the block, equal their one-row calls row by row,
    down to the sign of a zero."""
    points = builtin_points()
    ts = np.array([t for t, _ in points])
    Y = np.array([y for _, y in points])
    for f in (model.value, model.grad):
        assert_bits_equal(f(ts, Y), np.concatenate([f(t, y[None]) for t, y in points]))
        assert_bits_equal(f(1.5, Y), np.concatenate([f(1.5, y[None]) for y in Y]))


def _builtin_hessian(model, t, y):
    """The Hessian of a built-in's H in (q, p, S), written out by hand with V''
    from V's own DAG."""
    m, gamma = model.params["m"], model.params["gamma"]
    if model.name == "damped_parametric":
        w = model.params["omega"](t)
        return np.diag([m * w * w, 1.0 / m, 0.0])
    d2V = second_derivative(model.params["V"])(y[0])
    if model.name == "caldirola_kanai":
        return np.diag([math.exp(gamma * t) * d2V, math.exp(-gamma * t) / m, 0.0])
    return np.diag([d2V, 1.0 / m, 0.0])


@_BUILTINS
def test_builtin_field_jacobian_is_the_chain_rule(model):
    """The A of each built-in's straight-line tangent right-hand side, at J = I,
    against `_contact_jacobian` of its gradient and its hand-written Hessian,
    value for value.  The signs of zeros are not held: the tangent sums
    products with the zero entries of J and A, where the generic A leaves
    those out or takes them from a matrix product."""
    for t, y in builtin_points():
        generic = _contact_jacobian(1, y, model.grad(t, y[None])[0],
                                    _builtin_hessian(model, t, y))
        assert_array_equal(_tangent_A(model, t, y), generic)


_CUSTOM_MODELS = {
    "custom-fd": cm.make_custom(1, _quartic_s_coupled),
    "custom-partials": cm.make_custom(1, _quartic_s_coupled, _quartic_s_coupled_partials),
    "custom-n2": cm.make_custom(2, lambda t, y: (y[2:4] @ y[2:4] / 2 + y[0] * y[1] ** 2
                                                 + y[4] * (y[2] - 0.5 * y[1])
                                                 + 0.1 * y[4] ** 2)),
}


@pytest.mark.parametrize("model", [*_BUILTIN_MODELS.values(), *_CUSTOM_MODELS.values()],
                         ids=[*_BUILTIN_MODELS, *_CUSTOM_MODELS])
def test_the_tangent_rhs_starts_with_the_field_bit_for_bit(model):
    """The flow rows of `tangent_rhs` are `field` itself, down to the sign of a
    zero, whatever J is: so the tangent cannot move the flow's own stages."""
    d = 2 * model.n + 1
    rng = np.random.default_rng(41)
    points = builtin_points() if model.n == 1 else \
        [(0.0, np.zeros(d)), (1.0, np.array([0.0, -0.0, -0.7, 0.0, 0.3]))] \
        + [(rng.uniform(0.0, 5.0), rng.uniform(-2, 2, d)) for _ in range(20)]
    for t, y in points:
        z = np.concatenate([y, rng.uniform(-2, 2, d * d)])
        head = np.array(model.tangent_rhs(t, z)[:d])
        f = np.array(model.field(t, y))
        assert_array_equal(head, f)
        assert_array_equal(np.signbit(head), np.signbit(f))


def _exact_quartic_s_coupled_jacobian(t, y):
    """d(field)/dy of H = p^2/2 + q^4/4 + 0.3 S p + 0.2 S^2, by hand."""
    q, p, S = y
    return np.array([[0.0, 1.0, 0.3],
                     [-3 * q * q, -0.6 * p - 0.4 * S, -0.4 * p],
                     [-q ** 3, p, -0.4 * S]])


def _exact_n2_coupled_jacobian(t, y):
    """d(field)/dy of `_n2_coupled`, by hand, with dH/dS = p1 - q2/2 + 0.2 S."""
    q1, q2, p1, p2, S = y
    s = p1 - 0.5 * q2 + 0.2 * S
    return np.array([[0.0, 0.0, 1.0, 0.0, 1.0],
                     [0.2 * t, 0.0, 0.0, 1.0, 0.0],
                     [0.0, -2 * q2 + 0.5 * p1, -s - p1, -0.2 * t, -0.2 * p1],
                     [-2 * q2, -2 * q1 + 0.5 * p2, -p2, -s, 0.5 - 0.2 * p2],
                     [-q2 ** 2, -2 * q1 * q2 + 0.5 * S, p1, p2, 0.5 * q2 - 0.2 * S]])


def _assert_custom_jacobian_is_exact(model, exact, atol):
    d = 2 * model.n + 1
    rng = np.random.default_rng(31)
    for _ in range(8):
        t, y = rng.uniform(0.0, 5.0), rng.uniform(-2, 2, d)
        assert_allclose(_tangent_A(model, t, y), exact(t, y), rtol=1e-6, atol=atol)


@pytest.mark.parametrize("grad, atol", [
    (None, 1e-6),  # second differences of the value: measured error up to 5.3e-8
    (_quartic_s_coupled_partials, 1e-8),
])
def test_custom_field_jacobian_matches_exact(grad, atol):
    """make_custom's A, from its gradient and a Hessian, second differences of
    its value or central differences of its given partials, against the exact A."""
    model = cm.make_custom(1, _quartic_s_coupled, grad)
    _assert_custom_jacobian_is_exact(model, _exact_quartic_s_coupled_jacobian, atol)


def test_custom_n2_field_jacobian_matches_exact():
    """At n = 2, with explicit t, the A from second differences of the value
    against the exact A (measured error up to 1.4e-7)."""
    model = cm.make_custom(2, _n2_coupled)
    _assert_custom_jacobian_is_exact(model, _exact_n2_coupled_jacobian, 1e-6)


@pytest.mark.parametrize("case, token", [
    ("quartic", "measure"), ("ck", "divergence"), ("expanding", "measure"),
])
def test_a_value_only_tangent_solve_takes_few_right_hand_sides(case, token, linear_model):
    """A make_custom model without partials, and pushforward Ks, reach t = 2 at
    rel_tol 1e-10 in under 1,000 tangent right-hand sides, and their volume
    check passes.  With A from differences of the differenced gradient, J's
    error estimate failed on every step.  The K through map_ck has explicit t,
    so its measure does not hold and its divergence stands in."""
    if case == "quartic":
        model, x0 = cm.make_custom(1, _quartic_s_coupled), cm.make_state(1.1, -0.4, 0.2, 0.0)
    else:
        cmap = (cm.map_ck if case == "ck" else cm.map_expanding)(1.0, 0.1)
        model, x0 = cm.pushforward_hamiltonian(cmap, linear_model), cm.make_state(1.0, 0.0)
    calls = []

    def tangent_rhs(t, z):
        calls.append(t)
        return model.tangent_rhs(t, z)

    opts = cm.IntegratorOptions(rel_tol=1e-10, abs_tol=1e-13, sample_interval=0.01)
    counted = dataclasses.replace(model, tangent_rhs=tangent_rhs)
    traj = cm.integrate(counted, x0, 2.0, opts, tangent=True)
    assert len(calls) < 1000
    (result,) = diagnostics.run_checks((token,), counted, traj)
    assert result["passed"], result["observed"]


@pytest.mark.parametrize("kind", ["builtin", "custom"])
def test_det_series_calls_field_once_per_right_hand_side(kind, monkeypatch):
    """Each right-hand side of the tangent solve is one `tangent_rhs` call:
    the built-in's, which needs neither `value` nor `grad`, or make_custom's,
    which evaluates H only by the field, once per call."""
    calls = {"rhs": 0}
    if kind == "builtin":
        counts = {"tangent_rhs": 0}
        base = cm.make_caldirola_kanai(1.2, 0.3, _QUARTIC)

        def forbidden(t, y):
            raise AssertionError("the det series evaluated H or its gradient")

        def tangent_rhs(t, z):
            counts["tangent_rhs"] += 1
            return base.tangent_rhs(t, z)

        model = dataclasses.replace(base, value=forbidden, grad=forbidden,
                                    tangent_rhs=tangent_rhs)
    else:
        counts = {"value": 0}

        def value(t, y):
            counts["value"] += 1
            return _quartic_s_coupled(t, y)

        base = cm.make_custom(1, _quartic_s_coupled, _quartic_s_coupled_partials)
        model = cm.make_custom(1, value, _quartic_s_coupled_partials)

    def integrate_counted(rhs, *args, **kwargs):
        def counted(t, y):
            calls["rhs"] += 1
            return rhs(t, y)
        return _integrate_flat(counted, *args, **kwargs)

    x0, opts = cm.make_state(1.1, -0.4, 0.2, 0.0), cm.IntegratorOptions(sample_interval=0.1)
    expected = cm.jacobian_determinant_series(base, x0, 2.0, opts)[1]
    monkeypatch.setattr(dynamics, "_integrate_flat", integrate_counted)
    assert_array_equal(cm.jacobian_determinant_series(model, x0, 2.0, opts)[1], expected)
    assert calls["rhs"] > 50
    assert all(count == calls["rhs"] for count in counts.values()), (counts, calls)


def _oscillator_chain(n, kappa=0.3, gamma=0.2, beta=0.15, delta=0.05):
    """H = |p|^2/2 + |q|^2/2 + kappa sum_a q_a q_a+1 + S (gamma + beta p_1)
    + delta S^2: n coupled oscillators whose dH/dS = gamma + beta p_1 + 2 delta S
    varies along the flow, with closed-form partials."""
    def value(t, y):
        q, p, S = y[:n], y[n:2 * n], y[2 * n]
        return (p @ p / 2 + q @ q / 2 + kappa * (q[:-1] @ q[1:])
                + S * (gamma + beta * p[0]) + delta * S * S)

    def grad(t, y):
        q, p, S = y[:n], y[n:2 * n], y[2 * n]
        dq, dp = q.copy(), p.copy()
        dq[:-1] += kappa * q[1:]
        dq[1:] += kappa * q[:-1]
        dp[0] += beta * S
        return np.concatenate([dq, dp, [gamma + beta * p[0] + 2 * delta * S, 0.0]])

    return cm.make_custom(n, value, grad, name=f"chain{n}")


@pytest.mark.parametrize("n", [2, 3])
def test_the_n_plus_1_law_beyond_one_degree_of_freedom(n):
    """Volume contracts at -(n+1) dH/dS and |H|^-(n+1) is the invariant
    density, at n = 2 and 3, where n + 1 differs from 2n (at n = 1 both are 2).
    Five routes: the divergence check (det series against exp(int div) of
    `integrate`), det against `volume_factor(f, n)` with f = exp(-int dH/dS),
    `divergence` against the trace of the field Jacobian, the measure check,
    and `measure_weight` times det constant."""
    model = _oscillator_chain(n)
    x0 = cm.make_state(np.linspace(1.0, 0.4, n), np.linspace(-0.3, 0.5, n), 0.2, 0.0)
    # the checks' trapezoid rule needs the finer samples: at 0.01 its error at
    # n = 3 is 1.4e-5, over the divergence check's 1e-5
    opts = cm.IntegratorOptions(rel_tol=1e-10, abs_tol=1e-13, sample_interval=0.005)
    traj = cm.integrate(model, x0, 3.0, opts, tangent=True)
    cache = {}
    div = diagnostics.check_divergence(model, traj, cache)
    assert div["observed"] < diagnostics.CHECKS["divergence"].threshold, div["observed"]
    dets = cache["dets"]
    assert dets[-1] < 0.5  # the check is not vacuous

    dH_dS = model.grad(traj.times, traj.flat())[:, 2 * n]
    f = np.exp(-np.concatenate([[0.0], np.cumsum(np.diff(traj.times)
                                                 * (dH_dS[1:] + dH_dS[:-1]) / 2)]))
    assert_allclose(dets, [cm.volume_factor(fi, n) for fi in f], rtol=1e-5)

    for x in map(traj.state, range(0, len(traj), 50)):
        A = _tangent_A(model, x.t, x.flat())
        assert cm.divergence(model, x) == pytest.approx(np.trace(A), rel=1e-6, abs=1e-8)

    measure = diagnostics.check_measure(model, traj, cache)
    assert measure["observed"] < diagnostics.CHECKS["measure"].threshold, measure["observed"]
    product = [cm.measure_weight(model, traj.state(i)) * det for i, det in enumerate(dets)]
    assert_allclose(product, product[0], rtol=1e-4)


def _scenario(text):
    """(config, model, initial state) of a scenario text."""
    config = parse_scenario(text)
    return config, build_model(config), cm.make_state(config.q0, config.p0, config.S0,
                                                      config.t0)


def _volume_entry(kind, damped, monkeypatch):
    """The first entry of the benchmark's `volume` workload (seed 5) with this
    model kind and gamma = 0 or not."""
    monkeypatch.syspath_prepend(str(ROOT))
    generate = importlib.import_module("perfbench.generate")
    for entry in generate.volume(5):
        config = parse_scenario(entry.text)
        if config.kind == kind and (config.gamma > 0) == damped:
            return entry.text
    raise AssertionError(f"no {kind} entry with damped={damped}")


def _flow_case(case, monkeypatch):
    """(model, x0, t_end, opts) of a case named "shipped:<scenario>",
    "volume:<kind>:<damped 0/1>", "chain:<n>" or "fixed_rk4"."""
    kind, _, arg = case.partition(":")
    if kind == "chain":
        n = int(arg)
        x0 = cm.make_state(np.linspace(1.0, 0.4, n), np.linspace(-0.3, 0.5, n), 0.2, 0.0)
        return (_oscillator_chain(n), x0, 3.0,
                cm.IntegratorOptions(rel_tol=1e-10, abs_tol=1e-13, sample_interval=0.005))
    if kind == "fixed_rk4":
        return (cm.make_linear_dissipation(0.7, 0.25, _QUARTIC),
                cm.make_state(1.1, -0.4, 0.2, 0.0), 2.0,
                cm.IntegratorOptions(method="fixed_rk4", step=0.01, sample_interval=0.05))
    if kind == "shipped":
        text = (ROOT / "scenarios" / f"{arg}.ini").read_text()
    else:
        model_kind, damped = arg.split(":")
        text = _volume_entry(model_kind, damped == "1", monkeypatch)
    config, model, x0 = _scenario(text)
    return model, x0, config.t_end, config.options


@pytest.mark.parametrize("case", [f"shipped:{name}" for name in SHIPPED]
                         + [f"volume:{kind}:{damped}" for kind in ("linear_dissipation",
                                                                   "caldirola_kanai")
                            for damped in (1, 0)]
                         + ["chain:2", "chain:3", "fixed_rk4"])
def test_the_tangent_leaves_the_flow_alone(case, monkeypatch):
    """J rides the flow's steps, and on these cases its own error estimate
    stays under 1 on every step the flow accepts, so it never joins the error
    norm: the flow's samples and their H and div are those of the solve
    without J, bit for bit."""
    model, x0, t_end, opts = _flow_case(case, monkeypatch)
    plain = cm.integrate(model, x0, t_end, opts)
    carried = cm.integrate(model, x0, t_end, opts, tangent=True)
    d = 2 * model.n + 1
    assert plain.J is None
    assert carried.J.shape == (len(plain), d, d)
    assert_array_equal(carried.J[0], np.eye(d))
    for name in ("times", "q", "p", "S", "H", "div"):
        a, b = getattr(carried, name), getattr(plain, name)
        assert_array_equal(a, b, err_msg=name)
        assert a.tobytes() == b.tobytes(), name  # down to the sign of a zero


def test_the_tangent_matches_differences_of_the_flow_map():
    """J(t_end) against central differences of the flow map: perturbed
    `integrate` runs of a model whose tangent_rhs may not be called."""
    model = cm.make_linear_dissipation(0.7, 0.25, _QUARTIC)
    y0, t_end, h = np.array([1.1, -0.4, 0.2]), 3.0, 1e-4
    opts = cm.IntegratorOptions(rel_tol=1e-12, abs_tol=1e-14, sample_interval=t_end)
    J = cm.integrate(model, cm.make_state(*y0, 0.0), t_end, opts, tangent=True).J[-1]

    def forbidden(t, y):
        raise AssertionError("the difference quotients called tangent_rhs")

    flow_only = dataclasses.replace(model, tangent_rhs=forbidden)

    def phi(y):
        return cm.integrate(flow_only, cm.make_state(*y, 0.0), t_end, opts).flat()[-1]

    fd = np.column_stack([(phi(y0 + h * e) - phi(y0 - h * e)) / (2 * h) for e in np.eye(3)])
    assert np.max(np.abs(J - np.eye(3))) > 0.1  # the check is not vacuous
    assert_allclose(J, fd, rtol=0, atol=1e-6)


@pytest.mark.parametrize("name", SHIPPED)
def test_det_of_the_tangent_is_the_closed_form_volume_factor(name):
    """det J = exp(-(n+1) gamma t) on every shipped scenario: dH/dS is
    constant for each built-in (gamma, or 0 for Caldirola-Kanai)."""
    config, model, x0 = _scenario((ROOT / "scenarios" / f"{name}.ini").read_text())
    traj = cm.integrate(model, x0, config.t_end, config.options, tangent=True)
    dH_dS = 0.0 if config.kind == "caldirola_kanai" else config.gamma
    expected = np.exp(-2 * dH_dS * (traj.times - config.t0))
    assert_allclose(np.linalg.det(traj.J), expected, rtol=1e-9, atol=0)


@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_a_tangent_from_a_rest_point_is_held_to_the_tolerance(gamma):
    """From q = p = 0 the flow's own error estimate allows long steps (with
    gamma = 0 its field is zero), while J follows the unit-frequency rotation
    of the (q, p) block; J's own estimate must shorten them."""
    model = cm.make_linear_dissipation(1.0, gamma, cm.parse_expression("q^2/2", "q"))
    x0 = cm.make_state(0.0, 0.0, 1.0, 0.0)
    opts = cm.IntegratorOptions(rel_tol=1e-9, abs_tol=1e-12, sample_interval=0.05)
    traj = cm.integrate(model, x0, 5.0, opts, tangent=True)
    t = traj.times
    assert_allclose(np.linalg.det(traj.J), np.exp(-2 * gamma * t), rtol=1e-7, atol=0)
    if gamma == 0:
        rotation = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        assert_allclose(traj.J[:, :2, :2], rotation.transpose(2, 0, 1), rtol=0, atol=1e-7)
    grid, dets = cm.jacobian_determinant_series(model, x0, 5.0, opts)
    assert_allclose(dets, np.exp(-2 * gamma * grid), rtol=1e-7, atol=0)


_TRANSLATED = """\
[model]
kind = linear_dissipation
m = {m!r}
gamma = {gamma!r}
V = {k!r}*q^2/2 + {a!r}*q^4

[initial]
q = {q!r}
p = {p!r}
S = {S!r}
t = {t0!r}

[integration]
rel_tol = 1e-9
abs_tol = 1e-12
sample_interval = {dt!r}
t_end = {t_end!r}
"""


@given(m=st.floats(0.5, 2.0), gamma=st.sampled_from([0.0]) | st.floats(0.0, 0.5),
       k=st.floats(0.5, 2.0), a=st.floats(0.0, 0.1), q=st.floats(-1.5, 1.5),
       p=st.floats(-1.0, 1.0), S=st.floats(-1.0, 1.0), span=st.floats(0.5, 4.0),
       samples=st.integers(5, 40), shift=st.floats(-10.0, 10.0))
@settings(max_examples=12, deadline=None)
def test_an_autonomous_flow_is_invariant_under_time_translation(m, gamma, k, a, q, p, S, span,
                                                                samples, shift):
    """A linear-dissipation H has no explicit t, so the run from t0 = shift is
    the run from t0 = 0 moved by shift: the same samples of q, p, S, H and J to
    the scenario's tolerance (not bit for bit, since the rounding of t moves
    the steps)."""
    runs = []
    for t0 in (0.0, shift):
        config, model, x0 = _scenario(_TRANSLATED.format(
            m=m, gamma=gamma, k=k, a=a, q=q, p=p, S=S, t0=t0, dt=span / samples,
            t_end=t0 + span))
        runs.append(cm.integrate(model, x0, config.t_end, config.options, tangent=True))
    base, moved = runs
    rtol, atol = config.options.rel_tol, config.options.abs_tol
    assert len(moved) == len(base) == samples + 1
    assert_allclose(moved.times - shift, base.times, rtol=0, atol=1e-13 * (1 + abs(shift)))
    for got, want in ((moved.flat(), base.flat()), (moved.H, base.H), (moved.J, base.J)):
        assert_allclose(got, want, rtol=rtol, atol=atol)


@pytest.mark.parametrize("token", ["divergence", "measure"])
def test_run_checks_refuses_the_volume_checks_on_a_trajectory_without_the_tangent(
        token, linear_model, linear_traj, monkeypatch):
    """A check that needs the tangent, on a trajectory integrated without it, is
    a ScenarioError (exit 2) naming diagnostics.checks, and no check runs."""
    def forbidden(*args):
        raise AssertionError("a check ran")

    for name, row in diagnostics.CHECKS.items():
        monkeypatch.setitem(diagnostics.CHECKS, name, row._replace(check=forbidden))
    with pytest.raises(ScenarioError) as err:
        diagnostics.run_checks(("hamiltonian_decay", token), linear_model, linear_traj)
    assert str(err.value).startswith(f"diagnostics.checks: '{token}' needs the flow's tangent")
    assert cli._classify(err.value) == cli.EXIT_BAD_SCENARIO


def test_measure_weight_examples(linear_model):
    assert cm.measure_weight(linear_model, cm.make_state(1.0, 0.0, 0.0, 0.0)) == 4.0
    one = cm.make_custom(1, lambda t, y: 1.0)
    assert cm.measure_weight(one, cm.make_state(0.0, 0.0, 0.0, 0.0)) == 1.0
    with pytest.raises(SingularMeasureError):
        cm.measure_weight(linear_model, cm.make_state(0.0, 0.0, 0.0, 0.0))


def test_observable_rate_examples(linear_model):
    x = cm.make_state(1.0, 2.0, 0.0, 0.0)
    # F = q reproduces the dq/dt equation
    Fq = cm.make_custom(1, lambda t, y: y[0])
    assert cm.observable_rate(linear_model, Fq, x) == pytest.approx(
        linear_model.partials(x)[1], rel=1e-9)
    # F = H: dH/dt = -H dH/dS for time-independent models
    h = linear_model.evaluate(x)
    assert cm.observable_rate(linear_model, linear_model, x) == pytest.approx(
        -h * 0.1, rel=1e-9)
    # F = H_mec: mechanical-energy dissipation rate -m gamma qdot^2
    Fmec = cm.make_custom(1, lambda t, y: y[1] ** 2 / 2 + y[0] ** 2 / 2)
    assert cm.observable_rate(linear_model, Fmec, x) == pytest.approx(-0.4, rel=1e-8)


def test_predicted_hamiltonian(linear_traj):
    pred = cm.predicted_hamiltonian(linear_traj)
    assert np.max(np.abs(pred - linear_traj.H) / np.abs(pred)) < 1e-6
    free = cm.make_custom(1, lambda t, y: y[1] ** 2 / 2)
    traj = cm.integrate(free, cm.make_state(0.0, 1.0, 0.0, 0.0), 1.0,
                        cm.IntegratorOptions(sample_interval=0.1))
    assert_allclose(cm.predicted_hamiltonian(traj), traj.H[0])


def test_predicted_hamiltonian_of_a_custom_model_takes_dH_dS_from_the_trajectory():
    """H = p^2/2 + q^2/2 + 0.2 S has dH/dS = 0.2 from its central-difference
    gradient alone; the decay law predicts H_0 e^{-0.2 t}."""
    model = cm.make_custom(1, lambda t, y: y[1] ** 2 / 2 + y[0] ** 2 / 2 + 0.2 * y[2])
    opts = cm.IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12, sample_interval=0.01)
    traj = cm.integrate(model, cm.make_state(1.0, 0.3, 0.5, 0.0), 5.0, opts)
    pred = cm.predicted_hamiltonian(traj)
    assert np.max(np.abs(pred - traj.H)) < 1e-6
    assert_allclose(pred, traj.H[0] * np.exp(-0.2 * traj.times), rtol=1e-8)


def test_recover_S_linear(linear_model, linear_traj):
    assert cm.recover_S_linear(linear_model, 1.0, 0.0, 0.0, 0.5) == 0.0
    H0 = linear_traj.H[0]
    rec = np.array([cm.recover_S_linear(linear_model, linear_traj.q[i, 0],
                                        linear_traj.p[i, 0], linear_traj.times[i], H0)
                    for i in range(0, len(linear_traj), 100)])
    assert np.max(np.abs(rec - linear_traj.S[::100])) < 1e-6
    cons = cm.make_linear_dissipation(1.0, 0.0, cm.parse_expression("q^2/2", "q"))
    with pytest.raises(ZeroDivisionError):
        cm.recover_S_linear(cons, 1.0, 0.0, 0.0, 0.5)
    with pytest.raises(UnsupportedModelError):
        cm.recover_S_linear(cm.make_custom(1, lambda t, y: 0.0), 1.0, 0.0, 0.0, 0.5)
    # Caldirola-Kanai's params also hold m, gamma and V
    ck = cm.make_caldirola_kanai(1.0, 0.3, cm.parse_expression("q^2/2", "q"))
    with pytest.raises(UnsupportedModelError):
        cm.recover_S_linear(ck, 1.0, 0.5, 2.0, 1.3)


def test_jacobian_determinant_at_t_end(linear_model, conservative_model):
    x0 = cm.make_state(1.0, 0.0, 0.0, 0.0)
    det = cm.jacobian_determinant_series(linear_model, x0, 5.0)[1][-1]
    assert det == pytest.approx(math.exp(-1.0), abs=1e-5)
    det_c = cm.jacobian_determinant_series(conservative_model, x0, 5.0)[1][-1]
    assert det_c == pytest.approx(1.0, abs=1e-8)


def test_measure_invariance_along_flow(linear_model, linear_traj, tight_opts):
    _, dets = cm.jacobian_determinant_series(linear_model, linear_traj.state(0),
                                             10.0, tight_opts)
    weight = np.abs(linear_traj.H) ** -2.0
    product = weight * dets
    assert np.max(np.abs(product - product[0]) / product[0]) < 1e-4


def test_conservative_energy_drift_adaptive(conservative_model):
    opts = cm.IntegratorOptions(rel_tol=1e-10, abs_tol=1e-13, sample_interval=0.1)
    traj = cm.integrate(conservative_model, cm.make_state(1.0, 0.0, 0.0, 0.0),
                        100.0, opts)
    assert np.max(np.abs(traj.H - traj.H[0])) / traj.H[0] < 1e-8
    assert_allclose(traj.div, 0.0)


def test_hamiltonian_evolution_rate_fd(tight_opts):
    """Finite-difference dH/dt vs -H dH/dS + dH/dt along a time-dependent flow."""
    omega = cm.parse_expression("1 + 0.1*sin(0.3*t)", "t")
    model = cm.make_damped_parametric(1.0, 0.1, omega)
    opts = cm.IntegratorOptions(rel_tol=1e-11, abs_tol=1e-13, sample_interval=0.002)
    traj = cm.integrate(model, cm.make_state(1.0, 0.0, 0.3, 0.0), 10.0, opts)
    fd = (traj.H[2:] - traj.H[:-2]) / (traj.times[2:] - traj.times[:-2])
    expected = np.array([-traj.H[i] * model.partials(traj.state(i))[2]
                         + model.partials(traj.state(i))[3]
                         for i in range(1, len(traj) - 1)])
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(fd - expected)) / scale < 1e-5


def test_energy_dissipation_rate_fd(linear_model):
    """Finite-difference dH_mec/dt vs -p dH_mec/dp h'(S) = -m gamma qdot^2."""
    opts = cm.IntegratorOptions(rel_tol=1e-11, abs_tol=1e-13, sample_interval=0.002)
    traj = cm.integrate(linear_model, cm.make_state(1.0, 0.0, 0.0, 0.0), 10.0, opts)
    hmec = traj.H - 0.1 * traj.S
    fd = (hmec[2:] - hmec[:-2]) / (traj.times[2:] - traj.times[:-2])
    expected = -0.1 * traj.p[1:-1, 0] ** 2
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(fd - expected)) / scale < 1e-5


def test_rk4_convergence_order(linear_model):
    """Halving h shrinks the endpoint error by ~16 (4th order)."""
    x0 = cm.make_state(1.0, 0.0, 0.0, 0.0)
    ref_opts = cm.IntegratorOptions(rel_tol=1e-13, abs_tol=1e-15, sample_interval=1.0)
    ref = cm.integrate(linear_model, x0, 1.0, ref_opts)
    errs = []
    for h in (0.05, 0.025):
        opts = cm.IntegratorOptions(method="fixed_rk4", step=h, sample_interval=1.0)
        traj = cm.integrate(linear_model, x0, 1.0, opts)
        errs.append(np.max(np.abs(
            np.concatenate([traj.q[-1], traj.p[-1], [traj.S[-1]]])
            - np.concatenate([ref.q[-1], ref.p[-1], [ref.S[-1]]]))))
    ratio = errs[0] / errs[1]
    assert 16 * 0.8 <= ratio <= 16 * 1.2


def test_integration_errors(linear_model):
    x0 = cm.make_state(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        cm.integrate(linear_model, x0, -1.0)
    opts = cm.IntegratorOptions(max_steps=3, sample_interval=0.1)
    with pytest.raises(IntegrationError) as err:
        cm.integrate(linear_model, x0, 50.0, opts)
    assert err.value.last_time is not None
    with pytest.raises(ValueError):
        cm.IntegratorOptions(method="leapfrog")
    with pytest.raises(ValueError):
        cm.IntegratorOptions(step=-1.0)
    with pytest.raises(ValueError):
        cm.IntegratorOptions(sample_interval=0.0)


def _wall_at_q_1_5():
    """H = p^2/2 + q^2/2 + 0.1 S, except that V is NaN from q = 1.4978 on,
    where q*1.2e308 overflows and inf*0 is NaN; the flow from (1, 2, 0) reaches
    it at t ~ 0.26.  V' is q and V'' is 1 everywhere."""
    V = cm.parse_expression("q^2/2 + (q*1.2e308)*0", "q")
    return cm.make_linear_dissipation(1.0, 0.1, V)


@pytest.mark.parametrize("run", [
    lambda model, x: cm.integrate(model, x, 3.0),
    lambda model, x: cm.integrate(model, x, 3.0,
                                  cm.IntegratorOptions(method="fixed_rk4", step=0.01)),
    lambda model, x: cm.jacobian_determinant_series(model, x, 3.0),
], ids=["adaptive", "fixed_rk4", "det_series"])
def test_a_non_finite_field_is_a_non_finite_error_naming_t_and_y(run):
    with pytest.raises(NonFiniteError) as err:
        run(_wall_at_q_1_5(), cm.make_state(1.0, 2.0, 0.0, 0.0))
    match = re.search(r"t=(\S+), y=\[", str(err.value))
    assert match, str(err.value)
    assert 0.2 < float(match.group(1)) < 0.4
    assert cli._classify(err.value) == cli.EXIT_INTEGRATION


@pytest.mark.parametrize("tangent", [False, True])
def test_a_fixed_step_state_gone_non_finite_names_its_sample(tangent):
    """H = -S^2 gives S' = S^2 and p' = 2 p S, which blow up at t = 1: the
    state at the sample t = 1.1 is the first one not finite, and the error
    names that t and the (q, p, S) block of the sample."""
    model = cm.make_custom(1, lambda t, y: -y[2] * y[2],
                           lambda t, y: [0.0, 0.0, -2 * y[2], 0.0])
    opts = cm.IntegratorOptions(method="fixed_rk4", step=0.01, sample_interval=0.1)
    with pytest.raises(NonFiniteError) as err:
        cm.integrate(model, cm.make_state(0.5, 1.0, 1.0, 0.0), 2.0, opts, tangent=tangent)
    assert str(err.value) == "non-finite state at t=1.1, y=[0.5 nan nan]"


def _jacobian_wall_at_q_1_5():
    """H = p^2/2 + q^2/2 + 0.1 S with a finite field for q < 1.73, but V''
    NaN, and so a non-finite field Jacobian A, from q = 1.5 on: the cubic term
    and its copy cancel, and 2e307*(3*(2*q)) overflows there while
    2e307*(3*q^2) and 2e307*q^3 stay finite."""
    V = cm.parse_expression("q^2/2 + (2e307*q^3 - 2e307*q^3)", "q")
    return cm.make_linear_dissipation(1.0, 0.1, V)


@pytest.mark.parametrize("run", [
    lambda model, x: cm.integrate(model, x, 3.0, tangent=True),
    lambda model, x: cm.jacobian_determinant_series(model, x, 3.0),
], ids=["integrate", "det_series"])
def test_a_non_finite_tangent_is_a_non_finite_error_naming_t_and_y(run):
    """A non-finite stage of J is rejected like one of the flow, so the error
    names the time and the (q, p, S) block where the steps gave out."""
    with pytest.raises(NonFiniteError) as err:
        run(_jacobian_wall_at_q_1_5(), cm.make_state(1.0, 2.0, 0.0, 0.0))
    match = re.search(r"t=(\S+), y=\[([^\]]*)\]", str(err.value))
    assert match, str(err.value)
    assert 0.2 < float(match.group(1)) < 0.4
    assert len(match.group(2).split()) == 3
    assert cli._classify(err.value) == cli.EXIT_INTEGRATION


def test_a_non_finite_field_at_the_start_is_a_non_finite_error():
    with pytest.raises(NonFiniteError, match=r"at t=0, y=\[2\. 0\. 0\.\]"):
        cm.integrate(_wall_at_q_1_5(), cm.make_state(2.0, 0.0, 0.0, 0.0), 1.0)


def test_an_overflowing_trial_stage_of_an_ermakov_solve_is_rejected_and_recovered_from():
    """omega^2 overflows to inf in one trial stage past t = 1: the stepper
    rejects that step like any other, retries with a shorter one and ends
    where a solve without the overflow ends."""
    overflowed = []

    const = cm.parse_expression("1.3", "t")

    class Overflowing(cm.Expression):
        @property
        def _value(self):  # the float function the solve's right-hand side calls
            def value(t):
                if t > 1.0 and not overflowed:
                    overflowed.append(t)
                    return 1e200  # w * w is inf
                return const(t)
            return value

    grid = np.linspace(0.0, 3.0, 31)
    erm = cm.solve_ermakov(Overflowing(const.text, "t", const.ast, const.derivative_ast),
                           0.2, 0.9, 0.1, grid)
    clean = cm.solve_ermakov(1.3, 0.2, 0.9, 0.1, grid)
    assert overflowed
    assert_allclose(erm.alpha(grid), clean.alpha(grid), rtol=1e-8)
    assert_allclose(erm.phase(grid), clean.phase(grid), rtol=1e-8, atol=1e-12)


def test_an_ermakov_start_whose_alpha_to_the_minus_3_overflows_is_a_non_finite_field():
    """alpha0 = 1e-200 puts alpha^-3 beyond the float range: the field at the
    start is non-finite, as numpy's inf made it, not an OverflowError."""
    with pytest.raises(NonFiniteError, match="^non-finite vector field at t=0"):
        cm.solve_ermakov(1.0, 0.1, 1e-200, 0.0, np.linspace(0.0, 1.0, 11))


def test_integrate_calls_value_and_grad_once_on_the_samples(linear_model):
    """H and div come from one ``value`` and one ``grad`` call on all the
    samples, with the sample times as one array."""
    calls = []

    def recording(f):
        def g(t, Y):
            calls.append((f, t, Y.shape))
            return f(t, Y)
        return g

    model = dataclasses.replace(linear_model, value=recording(linear_model.value),
                                grad=recording(linear_model.grad))
    traj = cm.integrate(model, cm.make_state(1.0, 0.0), 1.0)
    assert [f for f, _, _ in calls] == [linear_model.value, linear_model.grad]
    for _, t, shape in calls:
        assert_array_equal(t, traj.times)
        assert shape == (len(traj), 3)


def test_adaptive_driver_terminal_event():
    """A downward zero of the event stops y' = -y at ln 2; an upward one does not."""
    grid = np.linspace(0.0, 2.0, 21)
    opts = cm.IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)

    def solve(event):
        return _integrate_flat(lambda t, y: -y, np.array([1.0]), 0.0, 2.0, opts, grid,
                               event=event,
                               event_error=lambda t: IntegrationError("hit", last_time=t))

    with pytest.raises(IntegrationError) as err:
        solve(lambda t, y: y[0] - 0.5)
    assert err.value.last_time == pytest.approx(math.log(2.0), rel=1e-8)
    assert_allclose(solve(lambda t, y: 0.5 - y[0])[:, 0], np.exp(-grid), rtol=1e-8)


def test_trajectory_invariants(linear_traj):
    assert np.all(np.diff(linear_traj.times) > 0)
    assert len(linear_traj) == len(linear_traj.times)
    st0 = linear_traj.state(0)
    assert st0.q[0] == 1.0 and st0.t == 0.0
    with pytest.raises(ValueError):
        cm.Trajectory(times=np.array([0.0, 0.0, 1.0]), q=np.zeros((3, 1)),
                      p=np.zeros((3, 1)), S=np.zeros(3), H=np.zeros(3),
                      div=np.zeros(3))


def _numpy_rk4(rhs, t, y, h):
    """The classical RK4 step as an array expression, the oracle of the float
    one in `dynamics._rk4`."""
    k1 = np.asarray(rhs(t, y))
    k2 = np.asarray(rhs(t + h / 2, y + h / 2 * k1))
    k3 = np.asarray(rhs(t + h / 2, y + h / 2 * k2))
    k4 = np.asarray(rhs(t + h, y + h * k3))
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _numpy_substep(rhs):
    """`_numpy_rk4` over rhs as a substep of float sequences, the reference of
    `dynamics._substep`."""
    return lambda t, y, h: _numpy_rk4(rhs, t, np.array(y), h).tolist()


_RK4_MODELS = {
    "builtin-field": (list(_BUILTIN_MODELS.values()), False),
    "builtin-tangent": (list(_BUILTIN_MODELS.values()), True),
    "custom-n2": ([_CUSTOM_MODELS["custom-n2"]], False),
}


@pytest.mark.parametrize("models, tangent", list(_RK4_MODELS.values()), ids=list(_RK4_MODELS))
def test_fixed_rk4_is_the_numpy_expression_bit_for_bit(models, tangent, monkeypatch):
    """`integrate` in fixed_rk4 mode, `step_rk4` and the substep give the bits
    of the array expression over the model's field or tangent_rhs, signs of
    zeros included: on every built-in kind's field (n = 1) and tangent (width
    12), which take their own straight-line substeps, and on a custom n = 2
    model, which takes `_rk4` over its ndarray right-hand side; at steps of
    either sign, down to 1e-7."""
    for model in models:
        d = 2 * model.n + 1
        rhs = model.tangent_rhs if tangent else model.field
        assert isinstance(dynamics._substep(rhs), functools.partial) == (model.name == "custom")
        y = np.linspace(0.9, -0.4, d)
        x0 = cm.make_state(y[:model.n], y[model.n:2 * model.n], y[-1], 0.3)
        opts = cm.IntegratorOptions(method="fixed_rk4", step=0.01, sample_interval=0.05)
        traj = cm.integrate(model, x0, 2.3, opts, tangent=tangent)
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_substep", _numpy_substep)
            ref = cm.integrate(model, x0, 2.3, opts, tangent=tangent)
        assert traj.flat().tobytes() == ref.flat().tobytes()
        assert tangent == (traj.J is not None)
        if tangent:
            assert traj.J.tobytes() == ref.J.tobytes()
        zeros = np.array([-0.0, 0.0, -0.0, 0.0, -0.0][:d])
        for y, J in ((y, np.eye(d)), (zeros, -np.eye(d)), (zeros[::-1], np.zeros((d, d)))):
            z = np.concatenate([y, J.ravel()]) if tangent else y
            for t, h in ((0.3, 0.01), (1.7, -0.25), (0.0, 1e-7), (0.0, -1e-7)):
                expected = _numpy_rk4(rhs, t, z, h).tobytes()
                assert np.array(dynamics._substep(rhs)(t, z.tolist(), h)).tobytes() == expected
                assert np.array(dynamics._rk4(rhs, t, z.tolist(), h)).tobytes() == expected
                if not tangent:
                    x = cm.make_state(z[:model.n], z[model.n:2 * model.n], z[-1], t)
                    assert cm.step_rk4(model, x, h).flat().tobytes() == expected


@pytest.mark.parametrize("tangent", [False, True], ids=["field", "tangent"])
def test_an_overflow_in_the_substep_is_rk4s_naming_the_stage_time(tangent):
    """Caldirola-Kanai's e^(gamma t) overflows past t = 709.78: at the first
    stage (t), the second (t + h/2) or the last (t + h) of a substep.  The
    straight-line substep raises `_rk4`'s error, type and text, which names
    that stage's time."""
    model = cm.make_caldirola_kanai(1.0, 1.0, cm.parse_expression("q^2/2", "q"))
    rhs = model.tangent_rhs if tangent else model.field
    y = [0.5, -0.25, 0.1] + (np.eye(3).ravel().tolist() if tangent else [])
    for t, h, stage_time in ((709.9, 0.1, 709.9), (709.6, 0.6, 709.6 + 0.6 / 2),
                             (709.5, 0.5, 709.5 + 0.5)):
        with pytest.raises(OverflowError) as want:
            dynamics._rk4(rhs, t, y, h)
        with pytest.raises(OverflowError) as got:
            dynamics._substep(rhs)(t, y, h)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert f"overflows at t={stage_time!r}: math range error" in str(got.value)


def test_the_stage_arithmetic_keeps_the_sign_of_a_zero():
    """dy/dt = 0 from y = -0.0: each stage argument y + (h/2) 0.0 and the
    step's end are +0.0 for h > 0, as `_rk4` has them; smart constructors
    that drop the ``+ 0.0`` would keep -0.0."""
    dag, (zero,) = parse_template(("0",), ("q", "t"), (), {})
    q = dag.node("var", value="q")
    stages, step, _ = _rk4_nodes(dag, [], [zero], [q])
    (substep,) = _bind(_compile("", stages, [(step, "def f(t, y, h):\n    q, = y", "({}, )",
                                               "rk4 zero")]), {})
    for h in (0.1, -0.1):
        expected = dynamics._rk4(lambda t, y: [0.0], 0.0, [-0.0], h)
        assert np.array(substep(0.0, [-0.0], h)).tobytes() == np.array(expected).tobytes()
    assert math.copysign(1.0, substep(0.0, [-0.0], 0.1)[0]) == 1.0


def test_the_float_error_norm_is_the_numpy_one_bit_for_bit():
    """The error norm's scaled error in floats against the array expression,
    with inf and NaN in y, y_new and the error estimate e; and the scale of
    the rest in split mode against ndarray.max."""
    rng = np.random.default_rng(53)
    specials = np.array([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 1e308, 5e-324])
    with np.errstate(all="ignore"):
        for _ in range(3000):
            width = int(rng.integers(1, 13))
            y, y_new, e = (rng.normal(size=width) * 10.0 ** rng.integers(-300, 300, size=width)
                           for _ in range(3))
            for a in (y, y_new, e):
                special = rng.random(width) < 0.2
                a[special] = rng.choice(specials, size=special.sum())
            h, atol, rtol = 10.0 ** rng.uniform(-5, 0, size=3) * [1, 1e-8, 1e-6]
            ref = e * h / (atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol)
            got = dynamics._scaled_error(e.tolist(), h, y.tolist(), y_new.tolist(), atol, rtol)
            assert got.tobytes() == ref.tobytes()
            assert np.float64(dynamics._rms(got)).tobytes() == \
                np.float64(dynamics._rms(ref)).tobytes()
            ref_max = max(np.abs(y).max(), np.abs(y_new).max())
            got_max = max(dynamics._abs_max(y.tolist()), dynamics._abs_max(y_new.tolist()))
            assert np.float64(got_max).tobytes() == np.float64(ref_max).tobytes()


@pytest.mark.parametrize("d", [None, 3], ids=["flow", "split"])
def test_the_stepper_hands_out_no_view_of_its_stage_buffer(d):
    """The right-hand side's argument may be a scratch array reused from stage
    to stage; no array the stepper hands out, be it the event's argument (the
    accepted states and the root finder's points) or the output, shares its
    memory, and the arrays an event keeps are never written afterwards."""
    model = _BUILTIN_MODELS["linear-quartic"]
    y0 = np.array([1.2, -0.3, 0.1])
    if d is not None:
        y0 = np.concatenate([y0, np.eye(3).ravel()])
    rhs_args, kept = [], []

    def rhs(t, y):
        rhs_args.append(y)
        return model.tangent_rhs(t, y) if d is not None else model.field(t, y)

    def event(t, y):
        kept.append((y, y.copy()))
        return y[0] + 0.9  # q falls through -0.9 after about t = 2

    grid = dynamics.sample_grid(0.0, 6.0, 0.05)
    opts = cm.IntegratorOptions(rel_tol=1e-9, abs_tol=1e-12)
    out = _integrate_flat(rhs, y0.copy(), 0.0, 6.0, opts, grid, d=d)
    with pytest.raises(IntegrationError):
        _integrate_flat(rhs, y0.copy(), 0.0, 6.0, opts, grid, event=event, d=d,
                        event_error=lambda t: IntegrationError("crossed", last_time=t))
    reused = [a for i, a in enumerate(rhs_args) if any(a is b for b in rhs_args[:i])]
    assert reused and len(kept) > 20
    for y, snapshot in kept:
        assert y.tobytes() == snapshot.tobytes()
        assert not any(np.shares_memory(y, b) for b in reused)
    assert not any(np.shares_memory(out, b) for b in reused)


def test_a_fixed_step_interval_that_would_pass_max_steps_fails_before_stepping(linear_model):
    """Ten substeps of 0.1 take the flow to t = 1: max_steps = 10 is enough,
    and with 9 the second interval fails at its start, t = 0.5, without a step."""
    x0 = cm.make_state(1.0, 0.0, 0.0, 0.0)
    opts = cm.IntegratorOptions(method="fixed_rk4", step=0.1, sample_interval=0.5)
    assert len(cm.integrate(linear_model, x0, 1.0, dataclasses.replace(opts, max_steps=10))) == 3
    calls = []
    model = dataclasses.replace(linear_model,
                                field=lambda t, y: calls.append(t) or linear_model.field(t, y))
    with pytest.raises(IntegrationError, match=r"^max_steps=9 exceeded at t=0\.5: step=0\.1 ") \
            as err:
        cm.integrate(model, x0, 1.0, dataclasses.replace(opts, max_steps=9))
    assert err.value.last_time == 0.5 and len(calls) == 5 * 4  # the first interval's steps
