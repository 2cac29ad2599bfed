"""Flow layer: vector field, integrators, decay laws, volume contraction."""

import dataclasses
import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import contactmech as cm
from contactmech import cli, diagnostics, dynamics
from contactmech.dynamics import _integrate_flat
from contactmech.model import _contact_field, _contact_jacobian, central_difference
from contactmech.scenario import build_model, parse_scenario
from contactmech.errors import (IntegrationError, NonFiniteError, SingularMeasureError,
                                UnsupportedModelError)

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
        A = central_difference(lambda y: np.asarray(model.field(x.t, y)), x.flat())
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


@pytest.mark.parametrize("factory", [
    lambda: cm.make_linear_dissipation(
        1.3, 0.25, cm.parse_expression("1.7*q^2/2 + 0.08*q^4", "q")),
    lambda: cm.make_caldirola_kanai(1.2, 0.3, cm.parse_expression(
        "0.9*q^2/2 + 0.05*q^4", "q")),
    lambda: cm.make_damped_parametric(
        0.8, 0.15, cm.parse_expression("1 + 0.3*sin(0.5*t)", "t")),
    lambda: cm.make_custom(1, _quartic_s_coupled),
    lambda: cm.make_custom(1, _quartic_s_coupled, _quartic_s_coupled_partials),
    lambda: cm.make_custom(2, lambda t, y: (y[2:4] @ y[2:4] / 2 + y[0] * y[1] ** 2
                                            + y[4] * (y[2] - 0.5 * y[1]) + 0.1 * y[4] ** 2
                                            + 0.2 * t * y[3] * y[0])),
])
def test_field_jacobian_matches_fd_oracle(factory):
    """The field Jacobian A that the model's tangent right-hand side applies,
    which the det series integrates, against central differences of the flat
    field.  For a make_custom model without partials both sides difference the
    same FD gradient, so that case mostly checks how A is assembled;
    test_custom_field_jacobian_matches_exact checks it against the exact A."""
    model = factory()
    d = 2 * model.n + 1
    rng = np.random.default_rng(29)
    for _ in range(8):
        t, y = rng.uniform(0.0, 5.0), rng.uniform(-2, 2, d)
        oracle = central_difference(lambda w: np.asarray(model.field(t, w)), y)
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


def _builtin_points():
    """(t, y) points for n = 1 built-ins, with zeros of both signs in q, p and S."""
    rng = np.random.default_rng(37)
    points = [(0.0, np.array([0.0, -0.7, 0.3])), (1.5, np.array([0.0, 0.7, -0.3])),
              (2.0, np.zeros(3)), (3.0, np.array([-0.0, -1.2, 0.0]))]
    points += [(rng.uniform(0.0, 5.0), rng.uniform(-2, 2, 3)) for _ in range(40)]
    points += [(rng.uniform(0.0, 5.0), np.array([0.0, -rng.uniform(0.1, 2), rng.uniform(-2, 2)]))
               for _ in range(10)]
    return points


@_BUILTINS
def test_builtin_field_is_the_generic_construction_bit_for_bit(model):
    """Each built-in's closed-form field against `_contact_field` of its value
    and gradient, down to the sign of a zero: at q = 0 with p < 0 and dH/dS =
    0, -dH/dq - p dH/dS is +0.0 where -dH/dq alone is -0.0."""
    for t, y in _builtin_points():
        f = np.array(model.field(t, y))
        generic = _contact_field(1, y, model.value(t, y), model.grad(t, y))
        assert_array_equal(f, generic)
        assert_array_equal(np.signbit(f), np.signbit(generic))


def _builtin_hessian(model, t, y):
    """The Hessian of a built-in's H in (q, p, S), written out by hand with the
    symbolic V''."""
    m, gamma = model.params["m"], model.params["gamma"]
    if model.name == "damped_parametric":
        w = model.params["omega"](t)
        return np.diag([m * w * w, 1.0 / m, 0.0])
    d2V = model.params["V"].second_derivative(y[0])
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
    for t, y in _builtin_points():
        generic = _contact_jacobian(1, y, model.grad(t, y), _builtin_hessian(model, t, y))
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
    points = _builtin_points() if model.n == 1 else \
        [(0.0, np.zeros(d)), (1.0, np.array([0.0, -0.0, -0.7, 0.0, 0.3]))] \
        + [(rng.uniform(0.0, 5.0), rng.uniform(-2, 2, d)) for _ in range(20)]
    for t, y in points:
        z = np.concatenate([y, rng.uniform(-2, 2, d * d)])
        head = np.array(model.tangent_rhs(t, z)[:d])
        f = np.array(model.field(t, y))
        assert_array_equal(head, f)
        assert_array_equal(np.signbit(head), np.signbit(f))


def _exact_quartic_s_coupled_jacobian(q, p, S):
    """d(field)/dy of H = p^2/2 + q^4/4 + 0.3 S p + 0.2 S^2, by hand."""
    return np.array([[0.0, 1.0, 0.3],
                     [-3 * q * q, -0.6 * p - 0.4 * S, -0.4 * p],
                     [-q ** 3, p, -0.4 * S]])


@pytest.mark.parametrize("grad, atol", [
    (None, 1e-3),  # a difference of FD differences: measured error up to 3.5e-4
    (_quartic_s_coupled_partials, 1e-8),
])
def test_custom_field_jacobian_matches_exact(grad, atol):
    """make_custom's A, from its gradient and a central-difference Hessian,
    against the exact A."""
    model = cm.make_custom(1, _quartic_s_coupled, grad)
    rng = np.random.default_rng(31)
    for _ in range(8):
        t, (q, p, S) = rng.uniform(0.0, 5.0), rng.uniform(-2, 2, 3)
        assert_allclose(_tangent_A(model, t, np.array([q, p, S])),
                        _exact_quartic_s_coupled_jacobian(q, p, S), rtol=1e-6, atol=atol)


class _Counted:
    """A parsed V whose value and second derivative count their calls."""

    def __init__(self, V):
        self.V, self.calls = V, {"value": 0, "second_derivative": 0}

    def __call__(self, q):
        self.calls["value"] += 1
        return self.V(q)

    def derivative(self, q):
        return self.V.derivative(q)

    def second_derivative(self, q):
        self.calls["second_derivative"] += 1
        return self.V.second_derivative(q)


@pytest.mark.parametrize("kind", ["builtin", "custom"])
def test_det_series_calls_field_once_per_right_hand_side(kind, monkeypatch):
    """Each right-hand side of the tangent solve is one `tangent_rhs` call,
    which evaluates the field once: V (the built-in's) or H (make_custom's)
    is evaluated only by the field, once per call.  The built-in's also takes
    V'' once and needs neither `value` nor `grad`."""
    calls = {"rhs": 0}
    if kind == "builtin":
        V = _Counted(_QUARTIC)
        base = cm.make_caldirola_kanai(1.2, 0.3, _QUARTIC)

        def forbidden(t, y):
            raise AssertionError("the det series evaluated H or its gradient")

        model = dataclasses.replace(cm.make_caldirola_kanai(1.2, 0.3, V), value=forbidden,
                                    grad=forbidden)
        counts = V.calls
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
    assert div["passed"], div["observed"]
    dets = cache["dets"]
    assert dets[-1] < 0.5  # the check is not vacuous

    dH_dS = np.array([model.grad(t, y)[2 * n] for t, y in zip(traj.times, traj.flat())])
    f = np.exp(-np.concatenate([[0.0], np.cumsum(np.diff(traj.times)
                                                 * (dH_dS[1:] + dH_dS[:-1]) / 2)]))
    assert_allclose(dets, [cm.volume_factor(fi, n) for fi in f], rtol=1e-5)

    for x in map(traj.state, range(0, len(traj), 50)):
        A = _tangent_A(model, x.t, x.flat())
        assert cm.divergence(model, x) == pytest.approx(np.trace(A), rel=1e-6, abs=1e-8)

    measure = diagnostics.check_measure(model, traj, cache)
    assert measure["passed"], measure["observed"]
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


def test_the_volume_checks_need_the_tangent(linear_model, linear_traj):
    for check in (diagnostics.check_divergence, diagnostics.check_measure):
        with pytest.raises(ValueError, match="tangent=True"):
            check(linear_model, linear_traj, {})


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


class _Pathological:
    """A V or an omega outside the expression grammar, from its value and its
    first and second derivatives as three callables."""

    def __init__(self, f, df, d2f):
        self.f, self.df, self.d2f = f, df, d2f

    def __call__(self, x):
        return self.f(x)

    def derivative(self, x):
        return self.df(x)

    def second_derivative(self, x):
        return self.d2f(x)


def _wall_at_q_1_5():
    """H = p^2/2 + q^2/2 + 0.1 S, except that V' is infinite from q = 1.5 on,
    which the flow from (1, 2, 0) reaches at t ~ 0.26."""
    V = _Pathological(lambda q: 0.5 * q * q, lambda q: q if q < 1.5 else math.inf,
                      lambda q: 1.0)
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


def _jacobian_wall_at_q_1_5():
    """The harmonic model of `_wall_at_q_1_5` with a finite field everywhere,
    but an infinite V'', and so a non-finite field Jacobian A, from q = 1.5 on,
    as where V'' overflows while V' stays finite."""
    V = _Pathological(lambda q: 0.5 * q * q, lambda q: q,
                      lambda q: 1.0 if q < 1.5 else math.inf)
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

    def omega(t):
        if t > 1.0 and not overflowed:
            overflowed.append(t)
            return 1e200  # w * w is inf
        return 1.3

    grid = np.linspace(0.0, 3.0, 31)
    erm = cm.solve_ermakov(_Pathological(omega, lambda t: 0.0, lambda t: 0.0), 0.2, 0.9, 0.1,
                           grid)
    clean = cm.solve_ermakov(1.3, 0.2, 0.9, 0.1, grid)
    assert overflowed
    assert_allclose(erm.alpha(grid), clean.alpha(grid), rtol=1e-8)
    assert_allclose(erm.phase(grid), clean.phase(grid), rtol=1e-8, atol=1e-12)


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
