"""Contact transformations: conditions, conformal factors, pushforwards."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import contactmech as cm
from contactmech.errors import (DimensionMismatchError, NonFiniteError, SingularChartError,
                                UnsupportedModelError)
from contactmech.transforms import fd_jacobian

from conftest import random_rows, random_states


def test_identity_map_verifies():
    rep = cm.verify(cm.map_identity(1), random_rows(20))
    assert rep.passed
    assert rep.max_residual == 0.0
    assert_allclose(rep.f_values, 1.0)


def test_ck_map_examples():
    ck = cm.map_ck(1.0, 0.1)
    f = cm.conformal_factor(ck, cm.make_state(1.0, 1.0, 1.0, 2.0))
    assert f == pytest.approx(math.exp(0.2), rel=1e-12)
    rep = cm.verify(ck, random_rows(50, seed=5))
    assert rep.passed
    ts = np.array([0.0, 1.0, 3.0])
    # gamma = 0 degenerates to the identity
    ident = cm.map_ck(1.0, 0.0)
    x = cm.make_state(0.4, -0.7, 0.9, 2.0)
    y = ident.apply(x)
    assert_allclose([y.q[0], y.p[0], y.S], [0.4, -0.7, 0.9])


def test_expanding_map_examples():
    ex = cm.map_expanding(1.0, 0.2)
    y = ex.apply(cm.make_state(1.0, 0.0, 0.0, 0.0))
    assert_allclose([y.q[0], y.p[0], y.S], [1.0, 0.1, 0.05])
    assert cm.conformal_factor(ex, cm.make_state(0.5, 0.2, -1.0, 3.0)) == \
        pytest.approx(math.exp(0.6), rel=1e-12)
    rep = cm.verify(ex, random_rows(50, seed=6))
    assert rep.passed
    ident = cm.map_expanding(1.0, 0.0)
    x = cm.make_state(0.4, -0.7, 0.9, 2.0)
    y = ident.apply(x)
    assert_allclose([y.q[0], y.p[0], y.S], [0.4, -0.7, 0.9])


def test_forward_inverse_roundtrip():
    for cmap in (cm.map_ck(1.0, 0.1), cm.map_expanding(2.0, 0.3)):
        for x in random_states(20, seed=8):
            y = cmap.apply(x)
            back = cmap.apply_inverse(y)
            assert abs(back.q[0] - x.q[0]) < 1e-9
            assert abs(back.p[0] - x.p[0]) < 1e-9
            assert abs(back.S - x.S) < 1e-9


def test_closed_jacobians_match_fd():
    for cmap in (cm.map_ck(1.0, 0.1), cm.map_expanding(1.5, 0.25)):
        for x in random_states(10, seed=9):
            Jc, dTc = cmap.jacobian_at(x)
            Jf, dTf = fd_jacobian(cmap, x.t, x.flat())
            assert_allclose(Jc, Jf, atol=1e-5)
            assert_allclose(dTc, dTf, atol=1e-5)


def test_non_contact_map_fails():
    """(q, p, S) -> (q, p^2, S) breaks the -f p condition at generic points."""
    bad = cm.ContactMap(
        n=1,
        forward=lambda t, y: np.array([y[0], y[1] ** 2, y[2]]),
        name="planted",
    )
    rep = cm.verify(bad, random_rows(50, seed=10))
    assert not rep.passed
    assert rep.max_residual > 1e-3
    # at the special point p = 1 the conditions happen to cancel; the verifier
    # still catches the map because it samples generic points
    f = cm.conformal_factor(bad, cm.make_state(2.0, 1.0, 0.0, 0.0))
    assert f == pytest.approx(1.0, abs=1e-9)


def test_invariants_map(parametric_traj, ermakov_const):
    inv = cm.map_invariants(1.0, 0.1, ermakov_const)
    pts = random_rows(100, seed=12, t_range=(0.0, 9.5))
    rep = cm.verify(inv, pts)
    assert rep.passed
    f_exp = np.exp(0.1 * pts[:, 3])
    assert np.max(np.abs(rep.f_values - f_exp)) < 1e-8
    # chart breaks down at q = 0
    with pytest.raises(SingularChartError):
        inv.apply(cm.make_state(0.0, 1.0, 0.0, 1.0))
    # roundtrip on the principal (q > 0) chart
    for x in random_states(20, seed=13, t_range=(0.0, 9.5)):
        y = inv.apply(x)
        back = inv.apply_inverse(y)
        assert abs(back.q[0] - x.q[0]) < 1e-9
        assert abs(back.p[0] - x.p[0]) < 1e-9
        assert abs(back.S - x.S) < 1e-9
    # closed-form jacobian agrees with finite differences
    for x in random_states(8, seed=14, t_range=(0.5, 9.0)):
        Jc, dTc = inv.jacobian_at(x)
        Jf, dTf = fd_jacobian(inv, x.t, x.flat())
        assert_allclose(Jc, Jf, atol=1e-5)
        assert_allclose(dTc, dTf, atol=2e-5)


def test_pushforward_identity(linear_model):
    K = cm.pushforward_hamiltonian(cm.map_identity(1), linear_model)
    for x in random_states(10, seed=15):
        assert K.evaluate(x) == pytest.approx(linear_model.evaluate(x), rel=1e-12)


def test_pushforward_ck_gives_caldirola_kanai(linear_model):
    K = cm.pushforward_hamiltonian(cm.map_ck(1.0, 0.1), linear_model)
    ck = cm.make_caldirola_kanai(1.0, 0.1, cm.parse_expression("q^2/2", "q"))
    for X in random_states(25, seed=16):
        assert abs(K.evaluate(X) - ck.evaluate(X)) < 1e-9


def test_pushforward_expanding_gives_expanding_hamiltonian():
    gamma = 0.1
    model = cm.make_damped_parametric(1.0, gamma, 1.0)
    K = cm.pushforward_hamiltonian(cm.map_expanding(1.0, gamma), model)
    for X in random_states(25, seed=17):
        expected = X.p[0] ** 2 / 2 + 0.5 * (1.0 - gamma ** 2 / 4) * X.q[0] ** 2
        assert abs(K.evaluate(X) - expected) < 1e-9


def test_pushforward_invariants_is_action_over_alpha_sq(parametric_model,
                                                        ermakov_const):
    inv = cm.map_invariants(1.0, 0.1, ermakov_const)
    K = cm.pushforward_hamiltonian(inv, parametric_model)
    rng = np.random.default_rng(18)
    for _ in range(15):
        # target coordinates: angle in the principal chart, invariant > 0
        X = cm.make_state(float(rng.uniform(-1.0, 1.0)),
                          float(rng.uniform(0.2, 1.5)),
                          float(rng.uniform(-1.0, 1.0)),
                          float(rng.uniform(0.2, 9.0)))
        expected = X.p[0] / ermakov_const.alpha(X.t) ** 2
        assert abs(K.evaluate(X) - expected) < 1e-8
        d = K.partials(X)
        assert abs(d[0]) < 1e-6   # independent of the angle
        assert abs(d[2]) < 1e-6   # independent of S~


def test_new_coordinate_flow_is_trivial(parametric_traj, ermakov_const):
    """P and S~ constant, dQ/dt = 1/alpha^2 along mapped trajectories."""
    inv = cm.map_invariants(1.0, 0.1, ermakov_const)
    images = [inv.apply(parametric_traj.state(i))
              for i in range(0, len(parametric_traj), 10)]
    times = parametric_traj.times[::10]
    P = np.array([y.p[0] for y in images])
    St = np.array([y.S for y in images])
    assert np.max(np.abs(P - P[0]) / abs(P[0])) < 1e-6
    assert np.max(np.abs(St - St[0]) / abs(St[0])) < 1e-6
    phases = np.array([ermakov_const.phase(t) for t in times])
    Q = np.array([y.q[0] for y in images])
    Q_unwrapped = np.unwrap(Q, period=np.pi)
    assert np.max(np.abs((Q_unwrapped - Q_unwrapped[0]) - (phases - phases[0]))) < 1e-6


def test_pushforward_requires_inverse_and_contact(linear_model):
    no_inv = cm.ContactMap(n=1, forward=lambda t, y: y, name="noinv")
    with pytest.raises(UnsupportedModelError):
        cm.pushforward_hamiltonian(no_inv, linear_model)
    bad = cm.ContactMap(
        n=1,
        forward=lambda t, y: np.array([y[0], y[1] ** 2, y[2]]),
        inverse=lambda t, y: np.array([y[0], math.sqrt(abs(y[1])), y[2]]),
        name="planted")
    with pytest.raises(ValueError):
        cm.pushforward_hamiltonian(bad, linear_model)


def test_volume_factor_examples():
    assert cm.volume_factor(1.0, 5) == 1.0
    assert cm.volume_factor(2.0, 1) == 4.0
    assert cm.volume_factor(math.exp(1.0), 1) == pytest.approx(math.exp(2.0), rel=1e-12)


def test_composition_conformal_factor():
    ck = cm.map_ck(1.0, 0.1)
    ex = cm.map_expanding(1.0, 0.2)
    comp = cm.compose(ck, ex)
    rep = cm.verify(comp, random_rows(30, seed=19))
    assert rep.passed
    for x in random_states(30, seed=19):
        f_expected = (cm.conformal_factor(ck, ex.apply(x))
                      * cm.conformal_factor(ex, x))
        assert abs(cm.conformal_factor(comp, x) - f_expected) < 1e-8


def test_canonical_specialization_symplectic_rotation():
    """An f = 1 map verifies iff its (q, p) part is symplectic."""
    theta = 0.7
    c, s = math.cos(theta), math.sin(theta)

    def fwd(t, y):
        q, p, S = y
        Q = c * q + s * p
        P = -s * q + c * p
        # S~ = S - F1 with F1 the type-1 generating function of the rotation
        F1 = (2 * q * Q - c * (q * q + Q * Q)) / (2 * s)
        return np.array([Q, P, S - F1])

    rot = cm.ContactMap(n=1, forward=fwd, name="rotation")
    rep = cm.verify(rot, random_rows(30, seed=20), tol=1e-6)
    assert rep.passed
    assert np.max(np.abs(rep.f_values - 1.0)) < 1e-6
    # non-symplectic (q, p) part with untouched S fails
    squash = cm.ContactMap(
        n=1, forward=lambda t, y: np.array([2 * y[0], y[1], y[2]]),
        name="squash")
    assert not cm.verify(squash, random_rows(30, seed=21), tol=1e-6).passed


def test_equation_form_invariance(tight_opts):
    """Integrate-then-map equals map-then-integrate(pushforward) over [0, 5]."""
    gamma = 0.1
    model = cm.make_damped_parametric(1.0, gamma, 1.0)
    ex = cm.map_expanding(1.0, gamma)
    K = cm.pushforward_hamiltonian(ex, model)
    x0 = cm.make_state(1.0, 0.0, 0.3, 0.0)
    traj = cm.integrate(model, x0, 5.0, tight_opts)
    mapped = [ex.apply(traj.state(i)) for i in range(0, len(traj), 25)]
    trajK = cm.integrate(K, ex.apply(x0), 5.0, tight_opts)
    for y in mapped:
        i = int(round((y.t - trajK.times[0]) / 0.01))
        assert abs(trajK.q[i, 0] - y.q[0]) < 1e-6
        assert abs(trajK.p[i, 0] - y.p[0]) < 1e-6
        assert abs(trajK.S[i] - y.S) < 1e-6


def test_verify_validation(linear_model):
    with pytest.raises(ValueError):
        cm.verify(cm.map_identity(1), [])
    with pytest.raises(ValueError):
        cm.map_expanding(-1.0, 0.1)
    with pytest.raises(ValueError):
        cm.map_ck(1.0, -0.5)


def test_a_non_finite_jacobian_is_a_non_finite_error_naming_the_map():
    ck = cm.map_ck(1.0, 0.1)

    def jacobian(t, y):
        J, dT = ck.jacobian(t, y)
        J[2, 1] = np.nan
        return J, dT

    with pytest.raises(NonFiniteError, match="map 'ck' has a non-finite Jacobian"):
        cm.verify(dataclasses.replace(ck, jacobian=jacobian), random_rows(20, seed=30))
    with pytest.raises(NonFiniteError, match="map 'ck' has a non-finite image"):
        cm.verify(dataclasses.replace(ck, forward=lambda t, y: np.array([y[0], np.inf, y[2]])),
                  random_rows(20, seed=30))


def test_a_nan_declared_factor_fails_verification():
    rep = cm.verify(dataclasses.replace(cm.map_ck(1.0, 0.1), declared_f=lambda t, y: math.nan),
                    random_rows(20, seed=31))
    assert not rep.passed
    assert math.isnan(rep.max_residual)


def test_verify_checks_the_shape_and_finiteness_of_its_rows():
    ck = cm.map_ck(1.0, 0.1)
    with pytest.raises(DimensionMismatchError, match="width 4"):
        cm.verify(ck, np.zeros((5, 3)))
    with pytest.raises(DimensionMismatchError, match="width 4"):
        cm.verify(ck, np.zeros(4))
    with pytest.raises(DimensionMismatchError, match="width 6"):
        cm.verify(cm.map_identity(2), random_rows(5))
    with pytest.raises(ValueError, match="nonempty"):
        cm.verify(ck, np.zeros((0, 4)))
    rows = random_rows(5, seed=32)
    rows[3, 3] = np.nan
    with pytest.raises(NonFiniteError, match="map 'ck' has a non-finite point at "):
        cm.verify(ck, rows)


def _scaled_rotation(lam, theta=0.7):
    """(q, p, S) -> (R q, lam R p, lam S) at n = 2, R a rotation: contact with f = lam."""
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, -s], [s, c]])
    J = np.zeros((5, 5))
    J[:2, :2], J[2:4, 2:4], J[4, 4] = R, lam * R, lam

    def forward(t, y):
        return np.concatenate([R @ y[:2], lam * (R @ y[2:4]), [lam * y[4]]])

    def inverse(t, y):
        return np.concatenate([R.T @ y[:2], R.T @ y[2:4] / lam, [y[4] / lam]])

    return cm.ContactMap(n=2, forward=forward, inverse=inverse,
                         jacobian=lambda t, y: (J.copy(), np.zeros(5)),
                         declared_f=lambda t, y: lam, name="scaled_rotation")


def _rows_n2(k, seed):
    return np.random.default_rng(seed).uniform([0.5, 0.5, -1, -1, -1, 0],
                                               [1.5, 1.5, 1, 1, 1, 5], size=(k, 6))


def test_a_two_degree_of_freedom_map_verifies_with_its_conformal_factor():
    lam = 1.7
    rot = _scaled_rotation(lam)
    rows = _rows_n2(40, seed=33)
    rep = cm.verify(rot, rows)
    assert rep.passed and rep.max_residual < 1e-14
    assert rep.residuals_q.shape == rep.residuals_p.shape == (40, 2)
    assert_allclose(rep.f_values, lam, rtol=1e-15)
    x = cm.make_state(rows[0, :2], rows[0, 2:4], rows[0, 4], rows[0, 5])
    assert cm.conformal_factor(rot, x) == pytest.approx(lam, rel=1e-15)
    # without the closed-form Jacobian, finite differences give the same verdict
    assert cm.verify(dataclasses.replace(rot, jacobian=None), rows, tol=1e-6).passed
    for comp in (cm.compose(rot, cm.map_identity(2)), cm.compose(cm.map_identity(2), rot)):
        rep = cm.verify(comp, rows)
        assert rep.passed
        assert_allclose(rep.f_values, lam, rtol=1e-15)
    # f multiplies under composition: f = lam^2
    twice = cm.compose(rot, rot)
    assert_allclose(cm.verify(twice, rows).f_values, lam * lam, rtol=1e-14)
    K = cm.pushforward_hamiltonian(
        rot, cm.make_custom(2, lambda t, y: float(y[:2] @ y[2:4] + y[4])))
    # H = q.p + S is rotation invariant, so K = lam (q.p + S)(pre-image) = Q.P + S~
    X = cm.make_state([0.3, -0.2], [0.5, 0.9], 0.4, 1.0)
    assert K.evaluate(X) == pytest.approx(float(X.q @ X.p + X.S), rel=1e-12)


def test_a_two_degree_of_freedom_map_broken_in_its_second_column_fails():
    """(q, p1, 2 p2, S) breaks only the -f p_2 condition."""
    planted = cm.ContactMap(
        n=2, forward=lambda t, y: np.array([y[0], y[1], y[2], 2 * y[3], y[4]]),
        name="planted2")
    rows = _rows_n2(40, seed=34)
    rep = cm.verify(planted, rows, tol=1e-6)
    assert not rep.passed
    assert np.max(np.abs(rep.residuals_q[:, 0])) < 1e-6
    assert_allclose(np.abs(rep.residuals_q[:, 1]), np.abs(rows[:, 3]), rtol=1e-6, atol=1e-9)


def test_one_pushforward_evaluation_calls_inverse_jacobian_and_forward_once(linear_model):
    ex = cm.map_expanding(1.0, 0.1)
    calls = {"forward": 0, "inverse": 0, "jacobian": 0}

    def counted(name):
        fn = getattr(ex, name)

        def wrapper(t, y):
            calls[name] += 1
            return fn(t, y)
        return wrapper

    K = cm.pushforward_hamiltonian(
        dataclasses.replace(ex, **{name: counted(name) for name in calls}), linear_model)
    X = cm.make_state(0.7, -0.4, 0.3, 1.5)
    for name in calls:
        calls[name] = 0
    value = K.evaluate(X)
    assert calls == {"forward": 1, "inverse": 1, "jacobian": 1}
    assert value == cm.pushforward_hamiltonian(ex, linear_model).evaluate(X)


def test_verify_builds_no_state(built_states, ermakov_const):
    rows = random_rows(100, seed=35, t_range=(0.0, 9.5))
    for cmap in (cm.map_identity(1), cm.map_ck(1.0, 0.1), cm.map_expanding(1.0, 0.1),
                 cm.map_invariants(1.0, 0.1, ermakov_const)):
        assert cm.verify(cmap, rows).passed
    assert built_states == []
    cm.make_state(1.0, 0.0)  # the counter itself works
    assert len(built_states) == 1


def test_custom_models_and_pushforwards_build_no_state(built_states, linear_model):
    custom = cm.make_custom(1, lambda t, y: y[1] ** 2 / 2 + y[0] ** 2 / 2 + 0.1 * y[2])
    K = cm.pushforward_hamiltonian(cm.map_expanding(1.0, 0.1), linear_model)
    x0 = cm.make_state(1.0, 0.0, 0.2, 0.0)
    y = np.array([0.7, -0.4, 0.3])
    del built_states[:]
    traj = cm.integrate(custom, x0, 2.0, cm.IntegratorOptions(sample_interval=0.1))
    assert len(traj) == 21
    assert math.isfinite(K.value(1.5, y))
    assert np.isfinite(K.field(1.5, y)).all()  # K's gradient by central differences
    assert built_states == []
    cm.make_state(1.0, 0.0)  # the counter itself works
    assert len(built_states) == 1
