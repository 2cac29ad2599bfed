"""Oscillator oracles: Ermakov, invariants, closed-form motion, Riccati, HJ route."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import contactmech as cm
from contactmech import diagnostics, scenario
from contactmech.errors import DimensionMismatchError, ErmakovCollapseError, RiccatiPoleError


GRID = np.linspace(0.0, 10.0, 101)


def test_ermakov_equilibrium_unit():
    erm = cm.solve_ermakov(1.0, 0.0, 1.0, 0.0, GRID)
    ts = np.linspace(0, 10, 40)
    assert np.max(np.abs(erm.alpha(ts) - 1.0)) < 1e-10
    assert np.max(np.abs(erm.phase(ts) - ts)) < 1e-9


def test_ermakov_equilibrium_omega_two():
    """Constant solution alpha* = Omega^(-1/2) for Omega = 2 (omega = 2, gamma = 0)."""
    a_star = 2.0 ** -0.5
    erm = cm.solve_ermakov(2.0, 0.0, a_star, 0.0, GRID)
    assert np.max(np.abs(erm.alpha(np.linspace(0, 10, 40)) - a_star)) < 1e-9


def test_ermakov_residual_time_dependent():
    omega = cm.parse_expression("1 + 0.1*sin(0.3*t)", "t")
    erm = cm.solve_ermakov(omega, 0.1, 1.0, 0.0, GRID)
    interior = np.linspace(0.2, 9.8, 60)
    assert np.max(np.abs(erm.residual(interior))) < 1e-7
    # phase is strictly increasing
    phases = erm.phase(np.linspace(0, 10, 200))
    assert np.all(np.diff(phases) > 0)


def test_ermakov_preconditions():
    with pytest.raises(ValueError):
        cm.solve_ermakov(1.0, 0.1, -1.0, 0.0, GRID)
    with pytest.raises(ValueError):
        cm.solve_ermakov(1.0, 0.1, 1.0, 0.0, [0.0])
    with pytest.raises(ValueError):
        cm.solve_ermakov(1.0, 0.1, 1.0, 0.0, [0.0, 0.0, 1.0])
    erm = cm.solve_ermakov(1.0, 0.1, 1.0, 0.0, GRID)
    with pytest.raises(ValueError):
        erm.alpha(11.0)


def test_dense_lookups_reject_nan_times():
    erm = cm.solve_ermakov(1.0, 0.1, 1.0, 0.0, GRID)
    ric = cm.solve_riccati(0.0, 0.1, 0.2, GRID)
    for lookup in (erm.alpha, erm.alpha_dot, erm.phase, ric.C):
        with pytest.raises(ValueError, match="outside the solved range"):
            lookup(math.nan)
        with pytest.raises(ValueError, match="outside the solved range"):
            lookup(np.array([1.0, math.nan]))
    assert erm.alpha(np.array([])).shape == (0,)


def test_lewis_invariant_examples(ermakov_const):
    erm0 = cm.solve_ermakov(1.0, 0.0, 1.0, 0.0, GRID)
    val = cm.lewis_invariant(1.0, 0.0, erm0, 0.0, [1.0, 0.0, 0.0])
    assert val == pytest.approx(0.5, rel=1e-10)
    assert cm.lewis_invariant(1.0, 0.1, ermakov_const,
                              2.0, [0.0, 0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)


def test_g_invariant_examples():
    assert cm.g_invariant(0.1, 0.0, [1.0, 0.0, 0.0]) == 0.0
    assert cm.g_invariant(0.1, 0.0, [1.0, 1.0, 2.0]) == 1.5


def test_invariants_constant_along_flow(parametric_model, parametric_traj,
                                        ermakov_const):
    I = cm.lewis_invariant(1.0, 0.1, ermakov_const, parametric_traj.times,
                           parametric_traj.flat())
    G = cm.g_invariant(0.1, parametric_traj.times, parametric_traj.flat())
    assert np.max(np.abs(I - I[0])) / abs(I[0]) < 1e-6
    assert np.max(np.abs(G - G[0])) / abs(G[0]) < 1e-6


def test_invariants_over_rows_equal_the_per_row_calls(parametric_traj, ermakov_const):
    times, rows = parametric_traj.times, parametric_traj.flat()
    I = cm.lewis_invariant(1.0, 0.1, ermakov_const, times, rows)
    G = cm.g_invariant(0.1, times, rows)
    assert I.shape == G.shape == times.shape
    assert (I == [cm.lewis_invariant(1.0, 0.1, ermakov_const, t, y)
                  for t, y in zip(times, rows)]).all()
    assert (G == [cm.g_invariant(0.1, t, y) for t, y in zip(times, rows)]).all()


@pytest.mark.parametrize("t, y", [
    (1.0, [1.0, 0.0]),                          # width 2
    (1.0, [1.0, 0.5, 0.0, 0.2, 0.3]),           # an n = 2 point
    (np.ones(4), np.ones((4, 5))),              # rows of width 5
    (np.ones(3), np.ones((4, 3))),              # a time per row is missing
    (1.0, np.ones((4, 3))),                     # one time for several rows
])
def test_invariants_need_n_equal_one_points_one_per_time(ermakov_const, t, y):
    with pytest.raises(DimensionMismatchError):
        cm.lewis_invariant(1.0, 0.1, ermakov_const, t, y)
    with pytest.raises(DimensionMismatchError):
        cm.g_invariant(0.1, t, y)


def test_check_invariants_builds_no_state(built_states):
    config = scenario.parse_scenario(
        "[model]\nkind = damped_parametric\nm = 1\ngamma = 0.1\n"
        "omega = 1 + 0.1*sin(0.3*t)\n[initial]\nq = 1\np = 0\nS = 0.3\n"
        "[integration]\nt_end = 5\nsample_interval = 0.02\n"
        "[diagnostics]\nchecks = invariants\n")
    model = scenario.build_model(config)
    traj = cm.integrate(model, cm.make_state(config.q0, config.p0, config.S0, config.t0),
                        config.t_end, config.options)
    del built_states[:]
    result = diagnostics.check_invariants(config, model, traj, {})
    assert result["passed"] and len(result["columns"]["I"]) == len(traj) == 251
    assert built_states == []


def test_lewis_gamma_zero_is_classic_formula():
    """At gamma = 0 the invariant is (m/2)[(alpha p/m - alpha' q)^2 + (q/alpha)^2]."""
    omega = cm.parse_expression("1 + 0.2*sin(0.5*t)", "t")
    erm = cm.solve_ermakov(omega, 0.0, 1.0, 0.3, GRID)
    for t in (0.0, 2.0, 7.5):
        q, p = 0.8, -0.4
        a, ad = erm.alpha(t), erm.alpha_dot(t)
        classic = 0.5 * ((a * p - ad * q) ** 2 + (q / a) ** 2)
        got = cm.lewis_invariant(1.0, 0.0, erm, t, [q, p, 0.0])
        assert got == pytest.approx(classic, rel=1e-12)


def test_analytic_state_zero_amplitude(ermakov_const):
    st = cm.analytic_state(1.0, 0.1, ermakov_const, 0.0, 2.0, 0.3, 4.0)
    assert st.q[0] == 0.0 and st.p[0] == 0.0 and st.t == 4.0
    assert st.S == pytest.approx(2.0 * math.exp(-0.4), rel=1e-12)
    with pytest.raises(ValueError):
        cm.analytic_state(1.0, 0.1, ermakov_const, -0.5, 0.0, 0.0, 1.0)


def test_analytic_state_conservative_oscillator():
    erm = cm.solve_ermakov(1.0, 0.0, 1.0, 0.0, GRID)
    for t in np.linspace(0, 10, 17):
        st = cm.analytic_state(1.0, 0.0, erm, 0.5, 0.0, 0.0, float(t))
        assert st.q[0] == pytest.approx(math.cos(t), abs=1e-9)
        assert st.p[0] == pytest.approx(-math.sin(t), abs=1e-9)


def test_analytic_state_matches_integration(parametric_traj, ermakov_const):
    I0, G0, phi0 = cm.invariants_from_state(1.0, 0.1, ermakov_const,
                                            parametric_traj.state(0))
    for i in range(0, len(parametric_traj), 40):
        st = cm.analytic_state(1.0, 0.1, ermakov_const, I0, G0, phi0,
                               float(parametric_traj.times[i]))
        assert abs(st.q[0] - parametric_traj.q[i, 0]) < 1e-6
        assert abs(st.p[0] - parametric_traj.p[i, 0]) < 1e-6
        assert abs(st.S - parametric_traj.S[i]) < 1e-6


def test_analytic_state_growing_exponent_fails(parametric_traj, ermakov_const):
    """The alternative e^{+gamma t} prefactor diverges instead of damping."""
    I0, G0, phi0 = cm.invariants_from_state(1.0, 0.1, ermakov_const,
                                            parametric_traj.state(0))
    bad = cm.analytic_state(1.0, 0.1, ermakov_const, I0, G0, phi0, 10.0,
                            growing_exponent=True)
    i = len(parametric_traj) - 1
    assert abs(bad.q[0] - parametric_traj.q[i, 0]) > 0.1
    # and the invariant evaluated on the bad closed form drifts
    I_bad = cm.lewis_invariant(1.0, 0.1, ermakov_const, 10.0, [bad.q[0], bad.p[0], bad.S])
    assert abs(I_bad - I0) / I0 > 0.1


def test_riccati_pure_quadratic_decay():
    grid = np.linspace(0.0, 5.0, 51)
    ric = cm.solve_riccati(0.0, 0.0, 1.0, grid)
    ts = np.linspace(0, 5, 23)
    assert np.max(np.abs(ric.C(ts) - 1.0 / (1.0 + ts))) < 1e-9


def test_riccati_zero_equilibrium():
    ric = cm.solve_riccati(0.0, 0.3, 0.0, GRID)
    assert np.max(np.abs(ric.C(np.linspace(0, 10, 30)))) < 1e-12


def test_riccati_matches_closed_form():
    ric = cm.solve_riccati(0.0, 0.1, 1.0, GRID)
    ts = np.linspace(0, 10, 101)
    closed = cm.riccati_free_particle(0.1, 1.0, ts)
    assert np.max(np.abs(ric.C(ts) - closed)) < 1e-8
    assert ric.C(5.0) == pytest.approx(
        math.exp(-0.5) / (1.0 + (1.0 - math.exp(-0.5)) / 0.1), abs=1e-8)


def test_riccati_newton_link():
    # lambda first vanishes near t = 8.6 for these parameters; stay clear of it
    omega = cm.parse_expression("0.4*cos(0.2*t)", "t")
    ric = cm.solve_riccati(omega, 0.1, 0.5, np.linspace(0.0, 7.0, 71))
    ts = np.linspace(0, 7, 71)
    lam, lam_dot = ric.lam(ts), ric.lam_dot(ts)
    mask = np.abs(lam) > 0.1
    assert np.max(np.abs(ric.C(ts)[mask] - lam_dot[mask] / lam[mask])) < 1e-7


def test_riccati_pole_detection():
    """The harmonic oscillator drives lambda through zero: C must blow up."""
    with pytest.raises(RiccatiPoleError) as err:
        cm.solve_riccati(1.0, 0.1, 0.0, GRID)
    # lambda(t) = e^{-gt/2}[cos wd t + ((g/2)/wd) sin wd t] vanishes near 1.62
    assert err.value.last_time == pytest.approx(1.62, abs=0.05)


def test_riccati_sensitivity_pole_detection():
    """The paired solves at C0 +/- delta hit the same pole as the base solve."""
    with pytest.raises(RiccatiPoleError) as base:
        cm.solve_riccati(1.0, 0.1, 0.0, GRID)
    with pytest.raises(RiccatiPoleError) as err:
        cm.riccati_sensitivity(1.0, 0.1, 0.0, GRID)
    assert err.value.last_time == pytest.approx(base.value.last_time, abs=1e-5)


def test_ermakov_collapse_detection():
    """A steep inward start drives alpha below COLLAPSE_EPS = 1e-6 after about
    1e-12 (2e-6 at speed 1e6, slowed a little by the 1/alpha^3 term)."""
    with pytest.raises(ErmakovCollapseError) as err:
        cm.solve_ermakov(1.0, 0.0, 2e-6, -1e6, np.linspace(0, 1, 11))
    assert err.value.last_time == pytest.approx(1.2e-12, rel=0.01)


def test_riccati_free_particle_examples():
    assert cm.riccati_free_particle(0.1, 1.0, 0.0) == pytest.approx(1.0)
    assert cm.riccati_free_particle(0.1, 1.0, 200.0) < 1e-9
    assert cm.riccati_free_particle(0.1, 1.0, 10.0) == pytest.approx(
        0.050248478, rel=1e-7)
    assert cm.riccati_free_particle(0.1, 0.0, 3.0) == 0.0
    with pytest.raises(RiccatiPoleError):
        cm.riccati_free_particle(0.1, -1.0, 2.0)
    with pytest.raises(ValueError):
        cm.riccati_free_particle(0.0, 1.0, 1.0)


def test_trajectory_from_hj_initial_point():
    grid = np.linspace(0.0, 10.0, 101)
    ric = cm.solve_riccati(0.0, 0.1, 0.2, grid)
    assert cm.trajectory_from_hj(1.0, 0.1, 0.5, 0.2, ric, 0.0) == pytest.approx(
        math.sqrt(1.0), rel=1e-9)
    with pytest.raises(ValueError):
        cm.trajectory_from_hj(1.0, 0.1, -0.5, 0.2, ric, 1.0)
    with pytest.raises(ValueError):
        cm.trajectory_from_hj(1.0, 0.2, 0.5, 0.2, ric, 1.0)  # gamma mismatch


def test_trajectory_from_hj_free_particle_closed_form():
    gamma, m, b0, C0 = 0.1, 1.0, 0.5, 0.2
    grid = np.linspace(0.0, 10.0, 101)
    ric = cm.solve_riccati(0.0, gamma, C0, grid)
    ts = np.linspace(0.0, 10.0, 41)
    got = cm.trajectory_from_hj(m, gamma, b0, C0, ric, ts)
    q0 = math.sqrt(2 * b0 / m)
    closed = q0 * (1.0 + (C0 / gamma) * (1.0 - np.exp(-gamma * ts)))
    assert np.max(np.abs(got - closed)) < 1e-6


def test_trajectory_from_hj_matches_integration(tight_opts):
    gamma, m, b0, C0 = 0.1, 1.0, 0.5, 0.2
    q0 = math.sqrt(2 * b0 / m)
    model = cm.make_damped_parametric(m, gamma, 0.0)
    traj = cm.integrate(model, cm.make_state(q0, m * q0 * C0, 0.0, 0.0), 10.0,
                        cm.IntegratorOptions(rel_tol=1e-10, abs_tol=1e-13,
                                             sample_interval=0.25))
    ric = cm.solve_riccati(0.0, gamma, C0, traj.times)
    got = cm.trajectory_from_hj(m, gamma, b0, C0, ric, traj.times)
    assert np.max(np.abs(got - traj.q[:, 0])) < 1e-6


def test_quadratic_invariant_coefficients_t0():
    erm = cm.solve_ermakov(1.0, 0.0, 1.0, 0.0, GRID)
    beta, eta, xi, zeta = cm.quadratic_invariant_coefficients(1.0, 0.0, 1.0, erm, 0.0)
    assert_allclose([beta, eta, xi, zeta], [0.5, 0.5, 0.25, 1.0], atol=1e-12)


def test_quadratic_invariant_assembles_from_elementary(parametric_traj,
                                                       ermakov_const):
    """F = beta p^2 - 2 xi q p + eta q^2 + zeta S equals I + zeta0 G."""
    for zeta0 in (0.0, 1.0, 2.0):
        for i in (0, 250, 700):
            x = parametric_traj.state(i)
            beta, eta, xi, zeta = cm.quadratic_invariant_coefficients(
                1.0, 0.1, zeta0, ermakov_const, x.t)
            F = (beta * x.p[0] ** 2 - 2 * xi * x.q[0] * x.p[0]
                 + eta * x.q[0] ** 2 + zeta * x.S)
            expected = (cm.lewis_invariant(1.0, 0.1, ermakov_const, x.t, x.flat())
                        + zeta0 * cm.g_invariant(0.1, x.t, x.flat()))
            assert F == pytest.approx(expected, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("gamma", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("zeta0", [0.0, 1.0, 2.0])
def test_coefficient_ode_closure(gamma, zeta0):
    """The coefficients satisfy their defining ODE system (FD time derivatives)."""
    m = 1.0
    omega = cm.parse_expression("1 + 0.1*sin(0.3*t)", "t")
    erm = cm.solve_ermakov(omega, gamma, 1.0, 0.0, np.linspace(0.0, 5.0, 51))
    ts = np.linspace(0.05, 4.95, 30)
    h = 1e-4
    co = lambda t: np.array(cm.quadratic_invariant_coefficients(m, gamma, zeta0, erm, t))
    for t in ts:
        beta, eta, xi, zeta = co(t)
        d = (co(t + h) - co(t - h)) / (2 * h)
        w2 = omega(t) ** 2
        resid = np.array([
            d[0] - (2.0 * xi / m + 2.0 * gamma * beta - zeta / (2.0 * m)),
            d[1] - (-2.0 * m * w2 * xi + 0.5 * m * w2 * zeta),
            d[2] - (eta / m + gamma * xi - m * w2 * beta),
            d[3] - gamma * zeta,
        ])
        assert np.max(np.abs(resid)) < 1e-6
