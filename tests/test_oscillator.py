"""Oscillator oracles: Ermakov, invariants, closed-form motion, Riccati, HJ route."""

import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import contactmech as cm
from contactmech import diagnostics, oscillator, scenario
from contactmech.errors import DimensionMismatchError, ErmakovCollapseError, RiccatiPoleError
from contactmech.oscillator import CubicHermite

from conftest import random_rows

ROOT = Path(__file__).resolve().parents[1]


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
    """NaN and out-of-range times, floats, np.float64 or in arrays, are refused
    by every lookup with one message naming the first of them."""
    erm = cm.solve_ermakov(1.0, 0.1, 1.0, 0.0, GRID)
    ric = cm.solve_riccati(0.0, 0.1, 0.2, GRID)
    for lookup in (erm.alpha, erm.alpha_dot, erm.alpha_ddot, erm.phase, erm.residual,
                   ric.C, ric.lam, ric.lam_dot, ric.C_dot):
        for t in (math.nan, -1e-9, 10.0 + 1e-9, np.float64(math.nan), np.float64(11.0),
                  np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match=r"^t=.* is outside the solved range "
                                                 r"\[0\.0, 10\.0\]$"):
                lookup(t)
    assert erm.alpha(np.array([])).shape == (0,)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def test_interpolant_float_path_is_the_array_path_at_every_t():
    """Every t of the array path's oracle sample (random interior points, the
    nodes, the ends `_check_t` admits) and the extrapolated tails: a float, and
    an np.float64, give the array path's element bit for bit, and a NaN gives
    its NaN."""
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.uniform(0.01, 1.0, 40))
    ours = CubicHermite(x, rng.normal(size=40) * 10.0, rng.normal(size=40) * 10.0)
    t = np.concatenate([rng.uniform(x[0], x[-1], 500), x,
                        [x[0] - 1e-12, x[-1] + 1e-12, x[0] - 0.5, x[-1] + 0.5]])
    for s, expected in zip(t.tolist(), ours(t).tolist()):
        value, value64 = ours(s), ours(np.float64(s))
        assert type(value) is float and isinstance(value64, np.float64)
        assert _bits(value) == _bits(expected) == _bits(value64)
    assert math.isnan(ours(math.nan)) and np.isnan(ours(np.array([math.nan]))[0])
    one_interval = CubicHermite([0.0, 1.0], [1.0, 2.0], [0.0, 0.0])
    assert one_interval(0.25) == one_interval(np.array([0.25]))[0]


@pytest.mark.parametrize("omega", ["1", "1 + 0.2*sin(0.7*t)"])
def test_dense_float_lookups_are_the_array_lookups_bit_for_bit(omega):
    """Every accessor of both dense solutions answers a float t with the
    element the array path gives at t, at the nodes, inside the intervals and
    at both widened ends, for floats and np.float64 alike.  alpha_ddot and the
    residual take alpha^-3 by the C library's pow on both paths, never by
    numpy's vectorised power, whose rounding depends on the host's SIMD; so
    alpha_ddot is also its defining equation in floats, bit for bit."""
    w = cm.parse_expression(omega, "t")
    grid = np.linspace(0.5, 2.0, 7)  # C(0.5) = 2 has its first pole after t = 2.5
    erm = cm.solve_ermakov(w, 0.1, 1.0, 0.0, grid)
    ric = cm.solve_riccati(w, 0.1, 2.0, grid)
    nodes = oscillator._internal_nodes(grid)
    ts = np.concatenate([nodes, 0.5 * (nodes[1:] + nodes[:-1]),
                         [nodes[0] - 1e-12, nodes[-1] + 1e-12]])
    lookups = [getattr(erm, name) for name in ("alpha", "alpha_dot", "phase", "alpha_ddot")] + \
        [getattr(ric, name) for name in ("C", "lam", "lam_dot", "C_dot")]
    for lookup in lookups:
        for t, expected in zip(ts.tolist(), lookup(ts).tolist()):
            value = lookup(t)
            assert type(value) is float
            assert _bits(value) == _bits(expected) == _bits(lookup(np.float64(t)))
    for t, expected in zip(ts.tolist(), erm.residual(ts).tolist()):
        assert _bits(erm.residual(t)) == _bits(expected) == _bits(erm.residual(np.float64(t)))
    alphas, omegas = erm.alpha(ts).tolist(), [w(t) for t in ts.tolist()]
    for t, a, wt in zip(ts.tolist(), alphas, omegas):
        assert _bits(erm.alpha_ddot(t)) == _bits(-(wt * wt - 0.25 * 0.1 ** 2) * a + a ** -3.0)


def test_the_range_error_names_the_first_offending_time():
    erm = cm.solve_ermakov(1.0, 0.1, 1.0, 0.0, GRID)
    batch = np.linspace(0.0, 10.0, 1000)
    batch[[400, 700]] = [12.5, math.nan]
    with pytest.raises(ValueError) as err:
        erm.alpha(batch.reshape(20, 50))
    assert str(err.value) == "t=12.5 is outside the solved range [0.0, 10.0]"
    assert erm.alpha(batch[:400].reshape(8, 50)).shape == (8, 50)
    assert erm.alpha_ddot(batch[:400].reshape(8, 50)).shape == (8, 50)


def _scenario_run(name):
    config = scenario.parse_scenario((ROOT / "scenarios" / f"{name}.ini").read_text())
    model = scenario.build_model(config)
    return model, cm.integrate(model, cm.make_state(config.q0, config.p0, config.S0,
                                                    config.t0), config.t_end, config.options)


def test_per_point_checks_never_take_the_interpolants_array_path(monkeypatch):
    """The invariants chart's verification (100 rows) and the contact HJ
    residual look up the dense solutions one float time at a time."""
    model, traj = _scenario_run("parametric_oscillator")
    erm = diagnostics._ermakov_for(model, traj, {})
    cmap = cm.map_invariants(model.params["m"], model.params["gamma"], erm)
    free_model, free_traj = _scenario_run("damped_free_particle")

    def forbidden(self, t):
        raise AssertionError("an array lookup")

    monkeypatch.setattr(CubicHermite, "_at_array", forbidden)
    assert cm.verify(cmap, random_rows(100, t_range=erm.t_range)).passed
    assert diagnostics.check_hj_residual(free_model, free_traj, {})["passed"]


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
    result = diagnostics.check_invariants(model, traj, {})
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
