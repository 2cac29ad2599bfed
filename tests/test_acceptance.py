"""Acceptance gate: every criterion at its stated tolerance, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.  Rate comparisons ("relative error") are sup-normalized,
|fd - expected|_max / max|expected|, because the pointwise expected rate
vanishes at turning points.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import contactmech as cm
from contactmech import cli
from contactmech.errors import RiccatiPoleError

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {detail} -> {status}")
    assert passed, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# Shared heavyweight computations
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def linear():
    return cm.make_linear_dissipation(1.0, 0.1, cm.parse_expression("q^2/2", "q"))


@pytest.fixture(scope="module")
def traj20(linear):
    """Damped oscillator (1, 0, 0) over [0, 20], tol 1e-10, fine sampling."""
    opts = cm.IntegratorOptions(rel_tol=1e-10, abs_tol=1e-13, sample_interval=0.002)
    t0 = time.perf_counter()
    traj = cm.integrate(linear, cm.make_state(1.0, 0.0, 0.0, 0.0), 20.0, opts)
    elapsed = time.perf_counter() - t0
    return traj, elapsed


@pytest.fixture(scope="module")
def dets20(linear):
    opts = cm.IntegratorOptions(rel_tol=1e-10, abs_tol=1e-13, sample_interval=0.02)
    return cm.jacobian_determinant_series(linear, cm.make_state(1.0, 0.0, 0.0, 0.0),
                                          20.0, opts)


def _routes_setup(gamma, omega, q0, p0, S0, t_end=10.0):
    model = cm.make_damped_parametric(1.0, gamma, omega)
    opts = cm.IntegratorOptions(rel_tol=1e-11, abs_tol=1e-13, sample_interval=0.05)
    direct = cm.integrate(model, cm.make_state(q0, p0, S0, 0.0), t_end, opts)
    return model, direct, omega


@pytest.fixture(scope="module")
def free_particle_routes():
    return _routes_setup(0.1, 0.0, 1.0, 0.2, 0.1)


@pytest.fixture(scope="module")
def oscillator_routes():
    return _routes_setup(0.1, 1.0, 1.0, 0.0, 0.3)


def _route_expanding(gamma, model, direct):
    """Map the initial point, integrate the pushforward, map back per sample."""
    ex = cm.map_expanding(1.0, gamma)
    K = cm.pushforward_hamiltonian(ex, model)
    opts = cm.IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12, sample_interval=0.05)
    trajK = cm.integrate(K, ex.apply(direct.state(0)), float(direct.times[-1]), opts)
    back = [ex.apply_inverse(trajK.state(i)) for i in range(len(trajK))]
    q = np.array([y.q[0] for y in back])
    p = np.array([y.p[0] for y in back])
    S = np.array([y.S for y in back])
    return q, p, S


def _route_invariants(gamma, omega, direct, growing_exponent=False):
    erm = cm.solve_ermakov(omega, gamma, 1.0, 0.0, direct.times)
    I0, G0, phi0 = cm.invariants_from_state(1.0, gamma, erm, direct.state(0))
    q = np.empty(len(direct))
    p = np.empty(len(direct))
    S = np.empty(len(direct))
    for i, t in enumerate(direct.times):
        st = cm.analytic_state(1.0, gamma, erm, I0, G0, phi0, float(t),
                               growing_exponent=growing_exponent)
        q[i], p[i], S[i] = st.q[0], st.p[0], st.S
    return q, p, S


def _route_hj(gamma, omega, direct, t_grid):
    q0 = direct.q[0, 0]
    C0 = direct.p[0, 0] / q0
    b0 = 0.5 * q0 ** 2
    ric = cm.solve_riccati(omega, gamma, C0, t_grid)
    return cm.trajectory_from_hj(1.0, gamma, b0, C0, ric, t_grid)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_01_hamiltonian_decay(traj20):
    traj, elapsed = traj20
    pred = traj.H[0] * np.exp(-0.1 * traj.times)
    dev = float(np.max(np.abs(traj.H - pred) / pred))
    passed = dev < 1e-6 and elapsed < 1.0
    report(1, "hamiltonian-decay",
           passed, f"max_rel_dev={dev:.3g} (tol 1e-6), runtime={elapsed:.2f}s (< 1s)")


def test_criterion_02_energy_dissipation_rate(traj20):
    traj, _ = traj20
    hmec = traj.H - 0.1 * traj.S
    fd = (hmec[2:] - hmec[:-2]) / (traj.times[2:] - traj.times[:-2])
    expected = -0.1 * traj.p[1:-1, 0] ** 2
    err = float(np.max(np.abs(fd - expected)) / np.max(np.abs(expected)))
    report(2, "energy-dissipation-rate", err < 1e-5,
           f"sup-normalized FD error={err:.3g} (tol 1e-5)")


def test_criterion_03_divergence_and_volume(linear, traj20):
    traj, _ = traj20
    div_exact = bool(np.all(traj.div == -0.2))
    opts = cm.IntegratorOptions(rel_tol=1e-10, abs_tol=1e-13, sample_interval=5.0)
    det = cm.jacobian_determinant_series(linear, cm.make_state(1.0, 0.0, 0.0, 0.0),
                                         5.0, opts)[1][-1]
    det_err = abs(det - math.exp(-1.0))
    report(3, "divergence-and-volume", div_exact and det_err < 1e-5,
           f"div==-2*gamma exact={div_exact}, |det(5)-e^-1|={det_err:.3g} (tol 1e-5)")


def test_criterion_04_invariant_measure(traj20, dets20):
    traj, _ = traj20
    times, dets = dets20
    H = traj.H[::10]
    assert np.max(np.abs(traj.times[::10] - times)) == 0.0
    mask = np.abs(H) > 1e-3
    product = np.abs(H[mask]) ** -2.0 * dets[mask]
    drift = float(np.max(np.abs(product - product[0]) / product[0]))
    report(4, "invariant-measure", drift < 1e-4,
           f"weight*det drift={drift:.3g} (tol 1e-4, {mask.sum()} samples)")


def test_criterion_05_invariants():
    worst_drift, worst_res = 0.0, 0.0
    for omega in (1.0, cm.parse_expression("1 + 0.1*sin(0.3*t)", "t")):
        model = cm.make_damped_parametric(1.0, 0.1, omega)
        opts = cm.IntegratorOptions(rel_tol=1e-10, abs_tol=1e-13,
                                    sample_interval=0.01)
        traj = cm.integrate(model, cm.make_state(1.0, 0.0, 0.3, 0.0), 10.0, opts)
        erm = cm.solve_ermakov(omega, 0.1, 1.0, 0.0, traj.times)
        I = cm.lewis_invariant(1.0, 0.1, erm, traj.times, traj.flat())
        G = cm.g_invariant(0.1, traj.times, traj.flat())
        worst_drift = max(worst_drift,
                          float(np.max(np.abs(I - I[0])) / abs(I[0])),
                          float(np.max(np.abs(G - G[0])) / abs(G[0])))
        worst_res = max(worst_res, float(np.max(np.abs(
            erm.residual(traj.times[2:-2])))))
    report(5, "invariants", worst_drift < 1e-6 and worst_res < 1e-7,
           f"max drift={worst_drift:.3g} (tol 1e-6), "
           f"Ermakov residual={worst_res:.3g} (tol 1e-7)")


def test_criterion_06_three_route_agreement(free_particle_routes, oscillator_routes):
    tol = 1e-5
    details = []
    ok = True
    for label, (model, direct, omega) in (("free-particle", free_particle_routes),
                                          ("oscillator", oscillator_routes)):
        gamma = 0.1
        q1, p1, S1 = _route_expanding(gamma, model, direct)
        q2, p2, S2 = _route_invariants(gamma, omega, direct)
        e1 = max(np.max(np.abs(q1 - direct.q[:, 0])), np.max(np.abs(p1 - direct.p[:, 0])),
                 np.max(np.abs(S1 - direct.S)))
        e2 = max(np.max(np.abs(q2 - direct.q[:, 0])), np.max(np.abs(p2 - direct.p[:, 0])),
                 np.max(np.abs(S2 - direct.S)))
        e12 = max(np.max(np.abs(q1 - q2)), np.max(np.abs(p1 - p2)),
                  np.max(np.abs(S1 - S2)))
        # route 3 recovers |q|; it lives on the maximal pole-free interval
        try:
            q3 = _route_hj(gamma, omega, direct, direct.times)
            t3_hi = float(direct.times[-1])
            mask = np.ones(len(direct), dtype=bool)
        except RiccatiPoleError as pole:
            t3_hi = pole.last_time - 0.15
            mask = direct.times <= t3_hi
            q3 = _route_hj(gamma, omega, direct, direct.times[mask])
        e3 = float(np.max(np.abs(q3 - direct.q[mask, 0])))
        e13 = float(np.max(np.abs(q3 - q1[mask])))
        e23 = float(np.max(np.abs(q3 - q2[mask])))
        worst = max(e1, e2, e12, e3, e13, e23)
        ok = ok and worst < tol
        details.append(f"{label}: routes-vs-direct=({e1:.2g},{e2:.2g},{e3:.2g}) "
                       f"pairwise=({e12:.2g},{e13:.2g},{e23:.2g}) "
                       f"route3 on [0,{t3_hi:.2f}]")
    # documented negative test: the growing-exponent closed form fails
    _, direct, omega = oscillator_routes
    qg, _, _ = _route_invariants(0.1, omega, direct, growing_exponent=True)
    neg_dev = float(np.abs(qg[-1] - direct.q[-1, 0]))
    ok = ok and neg_dev > 0.1
    details.append(f"growing-exponent deviation={neg_dev:.3g} (> 0.1 required)")
    report(6, "three-route-agreement", ok, "; ".join(details) + f" (tol {tol:g})")


def test_criterion_07_riccati_closed_form():
    grid = np.linspace(0.0, 10.0, 201)
    ric = cm.solve_riccati(0.0, 0.1, 1.0, grid)
    closed = cm.riccati_free_particle(0.1, 1.0, grid)
    err = float(np.max(np.abs(ric.C(grid) - closed)))
    lam, lam_dot = ric.lam(grid), ric.lam_dot(grid)
    link = float(np.max(np.abs(ric.C(grid) - lam_dot / lam)))
    report(7, "riccati-closed-form", err < 1e-8 and link < 1e-7,
           f"|C-closed|={err:.3g} (tol 1e-8), |C-lam'/lam|={link:.3g} (tol 1e-7)")


def test_criterion_08_contact_hj(free_particle_routes):
    model, direct, _omega = free_particle_routes
    gamma, m = 0.1, 1.0
    ric = cm.solve_riccati(0.0, gamma, 1.0, np.linspace(0.0, 5.0, 101))
    field = cm.principal_field_from_riccati(m, ric)
    worst = 0.0
    for q in np.linspace(-2.0, 2.0, 50):
        for t in np.linspace(0.0, 5.0, 50):
            worst = max(worst, abs(cm.hj_residual(model, field, [q], float(t))))
    # Appendix-style characteristic condition along the integrated trajectory
    C0 = direct.p[0, 0] / direct.q[0, 0]
    fam = cm.quadratic_principal_family(m, 0.0, gamma, direct.times, C0)
    res = cm.verify_b_condition(model, fam, [C0], direct)
    bres = float(np.max(np.abs(res)))
    b = np.array([cm.characteristic_b(fam, [C0], direct.q[i], direct.times[i])[0]
                  for i in range(len(direct))])
    bdecay = float(np.max(np.abs(b / b[0] - np.exp(-gamma * direct.times))))
    passed = worst < 1e-8 and bres < 1e-6 and bdecay < 1e-6
    report(8, "contact-hamilton-jacobi", passed,
           f"grid residual={worst:.3g} (tol 1e-8), b'+gamma*b={bres:.3g} (tol 1e-6), "
           f"b/b0 vs e^-gt={bdecay:.3g} (tol 1e-6)")


def test_criterion_09_transformations():
    gamma = 0.1
    rng = np.random.default_rng(42)
    pts = rng.uniform([0.5, -1, -1, 0.0], [1.5, 1, 1, 9.5], size=(100, 4))
    erm = cm.solve_ermakov(1.0, gamma, 1.0, 0.0, np.linspace(0.0, 10.0, 101))
    worst_res, worst_f = 0.0, 0.0
    for cmap in (cm.map_ck(1.0, gamma), cm.map_expanding(1.0, gamma),
                 cm.map_invariants(1.0, gamma, erm)):
        rep = cm.verify(cmap, pts, tol=1e-8)
        worst_res = max(worst_res, rep.max_residual)
        f_exp = np.exp(gamma * pts[:, 3])
        worst_f = max(worst_f, float(np.max(np.abs(rep.f_values - f_exp))))
        assert rep.passed
    ident = cm.verify(cm.map_identity(1), pts)
    ident_exact = bool(np.all(ident.f_values == 1.0)) and ident.max_residual == 0.0
    planted = cm.ContactMap(
        n=1, forward=lambda t, y: np.array([y[0], y[1] ** 2, y[2]]),
        name="planted")
    planted_fails = not cm.verify(planted, pts, tol=1e-8).passed
    passed = worst_res < 1e-8 and worst_f < 1e-8 and ident_exact and planted_fails
    report(9, "transformation-verification", passed,
           f"max residual={worst_res:.3g} (tol 1e-8), f dev={worst_f:.3g} (tol 1e-8), "
           f"identity exact={ident_exact}, planted map fails={planted_fails}")


def test_criterion_10_conservative_limit():
    opts = cm.IntegratorOptions(method="fixed_rk4", step=1e-3, sample_interval=0.1)
    worst_drift, worst_div = 0.0, 0.0
    for model in (cm.make_linear_dissipation(1.0, 0.0, cm.parse_expression("q^2/2", "q")),
                  cm.make_damped_parametric(1.0, 0.0, 1.0),
                  cm.make_caldirola_kanai(1.0, 0.0, cm.parse_expression("q^2/2", "q"))):
        traj = cm.integrate(model, cm.make_state(1.0, 0.0, 0.0, 0.0), 10.0, opts)
        worst_drift = max(worst_drift,
                          float(np.max(np.abs(traj.H - traj.H[0])) / traj.H[0]))
        worst_div = max(worst_div, float(np.max(np.abs(traj.div))))
    # shared damped Newton equation: CK coordinates reproduce the contact q(t)
    tight = cm.IntegratorOptions(rel_tol=1e-10, abs_tol=1e-13, sample_interval=0.01)
    hs = cm.make_linear_dissipation(1.0, 0.1, cm.parse_expression("q^2/2", "q"))
    ck = cm.make_caldirola_kanai(1.0, 0.1, cm.parse_expression("q^2/2", "q"))
    x0 = cm.make_state(1.0, 0.0, 0.0, 0.0)
    q_err = float(np.max(np.abs(cm.integrate(hs, x0, 10.0, tight).q
                                - cm.integrate(ck, x0, 10.0, tight).q)))
    passed = worst_drift < 1e-8 and worst_div == 0.0 and q_err < 1e-6
    report(10, "conservative-limit", passed,
           f"H drift={worst_drift:.3g} (tol 1e-8, 1e4 RK4 steps), max|div|={worst_div}, "
           f"CK-vs-contact q error={q_err:.3g} (tol 1e-6)")


def test_criterion_11_quadratic_invariant_closure():
    m = 1.0
    omega = cm.parse_expression("1 + 0.1*sin(0.3*t)", "t")
    h = 1e-4
    worst = 0.0
    for gamma in (0.0, 0.1, 0.5):
        erm = cm.solve_ermakov(omega, gamma, 1.0, 0.0, np.linspace(0.0, 5.0, 51))
        for zeta0 in (0.0, 1.0, 2.0):
            co = lambda t: np.array(cm.quadratic_invariant_coefficients(
                m, gamma, zeta0, erm, t))
            for t in np.linspace(0.05, 4.95, 25):
                beta, eta, xi, zeta = co(t)
                d = (co(t + h) - co(t - h)) / (2 * h)
                w2 = omega(t) ** 2
                resid = np.array([
                    d[0] - (2 * xi / m + 2 * gamma * beta - zeta / (2 * m)),
                    d[1] - (-2 * m * w2 * xi + 0.5 * m * w2 * zeta),
                    d[2] - (eta / m + gamma * xi - m * w2 * beta),
                    d[3] - gamma * zeta,
                ])
                worst = max(worst, float(np.max(np.abs(resid))))
    report(11, "quadratic-invariant-closure", worst < 1e-6,
           f"max ODE residual={worst:.3g} (tol 1e-6, gamma in {{0,0.1,0.5}}, "
           f"zeta0 in {{0,1,2}})")


def test_criterion_12_cli_regression_set(tmp_path):
    scenarios = sorted(f for f in os.listdir(SCENARIO_DIR) if f.endswith(".ini"))
    assert scenarios, "shipped scenario set missing"
    t0 = time.perf_counter()
    stable = True
    for name in scenarios:
        path = os.path.join(SCENARIO_DIR, name)
        out_a = str(tmp_path / "a" / name)
        out_b = str(tmp_path / "b" / name)
        assert cli.main(["run", path, "--out", out_a]) == 0, name
        assert cli.main(["run", path, "--out", out_b]) == 0, name
        for root, _dirs, files in os.walk(out_a):
            rel = os.path.relpath(root, out_a)
            for f in files:
                b1 = Path(root, f).read_bytes()
                b2 = Path(out_b, rel, f).read_bytes()
                stable = stable and (b1 == b2)
    elapsed = time.perf_counter() - t0
    report(12, "cli-regression-set", stable and elapsed < 30.0,
           f"{len(scenarios)} scenarios x2 runs, byte-stable={stable}, "
           f"total={elapsed:.1f}s (< 30s)")
