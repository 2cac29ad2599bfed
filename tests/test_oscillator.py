"""Oscillator oracles: Ermakov, invariants, closed-form motion, Riccati, HJ route."""

import contextlib
import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import contactmech as cm
from contactmech import cli, diagnostics, oscillator, scenario
from contactmech.errors import DimensionMismatchError, RiccatiPoleError
from contactmech.dynamics import _integrate_flat
from contactmech.oscillator import CubicHermite

from conftest import four_places, random_rows

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


@pytest.mark.parametrize("t_end", [6.0, 10.0])
def test_the_ermakov_residual_of_a_fast_modulation_is_far_under_its_gate(t_end):
    """omega = 1.947 + 0.31 sin(1.996 t + 2.909), gamma = 0.427, solved as the
    invariants check solves it: the residual's central difference of the
    alpha' interpolant keeps its truncation error, h^2 times the cubic's
    leading coefficient, well under the 1e-7 gate (with h = 1e-4 it read
    1.2e-7 on [0, 6] and 2.2e-7 on [0, 10])."""
    omega, gamma = cm.parse_expression("1.947 + 0.31*sin(1.996*t + 2.909)", "t"), 0.427
    grid = np.linspace(0.0, t_end, round(t_end / 0.1) + 1)
    erm = cm.solve_ermakov(omega, gamma, *oscillator.ermakov_start(omega, gamma, 0.0), grid)
    assert np.max(np.abs(erm.residual(grid[1:-1]))) < 1e-8


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


@pytest.mark.parametrize("solve, message", [
    pytest.param(lambda: cm.solve_ermakov(1.0, 0.1, 1.0, 0.0, [0.0, math.nan, 1.0]),
                 "grid must be finite: got nan", id="ermakov-grid-nan"),
    pytest.param(lambda: cm.solve_ermakov(1.0, 0.1, 1.0, 0.0, [0.0, 1.0, math.inf]),
                 "grid must be finite: got inf", id="ermakov-grid-inf"),
    pytest.param(lambda: cm.solve_riccati(1.0, 0.1, 0.2, [-math.inf, 1.0]),
                 "grid must be finite: got -inf", id="riccati-grid"),
    pytest.param(lambda: cm.riccati_sensitivity(1.0, 0.1, 0.2, [0.0, math.nan]),
                 "grid must be finite: got nan", id="sensitivity-grid"),
    pytest.param(lambda: cm.solve_ermakov(1.0, 0.1, math.nan, 0.0, GRID),
                 "alpha0 must be finite: got nan", id="alpha0-nan"),
    pytest.param(lambda: cm.solve_ermakov(1.0, 0.1, math.inf, 0.0, GRID),
                 "alpha0 must be finite: got inf", id="alpha0-inf"),
    pytest.param(lambda: cm.solve_ermakov(1.0, 0.1, 1.0, np.float64(math.nan), GRID),
                 "alpha_dot0 must be finite: got nan", id="alpha_dot0"),
    pytest.param(lambda: cm.solve_riccati(1.0, 0.1, math.nan, GRID),
                 "C0 must be finite: got nan", id="riccati-C0"),
    pytest.param(lambda: cm.riccati_sensitivity(1.0, 0.1, -math.inf, GRID),
                 "C0 must be finite: got -inf", id="sensitivity-C0"),
])
def test_the_solvers_refuse_non_finite_input_by_name(solve, message):
    """A NaN or infinite grid node or start is a ValueError naming the
    argument, not the integrator's error at the first step or an
    OverflowError from the node count."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve()


@pytest.mark.parametrize("solve", [
    pytest.param(lambda grid: cm.solve_ermakov(1.0, 0.1, 1.0, 0.0, grid), id="ermakov"),
    pytest.param(lambda grid: cm.solve_riccati(1.0, 0.1, 0.2, grid), id="riccati"),
])
def test_the_solvers_refuse_a_span_with_too_many_nodes_by_name(solve):
    """A span needing more than MAX_NODES interpolation nodes is a ValueError
    naming it, raised before the nodes are allocated (numpy's own error for
    [0, 1e300] was a bare 'Maximum allowed size exceeded')."""
    with pytest.raises(ValueError, match=re.escape("the span [0.0, 1e+300] needs more than "
                                                   f"{oscillator.MAX_NODES} interpolation")):
        solve([0.0, 1e300])


def test_the_interpolant_slopes_are_the_solved_right_hand_side_bit_for_bit(monkeypatch):
    """At every node but the last, each interpolant's slope is the right-hand
    side its solve integrated, at that node's sample, bit for bit: u1', u1'',
    u2' and u2'' of the Ermakov pair, and of the Riccati solve lambda'
    and lambda'' less sigma' times lambda and lambda', all scaled by
    e^{-sigma}, and sigma'.  At those nodes C is lambda'/lambda of the solved
    pair, and dC/dC0 is e^{-gamma t - 2 sigma} / (lambda lambda), with the
    exponential by `math.exp`.  For omega = 1.4437, w ** 2 (libm's pow) is
    not w * w."""
    solves = []

    def spy(rhs, *args, **kwargs):
        ys = _integrate_flat(rhs, *args, **kwargs)
        solves.append(np.array([rhs(t, y) for t, y in zip(nodes[:-1], ys[:-1])], dtype=float))
        return ys

    monkeypatch.setattr(oscillator, "_integrate_flat", spy)
    grid = np.linspace(0.0, 1.0, 5)
    nodes = oscillator._internal_nodes(grid)
    erm = cm.solve_ermakov(1.4437, 0.2, 1.0, 0.0, grid)
    ric = cm.solve_riccati(1.4437, 0.2, 0.3, grid)
    for solved, slopes in zip(solves, [erm._curve.c[2], ric._curve.c[2]]):
        for k, slope in enumerate(slopes):
            assert slope.tobytes() == solved[:, k].tobytes()
    lam, lam_dot, sigma = ric._curve.c[3]  # the solved values at nodes[:-1]
    assert ric.C(nodes[:-1]).tobytes() == (lam_dot / lam).tobytes()
    e = np.array([math.exp(-0.2 * t - 2.0 * x)
                  for t, x in zip(nodes[:-1].tolist(), sigma.tolist())])
    assert ric.dC_dC0(nodes[:-1]).tobytes() == (e / (lam * lam)).tobytes()


def test_dense_lookups_reject_nan_times():
    """NaN and out-of-range times, floats, np.float64 or in arrays, are refused
    by every lookup with one message naming the first of them."""
    erm = cm.solve_ermakov(1.0, 0.1, 1.0, 0.0, GRID)
    ric = cm.solve_riccati(0.0, 0.1, 0.2, GRID)
    for lookup in (erm.alpha, erm.alpha_dot, erm.alpha_ddot, erm.phase, erm.residual,
                   ric.C, ric.lam, ric.lam_dot, ric.C_dot, ric.dC_dC0):
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
    an np.float64, give the array path's element bit for bit as an np.float64,
    and a NaN gives its NaN."""
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.uniform(0.01, 1.0, 40))
    ours = CubicHermite(x, rng.normal(size=40) * 10.0, rng.normal(size=40) * 10.0)
    t = np.concatenate([rng.uniform(x[0], x[-1], 500), x,
                        [x[0] - 1e-12, x[-1] + 1e-12, x[0] - 0.5, x[-1] + 0.5]])
    for s, expected in zip(t.tolist(), ours(t).tolist()):
        value, value64 = ours(s), ours(np.float64(s))
        assert isinstance(value, np.float64) and isinstance(value64, np.float64)
        assert _bits(value) == _bits(expected) == _bits(value64)
    assert math.isnan(ours(math.nan)) and np.isnan(ours(np.array([math.nan]))[0])
    one_interval = CubicHermite([0.0, 1.0], [1.0, 2.0], [0.0, 0.0])
    assert one_interval(0.25) == one_interval(np.array([0.25]))[0]


def test_a_stacked_interpolant_is_its_rows_bit_for_bit():
    """Values and slopes stacked on a leading axis give, row by row, the bits
    of one interpolant per row, for an array of times and for one time."""
    rng = np.random.default_rng(11)
    x = np.cumsum(rng.uniform(0.01, 1.0, 30))
    y, dydx = rng.normal(size=(4, 30)) * 10.0, rng.normal(size=(4, 30)) * 10.0
    stacked = CubicHermite(x, y, dydx)
    t = np.concatenate([rng.uniform(x[0] - 0.5, x[-1] + 0.5, 200), x]).reshape(23, 10)
    for k in range(4):
        row = CubicHermite(x, y[k], dydx[k])
        assert stacked(t)[k].tobytes() == row(t).tobytes()
        assert stacked(t[3, 4])[k] == row(t[3, 4])
    assert stacked(t).shape == (4, 23, 10) and stacked(1.5).shape == (4,)


@pytest.mark.parametrize("omega", ["1", "1 + 0.2*sin(0.7*t)"])
def test_dense_float_lookups_are_the_array_lookups_bit_for_bit(omega):
    """Every accessor of both dense solutions answers a float t with an
    np.float64, the element the array path gives at t, at the nodes, inside
    the intervals and at both widened ends, for floats and np.float64 alike.  alpha_ddot and the
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
            assert isinstance(value, np.float64)
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


def _run(text):
    """(model, trajectory) of a scenario text."""
    config = scenario.parse_scenario(text)
    model = scenario.build_model(config)
    return model, cm.integrate(model, cm.make_state(config.q0, config.p0, config.S0,
                                                    config.t0), config.t_end, config.options)


def _scenario_run(name):
    return _run((ROOT / "scenarios" / f"{name}.ini").read_text())


def _oscillator_text(m, gamma, omega, q, p, S, interval, t_end):
    """A damped_parametric scenario that checks `invariants` and
    `transform_verify:invariants`, at rel_tol 1e-10 and abs_tol 1e-13."""
    return f"""\
[model]
kind = damped_parametric
m = {m}
gamma = {gamma}
omega = {omega}

[initial]
q = {q}
p = {p}
S = {S}

[integration]
rel_tol = 1e-10
abs_tol = 1e-13
sample_interval = {interval}
t_end = {t_end}

[diagnostics]
checks = invariants, transform_verify:invariants
"""


def test_the_invariants_chart_and_the_hj_grid_look_up_their_blocks_once(monkeypatch):
    """The invariants chart's verification of 100 rows looks up the dense
    solutions on all its times at once: alpha and alpha' in ``forward``, and
    alpha, alpha' and alpha'' in ``jacobian``, each from one lookup of the
    stacked u1, u1', u2 and u2'.  The contact HJ residual's grid
    looks them up on the (50, 1) column of its times: the stacked lambda,
    lambda' and sigma, for C = lambda'/lambda, once each in S, dS/dq and
    dS/dt."""
    model, traj = _scenario_run("parametric_oscillator")
    erm = diagnostics._ermakov_for(model, traj, {})
    cmap = cm.map_invariants(model.params["m"], model.params["gamma"], erm)
    free_model, free_traj = _scenario_run("damped_free_particle")
    shapes = []
    lookup = CubicHermite.__call__

    def counted(self, t):
        shapes.append(np.shape(t))
        return lookup(self, t)

    monkeypatch.setattr(CubicHermite, "__call__", counted)
    assert cm.verify(cmap, random_rows(100, t_range=erm.t_range)).passed
    assert shapes == [(100,)] * 5
    del shapes[:]
    observed = diagnostics.check_hj_residual(free_model, free_traj, {})["observed"]
    assert observed < diagnostics.CHECKS["hj_residual"].threshold
    assert shapes == [(50, 1)] * 3


@pytest.mark.parametrize("omega, gamma", [(1.0, 0.1), (2.0, 0.0), (1.3, 0.6)])
def test_the_start_is_the_stationary_solution_for_constant_omega(omega, gamma):
    """With omega and gamma constant the adiabatic start is the equation's
    stationary solution alpha = (omega^2 - gamma^2/4)^(-1/4), which the
    `invariants` check's solve then keeps, with alpha' at 0."""
    model = cm.make_damped_parametric(1.0, gamma, omega)
    traj = cm.integrate(model, cm.make_state(1.0, 0.0, 0.3, 0.0), 10.0,
                        cm.IntegratorOptions(sample_interval=0.05))
    erm = diagnostics._ermakov_for(model, traj, {})
    ts = np.linspace(0.0, 10.0, 401)
    a_star = (omega * omega - 0.25 * gamma * gamma) ** -0.25
    alpha0, alpha_dot0 = oscillator.ermakov_start(omega, gamma, 0.0)
    assert alpha0 == pytest.approx(a_star, rel=1e-15) and alpha_dot0 == 0.0
    assert np.max(np.abs(erm.alpha(ts) - a_star)) < 1e-10
    assert np.max(np.abs(erm.alpha_dot(ts))) < 1e-10


def _unit_start_ermakov_for(model, traj, cache):
    """`diagnostics._ermakov_for` with the start alpha(t0) = 1, alpha'(t0) = 0."""
    if "erm" not in cache:
        cache["erm"] = oscillator.solve_ermakov(
            model.params["omega"], model.params["gamma"], 1.0, 0.0, traj.times)
    return cache["erm"]


@pytest.mark.parametrize("name, key, edit, ratio", [
    ("damped_free_particle", "checks", "invariants", None),           # Omega^2 < 0
    ("parametric_oscillator", "omega", "0.1 + 0.3*sin(t)", 46.188),   # |Omega'|/Omega^2
])
def test_the_fallback_start_writes_the_unit_start_report(name, key, edit, ratio, tmp_path,
                                                         monkeypatch, capsys):
    """Where the adiabatic branch does not apply the start stays (1, 0), and
    the report is byte for byte the one of a solve started at alpha = 1, alpha' = 0."""
    text = (ROOT / "scenarios" / f"{name}.ini").read_text()
    lines = [f"{key} = {edit}" if line.startswith(f"{key} = ") else line
             for line in text.splitlines()]
    path = tmp_path / "edited.ini"
    path.write_text("\n".join(lines) + "\n")
    config = scenario.parse_scenario(path.read_text())
    omega, gamma = scenario.build_model(config).params["omega"], config.gamma
    w, dw = omega(0.0), omega.derivative(0.0)
    big2 = w * w - 0.25 * gamma * gamma
    if ratio is None:
        assert big2 < 0
    else:
        assert abs(w * dw) / big2 ** 1.5 == pytest.approx(ratio, rel=1e-4)
    assert oscillator.ermakov_start(omega, gamma, 0.0) == (1.0, 0.0)
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "new")]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(diagnostics, "_ermakov_for", _unit_start_ermakov_for)
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "unit")]) == 0
    assert (tmp_path / "new" / "report.txt").read_bytes() == \
        (tmp_path / "unit" / "report.txt").read_bytes()


def test_the_adiabatic_start_swings_less_than_the_unit_start():
    """Near parametric resonance alpha dips toward 0, where the residual is
    largest; from the adiabatic start it swings less than from alpha = 1,
    alpha' = 0 (max/min 51 against 84 on the nodes), and `invariants` passes."""
    model, traj = _run(_oscillator_text(0.7973, 0, "1.3685*(1 + 0.2423*cos(2.4990*t))^2",
                                        1.4075, 0.1949, 0.3972, 0.01, 7.7976))
    nodes = oscillator._internal_nodes(traj.times)
    started = diagnostics._ermakov_for(model, traj, {}).alpha(nodes)
    unit = _unit_start_ermakov_for(model, traj, {}).alpha(nodes)
    assert started.max() / started.min() < 0.7 * unit.max() / unit.min()
    [result] = diagnostics.run_checks(["invariants"], model, traj, 0)
    assert result["passed"], result


# omega near twice itself, parametric resonance: with alpha from the nonlinear
# Ermakov solve, its cubic alpha' read ermakov_residual 4.1e-7 here and exited 1
RESONANCE = (0.7484, 0, "0.9844*(1 + 0.2784*cos(1.8729*t))^2", -0.6733, -0.4962, 0.1259,
             0.05, 4.9922)


def test_the_resonance_example_passes_invariants():
    model, traj = _run(_oscillator_text(*RESONANCE))
    [result] = diagnostics.run_checks(["invariants"], model, traj, 0)
    assert result["passed"] and result["extra"]["ermakov_residual"] < 1e-8, result


@st.composite
def _oscillators(draw):
    """The arguments of `_oscillator_text`, each number to 4 places."""
    w, b, c = draw(four_places(0.5, 2.0)), draw(four_places(0.0, 0.3)), \
        draw(four_places(0.1, 2.5))
    omega = draw(st.sampled_from([f"{w}", f"{w} + {b}*sin({c}*t)", f"{w}*(1 + {b}*cos({c}*t))^2"]))
    return (draw(four_places(0.5, 2.0)), draw(st.just(0) | four_places(0.02, 0.6)), omega,
            draw(st.sampled_from([-1, 1])) * draw(four_places(0.4, 1.5)),
            draw(four_places(-0.8, 0.8)), draw(four_places(-0.5, 0.5)),
            draw(st.sampled_from([0.01, 0.02, 0.05])), draw(four_places(1.0, 10.0)))


# With alpha from the nonlinear Ermakov solve the examples after RESONANCE read
# ermakov_residual 1e-4, 2.6e-5, 0.025, 1.7e-6, 2.2e-7, 0.12, 1.5e-3 and 2.7.  The
# last three dip to alpha = 0.096, 0.17 and 0.067: a step of 1e-5 read 1.1e-7 on the
# first and last, the first with t +- h as rounded.  The last two start at G0 = 0,
# where the flow at rel_tol 1e-10 drifts G by 1.1e-6 and 1.4e-6 of its floor 0.01 I0
@given(_oscillators())
@example(RESONANCE)
@example((1.2830, 0.5771, "0.9344*(1 + 0.2298*cos(1.7901*t))^2", 0.5212, -0.7569, -0.1158,
          0.02, 7.7176))
@example((0.7171, 0.3130, "1.9533*(1 + 0.2436*cos(1.9964*t))^2", 0.5722, 0.6610, -0.0665,
          0.01, 6.2448))
@example((1.1316, 0.3437, "1.3833*(1 + 0.2402*cos(2.4205*t))^2", -1.0273, -0.0456, 0.3383,
          0.05, 9.9635))
@example((0.8432, 0, "1.1369*(1 + 0.2900*cos(1.9449*t))^2", -1.2939, 0.0306, 0.4266,
          0.02, 6.5163))
@example((1, 0, "(1 + 0.25*cos(2*t))^2", -1, 0, 0, 0.01, 4))
@example((0.7685, 0.2256, "1.262*(1 + 0.2454*cos(2.3285*t))^2", 0.8737, -0.6275, -0.2143,
          0.05, 9.0156))
@example((1.0, 0, "1.125*(1 + 0.2812*cos(2.0*t))^2", -1.0, 0.0, 0.0, 0.01, 7.0))
@example((1.0, 0, "1.2344*(1 + 0.2812*cos(2.5*t))^2", -1.0, 0.0, 0.0, 0.01, 8.0))
@settings(deadline=None)
def test_every_drawn_oscillator_verdict_is_a_pass(values):
    """Drawn damped parametric oscillators, with constant, sine and resonant
    squared-cosine omega: `invariants` and `transform_verify:invariants` both
    pass, on the flow at rel_tol 1e-10 or, where that flow is not accurate
    enough for them, on the flow integrated again at rel_tol 1e-12.  At G0 = 0
    G's drift is taken against 0.01 I0, which the flow at 1e-10 can miss near
    resonance.  The Ermakov solve reads only the sample times, the same at
    both tolerances, so a false verdict of alpha's fails either way.  The
    example count is the hypothesis profile's (tests/conftest.py): 25 by
    default, 2,000 under `fuzz`."""
    checks, text = ["invariants", "transform_verify:invariants"], _oscillator_text(*values)
    results = diagnostics.run_checks(checks, *_run(text), 0)
    if not all(r["passed"] for r in results):
        tight = text.replace("rel_tol = 1e-10\nabs_tol = 1e-13",
                             "rel_tol = 1e-12\nabs_tol = 1e-15")
        results = diagnostics.run_checks(checks, *_run(tight), 0)
    assert all(r["passed"] for r in results), (values, results)


def test_an_ermakov_solve_on_a_wrong_omega_fails_the_lewis_drift(monkeypatch):
    """alpha solved on sqrt(omega^2 + 1e-5) in place of omega: on
    `parametric_oscillator.ini` the Lewis invariant then drifts by about 1e-5,
    past the check's 1e-6, so the check sees a wrong alpha."""
    model, traj = _scenario_run("parametric_oscillator")
    gamma = model.params["gamma"]
    wrong = cm.parse_expression(f"sqrt(({model.params['omega'].text})^2 + 1e-5)", "t")

    def wrong_ermakov_for(model, traj, cache):
        start = oscillator.ermakov_start(wrong, gamma, float(traj.times[0]))
        return oscillator.solve_ermakov(wrong, gamma, *start, traj.times)

    monkeypatch.setattr(diagnostics, "_ermakov_for", wrong_ermakov_for)
    [result] = diagnostics.run_checks(["invariants"], model, traj, 0)
    assert result["observed"] > diagnostics.CHECKS["invariants"].threshold


def test_every_invariants_entry_of_the_benchmark_has_a_small_ermakov_residual(monkeypatch):
    """Each entry of the benchmark's `invariants` workload (seeds 5 and 11) that
    runs the `invariants` check reads an Ermakov residual of at most 1e-8."""
    monkeypatch.syspath_prepend(str(ROOT))
    generate = importlib.import_module("perfbench.generate")
    residuals = []
    for seed in (5, 11):
        for entry in generate.invariants(seed):
            if "invariants" not in entry.checks:
                continue
            model, traj = _run(entry.text)
            [result] = diagnostics.run_checks(["invariants"], model, traj, entry.seed)
            residuals.append(result["extra"]["ermakov_residual"])
    assert len(residuals) == 24
    assert max(residuals) <= 1e-8


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
    both = oscillator.invariants(1.0, 0.1, ermakov_const, times, rows)
    assert [x.tobytes() for x in both] == [I.tobytes(), G.tobytes()]


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


def test_check_invariants_builds_no_state(built_states, monkeypatch):
    """check_invariants builds no state object, and takes e^{gamma t} at each
    sample once, for I and G together."""
    config = scenario.parse_scenario(
        "[model]\nkind = damped_parametric\nm = 1\ngamma = 0.1\n"
        "omega = 1 + 0.1*sin(0.3*t)\n[initial]\nq = 1\np = 0\nS = 0.3\n"
        "[integration]\nt_end = 5\nsample_interval = 0.02\n"
        "[diagnostics]\nchecks = invariants\n")
    model = scenario.build_model(config)
    traj = cm.integrate(model, cm.make_state(config.q0, config.p0, config.S0, config.t0),
                        config.t_end, config.options)
    del built_states[:]
    unpack, unpacked = oscillator._unpack, []

    def counted(gamma, t, y):
        unpacked.append(np.shape(t))
        return unpack(gamma, t, y)

    monkeypatch.setattr(oscillator, "_unpack", counted)
    result = diagnostics.check_invariants(model, traj, {})
    assert unpacked == [(251,)]
    row = diagnostics.CHECKS["invariants"]
    assert result["observed"] < row.threshold
    assert all(result["extra"][key] < bound for key, bound in row.gates)
    assert len(result["columns"]["I"]) == len(traj) == 251
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


def _underdamped_closed_form(omega, gamma, C0, ts):
    """(C, lambda) of the constant-omega underdamped oscillator: lambda =
    e^{-g t/2} [cos wd t + ((C0 + g/2)/wd) sin wd t] and C = lambda'/lambda."""
    wd = math.sqrt(omega ** 2 - gamma ** 2 / 4)
    k = (C0 + gamma / 2) / wd
    c, s = np.cos(wd * ts), np.sin(wd * ts)
    return -gamma / 2 + wd * (k * c - s) / (c + k * s), np.exp(-gamma * ts / 2) * (c + k * s)


def _overdamped_closed_form(omega, gamma, C0, ts):
    """C = lambda'/lambda for lambda = A e^{r1 t} + B e^{r2 t}, r1 > r2 the roots
    of r^2 + gamma r + omega^2, as (r1 + r2 x) / (1 + x) with x = (B/A) e^{(r2 - r1) t},
    which neither underflows nor overflows."""
    d = math.sqrt(gamma ** 2 / 4 - omega ** 2)
    r1, r2 = -gamma / 2 + d, -gamma / 2 - d
    A = (C0 - r2) / (r1 - r2)
    x = (1.0 - A) / A * np.exp((r2 - r1) * ts)
    return (r1 + r2 * x) / (1.0 + x)


def test_riccati_newton_link():
    """C and lambda match the closed form of the damped Newton equation for
    constant omega, which does not share the solve's C = lambda'/lambda: C to
    2e-11 of max(|C|, 1) and lambda to 1e-9 relative, the cubic interpolant's
    error at 0.01 node spacing, where |lambda| > 0.1 keeps clear of the pole."""
    for omega, gamma, C0, t_end in [(1.0, 0.1, 0.0, 1.5), (2.0, 0.3, 0.7, 0.95),
                                    (3.0, 0.5, -1.0, 0.4)]:
        ts = np.linspace(0.0, t_end, 301)
        C, lam = _underdamped_closed_form(omega, gamma, C0, ts)
        ric = cm.solve_riccati(omega, gamma, C0, np.linspace(0.0, t_end, 31))
        mask = np.abs(lam) > 0.1
        assert np.max(np.abs(ric.C(ts) - C)[mask] / np.maximum(np.abs(C[mask]), 1.0)) < 2e-11
        assert_allclose(ric.lam(ts)[mask], lam[mask], rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("C0, t_end", [(0.0, 100.0), (-0.2, 100.0), (0.0, 2000.0)])
def test_an_overdamped_riccati_solution_settles_on_its_slow_root(C0, t_end):
    """At gamma = 3, omega = 1, lambda decays like e^{-0.38 t} and underflows
    near t = 2000, but C = lambda'/lambda settles on the slower root r1 of
    r^2 + 3 r + 1: no pole is reported, and C keeps to the closed form at
    5e-11 relative.  Solving lambda unscaled, the fast mode held at the
    absolute tolerance sent C to the faster root or to a false pole."""
    ts = np.linspace(0.0, t_end, 1001)
    ric = cm.solve_riccati(1.0, 3.0, C0, np.linspace(0.0, t_end, 101))
    assert_allclose(ric.C(ts), _overdamped_closed_form(1.0, 3.0, C0, ts), rtol=5e-11, atol=1e-15)
    assert np.all(ric.dC_dC0(ts) >= 0.0)


def test_riccati_pole_detection():
    """A pole is the first zero of lambda, located to 1e-9 of its closed form,
    and the error names it: on the oscillator, lambda = e^{-gt/2} [cos wd t +
    (g/2 wd) sin wd t] first vanishes at wd t = pi - atan(2 wd/g); on the free
    particle, lambda = 1 + C0 (1 - e^{-g t}) / g where e^{-g t} = 1 + g/C0."""
    wd = math.sqrt(1.0 - 0.1 ** 2 / 4)
    for omega, C0, pole in [(1.0, 0.0, (math.pi - math.atan(2 * wd / 0.1)) / wd),
                            (0.0, -0.5, -math.log(1.0 + 0.1 / -0.5) / 0.1)]:
        with pytest.raises(RiccatiPoleError) as err:
            cm.solve_riccati(omega, 0.1, C0, GRID)
        assert abs(err.value.last_time - pole) < 1e-9
        assert str(err.value) == \
            f"Riccati solution has a pole at t={pole:.6g}, where lambda = 0"


@pytest.mark.parametrize("C0", [0.05, 0.2, 1.0, 10.0, 1e4, 1e8])
def test_riccati_matches_closed_form_relative_to_2e_11(C0):
    """C = lambda'/lambda of the linear solve tracks the damped free particle's
    closed form to 2e-11 relative however steep C is at the start."""
    ric = cm.solve_riccati(0.0, 0.1, C0, GRID)
    ts = np.linspace(0.0, 10.0, 401)
    assert_allclose(ric.C(ts), cm.riccati_free_particle(0.1, C0, ts), rtol=2e-11, atol=0.0)


@pytest.mark.parametrize("C0", [1e4, -0.5])
def test_a_steep_riccati_start_or_a_pole_takes_few_steps(monkeypatch, C0):
    """The solve's steps follow lambda, which is smooth where C is steep or
    runs into a pole: fewer than 500 right-hand-side calls each."""
    calls = []

    def spy(rhs, *args, **kwargs):
        def counted(t, y):
            calls.append(t)
            return rhs(t, y)
        return _integrate_flat(counted, *args, **kwargs)

    monkeypatch.setattr(oscillator, "_integrate_flat", spy)
    with pytest.raises(RiccatiPoleError) if C0 < 0 else contextlib.nullcontext():
        cm.solve_riccati(0.0, 0.1, C0, np.linspace(0.0, 5.0, 51))
    assert 0 < len(calls) < 500


@pytest.mark.parametrize("omega", [1.0, "1.2345 + 0.2345*sin(0.5678*t)"],
                         ids=["constant", "omega(t)"])
def test_an_ermakov_solve_takes_few_steps(monkeypatch, omega):
    """The Ermakov pair's Dormand-Prince 8(5,3) solve from `ermakov_start`
    at gamma = 0.1 over [0, 5]: fewer than 600 right-hand-side calls each
    (269 for omega = 1 and 404 for omega(t), where 5(4) took 986 and 1352)."""
    calls = []

    def spy(rhs, *args, **kwargs):
        def counted(t, y):
            calls.append(t)
            return rhs(t, y)
        return _integrate_flat(counted, *args, **kwargs)

    monkeypatch.setattr(oscillator, "_integrate_flat", spy)
    w = cm.parse_expression(omega, "t") if isinstance(omega, str) else omega
    cm.solve_ermakov(w, 0.1, *oscillator.ermakov_start(w, 0.1, 0.0), np.linspace(0.0, 5.0, 501))
    assert 0 < len(calls) < 600


def test_a_riccati_solve_takes_few_steps(monkeypatch):
    """The Riccati solve's Dormand-Prince 8(5,3) steps at RICCATI_OPTIONS from
    C0 = 0.2 at omega = 0, gamma = 0.1 over [0, 10]: fewer than 200
    right-hand-side calls (152, where 5(4) at rel_tol 1e-11 took 254)."""
    calls = []

    def spy(rhs, *args, **kwargs):
        def counted(t, y):
            calls.append(t)
            return rhs(t, y)
        return _integrate_flat(counted, *args, **kwargs)

    monkeypatch.setattr(oscillator, "_integrate_flat", spy)
    cm.solve_riccati(0.0, 0.1, 0.2, GRID)
    assert 0 < len(calls) < 200


def test_riccati_sensitivity_pole_detection():
    """The sensitivity is the base solve's, so it stops at that solve's pole."""
    with pytest.raises(RiccatiPoleError) as base:
        cm.solve_riccati(1.0, 0.1, 0.0, GRID)
    with pytest.raises(RiccatiPoleError) as err:
        cm.riccati_sensitivity(1.0, 0.1, 0.0, GRID)
    assert err.value.last_time == base.value.last_time


def test_riccati_sensitivity_free_particle_closed_form():
    """dC/dC0 of the damped free particle is E / (C0^2 D^2), the C0-derivative
    of C = E / D with E = e^{-gamma t} and D = 1/C0 + (1 - E)/gamma."""
    gamma, C0 = 0.1, 0.2
    ts = np.linspace(0.0, 10.0, 401)
    got = cm.riccati_sensitivity(0.0, gamma, C0, GRID)(ts)
    E = np.exp(-gamma * ts)
    D = 1.0 / C0 + (1.0 - E) / gamma
    assert_allclose(got, E / (C0 ** 2 * D ** 2), rtol=1e-11, atol=0.0)


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


def test_trajectory_from_hj_free_particle_closed_form(monkeypatch):
    """q(t) from the solve it is handed, which it does not repeat."""
    gamma, m, b0, C0 = 0.1, 1.0, 0.5, 0.2
    grid = np.linspace(0.0, 10.0, 101)
    ric = cm.solve_riccati(0.0, gamma, C0, grid)

    def solve(*args, **kwargs):
        raise AssertionError("trajectory_from_hj started a solve")

    monkeypatch.setattr(oscillator, "_integrate_flat", solve)
    ts = np.linspace(0.0, 10.0, 41)
    got = cm.trajectory_from_hj(m, gamma, b0, C0, ric, ts)
    q0 = math.sqrt(2 * b0 / m)
    closed = q0 * (1.0 + (C0 / gamma) * (1.0 - np.exp(-gamma * ts)))
    assert np.max(np.abs(got - closed)) < 1e-10


@pytest.mark.parametrize("t", [2.5, 50.0])
def test_the_hj_route_refuses_a_time_outside_the_solved_range(t):
    """Past the end of a solve over [0, 2], dC/dC0 and the recovered q are
    refused with the message of C's own lookup, not extrapolated."""
    grid = np.linspace(0.0, 2.0, 21)
    ric = cm.solve_riccati(0.0, 0.1, 0.2, grid)
    message = "^" + re.escape(f"t={t!r} is outside the solved range [0.0, 2.0]") + "$"
    for lookup in (cm.riccati_sensitivity(0.0, 0.1, 0.2, grid),
                   lambda t: cm.trajectory_from_hj(1.0, 0.1, 0.5, 0.2, ric, t)):
        with pytest.raises(ValueError, match=message):
            lookup(t)


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


def test_quadratic_invariant_coefficients_take_exp_and_powers_per_element():
    """The array result is, bit for bit, the same coefficients with e^{gamma t}
    by `math.exp` and alpha^-2 by the C library's pow, one time at a time."""
    m, gamma, zeta0 = 1.3, 0.2, 0.7
    erm = cm.solve_ermakov(cm.parse_expression("1 + 0.2*sin(0.7*t)", "t"), gamma, 1.0, 0.0,
                           GRID)
    ts = np.random.default_rng(3).uniform(0.0, 10.0, 5000)
    got = cm.quadratic_invariant_coefficients(m, gamma, zeta0, erm, ts)
    expected = []
    for t, a, ad in zip(ts.tolist(), erm.alpha(ts).tolist(), erm.alpha_dot(ts).tolist()):
        e, u = math.exp(gamma * t), ad - 0.5 * gamma * a
        expected.append((e * a * a / (2.0 * m), e * 0.5 * m * (u * u + a ** -2.0),
                         e * (0.5 * a * u + 0.25 * zeta0), zeta0 * e))
    for column, want in zip(got, zip(*expected)):
        assert column.tobytes() == np.array(want).tobytes()


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
