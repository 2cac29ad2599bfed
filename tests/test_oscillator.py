"""Oscillator oracles: Ermakov, invariants, closed-form motion, Riccati, HJ route."""

import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import contactmech as cm
from contactmech import cli, diagnostics, oscillator, scenario
from contactmech.errors import DimensionMismatchError, ErmakovCollapseError, RiccatiPoleError
from contactmech.dynamics import _integrate_flat
from contactmech.model import FD_STEP
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
    side its solve integrated, at that node's sample, bit for bit: alpha',
    alpha'' and phi' of the Ermakov solve, C', lambda' and lambda'' of the
    Riccati solve, and the sensitivity's slope, the difference of its pair's
    C' over 2 delta.  For omega = 1.4437, w ** 2 (libm's pow) is not w * w."""
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
    sens = cm.riccati_sensitivity(1.4437, 0.2, 0.3, grid)
    for solved, interpolants in zip(solves, [(erm._alpha, erm._alpha_dot, erm._phase),
                                             (ric._C, ric._lam, ric._lam_dot)]):
        for k, interpolant in enumerate(interpolants):
            assert interpolant.c[2].tobytes() == solved[:, k].tobytes()
    delta = FD_STEP  # FD_STEP * max(1, |C0|)
    assert sens.c[2].tobytes() == ((solves[2][:, 0] - solves[2][:, 1]) / (2.0 * delta)).tobytes()


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


def _scenario_run(name):
    config = scenario.parse_scenario((ROOT / "scenarios" / f"{name}.ini").read_text())
    model = scenario.build_model(config)
    return model, cm.integrate(model, cm.make_state(config.q0, config.p0, config.S0,
                                                    config.t0), config.t_end, config.options)


def test_the_invariants_chart_and_the_hj_grid_look_up_their_blocks_once(monkeypatch):
    """The invariants chart's verification of 100 rows looks up the dense
    solutions on all its times at once: alpha and alpha' in ``forward``, and
    alpha, alpha' and alpha'' in ``jacobian``.  The contact HJ residual's grid
    looks them up on the (50, 1) column of its times: 4 lookups in S, 3 in
    dS/dq and 3 in dS/dt."""
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
    assert shapes == [(50, 1)] * 10


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
                                                         monkeypatch):
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
    monkeypatch.setattr(diagnostics, "_ermakov_for", _unit_start_ermakov_for)
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "unit")]) == 0
    assert (tmp_path / "new" / "report.txt").read_bytes() == \
        (tmp_path / "unit" / "report.txt").read_bytes()


def test_the_adiabatic_start_takes_fewer_right_hand_side_calls(monkeypatch):
    """On `parametric_oscillator.ini` the started solve makes fewer right-hand-side
    calls than one from alpha = 1, alpha' = 0 on the same omega and samples."""
    model, traj = _scenario_run("parametric_oscillator")
    calls = []
    integrate_flat = oscillator._integrate_flat

    def counted(rhs, *args, **kwargs):
        calls.append(0)

        def counting(t, y):
            calls[-1] += 1
            return rhs(t, y)
        return integrate_flat(counting, *args, **kwargs)

    monkeypatch.setattr(oscillator, "_integrate_flat", counted)
    diagnostics._ermakov_for(model, traj, {})
    _unit_start_ermakov_for(model, traj, {})
    started, unit = calls
    assert started < 0.8 * unit


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
            config = scenario.parse_scenario(entry.text)
            model = scenario.build_model(config)
            traj = cm.integrate(model, cm.make_state(config.q0, config.p0, config.S0,
                                                     config.t0), config.t_end, config.options)
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
