"""The package's own numerics against scipy, which is a test dependency only.

The Dormand-Prince steppers and the cubic Hermite interpolant reproduce
scipy's `RK45`, `DOP853` and `CubicHermiteSpline` operation for operation, so
those comparisons are bit-for-bit; the event root, bisected on the step's
dense output, is then bit-for-bit the one bisected on scipy's.  scipy's
DOP853 also solves the Riccati equation for a time-dependent omega, the
oracle of C, and its variational equation, the oracle of its C0-derivative.
"""

import contextlib
import math
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("scipy", exc_type=ImportError)

from scipy.integrate import DOP853, RK45, solve_ivp
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq

import contactmech as cm
from contactmech import dynamics, oscillator
from contactmech.dynamics import _DOP853, _bisect, _integrate_flat
from contactmech.errors import RiccatiPoleError
from contactmech.oscillator import CubicHermite
from contactmech.scenario import build_model, parse_scenario

ROOT_TOL = 4 * np.finfo(float).eps
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


class _Stop(Exception):
    def __init__(self, t):
        super().__init__(t)
        self.t = t


def _scipy_run(rhs, y0, t0, t_end, rtol, atol, grid, event=None):
    """(accepted (t, y), grid samples, event time, rejected steps) of scipy's RK45
    driven as `_integrate_flat` drives its stepper, the event time bisected on
    scipy's dense output."""
    solver = RK45(rhs, t0, y0, t_bound=t_end, rtol=rtol, atol=atol)
    steps, out, i = [], np.empty((len(grid), len(y0))), 1
    out[0] = y0
    g = event(t0, y0) if event is not None else None
    while solver.status == "running":
        solver.step()
        assert solver.status != "failed"
        steps.append((solver.t, solver.y.copy()))
        if event is not None:
            g_old, g = g, event(solver.t, solver.y)
            if g_old >= 0 >= g:
                dense = solver.dense_output()
                root = _bisect(lambda t: event(t, dense(t)), solver.t_old, solver.t)
                return steps, None, root, (solver.nfev - 2) // 6 - len(steps)
        j = np.searchsorted(grid, solver.t, side="right")
        if j > i:
            out[i:j] = solver.dense_output()(grid[i:j]).T
            i = j
    return steps, out, None, (solver.nfev - 2) // 6 - len(steps)


def _scipy_dop853_run(rhs, y0, t0, t_end, rtol, atol, grid, event=None):
    """(accepted (t, y), grid samples, event time, rejected steps, right-hand-side
    calls) of scipy's DOP853 driven as `_integrate_flat` drives its stepper: the
    dense output, with its three stages of its own, is formed only on a step
    that holds grid points or the event's crossing, and the event time is
    bisected on it.  The calls are 2 to start, 12 per trial step and 3 per
    dense output."""
    solver = DOP853(rhs, t0, y0, t_bound=t_end, rtol=rtol, atol=atol)
    steps, out, i, dense_steps = [], np.empty((len(grid), len(y0))), 1, 0
    out[0] = y0

    def result(out, root):
        rejected = (solver.nfev - 2 - 3 * dense_steps) // 12 - len(steps)
        return steps, out, root, rejected, solver.nfev

    g = event(t0, y0) if event is not None else None
    while solver.status == "running":
        solver.step()
        assert solver.status != "failed"
        steps.append((solver.t, solver.y.copy()))
        if event is not None:
            g_old, g = g, event(solver.t, solver.y)
            if g_old >= 0 >= g:
                dense = solver.dense_output()
                dense_steps += 1
                return result(None, _bisect(lambda t: event(t, dense(t)), solver.t_old,
                                            solver.t))
        j = np.searchsorted(grid, solver.t, side="right")
        if j > i:
            out[i:j] = solver.dense_output()(grid[i:j]).T
            dense_steps += 1
            i = j
    return result(out, None)


def _own_run(rhs, y0, t0, t_end, rtol, atol, grid, event=None, d=None, **kwargs):
    """(accepted (t, y), grid samples, event time) of `_integrate_flat`, with
    the first d components in the error norm and the other `kwargs` passed
    on; the event function sees every accepted step, so it records them up
    to the crossing (the root finder's calls come after)."""
    steps, gs = [], []

    def record(t, y):
        g = event(t, y) if event is not None else 1.0
        if not (len(gs) > 1 and gs[-2] >= 0 >= gs[-1]):
            steps.append((t, np.array(y)))
            gs.append(g)
        return g

    opts = cm.IntegratorOptions(rel_tol=rtol, abs_tol=atol)
    try:
        out = _integrate_flat(rhs, y0, t0, t_end, opts, grid, event=record, event_error=_Stop,
                              d=d, **kwargs)
    except _Stop as stop:
        return steps[1:], None, stop.t
    return steps[1:], out, None


def _assert_same_run(rhs, y0, t0, t_end, rtol, atol, grid, event=None):
    ref_steps, ref_out, ref_root, rejected = _scipy_run(rhs, y0, t0, t_end, rtol, atol,
                                                        grid, event)
    steps, out, root = _own_run(rhs, y0, t0, t_end, rtol, atol, grid, event)
    assert [t for t, _ in steps] == [t for t, _ in ref_steps]
    assert np.array_equal(np.array([y for _, y in steps]), np.array([y for _, y in ref_steps]))
    assert root == ref_root
    if ref_out is None:
        assert out is None
    else:
        assert np.array_equal(out, ref_out)
    return len(steps), rejected


def _assert_same_dop853_run(rhs, y0, t0, t_end, rtol, atol, grid, event=None):
    """`_assert_same_run` of the `_DOP853` tableau against scipy's DOP853, with
    as many right-hand-side calls, so as many rejected steps."""
    ref_steps, ref_out, ref_root, rejected, nfev = _scipy_dop853_run(rhs, y0, t0, t_end, rtol,
                                                                     atol, grid, event)
    calls = []

    def counted(t, y):
        calls.append(t)
        return rhs(t, y)

    steps, out, root = _own_run(counted, y0, t0, t_end, rtol, atol, grid, event,
                                tableau=_DOP853)
    assert [t for t, _ in steps] == [t for t, _ in ref_steps]
    assert np.array_equal(np.array([y for _, y in steps]), np.array([y for _, y in ref_steps]))
    assert root == ref_root
    if ref_out is None:
        assert out is None
    else:
        assert np.array_equal(out, ref_out)
    assert len(calls) == nfev
    return len(steps), rejected


def _scenario_model(name):
    config = parse_scenario((SCENARIOS / f"{name}.ini").read_text())
    return config, build_model(config), cm.make_state(config.q0, config.p0, config.S0,
                                                      config.t0)


def test_stepper_matches_rk45_on_exponential_decay():
    grid = np.linspace(0.0, 5.0, 51)
    for rtol, atol in ((1e-9, 1e-12), (1e-3, 1e-6)):
        accepted, _ = _assert_same_run(lambda t, y: -y, np.array([1.0]), 0.0, 5.0,
                                       rtol, atol, grid)
        assert accepted > 5


def test_stepper_matches_rk45_on_the_contact_field_with_an_event():
    """The damped oscillator's contact field up to q's first downward zero, and
    over the whole span, where its loose tolerance makes the stepper reject."""
    config, model, init = _scenario_model("damped_oscillator")

    grid = dynamics.sample_grid(init.t, config.t_end, config.options.sample_interval)
    args = (model.field, init.flat(), init.t, config.t_end)
    _assert_same_run(*args, config.options.rel_tol, config.options.abs_tol, grid,
                     event=lambda t, y: y[0])
    _, rejected = _assert_same_run(*args, 1e-4, 1e-7, grid)
    assert rejected > 0


@pytest.mark.parametrize("rtol, atol", [(1e-9, 1e-12), (1e-3, 1e-6)])
def test_stepper_matches_dop853_on_exponential_decay_with_and_without_an_event(rtol, atol):
    """y' = -y through scipy's DOP853, over the whole span and up to the
    downward zero of y - 0.5 at ln 2, located on the crossing step's dense
    output, which that step alone forms beside the steps that hold grid points."""
    grid = np.linspace(0.0, 5.0, 51)
    args = (lambda t, y: -y, np.array([1.0]), 0.0, 5.0, rtol, atol, grid)
    accepted, _ = _assert_same_dop853_run(*args)
    assert accepted > 3
    _assert_same_dop853_run(*args, event=lambda t, y: y[0] - 0.5)


def test_stepper_matches_dop853_on_the_contact_field_with_an_event():
    """The damped oscillator's contact field up to q's first downward zero, and
    over the whole span, where its loose tolerance makes the stepper reject."""
    config, model, init = _scenario_model("damped_oscillator")
    grid = dynamics.sample_grid(init.t, config.t_end, config.options.sample_interval)
    args = (model.field, init.flat(), init.t, config.t_end)
    _assert_same_dop853_run(*args, config.options.rel_tol, config.options.abs_tol, grid,
                            event=lambda t, y: y[0])
    _, rejected = _assert_same_dop853_run(*args, 1e-4, 1e-7, grid)
    assert rejected > 0


def test_stepper_matches_rk45_on_the_det_series_system(monkeypatch):
    """The 3 + 9 dimensional tangent solve of the volume checks.  With every
    component in the error norm it is scipy's RK45 on the same 12-dimensional
    system, bit for bit, so the 12-wide stage sums are scipy's.  With only
    (q, p, S) in the norm, its (q, p, S) samples are those of scipy's RK45 on
    the 3-dimensional field alone to roundoff: the stage sums span J's
    columns too, and BLAS rounds a product by its width."""
    V = cm.parse_expression("q^2/2 + 0.05*q^4", "q")
    model = cm.make_linear_dissipation(1.0, 0.3, V)
    captured = []

    def capture(rhs, y0, t0, t_end, opts, grid, **kwargs):
        captured.append((rhs, y0, kwargs))
        return _integrate_flat(rhs, y0, t0, t_end, opts, grid, **kwargs)

    monkeypatch.setattr(dynamics, "_integrate_flat", capture)
    opts = cm.IntegratorOptions(rel_tol=1e-9, abs_tol=1e-12, sample_interval=0.05)
    x0 = cm.make_state(1.2, -0.3, 0.1, 0.0)
    traj = cm.integrate(model, x0, 4.0, opts, tangent=True)
    [(rhs, y0, kwargs)] = captured
    assert len(y0) == 12 and kwargs == {"d": 3}
    grid = traj.times
    accepted, rejected = _assert_same_run(rhs, y0, 0.0, 4.0, opts.rel_tol, opts.abs_tol, grid)
    assert accepted > 20 and rejected > 0
    _, ref_out, _, _ = _scipy_run(model.field, x0.flat(), 0.0, 4.0, opts.rel_tol,
                                  opts.abs_tol, grid)
    scale = np.max(np.abs(ref_out), axis=0)
    assert np.all(np.max(np.abs(traj.flat() - ref_out), axis=0) <= 1e-13 * scale)


def _captured_solves(monkeypatch, solve):
    """The (rhs, y0, t0, t_end, opts, grid, kwargs) of each `_integrate_flat`
    call of the oscillator module in `solve()`."""
    captured = []

    def capture(rhs, y0, t0, t_end, opts, grid, **kwargs):
        captured.append((rhs, y0, t0, t_end, opts, grid, kwargs))
        return _integrate_flat(rhs, y0, t0, t_end, opts, grid, **kwargs)

    monkeypatch.setattr(oscillator, "_integrate_flat", capture)
    solve()
    return captured


@pytest.mark.parametrize("omega, gamma, start, grid, rejects", [
    pytest.param(1.3, 0.2, (0.9, 0.1), np.linspace(0.0, 3.0, 31), False, id="constant"),
    pytest.param(1.0, 0.1, None, np.linspace(0.0, 5.0, 501), False, id="stationary"),
    pytest.param("1.2345 + 0.2345*sin(0.5678*t)", 0.1, None, np.linspace(0.0, 5.0, 501), True,
                 id="omega(t)"),
])
def test_stepper_matches_dop853_on_the_ermakov_list_rhs(monkeypatch, omega, gamma, start, grid,
                                                        rejects):
    """The Ermakov pair's solve, whose right-hand side returns a list, is
    scipy's DOP853 bit for bit: accepted steps, node samples and rejected
    steps, for constant omega and for omega(t), from an arbitrary start or
    from `ermakov_start`; only omega(t) rejects a step."""
    w = cm.parse_expression(omega, "t") if isinstance(omega, str) else omega
    alpha0, alpha_dot0 = start or oscillator.ermakov_start(w, gamma, 0.0)
    [(rhs, y0, t0, t1, opts, nodes, kwargs)] = _captured_solves(
        monkeypatch, lambda: oscillator.solve_ermakov(w, gamma, alpha0, alpha_dot0, grid))
    assert kwargs == {"event": None, "event_error": None, "tableau": _DOP853}
    accepted, rejected = _assert_same_dop853_run(rhs, y0, t0, t1, opts.rel_tol, opts.abs_tol,
                                                 nodes)
    assert accepted > 10 and (rejected > 0) == rejects


@pytest.mark.parametrize("omega, C0", [pytest.param(1.0, 0.0, id="pole"),
                                       pytest.param(0.0, 0.2, id="no-pole")])
def test_stepper_matches_dop853_on_the_riccati_list_rhs(monkeypatch, omega, C0):
    """The Riccati route's solve, whose right-hand side returns a list, is
    scipy's DOP853 bit for bit, with as many right-hand-side calls, up to its
    pole event where lambda crosses 0, bisected on the crossing step's dense
    output."""
    grid = np.linspace(0.0, 5.0, 51)

    def solve():
        with pytest.raises(RiccatiPoleError) if omega else contextlib.nullcontext():
            cm.solve_riccati(omega, 0.1, C0, grid)

    [(rhs, y0, t0, t_end, opts, nodes, kwargs)] = _captured_solves(monkeypatch, solve)
    assert kwargs["tableau"] is _DOP853
    _assert_same_dop853_run(rhs, y0, t0, t_end, opts.rel_tol, opts.abs_tol, nodes,
                            kwargs["event"])


@pytest.mark.parametrize("f, a, b", [
    (math.cos, 0.0, 2.0),
    (lambda x: x ** 3 - 2 * x - 5, 3.0, 2.0),
    (lambda x: math.exp(-x) - x, -1.0, 1.0),
    (lambda x: 1e-200 * (math.exp(x) - 2), 2.0, 0.0),  # only the sign is read
], ids=["cos", "cubic", "exp", "tiny"])
def test_root_finder_matches_brentq(f, a, b):
    """The bisection of a downward bracket, f(a) >= 0 >= f(b), lands within
    the event's tolerance of brentq's root, reading f only inside the bracket."""
    assert f(a) >= 0 >= f(b)
    seen = []
    root = _bisect(lambda x: seen.append(x) or f(x), a, b)
    ref = brentq(f, min(a, b), max(a, b), xtol=ROOT_TOL, rtol=ROOT_TOL)
    assert abs(root - ref) <= ROOT_TOL * (1 + abs(ref))
    assert all(min(a, b) < x < max(a, b) for x in seen) and len(seen) > 40


def test_interpolant_matches_cubic_hermite_spline():
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.uniform(0.01, 1.0, 40))
    y, dydx = rng.normal(size=40) * 10.0, rng.normal(size=40) * 10.0
    ours, ref = CubicHermite(x, y, dydx), CubicHermiteSpline(x, y, dydx)
    assert np.array_equal(ours.c, ref.c)
    t = np.concatenate([rng.uniform(x[0], x[-1], 500), x,
                        [x[0] - 1e-12, x[-1] + 1e-12]])  # the ends `_check_t` admits
    assert np.array_equal(ours(t), ref(t))
    for s in t[-45:]:
        assert ours(s)[()] == ref(s)[()]
    assert ours(t.reshape(2, -1)).shape == (2, len(t) // 2)


def test_riccati_sensitivity_matches_the_variational_equation():
    """dC/dC0 against scipy's DOP853 solve of C' = -C^2 - gamma C - omega^2
    with its variation d' = -(2C + gamma) d, d(0) = 1, at rtol 1e-13."""
    omega, gamma, C0 = 1.4437, 0.2, 0.3
    ts = np.linspace(0.0, 1.0, 201)

    def rhs(t, y):
        C, d = y
        return [-C * C - gamma * C - omega * omega, -(2.0 * C + gamma) * d]

    ref = solve_ivp(rhs, (0.0, 1.0), [C0, 1.0], method="DOP853", rtol=1e-13, atol=1e-15,
                    t_eval=ts)
    got = cm.riccati_sensitivity(omega, gamma, C0, np.linspace(0.0, 1.0, 5))(ts)
    np.testing.assert_allclose(got, ref.y[1], rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("omega, gamma, C0, t_end", [
    pytest.param("0.4*cos(0.2*t)", 0.1, 0.5, 7.0, id="underdamped"),
    pytest.param("1.5 + 0.5*sin(0.3*t)", 5.0, 0.0, 400.0, id="overdamped"),
])
def test_riccati_solution_matches_dop853_on_a_time_dependent_omega(omega, gamma, C0, t_end):
    """C against scipy's DOP853 solve of C' = -C^2 - gamma C - omega(t)^2
    itself at rtol 3e-14, near scipy's floor of 100 eps, to 3e-11 of
    max(|C|, 1): on [0, 7], short of the first pole near t = 8.6, and on
    [0, 400], where lambda decays by about e^{-220}, at a rate that moves with
    omega(t).  The package solves the linear scaled system of lambda by the
    same method, so the oracle stays independent through its equation: it
    integrates the nonlinear C itself, whose steps and errors are its own."""
    w = cm.parse_expression(omega, "t")
    ts = np.linspace(0.0, t_end, 201)
    ref = solve_ivp(lambda t, y: [-y[0] * y[0] - gamma * y[0] - w(t) ** 2], (0.0, t_end), [C0],
                    method="DOP853", rtol=3e-14, atol=1e-15, t_eval=ts).y[0]
    got = cm.solve_riccati(w, gamma, C0, np.linspace(0.0, t_end, 11)).C(ts)
    assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) < 3e-11
