"""The package's own numerics against scipy, which is a test dependency only.

The Dormand-Prince stepper, the Brent root finder and the cubic Hermite
interpolant reproduce scipy's `RK45`, `brentq` and `CubicHermiteSpline`
operation for operation, so every comparison here is bit-for-bit.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import RK45
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq

import contactmech as cm
from contactmech import dynamics, oscillator
from contactmech.dynamics import _brent, _integrate_flat
from contactmech.errors import ErmakovCollapseError
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
    driven as `_integrate_flat` drives its stepper."""
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
                root = brentq(lambda t: event(t, dense(t)), solver.t_old, solver.t,
                              xtol=ROOT_TOL, rtol=ROOT_TOL)
                return steps, None, root, (solver.nfev - 2) // 6 - len(steps)
        j = np.searchsorted(grid, solver.t, side="right")
        if j > i:
            out[i:j] = solver.dense_output()(grid[i:j]).T
            i = j
    return steps, out, None, (solver.nfev - 2) // 6 - len(steps)


def _own_run(rhs, y0, t0, t_end, rtol, atol, grid, event=None, d=None):
    """(accepted (t, y), grid samples, event time) of `_integrate_flat`, with
    the first d components in the error norm; the event function sees every
    accepted step, so it records them up to the crossing (the root finder's
    calls come after)."""
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
                              d=d)
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


def test_stepper_matches_rk45_on_the_det_series_system(monkeypatch):
    """The 3 + 9 dimensional tangent solve of the volume checks: its accepted
    steps and the (q, p, S) block of its steps and samples are scipy's RK45 on
    the 3-dimensional field alone, bit for bit."""
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
    ref_steps, ref_out, _, _ = _scipy_run(model.field, x0.flat(), 0.0, 4.0, opts.rel_tol,
                                          opts.abs_tol, grid)
    steps, out, _ = _own_run(rhs, y0, 0.0, 4.0, opts.rel_tol, opts.abs_tol, grid, d=3)
    assert [t for t, _ in steps] == [t for t, _ in ref_steps]
    assert np.array_equal(np.array([y[:3] for _, y in steps]),
                          np.array([y for _, y in ref_steps]))
    assert np.array_equal(out[:, :3], ref_out)
    assert np.array_equal(traj.flat(), ref_out)
    assert len(steps) > 20


def test_stepper_matches_rk45_on_the_ermakov_list_rhs(monkeypatch):
    """The Ermakov right-hand side returns a list, and its collapse event fires."""
    captured = []

    def capture(rhs, y0, t0, t_end, opts, grid, event=None, event_error=None):
        captured.append((rhs, y0, t0, t_end, opts, grid, event))
        return _integrate_flat(rhs, y0, t0, t_end, opts, grid, event, event_error)

    monkeypatch.setattr(oscillator, "_integrate_flat", capture)
    oscillator.solve_ermakov(1.3, 0.2, 0.9, 0.1, np.linspace(0.0, 3.0, 31))
    with pytest.raises(ErmakovCollapseError):
        oscillator.solve_ermakov(1, 0, 2e-6, -1e6, np.linspace(0, 1, 11))
    for rhs, y0, t0, t_end, opts, grid, event in captured:
        _assert_same_run(rhs, y0, t0, t_end, opts.rel_tol, opts.abs_tol, grid, event)


@pytest.mark.parametrize("f, a, b", [
    (math.cos, 0.0, 2.0),
    (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0),
    (lambda x: math.exp(-x) - x, -1.0, 1.0),
    (lambda x: 1e-200 * (math.exp(x) - 2), 0.0, 2.0),  # a step divides by an underflow
], ids=["cos", "cubic", "exp", "tiny"])
def test_root_finder_matches_brentq(f, a, b):
    """The same root from the same sequence of evaluation points."""
    for lo, hi in ((a, b), (b, a)):
        ours, ref = [], []
        root = _brent(lambda x: ours.append(x) or f(x), lo, hi)
        assert root == brentq(lambda x: ref.append(x) or f(x), lo, hi,
                              xtol=ROOT_TOL, rtol=ROOT_TOL)
        assert ours == ref and len(ours) > 5


def test_root_finder_rejects_a_bracket_without_a_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        _brent(math.cos, 2.0, 3.0)


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
