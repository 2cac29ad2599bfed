"""Contact Hamiltonian flow: vector field, integrators and flow diagnostics.

The equations of motion in contact coordinates are

    dq_a/dt = dH/dp_a
    dp_a/dt = -dH/dq_a - p_a dH/dS
    dS/dt   = p_a dH/dp_a - H

augmented with dt/dt = 1 for explicitly time-dependent systems.  The flow has
divergence -(n+1) dH/dS in the (q, p, S) volume sense, which is the package's
operational definition of dissipation, and |H|^-(n+1) is the density of the
invariant measure away from the H = 0 level set.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (IntegrationError, NonFiniteError, SingularMeasureError,
                     UnsupportedModelError)
from .model import ExtendedState, HamiltonianModel

MEASURE_EPS = 1e-12      # |H| below this is treated as the singular level set
_EPS = np.finfo(float).eps
_ROOT_TOL = 4 * _EPS     # x and relative tolerance of the event root


# ---------------------------------------------------------------------------
# Vector field
# ---------------------------------------------------------------------------

def vector_field(model: HamiltonianModel, x: ExtendedState) -> np.ndarray:
    """The (q, p, S) components [dq/dt, dp/dt, dS/dt] of the contact
    Hamiltonian vector field at x (dt/dt = 1 is left out), a fresh (2n+1,)
    array; a non-finite component raises NonFiniteError."""
    model.check_dimensions(x)
    y = x.flat()
    f = np.array(model.field(x.t, y), dtype=float)
    if not np.all(np.isfinite(f)):
        raise NonFiniteError(f"non-finite vector field at t={x.t}, y={y}: {f}")
    return f


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegratorOptions:
    """Step control for `integrate`; defaults favour tight invariant checks."""

    method: str = "adaptive_rk45"      # or "fixed_rk4"
    step: float = 1e-3                 # fixed_rk4 only (upper bound on substep)
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_steps: int = 1_000_000
    sample_interval: float = 0.1

    def __post_init__(self):
        # each message starts with the field, so a scenario can name its key
        if self.method not in ("adaptive_rk45", "fixed_rk4"):
            raise ValueError(f"method: must be 'adaptive_rk45' or 'fixed_rk4', got {self.method!r}")
        for name in ("step", "rel_tol", "abs_tol", "max_steps", "sample_interval"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name}: must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered samples of a contact flow plus per-sample diagnostics."""

    times: np.ndarray            # (m,) strictly increasing
    q: np.ndarray                # (m, n)
    p: np.ndarray                # (m, n)
    S: np.ndarray                # (m,)
    H: np.ndarray                # (m,) Hamiltonian value per sample
    div: np.ndarray              # (m,) flow divergence per sample
    # (m, 2n+1, 2n+1) fundamental matrix dPhi of the flow from the first
    # sample, carried on the flow's steps and held to the same tolerance;
    # only with integrate(..., tangent=True)
    J: Optional[np.ndarray] = None

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        if not (len(self.times) == len(self.q) == len(self.p) == len(self.S)
                == len(self.times if self.J is None else self.J)):
            raise ValueError("trajectory component lengths differ")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def n(self) -> int:
        return self.q.shape[1]

    def state(self, i: int) -> ExtendedState:
        return ExtendedState(self.q[i], self.p[i], self.S[i], self.times[i])

    def flat(self) -> np.ndarray:
        """The (m, 2n+1) rows [q, p, S] of the samples."""
        return np.column_stack([self.q, self.p, self.S])


def sample_grid(t0: float, t_end: float, sample_interval: float) -> np.ndarray:
    """Uniform grid covering [t0, t_end] with spacing <= sample_interval."""
    m = max(1, int(math.ceil((t_end - t0) / sample_interval - 1e-12)))
    return np.linspace(t0, t_end, m + 1)


def _floats(v) -> list:
    """A right-hand side's value as a list: an ndarray's `tolist()`, a list as it is."""
    return v.tolist() if isinstance(v, np.ndarray) else v


def _rk4(rhs, t: float, y: np.ndarray, h: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of dy/dt = rhs(t, y), rhs
    returning a list of floats or an ndarray.  The stages are Python floats
    combined in the order of the array expression
    y + (h/6) (((k1 + 2 k2) + 2 k3) + k4), with stage arguments y + (h/2) k,
    so the step is bit for bit that expression's on every host.  rhs gets y
    itself for the first stage and a fresh array for each other one, which it
    may keep; no stage argument is written afterwards, and the result is a
    fresh array."""
    h2, h6 = h / 2, h / 6.0
    y0 = y.tolist()
    k1 = _floats(rhs(t, y))
    k2 = _floats(rhs(t + h2, np.array([a + h2 * k for a, k in zip(y0, k1)])))
    k3 = _floats(rhs(t + h2, np.array([a + h2 * k for a, k in zip(y0, k2)])))
    k4 = _floats(rhs(t + h, np.array([a + h * k for a, k in zip(y0, k3)])))
    return np.array([a + h6 * (((b1 + 2 * b2) + 2 * b3) + b4)
                     for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4)])


def step_rk4(model: HamiltonianModel, x: ExtendedState, h: float) -> ExtendedState:
    """One classical 4th-order Runge-Kutta step of the contact field."""
    if h == 0:
        raise ValueError("step size must be nonzero")
    model.check_dimensions(x)
    y1 = _rk4(model.field, x.t, x.flat(), h)
    if not np.all(np.isfinite(y1)):
        raise NonFiniteError(f"non-finite RK4 state after step from t={x.t}")
    return ExtendedState.from_flat(y1, model.n, x.t + h)


# Dormand-Prince 5(4) pair (Dormand & Prince 1980; Hairer, Norsett & Wanner,
# Solving ODEs I, II.5): nodes C, stage rows A, 5th-order weights B, error
# weights E (5th minus embedded 4th order, over all 7 stages) and Shampine's
# (1986) dense-output matrix P, whose 4 columns multiply x, x^2, x^3, x^4.
_DP_C = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0]
_DP_A = [None, np.array([1 / 5]), np.array([3 / 40, 9 / 40]),
         np.array([44 / 45, -56 / 15, 32 / 9]),
         np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
         np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656])]
_DP_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
                  1 / 40])
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10  # step-size controller
_ERR_EXPONENT = -1 / 5   # the error estimate is of order 4


def _rms(x: np.ndarray) -> float:
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _scaled_error(e: list, h: float, y: list, y_new: list, atol: float,
                  rtol: float) -> np.ndarray:
    """e h / (atol + max(|y|, |y_new|) rtol) over the components of e, in
    floats; the maximum is NaN if either side is, as np.maximum's is."""
    return np.array([x * h / (atol + (a if a > b or a != a else b) * rtol)
                     for x, a, b in zip(e, map(abs, y), map(abs, y_new))])


def _abs_max(v: list) -> float:
    """The largest |v_i|, NaN if any v_i is NaN, as ndarray.max gives it."""
    a = [abs(x) for x in v]
    total = sum(a)  # NaN exactly when some |v_i| is
    return max(a) if total == total else total


def _dense_powers(ts: list, t_old: float, h: float) -> np.ndarray:
    """The (4, k) rows x, x^2, x^3, x^4 of x = (t - t_old) / h at the k times
    ts, each power the previous one times x, as np.multiply.accumulate forms
    them."""
    x1 = [(t - t_old) / h for t in ts]
    x2 = [x * x for x in x1]
    x3 = [a * x for a, x in zip(x2, x1)]
    return np.array([x1, x2, x3, [a * x for a, x in zip(x3, x1)]])


def _initial_step(rhs, t0: float, y0: np.ndarray, f0: np.ndarray, t_end: float,
                  rtol: float, atol: float, d: int) -> float:
    """First step size by the rule of Hairer, Norsett & Wanner (II.4) on the
    first d components, never longer than the interval; IntegrationError if the
    rule's first estimate is 0, which happens when the scaled RMS of f0
    overflows."""
    span = abs(t_end - t0)
    scale = atol + np.abs(y0[:d]) * rtol
    d0, d1 = _rms(y0[:d] / scale), _rms(f0[:d] / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if h0 == 0:  # d1 overflowed, or d0 / d1 underflowed
        raise IntegrationError(f"no initial step at t={t0:.6g}, y={y0[:d]}: the "
                               f"derivative {f0[:d]} is too large for the error norm",
                               last_time=t0)
    h0 = min(h0, span)
    f1 = np.asarray(rhs(t0 + h0, y0 + h0 * f0), dtype=float)
    d2 = _rms((f1[:d] - f0[:d]) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, span)


def _brent(f, a: float, b: float) -> float:
    """A zero of f in [a, b], f(a) and f(b) of opposite sign, to within
    _ROOT_TOL (1 + |x|), by Brent's method (Brent 1973, ch. 4): inverse
    quadratic interpolation or secant steps while they shrink the bracket fast
    enough, bisection otherwise."""
    def fval(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = a, b
    fpre, fcur = fval(xpre), fval(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best estimate in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_ROOT_TOL + _ROOT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # an infinite step, which bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fval(xcur)
    raise RuntimeError(f"root finder failed to converge after 100 iterations, "
                       f"value is {xcur}")


@np.errstate(over="ignore", invalid="ignore")  # non-finite stages are handled below
def _integrate_flat(rhs, y0: np.ndarray, t0: float, t_end: float,
                    opts: IntegratorOptions, grid: np.ndarray,
                    event=None, event_error=None, d: Optional[int] = None) -> np.ndarray:
    """Integrate dy/dt = rhs(t, y) and return samples at grid points.

    `grid` must start at t0 and end at t_end, and rhs may return any float
    sequence.  Adaptive mode is a Dormand-Prince 5(4) stepper of its own: an
    RMS error norm on atol + max(|y|, |y_new|) rtol (rtol at least 100 eps),
    safety factor 0.9, step factors within [0.2, 10] and no growth right
    after a rejection; each step's grid points are sampled with one call of
    its quartic dense output.  Fixed mode takes equal substeps of size
    <= opts.step between consecutive grid points.  In adaptive mode only, a
    downward zero crossing of event(t, y) over a step is located on that
    step's dense output by Brent's method, and event_error(t) is raised at the
    crossing time.

    Only the first d components of y (all by default) enter the initial-step
    rule, and at first the error norm; the rest ride along on the steps these
    choose.  Their own error estimate is still taken on every step the first
    d accept: the RMS of their error over one scale, atol + rtol times the
    largest of them at either end of the step, as suits the entries of a
    matrix.  At the first step on which it is 1 or more (or NaN) the rest join
    the error norm, as the larger of the two, for the remainder of the solve:
    so the rest are held to the same tolerance, and a non-finite stage among
    them is rejected like any other.  Adaptive mode
    keeps a contiguous copy of the first d stage columns and forms those
    components' stage values, steps and samples from it alone, because BLAS
    rounds a matrix-vector product differently for different widths.  So when
    the first d components' rhs reads only them, their values are bit for bit
    those of a solve of them alone up to the step at which the rest join the
    norm, if they do.  Fixed mode is elementwise and needs no copy.  Errors
    name the first d components.

    The sums over stages (the stage arguments, the step, the error estimates
    and the dense output) are BLAS products on the stored stages, the same
    calls on the same operands as scipy's RK45 makes, and the error norm's
    sum of squares is a BLAS dot; everything elementwise around them is done
    in place or in Python floats, in the order of the array expressions, so
    the bits are those of scipy's RK45.  In adaptive mode rhs gets each
    trial stage's argument in one scratch array that the next stage
    overwrites: it is valid only during the call, and rhs must not keep it.
    The step's end state, which rhs gets for the last stage and the event
    sees, is a fresh array, as are the samples; no array the stepper hands
    out shares the scratch array's memory.  Fixed mode hands rhs arrays that
    are never written (see `_rk4`).  A fixed-mode interval whose substep count would pass
    max_steps, an infinite count included, fails before its first substep.

    rhs is not checked for finite values stage by stage.  In adaptive mode a
    non-finite stage makes the error estimate non-finite, so the step is
    rejected and h shrinks by the minimum factor; if h falls below the
    smallest step at t after such a rejection, NonFiniteError names t and y.
    The field at the start is checked once, and fixed mode checks the state at
    each grid point.  numpy's overflow and invalid-value warnings are silenced
    here, since these checks report them.
    """
    d = len(y0) if d is None else d
    out = np.empty((len(grid), len(y0)))
    out[0] = y0
    nsteps, grid_times = 0, grid.tolist()
    if opts.method == "fixed_rk4":
        y, t = y0, t0
        for i in range(1, len(grid)):
            span = grid_times[i] - t
            ratio = span / opts.step - 1e-12  # inf for a subnormal step
            left = opts.max_steps - nsteps
            if left < 1 or not ratio <= left:  # more substeps than are left
                raise IntegrationError(
                    f"max_steps={opts.max_steps} exceeded at t={t:.6g}: step={opts.step!r} "
                    f"needs {max(1.0, span / opts.step):.3g} substeps to reach "
                    f"t={grid_times[i]:.6g}, and {left} are left", last_time=t)
            nsub = max(1, int(math.ceil(ratio)))
            h = span / nsub
            nsteps += nsub
            for _ in range(nsub):
                y = _rk4(rhs, t, y, h)
                t += h
            t = grid_times[i]  # land exactly, avoiding accumulated rounding
            if not np.all(np.isfinite(y)):
                raise NonFiniteError(f"non-finite state at t={t:.6g}, y={y[:d]}")
            out[i] = y
        return out

    if not np.all(np.isfinite(y0)):
        raise ValueError("all components of the initial state must be finite")
    rtol, atol = max(opts.rel_tol, 100 * _EPS), opts.abs_tol
    K = np.empty((7, len(y0)))  # stages; row 6 is the field at the step's end
    KT = [K[:s].T for s in range(8)]  # the first s stages, as columns
    split = d < len(y0)
    joint = False  # whether the rest has joined the first d in the error norm
    Kd = np.empty((7, d)) if split else K  # the first d columns of K, contiguous
    KdT = [Kd[:s].T for s in range(8)]
    dy = np.empty(len(y0))  # each stage's sum, then its argument y + h sum
    dy_d = dy[:d]
    K[0] = rhs(t0, y0)
    if not np.all(np.isfinite(K[0])):
        raise NonFiniteError(f"non-finite vector field at t={t0:.6g}, y={y0[:d]}")
    if split:
        Kd[0] = K[0, :d]
    h_abs = _initial_step(rhs, t0, y0, K[0], t_end, rtol, atol, d)
    t, y, y_list = t0, y0, y0.tolist()
    g = event(t0, y0) if event is not None else None
    i = 1
    while t < t_end:
        nsteps += 1
        if nsteps > opts.max_steps:
            raise IntegrationError(f"max_steps={opts.max_steps} exceeded at t={t:.6g}",
                                   last_time=t)
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                if rejected and not math.isfinite(err):
                    raise NonFiniteError(f"non-finite vector field: the steps from "
                                         f"t={t:.6g}, y={y[:d]} down to h={min_step:.3g} "
                                         f"all met a non-finite stage")
                raise IntegrationError(f"adaptive step failed at t={t:.6g}, y={y[:d]}",
                                       last_time=t)
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            for s in range(1, 6):
                np.dot(KT[s], _DP_A[s], out=dy)
                if split:
                    np.dot(KdT[s], _DP_A[s], out=dy_d)
                dy *= h
                dy += y
                K[s] = rhs(t + _DP_C[s] * h, dy)
                if split:
                    Kd[s] = K[s, :d]
            np.dot(KT[6], _DP_B, out=dy)
            if split:
                np.dot(KdT[6], _DP_B, out=dy_d)
            dy *= h
            y_new = y + dy
            K[6] = rhs(t + h, y_new)
            if split:
                Kd[6] = K[6, :d]
            new_list = y_new.tolist()
            err = _rms(_scaled_error(np.dot(KdT[7], _DP_E).tolist(), h, y_list, new_list,
                                     atol, rtol))
            if split and (joint or err < 1):
                scale = atol + max(_abs_max(y_list[d:]), _abs_max(new_list[d:])) * rtol
                hs = h / scale
                err_rest = _rms(np.array([x * hs for x in np.dot(KT[7][d:], _DP_E).tolist()]))
                joint = joint or not err_rest < 1
                if joint and (err_rest > err or math.isnan(err_rest)):
                    err = err_rest
            if err < 1:
                factor = (_MAX_FACTOR if err == 0
                          else min(_MAX_FACTOR, _SAFETY * err ** _ERR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERR_EXPONENT)  # 0.2 if err is NaN
            rejected = True
        t_old, y_old, t, y, y_list = t, y, t_new, y_new, new_list
        if event is not None:
            g_old, g = g, event(t, y)
            if g_old >= 0 >= g:  # a terminal event of direction -1
                Q = K.T.dot(_DP_P)
                raise event_error(_brent(
                    lambda s: event(s, h * np.dot(Q, _dense_powers([s], t_old, h).ravel())
                                    + y_old),
                    t_old, t))
        j = bisect_right(grid_times, t)
        if j > i:
            x = _dense_powers(grid_times[i:j], t_old, h)
            out[i:j] = (h * np.dot(K.T.dot(_DP_P), x) + y_old[:, None]).T
            if split:
                out[i:j, :d] = (h * np.dot(Kd.T.dot(_DP_P), x) + y_old[:d, None]).T
            i = j
        K[0] = K[6]
        if split:
            Kd[0] = Kd[6]
    if i < len(grid):
        raise IntegrationError(f"integration stopped at t={t:.6g} before t_end",
                               last_time=t)
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("non-finite state produced during integration")
    return out


def _solve(model: HamiltonianModel, init: ExtendedState, t_end: float,
           opts: IntegratorOptions, grid: np.ndarray, tangent: bool) -> tuple:
    """(rows [q, p, S] of the flow at the grid times, J or None).  With
    `tangent`, J = dPhi solves dJ/dt = A J, J(t0) = I, where A = d(field)/dy,
    by the model's `tangent_rhs`, whose first rows are `field` itself.  J
    rides the flow's own steps, so the rows are those of the solve without J
    unless J's error estimate fails on one of them, from which step on J joins
    the error norm (see `_integrate_flat`); each right-hand side calls
    `tangent_rhs` once, and it calls `field` once."""
    y0 = init.flat()
    if not tangent:
        return _integrate_flat(model.field, y0, init.t, t_end, opts, grid), None
    d = len(y0)
    zs = _integrate_flat(model.tangent_rhs, np.concatenate([y0, np.eye(d).ravel()]), init.t,
                         t_end, opts, grid, d=d)
    return zs[:, :d], zs[:, d:].reshape(-1, d, d)


def integrate(model: HamiltonianModel, init: ExtendedState, t_end: float,
              opts: Optional[IntegratorOptions] = None,
              tangent: bool = False) -> Trajectory:
    """Integrate the contact equations from init.t to t_end and sample the flow.

    With `tangent`, the fundamental matrix J = dPhi of the variational
    equations dJ/dt = A J is integrated on the same steps, by the model's
    `tangent_rhs`, and returned as `Trajectory.J`.  The steps are chosen for
    (q, p, S) alone, so times, q, p, S, H and div are bit for bit those of the
    solve without J, as long as J's own error estimate (RMS over its entries,
    relative to rel_tol times its largest entry) stays under 1 on them.  Where
    it does not, as from a rest point, where the flow's steps are long and J
    still turns, J joins the error norm from that step on and the flow is
    sampled on the shorter steps that follow."""
    opts = opts or IntegratorOptions()
    model.check_dimensions(init)
    if t_end <= init.t:
        raise ValueError(f"t_end={t_end} must exceed the initial time {init.t}")
    n = model.n
    grid = sample_grid(init.t, t_end, opts.sample_interval)
    ys, J = _solve(model, init, t_end, opts, grid, tangent)
    times = grid.tolist()
    H = np.array([model.value(t, y) for t, y in zip(times, ys)], dtype=float)
    dv = np.array([-(n + 1) * model.grad(t, y)[2 * n] for t, y in zip(times, ys)],
                  dtype=float)
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(dv))):
        raise NonFiniteError("non-finite H or divergence at a sample point")
    return Trajectory(times=grid, q=ys[:, :n].copy(), p=ys[:, n:2 * n].copy(),
                      S=ys[:, 2 * n].copy(), H=H, div=dv, J=J)


# ---------------------------------------------------------------------------
# Flow diagnostics
# ---------------------------------------------------------------------------

def divergence(model: HamiltonianModel, x: ExtendedState) -> float:
    """Divergence of the contact flow in the (q, p, S) volume sense: -(n+1) dH/dS."""
    return -(model.n + 1) * float(model.partials(x)[2 * model.n])


def measure_weight(model: HamiltonianModel, x: ExtendedState) -> float:
    """Invariant-measure density |H|^-(n+1); defined only away from H = 0."""
    h = model.evaluate(x)
    if abs(h) <= MEASURE_EPS:
        raise SingularMeasureError(
            f"|H|={abs(h):.3g} <= {MEASURE_EPS:.3g}: invariant measure is singular on H=0")
    return abs(h) ** (-(model.n + 1))


def observable_rate(model: HamiltonianModel, observable: HamiltonianModel,
                    x: ExtendedState) -> float:
    """Total time derivative of an observable F(q, p, S, t) along the flow.

    dF/dt = -H dF/dS + p_a (dF/dS dH/dp_a - dF/dp_a dH/dS)
            + {F, H}_(q,p) + dF/dt.
    """
    n = model.n
    h = model.evaluate(x)
    dH = model.partials(x)
    dF = observable.partials(x)
    poisson = np.dot(dF[:n], dH[n:2 * n]) - np.dot(dF[n:2 * n], dH[:n])
    contact = np.dot(x.p, dF[2 * n] * dH[n:2 * n] - dH[2 * n] * dF[n:2 * n])
    return float(-h * dF[2 * n] + contact + poisson + dF[2 * n + 1])


def _cumulative_trapezoid(times: np.ndarray, x: np.ndarray) -> np.ndarray:
    """int x dt from times[0] to each sample, by the trapezoid rule on the samples."""
    dt = np.diff(times)
    return np.concatenate([[0.0], np.cumsum(0.5 * dt * (x[1:] + x[:-1]))])


def predicted_hamiltonian(traj: Trajectory) -> np.ndarray:
    """H(t) predicted from the decay law dH/dt = -H dH/dS of an autonomous H:
    H_0 exp(-int dH/dS dtau), with dH/dS = -div/(n+1) from the trajectory's
    samples and the trapezoid rule on the sample grid.  A time-dependent H adds
    dH/dt to the law, which this prediction leaves out."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    return traj.H[0] * np.exp(-_cumulative_trapezoid(traj.times, -traj.div / (traj.n + 1)))


def recover_S_linear(model: HamiltonianModel, q: float, p: float, t: float,
                     H0: float) -> float:
    """Solve the decay law of the linear-dissipation system for S(q, p, t)."""
    params = model.params
    if "gamma" not in params or "V" not in params or "m" not in params:
        raise UnsupportedModelError("recover_S_linear needs a linear-dissipation model")
    gamma, m, V = params["gamma"], params["m"], params["V"]
    if gamma == 0:
        raise ZeroDivisionError("recover_S_linear is undefined for gamma = 0")
    return (H0 * math.exp(-gamma * t) - p * p / (2.0 * m) - V(q)) / gamma


# ---------------------------------------------------------------------------
# Variational equations / volume contraction
# ---------------------------------------------------------------------------

def jacobian_determinant_series(model: HamiltonianModel, init: ExtendedState,
                                t_end: float,
                                opts: Optional[IntegratorOptions] = None) -> tuple:
    """(times, det dPhi_t) sampled like `integrate`: the volume-contraction
    factor, equal to exp(int divergence dt) along the flow up to integration
    tolerance and identically 1 for S-independent models (Liouville's theorem)."""
    opts = opts or IntegratorOptions()
    model.check_dimensions(init)
    if t_end <= init.t:
        raise ValueError(f"t_end={t_end} must exceed the initial time {init.t}")
    grid = sample_grid(init.t, t_end, opts.sample_interval)
    _, J = _solve(model, init, t_end, opts, grid, tangent=True)
    return grid, np.linalg.det(J)
