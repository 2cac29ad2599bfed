"""Analytic and semi-analytic machinery for the damped parametric oscillator.

Covers the auxiliary Ermakov amplitude alpha(t) and its phase integral, the
quadratic (Lewis-type) invariant and the S-dependent invariant, the closed
form of the motion built from them, the Riccati function C(t) driving the
quadratic Hamilton-Jacobi ansatz, and the coefficient construction for the
general quadratic invariant.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import IntegratorOptions, _integrate_flat
from .errors import (DimensionMismatchError, ErmakovCollapseError, NonFiniteError,
                     RiccatiPoleError)
from .expressions import as_expression
from .model import ExtendedState, _per_element

SOLVER_OPTIONS = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)
# The Riccati route's (lambda, lambda') solve: at SOLVER_OPTIONS its longer
# steps leave dC/dC0 = e^{-gamma t} / lambda^2 about 6e-11 off
RICCATI_OPTIONS = IntegratorOptions(rel_tol=1e-11, abs_tol=1e-13)
COLLAPSE_EPS = 1e-6      # Ermakov amplitude below this aborts (1/alpha^3 stiffness)
ADIABATIC_LIMIT = 1.0    # |Omega'|/Omega^2 at t0 below this starts alpha adiabatically
# The Ermakov residual's difference step: its truncation error, h^2 times the
# alpha' cubic's leading coefficient, and its rounding, about eps |alpha'| / h,
# both stay near 1e-10, two decades under the invariants check's 1e-7 gate
RESIDUAL_STEP = 1e-5
NODE_SPACING = 0.01      # the interpolation nodes' uniform refinement is this fine
MAX_NODES = 10 ** 7      # a span needing more refinement nodes than this is refused


def _internal_nodes(grid: np.ndarray) -> np.ndarray:
    """Union of the requested grid with a uniform refinement for interpolation,
    sorted, each time once; a ValueError, before anything is allocated, for a
    span that needs more than MAX_NODES refinement nodes."""
    t0, t1 = float(grid[0]), float(grid[-1])
    span = t1 - t0
    if not span / NODE_SPACING <= MAX_NODES:
        raise ValueError(f"the span [{t0!r}, {t1!r}] needs more than {MAX_NODES} "
                         f"interpolation nodes {NODE_SPACING} apart")
    m = max(64, int(math.ceil(span / NODE_SPACING)))
    # sorted, without adjacent repeats: np.union1d's array, without its np.unique,
    # which imports numpy.ma
    ts = np.sort(np.concatenate([np.asarray(grid, dtype=float), np.linspace(t0, t1, m + 1)]))
    return ts[np.concatenate([[True], ts[1:] != ts[:-1]])]


def _solve(rhs, y0, grid, opts, event, event_error, **starts) -> tuple:
    """(nodes, samples) of the adaptive solve of y' = rhs(t, y) from y0 at opts
    over `_internal_nodes(grid)`; each of the named `starts` must be finite."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array with at least two nodes")
    if not np.isfinite(grid).all():
        raise ValueError(f"grid must be finite: got {float(grid[~np.isfinite(grid)][0])!r}")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    for name, value in starts.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite: got {float(value)!r}")
    ts = _internal_nodes(grid)
    ys = _integrate_flat(rhs, np.asarray(y0, dtype=float), float(ts[0]), float(ts[-1]),
                         opts, ts, event=event, event_error=event_error)
    return ts, ys.T


def _inverse_cube(a: float) -> float:
    return a ** -3.0


# The auxiliary equations, each on floats or on arrays (alpha^-3 by libm's pow
# per element, never numpy's SIMD power, whose last bit depends on the host)

def ermakov_ddot(a, w, gamma: float):
    """alpha'' = -(w^2 - gamma^2/4) alpha + alpha^-3."""
    return -(w * w - 0.25 * gamma * gamma) * a + _per_element(_inverse_cube, a)


def riccati_dot(C, w, gamma: float):
    """C' = -C^2 - gamma C - w^2."""
    return -C * C - gamma * C - w * w


def newton_ddot(lam, lam_dot, w, gamma: float):
    """lambda'' = -gamma lambda' - w^2 lambda."""
    return -gamma * lam_dot - w * w * lam


class CubicHermite:
    """Piecewise cubic through values y and slopes dydx at increasing nodes x.

    Interval i holds c0 s^3 + c1 s^2 + c2 s + c3 in s = t - x_i, evaluated
    left to right as 0 + c3 + c2 s + c1 s^2 + c0 s^3; the end cubics
    extrapolate.  A call goes through numpy: an array gives an array of its
    shape, a number an np.float64.
    """

    def __init__(self, x, y, dydx):
        x, y, dydx = (np.asarray(v, dtype=float) for v in (x, y, dydx))
        if not (np.isfinite(y).all() and np.isfinite(dydx).all()):
            raise ValueError("interpolated values and slopes must be finite")
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        self.x, self._inner = x, x[1:-1]
        self.c = np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        i = self._inner.searchsorted(t, side="right")
        s, c = t - self.x[i], self.c
        s2 = s * s
        return 0.0 + c[3, i] + c[2, i] * s + c[1, i] * s2 + c[0, i] * (s2 * s)


class _Dense:
    """Bundle of the package's own `CubicHermite` interpolants over a common
    node set.

    Each lookup takes t in the solved range, widened by 1e-12 at both ends,
    through numpy: an array gives an array of its shape, a number an
    np.float64.  A NaN or out-of-range time raises ValueError naming the first
    such time and the solved range.
    """

    def __init__(self, ts: np.ndarray, gamma: float, omega):
        self.t_range = (float(ts[0]), float(ts[-1]))
        self._lo, self._hi = self.t_range[0] - 1e-12, self.t_range[1] + 1e-12
        self.gamma = float(gamma)
        self.omega = omega

    def _check_t(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if t.size and not (self._lo <= t.min() and t.max() <= self._hi):
            flat = t.ravel()
            bad = float(flat[~((self._lo <= flat) & (flat <= self._hi))][0])
            lo, hi = self.t_range
            raise ValueError(f"t={bad!r} is outside the solved range [{lo!r}, {hi!r}]")
        return t


class ErmakovSolution(_Dense):
    """Dense solution of the damped-oscillator auxiliary (Ermakov) equation

        alpha'' + (omega(t)^2 - gamma^2/4) alpha = 1 / alpha^3,  alpha > 0,

    with the accumulated phase phi(t) = int_{t0}^{t} dtau / alpha(tau)^2.
    """

    def __init__(self, ts, alpha, alpha_dot, phase, gamma, omega):
        super().__init__(ts, gamma, omega)
        self._alpha = CubicHermite(ts, alpha, alpha_dot)
        self._alpha_dot = CubicHermite(ts, alpha_dot, ermakov_ddot(alpha, self.omega(ts), gamma))
        self._phase = CubicHermite(ts, phase, _per_element(lambda a: a ** -2.0, alpha))

    def alpha(self, t):
        return self._alpha(self._check_t(t))

    def alpha_dot(self, t):
        return self._alpha_dot(self._check_t(t))

    def alpha_ddot(self, t):
        """Second derivative through the defining equation (exact given alpha)."""
        t = self._check_t(t)
        return ermakov_ddot(self._alpha(t), self.omega(t), self.gamma)

    def phase(self, t):
        """phi(t), measured from the grid origin; strictly increasing."""
        return self._phase(self._check_t(t))

    def residual(self, t):
        """alpha'' + (omega^2 - gamma^2/4) alpha - 1/alpha^3 with alpha'' by
        central finite differences of the alpha' interpolant, step
        RESIDUAL_STEP."""
        t = self._check_t(t)
        h = RESIDUAL_STEP
        add = (self._alpha_dot(t + h) - self._alpha_dot(t - h)) / (2 * h)
        a, w = self._alpha(t), self.omega(t)
        return add + (w * w - 0.25 * self.gamma ** 2) * a - _per_element(_inverse_cube, a)


def ermakov_start(omega, gamma: float, t0: float) -> tuple:
    """(alpha0, alpha_dot0) of the Ermakov solve from t0.

    With Omega^2 = omega(t0)^2 - gamma^2/4 and Omega' = omega omega'/Omega, it
    is the first-order adiabatic branch (Omega^(-1/2), -Omega^(-5/2) omega
    omega'/2) when Omega^2 > 0 and |Omega'|/Omega^2 < ADIABATIC_LIMIT, else
    (1, 0).  Any positive solution serves the invariants; the adiabatic one
    varies slowly, without the 2 Omega oscillation of other starts, so the
    solve takes longer steps, and for constant omega and gamma it is the
    stationary solution.
    """
    wfn = as_expression(omega, "t", "omega")
    w, dw = wfn(t0), wfn.derivative(t0)
    big2 = w * w - 0.25 * gamma * gamma
    if big2 > 0:
        big = math.sqrt(big2)
        if abs(w * dw / big) < ADIABATIC_LIMIT * big2:
            return big ** -0.5, -0.5 * big ** -2.5 * w * dw
    return 1.0, 0.0


def solve_ermakov(omega, gamma: float, alpha0: float, alpha_dot0: float,
                  grid) -> ErmakovSolution:
    """Integrate the auxiliary equation together with its phase integral.

    Aborts with the collapse time if alpha(t) approaches zero (the 1/alpha^3
    term makes the equation stiff there).
    """
    if alpha0 <= 0:
        raise ValueError("alpha0 must be positive")
    wfn = as_expression(omega, "t", "omega")
    w_at = wfn._value

    def rhs(t, y):
        a, ad, _phi = y.tolist()
        w = w_at(float(t))
        try:
            return [ad, ermakov_ddot(a, w, gamma), a ** -2.0]
        except (ZeroDivisionError, OverflowError):  # alpha = 0 or tiny: the stage is rejected
            return [ad, math.inf, math.inf]

    def collapsed(tc):
        return ErmakovCollapseError(
            f"Ermakov amplitude collapsed below {COLLAPSE_EPS:g} at t={tc:.6g}",
            last_time=tc)

    ts, (alpha, alpha_dot, phase) = _solve(
        rhs, [alpha0, alpha_dot0, 0.0], grid, SOLVER_OPTIONS, lambda t, y: y[0] - COLLAPSE_EPS,
        collapsed, alpha0=alpha0, alpha_dot0=alpha_dot0)
    return ErmakovSolution(ts, alpha, alpha_dot, phase, gamma, wfn)


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

def _unpack(gamma: float, t, y) -> tuple:
    """(t, e^{gamma t}, q, p, S) of a point y = (q, p, S) at time t, or of k rows y
    at k times t; e^{gamma t} is `math.exp` per element (numpy's differs in last bits)."""
    t, y = np.asarray(t, dtype=float), np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != 3 or t.shape != y.shape[:-1]:
        raise DimensionMismatchError(f"the invariants need n = 1 points (q, p, S), one per "
                                     f"time: got shapes {t.shape} and {y.shape}")
    e = _per_element(lambda x: math.exp(gamma * x), t)
    return (t, e, *y.T)


def lewis_invariant(m: float, gamma: float, erm: ErmakovSolution, t, y):
    """Quadratic invariant of the damped parametric oscillator at time t and
    point y = (q, p, S), or at k times t and rows y of shape (k, 3):

    I = (m e^{gt}/2) [ (alpha p/m - [alpha' - g alpha/2] q)^2 + (q/alpha)^2 ];
    reduces to the classic parametric-oscillator invariant at gamma = 0.
    """
    return _lewis(m, gamma, erm, y, *_unpack(gamma, t, y)[:4])


def _lewis(m: float, gamma: float, erm: ErmakovSolution, y, t, e, q, p):
    """`lewis_invariant` from the (t, e^{gamma t}, q, p) of `_unpack`."""
    a = erm.alpha(t)
    u = erm.alpha_dot(t) - 0.5 * gamma * a
    with np.errstate(over="ignore", invalid="ignore"):
        A = a * p / m - u * q
        r = q / a
        I = 0.5 * m * e * (A * A + r * r)
    bad = ~np.isfinite(I)
    if bad.any():  # such as p/m or its square past the float range
        i = np.flatnonzero(bad)[0]
        raise NonFiniteError(f"the Lewis invariant is non-finite at t={t.flat[i].item()!r}, "
                             f"y={np.reshape(y, (-1, 3))[i]}: {I.flat[i].item()!r}")
    return I[()]


def g_invariant(gamma: float, t, y):
    """The S-dependent invariant G = e^{gt} (S - q p / 2) at time t and point
    y = (q, p, S), or at k times t and rows y of shape (k, 3)."""
    return _g(*_unpack(gamma, t, y)[1:])


def _g(e, q, p, S):
    return (e * (S - 0.5 * q * p))[()]


def invariants(m: float, gamma: float, erm: ErmakovSolution, t, y) -> tuple:
    """(`lewis_invariant`, `g_invariant`) at t and y, bit for bit, from one
    e^{gamma t} per time."""
    t, e, q, p, S = _unpack(gamma, t, y)
    return _lewis(m, gamma, erm, y, t, e, q, p), _g(e, q, p, S)


def invariants_from_state(m: float, gamma: float, erm: ErmakovSolution,
                          x: ExtendedState):
    """(I, G, phi0) reproducing x through `analytic_state` at time x.t."""
    I, G = invariants(m, gamma, erm, x.t, x.flat())
    q, p, t = x.q[0], x.p[0], x.t
    a = erm.alpha(t)
    u = erm.alpha_dot(t) - 0.5 * gamma * a
    A = a * p / m - u * q
    phi0 = math.atan2(-A, q / a) - erm.phase(t)
    return I, G, phi0


def analytic_state(m: float, gamma: float, erm: ErmakovSolution, I: float,
                   G: float, phi0: float, t: float,
                   growing_exponent: bool = False) -> ExtendedState:
    """Closed-form state of the damped parametric oscillator at time t.

        q(t) = sqrt(2 I / m) e^{-g t/2} alpha cos(phi)
        p(t) = sqrt(2 m I)  e^{-g t/2} [(alpha' - g alpha/2) cos(phi) - sin(phi)/alpha]
        S(t) = e^{-g t} G + q p / 2,    phi(t) = phi0 + int dtau / alpha^2.

    ``growing_exponent=True`` swaps the e^{-g t/2} prefactor for e^{+g t}; that
    variant violates constancy of the quadratic invariant whenever gamma > 0
    and is provided only so the failure can be demonstrated.
    """
    if I < 0:
        raise ValueError("the quadratic invariant must be non-negative")
    a = erm.alpha(t)
    u = erm.alpha_dot(t) - 0.5 * gamma * a
    phi = phi0 + erm.phase(t)
    pref = math.exp(gamma * t) if growing_exponent else math.exp(-0.5 * gamma * t)
    q = math.sqrt(2.0 * I / m) * pref * a * math.cos(phi)
    p = math.sqrt(2.0 * m * I) * pref * (u * math.cos(phi) - math.sin(phi) / a)
    S = math.exp(-gamma * t) * G + 0.5 * q * p
    return ExtendedState(q, p, S, t)


def quadratic_invariant_coefficients(m: float, gamma: float, zeta0: float,
                                     erm: ErmakovSolution, t):
    """Coefficients (beta, eta, xi, zeta) of the quadratic invariant

        F = beta p^2 - 2 xi q p + eta q^2 + zeta S = I + zeta0 G.

    The xi term carries zeta0/4 (not a fixed 1/4): the coefficient system only
    closes for arbitrary zeta0 with that scaling, matching the decomposition
    into the two elementary invariants.
    """
    t = np.asarray(t, dtype=float)
    e = _per_element(lambda x: math.exp(gamma * x), t)
    a = np.asarray(erm.alpha(t))
    u = np.asarray(erm.alpha_dot(t)) - 0.5 * gamma * a
    beta = e * a * a / (2.0 * m)
    eta = e * 0.5 * m * (u * u + _per_element(lambda x: x ** -2.0, a))
    xi = e * (0.5 * a * u + 0.25 * zeta0)
    zeta = zeta0 * e
    return beta[()], eta[()], xi[()], zeta[()]


# ---------------------------------------------------------------------------
# Riccati route
# ---------------------------------------------------------------------------

class RiccatiSolution(_Dense):
    """Dense solution of C' = -C^2 - gamma C - omega(t)^2 as C = lambda'/lambda,
    from the damped Newton solution lambda (lambda(t0) = 1, lambda'(t0) = C0)
    on a range where lambda > 0: cubic Hermite interpolants of lambda and
    lambda' times e^{-sigma}, and of sigma, and of no C of its own."""

    def __init__(self, ts, lam, lam_dot, sigma, gamma, omega, C0):
        super().__init__(ts, gamma, omega)
        self.C0 = float(C0)
        w = self.omega(ts)
        rate = _newton_rate(w, gamma)
        self._lam = CubicHermite(ts, lam, lam_dot - rate * lam)
        self._lam_dot = CubicHermite(ts, lam_dot, newton_ddot(lam, lam_dot, w, gamma) - rate * lam_dot)
        self._sigma = CubicHermite(ts, sigma, rate)

    def C(self, t):
        t = self._check_t(t)
        return self._lam_dot(t) / self._lam(t)

    def lam(self, t):
        t = self._check_t(t)
        return _per_element(math.exp, self._sigma(t)) * self._lam(t)

    def lam_dot(self, t):
        t = self._check_t(t)
        return _per_element(math.exp, self._sigma(t)) * self._lam_dot(t)

    def C_dot(self, t):
        """C' through the defining equation (exact given C)."""
        t = self._check_t(t)
        return riccati_dot(self.C(t), self.omega(t), self.gamma)

    def dC_dC0(self, t):
        """dC/dC0 = e^{-gamma (t - t0)} / lambda(t)^2 by Abel's formula (the
        variation d of C0 obeys d' = -(2C + gamma) d, d(t0) = 1), taken as
        e^{-gamma (t - t0) - 2 sigma} over the scaled lambda squared."""
        t = self._check_t(t)
        lam, x = self._lam(t), -self.gamma * (t - self.t_range[0]) - 2.0 * self._sigma(t)
        return _per_element(math.exp, x) / (lam * lam)


def _newton_rate(w, gamma: float):
    """The real part of the larger root of r^2 + gamma r + w^2, the rate at
    which lambda grows or decays for constant omega = w (0 at w = 0 <= gamma);
    of a float w by `math.sqrt`, else per element by numpy's, rounding alike."""
    h = 0.5 * gamma
    if isinstance(w, np.ndarray):
        return np.sqrt(np.maximum(h * h - w * w, 0.0)) - h
    return math.sqrt(max(h * h - w * w, 0.0)) - h


def solve_riccati(omega, gamma: float, C0: float, grid) -> RiccatiSolution:
    """Solve the Riccati equation through its linearisation C = lambda'/lambda:
    one solve of the damped Newton equation lambda'' = -gamma lambda' -
    omega^2 lambda from (1, C0), at RICCATI_OPTIONS, for (lambda, lambda')
    times e^{-sigma}, with sigma' = `_newton_rate` at omega(t): that pair obeys
    the same equation less sigma' times itself and stays near its start as
    lambda decays, so the error stays relative where lambda underflows.

    Riccati solutions generically have poles, at the zeros of lambda; the
    first one raises with its time, located on the step that crosses it,
    rather than continuing on the far branch.
    """
    wfn = as_expression(omega, "t", "omega")
    w_at = wfn._value

    def rhs(t, y):
        lam, lam_dot, _sigma = y.tolist()
        w = w_at(float(t))
        rate = _newton_rate(w, gamma)
        return [lam_dot - rate * lam, newton_ddot(lam, lam_dot, w, gamma) - rate * lam_dot, rate]

    def pole(tp):
        return RiccatiPoleError(f"Riccati solution has a pole at t={tp:.6g}, where lambda = 0",
                                last_time=tp)

    ts, (lam, lam_dot, sigma) = _solve(rhs, [1.0, C0, 0.0], grid, RICCATI_OPTIONS,
                                       lambda t, y: y[0], pole, C0=C0)
    return RiccatiSolution(ts, lam, lam_dot, sigma, gamma, wfn, C0)


def riccati_free_particle(gamma: float, C0: float, t):
    """Closed-form Riccati solution for the damped free particle (omega = 0):

        C(t) = e^{-g t} / (1/C0 + (1 - e^{-g t}) / g),  C(0) = C0.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive for the closed form")
    t = np.asarray(t, dtype=float)
    if C0 == 0.0:
        return np.zeros_like(t)[()]
    denom = 1.0 / C0 + (1.0 - np.exp(-gamma * t)) / gamma
    if C0 < 0 and np.any(denom >= 0):
        raise RiccatiPoleError(
            f"closed-form Riccati pole crossed before t={float(np.max(t)):.6g}")
    return (np.exp(-gamma * t) / denom)[()]


def riccati_sensitivity(omega, gamma: float, C0: float, grid):
    """dC/dC0 as the range-checked callable `RiccatiSolution.dC_dC0` of the one
    Riccati solve from C0, exact by Abel's formula e^{-g (t - t0)} / lambda^2."""
    return solve_riccati(omega, gamma, C0, grid).dC_dC0


# ---------------------------------------------------------------------------
# Hamilton-Jacobi route
# ---------------------------------------------------------------------------

def trajectory_from_hj(m: float, gamma: float, b0: float, C0: float,
                       ric: RiccatiSolution, t):
    """Recover q(t) from the principal-function family via the constant b0:

        q(t) = sqrt( (2 b0 e^{-g (t - t0)} / m) / (dC/dC0)(t) ) = sqrt(2 b0 / m) |lambda(t)|,

    since dC/dC0 = e^{-g (t - t0)} / lambda^2 by Abel's formula; no solve is
    started, and a time outside the solved range is refused.
    """
    if b0 <= 0:
        raise ValueError("b0 must be positive")
    if abs(ric.gamma - gamma) > 1e-12 or abs(ric.C0 - C0) > 1e-12:
        raise ValueError("gamma/C0 disagree with the supplied Riccati solution")
    return (math.sqrt(2.0 * b0 / m) * np.abs(ric.lam(t)))[()]
