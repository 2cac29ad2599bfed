"""Analytic and semi-analytic machinery for the damped parametric oscillator.

Covers the auxiliary Ermakov amplitude alpha(t) and its phase integral, the
quadratic (Lewis-type) invariant and the S-dependent invariant, the closed
form of the motion built from them, the Riccati function C(t) driving the
quadratic Hamilton-Jacobi ansatz, and the coefficient construction for the
general quadratic invariant.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .dynamics import IntegratorOptions, _integrate_flat
from .errors import BranchError, DimensionMismatchError, ErmakovCollapseError, RiccatiPoleError
from .expressions import as_expression
from .model import FD_STEP, ExtendedState

SOLVER_OPTIONS = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)
COLLAPSE_EPS = 1e-6      # Ermakov amplitude below this aborts (1/alpha^3 stiffness)
RICCATI_BLOWUP = 1e8     # |C| beyond this counts as a pole


def _internal_nodes(grid: np.ndarray) -> np.ndarray:
    """Union of the requested grid with a uniform refinement for interpolation."""
    t0, t1 = float(grid[0]), float(grid[-1])
    span = t1 - t0
    m = max(64, int(math.ceil(span / 0.01)))
    fine = np.linspace(t0, t1, m + 1)
    return np.union1d(np.asarray(grid, dtype=float), fine)


def _solve(rhs, y0, grid, event, event_error) -> tuple:
    """(nodes, samples) of an adaptive solve over `_internal_nodes(grid)`."""
    ts = _internal_nodes(grid)
    ys = _integrate_flat(rhs, np.asarray(y0, dtype=float), float(ts[0]), float(ts[-1]),
                         SOLVER_OPTIONS, ts, event=event, event_error=event_error)
    return ts, ys.T


def _per_element(f, x):
    """f(x) for a float x, else f of each element of x as a float, in the shape of x:
    so powers and exponentials are the C library's, not numpy's SIMD-dependent ones."""
    if isinstance(x, float):
        return f(x)
    return np.array([f(v) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


def _check_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array with at least two nodes")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    return grid


class CubicHermite:
    """Piecewise cubic through values y and slopes dydx at increasing nodes x.

    Interval i holds c0 s^3 + c1 s^2 + c2 s + c3 in s = t - x_i, evaluated
    left to right as 0 + c3 + c2 s + c1 s^2 + c0 s^3; the end cubics
    extrapolate.  Calling it on an array returns an array of the same shape,
    through numpy.  A float (np.float64 included) takes a float path instead:
    the interval by `bisect` on the nodes, which is the index `searchsorted`
    gives, and the cubic in the same float operations in the same order, so
    the value is bit for bit the array path's at that t.  It reads the nodes
    and coefficient rows through memoryviews, which index to Python floats
    without a copy, made on the first float call.
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
        self._tables = None  # views of (x, c0, c1, c2, c3) for the float path

    def __call__(self, t):
        if not isinstance(t, float):
            return self._at_array(t)
        if self._tables is None:
            self._tables = tuple(memoryview(row) for row in (self.x, *self.c))
        x, c0, c1, c2, c3 = self._tables
        i = bisect_right(x, t, 1, len(x) - 1) - 1  # x[i] <= t < x[i+1] inside
        s = t - x[i]
        s2 = s * s
        return 0.0 + c3[i] + c2[i] * s + c1[i] * s2 + c0[i] * (s2 * s)

    def _at_array(self, t):
        t = np.asarray(t, dtype=float)
        i = self._inner.searchsorted(t, side="right")
        s, c = t - self.x[i], self.c
        s2 = s * s
        return 0.0 + c[3, i] + c[2, i] * s + c[1, i] * s2 + c[0, i] * (s2 * s)


class _Dense:
    """Bundle of the package's own `CubicHermite` interpolants over a common
    node set.

    Each lookup takes t in the solved range, widened by 1e-12 at both ends.  A
    float t (np.float64 included) is looked up in floats and gives a float,
    bit for bit the array path's value at that t; any other t goes through
    numpy and gives an array of its shape.  A NaN or out-of-range time raises
    ValueError naming the first such time and the solved range.
    """

    def __init__(self, ts: np.ndarray, gamma: float, omega, grid):
        self.t_range = (float(ts[0]), float(ts[-1]))
        self._lo, self._hi = self.t_range[0] - 1e-12, self.t_range[1] + 1e-12
        self.gamma = float(gamma)
        self.omega = omega
        self.grid = grid

    def _check_t(self, t):
        """t itself if it is a float in range, else t as a checked float array."""
        if isinstance(t, float) and self._lo <= t <= self._hi:
            return t
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

    def __init__(self, ts, alpha, alpha_dot, phase, gamma, omega, grid):
        super().__init__(ts, gamma, omega, grid)
        w = _per_element(self.omega, ts)
        add = -(w * w - 0.25 * gamma * gamma) * alpha + _per_element(lambda a: a ** -3.0, alpha)
        self._alpha = CubicHermite(ts, alpha, alpha_dot)
        self._alpha_dot = CubicHermite(ts, alpha_dot, add)
        self._phase = CubicHermite(ts, phase, _per_element(lambda a: a ** -2.0, alpha))

    def alpha(self, t):
        return self._alpha(self._check_t(t))

    def alpha_dot(self, t):
        return self._alpha_dot(self._check_t(t))

    def alpha_ddot(self, t):
        """Second derivative through the defining equation (exact given alpha)."""
        t = self._check_t(t)
        a, w = self._alpha(t), _per_element(self.omega, t)
        return -(w * w - 0.25 * self.gamma ** 2) * a + _per_element(lambda x: x ** -3.0, a)

    def phase(self, t):
        """phi(t), measured from the grid origin; strictly increasing."""
        return self._phase(self._check_t(t))

    def residual(self, t):
        """alpha'' + (omega^2 - gamma^2/4) alpha - 1/alpha^3 with alpha'' by
        central finite differences of the alpha' interpolant (step 1e-4)."""
        t = self._check_t(t)
        h = 1e-4
        add = (self._alpha_dot(t + h) - self._alpha_dot(t - h)) / (2 * h)
        a, w = self._alpha(t), _per_element(self.omega, t)
        return add + (w * w - 0.25 * self.gamma ** 2) * a - _per_element(lambda x: x ** -3.0, a)


def solve_ermakov(omega, gamma: float, alpha0: float, alpha_dot0: float,
                  grid) -> ErmakovSolution:
    """Integrate the auxiliary equation together with its phase integral.

    Aborts with the collapse time if alpha(t) approaches zero (the 1/alpha^3
    term makes the equation stiff there).
    """
    grid = _check_grid(grid)
    if alpha0 <= 0:
        raise ValueError("alpha0 must be positive")
    wfn = as_expression(omega, "t", "omega")
    g2 = 0.25 * gamma * gamma

    def rhs(t, y):
        a, ad, _phi = y.tolist()
        w = wfn(t)
        try:
            return [ad, -(w * w - g2) * a + a ** -3.0, a ** -2.0]
        except (ZeroDivisionError, OverflowError):  # alpha = 0 or tiny: the stage is rejected
            return [ad, math.inf, math.inf]

    def collapsed(tc):
        return ErmakovCollapseError(
            f"Ermakov amplitude collapsed below {COLLAPSE_EPS:g} at t={tc:.6g}",
            last_time=tc)

    ts, (alpha, alpha_dot, phase) = _solve(
        rhs, [alpha0, alpha_dot0, 0.0], grid,
        lambda t, y: y[0] - COLLAPSE_EPS, collapsed)
    return ErmakovSolution(ts, alpha, alpha_dot, phase, gamma, wfn, grid)


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
    t, e, q, p, _ = _unpack(gamma, t, y)
    a = erm.alpha(t)
    u = erm.alpha_dot(t) - 0.5 * gamma * a
    A = a * p / m - u * q
    r = q / a
    return (0.5 * m * e * (A * A + r * r))[()]


def g_invariant(gamma: float, t, y):
    """The S-dependent invariant G = e^{gt} (S - q p / 2) at time t and point
    y = (q, p, S), or at k times t and rows y of shape (k, 3)."""
    _, e, q, p, S = _unpack(gamma, t, y)
    return (e * (S - 0.5 * q * p))[()]


def invariants_from_state(m: float, gamma: float, erm: ErmakovSolution,
                          x: ExtendedState):
    """(I, G, phi0) reproducing x through `analytic_state` at time x.t."""
    I = lewis_invariant(m, gamma, erm, x.t, x.flat())
    G = g_invariant(gamma, x.t, x.flat())
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
    e = np.exp(gamma * t)
    a = np.asarray(erm.alpha(t))
    u = np.asarray(erm.alpha_dot(t)) - 0.5 * gamma * a
    beta = e * a * a / (2.0 * m)
    eta = e * 0.5 * m * (u * u + a ** -2.0)
    xi = e * (0.5 * a * u + 0.25 * zeta0)
    zeta = zeta0 * e
    return beta[()], eta[()], xi[()], zeta[()]


# ---------------------------------------------------------------------------
# Riccati route
# ---------------------------------------------------------------------------

class RiccatiSolution(_Dense):
    """Dense solution of C' = -C^2 - gamma C - omega(t)^2 together with the
    companion damped Newton solution lambda (lambda(t0)=1, lambda'(t0)=C0),
    linked by C = lambda'/lambda wherever lambda != 0."""

    def __init__(self, ts, C, lam, lam_dot, gamma, omega, C0, grid):
        super().__init__(ts, gamma, omega, grid)
        self.C0 = float(C0)
        w = _per_element(self.omega, ts)
        self._C = CubicHermite(ts, C, -C * C - gamma * C - w * w)
        self._lam = CubicHermite(ts, lam, lam_dot)
        self._lam_dot = CubicHermite(ts, lam_dot, -gamma * lam_dot - w * w * lam)

    def C(self, t):
        return self._C(self._check_t(t))

    def lam(self, t):
        return self._lam(self._check_t(t))

    def lam_dot(self, t):
        return self._lam_dot(self._check_t(t))

    def C_dot(self, t):
        """C' through the defining equation (exact given C)."""
        t = self._check_t(t)
        c, w = self._C(t), _per_element(self.omega, t)
        return -c * c - self.gamma * c - w * w


def _riccati_rhs(wfn, gamma):
    def rhs(t, y):
        C, lam, lam_dot = y.tolist()
        w2 = wfn(t) ** 2
        return [-C * C - gamma * C - w2, lam_dot, -gamma * lam_dot - w2 * lam]
    return rhs


def solve_riccati(omega, gamma: float, C0: float, grid) -> RiccatiSolution:
    """Integrate the Riccati equation, detecting finite-time blow-up.

    Riccati solutions generically have poles (where the companion lambda
    vanishes); crossing one raises with the escape time rather than silently
    continuing on the far branch.
    """
    grid = _check_grid(grid)
    wfn = as_expression(omega, "t", "omega")

    def pole(tp):
        return RiccatiPoleError(
            f"Riccati solution blew up (|C| > {RICCATI_BLOWUP:g}) at t={tp:.6g}",
            last_time=tp)

    ts, (C, lam, lam_dot) = _solve(_riccati_rhs(wfn, gamma), [C0, 1.0, C0], grid,
                                   lambda t, y: RICCATI_BLOWUP - abs(y[0]), pole)
    return RiccatiSolution(ts, C, lam, lam_dot, gamma, wfn, C0, grid)


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
    """dC/dC0 as a dense `CubicHermite` callable, by paired solves at C0 +/- delta,
    delta = FD_STEP * max(1, |C0|).

    The two initial conditions are advanced as one stacked system so that they
    share the adaptive step sequence; the centered difference then cancels the
    common local error instead of amplifying it by 1/delta.
    """
    grid = _check_grid(grid)
    wfn = as_expression(omega, "t", "omega")
    delta = FD_STEP * max(1.0, abs(C0))

    def rhs(t, y):
        w2 = wfn(t) ** 2
        return -y * y - gamma * y - w2

    def pole(tp):
        return RiccatiPoleError(
            f"Riccati pair blew up at t={tp:.6g} during sensitivity solve",
            last_time=tp)

    ts, (hi, lo) = _solve(rhs, [C0 + delta, C0 - delta], grid,
                          lambda t, y: RICCATI_BLOWUP - float(np.max(np.abs(y))), pole)
    sens = (hi - lo) / (2.0 * delta)
    w2 = np.array([wfn(float(t)) ** 2 for t in ts])
    dsens = ((-hi ** 2 - gamma * hi - w2)
             - (-lo ** 2 - gamma * lo - w2)) / (2.0 * delta)
    return CubicHermite(ts, sens, dsens)


# ---------------------------------------------------------------------------
# Hamilton-Jacobi route
# ---------------------------------------------------------------------------

def trajectory_from_hj(m: float, gamma: float, b0: float, C0: float,
                       ric: RiccatiSolution, t):
    """Recover q(t) from the principal-function family via the constant b0:

        q(t) = sqrt( (2 b0 e^{-g (t - t0)} / m) / (dC/dC0)(t) ).

    The sensitivity dC/dC0 comes from paired Riccati solves; it must stay
    positive on the requested times (it does wherever C itself is finite).
    """
    if b0 <= 0:
        raise ValueError("b0 must be positive")
    if abs(ric.gamma - gamma) > 1e-12 or abs(ric.C0 - C0) > 1e-12:
        raise ValueError("gamma/C0 disagree with the supplied Riccati solution")
    t = np.asarray(t, dtype=float)
    sens = riccati_sensitivity(ric.omega, gamma, C0, ric.grid)(t)
    if np.any(sens <= 0):
        raise BranchError("dC/dC0 is not positive at the requested times")
    elapsed = t - ric.t_range[0]
    return np.sqrt(2.0 * b0 * np.exp(-gamma * elapsed) / (m * sens))[()]
