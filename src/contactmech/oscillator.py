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

from .dynamics import _DOP853, IntegratorOptions, _integrate_flat
from .errors import DimensionMismatchError, NonFiniteError, RiccatiPoleError
from .expressions import as_expression
from .model import ExtendedState, _per_element

# The Ermakov pair's solve, whose longer Dormand-Prince 8(5,3) steps at this
# tolerance take about a third of RK45's right-hand-side calls
SOLVER_OPTIONS = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)
# The Riccati solve's, tighter: at rel_tol 1e-12 C misses its slow-root bound of 5e-11
RICCATI_OPTIONS = IntegratorOptions(rel_tol=1e-13, abs_tol=1e-15)
ADIABATIC_LIMIT = 1.0    # |Omega'|/Omega^2 at t0 below this starts alpha adiabatically
# The Ermakov residual's five-point step h: truncation h^4 alpha^(6) / 30 and rounding
# 1.5 eps |alpha'| / h, over the spans t + h rounds to, are near 1e-10 at RESIDUAL_STEP.  Near
# a dip, alpha^(6) ~ alpha^-11 and alpha''s rounding ~ eps / alpha balance at DIP_STEP alpha^2
RESIDUAL_STEP = 1e-5
DIP_STEP = 1e-3
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


def _solve(dot, omega, gamma: float, y0, grid, opts, event=None, event_error=None,
           **starts) -> tuple:
    """(nodes, samples) of the Dormand-Prince 8(5,3) solve of y' = dot(y, omega(t),
    gamma), on the state's floats, from y0 at opts over `_internal_nodes(grid)`;
    each of the named `starts` must be finite."""
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
    w_at = omega._value

    def rhs(t, y):
        return dot(y.tolist(), w_at(float(t)), gamma)

    ts = _internal_nodes(grid)
    ys = _integrate_flat(rhs, np.asarray(y0, dtype=float), float(ts[0]), float(ts[-1]),
                         opts, ts, event=event, event_error=event_error, tableau=_DOP853)
    return ts, ys.T


# The auxiliary equations, each on floats or on arrays (alpha^-3 by libm's pow
# per element, never numpy's SIMD power, whose last bit depends on the host)

def ermakov_ddot(a, w, gamma: float):
    """alpha'' = -(w^2 - gamma^2/4) alpha + alpha^-3."""
    return -(w * w - 0.25 * gamma * gamma) * a + _per_element(lambda x: x ** -3.0, a)


def pinney_dot(y, w, gamma: float) -> list:
    """(u1', u1'', u2', u2'') of the pair y = (u1, u1', u2, u2'), u'' = -(w^2 - gamma^2/4) u."""
    big2 = w * w - 0.25 * gamma * gamma
    return [y[1], -big2 * y[0], y[3], -big2 * y[2]]


def riccati_dot(C, w, gamma: float):
    """C' = -C^2 - gamma C - w^2."""
    return -C * C - gamma * C - w * w


def newton_dot(y, w, gamma: float) -> list:
    """The derivative of y = (lambda e^{-sigma}, lambda' e^{-sigma}, sigma) for the
    damped Newton equation lambda'' = -gamma lambda' - w^2 lambda, with sigma' =
    `_newton_rate`: each scaled component's own derivative less sigma' times it."""
    lam, lam_dot = y[0], y[1]
    rate = _newton_rate(w, gamma)
    return [lam_dot - rate * lam, -gamma * lam_dot - w * w * lam - rate * lam_dot, rate]


def _newton_rate(w, gamma: float):
    """The real part of the larger root of r^2 + gamma r + w^2, the rate at
    which lambda grows or decays for constant omega = w (0 at w = 0 <= gamma);
    of a float w by `math.sqrt`, else per element by numpy's, rounding alike."""
    h = 0.5 * gamma
    if isinstance(w, np.ndarray):
        return np.sqrt(np.maximum(h * h - w * w, 0.0)) - h
    return math.sqrt(max(h * h - w * w, 0.0)) - h


class CubicHermite:
    """Piecewise cubic through values y and slopes dydx at increasing nodes x,
    or several such stacked on leading axes of y and dydx, which a call keeps.

    Interval i holds c0 s^3 + c1 s^2 + c2 s + c3 in s = t - x_i, evaluated
    left to right as 0 + c3 + c2 s + c1 s^2 + c0 s^3; the end cubics
    extrapolate.  A call goes through numpy: an array gives an array of its
    shape, a number an np.float64.  Coefficients that overflow, as on nodes
    1e-182 apart, raise NonFiniteError naming the smallest node spacing.
    """

    @np.errstate(over="ignore", invalid="ignore")  # an overflow raises below
    def __init__(self, x, y, dydx):
        x, y, dydx = (np.asarray(v, dtype=float) for v in (x, y, dydx))
        if not (np.isfinite(y).all() and np.isfinite(dydx).all()):
            raise ValueError("interpolated values and slopes must be finite")
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (dydx[..., :-1] + dydx[..., 1:] - 2 * slope) / dx
        self.x, self._inner = x, x[1:-1]
        self.c = np.stack((t / dx, (slope - dydx[..., :-1]) / dx - t, dydx[..., :-1], y[..., :-1]))
        if not np.isfinite(self.c).all():
            raise NonFiniteError("the cubic Hermite coefficients overflow on nodes "
                                 f"{dx.min():.3g} apart")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        i = self._inner.searchsorted(t, side="right")
        s, c = t - self.x[i], self.c[..., i]
        s2 = s * s
        return 0.0 + c[3] + c[2] * s + c[1] * s2 + c[0] * (s2 * s)


class _Dense:
    """A solve's samples ys at nodes ts as one stacked `CubicHermite`, `_curve`,
    whose slopes are the solved right-hand side dot(ys, omega(ts), gamma).

    Each lookup takes t in the solved range, widened by 1e-12 at both ends,
    through numpy: an array gives an array of its shape, a number an
    np.float64.  A NaN or out-of-range time raises ValueError naming the first
    such time and the solved range.
    """

    def __init__(self, ts: np.ndarray, ys, dot, gamma: float, omega):
        self.t_range = (float(ts[0]), float(ts[-1]))
        self._lo, self._hi = self.t_range[0] - 1e-12, self.t_range[1] + 1e-12
        self.gamma = float(gamma)
        self.omega = omega
        self._curve = CubicHermite(ts, ys, dot(ys, omega(ts), gamma))

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

    and its phase phi(t) = int_{t0}^{t} dtau / alpha^2, by Pinney from the pair u of
    `solve_ermakov`: alpha = |u| / sqrt(W), alpha' = u . u' / (|u| sqrt(W)) and phi
    the angle of u, with the solved Wronskian W = u1 u2' - u2 u1' (1 if exact), which
    removes the solve's drift in amplitude; the four are the `_Dense` curve of
    `pinney_dot`, and phi one cubic Hermite of slope W / |u|^2 = 1/alpha^2.

    Where omega^2 < gamma^2/4 both u1 and u2 turn toward the growing mode, and
    the solved W, a difference of nearly equal products, loses its digits: the
    first node where it is not positive and finite raises NonFiniteError with
    its time.
    """

    def __init__(self, ts, pair, gamma, omega):
        u1, u1_dot, u2, u2_dot = pair
        with np.errstate(over="ignore", invalid="ignore"):
            wronskian = u1 * u2_dot - u2 * u1_dot
        lost = ~((wronskian > 0) & (wronskian < math.inf))
        if lost.any():
            i = int(np.argmax(lost))
            raise NonFiniteError(f"the Ermakov solve's Wronskian u1 u2' - u2 u1' is "
                                 f"{wronskian[i].item()!r} at t={ts[i]:.6g}, where alpha = "
                                 f"|u| / sqrt(W) needs it positive")
        super().__init__(ts, pair, pinney_dot, gamma, omega)
        # np.unwrap holds: between nodes closer than pi / Omega u turns by < pi (Sturm)
        angle = np.fromiter(map(math.atan2, u2.tolist(), u1.tolist()), float, len(ts))
        self._phase = CubicHermite(ts, np.unwrap(angle), wronskian / (u1 * u1 + u2 * u2))

    def _alphas(self, t) -> tuple:
        """(alpha, alpha') at times t already checked."""
        u1, v1, u2, v2 = self._curve(t)
        r2, wronskian = u1 * u1 + u2 * u2, u1 * v2 - u2 * v1
        return np.sqrt(r2 / wronskian), (u1 * v1 + u2 * v2) / np.sqrt(r2 * wronskian)

    def alpha(self, t):
        return self._alphas(self._check_t(t))[0]

    def alpha_dot(self, t):
        return self._alphas(self._check_t(t))[1]

    def alpha_ddot(self, t):
        """Second derivative through the defining equation (exact given alpha)."""
        t = self._check_t(t)
        return ermakov_ddot(self._alphas(t)[0], self.omega(t), self.gamma)

    def phase(self, t):
        """phi(t), measured from the grid origin; strictly increasing."""
        return self._phase(self._check_t(t))

    def residual(self, t):
        """alpha'' + (omega^2 - gamma^2/4) alpha - 1/alpha^3 with alpha'' by the five-point
        central difference (4 D(h) - D(2h)) / 3, D(k) = alpha'(t+k) - alpha'(t-k) over the
        span (t+k) - (t-k) as rounded, and h = min(RESIDUAL_STEP, DIP_STEP alpha^2)."""
        t = self._check_t(t)
        a = self._alphas(t)[0]
        h = np.minimum(RESIDUAL_STEP, DIP_STEP * a * a)
        ts = np.stack([t + h, t - h, t + 2 * h, t - 2 * h])
        up, down, up2, down2 = self._alphas(ts)[1]
        near, far = (up - down) / (ts[0] - ts[1]), (up2 - down2) / (ts[2] - ts[3])
        return (4.0 * near - far) / 3.0 - ermakov_ddot(a, self.omega(t), self.gamma)


def ermakov_start(omega, gamma: float, t0: float) -> tuple:
    """(alpha0, alpha_dot0) of the Ermakov solve from t0.

    With Omega^2 = omega(t0)^2 - gamma^2/4 and Omega' = omega omega'/Omega, it
    is the first-order adiabatic branch (Omega^(-1/2), -Omega^(-5/2) omega
    omega'/2) when Omega^2 > 0 and |Omega'|/Omega^2 < ADIABATIC_LIMIT, else
    (1, 0).  Any positive solution serves the invariants; the adiabatic one
    varies slowly, without the 2 Omega oscillation of other starts, so alpha
    dips less far toward 0, where the residual is largest; for constant omega
    and gamma it is the stationary solution.
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
    """Solve the auxiliary equation as one linear solve (Pinney): the pair
    (u1, u1', u2, u2') of u'' = -(omega^2 - gamma^2/4) u from (alpha0,
    alpha_dot0, 0, 1/alpha0), whose Wronskian is 1, by Dormand-Prince 8(5,3)
    at SOLVER_OPTIONS; alpha = |u| cannot reach zero, so no event is watched.
    A stepper failure, as where the pair overflows, names the solve."""
    if alpha0 <= 0:
        raise ValueError("alpha0 must be positive")
    wfn = as_expression(omega, "t", "omega")
    try:
        ts, pair = _solve(pinney_dot, wfn, gamma, [alpha0, alpha_dot0, 0.0, 1.0 / alpha0],
                          grid, SOLVER_OPTIONS, alpha0=alpha0, alpha_dot0=alpha_dot0)
    except NonFiniteError as exc:
        raise NonFiniteError(f"the Ermakov solve: {exc}") from None
    return ErmakovSolution(ts, pair, gamma, wfn)


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
    on a range where lambda > 0: the `_Dense` curve of `newton_dot`, over
    lambda and lambda' times e^{-sigma} and sigma, and of no C of its own."""

    def __init__(self, ts, lam, lam_dot, sigma, gamma, omega, C0):
        super().__init__(ts, np.stack([lam, lam_dot, sigma]), newton_dot, gamma, omega)
        self.C0 = float(C0)

    def C(self, t):
        lam, lam_dot, _ = self._curve(self._check_t(t))
        return lam_dot / lam

    def lam(self, t):
        lam, _, sigma = self._curve(self._check_t(t))
        return _per_element(math.exp, sigma) * lam

    def lam_dot(self, t):
        _, lam_dot, sigma = self._curve(self._check_t(t))
        return _per_element(math.exp, sigma) * lam_dot

    def C_dot(self, t):
        """C' through the defining equation (exact given C)."""
        t = self._check_t(t)
        return riccati_dot(self.C(t), self.omega(t), self.gamma)

    def dC_dC0(self, t):
        """dC/dC0 = e^{-gamma (t - t0)} / lambda(t)^2 by Abel's formula (the
        variation d of C0 obeys d' = -(2C + gamma) d, d(t0) = 1), taken as
        e^{-gamma (t - t0) - 2 sigma} over the scaled lambda squared."""
        t = self._check_t(t)
        lam, _, sigma = self._curve(t)
        x = -self.gamma * (t - self.t_range[0]) - 2.0 * sigma
        return _per_element(math.exp, x) / (lam * lam)


def solve_riccati(omega, gamma: float, C0: float, grid) -> RiccatiSolution:
    """Solve the Riccati equation through its linearisation C = lambda'/lambda:
    one Dormand-Prince 8(5,3) solve of the damped Newton equation lambda'' =
    -gamma lambda' - omega^2 lambda from (1, C0), at RICCATI_OPTIONS, for
    (lambda, lambda') times e^{-sigma}, with sigma' = `_newton_rate` at omega(t)
    (`newton_dot`): that pair obeys the same equation less sigma' times itself
    and stays near its start as lambda decays, so the error stays relative
    where lambda underflows.

    Riccati solutions generically have poles, at the zeros of lambda; the
    first one raises with its time, located on the step that crosses it,
    rather than continuing on the far branch.
    """
    wfn = as_expression(omega, "t", "omega")

    def pole(tp):
        return RiccatiPoleError(f"Riccati solution has a pole at t={tp:.6g}, where lambda = 0",
                                last_time=tp)

    ts, (lam, lam_dot, sigma) = _solve(newton_dot, wfn, gamma, [1.0, C0, 0.0], grid,
                                       RICCATI_OPTIONS, lambda t, y: y[0], pole, C0=C0)
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
