"""Contact transformations: verification, conformal factors and built-in maps.

A coordinate map (q, p, S, t) -> (Q, P, S~, t) is a (time-dependent) contact
transformation when, at every point,

    f     = dS~/dS - P_a dQ^a/dS          (defines the conformal factor)
    -f p_i = dS~/dq^i - P_a dQ^a/dq^i
    0     = dS~/dp_i - P_a dQ^a/dp_i

with f nowhere zero.  Hamiltonians push forward through such maps via
K = f H - dS~/dt + P_a dQ^a/dt, evaluated at pre-image points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (DimensionMismatchError, SingularChartError,
                     UnsupportedModelError)
from .model import (ExtendedState, HamiltonianModel, central_difference,
                    make_custom, make_state)

DEFAULT_VERIFY_TOL = 1e-8


# ---------------------------------------------------------------------------
# Map descriptor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContactMap:
    """A coordinate map of the extended contact phase space (t is preserved).

    ``jacobian(x)`` returns ``(J, dT)`` where J is the (2n+1)x(2n+1) matrix of
    d(Q, P, S~)/d(q, p, S) in that row/column order and dT the time-partials
    d(Q, P, S~)/dt, both at fixed remaining coordinates.  When None, central
    finite differences of ``forward`` are used.
    """

    n: int
    forward: Callable[[ExtendedState], ExtendedState]
    inverse: Optional[Callable[[ExtendedState], ExtendedState]] = None
    jacobian: Optional[Callable[[ExtendedState], Tuple[np.ndarray, np.ndarray]]] = None
    declared_f: Optional[Callable[[ExtendedState], float]] = None
    name: str = "map"
    probes: Optional[Tuple[ExtendedState, ...]] = None

    def apply(self, x: ExtendedState) -> ExtendedState:
        if x.n != self.n:
            raise DimensionMismatchError(f"map '{self.name}' has n={self.n}, state has n={x.n}")
        y = self.forward(x)
        if abs(y.t - x.t) > 1e-12:
            raise ValueError(f"map '{self.name}' must preserve t")
        return y

    def apply_inverse(self, y: ExtendedState) -> ExtendedState:
        if self.inverse is None:
            raise UnsupportedModelError(f"map '{self.name}' has no inverse")
        return self.inverse(y)

    def jacobian_at(self, x: ExtendedState) -> Tuple[np.ndarray, np.ndarray]:
        if self.jacobian is not None:
            return self.jacobian(x)
        return fd_jacobian(self, x)


def fd_jacobian(cmap: ContactMap, x: ExtendedState) -> Tuple[np.ndarray, np.ndarray]:
    """Central finite differences of the forward map over (q, p, S) and t."""
    n = cmap.n
    d = 2 * n + 1
    J = central_difference(
        lambda z: cmap.forward(ExtendedState.from_flat(z, n, z[d])).flat(),
        np.append(x.flat(), x.t))
    return J[:, :d], J[:, d]


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformReport:
    """Residuals of the three contact conditions over a sample of points."""

    f_values: np.ndarray          # (npts,) conformal factor estimated per point
    residuals_q: np.ndarray       # (npts, n) residuals of the -f p_i condition
    residuals_p: np.ndarray       # (npts, n) residuals of the 0 = dS~/dp_i condition
    declared_mismatch: Optional[np.ndarray]  # |f - declared_f| when declared
    max_residual: float
    tol: float
    passed: bool


def _conditions(cmap: ContactMap, x: ExtendedState) -> Tuple[float, np.ndarray, np.ndarray]:
    n = cmap.n
    J, _dT = cmap.jacobian_at(x)
    dQ = J[:n, :]       # rows: Q^a
    dSt = J[2 * n, :]   # row: S~
    P = cmap.apply(x).p
    f = dSt[2 * n] - float(np.dot(P, dQ[:, 2 * n]))
    res_q = np.array([-f * x.p[i] - dSt[i] + float(np.dot(P, dQ[:, i]))
                      for i in range(n)])
    res_p = np.array([dSt[n + i] - float(np.dot(P, dQ[:, n + i]))
                      for i in range(n)])
    return f, res_q, res_p


def conformal_factor(cmap: ContactMap, x: ExtendedState) -> float:
    """The factor f = dS~/dS - P_a dQ^a/dS at x."""
    f, _, _ = _conditions(cmap, x)
    return f


def verify(cmap: ContactMap, points: Sequence[ExtendedState],
           tol: float = DEFAULT_VERIFY_TOL) -> TransformReport:
    """Check the contact-transformation conditions at each sample point.

    Passes iff every residual is below tol and |f| stays above tol everywhere;
    a declared conformal factor, when present, is cross-checked as well.
    """
    if len(points) == 0:
        raise ValueError("verify needs a nonempty sample of points")
    fs, rq, rp, dm = [], [], [], []
    for x in points:
        f, res_q, res_p = _conditions(cmap, x)
        fs.append(f)
        rq.append(res_q)
        rp.append(res_p)
        if cmap.declared_f is not None:
            dm.append(abs(f - cmap.declared_f(x)))
    fs = np.array(fs)
    rq = np.array(rq)
    rp = np.array(rp)
    declared = np.array(dm) if dm else None
    max_res = max(np.max(np.abs(rq)), np.max(np.abs(rp)))
    if declared is not None:
        max_res = max(max_res, float(np.max(declared)))
    passed = bool(max_res < tol and np.min(np.abs(fs)) > tol)
    return TransformReport(f_values=fs, residuals_q=rq, residuals_p=rp,
                           declared_mismatch=declared, max_residual=float(max_res),
                           tol=tol, passed=passed)


def volume_factor(f: float, n: int) -> float:
    """Rescaling of the contact volume form under a map with conformal factor f."""
    return float(f) ** (n + 1)


# ---------------------------------------------------------------------------
# Pushforward of Hamiltonians
# ---------------------------------------------------------------------------

def _default_probes(n: int) -> Tuple[ExtendedState, ...]:
    rng = np.random.default_rng(7)
    pts = []
    for _ in range(8):
        q = rng.uniform(0.5, 1.5, n)
        p = rng.uniform(-1.0, 1.0, n)
        pts.append(make_state(q, p, float(rng.uniform(-1, 1)), float(rng.uniform(0.1, 1.5))))
    return tuple(pts)


def pushforward_hamiltonian(cmap: ContactMap, model: HamiltonianModel,
                            probe_tol: float = 1e-6) -> HamiltonianModel:
    """New contact Hamiltonian K(Q, P, S~, t) = f H - dS~/dt + P_a dQ^a/dt.

    The right-hand side is evaluated at the pre-image of (Q, P, S~, t), so the
    map must carry an inverse.  Maps failing the contact conditions at probe
    points are rejected.
    """
    if model.n != cmap.n:
        raise DimensionMismatchError("map and model dimensions differ")
    if cmap.inverse is None:
        raise UnsupportedModelError(
            f"pushforward through '{cmap.name}' needs an inverse map")
    probes = cmap.probes if cmap.probes is not None else _default_probes(cmap.n)
    report = verify(cmap, probes, tol=probe_tol)
    if not report.passed:
        raise ValueError(
            f"'{cmap.name}' is not a contact transformation "
            f"(max residual {report.max_residual:.3g} at probe points)")

    n = cmap.n

    def value(X: ExtendedState) -> float:
        x = cmap.apply_inverse(X)
        _J, dT = cmap.jacobian_at(x)
        f = conformal_factor(cmap, x)
        return (f * model.evaluate(x) - dT[2 * n]
                + float(np.dot(X.p, dT[:n])))

    return make_custom(n, value, name=f"pushforward[{cmap.name}]({model.name})",
                       params={"map": cmap.name, "base": model.name})


def compose(outer: ContactMap, inner: ContactMap, name: Optional[str] = None) -> ContactMap:
    """The map "outer after inner"; conformal factors multiply as f = f2(inner(x)) f1(x)."""
    if outer.n != inner.n:
        raise DimensionMismatchError("composed maps must share n")
    n = inner.n

    def forward(x):
        return outer.apply(inner.apply(x))

    inv = None
    if outer.inverse is not None and inner.inverse is not None:
        def inv(y):
            return inner.apply_inverse(outer.apply_inverse(y))

    jac = None
    if outer.jacobian is not None and inner.jacobian is not None:
        def jac(x):
            J1, dT1 = inner.jacobian_at(x)
            mid = inner.apply(x)
            J2, dT2 = outer.jacobian_at(mid)
            return J2 @ J1, J2 @ dT1 + dT2

    decl = None
    if outer.declared_f is not None and inner.declared_f is not None:
        def decl(x):
            return outer.declared_f(inner.apply(x)) * inner.declared_f(x)

    return ContactMap(n=n, forward=forward, inverse=inv, jacobian=jac,
                      declared_f=decl,
                      name=name or f"{outer.name}*{inner.name}",
                      probes=inner.probes)


# ---------------------------------------------------------------------------
# Built-in maps
# ---------------------------------------------------------------------------

def map_identity(n: int = 1) -> ContactMap:
    """The identity map; conformal factor 1 (canonical case)."""
    d = 2 * n + 1
    eye = np.eye(d)
    zero = np.zeros(d)
    return ContactMap(
        n=n,
        forward=lambda x: x,
        inverse=lambda y: y,
        jacobian=lambda x: (eye.copy(), zero.copy()),
        declared_f=lambda x: 1.0,
        name="identity",
    )


def map_ck(m: float, gamma: float) -> ContactMap:
    """Physical-to-Caldirola-Kanai coordinates: (q, e^{gt} p, e^{gt} S, t).

    A time-dependent contact transformation with f = e^{gamma t}; pushes the
    linear-dissipation Hamiltonian onto the Caldirola-Kanai one.  The mass is
    accepted for API uniformity but does not enter the map.
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")

    def forward(x):
        e = math.exp(gamma * x.t)
        return make_state(x.q.copy(), e * x.p, e * x.S, x.t)

    def inverse(y):
        e = math.exp(-gamma * y.t)
        return make_state(y.q.copy(), e * y.p, e * y.S, y.t)

    def jacobian(x):
        e = math.exp(gamma * x.t)
        J = np.diag([1.0, e, e])
        dT = np.array([0.0, gamma * e * x.p[0], gamma * e * x.S])
        return J, dT

    return ContactMap(n=1, forward=forward, inverse=inverse, jacobian=jacobian,
                      declared_f=lambda x: math.exp(gamma * x.t), name="ck")


def map_expanding(m: float, gamma: float) -> ContactMap:
    """Expanding coordinates for the damped oscillator family.

    (q, p, S, t) -> (q e^{gt/2}, [p + m g q / 2] e^{gt/2}, [S + m g q^2/4] e^{gt}, t),
    a time-dependent contact transformation with f = e^{gamma t}.
    """
    if m <= 0:
        raise ValueError("mass must be positive")
    if gamma < 0:
        raise ValueError("gamma must be non-negative")

    def forward(x):
        q, p = x.q[0], x.p[0]
        eh, e1 = math.exp(gamma * x.t / 2), math.exp(gamma * x.t)
        return make_state(q * eh, (p + 0.5 * m * gamma * q) * eh,
                          (x.S + 0.25 * m * gamma * q * q) * e1, x.t)

    def inverse(y):
        Q, P = y.q[0], y.p[0]
        eh, e1 = math.exp(-gamma * y.t / 2), math.exp(-gamma * y.t)
        q = Q * eh
        p = P * eh - 0.5 * m * gamma * q
        S = y.S * e1 - 0.25 * m * gamma * q * q
        return make_state(q, p, S, y.t)

    def jacobian(x):
        q, p = x.q[0], x.p[0]
        eh, e1 = math.exp(gamma * x.t / 2), math.exp(gamma * x.t)
        J = np.array([
            [eh, 0.0, 0.0],
            [0.5 * m * gamma * eh, eh, 0.0],
            [0.5 * m * gamma * q * e1, 0.0, e1],
        ])
        dT = np.array([
            0.5 * gamma * q * eh,
            0.5 * gamma * (p + 0.5 * m * gamma * q) * eh,
            gamma * (x.S + 0.25 * m * gamma * q * q) * e1,
        ])
        return J, dT

    return ContactMap(n=1, forward=forward, inverse=inverse, jacobian=jacobian,
                      declared_f=lambda x: math.exp(gamma * x.t), name="expanding")


def map_invariants(m: float, gamma: float, erm) -> ContactMap:
    """Action-angle-like chart built from the two invariants of the damped
    parametric oscillator.

    Q = arctan(alpha [alpha' - g alpha/2] - alpha^2 p / (m q)) is the phase,
    P the quadratic (Lewis-type) invariant and S~ = e^{gt} (S - q p / 2) the
    S-dependent invariant; f = e^{gamma t}.  Defined on the q != 0 chart; the
    inverse lands on the principal branch (q > 0).
    """
    if m <= 0:
        raise ValueError("mass must be positive")
    if gamma < 0:
        raise ValueError("gamma must be non-negative")

    def _au(t):
        a = erm.alpha(t)
        return a, erm.alpha_dot(t) - 0.5 * gamma * a

    def forward(x):
        q, p, t = x.q[0], x.p[0], x.t
        if q == 0.0:
            raise SingularChartError("invariants chart is singular at q = 0")
        a, u = _au(t)
        w = a * u - a * a * p / (m * q)
        A = a * p / m - u * q
        e = math.exp(gamma * t)
        I = 0.5 * m * e * (A * A + (q / a) ** 2)
        G = e * (x.S - 0.5 * q * p)
        return make_state(math.atan(w), I, G, t)

    def inverse(y):
        phi, I, G, t = y.q[0], y.p[0], y.S, y.t
        if I < 0:
            raise ValueError("the quadratic invariant is non-negative")
        a, u = _au(t)
        eh = math.exp(-gamma * t / 2)
        amp = math.sqrt(2.0 * I / m) * eh
        q = amp * a * math.cos(phi)
        p = math.sqrt(2.0 * m * I) * eh * (u * math.cos(phi) - math.sin(phi) / a)
        S = math.exp(-gamma * t) * G + 0.5 * q * p
        return make_state(q, p, S, t)

    def jacobian(x):
        q, p, t = x.q[0], x.p[0], x.t
        if q == 0.0:
            raise SingularChartError("invariants chart is singular at q = 0")
        a = erm.alpha(t)
        ad = erm.alpha_dot(t)
        add = erm.alpha_ddot(t)
        u = ad - 0.5 * gamma * a
        ud = add - 0.5 * gamma * ad
        w = a * u - a * a * p / (m * q)
        D = 1.0 + w * w
        A = a * p / m - u * q
        e = math.exp(gamma * t)
        J = np.array([
            [(a * a * p / (m * q * q)) / D, (-a * a / (m * q)) / D, 0.0],
            [m * e * (-A * u + q / (a * a)), e * a * A, 0.0],
            [-0.5 * e * p, -0.5 * e * q, e],
        ])
        wdot = ad * u + a * ud - 2.0 * a * ad * p / (m * q)
        Idot = (gamma * 0.5 * m * e * (A * A + (q / a) ** 2)
                + m * e * (A * (ad * p / m - ud * q) - q * q * ad / a ** 3))
        dT = np.array([wdot / D, Idot, gamma * e * (x.S - 0.5 * q * p)])
        return J, dT

    t_lo, t_hi = erm.t_range
    ts = np.linspace(t_lo + 0.05 * (t_hi - t_lo), t_lo + 0.75 * (t_hi - t_lo), 8)
    probes = tuple(make_state(0.6 + 0.1 * k, 0.3 - 0.08 * k, 0.2 * k - 0.5, float(ts[k]))
                   for k in range(8))
    return ContactMap(n=1, forward=forward, inverse=inverse, jacobian=jacobian,
                      declared_f=lambda x: math.exp(gamma * x.t),
                      name="invariants", probes=probes)
