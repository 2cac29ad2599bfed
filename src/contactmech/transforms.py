"""Contact transformations: verification, conformal factors and built-in maps.

A coordinate map (q, p, S, t) -> (Q, P, S~, t) is a (time-dependent) contact
transformation when, at every point,

    f     = dS~/dS - P_a dQ^a/dS          (defines the conformal factor)
    -f p_i = dS~/dq^i - P_a dQ^a/dq^i
    0     = dS~/dp_i - P_a dQ^a/dp_i

with f nowhere zero.  Hamiltonians push forward through such maps via
K = f H - dS~/dt + P_a dQ^a/dt, evaluated at pre-image points.  The built-in
maps but the identity are parsed templates (`_MAPS`), whose inverse, Jacobian
and f are emitted with the forward map by the models' code generator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (DimensionMismatchError, NonFiniteError, SingularChartError,
                     UnsupportedModelError)
from .expressions import parse_template
from .model import (_BLOCKS, _Y, ExtendedState, HamiltonianModel, _bind, _block_model,
                    _check_mass_and_damping, _compile, _per_element, central_difference, rowwise)

DEFAULT_VERIFY_TOL = 1e-8


# ---------------------------------------------------------------------------
# Map descriptor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContactMap:
    """A coordinate map of the extended contact phase space (t is preserved).

    Its closures act unvalidated on k flat points Y = [q, p, S], shape (k, 2n+1),
    at k times t.  ``forward`` and ``inverse`` give the images [Q, P, S~], like Y;
    ``jacobian`` gives ``(J, dT)``, J = d(Q, P, S~)/d(q, p, S) of shape (k, 2n+1,
    2n+1) and dT = d(Q, P, S~)/dt like Y, or `fd_jacobian` per point when None;
    ``declared_f`` gives f, shape (k,).  ``probes`` are rows (q, p, S, t).
    ``apply``, ``apply_inverse`` and ``jacobian_at`` call them on one row and
    check their state.
    """

    n: int
    forward: Callable[[np.ndarray, np.ndarray], np.ndarray]
    inverse: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    jacobian: Optional[Callable[[np.ndarray, np.ndarray],
                                Tuple[np.ndarray, np.ndarray]]] = None
    declared_f: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    name: str = "map"
    probes: Optional[np.ndarray] = None

    def _check(self, x: ExtendedState):
        if x.n != self.n:
            raise DimensionMismatchError(f"map '{self.name}' has n={self.n}, state has n={x.n}")

    def apply(self, x: ExtendedState) -> ExtendedState:
        self._check(x)
        return ExtendedState.from_flat(self.forward(np.array([x.t]), x.flat()[None])[0],
                                       self.n, x.t)

    def apply_inverse(self, y: ExtendedState) -> ExtendedState:
        if self.inverse is None:
            raise UnsupportedModelError(f"map '{self.name}' has no inverse")
        self._check(y)
        return ExtendedState.from_flat(self.inverse(np.array([y.t]), y.flat()[None])[0],
                                       self.n, y.t)

    def jacobian_at(self, x: ExtendedState) -> Tuple[np.ndarray, np.ndarray]:
        self._check(x)
        J, dT = _jacobian(self, np.array([x.t]), x.flat()[None])
        return J[0], dT[0]


def _jacobian(cmap: ContactMap, t: np.ndarray, Y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    if cmap.jacobian is not None:
        return cmap.jacobian(t, Y)
    J, dT = zip(*(fd_jacobian(cmap, s, y) for s, y in zip(t.tolist(), Y)))
    return np.array(J), np.array(dT)


def fd_jacobian(cmap: ContactMap, t: float, y) -> Tuple[np.ndarray, np.ndarray]:
    """Central finite differences of the forward map over (q, p, S) and t at y, t."""
    d = 2 * cmap.n + 1
    J = central_difference(lambda Z: cmap.forward(Z[:, d], Z[:, :d]), np.append(y, t))
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


def _conditions(J: np.ndarray, p: np.ndarray, P: np.ndarray):
    """The conformal factor and the residuals of the contact conditions at k
    points: J is (k, 2n+1, 2n+1), the map's Jacobians there, p the points'
    momenta and P their images' momenta, both (k, n).  Returns f (k,) and the
    residuals of the -f p_i and of the 0 conditions, each (k, n)."""
    n = p.shape[1]
    dSt = J[:, 2 * n]                                # rows of S~
    PdQ = (P[:, :, None] * J[:, :n]).sum(axis=1)     # P_a dQ^a/dz for each column z
    f = dSt[:, 2 * n] - PdQ[:, 2 * n]
    res_q = -f[:, None] * p - dSt[:, :n] + PdQ[:, :n]
    res_p = dSt[:, n:2 * n] - PdQ[:, n:2 * n]
    return f, res_q, res_p


def conformal_factor(cmap: ContactMap, x: ExtendedState) -> float:
    """The factor f = dS~/dS - P_a dQ^a/dS at x."""
    J, _ = cmap.jacobian_at(x)
    return float(_conditions(J[None], x.p[None], cmap.apply(x).p[None])[0][0])


def _require_finite(cmap: ContactMap, what: str, values: np.ndarray, rows: np.ndarray,
                    shape: Tuple[int, ...] = ()):
    if shape and values.shape != shape:
        raise DimensionMismatchError(f"map '{cmap.name}' gives its {what} block the shape "
                                     f"{values.shape}, expected {shape}")
    bad = ~np.isfinite(values.reshape(len(rows), -1)).all(axis=1)
    if bad.any():
        raise NonFiniteError(f"map '{cmap.name}' has a non-finite {what} at "
                             f"(q, p, S, t) = {rows[np.argmax(bad)].tolist()}")


def verify(cmap: ContactMap, points, tol: float = DEFAULT_VERIFY_TOL) -> TransformReport:
    """Check the contact conditions at k points, a (k, 2n+2) array of rows (q, p, S, t).

    Each closure is called once on all the rows, by `rowwise`; the conditions are
    one array pass.  A non-finite row, image or Jacobian is a `NonFiniteError`
    naming the map and the first such row.  Passes iff every residual, and
    |f - declared_f| when declared, is below tol (a NaN fails) and |f| > tol.
    """
    rows = np.asarray(points, dtype=float)
    if len(rows) == 0:
        raise ValueError("verify needs a nonempty sample of points")
    n = cmap.n
    if rows.shape != (len(rows), 2 * n + 2):
        raise DimensionMismatchError(f"map '{cmap.name}' needs rows (q, p, S, t) of width "
                                     f"{2 * n + 2}, got shape {rows.shape}")
    _require_finite(cmap, "point", rows, rows)
    k, d = len(rows), 2 * n + 1
    ts, Y = rows[:, -1], rows[:, :-1]
    images = np.asarray(rowwise(cmap.forward, ts, Y), dtype=float)
    _require_finite(cmap, "image", images, rows, (k, d))
    J = np.asarray(rowwise(lambda t, Y: _jacobian(cmap, t, Y), ts, Y)[0], dtype=float)
    _require_finite(cmap, "Jacobian", J, rows, (k, d, d))
    fs, rq, rp = _conditions(J, rows[:, n:2 * n], images[:, n:2 * n])
    residuals = [rq.ravel(), rp.ravel()]
    declared = None
    if cmap.declared_f is not None:
        declared = np.abs(fs - rowwise(cmap.declared_f, ts, Y))
        residuals.append(declared)
    max_res = float(np.max(np.abs(np.concatenate(residuals))))
    passed = bool(max_res < tol and np.min(np.abs(fs)) > tol)
    return TransformReport(f_values=fs, residuals_q=rq, residuals_p=rp,
                           declared_mismatch=declared, max_residual=max_res,
                           tol=tol, passed=passed)


def volume_factor(f: float, n: int) -> float:
    """Rescaling of the contact volume form under a map with conformal factor f."""
    return float(f) ** (n + 1)


# ---------------------------------------------------------------------------
# Pushforward of Hamiltonians
# ---------------------------------------------------------------------------

def _default_probes(n: int) -> np.ndarray:
    lo = np.concatenate([np.full(n, 0.5), np.full(n, -1.0), [-1.0, 0.1]])
    hi = np.concatenate([np.full(n, 1.5), np.full(n, 1.0), [1.0, 1.5]])
    return np.random.default_rng(7).uniform(lo, hi, size=(8, 2 * n + 2))


def pushforward_hamiltonian(cmap: ContactMap, model: HamiltonianModel) -> HamiltonianModel:
    """New contact Hamiltonian K(Q, P, S~, t) = f H - dS~/dt + P_a dQ^a/dt.

    The right-hand side is evaluated at the pre-images of a block of rows, so
    the map must carry an inverse; each evaluation calls ``inverse``, the
    Jacobian and ``forward`` once, and K's central differences evaluate their
    points as one block.  Maps failing the contact conditions at probe points
    (to 1e-6) are rejected.
    """
    if model.n != cmap.n:
        raise DimensionMismatchError("map and model dimensions differ")
    if cmap.inverse is None:
        raise UnsupportedModelError(
            f"pushforward through '{cmap.name}' needs an inverse map")
    probes = cmap.probes if cmap.probes is not None else _default_probes(cmap.n)
    report = verify(cmap, probes, tol=1e-6)
    if not report.passed:
        raise ValueError(
            f"'{cmap.name}' is not a contact transformation "
            f"(max residual {report.max_residual:.3g} at probe points)")

    n = cmap.n

    def values(t, Y) -> np.ndarray:
        ts = np.broadcast_to(np.asarray(t, dtype=float), (len(Y),))
        y = cmap.inverse(ts, Y)
        J, dT = _jacobian(cmap, ts, y)
        f = _conditions(J, y[:, n:2 * n], cmap.forward(ts, y)[:, n:2 * n])[0]
        return (f * model.value(ts, y) - dT[:, 2 * n]
                + (Y[:, None, n:2 * n] @ dT[:, :n, None])[:, 0, 0])

    return _block_model(n, values, name=f"pushforward[{cmap.name}]({model.name})",
                       params={"map": cmap.name, "base": model.name})


def compose(outer: ContactMap, inner: ContactMap, name: Optional[str] = None) -> ContactMap:
    """The map "outer after inner"; conformal factors multiply as f = f2(inner(x)) f1(x)."""
    if outer.n != inner.n:
        raise DimensionMismatchError("composed maps must share n")

    def forward(t, Y):
        return outer.forward(t, inner.forward(t, Y))

    inv = None
    if outer.inverse is not None and inner.inverse is not None:
        def inv(t, Y):
            return inner.inverse(t, outer.inverse(t, Y))

    jac = None
    if outer.jacobian is not None and inner.jacobian is not None:
        def jac(t, Y):
            J1, dT1 = inner.jacobian(t, Y)
            J2, dT2 = outer.jacobian(t, inner.forward(t, Y))
            return J2 @ J1, (J2 @ dT1[..., None])[..., 0] + dT2

    decl = None
    if outer.declared_f is not None and inner.declared_f is not None:
        def decl(t, Y):
            return outer.declared_f(t, inner.forward(t, Y)) * inner.declared_f(t, Y)

    return ContactMap(n=inner.n, forward=forward, inverse=inv, jacobian=jac,
                      declared_f=decl,
                      name=name or f"{outer.name}*{inner.name}",
                      probes=inner.probes)


# ---------------------------------------------------------------------------
# Built-in maps
# ---------------------------------------------------------------------------
#
# Each built-in map but the identity is one template: forward texts for Q, P
# and S~ and inverse texts for q, p and S, in q, p, S and t with the
# parameters m and gamma; a text ``x = ...`` names a subexpression for the
# texts after it.  `_map_code` emits, once per process and through
# `model._compile`, forward, inverse, the Jacobian and its time partials from
# the forward DAG, and f = e^{gamma t}, all on columns with every exp, cos,
# sin, sqrt, power, atan and division by a variable per element, so a block
# gives its rows' bits, and a zero divisor raises as in floats; a map binds
# m, gamma and its leaves (`model._bind`).  alpha, alpha' and alpha'' are the
# Ermakov solution's accessors, each called once on a block's column of times.

_MAPS = {
    "ck": (("e = exp(gamma*t)", "q", "p*e", "S*e"),
           ("e = exp(-gamma*t)", "q", "p*e", "S*e")),
    "expanding": (("e = exp(gamma*t/2)", "q*e", "(p + 0.5*m*gamma*q)*e",
                   "(S + 0.25*m*gamma*q*q)*exp(gamma*t)"),
                  ("e = exp(-gamma*t/2)", "x = q*e", "x", "p*e - 0.5*m*gamma*x",
                   "S*exp(-gamma*t) - 0.25*m*gamma*x*x")),
    "invariants": (("u = dalpha(t) - 0.5*gamma*alpha(t)", "A = alpha(t)*p/m - u*q",
                    "e = exp(gamma*t)", "atan(alpha(t)*u - alpha(t)*alpha(t)*p/(m*q))",
                    "0.5*m*e*(A*A + (q/alpha(t))^2)", "e*(S - 0.5*q*p)"),
                   ("e = exp(-gamma*t/2)", "c = cos(q)", "x = sqrt(2*p/m)*e*alpha(t)*c",
                    "y = sqrt(2*m*p)*e*((dalpha(t) - 0.5*gamma*alpha(t))*c - sin(q)/alpha(t))",
                    "x", "y", "exp(-gamma*t)*S + 0.5*x*y")),
}
_LEAVES = {"alpha": ("alpha", 0), "dalpha": ("alpha", 1), "atan": ("atan", 0)}
_OVERFLOW = "e^(±gamma t) with gamma = {gamma!r} overflows at t={t!r}: {exc}"


@functools.lru_cache(maxsize=None)
def _map_code(name: str) -> tuple:
    """`model._compile` of map `name`'s forward, inverse, jacobian and declared_f."""
    forward, inverse = _MAPS[name]
    names = ((*_Y, "t"), ("m", "gamma"), _LEAVES)
    dag, roots = parse_template((*forward, "exp(gamma*t)"), *names)
    images, f = roots[:3], roots[3]
    J = [dag.diff(image, x) for image in images for x in _Y]
    dT = [dag.diff(image, "t") for image in images]
    _, back = parse_template(inverse, *names)
    three = "_columns(len(y), {}, {}, {})"
    return _compile(f"map '{name}': ", images[:1], [
        (images, _BLOCKS, three, f"map {name}.forward"),
        (back, _BLOCKS, three, f"map {name}.inverse"),
        (J + dT, _BLOCKS, f"(_columns(len(y), {', '.join(['{}'] * 9)}).reshape(-1, 3, 3), "
                          f"{three})", f"map {name}.jacobian"),
        ([f], _BLOCKS, "{}", f"map {name}.declared_f")], _OVERFLOW)


def _builtin_map(name: str, m: float, gamma: float, leaves: Optional[dict] = None,
                 probes: Optional[np.ndarray] = None) -> ContactMap:
    """Map `name` with these m and gamma and leaf functions of columns."""
    _check_mass_and_damping(m, gamma)
    return ContactMap(1, *_bind(_map_code(name), {"m": m, "gamma": gamma}, leaves or {}),
                      name=name, probes=probes)


def map_identity(n: int = 1) -> ContactMap:
    """The identity map; conformal factor 1 (canonical case)."""
    d = 2 * n + 1
    eye = np.eye(d)
    return ContactMap(
        n=n,
        forward=lambda t, Y: Y,
        inverse=lambda t, Y: Y,
        jacobian=lambda t, Y: (np.tile(eye, (len(Y), 1, 1)), np.zeros((len(Y), d))),
        declared_f=lambda t, Y: np.ones(len(Y)),
        name="identity",
    )


def map_ck(m: float, gamma: float) -> ContactMap:
    """Physical-to-Caldirola-Kanai coordinates: (q, e^{gt} p, e^{gt} S, t).

    A time-dependent contact transformation with f = e^{gamma t}; pushes the
    linear-dissipation Hamiltonian onto the Caldirola-Kanai one.  The mass
    does not enter the map, but is checked like gamma, as for a model.
    """
    return _builtin_map("ck", m, gamma)


def map_expanding(m: float, gamma: float) -> ContactMap:
    """Expanding coordinates for the damped oscillator family.

    (q, p, S, t) -> (q e^{gt/2}, [p + m g q / 2] e^{gt/2}, [S + m g q^2/4] e^{gt}, t),
    a time-dependent contact transformation with f = e^{gamma t}.
    """
    return _builtin_map("expanding", m, gamma)


def map_invariants(m: float, gamma: float, erm) -> ContactMap:
    """Action-angle-like chart built from the two invariants of the damped
    parametric oscillator.

    Q = arctan(alpha [alpha' - g alpha/2] - alpha^2 p / (m q)) is the phase,
    P the quadratic (Lewis-type) invariant and S~ = e^{gt} (S - q p / 2) the
    S-dependent invariant; f = e^{gamma t}.  Defined on the q != 0 chart; the
    inverse lands on the principal branch (q > 0).
    """
    t_lo, t_hi = erm.t_range
    ts = np.linspace(t_lo + 0.05 * (t_hi - t_lo), t_lo + 0.75 * (t_hi - t_lo), 8)
    k = np.arange(8)
    probes = np.column_stack([0.6 + 0.1 * k, 0.3 - 0.08 * k, 0.2 * k - 0.5, ts])
    cmap = _builtin_map("invariants", m, gamma, {
        "_alpha0": erm.alpha, "_alpha1": erm.alpha_dot, "_alpha2": erm.alpha_ddot,
        "_atan0": functools.partial(_per_element, math.atan),
        "_atan1": lambda w: 1.0 / (1.0 + w * w)}, probes)

    def on_chart(fn):
        def checked(t, Y):
            if (Y[:, 0] == 0.0).any():
                raise SingularChartError("invariants chart is singular at q = 0")
            return fn(t, Y)
        return checked

    def inverse(t, Y):
        if (Y[:, 1] < 0).any():
            raise ValueError("the quadratic invariant is non-negative")
        return cmap.inverse(t, Y)

    return replace(cmap, forward=on_chart(cmap.forward), inverse=inverse,
                   jacobian=on_chart(cmap.jacobian))
