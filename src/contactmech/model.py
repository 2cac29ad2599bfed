"""Extended contact phase-space states and contact Hamiltonian descriptors.

The phase space is described in Darboux coordinates (q, p, S): generalized
positions, conjugate momenta and an action-like contact variable; an
``ExtendedState`` is one point (q, p, S, t) of it at a time t.  A
``HamiltonianModel`` holds H(q, p, S, t), its derivatives and its contact
vector field as closures over the flat vector [q, p, S]; the built-in
factories cover linear dissipation, the damped parametric oscillator and the
Caldirola-Kanai effective model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError
from .expressions import as_expression

FD_STEP = 1e-6  # relative step for central finite differences


def central_difference(f, z) -> np.ndarray:
    """Gradient (f scalar per point) or Jacobian (f an array per point, last axis
    over z) of f at z by central differences with step FD_STEP * max(1, |z_j|).
    f takes the points z + h_j e_j and z - h_j e_j, j = 0, 1, ..., in that
    order, as the rows of one block, and gives one value per row."""
    z = np.asarray(z, dtype=float)
    h, j = FD_STEP * np.maximum(1.0, np.abs(z)), np.arange(z.size)
    Z = np.repeat(z[None], 2 * z.size, axis=0)
    Z[2 * j, j] += h
    Z[2 * j + 1, j] -= h
    F = np.asarray(f(Z), dtype=float)
    return np.moveaxis((F[0::2] - F[1::2]) / (2.0 * h).reshape(-1, *[1] * (F.ndim - 1)), 0, -1)


def _per_element(f, x):
    """f(x) for a float x, else f of each float of x in x's shape: libm, not SIMD."""
    if isinstance(x, float):
        return f(x)
    x = np.asarray(x)
    return np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape)


def rowwise(fn, t, Y):
    """fn(t, Y) on a block of rows as a loop over them would give it: inf and NaN
    arise silently, as in floats, and a failing block raises the error of its
    first row that fails alone."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return fn(t, Y)
        except Exception:
            ts = np.broadcast_to(t, (len(Y),)) if np.ndim(t) else None
            for i in range(len(Y)):
                fn(t if ts is None else ts[i:i + 1], Y[i:i + 1])
            raise


def _readonly(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExtendedState:
    """A point (q, p, S, t) of the extended contact phase space; immutable after
    construction.  q and p are read-only 1-d arrays of equal length (a scalar is
    promoted to length 1), and all coordinates are finite.  Two states are equal
    when their coordinates are, and equal states hash alike."""

    q: np.ndarray
    p: np.ndarray
    S: float
    t: float

    def __post_init__(self):
        object.__setattr__(self, "q", _readonly(self.q))
        object.__setattr__(self, "p", _readonly(self.p))
        object.__setattr__(self, "S", float(self.S))
        object.__setattr__(self, "t", float(self.t))
        if self.q.ndim != 1 or self.p.ndim != 1 or self.q.size != self.p.size:
            raise DimensionMismatchError(
                f"q and p must be 1-d arrays of equal length, got {self.q.shape} and {self.p.shape}"
            )
        if self.q.size < 1:
            raise DimensionMismatchError("need at least one degree of freedom")
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.p))
                and math.isfinite(self.S) and math.isfinite(self.t)):
            raise NonFiniteError(f"non-finite state: {self!r}")

    @property
    def n(self) -> int:
        return self.q.size

    def _key(self) -> tuple:
        return tuple(self.q.tolist()), tuple(self.p.tolist()), self.S, self.t

    def __eq__(self, other):
        if not isinstance(other, ExtendedState):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"ExtendedState(q={self.q.tolist()}, p={self.p.tolist()}, S={self.S}, "
                f"t={self.t})")

    def flat(self) -> np.ndarray:
        """Pack into [q, p, S] (time excluded)."""
        return np.concatenate([self.q, self.p, [self.S]])

    @staticmethod
    def from_flat(y: np.ndarray, n: int, t: float) -> "ExtendedState":
        return ExtendedState(y[:n], y[n:2 * n], y[2 * n], t)


def make_state(q, p, S=0.0, t=0.0) -> ExtendedState:
    """Convenience constructor with S and t defaulting to 0."""
    return ExtendedState(q, p, S, t)


# ---------------------------------------------------------------------------
# Hamiltonian models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianModel:
    """Descriptor of a contact Hamiltonian H(q, p, S, t).

    On k rows Y = [q, p, S], shape (k, 2n+1), at t scalar or of shape (k,),
    ``value(t, Y)`` is H, shape (k,), and ``grad(t, Y)`` [dH/dq, dH/dp, dH/dS,
    dH/dt] per row.  At one point y, ``field(t, y)`` is the (q, p, S) contact
    vector field as a float sequence, which the integrators call, and at z =
    [y, J row-major], J (2n+1) x (2n+1), ``tangent_rhs(t, z)`` is [field(t, y),
    A J], A = d(field)/dy, its first 2n+1 entries ``field(t, y)`` bit for bit.
    The built-ins give ``field`` in closed form and ``tangent_rhs`` in floats
    from one jet per call that repeats the field's operations and adds the
    symbolic second derivatives; `make_custom` builds all four from per-point
    callables, A by `_contact_jacobian` of the gradient and a central-difference
    Hessian.  All four are unvalidated (a non-finite field is left to the
    integrator); ``evaluate`` and ``partials`` call them on one row and validate.
    """

    n: int
    value: Callable[[Any, np.ndarray], np.ndarray]
    grad: Callable[[Any, np.ndarray], np.ndarray]
    field: Callable[[float, np.ndarray], Sequence[float]]
    tangent_rhs: Callable[[float, np.ndarray], Sequence[float]]
    name: str = "custom"
    params: Mapping[str, Any] = dataclass_field(default_factory=dict)

    def check_dimensions(self, x: ExtendedState):
        if x.n != self.n:
            raise DimensionMismatchError(
                f"model '{self.name}' has n={self.n} but state has n={x.n}"
            )

    def evaluate(self, x: ExtendedState) -> float:
        """Value of the contact Hamiltonian at x; pure and side-effect free."""
        self.check_dimensions(x)
        v = float(rowwise(self.value, x.t, x.flat()[None])[0])
        if not math.isfinite(v):
            raise NonFiniteError(f"model '{self.name}' is non-finite at {x!r}")
        return v

    def partials(self, x: ExtendedState) -> np.ndarray:
        """First partials [dH/dq, dH/dp, dH/dS, dH/dt] of the contact
        Hamiltonian at x, a fresh (2n+2,) array; all entries are finite."""
        self.check_dimensions(x)
        g = np.array(rowwise(self.grad, x.t, x.flat()[None])[0], dtype=float)
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"model '{self.name}' has non-finite partials at {x!r}: {g}")
        return g


def _contact_field(n: int, y: np.ndarray, h: float, g: np.ndarray) -> np.ndarray:
    """The (q, p, S) components of the contact field from H = h and its
    gradient g at y: dq/dt = dH/dp, dp/dt = -dH/dq - p dH/dS and
    dS/dt = p . dH/dp - H."""
    p, dH_dp = y[n:2 * n], g[n:2 * n]
    return np.concatenate([dH_dp, -g[:n] - p * g[2 * n],
                           [float(np.dot(p, dH_dp)) - h]])


def _contact_jacobian(n: int, y: np.ndarray, g: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Jacobian A of the contact field in y, by the chain rule from the
    gradient g and the Hessian K of H at y; tr A = -(n+1) dH/dS follows from
    K's symmetry."""
    d, p = 2 * n + 1, y[n:2 * n]
    A = np.empty((d, d))
    A[:n] = K[n:2 * n]
    A[n:2 * n] = -K[:n] - p[:, None] * K[2 * n]
    A[2 * n] = p @ K[n:2 * n]
    A[2 * n, :n] -= g[:n]
    A.reshape(-1)[n * (d + 1)::d + 1] -= g[2 * n]  # the diagonal from p_1 to S
    return A


# ---------------------------------------------------------------------------
# Built-in systems
# ---------------------------------------------------------------------------
#
# Each built-in's `field` is `_contact_field` written out for n = 1: the same
# float operations in the same order, so it agrees bit for bit (a test holds
# it to that), including the -p dH/dS term when dH/dS is 0, which can flip the
# sign of a zero.  H's terms come before dH's, so the first domain error is
# the one `value` would raise.  dH/dt is not needed and not evaluated.  Each
# `jet` repeats its `field` and then takes the second derivatives, so the
# tangent's first rows and first error are the field's.  `value` and `grad`
# take the same operations on columns, with V, V', omega and exp per element.


def _columns(k: int, *cols) -> np.ndarray:
    """The (k, len(cols)) array with these columns; a scalar fills its column."""
    out = np.empty((k, len(cols)))
    for j, col in enumerate(cols):
        out[:, j] = col
    return out


def _check_mass_and_damping(m: float, gamma: float):
    if not 0 < m < math.inf:
        raise ValueError(f"mass must be positive, got m={m}")
    if not 0 <= gamma < math.inf:
        raise ValueError(f"damping rate must be non-negative, got gamma={gamma}")


def tangent(jet):
    """The ``tangent_rhs`` of an n = 1 model H = T(p, t) + U(q, t) + c S from its
    ``jet(t, q, p, S)`` = (the field's three entries, dH/dq, d2H/dq2, d2H/dp2,
    dH/dS), the entries computed as ``field`` computes them.  Then
    A = [[0, H_pp, 0], [-H_qq, -H_S, 0], [-H_q, p H_pp, -H_S]], and A J is
    written out in floats after the field's entries."""
    def tangent_rhs(t, z) -> list:
        q, p, S, j0, j1, j2, k0, k1, k2, l0, l1, l2 = z.tolist()
        f0, f1, f2, H_q, H_qq, H_pp, H_S = jet(t, q, p, S)
        a = p * H_pp
        return [f0, f1, f2,
                H_pp * k0, H_pp * k1, H_pp * k2,
                -H_qq * j0 - H_S * k0, -H_qq * j1 - H_S * k1, -H_qq * j2 - H_S * k2,
                -H_q * j0 + a * k0 - H_S * l0, -H_q * j1 + a * k1 - H_S * l1,
                -H_q * j2 + a * k2 - H_S * l2]
    return tangent_rhs


def make_linear_dissipation(m: float, gamma: float, V) -> HamiltonianModel:
    """H = p^2/2m + V(q) + gamma*S, the one-dimensional linear-friction system."""
    _check_mass_and_damping(m, gamma)
    Vfn = as_expression(V, "q", "V")

    def value(t, Y) -> np.ndarray:
        q, p, S = Y.T
        return p * p / (2.0 * m) + _per_element(Vfn, q) + gamma * S

    def grad(t, Y) -> np.ndarray:
        q, p, _ = Y.T
        return _columns(len(Y), _per_element(Vfn.derivative, q), p / m, gamma, 0.0)

    def field(t, y) -> list:
        q, p, S = y.tolist()
        h = p * p / (2.0 * m) + Vfn(q) + gamma * S
        dH_dp = p / m
        return [dH_dp, -Vfn.derivative(q) - p * gamma, p * dH_dp - h]

    def jet(t, q, p, S) -> tuple:
        h = p * p / (2.0 * m) + Vfn(q) + gamma * S
        dH_dp, H_q = p / m, Vfn.derivative(q)
        return (dH_dp, -H_q - p * gamma, p * dH_dp - h,
                H_q, Vfn.second_derivative(q), 1.0 / m, gamma)

    return HamiltonianModel(
        n=1, value=value, grad=grad, field=field, tangent_rhs=tangent(jet),
        name="linear_dissipation",
        params={"m": m, "gamma": gamma, "V": Vfn},
    )


def make_damped_parametric(m: float, gamma: float, omega) -> HamiltonianModel:
    """H = p^2/2m + m w(t)^2 q^2 / 2 + gamma*S, the damped parametric oscillator.

    ``omega`` is an expression in t (an `Expression`, or any object that
    `as_expression` takes as it is) or a finite number: a constant frequency
    gives the damped harmonic oscillator, zero the damped free particle.
    """
    _check_mass_and_damping(m, gamma)
    wfn = as_expression(omega, "t", "omega")

    def value(t, Y) -> np.ndarray:
        q, p, S = Y.T
        w = _per_element(wfn, t)
        return p * p / (2.0 * m) + 0.5 * m * w * w * q * q + gamma * S

    def grad(t, Y) -> np.ndarray:
        q, p, _ = Y.T
        w = _per_element(wfn, t)
        dt = m * w * _per_element(wfn.derivative, t) * q * q
        return _columns(len(Y), m * w * w * q, p / m, gamma, dt)

    def field(t, y) -> list:
        q, p, S = y.tolist()
        w = wfn(t)
        h = p * p / (2.0 * m) + 0.5 * m * w * w * q * q + gamma * S
        dH_dp = p / m
        return [dH_dp, -(m * w * w * q) - p * gamma, p * dH_dp - h]

    def jet(t, q, p, S) -> tuple:
        w = wfn(t)
        h = p * p / (2.0 * m) + 0.5 * m * w * w * q * q + gamma * S
        dH_dp, H_qq = p / m, m * w * w
        H_q = H_qq * q
        return (dH_dp, -H_q - p * gamma, p * dH_dp - h, H_q, H_qq, 1.0 / m, gamma)

    return HamiltonianModel(
        n=1, value=value, grad=grad, field=field, tangent_rhs=tangent(jet),
        name="damped_parametric",
        params={"m": m, "gamma": gamma, "omega": wfn},
    )


def make_caldirola_kanai(m: float, gamma: float, V) -> HamiltonianModel:
    """H = e^{-gamma t} p^2/2m + e^{gamma t} V(q), explicitly time dependent.

    The S-independent effective model for linear damping: integrated with the
    contact equations its (q, p) flow is the standard symplectic one, and q(t)
    obeys the same damped Newton equation as the linear-dissipation model.
    """
    _check_mass_and_damping(m, gamma)
    Vfn = as_expression(V, "q", "V")

    def factor(t):
        """(e^{-gamma t}, e^{gamma t}); an overflow names the model, key and time."""
        try:
            return math.exp(-gamma * t), math.exp(gamma * t)
        except OverflowError as exc:
            raise OverflowError(f"caldirola_kanai: e^(±gamma t) with model.gamma = {gamma!r} "
                                f"overflows at t={t!r}: {exc}") from None

    def factors(t):
        """`factor` at a float t, or at each element of an array t as two arrays."""
        if isinstance(t, float):
            return factor(t)
        return tuple(np.array([factor(x) for x in np.ravel(t).tolist()]).reshape(-1, 2).T)

    def value(t, Y) -> np.ndarray:
        q, p, _ = Y.T
        em, ep = factors(t)
        return em * p * p / (2.0 * m) + ep * _per_element(Vfn, q)

    def grad(t, Y) -> np.ndarray:
        q, p, _ = Y.T
        em, ep = factors(t)
        dt = -gamma * em * p * p / (2.0 * m) + gamma * ep * _per_element(Vfn, q)
        return _columns(len(Y), ep * _per_element(Vfn.derivative, q), em * p / m, 0.0, dt)

    def field(t, y) -> list:
        q, p, S = y.tolist()
        em, ep = factor(t)
        h = em * p * p / (2.0 * m) + ep * Vfn(q)
        dH_dp = em * p / m
        return [dH_dp, -(ep * Vfn.derivative(q)) - p * 0.0, p * dH_dp - h]

    def jet(t, q, p, S) -> tuple:
        em, ep = factor(t)
        h = em * p * p / (2.0 * m) + ep * Vfn(q)
        dH_dp, H_q = em * p / m, ep * Vfn.derivative(q)
        return (dH_dp, -H_q - p * 0.0, p * dH_dp - h,
                H_q, ep * Vfn.second_derivative(q), em / m, 0.0)

    return HamiltonianModel(
        n=1, value=value, grad=grad, field=field, tangent_rhs=tangent(jet),
        name="caldirola_kanai",
        params={"m": m, "gamma": gamma, "V": Vfn},
    )


def make_custom(n: int, value, grad=None, name: str = "custom",
                params: Optional[Mapping[str, Any]] = None) -> HamiltonianModel:
    """Wrap per-point callables of (t, y), y = [q, p, S], as a model: ``value`` is
    H and ``grad`` [dH/dq, dH/dp, dH/dS, dH/dt], central differences of ``value``
    when None; the model's ``value`` and ``grad`` call them per row, t a float."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    n = int(n)
    gradient = None
    if grad is not None:
        def gradient(t, y) -> np.ndarray:
            g = np.asarray(grad(t, y), dtype=float)
            if g.shape != (2 * n + 2,):
                raise DimensionMismatchError(f"model '{name}' needs a grad of length "
                                             f"{2 * n + 2}, got shape {g.shape}")
            return g
    return _block_model(n, _per_row(value), gradient, name, params)


def _per_row(f, *shape):
    """The block form of a per-point callable f(t, y): one call per row, t a float."""
    def block(t, Y) -> np.ndarray:
        ts = t.tolist() if np.ndim(t) else [float(t)] * len(Y)
        return np.array([f(s, y) for s, y in zip(ts, Y)], dtype=float).reshape(len(Y), *shape)
    return block


def _block_model(n: int, values, gradient=None, name: str = "custom",
                 params: Optional[Mapping[str, Any]] = None) -> HamiltonianModel:
    """A model from a block H ``values(t, Y)`` and a per-point ``gradient(t, y)``;
    when None, central differences of ``values``, whose 2(2n+2) points are one
    block.  The field is `_contact_field` of value and gradient; the tangent
    multiplies J by `_contact_jacobian` of the gradient and a central-difference
    Hessian."""
    d = 2 * n + 1
    if gradient is None:
        def gradient(t, y) -> np.ndarray:
            return central_difference(lambda Z: values(Z[:, -1], Z[:, :-1]), np.append(y, t))

    def field(t, y) -> np.ndarray:
        return _contact_field(n, y, values(t, y[None])[0], gradient(t, y))

    def tangent_rhs(t, z) -> np.ndarray:
        y = z[:d]
        A = _contact_jacobian(n, y, gradient(t, y),
                              central_difference(lambda W: [gradient(t, w)[:d] for w in W], y))
        return np.concatenate([field(t, y), (A @ z[d:].reshape(d, d)).ravel()])

    return HamiltonianModel(n=n, value=values, grad=_per_row(gradient, 2 * n + 2), field=field,
                            tangent_rhs=tangent_rhs, name=name, params=dict(params or {}))
