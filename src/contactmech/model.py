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
    """Gradient (scalar f) or Jacobian (array f, last axis over z) of f at z
    by central differences with step FD_STEP * max(1, |z_j|)."""
    z = np.asarray(z, dtype=float)
    cols = []
    for j in range(z.size):
        h = FD_STEP * max(1.0, abs(z[j]))
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        cols.append((f(zp) - f(zm)) / (2.0 * h))
    return np.stack(cols, axis=-1)


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

    At y = [q, p, S], ``value(t, y)`` is H, ``grad(t, y)`` is [dH/dq, dH/dp,
    dH/dS, dH/dt] and ``field(t, y)`` is the (q, p, S) components of the
    contact vector field as a float sequence, which is what the integrators
    call.  At z = [y, J row-major], with J a (2n+1) x (2n+1) matrix,
    ``tangent_rhs(t, z)`` is the flat float sequence [field(t, y), A J] of
    the flow and its variational equations, A = d(field)/dy, which `integrate`
    solves for the volume checks; its first 2n+1 entries are ``field(t, y)``
    bit for bit.  The built-ins give ``field`` in closed form and
    ``tangent_rhs`` in straight-line floats from their symbolic second
    derivatives; `make_custom` builds the field from ``value`` and ``grad``,
    and A by `_contact_jacobian` from ``grad`` and a central-difference Hessian.
    All four are unvalidated: a non-finite field is left to the integrator,
    which rejects the step.  ``evaluate`` and ``partials`` validate.
    """

    n: int
    value: Callable[[float, np.ndarray], float]
    grad: Callable[[float, np.ndarray], np.ndarray]
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
        v = float(self.value(x.t, x.flat()))
        if not math.isfinite(v):
            raise NonFiniteError(f"model '{self.name}' is non-finite at {x!r}")
        return v

    def partials(self, x: ExtendedState) -> np.ndarray:
        """First partials [dH/dq, dH/dp, dH/dS, dH/dt] of the contact
        Hamiltonian at x, a fresh (2n+2,) array; all entries are finite."""
        self.check_dimensions(x)
        g = np.array(self.grad(x.t, x.flat()), dtype=float)
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
# the one `value` would raise.  dH/dt is not needed and not evaluated.


def _check_mass_and_damping(m: float, gamma: float):
    if not 0 < m < math.inf:
        raise ValueError(f"mass must be positive, got m={m}")
    if not 0 <= gamma < math.inf:
        raise ValueError(f"damping rate must be non-negative, got gamma={gamma}")


def tangent(field, curvature):
    """The ``tangent_rhs`` of an n = 1 model H = T(p, t) + U(q, t) + c S from its
    ``field`` and ``curvature(t, q)`` = (dH/dq, d2H/dq2, d2H/dp2, dH/dS).  Then
    A = [[0, H_pp, 0], [-H_qq, -H_S, 0], [-H_q, p H_pp, -H_S]], and A J is
    written out in floats after the field's own three entries."""
    def tangent_rhs(t, z) -> list:
        f = field(t, z[:3])  # first, so that the first error is the field's
        q, p, _, j0, j1, j2, k0, k1, k2, l0, l1, l2 = z.tolist()
        H_q, H_qq, H_pp, H_S = curvature(t, q)
        a = p * H_pp
        return [*f,
                H_pp * k0, H_pp * k1, H_pp * k2,
                -H_qq * j0 - H_S * k0, -H_qq * j1 - H_S * k1, -H_qq * j2 - H_S * k2,
                -H_q * j0 + a * k0 - H_S * l0, -H_q * j1 + a * k1 - H_S * l1,
                -H_q * j2 + a * k2 - H_S * l2]
    return tangent_rhs


def make_linear_dissipation(m: float, gamma: float, V) -> HamiltonianModel:
    """H = p^2/2m + V(q) + gamma*S, the one-dimensional linear-friction system."""
    _check_mass_and_damping(m, gamma)
    Vfn = as_expression(V, "q", "V")

    def value(t, y) -> float:
        q, p = y[0], y[1]
        return p * p / (2.0 * m) + Vfn(q) + gamma * y[2]

    def grad(t, y) -> np.ndarray:
        return np.array([Vfn.derivative(y[0]), y[1] / m, gamma, 0.0])

    def field(t, y) -> list:
        q, p, S = y.tolist()
        h = p * p / (2.0 * m) + Vfn(q) + gamma * S
        dH_dp = p / m
        return [dH_dp, -Vfn.derivative(q) - p * gamma, p * dH_dp - h]

    def curvature(t, q) -> tuple:
        return Vfn.derivative(q), Vfn.second_derivative(q), 1.0 / m, gamma

    return HamiltonianModel(
        n=1, value=value, grad=grad, field=field, tangent_rhs=tangent(field, curvature),
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

    def value(t, y) -> float:
        q, p = y[0], y[1]
        w = wfn(t)
        return p * p / (2.0 * m) + 0.5 * m * w * w * q * q + gamma * y[2]

    def grad(t, y) -> np.ndarray:
        q, p = y[0], y[1]
        w = wfn(t)
        dt = m * w * wfn.derivative(t) * q * q
        return np.array([m * w * w * q, p / m, gamma, dt])

    def field(t, y) -> list:
        q, p, S = y.tolist()
        w = wfn(t)
        h = p * p / (2.0 * m) + 0.5 * m * w * w * q * q + gamma * S
        dH_dp = p / m
        return [dH_dp, -(m * w * w * q) - p * gamma, p * dH_dp - h]

    def curvature(t, q) -> tuple:
        w = wfn(t)
        return m * w * w * q, m * w * w, 1.0 / m, gamma

    return HamiltonianModel(
        n=1, value=value, grad=grad, field=field, tangent_rhs=tangent(field, curvature),
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

    def factors(t):
        """(e^{-gamma t}, e^{gamma t}); an overflow names the model, key and time."""
        try:
            return math.exp(-gamma * t), math.exp(gamma * t)
        except OverflowError as exc:
            raise OverflowError(f"caldirola_kanai: e^(±gamma t) with model.gamma = {gamma!r} "
                                f"overflows at t={t!r}: {exc}") from None

    def value(t, y) -> float:
        q, p = y[0], y[1]
        em, ep = factors(t)
        return em * p * p / (2.0 * m) + ep * Vfn(q)

    def grad(t, y) -> np.ndarray:
        q, p = y[0], y[1]
        em, ep = factors(t)
        dt = -gamma * em * p * p / (2.0 * m) + gamma * ep * Vfn(q)
        return np.array([ep * Vfn.derivative(q), em * p / m, 0.0, dt])

    def field(t, y) -> list:
        q, p, S = y.tolist()
        em, ep = factors(t)
        h = em * p * p / (2.0 * m) + ep * Vfn(q)
        dH_dp = em * p / m
        return [dH_dp, -(ep * Vfn.derivative(q)) - p * 0.0, p * dH_dp - h]

    def curvature(t, q) -> tuple:
        em, ep = factors(t)
        return ep * Vfn.derivative(q), ep * Vfn.second_derivative(q), em / m, 0.0

    return HamiltonianModel(
        n=1, value=value, grad=grad, field=field, tangent_rhs=tangent(field, curvature),
        name="caldirola_kanai",
        params={"m": m, "gamma": gamma, "V": Vfn},
    )


def make_custom(n: int, value, grad=None, name: str = "custom",
                params: Optional[Mapping[str, Any]] = None) -> HamiltonianModel:
    """Wrap callables of (t, y), y = [q, p, S], as a model: ``value`` is H and
    ``grad`` [dH/dq, dH/dp, dH/dS, dH/dt], central differences of ``value`` when
    None.  The field is `_contact_field` of value and gradient; the tangent
    right-hand side multiplies J by `_contact_jacobian` of the gradient and a
    central-difference Hessian, in numpy."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    n = int(n)

    if grad is None:
        def gradient(t, y) -> np.ndarray:
            return central_difference(lambda z: value(z[-1], z[:-1]), np.append(y, t))
    else:
        def gradient(t, y) -> np.ndarray:
            g = np.asarray(grad(t, y), dtype=float)
            if g.shape != (2 * n + 2,):
                raise DimensionMismatchError(f"model '{name}' needs a grad of length "
                                             f"{2 * n + 2}, got shape {g.shape}")
            return g

    def field(t, y) -> np.ndarray:
        return _contact_field(n, y, value(t, y), gradient(t, y))

    d = 2 * n + 1

    def tangent_rhs(t, z) -> np.ndarray:
        y = z[:d]
        A = _contact_jacobian(n, y, gradient(t, y),
                            central_difference(lambda w: gradient(t, w)[:d], y))
        return np.concatenate([field(t, y), (A @ z[d:].reshape(d, d)).ravel()])

    return HamiltonianModel(
        n=n, value=value, grad=gradient, field=field, tangent_rhs=tangent_rhs,
        name=name, params=dict(params or {}),
    )
