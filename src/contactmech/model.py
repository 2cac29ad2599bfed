"""Contact phase-space states and contact Hamiltonian descriptors.

The phase space is described in Darboux coordinates (q, p, S): generalized
positions, conjugate momenta and an action-like contact variable.  A
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

@dataclass(frozen=True)
class ContactState:
    """A point (q, p, S) of the contact phase space; immutable after construction."""

    q: np.ndarray
    p: np.ndarray
    S: float

    def __post_init__(self):
        object.__setattr__(self, "q", _readonly(self.q))
        object.__setattr__(self, "p", _readonly(self.p))
        object.__setattr__(self, "S", float(self.S))
        if self.q.ndim != 1 or self.p.ndim != 1 or self.q.size != self.p.size:
            raise DimensionMismatchError(
                f"q and p must be 1-d arrays of equal length, got {self.q.shape} and {self.p.shape}"
            )
        if self.q.size < 1:
            raise DimensionMismatchError("need at least one degree of freedom")
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.p)) and math.isfinite(self.S)):
            raise NonFiniteError(f"non-finite contact state: q={self.q}, p={self.p}, S={self.S}")

    @property
    def n(self) -> int:
        return self.q.size

    def __repr__(self):
        return f"ContactState(q={self.q.tolist()}, p={self.p.tolist()}, S={self.S})"


@dataclass(frozen=True)
class ExtendedState:
    """A contact state with the time coordinate appended."""

    state: ContactState
    t: float

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        if not math.isfinite(self.t):
            raise NonFiniteError(f"non-finite time t={self.t}")

    @property
    def q(self) -> np.ndarray:
        return self.state.q

    @property
    def p(self) -> np.ndarray:
        return self.state.p

    @property
    def S(self) -> float:
        return self.state.S

    @property
    def n(self) -> int:
        return self.state.n

    def flat(self) -> np.ndarray:
        """Pack into [q, p, S] (time excluded)."""
        return np.concatenate([self.q, self.p, [self.S]])

    @staticmethod
    def from_flat(y: np.ndarray, n: int, t: float) -> "ExtendedState":
        return ExtendedState(ContactState(y[:n], y[n:2 * n], y[2 * n]), t)


def make_state(q, p, S=0.0, t=0.0) -> ExtendedState:
    """Convenience constructor; scalars are promoted to length-1 vectors."""
    return ExtendedState(ContactState(np.atleast_1d(q), np.atleast_1d(p), S), t)


@dataclass(frozen=True)
class PartialDerivatives:
    """First partials of a contact Hamiltonian at one extended state."""

    dH_dq: np.ndarray
    dH_dp: np.ndarray
    dH_dS: float
    dH_dt: float

    def __post_init__(self):
        object.__setattr__(self, "dH_dq", _readonly(self.dH_dq))
        object.__setattr__(self, "dH_dp", _readonly(self.dH_dp))
        object.__setattr__(self, "dH_dS", float(self.dH_dS))
        object.__setattr__(self, "dH_dt", float(self.dH_dt))
        if self.dH_dq.size != self.dH_dp.size:
            raise DimensionMismatchError("dH_dq and dH_dp lengths differ")
        vals = np.concatenate([self.dH_dq, self.dH_dp, [self.dH_dS, self.dH_dt]])
        if not np.all(np.isfinite(vals)):
            raise NonFiniteError(f"non-finite partial derivatives: {vals}")


# ---------------------------------------------------------------------------
# Scalar helper functions (potentials, frequencies)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarFunction:
    """A scalar function of one variable carrying its own derivatives.

    Built-ins always supply an analytic derivative; passing ``df=None`` falls
    back to central finite differences (documented fallback, not the default).
    The second derivative is always a central difference of the first.
    """

    f: Callable[[float], float]
    df: Optional[Callable[[float], float]] = None
    is_constant: bool = False

    def __call__(self, x: float) -> float:
        return float(self.f(x))

    def derivative(self, x: float) -> float:
        if self.is_constant:
            return 0.0
        if self.df is not None:
            return float(self.df(x))
        return float(central_difference(lambda z: self(z[0]), [x])[0])

    def second_derivative(self, x: float) -> float:
        h = FD_STEP * max(1.0, abs(x))
        return (self.derivative(x + h) - self.derivative(x - h)) / (2.0 * h)


def as_scalar_fn(obj, name: str = "function") -> ScalarFunction:
    """Coerce numbers, callables or ScalarFunctions to a ScalarFunction; an
    object with ``as_scalar_function`` (a parsed expression) converts itself,
    so that it keeps its symbolic derivative."""
    if isinstance(obj, ScalarFunction):
        return obj
    if hasattr(obj, "as_scalar_function"):
        return obj.as_scalar_function()
    if isinstance(obj, (int, float)):
        c = float(obj)
        return ScalarFunction(f=lambda _x, c=c: c, df=lambda _x: 0.0, is_constant=True)
    if callable(obj):
        return ScalarFunction(f=obj)
    raise TypeError(f"{name} must be a number, callable or ScalarFunction, got {type(obj)!r}")


def quadratic_potential(k: float = 1.0) -> ScalarFunction:
    """V(q) = k q^2 / 2 with analytic derivative."""
    return ScalarFunction(f=lambda q: 0.5 * k * q * q, df=lambda q: k * q)


# ---------------------------------------------------------------------------
# Hamiltonian models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianModel:
    """Descriptor of a contact Hamiltonian H(q, p, S, t).

    At y = [q, p, S], ``value(t, y)`` is H, ``grad(t, y)`` is [dH/dq, dH/dp,
    dH/dS, dH/dt], ``field(t, y)`` is the (q, p, S) components of the contact
    vector field as a float sequence, which is what the integrators call, and
    ``field_jacobian(t, y)`` is the (2n+1) x (2n+1) matrix A = d(field)/dy,
    which the det series integrates.  The built-ins give ``field`` and
    ``field_jacobian`` in closed form; `make_custom` builds the field from
    ``value`` and ``grad``, and A by `_field_jacobian` from ``grad`` and a
    central-difference Hessian.  All four are unvalidated: a non-finite field
    is left to the integrator, which rejects the step.  ``evaluate`` and
    ``partials`` validate.
    ``h_prime``, when present, is h'(S) for Hamiltonians that split as
    H = H_mec(q, p[, t]) + h(S).
    """

    n: int
    value: Callable[[float, np.ndarray], float]
    grad: Callable[[float, np.ndarray], np.ndarray]
    field: Callable[[float, np.ndarray], Sequence[float]]
    field_jacobian: Callable[[float, np.ndarray], np.ndarray]
    depends_on_S: bool = True
    depends_on_t: bool = True
    name: str = "custom"
    params: Mapping[str, Any] = dataclass_field(default_factory=dict)
    h_prime: Optional[Callable[[float], float]] = None

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

    def partials(self, x: ExtendedState) -> PartialDerivatives:
        """First partials of the contact Hamiltonian at x."""
        self.check_dimensions(x)
        n = self.n
        g = self.grad(x.t, x.flat())
        return PartialDerivatives(g[:n], g[n:2 * n], g[2 * n], g[2 * n + 1])


def _contact_field(n: int, y: np.ndarray, h: float, g: np.ndarray) -> np.ndarray:
    """The (q, p, S) components of the contact field from H = h and its
    gradient g at y: dq/dt = dH/dp, dp/dt = -dH/dq - p dH/dS and
    dS/dt = p . dH/dp - H."""
    p, dH_dp = y[n:2 * n], g[n:2 * n]
    return np.concatenate([dH_dp, -g[:n] - p * g[2 * n],
                           [float(np.dot(p, dH_dp)) - h]])


def _field_jacobian(n: int, y: np.ndarray, g: np.ndarray, K: np.ndarray) -> np.ndarray:
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
#
# Each built-in's `field_jacobian` is `_field_jacobian` of its gradient and its
# Hessian diag(d2H/dq2, d2H/dp2, 0) written out for n = 1, with the same float
# operations: -K - p K_S in the p row, p dH/dp - dH/dq in the S row and
# -dH/dS added on the diagonal from p to S.  The values agree; the sign of an
# exact zero at A[2, 0] or A[2, 2] may not, since the generic S row is a
# matrix product where this is p * 0.0.

def make_linear_dissipation(m: float, gamma: float, V) -> HamiltonianModel:
    """H = p^2/2m + V(q) + gamma*S, the one-dimensional linear-friction system."""
    if not 0 < m < math.inf:
        raise ValueError(f"mass must be positive, got m={m}")
    if not 0 <= gamma < math.inf:
        raise ValueError(f"damping rate must be non-negative, got gamma={gamma}")
    Vfn = as_scalar_fn(V, "V")

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

    def field_jacobian(t, y) -> np.ndarray:
        q, p, _ = y.tolist()
        d2H_dp2 = 1.0 / m
        return np.array([[0.0, d2H_dp2, 0.0],
                         [-Vfn.second_derivative(q) - p * 0.0, -0.0 - p * 0.0 - gamma,
                          -0.0 - p * 0.0],
                         [p * 0.0 - Vfn.derivative(q), p * d2H_dp2, p * 0.0 - gamma]])

    return HamiltonianModel(
        n=1, value=value, grad=grad, field=field, field_jacobian=field_jacobian,
        depends_on_S=gamma > 0, depends_on_t=False,
        name="linear_dissipation",
        params={"m": m, "gamma": gamma, "V": Vfn},
        h_prime=lambda S: gamma,
    )


def make_damped_parametric(m: float, gamma: float, omega) -> HamiltonianModel:
    """H = p^2/2m + m w(t)^2 q^2 / 2 + gamma*S, the damped parametric oscillator.

    ``omega`` may be a number (constant frequency: damped harmonic oscillator,
    and the model is flagged time-independent), zero (damped free particle) or
    a time-dependent ScalarFunction/callable.
    """
    if not 0 < m < math.inf:
        raise ValueError(f"mass must be positive, got m={m}")
    if not 0 <= gamma < math.inf:
        raise ValueError(f"damping rate must be non-negative, got gamma={gamma}")
    wfn = as_scalar_fn(omega, "omega")

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

    def field_jacobian(t, y) -> np.ndarray:
        q, p, _ = y.tolist()
        w = wfn(t)
        d2H_dp2 = 1.0 / m
        return np.array([[0.0, d2H_dp2, 0.0],
                         [-(m * w ** 2) - p * 0.0, -0.0 - p * 0.0 - gamma, -0.0 - p * 0.0],
                         [p * 0.0 - m * w * w * q, p * d2H_dp2, p * 0.0 - gamma]])

    return HamiltonianModel(
        n=1, value=value, grad=grad, field=field, field_jacobian=field_jacobian,
        depends_on_S=gamma > 0, depends_on_t=not wfn.is_constant,
        name="damped_parametric",
        params={"m": m, "gamma": gamma, "omega": wfn},
        h_prime=lambda S: gamma,
    )


def make_caldirola_kanai(m: float, gamma: float, V) -> HamiltonianModel:
    """H = e^{-gamma t} p^2/2m + e^{gamma t} V(q), explicitly time dependent.

    The S-independent effective model for linear damping: integrated with the
    contact equations its (q, p) flow is the standard symplectic one, and q(t)
    obeys the same damped Newton equation as the linear-dissipation model.
    """
    if not 0 < m < math.inf:
        raise ValueError(f"mass must be positive, got m={m}")
    if not 0 <= gamma < math.inf:
        raise ValueError(f"damping rate must be non-negative, got gamma={gamma}")
    Vfn = as_scalar_fn(V, "V")

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

    def field_jacobian(t, y) -> np.ndarray:
        q, p, _ = y.tolist()
        em, ep = factors(t)
        d2H_dp2 = em / m
        return np.array([[0.0, d2H_dp2, 0.0],
                         [-(ep * Vfn.second_derivative(q)) - p * 0.0, -0.0 - p * 0.0 - 0.0,
                          -0.0 - p * 0.0],
                         [p * 0.0 - ep * Vfn.derivative(q), p * d2H_dp2, p * 0.0 - 0.0]])

    return HamiltonianModel(
        n=1, value=value, grad=grad, field=field, field_jacobian=field_jacobian,
        depends_on_S=False, depends_on_t=gamma > 0,
        name="caldirola_kanai",
        params={"m": m, "gamma": gamma, "V": Vfn},
        h_prime=lambda S: 0.0,
    )


def make_custom(n: int, value, grad=None, depends_on_S: bool = True,
                depends_on_t: bool = True, name: str = "custom",
                params: Optional[Mapping[str, Any]] = None,
                h_prime=None) -> HamiltonianModel:
    """Wrap callables of (t, y), y = [q, p, S], as a model: ``value`` is H and
    ``grad`` [dH/dq, dH/dp, dH/dS, dH/dt], central differences of ``value`` when
    None.  The field is `_contact_field` of value and gradient, and its Jacobian
    is `_field_jacobian` of gradient and a central-difference Hessian."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    n = int(n)

    if grad is None:
        def gradient(t, y) -> np.ndarray:
            g = central_difference(lambda z: value(z[-1], z[:-1]), np.append(y, t))
            if not depends_on_S:
                g[2 * n] = 0.0
            if not depends_on_t:
                g[2 * n + 1] = 0.0
            return g
    else:
        def gradient(t, y) -> np.ndarray:
            g = np.asarray(grad(t, y), dtype=float)
            if g.shape != (2 * n + 2,):
                raise DimensionMismatchError(f"model '{name}' needs a grad of length "
                                             f"{2 * n + 2}, got shape {g.shape}")
            return g

    def field(t, y) -> np.ndarray:
        return _contact_field(n, y, value(t, y), gradient(t, y))

    def field_jacobian(t, y) -> np.ndarray:
        return _field_jacobian(n, y, gradient(t, y),
                               central_difference(lambda z: gradient(t, z)[:2 * n + 1], y))

    return HamiltonianModel(
        n=n, value=value, grad=gradient, field=field, field_jacobian=field_jacobian,
        depends_on_S=depends_on_S, depends_on_t=depends_on_t,
        name=name, params=dict(params or {}), h_prime=h_prime,
    )
