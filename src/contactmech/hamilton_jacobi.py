"""Contact Hamilton-Jacobi machinery.

A candidate principal function S(q, t) solves the contact Hamilton-Jacobi
equation when H(q, dS/dq, S, t) + dS/dt = 0.  Complete solutions come in
parameter families S(q, c, t); the derivatives b_i = dS/dc^i recover the
trajectories algebraically once they satisfy b_i' = -(dH/dS) b_i along the
flow (the classical constancy of the b_i is the S-independent special case).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, UnsupportedModelError
from .model import ExtendedState, HamiltonianModel, central_difference
from .dynamics import Trajectory
from .oscillator import RiccatiSolution, riccati_sensitivity, solve_riccati

FAMILY_CACHE_SIZE = 8  # per-c Riccati solves kept by quadratic_principal_family


@dataclass(frozen=True)
class PrincipalFunctionField:
    """A candidate S(q, t) with its partials, optionally inside a family S(q, c, t)."""

    n: int
    S: Callable[[np.ndarray, float], float]
    dS_dq: Callable[[np.ndarray, float], np.ndarray]
    dS_dt: Callable[[np.ndarray, float], float]
    family: Optional[Callable[[np.ndarray, np.ndarray, float], float]] = None
    dS_dc: Optional[Callable[[np.ndarray, np.ndarray, float], np.ndarray]] = None


def _per_point(values, k: int, what: str) -> np.ndarray:
    try:
        return np.broadcast_to(np.asarray(values, dtype=float), (k,))
    except ValueError:
        raise DimensionMismatchError(
            f"{what} has shape {np.shape(values)}, expected one value per point") from None


def hj_residual(model: HamiltonianModel, field: PrincipalFunctionField, q, t: float):
    """H(q, dS/dq, S(q,t), t) + dS/dt; zero iff the field solves the equation at (q, t).

    ``q`` is one point of shape (n,), giving a float, or a batch of k points of
    shape (n, k), giving a (k,) array.  The field is called once on the whole
    batch, so its closures must broadcast over the last axis of q.
    """
    q, t = np.atleast_1d(np.asarray(q, dtype=float)), float(t)
    if q.ndim > 2 or len(q) < 1:
        raise DimensionMismatchError(
            f"q must have shape (n,) or (n, k) with n >= 1, got {q.shape}")
    qs = q.reshape(len(q), -1)
    n, k = qs.shape
    p = np.asarray(field.dS_dq(qs, t), dtype=float)
    if p.ndim < 2:
        p = p.reshape(-1, 1)  # the same dS/dq at every point of the batch
    S = _per_point(field.S(qs, t), k, "S")
    if p.shape[0] != n or p.shape[1] not in (1, k):
        raise DimensionMismatchError(
            f"q and p must have equal length, got {qs.shape} and {p.shape}")
    if not (np.all(np.isfinite(qs)) and np.all(np.isfinite(p)) and np.all(np.isfinite(S))):
        raise NonFiniteError(f"non-finite contact state: q={qs}, p={p}, S={S}")
    if not math.isfinite(t):
        raise NonFiniteError(f"non-finite time t={t}")
    if n != model.n:
        raise DimensionMismatchError(
            f"model '{model.name}' has n={model.n} but state has n={n}")
    ys = np.concatenate([qs, np.broadcast_to(p, (n, k)), S[None, :]])
    H = np.array([model.value(t, y) for y in ys.T], dtype=float)
    if not np.all(np.isfinite(H)):
        raise NonFiniteError(f"model '{model.name}' is non-finite at q={qs}, t={t}")
    res = H + _per_point(field.dS_dt(qs, t), k, "dS/dt")
    return res if q.ndim == 2 else float(res[0])


def extended_F(model: HamiltonianModel, q, p, S: float, t: float, E: float) -> float:
    """The level function E - H(q, p, S, t) whose zero set carries the dynamics."""
    return E - model.evaluate(ExtendedState(q, p, S, t))


def characteristic_b(field: PrincipalFunctionField, c, q, t: float) -> np.ndarray:
    """b_i = dS/dc^i at (q, c, t), closed form or centered differences over c."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if field.dS_dc is not None:
        return np.atleast_1d(np.asarray(field.dS_dc(q, c, t), dtype=float))
    if field.family is None:
        raise UnsupportedModelError("field has no parameter family")
    return central_difference(lambda cc: field.family(q, cc, t), c)


def verify_b_condition(model: HamiltonianModel, field: PrincipalFunctionField,
                       c, traj: Trajectory) -> np.ndarray:
    """Residuals of b_i' + (dH/dS) b_i at interior samples of a trajectory.

    b_i' is taken by centered differences on the sample grid; near-zero
    residuals certify that the family's constants behave as characteristics
    of the flow on this trajectory.
    """
    if len(traj) < 3:
        raise ValueError("need at least 3 trajectory samples")
    if traj.n != model.n:
        raise DimensionMismatchError(f"model '{model.name}' has n={model.n} but the "
                                     f"trajectory has n={traj.n}")
    b = np.array([characteristic_b(field, c, q, t) for q, t in zip(traj.q, traj.times)])
    dS = np.array([model.grad(t, y)[2 * model.n] for t, y in zip(traj.times, traj.flat())])
    dt2 = traj.times[2:] - traj.times[:-2]
    bdot = (b[2:] - b[:-2]) / dt2[:, None]
    return bdot + dS[1:-1, None] * b[1:-1]


# ---------------------------------------------------------------------------
# Fields for the damped parametric oscillator
# ---------------------------------------------------------------------------

def principal_field_from_riccati(m: float, ric: RiccatiSolution) -> PrincipalFunctionField:
    """The quadratic-ansatz solution built from a Riccati solution:

        S(q, t) = (m/2) C (q - lam)^2 + m lam' (q - lam) + (m/2) lam lam'.

    dS/dt is evaluated through the defining equations of C and lambda, so the
    residual of the contact Hamilton-Jacobi equation vanishes identically up
    to the accuracy of the dense solution.
    """
    gamma = ric.gamma

    def S(q, t):
        r = q[0] - ric.lam(t)
        ld = ric.lam_dot(t)
        return 0.5 * m * ric.C(t) * r * r + m * ld * r + 0.5 * m * ric.lam(t) * ld

    def dS_dq(q, t):
        return np.array([m * ric.C(t) * (q[0] - ric.lam(t)) + m * ric.lam_dot(t)])

    def dS_dt(q, t):
        lam, ld, C = ric.lam(t), ric.lam_dot(t), ric.C(t)
        w2 = ric.omega(t) ** 2
        ldd = -gamma * ld - w2 * lam
        Cd = -C * C - gamma * C - w2
        r = q[0] - lam
        return (0.5 * m * Cd * r * r - m * C * ld * r + m * ldd * r
                - 0.5 * m * ld * ld + 0.5 * m * lam * ldd)

    return PrincipalFunctionField(n=1, S=S, dS_dq=dS_dq, dS_dt=dS_dt)


def quadratic_principal_family(m: float, omega, gamma: float, grid,
                               C0: float) -> PrincipalFunctionField:
    """The one-parameter family S(q, c, t) = (m/2) C(t; c) q^2 over the
    Riccati initial value c, instantiated at c = C0.

    dS/dc uses the paired-solve Riccati sensitivity; the solutions of the
    FAMILY_CACHE_SIZE most recent c values are kept, so family evaluations stay
    cheap along trajectories without growing with the number of c probed.
    """
    base = solve_riccati(omega, gamma, C0, grid)

    @functools.lru_cache(maxsize=FAMILY_CACHE_SIZE)
    def _ric(c: float) -> RiccatiSolution:
        return base if c == float(C0) else solve_riccati(base.omega, gamma, c, grid)

    @functools.lru_cache(maxsize=FAMILY_CACHE_SIZE)
    def _sens(c: float):
        return riccati_sensitivity(base.omega, gamma, c, grid)

    def S(q, t):
        return 0.5 * m * base.C(t) * q[0] * q[0]

    def dS_dq(q, t):
        return np.array([m * base.C(t) * q[0]])

    def dS_dt(q, t):
        return 0.5 * m * base.C_dot(t) * q[0] * q[0]

    def family(q, c, t):
        return float(0.5 * m * _ric(float(c[0])).C(t) * q[0] * q[0])

    def dS_dc(q, c, t):
        return np.array([0.5 * m * float(_sens(float(c[0]))(t)) * q[0] * q[0]])

    return PrincipalFunctionField(n=1, S=S, dS_dq=dS_dq, dS_dt=dS_dt,
                                  family=family, dS_dc=dS_dc)
