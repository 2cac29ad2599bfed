"""Contact Hamilton-Jacobi machinery.

A candidate principal function S(q, t) solves the contact Hamilton-Jacobi
equation when H(q, dS/dq, S, t) + dS/dt = 0.  Complete solutions come in
parameter families S(q, c, t); the derivatives b_i = dS/dc^i recover the
trajectories algebraically once they satisfy b_i' = -(dH/dS) b_i along the
flow (the classical constancy of the b_i is the S-independent special case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import UnsupportedModelError
from .model import ContactState, ExtendedState, HamiltonianModel, central_difference
from .dynamics import Trajectory
from .oscillator import RiccatiSolution, riccati_sensitivity, solve_riccati


@dataclass(frozen=True)
class PrincipalFunctionField:
    """A candidate S(q, t) with its partials, optionally inside a family S(q, c, t)."""

    n: int
    S: Callable[[np.ndarray, float], float]
    dS_dq: Callable[[np.ndarray, float], np.ndarray]
    dS_dt: Callable[[np.ndarray, float], float]
    family: Optional[Callable[[np.ndarray, np.ndarray, float], float]] = None
    dS_dc: Optional[Callable[[np.ndarray, np.ndarray, float], np.ndarray]] = None


def hj_residual(model: HamiltonianModel, field: PrincipalFunctionField,
                q, t: float) -> float:
    """H(q, dS/dq, S(q,t), t) + dS/dt; zero iff the field solves the equation at (q, t)."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(field.dS_dq(q, t), dtype=float))
    x = ExtendedState(ContactState(q, p, float(field.S(q, t))), t)
    return model.evaluate(x) + float(field.dS_dt(q, t))


def extended_F(model: HamiltonianModel, q, p, S: float, t: float, E: float) -> float:
    """The level function E - H(q, p, S, t) whose zero set carries the dynamics."""
    x = ExtendedState(ContactState(np.atleast_1d(q), np.atleast_1d(p), S), t)
    return E - model.evaluate(x)


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
    m = len(traj)
    if m < 3:
        raise ValueError("need at least 3 trajectory samples")
    b = np.array([characteristic_b(field, c, traj.q[i], traj.times[i])
                  for i in range(m)])
    dS = np.array([model.partials(traj.state(i)).dH_dS for i in range(m)])
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
        return float(0.5 * m * ric.C(t) * r * r + m * ld * r + 0.5 * m * ric.lam(t) * ld)

    def dS_dq(q, t):
        return np.array([m * ric.C(t) * (q[0] - ric.lam(t)) + m * ric.lam_dot(t)])

    def dS_dt(q, t):
        lam, ld, C = ric.lam(t), ric.lam_dot(t), ric.C(t)
        w2 = ric.omega(t) ** 2
        ldd = -gamma * ld - w2 * lam
        Cd = -C * C - gamma * C - w2
        r = q[0] - lam
        return float(0.5 * m * Cd * r * r - m * C * ld * r + m * ldd * r
                     - 0.5 * m * ld * ld + 0.5 * m * lam * ldd)

    return PrincipalFunctionField(n=1, S=S, dS_dq=dS_dq, dS_dt=dS_dt)


def quadratic_principal_family(m: float, omega, gamma: float, grid,
                               C0: float) -> PrincipalFunctionField:
    """The one-parameter family S(q, c, t) = (m/2) C(t; c) q^2 over the
    Riccati initial value c, instantiated at c = C0.

    dS/dc uses the paired-solve Riccati sensitivity; per-c solutions are
    cached so family evaluations stay cheap along trajectories.
    """
    base = solve_riccati(omega, gamma, C0, grid)
    cache = {float(C0): base}
    sens_cache = {}

    def _ric(c: float) -> RiccatiSolution:
        if c not in cache:
            cache[c] = solve_riccati(base.omega, gamma, c, grid)
        return cache[c]

    def S(q, t):
        return float(0.5 * m * base.C(t) * q[0] * q[0])

    def dS_dq(q, t):
        return np.array([m * base.C(t) * q[0]])

    def dS_dt(q, t):
        return float(0.5 * m * base.C_dot(t) * q[0] * q[0])

    def family(q, c, t):
        return float(0.5 * m * _ric(float(c[0])).C(t) * q[0] * q[0])

    def dS_dc(q, c, t):
        key = float(c[0])
        if key not in sens_cache:
            sens_cache[key] = riccati_sensitivity(base.omega, gamma, key, grid)
        return np.array([0.5 * m * float(sens_cache[key](t)) * q[0] * q[0]])

    return PrincipalFunctionField(n=1, S=S, dS_dq=dS_dq, dS_dt=dS_dt,
                                  family=family, dS_dc=dS_dc)
