"""Contact Hamilton-Jacobi machinery.

A candidate principal function S(q, t) solves the contact Hamilton-Jacobi
equation when H(q, dS/dq, S, t) + dS/dt = 0.  Complete solutions come in
parameter families S(q, c, t); the derivatives b_i = dS/dc^i recover the
trajectories algebraically once they satisfy b_i' = -(dH/dS) b_i along the
flow (the classical constancy of the b_i is the S-independent special case).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, UnsupportedModelError
from .model import ExtendedState, HamiltonianModel, central_difference, rowwise
from .dynamics import Trajectory
from .oscillator import RiccatiSolution, solve_riccati

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


def _per_point(values, shape: tuple, what: str) -> np.ndarray:
    """values as one float per point and time: broadcast to `shape`."""
    try:
        return np.broadcast_to(np.asarray(values, dtype=float), shape)
    except ValueError:
        raise DimensionMismatchError(f"{what} has shape {np.shape(values)}, expected one "
                                     f"value per point") from None


@np.errstate(over="ignore", invalid="ignore")  # the field's non-finite values are reported below
def hj_residual(model: HamiltonianModel, field: PrincipalFunctionField, q, t):
    """H(q, dS/dq, S(q,t), t) + dS/dt; zero iff the field solves the equation at (q, t).

    ``q`` is one point of shape (n,), giving a float, or a batch of k points of
    shape (n, k), giving a (k,) array.  ``t`` is one time, or j times of shape
    (j,), which give a row per time: a (j,) array for one point and a (j, k)
    grid for a batch.  The field's closures and the model's ``value`` are each
    called once, on every point and time: the closures get the (n, k) batch
    and t, a float or the (j, 1) column of the times, so they must broadcast
    over the last axis of q and against t.  A non-finite t is refused before
    the field is called, naming the first such time.  A non-finite state or
    H is the error a call at that time alone would raise, at the first time
    at which either occurs.
    """
    q, times = np.asarray(q, dtype=float), np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise DimensionMismatchError(
            f"t must be a time or a 1-d array of times, got shape {times.shape}")
    if not np.isfinite(times).all():
        raise NonFiniteError(f"non-finite time t={times[~np.isfinite(times)][0].item()}")
    if q.ndim > 2 or q.ndim and len(q) < 1:
        raise DimensionMismatchError(
            f"q must have shape (n,) or (n, k) with n >= 1, got {np.atleast_1d(q).shape}")
    qs = q.reshape(len(q), -1) if q.ndim else q.reshape(1, 1)
    n, k = qs.shape
    j = times.size
    shape = (*times.shape, k)  # (k,) or (j, k)
    t = times[:, None] if times.ndim else float(times)
    p = np.asarray(field.dS_dq(qs, t), dtype=float)
    if p.ndim < 2:
        p = p.reshape(-1, 1)  # the same dS/dq at every point of the batch
    S = _per_point(field.S(qs, t), shape, "S").reshape(j, k)
    if p.ndim > len(shape) + 1 or p.shape[0] != n or \
            any(a not in (1, b) for a, b in zip(p.shape[1:][::-1], shape[::-1])):
        raise DimensionMismatchError(
            f"q and p must have equal length, got {qs.shape} and {p.shape}")
    p = p.reshape(n, p.shape[1] if p.ndim == 3 else 1, p.shape[-1])  # (n, 1 or j, 1 or k)
    ys = np.empty((j, k, 2 * n + 1))
    ys[..., :n], ys[..., n:2 * n], ys[..., 2 * n] = qs.T, np.moveaxis(p, 0, -1), S
    bad = ~np.isfinite(ys).all(axis=(1, 2))
    if not k:  # p too, on no point
        bad |= ~np.isfinite(p).all(axis=(0, 2))
    first = int(bad.argmax()) if bad.any() else j  # the first time with a non-finite state
    H = np.empty((first, k))
    if first:  # H at the times before it
        if n != model.n:
            raise DimensionMismatchError(
                f"model '{model.name}' has n={model.n} but state has n={n}")
        H = rowwise(model.value, np.repeat(times[:first], k) if times.ndim else t,
                    ys[:first].reshape(-1, 2 * n + 1)).reshape(first, k)
        bad_H = ~np.isfinite(H)
        if bad_H.any():  # named at its first time's first point, on one line
            i, c = np.unravel_index(bad_H.argmax(), H.shape)
            raise NonFiniteError(f"model '{model.name}' is non-finite at q={qs[:, c]}, "
                                 f"t={times.reshape(-1)[i].item()}")
    if first < j:  # at the first point with a non-finite state, if there are points
        c = int(np.isfinite(ys[first]).all(axis=-1).argmin()) if k else slice(None)
        raise NonFiniteError(f"non-finite contact state: q={qs[:, c]}, "
                             f"p={p[:, min(first, p.shape[1] - 1), c if p.shape[2] > 1 else 0]}, "
                             f"S={S[first, c]}")
    res = H.reshape(shape) + _per_point(field.dS_dt(qs, t), shape, "dS/dt")
    return res if q.ndim == 2 else res[..., 0] if times.ndim else float(res[0])


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
    return central_difference(lambda C: [field.family(q, cc, t) for cc in C], c)


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
    dS = rowwise(model.grad, traj.times, traj.flat())[:, 2 * model.n]
    dt2 = traj.times[2:] - traj.times[:-2]
    bdot = (b[2:] - b[:-2]) / dt2[:, None]
    return bdot + dS[1:-1, None] * b[1:-1]


# ---------------------------------------------------------------------------
# Fields for the damped parametric oscillator
# ---------------------------------------------------------------------------

def principal_field_from_riccati(m: float, ric: RiccatiSolution) -> PrincipalFunctionField:
    """The quadratic-ansatz solution S(q, t) = (m/2) C q^2 of a Riccati solution,
    C = lambda'/lambda, with dS/dq = m C q and dS/dt = (m/2) C' q^2.

    C' is `C_dot`, C's defining equation, so the residual of the contact
    Hamilton-Jacobi equation vanishes identically up to the accuracy of the
    dense solution.
    """

    def S(q, t):
        return 0.5 * m * ric.C(t) * q[0] * q[0]

    def dS_dq(q, t):
        return np.array([m * ric.C(t) * q[0]])

    def dS_dt(q, t):
        return 0.5 * m * ric.C_dot(t) * q[0] * q[0]

    return PrincipalFunctionField(n=1, S=S, dS_dq=dS_dq, dS_dt=dS_dt)


def quadratic_principal_family(m: float, omega, gamma: float, grid,
                               C0: float) -> PrincipalFunctionField:
    """`principal_field_from_riccati` of the Riccati solve from C0, inside the
    one-parameter family S(q, c, t) = (m/2) C(t; c) q^2 over the Riccati
    initial value c.

    dS/dc = (m/2) (dC/dc) q^2 reads dC/dc = e^{-g (t - t0)} / lambda^2 (Abel's
    formula) from the Riccati solve at c; the solutions of the
    FAMILY_CACHE_SIZE most recent c values are kept, so family evaluations stay
    cheap along trajectories without growing with the number of c probed.
    """
    base = solve_riccati(omega, gamma, C0, grid)

    @functools.lru_cache(maxsize=FAMILY_CACHE_SIZE)
    def _ric(c: float) -> RiccatiSolution:
        return base if c == float(C0) else solve_riccati(base.omega, gamma, c, grid)

    def family(q, c, t):
        return float(0.5 * m * _ric(float(c[0])).C(t) * q[0] * q[0])

    def dS_dc(q, c, t):
        return np.array([0.5 * m * float(_ric(float(c[0])).dC_dC0(t)) * q[0] * q[0]])

    return replace(principal_field_from_riccati(m, base), family=family, dS_dc=dS_dc)
