"""Diagnostic suite run by the scenario front end.

Each diagnostic compares a structural prediction of the contact formalism
(decay law, volume contraction, invariant measure, invariants, contact
Hamilton-Jacobi residual, transformation conditions) against the integrated
flow and reports threshold / observed / pass.  A check reads only the model
(its params) and the trajectory, and only measures; `run_checks` judges it by
the threshold and gates of its token's `CHECKS` row.  The rows also hold what
each check needs, from which one rule, `validate_checks`, refuses a check that
does not apply, for scenario files and library callers alike.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import Dict, List, Mapping, Sequence

import numpy as np

from . import dynamics, oscillator, transforms
from .dynamics import Trajectory
from .errors import NonFiniteError, ScenarioError
from .hamilton_jacobi import hj_residual, principal_field_from_riccati
from .model import HamiltonianModel, explicit_t

EPS_DEN = 1e-30
# G's drift is relative to at least this fraction of |I0|: the Lewis invariant
# I has G's units and is positive off the origin, where G0 = 0 is a regular state
G_FLOOR_OF_I = 1e-2
# With model.params' m, H's drift is relative to at least this fraction of
# max |T| + max |H - T| along the run, T = p.p/2m, so H0 = 0 is a regular state.
# It is at most 1/2: for T >= 0, V = H - T >= 0 and H conserved, each max is at
# most |H0|, so the floor never exceeds |H0|
H_FLOOR_OF_TERMS = 0.1
F_THRESHOLD = 1e-9  # a transform check's gate on |f - e^{gamma t}|, which its report prints


def _rel_drift(x: np.ndarray, floor: float = 0.0) -> float:
    """The largest |x - x[0]| relative to |x[0]|, or to `floor` where that is larger."""
    ref = float(x[0])
    return float(np.max(np.abs(x - ref))) / max(abs(ref), floor, 1e-12)


def check_energy_conservation(model, traj: Trajectory, cache: Dict) -> Dict:
    floor = 0.0
    if "m" in model.params:
        T = np.sum(traj.p * traj.p, axis=1) / (2 * model.params["m"])
        floor = H_FLOOR_OF_TERMS * (np.max(np.abs(T)) + np.max(np.abs(traj.H - T)))
    return {"observed": _rel_drift(traj.H, floor), "series": [("H", traj.times, traj.H)]}


def check_hamiltonian_decay(model, traj: Trajectory, cache: Dict) -> Dict:
    """H against the decay law dH/dt = -H dH/dS, which needs an H without explicit t."""
    pred = dynamics.predicted_hamiltonian(traj)
    den = np.maximum(np.abs(pred), EPS_DEN)
    return {"observed": float(np.max(np.abs(traj.H - pred) / den)),
            "series": [("H", traj.times, traj.H), ("predicted", traj.times, pred)]}


def _det_series(traj: Trajectory, cache: Dict) -> np.ndarray:
    """det dPhi at the samples, from the tangent `integrate` carried."""
    if "dets" not in cache:
        cache["dets"] = np.linalg.det(traj.J)
    return cache["dets"]


def check_divergence(model, traj: Trajectory, cache: Dict) -> Dict:
    dets = _det_series(traj, cache)
    expected = np.exp(dynamics._cumulative_trapezoid(traj.times, traj.div))
    return {"observed": float(np.max(np.abs(dets - expected) / np.abs(expected))),
            "extra": {"max_abs_divergence": float(np.max(np.abs(traj.div)))},
            "series": [("det", traj.times, dets),
                       ("exp(int div)", traj.times, expected)]}


def check_measure(model, traj: Trajectory, cache: Dict) -> Dict:
    dets = _det_series(traj, cache)
    mask = np.abs(traj.H) > 1e-3
    if mask.sum() < 2:
        raise ScenarioError("measure: |H| <= 1e-3 along the whole trajectory")
    weight = np.abs(traj.H[mask]) ** (-(traj.n + 1))
    product = weight * dets[mask]
    return {"observed": _rel_drift(product), "extra": {"samples_used": float(mask.sum())},
            "series": [("weight*det", traj.times[mask], product)]}


def _ermakov_for(model, traj: Trajectory, cache: Dict):
    """The Ermakov solution on traj's samples, started by `oscillator.ermakov_start`."""
    if "erm" not in cache:
        omega, gamma = model.params["omega"], model.params["gamma"]
        start = oscillator.ermakov_start(omega, gamma, float(traj.times[0]))
        cache["erm"] = oscillator.solve_ermakov(omega, gamma, *start, traj.times)
    return cache["erm"]


def check_invariants(model, traj: Trajectory, cache: Dict) -> Dict:
    """Lewis's I and the G invariant of the damped parametric oscillator along traj."""
    erm = _ermakov_for(model, traj, cache)
    m, gamma = model.params["m"], model.params["gamma"]
    rows = traj.flat()
    I, G = oscillator.invariants(m, gamma, erm, traj.times, rows)
    interior = traj.times[1:-1]
    res = float(np.max(np.abs(erm.residual(interior)))) if len(interior) else 0.0
    g_den = max(abs(float(G[0])), G_FLOOR_OF_I * abs(float(I[0])), EPS_DEN)
    return {"observed": max(_rel_drift(I), _rel_drift(G, g_den)),
            "extra": {"ermakov_residual": res},
            "series": [("I/I0", traj.times, I / max(abs(I[0]), EPS_DEN)),
                       ("G/G0", traj.times, G / g_den)],
            "columns": {"I": I, "G": G}}


def check_hj_residual(model, traj: Trajectory, cache: Dict) -> Dict:
    """The contact HJ residual of the oscillator's quadratic principal function
    with slope p/(m q) at the first sample, on a 50 x 50 grid of q and t."""
    m, gamma = model.params["m"], model.params["gamma"]
    q0, p0 = float(traj.q[0, 0]), float(traj.p[0, 0])
    if m * q0 != 0:
        C0 = p0 / (m * q0)
    else:  # q = 0, or m q underflowing to 0 below a slope past any float
        C0 = 1.0 if q0 == 0 else math.copysign(math.inf, p0 * q0) if p0 else 0.0
    if not np.isfinite(C0):  # a subnormal m q overflows the slope
        raise NonFiniteError(f"hj_residual: the Riccati start p/(m q) = {C0!r} is non-finite "
                             f"at t={float(traj.times[0])!r}, y={traj.flat()[0]}")
    grid = np.linspace(traj.times[0], traj.times[-1], 201)
    ric = oscillator.solve_riccati(model.params["omega"], gamma, C0, grid)
    field = principal_field_from_riccati(m, ric)
    qs = np.linspace(-2.0, 2.0, 50)
    ts = np.linspace(traj.times[0], traj.times[-1], 50)
    res = hj_residual(model, field, qs[None, :], ts)
    return {"observed": float(np.max(np.abs(res))), "extra": {"riccati_C0": C0},
            "series": [("max_q |residual|", ts, np.max(np.abs(res), axis=1))]}


def _build_map(name: str, model, traj: Trajectory, cache: Dict):
    """(map, gamma of its conformal factor e^{gamma t}) for the map name."""
    if name == "identity":
        return transforms.map_identity(1), 0.0
    m, gamma = model.params["m"], model.params["gamma"]
    if name == "ck":
        return transforms.map_ck(m, gamma), gamma
    if name == "expanding":
        return transforms.map_expanding(m, gamma), gamma
    return transforms.map_invariants(m, gamma, _ermakov_for(model, traj, cache)), gamma


def check_transform_verify(name: str, model, traj: Trajectory, cache: Dict) -> Dict:
    """The named map's contact conditions and factor e^{gamma t} at 100 seeded points."""
    cmap, gmap = _build_map(name, model, traj, cache)
    rng = np.random.default_rng([cache["seed"], len(name)])
    rows = rng.uniform([0.5, -1.0, -1.0, traj.times[0]], [1.5, 1.0, 1.0, traj.times[-1]],
                       size=(100, 4))
    report = transforms.verify(cmap, rows)
    ts = rows[:, 3]
    order = np.argsort(ts)
    f_expected = np.exp(gmap * ts)
    f_dev = float(np.max(np.abs(report.f_values - f_expected)))
    return {"observed": report.max_residual,
            "extra": {"f_deviation": f_dev, "f_threshold": F_THRESHOLD},
            "series": [("f", ts[order], report.f_values[order]),
                       ("exp(gamma t)", ts[order], f_expected[order])]}


# A check token's row: its check(model, traj, cache), which measures; the threshold
# of its observed value and its (extra key, bound) gates; the model.params entries
# the check reads; and whether it needs the flow's tangent Trajectory.J (integrate
# with tangent=True), an Ermakov or Riccati solve on the oscillator's
# interpolation nodes over the whole span, an autonomous H or a conservative H.
Check = namedtuple("Check", "check threshold gates params tangent nodes autonomous conservative",
                   defaults=((), (), False, False, False, False))
_OSCILLATOR = ("m", "gamma", "omega")  # the damped parametric oscillator keeps its omega(t)
CHECKS = {  # token -> its Check; the checks of a run share a cache that holds the seed
    "energy_conservation": Check(check_energy_conservation, 1e-8, conservative=True),
    "hamiltonian_decay": Check(check_hamiltonian_decay, 1e-6, autonomous=True),
    "divergence": Check(check_divergence, 1e-5, tangent=True),
    "measure": Check(check_measure, 1e-4, tangent=True, autonomous=True),
    "invariants": Check(check_invariants, 1e-6, gates=(("ermakov_residual", 1e-7),),
                        params=_OSCILLATOR, nodes=True),
    "hj_residual": Check(check_hj_residual, 1e-8, params=_OSCILLATOR, nodes=True),
    **{f"transform_verify:{name}": Check(functools.partial(check_transform_verify, name), 1e-8,
                                         gates=(("f_deviation", F_THRESHOLD),), params=params,
                                         nodes=name == "invariants")
       for name, params in (("identity", ()), ("ck", ("m", "gamma")),
                            ("expanding", ("m", "gamma")), ("invariants", _OSCILLATOR))},
}
TOKENS = tuple(CHECKS)


def validate_checks(checks: Sequence[str], kind: str, params: Mapping, t0: float,
                    t_end: float, owner: str) -> None:
    """ScenarioError for the first of `checks` that does not apply to a model of
    `kind` with `params` on [t0, t_end], `owner` naming it: an unknown token or
    missing params, of any token; then, per token, a node span past MAX_NODES,
    or explicit t or a non-conservative H for a built-in kind (`model.explicit_t`)."""
    for token in checks:
        if token not in CHECKS:
            raise ScenarioError(f"diagnostics.checks: unknown check {token!r}; "
                                f"expected one of {TOKENS}")
        needs = ", ".join(f"model.{key}" for key in CHECKS[token].params if key not in params)
        if needs:
            raise ScenarioError(f"diagnostics.checks: {token!r} needs {needs}, "
                                f"which {owner} does not have")
    depends_on_t = explicit_t(kind, params)
    damped = depends_on_t is not None and params["gamma"] > 0
    for token in checks:
        row, spacing = CHECKS[token], oscillator.NODE_SPACING
        if row.nodes and (t_end - t0) / spacing > oscillator.MAX_NODES:
            raise ScenarioError(f"integration.t_end: {token!r} interpolates on nodes {spacing} "
                                f"apart, and (t_end - t0) / {spacing} exceeds "
                                f"{oscillator.MAX_NODES} nodes, got t_end={t_end}")
        if row.autonomous and depends_on_t:
            raise ScenarioError(f"diagnostics.checks: {token!r} holds only for an H without "
                                f"explicit t, and this {kind} model depends on t")
        if row.conservative and (damped or depends_on_t):
            why = f"has gamma = {params['gamma']!r}" if damped else "depends on t"
            raise ScenarioError(f"diagnostics.checks: {token!r} holds only for a conservative "
                                f"H (gamma = 0, no explicit t), and this {kind} model {why}")


def run_checks(checks: Sequence[str], model: HamiltonianModel, traj: Trajectory,
               seed: int = 0) -> List[Dict]:
    """Run the checks named by `checks`, tokens of TOKENS, in order on the model
    and its trajectory; `seed` draws the transform checks' points.  What does not
    apply is refused before any check runs, as for a scenario file, and so is a
    check that needs the tangent of a trajectory integrated without it.  Each
    result is named by its token and passes iff its observed value is below the
    row's threshold and every gate's extra value below its bound (a NaN fails)."""
    validate_checks(checks, model.name, model.params, float(traj.times[0]),
                    float(traj.times[-1]), f"model {model.name!r}")
    tangent = [token for token in checks if CHECKS[token].tangent]
    if tangent and traj.J is None:
        raise ScenarioError(f"diagnostics.checks: {tangent[0]!r} needs the flow's tangent, "
                            f"and this trajectory has none: integrate with tangent=True")
    cache: Dict = {"seed": seed}
    results = []
    for token in checks:
        row = CHECKS[token]
        result = row.check(model, traj, cache)
        gates = (result["extra"][key] < bound for key, bound in row.gates)
        results.append({"name": token, "threshold": row.threshold,
                        "passed": result["observed"] < row.threshold and all(gates), **result})
    return results
