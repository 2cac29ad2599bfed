"""Diagnostic suite run by the scenario front end.

Each diagnostic compares a structural prediction of the contact formalism
(decay law, volume contraction, invariant measure, invariants, contact
Hamilton-Jacobi residual, transformation conditions) against the integrated
flow and reports threshold / observed / pass.  A check reads only the model
(its params) and the trajectory, and this module owns the check vocabulary.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from . import dynamics, oscillator, transforms
from .dynamics import Trajectory
from .errors import NonFiniteError, ScenarioError
from .hamilton_jacobi import hj_residual, principal_field_from_riccati
from .model import HamiltonianModel

EPS_DEN = 1e-30
# G's drift is relative to at least this fraction of |I0|: the Lewis invariant
# I has G's units and is positive off the origin, where G0 = 0 is a regular state
G_FLOOR_OF_I = 1e-2


def _rel_drift(x: np.ndarray, floor: float = 0.0) -> float:
    """The largest |x - x[0]| relative to |x[0]|, or to `floor` where that is larger."""
    ref = float(x[0])
    return float(np.max(np.abs(x - ref))) / max(abs(ref), floor, 1e-12)


def check_energy_conservation(model, traj: Trajectory, cache: Dict) -> Dict:
    observed = _rel_drift(traj.H)
    return {"name": "energy_conservation", "threshold": 1e-8,
            "observed": observed, "passed": observed < 1e-8,
            "series": [("H", traj.times, traj.H)]}


def check_hamiltonian_decay(model, traj: Trajectory, cache: Dict) -> Dict:
    """H against the decay law dH/dt = -H dH/dS, which needs an H without explicit t."""
    pred = dynamics.predicted_hamiltonian(traj)
    den = np.maximum(np.abs(pred), EPS_DEN)
    observed = float(np.max(np.abs(traj.H - pred) / den))
    return {"name": "hamiltonian_decay", "threshold": 1e-6,
            "observed": observed, "passed": observed < 1e-6,
            "series": [("H", traj.times, traj.H), ("predicted", traj.times, pred)]}


def _det_series(traj: Trajectory, cache: Dict) -> np.ndarray:
    """det dPhi at the samples, from the tangent `integrate` carried."""
    if traj.J is None:
        raise ValueError("the divergence and measure checks need the flow's tangent: "
                         "integrate with tangent=True")
    if "dets" not in cache:
        cache["dets"] = np.linalg.det(traj.J)
    return cache["dets"]


def check_divergence(model, traj: Trajectory, cache: Dict) -> Dict:
    dets = _det_series(traj, cache)
    expected = np.exp(dynamics._cumulative_trapezoid(traj.times, traj.div))
    observed = float(np.max(np.abs(dets - expected) / np.abs(expected)))
    return {"name": "divergence", "threshold": 1e-5,
            "observed": observed, "passed": observed < 1e-5,
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
    observed = _rel_drift(product)
    return {"name": "measure", "threshold": 1e-4,
            "observed": observed, "passed": observed < 1e-4,
            "extra": {"samples_used": float(mask.sum())},
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
    I = oscillator.lewis_invariant(m, gamma, erm, traj.times, rows)
    G = oscillator.g_invariant(gamma, traj.times, rows)
    interior = traj.times[1:-1]
    res = float(np.max(np.abs(erm.residual(interior)))) if len(interior) else 0.0
    observed = max(_rel_drift(I), _rel_drift(G, G_FLOOR_OF_I * abs(float(I[0]))))
    return {"name": "invariants", "threshold": 1e-6,
            "observed": observed,
            "passed": observed < 1e-6 and res < 1e-7,
            "extra": {"ermakov_residual": res},
            "series": [("I/I0", traj.times, I / max(abs(I[0]), EPS_DEN)),
                       ("G/G0", traj.times, G / max(abs(G[0]), EPS_DEN))],
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
    observed = float(np.max(np.abs(res)))
    return {"name": "hj_residual", "threshold": 1e-8,
            "observed": observed, "passed": observed < 1e-8,
            "extra": {"riccati_C0": C0},
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
    report = transforms.verify(cmap, rows, tol=1e-8)
    ts = rows[:, 3]
    order = np.argsort(ts)
    f_expected = np.exp(gmap * ts)
    f_dev = float(np.max(np.abs(report.f_values - f_expected)))
    passed = report.max_residual < 1e-8 and f_dev < 1e-9
    return {"name": f"transform_verify:{name}", "threshold": 1e-8,
            "observed": report.max_residual, "passed": passed,
            "extra": {"f_deviation": f_dev, "f_threshold": 1e-9},
            "series": [("f", ts[order], report.f_values[order]),
                       ("exp(gamma t)", ts[order], f_expected[order])]}


# token -> check(model, traj, cache), with the map name first for
# "transform_verify:<map>"; the cache holds the seed and the checks' shared work.
CHECKS = {
    "energy_conservation": check_energy_conservation,
    "hamiltonian_decay": check_hamiltonian_decay,
    "divergence": check_divergence,
    "measure": check_measure,
    "invariants": check_invariants,
    "hj_residual": check_hj_residual,
    "transform_verify": check_transform_verify,
}
MAPS = ("identity", "ck", "expanding", "invariants")  # of "transform_verify:<map>"
TOKENS = (*(kind for kind in CHECKS if kind != "transform_verify"),
          *(f"transform_verify:{name}" for name in MAPS))
# What a check needs: the flow's tangent Trajectory.J (integrate with
# tangent=True), an Ermakov or Riccati solve on the oscillator's interpolation
# nodes over the whole span, an H without explicit t, a conservative H (gamma =
# 0 and no explicit t), or entries of model.params, where the damped parametric
# oscillator keeps its omega(t).
TANGENT_CHECKS = frozenset({"divergence", "measure"})
NODE_CHECKS = frozenset({"invariants", "transform_verify:invariants", "hj_residual"})
AUTONOMOUS_CHECKS = frozenset({"hamiltonian_decay"})
CONSERVATIVE_CHECKS = frozenset({"energy_conservation"})
PARAMS = {  # token -> the model.params entries its check reads
    "invariants": ("m", "gamma", "omega"),
    "hj_residual": ("m", "gamma", "omega"),
    "transform_verify:ck": ("m", "gamma"),
    "transform_verify:expanding": ("m", "gamma"),
    "transform_verify:invariants": ("m", "gamma", "omega"),
}


def validate_checks(checks: Sequence[str], params, owner: str) -> None:
    """ScenarioError at diagnostics.checks for the first token of `checks` that
    is not in TOKENS, or whose check reads model.params entries that `params`
    lacks; `owner` names the model, as in "kind=linear_dissipation"."""
    for token in checks:
        if token not in TOKENS:
            raise ScenarioError(f"diagnostics.checks: unknown check {token!r}; "
                                f"expected one of {TOKENS}")
        missing = [key for key in PARAMS.get(token, ()) if key not in params]
        if missing:
            raise ScenarioError(f"diagnostics.checks: {token!r} needs "
                                f"{', '.join('model.' + key for key in missing)}, "
                                f"which {owner} does not have")


def run_checks(checks: Sequence[str], model: HamiltonianModel, traj: Trajectory,
               seed: int = 0) -> List[Dict]:
    """Run the checks named by `checks`, tokens of TOKENS, in order on the model
    and its trajectory; `seed` draws the transform checks' points.  The tokens
    and the model.params they read are validated before any check runs."""
    validate_checks(checks, model.params, f"model {model.name!r}")
    cache: Dict = {"seed": seed}
    results = []
    for token in checks:
        kind, _, arg = token.partition(":")
        args = (arg,) if arg else ()
        results.append(CHECKS[kind](*args, model, traj, cache))
    return results
