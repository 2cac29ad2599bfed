"""Diagnostic suite run by the scenario front end.

Each diagnostic compares a structural prediction of the contact formalism
(decay law, volume contraction, invariant measure, invariants, contact
Hamilton-Jacobi residual, transformation conditions) against the integrated
flow and reports threshold / observed / pass.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from . import dynamics, oscillator, transforms
from .dynamics import Trajectory
from .errors import ScenarioError
from .hamilton_jacobi import hj_residual, principal_field_from_riccati
from .model import HamiltonianModel
from .scenario import ScenarioConfig

EPS_DEN = 1e-30


def _rel_drift(x: np.ndarray, scale_floor: float = 1e-12) -> float:
    ref = x[0]
    return float(np.max(np.abs(x - ref)) / max(abs(ref), scale_floor))


def check_energy_conservation(config, model, traj: Trajectory, cache: Dict) -> Dict:
    observed = _rel_drift(traj.H)
    return {"name": "energy_conservation", "threshold": 1e-8,
            "observed": observed, "passed": observed < 1e-8,
            "series": [("H", traj.times, traj.H)]}


def check_hamiltonian_decay(config, model, traj: Trajectory, cache: Dict) -> Dict:
    pred = dynamics.predicted_hamiltonian(model, traj)
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


def check_divergence(config, model, traj: Trajectory, cache: Dict) -> Dict:
    dets = _det_series(traj, cache)
    expected = np.exp(dynamics._cumulative_trapezoid(traj.times, traj.div))
    observed = float(np.max(np.abs(dets - expected) / np.abs(expected)))
    return {"name": "divergence", "threshold": 1e-5,
            "observed": observed, "passed": observed < 1e-5,
            "extra": {"max_abs_divergence": float(np.max(np.abs(traj.div)))},
            "series": [("det", traj.times, dets),
                       ("exp(int div)", traj.times, expected)]}


def check_measure(config, model, traj: Trajectory, cache: Dict) -> Dict:
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


def _ermakov_for(config, traj: Trajectory, cache: Dict):
    if "erm" not in cache:
        cache["erm"] = oscillator.solve_ermakov(
            config.omega, config.gamma, 1.0, 0.0, traj.times)
    return cache["erm"]


def check_invariants(config, model, traj: Trajectory, cache: Dict) -> Dict:
    erm = _ermakov_for(config, traj, cache)
    rows = traj.flat()
    I = oscillator.lewis_invariant(config.m, config.gamma, erm, traj.times, rows)
    G = oscillator.g_invariant(config.gamma, traj.times, rows)
    interior = traj.times[1:-1]
    res = float(np.max(np.abs(erm.residual(interior)))) if len(interior) else 0.0
    observed = max(_rel_drift(I), _rel_drift(G))
    return {"name": "invariants", "threshold": 1e-6,
            "observed": observed,
            "passed": observed < 1e-6 and res < 1e-7,
            "extra": {"ermakov_residual": res},
            "series": [("I/I0", traj.times, I / max(abs(I[0]), EPS_DEN)),
                       ("G/G0", traj.times, G / max(abs(G[0]), EPS_DEN))],
            "columns": {"I": I, "G": G}}


def check_hj_residual(config, model, traj: Trajectory, cache: Dict) -> Dict:
    C0 = config.p0 / (config.m * config.q0) if config.q0 != 0 else 1.0
    grid = np.linspace(config.t0, config.t_end, 201)
    ric = oscillator.solve_riccati(config.omega, config.gamma, C0, grid)
    field = principal_field_from_riccati(config.m, ric)
    qs = np.linspace(-2.0, 2.0, 50)
    ts = np.linspace(config.t0, config.t_end, 50)
    res = np.array([hj_residual(model, field, qs[None, :], float(t)) for t in ts])
    observed = float(np.max(np.abs(res)))
    return {"name": "hj_residual", "threshold": 1e-8,
            "observed": observed, "passed": observed < 1e-8,
            "extra": {"riccati_C0": C0},
            "series": [("max_q |residual|", ts, np.max(np.abs(res), axis=1))]}


def _build_map(name: str, config, traj: Trajectory, cache: Dict):
    if name == "identity":
        return transforms.map_identity(1), 0.0
    if name == "ck":
        return transforms.map_ck(config.m, config.gamma), config.gamma
    if name == "expanding":
        return transforms.map_expanding(config.m, config.gamma), config.gamma
    erm = _ermakov_for(config, traj, cache)
    return transforms.map_invariants(config.m, config.gamma, erm), config.gamma


def check_transform_verify(name: str, config, model, traj: Trajectory,
                           cache: Dict) -> Dict:
    cmap, gmap = _build_map(name, config, traj, cache)
    rng = np.random.default_rng([cache["seed"], len(name)])
    rows = rng.uniform([0.5, -1.0, -1.0, config.t0], [1.5, 1.0, 1.0, config.t_end],
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


# token -> check(config, model, traj, cache), with the map name first for
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
# the checks that read Trajectory.J, for which the flow is integrated with its tangent
TANGENT_CHECKS = frozenset({"divergence", "measure"})


def run_checks(config: ScenarioConfig, model: HamiltonianModel, traj: Trajectory,
               seed: int = 0) -> List[Dict]:
    """Run every diagnostic requested by the scenario, in order."""
    cache: Dict = {"seed": seed}
    results = []
    for token in config.checks:
        kind, _, arg = token.partition(":")
        args = (arg,) if arg else ()
        results.append(CHECKS[kind](*args, config, model, traj, cache))
    return results
