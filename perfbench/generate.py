"""Seeded scenario generator for the in-process workloads.

Each workload is a batch of ``BATCH`` scenario texts built on a fixed
stratified design.  Every continuous parameter's range is cut into ``BATCH``
equal strata and each stratum is used by exactly one scenario; which stratum
goes with which scenario, and each scenario's model kind and method, are fixed
per workload.  The seed draws each value's position inside its stratum, the
per-scenario verification seed, and the order of each pass.  So two seeds give
different scenario texts with the same mix of cheap and expensive scenarios,
which keeps medians and tails comparable from seed to seed.  Only the stdlib
``random`` module is used, so the same seed gives byte-identical text on any
platform.

The ranges, and why each was chosen, are listed in ``VOLUME_RANGES`` and
``INVARIANTS_RANGES``; ``perfbench/README.md`` repeats them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

BATCH = 24  # scenarios per workload batch; a multiple of 8 for the quotas

# name: (low, high, why)
VOLUME_RANGES: Dict[str, Tuple[float, float, str]] = {
    "gamma": (0.05, 0.5, "a quarter of entries use gamma = 0 instead; "
              "the rest span weak to strong damping"),
    "m": (0.5, 2.0, "mass enters every field evaluation and the ck/expanding maps"),
    "k": (0.5, 2.0, "stiffness of V = k q^2/2 + a q^4 sets the step count"),
    "a": (0.0, 0.1, "quartic term: nonlinear but never stiff"),
    "q0": (0.5, 1.5, "keeps V(q0) >= 0.0625, so H0 stays away from the H = 0 "
           "set where the measure is singular"),
    "p0": (-0.5, 0.5, "both signs of initial momentum"),
    "S0": (0.0, 0.5, "S0 >= 0 keeps H0 = p^2/2m + V + gamma S > 0"),
    "t_end": (1.5, 5.0, "horizon drives the cost of the determinant series; "
              "0.3 to 1 s per scenario on 2 cores"),
    "sample_interval": (0.01, 0.05, "output size; 30 to 500 samples"),
}

INVARIANTS_RANGES: Dict[str, Tuple[float, float, str]] = {
    "gamma": (0.05, 0.4, "gamma^2/4 stays far below omega^2, so the Ermakov "
              "amplitude never collapses"),
    "m": (0.5, 2.0, "mass enters the invariants and the principal function"),
    "w0": (0.8, 1.5, "mean frequency of omega(t) = w0 + a sin(b t)"),
    "amp": (0.0, 0.3, "modulation depth; omega stays >= 0.5"),
    "b": (0.2, 0.9, "modulation rate, below parametric resonance near 2 w0"),
    "q0": (0.5, 1.5, "q0 > 0 so the Riccati start C0 = p0/(m q0) is defined"),
    "p0_param": (-0.3, 0.3, "|q0 p0/2| <= 0.225 keeps G0 = S0 - q0 p0/2 >= 0.075"),
    "p0_free": (0.1, 0.5, "C0 >= 0: the free-particle Riccati solution has no "
                "pole, and H0 > 0 for the decay check"),
    "S0": (0.3, 0.8, "keeps G0 and H0 away from zero for relative checks"),
    "t_end": (3.0, 8.0, "horizon of the flow, Ermakov and Riccati solves"),
    "sample_interval": (0.01, 0.05, "output size, and points per invariant evaluation"),
    "step": (0.002, 0.01, "fixed RK4 step; every check passes in this range"),
}


@dataclass(frozen=True)
class Entry:
    """One generated scenario: its text, the checks it requests and its run seed."""

    name: str
    text: str
    checks: Tuple[str, ...]
    seed: int


def _design(workload: str, rng: random.Random, ranges) -> Dict[str, List[float]]:
    """BATCH values per parameter: fixed stratum per scenario, seeded position in it."""
    layout = random.Random(f"{workload}-design")
    out = {}
    for key, (lo, hi, _why) in ranges.items():
        strata = list(range(BATCH))
        layout.shuffle(strata)
        out[key] = [lo + (hi - lo) * (k + rng.random()) / BATCH for k in strata]
    return out


def _cycle(labels: List, k: int) -> List:
    """Each label k/len(labels) times."""
    return [labels[i % len(labels)] for i in range(k)]


def _text(name: str, model: Dict[str, str], initial: Dict[str, str],
          integration: Dict[str, str], checks: Tuple[str, ...]) -> str:
    lines = ["[scenario]", f"name = {name}", "", "[model]"]
    lines += [f"{k} = {v}" for k, v in model.items()]
    lines += ["", "[initial]"] + [f"{k} = {v}" for k, v in initial.items()]
    lines += ["", "[integration]"] + [f"{k} = {v}" for k, v in integration.items()]
    lines += ["", "[diagnostics]", f"checks = {', '.join(checks)}", ""]
    return "\n".join(lines)


def _f(x: float) -> str:
    return f"{x:.4f}"


def volume(seed: int) -> List[Entry]:
    """linear_dissipation and caldirola_kanai scenarios led by the determinant series."""
    rng = random.Random(f"volume:{seed}")
    # (kind, damped): a quarter of each kind has gamma = 0
    kinds = _cycle([("linear_dissipation", True)] * 3 + [("linear_dissipation", False)]
                   + [("caldirola_kanai", True)] * 3 + [("caldirola_kanai", False)], BATCH)
    d = _design("volume", rng, VOLUME_RANGES)
    entries = []
    for i, (kind, damped) in enumerate(kinds):
        gamma = d["gamma"][i] if damped else 0.0
        if kind == "linear_dissipation" and damped:
            checks = ("hamiltonian_decay", "divergence", "measure",
                      "transform_verify:ck", "transform_verify:expanding")
        elif kind == "linear_dissipation":
            checks = ("energy_conservation", "hamiltonian_decay", "divergence",
                      "measure", "transform_verify:identity")
        elif damped:
            # H = e^{-gamma t} p^2/2m + e^{gamma t} V depends on t, so neither
            # the decay law nor the |H|^-2 measure holds for it.
            checks = ("divergence", "transform_verify:ck", "transform_verify:expanding")
        else:
            checks = ("energy_conservation", "divergence", "measure")
        name = f"volume_{i:02d}"
        model = {"kind": kind, "m": _f(d["m"][i]), "gamma": _f(gamma),
                 "V": f"{_f(d['k'][i])}*q^2/2 + {_f(d['a'][i])}*q^4"}
        initial = {"q": _f(d["q0"][i]), "p": _f(d["p0"][i]), "S": _f(d["S0"][i]), "t": "0"}
        integration = {"method": "adaptive_rk45", "rel_tol": "1e-10", "abs_tol": "1e-13",
                       "sample_interval": _f(d["sample_interval"][i]),
                       "t_end": _f(d["t_end"][i])}
        entries.append(Entry(name, _text(name, model, initial, integration, checks),
                             checks, rng.randrange(2 ** 31)))
    return entries


def invariants(seed: int) -> List[Entry]:
    """damped_parametric scenarios led by Ermakov, Riccati and the HJ grid."""
    rng = random.Random(f"invariants:{seed}")
    # (omega form, method): half damped free particles, a quarter fixed RK4
    kinds = _cycle([("param", "adaptive_rk45")] * 3 + [("param", "fixed_rk4")]
                   + [("free", "adaptive_rk45")] * 3 + [("free", "fixed_rk4")], BATCH)
    d = _design("invariants", rng, INVARIANTS_RANGES)
    entries = []
    for i, (kind, method) in enumerate(kinds):
        if kind == "param":
            omega = f"{_f(d['w0'][i])} + {_f(d['amp'][i])}*sin({_f(d['b'][i])}*t)"
            p0 = d["p0_param"][i]
            checks = ("invariants", "transform_verify:invariants")
        else:
            omega = "0"
            p0 = d["p0_free"][i]
            checks = ("hamiltonian_decay", "hj_residual")
        name = f"invariants_{i:02d}"
        model = {"kind": "damped_parametric", "m": _f(d["m"][i]),
                 "gamma": _f(d["gamma"][i]), "omega": omega}
        initial = {"q": _f(d["q0"][i]), "p": _f(p0), "S": _f(d["S0"][i]), "t": "0"}
        integration = {"method": method}
        if method == "fixed_rk4":
            integration["step"] = f"{d['step'][i]:.5f}"
        integration.update({"rel_tol": "1e-10", "abs_tol": "1e-13",
                            "sample_interval": _f(d["sample_interval"][i]),
                            "t_end": _f(d["t_end"][i])})
        entries.append(Entry(name, _text(name, model, initial, integration, checks),
                             checks, rng.randrange(2 ** 31)))
    return entries


GENERATORS = {"volume": volume, "invariants": invariants}
