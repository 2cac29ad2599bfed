"""Scenario files: a strict, flat, typed key-value format with sections.

A scenario selects a built-in model (with expression-valued parameters),
an initial state, integration options, a list of diagnostics and output
paths.  Parsing is strict: unknown sections or keys, duplicates and
constraint violations are rejected eagerly with their key path, so that
scenario files double as regression fixtures.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .diagnostics import AUTONOMOUS_CHECKS, CONSERVATIVE_CHECKS, validate_checks
from .dynamics import IntegratorOptions
from .errors import ScenarioError
from .expressions import Expression, parse_expression
from .model import HamiltonianModel, make_caldirola_kanai, make_damped_parametric, \
    make_linear_dissipation

# model.kind -> (factory(m, gamma, expression), the expression's key, its variable)
KINDS = {
    "linear_dissipation": (make_linear_dissipation, "V", "q"),
    "damped_parametric": (make_damped_parametric, "omega", "t"),
    "caldirola_kanai": (make_caldirola_kanai, "V", "q"),
}
MAX_SAMPLES = 10 ** 7  # (t_end - t0) / sample_interval above this is refused

_SCHEMA = {
    "scenario": {"name"},
    "model": {"kind", "m", "gamma", "V", "omega"},
    "initial": {"q", "p", "S", "t"},
    "integration": {"method", "rel_tol", "abs_tol", "step", "max_steps",
                    "sample_interval", "t_end"},
    "diagnostics": {"checks"},
    "output": {"trajectory", "report", "plot_dir"},
}
_REQUIRED_SECTIONS = ("model", "initial", "integration")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario; expressions are pre-parsed and constraints checked."""

    name: str
    kind: str
    m: float
    gamma: float
    V: Optional[Expression]
    omega: Optional[Expression]
    q0: float
    p0: float
    S0: float
    t0: float
    t_end: float
    options: IntegratorOptions
    checks: Tuple[str, ...] = ()
    trajectory_file: str = "trajectory.tsv"
    report_file: str = "report.txt"
    plot_dir: str = "plots"


def _err(path: str, msg: str):
    raise ScenarioError(f"{path}: {msg}")


def _get_float(sec, section: str, key: str, default=None) -> float:
    if key not in sec:
        if default is None:
            _err(f"{section}.{key}", "missing required key")
        return default
    raw = sec[key]
    try:
        value = float(raw)
    except ValueError:
        _err(f"{section}.{key}", f"not a number: {raw!r}")
    if not math.isfinite(value):
        _err(f"{section}.{key}", f"non-finite number: {raw!r}")
    return value


def _get_int(sec, section: str, key: str, default: int) -> int:
    if key not in sec:
        return default
    raw = sec[key]
    try:
        return int(raw)
    except ValueError:
        _err(f"{section}.{key}", f"not an integer: {raw!r}")


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a scenario from its file contents."""
    cp = configparser.ConfigParser(strict=True, interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario file: {exc}") from exc

    for section in cp.sections():
        if section not in _SCHEMA:
            _err(section, "unknown section")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                _err(f"{section}.{key}", "unknown key")
    for section in _REQUIRED_SECTIONS:
        if section not in cp:
            _err(section, "missing required section")

    name = cp["scenario"].get("name", "scenario") if "scenario" in cp else "scenario"

    msec = cp["model"]
    kind = msec.get("kind")
    if kind is None:
        _err("model.kind", "missing required key")
    if kind not in KINDS:
        _err("model.kind", f"unknown model {kind!r}; expected one of {tuple(KINDS)}")
    m = _get_float(msec, "model", "m")
    gamma = _get_float(msec, "model", "gamma")
    if m <= 0:
        _err("model.m", f"must be > 0, got {m}")
    if gamma < 0:
        _err("model.gamma", f"must be >= 0, got {gamma}")

    _, key, var = KINDS[kind]
    exprs = {"V": None, "omega": None}
    if key not in msec:
        _err(f"model.{key}", f"required for kind={kind}")
    for other in exprs:
        if other != key and other in msec:
            _err(f"model.{other}", f"not allowed for kind={kind}")
    try:
        exprs[key] = parse_expression(msec[key], var, f"model.{key}")
    except Exception as exc:
        _err(f"model.{key}", str(exc))

    isec = cp["initial"]
    q0 = _get_float(isec, "initial", "q")
    p0 = _get_float(isec, "initial", "p")
    S0 = _get_float(isec, "initial", "S", 0.0)
    t0 = _get_float(isec, "initial", "t", 0.0)

    gsec = cp["integration"]
    method = gsec.get("method", "adaptive_rk45")
    t_end = _get_float(gsec, "integration", "t_end")
    numbers = dict(  # read first, so that their key-path errors are not wrapped below
        step=_get_float(gsec, "integration", "step", 1e-3),
        rel_tol=_get_float(gsec, "integration", "rel_tol", 1e-9),
        abs_tol=_get_float(gsec, "integration", "abs_tol", 1e-12),
        max_steps=_get_int(gsec, "integration", "max_steps", 1_000_000),
        sample_interval=_get_float(gsec, "integration", "sample_interval", 0.01),
    )
    try:
        options = IntegratorOptions(method=method, **numbers)
    except ValueError as exc:
        raise ScenarioError(f"integration: {exc}") from exc
    if t_end <= t0:
        _err("integration.t_end", f"must exceed initial.t={t0}, got {t_end}")
    if (t_end - t0) / options.sample_interval > MAX_SAMPLES:
        _err("integration.t_end", f"(t_end - t0) / sample_interval exceeds "
                                  f"{MAX_SAMPLES} samples, got t_end={t_end}")

    checks: Tuple[str, ...] = ()
    if "diagnostics" in cp and "checks" in cp["diagnostics"]:
        raw = cp["diagnostics"]["checks"]
        tokens = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
        if not tokens:
            _err("diagnostics.checks", "empty check list")
        validate_checks(tokens, ("m", "gamma", key), f"kind={kind}")
        d = exprs[key].derivative_ast  # H has explicit t through e^{+-gamma t} or omega(t)
        explicit_t = gamma > 0 if kind == "caldirola_kanai" else \
            var == "t" and not (d.op == "num" and d.value == 0.0)
        for tok in tokens:
            if tok in AUTONOMOUS_CHECKS and explicit_t:
                _err("diagnostics.checks", f"{tok!r} holds only for an H without explicit "
                                           f"t, and this {kind} model depends on t")
            if tok in CONSERVATIVE_CHECKS and (gamma > 0 or explicit_t):
                why = f"has gamma = {gamma!r}" if gamma > 0 else "depends on t"
                _err("diagnostics.checks", f"{tok!r} holds only for a conservative H "
                                           f"(gamma = 0, no explicit t), and this {kind} "
                                           f"model {why}")
        checks = tokens

    out = cp["output"] if "output" in cp else {}
    return ScenarioConfig(
        name=name, kind=kind, m=m, gamma=gamma, **exprs,
        q0=q0, p0=p0, S0=S0, t0=t0, t_end=t_end, options=options, checks=checks,
        trajectory_file=out.get("trajectory", "trajectory.tsv"),
        report_file=out.get("report", "report.txt"),
        plot_dir=out.get("plot_dir", "plots"),
    )


def build_model(config: ScenarioConfig) -> HamiltonianModel:
    """Instantiate the built-in model selected by a scenario."""
    factory, key, _ = KINDS[config.kind]
    return factory(config.m, config.gamma, getattr(config, key))


def serialize_scenario(config: ScenarioConfig) -> str:
    """Render a config back to scenario-file text (parse/print/parse fixed point)."""
    buf = io.StringIO()
    buf.write("[scenario]\n")
    buf.write(f"name = {config.name}\n\n")
    buf.write("[model]\n")
    buf.write(f"kind = {config.kind}\n")
    buf.write(f"m = {config.m:.17g}\n")
    buf.write(f"gamma = {config.gamma:.17g}\n")
    key = KINDS[config.kind][1]
    buf.write(f"{key} = {getattr(config, key).text}\n")
    buf.write("\n[initial]\n")
    for key, val in (("q", config.q0), ("p", config.p0), ("S", config.S0),
                     ("t", config.t0)):
        buf.write(f"{key} = {val:.17g}\n")
    o = config.options
    buf.write("\n[integration]\n")
    buf.write(f"method = {o.method}\n")
    buf.write(f"step = {o.step:.17g}\n")
    buf.write(f"rel_tol = {o.rel_tol:.17g}\n")
    buf.write(f"abs_tol = {o.abs_tol:.17g}\n")
    buf.write(f"max_steps = {o.max_steps}\n")
    buf.write(f"sample_interval = {o.sample_interval:.17g}\n")
    buf.write(f"t_end = {config.t_end:.17g}\n")
    if config.checks:
        buf.write("\n[diagnostics]\n")
        buf.write(f"checks = {', '.join(config.checks)}\n")
    buf.write("\n[output]\n")
    buf.write(f"trajectory = {config.trajectory_file}\n")
    buf.write(f"report = {config.report_file}\n")
    buf.write(f"plot_dir = {config.plot_dir}\n")
    return buf.getvalue()
