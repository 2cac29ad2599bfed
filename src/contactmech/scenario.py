"""Scenario files: a strict, flat, typed key-value format with sections.

A scenario selects a built-in model (with expression-valued parameters),
an initial state, integration options, a list of diagnostics and output
paths.  `_GRAMMAR` is the grammar: one ordered row per key gives the field
it fills, its type and its default, or that it is required, and both
`parse_scenario` and `serialize_scenario` walk it.  Parsing is strict:
unknown sections or keys, duplicates, values continued onto a second line and
constraint violations are rejected eagerly with their key path, so that
scenario files double as regression fixtures.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from operator import attrgetter
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


# A type is a pair: it reads a raw value at its key path, and writes a value back.
def _read_file_name(raw: str, path: str) -> str:
    if not raw:
        _err(path, "empty file name")
    return raw


def _read_float(raw: str, path: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        _err(path, f"not a number: {raw!r}")
    if not math.isfinite(value):
        _err(path, f"non-finite number: {raw!r}")
    return value


def _read_int(raw: str, path: str) -> int:
    try:
        return int(raw)
    except ValueError:
        _err(path, f"not an integer: {raw!r}")


def _read_expression(variable: str):
    def read(raw: str, path: str) -> Expression:
        try:
            return parse_expression(raw, variable, path)
        except Exception as exc:
            _err(path, str(exc))
    return read


def _read_checks(raw: str, path: str) -> Tuple[str, ...]:
    tokens = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    if not tokens:
        _err(path, "empty check list")
    return tokens


_TEXT = (lambda raw, path: raw, str)
_FILE_NAME = (_read_file_name, str)
_FLOAT = (_read_float, "{:.17g}".format)
_INT = (_read_int, str)
_CHECKS = (_read_checks, ", ".join)
_EXPRESSION = {key: (_read_expression(var), attrgetter("text"))
               for _, key, var in KINDS.values()}  # V in q, omega in t

_REQUIRED, _OWN = object(), object()  # absent: an error; the field's dataclass default

# The grammar, in the order serialize_scenario writes it: (section, key, the
# ScenarioConfig or IntegratorOptions field it fills, its type, its default).
_GRAMMAR = (
    ("scenario", "name", "name", _TEXT, "scenario"),
    ("model", "kind", "kind", _TEXT, _REQUIRED),
    ("model", "m", "m", _FLOAT, _REQUIRED),
    ("model", "gamma", "gamma", _FLOAT, _REQUIRED),
    ("model", "V", "V", _EXPRESSION["V"], None),  # KINDS says which of V and omega
    ("model", "omega", "omega", _EXPRESSION["omega"], None),
    ("initial", "q", "q0", _FLOAT, _REQUIRED),
    ("initial", "p", "p0", _FLOAT, _REQUIRED),
    ("initial", "S", "S0", _FLOAT, 0.0),
    ("initial", "t", "t0", _FLOAT, 0.0),
    ("integration", "method", "method", _TEXT, _OWN),
    ("integration", "step", "step", _FLOAT, _OWN),
    ("integration", "rel_tol", "rel_tol", _FLOAT, _OWN),
    ("integration", "abs_tol", "abs_tol", _FLOAT, _OWN),
    ("integration", "max_steps", "max_steps", _INT, _OWN),
    # a file samples finer than IntegratorOptions' own default of 0.1
    ("integration", "sample_interval", "sample_interval", _FLOAT, 0.01),
    ("integration", "t_end", "t_end", _FLOAT, _REQUIRED),
    ("diagnostics", "checks", "checks", _CHECKS, _OWN),
    ("output", "trajectory", "trajectory_file", _FILE_NAME, _OWN),
    ("output", "report", "report_file", _FILE_NAME, _OWN),
    ("output", "plot_dir", "plot_dir", _TEXT, _OWN),
)
_WALK = tuple((f"{row[0]}.{row[1]}",) + row for row in _GRAMMAR)  # each row with its key path
_KEYS = {section: {key for s, key, *_ in _GRAMMAR if s == section} for section, *_ in _GRAMMAR}
_OPTIONS = frozenset(f.name for f in fields(IntegratorOptions))


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a scenario from its file contents."""
    cp = configparser.ConfigParser(strict=True, interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario file: {exc}") from exc
    sections = {name: dict(cp.items(name, raw=True)) for name in cp.sections()}

    for section, keys in sections.items():
        if section not in _KEYS:
            _err(section, "unknown section")
        for key in keys:
            if key not in _KEYS[section]:
                _err(f"{section}.{key}", "unknown key")

    values = {}
    for path, section, key, field, (read, _), default in _WALK:
        raw = sections[section].get(key) if section in sections else None
        if raw is None:
            if default is _REQUIRED and section not in sections:
                _err(section, "missing required section")
            if default is _REQUIRED:
                _err(path, "missing required key")
            if default is not _OWN:
                values[field] = default
        elif "\n" in raw:  # a continuation line would not survive serialize_scenario
            _err(path, "a value must be on one line")
        else:
            values[field] = read(raw, path)

    kind = values["kind"]
    if kind not in KINDS:
        _err("model.kind", f"unknown model {kind!r}; expected one of {tuple(KINDS)}")
    m, gamma = values["m"], values["gamma"]
    if m <= 0:
        _err("model.m", f"must be > 0, got {m}")
    if gamma < 0:
        _err("model.gamma", f"must be >= 0, got {gamma}")
    _, key, var = KINDS[kind]
    if values[key] is None:
        _err(f"model.{key}", f"required for kind={kind}")
    for other in _EXPRESSION:
        if other != key and values[other] is not None:
            _err(f"model.{other}", f"not allowed for kind={kind}")

    try:
        options = IntegratorOptions(**{f: values.pop(f) for f in _OPTIONS if f in values})
    except ValueError as exc:  # its message starts with the field, which is the key
        raise ScenarioError(f"integration.{exc}") from exc
    t0, t_end = values["t0"], values["t_end"]
    if t_end <= t0:
        _err("integration.t_end", f"must exceed initial.t={t0}, got {t_end}")
    if (t_end - t0) / options.sample_interval > MAX_SAMPLES:
        _err("integration.t_end", f"(t_end - t0) / sample_interval exceeds "
                                  f"{MAX_SAMPLES} samples, got t_end={t_end}")

    if "checks" in values:
        tokens = values["checks"]
        validate_checks(tokens, ("m", "gamma", key), f"kind={kind}")
        d = values[key].derivative_ast  # H has explicit t through e^{+-gamma t} or omega(t)
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
    return ScenarioConfig(options=options, **values)


def build_model(config: ScenarioConfig) -> HamiltonianModel:
    """Instantiate the built-in model selected by a scenario."""
    factory, key, _ = KINDS[config.kind]
    return factory(config.m, config.gamma, getattr(config, key))


def serialize_scenario(config: ScenarioConfig) -> str:
    """Render a config back to scenario-file text (parse/print/parse fixed point)."""
    sections = {}
    for section, key, field, (_, write), _ in _GRAMMAR:
        value = getattr(config.options if field in _OPTIONS else config, field)
        if value is not None and value != ():  # the other kind's expression, no checks
            sections.setdefault(section, []).append(f"{key} = {write(value)}\n")
    return "\n".join(f"[{section}]\n" + "".join(lines) for section, lines in sections.items())
