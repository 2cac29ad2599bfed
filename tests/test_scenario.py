"""Scenario format: strict parsing, validation paths, serialization round-trip."""

import math

import pytest

import contactmech as cm
from contactmech.errors import ScenarioError

MINIMAL = """\
[model]
kind = linear_dissipation
m = 1
gamma = 0.1
V = q^2/2

[initial]
q = 1
p = 0

[integration]
t_end = 10
"""


def test_minimal_scenario_parses():
    cfg = cm.parse_scenario(MINIMAL)
    assert cfg.kind == "linear_dissipation"
    assert cfg.m == 1.0 and cfg.gamma == 0.1
    assert cfg.q0 == 1.0 and cfg.p0 == 0.0 and cfg.S0 == 0.0 and cfg.t0 == 0.0
    assert cfg.t_end == 10.0
    assert cfg.options.method == "adaptive_rk45"
    assert cfg.checks == ()
    model = cm.build_model(cfg)
    assert model.evaluate(cm.make_state(1.0, 0.0, 0.0, 0.0)) == 0.5


def test_full_scenario_parses():
    text = MINIMAL + "\n[diagnostics]\nchecks = hamiltonian_decay, divergence, transform_verify:ck\n"
    cfg = cm.parse_scenario(text)
    assert cfg.checks == ("hamiltonian_decay", "divergence", "transform_verify:ck")


@pytest.mark.parametrize("mutation,fragment", [
    ("gamma = 0.1", "gamma = -1"),            # precondition violation
    ("m = 1", "m = 0"),
    ("kind = linear_dissipation", "kind = pendulum"),
    ("t_end = 10", "t_end = -1"),
])
def test_constraint_violations_rejected(mutation, fragment):
    with pytest.raises(ScenarioError):
        cm.parse_scenario(MINIMAL.replace(mutation, fragment))


def test_unknown_key_rejected():
    with pytest.raises(ScenarioError) as err:
        cm.parse_scenario(MINIMAL + "color = red\n")
    assert "unknown key" in str(err.value)
    with pytest.raises(ScenarioError) as err:
        cm.parse_scenario(MINIMAL + "\n[extras]\nfoo = 1\n")
    assert "unknown section" in str(err.value)


def test_duplicate_key_rejected_with_position():
    bad = MINIMAL.replace("[initial]\nq = 1", "[initial]\nq = 1\nq = 2")
    with pytest.raises(ScenarioError) as err:
        cm.parse_scenario(bad)
    assert "line" in str(err.value)  # configparser reports the line number


def test_missing_requirements():
    with pytest.raises(ScenarioError) as err:
        cm.parse_scenario("[model]\nkind = linear_dissipation\nm = 1\ngamma = 0\nV = q\n")
    assert "missing required section" in str(err.value)
    with pytest.raises(ScenarioError) as err:
        cm.parse_scenario(MINIMAL.replace("m = 1\n", ""))
    assert "model.m" in str(err.value)
    with pytest.raises(ScenarioError) as err:
        cm.parse_scenario(MINIMAL.replace("t_end = 10", ""))
    assert "t_end" in str(err.value)


def test_expression_fields_validated():
    with pytest.raises(ScenarioError) as err:
        cm.parse_scenario(MINIMAL.replace("V = q^2/2", "V = q +* 2"))
    assert "model.V" in str(err.value)
    # wrong expression slot for the kind
    with pytest.raises(ScenarioError) as err:
        cm.parse_scenario(MINIMAL.replace("V = q^2/2", "V = q^2/2\nomega = 1"))
    assert "model.omega" in str(err.value)


PARAMETRIC = MINIMAL.replace("kind = linear_dissipation", "kind = damped_parametric") \
                    .replace("V = q^2/2", "omega = 1")


@pytest.mark.parametrize("text,message", [
    (MINIMAL.replace("kind = linear_dissipation\n", ""), "model.kind: missing required key"),
    (MINIMAL.replace("V = q^2/2\n", ""), "model.V: required for kind=linear_dissipation"),
    (PARAMETRIC.replace("omega = 1", "omega = 1\nV = q^2/2"),
     "model.V: not allowed for kind=damped_parametric"),
    (PARAMETRIC.replace("omega = 1\n", ""), "model.omega: required for kind=damped_parametric"),
    (MINIMAL.replace("V = q^2/2", "V = q^2/2\nomega = 1"),
     "model.omega: not allowed for kind=linear_dissipation"),
    (PARAMETRIC.replace("omega = 1", "omega = t +* 2"), "model.omega: "),
    (MINIMAL + "max_steps = 1e6\n", "integration.max_steps: not an integer"),
    (MINIMAL + "\n[diagnostics]\nchecks = , ,\n", "diagnostics.checks: empty check list"),
], ids=["kind-missing", "V-required", "V-not-allowed", "omega-required",
        "omega-not-allowed", "omega-unparsable", "max_steps-not-integer", "checks-empty"])
def test_grammar_errors_name_their_key(text, message):
    with pytest.raises(ScenarioError) as err:
        cm.parse_scenario(text)
    assert str(err.value).startswith(message)


def test_check_names_validated():
    with pytest.raises(ScenarioError):
        cm.parse_scenario(MINIMAL + "\n[diagnostics]\nchecks = wobble\n")
    with pytest.raises(ScenarioError):
        cm.parse_scenario(MINIMAL + "\n[diagnostics]\nchecks = transform_verify:moebius\n")
    # oscillator-only diagnostics rejected for other kinds
    with pytest.raises(ScenarioError):
        cm.parse_scenario(MINIMAL + "\n[diagnostics]\nchecks = invariants\n")


def test_bad_numbers_rejected_with_key_path():
    cases = [("initial", "q", "one")] + [
        (section, key, raw)
        for section, key in [("model", "m"), ("model", "gamma"), ("initial", "q"),
                             ("initial", "p"), ("initial", "S"), ("initial", "t"),
                             ("integration", "t_end"), ("integration", "step"),
                             ("integration", "rel_tol"), ("integration", "abs_tol"),
                             ("integration", "sample_interval")]
        for raw in ("nan", "inf", "-inf")]
    for section, key, raw in cases:
        lines = [ln for ln in MINIMAL.splitlines() if not ln.startswith(f"{key} =")]
        lines.insert(lines.index(f"[{section}]") + 1, f"{key} = {raw}")
        with pytest.raises(ScenarioError) as err:
            cm.parse_scenario("\n".join(lines) + "\n")
        assert f"{section}.{key}" in str(err.value), (section, key, raw)


def test_integration_options_validated():
    with pytest.raises(ScenarioError):
        cm.parse_scenario(MINIMAL.replace("[integration]\n",
                                          "[integration]\nmethod = leapfrog\n"))
    with pytest.raises(ScenarioError):
        cm.parse_scenario(MINIMAL.replace("[integration]\n",
                                          "[integration]\nsample_interval = 0\n"))
    for key in ("step", "rel_tol", "abs_tol", "max_steps", "sample_interval"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="must be positive"):
                cm.IntegratorOptions(**{key: bad})


def test_serialize_round_trip():
    text = (MINIMAL
            + "\n[diagnostics]\nchecks = hamiltonian_decay, measure\n"
            + "\n[scenario]\nname = round_trip\n")
    cfg = cm.parse_scenario(text)
    printed = cm.serialize_scenario(cfg)
    cfg2 = cm.parse_scenario(printed)
    assert cfg2 == cfg
    # a second round trip is the identity on the text as well
    assert cm.serialize_scenario(cfg2) == printed


def test_parametric_scenario():
    text = MINIMAL.replace("kind = linear_dissipation", "kind = damped_parametric") \
                  .replace("V = q^2/2", "omega = 1 + 0.1*sin(0.3*t)")
    cfg = cm.parse_scenario(text + "\n[diagnostics]\nchecks = invariants\n")
    model = cm.build_model(cfg)
    assert model.name == "damped_parametric"
    assert model.depends_on_t
