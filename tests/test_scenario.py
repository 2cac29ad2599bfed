"""Scenario format: strict parsing, validation paths, serialization round-trip."""

import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contactmech as cm
from contactmech import diagnostics, scenario
from contactmech.errors import ExpressionError, ScenarioError

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

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
    assert "line" in str(err.value)  # the reader reports the line number


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
    assert model.partials(cm.make_state(1.0, 0.0, 0.0, 1.0))[3] != 0.0


@pytest.mark.parametrize("text,message", [
    (MINIMAL.replace("V = q^2/2", "V = q^2/2\n  + 0.1*q^4"),
     "model.V: a value must be on one line"),
    ("[scenario]\nname = two\n  lines\n\n" + MINIMAL, "scenario.name: a value must be on one line"),
    (MINIMAL.replace("t_end = 10", "t_end = 10\n\n  5"),
     "integration.t_end: a value must be on one line"),
    (MINIMAL + "\n[output]\ntrajectory =\n", "output.trajectory: empty file name"),
    (MINIMAL + "\n[output]\nreport =\n", "output.report: empty file name"),
    (MINIMAL + "\n[output]\nplot_dir =\n", "output.plot_dir: empty file name"),
], ids=["V-continued", "name-continued", "t_end-continued", "trajectory-empty", "report-empty",
        "plot_dir-empty"])
def test_values_the_outputs_cannot_honour_are_refused(text, message):
    """A continued value would be serialized as a line that no longer parses,
    and an empty file name would be the output directory itself."""
    with pytest.raises(ScenarioError) as err:
        cm.parse_scenario(text)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("key", ["trajectory", "report", "plot_dir"])
@pytest.mark.parametrize("name", ["..", ".", "../escaped.tsv", "a/b", "a\\b", "/abs/x.tsv",
                                  "a\0b"])
def test_output_names_stay_inside_the_output_directory(key, name):
    """Each output name is one plain path component, so that the run writes
    only inside --out (a NUL byte, which open() refuses, included)."""
    with pytest.raises(ScenarioError) as err:
        cm.parse_scenario(MINIMAL + f"\n[output]\n{key} = {name}\n")
    assert str(err.value) == (f"output.{key}: must be a plain file name inside the output "
                              f"directory, got {name!r}")
    assert cm.parse_scenario(MINIMAL + f"\n[output]\n{key} = a b.x\n")


@pytest.mark.parametrize("text", ["[DEFAULT]\n" + MINIMAL, "[DEFAULT]\nq = 1\n" + MINIMAL,
                                  MINIMAL + "\n[DEFAULT]\n"])
def test_a_default_section_is_an_unknown_section(text):
    """configparser would copy [DEFAULT]'s keys into every section; the
    grammar has no such section."""
    with pytest.raises(ScenarioError, match="^DEFAULT: unknown section$"):
        cm.parse_scenario(text)


@pytest.mark.parametrize("text,message", [
    ("q = 1\n" + MINIMAL, "line 1: expected a [section] header, got 'q = 1'"),
    (MINIMAL.replace("q = 1", "q: 1"), "initial: line 8 is not 'key = value': 'q: 1'"),
    (MINIMAL.replace("q = 1", "= 1"), "initial: line 8 is not 'key = value': '= 1'"),
    (MINIMAL.replace("[initial]", "[initial] x"), "model: line 7 is not 'key = value'"),
    (MINIMAL + "\n[model]\n", "model: duplicate section (line 14)"),
    (MINIMAL.replace("[initial]\nq = 1", "[initial]\nq = 1\nq = 2"),
     "initial.q: duplicate key (line 9)"),
    (MINIMAL.replace("q = 1\n", "q = 1\n# a comment\n\n  2\n"),
     "initial.q: a value must be on one line"),
], ids=["key-before-header", "colon", "no-key", "header-junk", "duplicate-section",
        "duplicate-key", "continued-past-a-comment"])
def test_lines_outside_the_format_are_refused_with_their_place(text, message):
    with pytest.raises(ScenarioError) as err:
        cm.parse_scenario(text)
    assert str(err.value).startswith(message)


def test_comments_blank_lines_and_crlf_endings_are_read():
    text = "# a scenario\n" + MINIMAL.replace("[initial]\n", "[initial]\n; the start\n\n   \n") \
        .replace("m = 1", "m  =  1   ")
    assert cm.parse_scenario(text) == cm.parse_scenario(MINIMAL)
    assert cm.parse_scenario(text.replace("\n", "\r\n")) == cm.parse_scenario(MINIMAL)


@pytest.mark.parametrize("key,raw", [
    *((key, raw) for key in ("step", "rel_tol", "abs_tol", "max_steps", "sample_interval")
      for raw in ("0", "-1")),
    ("method", "leapfrog")])
def test_integration_errors_name_their_key_and_value(key, raw):
    text = MINIMAL.replace("[integration]\n", f"[integration]\n{key} = {raw}\n")
    with pytest.raises(ScenarioError) as err:
        cm.parse_scenario(text)
    message = str(err.value)
    assert message.startswith(f"integration.{key}: ")
    assert ("must be positive" in message) == (key != "method")
    value = repr(raw) if key == "method" else raw if key == "max_steps" else repr(float(raw))
    assert message.endswith(f"got {value}")


# ---------------------------------------------------------------------------
# Properties of the input contract
# ---------------------------------------------------------------------------

_EDGES = st.sampled_from([-0.0, 0.0, 5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.5])
_FINITE = _EDGES | st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.sampled_from([5e-324, 1e-300, 1e300, 1.0]) | st.floats(1e-3, 1e3)
_EXPRESSIONS = {  # the kind's expression key -> texts in its variable, and the constant ones
    "V": (["q^2/2", "1.8387*q^2/2 + 0.0399*q^4", "0.5*q^2 - 0.1*cos(q)", "-q", "0"], ()),
    "omega": (["1", "0", "1.2", "1 + 0.1*sin(0.3*t)", "sqrt(1 + t^2)"], ("1", "0", "1.2")),
}
_FORMATS = st.sampled_from([repr, "{:.17g}".format, "{:e}".format, " {} ".format])


def _allowed_checks(kind, gamma, expression):
    """The tokens a scenario of this kind accepts: what each check needs, and
    the autonomous and conservative ones only for an H that is so."""
    key = scenario.KINDS[kind][1]
    explicit_t = gamma > 0 if kind == "caldirola_kanai" else \
        key == "omega" and expression not in _EXPRESSIONS["omega"][1]
    return [token for token, row in diagnostics.CHECKS.items()
            if set(row.params) <= {"m", "gamma", key}
            and not (row.autonomous and explicit_t)
            and not (row.conservative and (gamma > 0 or explicit_t))]


@st.composite
def scenario_texts(draw):
    """(text, continued): a scenario drawn from the grammar, keys in any order
    within their sections and sections in any order, optional keys present
    or not; `continued` if some value goes on onto a second line."""
    fmt = draw(_FORMATS)
    kind = draw(st.sampled_from(sorted(scenario.KINDS)))
    key = scenario.KINDS[kind][1]
    gamma = draw(st.sampled_from([-0.0, 0.0, 1e-300, 1e300]) | st.floats(0.0, 10.0))
    expression = draw(st.sampled_from(_EXPRESSIONS[key][0]))
    t0, span = draw(st.sampled_from([-0.0, 0.0, 5e-324, -2.5, 3.0])), draw(st.floats(1e-3, 1e2))
    sections = {
        "scenario": {"name": draw(st.text(st.characters(blacklist_characters="\n\r"),
                                          max_size=12))},
        "model": {"kind": kind, "m": fmt(draw(_POSITIVE)), "gamma": fmt(gamma), key: expression},
        "initial": {"q": fmt(draw(_FINITE)), "p": fmt(draw(_FINITE)),
                    "S": fmt(draw(_FINITE)), "t": fmt(t0)},
        "integration": {"method": draw(st.sampled_from(["adaptive_rk45", "fixed_rk4"])),
                        "step": fmt(draw(_POSITIVE)), "rel_tol": fmt(draw(_POSITIVE)),
                        "abs_tol": fmt(draw(_POSITIVE)),
                        "max_steps": str(draw(st.integers(1, 10 ** 30))),
                        "sample_interval": fmt(draw(st.sampled_from([1e-4, 0.01, 1e300])
                                                    | st.floats(1e-3, 10.0))),
                        "t_end": fmt(max(t0, 0.0) + span)},  # past t0 and the default 0
        "diagnostics": {"checks": ", ".join(draw(st.lists(
            st.sampled_from(_allowed_checks(kind, gamma, expression)), min_size=1)))},
        "output": {"trajectory": draw(st.sampled_from(["trajectory.tsv", "t.tsv", "a b.tsv"])),
                   "report": draw(st.sampled_from(["report.txt", "r"])),
                   "plot_dir": draw(st.sampled_from(["plots", "p", "a b"]))},
    }
    optional = {(section, k) for section, k, *_, default in scenario._GRAMMAR
                if default is not scenario._REQUIRED and k != key}
    continued = False
    lines = []
    for section in draw(st.permutations(list(sections))):
        items = [(k, v) for k, v in sections[section].items()
                 if (section, k) not in optional or draw(st.booleans())]
        if not items:
            continue
        lines.append(f"[{section}]")
        for k, v in draw(st.permutations(items)):
            lines.append(f"{k} = {v}")
            if draw(st.integers(0, 40)) == 0:
                lines.append(draw(st.sampled_from(["  + 1", "\tmore", " x"])))
                continued = True
        lines.append("")
    return "\n".join(lines), continued


@given(scenario_texts())
@settings(max_examples=100, deadline=None)
def test_serialize_then_parse_is_the_identity_on_every_key(drawn):
    """serialize_scenario(parse_scenario(text)) parses back to the same config,
    and serializing that config again gives the same text; a value continued
    onto a second line is refused instead, naming its key."""
    text, continued = drawn
    if continued:
        with pytest.raises(ScenarioError, match="a value must be on one line"):
            cm.parse_scenario(text)
        return
    config = cm.parse_scenario(text)
    printed = cm.serialize_scenario(config)
    assert cm.parse_scenario(printed) == config
    assert cm.serialize_scenario(cm.parse_scenario(printed)) == printed


_GARBAGE = ["", "nan", "-inf", "1e999", "1e308", "-1e308", "5e-324", "garbage", "q +* 2",
            "((((", "1/0", "exp(800)", "0x10", "1_000", "[model]", " = ", "\u00e9", "1" * 5000,
            "(" * 2000 + "q" + ")" * 2000, "transform_verify:", ",", "t", "q"]


@given(st.sampled_from(sorted(p.name for p in SCENARIOS.glob("*.ini"))),
       st.lists(st.tuples(st.sampled_from(["drop", "duplicate", "value", "insert"]),
                          st.integers(0, 10 ** 6), st.sampled_from(_GARBAGE)),
                min_size=1, max_size=4),
       st.sampled_from(["color = red", "[extras]", "[DEFAULT]", "V = q", "omega = t",
                        "  continued", "checks = divergence", "t = 1e300"]))
@settings(max_examples=200, deadline=None)
def test_mutated_shipped_scenarios_parse_or_raise_a_scenario_error(name, mutations, line):
    """Lines dropped or duplicated, values replaced by garbage, NaN, huge
    numbers or nothing, and unknown or misplaced lines inserted: parsing
    returns a config or raises ScenarioError or ExpressionError, nothing else."""
    lines = (SCENARIOS / name).read_text().splitlines()
    for op, at, garbage in mutations:
        i = at % (len(lines) + 1)
        if op == "insert":
            lines.insert(i, line)
        elif i == len(lines):
            continue
        elif op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(at % len(lines), lines[i])
        elif " = " in lines[i]:
            lines[i] = lines[i].partition(" = ")[0] + " = " + garbage
    try:
        cm.parse_scenario("\n".join(lines) + "\n")
    except (ScenarioError, ExpressionError):
        pass
