"""Front end: subcommands, artifacts on disk, exit-code contract, determinism."""

import contextlib
import dataclasses
import io
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactmech import cli, diagnostics, dynamics, oscillator, transforms
from contactmech.dynamics import integrate
from contactmech.errors import ScenarioError
from contactmech.expressions import parse_expression
from contactmech.model import make_caldirola_kanai, make_custom, make_state
from contactmech.scenario import KINDS, MAX_SAMPLES, build_model, parse_scenario

ROOT = Path(__file__).resolve().parents[1]

GOOD = """\
[scenario]
name = cli_smoke

[model]
kind = linear_dissipation
m = 1
gamma = 0.1
V = q^2/2

[initial]
q = 1
p = 0

[integration]
rel_tol = 1e-10
abs_tol = 1e-13
sample_interval = 0.05
t_end = 5

[diagnostics]
checks = hamiltonian_decay, divergence
"""


@pytest.fixture()
def good_scenario(tmp_path):
    path = tmp_path / "good.ini"
    path.write_text(GOOD)
    return str(path)


def test_run_writes_artifacts(good_scenario, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = cli.main(["run", good_scenario, "--out", out])
    assert code == 0
    assert os.path.exists(os.path.join(out, "trajectory.tsv"))
    assert os.path.exists(os.path.join(out, "report.txt"))
    assert os.path.exists(os.path.join(out, "plots", "hamiltonian_decay.svg"))
    assert os.path.exists(os.path.join(out, "plots", "divergence.svg"))
    assert "cli_smoke: pass" in capsys.readouterr().out
    header = Path(out, "trajectory.tsv").read_text().splitlines()[0].split("\t")
    assert header[:6] == ["t", "q1", "p1", "S", "H", "divergence"]
    report = Path(out, "report.txt").read_text()
    assert "status: pass" in report
    assert "hamiltonian_decay:" in report and "threshold:" in report


def test_run_is_byte_deterministic(good_scenario, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["run", good_scenario, "--out", out1]) == 0
    assert cli.main(["run", good_scenario, "--out", out2]) == 0
    for name in ("trajectory.tsv", "report.txt",
                 os.path.join("plots", "hamiltonian_decay.svg"),
                 os.path.join("plots", "divergence.svg")):
        b1 = Path(out1, name).read_bytes()
        b2 = Path(out2, name).read_bytes()
        assert b1 == b2, name


def test_verify_writes_no_trajectory(good_scenario, tmp_path):
    out = str(tmp_path / "v")
    assert cli.main(["verify", good_scenario, "--out", out]) == 0
    assert not os.path.exists(os.path.join(out, "trajectory.tsv"))
    assert os.path.exists(os.path.join(out, "report.txt"))


def test_failed_diagnostic_exit_code(tmp_path, capsys):
    # a deliberately coarse fixed-step run cannot hold the 1e-6 decay target
    bad = GOOD.replace("rel_tol = 1e-10", "method = fixed_rk4\nstep = 0.5") \
              .replace("sample_interval = 0.05", "sample_interval = 0.5")
    path = tmp_path / "coarse.ini"
    path.write_text(bad)
    code = cli.main(["run", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    report = (tmp_path / "o" / "report.txt").read_text()
    assert "status: fail" in report
    assert "pass: false" in report


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(GOOD + "typo = 1\n")
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path):
    assert cli.main(["run", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == 5


def test_integration_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "steps.ini"
    path.write_text(GOOD.replace("[integration]\n", "[integration]\nmax_steps = 3\n"))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "max_steps" in capsys.readouterr().err


def test_an_overflowing_first_derivative_is_an_integration_failure(tmp_path, capsys):
    """q = 1e-150 makes the Riccati solve of `hj_residual` start at C = p/(m q)
    = 1e150, whose derivative -C^2/m overflows the first step's error norm."""
    text = (ROOT / "scenarios" / "damped_free_particle.ini").read_text()
    assert "q = 1\n" in text and "p = 0.2\n" in text
    path = tmp_path / "tiny_q.ini"
    path.write_text(text.replace("q = 1\n", "q = 1e-150\n").replace("p = 0.2\n", "p = 1\n"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["verify", str(path), "--out", str(tmp_path / "o")]) == 3
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: no initial step at t=0, y=\[[^\]\n]*\]: the derivative "
                        r"\[[^\]\n]*\] is too large for the error norm\n", err), err


def test_float_overflow_exit_code(tmp_path, capsys):
    # e^{gamma t} of the Caldirola-Kanai model overflows a float past gamma t = 709;
    # at gamma = 40, p overflows first and NonFiniteError fires instead
    text = GOOD.replace("kind = linear_dissipation", "kind = caldirola_kanai") \
               .replace("gamma = 0.1", "gamma = 10").replace("t_end = 5", "t_end = 80") \
               .replace("rel_tol = 1e-10", "rel_tol = 1e-6") \
               .replace("abs_tol = 1e-13", "abs_tol = 1e-9") \
               .replace("checks = hamiltonian_decay, divergence", "checks = divergence")
    path = tmp_path / "overflow.ini"
    path.write_text(text)
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "math range error" in capsys.readouterr().err


def _caldirola_kanai_overflow(tmp_path, gamma):
    text = (ROOT / "scenarios" / "caldirola_kanai.ini").read_text()
    for old, new in (("gamma = 0.1", f"gamma = {gamma}"), ("t_end = 10", "t_end = 80"),
                     ("rel_tol = 1e-10", "rel_tol = 1e-6"), ("abs_tol = 1e-13", "abs_tol = 1e-9")):
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "ck.ini"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["verify", str(path), "--out", str(tmp_path / "o")])
    assert not caught, [str(w.message) for w in caught]
    return code


def test_caldirola_kanai_overflow_names_model_gamma_and_time(tmp_path, capsys):
    assert _caldirola_kanai_overflow(tmp_path, 10) == 3
    err = capsys.readouterr().err
    match = re.search(r"^error: caldirola_kanai: e\^\(±gamma t\) with model\.gamma = 10\.0 "
                      r"overflows at t=(\S+): math range error$", err, re.M)
    assert match, err
    assert 70.9 < float(match.group(1)) <= 80.0  # e^{10 t} overflows past t = 70.98


@pytest.mark.parametrize("gamma, pattern", [
    (20, r"error: caldirola_kanai: e\^\(±gamma t\) with model\.gamma = 20\.0 overflows "
         r"at t=\S+: math range error"),
    (40, r"error: non-finite vector field: the steps from t=(\S+), y=\[.*\] down to "
         r"h=\S+ all met a non-finite stage"),
])
def test_caldirola_kanai_overflow_is_one_error_line(gamma, pattern, tmp_path, capsys):
    """The stepper rejects the overflowing stages itself, so no numpy warning
    reaches stderr ahead of the error line."""
    assert _caldirola_kanai_overflow(tmp_path, gamma) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(pattern + "\n", err), err


def test_a_huge_span_is_a_bad_scenario(tmp_path, capsys, monkeypatch):
    # refused before anything is allocated: 1e9 / 0.01 samples would take 745 GiB
    monkeypatch.setattr(cli, "integrate", lambda *args: pytest.fail("the span was integrated"))
    text = (ROOT / "scenarios" / "damped_oscillator.ini").read_text()
    assert "t_end = 10\n" in text
    path = tmp_path / "huge.ini"
    path.write_text(text.replace("t_end = 10\n", "t_end = 1e9\n"))
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: integration.t_end: ") and f"{MAX_SAMPLES} samples" in err
    assert parse_scenario(text.replace("t_end = 10\n", "t_end = 1e5\n")).t_end == 1e5
    with pytest.raises(ScenarioError, match="integration.t_end"):
        parse_scenario(text.replace("t_end = 10\n", "t_end = 100000.01\n"))


@pytest.mark.parametrize("old, new, message", [
    ("V = q^2/2", "V = q^2/2\n  + 0.1*q^4", "error: model.V: a value must be on one line\n"),
    ("name = cli_smoke", "name = cli\n  smoke",
     "error: scenario.name: a value must be on one line\n"),
    ("[diagnostics]", "[output]\ntrajectory =\n\n[diagnostics]",
     "error: output.trajectory: empty file name\n"),
    ("[diagnostics]", "[output]\nreport =\n\n[diagnostics]",
     "error: output.report: empty file name\n"),
], ids=["continued-V", "continued-name", "empty-trajectory", "empty-report"])
def test_values_the_outputs_cannot_honour_are_bad_scenarios(old, new, message, tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(GOOD.replace(old, new))
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, name", [
    ("trajectory", "../escaped.tsv"), ("trajectory", "."), ("report", ".."),
    ("report", "{tmp}/abs.txt"), ("plot_dir", "a\\b"), ("plot_dir", "sub/plots"),
])
def test_output_names_outside_out_are_bad_scenarios(key, name, tmp_path, capsys):
    """An output name is one plain path component: a run that names `.`, `..`,
    a path or an absolute path exits 2 with the key, and writes nothing."""
    name = name.format(tmp=tmp_path)
    path = tmp_path / "scenario" / "bad.ini"
    path.parent.mkdir()
    path.write_text(GOOD.replace("[diagnostics]", f"[output]\n{key} = {name}\n\n[diagnostics]"))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "scenario" / "o")]) == 2
    assert capsys.readouterr().err == (f"error: output.{key}: must be a plain file name inside "
                                       f"the output directory, got {name!r}\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.ini", "scenario"]


@pytest.mark.parametrize("header", ["[DEFAULT]\n", "[DEFAULT]\nq = 1\n"])
def test_a_default_section_is_a_bad_scenario(header, tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(header + GOOD)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: DEFAULT: unknown section\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("step", ["5e-324", "1e-300"])
def test_a_fixed_step_too_small_for_max_steps_fails_at_once(step, tmp_path, capsys):
    """A subnormal step makes the substep count infinite, and 1e-300 makes it
    about 1e298: both fail before the first step, naming max_steps, the step
    and t, where 1e-300 once ran a million futile steps for half a minute."""
    text = (ROOT / "scenarios" / "damped_oscillator.ini").read_text()
    assert "method = adaptive_rk45\n" in text
    path = tmp_path / "tiny.ini"
    path.write_text(text.replace("method = adaptive_rk45\n",
                                 f"method = fixed_rk4\nstep = {step}\n"))
    started = time.perf_counter()
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "o")]) == 3
    assert time.perf_counter() - started < 5.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: max_steps=1000000 exceeded at t=0: step={step} needs ")


def test_internal_error_exit_code(good_scenario, tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("unsupported operand")
    monkeypatch.setattr(cli, "run_scenario", broken)
    assert cli.main(["run", good_scenario, "--out", str(tmp_path / "o")]) == 6
    assert "internal error: TypeError: unsupported operand" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "verify", "expr"])
def test_debug_prints_the_traceback_of_an_internal_error(command, good_scenario, tmp_path,
                                                         capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("unsupported operand")
    monkeypatch.setattr(cli, "run_scenario", broken)
    monkeypatch.setattr(cli, "parse_expression", broken)
    args = ([command, good_scenario, "--out", str(tmp_path / "o")] if command != "expr"
            else ["expr", "q", "--var", "q", "--at", "1"])
    line = "error: internal error: TypeError: unsupported operand\n"
    assert cli.main(args) == 6
    assert capsys.readouterr().err == line
    assert cli.main(args + ["--debug"]) == 6
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert "in broken" in err and err.endswith("TypeError: unsupported operand\n" + line)


def test_singularity_exit_code(tmp_path, capsys):
    # oscillator hj_residual rides the Riccati solution into its pole
    text = GOOD.replace("kind = linear_dissipation", "kind = damped_parametric") \
               .replace("V = q^2/2", "omega = 1") \
               .replace("checks = hamiltonian_decay, divergence",
                        "checks = hj_residual") \
               .replace("t_end = 5", "t_end = 10")
    path = tmp_path / "pole.ini"
    path.write_text(text)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 4
    assert "blew up" in capsys.readouterr().err


def test_expr_subcommand(capsys):
    assert cli.main(["expr", "q^2/2", "--var", "q", "--at", "2"]) == 0
    out = capsys.readouterr().out
    assert "value: 2" in out
    assert "derivative: 2" in out
    assert cli.main(["expr", "q +* 2", "--var", "q", "--at", "1"]) == 2


def test_expr_errors_map_to_exit_codes(capsys):
    assert cli.main(["expr", "exp(q)", "--var", "q", "--at", "1000"]) == 3
    assert "math range error" in capsys.readouterr().err
    assert cli.main(["expr", "sin(q)", "--var", "q", "--at", "inf"]) == 2
    assert "--at: non-finite number" in capsys.readouterr().err
    assert cli.main(["expr", "q^1000", "--var", "q", "--at", "800"]) == 3
    assert ("error: power 800.0^1000.0 overflows: math range error (at offset 1)"
            in capsys.readouterr().err)
    assert cli.main(["expr", "q^0.5", "--var", "q", "--at", "-2"]) == 2
    assert ("error: invalid power -2.0^0.5: math domain error (at offset 1)"
            in capsys.readouterr().err)


def test_deep_nesting_runs_as_the_flat_text(tmp_path, capsys):
    deep = "(" * 5000 + "q" + ")" * 5000
    assert cli.main(["expr", deep, "--var", "q", "--at", "1"]) == 0
    assert capsys.readouterr() == ("value: 1\nderivative: 1\n", "")
    codes = []
    for name, V in (("deep", deep), ("flat", "q")):
        path = tmp_path / f"{name}.ini"
        path.write_text(GOOD.replace("V = q^2/2", f"V = {V}"))
        codes.append(cli.main(["verify", str(path), "--out", str(tmp_path / name)]))
    assert codes[0] == codes[1]


def test_trig_of_infinity_is_a_bad_scenario(tmp_path, capsys):
    path = tmp_path / "trig.ini"
    path.write_text(GOOD.replace("V = q^2/2", "V = cos(q*1e308*10)"))
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "error: model.V: cos of infinite value inf (at offset 0)" in capsys.readouterr().err


@pytest.mark.parametrize("replace, code, message", [
    ({"V = q^2/2": "V = sqrt(q)", "q = 1": "q = -1"}, 2,
     "error: model.V: sqrt of negative value -1.0 (at offset 0)"),
    ({"V = q^2/2": "V = exp(q)", "q = 1": "q = 800"}, 3,
     "error: model.V: exp of 800.0 overflows: math range error (at offset 0)"),
    ({"kind = linear_dissipation": "kind = damped_parametric",
      "V = q^2/2": "omega = 2 + sqrt(t - 5)",
      "checks = hamiltonian_decay, divergence": "checks = divergence"}, 2,
     "error: model.omega: sqrt of negative value -5.0 (at offset 4)"),
    ({"V = q^2/2": "V = q^1000", "q = 1": "q = 800"}, 3,
     "error: model.V: power 800.0^1000.0 overflows: math range error (at offset 1)"),
], ids=["sqrt", "exp", "omega", "power"])
def test_runtime_expression_errors_name_their_key(replace, code, message, tmp_path, capsys):
    text = GOOD
    for old, new in replace.items():
        text = text.replace(old, new)
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "o")]) == code
    assert message in capsys.readouterr().err


SUBNORMAL_Q_HJ = """\
[model]
kind = damped_parametric
m = 2.526
gamma = 0
omega = 1 + 0.5*sin(t)

[initial]
q = 5e-324
p = -2.942

[integration]
t_end = 2

[diagnostics]
checks = hj_residual
"""

TINY_MASS_INVARIANTS = """\
[model]
kind = damped_parametric
m = 1e-300
gamma = 0
omega = 1

[initial]
q = 0.5
p = 0.3

[integration]
method = fixed_rk4
step = 0.01
t_end = 2

[diagnostics]
checks = invariants
"""


def test_a_non_finite_riccati_start_is_an_integration_failure(tmp_path, capsys):
    """p/(m q) overflows to -inf for the subnormal q: exit 3 naming t and y,
    where the Riccati solve's refusal of its start was an internal error."""
    path = tmp_path / "hj.ini"
    path.write_text(SUBNORMAL_Q_HJ)
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: hj_residual: the Riccati start p/\(m q\) = -inf is non-finite "
                        r"at t=0\.0, y=\[.*\]\n", err), err


def test_a_riccati_start_whose_m_q_underflows_is_an_integration_failure(tmp_path, capsys):
    """At m = 0.0984 the subnormal q's m q rounds to 0: p/(m q) is past any
    float, exit 3 as above, where the division was an internal error; with
    p = 0 the start slope is 0, whose solve meets a pole (exit 4)."""
    path = tmp_path / "hj.ini"
    path.write_text(SUBNORMAL_Q_HJ.replace("m = 2.526", "m = 0.0984"))
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: hj_residual: the Riccati start p/\(m q\) = -inf is non-finite "
                        r"at t=0\.0, y=\[.*\]\n", err), err
    path.write_text(SUBNORMAL_Q_HJ.replace("m = 2.526", "m = 0.0984").replace("p = -2.942", "p = 0"))
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "p0")]) == 4
    assert capsys.readouterr().err.startswith("error: Riccati solution blew up ")


def _hj_scenario(tmp_path, name, t_end=None, q=None):
    """The shipped scenario `name` with checks = hj_residual, and t_end or q replaced."""
    text = (ROOT / "scenarios" / f"{name}.ini").read_text()
    text = re.sub(r"(?m)^checks = .*$", "checks = hj_residual", text)
    if t_end is not None:
        text = re.sub(r"(?m)^t_end = .*$", f"t_end = {t_end}", text)
    if q is not None:
        text = re.sub(r"(?m)^q = .*$", f"q = {q}", text)
    path = tmp_path / f"{name}_hj.ini"
    path.write_text(text)
    return path


def test_hj_residual_on_a_time_dependent_omega_is_one_grid_of_the_per_time_rows(
        tmp_path, capsys, monkeypatch):
    """parametric_oscillator's omega = 1 + 0.1 sin(0.3 t) through the HJ check:
    to t_end = 10 its Riccati solve meets a pole (exit 4); to t_end = 1.2 it
    passes, and its one grid call equals the calls at each time alone bit for
    bit."""
    assert cli.main(["verify", str(_hj_scenario(tmp_path, "parametric_oscillator")),
                     "--out", str(tmp_path / "pole")]) == 4
    assert capsys.readouterr().err == \
        "error: Riccati solution blew up (|C| > 1e+08) at t=1.5991\n"
    grids = []
    real = diagnostics.hj_residual

    def recorded(*args):
        grids.append((args, real(*args)))
        return grids[-1][1]
    monkeypatch.setattr(diagnostics, "hj_residual", recorded)
    path = _hj_scenario(tmp_path, "parametric_oscillator", t_end=1.2)
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    [((model, field, qs, ts), grid)] = grids
    assert grid.shape == (50, 50) and ts.tolist() == np.linspace(0.0, 1.2, 50).tolist()
    rows = np.array([real(model, field, qs, float(t)) for t in ts])
    assert grid.tobytes() == rows.tobytes()
    assert np.max(np.abs(grid)) < 1e-8


def test_a_riccati_start_at_q0_0_is_1(tmp_path, capsys):
    """At q0 = 0 the slope p/(m q) has no value, so the HJ check starts its
    Riccati solve at C0 = 1, and says so in the report."""
    path = _hj_scenario(tmp_path, "damped_free_particle", q=0)
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    assert "    riccati_C0: 1\n" in (tmp_path / "o" / "report.txt").read_text()


def test_an_overflowing_lewis_invariant_is_an_integration_failure(tmp_path, capsys):
    """p/m = 3e299 squares past the float range: exit 3 naming t and y, and no
    numpy warning on the way, where the NaN drift was a failed check (exit 1)."""
    path = tmp_path / "lewis.ini"
    path.write_text(TINY_MASS_INVARIANTS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: the Lewis invariant is non-finite at t=0\.0, "
                        r"y=\[0\.5 0\.3 0\. *\]: inf\n", err), err


def test_a_non_finite_h_on_the_hj_grid_is_one_error_line(tmp_path, capsys):
    """m = 1e300 with omega = cos(t)^-1 makes H non-finite on `hj_residual`'s
    grid of 50 points: exit 3 naming the first point and time on one line,
    where the whole grid was printed over nine."""
    path = tmp_path / "grid.ini"
    path.write_text("""\
[model]
kind = damped_parametric
m = 1e+300
gamma = 0.14854180339925918
omega = cos(t)^-1

[initial]
q = 1e-300
p = 2.225073858507203e-309
S = 7.572727157607293e-192

[integration]
method = adaptive_rk45
max_steps = 597
t_end = 1.2343711811017908

[diagnostics]
checks = hj_residual
""")
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "o")]) == 3
    assert re.fullmatch(r"error: model 'damped_parametric' is non-finite at q=\[-2\.\], "
                        r"t=\S+\n", capsys.readouterr().err)


def test_the_invariants_check_passes_a_run_that_starts_at_g_zero(tmp_path, capsys):
    """parametric_oscillator.ini with S = 0 starts at q = 1, p = 0, so G0 = 0:
    G's drift, about 5e-11, is relative to a fraction of |I0|, not to 1e-12,
    and so is the G/G0 plot, not to 1e-30: its y ticks stay within [-2, 2]."""
    text = (ROOT / "scenarios" / "parametric_oscillator.ini").read_text()
    assert "\nS = 0.3\n" in text
    path = tmp_path / "g0.ini"
    path.write_text(text.replace("\nS = 0.3\n", "\nS = 0\n"))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    svg = (tmp_path / "o" / "plots" / "invariants.svg").read_text()
    ticks = [float(v) for v in re.findall(r'text-anchor="end">([^<]*)<', svg)]
    assert ticks and max(abs(v) for v in ticks) <= 2
    config = parse_scenario(path.read_text())
    model = build_model(config)
    traj = integrate(model, make_state(config.q0, config.p0, config.S0, config.t0),
                     config.t_end, config.options)
    (result,) = diagnostics.run_checks(("invariants",), model, traj)
    (G,) = [y for label, _, y in result["series"] if label == "G/G0"]
    assert np.all(np.isfinite(G)) and np.max(np.abs(G)) < 2


def test_energy_conservation_passes_a_run_that_starts_at_h_zero(tmp_path):
    """conservative_oscillator.ini with V = q^2/2 - 0.5 has the shipped motion
    but H0 = 0: H's drift is relative to a fraction of its terms' sizes along
    the run, not to 1e-12, so the correct run passes."""
    text = (ROOT / "scenarios" / "conservative_oscillator.ini").read_text()
    assert "\nV = q^2/2\n" in text
    path = tmp_path / "h0.ini"
    path.write_text(text.replace("\nV = q^2/2\n", "\nV = q^2/2 - 0.5\n"))
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "o")]) == 0
    report = (tmp_path / "o" / "report.txt").read_text()
    observed = float(re.search(r"energy_conservation:\n.*\n    observed: (\S+)", report).group(1))
    assert observed < 1e-8


def test_seed_changes_verification_points(tmp_path):
    text = GOOD.replace("checks = hamiltonian_decay, divergence",
                        "checks = transform_verify:ck")
    path = tmp_path / "seeded.ini"
    path.write_text(text)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "s0"), "--seed", "0"]) == 0
    assert cli.main(["run", str(path), "--out", str(tmp_path / "s1"), "--seed", "1"]) == 0
    r0 = (tmp_path / "s0" / "plots" / "transform_verify_ck.svg").read_bytes()
    r1 = (tmp_path / "s1" / "plots" / "transform_verify_ck.svg").read_bytes()
    assert r0 != r1  # point sets are seed-dependent
    # but the same seed is reproducible
    assert cli.main(["run", str(path), "--out", str(tmp_path / "s0b"), "--seed", "0"]) == 0
    assert r0 == (tmp_path / "s0b" / "plots" / "transform_verify_ck.svg").read_bytes()


_EXPRESSIONS = {"V": "q^2/2", "omega": "1"}


def _scenario_of(kind, checks, gamma=0.1, expression=None):
    key = KINDS[kind][1]
    return GOOD.replace("kind = linear_dissipation", f"kind = {kind}") \
               .replace("gamma = 0.1", f"gamma = {gamma}") \
               .replace("V = q^2/2", f"{key} = {expression or _EXPRESSIONS[key]}") \
               .replace("checks = hamiltonian_decay, divergence", f"checks = {checks}")


@pytest.mark.parametrize("token", diagnostics.TOKENS)
def test_every_check_token_parses_for_the_kinds_it_allows(token):
    """A token parses for every kind that gives its check what it needs, and
    exits 2 naming diagnostics.checks for every other kind.  Here omega = 1,
    so only the Caldirola-Kanai H has explicit t, and only at gamma > 0; at
    gamma = 0.1 no H is conservative, at gamma = 0 every one is."""
    row = diagnostics.CHECKS[token]
    for gamma in (0.1, 0):
        for kind, (_, key, _) in KINDS.items():
            text = _scenario_of(kind, token, gamma)
            explicit_t = kind == "caldirola_kanai" and gamma > 0
            refused = ("omega" in row.params and key != "omega") or \
                (row.autonomous and explicit_t) or (row.conservative and gamma > 0)
            if refused:
                with pytest.raises(ScenarioError,
                                   match=f"^diagnostics.checks: '{token}' ") as err:
                    parse_scenario(text)
                assert cli._classify(err.value) == cli.EXIT_BAD_SCENARIO
            else:
                assert parse_scenario(text).checks == (token,)


def test_every_map_builds_from_the_model():
    config = parse_scenario((ROOT / "scenarios" / "parametric_oscillator.ini").read_text())
    model = build_model(config)
    traj = integrate(model, make_state(config.q0, config.p0, config.S0, config.t0),
                     config.t_end, config.options)
    for name in (token.partition(":")[2] for token in diagnostics.TOKENS
                 if token.startswith("transform_verify:")):
        cmap, _gamma = diagnostics._build_map(name, model, traj, {})
        assert cmap.name == name


def _custom_oscillator_run(params):
    """(model, trajectory) of a make_custom harmonic oscillator with `params`."""
    model = make_custom(1, lambda t, y: y[1] ** 2 / 2 + y[0] ** 2 / 2, params=params)
    return model, integrate(model, make_state(1.0, 0.0, 0.0, 0.0), 1.0)


@pytest.mark.parametrize("params, checks, message", [
    ({"m": 1.0, "gamma": 0.0}, ("energy_conservation", "invariants"),
     "'invariants' needs model.omega, which model 'custom' does not have"),
    ({}, ("energy_conservation", "transform_verify:ck"),
     "'transform_verify:ck' needs model.m, model.gamma, which model 'custom' does not have"),
    ({}, ("energy_conservation", "nonsense"), "unknown check 'nonsense'; expected one of "),
], ids=["omega", "params", "unknown"])
def test_run_checks_refuses_what_the_model_cannot_give_before_any_check_runs(
        params, checks, message, monkeypatch):
    """From the library, as from a scenario file, a token that is unknown or
    whose check reads a model.params entry that the model lacks is a
    ScenarioError (exit 2) naming the token and the entry; no check runs."""
    model, traj = _custom_oscillator_run(params)

    def forbidden(*args):
        raise AssertionError("a check ran")

    monkeypatch.setitem(diagnostics.CHECKS, "energy_conservation",
                        diagnostics.CHECKS["energy_conservation"]._replace(check=forbidden))
    with pytest.raises(ScenarioError) as err:
        diagnostics.run_checks(checks, model, traj)
    assert str(err.value).startswith(f"diagnostics.checks: {message}")
    assert cli._classify(err.value) == cli.EXIT_BAD_SCENARIO


def test_run_checks_runs_a_parameterised_check_on_a_custom_model_that_has_the_params():
    model, traj = _custom_oscillator_run({"m": 1.0, "gamma": 0.0})
    (result,) = diagnostics.run_checks(("transform_verify:ck",), model, traj)
    assert result["passed"]


@pytest.mark.parametrize("observed, f_deviation, passed", [
    (0.0, 0.0, True), (9.9e-9, 9.9e-10, True), (1e-8, 0.0, False), (float("nan"), 0.0, False),
    (0.0, 1e-9, False), (0.0, float("nan"), False),
], ids=["clean", "under", "at-threshold", "nan", "gate-only", "nan-gate"])
def test_run_checks_passes_a_check_below_its_threshold_and_every_gate(
        observed, f_deviation, passed, monkeypatch):
    """run_checks names each result by its token and judges it by the row: its
    observed value under the threshold and each gate's extra value under its
    bound.  A NaN fails, and so does a failing gate alone."""
    model, traj = _custom_oscillator_run({})
    token = "transform_verify:identity"

    def measured(*args):
        return {"observed": observed, "extra": {"f_deviation": f_deviation}}

    row = diagnostics.CHECKS[token]
    monkeypatch.setitem(diagnostics.CHECKS, token, row._replace(check=measured))
    (result,) = diagnostics.run_checks((token,), model, traj)
    assert row.threshold == 1e-8 and row.gates == (("f_deviation", 1e-9),)
    assert result["name"] == token and result["threshold"] == row.threshold
    assert result["passed"] is passed


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "scenarios").glob("*.ini")))
def test_every_shipped_report_prints_the_thresholds_of_the_rows(name, tmp_path):
    """Each check of a shipped scenario's report prints its row's threshold, and
    a transform check's f_threshold is the bound of its row's gate."""
    config = parse_scenario((ROOT / "scenarios" / f"{name}.ini").read_text())
    cli.run_scenario(config, str(tmp_path), with_trajectory=False, with_plots=False)
    report = (tmp_path / config.report_file).read_text().split("diagnostics:\n")[1]
    printed = {}
    for line in report.splitlines():
        key, _, value = line.strip().partition(": ")
        if not line.startswith("    "):
            token = key.rstrip(":")
        elif key in ("threshold", "f_threshold"):
            printed[token, key] = float(value)
    expected = {}
    for token in config.checks:
        row = diagnostics.CHECKS[token]
        expected[token, "threshold"] = row.threshold
        if token.startswith("transform_verify:"):
            expected[token, "f_threshold"] = dict(row.gates)["f_deviation"]
    assert printed == expected and config.checks


def test_run_checks_runs_the_energy_check_on_a_custom_model_named_like_a_kind():
    """A make_custom model that takes a built-in kind's name, but not its
    params, is not refused as that kind would be: its check runs."""
    model = make_custom(1, lambda t, y: y[1] ** 2 / 2 + y[0] ** 2 / 2,
                        name="caldirola_kanai", params={"gamma": 0.1})
    traj = integrate(model, make_state(1.0, 0.0, 0.0, 0.0), 1.0)
    (result,) = diagnostics.run_checks(("energy_conservation",), model, traj)
    assert result["passed"]


@pytest.mark.parametrize("name", ["caldirola_kanai", "parametric_oscillator"])
def test_the_decay_check_on_a_time_dependent_hamiltonian_is_a_bad_scenario(name, tmp_path,
                                                                           capsys):
    """dH/dt = -H dH/dS leaves out the dH/dt of an H with explicit t, so the
    decay check on one is refused before anything is integrated."""
    text = (ROOT / "scenarios" / f"{name}.ini").read_text()
    text = re.sub(r"(?m)^checks = .*$", "checks = hamiltonian_decay", text)
    path = tmp_path / f"{name}.ini"
    path.write_text(text)
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: diagnostics.checks: 'hamiltonian_decay' holds only for an H without explicit t")


@pytest.mark.parametrize("name, kind, start", [("caldirola_kanai", "caldirola_kanai", "p = 0.3"),
                                               ("parametric_oscillator", "damped_parametric", None)])
def test_the_measure_check_on_a_time_dependent_hamiltonian_is_a_bad_scenario(
        name, kind, start, tmp_path, capsys):
    """The invariant measure |H|^-(n+1) holds for an H without explicit t:
    correct runs of these files read 0.145 and 0.169 against 1e-4.  The check
    is refused with exit 2, from a scenario file and from the library."""
    text = re.sub(r"(?m)^checks = .*$", "checks = measure", (ROOT / "scenarios" /
                                                            f"{name}.ini").read_text())
    if start:
        text = re.sub(r"(?m)^p = .*$", start, text)
    path = tmp_path / f"{name}.ini"
    path.write_text(text)
    message = (f"diagnostics.checks: 'measure' holds only for an H without explicit t, "
               f"and this {kind} model depends on t")
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    config = parse_scenario(text.replace("checks = measure", "checks = divergence"))
    model = build_model(config)
    traj = integrate(model, make_state(config.q0, config.p0, config.S0, config.t0),
                     config.t0 + 0.5, config.options, tangent=True)
    with pytest.raises(ScenarioError) as err:
        diagnostics.run_checks(("measure",), model, traj)
    assert str(err.value) == message


@pytest.mark.parametrize("token", ["hamiltonian_decay", "energy_conservation", "measure"])
def test_run_checks_refuses_what_the_caldirola_kanai_h_breaks_before_any_check_runs(
        token, monkeypatch):
    """At gamma = 0.1 the Caldirola-Kanai H has explicit t and is dissipated, so
    a library run of these checks raises the scenario file's own ScenarioError,
    rather than reporting a correct run as failed, and no check runs."""
    model = make_caldirola_kanai(1.0, 0.1, parse_expression("q^2/2", "q"))
    traj = integrate(model, make_state(1.0, 0.3), 10.0, tangent=True)

    def forbidden(*args):
        raise AssertionError("a check ran")

    for name, row in diagnostics.CHECKS.items():
        monkeypatch.setitem(diagnostics.CHECKS, name, row._replace(check=forbidden))
    with pytest.raises(ScenarioError, match=f"^diagnostics.checks: '{token}' holds only for ") \
            as err:
        diagnostics.run_checks(("divergence", token), model, traj)
    assert str(err.value).endswith("this caldirola_kanai model has gamma = 0.1"
                                   if token == "energy_conservation" else
                                   "this caldirola_kanai model depends on t")


@pytest.mark.parametrize("token", diagnostics.TOKENS)
def test_a_library_caller_is_refused_exactly_what_a_scenario_file_is(token):
    """For every kind at gamma = 0 and 0.1, run_checks on a short trajectory of
    the built model refuses a token iff parse_scenario does, with the same
    text but for the name of the model."""
    for gamma in (0.1, 0):
        for kind, (factory, key, variable) in KINDS.items():
            try:
                parse_scenario(_scenario_of(kind, token, gamma))
                file_refusal = None
            except ScenarioError as exc:
                file_refusal = str(exc).replace(f"kind={kind}", f"model {kind!r}")
            model = factory(1.0, gamma, parse_expression(_EXPRESSIONS[key], variable))
            traj = integrate(model, make_state(1.0, 0.0), 0.5,
                             tangent=diagnostics.CHECKS[token].tangent)
            try:
                results = diagnostics.run_checks((token,), model, traj)
                library_refusal = None
            except ScenarioError as exc:
                library_refusal = str(exc)
            assert library_refusal == file_refusal, (kind, gamma)
            if file_refusal is None:
                assert [r["name"] for r in results] == [token]


def test_a_span_past_the_interpolation_nodes_is_refused_from_the_library_too(monkeypatch):
    """With oscillator.MAX_NODES at 400, t_end = 5 needs 500 nodes 0.01 apart:
    run_checks refuses the node checks with the scenario file's own text."""
    monkeypatch.setattr(oscillator, "MAX_NODES", 400)
    model = build_model(parse_scenario(_scenario_of("damped_parametric", "divergence")))
    traj = integrate(model, make_state(1.0, 0.0), 5.0)
    for token in ("invariants", "hj_residual", "transform_verify:invariants"):
        with pytest.raises(ScenarioError) as from_file:
            parse_scenario(_scenario_of("damped_parametric", token))
        with pytest.raises(ScenarioError) as from_library:
            diagnostics.run_checks(("transform_verify:identity", token), model, traj)
        assert str(from_library.value) == str(from_file.value) == (
            f"integration.t_end: {token!r} interpolates on nodes 0.01 apart, and "
            f"(t_end - t0) / 0.01 exceeds 400 nodes, got t_end=5.0")


def test_energy_conservation_on_a_dissipative_hamiltonian_is_a_bad_scenario(tmp_path, capsys):
    """H is conserved only at gamma = 0 with no explicit t, so on the damped
    oscillator the check is refused before anything is integrated, rather than
    failing with an observed drift of 1 - e^-1."""
    text = (ROOT / "scenarios" / "damped_oscillator.ini").read_text()
    path = tmp_path / "damped.ini"
    path.write_text(re.sub(r"(?m)^checks = .*$", "checks = energy_conservation", text))
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: diagnostics.checks: 'energy_conservation' holds only for a conservative H "
        "(gamma = 0, no explicit t), and this linear_dissipation model has gamma = 0.1")
    explicit_t = _scenario_of("damped_parametric", "energy_conservation", 0, "1 + 0.1*sin(t)")
    with pytest.raises(ScenarioError, match="damped_parametric model depends on t$"):
        parse_scenario(explicit_t)


@pytest.mark.parametrize("kind, gamma, expression", [
    ("caldirola_kanai", 0, None), ("damped_parametric", 0.1, "0"),
    ("damped_parametric", 0.1, "1.2"), ("damped_parametric", 0.1, "t - t"),
    ("damped_parametric", 0.1, "0*t")])
def test_the_decay_check_parses_where_h_has_no_explicit_t(kind, gamma, expression):
    """An omega whose parsed derivative is the literal 0, or Caldirola-Kanai at
    gamma = 0, gives an H without explicit t."""
    config = parse_scenario(_scenario_of(kind, "hamiltonian_decay", gamma, expression))
    assert config.checks == ("hamiltonian_decay",)


def test_a_scenario_with_volume_checks_is_one_solve(tmp_path, monkeypatch):
    """divergence and measure read the tangent that the flow's own solve
    carried: no second solve."""
    solves, integrate_flat = [], dynamics._integrate_flat

    def counted(rhs, y0, *args, **kwargs):
        solves.append(len(y0))
        return integrate_flat(rhs, y0, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_integrate_flat", counted)
    config = parse_scenario((ROOT / "scenarios" / "damped_oscillator.ini").read_text())
    assert {"divergence", "measure"} <= set(config.checks)
    assert cli.run_scenario(config, str(tmp_path)) == cli.EXIT_PASS
    assert solves == [3 + 9]


@pytest.mark.parametrize("name, tangent", [("damped_oscillator", True),
                                           ("damped_free_particle", False),
                                           ("parametric_oscillator", False)])
def test_only_the_volume_checks_evaluate_the_field_jacobian(name, tangent, tmp_path,
                                                           monkeypatch):
    calls = []

    def build_counted(config):
        model = build_model(config)

        def tangent_rhs(t, z):
            calls.append(t)
            return model.tangent_rhs(t, z)
        return dataclasses.replace(model, tangent_rhs=tangent_rhs)

    monkeypatch.setattr(cli, "build_model", build_counted)
    config = parse_scenario((ROOT / "scenarios" / f"{name}.ini").read_text())
    assert cli.run_scenario(config, str(tmp_path)) == cli.EXIT_PASS
    assert bool(calls) == tangent


@pytest.mark.parametrize("start", ["q = 0\np = 0\nS = 1", "q = 1e-8\np = 0\nS = 1"])
def test_the_volume_checks_pass_from_a_rest_point(start, tmp_path):
    """At (or next to) the rest point q = p = 0 only the slow decay of S moves
    the flow, while J follows the unit-frequency rotation: the steps the flow
    alone would take are too long for J."""
    text = GOOD.replace("q = 1\np = 0", start).replace("rel_tol = 1e-10", "rel_tol = 1e-9") \
               .replace("abs_tol = 1e-13", "abs_tol = 1e-12") \
               .replace("checks = hamiltonian_decay, divergence", "checks = divergence, measure")
    assert start in text and "checks = divergence, measure" in text
    assert cli.run_scenario(parse_scenario(text), str(tmp_path)) == cli.EXIT_PASS


def test_a_non_finite_map_jacobian_is_an_integration_failure(tmp_path, capsys, monkeypatch):
    """A transform check whose map gives a NaN Jacobian exits 3, naming the map."""
    ck = transforms.map_ck(1.0, 0.1)

    def jacobian(t, Y):
        J, dT = ck.jacobian(t, Y)
        J[:, 2, 1] = np.nan
        return J, dT

    nan_ck = transforms.ContactMap(n=1, forward=ck.forward, jacobian=jacobian, name="ck")
    monkeypatch.setattr(diagnostics, "_build_map", lambda *args: (nan_ck, 0.1))
    path = tmp_path / "nan.ini"
    path.write_text(GOOD.replace("checks = hamiltonian_decay, divergence",
                                 "checks = transform_verify:ck"))
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("error: map 'ck' has a non-finite Jacobian at ")


def _fresh_modules(command: str, scenario: str, prefix: str, out) -> list:
    """The modules named `prefix` or below it that a fresh interpreter has
    loaded after `contactmech <command>` of the shipped scenario, which must
    exit 0."""
    code = ("import sys\n"
            "from contactmech import cli\n"
            "code = cli.main([sys.argv[1], sys.argv[2], '--out', sys.argv[3]])\n"
            "print(' '.join(sorted(m for m in sys.modules\n"
            "                      if m == sys.argv[4] or m.startswith(sys.argv[4] + '.'))))\n"
            "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code, command,
                           str(ROOT / "scenarios" / f"{scenario}.ini"), str(out), prefix],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_run_imports_no_scipy(tmp_path):
    """A `run` in a fresh interpreter needs numpy only: scipy is a test dependency."""
    assert _fresh_modules("run", "damped_oscillator", "scipy", tmp_path) == []


def test_the_oscillator_solves_import_no_numpy_ma(tmp_path):
    """The Riccati solve behind hj_residual merges its nodes without np.unique,
    whose lazy import of numpy.ma costs each fresh process about 12 ms."""
    assert _fresh_modules("verify", "damped_free_particle", "numpy.ma", tmp_path) == []


@pytest.mark.parametrize("check", ["hj_residual", "invariants", "transform_verify:invariants"])
def test_a_span_with_too_many_interpolation_nodes_is_a_bad_scenario(check, tmp_path, capsys,
                                                                     monkeypatch):
    """1e6 time units at sample_interval 1 are few samples, but 1e8 nodes 0.01
    apart for the Ermakov or Riccati solve: refused at parse time, exit 2."""
    monkeypatch.setattr(cli, "integrate",
                        lambda *args, **kwargs: pytest.fail("the span was integrated"))
    text = (ROOT / "scenarios" / "parametric_oscillator.ini").read_text()
    for line in ("checks = invariants, transform_verify:invariants\n", "t_end = 10\n",
                 "sample_interval = 0.01\n"):
        assert line in text
    text = text.replace("checks = invariants, transform_verify:invariants\n",
                        f"checks = {check}\n").replace("sample_interval = 0.01\n",
                                                        "sample_interval = 1\n")
    path = tmp_path / "long.ini"
    path.write_text(text.replace("t_end = 10\n", "t_end = 1e6\n"))
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: integration.t_end: {check!r} ") and err.count("\n") == 1
    assert f"{MAX_SAMPLES} nodes" in err
    assert parse_scenario(text.replace("t_end = 10\n", "t_end = 1e5\n")).t_end == 1e5
    with pytest.raises(ScenarioError, match="integration.t_end"):
        parse_scenario(text.replace("t_end = 10\n", "t_end = 100000.01\n"))


_EXTREMES = (5e-324, -5e-324, 1e-300, 1e300, -1e300)
_EDGES = {"q": ("1/q", "log(q)", "q^-2", "sqrt(q)", "q^2/2", "(" * 1000 + "q^2/2" + ")" * 1000),
          "t": ("1/(t - 1)", "cos(t)^-1", "log(t)", "1 + 0.1*sin(0.3*t)",
                "(" * 1000 + "1 + 0.1*sin(0.3*t)" + ")" * 1000)}


def _drawn(lo, hi):
    """A float from [lo, hi], or about one time in ten an extreme."""
    return st.tuples(st.integers(0, 9), st.floats(lo, hi), st.sampled_from(_EXTREMES)) \
        .map(lambda x: x[2] if x[0] == 0 else x[1])


@st.composite
def _run_scenarios(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    _, key, variable = KINDS[kind]
    method = draw(st.sampled_from(["adaptive_rk45", "fixed_rk4\nstep = 0.01"]))
    tokens = [token for token in diagnostics.TOKENS  # those this kind's params allow
              if {"m", "gamma", key}.issuperset(diagnostics.CHECKS[token].params)]
    checks = draw(st.lists(st.sampled_from(tokens), min_size=1, max_size=3, unique=True))
    return f"""\
[model]
kind = {kind}
m = {draw(_drawn(0.05, 3.0))!r}
gamma = {draw(_drawn(0.0, 1.0))!r}
{key} = {draw(st.sampled_from(_EDGES[variable]))}

[initial]
q = {draw(_drawn(-3.0, 3.0))!r}
p = {draw(_drawn(-3.0, 3.0))!r}
S = {draw(_drawn(-3.0, 3.0))!r}

[integration]
method = {method}
max_steps = {draw(st.integers(1, 2000))}
t_end = {draw(st.floats(0.1, 2.0))!r}

[diagnostics]
checks = {", ".join(checks)}
"""


@given(_run_scenarios())
@settings(max_examples=25, deadline=None)
def test_every_drawn_run_ends_in_a_documented_exit(text):
    """Drawn kinds, values with extremes, texts with poles, domain edges and
    1,000 levels of nesting, both methods and one to three checks: `verify`
    exits 0-4, stderr is empty on 0 and 1 and one line otherwise, and no
    Python warning is raised."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        path = Path(out) / "drawn.ini"
        path.write_text(text)
        code = cli.main(["verify", str(path), "--out", str(Path(out) / "o")])
    err = err.getvalue()
    assert 0 <= code <= 4, (code, err, text)
    assert err.count("\n") == (code > 1) and err.endswith("\n" if code > 1 else ""), (err, text)
    assert not caught, [str(w.message) for w in caught]
