"""The README's library tour runs as written and shows the values it documents."""

import ast
import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def library_tour() -> str:
    """The first fenced python block under the `## Library tour` heading."""
    section = README.read_text().split("\n## Library tour\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def run_tour(source: str) -> dict:
    """Execute the block statement by statement; the value of each bare
    expression, keyed by its source text."""
    namespace, values = {}, {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "<README>", "eval")
            values[ast.get_source_segment(source, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), "<README>", "exec"), namespace)
    return values


def test_library_tour_runs_and_shows_the_documented_values():
    values = run_tour(library_tour())
    assert values["traj.H[-1]"] == pytest.approx(0.5 * math.exp(-1.0), rel=1e-6)
    assert values["cm.divergence(model, x0)"] == pytest.approx(-0.2, rel=1e-12)
    assert values["det[-1]"] == pytest.approx(math.exp(-1.0), abs=1e-5)
    assert values["cm.measure_weight(model, x0)"] == pytest.approx(4.0)


def test_the_scenario_example_shows_every_key_and_its_default():
    """The ini block under `### Scenario files` parses, names every key of the
    grammar, and dropping any key that has a default leaves the config as it is."""
    from contactmech import scenario

    section = README.read_text().split("\n### Scenario files\n", 1)[1]
    text = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    config = scenario.parse_scenario(text)
    shown = set(re.findall(r"^(?:# )?(\w+) = ", text, re.M))
    assert shown == {key for _, key, *_ in scenario._GRAMMAR}
    for _, key, _, _, default in scenario._GRAMMAR:
        if default is not scenario._REQUIRED and key not in ("V", "omega", "checks"):
            dropped = re.sub(rf"^{key} = .*\n", "", text, flags=re.M)
            assert dropped != text and scenario.parse_scenario(dropped) == config, key


def test_the_checks_table_is_the_rows_of_diagnostics_checks():
    """The table under "Available checks" has one row per token of
    `diagnostics.CHECKS`, and each shows that row's threshold, gates and needs."""
    from contactmech import diagnostics

    section = README.read_text().split("Available checks: ", 1)[1]
    table = [[cell.strip() for cell in line.split("|")[1:-1]]
             for line in section.split("\n\n")[1].splitlines()[2:]]
    shown = {token.strip("`"): (float(threshold),
                                tuple((key, float(bound)) for key, bound
                                      in re.findall(r"`(\w+)` < (\S+)", gates)),
                                needs)
             for token, threshold, gates, needs in table}
    expected = {}
    for token, row in diagnostics.CHECKS.items():
        needs = [f"`model.{key}`" for key in row.params]
        needs += [text for flag, text in ((row.tangent, "the tangent"),
                                          (row.nodes, "the nodes"),
                                          (row.autonomous, "an autonomous H"),
                                          (row.conservative, "a conservative H")) if flag]
        expected[token] = (row.threshold, row.gates, ", ".join(needs))
    assert len(table) == len(shown)
    assert shown == expected
