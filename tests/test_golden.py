"""tools/golden.py's comparison summary, on small synthetic output trees."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REPORT = """scenario: a
model: linear_dissipation
status: {status}
diagnostics:
  divergence:
    threshold: {threshold}
    observed: {observed}
    pass: {passed}
"""
TRAJECTORY = "t\tq1\tp1\n0\t1\t0\n0.5\t0.75\t{p}\n1\t0.25\t-1\n"


def _tree(root: Path, observed: str, passed: str, p: str, code: str,
          threshold: str = "1.0000000000000001e-05") -> Path:
    d = root / "volume-seed5" / "volume_00"
    (d / "plots").mkdir(parents=True)
    (d / "report.txt").write_text(REPORT.format(status="pass" if passed == "true" else "fail",
                                                threshold=threshold, observed=observed,
                                                passed=passed))
    (d / "trajectory.tsv").write_text(TRAJECTORY.format(p=p))
    (d / "plots" / "divergence.svg").write_text("<svg/>\n")
    (d / "_exit").write_text(code)
    (root / "cli" / "a-seed0").mkdir(parents=True)
    (root / "cli" / "a-seed0" / "_stderr").write_text("")
    return root


def test_compare_summarises_moved_values_flipped_verdicts_and_changed_exits(golden, tmp_path):
    old = _tree(tmp_path / "old", "2.5e-06", "true", "-0.5", "0\n")
    new = _tree(tmp_path / "new", "2.0000000000000002e-05", "false", "-0.25", "1\n")
    assert golden.compare_trees(old, new).summary == [
        "volume-seed5/volume_00/_exit:",
        "  - 0",
        "  + 1",
        "volume-seed5/volume_00/report.txt: status: pass -> fail (verdict flipped)",
        "volume-seed5/volume_00/report.txt: divergence.observed: 2.5e-06 -> "
        "2.0000000000000002e-05 (+7.00e+00)",
        "volume-seed5/volume_00/report.txt: divergence.pass: true -> false (verdict flipped)",
        "volume-seed5/volume_00/trajectory.tsv: moved, largest change 0.25 of column p1's "
        "maximum (row 1)",
        "5 files in 2 directories: 3 differ",
    ]
    assert golden.compare_trees(old, new).magnitudes == (
        "largest change: trajectory 0.25 of its column's maximum "
        "(volume-seed5/volume_00/trajectory.tsv, column p1); report value +7.00e+00 "
        "relative (volume-seed5/volume_00/report.txt: divergence.observed)")
    assert golden.compare_trees(old, old).summary == ["5 files in 2 directories: identical"]
    assert golden.compare_trees(old, old).magnitudes == \
        "largest change: trajectory none; report value none"


def test_compare_fails_only_on_a_verdict_or_exit_code_that_got_worse(golden, tmp_path):
    """pass -> fail and an exit 0 -> 1 are regressions; fail -> pass and a
    deliberate exit 2 -> 0 are not."""
    old = _tree(tmp_path / "old", "2.5e-06", "true", "-0.5", "0\n")
    new = _tree(tmp_path / "new", "2.0000000000000002e-05", "false", "-0.5", "1\n")
    assert golden.compare_trees(old, new).regressions == [
        "volume-seed5/volume_00/_exit: 0 -> 1",
        "volume-seed5/volume_00/report.txt: status: pass -> fail",
        "volume-seed5/volume_00/report.txt: divergence.pass: true -> false",
    ]
    assert golden.compare_trees(new, old).regressions == []
    bad_scenario = _tree(tmp_path / "bad", "2.5e-06", "true", "-0.5", "2\n")
    assert golden.compare_trees(bad_scenario, old).regressions == []
    assert golden.compare_trees(old, old).regressions == []


def test_compare_fails_a_threshold_that_grew(golden, tmp_path):
    """A threshold that grew is a loosened gate: a regression, marked in the
    summary.  One that shrank, or a new f_threshold line, is not."""
    old = _tree(tmp_path / "old", "2.5e-06", "true", "-0.5", "0\n")
    loose = _tree(tmp_path / "loose", "2.5e-06", "true", "-0.5", "0\n", threshold="0.0001")
    moved = "volume-seed5/volume_00/report.txt: divergence.threshold: 1.0000000000000001e-05 -> "
    assert golden.compare_trees(old, loose).regressions == [moved + "0.0001"]
    assert golden.compare_trees(old, loose).summary == [
        moved + "0.0001 (+9.00e+00) (gate loosened)",
        "5 files in 2 directories: 1 differ",
    ]
    assert golden.compare_trees(loose, old).regressions == []
    added = _tree(tmp_path / "added", "2.5e-06", "true", "-0.5", "0\n")
    with open(added / "volume-seed5" / "volume_00" / "report.txt", "a") as fh:
        fh.write("    f_threshold: 1.0000000000000001e-09\n")
    assert golden.compare_trees(old, added).regressions == []
