"""Tests of the benchmark's own machinery: generator, tracer and loop accounting."""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _p in (str(ROOT / "src"), str(ROOT)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from contactmech import cli, diagnostics, dynamics  # noqa: E402
from contactmech.scenario import parse_scenario  # noqa: E402
from perfbench import generate, measure, run, tracer as tracing  # noqa: E402


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

def test_same_seed_gives_byte_identical_scenarios():
    for gen in generate.GENERATORS.values():
        a, b, c = gen(7), gen(7), gen(8)
        assert [(e.text, e.seed) for e in a] == [(e.text, e.seed) for e in b]
        assert all(x.text != y.text for x, y in zip(a, c))
        assert len(a) == generate.BATCH == len({e.name for e in a})


def test_generated_scenarios_parse_and_request_their_checks():
    for gen in generate.GENERATORS.values():
        for entry in gen(3):
            assert parse_scenario(entry.text).checks == entry.checks


def test_each_seed_uses_every_stratum_once():
    lo, hi, _ = generate.VOLUME_RANGES["t_end"]
    width = (hi - lo) / generate.BATCH
    for seed in (0, 1):
        t_ends = [float(parse_scenario(e.text).t_end) for e in generate.volume(seed)]
        strata = sorted(int((t - lo) / width) for t in t_ends)
        assert strata == list(range(generate.BATCH))


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def _snapshot(package="contactmech"):
    """Every module-level slot, class attribute and dict/list entry of a package."""
    snap = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for key, val in vars(mod).items():
            if key == "__builtins__":
                continue
            snap[(modname, key)] = val
            if isinstance(val, type):
                snap.update({(modname, key, a): v for a, v in vars(val).items()})
            elif isinstance(val, dict):
                snap.update({(modname, key, "[]", k): v for k, v in val.items()})
            elif isinstance(val, list):
                snap.update({(modname, key, "[]", i): v for i, v in enumerate(val)})
    return snap


def test_tracer_patches_where_callers_look_up_and_restores_everything():
    before = _snapshot()
    with tracing.Tracer() as tr:
        assert cli.integrate is not before[("contactmech.cli", "integrate")]
        assert diagnostics.hj_residual is not before[("contactmech.diagnostics", "hj_residual")]
        assert dynamics.integrate is cli.integrate
        assert tr.absent == []
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k, v in before.items() if after[k] is not v]
    assert changed == []


def _fake_package():
    core = types.ModuleType("pbfake.core")
    user = types.ModuleType("pbfake.user")

    def work(x):
        return 2 * x

    class Model:
        def value(self, x):
            return x + 1

    core.work, core.Model = work, Model
    user.work, user.TABLE, user.LIST = work, {"w": work}, [work]
    return core, user, work, Model


def test_tracer_patches_tables_and_methods_then_restores_them(monkeypatch):
    core, user, work, Model = _fake_package()
    monkeypatch.setitem(sys.modules, "pbfake", types.ModuleType("pbfake"))
    monkeypatch.setitem(sys.modules, "pbfake.core", core)
    monkeypatch.setitem(sys.modules, "pbfake.user", user)
    method = Model.__dict__["value"]
    hooks = [tracing.Hook("fake.work", "pbfake.core", "work"),
             tracing.Hook("fake.value", "pbfake.core", "Model.value", tracing.HOT),
             tracing.Hook("fake.gone", "pbfake.core", "no_such_function"),
             tracing.Hook("fake.gone", "pbfake.missing", "work")]
    tr = tracing.Tracer(hooks, package="pbfake")
    for _ in range(2):  # entered once per scenario; counts accumulate
        with tr:
            assert user.TABLE["w"](1) == 2 and user.LIST[0](2) == 4 and user.work(3) == 6
            assert Model().value(1) == 2
            assert tr.patched == 5
        assert (core.work, user.work, user.TABLE["w"], user.LIST[0]) == (work,) * 4
        assert Model.__dict__["value"] is method
    assert tr.calls["fake.work"] == 6 and tr.calls["fake.value"] == 2
    assert tr.calls["fake.gone"] == 0 and len(tr.absent) == 2
    assert [s[0] for s in tr.spans] == ["fake.work"] * 6


def test_absent_contactmech_hook_is_recorded_not_fatal():
    hooks = [tracing.Hook("gone", "contactmech.dynamics", "no_such_function")]
    with tracing.Tracer(hooks) as tr:
        pass
    assert tr.absent == ["contactmech.dynamics.no_such_function"]
    assert tr.calls["gone"] == 0


def test_self_time_subtracts_the_union_of_child_spans():
    assert tracing.covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    assert tracing.covered(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == 2.0
    assert tracing.covered(0.0, 10.0, []) == 0.0
    tr = tracing.Tracer(hooks=())
    tr.spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 3.0, 0, 0], ["b", 2.0, 5.0, 0, 0],
                ["c", 3.5, 4.0, 2, 0], ["a", 6.0, 7.0, 0, 0]]
    selfs, times = tr.self_time(), tr.layer_time()
    assert selfs["a"] == (10.0 - 5.0) + 1.0  # children of the outer "a" cover [1, 5] and [6, 7]
    assert selfs["b"] == 2.0 + 2.5 and selfs["c"] == 0.5
    assert times["a"] == 10.0  # the nested "a" span is inside the outer one
    assert times["b"] == 5.0


# ---------------------------------------------------------------------------
# Loop accounting and output checks
# ---------------------------------------------------------------------------

def _text(gamma, q, p, checks, t_end="0.5"):
    return (f"[model]\nkind = linear_dissipation\nm = 1\ngamma = {gamma}\nV = q^2/2\n"
            f"[initial]\nq = {q}\np = {p}\nS = 0\n[integration]\nrel_tol = 1e-10\n"
            f"abs_tol = 1e-13\nsample_interval = 0.05\nt_end = {t_end}\n"
            f"[diagnostics]\nchecks = {checks}\n")


def test_failed_frac_counts_failing_scenarios(tmp_path):
    entries = [
        generate.Entry("good", _text(0, 1, 0, "energy_conservation"),
                       ("energy_conservation",), 1),
        # H = 0.1 S with q = p = S = 0 stays 0, so the measure check raises
        generate.Entry("h_zero", _text(0.1, 0, 0, "measure"), ("measure",), 1),
        # energy is not conserved under damping: the report says pass: false
        generate.Entry("damped", _text(0.5, 1, 0, "energy_conservation"),
                       ("energy_conservation",), 1),
    ]
    jobs = [measure.inprocess_job(e) for e in entries]
    res = measure.closed_loop(jobs, tmp_path, 0, seconds=0, min_samples=0, passes=2)
    assert (res.attempted, res.failed, res.passes) == (6, 4, 2)
    assert sorted(f.split(":")[0] for f in res.failures) == ["damped"] * 2 + ["h_zero"] * 2
    assert len(res.times) == 6 and all(t > 0 for t in res.times)


def test_report_margins_floor_exact_zeros():
    diags = [{"name": "a", "threshold": "1e-08", "observed": "0", "pass": "true"},
             {"name": "b", "threshold": "1.0000000000000001e-05", "observed": "1e-07",
              "pass": "true", "f_deviation": "1e-12", "f_threshold": "1e-09"}]
    margins = measure.report_margins(diags)
    assert margins[0] == math.log10(1e-8 / measure.OBSERVED_FLOOR)
    assert [round(m, 9) for m in margins[1:]] == [2.0, 3.0]


def test_parse_importtime_breakdown():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |       1000 | site",
        "import time:      2000 |     100000 |     numpy",
        "import time:       500 |     400000 |       scipy.integrate",
        "import time:      3000 |     600000 |   contactmech.dynamics",
        "import time:      1000 |     601000 | contactmech",
    ])
    out = measure.parse_importtime(stderr)
    assert out == pytest.approx({"import.total_s": 0.0075, "import.numpy_s": 0.1,
                                 "import.scipy_integrate_s": 0.4,
                                 "import.contactmech_s": 0.004})


def test_normalise_scales_by_the_median_of_nearby_reference_timings():
    ref = measure.REFERENCE_S
    assert measure.normalise([1.0, 2.0], [ref, ref]) == [1.0, 2.0]
    # the host ran at half speed throughout, apart from one stray reference timing
    refs = [2 * ref] * 9
    refs[4] = 10 * ref
    assert measure.normalise([2.0] * 9, refs) == [1.0] * 9


def test_nearest_rank_tail_leaves_ten_samples_beyond():
    values = list(range(1, 26))
    assert measure.nearest_rank(values, run.TAIL_PCT["cli_cold"]) == (15, 10)
    for pct in run.TAIL_PCT.values():
        assert measure.nearest_rank(list(range(run.min_samples(pct))), pct)[1] >= 10


# ---------------------------------------------------------------------------
# Contract
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.TAIL_PCT)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]


def test_every_traced_layer_metric_has_a_hook():
    hooked = {h.layer for h in tracing.CONTACTMECH_HOOKS} | {tracing.ROOT_LAYER}
    for name, _unit in run.PER_LAYER:
        layer = name.rpartition(".")[0]
        if not name.startswith(("import.", "tracing.")) and name != "model.partials.per_sample":
            assert layer in hooked, name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "volume",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
