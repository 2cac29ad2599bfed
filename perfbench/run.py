"""contactmech benchmark: seeded workloads, end-to-end metrics and per-layer traces.

    python3 perfbench/run.py --workload volume --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no hooks installed.
Times are reported at nominal host speed (see ``measure.normalise``); the
raw wall-clock figures are in the info line.
``--trace 1`` is a separate run that gives the per-layer metrics: the import
breakdown from ``python -X importtime``, then one pass in which every scenario
runs untraced and then traced; the difference is the tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it holds
the environment, sample counts and any failures; both are also written to
``.perfbench_out/results/``.  Exit status is 0 only when every output is correct.
See ``perfbench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPS = 3    # fresh interpreters per set-up measurement; the median is reported
IMPORT_REPS = 3   # fresh interpreters for the -X importtime breakdown


# Nearest-rank percentile reported as scenario_s.tail: the highest percentile
# with at least 10 samples beyond it at the run length the workload gets.
TAIL_PCT: Dict[str, int] = {
    "volume": 75,       # 24 scenarios a pass, so >= 2 passes
    "invariants": 75,   # 24 scenarios a pass, so >= 2 passes
    "cli_cold": 60,     # 5 subprocesses a pass, so >= 5 passes
}


def min_samples(tail_pct: int) -> int:
    """Samples a run needs for 10 of them to lie beyond ``tail_pct``."""
    return math.ceil(10 / (1 - tail_pct / 100.0))


END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"), ("scenario_s.p50", "s"), ("scenario_s.tail", "s"),
    ("scenarios_per_s", "1/s"), ("peak_rss_mb", "MB"), ("verified_frac", "frac"),
    ("accuracy_margin_dec", "dec"),
]

CHECKS = ("energy_conservation", "hamiltonian_decay", "divergence", "measure",
          "invariants", "hj_residual", "transform_verify")

# Per-layer values are per scenario of the traced pass, except import.* (per
# fresh interpreter) and the two ratios.
PER_LAYER: List[Tuple[str, str]] = [
    ("import.total_s", "s"), ("import.scipy_integrate_s", "s"), ("import.numpy_s", "s"),
    ("import.contactmech_s", "s"),
    ("scenario.time_s", "s"),
    ("scenario.parse.calls", "count"), ("scenario.parse.time_s", "s"),
    ("expressions.eval.calls", "count"), ("expressions.eval.time_s", "s"),
    ("model.partials.calls", "count"), ("model.evaluate.calls", "count"),
    ("model.partials.time_s", "s"), ("model.partials.per_sample", "count"),
    ("dynamics.integrate.calls", "count"), ("dynamics.integrate.time_s", "s"),
    ("dynamics.integrate.samples", "count"),
    ("dynamics.det_series.calls", "count"), ("dynamics.det_series.time_s", "s"),
    *((f"diagnostics.{c}.self_s", "s") for c in CHECKS),
    ("oscillator.ermakov.time_s", "s"), ("oscillator.riccati.time_s", "s"),
    ("hamilton_jacobi.hj_residual.calls", "count"), ("hamilton_jacobi.hj_residual.time_s", "s"),
    ("transforms.verify.calls", "count"), ("transforms.verify.points", "count"),
    ("transforms.verify.time_s", "s"),
    ("cli.write.time_s", "s"), ("cli.write.bytes", "bytes"),
    ("tracing.overhead_frac", "frac"),
]


def _jobs(workload: str, seed: int, replay: bool):
    """(jobs, scenario texts) for a workload; cli_cold replays in process when traced."""
    from perfbench import generate, measure
    if workload == "cli_cold":
        shipped = measure.shipped_scenarios()
        make = measure.cli_replay_job if replay else measure.cli_subprocess_job
        return ([make(sc, seed) for sc in shipped],
                [sc.path.read_text(encoding="utf-8") for sc in shipped])
    entries = generate.GENERATORS[workload](seed)
    return [measure.inprocess_job(e) for e in entries], [e.text for e in entries]


def end_to_end(workload: str, seed: int, seconds: int, workdir: Path):
    from perfbench import measure
    tail_pct = TAIL_PCT[workload]
    jobs, texts = _jobs(workload, seed, replay=False)
    setup_raw, setup_refs = measure.setup_times(texts, SETUP_REPS)
    setup = measure.normalise(setup_raw, setup_refs)
    res = measure.closed_loop(jobs, workdir, seed, seconds=seconds,
                              min_samples=min_samples(tail_pct))
    times = measure.scaled(res)
    tail, beyond = measure.nearest_rank(times, tail_pct)
    rss = res.child_rss_mb if workload == "cli_cold" else measure.self_peak_rss_mb()
    values = {
        "setup_s": statistics.median(setup),
        "scenario_s.p50": statistics.median(times),
        "scenario_s.tail": tail,
        "scenarios_per_s": (res.attempted - res.failed) / sum(times),
        "peak_rss_mb": rss,
        "verified_frac": (res.attempted - res.failed) / res.attempted,
        "accuracy_margin_dec": min(res.margins, default=-99.0),  # -99: nothing reported
    }
    details = {
        "samples": {"setup_s": len(setup), "scenario_s.p50": len(times),
                    "scenario_s.tail": len(times), "scenarios_per_s": len(times)},
        "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
        "passes": res.passes, "distinct_scenarios": len(jobs),
        "failed_frac": res.failed / res.attempted,
        "diagnostics_checked": len(res.margins),
        "rss_source": "children (max)" if workload == "cli_cold" else "self",
        "raw_wall": {"setup_s": statistics.median(setup_raw),
                     "scenario_s.p50": statistics.median(res.times),
                     "scenario_s.tail": measure.nearest_rank(res.times, tail_pct)[0],
                     "loop_s": res.wall_s},
        "reference_kernel_s": {"nominal": measure.REFERENCE_S,
                               "median": statistics.median(res.refs + setup_refs),
                               "max": max(res.refs + setup_refs)},
    }
    return values, END_TO_END, res, details


def traced(workload: str, seed: int, workdir: Path):
    from perfbench import measure, tracer as tracing
    imports = measure.import_breakdown(IMPORT_REPS)
    jobs, _ = _jobs(workload, seed, replay=True)
    tr, plain = tracing.Tracer(), measure.LoopResult()
    res = measure.closed_loop(jobs, workdir, seed, seconds=0, min_samples=0, passes=1,
                              tracer=tr, untraced=plain)
    traced_s = sum(measure.scaled(res))
    plain_s = sum(measure.normalise(plain.times, res.refs))
    scale = traced_s / sum(res.times)   # the traced pass at nominal host speed
    n = res.attempted
    times, selfs = tr.layer_time(), tr.self_time()
    values: Dict[str, float] = {}
    for name, _unit in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if name in imports:
            values[name] = imports[name]
        elif name == "model.partials.per_sample":
            samples = tr.counters["dynamics.integrate.samples"]
            values[name] = tr.calls["model.partials"] / samples if samples else 0.0
        elif name == "tracing.overhead_frac":
            values[name] = traced_s / plain_s - 1.0
        elif kind == "calls":
            values[name] = tr.calls[layer] / n
        elif kind == "time_s":
            values[name] = scale * times[layer] / n
        elif kind == "self_s":
            values[name] = scale * selfs[layer] / n
        else:
            values[name] = tr.counters[name] / n
    (measure.OUT / "results").mkdir(parents=True, exist_ok=True)
    spans_path = measure.OUT / "results" / f"spans-{workload}-seed{seed}.jsonl"
    tr.write_spans(str(spans_path))
    res.attempted += plain.attempted
    res.failed += plain.failed
    res.failures = plain.failures + res.failures
    details = {"scenarios_traced": n, "untraced_s": plain_s, "traced_s": traced_s,
               "raw_wall": {"untraced_s": sum(plain.times), "traced_s": sum(res.times)},
               "spans": len(tr.spans), "patched_slots": tr.patched,
               "absent_hooks": tr.absent, "spans_file": str(spans_path.relative_to(ROOT))}
    return values, PER_LAYER, res, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(TAIL_PCT))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "contactmech" / "__init__.py").is_file():
        print(f"perfbench: no contactmech sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import contactmech
    from perfbench import measure
    if Path(contactmech.__file__).resolve().parent != src / "contactmech":
        print(f"perfbench: contactmech imported from {contactmech.__file__}, not {src}",
              file=sys.stderr)
        return 2

    workdir = measure.OUT / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            values, table, res, details = traced(args.workload, args.seed, workdir)
        else:
            values, table, res, details = end_to_end(args.workload, args.seed,
                                                     args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = res.failed == 0 and res.attempted > 0
    result = {"correct": correct, "attempted": res.attempted, "failed": res.failed,
              "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table}}
    info = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "environment": measure.environment(args.seed), **details,
            "failures": res.failures[:20]}
    (measure.OUT / "results").mkdir(parents=True, exist_ok=True)
    out = measure.OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    samples = [list(x) for x in zip(res.names, res.times, res.refs)]
    out.write_text(json.dumps({"info": info, "result": result, "scenario_times": samples},
                              indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
