"""Measurement loops, output verification, host-speed normalisation, environment.

Every loop is closed with one client: the next scenario starts when the
previous one has returned.  Only the call into the program is timed; reading
and checking its outputs happens outside the timed region.

The host these numbers come from is shared, and its speed drifts by up to 60%
over minutes (other tenants).  So a fixed pure-Python reference kernel is
timed right before every measurement, and each time is also reported scaled
to a nominal host speed: ``t * REFERENCE_S / r``, with ``r`` the median of
the nearest reference timings.  On a 2-core Xeon VM this cut the spread of
whole-pass times from 17% to 4% (coefficient of variation over 20 passes).
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench.tracer import ROOT_LAYER

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 120.0   # one scenario subprocess; a hung child is killed
OBSERVED_FLOOR = 1e-300   # keeps log10(threshold / observed) finite for exact zeros
OBSERVED_CEIL = 1e300     # ... and for inf or nan, which count as the worst margin
REFERENCE_S = 0.012       # reference kernel time on a quiet host of that VM type
REFERENCE_WINDOW = 5      # reference timings whose median scales one measurement
CLI_SCENARIOS = ("caldirola_kanai", "conservative_oscillator", "damped_free_particle",
                 "damped_oscillator", "parametric_oscillator")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

def reference_kernel() -> float:
    """Seconds taken by a fixed pure-Python workload, the host-speed probe.

    Pure Python tracks the program's slow-downs closely; a NumPy-heavy probe
    over-reacts to contention, so it is not used.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    return perf_counter() - t0


def normalise(times: Sequence[float], refs: Sequence[float]) -> List[float]:
    """Each ``times[i]`` scaled by REFERENCE_S over the median of the
    REFERENCE_WINDOW reference timings nearest to it (``refs[i]`` was taken
    right before ``times[i]``)."""
    half = REFERENCE_WINDOW // 2
    out = []
    for i, t in enumerate(times):
        lo = max(0, min(i - half, len(refs) - REFERENCE_WINDOW))
        out.append(t * REFERENCE_S / statistics.median(refs[lo:lo + REFERENCE_WINDOW]))
    return out


# ---------------------------------------------------------------------------
# Output verification
# ---------------------------------------------------------------------------

def parse_report(text: str) -> Tuple[str, List[Dict]]:
    """(status, diagnostics) from report.txt; each diagnostic is a dict of its fields.

    Only the ``diagnostics:`` section is read, so top-level lines added later
    (counters, for example) do not disturb it.
    """
    status, diags, in_diags = "", [], False
    for line in text.splitlines():
        if not line.startswith(" "):
            in_diags = line == "diagnostics:"
            if line.startswith("status: "):
                status = line[len("status: "):]
        elif in_diags and not line.startswith("    ") and line.endswith(":"):
            diags.append({"name": line.strip()[:-1]})
        elif in_diags and diags:
            key, _, val = line.strip().partition(": ")
            diags[-1][key] = val
    return status, diags


def _margin(threshold: str, observed: str) -> float:
    obs = abs(float(observed))
    obs = OBSERVED_CEIL if math.isnan(obs) else min(max(obs, OBSERVED_FLOOR), OBSERVED_CEIL)
    return math.log10(float(threshold) / obs)


def report_margins(diags: Sequence[Dict]) -> List[float]:
    """log10(threshold / observed) for every threshold the report states."""
    return [_margin(d[thr], d[obs]) for d in diags
            for thr, obs in (("threshold", "observed"), ("f_threshold", "f_deviation"))
            if thr in d and obs in d]


def verify_outputs(out_dir: Path, checks: Sequence[str],
                   trajectory_rows: Optional[int]) -> Tuple[List[str], List[float]]:
    """(problems, margins) for one scenario's output directory.

    The report must list exactly the requested checks, in order, each with
    ``pass: true``.  When ``trajectory_rows`` is given the run also wrote the
    trajectory (that many data rows, all finite) and one SVG per check.
    """
    problems: List[str] = []
    report = out_dir / "report.txt"
    if not report.is_file():
        return ["no report.txt"], []
    status, diags = parse_report(report.read_text(encoding="utf-8"))
    names = tuple(d["name"] for d in diags)
    if names != tuple(checks):
        problems.append(f"report lists {names}, expected {tuple(checks)}")
    if status != "pass":
        problems.append(f"status {status!r}")
    problems += [f"{d['name']}: pass {d.get('pass')}" for d in diags if d.get("pass") != "true"]
    if trajectory_rows is not None:
        problems += _check_trajectory(out_dir / "trajectory.tsv", trajectory_rows)
        plots = sorted(p.name for p in (out_dir / "plots").glob("*.svg"))
        want = sorted(c.replace(":", "_") + ".svg" for c in checks)
        if plots != want:
            problems.append(f"plots {plots}, expected {want}")
    return problems, report_margins(diags)


def _check_trajectory(path: Path, rows: int) -> List[str]:
    if not path.is_file():
        return ["no trajectory.tsv"]
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != rows + 1:
        return [f"trajectory has {len(lines) - 1} rows, expected {rows}"]
    try:
        finite = all(math.isfinite(float(v)) for ln in lines[1:] for v in ln.split("\t"))
    except ValueError:
        finite = False
    return [] if finite else ["trajectory has non-numeric or non-finite values"]


def digest(out_dir: Path) -> str:
    """sha256 over every output file, keyed by relative path."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Jobs and the closed loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    """One scenario as the loop sees it: how to run it and what it must write."""

    name: str
    checks: Tuple[str, ...]
    # out_dir -> (exit code or None when it raised, message, child peak RSS in MB or None)
    run: Callable[[Path], Tuple[Optional[int], str, Optional[float]]]
    trajectory_rows: Optional[int] = None


@dataclass
class LoopResult:
    times: List[float] = field(default_factory=list)
    names: List[str] = field(default_factory=list)   # the scenario behind each time
    refs: List[float] = field(default_factory=list)   # reference kernel before each time
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    margins: List[float] = field(default_factory=list)
    passes: int = 0
    wall_s: float = 0.0
    child_rss_mb: float = 0.0


def closed_loop(jobs: Sequence[Job], workdir: Path, seed: int, *, seconds: float,
                min_samples: int, passes: Optional[int] = None, tracer=None,
                untraced: Optional[LoopResult] = None, cap_s: float = 100.0) -> LoopResult:
    """Run whole passes over ``jobs`` (each pass in a seeded order).

    Without ``passes``, keeps starting passes until ``seconds`` have elapsed
    and ``min_samples`` scenarios have run, but starts none after ``cap_s``.
    A scenario fails if it raises, exits non-zero, writes a wrong output, or
    writes outputs that differ from its first run in this loop.

    With ``tracer``, the tracer is installed around each scenario.  With
    ``untraced`` as well, each scenario first runs once without it, and that
    run is recorded in ``untraced``; the pair shares one reference timing, so
    their ratio is the tracing overhead with the host's drift cancelled.
    """
    rng = random.Random(f"order:{seed}")
    res = LoopResult()
    first: Dict[str, str] = {}
    start = perf_counter()
    while True:
        order = list(range(len(jobs)))
        rng.shuffle(order)
        for i in order:
            res.refs.append(reference_kernel())
            if untraced is not None:
                _run_one(jobs[i], workdir, untraced, first, None)
            _run_one(jobs[i], workdir, res, first, tracer)
        res.passes += 1
        elapsed = perf_counter() - start
        if passes is not None:
            if res.passes >= passes:
                break
        elif (elapsed >= seconds and res.attempted >= min_samples) or elapsed >= cap_s:
            break
    res.wall_s = perf_counter() - start
    return res


def _run_one(job: Job, workdir: Path, res: LoopResult, first: Dict[str, str], tracer) -> None:
    """Run one scenario, time the call into the program and check its outputs."""
    out = workdir / job.name
    if out.exists():
        shutil.rmtree(out)
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer)
            tracer.scenario_id = res.attempted
            stack.enter_context(tracer.span(ROOT_LAYER))
        t0 = perf_counter()
        code, message, rss = job.run(out)
        res.times.append(perf_counter() - t0)
    res.names.append(job.name)
    res.attempted += 1
    problems, margins = ([] if code == 0 else [f"exit {code}: {message}"]), []
    if out.is_dir():
        more, margins = verify_outputs(out, job.checks, job.trajectory_rows)
        problems += more
        dg = digest(out)
        if first.setdefault(job.name, dg) != dg:
            problems.append("outputs differ from this scenario's first run")
        shutil.rmtree(out)
    elif code == 0:
        problems.append("no output directory")
    res.margins += margins
    if rss is not None:
        res.child_rss_mb = max(res.child_rss_mb, rss)
    if problems:
        res.failed += 1
        res.failures.append(f"{job.name}: {'; '.join(problems)}")


def scaled(res: LoopResult) -> List[float]:
    """The loop's scenario times at nominal host speed."""
    return normalise(res.times, res.refs)


# ---------------------------------------------------------------------------
# Jobs for each kind of run
# ---------------------------------------------------------------------------

def inprocess_job(entry) -> Job:
    """A generated scenario through ``cli.run_scenario`` in verify mode."""
    from contactmech import cli, scenario  # looked up per call, so hooks apply

    def run(out: Path):
        try:
            config = scenario.parse_scenario(entry.text)
            code = cli.run_scenario(config, out_dir=str(out), seed=entry.seed,
                                    with_trajectory=False, with_plots=False)
        except Exception as exc:  # the scenario failed; the loop records why
            return None, f"{type(exc).__name__}: {exc}", None
        return code, "", None
    return Job(entry.name, entry.checks, run)


@dataclass(frozen=True)
class ShippedScenario:
    name: str
    path: Path
    checks: Tuple[str, ...]
    rows: int


def shipped_scenarios() -> List[ShippedScenario]:
    """The five shipped ``scenarios/*.ini``, read with the stdlib parser."""
    out = []
    for name in CLI_SCENARIOS:
        path = ROOT / "scenarios" / f"{name}.ini"
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(path.read_text(encoding="utf-8"))
        t0 = float(cp.get("initial", "t", fallback="0"))
        span = ((float(cp.get("integration", "t_end")) - t0)
                / float(cp.get("integration", "sample_interval", fallback="0.01")))
        raw = cp.get("diagnostics", "checks", fallback="")
        checks = tuple(c.strip() for c in raw.split(",") if c.strip())
        out.append(ShippedScenario(name, path, checks, max(1, math.ceil(span - 1e-12)) + 1))
    return out


def cli_subprocess_job(sc: ShippedScenario, seed: int) -> Job:
    """``contactmech run`` in a fresh interpreter; reports the child's peak RSS."""
    def run(out: Path):
        out.mkdir(parents=True)
        cmd = [sys.executable, "-m", "contactmech.cli", "run", str(sc.path),
               "--out", str(out), "--seed", str(seed)]
        log = out.parent / f"{sc.name}.log"
        with open(log, "wb") as fh:
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                    env=child_env(), cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        message = log.read_text(encoding="utf-8", errors="replace").strip()
        log.unlink()
        return proc.returncode, message, usage.ru_maxrss / 1024.0
    return Job(sc.name, sc.checks, run, sc.rows)


def cli_replay_job(sc: ShippedScenario, seed: int) -> Job:
    """The same command replayed in process through ``cli.main``."""
    from contactmech import cli

    def run(out: Path):
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(["run", str(sc.path), "--out", str(out), "--seed", str(seed)])
        except Exception as exc:  # the scenario failed; the loop records why
            return None, f"{type(exc).__name__}: {exc}", None
        return code, sink.getvalue().strip(), None
    return Job(sc.name, sc.checks, run, sc.rows)


# ---------------------------------------------------------------------------
# Fresh-interpreter measurements
# ---------------------------------------------------------------------------

SETUP_CODE = ("import json, sys\n"
              "from contactmech import cli, scenario\n"
              "for text in json.load(sys.stdin):\n"
              "    scenario.build_model(scenario.parse_scenario(text))\n")


def setup_times(texts: Sequence[str], reps: int) -> Tuple[List[float], List[float]]:
    """(times, reference timings) of fresh interpreters that import the CLI and
    parse ``texts``; each time runs from spawn to exit.  One unmeasured child
    runs first, so that a page cache emptied by other tenants is filled again."""
    payload = json.dumps(list(texts)).encode()
    times, refs = [], []
    for rep in range(reps + 1):
        ref = reference_kernel()
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], input=payload,
                              capture_output=True, env=child_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("set-up child failed: " + proc.stderr.decode(errors="replace"))
        if rep:
            times.append(perf_counter() - t0)
            refs.append(ref)
    return times, refs


IMPORT_KEYS = {"import.numpy_s": "numpy", "import.scipy_integrate_s": "scipy.integrate"}


def parse_importtime(stderr: str) -> Dict[str, float]:
    """import.* seconds from ``python -X importtime`` output.

    total: all self times; numpy and scipy.integrate: their cumulative time
    where first imported (0 when not imported); contactmech: self time of the
    package's own modules.
    """
    out = {"import.total_s": 0.0, "import.contactmech_s": 0.0}
    out.update({k: 0.0 for k in IMPORT_KEYS})
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = float(fields[0]), float(fields[1])
        except ValueError:
            continue  # the header line
        name = fields[2].strip()
        out["import.total_s"] += self_us / 1e6
        if name == "contactmech" or name.startswith("contactmech."):
            out["import.contactmech_s"] += self_us / 1e6
        for key, mod in IMPORT_KEYS.items():
            if name == mod and out[key] == 0.0:
                out[key] = cum_us / 1e6
    return out


def import_breakdown(reps: int) -> Dict[str, float]:
    """Median over ``reps`` fresh interpreters of each ``import.*`` value, at
    nominal host speed."""
    runs, refs = [], []
    for _ in range(reps):
        refs.append(reference_kernel())
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import contactmech.cli"],
                              capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("importtime child failed: " + proc.stderr[-2000:])
        runs.append(parse_importtime(proc.stderr))
    factor = REFERENCE_S / statistics.median(refs)
    return {k: factor * statistics.median(r[k] for r in runs) for k in runs[0]}


# ---------------------------------------------------------------------------
# Statistics and environment
# ---------------------------------------------------------------------------

def nearest_rank(values: Sequence[float], pct: float) -> Tuple[float, int]:
    """(value at the nearest-rank percentile, number of samples above that rank)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def source_digest() -> str:
    """sha256 of src/ (paths and contents), naming the code when no commit is known."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> Dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "commit": _commit(),
            "src_sha256": source_digest(), "seed": seed}
