"""Golden outputs: a sha256 manifest of every file the reference runs write,
and a comparison of the reference runs of two revisions.

    python tools/golden.py --write [--manifest FILE]
    python tools/golden.py --check [--manifest FILE]
    python tools/golden.py --compare OLD NEW

The reference runs are 111 output directories:

* the 5 shipped ``scenarios/*.ini`` at seeds 0 and 3, each through a fresh
  ``python -m contactmech.cli run`` process, with its stdout, stderr and exit
  code recorded next to its outputs (``cli/<name>-seed<s>/``);
* the same 5 at seed 0 with ``method = fixed_rk4`` and ``step = 0.002`` in
  place of their method line, as CI's runtime-only job rewrites them, the
  rewritten scenario recorded as ``_scenario.ini`` (``fixed/<name>-seed0/``):
  the fixed-step flow of ``damped_parametric`` and the fixed-step tangent,
  which the volume checks carry, of the other two kinds;
* every ``volume`` and ``invariants`` entry of ``perfbench.generate`` at
  seeds 5 and 11, through ``cli.run_scenario`` with trajectory and plots, in
  one process (``<workload>-seed<s>/<entry>/``); an exception's type and
  message are recorded in place of an exit code.

A tree's runs use its ``src`` and ``scenarios``, and this checkout's
``perfbench.generate``; they run in a child process and write to a temporary
directory.  ``--write`` records one ``<sha256>  <path>`` line per file of this
checkout's runs, sorted by path; ``--check`` runs again and lists every file
that is missing, extra or different, exiting 1 if there is one.
``--compare`` unpacks the two git revisions with ``git archive``, runs each,
and summarises what moved: each report line that differs with its old and new
value, their relative change, any verdict that flipped and any threshold that
grew (a gate loosened); for each trajectory that moved, its largest change
scaled by that column's largest magnitude; changed ``_exit``, ``_stderr`` and
``_stdout`` files verbatim.  It exits 1 when a verdict turned from pass to
fail, a ``threshold`` or ``f_threshold`` grew, or an exit code turned from 0
to another (`regressions`); an exit code that turned to 0, or a threshold that
shrank or is new, passes.  The bits come from the host's libm, so a manifest
is compared only with runs on the host that wrote it, and both sides of a
comparison run on one host.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_MANIFEST = HERE / "golden.sha256"
CLI_SCENARIOS = ("caldirola_kanai", "conservative_oscillator", "damped_free_particle",
                 "damped_oscillator", "parametric_oscillator")
CLI_SEEDS = (0, 3)
FIXED_STEP = "method = fixed_rk4\nstep = 0.002\n"  # in place of a scenario's method line
WORKLOADS = ("volume", "invariants")
WORKLOAD_SEEDS = (5, 11)
VERBATIM = ("_exit", "_stderr", "_stdout")
VERDICTS = ("pass", "status")  # report keys whose value is a verdict
PASSING = ("true", "pass")      # the values of a passing verdict
THRESHOLDS = ("threshold", "f_threshold")  # report keys whose value bounds a verdict


def _cli_run(tree: Path, d: Path, scenario: str, seed: int, cwd: Path):
    """One `contactmech run` of scenario, a path from cwd, into d, a fresh
    process, with its stdout, stderr and exit code recorded next to its outputs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tree / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "contactmech.cli", "run", scenario, "--out", str(d),
         "--seed", str(seed)], cwd=cwd, env=env, capture_output=True)
    (d / "_stdout").write_bytes(proc.stdout)
    (d / "_stderr").write_bytes(proc.stderr)
    (d / "_exit").write_text(f"{proc.returncode}\n")


def run_cli(tree: Path, out: Path):
    """The shipped scenarios through fresh `contactmech run` processes."""
    for name in CLI_SCENARIOS:
        for seed in CLI_SEEDS:
            d = out / "cli" / f"{name}-seed{seed}"
            d.mkdir(parents=True)
            _cli_run(tree, d, f"scenarios/{name}.ini", seed, tree)


def run_fixed(tree: Path, out: Path):
    """The shipped scenarios with fixed RK4 steps, at seed 0, through fresh
    `contactmech run` processes."""
    for name in CLI_SCENARIOS:
        d = out / "fixed" / f"{name}-seed0"
        d.mkdir(parents=True)
        text = (tree / "scenarios" / f"{name}.ini").read_text(encoding="utf-8")
        fixed = "".join(FIXED_STEP if line.startswith("method = ") else line
                        for line in text.splitlines(keepends=True))
        if fixed == text:
            raise ValueError(f"scenarios/{name}.ini has no method line")
        (d / "_scenario.ini").write_text(fixed, encoding="utf-8")
        _cli_run(tree, d, "_scenario.ini", 0, d)


def run_workloads(tree: Path, out: Path):
    """Every generated volume and invariants entry through `cli.run_scenario`."""
    sys.path[:0] = [str(tree / "src"), str(ROOT)]
    from contactmech import cli, scenario
    from perfbench import generate
    for workload in WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            for entry in generate.GENERATORS[workload](seed):
                d = out / f"{workload}-seed{seed}" / entry.name
                try:
                    code = cli.run_scenario(scenario.parse_scenario(entry.text),
                                            out_dir=str(d), seed=entry.seed)
                    result = f"{code}\n"
                except Exception as exc:  # recorded, so a changed failure shows
                    result = f"{type(exc).__name__}: {exc}\n"
                d.mkdir(parents=True, exist_ok=True)
                (d / "_exit").write_text(result)


def run(tree: Path, out: Path):
    """The reference runs of the package in tree/src, into out, in a child process."""
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--run", str(tree), str(out)],
                   check=True)


def unpack(rev: str, into: Path) -> Path:
    """The files of git revision rev, as `git archive` gives them, under into."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into


def digest(out: Path) -> dict:
    """sha256 of every file under out, keyed by its /-separated relative path."""
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def read_manifest(path: Path) -> dict:
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        sha, name = line.split("  ", 1)
        entries[name] = sha
    return entries


def compare(expected: dict, actual: dict) -> list:
    """One line per path that is missing, extra or different."""
    lines = []
    for name in sorted(set(expected) | set(actual)):
        if name not in actual:
            lines.append(f"missing: {name}")
        elif name not in expected:
            lines.append(f"extra: {name}")
        elif expected[name] != actual[name]:
            lines.append(f"differs: {name}")
    return lines


def _report(path: Path) -> dict:
    """{dotted key: value} of a report's ``key: value`` lines, keyed by their
    nesting; the top-level ``diagnostics`` is left out of the key."""
    keys, stack = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.strip().partition(":")
        depth = len(line) - len(line.lstrip())
        stack = [(d, k) for d, k in stack if d < depth] + [(depth, key)]
        keys[".".join(k for _, k in stack if k != "diagnostics")] = value.strip()
    return keys


def _float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _report_lines(name: str, old: Path, new: Path) -> list:
    a, b = _report(old), _report(new)
    lines = []
    for key in list(a) + [k for k in b if k not in a]:
        x, y = a.get(key), b.get(key)
        if x == y:
            continue
        if x is None or y is None:
            lines.append(f"{name}: {key}: {'added' if x is None else 'removed'} "
                         f"({y if x is None else x})")
            continue
        u, v = _float(x), _float(y)
        change = f" ({(v - u) / abs(u):+.2e})" if u and v is not None else ""
        flipped = " (verdict flipped)" if key.rsplit(".", 1)[-1] in VERDICTS else ""
        loosened = " (gate loosened)" if _loosened(key, x, y) else ""
        lines.append(f"{name}: {key}: {x} -> {y}{change}{flipped}{loosened}")
    return lines


def _loosened(key: str, old: str, new: str) -> bool:
    """Whether a threshold line grew from old to new."""
    u, v = _float(old), _float(new)
    return key.rsplit(".", 1)[-1] in THRESHOLDS and u is not None and v is not None and v > u


def _table(path: Path) -> tuple:
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return header.split("\t"), [[float(x) for x in row.split("\t")] for row in rows]


def _trajectory_line(name: str, old: Path, new: Path) -> str:
    """The largest change of one column, scaled by that column's largest magnitude."""
    (ha, a), (hb, b) = _table(old), _table(new)
    if ha != hb or len(a) != len(b):
        return f"{name}: columns or rows changed: {len(ha)}x{len(a)} -> {len(hb)}x{len(b)}"
    worst = (0.0, "", 0)
    for j, col in enumerate(ha):
        scale = max(abs(row[j]) for rows in (a, b) for row in rows) or 1.0
        for i, (x, y) in enumerate(zip(a, b)):
            moved = abs(y[j] - x[j]) / scale if x[j] != y[j] else 0.0
            if moved != moved or moved > worst[0]:  # a NaN on one side is the worst
                worst = (moved, col, i)
    return f"{name}: moved, largest change {worst[0]:.3g} of column {worst[1]}'s " \
           f"maximum (row {worst[2]})"


def summarize(old: Path, new: Path) -> list:
    """What differs between the output trees old and new, one line per moved
    report line or trajectory, verbatim for `VERBATIM` files, and a count."""
    a, b = digest(old), digest(new)
    lines = []
    for name in sorted(set(a) | set(b)):
        if name not in b or name not in a:
            lines.append(f"{'missing in NEW' if name not in b else 'only in NEW'}: {name}")
        elif a[name] == b[name]:
            continue
        elif name.endswith(".txt"):
            lines += _report_lines(name, old / name, new / name)
        elif name.endswith(".tsv"):
            lines.append(_trajectory_line(name, old / name, new / name))
        elif name.rsplit("/", 1)[-1] in VERBATIM:
            lines.append(f"{name}:")
            for tag, tree in (("-", old), ("+", new)):
                lines += [f"  {tag} {line}" for line in
                          (tree / name).read_text(encoding="utf-8").splitlines()]
        else:
            lines.append(f"differs: {name}")
    moved = sum(a.get(name) != b.get(name) for name in set(a) | set(b))
    dirs = {"/".join(name.split("/")[:2]) for name in set(a) | set(b)}
    lines.append(f"{len(set(a) | set(b))} files in {len(dirs)} directories: "
                 f"{f'{moved} differ' if moved else 'identical'}")
    return lines


def regressions(old: Path, new: Path) -> list:
    """The verdicts that turned from pass to fail, the thresholds that grew, and
    the ``_exit`` files that turned from 0 to anything else, between the output
    trees old and new."""
    lines = []
    for path in sorted(old.rglob("*")):
        name = path.relative_to(old).as_posix()
        if not (new / name).is_file():
            continue
        if name.endswith(".txt"):
            a, b = _report(old / name), _report(new / name)
            lines += [f"{name}: {key}: {a[key]} -> {b[key]}" for key in a if key in b and (
                (key.rsplit(".", 1)[-1] in VERDICTS and a[key] in PASSING
                 and b[key] not in PASSING) or _loosened(key, a[key], b[key]))]
        elif name.rsplit("/", 1)[-1] == "_exit":
            a, b = ((tree / name).read_text(encoding="utf-8").strip() for tree in (old, new))
            if a == "0" != b:
                lines.append(f"{name}: 0 -> {b}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record the manifest")
    mode.add_argument("--check", action="store_true", help="compare a fresh run with it")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                      help="run two git revisions and summarise what moved")
    mode.add_argument("--run", nargs=2, type=Path, help=argparse.SUPPRESS)  # TREE OUT
    parser.add_argument("--manifest", type=Path, default=DEFAULT_MANIFEST)
    args = parser.parse_args(argv)
    if args.run:
        run_cli(*args.run)
        run_fixed(*args.run)
        run_workloads(*args.run)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if args.compare:
            outs = []
            for side, rev in zip(("old", "new"), args.compare):
                run(unpack(rev, tmp / f"{side}-tree"), tmp / side)
                outs.append(tmp / side)
            print(f"tools/golden.py --compare {' '.join(args.compare)}")
            print("\n".join(summarize(*outs)))
            worse = regressions(*outs)
            if worse:
                print(f"{len(worse)} passing verdicts or exit codes 0 now fail, "
                      f"or thresholds grew:")
                print("\n".join(f"  {line}" for line in worse))
            return 1 if worse else 0
        run(ROOT, tmp / "out")
        actual = digest(tmp / "out")
    dirs = {"/".join(name.split("/")[:2]) for name in actual}
    if args.write:
        args.manifest.write_text("".join(f"{sha}  {name}\n" for name, sha in actual.items()),
                                 encoding="utf-8")
        print(f"wrote {len(actual)} files in {len(dirs)} directories to {args.manifest}")
        return 0
    problems = compare(read_manifest(args.manifest), actual)
    for line in problems:
        print(line)
    print(f"{len(actual)} files in {len(dirs)} directories: "
          f"{'identical' if not problems else f'{len(problems)} differ'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
