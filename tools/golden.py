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
  place of their method line, as ``test_fixed_rk4_passes_every_shipped_scenario``
  rewrites them, the rewritten scenario recorded as ``_scenario.ini``
  (``fixed/<name>-seed0/``):
  the fixed-step flow of ``damped_parametric``, by its field's emitted
  substep, and the fixed-step tangent, which the volume checks carry, of the
  other two kinds, by the generic ``_rk4`` over ``tangent_rhs``;
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
``_stdout`` files verbatim; then the count of files that differ, and one line
with the largest trajectory change and the largest relative change of a
report value, each with its path.  It exits 1 when a verdict turned from pass to
fail, a ``threshold`` or ``f_threshold`` grew, or an exit code turned from 0
to another (the ``regressions`` of `compare_trees`); an exit code that turned
to 0, or a threshold that shrank or is new, passes.  The bits come from the
host's libm, so a manifest is compared only with runs on the host that wrote
it, and both sides of a comparison run on one host.  Standard library only.
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
from collections import namedtuple
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


def _report_lines(name: str, a: dict, b: dict, changes: dict) -> list:
    """One line per key whose value differs between the reports a and b, with
    the relative change `changes` holds for it."""
    lines = []
    for key in list(a) + [k for k in b if k not in a]:
        x, y = a.get(key), b.get(key)
        if x == y:
            continue
        if x is None or y is None:
            lines.append(f"{name}: {key}: {'added' if x is None else 'removed'} "
                         f"({y if x is None else x})")
            continue
        change = "" if changes[key] is None else f" ({changes[key]:+.2e})"
        flipped = " (verdict flipped)" if key.rsplit(".", 1)[-1] in VERDICTS else ""
        loosened = " (gate loosened)" if _loosened(key, x, y) else ""
        lines.append(f"{name}: {key}: {x} -> {y}{change}{flipped}{loosened}")
    return lines


def _relative(old: str, new: str):
    """(new - old) / |old| of two numeric report values, None if either is not
    a number or old is 0."""
    u, v = _float(old), _float(new)
    return (v - u) / abs(u) if u and v is not None else None


def _loosened(key: str, old: str, new: str) -> bool:
    """Whether a threshold line grew from old to new."""
    u, v = _float(old), _float(new)
    return key.rsplit(".", 1)[-1] in THRESHOLDS and u is not None and v is not None and v > u


def _table(path: Path) -> tuple:
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return header.split("\t"), [[float(x) for x in row.split("\t")] for row in rows]


def _worst_change(header: list, a: list, b: list) -> tuple:
    """(change, column, row) of the largest change between the rows a and b of
    one table, scaled by that column's largest magnitude."""
    worst = (0.0, "", 0)
    for j, col in enumerate(header):
        scale = max(abs(row[j]) for rows in (a, b) for row in rows) or 1.0
        for i, (x, y) in enumerate(zip(a, b)):
            moved = abs(y[j] - x[j]) / scale if x[j] != y[j] else 0.0
            if moved != moved or moved > worst[0]:  # a NaN on one side is the worst
                worst = (moved, col, i)
    return worst


def _larger(best, change: float) -> bool:
    """Whether change replaces best, a (change, where) pair or None: it is larger
    in magnitude, or NaN, which is the worst."""
    return best is None or change != change or abs(change) > abs(best[0])


Comparison = namedtuple("Comparison", "summary magnitudes regressions")


def compare_trees(old: Path, new: Path) -> Comparison:
    """What moved between the output trees old and new, from one walk of the
    files that differ.  ``summary``: one line per moved report line or
    trajectory, verbatim for `VERBATIM` files, and a count.  ``magnitudes``: one
    line, the largest trajectory change scaled by its column's maximum and the
    largest relative change of a numeric report value, each with its path
    ("none" if nothing moved).  ``regressions``: the verdicts that turned from
    pass to fail, the thresholds that grew, and the ``_exit`` files that turned
    from 0 to anything else."""
    a, b = digest(old), digest(new)
    lines, worse = [], []
    trajectory = report = None
    for name in sorted(set(a) | set(b)):
        if name not in b or name not in a:
            lines.append(f"{'missing in NEW' if name not in b else 'only in NEW'}: {name}")
        elif a[name] == b[name]:
            continue
        elif name.endswith(".txt"):
            x, y = _report(old / name), _report(new / name)
            changes = {key: _relative(x[key], y.get(key, "")) for key in x}
            lines += _report_lines(name, x, y, changes)
            for key, change in changes.items():
                if change is not None and _larger(report, change):
                    report = (change, f"{name}: {key}")
            worse += [f"{name}: {key}: {x[key]} -> {y[key]}" for key in x if key in y and (
                (key.rsplit(".", 1)[-1] in VERDICTS and x[key] in PASSING
                 and y[key] not in PASSING) or _loosened(key, x[key], y[key]))]
        elif name.endswith(".tsv"):
            (ha, x), (hb, y) = _table(old / name), _table(new / name)
            if ha != hb or len(x) != len(y):
                lines.append(f"{name}: columns or rows changed: {len(ha)}x{len(x)} -> "
                             f"{len(hb)}x{len(y)}")
                continue
            worst = _worst_change(ha, x, y)
            lines.append(f"{name}: moved, largest change {worst[0]:.3g} of column "
                         f"{worst[1]}'s maximum (row {worst[2]})")
            if _larger(trajectory, worst[0]):
                trajectory = (worst[0], f"{name}, column {worst[1]}")
        elif name.rsplit("/", 1)[-1] in VERBATIM:
            x, y = ((tree / name).read_text(encoding="utf-8") for tree in (old, new))
            lines.append(f"{name}:")
            lines += [f"  {tag} {line}" for tag, text in (("-", x), ("+", y))
                      for line in text.splitlines()]
            if name.rsplit("/", 1)[-1] == "_exit" and x.strip() == "0" != y.strip():
                worse.append(f"{name}: 0 -> {y.strip()}")
        else:
            lines.append(f"differs: {name}")
    moved = sum(a.get(name) != b.get(name) for name in set(a) | set(b))
    dirs = {"/".join(name.split("/")[:2]) for name in set(a) | set(b)}
    lines.append(f"{len(set(a) | set(b))} files in {len(dirs)} directories: "
                 f"{f'{moved} differ' if moved else 'identical'}")
    magnitudes = ("largest change: trajectory "
                  + (f"{trajectory[0]:.3g} of its column's maximum ({trajectory[1]})"
                     if trajectory else "none")
                  + "; report value " + (f"{report[0]:+.2e} relative ({report[1]})"
                                         if report else "none"))
    return Comparison(lines, magnitudes, worse)


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
            summary, magnitudes, worse = compare_trees(*outs)
            print("\n".join(summary))
            print(magnitudes)
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
