"""Golden outputs: a sha256 manifest of every file the reference runs write.

    python tools/golden.py --write [--manifest FILE]
    python tools/golden.py --check [--manifest FILE]

The reference runs are 106 output directories:

* the 5 shipped ``scenarios/*.ini`` at seeds 0 and 3, each through a fresh
  ``python -m contactmech.cli run`` process, with its stdout, stderr and exit
  code recorded next to its outputs (``cli/<name>-seed<s>/``);
* every ``volume`` and ``invariants`` entry of ``perfbench.generate`` at
  seeds 5 and 11, through ``cli.run_scenario`` with trajectory and plots, in
  this process (``<workload>-seed<s>/<entry>/``); an exception's type and
  message are recorded in place of an exit code.

The runs use this checkout's ``src`` and ``perfbench`` and write to a
temporary directory.  ``--write`` records one ``<sha256>  <path>`` line per
file, sorted by path; ``--check`` runs again and lists every file that is
missing, extra or different, exiting 1 if there is one.  The manifest's bits
come from the host's libm, so a manifest is compared only with runs on the
host that wrote it.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_MANIFEST = HERE / "golden.sha256"
CLI_SCENARIOS = ("caldirola_kanai", "conservative_oscillator", "damped_free_particle",
                 "damped_oscillator", "parametric_oscillator")
CLI_SEEDS = (0, 3)
WORKLOADS = ("volume", "invariants")
WORKLOAD_SEEDS = (5, 11)


def run_cli(out: Path):
    """The shipped scenarios through fresh `contactmech run` processes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for name in CLI_SCENARIOS:
        for seed in CLI_SEEDS:
            d = out / "cli" / f"{name}-seed{seed}"
            d.mkdir(parents=True)
            proc = subprocess.run(
                [sys.executable, "-m", "contactmech.cli", "run", f"scenarios/{name}.ini",
                 "--out", str(d), "--seed", str(seed)],
                cwd=ROOT, env=env, capture_output=True)
            (d / "_stdout").write_bytes(proc.stdout)
            (d / "_stderr").write_bytes(proc.stderr)
            (d / "_exit").write_text(f"{proc.returncode}\n")


def run_workloads(out: Path):
    """Every generated volume and invariants entry through `cli.run_scenario`."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record the manifest")
    mode.add_argument("--check", action="store_true", help="compare a fresh run with it")
    parser.add_argument("--manifest", type=Path, default=DEFAULT_MANIFEST)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        run_cli(out)
        run_workloads(out)
        actual = digest(out)
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
