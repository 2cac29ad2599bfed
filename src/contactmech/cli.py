"""Batch front end: run scenario files, verify diagnostics, debug expressions.

    contactmech run <scenario-file> [--out DIR] [--seed N] [--debug]
    contactmech verify <scenario-file> [--out DIR] [--seed N] [--debug]
    contactmech expr "<expression>" --var q --at VALUE [--debug]

`run` writes the trajectory table, a machine-readable report and one SVG plot
per requested diagnostic; `verify` writes the report only.  Exit status is 0
iff every requested verification passed; failure classes map to distinct
nonzero codes.  With --debug an internal error (exit 6) also prints its
traceback.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from .diagnostics import CHECKS, run_checks
from .dynamics import integrate
from .errors import (ContactMechError, ExpressionError, IntegrationError,
                     NonFiniteError, RiccatiPoleError, ScenarioError,
                     SingularChartError, SingularMeasureError)
from .expressions import parse_expression
from .model import make_state
from .scenario import ScenarioConfig, build_model, parse_scenario
from .svgplot import line_chart

EXIT_PASS = 0
EXIT_DIAG_FAILED = 1
EXIT_BAD_SCENARIO = 2
EXIT_INTEGRATION = 3
EXIT_SINGULARITY = 4
EXIT_IO = 5
EXIT_INTERNAL = 6


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_trajectory(path: str, traj, columns: Dict[str, np.ndarray]):
    """Plain-text TSV: t, q..., p..., S, H, divergence, then extra columns."""
    n = traj.n
    header = (["t"] + [f"q{i + 1}" for i in range(n)] + [f"p{i + 1}" for i in range(n)]
              + ["S", "H", "divergence"] + list(columns))
    table = np.column_stack([traj.times, traj.flat(), traj.H, traj.div, *columns.values()])
    row_format = "\t".join(["%.17g"] * table.shape[1]) + "\n"  # each value as _fmt writes it
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(header) + "\n")
        for row in table.tolist():
            fh.write(row_format % tuple(row))


def write_report(path: str, config: ScenarioConfig, results: List[Dict]):
    ok = all(r["passed"] for r in results)
    lines = [f"scenario: {config.name}",
             f"model: {config.kind}",
             f"status: {'pass' if ok else 'fail'}",
             "diagnostics:"]
    for r in results:
        lines.append(f"  {r['name']}:")
        lines.append(f"    threshold: {_fmt(r['threshold'])}")
        lines.append(f"    observed: {_fmt(r['observed'])}")
        lines.append(f"    pass: {'true' if r['passed'] else 'false'}")
        for key, val in r.get("extra", {}).items():
            lines.append(f"    {key}: {_fmt(val)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_plots(plot_dir: str, results: List[Dict]):
    os.makedirs(plot_dir, exist_ok=True)
    for r in results:
        if not r.get("series"):
            continue
        fname = r["name"].replace(":", "_") + ".svg"
        line_chart(os.path.join(plot_dir, fname), r["name"], "t", r["name"],
                   r["series"])


def run_scenario(config: ScenarioConfig, out_dir: str = ".", seed: int = 0,
                 with_trajectory: bool = True, with_plots: bool = True) -> int:
    """Integrate the scenario, run its diagnostics and write the artifacts."""
    model = build_model(config)
    init = make_state(config.q0, config.p0, config.S0, config.t0)
    traj = integrate(model, init, config.t_end, config.options,
                     tangent=any(CHECKS[token].tangent for token in config.checks))
    results = run_checks(config.checks, model, traj, seed=seed)

    os.makedirs(out_dir, exist_ok=True)
    if with_trajectory:
        columns = {}
        for r in results:
            columns.update(r.get("columns", {}))
        write_trajectory(os.path.join(out_dir, config.trajectory_file), traj, columns)
    write_report(os.path.join(out_dir, config.report_file), config, results)
    if with_plots:
        write_plots(os.path.join(out_dir, config.plot_dir), results)
    return EXIT_PASS if all(r["passed"] for r in results) else EXIT_DIAG_FAILED


def _classify(exc: Exception) -> int:
    if isinstance(exc, (SingularMeasureError, SingularChartError, RiccatiPoleError)):
        return EXIT_SINGULARITY
    if isinstance(exc, (IntegrationError, NonFiniteError, OverflowError)):
        return EXIT_INTEGRATION
    if isinstance(exc, (ScenarioError, ExpressionError)):
        return EXIT_BAD_SCENARIO
    if isinstance(exc, OSError):
        return EXIT_IO
    return EXIT_INTEGRATION if isinstance(exc, ContactMechError) else EXIT_INTERNAL


def _fail(exc: Exception, debug: bool = False) -> int:
    """Print the error to stderr, with the traceback of an internal error under
    `debug`, and return its exit code."""
    code = _classify(exc)
    if debug and code == EXIT_INTERNAL:
        import traceback
        traceback.print_exception(exc, file=sys.stderr)
    prefix = f"internal error: {type(exc).__name__}: " if code == EXIT_INTERNAL else ""
    print(f"error: {prefix}{exc}", file=sys.stderr)
    return code


def _cmd_run(args, with_trajectory: bool, with_plots: bool) -> int:
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        config = parse_scenario(text)
        code = run_scenario(config, out_dir=args.out, seed=args.seed,
                            with_trajectory=with_trajectory, with_plots=with_plots)
    except Exception as exc:  # mapped to exit codes, message to stderr
        return _fail(exc, args.debug)
    status = "pass" if code == EXIT_PASS else "fail"
    print(f"{config.name}: {status}")
    return code


def _cmd_expr(args) -> int:
    try:
        if not math.isfinite(args.at):
            raise ScenarioError("--at: non-finite number")
        expr = parse_expression(args.expression, args.var)
        value = expr(args.at)
        deriv = expr.derivative(args.at)
    except Exception as exc:  # the same exit codes as `run`
        return _fail(exc, args.debug)
    print(f"value: {_fmt(value)}")
    print(f"derivative: {_fmt(deriv)}")
    return EXIT_PASS


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="contactmech",
        description="Contact Hamiltonian mechanics: simulation and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write all artifacts")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--seed", type=int, default=0,
                       help="seed for verification point sets")

    p_verify = sub.add_parser("verify", help="diagnostics only, no trajectory file")
    p_verify.add_argument("scenario")
    p_verify.add_argument("--out", default=".", help="output directory")
    p_verify.add_argument("--seed", type=int, default=0)

    p_expr = sub.add_parser("expr", help="evaluate an expression and its derivative")
    p_expr.add_argument("expression")
    p_expr.add_argument("--var", required=True, help="name of the free variable")
    p_expr.add_argument("--at", type=float, required=True, help="evaluation point")

    for p in (p_run, p_verify, p_expr):
        p.add_argument("--debug", action="store_true",
                       help="print the traceback of an internal error (exit 6)")
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args, with_trajectory=True, with_plots=True)
    if args.command == "verify":
        return _cmd_run(args, with_trajectory=False, with_plots=False)
    return _cmd_expr(args)


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
