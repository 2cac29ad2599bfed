"""The batch front end: scenario files, diagnostics, reports and plots.

Scenario files are strict INI-style fixtures selecting a built-in model (with
expression-valued parameters), an initial state, integrator options and a
diagnostic list.  `contactmech run` writes a trajectory table, a key-value
report and one SVG per diagnostic; `contactmech verify` writes the report
only; `contactmech expr` debugs expressions.  Exit status 0 means every
requested verification passed.

Run:  python3 demos/05_scenarios.py
"""

import os
import tempfile

from contactmech import cli

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

with tempfile.TemporaryDirectory() as tmp:
    for name in sorted(os.listdir(SCENARIOS)):
        if not name.endswith(".ini"):
            continue
        out = os.path.join(tmp, name[:-4])
        code = cli.main(["run", os.path.join(SCENARIOS, name), "--out", out])
        print(f"  -> exit {code}; artifacts: {sorted(os.listdir(out))}")

    print()
    print("a report, verbatim:")
    print()
    with open(os.path.join(tmp, "damped_oscillator", "report.txt")) as report:
        print(report.read())

print("expression debugging:")
cli.main(["expr", "1 + 0.1*sin(0.3*t)", "--var", "t", "--at", "0"])
