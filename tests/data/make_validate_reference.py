"""Write validate_reference.json: every check of fast/full x default/strict
at seeds 20240817 and 7, with measured and tolerance as float.hex, as
test_checks_equal_the_recorded_reference compares them.

Run from the repository root, only when a change is meant to move a
check's measured value:

    PYTHONPATH=src python tests/data/make_validate_reference.py
"""

import json
from pathlib import Path

from optomech import run_validation

runs = []
for suite in ("fast", "full"):
    for profile in ("default", "strict"):
        for seed in (20240817, 7):
            report = run_validation(suite, profile, seed=seed)
            runs.append({"suite": suite, "profile": profile, "seed": seed, "checks": [
                {"name": c.name, "passed": c.passed, "measured": float.hex(c.measured),
                 "tolerance": float.hex(c.tolerance), "detail": c.detail}
                for c in report.checks]})
path = Path(__file__).with_name("validate_reference.json")
path.write_text(json.dumps(runs, indent=1) + "\n")
