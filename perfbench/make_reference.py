"""Regenerate sweep_reference.json, the stored rows the sweep gate checks.

Run from the repository root:  python3 perfbench/make_reference.py
Only regenerate when the sweep outputs are meant to change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> None:
    out_dir = Path(tempfile.mkdtemp(prefix="ref-", dir=workloads.HERE))
    try:
        reference = workloads.build_reference(out_dir)
    finally:
        shutil.rmtree(out_dir)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
