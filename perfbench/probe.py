"""Set-up probe: a fresh interpreter imports optomech, builds one workload's
inputs and prints "ready".  run.py times it from launch to that line.

Usage: python3 perfbench/probe.py <workload> <seed> <output dir>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3]))
print("ready", flush=True)
