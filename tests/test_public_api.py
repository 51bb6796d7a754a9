"""The public surface: bad arguments raise package errors, every name
and command line the benchmark harness (perfbench/) uses still exists, and
the README's library quick start runs."""

import importlib
import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from optomech import (
    DriveConfig,
    MateConfig,
    OptomechError,
    PortRates,
    cooperativity,
    general_spectra,
    homodyne_spectra,
    mate_resonances,
    run_validation,
)
from optomech.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

GAMMA = 1.0e8
MATE = MateConfig(l=1e-4, x=1e-6, t=0.014, t_m=0.1, wavelength=0.85e-6, phi_r=math.pi)


@pytest.mark.parametrize("call", [
    lambda: mate_resonances(MATE, (2.0e7, 1.0e7)),
    lambda: general_spectra(PortRates(GAMMA, 0.0), DriveConfig(), 0.0, 2.0, 0.0),
    lambda: homodyne_spectra(PortRates(GAMMA, GAMMA), DriveConfig(delta=1.0), 1.0, 1.0),
    lambda: homodyne_spectra(PortRates(GAMMA, 2 * GAMMA), DriveConfig(), 1.0, 1.0),
    lambda: homodyne_spectra(PortRates(GAMMA, GAMMA), DriveConfig(a0=0.0), 1.0, 1.0),
    lambda: cooperativity("mim", t=0.014, t_m=0.1),
    lambda: run_validation(profile="lenient"),
    lambda: run_validation(suite="ful"),
], ids=["mate_window", "force_gamma2", "homodyne_delta", "homodyne_symmetry",
        "homodyne_pump", "cooperativity_system", "validation_profile",
        "validation_suite"])
def test_bad_argument_is_a_package_error(call):
    with pytest.raises(OptomechError):
        call()


def _load(name: str):
    """Import perfbench/<name>.py by path, as perfbench/run.py imports it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_function_exists():
    for module_name, attr in _load("tracer").MEASURED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


def test_every_sweep_command_line_parses(tmp_path):
    parser = build_parser()
    for _, argv in _load("workloads").sweep_ops(tmp_path):
        parser.parse_args(argv)  # a bad command line raises ConfigError


def test_readme_quick_start_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", blocks[0]], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for name in ("mos.csv", "fig2.csv", "mos.csv.meta", "fig2.csv.meta"):
        assert (tmp_path / name).stat().st_size > 0, name
