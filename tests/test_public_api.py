"""The public surface: bad arguments raise package errors, every name in
__all__ resolves, every name and command line the benchmark harness
(perfbench/) uses still exists, and the README's library quick start runs."""

import importlib
import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import optomech
from optomech import (
    DriveConfig,
    InvalidParameter,
    MateConfig,
    MosConfig,
    PortRates,
    classify_branch,
    cooperativity,
    general_spectra,
    homodyne_spectra,
    mate_dispersive_constant,
    mate_exact_decay,
    mate_resonances,
    run_validation,
    two_port_setpoint,
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
    lambda: mate_resonances(MATE, (1.0e7, math.inf)),
    # a grid numpy refuses to allocate
    lambda: mate_resonances(MATE, (1.0e7, 1.0e300)),
    lambda: classify_branch(MATE, math.inf),
    lambda: mate_dispersive_constant(MATE, math.nan),
    lambda: mate_exact_decay(MATE, math.nan),
    lambda: two_port_setpoint(MosConfig(l=1e-4, wavelength=0.85e-6, t=0.0, t_m=0.1, x=0.0)),
    lambda: general_spectra(PortRates(GAMMA, GAMMA), DriveConfig(), 1.0, 1.0, math.nan),
    lambda: general_spectra(PortRates(GAMMA, GAMMA), DriveConfig(), math.nan, 1.0, 0.0),
    lambda: general_spectra(PortRates(GAMMA, GAMMA), DriveConfig(), 0.0, math.inf, 0.0),
    lambda: homodyne_spectra(PortRates(GAMMA, GAMMA), DriveConfig(), math.nan, 1.0),
    lambda: homodyne_spectra(PortRates(0.0, 0.0, 1.0), DriveConfig(a0=1.0), 1.0, 1.0),
], ids=["mate_window", "force_gamma2", "homodyne_delta", "homodyne_symmetry",
        "homodyne_pump", "cooperativity_system", "validation_profile",
        "validation_suite", "mate_window_inf", "mate_window_huge", "classify_inf",
        "mate_slope_nan", "mate_decay_nan", "setpoint_t0", "spectra_theta_nan",
        "spectra_coupling_nan", "spectra_coupling_inf", "homodyne_coupling_nan",
        "homodyne_closed_ports"])
def test_bad_argument_is_a_package_error(call):
    with pytest.raises(InvalidParameter):
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


def test_design_workload_passes_its_gate():
    # the seed-7 designs include infeasible ones (t > t_m)
    workloads = _load("workloads")
    designs = workloads.make_designs(7, 32)
    assert not all(d.feasible for d in designs)
    for d in designs:
        assert workloads.check_design(workloads.evaluate_design(d)) == "", d


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


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks every star-import
    missing = [name for name in optomech.__all__ if not hasattr(optomech, name)]
    assert missing == []
    namespace = {}
    exec("from optomech import *", namespace)
    assert set(optomech.__all__) <= set(namespace)
