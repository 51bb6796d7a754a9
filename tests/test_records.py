"""Every dataclass of the package keeps its fields in slots, with no
instance __dict__, except the three tandem configs, whose mirror and
membrane (and a MosConfig's tandem response) are functools.cached_property
values stored in one.  Each one
still pickles, deep-copies and goes through dataclasses.replace to an
equal value with the same repr."""

import ast
import copy
import dataclasses
import importlib
import inspect
import math
import pickle
import pkgutil

import numpy as np
import pytest

import optomech
from optomech import datasets, elements, mate, mos, msi, noise, validation

#: the dataclasses that keep an instance __dict__ for their cached_property values
TANDEM_CONFIGS = {"elements.TandemCavity", "mos.MosConfig", "mate.MateConfig"}

MOS = mos.MosConfig(l=1e-4, wavelength=0.85e-6, t=0.014, t_m=0.1, x=0.0)
MATE = mate.MateConfig(l=1e-4, x=1e-6, t=0.014, t_m=0.1, wavelength=0.85e-6, phi_r=math.pi)
MSI = msi.MsiConfig(r_ms=0.9, l=1e-4, k=MOS.k, Tb_sq=0.48)
RATES = noise.PortRates(1e8, 1e8)


def _mate_root() -> float:
    fsr = math.pi / MATE.l
    return mate.mate_resonances(MATE, (MATE.k - fsr, MATE.k + fsr))[0]


#: one instance of each dataclass, built through the public API where one
#: returns it
SAMPLES = {
    "datasets.FigureDataset": lambda: datasets.run_scan(
        datasets.ScanSpec("mos", "phi_over_phi0", -3.0, 3.0, 7)),
    "datasets.ScanSpec": lambda: datasets.ScanSpec("mos", "x", 0.0, 1e-9, 5, {"t": 0.014}),
    "datasets._Target": lambda: datasets.TARGETS["mos"],
    "datasets.ComparisonTable": lambda: datasets.compare_systems(),
    "elements.ElementSpec": lambda: elements.ElementSpec.membrane(0.1),
    "elements.TandemCavity": lambda: elements.TandemCavity(
        l=1e-4, wavelength=0.85e-6, t=0.014, t_m=0.1, x=1e-6),
    "elements.ScatteringMatrix": lambda: elements.compose_synthetic(
        MOS.mirror, MOS.membrane, 1e-6, MOS.k),
    "elements.SyntheticMirrorResponse": lambda: elements.synthetic_response(
        1.0, MOS.mirror, MOS.membrane),
    "mate.MateConfig": lambda: MATE,
    "mate.MateBranch": lambda: mate.classify_branch(MATE, _mate_root()),
    "mate.MateDispersive": lambda: mate.mate_dispersive_constant(MATE, _mate_root()),
    "mate.MateZeroDispersive": lambda: mate.mate_zero_dispersive(MATE),
    "mate.MateExactDecay": lambda: mate.mate_exact_decay(MATE, MATE.k),
    "mos.MosConfig": lambda: MOS,
    "mos.OperatingPoint": lambda: mos.operating_point(MOS.at_phi(MOS.phi0)),
    "mos.ZeroDispersiveLocus": lambda: mos.zero_dispersive_locus(MOS.t, MOS.t_m),
    "mos.ExactCorrections": lambda: mos.exact_corrections(MOS.at_phi(MOS.phi0)),
    "mos.TwoPortSetpoint": lambda: mos.two_port_setpoint(MOS),
    "msi.MsiConfig": lambda: MSI,
    "msi.EffectiveMirror": lambda: msi.msi_effective_mirror(MSI),
    "msi.MsiCouplings": lambda: msi.msi_couplings(MSI),
    "msi.MsiZeroDispersive": lambda: msi.msi_zero_dispersive(MSI),
    "noise.PortRates": lambda: RATES,
    "noise.DriveConfig": lambda: noise.DriveConfig(omega=1e6, a0=1.0),
    "noise.NoiseReport": lambda: noise.homodyne_spectra(RATES, noise.DriveConfig(a0=1.0),
                                                        1e8, 2e8),
    "validation.ToleranceProfile": lambda: validation.PROFILES["strict"],
    "validation.CheckResult": lambda: validation.run_validation("fast").checks[0],
    "validation.ValidationReport": lambda: validation.run_validation("fast"),
}


def _dataclasses() -> dict[str, type]:
    found = {}
    for info in pkgutil.iter_modules(optomech.__path__):
        module = importlib.import_module(f"optomech.{info.name}")
        for name, value in vars(module).items():
            if (isinstance(value, type) and dataclasses.is_dataclass(value)
                    and value.__module__ == module.__name__):
                found[f"{info.name}.{name}"] = value
    return found


DATACLASSES = _dataclasses()
SLOTTED = sorted(set(DATACLASSES) - TANDEM_CONFIGS)


def _equal(a, b) -> bool:
    """Field-by-field equality, derived fields too; arrays by value and
    dtype, NaN equal to NaN."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_equal(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, dict):
        return list(a) == list(b) and all(_equal(a[key], b[key]) for key in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_equal, a, b))
    return a == b or (a != a and b != b)


def test_every_dataclass_has_a_sample():
    assert TANDEM_CONFIGS <= set(DATACLASSES)
    assert set(SAMPLES) == set(DATACLASSES)


@pytest.mark.parametrize("name", sorted(DATACLASSES))
def test_only_the_tandem_configs_keep_an_instance_dict(name):
    sample = SAMPLES[name]()
    assert type(sample) is DATACLASSES[name]
    assert hasattr(sample, "__dict__") == (name in TANDEM_CONFIGS)


@pytest.mark.parametrize("name", SLOTTED)
def test_a_slotted_record_takes_no_new_attribute(name):
    sample = SAMPLES[name]()
    with pytest.raises(AttributeError):
        object.__setattr__(sample, "extra", 1.0)


@pytest.mark.parametrize("route", [
    lambda value: pickle.loads(pickle.dumps(value)),
    copy.deepcopy,
    dataclasses.replace,
], ids=["pickle", "deepcopy", "replace"])
@pytest.mark.parametrize("name", SLOTTED)
def test_a_slotted_record_round_trips(name, route):
    sample = SAMPLES[name]()
    again = route(sample)
    assert type(again) is type(sample)
    assert _equal(again, sample)
    assert repr(again) == repr(sample)


def _class_cell_uses(source: str) -> list[tuple[str, int]]:
    """(class, line) of each zero-argument super() call and each __class__
    name in the class bodies of source: both read the __class__ cell,
    which still holds the class that slots=True replaced."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            zero_arg_super = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                              and node.func.id == "super" and not node.args)
            if zero_arg_super or (isinstance(node, ast.Name) and node.id == "__class__"):
                found.append((cls.name, node.lineno))
    return found


def test_the_scan_sees_both_uses_of_the_class_cell():
    source = ("class A:\n    def f(self):\n        return super().f()\n"
              "class B:\n    def g(self):\n        return __class__\n")
    assert _class_cell_uses(source) == [("A", 3), ("B", 6)]


@pytest.mark.parametrize("name", SLOTTED)
def test_no_slotted_class_body_reads_the_class_cell(name):
    cls = DATACLASSES[name]
    assert "__slots__" in vars(cls)
    assert _class_cell_uses(inspect.getsource(cls)) == []
