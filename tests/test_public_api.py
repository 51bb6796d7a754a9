"""The public surface: bad arguments raise package errors, each parameter
rule with one class and one message at every entry point, every name in
__all__ resolves, every name and command line the benchmark harness
(perfbench/) uses still exists, and the README's library quick start runs."""

import ast
import importlib
import importlib.util
import math
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import optomech
from optomech import datasets, numerics
from optomech import (
    DriveConfig,
    ElementSpec,
    InvalidElement,
    InvalidParameter,
    MateConfig,
    MosConfig,
    MsiConfig,
    PortRates,
    ScanSpec,
    classify_branch,
    compare_systems,
    compose_synthetic,
    compose_synthetic_by_elimination,
    cooperativity,
    dissipative_constant_exact,
    general_spectra,
    homodyne_spectra,
    mate_dispersive_constant,
    mate_exact_decay,
    mate_resonances,
    run_scan,
    run_validation,
    two_port_setpoint,
    zero_dispersive_locus,
)
from optomech.cli import build_parser
from optomech.elements import wavevector
from optomech.noise import mechanical_scale, product_normalized

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


@pytest.mark.parametrize("system", ["mim", 5, None])
def test_an_unknown_system_is_an_invalid_parameter(system):
    # a system that is not a string has no .lower(); it is named like any other
    with pytest.raises(optomech.OptomechError) as err:
        cooperativity(system, t=0.014, t_m=0.1, **MECH)
    assert type(err.value) is InvalidParameter
    assert str(err.value) == f"unknown system {system!r}; expected mos, msi, or mate"


#: the message of each parameter rule; a value that is not finite gets FINITE's
FINITE, POSITIVE, NON_NEGATIVE = "must be finite", "must be positive", "must be non-negative"
AMPLITUDE, TRANSMITTING = "must lie in [0, 1]", "must lie in (0, 1]"
AT_LEAST_ONE = "must be at least 1"

#: an int beyond the float range, which every rule rejects as it rejects inf
BIG = 10 ** 400

#: the bad values each rule is fed: floats, and ints and bools, which the
#: screens compare as the floats they round to
BAD_VALUES = {
    FINITE: (math.nan, math.inf, -math.inf, BIG, -BIG),
    POSITIVE: (0.0, -1.0, math.nan, math.inf, 0, False, -1, BIG),
    NON_NEGATIVE: (-1.0, math.nan, -math.inf, math.inf, -1, -BIG, BIG),
    AMPLITUDE: (-1.0, 1.5, math.nan, math.inf, 2, -1, BIG),
    TRANSMITTING: (0.0, -1.0, 1.5, math.nan, math.inf, 0, False, 2, -BIG),
    AT_LEAST_ONE: (0.5, 0.0, -5.0, math.nan, math.inf, -math.inf, 0, False, BIG),
}

K = 2 * math.pi / 0.85e-6
MECH = {"l": 1e-4, "wavelength": 0.85e-6, "x_zpf": 1e-15, "gamma_m": 0.1, "a0": 1.0}
GEOMETRY = {"l": 1e-4, "wavelength": 0.85e-6, "t": 0.014, "t_m": 0.1}
PAIR = (ElementSpec.mirror(0.5), ElementSpec.membrane(0.5))

#: entry point -> (a call taking keyword arguments, its valid arguments)
ENTRIES = {
    "wavevector": (wavevector, {"wavelength": 0.85e-6}),
    "ElementSpec": (partial(ElementSpec, kind="membrane"), {"t": 0.5, "phi_r": 1.0}),
    "MosConfig": (MosConfig, {**GEOMETRY, "x": 0.0, "phi_r": 1.0}),
    "MateConfig": (MateConfig, {**GEOMETRY, "x": 1e-6, "phi_r": 1.0}),
    "compose_synthetic": (partial(compose_synthetic, *PAIR), {"x": 1e-7, "k": K}),
    "compose_synthetic_by_elimination": (partial(compose_synthetic_by_elimination, *PAIR),
                                         {"x": 1e-7, "k": K}),
    "zero_dispersive_locus": (zero_dispersive_locus, {"t": 0.014, "t_m": 0.1}),
    "dissipative_constant_exact": (dissipative_constant_exact,
                                   {"t": 0.014, "t_m": 0.1, "k": K, "l": 1e-4}),
    "MsiConfig": (MsiConfig, {"r_ms": 0.9, "l": 1e-4, "k": K, "x": 0.0, "Tb_sq": 0.5}),
    "classify_branch": (partial(classify_branch, MATE), {"k_c": K}),
    "mate_dispersive_constant": (partial(mate_dispersive_constant, MATE), {"k_c": K}),
    "mate_exact_decay": (partial(mate_exact_decay, MATE), {"k": K}),
    "PortRates": (PortRates, {"gamma1": GAMMA, "gamma2": GAMMA, "gamma3": 0.0}),
    "DriveConfig": (DriveConfig, {"delta": 0.0, "omega": 0.0, "a0": 1.0}),
    "general_spectra": (partial(general_spectra, PortRates(GAMMA, GAMMA), DriveConfig()),
                        {"g_omega0": 1.0, "g_gamma0": 1.0, "theta": 0.0}),
    "homodyne_spectra": (partial(homodyne_spectra, PortRates(GAMMA, GAMMA), DriveConfig()),
                         {"g_omega0": 1.0, "g_gamma0": 1.0}),
    "mechanical_scale": (mechanical_scale, MECH),
    "product_normalized": (product_normalized, {"xi": 0.5, "big_a": 1.0}),
    "cooperativity(mos)": (partial(cooperativity, "mos"), {"t": 0.014, "t_m": 0.1, **MECH}),
    "cooperativity(msi)": (partial(cooperativity, "msi"),
                           {"r_ms": 0.9, "gamma_ms": 1e9, "omega_m": 1e6, **MECH}),
    "cooperativity(mate)": (partial(cooperativity, "mate"),
                            {"t": 0.014, "t_m": 0.1, "omega_m": 1e6, **MECH}),
    # its messages name the parameter compare.<key>
    "compare_systems": (lambda **params: compare_systems(params), {}),
    # its messages end with the sweep point they occur at
    "run_scan(noise)": (lambda **fixed: run_scan(ScanSpec("noise", "xi", -1.0, 1.0, 3, fixed)),
                        {}),
}

#: rule -> {entry point: the parameters it screens by that rule}
SCREENED = {
    FINITE: {
        "ElementSpec": ("phi_r",), "MosConfig": ("phi_r",), "MateConfig": ("phi_r",),
        "MsiConfig": ("x",), "DriveConfig": ("delta", "omega"),
        "general_spectra": ("g_omega0", "g_gamma0", "theta"),
        "homodyne_spectra": ("g_omega0", "g_gamma0"),
        "cooperativity(msi)": ("omega_m",), "cooperativity(mate)": ("omega_m",),
        "compare_systems": ("t", "t_m", "msi_r_ms", "msi_Tb_sq"),
    },
    POSITIVE: {
        "wavevector": ("wavelength",),
        "MosConfig": ("l", "wavelength"), "MateConfig": ("l", "wavelength"),
        "compose_synthetic": ("k",), "compose_synthetic_by_elimination": ("k",),
        "dissipative_constant_exact": ("k", "l"), "MsiConfig": ("l", "k"),
        "classify_branch": ("k_c",), "mate_dispersive_constant": ("k_c",),
        "mate_exact_decay": ("k",),
        "mechanical_scale": ("wavelength", "l", "x_zpf", "gamma_m"),
        "cooperativity(mos)": ("l", "wavelength", "x_zpf", "gamma_m"),
        "cooperativity(msi)": ("gamma_ms", "l", "wavelength", "x_zpf", "gamma_m"),
        "cooperativity(mate)": ("l", "wavelength", "x_zpf", "gamma_m"),
        "compare_systems": ("l", "wavelength", "x_zpf", "gamma_m", "a0", "omega_m",
                            "mate_x"),
    },
    NON_NEGATIVE: {
        "MosConfig": ("x",), "compose_synthetic": ("x",),
        "compose_synthetic_by_elimination": ("x",),
        "PortRates": ("gamma1", "gamma2", "gamma3"), "DriveConfig": ("a0",),
        "mechanical_scale": ("a0",), "cooperativity(mos)": ("a0",),
        "cooperativity(msi)": ("a0",), "cooperativity(mate)": ("a0",),
        "run_scan(noise)": ("gamma3_over_gamma",),
    },
    AMPLITUDE: {
        "MosConfig": ("t",), "MateConfig": ("t",), "zero_dispersive_locus": ("t",),
        "ElementSpec": ("t",), "dissipative_constant_exact": ("t",),
        "MsiConfig": ("r_ms", "Tb_sq"),
        "cooperativity(mos)": ("t",), "cooperativity(msi)": ("r_ms",),
    },
    TRANSMITTING: {
        "MosConfig": ("t_m",), "MateConfig": ("t_m",), "zero_dispersive_locus": ("t_m",),
        "dissipative_constant_exact": ("t_m",), "cooperativity(mos)": ("t_m",),
        "cooperativity(mate)": ("t", "t_m"),
    },
    AT_LEAST_ONE: {"product_normalized": ("big_a",)},
}

SCREEN_CASES = [(rule, entry, name, value)
                for rule, entries in SCREENED.items()
                for entry, names in entries.items()
                for name in names for value in BAD_VALUES[rule]]


def _case_id(entry: str, name: str, value) -> str:
    shown = ("-10**400" if value < 0 else "10**400") if abs(value) == BIG else value
    return f"{entry}-{name}={shown}"


@pytest.mark.parametrize("rule, entry, name, value", SCREEN_CASES,
                         ids=[_case_id(e, n, v) for _, e, n, v in SCREEN_CASES])
def test_each_rule_has_one_class_and_one_message(rule, entry, name, value):
    call, valid = ENTRIES[entry]
    label = f"compare.{name}" if entry == "compare_systems" else name
    finite = abs(value) <= sys.float_info.max  # a NaN is not
    message = f"{label} {rule if finite else FINITE}, got {value}"
    with pytest.raises(optomech.OptomechError) as err:
        call(**{**valid, name: value})
    assert type(err.value) is InvalidParameter
    assert re.fullmatch(re.escape(message) + r"( \[at sweep point .*\])?", str(err.value))


NOT_NUMBERS = (None, "a")
TYPE_CASES = [(entry, name, value)
              for entries in SCREENED.values()
              for entry, names in entries.items()
              for name in names if (entry, name) != ("compare_systems", "mate_x")
              for value in NOT_NUMBERS]


@pytest.mark.parametrize("entry, name, value", TYPE_CASES,
                         ids=[f"{e}-{n}={v!r}" for e, n, v in TYPE_CASES])
def test_a_value_that_is_not_a_number_is_a_type_error_naming_it(entry, name, value):
    # mate_x = None is compare_systems' default
    call, valid = ENTRIES[entry]
    label = f"compare.{name}" if entry == "compare_systems" else name
    with pytest.raises(TypeError) as err:
        call(**{**valid, name: value})
    assert str(err.value) == f"{label} must be a real number, got {value!r}"


@pytest.mark.parametrize("screen", [numerics.require_finite, numerics.require_positive,
                                    numerics.require_non_negative, numerics.require_amplitude,
                                    numerics.require_transmitting,
                                    numerics.require_at_least_one])
@pytest.mark.parametrize("value", [None, "a", np.array(["a"]), [1.0, None]])
def test_each_screen_names_a_value_that_is_not_a_number(screen, value):
    with pytest.raises(TypeError) as err:
        screen(ok=0.5 if screen is not numerics.require_at_least_one else 1.0, v=value)
    assert str(err.value) == f"v must be a real number, got {value!r}"


def test_a_wrong_element_kind_is_an_invalid_parameter():
    # InvalidElement narrows InvalidParameter to an unknown or misplaced element kind
    assert issubclass(InvalidElement, InvalidParameter)


def _rule_messages(source: str) -> list[int]:
    """Lines of the f-strings in source that spell a range rule's message,
    or the message of a result that leaves the float range."""
    rules = (POSITIVE, NON_NEGATIVE, "must lie in", AT_LEAST_ONE, "leaves the float range")
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.JoinedStr)
            and any(rule in "".join(str(part.value) for part in node.values
                                    if isinstance(part, ast.Constant)) for rule in rules)]


def test_only_numerics_spells_a_range_rule():
    # a new entry point calls a numerics screen instead of its own message
    assert _rule_messages('raise E(f"{name} must be positive, got {v}")') == [1]
    assert _rule_messages('raise E(f"{name} leaves the float range ({v})")') == [1]
    spelled = {path.name: _rule_messages(path.read_text())
               for path in (ROOT / "src" / "optomech").glob("*.py")
               if path.name != "numerics.py"}
    assert {name: lines for name, lines in spelled.items() if lines} == {}


def _tiny_thresholds(source: str) -> list[tuple[str, str]]:
    """(function, comparison) of each comparison in source with an operand
    that is a float literal of magnitude in (0, 1e-12): a threshold where
    rounding stands in for an exact test or for the float-range error."""
    found = []

    def tiny(node) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0.0 < abs(node.value) < 1e-12)

    def visit(node, where: str) -> None:
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if isinstance(node, ast.Compare) and any(map(tiny, (node.left, *node.comparators))):
            found.append((where, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(ast.parse(source), "<module>")
    return found


#: the tiny thresholds allowed, (module, function, comparison): none, since
#: every degenerate case is decided on the inputs
TINY_THRESHOLDS_ALLOWED = []


def test_no_comparison_has_a_tiny_float_threshold():
    assert _tiny_thresholds("def f(d):\n    return abs(d) < 1e-300 or -1e-15 < d == 0.0 "
                            "or d < 1e-12\nx = 3e-13 > 0") == [
        ("f", "abs(d) < 1e-300"), ("f", "-1e-15 < d == 0.0"), ("<module>", "3e-13 > 0")]
    found = [(path.name, *entry) for path in sorted((ROOT / "src" / "optomech").glob("*.py"))
             for entry in _tiny_thresholds(path.read_text())]
    assert found == TINY_THRESHOLDS_ALLOWED


SCREENS = ("require_finite", "require_positive", "require_non_negative",
           "require_amplitude", "require_transmitting", "require_at_least_one")


def _functions(source: str):
    """The ([Class.]name, node) of each function and method in source."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node


def _screen_calls(tree: ast.AST):
    """The calls to the six screens in tree."""
    return [call for call in ast.walk(tree) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id in SCREENS]


def _screened_twice(source: str, where: str) -> list[str]:
    """The functions in source (as where:[Class.]name) that pass one keyword
    to two of the six screens; ** splats are not values."""
    flagged = []
    for name, func in _functions(source):
        screens_of: dict[str, set[str]] = {}
        for call in _screen_calls(func):
            for kw in call.keywords:
                if kw.arg is not None:
                    screens_of.setdefault(kw.arg, set()).add(call.func.id)
        if any(len(screens) > 1 for screens in screens_of.values()):
            flagged.append(f"{where}:{name}")
    return flagged


def test_each_value_is_screened_by_one_rule():
    # a value that passes any screen is finite, so a second screen of it is waste
    assert _screened_twice("def f(v):\n    require_finite(v=v)\n"
                           "    require_positive(v=v)\n", "m.py") == ["m.py:f"]
    assert _screened_twice("class C:\n    def f(self, v, w):\n"
                           "        require_finite(v=v)\n"
                           "        require_positive(w=w, **d)\n", "m.py") == []
    flagged = [name for path in sorted((ROOT / "src" / "optomech").glob("*.py"))
               for name in _screened_twice(path.read_text(), path.name)]
    assert flagged == []


def _screened_behind_an_if(source: str, where: str) -> list[str]:
    """The functions in source (as where:[Class.]name) that call a screen in
    a branch of an if: a second, hand-written copy of the rule decides
    whether the screen runs."""
    return [f"{where}:{name}" for name, func in _functions(source)
            if any(_screen_calls(branch)
                   for node in ast.walk(func) if isinstance(node, (ast.If, ast.IfExp))
                   for branch in ast.iter_child_nodes(node) if branch is not node.test)]


#: screens behind an if that are kept, each with its reason
SCREENED_BEHIND_AN_IF = {
    # it screens the derived sum of the rates, a value no other screen sees
    "noise.py:PortRates.__post_init__",
    # cheap pre-checks on the noise path, which every design query runs many
    # times: math.isfinite of a sum of the inputs, not an interval (but for
    # DriveConfig's a0)
    "noise.py:DriveConfig.__post_init__",
    "noise.py:general_spectra",
    "noise.py:homodyne_spectra",
}


def test_no_screen_sits_behind_a_copy_of_its_rule():
    # an interval written out in front of a screen is a second spelling of
    # the rule; numerics.py, which spells the rules, is not scanned
    assert _screened_behind_an_if("def f(t):\n    if not 0.0 <= t <= 1.0:\n"
                                  "        require_amplitude(t=t)\n"
                                  "def g(t):\n    if require_finite(t=t):\n        pass\n"
                                  "def h(t):\n    require_positive(t=t) if t else None\n",
                                  "m.py") == ["m.py:f", "m.py:h"]
    flagged = [name for path in sorted((ROOT / "src" / "optomech").glob("*.py"))
               if path.name != "numerics.py"
               for name in _screened_behind_an_if(path.read_text(), path.name)]
    assert set(flagged) == SCREENED_BEHIND_AN_IF


#: calls that write a whole file, truncating one that exists
FILE_WRITERS = {"write_text", "write_bytes", "tofile", "savetxt"}
#: os.open flags that open for writing
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}


def _opens_for_writing(source: str, where: str) -> list[str]:
    """The functions in source (as where:[Class.]name) that open a file for
    writing: an open (builtin, os., io. or a method such as Path.open) whose
    mode writes or is not a constant, an os.open with a write flag or
    flags that are not spelled out, or a call of FILE_WRITERS."""
    def writes(call: ast.Call) -> bool:
        name = _callee(call)
        if name in FILE_WRITERS:
            return True
        if name != "open":
            return False
        method = (isinstance(call.func, ast.Attribute)
                  and getattr(call.func.value, "id", None) not in ("os", "io"))
        args = call.args[0 if method else 1:]
        mode = next((kw.value for kw in call.keywords if kw.arg in ("mode", "flags")),
                    args[0] if args else None)
        if mode is None or isinstance(mode, ast.Constant):
            return mode is not None and bool(set(str(mode.value)) & set("wax+"))
        names = {getattr(node, "attr", getattr(node, "id", "")) for node in ast.walk(mode)}
        return bool(names & WRITE_FLAGS) or not any(n.startswith("O_") for n in names)

    return [f"{where}:{name}" for name, func in _functions(source)
            if any(writes(call) for call in ast.walk(func) if isinstance(call, ast.Call))]


#: where the package opens a file for writing, each with its reason
OPENS_FOR_WRITING = {
    # every CSV and .meta: written in place, then cut to length
    "datasets.py:_rewrite",
    # points stdout at os.devnull once its reader has gone away
    "cli.py:main",
}


def test_output_files_are_opened_only_by_the_rewrite_helper():
    # open(path, "w"/"wb") or Path.write_text truncates an existing file to
    # zero before writing it again, which costs several times the write
    sample = ("def f(p):\n    open(p, 'wb').write(b'')\n"
              "def g(p):\n    Path(p).write_text('x')\n"
              "def h(p):\n    os.open(p, os.O_WRONLY | os.O_CREAT)\n"
              "def k(p, m):\n    p.open(m)\n"
              "def q(p):\n    p.open('a')\n"
              "def r(p):\n    open('wax.txt').read(); open(p, 'rb'); os.open(p, os.O_RDONLY)\n")
    assert _opens_for_writing(sample, "m.py") == ["m.py:f", "m.py:g", "m.py:h", "m.py:k",
                                                  "m.py:q"]
    flagged = [name for path in sorted((ROOT / "src" / "optomech").glob("*.py"))
               for name in _opens_for_writing(path.read_text(), path.name)]
    assert set(flagged) == OPENS_FOR_WRITING


#: the callees that build a config, or compute the mechanical scale M
CONFIGS = {"MosConfig", "MsiConfig", "MateConfig"}
SCALES = {"mechanical_scale", "_mechanical_scale", "cooperativity", "cooperativity_mos",
          "cooperativity_msi", "cooperativity_mate"}


def _callee(call: ast.Call) -> str | None:
    """The name a call calls: f of f(...), or f of module.f(...)."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return getattr(call.func, "id", None)


def test_compare_builds_no_config_and_computes_m_once():
    # compare_systems fills its rows from the closed-form kernels; the scan
    # takes compare_systems, its row fillers and the datasets functions they name
    assert _callee(ast.parse("mos_mod.MosConfig(x=0.0)").body[0].value) == "MosConfig"
    functions = dict(_functions((ROOT / "src" / "optomech" / "datasets.py").read_text()))
    todo = ["compare_systems", *(f.__name__ for f in datasets._SYSTEMS.values())]
    scanned = {}
    while todo:
        name = todo.pop()
        if name not in scanned:
            scanned[name] = functions[name]
            todo += [node.id for node in ast.walk(functions[name])
                     if isinstance(node, ast.Name) and node.id in functions]
    assert {"_mos_row", "_msi_row", "_mate_row", "_store"} < set(scanned)
    calls = [(name, call) for name, func in scanned.items()
             for call in ast.walk(func) if isinstance(call, ast.Call)]
    assert [name for name, call in calls if _callee(call) in CONFIGS] == []
    scales = [call for name, call in calls if _callee(call) in SCALES]
    assert [_callee(call) for call in scales] == ["_mechanical_scale"]
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    assert not any(scales[0] in ast.walk(node) for node in ast.walk(scanned["compare_systems"])
                   if isinstance(node, loops))


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
