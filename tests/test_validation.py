"""Validation-suite tests: both suites pass on default tolerances, checks
report measured errors, and corrupted tolerances fail loudly."""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from optomech import PROFILES, ToleranceProfile, run_validation
from optomech import datasets, elements, mos, validation
from optomech.elements import ElementSpec, ScatteringMatrix, unitarity_defect
from optomech.numerics import central_diff_5pt, grid_brackets

import scalar_reference


def test_fast_suite_passes_quickly():
    start = time.monotonic()
    report = run_validation("fast")
    elapsed = time.monotonic() - start
    assert report.passed, "\n".join(report.lines())
    assert elapsed < 5.0
    assert len(report.checks) >= 9


def test_full_suite_passes():
    start = time.monotonic()
    report = run_validation("full")
    elapsed = time.monotonic() - start
    assert report.passed, "\n".join(report.lines())
    assert elapsed < 120.0
    names = {c.name for c in report.checks}
    assert {"mate_resonance_oracle", "mos_resonance_oracle",
            "thin_tandem_regime"} <= names


def test_strict_profile_passes():
    report = run_validation("fast", profile="strict")
    assert report.passed, "\n".join(report.lines())


def test_checks_carry_measured_errors():
    report = run_validation("fast")
    for check in report.checks:
        assert check.measured >= 0.0
        assert check.tolerance > 0.0
        assert check.line().startswith(("PASS", "FAIL"))


def test_corrupted_tolerance_reported_not_thrown():
    broken = ToleranceProfile(name="broken", unitarity=1e-20)
    report = run_validation("fast", profile=broken)
    assert not report.passed
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["unitarity"]
    assert failed[0].measured > 1e-20


def test_unknown_inputs_rejected():
    with pytest.raises(ValueError):
        run_validation("medium")
    with pytest.raises(ValueError):
        run_validation("fast", profile="loose")


def test_registered_profiles():
    assert set(PROFILES) == {"default", "strict"}
    assert PROFILES["strict"].unitarity < PROFILES["default"].unitarity


FAST_CHECKS = [
    "unitarity", "tandem_closed_vs_elimination", "closed_form_vs_matrix",
    "response_derivatives_fd", "msi_derivatives_fd", "zero_dispersive_locus_oracle",
    "mos_limit_values", "noise_general_vs_closed", "figure_values",
]


def test_suite_check_names_in_order():
    # the benchmark's validate gate counts these checks and names its spans
    # after them
    assert [c.name for c in run_validation("fast").checks] == FAST_CHECKS
    assert [c.name for c in run_validation("full").checks] == FAST_CHECKS + [
        "mate_resonance_oracle", "mate_dkdx_oracle", "mos_resonance_oracle",
        "thin_tandem_regime",
    ]


def _hex(values):
    return [float.hex(v) for v in values]


#: every check of fast/full x default/strict at seeds 20240817 and 7, as the
#: scalar oracles (one ElementSpec and one tandem call per draw) reported it
REFERENCE = json.loads((Path(__file__).parent / "data" / "validate_reference.json").read_text())


@pytest.mark.parametrize("run", REFERENCE,
                         ids=[f"{r['suite']}-{r['profile']}-{r['seed']}" for r in REFERENCE])
def test_checks_equal_the_recorded_reference(run):
    report = run_validation(run["suite"], run["profile"], seed=run["seed"])
    assert [{"name": c.name, "passed": c.passed, "measured": float.hex(c.measured),
             "tolerance": float.hex(c.tolerance), "detail": c.detail}
            for c in report.checks] == run["checks"]


def test_block_draws_equal_the_scalar_draws_bit_for_bit():
    bounds = ((0.01, 0.99), (-math.pi, math.pi), (0.0, 2e-6), (1e6, 1e7),
              (0.4, math.pi - 0.4), (0.0, 1.0))
    scalar_rng, block_rng = np.random.default_rng(3), np.random.default_rng(3)
    scalar = [[scalar_rng.uniform(lo, hi) for lo, hi in bounds] for _ in range(3000)]
    block = validation._uniform_columns(block_rng, 3000, *bounds)
    assert [_hex(col) for col in block] == [_hex(col) for col in zip(*scalar)]
    assert block_rng.bit_generator.state == scalar_rng.bit_generator.state


def test_block_draws_with_a_dependent_bound_equal_the_scalar_draws():
    # the locus oracle's t ~ U(1.05 t_m^2, 0.2 t_m): the bounds are Python
    # floats of the t_m drawn just before
    scalar_rng, block_rng = np.random.default_rng(4), np.random.default_rng(4)
    scalar = []
    for _ in range(20000):
        t_m = scalar_rng.uniform(0.03, 0.15)
        scalar += [t_m, scalar_rng.uniform(1.05 * t_m ** 2, 0.2 * t_m)]
    block = []
    for t_m, u in zip(*validation._uniform_columns(block_rng, 20000, (0.03, 0.15),
                                                   (0.0, 1.0))):
        lo, hi = 1.05 * t_m ** 2, 0.2 * t_m
        block += [t_m, lo + (hi - lo) * u]
    assert _hex(block) == _hex(scalar)
    assert block_rng.bit_generator.state == scalar_rng.bit_generator.state


#: (check, keyword arguments, draws per sample, samples) of each check that
#: samples rng.uniform
SAMPLING_CHECKS = [
    (validation._check_unitarity, {"samples": 300}, 5, 300),
    (validation._check_elimination, {}, 5, 200),
    (validation._check_closed_vs_matrix, {}, 3, 1000),
    (validation._check_response_derivatives, {}, 4, 60),
    (validation._check_msi_derivatives, {}, 3, 60),
    (validation._check_locus_oracle, {"samples": 20}, 2, 20),
]


@pytest.mark.parametrize("check, kwargs, per_sample, samples", SAMPLING_CHECKS,
                         ids=[c[0].__name__ for c in SAMPLING_CHECKS])
def test_sampling_checks_leave_the_generator_where_the_scalar_loop_did(
        check, kwargs, per_sample, samples):
    # one scalar rng.uniform call per drawn value, as the checks made when
    # they drew sample by sample
    rng, scalar_rng = np.random.default_rng(20240817), np.random.default_rng(20240817)
    assert check(rng, PROFILES["default"], **kwargs).passed
    for _ in range(per_sample * samples):
        scalar_rng.uniform(0.0, 1.0)
    assert rng.bit_generator.state == scalar_rng.bit_generator.state


def test_array_gap_reduction_equals_python_float_modulo():
    # closed_form_vs_matrix reduces its gaps with numpy's %, the loop did
    # with Python's: both are fmod with the sign of the divisor
    rng = np.random.default_rng(9)
    k = 7.0e6
    psi = np.concatenate([rng.uniform(0.0, 2.0 * math.pi, 20000),
                          rng.uniform(-1e3, 1e3, 20000), [math.pi / 2, 0.0, -0.0]])
    got = (psi - math.pi / 2) / (2.0 * k) % (math.pi / k)
    want = [(p - math.pi / 2) / (2.0 * k) % (math.pi / k) for p in psi.tolist()]
    assert _hex(got.tolist()) == _hex(want)


def test_stacked_unitarity_defect_is_the_largest_per_matrix_defect():
    rng = np.random.default_rng(8)
    stack = rng.standard_normal((50, 2, 2)) + 1j * rng.standard_normal((50, 2, 2))
    per_matrix = [unitarity_defect(ScatteringMatrix(*s.ravel().tolist()).as_array())
                  for s in stack]
    assert unitarity_defect(stack) == max(per_matrix)
    assert unitarity_defect(stack[7]) == per_matrix[7]


# The scalar loops that the array checks replaced, kept as their reference:
# one pair of elements and one cmath tandem matrix per draw, one
# synthetic_response per draw, and one float bisection per locus bracket.
# They look synthetic_response up in validation, whose _response_closed_form
# lives in elements, so a test can patch _response_closed_form in both
# modules for the loops and the checks alike.

def _loop_unitarity(rng, tol, samples):
    worst = 0.0
    for t, t_m, phi_r, x, k in zip(*validation._uniform_columns(
            rng, samples, *validation._TANDEM_BOUNDS)):
        mirror = ElementSpec.mirror(t)
        membrane = ElementSpec.membrane(t_m, phi_r=phi_r)
        for s in (scalar_reference.element_scattering(mirror),
                  scalar_reference.element_scattering(membrane),
                  scalar_reference.compose_synthetic(mirror, membrane, x, k)):
            worst = max(worst, unitarity_defect(s.as_array()))
    return validation.CheckResult("unitarity", worst <= tol.unitarity, worst, tol.unitarity,
                                  f"{samples} random element/tandem matrices")


def _loop_elimination(rng, tol):
    worst = 0.0
    for t, t_m, phi_r, x, k in zip(*validation._uniform_columns(
            rng, 200, *validation._TANDEM_BOUNDS)):
        mirror = ElementSpec.mirror(t)
        membrane = ElementSpec.membrane(t_m, phi_r=phi_r)
        a = scalar_reference.compose_synthetic(mirror, membrane, x, k)
        b = scalar_reference.compose_synthetic_by_elimination(mirror, membrane, x, k)
        worst = max(worst, float(np.max(np.abs(
            np.array([[a.m11, a.m12], [a.m21, a.m22]])
            - np.array([[b.m11, b.m12], [b.m21, b.m22]])))))
    return validation.CheckResult("tandem_closed_vs_elimination",
                                  worst <= tol.elimination_entry, worst,
                                  tol.elimination_entry)


def _loop_closed_vs_matrix(rng, tol):
    worst_t = 0.0
    worst_mu = 0.0
    k = 7.0e6
    for t_m, t_frac, psi in zip(*validation._uniform_columns(
            rng, 1000, (0.2, 0.9), (0.05, 0.8), (0.0, 2.0 * math.pi))):
        t = t_frac * t_m
        mirror = ElementSpec.mirror(t)
        membrane = ElementSpec.membrane(t_m)
        x = (psi - membrane.phi_r) / (2.0 * k) % (math.pi / k)
        s = scalar_reference.compose_synthetic(mirror, membrane, x, k)
        resp = validation.synthetic_response(2.0 * k * x + membrane.phi_r, mirror, membrane)
        worst_t = max(worst_t, abs(resp.T - abs(s.m11) ** 2))
        worst_mu = max(
            worst_mu, abs(math.tan(resp.mu) - math.tan(np.angle(-s.m21)))
        )
    ok = worst_t <= tol.matrix_vs_closed_T and worst_mu <= tol.matrix_vs_closed_tan_mu
    return validation.CheckResult(
        "closed_form_vs_matrix", ok, max(worst_t, worst_mu),
        max(tol.matrix_vs_closed_T, tol.matrix_vs_closed_tan_mu),
        f"T defect {worst_t:.2e}, tan(mu) defect {worst_mu:.2e}",
    )


def _loop_response_derivatives(rng, tol, samples=60):
    worst = 0.0
    for t_m, t_frac, psi, coin in zip(*validation._uniform_columns(
            rng, samples, (0.2, 0.9), (0.1, 0.8), (0.4, math.pi - 0.4), (0.0, 1.0))):
        t = t_frac * t_m
        mirror = ElementSpec.mirror(t)
        membrane = ElementSpec.membrane(t_m)
        if coin < 0.5:
            psi += math.pi
        resp = validation.synthetic_response(psi, mirror, membrane)
        d_t = central_diff_5pt(
            lambda p: validation.synthetic_response(p, mirror, membrane).T, psi, 1e-4
        )
        d_mu = central_diff_5pt(
            lambda p: validation.synthetic_response(p, mirror, membrane).mu, psi, 1e-4
        )
        worst = max(worst, abs(resp.dT_dpsi - d_t) / abs(d_t))
        worst = max(worst, abs(resp.dmu_dpsi - d_mu) / abs(d_mu))
    return validation.CheckResult("response_derivatives_fd", worst <= tol.derivative_rel,
                                  worst, tol.derivative_rel,
                                  "dT/dpsi, dmu/dpsi vs 5-point FD")


def _loop_locus_oracle(rng, tol, samples):
    worst_psi = 0.0
    worst_phi = 0.0
    for t_m, u in zip(*validation._uniform_columns(rng, samples, (0.03, 0.15), (0.0, 1.0))):
        lo, hi = 1.05 * t_m ** 2, 0.2 * t_m
        t = lo + (hi - lo) * u
        mirror = ElementSpec.mirror(t)
        membrane = ElementSpec.membrane(t_m)
        locus = mos.zero_dispersive_locus(t, t_m)

        def dmu(psi):
            return validation.synthetic_response(psi, mirror, membrane).dmu_dpsi

        roots = [scalar_reference.bisect(dmu, a, b, f_lo=fa, f_hi=fb, ftol=0.0, xtol=1e-13)
                 for a, b, fa, fb in grid_brackets(dmu, 1e-3, 2.0 * math.pi - 1e-3, 4000)]
        if len(roots) != 2:
            return validation.CheckResult(
                "zero_dispersive_locus_oracle", False, float(len(roots)), 2.0,
                f"expected 2 sign changes of dmu/dpsi, found {len(roots)}")
        worst_psi = max(
            worst_psi,
            abs(roots[0] - locus.psi_star[0]),
            abs(roots[1] - locus.psi_star[1]),
        )
        phi0 = t_m ** 2 / 4.0
        half = (locus.psi_star[1] - math.pi) / 2.0
        worst_phi = max(worst_phi, abs(half - phi0) / phi0 / (t ** 2 / t_m ** 2))
    ok = worst_psi <= tol.locus_psi and worst_phi <= validation.LOCUS_PHI0_SCALE
    return validation.CheckResult(
        "zero_dispersive_locus_oracle", ok, worst_psi, tol.locus_psi,
        f"|dpsi| {worst_psi:.2e}; (psi*-pi)/2 vs Phi0 within "
        f"{worst_phi:.2f} x t^2/t_m^2 (limit {validation.LOCUS_PHI0_SCALE})",
    )


#: bound on |measured - loop measured| of the matrix checks: their numpy
#: complex kernels match the loops' cmath matrices to rounding, and at the
#: seeds below the measured values differ by at most 4.7e-15
MATRIX_MEASURED_BOUND = 1e-14

#: (array check, its scalar reference loop, keyword arguments, bound on the
#: measured difference; None where the check is the loop bit for bit)
ARRAY_CHECKS = [
    (validation._check_unitarity, _loop_unitarity, {"samples": 300}, MATRIX_MEASURED_BOUND),
    (validation._check_unitarity, _loop_unitarity, {"samples": 1000}, MATRIX_MEASURED_BOUND),
    (validation._check_elimination, _loop_elimination, {}, MATRIX_MEASURED_BOUND),
    (validation._check_closed_vs_matrix, _loop_closed_vs_matrix, {}, MATRIX_MEASURED_BOUND),
    (validation._check_response_derivatives, _loop_response_derivatives, {}, None),
    (validation._check_locus_oracle, _loop_locus_oracle, {"samples": 20}, None),
    (validation._check_locus_oracle, _loop_locus_oracle, {"samples": 100}, None),
]


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("seed", [20240817, 1, 7, 99, 12345, 2024])
def test_array_checks_equal_their_scalar_loops(seed, profile):
    tol = PROFILES[profile]
    for check, loop, kwargs, bound in ARRAY_CHECKS:
        rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = check(rng, tol, **kwargs), loop(loop_rng, tol, **kwargs)
        assert ((got.name, got.passed, got.tolerance)
                == (want.name, want.passed, want.tolerance)), check.__name__
        if bound is None:
            assert got.detail == want.detail
            assert float.hex(got.measured) == float.hex(want.measured)
        else:
            # closed_form_vs_matrix's detail prints its two defects
            assert abs(got.measured - want.measured) <= bound, check.__name__
        assert rng.bit_generator.state == loop_rng.bit_generator.state


def _fields(check):
    return (check.name, check.passed, check.measured, check.tolerance, check.detail)


def test_locus_sample_without_two_roots_fails_as_the_loop_does(monkeypatch):
    # the third sample's grid sees dmu/dpsi > 0 everywhere: no sign change
    real = elements._response_closed_form
    grids = []

    def flattened_third_grid(psi, *amplitudes):
        resp = real(psi, *amplitudes)
        if isinstance(psi, np.ndarray):
            grids.append(psi)
            if len(grids) % 3 == 0:
                return replace(resp, dmu_dpsi=np.abs(resp.dmu_dpsi) + 1.0)
        return resp

    monkeypatch.setattr(validation, "_response_closed_form", flattened_third_grid)
    monkeypatch.setattr(elements, "_response_closed_form", flattened_third_grid)
    tol = PROFILES["default"]
    rng, loop_rng = np.random.default_rng(20240817), np.random.default_rng(20240817)
    got = validation._check_locus_oracle(rng, tol, samples=20)
    want = _loop_locus_oracle(loop_rng, tol, samples=20)
    assert _fields(got) == _fields(want) == (
        "zero_dispersive_locus_oracle", False, 0.0, 2.0,
        "expected 2 sign changes of dmu/dpsi, found 0")
    assert rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("suite", ["fast", "full"])
def test_every_check_reports_a_bool_and_a_float(suite):
    for check in run_validation(suite).checks:
        assert type(check.passed) is bool, check.name
        assert type(check.measured) is float, check.name


def test_every_module_level_check_runs_and_returns_a_check_result(monkeypatch):
    # the benchmark's tracer wraps every validation._check_* and names its
    # span from the CheckResult it returns, so a helper named _check_* that
    # the suite does not call, or that returns anything else, breaks it
    returned = {}
    names = [name for name in vars(validation) if name.startswith("_check_")]
    for name in names:
        def spy(*args, _name=name, _fn=getattr(validation, name), **kwargs):
            result = _fn(*args, **kwargs)
            returned.setdefault(_name, []).append(result)
            return result
        monkeypatch.setattr(validation, name, spy)
    assert run_validation("full").passed
    assert sorted(returned) == sorted(names)
    for name, results in returned.items():
        assert all(isinstance(r, validation.CheckResult) for r in results), name


def test_worst_error_keeps_a_nan():
    assert validation._worst() == 0.0
    assert validation._worst(0.5, np.array([0.25, 2.0])) == 2.0
    assert math.isnan(validation._worst(0.5, np.array([math.nan, 0.25])))
    assert math.isnan(validation._worst([0.5, math.nan]))


def test_nan_response_fails_the_response_checks(monkeypatch):
    def nan_kernel(psi, t, r, t_m, r_m):
        nan = np.full(np.broadcast(psi, t, r, t_m, r_m).shape, math.nan)
        return elements.SyntheticMirrorResponse(psi=psi, T=nan, mu=nan,
                                                dT_dpsi=nan, dmu_dpsi=nan)

    monkeypatch.setattr(validation, "_response_closed_form", nan_kernel)
    monkeypatch.setattr(elements, "_response_closed_form", nan_kernel)
    tol = PROFILES["default"]
    for check in (validation._check_closed_vs_matrix(np.random.default_rng(7), tol),
                  validation._check_response_derivatives(np.random.default_rng(7), tol),
                  validation._check_locus_oracle(np.random.default_rng(7), tol, samples=20)):
        assert not check.passed, check.line()


def test_nan_locus_fails_the_locus_oracle(monkeypatch):
    def nan_locus(t, t_m):
        return mos.ZeroDispersiveLocus(psi_star=(math.nan, math.nan), T_star=math.nan)

    monkeypatch.setattr(mos, "zero_dispersive_locus", nan_locus)
    check = validation._check_locus_oracle(np.random.default_rng(7), PROFILES["default"],
                                           samples=20)
    assert not check.passed and math.isnan(check.measured), check.line()


@pytest.mark.parametrize("figure_id, column", [("fig2", "phi_over_phi0"), ("fig4", "xi")])
def test_figure_anchor_off_the_grid_fails(monkeypatch, figure_id, column):
    # an anchor is read only where the grid holds it exactly, never at a neighbour
    def off_grid(name):
        ds = datasets.reproduce_figure(name)
        if name == figure_id:
            ds.columns[column] = np.nextafter(ds.columns[column], np.inf)
        return ds

    monkeypatch.setattr(validation, "reproduce_figure", off_grid)
    with pytest.raises(IndexError):
        validation._check_figures()
