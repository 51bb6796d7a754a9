"""Validation-suite tests: both suites pass on default tolerances, checks
report measured errors, and corrupted tolerances fail loudly."""

import math
import time

import numpy as np
import pytest

from optomech import PROFILES, ToleranceProfile, run_validation
from optomech import validation
from optomech.elements import ScatteringMatrix, unitarity_defect


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


def test_stacked_unitarity_defect_is_the_largest_per_matrix_defect():
    rng = np.random.default_rng(8)
    stack = rng.standard_normal((50, 2, 2)) + 1j * rng.standard_normal((50, 2, 2))
    per_matrix = [ScatteringMatrix(*s.ravel().tolist()).unitarity_defect() for s in stack]
    assert unitarity_defect(stack) == max(per_matrix)
    assert unitarity_defect(stack[7]) == per_matrix[7]
