"""Validation-suite tests: both suites pass on default tolerances, checks
report measured errors, and corrupted tolerances fail loudly."""

import time

import pytest

from optomech import PROFILES, ToleranceProfile, run_validation


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
