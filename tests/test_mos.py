"""Membrane-outside model tests: zero-dispersive locus against the
bracketing oracle, operating-point limits, finite-gap corrections against
the brute-force resonance solver, and the two-port setpoint."""

import math
from dataclasses import replace

import numpy as np
import pytest

from optomech import (
    InvalidParameter,
    MosConfig,
    NoZeroDispersivePoint,
    dissipative_constant_exact,
    exact_corrections,
    operating_point,
    solve_resonance,
    synthetic_response,
    two_port_setpoint,
    zero_dispersive_locus,
)
from optomech.constants import C_LIGHT
from optomech.mos import dispersive_from_resonance, resonance_residual
from optomech.numerics import central_diff_5pt
from optomech.validation import PROFILES, _check_locus_oracle, _check_mos_resonance

DEFAULT = PROFILES["default"]


@pytest.fixture
def bench():
    """Benchmark configuration: t_m = 0.1, t = 0.014, l = 0.1 mm, 850 nm."""
    return MosConfig(l=1e-4, wavelength=0.85e-6, t=0.014, t_m=0.1, x=0.0)


def _dissipative_constant_thin(t, t_m, k, l):
    """Thin-membrane limit of dissipative_constant_exact, the reference of
    the paper's t_m^2 < t << t_m << 1 expansion:
    (c k / l) (t^2/t_m^4) * 2 r_m (1 + r_m^2)."""
    r_m = math.sqrt(1.0 - t_m * t_m)
    return C_LIGHT * k / l * (t ** 2 / t_m ** 4) * 2.0 * r_m * (1.0 + r_m * r_m)


class TestZeroDispersiveLocus:
    def test_benchmark_half_offsets(self, bench):
        locus = zero_dispersive_locus(0.014, 0.1)
        lo, hi = locus.psi_star
        assert 0.0 < lo < math.pi < hi < 2 * math.pi
        assert hi - math.pi == pytest.approx(math.pi - lo, abs=1e-12)
        half = (hi - math.pi) / 2
        assert half == pytest.approx(0.0025120954565998, abs=1e-12)
        # agrees with Phi0 = t_m^2/4 to a few t^2/t_m^2 relative
        assert abs(half - bench.phi0) / bench.phi0 < 3 * (0.014 / 0.1) ** 2

    def test_against_bracketing_oracle(self):
        result = _check_locus_oracle(np.random.default_rng(21), DEFAULT, samples=25)
        assert result.passed, result.line()

    def test_too_reflective_membrane(self):
        with pytest.raises(NoZeroDispersivePoint):
            zero_dispersive_locus(t=0.1, t_m=0.014)

    @pytest.mark.parametrize("t, t_m, name", [
        (0.01, math.nan, "t_m"), (0.01, math.inf, "t_m"), (0.01, 0.0, "t_m"),
        (0.01, -0.1, "t_m"), (0.01, 1.5, "t_m"), (math.nan, 0.1, "t"),
        (math.inf, 0.1, "t"), (1.5, 0.1, "t"), (-0.01, 0.1, "t"),
    ])
    def test_out_of_range_inputs_are_invalid_parameters(self, t, t_m, name):
        with pytest.raises(InvalidParameter, match=f"^{name} must lie in"):
            zero_dispersive_locus(t, t_m)

    def test_tandem_beyond_the_float_range_is_an_invalid_parameter(self):
        # r and r_m both round to 1, so 1 - r^2 r_m^2 is 0
        with pytest.raises(InvalidParameter, match="leaves the float range"):
            zero_dispersive_locus(1e-100, 1e-52)

    def test_equal_elements_merge_at_pi(self):
        locus = zero_dispersive_locus(0.05, 0.05)
        assert locus.psi_star[0] == pytest.approx(math.pi, abs=1e-12)
        assert locus.psi_star[1] == pytest.approx(math.pi, abs=1e-12)

    def test_transmission_at_locus(self):
        t, t_m = 0.02, 0.12
        r2, rm2 = 1 - t * t, 1 - t_m * t_m
        locus = zero_dispersive_locus(t, t_m)
        assert locus.T_star == pytest.approx(
            t * t * (1 + rm2) / (1 - r2 * rm2), rel=1e-13, abs=0.0
        )


class TestOperatingPoint:
    def test_peak_point(self, bench):
        op = operating_point(bench.at_phi(0.0))
        assert op.g_omega0 == pytest.approx(op.g_00, rel=1e-14)
        assert op.g_gamma0 == 0.0
        assert op.gamma == pytest.approx(bench.gamma0, rel=1e-14)

    def test_dissipative_point(self, bench):
        op = operating_point(bench.at_phi(bench.phi0))
        assert abs(op.g_omega0 / op.g_00) < 1e-12
        assert op.g_gamma0 / op.g_00 == pytest.approx(0.5, abs=1e-12)
        assert op.gamma == pytest.approx(bench.gamma0 / 2, rel=1e-12)

    def test_gamma0_value(self, bench):
        assert bench.gamma0 == pytest.approx(117518643536.0, rel=1e-12)
        # energy-decay oracle: c T / (2 l) with the exact transmission;
        # matches to the thin-membrane expansion accuracy
        resp = synthetic_response(math.pi, bench.mirror, bench.membrane)
        assert bench.gamma0 == pytest.approx(C_LIGHT * resp.T / (2 * bench.l), rel=0.05)

    def test_parity_in_phi(self, bench):
        for frac in (0.3, 1.0, 2.7):
            plus = operating_point(bench.at_phi(frac * bench.phi0))
            minus = operating_point(bench.at_phi(-frac * bench.phi0))
            assert plus.g_omega0 == pytest.approx(minus.g_omega0, rel=1e-12)
            assert plus.g_gamma0 == pytest.approx(-minus.g_gamma0, rel=1e-12)
            assert plus.gamma == pytest.approx(minus.gamma, rel=1e-12)

    def test_gamma_bounded_by_peak(self, bench):
        for frac in np.linspace(-5, 5, 41):
            op = operating_point(bench.at_phi(frac * bench.phi0))
            assert op.gamma <= bench.gamma0 * (1 + 1e-15)

    def test_dissipative_over_decay_peaks_at_phi0(self, bench):
        fracs = np.linspace(-5, 5, 2001)
        ratio = []
        for frac in fracs:
            op = operating_point(bench.at_phi(frac * bench.phi0))
            ratio.append(abs(op.g_gamma0) / op.gamma)
        top = fracs[int(np.argmax(ratio))]
        assert abs(abs(top) - 1.0) <= (fracs[1] - fracs[0]) + 1e-12

    def test_thin_tandem_flag(self, bench):
        bound = bench.thin_tandem_bound()
        thin = replace(bench, x=0.001 * bound)
        thick = replace(bench, x=0.5 * bound)
        assert operating_point(thin).valid_thin_tandem
        assert not operating_point(thick).valid_thin_tandem


class TestDissipativeConstant:
    def test_equal_reflectivities_vanish(self, bench):
        assert dissipative_constant_exact(0.05, 0.05, bench.k, bench.l) == 0.0

    def test_against_transmission_slope_oracle(self, bench):
        # |d(gamma)/dx| = (c k / l) |dT/dpsi| * 2 at the locus, with dT/dpsi
        # from finite differences of the exact transmission
        locus = zero_dispersive_locus(0.014, 0.1)
        fd = central_diff_5pt(
            lambda p: synthetic_response(p, bench.mirror, bench.membrane).T,
            locus.psi_star[1], 1e-6,
        )
        oracle = abs(2 * bench.k * fd) * C_LIGHT / (2 * bench.l)
        exact = dissipative_constant_exact(0.014, 0.1, bench.k, bench.l)
        assert exact == pytest.approx(oracle, rel=1e-7)
        assert exact == pytest.approx(1.6547048412534e20, rel=1e-10)

    def test_asymptotic_agreement(self, bench):
        exact = dissipative_constant_exact(0.014, 0.1, bench.k, bench.l)
        asym = _dissipative_constant_thin(0.014, 0.1, bench.k, bench.l)
        assert abs(asym / exact - 1.0) < 0.045  # measured 3.9% for these values

    def test_matches_operating_point_scale(self, bench):
        # 2 |g_gamma0(Phi0)| equals |d(gamma)/dx| at the locus up to the
        # same thin-membrane expansion error
        op = operating_point(bench.at_phi(bench.phi0))
        exact = dissipative_constant_exact(0.014, 0.1, bench.k, bench.l)
        assert abs(2 * abs(op.g_gamma0) / exact - 1.0) < 0.06

    def test_infeasible_for_reflective_membrane(self, bench):
        with pytest.raises(NoZeroDispersivePoint):
            dissipative_constant_exact(0.1, 0.014, bench.k, bench.l)

    @pytest.mark.parametrize("args, message", [
        ({"t_m": math.nan}, "t_m must lie in"),
        ({"t_m": 1.5}, "t_m must lie in"),
        ({"t": math.nan}, "t must lie in"),
        ({"l": 0.0}, "k and l must be positive"),
        ({"l": -1e-4}, "k and l must be positive"),
        ({"k": math.inf}, "k must be finite"),
    ], ids=["t_m=nan", "t_m=1.5", "t=nan", "l=0", "l<0", "k=inf"])
    def test_bad_inputs_are_invalid_parameters(self, bench, args, message):
        kwargs = {"t": 0.014, "t_m": 0.1, "k": bench.k, "l": bench.l, **args}
        with pytest.raises(InvalidParameter, match=message):
            dissipative_constant_exact(**kwargs)

    @pytest.mark.parametrize("t, t_m, k, l", [
        (1e-100, 1e-52, 7e6, 1e-4),    # 1 - r^2 r_m^2 rounds to 0
        (0.01, 0.1, 1e300, 1e-300),    # c k / l overflows
    ], ids=["exact-r-rounds", "exact-overflows"])
    def test_results_beyond_the_float_range_are_invalid_parameters(self, t, t_m, k, l):
        with pytest.raises(InvalidParameter, match="leaves the float range"):
            dissipative_constant_exact(t, t_m, k, l)


class TestExactCorrections:
    def test_zero_gap_limits(self, bench):
        cfg = replace(bench, x=0.0)
        resp = synthetic_response(cfg.psi, cfg.mirror, cfg.membrane)
        corr = exact_corrections(cfg)
        assert corr.gamma_exact == pytest.approx(
            C_LIGHT * resp.T / (2 * cfg.l), rel=1e-14
        )
        assert corr.g_omega_exact == pytest.approx(
            -(C_LIGHT * cfg.k / cfg.l) * resp.dmu_dpsi, rel=1e-14
        )

    def test_decay_deviation_bound(self, bench):
        # relative deviation from c T/(2 l) stays below 2 (x/l)(T/t_m^2)
        for n_branch in (0, 40, 120):
            cfg = replace(bench, N=n_branch).at_phi(0.3 * bench.phi0)
            resp = synthetic_response(cfg.psi, cfg.mirror, cfg.membrane)
            thin = C_LIGHT * resp.T / (2 * cfg.l)
            corr = exact_corrections(cfg)
            dev = abs(corr.gamma_exact / thin - 1.0)
            assert dev <= 2 * (cfg.x / cfg.l) * (resp.T / cfg.t_m ** 2)

    def test_decay_derivative_reduces_to_slope(self, bench):
        cfg = bench.at_phi(0.7 * bench.phi0)  # x ~ 1e-7, deep thin-tandem
        resp = synthetic_response(cfg.psi, cfg.mirror, cfg.membrane)
        corr = exact_corrections(cfg)
        thin = C_LIGHT * (2 * cfg.k * resp.dT_dpsi) / (2 * cfg.l)
        assert corr.dgamma_dx_exact == pytest.approx(thin, rel=0.05)

    def test_derivative_against_finite_difference(self, bench):
        cfg = replace(bench, N=25).at_phi(0.4 * bench.phi0)

        def gamma_of_gap(x):
            return exact_corrections(replace(cfg, x=x)).gamma_exact

        fd = central_diff_5pt(gamma_of_gap, cfg.x, 1e-12)
        assert exact_corrections(cfg).dgamma_dx_exact == pytest.approx(fd, rel=1e-5)

    def test_appendix_bound_flag(self, bench):
        # gap grown to the bound (half-wavelength branches, phase held at
        # the transparency peak): flag off, decay deviates ~50%, far
        # beyond the in-regime 1e-2 level
        long = MosConfig(l=0.1, wavelength=0.85e-6, t=0.014, t_m=0.1, x=0.0)
        n_at_bound = int(long.thin_tandem_bound() / (long.wavelength / 2))
        at_bound = replace(long, N=n_at_bound).at_phi(0.0)
        assert at_bound.x == pytest.approx(long.thin_tandem_bound(), rel=1e-3)
        corr = exact_corrections(at_bound)
        assert not corr.valid_thin_tandem
        resp = synthetic_response(at_bound.psi, at_bound.mirror, at_bound.membrane)
        thin = C_LIGHT * resp.T / (2 * at_bound.l)
        assert abs(corr.gamma_exact / thin - 1.0) > 0.3

    # T = 0 at t = 0; T underflows to 0 at 1e-200, and T^2 at 1e-100
    @pytest.mark.parametrize("t", [0.0, 1e-200, 1e-100])
    @pytest.mark.parametrize("x", [0.0, np.array([0.0, 1e-9])], ids=["float", "array"])
    def test_vanishing_transmission_is_an_invalid_parameter(self, bench, t, x):
        with pytest.raises(InvalidParameter, match="need a tandem transmission T with T"):
            exact_corrections(replace(bench, t=t, x=x))


class TestResonanceOracle:
    def test_residual_converged(self, bench):
        cfg = bench.at_phi(0.2 * bench.phi0)
        k_c = solve_resonance(cfg)
        assert abs(resonance_residual(cfg, k_c, round(
            (2 * cfg.l * k_c - math.pi) / (2 * math.pi)))) < 1e-11

    def test_brute_force_matches_exact_form(self):
        base = MosConfig(l=1e-4, wavelength=0.85e-6, t=0.002, t_m=0.05,
                         x=0.0, phi_r=math.pi - 1e-3)
        for frac in (0.0, 0.4, -0.6):
            cfg = base.at_phi(frac * base.phi0)
            k_c = solve_resonance(cfg)
            at_root = replace(cfg, wavelength=2 * math.pi / k_c)
            brute = dispersive_from_resonance(cfg)
            exact = exact_corrections(at_root).g_omega_exact
            assert brute == pytest.approx(exact, rel=1e-6)

    def test_brute_force_matches_lorentzian_form(self):
        # tight regime t << t_m << 1, x below 0.001 of the thin-tandem bound
        result = _check_mos_resonance(DEFAULT)
        assert result.passed, result.line()


class TestTwoPortSetpoint:
    def test_benchmark_numbers(self, bench):
        sp = two_port_setpoint(bench)
        assert sp.delta_x == pytest.approx(0.338204254e-9, abs=1e-12)
        assert sp.T_sym == pytest.approx(0.0392, abs=1e-15)
        assert sp.finesse == pytest.approx(80.14266973, rel=1e-9)

    def test_offset_reproduces_phi0(self, bench):
        sp = two_port_setpoint(bench)
        assert bench.k * sp.delta_x == bench.phi0

    def test_transmission_at_offset(self, bench):
        # the synthetic mirror at Phi = Phi0 transmits T_sym (thin-membrane
        # forms): T(Phi0) = t^2 Phi0/(2 Phi0^2) = 2 t^2/t_m^2
        sp = two_port_setpoint(bench)
        op = operating_point(bench.at_phi(bench.phi0))
        assert op.T == pytest.approx(sp.T_sym, rel=0.05)


class TestConfigValidation:
    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            MosConfig(l=0.0, wavelength=1e-6, t=0.1, t_m=0.2, x=0.0)
        with pytest.raises(ValueError):
            MosConfig(l=1e-4, wavelength=-1e-6, t=0.1, t_m=0.2, x=0.0)
        with pytest.raises(ValueError):
            MosConfig(l=1e-4, wavelength=1e-6, t=0.1, t_m=0.0, x=0.0)
        with pytest.raises(ValueError):
            MosConfig(l=1e-4, wavelength=1e-6, t=0.1, t_m=0.2, x=-1e-9)

    def test_x_tilde_is_transparency_peak(self):
        for phi_r in (0.0, math.pi / 2, math.pi, -2.0, 5.0):
            cfg = MosConfig(l=1e-4, wavelength=0.85e-6, t=0.014, t_m=0.1,
                            x=0.0, phi_r=phi_r)
            psi_at_tilde = 2 * cfg.k * cfg.x_tilde + phi_r
            assert math.cos(psi_at_tilde) == pytest.approx(-1.0, abs=1e-12)
            assert cfg.x_tilde >= 0.0
            assert cfg.x_tilde < cfg.wavelength / 2 + 1e-15

    def test_branch_index_steps_half_wavelength(self):
        cfg0 = MosConfig(l=1e-4, wavelength=0.85e-6, t=0.014, t_m=0.1, x=0.0, N=0)
        cfg3 = replace(cfg0, N=3)
        assert cfg3.x_tilde - cfg0.x_tilde == pytest.approx(
            3 * cfg0.wavelength / 2, rel=1e-14, abs=0.0
        )

    def test_branch_index_must_be_whole(self, bench):
        # a fractional N would put at_phi(0) half a branch off transparency
        with pytest.raises(InvalidParameter, match="branch index N must be an integer"):
            replace(bench, N=0.7)
        whole = replace(bench, N=2.0)  # a float from a config file is fine
        assert operating_point(whole.at_phi(0.0)).T == pytest.approx(
            operating_point(bench.at_phi(0.0)).T, rel=1e-9)

    def test_regime_subconditions_reported_separately(self, bench):
        flags = bench.regime()
        assert flags["t_m_sq_below_t"] is True  # 0.01 < 0.014
        assert flags["t_over_t_m"] == pytest.approx(0.14)
        assert flags["t_m"] == 0.1
        weak = MosConfig(l=1e-4, wavelength=0.85e-6, t=0.005, t_m=0.1, x=0.0)
        assert weak.regime()["t_m_sq_below_t"] is False
