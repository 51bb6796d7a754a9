"""Michelson-Sagnac effective-mirror tests: unitarity identity, the
zero-dispersive displacement, derivative oracles, and the benchmark
against the membrane-outside dissipative constant."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from optomech import (
    InvalidElement,
    InvalidParameter,
    MsiConfig,
    NoZeroDispersivePoint,
    msi_couplings,
    msi_effective_mirror,
    msi_zero_dispersive,
)
from optomech.numerics import central_diff_5pt
from optomech.validation import PROFILES, _check_msi_derivatives

K_REF = 2 * math.pi / 0.85e-6
L_REF = 1e-4


def make_cfg(r_ms=0.9, Tb_sq=0.48, x=0.0):
    return MsiConfig(r_ms=r_ms, l=L_REF, k=K_REF, x=x, Tb_sq=Tb_sq)


class TestEffectiveMirror:
    def test_unitarity_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            cfg = make_cfg(
                r_ms=rng.uniform(0.05, 0.99),
                Tb_sq=rng.uniform(0.05, 0.95),
                x=rng.uniform(0, 1e-6),
            )
            em = msi_effective_mirror(cfg)
            assert abs(em.rho) ** 2 + em.tau ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_perfect_effective_reflector(self):
        # balanced splitter at 2kx = pi/2: both tau terms vanish
        cfg = make_cfg(Tb_sq=0.5, x=math.pi / (4 * K_REF))
        em = msi_effective_mirror(cfg)
        assert em.tau == pytest.approx(0.0, abs=1e-12)
        assert abs(em.rho) == pytest.approx(1.0, abs=1e-12)

    def test_coefficient_validation(self):
        with pytest.raises(InvalidElement):
            MsiConfig(r_ms=1.2, l=L_REF, k=K_REF)

    def test_a_caller_sets_only_r_ms_l_k_x_and_tb_sq(self):
        init = [f for f in fields(MsiConfig) if f.init]
        assert [f.name for f in init] == ["r_ms", "l", "k", "x", "Tb_sq"]
        assert all(f.kw_only for f in init)

    @pytest.mark.parametrize("name, value", [("R_b", 0.6), ("T_b", 0.8), ("t_ms", 0.8)])
    def test_derived_fields_cannot_be_set(self, name, value):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            MsiConfig(r_ms=0.6, l=L_REF, k=K_REF, Tb_sq=0.64, **{name: value})

    def test_derived_fields(self):
        cfg = MsiConfig(r_ms=0.9, l=L_REF, k=K_REF, x=1e-7, Tb_sq=0.48)
        assert (cfg.R_b, cfg.T_b, cfg.t_ms) == (
            math.sqrt(1.0 - 0.48), math.sqrt(0.48), math.sqrt(1.0 - 0.9 * 0.9))
        assert MsiConfig.balanced(0.9, L_REF, K_REF, 1e-7, 0.48) == cfg

    def test_fully_transmissive_effective_mirror(self):
        # reflective membrane + balanced splitter at the symmetric point:
        # rho = 0, the effective-mirror phase is undefined
        from optomech import DegenerateDenominator
        cfg = make_cfg(r_ms=1.0, Tb_sq=0.5, x=0.0)
        with pytest.raises(DegenerateDenominator):
            msi_couplings(cfg)


class TestCouplings:
    def test_symmetric_rest_position(self):
        # x = 0 with a balanced splitter: sin 2kx = 0 kills dtau/dx
        cpl = msi_couplings(make_cfg(Tb_sq=0.5, x=0.0))
        assert cpl.dtau_dx == 0.0
        assert cpl.g_gamma0 == 0.0

    def test_derivatives_match_finite_differences(self):
        result = _check_msi_derivatives(np.random.default_rng(17), PROFILES["default"],
                                        k=K_REF, samples=60)
        assert result.passed, result.line()

    def test_decay_from_transmission(self):
        cfg = make_cfg(x=2e-7)
        cpl = msi_couplings(cfg)
        em = msi_effective_mirror(cfg)
        assert cpl.gamma_ms == pytest.approx(
            299792458.0 * em.tau ** 2 / (2 * L_REF), rel=1e-14
        )


class TestZeroDispersive:
    def test_balanced_splitter_quarter_wave(self):
        zd = msi_zero_dispersive(make_cfg(Tb_sq=0.5))
        assert 2 * K_REF * zd.x_star == pytest.approx(math.pi / 2, abs=1e-12)
        assert zd.tau_star == pytest.approx(0.0, abs=1e-15)
        # balanced locus repeats every quarter wavelength
        for branch, phase in ((1, 3 * math.pi / 2), (2, math.pi / 2 + 2 * math.pi)):
            other = msi_zero_dispersive(make_cfg(Tb_sq=0.5), branch=branch)
            assert 2 * K_REF * other.x_star == pytest.approx(phase, abs=1e-9)
            at = msi_couplings(replace(make_cfg(Tb_sq=0.5), x=other.x_star))
            assert abs(at.dmu_dx) < 1e-8 * 2 * K_REF

    @pytest.mark.parametrize("branch", [0, 1, 2, 3.0, -1])
    def test_g_gamma0_is_the_exact_coupling_at_the_point(self, branch):
        cfg = make_cfg(r_ms=0.9, Tb_sq=0.48)
        zd = msi_zero_dispersive(cfg, branch=branch)
        assert zd.g_gamma0 == msi_couplings(replace(cfg, x=zd.x_star)).g_gamma0

    @pytest.mark.parametrize("branch", [1.5, 0.25, math.inf, math.nan])
    def test_fractional_branch_rejected(self, branch):
        with pytest.raises(InvalidParameter, match="branch must be an integer"):
            msi_zero_dispersive(make_cfg(), branch=branch)

    def test_tau_at_locus(self):
        zd = msi_zero_dispersive(make_cfg(r_ms=0.9, Tb_sq=0.48))
        assert zd.tau_star == pytest.approx(-0.0917662935482, abs=1e-12)
        # exact identity tau* = (T_b^2 - R_b^2)/t_ms
        assert zd.tau_star == pytest.approx((0.48 - 0.52) / math.sqrt(0.19),
                                            rel=1e-12, abs=0.0)

    def test_mu_slope_vanishes_at_locus(self):
        cfg = make_cfg(r_ms=0.9, Tb_sq=0.48)
        zd = msi_zero_dispersive(cfg)
        at_star = replace(cfg, x=zd.x_star)

        def mu_of(x):
            return float(np.angle(msi_effective_mirror(replace(cfg, x=x)).rho))

        slope = central_diff_5pt(mu_of, zd.x_star, 1e-12)
        scale = 2 * K_REF * cfg.r_ms  # local derivative scale
        assert abs(msi_couplings(at_star).dmu_dx) < 1e-8 * scale
        assert abs(slope) < 1e-6 * scale  # finite-difference noise floor

    def test_slope_of_tau_near_quarter_wave(self):
        # balanced splitter at the locus: |dtau/dx| = 2 k r_ms exactly
        cfg = make_cfg(r_ms=0.7, Tb_sq=0.5)
        zd = msi_zero_dispersive(cfg)
        cpl = msi_couplings(replace(cfg, x=zd.x_star))
        assert abs(cpl.dtau_dx) == pytest.approx(2 * K_REF * 0.7, rel=1e-12)

    def test_decay_slope_benchmark(self):
        # exactly balanced splitter: tau* = 0, so the effective mirror is
        # perfectly reflective at the locus and the benchmark degenerates
        cfg = make_cfg(r_ms=0.8, Tb_sq=0.5)
        zd = msi_zero_dispersive(cfg)
        assert zd.T_ms == 0.0
        assert zd.g_gamma0_benchmark == 0.0
        # near-balanced: |d(gamma_ms)/dx| = 2 sqrt(T_ms) r_ms omega_c / l
        # holds to first order in the splitter imbalance
        cfg2 = make_cfg(r_ms=0.8, Tb_sq=0.48)
        zd2 = msi_zero_dispersive(cfg2)
        exact = abs(msi_couplings(replace(cfg2, x=zd2.x_star)).g_gamma0)
        assert zd2.g_gamma0_benchmark == pytest.approx(exact, rel=5e-3)

    def test_first_order_identities(self):
        cfg = make_cfg(r_ms=0.9, Tb_sq=0.49)
        zd = msi_zero_dispersive(cfg)
        # T_b^2 - R_b^2 = tau* t_ms exactly
        assert 0.49 - 0.51 == pytest.approx(zd.tau_star * cfg.t_ms, rel=1e-12, abs=0.0)
        # |cos 2kx*| = |r_ms tau*| to first order in the imbalance
        assert abs(zd.cos_2kx_star) == pytest.approx(
            abs(cfg.r_ms * zd.tau_star), rel=2 * abs(zd.tau_star) + 1e-3
        )
        assert abs(zd.cos_2kx_star) < 0.1

    def test_infeasible_condition(self):
        # strongly unbalanced splitter with a nearly opaque membrane:
        # |cos 2kx| would exceed 1
        cfg = MsiConfig(r_ms=0.9999, l=L_REF, k=K_REF, Tb_sq=0.05)
        with pytest.raises(NoZeroDispersivePoint):
            msi_zero_dispersive(cfg)

    def test_benchmark_below_frequency_pull_scale(self):
        # r_ms sqrt(T_ms) < 1 for every feasible configuration
        rng = np.random.default_rng(19)
        omega_c = 299792458.0 * K_REF
        for _ in range(200):
            cfg = make_cfg(
                r_ms=rng.uniform(0.1, 0.99),
                Tb_sq=rng.uniform(0.3, 0.7),
            )
            try:
                zd = msi_zero_dispersive(cfg)
            except NoZeroDispersivePoint:
                continue
            assert zd.g_gamma0_benchmark < omega_c / L_REF

    def test_mos_outperforms_on_shared_geometry(self):
        # |g^MOS| / |g^MSI| = 2 t^2 / (t_m^4 r_ms sqrt(T_ms)) > 1 when t_m^2 < t
        rng = np.random.default_rng(23)
        omega_c = 299792458.0 * K_REF
        for _ in range(100):
            t_m = rng.uniform(0.05, 0.3)
            t = rng.uniform(t_m ** 2 * 1.01, t_m * 0.5)
            r_ms = rng.uniform(0.2, 0.99)
            g_mos = 2 * omega_c * t ** 2 / (L_REF * t_m ** 4)
            zd = msi_zero_dispersive(make_cfg(r_ms=r_ms, Tb_sq=rng.uniform(0.4, 0.6)))
            if zd.g_gamma0_benchmark == 0.0:
                continue
            ratio = g_mos / zd.g_gamma0_benchmark
            assert ratio == pytest.approx(
                2 * t ** 2 / (t_m ** 4 * r_ms * math.sqrt(zd.T_ms)), rel=1e-12
            )
            assert ratio > 1.0
