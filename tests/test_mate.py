"""Membrane-at-the-edge tests: resonance bracketing against the explicit
solution family, closed-form slopes against re-solved resonances, the
zero-dispersive benchmark, and the synthetic-mirror equivalence."""

import math
from dataclasses import replace

import numpy as np
import pytest

from optomech import (
    BranchAmbiguity,
    InvalidParameter,
    MateConfig,
    NoRootInWindow,
    classify_branch,
    mate_dispersive_constant,
    mate_exact_decay,
    mate_resonances,
    mate_zero_dispersive,
)
from optomech.constants import C_LIGHT
from optomech.mate import resonance_residual
from optomech.validation import PROFILES, _check_mate_dkdx, _check_mate_resonances

DEFAULT = PROFILES["default"]


@pytest.fixture
def cfg():
    return MateConfig(l=1e-4, x=1e-6, t=0.014, t_m=0.1,
                      wavelength=0.85e-6, phi_r=math.pi)


def constructed_root(cfg, cos_b_angle, x_want):
    """Exact resonance point (k, x) with 2kx - kl = cos_b_angle (mod 2 pi).

    Solves cos(k l + phi_r) = -r_m cos(B) by picking k from the phase of
    the full cavity and then x (nearest to x_want on the half-wavelength
    lattice) from the B-equation; returns a replaced config and k.
    """
    target = math.acos(min(1.0, max(-1.0, -cfg.r_m * math.cos(cos_b_angle))))
    big_m = round((cfg.k * cfg.l + cfg.phi_r - target) / (2 * math.pi))
    k = (target - cfg.phi_r + 2 * math.pi * big_m) / cfg.l
    m_small = round((2 * k * x_want - k * cfg.l - cos_b_angle) / (2 * math.pi))
    x = (cos_b_angle + k * cfg.l + 2 * math.pi * m_small) / (2 * k)
    while x <= 0.0:
        m_small += 1
        x = (cos_b_angle + k * cfg.l + 2 * math.pi * m_small) / (2 * k)
    return replace(cfg, x=x), k


class TestResonances:
    def test_bracketed_root_benchmark(self, cfg):
        fsr = math.pi / cfg.l
        roots = mate_resonances(cfg, (7.39e6 - fsr / 2, 7.39e6 + fsr / 2))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(7393861.9546902, rel=1e-12)
        assert abs(resonance_residual(cfg, roots[0])) < 1e-12

    def test_all_roots_in_wide_window(self, cfg):
        fsr = math.pi / cfg.l
        roots = mate_resonances(cfg, (cfg.k - 5 * fsr, cfg.k + 5 * fsr))
        assert len(roots) >= 9
        assert roots == sorted(roots)
        for r in roots:
            assert abs(resonance_residual(cfg, r)) < 1e-12

    def test_empty_window(self, cfg):
        roots = mate_resonances(cfg, (7.39e6 - math.pi / (2 * cfg.l),
                                      7.39e6 + math.pi / (2 * cfg.l)))
        gap_lo = roots[0] + 1e3
        with pytest.raises(NoRootInWindow):
            mate_resonances(cfg, (gap_lo, gap_lo + 2e3))

    def test_transparent_membrane_comb(self, cfg):
        clear = replace(cfg, t_m=1.0)
        fsr = math.pi / cfg.l
        roots = mate_resonances(clear, (cfg.k - 2 * fsr, cfg.k + 2 * fsr))
        for r in roots:
            assert math.cos(r * cfg.l + cfg.phi_r) == pytest.approx(0.0, abs=1e-10)

    def test_high_reflectivity_decoupling(self, cfg):
        # r_m -> 1: every root continues one of the two subcavity combs
        stiff = replace(cfg, t_m=0.005)
        fsr = math.pi / cfg.l
        roots = mate_resonances(stiff, (cfg.k - 3 * fsr, cfg.k + 3 * fsr))
        for r in roots:
            near_x = abs(math.cos(2 * r * stiff.x + stiff.phi_r) + 1.0)
            near_lx = abs(math.cos(2 * r * (stiff.l - stiff.x) + stiff.phi_r) + 1.0)
            assert min(near_x, near_lx) < 5e-4

    def test_roots_lie_on_explicit_family(self):
        result = _check_mate_resonances(DEFAULT)
        assert result.passed, result.line()


class TestDispersiveConstant:
    def test_closed_slope_matches_resolve_oracle(self):
        result = _check_mate_dkdx()
        assert result.passed, result.line()

    def test_sign_rule(self, cfg):
        # x-subcavity modes: positive constant; (l-x) modes: negative
        fsr = math.pi / cfg.l
        k_x_comb = 3 * math.pi / cfg.x  # x-subcavity antiresonance comb
        for window_center in (cfg.k, k_x_comb):
            roots = mate_resonances(
                cfg, (window_center - fsr, window_center + fsr)
            )
            for root in roots:
                md = mate_dispersive_constant(cfg, root)
                if classify_branch(cfg, root).family == "x":
                    assert md.g_omega0 > 0.0
                else:
                    assert md.g_omega0 < 0.0

    def test_maximum_modulus_point(self, cfg):
        # cos(k l - 2 k x) = 0 on the steep branch with x << l t_m^2/4:
        # constant approaches (omega_c) / (x + l t_m^2/4); long cavity so
        # the half-wavelength gap lattice sits far below the edge bound
        deep = replace(cfg, l=0.1, x=1e-6)
        at, k = constructed_root(deep, math.pi / 2, x_want=1e-6)
        assert at.x < 0.01 * at.near_edge_bound()
        assert abs(resonance_residual(at, k)) < 1e-9
        md = mate_dispersive_constant(at, k)
        assert md.slope_sign == -1
        omega_c = C_LIGHT * k
        assert md.g_omega0 == pytest.approx(
            omega_c / (at.x + at.l * at.t_m ** 2 / 4), rel=1e-2
        )
        assert md.g_omega0 == pytest.approx(
            4 * omega_c / (at.l * at.t_m ** 2), rel=2e-2
        )

    def test_both_slope_branches_at_half_cosine(self, cfg):
        # cos^2(k l - 2 k x) = 1/2 (the Phi = Phi0 neighbourhood): the two
        # mode families have constants omega_c/(x + l t_m^2/2) and
        # -omega_c/(l - x + l t_m^2/2)
        deep = replace(cfg, l=0.1, x=1e-6)
        minus_cfg, k_minus = constructed_root(deep, math.pi / 4, x_want=1e-6)
        md_minus = mate_dispersive_constant(minus_cfg, k_minus)
        omega_c = C_LIGHT * k_minus
        assert md_minus.slope_sign == -1
        assert md_minus.g_omega0 == pytest.approx(
            omega_c / (minus_cfg.x + deep.l * deep.t_m ** 2 / 2), rel=2e-2
        )
        plus_cfg, k_plus = constructed_root(deep, -math.pi / 4, x_want=1e-6)
        md_plus = mate_dispersive_constant(plus_cfg, k_plus)
        omega_c = C_LIGHT * k_plus
        assert md_plus.slope_sign == +1
        assert md_plus.g_omega0 == pytest.approx(
            -omega_c / (deep.l - plus_cfg.x + deep.l * deep.t_m ** 2 / 2), rel=2e-2
        )

    def test_singular_locus_raises(self, cfg):
        # x = l/2 makes cos(k l - 2 k x) = 1 identically
        mid = replace(cfg, x=cfg.l / 2)
        k = (math.acos(-mid.r_m) - mid.phi_r + 2 * math.pi * 200) / mid.l
        with pytest.raises(BranchAmbiguity):
            mate_dispersive_constant(mid, k)

    @pytest.mark.parametrize("call", [classify_branch, mate_dispersive_constant])
    def test_transparent_membrane_is_ambiguous(self, cfg, call):
        clear = replace(cfg, t_m=1.0)  # r_m = 0
        with pytest.raises(BranchAmbiguity, match=r"fully transparent \(r_m = 0\)"):
            call(clear, clear.k)


class TestZeroDispersive:
    def test_phase_offsets(self, cfg):
        zd = mate_zero_dispersive(cfg)
        assert zd.phi_star == (-0.05, 0.05)
        assert zd.phi_star[1] ** 2 == pytest.approx(cfg.phi0, rel=1e-12, abs=0.0)

    def test_benchmark_values(self, cfg):
        zd = mate_zero_dispersive(cfg)
        omega_c = cfg.omega_c
        assert zd.g_gamma0_mag == pytest.approx(
            omega_c * cfg.t ** 2 / (cfg.l * cfg.t_m), rel=1e-14
        )
        assert zd.gamma_mate == pytest.approx(
            C_LIGHT * cfg.t ** 2 / (2 * cfg.l), rel=1e-14
        )
        assert zd.ratio_to_mos == pytest.approx(2000.0, rel=1e-12)

    @pytest.mark.parametrize("geometry, cause", [
        ({"l": 1e-4, "x": 1e-6, "t": 1e-120, "t_m": 1e-110}, "ZeroDivisionError"),  # t_m^3
        ({"l": 1e-200, "x": 1e-201, "t": 0.5, "t_m": 1e-200}, "ZeroDivisionError"),  # l t_m
        ({"l": 1e-323, "x": 5e-324, "t": 1.0, "t_m": 1.0}, "inf"),  # gamma_mate
    ], ids=["t_m-cubed", "l-t_m", "gamma_mate"])
    def test_a_value_out_of_the_float_range_is_an_invalid_parameter(self, geometry, cause):
        cfg = MateConfig(**geometry, wavelength=0.85e-6)
        with pytest.raises(InvalidParameter,
                           match=rf"mate_zero_dispersive leaves the float range \({cause}\)"):
            mate_zero_dispersive(cfg)

    def test_ratio_is_closed_form_quotient(self, cfg):
        # |g^MOS(Phi0)| / |g^MATE(Phi*)| = (2 w t^2 / l t_m^4) / (w t^2 / l t_m)
        zd = mate_zero_dispersive(cfg)
        g_mos = 2 * cfg.omega_c * cfg.t ** 2 / (cfg.l * cfg.t_m ** 4)
        assert zd.ratio_to_mos == pytest.approx(g_mos / zd.g_gamma0_mag, rel=1e-12)

    def test_dispersive_dominates_at_phi0(self, cfg):
        # at Phi = Phi0 the dispersive constant is omega_c/(x + l t_m^2/2),
        # much larger than the dissipative one: ratio t^2/t_m^2
        deep = replace(cfg, x=2e-8)
        g_gamma_phi0 = 2 * deep.omega_c * deep.t ** 2 / (deep.l * deep.t_m ** 4)
        g_omega_minus = deep.omega_c / (deep.x + deep.l * deep.t_m ** 2 / 2)
        ratio = g_gamma_phi0 / g_omega_minus
        assert ratio == pytest.approx((deep.t / deep.t_m) ** 2, rel=5e-2)
        assert ratio < 0.05


class TestExactDecay:
    def test_antiresonant_limit(self, cfg):
        # cos(psi) = -1 with x far below the edge bound: the stored-energy
        # correction A vanishes and gamma matches the synthetic-mirror
        # value c T / (2 l); residual deviation is the built-in t << t_m
        # reduction of order 2 t^2/t_m^2
        long = replace(cfg, l=0.1, x=1e-6, t=0.001)
        k = long.k
        x = 2 * math.pi / k  # two half-waves: psi = 2kx + pi = pi (mod 2 pi)
        tiny = replace(long, x=x)
        dec = mate_exact_decay(tiny, k)
        assert abs(dec.A) < 1e-2
        assert dec.gamma_mate == pytest.approx(dec.gamma_reduced, rel=1e-2)
        # benchmark transmissions: deviation is A plus ~2 t^2/t_m^2
        bench = mate_exact_decay(replace(long, x=x, t=0.014), k)
        assert bench.gamma_mate == pytest.approx(
            bench.gamma_reduced, rel=3 * (0.014 / 0.1) ** 2 + 2 * abs(bench.A)
        )

    def test_decay_at_zero_dispersive_point(self, cfg):
        # psi = pi + 2 sqrt(Phi0): gamma = c t^2 / (2 l) up to thin-membrane
        # corrections
        phi_star = math.sqrt(cfg.phi0)
        x_star = (math.pi + 2 * phi_star - cfg.phi_r) / (2 * cfg.k) + \
            math.pi / cfg.k * 50
        at = replace(cfg, x=x_star)
        dec = mate_exact_decay(at, cfg.k)
        assert dec.gamma_mate == pytest.approx(
            C_LIGHT * cfg.t ** 2 / (2 * cfg.l), rel=5e-3
        )

    def test_reduced_derivative_bound(self, cfg):
        # |exact/reduced - 1| <= 4x/(l t_m^2) + O(lambda/l) away from the
        # transmission peak
        rng = np.random.default_rng(31)
        for _ in range(50):
            x = rng.uniform(1e-8, 2e-6)
            at = replace(cfg, x=x)
            psi_offset = rng.uniform(0.3, 2.6)  # keep sin(psi) away from 0
            k = (psi_offset + math.pi - at.phi_r + 2 * math.pi *
                 round(2 * 7.39e6 * x / (2 * math.pi))) / (2 * x)
            if not 1e6 < k < 5e8:
                continue
            dec = mate_exact_decay(at, k)
            bound = 4 * x / (at.l * at.t_m ** 2) + 20 * at.wavelength / at.l
            assert abs(dec.dgamma_dx / dec.dgamma_dx_reduced - 1.0) <= bound

    def test_matches_synthetic_mirror_slope(self, cfg):
        # reduced decay derivative equals the tandem slope (c k/l) dT/dpsi
        # up to the r r_m ~ 1 - (t^2 + t_m^2)/2 simplification
        from optomech import ElementSpec, synthetic_response
        tiny = replace(cfg, x=5e-9)
        k = cfg.k
        psi = 2 * k * tiny.x + tiny.phi_r
        resp = synthetic_response(psi, ElementSpec.mirror(tiny.t),
                                  ElementSpec.membrane(tiny.t_m, phi_r=tiny.phi_r))
        dec = mate_exact_decay(tiny, k)
        slope = (C_LIGHT * k / tiny.l) * resp.dT_dpsi  # = (c/2l) dT/dx
        assert dec.dgamma_dx_reduced == pytest.approx(
            slope, rel=tiny.t ** 2 + tiny.t_m ** 2
        )

    def test_thin_membrane_flag(self, cfg):
        assert mate_exact_decay(cfg, cfg.k).thin_membrane_regime
        thick = replace(cfg, t=0.5, t_m=0.1)
        assert not mate_exact_decay(thick, thick.k).thin_membrane_regime

    def test_derivative_is_gradient_of_decay(self, cfg):
        from optomech.numerics import central_diff_5pt
        at = replace(cfg, x=3e-7)
        k = cfg.k
        fd = central_diff_5pt(
            lambda x: mate_exact_decay(replace(at, x=x), k).gamma_mate, at.x, 1e-11
        )
        assert mate_exact_decay(at, k).dgamma_dx == pytest.approx(fd, rel=1e-5)

    def test_dissipative_over_decay_peaks_at_phi0(self, cfg):
        # grid over Phi via x at fixed k, deep in the near-edge regime:
        # |g_gamma|/gamma = |d(gamma)/dx| / (2 gamma) maximal at Phi = Phi0
        long = replace(cfg, l=0.1, x=1e-6)
        k = long.k
        phi0 = long.phi0
        fracs = np.linspace(0.2, 5.0, 1500)
        base_x = 6 * math.pi / k  # psi = pi at frac = 0
        ratios = []
        for frac in fracs:
            x = base_x + frac * phi0 / k
            dec = mate_exact_decay(replace(long, x=x), k)
            ratios.append(abs(dec.dgamma_dx) / (2 * dec.gamma_mate))
        top = fracs[int(np.argmax(ratios))]
        assert abs(top - 1.0) < 0.05


class TestConfig:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            MateConfig(l=1e-4, x=0.0, t=0.014, t_m=0.1, wavelength=0.85e-6)
        with pytest.raises(ValueError):
            MateConfig(l=1e-4, x=2e-4, t=0.014, t_m=0.1, wavelength=0.85e-6)
        with pytest.raises(ValueError):
            MateConfig(l=1e-4, x=1e-6, t=0.014, t_m=0.0, wavelength=0.85e-6)
