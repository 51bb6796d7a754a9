"""Membrane-outside model tests: zero-dispersive locus against the
bracketing oracle, operating-point limits, finite-gap corrections against
the brute-force resonance solver, and the two-port setpoint."""

import copy
import dataclasses
import math
import pickle
from dataclasses import replace
from fractions import Fraction

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
from optomech import mos as mos_mod
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


def _exists(call) -> bool:
    """Whether call() finds a zero-dispersive point: it returns, or raises the
    float-range InvalidParameter that follows existence; any other error
    propagates."""
    try:
        call()
    except NoZeroDispersivePoint:
        return False
    except InvalidParameter as exc:
        if "leaves the float range" not in str(exc):
            raise
    return True


#: (t, t_m) where 1 - r^2 r_m^2 and r^2 - r_m^2 of the rounded r and r_m cancel
SMALL_PAIRS = [(1e-7, 1e-6), (1e-9, 1e-8), (1e-10, 1e-9)]


def exact_t_star(t: float, t_m: float) -> Fraction:
    t_sq, t_m_sq = Fraction(t) ** 2, Fraction(t_m) ** 2
    return t_sq * (2 - t_m_sq) / (t_sq + t_m_sq - t_sq * t_m_sq)


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
        with pytest.raises(NoZeroDispersivePoint, match=r"\(t=0\.1 > t_m=0\.014\)$"):
            zero_dispersive_locus(t=0.1, t_m=0.014)
        # the message names the values that decided it; r and r_m round to 1 here
        with pytest.raises(NoZeroDispersivePoint,
                           match=r"^membrane more reflective than the mirror "
                                 r"\(t=3e-162 > t_m=2\.5e-162\)$"):
            zero_dispersive_locus(3e-162, 2.5e-162)

    @pytest.mark.parametrize("t, t_m, name", [
        (0.01, math.nan, "t_m"), (0.01, math.inf, "t_m"), (0.01, 0.0, "t_m"),
        (0.01, -0.1, "t_m"), (0.01, 1.5, "t_m"), (math.nan, 0.1, "t"),
        (math.inf, 0.1, "t"), (1.5, 0.1, "t"), (-0.01, 0.1, "t"),
    ])
    def test_out_of_range_inputs_are_invalid_parameters(self, t, t_m, name):
        rule = "lie in" if math.isfinite(t) and math.isfinite(t_m) else "be finite"
        with pytest.raises(InvalidParameter, match=f"^{name} must {rule}"):
            zero_dispersive_locus(t, t_m)

    def test_fully_transparent_mirror_has_no_locus(self):
        with pytest.raises(NoZeroDispersivePoint, match=r"fully transparent \(r = 0\)"):
            zero_dispersive_locus(1.0, 0.1)

    def test_equal_elements_merge_at_pi(self):
        locus = zero_dispersive_locus(0.05, 0.05)
        assert locus.psi_star[0] == pytest.approx(math.pi, abs=1e-12)
        assert locus.psi_star[1] == pytest.approx(math.pi, abs=1e-12)

    def test_existence_is_decided_by_t_above_t_m(self):
        # t_m within 1e-12 relative of t, where r and r_m round too coarsely to
        # decide; every 100th pair is a tie, which merges at exactly pi
        rng = np.random.default_rng(28)
        t = rng.uniform(1e-6, 1.0, 50_000)
        t_m = np.minimum(t * (1.0 + rng.uniform(-1.0, 1.0, t.size) * 1e-12), 1.0)
        t_m[::100] = t[::100]
        k, l = 2 * math.pi / 0.85e-6, 1e-4
        # and pairs whose squares underflow, in both orders
        tiny = [(1e-165, 1e-170), (1e-170, 1e-165), (3e-162, 2.5e-162), (2.5e-162, 3e-162),
                (5e-324, 1e-323), (1e-323, 5e-324)]
        pairs = list(zip(t.tolist(), t_m.tolist())) + tiny
        wrong = [(a, b) for a, b in pairs
                 if _exists(lambda: zero_dispersive_locus(a, b)) == (a > b)
                 or _exists(lambda: dissipative_constant_exact(a, b, k, l)) == (a > b)]
        assert wrong == []
        ties = [a for a, b in pairs if a == b]
        assert len(ties) >= 500
        assert all(zero_dispersive_locus(a, a).psi_star == (math.pi, math.pi) for a in ties)

    @pytest.mark.parametrize("t, t_m", SMALL_PAIRS + [(1e-170, 1e-165)])
    def test_transmission_of_small_elements_is_exact(self, t, t_m):
        # r and r_m round to within an ulp of 1 here; at the last pair t^2
        # and t_m^2 underflow too
        assert zero_dispersive_locus(t, t_m).T_star == pytest.approx(
            float(exact_t_star(t, t_m)), rel=1e-15, abs=0.0)

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

    # 4 t^2 underflows to 0 below about t = 1e-162: the bound is then its
    # t -> 0 limit, as at t = 0, not a division by zero
    @pytest.mark.parametrize("t", [0.0, 1e-161, 1e-170, 1e-300])
    def test_thin_tandem_bound_is_infinite_where_t_squared_underflows(self, bench, t):
        cfg = replace(bench, t=t)
        assert cfg.thin_tandem_bound() == math.inf
        assert operating_point(cfg).valid_thin_tandem

    # finite inputs that drive a scale out of the float range: l t_m^4
    # underflows to 0 (though g_00 is about 8.8e179), or (t / t_m)^2 overflows
    @pytest.mark.parametrize("t, t_m, scale, exc", [
        (1e-100, 1e-90, "g_00", "ZeroDivisionError"),
        (1.0, 1e-160, "gamma0", "OverflowError"),
    ])
    def test_scales_beyond_the_float_range_are_invalid_parameters(self, bench, t, t_m,
                                                                   scale, exc):
        cfg = replace(bench, t=t, t_m=t_m)
        with pytest.raises(InvalidParameter,
                           match=rf"^{scale} leaves the float range \({exc}\)$"):
            getattr(cfg, scale)
        with pytest.raises(InvalidParameter, match="leaves the float range"):
            operating_point(cfg)


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

    def test_fully_transparent_elements_have_no_point(self, bench):
        # zero_dispersive_locus's r = 0 rule, which holds at t = t_m = 1 too
        with pytest.raises(NoZeroDispersivePoint, match=r"fully transparent \(r = 0\)"):
            dissipative_constant_exact(1.0, 1.0, bench.k, bench.l)

    @pytest.mark.parametrize("args, message", [
        ({"t_m": math.nan}, "t_m must be finite"),
        ({"t_m": 1.5}, "t_m must lie in"),
        ({"t": math.nan}, "t must be finite"),
        ({"l": 0.0}, "l must be positive"),
        ({"l": -1e-4}, "l must be positive"),
        ({"k": math.inf}, "k must be finite"),
    ], ids=["t_m=nan", "t_m=1.5", "t=nan", "l=0", "l<0", "k=inf"])
    def test_bad_inputs_are_invalid_parameters(self, bench, args, message):
        kwargs = {"t": 0.014, "t_m": 0.1, "k": bench.k, "l": bench.l, **args}
        with pytest.raises(InvalidParameter, match=message):
            dissipative_constant_exact(**kwargs)

    @pytest.mark.parametrize("t, t_m", SMALL_PAIRS + [(1e-100, 1e-52)])
    def test_small_elements_are_exact(self, bench, t, t_m):
        # the square of the result is rational in t^2 and t_m^2
        t_sq, t_m_sq = Fraction(t) ** 2, Fraction(t_m) ** 2
        one_minus = t_sq + t_m_sq - t_sq * t_m_sq
        square = ((Fraction(C_LIGHT) * Fraction(bench.k) / Fraction(bench.l)) ** 2
                  * (t_sq / t_m_sq) ** 2 * 4 * (1 - t_m_sq) * (2 - t_m_sq) ** 2
                  * (t_m_sq - t_sq) / one_minus ** 3)
        assert dissipative_constant_exact(t, t_m, bench.k, bench.l) == pytest.approx(
            math.sqrt(float(square)), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("t, t_m, k, l", [
        (1e-170, 1e-165, 7e6, 1e-4),   # t^2 and t_m^2 underflow
        (0.01, 0.1, 1e300, 1e-300),    # c k / l overflows
    ], ids=["squares-underflow", "exact-overflows"])
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

    # T^2 is a subnormal, not 0, so l t_m^2 / T^2 overflows: dgamma_dx_exact
    # came out nan at t = 1e-79 and inf at 1e-78
    @pytest.mark.parametrize("t", [1e-79, 1e-78])
    @pytest.mark.parametrize("x", [0.0, np.array([0.0, 1e-9])], ids=["float", "array"])
    def test_subnormal_transmission_is_an_invalid_parameter(self, bench, t, x):
        with pytest.raises(InvalidParameter,
                           match="^exact_corrections leaves the float range"):
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
        result = _check_mos_resonance()
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


class TestAtPhi:
    """at_phi copies a config and screens only its new gap; the copy equals
    the config replace builds, and its tandem response is its own."""

    @staticmethod
    def replaced(cfg, phi):
        return replace(cfg, x=cfg.x_tilde + phi / cfg.k)

    @staticmethod
    def round_trips(cfg):
        return (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg)))

    @pytest.mark.parametrize("frac", [0.0, 1.0, -0.37])
    @pytest.mark.parametrize("fields", [{}, {"N": 3, "phi_r": -2.0}])
    def test_equals_the_replace_built_config(self, bench, frac, fields):
        base = replace(bench, **fields)
        operating_point(base)  # builds the elements and caches a response
        phi = frac * base.phi0
        got, want = base.at_phi(phi), self.replaced(base, phi)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert got.x == want.x and got.k == want.k
        for copied in self.round_trips(got):
            assert copied == want and hash(copied) == hash(want) and repr(copied) == repr(want)
        assert got.mirror is base.mirror and got.membrane is base.membrane
        assert operating_point(got) == operating_point(want)
        assert exact_corrections(got) == exact_corrections(want)

    def test_an_array_phi_equals_the_replace_built_config(self, bench):
        phi = np.linspace(-2.0, 2.0, 7) * bench.phi0
        got, want = bench.at_phi(phi), self.replaced(bench, phi)
        assert repr(got) == repr(want)
        for cfg in (got, *self.round_trips(got)):
            assert repr(cfg) == repr(want)
            assert all(np.array_equal(getattr(cfg, f.name), getattr(want, f.name))
                       for f in dataclasses.fields(MosConfig))
            with pytest.raises(TypeError, match="unhashable"):
                hash(cfg)
        with pytest.raises(TypeError, match="unhashable"):
            hash(want)
        np.testing.assert_array_equal(operating_point(got).T, operating_point(want).T)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf, -1.0,
                                     np.array([0.0, math.nan]), np.array([-1.0, 0.0])])
    def test_a_bad_gap_raises_the_replace_error(self, bench, phi):
        # phi = -1 puts the gap 1 / k below x_tilde = pi / (4 k), so below 0
        with pytest.raises(InvalidParameter) as got:
            bench.at_phi(phi)
        with pytest.raises(InvalidParameter) as want:
            self.replaced(bench, phi)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
        assert str(got.value).startswith(("x must be finite", "x must be non-negative"))

    def test_a_response_cached_at_one_gap_is_not_read_at_another(self, bench):
        cfg = bench.at_phi(0.3 * bench.phi0)
        first = operating_point(cfg)
        moved = cfg.at_phi(-0.6 * bench.phi0)
        fresh = synthetic_response(moved.psi, moved.mirror, moved.membrane)
        assert operating_point(moved).T == fresh.T != first.T
        assert exact_corrections(moved) == exact_corrections(self.replaced(cfg, -0.6 * bench.phi0))
        assert operating_point(cfg) == first

    def test_a_config_computes_its_response_once(self, bench, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return synthetic_response(*args)

        monkeypatch.setattr(mos_mod, "synthetic_response", counted)
        cfg = bench.at_phi(bench.phi0)
        operating_point(cfg)
        exact_corrections(cfg)
        assert len(calls) == 1
        mu = synthetic_response(cfg.psi, cfg.mirror, cfg.membrane).mu  # not counted
        assert mos_mod._mode_index(cfg) == round(
            (2.0 * cfg.l * cfg.k - math.pi + mu) / (2.0 * math.pi))
        assert len(calls) == 1
