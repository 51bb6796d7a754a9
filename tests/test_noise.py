"""Quantum-noise tests: the general-frequency solver against the closed
forms, the backaction-imprecision product and its lower bound, homodyne
optimality, and the cooperativity benchmarks."""

import math

import numpy as np
import pytest

from optomech import (
    DriveConfig,
    InvalidParameter,
    PortRates,
    ZeroCoupling,
    cooperativity,
    general_spectra,
    homodyne_spectra,
    product_normalized,
)
from optomech.constants import C_LIGHT, HBAR
from optomech.noise import mechanical_scale
from noise_reference import INPUT_BASIS, homodyne, psd, reference_spectra, solve_outputs

GAMMA = 1.0e8


def sym_rates(gamma3_frac=0.0):
    return PortRates(GAMMA, GAMMA, gamma3_frac * GAMMA)


class TestFluctuationSolver:
    """The module's equations solved by numpy (noise_reference.solve_outputs):
    their physics, general_spectra against them, and the checks on the
    rates and the drive."""

    def test_no_pump_no_signal(self):
        noise, signal, _ = solve_outputs(sym_rates(), DriveConfig(a0=0.0), 3.0, 4.0)
        assert signal[0] == 0.0
        assert signal[1] == 0.0
        assert psd(homodyne(noise, 0.0)) == pytest.approx(1.0, abs=1e-12)
        assert psd(homodyne(noise, 1.3)) == pytest.approx(1.0, abs=1e-12)

    def test_dissipative_signal_gain(self):
        # X_out1 gain = 2 a0 g_gamma0 sqrt(gamma) / (gamma + gamma3/2)
        for frac in (0.0, 0.5, 1.0):
            _, signal, _ = solve_outputs(sym_rates(frac), DriveConfig(a0=1.0), 0.0, 5.0)
            expected = 2 * 5.0 * math.sqrt(GAMMA) / (GAMMA + frac * GAMMA / 2)
            assert signal[0] == pytest.approx(expected, rel=1e-14, abs=0.0)
            assert signal[1] == 0.0

    def test_dispersive_signal_appears_in_phase_quadrature(self):
        _, signal, _ = solve_outputs(sym_rates(), DriveConfig(a0=1.0), 7.0, 0.0)
        assert signal[0] == 0.0
        assert signal[1] == pytest.approx(2 * 7.0 / math.sqrt(GAMMA), rel=1e-14, abs=0.0)

    def test_loss_scaling_of_gain(self):
        # doubling gamma3 rescales the gain by (gamma + gamma3/2)/(gamma + gamma3)
        drive = DriveConfig(delta=0.0, omega=1e-6 * GAMMA, a0=1.0)
        g1 = abs(solve_outputs(sym_rates(0.3), drive, 0.0, 5.0)[1][0])
        g2 = abs(solve_outputs(sym_rates(0.6), drive, 0.0, 5.0)[1][0])
        assert g2 / g1 == pytest.approx((GAMMA + 0.15 * GAMMA) / (GAMMA + 0.3 * GAMMA),
                                        rel=1e-9)

    def test_vacuum_output_normalization(self):
        # passive cavity: each output quadrature carries unit vacuum noise
        # at any detuning and frequency
        rng = np.random.default_rng(41)
        for _ in range(50):
            rates = PortRates(*(rng.uniform(0.1, 2.0, 3) * GAMMA))
            drive = DriveConfig(delta=rng.uniform(-2, 2) * GAMMA,
                                omega=rng.uniform(-2, 2) * GAMMA, a0=0.0)
            noise, _, _ = solve_outputs(rates, drive, 0.0, 0.0)
            for theta in (0.0, 0.7, math.pi / 2):
                assert psd(homodyne(noise, theta)) == pytest.approx(1.0, abs=1e-12)

    def test_general_spectra_match_a_numpy_solve(self):
        # the detuned, lossy, asymmetric terms, which neither the closed
        # forms nor the design queries reach
        rng = np.random.default_rng(2026)
        for _ in range(250):
            g1, g2, g3 = rng.uniform(0.1, 2.0, 3) * GAMMA
            delta, omega = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.05, 2.0, 2) * GAMMA
            a0, theta = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi)
            g_w, g_g = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.5, 5.0, 2)
            rates = PortRates(g1, g2, g3)
            drive = DriveConfig(delta=delta, omega=omega, a0=a0)
            noise, signal, force = solve_outputs(rates, drive, g_w, g_g)

            s_xx, s_ff = general_spectra(rates, drive, g_w, g_g, theta)
            # abs=0: approx's default 1e-12 absolute slack exceeds any S_FF
            assert s_xx == pytest.approx(
                psd(homodyne(noise, theta)) / abs(homodyne(signal, theta)) ** 2,
                rel=1e-12, abs=0.0)
            assert s_ff == pytest.approx(psd(force), rel=1e-12, abs=0.0)

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError):
            PortRates(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            PortRates(-1.0, 2.0, 0.0)

    @pytest.mark.parametrize("rates", [(math.nan, 1.0, 0.0), (1.0, math.nan, 0.0),
                                       (1.0, 1.0, math.inf), (1.0, 1.0, -math.inf)])
    def test_rates_must_be_finite(self, rates):
        with pytest.raises(InvalidParameter, match="must be finite"):
            PortRates(*rates)

    @pytest.mark.parametrize("drive", [{"a0": math.nan}, {"a0": math.inf},
                                       {"omega": math.nan}, {"delta": -math.inf}])
    def test_drive_must_be_finite(self, drive):
        with pytest.raises(InvalidParameter, match="must be finite"):
            DriveConfig(**drive)

    def test_out_of_range_noise_inputs_are_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            PortRates(-1.0, 2.0, 0.0)
        with pytest.raises(InvalidParameter):
            PortRates(0.0, 0.0, 0.0)
        with pytest.raises(InvalidParameter):
            DriveConfig(a0=-1.0)
        # finite values whose sum overflows are accepted
        assert DriveConfig(delta=1e308, omega=1e308).a0 == 1.0


class TestFusedSpectra:
    """general_spectra's one pass over the ports against the row
    decomposition of noise_reference, bit for bit."""

    def test_bit_identical_to_the_row_decomposition(self):
        rng = np.random.default_rng(11)
        cases = 0
        for gamma3_zero in (False, True):
            for g_zero in ("none", "g_gamma0", "g_omega0"):
                for omega_scale in (0.0, 1.0, 1e6):  # static, in-band, far above the band
                    for _ in range(40):
                        g1, g2, g3 = (float(v) for v in rng.uniform(0.05, 3.0, 3) * GAMMA)
                        if gamma3_zero:
                            g3 = 0.0
                        delta = float(rng.choice([0.0, rng.uniform(-2.0, 2.0) * GAMMA]))
                        omega = omega_scale * float(rng.uniform(0.01, 2.0)) * GAMMA
                        a0, theta = float(rng.uniform(0.1, 3.0)), float(rng.uniform(-4.0, 4.0))
                        g_w, g_g = (float(v) for v in rng.uniform(-5.0, 5.0, 2))
                        if g_zero == "g_gamma0":
                            g_g = 0.0
                        elif g_zero == "g_omega0":
                            g_w = 0.0
                        args = (PortRates(g1, g2, g3),
                                DriveConfig(delta=delta, omega=omega, a0=a0), g_w, g_g, theta)
                        assert general_spectra(*args) == reference_spectra(*args)
                        cases += delta != 0.0
        assert cases > 100  # the detuned drift inverse is exercised

    def test_errors_keep_their_order(self):
        # each case also breaks every later condition; the first one raised wins
        det_underflows = (PortRates(1e-320, 0.0, 0.0), DriveConfig(a0=0.0), 0.0, 1.0, 0.0)
        no_gain = (PortRates(1.0, 0.0, 0.0), DriveConfig(a0=0.0), 0.0, 1.0, 0.0)
        no_port2 = (PortRates(1.0, 0.0, 0.0), DriveConfig(a0=1.0), 0.0, 1.0, 0.0)
        for args, error, message in (
                (det_underflows, InvalidParameter, "^general_spectra leaves the float range"),
                (no_gain, ZeroCoupling, "^no signal transfer"),
                (no_port2, InvalidParameter, "^dissipative coupling requires gamma2 > 0")):
            for spectra in (general_spectra, reference_spectra):
                with pytest.raises(error, match=message):
                    spectra(*args)


class TestDeterminantRange:
    """The drift determinant vanishes only at Gamma = 0, which PortRates
    rejects; small rates are regular down to where |det| leaves the normal
    float range, and there the error is the float-range one."""

    @pytest.mark.parametrize("gamma3, delta, omega", [(0.0, 0.0, 0.0), (0.5, 0.8, 0.3)])
    def test_spectra_scale_exactly_with_the_rates(self, gamma3, delta, omega):
        # rates, delta and omega times 2^-500: S_xx scales with them and S_FF
        # inversely, and a power of two scales every step exactly while no
        # value leaves the normal range (det = 2^-1010 at the smaller rates)
        def spectra(scale):
            return general_spectra(
                PortRates(scale, scale, gamma3 * scale),
                DriveConfig(delta=delta * scale, omega=omega * scale, a0=1.0), 0.7, 1.3, 0.4)
        s_xx, s_ff = spectra(2.0 ** -5)
        assert spectra(2.0 ** -505) == (math.ldexp(s_xx, -500), math.ldexp(s_ff, 500))

    @pytest.mark.parametrize("rates", [
        PortRates(2.0 ** -512, 2.0 ** -512),  # det = 2^-1024, subnormal
        PortRates(1e-320, 0.0),               # det rounds to 0
        PortRates(1e155, 1e155),              # det overflows
    ])
    def test_det_outside_the_normal_range_is_the_float_range_error(self, rates):
        args = (rates, DriveConfig(a0=1.0), 0.7, 1.3, 0.4)
        for spectra in (general_spectra, reference_spectra):
            with pytest.raises(InvalidParameter,
                               match=r"^general_spectra leaves the float range \(\|det\| = "):
                spectra(*args)


class TestHomodyneSpectra:
    def test_optimal_angle(self):
        rep = homodyne_spectra(sym_rates(), DriveConfig(a0=1.0), 3.0, 4.0)
        assert rep.theta_opt == pytest.approx(math.atan2(3.0, 4.0))
        pure_disp = homodyne_spectra(sym_rates(), DriveConfig(a0=1.0), 5.0, 0.0)
        assert pure_disp.theta_opt == pytest.approx(math.pi / 2)
        assert math.isinf(pure_disp.xi)

    def test_closed_forms(self):
        rep = homodyne_spectra(sym_rates(0.5), DriveConfig(a0=2.0), 3.0, 4.0)
        half_width = GAMMA + 0.25 * GAMMA
        assert rep.s_xx_imp == pytest.approx(
            half_width ** 2 / (4 * 4.0 * GAMMA * 25.0), rel=1e-14
        )
        big_a = 1.25
        assert rep.A == pytest.approx(big_a)
        assert rep.s_ff == pytest.approx(
            HBAR ** 2 * 4.0 * GAMMA / half_width ** 2
            * (big_a ** 2 * 16.0 + 2 * big_a * 9.0), rel=1e-14, abs=0.0,
        )
        xi = 3.0 / 4.0
        assert rep.product / (HBAR ** 2 / 4) == pytest.approx(
            product_normalized(xi, big_a), rel=1e-14, abs=0.0
        )

    def test_product_floor_reached_without_loss(self):
        rep = homodyne_spectra(sym_rates(0.0), DriveConfig(a0=1.0), 0.0, 5.0)
        assert rep.product == pytest.approx(HBAR ** 2 / 4, rel=1e-14, abs=0.0)

    def test_fig4_anchor_points(self):
        for frac, at_zero, asymptote in ((0.0, 1.0, 2.0), (0.5, 1.5625, 2.5),
                                         (1.0, 2.25, 3.0)):
            big_a = 1 + frac / 2
            assert product_normalized(0.0, big_a) == pytest.approx(at_zero, abs=1e-15)
            assert product_normalized(math.inf, big_a) == pytest.approx(
                asymptote, abs=1e-15
            )
            rep = homodyne_spectra(sym_rates(frac), DriveConfig(a0=1.0), 0.0, 2.0)
            assert rep.product / (HBAR ** 2 / 4) == pytest.approx(at_zero, rel=1e-13,
                                                                  abs=0.0)

    def test_heisenberg_bound(self):
        # product >= (hbar^2/4) A >= hbar^2/4; equality only at xi=0, A=1
        for big_a in (1.0, 1.25, 1.5, 2.0):
            for xi in np.linspace(-30, 30, 301):
                value = product_normalized(float(xi), big_a)
                assert value >= big_a - 1e-13
                assert value >= 1.0 - 1e-13
                if big_a > 1.0 or xi != 0.0:
                    assert value > 1.0 - 1e-13
        assert product_normalized(0.0, 1.0) == 1.0

    def test_product_even_and_monotone(self):
        for big_a in (1.0, 1.25, 1.5, 2.0):
            grid = np.linspace(0.0, 20.0, 200)
            vals = [product_normalized(float(x), big_a) for x in grid]
            for x, v in zip(grid, vals):
                assert product_normalized(float(-x), big_a) == pytest.approx(
                    v, rel=1e-14, abs=0.0)
            diffs = np.diff(vals)
            assert np.all(diffs >= -1e-13)

    @pytest.mark.filterwarnings("error")
    def test_product_where_xi_squared_overflows_is_its_limit(self):
        # 2 A xi^2 overflows from |xi| ~ 9.5e153 (A = 1), xi^2 itself from
        # ~1.34e154; the product there is 2 A to rounding, as at infinite xi
        huge = [9.5e153, 1.34e154, 1e200, -1e300, math.inf, -math.inf]
        finite = [0.0, 3.0, 1e100, -1e150]
        for big_a in (1.0, 1.25, 1.5):
            assert [product_normalized(xi, big_a) for xi in huge] == [2.0 * big_a] * 6
            got = product_normalized(np.array(huge + finite + [math.nan]), big_a)
            assert got[:6].tolist() == [2.0 * big_a] * 6
            # values finite before are the quotient as written, bit for bit
            xi = np.array(finite)
            quotient = (big_a ** 2 + 2.0 * big_a * xi ** 2) / (1.0 + xi ** 2)
            assert got[6:10].tobytes() == quotient.tobytes()
            assert math.isnan(got[10]) and math.isnan(product_normalized(math.nan, big_a))

    def test_precondition_enforcement(self):
        with pytest.raises(ZeroCoupling):
            homodyne_spectra(sym_rates(), DriveConfig(a0=1.0), 0.0, 0.0)
        with pytest.raises(ValueError):
            homodyne_spectra(PortRates(GAMMA, 2 * GAMMA), DriveConfig(a0=1.0), 1.0, 1.0)
        with pytest.raises(ValueError):
            homodyne_spectra(sym_rates(), DriveConfig(delta=1.0, a0=1.0), 1.0, 1.0)
        with pytest.raises(ValueError):
            homodyne_spectra(sym_rates(), DriveConfig(a0=0.0), 1.0, 1.0)


SYM, RESTING = sym_rates(), DriveConfig()

#: finite arguments whose spectra leave the float range: a square that
#: overflows, a coupling sum that underflows to a zero divisor, a product of
#: one overflowed and one underflowed spectrum, and float products that
#: overflow without raising (a strong pump; rates tiny against the couplings)
OUT_OF_RANGE_SPECTRA = [
    (general_spectra, SYM, RESTING, (1e200, 1e200, 0.7)),
    (general_spectra, SYM, RESTING, (1e-200, 1e-200, 0.7)),
    (homodyne_spectra, SYM, RESTING, (1e200, 1e200)),
    (homodyne_spectra, SYM, RESTING, (1e-200, 1e-200)),
    (homodyne_spectra, SYM, RESTING, (1e-160, 1e-160)),
    (homodyne_spectra, SYM, RESTING, (1e154, 0.0)),
    (general_spectra, SYM, DriveConfig(a0=1e300), (1e10, 1e10, 0.7)),
    (general_spectra, PortRates(1e-150, 1e-150), RESTING, (1e200, 1e200, 0.7)),
]


def _spectra_id(spectra, rates, drive, couplings):
    setup = ("" if (rates, drive) == (SYM, RESTING)
             else f"-gamma1={rates.gamma1:g}-a0={drive.a0:g}")
    return f"{spectra.__name__}{couplings}{setup}"


@pytest.mark.parametrize("spectra, rates, drive, couplings", OUT_OF_RANGE_SPECTRA,
                         ids=[_spectra_id(*row) for row in OUT_OF_RANGE_SPECTRA])
def test_spectra_out_of_float_range_are_an_invalid_parameter(spectra, rates, drive,
                                                             couplings):
    with pytest.raises(InvalidParameter, match=f"^{spectra.__name__} leaves the float range"):
        spectra(rates, drive, *couplings)


class TestGeneralSolverAgreement:
    @pytest.mark.parametrize("g_w,g_g,frac", [
        (0.0, 5.0, 0.0), (3.0, 4.0, 0.5), (7.0, 2.0, 1.0), (1.0, 1.0, 0.25),
    ])
    def test_low_frequency_reproduction(self, g_w, g_g, frac):
        rates = sym_rates(frac)
        rep = homodyne_spectra(rates, DriveConfig(a0=1.0), g_w, g_g)
        s_xx, s_ff = general_spectra(
            rates, DriveConfig(delta=0.0, omega=1e-6 * GAMMA, a0=1.0),
            g_w, g_g, rep.theta_opt,
        )
        assert s_xx == pytest.approx(rep.s_xx_imp, rel=1e-4)
        assert s_ff == pytest.approx(rep.s_ff, rel=1e-4, abs=0.0)
        assert s_xx * s_ff == pytest.approx(rep.product, rel=2e-4, abs=0.0)

    def test_rotating_away_from_optimum(self):
        rates = sym_rates(0.3)
        rep = homodyne_spectra(rates, DriveConfig(a0=1.0), 3.0, 4.0)
        drive = DriveConfig(delta=0.0, omega=1e-6 * GAMMA, a0=1.0)
        best, _ = general_spectra(rates, drive, 3.0, 4.0, rep.theta_opt)
        for offset in np.linspace(-1.5, 1.5, 41):
            if abs(offset) < 1e-9:
                continue
            s_xx, _ = general_spectra(rates, drive, 3.0, 4.0, rep.theta_opt + offset)
            assert s_xx >= best * (1 - 1e-10)

    def test_port3_noise_quadrature_symmetry(self):
        # the loss port must feed the Y equation through its own Y
        # quadrature: then the detected noise is angle-independent (unit)
        # and the closed-form product holds; if X_in3 fed both equations,
        # the output would carry angle-dependent excess noise
        rates = sym_rates(1.0)
        drive = DriveConfig(delta=0.0, omega=0.0, a0=1.0)
        noise, _, _ = solve_outputs(rates, drive, 3.0, 4.0)
        for theta in np.linspace(0, math.pi, 13):
            assert psd(homodyne(noise, theta)) == pytest.approx(1.0, abs=1e-12)
        # typo variant: port-3 noise entering Y as X_in3 correlates the
        # quadratures and inflates the noise by gamma gamma3 sin(2 theta)
        # / (gamma + gamma3/2)^2 at resonance
        kappa = GAMMA + 0.5 * GAMMA
        x_in3, y_in3 = INPUT_BASIS.index("X_in3"), INPUT_BASIS.index("Y_in3")
        typo = noise.copy()
        typo[1, x_in3] = typo[1, y_in3]  # move the Y-row loss noise onto X_in3
        typo[1, y_in3] = 0.0
        for theta in np.linspace(0.1, math.pi / 2 - 0.1, 7):
            typo_psd = psd(homodyne(typo, theta))
            excess = GAMMA * GAMMA * math.sin(2 * theta) / kappa ** 2
            assert typo_psd == pytest.approx(1.0 + excess, rel=1e-10)
            assert typo_psd > 1.0

    def test_force_noise_matches_closed_form_pieces(self):
        rates = sym_rates(1.0)
        drive = DriveConfig(delta=0.0, omega=0.0, a0=1.5)
        _, _, force = solve_outputs(rates, drive, 0.0, 2.0)
        # pure dissipative force: only Y_in2 contributes
        y_in2 = INPUT_BASIS.index("Y_in2")
        expected = HBAR * 1.5 * 2.0 / math.sqrt(GAMMA)
        assert abs(force[y_in2]) == pytest.approx(expected, rel=1e-14, abs=0.0)
        assert np.sum(np.abs(np.delete(force, y_in2))) == 0.0


class TestCooperativity:
    BENCH = dict(t=0.014, t_m=0.1, l=1e-4, wavelength=0.85e-6,
                 x_zpf=1e-15, gamma_m=0.1, a0=1.0)

    def test_single_photon_benchmark(self):
        value = cooperativity("mos", **self.BENCH)
        assert value == pytest.approx(1.2842768403631, rel=1e-12)
        assert 0.5 < value < 2.0

    def test_quadratic_in_pump(self):
        for system, extra in (("mos", {}), ("msi", {"r_ms": 0.9, "gamma_ms": 1e9,
                                                    "omega_m": 1e6}),
                              ("mate", {"omega_m": 1e6})):
            params = {**self.BENCH, **extra}
            if system == "msi":
                params.pop("t", None)
                params.pop("t_m", None)
            zero = cooperativity(system, **{**params, "a0": 0.0})
            assert zero == 0.0
            one = cooperativity(system, **{**params, "a0": 1.0})
            two = cooperativity(system, **{**params, "a0": 2.0})
            assert two == pytest.approx(4 * one, rel=1e-13, abs=0.0)

    def test_mos_to_mate_ratio(self):
        gamma_mate = C_LIGHT * 0.014 ** 2 / (2 * 1e-4)
        omega_m = 0.05 * gamma_mate  # 2 omega / gamma_mate = 0.1
        c_mos = cooperativity("mos", **self.BENCH)
        c_mate = cooperativity("mate", omega_m=omega_m, **self.BENCH)
        assert c_mos / c_mate == pytest.approx(4 / (0.1 ** 4 * 0.01), rel=1e-12)

    def test_msi_form(self):
        gamma_ms = 1e10
        omega_m = 2e6
        value = cooperativity("msi", r_ms=0.9, gamma_ms=gamma_ms, omega_m=omega_m,
                              l=1e-4, wavelength=0.85e-6, x_zpf=1e-15,
                              gamma_m=0.1, a0=1.0)
        k = 2 * math.pi / 0.85e-6
        m_scale = C_LIGHT * (k * 1e-15) ** 2 / (1e-4 * 0.1)
        assert value == pytest.approx(
            2 * m_scale * 0.81 * (2 * omega_m / gamma_ms) ** 2, rel=1e-13, abs=0.0
        )

    @pytest.mark.parametrize("system, name, value", [
        ("mos", "wavelength", 0.0), ("mos", "t_m", 0.0), ("mos", "l", 0.0),
        ("mos", "gamma_m", 0.0), ("msi", "wavelength", 0.0), ("msi", "l", 0.0),
        ("msi", "gamma_m", 0.0), ("msi", "gamma_ms", 0.0), ("mate", "wavelength", 0.0),
        ("mate", "t_m", 0.0), ("mate", "t", 0.0), ("mate", "l", 0.0),
        ("mate", "gamma_m", 0.0), ("mos", "wavelength", -1e-6), ("mos", "l", -1e-4),
    ])
    def test_zero_divisor_is_an_invalid_parameter(self, system, name, value):
        params = {**self.BENCH, "omega_m": 1e6}
        if system == "msi":
            params.update(r_ms=0.9, gamma_ms=1e9)
            del params["t"], params["t_m"]
        if system == "mos":
            del params["omega_m"]
        params[name] = value
        rule = r"lie in \(0, 1\]" if name in ("t", "t_m") else "be positive"
        with pytest.raises(InvalidParameter, match=f"^{name} must {rule}"):
            cooperativity(system, **params)

    @pytest.mark.parametrize("system, name, value", [
        ("mos", "x_zpf", math.nan), ("mos", "t", math.nan),
        ("msi", "a0", math.nan), ("mate", "omega_m", math.inf),
    ])
    def test_non_finite_argument_is_an_invalid_parameter(self, system, name, value):
        params = {**self.BENCH, "omega_m": 1e6}
        if system == "msi":
            params.update(r_ms=0.9, gamma_ms=1e9)
            del params["t"], params["t_m"]
        if system == "mos":
            del params["omega_m"]
        params[name] = value
        with pytest.raises(InvalidParameter, match=f"^{name} must be finite"):
            cooperativity(system, **params)

    @pytest.mark.parametrize("system, params", [
        ("mos", dict(t=1e-3, t_m=1e-60)),                # t_m^6 underflows to 0
        ("mate", dict(t=1e-200, t_m=0.1, omega_m=1e6)),  # gamma_mate underflows to 0
        ("msi", dict(r_ms=0.9, gamma_ms=1e-200, omega_m=1e200)),  # inf
        ("msi", dict(r_ms=0.9, gamma_ms=1e-10, omega_m=1e150)),   # a square overflows
    ])
    def test_result_out_of_float_range_is_an_invalid_parameter(self, system, params):
        mech = dict(l=1e-4, wavelength=0.85e-6, x_zpf=1e-15, gamma_m=0.1)
        with pytest.raises(InvalidParameter,
                           match=f"^cooperativity_{system} leaves the float range"):
            cooperativity(system, **params, **mech)

    @pytest.mark.parametrize("system, name, value, message", [
        ("mos", "t", 2.0, r"t must lie in \[0, 1\]"),
        ("mos", "t", -0.1, r"t must lie in \[0, 1\]"),
        ("mos", "t_m", 1.5, r"t_m must lie in \(0, 1\]"),
        ("mate", "t", 2.0, r"t must lie in \(0, 1\]"),
        ("msi", "r_ms", 1.2, r"r_ms must lie in \[0, 1\]"),
        ("mos", "x_zpf", -1e-15, "x_zpf must be positive"),
        ("msi", "x_zpf", 0.0, "x_zpf must be positive"),
        ("mos", "a0", -1.0, "a0 must be non-negative"),
        ("mate", "a0", -1.0, "a0 must be non-negative"),
    ])
    def test_argument_out_of_range_is_an_invalid_parameter(self, system, name, value,
                                                           message):
        params = {**self.BENCH, "omega_m": 1e6}
        if system == "msi":
            params.update(r_ms=0.9, gamma_ms=1e9)
            del params["t"], params["t_m"]
        if system == "mos":
            del params["omega_m"]
        params[name] = value
        with pytest.raises(InvalidParameter, match=message):
            cooperativity(system, **params)

    def test_mechanical_scale_out_of_float_range_is_an_invalid_parameter(self):
        with pytest.raises(InvalidParameter, match="^mechanical_scale leaves the float range"):
            mechanical_scale(wavelength=0.85e-6, l=1e-4, x_zpf=1e200, gamma_m=0.1)
        with pytest.raises(InvalidParameter, match="^mechanical_scale leaves the float range"):
            mechanical_scale(wavelength=0.85e-6, l=1e-200, x_zpf=1e-15, gamma_m=1e-200)

    def test_mechanical_scale_checks_its_divisors(self):
        args = dict(wavelength=0.85e-6, l=1e-4, x_zpf=1e-15, gamma_m=0.1)
        for name in ("wavelength", "l", "gamma_m"):
            with pytest.raises(InvalidParameter, match=f"^{name} must be positive"):
                mechanical_scale(**{**args, name: 0.0})

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            cooperativity("mim", t=0.1, t_m=0.2, l=1e-4, wavelength=1e-6,
                          x_zpf=1e-15, gamma_m=0.1)
