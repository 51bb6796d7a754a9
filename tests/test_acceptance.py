"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single "ACCEPTANCE <name>: PASS/FAIL" line (visible
with pytest -s; the -v test status line mirrors it) and then asserts.
The oracle criteria run the `optomech validate` checks at fixed seeds and
sample counts and print each check's result line.
"""

import math

import numpy as np

from optomech import (
    DriveConfig,
    MateConfig,
    MosConfig,
    MsiConfig,
    NoZeroDispersivePoint,
    PortRates,
    cooperativity,
    general_spectra,
    homodyne_spectra,
    mate_zero_dispersive,
    msi_zero_dispersive,
    reproduce_figure,
    two_port_setpoint,
)
from optomech.numerics import bracket_roots
from optomech.validation import (
    PROFILES,
    CheckResult,
    _check_locus_oracle,
    _check_mate_dkdx,
    _check_mate_resonances,
    _check_msi_derivatives,
    _check_regime,
    _check_response_derivatives,
    _check_unitarity,
)

import scalar_reference

DEFAULT = PROFILES["default"]


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def report_check(name: str, result: CheckResult) -> None:
    report(name, result.passed, result.line())


def test_fig2_reproduction():
    ds = reproduce_figure("fig2")
    u = np.array(ds.columns["phi_over_phi0"])
    g_w = np.array(ds.columns["g_omega0_over_g00"])
    g_g = np.array(ds.columns["g_gamma0_over_g00"])
    closed_w = (1 - u ** 2) / (1 + u ** 2) ** 2
    closed_g = 2 * u / (1 + u ** 2) ** 2
    worst = max(float(np.max(np.abs(g_w - closed_w))),
                float(np.max(np.abs(g_g - closed_g))))
    at0 = int(np.where(u == 0.0)[0][0])
    at1 = int(np.where(u == 1.0)[0][0])
    worst = max(worst, abs(g_w[at0] - 1.0), abs(g_w[at1]), abs(g_g[at1] - 0.5))
    # both curves decay toward zero on the tail out to |Phi/Phi0| = 4
    # (monotonically beyond their outermost extrema at sqrt(3) and 1/sqrt(3))
    tail = u >= 2.0
    decaying = bool(np.all(np.diff(np.abs(g_w[tail])) <= 1e-12)
                    and np.all(np.diff(np.abs(g_g[tail])) <= 1e-12))
    edge_small = abs(g_w[-1]) < 0.06 and abs(g_g[-1]) < 0.03
    report(
        "fig2-reproduction",
        worst <= 1e-12 and decaying and edge_small,
        f"max closed-form deviation {worst:.2e} (tol 1e-12); "
        f"tail decays to ({g_w[-1]:.4f}, {g_g[-1]:.4f})",
    )


def test_fig3_reproduction():
    ds = reproduce_figure("fig3")
    u = np.array(ds.columns["phi_over_phi0"])
    got = np.array(ds.columns["gamma_over_gamma0"])
    worst = float(np.max(np.abs(got - 1 / (1 + u ** 2))))
    report(
        "fig3-reproduction",
        len(u) == 801 and worst <= 1e-12,
        f"801-point grid, max deviation {worst:.2e} (tol 1e-12)",
    )


def test_fig4_reproduction():
    ds = reproduce_figure("fig4")
    xi = np.array(ds.columns["xi"])
    at0 = int(np.where(xi == 0.0)[0][0])
    worst = 0.0
    for frac, at_zero, asym in ((0.0, 1.0, 2.0), (0.5, 1.5625, 2.5), (1.0, 2.25, 3.0)):
        big_a = 1 + frac / 2
        col = np.array(ds.columns[f"product_normalized_loss{int(100 * frac)}"])
        closed = (big_a ** 2 + 2 * big_a * xi ** 2) / (1 + xi ** 2)
        worst = max(worst, float(np.max(np.abs(col - closed))))
        worst = max(worst, abs(col[at0] - at_zero))
        # the tail approaches 2A with the exact Lorentzian residual
        residual = abs(big_a ** 2 - 2 * big_a) / (1 + xi[-1] ** 2)
        worst = max(worst, abs(abs(col[-1] - asym) - residual))
    # general-frequency solver reproduces the same products at omega = 1e-6 gamma
    gamma = 1.0e8
    worst_gen = 0.0
    for frac in (0.0, 0.5, 1.0):
        rates = PortRates(gamma, gamma, frac * gamma)
        for g_w, g_g in ((0.0, 3.0), (2.0, 2.0), (9.0, 3.0)):
            rep = homodyne_spectra(rates, DriveConfig(a0=1.0), g_w, g_g)
            s_xx, s_ff = general_spectra(
                rates, DriveConfig(delta=0.0, omega=1e-6 * gamma, a0=1.0),
                g_w, g_g, rep.theta_opt,
            )
            worst_gen = max(worst_gen, abs(s_xx * s_ff / rep.product - 1.0))
    report(
        "fig4-reproduction",
        worst <= 1e-12 and worst_gen <= 1e-4,
        f"closed-form deviation {worst:.2e} (tol 1e-12); "
        f"general solver relative {worst_gen:.2e} (tol 1e-4)",
    )


def test_single_photon_benchmark():
    cfg = MosConfig(l=1e-4, wavelength=0.85e-6, t=0.014, t_m=0.1, x=0.0)
    coop = cooperativity("mos", t=0.014, t_m=0.1, l=1e-4, wavelength=0.85e-6,
                         x_zpf=1e-15, gamma_m=0.1, a0=1.0)
    sp = two_port_setpoint(cfg)
    ok = (
        0.5 <= coop <= 2.0
        and abs(sp.T_sym - 0.0392) <= 1e-6
        and abs(sp.finesse - 80.0) <= 1.0
        and abs(sp.delta_x - 0.338e-9) <= 0.001e-9
    )
    report(
        "two-port-benchmark",
        ok,
        f"C = {coop:.4f} in [0.5, 2]; T_sym = {sp.T_sym}; "
        f"finesse = {sp.finesse:.3f}; delta_x = {sp.delta_x * 1e9:.4f} nm",
    )


def test_zero_dispersive_locus_oracle():
    report_check("zero-dispersive-locus-oracle",
                 _check_locus_oracle(np.random.default_rng(2024), DEFAULT, samples=100))


def test_derivative_oracles():
    rng = np.random.default_rng(77)
    tandem = _check_response_derivatives(rng, DEFAULT, samples=120)
    msi = _check_msi_derivatives(rng, DEFAULT, k=2 * math.pi / 0.85e-6, samples=120)
    report("derivative-oracles", tandem.passed and msi.passed,
           f"{tandem.line()}; {msi.line()}")


def _resonant_at_psi(cfg: MateConfig, psi: float) -> tuple[float, float]:
    """Resonant (k, x) with the membrane phase 2kx + phi_r pinned to psi."""
    two_kx = psi - cfg.phi_r

    def residual(z: float) -> float:  # z = k l
        return math.cos(z + cfg.phi_r) + cfg.r_m * math.cos(two_kx - z)

    z0 = cfg.k * cfg.l
    grid = list(np.linspace(z0 - math.pi, z0 + math.pi, 801))
    brackets = bracket_roots(residual, grid)
    assert brackets
    a, b, fa, fb = brackets[0]
    z = scalar_reference.bisect(residual, a, b, f_lo=fa, f_hi=fb, ftol=1e-13)
    k = z / cfg.l
    return k, two_kx / (2 * k)


def test_mate_resonance_oracle():
    family = _check_mate_resonances(DEFAULT)
    dkdx = _check_mate_dkdx(DEFAULT)
    cfg = MateConfig(l=1e-4, x=1e-6, t=0.014, t_m=0.1,
                     wavelength=0.85e-6, phi_r=math.pi)
    # zero-dispersive points: raw slope changes sign at Phi = +-t_m/2
    def raw_slope(phi: float) -> float:
        k, x = _resonant_at_psi(cfg, math.pi + 2 * phi)
        num = -2 * k * cfg.r_m * math.sin(2 * k * x - k * cfg.l)
        den = (cfg.l * math.sin(k * cfg.l + cfg.phi_r)
               + cfg.r_m * (2 * x - cfg.l) * math.sin(2 * k * x - k * cfg.l))
        return num / den

    crossings = []
    for lo, hi in ((0.04, 0.06), (-0.06, -0.04)):
        grid = list(np.linspace(lo, hi, 201))
        crossings += [0.5 * (a + b) for a, b, _, _ in bracket_roots(raw_slope, grid)
                      if a != b]
    phi_star_ok = len(crossings) == 2 and all(
        abs(abs(c) - cfg.t_m / 2) / (cfg.t_m / 2) < 1e-2 for c in crossings
    )
    report(
        "mate-resonance-oracle",
        family.passed and dkdx.passed and phi_star_ok,
        f"{family.line()}; {dkdx.line()}; slope sign changes at Phi = "
        f"{[round(c, 5) for c in crossings]} vs +-{cfg.t_m / 2}",
    )


def test_cross_system_benchmark():
    cfg = MateConfig(l=1e-4, x=1e-8, t=0.014, t_m=0.1, wavelength=0.85e-6)
    zd = mate_zero_dispersive(cfg)
    g_mos = 2 * cfg.omega_c * cfg.t ** 2 / (cfg.l * cfg.t_m ** 4)
    ratio_err = abs(g_mos / zd.g_gamma0_mag / (2 / cfg.t_m ** 3) - 1.0)
    rng = np.random.default_rng(55)
    k = 2 * math.pi / 0.85e-6
    msi_bounded = True
    for _ in range(200):
        msi_cfg = MsiConfig(
            r_ms=float(rng.uniform(0.05, 0.999)), l=1e-4, k=k,
            Tb_sq=float(rng.uniform(0.25, 0.75)),
        )
        try:
            benchmark = msi_zero_dispersive(msi_cfg).g_gamma0_benchmark
        except NoZeroDispersivePoint:
            continue
        if benchmark >= msi_cfg.omega_c / msi_cfg.l:
            msi_bounded = False
    report(
        "cross-system-benchmark",
        ratio_err < 1e-10 and msi_bounded,
        f"MOS:MATE ratio 2/t_m^3 relative error {ratio_err:.2e} (tol 1e-10); "
        f"MSI constant < omega_c/l on 200 random configurations: {msi_bounded}",
    )


def test_thin_tandem_regime():
    report_check("thin-tandem-regime",
                 _check_regime(np.random.default_rng(99), DEFAULT, samples=40))


def test_unitarity_suite():
    report_check("unitarity-suite",
                 _check_unitarity(np.random.default_rng(123), DEFAULT, samples=1000))
