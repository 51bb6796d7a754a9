"""Self-contained oracle checks: unitarity, finite differences,
closed-form/matrix agreement, resonance bracketing, and limit reductions.

Every check re-derives its reference by an independent route (matrix
elimination, five-point central differences, bracketed root finding) and
never trusts the closed form it is checking.  Failures are reported, not
raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import mate as mate_mod
from . import mos as mos_mod
from . import msi as msi_mod
from . import noise as noise_mod
from .constants import C_LIGHT
from .datasets import FIGURE_PARAMS, reproduce_figure
from .elements import (
    _membrane_matrix,
    _mirror_matrix,
    _response_closed_form,
    _tandem_by_elimination,
    _tandem_closed_form,
    reflectivity,
    synthetic_response,
    unitarity_defect,
)
from .errors import InvalidParameter
from .numerics import bisect, central_diff_5pt, grid_brackets


#: bounds on the error of a model or a limit, which no profile tightens
LOCUS_PHI0_SCALE = 3.0  # x t^2/t_m^2 relative window
LIMIT_VALUES_TOL = 1e-12
MATE_DKDX_REL = 1e-4
MOS_RESONANCE_REL = 1e-3
REGIME_REL = 1e-2


@dataclass(frozen=True, slots=True)
class ToleranceProfile:
    """Check tolerances; "strict" tightens where double precision allows."""

    name: str = "default"
    unitarity: float = 1e-10
    matrix_vs_closed_T: float = 1e-10
    matrix_vs_closed_tan_mu: float = 1e-8
    elimination_entry: float = 1e-12
    derivative_rel: float = 1e-6
    locus_psi: float = 1e-9
    noise_general_rel: float = 1e-4
    resonance_k_rel: float = 1e-10


PROFILES: dict[str, ToleranceProfile] = {
    "default": ToleranceProfile(),
    "strict": ToleranceProfile(
        name="strict",
        unitarity=1e-12,
        matrix_vs_closed_T=1e-12,
        matrix_vs_closed_tan_mu=1e-10,
        elimination_entry=1e-13,
        derivative_rel=1e-7,
        locus_psi=1e-10,
        resonance_k_rel=1e-11,
    ),
}


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def __post_init__(self) -> None:
        # plain Python values, whatever numpy scalar a check computed them as
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "measured", float(self.measured))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (
            f"{status}  {self.name}: measured {self.measured:.3e} "
            f"vs tolerance {self.tolerance:.3e}{extra}"
        )


@dataclass(slots=True)
class ValidationReport:
    suite: str
    profile: str
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        n_fail = sum(not c.passed for c in self.checks)
        out.append(
            f"{'PASS' if self.passed else 'FAIL'}  suite={self.suite} "
            f"profile={self.profile}: {len(self.checks) - n_fail}/{len(self.checks)} checks passed"
        )
        return out


def _uniform_block(rng: np.random.Generator, samples: int,
                   *bounds: tuple[float, float]) -> list[np.ndarray]:
    """samples rounds of rng.uniform(lo, hi), one draw per (lo, hi) of
    bounds in each round, drawn as one block: array j holds the j-th draw
    of every round, equal bit for bit to the scalar calls, and the
    generator ends in the same state.  A bound that depends on an earlier
    draw takes (0.0, 1.0) here and is scaled by the caller in Python
    floats, as lo + (hi - lo) * u."""
    u = rng.random((samples, len(bounds)))
    return [lo + (hi - lo) * u[:, j] for j, (lo, hi) in enumerate(bounds)]


def _uniform_columns(rng: np.random.Generator, samples: int,
                     *bounds: tuple[float, float]) -> list[list[float]]:
    """_uniform_block's draws as lists of Python floats."""
    return [column.tolist() for column in _uniform_block(rng, samples, *bounds)]


def _worst(*errors) -> float:
    """The largest of the errors (floats or arrays of them; 0.0 if there are
    none), or NaN if any is NaN: Python's max keeps a NaN only when it comes
    first, so a NaN from the closed form would pass as a small error."""
    return float(np.max(np.hstack((0.0, *errors))))


#: draw ranges of (t, t_m, phi_r, x, k) of a random mirror+membrane tandem
_TANDEM_BOUNDS = ((0.01, 0.99), (0.01, 0.99), (-math.pi, math.pi), (0.0, 2e-6), (1e6, 1e7))


def _tandem_draw(rng: np.random.Generator, samples: int) -> tuple[np.ndarray, ...]:
    """(t, r, t_m, r_m, phi_r, x, k) of samples random tandems, the
    arguments of the tandem kernels, with r and r_m derived as ElementSpec
    derives them."""
    t, t_m, phi_r, x, k = _uniform_block(rng, samples, *_TANDEM_BOUNDS)
    return t, reflectivity(t), t_m, reflectivity(t_m), phi_r, x, k


def _check_unitarity(rng: np.random.Generator, tol: ToleranceProfile,
                     samples: int) -> CheckResult:
    t, r, t_m, r_m, phi_r, x, k = _tandem_draw(rng, samples)
    # one defect per kind (mirror, membrane, tandem): its temporary arrays
    # stay a third the size of one stack of all three
    worst = _worst(*(unitarity_defect(s.as_array()) for s in (
        _mirror_matrix(t, r), _membrane_matrix(t_m, r_m, phi_r),
        _tandem_closed_form(t, r, t_m, r_m, phi_r, x, k))))
    return CheckResult("unitarity", worst <= tol.unitarity, worst, tol.unitarity,
                       f"{samples} random element/tandem matrices")


def _check_elimination(rng: np.random.Generator, tol: ToleranceProfile,
                       samples: int = 200) -> CheckResult:
    draw = _tandem_draw(rng, samples)
    closed = _tandem_closed_form(*draw).as_array()
    eliminated = _tandem_by_elimination(*draw).as_array()
    worst = _worst(np.abs(closed - eliminated).ravel())
    return CheckResult("tandem_closed_vs_elimination", worst <= tol.elimination_entry,
                       worst, tol.elimination_entry)


def _check_closed_vs_matrix(rng: np.random.Generator, tol: ToleranceProfile) -> CheckResult:
    k = 7.0e6
    samples = 1000
    t_m, t_frac, psi = _uniform_block(rng, samples, (0.2, 0.9), (0.05, 0.8),
                                      (0.0, 2.0 * math.pi))
    t = t_frac * t_m
    r, r_m = reflectivity(t), reflectivity(t_m)
    phi_r = math.pi / 2  # ElementSpec.membrane's default
    # numpy's % on floats is Python's, bit for bit
    x = (psi - phi_r) / (2.0 * k) % (math.pi / k)
    s = _tandem_closed_form(t, r, t_m, r_m, phi_r, x, k)
    resp = _response_closed_form(2.0 * k * x + phi_r, t, r, t_m, r_m)
    worst_t = _worst(np.abs(resp.T - np.abs(s.m11) ** 2))
    worst_mu = _worst(np.abs(np.tan(resp.mu) - np.tan(np.angle(-s.m21))))
    ok = worst_t <= tol.matrix_vs_closed_T and worst_mu <= tol.matrix_vs_closed_tan_mu
    return CheckResult(
        "closed_form_vs_matrix", ok, _worst(worst_t, worst_mu),
        max(tol.matrix_vs_closed_T, tol.matrix_vs_closed_tan_mu),
        f"T defect {worst_t:.2e}, tan(mu) defect {worst_mu:.2e}",
    )


def _check_response_derivatives(rng: np.random.Generator, tol: ToleranceProfile,
                                samples: int = 60) -> CheckResult:
    t_m, t_frac, psi, coin = _uniform_block(
        rng, samples, (0.2, 0.9), (0.1, 0.8), (0.4, math.pi - 0.4), (0.0, 1.0))
    psi = np.where(coin < 0.5, psi + math.pi, psi)  # both halves, away from sin(psi) = 0
    t = t_frac * t_m
    amplitudes = (t, reflectivity(t), t_m, reflectivity(t_m))
    resp = _response_closed_form(psi, *amplitudes)
    d_t = central_diff_5pt(lambda p: _response_closed_form(p, *amplitudes).T, psi, 1e-4)
    d_mu = central_diff_5pt(lambda p: _response_closed_form(p, *amplitudes).mu, psi, 1e-4)
    worst = _worst(np.abs(resp.dT_dpsi - d_t) / np.abs(d_t),
                   np.abs(resp.dmu_dpsi - d_mu) / np.abs(d_mu))
    return CheckResult("response_derivatives_fd", worst <= tol.derivative_rel,
                       worst, tol.derivative_rel, "dT/dpsi, dmu/dpsi vs 5-point FD")


def _check_msi_derivatives(rng: np.random.Generator, tol: ToleranceProfile,
                           k: float = 7.0e6, samples: int = 60) -> CheckResult:
    errors = []
    for r_ms, x_frac, tb_sq in zip(*_uniform_columns(
            rng, samples, (0.3, 0.95), (0.15, 0.6), (0.35, 0.65))):
        cfg = msi_mod.MsiConfig(
            r_ms=r_ms, l=1e-4, k=k, x=x_frac * math.pi / (2.0 * k), Tb_sq=tb_sq,
        )
        cpl = msi_mod.msi_couplings(cfg)
        d_tau = central_diff_5pt(
            lambda x: msi_mod.msi_effective_mirror(replace(cfg, x=x)).tau, cfg.x, 1e-12
        )
        d_mu = central_diff_5pt(
            lambda x: float(np.angle(msi_mod.msi_effective_mirror(replace(cfg, x=x)).rho)),
            cfg.x, 1e-12,
        )
        # a derivative near zero is compared against the scale 2 k r_ms
        floor = 1e-3 * 2 * k * cfg.r_ms
        errors += [abs(cpl.dtau_dx - d_tau) / max(abs(d_tau), floor),
                   abs(cpl.dmu_dx - d_mu) / max(abs(d_mu), floor)]
    worst = _worst(errors)
    return CheckResult("msi_derivatives_fd", worst <= tol.derivative_rel,
                       worst, tol.derivative_rel, "dtau/dx, dmu/dx vs 5-point FD")


def _check_locus_oracle(rng: np.random.Generator, tol: ToleranceProfile,
                        samples: int) -> CheckResult:
    # each sample's dmu/dpsi grid in one call, then every bracket of every
    # sample in one array bisection
    drawn = []
    brackets = []  # lo, hi, f(lo), f(hi), then t, r, t_m, r_m of the sample
    # a failing sample returns at once, with the generator already past the
    # draws of the samples after it
    for t_m, u in zip(*_uniform_columns(rng, samples, (0.03, 0.15), (0.0, 1.0))):
        lo, hi = 1.05 * t_m ** 2, 0.2 * t_m
        t = lo + (hi - lo) * u
        pair = (t, reflectivity(t), t_m, reflectivity(t_m))
        locus = mos_mod.zero_dispersive_locus(t, t_m)
        found = grid_brackets(lambda psi: _response_closed_form(psi, *pair).dmu_dpsi,
                              1e-3, 2.0 * math.pi - 1e-3, 4000)
        if len(found) != 2:
            return CheckResult("zero_dispersive_locus_oracle", False,
                               float(len(found)), 2.0,
                               f"expected 2 sign changes of dmu/dpsi, found {len(found)}")
        drawn.append((t, t_m, locus))
        brackets += [(*bracket, *pair) for bracket in found]
    lo, hi, f_lo, f_hi, *amplitudes = np.array(brackets, dtype=float).reshape(-1, 8).T
    # a degenerate bracket (an exact zero at a node) has f_lo = 0 and is
    # returned as is
    roots = bisect(lambda psi: _response_closed_form(psi, *amplitudes).dmu_dpsi,
                   lo, hi, f_lo=f_lo, f_hi=f_hi, ftol=0.0, xtol=1e-13)
    psi_errors = []
    phi_errors = []
    for (t, t_m, locus), (left, right) in zip(drawn, roots.reshape(-1, 2).tolist()):
        psi_errors += [abs(left - locus.psi_star[0]), abs(right - locus.psi_star[1])]
        phi0 = t_m ** 2 / 4.0
        half = (locus.psi_star[1] - math.pi) / 2.0
        phi_errors.append(abs(half - phi0) / phi0 / (t ** 2 / t_m ** 2))
    worst_psi = _worst(psi_errors)
    worst_phi = _worst(phi_errors)
    ok = worst_psi <= tol.locus_psi and worst_phi <= LOCUS_PHI0_SCALE
    return CheckResult(
        "zero_dispersive_locus_oracle", ok, worst_psi, tol.locus_psi,
        f"|dpsi| {worst_psi:.2e}; (psi*-pi)/2 vs Phi0 within "
        f"{worst_phi:.2f} x t^2/t_m^2 (limit {LOCUS_PHI0_SCALE})",
    )


def _check_mos_limits() -> CheckResult:
    cfg = mos_mod.MosConfig(**FIGURE_PARAMS, x=0.0)
    at0 = mos_mod.operating_point(cfg.at_phi(0.0))
    at1 = mos_mod.operating_point(cfg.at_phi(cfg.phi0))
    sp = mos_mod.two_port_setpoint(cfg)
    worst = _worst(abs(at0.g_omega0 / at0.g_00 - 1.0), abs(at0.g_gamma0),
                   abs(at0.gamma / cfg.gamma0 - 1.0),
                   abs(at1.g_omega0 / at1.g_00), abs(at1.g_gamma0 / at1.g_00 - 0.5),
                   abs(at1.gamma / cfg.gamma0 - 0.5),
                   abs(sp.T_sym - 2.0 * cfg.t ** 2 / cfg.t_m ** 2),
                   abs(sp.finesse * sp.T_sym / math.pi - 1.0),
                   abs(cfg.k * sp.delta_x - cfg.phi0))
    return CheckResult("mos_limit_values", worst <= LIMIT_VALUES_TOL, worst,
                       LIMIT_VALUES_TOL, "Phi=0 and Phi=Phi0 reductions, two-port setpoint")


def _check_noise_general(tol: ToleranceProfile) -> CheckResult:
    gamma = 1.0e8
    errors = []
    for g_w, g_g, g3 in ((0.0, 5.0, 0.0), (3.0, 4.0, 0.5 * gamma), (7.0, 2.0, gamma)):
        rates = noise_mod.PortRates(gamma, gamma, g3)
        report = noise_mod.homodyne_spectra(
            rates, noise_mod.DriveConfig(a0=1.0), g_w, g_g
        )
        s_xx, s_ff = noise_mod.general_spectra(
            rates, noise_mod.DriveConfig(delta=0.0, omega=1e-6 * gamma, a0=1.0),
            g_w, g_g, report.theta_opt,
        )
        errors += [abs(s_xx / report.s_xx_imp - 1.0), abs(s_ff / report.s_ff - 1.0)]
    worst = _worst(errors)
    return CheckResult("noise_general_vs_closed", worst <= tol.noise_general_rel,
                       worst, tol.noise_general_rel,
                       "general solver at omega = 1e-6 gamma")


def _check_figures() -> CheckResult:
    fig2 = reproduce_figure("fig2")
    fig3 = reproduce_figure("fig3")
    fig4 = reproduce_figure("fig4")
    u = fig2.columns["phi_over_phi0"]
    # the first row on each exact grid anchor (an IndexError if it is off the grid)
    mid = np.flatnonzero(u == 0.0)[0]
    one = np.flatnonzero(u == 1.0)[0]
    zero = np.flatnonzero(fig4.columns["xi"] == 0.0)[0]
    worst = _worst(
        abs(fig2.columns["g_omega0_over_g00"][mid] - 1.0),
        abs(fig2.columns["g_omega0_over_g00"][one]),
        abs(fig2.columns["g_gamma0_over_g00"][one] - 0.5),
        abs(fig3.columns["gamma_over_gamma0"][one] - 0.5),
        *(abs(fig4.columns[f"product_normalized_loss{int(100 * frac)}"][zero] - value)
          for frac, value in ((0.0, 1.0), (0.5, 1.5625), (1.0, 2.25))),
    )
    return CheckResult("figure_values", worst <= LIMIT_VALUES_TOL, worst,
                       LIMIT_VALUES_TOL, "fig2/fig3/fig4 anchor points")


def _mate_oracle_roots() -> tuple[mate_mod.MateConfig, list[float]]:
    """The MATE oracle cavity and its resonances within one FSR of its k."""
    cfg = mate_mod.MateConfig(**{**FIGURE_PARAMS, "phi_r": math.pi}, x=1e-6)
    fsr = math.pi / cfg.l
    return cfg, mate_mod.mate_resonances(cfg, (cfg.k - fsr, cfg.k + fsr))


def _check_mate_resonances(tol: ToleranceProfile) -> CheckResult:
    cfg, roots = _mate_oracle_roots()
    worst_res = _worst(*(abs(mate_mod.resonance_residual(cfg, r)) for r in roots))
    k_errors = []
    for root in roots:
        branch = mate_mod.classify_branch(cfg, root)
        k_branch = mate_mod.branch_wavevector(cfg, branch, root)
        k_errors.append(abs(k_branch - root) / root)
    worst_k = _worst(k_errors)
    ok = worst_res <= 1e-12 and worst_k <= tol.resonance_k_rel
    return CheckResult(
        "mate_resonance_oracle", ok, worst_k, tol.resonance_k_rel,
        f"{len(roots)} roots over 2 FSR, max residual {worst_res:.2e}",
    )


def _check_mate_dkdx() -> CheckResult:
    cfg, roots = _mate_oracle_roots()
    errors = []
    for root in roots:
        closed = mate_mod.mate_dispersive_constant(cfg, root).dk_dx
        numeric = mate_mod.dispersive_from_resonance(cfg, root)
        errors.append(abs(closed - numeric) / abs(numeric))
    worst = _worst(errors)
    return CheckResult("mate_dkdx_oracle", worst <= MATE_DKDX_REL, worst,
                       MATE_DKDX_REL, "closed-form slope vs re-solved resonance")


def _check_mos_resonance() -> CheckResult:
    base = mos_mod.MosConfig(
        l=1e-4, wavelength=0.85e-6, t=0.0006, t_m=0.02, x=0.0,
        phi_r=math.pi - 1e-3,
    )
    errors = []
    in_regime = True  # x below 0.001 of the thin-tandem bound
    for frac in (0.0, 0.25, -0.5):
        cfg = base.at_phi(frac * base.phi0)
        in_regime = in_regime and cfg.x < 0.001 * cfg.thin_tandem_bound()
        k_c = mos_mod.solve_resonance(cfg)
        at_root = replace(cfg, wavelength=2.0 * math.pi / k_c)
        brute = mos_mod.dispersive_from_resonance(cfg)
        closed = mos_mod.operating_point(at_root).g_omega0
        exact = mos_mod.exact_corrections(at_root).g_omega_exact
        errors += [abs(brute / closed - 1.0), abs(brute / exact - 1.0)]
    worst = _worst(errors)
    return CheckResult("mos_resonance_oracle",
                       in_regime and worst <= MOS_RESONANCE_REL,
                       worst, MOS_RESONANCE_REL,
                       "brute-force d(omega_c)/dx vs closed forms")


def _check_regime(rng: np.random.Generator, samples: int = 60) -> CheckResult:
    # gap grows in half-wavelength steps (branch N) at fixed tandem phase,
    # staying below 0.9 x 0.01 of the thin-tandem bound (checked below
    # 0.01 of it); long cavity so many branches fit under the bound
    errors = []
    wavelength = 0.85e-6
    length = 0.1
    in_regime = True
    for _ in range(samples):
        t_m = float(rng.uniform(0.02, 0.06))
        t = float(rng.uniform(0.02, 0.1)) * t_m
        base = mos_mod.MosConfig(
            l=length, wavelength=wavelength, t=t, t_m=t_m, x=0.0,
            phi_r=math.pi - 1e-3,
        )
        phi = float(rng.uniform(-0.6, 0.6)) * base.phi0
        gap_cap = 0.9 * 0.01 * base.thin_tandem_bound()
        n_max = int((gap_cap - base.x_tilde - phi / base.k) / (wavelength / 2.0))
        cfg = replace(base, N=int(rng.integers(0, max(1, n_max + 1)))).at_phi(phi)
        in_regime = in_regime and cfg.x < 0.01 * cfg.thin_tandem_bound()
        resp = synthetic_response(cfg.psi, cfg.mirror, cfg.membrane)
        thin_gamma = C_LIGHT * resp.T / (2.0 * cfg.l)
        thin_g = -(C_LIGHT * cfg.k / cfg.l) * resp.dmu_dpsi
        corr = mos_mod.exact_corrections(cfg)
        errors += [abs(corr.gamma_exact / thin_gamma - 1.0),
                   abs(corr.g_omega_exact / thin_g - 1.0)]
    worst = _worst(errors)
    return CheckResult("thin_tandem_regime", in_regime and worst <= REGIME_REL,
                       worst, REGIME_REL,
                       "finite-gap corrections below 1e-2 under the gap bound")


def run_validation(
    suite: str = "fast",
    profile: ToleranceProfile | str = "default",
    seed: int = 20240817,
) -> ValidationReport:
    """Run the oracle checks.  suite "fast" covers the closed-form algebra;
    "full" adds the resonance-bracketing and regime oracles."""
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise InvalidParameter(f"unknown tolerance profile {profile!r}")
    if suite not in ("fast", "full"):
        raise InvalidParameter(f"unknown suite {suite!r}; expected 'fast' or 'full'")
    rng = np.random.default_rng(seed)
    checks = [
        _check_unitarity(rng, profile, samples=1000 if suite == "full" else 300),
        _check_elimination(rng, profile),
        _check_closed_vs_matrix(rng, profile),
        _check_response_derivatives(rng, profile),
        _check_msi_derivatives(rng, profile),
        _check_locus_oracle(rng, profile, samples=100 if suite == "full" else 20),
        _check_mos_limits(),
        _check_noise_general(profile),
        _check_figures(),
    ]
    if suite == "full":
        checks += [
            _check_mate_resonances(profile),
            _check_mate_dkdx(),
            _check_mos_resonance(),
            _check_regime(rng),
        ]
    return ValidationReport(suite=suite, profile=profile.name, checks=checks)
