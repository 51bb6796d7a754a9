"""Membrane-outside (MOS) cavity model.

A two-sided cavity of length l is fed through one mirror; the membrane
sits outside the cavity behind the other mirror at a gap x.  The
mirror+membrane tandem acts as a synthetic mirror whose transmission and
reflection phase depend on the tandem phase psi = 2 k x + phi_r.

Near maximal tandem transparency the system is parametrized by

    Phi  = k (x - x_tilde),       Phi0 = t_m^2 / 4,

where x_tilde is the smallest non-negative gap with 2 k x_tilde + phi_r
= pi (mod 2 pi), i.e. where the tandem is most transparent.  In that
neighbourhood (and for a thin tandem, x << l t_m^4 / (4 t^2)):

    gamma     = gamma0 / (1 + Phi^2/Phi0^2),   gamma0 = (2 c / l) t^2 / t_m^2
    g_omega0  = g_00 (1 - Phi^2/Phi0^2) / (1 + Phi^2/Phi0^2)^2
    g_gamma0  = g_00 * 2 (Phi/Phi0)   / (1 + Phi^2/Phi0^2)^2
    g_00      = (4 omega_c / l) t^2 / t_m^4

Sign convention: the dispersive constant is reported positive at the
transparency point Phi = 0.  Under the reflection-phase branch used here
(mu = 0 at psi = pi, see elements.synthetic_response) this equals the
derivative d(omega_c)/dx obtained from the resonance condition
2 l k = pi + 2 pi N - mu(k x).  The dissipative constant is
g_gamma0 = -(1/2) d(gamma)/dx throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .constants import C_LIGHT
from .elements import TWO_PI, TandemCavity, reflectivity, synthetic_response
from .errors import InvalidParameter, NoRootInWindow, NoZeroDispersivePoint
from .numerics import (
    RESONANCE_GAP_STEP,
    any_true,
    central_diff_richardson,
    grid_roots,
    in_float_range,
    require_finite,
)

#: margin interpreting the thin-tandem inequality x << l t_m^4/(4 t^2)
THIN_TANDEM_MARGIN = 0.01


@dataclass(frozen=True, kw_only=True)
class MosConfig(TandemCavity):
    """Membrane-outside cavity: the tandem geometry of
    elements.TandemCavity, with x >= 0 the membrane-mirror gap, and

    N          branch index of the maximal-transparency gap x_tilde; a
               float is accepted if its value is whole
    """

    N: int = 0

    def __post_init__(self) -> None:
        if not float(self.N).is_integer():
            raise InvalidParameter(f"branch index N must be an integer, got {self.N}")
        super().__post_init__()
        if self.phi0 == 0.0:
            raise InvalidParameter(f"phi0 = t_m^2/4 underflows to 0 at t_m={self.t_m}")
        if any_true(self.x < 0.0):
            raise InvalidParameter(f"gap must be non-negative, got {self.x}")

    @property
    def x_tilde(self) -> float:
        """Gap of maximal tandem transparency on branch N (non-negative)."""
        base = (math.pi - self.phi_r) % TWO_PI
        return (base + TWO_PI * self.N) / (2.0 * self.k)

    @property
    def psi(self) -> float:
        return 2.0 * self.k * self.x + self.phi_r

    @property
    def phi(self) -> float:
        return self.k * (self.x - self.x_tilde)

    @property
    def gamma0(self) -> float:
        return (2.0 * C_LIGHT / self.l) * (self.t / self.t_m) ** 2

    @property
    def g_00(self) -> float:
        return 4.0 * self.omega_c * self.t ** 2 / (self.l * self.t_m ** 4)

    def at_phi(self, phi: float) -> "MosConfig":
        """Copy of this config with the gap set so that k (x - x_tilde) = phi."""
        return replace(self, x=self.x_tilde + phi / self.k)

    def thin_tandem_bound(self) -> float:
        """Gap scale l t_m^4 / (4 t^2) below which the tandem is thin."""
        if self.t == 0.0:
            return math.inf
        return self.l * self.t_m ** 4 / (4.0 * self.t ** 2)

    def regime(self) -> dict[str, float | bool]:
        """Status of each sub-condition of the working regime
        t_m^2 < t << t_m << 1, reported separately.

        The first is a strict inequality (boolean); the two asymptotic
        ones are reported as the ratios t/t_m and t_m, which the caller
        judges against its own smallness threshold.
        """
        return {
            "t_m_sq_below_t": self.t_m ** 2 < self.t,
            "t_over_t_m": self.t / self.t_m,
            "t_m": self.t_m,
        }


def _valid_thin_tandem(cfg: MosConfig):
    """x < THIN_TANDEM_MARGIN * l t_m^4 / (4 t^2), elementwise over gaps."""
    return cfg.x < THIN_TANDEM_MARGIN * cfg.thin_tandem_bound()


@dataclass(frozen=True)
class OperatingPoint:
    """MOS quantities at one gap or an array of gaps (thin-tandem forms)."""

    phi: float
    phi0: float
    T: float
    gamma: float
    g_omega0: float
    g_gamma0: float
    g_00: float
    valid_thin_tandem: bool


def operating_point(cfg: MosConfig) -> OperatingPoint:
    """Decay rate and coupling constants at the configured gap.

    T is the exact synthetic-mirror transmission at psi = 2 k x + phi_r;
    gamma and the coupling constants use the Lorentzian thin-tandem forms
    in Phi/Phi0.  Out-of-regime inputs are flagged via valid_thin_tandem
    (x < THIN_TANDEM_MARGIN * l t_m^4 / (4 t^2)), never rejected.
    """
    u = cfg.phi / cfg.phi0
    lor = 1.0 + u * u
    resp = synthetic_response(cfg.psi, cfg.mirror, cfg.membrane)
    return OperatingPoint(
        phi=cfg.phi,
        phi0=cfg.phi0,
        T=resp.T,
        gamma=cfg.gamma0 / lor,
        g_omega0=cfg.g_00 * (1.0 - u * u) / (lor * lor),
        g_gamma0=cfg.g_00 * 2.0 * u / (lor * lor),
        g_00=cfg.g_00,
        valid_thin_tandem=_valid_thin_tandem(cfg),
    )


@dataclass(frozen=True)
class ZeroDispersiveLocus:
    """The two tandem phases in (0, 2 pi) where the dispersive coupling
    vanishes, and the transmission there."""

    psi_star: tuple[float, float]
    T_star: float


def _reflectivities(t: float, t_m: float) -> tuple[float, float]:
    """(r, r_m) of a mirror t in [0, 1] and a membrane t_m in (0, 1];
    InvalidParameter otherwise."""
    if not 0.0 <= t <= 1.0:  # a NaN fails too
        raise InvalidParameter(f"t must lie in [0, 1], got {t}")
    if not 0.0 < t_m <= 1.0:
        raise InvalidParameter(f"t_m must lie in (0, 1], got {t_m}")
    return reflectivity(t), reflectivity(t_m)


def zero_dispersive_locus(t: float, t_m: float) -> ZeroDispersiveLocus:
    """Phases psi* with dmu/dpsi = 0:  cos psi* = -r_m (1+r^2) / (r (1+r_m^2)).

    Exists only for a membrane less reflective than the mirror (r_m <= r);
    at r_m = r the two solutions merge at psi* = pi.  The transmission at
    either solution is T* = t^2 (1 + r_m^2) / (1 - r^2 r_m^2).
    InvalidParameter unless t lies in [0, 1] and t_m in (0, 1], or where
    T* leaves the float range.
    """
    r, r_m = _reflectivities(t, t_m)
    if r == 0.0:
        raise NoZeroDispersivePoint("mirror is fully transparent (r = 0)")
    cos_star = -r_m * (1.0 + r * r) / (r * (1.0 + r_m * r_m))
    if cos_star < -1.0:
        raise NoZeroDispersivePoint(
            f"membrane at least as reflective as the mirror (r_m={r_m:.6g} > r={r:.6g})"
        )
    psi_1 = math.acos(cos_star)
    # 1 - r^2 r_m^2 rounds to 0 once t and t_m are both tiny
    t_star = in_float_range("zero_dispersive_locus",
                            lambda: t * t * (1.0 + r_m * r_m) / (1.0 - r * r * r_m * r_m))
    return ZeroDispersiveLocus(psi_star=(psi_1, TWO_PI - psi_1), T_star=t_star)


def dissipative_constant_exact(t: float, t_m: float, k: float, l: float) -> float:
    """|d(gamma)/dx| at the zero-dispersive phase, exact in (t, t_m):

        (c k / l) (t^2/t_m^2) * 2 r_m (1+r_m^2) / (1 - r_m^2 r^2)
                              * sqrt((r^2 - r_m^2) / (1 - r_m^2 r^2))

    InvalidParameter unless t lies in [0, 1], t_m in (0, 1] and k, l are
    finite and positive, or where the result leaves the float range.
    """
    r, r_m = _reflectivities(t, t_m)
    require_finite(k=k, l=l)
    if not (k > 0.0 and l > 0.0):
        raise InvalidParameter(f"k and l must be positive, got k={k}, l={l}")
    if r_m > r:
        raise NoZeroDispersivePoint(
            f"membrane more reflective than the mirror (r_m={r_m:.6g} > r={r:.6g})"
        )
    one_minus = 1.0 - r_m * r_m * r * r
    return in_float_range("dissipative_constant_exact", lambda: (
        C_LIGHT * k / l
        * (t / t_m) ** 2
        * 2.0 * r_m * (1.0 + r_m * r_m) / one_minus
        * math.sqrt((r * r - r_m * r_m) / one_minus)
    ))


@dataclass(frozen=True)
class ExactCorrections:
    """Finite-gap (non-thin-tandem) corrections to the MOS quantities."""

    g_omega_exact: float
    gamma_exact: float
    dgamma_dx_exact: float
    valid_thin_tandem: bool


def exact_corrections(cfg: MosConfig) -> ExactCorrections:
    """Exact-in-x dispersive constant, decay rate, and decay derivative.

    With mu' = dmu/d(kx), T' = dT/dx evaluated from the exact tandem
    response at psi = 2 k x + phi_r:

        g_omega_exact   = -(omega_c mu' / 2 l) / (1 + x mu' / 2 l)
        gamma_exact     = c t_m^2 / (2 (l t_m^2 / T + x))
        dgamma_dx_exact = c t_m^2 ((l t_m^2 / T^2) T' - 1)
                          / (2 (l t_m^2 / T + x)^2)

    Each reduces to its thin-tandem counterpart as x -> 0.  InvalidParameter
    where T^2 is 0: at t = 0, or at a t so small that T or T^2 underflows.
    """
    resp = synthetic_response(cfg.psi, cfg.mirror, cfg.membrane)
    if any_true(resp.T ** 2 == 0.0):
        raise InvalidParameter(
            f"the exact corrections need a tandem transmission T with T^2 > 0, "
            f"got T^2 = 0 at t={cfg.t}"
        )
    mu_p = 2.0 * resp.dmu_dpsi  # dmu/d(kx)
    dT_dx = 2.0 * cfg.k * resp.dT_dpsi
    g_omega = -(cfg.omega_c * mu_p / (2.0 * cfg.l)) / (
        1.0 + cfg.x * mu_p / (2.0 * cfg.l)
    )
    stored = cfg.l * cfg.t_m ** 2 / resp.T + cfg.x
    gamma = C_LIGHT * cfg.t_m ** 2 / (2.0 * stored)
    dgamma = (
        C_LIGHT
        * cfg.t_m ** 2
        * (cfg.l * cfg.t_m ** 2 / resp.T ** 2 * dT_dx - 1.0)
        / (2.0 * stored * stored)
    )
    return ExactCorrections(
        g_omega_exact=g_omega,
        gamma_exact=gamma,
        dgamma_dx_exact=dgamma,
        valid_thin_tandem=_valid_thin_tandem(cfg),
    )


@dataclass(frozen=True)
class TwoPortSetpoint:
    """Symmetric two-port operating point at Phi = Phi0."""

    delta_x: float
    T_sym: float
    finesse: float


def two_port_setpoint(cfg: MosConfig) -> TwoPortSetpoint:
    """Membrane offset, symmetric transmission, and finesse at Phi = Phi0.

        delta_x = wavelength t_m^2 / (8 pi)     (so that k delta_x = Phi0)
        T_sym   = 2 t^2 / t_m^2                 (tandem transmission there)
        finesse = pi / T_sym
    """
    t_sym = 2.0 * cfg.t ** 2 / cfg.t_m ** 2
    if t_sym == 0.0:
        raise InvalidParameter(
            f"the two-port setpoint needs T_sym = 2 t^2 / t_m^2 > 0, got t={cfg.t}"
        )
    return TwoPortSetpoint(
        delta_x=cfg.wavelength * cfg.t_m ** 2 / (8.0 * math.pi),
        T_sym=t_sym,
        finesse=math.pi / t_sym,
    )


def resonance_residual(cfg: MosConfig, k, n_mode: int):
    """Residual of the resonance condition 2 l k = pi + 2 pi n - mu(k x),
    elementwise for an array k."""
    resp = synthetic_response(
        2.0 * k * cfg.x + cfg.phi_r, cfg.mirror, cfg.membrane
    )
    return 2.0 * cfg.l * k - math.pi - TWO_PI * n_mode + resp.mu


def _mode_index(cfg: MosConfig) -> int:
    """Index n of the resonance 2 l k = pi + 2 pi n - mu(k x) nearest the
    configured k."""
    mu0 = synthetic_response(cfg.psi, cfg.mirror, cfg.membrane).mu
    return round((2.0 * cfg.l * cfg.k - math.pi + mu0) / TWO_PI)


def solve_resonance(cfg: MosConfig, n_mode: int | None = None) -> float:
    """Resonance wavevector from 2 l k = pi + 2 pi n - mu(k x).

    By default n is chosen so the root lies nearest the configured k.
    Intended as the brute-force reference for the closed-form dispersive
    constant; a bracketed root, regula falsi to |residual| <= 1e-12.
    """
    k0 = cfg.k
    if n_mode is None:
        n_mode = _mode_index(cfg)
    fsr = math.pi / cfg.l
    roots = grid_roots(lambda k: resonance_residual(cfg, k, n_mode),
                       k0 - 2.0 * fsr, k0 + 2.0 * fsr, 400, near=k0, ftol=1e-12)
    if not roots:
        raise NoRootInWindow(
            f"no resonance with index n={n_mode} within two FSR of k={k0:.6e}"
        )
    return roots[0]


def dispersive_from_resonance(cfg: MosConfig) -> float:
    """Dispersive constant from brute-force resonance solving.

    Re-solves the resonance at gaps x +- h and x +- h/2, h =
    RESONANCE_GAP_STEP, on the same mode index and Richardson-extrapolates
    the central difference of omega_c(x) = c k_c(x).
    """
    n_mode = _mode_index(cfg)

    def omega_at(x: float) -> float:
        return C_LIGHT * solve_resonance(replace(cfg, x=x), n_mode=n_mode)

    return central_diff_richardson(omega_at, cfg.x, RESONANCE_GAP_STEP)
