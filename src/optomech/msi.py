"""Michelson-Sagnac interferometer (MSI) as a one-sided cavity.

The beam splitter (real coefficients R_b, T_b) and membrane (r_ms, t_ms)
reduce to an effective input mirror whose reflection rho and transmission
tau depend on the membrane displacement x.  A config sets the membrane
reflectivity r_ms and the splitter's power transmission Tb_sq = T_b^2; R_b,
T_b and t_ms are derived from them, so both are lossless by construction:

    rho = -2 R_b T_b t_ms - (R_b^2 - T_b^2) r_ms cos 2kx + i r_ms sin 2kx
    tau =  t_ms (T_b^2 - R_b^2) + 2 R_b T_b r_ms cos 2kx

with |rho|^2 + tau^2 = 1.  The cavity decay rate is gamma_ms =
c tau^2 / (2 l); the coupling constants follow from mu = arg rho and tau:

    g_omega0 = (c / 2l) dmu/dx,    g_gamma0 = -(c / 2l) tau dtau/dx.

The zero-dispersive closed forms (cos 2kx*, tau*, gamma_ms and the
benchmark g_gamma0) live in one private kernel, _zero_dispersive, which
does arithmetic only; msi_zero_dispersive checks and calls it through
_zero_dispersive_point, as datasets.compare_systems does without a config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constants import C_LIGHT
from .elements import reflectivity
from .errors import DegenerateDenominator, InvalidParameter, NoZeroDispersivePoint
from .numerics import any_true, cos_sin, require_amplitude, require_finite, require_positive


@dataclass(frozen=True, kw_only=True, slots=True)
class MsiConfig:
    """Membrane reflectivity, beam-splitter ratio, optical length and
    wavevector.

    r_ms    real membrane reflection amplitude, in [0, 1]
    l       effective optical length (m)
    k       wavevector (1/m)
    x       membrane displacement from the symmetric position (m); an
            array of them makes msi_couplings elementwise
    Tb_sq   beam-splitter power transmission T_b^2, in [0, 1]

    Derived once: R_b = sqrt(1 - Tb_sq), T_b = sqrt(Tb_sq) and
    t_ms = sqrt(1 - r_ms^2).
    """

    r_ms: float
    l: float
    k: float
    x: float = 0.0
    Tb_sq: float = 0.5
    R_b: float = field(init=False, repr=False, compare=False)
    T_b: float = field(init=False, repr=False, compare=False)
    t_ms: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require_amplitude(Tb_sq=self.Tb_sq, r_ms=self.r_ms)
        require_positive(l=self.l, k=self.k)
        require_finite(x=self.x)
        # derived once; a frozen instance sets them past its own __setattr__
        R_b, T_b, t_ms = _amplitudes(self.Tb_sq, self.r_ms)
        object.__setattr__(self, "R_b", R_b)
        object.__setattr__(self, "T_b", T_b)
        object.__setattr__(self, "t_ms", t_ms)

    @classmethod
    def balanced(cls, r_ms: float, l: float, k: float, x: float = 0.0,
                 Tb_sq: float = 0.5) -> "MsiConfig":
        """MsiConfig(r_ms=r_ms, l=l, k=k, x=x, Tb_sq=Tb_sq); kept because the
        design workload of perfbench/workloads.py calls it by this name."""
        return cls(r_ms=r_ms, l=l, k=k, x=x, Tb_sq=Tb_sq)

    @property
    def omega_c(self) -> float:
        return C_LIGHT * self.k


@dataclass(frozen=True, slots=True)
class EffectiveMirror:
    rho: complex
    tau: float


def _amplitudes(Tb_sq: float, r_ms: float) -> tuple[float, float, float]:
    """(R_b, T_b, t_ms) of a lossless splitter and membrane."""
    return math.sqrt(1.0 - Tb_sq), math.sqrt(Tb_sq), reflectivity(r_ms)


def _mirror(r_ms, R_b, T_b, t_ms, k, x):
    """(rho, tau, cos 2kx, sin 2kx) of the effective mirror at the
    displacement x, elementwise over an array x; the one form of rho and
    tau."""
    c2, s2 = cos_sin(2.0 * k * x)
    rho = (
        -2.0 * R_b * T_b * t_ms
        - (R_b ** 2 - T_b ** 2) * r_ms * c2
        + 1j * (r_ms * s2)
    )
    tau = t_ms * (T_b ** 2 - R_b ** 2) + 2.0 * R_b * T_b * r_ms * c2
    return rho, tau, c2, s2


def msi_effective_mirror(cfg: MsiConfig) -> EffectiveMirror:
    """Effective input-mirror amplitudes (rho, tau) at displacement x."""
    rho, tau, _, _ = _mirror(cfg.r_ms, cfg.R_b, cfg.T_b, cfg.t_ms, cfg.k, cfg.x)
    return EffectiveMirror(rho=rho, tau=tau)


@dataclass(frozen=True, slots=True)
class MsiCouplings:
    gamma_ms: float
    g_omega0: float
    g_gamma0: float
    dtau_dx: float
    dmu_dx: float
    T_ms: float


def msi_couplings(cfg: MsiConfig) -> MsiCouplings:
    """Decay rate and coupling constants at displacement x.

    dtau/dx = -4 k r_ms R_b T_b sin 2kx; dmu/dx is the exact derivative of
    arg rho, i.e. -2 k r_ms (2 t_ms R_b T_b cos 2kx - r_ms (T_b^2 - R_b^2))
    divided by |rho|^2 (the |rho|^2 factor matters away from |tau| << 1).
    """
    return _couplings(cfg.r_ms, cfg.R_b, cfg.T_b, cfg.t_ms, cfg.k, cfg.l, cfg.x)


def _rho_sq(rho):
    """|rho|^2, the denominator of dmu/dx, or DegenerateDenominator where it
    vanishes."""
    rho_sq = abs(rho) ** 2
    if any_true(rho_sq == 0.0):
        raise DegenerateDenominator(
            "effective mirror is fully transmissive (rho = 0); phase undefined"
        )
    return rho_sq


def _couplings(r_ms, R_b, T_b, t_ms, k, l, x) -> MsiCouplings:
    """msi_couplings at the displacement x, or DegenerateDenominator where
    rho vanishes."""
    rho, tau, c2, s2 = _mirror(r_ms, R_b, T_b, t_ms, k, x)
    rho_sq = _rho_sq(rho)
    dtau = -4.0 * k * r_ms * R_b * T_b * s2
    dmu_num = -2.0 * k * r_ms * (
        2.0 * t_ms * R_b * T_b * c2
        - r_ms * (T_b ** 2 - R_b ** 2)
    )
    dmu = dmu_num / rho_sq
    c_over_2l = C_LIGHT / (2.0 * l)
    return MsiCouplings(
        gamma_ms=c_over_2l * tau ** 2,
        g_omega0=c_over_2l * dmu,
        g_gamma0=-c_over_2l * tau * dtau,
        dtau_dx=dtau,
        dmu_dx=dmu,
        T_ms=tau ** 2,
    )


@dataclass(frozen=True, slots=True)
class MsiZeroDispersive:
    """Operating point where the MSI dispersive coupling vanishes."""

    x_star: float
    tau_star: float
    T_ms: float
    gamma_ms: float
    g_gamma0: float           # exact -(c/2l) tau dtau/dx at x_star
    g_gamma0_benchmark: float  # r_ms sqrt(T_ms) omega_c / l
    cos_2kx_star: float


def msi_zero_dispersive(cfg: MsiConfig, branch: int = 0) -> MsiZeroDispersive:
    """Zero-dispersive displacement cos 2kx* = r_ms (T_b^2 - R_b^2) / (2 t_ms R_b T_b).

    branch=0 returns the solution nearest 2kx = pi/2; other branches shift
    2kx* by multiples of 2 pi (even branch) or mirror it (odd branch).
    The dissipative-constant benchmark there is r_ms sqrt(T_ms) omega_c/l.
    A float branch is accepted if its value is whole.
    """
    if not float(branch).is_integer():
        raise InvalidParameter(f"branch must be an integer, got {branch}")
    amplitudes = (cfg.r_ms, cfg.R_b, cfg.T_b, cfg.t_ms)
    x_star, (cos_star, tau_star, t_ms_power, gamma_ms, g_bench) = _zero_dispersive_point(
        *amplitudes, cfg.k, cfg.l, branch)
    require_finite(x=x_star)  # as a config at x_star would; a large branch overflows
    at_star = _couplings(*amplitudes, cfg.k, cfg.l, x_star)
    return MsiZeroDispersive(
        x_star=x_star,
        tau_star=tau_star,
        T_ms=t_ms_power,
        gamma_ms=gamma_ms,
        g_gamma0=at_star.g_gamma0,
        g_gamma0_benchmark=g_bench,
        cos_2kx_star=cos_star,
    )


def _zero_dispersive(r_ms, R_b, T_b, t_ms, l, omega_c):
    """(cos 2kx*, tau*, T_ms, gamma_ms, g_gamma0_benchmark) at the
    zero-dispersive point of a splitter with t_ms R_b T_b != 0; at the locus
    tau collapses to tau* = (T_b^2 - R_b^2) / t_ms."""
    cos_star = r_ms * (T_b ** 2 - R_b ** 2) / (2.0 * t_ms * R_b * T_b)
    tau_star = (T_b ** 2 - R_b ** 2) / t_ms
    t_ms_power = tau_star ** 2
    return (cos_star, tau_star, t_ms_power, C_LIGHT * t_ms_power / (2.0 * l),
            r_ms * math.sqrt(t_ms_power) * omega_c / l)


def _zero_dispersive_point(r_ms, R_b, T_b, t_ms, k, l, branch: int = 0):
    """(x*, the values of _zero_dispersive) on the given branch, or
    NoZeroDispersivePoint where there is none.  x* is finite on branch 0 (a
    large branch overflows it), and rho may vanish there, where
    |cos 2kx*| = 1: _rho_sq checks it."""
    if 0.0 in (t_ms, R_b, T_b):
        raise NoZeroDispersivePoint(
            "degenerate splitter or opaque membrane (t_ms R_b T_b = 0)"
        )
    values = _zero_dispersive(r_ms, R_b, T_b, t_ms, l, C_LIGHT * k)
    cos_star = values[0]
    if abs(cos_star) > 1.0:
        raise NoZeroDispersivePoint(
            f"required cos 2kx = {cos_star:.6g} exceeds 1 in magnitude"
        )
    theta = math.acos(cos_star)  # in [0, pi], nearest pi/2
    if branch % 2 == 0:
        two_kx = theta + math.pi * branch
    else:
        two_kx = -theta + math.pi * (branch + 1)
    return two_kx / (2.0 * k), values
