"""Membrane-at-the-edge (MATE) cavity model.

A one-sided cavity of length l holds the membrane inside, at distance x
from the input mirror.  Resonant wavevectors satisfy

    cos(k l + phi_r) = -r_m cos(2 k x - k l),

whose solutions organize into the family

    2 k x - k l = s * arccos(-cos(k l + phi_r) / r_m) + 2 pi n,  s = +-1.

Each root also continues one of the two bare subcavity resonance combs
(the x gap or the l - x remainder, both anti-resonant against the
membrane); modes continuing the x comb have positive dispersive constant
-c dk/dx, modes from the l - x part negative.  The dispersive coupling
vanishes where cos^2(k l - 2 k x) = 1, equivalently
cos(2 k x + phi_r) = -r_m, i.e. at Phi = +- sqrt(Phi0) in the tandem-phase
parametrization Phi = (psi - pi)/2, Phi0 = t_m^2/4.

The zero-dispersive benchmark (|g_gamma0|, gamma_mate, ratio_to_mos) lives
in one private kernel, _zero_dispersive, which does arithmetic only, on
floats or broadcast numpy arrays; mate_zero_dispersive and
datasets.compare_systems call it under one float-range guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import C_LIGHT
from .elements import TWO_PI, TandemCavity, _transparency_phase, synthetic_response
from .errors import BranchAmbiguity, InvalidParameter, NoRootInWindow
from .numerics import (
    RESONANCE_GAP_STEP,
    any_true,
    central_diff_richardson,
    grid_roots,
    in_float_range,
    power,
    require_finite,
    require_positive,
)

#: resonance-scan grid step, as a fraction of the free spectral range pi/l
SCAN_STEPS_PER_FSR = 50

#: margin interpreting the near-edge inequality x << l t_m^2 / 4
NEAR_EDGE_MARGIN = 0.01


@dataclass(frozen=True, kw_only=True)
class MateConfig(TandemCavity):
    """Membrane-at-the-edge cavity: the tandem geometry
    (elements.TandemCavity) with the membrane inside the cavity at
    distance 0 < x < l from the input mirror, and phi_r = pi by default;
    the wavelength sets the nominal omega_c.
    """

    phi_r: float = math.pi

    def __post_init__(self) -> None:
        super().__post_init__()
        require_finite(x=self.x)
        _require_inside(self.x, self.l)

    @property
    def r_m(self) -> float:
        return self.membrane.r

    def near_edge_bound(self) -> float:
        """Distance scale l t_m^2 / 4 below which the membrane is at the edge."""
        return self.l * self.t_m ** 2 / 4.0


def _require_inside(x, l: float) -> None:
    """InvalidParameter unless the membrane lies inside the cavity, 0 < x < l,
    at every gap of an array x."""
    if any_true((x <= 0.0) | (x >= l)):
        raise InvalidParameter(f"need 0 < x < l, got x={x}, l={l}")


def resonance_residual(cfg: MateConfig, k):
    """Residual of cos(k l + phi_r) + r_m cos(2 k x - k l), elementwise for
    an array k (numpy's cos for an array, math's for a float)."""
    cos = np.cos if isinstance(k, np.ndarray) else math.cos
    return cos(k * cfg.l + cfg.phi_r) + cfg.r_m * cos(2.0 * k * cfg.x - k * cfg.l)


def mate_resonances(
    cfg: MateConfig,
    k_window: tuple[float, float],
    residual_tol: float = 1e-12,
) -> list[float]:
    """All resonance wavevectors in [k_lo, k_hi], sorted ascending.

    Scans the residual on a uniform grid with step <= (pi/l)/SCAN_STEPS_PER_FSR,
    brackets sign changes, and refines each by regula falsi to
    |residual| <= residual_tol.  Raises NoRootInWindow if none are found.
    """
    k_lo, k_hi = k_window
    if not (0.0 < k_lo < k_hi < math.inf):
        raise InvalidParameter(f"bad window [{k_lo}, {k_hi}]")
    step = (math.pi / cfg.l) / SCAN_STEPS_PER_FSR
    steps = max(1, math.ceil((k_hi - k_lo) / step))
    try:
        roots = grid_roots(lambda k: resonance_residual(cfg, k), k_lo, k_hi,
                           steps, ftol=residual_tol)
    except (ValueError, MemoryError) as exc:  # numpy refuses the grid
        raise InvalidParameter(
            f"cannot scan window [{k_lo}, {k_hi}] in {steps} steps: {exc}"
        ) from exc
    if not roots:
        raise NoRootInWindow(
            f"no resonance in [{k_lo:.6e}, {k_hi:.6e}] (window spans "
            f"{(k_hi - k_lo) * cfg.l / math.pi:.2f} FSR)"
        )
    return roots


@dataclass(frozen=True, slots=True)
class MateBranch:
    """Explicit-solution branch labels of a resonance root.

    (sign, n) parametrize 2 k x - k l = sign * beta(k) + 2 pi n with
    beta = arccos(-cos(k l + phi_r) / r_m).  family attributes the root to
    the subcavity whose resonance curve it continues ("x" or "l-x"),
    decided by which subcavity phase is closer to anti-resonance; the sign
    label alone alternates along one physical curve and cannot carry that
    attribution.
    """

    sign: int
    n: int
    defect: float  # |k(2x-l) - sign*beta - 2 pi n|, radians
    family: str    # "x" | "l-x"


def _require_reflecting(cfg: MateConfig, what: str) -> None:
    """BranchAmbiguity where a fully transparent membrane leaves what degenerate."""
    if cfg.t_m == 1.0:
        raise BranchAmbiguity(f"membrane fully transparent (r_m = 0); {what} degenerate")


def _branch_angle(cfg: MateConfig, k):
    """beta(k) = arccos(clip(-cos(k l + phi_r) / r_m)): math's for a float, and
    numpy's for an array, which can differ in the last bit on a grid that
    passes on only signs (regula falsi calls with floats)."""
    if isinstance(k, np.ndarray):
        return np.arccos(np.clip(-np.cos(k * cfg.l + cfg.phi_r) / cfg.r_m, -1.0, 1.0))
    return math.acos(min(1.0, max(-1.0, -math.cos(k * cfg.l + cfg.phi_r) / cfg.r_m)))


def classify_branch(cfg: MateConfig, k_c: float) -> MateBranch:
    """Attribute a root to the (sign, n) family of the explicit solution

        k (2x - l) = sign * arccos(-cos(k l + phi_r) / r_m) + 2 pi n

    and to the physical subcavity ("x" or "l-x") it derives from.
    """
    require_positive(k_c=k_c)
    _require_reflecting(cfg, "branch family")
    beta = _branch_angle(cfg, k_c)
    target = k_c * (2.0 * cfg.x - cfg.l)
    near_x = abs(math.cos(2.0 * k_c * cfg.x + cfg.phi_r) + 1.0)
    near_lx = abs(math.cos(2.0 * k_c * (cfg.l - cfg.x) + cfg.phi_r) + 1.0)
    family = "x" if near_x <= near_lx else "l-x"
    best: MateBranch | None = None
    for sign in (+1, -1):
        n = round((target - sign * beta) / TWO_PI)
        defect = abs(target - sign * beta - TWO_PI * n)
        if best is None or defect < best.defect:
            best = MateBranch(sign=sign, n=n, defect=defect, family=family)
    assert best is not None
    return best


def branch_wavevector(
    cfg: MateConfig, branch: MateBranch, k_near: float
) -> float:
    """Solve the branch equation k(2x-l) - sign*beta(k) - 2 pi n = 0 near k_near."""

    def h(k):
        beta = _branch_angle(cfg, k)
        return k * (2.0 * cfg.x - cfg.l) - branch.sign * beta - TWO_PI * branch.n

    half_fsr = math.pi / (2.0 * cfg.l)
    roots = grid_roots(h, k_near - half_fsr, k_near + half_fsr, 200, near=k_near,
                       ftol=0.0, xtol=1e-12 * abs(k_near))
    if not roots:
        raise NoRootInWindow(
            f"branch (sign={branch.sign}, n={branch.n}) has no root near k={k_near:.6e}"
        )
    return roots[0]


@dataclass(frozen=True, slots=True)
class MateDispersive:
    dk_dx: float
    g_omega0: float    # dispersive constant, -c dk/dx
    slope_sign: int    # the +- selecting the radical term at this root


def mate_dispersive_constant(cfg: MateConfig, k_c: float) -> MateDispersive:
    """Dispersive constant at a resonance k_c from the closed-form slope

        (dk/dx)^{-1} = (l / 2k) [1 - 2x/l
                       + s * r_m^{-1} sqrt(1 + t_m^2 c^2 / (1 - c^2))],

    with c = cos(k l - 2 k x).  At a root the signed radical term equals
    -sin(k l + phi_r) / (r_m sin(2 k x - k l)), which fixes s without
    ambiguity away from the singular locus cos^2(k l - 2 k x) = 1 (the
    zero-dispersive condition, where BranchAmbiguity is raised).

    The constant g_omega0 = -c_light * dk/dx is positive for modes derived
    from the x subcavity and negative for those from the l-x part.
    """
    require_positive(k_c=k_c)
    _require_reflecting(cfg, "slope branch")
    cos_val = math.cos(k_c * cfg.l - 2.0 * k_c * cfg.x)
    one_minus = 1.0 - cos_val * cos_val
    if one_minus <= 0.0:
        raise BranchAmbiguity(
            "cos^2(k l - 2 k x) = 1: zero-dispersive locus, slope branch undefined"
        )
    radical = math.sqrt(1.0 + cfg.t_m ** 2 * cos_val ** 2 / one_minus) / cfg.r_m
    signed = -math.sin(k_c * cfg.l + cfg.phi_r) / (
        cfg.r_m * math.sin(2.0 * k_c * cfg.x - k_c * cfg.l)
    )
    sign = 1 if signed >= 0.0 else -1
    inv = (cfg.l / (2.0 * k_c)) * (1.0 - 2.0 * cfg.x / cfg.l + sign * radical)
    dk_dx = 1.0 / inv
    return MateDispersive(
        dk_dx=dk_dx,
        g_omega0=-C_LIGHT * dk_dx,
        slope_sign=sign,
    )


@dataclass(frozen=True, slots=True)
class MateZeroDispersive:
    """Closed-form benchmark at the zero-dispersive points Phi = +-sqrt(Phi0)."""

    phi_star: tuple[float, float]
    g_gamma0_mag: float
    gamma_mate: float
    ratio_to_mos: float
    near_edge: bool


def zero_dispersive_decay(t: float, l: float) -> float:
    """gamma_mate = c t^2 / (2 l), the MATE decay rate at its zero-dispersive
    points, elementwise over arrays; mate_zero_dispersive and
    noise.cooperativity_mate both use it."""
    return C_LIGHT * power(t, 2) / (2.0 * l)


def _zero_dispersive(omega_c, l, t, t_m):
    """(|g_gamma0|, gamma_mate, ratio_to_mos) of mate_zero_dispersive,
    elementwise over arrays."""
    return (omega_c * power(t, 2) / (l * t_m), zero_dispersive_decay(t, l),
            2.0 / power(t_m, 3))


def mate_zero_dispersive(cfg: MateConfig) -> MateZeroDispersive:
    """Zero-dispersive points and the dissipative benchmark there.

        Phi*        = +- t_m / 2  (so Phi*^2 = Phi0)
        |g_gamma0|  = (omega_c / l) t^2 / t_m
        gamma_mate  = c t^2 / (2 l)
        ratio_to_mos = |g_gamma0^MOS(Phi0)| / |g_gamma0^MATE(Phi*)| = 2 / t_m^3

    near_edge flags x << l t_m^2 / 4 (margin NEAR_EDGE_MARGIN), the regime
    in which the closed forms hold.  Raises InvalidParameter where a value
    leaves the float range: l t_m or t_m^3 underflows to 0, or |g_gamma0|
    or gamma_mate overflows.
    """
    g_gamma0_mag, gamma_mate, ratio_to_mos = in_float_range(
        "mate_zero_dispersive", lambda: _zero_dispersive(cfg.omega_c, cfg.l, cfg.t, cfg.t_m))
    phi_star = cfg.t_m / 2.0
    return MateZeroDispersive(
        phi_star=(-phi_star, phi_star),
        g_gamma0_mag=g_gamma0_mag,
        gamma_mate=gamma_mate,
        ratio_to_mos=ratio_to_mos,
        near_edge=cfg.x < NEAR_EDGE_MARGIN * cfg.near_edge_bound(),
    )


@dataclass(frozen=True, slots=True)
class MateExactDecay:
    """Exact and reduced decay rate / decay derivative at wavevector k.

    The closed forms are derived for a membrane much more reflective than
    the input mirror; thin_membrane_regime flags t < t_m (evaluated, not
    enforced), outside of which the values are reported as computed but
    carry no accuracy claim.
    """

    gamma_mate: float
    dgamma_dx: float
    gamma_reduced: float      # synthetic-mirror form c T / (2 l)
    dgamma_dx_reduced: float  # (c k / l) 2 t^2 t_m^2 sin psi / B^2
    A: float                  # stored-energy ratio, the 1/(1+A) correction's A
    thin_membrane_regime: bool


def mate_exact_decay(cfg: MateConfig, k: float) -> MateExactDecay:
    """Decay rate and its x-derivative, exact in x (thin-membrane regime t << t_m).

    With psi = 2 k x + phi_r and B = 1 + r_m^2 + 2 r_m cos psi, formed as
    (t_m^2 / (1 + r_m))^2 + 2 r_m (1 + cos psi) to keep its digits near psi = pi:

        gamma_mate = c t^2 t_m^2 / 2 / (x t_m^2 + (l - x) B)
        dgamma/dx  = c t^2 t_m^2 (r_m^2 + r_m cos psi + 2 r_m k (l - x) sin psi)
                     / (l B - 2 x (r_m^2 + r_m cos psi))^2

    The reduced forms drop the stored-energy correction A = (x/l)(t_m^2/B - 1)
    and the slow (non-sinusoidal) numerator terms; gamma_reduced uses the
    exact tandem transmission T(psi).
    """
    require_positive(k=k)
    r_m = cfg.r_m
    psi = 2.0 * k * cfg.x + cfg.phi_r
    _, h, sin_psi = _transparency_phase(psi)
    one_minus_r_m = cfg.t_m ** 2 / (1.0 + r_m)
    b_fac = one_minus_r_m * one_minus_r_m + 2.0 * r_m * h
    t2tm2 = cfg.t ** 2 * cfg.t_m ** 2

    denom_energy = cfg.x * cfg.t_m ** 2 + (cfg.l - cfg.x) * b_fac
    gamma = C_LIGHT * t2tm2 / 2.0 / denom_energy

    slow = r_m * (h - one_minus_r_m)  # r_m^2 + r_m cos psi
    dgamma = (
        C_LIGHT
        * t2tm2
        * (slow + 2.0 * r_m * k * (cfg.l - cfg.x) * sin_psi)
        / (cfg.l * b_fac - 2.0 * cfg.x * slow) ** 2
    )

    resp = synthetic_response(psi, cfg.mirror, cfg.membrane)
    gamma_reduced = C_LIGHT * resp.T / (2.0 * cfg.l)
    dgamma_reduced = (
        (C_LIGHT * k / cfg.l) * 2.0 * t2tm2 * sin_psi / (b_fac * b_fac)
    )
    return MateExactDecay(
        gamma_mate=gamma,
        dgamma_dx=dgamma,
        gamma_reduced=gamma_reduced,
        dgamma_dx_reduced=dgamma_reduced,
        A=(cfg.x / cfg.l) * (cfg.t_m ** 2 / b_fac - 1.0),
        thin_membrane_regime=cfg.t < cfg.t_m,
    )


def dispersive_from_resonance(cfg: MateConfig, k_c: float) -> float:
    """Numerical dk/dx by re-solving the resonance at x +- h, h =
    RESONANCE_GAP_STEP (Richardson).

    Follows the root by bracketing within a quarter FSR of the previous
    position; intended as the oracle for mate_dispersive_constant.
    """
    def k_at(x: float) -> float:
        cfg_x = replace(cfg, x=x)
        span = math.pi / (4.0 * cfg.l)
        roots = mate_resonances(cfg_x, (k_c - span, k_c + span), residual_tol=1e-13)
        return min(roots, key=lambda r: abs(r - k_c))

    return central_diff_richardson(k_at, cfg.x, RESONANCE_GAP_STEP)
