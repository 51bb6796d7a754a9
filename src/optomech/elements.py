"""Exact scattering algebra for lossless mirrors, membranes, and the
mirror+membrane tandem ("synthetic mirror"), and the tandem cavity
geometry that the MOS and MATE models share.

Conventions
-----------
A 2x2 scattering matrix maps the two incoming wave amplitudes onto the two
outgoing ones, (out_far, out_near) = S (in_near, in_far), where "near" is
the mirror side of the element (the cavity side for a membrane-outside
cavity) and "far" the membrane side.  Diagonal entries are transmissions,
off-diagonal entries reflections.  All amplitudes are referenced at the
mirror plane.

The mirror matrix is fixed to

    [[ i t, -r ],
     [ -r , i t]]

(transmission phase pi/2, reflection phase pi).  The membrane carries free
transmission/reflection phases phi_t, phi_r constrained by
exp(2i(phi_r - phi_t)) = -1, and its matrix is

    [[ t_m e^{i phi_t}, r_m e^{i phi_r} ],
     [ r_m e^{i phi_r}, t_m e^{i phi_t} ]].

The tandem phase is psi = 2 k x + phi_r, with x the mirror-membrane gap.
The reflection phase of the tandem, mu(psi), is the argument of the
negated cavity-side reflection amplitude, -m21; with psi reduced to
(-pi, pi] this branch is continuous over one period and vanishes at the
transparency maximum psi = pi when the membrane is less reflective than
the mirror (r_m < r).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import C_LIGHT
from .errors import DegenerateDenominator, InvalidElement, InvalidParameter
from .numerics import any_true, cos_sin, require_finite

TWO_PI = 2.0 * math.pi

#: losslessness / phase-constraint tolerance of every element (see
#: ElementSpec.validate and msi.MsiConfig)
CONSTRAINT_TOL = 1e-12


def wavevector(wavelength: float) -> float:
    """k = 2 pi / wavelength of a finite, positive wavelength (m)."""
    if not math.isfinite(wavelength):
        raise InvalidParameter(f"wavelength must be finite, got {wavelength}")
    if wavelength <= 0.0:
        raise InvalidParameter(f"wavelength must be positive, got {wavelength}")
    return TWO_PI / wavelength


def reduce_phase(psi):
    """Reduce a phase, or each phase of an array, to (-pi, pi] using the
    exact IEEE remainder."""
    if isinstance(psi, np.ndarray):
        # math.remainder by CPython's steps, each exact in IEEE doubles; on a
        # tie (m == c) the even multiple of TWO_PI wins
        absx = np.abs(psi)
        m = np.fmod(absx, TWO_PI)
        c = TWO_PI - m
        tie = m - 2.0 * np.fmod(0.5 * (absx - m), TWO_PI)
        out = np.copysign(1.0, psi) * np.where(m < c, m, np.where(m > c, -c, tie))
        return np.where(out <= -math.pi, out + TWO_PI, out)
    out = math.remainder(psi, TWO_PI)
    if out <= -math.pi:  # remainder may return -pi for boundary inputs
        out += TWO_PI
    return out


@dataclass(frozen=True)
class ElementSpec:
    """Lossless optical element: a fixed-phase mirror or a phased membrane.

    t, r are amplitude transmission/reflection magnitudes with t^2 + r^2 = 1.
    Phases are only meaningful for membranes; the mirror matrix has its
    phases built in.  Checked once, when built: an instance is frozen, so
    every instance is valid.
    """

    kind: str  # "mirror" | "membrane"
    t: float
    r: float
    phi_t: float = 0.0
    phi_r: float = 0.0

    def __post_init__(self) -> None:
        self.validate()

    @classmethod
    def mirror(cls, t: float) -> "ElementSpec":
        return cls(kind="mirror", t=t, r=math.sqrt(max(0.0, 1.0 - t * t)))

    @classmethod
    def membrane(cls, t_m: float, phi_r: float = math.pi / 2) -> "ElementSpec":
        """Membrane with reflection phase phi_r and phi_t = phi_r - pi/2, so
        the phase constraint holds identically."""
        r_m = math.sqrt(max(0.0, 1.0 - t_m * t_m))
        return cls(kind="membrane", t=t_m, r=r_m, phi_t=phi_r - math.pi / 2, phi_r=phi_r)

    def validate(self) -> None:
        """Raise InvalidElement on a constraint violation.

        Checks 0 <= t, r <= 1, t^2 + r^2 = 1 (within CONSTRAINT_TOL) and,
        for membranes, exp(2i(phi_r - phi_t)) = -1 (within CONSTRAINT_TOL).
        """
        if self.kind not in ("mirror", "membrane"):
            raise InvalidElement(f"unknown element kind {self.kind!r}")
        if not (0.0 <= self.t <= 1.0 and 0.0 <= self.r <= 1.0):
            raise InvalidElement(
                f"amplitudes out of range: t={self.t}, r={self.r}"
            )
        defect = abs(self.t * self.t + self.r * self.r - 1.0)
        if defect > CONSTRAINT_TOL:
            raise InvalidElement(
                f"t^2 + r^2 deviates from 1 by {defect:.3e} (tol {CONSTRAINT_TOL:.1e})"
            )
        if self.kind == "membrane":
            phase_defect = abs(cmath.exp(2j * (self.phi_r - self.phi_t)) + 1.0)
            if not phase_defect <= CONSTRAINT_TOL:  # a NaN phase fails too
                raise InvalidElement(
                    "membrane phase constraint exp(2i(phi_r-phi_t)) = -1 "
                    f"violated by {phase_defect:.3e} (tol {CONSTRAINT_TOL:.1e})"
                )


@dataclass(frozen=True, kw_only=True)
class TandemCavity:
    """Mirror+membrane geometry shared by the MOS and MATE cavities.

    l          cavity length (m)
    wavelength vacuum wavelength (m); k = 2 pi / wavelength, derived
    t          mirror amplitude transmission
    t_m        membrane amplitude transmission
    x          mirror-membrane distance (m); a numpy array of distances
               makes the distance-dependent quantities elementwise
    phi_r      membrane reflection phase (rad)

    Keyword-only, so that subclasses may add fields and change defaults
    without a positional call silently binding a value to another field.
    """

    l: float
    wavelength: float
    t: float
    t_m: float
    x: float
    phi_r: float = math.pi / 2
    k: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require_finite(l=self.l, wavelength=self.wavelength, t=self.t,
                       t_m=self.t_m, x=self.x, phi_r=self.phi_r)
        if self.l <= 0.0:
            raise InvalidParameter(f"cavity length must be positive, got {self.l}")
        # derived once; a frozen instance sets it past its own __setattr__
        object.__setattr__(self, "k", wavevector(self.wavelength))
        if not 0.0 < self.t_m <= 1.0:
            raise InvalidParameter(f"t_m must lie in (0, 1], got {self.t_m}")
        if not 0.0 <= self.t <= 1.0:
            raise InvalidParameter(f"t must lie in [0, 1], got {self.t}")

    @property
    def omega_c(self) -> float:
        """Cavity resonance frequency, taken as c k."""
        return C_LIGHT * self.k

    @property
    def phi0(self) -> float:
        return self.t_m ** 2 / 4.0

    @cached_property
    def mirror(self) -> ElementSpec:
        return ElementSpec.mirror(self.t)

    @cached_property
    def membrane(self) -> ElementSpec:
        return ElementSpec.membrane(self.t_m, phi_r=self.phi_r)


@dataclass(frozen=True)
class ScatteringMatrix:
    """2x2 complex scattering matrix, (out_far, out_near) = S (in_near, in_far).

    For lossless elements S is unitary; |m11| = |m22| (the two power
    transmissions are equal) and |m12| = |m21|.
    """

    m11: complex
    m12: complex
    m21: complex
    m22: complex

    def as_array(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m21, self.m22]])

    def unitarity_defect(self) -> float:
        """Max entrywise deviation of S^dagger S from the identity."""
        return unitarity_defect(self.as_array())


def unitarity_defect(s: np.ndarray) -> float:
    """Max entrywise deviation of S^dagger S from the identity over a 2x2
    matrix or a (..., 2, 2) stack of them."""
    return float(np.max(np.abs(np.conj(np.swapaxes(s, -1, -2)) @ s - np.eye(2))))


def element_scattering(spec: ElementSpec) -> ScatteringMatrix:
    """Scattering matrix of a single element (valid since it was built)."""
    if spec.kind == "mirror":
        return ScatteringMatrix(1j * spec.t, -spec.r, -spec.r, 1j * spec.t)
    tm = spec.t * cmath.exp(1j * spec.phi_t)
    rm = spec.r * cmath.exp(1j * spec.phi_r)
    return ScatteringMatrix(tm, rm, rm, tm)


def _check_pair(mirror: ElementSpec, membrane: ElementSpec) -> None:
    # each element was checked when built; only their kinds are left
    if mirror.kind != "mirror" or membrane.kind != "membrane":
        raise InvalidElement(
            f"tandem needs (mirror, membrane), got ({mirror.kind}, {membrane.kind})"
        )


def _check_tandem_args(mirror: ElementSpec, membrane: ElementSpec,
                       x: float, k: float) -> None:
    _check_pair(mirror, membrane)
    require_finite(x=x, k=k)
    if x < 0.0:
        raise InvalidParameter(f"gap must be non-negative, got x={x}")
    if k <= 0.0:
        raise InvalidParameter(f"wavevector must be positive, got k={k}")


def compose_synthetic(
    mirror: ElementSpec,
    membrane: ElementSpec,
    x: float,
    k: float,
) -> ScatteringMatrix:
    """Closed-form scattering matrix of the mirror+membrane tandem.

    With psi = 2 k x + phi_r and D = 1 + r r_m e^{i psi}:

        m11 = m22 = i t t_m e^{i phi_t} / D
        m12 = e^{2 i phi_r} (r + r_m e^{-i psi}) / D
        m21 = -(r + r_m e^{i psi}) / D

    The cavity-side reflection (mirror side) is m21.
    """
    _check_tandem_args(mirror, membrane, x, k)
    t, r = mirror.t, mirror.r
    t_m, r_m = membrane.t, membrane.r
    psi = 2.0 * k * x + membrane.phi_r
    e_psi = cmath.exp(1j * psi)
    denom = 1.0 + r * r_m * e_psi
    if abs(denom) < 1e-150:
        raise DegenerateDenominator(
            "tandem denominator vanishes (perfect reflectors in anti-resonance)"
        )
    trans = 1j * t * t_m * cmath.exp(1j * membrane.phi_t) / denom
    m12 = cmath.exp(2j * membrane.phi_r) * (r + r_m / e_psi) / denom
    m21 = -(r + r_m * e_psi) / denom
    return ScatteringMatrix(trans, m12, m21, trans)


def compose_synthetic_by_elimination(
    mirror: ElementSpec,
    membrane: ElementSpec,
    x: float,
    k: float,
) -> ScatteringMatrix:
    """Tandem matrix obtained by numerically eliminating the internal waves.

    Sets up the four amplitude relations at the mirror plane -- mirror
    scattering, membrane scattering, and the e^{+-ikx} propagation phases
    between the planes -- and solves the resulting linear system for unit
    inputs on either port.  Serves as an independent route against the
    closed form of compose_synthetic.
    """
    _check_tandem_args(mirror, membrane, x, k)
    t, r = mirror.t, mirror.r
    tm_ph = membrane.t * cmath.exp(1j * membrane.phi_t)
    rm_ph = membrane.r * cmath.exp(1j * membrane.phi_r)
    prop = cmath.exp(1j * k * x)

    # unknowns w = [g1, u1, u3, g2]; inputs (u2, g3) at the mirror plane
    #   g1 = i t u2 - r u1                  (mirror, toward membrane)
    #   g2 = -r u2 + i t u1                 (mirror, back out)
    #   u3 * prop = tm g1 prop + rm g3 / prop   (membrane, transmitted out)
    #   u1 = prop * (rm g1 prop + tm g3 / prop) (membrane, back toward mirror)
    a = np.array(
        [
            [1.0, r, 0.0, 0.0],
            [0.0, -1j * t, 0.0, 1.0],
            [-tm_ph * prop, 0.0, prop, 0.0],
            [-rm_ph * prop * prop, 1.0, 0.0, 0.0],
        ],
        dtype=complex,
    )
    cols = []
    for u2, g3 in ((1.0, 0.0), (0.0, 1.0)):
        b = np.array(
            [1j * t * u2, -r * u2, rm_ph * g3 / prop, tm_ph * g3], dtype=complex
        )
        w = np.linalg.solve(a, b)
        cols.append((w[2], w[3]))  # (u3, g2)
    return ScatteringMatrix(cols[0][0], cols[1][0], cols[0][1], cols[1][1])


@dataclass(frozen=True)
class SyntheticMirrorResponse:
    """Tandem response at phase psi: power transmission T, reflection phase
    mu = arg(-m21), and their psi-derivatives."""

    psi: float
    T: float
    mu: float
    dT_dpsi: float
    dmu_dpsi: float


def synthetic_response(
    psi,
    mirror: ElementSpec,
    membrane: ElementSpec,
) -> SyntheticMirrorResponse:
    """Closed-form synthetic-mirror response at tandem phase psi (a float,
    or a numpy array evaluated elementwise).

        T(psi)       = t^2 t_m^2 / (1 + r^2 r_m^2 + 2 r r_m cos psi)
        tan mu(psi)  = r_m t^2 sin psi /
                       (r_m (1 + r^2) cos psi + r (1 + r_m^2))
        dT/dpsi      = 2 r r_m t^2 t_m^2 sin psi / (...)^2
        dmu/dpsi     = r_m t^2 (r_m (1 + r^2) + r (1 + r_m^2) cos psi) /
                       ((r^2 + r_m^2 + 2 r r_m cos psi) (1 + r^2 r_m^2 + 2 r r_m cos psi))

    mu is resolved with atan2 on the rationalized reflection, which picks
    the quadrant making mu(psi) continuous on the reduced period and equal
    to arg(-m21) of compose_synthetic.

    Only the element kinds are checked here (each element was checked when
    built); the closed forms themselves are _response_closed_form, which
    also takes arrays of amplitudes.
    """
    _check_pair(mirror, membrane)
    return _response_closed_form(psi, mirror.t, mirror.r, membrane.t, membrane.r)


def _response_closed_form(psi, t, r, t_m, r_m) -> SyntheticMirrorResponse:
    """synthetic_response's closed forms with no element checks, elementwise
    over psi and the amplitudes of valid (mirror, membrane) pairs: floats,
    or numpy arrays that broadcast (a draw of many tandems at once).  Each
    element equals the float call on it bit for bit where numpy's float64
    cos, sin and arctan2 agree with the C library's, as the tests check."""
    psi_red = reduce_phase(psi)
    cos_psi, sin_psi = cos_sin(psi_red)

    denom = 1.0 + r * r * r_m * r_m + 2.0 * r * r_m * cos_psi
    if any_true(denom < 1e-300):
        raise DegenerateDenominator(
            "transmission denominator vanishes (r = r_m = 1, psi = pi)"
        )
    T = t * t * t_m * t_m / denom
    dT = 2.0 * r * r_m * t * t * t_m * t_m * sin_psi / (denom * denom)

    # rationalized cavity-side reflection: -m21 = (P + iQ) / |1 + r r_m e^{i psi}|^2
    p = r * (1.0 + r_m * r_m) + r_m * (1.0 + r * r) * cos_psi
    q = r_m * t * t * sin_psi
    refl_sq = r * r + r_m * r_m + 2.0 * r * r_m * cos_psi  # |r + r_m e^{i psi}|^2
    if any_true(refl_sq <= 0.0):
        raise DegenerateDenominator(
            "reflection amplitude vanishes (r = r_m, psi = pi); mu undefined"
        )
    mu = np.arctan2(q, p)
    dmu = (
        r_m * t * t * (r_m * (1.0 + r * r) + r * (1.0 + r_m * r_m) * cos_psi)
        / (refl_sq * denom)
    )
    return SyntheticMirrorResponse(psi=psi_red, T=T, mu=mu, dT_dpsi=dT, dmu_dpsi=dmu)
