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

(transmission phase pi/2, reflection phase pi).  The membrane carries a free
reflection phase phi_r; losslessness puts its transmission a quarter turn
behind (any quarter turn would do), and its matrix is

    [[ -i t_m e^{i phi_r}, r_m e^{i phi_r} ],
     [ r_m e^{i phi_r}, -i t_m e^{i phi_r} ]],

built from the one factor e^{i phi_r}, so it is unitary to rounding at any
phi_r.

The tandem phase is psi = 2 k x + phi_r, with x the mirror-membrane gap.
The reflection phase of the tandem, mu(psi), is the argument of the
negated cavity-side reflection amplitude, -m21; with psi reduced to
(-pi, pi] this branch is continuous over one period and vanishes at the
transparency maximum psi = pi when the membrane is less reflective than
the mirror (r_m < r).

Each formula lives in one private kernel that works elementwise over
floats or broadcast numpy arrays: _mirror_matrix and _membrane_matrix
behind element_scattering, _tandem_closed_form behind compose_synthetic,
_tandem_by_elimination behind compose_synthetic_by_elimination and
_response_closed_form behind synthetic_response.  The public functions
check their elements and geometry and call the kernel, so the tandem
functions take a float gap or an array of gaps; the validation suite calls
the kernels on a whole draw at once.  The matrix kernels are numpy complex
expressions, so their entries are numpy complex scalars on floats and
complex arrays on arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import C_LIGHT
from .errors import DegenerateDenominator, InvalidElement, InvalidParameter
from .numerics import any_true, cos_sin, require_finite

TWO_PI = 2.0 * math.pi


def reflectivity(a):
    """Partner amplitude sqrt(1 - a^2) of a lossless element's amplitude a
    in [0, 1] (or of each amplitude of an array): r of a transmission t, or
    t of a reflection r."""
    if isinstance(a, np.ndarray):
        return np.sqrt(np.maximum(0.0, 1.0 - a * a))
    return math.sqrt(max(0.0, 1.0 - a * a))


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


@dataclass(frozen=True, kw_only=True)
class ElementSpec:
    """Lossless optical element: a fixed-phase mirror or a phased membrane.

    A caller sets the amplitude transmission t and, for a membrane, the
    reflection phase phi_r; the reflection r = sqrt(1 - t^2) is derived,
    and the matrices have the transmission phases built in, so every
    element is lossless by construction.  Checked once, when built: an
    instance is frozen, so every instance is valid.
    """

    kind: str  # "mirror" | "membrane"
    t: float
    phi_r: float = 0.0
    r: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.validate()
        # derived once; a frozen instance sets it past its own __setattr__
        object.__setattr__(self, "r", reflectivity(self.t))

    @classmethod
    def mirror(cls, t: float) -> "ElementSpec":
        return cls(kind="mirror", t=t)

    @classmethod
    def membrane(cls, t_m: float, phi_r: float = math.pi / 2) -> "ElementSpec":
        return cls(kind="membrane", t=t_m, phi_r=phi_r)

    def validate(self) -> None:
        """Raise InvalidElement unless the kind is known, 0 <= t <= 1 and
        phi_r is finite."""
        if self.kind not in ("mirror", "membrane"):
            raise InvalidElement(f"unknown element kind {self.kind!r}")
        if not 0.0 <= self.t <= 1.0:
            raise InvalidElement(f"t must lie in [0, 1], got {self.t}")
        if not math.isfinite(self.phi_r):
            raise InvalidElement(f"phi_r must be finite, got {self.phi_r}")


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

    Each entry is a complex, or for an array of gaps a complex array, all
    four of one shape.  For lossless elements S is unitary; |m11| = |m22|
    (the two power transmissions are equal) and |m12| = |m21|.
    """

    m11: complex
    m12: complex
    m21: complex
    m22: complex

    def as_array(self) -> np.ndarray:
        """The 2x2 matrix, or the (..., 2, 2) stack of an array of them."""
        entries = np.broadcast_arrays(self.m11, self.m12, self.m21, self.m22)
        return np.stack(entries, axis=-1).reshape(entries[0].shape + (2, 2))


def unitarity_defect(s: np.ndarray) -> float:
    """Max entrywise deviation of S^dagger S from the identity over a 2x2
    matrix or a (..., 2, 2) stack of them."""
    return float(np.max(np.abs(np.conj(np.swapaxes(s, -1, -2)) @ s - np.eye(2))))


def _mirror_matrix(t, r) -> ScatteringMatrix:
    """[[i t, -r], [-r, i t]] of mirrors of amplitudes (t, r)."""
    # ufuncs, so that floats give numpy complex scalars, as in the other kernels
    trans = np.multiply(1j, t)
    refl = np.negative(r, dtype=complex)
    return ScatteringMatrix(trans, refl, refl, trans)


def _membrane_matrix(t_m, r_m, phi_r) -> ScatteringMatrix:
    """[[-i t_m e^{i phi_r}, r_m e^{i phi_r}], [r_m e^{i phi_r}, -i t_m e^{i phi_r}]]
    of membranes of amplitudes (t_m, r_m) and reflection phase phi_r."""
    e_phi = np.exp(1j * phi_r)
    trans = -1j * t_m * e_phi
    refl = r_m * e_phi
    return ScatteringMatrix(trans, refl, refl, trans)


def element_scattering(spec: ElementSpec) -> ScatteringMatrix:
    """Scattering matrix of a single element (valid since it was built)."""
    if spec.kind == "mirror":
        return _mirror_matrix(spec.t, spec.r)
    return _membrane_matrix(spec.t, spec.r, spec.phi_r)


def _check_pair(mirror: ElementSpec, membrane: ElementSpec) -> None:
    # each element was checked when built; only their kinds are left
    if mirror.kind != "mirror" or membrane.kind != "membrane":
        raise InvalidElement(
            f"tandem needs (mirror, membrane), got ({mirror.kind}, {membrane.kind})"
        )


def _check_tandem_args(mirror: ElementSpec, membrane: ElementSpec, x, k) -> None:
    _check_pair(mirror, membrane)
    require_finite(x=x, k=k)
    if any_true(x < 0.0):
        raise InvalidParameter(f"gap must be non-negative, got x={x}")
    if any_true(k <= 0.0):
        raise InvalidParameter(f"wavevector must be positive, got k={k}")


def _pair_args(mirror: ElementSpec, membrane: ElementSpec) -> tuple:
    """(t, r, t_m, r_m, phi_r) of a (mirror, membrane) pair, the leading
    arguments of the tandem kernels."""
    return mirror.t, mirror.r, membrane.t, membrane.r, membrane.phi_r


def compose_synthetic(mirror: ElementSpec, membrane: ElementSpec, x, k: float
                      ) -> ScatteringMatrix:
    """Closed-form scattering matrix of the mirror+membrane tandem at gap x
    (a float, or a numpy array of gaps evaluated elementwise).

    With psi = 2 k x + phi_r and D = 1 + r r_m e^{i psi}:

        m11 = m22 = t t_m e^{i phi_r} / D
        m12 = e^{2 i phi_r} (r + r_m e^{-i psi}) / D
        m21 = -(r + r_m e^{i psi}) / D

    The cavity-side reflection (mirror side) is m21.  The formulas are
    _tandem_closed_form, which also takes arrays of amplitudes and phases.
    """
    _check_tandem_args(mirror, membrane, x, k)
    return _tandem_closed_form(*_pair_args(mirror, membrane), x, k)


def _tandem_closed_form(t, r, t_m, r_m, phi_r, x, k) -> ScatteringMatrix:
    """compose_synthetic's closed form with no argument checks, elementwise
    over valid (mirror, membrane, x, k): floats, or arrays that broadcast."""
    psi = 2.0 * k * x + phi_r
    e_psi = np.exp(1j * psi)
    denom = 1.0 + r * r_m * e_psi
    # (i t) (-i t_m e^{i phi_r}): the mirror's transmission times the membrane's
    trans = t * t_m * np.exp(1j * phi_r) / denom
    m12 = np.exp(2j * phi_r) * (r + r_m * np.conj(e_psi)) / denom
    m21 = -(r + r_m * e_psi) / denom
    return ScatteringMatrix(trans, m12, m21, trans)


def compose_synthetic_by_elimination(mirror: ElementSpec, membrane: ElementSpec, x,
                                     k: float) -> ScatteringMatrix:
    """Tandem matrix obtained by numerically eliminating the internal waves
    (at a float gap x, or elementwise over an array of gaps).

    Sets up the four amplitude relations at the mirror plane -- mirror
    scattering, membrane scattering, and the e^{+-ikx} propagation phases
    between the planes -- and solves the resulting linear system for unit
    inputs on either port.  Serves as an independent route against the
    closed form of compose_synthetic.
    """
    _check_tandem_args(mirror, membrane, x, k)
    return _tandem_by_elimination(*_pair_args(mirror, membrane), x, k)


def _tandem_by_elimination(t, r, t_m, r_m, phi_r, x, k) -> ScatteringMatrix:
    """compose_synthetic_by_elimination with no argument checks, elementwise
    over valid (mirror, membrane, x, k): floats, or arrays that broadcast.
    The 4x4 systems of all elements are solved as one stack, both input
    ports at once."""
    mirror, membrane = _mirror_matrix(t, r), _membrane_matrix(t_m, r_m, phi_r)
    prop = np.exp(1j * k * x)

    # unknowns w = [g1, u1, u3, g2]; inputs (u2, g3) at the mirror plane;
    # M is the mirror's matrix and N the membrane's
    #   g1 = M11 u2 + M12 u1                      (mirror, toward membrane)
    #   g2 = M21 u2 + M22 u1                      (mirror, back out)
    #   u3 * prop = N11 g1 prop + N12 g3 / prop   (membrane, transmitted out)
    #   u1 = prop * (N21 g1 prop + N22 g3 / prop) (membrane, back toward mirror)
    shape = np.broadcast_shapes(*(np.shape(v) for v in (t, r, t_m, r_m, phi_r, x, k)))
    a = np.zeros(shape + (4, 4), dtype=complex)
    a[..., 0, 0] = a[..., 1, 3] = a[..., 3, 1] = 1.0
    a[..., 0, 1] = -mirror.m12
    a[..., 1, 1] = -mirror.m22
    a[..., 2, 0] = -membrane.m11 * prop
    a[..., 2, 2] = prop
    a[..., 3, 0] = -membrane.m21 * prop * prop
    b = np.zeros(shape + (4, 2), dtype=complex)  # column 0: u2 = 1; column 1: g3 = 1
    b[..., 0, 0] = mirror.m11
    b[..., 1, 0] = mirror.m21
    b[..., 2, 1] = membrane.m12 / prop
    b[..., 3, 1] = membrane.m22
    # rows (g1, u1, u3, g2) first, so a float gap gives numpy scalars
    u3, g2 = np.moveaxis(np.linalg.solve(a, b), (-2, -1), (0, 1))[2:]
    return ScatteringMatrix(u3[0], u3[1], g2[0], g2[1])


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
