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
reflection phase phi_r; losslessness fixes its transmission phase to
phi_t = phi_r - pi/2 (any phi_r - phi_t = pi/2 mod pi would do), and its
matrix is

    [[ t_m e^{i phi_t}, r_m e^{i phi_r} ],
     [ r_m e^{i phi_r}, t_m e^{i phi_t} ]].

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
the kernels on a whole draw at once.  The matrix kernels compute in real
arithmetic that mirrors CPython's complex product and quotient, so an
array element equals the scalar cmath evaluation bit for bit.
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


def transmission_phase(phi_r):
    """Transmission phase phi_t = phi_r - pi/2 that losslessness gives a
    membrane of reflection phase phi_r (a float, or an array elementwise)."""
    return phi_r - math.pi / 2


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
    reflection phase phi_r; the reflection r = sqrt(1 - t^2) and a
    membrane's transmission phase phi_t = phi_r - pi/2 are derived, so
    every element is lossless by construction.  The mirror matrix has its
    phases built in.  Checked once, when built: an instance is frozen, so
    every instance is valid.
    """

    kind: str  # "mirror" | "membrane"
    t: float
    phi_r: float = 0.0
    r: float = field(init=False, repr=False, compare=False)
    phi_t: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.validate()
        # derived once; a frozen instance sets them past its own __setattr__
        object.__setattr__(self, "r", reflectivity(self.t))
        object.__setattr__(self, "phi_t",
                           transmission_phase(self.phi_r) if self.kind == "membrane" else 0.0)

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

    def unitarity_defect(self) -> float:
        """Max entrywise deviation of S^dagger S from the identity."""
        return unitarity_defect(self.as_array())


def unitarity_defect(s: np.ndarray) -> float:
    """Max entrywise deviation of S^dagger S from the identity over a 2x2
    matrix or a (..., 2, 2) stack of them."""
    return float(np.max(np.abs(np.conj(np.swapaxes(s, -1, -2)) @ s - np.eye(2))))


# The matrix kernels below hold the formulas of element_scattering,
# compose_synthetic and compose_synthetic_by_elimination, elementwise over
# floats or numpy arrays that broadcast (a whole validation draw at once).
# They compute in real arithmetic on (real, imag) pairs, step for step as
# CPython 3.11 evaluates the complex expressions of the scalar formulas, so
# that each element equals the scalar cmath evaluation bit for bit:
#
# - a float operand is the complex (f, 0.0), as CPython converts it;
# - a product is _Py_c_prod, (ar br - ai bi, ar bi + ai br);
# - a quotient is _Py_c_quot, which scales by the larger part of the divisor
#   and so takes one of two branches on abs(b.real) >= abs(b.imag);
# - cmath.exp(1j * theta) is (cos(0.0 + theta), sin(0.0 + theta)), as the
#   real part of 1j * theta is a signed zero and exp of it is 1.0.
#
# numpy's own complex arithmetic would not do: on AVX-512 hosts its complex
# product and quotient round differently from CPython's in the last bit for
# about 44% and 43% of random operands, and np.abs from abs for 36%, while
# numpy's float64 cos, sin and hypot agree with the C library's.

def _cmul(a, b):
    """CPython's complex product of (real, imag) pairs."""
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def _cquot(a, b):
    """CPython's complex quotient of (real, imag) pairs; b never vanishes.
    A float divisor takes its branch as CPython does, an array divisor
    both, each element keeping its own."""
    br, bi = b
    if not isinstance(br, np.ndarray):
        return _quot_by_real(a, b) if abs(br) >= abs(bi) else _quot_by_imag(a, b)
    by_real = np.abs(br) >= np.abs(bi)  # False for a NaN part: NaN either way
    with np.errstate(divide="ignore", invalid="ignore"):  # the branch not taken
        return tuple(np.where(by_real, p, q)
                     for p, q in zip(_quot_by_real(a, b), _quot_by_imag(a, b)))


def _quot_by_real(a, b):
    """a / b with b scaled by its real part."""
    (ar, ai), (br, bi) = a, b
    ratio = bi / br
    denom = br + bi * ratio
    return (ar + ai * ratio) / denom, (ai - ar * ratio) / denom


def _quot_by_imag(a, b):
    """a / b with b scaled by its imaginary part."""
    (ar, ai), (br, bi) = a, b
    ratio = br / bi
    denom = br * ratio + bi
    return (ar * ratio + ai) / denom, (ai * ratio - ar) / denom


def _cexp_i(theta):
    """cmath.exp(1j * theta) of a finite real theta, as a (real, imag) pair."""
    return cos_sin(0.0 + theta)


def _complex(z):
    """The Python complex of a pair of floats, or the complex array of a
    pair with an array, bit for bit."""
    re, im = z
    if not isinstance(re, np.ndarray) and not isinstance(im, np.ndarray):
        return complex(float(re), float(im))
    re, im = np.broadcast_arrays(re, im)
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _mirror_matrix(t, r) -> ScatteringMatrix:
    """[[i t, -r], [-r, i t]] of mirrors of amplitudes (t, r)."""
    trans = _complex(_cmul((0.0, 1.0), (t, 0.0)))
    refl = _complex((-r, 0.0))
    return ScatteringMatrix(trans, refl, refl, trans)


def _membrane_matrix(t_m, r_m, phi_r, phi_t) -> ScatteringMatrix:
    """[[t_m e^{i phi_t}, r_m e^{i phi_r}], [r_m e^{i phi_r}, t_m e^{i phi_t}]]
    of membranes of amplitudes (t_m, r_m) and phases (phi_r, phi_t)."""
    trans = _complex(_cmul((t_m, 0.0), _cexp_i(phi_t)))
    refl = _complex(_cmul((r_m, 0.0), _cexp_i(phi_r)))
    return ScatteringMatrix(trans, refl, refl, trans)


def element_scattering(spec: ElementSpec) -> ScatteringMatrix:
    """Scattering matrix of a single element (valid since it was built)."""
    if spec.kind == "mirror":
        return _mirror_matrix(spec.t, spec.r)
    return _membrane_matrix(spec.t, spec.r, spec.phi_r, spec.phi_t)


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
    """(t, r, t_m, r_m, phi_r, phi_t) of a (mirror, membrane) pair, the
    leading arguments of the tandem kernels."""
    return mirror.t, mirror.r, membrane.t, membrane.r, membrane.phi_r, membrane.phi_t


def compose_synthetic(mirror: ElementSpec, membrane: ElementSpec, x, k: float
                      ) -> ScatteringMatrix:
    """Closed-form scattering matrix of the mirror+membrane tandem at gap x
    (a float, or a numpy array of gaps evaluated elementwise).

    With psi = 2 k x + phi_r and D = 1 + r r_m e^{i psi}:

        m11 = m22 = i t t_m e^{i phi_t} / D
        m12 = e^{2 i phi_r} (r + r_m e^{-i psi}) / D
        m21 = -(r + r_m e^{i psi}) / D

    The cavity-side reflection (mirror side) is m21.  The formulas are
    _tandem_closed_form, which also takes arrays of amplitudes and phases.
    """
    _check_tandem_args(mirror, membrane, x, k)
    return _tandem_closed_form(*_pair_args(mirror, membrane), x, k)


def _tandem_closed_form(t, r, t_m, r_m, phi_r, phi_t, x, k) -> ScatteringMatrix:
    """compose_synthetic's closed form with no argument checks, elementwise
    over valid (mirror, membrane, x, k): floats, or arrays that broadcast.
    Raises DegenerateDenominator if D vanishes anywhere.  Its real
    arithmetic mirrors CPython 3.11's complex product and quotient (see the
    note above _cmul), so each element is the scalar cmath value bit for
    bit, which numpy's complex * and / would not give."""
    psi = 2.0 * k * x + phi_r
    e_psi = _cexp_i(psi)
    rr_e = _cmul((r * r_m, 0.0), e_psi)
    denom = (1.0 + rr_e[0], 0.0 + rr_e[1])
    if any_true(np.hypot(*denom) < 1e-150):
        raise DegenerateDenominator(
            "tandem denominator vanishes (perfect reflectors in anti-resonance)"
        )
    trans = _cmul(_cmul(_cmul((0.0, 1.0), (t, 0.0)), (t_m, 0.0)), _cexp_i(phi_t))
    trans = _complex(_cquot(trans, denom))
    back = _cquot((r_m, 0.0), e_psi)  # r_m e^{-i psi}
    m12 = _cquot(_cmul(_cexp_i(2.0 * phi_r), (r + back[0], 0.0 + back[1])), denom)
    fwd = _cmul((r_m, 0.0), e_psi)
    m21 = _cquot((-(r + fwd[0]), -(0.0 + fwd[1])), denom)
    return ScatteringMatrix(trans, _complex(m12), _complex(m21), trans)


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


def _tandem_by_elimination(t, r, t_m, r_m, phi_r, phi_t, x, k) -> ScatteringMatrix:
    """compose_synthetic_by_elimination with no argument checks, elementwise
    over valid (mirror, membrane, x, k): floats, or arrays that broadcast.
    The 4x4 systems of all elements are solved as one stack per input port,
    each system as np.linalg.solve solves it alone."""
    tm_ph = _cmul((t_m, 0.0), _cexp_i(phi_t))
    rm_ph = _cmul((r_m, 0.0), _cexp_i(phi_r))
    prop = _cexp_i(k * x)  # 1j * k * x is (0.0, 0.0 + k x), as 1j * (k x) is
    neg_tm, neg_rm = (-tm_ph[0], -tm_ph[1]), (-rm_ph[0], -rm_ph[1])

    # unknowns w = [g1, u1, u3, g2]; inputs (u2, g3) at the mirror plane
    #   g1 = i t u2 - r u1                  (mirror, toward membrane)
    #   g2 = -r u2 + i t u1                 (mirror, back out)
    #   u3 * prop = tm g1 prop + rm g3 / prop   (membrane, transmitted out)
    #   u1 = prop * (rm g1 prop + tm g3 / prop) (membrane, back toward mirror)
    shape = np.broadcast_shapes(*(np.shape(v) for v in (t, r, t_m, r_m, phi_r, phi_t, x, k)))
    a = np.zeros(shape + (4, 4), dtype=complex)
    a[..., 0, 0] = a[..., 1, 3] = a[..., 3, 1] = 1.0
    a[..., 0, 1] = r
    a[..., 1, 1] = _complex(_cmul((-0.0, -1.0), (t, 0.0)))  # -1j * t
    a[..., 2, 0] = _complex(_cmul(neg_tm, prop))
    a[..., 2, 2] = _complex(prop)
    a[..., 3, 0] = _complex(_cmul(_cmul(neg_rm, prop), prop))
    i_t = _cmul((0.0, 1.0), (t, 0.0))
    cols = []
    for u2, g3 in ((1.0, 0.0), (0.0, 1.0)):
        b = np.empty(shape + (4, 1), dtype=complex)
        b[..., 0, 0] = _complex(_cmul(i_t, (u2, 0.0)))
        b[..., 1, 0] = -r * u2
        b[..., 2, 0] = _complex(_cquot(_cmul(rm_ph, (g3, 0.0)), prop))
        b[..., 3, 0] = _complex(_cmul(tm_ph, (g3, 0.0)))
        w = np.linalg.solve(a, b)[..., 0]
        cols.append((w[..., 2], w[..., 3]))  # (u3, g2)
    (u3_in, g2_in), (u3_far, g2_far) = cols
    return ScatteringMatrix(u3_in, u3_far, g2_in, g2_far)


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
