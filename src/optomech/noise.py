"""Three-port linearized quantum noise of a driven optomechanical cavity.

The intracavity quadratures (X, Y), in a frame rotating at the drive
frequency, obey

    (Gamma/2 - i w) X + Delta Y = sum_j (sqrt(gamma_j)/2) X_in,j + a0 g_gamma0 x
    (Gamma/2 - i w) Y - Delta X = sum_j (sqrt(gamma_j)/2) Y_in,j + a0 g_omega0 x

with Gamma = gamma1 + gamma2 + gamma3, Delta the drive detuning, and
unit-white vacuum inputs on every port (the port-3 noise enters the Y
equation through its own Y quadrature, keeping the input statistics
phase-symmetric).  Port 1 is detected: X_in1 + X_out1 = 2 sqrt(gamma1) X,
likewise for Y.  The backaction force is

    F = -(hbar a0 g_gamma0 / sqrt(gamma2)) Y_in2 + 2 hbar a0 g_omega0 X.

In the symmetric, resonant, low-frequency limit (gamma1 = gamma2 = gamma,
Delta = 0, w -> 0) the optimal homodyne angle is
theta = atan(g_omega0/g_gamma0) and

    S_xx_imp = (gamma + gamma3/2)^2 / (4 a0^2 gamma (g_gamma0^2 + g_omega0^2))
    S_FF     = hbar^2 a0^2 gamma / (gamma + gamma3/2)^2
               * (A^2 g_gamma0^2 + 2 A g_omega0^2),      A = 1 + gamma3/(2 gamma)
    S_xx_imp * S_FF = (hbar^2/4) (A^2 + 2 A xi^2) / (1 + xi^2),
                      xi = g_omega0 / g_gamma0,

bounded below by hbar^2/4 (reached only at xi = 0, A = 1).

general_spectra is the library's one form of this linear model.  It makes
one pass over the three ports in Python complex scalars, one frequency per
call (on arrays this small, numpy's per-call overhead costs more than the
arithmetic), and sums both spectra in it.  Its references live in
tests/noise_reference.py: the intracavity and port-1 noise rows and the
force row, which it equals bit for bit, and the drift and input matrices
of the equations above, solved by numpy.

The mechanical scale M and the three cooperativities given M live each in
one private kernel that does arithmetic only, on floats or broadcast numpy
arrays: _mechanical_scale and _cooperativity_mos, _msi and _mate.
mechanical_scale and the cooperativity_* functions screen and call them;
datasets.compare_systems computes M once and calls the kernels.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR
from .elements import wavevector
from .errors import InvalidParameter, ZeroCoupling
from .mate import zero_dispersive_decay
from .numerics import (finite_results, in_float_range, out_of_float_range, power,
                       require_amplitude, require_at_least_one, require_finite,
                       require_non_negative, require_positive, require_transmitting)

_NORMAL_MIN, _NORMAL_MAX = sys.float_info.min, sys.float_info.max


@dataclass(frozen=True, slots=True)
class PortRates:
    """Decay rates (rad/s) of the detection, dissipative-coupling, and
    loss ports."""

    gamma1: float
    gamma2: float
    gamma3: float = 0.0

    def __post_init__(self) -> None:
        require_non_negative(gamma1=self.gamma1, gamma2=self.gamma2, gamma3=self.gamma3)
        if self.total <= 0.0:  # all three are 0; a sum that overflows passes
            require_positive(total=self.total)

    @property
    def total(self) -> float:
        return self.gamma1 + self.gamma2 + self.gamma3


@dataclass(frozen=True, slots=True)
class DriveConfig:
    """Drive detuning Delta, Fourier frequency omega, and the
    number-of-photons-normalized intracavity pump amplitude a0."""

    delta: float = 0.0
    omega: float = 0.0
    a0: float = 1.0

    def __post_init__(self) -> None:
        # a cheap guard: the sum is finite unless a value is not, or it
        # overflows; an int beyond the float range, or a value that is not
        # a number, makes the sum raise
        try:
            cheap = math.isfinite(self.delta + self.omega + self.a0) and self.a0 >= 0.0
        except (OverflowError, TypeError):
            cheap = False
        if not cheap:
            require_finite(delta=self.delta, omega=self.omega)
            require_non_negative(a0=self.a0)


def general_spectra(
    rates: PortRates,
    drive: DriveConfig,
    g_omega0: float,
    g_gamma0: float,
    theta: float,
) -> tuple[float, float]:
    """(S_xx_imp, S_FF) from the general-frequency linear solver.

    S_xx_imp is the homodyne noise PSD at angle theta referred to the
    mechanical displacement; S_FF the backaction-force PSD.  One pass over
    the ports gives both, with the operations, in their order, of the row
    decomposition in tests/noise_reference.py.  The inverse of the drift
    matrix is [[diag, xy], [yx, diag]], with diag = kappa/det,
    xy = -Delta/det and yx = Delta/det; det = Gamma^2/4 - w^2 + Delta^2
    - i Gamma w vanishes only at Gamma = 0, which PortRates rejects.
    Raises InvalidParameter where |det| leaves the normal float range (it
    has rounded to 0 or a subnormal, or overflowed) or a result leaves the
    float range (a gain that rounds to 0 included), ZeroCoupling when no
    signal reaches the homodyne quadrature, and InvalidParameter for a
    dissipative coupling without port 2.
    """
    # a cheap screen, as in DriveConfig: the sum is finite unless a value is
    # not, or it overflows, or raises for an int beyond the float range or a
    # value that is not a number
    try:
        cheap = math.isfinite(g_omega0 + g_gamma0 + theta)
    except (OverflowError, TypeError):
        cheap = False
    if not cheap:
        require_finite(g_omega0=g_omega0, g_gamma0=g_gamma0, theta=theta)
    try:
        kappa = complex(rates.total / 2.0, -drive.omega)
        det = kappa * kappa + drive.delta ** 2
        if not _NORMAL_MIN <= abs(det) <= _NORMAL_MAX:
            raise out_of_float_range("general_spectra", f"|det| = {abs(det):.6g}")
        diag, xy, yx = kappa / det, -drive.delta / det, drive.delta / det
        out1_scale = 2.0 * math.sqrt(rates.gamma1)
        signal_x, signal_y = drive.a0 * g_gamma0, drive.a0 * g_omega0
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        gain = abs(
            cos_t * (out1_scale * (diag * signal_x + xy * signal_y))
            + sin_t * (out1_scale * (yx * signal_x + diag * signal_y))
        )
        if gain == 0.0:
            # no signal for a zero a0, gamma1 or pair of couplings, or at the
            # angle where it cancels, which the couplings scaled to a largest
            # magnitude of 1 cancel at too; else the gain only rounded to 0
            g_max = max(abs(g_omega0), abs(g_gamma0))
            if (drive.a0 == 0.0 or rates.gamma1 == 0.0 or g_max == 0.0
                    or cos_t * (diag * (g_gamma0 / g_max) + xy * (g_omega0 / g_max))
                    + sin_t * (yx * (g_gamma0 / g_max) + diag * (g_omega0 / g_max)) == 0.0):
                raise ZeroCoupling(f"no signal transfer at homodyne angle theta={theta}")
            raise out_of_float_range("general_spectra", "gain = 0")
        if rates.gamma2 <= 0.0 and g_gamma0 != 0.0:
            raise InvalidParameter("dissipative coupling requires gamma2 > 0")
        force_scale = 2.0 * HBAR * drive.a0 * g_omega0
        s_out = s_ff = 0.0
        for port, gamma in enumerate((rates.gamma1, rates.gamma2, rates.gamma3)):
            # a closed port's terms are exact zeros.  Port 1's -1 vacuum term
            # is never skipped: gamma1 == 0 has raised ZeroCoupling above
            if gamma == 0.0:
                continue
            # the port's (X_in, Y_in) drive X with (diag, xy) amp, Y with (yx, diag) amp
            amp = math.sqrt(gamma) / 2.0
            x_x, x_y, y_x = diag * amp, xy * amp, yx * amp
            out_diag = out1_scale * x_x
            if port == 0:  # X_out1 = 2 sqrt(gamma1) X - X_in1, likewise for Y
                out_diag -= 1.0
            m = abs(cos_t * out_diag + sin_t * (out1_scale * y_x))
            s_out += m * m
            m = abs(cos_t * (out1_scale * x_y) + sin_t * out_diag)
            s_out += m * m
            m = abs(force_scale * x_x)
            s_ff += m * m
            force_y = force_scale * x_y
            if port == 1 and g_gamma0 != 0.0:
                force_y += -HBAR * drive.a0 * g_gamma0 / math.sqrt(rates.gamma2)
            m = abs(force_y)
            s_ff += m * m
        s_xx = s_out / gain ** 2
    except (ZeroDivisionError, OverflowError) as exc:
        # free unless it raises: general_spectra is on the design path
        raise out_of_float_range("general_spectra", type(exc).__name__) from exc
    # float products overflow to inf, and inf to nan, without raising
    if not (math.isfinite(s_xx) and math.isfinite(s_ff)):
        finite_results("general_spectra", s_xx, s_ff)
    return s_xx, s_ff


def product_normalized(xi, big_a: float):
    """Backaction-imprecision product in units of hbar^2/4:
    (A^2 + 2 A xi^2) / (1 + xi^2), elementwise for an array xi.  Where xi^2
    overflows that quotient, the same one as 2 A + (A - 2) A / (1 + xi^2),
    which is its limit 2 A at infinite xi.  Raises InvalidParameter where
    A^2 overflows, and for an A that is not at least 1 (A = 1 + gamma3 /
    (2 gamma)); xi is not screened, a NaN xi gives a NaN product."""
    require_at_least_one(big_a=big_a)
    xi = np.asarray(xi, dtype=float)
    a_sq = in_float_range("product_normalized", lambda: big_a ** 2)
    with np.errstate(over="ignore", invalid="ignore"):  # replaced below
        product = (a_sq + 2.0 * big_a * xi ** 2) / (1.0 + xi ** 2)
        far = ~np.isfinite(product) & ~np.isnan(xi)
        if far.any():
            limit = 2.0 * big_a + (big_a - 2.0) * (big_a / (1.0 + xi ** 2))
            product = np.where(far, limit, product)
    return product[()]


@dataclass(frozen=True, slots=True)
class NoiseReport:
    """Closed-form homodyne noise summary at the symmetric resonant
    operating point."""

    theta_opt: float
    s_xx_imp: float
    s_ff: float
    product: float
    xi: float
    A: float


def homodyne_spectra(
    rates: PortRates,
    drive: DriveConfig,
    g_omega0: float,
    g_gamma0: float,
) -> NoiseReport:
    """Closed-form optimal-angle spectra for the symmetric two-sided cavity.

    Preconditions, each raising InvalidParameter when broken: resonant drive
    (delta = 0), symmetric open ports (gamma1 = gamma2 > 0) and a pump
    (a0 > 0); the forms are the low-frequency limit, drive.omega is ignored.
    Raises ZeroCoupling if both constants vanish.
    """
    if drive.delta != 0.0:
        raise InvalidParameter("closed forms hold at resonant drive (delta = 0)")
    if rates.gamma1 != rates.gamma2:
        raise InvalidParameter("closed forms hold for a symmetric cavity (gamma1 = gamma2)")
    if rates.gamma1 == 0.0:
        raise InvalidParameter("closed forms need open ports (gamma1 = gamma2 > 0)")
    try:  # a cheap screen, as in general_spectra
        cheap = math.isfinite(g_omega0 + g_gamma0)
    except (OverflowError, TypeError):
        cheap = False
    if not cheap:
        require_finite(g_omega0=g_omega0, g_gamma0=g_gamma0)
    if g_omega0 == 0.0 and g_gamma0 == 0.0:
        raise ZeroCoupling("both coupling constants are zero")
    if drive.a0 <= 0.0:
        raise InvalidParameter("imprecision diverges without a pump (a0 = 0)")
    gamma = rates.gamma1
    half_width = gamma + rates.gamma3 / 2.0
    big_a = 1.0 + rates.gamma3 / (2.0 * gamma)
    try:
        g_sq = g_gamma0 ** 2 + g_omega0 ** 2
        s_xx = half_width ** 2 / (4.0 * drive.a0 ** 2 * gamma * g_sq)
        s_ff = (
            HBAR ** 2 * drive.a0 ** 2 * gamma / half_width ** 2
            * (big_a ** 2 * g_gamma0 ** 2 + 2.0 * big_a * g_omega0 ** 2)
        )
        product = s_xx * s_ff
    except (ZeroDivisionError, OverflowError) as exc:
        raise out_of_float_range("homodyne_spectra", type(exc).__name__) from exc
    if not math.isfinite(product):  # one spectrum overflowed, the other underflowed
        finite_results("homodyne_spectra", product)
    theta_opt = math.atan2(g_omega0, g_gamma0)
    xi = math.inf if g_gamma0 == 0.0 else g_omega0 / g_gamma0
    return NoiseReport(
        theta_opt=theta_opt,
        s_xx_imp=s_xx,
        s_ff=s_ff,
        product=product,
        xi=xi,
        A=big_a,
    )


def _mechanical_scale(k, l, x_zpf, gamma_m, a0):
    """M = c (k a0 x_zpf)^2 / (l gamma_m), elementwise over arrays."""
    return C_LIGHT * power(k * a0 * x_zpf, 2) / (l * gamma_m)


def _cooperativity_mos(m_scale, t, t_m):
    """C = M 4 t^2 / t_m^6, elementwise over arrays."""
    return m_scale * 4.0 * power(t, 2) / power(t_m, 6)


def _cooperativity_msi(m_scale, r_ms, gamma_ms, omega_m):
    """C = 2 M r_ms^2 (2 omega_m / gamma_ms)^2, elementwise over arrays."""
    return 2.0 * m_scale * power(r_ms, 2) * power(2.0 * omega_m / gamma_ms, 2)


def _cooperativity_mate(m_scale, t, t_m, omega_m, gamma_mate):
    """C = M (t / t_m)^2 (2 omega_m / gamma_mate)^2, elementwise over arrays."""
    return m_scale * power(t / t_m, 2) * power(2.0 * omega_m / gamma_mate, 2)


def mechanical_scale(
    wavelength: float, l: float, x_zpf: float, gamma_m: float, a0: float = 1.0
) -> float:
    """Cooperativity prefactor M = c (k a0 x_zpf)^2 / (l gamma_m)."""
    k = wavevector(wavelength)
    require_positive(l=l, x_zpf=x_zpf, gamma_m=gamma_m)
    require_non_negative(a0=a0)
    return in_float_range("mechanical_scale",
                          lambda: _mechanical_scale(k, l, x_zpf, gamma_m, a0))


def cooperativity_mos(
    t: float, t_m: float, l: float, wavelength: float,
    x_zpf: float, gamma_m: float, a0: float = 1.0,
) -> float:
    """Single-photon-scalable cooperativity of the membrane-outside cavity
    at its dissipative operating point: C = M 4 t^2 / t_m^6.  No
    sideband-resolution factor enters (dissipative coupling through the
    non-feeding port)."""
    require_amplitude(t=t)
    require_transmitting(t_m=t_m)
    m_scale = mechanical_scale(wavelength, l, x_zpf, gamma_m, a0)
    return in_float_range("cooperativity_mos", lambda: _cooperativity_mos(m_scale, t, t_m))


def cooperativity_msi(
    r_ms: float, gamma_ms: float, omega_m: float, l: float, wavelength: float,
    x_zpf: float, gamma_m: float, a0: float = 1.0,
) -> float:
    """MSI cooperativity in the unresolved-sideband regime:
    C = 2 M r_ms^2 (2 omega_m / gamma_ms)^2."""
    require_amplitude(r_ms=r_ms)
    require_positive(gamma_ms=gamma_ms)
    require_finite(omega_m=omega_m)
    m_scale = mechanical_scale(wavelength, l, x_zpf, gamma_m, a0)
    return in_float_range("cooperativity_msi",
                          lambda: _cooperativity_msi(m_scale, r_ms, gamma_ms, omega_m))


def cooperativity_mate(
    t: float, t_m: float, omega_m: float, l: float, wavelength: float,
    x_zpf: float, gamma_m: float, a0: float = 1.0,
) -> float:
    """MATE cooperativity at its zero-dispersive point in the
    unresolved-sideband regime: C = M (t^2/t_m^2) (2 omega_m / gamma_mate)^2
    with gamma_mate = c t^2 / (2 l) (mate.zero_dispersive_decay)."""
    require_transmitting(t=t, t_m=t_m)
    require_finite(omega_m=omega_m)
    m_scale = mechanical_scale(wavelength, l, x_zpf, gamma_m, a0)
    return in_float_range("cooperativity_mate", lambda: _cooperativity_mate(
        m_scale, t, t_m, omega_m, zero_dispersive_decay(t, l)))


_COOPERATIVITIES = {
    "mos": cooperativity_mos,
    "msi": cooperativity_msi,
    "mate": cooperativity_mate,
}


def cooperativity(system: str, **params: float) -> float:
    """Dispatch to the per-system cooperativity closed form.

    system is one of "mos", "msi", "mate"; params are forwarded to the
    matching cooperativity_* function.
    """
    func = _COOPERATIVITIES.get(system.lower() if isinstance(system, str) else None)
    if func is None:
        raise InvalidParameter(f"unknown system {system!r}; expected mos, msi, or mate")
    return func(**params)
