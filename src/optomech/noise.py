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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR
from .elements import wavevector
from .errors import InvalidParameter, SingularSystem, ZeroCoupling
from .mate import zero_dispersive_decay
from .numerics import in_float_range, out_of_float_range, require_finite

@dataclass(frozen=True)
class PortRates:
    """Decay rates (rad/s) of the detection, dissipative-coupling, and
    loss ports."""

    gamma1: float
    gamma2: float
    gamma3: float = 0.0

    def __post_init__(self) -> None:
        require_finite(gamma1=self.gamma1, gamma2=self.gamma2, gamma3=self.gamma3)
        if min(self.gamma1, self.gamma2, self.gamma3) < 0.0:
            raise InvalidParameter("decay rates must be non-negative")
        if self.total <= 0.0:
            raise InvalidParameter("total decay rate must be positive")

    @property
    def total(self) -> float:
        return self.gamma1 + self.gamma2 + self.gamma3


@dataclass(frozen=True)
class DriveConfig:
    """Drive detuning Delta, Fourier frequency omega, and the
    number-of-photons-normalized intracavity pump amplitude a0."""

    delta: float = 0.0
    omega: float = 0.0
    a0: float = 1.0

    def __post_init__(self) -> None:
        # a cheap screen: the sum is finite unless a value is not, or it overflows
        if not math.isfinite(self.delta + self.omega + self.a0):
            require_finite(delta=self.delta, omega=self.omega, a0=self.a0)
        if self.a0 < 0.0:
            raise InvalidParameter("pump amplitude a0 must be non-negative")


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
    xy = -Delta/det and yx = Delta/det.  Raises SingularSystem when det
    vanishes, ZeroCoupling when no signal reaches the homodyne quadrature,
    and InvalidParameter for a dissipative coupling without port 2 or a
    result outside the float range.
    """
    # a cheap screen, as in DriveConfig: the sum is finite unless a value is
    # not, or it overflows
    if not math.isfinite(g_omega0 + g_gamma0 + theta):
        require_finite(g_omega0=g_omega0, g_gamma0=g_gamma0, theta=theta)
    try:
        kappa = complex(rates.total / 2.0, -drive.omega)
        det = kappa * kappa + drive.delta ** 2
        if abs(det) < 1e-300:
            raise SingularSystem(
                f"system determinant vanished (kappa={kappa}, delta={drive.delta})"
            )
        diag, xy, yx = kappa / det, -drive.delta / det, drive.delta / det
        out1_scale = 2.0 * math.sqrt(rates.gamma1)
        signal_x, signal_y = drive.a0 * g_gamma0, drive.a0 * g_omega0
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        gain = abs(
            cos_t * (out1_scale * (diag * signal_x + xy * signal_y))
            + sin_t * (out1_scale * (yx * signal_x + diag * signal_y))
        )
        if gain == 0.0:
            raise ZeroCoupling(f"no signal transfer at homodyne angle theta={theta}")
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
        raise out_of_float_range("general_spectra", exc) from exc
    # float products overflow to inf, and inf to nan, without raising
    if not (math.isfinite(s_xx) and math.isfinite(s_ff)):
        raise InvalidParameter(f"general_spectra leaves the float range ({s_xx}, {s_ff})")
    return s_xx, s_ff


def product_normalized(xi, big_a: float):
    """Backaction-imprecision product in units of hbar^2/4:
    (A^2 + 2 A xi^2) / (1 + xi^2), elementwise for an array xi.  Where xi^2
    overflows that quotient, the same one as 2 A + (A - 2) A / (1 + xi^2),
    which is its limit 2 A at infinite xi."""
    xi = np.asarray(xi, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # replaced below
        product = (big_a ** 2 + 2.0 * big_a * xi ** 2) / (1.0 + xi ** 2)
        far = ~np.isfinite(product) & ~np.isnan(xi)
        if far.any():
            limit = 2.0 * big_a + (big_a - 2.0) * (big_a / (1.0 + xi ** 2))
            product = np.where(far, limit, product)
    return product[()]


@dataclass(frozen=True)
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
    if not math.isfinite(g_omega0 + g_gamma0):
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
        raise out_of_float_range("homodyne_spectra", exc) from exc
    if not math.isfinite(product):  # one spectrum overflowed, the other underflowed
        raise InvalidParameter(f"homodyne_spectra leaves the float range ({product})")
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


def _require_positive(**values: float) -> None:
    """Raise InvalidParameter naming the first value that is not > 0 (the
    callers screen with plain comparisons first, and screen finiteness
    with one math.isfinite of a sum, as DriveConfig does: the design path
    calls each cooperativity several times per query)."""
    for name, value in values.items():
        if not value > 0.0:
            raise InvalidParameter(f"{name} must be positive, got {value}")


def _require_amplitudes(**values: float) -> None:
    """Raise InvalidParameter naming the first value outside [0, 1] (the
    callers screen with plain comparisons first, as for _require_positive)."""
    for name, value in values.items():
        if not 0.0 <= value <= 1.0:
            raise InvalidParameter(f"{name} must lie in [0, 1], got {value}")


def mechanical_scale(
    wavelength: float, l: float, x_zpf: float, gamma_m: float, a0: float = 1.0
) -> float:
    """Cooperativity prefactor M = c (k a0 x_zpf)^2 / (l gamma_m)."""
    if not math.isfinite(wavelength + l + x_zpf + gamma_m + a0):
        require_finite(wavelength=wavelength, l=l, x_zpf=x_zpf, gamma_m=gamma_m, a0=a0)
    k = wavevector(wavelength)
    if not (l > 0.0 and gamma_m > 0.0 and x_zpf > 0.0):
        _require_positive(l=l, gamma_m=gamma_m, x_zpf=x_zpf)
    if a0 < 0.0:
        raise InvalidParameter(f"pump amplitude a0 must be non-negative, got {a0}")
    return in_float_range(
        "mechanical_scale", lambda: C_LIGHT * (k * a0 * x_zpf) ** 2 / (l * gamma_m))


def cooperativity_mos(
    t: float, t_m: float, l: float, wavelength: float,
    x_zpf: float, gamma_m: float, a0: float = 1.0,
) -> float:
    """Single-photon-scalable cooperativity of the membrane-outside cavity
    at its dissipative operating point: C = M 4 t^2 / t_m^6.  No
    sideband-resolution factor enters (dissipative coupling through the
    non-feeding port)."""
    if not math.isfinite(t + t_m):
        require_finite(t=t, t_m=t_m)
    if not t_m > 0.0:
        _require_positive(t_m=t_m)
    if not (0.0 <= t <= 1.0 and t_m <= 1.0):
        _require_amplitudes(t=t, t_m=t_m)
    m_scale = mechanical_scale(wavelength, l, x_zpf, gamma_m, a0)
    return in_float_range("cooperativity_mos", lambda: m_scale * 4.0 * t ** 2 / t_m ** 6)


def cooperativity_msi(
    r_ms: float, gamma_ms: float, omega_m: float, l: float, wavelength: float,
    x_zpf: float, gamma_m: float, a0: float = 1.0,
) -> float:
    """MSI cooperativity in the unresolved-sideband regime:
    C = 2 M r_ms^2 (2 omega_m / gamma_ms)^2."""
    if not math.isfinite(r_ms + gamma_ms + omega_m):
        require_finite(r_ms=r_ms, gamma_ms=gamma_ms, omega_m=omega_m)
    if not gamma_ms > 0.0:
        _require_positive(gamma_ms=gamma_ms)
    if not 0.0 <= r_ms <= 1.0:
        _require_amplitudes(r_ms=r_ms)
    m_scale = mechanical_scale(wavelength, l, x_zpf, gamma_m, a0)
    return in_float_range(
        "cooperativity_msi",
        lambda: 2.0 * m_scale * r_ms ** 2 * (2.0 * omega_m / gamma_ms) ** 2)


def cooperativity_mate(
    t: float, t_m: float, omega_m: float, l: float, wavelength: float,
    x_zpf: float, gamma_m: float, a0: float = 1.0,
) -> float:
    """MATE cooperativity at its zero-dispersive point in the
    unresolved-sideband regime: C = M (t^2/t_m^2) (2 omega_m / gamma_mate)^2
    with gamma_mate = c t^2 / (2 l) (mate.zero_dispersive_decay)."""
    if not math.isfinite(t + t_m + omega_m):
        require_finite(t=t, t_m=t_m, omega_m=omega_m)
    m_scale = mechanical_scale(wavelength, l, x_zpf, gamma_m, a0)
    if not (t > 0.0 and t_m > 0.0):
        _require_positive(t=t, t_m=t_m)
    if not (t <= 1.0 and t_m <= 1.0):
        _require_amplitudes(t=t, t_m=t_m)

    def formula() -> float:
        gamma_mate = zero_dispersive_decay(t, l)
        return m_scale * (t / t_m) ** 2 * (2.0 * omega_m / gamma_mate) ** 2

    return in_float_range("cooperativity_mate", formula)


def cooperativity(system: str, **params: float) -> float:
    """Dispatch to the per-system cooperativity closed form.

    system is one of "mos", "msi", "mate"; params are forwarded to the
    matching cooperativity_* function.
    """
    table = {
        "mos": cooperativity_mos,
        "msi": cooperativity_msi,
        "mate": cooperativity_mate,
    }
    try:
        func = table[system.lower()]
    except KeyError:
        raise InvalidParameter(f"unknown system {system!r}; expected mos, msi, or mate")
    return func(**params)
