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

general_spectra makes one pass over the three ports in Python complex
scalars, one frequency per call (on arrays this small, numpy's per-call
overhead costs more than the arithmetic), and sums both spectra in it.
solve_fluctuations gives the reference decomposition into intracavity and
port-1 noise rows (FluctuationSolution) and _force_coefficients the force
row; general_spectra equals them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR
from .elements import wavevector
from .errors import InvalidParameter, SingularSystem, ZeroCoupling
from .numerics import in_float_range, require_finite

#: index layout of the input-quadrature noise basis
NOISE_BASIS = ("X_in1", "Y_in1", "X_in2", "Y_in2", "X_in3", "Y_in3")


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


@dataclass(frozen=True)
class FluctuationSolution:
    """Noise/signal decomposition of the intracavity and port-1 output
    quadratures, kept as complex scalars.

    The inverse of the 2x2 drift matrix is [[diag, xy], [yx, diag]] with
    diag = kappa/det, xy = -Delta/det and yx = Delta/det; port j drives both
    quadratures with amplitude sqrt(gamma_j)/2.  Noise coefficients follow
    NOISE_BASIS; power spectral densities are sums of |coefficient|^2 over
    it (unit-white, mutually uncorrelated vacuum inputs).
    """

    diag: complex
    xy: complex
    yx: complex
    amplitudes: tuple[float, float, float]  # sqrt(gamma_j) / 2
    out1_scale: float                       # 2 sqrt(gamma1)
    out1_signal: tuple[complex, complex]    # (X, Y), per unit mechanical amplitude

    def cavity_noise_rows(self) -> tuple[list[complex], list[complex]]:
        """Intracavity (X, Y) noise coefficients over NOISE_BASIS."""
        x_row: list[complex] = []
        y_row: list[complex] = []
        for amp in self.amplitudes:
            x_row += (self.diag * amp, self.xy * amp)
            y_row += (self.yx * amp, self.diag * amp)
        return x_row, y_row

    def out1_noise_rows(self) -> tuple[list[complex], list[complex]]:
        """Port-1 output (X, Y) noise coefficients over NOISE_BASIS:
        X_out1 = 2 sqrt(gamma1) X - X_in1, likewise for Y."""
        x_row, y_row = self.cavity_noise_rows()
        x_out = [self.out1_scale * c for c in x_row]
        y_out = [self.out1_scale * c for c in y_row]
        x_out[0] -= 1.0
        y_out[1] -= 1.0
        return x_out, y_out

    def out1_psd(self, theta: float) -> float:
        """Noise PSD of the homodyne quadrature cos(theta) X + sin(theta) Y."""
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        return _psd([cos_t * x + sin_t * y for x, y in zip(*self.out1_noise_rows())])

    def out1_gain(self, theta: float) -> complex:
        """Signal transfer of the homodyne quadrature at angle theta."""
        return (
            math.cos(theta) * self.out1_signal[0]
            + math.sin(theta) * self.out1_signal[1]
        )


def _psd(coefficients: list[complex]) -> float:
    """Sum of |c|^2 over noise coefficients, in order."""
    total = 0.0
    for c in coefficients:
        mag = abs(c)
        total += mag * mag
    return total


def _drift_inverse(
    rates: PortRates, drive: DriveConfig
) -> tuple[complex, complex, complex]:
    """(diag, xy, yx) of the inverse 2x2 drift matrix [[diag, xy], [yx, diag]]."""
    kappa = complex(rates.total / 2.0, -drive.omega)
    det = kappa * kappa + drive.delta ** 2
    if abs(det) < 1e-300:
        raise SingularSystem(
            f"system determinant vanished (kappa={kappa}, delta={drive.delta})"
        )
    return kappa / det, -drive.delta / det, drive.delta / det


def solve_fluctuations(
    rates: PortRates,
    drive: DriveConfig,
    g_omega0: float,
    g_gamma0: float,
) -> FluctuationSolution:
    """Solve the 2x2 intracavity system at arbitrary detuning and frequency
    and propagate to the detected port-1 output quadratures."""
    diag, xy, yx = _drift_inverse(rates, drive)
    signal_x, signal_y = drive.a0 * g_gamma0, drive.a0 * g_omega0
    out1_scale = 2.0 * math.sqrt(rates.gamma1)
    return FluctuationSolution(
        diag=diag,
        xy=xy,
        yx=yx,
        amplitudes=(math.sqrt(rates.gamma1) / 2.0, math.sqrt(rates.gamma2) / 2.0,
                    math.sqrt(rates.gamma3) / 2.0),
        out1_scale=out1_scale,
        out1_signal=(
            out1_scale * (diag * signal_x + xy * signal_y),
            out1_scale * (yx * signal_x + diag * signal_y),
        ),
    )


def _force_coefficients(
    sol: FluctuationSolution,
    rates: PortRates,
    drive: DriveConfig,
    g_omega0: float,
    g_gamma0: float,
) -> list[complex]:
    # reads only the cavity noise, which the signal does not enter
    if rates.gamma2 <= 0.0 and g_gamma0 != 0.0:
        raise InvalidParameter("dissipative coupling requires gamma2 > 0")
    scale = 2.0 * HBAR * drive.a0 * g_omega0
    coeffs = [scale * c for c in sol.cavity_noise_rows()[0]]
    if g_gamma0 != 0.0:
        coeffs[3] += -HBAR * drive.a0 * g_gamma0 / math.sqrt(rates.gamma2)
    return coeffs


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
    the ports gives both, with the operations, in their order, of
    FluctuationSolution.out1_psd / out1_gain and _force_coefficients.
    """
    # a cheap screen, as in DriveConfig: the sum is finite unless a value is
    # not, or it overflows
    if not math.isfinite(g_omega0 + g_gamma0 + theta):
        require_finite(g_omega0=g_omega0, g_gamma0=g_gamma0, theta=theta)
    diag, xy, yx = _drift_inverse(rates, drive)
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
    return s_out / gain ** 2, s_ff


def product_normalized(xi, big_a: float):
    """Backaction-imprecision product in units of hbar^2/4:
    (A^2 + 2 A xi^2) / (1 + xi^2), elementwise for an array xi; its limit
    2 A at infinite xi."""
    with np.errstate(invalid="ignore"):  # inf/inf, replaced by the limit
        product = (big_a ** 2 + 2.0 * big_a * xi ** 2) / (1.0 + xi ** 2)
    return np.where(np.isinf(xi), 2.0 * big_a, product)[()]


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

    Preconditions (asserted): resonant drive (delta = 0), symmetric ports
    (gamma1 = gamma2); the forms are the low-frequency limit, drive.omega
    is ignored.  Raises ZeroCoupling if both constants vanish.
    """
    if drive.delta != 0.0:
        raise InvalidParameter("closed forms hold at resonant drive (delta = 0)")
    if rates.gamma1 != rates.gamma2:
        raise InvalidParameter("closed forms hold for a symmetric cavity (gamma1 = gamma2)")
    if not math.isfinite(g_omega0 + g_gamma0):
        require_finite(g_omega0=g_omega0, g_gamma0=g_gamma0)
    if g_omega0 == 0.0 and g_gamma0 == 0.0:
        raise ZeroCoupling("both coupling constants are zero")
    if drive.a0 <= 0.0:
        raise InvalidParameter("imprecision diverges without a pump (a0 = 0)")
    gamma = rates.gamma1
    half_width = gamma + rates.gamma3 / 2.0
    big_a = 1.0 + rates.gamma3 / (2.0 * gamma)
    g_sq = g_gamma0 ** 2 + g_omega0 ** 2

    theta_opt = math.atan2(g_omega0, g_gamma0)
    s_xx = half_width ** 2 / (4.0 * drive.a0 ** 2 * gamma * g_sq)
    s_ff = (
        HBAR ** 2 * drive.a0 ** 2 * gamma / half_width ** 2
        * (big_a ** 2 * g_gamma0 ** 2 + 2.0 * big_a * g_omega0 ** 2)
    )
    xi = math.inf if g_gamma0 == 0.0 else g_omega0 / g_gamma0
    return NoiseReport(
        theta_opt=theta_opt,
        s_xx_imp=s_xx,
        s_ff=s_ff,
        product=s_xx * s_ff,
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
    with gamma_mate = c t^2 / (2 l)."""
    if not math.isfinite(t + t_m + omega_m):
        require_finite(t=t, t_m=t_m, omega_m=omega_m)
    m_scale = mechanical_scale(wavelength, l, x_zpf, gamma_m, a0)
    if not (t > 0.0 and t_m > 0.0):
        _require_positive(t=t, t_m=t_m)
    if not (t <= 1.0 and t_m <= 1.0):
        _require_amplitudes(t=t, t_m=t_m)

    def formula() -> float:
        gamma_mate = C_LIGHT * t ** 2 / (2.0 * l)
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
