"""Two references for optomech.noise.general_spectra, the library's one
form of the linear noise model.  They share no code with it, so that the
tests compare independent evaluations.

- The row decomposition (drift_inverse to reference_spectra) writes the
  intracavity, port-1 and force noise rows out over INPUT_BASIS in Python
  complex scalars.  It makes the operations, in their order, that
  general_spectra fuses into one pass over the ports, so the two agree bit
  for bit, errors included.
- linear_model states the module's equations as numpy matrices, and
  solve_outputs solves them with np.linalg.solve.  It agrees with
  general_spectra to rounding, and is the form the physics tests read.
"""

import math
import sys

import numpy as np

from optomech import InvalidParameter, ZeroCoupling
from optomech.constants import HBAR

#: the input-quadrature noise basis: the order of every noise row
INPUT_BASIS = ("X_in1", "Y_in1", "X_in2", "Y_in2", "X_in3", "Y_in3")


def drift_inverse(rates, drive):
    """(diag, xy, yx) of the inverse 2x2 drift matrix [[diag, xy], [yx, diag]],
    or InvalidParameter where |det| is not a normal float: det vanishes only
    at a zero total rate, so there it has rounded or overflowed."""
    kappa = complex(rates.total / 2.0, -drive.omega)
    det = kappa * kappa + drive.delta ** 2
    if not sys.float_info.min <= abs(det) <= sys.float_info.max:
        raise InvalidParameter(f"general_spectra leaves the float range (|det| = {abs(det)})")
    return kappa / det, -drive.delta / det, drive.delta / det


def cavity_noise_rows(inverse, rates):
    """Intracavity (X, Y) noise rows: port j drives both quadratures with
    amplitude sqrt(gamma_j)/2."""
    diag, xy, yx = inverse
    x_row, y_row = [], []
    for amp in (math.sqrt(rates.gamma1) / 2.0, math.sqrt(rates.gamma2) / 2.0,
                math.sqrt(rates.gamma3) / 2.0):
        x_row += (diag * amp, xy * amp)
        y_row += (yx * amp, diag * amp)
    return x_row, y_row


def out1_noise_rows(inverse, rates):
    """Port-1 output (X, Y) noise rows: X_out1 = 2 sqrt(gamma1) X - X_in1,
    likewise for Y."""
    out1_scale = 2.0 * math.sqrt(rates.gamma1)
    x_row, y_row = cavity_noise_rows(inverse, rates)
    x_out = [out1_scale * c for c in x_row]
    y_out = [out1_scale * c for c in y_row]
    x_out[0] -= 1.0
    y_out[1] -= 1.0
    return x_out, y_out


def out1_gain(inverse, rates, drive, g_omega0, g_gamma0, theta):
    """Signal transfer of the homodyne quadrature cos(theta) X_out1 +
    sin(theta) Y_out1, per unit mechanical amplitude."""
    diag, xy, yx = inverse
    signal_x, signal_y = drive.a0 * g_gamma0, drive.a0 * g_omega0
    out1_scale = 2.0 * math.sqrt(rates.gamma1)
    signal = (out1_scale * (diag * signal_x + xy * signal_y),
              out1_scale * (yx * signal_x + diag * signal_y))
    return math.cos(theta) * signal[0] + math.sin(theta) * signal[1]


def force_row(inverse, rates, drive, g_omega0, g_gamma0):
    """Backaction-force noise row:
    F = 2 hbar a0 g_omega0 X - (hbar a0 g_gamma0 / sqrt(gamma2)) Y_in2."""
    if rates.gamma2 <= 0.0 and g_gamma0 != 0.0:
        raise InvalidParameter("dissipative coupling requires gamma2 > 0")
    scale = 2.0 * HBAR * drive.a0 * g_omega0
    coeffs = [scale * c for c in cavity_noise_rows(inverse, rates)[0]]
    if g_gamma0 != 0.0:
        coeffs[3] += -HBAR * drive.a0 * g_gamma0 / math.sqrt(rates.gamma2)
    return coeffs


def psd(coefficients):
    """Sum of |c|^2 over a noise row, in order (unit-white, mutually
    uncorrelated vacuum inputs)."""
    total = 0.0
    for c in coefficients:
        mag = abs(c)
        total += mag * mag
    return total


def reference_spectra(rates, drive, g_omega0, g_gamma0, theta):
    """(S_xx_imp, S_FF) through the row decomposition."""
    inverse = drift_inverse(rates, drive)
    gain = out1_gain(inverse, rates, drive, g_omega0, g_gamma0, theta)
    if abs(gain) == 0.0:
        raise ZeroCoupling("no signal transfer")
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    rows = out1_noise_rows(inverse, rates)
    s_xx = psd([cos_t * x + sin_t * y for x, y in zip(*rows)]) / abs(gain) ** 2
    s_ff = psd(force_row(inverse, rates, drive, g_omega0, g_gamma0))
    return s_xx, s_ff


def linear_model(rates, drive, g_omega0, g_gamma0):
    """The module's equations as matrices, (drift, inputs, signal,
    force, force_inputs):

        drift @ (X, Y) = inputs @ noise + signal x
        F = force @ (X, Y) + force_inputs @ noise

    with drift 2x2, inputs 2x6 and force_inputs 6 over INPUT_BASIS."""
    kappa = rates.total / 2.0 - 1j * drive.omega
    drift = np.array([[kappa, drive.delta], [-drive.delta, kappa]])
    inputs = np.zeros((2, 6))
    for j, rate in enumerate((rates.gamma1, rates.gamma2, rates.gamma3)):
        inputs[0, 2 * j] = inputs[1, 2 * j + 1] = math.sqrt(rate) / 2.0
    signal = drive.a0 * np.array([g_gamma0, g_omega0])
    force = np.array([2.0 * HBAR * drive.a0 * g_omega0, 0.0])
    force_inputs = np.zeros(6)
    if g_gamma0 != 0.0:
        force_inputs[3] = -HBAR * drive.a0 * g_gamma0 / math.sqrt(rates.gamma2)
    return drift, inputs, signal, force, force_inputs


def solve_outputs(rates, drive, g_omega0, g_gamma0):
    """linear_model solved by np.linalg.solve and propagated to port 1,
    (out_noise, out_signal, force_noise): the 2x6 port-1 (X, Y) noise rows,
    the port-1 (X, Y) signal per unit mechanical amplitude and the force
    noise row."""
    drift, inputs, signal, force, force_inputs = linear_model(
        rates, drive, g_omega0, g_gamma0)
    cavity_noise = np.linalg.solve(drift, inputs)
    out1_scale = 2.0 * math.sqrt(rates.gamma1)
    return (out1_scale * cavity_noise - np.eye(2, 6),
            out1_scale * np.linalg.solve(drift, signal),
            force @ cavity_noise + force_inputs)


def homodyne(rows, theta):
    """cos(theta) rows[0] + sin(theta) rows[1]: the homodyne quadrature."""
    return math.cos(theta) * rows[0] + math.sin(theta) * rows[1]
