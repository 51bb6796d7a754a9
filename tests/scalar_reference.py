"""Scalar references of the library's array kernels, sharing no code with
them, so that the tests compare two independent evaluations.

The scalar cmath formulas of the element and tandem matrices, one Python
complex expression per entry, as the matrix kernels of optomech.elements
must reproduce them to rounding; and the float bisection of one bracket,
whose steps optomech.numerics.bisect takes on each element of an array of
brackets, so that each of its roots equals this one bit for bit."""

import cmath

import numpy as np

from optomech.elements import ScatteringMatrix
from optomech.numerics import BISECT_MAX_ITER


def element_scattering(spec):
    if spec.kind == "mirror":
        return ScatteringMatrix(1j * spec.t, -spec.r, -spec.r, 1j * spec.t)
    tm = -1j * spec.t * cmath.exp(1j * spec.phi_r)
    rm = spec.r * cmath.exp(1j * spec.phi_r)
    return ScatteringMatrix(tm, rm, rm, tm)


def compose_synthetic(mirror, membrane, x, k):
    t, r = mirror.t, mirror.r
    t_m, r_m = membrane.t, membrane.r
    psi = 2.0 * k * x + membrane.phi_r
    e_psi = cmath.exp(1j * psi)
    denom = 1.0 + r * r_m * e_psi
    trans = 1j * t * (-1j * t_m * cmath.exp(1j * membrane.phi_r)) / denom
    m12 = cmath.exp(2j * membrane.phi_r) * (r + r_m / e_psi) / denom
    m21 = -(r + r_m * e_psi) / denom
    return ScatteringMatrix(trans, m12, m21, trans)


def compose_synthetic_by_elimination(mirror, membrane, x, k):
    t, r = mirror.t, mirror.r
    tm_ph = -1j * membrane.t * cmath.exp(1j * membrane.phi_r)
    rm_ph = membrane.r * cmath.exp(1j * membrane.phi_r)
    prop = cmath.exp(1j * k * x)
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


def bisect(f, lo, hi, *, f_lo=None, f_hi=None, xtol=0.0, ftol=1e-12):
    """Bisection on a bracketing interval [lo, hi] of floats.

    Iterates until |f| <= ftol or the interval shrinks below xtol, at most
    BISECT_MAX_ITER times.
    Raises ValueError if [lo, hi] does not bracket a sign change.
    """
    a, b = float(lo), float(hi)
    fa = f(a) if f_lo is None else f_lo
    fb = f(b) if f_hi is None else f_hi
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(BISECT_MAX_ITER):
        m = 0.5 * (a + b)
        fm = f(m)
        if abs(fm) <= ftol or (b - a) <= xtol:
            return m
        if fa * fm <= 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)
