"""Precision near tandem transparency, against mpmath at 60 digits.

The paper works at t_m^2 < t << t_m << 1 and tandem phases psi within a
few Phi0 = t_m^2 / 4 of transparency (psi = pi), where 1 - r r_m, r - r_m
and 1 + cos psi are of order t_m^2 or t_m^4.  Each value below is compared
with its definition, evaluated at 60 digits from the exact amplitudes
r = sqrt(1 - t^2) and r_m = sqrt(1 - t_m^2): T and mu from the tandem
reflection -m21 = (r + r_m e^{i psi}) / (1 + r r_m e^{i psi}) and the
transmission, their psi-derivatives from the derivatives of those complex
numbers, psi* from acos of the locus condition, and the MATE decay rate from
B = |1 + r_m e^{i psi}|^2 and its x-derivative.

A float psi is read as the kernels read it: reduced to (-pi, pi], it stands
for +-pi + d, d = psi -+ math.pi its exact offset, where |psi| >= pi/2, and
for itself elsewhere; so psi = math.pi is the transparency point.

Each bound was set from what the closed forms measure on these draws, a
few units of the double epsilon, with a margin of about two.
"""

import math

import mpmath
import numpy as np
import pytest

from optomech import ElementSpec, MateConfig, mate_exact_decay, mos, synthetic_response
from optomech.constants import C_LIGHT
from optomech.elements import reflectivity

DIGITS = 60
#: (t_m, t) pairs: t_m log-uniform in [1e-6, 0.5], t log-uniform in
#: [1.05 t_m^2, 0.999 t_m]
PAIRS = 150
#: MATE cavity length and the wavevector branch of its phase 2 k x + pi
MATE_L, MATE_BRANCH = 1e-4, 3

#: bounds, each set from what the forms measure on these draws (the measured
#: worst in the comment): relative, but mu's absolute, and psi*'s beyond half
#: an ulp of the float psi*, relative to its offset from pi
T_REL = 1.5e-15          # 8.5e-16
DT_REL = 2.5e-15         # 1.4e-15
MU_ABS = 5e-16           # 2.8e-16
DMU_REL = 1e-15          # 4.4e-16
LOCUS_H_REL = 1e-15      # 5.0e-16
T_STAR_REL = 7.5e-16     # 3.7e-16
PSI_STAR_REL = 2.2e-16   # 0: every psi* lies within half an ulp
GAMMA_MATE_REL = 1e-15   # 6.2e-16
DGAMMA_REL = 2.5e-15     # 1.3e-15
MATE_A_REL = 1e-15       # 4.7e-16

def _draws() -> list[tuple[float, float, list[float]]]:
    """(t, t_m, phases) of each pair: four offsets on the Phi0 scale on both
    sides of +-math.pi, +-math.pi itself, and two generic phases."""
    rng = np.random.default_rng(36)
    draws = []
    for _ in range(PAIRS):
        t_m = 10.0 ** rng.uniform(-6.0, math.log10(0.5))
        t = 10.0 ** rng.uniform(math.log10(1.05 * t_m ** 2), math.log10(0.999 * t_m))
        phi0 = t_m ** 2 / 4.0
        side = math.pi if rng.random() < 0.5 else -math.pi
        near = [side + sign * phi0 * 10.0 ** rng.uniform(-2.0, 1.3) for sign in (1, -1, 1, -1)]
        draws.append((t, t_m, near + [side, *rng.uniform(-math.pi, math.pi, 2)]))
    return draws


DRAWS = _draws()


def exact_phasor(psi: float) -> mpmath.mpc:
    """e^{i psi} of the phase a float psi stands for (see the module
    docstring): -e^{i d} near +-pi, so that math.pi gives -1 exactly."""
    red = math.remainder(psi, 2.0 * math.pi)  # exact
    if abs(red) < math.pi / 2.0:
        return mpmath.expj(red)
    return -mpmath.expj(mpmath.mpf(red) - math.copysign(1.0, red) * mpmath.mpf(math.pi))


def exact_amplitudes(t: float, t_m: float):
    return (mpmath.mpf(t), mpmath.sqrt(1 - mpmath.mpf(t) ** 2),
            mpmath.mpf(t_m), mpmath.sqrt(1 - mpmath.mpf(t_m) ** 2))


def relative(got: float, want) -> float:
    return float(abs(got - want) / abs(want)) if want else abs(got)


def test_response_near_transparency():
    worst = {"T": 0.0, "dT": 0.0, "mu": 0.0, "dmu": 0.0}
    with mpmath.workdps(DIGITS):
        for t, t_m, phases in DRAWS:
            mirror, membrane = ElementSpec.mirror(t), ElementSpec.membrane(t_m)
            t_, r, t_m_, r_m = exact_amplitudes(t, t_m)
            for psi in phases:
                got = synthetic_response(psi, mirror, membrane)
                e = exact_phasor(psi)
                refl, den = r + r_m * e, 1 + r * r_m * e  # -m21 = refl / den
                d_refl, d_den = 1j * r_m * e, 1j * r * r_m * e
                T = (t_ * t_m_) ** 2 / abs(den) ** 2
                dT = -T * 2 * mpmath.re(mpmath.conj(den) * d_den) / abs(den) ** 2
                # dmu/dpsi = Im(d_refl / refl) - Im(d_den / den) passes through 0
                # at psi*, so its error is taken relative to the two terms
                terms = abs(mpmath.im(d_refl / refl)) + abs(mpmath.im(d_den / den))
                dmu = mpmath.im(d_refl / refl - d_den / den)
                worst["T"] = max(worst["T"], relative(got.T, T))
                worst["dT"] = max(worst["dT"], relative(got.dT_dpsi, dT))
                worst["mu"] = max(worst["mu"], float(abs(got.mu - mpmath.arg(refl / den))))
                worst["dmu"] = max(worst["dmu"], float(abs(got.dmu_dpsi - dmu) / terms))
    assert worst["T"] <= T_REL, worst
    assert worst["dT"] <= DT_REL, worst
    assert worst["mu"] <= MU_ABS, worst
    assert worst["dmu"] <= DMU_REL, worst


def test_zero_dispersive_locus_near_transparency():
    worst = {"h": 0.0, "T*": 0.0, "psi*": 0.0}
    with mpmath.workdps(DIGITS):
        for t, t_m, _ in DRAWS:
            t_, r, _, r_m = exact_amplitudes(t, t_m)
            cos_star = -r_m * (1 + r ** 2) / (r * (1 + r_m ** 2))
            offset = mpmath.pi - mpmath.acos(cos_star)  # pi - psi*
            h_star, t_star = mos._locus(t, t_m, reflectivity(t), reflectivity(t_m))
            locus = mos.zero_dispersive_locus(t, t_m)
            worst["h"] = max(worst["h"], relative(h_star, 1 + cos_star))
            worst["T*"] = max(worst["T*"], relative(
                t_star, t_ ** 2 * (1 + r_m ** 2) / (1 - r ** 2 * r_m ** 2)))
            assert locus.T_star == t_star
            # the float psi* stands for math.pi -+ its exact offset from it
            for psi_star, side in zip(locus.psi_star, (-1, 1)):
                error = abs(side * (mpmath.mpf(psi_star) - mpmath.mpf(math.pi)) - offset)
                excess = max(0.0, float(error) - math.ulp(psi_star) / 2.0)
                worst["psi*"] = max(worst["psi*"], excess / float(offset))
    assert worst["h"] <= LOCUS_H_REL, worst
    assert worst["T*"] <= T_STAR_REL, worst
    assert worst["psi*"] <= PSI_STAR_REL, worst


def test_mate_decay_near_transparency():
    # near the edge, x = l t_m^2 / 4000, where l B and x t_m^2 are alike
    worst = {"gamma": 0.0, "dgamma": 0.0, "A": 0.0}
    c = mpmath.mpf(C_LIGHT)
    with mpmath.workdps(DIGITS):
        for t, t_m, phases in DRAWS:
            x = MATE_L * t_m ** 2 / 4000.0
            cfg = MateConfig(l=MATE_L, wavelength=0.85e-6, t=t, t_m=t_m, x=x)
            t_, _, t_m_, r_m = exact_amplitudes(t, t_m)
            x_, l_ = mpmath.mpf(x), mpmath.mpf(MATE_L)
            for target in phases:
                k = (2.0 * math.pi * MATE_BRANCH + target - math.pi) / (2.0 * x)
                dec = mate_exact_decay(cfg, k)
                e = exact_phasor(2.0 * k * x + cfg.phi_r)  # the kernel's psi
                b_fac = abs(1 + r_m * e) ** 2
                db_dx = 2 * k * 2 * mpmath.re(mpmath.conj(1 + r_m * e) * 1j * r_m * e)
                stored = x_ * t_m_ ** 2 + (l_ - x_) * b_fac
                gamma = c * (t_ * t_m_) ** 2 / 2 / stored
                dgamma = -gamma * (t_m_ ** 2 - b_fac + (l_ - x_) * db_dx) / stored
                worst["gamma"] = max(worst["gamma"], relative(dec.gamma_mate, gamma))
                worst["dgamma"] = max(worst["dgamma"], relative(dec.dgamma_dx, dgamma))
                if abs(target - math.copysign(math.pi, target)) < t_m ** 2:
                    # A = (x / l)(t_m^2 / B - 1) carries B's relative error
                    # where B << t_m^2
                    worst["A"] = max(worst["A"], relative(
                        dec.A, x_ / l_ * (t_m_ ** 2 / b_fac - 1)))
    assert worst["gamma"] <= GAMMA_MATE_REL, worst
    assert worst["dgamma"] <= DGAMMA_REL, worst
    assert worst["A"] <= MATE_A_REL, worst


@pytest.mark.parametrize("t_m", [1e-3, 1e-4, 1e-6])
def test_transparency_and_zero_phase_are_exact_at_small_t_m(t_m):
    # at psi = math.pi, T = t^2 t_m^2 / (1 - r r_m)^2; there and at psi = 0,
    # where sin psi is exactly 0, so are mu and dT/dpsi
    t = 0.3 * t_m
    mirror, membrane = ElementSpec.mirror(t), ElementSpec.membrane(t_m)
    at_pi = synthetic_response(math.pi, mirror, membrane)
    with mpmath.workdps(DIGITS):
        t_, r, t_m_, r_m = exact_amplitudes(t, t_m)
        assert relative(at_pi.T, (t_ * t_m_) ** 2 / (1 - r * r_m) ** 2) <= T_REL
    for got in (at_pi, synthetic_response(0.0, mirror, membrane)):
        assert got.mu == 0.0 and got.dT_dpsi == 0.0
