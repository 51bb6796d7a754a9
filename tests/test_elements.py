"""Scattering-core tests: element matrices, tandem composition against the
elimination oracle, closed-form response, derivative checks, and the
cavity geometry MOS and MATE share."""

import math
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optomech import (
    DegenerateDenominator,
    ElementSpec,
    InvalidElement,
    InvalidParameter,
    MateConfig,
    MosConfig,
    compose_synthetic,
    compose_synthetic_by_elimination,
    element_scattering,
    synthetic_response,
)
from optomech.elements import (
    _membrane_matrix,
    _mirror_matrix,
    _response_closed_form,
    _tandem_by_elimination,
    _tandem_closed_form,
    reduce_phase,
    reflectivity,
    unitarity_defect,
)
from optomech.validation import PROFILES, _check_elimination, _check_response_derivatives

import scalar_reference

K_REF = 2 * math.pi / 0.85e-6
DEFAULT = PROFILES["default"]


def tandem_at_psi(mirror, membrane, psi, k=K_REF):
    """Gap x >= 0 realizing the requested tandem phase at wavevector k."""
    x = ((psi - membrane.phi_r) % (2 * math.pi)) / (2 * k)
    return compose_synthetic(mirror, membrane, x, k)


class TestElementMatrices:
    def test_mirror_matrix(self):
        s = element_scattering(ElementSpec.mirror(0.6))
        expect = np.array([[0.6j, -0.8], [-0.8, 0.6j]])
        np.testing.assert_allclose(s.as_array(), expect, atol=1e-15)
        assert unitarity_defect(s.as_array()) < 1e-15

    def test_transparent_membrane_is_identity(self):
        s = element_scattering(ElementSpec.membrane(1.0, phi_r=math.pi / 2))
        np.testing.assert_allclose(s.as_array(), np.eye(2), atol=1e-15)

    def test_membrane_phases(self):
        mem = ElementSpec.membrane(0.3, phi_r=1.1)
        s = element_scattering(mem)
        assert s.m11 == pytest.approx(0.3 * np.exp(1j * (1.1 - math.pi / 2)))
        assert s.m12 == pytest.approx(math.sqrt(1 - 0.09) * np.exp(1.1j))

    def test_overunity_transmission_rejected(self):
        with pytest.raises(InvalidParameter):
            element_scattering(ElementSpec(kind="mirror", t=1.2))

    def test_perfect_reflectors_accepted(self):
        ElementSpec.mirror(0.0).validate()
        ElementSpec.membrane(0.0).validate()

    @given(
        t=st.floats(0.0, 1.0),
        t_m=st.floats(0.0, 1.0),
        phi_r=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_elements_unitary(self, t, t_m, phi_r):
        for spec in (ElementSpec.mirror(t), ElementSpec.membrane(t_m, phi_r=phi_r)):
            assert unitarity_defect(element_scattering(spec).as_array()) < 1e-12


class TestConstructionChecks:
    # a wrong kind raises InvalidElement, a value that breaks its rule InvalidParameter
    @pytest.mark.parametrize("fields, error, message", [
        ({"kind": "beamsplitter", "t": 0.6}, InvalidElement, "unknown element kind"),
        ({"kind": "mirror", "t": 1.2}, InvalidParameter, r"t must lie in \[0, 1\], got 1.2"),
        ({"kind": "membrane", "t": 0.6, "phi_r": math.nan}, InvalidParameter,
         "phi_r must be finite"),
        ({"kind": "mirror", "t": 0.5, "phi_r": 1.0}, InvalidElement,
         "a mirror's reflection phase is fixed, got phi_r 1.0"),
    ], ids=["kind", "t>1", "nan-phase", "mirror-phase"])
    def test_building_an_invalid_element_raises(self, fields, error, message):
        with pytest.raises(error, match=message) as err:
            ElementSpec(**fields)
        assert type(err.value) is error

    def test_a_caller_sets_only_kind_t_and_phi_r(self):
        init = [f for f in fields(ElementSpec) if f.init]
        assert [f.name for f in init] == ["kind", "t", "phi_r"]
        assert all(f.kw_only for f in init)

    @pytest.mark.parametrize("name, value", [("r", 0.8), ("phi_t", 0.3 - math.pi / 2)])
    def test_derived_fields_cannot_be_set(self, name, value):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            ElementSpec(kind="membrane", t=0.6, phi_r=0.3, **{name: value})

    @pytest.mark.parametrize("phi_r", [1e3, 1e4, -1e4, 1e6])
    def test_membrane_with_a_large_phase_is_lossless(self, phi_r):
        # both entries carry the one factor e^{i phi_r}, so no phase is
        # rounded apart from the other, however large phi_r is
        membrane = ElementSpec.membrane(0.1, phi_r=phi_r)
        assert unitarity_defect(element_scattering(membrane).as_array()) < 1e-15

    def test_built_elements_are_not_checked_again(self, monkeypatch):
        mirror, membrane = ElementSpec.mirror(0.3), ElementSpec.membrane(0.4, phi_r=0.7)
        calls = []
        monkeypatch.setattr(ElementSpec, "validate", lambda self: calls.append(self))
        synthetic_response(1.0, mirror, membrane)
        synthetic_response(np.linspace(-3.0, 3.0, 7), mirror, membrane)
        compose_synthetic(mirror, membrane, 1e-7, K_REF)
        compose_synthetic_by_elimination(mirror, membrane, 1e-7, K_REF)
        element_scattering(mirror)
        element_scattering(membrane)
        assert calls == []
        built = ElementSpec.mirror(0.3)  # the counter does see a build
        assert len(calls) == 1 and calls[0] is built


class TestCompose:
    def test_transparent_membrane_leaves_bare_mirror(self):
        mirror = ElementSpec.mirror(0.6)
        membrane = ElementSpec.membrane(1.0, phi_r=math.pi / 2)
        s = compose_synthetic(mirror, membrane, x=1e-7, k=K_REF)
        assert abs(s.m11) == pytest.approx(0.6, abs=1e-14)
        assert abs(s.m22) == pytest.approx(0.6, abs=1e-14)
        assert abs(s.m12) == pytest.approx(0.8, abs=1e-14)
        assert abs(s.m21) == pytest.approx(0.8, abs=1e-14)

    def test_antiresonant_tandem_transmission(self):
        # oracle: eliminate the internal amplitudes numerically
        mirror = ElementSpec.mirror(0.014)
        membrane = ElementSpec.membrane(0.1, phi_r=math.pi / 2)
        x = (math.pi - membrane.phi_r) / (2 * K_REF)
        oracle = compose_synthetic_by_elimination(mirror, membrane, x, K_REF)
        assert abs(oracle.m11) ** 2 == pytest.approx(0.075058741424098, abs=1e-12)
        closed = compose_synthetic(mirror, membrane, x, K_REF)
        assert abs(closed.m11) ** 2 == pytest.approx(abs(oracle.m11) ** 2, abs=1e-11)

    def test_structural_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            mirror = ElementSpec.mirror(rng.uniform(0.01, 0.99))
            membrane = ElementSpec.membrane(
                rng.uniform(0.01, 0.99), phi_r=rng.uniform(-math.pi, math.pi)
            )
            s = compose_synthetic(mirror, membrane,
                                  rng.uniform(0, 1e-6), rng.uniform(1e6, 1e7))
            assert s.m11 == s.m22  # same expression both directions
            assert abs(s.m12) == pytest.approx(abs(s.m21), abs=1e-13)

    def test_elimination_agrees_with_closed_form(self):
        result = _check_elimination(np.random.default_rng(11), DEFAULT, samples=300)
        assert result.passed, result.line()

    @given(
        t=st.floats(0.01, 0.999),
        t_m=st.floats(0.01, 0.999),
        phi_r=st.floats(-math.pi, math.pi),
        x=st.floats(0.0, 5e-6),
        k=st.floats(1e6, 1e7),
    )
    @settings(max_examples=300, deadline=None)
    def test_tandem_unitary(self, t, t_m, phi_r, x, k):
        # t bounded away from 0: near-opaque pairs at anti-resonance lose
        # ~eps/t^2 in the composed entries (the 1e-10 tolerance's stated
        # double-precision headroom)
        s = compose_synthetic(
            ElementSpec.mirror(t), ElementSpec.membrane(t_m, phi_r=phi_r), x, k
        )
        assert unitarity_defect(s.as_array()) < 1e-10

    def test_rejects_swapped_arguments(self):
        mirror = ElementSpec.mirror(0.5)
        membrane = ElementSpec.membrane(0.5)
        with pytest.raises(InvalidElement):
            compose_synthetic(membrane, mirror, 1e-7, K_REF)

    def test_rejects_bad_geometry(self):
        mirror = ElementSpec.mirror(0.5)
        membrane = ElementSpec.membrane(0.5)
        with pytest.raises(ValueError):
            compose_synthetic(mirror, membrane, -1e-9, K_REF)
        with pytest.raises(ValueError):
            compose_synthetic(mirror, membrane, 1e-7, 0.0)

    @pytest.mark.parametrize("compose", [compose_synthetic, compose_synthetic_by_elimination])
    @pytest.mark.parametrize("x, k", [(math.nan, K_REF), (math.inf, K_REF),
                                      (1e-7, math.nan), (1e-7, math.inf)])
    def test_rejects_non_finite_geometry(self, compose, x, k):
        with pytest.raises(InvalidParameter, match="must be finite"):
            compose(ElementSpec.mirror(0.5), ElementSpec.membrane(0.5), x, k)

    def test_bad_geometry_is_invalid_parameter(self):
        mirror = ElementSpec.mirror(0.5)
        membrane = ElementSpec.membrane(0.5)
        with pytest.raises(InvalidParameter):
            compose_synthetic(mirror, membrane, -1e-9, K_REF)
        with pytest.raises(InvalidParameter):
            compose_synthetic_by_elimination(mirror, membrane, 1e-7, -K_REF)


def _entries(s):
    return (s.m11, s.m12, s.m21, s.m22)


def _gap(got, want):
    """Largest |got - want| over matching complex entries (scalars, lists or
    arrays)."""
    return float(np.max(np.abs(np.asarray(got, dtype=complex)
                               - np.asarray(want, dtype=complex))))


#: largest |kernel entry - cmath entry| allowed.  On TestMatrixKernels'
#: draws the element kernels give the cmath entries exactly, the closed
#: form is within 3.5e-16 on m11 and m21 and 2.6e-15 on m12, where
#: r + r_m e^{-i psi} cancels, and the elimination is within 4.6e-15.
ENTRY_BOUND = 1e-14


class TestMatrixKernels:
    """The array kernels against the scalar cmath formulas, entry by entry
    within ENTRY_BOUND, over draws with perfect and transparent mirrors,
    transparent and opaque membranes, and membrane phases up to 1e6."""

    N = 10000

    @pytest.fixture(scope="class")
    def draws(self):
        rng = np.random.default_rng(15)
        n = self.N
        t = rng.uniform(0.0, 1.0, n)
        t[:100], t[100:200] = 0.0, 1.0
        t_m = rng.uniform(0.0, 1.0, n)
        t_m[200:300], t_m[300:400] = 1.0, 0.0
        phi_r = np.concatenate([rng.uniform(-math.pi, math.pi, n // 2),
                                rng.uniform(-1e6, 1e6, n - n // 2)])
        x = rng.uniform(0.0, 2e-6, n)
        x[400:500] = 0.0
        k = rng.uniform(1e6, 1e7, n)
        pairs = [(ElementSpec.mirror(a), ElementSpec.membrane(b, phi_r=p))
                 for a, b, p in zip(t.tolist(), t_m.tolist(), phi_r.tolist())]
        args = (t, reflectivity(t), t_m, reflectivity(t_m), phi_r, x, k)
        return pairs, args, list(zip(x.tolist(), k.tolist()))

    def test_derived_amplitudes_are_the_built_elements(self, draws):
        pairs, (t, r, t_m, r_m, *_), _ = draws
        assert r.tolist() == [m.r for m, _ in pairs]
        assert r_m.tolist() == [mb.r for _, mb in pairs]

    @pytest.mark.parametrize("kernel, reference", [
        (_tandem_closed_form, scalar_reference.compose_synthetic),
        (_tandem_by_elimination, scalar_reference.compose_synthetic_by_elimination),
    ], ids=["closed_form", "elimination"])
    def test_tandem_kernel_equals_the_cmath_formulas(self, draws, kernel, reference):
        pairs, args, gaps = draws
        got = kernel(*args)
        want = [reference(*pair, *gap) for pair, gap in zip(pairs, gaps)]
        for j, entry in enumerate(_entries(got)):
            assert entry.shape == (self.N,)
            assert _gap(entry, [_entries(w)[j] for w in want]) <= ENTRY_BOUND

    def test_element_kernels_equal_the_cmath_formulas(self, draws):
        pairs, (t, r, t_m, r_m, phi_r, *_), _ = draws
        for got, specs in ((_mirror_matrix(t, r), [m for m, _ in pairs]),
                           (_membrane_matrix(t_m, r_m, phi_r), [mb for _, mb in pairs])):
            want = [scalar_reference.element_scattering(spec) for spec in specs]
            for j, entry in enumerate(_entries(got)):
                assert _gap(entry, [_entries(w)[j] for w in want]) <= ENTRY_BOUND

    def test_scalar_calls_equal_the_cmath_formulas(self, draws):
        pairs, _, gaps = draws
        for (mirror, membrane), (x, k) in list(zip(pairs, gaps))[::5]:
            for public, reference, args in (
                    (compose_synthetic, scalar_reference.compose_synthetic,
                     (mirror, membrane, x, k)),
                    (compose_synthetic_by_elimination,
                     scalar_reference.compose_synthetic_by_elimination, (mirror, membrane, x, k)),
                    (element_scattering, scalar_reference.element_scattering, (mirror,)),
                    (element_scattering, scalar_reference.element_scattering, (membrane,))):
                got = _entries(public(*args))
                assert all(isinstance(z, np.complex128) for z in got)
                assert _gap(got, _entries(reference(*args))) <= ENTRY_BOUND


@pytest.mark.parametrize("compose", [compose_synthetic, compose_synthetic_by_elimination])
class TestArrayGaps:
    MIRROR = ElementSpec.mirror(0.3)
    MEMBRANE = ElementSpec.membrane(0.4, phi_r=-2.5)

    def test_array_of_gaps_equals_the_scalar_calls(self, compose):
        x = np.concatenate([np.random.default_rng(16).uniform(0.0, 5e-6, 500), [0.0, -0.0]])
        got = compose(self.MIRROR, self.MEMBRANE, x, K_REF)
        points = [compose(self.MIRROR, self.MEMBRANE, gap, K_REF) for gap in x.tolist()]
        for j, entry in enumerate(_entries(got)):
            assert entry.shape == x.shape
            assert _gap(entry, [_entries(p)[j] for p in points]) <= ENTRY_BOUND
        assert got.as_array().shape == (x.size, 2, 2)
        assert unitarity_defect(got.as_array()) == max(map(unitarity_defect, got.as_array()))

    @pytest.mark.parametrize("bad, message", [
        (-1e-9, "x must be non-negative"), (math.nan, "x must be finite"),
        (math.inf, "x must be finite")])
    def test_one_bad_gap_anywhere_is_an_invalid_parameter(self, compose, bad, message):
        x = np.array([1e-7, 2e-7, bad, 3e-7])
        with pytest.raises(InvalidParameter, match=message):
            compose(self.MIRROR, self.MEMBRANE, x, K_REF)

    def test_perfect_reflectors_at_anti_resonance_as_alone(self, compose):
        # t = t_m = 0 at psi = pi: cos(pi) rounds to -1 but sin(pi) to 1.2e-16,
        # so 1 + r r_m e^{i psi} is 1.2e-16 i, not zero, and the point gives
        # in an array the finite matrix it gives alone
        mirror, membrane = ElementSpec.mirror(0.0), ElementSpec.membrane(0.0, phi_r=math.pi)
        x = np.array([1e-7, 0.0, 2e-7])
        got = compose(mirror, membrane, x, K_REF)
        alone = compose(mirror, membrane, 0.0, K_REF)
        assert np.all(np.isfinite(_entries(alone)))
        assert _gap([entry[1] for entry in _entries(got)], _entries(alone)) <= ENTRY_BOUND


class TestSyntheticResponse:
    def setup_method(self):
        self.mirror = ElementSpec.mirror(0.014)
        self.membrane = ElementSpec.membrane(0.1, phi_r=math.pi / 2)

    def test_antiresonance_values(self):
        resp = synthetic_response(math.pi, self.mirror, self.membrane)
        assert resp.T == pytest.approx(0.075058741424196, abs=1e-12)
        assert abs(resp.dT_dpsi) < 1e-12
        assert resp.mu == pytest.approx(0.0, abs=1e-15)

    def test_array_phase_reduction_matches_scalar(self):
        # the array path re-implements math.remainder; it must agree bit for
        # bit, signed zeros and the ties at odd multiples of pi included
        rng = np.random.default_rng(5)
        psi = np.concatenate([
            rng.uniform(-50.0, 50.0, 5000), rng.uniform(-1e8, 1e8, 1000),
            np.arange(-40, 41) * math.pi, [0.0, -0.0, 1e300, -1e-320],
        ])
        got = reduce_phase(psi)
        want = np.array([reduce_phase(p) for p in psi.tolist()])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_array_response_matches_scalar(self):
        # floats take math's cos/sin, arrays numpy's: a few ulps at most
        psi = np.linspace(-7.0, 7.0, 301)
        resp = synthetic_response(psi, self.mirror, self.membrane)
        points = [synthetic_response(p, self.mirror, self.membrane) for p in psi.tolist()]
        for name in ("psi", "T", "mu", "dT_dpsi", "dmu_dpsi"):
            pointwise = np.array([getattr(one, name) for one in points])
            np.testing.assert_allclose(
                getattr(resp, name), pointwise, rtol=0.0,
                atol=4 * np.finfo(float).eps * np.max(np.abs(pointwise)),
            )

    def test_kernel_equals_the_float_response_bit_for_bit(self):
        # the closed forms over columns of phases and amplitudes at once, as
        # the validation checks call them, against synthetic_response on
        # each float, with phases outside (-pi, pi] and at exactly +-pi
        rng = np.random.default_rng(12)
        n = 3000
        t_m = rng.uniform(0.01, 0.99, n)
        t = rng.uniform(0.0, 1.0, n) * t_m
        psi = np.concatenate([
            rng.uniform(-20.0, 20.0, n - 8),
            [math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 2 * math.pi, 0.0, -0.0, 1e6],
        ])
        pairs = [(ElementSpec.mirror(a), ElementSpec.membrane(b))
                 for a, b in zip(t.tolist(), t_m.tolist())]
        amplitudes = [np.array(col) for col in zip(*((m.t, m.r, mb.t, mb.r)
                                                     for m, mb in pairs))]
        resp = _response_closed_form(psi, *amplitudes)
        points = [synthetic_response(p, m, mb) for p, (m, mb) in zip(psi.tolist(), pairs)]
        for name in ("psi", "T", "mu", "dT_dpsi", "dmu_dpsi"):
            pointwise = np.array([getattr(one, name) for one in points])
            assert getattr(resp, name).tobytes() == pointwise.tobytes(), name

    def test_array_degenerate_point_raises(self):
        # one degenerate phase in a column raises, as it does alone
        with pytest.raises(DegenerateDenominator):
            synthetic_response(np.array([0.5, math.pi, 1.0]), ElementSpec.mirror(0.0),
                               ElementSpec.membrane(0.0))

    def test_matches_composed_matrix(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            t_m = rng.uniform(0.2, 0.9)
            t = t_m * rng.uniform(0.05, 0.8)
            psi = rng.uniform(0.0, 2 * math.pi)
            mirror = ElementSpec.mirror(t)
            membrane = ElementSpec.membrane(t_m)
            s = tandem_at_psi(mirror, membrane, psi)
            resp = synthetic_response(psi, mirror, membrane)
            assert resp.T == pytest.approx(abs(s.m11) ** 2, abs=1e-10)
            assert math.tan(resp.mu) == pytest.approx(
                math.tan(np.angle(-s.m21)), abs=1e-8
            )

    def test_phase_is_cavity_side_port(self):
        # mu tracks the mirror-side (cavity-side) reflection m21; the
        # membrane-side reflection m12 carries an extra 2 phi_r offset and
        # does not reproduce tan(mu) unless 2 phi_r = 0 (mod pi)
        rng = np.random.default_rng(29)
        for _ in range(50):
            t_m = rng.uniform(0.2, 0.9)
            t = t_m * rng.uniform(0.1, 0.8)
            phi_r = rng.uniform(0.3, 1.2)  # away from multiples of pi/2
            mirror = ElementSpec.mirror(t)
            membrane = ElementSpec.membrane(t_m, phi_r=phi_r)
            psi = rng.uniform(0.3, 2 * math.pi - 0.3)
            x = ((psi - phi_r) % (2 * math.pi)) / (2 * K_REF)
            s = compose_synthetic(mirror, membrane, x, K_REF)
            resp = synthetic_response(2 * K_REF * x + phi_r, mirror, membrane)
            assert math.tan(resp.mu) == pytest.approx(
                math.tan(np.angle(-s.m21)), abs=1e-8
            )
            far_side = math.tan(np.angle(-s.m12))
            assert abs(math.tan(resp.mu) - far_side) > 1e-6

    def test_zero_dispersive_transmission(self):
        # at cos(psi*) = -r_m (1+r^2)/(r (1+r_m^2)) the mu-slope vanishes
        # and T = t^2 (1+r_m^2)/(1-r^2 r_m^2); psi* is the float nearest the
        # exact one (the rounded acos formula lies about 1e-13 rad off it)
        t, t_m = 0.014, 0.1
        r = math.sqrt(1 - t * t)
        r_m = math.sqrt(1 - t_m * t_m)
        with mpmath.workdps(50):
            exact_r, exact_r_m = (mpmath.sqrt(1 - mpmath.mpf(a) ** 2) for a in (t, t_m))
            psi_star = float(mpmath.acos(-exact_r_m * (1 + exact_r ** 2)
                                         / (exact_r * (1 + exact_r_m ** 2))))
        resp = synthetic_response(psi_star, self.mirror, self.membrane)
        assert abs(resp.dmu_dpsi) < 1e-9
        expected_t = t * t * (1 + r_m * r_m) / (1 - r * r * r_m * r_m)
        assert resp.T == pytest.approx(expected_t, rel=1e-12, abs=0.0)

    def test_reflectionless_membrane(self):
        membrane = ElementSpec.membrane(1.0, phi_r=math.pi / 2)
        for psi in (0.3, 1.0, 2.5, 4.0, 6.0):
            resp = synthetic_response(psi, self.mirror, membrane)
            assert resp.T == pytest.approx(0.014 ** 2, rel=1e-14, abs=0.0)
            assert resp.mu == pytest.approx(0.0, abs=1e-14)
            assert resp.dmu_dpsi == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_perfect_reflectors(self):
        mirror = ElementSpec.mirror(0.0)
        membrane = ElementSpec.membrane(0.0)
        with pytest.raises(DegenerateDenominator):
            synthetic_response(math.pi, mirror, membrane)

    def test_degenerate_inputs_are_decided_exactly(self):
        # near the merge point, and at the tiny t and t_m where the rounded
        # r = r_m = 1, nothing vanishes; t = t_m = 1 has no reflection at all
        near = synthetic_response(math.pi, ElementSpec.mirror(0.6),
                                  ElementSpec.membrane(math.nextafter(0.6, 1.0)))
        tiny = synthetic_response(math.pi, ElementSpec.mirror(3e-5),
                                  ElementSpec.membrane(1e-4))
        assert near.T == pytest.approx(1.0, rel=1e-15, abs=0.0) and near.mu == 0.0
        assert tiny.T == pytest.approx(0.30300479642496035, rel=1e-15, abs=0.0)
        for psi in (0.0, 1.0, math.pi):
            with pytest.raises(DegenerateDenominator, match="t = t_m = 1"):
                synthetic_response(psi, ElementSpec.mirror(1.0), ElementSpec.membrane(1.0))

    def test_a_denominator_that_only_underflows_is_a_float_range_error(self):
        # at psi = pi, D = (1 - r r_m)^2 ~ t_m^4, whose square underflows
        # for t_m below about 5e-41, where no denominator vanishes
        mirror, membrane = ElementSpec.mirror(3e-42), ElementSpec.membrane(1e-41)
        with pytest.raises(InvalidParameter, match="synthetic_response leaves the float"):
            synthetic_response(math.pi, mirror, membrane)
        assert synthetic_response(1.0, mirror, membrane).T == pytest.approx(
            9e-84 * 1e-82 / (2.0 * (1.0 + math.cos(1.0))), rel=1e-15, abs=0.0)

    def test_vanishing_reflection_at_merge_point(self):
        # equal reflectivities at anti-resonance: the tandem transmits
        # fully and the reflection phase is undefined
        mirror = ElementSpec.mirror(0.6)
        membrane = ElementSpec.membrane(0.6)
        with pytest.raises(DegenerateDenominator):
            synthetic_response(math.pi, mirror, membrane)
        off_peak = synthetic_response(math.pi - 0.1, mirror, membrane)
        assert 0.0 < off_peak.T < 1.0

    def test_derivatives_match_finite_differences(self):
        result = _check_response_derivatives(np.random.default_rng(5), DEFAULT, samples=80)
        assert result.passed, result.line()

    def test_periodicity_bitwise(self):
        # psi + 2*pi is exactly representable for these psi, so the reduced
        # phase (hence the whole response) must match bit for bit
        for psi in (0.25, 0.5, 1.0, 2.0):
            a = synthetic_response(psi, self.mirror, self.membrane)
            b = synthetic_response(psi + 2 * math.pi, self.mirror, self.membrane)
            assert a == b

    def test_mu_continuous_over_period(self):
        # winding case r_m > r: mu must be continuous inside (-pi, pi)
        mirror = ElementSpec.mirror(0.8)
        membrane = ElementSpec.membrane(0.2)
        grid = np.linspace(-math.pi + 1e-3, math.pi - 1e-3, 2001)
        mu = [synthetic_response(p, mirror, membrane).mu for p in grid]
        jumps = np.abs(np.diff(mu))
        assert float(jumps.max()) < 0.05

    def test_bounded_transmission(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            mirror = ElementSpec.mirror(rng.uniform(0, 1))
            membrane = ElementSpec.membrane(rng.uniform(0.01, 1))
            resp = synthetic_response(rng.uniform(-10, 10), mirror, membrane)
            assert 0.0 <= resp.T <= 1.0 + 1e-15


#: a geometry valid for both cavities (MATE needs 0 < x < l)
GEOMETRY = {"l": 1e-4, "wavelength": 0.85e-6, "t": 0.014, "t_m": 0.1, "x": 1e-6}

#: (field, bad value, message) for each shared check
BAD_GEOMETRY = [
    ("t", 1.5, "t must lie in [0, 1], got 1.5"),
    ("t", -0.1, "t must lie in [0, 1], got -0.1"),
    ("t_m", 0.0, "t_m must lie in (0, 1], got 0.0"),
    ("t_m", 1.5, "t_m must lie in (0, 1], got 1.5"),
    ("wavelength", 0.0, "wavelength must be positive, got 0.0"),
    ("wavelength", -1e-6, "wavelength must be positive, got -1e-06"),
    ("l", 0.0, "l must be positive, got 0.0"),
    ("l", -1.0, "l must be positive, got -1.0"),
    ("l", math.nan, "l must be finite, got nan"),
    ("wavelength", math.inf, "wavelength must be finite, got inf"),
    ("t", math.nan, "t must be finite, got nan"),
    ("t_m", -math.inf, "t_m must be finite, got -inf"),
    ("x", math.inf, "x must be finite, got inf"),
    ("phi_r", math.nan, "phi_r must be finite, got nan"),
]


@pytest.mark.parametrize("cls", [MosConfig, MateConfig])
class TestTandemCavity:
    @pytest.mark.parametrize("field, value, message", BAD_GEOMETRY,
                             ids=[f"{f}={v}" for f, v, _ in BAD_GEOMETRY])
    def test_shared_checks_and_messages(self, cls, field, value, message):
        with pytest.raises(InvalidParameter) as err:
            cls(**{**GEOMETRY, field: value})
        assert str(err.value) == message

    def test_keyword_only(self, cls):
        # MOS and MATE once ordered their fields differently; a positional
        # call must not bind x to the wavelength
        with pytest.raises(TypeError):
            cls(*GEOMETRY.values())

    def test_replace_rebuilds_elements(self, cls):
        cfg = cls(**GEOMETRY)
        assert cfg.mirror is cfg.mirror and cfg.membrane is cfg.membrane
        assert (cfg.mirror.t, cfg.membrane.t) == (0.014, 0.1)
        assert replace(cfg, t_m=0.2).membrane.t == 0.2
        assert replace(cfg, t=0.02).mirror.t == 0.02
        assert replace(cfg, phi_r=1.0).membrane.phi_r == 1.0
