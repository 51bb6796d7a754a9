"""Tests of the grid root search shared by the resonance solvers."""

import math

import numpy as np
import pytest

from optomech import mate, mos, numerics
from optomech.numerics import grid_roots


def test_roots_of_every_sign_change_in_ascending_order():
    roots = grid_roots(np.sin, 0.5, 10.0, 100, ftol=1e-14)
    assert roots == pytest.approx([math.pi, 2 * math.pi, 3 * math.pi], abs=1e-13)


def test_exact_zero_at_a_node_is_returned_unrefined():
    # nodes 0, 0.25, ..., 2: f vanishes exactly at the node 1.0
    calls = []

    def f(x):
        calls.append(np.size(x))
        return x - 1.0

    assert grid_roots(f, 0.0, 2.0, 8) == [1.0]
    assert calls == [9]  # the grid only, in one call, no bisection


def test_near_refines_only_the_nearest_bracket(monkeypatch):
    refined = []
    real_bisect = numerics.bisect

    def spy(f, a, b, **kwargs):
        refined.append((a, b))
        return real_bisect(f, a, b, **kwargs)

    monkeypatch.setattr(numerics, "bisect", spy)
    roots = grid_roots(np.sin, 0.5, 10.0, 100, near=6.0, ftol=1e-14)
    assert roots == pytest.approx([2 * math.pi], abs=1e-13)
    assert len(refined) == 1 and refined[0][0] < 2 * math.pi < refined[0][1]


def test_no_sign_change_gives_empty_list():
    assert grid_roots(lambda x: x * x + 1.0, -1.0, 1.0, 50) == []
    assert grid_roots(lambda x: x * x + 1.0, -1.0, 1.0, 50, near=0.0) == []


def test_tolerances_reach_bisect():
    # a coarse xtol stops the bisection far from the root; ftol=0 keeps it
    # from stopping on the residual
    coarse = grid_roots(lambda x: x - 0.3, 0.0, 1.0, 1, ftol=0.0, xtol=0.1)
    fine = grid_roots(lambda x: x - 0.3, 0.0, 1.0, 1, ftol=0.0, xtol=1e-15)
    assert abs(coarse[0] - 0.3) > 1e-3
    assert abs(fine[0] - 0.3) < 1e-14
    loose = grid_roots(lambda x: x - 0.3, 0.0, 1.0, 1, ftol=0.2)
    assert loose == [0.5]  # the first midpoint already meets |f| <= 0.2


def _design_draws(n):
    # the ranges of the design queries: t_m^2 < t < t_m, l log-uniform
    rng = np.random.default_rng(2024)
    for _ in range(n):
        t_m = rng.uniform(0.03, 0.15)
        yield dict(t=rng.uniform(1.05 * t_m ** 2, 0.2 * t_m), t_m=t_m,
                   l=10.0 ** rng.uniform(-5.0, -3.0), wavelength=rng.uniform(0.8e-6, 1.6e-6))


def _resonance_grids(monkeypatch):
    """(lo, hi, steps, f, grid) of each grid sampled by the MATE +-1 FSR
    scan, by its branch solve and by the MOS +-2 FSR / 400-step scan."""
    calls = []

    def recording(f, lo, hi, steps, **kwargs):
        def spy(x):
            if isinstance(x, np.ndarray):
                calls.append((lo, hi, steps, f, x))
            return f(x)
        return grid_roots(spy, lo, hi, steps, **kwargs)

    monkeypatch.setattr(mate, "grid_roots", recording)
    monkeypatch.setattr(mos, "grid_roots", recording)
    grids = {"mate": [], "branch": [], "mos": []}
    for p in _design_draws(40):
        cfg = mate.MateConfig(x=p["l"] * p["t_m"] ** 2 / 4000.0, **p)
        fsr = math.pi / cfg.l
        roots = mate.mate_resonances(cfg, (cfg.k - fsr, cfg.k + fsr))
        grids["mate"].append(calls.pop())
        mate.branch_wavevector(cfg, mate.classify_branch(cfg, roots[0]), roots[0])
        grids["branch"].append(calls.pop())
        base = mos.MosConfig(x=0.0, **p)
        for frac in (0.0, 0.25, -0.5, 1.0):
            mos.solve_resonance(base.at_phi(frac * base.phi0))
            grids["mos"].append(calls.pop())
    assert not calls
    return grids


def test_array_grid_equals_the_scalar_grid_bit_for_bit(monkeypatch):
    for lo, hi, steps, _, grid in sum(_resonance_grids(monkeypatch).values(), []):
        scalar = np.array([lo + i * (hi - lo) / steps for i in range(steps + 1)])
        assert grid.tobytes() == scalar.tobytes()


def test_residuals_on_an_array_equal_their_scalar_calls_bit_for_bit(monkeypatch):
    # what keeps every resonance root identical to a point-by-point scan
    grids = _resonance_grids(monkeypatch)
    for _, _, _, f, grid in grids["mate"] + grids["mos"]:
        scalar = np.array([f(k) for k in grid.tolist()])
        assert f(grid).tobytes() == scalar.tobytes()
    # numpy's arccos and math.acos can differ in the last bit, so the branch
    # function is held to what fixes its brackets: the sign at every node
    for _, _, _, h, grid in grids["branch"]:
        scalar = np.array([h(k) for k in grid.tolist()])
        assert np.array_equal(np.sign(h(grid)), np.sign(scalar))
