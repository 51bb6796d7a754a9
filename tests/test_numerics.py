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


def _loop_brackets(grid, values):
    # the scalar loop that sign_change_brackets replaced, kept as its reference
    brackets = []
    for i, fx in enumerate(values):
        if fx == 0.0:
            brackets.append((grid[i], grid[i], 0.0, 0.0))
        elif i and values[i - 1] * fx < 0.0:
            brackets.append((grid[i - 1], grid[i], values[i - 1], fx))
    return brackets


def _hex(brackets):
    return [tuple(float.hex(float(v)) for v in bracket) for bracket in brackets]


@pytest.mark.parametrize("values", [
    [0.0, 1.0, -1.0, 2.0, 0.0],                 # zeros at the first and last node
    [1.0, 0.0, 0.0, -1.0, 0.0, 0.0, 2.0],       # consecutive zeros
    [-0.0, 3.0, -0.0],                          # signed zeros are zeros
    [1e-200, -1e-200, 1e-200, 2.0, -3.0],       # products that underflow to -0.0
    [1.0, math.nan, -1.0, 2.0, math.nan, math.nan, -2.0],  # NaN closes no bracket
    [math.inf, -1.0, -math.inf, 5e-324, -5e-324],
    [1e300, -1e300, math.inf, 0.0, -math.inf],  # overflowing and inf * 0 products
    [2.0],
    [0.0],
])
@pytest.mark.filterwarnings("error")  # and, like the loop, warn of nothing
def test_sign_change_brackets_equal_the_scalar_loop_on_edge_cases(values):
    grid = [0.5 * i - 1.0 for i in range(len(values))]
    expected = _hex(_loop_brackets(grid, values))
    assert _hex(numerics.sign_change_brackets(grid, values)) == expected
    assert _hex(numerics.sign_change_brackets(np.array(grid), np.array(values))) == expected


def test_sign_change_brackets_equal_the_scalar_loop_on_random_arrays():
    rng = np.random.default_rng(11)
    for n in (2, 3, 20, 201, 4001):
        for _ in range(20):
            values = rng.standard_normal(n) * 10.0 ** rng.integers(-200, 200, n)
            values[rng.random(n) < 0.05] = 0.0
            grid = np.sort(rng.uniform(-1.0, 1.0, n))
            expected = _loop_brackets(grid.tolist(), values.tolist())
            assert _hex(numerics.sign_change_brackets(grid, values)) == _hex(expected)


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
