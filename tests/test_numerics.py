"""Tests of the grid root search shared by the resonance solvers."""

import math

import pytest

from optomech import numerics
from optomech.numerics import grid_roots


def test_roots_of_every_sign_change_in_ascending_order():
    roots = grid_roots(math.sin, 0.5, 10.0, 100, ftol=1e-14)
    assert roots == pytest.approx([math.pi, 2 * math.pi, 3 * math.pi], abs=1e-13)


def test_exact_zero_at_a_node_is_returned_unrefined():
    # nodes 0, 0.25, ..., 2: f vanishes exactly at the node 1.0
    calls = []

    def f(x):
        calls.append(x)
        return x - 1.0

    assert grid_roots(f, 0.0, 2.0, 8) == [1.0]
    assert len(calls) == 9  # the grid only, no bisection


def test_near_refines_only_the_nearest_bracket(monkeypatch):
    refined = []
    real_bisect = numerics.bisect

    def spy(f, a, b, **kwargs):
        refined.append((a, b))
        return real_bisect(f, a, b, **kwargs)

    monkeypatch.setattr(numerics, "bisect", spy)
    roots = grid_roots(math.sin, 0.5, 10.0, 100, near=6.0, ftol=1e-14)
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
