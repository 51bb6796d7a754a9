"""Tests of the grid root search shared by the resonance solvers."""

import math

import numpy as np
import pytest

from optomech import mate, mos, numerics
from optomech.numerics import BISECT_MAX_ITER, bisect, grid_roots


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
    real_refiner = numerics._regula_falsi

    def spy(f, a, b, fa, fb, **kwargs):
        refined.append((a, b))
        return real_refiner(f, a, b, fa, fb, **kwargs)

    monkeypatch.setattr(numerics, "_regula_falsi", spy)
    roots = grid_roots(np.sin, 0.5, 10.0, 100, near=6.0, ftol=1e-14)
    assert roots == pytest.approx([2 * math.pi], abs=1e-13)
    assert len(refined) == 1 and refined[0][0] < 2 * math.pi < refined[0][1]


def test_no_sign_change_gives_empty_list():
    assert grid_roots(lambda x: x * x + 1.0, -1.0, 1.0, 50) == []
    assert grid_roots(lambda x: x * x + 1.0, -1.0, 1.0, 50, near=0.0) == []


def test_tolerances_reach_bisect():
    # a coarse xtol stops the refinement far from the root; ftol=0 keeps it
    # from stopping on the residual.  f is convex, so that regula falsi
    # closes in over several iterates (it solves a linear f in one)
    def f(x):
        return x ** 10 - 0.5

    root = 0.5 ** 0.1
    coarse = grid_roots(f, 0.0, 1.0, 1, ftol=0.0, xtol=0.1)
    fine = grid_roots(f, 0.0, 1.0, 1, ftol=0.0, xtol=1e-15)
    assert abs(coarse[0] - root) > 1e-3
    assert abs(fine[0] - root) < 1e-14
    iterates = []

    def spy(x):
        if not isinstance(x, np.ndarray):
            iterates.append(x)
        return f(x)

    loose = grid_roots(spy, 0.0, 1.0, 1, ftol=0.5)
    assert loose == iterates and len(iterates) == 1  # |f| <= 0.5 at the first


def _recording(f):
    """f, and the list of the points it is called at."""
    calls = []

    def spy(x):
        calls.append(x)
        return f(x)

    return spy, calls


def _step(x):
    return -1.0 if x < 1.0 / 3.0 else 1.0


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x ** 10 - 0.5, 0.0, 1.0),               # convex: one end would stick
    (lambda x: math.atan(1e6 * (x - 0.3)), -2.0, 5.0),  # near a step
    (lambda x: math.exp(x) - 2.0, -700.0, 700.0),       # 1e304 against -2
    (lambda x: 1e300 * (x - 0.1), -1e10, 1e10),         # secant products overflow
    (lambda x: 1e-300 * (x - 0.1), -1.0, 1.0),          # and underflow
    (_step, 0.0, 1.0),
])
def test_regula_falsi_never_leaves_its_bracket(f, a, b):
    spy, calls = _recording(f)
    for tol in (dict(), dict(ftol=0.0, xtol=0.0), dict(ftol=0.0, xtol=1e-9)):
        calls.clear()
        root = numerics._regula_falsi(spy, a, b, f(a), f(b), **tol)
        assert calls and all(a <= x <= b for x in calls)
        assert a <= root <= b


def test_regula_falsi_stops_on_ftol_at_the_first_iterate_that_meets_it():
    spy, calls = _recording(lambda x: x ** 3 - 2.0)
    root = numerics._regula_falsi(spy, 1.0, 2.0, -1.0, 6.0, ftol=1e-9)
    assert root == calls[-1] and abs(root ** 3 - 2.0) <= 1e-9
    assert all(abs(x ** 3 - 2.0) > 1e-9 for x in calls[:-1])


def test_regula_falsi_stops_on_xtol_within_xtol_of_the_root():
    # ftol=0 never stops it: 2 ** (1/3) is no float
    spy, calls = _recording(lambda x: x ** 3 - 2.0)
    root = numerics._regula_falsi(spy, 1.0, 2.0, -1.0, 6.0, ftol=0.0, xtol=1e-2)
    assert root == calls[-1] and abs(root - 2.0 ** (1.0 / 3.0)) <= 1e-2
    assert len(calls) < BISECT_MAX_ITER
    # a tighter xtol takes more iterates, and lands closer
    spy, fine_calls = _recording(lambda x: x ** 3 - 2.0)
    fine = numerics._regula_falsi(spy, 1.0, 2.0, -1.0, 6.0, ftol=0.0, xtol=1e-15)
    assert len(fine_calls) > len(calls) and abs(fine - 2.0 ** (1.0 / 3.0)) <= 1e-15


def test_regula_falsi_on_a_sign_step_returns_the_midpoint_after_the_cap():
    spy, calls = _recording(_step)
    root = numerics._regula_falsi(spy, 0.0, 1.0, -1.0, 1.0, ftol=0.0, xtol=0.0)
    assert len(calls) == BISECT_MAX_ITER
    a = max([0.0] + [x for x in calls if x < 1.0 / 3.0])
    b = min([1.0] + [x for x in calls if x >= 1.0 / 3.0])
    assert root == 0.5 * (a + b)
    assert math.nextafter(a, 1.0) == b  # the bracket closed to one ulp


@pytest.mark.parametrize("c", [0.5, 1e-3])
def test_regula_falsi_closes_in_where_plain_regula_falsi_stalls(c):
    # on the convex x**10 - c plain regula falsi keeps the end at 1 and
    # creeps in from 0, ever slower as c falls; the halved weight of the
    # kept end moves it too
    def f(x):
        return x ** 10 - c

    spy, calls = _recording(f)
    root = numerics._regula_falsi(spy, 0.0, 1.0, -c, 1.0 - c, ftol=1e-15)
    assert abs(f(root)) <= 1e-15 and len(calls) <= 25
    a, fa, plain = 0.0, -c, 0
    while abs(fa) > 1e-15 and plain < 10000:  # plain regula falsi from the left
        a = a - fa * (1.0 - a) / ((1.0 - c) - fa)
        fa, plain = f(a), plain + 1
    assert plain > 2 * len(calls)
    if c < 0.01:
        assert plain > 100 * len(calls)


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


def test_design_resonances_take_few_residual_evaluations_per_root(monkeypatch):
    # the design queries' MATE scan over +-1 FSR: every root meets the
    # residual gate, and regula falsi reaches it in a few scalar calls
    scalar_calls = []
    real_residual = mate.resonance_residual

    def counting(cfg, k):
        if not isinstance(k, np.ndarray):
            scalar_calls.append(k)
        return real_residual(cfg, k)

    monkeypatch.setattr(mate, "resonance_residual", counting)
    n_roots = 0
    for p in _design_draws(128):
        cfg = mate.MateConfig(x=p["l"] * p["t_m"] ** 2 / 4000.0, **p)
        fsr = math.pi / cfg.l
        roots = mate.mate_resonances(cfg, (cfg.k - fsr, cfg.k + fsr))
        assert all(abs(real_residual(cfg, k)) < 1e-12 for k in roots)
        n_roots += len(roots)
    assert n_roots >= 128
    assert len(scalar_calls) / n_roots <= 4.0


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


def _bisect_each(slope, root, lo, hi, **kwargs):
    # the float path on each bracket of f(x) = slope (x - root)
    return np.array([bisect(lambda x, c=c, r=r: c * (x - r), a, b, **kwargs)
                     for c, r, a, b in zip(slope.tolist(), root.tolist(),
                                           lo.tolist(), hi.tolist())])


def _seeded_brackets(n, seed=13):
    rng = np.random.default_rng(seed)
    root = rng.uniform(-1.0, 1.0, n)
    lo = root - rng.uniform(1e-6, 2.0, n)
    hi = root + rng.uniform(1e-6, 2.0, n)
    # slopes down to 1e-200, where fa * f(mid) underflows to a signed zero
    slope = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-200.0, 8.0, n)
    return slope, root, lo, hi


@pytest.mark.parametrize("tol", [
    dict(ftol=0.0, xtol=1e-13),    # the locus oracle's: stops on the width
    dict(ftol=1e-6),               # stops on |f|, after a count set by the slope
    dict(ftol=1e-3, xtol=1e-9),    # either stop, whichever comes first
    dict(),                        # the defaults
])
def test_array_bisect_equals_the_float_path_on_each_bracket(tol):
    slope, root, lo, hi = _seeded_brackets(500)
    got = bisect(lambda x: slope * (x - root), lo, hi, **tol)
    assert got.tobytes() == _bisect_each(slope, root, lo, hi, **tol).tobytes()
    # with the endpoint values given, as the grid brackets pass them
    given = bisect(lambda x: slope * (x - root), lo, hi, f_lo=slope * (lo - root),
                   f_hi=slope * (hi - root), **tol)
    assert given.tobytes() == got.tobytes()


def test_array_bisect_stops_on_a_width_equal_to_xtol_as_the_float_path_does():
    # dyadic brackets halve exactly, so the width meets xtol with equality
    slope, root = np.array([1.0, -3.0, 0.5]), np.array([1.0 / 3.0, 2.2, 0.1])
    lo, hi = np.array([0.0, 1.0, -4.0]), np.array([1.0, 3.0, 4.0])
    got = bisect(lambda x: slope * (x - root), lo, hi, ftol=0.0, xtol=2.0 ** -20)
    assert got.tobytes() == _bisect_each(slope, root, lo, hi, ftol=0.0,
                                         xtol=2.0 ** -20).tobytes()


def test_array_bisect_takes_the_iteration_cap_as_the_float_path_does():
    # sqrt 2 is no float, so |f| never reaches 0 and the width never 0
    # either: both paths stop at BISECT_MAX_ITER midpoints
    lo, hi = np.array([1.0, 0.0, 1.4]), np.array([2.0, 3.0, 1.5])
    calls = []

    def f(x):
        calls.append(x)
        return x * x - 2.0

    got = bisect(f, lo, hi, ftol=0.0, xtol=0.0)
    assert len(calls) == 2 + BISECT_MAX_ITER
    want = [bisect(lambda x: x * x - 2.0, a, b, ftol=0.0, xtol=0.0)
            for a, b in zip(lo.tolist(), hi.tolist())]
    assert got.tolist() == want


def test_array_bisect_returns_zero_endpoints_as_the_float_path_does():
    lo, hi = np.array([0.0, -1.0, 0.25, 0.1, 0.3]), np.array([1.0, 0.3, 0.25, 0.9, 0.7])
    f_lo = lo - 0.3
    f_hi = hi - 0.3
    f_lo[2] = f_hi[2] = 0.0  # a degenerate bracket: a node that is a root
    got = bisect(lambda x: x - 0.3, lo, hi, f_lo=f_lo, f_hi=f_hi, ftol=0.0, xtol=1e-12)
    want = [bisect(lambda x: x - 0.3, a, b, f_lo=fa, f_hi=fb, ftol=0.0, xtol=1e-12)
            for a, b, fa, fb in zip(lo.tolist(), hi.tolist(), f_lo.tolist(), f_hi.tolist())]
    assert got.tolist() == want
    assert got[1] == 0.3 and got[2] == 0.25 and got[4] == 0.3


def test_array_bisect_of_no_brackets_is_empty():
    got = bisect(lambda x: x, np.empty(0), np.empty(0))
    assert got.shape == (0,)


def test_array_bracket_without_a_sign_change_raises_as_the_float_path_does():
    lo, hi = np.array([-1.0, 0.5, 2.0]), np.array([1.0, 0.75, 3.0])
    with pytest.raises(ValueError) as scalar:
        bisect(lambda x: x, 0.5, 0.75)
    with pytest.raises(ValueError) as array:
        bisect(lambda x: x, lo, hi)
    assert str(array.value) == str(scalar.value) == "no sign change on [0.5, 0.75]"
