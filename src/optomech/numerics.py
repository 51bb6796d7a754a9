"""Small numerical helpers: finite differences and bracketed root finding.

These are used both by the library (resonance solvers) and by the
validation suite, where they serve as independent oracles for the
closed-form derivatives.  The first three helpers serve the closed forms
that take either a float or a numpy array.  grid_roots samples its f on a
whole grid in one call, so that f takes a float or a numpy array too.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameter

#: gap step (m) of the Richardson derivative of a re-solved resonance
RESONANCE_GAP_STEP = 1e-12

#: iteration cap of bisect
BISECT_MAX_ITER = 200


def any_true(condition) -> bool:
    """Whether a condition holds: a bool as is, an array anywhere (np.any
    would cost microseconds on every scalar check)."""
    if isinstance(condition, np.ndarray):
        return bool(condition.any())
    return bool(condition)


def cos_sin(angle):
    """(cos angle, sin angle): floats for a float, which math computes
    faster than numpy, or arrays for an array."""
    if isinstance(angle, np.ndarray):
        return np.cos(angle), np.sin(angle)
    return math.cos(angle), math.sin(angle)


def require_finite(**values) -> None:
    """Raise InvalidParameter naming the first value (scalar or array) that
    is, or holds, an inf or a NaN."""
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            finite = bool(np.isfinite(value).all())
        else:
            finite = math.isfinite(value)
        if not finite:
            raise InvalidParameter(f"{name} must be finite, got {value}")


def central_diff_5pt(f: Callable[[float], float], x: float, h: float) -> float:
    """Five-point central finite difference for f'(x), O(h^4) accurate."""
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def central_diff_richardson(f: Callable[[float], float], x: float, h: float) -> float:
    """Central difference with one Richardson extrapolation step (h, h/2)."""
    d1 = (f(x + h) - f(x - h)) / (2 * h)
    d2 = (f(x + h / 2) - f(x - h / 2)) / h
    return (4 * d2 - d1) / 3


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    f_lo: float | None = None,
    f_hi: float | None = None,
    xtol: float = 0.0,
    ftol: float = 1e-12,
) -> float:
    """Bisection on a bracketing interval [lo, hi].

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


def sign_change_brackets(
    grid: Sequence[float], values: Sequence[float]
) -> list[tuple[float, float, float, float]]:
    """Sign-change brackets of values sampled on a monotone grid.

    Each bracket is (lo, hi, f(lo), f(hi)), in grid order: node i closes
    one where values[i-1] * values[i] < 0 (a product that underflows to
    -0.0 closes none).  Exact zeros at a grid node are returned as a
    degenerate bracket (node, node, 0, 0).  One numpy pass selects the
    zeros and the nodes whose sign bit differs from the node before; only
    those become Python floats, where the product test runs as written
    (numpy's product would warn on overflow).
    """
    g = np.asarray(grid, dtype=float)
    v = np.asarray(values, dtype=float)
    sign = np.signbit(v)
    hit = v == 0.0
    hit[1:] |= sign[1:] != sign[:-1]
    brackets: list[tuple[float, float, float, float]] = []
    for i in hit.nonzero()[0].tolist():
        fx = v.item(i)
        if fx == 0.0:
            brackets.append((g.item(i), g.item(i), 0.0, 0.0))
        elif v.item(i - 1) * fx < 0.0:
            brackets.append((g.item(i - 1), g.item(i), v.item(i - 1), fx))
    return brackets


def bracket_roots(
    f: Callable[[float], float], grid: Sequence[float]
) -> list[tuple[float, float, float, float]]:
    """Scan f on a monotone grid and return its sign-change brackets (see
    sign_change_brackets)."""
    return sign_change_brackets(grid, [f(x) for x in grid])


def grid_roots(f: Callable, lo: float, hi: float, steps: int,
               near: float | None = None, **bisect_tol: float) -> list[float]:
    """Roots of f on [lo, hi], in ascending order.

    f takes a float or a numpy array, elementwise.  It is evaluated once on
    the whole grid lo + i (hi - lo) / steps, i = 0..steps, then each sign
    change is bracketed and refined with bisect(**bisect_tol) through scalar
    calls.  A node where f is exactly zero is returned as is.  With near,
    only the bracket whose midpoint lies closest to near is refined.  No
    sign change gives [].
    """
    grid = lo + np.arange(steps + 1) * (hi - lo) / steps
    brackets = sign_change_brackets(grid, f(grid))
    if near is not None and brackets:
        brackets = [min(brackets, key=lambda br: abs(0.5 * (br[0] + br[1]) - near))]
    return [a if a == b else bisect(f, a, b, f_lo=fa, f_hi=fb, **bisect_tol)
            for a, b, fa, fb in brackets]
