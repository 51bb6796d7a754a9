"""Small numerical helpers: finite differences and bracketed root finding.

These are used both by the library (resonance solvers) and by the
validation suite, where they serve as independent oracles for the
closed-form derivatives.  The first three helpers serve the closed forms
that take either a float or a numpy array; in_float_range screens the
result of a scalar closed form.  grid_brackets and grid_roots sample their
f on a whole grid in one call, so that f takes a float or a numpy array
too; grid_roots refines each bracket by regula falsi.  bisect refines an
array of brackets at once, each element by the steps of the float bisection
in tests/scalar_reference.py, which it equals bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameter

#: gap step (m) of the Richardson derivative of a re-solved resonance
RESONANCE_GAP_STEP = 1e-12

#: iteration cap of bisect and of grid_roots' regula falsi
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


def out_of_float_range(name: str, exc: ArithmeticError) -> InvalidParameter:
    """The InvalidParameter for a formula that finite arguments drove out
    of the float range with exc, a ZeroDivisionError or an OverflowError."""
    return InvalidParameter(f"{name} leaves the float range ({type(exc).__name__})")


def in_float_range(name: str, formula: Callable[[], float]) -> float:
    """formula(), or InvalidParameter naming name where finite arguments
    drive it out of the float range: a power that overflows, a divisor that
    underflows to 0, or a result that is not finite.  Free unless it
    raises, so the design path pays nothing for it."""
    try:
        value = formula()
    except (ZeroDivisionError, OverflowError) as exc:
        raise out_of_float_range(name, exc) from exc
    if not math.isfinite(value):
        raise InvalidParameter(f"{name} leaves the float range ({value})")
    return value


def central_diff_5pt(f: Callable[[float], float], x: float, h: float) -> float:
    """Five-point central finite difference for f'(x), O(h^4) accurate."""
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def central_diff_richardson(f: Callable[[float], float], x: float, h: float) -> float:
    """Central difference with one Richardson extrapolation step (h, h/2)."""
    d1 = (f(x + h) - f(x - h)) / (2 * h)
    d2 = (f(x + h / 2) - f(x - h / 2)) / h
    return (4 * d2 - d1) / 3


def bisect(f: Callable, lo: np.ndarray, hi: np.ndarray, *, f_lo=None, f_hi=None,
           xtol: float = 0.0, ftol: float = 1e-12) -> np.ndarray:
    """Bisection of an array of brackets [lo, hi] at once, f mapping an
    array of their shape elementwise (grid_roots refines by _regula_falsi
    instead).  f_lo and f_hi, if given, are f(lo) and f(hi).

    Each element takes the steps of a float bisection: a zero endpoint is
    the root, the midpoint is the root once |f(mid)| <= ftol or b - a <=
    xtol, the side is [a, mid] where fa * f(mid) <= 0, and the midpoint of
    what is left after BISECT_MAX_ITER steps.  f sees every element at each
    step; a finished element's value is kept and its later midpoints are
    ignored.  Products over- and underflow silently, as they do in floats.
    Raises ValueError naming the first bracket without a sign change.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    fa = f(a) if f_lo is None else np.asarray(f_lo, dtype=float)
    fb = f(b) if f_hi is None else np.asarray(f_hi, dtype=float)
    root = np.where(fa == 0.0, a, b)
    done = (fa == 0.0) | (fb == 0.0)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        no_change = ~done & (fa * fb > 0.0)
        if no_change.any():
            i = int(no_change.argmax())
            raise ValueError(f"no sign change on [{a.item(i)}, {b.item(i)}]")
        for _ in range(BISECT_MAX_ITER):
            if done.all():
                return root
            m = 0.5 * (a + b)
            fm = f(m)
            stop = ~done & ((np.abs(fm) <= ftol) | (b - a <= xtol))
            root[stop] = m[stop]
            done |= stop
            left = fa * fm <= 0.0
            a, b, fa = np.where(left, a, m), np.where(left, m, b), np.where(left, fa, fm)
    return np.where(done, root, 0.5 * (a + b))


def _regula_falsi(f: Callable[[float], float], a: float, b: float, fa: float,
                  fb: float, xtol: float = 0.0, ftol: float = 1e-12) -> float:
    """A root of f on a bracket a < b, fa = f(a) and fb = f(b) of opposite
    signs, by Illinois regula falsi (Dowell & Jarratt, BIT 11, 168 (1971)):
    an end kept twice in a row has its f halved, so that both ends close in.
    An iterate outside (a, b) falls back to the midpoint.  bisect's stops:
    the iterate once |f| <= ftol or b - a <= xtol, else the midpoint after
    BISECT_MAX_ITER iterates.  Sides go by sign, not by an underflowing product."""
    a_neg = fa < 0.0
    kept = 0  # +1 after a step that kept b, -1 after one that kept a
    for _ in range(BISECT_MAX_ITER):
        m = a - fa * (b - a) / (fb - fa)
        if not a < m < b:  # rounding, or an inf or NaN weight
            m = 0.5 * (a + b)
        fm = f(m)
        if abs(fm) <= ftol or (b - a) <= xtol:
            return m
        if (fm < 0.0) == a_neg:
            a, fa = m, fm
            fb *= 0.5 if kept > 0 else 1.0
            kept = 1
        else:
            b, fb = m, fm
            fa *= 0.5 if kept < 0 else 1.0
            kept = -1
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


def grid_brackets(f: Callable, lo: float, hi: float,
                  steps: int) -> list[tuple[float, float, float, float]]:
    """Sign-change brackets (see sign_change_brackets) of f evaluated once on
    the whole grid lo + i (hi - lo) / steps, i = 0..steps; f takes a float
    or a numpy array, elementwise."""
    grid = lo + np.arange(steps + 1) * (hi - lo) / steps
    return sign_change_brackets(grid, f(grid))


def grid_roots(f: Callable, lo: float, hi: float, steps: int,
               near: float | None = None, **bisect_tol: float) -> list[float]:
    """Roots of f on [lo, hi], in ascending order.

    Each sign change of f on the grid of grid_brackets is refined by
    _regula_falsi(**bisect_tol), bisect's xtol and ftol, through scalar
    calls.  A node where f is exactly zero is returned as is.  With near,
    only the bracket whose midpoint lies closest to near is refined.  No
    sign change gives [].
    """
    brackets = grid_brackets(f, lo, hi, steps)
    if near is not None and brackets:
        brackets = [min(brackets, key=lambda br: abs(0.5 * (br[0] + br[1]) - near))]
    return [a if a == b else _regula_falsi(f, a, b, fa, fb, **bisect_tol)
            for a, b, fa, fb in brackets]
