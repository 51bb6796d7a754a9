"""Small numerical helpers: the parameter screens, finite differences and
bracketed root finding.

The screens state the input rules once, each a closed interval of finite
floats: require_finite, require_positive (> 0), require_non_negative,
require_amplitude ([0, 1]), require_transmitting ((0, 1]) and
require_at_least_one (>= 1).  Each names
the first of its keyword values (floats, ints as the floats they round to,
or arrays) that breaks its rule, as "{name} must ..., got {value}", or
"must be finite" for an inf, a NaN or an int beyond the float range.  A
value that does not compare with a float, as None or a string, is a
TypeError: "{name} must be a real number, got {value!r}".

The other helpers serve the library (resonance solvers) and the validation
suite, where they are independent oracles for the closed-form derivatives.
any_true, cos_sin and power serve the closed forms that take a float or a
numpy array; in_float_range and finite_results screen what a closed form returns.
grid_brackets and grid_roots sample their f on a whole grid in one call, so
that f takes a float or a numpy array too; grid_roots refines each bracket
by regula falsi.  bisect refines an array of brackets at once, each element
by the steps of the float bisection in tests/scalar_reference.py, which it
equals bit for bit.
"""

from __future__ import annotations

import math
import sys
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


def power(base, exponent: int):
    """base ** exponent by the C library's pow: Python's ** for a float, and
    np.float_power, which calls the same pow elementwise, for an array (the
    vector loops behind numpy's ** may differ from it in the last bit)."""
    if isinstance(base, np.ndarray):
        return np.float_power(base, exponent)
    return base ** exponent


def _finite(value) -> bool:
    """Whether a float, or every element of an array, is finite; an int
    beyond the float range is not."""
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _int_as_float(value: int) -> float:
    """The float a Python int (or bool) rounds to, as numpy would compare it,
    or an infinity of its sign beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _screen(lo: float, hi: float, rule: str) -> Callable[..., None]:
    """The screen of the rule lo <= value <= hi: it raises InvalidParameter
    naming the first keyword value that breaks the rule anywhere, with the
    finite rule's message if that value is not finite.  A float, or a Python
    int or bool as the float it rounds to, compares in Python."""
    lo64, hi64 = np.float64(lo), np.float64(hi)  # any other dtype compares in float64

    def inside(value) -> bool:
        """Whether a Python int or bool, as the float it rounds to, or every
        element of an array keeps the rule."""
        if isinstance(value, int):
            return lo <= _int_as_float(value) <= hi
        return bool(np.all((lo64 <= value) & (value <= hi64)))

    def screen(**values) -> None:
        for name, value in values.items():
            try:
                kept = lo <= value <= hi if isinstance(value, float) else inside(value)
            except TypeError:  # None, a string: nothing to compare
                raise TypeError(f"{name} must be a real number, got {value!r}") from None
            if not kept:
                message = rule if _finite(value) else "must be finite"
                raise InvalidParameter(f"{name} {message}, got {value}")
    return screen


# each rule is a closed interval of finite floats: v >= _TINY is v > 0,
# and v <= _MAX is v < inf; a NaN breaks every rule
_TINY, _MAX = math.ulp(0.0), sys.float_info.max
require_finite = _screen(-_MAX, _MAX, "must be finite")
require_positive = _screen(_TINY, _MAX, "must be positive")  # lengths, rates
require_non_negative = _screen(0.0, _MAX, "must be non-negative")
require_amplitude = _screen(0.0, 1.0, "must lie in [0, 1]")
require_transmitting = _screen(_TINY, 1.0, "must lie in (0, 1]")  # a divisor
require_at_least_one = _screen(1.0, _MAX, "must be at least 1")  # A = 1 + gamma3 / (2 gamma)


def finite_results(name: str, *results) -> None:
    """Raise InvalidParameter naming name where a result (a float, or an
    array of them) is not finite: finite arguments drove the formula out
    of the float range."""
    for value in results:
        if not _finite(value):
            raise InvalidParameter(f"{name} leaves the float range ({value})")


def out_of_float_range(name: str, cause: str) -> InvalidParameter:
    """The InvalidParameter for a formula that finite arguments drove out
    of the float range, with cause the name of the ZeroDivisionError or
    OverflowError it raised, or the value that left the range."""
    return InvalidParameter(f"{name} leaves the float range ({cause})")


def in_float_range(name: str, formula: Callable[[], float | tuple]) -> float | tuple:
    """formula(), a float or a tuple of them, or InvalidParameter naming name
    where finite arguments drive one out of the float range: a power that
    overflows, a divisor that underflows to 0, or a result that is not
    finite.  One guard per record, nearly free unless it raises."""
    try:
        value = formula()
    except (ZeroDivisionError, OverflowError) as exc:
        raise out_of_float_range(name, type(exc).__name__) from exc
    if isinstance(value, tuple):
        total = sum(value)  # not finite where a value is not, or where it overflows
        if not (isinstance(total, float) and math.isfinite(total)):
            finite_results(name, *value)
    elif not (isinstance(value, float) and math.isfinite(value)):
        finite_results(name, value)
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
