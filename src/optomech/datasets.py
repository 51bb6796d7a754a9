"""Parameter scans, figure datasets, and the cross-system comparison table.

Output contract: comma-separated values with a header line naming the
columns, every number rendered with 17 significant digits, plus, beside a
regular file, a sidecar "<path>.meta" of sorted "key = value" lines carrying
the parameter values and normalizers.  Identical inputs produce
byte-identical files.

A FigureDataset's columns stay float64 arrays from the kernels to the
file: FigureDataset.write writes its body in blocks of rows through
_format_floats, which makes the "%.17g" text format_value gives a float for
a whole float64 block at once, without a Python call per cell.

compare_systems builds no config.  It screens its parameters, computes k
and the mechanical scale M once, and fills each system's row from the
private closed-form kernels of mos, msi, mate and noise, under only the
rules of that system's config and public functions that its screened
parameters can still break; tests/compare_reference.py keeps the
config-built rows, which it equals.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import stat
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import __version__
from . import mate as mate_mod
from . import mos as mos_mod
from . import msi as msi_mod
from . import noise as noise_mod
from .elements import ElementSpec, synthetic_response, wavevector
from .errors import ConfigError, InvalidParameter, OptomechError
from .constants import C_LIGHT
from .numerics import (in_float_range, require_amplitude, require_finite, require_non_negative,
                       require_positive, require_transmitting)

#: reference parameter set used for the bundled figures
FIGURE_PARAMS = {
    "t": 0.014,
    "t_m": 0.1,
    "l": 1e-4,
    "wavelength": 0.85e-6,
    "phi_r": math.pi / 2,
}


#: what fails a sweep point or one system's comparison row: the package's
#: errors, and the overflow (or underflow to a zero divisor) of a closed form
#: at extreme parameters
_ROW_ERRORS = (OptomechError, ArithmeticError)


def format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


# ---------------------------------------------------------------------------
# The %.17g text of a float64 array, array at a time (the CSV body).
#
# |x| = M 2^(e-53) with M < 2^53 an integer (np.frexp).  Its 17 significant
# digits are D = round(M c), c = 10^(16-E0) 2^(e-53) where 10^E0 <= 2^(e-1)
# < 10^(E0+1), at decimal exponent E0; from the M where M c reaches
# 1e17 - 1/2 on, they are round(M c / 10), at exponent E0 + 1.  Each
# multiplier is a double-double hi + lo built exactly from Fractions, and
# Dekker's two-product gives M c to about 1e-14 of a unit, so D is exact
# unless M c lies within _TIE_MARGIN of a tie: such a cell, and a
# non-finite one, is format_value's own text.  One np.take gathers a cell's
# multiplier and layout by its key, the binade and which of the two
# multipliers applies; the 16 digits after the first come from a table of
# the 10^4 four-digit groups.  A cell is four uint64 words (first character
# in the lowest byte), where a 0 byte is a character the %g rules drop:
#   word 0     sign, the "0." and zeros of -4 <= E < 0, the first digit;
#   words 1-2  the other 16 digits, trailing zeros dropped, with the point
#              inserted after the integer digits;
#   word 3     the byte pushed out of word 2, then "e+dd" or "e-ddd".

_TIE_MARGIN = 1e-6
_E_MIN = -1073  # np.frexp's exponent of the smallest subnormal
_BINADES = 1024 - _E_MIN + 1
_ZERO_KEY = 2 * _BINADES  # the key of 0 (and of a non-finite cell)
_U64 = np.uint64
_ONES = 2 ** 64 - 1
_ASCII_ZEROS = _U64(0x3030303030303030)
_DOT = ord(".")


def _low_bytes(count: int) -> int:
    """The mask of the count (at most 8) lowest bytes of a uint64."""
    return 2 ** (8 * count) - 1


def _float_bits(value: float) -> int:
    return int(np.float64(value).view(_U64))


def _layout(exponent: int) -> tuple[int, ...]:
    """Where a cell of decimal exponent E puts its characters, as uint64
    values: the count of integer digits after the first; the masks of the
    bytes of words 1 and 2 after the point, and the point at its place in
    word 1 or 2 (none at place 16); the word-0 "0.000" prefix and the
    word-3 exponent text."""
    fixed = -4 <= exponent < 17
    if fixed and exponent >= 0:
        place = integer = exponent
    else:
        place, integer = (16 if fixed else 0), 0
    prefix = "0." + "0" * (-exponent - 1) if fixed and exponent < 0 else ""
    suffix = "" if fixed else f"e{exponent:+03d}"
    return (integer, _ONES ^ _low_bytes(min(place, 8)), _ONES ^ _low_bytes(max(place - 8, 0)),
            _DOT << 8 * place if place < 8 else 0,
            _DOT << 8 * (place - 8) if 8 <= place < 16 else 0,
            int.from_bytes(b"\0" + prefix.encode(), "little"),
            int.from_bytes(b"\0" + suffix.encode(), "little"))


class _Binades:
    """The multipliers and layouts of the binades met so far, each built on
    first use.  For binade i (binary exponent i + _E_MIN), threshold[i] is
    the M from which M c reaches 1e17 - 1/2 (0 while not built); key 2 i
    holds c, key 2 i + 1 c / 10, as the float64 bits of hi, its Dekker
    halves and lo in table[:4, key], with the _layout of their decimal
    exponent in table[4:, key].  A key not built has hi = 0; the zero key's
    hi is 1, its lo 0, so a 0 gives the digits 0."""

    def __init__(self) -> None:
        self.threshold = np.zeros(_BINADES)
        self.table = np.zeros((11, _ZERO_KEY + 1), dtype=_U64)
        self.table[:, _ZERO_KEY] = (_float_bits(1.0), _float_bits(1.0), 0, 0, *_layout(0))

    def build(self, binades: np.ndarray) -> None:
        met = np.zeros(_BINADES, dtype=bool)
        met[binades] = True
        for i in np.flatnonzero(met & (self.threshold == 0.0)).tolist():
            e = i + _E_MIN
            half_binade = Fraction(2) ** (e - 1)
            e0 = math.floor((e - 1) * math.log10(2.0))
            while Fraction(10) ** (e0 + 1) <= half_binade:
                e0 += 1
            while Fraction(10) ** e0 > half_binade:
                e0 -= 1
            c = Fraction(10) ** (16 - e0) * Fraction(2) ** (e - 53)
            for tenth in (0, 1):
                c_key = c / 10 ** tenth
                hi = float(c_key)
                split = 134217729.0 * hi  # 2^27 + 1
                hi_hi = split - (split - hi)
                self.table[:, 2 * i + tenth] = (
                    *map(_float_bits, (hi, hi_hi, hi - hi_hi, float(c_key - Fraction(hi)))),
                    *_layout(e0 + tenth))
            self.threshold[i] = min(math.ceil((10 ** 17 - Fraction(1, 2)) / c), 2 ** 53)


_binades: _Binades | None = None

#: the 4 decimal digits (as values 0-9) of each n < 10^4, one per byte, the
#: first in the lowest byte; and the same 4 bytes shifted into the high half
_GROUPS = sum((np.arange(10_000, dtype=_U64) // _U64(10 ** (3 - i)) % _U64(10)) << _U64(8 * i)
              for i in range(4))
_GROUPS_HIGH = _GROUPS << _U64(32)
#: the first digit d in byte 6 of word 0, for d = 0..9
_FIRST_DIGITS = np.array([ord(str(d)) << 48 for d in range(10)], dtype=_U64)
#: the masks of the first kept of 16 digits in words 1 and 2, for kept = 0..16
_KEPT_MASKS = np.array([[_low_bytes(min(kept, 8)) for kept in range(17)],
                        [_low_bytes(max(kept - 8, 0)) for kept in range(17)]], dtype=_U64)


def _format_floats(values: np.ndarray) -> np.ndarray:
    """The %.17g text of each float64 of values, as the rows of an (n, 32)
    uint8 array whose 0 bytes are dropped; byte 31 is always 0."""
    global _binades
    if _binades is None:
        _binades = _Binades()
    x = np.asarray(values, dtype=float).ravel()
    finite = np.isfinite(x)
    mantissa, exp2 = np.frexp(np.where(finite, np.abs(x), 0.0))
    m = mantissa * 2.0 ** 53
    binade = exp2 - np.int64(_E_MIN)
    nonzero = m != 0.0
    while True:
        key = np.where(nonzero, 2 * binade + (m >= _binades.threshold.take(binade)), _ZERO_KEY)
        rows = np.take(_binades.table, key, axis=1)
        if rows[0].all():
            break
        _binades.build(binade[nonzero])  # a binade met for the first time
    hi, hi_hi, hi_lo, lo = rows[:4].view(float)
    integer, after_mask1, after_mask2, dot1, dot2, prefix, suffix = rows[4:]
    # m c = p + rest: Dekker's two-product makes m hi = p + its error exact
    p = m * hi
    split = 134217729.0 * m  # 2^27 + 1
    m_hi = split - (split - m)
    m_lo = m - m_hi
    rest = (((m_hi * hi_hi - p) + m_hi * hi_lo + m_lo * hi_hi) + m_lo * hi_lo) + m * lo
    rounded = np.rint(rest)  # a tie is routed below, so how rint breaks it is moot
    digits = p.astype(np.int64) + rounded.astype(np.int64)
    first = digits // 10 ** 16
    others = digits - first * 10 ** 16
    high = others // 10 ** 8
    low = others - high * 10 ** 8
    group1, group3 = high // 10 ** 4, low // 10 ** 4
    words1 = _GROUPS.take(group1) | _GROUPS_HIGH.take(high - group1 * 10 ** 4)
    words2 = _GROUPS.take(group3) | _GROUPS_HIGH.take(low - group3 * 10 ** 4)
    # digits to keep: up to the last nonzero one, or the integer digits if
    # more.  The bytes of the 16 digits up to the last nonzero one are those
    # of the float exponent of words2 2^64 + words1; a digit byte is at most
    # 9, so rounding never carries that exponent into the next byte
    length = ((words2.astype(float) * 2.0 ** 64 + words1.astype(float)).view(np.int64)
              - (1015 << 52)) >> 55
    kept = np.maximum(length, integer.view(np.int64))
    mask1, mask2 = np.take(_KEPT_MASKS, kept, axis=1)
    word1 = (words1 | _ASCII_ZEROS) & mask1
    word2 = (words2 | _ASCII_ZEROS) & mask2
    # the point opens a byte at its place: word + after * 255 keeps the
    # bytes before it and moves those after it up one (the top one of word
    # 1 into word 2, that of word 2 into word 3); the point is kept where
    # the digit after it is
    after1, after2 = word1 & after_mask1, word2 & after_mask2
    cells = np.empty((x.size, 4), dtype=_U64)
    np.bitwise_or(((x.view(_U64) >> _U64(63)) * _U64(ord("-"))) | prefix,
                  _FIRST_DIGITS.take(first), out=cells[:, 0])
    np.add(word1 + after1 * _U64(255), dot1 & mask1, out=cells[:, 1])
    np.add(word2 + after2 * _U64(255) + (after1 >> _U64(56)), dot2 & mask2, out=cells[:, 2])
    np.bitwise_or(after2 >> _U64(56), suffix, out=cells[:, 3])
    route = np.flatnonzero(~finite | (np.abs(rest - rounded) > 0.5 - _TIE_MARGIN))
    if route.size:
        text = [format_value(v).encode() for v in x[route].tolist()]
        cells[route] = np.array(text, dtype="S32").view(_U64).reshape(-1, 4)
    return cells.view(np.uint8).reshape(-1, 32)


def _rewrite(targets: dict[str | Path, Iterable[bytes]]) -> None:
    """Write each path's chunks to it: the one place the package opens an
    output file.  Every path is opened before any is written, and a failed
    open removes the paths this call created, so that it changes no file.

    An existing file is written over in place, not truncated to zero first
    (O_TRUNC, which on ext4 costs several times the write itself), and is
    then cut at the end of what was written, also when a chunk raises: a
    longer old file loses its tail.  A target that is not a regular file
    (/dev/null, a FIFO) is only written to."""
    def opener(name, flags: int) -> int:  # open(path, "wb") but for O_TRUNC
        return os.open(name, flags & ~os.O_TRUNC, 0o666)

    new = [path for path in targets if not os.path.lexists(path)]
    with contextlib.ExitStack() as files:
        try:
            outs = [files.enter_context(open(path, "wb", opener=opener)) for path in targets]
        except OSError:
            for path in filter(os.path.lexists, new):
                os.unlink(path)
            raise
        for out, chunks in zip(outs, targets.values()):
            try:
                out.writelines(chunks)
            finally:
                if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                    out.truncate()  # flushes, then cuts at the position


def _write_table(path: str | Path, header: Iterable[str], body: Iterable,
                metadata: dict[str, object]) -> bool:
    """Write the CSV (header line, then the body's chunks of data lines as
    bytes) and, where path is or becomes a regular file, its sidecar
    "<path>.meta" of sorted "key = value" lines; whether it wrote that."""
    sidecar = os.path.isfile(path) or not os.path.exists(path)
    meta = [f"{key} = {format_value(metadata[key])}" for key in sorted(metadata)]
    _rewrite({path: itertools.chain([(",".join(header) + "\n").encode()], body),
              **({f"{path}.meta": [("\n".join(meta) + "\n").encode()]} if sidecar else {})})
    return sidecar


#: cells FigureDataset.write formats at once, in blocks of whole rows
_BLOCK_CELLS = 8192


@dataclass(slots=True)
class FigureDataset:
    """Named numeric series plus the metadata needed to regenerate them.

    Each column is kept as a 1-D float64 array: anything else numpy makes a
    1-D bool, int or float array of is converted, any other column is a
    ConfigError.  The first column, the abscissa, must strictly increase."""

    name: str
    columns: dict[str, np.ndarray]
    metadata: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.columns:
            raise ConfigError(f"dataset {self.name!r} has no columns")
        self.columns = {key: self._float_column(key, v) for key, v in self.columns.items()}
        lengths = {v.size for v in self.columns.values()}
        if len(lengths) > 1:
            raise ConfigError(f"ragged columns in dataset {self.name!r}: {lengths}")
        first = next(iter(self.columns.values()))
        if not np.all(first[1:] > first[:-1]):  # a NaN fails too
            raise ConfigError(
                f"abscissa of dataset {self.name!r} must be strictly increasing"
            )

    def _float_column(self, key: str, values: object) -> np.ndarray:
        try:
            column = np.asarray(values)
        except ValueError as exc:  # a ragged sequence of sequences
            raise ConfigError(f"column {key!r} of dataset {self.name!r} is ragged") from exc
        if column.ndim != 1 or column.dtype.kind not in "biuf":
            raise ConfigError(f"column {key!r} of dataset {self.name!r} must be a 1-D array "
                              f"of bool, int or float values, got {column.ndim}-D {column.dtype}")
        return column.astype(float, copy=False)

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values())))

    def write(self, path: str | Path) -> bool:
        """Write the CSV and its sidecar metadata file, as _write_table says.

        The body goes out in blocks of rows: each block of the columns,
        stacked into one float64 array, through _format_floats, each cell
        followed by its "," or newline, as the bytes of its cells with the
        0 bytes dropped by bytes.translate."""
        columns = list(self.columns.values())
        separators = np.frombuffer(b"," * (len(columns) - 1) + b"\n", dtype=np.uint8)
        rows = max(1, _BLOCK_CELLS // len(columns))

        def blocks() -> Iterator[bytes]:
            for start in range(0, self.n_rows, rows):
                block = np.column_stack([c[start:start + rows] for c in columns])
                cells = _format_floats(block).reshape(len(block), len(columns), 32)
                cells[:, :, 31] = separators
                yield cells.tobytes().translate(None, b"\0")

        return _write_table(path, self.columns, blocks(), self.metadata)


@dataclass(frozen=True, slots=True)
class ScanSpec:
    """One-parameter sweep of a model target."""

    target: str
    parameter: str
    start: float
    stop: float
    points: int
    fixed: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# per-target column evaluators: (fixed, parameter, values) -> named columns,
# with values a numpy array of sweep points (or one float)

Columns = dict[str, np.ndarray]


def _synthetic_columns(fixed: dict[str, float], parameter: str, psi) -> Columns:
    resp = synthetic_response(
        psi,
        ElementSpec.mirror(fixed["t"]),
        ElementSpec.membrane(fixed["t_m"], phi_r=fixed["phi_r"]),
    )
    return {
        "psi": psi,
        "T": resp.T,
        "mu": resp.mu,
        "dT_dpsi": resp.dT_dpsi,
        "dmu_dpsi": resp.dmu_dpsi,
    }


def _mos_config(fixed: dict[str, float], parameter: str, value) -> mos_mod.MosConfig:
    base = mos_mod.MosConfig(x=value if parameter == "x" else 0.0, **fixed)
    if parameter == "x":
        return base
    return base.at_phi(value * base.phi0)


def _mos_columns(fixed: dict[str, float], parameter: str, value) -> Columns:
    cfg = _mos_config(fixed, parameter, value)
    op = mos_mod.operating_point(cfg)
    derived = {
        "phi_over_phi0": op.phi / op.phi0,
        "T": op.T,
        "gamma": op.gamma,
        "g_omega0": op.g_omega0,
        "g_gamma0": op.g_gamma0,
        "gamma_over_gamma0": op.gamma / cfg.gamma0,
        "g_omega0_over_g00": op.g_omega0 / op.g_00,
        "g_gamma0_over_g00": op.g_gamma0 / op.g_00,
        "valid_thin_tandem": np.asarray(op.valid_thin_tandem, dtype=float),
    }
    columns = {parameter: value}
    columns.update((key, val) for key, val in derived.items() if key != parameter)
    return columns


def _msi_columns(fixed: dict[str, float], parameter: str, x) -> Columns:
    cfg = msi_mod.MsiConfig(
        r_ms=fixed["r_ms"],
        l=fixed["l"],
        k=wavevector(fixed["wavelength"]),
        x=x,
        Tb_sq=fixed["Tb_sq"],
    )
    cpl = msi_mod.msi_couplings(cfg)
    return {
        "x": x,
        "tau": msi_mod.msi_effective_mirror(cfg).tau,
        "T_ms": cpl.T_ms,
        "gamma_ms": cpl.gamma_ms,
        "g_omega0": cpl.g_omega0,
        "g_gamma0": cpl.g_gamma0,
    }


def _mate_columns(fixed: dict[str, float], parameter: str, x) -> Columns:
    cfg = mate_mod.MateConfig(x=x, **fixed)
    dec = mate_mod.mate_exact_decay(cfg, cfg.k)
    return {
        "x": x,
        "gamma_mate": dec.gamma_mate,
        "dgamma_dx": dec.dgamma_dx,
        "gamma_reduced": dec.gamma_reduced,
        "dgamma_dx_reduced": dec.dgamma_dx_reduced,
    }


def _noise_columns(fixed: dict[str, float], parameter: str, xi) -> Columns:
    require_non_negative(gamma3_over_gamma=fixed["gamma3_over_gamma"])
    big_a = 1.0 + fixed["gamma3_over_gamma"] / 2.0
    return {
        "xi": xi,
        "product_normalized": noise_mod.product_normalized(xi, big_a),
        "theta_opt": np.arctan2(xi, 1.0),
    }


@dataclass(frozen=True, slots=True)
class _Target:
    sweepable: tuple[str, ...]
    defaults: dict[str, float]
    columns: Callable[[dict[str, float], str, np.ndarray], Columns]


TARGETS: dict[str, _Target] = {
    "synthetic": _Target(
        sweepable=("psi",),
        defaults={key: FIGURE_PARAMS[key] for key in ("t", "t_m", "phi_r")},
        columns=_synthetic_columns,
    ),
    "mos": _Target(
        sweepable=("phi_over_phi0", "x"),
        defaults=dict(FIGURE_PARAMS, N=0.0),
        columns=_mos_columns,
    ),
    "msi": _Target(
        sweepable=("x",),
        defaults={"r_ms": 0.9, "Tb_sq": 0.5, "l": FIGURE_PARAMS["l"],
                  "wavelength": FIGURE_PARAMS["wavelength"]},
        columns=_msi_columns,
    ),
    "mate": _Target(
        sweepable=("x",),
        defaults=dict(FIGURE_PARAMS, phi_r=math.pi),
        columns=_mate_columns,
    ),
    "noise": _Target(
        sweepable=("xi",),
        defaults={"gamma3_over_gamma": 0.0},
        columns=_noise_columns,
    ),
}


def _sweep_values(spec: ScanSpec) -> np.ndarray:
    # start + i * span / n, not np.linspace, whose rounding would move the
    # exact grid points (0.0, 1.0, ...) that anchors are read at
    try:
        index = np.arange(spec.points)
        if index.size != spec.points:  # np.arange(2**63) comes back empty
            raise ValueError("too many points")
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"cannot make {spec.points} sweep points: {exc}") from exc
    span = spec.stop - spec.start
    n = spec.points - 1
    return spec.start + index * span / n


def _scan_metadata(spec: ScanSpec) -> dict[str, object]:
    """The .meta entries that describe a sweep's grid and the build."""
    return {
        "target": spec.target,
        "parameter": spec.parameter,
        "start": spec.start,
        "stop": spec.stop,
        "points": spec.points,
        "version": __version__,
    }


def _evaluate(target: _Target, fixed: dict[str, float], parameter: str,
              values: np.ndarray) -> Columns:
    """Every column of a sweep.  An error, or a non-finite value, names the
    first sweep point that produces it."""
    with np.errstate(all="ignore"):  # non-finite values are reported below
        try:
            columns = target.columns(fixed, parameter, values)
        except _ROW_ERRORS:
            for value in values.tolist():
                try:
                    target.columns(fixed, parameter, value)
                except _ROW_ERRORS as exc:
                    raise type(exc)(
                        f"{exc} [at sweep point {parameter} = {value!r}]"
                    ) from exc
            raise
    first = len(values)
    for name, column in columns.items():
        bad = np.flatnonzero(~np.isfinite(column[:first]))
        if bad.size:
            first, bad_name = bad[0], name
    if first < len(values):
        raise ConfigError(
            f"{bad_name} is not finite for these parameters "
            f"[at sweep point {parameter} = {values[first].item()!r}]"
        )
    return columns


def run_scan(spec: ScanSpec) -> FigureDataset:
    """Evaluate a sweep into its dataset (FigureDataset.write writes it).

    Validates the spec (unknown target/parameter, point count < 2,
    non-finite bounds, swept parameter also fixed -> ConfigError), then
    evaluates all points at once.
    """
    if spec.target not in TARGETS:
        raise ConfigError(
            f"unknown target {spec.target!r}; expected one of {sorted(TARGETS)}"
        )
    target = TARGETS[spec.target]
    if spec.parameter not in target.sweepable:
        raise ConfigError(
            f"target {spec.target!r} cannot sweep {spec.parameter!r}; "
            f"sweepable: {target.sweepable}"
        )
    if spec.points < 2:
        raise ConfigError(f"need at least 2 sweep points, got {spec.points}")
    if not (math.isfinite(spec.start) and math.isfinite(spec.stop)):
        raise ConfigError(f"sweep range must be finite, got [{spec.start}, {spec.stop}]")
    if spec.stop <= spec.start:
        raise ConfigError(f"sweep range must be increasing, got [{spec.start}, {spec.stop}]")
    if spec.parameter in spec.fixed:
        raise ConfigError(f"swept parameter {spec.parameter!r} is also fixed")
    unknown = set(spec.fixed) - set(target.defaults)
    if unknown:
        raise ConfigError(
            f"unknown parameters for target {spec.target!r}: {sorted(unknown)}"
        )
    fixed = {**target.defaults, **spec.fixed}
    columns = _evaluate(target, fixed, spec.parameter, _sweep_values(spec))

    metadata = _scan_metadata(spec)
    for key, val in sorted(fixed.items()):
        metadata[f"param.{key}"] = val
    if spec.target == "mos":
        cfg = _mos_config(fixed, "phi_over_phi0", 0.0)
        metadata["normalizer.phi0"] = cfg.phi0
        metadata["normalizer.gamma0"] = cfg.gamma0
        metadata["normalizer.g_00"] = cfg.g_00

    return FigureDataset(name=spec.target, columns=columns, metadata=metadata)


FIGURE_IDS = ("fig2", "fig3", "fig4")


def reproduce_figure(figure_id: str) -> FigureDataset:
    """Datasets behind the bundled figures (FigureDataset.write writes one).

    fig2: normalized coupling constants g_omega0/g_00 and g_gamma0/g_00
          versus Phi/Phi0 on [-4, 4], 801 points.
    fig3: normalized decay rate gamma/gamma0 on the same grid.
    fig4: normalized backaction-imprecision product versus
          xi = g_omega0/g_gamma0 for loss ratios gamma3/gamma in {0, 0.5, 1}.
    """
    if figure_id not in FIGURE_IDS:
        raise ConfigError(f"unknown figure {figure_id!r}; expected one of {FIGURE_IDS}")
    if figure_id in ("fig2", "fig3"):
        scan = run_scan(
            ScanSpec(target="mos", parameter="phi_over_phi0",
                     start=-4.0, stop=4.0, points=801)
        )
        if figure_id == "fig2":
            keep = ("phi_over_phi0", "g_omega0_over_g00", "g_gamma0_over_g00")
        else:
            keep = ("phi_over_phi0", "gamma_over_gamma0")
        return FigureDataset(
            name=figure_id,
            columns={k: scan.columns[k] for k in keep},
            metadata={**scan.metadata, "figure_id": figure_id},
        )
    spec = ScanSpec(target="noise", parameter="xi", start=-20.0, stop=20.0, points=801)
    xi = _sweep_values(spec)
    columns: Columns = {"xi": xi}
    for frac in (0.0, 0.5, 1.0):
        loss = _noise_columns({"gamma3_over_gamma": frac}, "xi", xi)
        columns[f"product_normalized_loss{int(100 * frac)}"] = loss["product_normalized"]
    return FigureDataset(
        name="fig4",
        columns=columns,
        metadata={
            **_scan_metadata(spec),
            "figure_id": "fig4",
            "loss_fractions": "0,0.5,1",
            "normalizer.product_unit": "hbar^2/4",
        },
    )


COMPARE_DEFAULTS: dict[str, float] = {
    **{key: FIGURE_PARAMS[key] for key in ("t", "t_m", "l", "wavelength")},
    "x_zpf": 1e-15,
    "gamma_m": 0.1,
    "a0": 1.0,
    "omega_m": 1e6,
    "msi_r_ms": 0.9,
    "msi_Tb_sq": 0.48,
    "mate_x": None,  # default: l t_m^2 / 4000 (deep near-edge)
}

#: compare parameters that are lengths, rates or the drive amplitude, and
#: the others, which need only be finite
_COMPARE_POSITIVE = ("l", "wavelength", "x_zpf", "gamma_m", "a0", "omega_m", "mate_x")
_COMPARE_FINITE = tuple(key for key in COMPARE_DEFAULTS if key not in _COMPARE_POSITIVE)
#: each compare parameter's name in a screen's message, and its .meta key in
#: sorted order
_COMPARE_LABELS = {key: f"compare.{key}" for key in COMPARE_DEFAULTS}
_COMPARE_META = {key: f"param.{key}" for key in sorted(COMPARE_DEFAULTS)}

COMPARE_COLUMNS = (
    "system", "g_gamma0", "gamma", "cooperativity",
    "g_ratio_mos", "gamma_ratio_mos", "coop_ratio_mos", "error",
)


@dataclass(slots=True)
class ComparisonTable:
    rows: list[dict[str, object]]
    metadata: dict[str, object]

    def write(self, path: str | Path) -> bool:
        return _write_table(path, COMPARE_COLUMNS,
                            [(",".join(format_value(row.get(c, "")) for c in COMPARE_COLUMNS)
                              + "\n").encode() for row in self.rows],
                            self.metadata)


def _store(row: dict[str, object], **values: float) -> None:
    """Put values into a comparison row; a zero or non-finite coupling,
    rate, cooperativity or ratio is the row's error, never a divisor."""
    for name, value in values.items():
        if not (math.isfinite(value) and value != 0.0):
            raise InvalidParameter(f"{row['system']} {name} = {value!r}")
    row.update(values)


# Each row filler applies, in their order, the rules its system's config and
# public functions apply that can still fail once compare_systems has
# screened its parameters, and calls the closed-form kernels.


def _mos_row(row: dict, p: dict, k: float, m_scale: float) -> None:
    t, t_m, l = p["t"], p["t_m"], p["l"]
    mos_mod._checked_locus(t, t_m)
    # the Phi = Phi0 operating point: g_gamma0 = g_00 / 2, gamma = gamma0 / 2;
    # where MosConfig's phi0 = t_m^2 / 4 underflows to 0, g_00's l t_m^4 does too
    g_00 = in_float_range("g_00", lambda: mos_mod._g_00(C_LIGHT * k, l, t, t_m))
    gamma0 = in_float_range("gamma0", lambda: mos_mod._gamma0(l, t, t_m))
    _store(row, g_gamma0=g_00 / 2.0, gamma=gamma0 / 2.0)
    _store(row, cooperativity=in_float_range("cooperativity_mos", lambda: (
        noise_mod._cooperativity_mos(m_scale, t, t_m))))


def _msi_row(row: dict, p: dict, k: float, m_scale: float) -> None:
    r_ms, Tb_sq = p["msi_r_ms"], p["msi_Tb_sq"]
    require_amplitude(Tb_sq=Tb_sq, r_ms=r_ms)
    require_positive(k=k)  # 2 pi / wavelength overflows for a subnormal wavelength
    amplitudes = (r_ms, *msi_mod._amplitudes(Tb_sq, r_ms))
    x_star, (_, _, _, gamma_ms, g_gamma0) = msi_mod._zero_dispersive_point(
        *amplitudes, k, p["l"])
    msi_mod._rho_sq(msi_mod._mirror(*amplitudes, k, x_star)[0])  # rho may vanish at x*
    _store(row, g_gamma0=g_gamma0, gamma=gamma_ms)
    _store(row, cooperativity=in_float_range("cooperativity_msi", lambda: (
        noise_mod._cooperativity_msi(m_scale, r_ms, gamma_ms, p["omega_m"]))))


def _mate_row(row: dict, p: dict, k: float, m_scale: float) -> None:
    t, t_m, l = p["t"], p["t_m"], p["l"]
    require_amplitude(t=t)
    require_transmitting(t_m=t_m)
    mate_x = l * t_m ** 2 / 4000.0 if p["mate_x"] is None else p["mate_x"]
    mate_mod._require_inside(mate_x, l)
    g_gamma0, gamma_mate, _ = in_float_range(
        "mate_zero_dispersive", lambda: mate_mod._zero_dispersive(C_LIGHT * k, l, t, t_m))
    _store(row, g_gamma0=g_gamma0, gamma=gamma_mate)
    _store(row, cooperativity=in_float_range("cooperativity_mate", lambda: (
        noise_mod._cooperativity_mate(m_scale, t, t_m, p["omega_m"], gamma_mate))))


#: each system's row filler, in row order; a filler stores g_gamma0 and gamma
#: before the cooperativity, so a row whose cooperativity fails keeps both
_SYSTEMS = {"mos": _mos_row, "msi": _msi_row, "mate": _mate_row}


def compare_systems(params: dict[str, float] | None = None) -> ComparisonTable:
    """Dissipative constant, decay rate, and cooperativity of the three
    systems at their zero-dispersive operating points, with MOS-referenced
    ratio columns (nan where the MOS row or the row itself has an error).

    Every parameter must be finite, and lengths, rates and the drive
    amplitude positive (InvalidParameter); mate_x alone may be None, its
    default.  A per-system error (an infeasible system, a parameter out of
    range, a zero or overflowing result) is reported in the row's error
    column instead of propagating."""
    p = dict(COMPARE_DEFAULTS)
    if params:
        unknown = set(params) - COMPARE_DEFAULTS.keys()
        if unknown:
            raise ConfigError(f"unknown compare parameters: {sorted(unknown)}")
        p.update(params)
    require_finite(**{_COMPARE_LABELS[key]: p[key] for key in _COMPARE_FINITE})
    require_positive(**{_COMPARE_LABELS[key]: p[key] for key in _COMPARE_POSITIVE
                        if key != "mate_x" or p[key] is not None})
    k = wavevector(p["wavelength"])
    try:  # a nan M fails each row's cooperativity guard, where M's own would have
        m_scale = in_float_range("mechanical_scale", lambda: noise_mod._mechanical_scale(
            k, p["l"], p["x_zpf"], p["gamma_m"], p["a0"]))
    except InvalidParameter:
        m_scale = math.nan

    rows: list[dict[str, object]] = [{"system": s, "error": ""} for s in _SYSTEMS]
    for row in rows:
        try:
            _SYSTEMS[row["system"]](row, p, k, m_scale)
        except _ROW_ERRORS as exc:
            row["error"] = type(exc).__name__

    mos_row = rows[0]
    mos_ok = not mos_row["error"]
    for row in rows:
        row["g_ratio_mos"] = row["gamma_ratio_mos"] = row["coop_ratio_mos"] = math.nan
        if mos_ok and not row["error"]:
            try:
                _store(row, g_ratio_mos=mos_row["g_gamma0"] / row["g_gamma0"],
                       gamma_ratio_mos=mos_row["gamma"] / row["gamma"],
                       coop_ratio_mos=mos_row["cooperativity"] / row["cooperativity"])
            except InvalidParameter as exc:
                row["error"] = type(exc).__name__

    metadata: dict[str, object] = {name: p[key] for key, name in _COMPARE_META.items()
                                   if p[key] is not None}
    metadata["version"] = __version__
    return ComparisonTable(rows=rows, metadata=metadata)
