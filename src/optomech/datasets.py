"""Parameter scans, figure datasets, and the cross-system comparison table.

Output contract: comma-separated values with a header line naming the
columns, every number rendered with 17 significant digits, plus a sidecar
"<path>.meta" file of sorted "key = value" lines carrying the parameter
values and normalizers.  Identical inputs produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import __version__
from . import mate as mate_mod
from . import mos as mos_mod
from . import msi as msi_mod
from . import noise as noise_mod
from .elements import ElementSpec, synthetic_response, wavevector
from .errors import ConfigError, InvalidParameter, OptomechError
from .numerics import require_finite

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


def _write_table(path: str | Path, header: Iterable[str],
                lines: Iterable[str], metadata: dict[str, object]) -> None:
    """Write the CSV (header line, then the formatted data lines) and its
    sidecar "<path>.meta" of sorted "key = value" lines."""
    Path(path).write_text("\n".join([",".join(header), *lines]) + "\n")
    meta = [f"{key} = {format_value(metadata[key])}" for key in sorted(metadata)]
    Path(f"{path}.meta").write_text("\n".join(meta) + "\n")


@dataclass
class FigureDataset:
    """Named numeric series plus the metadata needed to regenerate them."""

    name: str
    columns: dict[str, list[float]]
    metadata: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ConfigError(f"ragged columns in dataset {self.name!r}: {lengths}")
        if not self.columns:
            raise ConfigError(f"dataset {self.name!r} has no columns")
        first = next(iter(self.columns.values()))
        if any(not b > a for a, b in zip(first, first[1:])):  # a NaN fails too
            raise ConfigError(
                f"abscissa of dataset {self.name!r} must be strictly increasing"
            )

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values())))

    def write(self, path: str | Path) -> None:
        """Write the CSV and its sidecar metadata file.

        Each data line is one row template: a %.17g field for a column of
        floats (the conversion format_value makes of a float), a %s field
        holding the format_value text of any other column."""
        fields, cells = [], []
        for column in self.columns.values():
            if set(map(type, column)) <= {float}:
                fields.append("%.17g")
                cells.append(column)
            else:
                fields.append("%s")
                cells.append(list(map(format_value, column)))
        lines = map(",".join(fields).__mod__, zip(*cells))
        _write_table(path, self.columns, lines, self.metadata)


@dataclass(frozen=True)
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
    if not fixed["gamma3_over_gamma"] >= 0.0:
        raise InvalidParameter(
            f"gamma3_over_gamma must be non-negative, got {fixed['gamma3_over_gamma']}"
        )
    big_a = 1.0 + fixed["gamma3_over_gamma"] / 2.0
    return {
        "xi": xi,
        "product_normalized": noise_mod.product_normalized(xi, big_a),
        "theta_opt": np.arctan2(xi, 1.0),
    }


@dataclass(frozen=True)
class _Target:
    sweepable: tuple[str, ...]
    defaults: dict[str, float]
    columns: Callable[[dict[str, float], str, np.ndarray], Columns]


TARGETS: dict[str, _Target] = {
    "synthetic": _Target(
        sweepable=("psi",),
        defaults={"t": 0.014, "t_m": 0.1, "phi_r": math.pi / 2},
        columns=_synthetic_columns,
    ),
    "mos": _Target(
        sweepable=("phi_over_phi0", "x"),
        defaults=dict(FIGURE_PARAMS, N=0.0),
        columns=_mos_columns,
    ),
    "msi": _Target(
        sweepable=("x",),
        defaults={"r_ms": 0.9, "Tb_sq": 0.5, "l": 1e-4, "wavelength": 0.85e-6},
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
              values: np.ndarray) -> dict[str, list[float]]:
    """Every column of a sweep, as lists.  An error, or a non-finite value,
    names the first sweep point that produces it."""
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
    return {name: column.tolist() for name, column in columns.items()}


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
    columns: dict[str, list[float]] = {"xi": xi.tolist()}
    for frac in (0.0, 0.5, 1.0):
        loss = _noise_columns({"gamma3_over_gamma": frac}, "xi", xi)
        columns[f"product_normalized_loss{int(100 * frac)}"] = (
            loss["product_normalized"].tolist()
        )
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
    "t": 0.014,
    "t_m": 0.1,
    "l": 1e-4,
    "wavelength": 0.85e-6,
    "x_zpf": 1e-15,
    "gamma_m": 0.1,
    "a0": 1.0,
    "omega_m": 1e6,
    "msi_r_ms": 0.9,
    "msi_Tb_sq": 0.48,
    "mate_x": None,  # default: l t_m^2 / 4000 (deep near-edge)
}

#: compare parameters that are lengths, rates or the drive amplitude
_COMPARE_POSITIVE = ("l", "wavelength", "x_zpf", "gamma_m", "a0", "omega_m", "mate_x")

COMPARE_COLUMNS = (
    "system", "g_gamma0", "gamma", "cooperativity",
    "g_ratio_mos", "gamma_ratio_mos", "coop_ratio_mos", "error",
)


@dataclass
class ComparisonTable:
    rows: list[dict[str, object]]
    metadata: dict[str, object]

    def write(self, path: str | Path) -> None:
        _write_table(path, COMPARE_COLUMNS,
                    (",".join(format_value(row.get(c, "")) for c in COMPARE_COLUMNS)
                     for row in self.rows),
                    self.metadata)


def _store(row: dict[str, object], **values: float) -> None:
    """Put values into a comparison row; a zero or non-finite coupling,
    rate, cooperativity or ratio is the row's error, never a divisor."""
    for name, value in values.items():
        if not (math.isfinite(value) and value != 0.0):
            raise InvalidParameter(f"{row['system']} {name} = {value!r}")
    row.update(values)


def compare_systems(params: dict[str, float] | None = None) -> ComparisonTable:
    """Dissipative constant, decay rate, and cooperativity of the three
    systems at their zero-dispersive operating points, with MOS-referenced
    ratio columns (nan where the MOS row or the row itself has an error).

    Every parameter must be finite, and lengths, rates and the drive
    amplitude positive (InvalidParameter).  A per-system error (an
    infeasible system, a parameter out of range, a zero or overflowing
    result) is reported in the row's error column instead of propagating."""
    p = dict(COMPARE_DEFAULTS)
    if params:
        unknown = set(params) - set(COMPARE_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown compare parameters: {sorted(unknown)}")
        p.update(params)
    given = {key: val for key, val in p.items() if val is not None}
    require_finite(**{f"compare.{key}": val for key, val in given.items()})
    for key in _COMPARE_POSITIVE:
        if key in given and not given[key] > 0.0:
            raise InvalidParameter(f"compare.{key} must be positive, got {given[key]}")
    k = wavevector(p["wavelength"])
    mech = dict(
        l=p["l"], wavelength=p["wavelength"], x_zpf=p["x_zpf"],
        gamma_m=p["gamma_m"], a0=p["a0"],
    )

    rows: list[dict[str, object]] = []

    mos_row: dict[str, object] = {"system": "mos", "error": ""}
    try:
        mos_mod.zero_dispersive_locus(p["t"], p["t_m"])
        mos_cfg = mos_mod.MosConfig(l=p["l"], wavelength=p["wavelength"],
                                    t=p["t"], t_m=p["t_m"], x=0.0)
        # the Phi = Phi0 operating point: g_gamma0 = g_00 / 2, gamma = gamma0 / 2
        _store(mos_row, g_gamma0=mos_cfg.g_00 / 2.0, gamma=mos_cfg.gamma0 / 2.0)
        _store(mos_row, cooperativity=noise_mod.cooperativity_mos(
            t=p["t"], t_m=p["t_m"], **mech
        ))
    except _ROW_ERRORS as exc:
        mos_row["error"] = type(exc).__name__
    rows.append(mos_row)

    msi_row: dict[str, object] = {"system": "msi", "error": ""}
    try:
        msi_cfg = msi_mod.MsiConfig(
            r_ms=p["msi_r_ms"], l=p["l"], k=k, Tb_sq=p["msi_Tb_sq"]
        )
        zd = msi_mod.msi_zero_dispersive(msi_cfg)
        _store(msi_row, g_gamma0=zd.g_gamma0_benchmark, gamma=zd.gamma_ms)
        _store(msi_row, cooperativity=noise_mod.cooperativity_msi(
            r_ms=p["msi_r_ms"], gamma_ms=zd.gamma_ms, omega_m=p["omega_m"], **mech
        ))
    except _ROW_ERRORS as exc:
        msi_row["error"] = type(exc).__name__
    rows.append(msi_row)

    mate_row: dict[str, object] = {"system": "mate", "error": ""}
    try:
        mate_x = p["mate_x"]
        if mate_x is None:
            mate_x = p["l"] * p["t_m"] ** 2 / 4000.0
        mate_cfg = mate_mod.MateConfig(
            l=p["l"], x=mate_x, t=p["t"], t_m=p["t_m"],
            wavelength=p["wavelength"],
        )
        zd_mate = mate_mod.mate_zero_dispersive(mate_cfg)
        _store(mate_row, g_gamma0=zd_mate.g_gamma0_mag, gamma=zd_mate.gamma_mate)
        _store(mate_row, cooperativity=noise_mod.cooperativity_mate(
            t=p["t"], t_m=p["t_m"], omega_m=p["omega_m"], **mech
        ))
    except _ROW_ERRORS as exc:
        mate_row["error"] = type(exc).__name__
    rows.append(mate_row)

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

    metadata: dict[str, object] = {f"param.{key}": val for key, val in sorted(p.items())
                                   if val is not None}
    metadata["version"] = __version__
    return ComparisonTable(rows=rows, metadata=metadata)
