"""The three benchmark workloads: inputs from a seed, one timed pass, and the
correctness gate applied to each operation of a pass.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returns.  A pass is a fixed unit of work; the runner
repeats passes for the requested time.  Package functions are always looked
up through their module at call time so that the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import optomech.cli as cli
import optomech.datasets as datasets
import optomech.mate as mate
import optomech.mos as mos
import optomech.msi as msi
import optomech.noise as noise
import optomech.validation as validation
from optomech.errors import BranchAmbiguity, NoZeroDispersivePoint

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "sweep_reference.json"

#: per-layer metric -> (end-to-end metric, workload) it should move
LAYER_MAP = {
    "cli.main.self_s": [("scan_points_per_s", "sweep"), ("figure_s", "sweep")],
    "datasets.run_scan.self_s": [("scan_points_per_s", "sweep")],
    "datasets.FigureDataset.write.self_s": [("scan_points_per_s", "sweep")],
    "datasets.FigureDataset.write.bytes": [("scan_points_per_s", "sweep")],
    "datasets.reproduce_figure.self_s": [("figure_s", "sweep"),
                                         ("validate_fast_s", "validate")],
    "datasets.compare_systems.self_s": [("design_p50_ms", "design")],
    "datasets.scan.<target>.us_per_point": [("scan_points_per_s", "sweep")],
    "elements.synthetic_response.{calls,self_s}": [("scan_points_per_s", "sweep"),
                                                   ("validate_full_s", "validate")],
    "elements.ElementSpec.validate.calls_per_point": [("scan_points_per_s", "sweep")],
    "elements.compose_synthetic{,_by_elimination}.self_s": [
        ("validate_full_s", "validate"), ("validate_fast_s", "validate")],
    "mos.operating_point.{calls,self_s}": [("scan_points_per_s", "sweep"),
                                           ("design_p50_ms", "design")],
    "mos.exact_corrections.self_s": [("design_p50_ms", "design")],
    "mos.solve_resonance.{calls,self_s}": [("validate_full_s", "validate")],
    "mos.resonance_residual.evals_per_solve": [("validate_full_s", "validate")],
    "msi.msi_couplings.self_s": [("scan_points_per_s", "sweep"),
                                 ("design_p50_ms", "design")],
    "mate.mate_exact_decay.self_s": [("scan_points_per_s", "sweep")],
    "mate.mate_resonances.{calls,self_s}": [("design_p99_ms", "design"),
                                            ("validate_full_s", "validate")],
    "mate.resonance_residual.evals_per_root": [("design_p99_ms", "design"),
                                               ("validate_full_s", "validate")],
    "mate.dispersive_from_resonance.self_s": [("validate_full_s", "validate")],
    "noise.general_spectra.{calls,self_s,us_per_call}": [("designs_per_s", "design"),
                                                         ("design_p50_ms", "design")],
    "noise.product_normalized.self_s": [("scan_points_per_s", "sweep"),
                                        ("figure_s", "sweep")],
    "numerics.{bisect,bracket_roots}.{calls,self_s}": [("validate_full_s", "validate"),
                                                       ("design_p99_ms", "design")],
    "validation.<check>.s": [("validate_full_s", "validate")],
    "trace.overhead_s": [("every metric", "every workload")],
}


@dataclasses.dataclass
class Op:
    """Outcome of one operation: its label, wall time and gate result."""

    label: str
    seconds: float
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


@dataclasses.dataclass
class Passes:
    """Wall times of repeated passes: one row per pass, one column per op."""

    labels: list[str]
    seconds: np.ndarray

    def column(self, label: str) -> np.ndarray:
        return self.seconds[:, self.labels.index(label)]

    def total(self, labels=None) -> np.ndarray:
        """Per-pass time summed over all ops, or over those named."""
        if labels is None:
            return self.seconds.sum(axis=1)
        keep = [i for i, label in enumerate(self.labels) if label in labels]
        return self.seconds[:, keep].sum(axis=1)


#: the clock operations are timed by; run.py sets one that leaves out the
#: time of its host-speed calibration
clock = time.perf_counter


def _timed(tracer, label: str, fn, *args):
    """Call fn under an operation span (when tracing); return (result, s)."""
    span = tracer.span(f"op:{label}") if tracer else contextlib.nullcontext()
    with span:
        t0 = clock()
        result = fn(*args)
        return result, clock() - t0


# ---------------------------------------------------------------------------
# sweep

SCAN_POINTS = 20001
#: (target, swept parameter, start, stop) of the five large scans
SCANS = (
    ("synthetic", "psi", -3.0, 3.0),
    ("mos", "phi_over_phi0", -4.0, 4.0),
    ("msi", "x", 0.0, 1e-6),
    ("mate", "x", 1e-7, 1e-6),
    ("noise", "xi", -20.0, 20.0),
)
FIGURES = ("fig2", "fig3", "fig4")
W2_LABEL = "scan.mos.w2"
#: rows of each output compared against the stored reference values
SCAN_SAMPLE_ROWS = (0, 1, 4999, 10000, 12500, 15001, 19999, 20000)
FIGURE_SAMPLE_ROWS = (0, 1, 400, 500, 799, 800)
REFERENCE_REL = 1e-9
ANCHOR_TOL = 1e-12


def sweep_ops(out_dir: Path) -> list[tuple[str, list[str]]]:
    """(label, CLI argv) of one sweep pass, in execution order."""
    ops = []
    for target, parameter, start, stop in SCANS:
        ops.append((f"scan.{target}", [
            target, "--workers", "1", "--out", str(out_dir / f"{target}.csv"),
            "--set", f"scan.parameter={parameter}", "--set", f"scan.start={start!r}",
            "--set", f"scan.stop={stop!r}", "--set", f"scan.points={SCAN_POINTS}",
        ]))
    for fig in FIGURES:
        ops.append((f"figure.{fig}", [
            "figure", "--id", fig, "--workers", "1",
            "--out", str(out_dir / f"{fig}.csv"),
        ]))
    _, _, start, stop = SCANS[1]
    ops.append((W2_LABEL, [
        "mos", "--workers", "2", "--out", str(out_dir / "mos_w2.csv"),
        "--set", "scan.parameter=phi_over_phi0", "--set", f"scan.start={start!r}",
        "--set", f"scan.stop={stop!r}", "--set", f"scan.points={SCAN_POINTS}",
    ]))
    return ops


def _call_cli(argv: list[str]):
    # an operation boundary: cli.main handles only the package's own errors,
    # so any other exception is one failed scan, not an aborted run
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except (Exception, SystemExit) as exc:  # noqa: BLE001
        return exc


def run_sweep_pass(out_dir: Path, tracer=None, with_w2: bool = True) -> list[Op]:
    ops = []
    for label, argv in sweep_ops(out_dir):
        if label == W2_LABEL and not with_w2:
            continue
        rc, seconds = _timed(tracer, label, _call_cli, argv)
        if isinstance(rc, BaseException):
            error = f"unexpected {type(rc).__name__}: {rc}"
        else:
            error = "" if rc == 0 else f"exit code {rc}"
        ops.append(Op(label, seconds, error))
    return ops


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    text = path.read_text()
    header, _, body = text.partition("\n")
    names = header.split(",")
    values = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=float)
    return names, values.reshape(-1, len(names))


def check_sweep_pass(out_dir: Path, ops: list[Op], reference: dict) -> None:
    """Fill in each op's error from its output file (row count, header,
    finiteness, reference rows, paper anchors, worker invariance)."""
    for op in ops:
        if not op.ok:
            continue
        if op.label == W2_LABEL:
            for suffix in ("", ".meta"):
                serial = (out_dir / f"mos.csv{suffix}").read_bytes()
                if (out_dir / f"mos_w2.csv{suffix}").read_bytes() != serial:
                    op.error = f"--workers 2 output{suffix} differs from --workers 1"
            continue
        name = op.label.split(".", 1)[1]
        try:
            op.error = _check_table(out_dir / f"{name}.csv", reference[op.label])
        except (OSError, ValueError) as exc:
            op.error = f"unreadable output: {exc}"


def _check_table(path: Path, ref: dict) -> str:
    if not Path(str(path) + ".meta").is_file():
        return "missing .meta sidecar"
    names, table = read_csv(path)
    if names != ref["header"]:
        return f"header {names} != {ref['header']}"
    if len(table) != ref["rows"]:
        return f"{len(table)} rows, expected {ref['rows']}"
    if not np.isfinite(table).all():
        return "non-finite value in output"
    expected = np.array(ref["sample"], dtype=float)
    got = table[ref["sample_rows"]]
    # error relative to each column's largest sampled magnitude
    scale = np.max(np.abs(expected), axis=0)
    worst = np.max(np.abs(got - expected) / np.where(scale > 0.0, scale, 1.0))
    if not worst <= REFERENCE_REL:
        return f"reference rows differ by {worst:.3e} (limit {REFERENCE_REL})"
    col = {n: table[:, i] for i, n in enumerate(names)}
    for row, column, value in ref["anchors"]:
        if abs(col[column][row] - value) > ANCHOR_TOL:
            return f"anchor {column}[{row}] = {col[column][row]!r}, expected {value}"
    return ""


#: paper anchors: (row, column, value) per output, checked at ANCHOR_TOL
ANCHORS = {
    "scan.mos": [(10000, "phi_over_phi0", 0.0), (10000, "g_omega0_over_g00", 1.0),
                 (12500, "phi_over_phi0", 1.0), (12500, "g_gamma0_over_g00", 0.5)],
    "figure.fig2": [(400, "phi_over_phi0", 0.0), (400, "g_omega0_over_g00", 1.0),
                    (500, "phi_over_phi0", 1.0), (500, "g_gamma0_over_g00", 0.5)],
    "figure.fig3": [(500, "phi_over_phi0", 1.0), (500, "gamma_over_gamma0", 0.5)],
    "figure.fig4": [(400, "xi", 0.0), (400, "product_normalized_loss0", 1.0),
                    (400, "product_normalized_loss50", 1.5625),
                    (400, "product_normalized_loss100", 2.25)],
}


def build_reference(out_dir: Path) -> dict:
    """Reference entry per sweep output, from one pass of the current code."""
    ops = run_sweep_pass(out_dir, with_w2=False)
    reference = {}
    for op in ops:
        if not op.ok:
            raise RuntimeError(f"{op.label}: {op.error}")
        name = op.label.split(".", 1)[1]
        names, table = read_csv(out_dir / f"{name}.csv")
        rows = SCAN_SAMPLE_ROWS if op.label.startswith("scan.") else FIGURE_SAMPLE_ROWS
        reference[op.label] = {
            "header": names,
            "rows": len(table),
            "sample_rows": list(rows),
            "sample": table[list(rows)].tolist(),
            "anchors": ANCHORS.get(op.label, []),
        }
    return reference


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# ---------------------------------------------------------------------------
# validate

FULL_CHECKS = 13
FAST_CHECKS = 9


def run_validate_pass(seed: int, tracer=None) -> list[tuple[Op, object]]:
    out = []
    for suite in ("full", "fast"):
        report, seconds = _timed(tracer, f"validate.{suite}",
                                 lambda s: validation.run_validation(suite=s, seed=seed),
                                 suite)
        out.append((Op(f"validate.{suite}", seconds), report))
    return out


def check_validate_pass(results) -> list[Op]:
    """One op per check: a failed or missing check is a failed operation."""
    checks = []
    for op, report in results:
        expected = FULL_CHECKS if op.label.endswith("full") else FAST_CHECKS
        names = [c.name for c in report.checks]
        for c in report.checks:
            checks.append(Op(f"check.{c.name}", 0.0, "" if c.passed else c.line()))
        for _ in range(expected - len(set(names))):
            checks.append(Op("check.missing", 0.0, f"{op.label}: missing check"))
    return checks


# ---------------------------------------------------------------------------
# design

DESIGNS_PER_PASS = 512
INFEASIBLE_SHARE = 0.1
N_FREQUENCIES = 16
#: mechanical / MSI parameters shared by every design (the compare defaults)
MECH = {"x_zpf": 1e-15, "gamma_m": 0.1, "a0": 1.0}
OMEGA_M = 1e6
MSI_R_MS = 0.9
MSI_TB_SQ = 0.48


@dataclasses.dataclass(frozen=True)
class Design:
    t: float
    t_m: float
    l: float
    wavelength: float

    @property
    def feasible(self) -> bool:
        return self.t < self.t_m


def make_designs(seed: int, n: int) -> list[Design]:
    """Seeded single-design queries; about one in ten has t > t_m."""
    rng = np.random.default_rng(seed)
    designs = []
    for _ in range(n):
        t_m, u_t, u_l, u_wl, u_bad = rng.random(5)
        t_m = 0.03 + 0.12 * t_m
        if u_bad < INFEASIBLE_SHARE:
            t = t_m * (1.05 + 0.95 * u_t)
        else:
            t = 1.05 * t_m ** 2 + (0.2 * t_m - 1.05 * t_m ** 2) * u_t
        designs.append(Design(t=float(t), t_m=float(t_m), l=float(10.0 ** (-5 + 2 * u_l)),
                              wavelength=float((0.8 + 0.8 * u_wl) * 1e-6)))
    return designs


def evaluate_design(d: Design) -> dict:
    """Every query of one design through the public API."""
    rec: dict = {"design": d}
    cfg = mos.MosConfig(l=d.l, wavelength=d.wavelength, t=d.t, t_m=d.t_m, x=0.0)
    at_phi0 = cfg.at_phi(cfg.phi0)
    try:
        rec["locus"] = mos.zero_dispersive_locus(d.t, d.t_m)
    except NoZeroDispersivePoint as exc:
        rec["locus"] = exc
    rec["cfg"] = cfg
    op = rec["op"] = mos.operating_point(at_phi0)
    rec["corrections"] = mos.exact_corrections(at_phi0)
    rec["setpoint"] = mos.two_port_setpoint(cfg)

    msi_cfg = msi.MsiConfig.balanced(r_ms=MSI_R_MS, l=d.l, k=cfg.k, Tb_sq=MSI_TB_SQ)
    msi_zd = rec["msi_zd"] = msi.msi_zero_dispersive(msi_cfg)
    rec["msi_couplings"] = msi.msi_couplings(
        dataclasses.replace(msi_cfg, x=msi_zd.x_star))

    mate_cfg = rec["mate_cfg"] = mate.MateConfig(
        l=d.l, x=d.l * d.t_m ** 2 / 4000.0, t=d.t, t_m=d.t_m, wavelength=d.wavelength)
    rec["mate_zd"] = mate.mate_zero_dispersive(mate_cfg)
    rec["mate_decay"] = mate.mate_exact_decay(mate_cfg, mate_cfg.k)
    fsr = math.pi / d.l
    roots = rec["mate_roots"] = mate.mate_resonances(
        mate_cfg, (mate_cfg.k - fsr, mate_cfg.k + fsr))
    slopes = []
    for root in roots:
        try:
            slopes.append(mate.mate_dispersive_constant(mate_cfg, root))
        except BranchAmbiguity as exc:
            slopes.append(exc)
    rec["mate_slopes"] = slopes

    rec["compare"] = datasets.compare_systems(
        {"t": d.t, "t_m": d.t_m, "l": d.l, "wavelength": d.wavelength})

    rates = noise.PortRates(op.gamma, op.gamma)
    hom = rec["homodyne"] = noise.homodyne_spectra(
        rates, noise.DriveConfig(a0=1.0), op.g_omega0, op.g_gamma0)
    rec["spectra"] = [
        noise.general_spectra(rates, noise.DriveConfig(omega=float(w), a0=1.0),
                              op.g_omega0, op.g_gamma0, hom.theta_opt)
        for w in op.gamma * np.logspace(-6.0, 1.0, N_FREQUENCIES)
    ]
    common = {"l": d.l, "wavelength": d.wavelength, **MECH}
    rec["cooperativities"] = (
        noise.cooperativity("mos", t=d.t, t_m=d.t_m, **common),
        noise.cooperativity("msi", r_ms=MSI_R_MS, gamma_ms=msi_zd.gamma_ms,
                            omega_m=OMEGA_M, **common),
        noise.cooperativity("mate", t=d.t, t_m=d.t_m, omega_m=OMEGA_M, **common),
    )
    return rec


def _evaluate_guarded(d: Design):
    # an operation boundary: any undocumented exception is one failed design
    try:
        return evaluate_design(d)
    except Exception as exc:  # noqa: BLE001
        return exc


def run_design_pass(designs: list[Design], tracer=None) -> list[tuple[Op, object]]:
    out = []
    for i, d in enumerate(designs):
        rec, seconds = _timed(tracer, "design", _evaluate_guarded, d)
        out.append((Op(f"design.{i}", seconds), rec))
    return out


def check_design(rec) -> str:
    """Gate of one design; returns the first violation or ''."""
    if isinstance(rec, Exception):
        return f"unexpected {type(rec).__name__}: {rec}"
    d: Design = rec["design"]
    cfg, op, sp = rec["cfg"], rec["op"], rec["setpoint"]
    if d.feasible == isinstance(rec["locus"], NoZeroDispersivePoint):
        return f"zero_dispersive_locus outcome wrong for t={d.t}, t_m={d.t_m}"
    identities = (
        abs(op.g_omega0 / op.g_00),
        abs(op.g_gamma0 / op.g_00 - 0.5),
        abs(op.gamma / cfg.gamma0 - 0.5),
        abs(sp.T_sym - 2.0 * d.t ** 2 / d.t_m ** 2),
        abs(sp.finesse * sp.T_sym / math.pi - 1.0),
        abs(cfg.k * sp.delta_x - cfg.phi0),
    )
    if not max(identities) <= ANCHOR_TOL:
        return f"closed-form identity at Phi0 off by {max(identities):.3e}"
    hom = rec["homodyne"]
    s_xx, s_ff = rec["spectra"][0]
    rel = validation.PROFILES["default"].noise_general_rel
    defect = max(abs(s_xx / hom.s_xx_imp - 1.0), abs(s_ff / hom.s_ff - 1.0))
    if not defect <= rel:
        return f"general_spectra vs homodyne_spectra off by {defect:.3e}"
    residual = max(abs(mate.resonance_residual(rec["mate_cfg"], r))
                   for r in rec["mate_roots"])
    if not residual < 1e-12:
        return f"MATE resonance residual {residual:.3e}"
    rows = {row["system"]: row for row in rec["compare"].rows}
    mos_error = rows["mos"]["error"]
    if mos_error != ("" if d.feasible else "NoZeroDispersivePoint"):
        return f"compare mos row error {mos_error!r}"
    if d.feasible and not all(math.isfinite(r["coop_ratio_mos"]) for r in rows.values()):
        return "compare ratio columns not finite"
    values = [x for pair in rec["spectra"] for x in pair] + list(rec["cooperativities"])
    if not all(math.isfinite(v) and v > 0.0 for v in values):
        return "non-finite or non-positive spectrum or cooperativity"
    return ""


def typical(values) -> float:
    """Mean of per-pass times, i.e. the run's total time over its passes.

    Interference from other tenants of the host comes in phases of seconds
    that make pass times bimodal.  The median then jumps between the modes
    from run to run, while the mean integrates over the whole measured
    period, as a throughput does (see README.md, Steadiness)."""
    return float(np.mean(np.asarray(values, dtype=float)))


class Sweep:
    """Five 20 001-point CLI scans, fig2/fig3/fig4, then the MOS scan at
    --workers 2.  Deterministic: the seed does not enter."""

    name = "sweep"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.reference = load_reference()

    def run(self, tracer=None) -> list[Op]:
        # pool children cannot report spans, so traced passes skip that scan
        return run_sweep_pass(self.out_dir, tracer, with_w2=tracer is None)

    def gate(self, raw: list[Op]) -> tuple[list[Op], list[Op]]:
        check_sweep_pass(self.out_dir, raw, self.reference)
        return raw, raw

    def metrics(self, passes: Passes) -> dict[str, tuple[float, str]]:
        scans = passes.total([f"scan.{target}" for target, *_ in SCANS])
        figures = passes.total([f"figure.{fig}" for fig in FIGURES])
        rate = len(SCANS) * SCAN_POINTS / typical(scans)
        return {
            "items_per_s": (rate, "1/s"),
            "scan_points_per_s": (rate, "1/s"),
            "scan_w2_points_per_s": (SCAN_POINTS / typical(passes.column(W2_LABEL)), "1/s"),
            "figure_s": (typical(figures), "s"),
        }


class Validate:
    """run_validation full then fast, with the rng seeded from the seed."""

    name = "validate"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed

    def run(self, tracer=None):
        return run_validate_pass(self.seed, tracer)

    def gate(self, raw) -> tuple[list[Op], list[Op]]:
        return [op for op, _ in raw], check_validate_pass(raw)

    def metrics(self, passes: Passes) -> dict[str, tuple[float, str]]:
        full = typical(passes.column("validate.full"))
        return {
            "items_per_s": (FULL_CHECKS / full, "1/s"),
            "validate_full_s": (full, "s"),
            "validate_fast_s": (typical(passes.column("validate.fast")), "s"),
        }


class DesignQueries:
    """A seeded batch of independent single-design queries, one at a time."""

    name = "design"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.designs = make_designs(seed, DESIGNS_PER_PASS)

    def run(self, tracer=None):
        return run_design_pass(self.designs, tracer)

    def gate(self, raw) -> tuple[list[Op], list[Op]]:
        for op, rec in raw:
            op.error = check_design(rec)
        ops = [op for op, _ in raw]
        return ops, ops

    def metrics(self, passes: Passes) -> dict[str, tuple[float, str]]:
        latency_ms = passes.seconds.ravel() * 1e3
        rate = len(self.designs) / typical(passes.total())
        return {
            "items_per_s": (rate, "1/s"),
            "designs_per_s": (rate, "1/s"),
            "design_p50_ms": (float(np.percentile(latency_ms, 50)), "ms"),
            "design_p99_ms": (float(np.percentile(latency_ms, 99)), "ms"),
            "design_samples": (float(latency_ms.size), "count"),
        }


WORKLOADS = {w.name: w for w in (Sweep, Validate, DesignQueries)}
