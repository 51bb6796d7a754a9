"""Scan layer and CLI tests: output schema, byte determinism, config
parsing, error exit codes, and the comparison table."""

import contextlib
import io
import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optomech import ConfigError, ScanSpec, compare_systems, reproduce_figure, run_scan
from optomech import datasets
from optomech.cli import main, read_config
from optomech.datasets import (
    COMPARE_COLUMNS,
    COMPARE_DEFAULTS,
    TARGETS,
    FigureDataset,
    format_value,
)
from optomech.errors import DegenerateDenominator, InvalidParameter

from compare_reference import compare_rows
from test_public_api import _load


#: (swept parameter, start, stop) of a sweep that succeeds at the defaults
SWEEPS = {
    "synthetic": ("psi", -3.0, 3.0),
    "mos": ("phi_over_phi0", -4.0, 4.0),
    "msi": ("x", 0.0, 1e-6),
    "mate": ("x", 1e-7, 1e-6),
    "noise": ("xi", -20.0, 20.0),
}


def row_of(column: np.ndarray, value: float) -> int:
    """The first row of a column that holds exactly value."""
    rows = np.flatnonzero(column == value)
    assert rows.size, f"{value!r} is not on the grid"
    return rows[0]


def assert_float64_columns(ds: FigureDataset) -> None:
    for name, column in ds.columns.items():
        assert type(column) is np.ndarray and column.dtype == np.float64, name
        assert column.shape == (ds.n_rows,), name


class TestScan:
    def test_mos_sweep_columns(self):
        spec = ScanSpec(target="mos", parameter="phi_over_phi0",
                        start=-4.0, stop=4.0, points=801)
        ds = run_scan(spec)
        assert list(ds.columns)[0] == "phi_over_phi0"
        assert ds.n_rows == 801
        u = ds.columns["phi_over_phi0"]
        mid = row_of(u, 0.0)
        assert ds.columns["g_omega0_over_g00"][mid] == pytest.approx(1.0, abs=1e-12)
        assert ds.columns["g_gamma0_over_g00"][mid] == pytest.approx(0.0, abs=1e-12)
        at_one = row_of(u, 1.0)
        assert ds.columns["g_gamma0_over_g00"][at_one] == pytest.approx(0.5, abs=1e-12)
        assert ds.metadata["normalizer.phi0"] == pytest.approx(0.0025)

    def test_deterministic_bytes(self, tmp_path):
        spec = ScanSpec(target="synthetic", parameter="psi", start=0.1, stop=6.0,
                        points=101)
        run_scan(spec).write(tmp_path / "a.csv")
        first = (tmp_path / "a.csv").read_bytes()
        first_meta = (tmp_path / "a.csv.meta").read_bytes()
        run_scan(spec).write(tmp_path / "a.csv")
        assert (tmp_path / "a.csv").read_bytes() == first
        assert (tmp_path / "a.csv.meta").read_bytes() == first_meta

    @pytest.mark.parametrize("target, parameter, start, stop", [
        ("synthetic", "psi", -3.0, 3.0),
        ("mos", "phi_over_phi0", -4.0, 4.0),
        ("mos", "x", 1e-9, 3e-7),
        ("msi", "x", 0.0, 1e-6),
        ("mate", "x", 1e-7, 1e-6),
        ("noise", "xi", -20.0, 20.0),
    ])
    def test_columns_match_pointwise_evaluation(self, target, parameter, start, stop):
        # one array evaluation per column against the same closed forms at
        # each point; squares of arrays may round differently from float
        # powers, so a few ulps of the column scale are allowed
        ds = run_scan(ScanSpec(target=target, parameter=parameter,
                               start=start, stop=stop, points=201))
        evaluate = TARGETS[target].columns
        defaults = TARGETS[target].defaults
        rows = [evaluate(defaults, parameter, v) for v in ds.columns[parameter]]
        for name, column in ds.columns.items():
            pointwise = np.array([float(row[name]) for row in rows])
            scale = np.max(np.abs(pointwise))
            np.testing.assert_allclose(column, pointwise, rtol=0.0,
                                       atol=4 * np.finfo(float).eps * scale)

    def test_spec_validation(self):
        good = dict(target="mos", parameter="phi_over_phi0",
                    start=-1.0, stop=1.0, points=3)
        with pytest.raises(ConfigError):
            run_scan(ScanSpec(**{**good, "points": 1}))
        with pytest.raises(ConfigError):
            run_scan(ScanSpec(**{**good, "target": "mim"}))
        with pytest.raises(ConfigError):
            run_scan(ScanSpec(**{**good, "parameter": "q"}))
        with pytest.raises(ConfigError):
            run_scan(ScanSpec(**{**good, "stop": math.inf}))
        with pytest.raises(ConfigError):
            run_scan(ScanSpec(**{**good, "stop": -2.0}))
        with pytest.raises(ConfigError):
            run_scan(ScanSpec(**good, fixed={"phi_over_phi0": 1.0}))
        with pytest.raises(ConfigError):
            run_scan(ScanSpec(**good, fixed={"bogus": 1.0}))

    def test_module_error_annotated_with_sweep_point(self):
        # perfect reflectors hit the degenerate tandem denominator at psi=pi
        spec = ScanSpec(target="synthetic", parameter="psi",
                        start=0.0, stop=2 * math.pi, points=3,
                        fixed={"t": 0.0, "t_m": 0.0})
        with pytest.raises(DegenerateDenominator, match="sweep point"):
            run_scan(spec)

    def test_error_names_first_failing_point(self):
        # points 3 and 4 lie beyond the cavity length l = 1e-4
        spec = ScanSpec(target="mate", parameter="x", start=4e-5, stop=1.6e-4, points=4)
        first_bad = 4e-5 + 2 * 1.2e-4 / 3
        with pytest.raises(InvalidParameter) as info:
            run_scan(spec)
        assert str(info.value).endswith(f"[at sweep point x = {first_bad!r}]")

    def test_csv_format(self, tmp_path):
        path = tmp_path / "out.csv"
        run_scan(ScanSpec(target="synthetic", parameter="psi", start=0.5,
                          stop=1.5, points=3)).write(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "psi,T,mu,dT_dpsi,dmu_dpsi"
        assert len(lines) == 4
        for line in lines[1:]:
            for fieldvalue in line.split(","):
                assert float(fieldvalue) is not None
        # 17 significant digits on a non-terminating value
        assert format_value(1 / 3) == "0.33333333333333331"
        meta = (tmp_path / "out.csv.meta").read_text().splitlines()
        assert all(" = " in line for line in meta)
        keys = [line.split(" = ")[0] for line in meta]
        assert keys == sorted(keys)

    def test_dataset_invariants(self):
        with pytest.raises(ConfigError):
            FigureDataset(name="bad", columns={"a": [1.0, 2.0], "b": [1.0]})
        with pytest.raises(ConfigError):
            FigureDataset(name="bad", columns={"a": [2.0, 1.0]})
        with pytest.raises(ConfigError, match="dataset 'x' has no columns"):
            FigureDataset(name="x", columns={})

    @pytest.mark.parametrize("abscissa", [[math.nan, 1.0, 2.0], [1.0, math.nan, 0.5]])
    def test_nan_abscissa_is_not_increasing(self, abscissa):
        # every comparison with a NaN is False, so b <= a would let it pass
        with pytest.raises(ConfigError, match="strictly increasing"):
            FigureDataset(name="x", columns={"a": abscissa})

    def test_msi_mate_noise_targets(self):
        msi = run_scan(ScanSpec(target="msi", parameter="x",
                                start=1e-9, stop=2e-7, points=5))
        assert list(msi.columns)[:3] == ["x", "tau", "T_ms"]
        mate = run_scan(ScanSpec(target="mate", parameter="x",
                                 start=1e-8, stop=1e-6, points=5))
        assert "gamma_mate" in mate.columns and "dgamma_dx" in mate.columns
        noise = run_scan(ScanSpec(target="noise", parameter="xi",
                                  start=-3.0, stop=3.0, points=7,
                                  fixed={"gamma3_over_gamma": 1.0}))
        mid = row_of(noise.columns["xi"], 0.0)
        assert noise.columns["product_normalized"][mid] == pytest.approx(2.25)

    @pytest.mark.parametrize("target, parameter, start, stop",
                             [(t, *SWEEPS[t]) for t in sorted(SWEEPS)]
                             + [("mos", "x", 1e-9, 3e-7)])
    def test_scan_columns_are_float64_arrays(self, target, parameter, start, stop):
        assert_float64_columns(run_scan(ScanSpec(target=target, parameter=parameter,
                                                 start=start, stop=stop, points=9)))

    def test_mos_gap_sweep(self):
        base = ScanSpec(target="mos", parameter="x",
                        start=1e-9, stop=3e-7, points=9)
        ds = run_scan(base)
        assert list(ds.columns)[0] == "x"
        assert "phi_over_phi0" in ds.columns


class TestFigures:
    def test_fig2_anchors(self):
        ds = reproduce_figure("fig2")
        u = ds.columns["phi_over_phi0"]
        for target, expect_w, expect_g in ((0.0, 1.0, 0.0), (1.0, 0.0, 0.5),
                                           (-1.0, 0.0, -0.5)):
            idx = row_of(u, target)
            assert ds.columns["g_omega0_over_g00"][idx] == pytest.approx(
                expect_w, abs=1e-12)
            assert ds.columns["g_gamma0_over_g00"][idx] == pytest.approx(
                expect_g, abs=1e-12)
        assert ds.metadata["figure_id"] == "fig2"
        assert "normalizer.g_00" in ds.metadata

    def test_fig3_lorentzian(self):
        ds = reproduce_figure("fig3")
        u = np.array(ds.columns["phi_over_phi0"])
        got = np.array(ds.columns["gamma_over_gamma0"])
        np.testing.assert_allclose(got, 1 / (1 + u ** 2), atol=1e-12)

    def test_fig4_curves(self):
        ds = reproduce_figure("fig4")
        xi = np.array(ds.columns["xi"])
        for frac in (0.0, 0.5, 1.0):
            big_a = 1 + frac / 2
            col = np.array(ds.columns[f"product_normalized_loss{int(100 * frac)}"])
            np.testing.assert_allclose(
                col, (big_a ** 2 + 2 * big_a * xi ** 2) / (1 + xi ** 2), atol=1e-12
            )

    @pytest.mark.parametrize("figure_id", datasets.FIGURE_IDS)
    def test_figure_columns_are_float64_arrays(self, figure_id):
        assert_float64_columns(reproduce_figure(figure_id))

    def test_unknown_figure(self):
        with pytest.raises(ConfigError):
            reproduce_figure("fig9")


#: 432 geometries at the ends of the float range
EXTREME_GEOMETRY = [
    dict(zip(("t", "t_m", "l", "wavelength"), values)) for values in itertools.product(
        (0.0, 5e-324, 1e-230, 1e-120, 0.014, 1.0),    # t
        (5e-324, 1e-200, 1e-110, 1e-30, 0.1, 1.0),    # t_m
        (5e-324, 1e-4, 1e300),                        # l
        (5e-324, 1e-300, 0.85e-6, 1e308))             # wavelength
]

#: compare parameters whose rows fail, by class: NoZeroDispersivePoint
#: (t = 1, Tb_sq = 1, r_ms = 1, Tb_sq = 0, t > t_m where t^2 and t_m^2
#: underflow), InvalidParameter (t, t_m, mate_x, r_ms or Tb_sq out of range,
#: t_m = 1e200 in the MATE row too, where the default mate_x would square it,
#: a zero result, MosConfig's phi0 = t_m^2 / 4 underflowing to 0, a
#: cooperativity that overflows after g_gamma0 and gamma are stored) and
#: DegenerateDenominator (rho = 0 at x*)
ROW_CASES = [
    {}, {"t": 1.0}, {"msi_Tb_sq": 1.0}, {"msi_r_ms": 1.0}, {"msi_Tb_sq": 0.0},
    {"t": 1.5}, {"t_m": 0.0}, {"t": 0.0}, {"mate_x": 1.0}, {"msi_r_ms": 0.0},
    {"msi_r_ms": 1.5}, {"msi_Tb_sq": -0.5}, {"a0": 1e200}, {"t": 0.1, "t_m": 0.014},
    {"msi_r_ms": 0.6, "msi_Tb_sq": 0.9}, {"t_m": 1e200}, {"t": 1e-10, "t_m": 1e-9},
    {"t": 0.0, "t_m": 2.5e-162}, {"t": 1e-165, "t_m": 1e-170}, {"t": 1e-170, "t_m": 1e-165},
]


def design_params() -> list[dict]:
    """The compare parameters of the 512 seed-7 queries of perfbench's design
    workload."""
    return [{"t": d.t, "t_m": d.t_m, "l": d.l, "wavelength": d.wavelength}
            for d in _load("workloads").make_designs(7, 512)]


class TestCompare:
    def test_benchmark_ratios(self):
        table = compare_systems({})
        rows = {row["system"]: row for row in table.rows}
        assert rows["mos"]["error"] == ""
        assert rows["mate"]["g_ratio_mos"] == pytest.approx(2000.0, rel=1e-10)
        assert rows["mos"]["cooperativity"] == pytest.approx(1.28427684, rel=1e-8)
        # MOS carries no sideband factor; MSI and MATE do
        omega_m = 1e6
        gamma_mate = rows["mate"]["gamma"]
        assert rows["mate"]["cooperativity"] == pytest.approx(
            rows["mos"]["cooperativity"] / 4 * 0.1 ** 4
            * (2 * omega_m / gamma_mate) ** 2, rel=1e-10, abs=0.0,
        )

    def test_infeasible_system_annotated(self):
        table = compare_systems({"t": 0.1, "t_m": 0.014})
        rows = {row["system"]: row for row in table.rows}
        assert rows["mos"]["error"] == "NoZeroDispersivePoint"
        assert math.isnan(rows["mate"]["g_ratio_mos"])

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError):
            compare_systems({"bogus": 1.0})

    def test_extreme_finite_geometry_fails_rows_only_by_package_errors(self):
        # a closed form driven out of the float range names its InvalidParameter,
        # never a bare arithmetic error, in a row's error column
        arithmetic = {"ZeroDivisionError", "OverflowError", "FloatingPointError"}
        bare = [(params, row["system"], row["error"])
                for params in EXTREME_GEOMETRY
                for row in compare_systems(params).rows if row["error"] in arithmetic]
        assert bare == []

    @pytest.mark.parametrize("cases", ["row_cases", "extreme_geometry", "designs"])
    def test_rows_equal_the_config_built_reference(self, cases):
        # repr, so that nan cells compare equal; the error column holds the class
        table = {"row_cases": ROW_CASES, "extreme_geometry": EXTREME_GEOMETRY,
                 "designs": design_params()}[cases]
        differ = [params for params in table
                  if repr(compare_systems(params).rows) != repr(compare_rows(params))]
        assert differ == []

    @pytest.mark.parametrize("key", [key for key in COMPARE_DEFAULTS if key != "mate_x"])
    def test_a_none_elsewhere_fails_before_any_row(self, monkeypatch, key):
        # its screen raises, before compare_systems fills a row
        def unreached(*args):
            raise AssertionError(f"a row was filled with {key} = None")
        monkeypatch.setattr(datasets, "_SYSTEMS", dict.fromkeys(datasets._SYSTEMS, unreached))
        with pytest.raises(TypeError, match=f"^compare.{key} must be a real number, got None$"):
            compare_systems({key: None})

    def test_small_elements_have_a_mos_row(self):
        # r and r_m round to 1 here; T* does not depend on them
        mos_row = compare_systems({"t": 1e-10, "t_m": 1e-9}).rows[0]
        assert mos_row["error"] == ""
        assert mos_row["coop_ratio_mos"] == 1.0

    def test_row_cases_reach_each_row_error_class(self):
        errors = {row["error"] for params in ROW_CASES for row in compare_rows(params)}
        assert {"NoZeroDispersivePoint", "InvalidParameter",
                "DegenerateDenominator"} <= errors

    def test_table_write(self, tmp_path):
        path = tmp_path / "cmp.csv"
        compare_systems({}).write(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("system,g_gamma0,gamma,cooperativity")
        assert len(lines) == 4
        assert (tmp_path / "cmp.csv.meta").exists()


def data_lines(path) -> list[str]:
    return Path(path).read_text().splitlines()[1:]


def format_rows(rows) -> list[str]:
    return [",".join(map(format_value, row)) for row in rows]


#: (swept parameter, start, stop, fixed) of a 7-point sweep whose grid holds
#: the exact values 0.0 and 1.0; MATE needs 0 < x < l, so its grid holds 1.0
#: only
SMALL_SWEEPS = {
    "synthetic": ("psi", -1.0, 2.0, {}),
    "mos": ("phi_over_phi0", -1.0, 2.0, {}),
    "msi": ("x", 0.0, 3.0, {}),
    "mate": ("x", 0.5, 2.0, {"l": 3.0}),
    "noise": ("xi", -1.0, 2.0, {}),
}


class TestCsvRows:
    """Every data line is the format_value cells of its row, comma-joined."""

    @pytest.mark.parametrize("points", [7, 2001])  # 2001 rows cross block seams
    @pytest.mark.parametrize("target", sorted(SMALL_SWEEPS))
    def test_scan_rows(self, tmp_path, target, points):
        parameter, start, stop, fixed = SMALL_SWEEPS[target]
        path = tmp_path / f"{target}.csv"
        ds = run_scan(ScanSpec(target=target, parameter=parameter, start=start,
                               stop=stop, points=points, fixed=fixed))
        ds.write(path)
        if points == 7:
            grid = ds.columns[parameter]
            assert 1.0 in grid and (target == "mate" or 0.0 in grid)
        assert data_lines(path) == format_rows(zip(*ds.columns.values()))

    def test_rows_across_block_seams(self, tmp_path):
        # 4 columns make blocks of _BLOCK_CELLS / 4 rows: 3 whole ones and a
        # partial one; random bit patterns, with the special values put on
        # each side of every seam and at the ends
        block = datasets._BLOCK_CELLS // 4
        n = 3 * block + 123
        special = [0.0, -0.0, 5e-324, -2.5e-310, 1000000000000000.25, -1000000000000000.25,
                   math.nan, math.inf, -math.inf]
        rng = np.random.default_rng(33)
        columns = {"row": np.arange(n, dtype=float)}
        for name in ("a", "b", "c"):
            column = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)
            for seam in (0, block, 2 * block, 3 * block, n):
                rows = np.arange(seam - len(special), seam + len(special)) % n
                column[rows] = rng.permutation(special + special)
            columns[name] = column
        ds = FigureDataset(name="seams", columns=columns)
        path = tmp_path / "seams.csv"
        ds.write(path)
        assert data_lines(path) == format_rows(zip(*ds.columns.values()))

    @pytest.mark.parametrize("figure_id", ["fig2", "fig3", "fig4"])
    def test_figure_rows(self, tmp_path, figure_id):
        path = tmp_path / f"{figure_id}.csv"
        ds = reproduce_figure(figure_id)
        ds.write(path)
        assert data_lines(path) == format_rows(zip(*ds.columns.values()))

    @pytest.mark.parametrize("params", [{}, {"t": 0.0}])
    def test_compare_rows(self, tmp_path, params):
        path = tmp_path / "compare.csv"
        table = compare_systems(params)
        table.write(path)
        rows = [[row.get(c, "") for c in COMPARE_COLUMNS] for row in table.rows]
        assert data_lines(path) == format_rows(rows)
        if params:  # the failed MOS row: empty cells, nan ratios, an error name
            assert data_lines(path)[0] == "mos,,,,nan,nan,nan,InvalidParameter"

    def test_int_bool_and_float32_cells_written_as_their_float64(self, tmp_path):
        # every column is kept as a float64 array, so each cell is the %.17g
        # text of its float64: True is 1 and np.float32(0.1) is not 0.1
        columns = {
            "i": [1, 2],
            "flag": [True, False],
            "f32": [np.float32(0.1), np.float32(2.5)],
            "f64": [np.float64(1 / 3), 0.5],
        }
        path = tmp_path / "mixed.csv"
        ds = FigureDataset(name="mixed", columns=columns)
        assert_float64_columns(ds)
        ds.write(path)
        assert data_lines(path) == [
            "1,1,0.10000000149011612,0.33333333333333331",
            "2,0,2.5,0.5",
        ]

    @pytest.mark.parametrize("column, got", [
        pytest.param(1.0, "got 0-D float64", id="scalar"),
        pytest.param([1.0, None], "got 1-D object", id="none"),
        pytest.param(["a", "b"], "got 1-D <U1", id="text"),
        pytest.param([1.0, 10 ** 400], "got 1-D object", id="int-past-float"),
        pytest.param(np.array([1.0, 1 + 1j]), "got 1-D complex128", id="complex"),
        pytest.param([[1.0, 2.0], [3.0, 4.0]], "got 2-D float64", id="2-D"),
        pytest.param([[1.0], [1.0, 2.0]], "is ragged", id="ragged"),
    ])
    @pytest.mark.parametrize("abscissa", [True, False])
    def test_rejected_columns(self, column, got, abscissa):
        columns = {"bad": column, "a": [1.0, 2.0]}
        if not abscissa:
            columns = dict(reversed(columns.items()))
        with pytest.raises(ConfigError, match=(r"^column 'bad' of dataset 'ds' "
                                               + ".*" + re.escape(got))):
            FigureDataset(name="ds", columns=columns)

    def test_list_and_array_columns_write_the_same_bytes(self, tmp_path):
        ds = run_scan(ScanSpec(target="mos", parameter="phi_over_phi0",
                               start=-4.0, stop=4.0, points=2001))
        lists = {name: column.tolist() for name, column in ds.columns.items()}
        ds.write(tmp_path / "arrays.csv")
        FigureDataset(name=ds.name, columns=lists, metadata=ds.metadata).write(
            tmp_path / "lists.csv")
        for suffix in ("csv", "csv.meta"):
            assert ((tmp_path / f"lists.{suffix}").read_bytes()
                    == (tmp_path / f"arrays.{suffix}").read_bytes())


def formatted(values) -> list[str]:
    """The text _format_floats gives each value, one string per cell."""
    cells = datasets._format_floats(np.asarray(values, dtype=float)).copy()
    cells[:, 31] = ord("\n")
    return cells[cells != 0].tobytes().decode().split("\n")[:-1]


def edge_values() -> np.ndarray:
    """Powers of 10 and of 2, each with its 4 neighbours either side, over the
    whole float range; integers, dyadic fractions, 1e17 +- 300, zeros, nan and
    the infinities; each value with both signs."""
    centres = np.array([float(f"1e{k}") for k in range(-323, 309)]
                       + [math.ldexp(1.0, k) for k in range(-1074, 1024)])
    near = [centres]
    up, down = centres, centres
    for _ in range(4):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        near += [up, down]
    values = np.concatenate(near + [
        np.arange(-2000.0, 2001.0), np.arange(-4096, 4097) / 1024.0,
        1e17 + np.arange(-300.0, 301.0), [0.0, math.nan, math.inf, 5e-324],
    ])
    return np.concatenate([values, -values])


class TestFormatFloats:
    """_format_floats writes each float64 as format_value does, byte for byte."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(29).integers(0, 2 ** 64, 200_000, dtype=np.uint64)
        values = bits.view(np.float64)
        assert formatted(values) == list(map(format_value, values.tolist()))

    def test_edge_values(self):
        values = edge_values()
        assert formatted(values) == list(map(format_value, values.tolist()))

    def test_ties_and_non_finite_cells_are_format_value_text(self, monkeypatch):
        # 1000000000000000.25 lies exactly halfway between two 17-digit texts
        values = [1000000000000000.25, 9551997337.89453125, math.nan, -math.inf, 1.5]
        routed = []
        monkeypatch.setattr(datasets, "format_value",
                            lambda v: routed.append(v) or format_value(v))
        assert formatted(values) == ["1000000000000000.2", "9551997337.8945312",
                                     "nan", "-inf", "1.5"]
        assert routed[:2] == values[:2] and routed[3:] == [-math.inf]

    def test_a_margin_over_every_cell_gives_the_same_text(self, monkeypatch):
        values = np.concatenate([edge_values()[::7],
                                 np.random.default_rng(3).standard_normal(5000)])
        want = formatted(values)
        routed = []
        monkeypatch.setattr(datasets, "_TIE_MARGIN", 1.0)
        monkeypatch.setattr(datasets, "format_value",
                            lambda v: routed.append(v) or format_value(v))
        assert formatted(values) == want
        assert len(routed) == len(values)

    def test_tables_are_built_on_demand(self, tmp_path):
        # importing the package builds none, a call only its values' binades
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import numpy as np, optomech\n"
                "from optomech import datasets\n"
                "assert datasets._binades is None\n"
                "datasets._format_floats(np.array([1.0, 1.5, -1.25, 3e10, 0.0]))\n"
                "print(int((datasets._binades.threshold != 0).sum()))\n")
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, text=True,
                              env={**os.environ, "PYTHONPATH": path}, capture_output=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "2\n"


class TestBinadeTables:
    """_format_floats builds a binade's table only the first time it meets it."""

    def test_tables_met_before_are_not_built_again(self, monkeypatch):
        monkeypatch.setattr(datasets, "_binades", None)
        builds = []
        build = datasets._Binades.build
        monkeypatch.setattr(datasets._Binades, "build",
                            lambda self, binades: builds.append(binades) or build(self, binades))
        values = np.random.default_rng(7).standard_normal(20_000) * 1e5
        datasets._format_floats(values)
        assert len(builds) == 1
        again = np.concatenate([-values[::-1], [0.0, -0.0, math.nan, math.inf]])
        assert formatted(again) == list(map(format_value, again.tolist()))
        assert len(builds) == 1


def fig3_bytes(tmp_path) -> tuple[bytes, bytes]:
    """The CSV and .meta bytes of fig3 written to a fresh path."""
    fresh = tmp_path / "fresh.csv"
    reproduce_figure("fig3").write(fresh)
    return fresh.read_bytes(), Path(f"{fresh}.meta").read_bytes()


class TestRewrite:
    """An existing output is written over in place and cut to its new length."""

    @pytest.mark.parametrize("extra", [1000, -1000, 0])
    def test_a_rewrite_over_junk_gives_the_bytes_of_a_fresh_write(self, tmp_path, extra):
        csv, meta = fig3_bytes(tmp_path)
        out = tmp_path / "out.csv"
        out.write_bytes(b"9" * (len(csv) + extra))
        Path(f"{out}.meta").write_bytes(b"9" * (len(meta) + extra // 10))
        reproduce_figure("fig3").write(out)
        assert out.read_bytes() == csv
        assert Path(f"{out}.meta").read_bytes() == meta

    def test_the_file_is_not_replaced(self, tmp_path):
        out = tmp_path / "out.csv"
        compare_systems({}).write(out)
        inodes = [os.stat(p).st_ino for p in (out, f"{out}.meta")]
        reproduce_figure("fig3").write(out)
        assert [os.stat(p).st_ino for p in (out, f"{out}.meta")] == inodes

    def test_an_old_file_keeps_its_length_until_the_write_ends(self, tmp_path):
        # no truncate to zero on open (O_TRUNC): only the cut at the end
        out = tmp_path / "out.csv"
        out.write_bytes(b"9" * 100)
        sizes = []

        def chunks():
            yield b"new\n"
            sizes.append(os.stat(out).st_size)

        datasets._rewrite({out: chunks()})
        assert sizes == [100] and out.read_bytes() == b"new\n"

    def test_a_new_file_gets_the_mode_of_open_wb(self, tmp_path):
        datasets._rewrite({tmp_path / "new": [b"x"]})
        with open(tmp_path / "reference", "wb"):
            pass
        assert os.stat(tmp_path / "new").st_mode == os.stat(tmp_path / "reference").st_mode

    def test_a_symlink_stays_and_its_target_is_rewritten(self, tmp_path):
        csv, _ = fig3_bytes(tmp_path)
        target = tmp_path / "target.csv"
        target.write_bytes(b"9" * (2 * len(csv)))
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        reproduce_figure("fig3").write(link)
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == csv

    def test_a_body_that_raises_leaves_what_was_written_and_no_old_tail(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_bytes(b"9" * 100_000)
        blocks = [b"1,2\n" * 3000, b"3,4\n" * 5]

        def body():
            yield from blocks
            raise RuntimeError("evaluation failed")

        with pytest.raises(RuntimeError, match="evaluation failed"):
            datasets._write_table(out, ["a", "b"], body(), {})
        assert out.read_bytes() == b"a,b\n" + b"".join(blocks)

    def test_a_failed_open_keeps_an_old_file_and_removes_a_new_one(self, tmp_path):
        old, new, directory = tmp_path / "old.csv", tmp_path / "new.csv", tmp_path / "dir"
        old.write_bytes(b"old\n")
        directory.mkdir()
        for first in (old, new):
            with pytest.raises(IsADirectoryError):
                datasets._rewrite({first: [b"x"], directory: [b"y"]})
        assert old.read_bytes() == b"old\n" and not new.exists()

    def test_a_device_is_written_and_not_truncated(self):
        # ftruncate of a character device fails (EINVAL)
        datasets._rewrite({os.devnull: [b"x" * 10]})


class TestCli:
    def test_figure_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        assert main(["figure", "--id", "fig3", "--out", str(out)]) == 0
        assert out.exists() and (tmp_path / "fig3.csv.meta").exists()
        assert "fig3.csv" in capsys.readouterr().out

    def test_scan_via_config(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "# comment line\n"
            "scan.parameter = psi\n"
            "scan.start = 0.5\n"
            "scan.stop = 2.5\n"
            "scan.points = 5\n"
            "synthetic.t = 0.1\n"
            "synthetic.t_m = 0.4\n"
        )
        out = tmp_path / "s.csv"
        assert main(["synthetic", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "psi,T,mu,dT_dpsi,dmu_dpsi"

    def test_set_overrides(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "scan.parameter = psi\nscan.start = 0.5\n"
            "scan.stop = 2.5\nscan.points = 5\n"
        )
        out = tmp_path / "s.csv"
        code = main(["synthetic", "--config", str(cfg), "--out", str(out),
                     "--set", "scan.points=9"])
        assert code == 0
        assert len(out.read_text().splitlines()) == 10

    def test_env_var_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "default.cfg"
        cfg.write_text(
            "scan.parameter = psi\nscan.start = 0.5\n"
            "scan.stop = 2.5\nscan.points = 4\n"
        )
        monkeypatch.setenv("OPTOMECH_CONFIG", str(cfg))
        monkeypatch.chdir(tmp_path)
        assert main(["synthetic"]) == 0
        assert (tmp_path / "synthetic.csv").exists()

    def test_missing_scan_keys(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("scan.parameter = psi\n")
        assert main(["synthetic", "--config", str(cfg)]) == 1
        assert "missing scan keys" in capsys.readouterr().err

    def test_bad_config_lines(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scan.parameter psi\n")
        with pytest.raises(ConfigError):
            read_config(bad)
        with pytest.raises(ConfigError):
            read_config(tmp_path / "missing.cfg")

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "scan.parameter = psi\nscan.start = 0.5\n"
            "scan.stop = 2.5\nscan.points = 4\nscan.bogus = 1\n"
        )
        assert main(["synthetic", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert "unknown scan key" in capsys.readouterr().err

    def test_one_point_sweep_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "scan.parameter = psi\nscan.start = 0.5\n"
            "scan.stop = 2.5\nscan.points = 1\n"
        )
        assert main(["synthetic", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert "at least 2 sweep points" in capsys.readouterr().err

    def test_compare_command(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--out", str(out)]) == 0
        assert out.exists()
        assert "mos" in capsys.readouterr().out

    def test_compare_at_its_defaults_is_pinned_byte_for_byte(self, tmp_path):
        out = tmp_path / "compare.csv"
        assert main(["compare", "--out", str(out)]) == 0
        assert out.read_text() == (
            "system,g_gamma0,gamma,cooperativity,"
            "g_ratio_mos,gamma_ratio_mos,coop_ratio_mos,error\n"
            "mos,8.6869578162949456e+19,58759321767.999985,1.2842768403631357,"
            "1,1,1,\n"
            "msi,1.8302370635460539e+18,12622840336.842203,6.6619814050465573e-11,"
            "47.463566274109375,4.6549999999999629,19277700766.175594,\n"
            "mate,43434789081474736,293796608.84000003,1.4878703648671455e-09,"
            "1999.9999999999995,199.99999999999991,863164473.65883994,\n"
        )
        assert (tmp_path / "compare.csv.meta").read_text() == (
            "param.a0 = 1\n"
            "param.gamma_m = 0.10000000000000001\n"
            "param.l = 0.0001\n"
            "param.msi_Tb_sq = 0.47999999999999998\n"
            "param.msi_r_ms = 0.90000000000000002\n"
            "param.omega_m = 1000000\n"
            "param.t = 0.014\n"
            "param.t_m = 0.10000000000000001\n"
            "param.wavelength = 8.5000000000000001e-07\n"
            "param.x_zpf = 1.0000000000000001e-15\n"
            "version = 0.1.0\n"
        )

    def test_a_closed_stdout_exits_1_without_a_traceback(self, tmp_path):
        # the reader goes away before the first line is written
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen([sys.executable, "-m", "optomech.cli", "compare"],
                                cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == 1
        assert err == ""
        assert (tmp_path / "compare.csv").exists()

    @pytest.mark.parametrize("command", [
        ["figure", "--id", "fig3"],
        ["mos", "--set", "scan.parameter=phi_over_phi0", "--set", "scan.start=-4",
         "--set", "scan.stop=4", "--set", "scan.points=5"],
        ["compare"],
    ])
    @pytest.mark.parametrize("case", ["missing directory", "directory", "read-only file",
                                      "full device", "directory at .meta",
                                      "directory at .meta of an old file"])
    def test_an_unwritable_out_is_one_error_line(self, tmp_path, capsys, command, case):
        out, named, reason = tmp_path / "out.csv", None, {
            "missing directory": "No such file or directory",
            "directory": "Is a directory",
            "read-only file": "Permission denied",
            "full device": "No space left on device",
            "directory at .meta": "Is a directory",
            "directory at .meta of an old file": "Is a directory",
        }[case]
        if case == "missing directory":
            out = tmp_path / "missing" / "out.csv"
        elif case == "directory":
            out.mkdir()
        elif case == "read-only file":
            out.write_text("old\n")
            out.chmod(0o444)
            if os.access(out, os.W_OK):
                pytest.skip("this user may write a read-only file")
        elif case == "full device":
            out.symlink_to("/dev/full")  # every write fails with ENOSPC
        else:
            named = tmp_path / "out.csv.meta"
            named.mkdir()
            if case.endswith("old file"):
                out.write_text("old\n")
        before = out.read_bytes() if out.is_file() else None
        assert main(command + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {named or out}: {reason}\n"
        assert "wrote" not in captured.out
        # both files are opened before either is written: the CSV is unchanged
        assert (out.read_bytes() if out.is_file() else None) == before

    @pytest.mark.parametrize("device", [False, True])
    @pytest.mark.parametrize("command, rows", [
        (["figure", "--id", "fig3"], " (801 rows)"),
        (["mos", "--set", "scan.parameter=x", "--set", "scan.start=0",
          "--set", "scan.stop=1e-6", "--set", "scan.points=5"], " (5 rows)"),
        (["compare"], ""),
    ])
    def test_only_a_regular_out_gets_a_sidecar(self, tmp_path, capsys, command, rows, device):
        # a device or FIFO --out (here a link to /dev/null) gets no .meta,
        # and the "wrote" line names what was written
        out = tmp_path / "out.csv"
        if device:
            out.symlink_to(os.devnull)
        assert main(command + ["--out", str(out)]) == 0
        sidecar = "" if device else f" and {out}.meta"
        assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out}{rows}{sidecar}"
        assert sorted(path.name for path in tmp_path.iterdir()) == (
            ["out.csv"] if device else ["out.csv", "out.csv.meta"])

    def test_a_reused_parser_gives_the_files_of_fresh_parsers(self, tmp_path, monkeypatch):
        # the --set list and the defaults of one call must not reach the next
        from optomech import cli
        scan = ["--set", "scan.parameter=phi_over_phi0", "--set", "scan.start=-4",
                "--set", "scan.stop=4"]
        calls = [["mos", *scan, "--set", "scan.points=7", "--set", "mos.t=0.02"],
                 ["mos", *scan, "--set", "scan.points=5", "--workers", "2"]]

        def run(where: Path) -> list[bytes]:
            where.mkdir()
            for i, argv in enumerate(calls):
                assert main(argv + ["--out", str(where / f"{i}.csv")]) == 0
            return [p.read_bytes() for p in sorted(where.iterdir())]

        reused = run(tmp_path / "reused")
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert run(tmp_path / "fresh") == reused
        assert len(reused) == 4 and reused[0] != reused[2]

    def test_compare_accepts_shared_config(self, tmp_path):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(
            "scan.parameter = psi\nscan.start = 0\nscan.stop = 1\n"
            "scan.points = 4\nmos.t = 0.02\ncompare.t = 0.02\n"
        )
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        assert "0.02" in (tmp_path / "cmp.csv.meta").read_text()

    def test_validate_fast(self, capsys):
        assert main(["validate", "--suite", "fast"]) == 0
        output = capsys.readouterr().out
        assert "PASS" in output and "FAIL" not in output
        assert main(["validate", "--suite", "fast", "--tolerance-profile", "strict"]) == 0
        output = capsys.readouterr().out
        assert "profile=strict: 9/9 checks passed" in output and "FAIL" not in output
        # the profile is a validate flag only
        assert main(["mos", "--tolerance-profile", "strict"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_validate_corrupted_tolerance_fails(self, capsys, monkeypatch):
        # harness self-test: an impossible unitarity tolerance must be
        # reported as a failure (exit 2), not thrown
        from optomech import validation
        broken = validation.ToleranceProfile(name="broken", unitarity=1e-20)
        monkeypatch.setitem(validation.PROFILES, "default", broken)
        assert main(["validate", "--suite", "fast"]) == 2
        output = capsys.readouterr().out
        assert "FAIL  unitarity" in output
        assert "1.000e-20" in output

    def test_workers_flag(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "scan.parameter = psi\nscan.start = 0.5\n"
            "scan.stop = 2.5\nscan.points = 8\n"
        )
        one = tmp_path / "w1.csv"
        two = tmp_path / "w2.csv"
        assert main(["synthetic", "--config", str(cfg), "--out", str(one)]) == 0
        assert main(["synthetic", "--config", str(cfg), "--out", str(two),
                     "--workers", "2"]) == 0
        assert one.read_bytes() == two.read_bytes()

    @pytest.mark.parametrize("argv, code, message", [
        (["mos", "--set", "mos.l=-1"], 1, "l must be positive"),
        (["mos", "--set", "mos.t=1.5"], 1, "t must lie in [0, 1]"),
        (["mos", "--set", "mos.wavelength=inf"], 1, "wavelength must be finite"),
        (["mos", "--set", "mos.l=nan"], 1, "l must be finite"),
        (["mos", "--set", "mos.N=0.7"], 1, "N must be an integer"),
        (["mos", "--set", "mos.N=-1"], 1, "N must be non-negative, got -1.0"),
        (["mos", "--set", "mos.t=0"], 1, "gamma_over_gamma0 is not finite"),
        (["msi", "--set", "msi.Tb_sq=2"], 1, "Tb_sq must lie in [0, 1]"),
        (["mate"], 1, "need 0 < x < l, got x=0.0"),
        (["compare", "--set", "compare.mate_x=1"], 0,
         "mate,,,,nan,nan,nan,InvalidParameter"),
        (["compare", "--set", "compare.t_m=0"], 0,
         "mate,,,,nan,nan,nan,InvalidParameter"),
        (["synthetic", "--set", "synthetic.phi_r=nan"], 1, "phi_r must be finite"),
        (["compare", "--set", "compare.t=0"], 0, "mos,,,,nan,nan,nan,InvalidParameter"),
        (["compare", "--set", "compare.wavelength=0"], 1, "wavelength must be positive"),
        (["compare", "--set", "compare.gamma_m=0"], 1, "gamma_m must be positive"),
        (["compare", "--set", "compare.omega_m=0"], 1, "omega_m must be positive"),
        (["compare", "--set", "compare.msi_r_ms=0"], 0,
         "msi,,,,nan,nan,nan,InvalidParameter"),
        (["compare", "--set", "compare.x_zpf=nan"], 1, "x_zpf must be finite"),
        (["compare", "--set", "compare.a0=inf"], 1, "a0 must be finite"),
        (["compare", "--set", "compare.t=nan"], 1, "t must be finite"),
        # the cooperativity overflows after g_gamma0 and gamma are stored
        (["compare", "--set", "compare.a0=1e200"], 0,
         "mos,8.6869578162949456e+19,58759321767.999985,,nan,nan,nan,InvalidParameter"),
        (["mos", "--set", "mos.t=1e-300"], 1, "gamma_over_gamma0 is not finite"),
        (["mos", "--set", "mos.t_m=5e-324"], 1, "phi0 = t_m^2/4 underflows to 0"),
        (["mos", "--set", "mos.l=5e-324"], 1, "g_00 leaves the float range (ZeroDivisionError)"),
        (["mos", "--set", "mos.t_m=1e-300"], 1, "phi0 = t_m^2/4 underflows to 0"),
        (["msi", "--set", "msi.wavelength=0"], 1, "wavelength must be positive"),
        (["noise", "--set", "noise.gamma3_over_gamma=1e308"], 1,
         "product_normalized leaves the float range (OverflowError)"),
        (["noise", "--set", "noise.gamma3_over_gamma=-1"], 1,
         "gamma3_over_gamma must be non-negative"),
        (["msi", "--set", "msi.wavelength=-1"], 1, "wavelength must be positive"),
        (["mos", "--set", "mos.t_m=1e-160", "--set", "mos.t=1.0"], 1,
         "leaves the float range"),
        (["compare", "--set", "compare.t=abc"], 1,
         "config key compare.t = 'abc' is not a number"),
        (["compare", "--set", "foo.bar=1"], 1, "unknown config key 'foo.bar'"),
        (["compare", "--set", "mos=1"], 1, "unknown config key 'mos'"),
    ])
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, argv, code, message):
        # scans, and compare on a bad parameter, exit 1 with a single error
        # line and write nothing; compare reports a failing system in its
        # row's error column
        scan = {"synthetic": "psi", "mos": "phi_over_phi0", "msi": "x",
                "mate": "x", "noise": "xi"}.get(argv[0])
        if scan:
            argv = argv + ["--set", f"scan.parameter={scan}", "--set", "scan.start=0",
                     "--set", "scan.stop=1e-6", "--set", "scan.points=5"]
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert len(err.splitlines()) == 1
            assert err.startswith("error:") and message in err
            assert scan is None or "[at sweep point" in err
            assert not out.exists()
        else:
            assert err == ""
            assert message in out.read_text().splitlines()

    def test_noise_scan_over_the_whole_float_range(self, tmp_path, capsys):
        # xi^2 overflows at both ends; the product there is its limit 2 A
        out = tmp_path / "noise.csv"
        assert main(["noise", "--set", "scan.parameter=xi", "--set", "scan.start=-1e300",
                     "--set", "scan.stop=1e300", "--set", "scan.points=5",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        product = [line.split(",")[1] for line in out.read_text().splitlines()[1:]]
        assert product == ["2", "2", "1", "2", "2"]

    @pytest.mark.parametrize("t_m, t, transmission", [
        # forms in the rounded r and r_m cancelled to 0.30315928680878429 here
        ("1e-3", "3e-4", 0.3030046824758065),
        # and there to a false DegenerateDenominator (r = r_m = 1)
        ("1e-4", "3e-5", 0.30300479642496035),
    ])
    def test_a_mos_scan_near_transparency_keeps_its_digits(self, tmp_path, capsys, t_m, t,
                                                          transmission):
        # T at Phi = 0, where psi is math.pi, is t^2 t_m^2 / (1 - r r_m)^2,
        # here evaluated by mpmath at 50 digits
        out = tmp_path / "mos.csv"
        assert main(["mos", "--set", f"mos.t_m={t_m}", "--set", f"mos.t={t}",
                     "--set", "scan.parameter=phi_over_phi0", "--set", "scan.start=-2",
                     "--set", "scan.stop=2", "--set", "scan.points=5",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        phi, T = map(float, out.read_text().splitlines()[3].split(",")[:2])
        assert phi == 0.0
        assert T == pytest.approx(transmission, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("phi_r", ["1e4", "-1e4", "1e6"])
    def test_large_membrane_phase_scans(self, tmp_path, capsys, phi_r):
        out = tmp_path / "mos.csv"
        assert main(["mos", "--set", f"mos.phi_r={phi_r}",
                     "--set", "scan.parameter=phi_over_phi0", "--set", "scan.start=-2",
                     "--set", "scan.stop=2", "--set", "scan.points=5",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert len(out.read_text().splitlines()) == 6

    def test_non_integer_points_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = ["mos", "--set", "scan.parameter=x", "--set", "scan.start=0",
                "--set", "scan.stop=1e-6", "--set", "scan.points=2.5",
                "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: config key scan.points = '2.5' is not an integer\n"
        assert not out.exists()

    # counts numpy refuses, or returns no points for, before allocating
    @pytest.mark.parametrize("points", ["100000000000000000000", str(2 ** 63)])
    def test_oversized_scan_is_one_error_line(self, tmp_path, capsys, points):
        out = tmp_path / "out.csv"
        argv = ["mos", "--set", "scan.parameter=x", "--set", "scan.start=0",
                "--set", "scan.stop=1e-6", "--set", f"scan.points={points}",
                "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot make {points} sweep points")
        assert not out.exists()

    @pytest.mark.parametrize("argv, code", [
        (["validate", "--out", "x.csv"], 1),
        (["validate", "--set", "mos.t=5"], 1),
        (["validate", "--config", "missing.cfg"], 1),
        (["validate", "--workers", "2"], 1),
        (["figure", "--id", "fig2", "--set", "mos.t=5"], 1),
        (["figure", "--id", "fig2", "--config", "missing.cfg"], 1),
        (["compare", "--workers", "2"], 1),
        (["validate", "--suite", "ful"], 1),
        (["figure", "--id", "fig3", "--workers", "1"], 0),
        (["mos", "--workers", "2", "--set", "scan.parameter=x", "--set", "scan.start=1e-9",
          "--set", "scan.stop=3e-7", "--set", "scan.points=5"], 0),
    ])
    def test_each_subcommand_takes_only_its_flags(self, tmp_path, monkeypatch, capsys,
                                                  argv, code):
        # a flag the subcommand does not read is a configuration error, like
        # a bad choice; --workers stays on the sweeps and figure
        monkeypatch.chdir(tmp_path)
        assert main(argv) == code
        err = capsys.readouterr().err
        written = sorted(path.name for path in tmp_path.iterdir())
        if code:
            assert len(err.splitlines()) == 1 and err.startswith("error:")
            assert written == []
        else:
            assert err == "" and len(written) == 2
            assert written[1] == f"{written[0]}.meta"

    @given(target_key=st.sampled_from(sorted(
        (target, key) for target, spec in TARGETS.items() for key in spec.defaults
    )), value=st.floats())
    @settings(max_examples=300, deadline=None)
    def test_sweep_boundary_property(self, target_key, value):
        # one <target>.<key>=<float> on a sweep: either one error line, exit
        # 1 and no file, or exit 0 and a dataset of finite values
        target, key = target_key
        parameter, start, stop = SWEEPS[target]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "scan.csv"
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([target, "--set", f"{target}.{key}={value!r}",
                             "--set", f"scan.parameter={parameter}",
                             "--set", f"scan.start={start!r}", "--set", f"scan.stop={stop!r}",
                             "--set", "scan.points=9", "--out", str(out)])
            if code == 1:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error:")
                assert list(Path(tmp).iterdir()) == []
                return
            assert code == 0 and err.getvalue() == ""
            header, *body = out.read_text().splitlines()
            meta = Path(f"{out}.meta").read_text().splitlines()
        assert len(body) == 9
        assert all(math.isfinite(float(cell)) for line in body for cell in line.split(","))
        assert f"param.{key} = {format_value(value)}" in meta

    @given(key=st.sampled_from(sorted(COMPARE_DEFAULTS)), value=st.floats())
    @settings(max_examples=300, deadline=None)
    def test_compare_boundary_property(self, key, value):
        # one compare.<key>=<float>: either one error line and exit 1, or a
        # table whose error-free rows hold finite numbers (the MOS ratio
        # columns are nan, by contract, when the mos row has an error)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "cmp.csv"
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["compare", "--set", f"compare.{key}={value!r}",
                             "--out", str(out)])
            if code == 1:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error:")
                assert not out.exists()
                return
            assert code == 0 and err.getvalue() == ""
            header, *body = out.read_text().splitlines()
            rows = [dict(zip(header.split(","), line.split(","))) for line in body]
        mos_ok = rows[0]["system"] == "mos" and rows[0]["error"] == ""
        for row in rows:
            if row["error"]:
                continue
            names = ["g_gamma0", "gamma", "cooperativity"]
            if mos_ok:
                names += ["g_ratio_mos", "gamma_ratio_mos", "coop_ratio_mos"]
            assert all(math.isfinite(float(row[n])) for n in names), row
