"""The comparison rows built from the configs and the public closed forms.

compare_systems fills its rows from closed-form kernels, with the rules the
configs enforce; here each row is filled as it was before, by building a
MosConfig, an MsiConfig and a MateConfig and calling the public functions,
which screen every value again.  tests/test_datasets_cli.py checks that both
give the same rows, error classes included.
"""

import math

from optomech import mate as mate_mod
from optomech import mos as mos_mod
from optomech import msi as msi_mod
from optomech import noise as noise_mod
from optomech.datasets import _ROW_ERRORS, COMPARE_DEFAULTS, _store
from optomech.elements import wavevector
from optomech.errors import InvalidParameter
from optomech.numerics import require_transmitting


def _mos_row(row: dict, p: dict, mech: dict) -> None:
    mos_mod.zero_dispersive_locus(p["t"], p["t_m"])
    cfg = mos_mod.MosConfig(l=p["l"], wavelength=p["wavelength"],
                            t=p["t"], t_m=p["t_m"], x=0.0)
    # the Phi = Phi0 operating point: g_gamma0 = g_00 / 2, gamma = gamma0 / 2
    _store(row, g_gamma0=cfg.g_00 / 2.0, gamma=cfg.gamma0 / 2.0)
    _store(row, cooperativity=noise_mod.cooperativity_mos(t=p["t"], t_m=p["t_m"], **mech))


def _msi_row(row: dict, p: dict, mech: dict) -> None:
    cfg = msi_mod.MsiConfig(r_ms=p["msi_r_ms"], l=p["l"], k=wavevector(p["wavelength"]),
                            Tb_sq=p["msi_Tb_sq"])
    zd = msi_mod.msi_zero_dispersive(cfg)
    _store(row, g_gamma0=zd.g_gamma0_benchmark, gamma=zd.gamma_ms)
    _store(row, cooperativity=noise_mod.cooperativity_msi(
        r_ms=p["msi_r_ms"], gamma_ms=zd.gamma_ms, omega_m=p["omega_m"], **mech))


def _mate_row(row: dict, p: dict, mech: dict) -> None:
    require_transmitting(t_m=p["t_m"])  # MateConfig's rule, before the default squares t_m
    mate_x = p["l"] * p["t_m"] ** 2 / 4000.0 if p["mate_x"] is None else p["mate_x"]
    cfg = mate_mod.MateConfig(l=p["l"], x=mate_x, t=p["t"], t_m=p["t_m"],
                              wavelength=p["wavelength"])
    zd = mate_mod.mate_zero_dispersive(cfg)
    _store(row, g_gamma0=zd.g_gamma0_mag, gamma=zd.gamma_mate)
    _store(row, cooperativity=noise_mod.cooperativity_mate(
        t=p["t"], t_m=p["t_m"], omega_m=p["omega_m"], **mech))


_SYSTEMS = {"mos": _mos_row, "msi": _msi_row, "mate": _mate_row}


def compare_rows(params: dict) -> list[dict]:
    """The rows of compare_systems(params), for params that pass its screens."""
    p = {**COMPARE_DEFAULTS, **params}
    mech = {key: p[key] for key in ("l", "wavelength", "x_zpf", "gamma_m", "a0")}
    rows = [{"system": s, "error": ""} for s in _SYSTEMS]
    for row in rows:
        try:
            _SYSTEMS[row["system"]](row, p, mech)
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
    return rows
