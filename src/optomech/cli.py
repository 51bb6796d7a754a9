"""Command-line front end.

Subcommands: synthetic, mos, msi, mate, noise (parameter sweeps), figure
(bundled datasets), compare (cross-system table), validate (oracle suite).
Configuration comes from a flat key-value file with dotted section names
("scan.points = 801", "mos.t = 0.014"); --set overrides single keys.  The
environment variable OPTOMECH_CONFIG supplies the default config path.

Exit codes: 0 success, 1 configuration error, 2 validation failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .datasets import (
    FIGURE_IDS,
    TARGETS,
    ScanSpec,
    compare_systems,
    reproduce_figure,
    run_scan,
)
from .errors import ConfigError, OptomechError
from .validation import PROFILES, run_validation

CONFIG_ENV_VAR = "OPTOMECH_CONFIG"

#: scan-section keys understood by every sweep subcommand
SCAN_KEYS = ("parameter", "start", "stop", "points")


def read_config(path: str | Path) -> dict[str, str]:
    """Parse "key = value" lines; '#' starts a comment; blank lines ignored."""
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def _apply_overrides(entries: dict[str, str], overrides: list[str]) -> dict[str, str]:
    out = dict(entries)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        out[key.strip()] = value.strip()
    return out


def _as_float(entries: dict[str, str], key: str) -> float:
    try:
        return float(entries[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key} = {entries[key]!r} is not a number") from exc


def _as_int(entries: dict[str, str], key: str) -> int:
    try:
        return int(entries[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key} = {entries[key]!r} is not an integer") from exc


def _load_entries(args: argparse.Namespace) -> dict[str, str]:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    entries = read_config(path) if path else {}
    return _apply_overrides(entries, args.set or [])


def _build_scan_spec(target: str, entries: dict[str, str],
                     out_path: str | None) -> ScanSpec:
    known_scan = {f"scan.{k}" for k in SCAN_KEYS}
    fixed: dict[str, float] = {}
    for key in entries:
        if key in known_scan:
            continue
        prefix, _, rest = key.partition(".")
        if not rest:
            raise ConfigError(f"unknown config key {key!r}")
        if prefix == target:
            fixed[rest] = _as_float(entries, key)
        elif prefix == "scan":
            raise ConfigError(
                f"unknown scan key {key!r}; expected scan.{{{', '.join(SCAN_KEYS)}}}"
            )
        elif prefix in TARGETS or prefix == "compare":
            continue  # other sections may coexist in one config file
        else:
            raise ConfigError(f"unknown config key {key!r}")
    missing = [k for k in SCAN_KEYS if f"scan.{k}" not in entries]
    if missing:
        raise ConfigError(
            f"missing scan keys: {', '.join('scan.' + k for k in missing)}"
        )
    return ScanSpec(
        target=target,
        parameter=entries["scan.parameter"],
        start=_as_float(entries, "scan.start"),
        stop=_as_float(entries, "scan.stop"),
        points=_as_int(entries, "scan.points"),
        fixed=fixed,
        output_path=out_path,
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key-value config file "
                        f"(default: ${CONFIG_ENV_VAR})")
    parser.add_argument("--out", help="output CSV path (sidecar: <out>.meta)")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for existing scripts; sweeps run in one "
                        "process and the output does not depend on it")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config entry (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optomech",
        description="Dissipatively coupled optomechanical cavity design engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for target in TARGETS:
        p = sub.add_parser(target, help=f"sweep the {target} model")
        _add_common(p)
    p_fig = sub.add_parser("figure", help="reproduce a bundled figure dataset")
    _add_common(p_fig)
    p_fig.add_argument("--id", required=True, choices=FIGURE_IDS, dest="figure_id")
    p_cmp = sub.add_parser("compare", help="cross-system comparison table")
    _add_common(p_cmp)
    p_val = sub.add_parser("validate", help="run the oracle validation suite")
    _add_common(p_val)
    p_val.add_argument("--suite", choices=("fast", "full"), default="fast")
    p_val.add_argument("--tolerance-profile", choices=sorted(PROFILES),
                       default="default", help="validation tolerance profile")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in TARGETS:
            entries = _load_entries(args)
            out = args.out or f"{args.command}.csv"
            spec = _build_scan_spec(args.command, entries, out)
            dataset = run_scan(spec)
            print(f"wrote {out} ({dataset.n_rows} rows) and {out}.meta")
            return 0
        if args.command == "figure":
            out = args.out or f"{args.figure_id}.csv"
            dataset = reproduce_figure(args.figure_id, output_path=out)
            print(f"wrote {out} ({dataset.n_rows} rows) and {out}.meta")
            return 0
        if args.command == "compare":
            entries = _load_entries(args)
            params: dict[str, float] = {}
            for key in entries:
                prefix, _, rest = key.partition(".")
                if prefix == "compare" and rest:
                    params[rest] = _as_float(entries, key)
                elif rest and (prefix in TARGETS or prefix == "scan"):
                    continue  # shared config files may carry sweep sections
                else:
                    raise ConfigError(f"unknown config key {key!r} (compare.* expected)")
            table = compare_systems(params)
            out = args.out or "compare.csv"
            table.write(out)
            for row in table.rows:
                label = row["error"] or f"g_gamma0={row.get('g_gamma0'):.6e}"
                print(f"{row['system']}: {label}")
            print(f"wrote {out} and {out}.meta")
            return 0
        if args.command == "validate":
            report = run_validation(suite=args.suite,
                                    profile=args.tolerance_profile)
            for line in report.lines():
                print(line)
            return 0 if report.passed else 2
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OptomechError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
