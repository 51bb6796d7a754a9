"""Command-line front end.

Subcommands: synthetic, mos, msi, mate, noise (parameter sweeps), figure
(bundled datasets), compare (cross-system table), validate (oracle suite).
Configuration comes from a flat key-value file with dotted section names
("scan.points = 801", "mos.t = 0.014"); --set overrides single keys.  The
environment variable OPTOMECH_CONFIG supplies the default config path.

Exit codes: 0 success, 1 configuration error (a bad command line or an
output that cannot be written included) or a stdout closed by its reader,
2 validation failure.
"""

from __future__ import annotations

import argparse
import functools
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

#: config sections; one file may carry all of them, each command reads its own
SECTIONS = (*TARGETS, "scan", "compare")


def _split(item: str, where: str) -> tuple[str, str]:
    key, eq, value = item.partition("=")
    if not eq:
        raise ConfigError(f"{where}: expected 'key = value', got {item!r}")
    return key.strip(), value.strip()


def read_config(path: str | Path) -> dict[str, str]:
    """Parse "key = value" lines; '#' starts a comment; blank lines ignored."""
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = _split(line, f"{path}:{lineno}")
            entries[key] = value
    return entries


def _load_entries(args: argparse.Namespace) -> dict[str, str]:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    entries = read_config(path) if path else {}
    entries.update(_split(item, "--set") for item in args.set or [])
    return entries


def _number(key: str, text: str, kind: type = float):
    try:
        return kind(text)
    except ValueError as exc:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"config key {key} = {text!r} is not {what}") from exc


def _section(entries: dict[str, str], name: str) -> dict[str, float]:
    """The float values of the `name.*` entries, keyed without the prefix.
    Every key must belong to one of SECTIONS, and a scan key to SCAN_KEYS."""
    values: dict[str, float] = {}
    for key, text in entries.items():
        prefix, _, rest = key.partition(".")
        if prefix == "scan" and rest not in SCAN_KEYS:
            raise ConfigError(
                f"unknown scan key {key!r}; expected scan.{{{', '.join(SCAN_KEYS)}}}"
            )
        if prefix not in SECTIONS or not rest:
            raise ConfigError(f"unknown config key {key!r}")
        if prefix == name:
            values[rest] = _number(key, text)
    return values


def _build_scan_spec(target: str, entries: dict[str, str]) -> ScanSpec:
    fixed = _section(entries, target)
    missing = [k for k in SCAN_KEYS if f"scan.{k}" not in entries]
    if missing:
        raise ConfigError(
            f"missing scan keys: {', '.join('scan.' + k for k in missing)}"
        )
    return ScanSpec(
        target=target,
        parameter=entries["scan.parameter"],
        start=_number("scan.start", entries["scan.start"]),
        stop=_number("scan.stop", entries["scan.stop"]),
        points=_number("scan.points", entries["scan.points"], int),
        fixed=fixed,
    )


class _Parser(argparse.ArgumentParser):
    """A bad command line is a configuration error (exit 1), not exit 2."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


#: the options shared between subcommands; each takes only those it reads
_FLAGS: dict[str, dict] = {
    "--config": dict(help=f"key-value config file (default: ${CONFIG_ENV_VAR})"),
    "--set": dict(action="append", metavar="KEY=VALUE",
                  help="override a config entry (repeatable)"),
    "--out": dict(help="output CSV path (sidecar: <out>.meta)"),
    "--workers": dict(type=int, default=1,
                      help="accepted for existing scripts; the output is computed "
                      "in one process and does not depend on it"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="optomech",
        description="Dissipatively coupled optomechanical cavity design engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help: str, *flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    for target in TARGETS:
        add(target, f"sweep the {target} model", "--config", "--set", "--out", "--workers")
    p_fig = add("figure", "reproduce a bundled figure dataset", "--out", "--workers")
    p_fig.add_argument("--id", required=True, choices=FIGURE_IDS, dest="figure_id")
    add("compare", "cross-system comparison table", "--config", "--set", "--out")
    p_val = add("validate", "run the oracle validation suite")
    p_val.add_argument("--suite", choices=("fast", "full"), default="fast")
    p_val.add_argument("--tolerance-profile", choices=sorted(PROFILES),
                       default="default", help="validation tolerance profile")
    return parser


def _write(output, out: str) -> str:
    """Write a dataset or table to out: " and <out>.meta" if that wrote the
    sidecar, else "".  An OSError of the write is a ConfigError naming it."""
    try:
        return f" and {out}.meta" if output.write(out) else ""
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or out}: {exc.strerror or exc}") from exc


def _run(args: argparse.Namespace) -> int:
    if args.command in TARGETS or args.command == "figure":
        if args.command == "figure":
            dataset = reproduce_figure(args.figure_id)
        else:
            dataset = run_scan(_build_scan_spec(args.command, _load_entries(args)))
        out = args.out or f"{dataset.name}.csv"
        sidecar = _write(dataset, out)
        print(f"wrote {out} ({dataset.n_rows} rows){sidecar}")
        return 0
    if args.command == "compare":
        table = compare_systems(_section(_load_entries(args), "compare"))
        out = args.out or "compare.csv"
        sidecar = _write(table, out)
        for row in table.rows:
            label = row["error"] or f"g_gamma0={row.get('g_gamma0'):.6e}"
            print(f"{row['system']}: {label}")
        print(f"wrote {out}{sidecar}")
        return 0
    report = run_validation(suite=args.suite, profile=args.tolerance_profile)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 2


#: the parser of every main call in a process, built by its first; a parse
#: leaves no state in it (argparse copies --set's append list)
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(_parser().parse_args(argv))
        sys.stdout.flush()  # a reader gone away raises here, not at the exit flush
        return code
    except BrokenPipeError:
        # as the Python signal docs advise: what is left to flush, the
        # interpreter's flush at exit included, goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OptomechError, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
