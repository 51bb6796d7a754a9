"""Benchmark of the optomech engine: one workload per run.

Usage, from the repository root:

    python3 perfbench/run.py --workload {sweep,validate,design} \\
        --seed N --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics,
including the tracing overhead.  Every operation's output is checked; the
last line of stdout is the JSON result.  Every time is scaled to a
reference host speed (HostSpeed).  Details (environment, raw and scaled
metrics, the layer map) go to perfbench/out/.  The metric names and units
are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from hostspeed import HostSpeed, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_PROBES = 12
PROBE_TIMEOUT_S = 60.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "validate", "design"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class SetupProbes:
    """Seconds from launching a fresh interpreter until it has imported
    optomech and built the workload's inputs, once per probe.

    The probes run between passes, spread evenly over the run.  Within one
    run their times range over up to 3x, more than the host's speed does;
    slow phases only lengthen probes, so set-up time is reported as the
    lower quartile of the probes.
    """

    def __init__(self, workload: str, seed: int, out_dir: Path,
                 count: int = SETUP_PROBES) -> None:
        self.cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed),
                    str(out_dir)]
        self.count = count
        self.times: list[float] = []

    def run_due(self, fraction: float) -> None:
        """Run the probes that fall due by `fraction` of the period."""
        while len(self.times) < min(self.count, math.ceil(self.count * fraction)):
            t0 = time.perf_counter()
            with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, cwd=ROOT,
                                  text=True) as proc:
                line = proc.stdout.readline()
                ready = time.perf_counter()
                proc.stdout.read()
                code = proc.wait(timeout=PROBE_TIMEOUT_S)
            if line.strip() != "ready" or code != 0:
                raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
            self.times.append(ready - t0)


def environment(args: argparse.Namespace) -> dict:
    import optomech

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "optomech").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "optomech": optomech.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def workload_why(name: str) -> str:
    """The one-line reason the workload was chosen, as BENCHMARK.json gives it."""
    return next(w["why"] for w in BENCH["workloads"] if w["name"] == name)


def git_commit() -> str:
    """HEAD commit when run inside a git checkout, else "unknown"."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_passes(workload, seconds: float, probes: SetupProbes, host: HostSpeed,
               tracer=None):
    """Repeat passes until `seconds` have gone by (at least one pass).

    With a tracer, untraced and traced passes alternate and come in pairs,
    so that both kinds see the same phases of the host.  The host's speed is
    sampled during untraced passes only, so that spans hold no calibration
    time.  The set-up probes run between passes as they fall due.
    Returns the Passes of each kind (untraced first), the number of gated
    operations, the failed ones and the per-layer values of each traced pass.
    """
    from workloads import Passes

    modes = (None,) if tracer is None else (None, tracer)
    rows: list[list] = [[] for _ in modes]
    labels: list[list[str]] = [[] for _ in modes]
    failures, traces = [], []
    attempted = 0
    done = 0
    start = time.perf_counter()
    while True:
        kind = done % len(modes)
        if modes[kind] is None:
            with host.sampling():
                raw = workload.run()
        else:
            tracer.reset()
            with tracer.installed():
                raw = workload.run(tracer)
            traces.append(layer_metrics(tracer))
        ops, checked = workload.gate(raw)
        rows[kind].append([op.seconds for op in ops])
        labels[kind] = [op.label for op in ops]
        attempted += len(checked)
        failures += [op for op in checked if not op.ok]
        done += 1
        elapsed = time.perf_counter() - start
        if done % len(modes) == 0 and elapsed >= seconds:
            break
        probes.run_due(elapsed / seconds)
    probes.run_due(1.0)
    passes = [Passes(lab, np.array(r)) for lab, r in zip(labels, rows)]
    return passes, attempted, failures, traces


# ---------------------------------------------------------------------------
# per-layer metrics

#: metric -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
#: the end-to-end metrics every workload reports in its result line
END_TO_END = tuple(m["name"] for m in BENCH["end_to_end"])
#: metrics that are exact counts and must repeat exactly between passes and runs
COUNTERS = tuple(n for n, unit in PER_LAYER_UNITS.items() if unit in ("count", "bytes"))


def _from_untraced(name: str) -> bool:
    """Metrics taken from the untraced passes rather than from the spans."""
    return name.startswith("datasets.scan.") or name == "trace.overhead_s"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer values of one traced pass (time metrics and exact counts)."""
    spans = tracer.summary()
    in_scan = tracer.summary(tracer.under("datasets.run_scan"))
    in_full = tracer.summary(tracer.under("op:validate.full"))
    counters = tracer.counters

    def get(summary: dict, name: str, key: str) -> float:
        return float(summary.get(name, {}).get(key, 0))

    special = {
        "datasets.FigureDataset.write.bytes": lambda: float(counters.get("write_bytes", 0)),
        "elements.ElementSpec.validate.calls_per_point": lambda: _ratio(
            get(in_scan, "elements.ElementSpec.validate", "calls"),
            counters.get("scan_points", 0)),
        "mos.resonance_residual.evals_per_solve": lambda: _ratio(
            get(spans, "mos.resonance_residual", "calls"),
            get(spans, "mos.solve_resonance", "calls")),
        "mate.resonance_residual.evals_per_root": lambda: _ratio(
            get(spans, "mate.resonance_residual", "calls"), counters.get("mate_roots", 0)),
        "noise.general_spectra.us_per_call": lambda: 1e6 * _ratio(
            get(spans, "noise.general_spectra", "total_s"),
            get(spans, "noise.general_spectra", "calls")),
    }
    out: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        if _from_untraced(name):
            continue
        if name in special:
            out[name] = special[name]()
        elif name.startswith("validation."):  # validation.<check>.s, full suite
            out[name] = get(in_full, name[:-len(".s")], "total_s")
        elif name.endswith(".self_s"):
            out[name] = get(spans, name[:-len(".self_s")], "self_s")
        elif name.endswith(".calls"):
            out[name] = get(spans, name[:-len(".calls")], "calls")
        else:
            raise ValueError(f"no rule measures per-layer metric {name!r}")
    return out


def per_layer_result(untraced, traced, traces: list[dict]) -> tuple[dict, list[str]]:
    """Mean of each time metric over traced passes; exact counts from the
    first traced pass, with any pass that disagrees reported as a problem."""
    from workloads import SCAN_POINTS, typical

    values: dict[str, float] = {}
    problems = []
    for name in PER_LAYER_UNITS:
        if _from_untraced(name):
            continue
        series = [t[name] for t in traces]
        if name in COUNTERS:
            if len(set(series)) != 1:
                problems.append(f"{name} differs between traced passes: {series}")
            values[name] = series[0]
        else:
            values[name] = typical(series)
    # time per point of each large scan (datasets.scan.<target>.us_per_point)
    for name in PER_LAYER_UNITS:
        if name.startswith("datasets.scan."):
            label = "scan." + name.split(".")[2]
            values[name] = (1e6 * typical(untraced.column(label)) / SCAN_POINTS
                            if label in untraced.labels else 0.0)
    # paired passes over the same operations: traced passes leave out the
    # --workers 2 scan
    values["trace.overhead_s"] = float(
        typical(traced.total()) - typical(untraced.total(traced.labels)))
    return values, problems


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "optomech" / "__init__.py").is_file():
        print(f"error: optomech sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer

    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
        probes = SetupProbes(args.workload, args.seed, out_dir)
        tracer = Tracer() if args.trace else None
        host = HostSpeed()
        workloads.clock = host.clock
        passes, attempted, failures, traces = run_passes(
            workload, args.seconds, probes, host, tracer)
        untraced = passes[0]
        if args.trace:
            traced = passes[1]
            tracer.write(OUT / f"spans-{args.workload}.npz")
            layers, problems = per_layer_result(untraced, traced, traces)
        else:
            problems = []
        named = workload.metrics(untraced)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    setup_times = probes.times

    failed = len(failures)
    for op in failures:
        print(f"FAILED {op.label}: {op.error}", file=sys.stderr)
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = {
        "setup_s": (float(np.percentile(setup_times, 25)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "pass_s": (workloads.typical(untraced.total()), "s"),
        **named,
        "failed_ratio": (failed / attempted, "ratio"),
    }
    scale = host.scale()
    end_to_end = {k: (scaled(v, u, scale), u) for k, (v, u) in raw.items()}
    if args.trace:
        layers = {k: scaled(v, PER_LAYER_UNITS[k], scale) for k, v in layers.items()}

    env = environment(args)
    env["passes"] = dict(zip(("untraced", "traced"), (len(p.seconds) for p in passes)))
    env["pass_seconds"] = untraced.total().tolist()
    env["operations"] = attempted
    env["setup_probes_s"] = setup_times
    env["calibration_slices"] = len(host.slices)
    env["calibration_slice_mean_s"] = float(np.mean(host.slices))
    env["host_scale"] = scale
    detail = {
        "environment": env,
        "why": workload_why(args.workload),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "end_to_end_raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "layer_map": {layer: moves for layer, moves in (
            (k, [m for m in v if m[1] in (args.workload, "every workload")])
            for k, v in workloads.LAYER_MAP.items()) if moves},
        "notes": ["the --workers 2 MOS scan is left untraced: spans made in pool "
                  "children are lost"] if args.workload == "sweep" else [],
    }
    if args.trace:
        detail["per_layer"] = {k: {"value": layers[k], "unit": unit}
                               for k, unit in PER_LAYER_UNITS.items()}
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(detail, indent=1) + "\n")

    print("environment " + json.dumps(env))
    for name, (value, unit) in end_to_end.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for note in detail["notes"]:
        print(f"note: {note}")
    if args.trace:
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": end_to_end[k][0], "unit": end_to_end[k][1]}
                   for k in END_TO_END}
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
