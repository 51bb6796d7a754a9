"""Checks of the benchmark itself: exact counters repeat, seeds act only
where they should, the gates catch wrong outputs, and tracing leaves the
package as it found it.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import optomech.elements as elements
import optomech.mos as mos
import optomech.validation as validation
import run
import workloads
from tracer import Tracer


def traced_counters(workload) -> dict[str, float]:
    tracer = Tracer()
    with tracer.installed():
        raw = workload.run(tracer)
    _, gated = workload.gate(raw)
    assert all(op.ok for op in gated), [op.error for op in gated if not op.ok]
    layers = run.layer_metrics(tracer)
    return {name: layers[name] for name in run.COUNTERS if name in layers}


@pytest.fixture(scope="module")
def sweep_outputs(tmp_path_factory):
    """Output bytes and counters of two traced sweep passes, seeds 1 and 2."""
    out = {}
    for seed in (1, 2):
        out_dir = tmp_path_factory.mktemp(f"sweep{seed}")
        counters = traced_counters(workloads.Sweep(seed, out_dir))
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        out[seed] = (counters, files)
    return out


def test_sweep_counters_repeat_and_ignore_seed(sweep_outputs):
    (counters_1, files_1), (counters_2, files_2) = sweep_outputs[1], sweep_outputs[2]
    assert counters_1 == counters_2
    assert counters_1["datasets.FigureDataset.write.bytes"] > 0
    assert files_1 == files_2


def test_sweep_gate_rejects_a_changed_value(sweep_outputs, tmp_path):
    _, files = sweep_outputs[1]
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    ref = workloads.load_reference()
    lines = (tmp_path / "msi.csv").read_text().splitlines()
    cells = lines[5000].split(",")  # data row 4999, one of the reference rows
    cells[2] = repr(float(cells[2]) * (1 + 1e-6))
    lines[5000] = ",".join(cells)
    (tmp_path / "msi.csv").write_text("\n".join(lines) + "\n")
    ops = [workloads.Op(label, 1.0) for label in ref]
    workloads.check_sweep_pass(tmp_path, ops, ref)
    assert [op.label for op in ops if not op.ok] == ["scan.msi"]


def test_validate_counters_repeat():
    workload = workloads.Validate(7, Path("."))
    assert traced_counters(workload) == traced_counters(workload)


def test_design_counters_repeat_and_seed_changes_inputs(monkeypatch):
    monkeypatch.setattr(workloads, "DESIGNS_PER_PASS", 24)
    first = workloads.DesignQueries(5, Path("."))
    again = workloads.DesignQueries(5, Path("."))
    other = workloads.DesignQueries(6, Path("."))
    assert first.designs == again.designs
    assert first.designs != other.designs
    assert traced_counters(first) == traced_counters(again)


def test_design_inputs_include_infeasible_queries():
    designs = workloads.make_designs(3, n=400)
    share = sum(not d.feasible for d in designs) / len(designs)
    assert 0.05 < share < 0.15


def test_design_gate_rejects_a_wrong_identity():
    d = next(d for d in workloads.make_designs(1, 32) if d.feasible)
    rec = workloads.evaluate_design(d)
    assert workloads.check_design(rec) == ""
    rec["op"] = dataclasses.replace(rec["op"], g_gamma0=rec["op"].g_gamma0 * (1 + 1e-9))
    assert "identity" in workloads.check_design(rec)


def test_tracer_restores_every_binding():
    before = (elements.synthetic_response, mos.synthetic_response,
              elements.ElementSpec.validate, validation._check_figures)
    tracer = Tracer()
    with tracer.installed():
        assert mos.synthetic_response is not before[1]
        assert mos.synthetic_response is elements.synthetic_response
        validation.run_validation(suite="fast")
    after = (elements.synthetic_response, mos.synthetic_response,
             elements.ElementSpec.validate, validation._check_figures)
    assert after == before
    summary = tracer.summary()
    assert "validation.figure_values" in summary
    # both elements are validated on every response (and on every composition)
    assert summary["elements.ElementSpec.validate"]["calls"] >= (
        2 * summary["elements.synthetic_response"]["calls"])


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(100_000))
    s = tracer.summary()
    assert s["outer"]["self_s"] == pytest.approx(
        s["outer"]["total_s"] - s["inner"]["total_s"])
    assert s["inner"]["self_s"] == s["inner"]["total_s"]


def test_fails_without_the_package_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(run.__file__).parent.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_every_per_layer_metric_is_measured():
    tracer = Tracer()
    with tracer.installed():
        validation.run_validation(suite="fast")
    measured = set(run.layer_metrics(tracer))
    assert {n for n in run.PER_LAYER_UNITS if not run._from_untraced(n)} == measured
    assert sorted(w["name"] for w in run.BENCH["workloads"]) == sorted(workloads.WORKLOADS)


def test_sweep_gate_counts_an_unexpected_exception(monkeypatch, tmp_path):
    def broken(argv):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(workloads.cli, "main", broken)
    ops = workloads.run_sweep_pass(tmp_path, with_w2=False)
    assert ops and all("ZeroDivisionError" in op.error for op in ops)


def test_host_speed_samples_while_the_program_runs():
    host = hostspeed.HostSpeed()
    with host.sampling():
        t0, c0 = time.perf_counter(), host.clock()
        while time.perf_counter() - t0 < 1.0:
            sum(range(1000))
        wall, clock = time.perf_counter() - t0, host.clock() - c0
    assert len(host.slices) >= 2
    # the clock leaves out the slices' time
    assert clock == pytest.approx(wall - sum(host.slices), abs=0.01)
    scale = host.scale()
    assert scale == pytest.approx(hostspeed.CAL_REF_S * len(host.slices) / sum(host.slices))
    assert hostspeed.scaled(2.0, "s", scale) == pytest.approx(2.0 * scale)
    assert hostspeed.scaled(2.0, "1/s", scale) == pytest.approx(2.0 / scale)
    assert hostspeed.scaled(2.0, "count", scale) == 2.0
