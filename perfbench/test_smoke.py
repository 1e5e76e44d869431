"""Smoke test of the benchmark harness at desk scale.

Runs every workload at the tiny size (wait chain D in {4, 8}, random
fields of 12 nodes) through the same entry point the benchmark uses, in
both modes, so that the harness cannot rot unnoticed:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_declared_workloads_are_known_to_the_harness():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.NAMES)


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_declared_metric(workload, trace, tmp_path):
    result_file = tmp_path / "result.json"
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny", "--result", str(result_file))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    for name in ("wall_s", "cpu_s", "events_per_s", "peak_rss_mb", "setup_s", "failed_ops"):
        assert name in proc.stdout
    record = json.loads(result_file.read_text())["runs"][0]
    assert record["stamp"]["events_per_op"] > 0 and record["digest"]
    if trace:
        assert record["per_layer"]["engine.events"] == record["stamp"]["events_per_op"]
        assert record["per_layer"]["topology.builds_per_run"] >= 1
        spans = next(iter(record["spans"].values()))
        assert {s["name"] for s in spans} >= {"cli.main", "engine.run", "metrics.compute_report"}


def test_compare_flags_digest_mismatch(tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    for path in (old, new):
        proc = bench("--workload", "wait_chain", "--seed", "1", "--seconds", "1",
                     "--size", "tiny", "--result", str(path))
        assert proc.returncode == 0, proc.stderr
    proc = bench("--compare", str(old), str(new))
    assert proc.returncode == 0, proc.stdout
    assert "wait_chain" in proc.stdout and "MISMATCH" not in proc.stdout
    doc = json.loads(new.read_text())
    doc["runs"][0]["digest"] = "0" * 64
    new.write_text(json.dumps(doc))
    proc = bench("--compare", str(old), str(new))
    assert proc.returncode == 1 and "DIGEST MISMATCH" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = bench("--workload", "wait_chain", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_probe_validates_the_configs_the_command_runs(workload, tmp_path):
    import gradsync
    import gradsync.cli

    op = workloads.make_op(workload, 3, "tiny")
    op.write_inputs(tmp_path / "in")
    assert gradsync.cli.main(op.command(tmp_path / "in", tmp_path / "out")) == 0
    written = [
        json.dumps(json.loads(p.read_text())["config"], sort_keys=True)
        for p in (tmp_path / "out").rglob("summary.json")
    ]
    probed = [
        json.dumps(gradsync.config_to_dict(c), sort_keys=True) for c in workloads.op_configs(op)
    ]
    assert sorted(written) == sorted(probed)


def test_tracer_restores_every_binding():
    import gradsync
    import gradsync.cli

    before = (gradsync.cli.run, gradsync.protocol.rate_factor,
              gradsync.clocks.HardwareClock.__dict__["hardware_time"])
    tracer = Tracer()
    tracer.install(gradsync)
    assert gradsync.cli.run is not before[0]
    tracer.uninstall()
    after = (gradsync.cli.run, gradsync.protocol.rate_factor,
             gradsync.clocks.HardwareClock.__dict__["hardware_time"])
    assert after == before
