"""The benchmark's tracer (perfbench/tracer.py) wraps gradsync functions at
the module and class attributes it names. A refactor that unbinds one of
them, or stops calling it, would break the traced benchmark; this catches
it here."""

import importlib.util
import json
from pathlib import Path

import gradsync
import gradsync.cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracer_mod) -> dict:
    return {
        (owner, attr): tracer_mod._resolve(gradsync, owner).__dict__[attr]
        for owner, attr, _ in tracer_mod.SPANS + tracer_mod.COUNTED
    }


def test_tracer_wraps_every_name_and_restores_it(tmp_path):
    tracer_mod = load_tracer()
    before = bindings(tracer_mod)
    tracer = tracer_mod.Tracer()
    tracer.begin_op(1)
    tracer.install(gradsync)
    try:
        wrapped = bindings(tracer_mod)
        code = gradsync.cli.main(["run", "--preset", "two_node", "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    tracer.end_op()
    assert code == 0
    assert all(wrapped[key] is not before[key] for key in before)
    assert bindings(tracer_mod) == before

    spans = [span["name"] for span in tracer.op_spans(1)]
    for name in (
        "engine.run",
        "topology.build",
        "engine.generate_schedule",
        "engine.order",
        "metrics.compute_report",
        "metrics.trace_csv_text",
        "metrics.summary_json_text",
    ):
        assert spans.count(name) == 1, name
    calls = {name: count for name, (count, _) in tracer.op_counters[1].items()}
    assert calls["clocks.make_drift_schedule"] == 2
    assert calls["protocol.on_receive"] > 0 and calls["protocol.emit_payload"] > 0
    assert calls["protocol.rate_factor"] > 0 and calls["clocks.hardware_time"] > 0


def test_sweep_builds_each_topology_once(tmp_path):
    # each point's config is validated by its own run, so a sweep builds
    # one topology per run
    spec = {
        "base": {"preset": "wait_chain"},
        "parameter": "diameter",
        "values": [4, 8],
        "variants": ["gradient", "no_slowdown"],
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    tracer_mod = load_tracer()
    tracer = tracer_mod.Tracer()
    tracer.begin_op(1)
    tracer.install(gradsync)
    try:
        code = gradsync.cli.main(["sweep", "--sweep", str(path), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    tracer.end_op()
    assert code == 0
    spans = [span["name"] for span in tracer.op_spans(1)]
    assert spans.count("engine.run") == 4
    assert spans.count("topology.build") == 4
