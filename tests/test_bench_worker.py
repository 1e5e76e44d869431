"""The benchmark's worker (perfbench/worker.py) counts a run's payload
events, jumps and slowdown episodes from the TraceEvent rows and
Trace.reduced_intervals; this checks those reads against the event
columns."""

import importlib.util
from pathlib import Path

from gradsync.config import build_wait_chain_scenario
from gradsync.engine import run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # the worker imports workloads
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_stats_match_the_event_columns(monkeypatch):
    trace = run(build_wait_chain_scenario(8, 0.1, 1.0, 1.0))
    stats = load_worker(monkeypatch)._run_stats(trace)
    events = trace.events
    assert stats["events"] == events.time.size
    assert stats["payload_events"] == int((events.payload == events.payload).sum())
    assert stats["jumps"] == int((events.jump > 0.0).sum()) > 0
    assert stats["slowdown_episodes"] == int((events.toggle > 0).sum()) > 0
