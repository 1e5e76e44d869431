import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from gradsync.cli import main
from gradsync.config import build_wait_chain_scenario, config_to_dict, workload_violations
from gradsync.engine import run, validate_config
from gradsync.presets import preset

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "gradsync", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def write_config(path: Path, config) -> Path:
    path.write_text(json.dumps(config_to_dict(config)), encoding="utf-8")
    return path


@pytest.fixture
def node_0_ahead(monkeypatch):
    """The CLI's runs with node 0's logical clock 50 ahead from its start on."""

    def ahead(config):
        trace = run(config)
        values = trace.history.values.copy()
        values[: trace.history.bounds[1]] += 50.0  # node 0's rows
        return replace(trace, history=replace(trace.history, values=values))

    monkeypatch.setattr("gradsync.cli.run", ahead)


class TestRun:
    def test_preset_run_writes_outputs(self, tmp_path):
        code = main(["run", "--preset", "wait_chain", "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "trace.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()

    def test_invalid_threshold_exits_2(self, tmp_path, capsys):
        cfg = build_wait_chain_scenario(4, 0.1, 1.0, 1.0)
        doc = config_to_dict(cfg)
        doc["skew_threshold"] = 2.2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["validate", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == 2
        assert "exceeds (1+drift_bound)*max_gap = 1.1" in out

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 2

    def test_missing_field_named(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"topology": {"kind": "chain", "n": 4}}))
        code = main(["validate", "--config", str(path)])
        assert code == 2
        assert "drift_bound" in capsys.readouterr().out

    def test_strict_with_injected_violation_exits_3(self, tmp_path, node_0_ahead):
        out = str(tmp_path / "out")
        assert main(["run", "--preset", "wait_chain", "--out", out, "--strict"]) == 3

    def test_injected_violation_without_strict_still_writes(self, tmp_path, node_0_ahead):
        code = main(["run", "--preset", "wait_chain", "--out", str(tmp_path / "out")])
        assert code == 0
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        verdicts = {v["name"]: v for v in doc["report"]["verdicts"]}
        assert not verdicts["global_skew"]["passed"]

    def test_rerun_from_summary_is_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(["run", "--preset", "startup_chain", "--out", str(first)]) == 0
        assert (
            main(
                [
                    "run",
                    "--config",
                    str(first / "summary.json"),
                    "--out",
                    str(second),
                ]
            )
            == 0
        )
        assert (first / "trace.csv").read_bytes() == (second / "trace.csv").read_bytes()
        assert (first / "summary.json").read_bytes() == (
            second / "summary.json"
        ).read_bytes()


def field_doc(path: str, value) -> dict:
    """The random_geometric preset as a document, with one field replaced."""
    doc = config_to_dict(preset("random_geometric"))
    *parents, leaf = path.split(".")
    target = doc
    for key in parents:
        target = target[key]
    target[leaf] = value
    return doc


# a valid scripted schedule of the two_node preset: every second on both edges
TWO_NODE_SENDS = {"0->1": [1.0, 2.0, 3.0, 4.0], "1->0": [1.0, 2.0, 3.0, 4.0]}


def write_doc(tmp_path: Path, doc: dict) -> str:
    # json.dumps writes Infinity and NaN, which json.load accepts back
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestInputBoundary:
    """Every input runs or is refused with exit 2 and a named violation."""

    @pytest.mark.parametrize(
        "path",
        [
            "drift_bound",
            "max_gap",
            "skew_threshold",
            "horizon",
            "schedule.gap_min",
            "drift.dwell",
            "drift.value",
            "topology.radius",
        ],
    )
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_number_refused(self, tmp_path, capsys, path, value):
        config = write_doc(tmp_path, field_doc(path, value))
        assert main(["validate", "--config", config]) == 2
        assert f"{path} must be finite" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "path,value", [("max_gap", float("inf")), ("skew_threshold", float("nan"))]
    )
    def test_run_refuses_non_finite(self, tmp_path, capsys, path, value):
        doc = config_to_dict(build_wait_chain_scenario(4, 0.1, 1.0, 1.0))
        doc["horizon"] = None  # the default horizon scales with max_gap
        doc[path] = value
        out = tmp_path / "out"
        assert main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 2
        assert f"{path} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "path,value",
        [
            ("topology.n", 5.5),
            ("topology.seed", 7.5),
            ("topology.retries", 2.5),
            ("topology.n", "50"),
            ("topology.n", True),
            ("seed", 1.5),
            ("diameter_bound", 4.7),
            ("initiators", [0.5]),
        ],
    )
    def test_non_integral_count_refused(self, tmp_path, capsys, path, value):
        config = write_doc(tmp_path, field_doc(path, value))
        assert main(["validate", "--config", config]) == 2
        out = capsys.readouterr().out
        assert path in out and "must be an integer" in out

    def test_non_integral_grid_and_signs_refused(self, tmp_path, capsys):
        doc = config_to_dict(build_wait_chain_scenario(4, 0.1, 1.0, 1.0))
        doc["topology"] = {"kind": "grid", "rows": 2.5, "cols": 3.0}
        doc["drift"]["signs"] = [1, -1, 1, -1, 0.5]
        assert main(["validate", "--config", write_doc(tmp_path, doc)]) == 2
        out = capsys.readouterr().out
        assert "topology.rows must be an integer" in out
        assert "drift.signs[4] must be an integer" in out
        assert "topology.cols" not in out  # 3.0 is integral

    @pytest.mark.parametrize(
        "path", ["drift_bund", "topology.radus", "drift.dwel", "schedule.gapmin"]
    )
    def test_unknown_key_refused(self, tmp_path, capsys, path):
        config = write_doc(tmp_path, field_doc(path, 0.5))
        assert main(["validate", "--config", config]) == 2
        assert f"unknown field {path!r}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "path,value",
        [("drift.mode", "constant"), ("topology.n", 5), ("schedule.scripted", None)],
    )
    def test_dotted_top_level_key_refused(self, tmp_path, capsys, path, value):
        doc = config_to_dict(preset("random_geometric"))
        doc[path] = value
        assert main(["validate", "--config", write_doc(tmp_path, doc)]) == 2
        assert f"unknown field {path!r}" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_non_boolean_process_on_start_refused(self, tmp_path, capsys, value):
        config = write_doc(tmp_path, field_doc("process_on_start", value))
        assert main(["validate", "--config", config]) == 2
        assert "process_on_start must be true or false" in capsys.readouterr().out

    @pytest.mark.parametrize("doc", [[1, 2], {"topology": [], "drift_bound": 0.1}])
    def test_non_object_refused(self, tmp_path, capsys, doc):
        assert main(["validate", "--config", write_doc(tmp_path, doc)]) == 2
        assert "must be an object" in capsys.readouterr().out

    @pytest.mark.parametrize("path", ["drift_bound", "max_gap", "skew_threshold"])
    def test_null_required_number_refused(self, tmp_path, capsys, path):
        config = write_doc(tmp_path, field_doc(path, None))
        assert main(["validate", "--config", config]) == 2
        assert f"violation: {path} must be a number, got None" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "topology,named",
        [
            ({"kind": "grid", "rows": 2, "cols": 3, "n": 100}, "grid topology does not read n"),
            ({"kind": "chain", "n": 4, "radius": 0.3}, "chain topology does not read radius"),
            ({"kind": "chain", "n": 4, "edges": [[0, 1]]}, "chain topology does not read edges"),
            ({"kind": "ring", "n": 5, "retries": 50}, "ring topology does not read retries"),
        ],
    )
    def test_unread_topology_field_refused(self, tmp_path, capsys, topology, named):
        config = write_doc(tmp_path, field_doc("topology", topology))
        assert main(["validate", "--config", config]) == 2
        assert f"violation: {named}" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_topology_size_refused(self, tmp_path, capsys):
        config = write_doc(tmp_path, field_doc("topology", {"kind": "chain"}))
        assert main(["validate", "--config", config]) == 2
        assert "chain topology needs n" in capsys.readouterr().out

    def test_non_integral_sweep_value_refused(self, tmp_path, capsys):
        spec = {"base": {"preset": "wait_chain"}, "parameter": "diameter", "values": [4.5]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sweep", "--sweep", str(path), "--out", str(out)]) == 2
        assert "diameter must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_workload_over_the_cap_refused(self, tmp_path, capsys):
        # two nodes over 1e9 time units would send 2e9 messages
        doc = config_to_dict(preset("two_node"))
        doc["horizon"] = 1e9
        config = write_doc(tmp_path, doc)
        assert main(["validate", "--config", config]) == 2
        assert "workload of about 2e+09 sends" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert "exceeds the cap of 10,000,000" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "path,value,named",
        [
            ("seed", -1, "seed must be non-negative, got -1"),
            ("topology.seed", -2, "random_geometric seed must be non-negative, got -2"),
            ("topology.retries", -5, "random_geometric retries must be non-negative, got -5"),
            ("topology.retries", 0,
             "random_geometric retries counts draws and must be at least 1, got 0"),
        ],
    )
    def test_negative_seed_or_retries_refused(self, tmp_path, capsys, path, value, named):
        config = write_doc(tmp_path, field_doc(path, value))
        assert main(["validate", "--config", config]) == 2
        assert capsys.readouterr().out == f"violation: {named}\n"
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["random_geometric", "startup_chain"])
    def test_negative_seed_option_refused(self, tmp_path, capsys, name):
        # startup_chain draws nothing from its seed, and is refused all the same
        assert main(["validate", "--preset", name, "--seed", "-1"]) == 2
        assert "violation: seed must be non-negative, got -1" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", "--preset", name, "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "topology,named",
        [
            ({"kind": "grid", "rows": 100000, "cols": 100000},
             "grid topology of 10,000,000,000 nodes has over 10,000,000 node pairs"),
            ({"kind": "edge_list", "edges": [[0, 1000000000]]},
             "edge_list topology of 1,000,000,001 nodes has over 10,000,000 node pairs"),
            ({"kind": "chain", "n": 20000}, "chain topology of 20,000 nodes has over 10,000,000 node pairs"),
        ],
    )
    def test_node_pairs_over_the_cap_refused(self, tmp_path, capsys, topology, named):
        # a short horizon keeps the sends far below the cap
        doc = field_doc("topology", topology)
        doc["horizon"] = 2.0
        config = write_doc(tmp_path, doc)
        assert main(["validate", "--config", config]) == 2
        assert f"violation: {named}" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edges,named",
        [
            ([[0, 1], [1, 2], [-3, 1]], "edge (-3, 1) names node -3, outside 0..2"),
            ([[0, 1], [1, 2], [2, -3]], "edge (2, -3) names node -3, outside 0..2"),
        ],
    )
    def test_negative_edge_id_refused(self, tmp_path, capsys, edges, named):
        # read as an index, -3 would pick node 0 and run the chain 0-1-2
        doc = config_to_dict(preset("startup_chain"))
        doc["topology"] = {"kind": "edge_list", "edges": edges}
        config = write_doc(tmp_path, doc)
        assert main(["validate", "--config", config]) == 2
        assert capsys.readouterr().out == f"violation: {named}\n"
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_diameter_bound_past_exact_floats_refused(self, tmp_path, capsys):
        # 1 / 10**400 overflows a float: refused by validate, not a traceback in run
        doc = config_to_dict(preset("startup_chain"))
        doc["diameter_bound"] = 10**400
        config = write_doc(tmp_path, doc)
        named = f"diameter_bound must be at most 2**53, got {10**400}"
        assert main(["validate", "--config", config]) == 2
        assert capsys.readouterr().out == f"violation: {named}\n"
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_dense_graph_over_the_bfs_bound_refused_at_once(self, tmp_path, capsys):
        # about 240,000 edges on 1500 nodes: its BFS would take tens of seconds
        config = write_doc(tmp_path, field_doc("topology.n", 1500))
        start = time.perf_counter()
        assert main(["validate", "--config", config]) == 2
        assert time.perf_counter() - start < 2.0
        out = capsys.readouterr().out
        assert out.startswith("violation: graph of 1,500 nodes and ")
        assert out.endswith(" BFS steps (nodes x directed edges), over 500,000,000\n")

    @pytest.mark.parametrize(
        "sends,named",
        [
            ({"0->1": [0.5, float("nan"), 1.5, 2.5, 3.5]},
             "edge 0->1: send time nan is not a number"),
            ({"00->1": [0.5, 1.5, 2.5, 3.5]},
             "schedule.scripted key must read 'src->dst' in ASCII digits without leading zeros, "
             "got '00->1'"),
            ({"\u0661->0": [0.5, 1.5, 2.5, 3.5]},
             "schedule.scripted key must read 'src->dst' in ASCII digits without leading zeros, "
             "got '\u0661->0'"),
            ({"\u00b2->0": [0.5, 1.5, 2.5, 3.5]},  # isdigit, but int() refuses it
             "schedule.scripted key must read 'src->dst' in ASCII digits without leading zeros, "
             "got '\u00b2->0'"),
            ({"0->1": [1.0, 2.0, 3.0, 4.0, 4.5]},  # the horizon is 4.0
             "edge 0->1: send time 4.5 is past horizon 4.0"),
            ({"0->1": [0.0, 1.0, 2.0, 3.0, 4.0]},
             "edge 0->1: send time 0.0 is not after the run start"),
            ({"0->1": [-0.5, 0.5, 1.5, 2.5, 3.5]},
             "edge 0->1: send time -0.5 is not after the run start"),
        ],
    )
    def test_malformed_scripted_sends_refused(self, tmp_path, capsys, sends, named):
        doc = config_to_dict(preset("two_node"))
        doc["schedule"] = {"mode": "scripted", "scripted": {**TWO_NODE_SENDS, **sends}}
        config = write_doc(tmp_path, doc)
        assert main(["validate", "--config", config]) == 2
        assert capsys.readouterr().out == f"violation: {named}\n"
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field,text,key",
        [
            ("skew_threshold", '"skew_threshold": 1.0, "skew_threshold": 0.5', "skew_threshold"),
            ("schedule", '"schedule": {"mode": "scripted", "scripted": {"0->1": [1.0, 2.0, 3.0, '
             '4.0], "0->1": [1.0, 2.0, 3.0], "1->0": [1.0, 2.0, 3.0, 4.0]}}', "0->1"),
        ],
        ids=["top_level", "scripted_edge"],
    )
    def test_repeated_json_key_refused(self, tmp_path, capsys, field, text, key):
        # json.dumps cannot repeat a key, so the repeat is spliced in as text
        # in place of the field; either document runs without the repeat
        doc = config_to_dict(preset("two_node"))
        del doc[field]
        path = tmp_path / "config.json"
        path.write_text("{" + text + ", " + json.dumps(doc)[1:], encoding="utf-8")
        named = f"key {key!r} appears twice in one JSON object"
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().out == f"violation: {named}\n"
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()
        sweep = tmp_path / "sweep.json"
        base = path.read_text(encoding="utf-8")
        sweep.write_text(f'{{"parameter": "seed", "values": [1], "base": {base}}}', encoding="utf-8")
        assert main(["sweep", "--sweep", str(sweep), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,update,named",
        [
            ("drift", {"signs": [1, -1]}, "constant drift does not read signs"),
            ("drift", {"mode": "piecewise_random", "signs": [1, -1]},
             "piecewise_random drift does not read signs"),
            ("schedule", {"gap_min": 0.2}, "periodic schedule does not read gap_min"),
            ("schedule", {"mode": "scripted", "gap_min": 0.2, "scripted": TWO_NODE_SENDS},
             "scripted schedule does not read gap_min"),
            ("schedule", {"scripted": TWO_NODE_SENDS}, "periodic schedule does not read scripted"),
            ("schedule", {"mode": "random_uniform", "scripted": TWO_NODE_SENDS},
             "random_uniform schedule does not read scripted"),
        ],
    )
    def test_field_its_mode_does_not_read_refused(self, tmp_path, capsys, section, update, named):
        doc = config_to_dict(preset("two_node"))
        doc[section].update(update)
        config = write_doc(tmp_path, doc)
        assert main(["validate", "--config", config]) == 2
        assert capsys.readouterr().out == f"violation: {named}\n"
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_unread_non_finite_field_named_both_ways(self, tmp_path, capsys):
        doc = config_to_dict(preset("two_node"))
        doc["schedule"]["gap_min"] = float("nan")
        assert main(["validate", "--config", write_doc(tmp_path, doc)]) == 2
        out = capsys.readouterr().out
        assert "violation: schedule.gap_min must be finite, got nan\n" in out
        assert "violation: periodic schedule does not read gap_min\n" in out

    def test_config_only_rules_named_where_the_topology_does_not_build(self, tmp_path, capsys):
        doc = config_to_dict(build_wait_chain_scenario(4, 0.1, 1.0, 1.0))
        doc["topology"] = {"kind": "chain", "n": 1}
        doc["initiators"] = []
        doc["drift"]["signs"] = [1, 2]
        doc["schedule"]["mode"] = "scripted"
        assert main(["validate", "--config", write_doc(tmp_path, doc)]) == 2
        assert capsys.readouterr().out == (
            "violation: initiators must be nonempty\n"
            "violation: drift_signs must be +1 or -1, got (1, 2)\n"
            "violation: scripted schedule mode needs scripted_sends\n"
            "violation: chain needs n >= 2, got 1\n"
        )

    def test_summary_without_config_refused(self, tmp_path, capsys):
        config = write_doc(tmp_path, {"schema": "gradsync.summary/1", "node_count": 2})
        assert main(["validate", "--config", config]) == 2
        assert capsys.readouterr().out == "violation: config must be an object, got None\n"
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert "config must be an object, got None" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("warmup", ["nan", "inf", "-inf", "1e9"])
    def test_warmup_without_samples_refused(self, tmp_path, capsys, warmup):
        out = tmp_path / "out"
        code = main(["run", "--preset", "two_node", f"--warmup={warmup}", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"warmup {float(warmup)!r} leaves no sample" in err
        assert "the horizon 4.0" in err
        assert not out.exists()

    def test_sweep_warmup_without_samples_refused(self, tmp_path, capsys):
        spec = {"base": {"preset": "wait_chain"}, "parameter": "diameter", "values": [4]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["sweep", "--sweep", str(path), "--out", str(out), "--warmup", "nan"])
        assert code == 2
        assert "warmup nan leaves no sample" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec,named",
        [
            ([1, 2], "sweep spec must be an object, got [1, 2]"),
            ({"values": 5}, "values must be a nonempty list, got 5"),
            ({"values": []}, "values must be a nonempty list, got []"),
            ({"variants": "gradient"}, "variants must be a nonempty list of names"),
            ({"variants": [1]}, "variants must be a nonempty list of names"),
            ({"base": {"preset": 5}}, "base.preset must be a string, got 5"),
            ({"base": {"preset": ["wait_chain"]}}, "base.preset must be a string"),
            ({"base": {"preset": "wait_chain", "seed": 3}}, "unknown field 'base.seed'"),
            ({"base": {"preset": "nope"}}, "unknown preset 'nope'"),
            ({"base": [1]}, "base must be a config object"),
            ({"base": {"drift_bound": 0.1}}, "base: malformed config: missing required field 'topology'"),
            ({"parameter": "horizon"}, "parameter must be one of"),
            ({"valeus": [4]}, "unknown sweep field 'valeus'"),
            ({"schema": 42}, "schema must be 'gradsync.sweep/1', got 42"),
            ({"schema": "gradsync.sweep/2"}, "schema must be 'gradsync.sweep/1', got 'gradsync.sweep/2'"),
        ],
    )
    def test_malformed_sweep_spec_refused(self, tmp_path, capsys, spec, named):
        if isinstance(spec, dict):
            spec = {"base": {"preset": "wait_chain"}, "parameter": "diameter",
                    "values": [4], **spec}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sweep", "--sweep", str(path), "--out", str(out)]) == 2
        assert f"violation: {named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value,named",
        [
            ("--dt", "0", "dt must be positive and finite, got 0.0"),
            ("--dt", "-1e-3", "dt must be positive and finite, got -0.001"),
            ("--dt", "nan", "dt must be positive and finite, got nan"),
            ("--dt", "inf", "dt must be positive and finite, got inf"),
            ("--dt", "0.5", "dt 0.5 exceeds max_gap/10 = 0.1"),
            ("--dt", "1e-9", "dt 1e-09 needs about 8e+09 steps (2 nodes over horizon 4.0), "
                             "over the cap of 10,000,000"),
            ("--tol", "nan", "tol must be non-negative and finite, got nan"),
            ("--tol", "-1", "tol must be non-negative and finite, got -1.0"),
            ("--tol", "inf", "tol must be non-negative and finite, got inf"),
        ],
    )
    def test_bad_oracle_step_or_tolerance_refused(self, capsys, flag, value, named):
        assert main(["oracle-check", "--preset", "two_node", f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert f"violation: {named}" in captured.err
        assert "max deviation" not in captured.out


class TestDeterminismAcrossProcesses:
    def test_two_invocations_hash_identically(self, tmp_path):
        digests = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            proc = run_cli("run", "--preset", "wait_chain", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            digests.append(
                (
                    hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest(),
                    hashlib.sha256((out / "summary.json").read_bytes()).hexdigest(),
                )
            )
        assert digests[0] == digests[1]


class TestSweep:
    def sweep_spec(self, tmp_path, **kw):
        spec = {
            "schema": "gradsync.sweep/1",
            "base": {"preset": "wait_chain"},
            "parameter": "diameter",
            "values": [4, 8],
            "variants": ["gradient", "no_slowdown"],
        }
        spec.update(kw)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return path

    def test_diameter_sweep_aggregates(self, tmp_path):
        path = self.sweep_spec(tmp_path)
        code = main(["sweep", "--sweep", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        table = (tmp_path / "out" / "aggregate.csv").read_text().strip().split("\n")
        assert table[0].startswith("parameter,value,variant,")
        assert len(table) == 1 + 4  # 2 values x 2 variants
        assert (tmp_path / "out" / "diameter_4_gradient" / "summary.json").exists()

    def test_diameter_sweep_on_a_wait_chain_document(self, tmp_path):
        base = config_to_dict(build_wait_chain_scenario(4, 0.1, 1.0, 1.0))
        base["label"] = "my chain"
        path = self.sweep_spec(tmp_path, base=base, variants=["gradient"])
        assert main(["sweep", "--sweep", str(path), "--out", str(tmp_path / "out")]) == 0
        summary = json.loads(
            (tmp_path / "out" / "diameter_8_gradient" / "summary.json").read_text()
        )
        assert summary["config"]["topology"] == {"kind": "chain", "n": 9}
        assert summary["config"]["label"] == "my chain"
        assert summary["config"]["horizon"] == 20.0

    def test_diameter_sweep_on_a_wait_chain_with_its_own_horizon_refused(
        self, tmp_path, capsys
    ):
        base = config_to_dict(build_wait_chain_scenario(4, 0.1, 1.0, 1.0, horizon=100.0))
        path = self.sweep_spec(tmp_path, base=base)
        out = tmp_path / "out"
        assert main(["sweep", "--sweep", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "sweeping diameter requires the default horizon 12.0, got 100.0" in err
        assert not out.exists()

    def test_diameter_sweep_on_a_ring_refused(self, tmp_path, capsys):
        base = config_to_dict(preset("two_node"))
        base["topology"] = {"kind": "ring", "n": 5}
        path = self.sweep_spec(tmp_path, base=base)
        out = tmp_path / "out"
        assert main(["sweep", "--sweep", str(path), "--out", str(out)]) == 2
        assert "sweeping diameter requires a wait-chain base" in capsys.readouterr().err
        assert not out.exists()

    def test_no_slowdown_neighbor_skew_grows(self, tmp_path):
        path = self.sweep_spec(tmp_path, values=[4, 16])
        assert main(["sweep", "--sweep", str(path), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "aggregate.csv").read_text().strip().split("\n")[1:]
        skews = {}
        for row in rows:
            fields = row.split(",")
            skews[(int(fields[1]), fields[2])] = float(fields[4])
        assert skews[(16, "no_slowdown")] > 2.0 * skews[(4, "no_slowdown")]
        assert skews[(16, "gradient")] < 1.25 * skews[(4, "gradient")]

    @pytest.mark.parametrize("diameter", [10**19, 5_000_000])
    def test_diameter_over_the_pair_cap_refused_before_its_chain_is_built(
        self, tmp_path, capsys, diameter
    ):
        path = self.sweep_spec(tmp_path, values=[diameter], variants=["gradient"])
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(["sweep", "--sweep", str(path), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20
        assert f"wait chain of diameter {diameter:,} has over 10,000,000 node pairs" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_workload_over_the_cap_refused_before_any_point_runs(self, tmp_path, capsys):
        # D = 2000 passes the node-pair cap, but its sends exceed the workload cap
        path = self.sweep_spec(tmp_path, values=[4, 2000], variants=["gradient"])
        out = tmp_path / "out"
        assert main(["sweep", "--sweep", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "violation: point diameter=2000 variant=gradient: workload of about 1.6e+07 "
            "sends and drift segments over horizon 4004.0 exceeds the cap of 10,000,000: "
            "shorten the horizon or lengthen max_gap or drift.dwell\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_max_gap_over_the_workload_cap_refused_before_any_point_runs(
        self, tmp_path, capsys
    ):
        # max_gap 1e-6 passes every config rule, but its sends exceed the
        # workload cap; every max_gap point shares the base's topology
        base = config_to_dict(replace(preset("two_node"), skew_threshold=1e-6, horizon=10.0))
        path = self.sweep_spec(
            tmp_path, base=base, parameter="max_gap", values=[1.0, 1e-6], variants=["gradient"]
        )
        out = tmp_path / "out"
        assert main(["sweep", "--sweep", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "violation: point max_gap=1e-06 variant=gradient: workload of about 2e+07 "
            "sends and drift segments over horizon 10.0 exceeds the cap of 10,000,000: "
            "shorten the horizon or lengthen max_gap or drift.dwell\n"
        )
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("diameter", [1580, 1581])
    def test_wait_chain_workload_estimate_matches_the_run(self, diameter):
        config = build_wait_chain_scenario(diameter, 0.1, 1.0, 1.0)
        estimate = workload_violations(
            config, 2 * diameter, diameter + 1, config.horizon
        )
        assert estimate == validate_config(config)
        assert bool(estimate) == (diameter == 1581)

    def test_invalid_point_aborts_before_running(self, tmp_path):
        path = self.sweep_spec(tmp_path, values=[4, -2])
        out = tmp_path / "out"
        assert main(["sweep", "--sweep", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_base_without_initiators_refused_at_every_point_before_any_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        base = config_to_dict(preset("random_geometric"))
        base["initiators"] = []
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"base": base, "parameter": "seed", "values": [0, 1]}))
        runs = []
        monkeypatch.setattr("gradsync.cli.run", runs.append)
        out = tmp_path / "out"
        assert main(["sweep", "--sweep", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "".join(
            f"violation: point seed={seed} variant=gradient: initiators must be nonempty\n"
            for seed in (0, 1)
        )
        assert runs == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "values,variants,named",
        [
            ([4, 4], ["gradient"], ["point diameter=4 variant=gradient repeats an earlier point"]),
            ([4, 8], ["gradient", "gradient"], [
                "point diameter=4 variant=gradient repeats an earlier point",
                "point diameter=8 variant=gradient repeats an earlier point",
            ]),
            ([4, 4.0], ["gradient"], ["point diameter=4.0 variant=gradient repeats an earlier point"]),
        ],
    )
    def test_repeated_point_refused(self, tmp_path, capsys, values, variants, named):
        path = self.sweep_spec(tmp_path, values=values, variants=variants)
        out = tmp_path / "out"
        assert main(["sweep", "--sweep", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "".join(f"violation: {line}\n" for line in named)
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "parameter,values,named",
        [
            ("seed", ["a", -1.5, True], [
                "seed must be an integer, got 'a'",
                "seed must be an integer, got -1.5",
                "seed must be an integer, got True",
            ]),
            ("diameter", [0, "a", 5_000_000, 4], [
                "diameter must be >= 1, got 0",
                "diameter must be an integer, got 'a'",
                "wait chain of diameter 5,000,000 has over 10,000,000 node pairs",
            ]),
        ],
    )
    def test_every_value_problem_named_before_any_point_runs(
        self, tmp_path, capsys, parameter, values, named
    ):
        path = self.sweep_spec(tmp_path, parameter=parameter, values=values)
        out = tmp_path / "out"
        assert main(["sweep", "--sweep", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "".join(f"violation: {line}\n" for line in named)
        assert captured.out == ""
        assert not out.exists()

    def test_every_invalid_point_named_before_any_point_runs(self, tmp_path, capsys):
        path = self.sweep_spec(tmp_path, values=[4, 8], variants=["gradient", "gradeint"])
        out = tmp_path / "out"
        assert main(["sweep", "--sweep", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "violation: point diameter=4 variant=gradeint: unknown variant 'gradeint'\n"
            "violation: point diameter=8 variant=gradeint: unknown variant 'gradeint'\n"
        )
        assert "diameter_4_gradient:" not in captured.out
        assert not out.exists()

    def test_point_refused_by_its_run_leaves_nothing_written(self, tmp_path, capsys):
        # the second threshold exceeds (1 + drift_bound) * max_gap; it is
        # refused before the first point runs
        path = self.sweep_spec(
            tmp_path, parameter="skew_threshold", values=[1.0, 5.0], variants=["gradient"]
        )
        out = tmp_path / "out"
        assert main(["sweep", "--sweep", str(path), "--out", str(out)]) == 2
        assert "point skew_threshold=5.0 variant=gradient: skew_threshold 5.0 exceeds" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_seed_sweep_with_a_negative_seed_refused(self, tmp_path, capsys):
        base = config_to_dict(preset("random_geometric"))
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"base": base, "parameter": "seed", "values": [0, -1]}))
        out = tmp_path / "out"
        assert main(["sweep", "--sweep", str(path), "--out", str(out)]) == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_sweep_on_plain_config(self, tmp_path):
        base = config_to_dict(build_wait_chain_scenario(4, 0.1, 1.0, 1.0))
        spec = {
            "base": base,
            "parameter": "seed",
            "values": [0, 1, 2],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["sweep", "--sweep", str(path), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "aggregate.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 3


class TestOracleCheck:
    def test_small_preset_within_tolerance(self):
        assert (
            main(
                [
                    "oracle-check",
                    "--preset",
                    "drifting_chain",
                    "--dt",
                    "0.001",
                    "--tol",
                    "0.003",
                ]
            )
            == 0
        )

    def test_zero_tolerance_fails_on_drifting_run(self):
        assert (
            main(
                [
                    "oracle-check",
                    "--preset",
                    "drifting_chain",
                    "--dt",
                    "0.001",
                    "--tol",
                    "0",
                ]
            )
            == 1
        )

    def test_large_instance_rejected(self, capsys):
        code = main(["oracle-check", "--preset", "random_geometric"])
        assert code == 2
        assert "desk-scale" in capsys.readouterr().err

    def test_unknown_preset_rejected(self):
        assert main(["validate", "--preset", "nope"]) == 2


def test_validate_ok_path(capsys):
    assert main(["validate", "--preset", "wait_chain"]) == 0
    assert "ok" in capsys.readouterr().out


def test_seed_override():
    code = main(["validate", "--preset", "wait_chain", "--seed", "99"])
    assert code == 0
