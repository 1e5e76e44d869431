"""Benchmark workloads: the CLI command each one runs, and its output check.

Every workload is one real user command, run in-process through
``gradsync.cli.main``. Its inputs are made from the benchmark seed alone,
so the same seed gives the same command and the same outputs. Two sizes
exist: ``full`` is what the benchmark measures, ``tiny`` is the same
command shape at desk scale for the smoke test.

This module imports gradsync lazily, inside the functions that need it,
so that the set-up probe can time ``import gradsync`` itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

NAMES = ("wait_chain", "random_field", "trace_export")
SIZES = ("full", "tiny")

# The random field keeps one topology for every seed. Across topology seeds
# the edge count of rgg(80, 0.22) has an interquartile range of 8.7% of its
# median and the diameter (hence the default horizon) ranges over 7..10, so
# per-op cost would spread by more than the benchmark's bounds. The seed
# draws the drift schedules and the send schedule instead.
RANDOM_FIELD_TOPOLOGY_SEED = 11

_WAIT_CHAIN_DIAMETERS = {"full": [32, 64, 128], "tiny": [4, 8]}
_RANDOM_FIELD_NODES = {"full": (80, 0.22), "tiny": (12, 0.5)}


@dataclass(frozen=True)
class Op:
    """One workload instance: files to write, then ``gradsync <argv>``.

    ``argv`` refers to the output directory as ``{out}`` and to input files
    by their names in ``inputs``; ``command`` fills both in.
    """

    workload: str
    seed: int
    size: str
    argv: tuple[str, ...]
    inputs: dict
    expected_summaries: int
    writes_trace: bool

    def command(self, input_dir: Path, out_dir: Path) -> list[str]:
        paths = {name: str(input_dir / name) for name in self.inputs}
        return [
            str(out_dir) if arg == "{out}" else paths.get(arg, arg) for arg in self.argv
        ]

    def write_inputs(self, input_dir: Path) -> None:
        input_dir.mkdir(parents=True, exist_ok=True)
        for name, doc in self.inputs.items():
            (input_dir / name).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def _random_field_base(seed: int, size: str) -> dict:
    n, radius = _RANDOM_FIELD_NODES[size]
    return {
        "topology": {
            "kind": "random_geometric",
            "n": n,
            "radius": radius,
            "seed": RANDOM_FIELD_TOPOLOGY_SEED,
        },
        "drift_bound": 0.1,
        "max_gap": 1.0,
        "skew_threshold": 1.0,
        "drift": {"mode": "piecewise_random", "dwell": 1.0},
        "schedule": {"mode": "random_uniform"},
        "seed": seed,
        "label": "random_field",
    }


def _tiny_field_config(seed: int) -> dict:
    """The random_geometric preset shrunk to 12 nodes, as a config document."""
    from gradsync import config_to_dict, preset

    doc = config_to_dict(replace(preset("random_geometric"), seed=seed))
    doc["topology"].update(n=12, radius=0.5)
    return doc


def make_op(workload: str, seed: int, size: str = "full") -> Op:
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {', '.join(SIZES)}")
    if workload == "wait_chain":
        values = _WAIT_CHAIN_DIAMETERS[size]
        variants = ["gradient", "no_slowdown"]
        spec = {
            "base": {"preset": "wait_chain"},
            "parameter": "diameter",
            "values": values,
            "variants": variants,
        }
        return Op(workload, seed, size, ("sweep", "--sweep", "sweep.json", "--out", "{out}"),
                  {"sweep.json": spec}, len(values) * len(variants), False)
    if workload == "random_field":
        spec = {"base": _random_field_base(seed, size), "parameter": "seed", "values": [seed]}
        return Op(workload, seed, size, ("sweep", "--sweep", "sweep.json", "--out", "{out}"),
                  {"sweep.json": spec}, 1, False)
    if workload == "trace_export":
        if size == "full":
            argv = ("run", "--preset", "random_geometric", "--seed", str(seed), "--out", "{out}")
            inputs = {}
        else:
            argv = ("run", "--config", "config.json", "--seed", str(seed), "--out", "{out}")
            inputs = {"config.json": _tiny_field_config(seed)}
        return Op(workload, seed, size, argv, inputs, 1, True)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")


def op_configs(op: Op) -> list:
    """The RunConfig of every run the op performs, built as the CLI builds them."""
    import gradsync

    if op.workload == "wait_chain":
        spec = op.inputs["sweep.json"]
        base = gradsync.preset("wait_chain")
        return [
            gradsync.build_wait_chain_scenario(
                diameter=int(value),
                drift_bound=base.drift_bound,
                max_gap=base.max_gap,
                skew_threshold=base.skew_threshold,
                variant=variant,
                seed=base.seed,
                process_on_start=base.process_on_start,
            )
            for value in spec["values"]
            for variant in spec["variants"]
        ]
    if op.workload == "random_field":
        spec = op.inputs["sweep.json"]
        base = gradsync.config_from_dict(spec["base"])
        return [replace(base, seed=int(value)) for value in spec["values"]]
    if op.size == "full":
        return [replace(gradsync.preset("random_geometric"), seed=op.seed)]
    return [gradsync.config_from_dict(op.inputs["config.json"])]


def check_outputs(op: Op, out_dir: Path) -> tuple[str, list[str]]:
    """Digest of the op's results and the problems found in them.

    The digest covers the ``report`` block of every summary.json, with
    floats written by ``repr`` so a last-ulp change alters it, plus the
    bytes of trace.csv where the command writes one. A problem is a missing
    file or a guaranteed bound verdict that did not pass.
    """
    problems = []
    digest = hashlib.sha256()
    summaries = sorted(out_dir.rglob("summary.json"))
    if len(summaries) != op.expected_summaries:
        problems.append(
            f"expected {op.expected_summaries} summary.json files, found {len(summaries)}"
        )
    for path in summaries:
        report = json.loads(path.read_text(encoding="utf-8"))["report"]
        rel = path.relative_to(out_dir).as_posix()
        digest.update(rel.encode())
        digest.update(json.dumps(report, sort_keys=True).encode())
        for verdict in report["verdicts"]:
            if verdict["scope"] == "guaranteed" and not verdict["passed"]:
                problems.append(f"{rel}: guaranteed verdict {verdict['name']} failed")
    if op.writes_trace:
        trace = out_dir / "trace.csv"
        if not trace.is_file():
            problems.append("trace.csv missing")
        else:
            with trace.open("rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
    return digest.hexdigest(), problems
