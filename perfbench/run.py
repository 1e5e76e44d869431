"""gradsync benchmark: time one workload, check its outputs, print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wait_chain --seed 11 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 11 --seconds 40 --trace 0
    python3 perfbench/run.py --workload trace_export --seed 3 --seconds 40 --trace 1 \\
        --result perfbench/results/after.json
    python3 perfbench/run.py --compare perfbench/results/before.json perfbench/results/after.json

The gated workloads, their metrics and the bound of each end-to-end metric
are declared in BENCHMARK.json; the reasons behind them, the per-layer
predictions and the pinned output digests are in perfbench/design.json.
``trace_export`` runs the same way but is not declared there (see
design.json), and ``--workload all`` measures every workload in turn.

A run starts one fresh worker process that runs an untimed warm-up op and
timed ops for ``--seconds``; after each op it starts a fresh set-up probe
(``import gradsync`` plus ``validate_config`` of the op's configs), so the
set-up samples are spread over the run like the op timings. With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of the traced ops and the tracing overhead. The last
line of standard output is the result as one JSON object. ``--result``
appends the full record (stamp, samples, spans) to a JSON file that
``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DEADLINE_S = 170.0
# Keep numpy's BLAS and OpenMP pools at one thread: each op is single-threaded.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def load_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def checkout_src() -> Path:
    src = ROOT / "src"
    if not (src / "gradsync" / "__init__.py").is_file():
        raise BenchError(f"no gradsync sources under {src}; run from a full checkout")
    return src


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_ops(args, env: dict, workdir: Path) -> dict:
    """Run the worker in a fresh process and return its raw results."""
    out = workdir / "worker.json"
    command = [
        sys.executable, str(WORKER), "ops",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
        "--out", str(out),
    ]
    try:
        proc = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=DEADLINE_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    raw = load_json(out)
    if not Path(raw["gradsync_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"worker imported gradsync from {raw['gradsync_file']}")
    return raw


def judge_ops(ops: list[dict], pinned: str | None) -> tuple[str | None, int]:
    """Reference digest and the number of failed ops.

    An op fails if it raised, exited non-zero, wrote outputs that fail the
    workload's check, or produced a digest other than the reference: the
    pinned digest where one exists, else the digest most ops agree on.
    """
    digests = [op["digest"] for op in ops if op["digest"] is not None]
    reference = pinned
    if reference is None and digests:
        reference = Counter(digests).most_common(1)[0][0]
    failed = 0
    for op in ops:
        if op["problems"] or op["digest"] != reference:
            failed += 1
            if not op["problems"]:
                op["problems"].append(f"digest {op['digest']} differs from {reference}")
    return reference, failed


def _total(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _self(spans, name):
    return sum(s["self_s"] for s in spans if s["name"] == name)


def layer_metrics(op: dict, runs: list[dict]) -> dict:
    """Per-layer figures of one traced op; counts of runs come from the warm-up."""
    spans, counters = op["spans"], op["counters"]
    engine_runs = sum(1 for s in spans if s["name"] == "engine.run")
    builds = sum(1 for s in spans if s["name"] == "topology.build")
    events = sum(r["events"] for r in runs)
    return {
        "topology.build_s": _total(spans, "topology.build"),
        "topology.builds": builds,
        "topology.builds_per_run": builds / engine_runs if engine_runs else 0.0,
        "clocks.hw_calls": counters["clocks.hardware_time"][0],
        "clocks.hw_s": counters["clocks.hardware_time"][1],
        "clocks.segments": sum(r["segments"] for r in runs),
        "engine.run_s": _total(spans, "engine.run"),
        "engine.run_self_s": _self(spans, "engine.run"),
        "engine.schedule_s": _total(spans, "engine.generate_schedule"),
        "engine.order_s": _total(spans, "engine.order"),
        "engine.events": events,
        "engine.payload_ratio": sum(r["payload_events"] for r in runs) / events if events else 0.0,
        "engine.samples": sum(r["samples"] for r in runs),
        "engine.dense_mb": max((r["dense_mb"] for r in runs), default=0.0),
        "protocol.on_receive_calls": counters["protocol.on_receive"][0],
        "protocol.on_receive_s": counters["protocol.on_receive"][1],
        "protocol.emit_payload_s": counters["protocol.emit_payload"][1],
        "protocol.rate_factor_calls": counters["protocol.rate_factor"][0],
        "protocol.rate_factor_s": counters["protocol.rate_factor"][1],
        "protocol.jumps": sum(r["jumps"] for r in runs),
        "protocol.slowdown_episodes": sum(r["slowdown_episodes"] for r in runs),
        "metrics.report_s": _total(spans, "metrics.compute_report"),
        "metrics.global_skew_s": _total(spans, "metrics.global_skew"),
        "metrics.per_edge_s": _total(spans, "metrics.per_edge_max_skew"),
        "metrics.gradient_profile_s": _total(spans, "metrics.gradient_profile"),
        "metrics.summary_json_s": _total(spans, "metrics.summary_json_text"),
        "metrics.render_s": _total(spans, "metrics.summary_json_text")
        + _total(spans, "metrics.trace_csv_text"),
        "metrics.render_mb": op["render_bytes"] / 1e6,
        "cli.self_s": _self(spans, "cli.main"),
        "cli.files_written": op["files_written"],
        "cli.bytes_written": op["bytes_written"],
    }


def op_shares(op: dict) -> dict:
    """Share of one traced op's wall time per top-level step."""
    spans = op["spans"]
    wall = _total(spans, "cli.main")
    steps = {
        "engine.run": _total(spans, "engine.run"),
        "engine.validate_config": _total(spans, "engine.validate_config"),
        "metrics.compute_report": _total(spans, "metrics.compute_report"),
        "metrics.summary_json_text": _total(spans, "metrics.summary_json_text"),
        "metrics.trace_csv_text": _total(spans, "metrics.trace_csv_text"),
        "cli.self": _self(spans, "cli.main"),
    }
    return {name: value / wall for name, value in steps.items()}


def stamp(args, raw: dict) -> dict:
    out = {
        "git_sha": None,
        "git_dirty": None,
        "python": raw["python"],
        "numpy": raw["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": args.seed,
        "events_per_op": sum(r["events"] for r in raw["runs"]),
        "samples_per_op": sum(r["samples"] for r in raw["runs"]),
        "runs_per_op": len(raw["runs"]),
    }
    if (ROOT / ".git").exists() and shutil.which("git"):
        env = dict(os.environ, GIT_OPTIONAL_LOCKS="0")

        def git(*cmd):
            return subprocess.run(
                ["git", *cmd], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
            ).stdout.strip()

        out["git_sha"] = git("rev-parse", "HEAD") or None
        out["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return out


def measure(args) -> dict:
    spec = load_json(ROOT / "BENCHMARK.json")
    design = load_json(HERE / "design.json")
    src = checkout_src()
    env = child_env(src)
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        raw = measure_ops(args, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    pins = design["pinned"]
    pinned = None
    if args.size == "full" and (args.seed == pins["seed"] or args.workload in pins["seed_free"]):
        pinned = pins["digests"].get(args.workload)
    ops = raw["ops"]
    reference, failed = judge_ops(ops, pinned)
    untraced = [op for op in ops if op["kind"] == "untraced"]
    traced = [op for op in ops if op["kind"] == "traced"]
    events = sum(r["events"] for r in raw["runs"])
    wall = median(op["wall_s"] for op in untraced)
    cpu = median(op["cpu_s"] for op in untraced)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp(args, raw),
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "digest": reference,
        "pinned_digest": pinned,
        "problems": [p for op in ops for p in op["problems"]][:5],
        "samples": {
            "wall_s": [op["wall_s"] for op in untraced],
            "cpu_s": [op["cpu_s"] for op in untraced],
            "setup_s": raw["setup_s"],
        },
        "end_to_end": {
            "wall_s": wall,
            "cpu_s": cpu,
            "events_per_s": events / cpu,
            "peak_rss_mb": raw["peak_rss_mb"],
            "setup_s": median(raw["setup_s"]),
        },
    }
    if traced:
        per_op = [layer_metrics(op, raw["runs"]) for op in traced]
        traced_wall = [op["wall_s"] for op in traced]
        layers = {name: median(m[name] for m in per_op) for name in per_op[0]}
        layers["trace.overhead_s"] = median(traced_wall) - wall
        record["samples"]["traced_wall_s"] = traced_wall
        record["per_layer"] = layers
        record["shares"] = op_shares(traced[len(traced) // 2])
        record["spans"] = {str(op["id"]): op["spans"] for op in traced}
        record["counters"] = {str(op["id"]): op["counters"] for op in traced}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = record["per_layer"] if args.trace else record["end_to_end"]
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return record


def print_human(record: dict, spec: dict) -> None:
    e2e = record["end_to_end"]
    failed_ops = record["failed"] / record["attempted"]
    print(f"workload {record['workload']}  seed {record['seed']}  size {record['size']}"
          f"  digest {str(record['digest'])[:16]}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name in ("wall_s", "cpu_s"):
        samples = record["samples"][name]
        print(f"  {name:<13} {e2e[name]:.4f} {units[name]}  "
              f"(median of {len(samples)} timed ops; max {max(samples):.4f} s)")
    for name in ("events_per_s", "peak_rss_mb"):
        print(f"  {name:<13} {e2e[name]:.4f} {units[name]}")
    print(f"  setup_s       {e2e['setup_s']:.4f} {units['setup_s']}  "
          f"(median of {len(record['samples']['setup_s'])} fresh processes)")
    print(f"  failed_ops    {failed_ops:.4f} ratio  ({record['failed']} of {record['attempted']} ops)")
    for problem in record["problems"]:
        print(f"  problem: {problem.strip().splitlines()[-1]}")
    if "per_layer" in record:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in record["per_layer"].items():
            print(f"  {name:<28} {value:.6g} {units.get(name, '')}")
        shares = ", ".join(f"{k} {v:.3f}" for k, v in record["shares"].items())
        print(f"  share of traced op: {shares}")


def append_result(path: Path, record: dict) -> None:
    doc = load_json(path) if path.exists() else {"runs": []}
    doc["runs"].append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def verdict(old: list[float], new: list[float], pairs, better: str, bound: float) -> str:
    """improved / unchanged / worse / unresolved, by the benchmark's own bounds.

    Worse: the new median is worse than the old by more than the bound.
    Improved: it is better by more than the old runs' interquartile spread
    and the new side wins at least nine tenths of the seed-matched pairs.
    Where the old spread exceeds the bound, only a clean sweep (every new
    run better than every old run) resolves the row.
    """
    sign = 1.0 if better == "lower" else -1.0
    q1, old_med, q3 = _quartiles(old)
    new_med = median(new)
    worse_by = sign * (new_med - old_med) / old_med
    spread = (q3 - q1) / old_med
    if spread > bound:
        clean = max(sign * v for v in new) < min(sign * v for v in old)
        return "improved" if clean else "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(1 for a, b in pairs if sign * b < sign * a)
    if -worse_by > spread and pairs and wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def _fmt_quartiles(values: list[float]) -> str:
    q1, q2, q3 = _quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(old_path: Path, new_path: Path) -> int:
    """Print one row per workload and end-to-end metric; exit 1 on a digest mismatch."""
    spec = load_json(ROOT / "BENCHMARK.json")
    old_runs, new_runs = (
        [r for r in load_json(path)["runs"] if r["trace"] == 0] for path in (old_path, new_path)
    )
    print(f"{'workload':<13} {'metric':<13} {'old median [q1, q3]':<32} "
          f"{'new median [q1, q3]':<32} {'change':>8}  verdict")
    mismatches = 0
    for name in sorted({r["workload"] for r in old_runs + new_runs}):
        old = [r for r in old_runs if r["workload"] == name]
        new = [r for r in new_runs if r["workload"] == name]
        if not old or not new:
            print(f"{name:<13} present in only one file")
            continue
        by_seed = {(r["seed"], r["size"]): r for r in old}
        matched = [(by_seed[r["seed"], r["size"]], r) for r in new if (r["seed"], r["size"]) in by_seed]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            a = [r["end_to_end"][key] for r in old]
            b = [r["end_to_end"][key] for r in new]
            pairs = [(x["end_to_end"][key], y["end_to_end"][key]) for x, y in matched]
            change = (median(b) - median(a)) / median(a)
            label = verdict(a, b, pairs, metric["better"], metric["bound"])
            print(f"{name:<13} {key:<13} {_fmt_quartiles(a):<32} {_fmt_quartiles(b):<32} "
                  f"{change:+8.2%}  {label} (bound {metric['bound']:.0%}, runs {len(a)}/{len(b)})")
        failed = [sum(r["failed"] for r in side) for side in (old, new)]
        attempted = [sum(r["attempted"] for r in side) for side in (old, new)]
        print(f"{name:<13} {'failed_ops':<13} {failed[0]}/{attempted[0]} -> {failed[1]}/{attempted[1]}")
        for x, y in matched:
            if x["digest"] != y["digest"]:
                mismatches += 1
                print(f"{name:<13} DIGEST MISMATCH at seed {y['seed']}: "
                      f"{str(x['digest'])[:16]} -> {str(y['digest'])[:16]}")
    return 1 if mismatches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.NAMES, "all"),
                        help="all measures every workload in turn, each in a fresh worker")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=workloads.SIZES,
                        help="tiny runs the same commands at desk scale (smoke test)")
    parser.add_argument("--result", type=Path, help="append the full run record to this JSON file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="compare two result files instead of measuring")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required to measure")
    spec = load_json(ROOT / "BENCHMARK.json")
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            record = measure(argparse.Namespace(**{**vars(args), "workload": name}))
        except (BenchError, OSError, KeyError, ValueError) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 2
        print_human(record, spec)
        if args.result:
            append_result(args.result, record)
        print(json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
