"""One fresh process per measurement, started by run.py.

    worker.py setup --workload W --seed N [--size S]
        prints the seconds this process spends on ``import gradsync`` plus
        ``validate_config`` of every config the op will run.

    worker.py ops --workload W --seed N --seconds T --trace 0|1 --workdir DIR --out FILE
        runs one untimed warm-up op, then timed ops for T seconds, checks
        each op's outputs, runs a set-up probe after the warm-up and after
        each timed round (at least SETUP_PROBES in all), and writes the raw
        results as JSON to FILE.

gradsync must be importable (run.py puts the checkout's ``src`` first on
PYTHONPATH). The untraced ops run the program exactly as a user would;
with ``--trace 1`` traced and untraced ops alternate, so the difference of
their medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

import workloads

SETUP_PROBES = 5


def cmd_setup(args) -> None:
    if "gradsync" in sys.modules or "numpy" in sys.modules:
        raise RuntimeError("set-up probe must start without gradsync or numpy loaded")
    start = perf_counter()
    import gradsync
    import gradsync.cli

    op = workloads.make_op(args.workload, args.seed, args.size)
    for config in workloads.op_configs(op):
        problems = gradsync.validate_config(config)
        if problems:
            raise gradsync.ConfigError(problems)
    print(repr(perf_counter() - start))


def probe_setup(args) -> float:
    """Set-up seconds measured by a fresh ``worker.py setup`` process.

    The worker waits for it, so the probe never shares the CPU with an op.
    """
    proc = subprocess.run(
        [sys.executable, __file__, "setup", "--workload", args.workload,
         "--seed", str(args.seed), "--size", args.size],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout.split()[-1])


def _run_stats(trace) -> dict:
    """Deterministic counts of one simulated run."""
    n = trace.node_count
    samples = int(trace.sample_times.size)
    return {
        "nodes": n,
        "events": len(trace.events),
        "payload_events": sum(1 for ev in trace.events if ev.payload is not None),
        "jumps": sum(1 for ev in trace.events if ev.jump > 0.0),
        "slowdown_episodes": sum(len(iv) for iv in trace.reduced_intervals.values()),
        "segments": sum(len(clock.schedule.breakpoints) for clock in trace.clocks),
        "samples": samples,
        "dense_mb": 3 * n * samples * 8 / 1e6,
    }


def _written(out_dir: Path) -> tuple[int, int, int]:
    """Files and bytes under out_dir, and the bytes of the rendered outputs."""
    sizes = {p: p.stat().st_size for p in out_dir.rglob("*") if p.is_file()}
    rendered = sum(size for p, size in sizes.items() if p.name in ("summary.json", "trace.csv"))
    return len(sizes), sum(sizes.values()), rendered


def run_op(op, op_id: int, workdir: Path, main) -> dict:
    """Run ``gradsync <argv>`` once in-process, timed from outside, and check it."""
    input_dir = workdir / "inputs"
    out_dir = workdir / f"op{op_id}"
    argv = op.command(input_dir, out_dir)
    gc.collect()
    sink = io.StringIO()
    error = None
    start, cpu_start = perf_counter(), process_time()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = main(argv)
    except Exception:  # an op that raises is a failed op, not a failed benchmark
        code, error = None, traceback.format_exc()
    record = {
        "id": op_id,
        "wall_s": perf_counter() - start,
        "cpu_s": process_time() - cpu_start,
        "code": code,
        "digest": None,
        "problems": [],
    }
    record["files_written"], record["bytes_written"], record["render_bytes"] = _written(out_dir)
    if error is not None:
        record["problems"].append(f"raised:\n{error}")
    elif code != 0:
        record["problems"].append(f"exit code {code}: {sink.getvalue()[-2000:]}")
    else:
        record["digest"], record["problems"] = workloads.check_outputs(op, out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return record


def warm_up(op, workdir: Path, gradsync) -> tuple[dict, list[dict]]:
    """The untimed first op; it also records the counts of every run it makes."""
    stats = []
    original = gradsync.cli.run

    def observed_run(config):
        trace = original(config)
        stats.append(_run_stats(trace))
        return trace

    gradsync.cli.run = observed_run
    try:
        record = run_op(op, 0, workdir, gradsync.cli.main)
    finally:
        gradsync.cli.run = original
    return record, stats


def cmd_ops(args) -> None:
    import numpy
    import gradsync
    import gradsync.cli
    from tracer import Tracer

    workdir = Path(args.workdir)
    op = workloads.make_op(args.workload, args.seed, args.size)
    op.write_inputs(workdir / "inputs")

    warm, stats = warm_up(op, workdir, gradsync)
    warm["kind"] = "warmup"
    ops = [warm]
    setup = [probe_setup(args)]
    tracer = Tracer() if args.trace else None
    traced_main = tracer.wrap_span("cli.main", gradsync.cli.main) if tracer else None

    window_start = perf_counter()
    while True:
        iteration_start = perf_counter()
        record = run_op(op, len(ops), workdir, gradsync.cli.main)
        record["kind"] = "untraced"
        ops.append(record)
        if tracer is not None:
            op_id = len(ops)
            tracer.begin_op(op_id)
            tracer.install(gradsync)
            try:
                record = run_op(op, op_id, workdir, traced_main)
            finally:
                tracer.uninstall()
            tracer.end_op()
            record["kind"] = "traced"
            record["spans"] = tracer.op_spans(op_id)
            record["counters"] = tracer.op_counters[op_id]
            ops.append(record)
        setup.append(probe_setup(args))
        now = perf_counter()
        # start another op only if it should end inside the window
        if now - window_start + (now - iteration_start) > args.seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(args))

    result = {
        "workload": op.workload,
        "seed": op.seed,
        "size": op.size,
        "argv": list(op.argv),
        "ops": ops,
        "runs": stats,
        "window_s": perf_counter() - window_start,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gradsync_file": gradsync.__file__,
    }
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, func in (("setup", cmd_setup), ("ops", cmd_ops)):
        p = sub.add_parser(mode)
        p.add_argument("--workload", required=True, choices=workloads.NAMES)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--size", default="full", choices=workloads.SIZES)
        p.set_defaults(func=func)
        if mode == "ops":
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
            p.add_argument("--workdir", required=True)
            p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
