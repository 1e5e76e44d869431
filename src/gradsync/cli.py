"""Command-line front end: validate, run, sweep, oracle-check.

Exit codes: 0 success, 1 oracle deviation beyond tolerance, 2 invalid or
malformed configuration, 3 a guaranteed bound check failed under --strict.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import (
    ConfigError,
    RunConfig,
    as_integer,
    as_number,
    build_wait_chain_scenario,
    config_from_dict,
    config_violations,
    default_horizon,
    is_wait_chain,
    workload_violations,
)
from .engine import resolve, run, validate_config
from .metrics import compute_report, summary_json_text, trace_csv_text
from .oracle import compare, oracle_run
from .presets import PRESETS, preset
from .topology import TopologyError

__all__ = ["main"]

SWEEPABLE = ("diameter", "skew_threshold", "drift_bound", "max_gap", "seed")
SWEEP_SCHEMA = "gradsync.sweep/1"
_SWEEP_FIELDS = ("schema", "base", "parameter", "values", "variants")


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key that it gives twice."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError([f"key {key!r} appears twice in one JSON object"])
        doc[key] = value
    return doc


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path} is not valid JSON: {exc}"]) from exc


def _load_config(args) -> RunConfig:
    """Config from --preset or --config; a summary document is accepted too."""
    if getattr(args, "preset", None):
        if args.preset not in PRESETS:
            raise ConfigError(
                [f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}"]
            )
        config = preset(args.preset)
    elif getattr(args, "config", None):
        data = _load_json(args.config)
        if isinstance(data, dict) and str(data.get("schema", "")).startswith(
            "gradsync.summary"
        ):
            data = data.get("config")  # absent, it is refused as not an object
        config = config_from_dict(data)
    else:
        raise ConfigError(["either --config PATH or --preset NAME is required"])
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    return config


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def cmd_validate(args) -> int:
    try:
        config = _load_config(args)
    except ConfigError as exc:
        for line in exc.violations:
            print(f"violation: {line}")
        return 2
    problems = validate_config(config)
    if problems:
        for line in problems:
            print(f"violation: {line}")
        return 2
    print("ok")
    return 0


def cmd_run(args) -> int:
    config = _load_config(args)
    trace = run(config)
    report = compute_report(trace, warmup=args.warmup)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trace.csv", "w", encoding="utf-8") as fh:
        trace_csv_text(trace, fh)
    _write(out / "summary.json", summary_json_text(trace, report))
    failed_guaranteed = False
    for v in report.bound_verdicts:
        status = "pass" if v.passed else "FAIL"
        print(
            f"{v.name}: {status} observed={v.observed!r} threshold={v.threshold!r} "
            f"margin={v.margin!r} [{v.scope}]"
        )
        if not v.passed and v.scope == "guaranteed":
            failed_guaranteed = True
    print(f"wrote {out / 'trace.csv'} and {out / 'summary.json'}")
    if args.strict and failed_guaranteed:
        return 3
    return 0


def _sweep_point(base, parameter: str, value, variant: str) -> RunConfig:
    """The config of one sweep point; value is already read. A diameter point
    is the wait chain of that diameter with the base's label."""
    if parameter != "diameter":
        return replace(base, **{parameter: value}, variant=variant)
    scenario = build_wait_chain_scenario(
        value, base.drift_bound, base.max_gap, base.skew_threshold, variant,
        seed=base.seed, process_on_start=base.process_on_start,
    )
    return replace(scenario, label=base.label)


def _sweep_points(base, parameter: str, values: list, variants: list) -> list:
    """(value, variant, config) of every point, values outer and variants
    inner; raises ConfigError naming every problem, a repeated point or a
    point's config violation too, and a workload over the cap. Each value
    is read once, by its reader."""
    problems: list[str] = []
    if parameter == "diameter" and not is_wait_chain(base):
        problems.append("sweeping diameter requires a wait-chain base")
    elif parameter == "diameter":
        # every point takes its diameter's default horizon
        horizon = _sweep_point(base, parameter, base.diameter_bound, base.variant).horizon
        if base.horizon != horizon:
            problems.append(
                f"sweeping diameter requires the default horizon {horizon}, got {base.horizon}"
            )
    buildable = not problems
    topology = None  # the base's, where every point shares it
    if parameter in ("skew_threshold", "drift_bound", "max_gap"):
        try:
            topology = base.topology.build(default_seed=max(base.seed, 0))
        except TopologyError:
            pass  # the first point's run names it, before any other runs
    read = as_integer if parameter in ("diameter", "seed") else as_number
    points, seen = [], set()
    for value in values:
        number = read(value, parameter, problems)
        if number is None or not buildable:
            continue
        try:  # a value refused for one variant is refused for every one
            for variant in variants:
                if (number, variant) in seen:
                    problems.append(
                        f"point {parameter}={value} variant={variant} repeats an earlier point"
                    )
                    continue
                seen.add((number, variant))
                config = _sweep_point(base, parameter, number, variant)
                found = config_violations(config)  # builds no topology
                if parameter == "diameter" and not found:
                    # the wait chain of diameter D has D + 1 nodes and 2 D directed edges
                    found = workload_violations(config, 2 * number, number + 1, config.horizon)
                elif topology is not None and not found:
                    found = workload_violations(
                        config, len(topology.directed_edges()), topology.node_count,
                        default_horizon(config, topology),
                    )
                for problem in found:
                    problems.append(f"point {parameter}={value} variant={variant}: {problem}")
                points.append((value, variant, config))
        except ConfigError as exc:
            problems.extend(exc.violations)
    if problems:
        raise ConfigError(problems)
    return points


def _read_sweep(spec):
    """(parameter, points) of a sweep spec, every point built as in
    _sweep_points before any runs; raises ConfigError naming every problem."""
    if not isinstance(spec, dict):
        raise ConfigError([f"sweep spec must be an object, got {spec!r}"])
    problems = [f"unknown sweep field {key!r}" for key in spec if key not in _SWEEP_FIELDS]
    schema = spec.get("schema", SWEEP_SCHEMA)
    if schema != SWEEP_SCHEMA:
        problems.append(f"schema must be {SWEEP_SCHEMA!r}, got {schema!r}")
    parameter = spec.get("parameter")
    if parameter not in SWEEPABLE:
        problems.append(f"parameter must be one of {', '.join(SWEEPABLE)}, got {parameter!r}")
    values = spec.get("values")
    if not isinstance(values, list) or not values:
        problems.append(f"values must be a nonempty list, got {values!r}")
    variants = spec.get("variants")
    if variants is not None and not (
        isinstance(variants, list) and variants and all(isinstance(v, str) for v in variants)
    ):
        problems.append(f"variants must be a nonempty list of names, got {variants!r}")
    base_doc = spec.get("base")
    base = None
    if not isinstance(base_doc, dict):
        problems.append("base must be a config object or {'preset': name}")
    elif "preset" in base_doc:
        name = base_doc["preset"]
        problems.extend(f"unknown field 'base.{key}'" for key in base_doc if key != "preset")
        if not isinstance(name, str):
            problems.append(f"base.preset must be a string, got {name!r}")
        elif name not in PRESETS:
            problems.append(f"unknown preset {name!r}")
        else:
            base = preset(name)
    else:
        try:
            base = config_from_dict(base_doc)
        except ConfigError as exc:
            problems.extend(f"base: {line}" for line in exc.violations)
    if problems:
        raise ConfigError(problems)
    return parameter, _sweep_points(base, parameter, values, variants or [base.variant])


def cmd_sweep(args) -> int:
    """Run every point, then write every output: a point that fails
    validation leaves nothing written. Each run checks what needs its
    topology, building it once."""
    parameter, points = _read_sweep(_load_json(args.sweep))

    out = Path(args.out)
    summaries = []
    rows = ["parameter,value,variant,max_global_skew,neighbor_max_skew,min_rate,reduced_periods"]
    for value, variant, cfg in points:
        try:
            trace = run(cfg)
        except ConfigError as exc:
            raise ConfigError(
                [f"point {parameter}={value} variant={variant}: {p}" for p in exc.violations]
            ) from None
        report = compute_report(trace, warmup=args.warmup)
        tag = f"{parameter}_{value}_{variant}"
        summaries.append((out / tag / "summary.json", summary_json_text(trace, report)))
        del trace  # free this run before the next one starts
        rows.append(
            ",".join(
                [
                    parameter,
                    repr(value) if isinstance(value, float) else str(value),
                    variant,
                    repr(report.max_global_skew),
                    repr(report.gradient_profile.get(1, 0.0)),
                    repr(report.min_rate),
                    str(len(report.reduced_rate_durations)),
                ]
            )
        )
        print(f"{tag}: global={report.max_global_skew!r} "
              f"neighbor={report.gradient_profile.get(1, 0.0)!r}")
    for path, text in summaries:
        _write(path, text)
    _write(out / "aggregate.csv", "\n".join(rows) + "\n")
    print(f"wrote {out / 'aggregate.csv'} ({len(points)} points)")
    return 0


def cmd_oracle_check(args) -> int:
    config = _load_config(args)
    node_count = resolve(config).topology.node_count
    if node_count > args.cap:
        raise ConfigError(
            [
                f"{node_count} nodes exceeds the oracle cap {args.cap}; "
                "the reference simulator is for desk-scale instances"
            ]
        )
    trace = run(config)
    reference = oracle_run(config, args.dt)
    outcome = compare(trace, reference, args.tol)
    print(f"max deviation: {outcome.max_deviation!r} (tolerance {args.tol!r})")
    if outcome.first_exceedance is not None:
        t, node, dev = outcome.first_exceedance
        print(f"first exceedance: t={t!r} node={node} deviation={dev!r}")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradsync",
        description="Simulate gradient clock synchronization and check its skew bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="JSON config (or a previous summary.json)")
        p.add_argument("--preset", help=f"named scenario: {', '.join(sorted(PRESETS))}")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_run = sub.add_parser("run", help="execute one run and write trace + summary")
    add_config_args(p_run)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--strict", action="store_true",
                       help="exit 3 if a guaranteed bound check fails")
    p_run.add_argument("--warmup", type=float, default=0.0,
                       help="measure skews only from this time on")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep and aggregate results")
    p_sweep.add_argument("--sweep", required=True, help="JSON sweep spec")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--warmup", type=float, default=0.0)
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle-check",
                              help="compare the engine against the step-based reference")
    add_config_args(p_oracle)
    p_oracle.add_argument("--dt", type=float, default=1e-3, help="oracle step size")
    p_oracle.add_argument("--tol", type=float, default=3e-3, help="max allowed deviation")
    p_oracle.add_argument("--cap", type=int, default=8, help="max node count")
    p_oracle.set_defaults(func=cmd_oracle_check)

    p_val = sub.add_parser("validate", help="check a config and report all violations")
    add_config_args(p_val)
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for line in exc.violations:
            print(f"violation: {line}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
