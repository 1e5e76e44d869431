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

from .engine import (
    ConfigError,
    RunConfig,
    as_integer,
    as_number,
    build_wait_chain_scenario,
    config_from_dict,
    run,
    validate_config,
)
from .metrics import compute_report, summary_json_text, trace_csv_text
from .oracle import compare, oracle_run
from .presets import PRESETS, preset

__all__ = ["main"]

SWEEPABLE = ("diameter", "skew_threshold", "drift_bound", "max_gap", "seed")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
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
            data = data["config"]
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
    try:
        config = _load_config(args)
        trace = run(config)
    except ConfigError as exc:
        for line in exc.violations:
            print(f"violation: {line}", file=sys.stderr)
        return 2
    if args.inject_skew:
        node, delta = args.inject_skew.split(":")
        logical = trace.logical.copy()
        logical[int(node), :] += float(delta)
        trace = replace(trace, logical=logical)
    report = compute_report(trace, warmup=args.warmup)
    out = Path(args.out)
    _write(out / "trace.csv", trace_csv_text(trace))
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


def _sweep_point(base, base_is_preset: bool, parameter: str, value, variant: str) -> RunConfig:
    problems: list[str] = []
    if parameter in ("diameter", "seed"):
        value = as_integer(value, parameter, problems)
    else:
        value = as_number(value, parameter, problems)
    if problems:
        raise ConfigError(problems)
    if parameter == "diameter":
        if not (base_is_preset and base.label == "wait_chain"):
            raise ConfigError(
                ["sweeping diameter requires the wait_chain preset as base"]
            )
        return build_wait_chain_scenario(
            diameter=value,
            drift_bound=base.drift_bound,
            max_gap=base.max_gap,
            skew_threshold=base.skew_threshold,
            variant=variant,
            seed=base.seed,
            process_on_start=base.process_on_start,
        )
    if parameter == "seed":
        return replace(base, seed=value, variant=variant)
    return replace(base, **{parameter: value}, variant=variant)


def cmd_sweep(args) -> int:
    try:
        spec = _load_json(args.sweep)
        parameter = spec.get("parameter")
        if parameter not in SWEEPABLE:
            raise ConfigError(
                [f"parameter must be one of {', '.join(SWEEPABLE)}, got {parameter!r}"]
            )
        values = spec.get("values")
        if not values:
            raise ConfigError(["values must be a nonempty list"])
        base_doc = spec.get("base")
        if not isinstance(base_doc, dict):
            raise ConfigError(["base must be a config object or {'preset': name}"])
        base_is_preset = "preset" in base_doc
        if base_is_preset:
            base = preset(base_doc["preset"]) if base_doc["preset"] in PRESETS else None
            if base is None:
                raise ConfigError([f"unknown preset {base_doc['preset']!r}"])
        else:
            base = config_from_dict(base_doc)
        variants = spec.get("variants") or [base.variant]
        points = []
        for value in values:
            for variant in variants:
                cfg = _sweep_point(base, base_is_preset, parameter, value, variant)
                problems = validate_config(cfg)
                if problems:
                    raise ConfigError(
                        [f"point {parameter}={value} variant={variant}: {p}" for p in problems]
                    )
                points.append((value, variant, cfg))
    except ConfigError as exc:
        for line in exc.violations:
            print(f"violation: {line}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"violation: malformed sweep spec, missing {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    rows = ["parameter,value,variant,max_global_skew,neighbor_max_skew,min_rate,reduced_periods"]
    for value, variant, cfg in points:
        trace = run(cfg)
        report = compute_report(trace, warmup=args.warmup)
        tag = f"{parameter}_{value}_{variant}"
        _write(out / tag / "summary.json", summary_json_text(trace, report))
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
    _write(out / "aggregate.csv", "\n".join(rows) + "\n")
    print(f"wrote {out / 'aggregate.csv'} ({len(points)} points)")
    return 0


def cmd_oracle_check(args) -> int:
    try:
        config = _load_config(args)
        problems = validate_config(config)
        if problems:
            raise ConfigError(problems)
        node_count = config.topology.build(default_seed=config.seed).node_count
        if node_count > args.cap:
            raise ConfigError(
                [
                    f"{node_count} nodes exceeds the oracle cap {args.cap}; "
                    "the reference simulator is for desk-scale instances"
                ]
            )
    except ConfigError as exc:
        for line in exc.violations:
            print(f"violation: {line}", file=sys.stderr)
        return 2
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
    p_run.add_argument("--inject-skew", default=None, metavar="NODE:DELTA",
                       help="testing hook: offset one node's recorded values")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
