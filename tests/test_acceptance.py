"""Acceptance suite: every criterion at its stated tolerance.

Criteria 1-3 share one batch of 100 seeded runs over four topology
families and three drift bounds; the batch is executed once per test
session and only its measurements are kept. Each criterion prints one
pass/fail line (echoed again in the terminal summary).
"""

import hashlib
import os
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from gradsync.config import RunConfig, TopologySpec, build_wait_chain_scenario, wait_chain_length
from gradsync.engine import run
from gradsync.metrics import global_skew, gradient_profile
from gradsync.oracle import compare, oracle_run
from gradsync.presets import PRESETS

from conftest import record_acceptance

TOL = 1e-9

GRID_TOPOLOGIES = (
    TopologySpec(kind="chain", n=17),
    TopologySpec(kind="ring", n=16),
    TopologySpec(kind="grid", rows=5, cols=5),
    TopologySpec(kind="random_geometric", n=50, radius=0.3),
)
GRID_DRIFT_BOUNDS = (0.0, 0.1, 0.3)


@dataclass
class GridRunChecks:
    seed: int
    monotone: bool
    rate_low: float
    rate_high: float
    rate_floor_limit: float
    rate_ceil_limit: float
    reception_exact: bool
    gaps_exact: bool
    global_skew: float
    global_limit: float


def _check_one(seed: int) -> GridRunChecks:
    bound = GRID_DRIFT_BOUNDS[seed % 3]
    config = RunConfig(
        topology=GRID_TOPOLOGIES[seed % 4],
        drift_bound=bound,
        max_gap=1.0,
        skew_threshold=1.0,
        initiators=(0,),
        drift_mode="piecewise_random",
        drift_dwell=1.0,
        schedule_mode="random_uniform",
        variant="gradient",
        seed=seed,
    )
    trace = run(config)
    diameter = trace.topology.diameter

    diffs = np.diff(trace.logical, axis=1)
    monotone = bool(np.all((diffs >= -TOL) | np.isnan(diffs)))

    forward = trace.rates[:, :-1]
    finite = forward[~np.isnan(forward)]
    rate_low = float(finite.min())
    rate_high = float(finite.max())

    reception_exact = all(ev.receive_time == ev.send_time for ev in trace.events)
    per_edge = defaultdict(list)
    for ev in trace.events:
        per_edge[(ev.src, ev.dst)].append(ev.send_time)
    gaps_exact = all(
        all(0.0 < b - a <= config.max_gap for a, b in zip([0.0] + ts, ts))
        for ts in per_edge.values()
    )

    return GridRunChecks(
        seed=seed,
        monotone=monotone,
        rate_low=rate_low,
        rate_high=rate_high,
        rate_floor_limit=(1.0 - bound) / diameter,
        rate_ceil_limit=1.0 + bound,
        reception_exact=reception_exact,
        gaps_exact=gaps_exact,
        global_skew=global_skew(trace).value,
        global_limit=(1.0 + bound) * diameter * config.max_gap,
    )


@pytest.fixture(scope="module")
def seeded_grid():
    return [_check_one(seed) for seed in range(100)]


def test_criterion_1_monotonicity_and_rate_domain(seeded_grid):
    bad_mono = [c.seed for c in seeded_grid if not c.monotone]
    bad_rate = [
        c.seed
        for c in seeded_grid
        if c.rate_low < c.rate_floor_limit - TOL or c.rate_high > c.rate_ceil_limit + TOL
    ]
    ok = not bad_mono and not bad_rate
    record_acceptance(
        f"criterion 1 (monotonicity & rate domain, 100 runs): "
        f"{'PASS' if ok else 'FAIL'} "
        f"(non-monotone seeds: {bad_mono or 'none'}, rate violations: {bad_rate or 'none'})"
    )
    assert ok


def test_criterion_2_model_assumptions_exact(seeded_grid):
    bad = [c.seed for c in seeded_grid if not (c.reception_exact and c.gaps_exact)]
    record_acceptance(
        f"criterion 2 (instantaneous delivery & gap bound, zero tolerance): "
        f"{'PASS' if not bad else 'FAIL'} (violating seeds: {bad or 'none'})"
    )
    assert not bad


def test_criterion_3_global_skew_bound(seeded_grid):
    bad = [c.seed for c in seeded_grid if c.global_skew > c.global_limit + TOL]
    worst = min(c.global_limit - c.global_skew for c in seeded_grid)
    record_acceptance(
        f"criterion 3 (global skew within (1+rho)*D*d): "
        f"{'PASS' if not bad else 'FAIL'} "
        f"(worst margin {worst:.6f}, violating seeds: {bad or 'none'})"
    )
    assert not bad


def test_criterion_4_wait_chain_neighbor_bound():
    limit = 1.0 + (1.0 + 3 * 0.1) * 1.0  # threshold + (1+3*rho)*gap = 2.3
    observed = {}
    for diameter in (8, 16, 32):
        trace = run(build_wait_chain_scenario(diameter, 0.1, 1.0, 1.0))
        observed[diameter] = gradient_profile(trace)[1]
    ok = all(v <= limit + TOL for v in observed.values())
    record_acceptance(
        f"criterion 4 (wait-chain neighbor skew <= {limit}): "
        f"{'PASS' if ok else 'FAIL'} "
        f"(observed {dict((k, round(v, 6)) for k, v in observed.items())})"
    )
    assert ok


def test_criterion_5_constant_vs_linear_separation():
    diameters = (8, 16, 32, 64)
    neighbor = {}
    for variant in ("gradient", "no_slowdown"):
        for diameter in diameters:
            trace = run(build_wait_chain_scenario(diameter, 0.1, 1.0, 1.0, variant=variant))
            neighbor[(variant, diameter)] = gradient_profile(trace)[1]
    grad = [neighbor[("gradient", d)] for d in diameters]
    spread = max(grad) / min(grad)
    growth = neighbor[("no_slowdown", 64)] / neighbor[("no_slowdown", 8)]
    ok = spread <= 1.25 and growth >= 4.0
    record_acceptance(
        f"criterion 5 (O(1) vs O(D) neighbor skew): {'PASS' if ok else 'FAIL'} "
        f"(gradient spread {spread:.3f} <= 1.25, no_slowdown growth {growth:.2f}x >= 4)"
    )
    assert ok


def test_criterion_6_wait_chain_length_unit_check():
    rng = np.random.default_rng(0xE96)
    failures = 0
    for _ in range(1000):
        diameter = int(rng.integers(1, 200))
        bound = float(rng.uniform(0.0, 0.999))
        gap = float(rng.uniform(0.01, 10.0))
        threshold = float(rng.uniform(1e-6, (1.0 + bound) * gap))
        if wait_chain_length(diameter, bound, gap, threshold) != float(diameter):
            failures += 1
    record_acceptance(
        f"criterion 6 (wait-chain length equals diameter on 1000 valid triples, exact): "
        f"{'PASS' if failures == 0 else 'FAIL'} ({failures} failures)"
    )
    assert failures == 0


def test_criterion_7_oracle_equivalence():
    dt = 1e-3
    results = {}
    for name, make in sorted(PRESETS.items()):
        config = make()
        if config.topology.build(default_seed=config.seed).node_count > 5:
            continue
        config = replace(config, horizon=50.0)
        tolerance = 2.0 * (1.0 + config.drift_bound) * dt
        outcome = compare(run(config), oracle_run(config, dt), tolerance)
        results[name] = (outcome.max_deviation, tolerance, outcome.passed)
    ok = all(passed for _, _, passed in results.values())
    detail = ", ".join(
        f"{name}: {dev:.2e} <= {tol:.2e}" for name, (dev, tol, _) in results.items()
    )
    record_acceptance(
        f"criterion 7 (engine vs oracle on desk-scale presets): "
        f"{'PASS' if ok else 'FAIL'} ({detail})"
    )
    assert results and ok


def test_criterion_8_cross_process_determinism(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[1] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    digests = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "gradsync", "run", "--preset", "wait_chain",
             "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(
            (
                hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest(),
                hashlib.sha256((out / "summary.json").read_bytes()).hexdigest(),
            )
        )
    ok = digests[0] == digests[1]
    record_acceptance(
        f"criterion 8 (byte-identical outputs across processes): "
        f"{'PASS' if ok else 'FAIL'} (csv {digests[0][0][:12]}..., "
        f"json {digests[0][1][:12]}...)"
    )
    assert ok


def test_criterion_9_startup_propagation():
    diameter = 8
    config = build_wait_chain_scenario(diameter, 0.1, 1.0, 1.0)
    trace = run(config)
    last_start = trace.start_times[-1]
    expected = diameter * config.max_gap
    col = int(np.searchsorted(trace.sample_times, last_start))
    initiator_value = trace.logical[0, col]
    limit = (1.0 + config.drift_bound) * diameter * config.max_gap
    ok = abs(last_start - expected) <= TOL and initiator_value <= limit + TOL
    record_acceptance(
        f"criterion 9 (start-up reaches hop k at k*d): {'PASS' if ok else 'FAIL'} "
        f"(last start {last_start} == {expected}, initiator value "
        f"{initiator_value:.6f} <= {limit:.6f})"
    )
    assert ok
