import math
from dataclasses import replace

import numpy as np
import pytest

from gradsync.engine import ConfigError, RunConfig, TopologySpec, run
from gradsync.oracle import compare, oracle_run
from gradsync.presets import preset


def quiet_config():
    # horizon shorter than the first send: clocks run, nothing is delivered
    return RunConfig(
        topology=TopologySpec(kind="chain", n=3),
        drift_bound=0.0,
        max_gap=1.0,
        skew_threshold=1.0,
        horizon=0.5,
        initiators=(0, 1, 2),
    )


def test_zero_drift_without_messages_tracks_time():
    trace = oracle_run(quiet_config(), dt=0.05)
    for col, t in enumerate(trace.sample_times):
        assert np.allclose(trace.logical[:, col], t, atol=1e-9)


def test_two_node_matches_engine():
    cfg = preset("two_node")
    dev = compare(run(cfg), oracle_run(cfg, 1e-3), 2e-3)
    assert dev.passed and dev.max_deviation <= 2 * (1 + 0.0) * 1e-3


def test_identical_traces_compare_to_zero():
    trace = run(preset("startup_chain"))
    dev = compare(trace, trace, 0.0)
    assert dev.max_deviation == 0.0 and dev.passed


def test_corrupted_trace_locates_first_exceedance():
    # node 1's clock is offset by 1 from its k-th rebase point on, so the
    # first sample where it differs is that rebase time
    trace = run(preset("startup_chain"))
    hist = trace.history[1]
    k = hist.times.size // 2
    values = hist.values.copy()
    values[k:] += 1.0
    history = trace.history[:1] + (replace(hist, values=values),) + trace.history[2:]
    broken = replace(trace, history=history)
    dev = compare(trace, broken, 1e-6)
    assert not dev.passed
    t, node, amount = dev.first_exceedance
    assert node == 1
    assert t == hist.times[k]
    assert amount == pytest.approx(1.0)


def test_mismatched_configs_rejected():
    a = run(preset("two_node"))
    b = oracle_run(replace(preset("two_node"), seed=1), 1e-2)
    with pytest.raises(ValueError, match="different configs"):
        compare(a, b, 1.0)


def test_step_size_cap():
    cfg = preset("two_node")
    with pytest.raises(ValueError, match="max_gap/10"):
        oracle_run(cfg, 0.2)
    with pytest.raises(ValueError, match="positive"):
        oracle_run(cfg, 0.0)


def test_deviation_scales_with_step_on_drifting_run():
    # piecewise drift with few breakpoints: worst-case Euler error is
    # (breakpoints crossed) * 2*bound*dt, within the 2*(1+bound)*dt budget
    cfg = RunConfig(
        topology=TopologySpec(kind="chain", n=4),
        drift_bound=0.2,
        max_gap=1.0,
        skew_threshold=1.0,
        horizon=10.0,
        drift_mode="piecewise_random",
        drift_dwell=2.0,
        schedule_mode="random_uniform",
        seed=13,
    )
    trace = run(cfg)
    devs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        outcome = compare(trace, oracle_run(cfg, dt), 2 * (1 + 0.2) * dt)
        assert outcome.passed, (dt, outcome.max_deviation)
        devs.append(outcome.max_deviation)
    # halving dt must not leave the halved bound
    assert devs[1] <= 2 * (1 + 0.2) * 5e-3
    assert devs[2] <= 2 * (1 + 0.2) * 2.5e-3


def test_oracle_reproduces_wait_chain_start_times():
    cfg = replace(preset("startup_chain"), horizon=20.0)
    engine_trace = run(cfg)
    oracle_trace = oracle_run(cfg, 1e-2)
    assert np.array_equal(engine_trace.start_times, oracle_trace.start_times)
    assert np.array_equal(
        np.isnan(engine_trace.logical), np.isnan(oracle_trace.logical)
    )


def test_oracle_slowdown_bookkeeping_matches_engine():
    cfg = preset("drifting_chain")
    engine_trace = run(cfg)
    oracle_trace = oracle_run(cfg, 1e-3)
    assert set(engine_trace.reduced_intervals) == set(oracle_trace.reduced_intervals)
    for key, intervals in engine_trace.reduced_intervals.items():
        other = oracle_trace.reduced_intervals[key]
        assert len(intervals) == len(other)
        for (a1, b1), (a2, b2) in zip(intervals, other):
            assert a1 == a2 and b1 == b2


@pytest.mark.parametrize("variant", ["gradient", "no_slowdown", "large_c"])
@pytest.mark.parametrize("name", ["two_node", "startup_chain", "drifting_chain"])
def test_engine_and_oracle_agree_across_variants(name, variant):
    cfg = replace(preset(name), variant=variant)
    dt = 1e-3
    engine_trace = run(cfg)
    oracle_trace = oracle_run(cfg, dt)
    if variant == "large_c":
        assert engine_trace.effective_skew_threshold == (1 + cfg.drift_bound) * math.sqrt(
            engine_trace.diameter_bound + 1
        )
    assert np.array_equal(oracle_trace.sample_times, engine_trace.sample_times)
    outcome = compare(engine_trace, oracle_trace, 2 * (1 + cfg.drift_bound) * dt)
    assert outcome.passed, outcome


@pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf, 0.5])
def test_bad_step_refused(dt):
    with pytest.raises(ConfigError, match="dt"):
        oracle_run(preset("two_node"), dt)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_bad_tolerance_refused(tol):
    # every dev > nan is false, so a NaN tolerance would pass any deviation
    trace = run(preset("two_node"))
    with pytest.raises(ConfigError, match="tol must be non-negative and finite"):
        compare(trace, trace, tol)
