import json
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from gradsync.engine import (
    ConfigError,
    RunConfig,
    TopologySpec,
    build_wait_chain_scenario,
    config_from_dict,
    run,
)
from gradsync import metrics
from gradsync.metrics import (
    GlobalSkew,
    SkewReport,
    Trace,
    bound_checks,
    compute_report,
    global_skew,
    gradient_profile,
    per_edge_max_skew,
    rate_floor,
    reduced_rate_stats,
    summary_json_text,
    trace_csv_text,
)
from gradsync.presets import PRESETS, preset
from gradsync.topology import chain


def symmetric_run():
    # every node initiates, nobody drifts: all clocks identical forever
    return run(
        RunConfig(
            topology=TopologySpec(kind="ring", n=6),
            drift_bound=0.0,
            max_gap=1.0,
            skew_threshold=1.0,
            initiators=(0, 1, 2, 3, 4, 5),
        )
    )


def test_symmetric_run_has_zero_skew():
    trace = symmetric_run()
    top = global_skew(trace)
    assert top.value == 0.0
    profile = gradient_profile(trace)
    assert set(profile) == {1, 2, 3}
    assert all(v == 0.0 for v in profile.values())


def test_two_node_skew_attained_on_edge():
    trace = run(replace(preset("two_node"), process_on_start=False))
    top = global_skew(trace)
    assert top.value == 1.0
    assert top.pair == (0, 1)
    assert top.time == 1.0


def test_wait_chain_global_skew_within_startup_bound():
    trace = run(build_wait_chain_scenario(4, 0.1, 1.0, 1.0))
    top = global_skew(trace)
    assert top.value <= (1 + 0.1) * 4 * 1.0 + 1e-9


def test_wait_chain_profile_bounded_and_nondecreasing():
    trace = run(build_wait_chain_scenario(8, 0.1, 1.0, 1.0))
    profile = gradient_profile(trace)
    assert profile[1] <= 1.0 + (1 + 3 * 0.1) * 1.0 + 1e-9
    values = [profile[k] for k in sorted(profile)]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_profile_at_one_equals_max_edge_skew():
    trace = run(build_wait_chain_scenario(6, 0.1, 1.0, 1.0))
    profile = gradient_profile(trace)
    edges = per_edge_max_skew(trace)
    assert profile[1] == pytest.approx(max(edges.values()), abs=0.0)


class TestRateFloor:
    def test_no_slowdown_floor(self):
        trace = run(build_wait_chain_scenario(4, 0.1, 1.0, 1.0, variant="no_slowdown"))
        assert rate_floor(trace) >= 1.0 - 0.1 - 1e-9

    def test_wait_chain_floor(self):
        trace = run(build_wait_chain_scenario(4, 0.1, 1.0, 1.0))
        assert rate_floor(trace) >= (1.0 - 0.1) / 4 - 1e-9

    def test_zero_drift_unit_rate(self):
        trace = symmetric_run()
        assert rate_floor(trace) == 1.0

    # The presets and the D = 16 wait chain are checked against the dense
    # floor in TestReportMatchesReference, through min_rate.
    @pytest.mark.parametrize(
        "horizon",
        [
            4.0,  # sends, rebases and a start land on the horizon
            2.0,  # the last node starts at the horizon: no forward interval
            0.5,  # nothing is received: the initiator alone sets the floor
        ],
    )
    def test_matches_dense_floor_at_the_horizon(self, horizon):
        trace = run(
            RunConfig(
                topology=TopologySpec(kind="chain", n=3),
                drift_bound=0.1,
                max_gap=1.0,
                skew_threshold=1.0,
                horizon=horizon,
                drift_mode="piecewise_random",
                drift_dwell=0.3,
                seed=3,
            )
        )
        assert rate_floor(trace) == reference_rate_floor(trace)

    def test_slowdown_at_the_horizon_is_not_a_rate(self):
        # the wait chain's first slowdown begins at t = 4; ending the run
        # there leaves the reduced factor no forward interval to run on
        trace = run(build_wait_chain_scenario(4, 0.1, 1.0, 1.0, horizon=4.0))
        assert trace.reduced_intervals == {(1, 2): ((4.0, 4.0),)}
        assert rate_floor(trace) == reference_rate_floor(trace) == 1.0 - 0.1


class TestReducedRateStats:
    def test_no_trigger_means_empty(self):
        stats = reduced_rate_stats(symmetric_run())
        assert stats.durations == () and stats.count == 0

    def test_large_c_never_reduces(self):
        trace = run(build_wait_chain_scenario(4, 0.1, 1.0, 1.0, variant="large_c"))
        assert reduced_rate_stats(trace).durations == ()

    def test_wait_chain_reductions_last_about_chain_length(self):
        diameter = 8
        trace = run(build_wait_chain_scenario(diameter, 0.1, 1.0, 1.0))
        stats = reduced_rate_stats(trace)
        assert stats.count > 0
        assert stats.longest <= trace.horizon
        # the head of the chain stays slowed for a window on the order of
        # the chain length times the gap
        assert stats.longest >= 1.0

    def test_merging_overlapping_intervals(self):
        trace = run(build_wait_chain_scenario(6, 0.1, 1.0, 1.0))
        stats = reduced_rate_stats(trace)
        for intervals in stats.per_node.values():
            for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
                assert b1 < a2  # disjoint and ordered after merging


class TestBoundChecks:
    def fake_report(self, **kw):
        base = dict(
            max_global_skew=0.0,
            attaining_pair=(0, 1),
            attaining_time=0.0,
            per_edge_max_skew={},
            gradient_profile={1: 0.0},
            min_rate=1.0,
            reduced_rate_durations=(),
            bound_verdicts=(),
            diameter=4,
            effective_skew_threshold=1.0,
            warmup=0.0,
        )
        base.update(kw)
        return SkewReport(**base)

    def config(self, **kw):
        cfg = build_wait_chain_scenario(4, 0.1, 1.0, 1.0)
        return replace(cfg, **kw)

    def test_thresholds(self):
        verdicts = bound_checks(self.fake_report(), self.config())
        by_name = {v.name: v for v in verdicts}
        assert by_name["global_skew"].threshold == pytest.approx(4.4)
        assert by_name["neighbor_skew"].threshold == pytest.approx(2.3)

    def test_zero_drift_neighbor_threshold(self):
        cfg = replace(
            self.config(), drift_bound=0.0, drift_signs=None, drift_mode="constant"
        )
        verdicts = bound_checks(self.fake_report(), cfg)
        assert {v.name: v for v in verdicts}["neighbor_skew"].threshold == pytest.approx(2.0)

    def test_margin_and_failure(self):
        report = self.fake_report(max_global_skew=5.0)
        by_name = {v.name: v for v in bound_checks(report, self.config())}
        v = by_name["global_skew"]
        assert not v.passed and v.margin == pytest.approx(4.4 - 5.0)

    def test_scope_flags(self):
        # the neighbor bound's scope follows the scenario, not the label
        unlabelled = self.config(label="")
        by_name = {v.name: v for v in bound_checks(self.fake_report(), unlabelled)}
        assert by_name["neighbor_skew"].scope == "guaranteed"
        for off_scenario in (
            self.config(drift_signs=(1,) * 5),
            replace(preset("random_geometric"), label="wait_chain"),
        ):
            by_name = {v.name: v for v in bound_checks(self.fake_report(), off_scenario)}
            assert by_name["neighbor_skew"].scope == "informative"
            assert by_name["global_skew"].scope == "guaranteed"


def test_sampling_completeness():
    trace = run(replace(preset("random_geometric"), seed=9))
    samples = set(trace.sample_times.tolist())
    for ev in trace.events:
        assert ev.send_time in samples
    for clock in trace.clocks:
        for b in clock.schedule.breakpoints:
            if 0.0 < b < trace.horizon:
                assert b in samples


def test_event_columns_match_the_records():
    trace = run(preset("random_geometric"))
    events = trace.events
    records = list(events)
    columns = (events.time, events.src, events.dst, events.payload, events.started, events.jump)
    for column in columns:
        assert column.ndim == 1 and column.size == len(events) == len(records)
    assert sum(column.nbytes for column in columns) <= 48 * len(events)
    carried = np.array([ev.payload is not None for ev in records])
    assert carried.any() and not carried.all()
    assert np.array_equal(np.isnan(events.payload), ~carried)
    assert events.payload[carried].tolist() == [ev.payload for ev in records if ev.payload is not None]
    assert events.started.tolist() == [ev.started_receiver for ev in records]
    assert events.jump.tolist() == [ev.jump for ev in records]
    assert events.time.tolist() == [ev.send_time for ev in records]
    assert all(ev.receive_time == ev.send_time for ev in records)
    assert {tuple(type(v) for v in ev) for ev in records} == {
        (float, float, int, int, float, bool, float),
        (float, float, int, int, type(None), bool, float),
    }


@pytest.mark.parametrize("variant", ["gradient", "no_slowdown"])
def test_run_holds_little_per_event(variant):
    # The rebase history takes 32 B per point and the sample grid 8 B per
    # sample; the event log and everything else must stay below 128 B per
    # event. A named tuple per event took about 180 B.
    config = build_wait_chain_scenario(64, 0.1, 1.0, 1.0, variant=variant)
    run(config)  # leave one-time allocations out of the count
    tracemalloc.start()
    try:
        trace = run(config)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    points = sum(h.times.size for h in trace.history)
    rest = held - 32 * points - 8 * trace.sample_times.size
    assert rest < 128 * len(trace.events)


def test_dense_sampling_agrees_with_breakpoint_sampling():
    # a dense grid can only reveal skew already visible at sample points,
    # up to the worst-case slope times the grid step
    cfg = build_wait_chain_scenario(4, 0.1, 1.0, 1.0)
    trace = run(cfg)
    step = 1e-3
    dense = trace.evaluate_logical(np.arange(0.0, trace.horizon, step))
    dense_max = 0.0
    for col in range(dense.shape[1]):
        values = dense[:, col]
        live = values[~np.isnan(values)]
        if live.size >= 2:
            dense_max = max(dense_max, float(live.max() - live.min()))
    sampled = global_skew(trace).value
    assert abs(dense_max - sampled) <= 2 * (1 + 0.1) * step


def test_run_and_report_hold_no_dense_matrix():
    # A random field with many more samples than nodes: the run and its
    # report together must never hold as much as one nodes x samples float
    # matrix, so neither can build one.
    config = RunConfig(
        topology=TopologySpec(kind="random_geometric", n=100, radius=0.2, seed=11),
        drift_bound=0.1,
        max_gap=1.0,
        skew_threshold=1.0,
        horizon=16.0,
        drift_mode="piecewise_random",
        schedule_mode="random_uniform",
        seed=3,
    )
    compute_report(run(preset("two_node")))  # leave lazy imports out of the count
    tracemalloc.start()
    try:
        trace = run(config)
        compute_report(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, samples = trace.node_count, trace.sample_times.size
    assert samples > 100 * n
    assert peak < n * samples * 8
    for field in fields(Trace):
        value = getattr(trace, field.name)
        assert not (isinstance(value, np.ndarray) and value.ndim > 1), field.name


def test_warmup_excludes_startup():
    cfg = build_wait_chain_scenario(8, 0.1, 1.0, 1.0, variant="no_slowdown")
    trace = run(cfg)
    full = compute_report(trace)
    settled = compute_report(trace, warmup=trace.horizon * 0.75)
    assert settled.warmup == trace.horizon * 0.75
    assert settled.max_global_skew <= full.max_global_skew


class TestSerialization:
    def test_csv_shape_and_header(self):
        trace = run(preset("two_node"))
        text = trace_csv_text(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "time,node,logical,rate,alpha,event_kind"
        assert len(lines) == 1 + trace.sample_times.size * trace.node_count
        # unstarted node 1 at t=0 has empty fields
        row0 = [l for l in lines if l.startswith("0.0,1,")][0]
        assert row0 == "0.0,1,,,,"

    def test_csv_marks_events(self):
        trace = run(preset("two_node"))
        text = trace_csv_text(trace)
        assert any("start+recv" in line or "recv+start" in line for line in text.split("\n"))
        assert any(line.endswith("send") for line in text.split("\n"))

    def test_summary_round_trips_config(self):
        trace = run(build_wait_chain_scenario(4, 0.1, 1.0, 1.0))
        report = compute_report(trace)
        doc = json.loads(summary_json_text(trace, report))
        assert doc["schema"] == "gradsync.summary/1"
        assert config_from_dict(doc["config"]) == trace.config
        assert doc["report"]["max_global_skew"] == report.max_global_skew
        names = [v["name"] for v in doc["report"]["verdicts"]]
        assert names == ["global_skew", "neighbor_skew"]
        assert doc["start_times"] == [0.0, 1.0, 2.0, 3.0, 4.0]


# Reference report kernel: the per-column loop and the chunked all-pairs
# matrix that the blocked reductions in gradsync.metrics replaced, run on a
# dense nodes x samples matrix. The blocked code performs the same float
# operations per element, so every report field must match exactly.


def reference_global_skew(sample_times, logical, warmup=0.0):
    best = GlobalSkew(0.0, (0, 0), 0.0)
    for col in np.nonzero(sample_times >= warmup)[0]:
        values = logical[:, col]
        live = np.nonzero(~np.isnan(values))[0]
        if live.size < 2:
            continue
        lo = live[np.argmin(values[live])]
        hi = live[np.argmax(values[live])]
        spread = float(values[hi] - values[lo])
        if spread > best.value:
            pair = (int(lo), int(hi)) if lo < hi else (int(hi), int(lo))
            best = GlobalSkew(spread, pair, float(sample_times[col]))
    return best


def reference_max_skew_matrix(sample_times, logical, warmup=0.0):
    cols = np.nonzero(sample_times >= warmup)[0]
    n = logical.shape[0]
    out = np.full((n, n), -np.inf)
    if cols.size == 0:
        return out
    values = logical[:, cols]
    chunk = max(1, 2_000_000 // max(1, n * n))
    for s0 in range(0, values.shape[1], chunk):
        block = values[:, s0 : s0 + chunk]
        diff = np.abs(block[:, None, :] - block[None, :, :])
        diff = np.where(np.isnan(diff), -np.inf, diff)
        np.maximum(out, diff.max(axis=2), out=out)
    return out


def reference_edges_and_profile(matrix, topo):
    per_edge = {
        (i, j): float(matrix[i, j]) if np.isfinite(matrix[i, j]) else 0.0
        for i, j in topo.undirected_edges()
    }
    profile = {}
    for k in range(1, topo.diameter + 1):
        values = matrix[topo.distances == k]
        finite = values[np.isfinite(values)]
        profile[k] = float(finite.max()) if finite.size else 0.0
    return per_edge, profile


def reference_report(trace, warmup=0.0):
    report = compute_report(trace, warmup)
    logical = trace.logical
    top = reference_global_skew(trace.sample_times, logical, warmup)
    matrix = reference_max_skew_matrix(trace.sample_times, logical, warmup)
    per_edge, profile = reference_edges_and_profile(matrix, trace.topology)
    expected = replace(
        report,
        max_global_skew=top.value,
        attaining_pair=top.pair,
        attaining_time=top.time,
        per_edge_max_skew=per_edge,
        gradient_profile=profile,
        min_rate=reference_rate_floor(trace),
    )
    return replace(expected, bound_verdicts=bound_checks(expected, trace.config))


def reference_rate_floor(trace):
    """The minimum over every dense sample before the horizon, as the report
    took it while the run held a dense rates matrix."""
    forward = trace.rates[:, :-1]
    finite = forward[~np.isnan(forward)]
    return float(finite.min()) if finite.size else float("nan")


def assert_report_matches_reference(trace, warmup=0.0):
    report = compute_report(trace, warmup)
    assert report == reference_report(trace, warmup)
    assert global_skew(trace, warmup) == (
        report.max_global_skew, report.attaining_pair, report.attaining_time
    )
    assert per_edge_max_skew(trace, warmup=warmup) == report.per_edge_max_skew
    assert gradient_profile(trace, warmup=warmup) == report.gradient_profile


class TestReportMatchesReference:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets(self, name):
        assert_report_matches_reference(run(preset(name)))

    @pytest.mark.parametrize("variant", ["gradient", "no_slowdown", "large_c"])
    def test_wait_chain_d16(self, variant):
        assert_report_matches_reference(
            run(build_wait_chain_scenario(16, 0.1, 1.0, 1.0, variant=variant))
        )

    def test_warmup(self):
        trace = run(preset("wait_chain"))
        for warmup in (0.5, trace.horizon * 0.4, trace.horizon):
            assert_report_matches_reference(trace, warmup)

    def test_warmup_without_samples_refused(self):
        trace = run(preset("two_node"))
        for measure in (compute_report, global_skew, per_edge_max_skew, gradient_profile):
            for warmup in (trace.horizon + 1.0, float("nan"), float("inf"), -float("inf")):
                with pytest.raises(ConfigError, match=f"warmup {warmup!r} leaves no sample"):
                    measure(trace, warmup)

    def test_more_samples_than_one_block(self):
        trace = run(replace(preset("random_geometric"), seed=3))
        assert trace.sample_times.size > 3 * metrics._EVAL_BLOCK
        # a warm-up that starts the first block off a block boundary
        assert_report_matches_reference(
            trace, float(trace.sample_times[metrics._EVAL_BLOCK + 7])
        )

    @pytest.mark.parametrize("block", [1, 4, 7])
    def test_unstarted_cells_and_ties_across_blocks(self, monkeypatch, block):
        # The report pass is fed a synthetic dense matrix, one evaluated
        # block at a time, with unstarted cells that no rebase history can
        # produce (a node stopping and restarting). Small integer values make
        # equal spreads and equal extremes common, so tie-breaking is checked
        # within a column and across blocks, and ties with a running maximum
        # across bound sub-blocks.
        monkeypatch.setattr(metrics, "_EVAL_BLOCK", block)
        monkeypatch.setattr(metrics, "_BOUND_BLOCK", max(1, block // 2))
        topo = symmetric_run().topology
        rng = np.random.default_rng(5)
        samples = 40
        logical = rng.integers(0, 4, size=(topo.node_count, samples)).astype(float)
        logical[rng.random(logical.shape) < 0.3] = np.nan
        logical[:, :6] = np.nan  # nobody has started
        logical[2, 3:6] = 1.0  # a single started node has no pair to measure
        logical[5] = np.nan  # never starts: its edges report 0.0
        # the first warm column at warmup 11.0 is empty, and the one after it
        # attains the largest spread
        logical[:, 22] = np.nan
        logical[0:2, 23] = (0.0, 3.0)
        assert_pass_matches_reference(logical, topo, (0.0, 3.25, 11.0))

    @pytest.mark.parametrize("block", [1, 3, 256])
    def test_mixed_magnitudes(self, monkeypatch, block):
        # Clocks near 1e6 next to clocks near 0: subtractions round, and the
        # pair bounds carry rounding of their own.
        monkeypatch.setattr(metrics, "_BOUND_BLOCK", block)
        topo = symmetric_run().topology
        rng = np.random.default_rng(8)
        logical = rng.uniform(0.0, 1.0, size=(topo.node_count, 300))
        logical[::2] += 1e6 + rng.integers(0, 3, size=(3, 1)) * 0.25
        logical[rng.random(logical.shape) < 0.1] = np.nan
        assert_pass_matches_reference(logical, topo, (0.0, 40.0))


def assert_pass_matches_reference(logical, topo, warmups):
    """The report pass on a synthetic matrix, one column every 0.5, gives
    the reference kernels' global skew, per-edge maxima and profile."""
    sample_times = np.arange(logical.shape[1]) * 0.5

    def evaluate(times):
        return logical[:, np.searchsorted(sample_times, times)]

    for warmup in warmups:
        blocks = metrics._warm_blocks(sample_times, warmup, evaluate)
        top, per_edge, profile = metrics._report_pass(blocks, topo)
        assert top == reference_global_skew(sample_times, logical, warmup)
        expected = reference_max_skew_matrix(sample_times, logical, warmup)
        assert (per_edge, profile) == reference_edges_and_profile(expected, topo)


# Columns (R, L_j, L_i), R the lowest clock of the column, where rounding
# puts the pair bound fl(fl(L_i - R) - fl(L_j - R)) 1 to 4 ulps below the
# exact evaluation fl(L_i - L_j). Same-magnitude subtractions are exact
# (Sterbenz), so each column mixes a clock near 0 with clocks far above it.
DECISIVE_COLUMNS = [
    (0.9127555772777217, 3100.4943564284504, 43787.115966008154),
    (0.9616571936637868, 889915.9763094134, 1108245.3711094868),
    (0.2740483886137183, 602836.7314412665, 1129144.1791149895),
    (0.0058245951079809455, 704997.8851000406, 1084237.762845791),
]


@pytest.mark.parametrize("column", DECISIVE_COLUMNS)
@pytest.mark.parametrize(
    "ref, j, i",
    [
        (0, 1, 2),  # (j, i) is an edge of the chain 0-1-2-3
        (0, 1, 3),  # (j, i) is the only pair at distance 2 that is measured
    ],
)
def test_slack_decides_pairs_within_ulps_of_their_maximum(monkeypatch, column, ref, j, i):
    r, low, high = column
    unslacked = (high - r) - (low - r)
    assert unslacked < high - low  # without slack the bound would skip it
    monkeypatch.setattr(metrics, "_BOUND_BLOCK", 1)
    logical = np.full((4, 4), np.nan)
    # the pair's running maximum ties the unslacked bound exactly, twice ...
    logical[[j, i], 0] = logical[[j, i], 2] = (0.0, unslacked)
    # ... and its true skew lies a few ulps above it, twice (a tie)
    logical[[ref, j, i], 1] = logical[[ref, j, i], 3] = (r, low, high)
    assert_pass_matches_reference(logical, chain(4), (0.0,))
