import functools
import json
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradsync import metrics
from gradsync.clocks import ClockTable, DriftSchedule, HardwareClock, clock_table
from gradsync.config import (
    ConfigError,
    RunConfig,
    TopologySpec,
    build_wait_chain_scenario,
    config_from_dict,
)
from gradsync.engine import run
from gradsync.metrics import (
    GlobalSkew,
    SkewReport,
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
from gradsync.trace import History, Trace, _grid_blocks, sample_history

from conftest import history_of
from test_engine import LOOP_CONFIGS, NO_EVENTS


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

    @staticmethod
    def merged_edge_intervals(trace):
        """Each node's (node, neighbor) intervals merged across neighbors,
        touching ones joined: the episodes read from the history must be
        exactly these."""
        raw = {}
        for (node, _neighbor), intervals in sorted(trace.reduced_intervals.items()):
            raw.setdefault(node, []).extend(intervals)
        per_node = {}
        for node in sorted(raw):
            merged = []
            for lo, hi in sorted(raw[node]):
                if merged and lo <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
                else:
                    merged.append((lo, hi))
            per_node[node] = tuple(merged)
        return per_node

    @pytest.mark.parametrize(
        "config",
        [
            # three runs here begin at the rebase time where the last one ended
            RunConfig(
                topology=TopologySpec(kind="grid", rows=4, cols=5),
                drift_bound=0.3,
                max_gap=1.0,
                skew_threshold=0.1,
                initiators=(0, 5),
                drift_mode="piecewise_random",
                drift_dwell=2.0,
            ),
            *(
                RunConfig(
                    topology=TopologySpec(kind="random_geometric", n=30, radius=0.35),
                    drift_bound=0.2,
                    max_gap=1.0,
                    skew_threshold=0.3,
                    initiators=(0, 5),
                    drift_mode="piecewise_random",
                    schedule_mode="random_uniform",
                    seed=seed,
                )
                for seed in range(5)
            ),
            # the one episode opens at the horizon
            build_wait_chain_scenario(4, 0.1, 1.0, 1.0, horizon=4.0),
        ],
        ids=["grid", *(f"rgg_seed{seed}" for seed in range(5)), "wait_chain_to_4"],
    )
    def test_episodes_are_the_merged_edge_intervals(self, config):
        trace = run(config)
        stats = reduced_rate_stats(trace)
        expected = self.merged_edge_intervals(trace)
        assert stats.per_node == expected
        durations = [hi - lo for intervals in expected.values() for lo, hi in intervals]
        assert stats.durations == tuple(durations)
        assert stats.count == len(durations)
        assert stats.total == sum(durations)
        assert stats.longest == max(durations)


def looped_rate_floor(trace):
    """rate_floor one node at a time: each started node's rebase times and
    the drift breakpoints at or after its start, before the horizon,
    evaluated by sample_history on its row of the clock table."""
    lowest = math.inf
    breaks, origins, rates, horizon = trace.clock_table
    for i, hist in enumerate(trace.history):
        if hist.times.size == 0:
            continue
        points = np.sort(np.concatenate([hist.times, breaks[breaks >= hist.times[0]]]))
        points = points[points < trace.horizon]
        if points.size:
            row = ClockTable(breaks, origins[i : i + 1], rates[i : i + 1], horizon)
            lowest = min(lowest, float(sample_history(hist, row, points)[2].min()))
    return lowest if lowest < math.inf else float("nan")


def looped_reduced_rate_stats(trace):
    """reduced_rate_stats one node at a time, as (per_node, durations)."""
    per_node, durations = {}, []
    for node, hist in enumerate(trace.history):
        # +1 where a run of reduced factors begins, -1 just past its end
        steps = np.diff((hist.factors < 1.0).astype(np.int8), prepend=0, append=0)
        if not steps.any():
            continue
        lo = hist.times[steps[:-1] == 1]
        hi = np.append(hist.times, trace.horizon)[steps == -1]
        # a run that begins where the previous one ended continues it
        apart = lo[1:] > hi[:-1]
        lo, hi = lo[np.r_[True, apart]], hi[np.r_[apart, True]]
        per_node[node] = tuple(zip(lo.tolist(), hi.tolist()))
        durations.extend((hi - lo).tolist())
    return per_node, tuple(durations)


def hand_made_trace():
    """A four-node trace with a hand-made history on a hand-made clock table
    with breaks at 0, 1, 2 and 3 and horizon 4:
    - node 0 has two rows at 1.5 of which the earlier is reduced, at 0.25,
      the lowest factor anywhere; and at 3.0 a full-rate row followed by a
      reduced one, so its episodes from 2.5 to 3.0 and from 3.0 on touch;
    - node 1 rebases exactly at the breakpoint 2.0, where its drift drops
      to -0.5, from factor 0.8 to 1.0, and is reduced from 3.5 on;
    - node 2 never starts;
    - node 3 starts at 3.5 reduced, so its episode is still open at the
      horizon, like node 1's, and its rows follow node 1's in the columns.
    The floor is 0.5; 0.25 if the superseded row counted, 0.4 if the
    breakpoint 2.0 took node 1's factor from the row before it.
    """
    base = run(
        RunConfig(
            topology=TopologySpec(kind="chain", n=4),
            drift_bound=0.6,
            max_gap=1.0,
            skew_threshold=1.0,
            horizon=4.0,
        )
    )
    drifts = ((0.0,) * 4, (0.0, 0.0, -0.5, 0.0), (0.0,) * 4, (0.0,) * 4)
    clocks = tuple(
        HardwareClock(DriftSchedule(0.6, (0.0, 1.0, 2.0, 3.0), drift, 4.0)) for drift in drifts
    )
    rows = (
        ((0.0, 1.5, 1.5, 2.5, 3.0, 3.0, 3.25), (1.0, 0.25, 1.0, 0.5, 1.0, 0.5, 1.0)),
        ((0.5, 2.0, 3.5), (0.8, 1.0, 0.6)),
        ((), ()),
        ((3.5,), (0.75,)),
    )
    history = history_of((t, t, f, t) for t, f in rows)
    return replace(base, clocks=clocks, clock_table=clock_table(clocks), history=history)


ONE_PASS_CONFIGS = {
    **{f"loop_{name}": config for name, config in LOOP_CONFIGS.items()},
    **{f"preset_{name}": preset(name) for name in sorted(PRESETS)},
    "no_events": NO_EVENTS,
}


class TestOnePassReductions:
    """rate_floor and reduced_rate_stats equal their per-node loops."""

    @staticmethod
    def assert_match(trace):
        lowest, wanted = rate_floor(trace), looped_rate_floor(trace)
        assert lowest == wanted or (math.isnan(lowest) and math.isnan(wanted))
        stats = reduced_rate_stats(trace)
        per_node, durations = looped_reduced_rate_stats(trace)
        assert stats.per_node == per_node
        assert stats.durations == durations
        assert stats.count == len(durations)
        assert stats.total == float(sum(durations))
        assert stats.longest == (max(durations) if durations else 0.0)
        return lowest, stats

    @pytest.mark.parametrize("name", sorted(ONE_PASS_CONFIGS))
    def test_runs(self, name):
        self.assert_match(run(ONE_PASS_CONFIGS[name]))

    def test_hand_made_history(self):
        lowest, stats = self.assert_match(hand_made_trace())
        assert lowest == 0.5
        assert stats.per_node == {
            0: ((1.5, 1.5), (2.5, 3.25)),
            1: ((0.5, 2.0), (3.5, 4.0)),
            3: ((3.5, 4.0),),
        }

    def test_no_started_node_has_no_floor(self):
        trace = hand_made_trace()
        empty = (np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0))
        trace = replace(trace, history=history_of([empty] * 4))
        assert math.isnan(rate_floor(trace)) and math.isnan(looped_rate_floor(trace))
        assert reduced_rate_stats(trace).durations == ()


class TestHistory:
    def test_nodes_are_views_of_the_columns(self):
        trace = run(preset("startup_chain"))
        history = trace.history
        assert isinstance(history, History)
        bounds = history.bounds.tolist()
        assert len(history) == trace.node_count == len(bounds) - 1
        nodes = list(history)
        assert len(nodes) == len(history)
        for i, node in enumerate(nodes):
            assert isinstance(node, History) and len(node) == 1
            assert node.bounds.tolist() == [0, bounds[i + 1] - bounds[i]]
            for name in ("times", "values", "factors", "hardware"):
                column = getattr(history, name)
                assert column.dtype == np.float64
                got = getattr(node, name)
                assert np.shares_memory(got, column) or got.size == 0
                assert np.array_equal(got, column[bounds[i] : bounds[i + 1]])
                assert np.array_equal(getattr(history[i], name), got)
        assert history[-1].times.tolist() == nodes[-1].times.tolist()
        with pytest.raises(IndexError):
            history[len(history)]


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


def test_event_ids_are_int32_and_rows_carry_python_ints():
    events = run(preset("random_geometric")).events
    assert events.src.dtype == events.dst.dtype == np.int32
    records = list(events)
    assert {(type(ev.src), type(ev.dst)) for ev in records} == {(int, int)}
    assert [ev.src for ev in records] == events.src.tolist()
    assert [ev.dst for ev in records] == events.dst.tolist()


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


@pytest.mark.parametrize("variant", ["gradient", "no_slowdown"])
def test_run_peaks_little_per_event(variant):
    # The run peaks at 90.3 B per event at D = 64 and 84.3 B at D = 128;
    # each bound is about 1.21 times its figure. With int64 event ids, the
    # rebase values in two Python float lists and every event time sorted
    # for the sample grid, the peaks were 111.0 and 108.5 B; with four
    # Python lists per node, 177 B at D = 64.
    for diameter, bound in ((64, 110), (128, 103)):
        config = build_wait_chain_scenario(diameter, 0.1, 1.0, 1.0, variant=variant)
        run(config)  # leave one-time allocations out of the count
        tracemalloc.start()
        try:
            trace = run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * len(trace.events), diameter


def test_random_field_run_peaks_little_per_event():
    # A random_uniform run on the 50-node random_geometric preset peaks at
    # 103.5 B per event (103.2 B at rgg n = 80, r = 0.22); the bound is about
    # 1.21 times that. While the run held its resolved schedule, its sends
    # as Python floats in per-edge tuples, through the loop, it peaked at
    # 146.0 B (145.2 B at n = 80).
    config = preset("random_geometric")
    assert config.schedule_mode == "random_uniform"
    run(config)  # leave one-time allocations out of the count
    tracemalloc.start()
    try:
        trace = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 125 * len(trace.events)


@pytest.mark.parametrize("variant", ["gradient", "no_slowdown"])
def test_report_peaks_little_above_the_run_per_event(variant):
    # compute_report on the D = 128 wait chain peaks 19.8 B per event above
    # what the run holds, under either variant, set by the search of a
    # 256-sample block's rows (17.3 B while each node's rows were searched
    # one node at a time). While the pair pass kept each sub-block's offsets
    # and pair bounds alive through its exact evaluations, and those made
    # three temporaries where one does, it peaked at 26.2 B. Either way the
    # run's own peak, in _rebase_history, is the higher.
    config = build_wait_chain_scenario(128, 0.1, 1.0, 1.0, variant=variant)
    compute_report(run(config))  # leave one-time allocations out of the count
    tracemalloc.start()
    try:
        trace = run(config)
        held, run_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        compute_report(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held < 21 * len(trace.events)
    assert peak < run_peak


def test_random_field_report_peaks_little_above_the_run():
    # compute_report on the random_geometric preset (50 nodes, 21,516
    # samples) peaks 0.41 MB above what the run holds. While each evaluated
    # block was 4,096 samples wide, nodes x 4,096 floats, it peaked 2.09 MB
    # above (3.83 MB against 1.74 MB held).
    config = preset("random_geometric")
    compute_report(run(config))  # leave one-time allocations out of the count
    tracemalloc.start()
    try:
        trace = run(config)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        compute_report(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held <= 0.9e6


def test_csv_streamed_peak_holds_one_block(tmp_path):
    # Streaming trace.csv of a 10-node random field (3,303 events, 3,344
    # samples) to a file peaks at 0.74 MB: one block's rows and the event
    # kinds of its instants; the bound is about 1.2 times that. With the
    # (time, node) -> kinds map built for the whole run at once it peaked at
    # 4.9 MB (5.3 MB at twice the horizon), and at 30.2 MB on the
    # random_geometric preset, against 3.6 MB now.
    config = replace(
        preset("random_geometric"),
        topology=TopologySpec(kind="random_geometric", n=10, radius=0.6, seed=7),
        horizon=40.0,
    )
    trace = run(config)
    with open(tmp_path / "trace.csv", "w", encoding="utf-8") as out:
        trace_csv_text(trace, out)  # leave one-time allocations out of the count
    tracemalloc.start()
    try:
        with open(tmp_path / "trace.csv", "w", encoding="utf-8") as out:
            trace_csv_text(trace, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.events) > 3000
    assert peak < 0.9e6


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


# A chain whose sends, starts and drift breakpoints share instants: every
# edge sends at 1.0, where node 1 starts and a drift piece begins, and the
# unstarted nodes send before it, so t = 1.0 is the fifth sample.
SHARED_INSTANTS = RunConfig(
    topology=TopologySpec(kind="chain", n=4),
    drift_bound=0.1,
    max_gap=1.0,
    skew_threshold=0.5,
    horizon=6.0,
    drift_mode="piecewise_random",
    drift_dwell=1.0,
    schedule_mode="scripted",
    scripted_sends={
        (0, 1): (1.0, 2.0, 3.0, 4.0, 5.0),
        (1, 0): (0.25, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0),
        (1, 2): (0.5, 1.0, 2.0, 3.0, 4.0, 5.0),
        (2, 1): (0.75, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0),
        (2, 3): (1.0, 2.0, 3.0, 4.0, 5.0),
        (3, 2): (1.0, 2.0, 3.0, 3.5, 4.0, 5.0),
    },
)


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

    @pytest.mark.parametrize(
        "config", [preset("wait_chain"), SHARED_INSTANTS], ids=["wait_chain", "shared_instants"]
    )
    def test_csv_bytes_do_not_depend_on_the_block_width(self, monkeypatch, config):
        trace = run(config)
        texts = []
        for block in (1, 5, 256):
            monkeypatch.setattr(metrics, "_EVAL_BLOCK", block)
            texts.append(trace_csv_text(trace))
        assert texts[0] == texts[1] == texts[2]

    def test_shared_instants_fall_on_block_edges(self):
        # At width 5, t = 1.0 ends the first block: every node sends there,
        # node 1 starts on node 0's message, and a drift piece begins;
        # t = 4.0, with sends and a drift break, begins the third.
        trace = run(SHARED_INSTANTS)
        times = trace.sample_times.tolist()
        assert (times.index(1.0), times.index(4.0)) == (4, 10)
        assert trace.start_times.tolist() == [0.0, 1.0, 2.0, 3.0]
        rows = trace_csv_text(trace).split("\n")
        assert [r.rsplit(",", 1)[1] for r in rows if r.startswith(("1.0,", "4.0,"))] == [
            "send+drift", "send+start+recv+drift", "send+drift", "send+drift",
            "recv+send+drift", "recv+send+drift", "recv+send+drift", "send+recv+drift",
        ]

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


def searched_sample_history(history, clocks, times):
    """sample_history as one search per sample: into the node's whole rebase
    history for the rebase point, and into its drift breakpoints through
    hardware_time for the value and in the schedule's tuples for the rate."""
    ts = np.asarray(times, dtype=float)
    logical = np.full((len(history), ts.size), np.nan)
    alphas = np.full((len(history), ts.size), np.nan)
    rates = np.full((len(history), ts.size), np.nan)
    for i, (hist, clock) in enumerate(zip(history, clocks)):
        if hist.times.size == 0:
            continue
        first = int(np.searchsorted(ts, hist.times[0], side="left"))
        if first == ts.size:
            continue
        now = ts[first:]
        base = np.searchsorted(hist.times, now, side="right") - 1
        alpha = hist.factors[base]
        logical[i, first:] = hist.values[base] + alpha * (
            clock.hardware_time(now) - hist.hardware[base]
        )
        alphas[i, first:] = alpha
        segment = np.searchsorted(clock.schedule.breakpoints, now, side="right") - 1
        rates[i, first:] = alpha * (1.0 + np.array(clock.schedule.rates)[segment])
    return logical, alphas, rates


EVALUATOR_CONFIGS = {
    **{name: preset(name) for name in sorted(PRESETS)},
    **{
        f"wait_chain_d{d}_{variant}_{'process' if process else 'start_only'}": (
            build_wait_chain_scenario(d, 0.1, 1.0, 1.0, variant=variant, process_on_start=process)
        )
        for d in (4, 16)
        for variant in ("gradient", "no_slowdown", "large_c")
        for process in (True, False)
    },
    "grid": RunConfig(
        topology=TopologySpec(kind="grid", rows=4, cols=5),
        drift_bound=0.3,
        max_gap=1.0,
        skew_threshold=0.1,
        initiators=(0, 5),
        drift_mode="piecewise_random",
        drift_dwell=2.0,
        schedule_mode="random_uniform",
    ),
    "ring": RunConfig(
        topology=TopologySpec(kind="ring", n=7),
        drift_bound=0.2,
        max_gap=1.0,
        skew_threshold=0.5,
        drift_mode="piecewise_random",
        drift_dwell=0.3,
        schedule_mode="random_uniform",
        gap_min=0.0,
    ),
}


def evaluator_time_sets(trace):
    grid = trace.sample_times
    off_grid = np.sort(np.random.default_rng(4).uniform(0.0, trace.horizon, 600))
    return {
        "grid": grid,
        "off_grid": off_grid,
        "repeated": np.repeat(grid[::3], 3),
        "slice": grid[grid.size // 2 : grid.size // 2 + 4],
        "last": grid[-1:],
    }


@functools.cache
def unstarted_node_history():
    """A random_uniform grid run with two nodes that never start inserted,
    one among the nodes and one last, each with a copy of node 0's clock:
    its History and clocks."""
    trace = run(EVALUATOR_CONFIGS["grid"])
    nodes, clocks = list(trace.history), list(trace.clocks)
    never = (np.empty(0),) * 4
    for at in (3, len(nodes) + 1):
        nodes.insert(at, never)
        clocks.insert(at, clocks[0])
    return history_of(nodes), tuple(clocks)


class TestSampleHistory:
    @pytest.mark.parametrize("name", sorted(EVALUATOR_CONFIGS))
    def test_matches_one_search_per_sample(self, name):
        trace = run(EVALUATOR_CONFIGS[name])
        points = np.concatenate([hist.times for hist in trace.history])
        assert np.unique(points).size < points.size  # equal-time rebase points occur
        for label, times in evaluator_time_sets(trace).items():
            got = sample_history(trace.history, trace.clock_table, times)
            expected = searched_sample_history(trace.history, trace.clocks, times)
            for actual, wanted in zip(got, expected, strict=True):  # logical, alphas, rates
                np.testing.assert_array_equal(actual, wanted, err_msg=label, strict=True)
            assert np.array_equal(trace.evaluate_logical(times), got[0], equal_nan=True)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_blocks_match_one_search_per_sample(self, data):
        # Drawn non-decreasing times, cut into blocks of a drawn width: the
        # flat evaluator and sample_history give every cell's bits as the
        # per-sample search does, NaN cells included.
        history, clocks = unstarted_node_history()
        table = clock_table(clocks)
        pool = np.concatenate((history.times, table.breaks, [table.horizon]))
        times = np.sort(data.draw(st.lists(
            st.one_of(
                st.sampled_from(pool.tolist()),
                st.floats(min_value=0.0, max_value=table.horizon),
            ),
            min_size=1,
            max_size=40,
        )))
        width = data.draw(st.integers(min_value=1, max_value=times.size + 1))
        blocks = list(_grid_blocks(history, table, times, width, True))
        cuts = [times[s0 : s0 + width] for s0 in range(0, times.size, width)]
        assert [block.tolist() for block, _ in blocks] == [cut.tolist() for cut in cuts]
        flat = [np.concatenate(parts, axis=1) for parts in zip(*(values for _, values in blocks))]
        whole = sample_history(history, table, times)
        expected = searched_sample_history(history, clocks, times)
        for got, single, wanted in zip(flat, whole, expected, strict=True):
            assert got.shape == wanted.shape
            assert np.array_equal(got.view(np.int64), wanted.view(np.int64))
            assert np.array_equal(single.view(np.int64), wanted.view(np.int64))

    def test_refuses_times_out_of_order_or_range(self):
        trace = run(preset("two_node"))
        with pytest.raises(ValueError, match="sample times must be a non-decreasing 1-d sequence"):
            trace.evaluate_logical([1.0, 2.0, 1.5])
        with pytest.raises(ValueError, match="sample times must be a non-decreasing 1-d sequence"):
            trace.evaluate_logical([1.0, float("nan"), 2.0])
        outside = rf"time outside covered horizon \[0, {trace.horizon}\]"
        for times in ([-1e-9, 1.0], [1.0, trace.horizon + 1e-9], [float("nan")]):
            with pytest.raises(ValueError, match=outside):
                trace.evaluate_logical(times)
        assert trace.evaluate_logical([0.0, trace.horizon]).shape == (2, 2)


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

    @pytest.mark.parametrize("block", [1, 2, 4, 7])
    def test_unstarted_cells_and_ties_across_blocks(self, monkeypatch, block):
        # The report pass is fed a synthetic dense matrix, one evaluated
        # block at a time, with unstarted cells that no rebase history can
        # produce (a node stopping and restarting). Small integer values make
        # equal spreads and equal extremes common, so tie-breaking is checked
        # within a column and across blocks, and ties with a running maximum
        # across adjacent blocks, each its own pair bound.
        monkeypatch.setattr(metrics, "_EVAL_BLOCK", block)
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
        monkeypatch.setattr(metrics, "_EVAL_BLOCK", block)
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
    width = metrics._EVAL_BLOCK
    for warmup in warmups:
        first = np.searchsorted(sample_times, warmup, side="left")
        blocks = (
            (sample_times[s0 : s0 + width], (logical[:, s0 : s0 + width], None, None))
            for s0 in range(first, sample_times.size, width)
        )
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
    monkeypatch.setattr(metrics, "_EVAL_BLOCK", 1)
    logical = np.full((4, 4), np.nan)
    # the pair's running maximum ties the unslacked bound exactly, twice ...
    logical[[j, i], 0] = logical[[j, i], 2] = (0.0, unslacked)
    # ... and its true skew lies a few ulps above it, twice (a tie)
    logical[[ref, j, i], 1] = logical[[ref, j, i], 3] = (r, low, high)
    assert_pass_matches_reference(logical, chain(4), (0.0,))
