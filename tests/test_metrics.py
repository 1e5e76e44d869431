import json
from dataclasses import replace

import numpy as np
import pytest

from gradsync.engine import (
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
        by_name = {v.name: v for v in bound_checks(self.fake_report(), self.config())}
        assert by_name["neighbor_skew"].scope == "guaranteed"
        off_scenario = self.config(label="")
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
# matrix that the blocked reductions in gradsync.metrics replaced. The
# blocked code performs the same float operations per element, so every
# report field must match exactly.


def reference_global_skew(trace, warmup=0.0):
    best = GlobalSkew(0.0, (0, 0), 0.0)
    for col in np.nonzero(trace.sample_times >= warmup)[0]:
        values = trace.logical[:, col]
        live = np.nonzero(~np.isnan(values))[0]
        if live.size < 2:
            continue
        lo = live[np.argmin(values[live])]
        hi = live[np.argmax(values[live])]
        spread = float(values[hi] - values[lo])
        if spread > best.value:
            pair = (int(lo), int(hi)) if lo < hi else (int(hi), int(lo))
            best = GlobalSkew(spread, pair, float(trace.sample_times[col]))
    return best


def reference_max_skew_matrix(trace, warmup=0.0):
    cols = np.nonzero(trace.sample_times >= warmup)[0]
    n = trace.node_count
    out = np.full((n, n), -np.inf)
    if cols.size == 0:
        return out
    values = trace.logical[:, cols]
    chunk = max(1, 2_000_000 // max(1, n * n))
    for s0 in range(0, values.shape[1], chunk):
        block = values[:, s0 : s0 + chunk]
        diff = np.abs(block[:, None, :] - block[None, :, :])
        diff = np.where(np.isnan(diff), -np.inf, diff)
        np.maximum(out, diff.max(axis=2), out=out)
    return out


def reference_report(trace, warmup=0.0):
    report = compute_report(trace, warmup)
    top = reference_global_skew(trace, warmup)
    matrix = reference_max_skew_matrix(trace, warmup)
    topo = trace.topology
    per_edge = {
        (i, j): float(matrix[i, j]) if np.isfinite(matrix[i, j]) else 0.0
        for i, j in topo.undirected_edges()
    }
    profile = {}
    for k in range(1, topo.diameter + 1):
        values = matrix[topo.distances == k]
        finite = values[np.isfinite(values)]
        profile[k] = float(finite.max()) if finite.size else 0.0
    expected = replace(
        report,
        max_global_skew=top.value,
        attaining_pair=top.pair,
        attaining_time=top.time,
        per_edge_max_skew=per_edge,
        gradient_profile=profile,
    )
    return replace(expected, bound_verdicts=bound_checks(expected, trace.config))


def assert_report_matches_reference(trace, warmup=0.0):
    report = compute_report(trace, warmup)
    assert report == reference_report(trace, warmup)
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
        for warmup in (0.5, trace.horizon * 0.4, trace.horizon, trace.horizon + 1.0):
            assert_report_matches_reference(trace, warmup)

    def test_more_samples_than_one_block(self):
        trace = run(replace(preset("random_geometric"), seed=3))
        assert trace.sample_times.size > 3 * metrics._BLOCK
        # a warm-up that starts the first block off a block boundary
        assert_report_matches_reference(trace, float(trace.sample_times[metrics._BLOCK + 7]))

    @pytest.mark.parametrize("block", [1, 4, 7])
    def test_unstarted_cells_and_ties_across_blocks(self, monkeypatch, block):
        # small integer values make equal spreads and equal extremes common,
        # so tie-breaking is checked within a column and across blocks
        monkeypatch.setattr(metrics, "_BLOCK", block)
        base = symmetric_run()
        rng = np.random.default_rng(5)
        samples = 40
        logical = rng.integers(0, 4, size=(base.node_count, samples)).astype(float)
        logical[rng.random(logical.shape) < 0.3] = np.nan
        logical[:, :6] = np.nan  # nobody has started
        logical[2, 3:6] = 1.0  # a single started node has no pair to measure
        logical[5] = np.nan  # never starts: its edges report 0.0
        # the first warm column at warmup 11.0 is empty, and the one after it
        # attains the largest spread
        logical[:, 22] = np.nan
        logical[0:2, 23] = (0.0, 3.0)
        trace = replace(base, logical=logical, sample_times=np.arange(samples) * 0.5)
        for warmup in (0.0, 3.25, 11.0):
            assert_report_matches_reference(trace, warmup)
