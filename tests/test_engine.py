import json
import math
import time
import tracemalloc
from collections import defaultdict
from dataclasses import fields, replace

import numpy as np
import pytest

from gradsync import engine, protocol
from gradsync import topology as topo_mod
from gradsync.engine import (
    WORKLOAD_CAP,
    ConfigError,
    RunConfig,
    TopologySpec,
    _hardware_times,
    build_wait_chain_scenario,
    config_from_dict,
    config_to_dict,
    generate_schedule,
    resolve,
    run,
    validate_config,
    wait_chain_length,
)
from gradsync.metrics import NodeHistory, trace_csv_text
from gradsync.presets import PRESETS, preset
from gradsync.topology import chain, grid, random_geometric, ring


def edge_send_times(trace):
    per_edge = defaultdict(list)
    for ev in trace.events:
        per_edge[(ev.src, ev.dst)].append(ev.send_time)
    return per_edge


class TestGenerateSchedule:
    def test_periodic_times(self):
        sched = generate_schedule(chain(3), 1.0, "periodic", seed=0, horizon=3.5)
        for times in sched.sends.values():
            assert list(times) == [1.0, 2.0, 3.0]

    def test_random_uniform_gap_domain(self):
        sched = generate_schedule(ring(6), 1.0, "random_uniform", seed=7, horizon=30.0)
        for times in sched.sends.values():
            prev = 0.0
            for t in times:
                gap = t - prev
                assert 0.25 < gap <= 1.0
                prev = t

    def test_scripted_gap_violation_named(self):
        with pytest.raises(ConfigError, match=r"edge 0->1: gap 1.2"):
            generate_schedule(
                chain(2),
                1.0,
                "scripted",
                seed=0,
                horizon=3.0,
                scripted={(0, 1): (1.0, 2.2, 3.0), (1, 0): (1.0, 2.0, 3.0)},
            )

    def test_scripted_ordering_violation(self):
        with pytest.raises(ConfigError, match="not increasing"):
            generate_schedule(
                chain(2),
                1.0,
                "scripted",
                seed=0,
                horizon=2.0,
                scripted={(0, 1): (1.0, 1.0, 2.0), (1, 0): (0.5, 1.5, 2.0)},
            )

    def test_scripted_nan_time_named(self):
        # NaN fails every comparison, so the gap checks alone let it through
        with pytest.raises(ConfigError) as caught:
            generate_schedule(
                chain(2),
                1.0,
                "scripted",
                seed=0,
                horizon=2.0,
                scripted={(0, 1): (0.5, math.nan, 1.5), (1, 0): (0.5, 1.0, 1.5)},
            )
        assert caught.value.violations == ["edge 0->1: send time nan is not a number"]

    def test_scripted_unknown_edge_rejected(self):
        with pytest.raises(ConfigError, match="not in the topology"):
            generate_schedule(
                chain(2), 1.0, "scripted", seed=0, horizon=2.0, scripted={(0, 5): (1.0,)}
            )

    def test_scripted_must_cover_horizon(self):
        with pytest.raises(ConfigError, match="no send in the last"):
            generate_schedule(
                chain(2),
                1.0,
                "scripted",
                seed=0,
                horizon=5.0,
                scripted={(0, 1): (1.0,), (1, 0): (1.0, 2.0, 3.0, 4.0, 5.0)},
            )


    @staticmethod
    def loop_uniform_sends(topology, max_gap, seed, horizon, gap_min=None):
        """The random_uniform schedule stepped by a plain loop, one
        _capped_step per drawn gap, and the number of steps it capped."""
        low = max_gap / 4.0 if gap_min is None else gap_min
        chunk = min(int(2.0 * horizon / (max_gap + low)) + 16, engine._GAP_CHUNK)
        sends, capped = {}, 0
        for src, dst in topology.directed_edges():
            rng = np.random.default_rng((seed, 0x5C4ED, src, dst))
            times = []
            t = 0.0
            while t <= horizon:
                for u in rng.uniform(0.0, max_gap - low, size=chunk).tolist():
                    prev, t = t, engine._capped_step(t, max_gap - u, max_gap)
                    capped += t != prev + (max_gap - u)
                    if t > horizon:
                        break
                    times.append(t)
            sends[(src, dst)] = tuple(times)
        return sends, capped

    @pytest.mark.parametrize(
        "max_gap, gap_min, horizon",
        [
            (1.0, None, 30.0),
            (1e-3, 0.0, 0.5),
            (1e-3, None, 5.0),  # an edge needs more than one chunk of draws
            (1.0, 1.0 - 4e-16, 200.0),  # gaps within ulps of max_gap get capped
        ],
    )
    def test_random_uniform_steps_match_the_scalar_loop(self, max_gap, gap_min, horizon):
        capped = 0
        for seed in range(12):
            expected, count = self.loop_uniform_sends(ring(5), max_gap, seed, horizon, gap_min)
            capped += count
            sched = generate_schedule(
                ring(5), max_gap, "random_uniform", seed, horizon, gap_min=gap_min
            )
            assert sched.sends == expected
        if gap_min is not None and gap_min > 0.5:
            assert capped > 0
        if horizon == 5.0:
            assert max(len(times) for times in expected.values()) > engine._GAP_CHUNK

    @staticmethod
    def walk_every_edge(schedule):
        """CommSchedule.violations as one walk per edge."""
        found = []
        for (src, dst), times in sorted(schedule.sends.items()):
            prev, first = 0.0, True
            for t in times:
                gap = t - prev
                if t != t:
                    found.append(f"edge {src}->{dst}: send time {t} is not a number")
                    continue
                if t > schedule.horizon:
                    found.append(
                        f"edge {src}->{dst}: send time {t} is past horizon {schedule.horizon}"
                    )
                if gap <= 0.0 and first:
                    found.append(f"edge {src}->{dst}: send time {t} is not after the run start")
                elif gap <= 0.0:
                    found.append(f"edge {src}->{dst}: send times not increasing at {t}")
                elif gap > schedule.max_gap:
                    found.append(
                        f"edge {src}->{dst}: gap {gap} exceeds max_gap {schedule.max_gap}"
                    )
                prev, first = t, False
            if times and schedule.horizon - times[-1] > schedule.max_gap:
                found.append(
                    f"edge {src}->{dst}: no send in the last {schedule.horizon - times[-1]}"
                    f" before the horizon (max_gap {schedule.max_gap})"
                )
            if not times and schedule.horizon > schedule.max_gap:
                found.append(f"edge {src}->{dst}: no sends scheduled")
        return found

    def test_violations_match_one_walk_per_edge(self):
        shared = (0.0, 1.0, 1.0, 2.5, math.nan, 3.0)  # one tuple on three edges
        sends = {
            (0, 1): (0.5, math.nan, 1.5, 1.5, 2.7, 4.5),
            (1, 0): shared,
            (1, 2): (),
            (2, 1): shared,
            (2, 3): (1.0, 2.0, 3.0, 4.0),
            (3, 2): shared,
            (3, 0): (-0.5, 0.5, 1.0),
            (0, 3): (1.0, 2.0, 3.0, 4.0, 4.0),
        }
        schedule = engine.CommSchedule(max_gap=1.0, horizon=4.0, sends=sends)
        found = schedule.violations()
        assert found == self.walk_every_edge(schedule)
        for edge in ("1->0", "2->1", "3->2"):
            assert f"edge {edge}: send time 0.0 is not after the run start" in found
        assert "edge 0->1: send time 4.5 is past horizon 4.0" in found

    def test_periodic_schedule_checked_once_per_tuple(self, monkeypatch):
        sched = generate_schedule(ring(6), 1.0, "periodic", seed=0, horizon=7.0)
        assert len({id(times) for times in sched.sends.values()}) == 1
        walks = []
        walk = engine.CommSchedule._faults
        monkeypatch.setattr(
            engine.CommSchedule, "_faults", lambda self, times: walks.append(1) or walk(self, times)
        )
        faulty = engine.CommSchedule(max_gap=0.5, horizon=7.5, sends=sched.sends)
        found = faulty.violations()
        assert len(walks) == 1
        assert found == self.walk_every_edge(faulty)
        assert len(found) == len(sched.sends) * 7  # every gap exceeds max_gap on every edge


SCRIPTED_TIES = {
    # equal times across edges and nodes, so every tie-break key is used
    (0, 1): (0.5, 1.0, 2.0, 3.0),
    (1, 0): (1.0, 2.0, 3.0),
    (1, 2): (0.5, 1.0, 2.0, 2.5),
    (2, 1): (1.0, 2.0, 3.0),
    (2, 3): (1.0, 1.5, 2.0, 3.0),
    (3, 2): (1.0, 2.0, 3.0),
    (3, 0): (1.0, 2.0, 3.0),
    (0, 3): (0.5, 1.0, 2.0, 3.0),
}


class TestEventOrder:
    """CommSchedule.events() is the Python key sort (t, -src, dst, seq), as columns."""

    @pytest.mark.parametrize(
        "topology,mode,horizon",
        [
            (chain(5), "periodic", 6.5),
            (grid(3, 3), "periodic", 5.0),
            (ring(6), "random_uniform", 12.0),
            (random_geometric(20, 0.4, 3), "random_uniform", 8.0),
            (ring(4), "scripted", 3.0),
        ],
    )
    def test_columns_match_key_sort(self, topology, mode, horizon):
        scripted = SCRIPTED_TIES if mode == "scripted" else None
        sched = generate_schedule(topology, 1.0, mode, 7, horizon, scripted=scripted)
        reference = sorted(
            (t, -src, dst, k)
            for (src, dst), times in sched.sends.items()
            for k, t in enumerate(times)
        )
        times, src, dst = sched.events()
        assert times.tolist() == [key[0] for key in reference]
        assert src.tolist() == [-key[1] for key in reference]
        assert dst.tolist() == [key[2] for key in reference]
        if mode != "random_uniform":
            assert len(set(times.tolist())) < len(reference)  # ties are exercised


class TestEventHardwareTimes:
    """The per-node vector evaluation equals the scalar one, event by event."""

    @pytest.mark.parametrize("mode", ["periodic", "random_uniform"])
    def test_matches_scalar_on_piecewise_random_clocks(self, mode):
        # dwell 0.5 with periodic sends at 1.0 puts every event time before
        # the horizon on a drift breakpoint of every clock
        cfg = RunConfig(
            topology=TopologySpec(kind="grid", rows=3, cols=3),
            drift_bound=0.3,
            max_gap=1.0,
            skew_threshold=1.0,
            drift_mode="piecewise_random",
            drift_dwell=0.5,
            schedule_mode=mode,
            seed=4,
        )
        setup = resolve(cfg)
        times, src, dst = setup.schedule.events()
        breaks = set(setup.clocks[0].schedule.breakpoints)
        on_breaks = sum(t in breaks for t in times.tolist())
        inside = int(np.sum(times < setup.horizon))
        assert on_breaks == (inside if mode == "periodic" else 0)
        for nodes in (src, dst):
            vector = _hardware_times(setup.clocks, times, nodes)
            scalar = [
                setup.clocks[i].hardware_time(t) for t, i in zip(times.tolist(), nodes.tolist())
            ]
            assert vector.tolist() == scalar

    def test_matches_scalar_exactly_on_breakpoints(self):
        cfg = replace(preset("drifting_chain"), drift_dwell=0.25)
        clocks = resolve(cfg).clocks
        times = np.array(
            [b for c in clocks for b in c.schedule.breakpoints] + [clocks[0].horizon]
        )
        nodes = np.arange(times.size) % len(clocks)
        vector = _hardware_times(clocks, times, nodes)
        assert vector.tolist() == [
            clocks[i].hardware_time(t) for t, i in zip(times.tolist(), nodes.tolist())
        ]


class TestValidate:
    def base(self, **kw):
        cfg = RunConfig(
            topology=TopologySpec(kind="chain", n=5),
            drift_bound=0.1,
            max_gap=1.0,
            skew_threshold=1.0,
        )
        return replace(cfg, **kw)

    def test_valid_config_passes(self):
        assert validate_config(self.base()) == []

    def test_drift_bound_must_be_below_one(self):
        problems = validate_config(self.base(drift_bound=1.0))
        assert any("drift_bound must be in [0, 1), got 1.0" in p for p in problems)

    def test_threshold_limit_message(self):
        problems = validate_config(self.base(skew_threshold=2.2))
        assert any(
            "skew_threshold 2.2 exceeds (1+drift_bound)*max_gap = 1.1" in p
            for p in problems
        )

    def test_large_c_exempt_from_threshold_limit(self):
        assert validate_config(self.base(skew_threshold=2.2, variant="large_c")) == []

    def test_diameter_bound_below_true_diameter(self):
        problems = validate_config(self.base(diameter_bound=3))
        assert any("below the topology diameter 4" in p for p in problems)

    def test_initiators_checked(self):
        assert any(
            "nonempty" in p for p in validate_config(self.base(initiators=()))
        )
        assert any(
            "out of range" in p for p in validate_config(self.base(initiators=(9,)))
        )
        assert any(
            "duplicate" in p for p in validate_config(self.base(initiators=(0, 0)))
        )

    def test_run_refuses_invalid_config(self):
        with pytest.raises(ConfigError):
            run(self.base(drift_bound=1.5))

    def test_multiple_violations_all_reported(self):
        problems = validate_config(self.base(drift_bound=-2.0, max_gap=0.0))
        assert len(problems) >= 2

    @pytest.mark.parametrize(
        "changes",
        [
            dict(horizon=1e9),  # 8 directed edges send about 8e9 times
            dict(horizon=50.0, drift_mode="piecewise_random", drift_dwell=1e-6),
        ],
    )
    def test_workload_over_the_cap_refused(self, changes):
        # refused from the config alone: nothing the size of the run is built
        tracemalloc.start()
        try:
            problems = validate_config(self.base(**changes))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [p for p in problems if p.startswith("workload of about")] == problems
        assert f"exceeds the cap of {WORKLOAD_CAP:,}" in problems[0]
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "spec",
        [
            TopologySpec(kind="grid", rows=100000, cols=100000),
            TopologySpec(kind="edge_list", edges=((0, 1000000000),)),
            TopologySpec(kind="chain", n=20000),
        ],
    )
    def test_node_pairs_over_the_cap_refused_before_any_adjacency(self, spec):
        tracemalloc.start()
        try:
            problems = validate_config(self.base(topology=spec, horizon=2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(problems) == 1
        assert problems[0].endswith(f"nodes has over {WORKLOAD_CAP:,} node pairs")
        assert peak < 1 << 20

    # never connected: each draw compares every pair, milliseconds at 200
    # nodes; 1000 nodes have 499,500 pairs, so 1002 draws are one too many
    @pytest.mark.parametrize("n,retries", [(200, 10**9), (1000, 1002)])
    def test_random_geometric_draws_over_the_cap_refused(self, n, retries):
        spec = TopologySpec(kind="random_geometric", n=n, radius=1e-9, retries=retries)
        start = time.perf_counter()
        problems = validate_config(self.base(topology=spec, horizon=2.0))
        assert time.perf_counter() - start < 1.0
        assert problems == [
            f"random_geometric topology of {n:,} nodes with {retries:,} retries "
            f"may compare over {50 * WORKLOAD_CAP:,} node pairs"
        ]

    def test_negative_seeds_and_retries_refused(self):
        rgg = TopologySpec(kind="random_geometric", n=20, radius=0.4)
        assert validate_config(self.base(seed=-1)) == ["seed must be non-negative, got -1"]
        assert validate_config(self.base(topology=rgg, seed=-1)) == [
            "seed must be non-negative, got -1"
        ]
        assert validate_config(self.base(topology=replace(rgg, seed=-2))) == [
            "random_geometric seed must be non-negative, got -2"
        ]
        assert validate_config(self.base(topology=replace(rgg, retries=-5))) == [
            "random_geometric retries must be non-negative, got -5"
        ]

    def test_workload_cap_far_above_the_presets_and_benchmarks(self, monkeypatch):
        rgg = preset("random_geometric")
        rgg_200 = replace(rgg, topology=replace(rgg.topology, n=200, radius=0.14, seed=1))
        monkeypatch.setattr(engine, "WORKLOAD_CAP", WORKLOAD_CAP // 50)
        monkeypatch.setattr(topo_mod, "WORKLOAD_CAP", WORKLOAD_CAP // 50)
        configs = [preset(name) for name in PRESETS]
        configs += [build_wait_chain_scenario(128, 0.1, 1.0, 1.0), rgg_200]
        for config in configs:
            assert validate_config(config) == [], config.label


_CHAIN_5 = RunConfig(
    topology=TopologySpec(kind="chain", n=5), drift_bound=0.1, max_gap=1.0, skew_threshold=1.0
)
_RGG = preset("random_geometric")


@pytest.mark.parametrize(
    "config,runs",
    [
        (replace(_CHAIN_5, diameter_bound=2**53), True),
        (replace(_CHAIN_5, seed=10**400), True),
        (replace(_RGG, topology=replace(_RGG.topology, seed=10**40)), True),
        (replace(_CHAIN_5, diameter_bound=2**53 + 1), False),
        (replace(_CHAIN_5, topology=TopologySpec(kind="edge_list", edges=((0, 1), (-3, 1)))),
         False),
        # 1500 nodes within radius 0.3 have about 240,000 edges: 7.2e8 BFS steps
        (replace(_RGG, topology=replace(_RGG.topology, n=1500)), False),
    ],
    ids=["bound_2**53", "seed_10**400", "topology_seed_10**40", "bound_2**53+1",
         "negative_edge_id", "dense_rgg"],
)
def test_validate_and_run_agree_at_the_input_edges(config, runs):
    problems = validate_config(config)
    assert (problems == []) is runs, problems
    if runs:
        assert run(config).events
    else:
        with pytest.raises(ConfigError) as refused:
            run(config)
        assert refused.value.violations == problems


class TestWaitChainScenario:
    def test_construction(self):
        cfg = build_wait_chain_scenario(4, 0.1, 1.0, 1.0)
        assert cfg.topology.n == 5
        assert cfg.initiators == (0,)
        assert cfg.drift_signs == (1, -1, -1, -1, -1)
        assert cfg.horizon == (2 * 4 + 4) * 1.0
        assert cfg.label == "wait_chain"
        assert validate_config(cfg) == []

    def test_chain_over_the_pair_cap_refused_before_it_is_built(self):
        # 4472 nodes have 9,997,156 pairs, 4473 have 10,001,628
        assert build_wait_chain_scenario(4471, 0.1, 1.0, 1.0).topology.n == 4472
        with pytest.raises(ConfigError, match=f"diameter 4,472 has over {WORKLOAD_CAP:,} node"):
            build_wait_chain_scenario(4472, 0.1, 1.0, 1.0)
        assert not engine.is_wait_chain(replace(preset("wait_chain"), drift_signs=(1,) * 4473))

    def test_wait_chain_length_formula(self):
        assert wait_chain_length(10, 0.1, 1.0, 1.0) == 10.0
        # boundary: threshold exactly (1+bound)*gap
        assert wait_chain_length(10, 0.1, 1.0, 1.1) == 10.0
        # beyond the validated range the ratio can shrink the chain
        assert wait_chain_length(10, 0.0, 1.0, 2.0) == 5.0


class TestRun:
    def test_two_node_hand_trace(self):
        trace = run(preset("two_node"))
        t1 = np.searchsorted(trace.sample_times, 1.0)
        assert trace.start_times.tolist() == [0.0, 1.0]
        assert trace.logical[1, t1] == 1.0  # woke at 0, processed to 1
        assert trace.logical[0, t1] == 1.0

    def test_start_times_are_first_rebase_times(self):
        trace = run(replace(preset("startup_chain"), horizon=1.5))
        assert trace.start_times.tolist() == [0.0, 1.0, math.inf, math.inf, math.inf]
        drifting = preset("drifting_chain")
        for cfg in (drifting, replace(drifting, initiators=(0, 4), process_on_start=False)):
            trace = run(cfg)
            expected = np.full(trace.node_count, np.inf)
            expected[list(cfg.initiators)] = 0.0
            for ev in trace.events:
                if ev.started_receiver:
                    expected[ev.dst] = ev.send_time
            assert np.array_equal(trace.start_times, expected)
            assert trace.start_times.tolist() == [h.times[0] for h in trace.history]

    def test_two_node_without_processing_on_start(self):
        trace = run(replace(preset("two_node"), process_on_start=False))
        t1 = np.searchsorted(trace.sample_times, 1.0)
        assert trace.logical[1, t1] == 0.0
        t2 = np.searchsorted(trace.sample_times, 2.0)
        assert trace.logical[1, t2] == 2.0  # next reception closes the gap

    def test_no_events_before_zero_and_initiators_at_zero(self):
        trace = run(preset("startup_chain"))
        assert trace.sample_times[0] == 0.0
        assert all(ev.send_time > 0.0 for ev in trace.events)
        assert trace.logical[0, 0] == 0.0

    def test_delivery_is_instantaneous(self):
        trace = run(preset("wait_chain"))
        assert all(ev.receive_time == ev.send_time for ev in trace.events)

    def test_gap_bound_holds_exactly(self):
        trace = run(replace(preset("random_geometric"), seed=11))
        gap = trace.config.max_gap
        for times in edge_send_times(trace).values():
            prev = 0.0
            for t in times:
                assert 0.0 < t - prev <= gap
                prev = t
            assert trace.horizon - prev <= gap

    def test_startup_propagates_one_hop_per_gap(self):
        cfg = build_wait_chain_scenario(6, 0.1, 1.0, 1.0)
        trace = run(cfg)
        assert trace.start_times.tolist() == [float(k) for k in range(7)]

    def test_single_initiator_starts_everyone_by_diameter_gap(self):
        cfg = RunConfig(
            topology=TopologySpec(kind="grid", rows=3, cols=3),
            drift_bound=0.1,
            max_gap=1.0,
            skew_threshold=1.0,
            drift_mode="piecewise_random",
            schedule_mode="random_uniform",
            seed=5,
        )
        trace = run(cfg)
        assert np.all(trace.start_times <= trace.topology.diameter * cfg.max_gap)

    def test_default_horizon(self):
        trace = run(
            RunConfig(
                topology=TopologySpec(kind="chain", n=5),
                drift_bound=0.0,
                max_gap=1.0,
                skew_threshold=1.0,
            )
        )
        assert trace.horizon == 4.0 * 4 * 1.0

    def test_determinism_in_process(self):
        cfg = replace(preset("random_geometric"), seed=3)
        a = run(cfg)
        b = run(cfg)
        assert np.array_equal(a.sample_times, b.sample_times)
        assert np.array_equal(a.logical, b.logical, equal_nan=True)
        assert trace_csv_text(a) == trace_csv_text(b)

    def test_logical_values_piecewise_linear_between_samples(self):
        # jumps happen only at sample times, so three strictly interior
        # points of any inter-sample interval must be collinear
        cfg = build_wait_chain_scenario(4, 0.1, 1.0, 1.0)
        trace = run(cfg)
        ts = trace.sample_times
        span = ts[1:] - ts[:-1]
        q1 = trace.evaluate_logical(ts[:-1] + 0.25 * span)
        q2 = trace.evaluate_logical(ts[:-1] + 0.50 * span)
        q3 = trace.evaluate_logical(ts[:-1] + 0.75 * span)
        mask = ~np.isnan(q1)
        assert mask.any()
        assert np.allclose(q2[mask], (q1[mask] + q3[mask]) / 2.0, atol=1e-9)


def looped_run(config):
    """run's event loop with the rebase history kept per node: four lists
    per node, the receiver's level before each reception, and each jump
    and slowdown toggle written at its event, the toggle read from the
    sender's factor. Returns the history, the seven event columns and the
    reduced-rate intervals."""
    setup = resolve(config)
    params, horizon = setup.params, setup.horizon
    n = setup.topology.node_count
    states = [protocol.fresh_state(i, setup.topology.neighbors(i)) for i in range(n)]
    history = [([], [], [], []) for _ in range(n)]
    reduced = {}
    for i in sorted(config.initiators):
        state = protocol.on_start(states[i], 0.0)
        for column, value in zip(history[i], (0.0, state.l_base, state.factor, state.h_base)):
            column.append(value)
    times, srcs, dsts = setup.schedule.events()
    payloads = np.full(times.size, np.nan)
    started = np.zeros(times.size, dtype=bool)
    jumps = np.zeros(times.size)
    toggles = np.zeros(times.size, dtype=np.int8)
    h_srcs = _hardware_times(setup.clocks, times, srcs)
    h_dsts = _hardware_times(setup.clocks, times, dsts)
    rows = zip(times.tolist(), srcs.tolist(), dsts.tolist(), h_srcs.tolist(), h_dsts.tolist())
    for k, (t, src, dst, h_src, h_dst) in enumerate(rows):
        payload = protocol.emit_payload(states[src], h_src)
        if payload is None:
            continue
        payloads[k] = payload
        state = states[dst]
        if not state.started:
            started[k] = True
            protocol.on_start(state, h_dst)
            for column, value in zip(history[dst], (t, state.l_base, state.factor, h_dst)):
                column.append(value)
            if not config.process_on_start:
                protocol.on_receive(state, params, src, payload, h_dst, apply_step2=False)
                continue
        node_times, values, factors, hardware = history[dst]
        level_before = state.l_base + protocol.rate_factor(state) * (h_dst - state.h_base)
        old_factor = state.rate_factors[src]
        protocol.on_receive(state, params, src, payload, h_dst)
        jumps[k] = state.l_base - level_before
        node_times.append(t)
        values.append(state.l_base)
        factors.append(state.factor)
        hardware.append(h_dst)
        new_factor = state.rate_factors[src]
        if new_factor != old_factor:
            toggles[k] = 1 if new_factor < 1.0 else -1
            intervals = reduced.setdefault((dst, src), [])
            if new_factor < 1.0:
                intervals.append((t, horizon))
            else:
                intervals[-1] = (intervals[-1][0], t)
    return (
        tuple(NodeHistory(*map(np.array, columns)) for columns in history),
        (times, srcs, dsts, payloads, started, jumps, toggles),
        {key: tuple(iv) for key, iv in sorted(reduced.items())},
    )


LOOP_CONFIGS = {
    **{
        f"wait_chain_{variant}_{'process' if process else 'start_only'}": (
            build_wait_chain_scenario(12, 0.1, 1.0, 1.0, variant=variant, process_on_start=process)
        )
        for variant in ("gradient", "no_slowdown", "large_c")
        for process in (True, False)
    },
    "grid_two_initiators": RunConfig(
        topology=TopologySpec(kind="grid", rows=4, cols=5),
        drift_bound=0.3,
        max_gap=1.0,
        skew_threshold=0.1,
        initiators=(0, 5),
        drift_mode="piecewise_random",
        drift_dwell=2.0,
        schedule_mode="random_uniform",
    ),
    # nodes 3 and 2 send before they start, and node 1 is woken while
    # node 2 still sends nothing
    "scripted_unstarted_senders": RunConfig(
        topology=TopologySpec(kind="chain", n=4),
        drift_bound=0.1,
        max_gap=1.0,
        skew_threshold=0.5,
        horizon=4.0,
        drift_mode="piecewise_random",
        drift_dwell=0.7,
        schedule_mode="scripted",
        scripted_sends={
            (0, 1): (0.5, 1.5, 2.5, 3.5),
            (1, 0): (0.25, 1.0, 2.0, 3.0),
            (1, 2): (0.75, 1.5, 2.5, 3.25),
            (2, 1): (0.5, 1.25, 2.25, 3.25),
            (2, 3): (0.9, 1.75, 2.75, 3.5),
            (3, 2): (0.1, 1.0, 1.75, 2.75, 3.75),
        },
    ),
    "ring_random_uniform": RunConfig(
        topology=TopologySpec(kind="ring", n=7),
        drift_bound=0.2,
        max_gap=1.0,
        skew_threshold=0.5,
        drift_mode="piecewise_random",
        drift_dwell=0.3,
        schedule_mode="random_uniform",
        gap_min=0.0,
        seed=9,
    ),
}


class TestLoopReference:
    @pytest.mark.parametrize("name", sorted(LOOP_CONFIGS))
    def test_run_matches_the_per_node_loop(self, name):
        config = LOOP_CONFIGS[name]
        trace = run(config)
        history, events, reduced = looped_run(config)
        assert len(trace.history) == len(history)
        for got, wanted in zip(trace.history, history):
            for field in ("times", "values", "factors", "hardware"):
                np.testing.assert_array_equal(
                    getattr(got, field), getattr(wanted, field), err_msg=field, strict=True
                )
        labels = ("time", "src", "dst", "payload", "started", "jump", "toggle")
        for label, wanted in zip(labels, events, strict=True):
            got = getattr(trace.events, label)
            np.testing.assert_array_equal(got, wanted, err_msg=label, strict=True)
        assert trace.reduced_intervals == reduced

    @pytest.mark.parametrize("name", sorted(LOOP_CONFIGS))
    def test_toggles_alternate_on_processed_receptions(self, name):
        config = LOOP_CONFIGS[name]
        events = run(config).events
        toggle = events.toggle
        if config.variant != "gradient":
            assert not toggle.any()
        processed = events.payload == events.payload
        if not config.process_on_start:
            processed &= ~events.started
        assert not toggle[~processed].any()
        # per (receiver, sender): lowered, restored, lowered, ...
        at = np.flatnonzero(toggle)
        for dst, src in set(zip(events.dst[at].tolist(), events.src[at].tolist())):
            own = toggle[at[(events.dst[at] == dst) & (events.src[at] == src)]].tolist()
            assert own == [(-1) ** k for k in range(len(own))], (dst, src)

    def test_configs_cover_the_row_kinds(self):
        # each kind of rebase row the loop records occurs somewhere above
        kinds = set()
        for name, config in LOOP_CONFIGS.items():
            trace = run(config)
            events = trace.events
            carried = ~np.isnan(events.payload)
            if (carried & events.started).any():
                kinds.add("start+reception" if config.process_on_start else "start only")
            if (~carried).any():
                kinds.add("unstarted sender")
            if len(config.initiators) > 1:
                kinds.add("initiators")
            if (events.jump > 0).any():
                kinds.add("jump")
            if trace.reduced_intervals:
                kinds.add("reduced")
        assert kinds == {
            "start+reception", "start only", "unstarted sender", "initiators", "jump", "reduced"
        }


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        cfg = build_wait_chain_scenario(8, 0.1, 1.0, 1.0, variant="no_slowdown")
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_scripted_round_trip(self):
        cfg = RunConfig(
            topology=TopologySpec(kind="chain", n=2),
            drift_bound=0.0,
            max_gap=1.0,
            skew_threshold=0.5,
            horizon=2.0,
            schedule_mode="scripted",
            scripted_sends={(0, 1): (0.5, 1.5), (1, 0): (0.9, 1.8)},
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg
        assert validate_config(cfg) == []

    def test_malformed_config_named(self):
        with pytest.raises(ConfigError, match="malformed config"):
            config_from_dict({"topology": {"kind": "chain", "n": 5}})

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_round_trip_through_json(self, name):
        cfg = preset(name)
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    @pytest.mark.parametrize(
        "spec",
        [
            TopologySpec(kind="grid", rows=3, cols=4),
            TopologySpec(kind="edge_list", edges=((0, 1), (1, 2), (2, 0))),
        ],
    )
    def test_other_topology_kinds_round_trip(self, spec):
        cfg = RunConfig(topology=spec, drift_bound=0.1, max_gap=1.0, skew_threshold=1.0)
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    def test_partial_document_takes_defaults(self):
        doc = {
            "topology": {"kind": "random_geometric", "n": 12, "radius": 0.5, "seed": 11},
            "drift_bound": 0.1,
            "max_gap": 1,
            "skew_threshold": 1.0,
            "drift": {"mode": "piecewise_random", "dwell": 1.0},
            "schedule": {"mode": "random_uniform"},
            "seed": 4,
            "label": "random_field",
        }
        cfg = config_from_dict(doc)
        assert cfg.max_gap == 1.0 and isinstance(cfg.max_gap, float)
        assert (cfg.initiators, cfg.process_on_start, cfg.variant) == ((0,), True, "gradient")
        assert validate_config(cfg) == []

    def test_field_table_covers_every_attribute_once(self):
        attrs = [(engine._owner(path), attr) for path, (attr, _) in engine._FIELDS.items()]
        expected = [(TopologySpec, f.name) for f in fields(TopologySpec)]
        expected += [(RunConfig, f.name) for f in fields(RunConfig) if f.name != "topology"]
        assert sorted(attrs, key=repr) == sorted(expected, key=repr)
        assert len(set(attrs)) == len(attrs)

    def test_every_field_away_from_its_default_round_trips(self):
        cfg = RunConfig(
            topology=TopologySpec(kind="chain", n=3),
            drift_bound=0.2,
            max_gap=2.0,
            skew_threshold=1.5,
            diameter_bound=5,
            horizon=7.5,
            initiators=(2, 0),
            drift_mode="adversarial_extreme",
            drift_dwell=0.5,
            drift_value=-0.1,
            drift_signs=(1, -1, 1),
            schedule_mode="scripted",
            gap_min=0.25,
            scripted_sends={(1, 0): (0.5, 2.0), (0, 1): (1.0,)},
            variant="no_slowdown",
            seed=9,
            process_on_start=False,
            label="every field",
        )
        defaults = {f.name: f.default for f in fields(RunConfig)}
        assert all(getattr(cfg, name) != default for name, default in defaults.items())
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    @pytest.mark.parametrize(
        "spec",
        [
            TopologySpec(kind="chain", n=3),
            TopologySpec(kind="ring", n=5),
            TopologySpec(kind="grid", rows=2, cols=3),
            TopologySpec(kind="random_geometric", n=12, radius=0.5, seed=3, retries=9),
            TopologySpec(kind="edge_list", edges=((0, 1), (1, 2))),
        ],
    )
    def test_every_topology_kind_round_trips(self, spec):
        cfg = RunConfig(topology=spec, drift_bound=0.1, max_gap=1.0, skew_threshold=1.0)
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg
        assert validate_config(cfg) == []

    @pytest.mark.parametrize(
        "path",
        [
            "diameter_bound",
            "horizon",
            "topology.seed",
            "topology.retries",
            "drift.signs",
            "schedule.gap_min",
        ],
    )
    def test_null_reads_as_absent_where_the_default_is_null(self, path):
        doc = config_to_dict(replace(preset("random_geometric"), diameter_bound=9, horizon=5.0))
        *section, key = path.split(".")
        owner = doc[section[0]] if section else doc
        owner[key] = None
        with_null = config_from_dict(doc)
        del owner[key]
        assert with_null == config_from_dict(doc)

    @pytest.mark.parametrize(
        "path,named",
        [
            ("drift_bound", "drift_bound must be a number, got None"),
            ("seed", "seed must be an integer, got None"),
            ("initiators", "initiators must be a list, got None"),
            ("label", "label must be a string, got None"),
            ("drift.dwell", "drift.dwell must be a number, got None"),
            ("drift.mode", "drift.mode must be a string, got None"),
            ("topology.kind", "topology.kind must be a string, got None"),
        ],
    )
    def test_null_refused_where_the_default_is_not_null(self, path, named):
        doc = config_to_dict(preset("random_geometric"))
        *section, key = path.split(".")
        (doc[section[0]] if section else doc)[key] = None
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert info.value.violations == [named]

    def test_every_problem_named_at_once(self):
        doc = config_to_dict(preset("wait_chain"))
        doc.update(drift_bund=0.5, seed="3", process_on_start="false", diameter_bound=4.7)
        doc["topology"]["n"] = 5.5
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert len(info.value.violations) == 5
        for name in ("'drift_bund'", "seed", "process_on_start", "diameter_bound", "topology.n"):
            assert any(name in line for line in info.value.violations)


class TestInputBoundary:
    def test_non_finite_fields_all_named(self):
        cfg = replace(
            preset("random_geometric"),
            max_gap=math.inf,
            skew_threshold=math.nan,
            horizon=math.inf,
            drift_dwell=-math.inf,
        )
        problems = validate_config(cfg)
        for name in ("max_gap", "skew_threshold", "horizon", "drift.dwell"):
            assert f"{name} must be finite" in "\n".join(problems)
        with pytest.raises(ConfigError):
            run(cfg)

    @pytest.mark.parametrize(
        "max_gap,horizon", [(math.inf, 10.0), (math.nan, 10.0), (1.0, math.inf)]
    )
    def test_schedule_refuses_non_finite(self, max_gap, horizon):
        with pytest.raises(ConfigError, match="finite"):
            generate_schedule(chain(3), max_gap, "periodic", 0, horizon)

    def test_missing_topology_size_named(self):
        cfg = RunConfig(TopologySpec(kind="grid", rows=3), 0.1, 1.0, 1.0)
        assert validate_config(cfg) == ["grid topology needs cols"]
