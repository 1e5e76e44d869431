"""Deterministic discrete-event executor.

The engine enforces the two communication assumptions exactly: messages
are delivered at the instant they are sent, and on every directed edge
consecutive sends are at most max_gap apart (the send schedule,
schedule.py). Application traffic exists on every directed edge from the
beginning of the run; synchronization payloads ride on it once the sender
has started.

Events at equal times are processed in a fixed order: descending source
id, then ascending destination id, then per-edge sequence. Any fixed order
is admissible under instantaneous processing, and this one prevents a
message relay chain from collapsing a whole path's start-up into a single
instant on the canonical chain scenarios. Within one instant a sender's
payload reflects updates from events already processed at that instant.

Two runs with the same RunConfig (config.py) produce bit-identical traces
(trace.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import topology as topo_mod
from .clocks import ClockTable, HardwareClock, clock_table, make_drift_schedule
from .config import (
    ConfigError,
    RunConfig,
    TopologySpec,  # not called here: perfbench/tracer.py patches engine.TopologySpec.build
    config_violations,
    default_horizon,
    workload_violations,
)
from .protocol import ProtocolParams, emit_payload, fresh_state, on_receive, on_start, rate_factor
from .schedule import CommSchedule, generate_schedule
from .trace import _ROW_BLOCK, EventLog, History, Trace, _end_rows, _rows

__all__ = ["Setup", "validate_config", "resolve", "sample_grid", "run"]


def validate_config(config: RunConfig) -> list[str]:
    """Check every configuration invariant; returns all violations found.

    An empty list means the config is runnable. Validation is the product
    here: every violation names the offending value. It builds the topology
    but no clocks, and a schedule only in scripted mode.
    """
    return _validate(config)[0]


def _validate(config: RunConfig):
    """Violations, the topology and horizon where the topology builds, and
    the checked schedule of a scripted config, else None."""
    v = config_violations(config)
    topology = horizon = schedule = None
    try:
        topology = config.topology.build(default_seed=max(config.seed, 0))  # < 0 is refused above
    except topo_mod.TopologyError as exc:
        v.append(str(exc))
    if topology is not None:
        n = topology.node_count
        horizon = default_horizon(config, topology)
        bad = [i for i in config.initiators if not 0 <= i < n]
        if bad:
            v.append(f"initiators out of range: {bad}")
        if config.diameter_bound is not None and config.diameter_bound < topology.diameter:
            v.append(
                f"diameter_bound {config.diameter_bound} is below the "
                f"topology diameter {topology.diameter}"
            )
        if config.drift_signs is not None and len(config.drift_signs) != n:
            v.append(f"drift_signs has {len(config.drift_signs)} entries for {n} nodes")
        if config.schedule_mode == "scripted" and config.scripted_sends is not None:
            try:
                schedule = generate_schedule(
                    topology,
                    config.max_gap,
                    "scripted",
                    config.seed,
                    horizon,
                    scripted=config.scripted_sends,
                )
            except ConfigError as exc:
                v.extend(exc.violations)
        if not v:
            v.extend(workload_violations(
                config, len(topology.directed_edges()), topology.node_count, horizon
            ))
    return v, topology, horizon, schedule


@dataclass(frozen=True)
class Setup:
    """A validated config resolved into what every simulator of it consumes:
    defaults filled in, the variant's effective threshold in params, and the
    drift and send realizations."""

    topology: "topo_mod.Topology"
    diameter_bound: int
    horizon: float
    params: ProtocolParams
    clocks: tuple[HardwareClock, ...]
    schedule: CommSchedule


def resolve(config: RunConfig) -> Setup:
    """Validate and resolve a config; raises ConfigError listing every violation."""
    violations, topology, horizon, schedule = _validate(config)
    if violations:
        raise ConfigError(violations)
    if schedule is None:  # a scripted schedule was generated when checked
        schedule = generate_schedule(
            topology,
            config.max_gap,
            config.schedule_mode,
            config.seed,
            horizon,
            gap_min=config.gap_min,
        )
    bound = config.diameter_bound if config.diameter_bound is not None else topology.diameter
    return Setup(
        topology=topology,
        diameter_bound=bound,
        horizon=horizon,
        params=ProtocolParams.for_variant(
            config.skew_threshold, bound, config.variant, config.drift_bound
        ),
        clocks=tuple(
            HardwareClock(make_drift_schedule(
                config.drift_mode, config.drift_bound, horizon=horizon, dwell=config.drift_dwell,
                seed=(config.seed, 0xD1F7, i), value=config.drift_value,
                sign=1 if config.drift_signs is None else config.drift_signs[i],
            ))
            for i in range(topology.node_count)
        ),
        schedule=schedule,
    )


def sample_grid(event_times, table: ClockTable) -> np.ndarray:
    """Sorted sample times: run start, every event time, every drift
    breakpoint inside the run, and the horizon, each once. Between two
    consecutive samples every logical clock is linear in real time.

    A run's event times come in processing order, so they are already
    sorted; times in any other order are sorted first, in a copy. The grid
    is allocated once, at its final size, and filled _ROW_BLOCK events at a
    time: the events unequal to the one before them, merged with the run
    start, breakpoints and horizon that fall before the next block, less
    those equal to an event. So no other array of the grid's size is made,
    and the grid is what np.unique gives, without its import of numpy.ma."""
    breaks, horizon = table.breaks, table.horizon
    times = np.asarray(event_times, dtype=float)
    keep = np.ones(times.size, dtype=bool)
    if not np.greater_equal(times[1:], times[:-1], out=keep[1:]).all():
        times = np.sort(times)
    np.not_equal(times[1:], times[:-1], out=keep[1:])
    marks = np.concatenate(([0.0], breaks[(breaks > 0.0) & (breaks < horizon)], [horizon]))
    at = times.searchsorted(marks)
    taken = at < times.size
    taken[taken] = times[at[taken]] == marks[taken]  # an event is at the mark
    marks = marks[~taken]
    grid = np.empty(np.count_nonzero(keep) + marks.size)
    filled = placed = 0
    for start in range(0, max(times.size, 1), _ROW_BLOCK):
        stop = start + _ROW_BLOCK
        block = times[start:stop][keep[start:stop]]
        upto = marks.size if stop >= times.size else int(marks.searchsorted(times[stop]))
        if upto > placed:
            block = np.insert(block, block.searchsorted(marks[placed:upto]), marks[placed:upto])
            placed = upto
        grid[filled : filled + block.size] = block
        filled += block.size
    return grid


def _hardware_times(table: ClockTable, times: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """clocks[nodes[k]].hardware_time(times[k]) for every k, gathered from
    the clocks' table with one search into the shared breaks.

    It computes origin + rate * (t - break) in place, a temporary at a
    time; float + and * commute exactly, so the bits are those of the
    expression as written."""
    k = table.breaks.searchsorted(times, side="right")
    k -= 1
    since = times - table.breaks[k]
    # flat index of (nodes, k), in intp so that no int32 product overflows
    at = np.multiply(nodes, table.breaks.size, dtype=np.intp)
    at += k
    del k
    hardware = table.rates.ravel()[at]
    hardware *= since
    del since
    hardware += table.origins.ravel()[at]
    return hardware


def _rebase_history(
    n, initiators, times, dsts, h_dsts, payloads, started, process_on_start, values, factors
):
    """The run's History and per-event jumps from the loop's rebase points.

    values and factors are lists of float64 blocks that, joined, hold one
    entry per rebase point in processing order: one start per initiator,
    then per event a start where it started the receiver and a reception
    where it carried a payload the receiver processed, start first. A
    stable sort by node yields every node's history as one slice, its
    start first, so each later row is a reception and its jump is its
    value less the previous row's clock, l + f * (h - h0), at its hardware
    time. The lists are emptied.
    """
    processed = payloads == payloads  # not NaN: the sender had started
    if not process_on_start:
        processed &= ~started
    counts = started.astype(np.uint8) + processed
    # node and event indices in int32: the workload cap keeps both small
    node = np.concatenate((np.array(initiators, dtype=np.int32), np.repeat(dsts, counts)))
    order = np.argsort(node, kind="stable")
    bounds = np.searchsorted(node[order], np.arange(n + 1))
    del node
    # the initiators' rows come first and have no event: they read -1
    event = np.concatenate((
        np.full(len(initiators), -1, dtype=np.int32),
        np.repeat(np.arange(times.size, dtype=np.int32), counts),
    ))
    event = event[order]
    value = np.concatenate(values)
    values.clear()
    value = value[order]
    factor = np.concatenate(factors)
    factors.clear()
    factor = factor[order]
    del order

    # the initiators start at time 0, hardware time 0
    time, hardware = np.zeros(event.size), np.zeros(event.size)
    live = event >= 0
    live_event = event[live]
    time[live] = times[live_event]
    hardware[live] = h_dsts[live_event]
    del live, live_event

    # jump[r] for row r >= 1 against row r - 1, kept where row r is a reception
    jump = np.subtract(hardware[1:], hardware[:-1])
    jump *= factor[:-1]
    jump += value[:-1]
    np.subtract(value[1:], jump, out=jump)
    reception = np.ones(event.size, dtype=bool)
    reception[_end_rows(bounds)[0]] = False
    event = event[reception]
    jump = jump[reception[1:]]
    jumps = np.zeros(times.size)
    jumps[event] = jump

    return History(time, value, factor, hardware, bounds), jumps


def run(config: RunConfig) -> Trace:
    """Execute one run and record its complete trace.

    At each send on edge (i, j) at time t: if i has started, j receives
    i's logical value at that same t, starting first if this is the first
    payload to reach it; if i has not started, the application message
    carries nothing and j is unaffected. Initiators start at t = 0.
    """
    setup = resolve(config)
    topology, horizon, params, clocks = setup.topology, setup.horizon, setup.params, setup.clocks
    diameter_bound = setup.diameter_bound
    times, srcs, dsts = setup.schedule.events()
    del setup  # and with it the schedule, before the loop
    table = clock_table(clocks)
    n = topology.node_count

    states = [fresh_state(i, topology.neighbors(i)) for i in range(n)]
    # the value and factor of every rebase point in processing order: the
    # initiators' starts, then per event a start, a reception or both. The
    # lists hold one block's points; at its end they become float64 arrays.
    values, factors, value_blocks, factor_blocks = [], [], [], []

    # Local aliases, taken per run so that rebinding the module names
    # (as the benchmark's tracer does) still takes effect.
    emit, receive, factor_of = emit_payload, on_receive, rate_factor
    add_value, add_factor = values.append, factors.append
    process_on_start = config.process_on_start

    initiators = sorted(config.initiators)
    for i in initiators:
        state = on_start(states[i], 0.0)
        add_value(state.l_base)
        add_factor(state.factor)

    payloads = np.full(times.size, np.nan)
    started = np.zeros(times.size, dtype=bool)
    toggles = np.zeros(times.size, dtype=np.int8)
    h_srcs, h_dsts = _hardware_times(table, times, srcs), _hardware_times(table, times, dsts)
    # up to and including times.size, so that even a run without events
    # makes one pass and keeps its initiators' points
    for start in range(0, times.size + 1, _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        rows = _rows(srcs[block], dsts[block], h_srcs[block], h_dsts[block])
        for k, (src, dst, h_src, h_dst) in enumerate(rows, start):
            payload = emit(states[src], h_src)
            if payload is None:
                continue
            payloads[k] = payload
            state = states[dst]
            if not state.started:
                started[k] = True
                on_start(state, h_dst)
                add_value(state.l_base)
                add_factor(state.factor)
                if not process_on_start:
                    receive(state, params, src, payload, h_dst, apply_step2=False)
                    continue
            reduced = state.reduced
            receive(state, params, src, payload, h_dst)
            add_value(state.l_base)
            add_factor(factor_of(state))
            if state.reduced != reduced:  # only the sender's factor can have moved
                toggles[k] = state.reduced - reduced
        value_blocks.append(np.array(values, dtype=float))
        factor_blocks.append(np.array(factors, dtype=float))
        values.clear()
        factors.clear()
    del h_srcs  # before the run's peak, in _rebase_history

    history, jumps = _rebase_history(
        n, initiators, times, dsts, h_dsts, payloads, started, process_on_start,
        value_blocks, factor_blocks,
    )

    return Trace(
        config=config,
        topology=topology,
        diameter_bound=diameter_bound,
        effective_skew_threshold=params.skew_threshold,
        horizon=horizon,
        sample_times=sample_grid(times, table),
        events=EventLog(times, srcs, dsts, payloads, started, jumps, toggles),
        clocks=clocks,
        clock_table=table,
        history=history,
    )
