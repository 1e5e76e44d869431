"""Skew measurement and bound verdicts over recorded traces.

Between consecutive samples of a Trace (trace.py) every logical clock is
linear in real time, so skew maxima over the whole run are attained at
sample points and the reported statistics are exact, not approximations.
The report and the CSV writer evaluate logical values on the grid from the
history in blocks of _EVAL_BLOCK samples, each block one flat pass over
every node, so neither holds a nodes x samples array, and read the
hardware clocks from one clocks.ClockTable. The minimum rate and the
reduced-rate episodes are each one pass over the history's columns.

The pair maxima (per edge, and per hop distance) are not taken over every
pair at every sample. Per block of samples each node's clock, less the
lowest clock of each sample, has a highest and a lowest value; together
they bound every pair's skew over the block. A pair is evaluated
exactly only where that bound, plus a rounding slack derived in
_report_pass, exceeds the running maximum the pair contributes to, so the
skipped pairs cannot change any reported value and the result is the same
float as the all-pairs maximum.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import product
from typing import NamedTuple

import numpy as np

from .config import ConfigError, RunConfig, config_to_dict, is_wait_chain
from .topology import Topology
from .trace import Trace, _end_rows, _grid_blocks, _rows

__all__ = [
    "SkewReport",
    "BoundVerdict",
    "GlobalSkew",
    "ReducedRateStats",
    "global_skew",
    "gradient_profile",
    "per_edge_max_skew",
    "rate_floor",
    "reduced_rate_stats",
    "bound_checks",
    "compute_report",
    "trace_csv_text",
    "summary_json_text",
]

CHECK_TOLERANCE = 1e-9


class GlobalSkew(NamedTuple):
    value: float
    pair: tuple[int, int]
    time: float


@dataclass(frozen=True)
class BoundVerdict:
    """Outcome of one analytic bound check, with its numeric margin.

    scope is 'guaranteed' where the bound is backed by the worst-case
    analysis for this run's configuration, 'informative' where it is
    merely being observed outside that scope.
    """

    name: str
    threshold: float
    observed: float
    margin: float
    passed: bool
    scope: str


@dataclass(frozen=True)
class ReducedRateStats:
    """Durations of reduced-rate episodes.

    An episode is a maximal run of a node's rate factor below 1: from the
    rebase point where the factor drops to the next one at full rate, or
    to the horizon, with runs that touch joined. nodes, begins and ends
    hold every episode as columns, node by node and in time order, and
    durations their lengths. A node's factor is below 1 exactly while it
    holds some neighbor reduced, so each episode is also the union of its
    Trace.reduced_intervals.
    """

    durations: tuple[float, ...]
    count: int
    total: float
    longest: float
    nodes: np.ndarray = field(repr=False, compare=False)
    begins: np.ndarray = field(repr=False, compare=False)
    ends: np.ndarray = field(repr=False, compare=False)

    @property
    def per_node(self) -> dict:
        """For each node that ever slowed down, its episodes as (begin,
        end) times; built on every read."""
        per_node: dict[int, list[tuple[float, float]]] = {}
        for node, begin, end in zip(
            self.nodes.tolist(), self.begins.tolist(), self.ends.tolist()
        ):
            per_node.setdefault(node, []).append((begin, end))
        return {node: tuple(runs) for node, runs in per_node.items()}


@dataclass(frozen=True)
class SkewReport:
    max_global_skew: float
    attaining_pair: tuple[int, int]
    attaining_time: float
    per_edge_max_skew: dict
    gradient_profile: dict
    min_rate: float
    reduced_rate_durations: tuple[float, ...]
    bound_verdicts: tuple[BoundVerdict, ...]
    diameter: int
    effective_skew_threshold: float
    warmup: float


# Samples evaluated from the history at a time. Each block is nodes x
# _EVAL_BLOCK floats (164 kB at n = 80, 2.1 MB at n = 1025), independent of
# the run's length; the report bounds every pair's skew over one block at
# once, and the CSV writer renders one block's rows at a time.
_EVAL_BLOCK = 256
# Slack added to each pair bound, in units of eps times the block's
# largest |L|; _report_pass derives it.
_SLACK_EPS = 8.0
_EPS = float(np.finfo(float).eps)


def _trace_blocks(trace: Trace, warmup: float):
    """The trace's sample blocks of _EVAL_BLOCK times at or after warmup,
    as trace._grid_blocks yields them without the factors and rates.

    Raises ConfigError if warmup is not finite or lies past the horizon,
    where no sample would be measured and every skew would read 0.
    """
    if not (math.isfinite(warmup) and warmup <= trace.horizon):
        raise ConfigError(
            [f"warmup {warmup!r} leaves no sample: it must be finite and at most "
             f"the horizon {trace.horizon!r}"]
        )
    warm = trace.sample_times[trace.sample_times.searchsorted(warmup, side="left") :]
    return _grid_blocks(trace.history, trace.clock_table, warm, _EVAL_BLOCK, False)


_NO_SKEW = GlobalSkew(0.0, (0, 0), 0.0)


def _column_range(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lowest and highest started value of each column, NaN where no node
    has started; reduced in place along the node axis, so no block-sized
    copy is made."""
    return np.fmin.reduce(values, axis=0), np.fmax.reduce(values, axis=0)


def _fold_global(
    best: GlobalSkew, times: np.ndarray, values: np.ndarray, low, high
) -> GlobalSkew:
    """best updated with the largest spread of one block of columns, whose
    _column_range is (low, high).

    Ties go to the earliest sample, and within it to the lowest-numbered
    extreme nodes; a column with fewer than two started nodes measures
    nothing.
    """
    spread = high - low
    spread[values.shape[0] - np.isnan(values).sum(axis=0) < 2] = -np.inf
    k = int(spread.argmax())
    if spread[k] > best.value:
        column = values[:, k]
        a, b = int(np.argmax(column == low[k])), int(np.argmax(column == high[k]))
        return GlobalSkew(float(spread[k]), (min(a, b), max(a, b)), float(times[k]))
    return best


def global_skew(trace: Trace, warmup: float = 0.0) -> GlobalSkew:
    """Largest |L_i - L_j| over all sample times and started pairs.

    Skew is measured only at instants when both nodes of the pair have
    started; before that a node has no logical clock. Ties go to the
    earliest sample, and within it to the lowest-numbered extreme nodes.
    """
    best = _NO_SKEW
    for times, (values, _, _) in _trace_blocks(trace, warmup):
        best = _fold_global(best, times, values, *_column_range(values))
        del values  # freed before the next block is evaluated
    return best


def _measured(value) -> float:
    """A running maximum as reported: 0.0 where nothing was measured."""
    return float(value) if value > -np.inf else 0.0


def _report_pass(blocks, topology: Topology) -> tuple[GlobalSkew, dict, dict]:
    """Global skew, per-edge max skews and the max skew per hop distance, in
    one pass over blocks of (sample times, (logical values, _, _)), as
    _trace_blocks yields them.

    Every pair i < j has a running maximum slot: its own for an edge, its
    hop distance's for any other pair. With R the lowest started value of a
    column, up_i = max(L_i - R) and lo_i = min(L_i - R) over a block bound
    every |L_i - L_j| there by b = max(up_i - lo_j, up_j - lo_i), and a pair
    is evaluated exactly, as fmax of abs(fl(L_i - L_j)) over the columns
    where both nodes have started, only if fl(b + s) exceeds its slot's
    running maximum. A skipped pair cannot change a reported value, so the
    result is the all-pairs maximum, bit for bit.

    The slack s = _SLACK_EPS * eps * A, with A the block's largest |L|,
    covers the rounding. With u = eps / 2, x = L_i >= y = L_j >= r = R in a
    column, all of magnitude at most A: fl(x - r) and fl(y - r) lie in
    [0, 2A(1 + u)] and are each within 2uA of the exact difference, so
    fl(up_i - lo_j) >= (x - y) - 6uA - 2u^2 A, while the exact evaluation
    fl(x - y) <= (x - y) + 2uA. Hence fl(x - y) <= b + (8u + 2u^2) A, and
    since b >= 0 rounds to at most 2A(1 + u)^2, fl(b + s) >= fl(x - y)
    holds once s (1 - u) >= (10u + 6u^2 + 2u^3) A. s = 16uA = 8 eps A meets
    that with nearly 6uA to spare, which also covers s underflowing (it loses at
    most 2^-1075); when A is subnormal every subtraction is exact. Float
    subtraction rounds symmetrically, so x < y is the same case.

    Each pending pair is evaluated once, at most n at a time; one evaluated
    without need only adds a term of its slot's all-pairs maximum.
    """
    first, second = np.triu_indices(topology.node_count, 1)
    hops = topology.distances[first, second]
    is_edge = hops == 1
    edge_count = int(is_edge.sum())
    slot = hops + edge_count
    slot[is_edge] = np.arange(edge_count)
    best = np.full(edge_count + topology.diameter + 1, -np.inf)
    top = _NO_SKEW
    for times, (values, _, _) in blocks:
        low, high = _column_range(values)
        top = _fold_global(top, times, values, low, high)
        _fold_pairs(best, slot, first, second, values, low, high)
        del values  # freed before the next block is evaluated
    edges = zip(first[is_edge].tolist(), second[is_edge].tolist(), best[:edge_count])
    per_edge = {(i, j): _measured(v) for i, j, v in edges}
    profile = {1: _measured(best[:edge_count].max())}
    profile.update(
        (k, _measured(best[edge_count + k])) for k in range(2, topology.diameter + 1)
    )
    return top, per_edge, profile


def _fold_pairs(best, slot, first, second, values, low, high) -> None:
    """Raise best[slot[p]] to the max skew of every pair p = (first[p],
    second[p]) over the columns of values whose bound can exceed it; low and
    high are the columns' _column_range. See _report_pass."""
    offset = values - low
    up = np.fmax.reduce(offset, axis=1)
    lo = np.fmin.reduce(offset, axis=1)
    del offset  # each temporary is freed or reused before the next is made
    bound = np.maximum(up[first] - lo[second], up[second] - lo[first])
    bound += _SLACK_EPS * _EPS * np.fmax.reduce(np.fmax(np.abs(low), np.abs(high)))
    pending = np.flatnonzero(bound > best[slot])
    del bound
    for start in range(0, pending.size, values.shape[0]):
        pairs = pending[start : start + values.shape[0]]
        skews = values[first[pairs]]
        skews -= values[second[pairs]]
        np.abs(skews, out=skews)
        np.fmax.at(best, slot[pairs], np.fmax.reduce(skews, axis=1))


def per_edge_max_skew(trace: Trace, warmup: float = 0.0) -> dict:
    """Max observed skew of each edge (i, j), i < j; 0.0 where never measured."""
    return _report_pass(_trace_blocks(trace, warmup), trace.topology)[1]


def gradient_profile(trace: Trace, warmup: float = 0.0) -> dict:
    """Max observed skew per hop distance k = 1..diameter."""
    return _report_pass(_trace_blocks(trace, warmup), trace.topology)[2]


def rate_floor(trace: Trace) -> float:
    """Minimum instantaneous logical rate observed on any inter-sample
    interval of a started node.

    A node's rate is its factor times the clock table's rate 1 + drift,
    each of the piece in effect from that time on, and changes only at its
    rebase points and drift breakpoints, each of them a sample. So the
    minimum over every sample before the horizon is the minimum over two
    sets of candidates before it, found in one pass over the history's
    columns:
    - every rebase point, except one followed by another of its node at
      the same time, whose factor held over no interval;
    - every breakpoint at or after a node's start, with the factor of the
      point in effect there: each point covers the breakpoints from its
      time up to its node's next point, counted in integers by searching
      the point times among the breaks.
    """
    history, (breaks, _, rates, _) = trace.history, trace.clock_table
    times, factors, bounds = history.times, history.factors, history.bounds
    width = breaks.size
    _, last = _end_rows(bounds)
    # the rebase points: their node's row, then their segment, of rates
    at = np.repeat(np.arange(0, rates.size, width), np.diff(bounds))
    at += breaks.searchsorted(times, side="right")
    at -= 1
    rate = rates.ravel()[at]
    del at
    rate *= factors
    held = times < trace.horizon
    held[:-1] &= times[1:] != times[:-1]
    held[last] = times[last] < trace.horizon
    lowest = rate.min(where=held, initial=np.inf)
    del rate, held

    # the breakpoints: those in [times[r], the time of its node's next
    # point) are breaks[first[r]:first[r + 1]], all from first[r] on at a
    # node's last point
    first = breaks.searchsorted(times, side="left")
    count = np.empty_like(first)
    count[:-1] = first[1:]
    count[last] = width
    count -= first
    row = np.flatnonzero(count)
    count, first = count[row], first[row]
    node = bounds.searchsorted(row, side="right") - 1
    # pair p covers break first + j of its row, j = p less its row's offset
    offset = np.cumsum(count) - count
    segment = np.arange(int(count.sum())) + np.repeat(first - offset, count)
    candidates = factors[np.repeat(row, count)]
    candidates *= rates[np.repeat(node, count), segment]
    lowest = min(lowest, candidates.min(initial=np.inf))
    return float(lowest) if lowest < math.inf else float("nan")


def reduced_rate_stats(trace: Trace) -> ReducedRateStats:
    """The reduced-rate episodes of every node, in one pass over the
    history's columns: the runs of rows with factor < 1, cut at the node
    bounds, each from its first row's time to its next row's, or to the
    horizon at its node's last row; runs of one node that touch are
    joined."""
    history = trace.history
    times, bounds = history.times, history.bounds
    first, last = _end_rows(bounds)
    reduced = history.factors < 1.0
    begins = reduced.copy()  # reduced, and not after a reduced row of its node
    begins[1:] &= ~reduced[:-1]
    begins[first] = reduced[first]
    closes = reduced.copy()  # reduced, and not before a reduced row of its node
    closes[:-1] &= ~reduced[1:]
    closes[last] = reduced[last]
    del reduced
    begin, close = np.flatnonzero(begins), np.flatnonzero(closes)
    del begins, closes
    nodes = bounds.searchsorted(begin, side="right") - 1
    lo = times[begin]
    hi = times[np.minimum(close + 1, times.size - 1)]
    hi[close + 1 == bounds[nodes + 1]] = trace.horizon
    # a run that begins where its node's previous one ended continues it:
    # run j opens an episode where apart[j] holds, and closes one where
    # apart[j + 1] does
    apart = np.ones(lo.size + 1, dtype=bool)
    apart[1:-1] = (lo[1:] > hi[:-1]) | (nodes[1:] != nodes[:-1])
    lo, nodes, hi = lo[apart[:-1]], nodes[apart[:-1]], hi[apart[1:]]
    durations = (hi - lo).tolist()
    return ReducedRateStats(
        durations=tuple(durations),
        count=len(durations),
        total=float(sum(durations)),
        longest=float(max(durations)) if durations else 0.0,
        nodes=nodes,
        begins=lo,
        ends=hi,
    )


def bound_checks(report: SkewReport, config: RunConfig) -> tuple[BoundVerdict, ...]:
    """Compare measured skews against the worst-case expressions.

    Global: (1 + drift_bound) * diameter * max_gap, from the start-up
    analysis; holds for any number of initiators (one is worst).
    Neighbor: threshold + (1 + 3*drift_bound) * max_gap; the analysis
    establishes it for the wait-chain scenario (config.is_wait_chain, which
    looks at the config's structure, not its label) under the gradient
    variant, so elsewhere it is only reported as an observation.
    """
    global_threshold = (1.0 + config.drift_bound) * report.diameter * config.max_gap
    neighbor_threshold = (
        report.effective_skew_threshold + (1.0 + 3.0 * config.drift_bound) * config.max_gap
    )
    neighbor_observed = report.gradient_profile.get(1, 0.0)
    neighbor_scope = (
        "guaranteed"
        if is_wait_chain(config) and config.variant == "gradient"
        else "informative"
    )
    verdicts = []
    for name, threshold, observed, scope in (
        ("global_skew", global_threshold, report.max_global_skew, "guaranteed"),
        ("neighbor_skew", neighbor_threshold, neighbor_observed, neighbor_scope),
    ):
        verdicts.append(
            BoundVerdict(
                name=name,
                threshold=threshold,
                observed=observed,
                margin=threshold - observed,
                passed=bool(observed <= threshold + CHECK_TOLERANCE),
                scope=scope,
            )
        )
    return tuple(verdicts)


def compute_report(trace: Trace, warmup: float = 0.0) -> SkewReport:
    """Assemble the full SkewReport for a trace, verdicts included.

    Raises ConfigError if warmup is not finite or lies past the horizon,
    where no sample would be measured and the verdicts would rest on nothing.
    """
    top, per_edge, profile = _report_pass(_trace_blocks(trace, warmup), trace.topology)
    report = SkewReport(
        max_global_skew=top.value,
        attaining_pair=top.pair,
        attaining_time=top.time,
        per_edge_max_skew=per_edge,
        gradient_profile=profile,
        min_rate=rate_floor(trace),
        reduced_rate_durations=reduced_rate_stats(trace).durations,
        bound_verdicts=(),
        diameter=trace.topology.diameter,
        effective_skew_threshold=trace.effective_skew_threshold,
        warmup=warmup,
    )
    return replace(report, bound_verdicts=bound_checks(report, trace.config))


def _within(column: np.ndarray, times: np.ndarray) -> slice:
    """The rows of the non-decreasing column from times[0] to times[-1]."""
    return slice(column.searchsorted(times[0]), column.searchsorted(times[-1], side="right"))


def _event_kinds(trace: Trace, times: np.ndarray) -> dict:
    """(time, node) -> its event_kind, at the sample times of one block.

    The block's events and drift breakpoints are the rows of their columns
    _within its times: both columns are in time order. A key's kinds are
    joined in order of first occurrence: its events', then drift, then an
    initiator's start at 0.
    """
    kinds: dict[tuple[float, int], dict[str, None]] = {}
    ev = trace.events
    columns = (ev.time, ev.src, ev.dst, ev.payload, ev.started)
    rows = _within(ev.time, times)
    for t, src, dst, payload, started in _rows(*(column[rows] for column in columns)):
        if started:
            kinds.setdefault((t, dst), {})["start"] = None
        if payload == payload:  # not NaN: the message carried a value
            kinds.setdefault((t, dst), {})["recv"] = None
        kinds.setdefault((t, src), {})["send"] = None
    breaks = trace.clock_table.breaks[1:]
    for key in product(breaks[_within(breaks, times)].tolist(), range(trace.node_count)):
        kinds.setdefault(key, {})["drift"] = None
    for node in trace.config.initiators if times[0] == 0.0 else ():
        kinds.setdefault((0.0, node), {})["start"] = None
    return {key: "+".join(names) for key, names in kinds.items()}


def trace_csv_text(trace: Trace, out=None) -> str | None:
    """Stable CSV rendering: one row per (sample time, node).

    Columns: time,node,logical,rate,alpha,event_kind. Fields of a node
    that has not started yet are left empty, as is the rate at the final
    sample (it has no forward interval). event_kind joins whatever applies
    to that node at that instant: start, recv, send, drift.

    Rows are rendered from the history one block of _EVAL_BLOCK samples at
    a time, with the event kinds of that block's instants. Given a text
    file out, each block is written to it as soon as it is rendered and
    None is returned; otherwise the whole text is returned.
    """
    chunks: list[str] = []
    write = chunks.append if out is None else out.write
    write("time,node,logical,rate,alpha,event_kind\n")
    blocks = _grid_blocks(trace.history, trace.clock_table, trace.sample_times, _EVAL_BLOCK, True)
    for times, (logical, alphas, rates) in blocks:
        rates[:, times == trace.horizon] = np.nan  # the final sample has no forward interval
        joined = _event_kinds(trace, times)
        lines = []
        for t, values, rate_row, alpha_row in zip(
            times.tolist(), logical.T.tolist(), rates.T.tolist(), alphas.T.tolist()
        ):
            stamp = repr(t)
            for node, (value, rate, alpha) in enumerate(zip(values, rate_row, alpha_row)):
                kind = joined.get((t, node), "")
                if value != value:  # not started
                    lines.append(f"{stamp},{node},,,,{kind}\n")
                else:
                    shown = "" if rate != rate else repr(rate)
                    lines.append(f"{stamp},{node},{value!r},{shown},{alpha!r},{kind}\n")
        write("".join(lines))
    return "".join(chunks) if out is None else None


def summary_json_text(trace: Trace, report: SkewReport) -> str:
    """Stable JSON summary embedding the resolved config and seed, so a run
    can be reproduced from its own summary."""
    # a shallow copy: asdict would deep-copy every reduced-rate duration
    block = {f.name: getattr(report, f.name) for f in fields(report)}
    # the diameter and the effective threshold are given at top level
    del block["diameter"], block["effective_skew_threshold"]
    block["verdicts"] = [asdict(v) for v in block.pop("bound_verdicts")]
    block["per_edge_max_skew"] = [
        [i, j, v] for (i, j), v in sorted(report.per_edge_max_skew.items())
    ]
    block["gradient_profile"] = [[k, v] for k, v in sorted(report.gradient_profile.items())]
    payload = {
        "schema": "gradsync.summary/1",
        "config": config_to_dict(trace.config),
        "node_count": trace.node_count,
        "diameter": report.diameter,
        "diameter_bound": trace.diameter_bound,
        "effective_skew_threshold": trace.effective_skew_threshold,
        "horizon": trace.horizon,
        "seed": trace.config.seed,
        "drift_schedules": [
            {
                "breakpoints": [float(b) for b in clock.schedule.breakpoints],
                "rates": [float(r) for r in clock.schedule.rates],
            }
            for clock in trace.clocks
        ],
        "start_times": [
            None if not np.isfinite(t) else float(t) for t in trace.start_times
        ],
        "report": block,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
