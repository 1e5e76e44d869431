"""Skew measurement and bound verdicts over recorded traces.

A Trace holds each node's rebase history and hardware clock, which
determine its logical clock exactly, and a sample grid of every instant
where anything can change: event times, drift breakpoints, run start, and
the horizon. Between consecutive samples every logical clock is linear in
real time, so skew maxima over the whole run are attained at sample points
and the reported statistics are exact, not approximations. The report and
the CSV writer evaluate logical values on the grid from the history block
by block, so neither holds a nodes x samples array.

The pair maxima (per edge, and per hop distance) are not taken over every
pair at every sample. Per sub-block of samples each node's clock, less the
lowest clock of each sample, has a highest and a lowest value; together
they bound every pair's skew over the sub-block. A pair is evaluated
exactly only where that bound, plus a rounding slack derived in
_report_pass, exceeds the running maximum the pair contributes to, so the
skipped pairs cannot change any reported value and the result is the same
float as the all-pairs maximum.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .clocks import HardwareClock
    from .engine import RunConfig
    from .topology import Topology

__all__ = [
    "Trace",
    "TraceEvent",
    "EventLog",
    "NodeHistory",
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
    "sample_history",
    "trace_csv_text",
    "summary_json_text",
]

CHECK_TOLERANCE = 1e-9


class TraceEvent(NamedTuple):
    """One application message on a directed edge.

    Delivery is instantaneous, so receive_time always equals send_time;
    both are derived from the EventLog's time column. payload is None when
    the sender had not started and the message carried no synchronization
    value. jump is the forward step the receiver's logical clock took while
    processing, 0 if none.
    """

    send_time: float
    receive_time: float
    src: int
    dst: int
    payload: float | None
    started_receiver: bool
    jump: float


# Rows converted to Python scalars at a time by _rows: converting whole
# columns up front would keep a Python object per event and column alive.
_ROW_BLOCK = 4096


def _rows(*columns):
    """Rows of equal-length arrays as Python scalars, one block at a time."""
    for start in range(0, columns[0].size, _ROW_BLOCK):
        yield from zip(*(col[start:start + _ROW_BLOCK].tolist() for col in columns))


@dataclass(frozen=True)
class EventLog:
    """Every message of a run as columns, in processing order: time, src,
    dst, the payload (NaN where the sender had not started), whether it
    started the receiver, and the receiver's jump.

    Iterating yields TraceEvent records, built a block at a time.
    """

    time: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    payload: np.ndarray
    started: np.ndarray
    jump: np.ndarray

    def __len__(self) -> int:
        return self.time.size

    def __iter__(self):
        for t, src, dst, payload, started, jump in _rows(
            self.time, self.src, self.dst, self.payload, self.started, self.jump
        ):
            yield TraceEvent(t, t, src, dst, None if payload != payload else payload, started, jump)


@dataclass(frozen=True)
class NodeHistory:
    """Rebase points of one node: at times[k] the logical clock was values[k],
    its hardware clock read hardware[k], and it advanced with factor
    factors[k] afterwards."""

    times: np.ndarray
    values: np.ndarray
    factors: np.ndarray
    hardware: np.ndarray


@dataclass(frozen=True)
class Trace:
    """Full record of one run.

    sample_times is strictly increasing. history and clocks are the only
    form of the clock values: logical and rates derive one row per node and
    one column per sample from them, NaN before the node started.
    """

    config: "RunConfig"
    topology: "Topology"
    diameter_bound: int
    effective_skew_threshold: float
    horizon: float
    sample_times: np.ndarray
    events: EventLog
    reduced_intervals: dict
    clocks: tuple["HardwareClock", ...]
    history: tuple[NodeHistory, ...]

    @property
    def node_count(self) -> int:
        return self.topology.node_count

    @property
    def start_times(self) -> np.ndarray:
        """Each node's first rebase time, inf where it never started."""
        return np.array([h.times[0] if h.times.size else np.inf for h in self.history])

    def evaluate_logical(self, times) -> np.ndarray:
        """Exact logical values at non-decreasing real times in [0, horizon]."""
        return sample_history(self.history, self.clocks, times, factors=False)[0]

    # The dense views below build a nodes x samples array on every access;
    # they are for tests and demos. The report and the CSV writer evaluate
    # the samples they need block by block instead.

    @property
    def logical(self) -> np.ndarray:
        return self.evaluate_logical(self.sample_times)

    @property
    def rates(self) -> np.ndarray:
        """Forward logical rate on each sample's interval; NaN at the final
        sample, which has no forward interval."""
        alphas = sample_history(self.history, self.clocks, self.sample_times)[1]
        rates = _rates(alphas, self.clocks, self.sample_times)
        rates[:, -1] = np.nan
        return rates


def sample_history(
    history, clocks, times, factors: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Logical values and rate factors of every node at real times `times`;
    the factors are None when not asked for.

    times must be non-decreasing. One row per node, NaN before the node's
    first rebase point. Between rebase points a logical clock is linear in
    hardware time, so the values are exact.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or np.any(ts[1:] < ts[:-1]):
        raise ValueError("sample times must be a non-decreasing 1-d sequence")
    logical = np.full((len(history), ts.size), np.nan)
    alphas = np.full((len(history), ts.size), np.nan) if factors else None
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
        if factors:
            alphas[i, first:] = alpha
    return logical, alphas


def _rates(alphas: np.ndarray, clocks, times: np.ndarray) -> np.ndarray:
    """alphas times each node's clock rate at times."""
    rates = np.empty_like(alphas)
    for i, clock in enumerate(clocks):
        np.multiply(alphas[i], clock.rate_at(times), out=rates[i])
    return rates


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

    per_node merges each node's (node, neighbor) intervals across
    neighbors, so durations measure the periods during which the node ran
    slowed at all.
    """

    per_node: dict
    durations: tuple[float, ...]
    count: int
    total: float
    longest: float


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


# Samples evaluated from the history at a time: each evaluated block is
# nodes x _EVAL_BLOCK floats (2.6 MB at n = 80), independent of the run's
# length.
_EVAL_BLOCK = 4096
# Columns per bound sub-block: the pass bounds every pair's skew over this
# many samples at once and evaluates only the pairs whose bound can still
# raise a reported maximum.
_BOUND_BLOCK = 256
# Slack added to each pair bound, in units of eps times the sub-block's
# largest |L|; _report_pass derives it.
_SLACK_EPS = 8.0
_EPS = float(np.finfo(float).eps)
# Samples rendered to CSV at a time. Every row is a Python string, so this
# block is smaller: 1024 samples of 50 nodes peak at about 23 MB of row
# text and values (65 MB at 4096), at the same speed.
_CSV_BLOCK = 1024


def _warm_blocks(times: np.ndarray, warmup: float, evaluate):
    """(sample times, evaluate(sample times)) per block of the samples at or
    after warmup; times is strictly increasing."""
    first = int(np.searchsorted(times, warmup, side="left"))
    for s0 in range(first, times.size, _EVAL_BLOCK):
        block = times[s0 : s0 + _EVAL_BLOCK]
        yield block, evaluate(block)


def _trace_blocks(trace: Trace, warmup: float):
    """The trace's warm sample blocks, as _warm_blocks yields them.

    Raises ConfigError if warmup is not finite or lies past the horizon,
    where no sample would be measured and every skew would read 0.
    """
    if not (math.isfinite(warmup) and warmup <= trace.horizon):
        from .engine import ConfigError

        raise ConfigError(
            [f"warmup {warmup!r} leaves no sample: it must be finite and at most "
             f"the horizon {trace.horizon!r}"]
        )
    return _warm_blocks(trace.sample_times, warmup, trace.evaluate_logical)


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
    for times, values in _trace_blocks(trace, warmup):
        best = _fold_global(best, times, values, *_column_range(values))
        del values  # freed before the next block is evaluated
    return best


def _measured(value) -> float:
    """A running maximum as reported: 0.0 where nothing was measured."""
    return float(value) if value > -np.inf else 0.0


def _report_pass(blocks, topology: "Topology") -> tuple[GlobalSkew, dict, dict]:
    """Global skew, per-edge max skews and the max skew per hop distance, in
    one pass over blocks of (sample times, logical values).

    Every pair i < j has a running maximum slot: its own for an edge, its
    hop distance's for any other pair. Each block is cut into sub-blocks of
    _BOUND_BLOCK columns. With R the lowest started value of a column,
    up_i = max(L_i - R) and lo_i = min(L_i - R) over the sub-block bound
    every |L_i - L_j| there by b = max(up_i - lo_j, up_j - lo_i), and a pair
    is evaluated exactly, as fmax of abs(fl(L_i - L_j)) over the columns
    where both nodes have started, only if fl(b + s) exceeds its slot's
    running maximum. A skipped pair cannot change a reported value, so the
    result is the all-pairs maximum, bit for bit.

    The slack s = _SLACK_EPS * eps * A, with A the sub-block's largest |L|,
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

    Candidate pairs are evaluated at most n at a time, in order, and the
    rest are checked again against the raised maxima after each chunk.
    """
    n = topology.node_count
    first, second = np.triu_indices(n, 1)
    hops = topology.distances[first, second]
    is_edge = hops == 1
    edge_count = int(is_edge.sum())
    slot = hops + edge_count
    slot[is_edge] = np.arange(edge_count)
    best = np.full(edge_count + topology.diameter + 1, -np.inf)
    top = _NO_SKEW
    for times, values in blocks:
        low, high = _column_range(values)
        top = _fold_global(top, times, values, low, high)
        for c0 in range(0, values.shape[1], _BOUND_BLOCK):
            cols = slice(c0, c0 + _BOUND_BLOCK)
            _fold_pairs(best, slot, first, second, values[:, cols], low[cols], high[cols])
        del values  # freed before the next block is evaluated
    edges = zip(first[is_edge].tolist(), second[is_edge].tolist(), best[:edge_count])
    per_edge = {(i, j): _measured(v) for i, j, v in edges}
    profile = {1: _measured(best[:edge_count].max())}
    profile.update(
        (k, _measured(best[edge_count + k])) for k in range(2, topology.diameter + 1)
    )
    return top, per_edge, profile


def _fold_pairs(best, slot, first, second, sub, low, high) -> None:
    """Raise best[slot[p]] to the max skew of every pair p = (first[p],
    second[p]) over the columns of sub whose bound can exceed it; low and
    high are the columns' _column_range. See _report_pass."""
    offset = sub - low
    up = np.fmax.reduce(offset, axis=1)
    lo = np.fmin.reduce(offset, axis=1)
    scale = np.fmax.reduce(np.fmax(np.abs(low), np.abs(high)))
    bound = np.maximum(up[first] - lo[second], up[second] - lo[first])
    bound += _SLACK_EPS * _EPS * scale
    pending = np.flatnonzero(bound > best[slot])
    while pending.size:
        pairs, pending = pending[: sub.shape[0]], pending[sub.shape[0] :]
        skews = np.abs(sub[first[pairs]] - sub[second[pairs]])
        np.fmax.at(best, slot[pairs], np.fmax.reduce(skews, axis=1))
        pending = pending[bound[pending] > best[slot[pending]]]


def per_edge_max_skew(trace: Trace, warmup: float = 0.0) -> dict:
    """Max observed skew of each edge (i, j), i < j; 0.0 where never measured."""
    return _report_pass(_trace_blocks(trace, warmup), trace.topology)[1]


def gradient_profile(trace: Trace, warmup: float = 0.0) -> dict:
    """Max observed skew per hop distance k = 1..diameter."""
    return _report_pass(_trace_blocks(trace, warmup), trace.topology)[2]


def rate_floor(trace: Trace) -> float:
    """Minimum instantaneous logical rate observed on any inter-sample
    interval of a started node.

    A node's rate changes only at its rebase times and drift breakpoints,
    and each of those in [start, horizon) is a sample, so the minimum over
    those points is the minimum over every sample before the horizon.
    """
    lowest = math.inf
    for hist, clock in zip(trace.history, trace.clocks):
        if hist.times.size == 0:
            continue
        breaks = np.asarray(clock.schedule.breakpoints, dtype=float)
        points = np.concatenate([hist.times, breaks[breaks >= hist.times[0]]])
        points = points[points < trace.horizon]
        if points.size:
            factors = hist.factors[np.searchsorted(hist.times, points, side="right") - 1]
            lowest = min(lowest, float((factors * clock.rate_at(points)).min()))
    return lowest if lowest < math.inf else float("nan")


def reduced_rate_stats(trace: Trace) -> ReducedRateStats:
    per_node_raw: dict[int, list] = {}
    for (node, _neighbor), intervals in sorted(trace.reduced_intervals.items()):
        per_node_raw.setdefault(node, []).extend(intervals)
    per_node = {}
    durations = []
    for node in sorted(per_node_raw):
        merged = []
        for lo, hi in sorted(per_node_raw[node]):
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        per_node[node] = tuple(merged)
        durations.extend(hi - lo for lo, hi in merged)
    return ReducedRateStats(
        per_node=per_node,
        durations=tuple(durations),
        count=len(durations),
        total=float(sum(durations)),
        longest=float(max(durations)) if durations else 0.0,
    )


def bound_checks(report: SkewReport, config: "RunConfig") -> tuple[BoundVerdict, ...]:
    """Compare measured skews against the worst-case expressions.

    Global: (1 + drift_bound) * diameter * max_gap, from the start-up
    analysis; holds for any number of initiators (one is worst).
    Neighbor: threshold + (1 + 3*drift_bound) * max_gap; the analysis
    establishes it for the wait-chain scenario (engine.is_wait_chain, which
    looks at the config's structure, not its label) under the gradient
    variant, so elsewhere it is only reported as an observation.
    """
    from .engine import is_wait_chain

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


def trace_csv_text(trace: Trace, out=None) -> str | None:
    """Stable CSV rendering: one row per (sample time, node).

    Columns: time,node,logical,rate,alpha,event_kind. Fields of a node
    that has not started yet are left empty, as is the rate at the final
    sample (it has no forward interval). event_kind joins whatever applies
    to that node at that instant: start, recv, send, drift.

    Rows are rendered from the history _CSV_BLOCK samples at a time. Given
    a text file out, each block is written to it as soon as it is rendered
    and None is returned; otherwise the whole text is returned.
    """
    # (time, node) -> its kinds as dict keys, in order of first occurrence
    kinds: dict[tuple[float, int], dict[str, None]] = {}
    events = trace.events
    for t, src, dst, payload, started in _rows(
        events.time, events.src, events.dst, events.payload, events.started
    ):
        if started:
            kinds.setdefault((t, dst), {})["start"] = None
        if payload == payload:  # not NaN: the message carried a value
            kinds.setdefault((t, dst), {})["recv"] = None
        kinds.setdefault((t, src), {})["send"] = None
    for node, clock in enumerate(trace.clocks):
        for b in clock.schedule.breakpoints[1:]:
            kinds.setdefault((b, node), {})["drift"] = None
    for node in trace.config.initiators:
        kinds.setdefault((0.0, node), {})["start"] = None
    joined = {key: "+".join(names) for key, names in kinds.items()}

    chunks: list[str] = []
    write = chunks.append if out is None else out.write
    write("time,node,logical,rate,alpha,event_kind\n")
    total = trace.sample_times.size
    for s0 in range(0, total, _CSV_BLOCK):
        times = trace.sample_times[s0 : s0 + _CSV_BLOCK]
        logical, alphas = sample_history(trace.history, trace.clocks, times)
        rates = _rates(alphas, trace.clocks, times)
        if s0 + times.size == total:
            rates[:, -1] = np.nan
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
    from .engine import config_to_dict

    # the diameter and the effective threshold are given at top level
    block = asdict(report)
    del block["diameter"], block["effective_skew_threshold"]
    block["verdicts"] = block.pop("bound_verdicts")
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
