"""Skew measurement and bound verdicts over recorded traces.

A Trace samples every node's logical clock at every instant where anything
can change: event times, drift breakpoints, run start, and the horizon.
Between consecutive samples every logical clock is linear in real time, so
skew maxima over the whole run are attained at sample points and the
reported statistics are exact, not approximations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .clocks import HardwareClock
    from .engine import RunConfig
    from .topology import Topology

__all__ = [
    "Trace",
    "TraceEvent",
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
    both are recorded so the model assumption stays checkable. payload is
    None when the sender had not started and the message carried no
    synchronization value. jump is the forward step the receiver's logical
    clock took while processing, 0 if none.
    """

    send_time: float
    receive_time: float
    src: int
    dst: int
    payload: float | None
    started_receiver: bool
    jump: float


@dataclass(frozen=True)
class NodeHistory:
    """Rebase points of one node: at times[k] the logical clock was values[k]
    and advanced with factor factors[k] afterwards."""

    times: np.ndarray
    values: np.ndarray
    factors: np.ndarray


@dataclass(frozen=True)
class Trace:
    """Full record of one run.

    sample_times is strictly increasing; logical, rates and alphas hold one
    row per node and one column per sample, NaN before the node started.
    """

    config: "RunConfig"
    topology: "Topology"
    diameter_bound: int
    effective_skew_threshold: float
    horizon: float
    sample_times: np.ndarray
    logical: np.ndarray
    rates: np.ndarray
    alphas: np.ndarray
    start_times: np.ndarray
    events: tuple[TraceEvent, ...]
    reduced_intervals: dict
    clocks: tuple["HardwareClock", ...]
    history: tuple[NodeHistory, ...] | None = None

    @property
    def node_count(self) -> int:
        return self.logical.shape[0]

    def evaluate_logical(self, times) -> np.ndarray:
        """Exact logical values at arbitrary real times in [0, horizon].

        Needs the run history; traces rebuilt from serialized form cannot
        be densely evaluated.
        """
        if self.history is None:
            raise ValueError("trace carries no history; dense evaluation unavailable")
        return sample_history(self.history, self.clocks, times)[0]


def sample_history(history, clocks, times) -> tuple[np.ndarray, np.ndarray]:
    """Logical values and rate factors of every node at real times `times`.

    One row per node, NaN before the node's first rebase point. Between
    rebase points a logical clock is linear in hardware time, so the values
    are exact.
    """
    ts = np.asarray(times, dtype=float)
    logical = np.full((len(history), ts.size), np.nan)
    alphas = np.full((len(history), ts.size), np.nan)
    for i, (hist, clock) in enumerate(zip(history, clocks)):
        if hist.times.size == 0:
            continue
        idx = np.searchsorted(hist.times, ts, side="right") - 1
        mask = idx >= 0
        base = idx[mask]
        h_now = clock.hardware_time(ts[mask])
        h_base = clock.hardware_time(hist.times[base])
        logical[i, mask] = hist.values[base] + hist.factors[base] * (h_now - h_base)
        alphas[i, mask] = hist.factors[base]
    return logical, alphas


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

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


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


# Samples per column block of the pairwise and global reductions. The
# pairwise scratch buffer is (n - 1) x _BLOCK floats, small enough to stay
# in cache at sensor-field sizes (0.6 MB at n = 80) and independent of the
# number of samples.
_BLOCK = 1024


def _column_blocks(trace: Trace, warmup: float):
    """(first sample index, view of the logical values) per block of the
    samples at or after warmup."""
    total = trace.sample_times.size
    first = int(np.searchsorted(trace.sample_times, warmup, side="left"))
    for s0 in range(first, total, _BLOCK):
        yield s0, trace.logical[:, s0 : min(s0 + _BLOCK, total)]


def global_skew(trace: Trace, warmup: float = 0.0) -> GlobalSkew:
    """Largest |L_i - L_j| over all sample times and started pairs.

    Skew is measured only at instants when both nodes of the pair have
    started; before that a node has no logical clock. Ties go to the
    earliest sample, and within it to the lowest-numbered extreme nodes.
    """
    best = GlobalSkew(0.0, (0, 0), 0.0)
    for s0, values in _column_blocks(trace, warmup):
        unstarted = np.isnan(values)
        masked = np.where(unstarted, np.inf, values)
        lo = masked.argmin(axis=0)
        masked[unstarted] = -np.inf
        hi = masked.argmax(axis=0)
        cols = np.arange(values.shape[1])
        spread = values[hi, cols] - values[lo, cols]
        spread[(~unstarted).sum(axis=0) < 2] = -np.inf
        k = int(spread.argmax())
        if spread[k] > best.value:
            a, b = int(lo[k]), int(hi[k])
            best = GlobalSkew(
                float(spread[k]), (min(a, b), max(a, b)), float(trace.sample_times[s0 + k])
            )
    return best


def _max_skew_matrix(trace: Trace, warmup: float) -> np.ndarray:
    """Per-pair max |L_i - L_j| over warm samples; -inf where never measured.

    Each unordered pair is computed once, in the upper triangle, and
    mirrored; NaN marks a sample where either node had not started. The
    diagonal is left at -inf.
    """
    n = trace.node_count
    out = np.full((n, n), np.nan)
    scratch = np.empty((n - 1, _BLOCK))
    for _, values in _column_blocks(trace, warmup):
        width = values.shape[1]
        for i in range(n - 1):
            diff = scratch[: n - 1 - i, :width]
            np.subtract(values[i], values[i + 1 :], out=diff)
            np.abs(diff, out=diff)
            row = out[i, i + 1 :]
            np.fmax(row, np.fmax.reduce(diff, axis=1), out=row)
    out[np.isnan(out)] = -np.inf
    lower = np.tril_indices(n, -1)
    out[lower] = out.T[lower]
    return out


def _edge_skews(matrix: np.ndarray, topology: "Topology") -> dict:
    return {
        (i, j): float(matrix[i, j]) if np.isfinite(matrix[i, j]) else 0.0
        for i, j in topology.undirected_edges()
    }


def _profile(matrix: np.ndarray, topology: "Topology") -> dict:
    profile = {}
    for k in range(1, topology.diameter + 1):
        values = matrix[topology.distances == k]
        finite = values[np.isfinite(values)]
        profile[k] = float(finite.max()) if finite.size else 0.0
    return profile


def per_edge_max_skew(
    trace: Trace, topology: "Topology | None" = None, warmup: float = 0.0
) -> dict:
    topo = topology if topology is not None else trace.topology
    return _edge_skews(_max_skew_matrix(trace, warmup), topo)


def gradient_profile(
    trace: Trace, topology: "Topology | None" = None, warmup: float = 0.0
) -> dict:
    """Max observed skew per hop distance k = 1..diameter."""
    topo = topology if topology is not None else trace.topology
    return _profile(_max_skew_matrix(trace, warmup), topo)


def rate_floor(trace: Trace) -> float:
    """Minimum instantaneous logical rate observed on any inter-sample
    interval of a started node."""
    forward = trace.rates[:, :-1]
    finite = forward[~np.isnan(forward)]
    return float(finite.min()) if finite.size else float("nan")


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
    establishes it for the wait-chain scenario under the gradient variant,
    so elsewhere it is only reported as an observation.
    """
    global_threshold = (1.0 + config.drift_bound) * report.diameter * config.max_gap
    neighbor_threshold = (
        report.effective_skew_threshold + (1.0 + 3.0 * config.drift_bound) * config.max_gap
    )
    neighbor_observed = report.gradient_profile.get(1, 0.0)
    neighbor_scope = (
        "guaranteed"
        if config.label == "wait_chain" and config.variant == "gradient"
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
    if not (math.isfinite(warmup) and warmup <= trace.horizon):
        from .engine import ConfigError

        raise ConfigError(
            [f"warmup {warmup!r} leaves no sample: it must be finite and at most "
             f"the horizon {trace.horizon!r}"]
        )
    top = global_skew(trace, warmup)
    matrix = _max_skew_matrix(trace, warmup)
    report = SkewReport(
        max_global_skew=top.value,
        attaining_pair=top.pair,
        attaining_time=top.time,
        per_edge_max_skew=_edge_skews(matrix, trace.topology),
        gradient_profile=_profile(matrix, trace.topology),
        min_rate=rate_floor(trace),
        reduced_rate_durations=reduced_rate_stats(trace).durations,
        bound_verdicts=(),
        diameter=trace.topology.diameter,
        effective_skew_threshold=trace.effective_skew_threshold,
        warmup=warmup,
    )
    return replace(report, bound_verdicts=bound_checks(report, trace.config))


def _fmt(value: float) -> str:
    return repr(float(value))


def trace_csv_text(trace: Trace) -> str:
    """Stable CSV rendering: one row per (sample time, node).

    Columns: time,node,logical,rate,alpha,event_kind. Fields of a node
    that has not started yet are left empty, as is the rate at the final
    sample (it has no forward interval). event_kind joins whatever applies
    to that node at that instant: start, recv, send, drift.
    """
    kinds: dict[tuple[float, int], list[str]] = {}

    def add_kind(t, node, kind):
        entry = kinds.setdefault((t, node), [])
        if kind not in entry:
            entry.append(kind)

    for ev in trace.events:
        if ev.started_receiver:
            add_kind(ev.receive_time, ev.dst, "start")
        if ev.payload is not None:
            add_kind(ev.receive_time, ev.dst, "recv")
        add_kind(ev.send_time, ev.src, "send")
    for node, clock in enumerate(trace.clocks):
        for b in clock.schedule.breakpoints[1:]:
            add_kind(b, node, "drift")
    for node, t in enumerate(trace.start_times):
        if t == 0.0:
            add_kind(0.0, node, "start")

    lines = ["time,node,logical,rate,alpha,event_kind"]
    for col, t in enumerate(trace.sample_times):
        t = float(t)
        for node in range(trace.node_count):
            logical = trace.logical[node, col]
            if np.isnan(logical):
                fields = ["", "", ""]
            else:
                rate = trace.rates[node, col]
                fields = [
                    _fmt(logical),
                    "" if np.isnan(rate) else _fmt(rate),
                    _fmt(trace.alphas[node, col]),
                ]
            kind = "+".join(kinds.get((t, node), []))
            lines.append(f"{_fmt(t)},{node},{fields[0]},{fields[1]},{fields[2]},{kind}")
    return "\n".join(lines) + "\n"


def summary_json_text(trace: Trace, report: SkewReport) -> str:
    """Stable JSON summary embedding the resolved config and seed, so a run
    can be reproduced from its own summary."""
    from .engine import config_to_dict

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
        "report": {
            "max_global_skew": report.max_global_skew,
            "attaining_pair": list(report.attaining_pair),
            "attaining_time": report.attaining_time,
            "per_edge_max_skew": [
                [i, j, v] for (i, j), v in sorted(report.per_edge_max_skew.items())
            ],
            "gradient_profile": [
                [k, v] for k, v in sorted(report.gradient_profile.items())
            ],
            "min_rate": report.min_rate,
            "reduced_rate_durations": list(report.reduced_rate_durations),
            "warmup": report.warmup,
            "verdicts": [
                {
                    "name": v.name,
                    "threshold": v.threshold,
                    "observed": v.observed,
                    "margin": v.margin,
                    "passed": v.passed,
                    "scope": v.scope,
                }
                for v in report.bound_verdicts
            ],
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
