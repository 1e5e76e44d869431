"""The send schedule: when each directed edge carries an application message.

The paper's algorithm rides on application traffic that is assumed to be
reasonably frequent. Here that assumption is exact: on every directed edge
the first send is at most max_gap after the run start and consecutive
sends are at most max_gap apart, up to the horizon. generate_schedule
builds a CommSchedule in one of SCHEDULE_MODES and refuses any schedule
that breaks the bound; CommSchedule.events gives the sends in the order the
engine processes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .config import ConfigError
from .topology import Topology

__all__ = ["CommSchedule", "generate_schedule"]


@dataclass(frozen=True, eq=False)
class CommSchedule:
    """Send times within [0, horizon] on every directed edge, as columns.

    src, dst and counts give each directed edge, in sorted order, and its
    number of sends; times holds every send, edge by edge in send order, so
    edge k's sends are times[ends[k] - counts[k]:ends[k]]. On every edge the
    first send is at most max_gap after 0 and every consecutive gap is
    positive and at most max_gap, both as exact float comparisons.
    """

    max_gap: float
    horizon: float
    src: np.ndarray
    dst: np.ndarray
    counts: np.ndarray
    times: np.ndarray

    @classmethod
    def from_sends(cls, max_gap: float, horizon: float, sends: dict) -> "CommSchedule":
        """The schedule of a {(src, dst): send times} mapping."""
        edges = sorted(sends.items())
        counts = np.array([len(times) for _, times in edges], dtype=np.int64)
        times = np.fromiter(
            chain.from_iterable(times for _, times in edges), dtype=float, count=int(counts.sum())
        )
        # int32 ids: the node-pair cap keeps n far below 2**31
        src = np.array([s for (s, _), _ in edges], dtype=np.int32)
        dst = np.array([d for (_, d), _ in edges], dtype=np.int32)
        return cls(max_gap, horizon, src, dst, counts, times)

    @property
    def sends(self) -> dict:
        """A {(src, dst): tuple of send times} copy of the columns."""
        ends = np.cumsum(self.counts).tolist()
        return {
            (s, d): tuple(self.times[end - count:end].tolist())
            for s, d, count, end in zip(
                self.src.tolist(), self.dst.tolist(), self.counts.tolist(), ends
            )
        }

    def violations(self) -> list[str]:
        """Every breach of the gap bound and the horizon, edge by edge.

        One vector pass over the send column finds the faulty edges, and
        only those are walked, to word their faults.
        """
        counts, times = self.counts, self.times
        ends = np.cumsum(counts)
        starts = ends - counts
        sent = counts > 0
        # each send's gap, the first against the run start: t - 0.0 is t
        gap = np.empty_like(times)
        np.subtract(times[1:], times[:-1], out=gap[1:])
        gap[starts[sent]] = times[starts[sent]]
        # NaN fails every comparison, so a NaN time or gap is a fault
        fine = (gap > 0.0) & (gap <= self.max_gap) & (times <= self.horizon)
        bad = np.concatenate(([0], np.cumsum(~fine)))
        # the last send against the horizon; without sends, the run start
        last = np.zeros(counts.size)
        last[sent] = times[ends[sent] - 1]
        late = self.horizon - last > self.max_gap
        found = []
        for k in np.flatnonzero((bad[ends] > bad[starts]) | late).tolist():
            edge = f"edge {self.src[k]}->{self.dst[k]}"
            for fault in self._faults(tuple(times[starts[k]:ends[k]].tolist())):
                found.append(f"{edge}: {fault}")
        return found

    def _faults(self, times: tuple) -> list[str]:
        """The faults of one edge's send times, each worded to follow its
        edge's name."""
        found = []
        prev, first = 0.0, True  # the run start, until a send is read
        for t in times:
            gap = t - prev
            if t != t:  # NaN fails both comparisons below
                found.append(f"send time {t} is not a number")
                continue
            if t > self.horizon:
                found.append(f"send time {t} is past horizon {self.horizon}")
            if gap <= 0.0 and first:
                found.append(f"send time {t} is not after the run start")
            elif gap <= 0.0:
                found.append(f"send times not increasing at {t}")
            elif gap > self.max_gap:
                found.append(f"gap {gap} exceeds max_gap {self.max_gap}")
            prev, first = t, False
        if times and self.horizon - times[-1] > self.max_gap:
            found.append(
                f"no send in the last {self.horizon - times[-1]}"
                f" before the horizon (max_gap {self.max_gap})"
            )
        if not times and self.horizon > self.max_gap:
            found.append("no sends scheduled")
        return found

    def events(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every send as columns (times, src, dst) in processing order.

        The order is by time, then descending source, ascending destination
        and per-edge sequence. The sends are laid out edge by edge in send
        order and lexsort is stable, so the sequence needs no key of its own.
        """
        src = np.repeat(self.src, self.counts)
        dst = np.repeat(self.dst, self.counts)
        order = np.lexsort((dst, -src, self.times))
        return self.times[order], src[order], dst[order]


_GAP_CHUNK = 4096


def _capped_step(t: float, gap: float, cap: float) -> float:
    """t + gap, nudged down by ulps until the float difference is <= cap."""
    nxt = t + gap
    while nxt - t > cap:
        nxt = math.nextafter(nxt, -math.inf)
    return nxt


def _uniform_sends(edges, seed: int, max_gap: float, low: float, horizon: float):
    """(counts, times) of the sends on each edge, in order, with gaps
    max_gap - u, u uniform on [0, max_gap - low), each step taken by
    _capped_step.

    Each edge has its own generator and draws its gaps a chunk at a time: a
    vector draw yields the same values as that many scalar draws. A chunk
    covers the horizon at the mean gap, with a margin, up to _GAP_CHUNK
    draws; draws past the horizon are discarded. Each edge's steps become a
    float64 array as soon as the edge is done.
    """
    chunk = min(int(2.0 * horizon / (max_gap + low)) + 16, _GAP_CHUNK)
    blocks = []
    for src, dst in edges:
        rng = np.random.default_rng((seed, 0x5C4ED, src, dst))
        times = []
        t = 0.0
        while t <= horizon:
            for gap in (max_gap - rng.uniform(0.0, max_gap - low, size=chunk)).tolist():
                t = _capped_step(t, gap, max_gap)
                if t > horizon:
                    break
                times.append(t)
        blocks.append(np.array(times, dtype=float))
    return np.array([block.size for block in blocks], dtype=np.int64), np.concatenate(blocks)


def generate_schedule(
    topology: Topology,
    max_gap: float,
    mode: str,
    seed: int,
    horizon: float,
    gap_min: float | None = None,
    scripted: dict | None = None,
) -> CommSchedule:
    """Build the communication schedule for every directed edge.

    periodic: sends at max_gap, 2*max_gap, ... up to the horizon.
    random_uniform: successive gaps drawn uniformly from (gap_min, max_gap],
        gap_min defaulting to max_gap / 4.
    scripted: explicit per-edge lists, validated against the gap bound.
    """
    if not 0.0 < max_gap < math.inf:
        raise ConfigError([f"max_gap must be positive and finite, got {max_gap}"])
    if not math.isfinite(horizon):
        raise ConfigError([f"horizon must be finite, got {horizon}"])
    edges = topology.directed_edges()
    # int32 ids: the node-pair cap keeps n far below 2**31
    src, dst = np.array(edges, dtype=np.int32).reshape(-1, 2).T.copy()
    if mode == "periodic":
        row = []
        k = 1
        prev = 0.0
        while True:
            t = _capped_step(prev, (k * max_gap) - prev, max_gap)
            if t > horizon:
                break
            row.append(t)
            prev = t
            k += 1
        counts = np.full(len(edges), len(row), dtype=np.int64)
        times = np.tile(np.array(row, dtype=float), len(edges))
        schedule = CommSchedule(max_gap, horizon, src, dst, counts, times)
    elif mode == "random_uniform":
        low = max_gap / 4.0 if gap_min is None else gap_min
        if not 0.0 <= low < max_gap:
            raise ConfigError(
                [f"gap_min must lie in [0, max_gap), got {low} with max_gap {max_gap}"]
            )
        counts, times = _uniform_sends(edges, seed, max_gap, low, horizon)
        schedule = CommSchedule(max_gap, horizon, src, dst, counts, times)
    elif mode == "scripted":
        if scripted is None:
            raise ConfigError(["scripted schedule mode needs explicit send times"])
        sends = dict.fromkeys(edges, ())
        for edge in sorted(scripted):
            if tuple(edge) not in sends:
                raise ConfigError(
                    [f"scripted edge {edge[0]}->{edge[1]} is not in the topology"]
                )
            sends[tuple(edge)] = scripted[edge]
        schedule = CommSchedule.from_sends(max_gap, horizon, sends)
    else:
        raise ConfigError([f"unknown schedule mode {mode!r}"])

    problems = schedule.violations()
    if problems:
        raise ConfigError(problems)
    return schedule
