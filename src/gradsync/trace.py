"""The record of one run, and the evaluation of its clocks at any time.

A Trace holds every node's rebase history, as the four columns of one
History, and hardware clock, which determine its logical clock exactly,
and a sample grid of every instant where anything can change: event
times, drift breakpoints, run start, and the horizon. Between consecutive
samples every logical clock is linear in real time. Its messages are the
columns of one EventLog.

sample_history evaluates the logical values, factors and rates at any
times from the history and the hardware clocks' clocks.ClockTable. The
report and the CSV writer (metrics.py) evaluate the grid block by block
through _grid_blocks, the one place that finds each block's rows and cuts
the blocks, each block one flat pass over every node, so neither holds a
nodes x samples array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .clocks import ClockTable, HardwareClock

if TYPE_CHECKING:
    from .config import RunConfig
    from .topology import Topology

__all__ = [
    "Trace",
    "TraceEvent",
    "EventLog",
    "History",
    "sample_history",
]


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
    dst (both int32), the payload (NaN where the sender had not started),
    whether it started the receiver, the receiver's jump, and its slowdown
    toggle: int8, +1 where the reception lowered the sender's rate factor,
    -1 where it restored it, 0 otherwise. 34 B per event in all.

    Iterating yields TraceEvent records, built a block at a time, with
    Python ints for src and dst.
    """

    time: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    payload: np.ndarray
    started: np.ndarray
    jump: np.ndarray
    toggle: np.ndarray

    def __len__(self) -> int:
        return self.time.size

    def __iter__(self):
        for t, src, dst, payload, started, jump in _rows(
            self.time, self.src, self.dst, self.payload, self.started, self.jump
        ):
            yield TraceEvent(t, t, src, dst, None if payload != payload else payload, started, jump)


@dataclass(frozen=True, eq=False)
class History:
    """Every node's rebase points as four float64 columns, 32 B per point:
    at times[k] its logical clock was values[k], its hardware clock read
    hardware[k], and it advanced with factor factors[k] afterwards. Node
    i's points are rows bounds[i]:bounds[i + 1], in processing order, so
    their times are non-decreasing.

    Indexing or iterating yields one-node Histories, whose columns are views
    of that node's rows and whose bounds are [0, rows], so what reads a
    run's history reads one node's too.
    """

    times: np.ndarray
    values: np.ndarray
    factors: np.ndarray
    hardware: np.ndarray
    bounds: np.ndarray

    def __len__(self) -> int:
        return self.bounds.size - 1

    def __getitem__(self, index: int) -> History:
        i = range(len(self))[index]  # IndexError past either end
        return self._node(*self.bounds[i : i + 2].tolist())

    def __iter__(self):
        bounds = self.bounds.tolist()
        return map(self._node, bounds[:-1], bounds[1:])

    def _node(self, lo: int, hi: int) -> History:
        return History(
            self.times[lo:hi], self.values[lo:hi], self.factors[lo:hi],
            self.hardware[lo:hi], np.array([0, hi - lo]),
        )


def _end_rows(bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first and the last row of every node that has rows."""
    started = bounds[:-1] < bounds[1:]
    return bounds[:-1][started], bounds[1:][started] - 1


@dataclass(frozen=True)
class Trace:
    """Full record of one run.

    sample_times is strictly increasing. history and clocks are the only
    form of the clock values: logical and rates derive one row per node and
    one column per sample from them, NaN before the node started; the
    clocks are read from clock_table, their clocks.clock_table. Likewise
    the events' toggle column is the only form of the slowdown decisions.
    """

    config: "RunConfig"
    topology: "Topology"
    diameter_bound: int
    effective_skew_threshold: float
    horizon: float
    sample_times: np.ndarray
    events: EventLog
    clocks: tuple[HardwareClock, ...]
    clock_table: ClockTable
    history: History

    @property
    def node_count(self) -> int:
        return self.topology.node_count

    @property
    def start_times(self) -> np.ndarray:
        """Each node's first rebase time, inf where it never started."""
        bounds = self.history.bounds
        starts = np.full(bounds.size - 1, np.inf)
        started = bounds[:-1] < bounds[1:]
        starts[started] = self.history.times[bounds[:-1][started]]
        return starts

    @property
    def reduced_intervals(self) -> dict:
        """Per (receiver, sender), sorted, the (begin, end) times over which
        the receiver held that sender at the reduced factor, one still open
        ending at the horizon; rebuilt from the events' toggle column."""
        ev = self.events
        at = np.flatnonzero(ev.toggle)
        intervals: dict[tuple[int, int], list[tuple[float, float]]] = {}
        for t, dst, src, toggle in _rows(ev.time[at], ev.dst[at], ev.src[at], ev.toggle[at]):
            own = intervals.setdefault((dst, src), [])
            if toggle > 0:
                own.append((t, self.horizon))
            else:
                own[-1] = (own[-1][0], t)
        return {key: tuple(own) for key, own in sorted(intervals.items())}

    def evaluate_logical(self, times) -> np.ndarray:
        """Exact logical values at non-decreasing real times in [0, horizon]."""
        return sample_history(self.history, self.clock_table, times, factors=False)[0]

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
        rates = sample_history(self.history, self.clock_table, self.sample_times)[2]
        rates[:, -1] = np.nan
        return rates


def sample_history(
    history: History, table: ClockTable, times, factors: bool = True
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Logical values, rate factors and logical rates of every node at real
    times `times`; the factors and rates are None when not asked for.

    times must be non-decreasing and lie in [0, horizon]. One row per node,
    NaN before the node's first rebase point. Between rebase points a
    logical clock is linear in hardware time, so the values are exact. The
    logical rate is the factor times the hardware rate 1 + drift, both of
    the pieces in effect from that time on: at a rebase point or a drift
    breakpoint, the new piece's.

    The times are evaluated as the one block of _grid_blocks: flat array
    work over every node at once, no loop over the nodes but the search for
    each node's window of rows.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or not np.all(ts[1:] >= ts[:-1]):
        raise ValueError("sample times must be a non-decreasing 1-d sequence")
    if ts.size == 0:
        return _unstarted(len(history), 0, factors)
    if not (ts[0] >= 0.0 and ts[-1] <= table.horizon):
        raise ValueError(f"time outside covered horizon [0, {table.horizon}]")
    return next(_grid_blocks(history, table, ts, ts.size, factors))[1]


def _unstarted(n: int, m: int, factors: bool):
    """sample_history's result where no node has started."""
    logical = np.full((n, m), np.nan)
    return logical, logical.copy() if factors else None, logical.copy() if factors else None


def _grid_blocks(history: History, table: ClockTable, times, width: int, factors: bool):
    """(block, sample_history(history, table, block, factors)) for the
    blocks times[k * width : (k + 1) * width] of the non-decreasing times,
    in order. Nothing is kept of a block's values once it is yielded.

    The rows each block reads are found first, for every block at once: per
    node, one search of its rows for every block's first and last time. A
    block reads node i's rows from the one in effect at its first time, or
    from the node's first row where none is, up to the first row after its
    last time. Only these two (blocks, nodes) int32 arrays are kept; each
    block is then flat array work, in _evaluate_block.
    """
    lasts = np.minimum(np.arange(width, times.size + width, width), times.size) - 1
    edges = np.column_stack((times[::width], times[lasts])).ravel()
    # int32 rows: the workload cap keeps a run's rebase points far below 2**31
    found = np.empty((edges.size, len(history)), dtype=np.int32)
    bounds = history.bounds.tolist()
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        found[:, i] = history.times[lo:hi].searchsorted(edges, side="right")
        found[:, i] += lo
    start, stop = found[0::2], found[1::2]
    start -= 1
    np.maximum(start, history.bounds[:-1], out=start)
    for s0, first, after in zip(range(0, times.size, width), start, stop):
        block = times[s0 : s0 + width]
        yield block, _evaluate_block(history, table, block, first, after, factors)


def _evaluate_block(history: History, table: ClockTable, ts, start, stop, factors: bool):
    """sample_history at the times ts, reading node i's rows start[i] up to
    stop[i], as _grid_blocks finds them.

    One search of those rows among the times gives where each row takes
    effect, so each row holds over a count of times, and repeat spreads its
    constants over them, node after node, in the layout of the nodes x
    times result. Each time's drift segment, from one search of the breaks,
    spreads the clock table's columns the same way. A node's first row is
    spread from ts[0]; where some node had not started yet, a mask writes
    NaN over its times before its start. The arithmetic is v + f * (h - h0)
    with h = o + r * since, each sum and product taken in place, so every
    value has the bits of the per-sample search.
    """
    n, m = len(history), ts.size
    if history.times.size == 0:
        return _unstarted(n, m, factors)
    count = stop - start
    idle = count == 0  # no row by ts[-1]: row 0 stands in, masked throughout
    start = np.where(idle, 0, start)
    count[idle] = 1
    offset = np.cumsum(count) - count
    last = offset + count - 1
    # the window rows, as steps of 1 from each node's start
    rows = np.ones(int(count.sum()), dtype=np.int32)
    rows[offset[1:]] = start[1:] - start[:-1] - count[:-1] + 1
    rows[0] = start[0]
    np.cumsum(rows, dtype=np.int32, out=rows)
    # row r holds over the times at[r]:at[r + 1], up to ts[-1] at its node's
    # last; at becomes those counts in place, and rows that hold at no time
    # (followed by a row at the same time) are dropped
    at = ts.searchsorted(history.times[rows], side="left")
    begin = at[offset]
    begin[idle] = m
    at[offset] = 0
    tail = m - at[last]
    np.subtract(at[1:], at[:-1], out=at[:-1])
    at[last] = tail
    held = np.flatnonzero(at)
    rows, span = rows[held], at[held]
    del at, held

    def spread(column: np.ndarray) -> np.ndarray:
        return np.repeat(column[rows], span).reshape(n, m)

    # each time's drift segment; from seg[0] on, the segments in turn hold at
    # the next pieces[k] times, so their table columns are spread like the rows
    breaks, origins, hw_rates, _ = table
    seg = breaks.searchsorted(ts, side="right")  # every time is at least breaks[0] = 0
    seg -= 1
    since = ts - breaks[seg]
    pieces = np.bincount(seg - seg[0])
    columns = slice(int(seg[0]), int(seg[0]) + pieces.size)
    logical = np.repeat(origins[:, columns], pieces, axis=1)
    hardware_rate = np.repeat(hw_rates[:, columns], pieces, axis=1)
    alphas = rates = None
    if factors:
        alphas = spread(history.factors)
        rates = alphas * hardware_rate
    hardware_rate *= since
    logical += hardware_rate
    del hardware_rate
    logical -= spread(history.hardware)
    logical *= spread(history.factors) if alphas is None else alphas
    logical += spread(history.values)
    if begin.any():
        unstarted = np.arange(m) < begin[:, None]
        for out in (logical, alphas, rates) if factors else (logical,):
            out[unstarted] = np.nan
    return logical, alphas, rates
