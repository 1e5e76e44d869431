"""Brute-force reference simulator for cross-validating the event engine.

The oracle advances every logical clock by forward-Euler steps of a fixed
dt (rate sampled at the start of each substep) instead of the engine's
exact piecewise-linear evaluation, and re-implements the reception rules
inline instead of calling the protocol module. It starts from the same
resolve(config) as the engine, so it consumes the identical horizon,
effective threshold, communication schedule, drift realizations and sample
grid; it honors message times exactly and is intended for desk-scale
instances only.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .engine import WORKLOAD_CAP, ConfigError, RunConfig, resolve, sample_grid
from .metrics import Trace

__all__ = ["oracle_run", "compare", "Comparison", "OracleRun"]


@dataclass(frozen=True)
class OracleRun:
    """Dense record of a reference run: logical holds one row per node and
    one column per sample, NaN before the node started."""

    config: RunConfig
    sample_times: np.ndarray
    logical: np.ndarray
    start_times: np.ndarray
    reduced_intervals: dict


@dataclass(frozen=True)
class Comparison:
    """Result of matching two traces sample by sample."""

    max_deviation: float
    first_exceedance: tuple[float, int, float] | None
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.first_exceedance is None


def oracle_run(config: RunConfig, dt: float) -> OracleRun:
    """Re-simulate a config with fixed-step integration.

    dt must be positive, finite and at most max_gap / 10, and the steps it
    takes, nodes times horizon / dt, at most WORKLOAD_CAP. The returned
    record uses the same sample grid and conventions as the engine's trace,
    so the two can be compared entry by entry.
    """
    setup = resolve(config)
    if not 0.0 < dt < math.inf:
        raise ConfigError([f"dt must be positive and finite, got {dt}"])
    if dt > config.max_gap / 10.0:
        raise ConfigError([f"dt {dt} exceeds max_gap/10 = {config.max_gap / 10.0}"])
    topology, horizon, clocks = setup.topology, setup.horizon, setup.clocks
    n = topology.node_count
    steps = n * horizon / dt
    if steps > WORKLOAD_CAP:
        raise ConfigError(
            [f"dt {dt} needs about {steps:.3g} steps ({n} nodes over horizon {horizon!r}), "
             f"over the cap of {WORKLOAD_CAP:,}"]
        )
    threshold = setup.params.skew_threshold
    slowdown = config.variant == "gradient"
    reduced = 1.0 / setup.diameter_bound

    breaks = [list(c.schedule.breakpoints) for c in clocks]
    drifts = [list(c.schedule.rates) for c in clocks]
    times, srcs, dsts = setup.schedule.events()
    events = list(zip(times.tolist(), srcs.tolist(), dsts.tolist()))

    started = [False] * n
    level = [0.0] * n
    upto = [0.0] * n
    views = [{j: 0.0 for j in topology.neighbors(i)} for i in range(n)]
    factors = [{j: 1.0 for j in topology.neighbors(i)} for i in range(n)]
    start_times = np.full(n, np.inf)
    reduced_open: dict[tuple[int, int], float] = {}
    reduced_done: dict[tuple[int, int], list[tuple[float, float]]] = {}

    def clock_rate(i: int, t: float) -> float:
        k = bisect_right(breaks[i], t) - 1
        k = min(max(k, 0), len(drifts[i]) - 1)
        return 1.0 + drifts[i][k]

    def advance(i: int, target: float):
        cur = upto[i]
        if target <= cur:
            return
        if not started[i]:
            upto[i] = target
            return
        factor = min(factors[i].values())
        while cur < target:
            nxt = (math.floor(cur / dt) + 1) * dt
            if nxt <= cur:
                nxt = (math.floor(cur / dt) + 2) * dt
            if nxt > target:
                nxt = target
            level[i] += factor * clock_rate(i, cur) * (nxt - cur)
            cur = nxt
        upto[i] = target

    def deliver(i: int, sender: int, value: float, apply_step2: bool, t: float):
        views[i][sender] = value
        if not apply_step2:
            return
        if slowdown and level[i] >= value + threshold:
            if factors[i][sender] == 1.0:
                reduced_open[(i, sender)] = t
            factors[i][sender] = reduced
        else:
            if factors[i][sender] != 1.0:
                opened = reduced_open.pop((i, sender))
                reduced_done.setdefault((i, sender), []).append((opened, t))
            factors[i][sender] = 1.0
        lo = min(views[i].values())
        hi = max(views[i].values())
        target = min(lo + threshold, hi)
        if target > level[i]:
            level[i] = target

    for i in sorted(config.initiators):
        started[i] = True
        start_times[i] = 0.0

    grid = sample_grid(times, clocks, horizon)

    logical = np.full((n, grid.size), np.nan)
    ei = 0
    for col, s in enumerate(grid):
        s = float(s)
        while ei < len(events) and events[ei][0] <= s:
            t, src, dst = events[ei]
            ei += 1
            advance(src, t)
            advance(dst, t)
            if not started[src]:
                continue
            value = level[src]
            if not started[dst]:
                started[dst] = True
                level[dst] = 0.0
                start_times[dst] = t
                deliver(dst, src, value, config.process_on_start, t)
            else:
                deliver(dst, src, value, True, t)
        for i in range(n):
            advance(i, s)
            if started[i]:
                logical[i, col] = level[i]

    for key, opened in sorted(reduced_open.items()):
        reduced_done.setdefault(key, []).append((opened, horizon))

    return OracleRun(
        config=config,
        sample_times=grid,
        logical=logical,
        start_times=start_times,
        reduced_intervals={k: tuple(v) for k, v in sorted(reduced_done.items())},
    )


def compare(
    trace_a: "Trace | OracleRun", trace_b: "Trace | OracleRun", tol: float
) -> Comparison:
    """Max |logical difference| over common samples and nodes.

    Each side is an engine Trace, evaluated from its history on the sample
    grid, or an OracleRun. Both must come from the same config (hence the
    same schedule and sample grid). A point where one side has a value and
    the other does not counts as an infinite deviation.
    """
    if not 0.0 <= tol < math.inf:
        raise ConfigError([f"tol must be non-negative and finite, got {tol}"])
    if trace_a.config != trace_b.config:
        raise ValueError("traces come from different configs")
    if not np.array_equal(trace_a.sample_times, trace_b.sample_times):
        raise ValueError("traces have different sample grids")
    logical_a, logical_b = trace_a.logical, trace_b.logical
    nan_a = np.isnan(logical_a)
    nan_b = np.isnan(logical_b)
    dev = np.where(
        nan_a & nan_b,
        0.0,
        np.where(nan_a != nan_b, np.inf, np.abs(logical_a - logical_b)),
    )
    max_dev = float(dev.max()) if dev.size else 0.0
    first = None
    over = np.argwhere(dev.T > tol)
    if over.size:
        col, node = over[0]
        first = (float(trace_a.sample_times[col]), int(node), float(dev[node, col]))
    return Comparison(max_deviation=max_dev, first_exceedance=first, tolerance=tol)
