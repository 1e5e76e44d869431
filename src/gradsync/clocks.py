"""Hardware clocks with bounded, piecewise-constant additive drift.

A clock's rate at real time t is 1 + drift(t), with |drift| <= drift_bound
and drift_bound in [0, 1). Hardware time is the running integral of that
rate from 0, evaluated exactly segment by segment, so all downstream clock
functions stay piecewise linear. A run's clocks share their breakpoints, so
the engine and the metrics read them all from one ClockTable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["ClockTable", "DriftSchedule", "HardwareClock", "clock_table", "make_drift_schedule"]

DRIFT_MODES = ("constant", "piecewise_random", "adversarial_extreme")


@dataclass(frozen=True)
class DriftSchedule:
    """Piecewise-constant drift over [0, horizon].

    breakpoints[k] is where segment k begins; breakpoints[0] must be 0 and
    the last segment extends to the horizon. rates[k] is the drift on
    segment k, confined to [-drift_bound, drift_bound].
    """

    drift_bound: float
    breakpoints: tuple[float, ...]
    rates: tuple[float, ...]
    horizon: float

    def __post_init__(self):
        if not 0.0 <= self.drift_bound < 1.0:
            raise ValueError(f"drift_bound must be in [0, 1), got {self.drift_bound}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if len(self.breakpoints) != len(self.rates) or not self.breakpoints:
            raise ValueError("breakpoints and rates must be equal-length and nonempty")
        if self.breakpoints[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if any(b >= e for b, e in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if self.breakpoints[-1] >= self.horizon:
            raise ValueError("last breakpoint must lie before the horizon")
        for rate in self.rates:
            if abs(rate) > self.drift_bound:
                raise ValueError(
                    f"segment drift {rate} exceeds drift_bound {self.drift_bound}"
                )


@dataclass(frozen=True)
class HardwareClock:
    """Exact evaluator for hardware time under a DriftSchedule; H(0) = 0."""

    schedule: DriftSchedule

    def __post_init__(self):
        breaks = np.asarray(self.schedule.breakpoints, dtype=float)
        rates = 1.0 + np.asarray(self.schedule.rates, dtype=float)
        spans = np.diff(np.append(breaks, self.schedule.horizon))
        origin = np.concatenate([[0.0], np.cumsum(rates * spans)[:-1]])
        object.__setattr__(self, "_segments", (breaks, origin, rates))

    @property
    def horizon(self) -> float:
        return self.schedule.horizon

    def hardware_time(self, t):
        """H(t) for scalar or array t in [0, horizon]; exact per segment. A
        scalar t gives a float."""
        ts = np.asarray(t, dtype=float)
        if not np.all((ts >= 0) & (ts <= self.schedule.horizon)):
            raise ValueError(
                f"time outside covered horizon [0, {self.schedule.horizon}]"
            )
        breaks, origins, rates = self._segments
        # k >= 0: every t is at least breaks[0] = 0
        k = breaks.searchsorted(ts, side="right") - 1
        out = origins[k] + rates[k] * (ts - breaks[k])
        return float(out) if ts.ndim == 0 else out


class ClockTable(NamedTuple):
    """Clocks that share their breakpoints, one row per clock: from breaks[k]
    on, clock i reads origins[i, k] + rates[i, k] * (t - breaks[k]), as
    HardwareClock.hardware_time does, with rates = 1 + drift."""

    breaks: np.ndarray
    origins: np.ndarray
    rates: np.ndarray
    horizon: float


def clock_table(clocks) -> ClockTable:
    """The ClockTable of clocks, in order; raises ValueError if a clock's
    breakpoints or horizon differ from the first's. Each row's origins are
    its clock's hardware_time at the breaks, where the rate term adds +0.0."""
    first = clocks[0].schedule
    for i, clock in enumerate(clocks):
        if (clock.schedule.breakpoints, clock.horizon) != (first.breakpoints, first.horizon):
            raise ValueError(f"clock {i} does not share the breakpoints and horizon of clock 0")
    breaks = np.array(first.breakpoints, dtype=float)
    origins = np.array([clock.hardware_time(breaks) for clock in clocks])
    rates = 1.0 + np.array([clock.schedule.rates for clock in clocks], dtype=float)
    return ClockTable(breaks, origins, rates, first.horizon)


def make_drift_schedule(
    mode: str,
    drift_bound: float,
    *,
    horizon: float,
    dwell: float = 1.0,
    seed: int = 0,
    value: float | None = None,
    sign: int = 1,
) -> DriftSchedule:
    """Build a DriftSchedule.

    constant: one segment at `value` (default 0).
    piecewise_random: segments of length dwell, drift uniform on
        [-drift_bound, drift_bound], reproducible from seed.
    adversarial_extreme: one segment pinned at sign * drift_bound.
    """
    if not 0.0 <= drift_bound < 1.0:
        raise ValueError(f"drift_bound must be in [0, 1), got {drift_bound}")
    if dwell <= 0:
        raise ValueError(f"dwell must be positive, got {dwell}")
    if mode == "constant":
        return DriftSchedule(
            drift_bound, (0.0,), (0.0 if value is None else float(value),), horizon
        )
    if mode == "adversarial_extreme":
        if sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        return DriftSchedule(drift_bound, (0.0,), (sign * drift_bound,), horizon)
    if mode == "piecewise_random":
        count = max(1, int(np.ceil(horizon / dwell)))
        breaks = tuple(k * dwell for k in range(count) if k * dwell < horizon)
        seeds = (seed,) if isinstance(seed, int) else tuple(seed)
        rng = np.random.default_rng([*seeds, 0xD21F])
        rates = tuple(
            float(r) for r in rng.uniform(-drift_bound, drift_bound, size=len(breaks))
        )
        return DriftSchedule(drift_bound, breaks, rates, horizon)
    raise ValueError(f"unknown drift mode {mode!r}")
