"""Hardware clocks with bounded, piecewise-constant additive drift.

A clock's rate at real time t is 1 + drift(t), with |drift| <= drift_bound
and drift_bound in [0, 1). Hardware time is the running integral of that
rate from 0, evaluated exactly segment by segment, so all downstream clock
functions stay piecewise linear.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = ["DriftSchedule", "HardwareClock", "make_drift_schedule"]

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

    def drift_at(self, t):
        """Drift in effect at time t; at a breakpoint, the new segment's."""
        breaks = np.asarray(self.breakpoints)
        idx = np.searchsorted(breaks, t, side="right") - 1
        idx = np.clip(idx, 0, len(self.rates) - 1)
        return np.asarray(self.rates)[idx]


@dataclass(frozen=True)
class HardwareClock:
    """Exact evaluator for hardware time under a DriftSchedule; H(0) = 0."""

    schedule: DriftSchedule

    def __post_init__(self):
        breaks = np.asarray(self.schedule.breakpoints, dtype=float)
        rates = 1.0 + np.asarray(self.schedule.rates, dtype=float)
        spans = np.diff(np.append(breaks, self.schedule.horizon))
        origin = np.concatenate([[0.0], np.cumsum(rates * spans)[:-1]])
        object.__setattr__(self, "_breaks", breaks)
        object.__setattr__(self, "_rates", rates)
        object.__setattr__(self, "_origin", origin)
        object.__setattr__(self, "_breaks_list", breaks.tolist())
        object.__setattr__(self, "_rates_list", rates.tolist())
        object.__setattr__(self, "_origin_list", origin.tolist())

    @property
    def horizon(self) -> float:
        return self.schedule.horizon

    @property
    def segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(breaks, origins, rates): segment k begins at breaks[k], where H
        reads origins[k], and advances at rates[k] = 1 + drift; H(t) is
        origins[k] + rates[k] * (t - breaks[k]) on it."""
        return self._breaks, self._origin, self._rates

    def hardware_time(self, t):
        """H(t) for scalar or array t in [0, horizon]; exact per segment."""
        if isinstance(t, (int, float)):
            if t < 0 or t > self.schedule.horizon:
                raise ValueError(
                    f"time outside covered horizon [0, {self.schedule.horizon}]"
                )
            k = bisect_right(self._breaks_list, t) - 1
            if k < 0:
                k = 0
            return self._origin_list[k] + self._rates_list[k] * (t - self._breaks_list[k])
        ts = np.asarray(t, dtype=float)
        if np.any(ts < 0) or np.any(ts > self.schedule.horizon):
            raise ValueError(
                f"time outside covered horizon [0, {self.schedule.horizon}]"
            )
        idx = self._segment(ts)
        out = self._origin[idx] + self._rates[idx] * (ts - self._breaks[idx])
        return float(out) if ts.ndim == 0 else out

    def rate_at(self, t):
        """Clock rate 1 + drift at time t; at a breakpoint, the new segment's."""
        return self._rates[self._segment(t)]

    def _segment(self, t):
        """Index of the drift segment in effect at time t."""
        return np.clip(np.searchsorted(self._breaks, t, side="right") - 1, 0, len(self._rates) - 1)


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
