from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradsync.clocks import DriftSchedule, HardwareClock, clock_table, make_drift_schedule
from gradsync.trace import sample_history

from conftest import history_of


def riemann_hardware_time(schedule, t, step=1e-4):
    """Left Riemann sum of the rate integral; the independent slow path."""
    total = 0.0
    cur = 0.0
    while cur < t:
        nxt = min(cur + step, t)
        drift = schedule.rates[bisect_right(schedule.breakpoints, cur) - 1]
        total += (1.0 + drift) * (nxt - cur)
        cur = nxt
    return total


def test_unit_rate():
    clock = HardwareClock(make_drift_schedule("constant", 0.0, horizon=10.0))
    assert clock.hardware_time(7.0) == 7.0


def test_constant_positive_drift():
    clock = HardwareClock(
        make_drift_schedule("constant", 0.1, horizon=10.0, value=0.1)
    )
    assert clock.hardware_time(5.0) == pytest.approx(5.5, abs=1e-12)


def test_hand_computed_piecewise_integral():
    # +0.1 on [0,2), -0.1 on [2,5]: H(5) = 2.2 + 2.7 = 4.9
    sched = DriftSchedule(0.1, (0.0, 2.0), (0.1, -0.1), 5.0)
    clock = HardwareClock(sched)
    assert clock.hardware_time(5.0) == pytest.approx(4.9, abs=1e-12)
    assert clock.hardware_time(2.0) == pytest.approx(2.2, abs=1e-12)


def test_beyond_horizon_rejected():
    clock = HardwareClock(make_drift_schedule("constant", 0.0, horizon=3.0))
    with pytest.raises(ValueError, match="horizon"):
        clock.hardware_time(3.5)
    with pytest.raises(ValueError, match="horizon"):
        clock.hardware_time(-0.1)


def test_nan_time_rejected():
    clock = HardwareClock(make_drift_schedule("constant", 0.0, horizon=3.0))
    outside = r"time outside covered horizon \[0, 3.0\]"
    with pytest.raises(ValueError, match=outside):
        clock.hardware_time(float("nan"))
    with pytest.raises(ValueError, match=outside):
        clock.hardware_time(np.array([0.0, np.nan]))


@pytest.mark.parametrize(
    "other",
    [
        DriftSchedule(0.1, (0.0, 2.5), (0.1, -0.1), 5.0),  # another breakpoint
        DriftSchedule(0.1, (0.0,), (0.1,), 5.0),  # one segment fewer
        DriftSchedule(0.1, (0.0, 2.0), (0.1, -0.1), 6.0),  # another horizon
    ],
)
def test_clock_table_refuses_clocks_that_break_apart(other):
    shared = DriftSchedule(0.1, (0.0, 2.0), (-0.1, 0.1), 5.0)
    clocks = (HardwareClock(shared), HardwareClock(other))
    refused = "clock 1 does not share the breakpoints and horizon of clock 0"
    with pytest.raises(ValueError, match=refused):
        clock_table(clocks)


def test_constant_zero_and_adversarial_modes():
    zero = make_drift_schedule("constant", 0.0, horizon=5.0)
    assert zero.rates == (0.0,)
    plus = make_drift_schedule("adversarial_extreme", 0.1, horizon=5.0, sign=1)
    assert plus.rates == (0.1,) and len(plus.breakpoints) == 1
    minus = make_drift_schedule("adversarial_extreme", 0.1, horizon=5.0, sign=-1)
    assert minus.rates == (-0.1,)


def test_piecewise_random_rates_stay_in_bound():
    sched = make_drift_schedule(
        "piecewise_random", 0.1, horizon=10_000.0, dwell=1.0, seed=42
    )
    rates = np.array(sched.rates)
    assert rates.size == 10_000
    assert np.all(rates >= -0.1) and np.all(rates <= 0.1)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError, match=r"drift_bound must be in \[0, 1\)"):
        make_drift_schedule("constant", 1.0, horizon=5.0)
    with pytest.raises(ValueError, match=r"drift_bound must be in \[0, 1\)"):
        make_drift_schedule("constant", -0.1, horizon=5.0)
    with pytest.raises(ValueError, match="dwell"):
        make_drift_schedule("piecewise_random", 0.1, horizon=5.0, dwell=0.0)
    with pytest.raises(ValueError, match="unknown drift mode"):
        make_drift_schedule("sinusoidal", 0.1, horizon=5.0)
    with pytest.raises(ValueError, match="exceeds drift_bound"):
        DriftSchedule(0.1, (0.0,), (0.2,), 5.0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.01, max_value=9.99),
    st.floats(min_value=0.01, max_value=9.99),
)
def test_monotone_and_rate_bounded(seed, bound, t_lo, t_hi):
    clock = HardwareClock(
        make_drift_schedule("piecewise_random", bound, horizon=10.0, dwell=0.7, seed=seed)
    )
    lo, hi = sorted((t_lo, t_hi))
    if hi - lo < 1e-9:
        return
    gain = clock.hardware_time(hi) - clock.hardware_time(lo)
    span = hi - lo
    assert gain > 0
    assert (1.0 - bound) * span - 1e-9 <= gain <= (1.0 + bound) * span + 1e-9


def test_hardware_time_matches_riemann_oracle():
    # error of the left sum is bounded by one rate change per crossed
    # breakpoint: crossings * 2*bound * step, kept under 2*(1+bound)*step
    for seed in range(6):
        bound = 0.3
        sched = make_drift_schedule(
            "piecewise_random", bound, horizon=4.5, dwell=1.5, seed=seed
        )
        clock = HardwareClock(sched)
        for t in (0.3, 1.9, 4.4):
            approx = riemann_hardware_time(sched, t)
            assert abs(clock.hardware_time(t) - approx) <= 2 * (1 + bound) * 1e-4


def test_vectorized_evaluation_matches_scalar():
    sched = make_drift_schedule("piecewise_random", 0.2, horizon=8.0, dwell=0.9, seed=3)
    clock = HardwareClock(sched)
    ts = np.linspace(0.0, 8.0, 101)
    vec = clock.hardware_time(ts)
    assert vec.shape == ts.shape
    for t, v in zip(ts, vec):
        assert clock.hardware_time(float(t)) == pytest.approx(v, abs=1e-12)


def test_rate_at_is_one_plus_the_drift_in_effect():
    sched = make_drift_schedule("piecewise_random", 0.2, horizon=8.0, dwell=0.9, seed=3)
    clock = HardwareClock(sched)
    # a node started at 0 that keeps factor 1: its logical rate is the clock's
    history = history_of([(np.zeros(1), np.zeros(1), np.ones(1), np.zeros(1))])
    ts = np.array([0.0, 0.45, 0.9, 1.8, 4.0, 7.2, 8.0])  # 0.9, 1.8 and 7.2 are breakpoints
    rates = sample_history(history, clock_table((clock,)), ts)[2][0]
    segment = [0, 0, 1, 2, 4, 8, 8]
    assert rates.tolist() == [1.0 + sched.rates[k] for k in segment]
