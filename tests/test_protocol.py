import math
from copy import deepcopy
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from gradsync.protocol import (
    ProtocolError,
    ProtocolParams,
    emit_payload,
    fresh_state,
    logical_time,
    on_receive,
    on_start,
    rate_factor,
)


def started_state(neighbors, l_base=0.0, h_base=0.0, views=None, factors=None):
    state = on_start(fresh_state(0, neighbors), h_base)
    state = replace(state, l_base=l_base)
    if views:
        state = replace(state, views={**state.views, **views})
    if factors:
        state = replace(state, rate_factors={**state.rate_factors, **factors})
    return state


class TestLogicalTime:
    def test_unit_factor(self):
        state = started_state((1, 2), l_base=2.0, h_base=1.0)
        assert logical_time(state, 4.0) == 5.0

    def test_reduced_factor_extrapolation(self):
        state = started_state((1,), l_base=2.0, h_base=0.0, factors={1: 0.25})
        assert logical_time(state, 8.0) == 4.0

    def test_identity_at_base(self):
        state = started_state((1,))
        assert logical_time(state, 0.0) == 0.0

    def test_not_started_rejected(self):
        with pytest.raises(ProtocolError, match="not started"):
            logical_time(fresh_state(0, (1,)), 1.0)


class TestRateFactor:
    def test_all_unit(self):
        assert rate_factor(started_state((1, 2))) == 1.0

    def test_min_of_mixed(self):
        state = started_state((1, 2), factors={2: 0.25})
        assert rate_factor(state) == 0.25

    def test_single_neighbor_reduced(self):
        state = started_state((1,), factors={1: 1.0 / 8.0})
        assert rate_factor(state) == 1.0 / 8.0


class TestOnStart:
    def test_initiator_begins_at_zero(self):
        state = on_start(fresh_state(3, (0,)), 0.0)
        assert state.started and logical_time(state, 0.0) == 0.0

    def test_first_message_begins_at_zero(self):
        state = on_start(fresh_state(3, (0,)), 3.7)
        assert logical_time(state, 3.7) == 0.0

    def test_concurrent_initiators_symmetric(self):
        a = on_start(fresh_state(0, (1,)), 0.0)
        b = on_start(fresh_state(1, (0,)), 0.0)
        assert logical_time(a, 0.0) == logical_time(b, 0.0) == 0.0

    def test_double_start_rejected(self):
        state = on_start(fresh_state(0, (1,)), 0.0)
        with pytest.raises(ProtocolError, match="twice"):
            on_start(state, 1.0)


PARAMS_D4 = ProtocolParams(skew_threshold=1.0, diameter_bound=4)


class TestOnReceive:
    def test_ahead_sender_triggers_slowdown(self):
        # single neighbor, current clock 10, hear 5: slow to 1/4, no jump
        state = started_state((1,), l_base=10.0)
        out = on_receive(state, PARAMS_D4, 1, 5.0, 0.0)
        assert out.views[1] == 5.0
        assert out.rate_factors[1] == 0.25
        assert out.l_base == 10.0 and rate_factor(out) == 0.25

    def test_close_sender_keeps_full_rate(self):
        state = started_state((1,), l_base=10.0)
        out = on_receive(state, PARAMS_D4, 1, 9.5, 0.0)
        assert out.rate_factors[1] == 1.0
        assert out.l_base == 10.0 and rate_factor(out) == 1.0

    def test_advance_capped_by_laggard(self):
        # neighbors j=1, k=2; view of 2 is 7; hear 9 from 1 while at 3:
        # no slowdown (3 < 10), advance to min(7+1, 9) = 8
        state = started_state((1, 2), l_base=3.0, views={2: 7.0})
        out = on_receive(state, PARAMS_D4, 1, 9.0, 0.0)
        assert out.rate_factors[1] == 1.0
        assert out.l_base == 8.0

    def test_zero_payload_identity(self):
        state = started_state((1,))
        out = on_receive(state, PARAMS_D4, 1, 0.0, 0.0)
        assert out.l_base == 0.0 and out.rate_factors[1] == 1.0

    def test_non_neighbor_rejected(self):
        state = started_state((1,))
        with pytest.raises(ProtocolError, match="non-neighbor"):
            on_receive(state, PARAMS_D4, 9, 1.0, 0.0)

    def test_negative_payload_rejected(self):
        state = started_state((1,))
        with pytest.raises(ProtocolError, match=">= 0"):
            on_receive(state, PARAMS_D4, 1, -0.5, 0.0)
        with pytest.raises(ProtocolError, match=">= 0, got nan"):
            on_receive(state, PARAMS_D4, 1, math.nan, 0.0)
        assert state.views[1] == 0.0  # refused before the view is recorded

    def test_hardware_time_running_backwards_rejected(self):
        state = started_state((1,), h_base=2.0)
        with pytest.raises(ProtocolError, match="ran backwards"):
            on_receive(state, PARAMS_D4, 1, 1.0, 1.5)
        with pytest.raises(ProtocolError, match="ran backwards"):
            emit_payload(state, 1.5)

    def test_unstarted_receiver_rejected(self):
        with pytest.raises(ProtocolError, match="before starting"):
            on_receive(fresh_state(0, (1,)), PARAMS_D4, 1, 1.0, 0.0)

    def test_view_only_update_leaves_clock_alone(self):
        state = started_state((1, 2), l_base=3.0)
        before = deepcopy(state)
        out = on_receive(state, PARAMS_D4, 1, 9.0, 0.0, apply_step2=False)
        assert out.views[1] == 9.0
        assert out.l_base == 3.0 and out.h_base == before.h_base
        assert out.rate_factors == before.rate_factors


class TestVariants:
    def test_no_slowdown_never_lowers(self):
        params = ProtocolParams(1.0, 4, variant="no_slowdown")
        state = started_state((1,), l_base=10.0)
        out = on_receive(state, params, 1, 5.0, 0.0)
        assert out.rate_factors[1] == 1.0

    def test_large_c_overrides_threshold_and_disables_slowdown(self):
        params = ProtocolParams.for_variant(1.0, 8, "large_c", drift_bound=0.1)
        assert params.skew_threshold == pytest.approx(1.1 * math.sqrt(9.0))
        assert not params.slowdown_enabled
        state = started_state((1,), l_base=50.0)
        out = on_receive(state, params, 1, 0.0, 0.0)
        assert out.rate_factors[1] == 1.0

    def test_gradient_is_default_resolution(self):
        params = ProtocolParams.for_variant(0.7, 8, "gradient", drift_bound=0.1)
        assert params.skew_threshold == 0.7 and params.slowdown_enabled

    def test_derived_fields_follow_replace(self):
        params = ProtocolParams(1.0, 4)
        assert (params.reduced_factor, params.slowdown_enabled) == (0.25, True)
        assert replace(params, diameter_bound=8).reduced_factor == 1.0 / 8.0
        assert not replace(params, variant="no_slowdown").slowdown_enabled
        with pytest.raises(ValueError, match="init=False"):
            replace(params, reduced_factor=0.5)

    def test_derived_fields_leave_equality_and_hash_alone(self):
        params = ProtocolParams(1.0, 4)
        twin = ProtocolParams(1.0, 4)
        object.__setattr__(twin, "reduced_factor", 0.5)
        object.__setattr__(twin, "slowdown_enabled", False)
        assert params == twin and hash(params) == hash(twin)
        assert params != ProtocolParams(1.0, 8)

    def test_bad_variant_rejected(self):
        with pytest.raises(ProtocolError, match="unknown variant"):
            ProtocolParams(1.0, 4, variant="turbo")


class TestEmit:
    def test_unstarted_emits_nothing(self):
        assert emit_payload(fresh_state(0, (1,)), 5.0) is None

    def test_started_emits_current_value(self):
        state = started_state((1,), l_base=4.2, h_base=7.0)
        assert emit_payload(state, 7.0) == 4.2


# ---------------------------------------------------------------------------
# properties over random op sequences


def receive_sequences():
    return st.lists(
        st.tuples(
            st.sampled_from([1, 2, 3]),
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        ),
        min_size=1,
        max_size=25,
    )


@settings(max_examples=150, deadline=None)
@given(receive_sequences(), st.sampled_from(["gradient", "no_slowdown"]))
def test_monotone_and_factor_domain_over_sequences(seq, variant):
    params = ProtocolParams(1.0, 4, variant=variant)
    state = on_start(fresh_state(0, (1, 2, 3)), 0.0)
    h_now = 0.0
    level = logical_time(state, h_now)
    for sender, value, dwell in seq:
        h_now += dwell
        pre = logical_time(state, h_now)
        assert pre >= level - 1e-12  # time passing never decreases the clock
        state = on_receive(state, params, sender, value, h_now)
        post = logical_time(state, h_now)
        assert post >= pre - 1e-12  # reception never decreases it either
        level = post
        assert all(
            f in (1.0, params.reduced_factor) for f in state.rate_factors.values()
        )
        assert rate_factor(state) in (1.0, params.reduced_factor)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=20.0),
)
def test_advance_cap(l_base, payload, view2, view3):
    state = started_state((1, 2, 3), l_base=l_base, views={2: view2, 3: view3})
    out = on_receive(state, PARAMS_D4, 1, payload, 0.0)
    worst = min(payload, view2, view3)
    best = max(payload, view2, view3)
    assert out.l_base <= max(l_base, worst + PARAMS_D4.skew_threshold) + 1e-12
    assert out.l_base <= max(l_base, best) + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=20.0),
)
def test_same_instant_redelivery_is_idempotent(l_base, payload, other_view):
    # Away from the exact boundary where a jump lands the clock precisely
    # threshold above the sender's value, redelivery changes nothing. On
    # the boundary the second delivery legitimately lowers the sender's
    # factor (the clock now leads by exactly the threshold), see
    # test_redelivery_on_exact_boundary.
    state = started_state((1, 2), l_base=l_base, views={2: other_view})
    once = on_receive(state, PARAMS_D4, 1, payload, 0.0)
    assume(abs(once.l_base - (payload + PARAMS_D4.skew_threshold)) > 1e-6)
    snapshot = deepcopy(once)  # on_receive updates its state in place
    twice = on_receive(once, PARAMS_D4, 1, payload, 0.0)
    assert twice == snapshot


def test_redelivery_on_exact_boundary():
    # jump lands exactly at payload + threshold; the second delivery sees a
    # clock leading by exactly the threshold and reduces the factor
    state = started_state((1, 2), l_base=0.0, views={2: 10.0})
    once = on_receive(state, PARAMS_D4, 1, 5.0, 0.0)
    assert once.l_base == 6.0 and once.rate_factors[1] == 1.0
    twice = on_receive(once, PARAMS_D4, 1, 5.0, 0.0)
    assert twice.l_base == 6.0 and twice.rate_factors[1] == 0.25
    snapshot = deepcopy(twice)  # on_receive updates its state in place
    thrice = on_receive(twice, PARAMS_D4, 1, 5.0, 0.0)
    assert thrice == snapshot


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.1, max_value=0.9),
)
def test_emit_respects_elapsed_bound(l_base, elapsed, drift_bound):
    # between events the announced value grows at most factor*(1+bound)*dt
    state = started_state((1,), l_base=l_base, h_base=0.0)
    h_elapsed = (1.0 + drift_bound) * elapsed  # fastest admissible clock
    payload = emit_payload(state, h_elapsed)
    assert payload <= l_base + rate_factor(state) * (1 + drift_bound) * elapsed + 1e-9


def test_updates_happen_in_place():
    state = fresh_state(0, (1, 2))
    assert on_start(state, 0.0) is state
    assert on_receive(state, PARAMS_D4, 1, 2.0, 1.0) is state
    assert on_receive(state, PARAMS_D4, 2, 2.0, 1.0, apply_step2=False) is state
    assert state.views == {1: 2.0, 2: 2.0} and state.h_base == 1.0


def test_constructed_state_derives_reduced_count():
    state = started_state((1, 2, 3), factors={1: 0.25, 3: 0.25})
    assert (state.reduced, state.factor) == (2, 0.25)
    assert replace(state, rate_factors={1: 1.0, 2: 1.0, 3: 1.0}).reduced == 0


def test_slowdown_lasts_until_every_factor_is_restored():
    state = started_state((1, 2, 3), l_base=10.0)
    on_receive(state, PARAMS_D4, 1, 0.0, 0.0)
    on_receive(state, PARAMS_D4, 2, 0.0, 0.0)
    assert (state.reduced, rate_factor(state)) == (2, 0.25)
    on_receive(state, PARAMS_D4, 1, 20.0, 0.0)
    assert (state.reduced, rate_factor(state)) == (1, 0.25)
    on_receive(state, PARAMS_D4, 2, 20.0, 0.0)
    assert (state.reduced, rate_factor(state)) == (0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([1, 2, 3]),
            st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
            st.booleans(),
        ),
        min_size=1,
        max_size=30,
    ),
    st.sampled_from([1, 2, 4, 8]),
)
def test_reduced_count_tracks_factors(seq, diameter_bound):
    # the O(1) rate factor must equal the minimum over the per-neighbor
    # factors after every reception, including view-only ones
    params = ProtocolParams(1.0, diameter_bound)
    state = on_start(fresh_state(0, (1, 2, 3)), 0.0)
    h_now = 0.0
    for sender, value, dwell, apply_step2 in seq:
        h_now += dwell
        on_receive(state, params, sender, value, h_now, apply_step2=apply_step2)
        assert state.reduced == sum(f < 1.0 for f in state.rate_factors.values())
        assert rate_factor(state) == min(state.rate_factors.values())


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([(1,), (1, 2), (1, 2, 3), (2, 5, 7, 9, 11)]))
def test_kept_view_extremes_match_min_and_max(data, neighbors):
    # worst and best must equal min and max of the views after every
    # start, reception (step 2 or view only) and replace, whatever the
    # payload does: repeat the sender's view, fall, tie another view or jump
    params = ProtocolParams(1.0, 4)
    state = fresh_state(0, neighbors)
    h_now = 0.0
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        op = data.draw(st.sampled_from(["start", "receive", "receive", "receive", "replace"]))
        if op == "start" or not state.started:
            if state.started:
                state = replace(state, started=False)
            on_start(state, h_now)
        elif op == "receive":
            sender = data.draw(st.sampled_from(neighbors), label="sender")
            views = state.views
            payload = data.draw(
                st.one_of(
                    st.just(views[sender]),
                    st.sampled_from(sorted(views.values())),
                    st.floats(0.0, views[sender]),
                    st.floats(0.0, 40.0),
                ),
                label="payload",
            )
            h_now += data.draw(st.sampled_from([0.0, 0.5, 2.0]), label="dwell")
            on_receive(state, params, sender, payload, h_now, apply_step2=data.draw(st.booleans()))
        else:
            views = {j: data.draw(st.floats(0.0, 40.0), label="view") for j in neighbors}
            state = replace(state, views=views)
        assert state.worst == min(state.views.values())
        assert state.best == max(state.views.values())
