"""Per-node synchronization state machine.

Each node keeps a logical clock that advances at a rate factor times its
hardware rate and may jump forward, never backward. The factor is the
minimum of per-neighbor factors, each either 1 or 1/diameter_bound. On
every reception the node records the sender's announced value, decides
whether to slow down against that sender, and then tries to advance its
own clock toward the best neighbor view without leaving the worst one
behind by more than the skew threshold.

State is stored rebased: (h_base, l_base, factors) with the logical value
recomputed lazily from hardware time, so evaluation between events is an
exact linear extrapolation with no accumulation error. on_start and
on_receive update the state they are given in place and return it. The
state also counts the neighbors held at the reduced factor and keeps the
minimum and maximum of the neighbor views, so a reception costs O(1): it
rescans the views only when the sender held an extreme and moved off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "VARIANTS",
    "ProtocolParams",
    "NodeState",
    "ProtocolError",
    "fresh_state",
    "rate_factor",
    "logical_time",
    "on_start",
    "on_receive",
    "emit_payload",
]

VARIANTS = ("gradient", "no_slowdown", "large_c")


class ProtocolError(ValueError):
    """A protocol operation was applied outside its precondition."""


@dataclass(frozen=True)
class ProtocolParams:
    """Run-wide constants every node knows.

    skew_threshold: the amount by which being ahead of a sender triggers a
        slowdown, and the cap increment for forward jumps. Must satisfy
        skew_threshold <= (1 + drift_bound) * max_gap for the gradient and
        no_slowdown variants; that is validated at run configuration.
    diameter_bound: known upper bound on the network diameter; the reduced
        rate factor is 1/diameter_bound.
    variant:
        gradient     full algorithm (slowdown plus capped advance)
        no_slowdown  advance rule only, factors never lowered
        large_c      advance rule only, with skew_threshold overridden to
                     (1 + drift_bound) * sqrt(diameter_bound + 1)

    slowdown_enabled and reduced_factor are derived on construction, replace()
    included, and take no part in equality or hashing.
    """

    skew_threshold: float
    diameter_bound: int
    variant: str = "gradient"
    slowdown_enabled: bool = field(init=False, compare=False)
    reduced_factor: float = field(init=False, compare=False)

    def __post_init__(self):
        if self.skew_threshold <= 0:
            raise ProtocolError(
                f"skew_threshold must be positive, got {self.skew_threshold}"
            )
        if self.diameter_bound < 1:
            raise ProtocolError(
                f"diameter_bound must be a positive integer, got {self.diameter_bound}"
            )
        if self.variant not in VARIANTS:
            raise ProtocolError(f"unknown variant {self.variant!r}")
        object.__setattr__(self, "slowdown_enabled", self.variant == "gradient")
        object.__setattr__(self, "reduced_factor", 1.0 / self.diameter_bound)

    @classmethod
    def for_variant(
        cls,
        skew_threshold: float,
        diameter_bound: int,
        variant: str,
        drift_bound: float,
    ) -> "ProtocolParams":
        """Resolve the effective threshold; large_c overrides the configured one."""
        if variant == "large_c":
            skew_threshold = (1.0 + drift_bound) * math.sqrt(diameter_bound + 1)
        return cls(skew_threshold, diameter_bound, variant)


@dataclass(slots=True)
class NodeState:
    """One node's synchronization state, updated in place by the protocol.

    views[j] is the last value heard from neighbor j, 0 before the first
    reception. rate_factors[j] is 1 or 1/diameter_bound. Before start the
    logical clock is undefined and the node emits no payload.

    reduced counts the neighbors whose factor is below 1 and factor is the
    current rate factor, min(rate_factors.values()); worst and best are
    min(views.values()) and max(views.values()). All four are derived on
    construction (dataclasses.replace included) and kept up to date by
    on_start and on_receive, so views and rate_factors change through
    those or a replace only.
    """

    node: int
    neighbors: tuple[int, ...]
    started: bool
    h_base: float
    l_base: float
    views: dict[int, float]
    rate_factors: dict[int, float]
    reduced: int = field(init=False)
    factor: float = field(init=False)
    worst: float = field(init=False)
    best: float = field(init=False)

    def __post_init__(self):
        self.reduced = sum(1 for f in self.rate_factors.values() if f < 1.0)
        self.factor = min(self.rate_factors.values())
        self.worst = min(self.views.values())
        self.best = max(self.views.values())


def fresh_state(node: int, neighbors) -> NodeState:
    neighbors = tuple(sorted(neighbors))
    if not neighbors:
        raise ProtocolError(f"node {node} has no neighbors")
    return NodeState(
        node=node,
        neighbors=neighbors,
        started=False,
        h_base=0.0,
        l_base=0.0,
        views=dict.fromkeys(neighbors, 0.0),
        rate_factors=dict.fromkeys(neighbors, 1.0),
    )


def rate_factor(state: NodeState) -> float:
    """Current factor applied to the hardware rate: min over neighbors.

    Every factor is 1 or the run's one reduced factor, so the minimum is
    that reduced factor while any neighbor holds it and 1 otherwise; the
    state keeps it current, which makes this O(1).
    """
    if not state.started:
        raise ProtocolError(f"node {state.node} is not started")
    return state.factor


def logical_time(state: NodeState, h_now: float) -> float:
    """Logical clock at hardware time h_now; pure, no side effects."""
    if not state.started:
        raise ProtocolError(f"node {state.node} is not started")
    if h_now < state.h_base:
        raise ProtocolError(
            f"hardware time ran backwards: {h_now} < base {state.h_base}"
        )
    return state.l_base + state.factor * (h_now - state.h_base)


def on_start(state: NodeState, h_now: float) -> NodeState:
    """Start the node's logical clock at 0, in place; returns the state.

    An initiator starting at run begin and a node woken by its first
    synchronization payload initialize the same way.
    """
    if state.started:
        raise ProtocolError(f"node {state.node} started twice")
    state.started = True
    state.h_base = h_now
    state.l_base = 0.0
    state.views = dict.fromkeys(state.neighbors, 0.0)
    state.rate_factors = dict.fromkeys(state.neighbors, 1.0)
    state.reduced = 0
    state.factor = 1.0
    state.worst = 0.0
    state.best = 0.0
    return state


def on_receive(
    state: NodeState,
    params: ProtocolParams,
    sender: int,
    payload: float,
    h_now: float,
    apply_step2: bool = True,
) -> NodeState:
    """Process a payload from a neighbor; instantaneous, updates the state
    in place and returns it.

    The payload is the sender's logical clock at the send instant, a float
    that is never negative. In order: record the sender's value; compare
    the current logical clock against it to lower or restore that sender's
    rate factor (gradient variant only); advance the logical clock to
    min(worst view + threshold, best view) if that is ahead. The clock
    never decreases. With apply_step2=False only the view is recorded,
    which engines use when a run is configured not to process the message
    that woke a node up.
    """
    views = state.views
    # views carries exactly the neighbor keys by construction
    if sender not in views:
        raise ProtocolError(f"node {state.node} received from non-neighbor {sender}")
    if not state.started:
        raise ProtocolError(f"node {state.node} received before starting")
    if not payload >= 0.0:  # NaN included
        raise ProtocolError(f"payload value must be >= 0, got {payload}")

    previous = views[sender]
    views[sender] = payload
    # Keep min and max of the views; only a sender that held an extreme
    # and moved off it calls for a rescan.
    if payload <= state.worst:
        state.worst = payload
    elif previous == state.worst:
        state.worst = min(views.values())
    if payload >= state.best:
        state.best = payload
    elif previous == state.best:
        state.best = max(views.values())
    if not apply_step2:
        return state

    # logical_time, read inline: it saves a call per reception
    h_base = state.h_base
    if h_now < h_base:
        raise ProtocolError(f"hardware time ran backwards: {h_now} < base {h_base}")
    current = state.l_base + state.factor * (h_now - h_base)

    threshold = params.skew_threshold
    if params.slowdown_enabled and current >= payload + threshold:
        factor = params.reduced_factor
    else:
        factor = 1.0
    factors = state.rate_factors
    old = factors[sender]
    if old != factor:
        factors[sender] = factor
        state.reduced += (factor < 1.0) - (old < 1.0)
        state.factor = params.reduced_factor if state.reduced else 1.0

    # max(current, min(worst + threshold, best)), ties kept as min and max keep them
    target = state.worst + threshold
    if state.best < target:
        target = state.best
    if target > current:
        current = target
    state.l_base = current
    state.h_base = h_now
    return state


def emit_payload(state: NodeState, h_now: float) -> float | None:
    """Payload to attach to an outgoing application message, if any.

    An unstarted node attaches nothing; a started node announces its
    logical clock at the send instant, a plain float.
    """
    if not state.started:
        return None
    return logical_time(state, h_now)
