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
exact linear extrapolation with no accumulation error. Every update
returns a new NodeState; instances are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = [
    "VARIANTS",
    "ProtocolParams",
    "NodeState",
    "SyncPayload",
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
    """

    skew_threshold: float
    diameter_bound: int
    variant: str = "gradient"

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

    @property
    def slowdown_enabled(self) -> bool:
        return self.variant == "gradient"

    @property
    def reduced_factor(self) -> float:
        return 1.0 / self.diameter_bound

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


@dataclass(frozen=True)
class SyncPayload:
    """The single value attached to an application message: the sender's
    logical clock at the send instant."""

    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ProtocolError(f"payload value must be >= 0, got {self.value}")


@dataclass(frozen=True)
class NodeState:
    """One node's synchronization state.

    views[j] is the last value heard from neighbor j, 0 before the first
    reception. rate_factors[j] is 1 or 1/diameter_bound. Before start the
    logical clock is undefined and the node emits no payload.
    """

    node: int
    neighbors: tuple[int, ...]
    started: bool
    h_base: float
    l_base: float
    views: dict[int, float]
    rate_factors: dict[int, float]


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
        views={j: 0.0 for j in neighbors},
        rate_factors={j: 1.0 for j in neighbors},
    )


def rate_factor(state: NodeState) -> float:
    """Current factor applied to the hardware rate: min over neighbors."""
    if not state.started:
        raise ProtocolError(f"node {state.node} is not started")
    # rate_factors carries exactly the neighbor keys by construction
    return min(state.rate_factors.values())


def logical_time(state: NodeState, h_now: float) -> float:
    """Logical clock at hardware time h_now; pure, no side effects."""
    if not state.started:
        raise ProtocolError(f"node {state.node} is not started")
    if h_now < state.h_base:
        raise ProtocolError(
            f"hardware time ran backwards: {h_now} < base {state.h_base}"
        )
    return state.l_base + rate_factor(state) * (h_now - state.h_base)


def on_start(state: NodeState, h_now: float) -> NodeState:
    """Start the node's logical clock at 0.

    An initiator starting at run begin and a node woken by its first
    synchronization payload initialize the same way.
    """
    if state.started:
        raise ProtocolError(f"node {state.node} started twice")
    return replace(
        state,
        started=True,
        h_base=h_now,
        l_base=0.0,
        views={j: 0.0 for j in state.neighbors},
        rate_factors={j: 1.0 for j in state.neighbors},
    )


def on_receive(
    state: NodeState,
    params: ProtocolParams,
    sender: int,
    payload: SyncPayload,
    h_now: float,
    apply_step2: bool = True,
) -> NodeState:
    """Process a payload from a neighbor; instantaneous, returns new state.

    In order: record the sender's value; compare the current logical clock
    against it to lower or restore that sender's rate factor (gradient
    variant only); advance the logical clock to min(worst view + threshold,
    best view) if that is ahead. The clock never decreases. With
    apply_step2=False only the view is recorded, which engines use when a
    run is configured not to process the message that woke a node up.
    """
    if sender not in state.neighbors:
        raise ProtocolError(f"node {state.node} received from non-neighbor {sender}")
    if not state.started:
        raise ProtocolError(f"node {state.node} received before starting")

    views = dict(state.views)
    views[sender] = payload.value
    if not apply_step2:
        return replace(state, views=views)

    current = logical_time(state, h_now)

    factors = dict(state.rate_factors)
    if params.slowdown_enabled and current >= views[sender] + params.skew_threshold:
        factors[sender] = params.reduced_factor
    else:
        factors[sender] = 1.0

    worst = min(views.values())
    best = max(views.values())
    advanced = max(current, min(worst + params.skew_threshold, best))

    return replace(
        state,
        views=views,
        rate_factors=factors,
        h_base=h_now,
        l_base=advanced,
    )


def emit_payload(state: NodeState, h_now: float) -> SyncPayload | None:
    """Payload to attach to an outgoing application message, if any.

    An unstarted node attaches nothing; a started node announces its
    logical clock at the send instant.
    """
    if not state.started:
        return None
    return SyncPayload(logical_time(state, h_now))
