"""Named run configurations for the scenarios the suite exercises by name."""

from __future__ import annotations

from .config import RunConfig, TopologySpec, build_wait_chain_scenario

__all__ = ["PRESETS", "preset"]


def two_node() -> RunConfig:
    """Two nodes, zero drift, single initiator: the minimal hand-checkable run."""
    return RunConfig(
        topology=TopologySpec(kind="chain", n=2),
        drift_bound=0.0,
        max_gap=1.0,
        skew_threshold=1.0,
        initiators=(0,),
        drift_mode="constant",
        schedule_mode="periodic",
        seed=0,
        label="two_node",
    )


def startup_chain() -> RunConfig:
    """Five-node chain, single initiator, drift-free: start-up propagation only.

    The threshold is incommensurate with the send period so no logical
    value ever sits exactly on a slowdown decision boundary; that keeps
    the scenario meaningful for engine-versus-reference comparisons.
    """
    return RunConfig(
        topology=TopologySpec(kind="chain", n=5),
        drift_bound=0.1,
        max_gap=1.0,
        skew_threshold=2**-0.5,
        initiators=(0,),
        drift_mode="constant",
        drift_value=0.0,
        schedule_mode="periodic",
        seed=0,
        label="startup_chain",
    )


def wait_chain() -> RunConfig:
    """The adversarial wait-chain scenario at diameter 8."""
    return build_wait_chain_scenario(
        diameter=8, drift_bound=0.1, max_gap=1.0, skew_threshold=1.0
    )


def drifting_chain() -> RunConfig:
    """Five-node chain where every node has its own constant drift.

    The dwell exceeds any reasonable horizon, so the piecewise-random mode
    draws one drift value per node and keeps it. Distinct drifts mean no
    two clocks advance at exactly the same rate, so decision margins never
    rest on a boundary; adversarial scenarios like the wait chain park
    clocks exactly at the slowdown threshold, which makes them unsuitable
    for comparing two independently rounded simulators.
    """
    return RunConfig(
        topology=TopologySpec(kind="chain", n=5),
        drift_bound=0.2,
        max_gap=1.0,
        skew_threshold=1.0,
        initiators=(0,),
        drift_mode="piecewise_random",
        drift_dwell=1000.0,
        schedule_mode="random_uniform",
        seed=3,
        label="drifting_chain",
    )


def random_geometric() -> RunConfig:
    """Fifty nodes in the unit square with random drift and random send gaps."""
    return RunConfig(
        topology=TopologySpec(kind="random_geometric", n=50, radius=0.3, seed=7),
        drift_bound=0.1,
        max_gap=1.0,
        skew_threshold=1.0,
        initiators=(0,),
        drift_mode="piecewise_random",
        drift_dwell=1.0,
        schedule_mode="random_uniform",
        seed=7,
        label="random_geometric",
    )


PRESETS = {
    "two_node": two_node,
    "startup_chain": startup_chain,
    "drifting_chain": drifting_chain,
    "wait_chain": wait_chain,
    "random_geometric": random_geometric,
}


def preset(name: str) -> RunConfig:
    try:
        return PRESETS[name]()
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
