"""Deterministic discrete-event executor.

The engine enforces the two communication assumptions exactly: messages
are delivered at the instant they are sent, and on every directed edge
consecutive sends are at most max_gap apart. Application traffic exists on
every directed edge from the beginning of the run; synchronization
payloads ride on it once the sender has started.

Events at equal times are processed in a fixed order: descending source
id, then ascending destination id, then per-edge sequence. Any fixed order
is admissible under instantaneous processing, and this one prevents a
message relay chain from collapsing a whole path's start-up into a single
instant on the canonical chain scenarios. Within one instant a sender's
payload reflects updates from events already processed at that instant.

Two runs with the same RunConfig produce bit-identical traces.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from itertools import chain

import numpy as np

from . import topology as topo_mod
from .topology import WORKLOAD_CAP
from .clocks import DRIFT_MODES, ClockTable, HardwareClock, clock_table, make_drift_schedule
from .metrics import _ROW_BLOCK, EventLog, History, Trace, _end_rows, _rows
from .protocol import (
    VARIANTS,
    ProtocolParams,
    emit_payload,
    fresh_state,
    on_receive,
    on_start,
    rate_factor,
)

__all__ = [
    "TopologySpec",
    "RunConfig",
    "Setup",
    "CommSchedule",
    "ConfigError",
    "SCHEDULE_MODES",
    "WORKLOAD_CAP",
    "generate_schedule",
    "validate_config",
    "resolve",
    "sample_grid",
    "run",
    "build_wait_chain_scenario",
    "is_wait_chain",
    "wait_chain_length",
    "config_to_dict",
    "config_from_dict",
    "as_integer",
    "as_number",
]

SCHEDULE_MODES = ("periodic", "random_uniform", "scripted")


class ConfigError(ValueError):
    """Raised when a configuration fails validation; carries all violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# kind -> (builder, fields it needs, optional fields with their defaults).
# The builders take the fields as keyword arguments of the same names; a
# seed left None is the run's seed.
_KINDS = {
    "chain": (topo_mod.chain, ("n",), {}),
    "ring": (topo_mod.ring, ("n",), {}),
    "grid": (topo_mod.grid, ("rows", "cols"), {}),
    "random_geometric": (topo_mod.random_geometric, ("n", "radius"), {"seed": None, "retries": 50}),
    "edge_list": (topo_mod.from_edges, ("edges",), {}),
}


@dataclass(frozen=True)
class TopologySpec:
    """Declarative topology description, serializable with the run config;
    an optional field of the kind left None takes the kind's default."""

    kind: str
    n: int | None = None
    rows: int | None = None
    cols: int | None = None
    radius: float | None = None
    seed: int | None = None
    retries: int | None = None
    edges: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        for name, default in _KINDS.get(self.kind, (None, (), {}))[2].items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)

    def build(self, default_seed: int = 0) -> "topo_mod.Topology":
        """The graph; a field the kind needs but lacks, one set that the kind
        does not read, and over WORKLOAD_CAP node pairs are refused, as are
        random_geometric retries that would compare over 50 times as many."""
        if self.kind not in _KINDS:
            raise topo_mod.TopologyError(f"unknown topology kind {self.kind!r}")
        builder, needs, optional = _KINDS[self.kind]
        missing = [name for name in needs if getattr(self, name) is None]
        if missing:
            raise topo_mod.TopologyError(f"{self.kind} topology needs {', '.join(missing)}")
        read = ("kind", *needs, *optional)
        unread = [
            f.name for f in fields(self) if f.name not in read and getattr(self, f.name) is not None
        ]
        if unread:
            raise topo_mod.TopologyError(f"{self.kind} topology does not read {', '.join(unread)}")
        # the node count, so that no adjacency is built past the pair cap
        nodes = self.rows * self.cols if self.kind == "grid" else self.n
        if self.kind == "edge_list":
            nodes = 1 + max((max(edge) for edge in self.edges), default=0)
        pairs = nodes * (nodes - 1) // 2
        if pairs > WORKLOAD_CAP:
            raise topo_mod.TopologyError(
                f"{self.kind} topology of {nodes:,} nodes has over {WORKLOAD_CAP:,} node pairs"
            )
        # each random_geometric draw compares every pair: retries past the
        # default shrink the pair cap in proportion
        limit = optional.get("retries", 0) * WORKLOAD_CAP
        if self.kind == "random_geometric" and self.retries * pairs > limit:
            raise topo_mod.TopologyError(
                f"random_geometric topology of {nodes:,} nodes with {self.retries:,} retries "
                f"may compare over {limit:,} node pairs"
            )
        args = {name: getattr(self, name) for name in (*needs, *optional)}
        if "seed" in args and args["seed"] is None:
            args["seed"] = default_seed
        return builder(**args)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; two equal configs replay identically.

    diameter_bound is what nodes are told about the diameter (defaults to
    the true one); horizon defaults to 4 * diameter * max_gap, covering
    start-up plus the relaxation window. drift_signs directs the
    adversarial_extreme drift mode per node (+1 fast, -1 slow).
    """

    topology: TopologySpec
    drift_bound: float
    max_gap: float
    skew_threshold: float
    diameter_bound: int | None = None
    horizon: float | None = None
    initiators: tuple[int, ...] = (0,)
    drift_mode: str = "constant"
    drift_dwell: float = 1.0
    drift_value: float = 0.0
    drift_signs: tuple[int, ...] | None = None
    schedule_mode: str = "periodic"
    gap_min: float | None = None
    scripted_sends: dict | None = None
    variant: str = "gradient"
    seed: int = 0
    process_on_start: bool = True
    label: str = ""


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
    topology: "topo_mod.Topology",
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


def wait_chain_length(
    diameter: int, drift_bound: float, max_gap: float, skew_threshold: float
) -> float:
    """Number of edges a wait chain can span:
    min(diameter, (1 + drift_bound) * diameter * max_gap / skew_threshold).

    Whenever skew_threshold <= (1 + drift_bound) * max_gap, the ratio is at
    least the diameter, so the minimum is exactly the diameter; that case
    is returned directly to keep the result exact in floats.
    """
    if skew_threshold <= (1.0 + drift_bound) * max_gap:
        return float(diameter)
    return min(
        float(diameter),
        (1.0 + drift_bound) * diameter * max_gap / skew_threshold,
    )


def build_wait_chain_scenario(
    diameter: int,
    drift_bound: float,
    max_gap: float,
    skew_threshold: float,
    variant: str = "gradient",
    horizon: float | None = None,
    seed: int = 0,
    process_on_start: bool = True,
) -> RunConfig:
    """Worst-case start-up scenario on a chain of diameter+1 nodes.

    Node 0 initiates and runs fast (+drift_bound); everyone else runs slow
    (-drift_bound). With the periodic schedule each hop starts max_gap
    after its predecessor, so the chain builds the maximal gradient of
    skew_threshold per hop and the head must slow down for about one full
    chain length before relaxation returns. The default horizon
    (2*diameter + 4) * max_gap covers build-up and relaxation. A chain over
    WORKLOAD_CAP node pairs is refused before anything of its size is built.
    """
    if diameter < 1:
        raise ConfigError([f"diameter must be >= 1, got {diameter}"])
    if (diameter + 1) * diameter // 2 > WORKLOAD_CAP:
        raise ConfigError(
            [f"wait chain of diameter {diameter:,} has over {WORKLOAD_CAP:,} node pairs"]
        )
    if horizon is None:
        horizon = (2 * diameter + 4) * max_gap
    return RunConfig(
        topology=TopologySpec(kind="chain", n=diameter + 1),
        drift_bound=drift_bound,
        max_gap=max_gap,
        skew_threshold=skew_threshold,
        diameter_bound=diameter,
        horizon=horizon,
        initiators=(0,),
        drift_mode="adversarial_extreme",
        drift_signs=(1,) + (-1,) * diameter,
        schedule_mode="periodic",
        variant=variant,
        seed=seed,
        process_on_start=process_on_start,
        label="wait_chain",
    )


def is_wait_chain(config: RunConfig) -> bool:
    """Whether config is build_wait_chain_scenario on its own chain and
    parameters, whatever its label and horizon: the scenario for which the
    neighbor-skew bound is proven."""
    n = len(config.drift_signs or ())
    if n < 2 or n * (n - 1) // 2 > WORKLOAD_CAP:  # no scenario has that chain
        return False
    scenario = build_wait_chain_scenario(
        n - 1, config.drift_bound, config.max_gap, config.skew_threshold, config.variant,
        seed=config.seed, process_on_start=config.process_on_start,
    )
    return replace(scenario, label=config.label, horizon=config.horizon) == config


def validate_config(config: RunConfig) -> list[str]:
    """Check every configuration invariant; returns all violations found.

    An empty list means the config is runnable. Validation is the product
    here: every violation names the offending value. It builds the topology
    but no clocks, and a schedule only in scripted mode.
    """
    violations, _, _ = _validate(config)
    return violations


def _config_violations(config: RunConfig) -> list[str]:
    """The violations found from the config's own fields, building nothing."""
    v: list[str] = []
    for path, (_, read) in _FIELDS.items():
        value = _value(config, path)
        if read is as_number and value is not None and not math.isfinite(value):
            v.append(f"{path} must be finite, got {value}")
    if not 0.0 <= config.drift_bound < 1.0:
        v.append(f"drift_bound must be in [0, 1), got {config.drift_bound}")
    if config.max_gap <= 0:
        v.append(f"max_gap must be positive, got {config.max_gap}")
    if config.skew_threshold <= 0:
        v.append(f"skew_threshold must be positive, got {config.skew_threshold}")
    elif config.variant in ("gradient", "no_slowdown") and 0.0 <= config.drift_bound < 1.0:
        limit = (1.0 + config.drift_bound) * config.max_gap
        if config.max_gap > 0 and config.skew_threshold > limit:
            v.append(
                f"skew_threshold {config.skew_threshold} exceeds "
                f"(1+drift_bound)*max_gap = {limit}"
            )
    if config.variant not in VARIANTS:
        v.append(f"unknown variant {config.variant!r}")
    if config.drift_mode not in DRIFT_MODES:
        v.append(f"unknown drift mode {config.drift_mode!r}")
    if config.schedule_mode not in SCHEDULE_MODES:
        v.append(f"unknown schedule mode {config.schedule_mode!r}")
    for path, mode, reader in (
        ("drift.signs", config.drift_mode, "adversarial_extreme"),
        ("schedule.gap_min", config.schedule_mode, "random_uniform"),
        ("schedule.scripted", config.schedule_mode, "scripted"),
    ):
        if mode != reader and _value(config, path) is not None:
            section, _, key = path.partition(".")
            v.append(f"{mode} {section} does not read {key}")
    if config.drift_dwell <= 0:
        v.append(f"drift_dwell must be positive, got {config.drift_dwell}")
    if abs(config.drift_value) > config.drift_bound:
        v.append(
            f"drift_value {config.drift_value} exceeds drift_bound {config.drift_bound}"
        )
    if config.seed < 0:
        v.append(f"seed must be non-negative, got {config.seed}")
    # every integer up to 2**53 is exact as a float, so 1/diameter_bound is
    # the reciprocal of the stated bound
    if config.diameter_bound is not None and config.diameter_bound > 2**53:
        v.append(f"diameter_bound must be at most 2**53, got {config.diameter_bound}")
    if config.horizon is not None and config.horizon <= 0:
        v.append(f"horizon must be positive, got {config.horizon}")
    if config.gap_min is not None and not 0.0 <= config.gap_min < config.max_gap:
        v.append(
            f"gap_min must lie in [0, max_gap), got {config.gap_min} "
            f"with max_gap {config.max_gap}"
        )
    return v


def _validate(config: RunConfig):
    """Violations, and the topology and horizon where the topology builds."""
    v = _config_violations(config)
    topology = horizon = None
    try:
        topology = config.topology.build(default_seed=max(config.seed, 0))  # < 0 is refused above
    except topo_mod.TopologyError as exc:
        v.append(str(exc))
    if topology is not None:
        n = topology.node_count
        horizon = _horizon(config, topology)
        if not config.initiators:
            v.append("initiators must be nonempty")
        else:
            bad = [i for i in config.initiators if not 0 <= i < n]
            if bad:
                v.append(f"initiators out of range: {bad}")
            if len(set(config.initiators)) != len(config.initiators):
                v.append(f"duplicate initiators: {config.initiators}")
        if config.diameter_bound is not None and config.diameter_bound < topology.diameter:
            v.append(
                f"diameter_bound {config.diameter_bound} is below the "
                f"topology diameter {topology.diameter}"
            )
        if config.drift_signs is not None:
            if len(config.drift_signs) != n:
                v.append(
                    f"drift_signs has {len(config.drift_signs)} entries for {n} nodes"
                )
            elif any(s not in (-1, 1) for s in config.drift_signs):
                v.append(f"drift_signs must be +1 or -1, got {config.drift_signs}")
        if config.schedule_mode == "scripted":
            if config.scripted_sends is None:
                v.append("scripted schedule mode needs scripted_sends")
            else:
                try:
                    generate_schedule(
                        topology,
                        config.max_gap,
                        "scripted",
                        config.seed,
                        horizon,
                        scripted=config.scripted_sends,
                    )
                except ConfigError as exc:
                    v.extend(exc.violations)
        if not v:
            v.extend(_workload_violations(
                config, len(topology.directed_edges()), topology.node_count, horizon
            ))
    return v, topology, horizon


def _horizon(config: RunConfig, topology: "topo_mod.Topology") -> float:
    """The config's horizon, by default 4 * diameter * max_gap on topology."""
    if config.horizon is None:
        return 4.0 * topology.diameter * config.max_gap
    return config.horizon


def _workload_violations(
    config: RunConfig, edges: int, nodes: int, horizon: float
) -> list[str]:
    """The workload cap's violation, if any, of a valid config on a topology
    of edges directed edges and nodes nodes.

    Its sends plus drift segments are estimated before either is built.
    Every directed edge sends about horizon / gap times, where gap is
    max_gap for periodic sends and the mean gap (gap_min + max_gap) / 2 for
    random ones, whose smallest gap may be 0; a scripted schedule counts
    its sends. Random drift has a segment per dwell on every node.
    """
    if config.schedule_mode == "scripted":
        sends = float(sum(len(times) for times in config.scripted_sends.values()))
    else:
        gap = config.max_gap
        if config.schedule_mode == "random_uniform":
            low = config.max_gap / 4.0 if config.gap_min is None else config.gap_min
            gap = (low + config.max_gap) / 2.0
        sends = edges * horizon / gap
    segments = horizon / config.drift_dwell if config.drift_mode == "piecewise_random" else 1.0
    work = sends + nodes * math.ceil(segments)
    if work <= WORKLOAD_CAP:
        return []
    return [
        f"workload of about {work:.3g} sends and drift segments over "
        f"horizon {horizon!r} exceeds the cap of {WORKLOAD_CAP:,}: "
        "shorten the horizon or lengthen max_gap or drift.dwell"
    ]


@dataclass(frozen=True)
class Setup:
    """A validated config resolved into what every simulator of it consumes:
    defaults filled in, the variant's effective threshold in params, and the
    drift and send realizations."""

    topology: "topo_mod.Topology"
    diameter_bound: int
    horizon: float
    params: ProtocolParams
    clocks: tuple[HardwareClock, ...]
    schedule: CommSchedule


def resolve(config: RunConfig) -> Setup:
    """Validate and resolve a config; raises ConfigError listing every violation."""
    violations, topology, horizon = _validate(config)
    if violations:
        raise ConfigError(violations)
    bound = config.diameter_bound if config.diameter_bound is not None else topology.diameter
    return Setup(
        topology=topology,
        diameter_bound=bound,
        horizon=horizon,
        params=ProtocolParams.for_variant(
            config.skew_threshold, bound, config.variant, config.drift_bound
        ),
        clocks=tuple(
            HardwareClock(make_drift_schedule(
                config.drift_mode, config.drift_bound, horizon=horizon, dwell=config.drift_dwell,
                seed=(config.seed, 0xD1F7, i), value=config.drift_value,
                sign=1 if config.drift_signs is None else config.drift_signs[i],
            ))
            for i in range(topology.node_count)
        ),
        schedule=generate_schedule(
            topology,
            config.max_gap,
            config.schedule_mode,
            config.seed,
            horizon,
            gap_min=config.gap_min,
            scripted=config.scripted_sends,
        ),
    )


def sample_grid(event_times, table: ClockTable) -> np.ndarray:
    """Sorted sample times: run start, every event time, every drift
    breakpoint inside the run, and the horizon, each once. Between two
    consecutive samples every logical clock is linear in real time.

    A run's event times come in processing order, so they are already
    sorted; times in any other order are sorted first, in a copy. The grid
    is allocated once, at its final size, and filled _ROW_BLOCK events at a
    time: the events unequal to the one before them, merged with the run
    start, breakpoints and horizon that fall before the next block, less
    those equal to an event. So no other array of the grid's size is made,
    and the grid is what np.unique gives, without its import of numpy.ma."""
    breaks, horizon = table.breaks, table.horizon
    times = np.asarray(event_times, dtype=float)
    keep = np.ones(times.size, dtype=bool)
    if not np.greater_equal(times[1:], times[:-1], out=keep[1:]).all():
        times = np.sort(times)
    np.not_equal(times[1:], times[:-1], out=keep[1:])
    marks = np.concatenate(([0.0], breaks[(breaks > 0.0) & (breaks < horizon)], [horizon]))
    at = times.searchsorted(marks)
    taken = at < times.size
    taken[taken] = times[at[taken]] == marks[taken]  # an event is at the mark
    marks = marks[~taken]
    grid = np.empty(np.count_nonzero(keep) + marks.size)
    filled = placed = 0
    for start in range(0, max(times.size, 1), _ROW_BLOCK):
        stop = start + _ROW_BLOCK
        block = times[start:stop][keep[start:stop]]
        upto = marks.size if stop >= times.size else int(marks.searchsorted(times[stop]))
        if upto > placed:
            block = np.insert(block, block.searchsorted(marks[placed:upto]), marks[placed:upto])
            placed = upto
        grid[filled : filled + block.size] = block
        filled += block.size
    return grid


def _hardware_times(table: ClockTable, times: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """clocks[nodes[k]].hardware_time(times[k]) for every k, gathered from
    the clocks' table with one search into the shared breaks.

    It computes origin + rate * (t - break) in place, a temporary at a
    time; float + and * commute exactly, so the bits are those of the
    expression as written."""
    k = table.breaks.searchsorted(times, side="right")
    k -= 1
    since = times - table.breaks[k]
    # flat index of (nodes, k), in intp so that no int32 product overflows
    at = np.multiply(nodes, table.breaks.size, dtype=np.intp)
    at += k
    del k
    hardware = table.rates.ravel()[at]
    hardware *= since
    del since
    hardware += table.origins.ravel()[at]
    return hardware


def _rebase_history(
    n, initiators, times, dsts, h_dsts, payloads, started, process_on_start, values, factors
):
    """The run's History and per-event jumps from the loop's rebase points.

    values and factors are lists of float64 blocks that, joined, hold one
    entry per rebase point in processing order: one start per initiator,
    then per event a start where it started the receiver and a reception
    where it carried a payload the receiver processed, start first. A
    stable sort by node yields every node's history as one slice, its
    start first, so each later row is a reception and its jump is its
    value less the previous row's clock, l + f * (h - h0), at its hardware
    time. The lists are emptied.
    """
    processed = payloads == payloads  # not NaN: the sender had started
    if not process_on_start:
        processed &= ~started
    counts = started.astype(np.uint8) + processed
    # node and event indices in int32: the workload cap keeps both small
    node = np.concatenate((np.array(initiators, dtype=np.int32), np.repeat(dsts, counts)))
    order = np.argsort(node, kind="stable")
    bounds = np.searchsorted(node[order], np.arange(n + 1))
    del node
    # the initiators' rows come first and have no event: they read -1
    event = np.concatenate((
        np.full(len(initiators), -1, dtype=np.int32),
        np.repeat(np.arange(times.size, dtype=np.int32), counts),
    ))
    event = event[order]
    value = np.concatenate(values)
    values.clear()
    value = value[order]
    factor = np.concatenate(factors)
    factors.clear()
    factor = factor[order]
    del order

    # the initiators start at time 0, hardware time 0
    time, hardware = np.zeros(event.size), np.zeros(event.size)
    live = event >= 0
    live_event = event[live]
    time[live] = times[live_event]
    hardware[live] = h_dsts[live_event]
    del live, live_event

    # jump[r] for row r >= 1 against row r - 1, kept where row r is a reception
    jump = np.subtract(hardware[1:], hardware[:-1])
    jump *= factor[:-1]
    jump += value[:-1]
    np.subtract(value[1:], jump, out=jump)
    reception = np.ones(event.size, dtype=bool)
    reception[_end_rows(bounds)[0]] = False
    event = event[reception]
    jump = jump[reception[1:]]
    jumps = np.zeros(times.size)
    jumps[event] = jump

    return History(time, value, factor, hardware, bounds), jumps


def run(config: RunConfig) -> Trace:
    """Execute one run and record its complete trace.

    At each send on edge (i, j) at time t: if i has started, j receives
    i's logical value at that same t, starting first if this is the first
    payload to reach it; if i has not started, the application message
    carries nothing and j is unaffected. Initiators start at t = 0.
    """
    setup = resolve(config)
    topology, horizon, params, clocks = setup.topology, setup.horizon, setup.params, setup.clocks
    diameter_bound = setup.diameter_bound
    times, srcs, dsts = setup.schedule.events()
    del setup  # and with it the schedule, before the loop
    table = clock_table(clocks)
    n = topology.node_count

    states = [fresh_state(i, topology.neighbors(i)) for i in range(n)]
    # the value and factor of every rebase point in processing order: the
    # initiators' starts, then per event a start, a reception or both. The
    # lists hold one block's points; at its end they become float64 arrays.
    values, factors, value_blocks, factor_blocks = [], [], [], []

    # Local aliases, taken per run so that rebinding the module names
    # (as the benchmark's tracer does) still takes effect.
    emit, receive, factor_of = emit_payload, on_receive, rate_factor
    add_value, add_factor = values.append, factors.append
    process_on_start = config.process_on_start

    initiators = sorted(config.initiators)
    for i in initiators:
        state = on_start(states[i], 0.0)
        add_value(state.l_base)
        add_factor(state.factor)

    payloads = np.full(times.size, np.nan)
    started = np.zeros(times.size, dtype=bool)
    toggles = np.zeros(times.size, dtype=np.int8)
    h_srcs, h_dsts = _hardware_times(table, times, srcs), _hardware_times(table, times, dsts)
    # up to and including times.size, so that even a run without events
    # makes one pass and keeps its initiators' points
    for start in range(0, times.size + 1, _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        rows = _rows(srcs[block], dsts[block], h_srcs[block], h_dsts[block])
        for k, (src, dst, h_src, h_dst) in enumerate(rows, start):
            payload = emit(states[src], h_src)
            if payload is None:
                continue
            payloads[k] = payload
            state = states[dst]
            if not state.started:
                started[k] = True
                on_start(state, h_dst)
                add_value(state.l_base)
                add_factor(state.factor)
                if not process_on_start:
                    receive(state, params, src, payload, h_dst, apply_step2=False)
                    continue
            reduced = state.reduced
            receive(state, params, src, payload, h_dst)
            add_value(state.l_base)
            add_factor(factor_of(state))
            if state.reduced != reduced:  # only the sender's factor can have moved
                toggles[k] = state.reduced - reduced
        value_blocks.append(np.array(values, dtype=float))
        factor_blocks.append(np.array(factors, dtype=float))
        values.clear()
        factors.clear()
    del h_srcs  # before the run's peak, in _rebase_history

    history, jumps = _rebase_history(
        n, initiators, times, dsts, h_dsts, payloads, started, process_on_start,
        value_blocks, factor_blocks,
    )

    return Trace(
        config=config,
        topology=topology,
        diameter_bound=diameter_bound,
        effective_skew_threshold=params.skew_threshold,
        horizon=horizon,
        sample_times=sample_grid(times, table),
        events=EventLog(times, srcs, dsts, payloads, started, jumps, toggles),
        clocks=clocks,
        clock_table=table,
        history=history,
    )


def as_integer(value, name: str, problems: list) -> int | None:
    """value as an int if it is integral (4 or 4.0); else record a problem.

    Booleans and strings are refused rather than reinterpreted.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    problems.append(f"{name} must be an integer, got {value!r}")
    return None


def as_number(value, name: str, problems: list) -> float | None:
    """value as a float if it is a JSON number; else record a problem."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    problems.append(f"{name} must be a number, got {value!r}")
    return None


def _list_of(read):
    """Parser of a list whose element k is read by read() as name[k]."""

    def parse(value, name: str, problems: list) -> tuple | None:
        if not isinstance(value, (list, tuple)):
            problems.append(f"{name} must be a list, got {value!r}")
            return None
        return tuple(read(item, f"{name}[{k}]", problems) for k, item in enumerate(value))

    return parse


_integers = _list_of(as_integer)
_numbers = _list_of(as_number)


def _edge(value, name: str, problems: list) -> tuple | None:
    pair = _integers(value, name, problems)
    if pair is not None and len(pair) != 2:
        problems.append(f"{name} must be a pair of node ids, got {value!r}")
    return pair


_edges = _list_of(_edge)


def _text(value, name: str, problems: list) -> str | None:
    if isinstance(value, str):
        return value
    problems.append(f"{name} must be a string, got {value!r}")
    return None


def _flag(value, name: str, problems: list) -> bool | None:
    if isinstance(value, bool):
        return value
    problems.append(f"{name} must be true or false, got {value!r}")
    return None


def _scripted(value, name: str, problems: list) -> dict | None:
    if not isinstance(value, dict):
        problems.append(f"{name} must be an object, got {value!r}")
        return None
    sends = {}
    for key, times in value.items():
        src, sep, dst = str(key).partition("->")
        # only the spelling config_to_dict writes, so one edge has one key
        if sep and src.isdecimal() and dst.isdecimal() and key == f"{int(src)}->{int(dst)}":
            sends[(int(src), int(dst))] = _numbers(times, f"{name}[{key!r}]", problems)
        else:
            problems.append(
                f"{name} key must read 'src->dst' in ASCII digits without leading zeros, "
                f"got {key!r}"
            )
    return sends


# The config document, one entry per field in document order: path ->
# (attribute, reader). A "topology." path sets an attribute of the
# TopologySpec, any other path one of the RunConfig. A field's default is
# its attribute's dataclass default; a field without one is required.
_FIELDS = {
    "topology.kind": ("kind", _text),
    "topology.n": ("n", as_integer),
    "topology.rows": ("rows", as_integer),
    "topology.cols": ("cols", as_integer),
    "topology.radius": ("radius", as_number),
    "topology.seed": ("seed", as_integer),
    "topology.retries": ("retries", as_integer),
    "topology.edges": ("edges", _edges),
    "drift_bound": ("drift_bound", as_number),
    "max_gap": ("max_gap", as_number),
    "skew_threshold": ("skew_threshold", as_number),
    "diameter_bound": ("diameter_bound", as_integer),
    "horizon": ("horizon", as_number),
    "initiators": ("initiators", _integers),
    "drift.mode": ("drift_mode", _text),
    "drift.dwell": ("drift_dwell", as_number),
    "drift.value": ("drift_value", as_number),
    "drift.signs": ("drift_signs", _integers),
    "schedule.mode": ("schedule_mode", _text),
    "schedule.gap_min": ("gap_min", as_number),
    "schedule.scripted": ("scripted_sends", _scripted),
    "variant": ("variant", _text),
    "seed": ("seed", as_integer),
    "process_on_start": ("process_on_start", _flag),
    "label": ("label", _text),
}
_SECTIONS = ("topology", "drift", "schedule")


def _owner(path: str) -> type:
    return TopologySpec if path.startswith("topology.") else RunConfig


def _default(path: str):
    # a dataclass keeps each field's default as a class attribute
    return getattr(_owner(path), _FIELDS[path][0], MISSING)


def _value(config: RunConfig, path: str):
    return getattr(config.topology if _owner(path) is TopologySpec else config, _FIELDS[path][0])


def _plain(value):
    """value as JSON data: tuples become lists, scripted send keys 'src->dst'."""
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {f"{src}->{dst}": _plain(v) for (src, dst), v in sorted(value.items())}
    return value


def config_to_dict(config: RunConfig) -> dict:
    """The config as a document that config_from_dict reads back equal.

    The topology omits a field that is None; every other field is written.
    """
    doc: dict = {}
    for path in _FIELDS:
        section, _, key = path.rpartition(".")
        value = _value(config, path)
        if section == "topology" and value is None:
            continue
        (doc.setdefault(section, {}) if section else doc)[key] = _plain(value)
    return doc


def config_from_dict(data: dict) -> RunConfig:
    """Parse a config document; raises ConfigError naming every bad field.

    An absent field takes its default, and null is read as absent only
    where the default is None. Unknown fields, non-integral counts,
    non-numeric numbers and non-boolean flags are refused rather than
    reinterpreted. Value ranges, and topology fields the kind does not
    read, are checked later, by validate_config.
    """
    if not isinstance(data, dict):
        raise ConfigError([f"config must be an object, got {data!r}"])
    problems: list[str] = []
    sections = {"": data}
    for name in _SECTIONS:
        section = data.get(name, {})
        if isinstance(section, dict):
            sections[name] = section
        else:
            problems.append(f"{name} must be an object, got {section!r}")
    for prefix, section in sections.items():
        for key in section:
            path = f"{prefix}.{key}" if prefix else key
            # a key with a dot in it is unknown in every section
            if path.rpartition(".")[0] != prefix or path not in (*_FIELDS, *_SECTIONS):
                problems.append(f"unknown field {path!r}")

    args: dict[type, dict] = {TopologySpec: {}, RunConfig: {}}
    for path, (attr, read) in _FIELDS.items():
        prefix, _, key = path.rpartition(".")
        if prefix not in sections:
            continue  # not an object, reported above
        section, default = sections[prefix], _default(path)
        if key not in section:
            if default is MISSING:
                # a required field of an absent section is named by the section
                absent = prefix if prefix and prefix not in data else path
                problems.append(f"malformed config: missing required field {absent!r}")
            value = default
        elif section[key] is None and default is None:
            value = None
        else:
            value = read(section[key], path, problems)
        args[_owner(path)][attr] = value

    if problems:
        raise ConfigError(problems)
    return RunConfig(topology=TopologySpec(**args[TopologySpec]), **args[RunConfig])
