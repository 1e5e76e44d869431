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
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import topology as topo_mod
from .clocks import DRIFT_MODES, HardwareClock, make_drift_schedule
from .metrics import NodeHistory, Trace, TraceEvent, sample_history
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
    "generate_schedule",
    "validate_config",
    "resolve",
    "sample_grid",
    "run",
    "build_wait_chain_scenario",
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


_TOPOLOGY_NEEDS = {
    "chain": ("n",),
    "ring": ("n",),
    "grid": ("rows", "cols"),
    "random_geometric": ("n", "radius"),
    "edge_list": ("edges",),
}


@dataclass(frozen=True)
class TopologySpec:
    """Declarative topology description, serializable with the run config."""

    kind: str
    n: int | None = None
    rows: int | None = None
    cols: int | None = None
    radius: float | None = None
    seed: int | None = None
    retries: int = 50
    edges: tuple[tuple[int, int], ...] | None = None

    def build(self, default_seed: int = 0) -> "topo_mod.Topology":
        missing = [f for f in _TOPOLOGY_NEEDS.get(self.kind, ()) if getattr(self, f) is None]
        if missing:
            raise topo_mod.TopologyError(f"{self.kind} topology needs {', '.join(missing)}")
        if self.kind == "chain":
            return topo_mod.chain(self.n)
        if self.kind == "ring":
            return topo_mod.ring(self.n)
        if self.kind == "grid":
            return topo_mod.grid(self.rows, self.cols)
        if self.kind == "random_geometric":
            seed = self.seed if self.seed is not None else default_seed
            return topo_mod.random_geometric(self.n, self.radius, seed, self.retries)
        if self.kind == "edge_list":
            return topo_mod.from_edges(self.edges)
        raise topo_mod.TopologyError(f"unknown topology kind {self.kind!r}")


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


@dataclass(frozen=True)
class CommSchedule:
    """Per-directed-edge send times within [0, horizon].

    On every edge the first send is at most max_gap after 0 and every
    consecutive gap is positive and at most max_gap, both as exact float
    comparisons.
    """

    max_gap: float
    horizon: float
    sends: dict = field(default_factory=dict)

    def violations(self) -> list[str]:
        found = []
        for (src, dst), times in sorted(self.sends.items()):
            prev = 0.0
            for t in times:
                gap = t - prev
                if gap <= 0.0:
                    found.append(
                        f"edge {src}->{dst}: send times not increasing at {t}"
                    )
                elif gap > self.max_gap:
                    found.append(
                        f"edge {src}->{dst}: gap {gap} exceeds max_gap {self.max_gap}"
                    )
                prev = t
            if times and self.horizon - times[-1] > self.max_gap:
                found.append(
                    f"edge {src}->{dst}: no send in the last {self.horizon - times[-1]}"
                    f" before the horizon (max_gap {self.max_gap})"
                )
            if not times and self.horizon > self.max_gap:
                found.append(f"edge {src}->{dst}: no sends scheduled")
        return found

    def events(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every send as columns (times, src, dst) in processing order.

        The order is by time, then descending source, ascending destination
        and per-edge sequence. The keys are unique, so one lexsort fixes the
        order completely.
        """
        edges = sorted(self.sends.items())
        counts = np.array([len(times) for _, times in edges], dtype=np.int64)
        times = np.fromiter(
            chain.from_iterable(times for _, times in edges), dtype=float, count=int(counts.sum())
        )
        src = np.repeat(np.array([s for (s, _), _ in edges], dtype=np.int64), counts)
        dst = np.repeat(np.array([d for (_, d), _ in edges], dtype=np.int64), counts)
        seq = np.arange(times.size) - np.repeat(np.cumsum(counts) - counts, counts)
        order = np.lexsort((seq, dst, -src, times))
        return times[order], src[order], dst[order]


def _capped_step(t: float, gap: float, cap: float) -> float:
    """t + gap, nudged down by ulps until the float difference is <= cap."""
    nxt = t + gap
    while nxt - t > cap:
        nxt = math.nextafter(nxt, -math.inf)
    return nxt


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
    sends = {}
    if mode == "periodic":
        times = []
        k = 1
        prev = 0.0
        while True:
            t = _capped_step(prev, (k * max_gap) - prev, max_gap)
            if t > horizon:
                break
            times.append(t)
            prev = t
            k += 1
        shared = tuple(times)
        for edge in topology.directed_edges():
            sends[edge] = shared
    elif mode == "random_uniform":
        low = max_gap / 4.0 if gap_min is None else gap_min
        if not 0.0 <= low < max_gap:
            raise ConfigError(
                [f"gap_min must lie in [0, max_gap), got {low} with max_gap {max_gap}"]
            )
        for src, dst in topology.directed_edges():
            rng = np.random.default_rng((seed, 0x5C4ED, src, dst))
            times = []
            t = 0.0
            while True:
                gap = max_gap - rng.uniform(0.0, max_gap - low)
                t = _capped_step(t, gap, max_gap)
                if t > horizon:
                    break
                times.append(t)
            sends[(src, dst)] = tuple(times)
    elif mode == "scripted":
        if scripted is None:
            raise ConfigError(["scripted schedule mode needs explicit send times"])
        known = set(topology.directed_edges())
        for edge, times in sorted(scripted.items()):
            if tuple(edge) not in known:
                raise ConfigError(
                    [f"scripted edge {edge[0]}->{edge[1]} is not in the topology"]
                )
            sends[tuple(edge)] = tuple(float(t) for t in times)
        for edge in topology.directed_edges():
            sends.setdefault(edge, ())
    else:
        raise ConfigError([f"unknown schedule mode {mode!r}"])

    schedule = CommSchedule(max_gap=max_gap, horizon=horizon, sends=sends)
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
    (2*diameter + 4) * max_gap covers build-up and relaxation.
    """
    if diameter < 1:
        raise ConfigError([f"diameter must be >= 1, got {diameter}"])
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


def validate_config(config: RunConfig) -> list[str]:
    """Check every configuration invariant; returns all violations found.

    An empty list means the config is runnable. Validation is the product
    here: every violation names the offending value. It builds the topology
    but no clocks, and a schedule only in scripted mode.
    """
    violations, _, _ = _validate(config)
    return violations


def _validate(config: RunConfig):
    """Violations, and the topology and horizon where the topology builds."""
    v: list[str] = []
    for name, value in (
        ("drift_bound", config.drift_bound),
        ("max_gap", config.max_gap),
        ("skew_threshold", config.skew_threshold),
        ("horizon", config.horizon),
        ("schedule.gap_min", config.gap_min),
        ("drift.dwell", config.drift_dwell),
        ("drift.value", config.drift_value),
        ("topology.radius", config.topology.radius),
    ):
        if value is not None and not math.isfinite(value):
            v.append(f"{name} must be finite, got {value}")
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
    if config.drift_dwell <= 0:
        v.append(f"drift_dwell must be positive, got {config.drift_dwell}")
    if abs(config.drift_value) > config.drift_bound:
        v.append(
            f"drift_value {config.drift_value} exceeds drift_bound {config.drift_bound}"
        )
    if config.horizon is not None and config.horizon <= 0:
        v.append(f"horizon must be positive, got {config.horizon}")
    if config.gap_min is not None and not 0.0 <= config.gap_min < config.max_gap:
        v.append(
            f"gap_min must lie in [0, max_gap), got {config.gap_min} "
            f"with max_gap {config.max_gap}"
        )

    topology = horizon = None
    try:
        topology = config.topology.build(default_seed=config.seed)
    except topo_mod.TopologyError as exc:
        v.append(str(exc))
    if topology is not None:
        n = topology.node_count
        horizon = config.horizon
        if horizon is None:
            horizon = 4.0 * topology.diameter * config.max_gap
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
    return v, topology, horizon


def _drift_schedule(config: RunConfig, node: int, horizon: float):
    if config.drift_mode == "constant":
        return make_drift_schedule(
            "constant", config.drift_bound, horizon=horizon, value=config.drift_value
        )
    if config.drift_mode == "adversarial_extreme":
        sign = config.drift_signs[node] if config.drift_signs is not None else 1
        return make_drift_schedule(
            "adversarial_extreme", config.drift_bound, horizon=horizon, sign=sign
        )
    return make_drift_schedule(
        "piecewise_random",
        config.drift_bound,
        horizon=horizon,
        dwell=config.drift_dwell,
        seed=(config.seed, 0xD1F7, node),
    )


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
            HardwareClock(_drift_schedule(config, i, horizon))
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


def sample_grid(event_times, clocks, horizon: float) -> np.ndarray:
    """Sorted sample times: run start, every event time, every drift
    breakpoint inside the run, and the horizon. Between two consecutive
    samples every logical clock is linear in real time."""
    parts = [np.array([0.0, horizon]), np.asarray(event_times, dtype=float)]
    for clock in clocks:
        breaks = np.asarray(clock.schedule.breakpoints, dtype=float)
        parts.append(breaks[(breaks > 0.0) & (breaks < horizon)])
    return np.unique(np.concatenate(parts))


def _hardware_times(clocks, times: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """clocks[nodes[k]].hardware_time(times[k]) for every k, evaluated with
    one vector call per node."""
    out = np.empty_like(times)
    order = np.argsort(nodes, kind="stable")
    bounds = np.searchsorted(nodes[order], np.arange(len(clocks) + 1))
    for i, clock in enumerate(clocks):
        idx = order[bounds[i]:bounds[i + 1]]
        out[idx] = clock.hardware_time(times[idx])
    return out


# Events converted to Python scalars at a time by _rows: converting whole
# columns up front would keep two extra floats per event alive for the run.
_ROW_BLOCK = 4096


def _rows(*columns):
    """Rows of equal-length arrays as Python scalars, one block at a time."""
    for start in range(0, columns[0].size, _ROW_BLOCK):
        yield from zip(*(col[start:start + _ROW_BLOCK].tolist() for col in columns))


def run(config: RunConfig) -> Trace:
    """Execute one run and record its complete trace.

    At each send on edge (i, j) at time t: if i has started, j receives
    i's logical value at that same t, starting first if this is the first
    payload to reach it; if i has not started, the application message
    carries nothing and j is unaffected. Initiators start at t = 0.
    """
    setup = resolve(config)
    topology, horizon, params, clocks = setup.topology, setup.horizon, setup.params, setup.clocks
    n = topology.node_count

    states = [fresh_state(i, topology.neighbors(i)) for i in range(n)]
    start_times = np.full(n, np.inf)
    hist_times: list[list[float]] = [[] for _ in range(n)]
    hist_values: list[list[float]] = [[] for _ in range(n)]
    hist_factors: list[list[float]] = [[] for _ in range(n)]
    event_log: list[TraceEvent] = []
    reduced_open: dict[tuple[int, int], float] = {}
    reduced_done: dict[tuple[int, int], list[tuple[float, float]]] = {}

    def record(node: int, t: float):
        hist_times[node].append(t)
        hist_values[node].append(states[node].l_base)
        hist_factors[node].append(factor_of(states[node]))

    # Local aliases, taken per run so that rebinding the module names
    # (as the benchmark's tracer does) still takes effect.
    emit, receive, factor_of = emit_payload, on_receive, rate_factor
    log = event_log.append
    process_on_start = config.process_on_start

    for i in sorted(config.initiators):
        on_start(states[i], 0.0)
        start_times[i] = 0.0
        record(i, 0.0)

    times, srcs, dsts = setup.schedule.events()
    h_srcs = _hardware_times(clocks, times, srcs)
    h_dsts = _hardware_times(clocks, times, dsts)
    for t, src, dst, h_src, h_dst in _rows(times, srcs, dsts, h_srcs, h_dsts):
        payload = emit(states[src], h_src)
        if payload is None:
            log(TraceEvent(t, t, src, dst, None, False, 0.0))
            continue
        state = states[dst]
        started_now = not state.started
        if started_now:
            on_start(state, h_dst)
            start_times[dst] = t
            record(dst, t)
            apply_step2 = process_on_start
        else:
            apply_step2 = True
        level_before = state.l_base + factor_of(state) * (h_dst - state.h_base)
        old_factor = state.rate_factors[src]
        receive(state, params, src, payload, h_dst, apply_step2=apply_step2)
        jump = 0.0
        if apply_step2:
            jump = state.l_base - level_before
            record(dst, t)
            new_factor = state.rate_factors[src]
            if new_factor != old_factor:
                key = (dst, src)
                if new_factor < 1.0:
                    reduced_open[key] = t
                else:
                    opened = reduced_open.pop(key)
                    reduced_done.setdefault(key, []).append((opened, t))
        log(TraceEvent(t, t, src, dst, payload.value, started_now, jump))

    for key, opened in sorted(reduced_open.items()):
        reduced_done.setdefault(key, []).append((opened, horizon))

    grid = sample_grid(times, clocks, horizon)
    history = tuple(
        NodeHistory(times=np.array(ht), values=np.array(hv), factors=np.array(hf))
        for ht, hv, hf in zip(hist_times, hist_values, hist_factors)
    )
    logical, alphas = sample_history(history, clocks, grid)
    rates = np.empty_like(alphas)
    for i, clock in enumerate(clocks):
        np.multiply(alphas[i], clock.rate_at(grid, side="right"), out=rates[i])
    rates[:, -1] = np.nan

    return Trace(
        config=config,
        topology=topology,
        diameter_bound=setup.diameter_bound,
        effective_skew_threshold=params.skew_threshold,
        horizon=horizon,
        sample_times=grid,
        logical=logical,
        rates=rates,
        alphas=alphas,
        start_times=start_times,
        events=tuple(event_log),
        reduced_intervals={k: tuple(iv) for k, iv in sorted(reduced_done.items())},
        clocks=clocks,
        history=history,
    )


def _topology_to_dict(spec: TopologySpec) -> dict:
    out = {"kind": spec.kind}
    for name in ("n", "rows", "cols", "radius", "seed"):
        value = getattr(spec, name)
        if value is not None:
            out[name] = value
    if spec.kind == "random_geometric":
        out["retries"] = spec.retries
    if spec.edges is not None:
        out["edges"] = [list(e) for e in spec.edges]
    return out


def config_to_dict(config: RunConfig) -> dict:
    scripted = None
    if config.scripted_sends is not None:
        scripted = {
            f"{src}->{dst}": list(times)
            for (src, dst), times in sorted(config.scripted_sends.items())
        }
    return {
        "topology": _topology_to_dict(config.topology),
        "drift_bound": config.drift_bound,
        "max_gap": config.max_gap,
        "skew_threshold": config.skew_threshold,
        "diameter_bound": config.diameter_bound,
        "horizon": config.horizon,
        "initiators": list(config.initiators),
        "drift": {
            "mode": config.drift_mode,
            "dwell": config.drift_dwell,
            "value": config.drift_value,
            "signs": list(config.drift_signs) if config.drift_signs else None,
        },
        "schedule": {
            "mode": config.schedule_mode,
            "gap_min": config.gap_min,
            "scripted": scripted,
        },
        "variant": config.variant,
        "seed": config.seed,
        "process_on_start": config.process_on_start,
        "label": config.label,
    }


_CONFIG_FIELDS = (
    "topology", "drift_bound", "max_gap", "skew_threshold", "diameter_bound", "horizon",
    "initiators", "drift", "schedule", "variant", "seed", "process_on_start", "label",
)
_TOPOLOGY_FIELDS = ("kind", "n", "rows", "cols", "radius", "seed", "retries", "edges")
_DRIFT_FIELDS = ("mode", "dwell", "value", "signs")
_SCHEDULE_FIELDS = ("mode", "gap_min", "scripted")


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


def _text(value, name: str, problems: list) -> str | None:
    if isinstance(value, str):
        return value
    problems.append(f"{name} must be a string, got {value!r}")
    return None


def _scripted(value, name: str, problems: list) -> dict | None:
    if not isinstance(value, dict):
        problems.append(f"{name} must be an object, got {value!r}")
        return None
    sends = {}
    for key, times in value.items():
        src, sep, dst = str(key).partition("->")
        if sep and src.isdigit() and dst.isdigit():
            sends[(int(src), int(dst))] = _numbers(times, f"{name}[{key!r}]", problems)
        else:
            problems.append(f"{name} key must read 'src->dst', got {key!r}")
    return sends


def config_from_dict(data: dict) -> RunConfig:
    """Parse a config document; raises ConfigError naming every bad field.

    Unknown fields, non-integral counts, non-numeric numbers and
    non-boolean flags are refused rather than reinterpreted. Value ranges
    are checked later, by validate_config.
    """
    if not isinstance(data, dict):
        raise ConfigError([f"config must be an object, got {data!r}"])
    problems: list[str] = []
    problems.extend(f"unknown field {key!r}" for key in data if key not in _CONFIG_FIELDS)
    sections = {"": data}
    for name, known in (
        ("topology", _TOPOLOGY_FIELDS),
        ("drift", _DRIFT_FIELDS),
        ("schedule", _SCHEDULE_FIELDS),
    ):
        section = data.get(name, {})
        if not isinstance(section, dict):
            problems.append(f"{name} must be an object, got {section!r}")
            section = {}
        problems.extend(f"unknown field '{name}.{key}'" for key in section if key not in known)
        sections[name] = section
    missing = [k for k in ("topology", "drift_bound", "max_gap", "skew_threshold") if k not in data]
    if isinstance(data.get("topology"), dict) and "kind" not in data["topology"]:
        missing.append("topology.kind")
    problems.extend(f"malformed config: missing required field {k!r}" for k in missing)
    process_on_start = data.get("process_on_start", True)
    if not isinstance(process_on_start, bool):
        problems.append(f"process_on_start must be true or false, got {process_on_start!r}")

    def read(name: str, parse, default=None):
        section, _, key = name.rpartition(".")
        value = sections[section].get(key)
        return default if value is None else parse(value, name, problems)

    config = RunConfig(
        topology=TopologySpec(
            kind=read("topology.kind", _text),
            n=read("topology.n", as_integer),
            rows=read("topology.rows", as_integer),
            cols=read("topology.cols", as_integer),
            radius=read("topology.radius", as_number),
            seed=read("topology.seed", as_integer),
            retries=read("topology.retries", as_integer, 50),
            edges=read("topology.edges", _list_of(_edge)),
        ),
        drift_bound=read("drift_bound", as_number),
        max_gap=read("max_gap", as_number),
        skew_threshold=read("skew_threshold", as_number),
        diameter_bound=read("diameter_bound", as_integer),
        horizon=read("horizon", as_number),
        initiators=read("initiators", _integers, (0,)),
        drift_mode=read("drift.mode", _text, "constant"),
        drift_dwell=read("drift.dwell", as_number, 1.0),
        drift_value=read("drift.value", as_number, 0.0),
        drift_signs=read("drift.signs", _integers),
        schedule_mode=read("schedule.mode", _text, "periodic"),
        gap_min=read("schedule.gap_min", as_number),
        scripted_sends=read("schedule.scripted", _scripted),
        variant=read("variant", _text, "gradient"),
        seed=read("seed", as_integer, 0),
        process_on_start=process_on_start,
        label=read("label", _text, ""),
    )
    if problems:
        raise ConfigError(problems)
    return config
