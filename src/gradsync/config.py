"""Run configuration: the schema, its document form, and the rules decided
from a config alone.

A RunConfig holds everything a run depends on, its topology as a
declarative TopologySpec, so two equal configs replay identically. Each
node is told an upper bound on the diameter (diameter_bound), and the
application traffic the payloads ride on is described by the schedule
fields (schedule.py builds it). config_to_dict and config_from_dict write
and read the config as a JSON document, one entry of _FIELDS per field.

The rules here need no topology, or only a few of its numbers:
config_violations reads the fields alone, default_horizon the diameter and
workload_violations the node and edge counts. The rules that need the built
topology are engine.validate_config's.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace

from . import topology as topo_mod
from .clocks import DRIFT_MODES
from .protocol import VARIANTS
from .topology import WORKLOAD_CAP

__all__ = [
    "TopologySpec",
    "RunConfig",
    "ConfigError",
    "SCHEDULE_MODES",
    "build_wait_chain_scenario",
    "is_wait_chain",
    "wait_chain_length",
    "config_to_dict",
    "config_from_dict",
    "config_violations",
    "default_horizon",
    "workload_violations",
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


def config_violations(config: RunConfig) -> list[str]:
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
    if not config.initiators:
        v.append("initiators must be nonempty")
    elif len(set(config.initiators)) != len(config.initiators):
        v.append(f"duplicate initiators: {config.initiators}")
    if config.drift_signs is not None and any(s not in (-1, 1) for s in config.drift_signs):
        v.append(f"drift_signs must be +1 or -1, got {config.drift_signs}")
    if config.schedule_mode == "scripted" and config.scripted_sends is None:
        v.append("scripted schedule mode needs scripted_sends")
    return v


def default_horizon(config: RunConfig, topology: "topo_mod.Topology") -> float:
    """The config's horizon, by default 4 * diameter * max_gap on topology."""
    if config.horizon is None:
        return 4.0 * topology.diameter * config.max_gap
    return config.horizon


def workload_violations(
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
