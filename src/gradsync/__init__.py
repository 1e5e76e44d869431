"""gradsync: deterministic simulation of gradient clock synchronization.

A library for studying a logical-clock protocol on sensor-network graphs:
hardware clocks drift within a bound, nodes piggyback their clock value on
application messages, slow themselves against neighbors they lead by a
threshold, and advance toward neighbors they trail. The engine reproduces
worst-case skew scenarios; the metrics layer checks the analytic bounds.
"""

from .clocks import DriftSchedule, HardwareClock, make_drift_schedule
from .engine import (
    CommSchedule,
    ConfigError,
    RunConfig,
    Setup,
    TopologySpec,
    build_wait_chain_scenario,
    config_from_dict,
    config_to_dict,
    generate_schedule,
    resolve,
    run,
    validate_config,
    wait_chain_length,
)
from .metrics import (
    BoundVerdict,
    EventLog,
    GlobalSkew,
    ReducedRateStats,
    SkewReport,
    Trace,
    TraceEvent,
    bound_checks,
    compute_report,
    global_skew,
    gradient_profile,
    per_edge_max_skew,
    rate_floor,
    reduced_rate_stats,
    summary_json_text,
    trace_csv_text,
)
from .oracle import Comparison, OracleRun, compare, oracle_run
from .presets import PRESETS, preset
from .protocol import (
    NodeState,
    ProtocolError,
    ProtocolParams,
    SyncPayload,
    emit_payload,
    fresh_state,
    logical_time,
    on_receive,
    on_start,
    rate_factor,
)
from .topology import (
    Topology,
    TopologyError,
    all_pairs_distances,
    chain,
    from_edges,
    grid,
    random_geometric,
    ring,
)

__version__ = "0.1.0"
