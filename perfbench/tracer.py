"""Timing wrappers installed at the module bindings a CLI op calls.

Coarse calls (a run, a report, a renderer, a topology build) become spans:
name, start, end, parent and op id, kept in memory. Per-event calls (the
protocol rules, hardware-clock evaluation) are far too frequent for spans,
so each keeps one call count and one total time per op instead.

A span's self time is its duration minus the time covered by its child
spans and by the outermost per-event calls made inside it. Per-event times
are inclusive: ``rate_factor`` called from ``on_receive`` counts in both.

Nothing under ``src/`` is changed: the wrappers replace attributes of the
imported modules and classes, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
from time import perf_counter

# (owner, attribute, span name); the owner is resolved against the
# gradsync package when the tracer is installed.
SPANS = (
    ("cli", "run", "engine.run"),
    ("cli", "validate_config", "engine.validate_config"),
    ("cli", "compute_report", "metrics.compute_report"),
    ("cli", "summary_json_text", "metrics.summary_json_text"),
    ("cli", "trace_csv_text", "metrics.trace_csv_text"),
    ("metrics", "global_skew", "metrics.global_skew"),
    ("metrics", "per_edge_max_skew", "metrics.per_edge_max_skew"),
    ("metrics", "gradient_profile", "metrics.gradient_profile"),
    ("engine", "generate_schedule", "engine.generate_schedule"),
    ("engine.CommSchedule", "events", "engine.order"),
    ("engine.TopologySpec", "build", "topology.build"),
)

COUNTED = (
    ("engine", "on_receive", "protocol.on_receive"),
    ("engine", "emit_payload", "protocol.emit_payload"),
    ("engine", "rate_factor", "protocol.rate_factor"),
    ("protocol", "rate_factor", "protocol.rate_factor"),
    ("engine", "make_drift_schedule", "clocks.make_drift_schedule"),
    ("clocks.HardwareClock", "hardware_time", "clocks.hardware_time"),
)


def _resolve(package, owner: str):
    module_name, _, class_name = owner.partition(".")
    target = getattr(package, module_name)
    return getattr(target, class_name) if class_name else target


class Tracer:
    """Spans and per-op counters for the ops run while it is installed."""

    def __init__(self):
        # span record: [name, start, end, parent index or None, op id, child seconds]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._depth = 0
        self.counters: dict[str, list] = {}
        self.op_counters: dict[int, dict[str, tuple[int, float]]] = {}
        self.op_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def wrap_span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            record = [name, perf_counter(), 0.0, parent, tracer.op_id, 0.0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    tracer.spans[parent][5] += record[2] - record[1]

        return spanned

    def wrap_counted(self, name: str, fn):
        tracer = self
        counter = self.counters.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer._depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._depth -= 1
                counter[0] += 1
                counter[1] += elapsed
                if tracer._depth == 0 and tracer._stack:
                    tracer.spans[tracer._stack[-1]][5] += elapsed

        return counted

    def install(self, package) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name in SPANS:
            self._patch(_resolve(package, owner), attr, functools.partial(self.wrap_span, name))
        for owner, attr, name in COUNTED:
            self._patch(_resolve(package, owner), attr, functools.partial(self.wrap_counted, name))

    def _patch(self, target, attr: str, wrap) -> None:
        original = target.__dict__[attr]
        self._saved.append((target, attr, original))
        setattr(target, attr, wrap(original))

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        for counter in self.counters.values():
            counter[0] = 0
            counter[1] = 0.0

    def end_op(self) -> None:
        self.op_counters[self.op_id] = {
            name: (calls, total) for name, (calls, total) in self.counters.items()
        }

    def op_spans(self, op_id: int) -> list[dict]:
        return [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "op": op,
                "self_s": (end - start) - child,
            }
            for name, start, end, parent, op, child in self.spans
            if op == op_id
        ]

