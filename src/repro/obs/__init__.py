"""Observability: tracing spans, counters, and exporters.

Usage pattern (the whole pipeline is instrumented with this API)::

    from repro.obs import trace, counters

    with trace.span("cse", category="compiler.pass") as sp:
        ...
        sp.set(removed=n_removed)
    counters.incr("compiler.cse.hits")

Collection is **off by default** — both calls are no-ops until
:func:`enable` (or :func:`enabled_scope`) turns the process-global
collector on, so instrumented hot paths cost nothing in normal runs.

Counters are series of the collector's labeled registry
(:mod:`repro.obs.fleet`, the one metric store), which is also the
active fleet registry while observing, so SLO series (per
app/executor/session/stage counters and quantile-sketch latencies)
land beside them.  ``fleet.enable()`` / ``fleet.fleet_scope`` activate
a registry for SLO series alone::

    from repro.obs import fleet

    with fleet.fleet_scope() as reg, fleet.label_scope(app="MobileRobot"):
        reg.incr(fleet.M_SOLVE_TOTAL, executor="fused")
        reg.observe(fleet.M_SOLVE_LATENCY, 0.0123, executor="fused")
    section = reg.snapshot()   # embeddable, mergeable, exportable

Exporters turn a drained :class:`Snapshot` into artifacts:

- :func:`repro.obs.trace_export.write_chrome_trace` — Chrome/Perfetto
  ``trace_event`` JSON (open in https://ui.perfetto.dev or
  ``chrome://tracing``), one track per accelerator unit instance plus
  host-side optimizer/compiler span tracks.
- :func:`repro.obs.metrics.write_metrics` — flat metrics JSON (cycles,
  energy breakdown, per-pass timings, stall counters, the registry).

``python -m repro.obs report metrics.json`` prints a profile summary.
"""

from repro.obs import fleet
from repro.obs.core import (
    Collector,
    Snapshot,
    SpanRecord,
    collector,
    counters,
    debug_enabled,
    disable,
    enable,
    enabled_scope,
    is_enabled,
    trace,
)

__all__ = [
    "Collector", "Snapshot", "SpanRecord", "collector", "counters",
    "debug_enabled", "disable", "enable", "enabled_scope", "fleet",
    "is_enabled", "trace",
]
