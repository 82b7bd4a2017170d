"""Host phase timers: ``python -m repro.obs hotspots``.

Reads a **metrics** document (``repro.obs.metrics/1``) from ``python -m
repro.eval --metrics`` and renders the ``host.phase`` span timers in
its entries' ``span_timings_s`` (build / compile / codegen / solve
compile or refresh / rebind / execute / simulate), summed over the
experiments.  A **BENCH** document (``repro.bench/1``) carries model
outputs only and renders the empty table, so older documents stay
readable.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.metrics import BENCH_SCHEMA, SCHEMA as METRICS_SCHEMA

# Span names that make up the host phase-timer table, in pipeline order.
PHASE_SPANS = (
    ("frame.build", "build"),
    ("compile_application", "compile"),
    ("codegen", "codegen"),
    ("solve.compile", "solve compile/refresh"),
    ("compiler.cache.rebind", "rebind"),
    ("solve.execute", "execute"),
    ("simulate", "simulate"),
)


def _phases(document: Dict[str, Any]) -> Dict[str, float]:
    """Host phase seconds per span name, summed over the experiments."""
    schema = document.get("schema")
    phases: Dict[str, float] = {}
    if schema == METRICS_SCHEMA:
        for entry in document.get("experiments", []):
            for name, seconds in (entry.get("span_timings_s") or {}).items():
                phases[name] = phases.get(name, 0.0) + float(seconds)
    elif schema != BENCH_SCHEMA:
        raise ValueError(
            f"unsupported schema {schema!r}: expected "
            f"{METRICS_SCHEMA!r} or {BENCH_SCHEMA!r}"
        )
    return phases


def hotspots_payload(document: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-ready host phase timers (the ``--json`` sink)."""
    return {
        "schema": "repro.obs.hotspots/1",
        "phase_timings_s": _phases(document),
    }


def render_hotspots(document: Dict[str, Any]) -> str:
    """Render the host phase-timer table of one document."""
    phases = _phases(document)
    lines: List[str] = ["host phase timers", "-----------------"]
    for span, label in PHASE_SPANS:
        seconds = phases.get(span)
        if seconds is not None:
            lines.append(f"  {label:<22} {seconds * 1e3:10.2f} ms")
    if len(lines) == 2:
        lines.append("  (no host.phase spans in this document)")
    return "\n".join(lines)
