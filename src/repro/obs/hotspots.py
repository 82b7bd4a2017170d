"""Host wall-clock hotspot rendering: ``python -m repro.obs hotspots``.

Reads a **metrics** document (``repro.obs.metrics/1``) from ``python -m
repro.eval --metrics``: the ``host.phase`` span timers in each entry's
``span_timings_s`` and any ``host_wallclock`` profiler snapshot an
entry carries.

Renders the per-opcode self-time ranking (calls, total ms, ns/call,
elements), the opcode x provenance-stage cross table, and the host
phase timers (build / compile / refresh / rebind / execute / simulate).
The per-opcode tables fill only from a snapshot of an executor run
under :func:`repro.obs.wallclock.profiled_scope`; no command-line tool
writes one into a metrics document, so they are empty today and the
view says so.  A
**BENCH** document (``repro.bench/1``) carries model outputs only and
renders the same no-data pointer, so older documents stay readable.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.obs.metrics import SCHEMA as METRICS_SCHEMA
from repro.obs.wallclock import merge_snapshots

# Inlined (must match repro.bench.core.BENCH_SCHEMA): importing the
# bench package would drag the application suite into a pure renderer.
BENCH_SCHEMA = "repro.bench/1"

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


def _collect(document: Dict[str, Any]
             ) -> Tuple[Dict[str, Any], Dict[str, float]]:
    """(merged per-opcode profile, host phase seconds)."""
    schema = document.get("schema")
    snapshots: List[Dict[str, Any]] = []
    phases: Dict[str, float] = {}
    if schema == METRICS_SCHEMA:
        for entry in document.get("experiments", []):
            snap = entry.get("host_wallclock")
            if snap:
                snapshots.append(snap)
            for name, seconds in (entry.get("span_timings_s") or {}).items():
                phases[name] = phases.get(name, 0.0) + float(seconds)
    elif schema != BENCH_SCHEMA:
        raise ValueError(
            f"unsupported schema {schema!r}: expected "
            f"{METRICS_SCHEMA!r} or {BENCH_SCHEMA!r}"
        )
    return merge_snapshots(snapshots), phases


def hotspots_payload(document: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-ready host wall-clock profile (the ``--json`` sink)."""
    profile, phases = _collect(document)
    return {
        "schema": "repro.obs.hotspots/1",
        "profile": profile,
        "phase_timings_s": phases,
    }


def render_hotspots(document: Dict[str, Any], top: int = 10) -> str:
    """Render the host wall-clock hotspot view of one document."""
    profile, phases = _collect(document)
    lines: List[str] = []

    total_ns = int(profile.get("total_self_ns", 0))
    by_opcode = profile.get("by_opcode") or {}
    lines.append(f"opcode self time (top {top})")
    lines.append("----------------------------")
    if by_opcode:
        ranked = sorted(by_opcode.items(),
                        key=lambda kv: -kv[1]["self_ns"])[:top]
        for op, cell in ranked:
            ns = int(cell["self_ns"])
            calls = int(cell["calls"])
            share = ns / total_ns if total_ns else 0.0
            per_call = ns / calls if calls else 0.0
            lines.append(
                f"  {op:<7} {ns / 1e6:10.2f} ms ({share:6.1%})  "
                f"{calls:>9,} calls  {per_call:>9,.0f} ns/call  "
                f"{int(cell['elements']):>10,} elements"
            )
        lines.append(f"  total   {total_ns / 1e6:10.2f} ms over "
                     f"{int(profile.get('instructions', 0)):,} "
                     f"instructions "
                     f"({int(profile.get('programs', 0))} programs)")
    else:
        lines.extend((
            "  (no per-opcode profile recorded: only an executor run under",
            "   repro.obs.wallclock.profiled_scope records one, and no",
            "   command-line tool writes its snapshot into a metrics",
            "   document)",
        ))

    stage_rows: List[Tuple[str, str, Dict[str, Any]]] = []
    for op, stages in (profile.get("by_opcode_stage") or {}).items():
        for stage, cell in stages.items():
            stage_rows.append((op, stage, cell))
    if stage_rows:
        lines.append("")
        lines.append(f"opcode x stage self time (top {top})")
        lines.append("------------------------------------")
        stage_rows.sort(key=lambda row: -row[2]["self_ns"])
        for op, stage, cell in stage_rows[:top]:
            ns = int(cell["self_ns"])
            share = ns / total_ns if total_ns else 0.0
            lines.append(
                f"  {op:<7} {stage:<20} {ns / 1e6:10.2f} ms "
                f"({share:6.1%})  {int(cell['calls']):>9,} calls"
            )

    lines.append("")
    lines.append("host phase timers")
    lines.append("-----------------")
    any_phase = False
    for span, label in PHASE_SPANS:
        seconds = phases.get(span)
        if seconds is None:
            continue
        any_phase = True
        lines.append(f"  {label:<22} {seconds * 1e3:10.2f} ms")
    if not any_phase:
        lines.append("  (no host.phase spans in this document)")
    return "\n".join(lines)
