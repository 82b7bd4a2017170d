"""First-divergence forensics over value traces.

``python -m repro.obs divergence A.trace B.trace`` aligns two
:mod:`repro.obs.vtrace` streams and answers the question the diff
harness could not: **which instruction** first disagreed, and what was
upstream of it.  The report carries:

- the diverging instruction's identity (seq, uid, opcode, registers)
  and its provenance (factors, MO-DFG node kind, algorithm stage) —
  straight from the trace, no re-compilation needed;
- abs / rel / **ulp** error statistics for every destination register
  whose full values both traces retained (the ring buffer, or an
  inline ``capture_range``);
- the def-use **backward slice**: the nearest upstream producers of
  the diverging instruction's sources, each annotated with whether its
  own digests still matched — the first mismatching producer is the
  suspect;
- with ``--capture-window N``, both traces' producers are re-executed
  with full-value capture for ``N`` instructions on either side of the
  divergence point, and per-register error magnitudes are rendered
  across the window (only traces recorded by ``repro.obs vtrace``
  carry the producer recipe needed for this).

Alignment is positional (``seq``) by default; ``align="uid"`` matches
records by instruction uid instead, which is what the ``tests/diff``
schedule-replay comparison needs (same instructions, different order).

Exit codes in the CLI: 0 no divergence, 1 divergence found, 2 a trace
is missing/unreadable — mirroring ``repro.obs diff``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.compiler.executor import Executor
from repro.obs.vtrace import (
    VTRACE_SCHEMA,
    decode_value,
    program_fingerprint,
    recording_scope,
)

__all__ = [
    "load_trace", "find_divergence", "error_stats", "backward_slice",
    "render_divergence", "record_app_trace",
    "rerecord_window", "render_capture_window",
]


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------

def load_trace(path) -> Dict[str, Any]:
    """Parse one vtrace JSONL file into header + per-program records."""
    header: Optional[Dict[str, Any]] = None
    programs: List[Dict[str, Any]] = []
    current: Optional[Dict[str, Any]] = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc})") \
                    from None
            kind = record.get("kind")
            if kind == "trace":
                if record.get("schema") != VTRACE_SCHEMA:
                    raise ValueError(
                        f"{path}: schema {record.get('schema')!r}, "
                        f"expected {VTRACE_SCHEMA!r}"
                    )
                header = record
            elif kind == "program":
                current = {"header": record, "records": [], "ring": []}
                programs.append(current)
            elif kind == "instr":
                if current is None:
                    raise ValueError(
                        f"{path}:{lineno}: instr record before any "
                        f"program record"
                    )
                current["records"].append(record)
            elif kind == "end":
                if current is not None:
                    current["ring"] = record.get("ring") or []
                    current["footer"] = record
    if header is None:
        raise ValueError(f"{path}: not a value-trace file "
                         f"(no {VTRACE_SCHEMA!r} header line)")
    return {"path": str(path), "header": header, "programs": programs}


# ----------------------------------------------------------------------
# Error statistics
# ----------------------------------------------------------------------

def _ordered_float_bits(x: np.ndarray) -> np.ndarray:
    """Map float64 bit patterns onto a monotonic uint64 key.

    Adjacent representable doubles map to adjacent keys, so the key
    difference is the ulp distance.
    """
    u = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    sign = u >> np.uint64(63)
    return np.where(sign == 0, u | (np.uint64(1) << np.uint64(63)), ~u)


def ulp_distance(a, b) -> np.ndarray:
    """Element-wise ulp distance between two float64 arrays (as float)."""
    ka = _ordered_float_bits(np.asarray(a, dtype=np.float64))
    kb = _ordered_float_bits(np.asarray(b, dtype=np.float64))
    return np.where(ka > kb, ka - kb, kb - ka).astype(np.float64)


def error_stats(value_a, value_b) -> Dict[str, Any]:
    """abs / rel / ulp error summary between two register images."""
    a = np.asarray(value_a, dtype=float)
    b = np.asarray(value_b, dtype=float)
    if a.shape != b.shape:
        return {"shape_a": list(a.shape), "shape_b": list(b.shape)}
    if a.size == 0:
        return {"elements": 0, "differing": 0,
                "max_abs": 0.0, "max_rel": 0.0, "max_ulp": 0.0}
    both_nan = np.isnan(a) & np.isnan(b)
    diff = np.abs(a - b)
    diff = np.where(both_nan, 0.0, diff)
    denom = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(denom > 0, diff / denom, 0.0)
    ulp = np.where(both_nan, 0.0, ulp_distance(a, b))
    differing = int(np.count_nonzero(~np.isclose(
        a, b, rtol=0.0, atol=0.0, equal_nan=True)))
    return {
        "elements": int(a.size),
        "differing": differing,
        "max_abs": float(np.nanmax(diff)),
        "max_rel": float(np.nanmax(rel)),
        "max_ulp": float(np.max(ulp)),
    }


# ----------------------------------------------------------------------
# Alignment and the first-divergence report
# ----------------------------------------------------------------------

def _records_differ(ra: Dict[str, Any], rb: Dict[str, Any]) -> List[str]:
    """Which identity/digest fields of two aligned records disagree."""
    fields = []
    for field in ("uid", "op", "srcs", "dsts"):
        if ra.get(field) != rb.get(field):
            fields.append(field)
    if ra.get("digests") != rb.get("digests"):
        fields.append("digests")
    return fields


def _ring_values(program: Dict[str, Any]) -> Dict[int, Dict[str, Any]]:
    """seq -> {register: ndarray} of every full value the trace kept."""
    out: Dict[int, Dict[str, Any]] = {}
    for entry in program.get("ring") or []:
        out[int(entry["seq"])] = {
            name: decode_value(enc)
            for name, enc in (entry.get("values") or {}).items()
        }
    for record in program.get("records") or []:
        values = record.get("values")
        if values:
            out.setdefault(int(record["seq"]), {}).update(
                {name: decode_value(enc) for name, enc in values.items()}
            )
    return out


def backward_slice(records: List[Dict[str, Any]],
                   diverging: Dict[str, Any],
                   other_by_uid: Dict[int, Dict[str, Any]],
                   limit: int = 8) -> List[Dict[str, Any]]:
    """The nearest upstream producers of the diverging instruction.

    Breadth-first over register def-use, bounded to ``limit`` records;
    each step carries ``matches`` — whether the producer's own digests
    still agreed with the other trace — so the first ``matches: False``
    entry is the farthest-upstream suspect within the slice.
    """
    producers: Dict[str, Dict[str, Any]] = {}
    for record in records:
        if record["seq"] >= diverging["seq"]:
            break
        for name in record.get("dsts") or []:
            producers[name] = record
    collected: Dict[int, Dict[str, Any]] = {}
    frontier = list(diverging.get("srcs") or [])
    while frontier and len(collected) < limit:
        name = frontier.pop(0)
        record = producers.get(name)
        if record is None or record["uid"] in collected:
            continue
        collected[record["uid"]] = record
        frontier.extend(record.get("srcs") or [])
    out = []
    for record in sorted(collected.values(), key=lambda r: -r["seq"]):
        other = other_by_uid.get(record["uid"])
        out.append({
            "seq": record["seq"],
            "uid": record["uid"],
            "op": record.get("op"),
            "srcs": record.get("srcs") or [],
            "dsts": record.get("dsts") or [],
            "prov": record.get("prov") or {},
            "matches": (other is not None
                        and other.get("digests") == record.get("digests")),
        })
    return out


def find_divergence(trace_a: Dict[str, Any], trace_b: Dict[str, Any],
                    align: str = "seq", slice_limit: int = 8
                    ) -> Optional[Dict[str, Any]]:
    """The first point where two loaded traces disagree, or None.

    ``align="seq"`` compares records positionally (identical execution
    order expected); ``align="uid"`` matches records by instruction uid
    (schedule-replay comparisons: same instructions, any order).  The
    program-fingerprint short-circuit only applies to positional
    alignment — a reordered stream has a different fingerprint by
    construction, and uid alignment exists exactly for that case (a
    uid present in only one trace then surfaces as a length
    divergence).
    """
    if align not in ("seq", "uid"):
        raise ValueError(f"unknown alignment {align!r}: pick seq or uid")
    progs_a = trace_a["programs"]
    progs_b = trace_b["programs"]
    checked = 0
    for index in range(min(len(progs_a), len(progs_b))):
        pa, pb = progs_a[index], progs_b[index]
        fp_a = pa["header"].get("fingerprint")
        fp_b = pb["header"].get("fingerprint")
        if fp_a != fp_b and align == "seq":
            return {"kind": "structure", "program": index,
                    "fingerprint_a": fp_a, "fingerprint_b": fp_b,
                    "instructions_a": pa["header"].get("instructions"),
                    "instructions_b": pb["header"].get("instructions"),
                    "checked": checked}
        ra, rb = pa["records"], pb["records"]
        by_uid_b = {r["uid"]: r for r in rb}
        if align == "uid":
            by_uid_a = {r["uid"]: r for r in ra}
            uids = sorted(set(by_uid_a) | set(by_uid_b))
            pairs = [(by_uid_a.get(u), by_uid_b.get(u)) for u in uids]
        else:
            pairs = [(ra[i] if i < len(ra) else None,
                      rb[i] if i < len(rb) else None)
                     for i in range(max(len(ra), len(rb)))]
        for rec_a, rec_b in pairs:
            if rec_a is None or rec_b is None:
                present = rec_a or rec_b
                return {"kind": "length", "program": index,
                        "records_a": len(ra), "records_b": len(rb),
                        "missing_in": "a" if rec_a is None else "b",
                        "uid": present["uid"], "seq": present["seq"],
                        "checked": checked}
            fields = _records_differ(rec_a, rec_b)
            if not fields:
                checked += 1
                continue
            report: Dict[str, Any] = {
                "kind": "value",
                "program": index,
                "seq": rec_a["seq"],
                "uid": rec_a["uid"],
                "op": rec_a.get("op"),
                "dsts": rec_a.get("dsts") or [],
                "srcs": rec_a.get("srcs") or [],
                "fields": fields,
                "provenance": rec_a.get("prov") or {},
                "digests_a": rec_a.get("digests") or {},
                "digests_b": rec_b.get("digests") or {},
                "checked": checked,
            }
            values_a = _ring_values(pa).get(rec_a["seq"]) or {}
            values_b = _ring_values(pb).get(rec_b["seq"]) or {}
            stats = {
                name: error_stats(values_a[name], values_b[name])
                for name in sorted(set(values_a) & set(values_b))
            }
            report["stats"] = stats or None
            report["slice"] = backward_slice(ra, rec_a, by_uid_b,
                                             limit=slice_limit)
            return report
    if len(progs_a) != len(progs_b):
        return {"kind": "programs",
                "programs_a": len(progs_a), "programs_b": len(progs_b),
                "checked": checked}
    return None


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _render_provenance(prov: Dict[str, Any]) -> str:
    parts = []
    if prov.get("stage"):
        parts.append(f"stage={prov['stage']}")
    if prov.get("node_kind"):
        parts.append(f"node={prov['node_kind']}")
    for fid, ftype in prov.get("factors") or []:
        parts.append(f"factor={fid}({ftype})")
    if prov.get("variables"):
        parts.append(f"vars={','.join(prov['variables'])}")
    if prov.get("origin"):
        parts.append(f"origin={prov['origin']}")
    return " ".join(parts) if parts else "(no provenance)"


def render_divergence(report: Dict[str, Any]) -> str:
    """Human-readable first-divergence report."""
    kind = report["kind"]
    lines: List[str] = []
    if kind == "programs":
        lines.append(
            f"DIVERGED: trace A has {report['programs_a']} program(s), "
            f"trace B has {report['programs_b']} "
            f"({report['checked']} aligned records matched)"
        )
        return "\n".join(lines)
    if kind == "structure":
        lines.append(
            f"DIVERGED: program {report['program']} structure differs "
            f"(fingerprint {report['fingerprint_a']} vs "
            f"{report['fingerprint_b']}; "
            f"{report['instructions_a']} vs {report['instructions_b']} "
            f"instructions) -- the streams are not comparable "
            f"instruction-by-instruction"
        )
        return "\n".join(lines)
    if kind == "length":
        lines.append(
            f"DIVERGED: program {report['program']} record streams end "
            f"unevenly ({report['records_a']} vs {report['records_b']} "
            f"records); first instruction missing in trace "
            f"{report['missing_in'].upper()}: seq {report['seq']} "
            f"uid {report['uid']}"
        )
        return "\n".join(lines)

    lines.append(
        f"DIVERGED at program {report['program']}, seq {report['seq']}, "
        f"instruction #{report['uid']} {report['op']} "
        f"({report['checked']} earlier records matched)"
    )
    lines.append(f"  {', '.join(report['srcs']) or '-'} -> "
                 f"{', '.join(report['dsts']) or '-'}  "
                 f"[differs in: {', '.join(report['fields'])}]")
    lines.append(f"  provenance: "
                 f"{_render_provenance(report.get('provenance') or {})}")
    for name in report["dsts"]:
        da = (report.get("digests_a") or {}).get(name)
        db = (report.get("digests_b") or {}).get(name)
        marker = "  " if da == db else "* "
        lines.append(f"  {marker}{name}: a={da}  b={db}")
    stats = report.get("stats")
    if stats:
        lines.append("  error stats (full values retained by both traces):")
        for name, s in stats.items():
            if "elements" not in s:
                lines.append(f"    {name}: shape {s['shape_a']} vs "
                             f"{s['shape_b']}")
                continue
            lines.append(
                f"    {name}: max abs {s['max_abs']:.3e}  "
                f"max rel {s['max_rel']:.3e}  "
                f"max ulp {s['max_ulp']:.3g}  "
                f"({s['differing']}/{s['elements']} elements differ)"
            )
    else:
        lines.append("  (no full values retained at the divergence point; "
                     "re-run with a larger --ring or use --capture-window)")
    slice_ = report.get("slice") or []
    if slice_:
        lines.append("  backward slice (nearest producers, most recent "
                     "first):")
        for step in slice_:
            verdict = "digests match" if step["matches"] else "DIVERGES"
            lines.append(
                f"    #{step['uid']:>5} {step['op']:<6} "
                f"{', '.join(step['srcs']) or '-'} -> "
                f"{', '.join(step['dsts'])}  [{verdict}]  "
                f"{_render_provenance(step.get('prov') or {})}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Producing traces (the `repro.obs vtrace` subcommand + capture windows)
# ----------------------------------------------------------------------

def record_app_trace(name: str, seed: int, path,
                     ring_size: int = 32,
                     capture_range: Optional[Tuple[int, int]] = None,
                     fault: Optional[Any] = None,
                     executor_name: Optional[str] = None) -> Dict[str, Any]:
    """Compile one application frame and execute it under the tracer.

    ``fault`` is a :class:`~repro.resilience.spec.CampaignSpec` (or its
    dict form) scheduling deterministic value faults, applied by an
    interpreter :class:`Executor` whose run-loop injector is
    :func:`~repro.resilience.faults.fault_injector`: the trace records
    the corrupted digests exactly as a faulty backend would have
    produced them.  The producer recipe (app, seed, fault spec) is
    stored in the trace header, which is what makes
    ``--capture-window`` re-execution possible later.

    ``executor_name`` selects the value-domain backend
    (``"interpreter"``/``"fused"``; default: the process default) —
    recording the same app under both and diffing the traces is the
    fused-backend parity smoke CI runs.  A fault spec always runs on the
    interpreter.
    """
    from repro.apps import all_applications
    from repro.compiler.fused import executor_factory

    apps = {a.name: a for a in all_applications()}
    if name not in apps:
        raise ValueError(f"unknown application {name!r} "
                         f"(known: {', '.join(sorted(apps))})")
    program = apps[name].compile_frame(seed)
    producer: Dict[str, Any] = {"kind": "app", "app": name,
                                "seed": int(seed)}
    plan = None
    if fault is not None:
        from repro.resilience.faults import fault_injector, plan_faults
        from repro.resilience.spec import CampaignSpec

        if isinstance(fault, CampaignSpec):
            spec = fault
        else:
            spec = CampaignSpec.from_dict(
                {k: v for k, v in dict(fault).items() if v is not None}
            )
        producer["fault"] = spec.to_dict()
        plan = plan_faults(program, spec)
        executor = Executor(injector=fault_injector(plan))
    else:
        executor = executor_factory(executor_name)()
    with recording_scope(path, ring_size=ring_size,
                         capture_range=capture_range, producer=producer):
        executor.run(program)
    return {
        "app": name,
        "seed": int(seed),
        "path": str(path),
        "instructions": len(program.instructions),
        "fingerprint": program_fingerprint(program),
        "fault_uids": sorted(plan.events) if plan is not None else [],
    }


def rerecord_window(trace: Dict[str, Any], center_seq: int, window: int,
                    out_path) -> Optional[Dict[int, Dict[str, Any]]]:
    """Re-execute a trace's producer with full capture around one seq.

    Returns ``seq -> (record, {register: ndarray})`` over the captured
    window, or None when the trace does not carry an app producer
    recipe (e.g. it was recorded ad hoc through ``recording_scope``).
    """
    producer = (trace.get("header") or {}).get("producer") or {}
    if producer.get("kind") != "app":
        return None
    lo = max(0, int(center_seq) - int(window))
    hi = int(center_seq) + int(window) + 1
    record_app_trace(producer["app"], producer.get("seed", 0), out_path,
                     ring_size=0, capture_range=(lo, hi),
                     fault=producer.get("fault"))
    loaded = load_trace(out_path)
    out: Dict[int, Dict[str, Any]] = {}
    for program in loaded["programs"]:
        for record in program["records"]:
            values = record.get("values")
            if values:
                out[int(record["seq"])] = {
                    "record": record,
                    "values": {name: decode_value(enc)
                               for name, enc in values.items()},
                }
    return out


def render_capture_window(report: Dict[str, Any],
                          window_a: Dict[int, Dict[str, Any]],
                          window_b: Dict[int, Dict[str, Any]]) -> str:
    """Per-register error magnitudes across a re-captured window."""
    lines = [f"capture window around seq {report['seq']} "
             f"(both producers re-executed with full values):"]
    for seq in sorted(set(window_a) & set(window_b)):
        entry_a, entry_b = window_a[seq], window_b[seq]
        record = entry_a["record"]
        marker = " <- first divergence" if seq == report["seq"] else ""
        cells = []
        for name in record.get("dsts") or []:
            va = entry_a["values"].get(name)
            vb = entry_b["values"].get(name)
            if va is None or vb is None:
                continue
            s = error_stats(va, vb)
            if "elements" not in s:
                cells.append(f"{name}: shape differs")
            elif s["differing"] == 0:
                cells.append(f"{name}: identical")
            else:
                cells.append(f"{name}: max abs {s['max_abs']:.3e} "
                             f"ulp {s['max_ulp']:.3g}")
        lines.append(
            f"  seq {seq:>6} #{record['uid']:>5} "
            f"{record.get('op', '?'):<6} {'  '.join(cells)}{marker}"
        )
    if len(lines) == 1:
        lines.append("  (no overlapping captured records)")
    return "\n".join(lines)
