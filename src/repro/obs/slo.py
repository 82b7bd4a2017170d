"""SLO evaluation over fleet telemetry sections.

Consumes the ``fleet.solve.*`` metric family (see
:mod:`repro.obs.fleet` for who records what) and reports, per
``app x executor`` group:

- **deadline hit-rate** — armed :class:`~repro.optim.safeguards.
  DeadlineGuard` outcomes (``deadline_hit`` / ``deadline_miss``);
  groups that never armed a deadline have no rate and pass vacuously;
- **degradation rate** — solves whose supervisor degradation report
  carried events (retries, demotions, evictions), from
  ``fleet.solve.degraded``;
- **wrong / crash rate** — oracle-scored failures recorded by the
  campaigns (``fleet.solve.wrong`` / ``fleet.solve.crash``);
- **p50/p95/p99 solve latency** from the quantile sketch — host
  wall-clock (``fleet.solve.latency_s``) when present, else simulated
  time (``fleet.solve.sim_latency_s``).

``evaluate_slo`` checks each group against the targets; ``python -m
repro.obs slo <document>`` renders the table and exits 1 on any breach.
Documents: a campaign or chaos BENCH JSON with a ``fleet`` section, or
a metrics JSON whose experiments carry ``fleet`` sections (merged
across experiments).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.fleet import (
    M_SOLVE_CRASH,
    M_SOLVE_DEADLINE_HIT,
    M_SOLVE_DEADLINE_MISS,
    M_SOLVE_DEGRADED,
    M_SOLVE_LATENCY,
    M_SOLVE_SIM_LATENCY,
    M_SOLVE_TOTAL,
    M_SOLVE_WRONG,
    FleetRegistry,
    QuantileSketch,
)

__all__ = [
    "DEFAULT_TARGETS",
    "collect_fleet",
    "evaluate_slo",
    "parse_target",
    "render_slo",
    "slo_payload",
]

# The default acceptance bar: clean same-seed campaigns must pass
# (verified by the CI fleet-smoke job).  Latency targets default off —
# they are deployment-specific, set them with --target.
DEFAULT_TARGETS: Dict[str, Optional[float]] = {
    "min_deadline_hit_rate": 0.99,
    "max_degraded_rate": 0.05,
    "max_wrong_rate": 0.0,
    "max_crash_rate": 0.0,
    "max_p99_s": None,
}


def parse_target(text: str) -> Tuple[str, Optional[float]]:
    """Parse one ``name=value`` CLI override (``value`` may be none)."""
    name, sep, value = text.partition("=")
    name = name.strip()
    if not sep or name not in DEFAULT_TARGETS:
        known = ", ".join(sorted(DEFAULT_TARGETS))
        raise ValueError(
            f"bad target {text!r}; expected name=value with name one of: "
            f"{known}")
    value = value.strip()
    if value.lower() in ("none", "off", ""):
        return name, None
    try:
        return name, float(value)
    except ValueError:
        raise ValueError(f"bad target value in {text!r}")


def collect_fleet(document: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The (merged) fleet section of a BENCH or metrics document.

    BENCH-schema documents carry one ``fleet`` section; metrics
    documents carry one per experiment entry, merged here.  Returns
    None when the document has no fleet telemetry at all.
    """
    section = document.get("fleet")
    if section is not None:
        return section
    experiments = document.get("experiments")
    if not experiments:
        return None
    registry = None
    for entry in experiments:
        part = entry.get("fleet")
        if not part:
            continue
        if registry is None:
            registry = FleetRegistry(
                alpha=float(part.get("alpha", 0.01)))
        registry.merge(part)
    return registry.snapshot() if registry is not None else None


def _group_key(labels: Dict[str, str]) -> Tuple[str, str]:
    return labels.get("app", "-"), labels.get("executor", "-")


def _rate(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def evaluate_slo(section: Dict[str, Any],
                 targets: Optional[Dict[str, Optional[float]]] = None
                 ) -> Dict[str, Any]:
    """Aggregate the SLO family per app x executor and judge targets.

    Series with extra labels (``stage``, ``session``) fold into their
    ``(app, executor)`` group: counters sum, sketches merge.
    """
    resolved = dict(DEFAULT_TARGETS)
    if targets:
        resolved.update(targets)

    counts: Dict[Tuple[str, str], Dict[str, float]] = {}
    sketches: Dict[Tuple[str, str], Dict[str, QuantileSketch]] = {}
    counter_names = {
        M_SOLVE_TOTAL: "total",
        M_SOLVE_DEADLINE_HIT: "deadline_hit",
        M_SOLVE_DEADLINE_MISS: "deadline_miss",
        M_SOLVE_DEGRADED: "degraded",
        M_SOLVE_WRONG: "wrong",
        M_SOLVE_CRASH: "crash",
    }
    for entry in section.get("series", []):
        name = entry["name"]
        group = _group_key(entry.get("labels", {}))
        if name in counter_names:
            bucket = counts.setdefault(group, {})
            field = counter_names[name]
            bucket[field] = bucket.get(field, 0.0) + float(entry["value"])
        elif name in (M_SOLVE_LATENCY, M_SOLVE_SIM_LATENCY):
            merged = sketches.setdefault(group, {})
            sketch = merged.get(name)
            incoming = QuantileSketch.from_dict(entry["sketch"])
            if sketch is None:
                merged[name] = incoming
            else:
                sketch.merge(incoming)

    rows: List[Dict[str, Any]] = []
    breaches: List[Dict[str, Any]] = []
    for group in sorted(set(counts) | set(sketches)):
        app, executor = group
        bucket = counts.get(group, {})
        total = bucket.get("total", 0.0)
        hits = bucket.get("deadline_hit", 0.0)
        misses = bucket.get("deadline_miss", 0.0)
        latency = sketches.get(group, {}).get(M_SOLVE_LATENCY)
        latency_unit = "seconds"
        if latency is None:
            latency = sketches.get(group, {}).get(M_SOLVE_SIM_LATENCY)
            latency_unit = "sim_seconds"
        row: Dict[str, Any] = {
            "app": app,
            "executor": executor,
            "solves": total,
            "deadline_hit_rate": _rate(hits, hits + misses),
            "degraded_rate": _rate(bucket.get("degraded", 0.0), total),
            "wrong_rate": _rate(bucket.get("wrong", 0.0), total),
            "crash_rate": _rate(bucket.get("crash", 0.0), total),
            "latency_unit": latency_unit if latency is not None else None,
            "p50_s": latency.quantile(0.50) if latency else None,
            "p95_s": latency.quantile(0.95) if latency else None,
            "p99_s": latency.quantile(0.99) if latency else None,
        }
        row["breaches"] = _judge(row, resolved)
        rows.append(row)
        for breach in row["breaches"]:
            breaches.append({"app": app, "executor": executor, **breach})

    return {
        "schema": "repro.obs.slo/1",
        "targets": resolved,
        "rows": rows,
        "breaches": breaches,
        "passed": not breaches,
    }


def _judge(row: Dict[str, Any],
           targets: Dict[str, Optional[float]]) -> List[Dict[str, Any]]:
    """Target violations for one group; absent rates pass vacuously."""
    checks = (
        ("min_deadline_hit_rate", "deadline_hit_rate", "min"),
        ("max_degraded_rate", "degraded_rate", "max"),
        ("max_wrong_rate", "wrong_rate", "max"),
        ("max_crash_rate", "crash_rate", "max"),
        ("max_p99_s", "p99_s", "max"),
    )
    breaches = []
    for target_name, field, sense in checks:
        target = targets.get(target_name)
        value = row.get(field)
        if target is None or value is None:
            continue
        failed = value < target if sense == "min" else value > target
        if failed:
            breaches.append({"target": target_name, "metric": field,
                             "value": value, "limit": target})
    return breaches


def _fmt_rate(value: Optional[float]) -> str:
    return "    -" if value is None else f"{value:5.1%}"


def _fmt_latency(value: Optional[float]) -> str:
    if value is None:
        return "       -"
    if value >= 1.0:
        return f"{value:7.3f}s"
    return f"{value * 1e3:6.2f}ms"


def render_slo(result: Dict[str, Any]) -> str:
    """Human-readable SLO table + verdict line."""
    lines = [
        "SLO per app x executor",
        f"{'app':<14} {'executor':<12} {'solves':>6} {'dl-hit':>6} "
        f"{'degr':>6} {'wrong':>6} {'crash':>6} "
        f"{'p50':>8} {'p95':>8} {'p99':>8}  unit",
    ]
    for row in result["rows"]:
        marker = "!" if row["breaches"] else " "
        lines.append(
            f"{marker}{row['app']:<13} {row['executor']:<12} "
            f"{int(row['solves']):>6} "
            f"{_fmt_rate(row['deadline_hit_rate'])} "
            f"{_fmt_rate(row['degraded_rate'])} "
            f"{_fmt_rate(row['wrong_rate'])} "
            f"{_fmt_rate(row['crash_rate'])} "
            f"{_fmt_latency(row['p50_s'])} "
            f"{_fmt_latency(row['p95_s'])} "
            f"{_fmt_latency(row['p99_s'])}  "
            f"{row['latency_unit'] or '-'}"
        )
    targets = ", ".join(
        f"{name}={value}" for name, value in
        sorted(result["targets"].items()) if value is not None)
    lines.append(f"targets: {targets}")
    if result["breaches"]:
        lines.append(f"FAIL: {len(result['breaches'])} SLO breach(es)")
        for breach in result["breaches"]:
            lines.append(
                f"  {breach['app']}/{breach['executor']}: "
                f"{breach['metric']}={breach['value']:.4g} violates "
                f"{breach['target']}={breach['limit']:.4g}")
    else:
        lines.append("OK: all SLO targets met")
    return "\n".join(lines)


def slo_payload(result: Dict[str, Any]) -> Dict[str, Any]:
    """The machine-readable artifact for ``--json`` (already plain)."""
    return json.loads(json.dumps(result))


# ----------------------------------------------------------------------
# Fleet summary ("top")
# ----------------------------------------------------------------------

def _label_text(labels: Dict[str, str]) -> str:
    if not labels:
        return "-"
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def render_top(section: Dict[str, Any], top: int = 10) -> str:
    """Fleet summary: top counters by value, per-series percentiles."""
    counters = [e for e in section.get("series", [])
                if e.get("kind") == "counter"]
    histograms = [e for e in section.get("series", [])
                  if e.get("kind") == "histogram"]
    windows = section.get("windows", [])

    lines: List[str] = [
        f"fleet summary: {len(counters)} counter series, "
        f"{len(histograms)} histogram series, {len(windows)} window(s)",
        "",
        f"top counters by value (top {top})",
        "-------------------------------",
    ]
    ranked = sorted(counters, key=lambda e: (-float(e["value"]),
                                             e["name"],
                                             _label_text(e["labels"])))
    for entry in ranked[:top]:
        lines.append(f"  {entry['name']:<30} "
                     f"{_label_text(entry.get('labels', {})):<40} "
                     f"{float(entry['value']):>12,.6g}")
    if not ranked:
        lines.append("  (none)")

    lines.append("")
    lines.append("latency / histogram series")
    lines.append("--------------------------")
    for entry in histograms:
        sketch = QuantileSketch.from_dict(entry["sketch"])
        lines.append(
            f"  {entry['name']:<30} "
            f"{_label_text(entry.get('labels', {})):<40} "
            f"n={sketch.count:<6} "
            f"p50={_fmt_latency(sketch.quantile(0.50)).strip():>9} "
            f"p95={_fmt_latency(sketch.quantile(0.95)).strip():>9} "
            f"p99={_fmt_latency(sketch.quantile(0.99)).strip():>9} "
            f"[{entry.get('unit', '?')}]")
    if not histograms:
        lines.append("  (none)")

    if windows:
        lines.append("")
        lines.append("windows")
        lines.append("-------")
        for index, window in enumerate(windows):
            lines.append(f"  [{index}] {window.get('key')}: "
                         f"{len(window.get('series', []))} series")
    return "\n".join(lines)
