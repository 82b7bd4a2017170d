"""Regression diffing between two BENCH documents.

``python -m repro.obs diff old.json new.json --threshold 0.10`` compares
matching workloads on total cycles and total energy; any metric where
``new > old * (1 + threshold)`` is a regression and makes the command
exit nonzero.  Workloads present on only one side are reported but do
not fail the gate (suites evolve); improvements are listed so wins are
visible in the same output.  With ``--exact`` (the CI gate) any
difference fails, in a metric, a workload's presence, or a section.
"""

from __future__ import annotations

from typing import Any, Dict, List

# (metric key, human label) pairs the gate compares per workload.
GATED_METRICS = (
    ("total_cycles", "cycles"),
    ("energy_mj", "energy"),
)

# The BENCH sections the exact parity gate skips: advisory or derived
# views that restate workload data or carry non-gated predictions.
# Everything else must be bit-identical under ``--exact``: "workloads"
# entries via the metric comparison below, any other section (a
# campaign or chaos document's "fleet", say) via deep equality.  No
# producer writes host timing into a BENCH document, so no section is
# skipped for being nondeterministic.
EXACT_SKIP_SECTIONS = ("bottleneck", "tables")


def diff_documents(old: Dict[str, Any], new: Dict[str, Any],
                   threshold: float = 0.10,
                   exact: bool = False) -> Dict[str, Any]:
    """Compare two BENCH documents; returns comparisons + regressions.

    With ``exact=True`` any difference in either direction is a
    regression: the gate that holds a document to the committed
    baseline, cached compilation to cold, and a campaign to its rerun.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    old_wl = old.get("workloads", {})
    new_wl = new.get("workloads", {})

    comparisons: List[Dict[str, Any]] = []
    regressions: List[Dict[str, Any]] = []
    improvements: List[Dict[str, Any]] = []
    for key in sorted(set(old_wl) & set(new_wl)):
        for metric, label in GATED_METRICS:
            before = float(old_wl[key].get(metric, 0.0))
            after = float(new_wl[key].get(metric, 0.0))
            ratio = after / before if before else (1.0 if not after
                                                  else float("inf"))
            row = {
                "workload": key, "metric": label,
                "old": before, "new": after, "ratio": ratio,
            }
            comparisons.append(row)
            if exact:
                if after != before:
                    regressions.append(row)
            elif ratio > 1.0 + threshold:
                regressions.append(row)
            elif ratio < 1.0 - threshold:
                improvements.append(row)

    if exact:
        missing = sorted(set(old_wl) ^ set(new_wl))
        for key in missing:
            regressions.append({
                "workload": key, "metric": "presence",
                "old": float(key in old_wl), "new": float(key in new_wl),
                "ratio": float("inf"),
            })
        # Any section outside the skip list must match deeply: the
        # parity gate covers the whole document.
        sections = (set(old) | set(new)) - {"workloads"} \
            - set(EXACT_SKIP_SECTIONS)
        for key in sorted(sections):
            if old.get(key) != new.get(key):
                row = {
                    "workload": f"[section] {key}", "metric": "section",
                    "old": float(key in old), "new": float(key in new),
                    "ratio": float("inf"),
                }
                comparisons.append(row)
                regressions.append(row)

    return {
        "threshold": 0.0 if exact else threshold,
        "exact": exact,
        "comparisons": comparisons,
        "regressions": regressions,
        "improvements": improvements,
        "only_old": sorted(set(old_wl) - set(new_wl)),
        "only_new": sorted(set(new_wl) - set(old_wl)),
    }


def render_diff(diff: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`diff_documents` result."""
    lines: List[str] = []
    threshold = diff["threshold"]
    for row in diff["comparisons"]:
        delta = (row["ratio"] - 1.0) * 100.0
        marker = " "
        if row in diff["regressions"]:
            marker = "!"
        elif row in diff["improvements"]:
            marker = "+"
        lines.append(
            f"{marker} {row['workload']:<28} {row['metric']:<7} "
            f"{row['old']:>12,.4g} -> {row['new']:>12,.4g}  "
            f"({delta:+.1f}%)"
        )
    for key in diff["only_old"]:
        lines.append(f"? {key:<28} missing from the new document")
    for key in diff["only_new"]:
        lines.append(f"? {key:<28} new workload (no baseline)")
    if diff.get("exact"):
        if diff["regressions"]:
            lines.append(
                f"FAIL: {len(diff['regressions'])} metric(s) differ "
                f"(exact parity required)"
            )
        else:
            lines.append("OK: documents are metric-identical")
    elif diff["regressions"]:
        lines.append(
            f"FAIL: {len(diff['regressions'])} metric(s) regressed "
            f"beyond {threshold:.0%}"
        )
    else:
        lines.append(f"OK: no regressions beyond {threshold:.0%}")
    return "\n".join(lines)
