"""Flat metrics-JSON export.

One document per evaluation run.  Each experiment contributes an entry
with its wall time, counters, per-pass compiler timings, and a summary of
every simulation it ran (cycles, energy breakdown, stall counters,
per-unit busy cycles), and its registry section as ``fleet``.  The file
round-trips through ``json.load`` and is the input to ``python -m
repro.obs report``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.core import Snapshot

SCHEMA = "repro.obs.metrics/1"
# repro.bench's document schema, here so the obs renderers need not
# import the application suite.
BENCH_SCHEMA = "repro.bench/1"

# Heavy per-instruction payloads excluded from the flat metrics file
# (they live in the Chrome trace instead).  The aggregate
# "cycle_accounting" tables stay in — they are what
# ``python -m repro.obs bottleneck`` renders.
_SIM_EXCLUDE = ("schedule", "instructions", "waits")


def simulation_summary(record: Dict[str, Any]) -> Dict[str, Any]:
    """A sim telemetry record minus the per-instruction payloads."""
    return {k: v for k, v in record.items() if k not in _SIM_EXCLUDE}


def experiment_entry(experiment_id: str, elapsed_s: float,
                     snapshot: Snapshot) -> Dict[str, Any]:
    """Flatten one experiment's drained snapshot into a metrics entry;
    a non-empty registry section rides along as ``fleet``."""
    entry: Dict[str, Any] = {
        "experiment": experiment_id,
        "elapsed_s": elapsed_s,
        "counters": snapshot.counters,
        "pass_timings_s": snapshot.span_totals(category="compiler.pass"),
        "span_timings_s": snapshot.span_totals(),
        "simulations": [simulation_summary(r) for r in snapshot.sims],
    }
    metrics = snapshot.metrics
    if metrics.get("series") or metrics.get("windows"):
        entry["fleet"] = metrics
    return entry


def metrics_document(entries: List[Dict[str, Any]],
                     meta: Optional[Dict[str, Any]] = None
                     ) -> Dict[str, Any]:
    return {
        "schema": SCHEMA,
        "meta": dict(meta or {}),
        "experiments": entries,
    }


def write_metrics(path, entries: List[Dict[str, Any]],
                  meta: Optional[Dict[str, Any]] = None) -> None:
    """Write the metrics document as JSON (indent=1 keeps diffs small)."""
    with open(path, "w") as fh:
        json.dump(metrics_document(entries, meta), fh, indent=1)


def load_metrics(path) -> Dict[str, Any]:
    with open(path) as fh:
        document = json.load(fh)
    if document.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: not a {SCHEMA} document "
            f"(schema={document.get('schema')!r})"
        )
    return document
