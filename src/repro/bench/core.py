"""BENCH document production: run the paper workloads, emit JSON.

The benchmark suite is the same per-frame workload the Sec. 7
latency/energy comparisons run (one steady-state frame per application,
compiled through the standard pipeline, simulated on the representative
ORIANNA accelerator).  Cycle counts are deterministic functions of the
seed — latencies derive from operand shapes, not host timing — so two
runs of the same tree produce identical documents and the CI gate
compares them exactly.  The document carries model outputs only: the
``workloads`` entries, the advisory ``bottleneck`` hints, and in full
mode the Fig. 13/14 ``tables``.

Modes:

- ``quick``: every application under the OoO controller only.  About a
  second; this is what CI runs on every push.
- ``full``: adds the in-order and sequential controllers per workload
  plus the Fig. 13/14 comparison tables via the eval harness.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.apps import all_applications
from repro.eval.experiments import ORIANNA_CONFIG, experiment_fig13_fig14
from repro.obs import trace
from repro.sim import Simulator

BENCH_SCHEMA = "repro.bench/1"

QUICK_POLICIES = ("ooo",)
FULL_POLICIES = ("ooo", "inorder", "sequential")


def _workload_entry(result) -> Dict[str, Any]:
    entry = result.to_dict()
    # The per-factor table is seed-specific detail; the regression gate
    # and profile surfaces consume the aggregate views.  Same for the
    # step-by-step gating chain: the bench keeps the wait-by-cause and
    # contention aggregates, the chain listing lives in metrics/traces.
    attribution = entry.get("attribution")
    if attribution:
        attribution.pop("by_factor", None)
        attribution.pop("by_variable", None)
    accounting = entry.get("cycle_accounting")
    if accounting:
        accounting.pop("critical_chain", None)
    return entry


def _bottleneck_entry(result, config) -> Optional[Dict[str, Any]]:
    """The non-gated what-if summary for one workload.

    Analytic only — the bench never resimulates candidates (that is
    ``python -m repro.obs advise``), it just records where the waits
    are and what the top config delta is predicted to buy.
    """
    from repro.sim.bottleneck import enumerate_candidates

    acc = result.cycle_accounting
    if acc is None:
        return None
    cp = result.critical_path
    candidates = enumerate_candidates(
        acc.to_dict(), dict(config.unit_counts), result.policy, None,
        result.total_cycles, spilled_words=result.spilled_words,
        peak_live_words=result.peak_live_words,
        unit_busy_cycles=result.unit_busy_cycles,
        critical_path_cycles=(cp.length_cycles if cp is not None else 0.0))
    entry: Dict[str, Any] = {
        "wait_total_cycles": round(acc.wait_total_cycles, 3),
        "chain_wait_by_cause": {k: round(v, 3) for k, v in
                                sorted(acc.chain_wait_by_cause.items())},
        "roofline_bound": acc.roofline.bound,
        "busiest_unit": acc.roofline.busiest_unit,
    }
    if candidates:
        entry["top_candidate"] = candidates[0].to_dict()
    return entry


def run_bench(quick: bool = True, seed: int = 0) -> Dict[str, Any]:
    """Simulate every application workload; return the BENCH document.

    One frame per application is compiled and simulated under each
    policy of the mode.  Every field is a model output, so two runs of
    the same tree and seed write the same document.  Host time is
    measured end to end by ``benchmarks/e2e``, not here.
    """
    policies = QUICK_POLICIES if quick else FULL_POLICIES
    sim = Simulator(ORIANNA_CONFIG)
    workloads: Dict[str, Any] = {}
    bottleneck_section: Dict[str, Any] = {}
    with trace.span("bench", category="bench",
                    mode="quick" if quick else "full"):
        for app in all_applications():
            program = app.compile_frame(seed)
            for policy in policies:
                result = sim.run(program, policy)
                key = f"{app.name}/{policy}"
                workloads[key] = _workload_entry(result)
                hint = _bottleneck_entry(result, ORIANNA_CONFIG)
                if hint:
                    bottleneck_section[key] = hint
    tables: List[Dict[str, Any]] = []
    if not quick:
        speed, energy = experiment_fig13_fig14(seed=seed)
        tables = [speed.to_dict(), energy.to_dict()]
    return bench_document(workloads, quick=quick, seed=seed, tables=tables,
                          bottleneck_section=bottleneck_section)


def bench_document(workloads: Dict[str, Any], quick: bool, seed: int,
                   tables: Optional[List[Dict[str, Any]]] = None,
                   bottleneck_section: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    document: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "mode": "quick" if quick else "full",
        "seed": seed,
        "workloads": workloads,
    }
    if bottleneck_section:
        # Advisory only: ignored by the repro.obs diff regression gate.
        document["bottleneck"] = bottleneck_section
    if tables:
        document["tables"] = tables
    return document


def write_bench(path, document: Dict[str, Any]) -> None:
    """Write a BENCH document as JSON (indent=1 keeps diffs reviewable)."""
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_bench(path) -> Dict[str, Any]:
    with open(path) as fh:
        document = json.load(fh)
    if document.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: not a {BENCH_SCHEMA} document "
            f"(schema={document.get('schema')!r})"
        )
    return document


def summarize(document: Dict[str, Any]) -> str:
    """One line per workload, for the CLI and CI logs."""
    lines = [f"BENCH {document.get('mode', '?')} "
             f"(seed {document.get('seed', '?')})"]
    for key in sorted(document.get("workloads", {})):
        entry = document["workloads"][key]
        coverage = (entry.get("attribution") or {}).get("coverage")
        cov = f"  attr {coverage:.1%}" if coverage is not None else ""
        lines.append(
            f"  {key:<28} {entry.get('total_cycles', 0):>10,} cycles  "
            f"{entry.get('energy_mj', 0.0):9.4f} mJ{cov}"
        )
    return "\n".join(lines)
