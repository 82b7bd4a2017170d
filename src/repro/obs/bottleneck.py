"""Top-down bottleneck rendering over exported documents.

``python -m repro.obs bottleneck <file.json>`` accepts either a metrics
document (``repro.obs.metrics/1``, from ``python -m repro.eval
--metrics``) or a BENCH document (``repro.bench/1``, from ``python -m
repro.bench``) and renders, per simulation: the cycle-accounting
identity (makespan = gating-chain compute + attributed wait), the
wait-by-cause breakdown over all instructions and over the chain, the
gating-chain listing, per-unit-class contention, the compute-vs-memory
roofline, and the wait-by-stage cross table.

``python -m repro.obs advise`` runs the what-if advisor
(:func:`repro.sim.bottleneck.advise`) over the application suite and
renders predicted-vs-measured speedups per candidate config delta.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import BENCH_SCHEMA, SCHEMA as METRICS_SCHEMA


def _collect_simulations(document: Dict[str, Any]
                         ) -> List[Tuple[str, Dict[str, Any]]]:
    """(label, sim dict) pairs from either supported schema."""
    schema = document.get("schema")
    out: List[Tuple[str, Dict[str, Any]]] = []
    if schema == METRICS_SCHEMA:
        for entry in document.get("experiments", []):
            exp = entry.get("experiment", "?")
            for sim in entry.get("simulations", []):
                label = sim.get("label") or "program"
                out.append((f"{exp}:{label}/{sim.get('policy', '?')}", sim))
    elif schema == BENCH_SCHEMA:
        for key in sorted(document.get("workloads", {})):
            out.append((key, document["workloads"][key]))
    else:
        raise ValueError(
            f"unsupported schema {schema!r}: expected "
            f"{METRICS_SCHEMA!r} or {BENCH_SCHEMA!r}"
        )
    return out


def bottleneck_payload(document: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-ready cycle accounting per simulation (the ``--json`` sink)."""
    return {
        "schema": "repro.obs.bottleneck/1",
        "simulations": [
            {"label": label,
             "cycle_accounting": sim.get("cycle_accounting")}
            for label, sim in _collect_simulations(document)
        ],
    }


def _cause_table(table: Dict[str, float], total: float,
                 indent: str = "    ") -> List[str]:
    lines = []
    for cause, cycles in sorted(table.items(), key=lambda kv: -kv[1]):
        share = cycles / total if total else 0.0
        lines.append(f"{indent}{cause:<24} {cycles:>12,.0f} cycles "
                     f"({share:6.1%})")
    return lines


def render_simulation_bottleneck(label: str, sim: Dict[str, Any],
                                 top: int = 10,
                                 hint: Optional[Dict[str, Any]] = None
                                 ) -> List[str]:
    """Render one simulation's cycle accounting (empty if absent)."""
    acc = sim.get("cycle_accounting")
    if not acc:
        return []
    total = int(acc.get("total_cycles", sim.get("total_cycles", 0)))
    chain_c = float(acc.get("chain_compute_cycles", 0.0))
    chain_w = float(acc.get("chain_wait_cycles", 0.0))
    err = float(acc.get("identity_error", 0.0))
    lines = [
        f"{label}",
        f"  makespan {total:,} cycles = chain compute {chain_c:,.0f} "
        f"+ attributed wait {chain_w:,.0f}"
        + (f"  (residue {err:+.3f})" if abs(err) > 1e-9 else ""),
    ]

    chain_causes = acc.get("chain_wait_by_cause") or {}
    if chain_causes:
        lines.append("  gating-chain wait by cause:")
        lines.extend(_cause_table(chain_causes, chain_w))
    all_causes = acc.get("wait_by_cause") or {}
    if all_causes:
        wait_total = float(acc.get("wait_total_cycles", 0.0))
        lines.append(f"  all-instruction wait by cause "
                     f"(Σ {wait_total:,.0f} instruction-cycles):")
        lines.extend(_cause_table(all_causes, wait_total))

    chain = acc.get("critical_chain") or []
    if chain:
        shown = chain[:top]
        lines.append(f"  gating chain ({acc.get('chain_length', len(chain))}"
                     f" steps, showing {len(shown)}):")
        for step in shown:
            causes = step.get("causes") or {}
            cause = max(causes.items(), key=lambda kv: kv[1])[0] \
                if causes else "-"
            lines.append(
                f"    #{step.get('uid'):>5} {step.get('op', '?'):<8} "
                f"{step.get('unit', '?'):<8} busy {step.get('cycles', 0):>7,.0f} "
                f"wait {step.get('wait', 0):>7,.0f}  {cause}"
            )

    contention = acc.get("contention") or {}
    if contention:
        lines.append("  unit contention (ready-queue depth):")
        ranked = sorted(contention.items(),
                        key=lambda kv: -kv[1].get("saturated_cycles", 0.0))
        for unit, c in ranked[:top]:
            lines.append(
                f"    {unit:<8} x{c.get('instances', '?')}  peak depth "
                f"{c.get('peak_depth', 0):>4}  mean {c.get('mean_depth', 0.0):8.2f}  "
                f"saturated {c.get('saturated_cycles', 0.0):>9,.0f} cycles  "
                f"util {c.get('utilization', 0.0):6.1%}"
            )

    roof = acc.get("roofline") or {}
    if roof:
        lines.append(
            f"  roofline: {roof.get('bound', '?')}-bound — compute "
            f"{roof.get('compute_cycles', 0.0):,.0f} cycles "
            f"({roof.get('busiest_unit', '?')}) vs memory "
            f"{roof.get('memory_cycles', 0.0):,.0f} cycles "
            f"({roof.get('traffic_words', 0):,.0f} words @ "
            f"{roof.get('bandwidth_words_per_cycle', 0.0):g} words/cycle)"
        )

    stages = acc.get("wait_by_stage") or {}
    if stages:
        lines.append("  wait by stage:")
        totals = {s: sum(row.values()) for s, row in stages.items()}
        for stage, subtotal in sorted(totals.items(),
                                      key=lambda kv: -kv[1])[:top]:
            dominant = max(stages[stage].items(), key=lambda kv: kv[1])[0]
            lines.append(f"    {stage:<22} {subtotal:>12,.0f} cycles  "
                         f"(mostly {dominant})")

    if hint and hint.get("top_candidate"):
        cand = hint["top_candidate"]
        lines.append(
            f"  what-if: {cand.get('label', '?')} -> predicted "
            f"{cand.get('predicted_speedup', 1.0):.2f}x "
            f"({cand.get('predicted_saved_cycles', 0.0):,.0f} cycles saved)"
        )
    return lines


def render_bottleneck(document: Dict[str, Any], top: int = 10) -> str:
    """Render the bottleneck view of a metrics or BENCH document."""
    sims = _collect_simulations(document)
    hints = document.get("bottleneck") or {}
    lines: List[str] = ["top-down cycle accounting",
                        "-------------------------"]
    rendered = 0
    for label, sim in sims:
        block = render_simulation_bottleneck(label, sim, top=top,
                                             hint=hints.get(label))
        if block:
            if rendered:
                lines.append("")
            lines.extend(block)
            rendered += 1
    if not rendered:
        lines.append("  (no cycle accounting recorded — document predates "
                     "the accounting layer?)")
    return "\n".join(lines)


def render_advice(advices: List[Any]) -> str:
    """Render a list of :class:`repro.sim.bottleneck.Advice` results."""
    lines: List[str] = ["what-if advisor",
                        "---------------"]
    for idx, adv in enumerate(advices):
        if idx:
            lines.append("")
        lines.append(f"{adv.label} [{adv.policy}"
                     + (f", width {adv.issue_width}" if adv.issue_width
                        else "") + f"] on {adv.config_description}")
        lines.append(f"  baseline {adv.baseline_cycles:,} cycles "
                     f"({adv.baseline_energy_mj:.4f} mJ); chain compute "
                     f"{adv.chain_compute_cycles:,.0f} + wait "
                     f"{adv.chain_wait_cycles:,.0f}")
        if not adv.candidates:
            lines.append("  no candidate deltas: nothing on the gating "
                         "chain to buy back")
            continue
        for cand in adv.candidates:
            line = (f"  {cand.label:<32} predicted "
                    f"{cand.predicted_speedup:5.2f}x")
            if cand.validated:
                line += f"  measured {cand.measured_speedup:5.2f}x"
                if cand.prediction_error is not None:
                    line += f"  (err {cand.prediction_error:5.1%})"
                if cand.fits_budget is False:
                    line += "  [exceeds budget]"
            else:
                line += "  (not validated)"
            lines.append(line)
        topc = adv.top_validated()
        if topc is not None:
            saved = adv.baseline_cycles - (topc.measured_cycles or 0)
            lines.append(f"  => best validated: {topc.label} "
                         f"({saved:,} cycles, "
                         f"{saved / adv.baseline_cycles:.1%} of baseline)")
    return "\n".join(lines)
