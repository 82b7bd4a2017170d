"""Top-down cycle accounting and the what-if bottleneck advisor.

TMA-style bottleneck analysis over simulated schedules, in three parts:

- :class:`WaitTracker` — the engine-side bookkeeping
  :meth:`repro.sim.engine.Simulator.run` fills in while scheduling.  For
  every instruction it records the *dispatch-ready* time (the moment all
  operands are available), the producer whose arrival made it ready, and
  a piecewise attribution of the ready-to-issue gap to causes:
  ``structural.<unit>`` (every instance of the unit class was busy),
  ``width`` (the dispatch port was exhausted that round),
  ``policy.inorder`` (blocked behind the head of line), and
  ``policy.sequential`` (a no-overlap controller refused to co-issue).
- :func:`compute_cycle_accounting` — aggregates the tracker into a
  :class:`CycleAccounting`: the schedule's *gating chain* (walk back
  from the last-finishing instruction through last-arriving producers),
  for which ``total_cycles == chain compute + chain wait`` is an
  enforced identity (checked under ``obs.enable(debug=True)`` and in
  tests); wait-by-cause tables crossed with provenance stage and factor
  type; per-unit-class contention timelines (ready-queue depth over
  time); and a compute-vs-memory roofline summary.
- :func:`enumerate_candidates` / :func:`advise` — the what-if advisor.
  It proposes config deltas (one more instance of a contended unit
  class, one more issue slot, a buffer large enough to stop spilling, an
  out-of-order controller), predicts the payoff analytically from the
  gating chain's wait attribution, then *validates* the top-k candidates
  by resimulating with the modified :class:`AcceleratorConfig` and
  reports predicted-vs-measured speedup.

Cause labels are exact under out-of-order issue with an unbounded port:
a ready instruction there waits only for a free unit of its class, so
its whole wait is ``structural.<unit>``, labelled once, at issue.  They
are a best-effort tiling elsewhere.  With a finite port, a round that
runs the port dry labels every waiting instruction (``width`` for those
it never reached) and the next round that does not run dry relabels
them structural, so each segment carries the cause of the round that
opened it.  In order, a segment between two examinations of the head of
line carries the cause observed at the examination that opened it, and
a segment during which the instruction was never examined falls back to
the policy's default (the head-of-line/no-overlap cause).  The *total*
wait per instruction is always exact — the segments tile ``[ready,
issue)`` by construction — only the split between labels is approximate
in those corners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.compiler.isa import Opcode, Program
from repro.hw.accelerator import AcceleratorConfig

# Modeled DRAM interface (shared with the engine's energy model):
# energy per 32-bit word moved, and the words the link can stream per
# accelerator cycle (~10.7 GB/s at the 167 MHz prototype clock — a
# single DDR3 channel, the ZC706's memory system).
DRAM_ENERGY_PER_WORD_NJ = 0.64
BYTES_PER_WORD = 4
DRAM_BANDWIDTH_WORDS_PER_CYCLE = 16.0

CAUSE_WIDTH = "width"
CAUSE_INORDER = "policy.inorder"
CAUSE_SEQUENTIAL = "policy.sequential"
STRUCTURAL_PREFIX = "structural."

# Fallback cause for wait segments during which the controller never
# examined the instruction (see module docstring).
DEFAULT_CAUSE = {
    "ooo": CAUSE_WIDTH,
    "inorder": CAUSE_INORDER,
    "sequential": CAUSE_SEQUENTIAL,
}


def structural_cause(unit_class: str) -> str:
    return STRUCTURAL_PREFIX + unit_class


class WaitTracker:
    """Dispatch-ready vs issue bookkeeping for one ``Simulator.run``.

    The engine calls :meth:`mark_ready` when an instruction's last
    operand arrives, :meth:`close` where the cause of its wait may change
    and at issue (tiling the wait into cause-labelled segments),
    :meth:`block` to record the cause of the segment that follows, and
    :meth:`sample_depths` once per scheduling round with the
    per-unit-class count of ready-but-deferred instructions.  The
    out-of-order loop labels a deferred instruction lazily: it calls
    :meth:`block_if_unset` with the structural cause right before the
    issue-time :meth:`close`, so an unchanged cause costs no call per
    round.  Pure bookkeeping: it never influences scheduling.
    """

    __slots__ = ("default_cause", "ready_time", "gated_by", "wait_from",
                 "blocked_cause", "wait_causes", "depth_samples",
                 "_active_depth")

    def __init__(self, policy: str):
        self.default_cause = DEFAULT_CAUSE.get(policy, CAUSE_WIDTH)
        self.ready_time: Dict[int, float] = {}
        self.gated_by: Dict[int, Optional[int]] = {}
        self.wait_from: Dict[int, float] = {}
        self.blocked_cause: Dict[int, str] = {}
        self.wait_causes: Dict[int, Dict[str, float]] = {}
        self.depth_samples: Dict[str, List[Tuple[float, int]]] = {}
        self._active_depth: Dict[str, int] = {}

    def mark_ready(self, uid: int, now: float,
                   producer: Optional[int] = None) -> None:
        self.ready_time[uid] = now
        self.gated_by[uid] = producer
        self.wait_from[uid] = now

    def close(self, uid: int, now: float) -> None:
        """Close the open wait segment ``[wait_from, now)``.

        The segment's cause is whatever the previous examination
        recorded via :meth:`block`; a segment with no recorded cause
        (the instruction was never examined during it) falls back to
        the policy default.
        """
        since = self.wait_from.get(uid)
        if since is None or now <= since:
            return
        cause = self.blocked_cause.pop(uid, self.default_cause)
        causes = self.wait_causes.setdefault(uid, {})
        causes[cause] = causes.get(cause, 0.0) + (now - since)
        self.wait_from[uid] = now

    def block(self, uid: int, cause: str) -> None:
        self.blocked_cause[uid] = cause

    def block_if_unset(self, uid: int, cause: str) -> None:
        self.blocked_cause.setdefault(uid, cause)

    def sample_depths(self, now: float, counts: Mapping[str, int]) -> None:
        """Record per-unit ready-queue depth at a scheduling round."""
        stale = [u for u, d in self._active_depth.items()
                 if d and u not in counts]
        for unit in stale:
            self.depth_samples.setdefault(unit, []).append((now, 0))
            self._active_depth[unit] = 0
        for unit, depth in counts.items():
            if depth != self._active_depth.get(unit, 0):
                self.depth_samples.setdefault(unit, []).append((now, depth))
                self._active_depth[unit] = depth


# ----------------------------------------------------------------------
# Aggregated accounting
# ----------------------------------------------------------------------

@dataclass
class ChainStep:
    """One instruction on the schedule's gating chain."""

    uid: int
    op: str
    unit: str
    cycles: float                 # busy latency
    wait: float                   # ready-to-issue gap
    causes: Dict[str, float] = field(default_factory=dict)
    gated_by: Optional[int] = None
    stage: str = ""

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "uid": self.uid, "op": self.op, "unit": self.unit,
            "cycles": self.cycles, "wait": self.wait,
        }
        if self.causes:
            out["causes"] = {k: round(v, 3)
                             for k, v in sorted(self.causes.items())}
        if self.gated_by is not None:
            out["gated_by"] = self.gated_by
        if self.stage:
            out["stage"] = self.stage
        return out


@dataclass
class UnitContention:
    """Ready-queue pressure on one unit class over the whole run."""

    unit: str
    instances: int
    peak_depth: int = 0
    mean_depth: float = 0.0       # time-weighted over the makespan
    saturated_cycles: float = 0.0  # cycles with >= 1 deferred instruction
    busy_cycles: float = 0.0
    utilization: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "instances": self.instances,
            "peak_depth": self.peak_depth,
            "mean_depth": round(self.mean_depth, 4),
            "saturated_cycles": round(self.saturated_cycles, 3),
            "busy_cycles": self.busy_cycles,
            "utilization": round(self.utilization, 4),
        }


@dataclass
class Roofline:
    """Compute-vs-memory classification from busy cycles and spills."""

    compute_cycles: float = 0.0   # busiest unit class, serialized per instance
    memory_cycles: float = 0.0    # spill traffic / modeled DRAM bandwidth
    traffic_words: float = 0.0
    bandwidth_words_per_cycle: float = DRAM_BANDWIDTH_WORDS_PER_CYCLE
    bound: str = "compute"
    busiest_unit: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "compute_cycles": round(self.compute_cycles, 3),
            "memory_cycles": round(self.memory_cycles, 3),
            "traffic_words": self.traffic_words,
            "bandwidth_words_per_cycle": self.bandwidth_words_per_cycle,
            "bound": self.bound,
            "busiest_unit": self.busiest_unit,
        }


@dataclass
class CycleAccounting:
    """Where every makespan cycle went, and why.

    The identity ``total_cycles == chain_compute_cycles +
    chain_wait_cycles`` holds exactly (``identity_error`` records the
    float-vs-int rounding residue, always below half a cycle): walking
    back from the last-finishing instruction through each step's
    last-arriving producer tiles the makespan into busy latencies and
    attributed waits with nothing left over.
    """

    policy: str = "ooo"
    total_cycles: int = 0
    chain_compute_cycles: float = 0.0
    chain_wait_cycles: float = 0.0
    identity_error: float = 0.0
    wait_total_cycles: float = 0.0            # over ALL instructions
    wait_by_cause: Dict[str, float] = field(default_factory=dict)
    chain_wait_by_cause: Dict[str, float] = field(default_factory=dict)
    wait_by_stage: Dict[str, Dict[str, float]] = field(default_factory=dict)
    wait_by_factor_type: Dict[str, Dict[str, float]] = \
        field(default_factory=dict)
    critical_chain: List[ChainStep] = field(default_factory=list)
    contention: Dict[str, UnitContention] = field(default_factory=dict)
    roofline: Roofline = field(default_factory=Roofline)
    # Per-instruction detail (uid -> ready/issue/wait/causes/gated_by);
    # heavy, exported only into the Chrome trace, not metrics JSON.
    instruction_waits: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    def identity_holds(self, tolerance: float = 0.5 + 1e-6) -> bool:
        return abs(self.identity_error) <= tolerance

    def waits_to_dict(self) -> Dict[str, Dict[str, Any]]:
        """JSON-ready per-instruction wait detail (string uid keys)."""
        return {str(uid): dict(info)
                for uid, info in self.instruction_waits.items()}

    def to_dict(self, chain_limit: int = 64) -> Dict[str, Any]:
        def _cross(table: Dict[str, Dict[str, float]]) -> Dict[str, Any]:
            return {key: {c: round(v, 3) for c, v in sorted(row.items())}
                    for key, row in sorted(table.items())}

        return {
            "policy": self.policy,
            "total_cycles": self.total_cycles,
            "chain_compute_cycles": round(self.chain_compute_cycles, 3),
            "chain_wait_cycles": round(self.chain_wait_cycles, 3),
            "identity_error": round(self.identity_error, 6),
            "wait_total_cycles": round(self.wait_total_cycles, 3),
            "wait_by_cause": {k: round(v, 3) for k, v in
                              sorted(self.wait_by_cause.items())},
            "chain_wait_by_cause": {k: round(v, 3) for k, v in
                                    sorted(self.chain_wait_by_cause.items())},
            "wait_by_stage": _cross(self.wait_by_stage),
            "wait_by_factor_type": _cross(self.wait_by_factor_type),
            "chain_length": len(self.critical_chain),
            "critical_chain": [s.to_dict()
                               for s in self.critical_chain[:chain_limit]],
            "contention": {u: c.to_dict()
                           for u, c in sorted(self.contention.items())},
            "roofline": self.roofline.to_dict(),
        }


def compute_cycle_accounting(program: Program, tracker: WaitTracker,
                             latencies: Sequence[float],
                             start: Mapping[int, float],
                             finish: Mapping[int, float],
                             result) -> CycleAccounting:
    """Fold a run's :class:`WaitTracker` into a :class:`CycleAccounting`.

    ``result`` is the run's :class:`~repro.sim.stats.SimulationResult`
    (for totals, busy cycles, and spill volume); the engine computes
    the accounting from it when ``result.cycle_accounting`` is first
    read.  ``latencies`` is indexed by uid.
    """
    acc = CycleAccounting(policy=result.policy,
                          total_cycles=result.total_cycles)
    instructions = program.instructions

    for instr in instructions:
        if instr.op is Opcode.CONST or instr.uid not in start:
            continue
        uid = instr.uid
        ready = tracker.ready_time.get(uid, 0.0)
        wait = start[uid] - ready
        causes = tracker.wait_causes.get(uid, {})
        acc.wait_total_cycles += wait
        detail: Dict[str, Any] = {
            "ready": ready, "issue": start[uid], "wait": wait,
            "causes": {k: round(v, 3) for k, v in sorted(causes.items())},
        }
        producer = tracker.gated_by.get(uid)
        if producer is not None:
            detail["gated_by"] = producer
        acc.instruction_waits[uid] = detail
        if not causes:
            continue
        for cause, cycles in causes.items():
            acc.wait_by_cause[cause] = \
                acc.wait_by_cause.get(cause, 0.0) + cycles

        # Cross the wait with the instruction's provenance: which stage
        # and which factor types were stuck, not just which unit.
        prov = instr.provenance
        stage = "unknown"
        type_weight: Dict[str, float] = {}
        if prov is not None and not prov.is_empty():
            stage = prov.stage or "unknown"
            if prov.factors:
                w = 1.0 / len(prov.factors)
                for _, ftype in prov.factors:
                    type_weight[ftype] = type_weight.get(ftype, 0.0) + w
        stage_row = acc.wait_by_stage.setdefault(stage, {})
        for cause, cycles in causes.items():
            stage_row[cause] = stage_row.get(cause, 0.0) + cycles
            for ftype, w in type_weight.items():
                type_row = acc.wait_by_factor_type.setdefault(ftype, {})
                type_row[cause] = type_row.get(cause, 0.0) + cycles * w

    acc.contention = _contention(tracker, result)
    acc.roofline = _roofline(result)

    if not finish:
        return acc

    # The gating chain: from the last-finishing instruction, walk back
    # through each step's last-arriving producer.  finish[i] = lat(i) +
    # wait(i) + finish(gated_by(i)) telescopes, so the makespan splits
    # exactly into chain compute + chain wait.
    makespan = max(finish.values())
    tail = min(uid for uid, f in finish.items() if f == makespan)
    chain: List[ChainStep] = []
    seen = set()
    uid: Optional[int] = tail
    while uid is not None and uid not in seen:
        seen.add(uid)
        instr = instructions[uid]
        if instr.op is Opcode.CONST:
            break  # preloaded constants are free and gate nothing
        ready = tracker.ready_time.get(uid, 0.0)
        wait = start[uid] - ready
        prov = instr.provenance
        step = ChainStep(
            uid=uid, op=instr.op.value, unit=instr.unit,
            cycles=float(latencies[uid]), wait=wait,
            causes=dict(tracker.wait_causes.get(uid, {})),
            gated_by=tracker.gated_by.get(uid),
            stage=(prov.stage if prov is not None else "") or "",
        )
        chain.append(step)
        acc.chain_compute_cycles += step.cycles
        acc.chain_wait_cycles += wait
        for cause, cycles in step.causes.items():
            acc.chain_wait_by_cause[cause] = \
                acc.chain_wait_by_cause.get(cause, 0.0) + cycles
        uid = step.gated_by
    acc.critical_chain = list(reversed(chain))
    acc.identity_error = acc.total_cycles - (acc.chain_compute_cycles
                                             + acc.chain_wait_cycles)
    return acc


def _contention(tracker: WaitTracker, result) -> Dict[str, UnitContention]:
    end = float(result.total_cycles)
    out: Dict[str, UnitContention] = {}
    for unit, samples in tracker.depth_samples.items():
        peak = 0
        area = 0.0
        saturated = 0.0
        for idx, (t, depth) in enumerate(samples):
            until = samples[idx + 1][0] if idx + 1 < len(samples) else end
            span = max(0.0, until - t)
            area += depth * span
            if depth > 0:
                saturated += span
            peak = max(peak, depth)
        if peak == 0:
            continue
        out[unit] = UnitContention(
            unit=unit,
            instances=result.unit_instance_counts.get(unit, 0),
            peak_depth=peak,
            mean_depth=area / end if end else 0.0,
            saturated_cycles=saturated,
            busy_cycles=float(result.unit_busy_cycles.get(unit, 0)),
            utilization=result.utilization(unit),
        )
    return out


def _roofline(result) -> Roofline:
    compute = 0.0
    busiest = ""
    for unit, busy in result.unit_busy_cycles.items():
        instances = max(1, result.unit_instance_counts.get(unit, 1))
        serialized = busy / instances
        if serialized > compute:
            compute, busiest = serialized, unit
    traffic = 2.0 * result.spilled_words  # spill write + reload read
    memory = traffic / DRAM_BANDWIDTH_WORDS_PER_CYCLE
    return Roofline(
        compute_cycles=compute, memory_cycles=memory,
        traffic_words=traffic, bound="memory" if memory > compute
        else "compute", busiest_unit=busiest,
    )


# ----------------------------------------------------------------------
# The what-if advisor
# ----------------------------------------------------------------------

@dataclass
class Candidate:
    """One config delta with its analytic prediction and validation."""

    kind: str                     # "unit" | "issue_width" | "buffer" | "policy"
    label: str
    unit: str = ""
    new_issue_width: Optional[int] = None
    new_policy: str = ""
    new_buffer_kib: int = 0
    predicted_saved_cycles: float = 0.0
    predicted_cycles: float = 0.0
    predicted_speedup: float = 1.0
    predicted_saved_energy_mj: float = 0.0
    fits_budget: Optional[bool] = None
    validated: bool = False
    measured_cycles: Optional[int] = None
    measured_speedup: Optional[float] = None
    measured_saved_energy_mj: Optional[float] = None
    prediction_error: Optional[float] = None  # |pred - meas| / meas speedup

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.kind,
            "label": self.label,
            "predicted_saved_cycles": round(self.predicted_saved_cycles, 3),
            "predicted_cycles": round(self.predicted_cycles, 3),
            "predicted_speedup": round(self.predicted_speedup, 4),
        }
        if self.unit:
            out["unit"] = self.unit
        if self.new_issue_width is not None:
            out["new_issue_width"] = self.new_issue_width
        if self.new_policy:
            out["new_policy"] = self.new_policy
        if self.new_buffer_kib:
            out["new_buffer_kib"] = self.new_buffer_kib
        if self.predicted_saved_energy_mj:
            out["predicted_saved_energy_mj"] = \
                round(self.predicted_saved_energy_mj, 6)
        if self.fits_budget is not None:
            out["fits_budget"] = self.fits_budget
        if self.validated:
            out["validated"] = True
            out["measured_cycles"] = self.measured_cycles
            out["measured_speedup"] = round(self.measured_speedup, 4)
            if self.measured_saved_energy_mj is not None:
                out["measured_saved_energy_mj"] = \
                    round(self.measured_saved_energy_mj, 6)
            if self.prediction_error is not None:
                out["prediction_error"] = round(self.prediction_error, 4)
        return out


def enumerate_candidates(accounting: Mapping[str, Any],
                         unit_counts: Mapping[str, int],
                         policy: str,
                         issue_width: Optional[int],
                         total_cycles: int,
                         spilled_words: int = 0,
                         peak_live_words: int = 0,
                         unit_busy_cycles: Optional[Mapping[str, float]]
                         = None,
                         critical_path_cycles: float = 0.0
                         ) -> List[Candidate]:
    """Analytic what-if candidates from an exported accounting dict.

    Works on the plain-dict form (``CycleAccounting.to_dict()`` or its
    JSON round-trip) so the CLI can advise over saved metrics/BENCH
    documents without re-running anything.  Predictions scale the
    gating chain's attributed waits — adding an instance to a class with
    ``c`` instances drains its queue ``(c+1)/c`` faster, so the chain's
    structural wait on that class shrinks by ``1/(c+1)``; widening the
    issue port follows the same law; an out-of-order controller removes
    the policy-attributed waits outright — then clamp to the candidate
    config's *serialization floor*: no schedule can beat the busiest
    unit class's busy cycles divided over its (new) instance count, nor
    the dependency critical path, nor the gating chain's pure compute.
    The clamp is what keeps large-wait candidates honest: removing one
    wait exposes the next constraint, and the floor names it.
    """
    chain_waits: Mapping[str, float] = \
        accounting.get("chain_wait_by_cause", {}) or {}
    compute_floor = max(float(accounting.get("chain_compute_cycles", 0.0)),
                        float(critical_path_cycles))
    busy: Dict[str, float] = {u: float(b) for u, b in
                              (unit_busy_cycles or {}).items()}
    candidates: List[Candidate] = []

    def _serialization_floor(extra_unit: str = "") -> float:
        floor = compute_floor
        for unit, b in busy.items():
            count = max(1, int(unit_counts.get(unit, 1)))
            if unit == extra_unit:
                count += 1
            floor = max(floor, b / count)
        return floor

    def _close(kind: str, label: str, saved: float,
               extra_unit: str = "", **params) -> Candidate:
        saved = max(0.0, saved)
        predicted = max(_serialization_floor(extra_unit),
                        total_cycles - saved)
        cand = Candidate(
            kind=kind, label=label,
            predicted_saved_cycles=total_cycles - predicted,
            predicted_cycles=predicted,
            predicted_speedup=(total_cycles / predicted
                               if predicted else 1.0),
            **params,
        )
        candidates.append(cand)
        return cand

    for cause, cycles in sorted(chain_waits.items()):
        if not cause.startswith(STRUCTURAL_PREFIX) or cycles <= 0:
            continue
        unit = cause[len(STRUCTURAL_PREFIX):]
        count = max(1, int(unit_counts.get(unit, 1)))
        _close("unit", f"+1 {unit} ({count} -> {count + 1})",
               cycles / (count + 1), extra_unit=unit, unit=unit)

    width_wait = float(chain_waits.get(CAUSE_WIDTH, 0.0))
    if issue_width is not None and width_wait > 0:
        _close("issue_width",
               f"issue width {issue_width} -> {issue_width + 1}",
               width_wait / (issue_width + 1),
               new_issue_width=issue_width + 1)

    policy_wait = sum(v for k, v in chain_waits.items()
                      if k.startswith("policy."))
    if policy != "ooo" and policy_wait > 0:
        _close("policy", f"policy {policy} -> ooo", policy_wait,
               new_policy="ooo")

    if spilled_words > 0 and peak_live_words > 0:
        kib = int(math.ceil(peak_live_words * BYTES_PER_WORD / 1024.0))
        cand = _close("buffer", f"buffer -> {kib} KiB (stop spilling)",
                      0.0, new_buffer_kib=kib)
        cand.predicted_saved_energy_mj = \
            spilled_words * 2 * DRAM_ENERGY_PER_WORD_NJ * 1e-6

    candidates.sort(key=lambda c: (-c.predicted_saved_cycles,
                                   -c.predicted_saved_energy_mj, c.label))
    return candidates


@dataclass
class Advice:
    """Advisor output for one program/config/policy point."""

    label: str
    policy: str
    issue_width: Optional[int]
    config_description: str
    baseline_cycles: int
    baseline_energy_mj: float
    chain_compute_cycles: float
    chain_wait_cycles: float
    candidates: List[Candidate] = field(default_factory=list)

    def top_validated(self) -> Optional[Candidate]:
        best: Optional[Candidate] = None
        for cand in self.candidates:
            if not cand.validated or cand.measured_speedup is None:
                continue
            if best is None or cand.measured_speedup > \
                    (best.measured_speedup or 0.0):
                best = cand
        return best

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "policy": self.policy,
            "issue_width": self.issue_width,
            "config": self.config_description,
            "baseline_cycles": self.baseline_cycles,
            "baseline_energy_mj": round(self.baseline_energy_mj, 6),
            "chain_compute_cycles": round(self.chain_compute_cycles, 3),
            "chain_wait_cycles": round(self.chain_wait_cycles, 3),
            "candidates": [c.to_dict() for c in self.candidates],
        }


def advise(program: Program,
           config: Optional[AcceleratorConfig] = None,
           policy: str = "ooo",
           issue_width: Optional[int] = None,
           top_k: int = 3,
           label: str = "program",
           baseline=None) -> Advice:
    """Enumerate candidates and validate the top-k by resimulation.

    ``baseline`` may pass in an existing :class:`SimulationResult` for
    the same (program, config, policy, issue_width) point to skip the
    baseline run.  Every validated candidate carries both the analytic
    prediction and the measured outcome, so callers can judge the
    predictor itself, not just the recommendation.
    """
    from repro.sim.engine import Simulator  # local: engine imports us

    config = config or AcceleratorConfig()
    if baseline is None:
        baseline = Simulator(config, issue_width=issue_width).run(
            program, policy)
    accounting = baseline.cycle_accounting
    acc_dict = accounting.to_dict() if accounting is not None else {}
    cp = baseline.critical_path
    candidates = enumerate_candidates(
        acc_dict, dict(config.unit_counts), policy, issue_width,
        baseline.total_cycles, spilled_words=baseline.spilled_words,
        peak_live_words=baseline.peak_live_words,
        unit_busy_cycles=baseline.unit_busy_cycles,
        critical_path_cycles=(cp.length_cycles if cp is not None else 0.0))

    for cand in candidates[:max(0, top_k)]:
        new_config, new_width, new_policy = config, issue_width, policy
        if cand.kind == "unit":
            new_config = config.with_extra_unit(cand.unit)
        elif cand.kind == "issue_width":
            new_width = cand.new_issue_width
        elif cand.kind == "policy":
            new_policy = cand.new_policy
        elif cand.kind == "buffer":
            new_config = config.with_buffer_kib(cand.new_buffer_kib)
        cand.fits_budget = new_config.fits()
        measured = Simulator(new_config, issue_width=new_width).run(
            program, new_policy)
        cand.validated = True
        cand.measured_cycles = measured.total_cycles
        cand.measured_speedup = (
            baseline.total_cycles / measured.total_cycles
            if measured.total_cycles else float("inf"))
        cand.measured_saved_energy_mj = \
            baseline.energy_mj - measured.energy_mj
        if cand.measured_speedup:
            cand.prediction_error = abs(
                cand.predicted_speedup - cand.measured_speedup
            ) / cand.measured_speedup

    return Advice(
        label=label, policy=policy, issue_width=issue_width,
        config_description=config.describe(),
        baseline_cycles=baseline.total_cycles,
        baseline_energy_mj=baseline.energy_mj,
        chain_compute_cycles=(accounting.chain_compute_cycles
                              if accounting else 0.0),
        chain_wait_cycles=(accounting.chain_wait_cycles
                           if accounting else 0.0),
        candidates=candidates,
    )
