"""Provenance-attributed profiling over simulated schedules.

Two analyses of a :meth:`repro.sim.engine.Simulator.run`, each
computed the first time its :class:`~repro.sim.stats.SimulationResult`
attribute is read (never, for a caller that reads only cycles and
energy):

- :func:`compute_attribution` folds each instruction's busy cycles and
  dynamic energy into buckets keyed by its
  :class:`~repro.compiler.provenance.Provenance` — per factor, factor
  type, algorithm stage, and MO-DFG node kind.  An instruction serving
  several factors (after CSE) splits its cost evenly among them, so
  bucket totals add up to the real busy-cycle total instead of
  double-counting shared work.
- :func:`compute_critical_path` runs a def-use longest-path analysis
  (the dependency-bound lower bound on the makespan) and, from the
  recorded schedule, a backward slack pass: how many cycles each
  instruction could slip without delaying the finish, given the
  dependencies.  Zero-slack instructions are the schedule's critical
  set; their provenance names the factors a perf PR must attack.

Both results are plain dataclasses with ``to_dict()`` so they flow into
simulation telemetry, metrics JSON, and ``python -m repro.obs profile``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.compiler.isa import Opcode, Program, UNIT_NONE

# Slack histogram bucket upper bounds (cycles); the last bucket is open.
SLACK_BUCKETS: Tuple[float, ...] = (0.0, 9.0, 99.0, 999.0)


def slack_bucket_labels() -> List[str]:
    labels = ["0"]
    for lo, hi in zip(SLACK_BUCKETS[:-1], SLACK_BUCKETS[1:]):
        labels.append(f"{int(lo) + 1}-{int(hi)}")
    labels.append(f">={int(SLACK_BUCKETS[-1]) + 1}")
    return labels


@dataclass
class Bucket:
    """Accumulated cost of one attribution key."""

    cycles: float = 0.0
    energy_nj: float = 0.0
    instructions: float = 0.0

    def add(self, cycles: float, energy_nj: float, weight: float) -> None:
        self.cycles += cycles * weight
        self.energy_nj += energy_nj * weight
        self.instructions += weight

    def to_dict(self) -> Dict[str, float]:
        return {
            "cycles": round(self.cycles, 3),
            "energy_mj": self.energy_nj * 1e-6,
            "instructions": round(self.instructions, 3),
        }


@dataclass
class Attribution:
    """Busy cycles and dynamic energy, attributed to the app layer."""

    total_busy_cycles: float = 0.0
    attributed_cycles: float = 0.0
    total_energy_nj: float = 0.0
    by_factor: Dict[str, Bucket] = field(default_factory=dict)
    by_factor_type: Dict[str, Bucket] = field(default_factory=dict)
    by_stage: Dict[str, Bucket] = field(default_factory=dict)
    by_node_kind: Dict[str, Bucket] = field(default_factory=dict)
    by_variable: Dict[str, Bucket] = field(default_factory=dict)

    def coverage(self) -> float:
        """Fraction of busy cycles carrying any provenance."""
        if self.total_busy_cycles == 0:
            return 1.0
        return self.attributed_cycles / self.total_busy_cycles

    def top(self, table: str, k: int = 10) -> List[Tuple[str, Bucket]]:
        buckets: Dict[str, Bucket] = getattr(self, f"by_{table}")
        return sorted(buckets.items(), key=lambda kv: -kv[1].cycles)[:k]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total_busy_cycles": self.total_busy_cycles,
            "attributed_cycles": self.attributed_cycles,
            "coverage": self.coverage(),
            "total_energy_mj": self.total_energy_nj * 1e-6,
            "by_factor": {k: b.to_dict() for k, b in self.by_factor.items()},
            "by_factor_type": {k: b.to_dict()
                               for k, b in self.by_factor_type.items()},
            "by_stage": {k: b.to_dict() for k, b in self.by_stage.items()},
            "by_node_kind": {k: b.to_dict()
                             for k, b in self.by_node_kind.items()},
            "by_variable": {k: b.to_dict()
                            for k, b in self.by_variable.items()},
        }


@dataclass
class CriticalPathStep:
    """One instruction on the longest dependency chain."""

    uid: int
    op: str
    unit: str
    cycles: float
    stage: str = ""
    factors: Tuple[str, ...] = ()
    variable: str = ""

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "uid": self.uid, "op": self.op, "unit": self.unit,
            "cycles": self.cycles,
        }
        if self.stage:
            out["stage"] = self.stage
        if self.factors:
            out["factors"] = list(self.factors)
        if self.variable:
            out["variable"] = self.variable
        return out


@dataclass
class CriticalPathAnalysis:
    """Longest def-use chain plus per-instruction schedule slack."""

    length_cycles: float = 0.0
    makespan_cycles: float = 0.0
    path: List[CriticalPathStep] = field(default_factory=list)
    # uid -> slack cycles (scheduled instructions only).
    slack: Dict[int, float] = field(default_factory=dict)

    def slack_histogram(self) -> Dict[str, int]:
        """Bucketed counts of per-instruction slack, in cycles."""
        labels = slack_bucket_labels()
        counts = {label: 0 for label in labels}
        for value in self.slack.values():
            if value <= 1e-9:
                counts[labels[0]] += 1
                continue
            for idx, hi in enumerate(SLACK_BUCKETS[1:], start=1):
                if value <= hi + 1e-9:
                    counts[labels[idx]] += 1
                    break
            else:
                counts[labels[-1]] += 1
        return counts

    def zero_slack_uids(self) -> List[int]:
        return [uid for uid, s in self.slack.items() if s <= 1e-9]

    def to_dict(self, path_limit: int = 64) -> Dict[str, Any]:
        """JSON-ready summary; the path listing is capped for export."""
        return {
            "length_cycles": self.length_cycles,
            "makespan_cycles": self.makespan_cycles,
            "path_length": len(self.path),
            "path": [s.to_dict() for s in self.path[:path_limit]],
            "slack_histogram": self.slack_histogram(),
            "zero_slack_instructions": len(self.zero_slack_uids()),
        }


def _factor_keys(instr) -> List[Tuple[str, str]]:
    """``(factor key, factor type)`` pairs, algorithm-qualified."""
    prov = instr.provenance
    if prov is None or not prov.factors:
        return []
    prefix = f"{instr.algorithm}:" if instr.algorithm else ""
    return [(f"{prefix}{fid}", ftype) for fid, ftype in prov.factors]


def compute_attribution(program: Program,
                        latencies: Sequence[int],
                        energies_nj: Sequence[float]) -> Attribution:
    """Aggregate per-instruction cost by provenance.

    ``latencies``/``energies_nj`` hold each uid's busy cycles and dynamic
    energy as the simulator's unit templates model them; UNIT_NONE
    instructions (preloaded constants) cost nothing and are skipped.
    """
    attr = Attribution()
    for instr in program.instructions:
        if instr.unit == UNIT_NONE:
            continue
        cycles = float(latencies[instr.uid])
        energy = float(energies_nj[instr.uid])
        attr.total_busy_cycles += cycles
        attr.total_energy_nj += energy
        prov = instr.provenance
        if prov is None or prov.is_empty():
            continue
        attr.attributed_cycles += cycles

        stage = prov.stage or "unknown"
        attr.by_stage.setdefault(stage, Bucket()).add(cycles, energy, 1.0)
        if prov.node_kind:
            attr.by_node_kind.setdefault(prov.node_kind,
                                         Bucket()).add(cycles, energy, 1.0)
        for variable in prov.variables:
            attr.by_variable.setdefault(variable, Bucket()).add(
                cycles, energy, 1.0 / len(prov.variables))

        pairs = _factor_keys(instr)
        if pairs:
            # CSE-shared instructions serve several factors: split the
            # cost evenly so per-factor totals still sum to the truth.
            weight = 1.0 / len(pairs)
            type_weight: Dict[str, float] = {}
            for key, ftype in pairs:
                attr.by_factor.setdefault(key, Bucket()).add(
                    cycles, energy, weight)
                type_weight[ftype] = type_weight.get(ftype, 0.0) + weight
            for ftype, w in type_weight.items():
                attr.by_factor_type.setdefault(ftype, Bucket()).add(
                    cycles, energy, w)
    return attr


def compute_critical_path(program: Program,
                          latencies: Sequence[int],
                          start: Dict[int, float],
                          finish: Dict[int, float]) -> CriticalPathAnalysis:
    """Longest dependency chain and per-instruction schedule slack.

    The chain length is resource-free (pure def-use + latency): the
    floor any schedule can reach.  Slack compares the recorded schedule
    against the latest times that would still meet the makespan under
    the same dependencies — zero-slack instructions gate the finish.
    ``latencies`` is indexed by uid; the dependencies are the
    program's :class:`~repro.compiler.isa.DefUse`.
    """
    def_use = program.def_use()
    producers = def_use.producers
    instructions = program.instructions

    # Forward longest path (program order is a topological order: SSA).
    dist: Dict[int, float] = {}
    best_pred: Dict[int, Optional[int]] = {}
    for instr in instructions:
        lat = float(latencies[instr.uid])
        pred_dist = 0.0
        pred = None
        for d in producers[instr.uid]:
            if dist[d] > pred_dist:
                pred_dist = dist[d]
                pred = d
        dist[instr.uid] = pred_dist + lat
        best_pred[instr.uid] = pred

    analysis = CriticalPathAnalysis()
    if not instructions:
        return analysis

    tail = max(dist, key=lambda uid: dist[uid])
    analysis.length_cycles = dist[tail]

    chain: List[int] = []
    uid: Optional[int] = tail
    while uid is not None:
        chain.append(uid)
        uid = best_pred[uid]
    for cid in reversed(chain):
        instr = instructions[cid]
        if instr.op is Opcode.CONST:
            continue  # zero-latency preloads add noise, not insight
        prov = instr.provenance
        analysis.path.append(CriticalPathStep(
            uid=cid,
            op=instr.op.value,
            unit=instr.unit,
            cycles=float(latencies[cid]),
            stage=prov.stage if prov else "",
            factors=tuple(f"{k}:{t}" for k, t in _factor_keys(instr)),
            variable=(prov.variables[0]
                      if prov and prov.variables else ""),
        ))

    # Backward slack pass over the recorded schedule.
    if finish:
        makespan = max(finish.values())
        analysis.makespan_cycles = makespan
        latest_start: Dict[int, float] = {}
        consumers = def_use.consumers
        for instr in reversed(instructions):
            cuid = instr.uid
            if cuid not in start:
                continue
            lat = float(latencies[cuid])
            latest_finish = makespan
            for c in consumers[cuid]:
                if c in latest_start:
                    latest_finish = min(latest_finish, latest_start[c])
            latest_start[cuid] = latest_finish - lat
            if instr.unit != UNIT_NONE:
                analysis.slack[cuid] = max(
                    0.0, latest_start[cuid] - start[cuid])
    return analysis
