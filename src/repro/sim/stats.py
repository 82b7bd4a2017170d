"""Simulation results: cycles, energy, utilization, phase breakdowns."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.attribution import Attribution, CriticalPathAnalysis
    from repro.sim.bottleneck import CycleAccounting


@dataclass
class EnergyBreakdown:
    """Energy in millijoules by source."""

    dynamic_mj: float = 0.0
    static_mj: float = 0.0
    memory_mj: float = 0.0

    @property
    def total_mj(self) -> float:
        return self.dynamic_mj + self.static_mj + self.memory_mj


@dataclass
class SimulationResult:
    """Outcome of simulating one program on one accelerator config."""

    policy: str
    total_cycles: int
    clock_mhz: float
    energy: EnergyBreakdown
    instruction_count: int
    issued_count: int
    unit_busy_cycles: Dict[str, int] = field(default_factory=dict)
    unit_instance_counts: Dict[str, int] = field(default_factory=dict)
    phase_work_cycles: Dict[str, int] = field(default_factory=dict)
    phase_span_cycles: Dict[str, int] = field(default_factory=dict)
    algorithm_span_cycles: Dict[str, int] = field(default_factory=dict)
    peak_live_words: int = 0
    spilled_words: int = 0
    # Issue-stall events by kind ("structural", "raw", "overlap",
    # "width"); which kinds occur depends on the issue policy.
    stall_counts: Dict[str, int] = field(default_factory=dict)
    # Fault-campaign timing overheads ("injected", "stall_cycles",
    # "retry_cycles", "drop_cycles"), populated only when the run was
    # given a fault plan; empty for fault-free simulation.
    fault_counts: Dict[str, float] = field(default_factory=dict)
    # Supervised-solve degradation summary (retries, demotions, breaker
    # state) when the workload ran under repro.resilience.supervisor;
    # None for unsupervised runs.
    degradation_report: Optional[Dict[str, Any]] = None
    # The state Simulator.run leaves for the analyses below (program,
    # costs, start/finish times, dependency map, wait tracker); None for
    # a hand-built result, whose analyses are then None too.
    run_state: Any = field(default=None, repr=False, compare=False)

    # The schedule and the three analyses are computed on first read,
    # once each, from run_state: a caller that reads only cycles and
    # energy never pays for them.
    @cached_property
    def schedule(self) -> Dict[int, tuple]:
        """Per-instruction schedule: uid -> (start, finish) cycles;
        empty for a result with no run state."""
        state = self.run_state
        return {} if state is None else state.schedule()

    @cached_property
    def attribution(self) -> Optional["Attribution"]:
        """Provenance-attributed busy cycles and dynamic energy
        (:mod:`repro.sim.attribution`)."""
        state = self.run_state
        return None if state is None else state.attribution(self)

    @cached_property
    def critical_path(self) -> Optional["CriticalPathAnalysis"]:
        """Longest def-use chain and per-instruction schedule slack."""
        state = self.run_state
        return None if state is None else state.critical_path(self)

    @cached_property
    def cycle_accounting(self) -> Optional["CycleAccounting"]:
        """Top-down wait attribution: the schedule-gating chain,
        wait-by-cause tables, unit contention timelines and roofline
        summary (:mod:`repro.sim.bottleneck`)."""
        state = self.run_state
        return None if state is None else state.cycle_accounting(self)

    @property
    def time_ms(self) -> float:
        return self.total_cycles / (self.clock_mhz * 1e3)

    @property
    def time_us(self) -> float:
        return self.total_cycles / self.clock_mhz

    @property
    def energy_mj(self) -> float:
        return self.energy.total_mj

    def utilization(self, unit_class: str) -> float:
        """Average busy fraction across a unit class's instances.

        A unit class absent from ``unit_instance_counts`` has zero
        instances configured, so its utilization is 0.0 — it cannot be
        busy.  (Defaulting the count to 1 would silently report a
        nonzero utilization for hardware that does not exist.)
        """
        count = self.unit_instance_counts.get(unit_class, 0)
        if count == 0 or self.total_cycles == 0:
            return 0.0
        busy = self.unit_busy_cycles.get(unit_class, 0)
        return busy / (self.total_cycles * count)

    def to_dict(self, include_schedule: bool = False) -> Dict[str, Any]:
        """JSON-ready view of this result.

        The single source of truth for exporting a simulation outcome:
        the metrics exporter, bench harness, and profile CLI all build
        on this shape.  ``include_schedule`` additionally embeds the
        per-instruction ``schedule`` map when the result has one.
        """
        out: Dict[str, Any] = {
            "policy": self.policy,
            "total_cycles": self.total_cycles,
            "clock_mhz": self.clock_mhz,
            "time_ms": self.time_ms,
            "instruction_count": self.instruction_count,
            "issued_count": self.issued_count,
            "energy_mj": self.energy_mj,
            "energy": {
                "dynamic_mj": self.energy.dynamic_mj,
                "static_mj": self.energy.static_mj,
                "memory_mj": self.energy.memory_mj,
            },
            "stall_counts": dict(self.stall_counts),
            "unit_busy_cycles": dict(self.unit_busy_cycles),
            "unit_instance_counts": dict(self.unit_instance_counts),
            "utilization": {
                unit: self.utilization(unit)
                for unit in self.unit_busy_cycles
            },
            "phase_work_cycles": dict(self.phase_work_cycles),
            "phase_span_cycles": dict(self.phase_span_cycles),
            "algorithm_span_cycles": dict(self.algorithm_span_cycles),
            "peak_live_words": self.peak_live_words,
            "spilled_words": self.spilled_words,
        }
        if self.fault_counts:
            out["fault_counts"] = dict(self.fault_counts)
        if self.degradation_report is not None:
            out["degradation_report"] = dict(self.degradation_report)
        if self.attribution is not None:
            out["attribution"] = self.attribution.to_dict()
        if self.critical_path is not None:
            out["critical_path"] = self.critical_path.to_dict()
        if self.cycle_accounting is not None:
            out["cycle_accounting"] = self.cycle_accounting.to_dict()
        if include_schedule and self.schedule:
            # String keys so the exported document round-trips through
            # json.loads without int -> str key drift.
            out["schedule"] = {str(uid): span
                               for uid, span in self.schedule.items()}
        return out

    def phase_share(self, phase: str) -> float:
        """Share of total compute work spent in a pipeline phase."""
        total = sum(self.phase_work_cycles.values())
        if total == 0:
            return 0.0
        return self.phase_work_cycles.get(phase, 0) / total

    def summary(self) -> str:
        lines = [
            f"policy={self.policy} cycles={self.total_cycles} "
            f"({self.time_ms:.3f} ms @ {self.clock_mhz:.0f} MHz)",
            f"energy={self.energy_mj:.4f} mJ (dyn {self.energy.dynamic_mj:.4f}"
            f" / static {self.energy.static_mj:.4f}"
            f" / mem {self.energy.memory_mj:.4f})",
        ]
        for unit, busy in sorted(self.unit_busy_cycles.items()):
            lines.append(
                f"  {unit:>8}: util {self.utilization(unit):5.1%} "
                f"busy {busy} cycles x{self.unit_instance_counts.get(unit, 1)}"
            )
        if self.stall_counts:
            stalls = ", ".join(f"{k}={v}"
                               for k, v in sorted(self.stall_counts.items()))
            lines.append(f"  stalls: {stalls}")
        if self.fault_counts:
            faults = ", ".join(f"{k}={v:g}"
                               for k, v in sorted(self.fault_counts.items()))
            lines.append(f"  faults: {faults}")
        if self.cycle_accounting is not None and \
                self.cycle_accounting.wait_by_cause:
            waits = ", ".join(
                f"{k}={v:.0f}" for k, v in
                sorted(self.cycle_accounting.wait_by_cause.items()))
            lines.append(f"  wait cycles: {waits}")
        return "\n".join(lines)
