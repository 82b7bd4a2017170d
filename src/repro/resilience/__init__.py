"""Fault injection, ABFT-checked execution, and recovery campaigns.

This package answers "what happens to an ORIANNA accelerator when the
hardware misbehaves" — the robustness counterpart to the performance
model in :mod:`repro.sim`:

- :mod:`repro.resilience.spec` — campaign specs (fault model, rate,
  targets) and recovery policies, both frozen and JSON round-trippable;
- :mod:`repro.resilience.faults` — deterministic, seedable fault plans
  over a compiled program, shared by the value and timing domains;
- :mod:`repro.resilience.abft` — algorithm-based fault tolerance
  checksums for the matrix-oriented ISA (Huang-Abraham style);
- :mod:`repro.resilience.recovery` — a run-loop hook for either executor
  that injects planned faults and recovers via retry → checkpoint → escalate;
- :mod:`repro.resilience.campaign` — seeded rate sweeps over the
  paper's applications with a Tbl. 5-style verdict table;
- :mod:`repro.resilience.supervisor` — the supervised solve pipeline:
  total and execute deadlines, bounded retry with backoff, a fused →
  interpreter → reference fallback ladder with per-structure circuit
  breakers, cache integrity checks, and an ABFT divergence sentinel;
- :mod:`repro.resilience.chaos` — host-level fault injection (handler
  exceptions, NaN storms, slow ops, cache poisoning) gating the
  supervisor's graceful degradation;
- ``python -m repro.resilience campaign | chaos`` — the CLI front-ends.
"""

from repro.resilience.abft import check_instruction, has_checker
from repro.resilience.chaos import ChaosConfig, evaluate_gates, run_chaos
from repro.resilience.supervisor import (
    CircuitBreaker,
    SupervisedSolver,
    SupervisorConfig,
)
from repro.resilience.campaign import (
    CampaignConfig,
    full_config,
    max_relative_error,
    quick_config,
    run_campaign,
)
from repro.resilience.recovery import ResilienceStats, execute_with_faults
from repro.resilience.faults import FaultEvent, FaultPlan, plan_faults
from repro.resilience.spec import (
    DETECT_ONLY,
    ESCALATE_CONTINUE,
    ESCALATE_ERROR,
    FAULT_BITFLIP,
    FAULT_DROP,
    FAULT_MIXED,
    FAULT_MODELS,
    FAULT_STALL,
    FAULT_VALUE,
    CampaignSpec,
    RecoveryPolicy,
)

__all__ = [
    "CampaignConfig",
    "CampaignSpec",
    "ChaosConfig",
    "CircuitBreaker",
    "SupervisedSolver",
    "SupervisorConfig",
    "evaluate_gates",
    "run_chaos",
    "DETECT_ONLY",
    "ESCALATE_CONTINUE",
    "ESCALATE_ERROR",
    "FAULT_BITFLIP",
    "FAULT_DROP",
    "FAULT_MIXED",
    "FAULT_MODELS",
    "FAULT_STALL",
    "FAULT_VALUE",
    "FaultEvent",
    "FaultPlan",
    "RecoveryPolicy",
    "ResilienceStats",
    "check_instruction",
    "execute_with_faults",
    "full_config",
    "has_checker",
    "max_relative_error",
    "plan_faults",
    "quick_config",
    "run_campaign",
]
