"""Fault-injection campaigns over the paper's application suite.

A campaign sweeps fault rates over the Tbl. 4 applications: per
application and rate it compiles the steady-state frame program once,
executes it many times on the ``REPRO_EXECUTOR`` backend under seeded
fault plans with ABFT-checked recovery, and scores each trial against
the interpreter's fault-free golden register file — the resilience
analogue of the Tbl. 5 mission-success table.

Verdicts per trial:

- **success** — execution completed and every register matches the
  golden file (recovery worked, or nothing needed recovering);
- **degraded** — completed but some register deviates (silent data
  corruption that slipped past detection);
- **crash** — an escalated fault or a downstream execution error
  aborted the run.

The emitted document uses the BENCH schema, so two campaign runs can be
compared with ``python -m repro.obs diff`` (``--exact`` doubles as the
determinism gate: same seed + spec ⇒ identical verdict table).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.apps import all_applications
from repro.apps.seeding import stable_seed
from repro.errors import DeadlineExceeded, OriannaError, ResilienceError
from repro.compiler.executor import Executor
from repro.compiler.fused import default_executor_name
from repro.eval.experiments import ORIANNA_CONFIG
from repro.eval.harness import ExperimentTable
from repro.obs import fleet, trace
from repro.resilience.recovery import execute_with_faults
from repro.resilience.faults import plan_faults
from repro.resilience.spec import CampaignSpec, RecoveryPolicy
from repro.sim import Simulator

# Tolerance for "the recovered output equals the golden output".
SOLUTION_RTOL = 1e-6

QUICK_RATES = (0.02,)
QUICK_TRIALS = 3
FULL_RATES = (0.002, 0.01, 0.02, 0.05)
FULL_TRIALS = 10


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: which apps, which rates, how many seeded trials."""

    rates: Tuple[float, ...] = QUICK_RATES
    trials: int = QUICK_TRIALS
    seed: int = 0
    apps: Tuple[str, ...] = ()
    spec: CampaignSpec = field(default_factory=CampaignSpec)
    policy: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    sim_policy: str = "ooo"
    # Per-scenario wall-clock limit: a hung or pathologically slow trial
    # raises DeadlineExceeded (scored as a crash) instead of hanging the
    # campaign — and CI — indefinitely.  None = unbounded.
    timeout_s: Optional[float] = None

    def __post_init__(self):
        if self.trials < 1:
            raise ResilienceError("trials must be >= 1")
        if not self.rates:
            raise ResilienceError("campaign needs at least one fault rate")
        if self.timeout_s is not None:
            timeout = float(self.timeout_s)
            if timeout <= 0.0 or not np.isfinite(timeout):
                raise ResilienceError(
                    f"timeout_s must be a positive number of seconds or "
                    f"None (got {self.timeout_s!r})"
                )


def quick_config(**overrides) -> CampaignConfig:
    return CampaignConfig(rates=QUICK_RATES, trials=QUICK_TRIALS,
                          **overrides)


def full_config(**overrides) -> CampaignConfig:
    return CampaignConfig(rates=FULL_RATES, trials=FULL_TRIALS,
                          **overrides)


def solution_registers(program) -> Tuple[str, ...]:
    """Registers carrying variable solutions (back-substitution outputs).

    Mission success is judged on what leaves the accelerator — the
    solved update vectors — not on every intermediate register: a
    corrupted element the downstream computation never reads (e.g. the
    dead subdiagonal of a triangular block) is not a mission failure.
    Falls back to every register for programs without a solve phase.
    """
    from repro.compiler.isa import Opcode

    names = [d for instr in program.instructions
             if instr.op is Opcode.BSUB for d in instr.dsts]
    if not names:
        names = [d for instr in program.instructions for d in instr.dsts]
    return tuple(names)


def max_relative_error(golden: Dict, candidate: Dict) -> float:
    """Worst per-element deviation ``|got - ref| / (1 + |ref|)`` over
    ``golden``'s registers or solution keys; inf on a missing entry, a
    shape mismatch or a non-finite value."""
    worst = 0.0
    for name, ref in golden.items():
        got = candidate.get(name)
        if got is None or np.shape(got) != np.shape(ref):
            return float("inf")
        ref = np.asarray(ref, dtype=float)
        got = np.asarray(got, dtype=float)
        if not np.all(np.isfinite(got)):
            return float("inf")
        denom = 1.0 + np.abs(ref)
        err = float(np.max(np.abs(got - ref) / denom)) if ref.size else 0.0
        worst = max(worst, err)
    return worst


@dataclass
class TrialOutcome:
    """One seeded execution under one fault plan."""

    app: str
    rate: float
    trial: int
    injected: int
    detected: int
    recovered: int
    silent: int
    escalated: int
    crashed: bool
    max_rel_err: float
    total_cycles: int
    energy_mj: float

    @property
    def success(self) -> bool:
        return not self.crashed and self.max_rel_err < SOLUTION_RTOL


def run_trial(program, golden: Dict[str, np.ndarray], app_name: str,
              rate: float, trial: int,
              config: CampaignConfig) -> TrialOutcome:
    """Execute + simulate one seeded fault plan; score against golden."""
    spec = config.spec.with_rate(rate).with_seed(
        stable_seed("resilience", app_name, f"{rate:.6g}", trial,
                    config.seed)
    )
    plan = plan_faults(program, spec)
    deadline = None
    if config.timeout_s is not None:
        from repro.optim.safeguards import DeadlineGuard

        deadline = DeadlineGuard(total_s=config.timeout_s,
                                 label=f"{app_name} trial {trial}")
    crashed = False
    timed_out = False
    max_err = float("inf")
    try:
        registers, stats = execute_with_faults(program, plan, config.policy,
                                               deadline=deadline)
        max_err = max_relative_error(golden, registers)
    except DeadlineExceeded:
        # A timed-out scenario is a crash verdict, not a hang — and a
        # deadline miss in the fleet SLO ledger.
        crashed = True
        timed_out = True
        stats = None
    except OriannaError:
        crashed = True
        stats = None
    # The timing domain replays the same plan (now carrying the value
    # domain's retry attempts) so cycle overhead matches recovery work.
    result = Simulator(ORIANNA_CONFIG).run(program, config.sim_policy,
                                           fault_plan=plan)
    registry = fleet.active()
    if registry is not None:
        # All values here are deterministic functions of the seed —
        # counts and *simulated* latency — so the campaign's fleet
        # section is byte-identical across same-seed runs.
        labels = {"app": app_name, "executor": default_executor_name(),
                  "stage": f"rate={rate:.6g}"}
        registry.incr(fleet.M_SOLVE_TOTAL, **labels)
        registry.observe(fleet.M_SOLVE_SIM_LATENCY,
                         result.time_ms / 1e3,
                         unit=fleet.UNIT_SIM_SECONDS, **labels)
        if deadline is not None and deadline.armed:
            registry.incr(fleet.M_SOLVE_DEADLINE_MISS if timed_out
                          else fleet.M_SOLVE_DEADLINE_HIT, **labels)
        if crashed:
            registry.incr(fleet.M_SOLVE_CRASH, **labels)
        elif max_err >= SOLUTION_RTOL:
            registry.incr(fleet.M_SOLVE_WRONG, **labels)
    return TrialOutcome(
        app=app_name, rate=rate, trial=trial,
        injected=len(plan.events) if stats is None else stats.injected,
        detected=0 if stats is None else stats.detected,
        recovered=0 if stats is None else stats.recovered,
        silent=0 if stats is None else stats.silent,
        escalated=1 if stats is None else stats.escalated,
        crashed=crashed,
        max_rel_err=max_err,
        total_cycles=result.total_cycles,
        energy_mj=result.energy_mj,
    )


def run_campaign(config: Optional[CampaignConfig] = None
                 ) -> Tuple[ExperimentTable, Dict[str, Any]]:
    """Sweep the campaign; return the verdict table and JSON document."""
    from repro.bench.core import BENCH_SCHEMA

    if config is None:
        config = quick_config()
    table = ExperimentTable(
        "R1", "Fault-injection campaign: recovery and success rate",
        ["application", "rate", "trials", "injected", "detected_rate",
         "recovered_rate", "success_rate", "max_degradation",
         "cycle_overhead"],
    )
    workloads: Dict[str, Any] = {}
    apps = [a for a in all_applications()
            if not config.apps or a.name in config.apps]
    if not apps:
        raise ResilienceError(
            f"no applications match {config.apps!r}"
        )
    with trace.span("resilience.campaign", category="resilience",
                    apps=len(apps), rates=len(config.rates),
                    trials=config.trials), \
            fleet.fleet_scope() as registry, \
            fleet.label_scope(session="campaign"):
        for app in apps:
            program = app.compile_frame(config.seed)
            registers = Executor().run(program)
            golden = {name: registers[name]
                      for name in solution_registers(program)}
            clean = Simulator(ORIANNA_CONFIG).run(program,
                                                  config.sim_policy)
            for rate in config.rates:
                outcomes = [
                    run_trial(program, golden, app.name, rate, trial,
                              config)
                    for trial in range(config.trials)
                ]
                _record(table, workloads, app.name, rate, outcomes, clean)
                # One rollup window per (app, rate) trial group — a
                # deterministic key, never wall time.
                registry.advance_window(f"{app.name}/rate={rate:.6g}")
    document = {
        "schema": BENCH_SCHEMA,
        "mode": "campaign",
        "seed": config.seed,
        "workloads": workloads,
        # Deterministic by construction (counts + simulated latency
        # only): compared byte-for-byte by the CI determinism gate.
        "fleet": registry.snapshot(),
        "campaign": {
            "spec": config.spec.to_dict(),
            "policy": config.policy.to_dict(),
            "rates": list(config.rates),
            "trials": config.trials,
            "sim_policy": config.sim_policy,
            "timeout_s": config.timeout_s,
            "solution_rtol": SOLUTION_RTOL,
            "table": table.to_dict(),
        },
    }
    return table, document


def _record(table: ExperimentTable, workloads: Dict[str, Any],
            app_name: str, rate: float, outcomes: List[TrialOutcome],
            clean) -> None:
    trials = len(outcomes)
    injected = sum(o.injected for o in outcomes)
    detected = sum(o.detected for o in outcomes)
    recovered = sum(o.recovered for o in outcomes)
    successes = sum(1 for o in outcomes if o.success)
    finite_errs = [o.max_rel_err for o in outcomes
                   if np.isfinite(o.max_rel_err)]
    max_degradation = max(finite_errs) if finite_errs else float("inf")
    mean_cycles = sum(o.total_cycles for o in outcomes) / trials
    mean_energy = sum(o.energy_mj for o in outcomes) / trials
    overhead = mean_cycles / clean.total_cycles if clean.total_cycles \
        else 1.0
    table.add_row(
        application=app_name,
        rate=rate,
        trials=trials,
        injected=injected,
        detected_rate=detected / injected if injected else 1.0,
        recovered_rate=recovered / injected if injected else 1.0,
        success_rate=successes / trials,
        max_degradation=max_degradation,
        cycle_overhead=overhead,
    )
    workloads[f"{app_name}/rate={rate:.6g}"] = {
        "total_cycles": mean_cycles,
        "energy_mj": mean_energy,
        "clean_cycles": clean.total_cycles,
        "clean_energy_mj": clean.energy_mj,
        "trials": trials,
        "injected": injected,
        "detected": detected,
        "recovered": recovered,
        "silent": sum(o.silent for o in outcomes),
        "escalated": sum(o.escalated for o in outcomes),
        "crashes": sum(1 for o in outcomes if o.crashed),
        "success_rate": successes / trials,
        "max_degradation": max_degradation
        if np.isfinite(max_degradation) else None,
        "cycle_overhead": overhead,
    }
