"""Chaos campaign: host-level fault injection against supervised solves.

Where :mod:`repro.resilience.campaign` injects *value-domain* faults
into individual instructions (bit flips, stuck units) and scores the
tiered ABFT recovery, this campaign attacks the **host pipeline** that
:mod:`repro.resilience.supervisor` protects: opcode handlers that
raise, NaN storms flooding the register file, pathologically slow
dispatch, poisoned session programs, and silent numerical corruption.
Each scenario runs one supervised solve per (application localization
graph × executor ladder top × fault) cell and scores the outcome
against the fault-free golden solution:

- **identical** — the no-fault control matched the unsupervised solve
  bit for bit (supervision must be a zero-cost wrapper when idle);
- **recovered** — correct answer from the *top* rung (bounded retry or
  a cold recompile of a poisoned program absorbed the fault);
- **degraded**  — correct answer from a *lower* rung (the ladder
  demoted past the fault);
- **wrong** — the solve returned, but the solution deviates;
- **crash** — the solve raised;
- **skipped** — the scenario does not apply to this program (e.g. no
  static constants to poison); excluded from the gates.

``cache_poison`` NaN-poisons the first static ``CONST`` of the session
program after one solve; the next solve's refresh must fail the
integrity check (a ``cache_eviction`` event) and compile cold.

The campaign gates (``evaluate_gates``) encode the acceptance bar:
all controls bit-identical, at least 95% of injected-fault scenarios
correct via recovery or demotion, and **zero** wrong answers without a
``resilience.supervisor.*`` degradation event.  ``python -m
repro.resilience chaos`` exits nonzero when any gate fails.

Everything is seeded: same seed ⇒ byte-identical BENCH JSON, so two
runs diffed with ``python -m repro.obs diff --exact`` double as the
retry-determinism gate (the full verdict table lives in the deep-
compared ``chaos`` section of the document).  Each scenario runs on a
:class:`VirtualClock`, so no host timing decides a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.apps import all_applications
from repro.apps.base import LOCALIZATION
from repro.errors import ExecutionError, OriannaError, ResilienceError
from repro.compiler.isa import Opcode
from repro.eval.harness import ExperimentTable
from repro.obs import fleet, trace
from repro.resilience.campaign import max_relative_error
from repro.resilience.supervisor import (
    RUNG_FUSED,
    RUNG_INTERPRETER,
    RUNG_REFERENCE,
    SupervisedSolver,
    SupervisorConfig,
)

# Tolerance for "the recovered solution equals the golden solution" on
# scenarios that may demote to the reference rung (which can differ
# from the compiled answer in final ulps).
SOLUTION_RTOL = 1e-6

# Host-level fault kinds, in campaign order.
FAULT_NONE = "none"
FAULT_HANDLER_TRANSIENT = "handler_transient"
FAULT_HANDLER_PERSISTENT = "handler_persistent"
FAULT_NAN_STORM = "nan_storm"
FAULT_SLOW_OP = "slow_op"
FAULT_CACHE_POISON = "cache_poison"
FAULT_SILENT_CORRUPTION = "silent_corruption"
FAULTS = (
    FAULT_NONE,
    FAULT_HANDLER_TRANSIENT,
    FAULT_HANDLER_PERSISTENT,
    FAULT_NAN_STORM,
    FAULT_SLOW_OP,
    FAULT_CACHE_POISON,
    FAULT_SILENT_CORRUPTION,
)

EXECUTOR_TOPS = (RUNG_FUSED, RUNG_INTERPRETER)

# The slow-op scenario's execute deadline and the delay it charges per
# slowed step, both on the scenario's virtual clock: the delay is twice
# the deadline, so the slowed rung's first step already demotes it,
# and a rung that runs unslowed reads no elapsed time at all.
SLOW_OP_DEADLINE_S = 0.1
SLOW_OP_DELAY_S = 2 * SLOW_OP_DEADLINE_S

VERDICT_IDENTICAL = "identical"
VERDICT_RECOVERED = "recovered"
VERDICT_DEGRADED = "degraded"
VERDICT_WRONG = "wrong"
VERDICT_CRASH = "crash"
VERDICT_SKIPPED = "skipped"
CORRECT_VERDICTS = (VERDICT_IDENTICAL, VERDICT_RECOVERED,
                    VERDICT_DEGRADED)


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos campaign: apps × executor tops × host fault kinds."""

    seed: int = 0
    apps: Tuple[str, ...] = ()
    executors: Tuple[str, ...] = EXECUTOR_TOPS
    faults: Tuple[str, ...] = FAULTS
    # Gate thresholds (the acceptance bar).
    min_correct_rate: float = 0.95

    def __post_init__(self):
        unknown = [f for f in self.faults if f not in FAULTS]
        if unknown:
            raise ResilienceError(f"unknown chaos faults {unknown!r}")
        bad = [e for e in self.executors if e not in EXECUTOR_TOPS]
        if bad:
            raise ResilienceError(f"unknown executor tops {bad!r}")
        if not self.faults or not self.executors:
            raise ResilienceError(
                "chaos campaign needs at least one fault and one executor")
        if self.apps:
            known = {app.name for app in all_applications()}
            missing = [a for a in self.apps if a not in known]
            if missing:
                raise ResilienceError(
                    f"unknown applications {missing!r} "
                    f"(known: {sorted(known)})")
        rate = float(self.min_correct_rate)
        if not (0.0 < rate <= 1.0) or not np.isfinite(rate):
            raise ResilienceError(
                f"min_correct_rate must be in (0, 1] "
                f"(got {self.min_correct_rate!r})")


def _ladder_for_top(top: str) -> Tuple[str, ...]:
    if top == RUNG_FUSED:
        return (RUNG_FUSED, RUNG_INTERPRETER, RUNG_REFERENCE)
    return (RUNG_INTERPRETER, RUNG_REFERENCE)


def _bit_identical(golden: Dict, candidate: Dict) -> bool:
    if set(golden) != set(candidate):
        return False
    return all(np.array_equal(np.asarray(golden[k]),
                              np.asarray(candidate[k])) for k in golden)


# ----------------------------------------------------------------------
# Injectors (see repro.compiler.executor.Injector)
# ----------------------------------------------------------------------

def _transient_handler_injector() -> Callable:
    state = {"raised": False}

    def inject(executor, program, indices):
        if not state["raised"]:
            state["raised"] = True
            raise ExecutionError("chaos: transient handler exception")
    return inject


def _persistent_handler_injector() -> Callable:
    def inject(executor, program, indices):
        raise ExecutionError("chaos: persistent handler exception")
    return inject


def _nan_storm_injector() -> Callable:
    def inject(executor, program, indices):
        instr = program.instructions[indices[-1]]
        if instr.dsts:
            dst = instr.dsts[0]
            value = np.asarray(executor.registers[dst], dtype=float)
            executor.registers[dst] = np.full_like(value, np.nan)
    return inject


class VirtualClock:
    """A clock that moves only by :meth:`advance`; calling it reads it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _slow_op_injector(clock: VirtualClock) -> Callable:
    def inject(executor, program, indices):
        clock.advance(SLOW_OP_DELAY_S)
    return inject


def _silent_corruption_injector() -> Callable:
    """Scale the first MM result by 1.5 — finite, plausible, wrong."""
    state = {"corrupted": False}

    def inject(executor, program, indices):
        if state["corrupted"]:
            return
        for index in indices:
            instr = program.instructions[index]
            if instr.op is Opcode.MM:
                dst = instr.dsts[0]
                executor.registers[dst] = 1.5 * np.asarray(
                    executor.registers[dst], dtype=float)
                state["corrupted"] = True
                return
    return inject


@dataclass
class ScenarioOutcome:
    """One (app, executor, fault) cell of the chaos matrix."""

    app: str
    executor: str
    fault: str
    verdict: str
    rung: str = ""
    attempts: int = 0
    demotions: int = 0
    events: List[Dict[str, Any]] = field(default_factory=list)
    error: str = ""

    @property
    def correct(self) -> bool:
        return self.verdict in CORRECT_VERDICTS

    @property
    def silent_wrong(self) -> bool:
        """A wrong answer with no degradation event — the cardinal sin."""
        return self.verdict == VERDICT_WRONG and not self.events

    def to_dict(self) -> Dict[str, Any]:
        return {
            "app": self.app,
            "executor": self.executor,
            "fault": self.fault,
            "verdict": self.verdict,
            "rung": self.rung,
            "attempts": self.attempts,
            "demotions": self.demotions,
            "events": list(self.events),
            "error": self.error,
        }


def run_scenario(app_name: str, graph, values, golden: Dict, top: str,
                 fault: str, seed: int) -> ScenarioOutcome:
    """One supervised solve under one host-level fault kind."""
    base = SupervisorConfig(seed=seed, ladder=_ladder_for_top(top))
    injectors: Dict[str, Callable] = {}
    clock = VirtualClock()

    if fault == FAULT_HANDLER_TRANSIENT:
        injectors[top] = _transient_handler_injector()
    elif fault == FAULT_HANDLER_PERSISTENT:
        injectors[top] = _persistent_handler_injector()
    elif fault == FAULT_NAN_STORM:
        injectors[top] = _nan_storm_injector()
    elif fault == FAULT_SLOW_OP:
        base = replace(base, execute_deadline_s=SLOW_OP_DEADLINE_S)
        injectors[top] = _slow_op_injector(clock)
    elif fault == FAULT_SILENT_CORRUPTION:
        base = replace(base, sentinel=True, sentinel_rate=1.0)
        injectors[top] = _silent_corruption_injector()

    # The supervisor, its deadlines and its backoff sleeps run on the
    # virtual clock (backoff delays are still computed, seeded and
    # recorded in the events), so the campaign never waits.
    solver = SupervisedSolver(config=base, sleep=clock.advance,
                              injectors=injectors, clock=clock)
    outcome = ScenarioOutcome(app=app_name, executor=top, fault=fault,
                              verdict=VERDICT_CRASH)

    try:
        if fault == FAULT_CACHE_POISON:
            solver.solve(graph, values)  # cold compile binds the session
            if not _poison_first_static_const(
                    solver.session.compiled.program):
                outcome.verdict = VERDICT_SKIPPED
                return outcome
            delta = solver.solve(graph, values)  # refresh must recompile
        elif fault == FAULT_SILENT_CORRUPTION and \
                not _program_has_mm(solver, graph, values):
            outcome.verdict = VERDICT_SKIPPED
            return outcome
        else:
            delta = solver.solve(graph, values)
    except OriannaError as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
        report = solver.last_report or {}
        outcome.rung = report.get("rung", "")
        outcome.attempts = report.get("attempts", 0)
        outcome.demotions = report.get("demotions", 0)
        outcome.events = list(report.get("events", []))
        return outcome

    report = solver.last_report or {}
    outcome.rung = report.get("rung", "")
    outcome.attempts = report.get("attempts", 0)
    outcome.demotions = report.get("demotions", 0)
    outcome.events = list(report.get("events", []))

    if fault == FAULT_NONE:
        outcome.verdict = VERDICT_IDENTICAL if _bit_identical(golden, delta) \
            else VERDICT_WRONG
        return outcome

    if max_relative_error(golden, delta) < SOLUTION_RTOL:
        outcome.verdict = VERDICT_RECOVERED if outcome.rung == top \
            else VERDICT_DEGRADED
    else:
        outcome.verdict = VERDICT_WRONG
    return outcome


def _poison_first_static_const(program) -> bool:
    """NaN-poison one static program constant; False if none exist."""
    from repro.compiler.cache import BIND_STATIC

    for instr in program.instructions:
        if instr.op is not Opcode.CONST:
            continue
        spec = instr.meta.get("binding")
        if spec is not None and spec[0] != BIND_STATIC:
            continue
        value = np.asarray(instr.meta.get("value"), dtype=float)
        if not value.size:
            continue
        bad = value.copy()
        bad.flat[0] = np.nan
        instr.meta["value"] = bad
        return True
    return False


def _program_has_mm(solver: SupervisedSolver, graph, values) -> bool:
    solver.session.prepare(graph, values)
    return any(instr.op is Opcode.MM
               for instr in solver.session.compiled.program.instructions)


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------

def run_chaos(config: Optional[ChaosConfig] = None
              ) -> Tuple[ExperimentTable, Dict[str, Any]]:
    """Run the chaos matrix; return the verdict table and BENCH document."""
    from repro.bench.core import BENCH_SCHEMA

    if config is None:
        config = ChaosConfig()
    apps = [a for a in all_applications()
            if not config.apps or a.name in config.apps]
    if not apps:
        raise ResilienceError(f"no applications match {config.apps!r}")

    table = ExperimentTable(
        "R2", "Chaos campaign: supervised-solve graceful degradation",
        ["application", "executor", "fault", "verdict", "rung",
         "attempts", "demotions", "events"],
    )
    outcomes: List[ScenarioOutcome] = []
    workloads: Dict[str, Any] = {}
    with trace.span("resilience.chaos", category="resilience",
                    apps=len(apps), faults=len(config.faults)), \
            fleet.fleet_scope() as registry, \
            fleet.label_scope(session="chaos"):
        for app in apps:
            graph, values = app.build_graphs(
                config.seed, [LOCALIZATION])[LOCALIZATION]
            with fleet.label_scope(app=app.name):
                _chaos_app(app, graph, values, config, registry, table,
                           outcomes, workloads)
    gates = evaluate_gates(outcomes, config.min_correct_rate)
    document = {
        "schema": BENCH_SCHEMA,
        "mode": "chaos",
        "seed": config.seed,
        "workloads": workloads,
        # Only the deterministic view embeds: the CI gate compares two
        # same-seed chaos documents byte-for-byte, so host wall-clock
        # latency series (unit "seconds") must stay out of the file.
        "fleet": fleet.exact_view(registry.snapshot()),
        "chaos": {
            "config": {
                "seed": config.seed,
                "apps": [a.name for a in apps],
                "executors": list(config.executors),
                "faults": list(config.faults),
                "min_correct_rate": config.min_correct_rate,
                "solution_rtol": SOLUTION_RTOL,
            },
            "scenarios": [o.to_dict() for o in outcomes],
            "gates": gates,
            "table": table.to_dict(),
        },
    }
    return table, document


def _chaos_app(app, graph, values, config: ChaosConfig, registry,
               table: ExperimentTable, outcomes: List[ScenarioOutcome],
               workloads: Dict[str, Any]) -> None:
    """One application's chaos cells (within the app's label scope)."""
    from repro.optim.compiled import CompiledSolver

    for top in config.executors:
        golden = CompiledSolver(executor=top).solve(graph, values)
        for fault in config.faults:
            outcome = run_scenario(app.name, graph, values, golden,
                                   top, fault, config.seed)
            outcomes.append(outcome)
            # The supervisor recorded total/latency/deadline/degraded
            # per solve; the campaign owns the oracle, so it records
            # the scored verdicts.
            registry.incr("fleet.scenario.verdicts", executor=top,
                          fault=fault, verdict=outcome.verdict)
            if outcome.verdict == VERDICT_WRONG:
                registry.incr(fleet.M_SOLVE_WRONG, executor=top)
            elif outcome.verdict == VERDICT_CRASH:
                registry.incr(fleet.M_SOLVE_CRASH, executor=top)
            table.add_row(
                application=outcome.app,
                executor=outcome.executor,
                fault=outcome.fault,
                verdict=outcome.verdict,
                rung=outcome.rung,
                attempts=outcome.attempts,
                demotions=outcome.demotions,
                events=len(outcome.events),
            )
            workloads[f"{app.name}/{top}/{fault}"] = {
                "total_cycles": 0.0,
                "energy_mj": 0.0,
                "verdict": outcome.verdict,
                "rung": outcome.rung,
                "events": len(outcome.events),
            }


def evaluate_gates(outcomes: List[ScenarioOutcome],
                   min_correct_rate: float = 0.95) -> Dict[str, Any]:
    """The campaign's pass/fail verdicts (the acceptance bar)."""
    controls = [o for o in outcomes if o.fault == FAULT_NONE]
    injected = [o for o in outcomes
                if o.fault != FAULT_NONE and o.verdict != VERDICT_SKIPPED]
    correct = sum(1 for o in injected if o.correct)
    correct_rate = correct / len(injected) if injected else 1.0
    silent_wrong = [f"{o.app}/{o.executor}/{o.fault}"
                    for o in outcomes if o.silent_wrong]
    controls_identical = all(o.verdict == VERDICT_IDENTICAL
                             for o in controls)
    gates = {
        "controls_identical": controls_identical,
        "injected_scenarios": len(injected),
        "correct_scenarios": correct,
        "correct_rate": correct_rate,
        "correct_rate_ok": correct_rate >= min_correct_rate,
        "silent_wrong": silent_wrong,
        "silent_wrong_ok": not silent_wrong,
    }
    gates["passed"] = bool(controls_identical and gates["correct_rate_ok"]
                           and gates["silent_wrong_ok"])
    return gates
