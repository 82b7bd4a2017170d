"""Supervised solve pipeline: deadlines, retry, and a fallback ladder.

One misbehaving solve — a poisoned fused plan, a corrupted session
program, a NaN storm from a failing unit, a stalled host handler —
must degrade gracefully instead of taking a serving process down or
silently returning a wrong answer.  :class:`SupervisedSolver` owns one
solve session (:class:`~repro.optim.compiled.CompiledSolver`): it
compiles the first graph, refreshes that program in place while the
structure holds, and wraps each run in four layers of supervision:

1. **Deadline enforcement** — a :class:`~repro.optim.safeguards.
   DeadlineGuard` with a total and an execute wall-clock deadline,
   installed as the rung executor's guard hook and checked after every
   step of its run loop (one instruction on the interpreter, one group
   on the fused backend).  An execute deadline demotes down the ladder
   (this rung is too slow); the total deadline, which also covers
   compiling, aborts with a structured :class:`~repro.errors.
   DeadlineExceeded` carrying partial progress.
2. **Bounded retry with exponential backoff + jitter** — transient
   failures (:class:`~repro.errors.FaultInjectionError`, handler
   exceptions surfacing as :class:`~repro.errors.ExecutionError`,
   non-finite solutions) are retried up to :data:`MAX_ATTEMPTS` times
   per rung.  Backoff delays come from a :func:`~repro.apps.seeding.
   stable_seed`-seeded generator, so campaigns stay byte-reproducible.
3. **A fallback executor ladder** — fused → compiled interpreter →
   reference NumPy oracle.  A per-structure-fingerprint **circuit
   breaker** quarantines the fused plan after K consecutive failures
   and re-probes (half-open) after a cool-down counted in solves, so a
   structurally poisoned plan stops burning retry budget.  After every
   refresh an **integrity check** verifies the session program's static
   constants; a poisoned program is dropped and compiled cold (a
   ``cache_eviction`` event) instead of executed.
4. **A runtime divergence sentinel** — opt-in ABFT column-sum spot
   checks (:mod:`repro.resilience.abft`) on a deterministic sample of
   MM/QR instructions after each accelerated run; a failed checksum
   demotes down the ladder rather than shipping a wrong answer.

Every degradation event increments a ``resilience.supervisor.*``
counter and lands in the per-solve ``degradation_report`` attached to
:class:`~repro.optim.result.OptimizationResult` (and renderable through
:meth:`~repro.sim.stats.SimulationResult.to_dict`).  The chaos campaign
(:mod:`repro.resilience.chaos`, ``python -m repro.resilience chaos``)
drives all of this with injected host-level faults.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.seeding import stable_seed
from repro.errors import (
    DeadlineExceeded,
    ExecutionError,
    FaultInjectionError,
    OptimizationError,
    ResilienceError,
)
from repro.compiler.executor import Executor, Injector
from repro.compiler.fused import FusedExecutor
from repro.compiler.isa import Opcode
from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.keys import Key
from repro.factorgraph.values import Values
from repro.obs import counters, trace
from repro.optim.compiled import CompiledSolver
from repro.optim.safeguards import DeadlineGuard, delta_is_finite
from repro.resilience import abft

__all__ = [
    "CircuitBreaker",
    "RUNG_FUSED",
    "RUNG_INTERPRETER",
    "RUNG_REFERENCE",
    "SupervisedSolver",
    "SupervisorConfig",
    "verify_template_integrity",
]

# Ladder rungs, fastest first.  "reference" is the pure-NumPy oracle
# (repro.factorgraph.elimination) — no compiled program at all, the
# rung of last resort.
RUNG_FUSED = "fused"
RUNG_INTERPRETER = "interpreter"
RUNG_REFERENCE = "reference"
DEFAULT_LADDER = (RUNG_FUSED, RUNG_INTERPRETER, RUNG_REFERENCE)

# Failures the supervisor treats as potentially transient: the recovery
# hook escalating an unrecovered fault, a host opcode handler raising
# mid-program, and the numeric-library errors a corrupted register file
# surfaces as (scipy/numpy finiteness checks raise plain ValueError, QR
# on a poisoned operand raises LinAlgError).  Anything else propagates
# (a bug, not a fault).
RETRYABLE_ERRORS = (FaultInjectionError, ExecutionError, ValueError,
                    FloatingPointError, np.linalg.LinAlgError)

# Bounded retry with exponential backoff + jitter, per rung.
MAX_ATTEMPTS = 3
BACKOFF_BASE_S = 0.001
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.25

# Circuit-breaker states (per structure fingerprint).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"
# Quarantine the fused plan for a structure after this many consecutive
# failures; re-probe (half-open) after the cool-down, counted in solve
# requests so behavior is deterministic.
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN = 8

# Sentinel opcodes: the two checksum-covered op classes that dominate
# the algebra (matrix products and QR fronts), and the ABFT tolerances
# their spot checks use.
SENTINEL_OPCODES = (Opcode.MM, Opcode.QR)
SENTINEL_RTOL = 1e-6
SENTINEL_ATOL = 1e-9


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs for one supervised solve pipeline (all deterministic)."""

    # Deadlines (None = unbounded); see DeadlineGuard for semantics.
    total_deadline_s: Optional[float] = None
    execute_deadline_s: Optional[float] = None
    # Master seed for backoff jitter and sentinel sampling.
    seed: int = 0
    # Divergence sentinel: ABFT spot checks on a sampled subset of
    # MM/QR instructions after each accelerated run (opt-in).
    sentinel: bool = False
    sentinel_rate: float = 0.25
    # The fallback ladder, fastest rung first.
    ladder: Tuple[str, ...] = DEFAULT_LADDER

    def __post_init__(self):
        if not self.ladder:
            raise ResilienceError("the executor ladder cannot be empty")
        unknown = [r for r in self.ladder if r not in DEFAULT_LADDER]
        if unknown:
            raise ResilienceError(f"unknown ladder rungs {unknown!r}")
        if not 0.0 <= self.sentinel_rate <= 1.0:
            raise ResilienceError("sentinel_rate must be in [0, 1]")


# ----------------------------------------------------------------------
# Circuit breaker (per structure fingerprint)
# ----------------------------------------------------------------------

class CircuitBreaker:
    """Quarantines repeatedly failing fused plans per structure.

    Classic three-state breaker, deterministic by construction: the
    cool-down is counted in :meth:`allow` calls (solve requests), not
    wall-clock time.

    - **closed** — requests pass; ``threshold`` *consecutive* failures
      open the breaker.
    - **open** — requests are rejected (the ladder skips the rung);
      after ``cooldown`` rejected requests the breaker half-opens.
    - **half-open** — exactly one probe request passes; success closes
      the breaker, failure re-opens it for another cool-down.
    """

    def __init__(self, threshold: int, cooldown: int):
        self.threshold = threshold
        self.cooldown = cooldown
        self._states: Dict[str, str] = {}
        self._failures: Dict[str, int] = {}
        self._cooldown_left: Dict[str, int] = {}

    def state(self, key: str) -> str:
        return self._states.get(key, BREAKER_CLOSED)

    def allow(self, key: str) -> bool:
        state = self.state(key)
        if state == BREAKER_CLOSED:
            return True
        if state == BREAKER_HALF_OPEN:
            return True
        left = self._cooldown_left.get(key, 0) - 1
        if left <= 0:
            self._states[key] = BREAKER_HALF_OPEN
            counters.incr("resilience.supervisor.breaker.half_open")
            return True
        self._cooldown_left[key] = left
        return False

    def record_success(self, key: str) -> None:
        if self.state(key) != BREAKER_CLOSED:
            counters.incr("resilience.supervisor.breaker.closed")
        self._states[key] = BREAKER_CLOSED
        self._failures[key] = 0

    def record_failure(self, key: str) -> None:
        state = self.state(key)
        if state == BREAKER_HALF_OPEN:
            # The probe failed: straight back to quarantine.
            self._states[key] = BREAKER_OPEN
            self._cooldown_left[key] = self.cooldown
            counters.incr("resilience.supervisor.breaker.reopened")
            return
        failures = self._failures.get(key, 0) + 1
        self._failures[key] = failures
        if failures >= self.threshold:
            self._states[key] = BREAKER_OPEN
            self._cooldown_left[key] = self.cooldown
            counters.incr("resilience.supervisor.breaker.opened")

    def summary(self) -> Dict[str, Any]:
        states = {}
        for key in self._states:
            states[key] = self.state(key)
        open_keys = sorted(k for k, s in states.items()
                           if s != BREAKER_CLOSED)
        return {"tracked": len(states), "not_closed": open_keys}


# ----------------------------------------------------------------------
# Session-program integrity
# ----------------------------------------------------------------------

def verify_template_integrity(compiled) -> List[str]:
    """Integrity complaints for a (refreshed) compiled program.

    A session refresh rewrites a factor's ``noise`` and ``expr``
    constants only when the factor object changes, and static ones
    (shape-only zeros and identity seeds) never, so in-memory corruption
    of them survives across refreshes.  This checks each of them
    (:attr:`~repro.compiler.cache.ValueSites.persistent`), in program
    order, for non-finite values and shape drift against the program's
    register map; a non-empty result means the program is poisoned and
    must be compiled afresh, not executed.
    """
    from repro.compiler.cache import value_sites

    complaints: List[str] = []
    program = compiled.program
    for position, kind in value_sites(program).persistent:
        instr = program.instructions[position]
        value = np.asarray(instr.meta.get("value"), dtype=float)
        dst = instr.dsts[0]
        expected = program.register_shapes.get(dst)
        if not np.all(np.isfinite(value)):
            problem = "contains non-finite values"
        elif expected is not None and tuple(value.shape) != tuple(expected):
            problem = (f"has shape {tuple(value.shape)}, register map says "
                       f"{tuple(expected)}")
        else:
            continue
        complaints.append(f"{kind} constant {dst} (uid {instr.uid}) {problem}")
    return complaints


# ----------------------------------------------------------------------
# The supervised solver
# ----------------------------------------------------------------------

@dataclass
class _SolveReport:
    """Mutable per-solve accumulator for the degradation report."""

    fingerprint: str
    rung: str = ""
    attempts: int = 0
    demotions: int = 0
    events: List[Dict[str, Any]] = field(default_factory=list)

    def event(self, kind: str, rung: str, attempt: int,
              detail: str = "") -> None:
        self.events.append({"kind": kind, "rung": rung,
                            "attempt": attempt, "detail": detail})
        counters.incr(f"resilience.supervisor.{kind}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "rung": self.rung,
            "attempts": self.attempts,
            "demotions": self.demotions,
            "events": list(self.events),
        }


class SupervisedSolver:
    """Solve-session linear solves under full supervision.

    A drop-in for :class:`~repro.optim.compiled.CompiledSolver` —
    ``solve(graph, values, ordering)`` returns the same update dict —
    made by :func:`~repro.optim.gauss_newton.solve_session` for
    ``backend="supervised"`` (with the default :class:`SupervisorConfig`),
    or built directly with a config of one's own, as the chaos campaign
    does.  Every compiled
    rung runs the program of :attr:`session`, the one solve session
    this solver owns.

    ``sleep`` is the backoff sleeper (injectable so tests and campaigns
    pay no real wall-clock for retries); ``injectors`` maps ladder rung
    names to chaos injectors (see :data:`repro.compiler.executor.
    Injector`), installed as the rung executor's run-loop hook; ``clock``
    times the deadline guards it arms and the latency it records (see
    :class:`~repro.optim.safeguards.DeadlineGuard`).
    """

    def __init__(self, config: Optional[SupervisorConfig] = None,
                 sleep: Callable[[float], None] = time.sleep,
                 injectors: Optional[Dict[str, Injector]] = None,
                 clock: Callable[[], float] = time.perf_counter):
        self.config = config if config is not None else SupervisorConfig()
        self.session = CompiledSolver()
        self.breaker = CircuitBreaker(BREAKER_THRESHOLD, BREAKER_COOLDOWN)
        self._sleep = sleep
        self._clock = clock
        self._injectors = dict(injectors or {})
        self._solve_index = 0
        self._solves = 0
        self._degraded_solves = 0
        self._events_by_kind: Dict[str, int] = {}
        self.last_report: Optional[Dict[str, Any]] = None

    # -- public surface ------------------------------------------------
    def solve(self, graph: FactorGraph, values: Values,
              ordering: Optional[Sequence[Key]] = None
              ) -> Dict[Key, np.ndarray]:
        """One supervised linear solve; returns the update dict."""
        from repro.obs import fleet

        config = self.config
        guard = DeadlineGuard(total_s=config.total_deadline_s,
                              execute_s=config.execute_deadline_s,
                              label="supervised solve", clock=self._clock)
        index = self._solve_index
        self._solve_index += 1
        registry = fleet.active()
        started = self._clock() if registry is not None else 0.0
        try:
            with trace.span("solve.supervised", category="host.phase",
                            solve=index):
                delta, report = self._solve_guarded(graph, values,
                                                    ordering, guard, index)
        except BaseException as exc:
            # The solve raised (ladder exhausted / deadline): record the
            # attempt's SLO outcome, but never a wrong/crash verdict —
            # scoring against an oracle is the caller's job.
            if registry is not None:
                self._record_fleet(
                    registry, guard, None,
                    self._clock() - started, failed=True,
                    deadline_failed=isinstance(exc, DeadlineExceeded))
            raise
        self._solves += 1
        counters.incr("resilience.supervisor.solves")
        if report.events:
            self._degraded_solves += 1
            counters.incr("resilience.supervisor.degraded_solves")
        for event in report.events:
            kind = event["kind"]
            self._events_by_kind[kind] = \
                self._events_by_kind.get(kind, 0) + 1
        self.last_report = report.to_dict()
        if registry is not None:
            self._record_fleet(registry, guard, self.last_report,
                               self._clock() - started, failed=False)
        return delta

    # Deadline-event kinds a _SolveReport carries when a guard fired.
    _DEADLINE_EVENT_KINDS = ("deadline_demotion", "deadline_exceeded")

    def _record_fleet(self, registry, guard, report: Optional[Dict[str, Any]],
                      elapsed_s: float, failed: bool,
                      deadline_failed: bool = False) -> None:
        """One solve's fleet SLO records (see repro.obs.fleet).

        Labeled by the rung that served the answer (``none`` when every
        rung failed).  Armed guards record a deadline hit/miss; solves
        with any degradation event — and failed solves, which by
        definition degraded all the way through the ladder — count as
        degraded.  Wall-clock latency lands in the (exact-gate-excluded)
        ``seconds`` sketch.
        """
        from repro.obs import fleet

        report = report or {}
        executor = report.get("rung") or ("none" if failed
                                          else self.config.ladder[0])
        registry.incr(fleet.M_SOLVE_TOTAL, executor=executor)
        registry.observe(fleet.M_SOLVE_LATENCY, elapsed_s,
                         executor=executor)
        events = report.get("events", [])
        if events or failed:
            registry.incr(fleet.M_SOLVE_DEGRADED, executor=executor)
        if guard.armed:
            missed = deadline_failed or any(
                e.get("kind") in self._DEADLINE_EVENT_KINDS
                for e in events)
            registry.incr(fleet.M_SOLVE_DEADLINE_MISS if missed
                          else fleet.M_SOLVE_DEADLINE_HIT,
                          executor=executor)

    def degradation_report(self) -> Dict[str, Any]:
        """Aggregate degradation summary across every solve so far."""
        return {
            "solves": self._solves,
            "degraded_solves": self._degraded_solves,
            "events_by_kind": dict(sorted(self._events_by_kind.items())),
            "breaker": self.breaker.summary(),
            "last_solve": self.last_report,
        }

    # -- the ladder ----------------------------------------------------
    def _solve_guarded(self, graph, values, ordering, guard, index):
        from repro.compiler.cache import graph_structure

        config = self.config
        # The one fingerprint of the solve: it keys the breaker and
        # seeds the backoff and sentinel streams, and a reference-only
        # ladder has no session program to take it from.
        fingerprint = graph_structure(graph, values,
                                      ordering).fingerprint[:12]
        report = _SolveReport(fingerprint=fingerprint)

        compiled = None
        needs_program = any(r != RUNG_REFERENCE for r in config.ladder)
        if needs_program:
            compiled = self._compile_checked(graph, values, ordering,
                                             guard, report)

        last_error: Optional[BaseException] = None
        for position, rung in enumerate(config.ladder):
            if rung == RUNG_FUSED and not self.breaker.allow(fingerprint):
                report.event("breaker_open", rung, 0,
                             "fused plan quarantined for this structure")
                report.demotions += 1
                counters.incr("resilience.supervisor.demotions")
                continue
            try:
                delta = self._run_rung(rung, compiled, graph, values,
                                       ordering, guard, report, index)
            except _RungFailed as failure:
                last_error = failure.error
                if rung == RUNG_FUSED:
                    self.breaker.record_failure(fingerprint)
                if position + 1 < len(config.ladder):
                    report.demotions += 1
                    counters.incr("resilience.supervisor.demotions")
                    continue
                break
            if rung == RUNG_FUSED:
                self.breaker.record_success(fingerprint)
            report.rung = rung
            return delta, report

        # Every rung exhausted: surface the last failure as-is when it
        # is already a framework error the safeguarded loops understand.
        report.rung = "none"
        counters.incr("resilience.supervisor.exhausted")
        if isinstance(last_error, (OptimizationError, FaultInjectionError)):
            raise last_error
        raise FaultInjectionError(
            f"supervised solve exhausted its executor ladder "
            f"{config.ladder!r}: {last_error}"
        )

    def _compile_checked(self, graph, values, ordering, guard, report):
        """Refresh or compile the session's program under the total
        deadline; a refreshed program must pass the integrity check."""
        session = self.session
        refreshed = session.prepare(graph, values, ordering)
        guard.check(partial={"stage": "compiled"})
        if refreshed:
            complaints = verify_template_integrity(session.compiled)
            if complaints:
                report.event("cache_eviction", "compile", 0, complaints[0])
                counters.incr("resilience.supervisor.cache_evictions")
                session.compiled = None
                session.prepare(graph, values, ordering)
                guard.check(partial={"stage": "recompiled"})
                remaining = verify_template_integrity(session.compiled)
                if remaining:
                    raise ResilienceError(
                        "cold recompile still fails integrity checks: "
                        + "; ".join(remaining)
                    )
        return session.compiled

    def _run_rung(self, rung, compiled, graph, values, ordering, guard,
                  report, index):
        """All attempts of one ladder rung; raises _RungFailed to demote."""
        backoff_rng = None
        for attempt in range(MAX_ATTEMPTS):
            report.attempts += 1
            counters.incr("resilience.supervisor.attempts")
            guard.start_execute()
            try:
                delta = self._execute_once(rung, compiled, graph, values,
                                           ordering, guard)
            except RETRYABLE_ERRORS as exc:
                report.event("retryable_failure", rung, attempt,
                             type(exc).__name__)
                if attempt + 1 >= MAX_ATTEMPTS:
                    report.event("retries_exhausted", rung, attempt, "")
                    raise _RungFailed(exc)
                backoff_rng = self._backoff(rung, attempt, index, report,
                                            backoff_rng)
                continue
            except DeadlineExceeded as exc:
                if exc.phase == "execute":
                    # This rung is too slow; retrying it wastes the
                    # remaining total budget — demote immediately.
                    report.event("deadline_demotion", rung, attempt,
                                 "execute deadline exceeded")
                    raise _RungFailed(exc)
                report.event("deadline_exceeded", rung, attempt,
                             f"{exc.phase} deadline exceeded")
                raise  # total deadline: nothing left to try
            finally:
                guard.end_execute()

            if not delta_is_finite(delta):
                report.event("nonfinite_solution", rung, attempt, "")
                if attempt + 1 >= MAX_ATTEMPTS:
                    report.event("retries_exhausted", rung, attempt, "")
                    raise _RungFailed(FaultInjectionError(
                        f"{rung} rung produced a non-finite solution"))
                backoff_rng = self._backoff(rung, attempt, index, report,
                                            backoff_rng)
                continue

            if self.config.sentinel and rung != RUNG_REFERENCE:
                divergent = self._sentinel_check(compiled, report.fingerprint,
                                                 index)
                if divergent:
                    # A checksum failure is evidence this rung computes
                    # wrong answers — do not retry it, demote.
                    report.event("sentinel_divergence", rung, attempt,
                                 divergent)
                    raise _RungFailed(FaultInjectionError(
                        f"sentinel divergence on {rung}: {divergent}"))
            return delta
        raise _RungFailed(FaultInjectionError(  # pragma: no cover
            f"{rung} rung exhausted its attempts"))

    def _execute_once(self, rung, compiled, graph, values, ordering,
                      guard):
        armed = guard.armed
        if rung == RUNG_REFERENCE:
            from repro.factorgraph.elimination import solve as reference
            from repro.factorgraph.ordering import min_degree_ordering

            with trace.span("solve.execute", category="host.phase",
                            rung=rung):
                linear = graph.linearize(values)
                if armed:
                    guard.check(partial={"stage": "linearized"})
                order = list(ordering) if ordering is not None else \
                    min_degree_ordering(linear)
                delta, _ = reference(linear, order)
            if armed:
                guard.check(partial={"stage": "solved"})
            self._last_registers = None
            return delta

        backend = FusedExecutor if rung == RUNG_FUSED else Executor
        executor = backend(guard=guard if armed else None,
                           injector=self._injectors.get(rung))
        with trace.span("solve.execute", category="host.phase", rung=rung,
                        instructions=len(compiled.program)):
            registers = executor.run(compiled.program)
        # Kept for the sentinel: SSA registers hold every instruction's
        # destination values after the run.
        self._last_registers = registers
        return compiled.extract_solution(registers)

    # -- retry/backoff -------------------------------------------------
    def _backoff(self, rung, attempt, index, report, rng):
        if rng is None:
            rng = np.random.default_rng(stable_seed(
                "supervisor.backoff", report.fingerprint, index,
                self.config.seed))
        delay = BACKOFF_BASE_S * (BACKOFF_FACTOR ** attempt)
        delay *= 1.0 + BACKOFF_JITTER * float(rng.uniform(-1.0, 1.0))
        report.event("retry", rung, attempt, f"backoff={delay:.6f}s")
        counters.incr("resilience.supervisor.retries")
        self._sleep(delay)
        return rng

    # -- sentinel ------------------------------------------------------
    def _sentinel_check(self, compiled, fingerprint, index) -> str:
        """ABFT spot checks on sampled MM/QR groups; '' when clean."""
        registers = self._last_registers
        if registers is None:
            return ""
        candidates = [instr for instr in compiled.program.instructions
                      if instr.op in SENTINEL_OPCODES]
        if not candidates:
            return ""
        rate = self.config.sentinel_rate
        count = max(1, int(round(rate * len(candidates)))) if rate > 0 \
            else 0
        if count <= 0:
            return ""
        rng = np.random.default_rng(stable_seed(
            "supervisor.sentinel", fingerprint, index, self.config.seed))
        picks = rng.choice(len(candidates), size=min(count, len(candidates)),
                           replace=False)

        def read(name: str) -> np.ndarray:
            return registers[name]

        for pick in sorted(int(p) for p in picks):
            instr = candidates[pick]
            counters.incr("resilience.supervisor.sentinel_checks")
            try:
                verdict = abft.check_instruction(
                    instr, read, rtol=SENTINEL_RTOL, atol=SENTINEL_ATOL)
            except KeyError:  # pragma: no cover - defensive
                continue
            if verdict is False:
                return f"ABFT checksum failed on {instr.describe()}"
        return ""


class _RungFailed(Exception):
    """Internal: one ladder rung gave up; carry the cause for demotion."""

    def __init__(self, error: BaseException):
        super().__init__(str(error))
        self.error = error

