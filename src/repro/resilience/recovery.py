"""Fault injection and tiered recovery as a run-loop hook.

:class:`RecoveryHook` is the :data:`~repro.compiler.executor.Injector`
that :func:`execute_with_faults` installs on the process default
executor.  After every step it applies a :class:`~repro.resilience.
faults.FaultPlan`'s value faults to the step's instructions, verifies
them with the ABFT invariants of :mod:`repro.resilience.abft`, and
recovers detected corruption through a tiered policy:

1. **retry** — re-execute the instruction through its handler (bounded
   attempts; transient faults clear, the common case);
2. **checkpoint replay** — restore the last register-file snapshot
   (taken at the first step boundary after every ``checkpoint_every``
   instructions) and resume from its step, with the faulty site
   remapped to a spare unit instance (injection suppressed) — this is
   what catches persistent faults;
3. **escalate** — raise :class:`~repro.errors.FaultInjectionError`
   (caught by the solver safeguards) or, under a ``continue`` policy,
   keep the corrupted value and count the casualty.

Every attempt is recorded in ``plan.attempts`` so the timing domain
(:meth:`repro.sim.engine.Simulator.run` with ``fault_plan``) charges
cycles and energy consistent with the recovery work actually performed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import FaultInjectionError
from repro.compiler.fused import executor_factory
from repro.compiler.isa import Instruction, Opcode, Program
from repro.obs import counters
from repro.resilience import abft
from repro.resilience.faults import FaultEvent, FaultPlan, inject_fault
from repro.resilience.spec import (
    ESCALATE_ERROR,
    RecoveryPolicy,
    VALUE_KINDS,
)


@dataclass
class ResilienceStats:
    """Counts of what the fault campaign did to one execution."""

    injected: int = 0
    detected: int = 0
    recovered_retry: int = 0
    recovered_checkpoint: int = 0
    escalated: int = 0
    silent: int = 0
    retries: int = 0
    checkpoint_restores: int = 0
    abft_checks: int = 0
    dmr_checks: int = 0
    false_alarms: int = 0

    @property
    def recovered(self) -> int:
        return self.recovered_retry + self.recovered_checkpoint

    def to_dict(self) -> Dict[str, int]:
        out = dict(asdict(self), recovered=self.recovered)
        if not self.false_alarms:
            del out["false_alarms"]
        return out


class RecoveryHook:
    """Detection and tiered recovery for one run on a fresh executor;
    returns the step to resume from after a checkpoint restore."""

    def __init__(self, plan: FaultPlan,
                 policy: Optional[RecoveryPolicy] = None):
        self.plan = plan
        self.policy = policy if policy is not None else RecoveryPolicy()
        self.stats = ResilienceStats()
        # (step, instructions before it, registers): SSA registers are
        # never mutated in place, so a shallow copy is a checkpoint.
        self._checkpoint: Tuple[int, int, Dict[str, np.ndarray]] = (0, 0, {})
        self._step = self._done = 0
        # Per-site accounting stays idempotent across checkpoint
        # replays, which re-execute (and re-inject) sites already
        # counted: each site is injected, detected, silent and
        # recovered by retry at most once.
        self._injected_uids: set = set()
        self._detected_uids: set = set()
        self._silent_uids: set = set()
        self._recovered_uids: set = set()
        self._restored_for: set = set()

    def __call__(self, executor, program: Program, indices) -> Optional[int]:
        instructions = program.instructions
        for index in indices:
            if self._protect(executor, instructions[index]):
                # Roll the register file back; resume from its step.
                self._step, self._done, snapshot = self._checkpoint
                executor.registers.clear()
                executor.registers.update(snapshot)
                return self._step
        self._step += 1
        before, self._done = self._done, self._done + len(indices)
        every = self.policy.checkpoint_every
        if every and self._done // every > before // every:
            self._checkpoint = (self._step, self._done,
                                dict(executor.registers))
        return None

    # ------------------------------------------------------------------
    def _protect(self, executor, instr: Instruction) -> bool:
        """Inject into, verify and retry one executed instruction; True
        when only a checkpoint restore can clear it."""
        event = self.plan.event_for(instr.uid)
        attempt = 0
        while True:
            self.plan.attempts[instr.uid] = attempt + 1
            if attempt:
                executor.execute(instr)
            dropped = False
            if event is not None and (attempt == 0 or event.persistent):
                if instr.uid not in self._injected_uids:
                    self._injected_uids.add(instr.uid)
                    self.stats.injected += 1
                    counters.incr("resilience.faults.injected")
                # A dropped result never reaches the register file; the
                # watchdog notices the missing completion and reissues.
                dropped = inject_fault(event, executor.registers, instr)
            verdict = False if dropped else self._verify(executor, instr)
            if verdict is not False:
                if event is not None and attempt == 0 \
                        and event.kind in VALUE_KINDS \
                        and instr.uid not in self._silent_uids:
                    # Fault landed but nothing caught it: either the
                    # opcode is unchecked with DMR off (verdict None) or
                    # the corruption slipped under the checksum
                    # tolerance — silent data corruption either way.
                    self._silent_uids.add(instr.uid)
                    self.stats.silent += 1
                    counters.incr("resilience.faults.silent")
                if attempt > 0 and instr.uid not in self._recovered_uids:
                    self._recovered_uids.add(instr.uid)
                    self.stats.recovered_retry += 1
                    counters.incr("resilience.faults.recovered")
                return False
            if instr.uid not in self._detected_uids:
                self._detected_uids.add(instr.uid)
                self.stats.detected += 1
                counters.incr("resilience.faults.detected")
                if event is None:
                    # No fault was scheduled here: the check itself
                    # tripped (tolerance too tight for this operand
                    # scale).  Tracked so campaigns can flag it.
                    self.stats.false_alarms += 1
                    counters.incr("resilience.abft.false_alarms")
            if attempt < self.policy.max_retries:
                attempt += 1
                self.stats.retries += 1
                counters.incr("resilience.retries")
                continue
            return self._recover_beyond_retry(instr, event)

    def _verify(self, executor, instr: Instruction) -> Optional[bool]:
        """ABFT check, with the DMR fallback for uncovered opcodes; a
        CONST load is unchecked (None), as no fault plan targets one."""
        if self.policy.abft and abft.has_checker(instr.op):
            self.stats.abft_checks += 1
            counters.incr("resilience.abft.checks")
            return abft.check_instruction(instr, executor.read,
                                          rtol=self.policy.rtol,
                                          atol=self.policy.atol)
        if not self.policy.dmr_fallback or instr.op is Opcode.CONST:
            return None
        # Dual modular redundancy in time: re-execute and compare.  A
        # transient fault on the first execution shows up as a
        # mismatch; the re-executed (clean) values stay.
        self.stats.dmr_checks += 1
        counters.incr("resilience.dmr.checks")
        registers = executor.registers
        first = [registers[d] for d in instr.dsts]
        executor.execute(instr)
        return all(np.array_equal(before, registers[d], equal_nan=True)
                   for before, d in zip(first, instr.dsts))

    def _recover_beyond_retry(self, instr: Instruction,
                              event: Optional[FaultEvent]) -> bool:
        """Retries exhausted: checkpoint replay, then escalation."""
        if self.policy.checkpoint_every \
                and instr.uid not in self._restored_for:
            # One restore per site: a detection that survives its own
            # replay (a false alarm, or corruption the replay cannot
            # clear) must escalate rather than loop forever.
            self._restored_for.add(instr.uid)
            # Model re-execution on a spare unit instance: the stuck-at
            # site no longer participates, so its fault is suppressed
            # for the replay.
            self.plan.suppressed.add(instr.uid)
            self.stats.checkpoint_restores += 1
            self.stats.recovered_checkpoint += 1
            counters.incr("resilience.checkpoint.restores")
            counters.incr("resilience.faults.recovered")
            return True
        self.stats.escalated += 1
        counters.incr("resilience.faults.escalated")
        if self.policy.escalate == ESCALATE_ERROR:
            kind = event.kind if event is not None else "unknown"
            raise FaultInjectionError(
                f"unrecoverable {kind} fault after "
                f"{self.policy.max_retries} retries on {instr.describe()}"
            )
        return False


def execute_with_faults(program: Program, plan: FaultPlan,
                        policy: Optional[RecoveryPolicy] = None,
                        deadline=None
                        ) -> Tuple[Dict[str, np.ndarray], ResilienceStats]:
    """Run ``program`` under ``plan`` and ``policy`` on the process
    default executor, with ``deadline`` (a :class:`~repro.optim.
    safeguards.DeadlineGuard`) as its guard."""
    hook = RecoveryHook(plan, policy)
    registers = executor_factory()(guard=deadline, injector=hook).run(program)
    counters.incr("resilience.executions")
    return registers, hook.stats
