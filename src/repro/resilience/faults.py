"""Deterministic, seedable fault schedules over compiled programs.

:func:`plan_faults` walks a program in instruction order with one seeded
generator and decides, per instruction, whether a fault strikes and with
what parameters — so the schedule is a pure function of the program
structure and the :class:`~repro.resilience.spec.CampaignSpec`.  The
same :class:`FaultPlan` drives both execution domains:

- the **value domain** (:mod:`repro.resilience.recovery`) corrupts
  instruction results and records how many execution attempts each
  instruction needed;
- the **timing domain** (:meth:`FaultPlan.apply_timing`, consumed by
  :meth:`repro.sim.engine.Simulator.run`) charges stall cycles, drop
  re-issues, and the retry attempts observed in the value domain.

Keeping one plan for both domains is what makes a campaign's cycle
overhead consistent with its recovery verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, MutableSequence,
                    Optional, Tuple)

import numpy as np

from repro.compiler.isa import Instruction, Opcode, Program, UNIT_NONE
from repro.resilience.spec import (
    CampaignSpec,
    FAULT_BITFLIP,
    FAULT_DROP,
    FAULT_MIXED,
    FAULT_STALL,
    FAULT_VALUE,
    TIMING_KINDS,
    VALUE_KINDS,
)

# Cycles the (modeled) watchdog takes to notice a dropped instruction
# before re-issuing it.
DROP_WATCHDOG_CYCLES = 32

_CONCRETE_KINDS = (FAULT_VALUE, FAULT_BITFLIP, FAULT_STALL, FAULT_DROP)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault on one instruction.

    ``dst_u`` and ``element_u`` are uniform draws in ``[0, 1)`` made at
    planning time; the injector maps them onto a destination register
    and a flat element index when the output shapes are known, so the
    plan stays independent of execution.
    """

    uid: int
    kind: str
    persistent: bool = False
    magnitude: float = 0.05
    sign: int = 1
    dst_u: float = 0.0
    element_u: float = 0.0
    bit: int = 52
    stall_cycles: int = 16


class FaultPlan:
    """The fault schedule for one program plus cross-domain bookkeeping.

    ``attempts`` maps uid -> number of executions the value domain
    performed (1 = clean single execution); the timing domain charges
    the extra executions as extra unit-busy latency and dynamic energy.
    ``suppressed`` holds uids whose faults were neutralized by
    checkpoint replay (modeled as remapping to a spare unit instance).
    """

    def __init__(self, events: Dict[int, FaultEvent],
                 spec: Optional[CampaignSpec] = None):
        self.events = dict(events)
        self.spec = spec
        self.attempts: Dict[int, int] = {}
        self.suppressed: set = set()

    def __len__(self) -> int:
        return len(self.events)

    def event_for(self, uid: int) -> Optional[FaultEvent]:
        if uid in self.suppressed:
            return None
        return self.events.get(uid)

    def timing_events(self) -> List[FaultEvent]:
        return [e for e in self.events.values() if e.kind in TIMING_KINDS]

    # ------------------------------------------------------------------
    def apply_timing(self, program: Program, latencies: MutableSequence,
                     energies: MutableSequence) -> Dict[str, float]:
        """Fold the plan's timing effects into per-instruction costs.

        ``latencies``/``energies`` are indexed by uid (lists, or maps
        holding every faulted uid).  Mutates them in place and returns the
        fault-overhead counters for :class:`SimulationResult`:

        - value-fault retries re-occupy the unit, so latency and
          dynamic energy scale with the attempt count from the value
          domain (1 when no executor ran — a sim-only sweep then models
          timing faults only);
        - ``stall`` adds the spec's stall cycles (no dynamic energy:
          the unit is waiting, not computing);
        - ``drop`` charges a full re-execution plus the watchdog delay.
        """
        counts: Dict[str, float] = {
            "injected": float(len(self.events)),
            "stall_cycles": 0.0,
            "retry_cycles": 0.0,
            "drop_cycles": 0.0,
        }
        for uid, event in self.events.items():
            if uid >= len(program.instructions):
                continue
            base = latencies[uid]
            attempts = self.attempts.get(uid, 1)
            if attempts > 1:
                extra = base * (attempts - 1)
                latencies[uid] = base + extra
                energies[uid] = energies[uid] * attempts
                counts["retry_cycles"] += extra
            if event.kind == FAULT_STALL:
                latencies[uid] = latencies[uid] + event.stall_cycles
                counts["stall_cycles"] += event.stall_cycles
            elif event.kind == FAULT_DROP:
                extra = base + DROP_WATCHDOG_CYCLES
                latencies[uid] = latencies[uid] + extra
                energies[uid] = energies[uid] * 2.0
                counts["drop_cycles"] += extra
        return {k: v for k, v in counts.items() if v}


def eligible(instr: Instruction, spec: CampaignSpec) -> bool:
    """Whether one instruction is a candidate fault site under ``spec``."""
    if instr.op is Opcode.CONST or instr.unit == UNIT_NONE:
        return False
    if spec.target_units and instr.unit not in spec.target_units:
        return False
    if spec.target_stages:
        stage = "" if instr.provenance is None else instr.provenance.stage
        if not any(stage.startswith(prefix)
                   for prefix in spec.target_stages):
            return False
    return True


def plan_faults(program: Program, spec: CampaignSpec) -> FaultPlan:
    """Draw the deterministic fault schedule for ``program``.

    One ``np.random.default_rng(spec.seed)`` stream is consumed in
    instruction order with a fixed number of draws per eligible site,
    so two calls with the same program structure and spec produce
    bit-identical schedules regardless of platform.
    """
    rng = np.random.default_rng(spec.seed)
    events: Dict[int, FaultEvent] = {}
    for instr in program.instructions:
        if not eligible(instr, spec):
            continue
        # Fixed draw layout per site: strike?, kind, persistence,
        # magnitude jitter, sign, dst, element, bit.  Drawing them all
        # keeps the stream position independent of earlier outcomes.
        draws = rng.random(7)
        bit = int(rng.integers(0, 63))
        if draws[0] >= spec.rate:
            continue
        if spec.max_faults is not None and len(events) >= spec.max_faults:
            break
        if spec.fault_model == FAULT_MIXED:
            kind = _CONCRETE_KINDS[int(draws[1] * len(_CONCRETE_KINDS))]
        else:
            kind = spec.fault_model
        events[instr.uid] = FaultEvent(
            uid=instr.uid,
            kind=kind,
            persistent=draws[2] < spec.persistent_fraction,
            magnitude=spec.magnitude * (0.5 + draws[3]),
            sign=1 if draws[4] < 0.5 else -1,
            dst_u=draws[5],
            element_u=draws[6],
            bit=bit,
            stall_cycles=spec.stall_cycles,
        )
    return FaultPlan(events, spec)


# ----------------------------------------------------------------------
# Value-domain corruption
# ----------------------------------------------------------------------

def corrupt_arrays(event: FaultEvent,
                   arrays: Iterable[np.ndarray]) -> Tuple[int, np.ndarray]:
    """Apply a value-kind fault to one element of one output array.

    Returns ``(dst_index, corrupted_copy)``; the caller writes the copy
    back into the register file.  ``value`` faults apply a relative
    perturbation (with an absolute floor so exact zeros still change);
    ``bitflip`` flips one bit of the float64 representation, which can
    produce huge values, NaN, or infinity — exactly the corruptions the
    solver safeguards must survive.
    """
    arrs = [np.asarray(a) for a in arrays]
    if not arrs:
        raise ValueError("fault event has no destination arrays")
    dst = min(int(event.dst_u * len(arrs)), len(arrs) - 1)
    # order='C' forces a contiguous copy: registers written from
    # transposes are F-ordered views, whose C-reshape would silently be
    # a copy — and the corruption would never land.
    out = np.array(arrs[dst], dtype=float, copy=True, order="C")
    flat = out.reshape(-1)
    if flat.size == 0:
        return dst, out
    idx = min(int(event.element_u * flat.size), flat.size - 1)
    if event.kind == FAULT_BITFLIP:
        bits = flat[idx : idx + 1].view(np.uint64)
        bits ^= np.uint64(1) << np.uint64(event.bit)
    else:
        # Shift by `magnitude` relative to the element (with an
        # absolute floor of 1): the change is always at least
        # `magnitude` in absolute terms, so no element value -- zero,
        # -1, anything -- can absorb the fault into a fixed point.
        delta = event.sign * event.magnitude
        flat[idx] = flat[idx] + delta * max(1.0, abs(flat[idx]))
    return dst, out


def inject_fault(event: FaultEvent, registers: Dict[str, np.ndarray],
                 instr: Instruction) -> bool:
    """Apply ``event`` to ``instr``'s results in ``registers``: a value
    fault corrupts one of them, a drop removes them all (and returns
    True), and a stall leaves them alone."""
    if event.kind == FAULT_DROP:
        for dst in instr.dsts:
            registers.pop(dst, None)
        return True
    if event.kind in VALUE_KINDS and instr.dsts:
        dst, corrupted = corrupt_arrays(
            event, [registers[name] for name in instr.dsts])
        registers[instr.dsts[dst]] = corrupted
    return False


def fault_injector(plan: FaultPlan) -> Callable:
    """A run-loop injector that corrupts ``plan``'s value-fault sites.

    Install it as ``Executor(injector=fault_injector(plan))`` (see
    :data:`repro.compiler.executor.Injector`) for forensic runs such as
    ``repro.obs vtrace --fault-rate``: each corrupted result stays in
    the register file, undetected and unrecovered, as a faulty backend
    would leave it.  :class:`~repro.resilience.recovery.RecoveryHook`
    injects through the same :func:`inject_fault`, then recovers.
    """
    def inject(executor, program: Program, indices) -> None:
        for index in indices:
            instr = program.instructions[index]
            event = plan.event_for(instr.uid)
            if event is not None and event.kind in VALUE_KINDS:
                inject_fault(event, executor.registers, instr)
    return inject
