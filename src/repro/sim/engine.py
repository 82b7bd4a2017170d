"""Event-driven cycle-level simulation of ORIANNA accelerators.

Simulates a compiled :class:`~repro.compiler.isa.Program` on an
:class:`~repro.hw.accelerator.AcceleratorConfig` under one of three issue
policies:

- ``ooo``        — the ORIANNA-OoO controller (Sec. 6.3): any instruction
  whose operands are ready may issue to any free unit of its class, both
  within and across MO-DFGs and algorithm streams.
- ``inorder``    — scoreboarded in-order issue: instructions issue in
  program order and the head-of-line stalls on RAW or structural hazards
  (younger instructions never overtake).
- ``sequential`` — one instruction at a time (a naive controller with no
  overlap); used as an ablation lower bound.

The paper's ORIANNA-IO corresponds to ``inorder``.

A fault-free run's outcome depends only on the program's structure and
the configuration, so the structure slot's tables keep the last few
outcomes and replay them (see :class:`_StructureTables`): a frame whose
structure the process has already simulated under the same config
costs a copy, not a schedule.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.compiler.isa import Opcode, Program, UNIT_NONE
from repro.hw.accelerator import AcceleratorConfig
from repro.hw.units import BASE_STATIC_POWER_MW, STATIC_POWER_MW
from repro.obs import core as obs
from repro.sim.attribution import compute_attribution, compute_critical_path
from repro.sim.bottleneck import (
    BYTES_PER_WORD,
    CAUSE_SEQUENTIAL,
    CAUSE_WIDTH,
    DRAM_ENERGY_PER_WORD_NJ,
    WaitTracker,
    compute_cycle_accounting,
    structural_cause,
)
from repro.sim.stats import EnergyBreakdown, SimulationResult

POLICIES = ("ooo", "inorder", "sequential")


class _StructureTables:
    """A program structure's per-uid costs, kept in its structure slot.

    Latencies and energies follow from the instruction stream and the
    unit templates, so they are kept for the last templates they were
    computed with.  Instance counts do not enter, so the hardware
    optimizer's greedy search, which only adds instances, reuses them
    across configs.  Both lists are indexed by uid and read-only.

    ``outcomes`` keeps the raw state of the last :attr:`OUTCOMES`
    fault-free runs (an LRU), keyed by everything else a run reads:
    policy, issue width, unit counts, clock and buffer size
    (:meth:`Simulator._recall`).  The outcomes belong to the costs they
    were simulated with, so they are dropped whenever the latencies and
    energies are recomputed.  An entry holds no program, so no frame's
    values outlive the frame.
    """

    OUTCOMES = 4

    __slots__ = ("instructions", "templates", "latencies", "energies",
                 "outcomes")

    def __init__(self, program: Program):
        self.instructions = len(program.instructions)
        self.templates: Optional[Dict[str, object]] = None
        self.latencies: List[int] = []
        self.energies: List[float] = []
        self.outcomes: "OrderedDict[Tuple, _Outcome]" = OrderedDict()


class _Outcome(NamedTuple):
    """What one run computed: its result (with no schedule and no run
    state) and the raw state the schedule and the analyses come from.
    Kept in the memo, every part is read-only."""

    result: SimulationResult
    start: Dict[int, float]
    finish: Dict[int, float]
    tracker: WaitTracker


def _copy_result(result: SimulationResult, **changes) -> SimulationResult:
    """``result`` with ``changes`` applied and its own dicts and energy
    breakdown, so a caller that mutates it leaves the memo intact."""
    values = {f.name: getattr(result, f.name)
              for f in dataclasses.fields(result)}
    values.update(changes)
    for name, value in values.items():
        if isinstance(value, dict):
            values[name] = dict(value)
    values["energy"] = dataclasses.replace(values["energy"])
    return SimulationResult(**values)


class _RunState:
    """What one run's schedule and analyses are computed from, on first
    read.

    :class:`~repro.sim.stats.SimulationResult` calls each method at most
    once, when its attribute is first read; the lists come from the
    structure slot, the times and the tracker may be a kept outcome's,
    and none of them is ever written.
    """

    __slots__ = ("program", "latencies", "energies", "start", "finish",
                 "tracker")

    def __init__(self, program, latencies, energies, start, finish,
                 tracker):
        self.program = program
        self.latencies = latencies
        self.energies = energies
        self.start = start
        self.finish = finish
        self.tracker = tracker

    def schedule(self) -> Dict[int, Tuple[float, float]]:
        return {uid: (self.start[uid], self.finish[uid])
                for uid in self.start}

    def attribution(self, result: SimulationResult):
        return compute_attribution(self.program, self.latencies,
                                   self.energies)

    def critical_path(self, result: SimulationResult):
        return compute_critical_path(self.program, self.latencies,
                                     self.start, self.finish)

    def cycle_accounting(self, result: SimulationResult):
        return compute_cycle_accounting(self.program, self.tracker,
                                        self.latencies, self.start,
                                        self.finish, result)


class Simulator:
    """Simulates programs on a fixed accelerator configuration.

    Parameters
    ----------
    config:
        The accelerator to simulate (defaults to one unit per class).
    issue_width:
        Maximum instructions the controller dispatches per scheduling
        round (event timestamp); ``None`` means unbounded (an idealized
        controller).  Finite widths model a real dispatch port and are
        used by the issue-width ablation.
    """

    def __init__(self, config: Optional[AcceleratorConfig] = None,
                 issue_width: Optional[int] = None):
        if issue_width is not None and issue_width < 1:
            raise SimulationError("issue_width must be >= 1 or None")
        self.config = config or AcceleratorConfig()
        self.issue_width = issue_width

    # ------------------------------------------------------------------
    def run(self, program: Program, policy: str = "ooo",
            fault_plan=None) -> SimulationResult:
        """Simulate ``program`` under ``policy``.

        ``fault_plan`` (a :class:`repro.resilience.faults.FaultPlan`)
        folds a fault campaign's timing costs into the schedule: unit
        stalls and dropped-instruction reissues directly, and the retry
        attempts the value-domain executor recorded on the same plan.
        ``None`` (the default) simulates fault-free and is bit-identical
        to the pre-resilience engine.

        A fault-free run whose structure and configuration the slot has
        already simulated replays the kept outcome instead
        (``sim.memo.hit``/``sim.memo.miss`` count both).  Every call
        returns its own result, whose schedule and analyses are computed
        from ``program`` on first read, and records one telemetry record
        when observing.  Under ``obs.enable(debug=True)`` a replay is
        checked against a fresh simulation and raises
        :class:`SimulationError` on any difference.  A run with a
        ``fault_plan`` never reads or writes the kept outcomes.
        """
        if policy not in POLICIES:
            raise SimulationError(
                f"unknown policy {policy!r}; pick one of {POLICIES}"
            )

        with obs.trace.span("simulate", category="host.phase",
                            policy=policy,
                            instructions=len(program.instructions)):
            return self._run(program, policy, fault_plan)

    def _tables(self, program: Program) -> _StructureTables:
        """The program's structure tables, costed for this config's
        unit templates (built on first use per structure slot)."""
        slot = program.structure_slot()
        tables = slot.sim
        if tables is None or \
                tables.instructions != len(program.instructions):
            tables = slot.sim = _StructureTables(program)
        templates = self.config.templates
        if tables.templates != templates:
            tables.latencies = self._latencies(program)
            tables.energies = self._energies(program)
            tables.templates = dict(templates)
            tables.outcomes.clear()
        return tables

    def _run(self, program: Program, policy: str,
             fault_plan) -> SimulationResult:
        tables = self._tables(program)
        latencies = tables.latencies
        energies = tables.energies
        if fault_plan is None:
            outcome = self._recall(program, tables, policy)
            result = _copy_result(
                outcome.result,
                unit_instance_counts=dict(self.config.unit_counts))
        else:
            # apply_timing writes into the costs it receives; the
            # slot's tables are shared, so it gets copies.
            latencies = list(latencies)
            energies = list(energies)
            fault_counts = fault_plan.apply_timing(program, latencies,
                                                   energies)
            outcome = self._simulate(program, policy, latencies, energies)
            result = outcome.result
            if fault_counts:
                result.fault_counts = fault_counts
                for kind, value in fault_counts.items():
                    obs.counters.incr(f"resilience.sim.{kind}", value)
        result.run_state = _RunState(program, latencies, energies,
                                     outcome.start, outcome.finish,
                                     outcome.tracker)
        if obs.is_enabled():
            if obs.debug_enabled():
                self._check_schedule_invariants(program, result, latencies)
            obs.collector().record_sim(self._telemetry(program, result))
        return result

    def _recall(self, program: Program, tables: _StructureTables,
                policy: str) -> _Outcome:
        """The fault-free outcome of ``policy`` on this config: kept in
        ``tables`` on its first simulation, replayed after."""
        config = self.config
        key = (policy, self.issue_width,
               tuple(sorted(config.unit_counts.items())),
               config.clock_mhz, config.buffer_kib)
        memo = tables.outcomes
        outcome = memo.get(key)
        if outcome is None:
            obs.counters.incr("sim.memo.miss")
            outcome = memo[key] = self._simulate(
                program, policy, tables.latencies, tables.energies)
            while len(memo) > tables.OUTCOMES:
                memo.popitem(last=False)
        else:
            obs.counters.incr("sim.memo.hit")
            memo.move_to_end(key)
            if obs.debug_enabled():
                self._recheck(program, tables, policy, outcome)
        return outcome

    def _recheck(self, program: Program, tables: _StructureTables,
                 policy: str, kept: _Outcome) -> None:
        """Debug mode's check of a replay: simulate afresh (no memo, no
        telemetry, no analyses) and compare the raw run state."""
        fresh = self._simulate(program, policy, tables.latencies,
                               tables.energies)
        differs = [f.name for f in dataclasses.fields(kept.result)
                   if getattr(kept.result, f.name) !=
                   getattr(fresh.result, f.name)]
        if (kept.start, kept.finish) != (fresh.start, fresh.finish):
            differs.append("schedule")
        for name in ("ready_time", "wait_causes", "gated_by",
                     "depth_samples"):
            if getattr(kept.tracker, name) != getattr(fresh.tracker, name):
                differs.append(f"tracker.{name}")
        if differs:
            raise SimulationError(
                f"kept {policy} outcome of {program.algorithm or 'program'!r}"
                f" differs from a fresh simulation in {', '.join(differs)}"
            )

    def _simulate(self, program: Program, policy: str, latencies: List[int],
                  energies: List[float]) -> _Outcome:
        """One schedule of ``program``: the issue loop and the result's
        totals, with no schedule map, run state or telemetry."""
        instructions = program.instructions
        analysis = program.def_use()
        units = analysis.units
        producers = analysis.producers
        consumers = analysis.consumers

        # Per-unit-class instance free times (min-heaps of ready-at times).
        unit_free: Dict[str, List[float]] = {
            unit: [0.0] * count
            for unit, count in self.config.unit_counts.items()
        }
        for heap in unit_free.values():
            heapq.heapify(heap)
        # Out-of-order ready queues: one uid min-heap per unit class with
        # at least one instance, like per-unit reservation stations.
        queues: Dict[str, List[int]] = {
            unit: [] for unit, heap in unit_free.items() if heap
        }
        structural = {unit: structural_cause(unit) for unit in queues}

        finish: Dict[int, float] = {}
        start: Dict[int, float] = {}
        pending_preds: Dict[int, Set[int]] = {}
        completion_events: List[Tuple[float, int]] = []

        # CONST instructions are preloaded before execution starts.
        for instr in instructions:
            if instr.op is Opcode.CONST:
                finish[instr.uid] = 0.0
                start[instr.uid] = 0.0

        # Dispatch-ready vs issue bookkeeping for the top-down cycle
        # accounting (repro.sim.bottleneck).  Pure observation: it never
        # feeds back into scheduling decisions.
        tracker = WaitTracker(policy)

        def enqueue(uid: int) -> None:
            queue = queues.get(units[uid])
            if queue is None:
                raise SimulationError(
                    f"no unit instances of class {units[uid]!r} configured "
                    f"(needed by {instructions[uid].describe()})"
                )
            heapq.heappush(queue, uid)

        for instr in instructions:
            if instr.op is Opcode.CONST:
                continue
            preds = {d for d in producers[instr.uid] if d not in finish}
            pending_preds[instr.uid] = preds
            if not preds:
                tracker.mark_ready(instr.uid, 0.0)
                if policy == "ooo":
                    enqueue(instr.uid)

        issued: Set[int] = set()
        inflight = 0
        busy_cycles: Dict[str, float] = {}
        now = 0.0
        total_to_issue = len(pending_preds)
        next_inorder = 0  # index into non-const instruction order
        order = [i.uid for i in instructions if i.op is not Opcode.CONST]
        # Issue-stall events, by kind.  Plain local ints: counting is
        # always on (it is nearly free and feeds SimulationResult);
        # export to the obs collector happens once at end of run.
        stalls = {"structural": 0, "raw": 0, "overlap": 0, "width": 0}
        # Dispatch slots per scheduling round.
        width = self.issue_width if self.issue_width is not None else (
            float("inf")
        )
        # Uids the last dry round labelled explicitly (see issue_ooo).
        dry_visited: List[int] = []

        def issue_ooo() -> None:
            """One out-of-order scheduling round at `now`.

            Each class with ``f`` free instances issues its ``f`` oldest
            ready uids; the class heads are merged in global uid order,
            so a finite port's slots go to the oldest uids overall and
            units first enter ``busy_cycles`` in program order.  A uid
            left in its queue was deferred on a structural hazard, which
            is the cause its whole wait carries: it is labelled lazily,
            once, at issue.  The one exception is a round that runs a
            finite port dry while uids above the last issued one still
            wait: it labels every waiting uid explicitly (``width`` above
            that cut), and the next round that does not run dry relabels
            them as structural.
            """
            nonlocal inflight
            slots = width
            heads = [(queue[0], unit) for unit, queue in queues.items()
                     if queue and unit_free[unit][0] <= now]
            heapq.heapify(heads)
            cut = -1
            while heads and slots > 0:
                uid, unit = heads[0]
                queue = queues[unit]
                heapq.heappop(queue)
                self._issue_one(uid, instructions, latencies, unit_free,
                                now, start, finish, completion_events,
                                busy_cycles)
                if tracker.ready_time[uid] < now:  # it was deferred
                    tracker.block_if_unset(uid, structural[unit])
                    tracker.close(uid, now)
                issued.add(uid)
                inflight += 1
                slots -= 1
                cut = uid
                if queue and unit_free[unit][0] <= now:
                    heapq.heapreplace(heads, (queue[0], unit))
                else:
                    heapq.heappop(heads)
            depth = {unit: len(queue) for unit, queue in queues.items()
                     if queue}
            if slots == 0 and any(uid > cut for queue in queues.values()
                                  for uid in queue):
                # The port ran dry: uids below the cut were examined and
                # deferred, the ones above it were never reached.
                stalls["width"] += 1
                dry_visited.clear()
                for unit, queue in queues.items():
                    cause = structural[unit]
                    for uid in queue:
                        tracker.block_if_unset(uid, cause)
                        tracker.close(uid, now)
                        if uid < cut:
                            stalls["structural"] += 1
                            tracker.block(uid, cause)
                        else:
                            tracker.block(uid, CAUSE_WIDTH)
                    dry_visited.extend(queue)
            else:
                # Every waiting uid was examined and deferred.
                stalls["structural"] += sum(depth.values())
                for uid in dry_visited:
                    if uid not in issued:
                        tracker.close(uid, now)
                        tracker.block(uid, structural[units[uid]])
                dry_visited.clear()
            tracker.sample_depths(now, depth)

        def issue_in_order() -> None:
            """Issue as many instructions as in-order issue allows at `now`."""
            nonlocal next_inorder, inflight
            slots = width
            head_blocked_unit = ""
            while next_inorder < len(order) and slots > 0:
                uid = order[next_inorder]
                if pending_preds.get(uid):
                    stalls["raw"] += 1
                    break  # head-of-line RAW stall
                if policy == "sequential" and inflight > 0:
                    stalls["overlap"] += 1
                    tracker.close(uid, now)
                    tracker.block(uid, CAUSE_SEQUENTIAL)
                    break  # a naive controller never overlaps
                if not self._issue_one(uid, instructions, latencies,
                                       unit_free, now, start, finish,
                                       completion_events, busy_cycles):
                    stalls["structural"] += 1
                    tracker.close(uid, now)
                    tracker.block(
                        uid, structural_cause(instructions[uid].unit))
                    head_blocked_unit = instructions[uid].unit
                    break  # structural hazard
                tracker.close(uid, now)
                issued.add(uid)
                inflight += 1
                next_inorder += 1
                slots -= 1
            if next_inorder < len(order) and slots == 0:
                stalls["width"] += 1
                head = order[next_inorder]
                if not pending_preds.get(head):
                    tracker.close(head, now)
                    tracker.block(head, CAUSE_WIDTH)
            tracker.sample_depths(
                now, {head_blocked_unit: 1} if head_blocked_unit else {})

        try_issue = issue_ooo if policy == "ooo" else issue_in_order
        try_issue()
        while len(issued) < total_to_issue or completion_events:
            if not completion_events:
                raise SimulationError(
                    "deadlock: instructions remain but nothing is in flight"
                )
            now, uid = heapq.heappop(completion_events)
            # Drain all completions at this timestamp.
            finished = [uid]
            while completion_events and completion_events[0][0] == now:
                finished.append(heapq.heappop(completion_events)[1])
            inflight -= len(finished)
            for f_uid in finished:
                for dep in consumers[f_uid]:
                    preds = pending_preds.get(dep)
                    if preds is not None:
                        preds.discard(f_uid)
                        if not preds and dep not in issued:
                            # f_uid is the last-arriving producer: the
                            # data dependency that gated dep's dispatch.
                            tracker.mark_ready(dep, now, f_uid)
                            if policy == "ooo":
                                enqueue(dep)
            try_issue()

        total_cycles = int(round(max(finish.values(), default=0.0)))
        result = self._collect(program, policy, total_cycles, start, finish,
                               latencies, energies, busy_cycles, units)
        result.stall_counts = {k: v for k, v in stalls.items() if v}
        return _Outcome(result, start, finish, tracker)

    # ------------------------------------------------------------------
    def _issue_one(self, uid, instructions, latencies, unit_free, now,
                   start, finish, completion_events, busy_cycles) -> bool:
        instr = instructions[uid]
        unit = instr.unit
        if unit == UNIT_NONE:
            start[uid] = now
            finish[uid] = now
            heapq.heappush(completion_events, (now, uid))
            return True
        heap = unit_free.get(unit)
        if not heap:
            raise SimulationError(
                f"no unit instances of class {unit!r} configured "
                f"(needed by {instr.describe()})"
            )
        if heap[0] > now:
            return False
        free_at = heapq.heappop(heap)
        del free_at
        latency = latencies[uid]
        start[uid] = now
        finish[uid] = now + latency
        heapq.heappush(heap, now + latency)
        heapq.heappush(completion_events, (now + latency, uid))
        busy_cycles[unit] = busy_cycles.get(unit, 0.0) + latency
        return True

    def _telemetry(self, program: Program,
                   result: SimulationResult) -> Dict[str, object]:
        """The obs-collector record for one run (see repro.obs.metrics)."""
        instructions = {}
        for instr in program.instructions:
            if instr.uid not in result.schedule:
                continue
            entry = {
                "op": instr.op.value,
                "unit": instr.unit,
                "phase": instr.phase,
                "algorithm": instr.algorithm,
            }
            if instr.provenance is not None:
                entry["provenance"] = instr.provenance.to_dict()
            instructions[str(instr.uid)] = entry
        record = result.to_dict(include_schedule=True)
        record["label"] = program.algorithm or "program"
        record["instructions"] = instructions
        if result.cycle_accounting is not None:
            record["waits"] = result.cycle_accounting.waits_to_dict()
        return record

    def _check_schedule_invariants(self, program: Program,
                                   result: SimulationResult,
                                   latencies: List[int]) -> None:
        """Debug-mode consistency checks over a recorded schedule.

        Verifies that the ``unit_free`` heap bookkeeping of the issue
        loops in :meth:`_run` (the out-of-order per-class ready queues,
        and :meth:`_issue_one` for in-order issue) never over-subscribed
        a unit class: summed per-unit busy cycles must equal the
        scheduled instruction latencies, never exceed ``instances *
        makespan`` (utilization <= 1), and the schedule must be packable
        onto the configured instance count.  Also enforces the top-down
        cycle-accounting identity (``total_cycles == gating-chain compute
        + attributed wait``) and that each instruction's cause-labelled
        wait segments tile its ready-to-issue gap exactly.  Armed by
        ``repro.obs.enable(debug=True)``.
        """
        self._check_accounting_invariants(result)
        scheduled_busy: Dict[str, float] = {}
        by_unit: Dict[str, List[Tuple[float, float]]] = {}
        for instr in program.instructions:
            if instr.unit == UNIT_NONE or instr.uid not in result.schedule:
                continue
            s, f = result.schedule[instr.uid]
            if abs((f - s) - latencies[instr.uid]) > 1e-9:
                raise SimulationError(
                    f"schedule invariant violated: instruction "
                    f"#{instr.uid} spans {f - s} cycles but has latency "
                    f"{latencies[instr.uid]}"
                )
            scheduled_busy[instr.unit] = (
                scheduled_busy.get(instr.unit, 0.0) + (f - s)
            )
            by_unit.setdefault(instr.unit, []).append((s, f))

        for unit, busy in scheduled_busy.items():
            accounted = result.unit_busy_cycles.get(unit, 0)
            if abs(busy - accounted) > 1e-6:
                raise SimulationError(
                    f"busy-cycle accounting mismatch for {unit!r}: "
                    f"schedule says {busy}, counters say {accounted}"
                )
            if result.utilization(unit) > 1.0 + 1e-9:
                raise SimulationError(
                    f"unit {unit!r} utilization "
                    f"{result.utilization(unit):.3f} > 1.0: the unit_free "
                    f"heap admitted more work than its instances can do"
                )

        for unit, intervals in by_unit.items():
            count = self.config.unit_counts.get(unit, 0)
            free_at: List[float] = [0.0] * max(count, 1)
            heapq.heapify(free_at)
            for s, f in sorted(intervals):
                if free_at[0] > s + 1e-9:
                    raise SimulationError(
                        f"unit {unit!r} over-subscribed at cycle {s}: "
                        f"{count} instances cannot realize the recorded "
                        f"schedule"
                    )
                heapq.heapreplace(free_at, max(f, s))

    @staticmethod
    def _check_accounting_invariants(result: SimulationResult) -> None:
        """The cycle-accounting identity, enforced.

        The gating chain's ``latency + wait`` terms telescope to the
        makespan, so any residue beyond integer rounding means a wait
        interval was attributed twice or dropped.
        """
        acc = result.cycle_accounting
        if acc is None:
            return
        if not acc.identity_holds():
            raise SimulationError(
                f"cycle-accounting identity violated: total_cycles="
                f"{acc.total_cycles} but chain compute "
                f"{acc.chain_compute_cycles:.3f} + attributed wait "
                f"{acc.chain_wait_cycles:.3f} leaves a residue of "
                f"{acc.identity_error:.6f} cycles"
            )
        for uid, info in acc.instruction_waits.items():
            tiled = sum(info["causes"].values())
            if abs(tiled - info["wait"]) > 1e-2:
                raise SimulationError(
                    f"wait segments for instruction #{uid} do not tile "
                    f"its ready-to-issue gap: segments sum to {tiled} "
                    f"but issue - ready = {info['wait']}"
                )

    def _latencies(self, program: Program) -> List[int]:
        """Per-instruction latency in cycles, indexed by uid."""
        latencies: List[int] = []
        units = program.def_use().units
        shapes = program.register_shapes
        templates = self.config.templates
        for instr, unit in zip(program.instructions, units):
            if unit == UNIT_NONE:
                latencies.append(0)
                continue
            template = templates.get(unit)
            if template is None:
                raise SimulationError(
                    f"no latency template for unit class {unit!r} "
                    f"(needed by {instr.describe()})"
                )
            latencies.append(max(1, int(template.latency(instr, shapes))))
        return latencies

    def _energies(self, program: Program) -> List[float]:
        """Per-instruction dynamic energy in nJ, indexed by uid
        (UNIT_NONE costs zero)."""
        energies: List[float] = []
        units = program.def_use().units
        shapes = program.register_shapes
        templates = self.config.templates
        for instr, unit in zip(program.instructions, units):
            if unit == UNIT_NONE:
                energies.append(0.0)
                continue
            template = templates.get(unit)
            if template is None:
                raise SimulationError(
                    f"no energy template for unit class {unit!r} "
                    f"(needed by {instr.describe()})"
                )
            energies.append(float(template.energy(instr, shapes)))
        return energies

    # ------------------------------------------------------------------
    def _collect(self, program: Program, policy: str, total_cycles: int,
                 start: Dict[int, float], finish: Dict[int, float],
                 latencies: List[int], energies: List[float],
                 busy_cycles: Dict[str, float],
                 units: List[str]) -> SimulationResult:
        dynamic_nj = 0.0
        phase_work: Dict[str, int] = {}
        phase_span: Dict[str, Tuple[float, float]] = {}
        algo_span: Dict[str, Tuple[float, float]] = {}
        for instr in program.instructions:
            if units[instr.uid] != UNIT_NONE:
                dynamic_nj += energies[instr.uid]
                phase_work[instr.phase] = (
                    phase_work.get(instr.phase, 0) + latencies[instr.uid]
                )
            s, f = start[instr.uid], finish[instr.uid]
            lo, hi = phase_span.get(instr.phase, (s, f))
            phase_span[instr.phase] = (min(lo, s), max(hi, f))
            if instr.algorithm:
                lo, hi = algo_span.get(instr.algorithm, (s, f))
                algo_span[instr.algorithm] = (min(lo, s), max(hi, f))

        # Static energy: units are clock-gated (they leak only while
        # busy), while the controller/buffer/clock tree leaks for the
        # whole run.  This is why out-of-order execution saves energy by a
        # smaller factor than it saves time (Sec. 7.3): the gated part is
        # schedule-independent.
        cycle_s = 1.0 / (self.config.clock_mhz * 1e6)
        time_s = total_cycles * cycle_s
        gated_mj = sum(
            STATIC_POWER_MW.get(unit, 0.0) * busy * cycle_s
            for unit, busy in busy_cycles.items()
        )
        static_mj = BASE_STATIC_POWER_MW * time_s + gated_mj

        # Memory energy: live registers beyond the buffer spill to DRAM.
        peak_live, spilled = self._live_set(program, start, finish)
        memory_mj = spilled * DRAM_ENERGY_PER_WORD_NJ * 2 * 1e-6  # rd + wr

        return SimulationResult(
            policy=policy,
            total_cycles=total_cycles,
            clock_mhz=self.config.clock_mhz,
            energy=EnergyBreakdown(
                dynamic_mj=dynamic_nj * 1e-6,
                static_mj=static_mj,
                memory_mj=memory_mj,
            ),
            instruction_count=len(program.instructions),
            issued_count=sum(1 for unit in units if unit != UNIT_NONE),
            unit_busy_cycles={u: int(b) for u, b in busy_cycles.items()},
            unit_instance_counts=dict(self.config.unit_counts),
            phase_work_cycles=phase_work,
            phase_span_cycles={
                p: int(hi - lo) for p, (lo, hi) in phase_span.items()
            },
            algorithm_span_cycles={
                a: int(hi - lo) for a, (lo, hi) in algo_span.items()
            },
            peak_live_words=peak_live,
            spilled_words=spilled,
        )

    def _live_set(self, program: Program, start, finish) -> Tuple[int, int]:
        """Peak live words over the simulated schedule and spill volume:
        a register lives from its producer's start to its last reader's
        finish (its start when unread), and on a tie frees go first."""
        events: List[Tuple[float, int, int]] = []
        for producer, readers, words in program.def_use().registers.values():
            born = start[producer]
            events.append((born, 1, words))
            events.append((max([finish[r] for r in readers])
                           if readers else born, -1, words))
        events.sort(key=lambda e: (e[0], e[1]))

        live = 0
        peak = 0
        for _, kind, words in events:
            live += kind * words
            peak = max(peak, live)

        capacity_words = self.config.buffer_kib * 1024 // BYTES_PER_WORD
        spilled = max(0, peak - capacity_words)
        return peak, spilled
