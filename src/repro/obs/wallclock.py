"""Host wall-clock profiler for the MO-ISA interpreter hot path.

The cycle domain is deeply observable (provenance attribution, top-down
accounting), but the *host* cost of interpreting MO-ISA instructions in
pure Python — the dominant end-to-end wall-clock now that compilation is
cached — was unmeasured.  This module profiles it:

- :class:`WallclockProfiler` aggregates per-opcode **self time**
  (``time.perf_counter_ns`` around each dispatch: one instruction on
  the interpreter, one group on the fused backend), call counts, and
  operand element counts, crossed with the instruction's provenance
  stage (``construct.error``, ``eliminate``, ...).
- Activation follows the :mod:`repro.obs.core` conventions: **no-op by
  default**.  :meth:`~repro.compiler.executor.Executor.run` checks
  :func:`active` once per program — not per instruction — so the
  disabled path costs one module-global read per ``run()`` call and the
  interpreter loop itself is untouched
  (``tests/compiler/test_executor_overhead.py`` holds the bound).
- A drained snapshot is plain JSON-able data; ``python -m repro.obs
  hotspots`` renders the ``host_wallclock`` entries of a metrics
  document that carries one.  No command-line tool writes them: a
  per-opcode table needs a caller that runs an executor inside
  :class:`profiled_scope`.

Phase-level wall timers (build / compile / rebind / execute / simulate)
are *not* recorded here — they go through the existing span collector
(:mod:`repro.obs.core`) as ``host.phase`` spans and surface in the same
``hotspots`` view via ``span_timings_s``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

WALLCLOCK_SCHEMA = "repro.obs.wallclock/1"

__all__ = [
    "WALLCLOCK_SCHEMA", "WallclockProfiler",
    "active", "enable", "disable", "profiled_scope",
    "merge_snapshots",
]


class WallclockProfiler:
    """Aggregates per-opcode host self time for interpreted programs.

    The table is keyed ``(opcode, provenance stage)``; cells accumulate
    call counts, self nanoseconds, and result element counts.  One
    profiler may span many program executions (e.g. every experiment of
    an eval run); :meth:`drain` returns the aggregate and resets it.
    """

    __slots__ = ("_table", "_programs")

    def __init__(self) -> None:
        self._table: Dict[tuple, list] = {}
        self._programs = 0

    # -- recording (the executor hot path) ------------------------------
    def record_group(self, instrs: Sequence[Any], elapsed_ns: int,
                     registers: Dict[str, Any]) -> None:
        """Account one dispatch that executed ``instrs``.

        An interpreted instruction is a group of one; the fused backend
        (:mod:`repro.compiler.fused`) dispatches whole same-opcode
        groups at once.  The group lands in the ``(opcode, stage)`` cell
        of its members' provenance stage (``?`` when they disagree or
        have none) with ``calls`` equal to the group size, so
        ``hotspots`` views stay comparable across executors (per-call
        time then reads as amortized time per fused instruction).
        ``registers`` is the register file *after* the dispatch, so
        destination sizes measure the elements it produced.
        """
        elements = 0
        stage = None
        for instr in instrs:
            prov = instr.provenance
            own = prov.stage if prov is not None and prov.stage else "?"
            stage = own if stage in (None, own) else "?"
            for name in instr.dsts:
                value = registers.get(name)
                if value is not None:
                    elements += int(value.size)
        key = (instrs[0].op.value, stage)
        cell = self._table.get(key)
        if cell is None:
            self._table[key] = [len(instrs), elapsed_ns, elements]
        else:
            cell[0] += len(instrs)
            cell[1] += elapsed_ns
            cell[2] += elements

    def record_program(self) -> None:
        """Count one profiled program execution (for per-run averages)."""
        self._programs += 1

    # -- consumption ----------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The aggregate as a plain JSON-able document."""
        by_opcode: Dict[str, Dict[str, float]] = {}
        by_opcode_stage: Dict[str, Dict[str, Dict[str, float]]] = {}
        total_ns = 0
        total_calls = 0
        for (op, stage), (calls, ns, elements) in self._table.items():
            total_ns += ns
            total_calls += calls
            slot = by_opcode.setdefault(
                op, {"calls": 0, "self_ns": 0, "elements": 0})
            slot["calls"] += calls
            slot["self_ns"] += ns
            slot["elements"] += elements
            by_opcode_stage.setdefault(op, {})[stage] = {
                "calls": calls, "self_ns": ns, "elements": elements,
            }
        return {
            "schema": WALLCLOCK_SCHEMA,
            "programs": self._programs,
            "instructions": total_calls,
            "total_self_ns": total_ns,
            "by_opcode": by_opcode,
            "by_opcode_stage": by_opcode_stage,
        }

    def drain(self) -> Dict[str, Any]:
        """:meth:`snapshot`, then reset the table."""
        snap = self.snapshot()
        self._table = {}
        self._programs = 0
        return snap


_active: Optional[WallclockProfiler] = None


def active() -> Optional[WallclockProfiler]:
    """The installed profiler, or None while profiling is off.

    This is the one check :meth:`Executor.run` performs per program; the
    per-instruction timing loop only exists while a profiler is active.
    """
    return _active


def enable(profiler: Optional[WallclockProfiler] = None
           ) -> WallclockProfiler:
    """Install (and return) the process-global wall-clock profiler."""
    global _active
    _active = profiler if profiler is not None else WallclockProfiler()
    return _active


def disable() -> None:
    global _active
    _active = None


class profiled_scope:
    """Context manager: profile executor runs inside, restore after.

    Yields the :class:`WallclockProfiler`; the caller drains it::

        with wallclock.profiled_scope() as prof:
            Executor().run(program)
        table = prof.drain()
    """

    def __init__(self, profiler: Optional[WallclockProfiler] = None):
        self._profiler = profiler
        self._previous: Optional[WallclockProfiler] = None

    def __enter__(self) -> WallclockProfiler:
        self._previous = _active
        return enable(self._profiler)

    def __exit__(self, *exc) -> bool:
        global _active
        _active = self._previous
        return False


def merge_snapshots(snapshots) -> Dict[str, Any]:
    """Fold several profiler snapshots into one (for multi-app views)."""
    merged = WallclockProfiler()
    out = merged.snapshot()
    for snap in snapshots:
        if not snap:
            continue
        out["programs"] += int(snap.get("programs", 0))
        out["instructions"] += int(snap.get("instructions", 0))
        out["total_self_ns"] += int(snap.get("total_self_ns", 0))
        for op, cell in (snap.get("by_opcode") or {}).items():
            slot = out["by_opcode"].setdefault(
                op, {"calls": 0, "self_ns": 0, "elements": 0})
            for field in ("calls", "self_ns", "elements"):
                slot[field] += int(cell.get(field, 0))
        for op, stages in (snap.get("by_opcode_stage") or {}).items():
            for stage, cell in stages.items():
                slot = out["by_opcode_stage"].setdefault(op, {}).setdefault(
                    stage, {"calls": 0, "self_ns": 0, "elements": 0})
                for field in ("calls", "self_ns", "elements"):
                    slot[field] += int(cell.get(field, 0))
    return out
