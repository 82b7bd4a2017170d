"""Text timeline rendering of simulated schedules.

Turns a simulated schedule (``SimulationResult.schedule``) into a
per-unit-class occupancy strip — the quickest way to *see* why
out-of-order execution wins: under OoO the matmul/QR strips overlap, under
the naive controller they interleave serially.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import SimulationError
from repro.compiler.isa import Opcode, Program
from repro.sim.stats import SimulationResult

_PHASE_MARKS = {"construct": "c", "decompose": "Q", "backsub": "b"}


def render_timeline(program: Program, result: SimulationResult,
                    width: int = 72) -> str:
    """Render per-unit occupancy strips over the simulated makespan.

    Each strip cell covers ``total_cycles / width`` cycles and shows which
    pipeline phase occupied the unit class there (``c`` construct, ``Q``
    decompose, ``b`` backsub, ``.`` idle); uppercase overlap markers are
    kept simple — the *latest* phase drawn wins.
    """
    if not result.schedule:
        raise SimulationError(
            "result has no schedule; render a result returned by "
            "Simulator.run"
        )
    if width < 8:
        raise SimulationError("timeline width must be >= 8")
    total = max(result.total_cycles, 1)
    instr_of = {i.uid: i for i in program.instructions}

    strips: Dict[str, List[str]] = {}
    for uid, (start, finish) in result.schedule.items():
        instr = instr_of[uid]
        if instr.op is Opcode.CONST:
            continue
        strip = strips.setdefault(instr.unit, ["."] * width)
        lo = int(start / total * (width - 1))
        hi = max(lo, int(finish / total * (width - 1)))
        mark = _PHASE_MARKS.get(instr.phase, "#")
        for cell in range(lo, hi + 1):
            strip[cell] = mark

    lines = [
        f"timeline: {result.total_cycles} cycles, policy={result.policy} "
        f"(c=construct, Q=decompose, b=backsub, .=idle)"
    ]
    for unit in sorted(strips):
        occupancy = result.utilization(unit)
        lines.append(f"{unit:>8} |{''.join(strips[unit])}| "
                     f"{occupancy:5.1%}")
    return "\n".join(lines)


def busy_summary(result: SimulationResult) -> str:
    """One-line-per-unit busy/idle summary without needing a schedule."""
    lines = []
    for unit in sorted(result.unit_busy_cycles):
        count = result.unit_instance_counts.get(unit, 1)
        lines.append(
            f"{unit:>8} x{count}: busy {result.unit_busy_cycles[unit]:>8} "
            f"cycles, utilization {result.utilization(unit):5.1%}"
        )
    return "\n".join(lines)
