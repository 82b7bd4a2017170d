"""Shared operation cost accounting for baseline models.

Baseline CPUs/GPUs execute the same logical work as the accelerator: the
instruction stream is a faithful inventory of the matrix operations one
solver iteration performs, so counting each instruction's floating-point
work gives the baseline models their workload.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.compiler.isa import Instruction, Opcode, Program


def _numel(shape: Tuple[int, ...]) -> int:
    count = 1
    for d in shape:
        count *= d
    return count


def instruction_flops(instr: Instruction,
                      shapes: Dict[str, Tuple[int, ...]]) -> int:
    """Floating-point operations one instruction represents."""
    op = instr.op
    if op is Opcode.CONST:
        return 0
    if op in (Opcode.RR, Opcode.MM):
        a = shapes[instr.srcs[0]]
        b = shapes[instr.srcs[1]]
        m = a[0] if len(a) == 2 else 1
        k = a[1] if len(a) == 2 else a[0]
        n = b[1] if len(b) == 2 else 1
        return 2 * m * k * n
    if op in (Opcode.RV, Opcode.MV):
        a = shapes[instr.srcs[0]]
        return 2 * a[0] * a[1]
    if op in (Opcode.VP, Opcode.ADD, Opcode.COPY, Opcode.STACK, Opcode.RT,
              Opcode.SKEW):
        return sum(_numel(shapes[r]) for r in instr.dsts)
    if op in (Opcode.LOG, Opcode.EXP, Opcode.JR, Opcode.JRINV):
        # Trig, norms and two 3x3 products (Rodrigues-style formulas).
        return 120
    if op is Opcode.EMBED:
        out = sum(_numel(shapes[r]) for r in instr.dsts)
        return 40 * out
    if op is Opcode.QR:
        rows = sum(s["rows"] for s in instr.meta["sources"])
        cols = instr.meta["total_cols"] + 1
        frontal = instr.meta["frontal_dim"]
        rotations = sum(max(rows - j - 1, 0) for j in range(frontal))
        return 6 * rotations * cols
    if op is Opcode.BSUB:
        f = instr.meta["frontal_dim"]
        sep = sum(d for _, d in instr.meta["parents"])
        return f * f + 2 * f * sep
    raise ValueError(f"no flop model for opcode {op}")


def program_flops(program: Program) -> int:
    """Total floating-point work of one compiled iteration."""
    shapes = program.register_shapes
    return sum(instruction_flops(i, shapes) for i in program.instructions)


def program_op_count(program: Program) -> int:
    """Number of non-trivial operations (CONST loads excluded)."""
    return sum(1 for i in program.instructions if i.op is not Opcode.CONST)


def phase_flops(program: Program) -> Dict[str, int]:
    """Flops per pipeline phase (construct / decompose / backsub)."""
    shapes = program.register_shapes
    out: Dict[str, int] = {}
    for instr in program.instructions:
        out[instr.phase] = out.get(instr.phase, 0) + instruction_flops(
            instr, shapes)
    return out


def dense_qr_flops(rows: int, cols: int) -> int:
    """Householder QR of a dense rows x cols matrix (~2 n^2 (m - n/3))."""
    n = min(rows, cols)
    return int(2 * n * n * (rows - n / 3.0))


def dense_backsub_flops(cols: int) -> int:
    return cols * cols


def dense_qr_cycles(rows: int, cols: int, lane_width: int = 8,
                    pipeline_depth: int = 4) -> int:
    """The QR template's latency when fed the whole dense matrix."""
    rotations = sum(max(rows - j - 1, 0) for j in range(min(rows, cols)))
    return (rotations * max(1, math.ceil((cols + 1) / lane_width))
            + pipeline_depth * cols + 8)


def dense_backsub_cycles(cols: int, lanes: int = 4) -> int:
    return math.ceil(cols * (cols + 1) / 2 / lanes) + 6
