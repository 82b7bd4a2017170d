"""Hardware unit templates (Sec. 6.1).

Each template models one class of computing unit with three ingredients:

- a per-instance :class:`~repro.hw.resources.Resources` cost,
- a cycle-accurate latency model ``latency(instr)`` used by the simulator,
- a dynamic energy model ``energy(instr)`` in nanojoules.

Templates mirror the paper's building blocks: a systolic-array matrix
multiplier, a Givens-rotation QR decomposition unit, a SIMD vector unit, a
CORDIC special-function unit (exp/log/Jacobian maps), and a triangular
back-substitution unit.  Latency/energy constants are calibrated so the
relative results of Sec. 7 (who wins, by what factor) are preserved; see
DESIGN.md for the substitution note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import HardwareError
from repro.compiler.isa import (
    Instruction,
    Opcode,
    UNIT_BSUB,
    UNIT_MATMUL,
    UNIT_QR,
    UNIT_SPECIAL,
    UNIT_VECTOR,
)
from repro.hw.resources import Resources

# Energy constants (nJ) -- FPGA-class 32-bit arithmetic including the
# local buffer/routing energy attributable to each operation.
ENERGY_PER_MAC = 1.0
ENERGY_PER_ELEMENT_MOVE = 0.18
ENERGY_PER_CORDIC = 8.0
INSTRUCTION_OVERHEAD_NJ = 4.5

# Static power per unit instance (mW) -- drives the OoO energy advantage:
# a faster schedule burns static power for less time.
# Per-unit power while busy (clock-gated when idle).
STATIC_POWER_MW = {
    UNIT_MATMUL: 1350.0,
    UNIT_VECTOR: 315.0,
    UNIT_SPECIAL: 450.0,
    UNIT_QR: 1620.0,
    UNIT_BSUB: 540.0,
}

# Controller, on-chip buffer and clock tree: leaks for the whole run.
BASE_STATIC_POWER_MW = 7200.0


def _shape_of(instr: Instruction, shapes: Dict[str, Tuple[int, ...]],
              reg: str) -> Tuple[int, ...]:
    shape = shapes.get(reg)
    if shape is None:
        raise HardwareError(f"no shape recorded for register {reg}")
    return shape


@dataclass(frozen=True)
class UnitTemplate:
    """Base class: subclasses specialize latency/energy models."""

    name: str
    unit_class: str
    resources: Resources

    def latency(self, instr: Instruction,
                shapes: Dict[str, Tuple[int, ...]]) -> int:
        raise NotImplementedError

    def energy(self, instr: Instruction,
               shapes: Dict[str, Tuple[int, ...]]) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class MatMulUnit(UnitTemplate):
    """Systolic-array matrix multiplier (RR, RV, MM, MV)."""

    array_size: int = 8

    def _dims(self, instr, shapes) -> Tuple[int, int, int]:
        a = _shape_of(instr, shapes, instr.srcs[0])
        b = _shape_of(instr, shapes, instr.srcs[1])
        m = a[0] if len(a) == 2 else 1
        k = a[1] if len(a) == 2 else a[0]
        n = b[1] if len(b) == 2 else 1
        return m, k, n

    def latency(self, instr, shapes) -> int:
        m, k, n = self._dims(instr, shapes)
        s = self.array_size
        tiles = math.ceil(m / s) * math.ceil(n / s)
        return tiles * k + s // 2 + 2

    def energy(self, instr, shapes) -> float:
        m, k, n = self._dims(instr, shapes)
        return m * k * n * ENERGY_PER_MAC + INSTRUCTION_OVERHEAD_NJ


@dataclass(frozen=True)
class VectorUnit(UnitTemplate):
    """SIMD lane unit for VP / RT / SKEW / COPY / ADD / STACK."""

    lanes: int = 8

    def _elements(self, instr, shapes) -> int:
        total = 0
        for reg in instr.dsts:
            shape = _shape_of(instr, shapes, reg)
            count = 1
            for d in shape:
                count *= d
            total += count
        return max(total, 1)

    def latency(self, instr, shapes) -> int:
        return math.ceil(self._elements(instr, shapes) / self.lanes) + 1

    def energy(self, instr, shapes) -> float:
        return (self._elements(instr, shapes) * ENERGY_PER_ELEMENT_MOVE
                + INSTRUCTION_OVERHEAD_NJ)


@dataclass(frozen=True)
class SpecialFunctionUnit(UnitTemplate):
    """CORDIC pipeline for EXP / LOG / JR / JRINV and EMBED front-ends."""

    cordic_iterations: int = 16

    def latency(self, instr, shapes) -> int:
        if instr.op is Opcode.EMBED:
            out = sum(
                max(1, math.prod(_shape_of(instr, shapes, r)))
                for r in instr.dsts
            )
            return 16 + out // 2
        return self.cordic_iterations + 2

    def energy(self, instr, shapes) -> float:
        if instr.op is Opcode.EMBED:
            out = sum(
                max(1, math.prod(_shape_of(instr, shapes, r)))
                for r in instr.dsts
            )
            return out * ENERGY_PER_ELEMENT_MOVE * 4 + ENERGY_PER_CORDIC
        return ENERGY_PER_CORDIC + INSTRUCTION_OVERHEAD_NJ


@dataclass(frozen=True)
class QRUnit(UnitTemplate):
    """Givens-rotation partial QR unit (the Fig. 5 elimination step)."""

    pipeline_depth: int = 4

    def _front(self, instr) -> Tuple[int, int, int]:
        rows = sum(s["rows"] for s in instr.meta["sources"])
        cols = instr.meta["total_cols"] + 1
        frontal = instr.meta["frontal_dim"]
        return rows, cols, frontal

    def latency(self, instr, shapes) -> int:
        rows, cols, frontal = self._front(instr)
        # Zero out `frontal` columns; each column needs (rows - j) Givens
        # rotations, each sweeping `cols` entries over `lane_width` lanes.
        rotations = sum(max(rows - j - 1, 0) for j in range(frontal))
        lane_width = 8
        return (rotations * max(1, math.ceil(cols / lane_width))
                + self.pipeline_depth * frontal + 8)

    def energy(self, instr, shapes) -> float:
        rows, cols, frontal = self._front(instr)
        rotations = sum(max(rows - j - 1, 0) for j in range(frontal))
        # Each rotation updates two rows of `cols` entries: 4 MACs/entry.
        return (rotations * cols * 4 * ENERGY_PER_MAC
                + frontal * ENERGY_PER_CORDIC + INSTRUCTION_OVERHEAD_NJ)


@dataclass(frozen=True)
class BackSubUnit(UnitTemplate):
    """Triangular back-substitution unit (the Fig. 6 step)."""

    lanes: int = 4

    def latency(self, instr, shapes) -> int:
        f = instr.meta["frontal_dim"]
        sep = sum(d for _, d in instr.meta["parents"])
        triangular = f * (f + 1) // 2
        return math.ceil((triangular + sep * f) / self.lanes) + 6

    def energy(self, instr, shapes) -> float:
        f = instr.meta["frontal_dim"]
        sep = sum(d for _, d in instr.meta["parents"])
        macs = f * (f + 1) // 2 + sep * f
        return macs * ENERGY_PER_MAC + INSTRUCTION_OVERHEAD_NJ


# Default template instances (per-instance FPGA costs).
DEFAULT_TEMPLATES: Dict[str, UnitTemplate] = {
    UNIT_MATMUL: MatMulUnit("systolic-mm", UNIT_MATMUL,
                            Resources(lut=20_000, ff=25_000, bram=32,
                                      dsp=160)),
    UNIT_VECTOR: VectorUnit("simd-vec", UNIT_VECTOR,
                            Resources(lut=6_000, ff=8_000, bram=8, dsp=16)),
    UNIT_SPECIAL: SpecialFunctionUnit(
        "cordic-sfu", UNIT_SPECIAL,
        Resources(lut=10_000, ff=12_000, bram=4, dsp=30)),
    UNIT_QR: QRUnit("givens-qr", UNIT_QR,
                    Resources(lut=25_000, ff=30_000, bram=48, dsp=120)),
    UNIT_BSUB: BackSubUnit("trisolve", UNIT_BSUB,
                           Resources(lut=8_000, ff=10_000, bram=16, dsp=40)),
}

# Fixed infrastructure (controller, on-chip buffer, DMA) independent of
# the unit mix.
INFRASTRUCTURE = Resources(lut=18_000, ff=22_000, bram=64, dsp=8)

