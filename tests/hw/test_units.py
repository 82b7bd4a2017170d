"""Tests for the hardware unit latency/energy models."""

import numpy as np
import pytest

from repro.compiler.isa import Instruction, Opcode
from repro.errors import HardwareError
from repro.hw import DEFAULT_TEMPLATES
from repro.hw.units import (
    BackSubUnit,
    MatMulUnit,
    QRUnit,
    SpecialFunctionUnit,
    VectorUnit,
    _shape_of,
)
from repro.compiler.isa import (
    UNIT_BSUB,
    UNIT_MATMUL,
    UNIT_QR,
    UNIT_SPECIAL,
    UNIT_VECTOR,
)


def mm_instr(m, k, n):
    shapes = {"a": (m, k), "b": (k, n), "out": (m, n)}
    instr = Instruction(0, Opcode.MM, ["a", "b"], ["out"])
    return instr, shapes


def qr_instr(rows_list, total_cols, frontal):
    meta = {
        "sources": [{"rows": r, "cols": {}} for r in rows_list],
        "total_cols": total_cols,
        "frontal_dim": frontal,
        "marginal_rows": 0,
    }
    return Instruction(0, Opcode.QR, [f"r{i}" for i in range(len(rows_list))],
                       ["cond"], meta), {}


def bsub_instr(frontal, sep):
    meta = {"frontal_dim": frontal, "parents": [(0, sep)] if sep else []}
    return Instruction(0, Opcode.BSUB, ["cond"], ["sol"], meta), {}


class TestMatMulUnit:
    unit = DEFAULT_TEMPLATES[UNIT_MATMUL]

    def test_latency_grows_with_k(self):
        small, shapes_s = mm_instr(3, 3, 3)
        big, shapes_b = mm_instr(3, 30, 3)
        assert self.unit.latency(big, shapes_b) > (
            self.unit.latency(small, shapes_s))

    def test_tiling_beyond_array_size(self):
        inside, s1 = mm_instr(8, 8, 8)
        outside, s2 = mm_instr(9, 8, 9)  # 4 tiles instead of 1
        assert self.unit.latency(outside, s2) > self.unit.latency(inside, s1)

    def test_energy_proportional_to_macs(self):
        a, sa = mm_instr(2, 2, 2)
        b, sb = mm_instr(4, 4, 4)
        ea = self.unit.energy(a, sa)
        eb = self.unit.energy(b, sb)
        assert eb > ea

    def test_vector_operand_handled(self):
        shapes = {"a": (3, 3), "b": (3,), "out": (3,)}
        instr = Instruction(0, Opcode.RV, ["a", "b"], ["out"])
        assert self.unit.latency(instr, shapes) >= 1


class TestQRUnit:
    unit = DEFAULT_TEMPLATES[UNIT_QR]

    def test_latency_grows_with_rows_and_frontal(self):
        small, _ = qr_instr([6], 6, 3)
        tall, _ = qr_instr([20], 6, 3)
        wide_front, _ = qr_instr([20], 6, 6)
        assert self.unit.latency(tall, {}) > self.unit.latency(small, {})
        assert self.unit.latency(wide_front, {}) > self.unit.latency(tall, {})

    def test_energy_positive(self):
        instr, _ = qr_instr([10, 10], 12, 6)
        assert self.unit.energy(instr, {}) > 0


class TestBackSubUnit:
    unit = DEFAULT_TEMPLATES[UNIT_BSUB]

    def test_separator_adds_latency(self):
        no_sep, _ = bsub_instr(6, 0)
        with_sep, _ = bsub_instr(6, 12)
        assert self.unit.latency(with_sep, {}) > self.unit.latency(no_sep, {})


class TestSpecialFunctionUnit:
    unit = DEFAULT_TEMPLATES[UNIT_SPECIAL]

    def test_cordic_ops_fixed_latency(self):
        shapes = {"phi": (3,), "rot": (3, 3)}
        exp_i = Instruction(0, Opcode.EXP, ["phi"], ["rot"])
        log_i = Instruction(1, Opcode.LOG, ["rot"], ["phi"])
        assert self.unit.latency(exp_i, shapes) == (
            self.unit.latency(log_i, shapes))

    def test_embed_scales_with_output(self):
        small = Instruction(0, Opcode.EMBED, [], ["a"], {})
        big = Instruction(1, Opcode.EMBED, [], ["a", "b"], {})
        shapes = {"a": (2, 3), "b": (20, 30)}
        assert self.unit.latency(big, shapes) > self.unit.latency(small,
                                                                  shapes)


class TestVectorUnit:
    unit = DEFAULT_TEMPLATES[UNIT_VECTOR]

    def test_latency_scales_with_elements(self):
        shapes = {"a": (4,), "b": (4,), "small": (4,), "large": (64, 4)}
        small = Instruction(0, Opcode.VP, ["a", "b"], ["small"])
        large = Instruction(1, Opcode.STACK, ["a"], ["large"])
        assert self.unit.latency(large, shapes) > self.unit.latency(small,
                                                                    shapes)


class TestShapeLookup:
    def test_missing_shape_raises(self):
        instr = Instruction(0, Opcode.RT, ["x"], ["y"])
        with pytest.raises(HardwareError):
            _shape_of(instr, {}, "x")
