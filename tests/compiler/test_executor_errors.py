"""Error-path and edge-case tests for the functional ISA executor."""

import numpy as np
import pytest

from repro.errors import CompileError, ExecutionError
from repro.compiler import Executor, Opcode, Program


def program_with(op, srcs_values, meta=None, dst_shape=(1,)):
    """Build a one-instruction program with CONST-fed sources."""
    program = Program()
    srcs = []
    for value in srcs_values:
        value = np.asarray(value, dtype=float)
        reg = program.new_register("c", value.shape)
        program.emit(Opcode.CONST, [], [reg], {"value": value})
        srcs.append(reg)
    dst = program.new_register("d", dst_shape)
    program.emit(op, srcs, [dst], meta or {})
    return program, dst


class TestRegisterFile:
    def test_read_unwritten_register(self):
        with pytest.raises(ExecutionError):
            Executor().read("ghost")

    def test_emit_checks_source_defined(self):
        program = Program()
        with pytest.raises(CompileError):
            program.emit(Opcode.RT, ["missing"], ["out"])

    def test_unknown_handler(self):
        from repro.compiler.isa import Instruction

        class FakeOp:
            value = "teleport"

        executor = Executor()
        instr = Instruction(0, Opcode.RT, [], ["x"])
        instr.op = FakeOp()  # force an op without a handler
        with pytest.raises(ExecutionError):
            executor.execute(instr)


class TestOpcodeValidation:
    def test_log_rejects_non_rotation_shape(self):
        program, _ = program_with(Opcode.LOG, [np.zeros((4, 4))])
        with pytest.raises(ExecutionError):
            Executor().run(program)

    def test_exp_rejects_bad_vector(self):
        program, _ = program_with(Opcode.EXP, [np.zeros(2)])
        with pytest.raises(ExecutionError):
            Executor().run(program)

    def test_skew_rejects_bad_dim(self):
        program, _ = program_with(Opcode.SKEW, [np.zeros(4)])
        with pytest.raises(ExecutionError):
            Executor().run(program)

    def test_jr_rejects_bad_dim(self):
        program, _ = program_with(Opcode.JR, [np.zeros(2)])
        with pytest.raises(ExecutionError):
            Executor().run(program)
        program, _ = program_with(Opcode.JRINV, [np.zeros(2)])
        with pytest.raises(ExecutionError):
            Executor().run(program)

    def test_stack_rejects_bad_axis(self):
        program, _ = program_with(Opcode.STACK, [np.zeros(2), np.zeros(2)],
                                  {"axis": 2})
        with pytest.raises(ExecutionError):
            Executor().run(program)


class TestOpcodeSemantics:
    def run_one(self, op, srcs, meta=None, dst_shape=(1,)):
        program, dst = program_with(op, srcs, meta, dst_shape)
        return Executor().run(program)[dst]

    def test_vp_subtraction(self):
        out = self.run_one(Opcode.VP, [np.array([3.0]), np.array([1.0])],
                           {"sign": -1})
        assert np.allclose(out, [2.0])

    def test_mm_negate_and_column(self):
        out = self.run_one(
            Opcode.MM, [np.eye(2), np.array([1.0, 2.0])],
            {"negate": True, "b_as_column": True}, dst_shape=(2, 1))
        assert np.allclose(out, [[-1.0], [-2.0]])

    def test_mv_negate(self):
        out = self.run_one(Opcode.MV, [2.0 * np.eye(2), np.ones(2)],
                           {"negate": True}, dst_shape=(2,))
        assert np.allclose(out, [-2.0, -2.0])

    def test_copy_negate(self):
        out = self.run_one(Opcode.COPY, [np.array([1.0, -2.0])],
                           {"negate": True}, dst_shape=(2,))
        assert np.allclose(out, [-1.0, 2.0])

    def test_add_many_sources(self):
        out = self.run_one(Opcode.ADD,
                           [np.ones(2), np.ones(2), np.ones(2)],
                           dst_shape=(2,))
        assert np.allclose(out, [3.0, 3.0])

    def test_stack_axis0_matrices(self):
        out = self.run_one(Opcode.STACK, [np.ones((1, 2)), np.zeros((2, 2))],
                           {"axis": 0}, dst_shape=(3, 2))
        assert out.shape == (3, 2)

    def test_skew_2d_perp(self):
        out = self.run_one(Opcode.SKEW, [np.array([1.0, 2.0])],
                           dst_shape=(2,))
        assert np.allclose(out, [-2.0, 1.0])

    def test_log_exp_2d(self):
        rot = self.run_one(Opcode.EXP, [np.array([0.5])], dst_shape=(2, 2))
        assert np.allclose(rot[0, 0], np.cos(0.5))
        back = self.run_one(Opcode.LOG, [rot], dst_shape=(1,))
        assert np.allclose(back, [0.5])

    def test_bsub_singular_rejected(self):
        program = Program()
        cond = program.new_register("c", (2, 3))
        program.emit(Opcode.CONST, [], [cond],
                     {"value": np.zeros((2, 3))})
        sol = program.new_register("s", (2,))
        program.emit(Opcode.BSUB, [cond], [sol],
                     {"frontal_dim": 2, "parents": []})
        with pytest.raises(ExecutionError):
            Executor().run(program)

    def test_bsub_nan_propagates_alike_on_both_backends(self):
        """A NaN operand reaches the solution on both backends, where
        scipy's finiteness check would raise a ValueError."""
        from repro.compiler import FusedExecutor

        program = Program()
        cond = program.new_register("c", (2, 3))
        program.emit(Opcode.CONST, [], [cond],
                     {"value": np.array([[2.0, 1.0, np.nan],
                                         [0.0, 4.0, 1.0]])})
        sol = program.new_register("s", (2,))
        program.emit(Opcode.BSUB, [cond], [sol],
                     {"frontal_dim": 2, "parents": []})
        interpreted = Executor().run(program)[sol]
        fused = FusedExecutor().run(program)[sol]
        assert np.isnan(interpreted[0]) and interpreted[1] == 0.25
        assert interpreted.tobytes() == fused.tobytes()

    def test_write_count_mismatch(self):
        from repro.compiler.isa import Instruction

        executor = Executor()
        instr = Instruction(0, Opcode.CONST, [], ["a", "b"],
                            {"value": np.zeros(2)})
        with pytest.raises(ExecutionError):
            executor.execute(instr)
