"""Tests for the host wall-clock profiler (:mod:`repro.obs.wallclock`)."""

import numpy as np
import pytest

from repro.compiler.executor import Executor
from repro.compiler.isa import Instruction, Opcode, Program
from repro.compiler.provenance import Provenance
from repro.obs import wallclock
from repro.obs.wallclock import (
    WALLCLOCK_SCHEMA,
    WallclockProfiler,
    merge_snapshots,
)


@pytest.fixture(autouse=True)
def clean_wallclock():
    wallclock.disable()
    yield
    wallclock.disable()


def tiny_program():
    """const -> copy -> add: three opcodes, deterministic sizes."""
    program = Program()
    a = program.new_register("a", (2, 2))
    program.emit(Opcode.CONST, [], [a], meta={"value": np.ones((2, 2))})
    b = program.new_register("b", (2, 2))
    program.emit(Opcode.COPY, [a], [b])
    c = program.new_register("c", (2, 2))
    program.emit(Opcode.ADD, [a, b], [c])
    return program


class TestProfilerTable:
    def test_snapshot_shape(self):
        profiler = WallclockProfiler()
        ex = Executor()
        const = tiny_program().instructions[0]
        ex.execute(const)
        profiler.record_group([const], 1500, ex.registers)
        snap = profiler.snapshot()
        assert snap["schema"] == WALLCLOCK_SCHEMA
        assert snap["instructions"] == 1
        assert snap["total_self_ns"] == 1500
        cell = snap["by_opcode"]["const"]
        assert cell == {"calls": 1, "self_ns": 1500, "elements": 4}
        # Unstamped provenance buckets under "?".
        assert snap["by_opcode_stage"]["const"]["?"]["calls"] == 1

    def test_cells_accumulate_per_opcode_and_stage(self):
        profiler = WallclockProfiler()
        registers = {"x": np.zeros(3)}
        instr = Instruction(uid=0, op=Opcode.COPY, srcs=["x"], dsts=["x"])
        for _ in range(4):
            profiler.record_group([instr], 100, registers)
        snap = profiler.snapshot()
        assert snap["by_opcode"]["copy"] == \
            {"calls": 4, "self_ns": 400, "elements": 12}

    def test_group_counts_every_member(self):
        profiler = WallclockProfiler()
        registers = {"x": np.zeros(3), "y": np.zeros((2, 2))}
        group = [Instruction(uid=0, op=Opcode.COPY, srcs=[], dsts=["x"],
                             provenance=Provenance(stage="eliminate")),
                 Instruction(uid=1, op=Opcode.COPY, srcs=[], dsts=["y"],
                             provenance=Provenance(stage="eliminate"))]
        profiler.record_group(group, 100, registers)
        snap = profiler.snapshot()
        assert snap["by_opcode"]["copy"] == \
            {"calls": 2, "self_ns": 100, "elements": 7}
        assert set(snap["by_opcode_stage"]["copy"]) == {"eliminate"}

    def test_mixed_stage_group_is_unattributed(self):
        profiler = WallclockProfiler()
        group = [Instruction(uid=0, op=Opcode.CONST, srcs=[], dsts=[],
                             provenance=Provenance(stage=stage))
                 for stage in ("construct.error", "construct.jacobian")]
        profiler.record_group(group, 100, {})
        assert set(profiler.snapshot()["by_opcode_stage"]["const"]) == {"?"}

    def test_drain_resets(self):
        profiler = WallclockProfiler()
        profiler.record_group(
            [Instruction(uid=0, op=Opcode.COPY, srcs=[], dsts=[])],
            50, {})
        profiler.record_program()
        first = profiler.drain()
        assert first["instructions"] == 1
        assert first["programs"] == 1
        empty = profiler.snapshot()
        assert empty["instructions"] == 0
        assert empty["programs"] == 0
        assert empty["by_opcode"] == {}


class TestExecutorIntegration:
    def test_disabled_by_default(self):
        assert wallclock.active() is None
        Executor().run(tiny_program())   # no profiler involved

    def test_enabled_run_records_every_instruction(self):
        profiler = wallclock.enable()
        Executor().run(tiny_program())
        snap = profiler.drain()
        assert snap["programs"] == 1
        assert snap["instructions"] == 3
        assert set(snap["by_opcode"]) == {"const", "copy", "add"}
        assert snap["total_self_ns"] > 0
        # Destination element counts: every register here is produced
        # once; const/copy/add all write 2x2 = 4 elements.
        for cell in snap["by_opcode"].values():
            assert cell["elements"] == 4

    def test_profiled_and_plain_runs_produce_identical_registers(self):
        program = tiny_program()
        plain = Executor().run(program)
        with wallclock.profiled_scope():
            profiled = Executor().run(program)
        assert set(plain) == set(profiled)
        for name in plain:
            np.testing.assert_array_equal(plain[name], profiled[name])

    def test_profiled_scope_restores_previous(self):
        outer = wallclock.enable()
        with wallclock.profiled_scope() as inner:
            assert wallclock.active() is inner
            assert inner is not outer
        assert wallclock.active() is outer

    def test_snapshot_is_json_serializable(self):
        import json

        with wallclock.profiled_scope() as profiler:
            Executor().run(tiny_program())
        json.dumps(profiler.drain())


class TestMergeSnapshots:
    def test_merges_counts_and_skips_empty(self):
        with wallclock.profiled_scope() as profiler:
            Executor().run(tiny_program())
            one = profiler.drain()
            Executor().run(tiny_program())
            two = profiler.drain()
        merged = merge_snapshots([one, None, two, {}])
        assert merged["programs"] == 2
        assert merged["instructions"] == 6
        assert merged["by_opcode"]["const"]["calls"] == 2
        assert merged["by_opcode_stage"]["const"]["?"]["calls"] == 2
