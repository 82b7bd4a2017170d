"""Structure slots: one fused plan and one set of simulator tables per
program structure.

Frames with the same streams share a slot kept by the compilation cache;
the simulator keeps its unit classes, dependency map, latencies and
energies there, keyed by the config's unit templates (not its instance
counts).  A slot refuses a program keyed for another structure, a fault
plan never writes into the shared tables, and a cleared cache drops
the frame slots.
"""

import dataclasses

import numpy as np
import pytest

from repro.apps import all_applications
from repro.compiler import FusedExecutor, plan_for
from repro.compiler.cache import (
    CompilationCache,
    clear_default_cache,
    default_cache,
)
from repro.compiler.isa import Opcode, Program
from repro.errors import CompileError
from repro.eval.experiments import ORIANNA_CONFIG
from repro.sim import Simulator

from tests.diff.util import call_counter
from tests.sim.test_engine_golden import _case, case_id, digest, load_golden


def app_named(name):
    return next(a for a in all_applications() if a.name == name)


@pytest.fixture
def fresh_cache():
    clear_default_cache()
    yield
    clear_default_cache()


def wired_program(chained, key):
    """Four instructions; the last VP reads the first VP's output when
    ``chained``, a constant otherwise (same length, other wiring)."""
    program = Program(algorithm="hand")
    regs = [program.new_register("r", (3,)) for _ in range(4)]
    for reg in regs[:2]:
        program.emit(Opcode.CONST, [], [reg], {"value": np.ones(3)})
    program.emit(Opcode.VP, regs[:2], [regs[2]], {"sign": 1})
    first = regs[2] if chained else regs[0]
    program.emit(Opcode.VP, [first, regs[1]], [regs[3]], {"sign": -1})
    program.structure_key = key
    return program


class TestSimulatorTables:
    def test_tables_follow_templates_not_instance_counts(
            self, monkeypatch, fresh_cache):
        latencies = call_counter(monkeypatch, Simulator, "_latencies")
        energies = call_counter(monkeypatch, Simulator, "_energies")
        program = app_named("Manipulator").compile_frame(0)
        base = Simulator(ORIANNA_CONFIG).run(program)
        more = Simulator(ORIANNA_CONFIG.with_extra_unit("matmul")).run(
            program)
        assert (latencies[0], energies[0]) == (1, 1)
        assert more.unit_instance_counts["matmul"] == \
            base.unit_instance_counts["matmul"] + 1

        templates = dict(ORIANNA_CONFIG.templates)
        templates["matmul"] = dataclasses.replace(templates["matmul"],
                                                  array_size=16)
        wide = dataclasses.replace(ORIANNA_CONFIG, templates=templates)
        shared = Simulator(wide).run(program)
        assert (latencies[0], energies[0]) == (2, 2)

        # The recomputed tables are the new template's: a frame in a
        # fresh slot gives the same cycles and energy.
        clear_default_cache()
        private = app_named("Manipulator").compile_frame(0)
        alone = Simulator(wide).run(private)
        assert (shared.total_cycles, shared.energy_mj) == \
            (alone.total_cycles, alone.energy_mj)

    def test_fault_plan_leaves_shared_tables_clean(self):
        digest(_case("Manipulator", "ooo", None, "orianna", "stall"))
        clean = _case("Manipulator", "ooo", None, "orianna")
        assert digest(clean) == load_golden()[case_id(clean)]


class TestWrongSlot:
    def test_equal_length_programs_of_other_wiring_raise(self):
        chained = wired_program(True, ("chained",))
        FusedExecutor().run(chained)
        Simulator().run(chained)
        fanned = wired_program(False, ("fanned",))
        assert len(fanned) == len(chained)
        fanned.attach_slot(chained.structure_slot())
        with pytest.raises(CompileError, match="structure slot mismatch"):
            plan_for(fanned)
        with pytest.raises(CompileError, match="structure slot mismatch"):
            Simulator().run(fanned)

    def test_extend_detaches_the_slot(self):
        program = wired_program(True, ("chained",))
        slot = program.structure_slot()
        program.extend(Program(algorithm="other"))
        assert program.structure_key is None
        assert program.structure_slot() is not slot


class TestFrameSlots:
    def test_same_streams_share_a_frame_slot(self, fresh_cache):
        app = app_named("MobileRobot")
        first, second = (app.compile_frame(seed) for seed in (0, 1))
        assert first.structure_key == second.structure_key
        assert first.structure_slot() is second.structure_slot()

    def test_clear_drops_frame_slots(self, fresh_cache):
        key = ("frame",)
        program = Program()
        default_cache().attach_frame_slot(program, key)
        kept = program.structure_slot()
        clear_default_cache()
        default_cache().attach_frame_slot(program, key)
        assert program.structure_slot() is not kept

    def test_frame_slot_store_is_bounded(self):
        cache = CompilationCache()
        program = Program()
        cache.attach_frame_slot(program, ("first",))
        first = program.structure_slot()
        for index in range(CompilationCache.FRAME_SLOTS):
            cache.attach_frame_slot(Program(), ("other", index))
        cache.attach_frame_slot(program, ("first",))
        assert program.structure_slot() is not first
