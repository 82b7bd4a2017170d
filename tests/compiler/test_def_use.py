"""One register def-use analysis per program structure.

:class:`~repro.compiler.isa.DefUse` is what the fused plan, the
simulator, its critical path and the datapath generator read instead of
walking registers on their own.  These tests pin three things:

- *equivalence*: on the four applications' frames (seeds 0-11) and on
  random multi-stream programs, the analysis equals independent
  whole-program walks kept here (the string-keyed walks the plan, the
  simulator, its live set and the critical path used to run);
- *sharing and staleness*: frames of one structure share one analysis,
  a new structure builds its own, ``Program.extend`` detaches, a
  changed instruction count rebuilds, and a program keyed for another
  structure raises;
- *work*: a cold frame that is fused-run and simulated builds the
  analysis once, a replayed frame builds none, and a Gauss-Newton or
  Levenberg-Marquardt solve builds none of the parts only the simulator
  and the hardware generators read.  Calls are counted, not timed.
"""

import math

import numpy as np
import pytest

from repro.apps import all_applications
from repro.apps.base import LOCALIZATION
from repro.compiler import FusedExecutor, isa
from repro.compiler.cache import CompilationCache, clear_default_cache
from repro.compiler.isa import Opcode, Program, UNIT_OF_OPCODE
from repro.errors import CompileError
from repro.eval.experiments import ORIANNA_CONFIG
from repro.optim.gauss_newton import GaussNewtonParams, gauss_newton
from repro.optim.levenberg import LevenbergParams, levenberg_marquardt
from repro.sim import Simulator

from tests.diff.util import call_counter, random_problem
from tests.sim.test_structure_slot import wired_program

APPS = ("MobileRobot", "Manipulator", "AutoVehicle", "Quadrotor")
SEEDS = range(12)


def app_named(name):
    return next(a for a in all_applications() if a.name == name)


@pytest.fixture
def fresh_cache():
    clear_default_cache()
    yield
    clear_default_cache()


# ----------------------------------------------------------------------
# Independent whole-program walks
# ----------------------------------------------------------------------

def walk_dependencies(program):
    producer = {}
    deps = {}
    for instr in program.instructions:
        deps[instr.uid] = sorted(
            {producer[s] for s in instr.srcs if s in producer})
        for d in instr.dsts:
            producer[d] = instr.uid
    return deps


def walk_levels(program, deps):
    level = {}
    for instr in program.instructions:
        if instr.op is Opcode.CONST:
            level[instr.uid] = 0
            continue
        preds = [level[d] + (0 if program.instructions[d].op is Opcode.CONST
                             else 1)
                 for d in deps[instr.uid]]
        level[instr.uid] = max(preds) if preds else 1
    return level


def walk_consumers(program, deps):
    consumers = {}
    for instr in program.instructions:
        for d in deps[instr.uid]:
            consumers.setdefault(d, []).append(instr.uid)
    return consumers


def walk_registers(program):
    """reg -> (producer, readers, words) for every register a non-CONST
    defines, from string-keyed ``born``/``last_use`` style maps."""
    born = {}
    readers = {}
    for instr in program.instructions:
        for src in instr.srcs:
            readers.setdefault(src, set()).add(instr.uid)
        for dst in instr.dsts:
            if instr.op is not Opcode.CONST:
                born[dst] = instr.uid
    return {reg: (uid, sorted(readers.get(reg, ())),
                  math.prod(program.register_shapes[reg]))
            for reg, uid in born.items()}


def assert_matches_walks(program):
    analysis = program.def_use()
    n = len(program.instructions)
    assert analysis.size == n
    deps = walk_dependencies(program)
    assert analysis.producers == [deps[uid] for uid in range(n)]
    levels = walk_levels(program, deps)
    assert analysis.levels == [levels[uid] for uid in range(n)]
    consumers = walk_consumers(program, deps)
    assert analysis.consumers == [consumers.get(uid, []) for uid in range(n)]
    assert analysis.units == [UNIT_OF_OPCODE[i.op]
                              for i in program.instructions]
    assert analysis.registers == walk_registers(program)
    # The Program views read the same analysis.
    assert program.dependencies() == deps
    assert program.levels() == levels
    assert program.critical_path_length() == max(levels.values(), default=0)


def chain_program(name):
    """CONST -> VP -> VP in stream ``name`` (registers prefixed by it)."""
    program = Program(algorithm=name)
    regs = [program.new_register(name, (3,)) for _ in range(3)]
    program.emit(Opcode.CONST, [], [regs[0]], {"value": np.ones(3)})
    program.emit(Opcode.VP, [regs[0], regs[0]], [regs[1]], {"sign": 1})
    program.emit(Opcode.VP, [regs[1], regs[0]], [regs[2]], {"sign": -1})
    return program


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------

@pytest.mark.parametrize("app_name", APPS)
def test_frames_match_whole_program_walks(fresh_cache, app_name):
    app = app_named(app_name)
    for seed in SEEDS:
        assert_matches_walks(app.compile_frame(seed))


@pytest.mark.parametrize("seed", range(6))
def test_random_multi_stream_programs_match(seed):
    """Random graphs as streams: repeated structures, new names."""
    rng = np.random.default_rng(seed)
    structures = [int(s) for s in rng.integers(0, 40, size=3)]
    cache = CompilationCache()
    for frame in range(2):
        streams = {}
        for index in range(int(rng.integers(2, 5))):
            structure = structures[int(rng.integers(len(structures)))]
            streams[f"s{frame}_{index}"] = random_problem(
                structure, seed * 100 + frame * 10 + index)
        assert_matches_walks(cache.compile(streams))


def test_optimized_program_matches():
    """CSE/DCE rewrite programs; the analysis of the result still
    equals the walks."""
    from repro.compiler.codegen import compile_graph

    graph, values = random_problem(3, 4)
    assert_matches_walks(compile_graph(graph, values).optimized().program)


def test_repeated_operands_and_unread_registers():
    """A register read twice by one instruction counts that reader once;
    a register nothing reads has no readers."""
    program = Program()
    a = program.new_register("a", (2, 2))
    b = program.new_register("b", (2, 2))
    c = program.new_register("c", (2, 2))
    program.emit(Opcode.CONST, [], [a], {"value": np.eye(2)})
    program.emit(Opcode.MM, [a, a], [b])
    program.emit(Opcode.ADD, [b, b], [c])
    assert_matches_walks(program)
    analysis = program.def_use()
    assert analysis.registers[b] == (1, [2], 4)
    assert analysis.registers[c] == (2, [], 4)
    assert a not in analysis.registers
    assert analysis.levels == [0, 0, 1]


# ----------------------------------------------------------------------
# Sharing and staleness
# ----------------------------------------------------------------------

class TestSharing:
    def test_frames_of_one_structure_share_one_analysis(self, fresh_cache):
        app = app_named("MobileRobot")
        first, second = (app.compile_frame(seed) for seed in (0, 1))
        assert first.def_use() is second.def_use()
        assert first.structure_slot().def_use is first.def_use()

    def test_a_new_structure_builds_its_own(self, fresh_cache):
        app = app_named("Quadrotor")
        first, second = (app.compile_frame(seed) for seed in (0, 1))
        assert first.structure_key != second.structure_key
        assert first.def_use() is not second.def_use()
        assert_matches_walks(second)

    def test_extend_detaches(self):
        program = chain_program("a")
        slot = program.structure_slot()
        before = program.def_use()
        program.extend(chain_program("b"))
        assert program.structure_slot() is not slot
        assert slot.def_use is before and before.size == 3
        assert program.def_use().size == 6
        assert_matches_walks(program)

    def test_changed_instruction_count_rebuilds(self):
        program = wired_program(True, ("chained",))
        before = program.def_use()
        out = program.new_register("r", (3,))
        program.emit(Opcode.VP, [program.instructions[3].dsts[0],
                                 program.instructions[2].dsts[0]], [out],
                     {"sign": 1})
        after = program.def_use()
        assert after is not before and after.size == 5
        assert program.structure_slot().def_use is after
        assert_matches_walks(program)

    def test_program_keyed_for_another_structure_raises(self):
        chained = wired_program(True, ("chained",))
        chained.def_use()
        fanned = wired_program(False, ("fanned",))
        fanned.attach_slot(chained.structure_slot())
        for read in (fanned.def_use, fanned.levels, fanned.dependencies):
            with pytest.raises(CompileError,
                               match="structure slot mismatch"):
                read()


# ----------------------------------------------------------------------
# Work bound
# ----------------------------------------------------------------------

@pytest.fixture
def builds(monkeypatch):
    """Counts of analyses built and of their lazily built parts."""
    uses = call_counter(monkeypatch, isa.DefUse, "_build_uses")
    analyses = call_counter(monkeypatch, isa, "DefUse")
    return lambda: (analyses[0], uses[0])


def fused_run_and_simulate(program):
    FusedExecutor().run(program)
    result = Simulator(ORIANNA_CONFIG).run(program, "ooo")
    result.critical_path  # read the lazy analysis too


class TestWorkBound:
    def test_cold_frame_builds_once_and_replay_builds_none(
            self, fresh_cache, builds):
        app = app_named("MobileRobot")
        fused_run_and_simulate(app.compile_frame(0))
        assert builds() == (1, 1)
        fused_run_and_simulate(app.compile_frame(1))
        assert builds() == (1, 1)

    def test_new_structure_frame_builds_once(self, fresh_cache, builds):
        app = app_named("Quadrotor")
        fused_run_and_simulate(app.compile_frame(0))
        fused_run_and_simulate(app.compile_frame(1))
        assert builds() == (2, 2)

    def test_gauss_newton_builds_no_simulator_parts(self, builds):
        graph, values = app_named("MobileRobot").build_graphs(
            0, [LOCALIZATION])[LOCALIZATION]
        gauss_newton(graph, values, GaussNewtonParams(max_iterations=3),
                     backend="fused")
        assert builds() == (1, 0)

    def test_levenberg_marquardt_builds_no_simulator_parts(self, builds):
        graph, values = app_named("MobileRobot").build_graphs(
            0, [LOCALIZATION])[LOCALIZATION]
        levenberg_marquardt(graph, values,
                            LevenbergParams(max_iterations=3),
                            backend="fused")
        assert builds() == (1, 0)
