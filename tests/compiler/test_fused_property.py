"""Property/fuzz tests: fused backend == interpreter on random programs.

The four applications exercise fixed program structures; grouping bugs
in the fused planner (wrong batch signature, bad slab indexing, operand
aliasing across members, fallback misclassification) could hide behind
them.  These tests generate random small programs per opcode group —
random shapes, group sizes 1–16, shared operands, cross-level
dependencies, interleaved emission order — and require the fused
backend's full register file to match the interpreter's bit for bit.

Matmul-family results (RR/RV/MM/MV, QR, BSUB) are allowed a documented
ulp-bounded escape (<= 4 ulp): the batched kernels issue the same BLAS
calls per slice on every platform we test, but a BLAS build that
reorders reductions for stacked inputs would be a platform property,
not a planner bug.  Elementwise/copy/stack groups have no reductions
and must always be exactly equal.
"""

import numpy as np
import pytest

from repro.compiler.executor import Executor
from repro.compiler.fused import FusedExecutor, build_plan, plan_for
from repro.compiler.isa import Opcode, Program

# Opcodes whose handlers reduce through BLAS: ulp-bounded escape.
_REDUCING = {Opcode.RR, Opcode.RV, Opcode.MM, Opcode.MV,
             Opcode.QR, Opcode.BSUB}

VEC_SHAPES = [(1,), (2,), (3,), (4,), (6,)]
MAT_SHAPES = [(2, 2), (3, 3), (2, 3), (3, 2), (4, 3), (1, 4)]


def run_both(program):
    """(interpreter registers, fused registers) for one program."""
    interp = Executor().run(program)
    fused = FusedExecutor().run(program)
    return interp, fused


def assert_registers_match(program, interp, fused):
    producer = {}
    for instr in program.instructions:
        for dst in instr.dsts:
            producer[dst] = instr
    assert set(interp) == set(fused)
    for name in interp:
        a, b = interp[name], fused[name]
        if np.array_equal(a, b):
            continue
        op = producer[name].op
        if op in _REDUCING:
            ulp = np.max(np.abs(a - b) / np.spacing(np.maximum(
                np.abs(a), np.abs(b)).clip(min=1e-300)))
            assert ulp <= 4.0, (
                f"{name} (op {op.value}) differs by {ulp:.1f} ulp"
            )
        else:
            raise AssertionError(
                f"{name} (op {op.value}) not bit-identical: "
                f"max abs diff {np.max(np.abs(a - b))}"
            )


class _ProgramFuzzer:
    """Emits layered random programs over the batchable opcode set.

    Each layer draws several same-opcode groups with random signatures
    and sizes; group members sample operands (with replacement — shared
    operands on purpose) from the pools of all earlier layers, creating
    cross-level dependencies.  Emission order is shuffled within a
    layer so the planner sees interleaved groups, not tidy runs.
    """

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.program = Program(algorithm="fuzz")
        # shape -> [register names], grown layer by layer
        self.pools = {}

    def const(self, shape):
        value = self.rng.standard_normal(shape)
        reg = self.program.new_register("c", shape)
        self.program.emit(Opcode.CONST, [], [reg],
                          meta={"value": value})
        self.pools.setdefault(shape, []).append(reg)
        return reg

    def pick(self, shape):
        pool = self.pools.get(shape)
        if not pool:
            return self.const(shape)
        return pool[int(self.rng.integers(len(pool)))]

    def _member(self, op, shapes, meta, out_shape):
        srcs = [self.pick(s) for s in shapes]
        dst = self.program.new_register("r", out_shape)
        return (op, srcs, [dst], meta, out_shape)

    def draw_group(self):
        rng = self.rng
        size = int(rng.integers(1, 17))
        op = rng.choice(["vp", "add", "copy", "rt", "rv", "mm", "mv",
                         "stack"])
        if op == "vp":
            shape = VEC_SHAPES[int(rng.integers(len(VEC_SHAPES)))]
            sign = int(rng.choice([1, -1, 2]))  # 2: fallback path
            spec = (Opcode.VP, [shape, shape], {"sign": sign}, shape)
        elif op == "add":
            shape = VEC_SHAPES[int(rng.integers(len(VEC_SHAPES)))]
            n = int(rng.integers(2, 5))
            spec = (Opcode.ADD, [shape] * n, {}, shape)
        elif op == "copy":
            menu = VEC_SHAPES + MAT_SHAPES
            shape = menu[int(rng.integers(len(menu)))]
            spec = (Opcode.COPY, [shape],
                    {"negate": bool(rng.random() < 0.5)}, shape)
        elif op == "rt":
            if rng.random() < 0.3:
                shape = VEC_SHAPES[int(rng.integers(len(VEC_SHAPES)))]
                spec = (Opcode.RT, [shape], {}, shape)
            else:
                shape = MAT_SHAPES[int(rng.integers(len(MAT_SHAPES)))]
                spec = (Opcode.RT, [shape], {}, shape[::-1])
        elif op == "rv":
            d = int(rng.integers(2, 5))
            spec = (Opcode.RV, [(d, d), (d,)], {}, (d,))
        elif op == "mv":
            m, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            spec = (Opcode.MV, [(m, k), (k,)],
                    {"negate": bool(rng.random() < 0.5)}, (m,))
        elif op == "mm":
            m, k, n = (int(rng.integers(1, 5)) for _ in range(3))
            if rng.random() < 0.3:
                spec = (Opcode.MM, [(m, k), (k,)],
                        {"negate": bool(rng.random() < 0.5),
                         "b_as_column": True}, (m, 1))
            else:
                spec = (Opcode.MM, [(m, k), (k, n)],
                        {"negate": bool(rng.random() < 0.5)}, (m, n))
        else:  # stack
            axis = int(rng.choice([0, 1]))
            if axis == 0 and rng.random() < 0.5:
                parts = [VEC_SHAPES[int(rng.integers(len(VEC_SHAPES)))]
                         for _ in range(int(rng.integers(2, 5)))]
                total = sum(s[0] for s in parts)
                spec = (Opcode.STACK, parts, {"axis": 0}, (total,))
            elif axis == 0:
                cols = int(rng.integers(1, 5))
                parts, rows = [], 0
                for _ in range(int(rng.integers(2, 5))):
                    if rng.random() < 0.4:
                        parts.append((cols,))
                        rows += 1
                    else:
                        r = int(rng.integers(1, 4))
                        parts.append((r, cols))
                        rows += r
                spec = (Opcode.STACK, parts, {"axis": 0}, (rows, cols))
            else:
                rows = int(rng.integers(1, 5))
                parts, cols = [], 0
                for _ in range(int(rng.integers(2, 5))):
                    if rng.random() < 0.4:
                        parts.append((rows,))
                        cols += 1
                    else:
                        c = int(rng.integers(1, 4))
                        parts.append((rows, c))
                        cols += c
                spec = (Opcode.STACK, parts, {"axis": 1}, (rows, cols))
        opcode, shapes, meta, out_shape = spec
        return [self._member(opcode, shapes, dict(meta), out_shape)
                for _ in range(size)]

    def build(self, layers=3, groups_per_layer=3):
        for _ in range(layers):
            members = []
            for _ in range(int(self.rng.integers(
                    1, groups_per_layer + 1))):
                members.extend(self.draw_group())
            self.rng.shuffle(members)
            emitted = []
            for op, srcs, dsts, meta, out_shape in members:
                self.program.emit(op, srcs, dsts, meta=meta)
                emitted.append((dsts[0], out_shape))
            # Results join the pools only after the whole layer is
            # emitted, so same-layer groups never consume each other.
            for dst, shape in emitted:
                self.pools.setdefault(shape, []).append(dst)
        return self.program


@pytest.mark.parametrize("seed", range(25))
def test_random_layered_programs(seed):
    program = _ProgramFuzzer(seed).build()
    interp, fused = run_both(program)
    assert_registers_match(program, interp, fused)


@pytest.mark.parametrize("size", [1, 2, 3, 7, 16])
@pytest.mark.parametrize("op", ["vp", "add", "copy", "mv", "mm",
                                "stack"])
def test_uniform_group_sizes(op, size):
    """Every batchable opcode, at group sizes spanning the fallback
    boundary (1 is below BATCH_MIN) through wide batches."""
    rng = np.random.default_rng(hash((op, size)) % (2 ** 32))
    program = Program(algorithm="uniform")

    def const(shape):
        reg = program.new_register("c", shape)
        program.emit(Opcode.CONST, [], [reg],
                     meta={"value": rng.standard_normal(shape)})
        return reg

    shared = const((3,))  # one operand shared by every member
    for _ in range(size):
        if op == "vp":
            dst = program.new_register("r", (3,))
            program.emit(Opcode.VP, [const((3,)), shared], [dst],
                         meta={"sign": -1})
        elif op == "add":
            dst = program.new_register("r", (3,))
            program.emit(Opcode.ADD,
                         [const((3,)), shared, const((3,))], [dst])
        elif op == "copy":
            dst = program.new_register("r", (3,))
            program.emit(Opcode.COPY, [shared], [dst],
                         meta={"negate": True})
        elif op == "mv":
            dst = program.new_register("r", (2,))
            program.emit(Opcode.MV, [const((2, 3)), shared], [dst],
                         meta={"negate": False})
        elif op == "mm":
            dst = program.new_register("r", (2, 2))
            program.emit(Opcode.MM, [const((2, 3)), const((3, 2))],
                         [dst])
        else:  # stack
            dst = program.new_register("r", (6,))
            program.emit(Opcode.STACK, [const((3,)), shared], [dst],
                         meta={"axis": 0})
    interp, fused = run_both(program)
    assert_registers_match(program, interp, fused)


def test_mixed_signatures_one_level_split_into_groups():
    """Same opcode, different shapes on one level: separate batches,
    all still bit-identical."""
    rng = np.random.default_rng(7)
    program = Program(algorithm="mixed")
    for shape in [(2,), (3,), (2,), (4,), (3,), (2,)]:
        a = program.new_register("c", shape)
        program.emit(Opcode.CONST, [], [a],
                     meta={"value": rng.standard_normal(shape)})
        b = program.new_register("c", shape)
        program.emit(Opcode.CONST, [], [b],
                     meta={"value": rng.standard_normal(shape)})
        dst = program.new_register("r", shape)
        program.emit(Opcode.VP, [a, b], [dst], meta={"sign": 1})
    plan = build_plan(program)
    # Three distinct shapes -> three signature groups (sizes 3, 2, 1).
    sizes = sorted(s.size for s in plan.steps)
    assert sizes == [1, 2, 3]
    interp, fused = run_both(program)
    assert_registers_match(program, interp, fused)


def test_chained_groups_consume_producer_slabs():
    """Level-2 groups reading level-1 outputs exercise the slab-gather
    paths (whole-slab, permuted index, register-file fallback)."""
    rng = np.random.default_rng(11)
    program = Program(algorithm="chain")
    consts = []
    for _ in range(8):
        reg = program.new_register("c", (3,))
        program.emit(Opcode.CONST, [], [reg],
                     meta={"value": rng.standard_normal((3,))})
        consts.append(reg)
    level1 = []
    for i in range(8):
        dst = program.new_register("r", (3,))
        program.emit(Opcode.VP, [consts[i], consts[(i + 1) % 8]],
                     [dst], meta={"sign": 1})
        level1.append(dst)
    # Whole-slab order, reversed order, and a const-mixed group.
    for srcs in (list(level1), list(reversed(level1))):
        for i in range(0, 8, 2):
            dst = program.new_register("r", (3,))
            program.emit(Opcode.VP, [srcs[i], srcs[i + 1]], [dst],
                         meta={"sign": -1})
    for i in range(4):
        dst = program.new_register("r", (3,))
        program.emit(Opcode.ADD, [level1[i], consts[i], level1[7 - i]],
                     [dst])
    interp, fused = run_both(program)
    assert_registers_match(program, interp, fused)


@pytest.mark.parametrize("partner", ["rt", "copy"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_products_on_transposed_operands_bit_identical(d, partner):
    """RV groups whose matrices are RT outputs of two producer steps.

    The operands share no slab, so the group gathers them from the
    register file.  An RT output is a transposed view, and BLAS rounds
    a product on it differently than on a C-ordered copy: the gathered
    stack must keep each member's layout.  With ``partner="copy"`` half
    the matrices are C-ordered COPY outputs instead, which the planner
    must batch apart from the transposed half.  Bitwise: no ulp escape.
    """
    rng = np.random.default_rng(d)
    program = Program(algorithm="transposed")

    def const(shape):
        reg = program.new_register("c", shape)
        program.emit(Opcode.CONST, [], [reg],
                     meta={"value": rng.standard_normal(shape)})
        return reg

    def emit(op, srcs, shape, **meta):
        dst = program.new_register("r", shape)
        program.emit(op, srcs, [dst], meta=meta)
        return dst

    early = [emit(Opcode.RT, [const((d, d))], (d, d)) for _ in range(8)]
    copies = [emit(Opcode.COPY, [const((d, d))], (d, d))
              for _ in range(8)]
    late = [emit(Opcode.RT if partner == "rt" else Opcode.COPY, [c],
                 (d, d)) for c in copies]
    vectors = [emit(Opcode.COPY, [emit(Opcode.VP, [const((d,)),
                                                   const((d,))],
                                       (d,), sign=1)], (d,))
               for _ in range(8)]
    products = []
    for a, b, v in zip(early, late, vectors):
        products.append(emit(Opcode.RV, [a, v], (d,)))
        products.append(emit(Opcode.RV, [b, const((d,))], (d,)))
    levels = program.levels()
    assert len({levels[i.uid] for i in program.instructions
                if i.op is Opcode.RV}) == 1
    interp, fused = run_both(program)
    for name in products:
        assert np.array_equal(interp[name], fused[name]), name


@pytest.mark.parametrize("structure_seed", range(8))
def test_random_compiled_problems_bit_identical(structure_seed):
    """End-to-end fuzz over *compiled* random graphs: QR fronts, BSUB
    chains, EMBED fallbacks, and whitening stacks with randomized
    structure — the full register file must match bit for bit."""
    from repro.compiler import default_cache
    from tests.diff.util import random_problem

    graph, values = random_problem(structure_seed,
                                   structure_seed + 9000)
    compiled = default_cache().compile(graph, values)
    interp, fused = run_both(compiled.program)
    assert_registers_match(compiled.program, interp, fused)


def test_plan_cached_per_program_structure():
    program = _ProgramFuzzer(99).build()
    plan_a = plan_for(program)
    plan_b = plan_for(program)
    assert plan_a is plan_b
