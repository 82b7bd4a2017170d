"""Fused vectorized execution backend for ORIANNA programs.

The functional :class:`~repro.compiler.executor.Executor` interprets
MO-ISA instructions one at a time in pure Python.  On every
application most instructions sit in independent same-opcode groups
per dependency level; this module executes each such group as one
block op (``tests/compiler/test_fused_dispatch_counts.py`` pins the
resulting dispatch counts):

- :func:`build_plan` lowers a compiled program **once** into a
  :class:`FusedPlan`: the def-use DAG is level-ized with
  :meth:`Program.levels` (two non-CONST instructions on the same level
  cannot depend on each other), and each level's same-opcode groups are
  split by an exact *batch signature* (operand shapes plus the meta
  fields that change the computation — VP sign, MM/MV negate, STACK
  axis, QR front layout, BSUB parent layout — and, for products, which
  operands are transposed RT views).  Uniform groups become one
  batched NumPy block op (stacked ``matmul`` on 3-D arrays, vectorized
  adds/copies/stacks, stacked-front QR, batched back-substitution);
  singleton or irregular groups (EMBED host calls, the so(2)/so(3)
  special functions) fall back to the per-instruction handlers.
- Batch steps are **chained through slabs**: each step keeps its 3-D
  output block, and a consumer whose operands are exactly a producer's
  outputs gathers with one precompiled fancy index (or reuses the
  slab outright) instead of per-member register-file lookups.  Operands
  scattered across producers fall back to a single C-level
  ``itemgetter`` over the register file.
- CONST loads are hoisted: the plan records each CONST site by position
  and :meth:`FusedPlan.execute` preloads all of them in one
  ``dict.update`` before any level runs.  New numerics change only
  those values (and the EMBED factor references), never the plan: a
  solve session (:class:`~repro.optim.compiled.CompiledSolver`)
  rewrites them in place on its own program, and programs of one
  structure share one plan through their structure slot
  (:meth:`~repro.compiler.isa.Program.structure_slot`): every frame
  with the same streams (:func:`~repro.compiler.codegen.
  compile_application`) and every rebind of one cached stream.
- Bit-identity with the interpreter is engineered, not hoped for: the
  batched elementwise kernels perform the same per-element IEEE
  operations in the same order; stacked ``np.matmul`` runs the same
  GEMM per slice; stacked ``np.linalg.qr(mode="r")`` produces the same
  R factor per front as the interpreter's per-front reduced QR; and
  the back-substitution step replicates :func:`scipy.linalg.
  solve_triangular`'s exact LAPACK dispatch (``trtrs`` on the
  transposed system for C-ordered operands).  A product's stack of
  transposed operands (RT outputs) stays transposed, because BLAS
  rounds a product on a transposed view differently than on a
  C-ordered copy.
  The differential harness (``tests/diff``) and the property/fuzz
  suite (``tests/compiler/test_fused_property.py``) enforce this, with
  a documented small-ulp bound as the backstop for BLAS builds that
  reorder reductions.

:class:`FusedExecutor` is a drop-in :class:`Executor`: ``run(program)``
returns the same register file and runs the same hooks (value tracer,
injector, deadline guard) through the shared dispatch loop, with one
step per fused group (:meth:`FusedPlan.iter_steps`).

Backend selection: ``backend="fused"`` on the optimizer loops,
``CompiledSolver(executor=...)``, or the ``REPRO_EXECUTOR`` environment
variable (``interpreter``/``fused``) as the process default.
"""

from __future__ import annotations

import os
from operator import itemgetter
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dtrtrs

from repro.errors import ExecutionError
from repro.compiler.executor import Executor
from repro.compiler.isa import Instruction, Opcode, Program
from repro.obs import counters
from repro.obs.core import is_enabled as _obs_enabled

try:  # direct gufunc access: same kernel np.linalg.qr(mode="r") calls,
    # minus the wrapper's input copy and triu allocation (bit-identical;
    # private API, so fall back to the public wrapper when absent).
    from numpy.linalg import _umath_linalg as _qr_gufuncs
    from numpy.linalg._linalg import _raise_linalgerror_qr as _qr_error
except ImportError:  # pragma: no cover - exercised on older numpy
    _qr_gufuncs = None
    _qr_error = None

__all__ = [
    "BATCH_MIN",
    "EXECUTOR_ENV",
    "EXECUTOR_FUSED",
    "EXECUTOR_INTERPRETER",
    "EXECUTOR_NAMES",
    "FusedExecutor",
    "FusedPlan",
    "batch_signature",
    "build_plan",
    "default_executor_name",
    "executor_factory",
    "plan_for",
]

EXECUTOR_ENV = "REPRO_EXECUTOR"
EXECUTOR_INTERPRETER = "interpreter"
EXECUTOR_FUSED = "fused"
EXECUTOR_NAMES = (EXECUTOR_INTERPRETER, EXECUTOR_FUSED)

# Smallest group a batched block op is built for: below this the
# stack/unstack bookkeeping costs more than the dispatch it saves.
# BSUB is the exception (any size): its batch kernel replaces the
# scipy solve_triangular wrapper with the raw LAPACK call, which wins
# even for a single member.
BATCH_MIN = 2

# Opcodes with a batched block-op lowering.  Everything else (EMBED
# host calls, the so(2)/so(3) special functions) executes through the
# per-instruction fallback handlers.
_BATCHABLE = frozenset({
    Opcode.VP, Opcode.ADD, Opcode.COPY, Opcode.RT,
    Opcode.RR, Opcode.RV, Opcode.MM, Opcode.MV,
    Opcode.STACK, Opcode.QR, Opcode.BSUB,
})

# Opcodes whose handlers call BLAS on their operands' memory layout.
_PRODUCTS = frozenset({Opcode.RR, Opcode.RV, Opcode.MM, Opcode.MV})


# ----------------------------------------------------------------------
# Batch signatures: when may two instructions share one block op?
# ----------------------------------------------------------------------

def _shape_of(program: Program, reg: str) -> Tuple[int, ...]:
    shape = program.register_shapes.get(reg)
    if shape is None:
        raise ExecutionError(f"register {reg} has no recorded shape")
    return tuple(shape)


def _qr_layout_key(instr: Instruction) -> Tuple:
    """The full assembly layout of one QR front, value-free.

    Two fronts with equal layout keys stack identical row blocks into
    identically shaped frontal matrices with the same column scatter,
    so their assembly loops and LAPACK calls can be shared.
    """
    meta = instr.meta
    sources = tuple(
        (int(source["rows"]),
         tuple(sorted((int(s), int(d), int(dim))
                      for s, d, dim in source["cols"].values())))
        for source in meta["sources"]
    )
    return (int(meta["frontal_dim"]), int(meta["total_cols"]),
            len(instr.dsts), int(meta.get("marginal_rows", 0)), sources)


def _transposed_registers(program: Program) -> frozenset:
    """Registers holding transposed views: the 2-D RT outputs."""
    return frozenset(
        instr.dsts[0] for instr in program.instructions
        if instr.op is Opcode.RT
        and len(_shape_of(program, instr.dsts[0])) == 2)


def batch_signature(program: Program, instr: Instruction,
                    transposed: frozenset) -> Tuple:
    """The exact key under which instructions may share one block op.

    Two instructions with equal signatures perform the *same* numeric
    computation on same-shaped operands; stacking them is then a pure
    data-layout change.  The signature folds in every meta field the
    opcode handlers read, so e.g. a negated and a plain MV can never
    land in one batch.  A product also records which operands are in
    ``transposed`` (see :func:`_transposed_registers`): BLAS rounds a
    product on a transposed view differently than on a C-ordered
    operand, and one gathered stack holds one layout.
    """
    op = instr.op
    if op is Opcode.QR:
        return (op.value, None, _qr_layout_key(instr))
    shapes = tuple(_shape_of(program, s) for s in instr.srcs)
    if op is Opcode.VP:
        extra: Tuple = (instr.meta.get("sign", 1),)
    elif op is Opcode.MM:
        extra = (bool(instr.meta.get("negate")),
                 bool(instr.meta.get("b_as_column")))
    elif op is Opcode.MV:
        extra = (bool(instr.meta.get("negate")),)
    elif op is Opcode.COPY:
        extra = (bool(instr.meta.get("negate")),)
    elif op is Opcode.STACK:
        extra = (instr.meta.get("axis", 0),)
    elif op is Opcode.BSUB:
        extra = (int(instr.meta["frontal_dim"]),
                 tuple((int(s), int(d)) for s, d in instr.meta["parents"]))
    else:
        extra = ()
    if op in _PRODUCTS:
        extra += (tuple(src in transposed for src in instr.srcs),)
    return (op.value, shapes, extra)


# ----------------------------------------------------------------------
# Gathers: how a batch step pulls its stacked operands
#
# Resolved at plan-build time.  When every member's source register is
# an output of one earlier batch step, the gather is a precompiled
# index into that step's retained output slab — whole-slab reuse when
# the rows line up exactly, one C-level fancy index otherwise.  Mixed
# or interpreter-produced operands fall back to a single ``itemgetter``
# over the register file (C-level multi-key lookup).
# ----------------------------------------------------------------------

def _slab_gather(port: int):
    def gather(registers, slabs, _p=port):
        return slabs[_p]
    return gather


def _slab_index_gather(port: int, rows: List[int]):
    idx = np.asarray(rows)

    def gather(registers, slabs, _p=port, _i=idx):
        return slabs[_p][_i]
    return gather


def _dict_gather(names: List[str], transposed: bool = False):
    # ``np.asarray`` of a tuple builds a C-ordered stack.  A product's
    # transposed operands (RT outputs) must stay transposed, because
    # BLAS rounds a product on a transposed view differently than on a
    # C copy: ``np.stack`` keeps their layout, at ~0.45 us per member.
    stack = np.stack if transposed else np.asarray
    if len(names) == 1:
        def gather(registers, slabs, _n=names[0], _s=stack):
            return _s((registers[_n],))
        return gather
    getter = itemgetter(*names)

    def gather(registers, slabs, _g=getter, _s=stack):
        return _s(_g(registers))
    return gather


# ----------------------------------------------------------------------
# Plan steps
# ----------------------------------------------------------------------

class _BatchStep:
    """One fused dispatch: a same-signature group executed as a block op.

    ``gathers`` are the precompiled operand pulls (one per operand
    position); ``dsts`` the destination names in member order;
    ``kernel`` the opcode-specific block function returning the stacked
    result, which is published to the register file (SSA registers are
    never mutated, so slab views are safe) and retained as this step's
    output slab.  ``indices`` are the members' positions in
    ``program.instructions`` (stable across cache rebinds), kept for
    accounting and instrumentation.
    """

    __slots__ = ("op", "indices", "gathers", "dsts", "kernel", "port")

    def __init__(self, op: Opcode, indices: List[int],
                 gathers: List[Any], dsts: List[str], kernel: Callable,
                 port: int):
        self.op = op
        self.indices = indices
        self.gathers = gathers
        self.dsts = dsts
        self.kernel = kernel
        self.port = port

    @property
    def size(self) -> int:
        return len(self.indices)

    def execute(self, executor: Executor, program: Program,
                slabs: List[Any]) -> None:
        registers = executor.registers
        block = self.kernel(registers, self.gathers, slabs)
        registers.update(zip(self.dsts, block))
        slabs[self.port] = block


class _QRStep:
    """A group of same-layout QR fronts executed as one stacked QR.

    The front assembly (which row block lands where in the frontal
    matrix) is compiled at plan-build time into slab copies shared by
    every member; the factorization is one stacked
    ``np.linalg.qr(mode="r")`` call — per-slice bit-identical to the
    interpreter's per-front reduced QR, which discards Q anyway.
    """

    __slots__ = ("op", "indices", "gathers", "rows", "cols",
                 "copies", "rhs_copies", "frontal_dim", "marginal_rows",
                 "cond_dsts", "marg_dsts", "port", "marg_port",
                 "mn", "lower_mask")

    def __init__(self, indices: List[int],
                 members: List[Instruction], gathers: List[Any],
                 port: int, marg_port: int):
        first = members[0]
        meta = first.meta
        self.op = Opcode.QR
        self.indices = indices
        self.gathers = gathers
        self.port = port
        self.marg_port = marg_port
        self.frontal_dim = int(meta["frontal_dim"])
        total_cols = int(meta["total_cols"])
        self.rows = sum(int(s["rows"]) for s in meta["sources"])
        self.cols = total_cols + 1
        self.copies: List[Tuple[int, int, int, int, int, int]] = []
        self.rhs_copies: List[Tuple[int, int, int]] = []
        row = 0
        for position, source in enumerate(meta["sources"]):
            rows_s = int(source["rows"])
            for src_start, dst_start, dim in source["cols"].values():
                self.copies.append((position, row, rows_s,
                                    int(dst_start), int(src_start), int(dim)))
            self.rhs_copies.append((position, row, rows_s))
            row += rows_s
        self.cond_dsts = [m.dsts[0] for m in members]
        if len(first.dsts) == 2:
            self.marginal_rows = int(meta["marginal_rows"])
            self.marg_dsts = [m.dsts[1] for m in members]
        else:
            self.marginal_rows = 0
            self.marg_dsts = []
        # For the direct-gufunc path: R occupies the first mn rows of
        # the factored buffer; the strictly-lower triangle (which holds
        # Householder vectors after qr_r_raw) is zeroed with this mask,
        # matching np.triu in the public wrapper.
        self.mn = min(self.rows, self.cols)
        self.lower_mask = np.tri(self.mn, self.cols, -1, dtype=bool)

    @property
    def size(self) -> int:
        return len(self.indices)

    def execute(self, executor: Executor, program: Program,
                slabs: List[Any]) -> None:
        registers = executor.registers
        blocks = [g(registers, slabs) for g in self.gathers]
        stacked = np.zeros((self.size, self.rows, self.cols))
        for position, row, rows_s, dst, src, dim in self.copies:
            stacked[:, row:row + rows_s, dst:dst + dim] = \
                blocks[position][:, :, src:src + dim]
        rhs_col = self.cols - 1
        for position, row, rows_s in self.rhs_copies:
            stacked[:, row:row + rows_s, rhs_col] = \
                blocks[position][:, :, -1]
        if _qr_gufuncs is not None:
            # We own `stacked`, so factor it in place: same gufunc the
            # public wrapper calls, minus its defensive copy.
            with np.errstate(call=_qr_error, invalid="call",
                             over="ignore", divide="ignore",
                             under="ignore"):
                _qr_gufuncs.qr_r_raw(stacked, signature="d->d")
            r = stacked[:, :self.mn, :]
            r[:, self.lower_mask] = 0.0
        else:  # pragma: no cover - exercised on older numpy
            r = np.linalg.qr(stacked, mode="r")
        frontal = self.frontal_dim
        conditional = r[:, :frontal, :]
        if _obs_enabled():
            from repro.optim.probes import record_qr_condition

            for i in range(self.size):
                record_qr_condition(
                    np.diagonal(conditional[i, :, :frontal]))
        registers.update(zip(self.cond_dsts, conditional))
        slabs[self.port] = conditional
        if self.marg_dsts:
            marginal = r[:, frontal:, frontal:]
            have = marginal.shape[1]
            if have < self.marginal_rows:
                pad = np.zeros((self.size, self.marginal_rows - have,
                                marginal.shape[2]))
                marginal = np.concatenate([marginal, pad], axis=1)
            marginal = marginal[:, :self.marginal_rows, :]
            registers.update(zip(self.marg_dsts, marginal))
            slabs[self.marg_port] = marginal


class _FallbackStep:
    """Per-instruction execution of one irregular/singleton group.

    Instructions are resolved by position against the *current* program
    so value-bearing EMBED sites pick up the rebound factor/values.
    """

    __slots__ = ("op", "indices", "handler_name")

    def __init__(self, op: Opcode, indices: List[int]):
        self.op = op
        self.indices = indices
        self.handler_name = f"_op_{op.value}"

    @property
    def size(self) -> int:
        return len(self.indices)

    def execute(self, executor: Executor, program: Program,
                slabs: List[Any]) -> None:
        handler = getattr(executor, self.handler_name, None)
        if handler is None:
            raise ExecutionError(
                f"no handler for opcode {self.op} in fused fallback"
            )
        instructions = program.instructions
        for index in self.indices:
            handler(instructions[index])


# ----------------------------------------------------------------------
# Batched kernels (registers, gathers, slabs) -> stacked result block
#
# Every kernel performs the interpreter handler's arithmetic on stacked
# operands: elementwise ops are bit-identical by construction, matmuls
# run the same GEMM per 3-D slice.
# ----------------------------------------------------------------------

def _kernel_vp(sign: int):
    def kernel(registers, gathers, slabs):
        a = gathers[0](registers, slabs)
        b = gathers[1](registers, slabs)
        return a + b if sign >= 0 else a - b
    return kernel


def _kernel_add(registers, gathers, slabs):
    out = gathers[0](registers, slabs)
    for gather in gathers[1:]:
        out = out + gather(registers, slabs)
    return out


def _kernel_copy(negate: bool):
    if negate:
        def kernel(registers, gathers, slabs):
            return -gathers[0](registers, slabs)
    else:
        def kernel(registers, gathers, slabs):
            return gathers[0](registers, slabs)
    return kernel


def _kernel_rt(ndim: int):
    def kernel(registers, gathers, slabs):
        block = gathers[0](registers, slabs)
        if ndim == 2:
            block = block.transpose(0, 2, 1)
        return block
    return kernel


def _kernel_matmat(negate: bool, b_as_column: bool):
    def kernel(registers, gathers, slabs):
        a = gathers[0](registers, slabs)
        b = gathers[1](registers, slabs)
        if b_as_column:
            b = b[..., None]
        out = a @ b
        return -out if negate else out
    return kernel


def _kernel_matvec(negate: bool):
    def kernel(registers, gathers, slabs):
        a = gathers[0](registers, slabs)
        v = gathers[1](registers, slabs)
        out = (a @ v[..., None])[..., 0]
        return -out if negate else out
    return kernel


def _kernel_stack(axis: int, shapes: Tuple[Tuple[int, ...], ...],
                  size: int):
    """Batched STACK: one output slab filled by vectorized block copies.

    Mirrors :meth:`Executor._op_stack` exactly: axis 0 concatenates
    1-D sources, or vstacks rows with 1-D sources as single rows;
    axis 1 hstacks columns with 1-D sources as single columns.
    """
    all_1d = all(len(s) == 1 for s in shapes)
    if axis == 0 and all_1d:
        sizes = [s[0] for s in shapes]
        offsets = np.cumsum([0] + sizes)
        total = int(offsets[-1])

        def kernel(registers, gathers, slabs):
            out = np.empty((size, total))
            for i, gather in enumerate(gathers):
                out[:, offsets[i]:offsets[i + 1]] = \
                    gather(registers, slabs)
            return out
        return kernel

    if axis == 0:
        rows = [1 if len(s) == 1 else s[0] for s in shapes]
        cols = shapes[0][0] if len(shapes[0]) == 1 else shapes[0][1]
        offsets = np.cumsum([0] + rows)
        total = int(offsets[-1])

        def kernel(registers, gathers, slabs):
            out = np.empty((size, total, cols))
            for i, gather in enumerate(gathers):
                block = gather(registers, slabs)
                if block.ndim == 2:
                    block = block[:, None, :]
                out[:, offsets[i]:offsets[i + 1], :] = block
            return out
        return kernel

    # axis == 1: hstack with 1-D sources as single columns.
    cols = [1 if len(s) == 1 else s[1] for s in shapes]
    rows0 = shapes[0][0]
    offsets = np.cumsum([0] + cols)
    total = int(offsets[-1])

    def kernel(registers, gathers, slabs):
        out = np.empty((size, rows0, total))
        for i, gather in enumerate(gathers):
            block = gather(registers, slabs)
            if block.ndim == 2:
                block = block[:, :, None]
            out[:, :, offsets[i]:offsets[i + 1]] = block
        return out
    return kernel


def _kernel_bsub(frontal_dim: int, parents: Tuple[Tuple[int, int], ...]):
    """Batched back-substitution for one same-layout group.

    The RHS parent updates (``rhs - S @ x_parent``) are stacked matmuls;
    the triangular solves stay one LAPACK ``trtrs`` call per member —
    dispatched exactly as the interpreter's ``solve_triangular`` would.
    The conditional slices here are never Fortran-contiguous (they are
    strided views into the stacked block; the 1x1 case is flagged
    contiguous but both trtrs dispatches reduce to the same scalar
    division), so scipy's transposed-system path applies unconditionally
    and the solve is bit-for-bit the same.
    """
    def kernel(registers, gathers, slabs):
        conditional = gathers[0](registers, slabs)
        r = conditional[:, :, :frontal_dim]
        rhs = conditional[:, :, -1].copy()
        for (start, dim), gather in zip(parents, gathers[1:]):
            s_block = conditional[:, :, start:start + dim]
            x = gather(registers, slabs)
            rhs = rhs - (s_block @ x[..., None])[..., 0]
        diag = np.diagonal(r, axis1=1, axis2=2)
        if np.abs(diag).min() < 1e-12:
            raise ExecutionError(
                "singular conditional in back substitution (variable "
                "under-determined)"
            )
        out = np.empty_like(rhs)
        for i in range(len(out)):
            x, info = dtrtrs(r[i].T, rhs[i], lower=1, trans=1, unitdiag=0)
            if info != 0:
                raise ExecutionError(
                    f"trtrs failed during back substitution (info={info})")
            out[i] = x
        return out
    return kernel


def _make_kernel(instr: Instruction, signature: Tuple,
                 size: int) -> Optional[Callable]:
    """The block kernel for one signature, or None to force fallback."""
    op = instr.op
    _, shapes, extra = signature
    if op is Opcode.VP:
        sign = extra[0]
        if sign not in (1, -1):
            return None  # a + sign*b with |sign| != 1: keep exact path
        return _kernel_vp(int(sign))
    if op is Opcode.ADD:
        return _kernel_add
    if op is Opcode.COPY:
        return _kernel_copy(bool(extra[0]))
    if op is Opcode.RT:
        return _kernel_rt(len(shapes[0]))
    if op in (Opcode.RR, Opcode.RV):
        if len(shapes[1]) == 1:
            return _kernel_matvec(False)
        return _kernel_matmat(False, False)
    if op is Opcode.MM:
        negate, b_as_column = bool(extra[0]), bool(extra[1])
        if b_as_column and len(shapes[1]) != 1:
            b_as_column = False  # handler only reshapes 1-D b
        if not b_as_column and len(shapes[1]) == 1:
            return _kernel_matvec(negate)
        return _kernel_matmat(negate, b_as_column)
    if op is Opcode.MV:
        negate = bool(extra[0])
        if len(shapes[1]) == 1:
            return _kernel_matvec(negate)
        return _kernel_matmat(negate, False)
    if op is Opcode.STACK:
        return _kernel_stack(int(extra[0]), shapes, size)
    if op is Opcode.BSUB:
        return _kernel_bsub(int(extra[0]), tuple(extra[1]))
    return None


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------

class FusedPlan:
    """A program lowered to preloaded constants plus fused level steps.

    Built once per structure (see :func:`plan_for`); executing it against
    a rebound or refreshed program only re-reads the CONST numeric slabs
    and the EMBED factor references from the current instruction list.
    Instruction metas are immutable while a program runs, which lets
    constant values and constant operand stacks be memoized on the
    program itself.  Between runs, the solve session that owns a
    program (:class:`~repro.optim.compiled.CompiledSolver`) may rewrite
    its value sites in place; it then drops ``_fused_const_memo``.
    """

    __slots__ = ("instructions", "const_sites", "const_ports", "steps",
                 "ports", "slab_rows")

    def __init__(self, instructions: int,
                 const_sites: List[Tuple[int, str]],
                 const_ports: List[Tuple[int, Tuple[str, ...]]],
                 steps: List[Any], ports: int,
                 slab_rows: Dict[str, Tuple[int, int]]):
        self.instructions = instructions
        self.const_sites = const_sites
        self.const_ports = const_ports
        self.steps = steps
        self.ports = ports
        self.slab_rows = slab_rows  # step output register -> (port, row)

    # -- accounting ----------------------------------------------------
    def dispatch_count(self) -> int:
        """Dispatches one execution performs: one per step, and one for
        the whole CONST preload slab (when any)."""
        return len(self.steps) + (1 if self.const_sites else 0)

    # -- execution -----------------------------------------------------
    def preload_constants(self, executor: Executor, program: Program,
                          slabs: List[Any]) -> None:
        """Load every CONST site's current numeric slab in one update.

        The (dst, value) pairs — and the stacked operand blocks for
        gathers whose members are all constants (``const_ports``) — are
        memoized on the program object together with the plan that
        built them: a rebind or a new frame produces a fresh ``Program``
        (a fresh memo, even where the plan is shared), and an in-place
        ``Program.extend`` detaches the program from its structure slot
        and so gets a fresh plan (either invalidates the memo), while
        repeat executions of the same program (bench repeats) reuse
        them at zero marginal cost.  Metas are immutable while the
        program runs; a solve session that rewrites its program's value
        sites between runs drops ``program._fused_const_memo`` so the
        next preload re-reads them.
        """
        registers = executor.registers
        memo = getattr(program, "_fused_const_memo", None)
        if memo is None or memo[0] is not self:
            instructions = program.instructions
            pairs = [
                (dst, np.asarray(instructions[index].meta["value"],
                                 dtype=float))
                for index, dst in self.const_sites
            ]
            registers.update(pairs)
            stacks = [_dict_gather(names)(registers, slabs)
                      for _, names in self.const_ports]
            memo = (self, pairs, stacks)
            program._fused_const_memo = memo
        else:
            registers.update(memo[1])
        for (port, _), stack in zip(self.const_ports, memo[2]):
            slabs[port] = stack

    def execute(self, executor: Executor, program: Program) -> None:
        slabs: List[Any] = [None] * self.ports
        self.preload_constants(executor, program, slabs)
        for step in self.steps:
            step.execute(executor, program, slabs)

    def iter_steps(self, executor: Executor,
                   program: Program) -> Generator:
        """:meth:`execute` one dispatch at a time, for the hooked loop.

        Yields each dispatch's instruction indices (first the CONST
        preload, when any), so the dispatch count is
        :meth:`dispatch_count`; a step number sent back resumes there.
        A result a hook replaced goes into a fresh copy of its step's
        slab (a replaced constant re-gathers its const ports); after a
        drop, each later step first reads its sources from the register
        file, so a missing one raises instead of being read stale.
        """
        steps = ([None] if self.const_sites else []) + self.steps
        slabs: List[Any] = [None] * self.ports
        instructions = program.instructions
        position, dropped = 0, False
        while position < len(steps):
            step = steps[position]
            if step is None:
                self.preload_constants(executor, program, slabs)
                indices = [index for index, _ in self.const_sites]
            else:
                if dropped:
                    for index in step.indices:
                        executor._srcs(instructions[index])
                step.execute(executor, program, slabs)
                indices = step.indices
            written = {d: executor.registers[d] for index in indices
                       for d in instructions[index].dsts}
            resume = yield indices
            if resume is not None:  # the hook restored an earlier state
                position = resume
                continue
            position += 1
            registers = executor.registers
            replaced = [d for d, value in written.items()
                        if registers.get(d) is not value]
            dropped = dropped or any(d not in registers for d in replaced)
            fresh: Dict[int, Any] = {}
            for name in replaced:
                if name in registers and name in self.slab_rows:
                    port, row = self.slab_rows[name]
                    if port not in fresh:
                        fresh[port] = slabs[port] = \
                            slabs[port].copy(order="K")
                    fresh[port][row] = registers[name]
            if step is None:
                for port, names in self.const_ports:
                    if not set(names).isdisjoint(replaced) \
                            and all(n in registers for n in names):
                        slabs[port] = _dict_gather(names)(registers, slabs)


class _PlanBuilder:
    """Accumulates steps while tracking which slab port owns each
    register, so consumer gathers compile down to slab indexes.

    Gathers whose members are *all* CONST registers get their own slab
    port, filled once per run at preload time from a per-program memo
    (constant operand stacks never change between runs of one binding).
    """

    def __init__(self, const_names) -> None:
        self.steps: List[Any] = []
        self.ports: Dict[str, Tuple[int, int]] = {}
        self.port_sizes: List[int] = []
        self.const_names = const_names
        self.const_ports: List[Tuple[int, Tuple[str, ...]]] = []
        self._const_port_by_names: Dict[Tuple[str, ...], int] = {}

    def new_port(self, dsts: List[str]) -> int:
        port = len(self.port_sizes)
        self.port_sizes.append(len(dsts))
        for row, name in enumerate(dsts):
            self.ports[name] = (port, row)
        return port

    def make_gather(self, names: List[str], transposed: bool = False):
        mapped = [self.ports.get(n) for n in names]
        if all(m is not None for m in mapped):
            port = mapped[0][0]
            if all(m[0] == port for m in mapped):
                rows = [m[1] for m in mapped]
                if rows == list(range(self.port_sizes[port])):
                    return _slab_gather(port)
                return _slab_index_gather(port, rows)
        if self.const_names and all(n in self.const_names for n in names):
            key = tuple(names)
            port = self._const_port_by_names.get(key)
            if port is None:
                port = len(self.port_sizes)
                self.port_sizes.append(len(names))
                self._const_port_by_names[key] = port
                self.const_ports.append((port, key))
            return _slab_gather(port)
        return _dict_gather(names, transposed)


def build_plan(program: Program) -> FusedPlan:
    """Lower one program into a :class:`FusedPlan` (structure only).

    Safe to reuse across every program of one structure slot (frames
    with the same streams, rebinds of one cached template) and across
    solve-session refreshes: the plan references instructions by
    position and registers by name, both invariant under new numerics.
    """
    levels = program.levels()
    const_sites: List[Tuple[int, str]] = []
    by_level: Dict[int, List[Tuple[int, Instruction]]] = {}
    for position, instr in enumerate(program.instructions):
        if instr.op is Opcode.CONST:
            const_sites.append((position, instr.dsts[0]))
            continue
        by_level.setdefault(levels[instr.uid], []).append((position, instr))

    builder = _PlanBuilder({dst for _, dst in const_sites})
    steps = builder.steps
    transposed = _transposed_registers(program)
    for level in sorted(by_level):
        groups: Dict[Tuple, List[Tuple[int, Instruction]]] = {}
        order: List[Tuple] = []
        for position, instr in by_level[level]:
            if instr.op in _BATCHABLE:
                key = batch_signature(program, instr, transposed)
            else:
                # Irregular opcodes always fall back; group them per
                # opcode so the loop still saves the handler lookups.
                key = (instr.op.value, None, None)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append((position, instr))
        for key in order:
            members = groups[key]
            indices = [p for p, _ in members]
            instrs = [i for _, i in members]
            first = instrs[0]
            if first.op is Opcode.QR and key[2] is not None:
                gathers = []
                for position in range(len(first.meta["sources"])):
                    names = [m.meta["sources"][position]["reg"]
                             for m in instrs]
                    gathers.append(builder.make_gather(names))
                port = builder.new_port([m.dsts[0] for m in instrs])
                marg_port = -1
                if len(first.dsts) == 2:
                    marg_port = builder.new_port(
                        [m.dsts[1] for m in instrs])
                steps.append(_QRStep(indices, instrs, gathers,
                                     port, marg_port))
                continue
            kernel = None
            min_size = 1 if first.op is Opcode.BSUB else BATCH_MIN
            if len(members) >= min_size and key[1] is not None:
                kernel = _make_kernel(first, key, len(members))
            if kernel is None:
                steps.append(_FallbackStep(first.op, indices))
                continue
            # A product's signature keeps transposed and C-ordered
            # operands apart, so the first member speaks for all.
            gathers = [
                builder.make_gather(
                    [m.srcs[position] for m in instrs],
                    first.op in _PRODUCTS and src in transposed)
                for position, src in enumerate(first.srcs)
            ]
            dsts = [instr.dsts[0] for instr in instrs]
            steps.append(_BatchStep(
                first.op, indices,
                gathers=gathers, dsts=dsts, kernel=kernel,
                port=builder.new_port(dsts),
            ))
    counters.incr("fused.plan.build")
    return FusedPlan(len(program.instructions), const_sites,
                     builder.const_ports, steps,
                     len(builder.port_sizes), builder.ports)


# ----------------------------------------------------------------------
# Plan caching: one plan per structure
# ----------------------------------------------------------------------

def plan_for(program: Program) -> FusedPlan:
    """The plan in the program's structure slot, built on first use.

    Every frame with the same streams shares one slot
    (:func:`~repro.compiler.codegen.compile_application`), and so does
    every rebind of one cached stream
    (:meth:`~repro.compiler.cache.CompilationCache.compile_stream`):
    the first fused run of any of them builds the plan for all.  A program
    nobody keyed plans into a private slot.  Raises
    :class:`~repro.errors.CompileError` when the program's structure
    key differs from its slot's (:meth:`Program.structure_slot`).
    """
    slot = program.structure_slot()
    plan = slot.plan
    if plan is None or plan.instructions != len(program.instructions):
        plan = build_plan(program)
        slot.plan = plan
    else:
        counters.incr("fused.plan.hit")
    return plan


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------

class FusedExecutor(Executor):
    """Executes programs through cached fused plans.

    A drop-in :class:`Executor`: same constructor, same ``run`` &
    register-file contract, same results.  With a hook installed the
    plan runs through the shared :meth:`Executor._dispatch` loop, one
    step per fused dispatch: the injector and deadline guard see each
    group's member indices, and the value tracer's program-order replay
    is byte-identical to an interpreter trace.
    """

    def run(self, program: Program) -> Dict[str, np.ndarray]:
        plan = plan_for(program)
        if self._hooked():
            return self._dispatch(program, plan.iter_steps(self, program),
                                  plan.dispatch_count())
        plan.execute(self, program)
        return self.registers


# ----------------------------------------------------------------------
# Backend selection (env var / per-solver name)
# ----------------------------------------------------------------------

def _validate_name(name: str) -> str:
    name = name.strip().lower()
    if name not in EXECUTOR_NAMES:
        raise ValueError(
            f"unknown executor {name!r} (known: "
            f"{', '.join(EXECUTOR_NAMES)})"
        )
    return name


def default_executor_name() -> str:
    """The process-wide executor, from ``REPRO_EXECUTOR``.

    An unset or empty environment variable selects the instruction-level
    interpreter; unknown names raise so typos cannot silently fall back
    to the slow path.
    """
    env = os.environ.get(EXECUTOR_ENV, "")
    if not env.strip():
        return EXECUTOR_INTERPRETER
    return _validate_name(env)


def executor_factory(name: Optional[str] = None) -> Callable[[], Executor]:
    """The executor class for ``name`` (default: the process default)."""
    resolved = default_executor_name() if name is None \
        else _validate_name(name)
    return FusedExecutor if resolved == EXECUTOR_FUSED else Executor
