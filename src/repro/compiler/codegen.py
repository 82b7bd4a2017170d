"""Code generation: factor graphs to complete ORIANNA programs.

The compiler pipeline of Sec. 5.2:

1. For every factor node, build its MO-DFG and emit error instructions
   (forward traversal) and derivative instructions (backward propagation);
   whiten both with the factor's noise and stack them into the factor's
   *row block* ``[W J_k1 | ... | W J_kn | b]``.
2. Walk the factor graph in the elimination order, emitting one QR
   instruction per variable (Fig. 5) whose marginal output becomes a new
   row block on the separator.
3. Emit back-substitution instructions in reverse order (Fig. 6).

The result is an executable :class:`Program`; its register def-use edges
encode every data dependency the out-of-order hardware may exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CompileError
from repro.compiler.isa import (
    Opcode,
    PHASE_BACKSUB,
    PHASE_CONSTRUCT,
    PHASE_DECOMPOSE,
    Program,
)
from repro.compiler.library import factor_expression
from repro.compiler.modfg import MoDFG, ModfgEmitter
from repro.compiler.provenance import (
    STAGE_BACKSUB,
    STAGE_ELIMINATE,
    STAGE_EMBED,
    STAGE_JACOBIAN,
    STAGE_WHITEN,
)
from repro.factorgraph.factor import Factor
from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.keys import Key
from repro.factorgraph.values import Values
from repro.obs import counters, trace


@dataclass
class RowBlock:
    """A compiled block row of the linear system.

    ``reg`` holds a ``rows x (width + 1)`` matrix whose last column is the
    RHS; ``cols`` maps each touched key to its (start, dim) column range.
    """

    reg: str
    rows: int
    cols: Dict[Key, Tuple[int, int]]

    def touches(self, key: Key) -> bool:
        return key in self.cols


@dataclass
class CompiledGraph:
    """A compiled factor graph: program plus result-register bookkeeping."""

    program: Program
    row_blocks: List[RowBlock]
    solution_registers: Dict[Key, str] = field(default_factory=dict)
    key_dims: Dict[Key, int] = field(default_factory=dict)
    ordering: List[Key] = field(default_factory=list)

    def extract_solution(self, registers) -> Dict[Key, np.ndarray]:
        """Pull the per-variable delta out of an executed register file."""
        return {k: registers[reg] for k, reg in self.solution_registers.items()}

    def optimized(self) -> "CompiledGraph":
        """This compilation with the CSE + DCE pass pipeline applied.

        Solution registers are preserved, so :meth:`extract_solution`
        works unchanged on the optimized program's register file.
        """
        from repro.compiler.passes import optimize_program

        return CompiledGraph(
            program=optimize_program(
                self.program, list(self.solution_registers.values())
            ),
            row_blocks=self.row_blocks,
            solution_registers=dict(self.solution_registers),
            key_dims=dict(self.key_dims),
            ordering=list(self.ordering),
        )


# ----------------------------------------------------------------------
# Factor compilation (linear-equation construction)
# ----------------------------------------------------------------------

def compile_factor(factor: Factor, program: Program,
                   values: Values, factor_id: int = 0) -> RowBlock:
    """Emit construct-phase instructions for one factor's row block.

    Every emitted instruction carries provenance naming this factor
    (``factor_id`` is the factor's index in its graph), so the simulator
    can attribute busy cycles and energy back to the application layer.
    """
    with program.provenance(factor_id=factor_id,
                            factor_type=type(factor).__name__):
        components = factor_expression(factor)
        if components is None:
            return _compile_embedded(factor, program, values, factor_id)
        return _compile_expression(factor, components, program, values,
                                   factor_id)


def _key_dim(values: Values, key: Key) -> int:
    return values.dim(key)


def _compile_embedded(factor: Factor, program: Program,
                      values: Values, factor_id: int = 0) -> RowBlock:
    """Single EMBED instruction for non-expressible sensor front-ends."""
    with program.provenance(stage=STAGE_EMBED, node_kind="embed"):
        return _emit_embedded(factor, program, values, factor_id)


def _emit_embedded(factor: Factor, program: Program,
                   values: Values, factor_id: int = 0) -> RowBlock:
    m = factor.dim
    block_regs = []
    cols: Dict[Key, Tuple[int, int]] = {}
    start = 0
    for key in factor.keys:
        d = _key_dim(values, key)
        reg = program.new_register("e", (m, d))
        block_regs.append(reg)
        cols[key] = (start, d)
        start += d
    rhs_reg = program.new_register("e", (m,))
    program.emit(
        Opcode.EMBED, [], block_regs + [rhs_reg],
        {"factor": factor, "values": values,
         "kind": type(factor).__name__,
         "binding": ("embed", factor_id)},
        PHASE_CONSTRUCT,
    )
    row_reg = program.new_register("row", (m, start + 1))
    program.emit(Opcode.STACK, block_regs + [rhs_reg], [row_reg],
                 {"axis": 1}, PHASE_CONSTRUCT)
    return RowBlock(row_reg, m, cols)


def _compile_expression(factor: Factor, components, program: Program,
                        values: Values, factor_id: int = 0) -> RowBlock:
    """Full MO-DFG emission: forward errors, backward derivatives.

    Emitted inside a ``construct.whiten`` default stage; the MO-DFG
    emitter narrows its own instructions to ``construct.error`` /
    ``construct.jacobian``, leaving whitening, block assembly and row
    stacking attributed to the whiten stage.
    """
    with program.provenance(stage=STAGE_WHITEN):
        return _emit_expression(factor, components, program, values,
                                factor_id)


def _emit_expression(factor: Factor, components, program: Program,
                     values: Values, factor_id: int = 0) -> RowBlock:
    dfg = MoDFG(components)
    if dfg.error_dim != factor.dim:
        raise CompileError(
            f"{type(factor).__name__} expression has error dim "
            f"{dfg.error_dim}, factor reports {factor.dim}"
        )
    emitter = ModfgEmitter(
        program, values, PHASE_CONSTRUCT, factor_id=factor_id,
        node_index={id(n): i for i, n in enumerate(dfg.nodes)},
    )
    component_regs = emitter.emit_forward(dfg)

    # Backward propagation per component; collect leaf adjoint blocks.
    per_component_blocks = [
        emitter.emit_backward(dfg, c) for c in dfg.components
    ]

    extra = [k for k in dfg.leaf_keys() if k not in factor.keys]
    if extra:
        raise CompileError(
            f"{type(factor).__name__} expression touches keys outside the "
            f"factor: {extra}"
        )

    # Whitening constant.
    m = factor.dim
    w_reg = program.new_register("c", (m, m))
    program.emit(Opcode.CONST, [], [w_reg],
                 {"value": factor.noise.sqrt_information, "label": "W",
                  "binding": ("noise", factor_id)},
                 PHASE_CONSTRUCT)

    # Error vector: stack components, then b = -W e.
    if len(component_regs) == 1:
        e_reg = component_regs[0]
    else:
        e_reg = program.new_register("v", (m,))
        program.emit(Opcode.STACK, component_regs, [e_reg], {"axis": 0},
                     PHASE_CONSTRUCT)
    b_reg = program.new_register("v", (m,))
    program.emit(Opcode.MV, [w_reg, e_reg], [b_reg], {"negate": True},
                 PHASE_CONSTRUCT)

    # Jacobian per key: per-component row blocks stacked vertically,
    # pose columns laid out as [phi | t].
    jac_regs: List[str] = []
    cols: Dict[Key, Tuple[int, int]] = {}
    start = 0
    for key in factor.keys:
        d = _key_dim(values, key)
        comp_regs = []
        for comp, blocks in zip(dfg.components, per_component_blocks):
            comp_regs.append(
                _component_block(program, values, key, d, comp.n,
                                 blocks.get(key))
            )
        if len(comp_regs) == 1:
            j_reg = comp_regs[0]
        else:
            j_reg = program.new_register("j", (m, d))
            program.emit(Opcode.STACK, comp_regs, [j_reg], {"axis": 0},
                         PHASE_CONSTRUCT)
        jw_reg = program.new_register("j", (m, d))
        program.emit(Opcode.MM, [w_reg, j_reg], [jw_reg], {},
                     PHASE_CONSTRUCT)
        jac_regs.append(jw_reg)
        cols[key] = (start, d)
        start += d

    row_reg = program.new_register("row", (m, start + 1))
    program.emit(Opcode.STACK, jac_regs + [b_reg], [row_reg], {"axis": 1},
                 PHASE_CONSTRUCT)
    return RowBlock(row_reg, m, cols)


def _component_block(program: Program, values: Values, key: Key, dim: int,
                     rows: int, slots: Optional[Dict[str, str]]) -> str:
    """Assemble one component's (rows x dim) Jacobian block for a key."""
    with program.provenance(stage=STAGE_JACOBIAN):
        return _emit_component_block(program, values, key, dim, rows, slots)


def _emit_component_block(program: Program, values: Values, key: Key,
                          dim: int, rows: int,
                          slots: Optional[Dict[str, str]]) -> str:
    value = values.at(key)
    from repro.geometry.pose import Pose

    def zeros(shape) -> str:
        reg = program.new_register("z", shape)
        program.emit(Opcode.CONST, [], [reg],
                     {"value": np.zeros(shape), "label": "0",
                      "binding": ("static",)},
                     PHASE_CONSTRUCT)
        return reg

    if isinstance(value, Pose):
        k = value.phi.shape[0]
        n = value.n
        rot_reg = (slots or {}).get("rot") or zeros((rows, k))
        trans_reg = (slots or {}).get("trans") or zeros((rows, n))
        out = program.new_register("j", (rows, dim))
        program.emit(Opcode.STACK, [rot_reg, trans_reg], [out],
                     {"axis": 1}, PHASE_CONSTRUCT)
        return out
    vec_reg = (slots or {}).get("vec")
    return vec_reg if vec_reg is not None else zeros((rows, dim))


# ----------------------------------------------------------------------
# Graph compilation (factor-graph inference instructions)
# ----------------------------------------------------------------------

def compile_graph(graph: FactorGraph, values: Values,
                  ordering: Optional[Sequence[Key]] = None,
                  algorithm: str = "",
                  register_prefix: str = "") -> CompiledGraph:
    """Compile one Gauss-Newton iteration of a factor graph.

    The emitted program constructs the linear system (construct phase),
    eliminates every variable by partial QR (decompose phase) and emits
    back-substitution instructions (backsub phase).  Executing it with
    :class:`repro.compiler.executor.Executor` yields the same solution as
    the reference :func:`repro.factorgraph.elimination.solve`.
    """
    with trace.span("codegen", category="compiler.pass",
                    algorithm=algorithm or "",
                    factors=len(graph.factors)) as sp:
        compiled = _compile_graph(graph, values, ordering, algorithm,
                                  register_prefix)
        sp.set(instructions_after=len(compiled.program.instructions))
    counters.incr("compiler.codegen.instructions",
                  len(compiled.program.instructions))
    return compiled


def _compile_graph(graph: FactorGraph, values: Values,
                   ordering: Optional[Sequence[Key]] = None,
                   algorithm: str = "",
                   register_prefix: str = "") -> CompiledGraph:
    program = Program(algorithm=algorithm)
    if register_prefix:
        # Keep register namespaces of different algorithms disjoint so
        # whole-application programs can be merged.
        original = program.new_register

        def prefixed(prefix: str, shape):
            return original(f"{register_prefix}.{prefix}", shape)

        program.new_register = prefixed  # type: ignore[method-assign]

    graph.check_values(values)
    key_dims = {k: values.dim(k) for k in graph.keys()}

    row_blocks = [compile_factor(f, program, values, factor_id=i)
                  for i, f in enumerate(graph.factors)]
    all_blocks = list(row_blocks)

    if ordering is None:
        ordering = graph.default_ordering(values)
    ordering = list(ordering)
    if set(ordering) != set(key_dims):
        raise CompileError("ordering must cover exactly the graph's keys")

    # --- decompose phase: one QR per eliminated variable (Fig. 5) ---
    active = list(row_blocks)
    conditionals: List[Tuple[Key, str, List[Tuple[Key, int, int]]]] = []

    for key in ordering:
        adjacent = [b for b in active if b.touches(key)]
        if not adjacent:
            raise CompileError(f"variable {key} has no adjacent factors")
        active = [b for b in active if not b.touches(key)]

        frontal_dim = key_dims[key]
        separator: List[Key] = []
        for b in adjacent:
            for k in b.cols:
                if k != key and k not in separator:
                    separator.append(k)

        # Global column layout: frontal first, then separator.
        col_layout: List[Tuple[Key, int, int]] = [(key, 0, frontal_dim)]
        offset = frontal_dim
        for k in separator:
            col_layout.append((k, offset, key_dims[k]))
            offset += key_dims[k]
        total_cols = offset
        rows_total = sum(b.rows for b in adjacent)
        if rows_total < frontal_dim:
            raise CompileError(
                f"variable {key} is under-constrained "
                f"({rows_total} rows < dim {frontal_dim})"
            )

        dst_start = {k: s for k, s, _ in col_layout}
        sources = []
        for b in adjacent:
            cols = {
                str(k): (b.cols[k][0], dst_start[k], b.cols[k][1])
                for k in b.cols
            }
            sources.append({"rows": b.rows, "cols": cols})

        cond_reg = program.new_register("cond", (frontal_dim, total_cols + 1))
        dsts = [cond_reg]
        marginal_rows = max(0, min(rows_total, total_cols + 1) - frontal_dim)
        marg_block: Optional[RowBlock] = None
        if separator and marginal_rows > 0:
            sep_width = total_cols - frontal_dim
            marg_reg = program.new_register(
                "marg", (marginal_rows, sep_width + 1)
            )
            dsts.append(marg_reg)
            marg_cols = {
                k: (s - frontal_dim, d)
                for k, s, d in col_layout[1:]
            }
            marg_block = RowBlock(marg_reg, marginal_rows, marg_cols)

        with program.provenance(variable=str(key), stage=STAGE_ELIMINATE,
                                node_kind="qr"):
            program.emit(
                Opcode.QR,
                [b.reg for b in adjacent],
                dsts,
                {
                    "frontal_dim": frontal_dim,
                    "total_cols": total_cols,
                    "sources": sources,
                    "marginal_rows": marginal_rows,
                    "variable": str(key),
                },
                PHASE_DECOMPOSE,
            )
        if marg_block is not None:
            active.append(marg_block)
            all_blocks.append(marg_block)

        parent_layout = [(k, s, d) for k, s, d in col_layout[1:]]
        conditionals.append((key, cond_reg, parent_layout))

    # --- backsub phase: reverse order (Fig. 6) ---
    solution: Dict[Key, str] = {}
    for key, cond_reg, parents in reversed(conditionals):
        srcs = [cond_reg] + [solution[k] for k, _, _ in parents]
        sol_reg = program.new_register("sol", (key_dims[key],))
        with program.provenance(variable=str(key), stage=STAGE_BACKSUB,
                                node_kind="bsub"):
            program.emit(
                Opcode.BSUB, srcs, [sol_reg],
                {
                    "frontal_dim": key_dims[key],
                    "parents": [(s, d) for _, s, d in parents],
                    "variable": str(key),
                },
                PHASE_BACKSUB,
            )
        solution[key] = sol_reg

    return CompiledGraph(
        program=program,
        row_blocks=all_blocks,
        solution_registers=solution,
        key_dims=key_dims,
        ordering=ordering,
    )


def compile_application(algorithm_graphs: Dict[str, Tuple[FactorGraph, Values]]
                        ) -> Program:
    """Compile several algorithms into one merged application program.

    Register namespaces are prefixed per algorithm, so the merged program
    has no false dependencies between algorithms — this is precisely what
    enables the coarse-grained out-of-order execution of Sec. 6.3.

    The frame compiles through the process-wide structural compilation
    cache (:meth:`repro.compiler.cache.CompilationCache.compile`), each
    stream under its label, which names both its algorithm and its
    register prefix.  The merged program is keyed by its streams' keys
    and shares one structure slot with every frame built from the same
    streams, so the fused plan and the simulator's tables are built once
    per frame structure, and a frame whose streams all hit is rebound in
    one pass from the slot's frame template.  Every frame is
    instruction-identical to the cold compiles of its streams.
    """
    from repro.compiler.cache import default_cache

    with trace.span("compile_application", category="compiler",
                    algorithms=len(algorithm_graphs)) as sp:
        merged = default_cache().compile(algorithm_graphs)
        sp.set(instructions_after=len(merged.instructions))
    return merged
