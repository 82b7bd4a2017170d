"""The ORIANNA compiler (Sec. 5.2).

Pipeline: user factor graphs -> per-factor MO-DFGs over the nine Tbl. 3
primitives -> forward (error) and backward (derivative) instruction
streams -> QR/back-substitution instruction streams for factor-graph
inference -> one executable, dependency-analyzed :class:`Program`.
"""

from repro.compiler.codegen import (
    CompiledGraph,
    RowBlock,
    compile_application,
    compile_factor,
    compile_graph,
)
from repro.compiler.cache import (
    CompilationCache,
    clear_default_cache,
    default_cache,
    graph_structure,
    rebind,
)
from repro.compiler.executor import Executor
from repro.compiler.fused import (
    EXECUTOR_FUSED,
    EXECUTOR_INTERPRETER,
    EXECUTOR_NAMES,
    FusedExecutor,
    FusedPlan,
    build_plan,
    default_executor_name,
    executor_factory,
    plan_for,
)
from repro.compiler.expression_factor import ExpressionFactor
from repro.compiler.exprs import (
    ExpMap,
    Expr,
    LogMap,
    OMinus,
    OPlus,
    PoseConst,
    PoseExpr,
    PoseVar,
    RotConst,
    RotRot,
    RotT,
    RotVar,
    RotVec,
    TransVar,
    VecAdd,
    VecConst,
    VecVar,
    topological_order,
)
from repro.compiler.isa import (
    Instruction,
    Opcode,
    PHASE_BACKSUB,
    PHASE_CONSTRUCT,
    PHASE_DECOMPOSE,
    Program,
    UNIT_MATMUL,
    UNIT_NONE,
    UNIT_OF_OPCODE,
    UNIT_QR,
    UNIT_BSUB,
    UNIT_SPECIAL,
    UNIT_VECTOR,
)
from repro.compiler.library import factor_expression
from repro.compiler.lowering import Lowering, pose_error, vector_error
from repro.compiler.provenance import (
    Provenance,
    STAGE_BACKSUB,
    STAGE_ELIMINATE,
    STAGE_EMBED,
    STAGE_ERROR,
    STAGE_JACOBIAN,
    STAGE_WHITEN,
)
from repro.compiler.passes import (
    common_subexpression_elimination,
    dead_code_elimination,
    optimize_program,
)
from repro.compiler.modfg import GenMatVec, MoDFG, ModfgEmitter

__all__ = [
    "Program", "Instruction", "Opcode",
    "PHASE_CONSTRUCT", "PHASE_DECOMPOSE", "PHASE_BACKSUB",
    "UNIT_MATMUL", "UNIT_VECTOR", "UNIT_SPECIAL", "UNIT_QR", "UNIT_BSUB",
    "UNIT_NONE", "UNIT_OF_OPCODE",
    "Expr", "PoseExpr", "PoseVar", "PoseConst", "OPlus", "OMinus",
    "RotVar", "TransVar", "VecVar", "RotConst", "VecConst",
    "RotRot", "RotT", "RotVec", "VecAdd", "LogMap", "ExpMap",
    "GenMatVec", "topological_order",
    "Lowering", "pose_error", "vector_error",
    "MoDFG", "ModfgEmitter",
    "Executor",
    "FusedExecutor", "FusedPlan", "build_plan", "plan_for",
    "EXECUTOR_FUSED", "EXECUTOR_INTERPRETER", "EXECUTOR_NAMES",
    "default_executor_name", "executor_factory",
    "ExpressionFactor", "factor_expression",
    "compile_factor", "compile_graph", "compile_application",
    "common_subexpression_elimination", "dead_code_elimination",
    "optimize_program",
    "CompiledGraph", "RowBlock",
    "CompilationCache", "graph_structure", "rebind", "default_cache",
    "clear_default_cache",
]
