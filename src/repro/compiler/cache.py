"""Compile-once/bind-many: a structure-keyed compilation cache.

The ORIANNA accelerator compiles a factor graph's MO-DFGs once and then
re-executes the same instruction schedule every solver iteration with
fresh numerics (Fig. 3).  The software pipeline mirrors that split here:

- :func:`structural_fingerprint` hashes everything that determines the
  *shape* of the compiled program — factor types, expression-DAG
  topology, variable dimensions, connectivity, noise-model classes and
  dimensions, the elimination ordering — and deliberately excludes the
  numeric values (pose estimates, measurements, noise sigmas).
- Every value-bearing instruction (``CONST``/``EMBED``) carries a
  *binding spec* in ``meta["binding"]`` recorded at emission time, which
  says where its numerics come from: a variable's pose/vector estimate,
  a factor's whitening matrix, a constant node of the factor's
  expression DAG, or the factor object itself for host-side EMBED.
- On a cache hit, :func:`rebind` re-evaluates only those specs against
  the new ``(graph, values)`` pair (optionally renaming the register
  namespace for a different algorithm stream) — no codegen, no ordering
  search, no QR layout computation.
- Work that depends only on structure is shared through structure
  slots (:class:`~repro.compiler.isa.StructureSlot`): every program the
  cache returns is keyed by its cache entry, algorithm and register
  prefix and shares the slot of the template it was rebound from, and
  the cache keeps one slot per frame structure (the tuple of its
  streams' keys) for :func:`~repro.compiler.codegen.
  compile_application`.  So the fused plan and the simulator's tables
  are built once per frame structure, not once per frame.

Only frames (:func:`~repro.compiler.codegen.compile_application`) use
the cache.  Optimizer solves, supervised ones included, refresh one
program in place in a solve session (:class:`~repro.optim.compiled.
CompiledSolver`), which shares :func:`factor_token` and the binding
specs with this module.

Soundness notes:

- The cache stores the **unoptimized** template.  CSE merges CONST
  loads by value, so an optimized program is only valid for the values
  it was optimized against; callers re-run :meth:`CompiledGraph.
  optimized` after rebinding when they want the pass pipeline.
- Rebinding renames registers by swapping the compile-time prefix, so
  one template serves every same-structure stream of a frame (e.g.
  ``control#0`` .. ``control#4``); the rebound stream is
  instruction-identical to what a cold compile would emit.
- When the caller passes ``ordering=None`` the fingerprint uses a
  ``default`` sentinel and a hit reuses the template's stored ordering:
  min-degree ordering depends only on sparsity structure, so it is
  identical — and the (expensive) linearize it requires is skipped.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CompileError
from repro.compiler.exprs import (
    Expr,
    RotConst,
    RotVar,
    TransVar,
    VecAdd,
    VecConst,
    VecVar,
)
from repro.compiler.isa import Instruction, Opcode, Program, StructureSlot
from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.keys import Key
from repro.factorgraph.values import Values
from repro.geometry.pose import Pose
from repro.obs import counters, trace

# ----------------------------------------------------------------------
# Binding specs: where a CONST/EMBED instruction's numerics come from.
# ----------------------------------------------------------------------

BIND_STATIC = "static"      # shape-only constants (zeros, identity seeds)
BIND_POSE_PHI = "pose_phi"  # ("pose_phi", key)  -> values.pose(key).phi
BIND_POSE_T = "pose_t"      # ("pose_t", key)    -> values.pose(key).t
BIND_VECTOR = "vector"      # ("vector", key)    -> values.vector(key)
BIND_NOISE = "noise"        # ("noise", fid)     -> factor.noise.sqrt_information
BIND_EXPR = "expr"          # ("expr", fid, i)   -> i-th DAG node's constant
BIND_EMBED = "embed"        # ("embed", fid)     -> the factor object itself


@dataclass
class GraphStructure:
    """A graph's structural cache key plus lazily built per-factor DAG
    nodes for resolving ``("expr", fid, i)`` binding specs."""

    key: Tuple
    _graph: FactorGraph
    _factor_nodes: Dict[int, List[Expr]]

    @property
    def fingerprint(self) -> str:
        """Stable hex digest of the structural key (for reporting)."""
        return hashlib.sha256(repr(self.key).encode("utf-8")).hexdigest()

    def nodes_for(self, factor_id: int) -> List[Expr]:
        """The factor's MO-DFG nodes in topological order (memoized)."""
        nodes = self._factor_nodes.get(factor_id)
        if nodes is None:
            from repro.compiler.library import factor_expression
            from repro.compiler.modfg import MoDFG

            components = factor_expression(self._graph.factors[factor_id])
            if components is None:
                raise CompileError(
                    f"factor {factor_id} has no expression DAG"
                )
            nodes = MoDFG(components).nodes
            self._factor_nodes[factor_id] = nodes
        return nodes


def _build_rename_map(register_shapes: Dict[str, Any], old_prefix: str,
                      new_prefix: str) -> Dict[str, str]:
    """``old register -> new register`` map swapping the namespace prefix."""
    old_head = f"{old_prefix}." if old_prefix else ""
    new_head = f"{new_prefix}." if new_prefix else ""
    rmap = {}
    for name in register_shapes:
        if old_head and not name.startswith(old_head):
            raise CompileError(
                f"register {name!r} lacks template prefix {old_prefix!r}"
            )
        rmap[name] = f"{new_head}{name[len(old_head):]}"
    return rmap


@dataclass
class CacheEntry:
    """One cached compilation: the template plus its compile-time tags."""

    compiled: "Any"             # CompiledGraph (import cycle with codegen)
    algorithm: str
    register_prefix: str
    # Memoized register rename maps per target prefix: templates are
    # rebound into the same few algorithm streams over and over (e.g.
    # control#0 .. control#4 every frame).
    rename_maps: Dict[str, Dict[str, str]] = None  # type: ignore[assignment]
    # Memoized renamed templates per (algorithm, prefix): once a stream
    # has been rebound into a new namespace, later frames rebind from
    # the renamed variant with an identity rename, which shares every
    # value-free instruction instead of cloning ~everything.
    variants: Dict[Tuple[str, str], "Any"] = None  # type: ignore[assignment]
    # Stands for the structural key in stream and frame structure keys
    # (see CompilationCache): it hashes and compares by identity, so no
    # structural key is hashed twice, and it does not refer back to the
    # entry, so keyed programs form no reference cycle with it.
    identity: object = field(default_factory=object, repr=False)

    def rename_map(self, register_prefix: str) -> Optional[Dict[str, str]]:
        """``old register -> new register`` map, or None for identity."""
        if register_prefix == self.register_prefix:
            return None
        if self.rename_maps is None:
            self.rename_maps = {}
        rmap = self.rename_maps.get(register_prefix)
        if rmap is None:
            rmap = _build_rename_map(
                self.compiled.program.register_shapes,
                self.register_prefix, register_prefix,
            )
            self.rename_maps[register_prefix] = rmap
        return rmap


def _expr_signature(nodes: List[Expr]) -> Tuple:
    """Structural signature of one factor's expression DAG.

    Captures node types, spatial/vector dimensions, variable keys, VP
    signs, constant shapes and the DAG wiring — but no constant values.
    The topological order of :class:`~repro.compiler.modfg.MoDFG` is a
    deterministic DFS, so equal signatures imply position-identical
    node lists and the ``("expr", fid, i)`` indices line up.
    """
    from repro.compiler.modfg import GenMatVec

    index = {id(n): i for i, n in enumerate(nodes)}
    sig = []
    for node in nodes:
        row: List[Any] = [
            type(node).__name__, node.kind, int(node.n),
            tuple(index[id(c)] for c in node.children),
        ]
        if isinstance(node, (RotVar, TransVar, VecVar)):
            row.append(repr(node.key))
        elif isinstance(node, VecAdd):
            row.append(int(node.sign))
        elif isinstance(node, (RotConst, VecConst)):
            row.append(tuple(node.value.shape))
        elif isinstance(node, GenMatVec):
            row.append(tuple(node.matrix.shape))
        sig.append(tuple(row))
    return tuple(sig)


def _noise_signature(noise) -> Tuple:
    sig: List[Any] = [type(noise).__name__,
                      tuple(np.asarray(noise.sqrt_information).shape)]
    estimator = getattr(noise, "estimator", None)
    if estimator is not None:
        sig.append(type(estimator).__name__)
    return tuple(sig)


def _value_signature(value) -> Tuple:
    if isinstance(value, Pose):
        return ("pose", int(value.n), int(value.phi.shape[0]))
    return ("vec", int(np.asarray(value).shape[0]))


# Library factor types whose expression-DAG shape is fully determined by
# (concrete type, factor dim, keys, per-variable dims): the fingerprint
# can skip rebuilding their DAG.  Types not listed here (custom
# ExpressionFactors, EMBED front-ends, new factors) fall back to probing
# factor_expression and signing the DAG structurally.
_STRUCTURAL_FACTOR_TYPES = frozenset({
    "BetweenFactor", "LiDARFactor", "IMUFactor",
    "PriorFactor", "GPSFactor",
    "DynamicsFactor", "StateCostFactor", "ControlCostFactor",
    "SmoothnessFactor", "GoalFactor",
})


def factor_token(factor, values: Values) -> Tuple:
    """One factor's structural token: its share of the structural key.

    Two factors with equal tokens compile to position-identical
    instruction streams that differ only in their value-bearing
    constants.  :func:`graph_structure` keys the compilation cache on
    these tokens and :class:`~repro.optim.compiled.CompiledSolver`
    compares them when a solve passes a new factor object, so both
    share one definition of "same structure".
    """
    from repro.compiler.library import factor_expression

    type_name = type(factor).__name__
    if type_name in _STRUCTURAL_FACTOR_TYPES:
        shape_token: Tuple = ("lib",)
    else:
        components = factor_expression(factor)
        if components is None:
            shape_token = (
                "embed",
                tuple(int(values.dim(k)) for k in factor.keys),
            )
        else:
            from repro.compiler.modfg import MoDFG

            shape_token = ("expr",
                           _expr_signature(MoDFG(components).nodes))
    return (
        type_name,
        int(factor.dim),
        tuple(factor.keys),
        _noise_signature(factor.noise),
        shape_token,
    )


def graph_structure(graph: FactorGraph, values: Values,
                    ordering: Optional[Sequence[Key]] = None,
                    extra: Tuple = ()) -> GraphStructure:
    """Fingerprint a ``(graph, values-structure, ordering)`` triple.

    ``extra`` lets callers fold target-configuration tokens (e.g. a unit
    mix) into the key so one cache can serve several targets.
    """
    factor_tokens = tuple(factor_token(f, values) for f in graph.factors)
    variable_tokens = tuple(
        (k, _value_signature(values.at(k))) for k in graph.keys()
    )
    ordering_token: Any = "default" if ordering is None else tuple(ordering)

    key = (factor_tokens, variable_tokens, ordering_token, tuple(extra))
    return GraphStructure(key=key, _graph=graph, _factor_nodes={})


def structural_fingerprint(graph: FactorGraph, values: Values,
                           ordering: Optional[Sequence[Key]] = None,
                           extra: Tuple = ()) -> str:
    """The fingerprint string alone (see :func:`graph_structure`)."""
    return graph_structure(graph, values, ordering, extra).fingerprint


# ----------------------------------------------------------------------
# Rebinding: fresh numerics (and register namespace) on a template
# ----------------------------------------------------------------------

def _binding_value(spec: Tuple, graph: FactorGraph, values: Values,
                   structure: GraphStructure) -> np.ndarray:
    kind = spec[0]
    if kind == BIND_POSE_PHI:
        return values.pose(spec[1]).phi
    if kind == BIND_POSE_T:
        return values.pose(spec[1]).t
    if kind == BIND_VECTOR:
        return values.vector(spec[1])
    if kind == BIND_NOISE:
        return graph.factors[spec[1]].noise.sqrt_information
    if kind == BIND_EXPR:
        from repro.compiler.modfg import GenMatVec

        node = structure.nodes_for(spec[1])[spec[2]]
        return node.matrix if isinstance(node, GenMatVec) else node.value
    raise CompileError(f"cannot resolve binding spec {spec!r}")


def rebind(template, graph: FactorGraph, values: Values,
           structure: GraphStructure,
           template_algorithm: str = "", template_prefix: str = "",
           algorithm: Optional[str] = None,
           register_prefix: Optional[str] = None,
           rename_map: Optional[Dict[str, str]] = None):
    """A template compilation re-bound to new numerics.

    Returns a new :class:`~repro.compiler.codegen.CompiledGraph` whose
    instruction stream is identical to a cold compile of ``(graph,
    values)`` with the requested ``algorithm``/``register_prefix``.
    Value-free instructions are shared with the template (instructions
    are immutable after emission); CONST/EMBED instructions are cloned
    with freshly resolved numerics.  ``rename_map`` is an optional
    precomputed register map (see :meth:`CacheEntry.rename_map`) —
    otherwise one is derived from the prefixes when they differ.
    """
    from repro.compiler.codegen import CompiledGraph, RowBlock

    if algorithm is None:
        algorithm = template_algorithm
    if register_prefix is None:
        register_prefix = template_prefix
    rmap = rename_map
    if rmap is None and register_prefix != template_prefix:
        rmap = _build_rename_map(template.program.register_shapes,
                                 template_prefix, register_prefix)
    retag = algorithm != template_algorithm

    program = Program(algorithm=algorithm)
    program._counter = template.program._counter
    program._reg_counter = template.program._reg_counter
    if rmap is None:
        program.register_shapes = dict(template.program.register_shapes)
    else:
        program.register_shapes = {
            rmap[reg]: shape
            for reg, shape in template.program.register_shapes.items()
        }

    share = rmap is None and not retag
    out = program.instructions
    for instr in template.program.instructions:
        spec = instr.meta.get("binding")
        op = instr.op
        fresh_value = (
            (op is Opcode.CONST and spec is not None
             and spec[0] != BIND_STATIC)
            or op is Opcode.EMBED
        )
        if share and not fresh_value:
            out.append(instr)
            continue

        meta = instr.meta
        if fresh_value or (rmap is not None and op is Opcode.QR):
            meta = dict(meta)
        if fresh_value:
            if op is Opcode.EMBED:
                fid = spec[1] if spec is not None else None
                if fid is None:
                    raise CompileError(
                        "EMBED instruction lacks a binding spec; template "
                        "was not compiled with binding tracking"
                    )
                meta["factor"] = graph.factors[fid]
                meta["values"] = values
            else:
                meta["value"] = np.asarray(
                    _binding_value(spec, graph, values, structure),
                    dtype=float,
                )
        if rmap is not None and op is Opcode.QR:
            meta["sources"] = [
                {**source, "reg": rmap[source["reg"]]}
                for source in meta["sources"]
            ]

        out.append(Instruction(
            uid=instr.uid,
            op=op,
            srcs=[rmap[s] for s in instr.srcs] if rmap else list(instr.srcs),
            dsts=[rmap[d] for d in instr.dsts] if rmap else list(instr.dsts),
            meta=meta,
            phase=instr.phase,
            algorithm=algorithm,
            provenance=instr.provenance,
        ))

    if rmap is None:
        row_blocks = list(template.row_blocks)
        solution = dict(template.solution_registers)
    else:
        row_blocks = [RowBlock(rmap[b.reg], b.rows, dict(b.cols))
                      for b in template.row_blocks]
        solution = {k: rmap[reg]
                    for k, reg in template.solution_registers.items()}

    return CompiledGraph(
        program=program,
        row_blocks=row_blocks,
        solution_registers=solution,
        key_dims=dict(template.key_dims),
        ordering=list(template.ordering),
    )


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------

class CompilationCache:
    """LRU cache of compiled templates keyed by structural key, plus the
    structure slots of the frames merged from them.

    Every program :meth:`compile` returns is keyed by its *stream key*
    ``(entry identity, algorithm, register_prefix)`` and shares the
    structure slot of the template it was rebound from.  A frame merged
    from such streams is keyed by the tuple of their stream keys and
    shares a slot kept here (:meth:`attach_frame_slot`), so every frame
    with the same streams plans and tabulates once.  :meth:`clear`
    drops both.
    """

    # Frame structures whose slots are kept (least recently used goes
    # first).  A slot holds a fused plan and simulator tables of ~1 MB,
    # and a frame whose structure changes with its data (Quadrotor)
    # brings a new one every frame, so the store stays small.
    FRAME_SLOTS = 4

    def __init__(self, max_entries: int = 64):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple, CacheEntry]" = OrderedDict()
        self._frame_slots: "OrderedDict[Tuple, StructureSlot]" = \
            OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._frame_slots.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._entries)}

    def attach_frame_slot(self, program: Program, key: Tuple) -> None:
        """Key a merged frame ``program`` and attach the slot every frame
        with the same stream keys shares."""
        slots = self._frame_slots
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = StructureSlot(key)
            while len(slots) > self.FRAME_SLOTS:
                slots.popitem(last=False)
        else:
            slots.move_to_end(key)
        program.structure_key = key
        program.attach_slot(slot)

    def compile(self, graph: FactorGraph, values: Values,
                ordering: Optional[Sequence[Key]] = None, *,
                algorithm: str = "", register_prefix: str = "",
                extra: Tuple = ()):
        """Compile with caching: cold compile on miss, rebind on hit."""
        structure = graph_structure(graph, values, ordering, extra)
        entry = self._entries.get(structure.key)
        if entry is None:
            from repro.compiler.codegen import compile_graph

            compiled = compile_graph(graph, values, ordering,
                                     algorithm=algorithm,
                                     register_prefix=register_prefix)
            entry = CacheEntry(compiled, algorithm, register_prefix)
            self._entries[structure.key] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            self.misses += 1
            counters.incr("compiler.cache.miss")
            compiled.program.structure_key = (entry.identity, algorithm,
                                              register_prefix)
            return compiled

        self._entries.move_to_end(structure.key)
        self.hits += 1
        counters.incr("compiler.cache.hit")
        started = time.perf_counter_ns()
        with trace.span("compiler.cache.rebind", category="compiler.pass",
                        algorithm=algorithm or ""):
            if (algorithm == entry.algorithm
                    and register_prefix == entry.register_prefix):
                source = entry.compiled
                rebound = rebind(source, graph, values, structure,
                                 entry.algorithm, entry.register_prefix)
            else:
                if entry.variants is None:
                    entry.variants = {}
                variant_key = (algorithm, register_prefix)
                source = entry.variants.get(variant_key)
                if source is None:
                    rebound = source = rebind(
                        entry.compiled, graph, values, structure,
                        entry.algorithm, entry.register_prefix,
                        algorithm, register_prefix,
                        rename_map=entry.rename_map(register_prefix),
                    )
                    entry.variants[variant_key] = rebound
                else:
                    rebound = rebind(source, graph, values, structure,
                                     algorithm, register_prefix)
        counters.incr("compiler.cache.rebind_ns",
                      time.perf_counter_ns() - started)
        program = rebound.program
        program.structure_key = (entry.identity, algorithm,
                                 register_prefix)
        if rebound is not source:
            # Same wiring as the template it was rebound from: same
            # fused plan, same simulator tables.
            program.attach_slot(source.program.structure_slot())
        return rebound


# ----------------------------------------------------------------------
# Process-wide default cache and enablement toggle
# ----------------------------------------------------------------------

_default_cache = CompilationCache()
_cache_enabled = os.environ.get("REPRO_COMPILE_CACHE", "1").lower() \
    not in ("0", "false", "off")


def default_cache() -> CompilationCache:
    return _default_cache


def cache_enabled() -> bool:
    return _cache_enabled


def set_cache_enabled(enabled: bool) -> bool:
    """Toggle the process-wide cache; returns the previous setting."""
    global _cache_enabled
    previous = _cache_enabled
    _cache_enabled = bool(enabled)
    return previous


def clear_default_cache() -> None:
    _default_cache.clear()


def active_cache() -> Optional[CompilationCache]:
    """The process-wide default cache, or None while it is disabled."""
    return _default_cache if _cache_enabled else None


def cached_compile_graph(graph: FactorGraph, values: Values,
                         ordering: Optional[Sequence[Key]] = None, *,
                         algorithm: str = "", register_prefix: str = "",
                         cache: Optional[CompilationCache] = None):
    """:func:`~repro.compiler.codegen.compile_graph` through the cache.

    With ``cache=None`` the process-wide default cache is used when
    enabled (see :func:`set_cache_enabled` and the
    ``REPRO_COMPILE_CACHE`` environment variable); when disabled this
    falls through to a plain cold compile.
    """
    active = cache if cache is not None else active_cache()
    if active is None:
        from repro.compiler.codegen import compile_graph

        return compile_graph(graph, values, ordering, algorithm=algorithm,
                             register_prefix=register_prefix)
    return active.compile(graph, values, ordering, algorithm=algorithm,
                          register_prefix=register_prefix)
