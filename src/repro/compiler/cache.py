"""Compile-once/bind-many: a structure-keyed compilation cache.

The ORIANNA accelerator compiles a factor graph's MO-DFGs once and then
re-executes the same instruction schedule every solver iteration with
fresh numerics (Fig. 3).  The software pipeline mirrors that split here:

- :func:`graph_structure` keys everything that determines the *shape*
  of the compiled program — factor types, expression-DAG topology,
  variable dimensions, connectivity, noise-model classes and
  dimensions, the elimination ordering — and deliberately excludes the
  numeric values (pose estimates, measurements, noise sigmas).
- Every value-bearing instruction (``CONST``/``EMBED``) carries a
  *binding spec* in ``meta["binding"]`` recorded at emission time, which
  says where its numerics come from: a variable's pose/vector estimate,
  a factor's whitening matrix, a constant node of the factor's
  expression DAG, or the factor object itself for host-side EMBED.
- On a cache hit, :func:`rebind` re-evaluates only those specs against
  the new ``(graph, values)`` pair — no codegen, no ordering search, no
  QR layout computation — and shares every value-free instruction.
- A cached structure keeps one template per stream *name* (the label
  that is both a stream's algorithm tag and its register prefix, e.g.
  ``control#3``).  The structure's first name compiles cold; a new name
  is renamed from that template once and stored.
- Work that depends only on structure is shared through structure
  slots (:class:`~repro.compiler.isa.StructureSlot`).  Every stream
  program is keyed by its stream key ``(entry identity, name)``, and a
  frame (:meth:`CompilationCache.compile`) by the tuple of its streams'
  keys, so the fused plan and the simulator's tables are built once per
  frame structure.  The frame slot also keeps the structure's first
  merged frame as a template: a later frame whose streams all hit is
  that template rebound in one pass, with no per-stream program and no
  :meth:`~repro.compiler.isa.Program.extend`.

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
- Renaming swaps the compile-time register prefix, so the renamed
  stream is instruction-identical to what a cold compile under the new
  name would emit.
- The cache compiles with the default (min-degree) ordering and keys it
  with a ``default`` sentinel, so a hit reuses the template's stored
  ordering: min-degree ordering depends only on sparsity structure, so
  it is identical — and the (expensive) linearize it requires is
  skipped.
"""

from __future__ import annotations

import hashlib
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

            components = factor_expression(self._graph.factor(factor_id))
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
    """One cached structure: its compiled template per stream name."""

    # name -> CompiledGraph (import cycle with codegen).  The first name
    # was compiled cold; every later one was renamed from it once.
    templates: Dict[str, Any]
    # Stands for the structural key in stream and frame structure keys
    # (see CompilationCache): it hashes and compares by identity, so no
    # structural key is hashed twice, and it does not refer back to the
    # entry, so keyed programs form no reference cycle with it.
    identity: object = field(default_factory=object, repr=False)


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
                    ordering: Optional[Sequence[Key]] = None
                    ) -> GraphStructure:
    """Fingerprint a ``(graph, values-structure, ordering)`` triple."""
    factor_tokens = tuple(factor_token(f, values) for f in graph.factors)
    variable_tokens = tuple(
        (k, _value_signature(values.at(k))) for k in graph.keys()
    )
    ordering_token: Any = "default" if ordering is None else tuple(ordering)

    # The trailing () is part of the key's pinned shape: fingerprints
    # seed the supervisor's backoff and sentinel streams, whose draws
    # the golden chaos document records.
    key = (factor_tokens, variable_tokens, ordering_token, ())
    return GraphStructure(key=key, _graph=graph, _factor_nodes={})


# ----------------------------------------------------------------------
# Rebinding: fresh numerics on a template; renaming a stream template
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
        return graph.factor(spec[1]).noise.sqrt_information
    if kind == BIND_EXPR:
        from repro.compiler.modfg import GenMatVec

        node = structure.nodes_for(spec[1])[spec[2]]
        return node.matrix if isinstance(node, GenMatVec) else node.value
    raise CompileError(f"cannot resolve binding spec {spec!r}")


def rebind(template: Program,
           streams: Dict[str, Tuple[FactorGraph, Values, GraphStructure]]
           ) -> Program:
    """``template`` re-bound to new numerics in one pass.

    ``template`` is a cached stream's program or a frame's merged
    program, and ``streams`` maps each stream name in it to the new
    ``(graph, values, structure)``.  Only the value sites (EMBEDs, and
    CONSTs whose binding spec is not static) are cloned, each resolved
    from the stream its ``algorithm`` label names; every other
    instruction object is shared, since instructions are immutable
    after emission and their uids are final.  The result has the
    template's structure, so it shares the template's key and slot,
    which also keeps the sites' positions.
    """
    slot = template.structure_slot()
    if slot.value_sites is None:
        slot.value_sites = [
            index for index, instr in enumerate(template.instructions)
            if instr.op is Opcode.EMBED or (
                instr.op is Opcode.CONST
                and (instr.meta.get("binding") or (BIND_STATIC,))[0]
                != BIND_STATIC)]
    program = Program(algorithm=template.algorithm)
    program.structure_key = template.structure_key
    program.attach_slot(slot)
    program._counter = template._counter
    program._reg_counter = template._reg_counter
    program.register_shapes = dict(template.register_shapes)
    out = program.instructions = list(template.instructions)
    for index in slot.value_sites:
        instr = out[index]
        name = instr.algorithm
        graph, values, structure = streams[name]
        meta = dict(instr.meta)
        spec = meta["binding"]
        if instr.op is Opcode.EMBED:
            meta["factor"] = graph.factor(spec[1])
            meta["values"] = values
        else:
            meta["value"] = np.asarray(
                _binding_value(spec, graph, values, structure), dtype=float)
        out[index] = Instruction(
            uid=instr.uid,
            op=instr.op,
            srcs=instr.srcs,
            dsts=instr.dsts,
            meta=meta,
            phase=instr.phase,
            algorithm=name,
            provenance=instr.provenance,
        )
    return program


def _rename(template, name: str):
    """A stream template (a ``CompiledGraph``) cloned into the register
    namespace and algorithm ``name``, its values unchanged: once
    :func:`rebind` refreshes them, a cold compile under ``name``."""
    from repro.compiler.codegen import CompiledGraph, RowBlock

    old = template.program
    rmap = _build_rename_map(old.register_shapes, old.algorithm, name)
    program = Program(algorithm=name)
    program._counter, program._reg_counter = old._counter, old._reg_counter
    program.register_shapes = {rmap[reg]: shape
                               for reg, shape in old.register_shapes.items()}
    for instr in old.instructions:
        program.instructions.append(Instruction(
            uid=instr.uid,
            op=instr.op,
            srcs=[rmap[s] for s in instr.srcs],
            dsts=[rmap[d] for d in instr.dsts],
            meta=instr.meta,
            phase=instr.phase,
            algorithm=name,
            provenance=instr.provenance,
        ))
    return CompiledGraph(
        program,
        [RowBlock(rmap[b.reg], b.rows, dict(b.cols))
         for b in template.row_blocks],
        {k: rmap[reg] for k, reg in template.solution_registers.items()},
        dict(template.key_dims), list(template.ordering))


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------

class CompilationCache:
    """LRU cache of compiled templates keyed by structural key, plus the
    structure slots of the frames merged from them.

    Every stream program is keyed by its *stream key* ``(entry
    identity, name)`` and shares the structure slot of the template it
    was rebound from.  A frame is keyed by the tuple of its stream keys
    and shares a slot kept here (:meth:`attach_frame_slot`), so every
    frame with the same streams plans and tabulates once and is rebound
    from the slot's frame template.  :meth:`clear` drops both.
    """

    # Structures whose templates are kept (least recently used goes
    # first); a frame whose structure changes with its data (Quadrotor)
    # brings a new one every frame.
    MAX_ENTRIES = 64
    # Frame structures whose slots are kept (least recently used goes
    # first).  A slot holds a fused plan, simulator tables and a frame
    # template of up to ~1 MB each, and Quadrotor brings a new structure
    # every frame, so the store stays small.
    FRAME_SLOTS = 4

    def __init__(self):
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

    def attach_frame_slot(self, program: Program,
                          key: Tuple) -> StructureSlot:
        """Key a merged frame ``program`` and attach (and return) the
        slot every frame with the same stream keys shares."""
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
        return slot

    def compile(self, streams: Dict[str, Tuple[FactorGraph, Values]]
                ) -> Program:
        """Compile a frame: ``streams`` maps each stream's name (its
        algorithm tag and register prefix) to its ``(graph, values)``.

        When every stream hits and the frame's slot holds a template,
        the frame is that template rebound in one pass.  Otherwise each
        stream compiles cold or is rebound from its name's template, the
        streams are merged in order with :meth:`Program.extend`, and the
        merged program becomes the slot's template.
        """
        found = []
        for name, (graph, values) in streams.items():
            structure = graph_structure(graph, values)
            found.append((name, graph, values, structure,
                          *self._lookup(structure, graph, values, name)))
        key = tuple((entry.identity, name)
                    for name, _, _, _, entry, _ in found)
        slot = self._frame_slots.get(key)
        template = None if slot is None else slot.template
        if template is None:
            program = Program(algorithm="application")
            for name, graph, values, structure, entry, cold in found:
                program.extend((cold or self._rebind_stream(
                    entry, structure, graph, values, name)).program)
        elif template.structure_key != key:
            raise CompileError(
                f"structure slot mismatch: a frame template of "
                f"{len(template.instructions)} instructions is keyed for "
                f"other streams than the frame it would serve"
            )
        else:
            with trace.span("compiler.cache.rebind",
                            category="compiler.pass",
                            algorithm=template.algorithm):
                program = rebind(template, {
                    name: (graph, values, structure)
                    for name, graph, values, structure, _, _ in found})
        slot = self.attach_frame_slot(program, key)
        if slot.template is None:
            slot.template = program
        return program

    def compile_stream(self, graph: FactorGraph, values: Values,
                       name: str = ""):
        """Compile one stream ``name`` with caching: cold compile on a
        miss, rebind on a hit."""
        structure = graph_structure(graph, values)
        entry, cold = self._lookup(structure, graph, values, name)
        return cold or self._rebind_stream(entry, structure, graph, values,
                                           name)

    def _lookup(self, structure: GraphStructure, graph: FactorGraph,
                values: Values, name: str):
        """``(entry, None)`` on a hit; on a miss the new entry and the
        cold compile of stream ``name``."""
        entry = self._entries.get(structure.key)
        if entry is not None:
            self._entries.move_to_end(structure.key)
            self.hits += 1
            counters.incr("compiler.cache.hit")
            return entry, None
        from repro.compiler.codegen import compile_graph

        compiled = compile_graph(graph, values, algorithm=name,
                                 register_prefix=name)
        entry = CacheEntry({name: compiled})
        self._entries[structure.key] = entry
        while len(self._entries) > self.MAX_ENTRIES:
            self._entries.popitem(last=False)
        self.misses += 1
        counters.incr("compiler.cache.miss")
        compiled.program.structure_key = (entry.identity, name)
        return entry, compiled

    def _rebind_stream(self, entry: CacheEntry, structure: GraphStructure,
                       graph: FactorGraph, values: Values, name: str):
        """Stream ``name`` rebound from its own template, which a new
        name renames from the entry's first template once."""
        from repro.compiler.codegen import CompiledGraph

        with trace.span("compiler.cache.rebind", category="compiler.pass",
                        algorithm=name):
            source = entry.templates.get(name)
            if source is None:
                source = entry.templates[name] = _rename(
                    next(iter(entry.templates.values())), name)
                source.program.structure_key = (entry.identity, name)
            program = rebind(source.program,
                             {name: (graph, values, structure)})
        return CompiledGraph(program, list(source.row_blocks),
                             dict(source.solution_registers),
                             dict(source.key_dims), list(source.ordering))


# ----------------------------------------------------------------------
# Process-wide default cache
# ----------------------------------------------------------------------

_default_cache = CompilationCache()


def default_cache() -> CompilationCache:
    return _default_cache


def clear_default_cache() -> None:
    _default_cache.clear()
