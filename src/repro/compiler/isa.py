"""The ORIANNA instruction set architecture.

The ISA is matrix-oriented (Sec. 1, Sec. 5.2): the nine primitives of
Tbl. 3 for constructing the linear equations, generic small matrix
products for the chain-rule derivative computations (these reuse the same
systolic multiply unit as RR/RV), and QR / back-substitution instructions
for factor-graph inference.

Every instruction is SSA-like: it defines fresh destination registers and
reads previously defined sources, so data dependencies are exactly
register def-use edges — the basis of both the out-of-order scheduler and
the BFS level analysis of Fig. 11.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import CompileError
from repro.compiler.provenance import (
    Provenance,
    ProvenanceScope,
    compose_frames,
)


class Opcode(enum.Enum):
    """Instruction opcodes, grouped by executing unit."""

    # Tbl. 3 primitives (factor computing block).
    VP = "vp"          # vector add/subtract
    RT = "rt"          # rotation transpose
    LOG = "log"        # logarithmic map
    RR = "rr"          # rotation-rotation product
    RV = "rv"          # rotation-vector product
    EXP = "exp"        # exponential map
    SKEW = "skew"      # (.)^ skew operator
    JR = "jr"          # right Jacobian
    JRINV = "jrinv"    # right Jacobian inverse
    # Generic small matrix ops (execute on the same multiply unit).
    MM = "mm"          # general matrix-matrix product (optional negate)
    MV = "mv"          # general matrix-vector product (optional negate)
    # Data movement / host interface.
    CONST = "const"    # load an immediate (measurement, initial value)
    STACK = "stack"    # vertical concatenation of blocks
    COPY = "copy"      # register copy (adjoint fan-out)
    ADD = "add"        # elementwise matrix add (adjoint accumulation)
    EMBED = "embed"    # host-side sensor front-end (projection, SDF, ...)
    # Factor-graph inference block.
    QR = "qr"          # partial QR of one stacked elimination front
    BSUB = "bsub"      # back substitution for one variable


# Unit classes for hardware mapping (Sec. 6.1).
UNIT_MATMUL = "matmul"
UNIT_VECTOR = "vector"
UNIT_SPECIAL = "special"
UNIT_QR = "qr"
UNIT_BSUB = "bsub"
UNIT_NONE = "none"     # free at runtime (constants are preloaded)

UNIT_OF_OPCODE: Dict[Opcode, str] = {
    Opcode.VP: UNIT_VECTOR,
    Opcode.RT: UNIT_VECTOR,
    Opcode.LOG: UNIT_SPECIAL,
    Opcode.RR: UNIT_MATMUL,
    Opcode.RV: UNIT_MATMUL,
    Opcode.EXP: UNIT_SPECIAL,
    Opcode.SKEW: UNIT_VECTOR,
    Opcode.JR: UNIT_SPECIAL,
    Opcode.JRINV: UNIT_SPECIAL,
    Opcode.MM: UNIT_MATMUL,
    Opcode.MV: UNIT_MATMUL,
    Opcode.CONST: UNIT_NONE,
    Opcode.STACK: UNIT_VECTOR,
    Opcode.COPY: UNIT_VECTOR,
    Opcode.ADD: UNIT_VECTOR,
    Opcode.EMBED: UNIT_SPECIAL,
    Opcode.QR: UNIT_QR,
    Opcode.BSUB: UNIT_BSUB,
}

# Phases of the per-iteration pipeline (Fig. 3 / Sec. 7.3 breakdown).
PHASE_CONSTRUCT = "construct"
PHASE_DECOMPOSE = "decompose"
PHASE_BACKSUB = "backsub"


@dataclass
class Instruction:
    """One ORIANNA instruction.

    Attributes
    ----------
    uid:
        Unique, program-wide instruction id (issue order = program order).
    op:
        The opcode.
    srcs / dsts:
        Source and destination register names.
    meta:
        Opcode-specific payload (constant values, signs, column layouts
        for QR/BSUB, shapes).
    phase:
        ``construct`` / ``decompose`` / ``backsub``.
    algorithm:
        Tag of the owning algorithm stream (e.g. ``localization``) for
        coarse-grained out-of-order execution.
    provenance:
        Application-layer attribution (factor ids/types, variable keys,
        MO-DFG node kind, algorithm stage) attached at emission time and
        preserved (merged) through the optimization passes; ``None`` for
        instructions emitted outside any provenance scope.
    """

    uid: int
    op: Opcode
    srcs: List[str]
    dsts: List[str]
    meta: Dict[str, Any] = field(default_factory=dict)
    phase: str = PHASE_CONSTRUCT
    algorithm: str = ""
    provenance: Optional[Provenance] = None

    @property
    def unit(self) -> str:
        return UNIT_OF_OPCODE[self.op]

    def describe(self) -> str:
        """One-line identification for error messages and fault logs.

        Names the instruction, its unit class and algorithm stream, and
        the application-layer provenance (factor types, stage) when
        present, so a failure deep in the simulator or executor can be
        traced back to the factor graph that produced it.
        """
        parts = [f"instruction #{self.uid} {self.op.value}",
                 f"unit={UNIT_OF_OPCODE.get(self.op, '?')}"]
        if self.algorithm:
            parts.append(f"algorithm={self.algorithm}")
        if self.phase:
            parts.append(f"phase={self.phase}")
        if self.provenance is not None and not self.provenance.is_empty():
            prov = self.provenance
            if prov.stage:
                parts.append(f"stage={prov.stage}")
            if prov.factors:
                types = ",".join(prov.factor_types)
                ids = ",".join(str(fid) for fid in prov.factor_ids[:4])
                more = "..." if len(prov.factors) > 4 else ""
                parts.append(f"factors=[{ids}{more}]({types})")
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        srcs = ", ".join(self.srcs)
        dsts = ", ".join(self.dsts)
        return f"#{self.uid} {self.op.value} {srcs} -> {dsts}"


class DefUse:
    """A program's register def-use, every list indexed by uid (which is
    the position); one per structure slot (:meth:`Program.def_use`),
    read-only once built.

    ``producers[uid]``: the uids defining ``uid``'s sources (ascending,
    each once).  ``levels[uid]``: its BFS level (Fig. 11's L1, L2...),
    zero for a CONST load, which adds no level to its consumers either,
    else one past its deepest producer (1 with none).  The fused plan
    reads only these; ``consumers`` (ascending), ``units`` (unit
    classes) and ``registers`` (per register a non-CONST defines, its
    ``(producer, readers, words)``: reader uids ascending, each once),
    which only the simulator, its critical path and the datapath
    generator read, are built on first read.
    """

    __slots__ = ("size", "producers", "levels", "consumers", "units",
                 "registers", "_instructions", "_shapes")

    def __init__(self, program: "Program"):
        self._instructions = instructions = program.instructions
        self._shapes = program.register_shapes
        self.size = len(instructions)
        self.producers = producers = []
        self.levels = levels = []
        producer: Dict[str, int] = {}
        reach = []  # consumers of uid sit at level reach[uid] or deeper
        for uid, instr in enumerate(instructions):
            preds = sorted({producer[s] for s in instr.srcs
                            if s in producer})
            producers.append(preds)
            const = instr.op is Opcode.CONST
            level = 0 if const else max([reach[d] for d in preds], default=1)
            levels.append(level)
            reach.append(level if const else level + 1)
            for dst in instr.dsts:
                producer[dst] = uid

    def __getattr__(self, name: str):
        # Only unset slots get here: build the parts read on first use.
        if name not in ("consumers", "units", "registers"):
            raise AttributeError(name)
        self._build_uses()
        return getattr(self, name)

    def _build_uses(self) -> None:
        self.consumers = consumers = [[] for _ in range(self.size)]
        for uid, preds in enumerate(self.producers):
            for pred in preds:
                consumers[pred].append(uid)
        self.units = units = []
        self.registers = registers = {}
        # Program.extend appends in place after detaching the slot, so
        # only the first ``size`` instructions are this structure's.
        for uid, instr in zip(range(self.size), self._instructions):
            units.append(UNIT_OF_OPCODE[instr.op])
            for src in set(instr.srcs):
                use = registers.get(src)
                if use is not None:
                    use[1].append(uid)
            if instr.op is not Opcode.CONST:
                for dst in instr.dsts:
                    registers[dst] = (uid, [], math.prod(self._shapes[dst]))


class StructureSlot:
    """What every program of one structure shares: work that depends on
    the instruction stream's shape, never on its numerics.

    ``def_use`` is the register def-use analysis
    (:meth:`Program.def_use`), ``plan`` the fused plan
    (:func:`repro.compiler.fused.plan_for`) and ``sim`` the simulator's
    per-uid costs and its last few fault-free outcomes per
    configuration (:meth:`repro.sim.engine.Simulator.run`); each owner
    fills its field on first use.  ``value_sites`` is the value-site
    index (:func:`repro.compiler.cache.value_sites`), and ``template``
    is a frame slot's first merged program, which the compilation cache
    rebinds for every later frame of the structure.  ``key`` is the
    structure key the slot was made for: :meth:`Program.structure_slot`
    refuses a program whose own key differs (and the cache a template
    keyed otherwise), so a mis-shared slot fails loudly instead of
    running another structure's plan.
    """

    __slots__ = ("key", "def_use", "plan", "sim", "value_sites", "template")

    def __init__(self, key: Optional[Tuple] = None):
        self.key = key
        self.def_use: Optional[DefUse] = None
        self.plan: Any = None
        self.sim: Any = None
        self.value_sites: Any = None
        self.template: Optional["Program"] = None


class Program:
    """An ordered list of instructions plus register shape bookkeeping."""

    def __init__(self, algorithm: str = ""):
        self.instructions: List[Instruction] = []
        self.register_shapes: Dict[str, Tuple[int, ...]] = {}
        self.algorithm = algorithm
        self._counter = 0
        self._reg_counter = 0
        # Provenance scope stack: emit() attaches the composed record of
        # the currently open Program.provenance(...) scopes.
        self._prov_frames: List[Dict[str, Any]] = []
        self._prov_cache: Optional[Provenance] = None
        # The key of this program's structure, set by whoever can name
        # it (the compilation cache for its streams, compile_application
        # for frames); None for programs nobody keyed.
        self.structure_key: Optional[Tuple] = None
        self._slot: Optional[StructureSlot] = None

    # ------------------------------------------------------------------
    # Structure slot
    # ------------------------------------------------------------------
    def structure_slot(self) -> StructureSlot:
        """The slot this program shares with its same-structure peers.

        A program nobody attached to a shared slot gets a private one on
        first use.  Raises :class:`CompileError` when the attached
        slot was made for another structure key.
        """
        slot = self._slot
        if slot is None:
            slot = self._slot = StructureSlot(self.structure_key)
        elif slot.key is not self.structure_key \
                and slot.key != self.structure_key:
            raise CompileError(
                f"structure slot mismatch: program {self.algorithm!r} "
                f"({len(self.instructions)} instructions) is attached to "
                f"a slot made for another structure"
            )
        return slot

    def attach_slot(self, slot: StructureSlot) -> None:
        """Share ``slot``; callers key the program with
        :attr:`structure_key` equal to ``slot.key``."""
        self._slot = slot

    def def_use(self) -> DefUse:
        """The def-use analysis in this program's structure slot, built
        on first use and whenever the instruction count changed."""
        slot = self.structure_slot()
        analysis = slot.def_use
        if analysis is None or analysis.size != len(self.instructions):
            analysis = slot.def_use = DefUse(self)
        return analysis

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def new_register(self, prefix: str, shape: Tuple[int, ...]) -> str:
        name = f"{prefix}{self._reg_counter}"
        self._reg_counter += 1
        self.register_shapes[name] = tuple(shape)
        return name

    def provenance(self, **fields) -> "ProvenanceScope":
        """Open a provenance scope: instructions emitted inside carry it.

        Recognized fields: ``factor_id`` + ``factor_type`` (accumulate
        across nested scopes), ``variable`` (accumulates), ``node_kind``,
        ``stage``, ``origin`` (innermost non-empty wins).  Scopes nest;
        see :mod:`repro.compiler.provenance`.
        """
        return ProvenanceScope(self, fields)

    def current_provenance(self) -> Optional[Provenance]:
        """The composed record of the open provenance scopes."""
        if not self._prov_frames:
            return None
        if self._prov_cache is None:
            self._prov_cache = compose_frames(self._prov_frames)
        return self._prov_cache

    def emit(
        self,
        op: Opcode,
        srcs: Sequence[str],
        dsts: Sequence[str],
        meta: Optional[Dict[str, Any]] = None,
        phase: str = PHASE_CONSTRUCT,
        provenance: Optional[Provenance] = None,
    ) -> Instruction:
        for s in srcs:
            if s not in self.register_shapes:
                raise CompileError(f"source register {s} is undefined")
        instr = Instruction(
            uid=self._counter,
            op=op,
            srcs=list(srcs),
            dsts=list(dsts),
            meta=dict(meta or {}),
            phase=phase,
            algorithm=self.algorithm,
            provenance=provenance or self.current_provenance(),
        )
        self._counter += 1
        self.instructions.append(instr)
        return instr

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def count_by_opcode(self) -> Dict[Opcode, int]:
        counts: Dict[Opcode, int] = {}
        for instr in self.instructions:
            counts[instr.op] = counts.get(instr.op, 0) + 1
        return counts

    def count_by_phase(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for instr in self.instructions:
            counts[instr.phase] = counts.get(instr.phase, 0) + 1
        return counts

    def dependencies(self) -> Dict[int, List[int]]:
        """Map uid -> uids of instructions it depends on (register
        def-use; :attr:`DefUse.producers`)."""
        return dict(enumerate(self.def_use().producers))

    def levels(self) -> Dict[int, int]:
        """BFS dependency level of each instruction (Fig. 11's L1, L2...;
        :attr:`DefUse.levels`).

        Zero-latency CONST loads do not occupy a level of their own.
        """
        return dict(enumerate(self.def_use().levels))

    def critical_path_length(self) -> int:
        return max(self.def_use().levels, default=0)

    def disassemble(self, limit: Optional[int] = None,
                    show_levels: bool = True) -> str:
        """Human-readable listing, optionally grouped by BFS level.

        With ``show_levels`` the output mirrors Fig. 11: instructions in
        the same level have no mutual dependencies and may execute in
        parallel.
        """
        levels = self.levels() if show_levels else {}
        lines = []
        count = 0
        current_level = None
        for instr in self.instructions:
            if limit is not None and count >= limit:
                lines.append(f"... ({len(self.instructions) - count} more)")
                break
            if show_levels and levels.get(instr.uid) != current_level:
                current_level = levels[instr.uid]
                lines.append(f"L{current_level}:")
            srcs = ", ".join(instr.srcs) if instr.srcs else "-"
            dsts = ", ".join(instr.dsts)
            tag = f" [{instr.phase}" + (
                f"/{instr.algorithm}]" if instr.algorithm else "]"
            )
            lines.append(
                f"  #{instr.uid:<4} {instr.op.value:<6} {srcs} -> {dsts}{tag}"
            )
            count += 1
        return "\n".join(lines)

    def subset_by_algorithm(self, algorithm: str) -> "Program":
        """A standalone program with only one algorithm's instructions.

        Valid because register namespaces are disjoint per algorithm;
        instruction ids are renumbered to stay position-consistent.
        """
        sub = Program(algorithm=algorithm)
        for instr in self.instructions:
            if instr.algorithm != algorithm:
                continue
            clone = Instruction(
                uid=sub._counter,
                op=instr.op,
                srcs=list(instr.srcs),
                dsts=list(instr.dsts),
                meta=dict(instr.meta),
                phase=instr.phase,
                algorithm=instr.algorithm,
                provenance=instr.provenance,
            )
            sub._counter += 1
            sub.instructions.append(clone)
            for reg in list(instr.srcs) + list(instr.dsts):
                if reg in self.register_shapes:
                    sub.register_shapes[reg] = self.register_shapes[reg]
        return sub

    def extend(self, other: "Program") -> None:
        """Append another program's instructions (register names must not
        collide; callers use distinct prefixes per algorithm).

        Instructions are immutable after emission, so their field objects
        (``srcs``/``dsts``/``meta``) are shared rather than copied; with
        ``uid`` and ``algorithm`` already final the instruction object
        itself is shared.  Passes that rewrite instructions always build
        fresh clones, never mutate in place.  The compilation cache
        merges a frame with it only for a structure it has no frame
        template of yet.

        The extended program has a new structure, so it leaves its
        structure slot and loses its key.
        """
        overlap = set(self.register_shapes) & set(other.register_shapes)
        if overlap:
            raise CompileError(
                f"register collision while merging programs: {sorted(overlap)[:5]}"
            )
        self.structure_key = None
        self._slot = None
        base = self._counter
        append = self.instructions.append
        for instr in other.instructions:
            if base == 0 and instr.algorithm:
                append(instr)
                continue
            append(Instruction(
                uid=base + instr.uid,
                op=instr.op,
                srcs=instr.srcs,
                dsts=instr.dsts,
                meta=instr.meta,
                phase=instr.phase,
                algorithm=instr.algorithm or other.algorithm,
                provenance=instr.provenance,
            ))
        self._counter += other._counter
        self.register_shapes.update(other.register_shapes)
