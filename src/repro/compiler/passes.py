"""Compiler optimization passes over ORIANNA programs.

The straight-line codegen emits each factor's MO-DFG independently, so
shared quantities — most prominently a pose variable's rotation
``Exp(phi)``, recomputed by *every* adjacent factor — appear many times.
:func:`common_subexpression_elimination` de-duplicates identical constant
loads and structurally identical instructions program-wide, and
:func:`dead_code_elimination` drops instructions whose results are never
consumed.  Both preserve semantics exactly: the functional executor
produces bit-identical register contents for all surviving registers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.compiler.isa import Instruction, Opcode, Program
from repro.obs import counters, trace

# Opcodes that are pure functions of (srcs, meta) and single-destination:
# safe to deduplicate.  QR/BSUB/EMBED are excluded (multi-dst or carry
# non-hashable host state), CONST handled separately by value.
_PURE_OPS = {
    Opcode.VP, Opcode.RT, Opcode.LOG, Opcode.RR, Opcode.RV, Opcode.EXP,
    Opcode.SKEW, Opcode.JR, Opcode.JRINV, Opcode.MM, Opcode.MV,
    Opcode.COPY, Opcode.ADD, Opcode.STACK,
}

_MEANINGFUL_META = ("sign", "negate", "b_as_column", "axis")


def _const_key(instr: Instruction) -> Optional[tuple]:
    value = np.asarray(instr.meta["value"], dtype=float)
    return ("const", value.shape, value.tobytes())


def _pure_key(instr: Instruction, canonical: Dict[str, str]) -> tuple:
    srcs = tuple(canonical.get(s, s) for s in instr.srcs)
    meta = tuple((k, instr.meta.get(k)) for k in _MEANINGFUL_META
                 if k in instr.meta)
    return (instr.op, srcs, meta)


def common_subexpression_elimination(program: Program) -> Program:
    """Return a new program with duplicate computations removed.

    Within one program, two instructions compute the same value when they
    are the same pure opcode applied to (canonically) the same source
    registers with the same modifiers, or CONST loads of equal arrays.
    Later duplicates are dropped and their uses redirected.  Instructions
    from different algorithm streams are never merged (their register
    namespaces are deliberately disjoint for coarse-grained OoO).
    """
    with trace.span("cse", category="compiler.pass",
                    instructions_before=len(program.instructions)) as sp:
        out = _cse(program)
        sp.set(instructions_after=len(out.instructions),
               removed=len(program.instructions) - len(out.instructions))
    counters.incr("compiler.cse.hits",
                  len(program.instructions) - len(out.instructions))
    return out


def _cse(program: Program) -> Program:
    out = Program(algorithm=program.algorithm)
    canonical: Dict[str, str] = {}
    seen: Dict[tuple, str] = {}
    # Surviving clone per canonical destination register, so a CSE hit
    # can fold the dropped duplicate's provenance into the survivor.
    survivor: Dict[str, Instruction] = {}

    for instr in program.instructions:
        if instr.op is Opcode.CONST:
            key: Optional[tuple] = _const_key(instr)
        elif instr.op in _PURE_OPS and len(instr.dsts) == 1:
            key = _pure_key(instr, canonical)
        else:
            key = None

        if key is not None:
            scoped_key = (instr.algorithm,) + key
            existing = seen.get(scoped_key)
            if existing is not None:
                canonical[instr.dsts[0]] = existing
                kept = survivor.get(existing)
                if kept is not None and instr.provenance is not None:
                    # One instruction now computes a value several
                    # factors contributed: accumulate their identities.
                    kept.provenance = (
                        instr.provenance if kept.provenance is None
                        else kept.provenance.merged_with(instr.provenance)
                    )
                continue

        clone = Instruction(
            uid=len(out.instructions),
            op=instr.op,
            srcs=[canonical.get(s, s) for s in instr.srcs],
            dsts=list(instr.dsts),
            meta=dict(instr.meta),
            phase=instr.phase,
            algorithm=instr.algorithm,
            provenance=instr.provenance,
        )
        out.instructions.append(clone)
        out._counter = len(out.instructions)
        for dst in instr.dsts:
            out.register_shapes[dst] = program.register_shapes[dst]
        if key is not None:
            seen[(instr.algorithm,) + key] = instr.dsts[0]
            survivor[instr.dsts[0]] = clone

    return out


def dead_code_elimination(program: Program,
                          live_roots: Optional[List[str]] = None) -> Program:
    """Drop instructions whose destinations are never consumed.

    ``live_roots`` names registers that must survive (e.g. the solution
    registers); by default the destinations of QR/BSUB/EMBED instructions
    are treated as roots, which keeps every solver output alive.
    """
    with trace.span("dce", category="compiler.pass",
                    instructions_before=len(program.instructions)) as sp:
        out = _dce(program, live_roots)
        sp.set(instructions_after=len(out.instructions),
               removed=len(program.instructions) - len(out.instructions))
    counters.incr("compiler.dce.removed",
                  len(program.instructions) - len(out.instructions))
    return out


def _dce(program: Program,
         live_roots: Optional[List[str]] = None) -> Program:
    consumed = set(live_roots or [])
    keep = [False] * len(program.instructions)

    for idx in range(len(program.instructions) - 1, -1, -1):
        instr = program.instructions[idx]
        is_root = instr.op in (Opcode.QR, Opcode.BSUB, Opcode.EMBED)
        if is_root or any(d in consumed for d in instr.dsts):
            keep[idx] = True
            consumed.update(instr.srcs)

    out = Program(algorithm=program.algorithm)
    for idx, instr in enumerate(program.instructions):
        if not keep[idx]:
            continue
        clone = Instruction(
            uid=len(out.instructions),
            op=instr.op,
            srcs=list(instr.srcs),
            dsts=list(instr.dsts),
            meta=dict(instr.meta),
            phase=instr.phase,
            algorithm=instr.algorithm,
            provenance=instr.provenance,
        )
        out.instructions.append(clone)
        out._counter = len(out.instructions)
        for reg in list(instr.dsts) + list(instr.srcs):
            if reg in program.register_shapes:
                out.register_shapes[reg] = program.register_shapes[reg]
    return out


def optimize_program(program: Program,
                     live_roots: Optional[List[str]] = None) -> Program:
    """The standard pass pipeline: CSE, then DCE."""
    with trace.span("optimize_program", category="compiler",
                    instructions_before=len(program.instructions)) as sp:
        out = dead_code_elimination(
            common_subexpression_elimination(program), live_roots)
        sp.set(instructions_after=len(out.instructions))
    return out
