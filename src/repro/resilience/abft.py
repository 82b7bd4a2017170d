"""Algorithm-based fault tolerance (ABFT) checks on instruction results.

Classic ABFT (Huang & Abraham) protects matrix arithmetic with checksum
invariants that cost an order less than the operation they verify:

- products (``MM``/``MV``/``RR``/``RV``): the column-sum of a product
  equals the column-sum of the left operand times the right operand,
  ``1ᵀ(AB) = (1ᵀA)B`` — an O(n²) check on an O(n³) op;
- linear maps (``VP``/``ADD``/``STACK``/``COPY``/``RT``): element sums
  are preserved (up to the op's sign/arrangement);
- triangular solves (``BSUB``): the residual ``R x - rhs`` of the
  computed solution must vanish to rounding — an O(n²) check;
- factorizations (``QR``): ``SᵀS = RᵀR`` restricted to the frontal
  rows gives a Gram checksum on the conditional block; the marginal
  block (when produced) is verified by redundant recomputation, the
  one place this module pays full price.

:func:`check_instruction` returns ``True`` (consistent), ``False``
(corrupt), or ``None`` when the opcode has no algebraic invariant here
(``LOG``/``EXP``/``SKEW``/``JR``/``JRINV``/``EMBED``); the recovery
hook then falls back to dual modular redundancy if its policy
allows.  Tolerances scale with operand magnitude so clean float64
arithmetic never trips a check.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.compiler.executor import assemble_qr_front
from repro.compiler.isa import Instruction, Opcode

Reader = Callable[[str], np.ndarray]


def _close(a: np.ndarray, b: np.ndarray, scale: float,
           rtol: float, atol: float) -> bool:
    """Compare checksums with a magnitude-aware absolute budget."""
    bound = atol + rtol * max(scale, 1.0)
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= bound))


def _sum_check(expected: float, out: np.ndarray, scale_parts,
               rtol: float, atol: float) -> bool:
    scale = sum(float(np.abs(np.asarray(p)).sum()) for p in scale_parts)
    return _close(np.asarray(expected), np.asarray(out).sum(),
                  scale, rtol, atol)


def _check_vp(instr, read, rtol, atol):
    a, b = (read(s) for s in instr.srcs)
    sign = instr.meta.get("sign", 1)
    out = read(instr.dsts[0])
    return _sum_check(a.sum() + sign * b.sum(), out, (a, b), rtol, atol)


def _check_add(instr, read, rtol, atol):
    values = [read(s) for s in instr.srcs]
    out = read(instr.dsts[0])
    return _sum_check(sum(v.sum() for v in values), out, values,
                      rtol, atol)


def _check_stack(instr, read, rtol, atol):
    values = [read(s) for s in instr.srcs]
    out = read(instr.dsts[0])
    return _sum_check(sum(v.sum() for v in values), out, values,
                      rtol, atol)


def _check_copy(instr, read, rtol, atol):
    (a,) = (read(s) for s in instr.srcs)
    sign = -1.0 if instr.meta.get("negate") else 1.0
    out = read(instr.dsts[0])
    return _sum_check(sign * a.sum(), out, (a,), rtol, atol)


def _check_rt(instr, read, rtol, atol):
    (a,) = (read(s) for s in instr.srcs)
    out = read(instr.dsts[0])
    return _sum_check(a.sum(), out, (a,), rtol, atol)


def _check_product(instr, read, rtol, atol):
    """Column-sum checksum for MM/MV/RR/RV: ``1ᵀ(AB) = (1ᵀA)B``."""
    a, b = (read(s) for s in instr.srcs)
    if instr.op is Opcode.MM and instr.meta.get("b_as_column") \
            and b.ndim == 1:
        b = b.reshape(-1, 1)
    sign = -1.0 if instr.meta.get("negate") else 1.0
    out = read(instr.dsts[0])
    expected = sign * (a.sum(axis=0) @ b)
    got = np.asarray(out).sum(axis=0)
    scale = float(np.abs(a).sum()) * float(
        np.abs(b).max() if b.size else 0.0
    )
    return _close(expected, got, scale, rtol, atol)


def _check_qr(instr, read, rtol, atol):
    frontal = instr.meta["frontal_dim"]
    stacked = assemble_qr_front(instr, read)
    conditional = read(instr.dsts[0])
    # Gram checksum on the frontal rows: only rows < frontal_dim of the
    # triangular R contribute to (RᵀR)[:f, :], so the slice equals
    # C[:, :f]ᵀ C computed from the conditional alone.
    gram_ref = (stacked.T @ stacked)[:frontal, :]
    gram_out = conditional[:, :frontal].T @ conditional
    scale = float((np.abs(stacked) ** 2).sum())
    if not _close(gram_ref, gram_out, scale, rtol, atol):
        return False
    if len(instr.dsts) == 2:
        # The marginal is a truncated interior slice of R with no cheap
        # standalone checksum; verify it by redundant recomputation.
        _, r = np.linalg.qr(stacked, mode="reduced")
        marginal = r[frontal:, frontal:]
        expected_rows = instr.meta["marginal_rows"]
        if marginal.shape[0] < expected_rows:
            pad = np.zeros((expected_rows - marginal.shape[0],
                            marginal.shape[1]))
            marginal = np.vstack([marginal, pad])
        got = read(instr.dsts[1])
        if not _close(marginal[:expected_rows], got,
                      float(np.abs(stacked).sum()), rtol, atol):
            return False
    return True


def _check_bsub(instr, read, rtol, atol):
    frontal = instr.meta["frontal_dim"]
    parents = instr.meta["parents"]
    conditional = read(instr.srcs[0])
    # The solve consumes only the upper triangle (solve_triangular
    # ignores the subdiagonal), so the residual must be built from the
    # same view — this checks the *operation*, not dead input elements.
    r = np.triu(conditional[:, :frontal])
    rhs = conditional[:, -1].copy()
    for (start, dim), src in zip(parents, instr.srcs[1:]):
        rhs = rhs - conditional[:, start : start + dim] @ read(src)
    x = read(instr.dsts[0])
    scale = float(np.abs(r).sum()) * float(
        np.abs(x).max() if x.size else 0.0
    ) + float(np.abs(rhs).sum())
    return _close(r @ x, rhs, scale, rtol, atol)


CHECKERS: Dict[Opcode, Callable] = {
    Opcode.VP: _check_vp,
    Opcode.ADD: _check_add,
    Opcode.STACK: _check_stack,
    Opcode.COPY: _check_copy,
    Opcode.RT: _check_rt,
    Opcode.MM: _check_product,
    Opcode.MV: _check_product,
    Opcode.RR: _check_product,
    Opcode.RV: _check_product,
    Opcode.QR: _check_qr,
    Opcode.BSUB: _check_bsub,
}


def has_checker(op: Opcode) -> bool:
    return op in CHECKERS


def check_instruction(instr: Instruction, read: Reader,
                      rtol: float = 1e-12,
                      atol: float = 1e-12) -> Optional[bool]:
    """Verify one executed instruction's results against its invariant.

    ``read`` resolves register names in the *current* register file
    (sources are still live — the ISA is SSA-like, so re-reading them
    is safe).  Returns ``None`` when the opcode has no checker.
    """
    checker = CHECKERS.get(instr.op)
    if checker is None:
        return None
    result = checker(instr, read, rtol, atol)
    # A NaN/inf anywhere in a comparison yields False via the <= test,
    # which is the right verdict: non-finite results are corrupt.
    return bool(result)
