"""Functional executor for ORIANNA programs.

Interprets compiled instructions over a register file of numpy arrays.
This is the correctness oracle of the whole compiler: a compiled program
(construct + decompose + back-substitute) must produce exactly the same
solution as the direct numpy reference path in
:mod:`repro.factorgraph.elimination`, and compiled factor Jacobians must
match the factors' analytic ones.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, Generator, Optional, Sequence

import numpy as np
from scipy.linalg import solve_triangular

from repro.errors import ExecutionError
from repro.compiler.isa import Instruction, Opcode, Program
from repro.geometry import so2, so3
from repro.obs import vtrace
from repro.obs.core import is_enabled as _obs_enabled

# A run-loop injector: called as ``injector(executor, program, indices)``
# after each step with the instruction indices the step just executed
# (one for the interpreter, a whole group for the fused backend).  It
# may raise, sleep, rewrite or drop the step's registers (later steps
# read them), or return an earlier step's number to resume from there.
Injector = Callable[["Executor", Program, Sequence[int]], Optional[int]]


class Executor:
    """Executes a :class:`Program`, holding the register file.

    ``guard`` (a :class:`~repro.optim.safeguards.DeadlineGuard`) and
    ``injector`` (an :data:`Injector`) are optional run-loop hooks,
    called after every step; see :meth:`_dispatch`.
    """

    def __init__(self, guard=None, injector: Optional[Injector] = None):
        self.registers: Dict[str, np.ndarray] = {}
        self.guard = guard
        self.injector = injector

    def run(self, program: Program) -> Dict[str, np.ndarray]:
        if self._hooked():
            return self._dispatch(program, self._steps(program),
                                  len(program.instructions))
        for instr in program.instructions:
            self.execute(instr)
        return self.registers

    def _steps(self, program: Program) -> Generator:
        """Interpreter steps: step ``k`` is instruction ``k``."""
        execute, instructions = self.execute, program.instructions
        index = 0
        while index < len(instructions):
            execute(instructions[index])
            resume = yield (index,)
            index = index + 1 if resume is None else resume

    def _hooked(self) -> bool:
        """Whether any run-loop hook is installed: the guard, the
        injector, or an active value tracer.

        Checked once per program, not per instruction, so with no hook
        the backends run their plain loops untouched.
        """
        return (self.guard is not None or self.injector is not None
                or vtrace.active() is not None)

    def _dispatch(self, program: Program, steps: Generator,
                  total: int) -> Dict[str, np.ndarray]:
        """The hooked run loop every backend shares.

        ``steps`` executes one step per iteration and yields the
        instruction indices it covered.  After each step the injector
        and then the deadline guard run; a step number the injector
        returns is sent into ``steps``, which resumes there.  The value
        tracer replays program-order digests of the executed
        instructions after the loop, inside ``finally``, so a crashing
        run still writes its record prefix and ``end`` footer; each
        instruction is recorded once, with its final value.
        """
        tracer = vtrace.active()
        guard, injector = self.guard, self.injector
        instructions = program.instructions
        done = []
        if tracer is not None:
            tracer.begin_program(program)
        try:
            indices = next(steps, None)
            while indices is not None:
                done.append(indices)
                resume = injector(self, program, indices) if injector else None
                if guard is not None:
                    guard.check(partial={"steps": len(done),
                                         "total_steps": total})
                indices = next(steps, None) if resume is None \
                    else steps.send(resume)
        finally:
            if tracer is not None:
                for index in sorted(set(chain.from_iterable(done))):
                    tracer.record_instruction(instructions[index],
                                              self.registers)
                tracer.end_program()
        return self.registers

    def read(self, name: str) -> np.ndarray:
        try:
            return self.registers[name]
        except KeyError:
            raise ExecutionError(f"register {name} was never written") from None

    # ------------------------------------------------------------------
    def execute(self, instr: Instruction) -> None:
        handler = getattr(self, f"_op_{instr.op.value}", None)
        if handler is None:
            raise ExecutionError(
                f"no handler for opcode {instr.op} ({instr.describe()})"
            )
        handler(instr)

    def _srcs(self, instr: Instruction):
        try:
            return [self.read(s) for s in instr.srcs]
        except ExecutionError as exc:
            raise ExecutionError(f"{exc} (while executing "
                                 f"{instr.describe()})") from None

    def _write(self, instr: Instruction, *values: np.ndarray) -> None:
        if len(values) != len(instr.dsts):
            raise ExecutionError(
                f"instruction {instr.uid} writes {len(values)} values to "
                f"{len(instr.dsts)} registers"
            )
        for name, value in zip(instr.dsts, values):
            self.registers[name] = np.asarray(value, dtype=float)

    # ------------------------------------------------------------------
    # Opcode handlers
    # ------------------------------------------------------------------
    def _op_const(self, instr):
        self._write(instr, np.asarray(instr.meta["value"], dtype=float))

    def _op_vp(self, instr):
        a, b = self._srcs(instr)
        sign = instr.meta.get("sign", 1)
        self._write(instr, a + sign * b)

    def _op_rt(self, instr):
        (a,) = self._srcs(instr)
        self._write(instr, a.T)

    def _op_rr(self, instr):
        a, b = self._srcs(instr)
        self._write(instr, a @ b)

    def _op_rv(self, instr):
        r, v = self._srcs(instr)
        self._write(instr, r @ v)

    def _op_mv(self, instr):
        m, v = self._srcs(instr)
        out = m @ v
        if instr.meta.get("negate"):
            out = -out
        self._write(instr, out)

    def _op_mm(self, instr):
        a, b = self._srcs(instr)
        if instr.meta.get("b_as_column") and b.ndim == 1:
            b = b.reshape(-1, 1)
        out = a @ b
        if instr.meta.get("negate"):
            out = -out
        self._write(instr, out)

    def _op_log(self, instr):
        (r,) = self._srcs(instr)
        if r.shape == (2, 2):
            self._write(instr, np.array([so2.log(r)]))
        elif r.shape == (3, 3):
            self._write(instr, so3.log(r))
        else:
            raise ExecutionError(f"LOG expects a rotation, got {r.shape}")

    def _op_exp(self, instr):
        (t,) = self._srcs(instr)
        if t.shape == (1,):
            self._write(instr, so2.exp(t[0]))
        elif t.shape == (3,):
            self._write(instr, so3.exp(t))
        else:
            raise ExecutionError(f"EXP expects so(2)/so(3), got {t.shape}")

    def _op_skew(self, instr):
        (v,) = self._srcs(instr)
        if v.shape == (3,):
            self._write(instr, so3.skew(v))
        elif v.shape == (2,):
            # 2-D (.)^ applied to a vector: the perp vector G v.
            self._write(instr, so2.GENERATOR @ v)
        elif v.shape == (1,):
            self._write(instr, so2.skew(v[0]))
        else:
            raise ExecutionError(f"SKEW expects dim 1/2/3, got {v.shape}")

    def _op_jr(self, instr):
        (t,) = self._srcs(instr)
        if t.shape == (3,):
            self._write(instr, so3.right_jacobian(t))
        elif t.shape == (1,):
            self._write(instr, np.eye(1))
        else:
            raise ExecutionError(f"JR expects so(2)/so(3), got {t.shape}")

    def _op_jrinv(self, instr):
        (t,) = self._srcs(instr)
        if t.shape == (3,):
            self._write(instr, so3.right_jacobian_inv(t))
        elif t.shape == (1,):
            self._write(instr, np.eye(1))
        else:
            raise ExecutionError(f"JRINV expects so(2)/so(3), got {t.shape}")

    def _op_copy(self, instr):
        (a,) = self._srcs(instr)
        self._write(instr, -a if instr.meta.get("negate") else a.copy())

    def _op_add(self, instr):
        values = self._srcs(instr)
        out = values[0].copy()
        for v in values[1:]:
            out = out + v
        self._write(instr, out)

    def _op_stack(self, instr):
        values = self._srcs(instr)
        axis = instr.meta.get("axis", 0)
        if axis == 0:
            if all(v.ndim == 1 for v in values):
                self._write(instr, np.concatenate(values))
            else:
                rows = [v.reshape(1, -1) if v.ndim == 1 else v for v in values]
                self._write(instr, np.vstack(rows))
        elif axis == 1:
            cols = [v.reshape(-1, 1) if v.ndim == 1 else v for v in values]
            self._write(instr, np.hstack(cols))
        else:
            raise ExecutionError(f"STACK axis must be 0 or 1, got {axis}")

    def _op_embed(self, instr):
        """Host-side sensor front-end: linearize a non-expression factor.

        Produces the whitened Jacobian block per key plus the RHS vector,
        in the destination order recorded at compile time.
        """
        factor = instr.meta["factor"]
        values = instr.meta["values"]
        gaussian = factor.linearize(values)
        outputs = [gaussian.block(k) for k in factor.keys]
        outputs.append(gaussian.rhs)
        self._write(instr, *outputs)

    def _op_qr(self, instr):
        layout = instr.meta["col_layout"]      # [(col_label, start, dim)]
        sources = instr.meta["sources"]        # [{reg, rows, cols:{label:(s,d)}}]
        frontal_dim = instr.meta["frontal_dim"]
        total_cols = instr.meta["total_cols"]  # excluding the rhs column
        del layout  # layout is for downstream consumers; assembly uses sources

        rows = sum(s["rows"] for s in sources)
        stacked = np.zeros((rows, total_cols + 1))
        row = 0
        for source in sources:
            block = self.read(source["reg"])
            if block.ndim != 2 or block.shape[0] != source["rows"]:
                raise ExecutionError(
                    f"row block {source['reg']} has shape {block.shape}, "
                    f"expected {source['rows']} rows"
                )
            for label, (src_start, dst_start, dim) in source["cols"].items():
                del label
                stacked[row : row + source["rows"],
                        dst_start : dst_start + dim] = (
                    block[:, src_start : src_start + dim]
                )
            # RHS travels in the last column of every row block.
            stacked[row : row + source["rows"], total_cols] = block[:, -1]
            row += source["rows"]

        _, r = np.linalg.qr(stacked, mode="reduced")
        conditional = r[:frontal_dim, :]
        if _obs_enabled():
            from repro.optim.probes import record_qr_condition

            record_qr_condition(np.diagonal(conditional[:, :frontal_dim]))
        outputs = [conditional]
        if len(instr.dsts) == 2:
            marginal = r[frontal_dim:, frontal_dim:]
            expected_rows = instr.meta["marginal_rows"]
            if marginal.shape[0] < expected_rows:
                pad = np.zeros((expected_rows - marginal.shape[0],
                                marginal.shape[1]))
                marginal = np.vstack([marginal, pad])
            outputs.append(marginal[:expected_rows])
        self._write(instr, *outputs)

    def _op_bsub(self, instr):
        frontal_dim = instr.meta["frontal_dim"]
        parents = instr.meta["parents"]  # [(start_col, dim)] into conditional
        conditional = self.read(instr.srcs[0])
        r = conditional[:, :frontal_dim]
        rhs = conditional[:, -1].copy()
        for (start, dim), src in zip(parents, instr.srcs[1:]):
            s_block = conditional[:, start : start + dim]
            rhs = rhs - s_block @ self.read(src)
        if np.any(np.abs(np.diag(r)) < 1e-12):
            raise ExecutionError(
                "singular conditional in back substitution (variable "
                "under-determined)"
            )
        # A non-finite operand propagates, as in the fused ``trtrs``
        # kernel, instead of raising scipy's ValueError.
        self._write(instr, solve_triangular(r, rhs, lower=False,
                                            check_finite=False))
