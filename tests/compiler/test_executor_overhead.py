"""The run-loop hooks must be free while disabled.

``Executor.run`` consults its guard and injector and
:func:`repro.obs.vtrace.active` **once per program**; with none
installed the interpreter loop is the same plain ``for instr:
execute(instr)`` the seed executor ran.  These tests pin that: the
disabled path stays within a small factor of a hand-rolled execute loop
on a dispatch-bound program, and the per-instruction digest loop only
exists while a tracer is active.
"""

import time

import numpy as np

from repro.compiler.executor import Executor
from repro.compiler.isa import Opcode, Program
from repro.obs import vtrace


def dispatch_bound_program(n=2000):
    """A long chain of 1-element COPYs: all dispatch, no numpy work."""
    program = Program()
    reg = program.new_register("r", (1,))
    program.emit(Opcode.CONST, [], [reg], meta={"value": np.zeros(1)})
    for _ in range(n):
        nxt = program.new_register("r", (1,))
        program.emit(Opcode.COPY, [reg], [nxt])
        reg = nxt
    return program


def interleaved_best(plain, instrumented, repeats=5):
    """Minimum wall time of each side over repeats, runs interleaved.

    The minimum is robust to scheduler noise; alternating the two sides
    exposes both to the same host speed state, so a slow spell lasting a
    few seconds cannot land on one side only.
    """
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for side, fn in enumerate((plain, instrumented)):
            started = time.perf_counter()
            fn()
            best[side] = min(best[side], time.perf_counter() - started)
    return best[0], best[1]


class TestDisabledOverhead:
    def test_run_matches_plain_execute_loop(self):
        program = dispatch_bound_program()
        assert vtrace.active() is None

        def plain():
            ex = Executor()
            for instr in program.instructions:
                ex.execute(instr)

        def instrumented():
            Executor().run(program)

        # Warm both paths before timing.
        plain()
        instrumented()
        baseline, hooked = interleaved_best(plain, instrumented)
        # The hook check is one module-global read per run() call,
        # which is noise next to ~2000 dispatches; 1.5x absorbs slow-CI
        # jitter while still catching an accidental per-instruction
        # check.
        assert hooked < baseline * 1.5 + 1e-3, (
            f"unhooked run() too slow: {hooked:.4f}s vs "
            f"plain loop {baseline:.4f}s"
        )

    def test_disabled_tracer_stays_within_bound(self, tmp_path):
        # Same bound after a traced run: once the tracer is off again
        # the run() path is back to one module-global read.  Warm a
        # traced run first so its code paths are compiled, then time
        # the disabled path.
        program = dispatch_bound_program()
        with vtrace.recording_scope(tmp_path / "warm.trace",
                                    ring_size=0):
            Executor().run(program)
        assert vtrace.active() is None

        def plain():
            ex = Executor()
            for instr in program.instructions:
                ex.execute(instr)

        def instrumented():
            Executor().run(program)

        plain()
        instrumented()
        baseline, hooked = interleaved_best(plain, instrumented)
        assert hooked < baseline * 1.5 + 1e-3, (
            f"disabled-tracer run() too slow: {hooked:.4f}s vs "
            f"plain loop {baseline:.4f}s"
        )

    def test_traced_run_records_every_instruction(self, tmp_path):
        import json

        program = dispatch_bound_program(n=50)
        path = tmp_path / "a.trace"
        with vtrace.recording_scope(path, ring_size=0):
            Executor().run(program)
        with open(path) as fh:
            records = sum(1 for line in fh
                          if json.loads(line)["kind"] == "instr")
        assert records == len(program.instructions)
