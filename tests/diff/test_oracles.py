"""Differential oracles: executor vs fused vs schedule replay vs NumPy.

Four independent evaluations of the same compiled Gauss-Newton step
must agree: in-order functional execution, the fused vectorized backend
(:class:`repro.compiler.FusedExecutor` — required *bit-identical* to the
interpreter), replay in the simulator's recorded (out-of-order) schedule
order, and the reference solvers.  Any scheduling bug that violates a
true data dependency, any codegen bug that mis-links the QR elimination
tree, or any fused-grouping bug that changes a reduction order, breaks
the agreement.

A fifth evaluation covers solve sessions: at every iteration of a GN
and an LM run, the refreshed session program must return the update a
cold compile of the same ``(graph, values)`` returns on the same
executor, bit for bit, on the interpreter and on the fused backend.
Supervised runs take their programs from a session too; with no fault
injected, each of their solves must equal a cold compile on the fused
executor, the top of their ladder.  A refresh that misses a value site,
or writes a stale one, breaks it.
"""

import io

import numpy as np
import pytest

from repro.compiler import (
    Executor,
    FusedExecutor,
    compile_graph,
    default_cache,
    executor_factory,
)
from repro.compiler.fused import EXECUTOR_ENV
from repro.factorgraph import solve
from repro.factorgraph.g2o import load_g2o
from repro.optim import gauss_newton, levenberg_marquardt
from repro.optim.compiled import CompiledSolver
from repro.resilience.supervisor import SupervisedSolver

from tests.diff.util import (
    assert_deltas_identical,
    dense_reference,
    divergence_forensics,
    random_problem,
    replay_program,
)

G2O_2D = """\
VERTEX_SE2 0 0 0 0
VERTEX_SE2 1 1.05 0.08 0.12
VERTEX_SE2 2 2.1 -0.05 -0.04
VERTEX_SE2 3 2.9 0.9 1.55
EDGE_SE2 0 1 1.0 0.1 0.05 100 0 0 100 0 400
EDGE_SE2 1 2 1.0 -0.1 -0.07 100 0 0 100 0 400
EDGE_SE2 2 3 0.9 0.8 1.5 80 0 0 80 0 300
EDGE_SE2 0 3 2.8 1.0 1.6 50 0 0 50 0 200
"""


def check_oracles(graph, values, atol=1e-8):
    compiled = default_cache().compile_stream(graph, values)
    registers = Executor().run(compiled.program)
    executed = compiled.extract_solution(registers)

    fused_registers = FusedExecutor().run(compiled.program)
    fused = compiled.extract_solution(fused_registers)

    replay = replay_program(compiled)
    replayed = compiled.extract_solution(Executor().run(replay))

    linear = graph.linearize(values)
    reference, _ = solve(linear, compiled.ordering)
    dense = dense_reference(graph, values)

    assert set(executed) == set(fused) == set(replayed) \
        == set(reference) == set(dense)
    for key in reference:
        assert np.allclose(executed[key], reference[key], atol=atol)
        if not np.array_equal(fused[key], executed[key]):
            # The fused backend must be *bit-identical*, not just close:
            # its kernels are engineered to perform the interpreter's
            # exact per-element operations.  Localize before failing.
            report = divergence_forensics(compiled.program,
                                          compiled.program,
                                          executor_b=FusedExecutor)
            raise AssertionError(
                f"interpreter vs fused backend disagree on {key}\n{report}"
            )
        if not np.allclose(replayed[key], executed[key], atol=1e-12):
            # Localize before failing: trace both streams and report
            # the first diverging instruction with its provenance.
            report = divergence_forensics(compiled.program, replay)
            raise AssertionError(
                f"executor vs schedule replay disagree on {key}\n{report}"
            )
        assert np.allclose(executed[key], dense[key], atol=1e-6)


def check_session_parity(graph, values, monkeypatch):
    """Every session solve of a GN and an LM run equals a cold compile."""
    checked = []

    def checking(solve, executor_of):
        def checked_solve(self, graph, values, ordering=None):
            delta = solve(self, graph, values, ordering)
            executor = executor_of(self)
            cold = compile_graph(graph, values, ordering)
            registers = executor_factory(executor)().run(cold.program)
            label = f"{type(self).__name__} on {executor or 'interpreter'}"
            assert_deltas_identical(
                delta, cold.extract_solution(registers),
                f"solve {len(checked)}, {label}:")
            checked.append(label)
            return delta
        return checked_solve

    monkeypatch.setattr(CompiledSolver, "solve", checking(
        CompiledSolver.solve, lambda solver: solver.executor))
    # An idle supervised solve runs the top of its ladder.
    monkeypatch.setattr(SupervisedSolver, "solve", checking(
        SupervisedSolver.solve, lambda solver: solver.config.ladder[0]))
    monkeypatch.setenv(EXECUTOR_ENV, "interpreter")
    for backend in ("compiled", "fused", "supervised"):
        gauss_newton(graph, values, backend=backend)
        levenberg_marquardt(graph, values, backend=backend)
    # Every solver ran, each for more than the first (cold) solve.
    for label in ("CompiledSolver on interpreter", "CompiledSolver on fused",
                  "SupervisedSolver on fused"):
        assert checked.count(label) > 2, label


@pytest.mark.parametrize("structure_seed, value_seed", [
    *(pytest.param(seed, seed + 5000, id=str(seed)) for seed in range(4)),
    # Sweep graphs whose 2-D BetweenFactor rotations reach an RV group
    # through the register-file gather as transposed RT views: the
    # fused stack must keep their layout, or BLAS rounds the product
    # differently from the interpreter.
    pytest.param(11, 7011, id="11-7011"),
    pytest.param(34, 7034, id="34-7034"),
])
def test_random_graph_oracles(structure_seed, value_seed, monkeypatch):
    graph, values = random_problem(structure_seed, value_seed)
    check_oracles(graph, values)
    check_session_parity(graph, values, monkeypatch)


def test_g2o_graph_oracles(monkeypatch):
    graph, values = load_g2o(io.StringIO(G2O_2D))
    # Anchor the gauge so the system is well-posed.
    from repro.factorgraph import Isotropic, X
    from repro.factors import PriorFactor

    graph.add(PriorFactor(X(0), values.at(X(0)), Isotropic(3, 0.01)))
    check_oracles(graph, values)
    check_session_parity(graph, values, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("structure_seed", range(50))
def test_random_graph_oracles_sweep(structure_seed):
    graph, values = random_problem(structure_seed, structure_seed + 7000)
    check_oracles(graph, values)
