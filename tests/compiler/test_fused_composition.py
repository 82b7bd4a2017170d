"""Composition tests: the fused backend with the rest of the toolkit.

The fused executor is a drop-in :class:`Executor`; these tests pin the
contracts that make it one when composed with the compilation cache
(rebind never re-plans, in-place extension re-plans), the value tracer
(byte-identical traces), the run-loop hooks both backends share
(tracer, deadline guard, injector, including under a supervised
solve), and backend selection (``REPRO_EXECUTOR`` and per-solver
names).
"""

import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro.obs as obs
from repro.compiler import (
    Executor,
    FusedExecutor,
    compile_graph,
    default_cache,
)
from repro.compiler.cache import CompilationCache
from repro.compiler.fused import (
    EXECUTOR_ENV,
    EXECUTOR_FUSED,
    EXECUTOR_INTERPRETER,
    default_executor_name,
    executor_factory,
    plan_for,
)
from repro.obs import vtrace
from repro.optim.compiled import CompiledSolver
from repro.optim.safeguards import DeadlineGuard
from repro.resilience.supervisor import (
    RUNG_FUSED,
    RUNG_INTERPRETER,
    SupervisedSolver,
    SupervisorConfig,
)

from tests.diff.util import random_problem


@pytest.fixture
def problem():
    return random_problem(3, 31)


# ----------------------------------------------------------------------
# Compilation cache: a rebind rewrites slabs, never re-plans
# ----------------------------------------------------------------------

class TestPlanReuseAcrossRebinds:
    def test_rebound_programs_share_one_plan(self):
        cache = CompilationCache()
        compiled = [cache.compile(*random_problem(3, seed))
                    for seed in (100, 101, 102)]
        assert cache.stats()["hits"] == 2
        plans = [plan_for(c.program) for c in compiled]
        assert plans[0] is plans[1] is plans[2]

    def test_plan_built_once_across_rebind_executions(self):
        cache = CompilationCache()
        obs.enable()
        try:
            obs.collector().drain()
            for seed in (200, 201, 202, 203):
                compiled = cache.compile(*random_problem(3, seed))
                FusedExecutor().run(compiled.program)
            snapshot = obs.collector().drain()
        finally:
            obs.disable()
        assert snapshot.counters["fused.plan.build"] == 1
        assert snapshot.counters["fused.plan.hit"] == 3

    def test_rebind_refreshes_constants(self, problem):
        """Same structure, different values: the plan is shared but the
        rebound CONST slabs (and their memoized stacks) are not."""
        cache = CompilationCache()
        a = cache.compile(*random_problem(3, 300))
        b = cache.compile(*random_problem(3, 301))
        sol_a = a.extract_solution(FusedExecutor().run(a.program))
        sol_b = b.extract_solution(FusedExecutor().run(b.program))
        ref_a = a.extract_solution(Executor().run(a.program))
        ref_b = b.extract_solution(Executor().run(b.program))
        for key in ref_a:
            assert np.array_equal(sol_a[key], ref_a[key])
            assert np.array_equal(sol_b[key], ref_b[key])
        assert any(not np.array_equal(sol_a[k], sol_b[k]) for k in sol_a)

    def test_extend_in_place_preloads_new_constants(self):
        """``Program.extend`` appends in place: the re-planned run must
        preload the appended CONST sites, not a memo of the old ones."""
        program = compile_graph(*random_problem(3, 400)).program
        FusedExecutor().run(program)
        program.extend(compile_graph(*random_problem(3, 401),
                                     register_prefix="other").program)
        fused = FusedExecutor().run(program)
        reference = Executor().run(program)
        assert fused.keys() == reference.keys()
        for name, value in reference.items():
            assert bitwise_equal(fused[name], value), name


# ----------------------------------------------------------------------
# Observability: value traces agree across backends
# ----------------------------------------------------------------------

class TestTracingComposition:
    def test_vtrace_byte_identical_across_executors(self, problem, tmp_path):
        compiled = default_cache().compile(*problem)
        path_interp = tmp_path / "interp.trace"
        path_fused = tmp_path / "fused.trace"
        with vtrace.recording_scope(str(path_interp), ring_size=0):
            Executor().run(compiled.program)
        with vtrace.recording_scope(str(path_fused), ring_size=0):
            FusedExecutor().run(compiled.program)
        assert path_interp.read_bytes() == path_fused.read_bytes()


# ----------------------------------------------------------------------
# Run-loop hooks: tracer, guard and injector compose on both backends,
# alone and together
# ----------------------------------------------------------------------

HOOKS = ("tracer", "guard", "injector")
HOOK_SETS = [hooks for size in range(1, len(HOOKS) + 1)
             for hooks in itertools.combinations(HOOKS, size)]


def bitwise_equal(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def instr_records(path):
    with open(path) as fh:
        return [record for record in map(json.loads, fh)
                if record["kind"] == "instr"]


class TestHookComposition:
    @pytest.mark.parametrize("hooks", HOOK_SETS, ids="+".join)
    @pytest.mark.parametrize("backend", [Executor, FusedExecutor],
                             ids=["interpreter", "fused"])
    def test_hooks_compose(self, backend, hooks, problem, tmp_path):
        program = default_cache().compile(*problem).program
        count = len(program.instructions)
        plain = Executor().run(program)
        seen, steps = [], []

        def record(executor, program, indices):
            seen.extend(indices)
            steps.append(indices)

        executor = backend(
            guard=DeadlineGuard(total_s=3600.0) if "guard" in hooks
            else None,
            injector=record if "injector" in hooks else None)
        path = tmp_path / "hooks.trace"
        if "tracer" in hooks:
            with vtrace.recording_scope(path, ring_size=0):
                registers = executor.run(program)
        else:
            registers = executor.run(program)
        assert registers.keys() == plain.keys()
        for name, value in plain.items():
            assert bitwise_equal(registers[name], value), name
        if "injector" in hooks:
            assert sorted(seen) == list(range(count))
            # One step per fused dispatch, fewer than the instructions:
            # that is the fusion win.
            if backend is FusedExecutor:
                assert len(steps) == plan_for(program).dispatch_count() \
                    < count
        if "tracer" in hooks:
            records = instr_records(path)
            assert [r["uid"] for r in records] == \
                [instr.uid for instr in program.instructions]

    @pytest.mark.parametrize("rung", [RUNG_FUSED, RUNG_INTERPRETER])
    def test_supervised_solve_is_traced(self, rung, problem, tmp_path):
        """An armed deadline guard does not hide a supervised solve from
        the value tracer, on either rung."""
        graph, values = problem
        solver = SupervisedSolver(config=SupervisorConfig(
            execute_deadline_s=3600.0, ladder=(rung,)))
        path = tmp_path / "supervised.trace"
        with vtrace.recording_scope(path, ring_size=0):
            solver.solve(graph, values)
        assert solver.last_report["rung"] == rung
        count = len(default_cache().compile(graph,
                                            values).program.instructions)
        assert len(instr_records(path)) == count

    def test_crashing_fused_run_traces_completed_steps(self, problem,
                                                      tmp_path):
        from repro.errors import ExecutionError

        program = default_cache().compile(*problem).program

        def crash(executor, program, indices):
            raise ExecutionError("injected")

        path = tmp_path / "crash.trace"
        with vtrace.recording_scope(path, ring_size=0):
            with pytest.raises(ExecutionError):
                FusedExecutor(injector=crash).run(program)
        plan = plan_for(program)
        first = [i for i, _ in plan.const_sites] or plan.steps[0].indices
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        assert lines[-1]["kind"] == "end"
        assert [r["uid"] for r in lines if r["kind"] == "instr"] == \
            [program.instructions[i].uid for i in sorted(first)]


# ----------------------------------------------------------------------
# Backend selection: env var / per-solver choice
# ----------------------------------------------------------------------

class TestBackendSelection:
    def test_default_is_interpreter(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        assert default_executor_name() == EXECUTOR_INTERPRETER
        assert executor_factory() is Executor

    def test_env_selects_fused(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "fused")
        assert default_executor_name() == EXECUTOR_FUSED
        assert executor_factory() is FusedExecutor

    def test_env_typo_raises(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "fsued")
        with pytest.raises(ValueError, match="fsued"):
            default_executor_name()

    def test_solver_executor_name_validated(self):
        with pytest.raises(ValueError):
            CompiledSolver(executor="nope")

    def test_backend_kwarg_reaches_optimizers(self, problem):
        from repro.optim import GaussNewtonParams, gauss_newton

        graph, values = problem
        params = GaussNewtonParams(max_iterations=5)
        fused_result = gauss_newton(graph, values, params,
                                    backend="fused")
        compiled_result = gauss_newton(graph, values, params,
                                       backend="compiled")
        assert len(fused_result.iterations) == \
            len(compiled_result.iterations)
        for a, b in zip(fused_result.iterations,
                        compiled_result.iterations):
            assert a.error_after == b.error_after
            assert a.step_norm == b.step_norm

    def test_unknown_backend_rejected(self, problem):
        from repro.optim import gauss_newton

        graph, values = problem
        with pytest.raises(ValueError, match="backend"):
            gauss_newton(graph, values, backend="vectorized")

    def test_env_var_reaches_subprocess_solves(self, problem):
        """REPRO_EXECUTOR=fused in the environment switches a fresh
        process's compiled solves onto the fused path."""
        code = (
            "from repro.compiler.fused import default_executor_name, "
            "executor_factory, FusedExecutor\n"
            "assert default_executor_name() == 'fused'\n"
            "assert executor_factory() is FusedExecutor\n"
        )
        env = dict(os.environ, REPRO_EXECUTOR="fused")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p)
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=env, cwd=os.path.dirname(
                           os.path.dirname(os.path.dirname(
                               os.path.abspath(__file__)))))
