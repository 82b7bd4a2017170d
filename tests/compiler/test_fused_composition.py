"""Composition tests: the fused backend with the rest of the toolkit.

The fused executor is a drop-in :class:`Executor`; these tests pin the
contracts that make it one when composed with the compilation cache
(rebind never re-plans, in-place extension re-plans), the value tracer
(byte-identical traces), the run-loop hooks both backends share
(tracer, deadline guard, injector, the recovery hook, including under a
supervised solve; a register an injector rewrites reaches every later
step), and backend selection (``REPRO_EXECUTOR`` and per-solver names).
"""

import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro.obs as obs
from repro.apps import all_applications
from repro.compiler import (
    Executor,
    FusedExecutor,
    cache as cache_module,
    clear_default_cache,
    codegen,
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
from repro.compiler.isa import Program
from repro.errors import ExecutionError
from repro.obs import vtrace
from repro.optim.compiled import CompiledSolver
from repro.optim.safeguards import DeadlineGuard
from repro.resilience.campaign import max_relative_error
from repro.resilience.faults import FaultPlan, fault_injector, plan_faults
from repro.resilience.recovery import RecoveryHook
from repro.resilience.spec import CampaignSpec
from repro.resilience.supervisor import (
    RUNG_FUSED,
    RUNG_INTERPRETER,
    SupervisedSolver,
    SupervisorConfig,
)

from tests.diff.util import call_counter, random_problem


@pytest.fixture
def problem():
    return random_problem(3, 31)


# ----------------------------------------------------------------------
# Compilation cache: a rebind rewrites slabs, never re-plans
# ----------------------------------------------------------------------

class TestPlanReuseAcrossRebinds:
    def test_rebound_programs_share_one_plan(self):
        cache = CompilationCache()
        compiled = [cache.compile_stream(*random_problem(3, seed))
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
                compiled = cache.compile_stream(*random_problem(3, seed))
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
        a = cache.compile_stream(*random_problem(3, 300))
        b = cache.compile_stream(*random_problem(3, 301))
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

def template_frame(monkeypatch):
    """MobileRobot's seed-1 frame, built from its seed-0 frame template
    in one pass (one rebind, no extend, no compile) on a cleared
    cache."""
    app = next(a for a in all_applications() if a.name == "MobileRobot")
    clear_default_cache()
    first = app.compile_frame(0)
    calls = [call_counter(monkeypatch, codegen, "compile_graph"),
             call_counter(monkeypatch, cache_module, "rebind"),
             call_counter(monkeypatch, Program, "extend")]
    frame = app.compile_frame(1)
    assert [c[0] for c in calls] == [0, 1, 0]
    assert frame.structure_slot().template is first
    return frame


class TestTracingComposition:
    def test_vtrace_byte_identical_across_executors(self, problem, tmp_path,
                                                   monkeypatch):
        stream = default_cache().compile_stream(*problem).program
        try:
            programs = [stream, template_frame(monkeypatch)]
        finally:
            clear_default_cache()
        for index, program in enumerate(programs):
            path_interp = tmp_path / f"interp{index}.trace"
            path_fused = tmp_path / f"fused{index}.trace"
            with vtrace.recording_scope(str(path_interp), ring_size=0):
                Executor().run(program)
            with vtrace.recording_scope(str(path_fused), ring_size=0):
                FusedExecutor().run(program)
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
        program = default_cache().compile_stream(*problem).program
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

    @pytest.mark.parametrize("backend", [Executor, FusedExecutor],
                             ids=["interpreter", "fused"])
    def test_recovery_hook_without_faults_is_plain_run(self, backend,
                                                       problem):
        """The recovery hook with an empty plan (ABFT checks, DMR
        re-executions, checkpoints) leaves every register bitwise equal
        to the plain run's."""
        program = default_cache().compile_stream(*problem).program
        plain = Executor().run(program)
        hook = RecoveryHook(FaultPlan({}))
        registers = backend(guard=DeadlineGuard(total_s=3600.0),
                            injector=hook).run(program)
        assert registers.keys() == plain.keys()
        for name, value in plain.items():
            assert bitwise_equal(registers[name], value), name
        assert hook.stats.abft_checks > 0 and hook.stats.dmr_checks > 0
        assert hook.stats.detected == hook.stats.false_alarms == 0

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
        count = len(default_cache().compile_stream(graph,
                                            values).program.instructions)
        assert len(instr_records(path)) == count

    def test_crashing_fused_run_traces_completed_steps(self, problem,
                                                      tmp_path):
        program = default_cache().compile_stream(*problem).program

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
# Injected rewrites: a register a hook replaces reaches every later step
# ----------------------------------------------------------------------

APP_NAMES = [a.name for a in all_applications()]


class TestInjectedRewrites:
    @pytest.mark.parametrize("app_name", APP_NAMES)
    def test_seeded_value_faults_propagate_alike(self, app_name):
        """Fused consumers that gather from a step's slab must read a
        register the injector corrupted, as the interpreter's reads do.
        The two agree to rounding, not bitwise: a corrupted row of a
        transposed slab keeps the slab's layout."""
        app = next(a for a in all_applications() if a.name == app_name)
        program = app.compile_frame(0)
        clean = Executor().run(program)
        for seed in (7, 8, 9):
            spec = CampaignSpec(rate=0.02, seed=seed)
            runs = [backend(injector=fault_injector(
                        plan_faults(program, spec))).run(program)
                    for backend in (Executor, FusedExecutor)]
            assert max_relative_error(clean, runs[0]) > 1e-3
            assert max_relative_error(runs[0], runs[1]) <= 1e-12, seed

    @pytest.mark.parametrize("backend", [Executor, FusedExecutor],
                             ids=["interpreter", "fused"])
    def test_rewritten_constant_reaches_its_consumers(self, backend,
                                                     problem):
        """A hook that rewrites a CONST register changes every result
        downstream of it, the fused const-port stacks included."""
        program = default_cache().compile_stream(*problem).program
        # A constant the fused plan stacks into a const port.
        target = plan_for(program).const_ports[0][1][0]

        def double(executor, program, indices):
            if any(target in program.instructions[i].dsts for i in indices):
                executor.registers[target] = 2.0 * executor.registers[target]

        expected = Executor(injector=double).run(program)
        registers = backend(injector=double).run(program)
        assert max_relative_error(expected, registers) <= 1e-12
        assert max_relative_error(Executor().run(program), registers) > 0

    @pytest.mark.parametrize("backend", [Executor, FusedExecutor],
                             ids=["interpreter", "fused"])
    def test_dropped_result_is_never_read(self, backend, problem):
        """A result a hook drops stays unwritten, so its first consumer
        fails, on the fused backend too, instead of reading the dropped
        row from the step's slab."""
        program = default_cache().compile_stream(*problem).program
        plan = plan_for(program)
        # A batch-step result whose first reader gathers it as a block.
        first_reader = {}
        for step in plan.steps:
            for index in step.indices:
                for src in program.instructions[index].srcs:
                    first_reader.setdefault(src, step)
        target = next(name for name in plan.slab_rows
                      if hasattr(first_reader.get(name), "gathers"))

        def drop(executor, program, indices):
            if any(target in program.instructions[i].dsts for i in indices):
                del executor.registers[target]

        with pytest.raises(ExecutionError, match=f"{target} was never"):
            backend(injector=drop).run(program)


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
