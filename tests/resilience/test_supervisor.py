"""Supervised solve pipeline: deadlines, retry, ladder, breaker."""

import time

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceeded,
    ExecutionError,
    FaultInjectionError,
    ResilienceError,
)
from repro.factorgraph import FactorGraph, Isotropic, Values, X, solve
from repro.factorgraph.ordering import min_degree_ordering
from repro.factors import BetweenFactor, PriorFactor
from repro.geometry import Pose
from repro.optim.compiled import CompiledSolver
from repro.resilience import supervisor
from repro.resilience.chaos import VirtualClock
from repro.resilience.supervisor import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    RUNG_FUSED,
    RUNG_INTERPRETER,
    RUNG_REFERENCE,
    SupervisedSolver,
    SupervisorConfig,
    verify_template_integrity,
)

from tests.diff.util import call_counter


def pose_problem(n=5, seed=0):
    rng = np.random.default_rng(seed)
    graph = FactorGraph([PriorFactor(X(0), Pose.identity(3),
                                     Isotropic(6, 1e-2))])
    values = Values({X(0): Pose.identity(3)})
    for i in range(n - 1):
        graph.add(BetweenFactor(X(i + 1), X(i),
                                Pose.random(3, rng, scale=0.3)))
        values.insert(X(i + 1), Pose.random(3, rng))
    return graph, values


@pytest.fixture(scope="module")
def problem():
    return pose_problem()


@pytest.fixture(scope="module")
def golden(problem):
    graph, values = problem
    return CompiledSolver().solve(graph, values)


def no_sleep(_):
    pass


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------

class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown=2)
        for _ in range(2):
            breaker.record_failure("fp")
        assert breaker.state("fp") == BREAKER_CLOSED
        breaker.record_failure("fp")
        assert breaker.state("fp") == BREAKER_OPEN
        assert not breaker.allow("fp")

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown=2)
        breaker.record_failure("fp")
        breaker.record_success("fp")
        breaker.record_failure("fp")
        assert breaker.state("fp") == BREAKER_CLOSED

    def test_half_open_probe_after_cooldown(self):
        breaker = CircuitBreaker(threshold=1, cooldown=2)
        breaker.record_failure("fp")
        assert not breaker.allow("fp")  # cooldown tick 1
        assert breaker.allow("fp")      # cooldown expired: half-open probe
        assert breaker.state("fp") == BREAKER_HALF_OPEN
        breaker.record_success("fp")
        assert breaker.state("fp") == BREAKER_CLOSED

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown=1)
        breaker.record_failure("fp")
        assert breaker.allow("fp")  # immediate half-open (cooldown 1)
        breaker.record_failure("fp")
        assert breaker.state("fp") == BREAKER_OPEN

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(threshold=1, cooldown=8)
        breaker.record_failure("a")
        assert not breaker.allow("a")
        assert breaker.allow("b")


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------

class TestSupervisorConfig:
    def test_rejects_unknown_rungs(self):
        with pytest.raises(ResilienceError, match="unknown ladder"):
            SupervisorConfig(ladder=("gpu",))

    def test_rejects_empty_ladder(self):
        with pytest.raises(ResilienceError):
            SupervisorConfig(ladder=())

    def test_rejects_bad_sentinel_rate(self):
        with pytest.raises(ResilienceError):
            SupervisorConfig(sentinel_rate=1.5)



# ----------------------------------------------------------------------
# The solver: happy path and degradations
# ----------------------------------------------------------------------

class TestSupervisedSolver:
    @pytest.mark.parametrize("rung", [RUNG_FUSED, RUNG_INTERPRETER,
                                      RUNG_REFERENCE])
    def test_no_faults_bit_identical_to_unsupervised(self, rung, problem):
        graph, values = problem
        if rung == RUNG_REFERENCE:
            linear = graph.linearize(values)
            plain, _ = solve(linear, min_degree_ordering(linear))
        else:
            plain = CompiledSolver(executor=rung).solve(graph, values)
        solver = SupervisedSolver(config=SupervisorConfig(ladder=(rung,)))
        supervised = solver.solve(graph, values)
        assert solver.last_report["rung"] == rung
        assert set(supervised) == set(plain)
        for key in plain:
            assert np.array_equal(supervised[key], plain[key])

    def test_transient_failure_recovers_via_retry(self, problem, golden):
        graph, values = problem
        state = {"raised": False}

        def transient(executor, program, indices):
            if not state["raised"]:
                state["raised"] = True
                raise ExecutionError("injected")

        delays = []
        solver = SupervisedSolver(sleep=delays.append,
                                  injectors={RUNG_FUSED: transient})
        delta = solver.solve(graph, values)
        for key in golden:
            assert np.allclose(delta[key], golden[key], atol=1e-8)
        report = solver.last_report
        assert report["rung"] == RUNG_FUSED
        assert report["attempts"] == 2
        kinds = [e["kind"] for e in report["events"]]
        assert kinds == ["retryable_failure", "retry"]
        assert len(delays) == 1 and delays[0] > 0.0

    def test_persistent_failure_demotes_down_the_ladder(self, problem,
                                                        golden):
        graph, values = problem

        def persistent(executor, program, indices):
            raise ExecutionError("injected")

        solver = SupervisedSolver(sleep=no_sleep,
                                  injectors={RUNG_FUSED: persistent})
        delta = solver.solve(graph, values)
        report = solver.last_report
        assert report["rung"] == RUNG_INTERPRETER
        assert report["demotions"] == 1
        assert "retries_exhausted" in [e["kind"] for e in report["events"]]
        for key in golden:
            assert np.array_equal(delta[key], golden[key])

    def test_every_rung_failing_raises(self, problem, monkeypatch):
        graph, values = problem

        def explode(executor, program, indices):
            raise ExecutionError("injected")

        monkeypatch.setattr(supervisor, "MAX_ATTEMPTS", 1)
        solver = SupervisedSolver(
            config=SupervisorConfig(ladder=(RUNG_FUSED, RUNG_INTERPRETER)),
            sleep=no_sleep,
            injectors={RUNG_FUSED: explode, RUNG_INTERPRETER: explode})
        with pytest.raises((FaultInjectionError, ExecutionError)):
            solver.solve(graph, values)
        assert solver.last_report is None  # the solve never completed

    def test_backoff_delays_are_deterministic(self, problem):
        graph, values = problem

        def persistent(executor, program, indices):
            raise ExecutionError("injected")

        def run_once():
            delays = []
            solver = SupervisedSolver(sleep=delays.append,
                                      injectors={RUNG_FUSED: persistent})
            solver.solve(graph, values)
            return delays, solver.last_report

        delays_a, report_a = run_once()
        delays_b, report_b = run_once()
        assert delays_a == delays_b
        assert report_a == report_b
        # Exponential growth: second delay larger than the first.
        assert delays_a[1] > delays_a[0]

    def test_execute_deadline_demotes_instead_of_aborting(self, problem,
                                                          golden):
        graph, values = problem
        clock = VirtualClock()

        def slow(executor, program, indices):
            clock.advance(0.05)

        config = SupervisorConfig(execute_deadline_s=0.01)
        solver = SupervisedSolver(config=config, sleep=no_sleep,
                                  injectors={RUNG_FUSED: slow}, clock=clock)
        delta = solver.solve(graph, values)
        report = solver.last_report
        assert report["rung"] == RUNG_INTERPRETER
        kinds = [e["kind"] for e in report["events"]]
        assert "deadline_demotion" in kinds
        for key in golden:
            assert np.array_equal(delta[key], golden[key])

    def test_total_deadline_aborts_with_partial_progress(self, problem):
        graph, values = problem
        clock = VirtualClock()

        def slow(executor, program, indices):
            clock.advance(0.05)

        config = SupervisorConfig(total_deadline_s=0.01)
        solver = SupervisedSolver(config=config, sleep=no_sleep,
                                  injectors={RUNG_FUSED: slow}, clock=clock)
        with pytest.raises(DeadlineExceeded) as info:
            solver.solve(graph, values)
        assert info.value.phase == "total"
        assert info.value.partial  # carries instruction-group progress

    def test_nan_storm_demotes(self, problem, golden):
        graph, values = problem

        def storm(executor, program, indices):
            instr = program.instructions[indices[-1]]
            if instr.dsts:
                dst = instr.dsts[0]
                value = np.asarray(executor.registers[dst], dtype=float)
                executor.registers[dst] = np.full_like(value, np.nan)

        solver = SupervisedSolver(sleep=no_sleep,
                                  injectors={RUNG_FUSED: storm})
        delta = solver.solve(graph, values)
        assert solver.last_report["rung"] == RUNG_INTERPRETER
        for key in golden:
            assert np.array_equal(delta[key], golden[key])

    def test_breaker_quarantines_and_reprobes(self, problem, golden,
                                              monkeypatch):
        graph, values = problem

        def persistent(executor, program, indices):
            raise ExecutionError("injected")

        monkeypatch.setattr(supervisor, "MAX_ATTEMPTS", 1)
        monkeypatch.setattr(supervisor, "BREAKER_THRESHOLD", 2)
        monkeypatch.setattr(supervisor, "BREAKER_COOLDOWN", 2)
        solver = SupervisedSolver(sleep=no_sleep,
                                  injectors={RUNG_FUSED: persistent})
        # Two failing solves open the breaker.
        solver.solve(graph, values)
        solver.solve(graph, values)
        # Quarantined: the fused rung is skipped outright.
        solver.solve(graph, values)
        kinds = [e["kind"] for e in solver.last_report["events"]]
        assert "breaker_open" in kinds
        assert solver.last_report["attempts"] == 1  # interpreter only
        # Cool-down expires (counted in solve requests), the half-open
        # probe runs the fused rung again; with the fault gone it closes.
        solver._injectors.pop(RUNG_FUSED)
        delta = None
        for _ in range(3):
            delta = solver.solve(graph, values)
        assert solver.last_report["rung"] == RUNG_FUSED
        assert solver.breaker.summary()["not_closed"] == []
        for key in golden:
            assert np.array_equal(delta[key], golden[key])

    def test_sentinel_catches_silent_corruption(self, problem, golden):
        from repro.compiler.isa import Opcode

        graph, values = problem

        def corrupt(executor, program, indices):
            for index in indices:
                instr = program.instructions[index]
                if instr.op is Opcode.MM:
                    dst = instr.dsts[0]
                    executor.registers[dst] = 1.5 * np.asarray(
                        executor.registers[dst], dtype=float)
                    return

        config = SupervisorConfig(sentinel=True, sentinel_rate=1.0)
        solver = SupervisedSolver(config=config, sleep=no_sleep,
                                  injectors={RUNG_FUSED: corrupt})
        delta = solver.solve(graph, values)
        kinds = [e["kind"] for e in solver.last_report["events"]]
        assert "sentinel_divergence" in kinds
        assert solver.last_report["rung"] == RUNG_INTERPRETER
        for key in golden:
            assert np.array_equal(delta[key], golden[key])

    def test_poisoned_cache_template_is_evicted(self, problem, golden,
                                                monkeypatch):
        from repro.compiler import codegen
        from repro.compiler.cache import BIND_STATIC
        from repro.compiler.isa import Opcode

        graph, values = problem
        compiles = call_counter(monkeypatch, codegen, "compile_graph")
        solver = SupervisedSolver(sleep=no_sleep)
        solver.solve(graph, values)  # cold compile binds the session
        poisoned = solver.session.compiled
        for instr in poisoned.program.instructions:
            if instr.op is Opcode.CONST:
                spec = instr.meta.get("binding")
                if spec is None or spec[0] == BIND_STATIC:
                    value = np.asarray(instr.meta["value"], dtype=float)
                    if value.size:
                        bad = value.copy()
                        bad.flat[0] = np.nan
                        instr.meta["value"] = bad
                        break
        assert verify_template_integrity(poisoned)
        delta = solver.solve(graph, values)  # refresh detects + recompiles
        kinds = [e["kind"] for e in solver.last_report["events"]]
        assert "cache_eviction" in kinds
        assert compiles[0] == 2  # cold + recompile
        assert solver.session.compiled is not poisoned
        for key in golden:
            assert np.array_equal(delta[key], golden[key])

    def test_degradation_report_aggregates(self, problem):
        graph, values = problem
        state = {"raised": False}

        def transient(executor, program, indices):
            if not state["raised"]:
                state["raised"] = True
                raise ExecutionError("injected")

        solver = SupervisedSolver(sleep=no_sleep,
                                  injectors={RUNG_FUSED: transient})
        solver.solve(graph, values)
        solver.solve(graph, values)
        report = solver.degradation_report()
        assert report["solves"] == 2
        assert report["degraded_solves"] == 1
        assert report["events_by_kind"]["retry"] == 1
        assert report["last_solve"]["events"] == []


# ----------------------------------------------------------------------
# Optimizer integration
# ----------------------------------------------------------------------

class TestOptimizerIntegration:
    def test_gauss_newton_supervised_backend(self, problem):
        from repro.optim import gauss_newton

        graph, values = problem
        reference = gauss_newton(graph, values, backend="fused")
        supervised = gauss_newton(graph, values, backend="supervised")
        assert reference.degradation_report is None
        assert supervised.converged == reference.converged
        for key in reference.values.keys():
            ref, sup = reference.values.at(key), supervised.values.at(key)
            assert np.allclose(ref.phi, sup.phi, atol=1e-8)
            assert np.allclose(ref.t, sup.t, atol=1e-8)
        report = supervised.degradation_report
        assert report is not None and report["degraded_solves"] == 0

    def test_levenberg_supervised_backend(self, problem):
        from repro.optim import levenberg_marquardt

        graph, values = problem
        result = levenberg_marquardt(graph, values, backend="supervised")
        assert result.converged
        assert result.degradation_report is not None

    def test_simulation_result_renders_degradation_report(self):
        from repro.sim.stats import EnergyBreakdown, SimulationResult

        result = SimulationResult(
            policy="ooo", total_cycles=10, clock_mhz=1000.0,
            instruction_count=1, issued_count=1,
            energy=EnergyBreakdown(),
            degradation_report={"solves": 3, "degraded_solves": 1},
        )
        out = result.to_dict()
        assert out["degradation_report"] == {"solves": 3,
                                             "degraded_solves": 1}
        plain = SimulationResult(
            policy="ooo", total_cycles=10, clock_mhz=1000.0,
            instruction_count=1, issued_count=1,
            energy=EnergyBreakdown(),
        )
        assert "degradation_report" not in plain.to_dict()

    def test_supervisor_counters_surface_in_obs(self, problem):
        from repro import obs

        graph, values = problem

        def persistent(executor, program, indices):
            raise ExecutionError("injected")

        with obs.enabled_scope():
            solver = SupervisedSolver(sleep=no_sleep,
                                      injectors={RUNG_FUSED: persistent})
            solver.solve(graph, values)
            snapshot = obs.collector().drain()
        assert snapshot.counters["resilience.supervisor.solves"] == 1
        assert snapshot.counters["resilience.supervisor.retries"] == 2
        assert snapshot.counters["resilience.supervisor.demotions"] == 1
        assert snapshot.counters[
            "resilience.supervisor.degraded_solves"] == 1


# ----------------------------------------------------------------------
# Campaign timeout (satellite: --timeout-s)
# ----------------------------------------------------------------------

class TestCampaignTimeout:
    def test_timeout_validation(self):
        from repro.resilience.campaign import CampaignConfig

        with pytest.raises(ResilienceError, match="timeout_s"):
            CampaignConfig(timeout_s=0.0)
        with pytest.raises(ResilienceError, match="timeout_s"):
            CampaignConfig(timeout_s=-1.0)

    def test_expired_timeout_scores_crash_not_hang(self):
        from repro.optim.safeguards import DeadlineGuard
        from repro.resilience.faults import FaultPlan
        from repro.resilience.recovery import execute_with_faults

        from .conftest import pose_chain_program

        program = pose_chain_program()
        guard = DeadlineGuard(total_s=1e-9, label="trial")
        time.sleep(0.002)
        with pytest.raises(DeadlineExceeded):
            execute_with_faults(program, FaultPlan({}), deadline=guard)

    def test_campaign_with_generous_timeout_matches_untimed(self):
        from repro.resilience.campaign import CampaignConfig, run_campaign

        config = CampaignConfig(rates=(0.02,), trials=1,
                                apps=("Manipulator",))
        timed = CampaignConfig(rates=(0.02,), trials=1,
                               apps=("Manipulator",), timeout_s=120.0)
        _, doc_a = run_campaign(config)
        _, doc_b = run_campaign(timed)
        assert doc_a["workloads"] == doc_b["workloads"]
        assert doc_b["campaign"]["timeout_s"] == 120.0
