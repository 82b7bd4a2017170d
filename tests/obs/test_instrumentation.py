"""End-to-end checks that every pipeline layer records telemetry."""

import numpy as np

from repro import obs
from repro.compiler import compile_graph
from repro.compiler.passes import optimize_program
from repro.factorgraph import FactorGraph, Isotropic, Values, X
from repro.factors import BetweenFactor, PriorFactor
from repro.geometry import Pose
from repro.optim import (
    GaussNewtonParams,
    LevenbergParams,
    gauss_newton,
    levenberg_marquardt,
)
from repro.sim import Simulator
from tests.obs.test_trace_export import pose_chain


def small_problem(seed=3):
    rng = np.random.default_rng(seed)
    graph = FactorGraph([PriorFactor(X(0), Pose.identity(3),
                                     Isotropic(6, 1e-2))])
    values = Values({X(0): Pose.identity(3)})
    for i in range(3):
        graph.add(BetweenFactor(X(i + 1), X(i),
                                Pose.random(3, rng, scale=0.2)))
        values.insert(X(i + 1), Pose.random(3, rng, scale=0.5))
    return graph, values


class TestOptimizerTelemetry:
    def test_gauss_newton_iteration_spans(self):
        graph, values = small_problem()
        with obs.enabled_scope():
            result = gauss_newton(graph, values,
                                  GaussNewtonParams(max_iterations=5))
            snap = obs.collector().drain()
        spans = [s for s in snap.spans if s.name == "gn.iteration"]
        assert len(spans) == result.num_iterations
        for span, record in zip(spans, result.iterations):
            assert span.category == "optimizer"
            assert span.args["error_before"] == record.error_before
            assert span.args["error_after"] == record.error_after
            assert span.args["step_norm"] == record.step_norm
        assert snap.counters["optim.gn.iterations"] == result.num_iterations

    def test_levenberg_iteration_spans_carry_damping(self):
        graph, values = small_problem()
        with obs.enabled_scope():
            result = levenberg_marquardt(
                graph, values, LevenbergParams(max_iterations=5))
            snap = obs.collector().drain()
        spans = [s for s in snap.spans if s.name == "lm.iteration"]
        assert spans
        accepted = [s for s in spans if "step_norm" in s.args]
        assert len(accepted) == result.num_iterations
        for span in accepted:
            assert span.args["damping"] > 0.0
            assert span.args["trials"] >= 1
        assert snap.counters["optim.lm.iterations"] == result.num_iterations


class TestCompilerTelemetry:
    def test_pass_spans_record_instruction_deltas(self):
        compiled = pose_chain()
        before = len(compiled.program.instructions)
        with obs.enabled_scope():
            optimized = optimize_program(compiled.program)
            snap = obs.collector().drain()
        by_name = {s.name: s for s in snap.spans}
        assert {"cse", "dce", "optimize_program"} <= set(by_name)
        cse = by_name["cse"]
        assert cse.category == "compiler.pass"
        assert cse.args["instructions_before"] == before
        assert cse.args["removed"] == (before
                                       - cse.args["instructions_after"])
        dce = by_name["dce"]
        assert dce.args["instructions_after"] == len(optimized.instructions)
        assert snap.counters["compiler.cse.hits"] == cse.args["removed"]
        assert snap.counters["compiler.dce.removed"] == dce.args["removed"]

    def test_codegen_span_counts_emitted_instructions(self):
        graph, values = small_problem()
        with obs.enabled_scope():
            compiled = compile_graph(graph, values)
            snap = obs.collector().drain()
        span = next(s for s in snap.spans if s.name == "codegen")
        assert span.category == "compiler.pass"
        assert span.args["factors"] == len(graph.factors)
        assert span.args["instructions_after"] == len(
            compiled.program.instructions)
        assert snap.counters["compiler.codegen.instructions"] == len(
            compiled.program.instructions)


class TestSimulatorTelemetry:
    def test_sim_record_per_run(self):
        compiled = pose_chain()
        with obs.enabled_scope():
            result = Simulator().run(compiled.program, "ooo")
            snap = obs.collector().drain()
        assert len(snap.sims) == 1
        record = snap.sims[0]
        assert record["policy"] == "ooo"
        assert record["total_cycles"] == result.total_cycles
        assert record["stall_counts"] == result.stall_counts
        assert record["schedule"]  # the telemetry carries the schedule
        assert set(record["utilization"]) == set(result.unit_busy_cycles)

    def test_stall_kinds_reflect_policy(self):
        compiled = pose_chain()
        sim = Simulator()
        ooo = sim.run(compiled.program, "ooo")
        seq = sim.run(compiled.program, "sequential")
        inorder = sim.run(compiled.program, "inorder")
        # OoO never stalls on RAW at the head of line (it reorders).
        assert "raw" not in ooo.stall_counts
        assert "overlap" not in ooo.stall_counts
        # The naive controller stalls on overlap; in-order on RAW.
        assert seq.stall_counts.get("overlap", 0) > 0
        assert inorder.stall_counts.get("raw", 0) > 0
        assert "overlap" not in inorder.stall_counts

    def test_debug_invariants_pass_on_real_schedules(self):
        compiled = pose_chain()
        with obs.enabled_scope(debug=True):
            for policy in ("ooo", "inorder", "sequential"):
                Simulator().run(compiled.program, policy)
            snap = obs.collector().drain()
        assert len(snap.sims) == 3

    def test_debug_invariants_catch_corrupt_accounting(self):
        import pytest

        from repro.errors import SimulationError

        compiled = pose_chain()
        sim = Simulator()
        result = sim.run(compiled.program, "ooo")
        latencies = sim._latencies(compiled.program)
        # Sane schedule passes...
        sim._check_schedule_invariants(compiled.program, result, latencies)
        # ...and corrupted busy-cycle accounting is caught.
        unit = next(iter(result.unit_busy_cycles))
        result.unit_busy_cycles[unit] += 1
        with pytest.raises(SimulationError,
                           match="busy-cycle accounting mismatch"):
            sim._check_schedule_invariants(compiled.program, result,
                                           latencies)
