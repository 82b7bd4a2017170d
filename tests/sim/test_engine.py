"""Tests for the cycle-level simulator."""

import collections

import numpy as np
import pytest

from repro.apps import all_applications
from repro.errors import SimulationError
from repro.compiler import compile_application, compile_graph
from repro.compiler.isa import Opcode, UNIT_MATMUL, UNIT_QR
from repro.eval.experiments import ORIANNA_CONFIG
from repro.factorgraph import FactorGraph, Isotropic, Values, X
from repro.factors import BetweenFactor, PriorFactor, SmoothnessFactor
from repro.geometry import Pose
from repro.hw import AcceleratorConfig, minimal_config
from repro.sim import Simulator
from repro.sim.bottleneck import WaitTracker


def pose_chain(n=5, seed=0):
    rng = np.random.default_rng(seed)
    graph = FactorGraph([PriorFactor(X(0), Pose.identity(3),
                                     Isotropic(6, 1e-2))])
    values = Values({X(0): Pose.identity(3)})
    for i in range(n - 1):
        graph.add(BetweenFactor(X(i + 1), X(i), Pose.random(3, rng,
                                                            scale=0.3)))
        values.insert(X(i + 1), Pose.random(3, rng))
    return compile_graph(graph, values)


def two_algorithm_program():
    loc = pose_chain(4, seed=1)
    plan_graph = FactorGraph()
    plan_values = Values()
    for i in range(4):
        plan_values.insert(X(i), np.array([float(i), 0.0, 1.0, 0.0]))
    for i in range(3):
        plan_graph.add(SmoothnessFactor(X(i), X(i + 1), dof=2, dt=1.0))
    plan_graph.add(PriorFactor(X(0), np.zeros(4), Isotropic(4, 1e-2)))
    del loc
    # Rebuild via compile_application for proper namespacing.
    loc_graph = FactorGraph([PriorFactor(X(0), Pose.identity(3),
                                         Isotropic(6, 1e-2))])
    loc_values = Values({X(0): Pose.identity(3)})
    rng = np.random.default_rng(2)
    for i in range(3):
        loc_graph.add(BetweenFactor(X(i + 1), X(i),
                                    Pose.random(3, rng, scale=0.3)))
        loc_values.insert(X(i + 1), Pose.random(3, rng))
    return compile_application({
        "localization": (loc_graph, loc_values),
        "planning": (plan_graph, plan_values),
    })


class TestBasicExecution:
    def test_all_instructions_complete(self):
        compiled = pose_chain()
        result = Simulator().run(compiled.program, "ooo")
        assert result.total_cycles > 0
        nontrivial = sum(1 for i in compiled.program
                         if i.unit != "none")
        assert result.issued_count == nontrivial

    def test_unknown_policy_rejected(self):
        compiled = pose_chain()
        with pytest.raises(SimulationError):
            Simulator().run(compiled.program, "speculative")

    def test_deterministic(self):
        compiled = pose_chain()
        sim = Simulator()
        a = sim.run(compiled.program, "ooo")
        b = sim.run(compiled.program, "ooo")
        assert a.total_cycles == b.total_cycles
        assert a.energy_mj == pytest.approx(b.energy_mj)


class TestPolicyOrdering:
    """OoO <= in-order <= sequential, and the gaps are real."""

    def test_ooo_beats_inorder(self):
        compiled = pose_chain(8)
        sim = Simulator()
        ooo = sim.run(compiled.program, "ooo")
        inorder = sim.run(compiled.program, "inorder")
        assert ooo.total_cycles < inorder.total_cycles

    def test_inorder_beats_sequential(self):
        compiled = pose_chain(8)
        sim = Simulator()
        inorder = sim.run(compiled.program, "inorder")
        seq = sim.run(compiled.program, "sequential")
        assert inorder.total_cycles <= seq.total_cycles

    def test_ooo_energy_advantage(self):
        # Static energy scales with runtime, so OoO must use less energy.
        compiled = pose_chain(8)
        sim = Simulator()
        ooo = sim.run(compiled.program, "ooo")
        seq = sim.run(compiled.program, "sequential")
        assert ooo.energy_mj < seq.energy_mj

    def test_more_units_help_ooo(self):
        compiled = pose_chain(8)
        small = Simulator(minimal_config())
        big_config = minimal_config().with_extra_unit(UNIT_QR)
        big_config = big_config.with_extra_unit(UNIT_MATMUL)
        big = Simulator(big_config)
        assert big.run(compiled.program, "ooo").total_cycles <= (
            small.run(compiled.program, "ooo").total_cycles
        )

    def test_extra_units_never_help_sequential(self):
        # A controller that never overlaps cannot exploit extra units.
        compiled = pose_chain(6)
        small = Simulator(minimal_config())
        big = Simulator(minimal_config().with_extra_unit(UNIT_QR))
        assert big.run(compiled.program, "sequential").total_cycles == (
            small.run(compiled.program, "sequential").total_cycles
        )


class TestCoarseGrainedOoO:
    def test_algorithms_overlap_under_ooo(self):
        """Merged two-algorithm programs overlap in time under OoO."""
        program = two_algorithm_program()
        sim = Simulator()
        merged = sim.run(program, "ooo").total_cycles
        spans = sim.run(program, "ooo").algorithm_span_cycles
        assert set(spans) == {"localization", "planning"}
        # Overlap: the merged makespan is less than the sum of spans.
        assert merged < spans["localization"] + spans["planning"]

    def test_inorder_serializes_algorithms(self):
        program = two_algorithm_program()
        sim = Simulator()
        ooo = sim.run(program, "ooo").total_cycles
        inorder = sim.run(program, "inorder").total_cycles
        assert ooo < inorder


class TestStats:
    def test_utilization_bounded(self):
        compiled = pose_chain()
        result = Simulator().run(compiled.program, "ooo")
        for unit in result.unit_busy_cycles:
            assert 0.0 <= result.utilization(unit) <= 1.0

    def test_phase_shares_sum_to_one(self):
        compiled = pose_chain()
        result = Simulator().run(compiled.program, "ooo")
        total = sum(result.phase_share(p)
                    for p in ("construct", "decompose", "backsub"))
        assert total == pytest.approx(1.0)

    def test_decompose_dominates_work(self):
        # Sec. 7.3: matrix decomposition is the most expensive phase.
        compiled = pose_chain(8)
        result = Simulator().run(compiled.program, "ooo")
        assert result.phase_share("decompose") > result.phase_share("backsub")

    def test_time_units(self):
        compiled = pose_chain()
        result = Simulator().run(compiled.program, "ooo")
        assert result.time_ms == pytest.approx(result.time_us / 1000.0)

    def test_energy_components_nonnegative(self):
        compiled = pose_chain()
        e = Simulator().run(compiled.program, "ooo").energy
        assert e.dynamic_mj > 0
        assert e.static_mj > 0
        assert e.memory_mj >= 0

    def test_summary_renders(self):
        compiled = pose_chain()
        text = Simulator().run(compiled.program, "ooo").summary()
        assert "policy=ooo" in text


class TestBufferModel:
    def test_tiny_buffer_spills(self):
        compiled = pose_chain(8)
        tiny = Simulator(AcceleratorConfig(buffer_kib=4))
        roomy = Simulator(AcceleratorConfig(buffer_kib=4096))
        spill_tiny = tiny.run(compiled.program, "ooo").spilled_words
        spill_roomy = roomy.run(compiled.program, "ooo").spilled_words
        assert spill_roomy == 0
        assert spill_tiny >= spill_roomy

    def test_spill_costs_energy(self):
        compiled = pose_chain(8)
        tiny = Simulator(AcceleratorConfig(buffer_kib=1)).run(
            compiled.program, "ooo")
        if tiny.spilled_words > 0:
            assert tiny.energy.memory_mj > 0


class TestOutOfOrderIssueWork:
    """Clock-free bound on the out-of-order issue loop's work.

    The loop keeps one ready queue per unit class and leaves a deferred
    instruction untouched until a unit of its class frees up, so wait
    bookkeeping is paid per issued instruction, not per waiting
    instruction per scheduling round.
    """

    def test_wait_tracking_is_linear_in_instructions(self, monkeypatch):
        app = next(a for a in all_applications() if a.name == "MobileRobot")
        program = app.compile_frame(0)
        calls = collections.Counter()
        for name in ("close", "block", "block_if_unset"):
            def counted(self, *args, _name=name,
                        _method=getattr(WaitTracker, name)):
                calls[_name] += 1
                return _method(self, *args)
            monkeypatch.setattr(WaitTracker, name, counted)

        result = Simulator(ORIANNA_CONFIG).run(program, "ooo")

        non_const = sum(1 for instr in program
                        if instr.op is not Opcode.CONST)
        assert sum(calls.values()) <= 2 * non_const, dict(calls)
        # Deferrals are still counted once per waiting instruction per
        # round: the counter's meaning did not change with the loop.
        assert result.stall_counts == {"structural": 526949}
