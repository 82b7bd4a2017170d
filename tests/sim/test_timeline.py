"""Tests for the schedule timeline renderer."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.compiler import compile_graph
from repro.factorgraph import FactorGraph, Isotropic, Values, X
from repro.factors import BetweenFactor, PriorFactor
from repro.geometry import Pose
from repro.sim import (
    EnergyBreakdown,
    SimulationResult,
    Simulator,
    busy_summary,
    render_timeline,
)


@pytest.fixture(scope="module")
def compiled():
    rng = np.random.default_rng(0)
    graph = FactorGraph([PriorFactor(X(0), Pose.identity(3),
                                     Isotropic(6, 1e-2))])
    values = Values({X(0): Pose.identity(3)})
    for i in range(4):
        graph.add(BetweenFactor(X(i + 1), X(i),
                                Pose.random(3, rng, scale=0.3)))
        values.insert(X(i + 1), Pose.random(3, rng))
    return compile_graph(graph, values)


class TestRenderTimeline:
    def test_contains_all_unit_strips(self, compiled):
        result = Simulator().run(compiled.program, "ooo")
        text = render_timeline(compiled.program, result)
        for unit in ("matmul", "qr", "vector", "special", "bsub"):
            assert unit in text

    def test_phases_marked(self, compiled):
        result = Simulator().run(compiled.program, "ooo")
        text = render_timeline(compiled.program, result)
        assert "c" in text and "Q" in text and "b" in text

    def test_requires_recorded_schedule(self, compiled):
        # A hand-built result has no run state, hence no schedule.
        result = SimulationResult(
            policy="ooo", total_cycles=10, clock_mhz=100.0,
            energy=EnergyBreakdown(), instruction_count=1, issued_count=1)
        with pytest.raises(SimulationError, match="no schedule"):
            render_timeline(compiled.program, result)

    def test_width_validated(self, compiled):
        result = Simulator().run(compiled.program, "ooo")
        with pytest.raises(SimulationError):
            render_timeline(compiled.program, result, width=2)

    def test_sequential_shows_less_overlap(self, compiled):
        """Under OoO, matmul and QR strips are busy simultaneously."""
        sim = Simulator()

        def overlap(policy):
            result = sim.run(compiled.program, policy)
            lines = render_timeline(compiled.program, result).splitlines()
            strips = {}
            for line in lines[1:]:
                unit = line.split("|")[0].strip()
                strips[unit] = line.split("|")[1]
            both = sum(1 for a, b in zip(strips["matmul"], strips["qr"])
                       if a != "." and b != ".")
            return both

        assert overlap("ooo") > overlap("sequential")


class TestBusySummary:
    def test_summary_lines(self, compiled):
        result = Simulator().run(compiled.program, "ooo")
        text = busy_summary(result)
        assert "utilization" in text
        assert text.count("\n") + 1 == len(result.unit_busy_cycles)
