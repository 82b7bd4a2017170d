"""Tests for provenance attribution and critical-path analysis."""

import json

import numpy as np
import pytest

from repro.compiler import compile_graph
from repro.factorgraph import FactorGraph, Isotropic, Values, X
from repro.factors import BetweenFactor, PriorFactor
from repro.geometry import Pose
from repro.sim import POLICIES, Simulator
from repro.sim.attribution import slack_bucket_labels


def pose_graph(n=6, seed=0):
    """A pose-graph chain: the canonical attribution workload."""
    rng = np.random.default_rng(seed)
    graph = FactorGraph([PriorFactor(X(0), Pose.identity(3),
                                     Isotropic(6, 1e-2))])
    values = Values({X(0): Pose.identity(3)})
    for i in range(n - 1):
        graph.add(BetweenFactor(X(i + 1), X(i),
                                Pose.random(3, rng, scale=0.3)))
        values.insert(X(i + 1), Pose.random(3, rng))
    return compile_graph(graph, values)


@pytest.fixture(scope="module")
def result():
    compiled = pose_graph()
    return Simulator().run(compiled.optimized().program, "ooo")


class TestAttribution:
    def test_coverage_meets_the_bar(self, result):
        """Acceptance criterion: >= 95% of busy cycles attributed."""
        assert result.attribution is not None
        assert result.attribution.coverage() >= 0.95

    def test_attributed_cycles_bounded_by_busy_cycles(self, result):
        attr = result.attribution
        total_busy = sum(result.unit_busy_cycles.values())
        assert attr.total_busy_cycles == pytest.approx(total_busy)
        assert attr.attributed_cycles <= attr.total_busy_cycles + 1e-9

    def test_factor_split_sums_to_attributed_work(self, result):
        """Even splitting must conserve cycles across the factor table."""
        attr = result.attribution
        factor_cycles = sum(b.cycles for b in attr.by_factor.values())
        typed_cycles = sum(b.cycles
                           for b in attr.by_factor_type.values())
        assert factor_cycles == pytest.approx(typed_cycles)
        assert factor_cycles <= attr.attributed_cycles + 1e-6

    def test_stage_cycles_sum_to_attributed(self, result):
        attr = result.attribution
        stage_cycles = sum(b.cycles for b in attr.by_stage.values())
        assert stage_cycles == pytest.approx(attr.attributed_cycles)

    def test_elimination_dominates_pose_graph(self, result):
        """QR is the known hotspot; attribution must say so."""
        by_stage = result.attribution.by_stage
        assert by_stage["eliminate"].cycles == max(
            b.cycles for b in by_stage.values())

    def test_energy_conserved(self, result):
        attr = result.attribution
        assert attr.total_energy_nj * 1e-6 == pytest.approx(
            result.energy.dynamic_mj)

    def test_top_ranking(self, result):
        top = result.attribution.top("stage", 2)
        assert len(top) == 2
        assert top[0][1].cycles >= top[1][1].cycles


class TestCriticalPath:
    def test_length_bounds_the_makespan(self, result):
        cp = result.critical_path
        assert cp is not None
        assert 0 < cp.length_cycles <= result.total_cycles
        assert cp.makespan_cycles == pytest.approx(result.total_cycles)

    def test_path_cycles_sum_to_length(self, result):
        cp = result.critical_path
        assert sum(s.cycles for s in cp.path) == pytest.approx(
            cp.length_cycles)

    def test_path_steps_carry_provenance(self, result):
        cp = result.critical_path
        assert cp.path
        assert any(s.stage or s.factors or s.variable for s in cp.path)

    def test_slack_nonnegative_and_critical_set_nonempty(self, result):
        cp = result.critical_path
        assert cp.slack
        assert all(s >= 0.0 for s in cp.slack.values())
        assert cp.zero_slack_uids(), "some instruction must gate the end"

    def test_slack_histogram_counts_every_instruction(self, result):
        cp = result.critical_path
        hist = cp.slack_histogram()
        assert list(hist) == slack_bucket_labels()
        assert sum(hist.values()) == len(cp.slack)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_dependency_bound_holds_under_every_policy(self, policy):
        compiled = pose_graph(n=4, seed=1)
        res = Simulator().run(compiled.program, policy)
        assert res.critical_path.length_cycles <= res.total_cycles


class TestResultSerialization:
    def test_to_dict_is_json_serializable(self, result):
        payload = result.to_dict(include_schedule=True)
        text = json.dumps(payload)
        loaded = json.loads(text)
        assert loaded["attribution"]["coverage"] >= 0.95
        assert loaded["critical_path"]["length_cycles"] > 0
        assert loaded["schedule"]

    def test_schedule_omitted_by_default(self, result):
        assert "schedule" not in result.to_dict()

    def test_utilization_matches_accessor(self, result):
        payload = result.to_dict()
        for unit, value in payload["utilization"].items():
            assert value == pytest.approx(result.utilization(unit))
