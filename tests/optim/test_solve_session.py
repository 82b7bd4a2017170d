"""Solve sessions: one compile per GN/LM solve, then in-place refreshes.

A :class:`~repro.optim.compiled.CompiledSolver` compiles its first
graph and afterwards rewrites only the bound program's value-bearing
constants.  These tests pin both sides of that rule:

- *staleness*: every structural change the refresh rule must catch
  makes the reused solver compile afresh, and its update then equals
  a fresh solver's bit for bit;
- *work*: a fixed-budget GN or LM run compiles and plans once and never
  rebinds or linearizes the nonlinear graph, on the fused backend and
  under supervision alike; the supervisor fingerprints each solve once
  for its circuit breaker.
  Calls are counted by wrapping the library functions in place, the way
  the end-to-end benchmark's layer tracer does, so the bound needs no
  clock and no counter in ``src/``.

A :class:`~repro.resilience.supervisor.SupervisedSolver` owns one such
session, so the staleness rule holds for it too.
"""

import numpy as np
import pytest

from repro.apps import all_applications
from repro.compiler import cache, codegen, fused
from repro.compiler.cache import factor_token
from repro.factorgraph import (
    Diagonal,
    FactorGraph,
    HuberEstimator,
    Isotropic,
    RobustNoiseModel,
    Values,
    X,
    key,
)
from repro.factors import PriorFactor
from repro.geometry import Pose
from repro.optim.compiled import CompiledSolver, damped_nonlinear_graph
from repro.optim.gauss_newton import GaussNewtonParams, gauss_newton
from repro.optim.levenberg import LevenbergParams, levenberg_marquardt
from repro.resilience.supervisor import SupervisedSolver

from tests.diff.util import (
    assert_deltas_identical,
    call_counter,
    random_problem,
)

EXECUTORS = ("interpreter", "fused")


def _stepped(values, scale=0.01):
    return values.retract({k: scale * np.ones(values.dim(k))
                           for k in values.keys()})


class _Session:
    """One reused solver plus a count of its cold compiles."""

    def __init__(self, monkeypatch, executor):
        self.compiles = call_counter(monkeypatch, codegen, "compile_graph")
        self.solver = CompiledSolver(executor=executor)
        self.executor = executor

    def solve(self, graph, values, ordering=None, compiles=None):
        """Solve on the session; check the compile count and that the
        update equals a fresh solver's bit for bit."""
        before = self.compiles[0]
        delta = self.solver.solve(graph, values, ordering)
        if compiles is not None:
            assert self.compiles[0] - before == compiles
        fresh = CompiledSolver(executor=self.executor).solve(
            graph, values, ordering)
        assert_deltas_identical(delta, fresh)
        return delta


@pytest.mark.parametrize("executor", EXECUTORS)
class TestStaleness:
    def test_new_factor_object_with_same_token_refreshes(
            self, monkeypatch, executor):
        graph, values = random_problem(1, 3)
        session = _Session(monkeypatch, executor)
        session.solve(graph, values, compiles=1)
        factors = graph.factors
        old = factors[0]
        factors[0] = PriorFactor(old.keys[0],
                                 values.at(old.keys[0]).retract(
                                     0.1 * np.ones(values.dim(old.keys[0]))),
                                 old.noise)
        assert factor_token(factors[0], values) == factor_token(old, values)
        session.solve(FactorGraph(factors), values, compiles=0)
        # And back to the original object: its constants come back too.
        session.solve(graph, values, compiles=0)

    def test_rebuilt_graph_of_same_structure_refreshes(
            self, monkeypatch, executor):
        """Another seed of one app graph: every factor is a new object
        with an equal token, EMBED front-ends included."""
        app = next(a for a in all_applications() if a.name == "Manipulator")
        session = _Session(monkeypatch, executor)
        for seed, compiles in ((0, 1), (1, 0)):
            graph, values = app.build_graphs(seed, ["planning"])["planning"]
            session.solve(graph, values, compiles=compiles)

    def test_added_factor_recompiles(self, monkeypatch, executor):
        graph, values = random_problem(0, 1)
        session = _Session(monkeypatch, executor)
        session.solve(graph, values, compiles=1)
        first = graph.keys()[0]
        graph.add(PriorFactor(first, values.at(first),
                              Isotropic(values.dim(first), 0.5)))
        session.solve(graph, values, compiles=1)
        session.solve(graph, _stepped(values), compiles=0)

    def test_factor_with_different_token_recompiles(
            self, monkeypatch, executor):
        graph, values = random_problem(3, 8)
        session = _Session(monkeypatch, executor)
        session.solve(graph, values, compiles=1)
        factors = graph.factors
        old = factors[0]
        dim = values.dim(old.keys[0])
        factors[0] = PriorFactor(old.keys[0], values.at(old.keys[0]),
                                 Diagonal(np.linspace(0.1, 0.3, dim)))
        assert factor_token(factors[0], values) != factor_token(old, values)
        session.solve(FactorGraph(factors), values, compiles=1)

    def test_changed_value_signature_recompiles(self, monkeypatch, executor):
        """A pose variable turned 3-vector with its prior: every factor
        token is unchanged, only the value signature tells them apart."""
        graph, values = random_problem(2, 6)
        extra = key("z", 0)
        pose = Pose.random(2, np.random.default_rng(4))
        as_pose = FactorGraph(graph.factors + [
            PriorFactor(extra, pose, Isotropic(3, 0.2))])
        pose_values = values.copy()
        pose_values.insert(extra, pose)
        vector = np.array([0.3, -0.2, 0.1])
        as_vector = FactorGraph(graph.factors + [
            PriorFactor(extra, vector, Isotropic(3, 0.2))])
        vector_values = values.copy()
        vector_values.insert(extra, vector + 0.05)
        assert factor_token(as_pose.factors[-1], pose_values) \
            == factor_token(as_vector.factors[-1], vector_values)

        session = _Session(monkeypatch, executor)
        session.solve(as_pose, pose_values, compiles=1)
        session.solve(as_vector, vector_values, compiles=1)

    def test_different_ordering_recompiles(self, monkeypatch, executor):
        graph, values = random_problem(1, 9)
        session = _Session(monkeypatch, executor)
        session.solve(graph, values, compiles=1)
        order = list(session.solver.compiled.ordering)
        session.solve(graph, values, order, compiles=1)
        session.solve(graph, values, order[::-1], compiles=1)
        session.solve(graph, _stepped(values), order[::-1], compiles=0)

    def test_robust_noise_weight_refreshes(self, monkeypatch, executor):
        """A robust noise model reweights with the last residual it
        whitened, so a refresh re-reads its whitening constant."""
        robust = RobustNoiseModel(Isotropic(1, 0.1), HuberEstimator(k=1.0))
        graph = FactorGraph(
            [PriorFactor(X(0), np.array([m]), Isotropic(1, 0.1))
             for m in (1.0, 1.05, 0.95)]
            + [PriorFactor(X(0), np.array([3.0]), robust)])
        values = Values({X(0): np.array([2.0])})
        session = _Session(monkeypatch, executor)
        graph.error(values)
        session.solve(graph, values, compiles=1)
        moved = Values({X(0): np.array([1.1])})
        graph.error(moved)  # reweights at the new estimate
        session.solve(graph, moved, compiles=0)

        reference = gauss_newton(graph, values)
        compiled = gauss_newton(graph, values, backend="compiled")
        assert len(compiled.iterations) == len(reference.iterations)
        assert np.allclose(compiled.values.vector(X(0)),
                           reference.values.vector(X(0)), atol=1e-9)

    def test_damped_lambda_trials_refresh(self, monkeypatch, executor):
        """LM's fresh damping priors are new objects with equal tokens."""
        graph, values = random_problem(3, 8)
        session = _Session(monkeypatch, executor)
        session.solve(damped_nonlinear_graph(graph, values, 1e-3), values,
                      compiles=1)
        stepped = _stepped(values)
        session.solve(damped_nonlinear_graph(graph, stepped, 1e2), stepped,
                      compiles=0)


def _seed0_graph(app_name, algorithm):
    app = next(a for a in all_applications() if a.name == app_name)
    return app.build_graphs(0, [algorithm])[algorithm]


_NO_TOLERANCE = dict(absolute_error_tol=0.0, relative_error_tol=0.0,
                     step_tol=0.0)


def test_supervised_session_recompiles_on_structural_change(monkeypatch):
    graph, values = random_problem(0, 1)
    compiles = call_counter(monkeypatch, codegen, "compile_graph")
    solver = SupervisedSolver()
    solver.solve(graph, values)
    first = graph.keys()[0]
    grown = FactorGraph(graph.factors + [
        PriorFactor(first, values.at(first),
                    Isotropic(values.dim(first), 0.5))])
    delta = solver.solve(grown, values)
    assert compiles[0] == 2
    assert solver.last_report["events"] == []
    assert_deltas_identical(delta, SupervisedSolver().solve(grown, values))


class TestWorkBound:
    """An 8-iteration solve: one compile, one plan, no rebind.  The
    supervisor adds one fingerprint per solve for its breaker."""

    def _counters(self, monkeypatch):
        return {
            "compile": call_counter(monkeypatch, codegen, "compile_graph"),
            "plan": call_counter(monkeypatch, fused, "build_plan"),
            "rebind": call_counter(monkeypatch, cache, "rebind"),
            "fingerprint": call_counter(monkeypatch, cache,
                                        "graph_structure"),
            "error": call_counter(monkeypatch, FactorGraph, "error"),
            "linearize": call_counter(monkeypatch, FactorGraph,
                                      "linearize"),
        }

    def _gauss_newton(self, monkeypatch, backend):
        graph, values = _seed0_graph("Quadrotor", "localization")
        counts = self._counters(monkeypatch)
        result = gauss_newton(graph, values, GaussNewtonParams(
            max_iterations=8, max_step_norm=10.0, **_NO_TOLERANCE),
            backend=backend)
        assert len(result.iterations) == 8
        return {k: c[0] for k, c in counts.items()}

    def _levenberg_marquardt(self, monkeypatch, backend):
        graph, values = _seed0_graph("Quadrotor", "localization")
        counts = self._counters(monkeypatch)
        result = levenberg_marquardt(graph, values, LevenbergParams(
            max_iterations=8, initial_lambda=1e3, min_lambda=1e3,
            **_NO_TOLERANCE), backend=backend)
        assert len(result.iterations) == 8
        return {k: c[0] for k, c in counts.items() if k != "error"}

    def test_gauss_newton(self, monkeypatch):
        # The error of each accepted step carries into the next
        # iteration: one initial evaluation plus one per step.  The
        # cold compile orders the graph without linearizing it.
        assert self._gauss_newton(monkeypatch, "fused") == {
            "compile": 1, "plan": 1, "rebind": 0, "fingerprint": 0,
            "error": 9, "linearize": 0}

    def test_gauss_newton_supervised(self, monkeypatch):
        assert self._gauss_newton(monkeypatch, "supervised") == {
            "compile": 1, "plan": 1, "rebind": 0, "fingerprint": 8,
            "error": 9, "linearize": 0}

    def test_levenberg_marquardt(self, monkeypatch):
        assert self._levenberg_marquardt(monkeypatch, "fused") == {
            "compile": 1, "plan": 1, "rebind": 0, "fingerprint": 0,
            "linearize": 0}

    def test_levenberg_marquardt_supervised(self, monkeypatch):
        assert self._levenberg_marquardt(monkeypatch, "supervised") == {
            "compile": 1, "plan": 1, "rebind": 0, "fingerprint": 8,
            "linearize": 0}
