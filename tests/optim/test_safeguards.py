"""Solver safeguards: non-finite guards, fallback, deadlines, step bounds."""

import numpy as np
import pytest

from repro import obs
from repro.errors import FaultInjectionError, OptimizationError
from repro.factorgraph import FactorGraph, Values, X, prior_on_vector
from repro.optim import (
    GaussNewtonParams,
    LevenbergParams,
    NONFINITE_RAISE,
    DeadlineGuard,
    clip_delta,
    delta_is_finite,
    gauss_newton,
    levenberg_marquardt,
)
from repro.optim.safeguards import is_finite_scalar


def simple_graph():
    return FactorGraph([prior_on_vector(X(0), np.array([3.0, -1.0]))])


def initial():
    return Values({X(0): np.zeros(2)})


class TestPrimitives:
    def test_is_finite_scalar(self):
        assert is_finite_scalar(1.0)
        assert not is_finite_scalar(float("nan"))
        assert not is_finite_scalar(float("inf"))
        assert not is_finite_scalar(None)

    def test_delta_is_finite(self):
        assert delta_is_finite({X(0): np.ones(3)})
        assert not delta_is_finite({X(0): np.array([1.0, np.nan])})
        assert not delta_is_finite({X(0): np.ones(2),
                                    X(1): np.array([np.inf])})

    def test_clip_delta_scales_down_only_when_over(self):
        delta = {X(0): np.array([3.0, 4.0])}
        clipped = clip_delta(delta, 5.0, 2.5)
        assert np.allclose(clipped[X(0)], [1.5, 2.0])
        assert clip_delta(delta, 5.0, None) is delta
        assert clip_delta(delta, 5.0, 10.0) is delta

    def test_budget_trips_after_deadline(self):
        # The optimizer loops' budget is the guard's total deadline.
        import time

        budget = DeadlineGuard(1e-9, label="test-solve")
        assert budget.remaining_s() is not None
        time.sleep(0.002)
        assert budget.remaining_s() == 0.0
        with pytest.raises(OptimizationError, match="wall-clock") as info:
            budget.check(partial={"iteration": 3})
        assert info.value.partial == {"iteration": 3}
        unbounded = DeadlineGuard()
        assert unbounded.check() is None  # never trips
        assert unbounded.remaining_s() is None

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"),
                                     float("inf")])
    def test_budget_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError, match="positive"):
            DeadlineGuard(bad)

    def test_deadline_guard_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            DeadlineGuard(total_s=0.0)
        with pytest.raises(ValueError, match="positive"):
            DeadlineGuard(execute_s=-2.0)
        with pytest.raises(ValueError, match="positive"):
            DeadlineGuard(execute_s=float("nan"))

    def test_deadline_guard_phases(self):
        import time

        from repro.errors import DeadlineExceeded

        guard = DeadlineGuard()
        assert not guard.armed
        guard.check()  # unarmed guard never trips

        guard = DeadlineGuard(execute_s=1e-9)
        assert guard.armed
        guard.check()  # no attempt running: execute deadline dormant
        guard.start_execute()
        time.sleep(0.002)
        with pytest.raises(DeadlineExceeded) as info:
            guard.check(partial={"groups": 7})
        assert info.value.phase == "execute"
        assert info.value.partial == {"groups": 7}
        guard.end_execute()
        guard.check()  # attempt over: dormant again

        # Each attempt restarts the execute clock.
        guard2 = DeadlineGuard(execute_s=10.0)
        guard2.start_execute()
        guard2.check()

    def test_deadline_guard_total_trips_in_any_phase(self):
        import time

        from repro.errors import DeadlineExceeded

        guard = DeadlineGuard(total_s=1e-9, execute_s=10.0)
        guard.start_execute()
        time.sleep(0.002)
        with pytest.raises(DeadlineExceeded) as info:
            guard.check()
        assert info.value.phase == "total"
        assert info.value.elapsed_s > info.value.deadline_s


class TestGaussNewtonSafeguards:
    def test_defaults_keep_healthy_solves_identical(self):
        # The guarded loop must not perturb a clean trajectory.
        result = gauss_newton(simple_graph(), initial())
        assert result.converged
        assert np.allclose(result.values.vector(X(0)), [3.0, -1.0])

    def test_nan_initial_error_raises_under_raise_mode(self):
        params = GaussNewtonParams(on_nonfinite=NONFINITE_RAISE)
        bad = Values({X(0): np.array([np.nan, 0.0])})
        with pytest.raises(OptimizationError, match="non-finite"):
            gauss_newton(simple_graph(), bad, params)

    def test_nonfinite_delta_falls_back_to_lm(self, monkeypatch):
        import importlib

        gn = importlib.import_module("repro.optim.gauss_newton")

        calls = {"n": 0}
        real = gn.eliminate_and_solve

        def poisoned(linear, order):
            calls["n"] += 1
            delta, stats = real(linear, order)
            if calls["n"] == 1:
                delta = {k: np.full_like(np.asarray(d), np.nan)
                         for k, d in delta.items()}
            return delta, stats

        monkeypatch.setattr(gn, "eliminate_and_solve", poisoned)
        with obs.enabled_scope():
            result = gauss_newton(simple_graph(), initial())
            snap = obs.collector().drain()
        assert result.converged
        assert np.allclose(result.values.vector(X(0)), [3.0, -1.0])
        assert snap.counters["resilience.solver.gn_nonfinite"] == 1
        assert snap.counters["resilience.solver.gn_fallback_lm"] == 1

    def test_escalated_fault_falls_back_to_lm(self, monkeypatch):
        import importlib

        gn = importlib.import_module("repro.optim.gauss_newton")

        calls = {"n": 0}
        real = gn.eliminate_and_solve

        def faulty(linear, order):
            calls["n"] += 1
            if calls["n"] == 1:
                raise FaultInjectionError("unrecoverable value fault")
            return real(linear, order)

        monkeypatch.setattr(gn, "eliminate_and_solve", faulty)
        result = gauss_newton(simple_graph(), initial())
        assert result.converged
        assert np.allclose(result.values.vector(X(0)), [3.0, -1.0])

    def test_raise_mode_propagates_escalation(self, monkeypatch):
        import importlib

        gn = importlib.import_module("repro.optim.gauss_newton")

        def always_faulty(linear, order):
            raise FaultInjectionError("stuck-at fault")

        monkeypatch.setattr(gn, "eliminate_and_solve", always_faulty)
        params = GaussNewtonParams(on_nonfinite=NONFINITE_RAISE)
        with pytest.raises(OptimizationError, match="escalated solve"):
            gauss_newton(simple_graph(), initial(), params)

    def test_step_norm_bound_still_converges(self):
        params = GaussNewtonParams(max_step_norm=0.5)
        result = gauss_newton(simple_graph(), initial(), params)
        assert result.converged
        assert np.allclose(result.values.vector(X(0)), [3.0, -1.0])
        for record in result.iterations:
            assert record.step_norm <= 0.5 + 1e-12

    def test_wall_clock_budget_raises(self):
        params = GaussNewtonParams(max_wall_clock_s=1e-9)
        import time

        time.sleep(0.002)
        with pytest.raises(OptimizationError, match="wall-clock"):
            gauss_newton(simple_graph(), initial(), params)


class TestLevenbergSafeguards:
    def test_nan_current_iterate_raises(self):
        bad = Values({X(0): np.array([np.nan, 0.0])})
        with pytest.raises(OptimizationError, match="non-finite"):
            levenberg_marquardt(simple_graph(), bad)

    def test_nonfinite_trial_rejected_like_ascending_step(
            self, monkeypatch):
        import importlib

        lm = importlib.import_module("repro.optim.levenberg")

        calls = {"n": 0}
        real = lm.eliminate_and_solve

        def poisoned(linear, order):
            calls["n"] += 1
            delta, stats = real(linear, order)
            if calls["n"] == 1:
                delta = {k: np.full_like(np.asarray(d), np.inf)
                         for k, d in delta.items()}
            return delta, stats

        monkeypatch.setattr(lm, "eliminate_and_solve", poisoned)
        with obs.enabled_scope():
            result = levenberg_marquardt(simple_graph(), initial())
            snap = obs.collector().drain()
        assert result.converged
        assert np.allclose(result.values.vector(X(0)), [3.0, -1.0])
        assert snap.counters["resilience.solver.lm_nonfinite_trial"] == 1
        assert snap.counters["optim.lm.rejected_steps"] >= 1

    def test_escalated_fault_escalates_damping_and_recovers(
            self, monkeypatch):
        import importlib

        lm = importlib.import_module("repro.optim.levenberg")

        calls = {"n": 0}
        real = lm.eliminate_and_solve

        def faulty(linear, order):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise FaultInjectionError("transient escalation")
            return real(linear, order)

        monkeypatch.setattr(lm, "eliminate_and_solve", faulty)
        result = levenberg_marquardt(simple_graph(), initial())
        assert result.converged
        assert np.allclose(result.values.vector(X(0)), [3.0, -1.0])

    def test_wall_clock_budget_raises(self):
        params = LevenbergParams(max_wall_clock_s=1e-9)
        import time

        time.sleep(0.002)
        with pytest.raises(OptimizationError, match="wall-clock"):
            levenberg_marquardt(simple_graph(), initial(), params)

    def test_step_norm_bound_still_converges(self):
        params = LevenbergParams(max_step_norm=0.5)
        result = levenberg_marquardt(simple_graph(), initial(), params)
        assert result.converged
        assert np.allclose(result.values.vector(X(0)), [3.0, -1.0])
