"""Tests for the nonlinear FactorGraph and factor base machinery."""

import numpy as np
import pytest

from repro.errors import GraphError, LinearizationError
from repro.factorgraph import (
    FactorGraph,
    FunctionFactor,
    Isotropic,
    Unit,
    Values,
    X,
    Y,
    min_degree_ordering,
    numerical_jacobian,
    prior_on_vector,
)
from repro.geometry import Pose


def vector_prior(key, target, sigma=1.0):
    return prior_on_vector(key, np.asarray(target, dtype=float), sigma)


def difference_factor(k1, k2, measured):
    """x2 - x1 - measured, with analytic Jacobians."""
    measured = np.asarray(measured, dtype=float)
    dim = measured.shape[0]

    def fn(values):
        return values.vector(k2) - values.vector(k1) - measured

    def jac(values):
        return [-np.eye(dim), np.eye(dim)]

    return FunctionFactor([k1, k2], Unit(dim), fn, jac)


class TestFactorBase:
    def test_duplicate_keys_rejected(self):
        with pytest.raises(LinearizationError):
            FunctionFactor([X(0), X(0)], Unit(1), lambda v: np.zeros(1))

    def test_error_is_half_squared_norm(self):
        f = vector_prior(X(0), [0.0, 0.0])
        v = Values({X(0): np.array([3.0, 4.0])})
        assert f.error(v) == pytest.approx(12.5)

    def test_linearize_shapes(self):
        f = difference_factor(X(0), X(1), [1.0, 1.0])
        v = Values({X(0): np.zeros(2), X(1): np.zeros(2)})
        gf = f.linearize(v)
        assert gf.rows == 2
        assert np.allclose(gf.block(X(0)), -np.eye(2))
        assert np.allclose(gf.rhs, [1.0, 1.0])

    def test_linearize_validates_residual_shape(self):
        f = FunctionFactor([X(0)], Unit(2), lambda v: np.zeros(3))
        with pytest.raises(LinearizationError):
            f.linearize(Values({X(0): np.zeros(2)}))

    def test_linearize_validates_jacobian_shape(self):
        f = FunctionFactor(
            [X(0)], Unit(2), lambda v: np.zeros(2),
            lambda v: [np.zeros((2, 5))],
        )
        with pytest.raises(LinearizationError):
            f.linearize(Values({X(0): np.zeros(2)}))

    def test_linearize_validates_block_count(self):
        f = FunctionFactor(
            [X(0), X(1)], Unit(1), lambda v: np.zeros(1),
            lambda v: [np.zeros((1, 1))],
        )
        with pytest.raises(LinearizationError):
            f.linearize(Values({X(0): np.zeros(1), X(1): np.zeros(1)}))

    def test_numerical_jacobian_matches_analytic(self):
        f = difference_factor(X(0), X(1), [0.5, -0.5])
        v = Values({X(0): np.array([1.0, 2.0]), X(1): np.array([0.0, 1.0])})
        num = numerical_jacobian(f, v, X(0))
        assert np.allclose(num, -np.eye(2), atol=1e-6)

    def test_numerical_jacobian_on_pose_manifold(self):
        def fn(values):
            return values.pose(X(0)).t

        f = FunctionFactor([X(0)], Unit(3), fn)
        rng = np.random.default_rng(0)
        v = Values({X(0): Pose.random(3, rng)})
        num = numerical_jacobian(f, v, X(0))
        assert num.shape == (3, 6)
        # Translation part of the chart is additive: d t / d dt = I.
        assert np.allclose(num[:, 3:], np.eye(3), atol=1e-6)

    def test_whitening_applied(self):
        f = vector_prior(X(0), [0.0], sigma=0.1)
        gf = f.linearize(Values({X(0): np.array([1.0])}))
        assert np.allclose(gf.block(X(0)), [[10.0]])
        assert np.allclose(gf.rhs, [-10.0])


class TestFactorGraph:
    def test_add_rejects_non_factor(self):
        with pytest.raises(GraphError):
            FactorGraph().add("not a factor")

    def test_keys_and_counts(self):
        g = FactorGraph([
            vector_prior(X(0), [0.0]),
            difference_factor(X(0), X(1), [1.0]),
        ])
        assert g.keys() == [X(0), X(1)]
        assert g.variable_count() == 2
        assert len(g) == 2

    def test_factors_of(self):
        f0 = vector_prior(X(0), [0.0])
        f1 = difference_factor(X(0), X(1), [1.0])
        g = FactorGraph([f0, f1])
        assert g.factors_of(X(1)) == [f1]
        assert g.factors_of(X(0)) == [f0, f1]

    def test_check_values_missing_key(self):
        g = FactorGraph([difference_factor(X(0), X(1), [1.0])])
        with pytest.raises(GraphError):
            g.error(Values({X(0): np.zeros(1)}))

    def test_total_error(self):
        g = FactorGraph([
            vector_prior(X(0), [0.0]),
            vector_prior(X(0), [2.0]),
        ])
        v = Values({X(0): np.array([1.0])})
        assert g.error(v) == pytest.approx(1.0)

    def test_linearize_size(self):
        g = FactorGraph([
            vector_prior(X(0), [0.0, 0.0]),
            difference_factor(X(0), X(1), [1.0, 0.0]),
        ])
        v = Values({X(0): np.zeros(2), X(1): np.zeros(2)})
        linear = g.linearize(v)
        assert linear.shape() == (4, 4)

    def test_optimize_linear_chain_one_step(self):
        # Linear problem: GN converges in one iteration.
        g = FactorGraph([
            vector_prior(X(0), [0.0, 0.0], sigma=0.1),
            difference_factor(X(0), X(1), [1.0, 2.0]),
            difference_factor(X(1), X(2), [1.0, 2.0]),
        ])
        v = Values({X(i): np.zeros(2) for i in range(3)})
        result = g.optimize(v)
        assert np.allclose(result.values.vector(X(2)), [2.0, 4.0], atol=1e-8)
        assert result.converged

    def test_default_ordering_covers_all_keys(self):
        g = FactorGraph([
            vector_prior(X(0), [0.0]),
            difference_factor(X(0), Y(0), [1.0]),
        ])
        v = Values({X(0): np.zeros(1), Y(0): np.zeros(1)})
        order = min_degree_ordering(g)
        assert set(order) == {X(0), Y(0)}
        assert order == min_degree_ordering(g.linearize(v))
