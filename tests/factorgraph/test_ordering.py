"""Tests for variable orderings."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.factorgraph import GaussianFactor, GaussianFactorGraph, X, Y
from repro.factorgraph.ordering import (
    adjacency,
    min_degree_ordering,
    natural_ordering,
    validate_ordering,
)


def factor(keys, rows=2, seed=0):
    rng = np.random.default_rng(seed)
    blocks = {k: rng.standard_normal((rows, 2)) for k in keys}
    return GaussianFactor(keys, blocks, rng.standard_normal(rows))


def star_graph():
    """X0 connected to Y0..Y3; leaves should be eliminated first."""
    g = GaussianFactorGraph([factor([X(0)], seed=9)])
    for j in range(4):
        g.add(factor([X(0), Y(j)], seed=j))
    return g


class TestNaturalOrdering:
    def test_sorted_by_symbol_and_index(self):
        g = GaussianFactorGraph([factor([Y(1), X(2), X(0)])])
        assert natural_ordering(g) == [X(0), X(2), Y(1)]


class TestAdjacency:
    def test_shared_factor_creates_edges(self):
        g = GaussianFactorGraph([factor([X(0), X(1)]), factor([X(1), Y(0)])])
        adj = adjacency(g)
        assert adj[X(1)] == {X(0), Y(0)}
        assert adj[X(0)] == {X(1)}

    def test_unary_factor_no_edges(self):
        g = GaussianFactorGraph([factor([X(0)])])
        assert adjacency(g)[X(0)] == set()


class TestMinDegree:
    def test_star_center_eliminated_after_most_leaves(self):
        # The degree-4 hub must wait until enough leaves are gone; with one
        # leaf left the hub ties at degree 1 and may go either way.
        order = min_degree_ordering(star_graph())
        assert order.index(X(0)) >= 3

    def test_covers_all_keys(self):
        g = star_graph()
        order = min_degree_ordering(g)
        assert set(order) == set(g.keys())

    def test_deterministic(self):
        g = star_graph()
        assert min_degree_ordering(g) == min_degree_ordering(g)

    def test_chain_produces_low_fill(self):
        g = GaussianFactorGraph(
            [factor([X(i), X(i + 1)], seed=i) for i in range(5)]
        )
        g.add(factor([X(0)], seed=99))
        order = min_degree_ordering(g)
        # A chain's min-degree order starts at an endpoint.
        assert order[0] in (X(0), X(5))


class TestValidation:
    def test_accepts_exact_cover(self):
        g = star_graph()
        validate_ordering(g, min_degree_ordering(g))  # no raise

    def test_rejects_duplicates(self):
        g = GaussianFactorGraph([factor([X(0), X(1)])])
        with pytest.raises(GraphError):
            validate_ordering(g, [X(0), X(0), X(1)])

    def test_rejects_missing(self):
        g = GaussianFactorGraph([factor([X(0), X(1)])])
        with pytest.raises(GraphError):
            validate_ordering(g, [X(0)])

    def test_rejects_extra(self):
        g = GaussianFactorGraph([factor([X(0)])])
        with pytest.raises(GraphError):
            validate_ordering(g, [X(0), Y(5)])


class TestNonlinearGraphs:
    """The compiler orders a nonlinear graph without linearizing it."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_app_graphs_order_like_their_linearizations(self, seed):
        from repro.apps import all_applications

        checked = 0
        for app in all_applications():
            for name, (graph, values) in app.build_graphs(seed).items():
                assert min_degree_ordering(graph) == min_degree_ordering(
                    graph.linearize(values)), f"{app.name}/{name}"
                checked += 1
        assert checked == 12
