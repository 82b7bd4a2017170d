"""Variable elimination orderings.

The elimination order strongly affects fill-in during factor-graph
inference (Sec. 2.2).  Besides user-given orders, a greedy minimum-degree
heuristic over the variable adjacency graph is provided; it is the default
used by the compiler and the solver.

The orderings read only ``graph.keys()`` and each factor's ``keys``,
so they order any graph of keyed factors: a nonlinear ``FactorGraph``
orders exactly like its linearization, without linearizing.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.errors import GraphError
from repro.factorgraph.keys import Key
from repro.factorgraph.linear import GaussianFactorGraph


def natural_ordering(graph: GaussianFactorGraph) -> List[Key]:
    """Keys sorted by (symbol, index) — deterministic and human-readable.

    Landmark-style symbols sort after 'x' alphabetically only by accident,
    so this order is mostly for tests and small examples.
    """
    return sorted(graph.keys())


def adjacency(graph: GaussianFactorGraph) -> Dict[Key, Set[Key]]:
    """Variable adjacency induced by shared factors."""
    adj: Dict[Key, Set[Key]] = {k: set() for k in graph.keys()}
    for f in graph:
        ks = f.keys
        for a in ks:
            for b in ks:
                if a != b:
                    adj[a].add(b)
    return adj


def min_degree_ordering(graph: GaussianFactorGraph) -> List[Key]:
    """Greedy minimum-degree ordering with fill-in simulation.

    Repeatedly eliminates the variable with the fewest neighbors,
    connecting its remaining neighbors into a clique (the new factor added
    back in Fig. 5 creates exactly those edges).  Ties break on the key
    itself for determinism.
    """
    adj = adjacency(graph)
    remaining = set(adj)
    order: List[Key] = []
    while remaining:
        best = min(remaining, key=lambda k: (len(adj[k] & remaining), k))
        order.append(best)
        remaining.discard(best)
        neighbors = adj[best] & remaining
        for a in neighbors:
            adj[a] |= neighbors - {a}
    return order


def validate_ordering(graph: GaussianFactorGraph, ordering: Sequence[Key]) -> None:
    """Raise if an ordering does not cover the graph's keys exactly once."""
    keys = set(graph.keys())
    seen: Set[Key] = set()
    for k in ordering:
        if k in seen:
            raise GraphError(f"duplicate key {k} in ordering")
        seen.add(k)
    if seen != keys:
        missing = keys - seen
        extra = seen - keys
        raise GraphError(
            f"bad ordering: missing={sorted(map(str, missing))} "
            f"extra={sorted(map(str, extra))}"
        )
