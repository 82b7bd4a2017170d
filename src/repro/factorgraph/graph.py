"""The nonlinear factor graph — the user-facing programming model (Sec. 5.1).

Users build applications by gradually adding factors to an initially empty
graph, exactly as in the paper's localization example::

    graph = FactorGraph()
    graph.add(CameraFactor(x1, y1, m1))
    graph.add(IMUFactor(x1, x2, m4))
    graph.add(PriorFactor(x1, p1))
    result = graph.optimize(initial_values)

``optimize`` runs Gauss-Newton (or Levenberg-Marquardt) where each linear
solve is a factor-graph inference: QR variable elimination plus back
substitution, exploiting the sparsity structure of the graph.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.errors import GraphError
from repro.factorgraph.factor import Factor
from repro.factorgraph.keys import Key
from repro.factorgraph.linear import GaussianFactorGraph
from repro.factorgraph.values import Values


class FactorGraph:
    """A bipartite graph of variable nodes and factor nodes (Sec. 2.2)."""

    def __init__(self, factors: Sequence[Factor] = ()):
        self._factors: List[Factor] = []
        for f in factors:
            self.add(f)

    def add(self, factor: Factor) -> None:
        """Add a factor node (variable nodes are implied by its keys)."""
        if not isinstance(factor, Factor):
            raise GraphError(f"expected a Factor, got {type(factor).__name__}")
        self._factors.append(factor)

    def extend(self, factors: Sequence[Factor]) -> None:
        for f in factors:
            self.add(f)

    @property
    def factors(self) -> List[Factor]:
        """A copy of the factor list; index one with :meth:`factor`."""
        return list(self._factors)

    def factor(self, index: int) -> Factor:
        """The ``index``-th factor, without copying the list."""
        return self._factors[index]

    def __len__(self) -> int:
        return len(self._factors)

    def __iter__(self):
        return iter(self._factors)

    def keys(self) -> List[Key]:
        seen: Dict[Key, None] = {}
        for f in self._factors:
            for k in f.keys:
                seen.setdefault(k, None)
        return list(seen)

    def variable_count(self) -> int:
        return len(self.keys())

    def factors_of(self, key: Key) -> List[Factor]:
        """All factor nodes adjacent to a variable node."""
        return [f for f in self._factors if key in f.keys]

    def check_values(self, values: Values) -> None:
        """Verify an assignment covers every variable in the graph."""
        missing: Set[Key] = {k for k in self.keys() if k not in values}
        if missing:
            raise GraphError(
                f"values missing keys: {sorted(map(str, missing))}"
            )

    # ------------------------------------------------------------------
    # Objective and linearization
    # ------------------------------------------------------------------
    def error(self, values: Values) -> float:
        """Total objective ``0.5 sum ||W_i f_i(x)||^2`` (Equ. 1)."""
        self.check_values(values)
        return sum(f.error(values) for f in self._factors)

    def linearize(self, values: Values) -> GaussianFactorGraph:
        """Construct the linear system ``A delta = b`` at the estimate."""
        self.check_values(values)
        return GaussianFactorGraph(f.linearize(values) for f in self._factors)

    # ------------------------------------------------------------------
    # Optimization entry point (Sec. 5.1's graph.optimize())
    # ------------------------------------------------------------------
    def optimize(
        self,
        initial: Values,
        params: Optional["GaussNewtonParams"] = None,
        ordering: Optional[Sequence[Key]] = None,
    ) -> "OptimizationResult":
        """Solve the nonlinear problem with Gauss-Newton (Fig. 3)."""
        from repro.optim.gauss_newton import GaussNewtonParams, gauss_newton

        if params is None:
            params = GaussNewtonParams()
        return gauss_newton(self, initial, params, ordering=ordering)

    def __repr__(self) -> str:  # pragma: no cover
        return f"FactorGraph({len(self._factors)} factors, " \
               f"{self.variable_count()} variables)"
