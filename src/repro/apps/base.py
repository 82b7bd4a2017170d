"""Robotic application scaffolding (the benchmark table, Tbl. 4).

A :class:`RoboticApplication` bundles up to three optimization-based
algorithms (localization, planning, control), each defined by a builder
that produces a factor graph + initial values for one solver iteration.
Applications compile to merged multi-algorithm programs whose instruction
streams the simulator can schedule in order or out of order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.apps.seeding import stable_seed
from repro.errors import GraphError
from repro.compiler import Program, compile_application, compile_graph
from repro.factorgraph import FactorGraph, Values
from repro.obs import trace

GraphBuilder = Callable[[np.random.Generator], Tuple[FactorGraph, Values]]

LOCALIZATION = "localization"
PLANNING = "planning"
CONTROL = "control"
ALGORITHMS = (LOCALIZATION, PLANNING, CONTROL)


@dataclass(frozen=True)
class AlgorithmSpec:
    """One optimization-based algorithm inside an application."""

    name: str
    builder: GraphBuilder
    frequency_hz: float

    def build(self, rng: np.random.Generator) -> Tuple[FactorGraph, Values]:
        graph, values = self.builder(rng)
        graph.check_values(values)
        return graph, values


class RoboticApplication:
    """A robot with multiple optimization-based algorithms (Tbl. 4 row)."""

    def __init__(self, name: str, algorithms: List[AlgorithmSpec]):
        if not algorithms:
            raise GraphError("an application needs at least one algorithm")
        self.name = name
        self._algorithms = {spec.name: spec for spec in algorithms}
        if len(self._algorithms) != len(algorithms):
            raise GraphError("duplicate algorithm names")

    @property
    def algorithm_names(self) -> List[str]:
        return list(self._algorithms)

    def spec(self, name: str) -> AlgorithmSpec:
        try:
            return self._algorithms[name]
        except KeyError:
            raise GraphError(
                f"{self.name} has no algorithm {name!r}"
            ) from None

    def frequency(self, name: str) -> float:
        return self.spec(name).frequency_hz

    # ------------------------------------------------------------------
    def build_graphs(self, seed: int,
                     algorithms: Optional[List[str]] = None
                     ) -> Dict[str, Tuple[FactorGraph, Values]]:
        """Build one solver iteration's graph for each algorithm."""
        names = algorithms or self.algorithm_names
        out = {}
        with trace.span("frame.build", category="host.phase",
                        app=self.name):
            for name in names:
                rng = np.random.default_rng(
                    stable_seed(self.name, name, seed))
                out[name] = self.spec(name).build(rng)
        return out

    def compile_algorithm(self, name: str, seed: int):
        """Compile one algorithm's iteration to a standalone program."""
        graph, values = self.build_graphs(seed, [name])[name]
        return compile_graph(graph, values, algorithm=name,
                             register_prefix=name)

    def compile_merged(self, seed: int,
                       algorithms: Optional[List[str]] = None) -> Program:
        """Compile several algorithms into one application program."""
        graphs = self.build_graphs(seed, algorithms)
        return compile_application(graphs)

    # ------------------------------------------------------------------
    # Frame-level workloads (Sec. 6.3's multi-rate streams)
    # ------------------------------------------------------------------
    def frame_composition(self, base: str = LOCALIZATION) -> Dict[str, int]:
        """Solver invocations of each algorithm per base-rate frame.

        Algorithms faster than the base rate run multiple independent
        iterations per frame (e.g. five control solves per localization
        frame at 50 vs 10 Hz); slower algorithms contribute zero here and
        are amortized by :meth:`planning_period`.
        """
        base_hz = self.frequency(base)
        composition = {}
        for name in self.algorithm_names:
            ratio = self.frequency(name) / base_hz
            composition[name] = max(0, int(round(ratio))) if ratio >= 1 \
                else 0
        composition[base] = 1
        return composition

    def planning_period(self, base: str = LOCALIZATION) -> int:
        """Base-rate frames between two planning invocations."""
        if PLANNING not in self._algorithms:
            return 1
        ratio = self.frequency(base) / self.frequency(PLANNING)
        return max(1, int(round(ratio)))

    def compile_frame(self, seed: int, include_planning: bool = False,
                      base: str = LOCALIZATION) -> Program:
        """One steady-state frame: all same-rate-or-faster algorithm
        iterations, as independent instruction streams (each solves fresh
        sensor data), plus optionally one planning invocation.

        This is the workload the Sec. 7 latency/energy comparisons run:
        coarse-grained out-of-order execution interleaves these streams.
        """
        graphs: Dict[str, Tuple[FactorGraph, Values]] = {}
        with trace.span("frame.build", category="host.phase",
                        app=self.name):
            for name, repeats in self.frame_composition(base).items():
                if name == PLANNING and not include_planning:
                    continue
                if name == PLANNING:
                    repeats = max(repeats, 1)
                for r in range(repeats):
                    rng = np.random.default_rng(
                        stable_seed(self.name, name, seed, r)
                    )
                    label = name if repeats == 1 else f"{name}#{r}"
                    graphs[label] = self.spec(name).build(rng)
        return compile_application(graphs)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RoboticApplication({self.name}: " \
               f"{', '.join(self.algorithm_names)})"
