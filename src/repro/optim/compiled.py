"""Compiled linear-solve backend for the optimizer loops.

The reference Gauss-Newton/LM loops linearize and solve with the numpy
elimination path.  This backend instead routes each iteration's solve
through the ORIANNA compiler: the first iteration compiles the graph to
an instruction program (codegen + QR schedule + ordering search), and
every subsequent iteration *rebinds* the cached template with the fresh
linearization point — the compile-once/bind-many execution model of the
accelerator (Fig. 3), at host-software scale.

LM damping is expressed inside the factor-graph abstraction: each trial
appends per-variable :class:`~repro.factors.PriorFactor` rows anchored
at the current estimate with ``sigma = 1/sqrt(lambda)``.  At the
linearization point the prior's error is zero and its Jacobian exactly
the identity, so the damped rows are ``sqrt(lambda) * I`` with zero RHS
— the same system the reference :func:`repro.optim.levenberg.
damped_graph` builds, but structure-stable across iterations *and*
lambda trials, so every damped solve after the first is a cache hit.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.keys import Key
from repro.factorgraph.values import Values


class CompiledSolver:
    """Compile-once/bind-many linear solver for optimizer iterations.

    ``executor`` selects the value-domain backend by name
    (``"interpreter"`` or ``"fused"``); when ``None`` the process
    default applies (``REPRO_EXECUTOR`` / :func:`repro.compiler.fused.
    set_default_executor`), so CLI ``--executor`` switches reach every
    compiled solve without plumbing.

    Deadlines, chaos injection, retry and the fallback ladder live one
    layer up in :class:`~repro.resilience.supervisor.SupervisedSolver`,
    which installs them as run-loop hooks on these same executors.
    Per-instruction fault campaigns with detection and tiered recovery
    run a compiled program through :class:`~repro.resilience.executor.
    ResilientExecutor` directly.
    """

    def __init__(self, cache=None, max_entries: int = 8,
                 executor: Optional[str] = None):
        from repro.compiler.cache import CompilationCache
        from repro.compiler.fused import _validate_name

        self.cache = cache if cache is not None \
            else CompilationCache(max_entries=max_entries)
        self.executor = None if executor is None else _validate_name(executor)

    def solve(self, graph: FactorGraph, values: Values,
              ordering: Optional[Sequence[Key]] = None
              ) -> Dict[Key, np.ndarray]:
        """One linear solve: compile (or rebind) and execute."""
        from repro.compiler import fused
        from repro.obs import fleet, trace

        registry = fleet.active()
        if registry is not None:
            import time

            started = time.perf_counter()
        with trace.span("solve.compile", category="host.phase") as sp:
            hits_before = self.cache.hits
            compiled = self.cache.compile(graph, values, ordering)
            sp.set(kind="rebind" if self.cache.hits > hits_before
                   else "compile")
        executor = self.executor or fused.default_executor_name()
        with trace.span("solve.execute", category="host.phase",
                        instructions=len(compiled.program)):
            registers = fused.executor_factory(executor)().run(
                compiled.program)
        if registry is not None:
            registry.incr(fleet.M_SOLVE_TOTAL, executor=executor)
            registry.observe(fleet.M_SOLVE_LATENCY,
                             time.perf_counter() - started,
                             executor=executor)
        return compiled.extract_solution(registers)


def damped_nonlinear_graph(graph: FactorGraph, values: Values,
                           lam: float) -> FactorGraph:
    """``graph`` plus per-variable damping priors at the current estimate.

    Linearizes to exactly the ``sqrt(lambda) * I`` rows of the reference
    LM damping; the graph's *structure* is independent of ``lambda`` and
    of ``values``, which is what makes trial solves cacheable.
    """
    from repro.factorgraph.noise import Isotropic
    from repro.factors import PriorFactor

    damped = FactorGraph(list(graph.factors))
    sigma = 1.0 / float(np.sqrt(lam))
    for key in graph.keys():
        dim = values.dim(key)
        damped.add(PriorFactor(key, values.at(key), Isotropic(dim, sigma)))
    return damped
