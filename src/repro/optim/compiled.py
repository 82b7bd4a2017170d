"""Compiled linear-solve backend for the optimizer loops.

The reference Gauss-Newton/LM loops linearize and solve with the numpy
elimination path.  This backend instead routes each iteration's solve
through the ORIANNA compiler as a *solve session*: the first solve
compiles the graph to an instruction program (codegen + QR schedule +
ordering search) and keeps it; every later solve on the same structure
rewrites only that program's value-bearing constants in place and runs
it again — the compile-once/execute-many model of the accelerator
(Fig. 3), at host-software scale.  Every compiled solve takes its
program from a session: the ``compiled`` and ``fused`` backends
directly, the ``supervised`` backend through
:class:`~repro.resilience.supervisor.SupervisedSolver`.

LM damping is expressed inside the factor-graph abstraction: each trial
appends per-variable :class:`~repro.factors.PriorFactor` rows anchored
at the current estimate with ``sigma = 1/sqrt(lambda)``.  At the
linearization point the prior's error is zero and its Jacobian exactly
the identity, so the damped rows are ``sqrt(lambda) * I`` with zero RHS
— the same system the reference :func:`repro.optim.levenberg.
damped_graph` builds, but structure-stable across iterations *and*
lambda trials, so every damped solve after the first is a refresh.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.cache import (
    BIND_EMBED,
    BIND_EXPR,
    BIND_NOISE,
    BIND_POSE_PHI,
    BIND_POSE_T,
    BIND_VECTOR,
    GraphStructure,
    _binding_value,
    _value_signature,
    factor_token,
)
from repro.compiler.isa import Opcode
from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.keys import Key
from repro.factorgraph.values import Values

# Binding specs resolved from the variables' current estimates.
_VARIABLE_SPECS = (BIND_POSE_PHI, BIND_POSE_T, BIND_VECTOR)


class CompiledSolver:
    """One solve session: compile once, then refresh and re-execute.

    The first :meth:`prepare` (which every :meth:`solve` starts with)
    compiles the graph cold with :func:`~repro.compiler.codegen.
    compile_graph` and binds the session to that program.  A later one
    *refreshes* it in place when all of these hold:

    - the ordering equals the bound one;
    - the factor list has the bound length;
    - each factor is the bound object, or a new object with the same
      :func:`~repro.compiler.cache.factor_token`;
    - every graph key's value signature is unchanged.

    A refresh rewrites the ``meta["value"]`` of each CONST bound to a
    variable estimate (``pose_phi``/``pose_t``/``vector``, shape-checked
    against the bound value) and the ``meta["values"]`` of each EMBED,
    then drops the fused constant memo.  For a new factor object it
    also re-resolves that factor's ``noise``/``expr`` constants and
    points its EMBED at the new object; a bound object's constants were
    resolved at compile and stay.  Otherwise the session compiles
    afresh: it never runs its program against a changed structure.

    The session relies on factor objects being immutable once
    constructed, and it owns its program: it rewrites the program's
    value sites between runs, never while one runs.  The one stateful
    part of a factor is a robust noise model's weight, which follows
    the last residual it whitened (IRLS); its whitening CONST is
    refreshed on every solve like a variable estimate.

    ``executor`` selects the value-domain backend by name
    (``"interpreter"`` or ``"fused"``); when ``None`` the process
    default applies (the ``REPRO_EXECUTOR`` environment variable, see
    :func:`repro.compiler.fused.default_executor_name`).

    Deadlines, chaos injection, retry and the fallback ladder live one
    layer up in :class:`~repro.resilience.supervisor.SupervisedSolver`,
    which owns a session of its own: it calls :meth:`prepare` under
    its compile deadline and runs the session's program on these same
    executors with its hooks installed.
    Per-instruction fault campaigns with detection and tiered recovery
    run a compiled program through :class:`~repro.resilience.executor.
    ResilientExecutor` directly.
    """

    def __init__(self, executor: Optional[str] = None):
        from repro.compiler.fused import _validate_name

        self.executor = None if executor is None else _validate_name(executor)
        # The session's compilation; None until the first solve.
        self.compiled = None

    def prepare(self, graph: FactorGraph, values: Values,
                ordering: Optional[Sequence[Key]] = None) -> bool:
        """Refresh the bound program for ``(graph, values)`` in place, or
        compile it cold when the structure differs or :attr:`compiled`
        is None; True on a refresh."""
        from repro.obs import trace

        with trace.span("solve.compile", category="host.phase") as sp:
            refreshed = self._refresh(graph, values, ordering)
            if not refreshed:
                self._bind(graph, values, ordering)
            sp.set(kind="refresh" if refreshed else "compile")
        return refreshed

    def solve(self, graph: FactorGraph, values: Values,
              ordering: Optional[Sequence[Key]] = None
              ) -> Dict[Key, np.ndarray]:
        """One linear solve: refresh (or compile) and execute."""
        from repro.compiler import fused
        from repro.obs import fleet, trace

        registry = fleet.active()
        if registry is not None:
            import time

            started = time.perf_counter()
        self.prepare(graph, values, ordering)
        program = self.compiled.program
        executor = self.executor or fused.default_executor_name()
        with trace.span("solve.execute", category="host.phase",
                        instructions=len(program)):
            registers = fused.executor_factory(executor)().run(program)
        if registry is not None:
            registry.incr(fleet.M_SOLVE_TOTAL, executor=executor)
            registry.observe(fleet.M_SOLVE_LATENCY,
                             time.perf_counter() - started,
                             executor=executor)
        return self.compiled.extract_solution(registers)

    def _bind(self, graph: FactorGraph, values: Values,
              ordering: Optional[Sequence[Key]]) -> None:
        """Compile ``graph`` cold and index the program's value sites."""
        from repro.compiler import codegen

        self.compiled = codegen.compile_graph(graph, values, ordering)
        self._ordering = None if ordering is None else tuple(ordering)
        self._factors = graph.factors
        self._tokens: List[Optional[Tuple]] = [None] * len(self._factors)
        self._signatures = [(k, _value_signature(values.at(k)))
                            for k in self.compiled.key_dims]
        # (meta, spec, bound shape) of each CONST every refresh
        # rewrites: variable estimates and robust whitening matrices.
        self._value_sites: List[Tuple[dict, Tuple, Tuple]] = []
        self._embeds: List[dict] = []
        # factor index -> (meta, spec) of its noise/expr CONSTs and EMBED.
        self._factor_sites: Dict[int, List[Tuple[dict, Tuple]]] = {}
        for instr in self.compiled.program.instructions:
            meta = instr.meta
            spec = meta.get("binding")
            if spec is None:
                continue
            if spec[0] in _VARIABLE_SPECS or (
                    spec[0] == BIND_NOISE and getattr(
                        self._factors[spec[1]].noise, "estimator",
                        None) is not None):
                self._value_sites.append(
                    (meta, spec, np.shape(meta["value"])))
                continue
            if instr.op is Opcode.EMBED:
                self._embeds.append(meta)
            elif spec[0] not in (BIND_NOISE, BIND_EXPR):
                continue
            self._factor_sites.setdefault(spec[1], []).append((meta, spec))

    def _token(self, index: int, values: Values) -> Tuple:
        """The bound factor's structural token (computed on first use)."""
        token = self._tokens[index]
        if token is None:
            token = factor_token(self._factors[index], values)
            self._tokens[index] = token
        return token

    def _refresh(self, graph: FactorGraph, values: Values,
                 ordering: Optional[Sequence[Key]]) -> bool:
        """Rewrite the bound program's value sites for ``(graph, values)``.

        Returns False, leaving the caller to compile afresh, when the
        session is unbound or the structure differs from the bound one.
        """
        if self.compiled is None:
            return False
        if (None if ordering is None else tuple(ordering)) != self._ordering:
            return False
        factors = graph.factors
        if len(factors) != len(self._factors):
            return False
        for key, signature in self._signatures:
            if key not in values \
                    or _value_signature(values.at(key)) != signature:
                return False
        changed = [i for i, (factor, bound) in
                   enumerate(zip(factors, self._factors))
                   if factor is not bound]
        for i in changed:
            if factor_token(factors[i], values) != self._token(i, values):
                return False

        for meta, spec, shape in self._value_sites:
            value = np.asarray(_binding_value(spec, graph, values, None),
                               dtype=float)
            if value.shape != shape:
                return False
            meta["value"] = value
        for meta in self._embeds:
            meta["values"] = values
        if changed:
            structure = GraphStructure(key=(), _graph=graph,
                                       _factor_nodes={})
            for i in changed:
                for meta, spec in self._factor_sites.get(i, ()):
                    if spec[0] == BIND_EMBED:
                        meta["factor"] = factors[i]
                    else:
                        meta["value"] = np.asarray(
                            _binding_value(spec, graph, values, structure),
                            dtype=float)
                self._factors[i] = factors[i]
        self.compiled.program._fused_const_memo = None
        return True


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
