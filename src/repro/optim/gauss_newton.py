"""Gauss-Newton over factor graphs (the loop of Fig. 3).

Each iteration linearizes the graph at the current estimate, solves the
sparse linear system ``A delta = b`` by factor-graph inference (QR variable
elimination and back substitution), and retracts the solution onto the
variables, until the error improvement or the step norm falls below the
configured thresholds.

The loop is safeguarded (see :mod:`repro.optim.safeguards`): a
non-finite residual or update — a degenerate graph, a diverging
iterate, or an unrecovered accelerator fault escalated by the recovery
hook — never propagates into :class:`Values`.  Depending on
``GaussNewtonParams.on_nonfinite`` the solve either falls back to
Levenberg-Marquardt with escalating damping from the last finite
iterate, or raises :class:`~repro.errors.OptimizationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import FaultInjectionError
from repro.factorgraph.elimination import EliminationStats
from repro.factorgraph.elimination import solve as eliminate_and_solve
from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.keys import Key
from repro.factorgraph.ordering import min_degree_ordering
from repro.factorgraph.values import Values
from repro.obs import counters, trace
from repro.optim.probes import record_iteration
from repro.optim.result import IterationRecord, OptimizationResult
from repro.optim.safeguards import (
    DeadlineGuard,
    clip_delta,
    delta_is_finite,
    is_finite_scalar,
    nonfinite_error,
)

# Non-finite handling modes.
NONFINITE_FALLBACK = "fallback"  # degrade to LM with escalating damping
NONFINITE_RAISE = "raise"        # raise OptimizationError

# Damping the LM fallback starts from: aggressive enough that the first
# trials already regularize a near-singular system.
FALLBACK_INITIAL_LAMBDA = 1e-2

BACKENDS = ("reference", "compiled", "fused", "supervised")


@dataclass
class GaussNewtonParams:
    """Convergence thresholds and safeguards for the Fig. 3 loop."""

    max_iterations: int = 25
    absolute_error_tol: float = 1e-10
    relative_error_tol: float = 1e-8
    step_tol: float = 1e-10
    # Safeguards (None/defaults keep the classic unguarded trajectory
    # bit-identical on healthy problems).
    on_nonfinite: str = NONFINITE_FALLBACK
    max_step_norm: Optional[float] = None
    max_wall_clock_s: Optional[float] = None


def solve_session(backend: str):
    """The linear-solve session a GN or LM call runs ``backend`` on.

    ``"reference"`` has none (``None``): each iteration linearizes and
    solves with the numpy elimination path.  ``"compiled"`` is a
    :class:`~repro.optim.compiled.CompiledSolver`: its first solve
    compiles the graph through the ORIANNA compiler, and every later
    solve on the same structure refreshes that program's value-bearing
    constants in place and runs it again (compile once, execute many).
    ``"fused"`` is the same session executed through the fused
    vectorized plan (:mod:`repro.compiler.fused`), bit-identical to
    ``"compiled"``.  ``"supervised"`` is a :class:`~repro.resilience.
    supervisor.SupervisedSolver` with the default configuration
    (deadlines, retry with backoff, the fused → interpreter →
    reference fallback ladder), whose degradation report the result
    carries.  A session reports empty elimination stats: the QR shapes
    live in the compiled program, not the solver.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown solve backend {backend!r}")
    if backend == "reference":
        return None
    if backend == "supervised":
        from repro.resilience.supervisor import SupervisedSolver

        return SupervisedSolver()
    from repro.optim.compiled import CompiledSolver

    return CompiledSolver(executor="fused" if backend == "fused" else None)


def converged(params, error_before: float, error_after: float,
              norm: float) -> bool:
    """The stopping rule both loops apply after an accepted step:
    a small error, a small step, or a small relative improvement."""
    if error_after < params.absolute_error_tol or norm < params.step_tol:
        return True
    return error_before > 0.0 and abs(error_before - error_after) \
        / error_before < params.relative_error_tol


def solve_result(values: Values, done: bool, records,
                 session) -> OptimizationResult:
    """A loop's result, carrying its session's degradation report."""
    report = None if session is None else session.degradation_report()
    return OptimizationResult(values=values, converged=done,
                              iterations=records,
                              degradation_report=report)


def step_norm(delta) -> float:
    """Euclidean norm of a stacked per-variable update."""
    total = 0.0
    for d in delta.values():
        total += float(np.asarray(d) @ np.asarray(d))
    return float(np.sqrt(total))


def _lm_fallback(graph: FactorGraph, values: Values,
                 params: GaussNewtonParams, iteration: int,
                 ordering, backend: str, guard: DeadlineGuard,
                 records) -> OptimizationResult:
    """Degrade to LM with escalating damping from the last finite iterate."""
    from repro.optim.levenberg import LevenbergParams, levenberg_marquardt

    counters.incr("resilience.solver.gn_fallback_lm")
    # A fully drained deadline must still construct a *valid* LM
    # deadline (zero raises ValueError); a vanishing positive remainder
    # makes LM's first check trip instead, which is the correct
    # semantics.
    remaining = guard.remaining_s()
    if remaining is not None:
        remaining = max(remaining, 1e-9)
    lm_params = LevenbergParams(
        max_iterations=max(1, params.max_iterations - iteration),
        initial_lambda=FALLBACK_INITIAL_LAMBDA,
        absolute_error_tol=params.absolute_error_tol,
        relative_error_tol=params.relative_error_tol,
        step_tol=params.step_tol,
        max_step_norm=params.max_step_norm,
        max_wall_clock_s=remaining,
    )
    fallback = levenberg_marquardt(graph, values, lm_params,
                                   ordering=ordering, backend=backend)
    merged = list(records) + [
        IterationRecord(iteration + r.iteration, r.error_before,
                        r.error_after, r.step_norm, r.stats)
        for r in fallback.iterations
    ]
    return OptimizationResult(values=fallback.values,
                              converged=fallback.converged,
                              iterations=merged,
                              degradation_report=fallback.degradation_report)


def gauss_newton(
    graph: FactorGraph,
    initial: Values,
    params: Optional[GaussNewtonParams] = None,
    ordering: Optional[Sequence[Key]] = None,
    backend: str = "reference",
) -> OptimizationResult:
    """Run Gauss-Newton on ``graph`` starting from ``initial``.

    ``backend`` names the linear-solve session every iteration runs on
    (see :func:`solve_session`).
    """
    if params is None:
        params = GaussNewtonParams()
    if params.on_nonfinite not in (NONFINITE_FALLBACK, NONFINITE_RAISE):
        raise ValueError(
            f"unknown on_nonfinite mode {params.on_nonfinite!r}"
        )
    session = solve_session(backend)
    guard = DeadlineGuard(params.max_wall_clock_s, label="gauss_newton")
    values = initial.copy()
    records = []

    def degraded(iteration: int, context: str) -> OptimizationResult:
        counters.incr("resilience.solver.gn_nonfinite")
        if params.on_nonfinite == NONFINITE_RAISE:
            raise nonfinite_error(context, iteration)
        return _lm_fallback(graph, values, params, iteration, ordering,
                            backend, guard, records)

    # The current iterate's error, once known: an accepted step
    # already computed it as error_after, so only the initial estimate
    # is evaluated.
    error = None
    for iteration in range(params.max_iterations):
        guard.check(partial={"iteration": iteration})
        with trace.span("gn.iteration", category="optimizer",
                        iteration=iteration, backend=backend) as sp:
            error_before = graph.error(values) if error is None \
                else error
            if not is_finite_scalar(error_before):
                return degraded(iteration, "residual error")
            try:
                if session is not None:
                    delta = session.solve(graph, values, ordering)
                    stats = EliminationStats()
                else:
                    linear = graph.linearize(values)
                    order = list(ordering) if ordering is not None else (
                        min_degree_ordering(linear)
                    )
                    delta, stats = eliminate_and_solve(linear, order)
            except FaultInjectionError:
                # The recovery hook escalated an unrecoverable
                # accelerator fault out of this solve: degrade exactly
                # like a corrupt (non-finite) update.
                counters.incr("resilience.solver.escalations")
                return degraded(iteration, "escalated solve")
            if not delta_is_finite(delta):
                return degraded(iteration, "update delta")
            norm = step_norm(delta)
            delta = clip_delta(delta, norm, params.max_step_norm)
            if params.max_step_norm is not None:
                norm = min(norm, params.max_step_norm)
            trial = values.retract(delta)
            error_after = graph.error(trial)
            if not is_finite_scalar(error_after):
                # Keep the pre-step iterate: the step itself is what
                # left the feasible region.
                return degraded(iteration, "post-step residual error")
            values, error = trial, error_after
            sp.set(error_before=error_before, error_after=error_after,
                   step_norm=norm)
            record_iteration("gn", error_after, norm)
        counters.incr("optim.gn.iterations")
        records.append(
            IterationRecord(iteration, error_before, error_after, norm, stats)
        )
        if converged(params, error_before, error_after, norm):
            return solve_result(values, True, records, session)
    return solve_result(values, False, records, session)
