"""Levenberg-Marquardt: Gauss-Newton with adaptive damping.

Damping is realized inside the factor-graph abstraction itself: each LM
trial adds per-variable prior rows ``sqrt(lambda) * I`` to the linear
graph, so the same QR elimination machinery solves the damped system.

The trial loop is safeguarded (see :mod:`repro.optim.safeguards`): a
trial whose update or post-step error is non-finite is rejected like
any non-descending step — the damping escalates and the solve continues
from the intact iterate.  A non-finite residual at the *current*
iterate (nothing left to damp) and an exhausted wall-clock budget raise
:class:`~repro.errors.OptimizationError` instead of hanging or
returning NaN poses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import FaultInjectionError, OptimizationError
from repro.factorgraph.elimination import solve as eliminate_and_solve
from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.keys import Key
from repro.factorgraph.linear import GaussianFactor, GaussianFactorGraph
from repro.factorgraph.ordering import min_degree_ordering
from repro.factorgraph.values import Values
from repro.obs import counters, trace
from repro.optim.gauss_newton import step_norm
from repro.optim.probes import record_iteration
from repro.optim.result import IterationRecord, OptimizationResult
from repro.optim.safeguards import (
    SolveBudget,
    clip_delta,
    delta_is_finite,
    is_finite_scalar,
    nonfinite_error,
)


@dataclass
class LevenbergParams:
    """LM damping schedule, convergence thresholds, and safeguards."""

    max_iterations: int = 50
    initial_lambda: float = 1e-4
    lambda_factor: float = 10.0
    max_lambda: float = 1e10
    min_lambda: float = 1e-12
    absolute_error_tol: float = 1e-10
    relative_error_tol: float = 1e-8
    step_tol: float = 1e-10
    # Safeguards (defaults keep healthy trajectories bit-identical).
    max_step_norm: Optional[float] = None
    max_wall_clock_s: Optional[float] = None


def damped_graph(
    linear: GaussianFactorGraph, lam: float
) -> GaussianFactorGraph:
    """Append ``sqrt(lambda) I`` prior rows for every variable."""
    damped = GaussianFactorGraph(linear.factors)
    scale = float(np.sqrt(lam))
    for key, dim in linear.key_dims().items():
        damped.add(
            GaussianFactor([key], {key: scale * np.eye(dim)}, np.zeros(dim))
        )
    return damped


def levenberg_marquardt(
    graph: FactorGraph,
    initial: Values,
    params: Optional[LevenbergParams] = None,
    ordering: Optional[Sequence[Key]] = None,
    backend: str = "reference",
) -> OptimizationResult:
    """Run LM on ``graph`` starting from ``initial``.

    ``backend="compiled"`` solves every damped trial through the ORIANNA
    compiler in one solve session (:class:`~repro.optim.compiled.
    CompiledSolver`): damping is expressed as per-variable prior factors
    at the current estimate (which linearize to exactly the
    ``sqrt(lambda) I`` rows of :func:`damped_graph`), so the damped
    graph's structure is the same for every iteration and every lambda
    trial — one compile, then in-place refreshes that also re-resolve
    the fresh damping priors' constants.  The compiled backend reports
    empty per-trial elimination stats.  ``backend="fused"`` is the
    compiled backend executed through the fused vectorized plan
    (:mod:`repro.compiler.fused`).
    ``backend="supervised"`` runs every damped trial through a
    :class:`~repro.resilience.supervisor.SupervisedSolver` with the
    default configuration — deadlines, bounded retry, and the fallback
    executor ladder.
    """
    if params is None:
        params = LevenbergParams()
    if backend not in ("reference", "compiled", "fused", "supervised"):
        raise ValueError(f"unknown levenberg_marquardt backend {backend!r}")
    solver = None
    supervised = backend == "supervised"
    if supervised:
        from repro.factorgraph.elimination import EliminationStats
        from repro.optim.compiled import damped_nonlinear_graph
        from repro.resilience.supervisor import SupervisedSolver

        solver = SupervisedSolver()
    elif backend in ("compiled", "fused"):
        from repro.factorgraph.elimination import EliminationStats
        from repro.optim.compiled import CompiledSolver, \
            damped_nonlinear_graph

        solver = CompiledSolver(
            executor="fused" if backend == "fused" else None)
    values = initial.copy()
    lam = params.initial_lambda
    records = []
    converged = False
    budget = SolveBudget(params.max_wall_clock_s, label="levenberg_marquardt")

    # The current iterate's error, once known: an accepted trial
    # already computed it as error_after, so only the initial estimate
    # is evaluated.
    error = None
    for iteration in range(params.max_iterations):
        budget.check(iteration)
        with trace.span("lm.iteration", category="optimizer",
                        iteration=iteration, backend=backend) as sp:
            error_before = graph.error(values) if error is None \
                else error
            if not is_finite_scalar(error_before):
                # The *current* iterate is already corrupt — damping
                # cannot help because there is no finite reference to
                # descend from.
                counters.incr("resilience.solver.lm_nonfinite")
                raise nonfinite_error("residual error", iteration)
            if solver is None:
                linear = graph.linearize(values)
                order = list(ordering) if ordering is not None else (
                    min_degree_ordering(linear)
                )
            else:
                order = list(ordering) if ordering is not None else None

            # Inner loop: raise lambda until a trial step reduces the
            # error.  Non-finite trials (NaN Jacobians surfacing in the
            # solve, escalated accelerator faults, steps that leave the
            # feasible region) are rejected exactly like ascending
            # steps: escalate the damping and try again.
            accepted = False
            trials = 0
            while lam <= params.max_lambda:
                budget.check(iteration)
                trials += 1
                try:
                    if solver is not None:
                        trial_graph = damped_nonlinear_graph(graph, values,
                                                             lam)
                        delta = solver.solve(trial_graph, values, order)
                        stats = EliminationStats()
                    else:
                        trial_linear = damped_graph(linear, lam)
                        trial_order = order + [
                            k for k in trial_linear.keys() if k not in order
                        ]
                        delta, stats = eliminate_and_solve(trial_linear,
                                                           trial_order)
                except FaultInjectionError:
                    counters.incr("resilience.solver.escalations")
                    counters.incr("optim.lm.rejected_steps")
                    lam *= params.lambda_factor
                    continue
                if not delta_is_finite(delta):
                    counters.incr("resilience.solver.lm_nonfinite_trial")
                    counters.incr("optim.lm.rejected_steps")
                    lam *= params.lambda_factor
                    continue
                norm = step_norm(delta)
                delta = clip_delta(delta, norm, params.max_step_norm)
                if params.max_step_norm is not None:
                    norm = min(norm, params.max_step_norm)
                trial_values = values.retract(delta)
                error_after = graph.error(trial_values)
                if not is_finite_scalar(error_after):
                    counters.incr("resilience.solver.lm_nonfinite_trial")
                    counters.incr("optim.lm.rejected_steps")
                    lam *= params.lambda_factor
                    continue
                if error_after <= error_before:
                    accepted = True
                    values, error = trial_values, error_after
                    sp.set(error_before=error_before,
                           error_after=error_after, step_norm=norm,
                           damping=lam, trials=trials)
                    record_iteration("lm", error_after, norm, damping=lam)
                    lam = max(lam / params.lambda_factor, params.min_lambda)
                    counters.incr("optim.lm.iterations")
                    records.append(
                        IterationRecord(
                            iteration, error_before, error_after, norm, stats
                        )
                    )
                    break
                counters.incr("optim.lm.rejected_steps")
                lam *= params.lambda_factor
            if not accepted:
                sp.set(error_before=error_before, accepted=False,
                       damping=lam, trials=trials)

        if not accepted:
            if not records:
                raise OptimizationError(
                    "LM could not find a descending step at any damping"
                )
            converged = True  # stuck at a (local) minimum
            break

        if error_after < params.absolute_error_tol:
            converged = True
            break
        if records[-1].step_norm < params.step_tol:
            converged = True
            break
        if error_before > 0.0:
            relative = abs(error_before - error_after) / error_before
            if relative < params.relative_error_tol:
                converged = True
                break

    report = solver.degradation_report() if supervised else None
    return OptimizationResult(values=values, converged=converged,
                              iterations=records,
                              degradation_report=report)
