"""Nonlinear optimization over factor graphs (Fig. 3)."""

from repro.optim.gauss_newton import (
    GaussNewtonParams,
    NONFINITE_FALLBACK,
    NONFINITE_RAISE,
    gauss_newton,
    solve_session,
    step_norm,
)
from repro.optim.levenberg import (
    LevenbergParams,
    damped_graph,
    levenberg_marquardt,
)
from repro.optim.result import IterationRecord, OptimizationResult
from repro.optim.safeguards import (
    DeadlineGuard,
    clip_delta,
    delta_is_finite,
)

__all__ = [
    "DeadlineGuard",
    "GaussNewtonParams",
    "NONFINITE_FALLBACK",
    "NONFINITE_RAISE",
    "gauss_newton",
    "solve_session",
    "step_norm",
    "LevenbergParams",
    "levenberg_marquardt",
    "damped_graph",
    "IterationRecord",
    "OptimizationResult",
    "clip_delta",
    "delta_is_finite",
]
