"""Solver safeguards: non-finite detection, step bounds, solve budgets.

Shared by :func:`~repro.optim.gauss_newton.gauss_newton` and
:func:`~repro.optim.levenberg.levenberg_marquardt` so a corrupted
linearization (an accelerator fault, a degenerate graph, a diverging
iterate) degrades gracefully — a raised
:class:`~repro.errors.OptimizationError` or a damped fallback — instead
of silently writing NaN poses into :class:`~repro.factorgraph.values.
Values` or hanging past its deadline.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Optional

import numpy as np

from repro.errors import DeadlineExceeded, OptimizationError


def _validate_budget(name: str, value: Optional[float]) -> Optional[float]:
    """A wall-clock budget must be positive or None (no budget).

    A zero or negative budget is always a caller bug: the old behavior
    silently produced a budget that tripped on the very first check (or,
    for the guard variants, never armed), which reads like "no budget"
    at the call site but is not.
    """
    if value is None:
        return None
    value = float(value)
    if value <= 0.0 or not math.isfinite(value):
        raise ValueError(
            f"{name} must be a positive number of seconds or None "
            f"(got {value!r})"
        )
    return value


def is_finite_scalar(value: float) -> bool:
    """Whether one residual/error scalar is a usable number."""
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


def delta_is_finite(delta: Dict) -> bool:
    """Whether every entry of a stacked per-variable update is finite."""
    for d in delta.values():
        if not np.all(np.isfinite(np.asarray(d, dtype=float))):
            return False
    return True


def clip_delta(delta: Dict, norm: float,
               max_step_norm: Optional[float]) -> Dict:
    """Scale an update down to the trust bound when it overshoots.

    A bounded step cannot fix a wrong direction, but it keeps one
    corrupted or ill-conditioned solve from catapulting the iterate out
    of the basin (the classic failure mode of an undamped GN step).
    Returns ``delta`` unchanged when no bound is set or it holds.
    """
    if max_step_norm is None or norm <= max_step_norm or norm == 0.0:
        return delta
    scale = max_step_norm / norm
    return {k: np.asarray(d, dtype=float) * scale
            for k, d in delta.items()}


class SolveBudget:
    """Wall-clock budget for one optimizer invocation.

    ``check`` raises :class:`OptimizationError` once the budget is
    exhausted — called at iteration boundaries (and LM trial
    boundaries), so a diverging solve stops at a clean point instead of
    hanging indefinitely.  A ``None`` budget never trips.
    """

    def __init__(self, max_wall_clock_s: Optional[float],
                 label: str = "solve"):
        self.max_wall_clock_s = _validate_budget("max_wall_clock_s",
                                                 max_wall_clock_s)
        self.label = label
        self.started_s = time.perf_counter()

    def elapsed_s(self) -> float:
        return time.perf_counter() - self.started_s

    def remaining_s(self) -> Optional[float]:
        if self.max_wall_clock_s is None:
            return None
        return max(0.0, self.max_wall_clock_s - self.elapsed_s())

    def check(self, iteration: int) -> None:
        if self.max_wall_clock_s is None:
            return
        elapsed = self.elapsed_s()
        if elapsed > self.max_wall_clock_s:
            raise DeadlineExceeded(
                f"{self.label} exceeded its wall-clock budget "
                f"({elapsed:.3f}s > {self.max_wall_clock_s:.3f}s "
                f"at iteration {iteration})",
                phase="total", elapsed_s=elapsed,
                deadline_s=self.max_wall_clock_s,
                partial={"iteration": iteration},
            )


class DeadlineGuard:
    """Per-phase wall-clock deadlines for one supervised solve.

    Where :class:`SolveBudget` bounds a whole optimizer invocation at
    iteration boundaries, a guard bounds one *solve* at instruction-
    group boundaries, with separate deadlines for the compile/rebind
    phase, the execute phase, and the total.  The supervised executors
    (:mod:`repro.resilience.supervisor`) call :meth:`check` between
    instruction groups; campaign trials install one as their executor's
    guard so a hung scenario fails instead of hanging CI.

    ``check`` raises :class:`~repro.errors.DeadlineExceeded` carrying
    the tripped phase, the measured times, and whatever partial-progress
    mapping the caller passed — so the supervisor can decide between
    demoting down the executor ladder (an execute deadline: this rung is
    too slow) and aborting the solve (the total deadline: no time left
    on any rung).
    """

    def __init__(self, total_s: Optional[float] = None,
                 compile_s: Optional[float] = None,
                 execute_s: Optional[float] = None,
                 label: str = "solve"):
        self.total_s = _validate_budget("total_s", total_s)
        self.compile_s = _validate_budget("compile_s", compile_s)
        self.execute_s = _validate_budget("execute_s", execute_s)
        self.label = label
        self.started_s = time.perf_counter()
        self.phase: Optional[str] = None
        self._phase_started_s = self.started_s
        self._phase_deadlines = {"compile": self.compile_s,
                                 "execute": self.execute_s}

    @property
    def armed(self) -> bool:
        """Whether any deadline is configured at all."""
        return (self.total_s is not None or self.compile_s is not None
                or self.execute_s is not None)

    def elapsed_s(self) -> float:
        return time.perf_counter() - self.started_s

    def start_phase(self, phase: str) -> None:
        """Enter a deadline phase (``"compile"`` or ``"execute"``).

        The phase clock restarts on every entry, so each rung of a
        fallback ladder gets the full execute deadline for its attempt.
        """
        if phase not in self._phase_deadlines:
            raise ValueError(f"unknown deadline phase {phase!r}")
        self.phase = phase
        self._phase_started_s = time.perf_counter()

    def end_phase(self) -> None:
        self.phase = None

    def check(self, partial=None) -> None:
        """Raise :class:`DeadlineExceeded` if any armed deadline passed."""
        now = time.perf_counter()
        if self.total_s is not None:
            elapsed = now - self.started_s
            if elapsed > self.total_s:
                raise DeadlineExceeded(
                    f"{self.label} exceeded its total deadline "
                    f"({elapsed:.3f}s > {self.total_s:.3f}s)",
                    phase="total", elapsed_s=elapsed,
                    deadline_s=self.total_s, partial=partial,
                )
        if self.phase is not None:
            deadline = self._phase_deadlines[self.phase]
            if deadline is not None:
                elapsed = now - self._phase_started_s
                if elapsed > deadline:
                    raise DeadlineExceeded(
                        f"{self.label} exceeded its {self.phase} deadline "
                        f"({elapsed:.3f}s > {deadline:.3f}s)",
                        phase=self.phase, elapsed_s=elapsed,
                        deadline_s=deadline, partial=partial,
                    )


def nonfinite_error(context: str, iteration: int) -> OptimizationError:
    """The uniform error for a NaN/inf residual, Jacobian, or update."""
    return OptimizationError(
        f"non-finite {context} at iteration {iteration}; the "
        f"linearization or solve produced NaN/inf (corrupt input, "
        f"degenerate graph, or an unrecovered hardware fault)"
    )
