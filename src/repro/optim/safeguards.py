"""Solver safeguards: non-finite detection, step bounds, deadlines.

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
from typing import Callable, Dict, Optional

import numpy as np

from repro.errors import DeadlineExceeded, OptimizationError


def _validate_budget(name: str, value: Optional[float]) -> Optional[float]:
    """A wall-clock budget must be positive or None (no budget).

    A zero or negative budget is always a caller bug: it would trip on
    the very first check, which reads like "no budget" at the call site
    but is not.
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


class DeadlineGuard:
    """Wall-clock deadlines for one solve: a total and an execute deadline.

    The optimizer loops check the total deadline (their
    ``max_wall_clock_s``) at iteration and LM trial boundaries, so a
    diverging solve stops at a clean point instead of hanging, and
    Gauss-Newton's LM fallback inherits :meth:`remaining_s`.  Executors
    check the guard installed as their ``guard`` hook after every step
    of their run loop (one instruction on the interpreter, one group on
    the fused backend): the supervisor (:mod:`repro.resilience.
    supervisor`) arms the execute deadline around each rung attempt,
    and campaign trials install a total-only guard so a hung scenario
    fails instead of hanging CI.

    ``check`` raises :class:`~repro.errors.DeadlineExceeded` carrying
    the tripped phase (``"total"`` or ``"execute"``), the measured
    times, and whatever partial-progress mapping the caller passed — so
    the supervisor can decide between demoting down the executor ladder
    (an execute deadline: this rung is too slow) and aborting the solve
    (the total deadline, which also covers compiling: no time left on
    any rung).  A guard with neither deadline never trips.  ``clock``
    reads seconds: the host's by default, a virtual one under chaos.
    """

    def __init__(self, total_s: Optional[float] = None,
                 execute_s: Optional[float] = None,
                 label: str = "solve",
                 clock: Callable[[], float] = time.perf_counter):
        self.total_s = _validate_budget("total_s", total_s)
        self.execute_s = _validate_budget("execute_s", execute_s)
        self.label = label
        self._clock = clock
        self.started_s = clock()
        self._execute_started_s: Optional[float] = None

    @property
    def armed(self) -> bool:
        """Whether any deadline is configured at all."""
        return self.total_s is not None or self.execute_s is not None

    def remaining_s(self) -> Optional[float]:
        """Seconds left before the total deadline; None without one."""
        if self.total_s is None:
            return None
        return max(0.0, self.total_s - (self._clock() - self.started_s))

    def start_execute(self) -> None:
        """Arm the execute deadline for one attempt.

        The execute clock restarts on every call, so each rung of a
        fallback ladder gets the full execute deadline for its attempt.
        """
        self._execute_started_s = self._clock()

    def end_execute(self) -> None:
        self._execute_started_s = None

    def check(self, partial=None) -> None:
        """Raise :class:`DeadlineExceeded` if an armed deadline passed."""
        now = self._clock()
        if self.total_s is not None:
            elapsed = now - self.started_s
            if elapsed > self.total_s:
                raise DeadlineExceeded(
                    f"{self.label} exceeded its total wall-clock deadline "
                    f"({elapsed:.3f}s > {self.total_s:.3f}s)",
                    phase="total", elapsed_s=elapsed,
                    deadline_s=self.total_s, partial=partial,
                )
        if self.execute_s is not None \
                and self._execute_started_s is not None:
            elapsed = now - self._execute_started_s
            if elapsed > self.execute_s:
                raise DeadlineExceeded(
                    f"{self.label} exceeded its execute deadline "
                    f"({elapsed:.3f}s > {self.execute_s:.3f}s)",
                    phase="execute", elapsed_s=elapsed,
                    deadline_s=self.execute_s, partial=partial,
                )


def nonfinite_error(context: str, iteration: int) -> OptimizationError:
    """The uniform error for a NaN/inf residual, Jacobian, or update."""
    return OptimizationError(
        f"non-finite {context} at iteration {iteration}; the "
        f"linearization or solve produced NaN/inf (corrupt input, "
        f"degenerate graph, or an unrecovered hardware fault)"
    )
