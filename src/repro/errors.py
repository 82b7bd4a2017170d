"""Exception hierarchy for the ORIANNA reproduction.

All library-raised exceptions derive from :class:`OriannaError` so callers
can catch framework failures without swallowing unrelated bugs.
"""


class OriannaError(Exception):
    """Base class for all errors raised by this library."""


class GeometryError(OriannaError):
    """Invalid geometric quantity (non-rotation matrix, bad dimension...)."""


class GraphError(OriannaError):
    """Structural problem in a factor graph (unknown key, duplicate...)."""


class LinearizationError(OriannaError):
    """A factor failed to produce a valid linearization."""

class OptimizationError(OriannaError):
    """The nonlinear optimizer could not make progress."""


class DeadlineExceeded(OptimizationError):
    """A wall-clock deadline expired mid-solve.

    Raised by :class:`~repro.optim.safeguards.DeadlineGuard` at
    optimizer iteration, LM trial or executor step boundaries.
    Subclasses :class:`OptimizationError` so existing budget handling
    keeps working, while carrying structured context the supervised
    solve pipeline uses to decide between demotion and abort:

    - ``phase`` — which deadline tripped (``"execute"`` or
      ``"total"``);
    - ``elapsed_s`` / ``deadline_s`` — the measured and configured
      wall-clock seconds;
    - ``partial`` — progress made before the deadline (e.g. completed
      instruction groups), so callers can report how far the solve got.
    """

    def __init__(self, message: str, *, phase: str = "total",
                 elapsed_s: float = 0.0, deadline_s: float = 0.0,
                 partial=None):
        super().__init__(message)
        self.phase = phase
        self.elapsed_s = elapsed_s
        self.deadline_s = deadline_s
        self.partial = dict(partial) if partial else {}


class CompileError(OriannaError):
    """The compiler rejected an expression or factor graph."""


class ExecutionError(OriannaError):
    """The functional ISA executor hit an inconsistent program."""


class HardwareError(OriannaError):
    """Hardware generation failed (infeasible constraints, bad template)."""


class SimulationError(OriannaError):
    """The cycle-level simulator detected an inconsistency."""


class ResilienceError(OriannaError):
    """Invalid resilience configuration or campaign failure."""


class FaultInjectionError(ResilienceError):
    """An injected fault exhausted every recovery tier.

    Raised by the recovery hook when a detected fault survives
    bounded retries and checkpoint replay (or those tiers are disabled)
    and the recovery policy escalates.  The optimizer safeguards catch
    this and degrade gracefully instead of propagating corrupt values.
    """
