"""Process-global tracing spans, counters, and telemetry records.

The observability substrate for the whole pipeline.  Design goals:

- **Zero cost when off.**  The collector is disabled by default;
  ``trace.span(...)`` then returns a shared no-op context manager and
  ``counters.incr(...)`` returns after a single module-global check, so
  instrumented hot paths pay essentially nothing.
- **One process-global collector.**  All layers (optimizer, compiler,
  simulator) record into the same :class:`Collector`: spans and sim
  records, and counters as series of its registry, the one metric
  store (:mod:`repro.obs.fleet`).  Callers segment the stream per
  experiment with :meth:`Collector.drain`.
- **Plain data out.**  A drained :class:`Snapshot` holds dataclasses and
  dicts only, so the exporters (:mod:`repro.obs.trace_export`,
  :mod:`repro.obs.metrics`) are pure functions over it.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.obs import fleet

__all__ = [
    "SpanRecord", "Snapshot", "Collector", "collector",
    "enable", "disable", "is_enabled", "debug_enabled", "enabled_scope",
    "trace", "counters",
]


@dataclass
class SpanRecord:
    """One completed timed span (times from ``time.perf_counter``)."""

    name: str
    category: str
    start_s: float      # seconds since the collector epoch
    duration_s: float
    args: Dict[str, Any] = field(default_factory=dict)
    thread: int = 0


@dataclass
class Snapshot:
    """A drained slice of the collector's stream."""

    spans: List[SpanRecord] = field(default_factory=list)
    # Simulation telemetry records pushed by repro.sim.engine: plain
    # dicts with policy, cycles, energy, stall counters, and
    # per-instruction timing for trace export.
    sims: List[Dict[str, Any]] = field(default_factory=list)
    # The collector's registry section: counters and any SLO series.
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def counters(self) -> Dict[str, float]:
        """Each counter of :attr:`metrics`, summed over its label sets."""
        totals: Dict[str, float] = {}
        for entry in self.metrics.get("series", ()):
            if entry["kind"] == fleet.KIND_COUNTER:
                name = entry["name"]
                totals[name] = totals.get(name, 0.0) + entry["value"]
        return totals

    def span_totals(self, category: Optional[str] = None) -> Dict[str, float]:
        """Total seconds per span name, optionally within one category."""
        totals: Dict[str, float] = {}
        for s in self.spans:
            if category is not None and s.category != category:
                continue
            totals[s.name] = totals.get(s.name, 0.0) + s.duration_s
        return totals


class Collector:
    """Accumulates spans and simulation records; counters go to
    :attr:`registry`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.epoch_s = time.perf_counter()
        self.spans: List[SpanRecord] = []
        self.sims: List[Dict[str, Any]] = []
        self.registry = fleet.FleetRegistry()

    # -- recording (called only while enabled) -------------------------
    def record_span(self, name: str, category: str, start_s: float,
                    duration_s: float, args: Dict[str, Any]) -> None:
        record = SpanRecord(
            name=name, category=category,
            start_s=start_s - self.epoch_s, duration_s=duration_s,
            args=args, thread=threading.get_ident(),
        )
        with self._lock:
            self.spans.append(record)

    def record_sim(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self.sims.append(record)

    # -- consumption ---------------------------------------------------
    def drain(self) -> Snapshot:
        """Return everything recorded since the last drain and clear it,
        the registry included."""
        with self._lock:
            snap = Snapshot(spans=self.spans, sims=self.sims,
                            metrics=self.registry.drain())
            self.spans = []
            self.sims = []
        return snap


_collector = Collector()
_enabled = False
_debug = False


def collector() -> Collector:
    """The process-global collector (meaningful only while enabled)."""
    return _collector


def enable(debug: bool = False) -> None:
    """Turn collection on; ``debug`` additionally arms the simulator's
    schedule-invariant assertions (see :mod:`repro.sim.engine`).  The
    collector's registry becomes the active fleet registry unless one
    is already active."""
    global _enabled, _debug
    if fleet.active() is None:
        fleet.enable(_collector.registry)
    _enabled = True
    _debug = bool(debug)


def disable() -> None:
    global _enabled, _debug
    if fleet.active() is _collector.registry:
        fleet.disable()
    _enabled = False
    _debug = False


def is_enabled() -> bool:
    return _enabled


def debug_enabled() -> bool:
    return _enabled and _debug


@contextmanager
def enabled_scope(debug: bool = False) -> Iterator[Collector]:
    """Enable collection inside, restore the prior state after."""
    was_enabled, was_debug = _enabled, _debug
    enable(debug=debug or was_debug)
    try:
        yield _collector
    finally:
        if was_enabled:
            enable(debug=was_debug)
        else:
            disable()


# ----------------------------------------------------------------------
# Span API
# ----------------------------------------------------------------------

class _NullSpan:
    """Shared do-nothing span handed out while collection is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("name", "category", "args", "_start")

    def __init__(self, name: str, category: str, args: Dict[str, Any]):
        self.name = name
        self.category = category
        self.args = args

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def set(self, **args) -> None:
        """Attach result arguments to the span (e.g. post-hoc deltas)."""
        self.args.update(args)

    def __exit__(self, *exc) -> bool:
        duration = time.perf_counter() - self._start
        _collector.record_span(self.name, self.category, self._start,
                               duration, self.args)
        return False


class _Trace:
    """Namespace object behind ``from repro.obs import trace``."""

    __slots__ = ()

    @staticmethod
    def span(name: str, category: str = "host", **args):
        if not _enabled:
            return _NULL_SPAN
        return _Span(name, category, args)


class _Counters:
    """Namespace object behind ``from repro.obs import counters``."""

    __slots__ = ()

    @staticmethod
    def incr(name: str, amount: float = 1.0) -> None:
        if not _enabled:
            return
        _collector.registry.incr(name, amount)


trace = _Trace()
counters = _Counters()
