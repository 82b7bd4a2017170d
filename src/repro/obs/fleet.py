"""Fleet telemetry: the labeled metric registry, sketches, exporters.

:class:`FleetRegistry` is the process's one metric store.  It answers
"what is p99 solve latency per app per executor?" across a fleet of
solves, and it also holds the observation's instrumentation counters
(``counters.incr`` in :mod:`repro.obs.core`):

- **Counters and histograms** tagged with ``app`` /
  ``executor`` / ``session`` / ``stage`` labels.  Histograms are
  :class:`QuantileSketch` instances — fixed log-spaced buckets
  (DDSketch-style), so any quantile is answered within relative error
  ``alpha`` from O(log range) integers.
- **Determinism by construction.**  A sketch is a pure function of the
  recorded value multiset: same seed ⇒ byte-identical summaries, which
  is what lets the resilience campaigns embed a ``fleet`` section in
  their BENCH documents while ``repro.obs diff --exact`` (and the CI
  ``cmp``) stay safe.  Only *wall-clock-valued* series (unit
  ``seconds``) are host-dependent; :func:`exact_view` drops exactly
  those, and count/sim-time series stay exact-gated.
- **Windowed rollups** keyed by caller-provided deterministic keys
  (a trial group, a fault rate — never wall time), for JSONL time
  series.
- **Cross-snapshot / cross-process ``merge()``** so per-experiment or
  per-worker sections aggregate into one fleet view.

Like ``trace``/``counters``, the active registry is **off by default**:
producers guard with ``reg = fleet.active()`` / ``if reg is None`` and
pay one module-global read per solve when disabled.  Activate with
:func:`enable` or the :func:`fleet_scope` context manager (fresh
registry, prior state restored); while observing (``obs.enable()``)
the collector's registry is the active one unless another already is.
Attach ambient labels with :class:`label_scope`.

Exporters: :func:`to_prometheus` (text exposition: one ``# TYPE`` per
family, counters suffixed ``_total``, histograms as cumulative
``_bucket{le=...}`` + ``_sum`` + ``_count``), validated by
:func:`parse_prometheus_text`, and :func:`series_jsonl_lines` (one JSON
line per (window, series)).
"""

from __future__ import annotations

import json
import math
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "DEFAULT_ALPHA",
    "FLEET_SCHEMA",
    "FleetRegistry",
    "KIND_COUNTER",
    "KIND_HISTOGRAM",
    "M_SOLVE_CRASH",
    "M_SOLVE_DEADLINE_HIT",
    "M_SOLVE_DEADLINE_MISS",
    "M_SOLVE_DEGRADED",
    "M_SOLVE_LATENCY",
    "M_SOLVE_SIM_LATENCY",
    "M_SOLVE_TOTAL",
    "M_SOLVE_WRONG",
    "QuantileSketch",
    "UNIT_COUNT",
    "UNIT_SECONDS",
    "UNIT_SIM_SECONDS",
    "WALLCLOCK_UNITS",
    "active",
    "disable",
    "enable",
    "exact_view",
    "fleet_scope",
    "label_scope",
    "parse_prometheus_text",
    "series_jsonl_lines",
    "to_prometheus",
    "write_prometheus",
    "write_series_jsonl",
]

FLEET_SCHEMA = "repro.obs.fleet/1"

KIND_COUNTER = "counter"
KIND_HISTOGRAM = "histogram"

# Units.  "seconds" is host wall-clock — the one nondeterministic value
# domain — and is what exact_view() filters.  "sim_seconds" is simulated
# time (cycles / clock), a deterministic function of the seed.
UNIT_COUNT = "count"
UNIT_SECONDS = "seconds"
UNIT_SIM_SECONDS = "sim_seconds"
WALLCLOCK_UNITS = (UNIT_SECONDS,)

# The SLO metric family (see repro.obs.slo).  Producers:
# - CompiledSolver: total + latency (it has no deadline and no oracle);
# - SupervisedSolver: total + latency + deadline hit/miss (armed guards
#   only) + degraded (any degradation event) — never wrong/crash, it
#   raises instead of shipping a wrong answer;
# - campaign/chaos (the oracle holders): wrong + crash, plus the
#   campaign's per-trial total/sim-latency/deadline outcomes.
M_SOLVE_TOTAL = "fleet.solve.total"
M_SOLVE_LATENCY = "fleet.solve.latency_s"
M_SOLVE_SIM_LATENCY = "fleet.solve.sim_latency_s"
M_SOLVE_DEADLINE_HIT = "fleet.solve.deadline_hit"
M_SOLVE_DEADLINE_MISS = "fleet.solve.deadline_miss"
M_SOLVE_DEGRADED = "fleet.solve.degraded"
M_SOLVE_WRONG = "fleet.solve.wrong"
M_SOLVE_CRASH = "fleet.solve.crash"

# Relative-accuracy target for the default sketch: any quantile is
# reported within 1% of the true value (one bucket width).
DEFAULT_ALPHA = 0.01


# ----------------------------------------------------------------------
# Quantile sketch
# ----------------------------------------------------------------------

class QuantileSketch:
    """Deterministic streaming quantile sketch over positive values.

    DDSketch-style: value ``v`` lands in bucket ``ceil(log_gamma(v))``
    with ``gamma = (1 + alpha) / (1 - alpha)``, so every bucket spans a
    relative width of ``2 * alpha / (1 - alpha)`` and the bucket
    midpoint answers any quantile within relative error ``alpha``.
    Values at or below :data:`MIN_TRACKABLE` (latencies can round to
    zero) collapse into a dedicated zero bucket.

    The state is a bag of integers plus exact ``sum``/``min``/``max``
    — a pure function of the recorded multiset, independent of record
    order for the buckets and counts.  ``merge`` is bucket-wise
    addition, so per-process sketches combine losslessly.
    """

    MIN_TRACKABLE = 1e-9

    __slots__ = ("alpha", "gamma", "_log_gamma", "count", "zero_count",
                 "sum", "min", "max", "buckets")

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
        self.alpha = float(alpha)
        self.gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._log_gamma = math.log(self.gamma)
        self.count = 0
        self.zero_count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def record(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"cannot sketch non-finite value {value!r}")
        if value < 0.0:
            raise ValueError(f"cannot sketch negative value {value!r}")
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value <= self.MIN_TRACKABLE:
            self.zero_count += 1
            return
        index = int(math.ceil(math.log(value) / self._log_gamma))
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def quantile(self, q: float) -> Optional[float]:
        """The value at quantile ``q`` in [0, 1]; None when empty.

        Reported as the bucket midpoint ``2 * gamma^i / (gamma + 1)``,
        which is within relative ``alpha`` of every value in the bucket.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return None
        if q == 1.0:
            return self.max
        rank = q * (self.count - 1)
        if self.zero_count and rank < self.zero_count:
            return 0.0
        cumulative = self.zero_count
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if rank < cumulative:
                return 2.0 * self.gamma ** index / (self.gamma + 1.0)
        return self.max  # pragma: no cover - defensive; q=1.0 early-outs

    def merge(self, other: "QuantileSketch") -> None:
        if abs(other.alpha - self.alpha) > 1e-12:
            raise ValueError(
                f"cannot merge sketches with alpha {self.alpha} and "
                f"{other.alpha}")
        self.count += other.count
        self.zero_count += other.zero_count
        self.sum += other.sum
        if other.min is not None:
            self.min = other.min if self.min is None \
                else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None \
                else max(self.max, other.max)
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count

    def to_dict(self) -> Dict[str, Any]:
        return {
            "alpha": self.alpha,
            "count": self.count,
            "zero_count": self.zero_count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": {str(i): self.buckets[i]
                        for i in sorted(self.buckets)},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "QuantileSketch":
        sketch = cls(alpha=float(data.get("alpha", DEFAULT_ALPHA)))
        sketch.count = int(data.get("count", 0))
        sketch.zero_count = int(data.get("zero_count", 0))
        sketch.sum = float(data.get("sum", 0.0))
        sketch.min = data.get("min")
        sketch.max = data.get("max")
        sketch.buckets = {int(k): int(v)
                          for k, v in (data.get("buckets") or {}).items()}
        return sketch


# ----------------------------------------------------------------------
# Ambient labels
# ----------------------------------------------------------------------

_labels_local = threading.local()


def _label_stack() -> List[Dict[str, str]]:
    stack = getattr(_labels_local, "stack", None)
    if stack is None:
        stack = []
        _labels_local.stack = stack
    return stack


def current_labels() -> Dict[str, str]:
    """The merged ambient label set of this thread (innermost wins)."""
    merged: Dict[str, str] = {}
    for frame in _label_stack():
        merged.update(frame)
    return merged


class label_scope:
    """Attach labels to every fleet record inside the ``with`` block.

    Per-thread and nestable; inner scopes override outer keys.  The
    campaigns use this to stamp ``app``/``session`` once per loop so
    leaf producers (``CompiledSolver``) need no label plumbing.
    """

    def __init__(self, **labels: Any):
        self._frame = {str(k): str(v) for k, v in labels.items()}

    def __enter__(self) -> "label_scope":
        _label_stack().append(self._frame)
        return self

    def __exit__(self, *exc) -> bool:
        _label_stack().pop()
        return False


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------

def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


class FleetRegistry:
    """Thread-safe labeled metric registry with windowed rollups.

    Series are keyed by ``(name, sorted labels)``; a metric *name* has
    one kind and one unit (the first registration wins, a conflicting
    re-registration raises).  ``advance_window(key)`` snapshots
    everything recorded since the previous window boundary under the
    caller's deterministic key and resets the window accumulator —
    cumulative series are unaffected.
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        self.alpha = float(alpha)
        self._lock = threading.RLock()
        self._kinds: Dict[str, str] = {}
        self._units: Dict[str, str] = {}
        self._series: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Any] = {}
        self._window: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Any] = {}
        self._windows: List[Dict[str, Any]] = []

    # -- recording -----------------------------------------------------
    def _register(self, name: str, kind: str, unit: str) -> None:
        known_kind = self._kinds.get(name)
        if known_kind is None:
            self._kinds[name] = kind
            self._units[name] = unit
            return
        if known_kind != kind or self._units[name] != unit:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{known_kind}/{self._units[name]}, not {kind}/{unit}")

    def _resolve(self, labels: Dict[str, Any]) -> Dict[str, str]:
        merged = current_labels()
        merged.update({str(k): str(v) for k, v in labels.items()})
        return merged

    def incr(self, name: str, amount: float = 1.0,
             unit: str = UNIT_COUNT, **labels: Any) -> None:
        key = (name, _label_key(self._resolve(labels)))
        with self._lock:
            self._register(name, KIND_COUNTER, unit)
            self._series[key] = self._series.get(key, 0.0) + amount
            self._window[key] = self._window.get(key, 0.0) + amount

    def observe(self, name: str, value: float,
                unit: str = UNIT_SECONDS, **labels: Any) -> None:
        key = (name, _label_key(self._resolve(labels)))
        with self._lock:
            self._register(name, KIND_HISTOGRAM, unit)
            sketch = self._series.get(key)
            if sketch is None:
                sketch = self._series[key] = QuantileSketch(self.alpha)
            sketch.record(value)
            window_sketch = self._window.get(key)
            if window_sketch is None:
                window_sketch = self._window[key] = \
                    QuantileSketch(self.alpha)
            window_sketch.record(value)

    def advance_window(self, key: str) -> None:
        """Close the current rollup window under a deterministic key."""
        with self._lock:
            series = self._window_series_locked()
            if series:
                self._windows.append({"key": str(key), "series": series})
            self._window = {}

    # -- snapshots -----------------------------------------------------
    def _entry(self, name: str, labels: Tuple[Tuple[str, str], ...],
               value: Any) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "name": name,
            "labels": dict(labels),
            "kind": self._kinds[name],
            "unit": self._units[name],
        }
        if isinstance(value, QuantileSketch):
            entry["sketch"] = value.to_dict()
        else:
            entry["value"] = value
        return entry

    def _window_series_locked(self) -> List[Dict[str, Any]]:
        return [self._entry(name, labels, self._window[(name, labels)])
                for name, labels in sorted(self._window)]

    def snapshot(self) -> Dict[str, Any]:
        """The full fleet section: cumulative series + closed windows."""
        with self._lock:
            series = [self._entry(name, labels,
                                  self._series[(name, labels)])
                      for name, labels in sorted(self._series)]
            return {
                "schema": FLEET_SCHEMA,
                "alpha": self.alpha,
                "series": series,
                "windows": [dict(w) for w in self._windows],
            }

    def drain(self) -> Dict[str, Any]:
        """:meth:`snapshot` and :meth:`clear` under one lock hold, so
        nothing recorded in between is lost."""
        with self._lock:
            section = self.snapshot()
            self.clear()
        return section

    def merge(self, section: Dict[str, Any]) -> None:
        """Fold another snapshot/process section into this registry.

        Counters add and histograms merge sketch-wise; the section's
        windows append after this registry's own.  A series of any
        other kind raises ``ValueError`` before anything is merged.
        """
        series = section.get("series", [])
        for entry in series:
            kind = entry.get("kind", KIND_COUNTER)
            if kind not in (KIND_COUNTER, KIND_HISTOGRAM):
                raise ValueError(f"fleet series {entry['name']!r} has "
                                 f"unknown kind {kind!r}")
        for entry in series:
            name = entry["name"]
            kind = entry.get("kind", KIND_COUNTER)
            unit = entry.get("unit", UNIT_COUNT)
            labels = entry.get("labels", {})
            key = (name, _label_key({str(k): str(v)
                                     for k, v in labels.items()}))
            with self._lock:
                self._register(name, kind, unit)
                if kind == KIND_HISTOGRAM:
                    sketch = self._series.get(key)
                    if sketch is None:
                        sketch = self._series[key] = \
                            QuantileSketch(self.alpha)
                    sketch.merge(QuantileSketch.from_dict(entry["sketch"]))
                else:
                    self._series[key] = \
                        self._series.get(key, 0.0) + float(entry["value"])
        windows = section.get("windows", [])
        if windows:
            with self._lock:
                self._windows.extend(dict(w) for w in windows)

    def clear(self) -> None:
        with self._lock:
            self._kinds = {}
            self._units = {}
            self._series = {}
            self._window = {}
            self._windows = []


# ----------------------------------------------------------------------
# Activation (mirrors obs.core: off by default, one global read when off)
# ----------------------------------------------------------------------

_active: Optional[FleetRegistry] = None


def active() -> Optional[FleetRegistry]:
    """The enabled registry, or None — the producer fast-path check."""
    return _active


def enable(registry: Optional[FleetRegistry] = None) -> FleetRegistry:
    """Turn fleet collection on (optionally into a caller's registry)."""
    global _active
    _active = registry if registry is not None else FleetRegistry()
    return _active


def disable() -> None:
    global _active
    _active = None


@contextmanager
def fleet_scope() -> Iterator[FleetRegistry]:
    """Enable a fresh registry inside, restore the previous one after.
    Inside an observation it takes over the SLO producers only:
    ``counters.incr`` keeps recording into the collector's registry."""
    global _active
    previous = _active
    registry = _active = FleetRegistry()
    try:
        yield registry
    finally:
        _active = previous


# ----------------------------------------------------------------------
# Exact-gate filtering
# ----------------------------------------------------------------------

def exact_view(section: Dict[str, Any]) -> Dict[str, Any]:
    """A fleet section with host wall-clock series removed.

    This is the ``diff --exact`` (and byte-determinism) view: every
    count/sim-time series must be bit-identical between same-seed
    runs; only series whose unit is in :data:`WALLCLOCK_UNITS` carry
    host timing and are excluded from the comparison.
    """
    def keep(entries: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        return [e for e in entries
                if e.get("unit") not in WALLCLOCK_UNITS]

    filtered = dict(section)
    filtered["series"] = keep(section.get("series", []))
    windows = []
    for window in section.get("windows", []):
        series = keep(window.get("series", []))
        if series:
            windows.append({"key": window.get("key"), "series": series})
    filtered["windows"] = windows
    return filtered


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def _prom_name(name: str, kind: str) -> str:
    sanitized = "repro_" + "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if kind == KIND_COUNTER and not sanitized.endswith("_total"):
        sanitized += "_total"
    return sanitized


def _prom_labels(labels: Dict[str, str],
                 extra: Optional[List[Tuple[str, str]]] = None) -> str:
    pairs = sorted(labels.items()) + list(extra or [])
    if not pairs:
        return ""
    def escape(value: str) -> str:
        return value.replace("\\", r"\\").replace('"', r'\"') \
            .replace("\n", r"\n")
    body = ",".join(f'{k}="{escape(str(v))}"' for k, v in pairs)
    return "{" + body + "}"


def _prom_number(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    as_int = int(value)
    return str(as_int) if as_int == value else repr(float(value))


def to_prometheus(section: Dict[str, Any]) -> str:
    """Render a fleet section in Prometheus text-exposition format.

    One ``# TYPE`` line per metric family; counters carry the
    ``_total`` suffix; histograms expose cumulative ``_bucket{le=...}``
    samples (log-spaced upper bounds from the sketch) plus ``_sum`` and
    ``_count``.  Only cumulative series export — windows are the JSONL
    exporter's domain.
    """
    families: Dict[str, List[Dict[str, Any]]] = {}
    kinds: Dict[str, str] = {}
    units: Dict[str, str] = {}
    for entry in section.get("series", []):
        families.setdefault(entry["name"], []).append(entry)
        kinds[entry["name"]] = entry.get("kind", KIND_COUNTER)
        units[entry["name"]] = entry.get("unit", UNIT_COUNT)

    lines: List[str] = []
    for name in sorted(families):
        kind = kinds[name]
        prom = _prom_name(name, kind)
        lines.append(f"# HELP {prom} {name} (unit: {units[name]})")
        lines.append(f"# TYPE {prom} {kind}")
        for entry in families[name]:
            labels = entry.get("labels", {})
            if kind == KIND_HISTOGRAM:
                sketch = QuantileSketch.from_dict(entry["sketch"])
                cumulative = sketch.zero_count
                if sketch.zero_count or not sketch.buckets:
                    bound = sketch.MIN_TRACKABLE
                    lines.append(
                        f"{prom}_bucket"
                        f"{_prom_labels(labels, [('le', _prom_number(bound))])}"
                        f" {cumulative}")
                for index in sorted(sketch.buckets):
                    cumulative += sketch.buckets[index]
                    bound = sketch.gamma ** index
                    lines.append(
                        f"{prom}_bucket"
                        f"{_prom_labels(labels, [('le', _prom_number(bound))])}"
                        f" {cumulative}")
                lines.append(
                    f"{prom}_bucket{_prom_labels(labels, [('le', '+Inf')])}"
                    f" {sketch.count}")
                lines.append(f"{prom}_sum{_prom_labels(labels)} "
                             f"{_prom_number(sketch.sum)}")
                lines.append(f"{prom}_count{_prom_labels(labels)} "
                             f"{sketch.count}")
            else:
                lines.append(f"{prom}{_prom_labels(labels)} "
                             f"{_prom_number(float(entry['value']))}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, Any]]:
    """Validate + parse a text exposition; the CI fleet-smoke check.

    Returns ``{family: {"type": ..., "samples": [(name, labels, value)]}}``.
    Raises ``ValueError`` on a duplicate ``# TYPE`` line, a duplicate
    series (same sample name + label set twice), a sample without a
    preceding ``# TYPE``, or an unparseable line.
    """
    families: Dict[str, Dict[str, Any]] = {}
    seen_samples = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line")
            _, _, family, kind = parts
            if family in families:
                raise ValueError(
                    f"line {lineno}: duplicate # TYPE for {family}")
            families[family] = {"type": kind, "samples": []}
            continue
        if line.startswith("#"):
            continue
        name, _, rest = line.partition("{")
        if rest:
            labels, _, value = rest.rpartition("} ")
            if not _:
                raise ValueError(f"line {lineno}: malformed sample")
        else:
            name, _, value = line.rpartition(" ")
            labels = ""
        name = name.strip()
        if not name:
            raise ValueError(f"line {lineno}: malformed sample")
        try:
            parsed = float(value)
        except ValueError:
            raise ValueError(
                f"line {lineno}: bad sample value {value!r}")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if family.endswith(suffix) and family[:-len(suffix)] in families:
                family = family[:-len(suffix)]
                break
        if family not in families:
            raise ValueError(
                f"line {lineno}: sample {name} has no # TYPE family")
        sample_key = (name, labels)
        if sample_key in seen_samples:
            raise ValueError(
                f"line {lineno}: duplicate series {name}{{{labels}}}")
        seen_samples.add(sample_key)
        families[family]["samples"].append((name, labels, parsed))
    return families


def write_prometheus(path: str, section: Dict[str, Any]) -> None:
    with open(path, "w") as fh:
        fh.write(to_prometheus(section))


# ----------------------------------------------------------------------
# JSONL time series
# ----------------------------------------------------------------------

def series_jsonl_lines(section: Dict[str, Any]) -> Iterator[str]:
    """One compact JSON line per (window, series); cumulative last.

    Window lines carry the caller's deterministic window key and its
    position; the trailing ``"window": "cumulative"`` lines are the
    whole-run totals.  Deterministic: line order follows the section's
    (already sorted) series order.
    """
    def line(window: str, index: Optional[int],
             entry: Dict[str, Any]) -> str:
        payload: Dict[str, Any] = {
            "window": window,
            "name": entry["name"],
            "kind": entry.get("kind", KIND_COUNTER),
            "unit": entry.get("unit", UNIT_COUNT),
            "labels": dict(sorted(entry.get("labels", {}).items())),
        }
        if index is not None:
            payload["index"] = index
        if "sketch" in entry:
            payload["sketch"] = entry["sketch"]
        else:
            payload["value"] = entry["value"]
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":"))

    for index, window in enumerate(section.get("windows", [])):
        for entry in window.get("series", []):
            yield line(str(window.get("key")), index, entry)
    for entry in section.get("series", []):
        yield line("cumulative", None, entry)


def write_series_jsonl(path: str, section: Dict[str, Any]) -> int:
    """Write the JSONL time series; returns the line count."""
    count = 0
    with open(path, "w") as fh:
        for text in series_jsonl_lines(section):
            fh.write(text + "\n")
            count += 1
    return count
