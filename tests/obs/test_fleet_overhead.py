"""The disabled fleet registry must be (nearly) free on producer paths.

``CompiledSolver.solve`` and the supervisor consult
:func:`repro.obs.fleet.active` once per solve; with the registry off
that is a single module-global read, mirroring the ``vtrace`` hook
contract pinned by ``tests/compiler/test_executor_overhead.py``.
"""

import time

from repro.obs import fleet


def best_of(fn, repeats=5):
    """Minimum wall time over repeats: robust to scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def producer_hot_loop(n=50_000):
    """The guarded producer pattern every instrumented solve uses."""
    for _ in range(n):
        registry = fleet.active()
        if registry is not None:  # pragma: no cover - disabled in test
            registry.incr("fleet.solve.total", executor="x")


class TestDisabledFleetOverhead:
    def test_disabled_producer_guard_is_cheap(self):
        # 50k disabled guard checks; a module-global read runs at tens
        # of nanoseconds, so even a slow CI box stays far under this.
        assert fleet.active() is None
        producer_hot_loop(1000)  # warm
        elapsed = best_of(lambda: producer_hot_loop())
        assert elapsed < 0.25, (
            f"disabled fleet guard too slow: {elapsed:.4f}s / 50k checks")

    def test_guard_stays_within_factor_of_plain_loop(self):
        # Mirrors the executor-overhead bound: the guarded loop must be
        # within a small factor of the same loop without the check.
        def plain(n=50_000):
            for _ in range(n):
                pass

        assert fleet.active() is None
        plain()
        producer_hot_loop(1000)
        baseline = best_of(plain)
        hooked = best_of(lambda: producer_hot_loop())
        assert hooked < baseline * 5.0 + 1e-2, (
            f"disabled fleet guard {hooked:.4f}s vs empty loop "
            f"{baseline:.4f}s")

    def test_enabled_work_does_not_leak_after_disable(self):
        with fleet.fleet_scope() as registry:
            registry.incr("fleet.solve.total")
        assert fleet.active() is None
        # Re-enabling yields a fresh registry, not the old series.
        with fleet.fleet_scope() as fresh:
            assert fresh.snapshot()["series"] == []
