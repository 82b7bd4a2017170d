"""Tests for the span/counter API and the process-global collector."""

import threading

from repro import obs
from repro.obs import core, counters, fleet, trace


class TestEnableDisable:
    def test_disabled_by_default(self):
        assert not obs.is_enabled()
        assert not obs.debug_enabled()

    def test_enable_disable(self):
        obs.enable()
        assert obs.is_enabled()
        assert not obs.debug_enabled()
        obs.disable()
        assert not obs.is_enabled()

    def test_debug_requires_enabled(self):
        obs.enable(debug=True)
        assert obs.debug_enabled()
        obs.disable()
        assert not obs.debug_enabled()

    def test_enabled_scope_restores_prior_state(self):
        assert not obs.is_enabled()
        with obs.enabled_scope():
            assert obs.is_enabled()
        assert not obs.is_enabled()

        obs.enable()
        with obs.enabled_scope(debug=True):
            assert obs.debug_enabled()
        assert obs.is_enabled() and not obs.debug_enabled()


class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        a = trace.span("x")
        b = trace.span("y", category="anything", arg=1)
        assert a is b  # the singleton: no allocation on the fast path
        with a as sp:
            sp.set(ignored=True)
        assert obs.collector().spans == []

    def test_enabled_span_records(self):
        obs.enable()
        with trace.span("work", category="test", tag="t") as sp:
            sp.set(result=42)
        snap = obs.collector().drain()
        assert len(snap.spans) == 1
        span = snap.spans[0]
        assert span.name == "work"
        assert span.category == "test"
        assert span.args == {"tag": "t", "result": 42}
        assert span.duration_s >= 0.0
        assert span.thread == threading.get_ident()

    def test_span_survives_exception(self):
        obs.enable()
        try:
            with trace.span("boom"):
                raise ValueError("inner")
        except ValueError:
            pass
        snap = obs.collector().drain()
        assert [s.name for s in snap.spans] == ["boom"]

    def test_span_totals_by_category(self):
        obs.enable()
        with trace.span("a", category="c1"):
            pass
        with trace.span("a", category="c1"):
            pass
        with trace.span("b", category="c2"):
            pass
        snap = obs.collector().drain()
        assert set(snap.span_totals()) == {"a", "b"}
        assert set(snap.span_totals(category="c1")) == {"a"}


class TestCounters:
    def test_disabled_incr_is_noop(self):
        counters.incr("k")
        assert obs.collector().registry.snapshot()["series"] == []
        assert obs.collector().drain().counters == {}

    def test_incr_accumulates(self):
        obs.enable()
        counters.incr("k")
        counters.incr("k", 2.5)
        snap = obs.collector().drain()
        assert snap.counters == {"k": 3.5}

    def test_concurrent_increments_and_spans_are_not_lost(self):
        # The collector and its registry each guard their state with a
        # lock; a dropped update here would mean unlocked
        # read-modify-write snuck back in.
        obs.enable()

        def worker():
            for _ in range(2000):
                counters.incr("hot")
                with trace.span("hot", category="t"):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = obs.collector().drain()
        assert snap.counters == {"hot": 8 * 2000.0}
        assert len(snap.spans) == 8 * 2000


class TestDrain:
    def test_drain_clears_everything(self):
        obs.enable()
        counters.incr("k")
        with trace.span("s"):
            pass
        obs.collector().record_sim({"policy": "ooo"})
        snap = obs.collector().drain()
        assert snap.counters and snap.spans and snap.sims
        empty = obs.collector().drain()
        assert not empty.counters and not empty.spans and not empty.sims

    def test_collector_is_process_global(self):
        assert core.collector() is obs.collector()


class TestOneMetricStore:
    """Counters are series of the observation's registry, which is also
    the active fleet registry while observing."""

    def test_incr_lands_in_the_registry_and_drain_clears_it(self):
        with obs.enabled_scope() as collector:
            with fleet.label_scope(app="A"):
                counters.incr("sim.memo.hit")
            with fleet.label_scope(app="B"):
                counters.incr("sim.memo.hit", 2.0)
            counters.incr("sim.memo.miss")
            series = collector.registry.snapshot()["series"]
            snap = collector.drain()
        assert {(e["name"], tuple(e["labels"].items())): e["value"]
                for e in series} == {
            ("sim.memo.hit", (("app", "A"),)): 1.0,
            ("sim.memo.hit", (("app", "B"),)): 2.0,
            ("sim.memo.miss", ()): 1.0,
        }
        assert snap.metrics["schema"] == fleet.FLEET_SCHEMA
        assert snap.metrics["series"] == series
        assert snap.counters == {"sim.memo.hit": 3.0, "sim.memo.miss": 1.0}
        assert obs.collector().drain().metrics["series"] == []

    def test_observation_registry_is_the_active_fleet_registry(self):
        assert fleet.active() is None
        with obs.enabled_scope() as collector:
            assert fleet.active() is collector.registry
            fleet.active().incr(fleet.M_SOLVE_TOTAL, executor="fused")
            with obs.enabled_scope(debug=True):
                assert fleet.active() is collector.registry
            assert fleet.active() is collector.registry
        assert fleet.active() is None
        assert obs.collector().drain().counters == {fleet.M_SOLVE_TOTAL: 1.0}

    def test_an_active_registry_is_left_in_place(self):
        outer = fleet.enable()
        with obs.enabled_scope():
            assert fleet.active() is outer
            counters.incr("sim.memo.hit")
        assert fleet.active() is outer
        assert outer.snapshot()["series"] == []
        assert obs.collector().drain().counters == {"sim.memo.hit": 1.0}

    def test_fleet_scope_outside_observing_records_no_counter(self):
        with fleet.fleet_scope() as registry:
            counters.incr("sim.memo.hit")
        assert registry.snapshot()["series"] == []
        assert obs.collector().drain().metrics["series"] == []

    def test_fleet_scope_inside_observation_gets_only_slo_series(self):
        with obs.enabled_scope() as collector:
            with fleet.fleet_scope() as registry:
                counters.incr("compiler.cache.hit")
                fleet.active().incr(fleet.M_SOLVE_TOTAL, executor="x")
            assert fleet.active() is collector.registry
            snap = collector.drain()
        assert [e["name"] for e in registry.snapshot()["series"]] == \
            [fleet.M_SOLVE_TOTAL]
        assert snap.counters == {"compiler.cache.hit": 1.0}
