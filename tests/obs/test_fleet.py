"""Fleet telemetry: sketches, the labeled registry, and exporters."""

import json
import threading

import numpy as np
import pytest

from repro.obs import fleet
from repro.obs.fleet import (
    FleetRegistry,
    QuantileSketch,
    exact_view,
    label_scope,
    parse_prometheus_text,
    series_jsonl_lines,
    to_prometheus,
    write_series_jsonl,
)


class TestQuantileSketch:
    def test_quantiles_within_one_bucket_of_exact(self):
        # The DDSketch guarantee: every reported quantile is within
        # relative alpha of the true order statistic.  Log-uniform
        # values stress many buckets.
        rng = np.random.default_rng(7)
        values = np.exp(rng.uniform(np.log(1e-4), np.log(10.0), 5000))
        sketch = QuantileSketch(alpha=0.01)
        for v in values:
            sketch.record(float(v))
        for q in (0.50, 0.95, 0.99):
            exact = float(np.quantile(values, q, method="lower"))
            got = sketch.quantile(q)
            assert abs(got - exact) <= 0.0101 * exact + 1e-12, (
                f"q={q}: sketch {got} vs exact {exact}")

    def test_extremes_are_exact(self):
        sketch = QuantileSketch()
        for v in (0.5, 3.0, 0.125):
            sketch.record(v)
        assert sketch.quantile(1.0) == 3.0
        assert sketch.min == 0.125
        assert sketch.count == 3
        assert sketch.sum == pytest.approx(3.625)

    def test_zero_and_subtrackable_values(self):
        sketch = QuantileSketch()
        sketch.record(0.0)
        sketch.record(1e-12)
        sketch.record(1.0)
        assert sketch.zero_count == 2
        assert sketch.quantile(0.0) == 0.0
        assert sketch.quantile(1.0) == 1.0

    def test_rejects_bad_values(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.record(float("nan"))
        with pytest.raises(ValueError):
            sketch.record(float("inf"))
        with pytest.raises(ValueError):
            sketch.record(-1.0)
        with pytest.raises(ValueError):
            QuantileSketch(alpha=1.5)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)

    def test_empty_sketch_has_no_quantiles(self):
        assert QuantileSketch().quantile(0.5) is None

    def test_merge_equals_recording_everything(self):
        rng = np.random.default_rng(3)
        a_vals = rng.uniform(0.001, 5.0, 300)
        b_vals = rng.uniform(0.01, 50.0, 200)
        a, b, both = QuantileSketch(), QuantileSketch(), QuantileSketch()
        for v in a_vals:
            a.record(v)
            both.record(v)
        for v in b_vals:
            b.record(v)
            both.record(v)
        a.merge(b)
        merged, direct = a.to_dict(), both.to_dict()
        # The float sum differs only in addition order.
        assert merged.pop("sum") == pytest.approx(direct.pop("sum"))
        assert merged == direct

    def test_merge_rejects_mismatched_alpha(self):
        with pytest.raises(ValueError):
            QuantileSketch(alpha=0.01).merge(QuantileSketch(alpha=0.02))

    def test_serialization_is_order_independent_and_byte_stable(self):
        # Same value multiset in different orders must serialize to the
        # same bytes — the property the CI byte-determinism gates lean
        # on.
        values = [0.004, 2.5, 0.3, 2.5, 17.0, 0.0003]
        fwd, rev = QuantileSketch(), QuantileSketch()
        for v in values:
            fwd.record(v)
        for v in reversed(values):
            rev.record(v)
        assert json.dumps(fwd.to_dict(), sort_keys=True) == \
            json.dumps(rev.to_dict(), sort_keys=True)

    def test_round_trips_through_dict(self):
        sketch = QuantileSketch()
        for v in (0.1, 0.2, 3.0):
            sketch.record(v)
        clone = QuantileSketch.from_dict(
            json.loads(json.dumps(sketch.to_dict())))
        assert clone.to_dict() == sketch.to_dict()
        assert clone.quantile(0.5) == sketch.quantile(0.5)


class TestFleetRegistry:
    def test_counters_accumulate_per_label_set(self):
        reg = FleetRegistry()
        reg.incr("fleet.solve.total", app="A")
        reg.incr("fleet.solve.total", app="A")
        reg.incr("fleet.solve.total", app="B")
        snap = reg.snapshot()
        values = {tuple(sorted(e["labels"].items())): e["value"]
                  for e in snap["series"]}
        assert values[(("app", "A"),)] == 2.0
        assert values[(("app", "B"),)] == 1.0

    def test_ambient_label_scope_applies_and_nests(self):
        reg = FleetRegistry()
        with label_scope(session="s", app="outer"):
            with label_scope(app="inner"):
                reg.incr("fleet.solve.total")
            reg.incr("fleet.solve.total", executor="x")
        labels = [e["labels"] for e in reg.snapshot()["series"]]
        assert {"app": "inner", "session": "s"} in labels
        assert {"app": "outer", "session": "s", "executor": "x"} in labels

    def test_explicit_labels_beat_ambient(self):
        reg = FleetRegistry()
        with label_scope(app="ambient"):
            reg.incr("fleet.solve.total", app="explicit")
        (entry,) = reg.snapshot()["series"]
        assert entry["labels"] == {"app": "explicit"}

    def test_kind_conflict_raises(self):
        reg = FleetRegistry()
        reg.incr("m")
        with pytest.raises(ValueError):
            reg.observe("m", 1.0)
        with pytest.raises(ValueError):
            reg.incr("m", unit="seconds")

    def test_windows_roll_up_and_reset(self):
        reg = FleetRegistry()
        reg.incr("n")
        reg.advance_window("w0")
        reg.incr("n")
        reg.incr("n")
        reg.advance_window("w1")
        reg.advance_window("empty-is-dropped")
        snap = reg.snapshot()
        assert [w["key"] for w in snap["windows"]] == ["w0", "w1"]
        assert snap["windows"][0]["series"][0]["value"] == 1.0
        assert snap["windows"][1]["series"][0]["value"] == 2.0
        # The cumulative series is unaffected by window boundaries.
        assert snap["series"][0]["value"] == 3.0

    def test_merge_sections_adds_counters_and_merges_sketches(self):
        a, b = FleetRegistry(), FleetRegistry()
        a.incr("n", app="X")
        a.observe("lat", 0.5, app="X")
        b.incr("n", app="X", amount=2.0)
        b.observe("lat", 1.5, app="X")
        b.advance_window("bw")
        a.merge(b.snapshot())
        snap = a.snapshot()
        by_name = {e["name"]: e for e in snap["series"]}
        assert by_name["n"]["value"] == 3.0
        assert by_name["lat"]["sketch"]["count"] == 2
        assert [w["key"] for w in snap["windows"]] == ["bw"]

    def test_merge_rejects_unknown_kind(self):
        reg = FleetRegistry()
        reg.incr("n")
        before = reg.snapshot()
        section = {"series": [
            {"name": "n", "kind": "counter", "unit": "count",
             "labels": {}, "value": 2.0},
            {"name": "depth", "kind": "gauge", "unit": "count",
             "labels": {}, "value": 3.0},
        ]}
        with pytest.raises(ValueError, match="'depth' has unknown kind"):
            reg.merge(section)
        assert reg.snapshot() == before

    def test_merged_registry_equals_single_registry(self):
        # Cross-process aggregation: two half snapshots merged into a
        # fresh registry serialize identically to one registry that saw
        # every event — determinism across process splits.
        one = FleetRegistry()
        left, right = FleetRegistry(), FleetRegistry()
        for i in range(40):
            target = left if i % 2 else right
            target.incr("n", app=f"A{i % 3}")
            target.observe("lat", 0.25 * (i + 1), app=f"A{i % 3}")
            one.incr("n", app=f"A{i % 3}")
            one.observe("lat", 0.25 * (i + 1), app=f"A{i % 3}")
        merged = FleetRegistry()
        merged.merge(left.snapshot())
        merged.merge(right.snapshot())
        assert json.dumps(merged.snapshot(), sort_keys=True) == \
            json.dumps(one.snapshot(), sort_keys=True)

    def test_concurrent_increments_do_not_lose_updates(self):
        reg = FleetRegistry()
        threads = [
            threading.Thread(target=lambda: [
                reg.incr("n", app="X") for _ in range(2000)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        (entry,) = reg.snapshot()["series"]
        assert entry["value"] == 8 * 2000

    def test_clear_resets_everything(self):
        reg = FleetRegistry()
        reg.incr("n")
        reg.advance_window("w")
        reg.clear()
        snap = reg.snapshot()
        assert snap["series"] == [] and snap["windows"] == []
        # The name is free to re-register with a different kind now.
        reg.observe("n", 1.0)


class TestActivation:
    def test_off_by_default(self):
        assert fleet.active() is None

    def test_scope_restores_previous_state(self):
        outer = fleet.enable()
        with fleet.fleet_scope() as inner:
            assert fleet.active() is inner
            assert inner is not outer
        assert fleet.active() is outer
        fleet.disable()
        assert fleet.active() is None


class TestExactView:
    def test_drops_only_wallclock_unit_series(self):
        reg = FleetRegistry()
        reg.incr("n", app="X")
        reg.observe("wall", 0.1, unit=fleet.UNIT_SECONDS, app="X")
        reg.observe("sim", 0.1, unit=fleet.UNIT_SIM_SECONDS, app="X")
        reg.advance_window("w")
        view = exact_view(reg.snapshot())
        names = {e["name"] for e in view["series"]}
        assert names == {"n", "sim"}
        window_names = {e["name"]
                        for w in view["windows"] for e in w["series"]}
        assert "wall" not in window_names

    def test_windows_left_with_no_series_are_dropped(self):
        reg = FleetRegistry()
        reg.observe("wall", 0.1, unit=fleet.UNIT_SECONDS)
        reg.advance_window("only-wallclock")
        assert exact_view(reg.snapshot())["windows"] == []


def populated_registry():
    reg = FleetRegistry()
    with label_scope(session="t"):
        for app in ("A", "B"):
            reg.incr("fleet.solve.total", app=app, executor="fused")
            reg.observe("fleet.solve.latency_s", 0.002, app=app,
                        executor="fused")
        reg.advance_window("w0")
    return reg


class TestPrometheusExport:
    def test_exposition_parses_and_is_well_formed(self):
        text = to_prometheus(populated_registry().snapshot())
        families = parse_prometheus_text(text)
        # The counter family keeps one _total suffix (the metric name
        # already ends in .total; no double suffixing).
        assert "repro_fleet_solve_total" in families
        assert families["repro_fleet_solve_total"]["type"] == "counter"
        hist = families["repro_fleet_solve_latency_s"]
        assert hist["type"] == "histogram"
        suffixes = {name.rsplit("_", 1)[-1]
                    for name, _, _ in hist["samples"]}
        assert {"bucket", "sum", "count"} <= suffixes

    def test_histogram_buckets_are_cumulative_to_count(self):
        text = to_prometheus(populated_registry().snapshot())
        families = parse_prometheus_text(text)
        samples = families["repro_fleet_solve_latency_s"]["samples"]
        for labels in {lb for name, lb, _ in samples
                       if name.endswith("_count")}:
            count = next(v for n, lb, v in samples
                         if n.endswith("_count") and lb == labels)
            inf_bucket = next(
                v for n, lb, v in samples if n.endswith("_bucket")
                and lb.startswith(labels.rsplit(",", 1)[0])
                and 'le="+Inf"' in lb)
            assert inf_bucket == count

    def test_parser_rejects_duplicate_type(self):
        with pytest.raises(ValueError, match="duplicate # TYPE"):
            parse_prometheus_text(
                "# TYPE a counter\n# TYPE a counter\na 1\n")

    def test_parser_rejects_duplicate_series(self):
        with pytest.raises(ValueError, match="duplicate series"):
            parse_prometheus_text(
                '# TYPE a counter\na{x="1"} 1\na{x="1"} 2\n')

    def test_parser_rejects_orphan_sample(self):
        with pytest.raises(ValueError, match="no # TYPE"):
            parse_prometheus_text("orphan 1\n")

    def test_parser_rejects_bad_value(self):
        with pytest.raises(ValueError, match="bad sample value"):
            parse_prometheus_text("# TYPE a counter\na one\n")

    def test_empty_section_renders_empty(self):
        assert to_prometheus({"series": []}) == ""


class TestJsonlExport:
    def test_lines_cover_windows_then_cumulative(self, tmp_path):
        section = populated_registry().snapshot()
        path = tmp_path / "fleet.jsonl"
        count = write_series_jsonl(path, section)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == count
        windows = [ln for ln in lines if ln["window"] != "cumulative"]
        cumulative = [ln for ln in lines if ln["window"] == "cumulative"]
        assert windows and cumulative
        assert all(ln["window"] == "w0" and ln["index"] == 0
                   for ln in windows)
        assert len(cumulative) == len(section["series"])

    def test_lines_are_deterministic(self):
        a = list(series_jsonl_lines(populated_registry().snapshot()))
        b = list(series_jsonl_lines(populated_registry().snapshot()))
        assert a == b
