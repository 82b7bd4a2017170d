"""Tests for the metrics-JSON exporter."""

import json

import pytest

from repro import obs
from repro.obs.core import Snapshot, SpanRecord
from repro.obs.fleet import FleetRegistry
from repro.obs.metrics import (
    SCHEMA,
    experiment_entry,
    load_metrics,
    metrics_document,
    simulation_summary,
    write_metrics,
)


def fake_snapshot():
    registry = FleetRegistry()
    registry.incr("compiler.cse.hits", 3.0)
    return Snapshot(
        spans=[
            SpanRecord("cse", "compiler.pass", 0.0, 0.5,
                       {"removed": 3}),
            SpanRecord("cse", "compiler.pass", 1.0, 0.25, {}),
            SpanRecord("gn.iteration", "optimizer", 0.0, 0.1, {}),
        ],
        metrics=registry.snapshot(),
        sims=[{
            "policy": "ooo",
            "total_cycles": 100,
            "energy_mj": 1.5,
            "energy": {"dynamic_mj": 1.0, "static_mj": 0.4,
                       "memory_mj": 0.1},
            "stall_counts": {"structural": 7},
            "unit_busy_cycles": {"qr": 80},
            "unit_instance_counts": {"qr": 2},
            "schedule": {0: (0.0, 5.0)},
            "instructions": {0: {"op": "qr"}},
        }],
    )


class TestSimulationSummary:
    def test_strips_per_instruction_payloads(self):
        summary = simulation_summary(fake_snapshot().sims[0])
        assert "schedule" not in summary
        assert "instructions" not in summary
        assert summary["total_cycles"] == 100
        assert summary["stall_counts"] == {"structural": 7}


class TestExperimentEntry:
    def test_collects_pass_timings_and_counters(self):
        entry = experiment_entry("F13", 2.5, fake_snapshot())
        assert entry["experiment"] == "F13"
        assert entry["elapsed_s"] == 2.5
        assert entry["pass_timings_s"] == {"cse": 0.75}
        assert entry["span_timings_s"]["gn.iteration"] == pytest.approx(0.1)
        assert entry["counters"] == {"compiler.cse.hits": 3.0}
        assert len(entry["simulations"]) == 1

    def test_registry_section_rides_along_as_fleet(self):
        snapshot = fake_snapshot()
        entry = experiment_entry("F13", 1.0, snapshot)
        assert entry["fleet"] == snapshot.metrics
        assert "fleet" not in experiment_entry("X", 0.0, Snapshot())


class TestDocument:
    def test_write_and_load_round_trip(self, tmp_path):
        path = tmp_path / "metrics.json"
        entry = experiment_entry("F13", 1.0, fake_snapshot())
        write_metrics(path, [entry], meta={"seed": 0})
        document = load_metrics(path)
        assert document["schema"] == SCHEMA
        assert document["meta"] == {"seed": 0}
        sims = document["experiments"][0]["simulations"]
        assert sims[0]["energy"]["dynamic_mj"] == 1.0

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ValueError):
            load_metrics(path)

    def test_document_is_json_serializable(self):
        document = metrics_document(
            [experiment_entry("A", 0.1, fake_snapshot())]
        )
        json.loads(json.dumps(document))


class TestLiveExport:
    def test_real_simulation_snapshot_exports(self, tmp_path):
        from tests.obs.test_trace_export import pose_chain
        from repro.sim import Simulator

        compiled = pose_chain()
        with obs.enabled_scope():
            Simulator().run(compiled.program, "inorder")
            snap = obs.collector().drain()
        path = tmp_path / "m.json"
        write_metrics(path, [experiment_entry("E", 0.0, snap)])
        document = load_metrics(path)
        sim = document["experiments"][0]["simulations"][0]
        assert sim["policy"] == "inorder"
        assert sim["total_cycles"] > 0
        assert set(sim["energy"]) == {"dynamic_mj", "static_mj",
                                      "memory_mj"}
