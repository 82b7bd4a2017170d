"""Tests for the Chrome ``trace_event`` exporter."""

import json

import numpy as np
import pytest

from repro import obs
from repro.obs.trace_export import (
    assign_unit_instances,
    chrome_trace,
    host_span_events,
    sim_trace_events,
    write_chrome_trace,
)
from repro.compiler import compile_graph
from repro.factorgraph import FactorGraph, Isotropic, Values, X
from repro.factors import BetweenFactor, PriorFactor
from repro.geometry import Pose
from repro.sim import Simulator


def pose_chain(n=5, seed=0):
    rng = np.random.default_rng(seed)
    graph = FactorGraph([PriorFactor(X(0), Pose.identity(3),
                                     Isotropic(6, 1e-2))])
    values = Values({X(0): Pose.identity(3)})
    for i in range(n - 1):
        graph.add(BetweenFactor(X(i + 1), X(i),
                                Pose.random(3, rng, scale=0.3)))
        values.insert(X(i + 1), Pose.random(3, rng))
    return compile_graph(graph, values)


@pytest.fixture
def snapshot():
    compiled = pose_chain()
    with obs.enabled_scope():
        with obs.trace.span("experiment.test", category="eval"):
            Simulator().run(compiled.program, "ooo")
        return obs.collector().drain()


class TestAssignUnitInstances:
    def test_serial_intervals_share_one_instance(self):
        intervals = [(0.0, 2.0, 0), (2.0, 4.0, 1), (4.0, 5.0, 2)]
        assignment = assign_unit_instances(intervals, 2)
        assert set(assignment.values()) == {0}

    def test_overlapping_intervals_spread_across_instances(self):
        intervals = [(0.0, 4.0, 0), (1.0, 5.0, 1), (2.0, 3.0, 2)]
        assignment = assign_unit_instances(intervals, 3)
        assert len(set(assignment.values())) == 3
        assert max(assignment.values()) <= 2

    def test_oversubscription_spills_instead_of_failing(self):
        intervals = [(0.0, 4.0, 0), (0.0, 4.0, 1)]
        assignment = assign_unit_instances(intervals, 1)
        assert sorted(assignment.values()) == [0, 1]  # spill track


class TestChromeTrace:
    def test_events_are_valid_trace_event_objects(self, snapshot):
        document = chrome_trace(snapshot)
        events = document["traceEvents"]
        assert events
        for event in events:
            assert {"ph", "pid", "name"} <= set(event)
            if event["ph"] == "X":
                assert event["ts"] >= 0.0
                assert event["dur"] >= 0.0
                assert isinstance(event["tid"], int)

    def test_one_track_per_unit_instance(self, snapshot):
        record = snapshot.sims[0]
        events = sim_trace_events(record, pid=100)
        names = [e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        # Track labels are unit[k] with k below the configured count,
        # plus the single async "waits" track.
        counts = record["unit_instance_counts"]
        unit_names = [n for n in names if n != "waits"]
        assert unit_names
        for label in unit_names:
            unit, idx = label[:-1].split("[")
            assert int(idx) < counts[unit]
        assert len(names) == len(set(names))

    def test_instruction_events_carry_phase_and_cycles(self, snapshot):
        events = sim_trace_events(snapshot.sims[0], pid=100)
        slices = [e for e in events if e["ph"] == "X"]
        issued = snapshot.sims[0]["issued_count"]
        assert len(slices) == issued
        for event in slices:
            assert event["cat"].startswith("sim.")
            assert event["args"]["cycles"] >= 0

    def test_host_spans_become_host_tracks(self, snapshot):
        events = host_span_events(snapshot)
        process = [e for e in events if e["ph"] == "M"
                   and e["name"] == "process_name"]
        assert process and process[0]["args"]["name"] == "host"
        slices = [e for e in events if e["ph"] == "X"]
        assert any(e["name"] == "experiment.test" for e in slices)

    def test_write_round_trips_through_json(self, snapshot, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, snapshot)
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]
        assert loaded["otherData"]["generator"] == "repro.obs"

    def test_empty_snapshot_still_valid(self):
        document = chrome_trace(obs.Snapshot())
        assert document["traceEvents"] == []
        json.dumps(document)

    def test_instruction_events_carry_provenance_args(self, snapshot):
        events = sim_trace_events(snapshot.sims[0], pid=100)
        slices = [e for e in events if e["ph"] == "X"]
        tagged = [e for e in slices if "prov.stage" in e["args"]]
        assert tagged, "expected provenance args on sim slices"
        stages = {e["args"]["prov.stage"] for e in tagged}
        assert "eliminate" in stages
        assert any("prov.factors" in e["args"] for e in tagged)

    def test_wait_track_pairs_async_events_with_cause_args(self, snapshot):
        record = snapshot.sims[0]
        events = sim_trace_events(record, pid=100)
        begins = [e for e in events
                  if e.get("cat") == "sim.wait" and e["ph"] == "b"]
        ends = [e for e in events
                if e.get("cat") == "sim.wait" and e["ph"] == "e"]
        assert begins, "expected wait slices on a contended schedule"
        assert {e["id"] for e in begins} == {e["id"] for e in ends}
        waits = record["waits"]
        for event in begins:
            assert event["args"]["uid"] == event["id"]
            info = waits[str(event["id"])]
            assert event["args"]["wait_cycles"] == pytest.approx(
                info["wait"])
            cause_total = sum(v for k, v in event["args"].items()
                              if k.startswith("cause."))
            assert cause_total == pytest.approx(info["wait"], abs=1e-2)

    def test_wait_slices_only_for_positive_waits(self, snapshot):
        record = snapshot.sims[0]
        events = sim_trace_events(record, pid=100)
        begins = {e["id"] for e in events
                  if e.get("cat") == "sim.wait" and e["ph"] == "b"}
        for uid, info in record["waits"].items():
            expected = info["wait"] > 0
            assert (int(uid) in begins) == expected


class TestSchedulelessRecords:
    """A record without a schedule must yield a valid, empty trace."""

    def _record(self, **overrides):
        record = {
            "label": "bare", "policy": "ooo", "clock_mhz": 200.0,
            "unit_instance_counts": {"qr": 1},
        }
        record.update(overrides)
        return record

    def test_missing_schedule_key(self):
        events = sim_trace_events(self._record(), pid=100)
        assert all(e["ph"] == "M" for e in events)
        json.dumps(events)

    def test_empty_schedule(self):
        events = sim_trace_events(
            self._record(schedule={}, instructions={}), pid=100)
        assert all(e["ph"] == "M" for e in events)

    def test_schedule_none(self):
        events = sim_trace_events(
            self._record(schedule=None, instructions=None), pid=100)
        assert all(e["ph"] == "M" for e in events)

    def test_snapshot_without_schedules_round_trips(self, tmp_path):
        snapshot = obs.Snapshot(sims=[self._record()])
        path = tmp_path / "trace.json"
        write_chrome_trace(path, snapshot)
        loaded = json.loads(path.read_text())
        assert all(e["ph"] == "M" for e in loaded["traceEvents"])

    def test_unscheduled_run_exports_cleanly(self, tmp_path):
        """A run while not observing records no sim record and builds no
        schedule; the empty snapshot still exports."""
        compiled = pose_chain()
        result = Simulator().run(compiled.program, "ooo")
        assert "schedule" not in vars(result)
        snapshot = obs.collector().drain()
        assert snapshot.sims == []
        document = chrome_trace(snapshot)
        json.dumps(document)
