"""Tests for first-divergence forensics (:mod:`repro.obs.divergence`)."""

import json

import numpy as np
import pytest

from repro.compiler.executor import Executor
from repro.compiler.isa import Opcode, Program
from repro.obs import vtrace
from repro.obs.__main__ import main as obs_main
from repro.obs.divergence import (
    backward_slice,
    error_stats,
    find_divergence,
    load_trace,
    record_app_trace,
    render_divergence,
    rerecord_window,
    ulp_distance,
)

FAULT = {"fault_model": "value", "rate": 0.01, "seed": 3,
         "magnitude": 0.5, "max_faults": 1}


def chain_program(n=8, value=1.5):
    program = Program()
    reg = program.new_register("r", (2,))
    program.emit(Opcode.CONST, [], [reg],
                 meta={"value": np.full(2, value)})
    for _ in range(n - 1):
        nxt = program.new_register("r", (2,))
        program.emit(Opcode.COPY, [reg], [nxt])
        reg = nxt
    return program


def trace_run(program, path, executor=None, **kwargs):
    with vtrace.recording_scope(path, **kwargs):
        (executor or Executor()).run(program)
    return load_trace(path)


class TestErrorStats:
    def test_identical_values(self):
        s = error_stats(np.ones(4), np.ones(4))
        assert s["differing"] == 0
        assert s["max_abs"] == s["max_rel"] == s["max_ulp"] == 0.0

    def test_magnitudes(self):
        s = error_stats(np.array([1.0, 2.0]), np.array([1.0, 2.5]))
        assert s["differing"] == 1
        assert s["max_abs"] == pytest.approx(0.5)
        assert s["max_rel"] == pytest.approx(0.2)
        assert s["max_ulp"] > 0

    def test_shape_mismatch(self):
        s = error_stats(np.ones((2, 3)), np.ones((3, 2)))
        assert s == {"shape_a": [2, 3], "shape_b": [3, 2]}

    def test_nan_equals_nan(self):
        s = error_stats(np.array([np.nan, 1.0]), np.array([np.nan, 1.0]))
        assert s["differing"] == 0
        assert s["max_abs"] == 0.0

    def test_ulp_distance_of_neighbors(self):
        x = np.array([1.0])
        assert ulp_distance(x, np.nextafter(x, 2.0))[0] == 1.0
        # ulp distance crosses zero monotonically.
        assert ulp_distance(np.array([-0.0]), np.array([0.0]))[0] <= 1.0


class TestFindDivergence:
    def test_identical_traces_agree(self, tmp_path):
        program = chain_program()
        a = trace_run(program, tmp_path / "a.trace")
        b = trace_run(program, tmp_path / "b.trace")
        assert find_divergence(a, b) is None

    def test_structure_divergence(self, tmp_path):
        a = trace_run(chain_program(n=3), tmp_path / "a.trace")
        b = trace_run(chain_program(n=4), tmp_path / "b.trace")
        report = find_divergence(a, b)
        assert report["kind"] == "structure"
        assert "not comparable" in render_divergence(report)

    def test_length_divergence(self, tmp_path):
        program = chain_program(n=4)
        a = trace_run(program, tmp_path / "a.trace")
        # Trace B records the same program but stops one record early.
        recorder = vtrace.ValueTraceRecorder(tmp_path / "b.trace")
        recorder.begin_program(program)
        ex = Executor()
        for instr in program.instructions[:-1]:
            ex.execute(instr)
            recorder.record_instruction(instr, ex.registers)
        recorder.end_program()
        recorder.close()
        report = find_divergence(a, load_trace(tmp_path / "b.trace"))
        assert report["kind"] == "length"
        assert report["missing_in"] == "b"
        assert report["uid"] == program.instructions[-1].uid
        assert "end unevenly" in render_divergence(report)

    def test_program_count_divergence(self, tmp_path):
        program = chain_program(n=3)
        a = trace_run(program, tmp_path / "a.trace")
        with vtrace.recording_scope(tmp_path / "b.trace"):
            Executor().run(program)
            Executor().run(program)
        report = find_divergence(a, load_trace(tmp_path / "b.trace"))
        assert report["kind"] == "programs"
        assert report["checked"] == 3

    def test_value_divergence_and_slice(self, tmp_path):
        from repro.resilience.faults import (
            FaultEvent,
            FaultPlan,
            fault_injector,
        )

        program = chain_program(n=8)
        uid = 4
        plan = FaultPlan({uid: FaultEvent(uid, "value", magnitude=0.5)})
        a = trace_run(program, tmp_path / "a.trace", ring_size=8)
        b = trace_run(program, tmp_path / "b.trace",
                      executor=Executor(injector=fault_injector(plan)),
                      ring_size=8)
        report = find_divergence(a, b)
        assert report["kind"] == "value"
        assert report["uid"] == uid
        assert report["checked"] == uid
        assert "digests" in report["fields"]
        # Every upstream producer still matched: the fault site is the
        # first divergence, so the slice is all-green.
        assert report["slice"]
        assert all(step["matches"] for step in report["slice"])
        # The ring retained both sides' full values at the fault seq.
        name = report["dsts"][0]
        assert report["stats"][name]["max_abs"] >= 0.5
        text = render_divergence(report)
        assert f"instruction #{uid}" in text
        assert "backward slice" in text

    def test_uid_alignment_accepts_reordered_streams(self, tmp_path):
        # Two independent chains interleaved in a different (but still
        # dependency-respecting) order: the structural fingerprints
        # differ but every uid's values agree -- the schedule-replay
        # comparison tests/diff performs.
        in_order = Program()
        chains = []
        for chain in range(2):
            reg = in_order.new_register(f"c{chain}", (1,))
            in_order.emit(Opcode.CONST, [], [reg],
                          meta={"value": np.full(1, 1.0 + chain)})
            chains.append(reg)
        for chain in range(2):
            nxt = in_order.new_register(f"c{chain}", (1,))
            in_order.emit(Opcode.COPY, [chains[chain]], [nxt])
        reordered = Program(algorithm=in_order.algorithm)
        reordered.instructions = [in_order.instructions[i]
                                  for i in (1, 0, 3, 2)]
        reordered.register_shapes = dict(in_order.register_shapes)
        a = trace_run(in_order, tmp_path / "a.trace")
        b = trace_run(reordered, tmp_path / "b.trace")
        assert find_divergence(a, b, align="seq")["kind"] == "structure"
        assert find_divergence(a, b, align="uid") is None

    def test_unknown_alignment_raises(self, tmp_path):
        program = chain_program(n=2)
        a = trace_run(program, tmp_path / "a.trace")
        with pytest.raises(ValueError):
            find_divergence(a, a, align="lexical")


class TestBackwardSlice:
    def test_slice_walks_def_use_not_seq(self, tmp_path):
        # r0 -> r1 -> ... plus an unrelated CONST right before the
        # divergence point: the slice must skip it.
        program = chain_program(n=4)
        noise = program.new_register("noise", (1,))
        program.emit(Opcode.CONST, [], [noise],
                     meta={"value": np.zeros(1)})
        program.instructions.insert(3, program.instructions.pop())
        trace = trace_run(program, tmp_path / "a.trace")
        records = trace["programs"][0]["records"]
        by_uid = {r["uid"]: r for r in records}
        slice_ = backward_slice(records, records[-1], by_uid, limit=8)
        assert [s["dsts"][0] for s in slice_] == ["r2", "r1", "r0"]
        assert all(s["matches"] for s in slice_)


class TestFaultLocalization:
    """Acceptance criterion: the report pinpoints the injected site."""

    @pytest.mark.parametrize("app", ["MobileRobot", "Manipulator",
                                     "AutoVehicle", "Quadrotor"])
    def test_divergence_matches_injected_fault(self, app, tmp_path):
        clean = record_app_trace(app, 0, tmp_path / "clean.trace",
                                 ring_size=4)
        faulty = record_app_trace(app, 0, tmp_path / "faulty.trace",
                                  ring_size=4, fault=FAULT)
        assert len(faulty["fault_uids"]) == 1
        assert clean["fingerprint"] == faulty["fingerprint"]
        report = find_divergence(load_trace(tmp_path / "clean.trace"),
                                 load_trace(tmp_path / "faulty.trace"))
        assert report["kind"] == "value"
        assert report["uid"] == faulty["fault_uids"][0]
        # The report's provenance is the injected instruction's own.
        from repro.apps import all_applications

        program = {a.name: a for a in all_applications()}[app] \
            .compile_frame(0)
        instr = program.instructions[report["uid"]]
        assert instr.uid == report["uid"]
        expected = instr.provenance.to_dict() if instr.provenance else {}
        assert report["provenance"] == expected

    def test_identical_app_traces_are_byte_identical(self, tmp_path):
        record_app_trace("Manipulator", 0, tmp_path / "a.trace")
        record_app_trace("Manipulator", 0, tmp_path / "b.trace")
        assert (tmp_path / "a.trace").read_bytes() == \
            (tmp_path / "b.trace").read_bytes()

    def test_unknown_app_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown application"):
            record_app_trace("NoSuchApp", 0, tmp_path / "x.trace")


class TestCaptureWindow:
    def test_rerecord_requires_app_producer(self, tmp_path):
        trace = trace_run(chain_program(), tmp_path / "a.trace")
        assert rerecord_window(trace, 3, 2,
                               tmp_path / "cap.trace") is None

    def test_rerecord_window_around_fault(self, tmp_path):
        record_app_trace("Manipulator", 0, tmp_path / "clean.trace")
        faulty = record_app_trace("Manipulator", 0,
                                  tmp_path / "faulty.trace", fault=FAULT)
        uid = faulty["fault_uids"][0]
        trace = load_trace(tmp_path / "faulty.trace")
        window = rerecord_window(trace, uid, 2, tmp_path / "cap.trace")
        assert sorted(window) == list(range(uid - 2, uid + 3))
        assert all(entry["values"] for entry in window.values())


class TestDivergenceCli:
    def app_traces(self, tmp_path, fault=None):
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        record_app_trace("Manipulator", 0, a)
        record_app_trace("Manipulator", 0, b, fault=fault)
        return str(a), str(b)

    def test_agreement_exits_zero(self, tmp_path, capsys):
        a, b = self.app_traces(tmp_path)
        assert obs_main(["divergence", a, b]) == 0
        assert "no divergences" in capsys.readouterr().out

    def test_divergence_exits_one(self, tmp_path, capsys):
        a, b = self.app_traces(tmp_path, fault=FAULT)
        assert obs_main(["divergence", a, b]) == 1
        assert "DIVERGED" in capsys.readouterr().out

    def test_missing_trace_exits_two(self, tmp_path, capsys):
        a, _ = self.app_traces(tmp_path)
        assert obs_main(["divergence", a,
                         str(tmp_path / "missing.trace")]) == 2
        assert "divergence" in capsys.readouterr().err

    def test_json_report(self, tmp_path):
        a, b = self.app_traces(tmp_path, fault=FAULT)
        artifact = tmp_path / "report.json"
        assert obs_main(["divergence", a, b,
                         "--json", str(artifact)]) == 1
        payload = json.loads(artifact.read_text())
        assert payload["schema"] == "repro.obs.divergence/1"
        assert payload["divergence"]["kind"] == "value"

    def test_capture_window_renders(self, tmp_path, capsys):
        a, b = self.app_traces(tmp_path, fault=FAULT)
        assert obs_main(["divergence", a, b, "--capture-window", "2",
                         "--capture-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "capture window around seq" in out
        assert "<- first divergence" in out
        assert (tmp_path / "capture_a.trace").exists()

    def test_vtrace_cli_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "cli.trace"
        assert obs_main(["vtrace", "--app", "Manipulator",
                         "--output", str(out_path)]) == 0
        assert "traced Manipulator" in capsys.readouterr().out
        assert load_trace(out_path)["programs"]

    def test_vtrace_cli_reports_fault_uids(self, tmp_path, capsys):
        out_path = tmp_path / "cli.trace"
        assert obs_main(["vtrace", "--app", "Manipulator",
                         "--output", str(out_path),
                         "--fault-rate", "0.01", "--fault-seed", "3",
                         "--fault-magnitude", "0.5",
                         "--max-faults", "1"]) == 0
        assert "injected fault uids" in capsys.readouterr().out

    def test_vtrace_cli_unknown_app_exits_two(self, tmp_path, capsys):
        assert obs_main(["vtrace", "--app", "Nope",
                         "--output", str(tmp_path / "x.trace")]) == 2
        assert "unknown application" in capsys.readouterr().err
