"""Resilient execution: detection, tiered recovery, and escalation.

Every scenario runs on both executors: each class runs on the
interpreter, and its ``...Fused`` subclass at the bottom of the file
runs the same scenarios on the fused backend (``execute_with_faults``
installs its recovery hook on the ``REPRO_EXECUTOR`` default).
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.compiler.fused import (
    EXECUTOR_ENV,
    EXECUTOR_FUSED,
    EXECUTOR_INTERPRETER,
    executor_factory,
)
from repro.compiler.isa import Opcode
from repro.errors import ExecutionError, FaultInjectionError
from repro.obs import vtrace
from repro.resilience.faults import FaultEvent, FaultPlan
from repro.resilience.recovery import RecoveryHook, execute_with_faults
from repro.resilience.spec import (
    DETECT_ONLY,
    ESCALATE_CONTINUE,
    RecoveryPolicy,
)


def checked_site(program):
    """Uid of an instruction with an ABFT invariant and live output."""
    from repro.resilience.abft import has_checker

    for instr in program.instructions:
        if has_checker(instr.op) and instr.op is not Opcode.CONST:
            return instr.uid
    raise AssertionError("no checkable instruction")


def dmr_site(program):
    """Uid of an instruction covered only by the DMR fallback."""
    from repro.resilience.abft import has_checker

    for instr in program.instructions:
        if instr.op in (Opcode.LOG, Opcode.EXP, Opcode.JR, Opcode.JRINV):
            assert not has_checker(instr.op)
            return instr.uid
    raise AssertionError("no special-function instruction")


def same_registers(a, b):
    assert a.keys() == b.keys()
    return all(np.array_equal(a[k], b[k]) for k in a)


class OnInterpreter:
    backend = EXECUTOR_INTERPRETER

    @pytest.fixture(autouse=True)
    def _backend(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, self.backend)


@pytest.fixture(scope="module")
def mobile_robot_frame():
    from repro.apps import all_applications

    (app,) = [a for a in all_applications() if a.name == "MobileRobot"]
    return app.compile_frame(0)


class TestCleanPath(OnInterpreter):
    def test_no_plan_matches_plain_executor_bit_exactly(self, program,
                                                        golden):
        registers, stats = execute_with_faults(program, FaultPlan({}))
        assert same_registers(registers, golden)
        assert stats.injected == 0
        assert stats.detected == 0
        assert stats.recovered == 0
        assert stats.escalated == 0

    def test_dmr_skips_constant_loads(self, mobile_robot_frame):
        # No fault plan targets a CONST, so DMR re-executes only the
        # other opcodes without an ABFT checker.
        from repro.resilience.abft import has_checker

        frame = mobile_robot_frame
        unchecked = [i for i in frame.instructions
                     if not has_checker(i.op)]
        computed = [i for i in unchecked if i.op is not Opcode.CONST]
        assert (len(unchecked), len(computed)) == (1373, 47)
        registers, stats = execute_with_faults(frame, FaultPlan({}))
        assert stats.dmr_checks == len(computed)
        assert same_registers(registers, executor_factory()().run(frame))


class TestRetryRecovery(OnInterpreter):
    def test_transient_value_fault_recovered_by_retry(self, program,
                                                      golden):
        uid = checked_site(program)
        plan = FaultPlan({uid: FaultEvent(uid, "value", magnitude=0.5)})
        registers, stats = execute_with_faults(program, plan)
        assert same_registers(registers, golden)
        assert stats.injected == 1
        assert stats.detected == 1
        assert stats.recovered_retry == 1
        assert plan.attempts[uid] == 2

    def test_bitflip_in_exponent_recovered(self, program, golden):
        uid = checked_site(program)
        plan = FaultPlan({uid: FaultEvent(uid, "bitflip", bit=62)})
        registers, stats = execute_with_faults(program, plan)
        assert same_registers(registers, golden)
        assert stats.recovered == 1

    def test_dropped_instruction_reissued(self, program, golden):
        uid = checked_site(program)
        plan = FaultPlan({uid: FaultEvent(uid, "drop")})
        registers, stats = execute_with_faults(program, plan)
        assert same_registers(registers, golden)
        assert stats.detected == 1
        assert stats.recovered_retry == 1

    def test_dmr_fallback_catches_special_function_fault(self, program,
                                                         golden):
        uid = dmr_site(program)
        plan = FaultPlan({uid: FaultEvent(uid, "value", magnitude=0.5)})
        registers, stats = execute_with_faults(program, plan)
        assert same_registers(registers, golden)
        assert stats.dmr_checks > 0
        assert stats.recovered == 1


class TestCheckpointRecovery(OnInterpreter):
    def test_persistent_fault_recovered_from_checkpoint(self, program,
                                                        golden):
        uid = checked_site(program)
        plan = FaultPlan({uid: FaultEvent(uid, "value", magnitude=0.5,
                                          persistent=True)})
        policy = RecoveryPolicy(checkpoint_every=8)
        registers, stats = execute_with_faults(program, plan, policy)
        assert same_registers(registers, golden)
        assert stats.recovered_checkpoint == 1
        assert stats.checkpoint_restores == 1
        assert uid in plan.suppressed

    def test_persistent_fault_without_checkpoint_escalates(self, program):
        uid = checked_site(program)
        plan = FaultPlan({uid: FaultEvent(uid, "value", magnitude=0.5,
                                          persistent=True)})
        policy = RecoveryPolicy(checkpoint_every=0)
        with pytest.raises(FaultInjectionError) as err:
            execute_with_faults(program, plan, policy)
        assert f"instruction #{uid}" in str(err.value)

    def test_rewind_reexecutes_and_traces_each_instruction_once(
            self, program, golden, tmp_path):
        """A checkpoint restore resumes from the checkpoint's step, so
        the steps after it run again; the value trace still records
        every instruction once, with its final (recovered) value."""
        uid = checked_site(program)
        plan = FaultPlan({uid: FaultEvent(uid, "value", magnitude=0.5,
                                          persistent=True)})
        hook = RecoveryHook(plan, RecoveryPolicy(checkpoint_every=8))
        seen = []

        def recording(executor, program, indices):
            seen.extend(indices)
            return hook(executor, program, indices)

        clean_path, path = tmp_path / "clean.trace", tmp_path / "rec.trace"
        with vtrace.recording_scope(clean_path, ring_size=0):
            executor_factory()().run(program)
        with vtrace.recording_scope(path, ring_size=0):
            registers = executor_factory()(injector=recording).run(program)
        assert same_registers(registers, golden)
        assert hook.stats.checkpoint_restores == 1
        site = next(i for i, instr in enumerate(program.instructions)
                    if instr.uid == uid)
        counts = Counter(seen)
        assert counts[site] == 2
        assert set(counts.values()) <= {1, 2}
        assert set(counts) == set(range(len(program.instructions)))
        with open(path) as fh:
            uids = [r["uid"] for r in map(json.loads, fh)
                    if r["kind"] == "instr"]
        assert uids == [instr.uid for instr in program.instructions]
        assert path.read_bytes() == clean_path.read_bytes()

    def test_escalate_continue_keeps_corruption_and_counts_it(
            self, program, golden):
        uid = checked_site(program)
        plan = FaultPlan({uid: FaultEvent(uid, "value", magnitude=0.5,
                                          persistent=True)})
        policy = RecoveryPolicy(checkpoint_every=0,
                                escalate=ESCALATE_CONTINUE)
        registers, stats = execute_with_faults(program, plan, policy)
        assert stats.escalated == 1
        assert not same_registers(registers, golden)


class TestDetectOnly(OnInterpreter):
    def test_detect_only_policy_never_retries(self, program):
        uid = checked_site(program)
        plan = FaultPlan({uid: FaultEvent(uid, "value", magnitude=0.5)})
        registers, stats = execute_with_faults(program, plan, DETECT_ONLY)
        assert registers  # completed despite the corruption
        assert stats.detected == 1
        assert stats.retries == 0
        assert stats.recovered == 0
        assert stats.escalated == 1

    def test_unreissued_drop_is_never_read(self, program):
        """A drop no retry reissues leaves its result unwritten, so the
        first read of it raises, on either backend."""
        uid = checked_site(program)
        plan = FaultPlan({uid: FaultEvent(uid, "drop")})
        with pytest.raises(ExecutionError, match="never written"):
            execute_with_faults(program, plan, DETECT_ONLY)


class TestObservability(OnInterpreter):
    def test_counters_exported_when_obs_enabled(self, program):
        uid = checked_site(program)
        plan = FaultPlan({uid: FaultEvent(uid, "value", magnitude=0.5)})
        with obs.enabled_scope():
            execute_with_faults(program, plan)
            snap = obs.collector().drain()
        assert snap.counters["resilience.faults.injected"] == 1
        assert snap.counters["resilience.faults.detected"] == 1
        assert snap.counters["resilience.faults.recovered"] == 1
        assert snap.counters["resilience.abft.checks"] > 0
        assert snap.counters["resilience.executions"] == 1

    def test_stats_dict_shape(self, program):
        _, stats = execute_with_faults(program, FaultPlan({}))
        d = stats.to_dict()
        for key in ("injected", "detected", "recovered", "silent",
                    "retries", "abft_checks", "dmr_checks"):
            assert key in d


# ----------------------------------------------------------------------
# The same scenarios on the fused backend
# ----------------------------------------------------------------------

class TestCleanPathFused(TestCleanPath):
    backend = EXECUTOR_FUSED


class TestRetryRecoveryFused(TestRetryRecovery):
    backend = EXECUTOR_FUSED


class TestCheckpointRecoveryFused(TestCheckpointRecovery):
    backend = EXECUTOR_FUSED


class TestDetectOnlyFused(TestDetectOnly):
    backend = EXECUTOR_FUSED


class TestObservabilityFused(TestObservability):
    backend = EXECUTOR_FUSED
