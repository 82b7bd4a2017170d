"""Kept simulation outcomes: one schedule per structure and configuration.

A fault-free ``Simulator.run`` keeps its outcome in the program's
structure slot, keyed by the policy, issue width, unit counts, clock and
buffer size (the unit templates already key the slot's cost tables),
and a repeat replays it.  These tests pin the rules:

- a replay equals a fresh simulation in every reported field and
  analysis;
- changing any key field, or passing a fault plan, simulates afresh;
- a caller's mutations never reach the kept outcome;
- an entry holds no program;
- a slot keeps at most ``_StructureTables.OUTCOMES`` entries;
- under ``obs.debug`` a corrupted entry raises ``SimulationError``;
- telemetry records one sim record per call.

Simulations are counted on ``Simulator._simulate``, not timed, so these
hold on any host.
"""

import dataclasses
import gc
import weakref

import pytest

from repro import obs
from repro.compiler.cache import clear_default_cache
from repro.errors import SimulationError
from repro.eval.experiments import ORIANNA_CONFIG
from repro.resilience import plan_faults
from repro.sim import Simulator
from repro.sim.engine import _StructureTables

from tests.diff.util import call_counter
from tests.sim.test_engine_golden import (
    FAULT_SPECS,
    _case,
    case_id,
    digest,
    frame_program,
    load_golden,
)
from tests.sim.test_lazy_analyses import full_dump
from tests.sim.test_structure_slot import app_named

APPS = ("MobileRobot", "Manipulator", "AutoVehicle", "Quadrotor")
SEEDS = range(4)
SETTINGS = [(policy, width) for policy in ("ooo", "inorder")
            for width in (None, 2)]


@pytest.fixture
def fresh_cache():
    clear_default_cache()
    yield
    clear_default_cache()


@pytest.fixture
def simulations(monkeypatch):
    return call_counter(monkeypatch, Simulator, "_simulate")


@pytest.fixture
def program(fresh_cache):
    return app_named("Manipulator").compile_frame(0)


def outcomes(program):
    return program.structure_slot().sim.outcomes


@pytest.mark.parametrize("app_name", APPS)
def test_hit_equals_fresh(app_name, fresh_cache, simulations):
    app = app_named(app_name)
    programs = [app.compile_frame(seed) for seed in SEEDS]
    kept = {}
    for seed, program in zip(SEEDS, programs):
        for policy, width in SETTINGS:
            result = Simulator(ORIANNA_CONFIG, issue_width=width).run(
                program, policy, record_schedule=True)
            kept[seed, policy, width] = full_dump(result)
    slots = len({id(program.structure_slot()) for program in programs})
    assert simulations[0] == slots * len(SETTINGS)

    for seed in SEEDS:
        clear_default_cache()
        program = app.compile_frame(seed)
        for policy, width in SETTINGS:
            fresh = Simulator(ORIANNA_CONFIG, issue_width=width).run(
                program, policy, record_schedule=True)
            assert full_dump(fresh) == kept[seed, policy, width], \
                (seed, policy, width)
    assert simulations[0] == (slots + len(SEEDS)) * len(SETTINGS)


WIDE_MATMUL = dict(ORIANNA_CONFIG.templates)
WIDE_MATMUL["matmul"] = dataclasses.replace(WIDE_MATMUL["matmul"],
                                            array_size=16)
# One key field changed each: (config, issue width, policy).
VARIANTS = {
    "policy": (ORIANNA_CONFIG, None, "inorder"),
    "issue_width": (ORIANNA_CONFIG, 2, "ooo"),
    "unit_count": (ORIANNA_CONFIG.with_extra_unit("matmul"), None, "ooo"),
    "clock": (dataclasses.replace(ORIANNA_CONFIG, clock_mhz=100.0), None,
              "ooo"),
    "buffer": (ORIANNA_CONFIG.with_buffer_kib(1), None, "ooo"),
    "template": (dataclasses.replace(ORIANNA_CONFIG, templates=WIDE_MATMUL),
                 None, "ooo"),
}


@pytest.mark.parametrize("field", VARIANTS)
def test_changed_key_field_simulates_afresh(field, program, simulations):
    base = full_dump(Simulator(ORIANNA_CONFIG).run(program))
    assert full_dump(Simulator(ORIANNA_CONFIG).run(program)) == base
    assert simulations[0] == 1

    config, width, policy = VARIANTS[field]
    changed = full_dump(Simulator(config, issue_width=width).run(
        program, policy))
    assert simulations[0] == 2
    assert changed != base

    clear_default_cache()
    alone = app_named("Manipulator").compile_frame(0)
    assert full_dump(Simulator(config, issue_width=width).run(
        alone, policy)) == changed

    # New templates recompute the costs and drop every kept outcome;
    # any other field leaves the base entry in place.
    Simulator(ORIANNA_CONFIG).run(program)
    assert simulations[0] == (4 if field == "template" else 3)


def test_fault_plans_neither_hit_nor_store(simulations):
    clean = _case("Manipulator", "ooo", None, "orianna")
    program = frame_program("Manipulator")
    golden = load_golden()[case_id(clean)]
    assert digest(clean) == golden
    kept = dict(outcomes(program))
    runs = simulations[0]

    faulted = _case("Manipulator", "ooo", None, "orianna", "stall")
    assert digest(faulted) == load_golden()[case_id(faulted)]
    assert simulations[0] == runs + 1
    assert outcomes(program) == kept

    assert digest(clean) == golden
    assert simulations[0] == runs + 1


def test_mutating_a_result_leaves_the_next_hit_unchanged(program):
    sim = Simulator(ORIANNA_CONFIG)
    expected = None
    for _ in range(3):
        result = sim.run(program, record_schedule=True)
        dump = full_dump(result)
        expected = expected or dump
        assert dump == expected
        result.unit_busy_cycles["matmul"] = -1
        result.unit_busy_cycles["bogus"] = 7
        result.stall_counts.clear()
        result.phase_work_cycles["bogus"] = 7
        result.energy.dynamic_mj = -1.0
        result.schedule[0] = (-1.0, -1.0)
        result.unit_instance_counts["matmul"] = 99


def test_entries_hold_no_program(fresh_cache):
    # The slot keeps its structure's first frame as the frame template,
    # so the frame dropped here is the second one.
    app_named("Manipulator").compile_frame(0)
    program = app_named("Manipulator").compile_frame(1)
    result = Simulator(ORIANNA_CONFIG).run(program)
    slot = program.structure_slot()
    dropped = weakref.ref(program)
    del program, result
    gc.collect()
    assert dropped() is None
    (entry,) = slot.sim.outcomes.values()
    assert entry.result.run_state is None
    assert not entry.result.schedule


def test_each_slot_keeps_a_bounded_lru(program, simulations):
    def run(width):
        Simulator(ORIANNA_CONFIG, issue_width=width).run(program)

    widths = range(1, _StructureTables.OUTCOMES + 1)
    for width in widths:
        run(width)
    run(1)  # now the most recently used
    assert simulations[0] == len(widths)
    run(None)  # evicts width 2, the oldest
    assert len(outcomes(program)) == _StructureTables.OUTCOMES
    run(1)
    assert simulations[0] == len(widths) + 1
    run(2)
    assert simulations[0] == len(widths) + 2


def shift_last_finish(outcome):
    uid = max(outcome.finish, key=outcome.finish.get)
    outcome.finish[uid] += 1.0


def bump_total_cycles(outcome):
    outcome.result.total_cycles += 1


def drop_a_gate(outcome):
    uid = next(u for u, p in outcome.tracker.gated_by.items()
               if p is not None)
    outcome.tracker.gated_by[uid] = None


CORRUPTIONS = {
    "schedule": shift_last_finish,
    "total_cycles": bump_total_cycles,
    "tracker.gated_by": drop_a_gate,
}


@pytest.mark.parametrize("field", CORRUPTIONS)
def test_debug_recheck_catches_a_corrupted_entry(field, program):
    sim = Simulator(ORIANNA_CONFIG)
    sim.run(program)
    with obs.enabled_scope(debug=True):
        sim.run(program)  # a clean hit passes the recheck
        (entry,) = outcomes(program).values()
        CORRUPTIONS[field](entry)
        with pytest.raises(SimulationError, match=field):
            sim.run(program)
        assert sim.run(program, fault_plan=plan_faults(
            program, FAULT_SPECS["stall"])).fault_counts
    # Outside debug mode nothing rechecks the entry.
    sim.run(program)


@pytest.mark.parametrize("debug", [False, True])
def test_a_hit_records_one_telemetry_record(debug, program, simulations):
    sim = Simulator(ORIANNA_CONFIG)
    with obs.enabled_scope(debug=debug) as collector:
        first = sim.run(program)
        second = sim.run(program)
        snapshot = collector.drain()
    assert len(snapshot.sims) == 2
    assert snapshot.sims[0] == snapshot.sims[1]
    assert snapshot.counters["sim.memo.miss"] == 1
    assert snapshot.counters["sim.memo.hit"] == 1
    assert simulations[0] == (2 if debug else 1)
    assert first.schedule == second.schedule and second.schedule
