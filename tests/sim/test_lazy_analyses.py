"""The simulator's analyses are computed on first read, once each.

``SimulationResult.attribution``, ``.critical_path`` and
``.cycle_accounting`` come from state the run keeps.  Call counts on
the names :mod:`repro.sim.engine` binds show that a caller reading only
cycles and energy never pays for them, that every analysis runs at most
once per result, and that debug runs still compute all three (their
invariant checks read them).  Counting, not timing, so these hold on
any host.
"""

import json

import pytest

from repro import obs
from repro.apps import all_applications
from repro.eval.experiments import ORIANNA_CONFIG
from repro.sim import EnergyBreakdown, SimulationResult, Simulator
from repro.sim import engine

from tests.diff.util import call_counter

ANALYSES = ("compute_attribution", "compute_critical_path",
            "compute_cycle_accounting")


@pytest.fixture(scope="module")
def program():
    app = next(a for a in all_applications() if a.name == "MobileRobot")
    return app.compile_frame(0)


@pytest.fixture
def calls(monkeypatch):
    return {name: call_counter(monkeypatch, engine, name)
            for name in ANALYSES}


def counts(calls):
    return {name: count[0] for name, count in calls.items()}


def full_dump(result):
    """Everything the engine golden digests cover, as one JSON string."""
    accounting = result.cycle_accounting
    critical_path = result.critical_path
    return json.dumps({
        "result": result.to_dict(include_schedule=True),
        "accounting": accounting.to_dict(
            chain_limit=len(accounting.critical_chain)),
        "critical_path": critical_path.to_dict(
            path_limit=len(critical_path.path)),
        "waits": accounting.waits_to_dict(),
    })


def test_cycles_and_energy_compute_no_analysis(program, calls):
    result = Simulator(ORIANNA_CONFIG).run(program, "ooo")
    assert result.total_cycles > 0 and result.energy_mj > 0
    assert counts(calls) == dict.fromkeys(ANALYSES, 0)


def test_to_dict_computes_each_analysis_once(program, calls):
    result = Simulator(ORIANNA_CONFIG).run(program, "ooo")
    before = counts(calls)
    first = result.to_dict()
    after = counts(calls)
    assert {name: after[name] - before[name] for name in ANALYSES} == \
        dict.fromkeys(ANALYSES, 1)
    assert {"attribution", "critical_path", "cycle_accounting"} <= \
        first.keys()
    assert result.to_dict() == first
    assert counts(calls) == after


@pytest.mark.parametrize("policy", ["ooo", "inorder"])
def test_forcing_order_does_not_change_the_dump(program, policy):
    sim = Simulator(ORIANNA_CONFIG)
    golden_order = sim.run(program, policy, record_schedule=True)
    reverse = sim.run(program, policy, record_schedule=True)
    reverse.attribution
    reverse.critical_path
    reverse.cycle_accounting
    assert full_dump(reverse) == full_dump(golden_order)


def test_debug_runs_compute_every_analysis_once(program, calls):
    sim = Simulator(ORIANNA_CONFIG)
    with obs.enabled_scope(debug=True) as collector:
        for _ in range(2):
            sim.run(program, "ooo")
        collector.drain()
    assert counts(calls) == dict.fromkeys(ANALYSES, 2)


def test_hand_built_result_has_no_analyses():
    result = SimulationResult(
        policy="ooo", total_cycles=10, clock_mhz=100.0,
        energy=EnergyBreakdown(), instruction_count=1, issued_count=1)
    assert result.attribution is None
    assert result.critical_path is None
    assert result.cycle_accounting is None
    assert "attribution" not in result.to_dict()
