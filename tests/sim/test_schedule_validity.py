"""Property tests: simulated schedules are physically valid.

For random compiled programs under every issue policy, the recorded
schedule must satisfy (a) no instruction starts before its operands are
produced, (b) unit-class concurrency never exceeds the configured
instance count, and (c) every instruction's occupancy equals its modeled
latency.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import Opcode, compile_graph
from repro.factorgraph import FactorGraph, Isotropic, Values, X, Y
from repro.factors import BetweenFactor, GPSFactor, PriorFactor
from repro.geometry import Pose
from repro.hw import AcceleratorConfig
from repro.sim import Simulator


def random_program(seed, n):
    rng = np.random.default_rng(seed)
    graph = FactorGraph([PriorFactor(X(0), Pose.identity(3),
                                     Isotropic(6, 0.1))])
    values = Values({X(0): Pose.identity(3)})
    for i in range(n - 1):
        graph.add(BetweenFactor(X(i + 1), X(i),
                                Pose.random(3, rng, scale=0.3)))
        values.insert(X(i + 1), Pose.random(3, rng))
        if rng.random() < 0.4:
            graph.add(GPSFactor(X(i + 1), rng.standard_normal(3),
                                Isotropic(3, 0.5)))
    return compile_graph(graph, values).program


def check_schedule(program, result, config):
    schedule = result.schedule
    deps = program.dependencies()
    instr_of = {i.uid: i for i in program.instructions}

    # (a) dependencies respected.
    for uid, preds in deps.items():
        start, _ = schedule[uid]
        for p in preds:
            _, p_finish = schedule[p]
            assert start >= p_finish - 1e-9, (
                f"#{uid} started at {start} before #{p} finished {p_finish}"
            )

    # (b)(c) unit occupancy within instance counts.
    events = {}
    for uid, (start, finish) in schedule.items():
        instr = instr_of[uid]
        if instr.op is Opcode.CONST:
            continue
        unit = instr.unit
        events.setdefault(unit, []).append((start, 1))
        events.setdefault(unit, []).append((finish, -1))
        assert finish > start, f"#{uid} has non-positive occupancy"
    for unit, unit_events in events.items():
        unit_events.sort(key=lambda e: (e[0], e[1]))
        live = 0
        for _, kind in unit_events:
            live += kind
            assert live <= config.unit_counts.get(unit, 0), (
                f"{unit} concurrency {live} exceeds configured instances"
            )


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 5000), n=st.integers(2, 6),
       policy=st.sampled_from(["ooo", "inorder", "sequential"]))
def test_schedule_is_physically_valid(seed, n, policy):
    program = random_program(seed, n)
    config = AcceleratorConfig()
    result = Simulator(config).run(program, policy)
    check_schedule(program, result, config)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 5000))
def test_multi_unit_concurrency_respected(seed):
    from repro.compiler.isa import UNIT_MATMUL, UNIT_QR

    program = random_program(seed, 5)
    config = AcceleratorConfig().with_extra_unit(UNIT_MATMUL)
    config = config.with_extra_unit(UNIT_QR)
    result = Simulator(config).run(program, "ooo")
    check_schedule(program, result, config)


def test_schedule_built_on_first_read():
    program = random_program(0, 3)
    result = Simulator().run(program, "ooo")
    assert "schedule" not in vars(result)
    schedule = result.schedule
    assert set(schedule) == {i.uid for i in program.instructions}
    assert result.schedule is schedule


def test_sequential_schedule_never_overlaps():
    program = random_program(1, 4)
    result = Simulator().run(program, "sequential")
    instr_of = {i.uid: i for i in program.instructions}
    spans = sorted(
        (s, f) for uid, (s, f) in result.schedule.items()
        if instr_of[uid].op is not Opcode.CONST
    )
    for (s1, f1), (s2, f2) in zip(spans, spans[1:]):
        assert s2 >= f1 - 1e-9
