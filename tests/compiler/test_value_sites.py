"""The value-site index and the binder: one binding path.

:func:`~repro.compiler.cache.value_sites` reads a program structure's
binding specs once and groups its CONST/EMBED positions by when a solve
session rewrites them; a :class:`~repro.compiler.cache.Binder` writes a
spec's value for one ``(graph, values)`` pair.  Frame rebinds, session
refreshes and the supervisor's integrity check all take their sites
from the index, so these tests pin it against the programs' own
instructions: the four apps' frames at seeds 0-3 and the session
programs of the 12 app graphs.
"""

from collections import Counter

import numpy as np
import pytest

from repro.apps import all_applications
from repro.compiler import cache, clear_default_cache
from repro.compiler.cache import (
    BIND_EMBED,
    BIND_EXPR,
    BIND_STATIC,
    Binder,
    value_sites,
)
from repro.compiler.isa import Opcode
from repro.optim.compiled import CompiledSolver
from repro.resilience.supervisor import SupervisedSolver

from tests.diff.util import call_counter

VARIABLE_KINDS = ("pose_phi", "pose_t", "vector")
FIXED_STRUCTURE_APPS = ("MobileRobot", "Manipulator", "AutoVehicle")
APP_GRAPHS = [(app.name, name) for app in all_applications()
              for name in app.algorithm_names]


@pytest.fixture
def fresh_cache():
    clear_default_cache()
    yield
    clear_default_cache()


def app_named(name):
    return next(a for a in all_applications() if a.name == name)


def assert_index_matches(program):
    """Every CONST/EMBED sits in exactly one group of the index, with
    the spec it was emitted with; the groups are in program order."""
    sites = value_sites(program)
    every_solve = dict(sites.every_solve)
    per_factor = dict(sites.per_factor)
    static = set(sites.static)
    valued = 0
    for position, instr in enumerate(program.instructions):
        groups = (position in every_solve, position in per_factor,
                  position in static)
        if instr.op not in (Opcode.CONST, Opcode.EMBED):
            assert not any(groups), position
            continue
        valued += 1
        assert sum(groups) == 1, position
        spec = instr.meta.get("binding")
        if instr.op is Opcode.EMBED:
            assert spec[0] == BIND_EMBED
            assert every_solve[position] is spec
        elif spec is None or spec[0] == BIND_STATIC:
            assert position in static
        elif spec[0] in VARIABLE_KINDS:
            assert every_solve[position] is spec
        else:
            assert spec[0] in ("noise", BIND_EXPR)
            assert per_factor[position] is spec
    assert len(every_solve) + len(per_factor) + len(static) == valued
    for positions in ([p for p, _ in sites.every_solve],
                      [p for p, _ in sites.per_factor], sites.static):
        assert positions == sorted(positions)
    assert sites.persistent == sorted(
        [(p, BIND_STATIC) for p in sites.static]
        + [(p, spec[0]) for p, spec in sites.per_factor])


@pytest.mark.parametrize("app_name", [a.name for a in all_applications()])
def test_frame_index_matches_the_program(fresh_cache, app_name):
    app = app_named(app_name)
    for seed in range(4):
        assert_index_matches(app.compile_frame(seed))


@pytest.mark.parametrize("app_name", FIXED_STRUCTURE_APPS)
def test_frames_of_one_structure_share_one_index(fresh_cache, monkeypatch,
                                                 app_name):
    """Frame 0 is the slot's template; frame 1, its first rebind, builds
    the index, and frames 2 and 3 reuse it."""
    app = app_named(app_name)
    template = app.compile_frame(0)
    builds = call_counter(monkeypatch, cache, "ValueSites")
    frames = [app.compile_frame(seed) for seed in (1, 2, 3)]
    assert builds[0] == 1
    index = value_sites(template)
    assert all(value_sites(frame) is index for frame in frames)
    assert builds[0] == 1


@pytest.mark.parametrize("app_name,algorithm", APP_GRAPHS,
                         ids=[f"{a}/{n}" for a, n in APP_GRAPHS])
def test_session_index_matches_the_program(app_name, algorithm):
    graph, values = app_named(app_name).build_graphs(
        0, [algorithm])[algorithm]
    session = CompiledSolver()
    session.prepare(graph, values)
    assert_index_matches(session.compiled.program)


def test_supervised_session_builds_its_index_once(monkeypatch):
    """The cold compile indexes the program; refreshes and the integrity
    check after each of them read that index."""
    graph, values = app_named("MobileRobot").build_graphs(
        0, ["localization"])["localization"]
    builds = call_counter(monkeypatch, cache, "ValueSites")
    solver = SupervisedSolver()
    for _ in range(3):
        solver.solve(graph, values)
    assert builds[0] == 1


def test_binder_builds_each_factor_dfg_once(monkeypatch):
    """A factor with several ``expr`` sites is expanded into its MO-DFG
    once per binder, and the binder writes back the compiled values."""
    graph, values = app_named("MobileRobot").build_graphs(
        0, ["localization"])["localization"]
    session = CompiledSolver()
    session.prepare(graph, values)
    program = session.compiled.program
    sites = value_sites(program)
    expr_sites = Counter(spec[1] for _, spec in sites.per_factor
                         if spec[0] == BIND_EXPR)
    assert max(expr_sites.values()) > 1
    builds = call_counter(monkeypatch, cache, "MoDFG")
    binder = Binder(graph, values)
    for position, spec in sites.per_factor + sites.every_solve:
        compiled = program.instructions[position].meta
        meta = dict(compiled)
        binder.write(meta, spec)
        if spec[0] == BIND_EMBED:
            assert meta["factor"] is compiled["factor"]
            assert meta["values"] is values
        else:
            assert meta["value"].dtype == compiled["value"].dtype
            assert np.array_equal(meta["value"], compiled["value"])
    assert builds[0] == len(expr_sites)
