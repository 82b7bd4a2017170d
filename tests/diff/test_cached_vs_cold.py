"""Differential test: cached compilation is indistinguishable from cold.

For randomized factor graphs, priming the cache with one graph and then
compiling a second graph with the same structure (different numerics)
must produce an instruction stream identical — field by field — to a
cold compile of the second graph, under the template's own stream name
and under new names.  The rebound stream must also execute to the same
solution as the reference solver.

The same holds for real frames: every application's merged frame equals
the cold compiles of its streams joined in frame order, from the first
frame (cold compiles and one-time renames) to steady state (the frame
template rebound in one pass), and steady-state frames never rename a
template.

Tier-1 runs a small seed subset; the ``slow`` marker covers 60 seeds
(the acceptance sweep).
"""

import numpy as np
import pytest

import repro.apps.base as app_base
from repro.apps import all_applications
from repro.compiler import (
    CompilationCache,
    Executor,
    cache as cache_module,
    clear_default_cache,
    codegen,
    compile_graph,
    graph_structure,
)
from repro.compiler.isa import Program
from repro.factorgraph import solve

from tests.diff.util import (
    assert_streams_equal,
    call_counter,
    dense_reference,
    random_problem,
)

APPS = ("MobileRobot", "Manipulator", "AutoVehicle", "Quadrotor")


def check_seed(structure_seed):
    """One differential check: prime, rebind, compare to cold."""
    graph_a, values_a = random_problem(structure_seed, structure_seed + 1000)
    graph_b, values_b = random_problem(structure_seed, structure_seed + 2000)

    cache = CompilationCache()
    cache.compile_stream(graph_a, values_a, "gn#0")

    # Same name -> value-only rebind; a new name twice -> renamed once
    # into that name's template, then rebound from it.
    targets = ["gn#0", "gn#1", "gn#1", "ctl#2"]
    for name in targets:
        rebound = cache.compile_stream(graph_b, values_b, name)
        cold = compile_graph(graph_b, values_b, algorithm=name,
                             register_prefix=name)
        assert_streams_equal(rebound.program, cold.program)
        assert rebound.solution_registers == cold.solution_registers
        assert rebound.ordering == cold.ordering

    assert cache.stats()["misses"] == 1
    assert cache.stats()["hits"] == len(targets)

    # The last rebound stream still solves the right system.
    registers = Executor().run(rebound.program)
    result = rebound.extract_solution(registers)
    linear = graph_b.linearize(values_b)
    expected, _ = solve(linear, rebound.ordering)
    dense = dense_reference(graph_b, values_b)
    for key in expected:
        assert np.allclose(result[key], expected[key], atol=1e-8)
        assert np.allclose(result[key], dense[key], atol=1e-6)


@pytest.mark.parametrize("structure_seed", range(6))
def test_cached_equals_cold(structure_seed):
    check_seed(structure_seed)


@pytest.mark.slow
@pytest.mark.parametrize("structure_seed", range(60))
def test_cached_equals_cold_sweep(structure_seed):
    check_seed(structure_seed)


# ----------------------------------------------------------------------
# Real frames through the process-wide cache
# ----------------------------------------------------------------------

@pytest.fixture
def fresh_cache():
    clear_default_cache()
    yield
    clear_default_cache()


def app_named(name):
    return next(a for a in all_applications() if a.name == name)


def capture_streams(monkeypatch):
    """Record the ``{label: (graph, values)}`` of every frame compiled."""
    frames = []
    original = app_base.compile_application

    def capture(algorithm_graphs):
        frames.append(algorithm_graphs)
        return original(algorithm_graphs)

    monkeypatch.setattr(app_base, "compile_application", capture)
    return frames


def cold_merge(algorithm_graphs):
    """The frame compiled without the cache: each stream cold under its
    label, joined in frame order."""
    merged = Program(algorithm="application")
    for label, (graph, values) in algorithm_graphs.items():
        merged.extend(compile_graph(graph, values, algorithm=label,
                                    register_prefix=label).program)
    return merged


@pytest.mark.parametrize("app_name", APPS)
def test_frames_equal_cold_merge(monkeypatch, fresh_cache, app_name):
    """Seed 0 compiles each structure's first stream cold and renames
    the other control streams once; later seeds are the frame template
    rebound in one pass, except Quadrotor's new structures, which
    rebind each hit stream from its own template."""
    app = app_named(app_name)
    frames = capture_streams(monkeypatch)
    for seed in range(4):
        program = app.compile_frame(seed)
        assert_streams_equal(program, cold_merge(frames[-1]))


def test_steady_frames_rename_nothing(monkeypatch, fresh_cache):
    """After each app's first frame, renaming stays off the path: only a
    new structure compiles, and only Quadrotor's localization stream
    brings new ones."""
    apps = [app_named(name) for name in APPS]
    frames = capture_streams(monkeypatch)
    for app in apps:
        app.compile_frame(0)
    # Quadrotor, the last app, compiled the last frame.
    seen = {graph_structure(*frames[-1]["localization"]).key}
    renames = call_counter(monkeypatch, cache_module, "_build_rename_map")
    compiles = call_counter(monkeypatch, codegen, "compile_graph")
    counts = {}
    new_localizations = 0
    for app in apps:
        before = compiles[0]
        for seed in range(1, 9):
            app.compile_frame(seed)
            if app.name == "Quadrotor":
                key = graph_structure(*frames[-1]["localization"]).key
                new_localizations += key not in seen
                seen.add(key)
        counts[app.name] = compiles[0] - before
    assert renames[0] == 0
    assert new_localizations > 0
    assert counts == {"MobileRobot": 0, "Manipulator": 0, "AutoVehicle": 0,
                      "Quadrotor": new_localizations}
