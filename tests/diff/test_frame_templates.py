"""Frame templates: copy-on-write and staleness.

A frame whose streams all hit the compilation cache is its structure
slot's template rebound in one pass: it shares every value-free
instruction object with the template and clones only the value sites.
Building, running and interpreting the next frame must leave an earlier
frame's instructions and register files bitwise unchanged, and a frame
whose stream keys differ from the slot's (a new Quadrotor structure, a
cleared cache, an evicted stream entry) must never take the template
path; one whose template was changed fails loudly.
"""

import numpy as np
import pytest

from repro.apps import all_applications
from repro.compiler import (
    CompilationCache,
    Executor,
    FusedExecutor,
    cache as cache_module,
    clear_default_cache,
    codegen,
    default_cache,
)
from repro.compiler.isa import Program
from repro.errors import CompileError

from tests.diff.test_cached_vs_cold import capture_streams, cold_merge
from tests.diff.test_frame_plans import assert_registers_identical
from tests.diff.util import assert_streams_equal, call_counter, random_problem

FIXED_STRUCTURE_APPS = ("MobileRobot", "Manipulator", "AutoVehicle")


@pytest.fixture
def fresh_cache():
    clear_default_cache()
    yield
    clear_default_cache()


def app_named(name):
    return next(a for a in all_applications() if a.name == name)


def _frozen(value):
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _frozen(v)) for k, v in value.items()))
    if isinstance(value, (int, float, str, bool, type(None))):
        return value
    return id(value)  # host objects (factors, values) by identity


def snapshot(program):
    """Every instruction's fields, array payloads as bytes."""
    return [(id(i), i.uid, i.op, tuple(i.srcs), tuple(i.dsts), i.phase,
             i.algorithm, _frozen(i.meta)) for i in program.instructions]


def registers_copy(registers):
    return {name: np.array(value, copy=True)
            for name, value in registers.items()}


@pytest.mark.parametrize("app_name", FIXED_STRUCTURE_APPS)
def test_next_frame_leaves_earlier_frames_unchanged(fresh_cache, app_name):
    """Frame 0 is the template and frame 1 a one-pass rebind of it;
    building, fused-running and interpreting frame 2 changes neither."""
    app = app_named(app_name)
    frames = [app.compile_frame(seed) for seed in (0, 1)]
    assert frames[1].structure_slot().template is frames[0]
    before = []
    for program in frames:
        fused = FusedExecutor().run(program)
        before.append((snapshot(program), fused, registers_copy(fused),
                       registers_copy(Executor().run(program))))

    following = app.compile_frame(2)
    assert_registers_identical(FusedExecutor().run(following),
                               Executor().run(following), "frame 2")

    for seed, program in enumerate(frames):
        instructions, fused, fused_copy, interpreted = before[seed]
        context = f"{app_name} frame {seed}"
        assert snapshot(program) == instructions, context
        assert_registers_identical(fused, fused_copy, context)
        assert_registers_identical(FusedExecutor().run(program), fused_copy,
                                   context)
        assert_registers_identical(Executor().run(program), interpreted,
                                   context)
    # The later frames share the template's value-free instructions.
    shared = [a is b for a, b in zip(following.instructions,
                                     frames[0].instructions)]
    assert any(shared) and not all(shared)


class TestStaleFrames:
    """Call counters tell the paths apart: a one-pass frame calls
    ``rebind`` once and ``compile_graph`` never; a merged frame rebinds
    each hit stream and extends each stream into the frame."""

    def counters(self, monkeypatch):
        return (call_counter(monkeypatch, codegen, "compile_graph"),
                call_counter(monkeypatch, cache_module, "rebind"),
                call_counter(monkeypatch, Program, "extend"))

    def frame(self, counters, app, seed, frames):
        before = [c[0] for c in counters]
        program = app.compile_frame(seed)
        calls = tuple(c[0] - b for c, b in zip(counters, before))
        assert_streams_equal(program, cold_merge(frames[-1]))
        return calls

    def test_new_quadrotor_structures_never_use_a_template(
            self, monkeypatch, fresh_cache):
        app = app_named("Quadrotor")
        frames = capture_streams(monkeypatch)
        counters = self.counters(monkeypatch)
        app.compile_frame(0)
        # Seeds 0-2 bring three localization structures; seed 3 repeats
        # seed 2's, so its frame is the only one-pass rebind.
        assert self.frame(counters, app, 1, frames) == (1, 5, 6)
        assert self.frame(counters, app, 2, frames) == (1, 5, 6)
        assert self.frame(counters, app, 3, frames) == (0, 1, 0)

    def test_cleared_cache_rebuilds_the_frame(self, monkeypatch,
                                              fresh_cache):
        app = app_named("MobileRobot")
        frames = capture_streams(monkeypatch)
        counters = self.counters(monkeypatch)
        app.compile_frame(0)
        assert self.frame(counters, app, 1, frames) == (0, 1, 0)
        clear_default_cache()
        # Localization and control#0 compile cold, control#1-4 rename.
        assert self.frame(counters, app, 2, frames) == (2, 4, 6)
        assert self.frame(counters, app, 3, frames) == (0, 1, 0)

    def test_evicted_stream_entry_rebuilds_the_frame(self, monkeypatch,
                                                     fresh_cache):
        app = app_named("MobileRobot")
        frames = capture_streams(monkeypatch)
        counters = self.counters(monkeypatch)
        app.compile_frame(0)
        assert self.frame(counters, app, 1, frames) == (0, 1, 0)
        # A third structure in a two-entry cache evicts the least
        # recently used entry, the localization stream's; the control
        # streams still hit.
        with monkeypatch.context() as patch:
            patch.setattr(CompilationCache, "MAX_ENTRIES", 2)
            default_cache().compile_stream(*random_problem(0, 1))
        assert len(default_cache()) == 2
        assert self.frame(counters, app, 2, frames) == (1, 5, 6)
        assert self.frame(counters, app, 3, frames) == (0, 1, 0)

    def test_changed_template_fails_loudly(self, fresh_cache):
        app = app_named("Manipulator")
        template = app.compile_frame(0)
        # Extending a program re-keys it, so it no longer names the
        # streams its slot was made for.
        template.extend(Program(algorithm="extra"))
        with pytest.raises(CompileError, match="structure slot mismatch"):
            app.compile_frame(1)
