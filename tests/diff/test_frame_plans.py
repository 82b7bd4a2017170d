"""Differential test: frames that share one fused plan stay exact.

``compile_application`` attaches every merged frame program to the
structure slot of its frame structure, so same-structure frames run the
plan the first of them built.  The frames of MobileRobot, Manipulator
and AutoVehicle keep one structure across seeds: each app must build
its plan once, and every frame that runs the shared plan with its own
numerics must still produce the interpreter's register file bit for
bit.
"""

import numpy as np
import pytest

from repro.apps import all_applications
from repro.compiler import Executor, FusedExecutor, fused
from repro.compiler.cache import clear_default_cache

from tests.diff.util import call_counter

FIXED_STRUCTURE_APPS = ("MobileRobot", "Manipulator", "AutoVehicle")
SEEDS = (0, 1, 2, 3)


@pytest.fixture
def fresh_cache():
    clear_default_cache()
    yield
    clear_default_cache()


def assert_registers_identical(got, expected, context):
    assert got.keys() == expected.keys(), context
    for name, value in expected.items():
        a = np.ascontiguousarray(got[name])
        b = np.ascontiguousarray(value)
        assert a.dtype == b.dtype and a.shape == b.shape \
            and a.tobytes() == b.tobytes(), f"{context} {name}"


@pytest.mark.parametrize("app_name", FIXED_STRUCTURE_APPS)
def test_fixed_structure_frames_plan_once_and_match_interpreter(
        monkeypatch, fresh_cache, app_name):
    app = next(a for a in all_applications() if a.name == app_name)
    builds = call_counter(monkeypatch, fused, "build_plan")
    programs = []
    for seed in SEEDS:
        program = app.compile_frame(seed)
        registers = FusedExecutor().run(program)
        reference = Executor().run(program)
        assert_registers_identical(registers, reference,
                                   f"{app_name} seed {seed}")
        programs.append(program)
    assert builds[0] == 1
    slots = {id(program.structure_slot()) for program in programs}
    assert len(slots) == 1
