"""Pinned dispatch counts of the fused plans the benchmarks run.

``FusedPlan.dispatch_count()`` is the number of NumPy dispatches one
fused execution performs (one per plan step, plus one for the CONST
preload).  A batching regression, such as a split group or a level
that no longer merges, raises it without changing any register value,
so the differential oracles cannot see it; these pins can.  The counts
are those of each app's seed-0 frame plan and of the plan each seed-0
fused Gauss-Newton solve builds on its 12 app x algorithm graphs.
"""

import pytest

from repro.apps import all_applications
from repro.compiler import clear_default_cache, fused, plan_for
from repro.optim.gauss_newton import GaussNewtonParams, gauss_newton

FRAME_DISPATCHES = {
    "MobileRobot": 111,
    "Manipulator": 56,
    "AutoVehicle": 134,
    "Quadrotor": 140,
}

GN_SOLVE_DISPATCHES = {
    "MobileRobot.localization": 65,
    "MobileRobot.planning": 47,
    "MobileRobot.control": 58,
    "Manipulator.localization": 8,
    "Manipulator.planning": 47,
    "Manipulator.control": 54,
    "AutoVehicle.localization": 75,
    "AutoVehicle.planning": 47,
    "AutoVehicle.control": 60,
    "Quadrotor.localization": 78,
    "Quadrotor.planning": 41,
    "Quadrotor.control": 60,
}


@pytest.fixture
def fresh_cache():
    clear_default_cache()
    yield
    clear_default_cache()


def test_frame_plan_dispatch_counts(fresh_cache):
    got = {app.name: plan_for(app.compile_frame(0)).dispatch_count()
           for app in all_applications()}
    assert got == FRAME_DISPATCHES


def test_gn_solve_plan_dispatch_counts(monkeypatch):
    plans = []
    build_plan = fused.build_plan

    def capture(program, *args, **kwargs):
        plans.append(build_plan(program, *args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(fused, "build_plan", capture)
    got = {}
    for app in all_applications():
        for name in app.algorithm_names:
            graph, values = app.build_graphs(0, [name])[name]
            gauss_newton(graph, values, GaussNewtonParams(max_iterations=1),
                         backend="fused")
            assert len(plans) == len(got) + 1, f"{app.name}.{name}"
            got[f"{app.name}.{name}"] = plans[-1].dispatch_count()
    assert got == GN_SOLVE_DISPATCHES
