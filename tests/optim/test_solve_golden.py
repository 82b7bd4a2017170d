"""Golden trajectories for the Gauss-Newton and Levenberg-Marquardt loops.

Each case solves one seed-0 application graph and compares a SHA-256
over everything the solve reports:

- the final values' bytes, variable by variable in sorted key order;
- the ``repr`` of every iteration's ``(error_before, error_after,
  step_norm)``;
- ``converged``.

Cases cover the 12 app x algorithm graphs under the end-to-end
benchmark's solve parameters (GN: 8 iterations, zero tolerances,
``max_step_norm=10``; LM: lambda fixed at 1e3 for 8 iterations), plus
the default parameters on the MobileRobot and Manipulator graphs, whose
iteration counts and lambda schedules depend on the data.  Every case
runs on the ``reference``, ``compiled`` and ``fused`` backends.  The
compiled backend executes on the process-default executor; the fused
backend is bit-identical to the interpreter, so the ``compiled`` and
``fused`` digests are equal and the test holds under
``REPRO_EXECUTOR=fused`` too.  The ``supervised`` backend with no fault
injected must reproduce each ``fused`` digest; it has no entries of its
own.

The digests in ``golden/solve_digests.json`` were produced by the loops
that re-fingerprinted and rebound the graph on every linear solve and
recomputed the error of the iterate they had just accepted; any change
to how the loops reach their numbers must reproduce them bit for bit.
After an intentional numerical change, regenerate the file with::

    PYTHONPATH=src python tests/optim/test_solve_golden.py --regenerate

and say in the change why every digest moved.
"""

import functools
import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.apps import all_applications
from repro.geometry.pose import Pose
from repro.optim.gauss_newton import GaussNewtonParams, gauss_newton
from repro.optim.levenberg import LevenbergParams, levenberg_marquardt

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "solve_digests.json")
SEED = 0
BACKENDS = ("reference", "compiled", "fused")
DEFAULT_PARAMETER_APPS = ("MobileRobot", "Manipulator")

_NO_TOLERANCE = dict(absolute_error_tol=0.0, relative_error_tol=0.0,
                     step_tol=0.0)
SOLVES = {
    "gn-budget": (gauss_newton, GaussNewtonParams(
        max_iterations=8, max_step_norm=10.0, **_NO_TOLERANCE)),
    "lm-fixed": (levenberg_marquardt, LevenbergParams(
        max_iterations=8, initial_lambda=1e3, min_lambda=1e3,
        **_NO_TOLERANCE)),
    "gn-default": (gauss_newton, GaussNewtonParams()),
    "lm-default": (levenberg_marquardt, LevenbergParams()),
}


def golden_cases():
    cases = []
    for app in all_applications():
        solves = ["gn-budget", "lm-fixed"]
        if app.name in DEFAULT_PARAMETER_APPS:
            solves += ["gn-default", "lm-default"]
        for name in app.algorithm_names:
            cases += [(f"{app.name}.{name}", solve, backend)
                      for solve in solves for backend in BACKENDS]
    return cases


def case_id(case):
    return "/".join(case)


@functools.lru_cache(maxsize=None)
def _graph(graph_name):
    app_name, algorithm = graph_name.split(".")
    app = next(a for a in all_applications() if a.name == app_name)
    return app.build_graphs(SEED, [algorithm])[algorithm]


def solve_digest(result):
    """SHA-256 over final values, per-iteration errors and convergence."""
    h = hashlib.sha256()
    values = result.values
    for key in sorted(values.keys()):
        value = values.at(key)
        parts = (value.phi, value.t) if isinstance(value, Pose) \
            else (value,)
        h.update(repr(key).encode())
        for part in parts:
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
    for record in result.iterations:
        h.update(repr((record.error_before, record.error_after,
                       record.step_norm)).encode())
    h.update(repr(result.converged).encode())
    return h.hexdigest()


def digest(case):
    graph_name, solve, backend = case
    graph, values = _graph(graph_name)
    fn, params = SOLVES[solve]
    return solve_digest(fn(graph, values, params, backend=backend))


@functools.lru_cache(maxsize=None)
def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", golden_cases(), ids=case_id)
def test_solve_matches_golden_digest(case):
    golden = load_golden()
    key = case_id(case)
    assert key in golden, f"no golden digest for {key}"
    assert digest(case) == golden[key], (
        f"{key}: the solve trajectory moved; see the module docstring "
        f"before regenerating")


def test_golden_file_covers_exactly_the_cases():
    assert sorted(load_golden()) == sorted(case_id(c)
                                           for c in golden_cases())


def test_compiled_and_fused_digests_agree():
    golden = load_golden()
    for graph_name, solve, backend in golden_cases():
        if backend == "compiled":
            fused = case_id((graph_name, solve, "fused"))
            assert golden[case_id((graph_name, solve, backend))] \
                == golden[fused], fused


@pytest.mark.parametrize(
    "case", [c for c in golden_cases() if c[2] == "fused"], ids=case_id)
def test_idle_supervised_solve_matches_fused_digest(case):
    """With no fault to absorb, supervision is a zero-cost wrapper: the
    ``supervised`` backend reproduces the fused digest bit for bit."""
    graph_name, solve, _ = case
    assert digest((graph_name, solve, "supervised")) \
        == load_golden()[case_id(case)], case_id(case)


def regenerate():
    digests = {case_id(case): digest(case) for case in golden_cases()}
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_solve_golden.py --regenerate")
    regenerate()
