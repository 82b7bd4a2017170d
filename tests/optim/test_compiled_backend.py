"""The compiled optimizer backend matches the reference solver.

``backend="compiled"`` routes each linear solve through the compiled
instruction stream (one solve session per optimizer call: a cold
compile, then an in-place refresh per iteration).  Both optimizers must
converge to the same error and the same estimates as the reference
sparse elimination.
"""

import numpy as np
import pytest

from repro.optim import gauss_newton, levenberg_marquardt
from repro.optim.compiled import CompiledSolver, damped_nonlinear_graph

from tests.diff.util import (
    assert_deltas_identical,
    call_counter,
    random_problem,
)


def _values_close(a, b, atol=1e-6):
    from repro.factorgraph.values import local_value

    assert set(a.keys()) == set(b.keys())
    for key in a.keys():
        assert np.allclose(local_value(a.at(key), b.at(key)),
                           0.0, atol=atol), key


@pytest.mark.parametrize("structure_seed", range(4))
def test_gauss_newton_backends_agree(structure_seed):
    graph, values = random_problem(structure_seed, structure_seed + 11)
    ref = gauss_newton(graph, values, backend="reference")
    cmp = gauss_newton(graph, values, backend="compiled")
    assert len(cmp.iterations) == len(ref.iterations)
    assert np.isclose(cmp.final_error, ref.final_error,
                      rtol=1e-8, atol=1e-12)
    _values_close(ref.values, cmp.values)


@pytest.mark.parametrize("structure_seed", range(3))
def test_levenberg_backends_agree(structure_seed):
    graph, values = random_problem(structure_seed, structure_seed + 23)
    ref = levenberg_marquardt(graph, values, backend="reference")
    cmp = levenberg_marquardt(graph, values, backend="compiled")
    assert np.isclose(cmp.final_error, ref.final_error,
                      rtol=1e-6, atol=1e-10)
    _values_close(ref.values, cmp.values)


def test_unknown_backend_rejected():
    graph, values = random_problem(0, 1)
    with pytest.raises(ValueError):
        gauss_newton(graph, values, backend="quantum")
    with pytest.raises(ValueError):
        levenberg_marquardt(graph, values, backend="quantum")


def test_compiled_solver_compiles_once_then_refreshes(monkeypatch):
    """The second solve refreshes the first solve's program in place."""
    from repro.compiler import codegen

    compiles = call_counter(monkeypatch, codegen, "compile_graph")
    graph, values = random_problem(2, 5)
    solver = CompiledSolver()
    solver.solve(graph, values)
    program = solver.compiled.program
    stepped = values.retract({k: 0.01 * np.ones(values.dim(k))
                              for k in values.keys()})
    delta = solver.solve(graph, stepped)
    assert compiles[0] == 1
    assert solver.compiled.program is program
    assert_deltas_identical(delta, CompiledSolver().solve(graph, stepped))


def test_damped_graph_matches_reference_normal_equations():
    """Damping priors add exactly sqrt(lam)*I rows with zero rhs."""
    graph, values = random_problem(1, 3)
    lam = 0.37
    damped = damped_nonlinear_graph(graph, values, lam)
    assert len(damped.factors) == len(graph.factors) + len(list(values.keys()))
    linear = damped.linearize(values)
    a, b, slices = linear.dense_system()
    base_rows = graph.linearize(values).dense_system()[0].shape[0]
    tail_a, tail_b = a[base_rows:], b[base_rows:]
    total = sum(values.dim(k) for k in values.keys())
    assert tail_a.shape[0] == total
    # Rows are a permutation of sqrt(lam)*I with zero rhs.
    assert np.allclose(tail_b, 0.0, atol=1e-12)
    assert np.allclose(tail_a @ tail_a.T, lam * np.eye(total), atol=1e-10)


def test_levenberg_lambda_trials_share_structure():
    """Different lambda values rebind the same damped-graph template."""
    graph, values = random_problem(3, 8)
    from repro.compiler.cache import graph_structure

    g_small = damped_nonlinear_graph(graph, values, 1e-3)
    g_large = damped_nonlinear_graph(graph, values, 1e2)
    assert graph_structure(g_small, values).key \
        == graph_structure(g_large, values).key
