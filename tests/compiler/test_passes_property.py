"""Property tests: CSE + DCE preserve program semantics.

For random factor graphs, the optimized program (common-subexpression
elimination followed by dead-code elimination) must execute to the same
Gauss-Newton step as the unoptimized stream, never grow the instruction
count, and keep every solution register live.  The same invariant is
checked through the compilation cache: rebind-then-optimize equals
cold-compile-then-optimize.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CompilationCache, Executor, compile_graph

from tests.diff.util import random_problem


def _solutions_equal(a, b, atol=1e-10):
    assert set(a) == set(b)
    for key in a:
        assert np.allclose(a[key], b[key], atol=atol), key


@given(structure_seed=st.integers(0, 10_000),
       value_seed=st.integers(0, 10_000))
@settings(max_examples=12, deadline=None)
def test_optimized_program_matches_unoptimized(structure_seed, value_seed):
    graph, values = random_problem(structure_seed, value_seed)
    compiled = compile_graph(graph, values)
    optimized = compiled.optimized()

    assert len(optimized.program.instructions) \
        <= len(compiled.program.instructions)

    plain = compiled.extract_solution(Executor().run(compiled.program))
    opt = optimized.extract_solution(Executor().run(optimized.program))
    _solutions_equal(plain, opt)

    # Every solution register survived DCE.
    written = set()
    for instr in optimized.program.instructions:
        written.update(instr.dsts)
    assert set(optimized.solution_registers.values()) <= written


@given(structure_seed=st.integers(0, 10_000))
@settings(max_examples=8, deadline=None)
def test_rebind_then_optimize_matches_cold_then_optimize(structure_seed):
    prime_graph, prime_values = random_problem(structure_seed,
                                               structure_seed + 1)
    graph, values = random_problem(structure_seed, structure_seed + 2)

    cache = CompilationCache()
    cache.compile_stream(prime_graph, prime_values)
    rebound = cache.compile_stream(graph, values).optimized()
    cold = compile_graph(graph, values).optimized()

    assert len(rebound.program.instructions) \
        == len(cold.program.instructions)
    got = rebound.extract_solution(Executor().run(rebound.program))
    want = cold.extract_solution(Executor().run(cold.program))
    _solutions_equal(got, want)
