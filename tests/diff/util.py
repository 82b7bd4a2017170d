"""Shared helpers for the differential-correctness harness.

The harness cross-checks four independent evaluations of the same
Gauss-Newton step:

- the compiled instruction stream on the functional ISA interpreter
  (:class:`repro.compiler.Executor`),
- the same stream replayed in the simulator's recorded schedule order,
- the reference sparse elimination solver
  (:func:`repro.factorgraph.solve`),
- a dense NumPy least-squares solve of the assembled system.

Graph *structure* and *values* are seeded independently so cache tests
can generate many graphs that share one compiled template.
"""

import functools

import numpy as np

from repro.compiler import Executor
from repro.compiler.isa import Program
from repro.factorgraph import FactorGraph, Isotropic, U, Values, X, Y
from repro.factors import (
    BetweenFactor,
    DynamicsFactor,
    GPSFactor,
    PriorFactor,
    SmoothnessFactor,
)
from repro.geometry import Pose

# Meta keys whose payloads are host-side objects (rebind swaps them for
# the current frame's factor/values); compared by identity, not value.
_OBJECT_META = ("factor", "values")


def random_structure(structure_seed):
    """Draw a random graph *shape*: pose count, space, factor placement.

    Returns a spec dict consumed by :func:`random_problem`; two calls
    with the same seed give graphs with identical structural
    fingerprints regardless of the value seed.
    """
    rng = np.random.default_rng(structure_seed)
    return {
        "space": int(rng.choice([2, 3])),
        "num_poses": int(rng.integers(2, 6)),
        "gps_at": [i for i in range(1, 6) if rng.random() < 0.4],
        "with_vectors": bool(rng.random() < 0.5),
        "loop_closure": bool(rng.random() < 0.3),
    }


def random_problem(structure_seed, value_seed):
    """A random well-posed mixed graph with decoupled structure/values."""
    spec = random_structure(structure_seed)
    rng = np.random.default_rng(value_seed)
    space, num_poses = spec["space"], spec["num_poses"]
    graph = FactorGraph()
    values = Values()

    poses = [Pose.random(space, rng) for _ in range(num_poses)]
    dim = poses[0].dim
    graph.add(PriorFactor(X(0), poses[0], Isotropic(dim, 0.1)))
    values.insert(X(0), poses[0].retract(0.05 * rng.standard_normal(dim)))
    for i in range(1, num_poses):
        graph.add(BetweenFactor(X(i), X(i - 1),
                                poses[i].ominus(poses[i - 1]),
                                Isotropic(dim, 0.2)))
        values.insert(X(i), poses[i].retract(0.05 * rng.standard_normal(dim)))
        if i in spec["gps_at"]:
            graph.add(GPSFactor(X(i), poses[i].t
                                + 0.1 * rng.standard_normal(space),
                                Isotropic(space, 0.3)))
    if spec["loop_closure"] and num_poses > 2:
        graph.add(BetweenFactor(X(num_poses - 1), X(0),
                                poses[-1].ominus(poses[0]),
                                Isotropic(dim, 0.5)))

    if spec["with_vectors"]:
        a = np.eye(2) + 0.1 * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 1))
        graph.add(PriorFactor(Y(0), rng.standard_normal(2),
                              Isotropic(2, 0.5)))
        values.insert(Y(0), rng.standard_normal(2))
        graph.add(DynamicsFactor(Y(0), U(0), Y(1), a, b, Isotropic(2, 0.1)))
        values.insert(U(0), rng.standard_normal(1))
        values.insert(Y(1), rng.standard_normal(2))
        graph.add(PriorFactor(U(0), np.zeros(1), Isotropic(1, 1.0)))
        graph.add(SmoothnessFactor(Y(0), Y(1), dof=1, dt=0.5,
                                   noise=Isotropic(2, 0.4)))

    return graph, values


def _meta_equal(key, a, b):
    if key in _OBJECT_META:
        return a is b
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    return a == b


def assert_streams_equal(got: Program, expected: Program):
    """Field-by-field instruction-stream equality (np-aware metas)."""
    assert len(got.instructions) == len(expected.instructions), (
        f"stream length {len(got.instructions)} != "
        f"{len(expected.instructions)}"
    )
    for a, b in zip(got.instructions, expected.instructions):
        assert a.uid == b.uid, (a.uid, b.uid)
        assert a.op is b.op, (a.uid, a.op, b.op)
        assert list(a.srcs) == list(b.srcs), (a.uid, a.srcs, b.srcs)
        assert list(a.dsts) == list(b.dsts), (a.uid, a.dsts, b.dsts)
        assert a.phase == b.phase, (a.uid, a.phase, b.phase)
        assert a.algorithm == b.algorithm, (a.uid, a.algorithm, b.algorithm)
        assert set(a.meta) == set(b.meta), (a.uid, set(a.meta) ^ set(b.meta))
        for key in a.meta:
            assert _meta_equal(key, a.meta[key], b.meta[key]), \
                f"uid {a.uid}: meta[{key!r}] differs"
    assert got.register_shapes == expected.register_shapes


def replay_program(compiled, policy="ooo"):
    """The compiled program reordered by the simulator's schedule.

    Runs the cycle-accurate simulator with schedule recording and
    returns a :class:`Program` whose instruction list is sorted by
    ``(start_cycle, uid)`` — the stream :func:`schedule_replay`
    executes, exposed separately so divergence forensics can trace it.
    """
    from repro.eval import ORIANNA_CONFIG
    from repro.sim import Simulator

    result = Simulator(ORIANNA_CONFIG).run(compiled.program, policy,
                                           record_schedule=True)
    order = sorted(compiled.program.instructions,
                   key=lambda i: (result.schedule[i.uid][0], i.uid))
    replay = Program(algorithm=compiled.program.algorithm)
    replay.instructions = order
    replay.register_shapes = dict(compiled.program.register_shapes)
    return replay


def schedule_replay(compiled, policy="ooo"):
    """Execute a compiled program in the simulator's schedule order.

    Any schedule that violates true data dependencies surfaces as an
    unwritten-register error or a wrong solution.
    """
    registers = Executor().run(replay_program(compiled, policy))
    return compiled.extract_solution(registers)


def divergence_forensics(program_a, program_b, align="uid",
                         executor_a=Executor, executor_b=Executor):
    """First-divergence report between two program executions, as text.

    Traces both executions with :mod:`repro.obs.vtrace` (ring disabled:
    the harness only needs localization, the values are re-derivable)
    and renders where the digest streams first disagree.  Returns ""
    when the executions agree — the caller attaches the report to its
    assertion message, turning "the oracles disagree" into "instruction
    #N with this provenance disagrees".

    ``executor_a``/``executor_b`` select the executor class per side, so
    the same machinery localizes interpreter-vs-replay *and*
    interpreter-vs-fused disagreements (pass the same program twice with
    different executors for the latter).
    """
    import os
    import tempfile

    from repro.obs import vtrace
    from repro.obs.divergence import (
        find_divergence,
        load_trace,
        render_divergence,
    )

    with tempfile.TemporaryDirectory() as tmp:
        path_a = os.path.join(tmp, "a.trace")
        path_b = os.path.join(tmp, "b.trace")
        with vtrace.recording_scope(path_a, ring_size=0):
            executor_a().run(program_a)
        with vtrace.recording_scope(path_b, ring_size=0):
            executor_b().run(program_b)
        report = find_divergence(load_trace(path_a), load_trace(path_b),
                                 align=align)
    if report is None:
        return ""
    return render_divergence(report)


def dense_reference(graph: FactorGraph, values: Values):
    """Dense NumPy least-squares solve of the linearized system."""
    return graph.linearize(values).solve_dense()


def call_counter(monkeypatch, owner, name):
    """Count calls to ``owner.<name>`` by wrapping the binding in place.

    Like the layer tracer of the end-to-end benchmark, the wrapper
    replaces the attribute its callers look up (a module global or a
    class attribute), so counting needs no counter in the library.
    Returns a one-element list holding the running count.
    """
    original = getattr(owner, name)
    calls = [0]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def assert_deltas_identical(got, expected, context=""):
    """Per-variable updates equal bit for bit (shape, dtype and bytes)."""
    assert got.keys() == expected.keys(), context
    for key, value in expected.items():
        other = got[key]
        assert other.shape == value.shape and other.dtype == value.dtype \
            and other.tobytes() == value.tobytes(), f"{context} {key}"
