"""One benchmark child process: set up one workload, run its ops, print JSON.

``run.py`` starts this file in a fresh interpreter per measurement::

    python3 benchmarks/e2e/worker.py '{"workload": "solve-gn", "seed": 0,
                                       "mode": "measure", "rounds": 10,
                                       "seconds": 30}'

``mode`` is one of

- ``setup``: import ``repro`` and warm the workload up, nothing else;
- ``measure``: set up, then run ``rounds`` rounds of ops, untraced;
- ``trace``: the same with the layer wrappers of ``layers.py`` installed
  for the rounds.  Set-up is identical, so round ``r`` of a traced child
  meets the same compile-cache state as round ``r`` of a measuring one.

``seconds`` only caps a run on a host too slow to finish its rounds: no
round starts once that much time has passed.

The last stdout line is one JSON document with raw measurements; all
statistics are computed by ``run.py``.  The system under test is driven
only through its public API, one op at a time, from this one thread.
"""

import contextlib
import heapq
import json
import os
import resource
import statistics
import sys
import time

SETUP_STARTED = time.perf_counter()  # before numpy/repro are imported

import numpy as np  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SEED_BASELINE = os.path.join(REPO_ROOT, "benchmarks", "baseline",
                             "BENCH_seed.json")

WARMUP_SEED_OFFSET = 10000

# The solve workloads run a fixed iteration budget with the convergence
# tolerances at zero, the way a real-time loop with a per-frame budget
# runs.  With the default tolerances the iteration count of one graph
# swings between 1 and 25 (GN) or 2 and 101 linear solves (LM) from one
# seed to the next, so per-class medians depended on which seeds a run
# drew.  LM keeps its damping at a fixed, large lambda: at the default
# schedule lambda decays towards 1e-12 and every converged iterate then
# triggers a data-dependent cascade of rejected trials.  GN bounds its
# step norm: unbounded, a few Quadrotor localization seeds wander off to
# errors of 1e7-1e10 and the backends' different summation order grows
# to a few 1e-6 of the final error; bounded, they agree to ~1e-11.
SOLVE_ITERATIONS = 8
GN_MAX_STEP_NORM = 10.0
LM_LAMBDA = 1e3
ERROR_RTOL = 1e-6
ERROR_ATOL = 1e-12

_CAL_RNG = np.random.default_rng(20240427)
_CAL_MATRIX = _CAL_RNG.standard_normal((12, 7))
_CAL_VECTOR = _CAL_RNG.standard_normal(7)
CAL_PROBES = 8


def _probe_ns():
    started = time.perf_counter_ns()
    heap = []
    table = {}
    for i in range(300):
        heapq.heappush(heap, ((i * 7919) % 1013, i))
        table[i] = i & 3
    while heap:
        when, i = heapq.heappop(heap)
        table[i] += when
    for _ in range(4):
        np.linalg.qr(_CAL_MATRIX, mode="r")
        _CAL_MATRIX @ _CAL_VECTOR
        _CAL_MATRIX.T @ _CAL_MATRIX
    return time.perf_counter_ns() - started


def calibrate():
    """Host-speed probe: ~2 ms of fixed work, in ms.

    Event-queue and dict work like the simulator's, plus QR and products
    on MO-ISA-sized operands.  The code never changes with the system
    under test, so it tracks only how fast the host runs right now.  It
    is the median of short probes, scaled to the whole kernel, so that
    one interrupt does not move it.
    """
    probes = [_probe_ns() for _ in range(CAL_PROBES)]
    return CAL_PROBES * statistics.median(probes) / 1e6


class Runner:
    """Times ops in a closed loop, one op in flight, calibrating between.

    Every op window is bracketed by calibration samples: the sample taken
    after one op is the sample before the next.  An exception inside an
    op is recorded as that op's failure; the run continues.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = []
        self.cal_ms = [calibrate()]

    def timed(self, round_index, cls, group, fn):
        tracer = self.tracer
        error = None
        value = None
        if tracer is not None:
            tracer.begin(group)
        started = time.perf_counter_ns()
        try:
            value = fn()
        except Exception as exc:  # an op that raises is a failed op
            error = f"{type(exc).__name__}: {exc}"
        elapsed_ns = time.perf_counter_ns() - started
        if tracer is not None:
            tracer.end(elapsed_ns)
        before = self.cal_ms[-1]
        self.cal_ms.append(calibrate())
        record = {"round": round_index, "cls": cls, "group": group,
                  "raw_ms": elapsed_ns / 1e6,
                  "cal_ms": [before, self.cal_ms[-1]], "error": error}
        self.ops.append(record)
        return value, record


def _registers_equal(a, b):
    if a.keys() != b.keys():
        return False
    for name, value in a.items():
        other = b[name]
        if value.shape != other.shape or value.dtype != other.dtype \
                or value.tobytes() != other.tobytes():
            return False
    return True


class FrameWorkload:
    """One op: ``compile_frame`` -> ``FusedExecutor.run`` -> ``Simulator.run``.

    The control op is the interpreter ``Executor.run`` on the same frame
    program; its register file must equal the fused one bitwise.
    """

    def __init__(self, policy):
        from repro.apps import all_applications
        from repro.eval.experiments import ORIANNA_CONFIG
        from repro.sim import Simulator

        self.policy = policy
        self.apps = all_applications()
        self.sim = Simulator(ORIANNA_CONFIG)
        self.expected = {}

    def classes(self):
        return [app.name for app in self.apps]

    def warm_up(self, seed):
        from repro.compiler import Executor, FusedExecutor

        programs = [app.compile_frame(seed) for app in self.apps]
        for program in programs:
            FusedExecutor().run(program)
            Executor().run(program)
        self.sim.run(min(programs, key=len), self.policy)

    def expect_seed_baseline(self):
        """Round 0 at seed 0 must reproduce the committed OoO baseline."""
        with open(SEED_BASELINE) as fh:
            workloads = json.load(fh)["workloads"]
        self.expected = {
            app.name: (workloads[f"{app.name}/ooo"]["total_cycles"],
                       workloads[f"{app.name}/ooo"]["energy_mj"])
            for app in self.apps
        }

    def run_round(self, runner, round_index, seed):
        from repro.compiler import Executor, FusedExecutor

        for app in self.apps:
            def frame_op(app=app):
                program = app.compile_frame(seed)
                registers = FusedExecutor().run(program)
                return program, registers, self.sim.run(program, self.policy)

            out, record = runner.timed(round_index, app.name, "fused",
                                       frame_op)
            if out is None:
                continue
            program, registers, result = out
            record["cycles"] = result.total_cycles
            record["energy_mj"] = result.energy_mj
            record["instructions"] = len(program.instructions)
            reference, _ = runner.timed(
                round_index, app.name, "ref", lambda: Executor().run(program))
            if reference is None:
                continue
            if not _registers_equal(registers, reference):
                record["error"] = "fused register file differs from the " \
                                  "interpreter's"
            expected = self.expected.get(app.name) if round_index == 0 \
                else None
            if expected is not None and \
                    (result.total_cycles, result.energy_mj) != expected:
                record["error"] = (
                    f"seed-0 baseline mismatch: {result.total_cycles} cycles"
                    f" / {result.energy_mj!r} mJ, expected {expected[0]} /"
                    f" {expected[1]!r}")


class SolveWorkload:
    """One op: a full GN or LM solve with ``backend="fused"`` on one graph.

    The control op is the same solve with ``backend="reference"`` on the
    same graph; which of the two runs first alternates by round.
    """

    def __init__(self, algorithm):
        from repro.apps import all_applications
        from repro.optim.gauss_newton import GaussNewtonParams, gauss_newton
        from repro.optim.levenberg import LevenbergParams, levenberg_marquardt

        no_tolerance = dict(absolute_error_tol=0.0, relative_error_tol=0.0,
                            step_tol=0.0)
        if algorithm == "gn":
            self.solve = gauss_newton
            self.params = GaussNewtonParams(max_iterations=SOLVE_ITERATIONS,
                                            max_step_norm=GN_MAX_STEP_NORM,
                                            **no_tolerance)
            self.warm_params = GaussNewtonParams(max_iterations=1)
        else:
            self.solve = levenberg_marquardt
            self.params = LevenbergParams(max_iterations=SOLVE_ITERATIONS,
                                          initial_lambda=LM_LAMBDA,
                                          min_lambda=LM_LAMBDA,
                                          **no_tolerance)
            self.warm_params = LevenbergParams(max_iterations=1)
        self.graphs = [(app, name) for app in all_applications()
                       for name in app.algorithm_names]

    def classes(self):
        return [f"{app.name}.{name}" for app, name in self.graphs]

    def warm_up(self, seed):
        for app, name in self.graphs:
            graph, values = app.build_graphs(seed, [name])[name]
            for backend in ("fused", "reference"):
                self.solve(graph, values, self.warm_params, backend=backend)

    def run_round(self, runner, round_index, seed):
        backends = ("fused", "reference") if round_index % 2 == 0 \
            else ("reference", "fused")
        for app, name in self.graphs:
            cls = f"{app.name}.{name}"
            graph, values = app.build_graphs(seed, [name])[name]
            results = {}
            records = {}
            for backend in backends:
                group = "fused" if backend == "fused" else "ref"
                results[group], records[group] = runner.timed(
                    round_index, cls, group,
                    lambda b=backend: self.solve(graph, values, self.params,
                                                 backend=b))
            fused, ref = results["fused"], results["ref"]
            if fused is None or ref is None:
                continue
            record = records["fused"]
            record["iterations"] = len(fused.iterations)
            error_fused = graph.error(fused.values)
            error_ref = graph.error(ref.values)
            tolerance = ERROR_RTOL * max(abs(error_fused), abs(error_ref)) \
                + ERROR_ATOL
            if fused.converged != ref.converged:
                record["error"] = (f"converged differs: fused "
                                   f"{fused.converged}, reference "
                                   f"{ref.converged}")
            elif not abs(error_fused - error_ref) <= tolerance:
                record["error"] = (f"final error differs: fused "
                                   f"{error_fused!r}, reference "
                                   f"{error_ref!r}")


def make_workload(name):
    if name == "frame-ooo":
        return FrameWorkload("ooo")
    if name == "frame-inorder":
        return FrameWorkload("inorder")
    if name == "solve-gn":
        return SolveWorkload("gn")
    if name == "solve-lm":
        return SolveWorkload("lm")
    raise ValueError(f"unknown workload {name!r}")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workload, runner, seed, rounds, seconds):
    """``rounds`` rounds, fewer if ``seconds`` pass first (at least one).

    Returns the rounds done and the peak RSS after the first one, which
    does not depend on whether the cap cut the run short.
    """
    started = time.perf_counter()
    done = 0
    while done < rounds:
        workload.run_round(runner, done, seed + done)
        done += 1
        if done == 1:
            peak = peak_rss_mb()
        if time.perf_counter() - started >= seconds:
            break
    return done, peak


def main(argv):
    spec = json.loads(argv[1])
    seed = int(spec["seed"])
    workload = make_workload(spec["workload"])
    imported = time.perf_counter()
    workload.warm_up(seed + WARMUP_SEED_OFFSET)
    warmed = time.perf_counter()
    setup_cal_ms = [calibrate() for _ in range(5)]
    out = {"workload": spec["workload"], "mode": spec["mode"], "seed": seed,
           "import_s": imported - SETUP_STARTED,
           "warm_up_s": warmed - imported, "setup_cal_ms": setup_cal_ms,
           "classes": workload.classes()}
    if spec["mode"] != "setup":
        from repro.bench.history import host_fingerprint

        if seed == 0 and spec["workload"] == "frame-ooo":
            workload.expect_seed_baseline()
        tracer = None
        if spec["mode"] == "trace":
            from layers import LayerTracer

            tracer = LayerTracer()
        runner = Runner(tracer)
        with tracer.installed() if tracer else contextlib.nullcontext():
            rounds, peak = run_rounds(workload, runner, seed, spec["rounds"],
                                      spec["seconds"])
        out.update(rounds=rounds, ops=runner.ops, cal_ms=runner.cal_ms,
                   peak_rss_mb=peak, host=host_fingerprint())
        if tracer is not None:
            out["layers"] = tracer.summary()
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
