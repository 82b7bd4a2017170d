"""Outside-in layer tracing: timing wrappers around public entry points.

Each layer is one or more ``(module, attribute)`` bindings.  A binding is
patched where its caller looks it up: a class attribute for methods, the
caller module's global for functions imported by name (for example
``min_degree_ordering`` as ``repro.optim.gauss_newton`` sees it).  Nothing
under ``src/`` is modified; the wrappers live only in the traced child.

A wrapper records time only inside an op window (``begin``/``end``).  A
layer's self time is its wrapped duration minus the durations of wrapped
calls nested inside it, so the self times of all layers plus ``other``
tile the op time exactly.
"""

import contextlib
import functools
import importlib
import time

LAYERS = (
    ("apps.build", "repro.apps.base", "AlgorithmSpec.build"),
    ("compiler.cache.fingerprint", "repro.compiler.cache",
     "graph_structure"),
    ("compiler.cache.rebind", "repro.compiler.cache", "rebind"),
    # Self time is the structural-key lookup and LRU bookkeeping.
    ("compiler.cache.lookup", "repro.compiler.cache",
     "CompilationCache.compile"),
    ("compiler.codegen.compile", "repro.compiler.codegen", "compile_graph"),
    ("compiler.isa.extend", "repro.compiler.isa", "Program.extend"),
    ("compiler.fused.plan", "repro.compiler.fused", "build_plan"),
    ("compiler.fused.run", "repro.compiler.fused", "FusedExecutor.run"),
    ("compiler.executor.run", "repro.compiler.executor", "Executor.run"),
    ("compiler.codegen.extract", "repro.compiler.codegen",
     "CompiledGraph.extract_solution"),
    ("factorgraph.linearize", "repro.factorgraph.graph",
     "FactorGraph.linearize"),
    # EMBED instructions reach the per-factor linearize from inside
    # execute, so the executor's self time excludes host linearization.
    ("factorgraph.linearize", "repro.factorgraph.factor",
     "Factor.linearize"),
    ("factorgraph.error", "repro.factorgraph.graph", "FactorGraph.error"),
    ("factorgraph.retract", "repro.factorgraph.values", "Values.retract"),
    ("factorgraph.ordering", "repro.optim.gauss_newton",
     "min_degree_ordering"),
    ("factorgraph.ordering", "repro.optim.levenberg", "min_degree_ordering"),
    ("factorgraph.eliminate", "repro.optim.gauss_newton",
     "eliminate_and_solve"),
    ("factorgraph.eliminate", "repro.optim.levenberg", "eliminate_and_solve"),
    ("optim.damp", "repro.optim.compiled", "damped_nonlinear_graph"),
    ("optim.damp", "repro.optim.levenberg", "damped_graph"),
    # Self time is backend dispatch: executor construction and spans.
    ("optim.solver", "repro.optim.compiled", "CompiledSolver.solve"),
    ("optim.step", "repro.optim.gauss_newton", "delta_is_finite"),
    ("optim.step", "repro.optim.gauss_newton", "step_norm"),
    ("optim.step", "repro.optim.levenberg", "delta_is_finite"),
    ("optim.step", "repro.optim.levenberg", "step_norm"),
    ("sim.run", "repro.sim.engine", "Simulator.run"),
)

LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))


class _GroupTotals:
    def __init__(self):
        self.ops = 0
        self.op_ns = 0
        self.self_ns = dict.fromkeys(LAYER_NAMES, 0)
        self.incl_ns = dict.fromkeys(LAYER_NAMES, 0)
        self.calls = dict.fromkeys(LAYER_NAMES, 0)


class LayerTracer:
    """Per-group self time, inclusive time and call counts of each layer.

    ``calls`` and inclusive time count only the outermost entry into a
    layer, so ``FactorGraph.linearize`` calling ``Factor.linearize`` once
    per factor is one linearize call.
    """

    def __init__(self):
        self.groups = {}
        self._totals = None
        self._stack = []
        self._depth = dict.fromkeys(LAYER_NAMES, 0)

    def begin(self, group):
        self._totals = self.groups.setdefault(group, _GroupTotals())

    def end(self, op_ns):
        self._totals.ops += 1
        self._totals.op_ns += op_ns
        self._totals = None

    def wrap(self, layer, fn):
        clock = time.perf_counter_ns
        stack = self._stack
        depth = self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            totals = self._totals
            if totals is None:
                return fn(*args, **kwargs)
            frame = [0]
            stack.append(frame)
            depth[layer] += 1
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                depth[layer] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                totals.self_ns[layer] += elapsed - frame[0]
                if depth[layer] == 0:
                    totals.incl_ns[layer] += elapsed
                    totals.calls[layer] += 1

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding in :data:`LAYERS`; restore them on exit."""
        saved = []
        try:
            for layer, module_name, attribute in LAYERS:
                owner = importlib.import_module(module_name)
                *path, name = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[name]
                saved.append((owner, name, original))
                setattr(owner, name, self.wrap(layer, original))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def summary(self):
        """JSON-ready totals: ``{group: {ops, op_ns, layers: {...}}}``."""
        return {
            group: {
                "ops": totals.ops,
                "op_ns": totals.op_ns,
                "layers": {
                    layer: {"self_ns": totals.self_ns[layer],
                            "incl_ns": totals.incl_ns[layer],
                            "calls": totals.calls[layer]}
                    for layer in LAYER_NAMES
                },
            }
            for group, totals in self.groups.items()
        }
