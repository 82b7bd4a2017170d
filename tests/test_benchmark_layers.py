"""The end-to-end benchmark's layer bindings resolve in the library.

``benchmarks/e2e/layers.py`` times each layer by patching named
bindings (a class attribute, or a caller module's global) in its traced
child, which exits 2 when one is missing.  This test resolves every
``LAYERS`` entry the way ``LayerTracer.installed`` does, so a refactor
that drops or moves a patched name fails here too.
"""

import importlib
import importlib.util
import pathlib

LAYERS_PATH = (pathlib.Path(__file__).parent.parent / "benchmarks" / "e2e"
               / "layers.py")


def load_layers():
    spec = importlib.util.spec_from_file_location("e2e_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def missing_bindings(layers):
    """``module:attribute`` of every binding ``installed`` cannot patch."""
    missing = []
    for _, module_name, attribute in layers:
        *path, name = attribute.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in path:
                owner = getattr(owner, part)
            owner.__dict__[name]
        except (AttributeError, ImportError, KeyError):
            missing.append(f"{module_name}:{attribute}")
    return missing


def test_every_layer_binding_resolves():
    layers = load_layers().LAYERS
    assert layers
    assert missing_bindings(layers) == []


def test_a_dropped_binding_is_named():
    layers = (("optim.step", "repro.optim.levenberg", "no_such_step"),
              ("optim.step", "repro.optim.no_such_module", "step_norm"),
              ("optim.solver", "repro.optim.compiled",
               "NoSuchSolver.solve"))
    assert missing_bindings(layers) == [
        "repro.optim.levenberg:no_such_step",
        "repro.optim.no_such_module:step_norm",
        "repro.optim.compiled:NoSuchSolver.solve",
    ]
