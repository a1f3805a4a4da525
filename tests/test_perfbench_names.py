"""The names the benchmark traces exist in arboreal.

Core claims:
    - every method and generator that ``perfbench/layertrace.py`` patches
      is defined on its class, so ``--trace 1`` can install its tracer
    - every dotted span name that ``layer_metrics`` in
      ``perfbench/worker.py`` reads names a traced function or method, so
      no per-layer metric reads zero because its function was renamed or
      deleted
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", PERFBENCH / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def span_names():
    """The dotted string arguments of the tracer reads in ``layer_metrics``."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    func = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "layer_metrics")
    return {
        arg.value
        for call in ast.walk(func)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        for arg in call.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str) and "." in arg.value
    }


def test_traced_methods_are_defined_on_their_classes():
    layertrace = load_layertrace()
    for layer, names in [*layertrace.METHODS.items(), *layertrace.GENERATORS.items()]:
        module = importlib.import_module("arboreal." + layer)
        for dotted in names:
            cls_name, meth = dotted.split(".")
            assert meth in vars(getattr(module, cls_name)), (layer, dotted)


def test_metric_span_names_resolve_to_traced_callables():
    layertrace = load_layertrace()
    names = span_names()
    assert "amalgam.triple_amalgamations" in names and "category.ArborealAlgebra.product_row" in names
    for name in names:
        layer, rest = name.split(".", 1)
        assert layer in layertrace.LAYERS, name
        module = importlib.import_module("arboreal." + layer)
        if "." in rest:
            assert rest in layertrace.METHODS.get(layer, ()) + layertrace.GENERATORS.get(layer, ()), name
            cls_name, meth = rest.split(".")
            assert meth in vars(getattr(module, cls_name)), name
        else:
            # the tracer wraps the public functions a layer module defines
            fn = getattr(module, rest, None)
            assert callable(fn) and not rest.startswith("_"), name
            assert fn.__module__ == module.__name__, name
