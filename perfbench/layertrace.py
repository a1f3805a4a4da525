"""Per-layer tracing by wrapping arboreal's functions from the outside.

The tracer replaces each traced function with a wrapper that records one
span per call.  Module functions are patched under every name that refers
to them in every loaded ``arboreal`` module (and the benchmark's own
modules), so ``triple_amalgamations`` as imported into ``arboreal.category``
is traced as well as the original; methods are patched on their class.

Spans are not kept one by one: the kernels run millions of times per run,
so the tracer keeps one aggregate per (span name, parent span name) with the
call count, inclusive time and self time (inclusive time minus the time of
directly nested spans).  A layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Tuple

LAYERS = ("trees", "amalgam", "measure", "ratfun", "category", "theta")

# Methods traced besides every public module-level function of a layer.
METHODS: Dict[str, Tuple[str, ...]] = {
    "trees": (
        "Tree.restrict", "Tree.canonical_key", "Tree.shape_key", "Tree.relabel",
        "Tree.merge_labels", "Tree.drop_leaf", "Tree.quaternary", "Tree.stats",
        "Tree.aut_order",
    ),
    "ratfun": (
        "RatFun.__init__", "RatFun.__add__", "RatFun.__sub__", "RatFun.__mul__",
        "RatFun.__truediv__", "RatFun.__neg__", "RatFun.__pow__", "RatFun.evaluate",
        "Poly.gcd", "Poly.divmod", "Poly.__mul__",
    ),
    "category": (
        "ArborealAlgebra.__init__", "ArborealAlgebra.product_row",
        "ArborealAlgebra.multiply", "ArborealAlgebra.utr",
        "ArborealAlgebra.minimal_polynomial", "ArborealAlgebra.transpose_vector",
    ),
}

# Generator methods: their candidates are counted per consumer span, not timed.
GENERATORS = {"trees": ("Tree.insertions",)}

Key = Tuple[str, str]


class Tracer:
    """Aggregated spans: calls, inclusive and self seconds per (name, parent)."""

    def __init__(self):
        self.calls: Dict[Key, int] = {}
        self.total: Dict[Key, float] = {}
        self.self_time: Dict[Key, float] = {}
        self.items: Dict[Key, int] = {}  # generated candidates, results kept
        self.pair_terms = 0  # sum of len(f.terms) * len(g.terms) over compose calls
        self._stack: List[list] = [["<root>", 0.0]]

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                key = (name, parent[0])
                calls[key] = calls.get(key, 0) + 1
                total[key] = total.get(key, 0.0) + elapsed
                self_time[key] = self_time.get(key, 0.0) + elapsed - frame[1]

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        stack, items = self._stack, self.items

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                key = (name, stack[-1][0])
                items[key] = items.get(key, 0) + 1
                yield item

        return counted

    def wrap_kept(self, name: str, fn: Callable) -> Callable:
        """Count the trees a call returns, as kept results of that span."""
        items = self.items

        @functools.wraps(fn)
        def kept(*args, **kwargs):
            out = fn(*args, **kwargs)
            items[(name, "kept")] = items.get((name, "kept"), 0) + len(out)
            return out

        return kept

    def wrap_pairs(self, fn: Callable) -> Callable:
        """Count basis-term pairs of compose(f, g), the triple-cache lookups."""
        tracer = self

        @functools.wraps(fn)
        def paired(f, g, *args, **kwargs):
            tracer.pair_terms += len(f.terms) * len(g.terms)
            return fn(f, g, *args, **kwargs)

        return paired

    # -- installation ------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Patch every traced function and method of the six layers."""
        import arboreal  # noqa: F401  (loads every layer module)

        mods = {layer: sys.modules["arboreal." + layer] for layer in LAYERS}
        replaced: Dict[int, Callable] = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapped = self.wrap("%s.%s" % (layer, attr), obj)
                if attr == "trees_with_restrictions":
                    wrapped = self.wrap_kept("amalgam.trees_with_restrictions", wrapped)
                if attr == "compose":
                    wrapped = self.wrap_pairs(wrapped)
                replaced[id(obj)] = wrapped
            for dotted in METHODS.get(layer, ()):
                cls_name, meth = dotted.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap("%s.%s" % (layer, dotted), vars(cls)[meth]))
            for dotted in GENERATORS.get(layer, ()):
                cls_name, meth = dotted.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap_generator("%s.%s" % (layer, dotted), vars(cls)[meth]))
        targets = [m for n, m in sys.modules.items() if n == "arboreal" or n.startswith("arboreal.")]
        for mod in targets + list(extra_modules):
            for attr, obj in list(vars(mod).items()):
                if callable(obj) and id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])

    # -- reading -----------------------------------------------------------

    def calls_of(self, name: str, parent: str = None) -> int:
        return sum(c for (n, p), c in self.calls.items() if n == name and parent in (None, p))

    def seconds_of(self, name: str) -> float:
        return sum(s for (n, _), s in self.total.items() if n == name)

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s for (n, _), s in self.self_time.items() if n.startswith(prefix))

    def items_of(self, name: str, parent: str = None) -> int:
        return sum(c for (n, p), c in self.items.items() if n == name and parent in (None, p))

    def table(self) -> List[Dict[str, object]]:
        """Every aggregate, for the report: name, parent, calls, seconds."""
        return [
            {
                "span": n,
                "parent": p,
                "calls": c,
                "total_s": self.total[(n, p)],
                "self_s": self.self_time[(n, p)],
            }
            for (n, p), c in sorted(self.calls.items())
        ]
