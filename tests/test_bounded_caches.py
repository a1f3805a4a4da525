"""Every process-wide cache in arboreal is bounded, and every test assert
can fail.

Core claims:
    - every ``lru_cache`` in ``src/arboreal``, as a decorator or a call,
      passes an integer ``maxsize``, so no cache grows for the life of the
      process; ``functools.cache``, which has no bound, does not appear
    - no ``assert`` under ``tests/`` has an ``or`` with a constant true
      operand, which would make it hold whatever the code computes
"""

import ast
from pathlib import Path

import arboreal

SRC = Path(arboreal.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _integer(node):
    return isinstance(node, ast.Constant) and type(node.value) is int


def _bounded(call):
    """Whether an ``lru_cache(...)`` call passes an integer maxsize."""
    sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    return len(sizes) == 1 and _integer(sizes[0])


def unbounded_caches(source):
    """The line of every unbounded or unsized cache in ``source``."""
    tree = ast.parse(source)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                lines.append(node.lineno)
        if (isinstance(node, ast.Name) and node.id == "lru_cache") or (
            isinstance(node, ast.Attribute) and node.attr == "lru_cache"
        ):
            call = calls.get(id(node))
            if call is None or not _bounded(call):
                lines.append(node.lineno)
    return lines


def test_the_guard_finds_every_unbounded_form():
    bad = [
        "from functools import lru_cache\n@lru_cache\ndef f(x): pass\n",
        "from functools import lru_cache\n@lru_cache()\ndef f(x): pass\n",
        "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): pass\n",
        "from functools import lru_cache\ng = lru_cache(None)(len)\n",
        "import functools\n@functools.lru_cache\ndef f(x): pass\n",
        "import functools\n@functools.cache\ndef f(x): pass\n",
        "from functools import cache\n",
    ]
    good = [
        "from functools import lru_cache\n@lru_cache(maxsize=4)\ndef f(x): pass\n",
        "from functools import lru_cache\ng = lru_cache(maxsize=32)(len)\n",
        "import functools\n@functools.lru_cache(16)\ndef f(x): pass\n",
    ]
    assert all(unbounded_caches(source) for source in bad)
    assert not any(unbounded_caches(source) for source in good)


def test_every_process_wide_cache_is_bounded():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        assert unbounded_caches(path.read_text()) == [], path


def vacuous_asserts(source):
    """The line of every ``assert`` in ``source`` with an ``or`` that has a
    constant true operand."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
        and any(
            isinstance(op, ast.BoolOp) and isinstance(op.op, ast.Or)
            and any(isinstance(v, ast.Constant) and v.value for v in op.values)
            for op in ast.walk(node.test)
        )
    ]


def test_the_assert_guard_finds_a_constant_true_or():
    assert vacuous_asserts("assert x == y or True\n")
    assert vacuous_asserts("assert f(x) and (x or 1), 'message'\n")
    assert not vacuous_asserts("assert x == y or z\nassert x or False\ny = x or True\n")


def test_no_test_assert_holds_by_a_constant():
    paths = sorted(TESTS.glob("*.py"))
    assert paths
    for path in paths:
        assert vacuous_asserts(path.read_text()) == [], path
