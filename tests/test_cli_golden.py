"""Byte-identity of the command line against recorded output.

``tests/data/cli_golden.json`` holds the exact stdout and exit code of every
invocation in ``CASES``: the README examples (all but the full
``paper-check``), full amalgamation listings, level-bounded algebra
operations, the ``sec5`` report, two operations in the 548-dimensional
algebra of ``(1,2,3)`` and the embedding of a 17-leaf restriction in a
31-leaf tree with node valences up to 5, symbolic, at t = 7/3 and at
level 5, and amalgamations of a two-label leaf and of a t1 larger than t2.
A change that reorders a listing, renames a key or reformats a value fails
here.

Regenerate the file (only when an output change is deliberate) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import os

import pytest

from arboreal.cli import run

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")

_B3 = json.dumps(
    [
        {"amalgamation": "((s:1,t:1),(s:2,t:2))", "coeff": "1/2"},
        {"amalgamation": "((s:1,t:2),(s:2,t:1))", "coeff": "-1/2"},
    ]
)
_QUARTET = "((s:1,t:1),(s:2,t:2))"
# 31 leaves, node valences 3 to 5, and its restriction to 17 labels
_SUPER = ("((a1,a2,a3,(a4,a5)),(b1,b2,(b3,b4,b5),b6),((c1,c2),c3,c4,(c5,c6,c7)),"
          "(d1,(d2,d3,d4,d5)),((e1,e2,e3),(e4,e5),e6,(f1,f2)))")
_SUB = "(((((b3,b5),b1),((c5,c7),c1,c3),((d3,d5),d1),(a1,a3,a5)),e5,f1),e1,e3)"


def _algebra(level):
    bound = [] if level is None else ["--max-level", str(level)]
    return [
        ["algebra", "gram", "--tree", "(1,2)", "--at", "3"] + bound,
        ["algebra", "compose", "--tree", "(1,2)", "--f", "(s:1/t:2,s:2/t:1)", "--g", _QUARTET] + bound,
        ["algebra", "trace", "--tree", "(1,2)", "--u", _QUARTET, "--v", _QUARTET, "--w", _QUARTET] + bound,
        ["algebra", "trace", "--tree", "(1,2)", "--e", _B3] + bound,
        ["algebra", "minpoly", "--tree", "(1,2)", "--e", _B3] + bound,
        ["algebra", "idempotent", "--tree", "(1,2)", "--e", "(s:1/t:1,s:2/t:2)"] + bound,
    ]


CASES = [
    ["enumerate", "--labels", "a,b,c,d"],
    ["enumerate", "--labels", "a,b,c,d,e", "--max-level", "3", "--count"],
    ["amalgamate", "--t1", "(1,2)", "--t2", "(3,4,5)", "--count"],
    ["amalgamate", "--t1", "(1,2)", "--t2", "(3,4,5)", "--by-shape"],
    ["amalgamate", "--t1", "(1,2)", "--t2", "(1,4,5)", "--count"],
    ["amalgamate", "--t1", "(1,2)", "--t2", "(3,4,5)", "--max-level", "3", "--count"],
    ["amalgamate", "--t1", "(1,2)", "--t2", "(3,4,5)"],
    ["amalgamate", "--t1", "(1,2)", "--t2", "(1,4,5)"],
    ["amalgamate", "--t1", "(1,2)", "--t2", "(3,4,5)", "--max-level", "3"],
    ["amalgamate", "--t1", "(1,2)", "--t2", "(3,4,5)", "--max-level", "3", "--by-shape"],
    ["measure", "--tree", "(a,b,(c,d))", "--symbolic"],
    ["measure", "--tree", "(a,a)"],
    ["measure", "--tree", "(a,b,c,d,e)", "--t", "4"],
    ["measure", "--tree", "(a,b,c)", "--level", "3"],
    ["measure", "--sub", "(a,b,c)", "--super", "(a,b,(c,d))", "--symbolic"],
    ["measure", "--tree", "(a,b)", "--infinity"],
    *_algebra(None),
    *_algebra(3),
    ["verify", "measure-axioms", "--max-leaves", "5"],
    ["verify", "separated", "--max-leaves", "5"],
    ["verify", "relations", "--max-leaves", "5"],
    ["paper-check", "--scope", "sec6"],
    ["paper-check", "--scope", "sec1-census-total", "--json"],
    ["paper-check", "--scope", "sec5", "--json"],
    ["algebra", "compose", "--tree", "(1,2,3)", "--f", "((s:1,t:1),s:2/t:2,s:3/t:3)",
     "--g", "((s:1,s:2),s:3/t:3,(t:1,t:2))", "--max-level", "4"],
    ["algebra", "minpoly", "--tree", "(1,2,3)", "--e", "((s:1,s:2),s:3/t:3,(t:1,t:2))"],
    *(["measure", "--sub", _SUB, "--super", _SUPER] + mode
      for mode in (["--symbolic"], ["--t", "7/3"], ["--level", "5"])),
    ["amalgamate", "--t1", "(1/3,2)", "--t2", "(3,4,5)", "--count"],
    ["amalgamate", "--t1", "(1/3,2)", "--t2", "(3,4,5)", "--by-shape"],
    ["amalgamate", "--t1", "(1/3,2)", "--t2", "(3,4,5)"],
    ["amalgamate", "--t1", "(1,4,5)", "--t2", "(1,2)"],
    ["amalgamate", "--t1", "(1,4,5)", "--t2", "(1,2)", "--max-level", "3"],
]


def _record():
    return [{"argv": argv, "code": code, "stdout": out} for argv in CASES for code, out in [run(argv)]]


def _golden():
    with open(GOLDEN) as f:
        return json.load(f)


def test_golden_covers_every_case():
    assert [case["argv"] for case in _golden()] == CASES


@pytest.mark.parametrize("i", range(len(CASES)), ids=lambda i: "%02d-%s" % (i, CASES[i][0]))
def test_cli_output_matches_golden(i):
    case = _golden()[i]
    assert run(case["argv"]) == (case["code"], case["stdout"])


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as f:
        json.dump(_record(), f, indent=1)
        f.write("\n")
