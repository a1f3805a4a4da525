"""The command line.

Core claims:
    - the documented invocations produce the documented JSON
    - exit codes: 0 on success, 1 on verification failure, 2 on bad input,
      among it a level bound below 3
    - output bytes are identical across repeated runs
    - the measure-perturbation hook makes the product-equation check fail,
      which is how the harness proves the reference suite can fail; a
      malformed scale exits 2, and no run leaves the perturbation set; a
      malformed --t or --at exits 2 with the same kind of message
    - large inputs finish: 2,000-leaf trees and embeddings, and the Gram
      determinant of the 548-dimensional algebra of (1,2,3)
    - ten labels meet the listing cap: exit 2 within bounded memory, never
      a traceback, while the count of the same trees is printed; sixteen
      labels meet the class cap; `enumerate --count` prints what the
      listing counts; a `verify` sweep whose largest listing passes the
      listing cap is refused before it lists any tree
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import arboreal
from arboreal import checks, measure
from arboreal.category import algebra_for
from arboreal.cli import TREE_TEXT_CAP, run
from arboreal.ratfun import parse_poly
from arboreal.trees import parse_tree


def payload(argv):
    code, out = run(argv)
    assert code == 0, out
    return json.loads(out)


def test_measure_symbolic_example():
    data = payload(["measure", "--tree", "(a,b,(c,d))", "--symbolic"])
    assert data["mu"] == "t^3-4*t^2+4*t / t^4-4*t^3+6*t^2-4*t+1"
    assert data["schema"] == "arboreal/1"


def test_amalgamate_count_and_shapes():
    data = payload(["amalgamate", "--t1", "(1,2)", "--t2", "(3,4,5)", "--count"])
    assert data["count"] == 56
    data = payload(["amalgamate", "--t1", "(1,2)", "--t2", "(3,4,5)", "--by-shape"])
    assert sorted(item["count"] for item in data["by_shape"]) == [1, 6, 6, 10, 15, 18]
    # within level 3: the shape classes of sizes 15, 18, and 6 survive
    data = payload(["amalgamate", "--t1", "(1,2)", "--t2", "(3,4,5)", "--max-level", "3", "--count"])
    assert data["count"] == 39


def test_amalgamate_stream_counts_match_the_listing():
    stars = ["--t1", "(a1,a2,a3,a4)", "--t2", "(b1,b2,b3,b4)"]
    listing = payload(["amalgamate"] + stars)
    assert listing["count"] == len(listing["amalgamations"]) == 2642
    assert payload(["amalgamate"] + stars + ["--count"])["count"] == 2642
    shapes = payload(["amalgamate"] + stars + ["--by-shape"])
    assert shapes["count"] == sum(item["count"] for item in shapes["by_shape"]) == 2642


def test_enumerate(capsys):
    data = payload(["enumerate", "--labels", "a,b,c,d"])
    assert data["count"] == 4 and len(data["trees"]) == 4
    data = payload(["enumerate", "--labels", "a,b,c,d,e", "--max-level", "3", "--count"])
    assert data["count"] == 15
    assert payload(["enumerate", "--labels", ",".join("abcdefghij"), "--count"])["count"] == 12818912
    for bound in ([], ["--max-level", "3"], ["--max-level", "4"]):
        listing = payload(["enumerate", "--labels", "a,b,c,d,e,f,g"] + bound)
        count = payload(["enumerate", "--labels", "a,b,c,d,e,f,g", "--count"] + bound)
        assert count == {k: v for k, v in listing.items() if k != "trees"}
    capsys.readouterr()
    assert run(["enumerate", "--labels", ",".join("abcdefghijklmnop"), "--count"]) == (2, "")
    assert capsys.readouterr().err == "error: quotient label set has 16 classes (cap 15)\n"
    for bad in (["a,b,c", "--max-level", "2"], ["a,a,b"]):
        assert run(["enumerate", "--labels"] + bad + ["--count"])[0] == 2


def test_a_raised_label_cap_meets_the_frontier_cap():
    """Ten labels have 12,818,912 trees, and 2,027,025 at level 3.  Both
    counts come from the label count and the level bound; the unbounded
    listing is refused past LISTING_CAP before any tree is built, while the
    count holds no tree, so it is printed.  The command runs in a child
    process limited to 1.5 GB of address space."""
    src = os.path.dirname(os.path.dirname(arboreal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for bound in ([], ["--max-level", "3", "--count"]):
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))\n"
            "from arboreal.cli import main\n"
            "sys.argv[1:] = %r\n"
            "main()\n"
        ) % (["enumerate", "--labels", "a,b,c,d,e,f,g,h,i,j"] + bound,)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
        if bound:
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["count"] == 2027025
        else:
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr == "error: enumeration listing exceeded 1000000 trees\n"
            assert proc.stdout == ""


def test_measure_modes_and_errors():
    data = payload(["measure", "--tree", "(a,b,c,d,e)", "--t", "4"])
    assert data["mu"] == "0"
    data = payload(["measure", "--tree", "(a,b,c)", "--level", "3"])
    assert data["mu"] == "-3/8"
    data = payload(["measure", "--sub", "(a,b,c)", "--super", "(a,b,(c,d))", "--symbolic"])
    assert data["value"] == "-t+2 / t-1"
    data = payload(["measure", "--tree", "(a,b)", "--infinity"])
    assert data["mu"] == "0"
    assert run(["measure", "--tree", "(a,a)"])[0] == 2
    assert run(["measure", "--tree", "(a,b)", "--t", "1"])[0] == 2
    assert run(["measure", "--tree", "(a,b,c,d)", "--level", "3"])[0] == 2
    assert run(["measure"])[0] == 2
    assert run(["measure", "--sub", "(a,b)"])[0] == 2


def test_algebra_operations():
    data = payload(["algebra", "gram", "--tree", "(1,2)", "--at", "3"])
    assert data["semisimple_at"]["nondegenerate"] is False
    assert data["semisimple_at"]["witness"] == "(s:1,s:2,t:1,t:2)"
    assert len(data["gram"]) == 10
    data = payload(["algebra", "gram", "--tree", "(1,2)", "--at", "7/2"])
    assert data["semisimple_at"]["nondegenerate"] is True

    data = payload(
        [
            "algebra", "compose", "--tree", "(1,2)",
            "--f", "(s:1/t:2,s:2/t:1)",
            "--g", "((s:1,t:1),(s:2,t:2))",
        ]
    )
    from arboreal.trees import parse_tree

    swapped_quartet = parse_tree("((s:1,t:2),(s:2,t:1))").canonical_key()
    assert [t["amalgamation"] for t in data["result"]["terms"]] == [swapped_quartet]

    data = payload(
        [
            "algebra", "trace", "--tree", "(1,2)",
            "--u", "((s:1,t:1),(s:2,t:2))",
            "--v", "((s:1,t:1),(s:2,t:2))",
            "--w", "((s:1,t:1),(s:2,t:2))",
        ]
    )
    assert data["triple_trees"] == 16

    b3 = json.dumps(
        [
            {"amalgamation": "((s:1,t:1),(s:2,t:2))", "coeff": "1/2"},
            {"amalgamation": "((s:1,t:2),(s:2,t:1))", "coeff": "-1/2"},
        ]
    )
    data = payload(["algebra", "minpoly", "--tree", "(1,2)", "--e", b3])
    assert data["degree"] == 3 and data["minpoly"][0] == "0"

    data = payload(["algebra", "idempotent", "--tree", "(1,2)", "--e", "(s:1/t:1,s:2/t:2)"])
    assert data["is_idempotent"] is True and data["udim_image"] == "t / t^2-2*t+1"

    assert run(["algebra", "trace", "--tree", "(1,2)"])[0] == 2
    assert run(["algebra", "minpoly", "--tree", "(1,2)", "--e", "(a,b)"])[0] == 2


def test_verify_suites(monkeypatch, capsys):
    # the relation sources are the minimal marked trees with at most N
    # leaves: stars with 1..N leaves, Y from N = 4 and Z from N = 5
    expected = {
        1: ["x1"],
        3: ["x1", "x2", "x3"],
        4: ["x1", "x2", "x3", "x4", "y"],
        5: ["x1", "x2", "x3", "x4", "x5", "y", "z"],
        6: ["x1", "x2", "x3", "x4", "x5", "x6", "y", "z"],
    }
    for n, sources in expected.items():
        data = payload(["verify", "relations", "--max-leaves", str(n)])
        assert [rel["source"] for rel in data["relations"]] == sources, n
        assert data["failures"] == 0 and data["cases"] == len(sources) + 6
    code, out = run(["verify", "measure-axioms", "--max-leaves", "4"])
    assert code == 0 and json.loads(out)["failures"] == 0
    code, out = run(["verify", "separated", "--max-leaves", "4"])
    assert code == 0 and json.loads(out)["failures"] == 0
    # the trees on ten labels pass LISTING_CAP: both sweeps are refused before they list any tree
    monkeypatch.setattr(checks, "enumerate_trees", None)
    capsys.readouterr()
    for suite in ("measure-axioms", "separated"):
        assert run(["verify", suite, "--max-leaves", "10"]) == (2, "")
        assert capsys.readouterr().err == "error: enumeration listing exceeded 1000000 trees\n"


def test_paper_check_single_scope():
    code, out = run(["paper-check", "--scope", "sec1-census-total"])
    assert code == 0
    assert out.splitlines()[0].startswith("PASS sec1-census-total")
    code, out = run(["paper-check", "--scope", "sec1-census-total", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True and len(data["checks"]) == 1
    assert run(["paper-check", "--scope", "nonsense"])[0] == 2


def test_byte_stability():
    argv = ["amalgamate", "--t1", "(1,2)", "--t2", "(3,4,5)"]
    assert run(argv) == run(argv)
    argv = ["algebra", "gram", "--tree", "(1,2)"]
    assert run(argv) == run(argv)


def test_mutation_hook_fails_the_equation_check(monkeypatch):
    monkeypatch.setenv("ARBOREAL_MUTATE_MU", "2")
    code, out = run(["paper-check", "--scope", "sec1-equation"])
    assert code == 1
    assert out.splitlines()[0].startswith("FAIL sec1-equation")
    monkeypatch.delenv("ARBOREAL_MUTATE_MU")
    code, _ = run(["paper-check", "--scope", "sec1-equation"])
    assert code == 0


def test_a_malformed_mutation_scale_exits_2(monkeypatch, capsys):
    """A scale that is not a rational number is refused with exit 2, and
    no run leaves a perturbation behind, not even one refused by the
    argument parser."""
    for scale in ("abc", "1/0"):
        monkeypatch.setenv("ARBOREAL_MUTATE_MU", scale)
        assert run(["enumerate", "--labels", "a,b,c"]) == (2, "")
        assert capsys.readouterr().err == "error: ARBOREAL_MUTATE_MU is not a rational number: %r\n" % scale
        assert measure._PERTURB_PER_LEAF is None
    monkeypatch.setenv("ARBOREAL_MUTATE_MU", "2")
    assert run(["enumerate", "--no-such-option"])[0] == 2
    assert measure._PERTURB_PER_LEAF is None


def test_a_malformed_rational_argument_exits_2(capsys):
    """--t and --at that are not rational numbers are refused with exit 2,
    no stdout and arboreal's own message, as a malformed mutation scale is."""
    for flag, argv in (("--t", ["measure", "--tree", "(a,b,c)", "--t"]),
                       ("--at", ["algebra", "gram", "--tree", "(1,2)", "--at"])):
        for text in ("1/0", "abc"):
            assert run(argv + [text]) == (2, "")
            assert capsys.readouterr().err == "error: %s is not a rational number: %r\n" % (flag, text)


def caterpillar(leaves: int) -> str:
    text = "(l0,l1)"
    for i in range(2, leaves):
        text = "(%s,l%d)" % (text, i)
    return text


def closed_form(t: Fraction, leaves: int, valences) -> Fraction:
    """(-1)^nodes * t * prod over nodes of (t-2)...(t-v+1) / (t-1)^leaves."""
    value = Fraction((-1) ** len(valences)) * t / (t - 1) ** leaves
    for v in valences:
        for k in range(2, v):
            value *= t - k
    return value


def assert_closed_form(mu: str, leaves: int, valences) -> None:
    """mu, printed as num / den, is the closed-form measure."""
    num, den = (parse_poly(side) for side in mu.split(" / "))
    assert (num.degree, den.degree) == (1 + sum(v - 2 for v in valences), leaves)
    for t in (Fraction(1, 2), Fraction(-2), Fraction(7, 3), Fraction(-5, 4)):
        assert num.evaluate(t) / den.evaluate(t) == closed_form(t, leaves, valences)


def test_usage_errors(capsys):
    assert run(["amalgamate", "--t1", "(1,2)"])[0] == 2
    assert run(["no-such-command"])[0] == 2
    assert run(["enumerate", "--labels", "a,b", "--bogus-flag"])[0] == 2
    code, out = run(["measure", "--tree", caterpillar(1501)])
    assert code == 0
    assert_closed_form(json.loads(out)["mu"], 1501, [3] * 1499)
    capsys.readouterr()
    star = "(%s)" % ",".join("l%d" % i for i in range(TREE_TEXT_CAP // 3))
    assert len(star) > TREE_TEXT_CAP
    for argv in (["measure", "--tree", star], ["amalgamate", "--t1", star, "--t2", "(a,b)"],
                 ["measure", "--sub", "(l0,l1)", "--super", star],
                 ["algebra", "minpoly", "--tree", "(1,2)", "--e", star]):
        assert run(argv) == (2, "")
        assert "exceeds the cap" in capsys.readouterr().err


def test_element_specs_are_checked(capsys):
    for spec in ('[1]', '[{}]', '[{"amalgamation": 5}]', '[[[]]]'):
        assert run(["algebra", "minpoly", "--tree", "(1,2)", "--e", spec]) == (2, "")
        assert '"amalgamation"' in capsys.readouterr().err


def test_level_bounds_below_three_are_rejected(capsys):
    for level in ("2", "0", "-1"):
        for argv in (["algebra", "gram", "--tree", "(1,2)"],
                     ["amalgamate", "--t1", "(1,2)", "--t2", "(3,4,5)"],
                     ["amalgamate", "--t1", "(1,2)", "--t2", "(3,4,5)", "--count"],
                     ["amalgamate", "--t1", "(1,2)", "--t2", "(3,4,5)", "--by-shape"]):
            assert run(argv + ["--max-level", level]) == (2, ""), (argv, level)
            assert "max_level must be at least 3" in capsys.readouterr().err


def test_measure_of_large_trees():
    """A 2,000-leaf caterpillar and a 2,000-leaf random tree get the closed
    form, and so does the embedding of half the random tree's labels in it;
    the tree kernel has no recursion limit."""
    code, out = run(["measure", "--tree", caterpillar(2000), "--symbolic"])
    assert code == 0
    assert_closed_form(json.loads(out)["mu"], 2000, [3] * 1998)
    rng = random.Random(2000)
    parts, valences = ["l%d" % i for i in range(2000)], []
    while len(parts) > 3:
        k = 3 if len(parts) > 4 and rng.random() < 0.5 else 2
        group = [parts.pop(rng.randrange(len(parts))) for _ in range(k)]
        parts.append("(%s)" % ",".join(group))
        valences.append(k + 1)
    text = "(%s)" % ",".join(parts)
    code, out = run(["measure", "--tree", text, "--symbolic"])
    assert code == 0
    assert_closed_form(json.loads(out)["mu"], 2000, valences + [3])
    tree = parse_tree(text)
    sub = tree.restrict(rng.sample(sorted(tree.label_set), 1000))
    code, out = run(["measure", "--sub", sub.canonical_key(), "--super", text, "--symbolic"])
    assert code == 0
    num, den = (parse_poly(side) for side in json.loads(out)["value"].split(" / "))
    for t in (Fraction(1, 2), Fraction(-2), Fraction(7, 3), Fraction(-5, 4)):
        whole = closed_form(t, 2000, valences + [3])
        assert num.evaluate(t) / den.evaluate(t) == whole / closed_form(t, 1000, sub.stats().valences)


def test_gram_determinant_of_the_548_dimensional_algebra():
    """The determinant of the trace pairing of (1,2,3), read from the basis
    signatures, is the product of the closed forms of the 548 basis trees
    (its transposition sign is +1), checked at two points without the
    factored display."""
    alg = algebra_for(parse_tree("(1,2,3)"))
    assert alg.dim == 548
    det = alg.gram_det()
    stats = [am.whole.stats() for am in alg.basis]
    for t in (Fraction(7, 2), Fraction(-5, 4)):
        expected = Fraction(1)
        for s in stats:
            expected *= closed_form(t, s.leaf_count, s.valences)
        assert det.evaluate(t) == expected
