"""The measure on trees and embeddings.

Core claims:
    - closed-form values on the small reference trees, with the empty tree
      assigned one
    - the closed form equals the product of the falling factors of the
      node valences over (t-1)^leaves
    - embedding values are the symbolic ratios, in normal form, under every
      parameter mode and perturbation, computed with no polynomial division,
      with numeric evaluation agreeing with symbolic-then-substitute on
      random parameters
    - multiplicativity: deleting any leaf splits the value by the generator
      of the leaf's marked type (exhaustive at small size)
    - the limit measure is a chain product independent of deletion order
    - degrees: numerator one less than the leaf count, denominator equal
    - the product equation over a base holds on exhausted small diagrams
      and fails under the testing perturbation hook; its signature-grouped
      sum equals the plain sum over the listed amalgamations in every mode,
      also where the base's measure vanishes; it restricts t1 once; the
      sweep over all diagrams pairs only trees over the same base, and at
      seven labels checks its 30,526 diagrams with one comparison each
    - the embedding of a restriction keys no tree
    - finite-level mode enforces the level bound instead of dividing by zero
    - the parsed stars are the stars given as graph data
    - the once-normalized sum of embedding measures equals the sum of the
      embeddings' measures, under perturbations too
"""

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from arboreal import amalgam
from arboreal.amalgam import amalgamations, enumerate_trees
from arboreal.checks import equation_sweep
from arboreal.measure import (
    SYMBOLIC,
    LevelError,
    _embedding_sum,
    MarkedTree,
    ParamSpec,
    marked_type_code,
    marked_y,
    marked_z,
    mu_embedding,
    mu_of_tree,
    mu_sum,
    mu_symbolic,
    set_mu_perturbation,
    star_tree,
    theta_generator_values,
    verify_amalgamation_equation,
)
from arboreal.ratfun import ONE, Poly, RatFun
from arboreal.trees import EMPTY_TREE, Tree, TreeError, _signature, build_tree, parse_tree, shape_key

T = RatFun.t()


def test_closed_forms():
    assert mu_symbolic(EMPTY_TREE) == ONE
    assert mu_symbolic(parse_tree("a")) == T / (T - 1)
    assert mu_symbolic(parse_tree("(a,b)")) == T / (T - 1) ** 2
    assert mu_symbolic(parse_tree("(a,b,c)")) == -T * (T - 2) / (T - 1) ** 3
    assert mu_symbolic(parse_tree("(a,b,(c,d))")) == T * (T - 2) ** 2 / (T - 1) ** 4
    assert mu_symbolic(parse_tree("(a,b,c,d,e,f)")) == -T * (T - 2) * (T - 3) * (T - 4) * (T - 5) / (T - 1) ** 6


def bracket_product(tree):
    """The closed form as a product over the nodes of the falling factors
    (t-2)(t-3)...(t-v+1), one linear factor at a time."""
    if not tree.leaf_count:
        return ONE
    num = Poly((0, 1))
    for v in tree.stats().valences:
        for k in range(2, v):
            num = num * Poly((-k, 1))
    value = RatFun(num, Poly((-1, 1)) ** tree.leaf_count)
    return -value if tree.stats().node_count % 2 else value


def random_tree(rng, leaves, max_group=3):
    """A seeded random tree: groups of 2..max_group parts merged under a new
    node until at most three parts remain."""
    parts = ["l%d" % i for i in range(leaves)]
    while len(parts) > 3:
        k = min(rng.randint(2, max_group), len(parts) - 2)
        group = [parts.pop(rng.randrange(len(parts))) for _ in range(k)]
        parts.append("(%s)" % ",".join(group))
    return parse_tree("(%s)" % ",".join(parts))


def caterpillar(leaves):
    text = "(l0,l1)"
    for i in range(2, leaves):
        text = "(%s,l%d)" % (text, i)
    return parse_tree(text)


def test_closed_form_is_the_bracket_product():
    rng = random.Random(3)
    trees = [t for n in range(8) for t in enumerate_trees("abcdefg"[:n])]
    trees += [random_tree(rng, n, 5) for n in (10, 20, 40)]
    trees += [caterpillar(60), star_tree(30)]
    for t in trees:
        assert mu_symbolic(t) == bracket_product(t), t


def quotient_oracle(sub, sup):
    """The embedding measure by general RatFun division of the two tree
    measures, with its PRS gcd: the definition, computed independently of
    the difference of the two exponent vectors."""
    return mu_symbolic(sup) / mu_symbolic(sub)


def specialized(value, p):
    if p.mode == "symbolic":
        return value
    if p.mode == "infinity":
        if value.num.degree < value.den.degree:
            return 0
        return Fraction(value.num.leading(), value.den.leading())
    return value.evaluate(p.t if p.mode == "numeric" else p.n)


def embedding_cases():
    """(sub, super) pairs: every restriction of one tree per shape with at
    most six labels, so of every such tree up to relabeling; and seeded
    restrictions of random trees and caterpillars up to 300 leaves.  The
    mixed-valence random trees stop at 60 leaves and the larger random
    trees are binary, because the oracle's gcd on factors t-2 and t-3 of
    degree 150 each takes tens of seconds."""
    rng = random.Random(300)
    shapes = {}
    for n in range(1, 7):
        for t in enumerate_trees("abcdef"[:n]):
            shapes.setdefault(shape_key(t), t)
    cases = [
        (t.restrict(kept), t)
        for t in shapes.values()
        for r in range(t.leaf_count + 1)
        for kept in combinations(sorted(t.label_set), r)
    ]
    large = [random_tree(rng, n) for n in (8, 30, 60)]
    large += [random_tree(rng, n, 2) for n in (150, 300)]
    large += [caterpillar(n) for n in (10, 100, 300)]
    for t in large:
        labels = sorted(t.label_set)
        for size in (0, 1, len(labels) // 2, rng.randrange(len(labels)), len(labels)):
            cases.append((t.restrict(rng.sample(labels, size)), t))
    return cases


@pytest.mark.parametrize(
    "scale", [None, Fraction(2), Fraction(1, 2), Fraction(-3, 2), Fraction(-1)]
)
def test_embedding_is_the_quotient_of_measures(scale, monkeypatch):
    """Against the oracle's RatFun division, with no polynomial division
    on the embedding's own path: Poly.divmod raises while it runs."""

    def no_division(self, other):
        raise AssertionError("the embedding measure divided polynomials")

    set_mu_perturbation(scale)
    try:
        for sub, sup in embedding_cases():
            expected = quotient_oracle(sub, sup)
            modes = [
                SYMBOLIC,
                ParamSpec.numeric(Fraction(7, 2)),
                ParamSpec.numeric(2),
                ParamSpec.numeric(0),
                ParamSpec.finite_level(max(3, sup.level)),
                ParamSpec.infinity(),
            ]
            with monkeypatch.context() as m:
                m.setattr(Poly, "divmod", no_division)
                values = [mu_embedding(sub, sup, p) for p in modes]
            for p, value in zip(modes, values):
                assert value == specialized(expected, p), (sub, sup, p)
            e = values[0]
            again = RatFun(e.num, e.den)
            assert (again.num, again.den) == (e.num, e.den)
    finally:
        set_mu_perturbation(None)


def test_embedding_values():
    t5 = parse_tree("(a,b,(c,d))")
    assert mu_embedding(t5, t5) == ONE
    assert mu_embedding(parse_tree("(a,b,c)"), t5) == -(T - 2) / (T - 1)
    with pytest.raises(TreeError):
        mu_embedding(parse_tree("(a,c)"), parse_tree("(x,y)"))
    with pytest.raises(TreeError):
        # labels match but the induced tree differs
        mu_embedding(parse_tree("(a,b,c,d)"), parse_tree("((a,b),(c,d),e)"))


def test_embedding_of_a_restriction_keys_no_tree(keyed_sizes):
    """Exact work: the embedding of a 32-leaf tree's restriction checks the
    restriction by comparing graph data, and keys no tree; an embedding
    whose sub is not a restriction of that form still keys both."""
    rng = random.Random(32)
    tree = parse_tree("(x0,x1,x2)")
    for i in range(3, 32):
        tree = rng.choice(list(tree.insertions(("x%d" % i,))))
    half = rng.sample(sorted(tree.label_set), 16)
    sub = tree.restrict(half)
    assert mu_embedding(sub, tree) == mu_symbolic(tree) / mu_symbolic(sub)
    assert keyed_sizes == []
    renumbered = parse_tree(sub.canonical_key())
    keyed_sizes.clear()
    assert (renumbered.adj, renumbered.labels) != (sub.adj, sub.labels)
    assert mu_embedding(renumbered, tree) == mu_embedding(sub, tree)
    assert sorted(keyed_sizes) == [16, 16]


def test_numeric_agrees_with_symbolic():
    rng = random.Random(13)
    trees = enumerate_trees("abcde")
    for _ in range(30):
        t = trees[rng.randrange(len(trees))]
        q = Fraction(rng.randint(2, 40), rng.choice([1, 3, 7]))
        if q == 1:
            continue
        assert mu_of_tree(t, ParamSpec.numeric(q)) == mu_symbolic(t).evaluate(q)


def test_generator_table_modes():
    sym = theta_generator_values(SYMBOLIC, 5)
    assert sym["x1"] == T / (T - 1)
    assert sym["x2"] == ONE / (T - 1)
    assert sym["x3"] == sym["y"] == sym["z"] == -(T - 2) / (T - 1)
    assert sym["x4"] == (T - 3) / (T - 1)
    assert sym["x5"] == (T - 4) / (T - 1)
    num = theta_generator_values(ParamSpec.numeric(Fraction(7, 2)), 5)
    for k, v in num.items():
        assert v == sym[k].evaluate(Fraction(7, 2))
    inf = theta_generator_values(ParamSpec.infinity(), 5)
    assert inf == {"x1": 1, "x2": 0, "x3": -1, "x4": 1, "x5": 1, "y": -1, "z": -1}
    with pytest.raises(ValueError):
        theta_generator_values(SYMBOLIC, 3)


def test_finite_level_mode():
    p4 = ParamSpec.finite_level(4)
    tri = parse_tree("(a,b,c)")
    quad = parse_tree("(a,b,c,d)")
    five = parse_tree("(a,b,c,d,e)")
    assert mu_of_tree(quad, p4) == mu_symbolic(quad).evaluate(4)
    assert mu_embedding(tri, quad, p4) == Fraction(1, 3)
    with pytest.raises(LevelError):
        mu_of_tree(five, p4)
    with pytest.raises(LevelError):
        mu_embedding(quad, five, p4)
    with pytest.raises(ValueError):
        ParamSpec.finite_level(2)
    with pytest.raises(ValueError):
        ParamSpec.numeric(1)


def test_star_tree_is_the_edge_list_construction():
    """The parsed star equals the star given as explicit graph data."""
    for m in range(1, 9):
        labels = {i: ("v%d" % (i + 1),) for i in range(m)}
        if m == 1:
            want = build_tree([0], [], labels)
        elif m == 2:
            want = build_tree([0, 1], [(0, 1)], labels)
        else:
            want = build_tree(range(m + 1), [(i, m) for i in range(m)], labels)
        assert star_tree(m) == want
    with pytest.raises(ValueError):
        star_tree(0)


def test_marked_type_codes():
    assert marked_type_code(parse_tree("a"), "a") == "I1"
    assert marked_type_code(parse_tree("(a,b)"), "a") == "I2"
    assert marked_type_code(parse_tree("(a,b,c)"), "a") == "I3"
    assert marked_type_code(star_tree(5), "v1") == "I5"
    y = marked_y()
    assert marked_type_code(y.tree, y.mark) == "II"
    z = marked_z()
    assert marked_type_code(z.tree, z.mark) == "III"
    with pytest.raises(TreeError):
        marked_type_code(parse_tree("(a/b,c,d)"), "a")
    with pytest.raises(TreeError):
        MarkedTree(parse_tree("(a/b,c,d)"), "a")


GENERATOR_BY_CODE = {
    "I1": T / (T - 1),
    "I2": ONE / (T - 1),
    "I3": -(T - 2) / (T - 1),
    "II": -(T - 2) / (T - 1),
    "III": -(T - 2) / (T - 1),
}


def generator_value(code):
    if code in GENERATOR_BY_CODE:
        return GENERATOR_BY_CODE[code]
    m = int(code[1:])
    return (T + 1 - m) / (T - 1)


def test_multiplicativity_over_leaf_deletion():
    for n in range(2, 7):
        for t in enumerate_trees("abcdef"[:n]):
            for label in sorted(t.label_set):
                code = marked_type_code(t, label)
                assert mu_symbolic(t) == mu_symbolic(t.drop_leaf(label)) * generator_value(code)


# Limits of the generator values as t grows, by marked type; I_m for
# m >= 4 has limit 1.
INFINITY_BY_CODE = {"I1": 1, "I2": 0, "I3": -1, "II": -1, "III": -1}


def test_infinity_chain_independent_of_order():
    inf = ParamSpec.infinity()
    for n in range(1, 6):
        for t in enumerate_trees("abcde"[:n]):
            # product of generator limits along each deletion chain, by the
            # labels still present
            chains = {}
            for order in permutations(sorted(t.label_set)):
                current, value = t, 1
                for i, l in enumerate(order):
                    value *= INFINITY_BY_CODE.get(marked_type_code(current, l), 1)
                    current = current.drop_leaf(l)
                    chains.setdefault(frozenset(order[i + 1:]), set()).add(value)
            assert chains[frozenset()] == {mu_of_tree(t, inf)}
            for kept, values in chains.items():
                assert values == {mu_embedding(t.restrict(kept), t, inf)}
def test_infinity_embedding_value():
    sub = parse_tree("(a,b,c)")
    sup = parse_tree("((a,x),b,(c,y))")
    assert mu_embedding(sub, sup, ParamSpec.infinity()) == 1
    assert mu_of_tree(parse_tree("(a,b)"), ParamSpec.infinity()) == 0


def test_degrees():
    # the single-vertex tree is the one exception: its value t/(t-1) has
    # numerator degree 1, not 0
    assert mu_symbolic(parse_tree("a")).num.degree == 1
    for n in range(2, 8):
        for t in enumerate_trees("abcdefg"[:n]):
            mu = mu_symbolic(t)
            assert mu.num.degree == t.leaf_count - 1
            assert mu.den.degree == t.leaf_count


def test_equation_examples():
    assert verify_amalgamation_equation(parse_tree("(1,2)"), parse_tree("(3,4,5)")).is_zero()
    base = parse_tree("(1,2,3)")
    assert verify_amalgamation_equation(base, base).is_zero()
    # numeric and finite-level variants of the same instance
    r = verify_amalgamation_equation(parse_tree("(1,2)"), parse_tree("(3,4,5)"), ParamSpec.numeric(Fraction(9, 2)))
    assert r == 0
    r = verify_amalgamation_equation(parse_tree("(1,2)"), parse_tree("(1,4,5)"), ParamSpec.finite_level(3))
    assert r == 0
    # the base's measure vanishes at t = 2 and t = 0; its embedding's does not
    for t in (2, 0):
        assert verify_amalgamation_equation(base, base, ParamSpec.numeric(t)) == 0


def test_equation_sums_every_amalgamation():
    """The residual equals the one the test computes itself, adding the
    measure of each listed amalgamation one by one."""
    modes = [
        SYMBOLIC,
        ParamSpec.numeric(Fraction(7, 2)),
        ParamSpec.finite_level(3),
        ParamSpec.finite_level(4),
        ParamSpec.infinity(),
    ]
    pairs = [
        (parse_tree("(1,2)"), parse_tree("(3,4,5)"), 56),
        (parse_tree("((a,b),(c,d))"), parse_tree("(a,e,f)"), 114),
    ]
    for t1, t2, count in pairs:
        assert len(amalgamations(t1, t2)) == count
        base = t1.restrict(t1.label_set & t2.label_set)
        for p in modes:
            ams = amalgamations(t1, t2, p.n if p.mode == "level" else None)
            total = sum((mu_of_tree(a.whole, p) for a in ams), RatFun.zero() if p is SYMBOLIC else 0)
            lhs = mu_of_tree(t1, p) * mu_of_tree(t2, p) / mu_of_tree(base, p)
            assert verify_amalgamation_equation(t1, t2, p) == lhs - total, (t1, p)


@pytest.mark.parametrize(
    "p",
    [ParamSpec.numeric(Fraction(7, 2)), ParamSpec.numeric(0), ParamSpec.finite_level(4), ParamSpec.infinity()],
)
def test_sum_specializes_the_symbolic_sum(p):
    """Specializing the one symbolic sum equals summing the specialized
    terms, the point and the empty tree (limit 1 at infinity) included."""
    ams = amalgamations(parse_tree("((a,b),(c,d))"), parse_tree("(a,e,f)"), p.n)
    trees = [a.whole for a in ams] + [parse_tree("a"), EMPTY_TREE, parse_tree("b")]
    assert mu_sum(trees, p) == sum(mu_of_tree(z, p) for z in trees)
    assert mu_sum([], p) == 0
    if p.mode == "level":
        with pytest.raises(LevelError):
            mu_sum(trees + [parse_tree("(a,b,c,d,e)")], p)


def test_equation_sweep_small():
    letters = "abcde"
    for total in range(0, 6):
        for a in range(0, total + 1):
            for b in range(0, total - a + 1):
                c = total - a - b
                if a > c:
                    continue
                left = list(letters[:a]) + [x.upper() for x in letters[a : a + b]]
                shared = [x.upper() for x in letters[a : a + b]]
                right = shared + list(letters[a + b : total])
                lefts = enumerate_trees(left) if left else [EMPTY_TREE]
                rights = enumerate_trees(right) if right else [EMPTY_TREE]
                for t1 in lefts:
                    for t2 in rights:
                        if t1.restrict(shared) != t2.restrict(shared):
                            continue
                        assert verify_amalgamation_equation(t1, t2).is_zero()


def _count_comparisons(monkeypatch):
    """Two lists, growing by one per ``Tree.__eq__`` call and per cluster
    pass of a base check."""
    compared, passes = [], []
    eq, base_clusters = Tree.__eq__, amalgam._base_clusters
    monkeypatch.setattr(Tree, "__eq__", lambda self, other: compared.append(1) or eq(self, other))
    monkeypatch.setattr(amalgam, "_base_clusters", lambda *args: passes.append(1) or base_clusters(*args))
    return compared, passes


def test_equation_sweep_pairs_only_matching_bases(monkeypatch):
    """A work guard: the sweep groups the right trees by the key of their
    base, and the base check of ``verify_amalgamation_equation`` compares
    clusters, so no tree is compared (67,820 comparisons while every left
    base was compared with every right base, 2,254 while the base check
    compared restrictions).  The base check runs two cluster passes for each
    of the 1,944 diagrams whose sides share a label."""
    compared, passes = _count_comparisons(monkeypatch)
    assert equation_sweep(6) == (2254, 0)
    assert (len(compared), len(passes)) == (0, 2 * 1944)


def test_equation_sweep_at_seven_labels(monkeypatch):
    """The 7-label sweep checks its 30,526 diagrams with no nonzero
    residual and compares no trees: 8.48 M comparisons while every left
    base was compared with every right base, 30,526 while the base check
    compared restrictions.  27,198 diagrams share a label."""
    compared, passes = _count_comparisons(monkeypatch)
    assert equation_sweep(7) == (30526, 0)
    assert (len(compared), len(passes)) == (0, 2 * 27198)


@pytest.mark.parametrize("scale", [None, Fraction(2), Fraction(-2, 3)])
def test_embedding_sum_is_the_sum_of_embeddings(scale):
    t1, t2 = parse_tree("((a,b),(c,d))"), parse_tree("(a,e,f)")
    wholes = [am.whole for am in amalgamations(t1, t2)]
    set_mu_perturbation(scale)
    try:
        total = sum((mu_embedding(t1, z) for z in wholes), RatFun.zero())
        assert _embedding_sum(t1, Counter(map(_signature, wholes))) == total
    finally:
        set_mu_perturbation(None)


def test_equation_restricts_once(monkeypatch):
    """The base is t1's restriction by construction: one diagram makes one
    Tree.restrict call in verify_amalgamation_equation, none to check the
    embedding, and the enumerator's base check, which compares clusters,
    none at all."""
    calls = []
    restrict = Tree.restrict

    def counting(self, keep):
        calls.append(sys._getframe(1).f_code.co_name)
        return restrict(self, keep)

    monkeypatch.setattr(Tree, "restrict", counting)
    t1, t2 = parse_tree("((a,b),(c,d))"), parse_tree("(a,e,f)")
    for p in (SYMBOLIC, ParamSpec.numeric(Fraction(7, 2)), ParamSpec.finite_level(4), ParamSpec.infinity()):
        calls.clear()
        assert verify_amalgamation_equation(t1, t2, p) == 0
        assert calls == ["verify_amalgamation_equation"], p


def test_perturbation_breaks_the_equation():
    set_mu_perturbation(Fraction(2))
    try:
        r = verify_amalgamation_equation(parse_tree("(1,2)"), parse_tree("(3,4,5)"))
        assert not r.is_zero()
    finally:
        set_mu_perturbation(None)
    assert verify_amalgamation_equation(parse_tree("(1,2)"), parse_tree("(3,4,5)")).is_zero()


def test_measure_is_cached_by_signature():
    """The measure depends only on the leaf count and the node valences."""
    first = mu_symbolic(parse_tree("((a,b),(c,d),e)"))
    assert mu_symbolic(parse_tree("((p,q),r,(s,u))")) is first
    assert mu_symbolic(parse_tree("((a,b),c,d,e)")) != first
