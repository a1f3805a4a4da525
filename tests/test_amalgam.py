"""Amalgamation enumeration.

Core claims:
    - the pruned insertion search agrees with a naive enumerate-then-filter
      oracle on every case small enough for the oracle
    - the census values for the edge and three-star pair are reproduced
      (56 in total, six over a one-point base, shape multiplicities)
    - every output satisfies both restriction equations, re-checked
    - the census is symmetric in the two sides
    - node valences of an amalgamation are bounded by the sum of the sides'
      caps (level when nodes exist, leaf count otherwise)
    - every base diagram on at most five labels has at least one amalgamation
    - triple extensions restrict correctly on all three block pairs, and a
      triple listing is the naive oracle's amalgamations of the two wholes
    - guided site selection keeps exactly what filtering every insertion
      candidate keeps, and builds no tree it does not keep
    - the constrained search checks its cap and labels; the enumerators
      check their bounds once per enumeration, not once per matching, and
      reject level bounds below 3
    - the stream yields each amalgamation once and keys none of them; the
      consumers that count, group by shape or sum measures key no whole tree
    - the count and the product equation read the last level from its sites:
      the signatures and the count equal those of the built trees, and no
      last-level tree is built; the walk grafts one path before its first
      yield, and every listing, and only a listing, is refused past
      LISTING_CAP before any last-level graft, an enumeration before any
      graft at all
    - one search per pair starts from one side's tree as its seed, joining
      or grafting the other side's free classes: the listing, the count and
      the signatures equal those of the unseeded search over every matching,
      the clade pass runs only for the other side's leaves, and two 5-stars'
      count makes an exact number of grafts
    - listing, count and shape sum agree on every seeded case: a listed
      leaf may carry a whole leaf class of one side, while the public
      constructor refuses a leaf with two labels of one side
"""

import json
import random
from collections import Counter
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal import amalgam
from arboreal.amalgam import (
    AmalgamError,
    Amalgamation,
    amalgamation_trees,
    amalgamations,
    count_by_shape,
    enumerate_trees,
    fresh_copy,
    self_amalgamations,
    triple_amalgamations,
    trees_with_restrictions,
)
from arboreal.cli import run
from arboreal.measure import verify_amalgamation_equation
from arboreal.theta import separated, separated_bruteforce
from arboreal.trees import EMPTY_TREE, Tree, TreeError, parse_tree


def forced_classes(t1: Tree, t2: Tree):
    """Labels sharing a leaf of either tree form one forced class; returns
    the sorted classes and those lying inside t1's and t2's private labels,
    the free classes that a matching may pair up."""
    i1, i2 = t1.label_set, t2.label_set
    base = i1 & i2
    assert t1.restrict(base) == t2.restrict(base)
    forced = {l: {l} for l in i1 | i2}
    for tree in (t1, t2):
        for ls in tree.labels:
            joined = set().union(*(forced[l] for l in ls))
            for l in joined:
                forced[l] = joined
    classes = sorted({tuple(sorted(c)) for c in forced.values()})
    free1 = [c for c in classes if (i1 - base).issuperset(c)]
    free2 = [c for c in classes if (i2 - base).issuperset(c)]
    return classes, free1, free2


def partial_matchings(a, b):
    """Partial injective matchings a -> b in lexicographic order."""
    for k in range(min(len(a), len(b)) + 1):
        for asub in combinations(a, k):
            for bperm in permutations(b, k):
                yield tuple(zip(asub, bperm))


def oracle_amalgamations(t1: Tree, t2: Tree):
    """Enumerate every tree on each quotient label set, then filter.

    Independent of the production path: no pruning, plain enumeration over
    one representative label per leaf class, with the class's other labels
    attached afterwards.  The free choices match classes of t1's private
    labels with classes of t2's (see :func:`forced_classes`).
    """
    i1, i2 = t1.label_set, t2.label_set
    classes, free1, free2 = forced_classes(t1, t2)
    found = {}
    for matching in partial_matchings(free1, free2):
        matched = {c for pair in matching for c in pair}
        leaves = [c for c in classes if c not in matched] + [a + b for a, b in matching]
        for tree in enumerate_trees(c[0] for c in leaves):
            whole = tree.merge_labels({c[0]: c[1:] for c in leaves})
            if whole.restrict(i1) == t1 and whole.restrict(i2) == t2:
                found[whole.canonical_key()] = whole
    return found


def filtered_insertions(classes, constraints):
    """Insert the classes in order into the empty tree, building every
    candidate of ``Tree.insertions`` and keeping those whose restrictions
    match: the unguided reference for ``trees_with_restrictions`` without a
    level bound.
    """
    if not classes:
        return trees_with_restrictions(classes, constraints)
    inserted = set()
    current = {EMPTY_TREE.canonical_key(): EMPTY_TREE}
    for cls in sorted(classes, key=min):
        inserted |= set(cls)
        checks = [
            (visible, expected.restrict(visible))
            for subset, expected in constraints
            if subset & set(cls)
            for visible in [frozenset(subset & inserted)]
        ]
        nxt = {}
        for t in current.values():
            for cand in t.insertions(cls):
                if all(cand.restrict(visible) == want for visible, want in checks):
                    nxt.setdefault(cand.canonical_key(), cand)
        current = nxt
    return [current[k] for k in sorted(current)]


def joined_class_sets(seed, classes, constraints):
    """The leaf classes of the trees a search from ``seed`` may end in, one
    list per partial matching of the seed's free leaf classes (those meeting
    the labels of one constraint only) with ``classes``, each matched pair
    merged into one class."""
    fixed = [ls for ls in seed.labels if ls]
    free = [c for c in fixed if sum(1 for subset, _ in constraints if subset & set(c)) == 1]
    for matching in partial_matchings(free, list(classes)):
        matched = {c for pair in matching for c in pair}
        merged = [tuple(sorted(a + b)) for a, b in matching]
        yield [c for c in fixed + list(classes) if c not in matched] + merged


EDGE = parse_tree("(1,2)")
STAR = parse_tree("(3,4,5)")


def test_census_of_edge_and_star():
    ams = amalgamations(EDGE, STAR)
    assert len(ams) == 56
    assert sorted(count_by_shape(EDGE, STAR).values()) == [1, 6, 6, 10, 15, 18]
    assert len(amalgamations(EDGE, parse_tree("(1,4,5)"))) == 6


def test_agrees_with_naive_oracle():
    cases = [
        (EDGE, STAR),
        (EDGE, parse_tree("(1,4,5)")),
        (parse_tree("a"), parse_tree("b")),
        (parse_tree("a"), parse_tree("a")),
        (EMPTY_TREE, STAR),
        (parse_tree("(a,b,c)"), fresh_copy(parse_tree("(a,b,c)"))),
        (parse_tree("((1,2),(3,4))"), parse_tree("((3,4),(5,6))")),
    ]
    for t1, t2 in cases:
        got = {a.key for a in amalgamations(t1, t2)}
        assert got == set(oracle_amalgamations(t1, t2))


def test_small_censuses():
    assert len(amalgamations(parse_tree("a"), parse_tree("a"))) == 1
    assert [a.key for a in amalgamations(EMPTY_TREE, STAR)] == [STAR.canonical_key()]
    # the identified leaf carries both labels, so its shape records two
    assert count_by_shape(parse_tree("a"), parse_tree("b")) == Counter({"**": 1, "(*,*)": 1})
    assert len(self_amalgamations(parse_tree("a"))) == 2
    assert len(self_amalgamations(EDGE)) == 10


def test_base_mismatch_raises():
    t1 = parse_tree("((1,2),(3,4),x)")
    t2 = parse_tree("((1,3),(2,4),y)")
    assert t1.restrict("1234") != t2.restrict("1234")
    with pytest.raises(AmalgamError):
        amalgamations(t1, t2)


def grown_tree(rng, labels, multi=0.25):
    """A tree grown by grafting the labels in turn at random sites; each
    label after the first joins the leaf of an earlier one instead with
    probability ``multi``."""
    tree = EMPTY_TREE
    for l in labels:
        if tree.label_set and rng.random() < multi:
            tree = tree.merge_labels({rng.choice(sorted(tree.label_set)): [l]})
        else:
            tree = tree._graft(rng.choice(tree.sites()), (l,))
    return tree


@settings(max_examples=300, deadline=None, database=None)
@given(st.randoms(use_true_random=False), st.sampled_from(["none", "one", "all", "some"]),
       st.integers(2, 6), st.booleans())
def test_base_check_agrees_with_restriction_equality(rng, sharing, n, common):
    """The base check compares clusters, never restrictions: it refuses a
    pair exactly when the two restrictions to the shared labels differ.
    The sides restrict one common tree (their bases agree) or are grown
    apart (they mostly differ when three or more labels are shared); leaves
    carry several labels, shared and private, about a quarter of the
    time."""
    labels = ["l%d" % i for i in range(n)]
    k = {"none": 0, "one": 1, "all": n, "some": rng.randint(2, n)}[sharing]
    shared = labels[:k]
    left = shared + ["a%d" % i for i in range(n - k)]
    right = shared + ["b%d" % i for i in range(rng.randint(0 if k else 1, 3))]
    if common:
        whole = grown_tree(rng, rng.sample(left + right[k:], len(left) + len(right) - k))
        t1, t2 = whole.restrict(left), whole.restrict(right)
    else:
        t1, t2 = grown_tree(rng, rng.sample(left, len(left))), grown_tree(rng, rng.sample(right, len(right)))
    agree = t1.restrict(shared) == t2.restrict(shared)
    try:
        amalgam._amalgamation_classes(t1, t2, None)
    except AmalgamError as exc:
        assert not agree and "base restrictions disagree" in str(exc)
    else:
        assert agree


def test_outputs_satisfy_restrictions():
    for am in amalgamations(EDGE, STAR):
        assert am.left_tree() == EDGE
        assert am.right_tree() == STAR
    with pytest.raises(AmalgamError):
        # a leaf carrying two labels from the same side is never valid
        Amalgamation(parse_tree("(1/2,3)"), frozenset("12"), frozenset("3"))


def test_symmetry_of_the_census():
    lowers = [parse_tree(s) for s in ("a", "(a,b)", "(a,b,c)")]
    uppers = [parse_tree(s) for s in ("X", "(X,Y)", "(X,Y,Z)")]
    for t1 in lowers:
        for t2 in uppers:
            left = amalgamations(t1, t2)
            right = amalgamations(t2, t1)
            assert {a.key for a in left} == {a.key for a in right}
            for a in left:
                swapped = a.swap()
                assert swapped.left_tree() == t2 and swapped.right_tree() == t1


def amalgamation_cap(tree: Tree) -> int:
    # a side with no internal vertex still pins down as many branches as it
    # has leaves, so the level alone is not the right cap for it
    return tree.level if tree.node_count else tree.leaf_count


def test_level_bound():
    trees3 = enumerate_trees("abc") + enumerate_trees("ab") + enumerate_trees("a")
    trees3b = [t.relabel({l: l.upper() for l in t.label_set}) for t in trees3]
    for t1 in trees3:
        for t2 in trees3b:
            bound = amalgamation_cap(t1) + amalgamation_cap(t2)
            for am in amalgamations(t1, t2):
                assert am.whole.level <= bound
    # the bound is attained: two edges make a four-star
    keys = {a.key for a in amalgamations(parse_tree("(a,b)"), parse_tree("(c,d)"))}
    assert parse_tree("(a,b,c,d)").canonical_key() in keys


def test_max_level_filter():
    full = amalgamations(EDGE, STAR)
    capped = amalgamations(EDGE, STAR, max_level=3)
    assert {a.key for a in capped} == {a.key for a in full if a.whole.level <= 3}


def test_level_bounds_below_three_are_rejected():
    x = amalgamations(EDGE, fresh_copy(EDGE, "b:"))[0]
    y = amalgamations(fresh_copy(EDGE, "b:"), STAR)[0]
    for level in (2, 0, -1):
        for enumerate_with in (
            lambda: amalgamations(EDGE, STAR, level),
            lambda: amalgam._amalgamation_count(EDGE, STAR, level),
            lambda: triple_amalgamations(x, y, level),
            lambda: trees_with_restrictions([("a",), ("b",), ("c",)], (), level),
        ):
            with pytest.raises(TreeError, match="max_level must be at least 3"):
                enumerate_with()


def test_amalgamation_property_small_diagrams():
    letters = "abcde"
    for total in range(0, 6):
        for a in range(0, total + 1):
            for b in range(0, total - a + 1):
                c = total - a - b
                left = letters[:a] + letters[a : a + b].upper()
                right = letters[a : a + b].upper() + letters[a + b : total]
                lefts = enumerate_trees(list(left)) if left else [EMPTY_TREE]
                rights = enumerate_trees(list(right)) if right else [EMPTY_TREE]
                shared = list(letters[a : a + b].upper())
                for t1 in lefts:
                    for t2 in rights:
                        if t1.restrict(shared) != t2.restrict(shared):
                            continue
                        assert amalgamations(t1, t2), (t1, t2)


def test_self_amalgamations_fresh_copy_and_order():
    star = parse_tree("(a,b,c)")
    ams = self_amalgamations(star)
    keys = [a.key for a in ams]
    assert keys == sorted(keys)
    assert all(a.left == star.label_set for a in ams)
    with pytest.raises(AmalgamError):
        fresh_copy(parse_tree("(a,t:a)"))


def test_triple_amalgamations_consistency():
    x = next(
        a
        for a in amalgamations(parse_tree("1:a"), parse_tree("2:a"))
        if len(a.whole.label_set) == 2 and a.whole.leaf_count == 2
    )
    y = Amalgamation(
        x.whole.relabel({"1:a": "2:a", "2:a": "3:a"}), frozenset(("2:a",)), frozenset(("3:a",))
    )
    triples = triple_amalgamations(x, y)
    assert triples
    for z, y13 in triples:
        assert z.pair(0, 1).whole == x.whole
        assert z.pair(1, 2).whole == y.whole
        assert y13.whole == z.whole.restrict(z.blocks[0] | z.blocks[2])


def test_triple_listing_is_the_oracle_on_the_two_wholes():
    """Every chain of point and edge basis amalgamations, on blocks 1:/2:
    and 2:/3:, lists exactly the naive oracle's amalgamations of its two
    wholes, within each level bound."""
    objects = [parse_tree("p"), parse_tree("(p,q)")]
    for chain in product(objects, repeat=3):
        b1, b2, b3 = (fresh_copy(o, "%d:" % (n + 1)) for n, o in enumerate(chain))
        for x in amalgamations(b1, b2):
            for y in amalgamations(b2, b3):
                want = oracle_amalgamations(x.whole, y.whole)
                for max_level in (None, 3):
                    got = [z.key for z, _ in triple_amalgamations(x, y, max_level)]
                    assert got == sorted(k for k, z in want.items() if max_level is None or z.level <= max_level)


def test_triple_contains_the_diagonal():
    tree = parse_tree("(a,b)")
    diag12 = Amalgamation(
        parse_tree("(1:a/2:a,1:b/2:b)"), frozenset(("1:a", "1:b")), frozenset(("2:a", "2:b"))
    )
    diag23 = Amalgamation(
        parse_tree("(2:a/3:a,2:b/3:b)"), frozenset(("2:a", "2:b")), frozenset(("3:a", "3:b"))
    )
    triples = triple_amalgamations(diag12, diag23)
    all_diag = parse_tree("(1:a/2:a/3:a,1:b/2:b/3:b)")
    assert any(z.whole == all_diag for z, _ in triples)


def test_triple_block_mismatch():
    x = Amalgamation(parse_tree("(1:a/2:a,1:b/2:b)"), frozenset(("1:a", "1:b")), frozenset(("2:a", "2:b")))
    with pytest.raises(AmalgamError):
        triple_amalgamations(x, x)
    # the middle trees disagree: the base check of the pair stream refuses
    middle = frozenset(("2:a", "2:b", "2:c", "2:d"))
    x = Amalgamation(parse_tree("((2:a,2:b),(2:c,2:d),1:x)"), frozenset(("1:x",)), middle)
    y = Amalgamation(parse_tree("((2:a,2:c),(2:b,2:d),3:y)"), middle, frozenset(("3:y",)))
    with pytest.raises(AmalgamError, match="base restrictions disagree"):
        triple_amalgamations(x, y)


def test_multi_label_leaf_amalgamates_as_one_leaf():
    """A leaf carrying a/b amalgamates like a leaf carrying a alone, with b
    riding along, in the stream, the count and the listing alike."""
    t1, t2 = parse_tree("(a/b,c)"), parse_tree("(d,e)")
    wholes = list(amalgamation_trees(t1, t2))
    plain = amalgamations(parse_tree("(a,c)"), t2)
    assert len(wholes) == len(plain) == 10
    assert all(w.leaf_of("a") == w.leaf_of("b") for w in wholes)
    assert sorted(w.restrict(frozenset("acde")).canonical_key() for w in wholes) == [a.key for a in plain]
    assert verify_amalgamation_equation(t1, t2).is_zero()
    t = parse_tree("((a,b/x),e,(c,d))")
    assert separated(t, "a", "c") == separated_bruteforce(t, "a", "c")
    code, out = run(["amalgamate", "--t1", "(a/b,c)", "--t2", "(d,e)", "--count"])
    assert code == 0 and '"count": 10' in out
    code, out = run(["amalgamate", "--t1", "(a/b,c)", "--t2", "(d,e)"])
    listing = json.loads(out)["amalgamations"]
    assert code == 0 and sorted(a["whole"] for a in listing) == sorted(w.canonical_key() for w in wholes)


def test_constrained_search_empty_cases():
    assert trees_with_restrictions((), ((frozenset(), EMPTY_TREE),)) == [EMPTY_TREE]
    assert trees_with_restrictions((), ((frozenset("a"), parse_tree("a")),)) == []


def test_constrained_search_checks(monkeypatch):
    """The public search keeps its cap and label checks; the enumerators
    run them once per enumeration, on the classes before the search, and
    raise the cap error when the stream is first read.  Each pair and each
    triple is one search, whatever its identifications."""
    e = parse_tree("(a,b,c)")
    cases = [
        ([("a",), ("b",), ("a",)], r"duplicate label 'a'"),
        ([("a",), ("b c",)], r"malformed label 'b c'"),
        ([("a",), ("b",), ("z",)], r"unknown labels \['z'\]"),
    ]
    for classes, message in cases:
        with pytest.raises(TreeError, match=message):
            trees_with_restrictions(classes, ((frozenset("abz"), e),))
    with pytest.raises(AmalgamError, match=r"16 classes \(cap 15\)"):
        trees_with_restrictions([("x%d" % i,) for i in range(16)], ())
    stars = [parse_tree("(%s)" % ",".join("%s%d" % (side, i) for i in range(8))) for side in "ab"]
    stream = amalgamation_trees(*stars)
    with pytest.raises(AmalgamError, match=r"16 classes \(cap 15\)"):
        next(stream)

    checks, searches = [], []
    check, search = amalgam._check_classes, amalgam._trees_with_restrictions
    monkeypatch.setattr(amalgam, "_check_classes",
                        lambda *args: checks.append(1) or check(*args))
    monkeypatch.setattr(amalgam, "_trees_with_restrictions",
                        lambda *args: searches.append(1) or search(*args))
    t1, t2 = parse_tree("(a1,a2,a3)"), parse_tree("(b1,b2,b3)")
    assert len(list(amalgamation_trees(t1, t2))) == 548
    assert (len(checks), len(searches)) == (1, 1)
    x = amalgamations(t1, fresh_copy(t1, "b:"))[0]
    y = amalgamations(fresh_copy(t1, "b:"), t2)[0]
    checks.clear(), searches.clear()
    assert len(triple_amalgamations(x, y)) == 437
    assert (len(checks), len(searches)) == (1, 1)


def test_guided_insertion_matches_filtered_candidates(monkeypatch):
    """Site selection keeps exactly the candidates the restriction filter
    keeps, each once, on every call the enumerators make: the filter grows,
    from the empty tree, the leaf classes of each way to join the seed's
    free leaves with the classes left to insert (see
    :func:`joined_class_sets`).  A level bound keeps the unbounded results
    within it, since inserting a leaf never lowers a valence."""
    guided = amalgam._trees_with_restrictions
    unbounded = {}
    calls = []

    def checked(classes, constraints, max_level, seed=EMPTY_TREE):
        got = list(guided(classes, constraints, max_level, seed))
        key = (tuple(ls for ls in seed.labels if ls), tuple(classes),
               tuple((s, t.canonical_key()) for s, t in constraints))
        if key not in unbounded:
            unbounded[key] = [t for leaves in joined_class_sets(seed, classes, constraints)
                              for t in filtered_insertions(leaves, constraints)]
        want = [t for t in unbounded[key] if max_level is None or t.level <= max_level]
        keys = [t.canonical_key() for t in got]
        assert len(set(keys)) == len(keys)
        assert sorted(keys) == sorted(t.canonical_key() for t in want)
        assert all(ls == tuple(sorted(ls)) for t in got for ls in t.labels)
        calls.append(len(got))
        return iter(got)

    # the trees are listed before the search is wrapped, which the listing
    # would otherwise run through
    listed = [enumerate_trees("abcdef"[:n]) for n in range(1, 7)]
    monkeypatch.setattr(amalgam, "_trees_with_restrictions", checked)
    rng = random.Random(17)
    for n in range(1, 7):
        for tree in listed[n - 1]:
            sides = [rng.choice("LRB") for _ in range(n)]
            labels = sorted(tree.label_set)
            left = [l for l, s in zip(labels, sides) if s in "LB"]
            right = [l for l, s in zip(labels, sides) if s in "RB"]
            t1, t2 = tree.restrict(left), tree.restrict(right)
            for max_level in (None, 3, 4):
                amalgamations(t1, t2, max_level)
    objects = [parse_tree(s) for s in ("p", "(p,q)", "(p,q,r)")]
    for chain in [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]:
        b1, b2, b3 = (fresh_copy(objects[i], "%d:" % (c + 1)) for c, i in enumerate(chain))
        xs, ys = amalgamations(b1, b2), amalgamations(b2, b3)
        for x, y in rng.sample([(x, y) for x in xs for y in ys], min(4, len(xs) * len(ys))):
            for max_level in (None, 3, 4):
                triple_amalgamations(x, y, max_level)
    assert (len(calls), sum(calls)) == (1185, 42330)


def counting_grafts(monkeypatch):
    """Patch :meth:`Tree._graft` to record the labels of every graft."""
    built = []
    graft = Tree._graft
    monkeypatch.setattr(Tree, "_graft", lambda self, site, labels: built.append(labels) or graft(self, site, labels))
    return built


def test_guided_insertion_builds_only_kept_trees(monkeypatch):
    """Deterministic work: every tree the guided search builds is kept.
    The search starts from t1 and inserts b1, ..., b4 in turn, each grafted
    or joined to an a-leaf, so its k-th level is the amalgamations of t1
    with t2 restricted to b1, ..., bk, which the filter lists.  The listing
    counts its last level first, so it builds the 1,147 trees above it
    twice."""
    graft = Tree._graft
    built = counting_grafts(monkeypatch)
    t1, t2 = parse_tree("(a1,a2,a3,a4)"), parse_tree("(b1,b2,b3,b4)")
    assert len(list(amalgamation_trees(t1, t2))) == 2642
    assert len(built) == 3789
    built.clear()
    assert len(amalgamations(t1, t2)) == 2642
    assert len(built) == 1147 + 3789
    monkeypatch.setattr(Tree, "_graft", graft)
    levels = []
    for k in range(1, 5):
        t2k = t2.restrict(["b%d" % i for i in range(1, k + 1)])
        constraints = ((t1.label_set, t1), (t2k.label_set, t2k))
        classes = [(l,) for l in sorted(t2k.label_set)]
        levels.append(sum(len(filtered_insertions(leaves, constraints))
                          for leaves in joined_class_sets(t1, classes, constraints)))
    assert levels == [9, 90, 1048, 2642]


STAR4_A, STAR4_B = parse_tree("(a1,a2,a3,a4)"), parse_tree("(b1,b2,b3,b4)")


def test_stream_yields_each_amalgamation_once_unkeyed():
    for t1, t2, max_level in [(EDGE, STAR, None), (EDGE, STAR, 3), (EDGE, parse_tree("(1,4,5)"), None),
                              (STAR4_A, STAR4_B, None)]:
        wholes = list(amalgamation_trees(t1, t2, max_level))
        assert all(t._key is None for t in wholes)
        keys = [t.canonical_key() for t in wholes]
        assert len(set(keys)) == len(keys)
        assert sorted(keys) == [a.key for a in amalgamations(t1, t2, max_level)]
    x, y = self_amalgamations(EDGE)[3], self_amalgamations(fresh_copy(EDGE))[7]
    wholes = list(amalgamation_trees(x.whole, y.whole))
    assert all(z._key is None for z in wholes)
    triples = triple_amalgamations(x, y)
    assert sorted(z.canonical_key() for z in wholes) == [z.key for z, _ in triples]
    assert all(y3.whole == z.whole.restrict(x.left | y.right) for z, y3 in triples)


def test_stream_consumers_key_no_whole_tree(monkeypatch, keyed_sizes):
    """Counting, shapes, the product equation and the separation verdict
    read the stream: no tree of two 4-stars' search is keyed, and with no
    seed to check, neither is any restriction."""
    assert parse_tree("(a,b,c)").canonical_key() and keyed_sizes == [3]
    keyed_sizes.clear()
    assert sum(count_by_shape(STAR4_A, STAR4_B).values()) == 2642
    assert verify_amalgamation_equation(STAR4_A, STAR4_B).is_zero()
    assert keyed_sizes == []
    # two of its three amalgamations settle "not separated": the count stops
    drawn = []

    def counted(t1, t2, max_level=None):
        for whole in amalgamation_trees(t1, t2, max_level):
            drawn.append(whole)
            yield whole

    monkeypatch.setattr("arboreal.theta.amalgamation_trees", counted)
    keyed_sizes.clear()
    assert separated_bruteforce(parse_tree("(a,b,(c,d,e,f,g))"), "a", "b") is False
    assert len(drawn) == 2
    # its restrictions are made twice with identical graph data: none is keyed
    assert keyed_sizes == []


# -- the last level counted from its sites ---------------------------------------


def built_signatures(t1, t2, max_level=None):
    """The oracle: the signature of every whole tree the stream builds."""
    stats = (whole.stats() for whole in amalgamation_trees(t1, t2, max_level))
    return Counter((s.leaf_count, s.valences) for s in stats)


def site_signatures(t1, t2, max_level=None):
    return amalgam._site_signatures(*amalgam._amalgamation_classes(t1, t2, max_level))


def test_site_signatures_and_count_match_the_built_trees():
    cases = [(EDGE, STAR), (EDGE, parse_tree("(1,4,5)")), (STAR4_A, STAR4_B),
             (EMPTY_TREE, EMPTY_TREE), (parse_tree("a"), parse_tree("b")),
             (parse_tree("((a,b),(c,d))"), parse_tree("(a,e,f)"))]
    for t1, t2 in cases:
        for max_level in (None, 3, 4):
            want = built_signatures(t1, t2, max_level)
            assert site_signatures(t1, t2, max_level) == want, (t1, t2, max_level)
            count = amalgam._amalgamation_count(t1, t2, max_level)
            assert count == len(amalgamations(t1, t2, max_level)) == sum(want.values())
    assert amalgam._amalgamation_count(EDGE, STAR) == 56
    assert amalgam._amalgamation_count(STAR4_A, STAR4_B) == 2642


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 6), st.randoms(use_true_random=False), st.sampled_from([None, 3, 4]))
def test_site_signatures_match_on_random_pairs(n, rng, max_level):
    """Both sides restrict one random tree, each label going left, right or
    to the shared base."""
    labels = "abcdef"[:n]
    tree = rng.choice(enumerate_trees(labels)) if n else EMPTY_TREE
    sides = [rng.choice("LRB") for _ in labels]
    t1 = tree.restrict([l for l, s in zip(labels, sides) if s in "LB"])
    t2 = tree.restrict([l for l, s in zip(labels, sides) if s in "RB"])
    want = built_signatures(t1, t2, max_level)
    assert site_signatures(t1, t2, max_level) == want
    assert amalgam._amalgamation_count(t1, t2, max_level) == len(amalgamations(t1, t2, max_level))


def test_the_walk_grafts_one_path_before_its_first_yield(monkeypatch):
    """The search holds no level.  Before it hands on its first penultimate
    tree, two 4-stars' walk grafts the 9, 10 and 11 siblings along one path
    (30 trees), where holding the first two levels whole took 100 grafts.
    In all it makes the same 1,147 grafts."""
    built = counting_grafts(monkeypatch)
    walk = amalgam._frontier_sites(*amalgam._amalgamation_classes(STAR4_A, STAR4_B, None))
    _, sites, _ = next(walk)
    assert Counter(built) == {("b1",): 9, ("b2",): 10, ("b3",): 11}
    assert len(sites) + sum(len(sites) for _, sites, _ in walk) == 2642
    assert len(built) == 1147


def test_every_listing_is_counted_before_it_is_built(monkeypatch):
    """Each entry point that holds its whole listing counts it at the last
    level's sites first: one tree over LISTING_CAP is refused before any
    last-level graft, and at the cap the listing is whole.  An enumeration
    is counted by the recurrence, so it is refused before any graft.  A
    count, the equation, a shape census and the stream hold no listing, so
    no cap applies to them."""
    labels = sorted(STAR4_A.label_set | STAR4_B.label_set)
    constraints = ((STAR4_A.label_set, STAR4_A), (STAR4_B.label_set, STAR4_B))
    x = Amalgamation(STAR4_A, STAR4_A.label_set, frozenset())
    y = Amalgamation(STAR4_B, frozenset(), STAR4_B.label_set)
    listings = [
        (lambda: amalgamations(STAR4_A, STAR4_B), 2642, ("b4",)),
        (lambda: triple_amalgamations(x, y), 2642, ("b4",)),
        (lambda: trees_with_restrictions([(l,) for l in labels], constraints), 706, ("b4",)),
        (lambda: enumerate_trees("abcdefg"), 2752, None),
    ]
    built = counting_grafts(monkeypatch)
    for listing, size, last in listings:
        monkeypatch.setattr(amalgam, "LISTING_CAP", size - 1)
        built.clear()
        with pytest.raises(AmalgamError, match="enumeration listing exceeded %d trees" % (size - 1)):
            listing()
        assert (built and last not in built) if last else not built
        monkeypatch.setattr(amalgam, "LISTING_CAP", size)
        assert len(listing()) == size
    monkeypatch.setattr(amalgam, "LISTING_CAP", 1)
    assert amalgam._amalgamation_count(STAR4_A, STAR4_B) == 2642
    assert verify_amalgamation_equation(STAR4_A, STAR4_B).is_zero()
    assert sum(count_by_shape(STAR4_A, STAR4_B).values()) == 2642
    assert len(list(amalgamation_trees(STAR4_A, STAR4_B))) == 2642
    assert amalgam._tree_count(7, None) == 2752


def test_equation_grafts_only_below_the_last_level(monkeypatch):
    """Of the 3,789 trees the stream builds for two 4-stars, the 2,642 of
    the last level are counted from their sites, not built."""
    built = counting_grafts(monkeypatch)
    assert verify_amalgamation_equation(STAR4_A, STAR4_B).is_zero()
    assert len(built) == 3789 - 2642 == 1147
    built.clear()
    assert amalgam._amalgamation_count(STAR4_A, STAR4_B) == 2642
    assert len(built) == 1147


def test_one_search_counts_two_5_stars(monkeypatch):
    """Exact work: two disjoint 5-stars have 21,812 amalgamations, counted
    from the sites of one search's levels of 11, 132, 1,788 and 6,140 trees,
    one per graft of b1, ..., b4."""
    built = counting_grafts(monkeypatch)
    t1, t2 = parse_tree("(a1,a2,a3,a4,a5)"), parse_tree("(b1,b2,b3,b4,b5)")
    assert amalgam._amalgamation_count(t1, t2) == 21812
    assert len(built) == 8071
    assert Counter(built) == {("b1",): 11, ("b2",): 132, ("b3",): 1788, ("b4",): 6140}


# -- the seeded search -----------------------------------------------------------


def unseeded_wholes(t1, t2, max_level):
    """The oracle: the public, unseeded search once for every matching of
    the free classes, each matched pair merged into one class."""
    classes, free1, free2 = forced_classes(t1, t2)
    constraints = ((t1.label_set, t1), (t2.label_set, t2))
    for matching in partial_matchings(free1, free2):
        matched = {c for pair in matching for c in pair}
        merged = [c for c in classes if c not in matched] + [a + b for a, b in matching]
        yield from trees_with_restrictions(merged, constraints, max_level)


def assert_seeded_is_unseeded(t1, t2, max_level):
    want = list(unseeded_wholes(t1, t2, max_level))
    got = list(amalgamation_trees(t1, t2, max_level))
    assert sorted(t.canonical_key() for t in got) == sorted(t.canonical_key() for t in want)
    assert amalgam._amalgamation_count(t1, t2, max_level) == len(want)
    stats = (t.stats() for t in want)
    assert site_signatures(t1, t2, max_level) == Counter((s.leaf_count, s.valences) for s in stats)
    return len(want)


# multi-label leaves, a larger t2 (so t2 is the seed), disjoint and shared
# bases, and a matching whose seed disagrees with the other side; each with
# its unbounded count where it is checked
SEEDED_CASES = [
    ("(1/3,2)", "(3,4,5)", 6),
    ("(1,2)", "(3,4,5)", 56),
    ("(1,4,5)", "(1,2)", 6),
    ("(1,2)", "(1,4,5)", 6),
    ("((a,b),(c,x/y))", "((a,b),c,(d,e))", None),
    ("((a,b),c,d)", "((a,b),(c,e),(d,f))", 1),
    ("((a,b),c,x)", "((a,y),b,c)", None),
    ("(a/p,b,c,d)", "(a,b,c/q,d)", 1),
    ("(a,b,c,d)", "(a,b)", 1),
]


def test_seeded_search_is_the_unseeded_search():
    """Every case of SEEDED_CASES, and fully forced classes whose seed
    breaks the bound."""
    for text1, text2, unbounded in SEEDED_CASES:
        t1, t2 = parse_tree(text1), parse_tree(text2)
        for max_level in (None, 3, 4):
            n = assert_seeded_is_unseeded(t1, t2, max_level)
            if max_level is None and unbounded is not None:
                assert n == unbounded, (text1, text2)
    # every class is forced: the one seed has level 4
    for text1, text2, whole in [("(a/p,b,c,d)", "(a,b,c/q,d)", "(a/p,b,c/q,d)"),
                                ("(a,b,c,d)", "(a,b,c,d)", "(a,b,c,d)")]:
        t1, t2 = parse_tree(text1), parse_tree(text2)
        assert list(amalgamation_trees(t1, t2, 3)) == []
        assert amalgam._amalgamation_count(t1, t2, 3) == 0
        assert site_signatures(t1, t2, 3) == Counter()
        assert [t.canonical_key() for t in amalgamation_trees(t1, t2, 4)] == [whole]


def test_listing_count_and_shapes_agree():
    """The command line's listing, count and shape sum agree on every case
    of SEEDED_CASES at every bound: a leaf carrying a whole leaf class of
    one side, shared labels included, is listed."""
    for text1, text2, _ in SEEDED_CASES:
        for bound in ([], ["--max-level", "3"], ["--max-level", "4"]):
            argv = ["amalgamate", "--t1", text1, "--t2", text2] + bound
            outs = [run(argv + extra) for extra in ([], ["--count"], ["--by-shape"])]
            assert [code for code, _ in outs] == [0, 0, 0], argv
            listing, count, shapes = (json.loads(out) for _, out in outs)
            n = count["count"]
            assert len(listing["amalgamations"]) == listing["count"] == n, argv
            assert sum(s["count"] for s in shapes["by_shape"]) == shapes["count"] == n, argv


def test_a_leaf_may_carry_a_whole_leaf_class_of_one_side():
    """The listing's leaves may carry every label of one leaf of each side;
    the public constructor, for outside input, takes every label as a leaf
    of its own and refuses a leaf with two labels of one side."""
    t1, t2 = parse_tree("(1/3,2)"), parse_tree("(3,4,5)")
    left, right = t1.label_set, t2.label_set
    whole = parse_tree("((1/3,2),4,5)")
    (am,) = [a for a in amalgamations(t1, t2) if a.whole == whole]
    assert am.left_tree() == t1
    for joined in ("((1/3,2),4,5)", "((1/2/3,4),5)", "((1/3,2),4/5)"):
        with pytest.raises(AmalgamError, match="two labels from one side"):
            Amalgamation(parse_tree(joined), left, right)
    # a triple's outer pair keeps the leaf class 1/2 of its left side
    x = amalgamations(parse_tree("(1/2,3)"), parse_tree("(4,5)"))[0]
    y = amalgamations(parse_tree("(4,5)"), parse_tree("(6,7)"))[0]
    triples = triple_amalgamations(x, y)
    assert triples and all(xz.left_tree() == x.left_tree() for _, xz in triples)
    # so do a swap and a pair of a triple
    assert x.swap().right_tree() == parse_tree("(1/2,3)")
    assert {z.pair(0, 1).key for z, _ in triples} == {x.key}


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 5), st.randoms(use_true_random=False), st.sampled_from([None, 3, 4]))
def test_seeded_search_is_the_unseeded_search_on_random_pairs(n, rng, max_level):
    """Both sides restrict one random tree, each label going left, right or
    to the shared base; either side may then gain a private label on one of
    its leaves, which joins that leaf's class."""
    labels = "abcde"[:n]
    tree = rng.choice(enumerate_trees(labels)) if n else EMPTY_TREE
    sides = [rng.choice("LRB") for _ in labels]
    t1 = tree.restrict([l for l, s in zip(labels, sides) if s in "LB"])
    t2 = tree.restrict([l for l, s in zip(labels, sides) if s in "RB"])
    if t1.label_set and rng.random() < 0.5:
        t1 = t1.merge_labels({rng.choice(sorted(t1.label_set)): ["x"]})
    if t2.label_set and rng.random() < 0.5:
        t2 = t2.merge_labels({rng.choice(sorted(t2.label_set)): ["y"]})
    assert_seeded_is_unseeded(t1, t2, max_level)


def test_clade_passes_run_only_for_the_other_sides_leaves(monkeypatch):
    """Exact work: the search labels clades only while inserting the other
    side's leaves into the seed.  Two 4-stars' equation inserts four
    b-labels into the one seed, below the last level; the census pair and
    the separation verdict insert into trees whose visible part has one
    leaf."""
    calls = []
    clades = amalgam._clades
    monkeypatch.setattr(amalgam, "_clades", lambda *args: calls.append(1) or clades(*args))
    assert verify_amalgamation_equation(STAR4_A, STAR4_B).is_zero()
    assert len(calls) == 1140
    calls.clear()
    assert len(amalgamations(EDGE, STAR)) == 56
    assert len(calls) == 0
    assert separated_bruteforce(parse_tree("(a,b,(c,d,e,f,g))"), "a", "b") is False
    assert len(calls) == 2
