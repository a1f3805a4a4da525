"""Reduced leaf-labeled trees.

Core claims:
    - the grammar parses and suppresses valence-two vertices; bad input raises
    - canonical keys separate exactly the label-preserving isomorphism classes
      and parse back to the same tree
    - shape keys forget labels but keep per-leaf multiplicity
    - restriction agrees with an independent span-and-reduce oracle and is
      functorial for nested label sets; its one pass packs exactly what the
      former reduction (kept here as an oracle) packed, on random, grafted,
      caterpillar and multi-label trees of up to about 100 leaves
    - equality is key equality, decided without keys on identical graph data
    - the leaf of a label is a lookup that keeps nothing: a tree holds its
      graph data and its canonical key, and no other memo
    - the quaternary relation matches an independent path computation and
      determines the tree among all trees on its labels
    - enumeration counts match an independent recursion, and insertion
      respects a level bound; the level-bounded tree count equals the
      listing's length, and a listing past the listing cap or over more
      labels than the class cap is refused
    - automorphism orders match brute force over leaf permutations, and their
      prime factors stay below the level
    - restriction and single-site insertion build exactly the packed form
      build_tree gives the same graph data; relabeling still validates labels,
      and retagging block prefixes gives what relabeling gives
    - the one rerooting pass gives the canonical key, the shape key and the
      automorphism order the earlier recursive walkers gave, and the
      explicit-stack parser the same graph data and errors as recursive
      descent, on every tree with at most seven labels, on multi-label trees,
      on labels that are prefixes of one another and on random trees and
      caterpillars of up to 400 leaves; the parser calls no build_tree
    - every label character and "/" sort above "," and ")", which makes the
      least list of parts the least serial
    - keys survive a parse round trip and any renumbering of the vertices
"""

import random
import re
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal.amalgam import AmalgamError, _tree_count, enumerate_trees
from arboreal.category import algebra_for, retag
from arboreal.trees import (
    EMPTY_TREE,
    LABEL_RE,
    Tree,
    TreeError,
    build_tree,
    canonical_key,
    parse_tree,
    stats,
)

LETTERS = "abcdefghi"


# -- independent oracles -------------------------------------------------------


def oracle_restrict(tree: Tree, keep) -> Tree:
    """Span the kept leaves by unions of paths, then reduce explicitly."""
    keep = frozenset(keep)
    kept_vertices = [v for v, ls in enumerate(tree.labels) if any(l in keep for l in ls)]
    if not kept_vertices:
        return EMPTY_TREE
    vertices = set()
    for a in kept_vertices:
        for b in kept_vertices:
            vertices.add(a)
            for e in tree.path_edges(a, b):
                vertices |= set(e)
    edges = [
        (u, v)
        for u in vertices
        for v in tree.adj[u]
        if v in vertices and u < v
    ]
    labels = {
        v: tuple(l for l in tree.labels[v] if l in keep)
        for v in kept_vertices
    }
    return build_tree(vertices, edges, labels)


def _reduced(adj, labels) -> Tree:
    """The former trusted constructor, kept as an oracle: suppress unlabeled
    valence-two vertices and renumber the rest in increasing order.

    ``adj`` must describe a tree whose leaves are exactly the keys of
    ``labels``, and every label tuple must be sorted; nothing is checked.
    Suppressing a valence-two vertex leaves every other valence unchanged,
    so one pass finds them all.
    """
    order = sorted(v for v in adj if len(adj[v]) != 2 or v in labels)
    index = {v: i for i, v in enumerate(order)}
    packed = []
    for v in order:
        nbrs = []
        for w in adj[v]:
            prev = v
            while w not in index:
                a, b = adj[w]
                prev, w = w, (b if a == prev else a)
            nbrs.append(index[w])
        packed.append(tuple(sorted(nbrs)))
    return Tree(tuple(packed), tuple(labels.get(v, ()) for v in order))


def reduced_restrict(tree: Tree, keep) -> Tree:
    """Prune unkept leaves until every leaf is kept, which leaves the
    spanning subtree, then reduce it with :func:`_reduced`."""
    keep = frozenset(keep)
    kept = {v: tuple(l for l in ls if l in keep) for v, ls in enumerate(tree.labels) if keep.intersection(ls)}
    if not kept:
        return EMPTY_TREE
    span = {v: set(nbrs) for v, nbrs in enumerate(tree.adj)}
    doomed = [v for v in span if len(span[v]) == 1 and v not in kept]
    while doomed:
        v = doomed.pop()
        (w,) = span.pop(v)
        span[w].discard(v)
        if len(span[w]) == 1 and w not in kept:
            doomed.append(w)
    return _reduced(span, kept)


def oracle_quaternary(tree: Tree, x1, x2, y1, y2) -> bool:
    """Path intersection recomputed with a DFS that is independent of the
    production breadth-first parent walk."""
    vs = [tree.leaf_of(l) for l in (x1, x2, y1, y2)]
    if len(set(vs)) != 4:
        return False

    def path(a, b):
        out = []

        def dfs(v, parent, acc):
            if v == b:
                out.extend(acc)
                return True
            return any(
                dfs(w, v, acc + [frozenset((v, w))])
                for w in tree.adj[v]
                if w != parent
            )

        dfs(a, None, [])
        return set(out)

    return bool(path(vs[0], vs[1]) & path(vs[2], vs[3]))


def oracle_counts(up_to: int):
    """Total-partition recursion for the number of trees on n labels."""
    from math import comb

    r = {1: 1}
    e = {0: 1, 1: 1}
    for n in range(2, up_to + 1):
        r[n] = sum(comb(n - 1, k - 1) * r[k] * e[n - k] for k in range(1, n))
        e[n] = 2 * r[n]
    return [1, 1] + [r[n - 1] for n in range(3, up_to + 1)]


def oracle_aut(tree: Tree) -> int:
    """Count leaf permutations that are label-forgetting automorphisms."""
    labels = sorted(tree.label_set)
    count = 0
    for perm in permutations(labels):
        mapping = {a: b + ".x" for a, b in zip(labels, perm)}
        image = tree.relabel(mapping)
        target = tree.relabel({l: l + ".x" for l in labels})
        if image == target:
            count += 1
    return count


def recursive_key(tree: Tree, leaf_repr) -> str:
    """The canonical or shape key as the recursive walker computed it: the
    least full re-serialization from any internal vertex."""
    n = len(tree.adj)
    if n == 0:
        return "()"
    if n == 1:
        return leaf_repr(tree.labels[0])
    if n == 2:
        return "(%s)" % ",".join(sorted(leaf_repr(ls) for ls in tree.labels))

    def serial(v, parent):
        if len(tree.adj[v]) <= 1:
            return leaf_repr(tree.labels[v])
        return "(%s)" % ",".join(sorted(serial(w, v) for w in tree.adj[v] if w != parent))

    return min("(%s)" % ",".join(sorted(serial(w, v) for w in tree.adj[v]))
               for v in tree.nodes())


def recursive_aut_order(tree: Tree) -> int:
    """The automorphism order as the recursive walker computed it: rooted
    counts from the one or two centers of the graph."""
    adj = tree.adj
    n = len(adj)
    if n <= 1:
        return 1
    deg = [len(adj[v]) for v in range(n)]
    layer = [v for v in range(n) if deg[v] <= 1]
    seen = len(layer)
    while seen < n:
        nxt = []
        for v in layer:
            deg[v] = 0
            for w in adj[v]:
                if deg[w] > 0:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        seen += len(nxt)
        layer = nxt
    centers = layer if layer else [0]

    def shape(v, parent):
        kids = [shape(w, v) for w in adj[v] if w != parent]
        return "(%s)" % ",".join(sorted(kids)) if kids else "*"

    def count(v, parent):
        total, by_shape = 1, {}
        for w in adj[v]:
            if w != parent:
                s = shape(w, v)
                by_shape[s] = by_shape.get(s, 0) + 1
                total *= count(w, v)
        for m in by_shape.values():
            total *= factorial(m)
        return total

    if len(centers) == 1:
        return count(centers[0], -1)
    u, v = centers
    order = count(u, v) * count(v, u)
    return order * 2 if shape(u, v) == shape(v, u) else order


def recursive_parse(text: str):
    """(adj, labels) of a text as the recursive-descent parser built them."""
    s = "".join(text.split())
    if s == "()":
        return EMPTY_TREE.adj, EMPTY_TREE.labels
    pos = 0
    edges, labels = [], {}
    counter = [0]

    def fresh():
        counter[0] += 1
        return counter[0] - 1

    def node():
        nonlocal pos
        if pos < len(s) and s[pos] == "(":
            pos += 1
            me = fresh()
            children = [node()]
            while pos < len(s) and s[pos] == ",":
                pos += 1
                children.append(node())
            if pos >= len(s) or s[pos] != ")":
                raise TreeError("expected ')' at position %d in %r" % (pos, text))
            pos += 1
            if len(children) < 2:
                raise TreeError("parenthesized group needs at least two parts")
            edges.extend((me, c) for c in children)
            return me
        m = re.match(r"[A-Za-z0-9_:.]+(?:/[A-Za-z0-9_:.]+)*", s[pos:])
        if not m:
            raise TreeError("expected a label at position %d in %r" % (pos, text))
        pos += len(m.group(0))
        me = fresh()
        labels[me] = tuple(m.group(0).split("/"))
        return me

    node()
    if pos != len(s):
        raise TreeError("trailing input at position %d in %r" % (pos, text))
    t = build_tree(range(counter[0]), edges, labels)
    return t.adj, t.labels


def random_graph_tree(rng: random.Random, vertices: int, multi: float = 0.0) -> Tree:
    """A random recursive tree on the vertices, each hung off an earlier
    one, with its leaves labeled (a second label with probability
    ``multi``) and its vertices renumbered at random."""
    names = list(range(vertices))
    rng.shuffle(names)
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, vertices)]
    deg = {v: 0 for v in names}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    labels = {}
    for v in names:
        if deg[v] <= 1:
            labels[v] = ("x%d" % v,) + (("y%d" % v,) if rng.random() < multi else ())
    return build_tree(names, edges, labels)


def caterpillar_text(n: int) -> str:
    text = "(l0,l1)"
    for i in range(2, n):
        text = "(%s,l%d)" % (text, i)
    return text


def assert_matches_recursive(t: Tree) -> None:
    key = t.canonical_key()
    assert key == recursive_key(t, lambda ls: "/".join(sorted(ls))), t
    assert t.shape_key() == recursive_key(t, lambda ls: "*" * len(ls)), t
    assert t.aut_order() == recursive_aut_order(t), t
    p = parse_tree(key)
    assert (p.adj, p.labels) == recursive_parse(key), key


# -- the rerooting pass and the parser against the recursive walkers ---------------


def test_all_small_trees_match_recursive_walkers():
    trees = [EMPTY_TREE] + [t for n in range(1, 8) for t in enumerate_trees(LETTERS[:n])]
    assert len(trees) == 1 + 3021
    for t in trees:
        assert_matches_recursive(t)


def test_multilabel_and_renumbered_trees_match_recursive_walkers():
    rng = random.Random(11)
    for vertices in list(range(1, 40)) * 3:
        assert_matches_recursive(random_graph_tree(rng, vertices, multi=0.3))
    for t in enumerate_trees(LETTERS[:5]):
        labels = sorted(t.label_set)
        assert_matches_recursive(t.merge_labels({l: [l.upper()] for l in labels[::2]}))


def test_large_trees_match_recursive_walkers():
    rng = random.Random(400)
    for vertices in (60, 150, 300, 500, 800):
        assert_matches_recursive(random_graph_tree(rng, vertices, multi=0.1))
    for n in (3, 10, 57, 200, 400):
        t = parse_tree(caterpillar_text(n))
        assert (t.adj, t.labels) == recursive_parse(caterpillar_text(n))
        assert_matches_recursive(t)


def test_parser_matches_recursive_descent():
    texts = ["()", "a", "b/a", " ( a , b ) ", "((a,b),(c,d))", "(a,(b,(c,d)))",
             "(a,b,((c,d),e/f),(g,h,i))", "((((a,b),c),d),e)"]
    bad = ["(a,a)", "(a/a,b)", "(a)", "(,a)", "(a,b", "a,b", "(a,())", "", "(a,b))",
           "a-b", "((a,b)", "(a,b),", "((a,b),c", "(((a)))", ")", "(", "((a,b)(c,d))",
           "a/", "(a,b)/c", "((a,b))", "(a,(b))"]
    for text in texts + bad:
        try:
            want = recursive_parse(text)
        except TreeError as e:
            with pytest.raises(TreeError) as got:
                parse_tree(text)
            assert str(got.value) == str(e), text
        else:
            t = parse_tree(text)
            assert (t.adj, t.labels) == want, text


def test_parser_builds_no_graph(monkeypatch):
    """The parser assembles the reduced tree from its own scan: with
    build_tree refusing every call, each text of the parser and
    recursive-walker tests still parses to the graph data, or raises the
    error, that recursive descent through build_tree gives."""

    def refuse(*args, **kwargs):
        raise AssertionError("build_tree called")

    monkeypatch.setattr("arboreal.trees.build_tree", refuse)
    test_parser_matches_recursive_descent()
    test_all_small_trees_match_recursive_walkers()
    test_multilabel_and_renumbered_trees_match_recursive_walkers()
    test_large_trees_match_recursive_walkers()


def test_prefix_labels_match_recursive_walkers():
    """Leaves whose serials are prefixes of one another, with every kind of
    label character after the common prefix: the key compares lists of
    parts where the walker compared strings."""
    labels = ["a", "a.", "a:", "a_", "a0", "aA"]
    for t in enumerate_trees(labels):
        assert_matches_recursive(t)
        assert_matches_recursive(t.merge_labels({"a": ["b"]}))  # a leaf "a/b"


def test_label_characters_sort_above_the_separators():
    """The canonical key takes the least list of parts for the least serial.
    That holds because no serial is a proper prefix of another unless it is
    a label set, and whatever continues a label set (a label character or
    "/") sorts above the "," or ")" that ends it; ")" below "," orders a
    shorter list first."""
    admitted = [c for c in map(chr, range(0x110000)) if LABEL_RE.match(c)]
    assert len(admitted) == 65
    assert min(admitted + ["/"]) > max(",", ")")
    assert ")" < ","


@st.composite
def graph_trees(draw):
    """Graph data of a random tree: vertex i > 0 hangs off an earlier vertex,
    every leaf is labeled, and the vertex numbers are a permutation."""
    n = draw(st.integers(1, 40))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    names = draw(st.permutations(range(n)))
    edges = [(names[p], names[i]) for i, p in zip(range(1, n), parents)]
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    labels = {v: ("x%d" % v,) for v in range(n) if deg[v] <= 1}
    return n, edges, labels


@settings(max_examples=150, deadline=None, database=None)
@given(graph_trees())
def test_parse_round_trips_through_the_key(data):
    n, edges, labels = data
    t = build_tree(range(n), edges, labels)
    key = t.canonical_key()
    back = parse_tree(key)
    assert back == t and back.canonical_key() == key
    assert (back.adj, back.labels) == recursive_parse(key)


@settings(max_examples=150, deadline=None, database=None)
@given(graph_trees(), st.randoms(use_true_random=False))
def test_keys_ignore_vertex_numbering(data, rng):
    n, edges, labels = data
    t = build_tree(range(n), edges, labels)
    perm = list(range(n))
    rng.shuffle(perm)
    moved = build_tree(range(n), [(perm[u], perm[v]) for u, v in edges],
                       {perm[v]: ls for v, ls in labels.items()})
    assert moved.canonical_key() == t.canonical_key()
    assert moved.shape_key() == t.shape_key()
    assert moved.aut_order() == t.aut_order()


# -- parsing ---------------------------------------------------------------------


def test_parse_base_cases():
    assert parse_tree("(a,b)").canonical_key() == "(a,b)"
    assert parse_tree("()").is_empty()
    assert parse_tree("a").canonical_key() == "a"
    assert parse_tree("b/a").canonical_key() == "a/b"
    assert parse_tree(" ( a , b ) ").canonical_key() == "(a,b)"


def test_parse_suppresses_valence_two():
    t1 = parse_tree("(a,b,(c,d))")
    t2 = parse_tree("((a,b),(c,d))")
    t3 = parse_tree("(a,(b,(c,d)))")
    assert t1 == t2 == t3
    assert t1.node_count == 2 and t1.leaf_count == 4


def test_parse_errors():
    for bad in ("(a,a)", "(a/a,b)", "(a)", "(,a)", "(a,b", "a,b", "(a,())", "", "(a,b))", "a-b"):
        with pytest.raises(TreeError):
            parse_tree(bad)


def test_build_rejects_broken_graphs():
    with pytest.raises(TreeError):
        build_tree([0, 1], [], {0: ("a",), 1: ("b",)})  # disconnected
    with pytest.raises(TreeError):
        build_tree([0, 1, 2], [(0, 1), (1, 2), (0, 2)], {0: ("a",)})  # cycle
    with pytest.raises(TreeError):
        build_tree([0, 1, 2], [(0, 1), (1, 2)], {0: ("a",), 1: ("b",), 2: ("c",)})  # labeled path middle
    with pytest.raises(TreeError):
        build_tree([0], [], {})  # unlabeled leaf


def test_relabel_validates_labels():
    star = parse_tree("(a,b,c)")
    with pytest.raises(TreeError, match="duplicate label 'b'"):
        star.relabel({"a": "b"})
    with pytest.raises(TreeError, match="malformed label 'bad label'"):
        star.relabel({"a": "bad label"})
    with pytest.raises(TreeError, match="duplicate label 'b'"):
        star.merge_labels({"a": ["b"]})
    with pytest.raises(TreeError, match="malformed label 'bad label'"):
        star.merge_labels({"a": ["bad label"]})
    # two names of one leaf may collapse onto one
    assert parse_tree("(a/x,b,c)").relabel({"x": "a"}) == star


# -- canonical and shape keys ----------------------------------------------------


def test_keys_separate_isomorphism_classes():
    keys = {t.canonical_key() for t in enumerate_trees("abcd")}
    assert len(keys) == 4
    assert parse_tree("(a,b,(c,d))") == parse_tree("((d,c),b,a)")


def test_keys_roundtrip(small_trees):
    for n, trees in small_trees.items():
        for t in trees:
            assert parse_tree(t.canonical_key()) == t
            assert EMPTY_TREE.canonical_key() == "()"


def test_keys_respect_relabeling(small_trees):
    rng = random.Random(5)
    for t in small_trees[4] + small_trees[5]:
        labels = sorted(t.label_set)
        shuffled = labels[:]
        rng.shuffle(shuffled)
        image = t.relabel(dict(zip(labels, shuffled)))
        assert image.shape_key() == t.shape_key()
        # a monotone relabeling commutes with the serialization textually
        monotone = {l: "z%d" % i for i, l in enumerate(labels)}
        expected = t.canonical_key()
        for old, new in sorted(monotone.items(), reverse=True):
            expected = expected.replace(old, new)
        assert t.relabel(monotone).canonical_key() == expected


def test_shape_keys():
    quartets = [t for t in enumerate_trees("abcd") if t.node_count == 2]
    star = parse_tree("(a,b,c,d)")
    assert len({t.shape_key() for t in quartets}) == 1
    assert star.shape_key() not in {t.shape_key() for t in quartets}
    assert parse_tree("(a,b,c)").shape_key() != parse_tree("(a,b)").shape_key()
    assert parse_tree("(a/b,c)").shape_key() != parse_tree("(a,c)").shape_key()


# -- restriction -------------------------------------------------------------------


def test_restrict_examples():
    t5 = parse_tree("(a,b,(c,d))")
    assert t5.restrict("abc") == parse_tree("(a,b,c)")
    assert t5.restrict(t5.label_set) == t5
    assert t5.restrict(()) == EMPTY_TREE
    t8 = parse_tree("((a,b),c,(d,e))")
    assert t8.restrict("abde").shape_key() == t5.shape_key()
    with pytest.raises(TreeError):
        t5.restrict({"a", "nope"})


def test_restrict_matches_oracle(small_trees):
    rng = random.Random(9)
    for t in small_trees[4] + small_trees[5]:
        labels = sorted(t.label_set)
        for _ in range(6):
            keep = frozenset(l for l in labels if rng.random() < 0.6)
            assert t.restrict(keep) == oracle_restrict(t, keep)


def test_restrict_is_functorial(small_trees):
    for t in small_trees[5]:
        labels = sorted(t.label_set)
        for a_size in (2, 3, 4):
            big = frozenset(labels[:a_size])
            small = frozenset(labels[: a_size - 1])
            assert t.restrict(big).restrict(small) == t.restrict(small)


def test_restrict_on_multilabel_leaves():
    # a partially kept leaf survives with the kept labels
    t = parse_tree("((a/x,b),c,d)")
    assert t.restrict("abcd") == parse_tree("((a,b),c,d)")
    # a fully dropped leaf disappears and its node is suppressed
    t = parse_tree("((a,x/y),b,(c,d))")
    assert t.restrict("abcd") == parse_tree("(a,b,(c,d))")


def graph_insertions(tree: Tree, new_labels):
    """Every single-site insertion as explicit graph data through build_tree:
    a new leaf on each internal vertex, then a new vertex and leaf on each edge."""
    n = len(tree.adj)
    if n == 0:
        return [build_tree([0], [], {0: new_labels})]
    if n == 1:
        return [build_tree([0, 1], [(0, 1)], {0: tree.labels[0], 1: new_labels})]
    labels = {v: ls for v, ls in enumerate(tree.labels) if ls}
    edges = [(u, v) for u in range(n) for v in tree.adj[u] if u < v]
    out = [
        build_tree(range(n + 1), edges + [(v, n)], {**labels, n: new_labels})
        for v in range(n)
        if len(tree.adj[v]) >= 2
    ]
    for (u, v) in edges:
        rest = [e for e in edges if e != (u, v)]
        out.append(build_tree(
            range(n + 2), rest + [(u, n), (v, n), (n, n + 1)], {**labels, n + 1: new_labels}
        ))
    return out


def test_trusted_construction_matches_build_tree():
    """Restriction, single-site insertion, relabeling and label merging skip
    the graph checks; their packed vertex order, neighbour tuples and label
    tuples must still be exactly those build_tree makes of the same graph
    data."""
    trees = [EMPTY_TREE] + [t for n in range(1, 7) for t in enumerate_trees(LETTERS[:n])]
    for t in trees:
        got = [(c.adj, c.labels) for c in t.insertions(("z", "y"))]
        want = [(c.adj, c.labels) for c in graph_insertions(t, ("z", "y"))]
        assert got == want, t
        labels = sorted(t.label_set)
        for k in range(len(labels) + 1):
            for keep in combinations(labels, k):
                r, o = t.restrict(keep), oracle_restrict(t, keep)
                assert (r.adj, r.labels) == (o.adj, o.labels), (t, keep)
        # relabel and merge_labels keep the graph and only swap the labels
        edges = [(u, v) for u in range(len(t.adj)) for v in t.adj[u] if u < v]

        def rebuilt(new_labels):
            b = build_tree(range(len(t.adj)), edges, new_labels)
            return (b.adj, b.labels)

        perm = dict(zip(labels, reversed(labels)))
        r = t.relabel(perm)
        assert (r.adj, r.labels) == rebuilt(
            {v: [perm[l] for l in ls] for v, ls in enumerate(t.labels) if ls}), t
        extra = {l: (l.upper(), l + "2") for l in labels[::2]}
        m = t.merge_labels(extra)
        assert (m.adj, m.labels) == rebuilt(
            {v: list(ls) + [x for l in ls for x in extra.get(l, ())]
             for v, ls in enumerate(t.labels) if ls}), t
        collapse = {l.upper(): l + "2" for l in extra}
        c = m.relabel(collapse)
        assert (c.adj, c.labels) == rebuilt(
            {v: {collapse.get(l, l) for l in ls} for v, ls in enumerate(m.labels) if ls}), t
    # a multi-label leaf keeps the sorted tuple of its remaining labels
    r = parse_tree("((a/x/z,b),c,d)").restrict("abdz")
    assert ("a", "z") in r.labels
    # retag swaps block prefixes without a label check; every prefix map the
    # morphism layer uses gives what relabel gives, on every basis whole
    maps = [{"s:": "t:", "t:": "s:"}, {"s:": "1:", "t:": "2:"}, {"s:": "2:", "t:": "3:"},
            {"s:": "3:", "t:": "1:"}, {"1:": "s:", "3:": "t:"}]
    for alg in (algebra_for(parse_tree("(1,2)")), algebra_for(parse_tree("(1,2,3)"))):
        for am in alg.basis:
            for mapping in maps:
                whole = am.whole
                if "1:" in mapping:  # it maps the (1,3)-restriction of a composite back
                    whole = whole.relabel({l: ("1:" if l[0] == "s" else "3:") + l[2:]
                                           for l in whole.label_set})
                r = retag(whole, mapping)
                o = whole.relabel({l: mapping[l[:2]] + l[2:] for l in whole.label_set})
                assert (r.adj, r.labels) == (o.adj, o.labels), (am.key, mapping)


@st.composite
def restriction_cases(draw):
    """A tree and a label set to keep.  The tree is a random recursive tree
    with renumbered vertices, a caterpillar, or a tree grown by single-site
    grafts (numbered in graft order, not pre-order), of up to about 100
    leaves, a third of them with a second label.  The kept set is empty, one
    label, all labels, all but one label of a multi-label leaf, or random."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["graph", "caterpillar", "grafted"]))
    leaves = draw(st.integers(1, 100))
    if kind == "graph":
        tree = random_graph_tree(rng, 2 * leaves - 1, multi=0.3)
    else:
        if kind == "caterpillar":
            tree = parse_tree(caterpillar_text(leaves)) if leaves >= 2 else parse_tree("l0")
        else:
            tree = EMPTY_TREE
            for i in range(leaves):
                tree = tree._graft(rng.choice(tree.sites()), ("g%d" % i,))
        labels = sorted(tree.label_set)
        tree = tree.merge_labels({l: [l.upper()] for l in labels if rng.random() < 0.3})
    labels = sorted(tree.label_set)
    multi = [ls for ls in tree.labels if len(ls) > 1]
    how = draw(st.sampled_from(["empty", "one", "all", "all-but-one", "random"]))
    if how == "empty":
        keep = []
    elif how == "one":
        keep = [rng.choice(labels)]
    elif how == "all":
        keep = labels
    elif how == "all-but-one" and multi:
        keep = [l for l in labels if l != rng.choice(rng.choice(multi))]
    else:
        keep = [l for l in labels if rng.random() < 0.5]
    return tree, keep


@settings(max_examples=200, deadline=None, database=None)
@given(restriction_cases())
def test_restriction_is_the_former_reduction(case):
    """The one-pass restriction packs exactly the vertex order, neighbour
    tuples and label tuples the former reduction gave, and names unknown
    labels as it did."""
    tree, keep = case
    r, o = tree.restrict(keep), reduced_restrict(tree, keep)
    assert (r.adj, r.labels) == (o.adj, o.labels), (tree, keep)
    with pytest.raises(TreeError, match=re.escape("unknown labels ['u0', 'u1']")):
        tree.restrict(list(keep) + ["u1", "u0"])


def test_restriction_of_multilabel_leaves_is_the_former_reduction():
    t = parse_tree("((a/x/z,b),(c/y,d),e/w)")
    labels = sorted(t.label_set)
    for k in range(len(labels) + 1):
        for keep in combinations(labels, k):
            r, o = t.restrict(keep), reduced_restrict(t, keep)
            assert (r.adj, r.labels) == (o.adj, o.labels), keep
    assert t.restrict("abcdexyzw") is t


@settings(max_examples=150, deadline=None, database=None)
@given(graph_trees(), st.randoms(use_true_random=False))
def test_equality_is_key_equality(data, rng):
    """Equality reads identical graph data first and keys otherwise; either
    way two trees are equal exactly when their keys are, and equal trees
    hash equally.  Two restrictions of one tree to one set are equal without
    keys; a copy with permuted vertex ids is equal through its key."""
    n, edges, labels = data
    t = build_tree(range(n), edges, labels)
    names = sorted(t.label_set)
    keep = [l for l in names if rng.random() < 0.5]
    a, b = t.restrict(keep), t.restrict(keep)
    assert a == b
    assert a is EMPTY_TREE or (a._key is None and b._key is None)
    perm = list(range(n))
    rng.shuffle(perm)
    moved = build_tree(range(n), [(perm[u], perm[v]) for u, v in edges],
                       {perm[v]: ls for v, ls in labels.items()})
    if (moved.adj, moved.labels) != (t.adj, t.labels):
        assert moved == t and moved._key is not None and t._key is not None
    other = t.restrict([l for l in names if rng.random() < 0.5])
    trees = [t, moved, a, b, other, parse_tree(t.canonical_key()), EMPTY_TREE]
    for x in trees:
        for y in trees:
            assert (x == y) == (x.canonical_key() == y.canonical_key())
            if x == y:
                assert hash(x) == hash(y)


@settings(max_examples=150, deadline=None, database=None)
@given(st.randoms(use_true_random=False), st.integers(1, 40), st.sampled_from([0.0, 0.3, 1.0]))
def test_leaf_of_is_a_lookup_that_keeps_nothing(rng, vertices, multi):
    """On random trees whose leaves carry one label or two, ``leaf_of``
    gives the vertex of a label -> vertex dict and refuses a label the tree
    lacks; after it, the shape key and the canonical key, the tree holds
    exactly its graph data and its key, so no lookup or shape is memoized
    on a tree."""
    t = random_graph_tree(rng, vertices, multi)
    adj, labels = t.adj, t.labels
    where = {l: v for v, ls in enumerate(labels) for l in ls}
    for l, v in where.items():
        assert t.leaf_of(l) == v
    names = {"%s%d" % (c, v) for c in "xy" for v in range(vertices)}
    for absent in sorted(names - set(where)) + ["z"]:
        with pytest.raises(TreeError, match="unknown label %r" % absent):
            t.leaf_of(absent)
    t.shape_key()
    key = t.canonical_key()
    held = {name: getattr(t, name) for c in type(t).__mro__ for name in c.__dict__.get("__slots__", ())}
    assert held == {"adj": adj, "labels": labels, "_key": key}
    assert not hasattr(t, "__dict__")


def test_insertion_validates_new_labels():
    star = parse_tree("(a,b,c)")
    for bad in (("a",), ("d", "d"), ("bad label",), ()):
        with pytest.raises(TreeError):
            next(star.insertions(bad))


# -- the quaternary relation ----------------------------------------------------------


def test_quaternary_examples():
    t5 = parse_tree("(a,b,(c,d))")
    assert t5.quaternary("a", "c", "b", "d") is True
    assert t5.quaternary("a", "b", "c", "d") is False
    assert t5.quaternary("a", "a", "c", "d") is False
    multi = parse_tree("(a/b,c,d,e)")
    assert multi.quaternary("a", "b", "c", "d") is False
    with pytest.raises(TreeError):
        t5.quaternary("a", "b", "c", "nope")


def test_quaternary_matches_oracle(small_trees):
    for t in small_trees[5]:
        for quad in combinations(sorted(t.label_set), 4):
            for (x1, x2), (y1, y2) in (((quad[0], quad[1]), (quad[2], quad[3])),
                                       ((quad[0], quad[2]), (quad[1], quad[3])),
                                       ((quad[0], quad[3]), (quad[1], quad[2]))):
                assert t.quaternary(x1, x2, y1, y2) == oracle_quaternary(t, x1, x2, y1, y2)


def test_quaternary_determines_the_tree():
    """Every tree on six labels is pinned down by its quaternary relation."""
    trees = enumerate_trees(LETTERS[:6])
    labels = sorted(trees[0].label_set)

    def fingerprint(t):
        true_quads = set()
        for quad in combinations(labels, 4):
            for split in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)):
                pair = (quad[split[0]], quad[split[1]], quad[split[2]], quad[split[3]])
                if t.quaternary(*pair):
                    true_quads.add(
                        frozenset((frozenset(pair[:2]), frozenset(pair[2:])))
                    )
        return frozenset(true_quads)

    prints = [fingerprint(t) for t in trees]
    assert len(set(prints)) == len(trees)


# -- enumeration -----------------------------------------------------------------------


def test_enumeration_counts_match_recursion():
    got = [len(enumerate_trees(LETTERS[:n])) for n in range(1, 8)]
    assert got == oracle_counts(7) == [1, 1, 1, 4, 26, 236, 2752]


def test_enumeration_is_sorted_and_deduplicated():
    for n in range(1, 8):
        for max_level in (None, 3, 4):
            keys = [t.canonical_key() for t in enumerate_trees(LETTERS[:n], max_level)]
            assert keys == sorted(keys) and len(set(keys)) == len(keys), (n, max_level)


def test_enumeration_level_filter():
    all5 = enumerate_trees("abcde")
    level3 = enumerate_trees("abcde", max_level=3)
    assert set(level3) == {t for t in all5 if t.level <= 3}
    with pytest.raises(TreeError):
        enumerate_trees("abcde", max_level=2)


def test_tree_count_is_the_listing_length():
    """The recurrence counts every listing on up to eight labels at each
    bound, and pins what the search walked to count nine to eleven labels."""
    for max_level in (None, 3, 4, 5):
        for n in range(9):
            assert _tree_count(n, max_level) == len(enumerate_trees(LETTERS[:n], max_level)), (n, max_level)
    assert [_tree_count(n) for n in range(1, 9)] == oracle_counts(8)
    assert _tree_count(9) == 660032 and _tree_count(11) == 282137824
    assert _tree_count(10) == 12818912 and _tree_count(10, 3) == 2027025


def test_enumeration_cap():
    with pytest.raises(AmalgamError, match="enumeration listing exceeded 1000000 trees"):
        enumerate_trees("abcdefghij")
    with pytest.raises(AmalgamError, match="quotient label set has 16 classes"):
        enumerate_trees("abcdefghijklmnop")
    with pytest.raises(TreeError):
        enumerate_trees(["a", "a"])


# -- statistics ------------------------------------------------------------------------


def test_stats_examples():
    s = parse_tree("(a,b,c)").stats()
    assert (s.leaf_count, s.node_count, s.level, s.valences) == (3, 1, 3, (3,))
    s = parse_tree("(a,b)").stats()
    assert (s.leaf_count, s.node_count, s.level) == (2, 0, 0)
    assert stats(EMPTY_TREE).leaf_count == 0
    assert canonical_key(EMPTY_TREE) == "()"


@settings(max_examples=100, deadline=None, database=None)
@given(graph_trees())
def test_stats_count_leaves_and_nodes(data):
    n, edges, labels = data
    t = build_tree(range(n), edges, labels)
    s = t.stats()
    assert s.leaf_count == len(t.leaves()) and s.node_count == len(t.nodes())
    assert s.valences == tuple(sorted(len(t.adj[v]) for v in t.nodes())) and s.level == t.level


def test_aut_examples():
    assert parse_tree("(a,b,c)").aut_order() == 6
    assert parse_tree("(a,b)").aut_order() == 2
    assert parse_tree("a").aut_order() == 1
    assert parse_tree("(a,b,(c,d))").aut_order() == 8
    assert parse_tree("((a,b),c,(d,e))").aut_order() == 8


def test_aut_matches_bruteforce(small_trees):
    for n in (2, 3, 4, 5):
        for t in small_trees[n]:
            assert t.aut_order() == oracle_aut(t)


def test_aut_prime_factors_bounded_by_level():
    for n in range(1, 8):
        for t in enumerate_trees(LETTERS[:n]):
            if t.level < 3:
                continue
            order = t.aut_order()
            p = 2
            while order > 1:
                while order % p == 0:
                    assert p <= t.level
                    order //= p
                p += 1
