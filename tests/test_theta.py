"""Separation, marked-tree minimization, and the universal coefficient ring.

Core claims:
    - the separation criterion agrees with the amalgamation-count definition
      and is stable under one-leaf extensions
    - marked types are preserved by extraneous deletion, and minimization is
      independent of the deletion order; a minimization sweep past the
      listing cap is refused before it lists any tree
    - the ring Z[u,v]/(uv) kills all defining forms, and its measure-side
      specialization matches the generator values computed from embeddings
    - duplicate diagrams of the minimal shapes reproduce the defining
      relations with zero residuals on both sides
    - the many-extensions witness produces enough embeddings without raising
      the level, and its trees, built by graft, are those of the edge-list
      construction through build_tree; a y whose every leaf meets x is
      refused with a ValueError
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal.measure import (
    SYMBOLIC,
    MarkedTree,
    marked_star,
    marked_y,
    marked_z,
    theta_generator_values,
)
from arboreal.ratfun import RatFun
from arboreal.theta import (
    LINEAR_FORMS,
    QUADRATIC_FORM,
    ThetaElement,
    count_extensions,
    evaluate_form_mu,
    extraneous_leaves,
    generator_name,
    linear_form_for_m,
    mark_type,
    minimize_marked,
    separated,
    separated_bruteforce,
    ss2_witness,
    theta_eval,
    theta_image,
    theta_to_mu,
    verify_L_relation,
)
from arboreal import checks
from arboreal.amalgam import AmalgamError, enumerate_trees
from arboreal.trees import EMPTY_TREE, Tree, TreeError, build_tree, parse_tree

T = RatFun.t()


# -- separation ---------------------------------------------------------------


def test_separated_examples():
    t8 = parse_tree("((a,b),c,(d,e))")
    assert separated(t8, "a", "d") is True
    t5 = parse_tree("((a,b),(c,d))")
    assert separated(t5, "a", "c") is False
    t10 = parse_tree("((a,b),(c,d,e,f))")
    assert separated(t10, "a", "c") is True
    assert separated(parse_tree("(a,b)"), "a", "b") is False
    assert separated(parse_tree("(a,b,c)"), "a", "b") is False
    with pytest.raises(TreeError):
        separated(parse_tree("(a/b,c,d)"), "a", "b")


def test_separated_agrees_with_bruteforce(small_trees):
    for n in (2, 3, 4, 5):
        for t in small_trees[n]:
            labels = sorted(t.label_set)
            for i in range(len(labels)):
                for j in range(i + 1, len(labels)):
                    assert separated(t, labels[i], labels[j]) == separated_bruteforce(
                        t, labels[i], labels[j]
                    )


def test_separated_is_stable_under_extensions(small_trees):
    for n in (2, 3, 4):
        for t in small_trees[n]:
            labels = sorted(t.label_set)
            for i in range(len(labels)):
                for j in range(i + 1, len(labels)):
                    if not separated(t, labels[i], labels[j]):
                        continue
                    for bigger in t.insertions(("zz",)):
                        assert separated(bigger, labels[i], labels[j])


# -- marked trees ----------------------------------------------------------------


def test_mark_types():
    assert str(mark_type(marked_star(5))) == "I5"
    assert str(mark_type(marked_y())) == "II"
    assert str(mark_type(marked_z())) == "III"
    t13 = parse_tree("((a,b,c),d,(e,f))")
    assert str(mark_type(MarkedTree(t13, "d"))) == "III"
    assert generator_name(MarkedTree(t13, "d")) == "z"


def test_minimize_examples():
    mt, tp = minimize_marked(marked_star(5))
    assert mt.tree == marked_star(5).tree and str(tp) == "I5"
    mt, tp = minimize_marked(MarkedTree(parse_tree("((a,b,c),d,(e,f))"), "d"))
    assert str(tp) == "III"
    assert mt.tree.shape_key() == marked_z().tree.shape_key()
    mt, tp = minimize_marked(MarkedTree(parse_tree("((a,b),(c,m))"), "m"))
    assert str(tp) == "II"


def test_minimization_sweep_past_the_listing_cap_is_refused(monkeypatch):
    # the trees on ten labels pass LISTING_CAP; no tree may be listed first
    monkeypatch.setattr(checks, "enumerate_trees", None)
    with pytest.raises(AmalgamError, match="enumeration listing exceeded"):
        checks.minimization_sweep(10)


def test_minimization_order_independent(small_trees):
    def minimize_all_orders(mt):
        extras = extraneous_leaves(mt)
        if not extras:
            return {(mt.tree.shape_key(), str(mark_type(mt)))}
        out = set()
        for e in extras:
            out |= minimize_all_orders(MarkedTree(mt.tree.drop_leaf(e), mt.mark))
        return out

    for n in (4, 5):
        for t in small_trees[n]:
            for label in sorted(t.label_set):
                results = minimize_all_orders(MarkedTree(t, label))
                assert len(results) == 1


def test_type_preserved_by_extraneous_deletion(small_trees):
    for n in (4, 5):
        for t in small_trees[n]:
            for label in sorted(t.label_set):
                mt = MarkedTree(t, label)
                tp = mark_type(mt)
                for e in extraneous_leaves(mt):
                    assert mark_type(MarkedTree(t.drop_leaf(e), label)) == tp


# -- the ring Z[u,v]/(uv) -----------------------------------------------------------


def test_theta_images():
    u, v = ThetaElement.u(), ThetaElement.v()
    assert theta_image("x1") == u + v + ThetaElement.const(2)
    assert theta_image("x2") == u + v + ThetaElement.const(1)
    assert theta_image("x3") == u + v
    assert theta_image("y") == u
    assert theta_image("z") == u - v
    assert theta_image("x7") == v + ThetaElement.const(1) - (u + ThetaElement.const(1)).scale(5)
    with pytest.raises(ValueError):
        theta_image("w")


def test_ring_structure():
    u, v = ThetaElement.u(), ThetaElement.v()
    assert (u * v).is_zero()
    assert str(u * u) == "u^2"
    assert str(u - v + ThetaElement.const(3)) == "3+u-v"
    assert theta_eval("y*(z-y)").is_zero()
    assert str(theta_eval("y*z")) == "u^2"
    assert str(theta_eval("(x3-y)*(x3-z)")) == "2*v^2"
    with pytest.raises(ValueError):
        theta_eval("y +* z")
    with pytest.raises(ValueError):
        theta_eval("(y")
    values = theta_generator_values(SYMBOLIC, 6)
    for malformed in ("y)", "(y", "y +* z"):
        with pytest.raises(ValueError):
            evaluate_form_mu(malformed, values)
    with pytest.raises(ValueError, match="unknown generator 'x9'"):
        evaluate_form_mu("x9+1", values)


def _random_form(rng, depth):
    """A random generator expression: integers, x1..x7, y, z, + - * and
    parentheses, with unary minus and unparenthesized precedence."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["%d" % rng.randint(0, 9), "x%d" % rng.randint(1, 7), "y", "z"])
    kind = rng.randrange(4)
    if kind == 0:
        return "-" + _random_form(rng, depth - 1)
    if kind == 1:
        return "(%s)" % _random_form(rng, depth - 1)
    return _random_form(rng, depth - 1) + rng.choice("+-*") + _random_form(rng, depth - 1)


def test_theta_eval_matches_sympy_expansion():
    """theta_eval equals the expansion in Z[u,v] with every monomial
    divisible by u*v dropped."""
    sympy = pytest.importorskip("sympy")
    u, v = sympy.symbols("u v")
    images = {"y": u, "z": u - v, "x1": u + v + 2, "x2": u + v + 1, "x3": u + v}
    images.update({"x%d" % m: v + 1 - (m - 2) * (u + 1) for m in range(4, 8)})
    names = {name: sympy.Symbol(name) for name in images}
    rng = random.Random(20231)
    for _ in range(400):
        form = _random_form(rng, 5)
        expanded = sympy.expand(sympy.sympify(form, locals=names).subs(
            {names[k]: images[k] for k in images}, simultaneous=True))
        want = {
            m: int(c)
            for m, c in sympy.Poly(expanded, u, v).terms()
            if c and (m[0] == 0 or m[1] == 0)
        }
        e = theta_eval(form)
        got = {(i, 0): c for i, c in enumerate(e.p.coeffs) if c}
        got.update({(0, j): c for j, c in enumerate(e.q.coeffs) if c})
        assert got == want, form


def test_defining_forms_vanish():
    values = theta_generator_values(SYMBOLIC, 8)
    forms = list(LINEAR_FORMS) + [QUADRATIC_FORM, linear_form_for_m(6), linear_form_for_m(7)]
    for form in forms:
        assert theta_eval(form).is_zero(), form
        assert evaluate_form_mu(form, values).is_zero(), form


def test_specialization_matches_measure():
    values = theta_generator_values(SYMBOLIC, 8)
    for name, value in values.items():
        assert theta_to_mu(theta_image(name)) == value
    with pytest.raises(ValueError):
        theta_image("x3").specialize(RatFun.one(), RatFun.one())


def test_infinity_specialization():
    minus_one = RatFun.from_scalar(-1)
    zero = RatFun.zero()
    limits = {"x1": 1, "x2": 0, "x3": -1, "x6": 1, "y": -1, "z": -1}
    for name, expected in limits.items():
        assert theta_image(name).specialize(minus_one, zero) == RatFun.from_scalar(expected)


# -- duplicate relations --------------------------------------------------------------


def test_relation_star3():
    rel = verify_L_relation(marked_star(3))
    assert rel.terms == {"x3": 1, "1": -1, "y": -3, "x4": -1}
    assert rel.residual_mu.is_zero() and rel.residual_theta.is_zero()
    json = rel.to_json()
    assert json["residual_mu"] == "0"


def test_relation_star1():
    rel = verify_L_relation(marked_star(1))
    assert rel.terms == {"x1": 1, "1": -1, "x2": -1}


def test_relation_y_and_z_coincide():
    rely = verify_L_relation(marked_y())
    relz = verify_L_relation(marked_z())
    assert rely.terms == relz.terms == {"1": -1, "x4": -1, "y": -1, "z": -1}
    for rel in (rely, relz):
        assert rel.residual_mu.is_zero() and rel.residual_theta.is_zero()


def test_relation_rejects_non_minimal():
    not_minimal = MarkedTree(parse_tree("((a,b),c,(d,q))"), "q")
    assert extraneous_leaves(not_minimal)
    with pytest.raises(ValueError):
        verify_L_relation(not_minimal)


# -- the many-extensions witness ---------------------------------------------------------


def test_count_extensions_base():
    star = parse_tree("(a,b,c)")
    assert count_extensions(parse_tree("(a,b)"), ("a",), star) == 2


def test_ss2_witness_examples():
    star = parse_tree("(a,b,c)")
    z, count = ss2_witness(star, parse_tree("a"), 4)
    assert count >= 4
    assert z.level <= max(star.level, 3)
    z1, c1 = ss2_witness(star, parse_tree("a"), 1)
    assert c1 >= 1 and z1.leaf_count == star.leaf_count
    with pytest.raises(ValueError):
        ss2_witness(star, star, 2)
    with pytest.raises(ValueError):
        ss2_witness(star, parse_tree("(x,y)"), 2)


def test_ss2_witness_levels():
    cases = [
        (parse_tree("((a,b),(c,d,e,f))"), "ab", 3),
        (parse_tree("(a,b)"), "a", 3),
        (parse_tree("(a,b,c,d,e)"), "abc", 2),
    ]
    for y, keep, h in cases:
        x = y.restrict(keep)
        z, count = ss2_witness(y, x, h)
        assert count >= h
        assert z.level <= max(y.level, 3)


def witness_by_edges(y: Tree, x: Tree, h: int) -> Tree:
    """The oracle: ss2_witness's tree as explicit graph data through
    build_tree, the leaf of a deleted and a chain of h - 1 cherries and a
    last leaf hung from its neighbour."""
    x_labels = x.label_set
    a = min(min(y.labels_of(v)) for v in y.leaves() if x_labels.isdisjoint(y.labels_of(v)))
    fresh = ["%s.w%d" % (a, i) for i in range(1, h + 1)]
    n = len(y.adj)
    av = y.leaf_of(a)
    edges = [(u, v) for u in range(n) for v in y.adj[u] if u < v and av not in (u, v)]
    labels = {v: y.labels_of(v) for v in range(n) if v != av and y.labels_of(v)}
    prev = y.adj[av][0] if y.adj[av] else None
    for i, lab in enumerate(fresh[:-1]):
        chain_v, leaf_v = n + 2 * i, n + 2 * i + 1
        if prev is not None:
            edges.append((prev, chain_v))
        labels[leaf_v] = (lab,)
        edges.append((chain_v, leaf_v))
        prev = chain_v
    last = n + 2 * (h - 1)
    labels[last] = (fresh[-1],)
    if prev is not None:
        edges.append((prev, last))
    return build_tree([v for v in range(n) if v != av] + list(range(n, last + 1)), edges, labels)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 4), st.integers(1, 5), st.randoms(use_true_random=False))
def test_ss2_witness_is_the_edge_list_construction(n, h, rng):
    """On a random y with n leaves, some carrying two labels, and a proper
    restriction x keeping whole leaves and parts of leaves, the grafted
    witness has the oracle's canonical key and the same count."""
    labels = "abcd"[:n]
    y = rng.choice(enumerate_trees(labels))
    y = y.merge_labels({l: [l + "x"] for l in labels if rng.random() < 0.3})
    spare = rng.choice(labels)
    keep = [l for l in sorted(y.label_set) if l[0] != spare and rng.random() < 0.7]
    x = y.restrict(keep)
    z, count = ss2_witness(y, x, h)
    want = witness_by_edges(y, x, h)
    assert z.canonical_key() == want.canonical_key()
    assert count == count_extensions(y, x.label_set, want)


def test_ss2_witness_on_one_leaf_and_colliding_labels():
    """A one-leaf y grows a caterpillar of the fresh labels alone; a fresh
    label that another leaf of y holds is refused, as by build_tree."""
    for text in ("a", "a/b"):
        for h in range(1, 6):
            z, _ = ss2_witness(parse_tree(text), EMPTY_TREE, h)
            assert z == witness_by_edges(parse_tree(text), EMPTY_TREE, h)
    y, x = parse_tree("(a,a.w1,b)"), parse_tree("b")
    for h in (1, 2):
        with pytest.raises(TreeError, match="duplicate label 'a.w1'"):
            ss2_witness(y, x, h)
        with pytest.raises(TreeError, match="duplicate label 'a.w1'"):
            witness_by_edges(y, x, h)
    # the leaf of a gives its own labels up
    y = parse_tree("(a/a.w1,b,c)")
    assert ss2_witness(y, parse_tree("b"), 2)[0] == witness_by_edges(y, parse_tree("b"), 2)


def test_ss2_witness_refuses_a_y_with_no_leaf_outside_x():
    """When every leaf of y outside x also carries a label of x, no leaf
    can make room for the cherries: the witness is refused with a
    ValueError, not an IndexError from the empty list of spare leaves."""
    y = parse_tree("(a/b,c/d)")
    for x in (y.restrict("ac"), y.restrict("ad"), y.restrict("bd")):
        with pytest.raises(ValueError, match="every leaf of y carries a label of x"):
            ss2_witness(y, x, 2)
