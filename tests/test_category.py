"""Morphism spaces, composition, traces, and the truncation functor.

Core claims:
    - morphism-space dimensions match the censuses (3 between the one-leaf
      and two-leaf objects, 10 endomorphisms of the edge, 1 from the empty
      tree)
    - every basis morphism factors through its two embedding morphisms
    - composition is associative with two-sided units; transpose is an
      involutive anti-automorphism; traces are symmetric
    - the trace pairing is diagonal under transposition and its determinant
      is the signed product of basis measures; the transpose permutation an
      algebra stores is the retag-and-key oracle's, and nothing retags it
      again
    - an object with a multi-label leaf has the diagonal, transposes,
      embeddings, compositions, Gram determinant and traces of the object
      with one label there, and its traces via trees are those of products
    - numeric composition equals symbolic composition then substitution,
      and infinity composition takes each coefficient's limit
    - a cold composition table, read from the search's last level, has the
      rows of the oracle that builds, restricts and keys every extension
    - the composition tables evict the least recently used; a composition
      does not depend on which tables the cache holds, a repeated dense
      product builds none, and the cap holds the measured working sets
    - bases, compositions, transposes and diagonals build their
      amalgamations unvalidated; a public construction validates once
    - truncation keeps low-level terms, is multiplicative at the level
      parameter, and is the identity when nothing exceeds the bound
    - minimal polynomials and idempotent reports behave on easy elements
    - products and compositions, summed once per output slot, equal the
      sequential fold of fully normalized two-term sums, and products over
      one common denominator per operand and one for the structure
      constants equal the per-term sum of the previous multiply, also with
      wide coefficients packed past 64 bits per digit; fixed products,
      measure sums, compositions and a round of edge-algebra ops run an
      exact number of gcds, and the round's products an exact number of
      polynomial products, none per structure-constant term
"""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal import amalgam, category
from arboreal.amalgam import Amalgamation, _site_signatures, amalgamation_trees, trees_with_restrictions
from arboreal.cli import run
from arboreal.category import (
    ArborealAlgebra,
    HomElement,
    algebra_for,
    compose,
    diagonal_amalgamation,
    embedding_morphisms,
    evaluate_coefficients,
    hom_basis,
    identity_hom,
    categorical_trace,
    tensor_summands,
    transpose,
    triple_trace,
    truncate_level,
)
from arboreal.edge_algebra import EdgeAlgebra, edge_algebra
from arboreal.measure import ParamSpec, _embedding_sum, mu_sum, mu_symbolic, set_mu_perturbation
from arboreal.ratfun import ONE, ZERO, Poly, RatFun, parse_ratfun
from arboreal.trees import EMPTY_TREE, Tree, TreeError, _signature, parse_tree

T = RatFun.t()
EDGE = parse_tree("(1,2)")
POINT = parse_tree("x0")


def test_hom_dimensions():
    assert len(hom_basis(POINT, EDGE)) == 3
    assert len(hom_basis(EDGE, EDGE)) == 10
    assert len(hom_basis(EMPTY_TREE, parse_tree("(a,b,(c,d))"))) == 1
    keys = {am.key for am in hom_basis(POINT, EDGE)}
    assert keys == {
        parse_tree("(s:x0/t:1,t:2)").canonical_key(),
        parse_tree("(s:x0/t:2,t:1)").canonical_key(),
        parse_tree("(s:x0,t:1,t:2)").canonical_key(),
    }


def test_tensor_summands():
    summands = tensor_summands(parse_tree("(1,2)"), parse_tree("(3,4,5)"))
    assert len(summands) == 56
    assert len(tensor_summands(parse_tree("a"), parse_tree("b"))) == 2


def test_identity_and_units():
    one = identity_hom(EDGE)
    for am in hom_basis(EDGE, EDGE):
        phi = HomElement.basis(EDGE, EDGE, am)
        assert compose(one, phi).terms == phi.terms
        assert compose(phi, one).terms == phi.terms


def test_factorization_through_embeddings():
    """Every basis morphism is the backward map of one embedding composed
    with the forward map of the other."""
    for am in hom_basis(POINT, EDGE):
        # the amalgamation as a plain object: one representative label per
        # leaf, each source/target label remembering where it landed
        reps = {}
        source_map, target_map = {}, {}
        plain_labels = {}
        for v, ls in enumerate(am.whole.labels):
            if not ls:
                continue
            rep = min(l[2:] for l in ls)
            plain_labels[v] = rep
            for l in ls:
                (source_map if l.startswith("s:") else target_map)[l[2:]] = rep
        plain = am.whole.relabel(
            {l: plain_labels[am.whole.leaf_of(l)] for l in am.whole.label_set}
        )
        beta, _ = embedding_morphisms(POINT, plain, source_map)
        _, alpha = embedding_morphisms(EDGE, plain, target_map)
        assert compose(alpha, beta).terms == HomElement.basis(POINT, EDGE, am).terms


def test_embedding_morphisms_special_cases():
    beta, alpha = embedding_morphisms(EDGE, EDGE)
    assert beta.terms == identity_hom(EDGE).terms
    assert alpha.terms == identity_hom(EDGE).terms
    beta, alpha = embedding_morphisms(POINT, parse_tree("(x0,y)"))
    assert transpose(beta).terms == alpha.terms
    with pytest.raises(TreeError):
        embedding_morphisms(parse_tree("(a,b)"), parse_tree("(x,y)"))


def test_objects_with_a_multi_label_leaf():
    """Each term is built on the trusted path, unchecked, so a leaf carrying
    a/b is one leaf of the object: its morphisms behave as those of (a,c)."""
    obj = parse_tree("(a/b,c)")
    diag = diagonal_amalgamation(obj)
    assert diag.whole == parse_tree("(s:a/s:b/t:a/t:b,s:c/t:c)")
    assert diag.left_tree() == parse_tree("(s:a/s:b,s:c)")
    one = identity_hom(obj)
    basis = hom_basis(obj, obj)
    assert len(basis) == 10
    for am in basis[::3]:
        phi = HomElement.basis(obj, obj, am)
        assert compose(one, phi).terms == phi.terms == compose(phi, one).terms
        assert transpose(transpose(phi)).terms == phi.terms
    beta, alpha = embedding_morphisms(parse_tree("a/b"), obj)
    assert transpose(beta).terms == alpha.terms
    plain_beta, plain_alpha = embedding_morphisms(parse_tree("a"), parse_tree("(a,c)"))
    for loop in (compose(alpha, beta), compose(plain_alpha, plain_beta)):
        assert [c for _, c in loop.terms] == [1 / (T - 1)]
    grams = []
    for text in ("(1/2,3)", "(1,3)"):
        code, out = run(["algebra", "gram", "--tree", text])
        assert code == 0
        data = json.loads(out)
        grams.append((len(data["basis"]), data["det_factored"]))
    assert grams[0] == grams[1] == (10, "t^10*(t-2)^11*(t-3) / (t-1)^32")


def test_traces_on_an_object_with_a_multi_label_leaf():
    """The labels a/b of one leaf share a class of the trace search, so the
    trace via trees is that of the product, and equals the trace of (a,c)."""
    alg, plain = algebra_for(parse_tree("(a/b,c)")), algebra_for(parse_tree("(a,c)"))
    b0, p0 = alg.basis_element(0), plain.basis_element(0)
    cube = triple_trace(*[alg.basis[0]] * 3)
    assert cube == alg.utr(b0 * b0 * b0) == plain.utr(p0 * p0 * p0) != ZERO
    for i, j in product(range(0, 10, 3), repeat=2):
        row = dict(alg.product_row(i, j))
        for k in range(alg.dim):
            traced = triple_trace(alg.basis[alg.transposes[k]], alg.basis[i], alg.basis[j])
            assert traced == row.get(k, ZERO) * mu_symbolic(alg.basis[k].whole), (i, j, k)
    outs = []
    for text in ("(1/2,3)", "(1,3)"):
        key = json.loads(run(["algebra", "gram", "--tree", text])[1])["basis"][0]
        code, out = run(["algebra", "trace", "--tree", text, "--u", key, "--v", key, "--w", key])
        assert code == 0
        data = json.loads(out)
        outs.append((data["triple_trees"], data["utr"]))
    assert outs[0] == outs[1] == (10, "4*t^5-29*t^4+78*t^3-92*t^2+40*t / t^6-6*t^5+15*t^4-20*t^3+15*t^2-6*t+1")


def test_transpose_involution_and_antihomomorphism():
    alg = algebra_for(EDGE)
    for i in (0, 3, 5):
        for j in (1, 4, 8):
            f = HomElement.basis(EDGE, EDGE, alg.basis[i])
            g = HomElement.basis(EDGE, EDGE, alg.basis[j])
            assert transpose(transpose(f)).terms == f.terms
            assert transpose(compose(f, g)).terms == compose(transpose(g), transpose(f)).terms


def test_trace_values(edge):
    alg = edge.algebra
    assert categorical_trace(identity_hom(EDGE)) == mu_symbolic(EDGE)
    assert alg.utr(edge.a[8]).is_zero()
    assert alg.utr(edge.b[1]) == T / (2 * (T - 1) ** 2)
    with pytest.raises(TreeError):
        categorical_trace(HomElement.basis(POINT, EDGE, hom_basis(POINT, EDGE)[0]))


def test_trace_symmetry_on_basis(edge):
    alg = edge.algebra
    for i in (0, 2, 7, 9):
        for j in (1, 3, 8):
            a, b = alg.basis_element(i), alg.basis_element(j)
            assert alg.utr(a * b) == alg.utr(b * a)


def test_numeric_composition_matches_symbolic(edge):
    alg = edge.algebra
    f = alg.to_hom(edge.a[8])
    g = alg.to_hom(edge.a[10])
    sym = compose(f, g)
    num = compose(f, g, ParamSpec.numeric(Fraction(9, 2)))
    assert num.terms == evaluate_coefficients(sym, Fraction(9, 2)).terms


def test_infinity_composition_takes_the_limit_of_each_coefficient(edge):
    """Under infinity every coefficient of the symbolic composition becomes
    its limit as t grows, and zero limits are pruned: on the edge algebra,
    basis 3 after basis 5 has five terms t-3 / t-1, of limit 1, and one
    term -2 / t-1, of limit 0.  Each limit is also checked against the
    value at t = 10^12."""
    alg = edge.algebra
    inf = ParamSpec.infinity()

    def limit(c):
        return Fraction(c.num.leading(), c.den.leading()) if c.num.degree == c.den.degree else 0

    f, g = (HomElement.basis(EDGE, EDGE, alg.basis[i]) for i in (3, 5))
    sym = compose(f, g).terms
    assert sorted(str(c) for _, c in sym) == ["-2 / t-1"] + ["t-3 / t-1"] * 5
    assert compose(f, g, inf).terms == tuple((am, ONE) for am, c in sym if str(c) == "t-3 / t-1")
    for fi, gj in product(alg.basis, repeat=2):
        f, g = HomElement.basis(EDGE, EDGE, fi), HomElement.basis(EDGE, EDGE, gj)
        sym = compose(f, g).terms
        for _, c in sym:
            assert abs(c.evaluate(10 ** 12) - limit(c)) < Fraction(1, 10 ** 6)
        want = tuple((am, RatFun.from_scalar(limit(c))) for am, c in sym if limit(c))
        assert compose(f, g, inf).terms == want


def test_internal_amalgamations_are_not_validated(monkeypatch):
    """The program builds its amalgamations on the trusted path: the bases,
    cold compositions, transposes and diagonals of the compose benchmark's
    objects validate none of them, and one public construction validates
    once."""
    calls = []
    check = Amalgamation.__post_init__
    monkeypatch.setattr(Amalgamation, "__post_init__", lambda am: calls.append(am) or check(am))
    monkeypatch.setattr(category, "_TRIPLE_CACHE", {})  # every table is built
    objects = [parse_tree(text) for text in ("g1", "(g1,g2)", "(g1,g2,g3)")]
    for a, b, c in product(objects, repeat=3):
        if len(a.label_set) + len(c.label_set) <= 4:
            f = HomElement.basis(b, c, hom_basis(b, c)[-1])
            g = HomElement.basis(a, b, hom_basis(a, b)[0])
            assert not transpose(compose(f, g)).is_zero()
    for obj in objects:
        assert categorical_trace(identity_hom(obj)) == mu_symbolic(obj)
    assert calls == []
    whole = parse_tree("(s:g1/t:g1,s:g2,t:g2)")
    Amalgamation(whole, frozenset(("s:g1", "s:g2")), frozenset(("t:g1", "t:g2")))
    assert len(calls) == 1


def test_gram_structure(edge):
    alg = edge.algebra
    gram = alg.gram_matrix()
    for i in range(alg.dim):
        for j in range(alg.dim):
            expected = (
                mu_symbolic(alg.basis[i].whole)
                if j == transpose_index(alg, i)
                else RatFun.zero()
            )
            assert gram[i][j] == expected
    # cross-check a few entries against trace-of-product
    for i in (0, 4, 7, 9):
        for j in (2, 7, 8):
            a, b = alg.basis_element(i), alg.basis_element(j)
            assert alg.utr(a * b) == gram[i][j]
    det = alg.gram_det()
    prod = RatFun.one()
    for am in alg.basis:
        prod = prod * mu_symbolic(am.whole)
    assert det in (prod, -prod)


def transpose_index(alg, i):
    """The oracle: the basis index of basis[i]'s transpose, found by
    swapping the two block tags of its whole and keying the result."""
    whole = category.retag(alg.basis[i].whole, {"s:": "t:", "t:": "s:"})
    return alg.index[whole.canonical_key()]


def test_transposes_are_the_basis_involution(monkeypatch):
    """The transposes an algebra stores equal the per-index oracle and form
    an involution; once the algebra is built, transposing a vector, the Gram
    matrix and its determinant retag nothing."""
    algebras = [algebra_for(POINT), algebra_for(EDGE), algebra_for(EDGE, 3),
                algebra_for(EDGE, 4), algebra_for(parse_tree("(1,2,3)"), 3)]
    for alg in algebras:
        assert list(alg.transposes) == [transpose_index(alg, i) for i in range(alg.dim)]
        assert all(alg.transposes[j] == i for i, j in enumerate(alg.transposes))
    edge = ArborealAlgebra(EDGE)
    gram, det = edge.gram_matrix(), edge.gram_det()

    def refuse(*args):
        raise AssertionError("retagged after the algebra was built")

    monkeypatch.setattr(category, "retag", refuse)
    e = edge.element({i: i + 1 for i in range(edge.dim)})
    assert edge.transpose_vector(e).vec == tuple(
        RatFun.from_scalar(edge.transposes[i] + 1) for i in range(edge.dim)
    )
    assert edge.gram_matrix() == gram and edge.gram_det() == det


def cycle_sign(alg):
    """The sign of the transposition permutation of the basis, by walking
    its cycles: each cycle of even length flips it."""
    sign, seen = 1, [False] * alg.dim
    for i in range(alg.dim):
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = transpose_index(alg, j)
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


@pytest.mark.parametrize(
    "scale", [None, Fraction(2), Fraction(1, 2), Fraction(-3, 2), Fraction(-1)]
)
def test_gram_det_is_the_signed_product_of_basis_measures(scale):
    """The determinant read from the basis signatures equals the sequential
    product of the basis measures times the cycle walk's sign: on the point,
    on the edge unbounded and at levels 3 and 4, and on (1,2,3) at levels 3
    and 4, where it is evaluated without expanding."""
    tri = parse_tree("(1,2,3)")
    algebras = [algebra_for(POINT), algebra_for(EDGE), algebra_for(EDGE, 3),
                algebra_for(EDGE, 4), algebra_for(tri, 3), algebra_for(tri, 4)]
    assert [alg.dim for alg in algebras[-2:]] == [300, 523]
    set_mu_perturbation(scale)
    try:
        for alg in algebras:
            prod = ONE
            for am in alg.basis:
                prod = prod * alg._mu(am.whole)
            assert alg.gram_det() == cycle_sign(alg) * prod, (alg.tree, alg.max_level)
    finally:
        set_mu_perturbation(None)


def test_semisimplicity_verdicts():
    alg = algebra_for(EDGE)
    ok, witness, factor = alg.is_semisimple_at(Fraction(7, 2))
    assert ok and witness is None
    ok, witness, factor = alg.is_semisimple_at(3)
    assert not ok
    assert witness == parse_tree("(s:1,s:2,t:1,t:2)").canonical_key()
    assert factor == "(t-3)"
    with pytest.raises(ValueError):
        alg.is_semisimple_at(1)


def test_minimal_polynomials(edge):
    alg = edge.algebra
    assert alg.minimal_polynomial(alg.identity()) == [RatFun.from_scalar(-1), ONE]
    assert alg.minimal_polynomial(edge.a[2]) == [RatFun.from_scalar(-1), RatFun.zero(), ONE]


def test_idempotent_reports(edge):
    alg = edge.algebra
    zero = alg.element({})
    report = alg.idempotent_report(zero)
    assert report["is_idempotent"] and report["udim_image"].is_zero()
    e1 = edge.minus_idempotents()["e1"]
    report = alg.idempotent_report(e1)
    assert report["is_idempotent"] and report["udim_image"] == ONE / (T - 1)
    report = alg.idempotent_report(edge.a[8])
    assert not report["is_idempotent"]


def test_truncation():
    alg = algebra_for(EDGE)
    one = identity_hom(EDGE)
    assert truncate_level(one, 3).terms == one.terms
    star4 = HomElement.basis(EDGE, EDGE, alg.basis[alg.index[parse_tree("(s:1,s:2,t:1,t:2)").canonical_key()]])
    assert truncate_level(star4, 3).is_zero()
    assert truncate_level(star4, 4).terms == star4.terms
    with pytest.raises(ValueError):
        truncate_level(one, 2)


def test_truncated_algebra_composition():
    alg = algebra_for(EDGE)
    balg = algebra_for(EDGE, max_level=3)
    assert balg.dim == sum(1 for am in alg.basis if am.whole.level <= 3) == 9
    p3 = ParamSpec.finite_level(3)
    # spot-check multiplicativity through the quotient on a pair
    f = HomElement.basis(EDGE, EDGE, alg.basis[1])
    g = HomElement.basis(EDGE, EDGE, alg.basis[4])
    lhs = evaluate_coefficients(truncate_level(compose(f, g), 3), 3)
    rhs = compose(truncate_level(f, 3), truncate_level(g, 3), p3)
    assert lhs.terms == rhs.terms


def test_product_rows_match_composition():
    """Structure constants read by basis index equal the composition of the
    two basis morphisms, taken back into the algebra."""
    for max_level in (None, 3, 4):
        alg = algebra_for(EDGE, max_level)
        p = ParamSpec.symbolic() if max_level is None else ParamSpec.finite_level(max_level)
        for i, fi in enumerate(alg.basis):
            for j, gj in enumerate(alg.basis):
                f = HomElement.basis(EDGE, EDGE, fi)
                g = HomElement.basis(EDGE, EDGE, gj)
                vec = alg.from_hom(compose(f, g, p)).vec
                nonzero = tuple((k, c) for k, c in enumerate(vec) if not c.is_zero())
                assert alg.product_row(i, j) == nonzero, (max_level, i, j)


def test_product_rows_are_sparse():
    """A structure-constant row holds no zero value, and its basis indices
    strictly increase."""
    for max_level in (None, 3, 4):
        alg = algebra_for(EDGE, max_level)
        for i in range(alg.dim):
            for j in range(alg.dim):
                row = alg.product_row(i, j)
                assert not any(w.is_zero() for _, w in row)
                assert all(a < b for (a, _), (b, _) in zip(row, row[1:]))


def test_held_algebra_reads_rows_under_the_current_measure():
    """An algebra held across a measure perturbation returns the same rows
    as a fresh instance, never rows computed under the earlier measure."""
    tree = parse_tree("(p,q)")
    alg = algebra_for(tree)
    assert alg.product_row(1, 2)
    set_mu_perturbation(Fraction(2))
    try:
        assert alg.product_row(1, 2) == ArborealAlgebra(tree).product_row(1, 2)
    finally:
        set_mu_perturbation(None)


def test_composition_table_keys_only_the_restrictions(keyed_sizes):
    """The extensions are summed by signature; only their (1,3)-restrictions
    are keyed, never a tree on all three blocks of two labels each."""
    x, y = parse_tree("(p,q)"), parse_tree("(r,u)")
    f = HomElement.basis(x, y, hom_basis(x, y)[0])
    g = HomElement.basis(y, x, hom_basis(y, x)[-1])
    category._TRIPLE_CACHE.clear()
    assert compose(g, f).terms
    assert keyed_sizes and max(keyed_sizes) < 6


def test_composition_tables_evict_the_least_recently_used(monkeypatch):
    """A read makes a table the most recently used: with room for two,
    tables A and B, then a read of A, then a new table C evicts B."""
    monkeypatch.setattr(category, "TRIPLE_CACHE_CAP", 2)
    monkeypatch.setattr(category, "_TRIPLE_CACHE", {})
    basis = hom_basis(EDGE, EDGE)
    a, b, c = ((basis[i], basis[j], None) for i, j in ((0, 1), (1, 2), (2, 0)))
    table_a = category._composition_table(*a)
    category._composition_table(*b)
    assert category._composition_table(*a) is table_a
    category._composition_table(*c)
    assert set(category._TRIPLE_CACHE) == {(x.key, y.key, None) for x, y, _ in (a, c)}


def table_builds(monkeypatch):
    """The arguments of every search a composition table reads, one per
    table built, recorded from now on."""
    builds = []
    tallies = category._restriction_tallies
    monkeypatch.setattr(category, "_restriction_tallies", lambda *args: builds.append(args) or tallies(*args))
    return builds


def test_compositions_do_not_depend_on_the_cache_history(monkeypatch):
    """Every chain compose allows among p, (p,q) and (p,q,r), with at most
    four outer leaves, composes the same under a cap of one table, where
    every table is rebuilt, as under the default cap, cold and then warm
    with every table read from the cache.  The build counter sees every
    cold table before it is trusted to see none."""
    objects = [parse_tree(text) for text in ("p", "(p,q)", "(p,q,r)")]

    def sparse(source, target):
        basis = hom_basis(source, target)
        return HomElement.make(source, target, {basis[0]: 1, basis[len(basis) // 2]: Fraction(2, 3),
                                                basis[-1]: T - 2})

    chains = [(sparse(b, c), sparse(a, b)) for a, b, c in product(objects, repeat=3)
              if len(a.label_set) + len(c.label_set) <= 4]
    assert len(chains) == 18

    def composed():
        return [json.dumps(compose(f, g).to_json()) for f, g in chains]

    cap = category.TRIPLE_CACHE_CAP
    monkeypatch.setattr(category, "TRIPLE_CACHE_CAP", 1)
    monkeypatch.setattr(category, "_TRIPLE_CACHE", {})
    rebuilt = composed()
    monkeypatch.setattr(category, "TRIPLE_CACHE_CAP", cap)
    monkeypatch.setattr(category, "_TRIPLE_CACHE", {})
    builds = table_builds(monkeypatch)
    assert composed() == rebuilt
    assert len(builds) == len(category._TRIPLE_CACHE) > 0  # the hook sees every cold table
    builds.clear()
    assert composed() == rebuilt
    assert builds == []


def test_repeated_dense_products_build_no_table(edge, monkeypatch):
    """A work guard: a dense product in the edge algebra builds its 100
    tables once, cold, and a second one reads them all from the cache; the
    cap holds the 1,644 tables of a dense element times a three-term
    element of End((1,2,3))."""
    alg = edge.algebra
    dense = alg.element({i: i + 1 for i in range(alg.dim)})
    monkeypatch.setattr(category, "_TRIPLE_CACHE", {})
    builds = table_builds(monkeypatch)
    alg.multiply(dense, dense)
    assert len(builds) == alg.dim ** 2 == 100  # the hook sees every cold table
    builds.clear()
    alg.multiply(dense, dense)
    assert builds == []
    assert category.TRIPLE_CACHE_CAP >= 3 * algebra_for(parse_tree("(1,2,3)")).dim


def test_a_cold_table_checks_its_base_without_a_restriction(edge, monkeypatch):
    """A work guard: the base check of a cold composition table compares
    clusters, so no ``Tree.restrict`` call runs inside
    ``_amalgamation_classes`` (two per table while it compared
    restrictions).  The hook first sees each of the 100 cold tables of a
    dense edge product."""
    entered, inside, restricted = [], [], []
    classes, restrict = category._amalgamation_classes, Tree.restrict

    def counted_classes(*args):
        entered.append(1)
        inside.append(1)
        try:
            return classes(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(category, "_amalgamation_classes", counted_classes)
    monkeypatch.setattr(Tree, "restrict", lambda self, keep: (inside and restricted.append(1)) or restrict(self, keep))
    monkeypatch.setattr(category, "_TRIPLE_CACHE", {})
    alg = edge.algebra
    dense = alg.element({i: i + 1 for i in range(alg.dim)})
    alg.multiply(dense, dense)
    assert len(entered) == 100 and restricted == []


def composition_table_oracle(gu, fv, max_level):
    """The oracle: every three-block extension built by
    ``amalgamation_trees`` with the blocks tagged "1:", "2:", "3:", then
    restricted to the outer blocks, keyed and signed one at a time, and each
    row's value from the unmemoized ``_embedding_sum``."""
    u = category.retag(gu.whole, {"s:": "1:", "t:": "2:"})
    v = category.retag(fv.whole, {"s:": "2:", "t:": "3:"})
    stored = {"1:" + l[2:]: l for l in gu.left}
    stored.update(("3:" + l[2:], l) for l in fv.right)
    rows = {}
    for z in amalgamation_trees(u, v, max_level):
        y = z.restrict(stored)
        y3 = Tree(y.adj, tuple(tuple(map(stored.__getitem__, ls)) for ls in y.labels))
        rows.setdefault(y3.canonical_key(), (y3, Counter()))[1][_signature(z)] += 1
    return tuple(
        (Amalgamation._of(y3, gu.left, fv.right), _embedding_sum(y3, tally))
        for _, (y3, tally) in sorted(rows.items())
    )


TABLE_OBJECTS = [parse_tree(text) for text in ("()", "p", "p/y", "(p,q)", "(p/x,q)", "(p,q,r)", "((p,q),(r,s))")]
_BASES = {}


def cold_table_matches_the_oracle(a, b, c, i, j, max_level):
    """Whether a cold table of basis i of Hom(a, b) and basis j of Hom(b, c)
    has the oracle's rows: the same keys in the same order, ``==`` values."""
    for x, y in ((a, b), (b, c)):
        if (x, y) not in _BASES:
            _BASES[x, y] = hom_basis(x, y)
    gu = _BASES[a, b][i % len(_BASES[a, b])]
    fv = _BASES[b, c][j % len(_BASES[b, c])]
    category._TRIPLE_CACHE.pop((gu.key, fv.key, max_level), None)
    table = category._composition_table(gu, fv, max_level)
    want = composition_table_oracle(gu, fv, max_level)
    return [(am.key, w) for am, w in table] == [(am.key, w) for am, w in want]


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.sampled_from(TABLE_OBJECTS), st.sampled_from(TABLE_OBJECTS), st.sampled_from(TABLE_OBJECTS),
    st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.sampled_from([None, 3, 4]),
)
def test_composition_tables_match_the_oracle(a, b, c, i, j, max_level):
    assert cold_table_matches_the_oracle(a, b, c, i, j, max_level)


def test_composition_tables_match_the_oracle_on_joins_and_one_leaf_restrictions(monkeypatch):
    """Every table among p, p/y and (p,q) at each level bound has the
    oracle's rows, and these tables place join sites and penultimate trees
    whose outer labels restrict to one vertex, or two or more."""
    seen = set()
    places = amalgam._places

    def recording(t, r, held, sites):
        seen.update((min(len(r.adj), 2), u == v >= 0) for u, v in sites)
        return places(t, r, held, sites)

    monkeypatch.setattr(amalgam, "_places", recording)
    objects = [parse_tree(text) for text in ("p", "p/y", "(p,q)")]
    for a, b, c in product(objects, repeat=3):
        for max_level in (None, 3, 4):
            for i, j in product(range(len(hom_basis(a, b))), range(len(hom_basis(b, c)))):
                assert cold_table_matches_the_oracle(a, b, c, i, j, max_level), (a, b, c, i, j, max_level)
    assert seen == set(product((1, 2), (False, True)))


def test_triple_trace_matches_composition(edge):
    alg = edge.algebra
    for (i, j, k) in ((3, 5, 10), (8, 9, 2), (4, 4, 4)):
        via_compose = alg.utr((edge.a[i] * edge.a[j]) * edge.a[k])
        via_trees = triple_trace(
            edge.basis_amalgamation(i),
            edge.basis_amalgamation(j),
            edge.basis_amalgamation(k),
        )
        assert via_compose == via_trees


def triple_trace_trees(u, v, w):
    """The oracle: the three-block trees of the trace of u * v * w, built
    one by one from the same search the trace tallies."""
    search = category._trace_search(u, v, w)
    return trees_with_restrictions(*search) if search else []


def test_triple_trace_counts_the_trees_it_does_not_build():
    """On every basis triple of the edge algebra and of the point's, the
    site signatures equal those of the built trace trees, and the trace and
    the tree count read from them are the trees' summed measure and their
    number."""
    for alg in (algebra_for(EDGE), algebra_for(POINT)):
        for u, v, w in product(alg.basis, repeat=3):
            trees = triple_trace_trees(u, v, w)
            search = category._trace_search(u, v, w)
            sites = _site_signatures(*search, None) if search else Counter()
            assert sites == Counter((s.leaf_count, s.valences) for s in (z.stats() for z in trees))
            assert category._trace_and_count(u, v, w) == (mu_sum(trees), len(trees))
            assert triple_trace(u, v, w) == mu_sum(trees)


def test_hom_element_arithmetic(edge):
    alg = edge.algebra
    f = alg.to_hom(edge.a[1])
    g = alg.to_hom(edge.a[3])
    s = f + g
    assert len(s.terms) == 2
    assert (s - s).is_zero()
    assert s.scale(0).is_zero()
    json = s.to_json()
    assert json["source"] == EDGE.canonical_key()
    assert len(json["terms"]) == 2
    up = HomElement.basis(POINT, EDGE, hom_basis(POINT, EDGE)[0])
    with pytest.raises(TreeError):
        f + up
    # composing the point-to-edge map after an edge endomorphism is fine,
    # the other way around the middle objects disagree
    assert not compose(f, up).is_zero()
    with pytest.raises(TreeError):
        compose(up, f)


def test_algebra_cache():
    assert algebra_for(EDGE) is algebra_for(parse_tree("(2,1)"))


def test_algebras_need_a_level_bound_of_at_least_three():
    for level in (2, 0, -1):
        with pytest.raises(TreeError, match="max_level must be at least 3"):
            algebra_for(EDGE, level)


def test_perturbation_leaves_no_cached_values_behind():
    """Values cached under one measure perturbation are never read under
    another: a clean run after a perturbed one matches a fresh process.  The
    edge algebra holds no measure-derived value, so one built before a
    perturbation gives the products and idempotents of a fresh build under it."""
    tree = parse_tree("(p,q)")  # labels no other test composes with
    f, g = (HomElement.basis(tree, tree, am) for am in hom_basis(tree, tree)[1:3])

    def run(scale):
        set_mu_perturbation(scale)
        try:
            return compose(f, g).terms, algebra_for(tree).product_row(1, 2)
        finally:
            set_mu_perturbation(None)

    perturbed = run(Fraction(2))
    clean = run(None)
    assert clean != perturbed
    assert run(Fraction(2)) == perturbed
    assert run(None) == clean

    held = edge_algebra()
    clean_square = (held.a[8] * held.a[8]).vec
    set_mu_perturbation(Fraction(2))
    try:
        fresh = EdgeAlgebra.build()
        assert (held.a[8] * held.a[8]).vec == (fresh.a[8] * fresh.a[8]).vec != clean_square
        idempotents = [{k: e.vec for k, e in ea.minus_idempotents().items()} for ea in (held, fresh)]
        assert idempotents[0] == idempotents[1]
    finally:
        set_mu_perturbation(None)


def _cross_add(a, b):
    return RatFun(a.num * b.den + b.num * a.den, a.den * b.den)


def _sequential_multiply(alg, a, b):
    """The product adding one normalized term at a time into its slot:
    the oracle for multiply."""
    out = [RatFun.zero()] * alg.dim
    for i, ca in enumerate(a.vec):
        for j, cb in enumerate(b.vec):
            if not (ca.is_zero() or cb.is_zero()):
                for k, w in alg.product_row(i, j):
                    out[k] = _cross_add(out[k], w * (ca * cb))
    return tuple(out)


def _sequential_compose(f, g):
    """The composition f after g, one normalized term at a time: the
    oracle for compose."""
    acc = {}
    for gu, cg in g.terms:
        for fv, cf in f.terms:
            for out, w in category._composition_table(gu, fv, None):
                acc[out] = _cross_add(acc.get(out, RatFun.zero()), w * (cg * cf))
    return HomElement.make(g.source, f.target, acc).terms


_COEFFICIENTS = ["1", "-1/2", "2/3", "-3", "1 / t-1", "t-2 / t-1", "2*t / 3*t-9"]


def _per_term_multiply(alg, a, b):
    """The product with one unnormalized term per (i, j, k), over the
    product of the two coefficients' denominators and the constant's, and
    one ``RatFun.sum`` per slot: the oracle for multiply over one common
    denominator per operand and one for the structure constants."""
    out = [[] for _ in range(alg.dim)]
    for i, ca in enumerate(a.vec):
        for j, cb in enumerate(b.vec):
            if not (ca.is_zero() or cb.is_zero()):
                num, den = ca.num * cb.num, ca.den * cb.den
                for k, w in alg.product_row(i, j):
                    out[k].append((w.num * num, w.den * den))
    return tuple(RatFun.sum(pairs) for pairs in out)


@pytest.mark.parametrize("scale", [None, Fraction(2), Fraction(-1, 2)])
def test_products_match_the_per_term_sum(edge, scale):
    """Random elements of the edge algebra at every level bound, and the
    named edge elements and idempotents, whose coefficients have
    denominators t and 2 besides powers of t-1."""
    set_mu_perturbation(scale)
    try:
        for level in (None, 3, 4):
            alg = algebra_for(EDGE, level)
            rng = random.Random("per-term:%s:%s" % (scale, level))
            for _ in range(12):
                a, b = (alg.element({i: parse_ratfun(rng.choice(_COEFFICIENTS))
                                     for i in rng.sample(range(alg.dim), rng.randint(1, 4))})
                        for _ in range(2))
                assert alg.multiply(a, b).vec == _per_term_multiply(alg, a, b)
        named = [*edge.a.values(), *edge.b.values(), *edge.c.values(),
                 *edge.minus_idempotents().values()]
        for x in named:
            for y in named[::3]:
                assert edge.algebra.multiply(x, y).vec == _per_term_multiply(edge.algebra, x, y)
    finally:
        set_mu_perturbation(None)


# wide and high-degree coefficients, for slot digits far past 64 bits
_WIDE_COEFFICIENTS = [
    "t^5-40*t+999999999999 / 3*t-9",
    "-123456789012345678901234567*t^7+t^2-1 / t^3+2",
    "99999999999999999999*t^4-t / t-1",
    "-1/1000000000000000000000007",
    "t^9+88888888888888 / t^2-2*t+1",
    "7*t^6-300000000000000000001*t^3+5 / 11*t^4-t",
]


def test_wide_products_match_the_per_term_sum(edge, monkeypatch):
    """Products of elements with wide, high-degree coefficients, packed at
    widths past 64 bits, equal the per-term oracle; a slot whose terms
    cancel is the shared ``ZERO``, and a slot whose coefficient reaches the
    width bound reads back exactly."""
    widths = []
    unpack = Poly._unpack
    monkeypatch.setattr(Poly, "_unpack", staticmethod(lambda n, b: widths.append(b) or unpack(n, b)))
    alg = edge.algebra
    rng = random.Random("wide")

    def element(picks):
        return alg.element({i: parse_ratfun(rng.choice(_WIDE_COEFFICIENTS)) for i in picks})

    for _ in range(10):
        a, b = (element(rng.sample(range(alg.dim), rng.randint(1, 4))) for _ in range(2))
        assert alg.multiply(a, b).vec == _per_term_multiply(alg, a, b)
    # basis[i] * basis[j] and basis[i2] * basis[j] both reach slot k, with
    # constants w and w2: (w2*c) basis[i] - (w*c) basis[i2], times d basis[j],
    # cancels in slot k
    rows = {(i, j): dict(alg.product_row(i, j)) for i in range(alg.dim) for j in range(alg.dim)}
    i, i2, j, k = next((i, i2, j, k) for (i, j), row in rows.items() for i2 in range(i + 1, alg.dim)
                       for k in row if k in rows[i2, j])
    c, d = (parse_ratfun(x) for x in _WIDE_COEFFICIENTS[:2])
    a = alg.element({i: rows[i2, j][k] * c, i2: -(rows[i, j][k] * c)})
    product = alg.multiply(a, alg.element({j: d}))
    assert product.vec == _per_term_multiply(alg, a, alg.element({j: d}))
    assert product.vec[k] is ZERO
    # one term of numerator -(2^100 + 1) times itself meets the width bound
    # exactly: the slot coefficient is the bound itself
    x = alg.identity().scale(Fraction(-(2**100) - 1, 3))
    assert alg.multiply(x, x) == x.scale(Fraction(-(2**100) - 1, 3))
    assert widths[-1] == ((2**100 + 1) ** 2).bit_length() + 1
    assert min(widths) > 64


@pytest.mark.parametrize("key", ["(1,2)", "(p,q)"])
def test_sums_match_the_sequential_fold(key):
    alg = algebra_for(parse_tree(key))
    rng = random.Random(key)

    def element():
        picks = rng.sample(range(alg.dim), rng.randint(1, 4))
        return alg.element({i: parse_ratfun(rng.choice(_COEFFICIENTS)) for i in picks})

    for _ in range(8):
        a, b = element(), element()
        assert alg.multiply(a, b).vec == _sequential_multiply(alg, a, b)
        f, g = alg.to_hom(a), alg.to_hom(b)
        assert compose(f, g).terms == _sequential_compose(f, g)


def test_product_empty_slots_share_one_zero():
    """A product keeps no zero per empty slot: every one is the same object."""
    alg = algebra_for(parse_tree("(p,q,r)"))
    a = alg.element({1: 1 / (T - 1), 4: Fraction(-1, 2)})
    zeros = [c for c in alg.multiply(a, a).vec if c.is_zero()]
    assert len(zeros) > 1 and all(c is zeros[0] for c in zeros)


@pytest.fixture
def gcd_calls(monkeypatch):
    """One entry per Poly.gcd call."""
    calls = []
    gcd = Poly.gcd

    def counting(self, other):
        calls.append(1)
        return gcd(self, other)

    monkeypatch.setattr(Poly, "gcd", counting)
    return calls


def test_gcd_counts_of_sums(edge, gcd_calls):
    """Work counts, not wall time: a sum normalizes once per output value,
    and a value whose denominator is a power of t-1 needs no gcd (22, 16
    and 93 gcds when every term was added with its own gcd, 8, 1 and 26
    with one gcd per output value)."""
    alg = edge.algebra
    a = edge.a[1] * Fraction(-1, 2) + edge.a[4] * ((T - 2) / (T - 1))
    b = edge.a[2] * 3 + edge.a[7] * Fraction(2, 3)
    alg.multiply(a, b)  # reads the structure constants into the table
    gcd_calls.clear()
    alg.multiply(a, b)
    assert len(gcd_calls) == 0

    trees = list(amalgamation_trees(EDGE, parse_tree("(3,4,5)")))
    gcd_calls.clear()
    mu_sum(trees)
    assert len(trees) == 56 and len(gcd_calls) == 0

    x = parse_tree("(p,q)")
    basis = hom_basis(x, x)
    f = HomElement.make(x, x, {basis[1]: (T - 2) / (T - 1), basis[4]: Fraction(-1, 2)})
    g = HomElement.make(x, x, {basis[2]: ONE, basis[7]: 1 / (T - 1)})
    set_mu_perturbation(None)  # empties the composition table
    gcd_calls.clear()
    compose(f, g)
    assert len(gcd_calls) == 0


def _edge_round(edge, before):
    """One seeded round of 18 associativity checks on two-term elements (one
    coefficient a rational function) and two minimal polynomials, 106
    products in all.  It first reads every structure constant into the
    table, then calls ``before()``, then runs the ops."""
    alg = edge.algebra
    for i in range(alg.dim):
        for j in range(alg.dim):
            alg.product_row(i, j)  # reads the structure constants into the table
    rng = random.Random("edge-round")
    rationals, ratfuns = ["1", "-1/2", "2/3", "-3"], ["1 / t-1", "t-2 / t-1"]

    def element(terms):
        out = alg.element({})
        for n, c in terms:
            out = out + edge.a[n] * parse_ratfun(c)
        return out

    before()
    for _ in range(18):
        terms = [[[n, rng.choice(rationals)] for n in rng.sample(range(1, 11), 2)] for _ in range(3)]
        rng.choice(rng.choice(terms))[1] = rng.choice(ratfuns)
        a, b, c = (element(t) for t in terms)
        ab = alg.multiply(a, b)
        assert alg.multiply(ab, c) == alg.multiply(a, alg.multiply(b, c))
        assert alg.utr(ab) == alg.utr(alg.multiply(b, a))
    for group in ([4, 5], [1, 2, 3, 6]):
        e = edge.a[rng.choice(group)] * parse_ratfun(rng.choice(rationals))
        total, power = alg.element({}), alg.identity()
        for coeff in alg.minimal_polynomial(e):
            total, power = total + power.scale(coeff), alg.multiply(power, e)
        assert total.is_zero()


def test_gcd_count_of_an_edge_round(edge, gcd_calls, monkeypatch):
    """A work guard, not a timing: the round of ``_edge_round`` runs 1 gcd,
    in the reduction quotient ``f = vec[p] * inv`` of
    ``minimal_polynomial``; it ran 1,499 when every normalization took a
    gcd, 3 while the inverse took one, and 2 while the elimination divided
    whole rows by their pivot.  Every product brings its two operands
    and its structure constants over one denominator each: 3
    common-denominator calls, whatever its number of slots."""
    helper_calls, products = [], []
    helper, multiply = category._common_denominator, ArborealAlgebra.multiply
    monkeypatch.setattr(category, "_common_denominator",
                        lambda dens: helper_calls.append(1) or helper(dens))
    monkeypatch.setattr(ArborealAlgebra, "multiply",
                        lambda self, a, b: products.append(1) or multiply(self, a, b))
    _edge_round(edge, gcd_calls.clear)
    assert len(gcd_calls) == 1
    assert len(products) == 106 and len(helper_calls) == 3 * 106


def test_poly_products_of_an_edge_round(edge, monkeypatch):
    """A work guard, not a timing: products sum their slots as packed
    integers, with no ``Poly`` product per structure-constant term.  The
    106 products of ``_edge_round`` read 3,815 terms and make 1,703
    ``Poly`` products (per operand coefficient, per distinct constant, and
    in the common denominators); they made 9,539 when each term took two."""
    poly_products, terms, inside = [], [], []
    mul, multiply, product_row = Poly.__mul__, ArborealAlgebra.multiply, ArborealAlgebra.product_row

    def counted_mul(p, q):
        if inside:
            poly_products.append(1)
        return mul(p, q)

    def counted_multiply(self, a, b):
        inside.append(1)
        try:
            return multiply(self, a, b)
        finally:
            inside.pop()

    def row(self, i, j):
        out = product_row(self, i, j)
        terms.append(len(out))
        return out

    monkeypatch.setattr(Poly, "__mul__", counted_mul)
    monkeypatch.setattr(ArborealAlgebra, "multiply", counted_multiply)
    monkeypatch.setattr(ArborealAlgebra, "product_row", row)
    _edge_round(edge, lambda: (poly_products.clear(), terms.clear()))
    assert (len(poly_products), sum(terms)) == (1703, 3815)
