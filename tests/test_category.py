"""Morphism spaces, composition, traces, and the truncation functor.

Core claims:
    - morphism-space dimensions match the censuses (3 between the one-leaf
      and two-leaf objects, 10 endomorphisms of the edge, 1 from the empty
      tree)
    - every basis morphism factors through its two embedding morphisms
    - composition is associative with two-sided units; transpose is an
      involutive anti-automorphism; traces are symmetric
    - the trace pairing is diagonal under transposition and its determinant
      is the signed product of basis measures
    - numeric composition equals symbolic composition then substitution
    - truncation keeps low-level terms, is multiplicative at the level
      parameter, and is the identity when nothing exceeds the bound
    - minimal polynomials and idempotent reports behave on easy elements
    - products and compositions, summed once per output slot, equal the
      sequential fold of fully normalized two-term sums; fixed products,
      measure sums and compositions run an exact number of gcds
"""

import random
from fractions import Fraction

import pytest

from arboreal import category
from arboreal.amalgam import amalgamation_trees
from arboreal.category import (
    ArborealAlgebra,
    HomElement,
    algebra_for,
    compose,
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
from arboreal.edge_algebra import edge_algebra
from arboreal.measure import ParamSpec, mu_sum, mu_symbolic, set_mu_perturbation
from arboreal.ratfun import ONE, Poly, RatFun, parse_ratfun
from arboreal.trees import EMPTY_TREE, TreeError, parse_tree

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


def test_gram_structure(edge):
    alg = edge.algebra
    gram = alg.gram_matrix()
    for i in range(alg.dim):
        for j in range(alg.dim):
            expected = (
                mu_symbolic(alg.basis[i].whole)
                if j == alg.transpose_index(i)
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


def test_perturbation_leaves_no_cached_values_behind():
    """Values cached under one measure perturbation are never read under
    another: a clean run after a perturbed one matches a fresh process."""
    tree = parse_tree("(p,q)")  # labels no other test composes with
    f, g = (HomElement.basis(tree, tree, am) for am in hom_basis(tree, tree)[1:3])

    def run(scale):
        set_mu_perturbation(scale)
        try:
            fixture = edge_algebra()
            return compose(f, g).terms, algebra_for(tree).product_row(1, 2), fixture
        finally:
            set_mu_perturbation(None)

    perturbed = run(Fraction(2))
    clean = run(None)
    assert clean[:2] != perturbed[:2]
    assert run(Fraction(2))[:2] == perturbed[:2]
    assert run(None)[:2] == clean[:2]
    assert clean[2] is not perturbed[2]


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
    """Work counts, not wall time: a sum normalizes once per output value
    (22, 16 and 93 gcds when every term was added with its own gcd)."""
    alg = edge.algebra
    a = edge.a[1] * Fraction(-1, 2) + edge.a[4] * ((T - 2) / (T - 1))
    b = edge.a[2] * 3 + edge.a[7] * Fraction(2, 3)
    alg.multiply(a, b)  # reads the structure constants into the table
    gcd_calls.clear()
    alg.multiply(a, b)
    assert len(gcd_calls) == 8

    trees = list(amalgamation_trees(EDGE, parse_tree("(3,4,5)")))
    gcd_calls.clear()
    mu_sum(trees)
    assert len(trees) == 56 and len(gcd_calls) == 1

    x = parse_tree("(p,q)")
    basis = hom_basis(x, x)
    f = HomElement.make(x, x, {basis[1]: (T - 2) / (T - 1), basis[4]: Fraction(-1, 2)})
    g = HomElement.make(x, x, {basis[2]: ONE, basis[7]: 1 / (T - 1)})
    set_mu_perturbation(None)  # empties the composition table
    gcd_calls.clear()
    compose(f, g)
    assert len(gcd_calls) == 26
