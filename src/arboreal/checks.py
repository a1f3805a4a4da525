"""The machine-checked reference suite.

Every reference computation the package is expected to reproduce lives here
as a named check with an expected and a computed value; the CLI paper-check
subcommand prints one line per check, and the acceptance test module asserts
each one.  All comparisons are exact: rational-function equality after
normalization, integer equality for counts.

Checks are grouped in sections: sec1 (amalgamation censuses and the product
equation), sec3 (generator values, separation, marked-tree minimization,
level vanishing), sec5 (the composition example, truncation, the trace
pairing), sec6 (the edge-algebra computations), and props (randomized and
exhaustive property suites).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from arboreal.amalgam import Amalgamation, _check_listing, _tree_count, amalgamations, count_by_shape, enumerate_trees, self_amalgamations, triple_amalgamations
from arboreal.category import (
    HomElement,
    _trace_and_count,
    algebra_for,
    compose,
    evaluate_coefficients,
    hom_basis,
    transpose,
    triple_trace,
    truncate_level,
)
from arboreal.edge_algebra import EDGE, POINT, edge_algebra
from arboreal.measure import (
    SYMBOLIC,
    MarkedTree,
    ParamSpec,
    marked_star,
    marked_y,
    marked_z,
    mu_embedding,
    mu_of_tree,
    mu_symbolic,
    theta_generator_values,
    verify_amalgamation_equation,
)
from arboreal.ratfun import ONE, RatFun
from arboreal.theta import (
    LINEAR_FORMS,
    QUADRATIC_FORM,
    DuplicateRelation,
    evaluate_form_mu,
    minimize_marked,
    separated,
    separated_bruteforce,
    theta_eval,
    theta_to_mu,
    verify_L_relation,
)
from arboreal.trees import EMPTY_TREE, Tree, parse_tree

T = RatFun.t()
SEED = 20240801


@dataclass
class CheckResult:
    ok: bool
    expected: str
    computed: str


@dataclass
class Check:
    id: str
    section: str
    title: str
    fn: Callable[[], CheckResult]


def _result(ok: bool, expected, computed) -> CheckResult:
    return CheckResult(bool(ok), str(expected), str(computed))


def _all_trees(max_leaves: int, min_leaves: int = 1) -> List[Tree]:
    """The trees on labels a0, a1, ... with min_leaves to max_leaves
    leaves, refused first if the trees on max_leaves labels pass
    LISTING_CAP."""
    _check_listing(_tree_count(max_leaves))
    out: List[Tree] = []
    for n in range(min_leaves, max_leaves + 1):
        out.extend(enumerate_trees(["a%d" % i for i in range(n)]))
    return out


# -- sec1: censuses and the product equation ---------------------------------


def check_census_total() -> CheckResult:
    n = len(amalgamations(parse_tree("(1,2)"), parse_tree("(3,4,5)")))
    return _result(n == 56, 56, n)


def check_census_shapes() -> CheckResult:
    counts = sorted(count_by_shape(parse_tree("(1,2)"), parse_tree("(3,4,5)")).values())
    return _result(counts == [1, 6, 6, 10, 15, 18], [1, 6, 6, 10, 15, 18], counts)


def check_census_base() -> CheckResult:
    n = len(amalgamations(parse_tree("(1,2)"), parse_tree("(1,4,5)")))
    return _result(n == 6, 6, n)


def check_equation_instance() -> CheckResult:
    r = verify_amalgamation_equation(parse_tree("(1,2)"), parse_tree("(3,4,5)"))
    return _result(r.is_zero(), "0", r)


def equation_sweep(max_labels: int) -> Tuple[int, int]:
    """All two-sided diagrams with at most max_labels labels in total.

    Returns (diagrams checked, nonzero residuals), refused first if the
    largest listing, the trees on max_labels labels, passes LISTING_CAP.
    """
    _check_listing(_tree_count(max_labels))
    checked = failures = 0
    for total in range(0, max_labels + 1):
        for a in range(0, total + 1):
            for b in range(0, total - a + 1):
                c = total - a - b
                if a > c:
                    continue  # the equation is symmetric in the two sides
                left_labels = ["a%d" % i for i in range(a)] + ["b%d" % i for i in range(b)]
                right_labels = ["b%d" % i for i in range(b)] + ["c%d" % i for i in range(c)]
                shared = ["b%d" % i for i in range(b)]
                lefts = enumerate_trees(left_labels) if left_labels else [EMPTY_TREE]
                rights = enumerate_trees(right_labels) if right_labels else [EMPTY_TREE]
                by_base: Dict[str, List[Tree]] = {}
                for t2 in rights:
                    by_base.setdefault(t2.restrict(shared).canonical_key(), []).append(t2)
                for t1 in lefts:
                    for t2 in by_base.get(t1.restrict(shared).canonical_key(), ()):
                        checked += 1
                        if not verify_amalgamation_equation(t1, t2).is_zero():
                            failures += 1
    return checked, failures


def check_equation_sweep() -> CheckResult:
    checked, failures = equation_sweep(6)
    return _result(
        failures == 0 and checked >= 2000,
        "0 nonzero residuals over all diagrams with <= 6 labels",
        "%d nonzero residuals over %d diagrams" % (failures, checked),
    )


# -- sec3: generators, separation, marked trees, level vanishing ---------------


EXPECTED_GENERATORS = {
    "x1": T / (T - 1),
    "x2": ONE / (T - 1),
    "x3": -(T - 2) / (T - 1),
    "x4": (T - 3) / (T - 1),
    "x5": (T - 4) / (T - 1),
    "y": -(T - 2) / (T - 1),
    "z": -(T - 2) / (T - 1),
}


def check_generator_table() -> CheckResult:
    values = theta_generator_values(SYMBOLIC, 5)
    bad = [k for k, v in EXPECTED_GENERATORS.items() if values[k] != v]
    return _result(
        not bad,
        "computed generator values match the closed forms",
        "all match" if not bad else "mismatch at %s" % bad,
    )


def relation_sweep(max_leaves: int) -> Tuple[List[DuplicateRelation], Dict[str, List[str]]]:
    """Duplicate relations of the minimal marked trees, and where each
    defining form fails to vanish.

    The sources are the minimal marked trees with at most ``max_leaves``
    leaves: the marked stars (at least the one-leaf star), Y from four
    leaves and Z from five.  Each of the five linear forms and the quadratic
    one maps to the sides, "ring" and "measure", on which it does not
    vanish.
    """
    sources = [marked_star(m) for m in range(1, max(1, max_leaves) + 1)]
    if max_leaves >= 4:
        sources.append(marked_y())
    if max_leaves >= 5:
        sources.append(marked_z())
    relations = [verify_L_relation(mt) for mt in sources]
    values = theta_generator_values(SYMBOLIC, 6)
    form_failures: Dict[str, List[str]] = {}
    for form in list(LINEAR_FORMS) + [QUADRATIC_FORM]:
        sides = form_failures[form] = []
        if not theta_eval(form).is_zero():
            sides.append("ring")
        if not evaluate_form_mu(form, values).is_zero():
            sides.append("measure")
    return relations, form_failures


def check_linear_forms() -> CheckResult:
    _, form_failures = relation_sweep(6)
    bad = ["%s (%s)" % (form, side) for form, sides in form_failures.items() for side in sides]
    return _result(not bad, "all six forms vanish both ways", bad or "all vanish")


def check_substitution() -> CheckResult:
    values = theta_generator_values(SYMBOLIC, 6)
    from arboreal.theta import theta_image

    bad = [g for g, v in values.items() if theta_to_mu(theta_image(g)) != v]
    return _result(not bad, "u,v specialization matches the measure values", bad or "all match")


def check_relation_census() -> CheckResult:
    relations, _ = relation_sweep(6)
    bad = [
        rel.source
        for rel in relations
        if not rel.residual_mu.is_zero() or not rel.residual_theta.is_zero()
    ]
    rel3 = next(rel for rel in relations if rel.source == "x3")
    shape_ok = rel3.terms == {"x3": 1, "1": -1, "y": -3, "x4": -1}
    return _result(
        not bad and shape_ok,
        "zero residuals; star-3 relation has terms {1:-1, x3:+1, x4:-1, y:-3}",
        "residual failures %s; star-3 terms %s" % (bad, dict(sorted(rel3.terms.items()))),
    )


def separated_sweep(max_leaves: int) -> Tuple[int, int]:
    """Every label pair of every tree with 2 to max_leaves leaves, refused
    first if the trees on max_leaves labels pass LISTING_CAP."""
    checked = failures = 0
    for tree in _all_trees(max_leaves, min_leaves=2):
        labels = sorted(tree.label_set)
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                checked += 1
                if separated(tree, labels[i], labels[j]) != separated_bruteforce(
                    tree, labels[i], labels[j]
                ):
                    failures += 1
    return checked, failures


def check_separated_agreement() -> CheckResult:
    checked, failures = separated_sweep(6)
    return _result(
        failures == 0,
        "criterion and amalgamation-count separation agree on all pairs, <= 6 leaves",
        "%d disagreements over %d pairs" % (failures, checked),
    )


def minimization_sweep(max_leaves: int) -> Tuple[int, int]:
    checked = failures = 0
    for tree in _all_trees(max_leaves):
        for label in sorted(tree.label_set):
            checked += 1
            try:
                minimize_marked(MarkedTree(tree, label))
            except AssertionError:
                failures += 1
    return checked, failures


def check_minimal_marked() -> CheckResult:
    checked, failures = minimization_sweep(6)
    return _result(
        failures == 0,
        "every marked tree minimizes to a star/Y/Z shape of its own type",
        "%d failures over %d marked trees" % (failures, checked),
    )


def check_level_vanishing() -> CheckResult:
    bad = []
    trees = _all_trees(6)
    for n in (3, 4, 5):
        p = ParamSpec.numeric(n)
        for tree in trees:
            value = mu_of_tree(tree, p)
            if (value == 0) != (tree.level > n):
                bad.append((n, tree.canonical_key()))
    return _result(
        not bad,
        "measure at t=n vanishes exactly on trees of level > n (n in 3,4,5)",
        bad[:3] or "exact vanishing match on %d trees x 3 levels" % len(trees),
    )


# -- sec5: the composition example, truncation, the trace pairing ---------------

X_WHOLE = "((1:1,2:1),1:2,(2:2,(1:3,(2:3,(1:4,2:4)))))"
Y_WHOLE = "((2:1,2:2/3:1),(2:3,3:2),(2:4/3:4,3:3))"
Z_WHOLE = "((1:3,(2:2/3:1,(1:2,(1:1,2:1)))),(3:2,2:3),(2:4/3:4,(3:3,1:4)))"


def _example_blocks():
    b1 = frozenset("1:%d" % i for i in range(1, 5))
    b2 = frozenset("2:%d" % i for i in range(1, 5))
    b3 = frozenset("3:%d" % i for i in range(1, 5))
    return b1, b2, b3


def check_example_measures() -> CheckResult:
    b1, b2, b3 = _example_blocks()
    z = parse_tree(Z_WHOLE)
    zbar = z.restrict(b1 | b3)
    expect = {
        "mu(Z)": T * (T - 2) ** 8 / (T - 1) ** 10,
        "mu(Zbar)": T * (T - 2) ** 6 / (T - 1) ** 8,
        "mu(Zbar->Z)": (T - 2) ** 2 / (T - 1) ** 2,
    }
    got = {
        "mu(Z)": mu_symbolic(z),
        "mu(Zbar)": mu_symbolic(zbar),
        "mu(Zbar->Z)": mu_embedding(zbar, z),
    }
    bad = [k for k in expect if expect[k] != got[k]]
    return _result(
        not bad,
        "; ".join("%s = %s" % (k, v.factored()) for k, v in expect.items()),
        "all match" if not bad else "mismatch at %s" % bad,
    )


def check_example_triple() -> CheckResult:
    b1, b2, b3 = _example_blocks()
    x = Amalgamation(parse_tree(X_WHOLE), b1, b2)
    y = Amalgamation(parse_tree(Y_WHOLE), b2, b3)
    z = parse_tree(Z_WHOLE)
    zbar = z.restrict(b1 | b3)
    triples = triple_amalgamations(x, y)
    hit = any(zt.whole == z and y3.whole == zbar for zt, y3 in triples)
    return _result(
        hit,
        "the displayed extension occurs with the displayed (1,3)-restriction",
        "found among %d extensions" % len(triples) if hit else "missing",
    )


def check_truncation_homomorphism() -> CheckResult:
    alg = algebra_for(EDGE)
    p3 = ParamSpec.finite_level(3)
    bad = 0
    for i in range(alg.dim):
        fi = HomElement.basis(EDGE, EDGE, alg.basis[i])
        for j in range(alg.dim):
            fj = HomElement.basis(EDGE, EDGE, alg.basis[j])
            lhs = evaluate_coefficients(truncate_level(compose(fi, fj), 3), 3)
            rhs = compose(truncate_level(fi, 3), truncate_level(fj, 3), p3)
            if lhs.terms != rhs.terms:
                bad += 1
    return _result(bad == 0, "truncation commutes with all 100 basis products at n=3", "%d mismatches" % bad)


def check_truncation_bijection() -> CheckResult:
    alg = algebra_for(EDGE)
    balg = algebra_for(EDGE, max_level=6)
    same = [am.key for am in alg.basis] == [am.key for am in balg.basis]
    levels_ok = all(am.whole.level <= 6 for am in alg.basis)
    return _result(
        same and levels_ok,
        "level-6 truncation is a basis bijection for the edge algebra",
        "bijection" if same and levels_ok else "basis mismatch",
    )


def check_gram() -> CheckResult:
    alg = algebra_for(EDGE)
    det = alg.gram_det()
    prod = RatFun.one()
    for am in alg.basis:
        prod = prod * mu_symbolic(am.whole)
    sign_ok = det == prod or det == -prod
    nonzero = det.evaluate(Fraction(7, 2)) != 0
    vanishes = det.evaluate(3) == 0
    ok, witness, factor = alg.is_semisimple_at(3)
    star4 = parse_tree("(s:1,s:2,t:1,t:2)").canonical_key()
    witness_ok = (not ok) and witness == star4 and factor == "(t-3)"
    good = sign_ok and nonzero and vanishes and witness_ok
    return _result(
        good,
        "det = +-prod of basis measures, nonzero at 7/2, zero at 3 with the four-star witness",
        "det=%s; at 7/2 nonzero=%s; at 3 witness=%s factor=%s" % (det.factored(), nonzero, witness, factor),
    )


# -- sec6: the edge algebra ---------------------------------------------------


def check_dimensions() -> CheckResult:
    point_self = len(self_amalgamations(POINT))
    edge_self = len(self_amalgamations(EDGE))
    hom_dim = len(hom_basis(POINT, EDGE))
    udim_x = mu_symbolic(POINT)
    point_alg = algebra_for(POINT)
    top = point_alg.identity()
    f0 = point_alg.element({i: 1 for i in range(point_alg.dim)}) * (ONE / udim_x)
    l1 = top - f0
    checks = [
        point_self == 2,
        edge_self == 10,
        hom_dim == 3,
        udim_x == T / (T - 1),
        (f0 * f0).vec == f0.vec,
        (l1 * l1).vec == l1.vec,
        point_alg.utr(l1) == ONE / (T - 1),
    ]
    return _result(
        all(checks),
        "2 and 10 self-amalgamations; 3-dim morphism space; dimensions t/(t-1) and 1/(t-1)",
        "%d,%d,%d,%s,%s" % (point_self, edge_self, hom_dim, udim_x, point_alg.utr(l1)),
    )


def _trace_check(u: int, v: int, w: int, expected: RatFun, expected_count: Optional[int]) -> CheckResult:
    ea = edge_algebra()
    alg = ea.algebra
    au, av, aw = (ea.basis_amalgamation(i) for i in (u, v, w))
    via_trees, count = _trace_and_count(au, av, aw)
    via_compose = alg.utr((ea.a[u] * ea.a[v]) * ea.a[w])
    ok = via_trees == expected and via_compose == expected
    if expected_count is not None:
        ok = ok and count == expected_count
    return _result(
        ok,
        "%s%s" % (expected.factored(), " with %d trees" % expected_count if expected_count else ""),
        "%s with %d trees (dual path %s)" % (via_trees.factored(), count, "agrees" if via_trees == via_compose else "disagrees"),
    )


def check_trace_a8_cube() -> CheckResult:
    return _trace_check(8, 8, 8, T * (T - 2) ** 2 * (2 * T - 3) ** 2 / (T - 1) ** 6, 16)


def check_trace_a8a8a9() -> CheckResult:
    return _trace_check(8, 8, 9, 2 * T * (T - 2) ** 4 / (T - 1) ** 6, 2)


def check_trace_c5c5c2() -> CheckResult:
    ea = edge_algebra()
    expected = 2 * T * (T - 2) * (T - 3) / (T - 1) ** 5
    via_elements = ea.algebra.utr((ea.c[5] * ea.c[5]) * ea.c[2])
    base = _trace_check(10, 10, 3, expected, 2)
    ok = base.ok and via_elements == expected
    return _result(ok, base.expected, base.computed + "; element path %s" % ("agrees" if via_elements == expected else "disagrees"))


def check_trace_c5c5c4() -> CheckResult:
    ea = edge_algebra()
    expected = T * (T - 2) ** 2 * (T - 3) * (T - 6) / (T - 1) ** 6
    via_elements = ea.algebra.utr((ea.c[5] * ea.c[5]) * ea.c[4])
    base = _trace_check(10, 10, 8, expected, None)
    ok = base.ok and via_elements == expected
    return _result(ok, base.expected, base.computed)


def check_trace_c5_cube() -> CheckResult:
    return _trace_check(10, 10, 10, -T * (T - 2) * (T - 3) * (T - 4) * (T - 5) / (T - 1) ** 6, 1)


def check_identity_factorization() -> CheckResult:
    ea = edge_algebra()
    composite = ea.down_up_composite()
    expected = ea.a[1] + ea.a[3]
    return _result(
        composite.vec == expected.vec,
        "the down-up composite equals a1 + a3",
        "matches" if composite.vec == expected.vec else repr(composite),
    )


def check_identity_b3_square() -> CheckResult:
    ea = edge_algebra()
    b1, b2, b3 = ea.b[1], ea.b[2], ea.b[3]
    lhs = b3 * b3
    rhs = (
        b1 * ((T - 2) ** 2 / (T - 1) ** 2)
        + b2 * (2 * (T - 2) / (T - 1))
        + b3 * ((2 * T * T - 4 * T + 1) / (T - 1) ** 2)
    )
    return _result(lhs.vec == rhs.vec, "b3^2 expands over b1, b2, b3 with the stated coefficients", "matches" if lhs.vec == rhs.vec else "differs")


def check_identity_minpoly() -> CheckResult:
    ea = edge_algebra()
    xi = T * (T - 2) / (T - 1) ** 2
    mp = ea.algebra.minimal_polynomial(ea.b[3])
    expected = [RatFun.zero(), xi, -(1 + xi), RatFun.one()]
    ok = mp == expected
    return _result(ok, "x(x-1)(x-xi) with xi = t(t-2)/(t-1)^2", "degree %d, %s" % (len(mp) - 1, "matches" if ok else [str(c) for c in mp]))


def check_identity_orthogonal() -> CheckResult:
    ea = edge_algebra()
    prod = (ea.b[1] + ea.b[2]) * ea.b[3]
    return _result(prod.is_zero(), "(b1+b2) b3 = 0", "0" if prod.is_zero() else repr(prod))


def check_identity_swap_products() -> CheckResult:
    ea = edge_algebra()
    ok = (
        (ea.a[2] * ea.a[8]).vec == ea.a[9].vec
        and (ea.a[8] * ea.a[2]).vec == ea.a[9].vec
        and (ea.a[9] * ea.a[9]).vec == (ea.a[8] * ea.a[8]).vec
    )
    return _result(ok, "a9 = a2 a8 = a8 a2 and a9^2 = a8^2", "all hold" if ok else "failure")


def check_idempotents_minus() -> CheckResult:
    ea = edge_algebra()
    alg = ea.algebra
    ems = ea.minus_idempotents()
    expect = {
        "e1": ONE / (T - 1),
        "e5": -(T - 2) / 2,
        "e6": T * (T - 2) ** 2 / (2 * (T - 1) ** 2),
    }
    names = list(ems)
    idem = all((ems[n] * ems[n]).vec == ems[n].vec for n in names)
    orth = all((ems[x] * ems[y]).is_zero() for x in names for y in names if x != y)
    total = ems["e1"] + ems["e5"] + ems["e6"]
    sums = total.vec == ea.b[1].vec
    traces = all(alg.utr(ems[n]) == expect[n] for n in names)
    ok = idem and orth and sums and traces
    return _result(
        ok,
        "orthogonal idempotents summing to b1 with dimensions 1/(t-1), -(t-2)/2, t(t-2)^2/(2(t-1)^2)",
        "idempotent=%s orthogonal=%s sum=%s traces=%s" % (idem, orth, sums, traces),
    )


def check_idempotents_plus() -> CheckResult:
    ea = edge_algebra()
    alg = ea.algebra
    fps = ea.plus_idempotents()
    names = ["f0", "f1", "f2", "f3", "f4"]
    expect = {
        "f0": ONE,
        "f1": ONE / (T - 1),
        "f2": -T / (T - 1),
        "f3": T * (T - 2) ** 2 / (2 * (T - 1) ** 2),
        "f4": -T * (T - 3) / (2 * (T - 1)),
    }
    idem = all((fps[n] * fps[n]).vec == fps[n].vec for n in names)
    orth = all((fps[x] * fps[y]).is_zero() for x in names for y in names if x != y)
    total = fps["f0"]
    for n in names[1:]:
        total = total + fps[n]
    sums = total.vec == ea.c[1].vec
    traces = all(alg.utr(fps[n]) == expect[n] for n in names)
    ok = idem and orth and sums and traces
    return _result(
        ok,
        "complete orthogonal system with dimensions 1, 1/(t-1), -t/(t-1), t(t-2)^2/(2(t-1)^2), -t(t-3)/(2(t-1))",
        "idempotent=%s orthogonal=%s sum=%s traces=%s" % (idem, orth, sums, traces),
    )


def check_flagged_formulas() -> CheckResult:
    # The printed closed forms for the remaining three plus-part projectors
    # are self-referential and cannot be evaluated as written; the suite
    # replaces them with derivations and records the substitution here.
    return _result(
        True,
        "three self-referential projector formulas are flagged, not asserted",
        "flagged; projectors derived independently (see check sec6-idempotents-plus)",
    )


# -- props: randomized and exhaustive suites -----------------------------------


def check_enumeration_counts() -> CheckResult:
    got = [len(enumerate_trees("abcdefghi"[:n])) for n in range(3, 7)]
    expected = [1, 4, 26, 236]
    series_ok = [_tree_count(n) for n in range(1, 8)] == [1, 1, 1, 4, 26, 236, 2752]
    return _result(got == expected and series_ok, "%s and the recursive series" % expected, "%s series_ok=%s" % (got, series_ok))


def _random_edge_elements(rng: random.Random, count: int):
    alg = algebra_for(EDGE)
    out = []
    for _ in range(count):
        vec = {}
        for _ in range(rng.randint(1, 3)):
            vec[rng.randrange(alg.dim)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        out.append(alg.element(vec))
    return out


@lru_cache(maxsize=1)
def _hom_pool() -> Tuple[Tuple[HomElement, HomElement, HomElement], ...]:
    """Composable chains of basis morphisms among small objects.

    Chains are size-capped (at most one four-leaf object, nine leaves in
    total) so that the three-block enumerations stay desk-sized; the seed is
    fixed, so every caller sees the same chains and the composition cache is
    shared across the property checks.
    """
    objects = [parse_tree(s) for s in ("p", "(p,q)", "(p,q,r)", "((p,q),(r,s))")]
    rng = random.Random(SEED + 1)
    pool = []
    while len(pool) < 10:
        quad = [objects[rng.randrange(len(objects))] for _ in range(4)]
        sizes = [x.leaf_count for x in quad]
        if sum(sizes) > 9 or sum(1 for s in sizes if s >= 4) > 1:
            continue
        a, b, c, d = quad
        h1, h2, h3 = hom_basis(a, b), hom_basis(b, c), hom_basis(c, d)
        f = HomElement.basis(a, b, h1[rng.randrange(len(h1))])
        g = HomElement.basis(b, c, h2[rng.randrange(len(h2))])
        h = HomElement.basis(c, d, h3[rng.randrange(len(h3))])
        pool.append((f, g, h))
    return tuple(pool)


def check_associativity() -> CheckResult:
    rng = random.Random(SEED)
    alg = algebra_for(EDGE)
    cases = failures = 0
    elements = _random_edge_elements(rng, 300)
    for k in range(100):
        a, b, c = (elements[rng.randrange(len(elements))] for _ in range(3))
        cases += 1
        if ((a * b) * c).vec != (a * (b * c)).vec:
            failures += 1
    for chain in _hom_pool():
        f, g, h = chain
        cases += 1
        left = compose(compose(h, g), f)
        right = compose(h, compose(g, f))
        if left.terms != right.terms:
            failures += 1
    point_alg = algebra_for(POINT)
    for i in range(point_alg.dim):
        for j in range(point_alg.dim):
            for k in range(point_alg.dim):
                cases += 1
                x, y, z = (point_alg.basis_element(n) for n in (i, j, k))
                if ((x * y) * z).vec != (x * (y * z)).vec:
                    failures += 1
    return _result(failures == 0, "associativity on >= 100 cases", "%d failures over %d cases" % (failures, cases))


def check_unit_laws() -> CheckResult:
    rng = random.Random(SEED + 2)
    cases = failures = 0
    for tree in (POINT, EDGE):
        alg = algebra_for(tree)
        one = alg.identity()
        for i in range(alg.dim):
            e = alg.basis_element(i)
            cases += 1
            if (one * e).vec != e.vec or (e * one).vec != e.vec:
                failures += 1
    alg = algebra_for(EDGE)
    one = alg.identity()
    for e in _random_edge_elements(rng, 100):
        cases += 1
        if (one * e).vec != e.vec or (e * one).vec != e.vec:
            failures += 1
    return _result(failures == 0, "unit laws on basis and random elements", "%d failures over %d cases" % (failures, cases))


def check_transpose() -> CheckResult:
    rng = random.Random(SEED + 3)
    alg = algebra_for(EDGE)
    cases = failures = 0
    elements = _random_edge_elements(rng, 210)
    for k in range(100):
        a = elements[2 * k]
        b = elements[2 * k + 1]
        cases += 1
        if (a * b).transpose().vec != (b.transpose() * a.transpose()).vec:
            failures += 1
        if a.transpose().transpose().vec != a.vec:
            failures += 1
    for chain in _hom_pool():
        f, g, _ = chain
        cases += 1
        if transpose(compose(g, f)).terms != compose(transpose(f), transpose(g)).terms:
            failures += 1
    return _result(failures == 0, "transpose is an involutive anti-automorphism", "%d failures over %d cases" % (failures, cases))


def check_trace_symmetry() -> CheckResult:
    rng = random.Random(SEED + 4)
    alg = algebra_for(EDGE)
    cases = failures = 0
    elements = _random_edge_elements(rng, 200)
    for k in range(100):
        a = elements[2 * k]
        b = elements[2 * k + 1]
        cases += 1
        if alg.utr(a * b) != alg.utr(b * a):
            failures += 1
    return _result(failures == 0, "utr(fg) = utr(gf) on 100 random pairs", "%d failures over %d cases" % (failures, cases))


def check_dual_path_constants() -> CheckResult:
    alg = algebra_for(EDGE)
    failures = 0
    for i in range(alg.dim):
        for j in range(alg.dim):
            row = dict(alg.product_row(i, j))
            for k in range(alg.dim):
                ut = alg.basis[alg.transposes[k]]
                alpha = triple_trace(ut, alg.basis[i], alg.basis[j]) / mu_symbolic(alg.basis[k].whole)
                if alpha != row.get(k, RatFun.zero()):
                    failures += 1
    return _result(failures == 0, "trace-extracted structure constants equal composed ones (1000 coefficients)", "%d mismatches" % failures)


# -- registry -----------------------------------------------------------------

CHECKS: List[Check] = [
    Check("sec1-census-total", "sec1", "edge and three-star amalgamation census", check_census_total),
    Check("sec1-census-shapes", "sec1", "census grouped by shape", check_census_shapes),
    Check("sec1-census-base", "sec1", "census over a one-point base", check_census_base),
    Check("sec1-equation", "sec1", "product equation for the census pair", check_equation_instance),
    Check("sec1-equation-sweep", "sec1", "product equation over all small diagrams", check_equation_sweep),
    Check("sec3-generator-table", "sec3", "embedding-measure generator values", check_generator_table),
    Check("sec3-linear-forms", "sec3", "defining relations vanish in both value rings", check_linear_forms),
    Check("sec3-substitution", "sec3", "ring specialization matches the measure", check_substitution),
    Check("sec3-duplicate-relations", "sec3", "duplicate-diagram relations", check_relation_census),
    Check("sec3-separated-agreement", "sec3", "two separation implementations agree", check_separated_agreement),
    Check("sec3-minimal-marked", "sec3", "marked-tree minimization lands in the three shapes", check_minimal_marked),
    Check("sec3-level-vanishing", "sec3", "vanishing at integer parameters matches level", check_level_vanishing),
    Check("sec5-example-measures", "sec5", "worked composition example: measures", check_example_measures),
    Check("sec5-example-triple", "sec5", "worked composition example: extension census", check_example_triple),
    Check("sec5-truncation-hom", "sec5", "truncation at n=3 is multiplicative", check_truncation_homomorphism),
    Check("sec5-truncation-bijection", "sec5", "truncation at n=6 is a basis bijection", check_truncation_bijection),
    Check("sec5-gram", "sec5", "trace pairing determinant and degeneration", check_gram),
    Check("sec6-dimensions", "sec6", "morphism space dimensions and categorical dimensions", check_dimensions),
    Check("sec6-trace-a8-cube", "sec6", "trace of a8^3", check_trace_a8_cube),
    Check("sec6-trace-a8a8a9", "sec6", "trace of a8^2 a9", check_trace_a8a8a9),
    Check("sec6-trace-c5c5c2", "sec6", "trace of c5^2 c2", check_trace_c5c5c2),
    Check("sec6-trace-c5c5c4", "sec6", "trace of c5^2 c4", check_trace_c5c5c4),
    Check("sec6-trace-c5-cube", "sec6", "trace of c5^3", check_trace_c5_cube),
    Check("sec6-identity-factor", "sec6", "factorization through the one-leaf object", check_identity_factorization),
    Check("sec6-identity-b3-square", "sec6", "square of b3", check_identity_b3_square),
    Check("sec6-identity-minpoly", "sec6", "minimal polynomial of b3", check_identity_minpoly),
    Check("sec6-identity-orthogonal", "sec6", "(b1+b2) annihilates b3", check_identity_orthogonal),
    Check("sec6-identity-swap", "sec6", "swap-conjugation products", check_identity_swap_products),
    Check("sec6-idempotents-minus", "sec6", "minus-part idempotent system", check_idempotents_minus),
    Check("sec6-idempotents-plus", "sec6", "plus-part idempotent system", check_idempotents_plus),
    Check("sec6-flagged-formulas", "sec6", "unusable printed formulas are flagged", check_flagged_formulas),
    Check("props-enumeration", "props", "enumeration counts against the recursive series", check_enumeration_counts),
    Check("props-associativity", "props", "associativity of composition", check_associativity),
    Check("props-units", "props", "unit laws", check_unit_laws),
    Check("props-transpose", "props", "transpose anti-automorphism", check_transpose),
    Check("props-trace-symmetry", "props", "trace symmetry", check_trace_symmetry),
    Check("props-dual-path", "props", "dual-path structure constants", check_dual_path_constants),
]

SECTIONS = ("sec1", "sec3", "sec5", "sec6", "props")


def run_checks(scope: Optional[str] = None) -> List[Tuple[Check, CheckResult]]:
    """Run the suite; scope may be a section name, a check id, or None."""
    if scope in (None, "all"):
        selected = CHECKS
    else:
        selected = [c for c in CHECKS if c.section == scope or c.id == scope]
        if not selected:
            raise ValueError(
                "unknown scope %r (sections: %s)" % (scope, ", ".join(SECTIONS))
            )
    return [(c, c.fn()) for c in selected]
