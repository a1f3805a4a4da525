"""Separated leaves, minimal marked trees, and the universal coefficient ring.

Two leaves of a tree are separated when the tree is the unique amalgamation
of its two one-leaf deletions over the common two-leaf deletion.  The
package carries two independent implementations: a brute-force count of
amalgamations, and the direct criterion (distinct marked nodes that are
non-adjacent, or with one of valence at least four).  Their agreement at
small sizes is part of the verification suite.

Deleting leaves separated from a mark one at a time drives any marked tree
to one of the minimal shapes: a marked star (type I_m), the four-leaf
two-node tree marked at a cherry (type II), or the five-leaf caterpillar
marked in the middle (type III).  The classes of these shapes generate the
universal coefficient ring, which this module represents concretely as
Z[u,v]/(uv) via the generator images

    x1 -> u+v+2,  x2 -> u+v+1,  x3 -> u+v,
    xm -> v+1-(m-2)(u+1)  (m >= 4),  y -> u,  z -> u-v.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from arboreal.amalgam import amalgamation_trees
from arboreal.measure import (
    SYMBOLIC,
    MarkedTree,
    marked_star,
    marked_type_code,
    marked_y,
    marked_z,
    theta_generator_values,
)
from arboreal.ratfun import Poly, RatFun
from arboreal.trees import Tree, TreeError, _check_labels


def mark_type(mt: MarkedTree) -> str:
    """The type code of a marked tree: "I<m>", "II" or "III".

    Trees with at most three leaves are of type I_m.
    """
    return marked_type_code(mt.tree, mt.mark)


def generator_of_code(code: str) -> str:
    """The generator class of a type code: I<m> -> "x<m>", II -> "y", III -> "z"."""
    if code == "II":
        return "y"
    if code == "III":
        return "z"
    return "x" + code[1:]


def separated(tree: Tree, a: str, b: str) -> bool:
    """Direct separation criterion on the reduced tree.

    True when the neighbors of the two leaves are distinct and either
    non-adjacent or not both of valence three.  Trees without internal
    vertices have no separated pairs.
    """
    va, vb = tree.leaf_of(a), tree.leaf_of(b)
    if va == vb:
        raise TreeError("labels %r and %r share a leaf" % (a, b))
    if tree.node_count == 0:
        return False
    na, nb = tree.adj[va][0], tree.adj[vb][0]
    if na == nb:
        return False
    if nb not in tree.adj[na]:
        return True
    return len(tree.adj[na]) >= 4 or len(tree.adj[nb]) >= 4


def separated_bruteforce(tree: Tree, a: str, b: str) -> bool:
    """Separation by definition: count amalgamations of the two deletions.

    The tree itself is always one amalgamation of tree-minus-a and
    tree-minus-b over the common part, so the pair is separated exactly
    when the count is one; the count stops at the second tree.
    """
    va, vb = tree.leaf_of(a), tree.leaf_of(b)
    if va == vb:
        raise TreeError("labels %r and %r share a leaf" % (a, b))
    wholes = list(islice(amalgamation_trees(tree.drop_leaf(a), tree.drop_leaf(b)), 2))
    if len(wholes) == 1 and wholes[0] != tree:
        raise AssertionError("unique amalgamation differs from the input tree")
    return len(wholes) == 1


def extraneous_leaves(mt: MarkedTree) -> List[str]:
    """Leaves separated from the mark, in label order."""
    out = []
    mark_leaf = mt.tree.leaf_of(mt.mark)
    for v in mt.tree.leaves():
        if v == mark_leaf:
            continue
        probe = min(mt.tree.labels_of(v))
        if separated(mt.tree, mt.mark, probe):
            out.append(probe)
    return sorted(out)


def minimize_marked(mt: MarkedTree) -> Tuple[MarkedTree, str]:
    """Delete extraneous leaves (smallest label first) until none remain.

    Returns the minimal marked tree and its type code.  The result is one
    of the minimal shapes and retains the input's type; both facts are
    asserted.
    """
    initial = mark_type(mt)
    current = mt
    while True:
        extras = extraneous_leaves(current)
        if not extras:
            break
        current = MarkedTree(current.tree.drop_leaf(extras[0]), current.mark)
    final = mark_type(current)
    if final != initial:
        raise AssertionError(
            "minimization changed the type: %s -> %s" % (initial, final)
        )
    expected = _minimal_shape_for(final)
    if current.tree.shape_key() != expected.tree.shape_key() or mark_type(expected) != final:
        raise AssertionError("minimal marked tree has an unexpected shape")
    return current, final


def _minimal_shape_for(code: str) -> MarkedTree:
    if code == "II":
        return marked_y()
    if code == "III":
        return marked_z()
    return marked_star(int(code[1:]))


def generator_name(mt: MarkedTree) -> str:
    """The generator class of a marked tree: "x<m>", "y", or "z"."""
    return generator_of_code(mark_type(mt))


# -- the ring Z[u,v]/(uv) ----------------------------------------------------


@dataclass(frozen=True)
class ThetaElement:
    """p(u) + q(v) in Z[u,v]/(uv), as two integer polynomials.

    ``p`` carries the constant term and ``q`` has none, so each element has
    exactly one such pair.  Since uv = 0, a product keeps p1*p2 on the u
    side and q1*q2 plus each q times the other's constant on the v side.
    """

    p: Poly = Poly()
    q: Poly = Poly()

    @staticmethod
    def const(c: int) -> "ThetaElement":
        return ThetaElement(Poly((c,)))

    @staticmethod
    def u() -> "ThetaElement":
        return ThetaElement(Poly.t())

    @staticmethod
    def v() -> "ThetaElement":
        return ThetaElement(Poly(), Poly.t())

    def is_zero(self) -> bool:
        return not self.p and not self.q

    def __add__(self, other: "ThetaElement") -> "ThetaElement":
        return ThetaElement(self.p + other.p, self.q + other.q)

    def __neg__(self) -> "ThetaElement":
        return ThetaElement(-self.p, -self.q)

    def __sub__(self, other: "ThetaElement") -> "ThetaElement":
        return ThetaElement(self.p - other.p, self.q - other.q)

    def scale(self, k: int) -> "ThetaElement":
        return ThetaElement(self.p.scale(k), self.q.scale(k))

    def __mul__(self, other: "ThetaElement") -> "ThetaElement":
        c1, c2 = Poly(self.p.coeffs[:1]), Poly(other.p.coeffs[:1])
        return ThetaElement(
            self.p * other.p, self.q * other.q + self.q * c2 + c1 * other.q
        )

    def __pow__(self, n: int) -> "ThetaElement":
        out = ThetaElement.const(1)
        for _ in range(n):
            out = out * self
        return out

    def specialize(self, u_value: RatFun, v_value: RatFun) -> RatFun:
        """Image under u -> u_value, v -> v_value (their product must be 0)."""
        if not (u_value * v_value).is_zero():
            raise ValueError("u and v images must multiply to zero")
        return RatFun(self.p).substitute(u_value) + RatFun(self.q).substitute(v_value)

    def __str__(self) -> str:
        parts = []
        for var, poly in (("u", self.p), ("v", self.q)):
            for i, x in enumerate(poly.coeffs):
                if not x:
                    continue
                if i == 0:
                    parts.append("%+d" % x)
                    continue
                body = var if i == 1 else "%s^%d" % (var, i)
                if abs(x) != 1:
                    body = "%d*%s" % (abs(x), body)
                parts.append(("-" if x < 0 else "+") + body)
        return "".join(parts).lstrip("+") or "0"


def theta_image(name: str) -> ThetaElement:
    """The image of a generator class in Z[u,v]/(uv)."""
    if name == "y":
        return ThetaElement.u()
    if name == "z":
        return ThetaElement.u() - ThetaElement.v()
    m = re.fullmatch(r"x(\d+)", name)
    if not m:
        raise ValueError("unknown generator %r" % (name,))
    m = int(m.group(1))
    if m < 1:
        raise ValueError("generator index must be positive")
    u, v = ThetaElement.u(), ThetaElement.v()
    if m == 1:
        return u + v + ThetaElement.const(2)
    if m == 2:
        return u + v + ThetaElement.const(1)
    if m == 3:
        return u + v
    return v + ThetaElement.const(1) - (u + ThetaElement.const(1)).scale(m - 2)


MU_U_IMAGE = RatFun.from_scalar(-1) * (RatFun.t() - 2) / (RatFun.t() - 1)
MU_V_IMAGE = RatFun.zero()


def theta_to_mu(e: ThetaElement) -> RatFun:
    """Specialize at u = -(t-2)/(t-1), v = 0: the measure-side value."""
    return e.specialize(MU_U_IMAGE, MU_V_IMAGE)


_TOKEN_RE = re.compile(r"\s*(x\d+|y|z|\d+|[()+\-*])")

R = TypeVar("R")


def evaluate_form(expr: str, atom: Callable[[str], R]) -> R:
    """Evaluate an integer expression over the generators in any ring.

    Grammar: + - * and parentheses over integers and generator names
    (x1, x2, ..., y, z); no implicit multiplication.  ``atom`` maps an
    integer or generator token to its ring value.
    """
    tokens: List[str] = []
    pos = 0
    while pos < len(expr):
        m = _TOKEN_RE.match(expr, pos)
        if not m:
            if expr[pos:].strip():
                raise ValueError("bad token at %r" % (expr[pos:],))
            break
        tokens.append(m.group(1))
        pos = m.end()
    idx = [0]

    def peek() -> Optional[str]:
        return tokens[idx[0]] if idx[0] < len(tokens) else None

    def eat() -> str:
        idx[0] += 1
        return tokens[idx[0] - 1]

    def primary() -> R:
        tok = peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        eat()
        if tok == "(":
            e = expression()
            if peek() != ")":
                raise ValueError("missing closing parenthesis")
            eat()
            return e
        if tok == "-":
            return -primary()
        if tok in (")", "+", "*"):
            raise ValueError("unexpected %r in %r" % (tok, expr))
        return atom(tok)

    def product() -> R:
        e = primary()
        while peek() == "*":
            eat()
            e = e * primary()
        return e

    def expression() -> R:
        e = product()
        while peek() in ("+", "-"):
            if eat() == "+":
                e = e + product()
            else:
                e = e - product()
        return e

    out = expression()
    if idx[0] != len(tokens):
        raise ValueError("trailing tokens in %r" % (expr,))
    return out


def theta_eval(expr: str) -> ThetaElement:
    """Evaluate a generator expression in Z[u,v]/(uv)."""
    return evaluate_form(
        expr, lambda tok: ThetaElement.const(int(tok)) if tok.isdigit() else theta_image(tok)
    )


# The defining linear forms among the generators, and the one quadratic.
LINEAR_FORMS = (
    "1+x2-x1",
    "1+x3-x2",
    "1+x4-x3+3*y",
    "1+x5-x4+y",
    "1+z+y+x4",
)
QUADRATIC_FORM = "y*(z-y)"


def linear_form_for_m(m: int) -> str:
    """The duplicate relation for a star of size m >= 4: 1+x(m+1)-xm+y."""
    if m < 4:
        raise ValueError("the generic star relation needs m >= 4")
    return "1+x%d-x%d+y" % (m + 1, m)


def evaluate_form_mu(expr: str, values: Dict[str, RatFun]) -> RatFun:
    """Evaluate a generator expression with measure values substituted."""

    def atom(tok: str) -> RatFun:
        if tok.isdigit():
            return RatFun.from_scalar(int(tok))
        if tok not in values:
            raise ValueError("unknown generator %r" % (tok,))
        return values[tok]

    return evaluate_form(expr, atom)


# -- relations from duplicate diagrams ---------------------------------------


@dataclass(frozen=True)
class DuplicateRelation:
    """The linear relation produced by amalgamating a minimal marked tree
    with a fresh copy of itself over the unmarked part.

    ``terms`` maps "1" and generator names to integer coefficients in
    class_of_input - delta - sum(classes of proper amalgamations) = 0.
    """

    source: str
    terms: Dict[str, int]
    residual_mu: RatFun
    residual_theta: ThetaElement

    def to_json(self) -> Dict[str, object]:
        return {
            "source": self.source,
            "generator_terms": [
                {"class": k, "coeff": v} for k, v in sorted(self.terms.items())
            ],
            "residual_mu": str(self.residual_mu),
            "residual_theta": str(self.residual_theta),
        }


def verify_L_relation(mt: MarkedTree) -> DuplicateRelation:
    """Build and check the duplicate relation of a minimal marked tree.

    The marked tree is amalgamated with a copy whose mark is renamed; the
    identified amalgamation contributes 1, every proper one contributes the
    generator class of its extension by the original mark.  The resulting
    linear form must vanish both under the measure substitution and in
    Z[u,v]/(uv).
    """
    minimal, _ = minimize_marked(mt)
    if minimal.tree != mt.tree:
        raise ValueError("relation source must be a minimal marked tree")
    fresh = mt.mark + ".dup"
    copy = mt.tree.relabel({mt.mark: fresh})
    terms: Dict[str, int] = {generator_name(mt): 1}
    for whole in amalgamation_trees(mt.tree, copy):
        if fresh in whole.labels_of(whole.leaf_of(mt.mark)):
            # the identified amalgamation: an isomorphism, class 1
            terms["1"] = terms.get("1", 0) - 1
            continue
        _, code = minimize_marked(MarkedTree(whole, mt.mark))
        cls = generator_of_code(code)
        terms[cls] = terms.get(cls, 0) - 1
    terms = {k: v for k, v in terms.items() if v}
    m_max = max(
        [int(k[1:]) for k in terms if k.startswith("x")] + [4]
    )
    mu_values = theta_generator_values(SYMBOLIC, m_max)
    residual_mu = RatFun.zero()
    residual_theta = ThetaElement.const(0)
    for k, coeff in terms.items():
        if k == "1":
            residual_mu = residual_mu + RatFun.from_scalar(coeff)
            residual_theta = residual_theta + ThetaElement.const(coeff)
        else:
            residual_mu = residual_mu + RatFun.from_scalar(coeff) * mu_values[k]
            residual_theta = residual_theta + theta_image(k).scale(coeff)
    return DuplicateRelation(
        source=generator_name(mt),
        terms=terms,
        residual_mu=residual_mu,
        residual_theta=residual_theta,
    )


# -- the many-extensions witness ----------------------------------------------


def count_extensions(y: Tree, x_labels, z: Tree) -> int:
    """Embeddings of y into z restricting to the identity on ``x_labels``.

    Elements are leaves; an assignment must be injective on leaves, fix each
    leaf carrying a kept label, and induce a subtree of z isomorphic to y
    (labels transported along the assignment).
    """
    x_labels = frozenset(x_labels)
    from itertools import permutations as perms

    fixed: Dict[int, int] = {}
    for lab in x_labels:
        fixed[y.leaf_of(lab)] = z.leaf_of(lab)
    free_y = [v for v in y.leaves() if v not in fixed]
    used = set(fixed.values())
    free_z = [v for v in z.leaves() if v not in used]
    y_rep = {v: min(y.labels_of(v)) for v in y.leaves()}
    target = y.restrict(set(y_rep.values())).relabel(
        {l: l + ".e" for l in y_rep.values()}
    )
    count = 0
    for image in perms(free_z, len(free_y)):
        assignment = dict(fixed)
        assignment.update(zip(free_y, image))
        picked = [min(z.labels_of(zv)) for zv in assignment.values()]
        mapping = {
            min(z.labels_of(zv)): y_rep[yv] + ".e" for yv, zv in assignment.items()
        }
        if z.restrict(picked).relabel(mapping) == target:
            count += 1
    return count


def ss2_witness(y: Tree, x: Tree, h: int) -> Tuple[Tree, int]:
    """A caterpillar extension admitting many embeddings of y over x.

    Deletes one leaf of y outside x and grafts a chain of h cherries in its
    place; the returned count of embeddings of y extending the inclusion of
    x is at least h, and the construction never raises the level above
    max(level(y), 3).
    """
    x_labels = frozenset(x.label_set)
    if h < 1:
        raise ValueError("h must be positive")
    if not x_labels < y.label_set:
        raise ValueError("x must be a proper restriction of y")
    if y.restrict(x_labels) != x:
        raise ValueError("x is not the restriction of y to its labels")
    spare = sorted(
        min(y.labels_of(v))
        for v in y.leaves()
        if not any(l in x_labels for l in y.labels_of(v))
    )
    if not spare:
        raise ValueError("every leaf of y carries a label of x")
    a = spare[0]
    fresh = ["%s.w%d" % (a, i) for i in range(1, h + 1)]
    av = y.leaf_of(a)
    _check_labels(fresh, y.label_set.difference(y.labels[av]))
    # the leaf of a takes the last fresh label, and each other one is
    # grafted on its pendant edge, nearest the rest of y first
    labels = list(y.labels)
    labels[av] = (fresh[-1],)
    z = Tree(y.adj, tuple(labels))
    for lab in fresh[:-1]:
        z = z._graft(tuple(sorted((av, z.adj[av][0]))) if z.adj[av] else (-1, -1), (lab,))
    if z.level > max(y.level, 3):
        raise AssertionError("witness construction raised the level")
    return z, count_extensions(y, x_labels, z)
