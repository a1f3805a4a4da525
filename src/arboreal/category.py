"""Morphisms between trees as measured linear combinations of amalgamations.

A morphism from tree S to tree T is a formal linear combination, with
rational-function coefficients, of amalgamations of S and T.  To keep the
label universes of the two ends disjoint, S's labels are prefixed "s:" and
T's labels "t:" inside the stored amalgamations; composition temporarily
uses "1:", "2:", "3:" for the three blocks involved.

Composition of basis elements sums over all three-block trees extending the
two given amalgamations: each such tree contributes the measure of the
inclusion of its (source, target)-restriction, taken symbolically so that
numeric parameters can be substituted afterwards without spurious poles.

The endomorphism algebra of a tree has the self-amalgamations as basis, the
diagonal self-amalgamation as unit, and a trace that reads off the diagonal
coefficient times the measure of the tree.  The trace pairing is diagonal
with respect to transposition, which is what the Gram machinery exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

from arboreal.amalgam import (
    Amalgamation,
    _leaf_classes,
    _triple_trees,
    amalgamations,
    trees_with_restrictions,
)
from arboreal.measure import (
    SYMBOLIC,
    ParamSpec,
    _embedding_sum,
    mu_sum,
    mu_symbolic,
    register_measure_cache,
)
from arboreal.ratfun import FractionSum, RatFun
from arboreal.trees import Tree, TreeError

Coeff = Union[RatFun, Fraction, int]

SOURCE_TAG = "s:"
TARGET_TAG = "t:"


def _coeff(c: Coeff) -> RatFun:
    return c if isinstance(c, RatFun) else RatFun.from_scalar(c)


def tag_labels(tree: Tree, tag: str) -> Tree:
    return tree.relabel({l: tag + l for l in tree.label_set})


def retag(tree: Tree, mapping: Dict[str, str]) -> Tree:
    """Swap label prefixes, e.g. {"s:": "1:"}; unmatched labels error out."""
    sub = {}
    for l in tree.label_set:
        for old, new in mapping.items():
            if l.startswith(old):
                sub[l] = new + l[len(old):]
                break
        else:
            raise TreeError("label %r carries no expected block tag" % (l,))
    return tree.relabel(sub)


def _block(tree: Tree, tag: str) -> frozenset:
    return frozenset(tag + l for l in tree.label_set)


def _retag_block(block: frozenset, old: str, new: str) -> frozenset:
    return frozenset(new + l[len(old):] for l in block)


def hom_basis(source: Tree, target: Tree, max_level: Optional[int] = None) -> List[Amalgamation]:
    """The amalgamation basis of the morphism space from source to target."""
    return amalgamations(
        tag_labels(source, SOURCE_TAG), tag_labels(target, TARGET_TAG), max_level
    )


def tensor_summands(t1: Tree, t2: Tree, max_level: Optional[int] = None) -> List[Tree]:
    """The object-level product: one summand per amalgamation of the inputs."""
    return [a.whole for a in amalgamations(t1, t2, max_level)]


def diagonal_amalgamation(tree: Tree) -> Amalgamation:
    """The identity self-amalgamation: every leaf carries both tags."""
    tagged = tag_labels(tree, SOURCE_TAG)
    whole = tagged.merge_labels(
        {SOURCE_TAG + l: (TARGET_TAG + l,) for l in tree.label_set}
    )
    return Amalgamation(whole, _block(tree, SOURCE_TAG), _block(tree, TARGET_TAG))


@dataclass(frozen=True)
class HomElement:
    """A finite linear combination of amalgamations from source to target."""

    source: Tree
    target: Tree
    terms: Tuple[Tuple[Amalgamation, RatFun], ...]

    @staticmethod
    def make(source: Tree, target: Tree, terms: Dict[Amalgamation, Coeff]) -> "HomElement":
        cleaned = ((am, _coeff(c)) for am, c in terms.items())
        pruned = tuple(
            sorted(((am, c) for am, c in cleaned if not c.is_zero()),
                   key=lambda pair: pair[0].key)
        )
        return HomElement(source, target, pruned)

    @staticmethod
    def basis(source: Tree, target: Tree, am: Amalgamation) -> "HomElement":
        return HomElement.make(source, target, {am: RatFun.one()})

    def coefficients(self) -> Dict[Amalgamation, RatFun]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "HomElement") -> "HomElement":
        self._check_parallel(other)
        merged = self.coefficients()
        for am, c in other.terms:
            merged[am] = merged.get(am, RatFun.zero()) + c
        return HomElement.make(self.source, self.target, merged)

    def __sub__(self, other: "HomElement") -> "HomElement":
        return self + other.scale(-1)

    def scale(self, c: Coeff) -> "HomElement":
        return HomElement.make(
            self.source, self.target, {am: x * c for am, x in self.terms}
        )

    def _check_parallel(self, other: "HomElement") -> None:
        if self.source != other.source or self.target != other.target:
            raise TreeError("morphisms are not parallel")

    def to_json(self) -> Dict[str, object]:
        return {
            "source": self.source.canonical_key(),
            "target": self.target.canonical_key(),
            "terms": [
                {"amalgamation": am.key, "coeff": str(c)} for am, c in self.terms
            ],
        }


def identity_hom(tree: Tree) -> HomElement:
    return HomElement.basis(tree, tree, diagonal_amalgamation(tree))


def transpose(f: HomElement) -> HomElement:
    """Swap the two blocks of every term; reverses source and target."""
    out: Dict[Amalgamation, RatFun] = {}
    for am, c in f.terms:
        whole = retag(am.whole, {SOURCE_TAG: TARGET_TAG, TARGET_TAG: SOURCE_TAG})
        out[Amalgamation(whole, _block(f.target, SOURCE_TAG), _block(f.source, TARGET_TAG))] = c
    return HomElement.make(f.target, f.source, out)


def embedding_morphisms(
    sub: Tree, super_tree: Tree, mapping: Optional[Dict[str, str]] = None
) -> Tuple[HomElement, HomElement]:
    """The forward and backward morphisms of an embedding of sub in super.

    The embedding sends each label of sub to the like-named label of super,
    or along an explicit injective ``mapping``; the induced subtree must be
    sub itself.  Both morphisms are the single amalgamation placing sub
    inside super; the backward one is the transpose of the forward one.
    """
    if mapping is None:
        mapping = {l: l for l in sub.label_set}
    image = set(mapping.values())
    if set(mapping) != set(sub.label_set) or len(image) != len(mapping):
        raise TreeError("mapping must be injective on the labels of sub")
    if super_tree.restrict(image) != sub.relabel(mapping):
        raise TreeError("sub is not an induced restriction of super")
    whole = tag_labels(super_tree, TARGET_TAG).merge_labels(
        {TARGET_TAG + mapping[l]: (SOURCE_TAG + l,) for l in sub.label_set}
    )
    beta = HomElement.basis(
        sub,
        super_tree,
        Amalgamation(whole, _block(sub, SOURCE_TAG), _block(super_tree, TARGET_TAG)),
    )
    return beta, transpose(beta)


# Structure-constant tables kept, oldest evicted first: enough for every
# table of paper-check (about 400) and a round of cold compositions.
TRIPLE_CACHE_CAP = 4096
_TRIPLE_CACHE: Dict[Tuple[str, str, Optional[int]], Tuple] = {}
register_measure_cache(_TRIPLE_CACHE.clear)


def _composition_table(
    gu: Amalgamation, fv: Amalgamation, max_level: Optional[int]
) -> Tuple[Tuple[Amalgamation, RatFun], ...]:
    """For basis terms gu of g and fv of f, the coefficient of each
    (source, target)-restriction y3 in fv after gu: the summed measures of
    the inclusions y3 -> z over the three-block extensions z restricting to
    y3.

    The three blocks carry the tags "1:", "2:", "3:" while the extensions
    are enumerated; the extensions are grouped by the key of y3 and summed
    by signature, and no extension gets a key of its own.  The stored
    restrictions are tagged "s:"/"t:" again, in key order.
    """
    key = (gu.key, fv.key, max_level)
    hit = _TRIPLE_CACHE.get(key)
    if hit is not None:
        return hit
    u = Amalgamation(
        retag(gu.whole, {SOURCE_TAG: "1:", TARGET_TAG: "2:"}),
        _retag_block(gu.left, SOURCE_TAG, "1:"),
        _retag_block(gu.right, TARGET_TAG, "2:"),
    )
    v = Amalgamation(
        retag(fv.whole, {SOURCE_TAG: "2:", TARGET_TAG: "3:"}),
        _retag_block(fv.left, SOURCE_TAG, "2:"),
        _retag_block(fv.right, TARGET_TAG, "3:"),
    )
    extensions: Dict[str, Tuple[Tree, List[Tree]]] = {}
    for z, y3 in _triple_trees(u, v, max_level):
        extensions.setdefault(y3.canonical_key(), (y3, []))[1].append(z)
    table = tuple(
        (Amalgamation(retag(y3, {"1:": SOURCE_TAG, "3:": TARGET_TAG}), gu.left, fv.right),
         _embedding_sum(y3, zs))
        for _, (y3, zs) in sorted(extensions.items())
    )
    if len(_TRIPLE_CACHE) >= TRIPLE_CACHE_CAP:
        del _TRIPLE_CACHE[next(iter(_TRIPLE_CACHE))]
    _TRIPLE_CACHE[key] = table
    return table


def compose(f: HomElement, g: HomElement, p: ParamSpec = SYMBOLIC) -> HomElement:
    """The composition f after g, computed symbolically.

    With a finite-level parameter the sum only runs over extensions within
    the level bound and the resulting coefficients are evaluated at t = n;
    with a numeric parameter the symbolic result is evaluated at t.
    """
    if g.target != f.source:
        raise TreeError("middle objects do not match")
    max_level = p.n if p.mode == "level" else None
    acc: Dict[Amalgamation, FractionSum] = {}
    for gu, cg in g.terms:
        for fv, cf in f.terms:
            num, den = cg.num * cf.num, cg.den * cf.den
            for out, w in _composition_table(gu, fv, max_level):
                if out not in acc:
                    acc[out] = FractionSum()
                acc[out].add(w.num * num, w.den * den)
    h = HomElement.make(g.source, f.target, {out: s.value() for out, s in acc.items()})
    if p.mode == "numeric":
        return evaluate_coefficients(h, p.t)
    if p.mode == "level":
        return evaluate_coefficients(h, p.n)
    return h


def categorical_trace(e: HomElement) -> RatFun:
    """Measure of the tree times the diagonal coefficient of an endomorphism."""
    if e.source != e.target:
        raise TreeError("trace requires an endomorphism")
    diag = diagonal_amalgamation(e.source)
    coeff = RatFun.zero()
    for am, c in e.terms:
        if am.key == diag.key:
            coeff = c
            break
    return coeff * mu_symbolic(e.source)


def truncate_level(f: HomElement, n: int) -> HomElement:
    """Drop every term whose whole tree exceeds the level bound."""
    if n < 3:
        raise ValueError("truncation level must be at least 3")
    return HomElement.make(
        f.source, f.target, {am: c for am, c in f.terms if am.whole.level <= n}
    )


def evaluate_coefficients(f: HomElement, t) -> HomElement:
    """Evaluate every coefficient at a rational parameter value."""
    t = Fraction(t)
    return HomElement.make(
        f.source,
        f.target,
        {am: RatFun.from_scalar(c.evaluate(t)) for am, c in f.terms},
    )


def triple_trace_trees(
    u: Amalgamation, v: Amalgamation, w: Amalgamation
) -> List[Tree]:
    """The three-block trees computing the trace of the product u * v * w.

    The whole tree restricts to u on blocks (1,2), to the transpose of v on
    blocks (1,3), and to w on blocks (2,3); the transpose in the middle slot
    is what makes the enumeration match trace-of-composition for every
    pattern, not only the transpose-symmetric ones.  Identifications across
    blocks are forced by the three patterns, so no free matchings arise.
    The trees come in no promised order.
    """
    wholes = {
        "u": retag(u.whole, {SOURCE_TAG: "1:", TARGET_TAG: "2:"}),
        "v": retag(v.whole, {SOURCE_TAG: "3:", TARGET_TAG: "1:"}),
        "w": retag(w.whole, {SOURCE_TAG: "2:", TARGET_TAG: "3:"}),
    }
    b1 = _retag_block(u.left, SOURCE_TAG, "1:")
    b2 = _retag_block(u.right, TARGET_TAG, "2:")
    b3 = _retag_block(w.right, TARGET_TAG, "3:")
    classes = _leaf_classes(b1 | b2 | b3, wholes.values())
    for cls in classes:
        per_block = [sum(1 for l in cls if l.startswith(tag)) for tag in ("1:", "2:", "3:")]
        if max(per_block) > 1:
            return []
    constraints = ((b1 | b2, wholes["u"]), (b1 | b3, wholes["v"]), (b2 | b3, wholes["w"]))
    return trees_with_restrictions(classes, constraints)


def triple_trace(u: Amalgamation, v: Amalgamation, w: Amalgamation) -> RatFun:
    """Sum of the measures of the three-block trees for the pattern triple.

    Equals the trace of the corresponding triple product of basis
    endomorphisms; the agreement with compose-then-trace is part of the
    verification suite.
    """
    return mu_sum(triple_trace_trees(u, v, w))


# -- endomorphism algebras ---------------------------------------------------


class ArborealAlgebra:
    """The endomorphism algebra of a tree.

    The basis is the sorted list of self-amalgamations (within the level
    bound, when one is given); elements are coefficient vectors over it.
    """

    def __init__(self, tree: Tree, max_level: Optional[int] = None):
        self.tree = tree
        self.max_level = max_level
        self.basis: List[Amalgamation] = hom_basis(tree, tree, max_level)
        self.index: Dict[str, int] = {am.key: i for i, am in enumerate(self.basis)}
        self.dim = len(self.basis)
        ident = diagonal_amalgamation(tree)
        self.identity_index = self.index[ident.key]

    # -- element plumbing --------------------------------------------------

    def element(self, coeffs: Dict[int, Coeff]) -> "AlgebraElement":
        """The element with the given coefficients by basis index."""
        vec = [RatFun.zero()] * self.dim
        for i, c in coeffs.items():
            vec[i] = _coeff(c)
        return AlgebraElement(self, tuple(vec))

    def basis_element(self, i: int) -> "AlgebraElement":
        return self.element({i: 1})

    def identity(self) -> "AlgebraElement":
        return self.element({self.identity_index: 1})

    def from_hom(self, f: HomElement) -> "AlgebraElement":
        return self.element({self.index[am.key]: c for am, c in f.terms})

    def to_hom(self, e: "AlgebraElement") -> HomElement:
        return HomElement.make(
            self.tree,
            self.tree,
            {self.basis[i]: c for i, c in enumerate(e.vec) if not c.is_zero()},
        )

    # -- multiplication ------------------------------------------------------

    def product_row(self, i: int, j: int) -> Tuple[Tuple[int, RatFun], ...]:
        """Structure constants of basis[i] * basis[j] (i acting after j).

        The row is sparse: a ``(k, value)`` pair for each nonzero
        coefficient of basis[k], in increasing k.  It is read off the
        composition table on every call and holds no zero value.
        """
        row = []
        for out, w in _composition_table(self.basis[j], self.basis[i], self.max_level):
            w = self._at_level(w)
            if not w.is_zero():
                row.append((self.index[out.key], w))
        row.sort()
        return tuple(row)

    def multiply(self, a: "AlgebraElement", b: "AlgebraElement") -> "AlgebraElement":
        out = [FractionSum() for _ in range(self.dim)]
        for i, ca in enumerate(a.vec):
            if ca.is_zero():
                continue
            for j, cb in enumerate(b.vec):
                if cb.is_zero():
                    continue
                num, den = ca.num * cb.num, ca.den * cb.den
                for k, w in self.product_row(i, j):
                    out[k].add(w.num * num, w.den * den)
        return AlgebraElement(self, tuple(s.value() for s in out))

    def _at_level(self, value: RatFun) -> RatFun:
        """A symbolic value, evaluated at t = n under a level bound n."""
        if self.max_level is None:
            return value
        return RatFun.from_scalar(value.evaluate(self.max_level))

    def _mu(self, tree: Tree) -> RatFun:
        return self._at_level(mu_symbolic(tree))

    def utr(self, e: "AlgebraElement") -> RatFun:
        return e.vec[self.identity_index] * self._mu(self.tree)

    def transpose_vector(self, e: "AlgebraElement") -> "AlgebraElement":
        return self.element({self.transpose_index(i): c for i, c in enumerate(e.vec) if not c.is_zero()})

    def transpose_index(self, i: int) -> int:
        am = self.basis[i]
        whole = retag(am.whole, {SOURCE_TAG: TARGET_TAG, TARGET_TAG: SOURCE_TAG})
        return self.index[whole.canonical_key()]

    # -- trace form ----------------------------------------------------------

    def gram_matrix(self) -> List[List[RatFun]]:
        """Trace pairing on the basis: entry (i,j) is the measure of basis[i]
        when basis[j] is its transpose, else zero."""
        g = [[RatFun.zero()] * self.dim for _ in range(self.dim)]
        for i in range(self.dim):
            g[i][self.transpose_index(i)] = self._mu(self.basis[i].whole)
        return g

    def gram_det(self) -> RatFun:
        """Determinant of the trace pairing: a signed product of basis measures."""
        sign = 1
        seen = [False] * self.dim
        for i in range(self.dim):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.transpose_index(j)
                length += 1
            if length % 2 == 0:
                sign = -sign
        det = RatFun.from_scalar(sign)
        for am in self.basis:
            det = det * self._mu(am.whole)
        return det

    def is_semisimple_at(self, t) -> Tuple[bool, Optional[str], Optional[str]]:
        """Whether the trace pairing stays nondegenerate at t.

        Returns (verdict, witness basis key, vanishing factor); the witness
        is a basis element whose measure vanishes at t.
        """
        t = Fraction(t)
        if t == 1:
            raise ValueError("the measure is undefined at t = 1")
        for am in self.basis:
            if mu_symbolic(am.whole).evaluate(t) == 0:
                return False, am.key, "(t-%s)" % (t,)
        return True, None, None

    # -- spectral helpers ------------------------------------------------------

    def minimal_polynomial(self, e: "AlgebraElement") -> List[RatFun]:
        """Monic least-degree annihilating polynomial, constant term first.

        Powers of the element are reduced by exact elimination over the
        rational-function field until the first linear dependence.
        """
        powers: List[Tuple[RatFun, ...]] = [self.identity().vec]
        current = self.identity()
        while True:
            current = self.multiply(current, e)
            solution = _solve_dependence(powers, current.vec)
            if solution is not None:
                coeffs = [-c for c in solution]
                coeffs.append(RatFun.one())
                return coeffs
            powers.append(current.vec)
            if len(powers) > self.dim + 1:
                raise AssertionError("no dependence within the algebra dimension")

    def idempotent_report(self, e: "AlgebraElement") -> Dict[str, object]:
        square = self.multiply(e, e)
        return {
            "is_idempotent": square.vec == e.vec,
            "udim_image": self.utr(e),
        }


class AlgebraElement:
    """A coefficient vector in a fixed endomorphism algebra."""

    __slots__ = ("algebra", "vec")

    def __init__(self, algebra: ArborealAlgebra, vec: Tuple[RatFun, ...]):
        self.algebra = algebra
        self.vec = vec

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(
            self.algebra, tuple(a + b for a, b in zip(self.vec, other.vec))
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(
            self.algebra, tuple(a - b for a, b in zip(self.vec, other.vec))
        )

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(-a for a in self.vec))

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            return self.algebra.multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other) -> "AlgebraElement":
        return self.scale(other)

    def scale(self, c: Coeff) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(a * c for a in self.vec))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.algebra is other.algebra
            and self.vec == other.vec
        )

    def __hash__(self):
        return hash(self.vec)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.vec)

    def utr(self) -> RatFun:
        return self.algebra.utr(self)

    def transpose(self) -> "AlgebraElement":
        return self.algebra.transpose_vector(self)

    def __repr__(self) -> str:
        terms = [
            "%s*[%s]" % (c, self.algebra.basis[i].key)
            for i, c in enumerate(self.vec)
            if not c.is_zero()
        ]
        return " + ".join(terms) if terms else "0"


def _solve_dependence(
    rows: Sequence[Tuple[RatFun, ...]], target: Tuple[RatFun, ...]
) -> Optional[List[RatFun]]:
    """Express target as a combination of rows, or return None.

    Exact Gaussian elimination over the rational-function field.
    """
    n = len(target)
    k = len(rows)
    # augmented columns: solve A^T x = target with A rows
    matrix = [[rows[r][c] for r in range(k)] + [target[c]] for c in range(n)]
    pivots: List[Tuple[int, int]] = []
    row = 0
    for col in range(k):
        pivot = None
        for r in range(row, n):
            if not matrix[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        inv = RatFun.one() / matrix[row][col]
        matrix[row] = [x * inv for x in matrix[row]]
        for r in range(n):
            if r != row and not matrix[r][col].is_zero():
                f = matrix[r][col]
                matrix[r] = [a - f * b for a, b in zip(matrix[r], matrix[row])]
        pivots.append((row, col))
        row += 1
    for r in range(row, n):
        if not matrix[r][k].is_zero():
            return None
    solution = [RatFun.zero()] * k
    for r, c in pivots:
        solution[c] = matrix[r][k]
    return solution


# An algebra holds no measure-derived value, so a perturbation leaves it valid.
_shared_algebra = lru_cache(maxsize=32)(ArborealAlgebra)


def algebra_for(tree: Tree, max_level: Optional[int] = None) -> ArborealAlgebra:
    """Shared algebra instances, keyed by tree identity and level bound."""
    return _shared_algebra(tree, max_level)
