"""Morphisms between trees as measured linear combinations of amalgamations.

A morphism from tree S to tree T is a formal linear combination, with
rational-function coefficients, of amalgamations of S and T.  To keep the
label universes of the two ends disjoint, S's labels are prefixed "s:" and
T's labels "t:" inside the stored amalgamations; composition tags the
middle object's labels "2:" while it enumerates, and the trace over
three-block trees tags the blocks "1:", "2:", "3:".

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

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple, Union

from arboreal.amalgam import (
    Amalgamation,
    _amalgamation_classes,
    _check_classes,
    _leaf_classes,
    _restriction_tallies,
    _site_signatures,
    amalgamations,
)
from arboreal.measure import (
    SYMBOLIC,
    ParamSpec,
    _embedding_sum_key,
    _measure_sum,
    _mu_symbolic_key,
    _product,
    _specialize,
    mu_symbolic,
    register_measure_cache,
)
from arboreal.ratfun import ZERO, Poly, RatFun, _common_denominator, _factor, _over
from arboreal.trees import Tree, TreeError, _signature

Coeff = Union[RatFun, Fraction, int]

SOURCE_TAG = "s:"
TARGET_TAG = "t:"
_SWAP = {SOURCE_TAG: TARGET_TAG, TARGET_TAG: SOURCE_TAG}


def _coeff(c: Coeff) -> RatFun:
    return c if isinstance(c, RatFun) else RatFun.from_scalar(c)


def tag_labels(tree: Tree, tag: str) -> Tree:
    """Prefix every label with a block tag, on the same graph; a common
    prefix keeps each leaf's labels sorted."""
    return Tree(tree.adj, tuple(tuple(tag + l for l in ls) for ls in tree.labels))


def retag(tree: Tree, mapping: Dict[str, str]) -> Tree:
    """Swap label prefixes, e.g. {"s:": "1:"}; unmatched labels error out.

    The new prefixes are distinct block tags, so swapping them keeps every
    label well-formed and distinct, and the graph is kept as it is."""

    def swap(l: str) -> str:
        for old, new in mapping.items():
            if l.startswith(old):
                return new + l[len(old):]
        raise TreeError("label %r carries no expected block tag" % (l,))

    return Tree(tree.adj, tuple(tuple(sorted(map(swap, ls))) for ls in tree.labels))


def _block(tree: Tree, tag: str) -> frozenset:
    return frozenset(tag + l for l in tree.label_set)


def hom_basis(source: Tree, target: Tree, max_level: Optional[int] = None) -> List[Amalgamation]:
    """The amalgamation basis of the morphism space from source to target."""
    return amalgamations(
        tag_labels(source, SOURCE_TAG), tag_labels(target, TARGET_TAG), max_level
    )


def tensor_summands(t1: Tree, t2: Tree, max_level: Optional[int] = None) -> List[Tree]:
    """The object-level product: one summand per amalgamation of the inputs."""
    return [a.whole for a in amalgamations(t1, t2, max_level)]


def diagonal_amalgamation(tree: Tree) -> Amalgamation:
    """The identity self-amalgamation: every leaf carries both tags, the
    source labels sorting first."""
    labels = tuple(tuple(SOURCE_TAG + l for l in ls) + tuple(TARGET_TAG + l for l in ls) for ls in tree.labels)
    return Amalgamation._of(Tree(tree.adj, labels), _block(tree, SOURCE_TAG), _block(tree, TARGET_TAG))


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
    left, right = _block(f.target, SOURCE_TAG), _block(f.source, TARGET_TAG)
    out = {Amalgamation._of(retag(am.whole, _SWAP), left, right): c for am, c in f.terms}
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
        Amalgamation._of(whole, _block(sub, SOURCE_TAG), _block(super_tree, TARGET_TAG)),
    )
    return beta, transpose(beta)


# Structure-constant tables kept, least recently used evicted first.  The
# cap holds each of three measured working sets: one paper-check (404
# tables), one round of cold compositions (157 to 174), and one product of a
# dense element by a three-term element of End((1,2,3)) (3 x 548 = 1,644).
# A cyclic scan larger than the cap misses on every read under any eviction
# order: at 1,024 each power of such an element rebuilds every table.
TRIPLE_CACHE_CAP = 2048
_TRIPLE_CACHE: Dict[Tuple[str, str, Optional[int]], Tuple] = {}
register_measure_cache(_TRIPLE_CACHE.clear)


def _composition_table(
    gu: Amalgamation, fv: Amalgamation, max_level: Optional[int]
) -> Tuple[Tuple[Amalgamation, RatFun], ...]:
    """For basis terms gu of g and fv of f, the coefficient of each
    (source, target)-restriction y3 in fv after gu: the summed measures of
    the inclusions y3 -> z over the three-block extensions z restricting to
    y3.

    The extensions are the amalgamations of the two wholes over block 2,
    which carries the tag "2:" while they are enumerated; the outer blocks
    keep their stored "s:"/"t:" tags.  No extension is built: each row y3
    and the signatures of its extensions are read from the search's last
    level, one restriction per penultimate tree and one graft per distinct
    place of its sites (:func:`amalgam._restriction_tallies`).  Each y3 is
    keyed once per place, and each row's value is read by the signature of
    y3 and the sorted tally of its extensions' signatures.  The rows are
    stored in key order.
    """
    key = (gu.key, fv.key, max_level)
    hit = _TRIPLE_CACHE.pop(key, None)
    if hit is not None:
        _TRIPLE_CACHE[key] = hit  # now the most recently used
        return hit
    u = retag(gu.whole, {SOURCE_TAG: SOURCE_TAG, TARGET_TAG: "2:"})
    v = retag(fv.whole, {SOURCE_TAG: "2:", TARGET_TAG: TARGET_TAG})
    rows: Dict[str, Tuple[Tree, Counter]] = {}
    for y3, tally in _restriction_tallies(gu.left | fv.right, *_amalgamation_classes(u, v, max_level)):
        rows.setdefault(y3.canonical_key(), (y3, Counter()))[1].update(tally)
    table = tuple(
        (Amalgamation._of(y3, gu.left, fv.right), _embedding_sum_key(_signature(y3), tuple(sorted(tally.items()))))
        for _, (y3, tally) in sorted(rows.items())
    )
    if len(_TRIPLE_CACHE) >= TRIPLE_CACHE_CAP:
        del _TRIPLE_CACHE[next(iter(_TRIPLE_CACHE))]
    _TRIPLE_CACHE[key] = table
    return table


def _bilinear(
    left: Sequence[Tuple[Hashable, RatFun]],
    right: Sequence[Tuple[Hashable, RatFun]],
    row: Callable[[Hashable, Hashable], Sequence[Tuple[Hashable, RatFun]]],
) -> Dict[Hashable, RatFun]:
    """The sum over (x, a) in left and (y, b) in right of a * b * w
    into slot k, for each (k, w) of row(x, y), by slot.

    The left coefficients, the right coefficients and the structure
    constants w read are each brought over one denominator, three calls of
    ``_common_denominator`` whatever the number of slots.  Every slot shares
    the product D of the three denominators, so D is split once into its
    content and its quotients by powers of t-1 (``ratfun._factor``), and
    each slot's numerator is normalized once against that split
    (``ratfun._over``, which ``RatFun(num, den)`` runs for one numerator).

    The numerators are summed as integers, by Kronecker substitution: each
    left and right numerator l, r and each distinct constant numerator w'
    is packed once, as its value at t = 2^b, so a pair costs one integer
    product, a term one more and one addition, and a slot is one ``int``.
    With n terms in all, b = bit_length(n * max|l|_1 * max|r|_1 *
    max|w'|_1) + 1: every coefficient of l*r*w' is at most |l|_1 |r|_1
    |w'|_1 in absolute value, so every coefficient c of a slot has |c| <
    2^(b-1), and the balanced base-2^b digits of the slot's value are
    exactly its coefficients (``Poly._unpack``).
    """
    lmuls, lden = _common_denominator([c.den for _, c in left])
    rmuls, rden = _common_denominator([c.den for _, c in right])
    lnums = [c.num * m for (_, c), m in zip(left, lmuls)]
    rnums = [c.num * m for (_, c), m in zip(right, rmuls)]
    rows = [row(x, y) for x, _ in left for y, _ in right]
    consts = {(w.num.coeffs, w.den.coeffs): w for r in rows for _, w in r}
    dens = {w.den.coeffs: w.den for w in consts.values()}
    wmuls, wden = _common_denominator(list(dens.values()))
    wmul = dict(zip(dens, wmuls))
    wnums = {key: w.num * wmul[w.den.coeffs] for key, w in consts.items()}
    bound = sum(map(len, rows))
    for nums in (lnums, rnums, wnums.values()):
        bound *= max((sum(map(abs, p.coeffs)) for p in nums), default=0)
    b = bound.bit_length() + 1
    packed = {key: p._pack(b) for key, p in wnums.items()}
    rpacked = [p._pack(b) for p in rnums]
    pairs = (x * y for x in (p._pack(b) for p in lnums) for y in rpacked)
    acc: Dict[Hashable, int] = {}
    for xy, r in zip(pairs, rows):
        for k, w in r:
            acc[k] = acc.get(k, 0) + xy * packed[w.num.coeffs, w.den.coeffs]
    den = _factor(wden * lden * rden)
    return {k: RatFun._normal(*_over(Poly._unpack(n, b), den)) if n else ZERO for k, n in acc.items()}


def compose(f: HomElement, g: HomElement, p: ParamSpec = SYMBOLIC) -> HomElement:
    """The composition f after g, computed symbolically.

    With a finite-level parameter the sum only runs over extensions within
    the level bound.  Every coefficient is then specialized to the mode
    (see :func:`measure._specialize`): evaluated at t or at t = n, or its
    limit as t grows.
    """
    if g.target != f.source:
        raise TreeError("middle objects do not match")
    max_level = p.n if p.mode == "level" else None
    terms = _bilinear(g.terms, f.terms, lambda gu, fv: _composition_table(gu, fv, max_level))
    return HomElement.make(g.source, f.target, {am: _specialize(c, p) for am, c in terms.items()})


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


def _trace_search(
    u: Amalgamation, v: Amalgamation, w: Amalgamation
) -> Optional[Tuple[List[Tuple[str, ...]], Tuple[Tuple[FrozenSet[str], Tree], ...]]]:
    """The leaf classes and constraints of the three-block trees computing
    the trace of the product u * v * w, or None when a class holds labels
    of two leaves of one pattern (no tree then).

    The whole tree restricts to u on blocks (1,2), to the transpose of v on
    blocks (1,3), and to w on blocks (2,3); the transpose in the middle slot
    is what makes the enumeration match trace-of-composition for every
    pattern, not only the transpose-symmetric ones.  Identifications across
    blocks are forced by the three patterns, so no free matchings arise.
    The labels of one multi-label leaf of the object share a leaf of every
    pattern, so they share a class.
    """
    wholes = (
        retag(u.whole, {SOURCE_TAG: "1:", TARGET_TAG: "2:"}),
        retag(v.whole, {SOURCE_TAG: "3:", TARGET_TAG: "1:"}),
        retag(w.whole, {SOURCE_TAG: "2:", TARGET_TAG: "3:"}),
    )
    label_sets = tuple(t.label_set for t in wholes)
    classes = _leaf_classes(frozenset().union(*label_sets), wholes)
    for cls in classes:
        for t, labels in zip(wholes, label_sets):
            if len({t.leaf_of(l) for l in cls if l in labels}) > 1:
                return None
    return classes, tuple(zip(label_sets, wholes))


def _trace_and_count(u: Amalgamation, v: Amalgamation, w: Amalgamation) -> Tuple[RatFun, int]:
    """The trace of the pattern triple and the number of its three-block
    trees, both from one tally of their signatures, read from the
    enumerator's last-level sites without building the trees."""
    search = _trace_search(u, v, w)
    if not search:
        return ZERO, 0
    _check_classes(search[0], None)
    tally = _site_signatures(*search, None)
    return _measure_sum(tally), sum(tally.values())


def triple_trace(u: Amalgamation, v: Amalgamation, w: Amalgamation) -> RatFun:
    """Sum of the measures of the three-block trees for the pattern triple:
    the trace of the corresponding triple product of basis endomorphisms,
    an agreement the verification suite checks."""
    return _trace_and_count(u, v, w)[0]


# -- endomorphism algebras ---------------------------------------------------


class ArborealAlgebra:
    """The endomorphism algebra of a tree.

    The basis is the sorted list of self-amalgamations (within the level
    bound, when one is given); elements are coefficient vectors over it.
    ``transposes`` holds the basis index of each basis element's transpose.
    """

    def __init__(self, tree: Tree, max_level: Optional[int] = None):
        self.tree = tree
        self.max_level = max_level
        self.basis: List[Amalgamation] = hom_basis(tree, tree, max_level)
        self.index: Dict[str, int] = {am.key: i for i, am in enumerate(self.basis)}
        self.dim = len(self.basis)
        ident = diagonal_amalgamation(tree)
        self.identity_index = self.index[ident.key]
        swapped = (retag(am.whole, _SWAP) for am in self.basis)
        self.transposes = tuple(self.index[whole.canonical_key()] for whole in swapped)

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
        composition table on every call and holds no zero value; the
        table's rows and the basis are both in key order, so the indices
        come in increasing order as the rows are read.
        """
        table = _composition_table(self.basis[j], self.basis[i], self.max_level)
        if self.max_level is not None:
            table = [(out, self._at_level(w)) for out, w in table]
        index = self.index
        return tuple([(index[out.key], w) for out, w in table if w.num.coeffs])

    def multiply(self, a: "AlgebraElement", b: "AlgebraElement") -> "AlgebraElement":
        out = [ZERO] * self.dim
        left = [(i, c) for i, c in enumerate(a.vec) if not c.is_zero()]
        right = [(j, c) for j, c in enumerate(b.vec) if not c.is_zero()]
        for k, value in _bilinear(left, right, self.product_row).items():
            out[k] = value
        return AlgebraElement(self, tuple(out))

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
        return self.element({self.transposes[i]: c for i, c in enumerate(e.vec) if not c.is_zero()})

    # -- trace form ----------------------------------------------------------

    def gram_matrix(self) -> List[List[RatFun]]:
        """Trace pairing on the basis: entry (i,j) is the measure of basis[i]
        when basis[j] is its transpose, else zero."""
        g = [[RatFun.zero()] * self.dim for _ in range(self.dim)]
        for i in range(self.dim):
            g[i][self.transposes[i]] = self._mu(self.basis[i].whole)
        return g

    def gram_det(self) -> RatFun:
        """Determinant of the trace pairing: the product of the basis
        measures from their signatures (under a level bound n, the product
        of each distinct signature's value at t = n to its multiplicity,
        never expanded), with sign (-1)^((dim - fixed points)/2), since
        transposing twice gives the identity."""
        fixed = sum(j == i for i, j in enumerate(self.transposes))
        factors = Counter(_signature(am.whole) for am in self.basis).items()
        if self.max_level is None:
            det = _product(factors)
        else:
            n = self.max_level
            det = RatFun.from_scalar(prod(_mu_symbolic_key(*sig).evaluate(n) ** m for sig, m in factors))
        return -det if (self.dim - fixed) // 2 % 2 else det

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

        Each power of the element is reduced, by exact elimination over the
        rational-function field, against the earlier reduced powers; its
        row carries its combination of the powers after the first ``dim``
        slots.  The first power that reduces to zero gives the polynomial.
        A reduced row is kept as it is, with the inverse of its pivot
        entry, so a reduction step takes one quotient and ``a - f*b`` on
        the row's nonzero entries.
        """
        dim = self.dim
        rows: List[Tuple[int, RatFun, List[Tuple[int, RatFun]]]] = []
        power = self.identity()
        for degree in range(dim + 1):
            vec = list(power.vec) + [ZERO] * (dim + 1)
            vec[dim + degree] = RatFun.one()
            for p, inv, entries in rows:
                if not vec[p].is_zero():
                    f = vec[p] * inv
                    for i, b in entries:
                        vec[i] = vec[i] - f * b
            p = next((i for i in range(dim) if not vec[i].is_zero()), None)
            if p is None:
                return vec[dim:dim + degree + 1]
            rows.append((p, vec[p].inverse(), [(i, c) for i, c in enumerate(vec) if not c.is_zero()]))
            power = self.multiply(power, e)
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


# An algebra holds no measure-derived value, so a perturbation leaves it valid.
_shared_algebra = lru_cache(maxsize=32)(ArborealAlgebra)


def algebra_for(tree: Tree, max_level: Optional[int] = None) -> ArborealAlgebra:
    """Shared algebra instances, keyed by tree identity and level bound."""
    return _shared_algebra(tree, max_level)
