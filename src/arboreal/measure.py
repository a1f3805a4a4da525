"""The one-parameter measure on trees and tree embeddings.

The value on a nonempty tree T is

    (-1)^nodes * t * prod_over_nodes (t-2)(t-3)...(t-v+1) / (t-1)^leaves

with the empty tree assigned 1, and on an embedding sub -> super it is
value(super)/value(sub).  Every product or quotient of values (of a tree,
an embedding, the product equation's left side, a Gram determinant) is one
sum of exponent vectors over signatures, the pairs (leaf count, sorted node
valences), expanded once in normal form with no gcd or division; under a
level bound n a Gram determinant is the product of each distinct
signature's cached value at t = n to its multiplicity instead.  A sum of
values (``mu_sum``, the embedding sums of the composition table, the
product equation's residual, the trace over three-block trees) hands one
term per signature to ``RatFun.sum``, which normalizes it once with no gcd:
the denominators are all c*(t-1)^leaves.  The residual, the trace and the
composition tables count their trees at the enumerator's last-level sites
and build none of them; a table's row value depends only on the signature
of the row tree and the tally of its extensions' signatures, and is
memoized on them.
Every other evaluation specializes the symbolic value.

Parameter modes:

* symbolic: exact rational functions in t;
* numeric t (a rational, t != 1): the symbolic value evaluated at t, with a
  genuine pole after cancellation reported as an error;
* finite level n (an integer >= 3): evaluation at t = n restricted to trees
  of level <= n, where the measure stays nonzero;
* infinity: the limit as t grows of the same symbolic value, which is 0
  when the numerator has the lower degree and otherwise the ratio of the
  leading coefficients (+1 or -1); so a tree with two or more leaves has
  limit 0, while an embedding's limit is the product of the generator
  limits along any chain of leaf deletions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from arboreal.amalgam import _amalgamation_classes, _site_signatures
from arboreal.ratfun import ZERO, Poly, RatFun
from arboreal.trees import Tree, TreeError, _signature, parse_tree

Value = Union[RatFun, Fraction, int]
Signature = Tuple[int, Tuple[int, ...]]  # leaf count, sorted node valences


class LevelError(ValueError):
    """A finite-level request involved a tree outside the level bound."""


@dataclass(frozen=True)
class ParamSpec:
    """Evaluation mode: symbolic, numeric rational, finite level, or infinity."""

    mode: str
    t: Optional[Fraction] = None
    n: Optional[int] = None

    @staticmethod
    def symbolic() -> "ParamSpec":
        return ParamSpec("symbolic")

    @staticmethod
    def numeric(t) -> "ParamSpec":
        t = Fraction(t)
        if t == 1:
            raise ValueError("the measure is undefined at t = 1")
        return ParamSpec("numeric", t=t)

    @staticmethod
    def finite_level(n: int) -> "ParamSpec":
        if n < 3:
            raise ValueError("finite level requires n >= 3")
        return ParamSpec("level", n=n)

    @staticmethod
    def infinity() -> "ParamSpec":
        return ParamSpec("infinity")


SYMBOLIC = ParamSpec.symbolic()


@dataclass(frozen=True)
class MarkedTree:
    """A tree with one distinguished single-label leaf."""

    tree: Tree
    mark: str

    def __post_init__(self):
        v = self.tree.leaf_of(self.mark)
        if self.tree.labels_of(v) != (self.mark,):
            raise TreeError("marked leaf must carry exactly the mark")

    def unmarked(self) -> Tree:
        return self.tree.drop_leaf(self.mark)


_PERTURB_PER_LEAF: Optional[Fraction] = None


def _power(k: int, e: int) -> Poly:
    """(t-k)^e, expanded by the binomial theorem from the top coefficient
    down: C(e, j-1) (-k)^(e-j+1) = C(e, j) (-k)^(e-j) * (-k) j / (e-j+1)."""
    coeffs = [0] * (e + 1)
    c = 1
    for j in range(e, -1, -1):
        coeffs[j] = c
        c = c * -k * j // (e - j + 1)
    return Poly._of(coeffs)


def _exponents(factors: Iterable[Tuple[Signature, int]]) -> Tuple[Union[int, Fraction], List[int]]:
    """The product of the measures of the signatures, each to its integer
    power: a constant (-1)^nodes c^leaves, for the perturbation scale c, and
    exponents e, e[k] the power of t-k: e[0] counts the trees, -e[1] is
    their leaves and e[k], k >= 2, their nodes of valence above k."""
    nodes, e = 0, [0, 0]
    for (leaf_count, valences), m in factors:
        if leaf_count:  # the empty tree measures 1
            nodes += m * len(valences)
            e[0] += m
            e[1] -= m * leaf_count
            e.extend([0] * ((valences[-1] if valences else 0) - len(e)))
            for v in valences:
                for k in range(2, v):
                    e[k] += m
    c = -1 if nodes % 2 else 1
    return (c if _PERTURB_PER_LEAF is None else c * _PERTURB_PER_LEAF ** -e[1]), e


def _product(factors: Iterable[Tuple[Signature, int]]) -> RatFun:
    """The normal form of :func:`_exponents`: each factor (t-k)^e on the
    side of its exponent's sign, expanded once by ``_power``, times the
    constant's numerator or denominator.  Distinct monic factors and a
    constant in lowest terms are already a normal form: no gcd or division."""
    c, e = _exponents(factors)
    if not c:
        return ZERO
    sides = [Poly._of((c.numerator,)), Poly._of((c.denominator,))]
    for k, x in enumerate(e[1:], 1):
        if x:
            sides[x < 0] = sides[x < 0] * _power(k, abs(x))
    # t^e is a shift, cheaper than a product with its zero coefficients
    num, den = (Poly._of((0,) * max(x, 0) + p.coeffs) for p, x in zip(sides, (e[0], -e[0])))
    return RatFun._normal(num, den)


@lru_cache(maxsize=4096)
def _mu_symbolic_key(leaf_count: int, valences: Tuple[int, ...]) -> RatFun:
    """The closed form from the leaf count and the sorted node valences:
    (-1)^nodes * t * prod over k >= 2 of (t-k)^(nodes of valence above k),
    over (t-1)^leaves."""
    return _product((((leaf_count, valences), 1),))


# Clear functions of every cache whose values derive from the measure.
_MEASURE_CACHES: List[Callable[[], None]] = [_mu_symbolic_key.cache_clear]


def register_measure_cache(clear: Callable[[], None]) -> None:
    """Have set_mu_perturbation empty a cache of measure-derived values."""
    _MEASURE_CACHES.append(clear)


def set_mu_perturbation(scale_per_leaf: Optional[Fraction]) -> None:
    """Testing hook: scale the tree measure by c^leaf_count.

    A non-trivial scale breaks additivity over amalgamations (identified
    leaves change the leaf count), which is exactly what a harness self-test
    wants to observe.  Production code never sets this.  Every registered
    measure-derived cache is emptied, so no value computed under one scale
    is read under another.
    """
    global _PERTURB_PER_LEAF
    _PERTURB_PER_LEAF = scale_per_leaf
    for clear in _MEASURE_CACHES:
        clear()


def mu_symbolic(tree: Tree) -> RatFun:
    """The measure of a tree as an exact rational function of t."""
    return _mu_symbolic_key(*_signature(tree))


def _check_levels(trees: Iterable[Tree], p: ParamSpec) -> None:
    """In finite-level mode, raise LevelError for a tree above the bound."""
    if p.mode != "level":
        return
    for tree in trees:
        if tree.level > p.n:
            raise LevelError(
                "tree %s has level %d > %d and is outside the level-%d class"
                % (tree.canonical_key(), tree.level, p.n, p.n)
            )


def _specialize(value: RatFun, p: ParamSpec) -> Value:
    """A symbolic measure value under the given parameter mode."""
    if p.mode == "symbolic":
        return value
    if p.mode == "numeric":
        return value.evaluate(p.t)
    if p.mode == "level":
        return value.evaluate(p.n)
    if p.mode == "infinity":
        if value.num.degree < value.den.degree:
            return Fraction(0)
        return Fraction(value.num.leading(), value.den.leading())
    raise ValueError("unknown parameter mode %r" % (p.mode,))


def mu_of_tree(tree: Tree, p: ParamSpec = SYMBOLIC) -> Value:
    """The measure of a tree under the given parameter mode."""
    _check_levels((tree,), p)
    return _specialize(mu_symbolic(tree), p)


def mu_sum(trees: Iterable[Tree], p: ParamSpec = SYMBOLIC) -> Value:
    """The summed measure of the trees under the given parameter mode.

    The measure depends only on the leaf count and the node valences, so
    ``mu_symbolic`` runs once per such signature and the symbolic sum is
    normalized once; the level, a part of the signature, is checked on one
    tree of each.  Every term's denominator is c*(t-1)^leaves, of no lower
    degree than its numerator, so specializing the sum agrees with summing
    the specialized terms in every mode.
    """
    reps: Dict[Signature, Tree] = {}
    tally: Counter = Counter()
    for tree in trees:
        sig = _signature(tree)
        reps.setdefault(sig, tree)
        tally[sig] += 1
    _check_levels(reps.values(), p)
    return _specialize(_measure_sum(tally), p)


def _measure_sum(tally: Dict[Signature, int]) -> RatFun:
    """The symbolic sum of the measures of trees counted by signature."""
    return RatFun.sum(_signature_terms(tally, _mu_symbolic_key))


def _signature_terms(
    tally: Dict[Signature, int], measure: Callable[..., RatFun]
) -> Iterator[Tuple[Poly, Poly]]:
    """Unnormalized (num, den) pairs, one per signature, of ``measure`` of
    the signature times the number of trees that share it."""
    for sig, n in tally.items():
        value = measure(*sig)
        yield value.num.scale(n), value.den


def mu_embedding(sub: Tree, super_tree: Tree, p: ParamSpec = SYMBOLIC) -> Value:
    """The measure of the embedding sub -> super under the parameter mode."""
    if not sub.label_set <= super_tree.label_set:
        raise TreeError("sub labels are not contained in super labels")
    if super_tree.restrict(sub.label_set) != sub:
        raise TreeError("sub is not the restriction of super to its labels")
    _check_levels((sub, super_tree), p)
    return _specialize(_product(((_signature(super_tree), 1), (_signature(sub), -1))), p)


@lru_cache(maxsize=4096)
def _embedding_sum_key(small: Signature, tally: Tuple[Tuple[Signature, int], ...]) -> RatFun:
    """The summed symbolic measure of the embeddings sub -> z, from the
    signature of sub and the tally items of the signatures of the z: one
    quotient of closed forms per signature, normalized once.  A composition
    table reads each row's value here, keyed by the sorted tally items."""
    return RatFun.sum(_signature_terms(dict(tally), lambda *sig: _product(((sig, 1), (small, -1)))))


register_measure_cache(_embedding_sum_key.cache_clear)


def marked_type_code(tree: Tree, mark: str) -> str:
    """Classify a marked tree: I1/I2/I3, Im (marked-node valence m >= 4),
    II, or III.

    For four or more leaves the type is read off the neighbor of the marked
    leaf: valence m >= 4 gives Im, valence three gives II when two of its
    neighbors are leaves and III when the mark is the only leaf neighbor.
    """
    v = tree.leaf_of(mark)
    if tree.labels_of(v) != (mark,):
        raise TreeError("mark must sit alone on its leaf")
    leaves = tree.leaf_count
    if leaves <= 3:
        return "I%d" % leaves
    node = tree.adj[v][0]
    valence = len(tree.adj[node])
    if valence >= 4:
        return "I%d" % valence
    leaf_neighbors = sum(1 for w in tree.adj[node] if tree.is_leaf(w))
    return "II" if leaf_neighbors == 2 else "III"


def star_tree(m: int, prefix: str = "v") -> Tree:
    """The tree with m leaves on one node (an edge for m = 2, a point for 1)."""
    if m < 1:
        raise ValueError("star size must be >= 1")
    names = ",".join("%s%d" % (prefix, i) for i in range(1, m + 1))
    return parse_tree(names if m == 1 else "(%s)" % names)


def marked_star(m: int) -> MarkedTree:
    """The m-leaf star marked at one leaf: the type I_m minimal shape."""
    return MarkedTree(star_tree(m), "v1")


def marked_y() -> MarkedTree:
    """The four-leaf two-node tree marked at a cherry leaf: type II."""
    return MarkedTree(parse_tree("((a,b),(c,m))"), "m")


def marked_z() -> MarkedTree:
    """The five-leaf caterpillar marked at the middle leaf: type III."""
    return MarkedTree(parse_tree("((a,b),m,(c,d))"), "m")


def theta_generator_values(p: ParamSpec = SYMBOLIC, m_max: int = 6) -> Dict[str, Value]:
    """Generator values computed from embedding measures (never hardcoded).

    Returns x1..x{m_max} (star extensions), y, and z.
    """
    if m_max < 4:
        raise ValueError("m_max must be at least 4")
    out: Dict[str, Value] = {}
    for m in range(1, m_max + 1):
        big = star_tree(m)  # x1 embeds the empty tree in the point
        out["x%d" % m] = mu_embedding(big.drop_leaf("v1"), big, p)
    ym = marked_y()
    out["y"] = mu_embedding(ym.unmarked(), ym.tree, p)
    zm = marked_z()
    out["z"] = mu_embedding(zm.unmarked(), zm.tree, p)
    return out


def verify_amalgamation_equation(t1: Tree, t2: Tree, p: ParamSpec = SYMBOLIC) -> Value:
    """Residual of the product equation over the shared-label base.

    Computes value(base -> t1) * value(t2) minus the sum of the values of
    all amalgamations; a correct measure returns exactly zero.  At finite
    level n only amalgamations within the level bound are counted.
    """
    base = t1.restrict(t1.label_set & t2.label_set)
    max_level = p.n if p.mode == "level" else None
    tally = _site_signatures(*_amalgamation_classes(t1, t2, max_level))
    lhs = _product(((_signature(t1), 1), (_signature(t2), 1), (_signature(base), -1)))
    # the negated residual: the amalgamations minus the left side
    residual = -RatFun.sum(chain(((-lhs.num, lhs.den),), _signature_terms(tally, _mu_symbolic_key)))
    _check_levels((base, t1, t2), p)
    return _specialize(residual, p)
