"""Amalgamation enumeration for leaf-labeled trees.

An amalgamation of trees T1 and T2 is a tree on the union of their label
sets whose restrictions to each side reproduce T1 and T2; a leaf may carry
one label from each side, meaning the two copies overlap there.  Shared
labels act as a base: both restrictions to the shared set must agree, and
those leaves are identified throughout.

Enumeration works over one identification pattern at a time: choose a
partial injective matching between the two private label sets, quotient the
labels into leaf classes, and insert the classes one leaf at a time.  Each
class goes only to the sites where every partial tree still restricts to each
required side: the new leaf must land at the same place of the tree on the
side's labels inserted so far (a node or an edge, named by the clade below
it) as the class's labels hold in that side's tree.  One clade-labeling pass
per tree and side finds those sites, so only kept trees are built; this is
the supertree problem of BUILD (Aho, Sagiv, Szymanski and Ullman, SIAM J.
Comput. 10(3), 1981) and of Ng and Wormald (Discrete Appl. Math. 69, 1996),
listing every tree that displays the given subtrees.  Pruning partial trees
is sound because restriction commutes with taking sub-label-sets, so a
mismatch can never be repaired by later insertions.

The search runs every level but the last, then hands each tree of the
penultimate frontier with its admissible sites for the last class to its
consumer, which decides what to build.  The enumerators graft every site and
stream whole trees, each built once, unkeyed and in no promised order:
different matchings give different leaf label classes, so no tree arises
twice.  A three-block tree extending two amalgamations is an amalgamation
of their two wholes over the middle block, drawn from the same stream.
Only the listings :func:`amalgamations` and :func:`triple_amalgamations`
key their results and sort them.  A count is the number of sites, and the
signatures (leaf count, sorted node valences) that a measure sum needs
follow from each parent tree and site, so neither builds a last-level tree.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from arboreal.trees import EMPTY_TREE, Tree, TreeError, _check_labels, _signature

MAX_CLASSES = 15
FRONTIER_CAP = 200_000


class AmalgamError(ValueError):
    """Invalid amalgamation request: disagreeing bases or blown caps."""


@dataclass(frozen=True)
class Amalgamation:
    """A tree covering two label blocks, restricting correctly to each.

    ``whole`` carries every label of ``left`` and ``right``; shared labels
    appear once, and a leaf carrying one private label from each side is an
    identified leaf.
    """

    whole: Tree
    left: FrozenSet[str]
    right: FrozenSet[str]

    def __post_init__(self):
        if self.whole.label_set != self.left | self.right:
            raise AmalgamError("whole tree does not cover both label blocks")
        for ls in self.whole.labels:
            if len([l for l in ls if l in self.left]) > 1 or len(
                [l for l in ls if l in self.right]
            ) > 1:
                raise AmalgamError("leaf carries two labels from one side")

    @property
    def key(self) -> str:
        return self.whole.canonical_key()

    def left_tree(self) -> Tree:
        return self.whole.restrict(self.left)

    def right_tree(self) -> Tree:
        return self.whole.restrict(self.right)

    def swap(self) -> "Amalgamation":
        return Amalgamation(self.whole, self.right, self.left)

    def to_json(self) -> Dict[str, object]:
        return {
            "whole": self.key,
            "left": sorted(self.left),
            "right": sorted(self.right),
        }


@dataclass(frozen=True)
class TripleAmalgamation:
    """A tree covering three label blocks with prescribed pairwise patterns."""

    whole: Tree
    blocks: Tuple[FrozenSet[str], FrozenSet[str], FrozenSet[str]]

    @property
    def key(self) -> str:
        return self.whole.canonical_key()

    def pair(self, i: int, j: int) -> Amalgamation:
        bi, bj = self.blocks[i], self.blocks[j]
        return Amalgamation(self.whole.restrict(bi | bj), bi, bj)


def trees_with_restrictions(
    classes: Sequence[Tuple[str, ...]],
    constraints: Sequence[Tuple[FrozenSet[str], Tree]],
    max_level: Optional[int] = None,
) -> List[Tree]:
    """All trees whose leaves are exactly the given label classes and whose
    restriction to each constrained label set equals the given tree.

    Classes are inserted one leaf at a time, in order of their least label,
    and only at admissible sites.  When a class adds the labels ``L`` to a
    constraint whose already inserted labels are ``V_old``, every partial
    tree ``t`` satisfies ``t|V_old == E|V_old`` for ``E`` the constraint's
    tree.  The extended tree restricts to ``E|(V_old | L)`` exactly when
    ``L`` sits alone on one leaf of that restriction and the new leaf lands at
    the same place of ``t|V_old`` as that leaf does in ``E|V_old``, so the
    sites are selected by their places (see :func:`_clades`) and only kept
    trees are built.  No tree is built twice: deleting the new leaf gives
    back ``t`` and its site.  The last frontier is returned as it stands, in
    no promised order.
    """
    _check_classes(classes, constraints, max_level)
    return _trees_with_restrictions(classes, constraints, max_level)


def _check_classes(
    classes: Sequence[Tuple[str, ...]],
    constraints: Sequence[Tuple[FrozenSet[str], Tree]],
    max_level: Optional[int] = None,
) -> None:
    """The checks of :func:`trees_with_restrictions`: a level bound of at
    least 3, at most MAX_CLASSES classes, well-formed labels used once, and
    no constrained label unknown to its tree.  Merging classes keeps their
    labels, so a check of the unmerged classes covers every matching."""
    if max_level is not None and max_level < 3:
        raise TreeError("max_level must be at least 3")
    if len(classes) > MAX_CLASSES:
        raise AmalgamError("quotient label set has %d classes (cap %d)" % (len(classes), MAX_CLASSES))
    labels = [l for cls in sorted((tuple(sorted(c)) for c in classes), key=min) for l in cls]
    _check_labels(labels)
    for (subset, expected) in constraints:
        unknown = subset.intersection(labels) - expected.label_set
        if unknown:
            raise TreeError("unknown labels %s" % sorted(unknown))


def _trees_with_restrictions(
    classes: Sequence[Tuple[str, ...]],
    constraints: Sequence[Tuple[FrozenSet[str], Tree]],
    max_level: Optional[int],
) -> List[Tree]:
    """:func:`trees_with_restrictions` for classes and constraints that
    passed :func:`_check_classes` (not checked again)."""
    if not classes:
        return [EMPTY_TREE] if all(e.is_empty() for _, e in constraints) else []
    frontier = _frontier_sites(classes, constraints, max_level)
    return [t._graft(s, cls) for t, sites, cls in frontier for s in sites]


def _site_signatures(
    classes: Sequence[Tuple[str, ...]],
    constraints: Sequence[Tuple[FrozenSet[str], Tree]],
    max_level: Optional[int],
) -> Counter:
    """The signatures (leaf count, sorted node valences) of the trees of
    :func:`_trees_with_restrictions`, with multiplicity, read from the last
    level's sites without building those trees.

    A graft at node u raises the valence of u by one; a graft on an edge
    adds a node of valence three (a new valence-two vertex, raised by one);
    either adds one leaf, and no other valence changes.
    """
    if not classes:
        return Counter(_signature(t) for t in _trees_with_restrictions(classes, constraints, max_level))
    tally: Counter = Counter()
    for t, sites, _ in _frontier_sites(classes, constraints, max_level):
        leaves, valences = _signature(t)
        if len(t.adj) < 2:
            tally[leaves + 1, ()] += len(sites)
            continue
        adj = t.adj
        for d, n in Counter(len(adj[u]) if v < 0 else 2 for u, v in sites).items():
            vals = list(valences)
            if d > 2:
                vals.remove(d)
            insort(vals, d + 1)
            tally[leaves + 1, tuple(vals)] += n
    return tally


def _site_count(
    classes: Sequence[Tuple[str, ...]],
    constraints: Sequence[Tuple[FrozenSet[str], Tree]],
    max_level: Optional[int],
) -> int:
    """The number of trees of :func:`_trees_with_restrictions`: the last
    level's sites, none of them grafted."""
    if not classes:
        return len(_trees_with_restrictions(classes, constraints, max_level))
    return sum(len(sites) for _, sites, _ in _frontier_sites(classes, constraints, max_level))


def _frontier_sites(
    classes: Sequence[Tuple[str, ...]],
    constraints: Sequence[Tuple[FrozenSet[str], Tree]],
    max_level: Optional[int],
) -> Iterator[Tuple[Tree, List[Tuple[int, int]], Tuple[str, ...]]]:
    """The search of :func:`_trees_with_restrictions` up to its last level:
    for each tree of the penultimate frontier, its admissible sites and the
    last class.  Grafting the class at each site gives every tree of the
    search once.  ``classes`` must be nonempty.

    FRONTIER_CAP bounds each level's site count, which is the next level's
    tree count; the last level is checked before anything is yielded.
    """
    order = sorted((tuple(sorted(c)) for c in classes), key=min)
    inserted: FrozenSet[str] = frozenset()
    current: List[Tree] = [EMPTY_TREE]
    for depth, cls in enumerate(order):
        new = frozenset(cls)
        checks = []
        for (subset, expected) in constraints:
            seen = subset & new
            if not seen:
                continue
            old = subset & inserted
            leaf = expected.leaf_of(min(seen))
            if {l for l in expected.labels[leaf] if l in old or l in seen} != seen:
                return
            if len({expected.leaf_of(l) for l in old}) >= 2:
                # only a t|V_old with two leaves or more constrains the site
                bit = {l: 1 << i for i, l in enumerate(sorted(old))}
                _, _, above = _clades(expected, bit, expected.leaf_of(min(old)))
                checks.append((bit, min(old), above[leaf]))
        inserted |= new
        frontier = []
        for t in current:
            sites = t.sites()
            for bit, root, want in checks:
                parent, up, above = _clades(t, bit, t.leaf_of(root))
                sites = [
                    (u, v) for (u, v) in sites
                    if (up[u] if v < 0 else above[v if parent[v] == u else u]) == want
                ]
            if max_level is not None and len(t.adj) >= 2:
                adj, level = t.adj, t.level
                sites = [
                    (u, v) for (u, v) in sites
                    if max(level, 3 if v >= 0 else len(adj[u]) + 1) <= max_level
                ]
            frontier.append((t, sites))
        if sum(len(sites) for _, sites in frontier) > FRONTIER_CAP:
            raise AmalgamError("enumeration frontier exceeded %d trees" % FRONTIER_CAP)
        if depth == len(order) - 1:
            for t, sites in frontier:
                yield t, sites, cls
            return
        current = [t._graft(s, cls) for t, sites in frontier for s in sites]
        if not current:
            return


def _clades(
    tree: Tree, bit: Dict[str, int], root: int
) -> Tuple[List[int], List[int], List[int]]:
    """One pass over ``tree`` rooted at the leaf ``root``, placing its sites
    in ``tree|V_old``.

    ``bit`` gives each label of ``V_old`` its own bit; other labels are
    ignored.  A place is encoded ``2*C + 1`` for "the node with clade C" and
    ``2*C`` for "the edge above clade C", a clade being the bits of the
    ``V_old`` labels below a vertex.  Returns per vertex its parent, ``up``
    (the place of a new leaf attached to it) and ``above`` (the place of a
    new leaf on the edge above it).  A site below which no ``V_old`` label
    sits maps through its nearest ancestor with a non-empty clade.
    """
    adj, labels = tree.adj, tree.labels
    n = len(adj)
    parent = [-1] * n
    order = [root]
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    mask = [0] * n
    kids = [0] * n  # children with a non-empty clade
    for v in reversed(order[1:]):
        m = mask[v]
        for l in labels[v]:
            m |= bit.get(l, 0)
        if m:
            mask[v] = m
            mask[parent[v]] |= m
            kids[parent[v]] += 1
    up = [0] * n
    above = [0] * n
    for v in order[1:]:
        m = mask[v]
        if m:
            up[v] = 2 * m + (kids[v] >= 2)
            above[v] = 2 * m
        else:
            up[v] = above[v] = up[parent[v]]
    return parent, up, above


def _partial_matchings(a: Sequence, b: Sequence) -> Iterable[Tuple[tuple, ...]]:
    """Partial injective matchings a -> b in lexicographic order."""
    for k in range(min(len(a), len(b)) + 1):
        for asub in combinations(a, k):
            for bperm in permutations(b, k):
                yield tuple(zip(asub, bperm))


def _matched_classes(
    classes: Sequence[Tuple[str, ...]], own1: FrozenSet[str], own2: FrozenSet[str]
) -> Iterator[List[Tuple[str, ...]]]:
    """For every partial matching between the classes lying inside ``own1``
    and those lying inside ``own2``, the classes with each matched pair
    merged into one leaf class."""
    free1 = [c for c in classes if own1.issuperset(c)]
    free2 = [c for c in classes if own2.issuperset(c)]
    for matching in _partial_matchings(free1, free2):
        matched = {c for pair in matching for c in pair}
        yield [c for c in classes if c not in matched] + [a + b for a, b in matching]


def amalgamation_trees(
    t1: Tree, t2: Tree, max_level: Optional[int] = None
) -> Iterator[Tree]:
    """The whole tree of every amalgamation of t1 and t2, one matching at a
    time, each built once, in no promised order and with no canonical key.

    Shared labels form the base and must induce the same tree on both sides.
    Labels sharing a leaf of either tree stay together on one leaf; the free
    choices match leaves of t1 holding only private labels with such leaves
    of t2.  ``max_level`` restricts to amalgamations whose every node
    valence stays within the bound.
    """
    base = t1.restrict(t1.label_set & t2.label_set)
    constraints, matchings = _amalgamation_classes(base, t1, t2, max_level)
    for merged in matchings:
        yield from _trees_with_restrictions(merged, constraints, max_level)


def _amalgamation_signatures(
    base: Tree, t1: Tree, t2: Tree, max_level: Optional[int]
) -> Counter:
    """The signatures of the whole trees of :func:`amalgamation_trees`, for
    a caller that already holds base, t1 restricted to the shared labels
    (not checked), with multiplicity, none of them built (see
    :func:`_site_signatures`)."""
    constraints, matchings = _amalgamation_classes(base, t1, t2, max_level)
    tally: Counter = Counter()
    for merged in matchings:
        tally.update(_site_signatures(merged, constraints, max_level))
    return tally


def _amalgamation_count(t1: Tree, t2: Tree, max_level: Optional[int] = None) -> int:
    """The number of amalgamations of t1 and t2, none of them built."""
    base = t1.restrict(t1.label_set & t2.label_set)
    constraints, matchings = _amalgamation_classes(base, t1, t2, max_level)
    return sum(_site_count(merged, constraints, max_level) for merged in matchings)


def _amalgamation_classes(
    base: Tree, t1: Tree, t2: Tree, max_level: Optional[int]
) -> Tuple[Tuple[Tuple[FrozenSet[str], Tree], ...], Iterator[List[Tuple[str, ...]]]]:
    """The constraints of an amalgamation of t1 and t2 and the leaf classes
    of each matching, after checking the base (t1 restricted to the shared
    labels, not checked) against t2, and the classes and the level bound
    once."""
    i1, i2 = t1.label_set, t2.label_set
    shared = i1 & i2
    if base != t2.restrict(shared):
        raise AmalgamError("base restrictions disagree on shared labels %s" % sorted(shared))
    classes = _leaf_classes(i1 | i2, (t1, t2))
    constraints = ((i1, t1), (i2, t2))
    _check_classes(classes, constraints, max_level)
    return constraints, _matched_classes(classes, i1 - shared, i2 - shared)


def amalgamations(
    t1: Tree, t2: Tree, max_level: Optional[int] = None
) -> List[Amalgamation]:
    """All amalgamations of t1 and t2 up to label-preserving isomorphism,
    sorted by canonical key (see :func:`amalgamation_trees`)."""
    left, right = t1.label_set, t2.label_set
    ams = [Amalgamation(whole, left, right) for whole in amalgamation_trees(t1, t2, max_level)]
    return sorted(ams, key=lambda a: a.key)


def count_by_shape(t1: Tree, t2: Tree, max_level: Optional[int] = None) -> Counter:
    """Amalgamation counts grouped by the unlabeled shape of the whole."""
    return Counter(whole.shape_key() for whole in amalgamation_trees(t1, t2, max_level))


COPY_TAG = "t:"


def fresh_copy(tree: Tree, tag: str = COPY_TAG) -> Tree:
    """A relabeled copy with every label prefixed by ``tag``."""
    mapping = {l: tag + l for l in tree.label_set}
    clash = set(mapping.values()) & tree.label_set
    if clash:
        raise AmalgamError("fresh-copy tag collides with labels %s" % sorted(clash))
    return tree.relabel(mapping)


def self_amalgamations(
    tree: Tree, max_level: Optional[int] = None
) -> List[Amalgamation]:
    """Amalgamations of a tree with a fresh-relabeled copy of itself."""
    return amalgamations(tree, fresh_copy(tree), max_level)


def _leaf_classes(labels: Iterable[str], wholes: Iterable[Tree]) -> List[Tuple[str, ...]]:
    """The labels grouped by sharing a leaf of one of the wholes, closed
    transitively; each class sorted, the classes in order."""
    cls = {l: (l,) for l in labels}
    for whole in wholes:
        for ls in whole.labels:
            merged = tuple(sorted({m for l in ls for m in cls[l]}))
            for l in merged:
                cls[l] = merged
    return sorted(set(cls.values()))


def triple_amalgamations(
    x: Amalgamation, y: Amalgamation, max_level: Optional[int] = None
) -> List[Tuple[TripleAmalgamation, Amalgamation]]:
    """All three-block trees extending x on blocks (1,2) and y on (2,3),
    each with its restriction to blocks (1,3), sorted by the key of the
    whole: the amalgamations of x.whole and y.whole over block 2, whose free
    choices match untouched labels of blocks 1 and 3 (see
    :func:`amalgamation_trees`)."""
    b1, b2, b3 = x.left, x.right, y.right
    if y.left != b2:
        raise AmalgamError("middle blocks disagree")
    if b1 & b3 or b1 & b2 or b2 & b3:
        raise AmalgamError("triple blocks must be disjoint")
    out = [
        (TripleAmalgamation(z, (b1, b2, b3)), Amalgamation(z.restrict(b1 | b3), b1, b3))
        for z in amalgamation_trees(x.whole, y.whole, max_level)
    ]
    return sorted(out, key=lambda pair: pair[0].key)
