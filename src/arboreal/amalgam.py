"""Amalgamation enumeration for leaf-labeled trees.

An amalgamation of trees T1 and T2 is a tree on the union of their label
sets whose restrictions to each side reproduce T1 and T2; a leaf may carry
the labels of one leaf from each side, meaning the two copies overlap
there.  Shared labels act as a base: both restrictions to the shared set
must agree, and those leaves are identified throughout.  The check builds
neither restriction; it compares the clusters of the shared labels, which
determine a leaf-labeled tree (:func:`_base_clusters`).

Labels sharing a leaf of either side are quotiented into leaf classes, and
one search per pair lists every amalgamation.  It starts from a seed: the
side with more free classes (those of its private labels), each leaf
carrying its class.  The other side's free classes are then inserted one
at a time, and only that side's constraint is active, since inserting
labels of one side never changes the restriction to the other.  A class
goes to a new leaf, or joins a free leaf of the seed that no class has
joined yet, which identifies the two: joining is one more site of the
search, on the pendant edge above that leaf.  Each class goes only to the
sites where every partial tree still restricts to the other side: its
labels must land at the same place of the tree on the side's labels
inserted so far (a node or an edge, named by the clade below it) as they
hold in that side's tree.  One clade-labeling pass per tree finds those
sites, so only kept trees are built; each pass roots the tree at the leaf
of a label, found by :meth:`Tree.leaf_of`, which keeps nothing on the tree.
A class that does not sit alone on one leaf of each constraint it meets
fits no site, and ends the search before any graft.  This is the supertree
problem of BUILD (Aho, Sagiv, Szymanski and Ullman, SIAM J. Comput. 10(3),
1981) and of Ng and Wormald (Discrete Appl. Math. 69, 1996), listing every
tree that displays the given subtrees.  Pruning partial trees is sound
because restriction commutes with taking sub-label-sets, so a mismatch can
never be repaired by later insertions.

The search walks its levels depth first, holding only the pending siblings
along one path, and hands each penultimate tree with its admissible sites
for the last class to its consumer.  The stream grafts every site and yields
whole trees, each built once, unkeyed and in no promised order: deleting the
last class gives back the parent and its site, so no tree arises twice.  A
three-block tree extending two amalgamations is an amalgamation of their two
wholes over the middle block.  A count is the number of sites, and the
signatures (leaf count, sorted node valences) that a measure sum needs
follow from each parent tree and site, so neither builds a last-level tree.
Nor do a composition table's rows, the restrictions of those trees to the
outer blocks: each is the parent's restriction grafted at a site's place.
A listing holds its trees, so it is counted first and refused past
LISTING_CAP before any is built (:func:`_listing`).  With no constraint and
one label per class, the search lists every tree on a label set; how many
there are follows from the label count and the level bound alone
(:func:`_tree_count`), so such a listing is counted without a walk.

Input is validated where it comes in, and what the program builds is
trusted.  The public :class:`Amalgamation` constructor checks outside
wholes, and :func:`trees_with_restrictions` checks outside classes and
constraints.  The enumerators take their classes from valid trees, so every
search checks only its bounds (:func:`_check_classes`), and each
amalgamation they build comes from the unchecked :meth:`Amalgamation._of`.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from arboreal.trees import EMPTY_TREE, Tree, TreeError, _breadth_first, _check_labels, _signature

MAX_CLASSES = 15
LISTING_CAP = 1_000_000  # every listing of nine labels: at most 660,032 trees


class AmalgamError(ValueError):
    """Invalid amalgamation request: disagreeing bases or blown caps."""


@dataclass(frozen=True)
class Amalgamation:
    """A tree covering two label blocks, restricting correctly to each.

    ``whole`` carries every label of ``left`` and ``right``; shared labels
    appear once, and a leaf carrying labels of both sides is an identified
    leaf.  The constructor validates outside input: the whole must cover
    both blocks, and no leaf may carry two labels of one block.  The
    program builds its own amalgamations with :meth:`_of`, where a leaf may
    also carry a whole multi-label leaf of one side.
    """

    whole: Tree
    left: FrozenSet[str]
    right: FrozenSet[str]

    def __post_init__(self):
        if self.whole.label_set != self.left | self.right:
            raise AmalgamError("whole tree does not cover both label blocks")
        for ls in self.whole.labels:
            if len(ls) > 1 and (len(self.left.intersection(ls)) > 1 or len(self.right.intersection(ls)) > 1):
                raise AmalgamError("leaf carries two labels from one side")

    @classmethod
    def _of(cls, whole: Tree, left: FrozenSet[str], right: FrozenSet[str]) -> "Amalgamation":
        """Trusted: an amalgamation the program built.  Nothing is validated."""
        am = object.__new__(cls)
        # set as the frozen __init__ sets them: a __dict__.update would
        # expand the compact instance layout to a full dict
        object.__setattr__(am, "whole", whole)
        object.__setattr__(am, "left", left)
        object.__setattr__(am, "right", right)
        return am

    @property
    def key(self) -> str:
        return self.whole.canonical_key()

    def left_tree(self) -> Tree:
        return self.whole.restrict(self.left)

    def right_tree(self) -> Tree:
        return self.whole.restrict(self.right)

    def swap(self) -> "Amalgamation":
        return Amalgamation._of(self.whole, self.right, self.left)

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
        return Amalgamation._of(self.whole.restrict(bi | bj), bi, bj)


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
    back ``t`` and its site.  The listing is counted first (:func:`_listing`)
    and comes in no promised order.  As the classes and constraints come
    from outside, their labels must be well-formed, used once and known to
    their trees.
    """
    _check_classes(classes, max_level)
    labels = [l for cls in sorted((tuple(sorted(c)) for c in classes), key=min) for l in cls]
    _check_labels(labels)
    for (subset, expected) in constraints:
        unknown = subset.intersection(labels) - expected.label_set
        if unknown:
            raise TreeError("unknown labels %s" % sorted(unknown))
    return list(_listing(classes, constraints, max_level))


def _check_classes(classes: Sequence[Tuple[str, ...]], max_level: Optional[int]) -> None:
    """The bounds every search checks: a level bound of at least 3 and at
    most MAX_CLASSES classes.  Labels are checked where they come in: by
    :func:`trees_with_restrictions`, or by the trees the classes are
    taken from."""
    if max_level is not None and max_level < 3:
        raise TreeError("max_level must be at least 3")
    if len(classes) > MAX_CLASSES:
        raise AmalgamError("quotient label set has %d classes (cap %d)" % (len(classes), MAX_CLASSES))


def _trees_with_restrictions(
    classes: Sequence[Tuple[str, ...]],
    constraints: Sequence[Tuple[FrozenSet[str], Tree]],
    max_level: Optional[int],
    seed: Tree = EMPTY_TREE,
) -> Iterator[Tree]:
    """:func:`trees_with_restrictions` without its checks, each tree grown from
    ``seed`` (see :func:`_frontier_sites`), as a stream that grafts the last
    class one penultimate tree at a time; with no class left, a nonempty
    seed is the one tree, and the empty one fits only empty constraints."""
    if not classes:
        fits = max_level is None or seed.level <= max_level
        if fits and (seed.adj or all(e.is_empty() for _, e in constraints)):
            yield seed
        return
    for t, sites, cls in _frontier_sites(classes, constraints, max_level, seed):
        for s in sites:
            yield t._graft(s, cls)


def _site_signatures(
    classes: Sequence[Tuple[str, ...]],
    constraints: Sequence[Tuple[FrozenSet[str], Tree]],
    max_level: Optional[int],
    seed: Tree = EMPTY_TREE,
) -> Counter:
    """The signatures (leaf count, sorted node valences) of the trees of
    :func:`_trees_with_restrictions`, with multiplicity, read from the last
    level's sites without building those trees (:func:`_tally_grafts`).
    """
    if not classes:
        return Counter(_signature(t) for t in _trees_with_restrictions(classes, constraints, max_level, seed))
    tally: Counter = Counter()
    for t, sites, _ in _frontier_sites(classes, constraints, max_level, seed):
        _tally_grafts(tally, t, sites)
    return tally


def _tally_grafts(tally: Counter, t: Tree, sites: Sequence[Tuple[int, int]]) -> None:
    """Add to ``tally`` the signature of each tree that grafts one class onto
    ``t`` at one of ``sites``, none of them built.

    A graft at node u raises the valence of u by one; a graft on an edge
    adds a node of valence three (a new valence-two vertex, raised by one);
    either adds one leaf, and no other valence changes.  A join adds labels
    only, so it keeps the signature of ``t``.
    """
    leaves, valences = _signature(t)
    grafts = [(u, v) for u, v in sites if u != v or u < 0]
    if len(grafts) < len(sites):
        tally[leaves, valences] += len(sites) - len(grafts)
    if len(t.adj) < 2:
        if grafts:
            tally[leaves + 1, ()] += len(grafts)
        return
    adj = t.adj
    for d, n in Counter(len(adj[u]) if v < 0 else 2 for u, v in grafts).items():
        vals = list(valences)
        if d > 2:
            vals.remove(d)
        insort(vals, d + 1)
        tally[leaves + 1, tuple(vals)] += n


def _restriction_tallies(
    keep: FrozenSet[str],
    classes: Sequence[Tuple[str, ...]],
    constraints: Sequence[Tuple[FrozenSet[str], Tree]],
    max_level: Optional[int],
    seed: Tree = EMPTY_TREE,
) -> Iterator[Tuple[Tree, Counter]]:
    """The restrictions to ``keep`` (which holds the last class) of the trees
    of :func:`_trees_with_restrictions`, each with the signature tally of the
    trees restricting to it, none of them built; a restriction may repeat.
    Restriction commutes with grafting, so each penultimate tree t is
    restricted once and t|keep grafted once per place (:func:`_places`)."""
    if not classes:
        for z in _trees_with_restrictions(classes, constraints, max_level, seed):
            yield z.restrict(keep), Counter((_signature(z),))
        return
    for t, sites, cls in _frontier_sites(classes, constraints, max_level, seed):
        held = sorted(l for ls in t.labels for l in ls if l in keep)
        r = t.restrict(held)
        for place, group in _places(t, r, held, sites).items():
            tally: Counter = Counter()
            _tally_grafts(tally, t, group)
            yield r._graft(place, cls), tally


def _places(
    t: Tree, r: Tree, held: List[str], sites: Sequence[Tuple[int, int]]
) -> Dict[Tuple[int, int], List[Tuple[int, int]]]:
    """The sites of ``t`` grouped by where a new leaf there lands in ``r``,
    the restriction of ``t`` to the sorted labels ``held``: a site of ``r``
    or, for a join, the joined leaf.  One :func:`_clades` pass over ``t``
    places each graft site as :func:`_frontier_sites` does, and one over
    ``r``, whose every vertex has its own clade, names the site there."""
    groups: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    if len(r.adj) < 2:
        for u, v in sites:
            groups.setdefault((0, 0) if u == v >= 0 else (-1, -1), []).append((u, v))
        return groups
    bit = {l: 1 << i for i, l in enumerate(held)}
    parent, up, above = _clades(t, bit, held[0])
    rparent, rup, rabove = _clades(r, bit, held[0])
    at = {}
    for w, p in enumerate(rparent):
        if p >= 0:
            at[rabove[w]] = (min(p, w), max(p, w))
            if len(r.adj[w]) >= 2:
                at[rup[w]] = (w, -1)
    for u, v in sites:
        if u == v:
            w = r.leaf_of(t.labels[v][0])
            place = (w, w)
        else:
            place = at[up[u] if v < 0 else above[v if parent[v] == u else u]]
        groups.setdefault(place, []).append((u, v))
    return groups


def _site_count(
    classes: Sequence[Tuple[str, ...]],
    constraints: Sequence[Tuple[FrozenSet[str], Tree]],
    max_level: Optional[int],
    seed: Tree = EMPTY_TREE,
) -> int:
    """The number of trees of :func:`_trees_with_restrictions`: the last
    level's sites, none of them grafted."""
    if not classes:
        return sum(1 for _ in _trees_with_restrictions(classes, constraints, max_level, seed))
    return sum(len(sites) for _, sites, _ in _frontier_sites(classes, constraints, max_level, seed))


def _frontier_sites(
    classes: Sequence[Tuple[str, ...]],
    constraints: Sequence[Tuple[FrozenSet[str], Tree]],
    max_level: Optional[int],
    seed: Tree = EMPTY_TREE,
) -> Iterator[Tuple[Tree, List[Tuple[int, int]], Tuple[str, ...]]]:
    """The search of :func:`_trees_with_restrictions` up to its last level:
    for each penultimate tree, its admissible sites and the last class.
    Grafting the class at each site gives every tree of the search once.
    ``classes`` must be nonempty.

    It grows ``seed``, which must satisfy every constraint on its own
    labels; a constraint with no label left to insert is never consulted.
    Besides the sites of :meth:`Tree.sites`, a class may join a leaf of the
    seed that carries no label of any constraint the class meets: the site
    ``(v, v)``, read by the place filter as the pendant edge above v, which
    is where the joined labels sit in the restriction to such a constraint.
    A class that fits no leaf of a constraint ends the search before any graft.

    The walk is depth first over a stack of ``(tree, depth)``: a tree above
    the penultimate level gives way to its grafts at its admissible sites, so
    the stack holds only the pending siblings along one path.
    """
    order = sorted((tuple(sorted(c)) for c in classes), key=min)
    inserted = seed.label_set
    seed_leaves = [v for v, ls in enumerate(seed.labels) if ls]  # grafts renumber no vertex
    steps = []
    for cls in order:
        new = frozenset(cls)
        checks = []
        met = []
        for (subset, expected) in constraints:
            seen = subset & new
            if not seen:
                continue
            met.append(subset)
            old = subset & inserted
            leaf = expected.leaf_of(min(seen))
            if {l for l in expected.labels[leaf] if l in old or l in seen} != seen:
                return
            if sum(1 for ls in expected.labels if not old.isdisjoint(ls)) >= 2:
                # only a t|V_old with two leaves or more constrains the site
                bit = {l: 1 << i for i, l in enumerate(sorted(old))}
                _, _, above = _clades(expected, bit, min(old))
                checks.append((bit, min(old), above[leaf]))
        inserted |= new
        steps.append((cls, checks, met))

    def admissible(t: Tree, depth: int) -> List[Tuple[int, int]]:
        _, checks, met = steps[depth]
        labels = t.labels
        sites = t.sites() + [(v, v) for v in seed_leaves if all(s.isdisjoint(labels[v]) for s in met)]
        for bit, root, want in checks:
            parent, up, above = _clades(t, bit, root)
            sites = [
                (u, v) for (u, v) in sites
                if (up[u] if v < 0 else above[v if parent[v] == u else u]) == want
            ]
        if max_level is not None and len(t.adj) >= 2:
            # a join (v, v) reads as 3 here: as the bound is at least 3, it
            # passes exactly when the unchanged level does
            adj, level = t.adj, t.level
            sites = [
                (u, v) for (u, v) in sites
                if max(level, 3 if v >= 0 else len(adj[u]) + 1) <= max_level
            ]
        return sites

    last = len(order) - 1
    stack = [(seed, 0)]
    while stack:
        t, depth = stack.pop()
        if depth == last:
            yield t, admissible(t, last), order[last]
        else:  # pushed in reverse, so the trees come in the order of their sites
            stack.extend((t._graft(s, order[depth]), depth + 1) for s in reversed(admissible(t, depth)))


def _clade_masks(
    tree: Tree, bit: Dict[str, int], root: str
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """``tree`` rooted at the leaf of the label ``root``, found by
    :meth:`Tree.leaf_of` as every clade pass finds its root: per vertex its
    parent, the vertices in breadth-first order, and per vertex its clade
    (the bits of the labels below it, the root leaf's own excluded) and its
    number of children with a non-empty clade."""
    labels, n = tree.labels, len(tree.adj)
    parent, order = _breadth_first(tree.adj, tree.leaf_of(root))
    mask = [0] * n
    kids = [0] * n
    for v in reversed(order[1:]):
        m = mask[v]
        for l in labels[v]:
            m |= bit.get(l, 0)
        if m:
            mask[v] = m
            mask[parent[v]] |= m
            kids[parent[v]] += 1
    return parent, order, mask, kids


def _clades(
    tree: Tree, bit: Dict[str, int], root: str
) -> Tuple[List[int], List[int], List[int]]:
    """One pass over ``tree`` rooted at the leaf of the label ``root`` (see
    :func:`_clade_masks`), placing its sites in ``tree|V_old``.

    ``bit`` gives each label of ``V_old`` its own bit; other labels are
    ignored.  A place is encoded ``2*C + 1`` for "the node with clade C" and
    ``2*C`` for "the edge above clade C", a clade being the bits of the
    ``V_old`` labels below a vertex.  Returns per vertex its parent, ``up``
    (the place of a new leaf attached to it) and ``above`` (the place of a
    new leaf on the edge above it).  A site below which no ``V_old`` label
    sits maps through its nearest ancestor with a non-empty clade.
    """
    parent, order, mask, kids = _clade_masks(tree, bit, root)
    n = len(order)
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


def _listing(
    classes: Sequence[Tuple[str, ...]],
    constraints: Sequence[Tuple[FrozenSet[str], Tree]],
    max_level: Optional[int],
    seed: Tree = EMPTY_TREE,
) -> Iterator[Tree]:
    """The trees of :func:`_trees_with_restrictions`, for a caller holding them all:
    counted at the last level's sites first, and refused past LISTING_CAP
    (:func:`_check_listing`)."""
    if classes:
        for n in accumulate(len(s) for _, s, _ in _frontier_sites(classes, constraints, max_level, seed)):
            _check_listing(n)
    return _trees_with_restrictions(classes, constraints, max_level, seed)


def _check_listing(size: int) -> None:
    """Refuse a listing of ``size`` trees past LISTING_CAP."""
    if size > LISTING_CAP:
        raise AmalgamError("enumeration listing exceeded %d trees" % LISTING_CAP)


def _tree_count(n: int, max_level: Optional[int] = None) -> int:
    """The number of trees with ``n`` leaves, one label each, whose every node
    has valence at most ``max_level``: Schroeder's fourth problem (OEIS
    A000311) when unbounded.

    Rooted at one leaf, such a tree is that leaf over a rooted tree on the
    other n - 1 labels whose nodes have 2 to max_level - 1 children.  A set
    of k rooted trees on m labels is the tree holding the least label, on j
    of them, and a set of k - 1 trees on the rest.
    """
    if n < 2:
        return 1
    top = n - 1 if max_level is None else min(max_level, n) - 1
    rooted = [0]
    # forests[k][m]: the sets of k rooted trees on m labels
    forests = [[1] + [0] * (n - 1)] + [[0] * n for _ in range(top)]
    for m in range(1, n):
        for k in range(2, top + 1):
            forests[k][m] = sum(comb(m - 1, j - 1) * rooted[j] * forests[k - 1][m - j] for j in range(1, m))
        rooted.append(1 if m == 1 else sum(f[m] for f in forests[2:]))
        forests[1][m] = rooted[m]
    return rooted[n - 1]


def _enumeration_classes(labels: Iterable[str], max_level: Optional[int]) -> Tuple[Tuple[str], ...]:
    """One class per label, in order, after the checks of an enumeration:
    well-formed labels used once, and the bounds of every search
    (:func:`_check_classes`)."""
    labs = sorted(labels)
    _check_labels(labs)
    classes = tuple((l,) for l in labs)
    _check_classes(classes, max_level)
    return classes


def enumerate_trees(labels: Iterable[str], max_level: Optional[int] = None) -> List[Tree]:
    """All reduced trees with one label per leaf, each label used once.

    Each tree appears once, in sorted key order.
    ``max_level`` keeps only trees whose every node has valence at most that
    bound (valid to apply during construction, since deleting a leaf never
    raises a valence).  The listing is counted by :func:`_tree_count` and
    refused past LISTING_CAP, as from ten labels, before any tree is built.
    """
    classes = _enumeration_classes(labels, max_level)
    _check_listing(_tree_count(len(classes), max_level))
    # the search with no constraint builds each tree once: only the result is keyed
    return sorted(_trees_with_restrictions(classes, (), max_level), key=Tree.canonical_key)


def amalgamation_trees(
    t1: Tree, t2: Tree, max_level: Optional[int] = None
) -> Iterator[Tree]:
    """The whole tree of every amalgamation of t1 and t2, each built once,
    in no promised order and with no canonical key.

    Shared labels form the base and must induce the same tree on both sides.
    Labels sharing a leaf of either tree stay together on one leaf; the free
    choices identify leaves of t1 holding only private labels with such
    leaves of t2.  ``max_level`` restricts to amalgamations whose every node
    valence stays within the bound.
    """
    yield from _trees_with_restrictions(*_amalgamation_classes(t1, t2, max_level))


def _amalgamation_count(t1: Tree, t2: Tree, max_level: Optional[int] = None) -> int:
    """The number of amalgamations of t1 and t2, none of them built."""
    return _site_count(*_amalgamation_classes(t1, t2, max_level))


def _amalgamation_classes(
    t1: Tree, t2: Tree, max_level: Optional[int]
) -> Tuple[List[Tuple[str, ...]], Tuple[Tuple[FrozenSet[str], Tree], ...], Optional[int], Tree]:
    """The arguments of the search for the amalgamations of t1 and t2: the
    classes to insert, the constraints, the level bound and the seed, after
    checking the base (the restrictions of t1 and t2 to the shared labels)
    by :func:`_base_clusters`, and the classes and the level bound once.

    The seed is the side with more free classes (t1 on a tie), each leaf
    carrying its class.  The base check keeps shared labels of different
    leaves apart, so the seed restricts to the other side on the labels it
    carries.  The other side's free classes remain; each is grafted or joins
    a free leaf of the seed (see :func:`_frontier_sites`), so only the other
    side's constraint is active, and a joined leaf carries labels of each
    side and takes no second join.
    """
    i1, i2 = t1.label_set, t2.label_set
    shared = i1 & i2
    if shared:
        bit = {l: 1 << i for i, l in enumerate(shared)}
        least = min(shared)
        if _base_clusters(t1, bit, least) != _base_clusters(t2, bit, least):
            raise AmalgamError("base restrictions disagree on shared labels %s" % sorted(shared))
    classes = _leaf_classes(i1 | i2, (t1, t2))
    constraints = ((i1, t1), (i2, t2))
    _check_classes(classes, max_level)
    free1 = [c for c in classes if (i1 - shared).issuperset(c)]
    free2 = [c for c in classes if (i2 - shared).issuperset(c)]
    if len(free2) > len(free1):
        t1, free2 = t2, free1
    class_of = {l: c for c in classes for l in c}
    seed = Tree(t1.adj, tuple(class_of[ls[0]] if ls else () for ls in t1.labels))
    return free2, constraints, max_level, seed


def _base_clusters(tree: Tree, bit: Dict[str, int], least: str) -> FrozenSet[int]:
    """The restriction of ``tree`` to the labels of ``bit`` up to
    isomorphism, none of it built: the set of nonempty clades of its
    vertices (see :func:`_clade_masks`), rooted, as every clade pass is, at
    the leaf of the label ``least``.

    In the restriction, rooted at that leaf, every other vertex has its own
    nonempty clade, since each internal one has two children or more, and a
    leaf's labels are its clade.  A vertex of ``tree`` that the restriction
    suppresses repeats one of these clades, one it deletes has an empty
    clade, and the root's clade is its neighbor's.  The root leaf carries
    the labels in no clade.  So the clades determine the restriction, as
    the clusters of a leaf-labeled tree do (Semple and Steel,
    *Phylogenetics*, 2003, ch. 3).
    """
    return frozenset(m for m in _clade_masks(tree, bit, least)[2] if m)


def amalgamations(
    t1: Tree, t2: Tree, max_level: Optional[int] = None
) -> List[Amalgamation]:
    """All amalgamations of t1 and t2 up to label-preserving isomorphism,
    sorted by canonical key (see :func:`amalgamation_trees`)."""
    left, right = t1.label_set, t2.label_set
    ams = [Amalgamation._of(whole, left, right) for whole in _listing(*_amalgamation_classes(t1, t2, max_level))]
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
        (TripleAmalgamation(z, (b1, b2, b3)), Amalgamation._of(z.restrict(b1 | b3), b1, b3))
        for z in _listing(*_amalgamation_classes(x.whole, y.whole, max_level))
    ]
    return sorted(out, key=lambda pair: pair[0].key)
