"""Reduced leaf-labeled trees.

A tree here is a finite unrooted tree with no internal vertex of valence two,
whose leaves carry nonempty, pairwise disjoint sets of string labels.  These
are the universal combinatorial objects of the package: plain trees,
amalgamations (where a leaf may carry one label from each side), and the
block-tagged diagrams used by the morphism layer.

Text grammar (also the canonical serialization):

    tree      := label_set | '(' tree (',' tree)+ ')'
    label_set := label ('/' label)*

with labels over ``[A-Za-z0-9_:.]``, whitespace ignored, and ``()`` denoting
the empty tree.  ``canonical_key`` returns a string in this grammar that is
equal for two trees exactly when they are isomorphic by a label-preserving
isomorphism, so keys double as cheap value identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby
from math import factorial
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

LABEL_RE = re.compile(r"[A-Za-z0-9_:.]+\Z")
_LABEL_SET_RE = re.compile(r"[A-Za-z0-9_:.]+(?:/[A-Za-z0-9_:.]+)*")

class TreeError(ValueError):
    """Malformed tree input: bad labels, bad nesting, or broken invariants."""


class Tree:
    """An immutable reduced leaf-labeled tree.

    Vertices are 0..n-1; ``adj[v]`` lists neighbors, ``labels[v]`` the sorted
    label tuple of v (empty for internal vertices).  A tree holds these two
    and its canonical key once asked for, which equality and hashing reuse;
    everything else, the leaf of a label and the shape key included, is
    computed on each call.  Two trees compare equal exactly when they are
    isomorphic by a label-preserving isomorphism: equality reads identical
    graph data (a restriction made twice, say) as the identity, and compares
    canonical keys otherwise; hashing uses keys.
    """

    __slots__ = ("adj", "labels", "_key")

    def __init__(self, adj: Tuple[Tuple[int, ...], ...], labels: Tuple[Tuple[str, ...], ...]):
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):
        raise AttributeError("Tree is immutable")

    # -- basic queries ------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.adj

    def is_leaf(self, v: int) -> bool:
        return len(self.adj[v]) <= 1

    def leaves(self) -> List[int]:
        return [v for v in range(len(self.adj)) if len(self.adj[v]) <= 1]

    def nodes(self) -> List[int]:
        return [v for v in range(len(self.adj)) if len(self.adj[v]) >= 2]

    @property
    def leaf_count(self) -> int:
        return len(self.leaves())

    @property
    def node_count(self) -> int:
        return len(self.nodes())

    @property
    def level(self) -> int:
        vals = [len(self.adj[v]) for v in self.nodes()]
        return max(vals) if vals else 0

    @property
    def label_set(self) -> FrozenSet[str]:
        return frozenset(l for ls in self.labels for l in ls)

    def leaf_of(self, label: str) -> int:
        for v, ls in enumerate(self.labels):
            if label in ls:
                return v
        raise TreeError("unknown label %r" % (label,))

    def labels_of(self, v: int) -> Tuple[str, ...]:
        return self.labels[v]

    # -- identity -----------------------------------------------------------

    def canonical_key(self) -> str:
        if self._key is None:
            # lists of parts compare as their serials do, since every label
            # character and "/" sort above "," and ")"
            object.__setattr__(self, "_key", self._min_serial("/".join, None))
        return self._key

    def shape_key(self) -> str:
        # "*" sorts below ",", so shape serials are compared as strings
        return self._min_serial(lambda ls: "*" * len(ls), _serial)

    def _min_serial(self, leaf: Callable[[Sequence[str]], str], key: Optional[Callable]) -> str:
        """The serialization of the tree rooted at an internal vertex whose
        parts are least by ``key`` (in list order for None)."""
        n = len(self.adj)
        if n == 0:
            return "()"
        if n == 1:
            return leaf(self.labels[0])
        if n == 2:
            return _serial(sorted(leaf(ls) for ls in self.labels))
        return _serial(min(self._rerooted(leaf)[1], key=key))

    def _rerooted(self, leaf: Callable[[Sequence[str]], str]) -> Tuple[List[List[str]], Iterator[List[str]]]:
        """Root the tree at its first internal vertex; return the sorted child
        serials of every vertex and an iterator over the sorted parts of the
        tree rerooted at each internal vertex, root first (Aho, Hopcroft and
        Ullman, 1974, §3.2).  A serial is ``leaf(labels)`` or the sorted child
        serials in parentheses.  Needs at least three vertices."""
        adj = self.adj
        root = next(v for v in range(len(adj)) if len(adj[v]) > 1)
        parent, order = _breadth_first(adj, root)
        down = [""] * len(adj)  # the serial away from the parent, children first
        kids: List[List[str]] = [[] for _ in adj]
        for v in reversed(order):
            if len(adj[v]) == 1:
                down[v] = leaf(self.labels[v])
            else:
                kids[v] = sorted(down[w] for w in adj[v] if w != parent[v])
                down[v] = "(%s)" % ",".join(kids[v])

        def rooted_parts() -> Iterator[List[str]]:
            up = {}  # the serial of the parent's side, parents first
            for v in order:
                if len(adj[v]) > 1:
                    parts = sorted(kids[v] + [up.pop(v)]) if v != root else kids[v]
                    yield parts
                    for w in adj[v]:
                        if w != parent[v] and len(adj[w]) > 1:
                            rest = parts[:]
                            rest.remove(down[w])
                            up[w] = "(%s)" % ",".join(rest)

        return kids, rooted_parts()

    def __eq__(self, other) -> bool:
        return isinstance(other, Tree) and (
            (self.adj == other.adj and self.labels == other.labels)
            or self.canonical_key() == other.canonical_key()
        )

    def __hash__(self) -> int:
        # a key is never empty, and a str caches its own hash
        return hash(self._key or self.canonical_key())

    def __repr__(self) -> str:
        return "Tree(%r)" % (self.canonical_key(),)

    def __str__(self) -> str:
        return self.canonical_key()

    # -- structural operations ----------------------------------------------

    def restrict(self, keep: Iterable[str]) -> "Tree":
        """The reduction of the minimal subtree spanning the kept labels.

        Labels outside ``keep`` are dropped; a leaf that loses all its labels
        is deleted.  Restricting to all labels is the identity, restricting
        to nothing gives the empty tree.  One scan marks the kept leaves and
        counts the kept labels, which finds unknown labels and the identity;
        the pass that reduces for :func:`build_tree` does the rest.
        """
        keep = frozenset(keep)
        kept: Dict[int, Tuple[str, ...]] = {}
        found = total = 0
        for v, ls in enumerate(self.labels):
            total += len(ls)
            if ls and not keep.isdisjoint(ls):
                kept[v] = mine = ls if keep.issuperset(ls) else tuple(l for l in ls if l in keep)
                found += len(mine)
        if found < len(keep):
            raise TreeError("unknown labels %s" % sorted(keep.difference(*self.labels)))
        if found == total:
            return self
        return _spanning_reduction(self.adj, kept)

    def drop_leaf(self, label: str) -> "Tree":
        """Delete the leaf carrying ``label`` (with all its labels)."""
        v = self.leaf_of(label)
        doomed = set(self.labels[v])
        return self.restrict(self.label_set - doomed)

    def relabel(self, mapping: Dict[str, str]) -> "Tree":
        """Apply a label substitution; labels absent from the map are kept.

        Two names of one leaf may map to the same new name (they collapse);
        a collision across leaves raises :class:`TreeError`.
        """
        return self._with_labels({mapping.get(l, l) for l in ls} for ls in self.labels)

    def merge_labels(self, extra: Dict[str, Iterable[str]]) -> "Tree":
        """Add labels to leaves: ``extra`` maps an existing label to new ones."""
        added: Dict[int, List[str]] = {}
        for anchor, new in extra.items():
            added.setdefault(self.leaf_of(anchor), []).extend(new)
        return self._with_labels(ls + tuple(added.get(v, ())) for v, ls in enumerate(self.labels))

    def _with_labels(self, labels: Iterable[Iterable[str]]) -> "Tree":
        """The same graph with new labels per vertex; a leaf keeps at least
        one label, so only the labels themselves need checking."""
        labels = [tuple(ls) for ls in labels]
        _check_labels(l for ls in labels for l in ls)
        return Tree(self.adj, tuple(tuple(sorted(ls)) for ls in labels))

    def path_edges(self, a: int, b: int) -> FrozenSet[FrozenSet[int]]:
        """Edges on the unique path between vertices a and b."""
        parent, _ = _breadth_first(self.adj, a)
        edges = set()
        while b != a:
            edges.add(frozenset((b, parent[b])))
            b = parent[b]
        return frozenset(edges)

    def quaternary(self, x1: str, x2: str, y1: str, y2: str) -> bool:
        """Whether the x1-x2 and y1-y2 leaf paths share an edge.

        False unless the four labels sit on four distinct leaves.
        """
        vs = [self.leaf_of(l) for l in (x1, x2, y1, y2)]
        if len(set(vs)) != 4:
            return False
        p = self.path_edges(vs[0], vs[1])
        q = self.path_edges(vs[2], vs[3])
        return bool(p & q)

    # -- leaf insertion (the enumeration move) --------------------------------

    def insertions(self, new_labels: Sequence[str]) -> Iterator["Tree"]:
        """All reduced trees obtained by adding one new leaf.

        The new leaf can attach to any internal vertex or subdivide any edge
        (see :meth:`sites`).  Every tree with this leaf arises exactly once up
        to isomorphism from its deletion, which is what makes incremental
        enumeration complete.
        """
        new_labels = tuple(sorted(new_labels))
        if not new_labels:
            raise TreeError("unlabeled leaf vertex")
        _check_labels(new_labels, self.label_set)
        for site in self.sites():
            yield self._graft(site, new_labels)

    def sites(self) -> List[Tuple[int, int]]:
        """The places where one new leaf can go, in a fixed order.

        ``(v, -1)`` attaches to the internal vertex v, ``(u, v)`` with u < v
        subdivides that edge; a tree with fewer than two vertices has the one
        site ``(-1, -1)``.
        """
        adj = self.adj
        n = len(adj)
        if n < 2:
            return [(-1, -1)]
        return [(v, -1) for v in range(n) if len(adj[v]) >= 2] + [
            (u, v) for u in range(n) for v in adj[u] if u < v
        ]

    def _graft(self, site: Tuple[int, int], new_labels: Tuple[str, ...]) -> "Tree":
        """The tree with a new leaf carrying ``new_labels`` (sorted, unused
        labels) at ``site``, one of :meth:`sites`, or with them added to the
        leaf v at the join site ``(v, v)``.

        Trusted: nothing is validated.  The new vertices are numbered after
        the old ones, so the result equals what :func:`build_tree` makes of
        the same graph data.
        """
        adj = self.adj
        n = len(adj)
        u, v = site
        if u == v >= 0:
            labels = list(self.labels)
            labels[v] = tuple(sorted(labels[v] + new_labels))
            return Tree(adj, tuple(labels))
        if n == 0:
            return Tree(((),), (new_labels,))
        if n == 1:
            return Tree(((1,), (0,)), (self.labels[0], new_labels))
        out = list(adj)
        if v < 0:
            out[u] = adj[u] + (n,)
            out.append((u,))
            return Tree(tuple(out), self.labels + (new_labels,))
        out[u] = tuple(w for w in adj[u] if w != v) + (n,)
        out[v] = tuple(w for w in adj[v] if w != u) + (n,)
        out.append((u, v, n + 1))
        out.append((n,))
        return Tree(tuple(out), self.labels + ((), new_labels))

    # -- statistics ------------------------------------------------------------

    def stats(self) -> "TreeStats":
        leaves, vals = _signature(self)
        return TreeStats(leaves, len(vals), vals[-1] if vals else 0, vals)

    def aut_order(self) -> int:
        """Order of the label-forgetting automorphism group of the graph: by
        orbit–stabilizer, the number of internal vertices with the unlabeled
        serial of the root, times m! for each m isomorphic child subtrees."""
        n = len(self.adj)
        if n <= 2:
            return max(n, 1)
        kids, rootings = self._rerooted(lambda ls: "*")
        root = next(rootings)
        order = 1 + sum(1 for parts in rootings if parts == root)
        for ks in kids:
            for _, group in groupby(ks):
                order *= factorial(sum(1 for _ in group))
        return order


@dataclass(frozen=True)
class TreeStats:
    """Leaf count, node count, level, and the multiset of node valences."""

    leaf_count: int
    node_count: int
    level: int
    valences: Tuple[int, ...]


EMPTY_TREE = Tree((), ())


def _serial(parts: Sequence[str]) -> str:
    return "(%s)" % ",".join(parts)


def _breadth_first(adj: Sequence[Sequence[int]], root: int) -> Tuple[List[int], List[int]]:
    """The parent of every vertex (-1 for the root) and the vertices in
    breadth-first order from the root."""
    parent = [-1] * len(adj)
    order = [root]
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    return parent, order


def _signature(tree: Tree) -> Tuple[int, Tuple[int, ...]]:
    """The leaf count and the sorted node valences, in one pass over the
    vertices: all that the measure of a tree depends on."""
    vals = sorted(len(nbrs) for nbrs in tree.adj if len(nbrs) >= 2)
    return len(tree.adj) - len(vals), tuple(vals)


def build_tree(
    vertices: Iterable[int],
    edges: Iterable[Tuple[int, int]],
    labels: Dict[int, Iterable[str]],
) -> Tree:
    """Validate, reduce, and intern a tree given by explicit graph data.

    Valence-two unlabeled vertices are suppressed; a labeled vertex that ends
    up internal, a disconnected or cyclic graph, a repeated or malformed
    label, and an unlabeled leaf all raise :class:`TreeError`.
    """
    verts = sorted(set(vertices))
    adj: Dict[int, set] = {v: set() for v in verts}
    for (u, v) in edges:
        if u == v or u not in adj or v not in adj:
            raise TreeError("bad edge (%r, %r)" % (u, v))
        adj[u].add(v)
        adj[v].add(u)
    n = len(verts)
    if n and sum(len(s) for s in adj.values()) != 2 * (n - 1):
        raise TreeError("vertex/edge counts do not form a tree")
    if n:
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            raise TreeError("graph is not connected")
    lab: Dict[int, Tuple[str, ...]] = {}
    for v, ls in labels.items():
        ls = tuple(ls)
        if v not in adj:
            raise TreeError("label on unknown vertex %r" % (v,))
        if ls:
            lab[v] = ls
    _check_labels(l for ls in lab.values() for l in ls)
    for v in adj:
        if len(adj[v]) <= 1:
            if v not in lab:
                raise TreeError("unlabeled leaf vertex")
        elif v in lab:
            raise TreeError("labels on internal vertex")
    index = {v: i for i, v in enumerate(verts)}
    renumbered = [[index[w] for w in adj[v]] for v in verts]
    return _spanning_reduction(renumbered, {index[v]: tuple(sorted(ls)) for v, ls in lab.items()})


def _check_labels(labels: Iterable[str], taken: Iterable[str] = ()) -> None:
    """Raise :class:`TreeError` for a malformed label or one used twice
    (among ``labels`` or with ``taken``)."""
    seen = set(taken)
    for l in labels:
        if not isinstance(l, str) or not LABEL_RE.match(l):
            raise TreeError("malformed label %r" % (l,))
        if l in seen:
            raise TreeError("duplicate label %r" % (l,))
        seen.add(l)


def _spanning_reduction(adj: Sequence[Sequence[int]], labels: Dict[int, Tuple[str, ...]]) -> Tree:
    """The trusted constructor: the reduction of the subtree of ``adj``
    spanning the leaves that key ``labels``, each with its sorted label
    tuple.  Nothing is checked.

    One breadth-first pass from a kept leaf counts, from the leaves up, the
    children of each vertex with a kept leaf below, a kept leaf counting
    two.  A vertex stays when its count is at least two: a kept leaf, or a
    node of valence three or more in the spanning subtree.  Each links to
    its nearest staying ancestor.  The staying vertices are numbered in
    increasing old index with sorted neighbour tuples, so the result does
    not depend on the leaf the pass starts from.
    """
    if not labels:
        return EMPTY_TREE
    root = next(iter(labels))
    parent, order = _breadth_first(adj, root)
    alive = [0] * len(adj)
    for v in labels:
        alive[v] = 2
    for v in order[:0:-1]:
        if alive[v]:
            alive[parent[v]] += 1
    near = [root] * len(adj)  # the nearest staying vertex at or above
    for v in order[1:]:
        near[v] = v if alive[v] >= 2 else near[parent[v]]
    stay = sorted(set(near))
    index = {v: i for i, v in enumerate(stay)}
    nbrs: List[List[int]] = [[] for _ in stay]
    for i, v in enumerate(stay):
        if v != root:
            j = index[near[parent[v]]]
            nbrs[i].append(j)
            nbrs[j].append(i)
    return Tree(tuple(tuple(sorted(ns)) for ns in nbrs), tuple(labels.get(v, ()) for v in stay))


# -- parsing ---------------------------------------------------------------


def parse_tree(text: str) -> Tree:
    """Parse the tree grammar; see the module docstring.

    The scan numbers the vertices in pre-order and lists each vertex's
    parent, then its children, so every neighbour list comes out sorted.
    Every group has at least two parts, so only a root of exactly two parts
    has valence two; it is suppressed by joining its parts.  The grammar
    admits only well-formed labels on leaves, so only repeats are checked.
    """
    s = "".join(text.split())
    if s == "()":
        return EMPTY_TREE
    pos = 0
    adj: List[List[int]] = []
    labels: List[Tuple[str, ...]] = []
    names: List[str] = []  # the labels in text order
    groups: List[List[int]] = []  # the open groups: [vertex, parts so far]
    while True:
        v = len(adj)
        if groups:
            group = groups[-1]
            group[1] += 1
            adj[group[0]].append(v)
            adj.append([group[0]])
        else:
            adj.append([])
        if s.startswith("(", pos):
            groups.append([v, 0])
            labels.append(())
            pos += 1
            continue
        m = _LABEL_SET_RE.match(s, pos)
        if not m:
            raise TreeError("expected a label at position %d in %r" % (pos, text))
        leaf = m.group(0).split("/")
        names += leaf
        labels.append(tuple(sorted(leaf)))
        pos = m.end()
        while groups and not s.startswith(",", pos):
            if not s.startswith(")", pos):
                raise TreeError("expected ')' at position %d in %r" % (pos, text))
            pos += 1
            if groups.pop()[1] < 2:
                raise TreeError("parenthesized group needs at least two parts")
        if not groups:
            break
        pos += 1  # the comma before the next part
    if pos != len(s):
        raise TreeError("trailing input at position %d in %r" % (pos, text))
    if len(set(names)) < len(names):
        _check_labels(names)  # names the first repeated label
    if len(adj[0]) == 2:
        a, b = adj[0]  # a's subtree comes before b in pre-order
        adj[a] = adj[a][1:] + [b]
        adj[b][0] = a
        adj = [[w - 1 for w in nbrs] for nbrs in adj[1:]]
        labels = labels[1:]
    return Tree(tuple(map(tuple, adj)), tuple(labels))


# -- module-level operation wrappers ----------------------------------------


def canonical_key(tree: Tree) -> str:
    return tree.canonical_key()


def shape_key(tree: Tree) -> str:
    return tree.shape_key()


def restrict(tree: Tree, subset: Iterable[str]) -> Tree:
    return tree.restrict(subset)


def quaternary(tree: Tree, x1: str, x2: str, y1: str, y2: str) -> bool:
    return tree.quaternary(x1, x2, y1, y2)


def stats(tree: Tree) -> TreeStats:
    return tree.stats()


def aut_order(tree: Tree) -> int:
    return tree.aut_order()
