"""Seeded input generation in the tree grammar, independent of arboreal.

Everything here is plain Python over adjacency dictionaries: random reduced
trees, their restriction to a label subset written straight out as text, and
the closed-form measure from leaf count and node valences.  The benchmark
uses these as inputs and as an oracle, so none of it may call the package it
measures.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple


class Shape:
    """An unrooted tree with one label on each leaf."""

    def __init__(self, adj: Dict[int, List[int]], labels: Dict[int, str]):
        self.adj = adj
        self.labels = labels

    def _root(self) -> int:
        for v, ns in self.adj.items():
            if len(ns) >= 2:
                return v
        return next(iter(self.adj))

    def text(self, keep: Iterable[str] = None) -> str:
        """The restriction to ``keep`` (default: all labels) in the grammar.

        Subtrees without kept labels are dropped and one-child groups are
        written as their child, so the text parses to the reduced
        restriction.
        """
        keep = set(self.labels.values()) if keep is None else set(keep)
        root = self._root()
        if root in self.labels:  # one or two leaves, no internal vertex
            kept = sorted(l for l in self.labels.values() if l in keep)
            if len(kept) <= 1:
                return kept[0] if kept else "()"
            return "(%s)" % ",".join(kept)
        # iterative post-order, so deep caterpillars do not hit the recursion limit
        out: Dict[int, str] = {}
        stack = [(root, None, False)]
        while stack:
            v, parent, done = stack.pop()
            kids = [w for w in self.adj[v] if w != parent]
            if not done:
                stack.append((v, parent, True))
                stack.extend((w, v, False) for w in kids)
                continue
            if v in self.labels:
                out[v] = self.labels[v] if self.labels[v] in keep else ""
                continue
            parts = [out.pop(w) for w in kids]
            parts = [p for p in parts if p]
            out[v] = parts[0] if len(parts) == 1 else ("(%s)" % ",".join(parts) if parts else "")
        return out[root] or "()"

    def valences(self, keep: Iterable[str] = None) -> Tuple[int, List[int]]:
        """Leaf count and node valences of the restriction to ``keep``.

        A node of the restriction is a vertex with kept labels in at least
        three of its directions; its valence is that number of directions.
        """
        keep = set(self.labels.values()) if keep is None else set(keep)
        total = sum(1 for l in self.labels.values() if l in keep)
        root = self._root()
        if root in self.labels:
            return total, []
        below: Dict[int, int] = {}
        order: List[Tuple[int, int]] = []
        stack = [(root, -1)]
        while stack:
            v, parent = stack.pop()
            order.append((v, parent))
            stack.extend((w, v) for w in self.adj[v] if w != parent)
        vals = []
        for v, parent in reversed(order):
            if v in self.labels:
                below[v] = 1 if self.labels[v] in keep else 0
                continue
            kids = [below[w] for w in self.adj[v] if w != parent]
            below[v] = sum(kids)
            directions = sum(1 for k in kids if k) + (1 if total - below[v] else 0)
            if directions >= 3:
                vals.append(directions)
        return total, sorted(vals)


def random_shape(rng: random.Random, labels: Sequence[str], max_valence: int) -> Shape:
    """A random reduced tree on the labels with node valences 3..max_valence.

    Starts from a star and repeatedly replaces a random leaf by a node of
    random valence until the leaf count is reached; labels are then shuffled
    onto the leaves.
    """
    n = len(labels)
    adj: Dict[int, List[int]] = {0: []}
    if n == 1:
        return Shape(adj, {0: labels[0]})
    if n == 2:
        adj = {0: [1], 1: [0]}
        return Shape(adj, {0: labels[0], 1: labels[1]})
    leaves: List[int] = []

    def grow(parent: int, count: int) -> None:
        for _ in range(count):
            w = len(adj)
            adj[w] = [parent]
            adj[parent].append(w)
            leaves.append(w)

    grow(0, rng.randint(3, min(max_valence, n)))
    while len(leaves) < n:
        v = rng.randint(3, min(max_valence, n - len(leaves) + 2))
        grow(leaves.pop(rng.randrange(len(leaves))), v - 1)
    names = list(labels)
    rng.shuffle(names)
    return Shape(adj, dict(zip(leaves, names)))


def caterpillar(labels: Sequence[str]) -> Shape:
    """The path of valence-three nodes with one label hanging off each."""
    n = len(labels)
    adj: Dict[int, List[int]] = {}
    spine = list(range(n - 2))
    for v in spine:
        adj[v] = []
    for a, b in zip(spine, spine[1:]):
        adj[a].append(b)
        adj[b].append(a)
    names: Dict[int, str] = {}
    attach = [spine[0]] + spine + [spine[-1]]
    for label, v in zip(labels, attach):
        w = len(adj)
        adj[w] = [v]
        adj[v].append(w)
        names[w] = label
    return Shape(adj, names)


def closed_form_measure(leaves: int, valences: Sequence[int], t: Fraction) -> Fraction:
    """(-1)^nodes * t * prod over nodes of (t-2)...(t-v+1) / (t-1)^leaves."""
    if leaves == 0:
        return Fraction(1)
    value = Fraction(-1 if len(valences) % 2 else 1) * t
    for v in valences:
        for k in range(2, v):
            value *= t - k
    return value / (t - 1) ** leaves
