"""The four workloads: seeded inputs, one op per request, exact checks.

Each workload draws its inputs in rounds.  A round has a fixed composition
(the same strata, leaf counts or op mix for every seed) with seeded random
draws inside it, so two seeds do the same amount of work in different
trees.  Rounds are generated from ``random.Random("<name>:<seed>:<round>")``
during set-up as plain data: tree-grammar text, basis keys, coefficient
text.  ``run`` sends one op to arboreal's public API and is what the
benchmark times; ``check`` compares the result with the exact expectation
and is not timed.

Parameters (strata, shares, leaf counts, coefficients) are read from
``workloads.json`` next to this file, which also records why each workload
exists and which per-layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import json
import os
import random
import re
from fractions import Fraction
from itertools import product
from typing import Dict, List

from inputs import caterpillar, closed_form_measure, random_shape

LABEL = re.compile(r"[A-Za-z0-9_:.]+")  # a label of the tree grammar
RECORD_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.json")


def load_record() -> Dict[str, object]:
    with open(RECORD_PATH) as fh:
        return json.load(fh)


class Workload:
    """A named population of ops; subclasses define rounds, run and check."""

    name = ""

    def __init__(self, params: Dict[str, object], seed: int):
        self.params = params
        self.seed = seed
        self.api = None

    def fixture(self, api) -> None:
        """Set-up that needs the program (bases, warm structure constants)."""
        self.api = api

    def rounds(self, count: int) -> List[List[tuple]]:
        return [self.round(random.Random("%s:%d:%d" % (self.name, self.seed, r)), r)
                for r in range(count)]

    def round(self, rng: random.Random, index: int) -> List[tuple]:
        raise NotImplementedError

    def run(self, op: tuple):
        raise NotImplementedError

    def check(self, op: tuple, result) -> bool:
        return result is True


# -- sweep: the two exhaustive reference sweeps, drawn by stratum -------------


class Sweep(Workload):
    """Two-sided diagrams checked by the product equation, and label pairs
    checked by the two separation implementations."""

    name = "sweep"

    def round(self, rng, index):
        ops = []
        max_labels = self.params["max_labels"]
        for total in range(max_labels + 1):
            for a in range(total + 1):
                for b in range(total - a + 1):
                    c = total - a - b
                    if a > c:
                        continue
                    ops.append(self._diagram(rng, a, b, c))
        for n in range(2, self.params["max_leaves"] + 1):
            labels = [chr(ord("a") + i) for i in range(n)]
            for _ in range(self.params["pairs_per_size"]):
                shape = random_shape(rng, labels, n)
                x, y = sorted(rng.sample(labels, 2))
                ops.append(("pair", shape.text(), x, y))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _diagram(rng, a, b, c):
        labels = (["a%d" % i for i in range(a)] + ["b%d" % i for i in range(b)]
                  + ["c%d" % i for i in range(c)])
        if not labels:
            return ("diagram", "()", "()")
        whole = random_shape(rng, labels, len(labels))
        left = [l for l in labels if l[0] in "ab"]
        right = [l for l in labels if l[0] in "bc"]
        return ("diagram", whole.text(left), whole.text(right))

    def run(self, op):
        api = self.api
        if op[0] == "diagram":
            residual = api.verify_amalgamation_equation(api.parse_tree(op[1]), api.parse_tree(op[2]))
            return residual.is_zero()
        tree = api.parse_tree(op[1])
        return api.separated(tree, op[2], op[3]) == api.separated_bruteforce(tree, op[2], op[3])


# -- compose: cold structure constants along chains of small objects ----------


class Compose(Workload):
    """Sparse morphisms among p, (p,q), (p,q,r), checked by associativity or
    by transpose being an anti-automorphism."""

    name = "compose"

    def fixture(self, api):
        super().fixture(api)
        self.objects = [api.parse_tree(s) for s in self.params["objects"]]
        n = len(self.objects)
        self.bases = {
            (i, j): [am.key for am in api.hom_basis(self.objects[i], self.objects[j])]
            for i in range(n) for j in range(n)
        }
        sizes = [len(s.label_set) for s in self.objects]
        big = self.params["max_outer_leaves"]

        def allowed(outer_pairs):
            return all(sizes[x] + sizes[y] <= big for x, y in outer_pairs)

        # compose(g, f) along A -> B -> C enumerates trees on A, B and C with
        # free matchings between A and C; bound those two ends together.
        self.chains = {
            "transpose": [c for c in product(range(n), repeat=3) if allowed([(c[0], c[2])])],
            "assoc": [c for c in product(range(n), repeat=4)
                      if allowed([(c[0], c[2]), (c[0], c[3]), (c[1], c[3])])],
        }

    def _element(self, rng, i, j, suffix):
        def rename(text):
            return LABEL.sub(lambda m: m.group(0) + suffix, text)

        basis = self.bases[(i, j)]
        picks = rng.sample(range(len(basis)), self.params["terms"])
        return (rename(self.params["objects"][i]), rename(self.params["objects"][j]),
                tuple((rename(basis[k]), rng.choice(self.params["coefficients"])) for k in picks))

    def round(self, rng, index):
        # Every round renames all labels, so the structure-constant and measure
        # caches help only within a round and each round does the same cold work.
        suffix = "_%d" % index
        ops = [(kind,) + tuple(self._element(rng, x, y, suffix) for x, y in zip(chain, chain[1:]))
               for kind, chains in self.chains.items() for chain in chains]
        rng.shuffle(ops)
        return ops

    def _hom(self, spec):
        api = self.api
        source, target, terms = api.parse_tree(spec[0]), api.parse_tree(spec[1]), spec[2]
        left = frozenset("s:" + l for l in source.label_set)
        right = frozenset("t:" + l for l in target.label_set)
        return api.HomElement.make(source, target, {
            api.Amalgamation(api.parse_tree(key), left, right): api.parse_ratfun(c)
            for key, c in terms
        })

    def run(self, op):
        api = self.api
        homs = [self._hom(spec) for spec in op[1:]]
        if op[0] == "transpose":
            f, g = homs
            left = api.transpose(api.compose(g, f))
            right = api.compose(api.transpose(f), api.transpose(g))
        else:
            f, g, h = homs
            left = api.compose(h, api.compose(g, f))
            right = api.compose(api.compose(h, g), f)
        return left.terms == right.terms


# -- edge: the ten-dimensional edge algebra with warm structure constants ------


class Edge(Workload):
    """Associativity and trace symmetry on random sparse elements, plus a
    fixed share of minimal polynomials of one-term elements."""

    name = "edge"

    def fixture(self, api):
        super().fixture(api)
        from arboreal.edge_algebra import A_BASIS_KEYS, edge_algebra

        self.alg = edge_algebra().algebra
        for i in range(self.alg.dim):
            for j in range(self.alg.dim):
                self.alg.product_row(i, j)
        self.named = {n: self.alg.index[api.parse_tree(k).canonical_key()]
                      for n, k in A_BASIS_KEYS.items()}

    def round(self, rng, index):
        p = self.params
        ops = []
        for _ in range(p["assoc_per_round"]):
            terms = [[[name, rng.choice(p["rational_coefficients"])]
                      for name in rng.sample(range(1, 11), p["terms"])]
                     for _ in range(3)]
            # exactly one rational-function coefficient per op keeps op costs alike
            element = rng.choice(terms)
            rng.choice(element)[1] = rng.choice(p["ratfun_coefficients"])
            ops.append(("assoc",) + tuple(tuple(map(tuple, t)) for t in terms))
        for group in p["minpoly_groups"]:
            ops.append(("minpoly", ((rng.choice(group), rng.choice(p["minpoly_coefficients"])),)))
        rng.shuffle(ops)
        return ops

    def _element(self, terms):
        return self.alg.element({self.named[n]: self.api.parse_ratfun(c) for n, c in terms})

    def run(self, op):
        alg = self.alg
        if op[0] == "assoc":
            a, b, c = (self._element(t) for t in op[1:])
            ab = alg.multiply(a, b)
            return (alg.multiply(ab, c).vec == alg.multiply(a, alg.multiply(b, c)).vec
                    and alg.utr(ab) == alg.utr(alg.multiply(b, a)))
        e = self._element(op[1])
        poly = alg.minimal_polynomial(e)
        # sum of coeff_k * e^k must vanish
        total = alg.element({})
        power = alg.identity()
        for coeff in poly:
            total = total + power.scale(coeff)
            power = alg.multiply(power, e)
        return total.is_zero()


# -- bigtree: few large trees, every op a measure-cache miss -------------------


POINTS = (Fraction(7, 3), Fraction(-5, 2))


class BigTree(Workload):
    """Parse, canonical key, restriction to half the labels, and the
    symbolic embedding measure of a large tree, against the closed form."""

    name = "bigtree"

    def round(self, rng, index):
        p = self.params
        sizes = [("random", n) for n in p["random_leaves"]]
        sizes += [("caterpillar", n) for n in p["caterpillar_leaves"]]
        ops = []
        for kind, n in sizes:
            labels = ["x%d" % i for i in range(n)]
            if kind == "random":
                shape = random_shape(rng, labels, p["max_valence"])
            else:
                rng.shuffle(labels)
                shape = caterpillar(labels)
            half = tuple(sorted(rng.sample(labels, n // 2)))
            ops.append(("tree", shape.text(), half, shape))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        api = self.api
        _, text, half, _ = op
        tree = api.parse_tree(text)
        key = api.canonical_key(tree)
        same_key = api.canonical_key(api.parse_tree(key)) == key
        sub = api.restrict(tree, half)
        embedding = api.mu_embedding(sub, tree)
        whole = api.mu_symbolic(tree)
        values = [(whole.evaluate(x), embedding.evaluate(x)) for x in POINTS]
        return same_key, values

    def check(self, op, result):
        _, _, half, shape = op
        same_key, values = result
        n, vals = shape.valences()
        k, sub_vals = shape.valences(half)
        expected = []
        for x in POINTS:
            whole = closed_form_measure(n, vals, x)
            expected.append((whole, whole / closed_form_measure(k, sub_vals, x)))
        return same_key and values == expected


WORKLOADS = {cls.name: cls for cls in (Sweep, Compose, Edge, BigTree)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](load_record()["workloads"][name]["params"], seed)
