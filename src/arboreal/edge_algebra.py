"""Named elements and idempotent systems of the edge endomorphism algebra.

The endomorphism algebra of the two-leaf tree is ten dimensional.  This
module fixes the conventional names a1..a10 for its basis (by explicit
labeled trees, so a change in basis sort order cannot silently reshuffle
them), the symmetrized/antisymmetrized combinations b1..b3 and c1..c5, and
the idempotent systems of both eigenspaces of the label swap a2.

The minus part carries the printed idempotents e1, e5, e6.  For the plus
part, only the projectors f0 and f3 have usable closed forms; the projector
onto the class shared with the one-leaf object is derived by factoring
through that object, and the remaining two idempotents are obtained by
eigen-splitting multiplication by c5 on the orthogonal complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict

from arboreal.category import (
    AlgebraElement,
    ArborealAlgebra,
    HomElement,
    algebra_for,
    compose,
    hom_basis,
)
from arboreal.ratfun import RatFun, ratfun_sqrt
from arboreal.trees import parse_tree

EDGE = parse_tree("(1,2)")
POINT = parse_tree("x0")

# the ten self-amalgamations of the edge, in their conventional order
A_BASIS_KEYS: Dict[int, str] = {
    1: "(s:1/t:1,s:2/t:2)",
    2: "(s:1/t:2,s:2/t:1)",
    3: "(s:1/t:1,s:2,t:2)",
    4: "(s:1/t:2,s:2,t:1)",
    5: "(s:2/t:1,s:1,t:2)",
    6: "(s:2/t:2,s:1,t:1)",
    7: "((s:1,s:2),(t:1,t:2))",
    8: "((s:1,t:1),(s:2,t:2))",
    9: "((s:1,t:2),(s:2,t:1))",
    10: "(s:1,s:2,t:1,t:2)",
}

# morphisms through the one-leaf object, used to project onto its classes
F_DOWN_KEY = "(s:1/t:x0,s:2)"  # edge -> point
F_UP_KEY = "(s:x0/t:1,t:2)"  # point -> edge

T = RatFun.t()
HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


@dataclass
class EdgeAlgebra:
    """The edge endomorphism algebra with its named elements."""

    algebra: ArborealAlgebra
    a: Dict[int, AlgebraElement]
    b: Dict[int, AlgebraElement]
    c: Dict[int, AlgebraElement]

    @staticmethod
    def build() -> "EdgeAlgebra":
        alg = algebra_for(EDGE)
        a: Dict[int, AlgebraElement] = {}
        for i, key in A_BASIS_KEYS.items():
            canon = parse_tree(key).canonical_key()
            if canon not in alg.index:
                raise AssertionError("named basis element %s missing" % key)
            a[i] = alg.basis_element(alg.index[canon])
        b = {
            1: (a[1] - a[2]) * HALF,
            2: (a[3] - a[4] - a[5] + a[6]) * QUARTER,
            3: (a[8] - a[9]) * HALF,
        }
        c = {
            1: (a[1] + a[2]) * HALF,
            2: (a[3] + a[4] + a[5] + a[6]) * QUARTER,
            3: a[7],
            4: (a[8] + a[9]) * HALF,
            5: a[10],
        }
        return EdgeAlgebra(alg, a, b, c)

    # -- basis amalgamations (for trace enumeration) ------------------------

    def basis_amalgamation(self, i: int):
        return self.algebra.basis[self.algebra.index[parse_tree(A_BASIS_KEYS[i]).canonical_key()]]

    # -- printed idempotents --------------------------------------------------

    def minus_idempotents(self) -> Dict[str, AlgebraElement]:
        """The three orthogonal projectors of the swap's -1 eigenspace."""
        b1, b2, b3 = self.b[1], self.b[2], self.b[3]
        e1 = (b1 + b2) * (2 * (T - 1) / T)
        e5 = (
            b1 * (T - 2) + b2 * (2 * (T - 1)) + b3 * T
        ) * (-((T - 1) ** 2) / T)
        e6 = b1 * (T - 2) ** 2 + b2 * (2 * (T - 1) * (T - 2)) + b3 * (T - 1) ** 2
        return {"e1": e1, "e5": e5, "e6": e6}

    def f0(self) -> AlgebraElement:
        """Projector onto the one-dimensional class of the empty tree:
        the sum of all basis vectors divided by the measure of the edge."""
        total = self.a[1]
        for i in range(2, 11):
            total = total + self.a[i]
        return total * ((T - 1) ** 2 / T)

    def f3(self) -> AlgebraElement:
        c1, c2, c4 = self.c[1], self.c[2], self.c[4]
        return c1 * (T - 2) ** 2 + c2 * (2 * (T - 1) * (T - 2)) + c4 * (T - 1) ** 2

    # -- derived idempotents ----------------------------------------------------

    def down_up_composite(self) -> AlgebraElement:
        """The endomorphism of the edge factoring through the point object."""
        down_key = parse_tree(F_DOWN_KEY).canonical_key()
        up_key = parse_tree(F_UP_KEY).canonical_key()
        down = next(am for am in hom_basis(EDGE, POINT) if am.key == down_key)
        up = next(am for am in hom_basis(POINT, EDGE) if am.key == up_key)
        f = HomElement.basis(EDGE, POINT, down)
        f_up = HomElement.basis(POINT, EDGE, up)
        return self.algebra.from_hom(compose(f_up, f))

    def derive_f1(self) -> AlgebraElement:
        """Projector onto the shared class inside the +1 eigenspace.

        Conjugate the factor-through-the-point endomorphism into the plus
        part, remove its f0 component, and rescale the leftover to an
        idempotent.
        """
        alg = self.algebra
        c1 = self.c[1]
        g = (c1 * self.down_up_composite()) * c1
        f0 = self.f0()
        chi0 = alg.utr(f0 * g) / alg.utr(f0)
        g = g - f0 * chi0
        poly = alg.minimal_polynomial(g)  # x (x - lam) for g = lam * projector
        if len(poly) != 3 or not poly[0].is_zero() or poly[1].is_zero():
            raise AssertionError("projector derivation degenerated")
        return g * (-poly[1]).inverse()

    def plus_idempotents(self) -> Dict[str, AlgebraElement]:
        """A complete orthogonal idempotent system for the +1 eigenspace.

        f0 and f3 are taken as printed; f1 is derived by factoring through
        the point object; the last two are the eigenprojections of
        multiplication by c5 on the remaining two-dimensional piece, named
        by their categorical dimensions.
        """
        alg = self.algebra
        f0, f3 = self.f0(), self.f3()
        f1 = self.derive_f1()
        rest = self.c[1] - f0 - f1 - f3
        h = (rest * self.c[5]) * rest
        # h * rest = h, so h^2 = pi * rest + sigma * h gives x (x^2 - sigma x - pi)
        poly = alg.minimal_polynomial(h)
        if len(poly) != 4 or not poly[0].is_zero():
            raise AssertionError("c5 action is not quadratic on the remainder")
        pi, sigma = -poly[1], -poly[2]
        disc = sigma * sigma + 4 * pi
        sd = ratfun_sqrt(disc)
        if sd is None:
            raise AssertionError("eigenvalue discriminant is not a square")
        lam1 = (sigma + sd) / 2
        lam2 = (sigma - sd) / 2
        if lam1 == lam2:
            raise AssertionError("repeated eigenvalue in the remainder split")
        p1 = (h - rest * lam2) * (lam1 - lam2).inverse()
        p2 = rest - p1
        udims = {"f2": -T / (T - 1), "f4": -T * (T - 3) / (2 * (T - 1))}
        out = {"f0": f0, "f1": f1, "f3": f3}
        for p in (p1, p2):
            tr = alg.utr(p)
            for name, expect in udims.items():
                if tr == expect and name not in out:
                    out[name] = p
                    break
        if set(out) != {"f0", "f1", "f2", "f3", "f4"}:
            raise AssertionError(
                "derived projector dimensions do not match the expected pair"
            )
        return out


@lru_cache(maxsize=1)
def edge_algebra() -> EdgeAlgebra:
    return EdgeAlgebra.build()
