"""The named elements of the edge endomorphism algebra.

Core claims:
    - the ten named basis trees are exactly the self-amalgamation basis
    - the swap element squares to the identity and conjugates as expected
    - the eigenspace projectors of both signs are complete orthogonal
      idempotent systems with the expected categorical dimensions
    - the derivation path (factor through the one-leaf object, then split
      the remainder by the c5 action) is internally consistent
    - minimal polynomials equal those of the per-degree elimination oracle
"""

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal.category import algebra_for
from arboreal.edge_algebra import A_BASIS_KEYS, EDGE
from arboreal.ratfun import ONE, RatFun
from arboreal.trees import parse_tree

T = RatFun.t()


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
        inv = matrix[row][col].inverse()
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


def _oracle_minimal_polynomial(alg, e) -> List[RatFun]:
    """The monic annihilating polynomial of least degree, by a fresh
    elimination of the powers for each candidate degree."""
    powers = [alg.identity().vec]
    current = alg.identity()
    while True:
        current = alg.multiply(current, e)
        solution = _solve_dependence(powers, current.vec)
        if solution is not None:
            return [-c for c in solution] + [RatFun.one()]
        powers.append(current.vec)


def test_minimal_polynomials_match_the_oracle(edge):
    a, alg = edge.a, edge.algebra
    bounded = algebra_for(EDGE, 3)
    third = bounded.dim // 3
    cases = [
        (alg, alg.element({})),
        (alg, alg.identity()),
        (alg, edge.b[3]),
        (alg, a[9] - a[10] * Fraction(1, 2)),
        (bounded, bounded.element({0: 1, third: Fraction(-1, 2), 2 * third: Fraction(2, 3)})),
    ]
    for algebra, e in cases:
        assert algebra.minimal_polynomial(e) == _oracle_minimal_polynomial(algebra, e)


@settings(max_examples=25, deadline=None, database=None)
@given(i=st.integers(1, 10), c=st.fractions(min_value=-5, max_value=5, max_denominator=7))
def test_minimal_polynomials_of_scaled_basis_elements_match_the_oracle(edge, i, c):
    e = edge.a[i] * c
    assert edge.algebra.minimal_polynomial(e) == _oracle_minimal_polynomial(edge.algebra, e)


def test_named_basis_is_the_basis(edge):
    alg = edge.algebra
    named = {parse_tree(k).canonical_key() for k in A_BASIS_KEYS.values()}
    assert named == set(alg.index)
    assert len(named) == 10
    assert edge.a[1].vec == alg.identity().vec


def test_swap_action(edge):
    a = edge.a
    assert (a[2] * a[2]).vec == a[1].vec
    # conjugation by the swap permutes the four one-identification elements
    assert (a[2] * a[3]).vec == (a[2] * a[3]).vec
    assert ((a[2] * a[3]) * a[2]).vec == a[6].vec
    assert ((a[2] * a[4]) * a[2]).vec == a[5].vec


def test_plus_minus_split(edge):
    c1, b1 = edge.c[1], edge.b[1]
    assert (c1 + b1).vec == edge.a[1].vec
    assert (c1 * b1).is_zero()
    assert (c1 * c1).vec == c1.vec
    assert (b1 * b1).vec == b1.vec


def test_minus_idempotent_system(edge):
    ems = edge.minus_idempotents()
    expected_traces = {
        "e1": ONE / (T - 1),
        "e5": -(T - 2) / 2,
        "e6": T * (T - 2) ** 2 / (2 * (T - 1) ** 2),
    }
    total = None
    for name, e in ems.items():
        assert (e * e).vec == e.vec, name
        assert edge.algebra.utr(e) == expected_traces[name], name
        total = e if total is None else total + e
    assert total.vec == edge.b[1].vec
    names = list(ems)
    for x in names:
        for y in names:
            if x != y:
                assert (ems[x] * ems[y]).is_zero()


def test_plus_idempotent_system(edge):
    fps = edge.plus_idempotents()
    expected_traces = {
        "f0": ONE,
        "f1": ONE / (T - 1),
        "f2": -T / (T - 1),
        "f3": T * (T - 2) ** 2 / (2 * (T - 1) ** 2),
        "f4": -T * (T - 3) / (2 * (T - 1)),
    }
    total = None
    for name in ("f0", "f1", "f2", "f3", "f4"):
        e = fps[name]
        assert (e * e).vec == e.vec, name
        assert edge.algebra.utr(e) == expected_traces[name], name
        total = e if total is None else total + e
    assert total.vec == edge.c[1].vec


def test_f0_is_the_full_projector(edge):
    f0 = edge.f0()
    assert (f0 * f0).vec == f0.vec
    assert edge.algebra.utr(f0) == ONE
    # absorbing: f0 x f0 is the character value times f0 for basis elements
    for i in range(1, 11):
        prod = (f0 * edge.a[i]) * f0
        assert prod.vec == f0.scale(edge.algebra.utr(prod)).vec


def test_down_up_composite(edge):
    composite = edge.down_up_composite()
    assert composite.vec == (edge.a[1] + edge.a[3]).vec


def test_derived_f1_is_canonical(edge):
    f1 = edge.derive_f1()
    assert (f1 * f1).vec == f1.vec
    assert (f1 * edge.f0()).is_zero()
    assert edge.algebra.utr(f1) == ONE / (T - 1)
    # it lives in the plus part
    assert (edge.c[1] * f1).vec == f1.vec
    assert (edge.a[2] * f1).vec == f1.vec


def test_derived_projectors_are_c5_eigenvectors(edge):
    fps = edge.plus_idempotents()
    c5 = edge.c[5]
    eigs = []
    for name in ("f2", "f4"):
        p = fps[name]
        lam = _solve_dependence([p.vec], (c5 * p).vec)
        assert lam is not None
        eigs.append(lam[0])
    assert eigs[0] != eigs[1]
