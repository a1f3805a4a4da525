"""Exact rational-function arithmetic.

Core claims:
    - normalization is canonical (coprime, integer, positive denominator lead)
    - field axioms hold on randomized inputs
    - evaluation is a ring homomorphism away from poles, with poles reported
    - serialization round-trips and matches the documented format; the
      factored display pulls out each t-k by synthetic division exactly as
      dividing by t-k once per power does
    - polynomials live in Z[t]: int coefficients only, exact division,
      square roots in the integers; gcds are primitive
    - packing at t = 2^b and reading balanced base-2^b digits back is exact
      for every coefficient below 2^(b-1) in absolute value, so sums of
      packed products within the width bound unpack to the polynomial sums
    - parsing clears fractional coefficients and keeps every value
    - normal forms agree with sympy.cancel on random expressions, also
      where both sides carry powers of t-1 (divided out without a gcd) with
      or without a further common factor, and the once-normalized sum of 1
      to 6 unnormalized terms agrees with sympy and with the sequential fold
      of cross-multiplied two-term sums
    - negation, the inverse, scaling by a rational number and division by
      one or of one give the normal form of the general path without
      running a gcd
"""

import operator
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arboreal.ratfun import (
    PoleError,
    Poly,
    RatFun,
    _div_one,
    _factor,
    _factored_poly_str,
    _over,
    _split,
    parse_poly,
    parse_ratfun,
    poly_to_str,
    ratfun_sqrt,
)

T = RatFun.t()
ONE = RatFun.one()


def qpoly(*factors):
    """(p, d): the product of the polynomials with the given rational
    coefficient lists, as an integer Poly p over a positive int d."""
    p, d = Poly((1,)), 1
    for coeffs in factors:
        k = lcm(*[Fraction(c).denominator for c in coeffs])
        p, d = p * Poly([int(c * k) for c in coeffs]), d * k
    return p, d


def qratfun(num, den=(Poly((1,)), 1)):
    """num/den for two (p, d) pairs from qpoly."""
    (pn, dn), (pd, dd) = num, den
    return RatFun(pn.scale(dd), pd.scale(dn))


def rand_ratfun(rng, degree=3):
    num = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, degree + 1))]
    den = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, degree + 1))]
    if not any(den):
        den = [1]
    return qratfun(qpoly(num), qpoly(den))


def test_normalization_cancels_common_factors():
    f = RatFun(Poly((-1, 0, 1)), Poly((-1, 1)))  # (t^2-1)/(t-1)
    assert str(f) == "t+1"
    assert f == T + 1


def test_normalization_is_idempotent_and_structural():
    rng = random.Random(1)
    for _ in range(200):
        f = rand_ratfun(rng)
        again = RatFun(f.num, f.den)
        assert again.num == f.num and again.den == f.den
    # integer content is pulled out jointly
    assert str(qratfun(qpoly([Fraction(1, 2)]))) == "1 / 2"
    assert str(RatFun(Poly((0, 2)), Poly((4,)))) == "t / 2"


def test_product_of_generators():
    assert (T / (T - 1)) * (ONE / (T - 1)) == T / (T - 1) ** 2


def test_field_axioms_randomized():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (rand_ratfun(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        if not b.is_zero():
            assert (a / b) * b == a


def test_evaluate_examples():
    assert (T / (T - 1)).evaluate(2) == 2
    f = -T * (T - 2) / (T - 1) ** 3
    # direct fraction computation of the same quantity at 1/2
    t = Fraction(1, 2)
    direct = -(t * (t - 2)) / (t - 1) ** 3
    assert direct == -6
    assert f.evaluate(t) == direct


def test_evaluate_is_a_homomorphism():
    rng = random.Random(11)
    for _ in range(40):
        a, b = rand_ratfun(rng), rand_ratfun(rng)
        t = Fraction(rng.randint(2, 9), rng.randint(1, 3))
        try:
            va, vb = a.evaluate(t), b.evaluate(t)
        except PoleError:
            continue
        assert (a * b).evaluate(t) == va * vb
        assert (a + b).evaluate(t) == va + vb


def test_pole_reports_the_vanishing_factor():
    with pytest.raises(PoleError) as err:
        (T / (T - 1)).evaluate(1)
    assert "t-1" in str(err.value)
    with pytest.raises(PoleError):
        (ONE / (2 * T - 1)).evaluate(Fraction(1, 2))


def test_serialization_format():
    mu5 = T * (T - 2) ** 2 / (T - 1) ** 4
    s = str(mu5)
    assert s == "t^3-4*t^2+4*t / t^4-4*t^3+6*t^2-4*t+1"
    assert parse_ratfun(s) == mu5
    assert str(RatFun.one()) == "1"
    assert str(RatFun.zero()) == "0"
    assert parse_ratfun("-3/4") == RatFun.from_scalar(Fraction(-3, 4))
    assert mu5.factored() == "t*(t-2)^2 / (t-1)^4"


def divmod_factored_poly_str(p, bound):
    """The oracle: each t-k pulled out by one ``Poly.divmod`` per power."""
    if p.is_zero():
        return "0"
    factors = []
    for k in range(-bound, bound + 1):
        root = Poly((-k, 1))
        e = 0
        while True:
            q, r = p.divmod(root)
            if not r.is_zero():
                break
            p, e = q, e + 1
        if e:
            base = "t" if k == 0 else "(%s)" % poly_to_str(root)
            factors.append(base if e == 1 else "%s^%d" % (base, e))
    lead = ""
    if p.degree == 0:
        c = p.coeffs[0]
        if not factors:
            return str(c)
        if c == -1:
            lead = "-"
        elif c != 1:
            lead = "%d*" % c
    else:
        factors.append("(%s)" % poly_to_str(p))
    return lead + "*".join(factors)


def test_factored_display_matches_division_per_power():
    """Products of (t-k)^e for k in {-20, -3, 0, 1, 2, 20}, times a
    constant (negative ones included) or a factor with no integer root,
    with either sign of the leading coefficient, and constants."""
    rng = random.Random(19)
    roots = (-20, -3, 0, 1, 2, 20)
    rests = [Poly((c,)) for c in (1, -1, 3, -12)] + [Poly((1, 0, 1)), Poly((-5, -1, -2)), Poly((7, 0, 0, 2))]
    cases = [Poly(), Poly((5,)), Poly((-1,)), Poly((1,))]
    for _ in range(150):
        p = rng.choice(rests)
        for k in roots:
            p = p * Poly((-k, 1)) ** rng.randint(0, 4)
        cases.append(p)
    cases.append(Poly((1,)).scale(-2) * Poly((-1, 1)) ** 30 * Poly((-20, 1)) ** 7)
    for p in cases:
        for bound in (20, 3, 0):
            assert _factored_poly_str(p, bound) == divmod_factored_poly_str(p, bound), (p, bound)
    mu = -(T - 20) ** 3 * (T + 3) / ((T - 1) ** 5 * (T * T + 1))
    assert mu.factored() == "-(t+3)*(t-20)^3 / (t-1)^5*(t^2+1)"


def test_poly_parse_roundtrip_randomized():
    rng = random.Random(3)
    for _ in range(100):
        p = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))])
        assert parse_poly(poly_to_str(p)) == p
    with pytest.raises(ValueError):
        parse_poly("t^")
    with pytest.raises(ValueError):
        parse_poly("2x+1")
    # Z[t] only: a coefficient must be integral once its terms are summed
    assert parse_poly("4/2*t - 1/2 + 3/2") == Poly((1, 2))
    with pytest.raises(ValueError):
        parse_poly("1/2*t")


def _render_term(rng, c, d, first):
    """One written term c*t^d in a randomly chosen spelling; spaces never
    touch a '/', so no term reads as the ' / ' separator."""
    sign = "-" if c < 0 else rng.choice(["", "+"] if first else ["+"])
    k = rng.choice([1, 1, 2, 3])  # a fraction need not be in lowest terms
    a, b = abs(c.numerator) * k, c.denominator * k
    coeff = str(a) if b == 1 and rng.random() < 0.7 else "%d/%d" % (a, b)
    if d == 0:
        body = coeff + rng.choice(["", "*t^0"])
    else:
        power = "t" if d == 1 and rng.random() < 0.7 else "t^%d" % d
        if a == b and rng.random() < 0.5:
            body = power
        else:
            body = coeff + rng.choice(["*", "", "* "]) + power
    return rng.choice(["", " "]) + sign + rng.choice(["", " "]) + body + rng.choice(["", " "])


def _written_poly(rng):
    """(text, value) of a random polynomial written term by term, with the
    term-by-term oracle value sum of from_scalar(c) * T**d."""
    text, value = "", RatFun.zero()
    for i in range(rng.randint(1, 4)):
        c = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6]))
        d = rng.randint(0, 4)
        text += _render_term(rng, c, d, not i)
        value = value + RatFun.from_scalar(c) * T**d
    return text, value


_MALFORMED = [
    lambda s: s + "^",
    lambda s: s + "/",
    lambda s: s + "+",
    lambda s: "/2" + s,
    lambda s: s.replace("t", "x", 1) if "t" in s else s + "x",
    lambda s: s + "*1.5",
    lambda s: s + "**t",
    lambda s: s + "^^2",
    lambda s: s + "t^-1",
    lambda s: "",
    lambda s: " / " + s,
]


def test_parse_ratfun_corpus_matches_term_oracle():
    rng = random.Random(2024)
    well_formed = malformed = 0
    for _ in range(360):
        text, value = _written_poly(rng)
        if rng.random() < 0.3:
            den_text, den = _written_poly(rng)
            if den.is_zero():
                with pytest.raises(ValueError):
                    parse_ratfun(text + " / " + den_text)
                malformed += 1
                continue
            text, value = text + " / " + den_text, value / den
        if rng.random() < 0.15:
            bad = rng.choice(_MALFORMED)(text)
            with pytest.raises(ValueError):
                parse_ratfun(bad)
            malformed += 1
        else:
            assert parse_ratfun(text) == value, text
            well_formed += 1
    assert well_formed + malformed >= 300 and malformed >= 30
    # a zero denominator is malformed input, not an arithmetic error
    for bad in ("1/0*t", "1/0", "t / 0"):
        with pytest.raises(ValueError):
            parse_ratfun(bad)
    with pytest.raises(ValueError):
        parse_poly("1/0*t")


def test_sqrt():
    f = (2 * T / (T - 1) ** 2) ** 2
    root = ratfun_sqrt(f)
    assert root is not None and root * root == f
    assert ratfun_sqrt(T) is None
    assert ratfun_sqrt(RatFun.zero()) == RatFun.zero()
    # non-monic square with rational content
    g = (T + 1) ** 2 * Fraction(9, 4)
    assert ratfun_sqrt(g) * ratfun_sqrt(g) == g
    # zero middle coefficients in the root
    h = (T * T + 1) ** 2
    assert ratfun_sqrt(h) == T * T + 1
    assert ratfun_sqrt((T * T + 1) ** 2 + 1) is None
    # square roots that hinge on the content of one side
    assert ratfun_sqrt(2 * (T + 1) ** 2) is None
    assert ratfun_sqrt(-((T + 1) ** 2)) is None
    assert ratfun_sqrt((T + 1) ** 2 / 4) == (T + 1) / 2
    assert ratfun_sqrt(9 * T**2 / (T - 1) ** 4) == 3 * T / (T - 1) ** 2
    rng = random.Random(17)
    for _ in range(40):
        p = rand_ratfun(rng, degree=2)
        sq = p * p
        root = ratfun_sqrt(sq)
        assert root is not None and root * root == sq


def test_substitute():
    f = (T - 2) / (T - 1)
    g = T + 3
    assert f.substitute(g) == (T + 1) / (T + 2)


def _all_int(p):
    return all(type(c) is int for c in p.coeffs)


def test_poly_rejects_non_int_coefficients():
    for c in (Fraction(1, 2), Fraction(2), 2.0, True):
        with pytest.raises(TypeError):
            Poly((c,))
        with pytest.raises(TypeError):
            Poly((1, c, 1))
    with pytest.raises(TypeError):
        Poly((0, 1)).scale(Fraction(1, 2))
    rng = random.Random(5)
    for _ in range(100):
        f = rand_ratfun(rng)
        assert _all_int(f.num) and _all_int(f.den)


def test_gcd_is_primitive_with_positive_leading_coefficient():
    p, q = Poly((-2, 1)), Poly((3, 1))
    a = (p * p * q).scale(-6)
    b = (p * Poly((5, 1))).scale(4)
    assert a.gcd(b) == p and b.gcd(a) == p
    c = Poly((1, -2))  # 1-2t
    assert (c * q).gcd(c.scale(3) * Poly.t()) == Poly((-1, 2))
    assert (c * q).gcd(c * q) == Poly((-1, 2)) * q
    assert p.gcd(q) == Poly((1,))
    assert Poly((5,)).gcd(a) == Poly((1,)) and a.gcd(Poly((3,))) == Poly((1,))
    assert Poly().gcd(c.scale(-4)) == Poly((-1, 2))
    assert Poly().gcd(Poly()) == Poly()
    assert _all_int(a.gcd(b))


def test_divmod_is_exact_in_z():
    q, r = Poly((-6, 1, 1)).divmod(Poly((-2, 1)))  # (t+3)(t-2) / (t-2)
    assert q == Poly((3, 1)) and r.is_zero() and _all_int(q)
    q, r = Poly((-12, 2, 2)).divmod(Poly((6, 2)))
    assert q == Poly((-2, 1)) and r.is_zero() and _all_int(q)
    q, r = Poly((1, 0, 1)).divmod(Poly((3, 1)))  # by a monic t+3
    assert q == Poly((-3, 1)) and r == Poly((10,))
    with pytest.raises(ValueError):
        Poly((1, 0, 1)).divmod(Poly((1, 2)))  # quotient t/2-1/4 over Q
    q, r = Poly((1, 2)).divmod(Poly((0, 0, 1)))
    assert q.is_zero() and r == Poly((1, 2))


def test_pack_unpack_round_trips():
    """``Poly._pack(b)`` is the value at t = 2^b, and ``Poly._unpack`` reads
    it back as balanced base-2^b digits: negative top coefficients, interior
    zeros and the zero polynomial survive, up to the widest coefficients the
    width allows, +-(2^(b-1) - 1)."""
    cases = [(), (5,), (-5,), (1, -1), (3, 0, 0, -7), (0, 0, 1), (-1, 0, 2, 0, -1), (0, -4)]
    for b in (2, 3, 8, 63, 64, 65, 200):
        top = (1 << (b - 1)) - 1
        widest = [(top,), (-top,), (top, -top, 0, top), (-top, top, -top), (0, top, 0, -top), (1, -top)]
        for cs in cases + widest:
            if max(map(abs, cs), default=0) > top:
                continue
            p = Poly(cs)
            n = p._pack(b)
            assert n == p.evaluate(1 << b)
            assert Poly._unpack(n, b) == p


_wide = st.lists(st.integers(-(2**200), 2**200), max_size=5)


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(st.tuples(_wide, _wide, _wide), min_size=1, max_size=6))
@example([([2**200], [-(2**200)], [2**200])] * 6)
@example([([2**200, 0, -(2**200)], [2**200, 2**200], [-(2**200)])] * 2)
@example([([1, 0, -1], [], [3]), ([7], [1, 1], [-1])])
def test_packed_sums_of_products_are_the_poly_sums(terms):
    """The width of ``category._bilinear``: for n products l*r*w, b =
    bit_length(n * max|l|_1 * max|r|_1 * max|w|_1) + 1 bounds every
    coefficient of their sum below 2^(b-1), so the sum of the packed
    products unpacks to the sum of the ``Poly`` products."""
    polys = [tuple(map(Poly, factors)) for factors in terms]
    bound = len(polys)
    for i in range(3):
        bound *= max(sum(map(abs, factors[i].coeffs)) for factors in polys)
    b = bound.bit_length() + 1
    packed = sum(l._pack(b) * r._pack(b) * w._pack(b) for l, r, w in polys)
    assert Poly._unpack(packed, b) == sum((l * r * w for l, r, w in polys), Poly())


_t = sympy.Symbol("t")
_coeff = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-12, max_value=12, max_denominator=6),
)
_coeffs = st.lists(_coeff, min_size=1, max_size=4)
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _sympy_poly(coeffs):
    return sum(sympy.Rational(c.numerator, c.denominator) * _t**i for i, c in enumerate(coeffs))


def _sympy_normal_form(expr):
    """num/den coefficient tuples of sympy.cancel(expr), put in the
    documented normal form: integer, joint content 1, positive den lead."""
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    if num == 0:
        return (), (1,)
    pn = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(num, _t).all_coeffs())]
    pd = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(den, _t).all_coeffs())]
    d = lcm(*[c.denominator for c in pn + pd])
    content = Fraction(gcd(*[int(c * d) for c in pn + pd]), d)
    if pd[-1] < 0:
        content = -content
    return tuple(c / content for c in pn), tuple(c / content for c in pd)


@settings(max_examples=150, deadline=None, database=None)
@given(_coeffs, _coeffs, _coeffs, _coeffs, _coeffs, st.sampled_from(sorted(_OPS)))
def test_normal_form_agrees_with_sympy_cancel(common, n1, d1, n2, d2, op):
    # a shared factor on both sides of the first operand makes gcds nontrivial
    den1, den2 = qpoly(common, d1), qpoly(d2)
    if den1[0].is_zero() or den2[0].is_zero():
        return
    a = qratfun(qpoly(common, n1), den1)
    b = qratfun(qpoly(n2), den2)
    sa = _sympy_poly(common) * _sympy_poly(n1) / (_sympy_poly(common) * _sympy_poly(d1))
    sb = _sympy_poly(n2) / _sympy_poly(d2)
    if op == "/" and b.is_zero():
        return
    f = _OPS[op](a, b)
    assert (f.num.coeffs, f.den.coeffs) == _sympy_normal_form(_OPS[op](sa, sb))
    assert _all_int(f.num) and _all_int(f.den)


_ones = st.integers(0, 3)


@settings(max_examples=150, deadline=None, database=None)
@given(_coeffs, _coeffs, _coeffs, _coeffs, _ones, _ones, _ones, _ones, _coeffs, st.booleans(),
       st.sampled_from(sorted(_OPS)))
@example([1], [2, -3], [1], [1], 2, 3, 1, 0, [-2, 1], False, "*")  # den a pure power of t-1
@example([1], [1, 1], [1], [1], 3, 1, 0, 2, [-2, 1], True, "/")  # and a shared t-2
@example([2], [-1, 1], [-4], [3], 0, 2, 1, 1, [3, 2], True, "+")  # num vanishing at 1
def test_normal_form_with_powers_of_t_minus_one_agrees_with_sympy(
    n1, d1, n2, d2, i1, j1, i2, j2, common, shared, op
):
    """Operands (t-1)^i1 n1 / ((t-1)^j1 d1) and (t-1)^i2 n2 / ((t-1)^j2 d2),
    the first with a further common factor on both sides when ``shared``:
    the constructor and every operation give sympy's normal form."""
    one = [-1, 1]
    extra = [common] if shared else []
    den1, den2 = qpoly(*[one] * j1, d1, *extra), qpoly(*[one] * j2, d2)
    if den1[0].is_zero() or den2[0].is_zero():
        return
    a = qratfun(qpoly(*[one] * i1, n1, *extra), den1)
    b = qratfun(qpoly(*[one] * i2, n2), den2)
    c = _sympy_poly(common) if shared else 1
    sa = (_t - 1) ** i1 * _sympy_poly(n1) * c / ((_t - 1) ** j1 * _sympy_poly(d1) * c)
    sb = (_t - 1) ** i2 * _sympy_poly(n2) / ((_t - 1) ** j2 * _sympy_poly(d2))
    assert (a.num.coeffs, a.den.coeffs) == _sympy_normal_form(sa)
    if op == "/" and b.is_zero():
        return
    f = _OPS[op](a, b)
    assert (f.num.coeffs, f.den.coeffs) == _sympy_normal_form(_OPS[op](sa, sb))
    assert _all_int(f.num) and _all_int(f.den)


def test_powers_of_t_minus_one_need_no_gcd(monkeypatch):
    """Common factors t-1 leave by synthetic division; a denominator left a
    power of t-1 (or a constant) runs no gcd, any other still does."""
    calls = []
    gcd = Poly.gcd
    monkeypatch.setattr(Poly, "gcd", lambda self, other: calls.append(1) or gcd(self, other))
    one = Poly((-1, 1))
    f = RatFun((one**3 * Poly((1, 1))).scale(6), (one**2).scale(-4))
    assert (f.num, f.den) == (-(one * Poly((1, 1))).scale(3), Poly((2,))) and not calls
    g = RatFun(one * Poly((0, 1)), one**4 * Poly((3,)))
    assert (g.num, g.den) == (Poly((0, 1)), one**3 * Poly((3,))) and not calls
    h = RatFun(one * Poly((-2, 1)), one**2 * Poly((-2, 1)))
    assert (h.num, h.den) == (Poly((1,)), one) and len(calls) == 1


def normalized_pair(num, den):
    """The oracle: the normalization ``RatFun(num, den)`` ran on its own
    before the denominator was split once per product, kept verbatim; the
    normal form as (num.coeffs, den.coeffs)."""
    if den.is_zero():
        raise ZeroDivisionError("rational function with zero denominator")
    if num.is_zero():
        num, den = Poly(), Poly((1,))
    else:
        gn, pn = _split(num.coeffs)
        gd, pd = _split(den.coeffs)
        # p(1) is the coefficient sum: while both sides vanish at t = 1,
        # divide (t-1) out of both
        while not sum(pn) and not sum(pd):
            pn, pd = _div_one(pn), _div_one(pd)
        num, den = Poly._of(pn), Poly._of(pd)
        if len(pn) > 1:  # a constant num is coprime with den
            rest = pd
            while len(rest) > 1 and not sum(rest):
                rest = _div_one(rest)
            # rest is den without the factors t-1, which num no longer
            # shares: only a nonconstant rest can share a factor with num
            if len(rest) > 1:
                g = num.gcd(den)
                if g.degree > 0:
                    num = num.divmod(g)[0]
                    den = den.divmod(g)[0]
        # primitive parts times the reduced content ratio gn/gd: both
        # parts integer with joint content 1
        h = gcd(gn, gd)
        a, b = gn // h, gd // h
        if den.coeffs[-1] < 0:
            a, b = -a, -b
        if a != 1:
            num = num.scale(a)
        if b != 1:
            den = den.scale(b)
    return num.coeffs, den.coeffs


_int_poly = st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(any)
_content = st.integers(-36, 36).filter(bool)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.tuples(_int_poly, _content, _ones), min_size=1, max_size=4),
       _int_poly, _content, _ones, _int_poly, st.booleans())
@example([([1], 6, 3)], [1], -4, 2, [1], False)  # den c*(t-1)^2, no gcd
@example([([5, 0, 1], 1, 0), ([-2, 1], 12, 1)], [1, 1], 18, 3, [-2, 1], True)  # a shared t-2: the gcd path
@example([([0, 1], -3, 3), ([7], 2, 0)], [-3, 2], -10, 1, [1, 0, 1], True)  # num vanishing at 1 beyond den
def test_normalization_against_one_split_matches_the_former_constructor(nums, d, dc, j, common, shared):
    """Numerators c*(t-1)^i*n*m over the denominator c'*(t-1)^j*d*m, where
    the cofactor m shared by both sides, when present, makes a gcd run:
    ``RatFun(num, den)`` and the slots of a product, normalized against one
    split of their shared denominator, both give the oracle's normal form."""
    one = Poly((-1, 1))
    m = Poly(common) if shared else Poly((1,))
    den = (one**j * Poly(d) * m).scale(dc)
    split = _factor(den)
    for n, c, i in nums:
        num = (one**i * Poly(n) * m).scale(c)
        want = normalized_pair(num, den)
        f = RatFun(num, den)
        assert (f.num.coeffs, f.den.coeffs) == want
        slot = _over(num, split)
        assert (slot[0].coeffs, slot[1].coeffs) == want


def sequential_sum(pairs):
    """The sum of the fractions num/den one term at a time, each two-term
    sum cross-multiplied and normalized in full: the oracle for
    ``RatFun.sum``."""
    acc = RatFun.zero()
    for num, den in pairs:
        term = RatFun(num, den)
        acc = RatFun(acc.num * term.den + term.num * acc.den, acc.den * term.den)
    return acc


# denominator factors: t-1 in powers (so denominators divide each other),
# and others that do not divide them, one of them not monic
_DEN_FACTORS = (Poly((-2, 1)), Poly((3, 2)), Poly((0, 1)), Poly((1, 0, 1)))
_term = st.tuples(
    st.one_of(_coeffs, st.just([0])),  # numerator, possibly zero
    st.sampled_from([1, 2, -3, 6]),  # denominator content, sign included
    st.integers(0, 3),  # power of t-1
    st.lists(st.integers(0, len(_DEN_FACTORS) - 1), max_size=2),
)


def _term_pair(num_coeffs, content, ones, factors):
    """(num, den) of integer Polys, unnormalized, and its sympy value."""
    num, d = qpoly(num_coeffs)
    den = Poly((-1, 1)) ** ones
    sden = (_t - 1) ** ones
    for i in factors:
        den = den * _DEN_FACTORS[i]
        sden = sden * _sympy_poly([Fraction(c) for c in _DEN_FACTORS[i].coeffs])
    return (num, den.scale(content * d)), _sympy_poly(num_coeffs) / (content * sden)


_SHARED = ([1, 2], 1, 2, [])
_DIVIDING = ([3], 2, 3, [])
_DISTINCT = ([-1, 1], -3, 0, [1, 3])


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(_term, min_size=1, max_size=6), st.booleans())
@example([_SHARED, _SHARED, _DIVIDING, _DISTINCT], False)
@example([_SHARED, ([0], 6, 1, [0]), _DISTINCT], True)
@example([([Fraction(1, 2)], 6, 1, [1])], False)
def test_sum_normal_form_agrees_with_sympy_and_sequential_fold(terms, cancel):
    """RatFun.sum of 1 to 6 unnormalized terms, with shared denominators,
    ones dividing each other, distinct non-monic ones with content, zero
    terms, and (with ``cancel``) each term beside its negative."""
    if cancel:
        terms = terms[:3] + [([-c for c in num], *rest) for num, *rest in terms[:3]]
    built = [_term_pair(*term) for term in terms]
    pairs = [pair for pair, _ in built]
    f = RatFun.sum(pairs)
    assert (f.num.coeffs, f.den.coeffs) == _sympy_normal_form(sum(v for _, v in built))
    assert f == sequential_sum(pairs)
    assert f == RatFun.sum(reversed(pairs))
    if cancel:
        assert f.is_zero()
    assert _all_int(f.num) and _all_int(f.den)


def test_sum_edge_cases():
    assert RatFun.sum([]) == RatFun.zero()
    assert RatFun.sum([(Poly(), Poly((-1, 1)))]) == RatFun.zero()
    with pytest.raises(ZeroDivisionError):
        RatFun.sum([(Poly((1,)), Poly())])
    # (t-1)/(t-1)^2 + 1/(t-1) reduces to 2/(t-1) through the one final gcd
    one = Poly((-1, 1))
    assert RatFun.sum([(one, one * one), (Poly((1,)), one)]) == 2 / (T - 1)
    assert T + 1 == RatFun.sum([(Poly((0, 1)), Poly((1,))), (Poly((1,)), Poly((1,)))])


@settings(max_examples=150, deadline=None, database=None)
@given(_coeffs, _coeffs, _coeff)
@example([0], [1, 1], Fraction(3, 2))
def test_negation_and_scalar_products_are_normal_forms(n, d, c):
    """-f, f * c, f / c, c / f (c an int or a Fraction) and f.inverse()
    equal the general path RatFun(num, den) on the unnormalized product or
    quotient, and run no gcd; division by zero raises."""
    num, den = qpoly(n), qpoly(d)
    if den[0].is_zero():
        return
    f = qratfun(num, den)
    c = Fraction(c)
    gcds = []
    gcd = Poly.gcd

    def counting(self, other):
        gcds.append(1)
        return gcd(self, other)

    Poly.gcd = counting
    try:
        neg, scaled, scaled_int = -f, f * c, f * c.numerator
        rscaled = c * f
        divided = f / c if c else None
        divided_int = f / c.numerator if c else None
        inverse = None if f.is_zero() else f.inverse()
        rdivided = None if f.is_zero() else c / f
    finally:
        Poly.gcd = gcd
    assert not gcds
    cases = [
        (neg, RatFun(-f.num, f.den)),
        (scaled, RatFun(f.num.scale(c.numerator), f.den.scale(c.denominator))),
        (scaled_int, RatFun(f.num.scale(c.numerator), f.den)),
        (rscaled, scaled),
    ]
    if c:
        cases += [
            (divided, RatFun(f.num.scale(c.denominator), f.den.scale(c.numerator))),
            (divided_int, RatFun(f.num, f.den.scale(c.numerator))),
        ]
    else:
        for zero in (c, 0):
            with pytest.raises(ZeroDivisionError):
                f / zero
    if not f.is_zero():
        cases += [
            (inverse, RatFun(f.den, f.num)),
            (rdivided, RatFun(f.den.scale(c.numerator), f.num.scale(c.denominator))),
        ]
    else:
        for divide in (f.inverse, lambda: c / f, lambda: 1 / f, lambda: T / f):
            with pytest.raises(ZeroDivisionError):
                divide()
    for got, want in cases:
        assert (got.num, got.den) == (want.num, want.den)
