"""Exact arithmetic with rational functions in one variable.

Polynomials are integer polynomials: dense tuples of Python ``int``
coefficients.  ``Poly(...)`` checks that every coefficient is an ``int``;
the ring operations, whose results from ``int`` coefficients are ``int``,
build theirs through the trusted ``Poly._of``, which only strips trailing
zeros.  A rational function normalizes to a coprime numerator/denominator
pair of integer polynomials with overall content 1 and a positive leading
denominator coefficient, so equal values always serialize to identical
strings.  Normalization stays in the integers: each side splits into its
integer content and primitive part.  While both parts vanish at t = 1 (their
coefficients sum to zero), t-1 is divided out of both by synthetic division.
If what is left of the denominator is a power of t-1, or the numerator is
constant, the parts are coprime; otherwise they are divided by their gcd,
taken by a primitive remainder sequence over Z.  By Gauss's lemma (Knuth,
TAOCP vol. 2, 4.6.1) products and exact quotients of primitive polynomials
stay primitive, so no rational coefficient is ever needed; the parser clears
the denominators of the ones it reads.

Sums normalize once.  ``RatFun.sum`` takes unnormalized num/den pairs,
adds the numerators of equal denominators as it reads them, brings the
distinct denominators over one with ``_common_denominator`` (by an exact
quotient where one divides another, else by cross-multiplying) and
normalizes once at the end; ``+`` is its two-term case.  Algebra products
and compositions bring their left coefficients, their right coefficients
and their structure constants over one denominator each with the same
helper.  Every tree measure has a denominator c*(t-1)^leaves, and so has
every embedding quotient and every structure constant, a sum of such
quotients, so these sums and products take no gcd unless a coefficient
brings another denominator.  Negation, the inverse, scaling by a rational
number and division by one only move the sign, the sides and the integer
content of a normal form and run no gcd either.

Algebra products sum their slots by Kronecker substitution (Kronecker
1882; D. Harvey, J. Symb. Comput. 44(10), 2009).  ``Poly._pack(b)`` is the
value at t = 2^b, so polynomial products and sums become integer ones;
``Poly._unpack(n, b)`` reads n back as balanced base-2^b digits, each in
[-2^(b-1), 2^(b-1)).  The digits of a value are unique, so reading them
back is exact whenever every coefficient lies below 2^(b-1) in absolute
value; the caller picks b from a bound on the coefficients, such as
|pq|_inf <= |p|_1 |q|_1.

The serialized form is ``num_poly + " / " + den_poly`` with polynomials
written highest degree first, e.g. ``t^3-4*t^2+4*t / t^4-4*t^3+6*t^2-4*t+1``.
A denominator equal to 1 is omitted.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Scalar = Union[int, Fraction]


class PoleError(ZeroDivisionError):
    """A denominator vanished at the evaluation point."""

    def __init__(self, point: Fraction, factor: str):
        super().__init__("pole at t=%s (vanishing factor %s)" % (point, factor))
        self.point = point
        self.factor = factor


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError("expected an int or Fraction, got %r" % (c,))


_new = object.__new__


def _split(coeffs: Sequence[int]) -> Tuple[int, Sequence[int]]:
    """(g, p) with coeffs = g * p, g positive and p primitive; coeffs must
    not all be zero."""
    g = gcd(*coeffs)
    return g, (coeffs if g == 1 else [x // g for x in coeffs])


def _prem(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """A nonzero integer multiple of the remainder of a by b (deg b >= 0).

    Each step scales the running remainder by lc(b)/h and subtracts
    (lead/h) * t^k * b with h = gcd(lead, lc(b)): the leading term cancels
    and no fraction arises.
    """
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) > db:
        lead = r.pop()
        if not lead:
            continue
        k = len(r) - db
        h = gcd(lead, lb)
        m, s = lead // h, lb // h
        if s == 1:
            r[k:] = [x - m * y for x, y in zip(r[k:], b)]
        else:
            r[:k] = [s * x for x in r[:k]]
            r[k:] = [s * x - m * y for x, y in zip(r[k:], b)]
    while r and not r[-1]:
        r.pop()
    return r


class Poly:
    """A polynomial in t over Z, stored as a tuple of ``int`` coefficients
    by degree.

    No trailing zero coefficients; the zero polynomial is the empty tuple.
    Any other coefficient type, ``bool``, ``float`` and ``Fraction``
    included, raises ``TypeError``.  Instances are immutable and usable as
    dict keys.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                raise TypeError("Poly coefficients must be int, got %r" % (c,))
        while cs and not cs[-1]:
            cs.pop()
        _set_coeffs(self, tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _of(cs: Sequence[int]) -> "Poly":
        """Trusted: cs are ints, as every ring operation on int coefficients
        gives; trailing zeros are stripped and nothing is checked."""
        if cs and not cs[-1]:
            cs = list(cs)
            while cs and not cs[-1]:
                cs.pop()
        out = _new(Poly)
        _set_coeffs(out, tuple(cs))
        return out

    def _pack(self, b: int) -> int:
        """The value at t = 2^b: the coefficients as base-2^b digits."""
        n = 0
        for c in reversed(self.coeffs):
            n = (n << b) + c
        return n

    @staticmethod
    def _unpack(n: int, b: int) -> "Poly":
        """The polynomial p with p(2^b) = n, read as balanced base-2^b
        digits: exact when every coefficient of p is below 2^(b-1) in
        absolute value (see the module docstring)."""
        mask, half, cs = (1 << b) - 1, 1 << (b - 1), []
        while n:
            c = n & mask
            if c >= half:
                c -= mask + 1
            cs.append(c)
            n = (n >> b) + (c < 0)
        return Poly._of(cs)

    @staticmethod
    def t() -> "Poly":
        return Poly((0, 1))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b) :])
        return Poly._of(out)

    def __neg__(self) -> "Poly":
        return Poly._of(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly._of(())
        if len(a) < len(b):
            a, b = b, a
        n = len(b)
        if n == 1:  # a constant factor: no zero can appear on top
            c = b[0]
            return Poly._of(a if c == 1 else [x * c for x in a])
        out = [0] * (len(a) + n - 1)
        for i, ca in enumerate(a):
            if ca:
                out[i : i + n] = [o + ca * cb for o, cb in zip(out[i : i + n], b)]
        return Poly._of(out)

    def scale(self, c: int) -> "Poly":
        if type(c) is not int:
            raise TypeError("Poly coefficients must be int, got %r" % (c,))
        return Poly._of([x * c for x in self.coeffs])

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly((1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "Poly") -> Tuple["Poly", "Poly"]:
        """Quotient and remainder in Z[t]; ValueError when a quotient
        coefficient is not an integer (exact division and division by a
        monic polynomial never do that)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        b = other.coeffs
        d, lead = len(b) - 1, b[-1]
        rem = list(self.coeffs)
        q = [0] * max(0, len(rem) - d)
        for k in range(len(q) - 1, -1, -1):
            top = rem.pop()
            if top:
                f, r = divmod(top, lead)
                if r:
                    raise ValueError("%s does not divide %s in Z[t]" % (other, self))
                q[k] = f
                rem[k:] = [x - f * y for x, y in zip(rem[k:], b)]
        return Poly._of(q), Poly._of(rem)

    def gcd(self, other: "Poly") -> "Poly":
        """Primitive greatest common divisor: integer coefficients with
        content 1 and a positive leading coefficient (zero only for two
        zeros), by the primitive remainder sequence over Z."""
        a, b = self.coeffs, other.coeffs
        if len(a) == 1 or len(b) == 1:
            return Poly((1,))
        if not a or not b:
            if not (a or b):
                return Poly()
            g = _split(a or b)[1]
        else:
            a, b = _split(a)[1], _split(b)[1]
            if len(a) < len(b):
                a, b = b, a
            while True:
                r = _prem(a, b)
                if not r:
                    break
                if len(r) == 1:
                    return Poly((1,))
                a, b = b, _split(r)[1]
            g = b
        return Poly._of(g if g[-1] > 0 else [-c for c in g])

    def evaluate(self, t: Scalar) -> Fraction:
        # Horner's rule on t = p/q scaled by q^degree, so the integer
        # coefficients meet one division at the end
        t = _as_fraction(t)
        p, q = t.numerator, t.denominator
        acc, qpow = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * p + c * qpow
            qpow *= q
        return Fraction(acc, qpow // q) if self.coeffs else Fraction(0)

    def sqrt(self) -> Optional["Poly"]:
        """The square root in Z[t] with positive leading coefficient, or
        None.  By Gauss's lemma an integer polynomial that is a square over
        Q is one over Z."""
        if self.is_zero():
            return Poly()
        lead = self.coeffs[-1]
        root_lead = isqrt(max(lead, 0))
        if self.degree % 2 or root_lead * root_lead != lead:
            return None
        half = self.degree // 2
        out = [0] * (half + 1)
        out[half] = root_lead
        acc = Poly(out)
        # top-down coefficient recovery: at step k the residual agrees with
        # the square above degree half+k, so its half+k coefficient fixes
        # out[k] (possibly zero)
        for k in range(half - 1, -1, -1):
            diff = self - acc * acc
            if diff.is_zero():
                break
            if diff.degree > half + k:
                return None
            if diff.degree == half + k:
                out[k], r = divmod(diff.coeffs[-1], 2 * root_lead)
                if r:
                    return None
                acc = Poly(out)
        return acc if (acc * acc) == self else None

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return "Poly(%s)" % (self,)


_set_coeffs = Poly.coeffs.__set__  # writes the slot past Poly.__setattr__


def _div_one(cs: Sequence[int]) -> List[int]:
    """cs / (t-1) by synthetic division, for coefficients cs (lowest degree
    first) that sum to zero, i.e. vanish at t = 1: the quotient's
    coefficients are the partial sums of cs from the top."""
    return list(accumulate(reversed(cs)))[-2::-1]


def poly_to_str(p: Poly, var: str = "t") -> str:
    if p.is_zero():
        return "0"
    parts = []
    for d in range(p.degree, -1, -1):
        c = p.coeffs[d]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else "%d*" % mag
            body = head + (var if d == 1 else "%s^%d" % (var, d))
        parts.append(sign + body)
    return "".join(parts)


_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)"
    r"(?:(?P<coeff>\d+(?:/\d*[1-9]\d*)?)(?:\*)?)?"  # no zero denominator
    r"(?P<var>[A-Za-z]+)?"
    r"(?:\^(?P<exp>\d+))?"
)


def _parse_terms(text: str, var: str = "t") -> Tuple[Poly, int]:
    """(p, d): the polynomial written in ``text``, whose coefficients may be
    fractions ``a/b``, as an integer polynomial p over the least common
    denominator d of its coefficients."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    coeffs: dict = {}
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if m is None or m.end() == pos:
            raise ValueError("malformed polynomial %r at %d" % (text, pos))
        sign = -1 if m.group("sign") == "-" else 1
        coeff, v, exp = m.group("coeff", "var", "exp")
        if v is None:
            if coeff is None:
                raise ValueError("malformed polynomial %r" % (text,))
            d = 0
        else:
            if v != var:
                raise ValueError("unknown variable %r in %r" % (v, text))
            d = int(exp) if exp is not None else 1
        coeffs[d] = coeffs.get(d, 0) + sign * Fraction(coeff or 1)
        pos = m.end()
    den = lcm(*[c.denominator for c in coeffs.values()])
    out = [0] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c.numerator * (den // c.denominator)
    return Poly(out), den


def parse_poly(text: str, var: str = "t") -> Poly:
    """Parse the serialization produced by :func:`poly_to_str`; a
    non-integral coefficient raises ValueError."""
    p, den = _parse_terms(text, var)
    if den != 1:
        raise ValueError("non-integral coefficient in polynomial %r" % (text,))
    return p


class RatFun:
    """A normalized rational function num/den in the variable t.

    Normalization: num and den are coprime, have integer coefficients with
    joint content 1, and den has a positive leading coefficient.  Equality
    and hashing are structural on the normalized pair.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = Poly((1,))):
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
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _normal(num: Poly, den: Poly) -> "RatFun":
        """Trusted: num/den already in the normal form; nothing is checked."""
        out = object.__new__(RatFun)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    @staticmethod
    def from_scalar(c: Scalar) -> "RatFun":
        c = _as_fraction(c)  # in lowest terms with a positive denominator
        return RatFun._normal(Poly._of((c.numerator,)), Poly._of((c.denominator,)))

    @staticmethod
    def sum(pairs: Iterable[Tuple[Poly, Poly]]) -> "RatFun":
        """The sum of the fractions num/den over (num, den) pairs of integer
        polynomials in any form, normalized once; the shared ``ZERO`` when
        it vanishes.  Numerators of equal denominators are added as they
        come, so a repeated denominator costs one polynomial addition."""
        by_den: Dict[Tuple[int, ...], Tuple[Poly, Poly]] = {}
        for num, den in pairs:
            if not den:
                raise ZeroDivisionError("rational function with zero denominator")
            if num:
                prev = by_den.get(den.coeffs)
                by_den[den.coeffs] = (den, num if prev is None else prev[1] + num)
        terms = [(den, num) for den, num in by_den.values() if num]
        if not terms:
            return ZERO
        muls, den = _common_denominator([d for d, _ in terms])
        total = sum((num * m for (_, num), m in zip(terms, muls)), Poly._of(()))
        return RatFun(total, den) if total else ZERO

    @staticmethod
    def zero() -> "RatFun":
        return RatFun(Poly())

    @staticmethod
    def one() -> "RatFun":
        return RatFun(Poly((1,)))

    @staticmethod
    def t() -> "RatFun":
        return RatFun(Poly((0, 1)))

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFun.from_scalar(other)
        return (
            isinstance(other, RatFun)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- field operations ----------------------------------------------

    def _coerce(self, other) -> "RatFun":
        if isinstance(other, RatFun):
            return other
        return RatFun.from_scalar(other)

    def __add__(self, other) -> "RatFun":
        o = self._coerce(other)
        return RatFun.sum(((self.num, self.den), (o.num, o.den)))

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        return RatFun._normal(-self.num, self.den)

    def __sub__(self, other) -> "RatFun":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RatFun":
        return self._coerce(other) - self

    def __mul__(self, other) -> "RatFun":
        if isinstance(other, RatFun):
            return RatFun(self.num * other.num, self.den * other.den)
        return self._scaled(_as_fraction(other))

    __rmul__ = __mul__

    def _scaled(self, c: Fraction) -> "RatFun":
        """self * c.  The polynomial parts stay coprime, so only the integer
        content and the sign change: a = c's numerator cancels against the
        content of den, b = c's denominator against that of num."""
        a, b = c.numerator, c.denominator
        if not a or not self.num:
            return RatFun.zero()
        ha, hb = gcd(a, *self.den.coeffs), gcd(b, *self.num.coeffs)
        a, b = a // ha, b // hb
        num = Poly._of([x // hb * a for x in self.num.coeffs])
        den = Poly._of([x // ha * b for x in self.den.coeffs])
        return RatFun._normal(num, den)

    def __truediv__(self, other) -> "RatFun":
        if isinstance(other, RatFun):
            return self * other.inverse()
        c = _as_fraction(other)
        if not c:
            raise ZeroDivisionError("rational function division by zero")
        return self._scaled(1 / c)

    def __rtruediv__(self, other) -> "RatFun":
        return self.inverse()._scaled(_as_fraction(other))

    def inverse(self) -> "RatFun":
        """1 / self: the coprime sides swap, with the sign moved so that the
        leading denominator coefficient stays positive; no gcd runs."""
        num, den = self.num, self.den
        if not num:
            raise ZeroDivisionError("rational function division by zero")
        if num.coeffs[-1] < 0:
            num, den = -num, -den
        return RatFun._normal(den, num)

    def __pow__(self, n: int) -> "RatFun":
        if n < 0:
            return self.inverse() ** (-n)
        return RatFun(self.num**n, self.den**n)

    def substitute(self, g: "RatFun") -> "RatFun":
        """The composition f(g(t)), with f = self."""

        def horner(p: Poly) -> "RatFun":
            acc = RatFun.zero()
            for c in reversed(p.coeffs):
                acc = acc * g + RatFun.from_scalar(c)
            return acc

        return horner(self.num) / horner(self.den)

    def evaluate(self, t: Scalar) -> Fraction:
        t = _as_fraction(t)
        dv = self.den.evaluate(t)
        if dv == 0:
            factor = "t" if not t else "t%s%s" % ("-" if t > 0 else "+", abs(t))
            raise PoleError(t, "(%s)" % factor)
        return self.num.evaluate(t) / dv

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        if self.den.coeffs == (1,):
            return poly_to_str(self.num)
        return "%s / %s" % (poly_to_str(self.num), poly_to_str(self.den))

    def __repr__(self) -> str:
        return "RatFun(%s)" % (self,)

    def factored(self, bound: int = 20) -> str:
        """Human-readable display with roots t-k (|k| <= bound) pulled out.

        The stored form stays expanded; this is for reports only.
        """
        num = _factored_poly_str(self.num, bound)
        if self.den.coeffs == (1,):
            return num
        return "%s / %s" % (num, _factored_poly_str(self.den, bound))


def _exact_quotient(a: Poly, b: Poly) -> Optional[Poly]:
    """a / b when b divides a in Z[t], else None."""
    if a == b:
        return Poly((1,))
    if b.degree > a.degree:
        return None
    try:
        q, r = a.divmod(b)
    except ValueError:  # a quotient coefficient left Z: no exact quotient
        return None
    return None if r else q


def _common_denominator(dens: Sequence[Poly]) -> Tuple[List[Poly], Poly]:
    """(muls, den) with muls[i] * dens[i] == den for nonzero integer
    polynomials dens, found without a gcd: den is the lcm of their contents
    times a product of their primitive parts.  Taken highest degree first, a
    primitive part that divides the product adds nothing (by Gauss's lemma
    the exact quotient lies in Z[t]), any other is multiplied in; so powers
    of t-1 meet at the highest one.
    """
    if len(dens) == 1:
        return [Poly._of((1,))], dens[0]
    parts = []
    for d in dens:
        c, p = _split(d.coeffs)
        if p[-1] < 0:
            c, p = -c, [-x for x in p]
        parts.append((c, Poly._of(p)))
    prim, quotient = Poly._of((1,)), {}
    for p in sorted(dict.fromkeys(p for _, p in parts), key=lambda p: -p.degree):
        q = _exact_quotient(prim, p)
        if q is None:
            quotient = {r: s * p for r, s in quotient.items()}
            q, prim = prim, prim * p
        quotient[p] = q
    content = lcm(*[c for c, _ in parts])
    muls = [quotient[p] if content == c else quotient[p].scale(content // c) for c, p in parts]
    return muls, prim.scale(content)


def _factored_poly_str(p: Poly, bound: int) -> str:
    """p with each t-k, |k| <= bound, pulled out by synthetic division:
    Horner's partial values at k are the quotient, then the remainder p(k).
    At k = 0 they are the coefficients themselves, and at k = 1 the partial
    sums, which ``accumulate`` adds with the built-in operator."""
    if p.is_zero():
        return "0"
    factors = []
    cs = p.coeffs[::-1]
    for k in range(-bound, bound + 1):
        horner = None if k == 1 else lambda a, c: a * k + c
        e = 0
        while len(cs) > 1:
            *q, r = cs if k == 0 else accumulate(cs, horner)
            if r:
                break
            cs, e = q, e + 1
        if e:
            base = "t" if k == 0 else "(%s)" % poly_to_str(Poly((-k, 1)))
            factors.append(base if e == 1 else "%s^%d" % (base, e))
    p = Poly._of(cs[::-1])
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


def parse_ratfun(text: str) -> RatFun:
    """Parse ``num_poly / den_poly`` (separator ' / ') or a bare polynomial.

    Coefficients may be fractions ``a/b``, so a bare ``p/q`` with integer p,
    q parses as the constant rational.
    """
    s = text.strip()
    num_s, sep, den_s = s.partition(" / ")
    num, dn = _parse_terms(num_s)
    den, dd = _parse_terms(den_s) if sep else (Poly((1,)), 1)
    if den.is_zero():
        raise ValueError("zero denominator in %r" % (text,))
    return RatFun(num.scale(dd), den.scale(dn))


def ratfun_sqrt(f: RatFun) -> Optional[RatFun]:
    """Exact square root in Q(t) if one exists, else None.

    The normal form has coprime sides with joint content 1 and a positive
    leading denominator coefficient, and so has the square of any root; so
    f is a square exactly when both of its sides are squares in Z[t].
    """
    num, den = f.num.sqrt(), f.den.sqrt()
    return None if num is None or den is None else RatFun(num, den)


ZERO = RatFun.zero()  # shared by every empty sum, as in the slots of a product
ONE = RatFun.one()
