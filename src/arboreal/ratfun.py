"""Exact arithmetic with rational functions in one variable.

Polynomials are integer polynomials: dense tuples of Python ``int``
coefficients.  A rational function normalizes to a coprime
numerator/denominator pair of integer polynomials with overall content 1 and
a positive leading denominator coefficient, so equal values always serialize
to identical strings.  Normalization stays in the integers: each side splits
into its integer content and primitive part, and the primitive parts are
divided by their gcd, taken by a primitive remainder sequence over Z.  By
Gauss's lemma (Knuth, TAOCP vol. 2, 4.6.1) products and exact quotients of
primitive polynomials stay primitive, so no rational coefficient is ever
needed; the parser clears the denominators of the ones it reads.

Sums normalize once.  ``RatFun.sum`` (and ``FractionSum``, its running
form, which algebra products and compositions keep per output slot) takes
unnormalized num/den pairs, adds the numerators of equal denominators as it
reads them, brings the distinct denominators together (by an exact quotient
where one divides another, else by cross-multiplying) and runs one gcd at
the end; ``+`` is its two-term case.  Tree measures all have denominators
c*(t-1)^leaves, so a sum of measures meets one gcd however many terms it
has.  Negation and scaling by a rational number only move the sign and the
integer content of a normal form and run no gcd at all.

The serialized form is ``num_poly + " / " + den_poly`` with polynomials
written highest degree first, e.g. ``t^3-4*t^2+4*t / t^4-4*t^3+6*t^2-4*t+1``.
A denominator equal to 1 is omitted.
"""

from __future__ import annotations

import re
from fractions import Fraction
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
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

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
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        if len(a) < len(b):
            a, b = b, a
        n = len(b)
        out = [0] * (len(a) + n - 1)
        for i, ca in enumerate(a):
            if ca:
                out[i : i + n] = [o + ca * cb for o, cb in zip(out[i : i + n], b)]
        return Poly(out)

    def scale(self, c: int) -> "Poly":
        return Poly(tuple(x * c for x in self.coeffs))

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
        return Poly(q), Poly(rem)

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
        return Poly(g if g[-1] > 0 else [-c for c in g])

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
            num, den = Poly(pn), Poly(pd)
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
        return RatFun._normal(Poly((c.numerator,)), Poly((c.denominator,)))

    @staticmethod
    def sum(pairs: Iterable[Tuple[Poly, Poly]]) -> "RatFun":
        """The sum of the fractions num/den over (num, den) pairs of integer
        polynomials in any form, normalized once (see ``FractionSum``)."""
        acc = FractionSum()
        for num, den in pairs:
            acc.add(num, den)
        return acc.value()

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
        num = Poly([x // hb * a for x in self.num.coeffs])
        den = Poly([x // ha * b for x in self.den.coeffs])
        return RatFun._normal(num, den)

    def __truediv__(self, other) -> "RatFun":
        o = self._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("rational function division by zero")
        return RatFun(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "RatFun":
        return self._coerce(other) / self

    def inverse(self) -> "RatFun":
        return RatFun.one() / self

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


class FractionSum:
    """A running sum of fractions num/den of integer polynomials.

    ``add`` folds each term into a map from denominator to summed numerator,
    so a repeated denominator costs one polynomial addition and no term is
    kept.  ``value`` brings the distinct denominators together, highest
    degree first, over one running denominator content * prim with prim
    primitive and of positive leading coefficient: a term whose primitive
    denominator divides prim is scaled by the quotient (by Gauss's lemma
    that quotient lies in Z[t]), any other is cross-multiplied in.  The
    result is normalized once.
    """

    __slots__ = ("_by_den",)

    def __init__(self):
        self._by_den: Dict[Poly, Poly] = {}

    def add(self, num: Poly, den: Poly) -> None:
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num:
            prev = self._by_den.get(den)
            self._by_den[den] = num if prev is None else prev + num

    def value(self) -> RatFun:
        terms = [(den, num) for den, num in self._by_den.items() if num]
        if not terms:
            return ZERO
        if len(terms) == 1:
            den, num = terms[0]
            return RatFun(num, den)
        terms.sort(key=lambda term: -term[0].degree)
        total, content, prim = Poly(), 1, Poly((1,))
        for den, num in terms:
            c, p = _split(den.coeffs)
            if p[-1] < 0:
                num, p = -num, [-x for x in p]
            p = Poly(p)
            m = lcm(content, c)
            if m != content:
                total = total.scale(m // content)
            if m != c:
                num = num.scale(m // c)
            content = m
            q = _exact_quotient(prim, p)
            if q is None:
                total, prim = total * p + num * prim, prim * p
            else:
                total = total + num * q
        return RatFun(total, prim.scale(content))


def _factored_poly_str(p: Poly, bound: int) -> str:
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
