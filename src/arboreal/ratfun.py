"""Exact arithmetic in one variable over arbitrary-precision rationals.

Polynomials are dense coefficient tuples holding a Python ``int`` for every
integral coefficient and a ``fractions.Fraction`` only for a non-integral
one.  A rational function normalizes to a coprime numerator/denominator pair
with integer coefficients, overall content 1, and a positive leading
denominator coefficient, so equal values always serialize to identical
strings.  Normalization stays in the integers: each side splits into its
rational content and primitive integer part, and the primitive parts are
divided by their gcd, taken by a primitive remainder sequence over Z.

The serialized form is ``num_poly + " / " + den_poly`` with polynomials
written highest degree first, e.g. ``t^3-4*t^2+4*t / t^4-4*t^3+6*t^2-4*t+1``.
A denominator equal to 1 is omitted.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Optional, Sequence, Tuple, Union

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


def _scalar(c: Scalar) -> Scalar:
    """c as an int when integral, else as a Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError("expected an int or Fraction, got %r" % (c,))


def _split(coeffs: Sequence[Scalar]) -> Tuple[int, int, Sequence[int]]:
    """(g, d, p) with coeffs = (g/d) * p, g and d positive and p primitive
    integer coefficients; coeffs must not all be zero."""
    try:
        d, ints, g = 1, coeffs, gcd(*coeffs)
    except TypeError:  # a Fraction among the coefficients
        d = lcm(*[c.denominator for c in coeffs])
        ints = [c.numerator * (d // c.denominator) for c in coeffs]
        g = gcd(*ints)
    return g, d, (ints if g == 1 else [x // g for x in ints])


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


def _quotient(c: Scalar, lead: Scalar) -> Scalar:
    """c / lead, with // whenever two ints divide exactly."""
    if type(c) is int and type(lead) is int:
        q, r = divmod(c, lead)
        if not r:
            return q
    return _scalar(Fraction(c) / lead)


class Poly:
    """A polynomial in t, stored as a tuple of coefficients by degree.

    No trailing zero coefficients; the zero polynomial is the empty tuple.
    Instances are immutable and usable as dict keys.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if type(c) is int else _scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: Scalar) -> "Poly":
        return Poly((c,))

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

    def leading(self) -> Scalar:
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

    def scale(self, c: Scalar) -> "Poly":
        c = _scalar(c)
        return Poly(tuple(x * c for x in self.coeffs))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "Poly") -> Tuple["Poly", "Poly"]:
        """Quotient and remainder over Q; exact integer quotients stay int."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        b = other.coeffs
        d, lead = len(b) - 1, b[-1]
        rem = list(self.coeffs)
        q = [0] * max(0, len(rem) - d)
        for k in range(len(q) - 1, -1, -1):
            top = rem.pop()
            if top:
                f = q[k] = _quotient(top, lead)
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
            g = _split(a or b)[2]
        else:
            a, b = _split(a)[2], _split(b)[2]
            if len(a) < len(b):
                a, b = b, a
            while True:
                r = _prem(a, b)
                if not r:
                    break
                if len(r) == 1:
                    return Poly((1,))
                a, b = b, _split(r)[2]
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

    # -- integer normalization --------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-primitive; 0 for zero."""
        if not self.coeffs:
            return Fraction(0)
        g, d, _ = _split(self.coeffs)
        return Fraction(g, d)

    def sqrt(self) -> Optional["Poly"]:
        """Exact square root with positive leading coefficient, or None."""
        if self.is_zero():
            return Poly()
        if self.degree % 2 != 0:
            return None
        lead = self.leading()
        if lead < 0:
            return None
        root_lead = _fraction_sqrt(lead)
        if root_lead is None:
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
                out[k] = diff.coeffs[-1] / (2 * root_lead)
                acc = Poly(out)
        return acc if (acc * acc) == self else None

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return "Poly(%s)" % (self,)


def _fraction_sqrt(c: Fraction) -> Optional[Fraction]:
    from math import isqrt

    if c < 0:
        return None
    a, b = isqrt(c.numerator), isqrt(c.denominator)
    if a * a == c.numerator and b * b == c.denominator:
        return Fraction(a, b)
    return None


def _coeff_str(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


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
            body = _coeff_str(mag)
        else:
            head = "" if mag == 1 else _coeff_str(mag) + "*"
            body = head + (var if d == 1 else "%s^%d" % (var, d))
        parts.append(sign + body)
    return "".join(parts)


_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)"
    r"(?:(?P<coeff>\d+(?:/\d+)?)(?:\*)?)?"
    r"(?P<var>[A-Za-z]+)?"
    r"(?:\^(?P<exp>\d+))?"
)


def parse_poly(text: str, var: str = "t") -> Poly:
    """Parse the serialization produced by :func:`poly_to_str`."""
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
        coeff = m.group("coeff")
        v = m.group("var")
        exp = m.group("exp")
        if v is None:
            if coeff is None:
                raise ValueError("malformed polynomial %r" % (text,))
            d = 0
        else:
            if v != var:
                raise ValueError("unknown variable %r in %r" % (v, text))
            d = int(exp) if exp is not None else 1
        c = Fraction(coeff) if coeff is not None else Fraction(1)
        coeffs[d] = coeffs.get(d, Fraction(0)) + sign * c
        pos = m.end()
    out = [Fraction(0)] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return Poly(out)


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
            gn, dn, pn = _split(num.coeffs)
            gd, dd, pd = _split(den.coeffs)
            num, den = Poly(pn), Poly(pd)
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            # primitive parts times the reduced content ratio (gn/dn)/(gd/dd):
            # both parts integer with joint content 1
            a, b = gn * dd, dn * gd
            h = gcd(a, b)
            a, b = a // h, b // h
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
    def from_scalar(c: Scalar) -> "RatFun":
        c = _as_fraction(c)
        return RatFun(Poly((c.numerator,)), Poly((c.denominator,)))

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
        return RatFun(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den)

    def __sub__(self, other) -> "RatFun":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RatFun":
        return self._coerce(other) - self

    def __mul__(self, other) -> "RatFun":
        o = self._coerce(other)
        return RatFun(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

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
            factor = poly_to_str(Poly((-t, 1)))
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
            return _coeff_str(c)
        if c == -1:
            lead = "-"
        elif c != 1:
            lead = _coeff_str(c) + "*"
    else:
        factors.append("(%s)" % poly_to_str(p))
    return lead + "*".join(factors)


def parse_ratfun(text: str) -> RatFun:
    """Parse ``num_poly / den_poly`` (separator ' / ') or a bare polynomial.

    A bare ``p/q`` with integer p, q parses as the constant rational.
    """
    s = text.strip()
    if " / " in s:
        num_s, den_s = s.split(" / ", 1)
        return RatFun(parse_poly(num_s), parse_poly(den_s))
    if re.fullmatch(r"-?\d+(?:/\d+)?", s):
        return RatFun.from_scalar(Fraction(s))
    return RatFun(parse_poly(s))


def bracket(n: int) -> Poly:
    """The degree n-2 product of (t-k) for k = 2, ..., n-1.

    Defined for n >= 3; bracket(3) = t-2.
    """
    if n < 3:
        raise ValueError("bracket requires n >= 3, got %d" % n)
    out = Poly((1,))
    for k in range(2, n):
        out = out * Poly((-k, 1))
    return out


def ratfun_sqrt(f: RatFun) -> Optional[RatFun]:
    """Exact square root in Q(t) if one exists, else None."""
    if f.is_zero():
        return RatFun.zero()
    num = f.num.sqrt()
    den = f.den.sqrt()
    if num is None or den is None:
        # retry with content pulled out: c*p^2 with square rational c
        cn, cd = f.num.content(), f.den.content()
        if f.num.leading() < 0:
            return None
        sn = _fraction_sqrt(cn)
        sd = _fraction_sqrt(cd)
        if sn is None or sd is None:
            return None
        pn = f.num.scale(1 / cn).sqrt()
        pd = f.den.scale(1 / cd).sqrt()
        if pn is None or pd is None:
            return None
        return RatFun(pn.scale(sn), pd.scale(sd))
    return RatFun(num, den)


ONE = RatFun.one()
