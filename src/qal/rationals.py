"""Exact rational helpers: the input contract, the text lexer,
formatting, integer roots and power bounds.

The input contract.  Every public operation of ``qal`` checks its
arguments with four helpers, and each of them raises
:class:`~qal.errors.DomainError`, code ``domain-error``, on a value it
does not accept:

* :func:`_order` -- an order, degree, index, size or precision: an int
  that is not a bool, optionally within the bounds ``least`` and
  ``most``;
* :func:`_rational` -- exact data: an int that is not a bool, or a
  Fraction, returned as a Fraction;
* :func:`_rationals` -- a list or tuple of exact data, returned as a list
  of Fractions;
* :func:`_instance` -- an object of a given class, such as a
  ``CarlemanSequence``, a ``MultiPoly`` or a variable name (a str).

Checks of a domain-specific shape (a germ, a polynomial over a number
field, a tuple of variable names) are written on these helpers in the
module that owns the shape.  Two checks stand apart on purpose: the
interval kernel's ``_data`` tests the common types first on its hot path
and falls back to :func:`_rational`, and the sequence factories read
floats and text such as ``0.5`` and ``'1/2'`` through
``sequences._number``.

Everything here is pure integer/Fraction arithmetic; no rounding occurs
except in the explicitly directed root-bound functions, which always
round outward.  A Fraction whose lowest terms are known, such as a dyadic
m/2^s reduced by the trailing zeros of m, is built without a gcd through
Fraction's two slots (:func:`_fraction`, :func:`_dyadic`), as the
interval kernel builds its endpoints.

One lexer, :class:`TokenCursor`, reads the polynomial grammar and the
sequence DSL.  Its tokens are ``number`` literals, ``name``s and single
``char``s.  The literal rule: an integer, ``p/q``, or a decimal such as
``1.5``, ``.5`` or ``5.`` with an optional exponent ``1.5e-3``; unsigned,
and converted exactly, never through a binary float.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import DomainError, QalSyntaxError


def _order(value, what: str, least: int | None = None, most: int | None = None) -> int:
    """value as an order, degree, index or precision: an int that is not a
    bool, and least <= value <= most for the bounds given, otherwise
    DomainError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise DomainError(f"{what} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise DomainError(f"{what} must be <= {most}, got {value}")
    return value


def _rational(value, what: str) -> Fraction:
    """value as exact data: an int that is not a bool, or a Fraction,
    otherwise DomainError."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise DomainError(f"{what} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


def _rationals(values, what: str) -> list[Fraction]:
    """values, a list or tuple of exact data, as a list of Fractions,
    otherwise DomainError."""
    if not isinstance(values, (list, tuple)):
        raise DomainError(f"{what} must be a list of ints and Fractions, got {values!r}")
    return [_rational(x, what) for x in values]


def _instance(value, cls, what: str):
    """value if it is an instance of cls (a class or a tuple of classes),
    otherwise DomainError."""
    if not isinstance(value, cls):
        names = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise DomainError(f"{what} must be a {names}, got {type(value).__name__}")
    return value


_new = object.__new__


def _fraction(n: int, d: int) -> Fraction:
    """The Fraction n/d for n/d already in lowest terms with d >= 1, built
    without Fraction's gcd through its two slots ``_numerator`` and
    ``_denominator``, which the interval kernel also reads."""
    q = _new(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def _dyadic(m: int, d: int) -> Fraction:
    """m/d in lowest terms for a power of two d: the gcd of m and d is the
    power of two that divides m, capped at d."""
    if m & 1 or d == 1:
        return _fraction(m, d)
    if not m:
        return _fraction(0, 1)
    t = min(m & -m, d).bit_length() - 1
    return _fraction(m >> t, d >> t)


def factorial(n: int) -> int:
    if n < 0:
        raise DomainError(f"factorial of the negative integer {n}")
    return math.factorial(n)


def falling(n: int, k: int) -> int:
    """n·(n-1)···(n-k+1), the falling factorial; 1 for k = 0."""
    out = 1
    for i in range(k):
        out *= n - i
    return out


def stirling2_row(j: int) -> list[int]:
    """Row j of the Stirling numbers of the second kind S(j, 0..j)."""
    row = [1]
    for n in range(1, j + 1):
        new = [0] * (n + 1)
        for k in range(1, n + 1):
            new[k] = k * (row[k] if k < n else 0) + row[k - 1]
        row = new
    return row


_LEXEME_RE = re.compile(r"(?P<number>[0-9]+/[0-9]+|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?)"
                        r"|(?P<name>[A-Za-z_]\w*)|(?P<char>\S)")

class TokenCursor:
    """The (kind, text, offset) tokens of a text, the last one
    ("end", "", len(text)), and a position among them."""

    __slots__ = ("tokens", "index")

    def __init__(self, text: str):
        if not isinstance(text, str):
            raise DomainError(f"the text to parse must be a str, got {type(text).__name__}")
        self.tokens = [(m.lastgroup, m.group(), m.start()) for m in _LEXEME_RE.finditer(text)]
        self.tokens.append(("end", "", len(text)))
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def take(self, kind: str, text: str | None = None) -> tuple[str, str, int]:
        """The next token, which must be of this kind (and text, if given);
        otherwise QalSyntaxError at its offset."""
        token = self.tokens[self.index]
        if token[0] != kind or text not in (None, token[1]):
            wanted = repr(text) if text else kind
            found = repr(token[1]) if token[1] else "end of input"
            raise QalSyntaxError(f"expected {wanted}, found {found}", token[2])
        self.index += 1
        return token

    def accept(self, text: str) -> bool:
        """Skip the next token if it is this text."""
        if self.tokens[self.index][1] == text:
            self.index += 1
            return True
        return False

    def number(self) -> Fraction:
        """An optional sign and a literal, as an exact Fraction."""
        sign = self.peek()[1]
        self.index += sign in ("+", "-")
        _, text, offset = self.take("number")
        if "/" in text:
            p, q = map(int, text.split("/"))
            if not q:
                raise QalSyntaxError(f"zero denominator in {text!r}", offset)
            value = Fraction(p, q)
        elif text.isdigit():
            value = Fraction(int(text))
        else:
            value = Fraction(text)
        return -value if sign == "-" else value


def format_fraction(x: Fraction) -> str:
    """'p/q', or 'p' for an integer."""
    return str(Fraction(x))


def iroot(n: int, k: int) -> tuple[int, bool]:
    """Floor k-th root of n >= 0 plus a flag telling whether it is exact."""
    if n < 0 or k < 1:
        raise DomainError("iroot expects n >= 0, k >= 1")
    if n in (0, 1) or k == 1:
        return n, True
    if k == 2:
        r = math.isqrt(n)
        return r, r * r == n
    # Newton iteration on integers, seeded from the bit length.
    r = 1 << -(-n.bit_length() // k)
    while True:
        nr = ((k - 1) * r + n // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r**k > n:
        r -= 1
    return r, r**k == n


def root_bounds(x: Fraction, k: int, bits: int) -> tuple[Fraction, Fraction]:
    """Outward bounds lo <= x^(1/k) <= hi for x >= 0, with hi - lo <= 2^-bits
    in absolute terms after denominator scaling.
    """
    num, den = x.numerator, x.denominator
    if num < 0:
        raise DomainError("root_bounds needs a nonnegative radicand")
    if num == 0:
        return Fraction(0), Fraction(0)
    # x^(1/k) = (num * den^(k-1))^(1/k) / den
    big = num * den ** (k - 1)
    shift = bits + max(0, den.bit_length())
    r, exact = iroot(big << (k * shift), k)
    scale = den << shift
    # for a power of two den the bounds are dyadic: no gcd is needed
    make = Fraction if den & (den - 1) else _dyadic
    lo = make(r, scale)
    if exact:
        return lo, lo
    return lo, make(r + 1, scale)


def grid_root(n: int, d: int, q: int, p: int) -> tuple[Fraction, Fraction]:
    """The tightest enclosure (lo, hi) of r = X^(1/q), X = n/d, on the
    dyadic grid 2^(e-p) Z with e = floor((E - 1)/q) and E the bit length
    of n minus that of d; lo == hi exactly when r lies on the grid.  n >= 0
    and d >= 1 are ints, not necessarily coprime.

    The grid: 2^(E-1) < X < 2^(E+1), so r >= 2^e and lo has a mantissa of
    at least p + 1 bits, at most p + 3.  Take w with r/2 <= w <= 2r, so
    2^(e-1) <= w.  If w = m/2^t in lowest terms, t >= 0, and m and 2^t
    have at most p bits together, then e <= len(m) - t, so t < p - e and w
    lies on the grid.  The interval kernel's outward rounding at a
    precision p' <= p (``intervals._floor_nd``) puts w on steps of
    2^(E_w + 1 - p') with E_w >= floor(log2 w) >= e - 1, points of the
    grid too.  So [lo, hi] lies inside every enclosure of r whose two
    endpoints are of either kind and within a factor 2 of r.

    Proof of the enclosure.  Let s = p - e and f = floor(X 2^(qs)), the
    quotient of one integer division, with remainder rest.  For an int
    t >= 0, t <= r 2^s iff t^q <= X 2^(qs) iff t^q <= f, since t^q is an
    int.  So t = ``iroot(f, q)`` is floor(r 2^s), and lo = t 2^-s <= r.  r
    is on the grid iff t^q = X 2^(qs), that is iff the root is exact
    (t^q = f) and rest = 0; then lo = r.  Otherwise t < r 2^s < t + 1, so
    hi = (t + 1) 2^-s, one grid step above lo, is the least grid point
    above r.
    """
    if n < 0 or d < 1 or q < 1 or p < 1:
        raise DomainError("grid_root expects n >= 0, d >= 1, q >= 1 and p >= 1")
    if not n:
        return Fraction(0), Fraction(0)
    s = p - (n.bit_length() - d.bit_length() - 1) // q
    t = q * s
    f, rest = divmod(n << t, d) if t >= 0 else divmod(n, d << -t)
    r, exact = iroot(f, q)
    if s >= 0:
        lo = _dyadic(r, 1 << s)
        return (lo, lo) if exact and not rest else (lo, _dyadic(r + 1, 1 << s))
    lo = _fraction(r << -s, 1)
    return (lo, lo) if exact and not rest else (lo, _fraction((r + 1) << -s, 1))


def pow_bounds(x: Fraction, s: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Outward bounds for x^s with x > 0 and s rational.

    Exact (lo == hi) whenever x^s is rational, e.g. integer s or a perfect
    power radicand.
    """
    if x <= 0:
        raise DomainError("pow_bounds needs a positive base")
    p, q = s.numerator, s.denominator
    xp = x**p  # exact Fraction, possibly huge
    if q == 1:
        return xp, xp
    lo, hi = root_bounds(xp, q, bits)
    if lo <= 0:  # xp > 0 but the floor root can be 0 at tiny magnitudes
        lo = Fraction(1, (xp.denominator + 1) << (bits * q))
    return lo, hi


def exact_pow(x: Fraction, s: Fraction) -> Fraction | None:
    """x^s as an exact Fraction when that value is rational, else None."""
    if x == 0:
        return Fraction(0) if s > 0 else None
    if x < 0 and s.denominator != 1:
        return None
    p, q = s.numerator, s.denominator
    xp = x**p
    if q == 1:
        return xp
    rn, en = iroot(xp.numerator, q)
    if not en:
        return None
    rd, ed = iroot(xp.denominator, q)
    if not ed:
        return None
    return Fraction(rn, rd)

