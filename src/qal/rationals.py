"""Exact rational helpers: parsing, formatting, integer roots and power bounds.

Everything here is pure integer/Fraction arithmetic; no rounding occurs
except in the explicitly directed root-bound functions, which always
round outward.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, QalSyntaxError

_FACTORIALS = [1, 1]


def factorial(n: int) -> int:
    if n < 0:
        raise DomainError(f"factorial of the negative integer {n}")
    while len(_FACTORIALS) <= n:
        _FACTORIALS.append(_FACTORIALS[-1] * len(_FACTORIALS))
    return _FACTORIALS[n]


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


def parse_fraction(text: str, position: int = 0) -> Fraction:
    """Parse 'p/q', an integer, or a decimal literal into an exact Fraction.

    Decimal literals are read digit-exactly (no binary float round trip).
    """
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        if "." in s or "e" in s or "E" in s:
            return Fraction(s)
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise QalSyntaxError(f"invalid rational literal {text!r}: {exc}", position) from None


def format_fraction(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


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
    if x < 0:
        raise DomainError("root_bounds needs a nonnegative radicand")
    if x == 0:
        return Fraction(0), Fraction(0)
    num, den = x.numerator, x.denominator
    # x^(1/k) = (num * den^(k-1))^(1/k) / den
    big = num * den ** (k - 1)
    shift = bits + max(0, den.bit_length())
    r, exact = iroot(big << (k * shift), k)
    scale = den << shift
    lo = Fraction(r, scale)
    if exact:
        return lo, lo
    return lo, Fraction(r + 1, scale)


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


def compare_power_products(left: list[tuple[Fraction, Fraction]],
                           right: list[tuple[Fraction, Fraction]]) -> int:
    """Exactly compare two products of rational powers of positive rationals.

    Each side is a list of (base, exponent) pairs standing for the product
    of base^exponent.  Returns -1, 0 or 1.  Exponent denominators are
    cleared to a common multiple, which turns the comparison into one
    between exact rational numbers.
    """
    denom = 1
    for _, e in left + right:
        denom = denom * e.denominator // math.gcd(denom, e.denominator)
    lv = Fraction(1)
    for b, e in left:
        if b <= 0:
            raise DomainError("bases must be positive")
        lv *= b ** int(e * denom)
    rv = Fraction(1)
    for b, e in right:
        if b <= 0:
            raise DomainError("bases must be positive")
        rv *= b ** int(e * denom)
    return (lv > rv) - (lv < rv)
