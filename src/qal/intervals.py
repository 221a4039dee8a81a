"""Certified interval arithmetic with rational endpoints.

Endpoints are always Fractions.  Outside :func:`certify`, ring operations
on :class:`RI` are exact.  Inside it, a working precision p is set, and
``+``, ``*`` and the reciprocal of ``/`` round every endpoint of a
non-point result that has more than 2p bits (numerator plus denominator)
outward to a p-bit mantissa times a power of two: lower endpoints down,
upper endpoints up.  Point results are never rounded, so exact rational
data stay exact, while the endpoints of irrational quantities no longer
grow without bound (ball/dyadic arithmetic as in Arb).

The kernel forms only the endpoints it keeps, with the same bits as the
general formulas.  A product of two nonnegative intervals is
[lo*lo', hi*hi'], the sign case of Moore's interval product; any other
product takes the min and max of the four endpoint products.  A power of
a point is its exact power.  A power of a nonnegative interval runs the
square-and-multiply chain on each endpoint alone, rounding every step as
the interval chain rounds it; other bases run the interval chain.

Transcendental functions go through mpmath's interval context at a
requested bit precision and come back as exact dyadic endpoints, so the
enclosure property is preserved end to end.  Cosine and sine of one
argument come from one mpmath evaluation (:func:`iv_cos_sin`).

:func:`certify` runs a certification step at escalating precision: from
``QAL_PRECISION_BITS`` (environment variable, default 256 bits), doubling
up to the cap of 4096 bits.
"""

from __future__ import annotations

import contextvars
import os
from fractions import Fraction
from typing import Callable, TypeVar

import mpmath.libmp as _libmp
from mpmath import iv as _iv

from .errors import CertificationError, DomainError
from .rationals import pow_bounds

PRECISION_CAP = 4096
_DEFAULT_BITS = 256
# working precision = attempt bits + guard bits, so that the rounding of a
# chain of ring operations stays below the attempt's own resolution
_GUARD_BITS = 32
# the working precision p of the current certify attempt; None means exact
_WORKING: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "qal_working_precision", default=None)

_T = TypeVar("_T")


def default_bits() -> int:
    raw = os.environ.get("QAL_PRECISION_BITS")
    if not raw:
        return _DEFAULT_BITS
    try:
        bits = int(raw)
    except ValueError:
        return _DEFAULT_BITS
    return max(8, min(bits, PRECISION_CAP))


def _floor_dyadic(q: Fraction, p: int) -> Fraction:
    """q rounded down to m * 2^-s, with s fixed by the size of q so that
    the mantissa |m| is at most 2^p."""
    n, d = q.numerator, q.denominator
    s = p - 1 - n.bit_length() + d.bit_length()   # |q| * 2^s < 2^p
    if s >= 0:
        return Fraction((n << s) // d, 1 << s)
    return Fraction((n // (d << -s)) << -s)


def _round_down(q: Fraction, p: int) -> Fraction:
    """q, or q rounded down to p bits when it has more than 2p bits."""
    if q.numerator.bit_length() + q.denominator.bit_length() > 2 * p:
        return _floor_dyadic(q, p)
    return q


def _round_up(q: Fraction, p: int) -> Fraction:
    """q, or q rounded up to p bits when it has more than 2p bits."""
    if q.numerator.bit_length() + q.denominator.bit_length() > 2 * p:
        return -_floor_dyadic(-q, p)
    return q


def _interval(lo: Fraction, hi: Fraction) -> "RI":
    """RI(lo, hi) for Fraction endpoints, which are not converted again."""
    if lo > hi:
        raise DomainError(f"empty interval [{lo}, {hi}]")
    out = object.__new__(RI)
    out.lo = lo
    out.hi = hi
    return out


def _outward(lo: Fraction, hi: Fraction) -> "RI":
    """RI(lo, hi), with long endpoints of a non-point result rounded outward
    to the working precision when one is set."""
    p = _WORKING.get()
    if p is not None and lo != hi:
        lo = _round_down(lo, p)
        hi = _round_up(hi, p)
    return _interval(lo, hi)


def _pow_endpoint(x: Fraction, n: int, p: int, rnd) -> Fraction:
    """x^n for n >= 1 by the square-and-multiply chain of :meth:`RI.__pow__`,
    with every step rounded by ``rnd`` at precision p: one endpoint of the
    power of a nonnegative non-point interval, whose chain stays non-point."""
    out = None
    while True:
        if n & 1:
            out = rnd(x, p) if out is None else rnd(out * x, p)
        n >>= 1
        if not n:
            return out
        x = rnd(x * x, p)


class RI:
    """Closed real interval [lo, hi] with Fraction endpoints.

    Ring operations are exact outside :func:`certify`; inside it, a
    non-point result has its long endpoints rounded outward to the working
    precision (see the module docstring), so the result still encloses the
    exact one.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = Fraction(lo)
        hi = lo if hi is None else Fraction(hi)
        if lo > hi:
            raise DomainError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @staticmethod
    def point(x) -> "RI":
        return RI(x)

    @staticmethod
    def of(x) -> "RI":
        return x if isinstance(x, RI) else RI(x)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = RI.of(other)
        return _outward(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        return _interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-RI.of(other))

    def __rsub__(self, other):
        return RI.of(other) + (-self)

    def __mul__(self, other):
        o = RI.of(other)
        if self.lo.numerator >= 0 and o.lo.numerator >= 0:
            return _outward(self.lo * o.lo, self.hi * o.hi)
        ps = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return _outward(min(ps), max(ps))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RI.of(other)
        if o.lo <= 0 <= o.hi:
            raise DomainError(f"divisor interval {o} contains 0")
        inv = _outward(1 / o.hi, 1 / o.lo)
        return self * inv

    def __rtruediv__(self, other):
        return RI.of(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return RI(1)
        if n < 0:
            return RI(1) / self**(-n)
        lo, hi = self.lo, self.hi
        if lo == hi:
            p = lo**n
            return _interval(p, p)
        if lo.numerator >= 0:
            p = _WORKING.get()
            if p is None:
                return _interval(lo**n, hi**n)
            return _interval(_pow_endpoint(lo, n, p, _round_down),
                             _pow_endpoint(hi, n, p, _round_up))
        # square-and-multiply; the first factor is rounded as RI(1) * base
        # would round it, and no square is formed past the top bit
        out, base = None, self
        while True:
            if n & 1:
                out = _outward(base.lo, base.hi) if out is None else out * base
            n >>= 1
            if not n:
                break
            base = base * base
        # even powers of sign-mixed intervals must clamp at 0
        if out.lo < 0 and self.lo <= 0 <= self.hi:
            out = RI(0, out.hi)
        return out

    def abs(self) -> "RI":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RI(0, max(-self.lo, self.hi))

    # -- structure ---------------------------------------------------------

    def width(self) -> Fraction:
        return self.hi - self.lo

    def rel_width(self) -> Fraction:
        m = min(abs(self.lo), abs(self.hi))
        if m == 0:
            return Fraction(0) if self.lo == self.hi else Fraction(1) << 62
        return self.width() / m

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        if isinstance(x, RI):
            return self.lo <= x.lo and x.hi <= self.hi
        return self.lo <= Fraction(x) <= self.hi

    def is_point(self) -> bool:
        return self.lo == self.hi

    # -- certified comparisons (None means undecided) ----------------------

    def cmp(self, other) -> int | None:
        o = RI.of(other)
        if self.hi < o.lo:
            return -1
        if self.lo > o.hi:
            return 1
        if self.is_point() and o.is_point():
            return 0
        return None

    def excludes_zero(self) -> bool:
        return self.lo > 0 or self.hi < 0

    def __repr__(self):
        return f"RI({self.lo}, {self.hi})"

    def __str__(self):
        if self.is_point():
            return f"[{self.lo}]"
        return f"[{self.lo}, {self.hi}]"

    def to_json(self) -> dict:
        from .rationals import format_fraction
        return {"lo": format_fraction(self.lo), "hi": format_fraction(self.hi)}


def certify(step: Callable[[int], _T | None], what: str | Callable[[], str],
            error: type[CertificationError],
            start_bits: int | None = None) -> _T:
    """Run ``step(bits)`` at escalating precision and return its first
    result that is not None.

    The attempts run at ``start_bits`` (default :func:`default_bits`),
    then at ``min(2 * bits, PRECISION_CAP)``; each one sets the working
    precision of the ring operations to ``bits`` plus guard bits.  When the
    attempt at the cap returns None, ``error`` is raised with ``what`` in
    its message; ``what`` may be a callable, called then, for a step that
    names what it left undecided.
    """
    bits = start_bits or default_bits()
    while True:
        token = _WORKING.set(bits + _GUARD_BITS)
        try:
            result = step(bits)
        finally:
            _WORKING.reset(token)
        if result is not None:
            return result
        if bits >= PRECISION_CAP:
            text = what() if callable(what) else what
            raise error(f"{text} at the precision cap of {PRECISION_CAP} bits")
        bits = min(2 * bits, PRECISION_CAP)


# -- mpmath bridge ----------------------------------------------------------

def _to_iv(x, bits: int):
    """Convert Fraction/int/RI to an mpmath interval enclosing it."""
    if isinstance(x, RI):
        if x.lo == x.hi:
            return _to_iv(x.lo, bits)
        lo = _to_iv(x.lo, bits)
        hi = _to_iv(x.hi, bits)
        return _iv.mpf([lo.a, hi.b])
    f = Fraction(x)
    if f.denominator == 1:
        return _iv.mpf(f.numerator)
    return _iv.mpf(f.numerator) / _iv.mpf(f.denominator)


def _from_mpi(pair) -> RI:
    """The RI with the endpoints of an mpmath interval's raw (a, b) pair."""
    a_raw, b_raw = pair
    pa, qa = _libmp.to_rational(a_raw)
    pb, qb = _libmp.to_rational(b_raw)
    return RI(Fraction(pa, qa), Fraction(pb, qb))


def _with_prec(bits: int, fn):
    old = _iv.prec
    _iv.prec = bits + 16  # guard bits for the conversions at the boundary
    try:
        return fn()
    finally:
        _iv.prec = old


def iv_exp(x, bits: int) -> RI:
    return _with_prec(bits, lambda: _from_mpi(_iv.exp(_to_iv(x, bits))._mpi_))


def iv_log_shift_e(x, bits: int) -> RI:
    """log(x + e) as a certified interval."""
    return _with_prec(bits, lambda: _from_mpi(_iv.log(_to_iv(x, bits) + _iv.e)._mpi_))


def iv_cos_sin(x, bits: int) -> tuple[RI, RI]:
    """(cos x, sin x) from one conversion and one mpmath evaluation.

    mpmath's ``iv.cos`` and ``iv.sin`` each run ``mpi_cos_sin`` and keep one
    half, so this calls it once, at the precision they would use.
    """

    def run():
        c, s = _libmp.mpi_cos_sin(_to_iv(x, bits)._mpi_, _iv.prec)
        return _from_mpi(c), _from_mpi(s)

    return _with_prec(bits, run)


def iv_pow(base, expo, bits: int) -> RI:
    """base^expo for a positive base; expo may be Fraction or RI."""

    def run():
        b = _to_iv(base, bits)
        e = _to_iv(expo, bits)
        return _from_mpi((b**e)._mpi_)

    return _with_prec(bits, run)


def ri_pow_frac(x: RI | Fraction, s: Fraction, bits: int) -> RI:
    """x^s for positive x and rational s, outward rounded."""
    if isinstance(x, RI):
        lo, hi = x.lo, x.hi
    else:
        lo = hi = Fraction(x)
    if lo <= 0:
        raise DomainError("ri_pow_frac needs a positive base")
    los = pow_bounds(lo, s, bits)
    if lo == hi:
        return RI(*los)
    his = pow_bounds(hi, s, bits)
    if s >= 0:
        return RI(los[0], his[1])
    return RI(his[0], los[1])


class CI:
    """Complex interval as an axis-aligned box (re, im are RI)."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        self.re = RI.of(re)
        self.im = RI.of(im if im is not None else 0)

    def __add__(self, other):
        o = other if isinstance(other, CI) else CI(other)
        return CI(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return CI(-self.re, -self.im)

    def __sub__(self, other):
        o = other if isinstance(other, CI) else CI(other)
        return CI(self.re - o.re, self.im - o.im)

    def __mul__(self, other):
        o = other if isinstance(other, CI) else CI(other)
        return CI(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def rotate_i(self, j: int) -> "CI":
        """Multiply by i^j exactly."""
        j %= 4
        if j == 0:
            return self
        if j == 1:
            return CI(-self.im, self.re)
        if j == 2:
            return CI(-self.re, -self.im)
        return CI(self.im, -self.re)

    def abs_sq(self) -> RI:
        return self.re**2 + self.im**2

    def pad(self, radius) -> "CI":
        """Grow both components by ±radius (a magnitude tail bound)."""
        r = Fraction(radius)
        return CI(RI(self.re.lo - r, self.re.hi + r),
                  RI(self.im.lo - r, self.im.hi + r))

    def contains(self, re, im=0) -> bool:
        return self.re.contains(re) and self.im.contains(im)

    def __repr__(self):
        return f"CI({self.re!r}, {self.im!r})"

    def to_json(self) -> dict:
        return {"re": self.re.to_json(), "im": self.im.to_json()}
