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
general formulas.  A point interval holds one Fraction as both endpoints,
and the sum or product of two points is formed once.  A point times an
interval forms two endpoint products, ordered by the sign of the point:
they are the min and max of the four.  A product of two
nonnegative intervals is [lo*lo', hi*hi'], the sign case of Moore's
interval product; any other product takes the min and max of the four
endpoint products.  A power of a point is its exact power.  A power of a
nonnegative interval runs the square-and-multiply chain on each endpoint
alone, rounding every step as the interval chain rounds it; other bases
run the interval chain.  Both run the one chain routine :func:`_chain`,
and a :class:`PowerLadder` keeps the rounded squares of its base's
endpoints for every exponent.

Endpoints are formed on ints.  The ring operations, the rounding and the
bridge read Fraction's two slots ``_numerator`` and ``_denominator``,
build each result through them (:func:`~qal.rationals._fraction`) and
call none of Fraction's operators or properties.  The slots are their one
dependency on Fraction's layout (the same in CPython 3.10 to 3.13; a test
pins it).  When both operands are dyadic, m * 2^-s with m odd or s = 0
(integers included), a product is m1 m2 / 2^(s1 + s2) and a sum aligns
the two mantissas by a shift, then divides by the trailing zeros of the
numerator, which for a dyadic is the whole gcd; other products and sums
run Fraction's own gcd algorithm.  A reciprocal swaps the coprime
numerator and denominator, and a negative power is the reciprocal
(:func:`_reciprocal`) of the positive power.  The outward rounding forms
its mantissa by one integer floor or ceiling division.  Comparisons (the
min and max of four products, the emptiness check, the signs) use
integer cross products.  So every endpoint is bit for bit the
lowest-terms Fraction that Fraction arithmetic would form.

Exact data are ints (not bools) and Fractions; anything else, and a
precision ``bits`` that is not an int >= 1, raises DomainError (the
input contract of :mod:`qal.rationals`).

Transcendental functions work on the raw interval [a, b] that mpmath's
``iv`` context would build from the endpoints at ``bits + 16`` bits, and
come back as exact dyadic endpoints, so the enclosure property is
preserved end to end.  Of each endpoint's quotient ``iv.mpf(n) /
iv.mpf(d)`` only the end that interval keeps is formed (:func:`_mpi_end`),
and results are read off libmp's mantissa and exponent.  No mpmath object
is made and mpmath's global precision is never set, so the results do not
depend on what else runs in the process.  exp, log and pow call mpmath's
interval kernel (libmp's ``mpi_*`` functions), so their results are those
of ``iv`` at that precision, bit for bit.  Cosine and sine of one argument
(:func:`iv_cos_sin`) are one evaluation of libmp's ``mpf_cos_sin`` at a,
rounded outward as ``mpi_cos_sin`` rounds, plus an exact pad of b - a: bit
for bit ``iv.cos`` and ``iv.sin`` on a dyadic point only, and otherwise
at most 2(b - a) wider than theirs.  These libmp functions are not
mpmath's public API, so the package pins mpmath below 1.4 and the tests
compare every bridge function with the ``iv`` context.

:func:`certify` runs a certification step at escalating precision: from
256 bits (:func:`default_bits`), doubling up to the cap of 4096 bits.
"""

from __future__ import annotations

import contextvars
from fractions import Fraction
from math import gcd
from typing import Callable, TypeVar

import mpmath.libmp as _libmp

from .errors import CertificationError, DomainError
from .rationals import _dyadic, _fraction, _instance, _new, _order, _rational, pow_bounds

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
    """The precision of a first certify attempt: ``_DEFAULT_BITS``, read
    at call time."""
    return _DEFAULT_BITS


def _data(x, what: str = "an endpoint") -> Fraction:
    """x as exact data: a Fraction or an int that is not a bool, otherwise
    DomainError.  The common types are tested first."""
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return _fraction(x, 1)
    return _rational(x, what)


def _lt(x: Fraction, y: Fraction) -> bool:
    return x._numerator * y._denominator < y._numerator * x._denominator


def _eq(x: Fraction, y: Fraction) -> bool:
    return x is y or (x._numerator == y._numerator and x._denominator == y._denominator)


def _neg(x: Fraction) -> Fraction:
    return _fraction(-x._numerator, x._denominator)


def _recip(x: Fraction) -> Fraction:
    """1/x for x != 0: the coprime parts swap."""
    n, d = x._numerator, x._denominator
    return _fraction(d, n) if n > 0 else _fraction(-d, -n)


def _add(x: Fraction, y: Fraction) -> Fraction:
    """x + y: aligned by a shift when both are dyadic, otherwise Fraction's
    own sum, which divides by g = gcd(dx, dy) and then by gcd(t, g)."""
    nx, dx, ny, dy = x._numerator, x._denominator, y._numerator, y._denominator
    if dx & (dx - 1) or dy & (dy - 1):
        g = gcd(dx, dy)
        s = dx // g
        t = nx * (dy // g) + ny * s
        g = gcd(t, g)
        return _fraction(t // g, s * (dy // g))
    if dx < dy:
        return _dyadic((nx << (dy.bit_length() - dx.bit_length())) + ny, dy)
    return _dyadic(nx + (ny << (dx.bit_length() - dy.bit_length())), dx)


def _mul(x: Fraction, y: Fraction) -> Fraction:
    """x * y: m1 m2 / 2^(s1 + s2) when both are dyadic, otherwise
    Fraction's own product, which cancels gcd(nx, dy) and gcd(ny, dx)."""
    nx, dx, ny, dy = x._numerator, x._denominator, y._numerator, y._denominator
    if dx & (dx - 1) or dy & (dy - 1):
        g, h = gcd(nx, dy), gcd(ny, dx)
        return _fraction((nx // g) * (ny // h), (dx // h) * (dy // g))
    return _dyadic(nx * ny, dx * dy)


def _min_max(ps: tuple) -> tuple[Fraction, Fraction]:
    """(min(ps), max(ps)), the first least and the first greatest, compared
    by integer cross products."""
    nds = [(q._numerator, q._denominator) for q in ps]
    lo = hi = 0
    for i in range(1, len(nds)):
        n, d = nds[i]
        if n * nds[lo][1] < nds[lo][0] * d:
            lo = i
        if n * nds[hi][1] > nds[hi][0] * d:
            hi = i
    return ps[lo], ps[hi]


# -- outward rounding -----------------------------------------------------------

def _floor_nd(n: int, d: int, p: int) -> Fraction:
    """n/d rounded down to m * 2^-s, with s fixed by the size of n/d so
    that the mantissa |m| is at most 2^p."""
    s = p - 1 - n.bit_length() + d.bit_length()   # |n/d| * 2^s < 2^p
    if s >= 0:
        return _dyadic((n << s) // d, 1 << s)
    return _fraction((n // (d << -s)) << -s, 1)


def _ceil_nd(n: int, d: int, p: int) -> Fraction:
    """n/d rounded up at the scale of :func:`_floor_nd`: its negative at -n/d."""
    s = p - 1 - n.bit_length() + d.bit_length()
    if s >= 0:
        return _dyadic(-(-(n << s) // d), 1 << s)
    return _fraction(-(-n // (d << -s)) << -s, 1)


def _floor_dyadic(q: Fraction, p: int) -> Fraction:
    """q rounded down to m * 2^-s, with s fixed by the size of q so that
    the mantissa |m| is at most 2^p."""
    return _floor_nd(q._numerator, q._denominator, p)


def _round_down(q: Fraction, p: int) -> Fraction:
    """q, or q rounded down to p bits when it has more than 2p bits."""
    n, d = q._numerator, q._denominator
    if n.bit_length() + d.bit_length() > 2 * p:
        return _floor_nd(n, d, p)
    return q


def _round_up(q: Fraction, p: int) -> Fraction:
    """q, or q rounded up to p bits when it has more than 2p bits."""
    n, d = q._numerator, q._denominator
    if n.bit_length() + d.bit_length() > 2 * p:
        return _ceil_nd(n, d, p)
    return q


def _point(x: Fraction) -> "RI":
    """The point interval [x, x], holding x as both endpoints."""
    out = _new(RI)
    out.lo = out.hi = x
    return out


def _interval(lo: Fraction, hi: Fraction) -> "RI":
    """RI(lo, hi) for Fraction endpoints, which are not converted again."""
    if _lt(hi, lo):
        raise DomainError(f"empty interval [{lo}, {hi}]")
    out = _new(RI)
    out.lo = lo
    out.hi = hi
    return out


def _outward(lo: Fraction, hi: Fraction) -> "RI":
    """RI(lo, hi), with long endpoints of a non-point result rounded outward
    to the working precision when one is set."""
    p = _WORKING.get()
    if p is not None and not _eq(lo, hi):
        lo = _round_down(lo, p)
        hi = _round_up(hi, p)
    return _interval(lo, hi)


def _reciprocal(x: "RI") -> "RI":
    """1/x, bit for bit ``RI(1) / x``: that product by the point 1 only
    passes these endpoints to :func:`_outward` again, and an endpoint that
    :func:`_outward` returned has at most 2p bits or is m * 2^-s, |m| <= 2^p,
    on the grid that its size fixes, so it is its own floor and ceiling."""
    lo, hi = x.lo, x.hi
    if lo._numerator <= 0 <= hi._numerator:
        raise DomainError(f"divisor interval {x} contains 0")
    if lo is hi:
        return _point(_recip(lo))
    return _outward(_recip(hi), _recip(lo))


def _chain(squares: list, n: int, first, mul):
    """base^n for n >= 1 by square-and-multiply, low bits first, where
    ``squares[0]`` is the base and ``squares[i] = mul(squares[i-1],
    squares[i-1])``: the first factor taken is ``first(squares[i])``, every
    later one is multiplied in by ``mul``.

    The squares do not depend on n, so one list serves every exponent of
    its base: the squares it lacks are appended, and none is formed past
    the top bit of n.
    """
    out = None
    i = 0
    while True:
        if n & 1:
            out = first(squares[i]) if out is None else mul(out, squares[i])
        n >>= 1
        if not n:
            return out
        i += 1
        if i == len(squares):
            x = squares[-1]
            squares.append(mul(x, x))


def _endpoint_pow(squares: list[Fraction], n: int, p: int, rnd) -> Fraction:
    """One endpoint of the power of a nonnegative non-point interval, whose
    chain stays non-point: :func:`_chain` on that endpoint's squares, every
    step rounded by ``rnd`` at precision p."""
    return _chain(squares, n, lambda x: rnd(x, p), lambda x, y: rnd(_mul(x, y), p))


class RI:
    """Closed real interval [lo, hi] with Fraction endpoints.

    Ring operations are exact outside :func:`certify`; inside it, a
    non-point result has its long endpoints rounded outward to the working
    precision (see the module docstring), so the result still encloses the
    exact one.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = _data(lo)
        if hi is None:
            hi = lo
        else:
            hi = _data(hi)
            if not _lt(lo, hi):
                if _lt(hi, lo):
                    raise DomainError(f"empty interval [{lo}, {hi}]")
                hi = lo
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
        if self.lo is self.hi and o.lo is o.hi:
            return _point(_add(self.lo, o.lo))
        return _outward(_add(self.lo, o.lo), _add(self.hi, o.hi))

    __radd__ = __add__

    def __neg__(self):
        if self.lo is self.hi:
            return _point(_neg(self.lo))
        return _interval(_neg(self.hi), _neg(self.lo))

    def __sub__(self, other):
        return self + (-RI.of(other))

    def __rsub__(self, other):
        return RI.of(other) + (-self)

    def __mul__(self, other):
        o = RI.of(other)
        a, b, c, d = self.lo, self.hi, o.lo, o.hi
        if a is b:
            if c is d:
                return _point(_mul(a, c))
            lo, hi = _mul(a, c), _mul(a, d)
            return _outward(lo, hi) if a._numerator >= 0 else _outward(hi, lo)
        if c is d:
            lo, hi = _mul(a, c), _mul(b, c)
            return _outward(lo, hi) if c._numerator >= 0 else _outward(hi, lo)
        if a._numerator >= 0 and c._numerator >= 0:
            return _outward(_mul(a, c), _mul(b, d))
        return _outward(*_min_max((_mul(a, c), _mul(a, d), _mul(b, c), _mul(b, d))))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _reciprocal(RI.of(other))

    def __rtruediv__(self, other):
        return RI.of(other) / self

    def __pow__(self, n: int):
        if type(n) is not int:
            _order(n, "the exponent")
        if n == 0:
            return RI(1)
        if n < 0:
            return _reciprocal(self**(-n))
        lo, hi = self.lo, self.hi
        if _eq(lo, hi):
            return _point(lo**n)
        if lo._numerator >= 0:
            p = _WORKING.get()
            if p is None:
                return _interval(lo**n, hi**n)
            return _interval(_endpoint_pow([lo], n, p, _round_down),
                             _endpoint_pow([hi], n, p, _round_up))
        # the interval chain; its first factor is rounded as RI(1) * base
        # would round it
        out = _chain([self], n, lambda b: _outward(b.lo, b.hi), RI.__mul__)
        # even powers of sign-mixed intervals must clamp at 0
        if out.lo._numerator < 0 and lo._numerator <= 0 <= hi._numerator:
            out = RI(0, out.hi)
        return out

    def abs(self) -> "RI":
        if self.lo._numerator >= 0:
            return self
        if self.hi._numerator <= 0:
            return -self
        return RI(0, max(-self.lo, self.hi))

    # -- structure ---------------------------------------------------------

    def width(self) -> Fraction:
        return self.hi - self.lo

    def rel_width(self) -> Fraction:
        m = min(abs(self.lo), abs(self.hi))
        if m == 0:
            return Fraction(0) if self.lo == self.hi else Fraction(1 << 62)
        return self.width() / m

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        if isinstance(x, RI):
            return self.lo <= x.lo and x.hi <= self.hi
        return self.lo <= _data(x, "a point") <= self.hi

    def is_point(self) -> bool:
        return _eq(self.lo, self.hi)

    # -- certified comparisons (None means undecided) ----------------------

    def cmp(self, other) -> int | None:
        o = RI.of(other)
        if _lt(self.hi, o.lo):
            return -1
        if _lt(o.hi, self.lo):
            return 1
        if self.is_point() and o.is_point():
            return 0
        return None

    def excludes_zero(self) -> bool:
        return self.lo._numerator > 0 or self.hi._numerator < 0

    def __repr__(self):
        return f"RI({self.lo}, {self.hi})"

    def __str__(self):
        if self.is_point():
            return f"[{self.lo}]"
        return f"[{self.lo}, {self.hi}]"

    def to_json(self) -> dict:
        from .rationals import format_fraction
        return {"lo": format_fraction(self.lo), "hi": format_fraction(self.hi)}


class PowerLadder:
    """The integer powers of one interval, each equal bit for bit to
    ``base ** n``.

    Under :func:`certify` the power of a nonnegative non-point base runs
    the square-and-multiply chain on each endpoint.  The rounded squares
    of an endpoint do not depend on the exponent, so the ladder keeps them
    and each exponent forms only the squares no earlier one reached, plus
    its own products.  The squares belong to the working precision they
    were formed at and are dropped when it changes.  Every other power is
    ``base ** n`` itself.
    """

    __slots__ = ("base", "_p", "_lo", "_hi")

    def __init__(self, base: RI):
        self.base = _instance(base, RI, "the base")
        self._p = None
        self._lo = self._hi = None

    def power(self, n: int) -> RI:
        if type(n) is not int:
            _order(n, "the exponent")
        if n < 0:
            return _reciprocal(self.power(-n))
        base = self.base
        lo, hi = base.lo, base.hi
        p = _WORKING.get()
        if n == 0 or p is None or _eq(lo, hi) or lo._numerator < 0:
            return base ** n
        if p != self._p:
            self._p, self._lo, self._hi = p, [lo], [hi]
        return _interval(_endpoint_pow(self._lo, n, p, _round_down),
                         _endpoint_pow(self._hi, n, p, _round_up))


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

# Each bridge function works at mpmath precision bits + 16, the guard bits
# covering the conversions at the boundary.
_BRIDGE_GUARD = 16
_FLOOR = _libmp.round_floor
_CEILING = _libmp.round_ceiling


_OTHER = {_FLOOR: _CEILING, _CEILING: _FLOOR}


def _mpi_end(q: Fraction, prec: int, rnd: str) -> tuple:
    """The lower (rnd floor) or upper (rnd ceiling) end of the raw libmp
    interval ``iv.mpf(n) / iv.mpf(d)`` for q = n/d at precision prec:
    ``mpi_div`` divides n rounded by rnd by d rounded the same way if n < 0,
    the other way if n > 0.  A power of two d divides exactly."""
    n, d = q._numerator, q._denominator
    if not d & (d - 1):
        return _libmp.from_man_exp(n, 1 - d.bit_length(), prec, rnd)
    return _libmp.mpf_div(_libmp.from_int(n, prec, rnd),
                          _libmp.from_int(d, prec, rnd if n < 0 else _OTHER[rnd]), prec, rnd)


def _mpi(x, prec: int) -> tuple:
    """The raw libmp interval enclosing an RI, Fraction or int: the lower
    end of its lower endpoint's interval and the upper end of its upper
    endpoint's."""
    if not isinstance(x, RI):
        x = _point(_data(x, "an argument"))
    return _mpi_end(x.lo, prec, _FLOOR), _mpi_end(x.hi, prec, _CEILING)


def _from_mpi(pair) -> RI:
    """The RI with the endpoints of a raw libmp interval (a, b)."""
    a, b = pair
    lo = _dyadic(*_libmp.to_rational(a))
    hi = lo if a == b else _dyadic(*_libmp.to_rational(b))
    return _interval(lo, hi)


def iv_exp(x, bits: int) -> RI:
    prec = _order(bits, "bits", 1) + _BRIDGE_GUARD
    return _from_mpi(_libmp.mpi_exp(_mpi(x, prec), prec))


def iv_log_shift_e(x, bits: int) -> RI:
    """log(x + e) as a certified interval."""
    prec = _order(bits, "bits", 1) + _BRIDGE_GUARD
    e = (_libmp.mpf_e(prec, _FLOOR), _libmp.mpf_e(prec, _CEILING))
    return _from_mpi(_libmp.mpi_log(_libmp.mpi_add(_mpi(x, prec), e, prec), prec))


def _cos_sin_end(v: tuple, up: bool, wp: int, prec: int, w: int, f: int) -> Fraction:
    """One end of a cos or sin interval: the value v of ``mpf_cos_sin`` at
    wp bits through ``mpi_cos_sin``'s ``finalize`` (times 1 ± 2^(10 - wp),
    the factor that moves v outward, rounded outward to prec bits; a
    magnitude of at least 1 becomes ±1), then moved outward by w * 2^f
    (f <= 0) and clamped to [-1, 1]."""
    sign, man, exp, _ = v
    m = -man if sign else man
    m *= (1 << wp) + (1 << 10) if sign != up else (1 << wp) - (1 << 10)
    e = exp - wp
    t = abs(m).bit_length() - prec
    if t > 0:
        m = -(-m >> t) if up else m >> t
        e += t
    if m and abs(m).bit_length() + e >= 1:
        m, e = (-1 if m < 0 else 1), 0
    # m * 2^e and w * 2^f as integers at the lower of the two exponents
    if e > f:
        m <<= e - f
    else:
        w <<= f - e
        f = e
    one = 1 << -f
    m = max(m - w, -one) if not up else min(m + w, one)
    return _dyadic(m, one)


def iv_cos_sin(x, bits: int) -> tuple[RI, RI]:
    """(cos x, sin x) from one conversion and one evaluation.

    x enters as the raw interval [a, b] that ``iv`` would build at
    bits + 16 bits.  cos and sin are evaluated once, at a, with
    ``mpf_cos_sin`` at the working precision of mpmath's ``mpi_cos_sin``,
    and rounded outward by that function's own ``finalize``.  Both
    derivatives have magnitude at most 1, so on [a, b] cos and sin lie
    within w = b - a of their values at a (the mean value theorem): each
    interval is moved outward by the exact dyadic w and clamped to
    [-1, 1].  The trust is the one ``iv.cos`` and ``iv.sin`` need, in
    ``mpf_cos_sin`` and ``finalize`` at the same precision; the pad is
    exact.  On a dyadic point (a == b) the result is bit for bit ``iv.cos``
    and ``iv.sin``; on any argument each interval is at most 2w wider than
    theirs.
    """
    prec = _order(bits, "bits", 1) + _BRIDGE_GUARD
    a, b = _mpi(x, prec)
    if a == b == _libmp.fzero:
        return _point(_fraction(1, 1)), _point(_fraction(0, 1))
    wp = prec + 20
    c, s = _libmp.mpf_cos_sin(a, wp)
    # w = b - a as the integer w times 2^f, f <= 0
    f = min(a[2], b[2], 0)
    w = (-b[1] if b[0] else b[1]) << (b[2] - f)
    w -= (-a[1] if a[0] else a[1]) << (a[2] - f)
    ends = [_cos_sin_end(v, up, wp, prec, w, f) for v in (c, s) for up in (False, True)]
    return _interval(*ends[:2]), _interval(*ends[2:])


def iv_pow(base, expo, bits: int) -> RI:
    """base^expo for a positive base; expo may be Fraction or RI."""
    prec = _order(bits, "bits", 1) + _BRIDGE_GUARD
    return _from_mpi(_libmp.mpi_pow(_mpi(base, prec), _mpi(expo, prec), prec))


def ri_pow_frac(x: RI | Fraction, s: Fraction, bits: int) -> RI:
    """x^s for positive x and rational s, outward rounded."""
    if isinstance(x, RI):
        lo, hi = x.lo, x.hi
    else:
        lo = hi = _data(x, "the base")
    s = _data(s, "the exponent")
    _order(bits, "bits", 1)
    if lo._numerator <= 0:
        raise DomainError("ri_pow_frac needs a positive base")
    los = pow_bounds(lo, s, bits)
    if _eq(lo, hi):
        return RI(*los)
    his = pow_bounds(hi, s, bits)
    if s._numerator >= 0:
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
        """Multiply by i^j exactly, j an int of any sign."""
        j = _order(j, "the power of i") % 4
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
        r = _data(radius, "the radius")
        return CI(RI(self.re.lo - r, self.re.hi + r),
                  RI(self.im.lo - r, self.im.hi + r))

    def contains(self, re, im=0) -> bool:
        return self.re.contains(re) and self.im.contains(im)

    def __repr__(self):
        return f"CI({self.re!r}, {self.im!r})"

    def to_json(self) -> dict:
        return {"re": self.re.to_json(), "im": self.im.to_json()}
