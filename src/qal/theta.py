"""Certified evaluation of the extremal class member theta and of the
classical rational-pole series with imaginary poles accumulating at 0.

The function theta attached to a sequence M is

    theta(x) = sum_k  Mbar_k / (2 m_k)^k * exp(2 i m_k x),

where Mbar_k = k! M_k and m_k = Mbar_{k+1}/Mbar_k.  Log-convexity of M
makes (m_k) nondecreasing, which yields two bounds used throughout:

* every term of the j-th derivative satisfies
  Mbar_k (2 m_k)^(j-k) <= 2^(j-k) Mbar_j, because m_k^(j-k) <= Mbar_j/Mbar_k
  whether k <= j or k > j;
* consecutive terms of the j-th derivative tail decay at least
  geometrically with ratio 1/2, since
  term_{k+1}/term_k = (1/2) (m_{k+1}/m_k)^(j-k-1) <= 1/2 for k >= j.

Summing the first bound over all k gives the global derivative estimate

    |theta^(j)(x)| <= 2^(j+1) Mbar_j  <  3 * 2^j * j! M_j,

which is the certified upper bound asserted by :func:`theta_eval` (the
constant 3 leaves margin over the derived 2).  The second bound gives the
computable tail estimate  tail <= 2 * term_{K+1}  after truncation at K,
which this module intersects with the coarser a-priori bound
2 * Mbar_j * 2^(j-K).

Every order reads the same term magnitudes Mbar_k (2 m_k)^(j-k), which
:class:`ThetaApproximation` forms in one of two ways, chosen from the
sequence alone.

* The closed form, for a sequence that has a power form (products of
  rational powers of rationals, ``CarlemanSequence.power_form``) at every
  index 0..K+2 and is not rational-valued: ``gevrey(p/q)`` with q > 1,
  and powers and shifts of such sequences.  With q the lcm of the
  exponents' denominators, P_k = M_k^q is an exact rational, and so are
  Mbar_k^q = (k!)^q P_k, (2 m_k)^q = (2(k+1))^q P_(k+1)/P_k and the q-th
  power of every magnitude, T^q = Mbar_k^q ((2 m_k)^q)^(j-k).  Each of
  Mbar_k, m_k and T is then one exact q-th root,
  :func:`~qal.rationals.grid_root` with a mantissa of 2p + 1 bits at the
  working precision p: the tightest enclosure on a dyadic grid that holds
  every dyadic endpoint the kernel forms near the same number, both those
  it leaves alone (at most 2p bits) and those it rounds (onto a p-bit
  grid).  One rounding thus replaces the chain of the other path (a ratio
  division, then square-and-multiply, each step of which widens the
  enclosure), and the result lies inside the chain's enclosure whenever
  that has dyadic endpoints within a factor 2 of the number; the chain's
  endpoints are rounded or exact dyadic products, so this holds in
  practice, and a property test checks it.  Rational data stay the
  chain's exact points: Mbar_k where M_k is rational, m_k where M_k and
  M_(k+1) are, and the magnitudes built from both.  Log-convexity is
  checked exactly, on the (2 m_k)^q, and the tail bound is rounded up to
  p bits, so that the boxes it pads keep the chain's endpoint sizes.
* The interval chain, for every other sequence: rational-valued ones,
  whose data are exact points and whose magnitudes are exact products
  formed on ints, and those without a power form (``loggevrey`` and what
  is derived from it).  Mbar_k = k! M_k comes from the interval values,
  m_k is one interval division, and each term keeps a
  :class:`~qal.intervals.PowerLadder` for the powers of 2 m_k.  The
  rounded squares of the square-and-multiply chain depend only on the
  endpoint and the working precision, never on the exponent, so the
  orders of :func:`~qal.division.nodiv_witness` and the tail term share
  them and each magnitude is bit for bit ``Mbar_k * (2 m_k) ** (j-k)``;
  for k > j that is the reciprocal of the positive power, formed once
  from its endpoints, bit for bit ``1 / (2 m_k)^(k-j)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable

from .errors import (CertificationError, DomainError, PrecisionFailure,
                     TruncationInsufficient)
from .intervals import (_GUARD_BITS, CI, RI, PowerLadder, _round_up, certify, default_bits,
                        iv_cos_sin)
from .rationals import (_instance, _order, _rational, factorial, falling, grid_root,
                        stirling2_row)
from .sequences import CarlemanSequence, _checked, _power_entry


class ThetaApproximation:
    """Truncated term data for theta built from the sequence M at the
    precision ``bits``.

    ``mbars[k]`` holds Mbar_k = k! M_k and ``ms[k]`` holds the ratio
    m_k = Mbar_{k+1}/Mbar_k, as certified intervals (point intervals for
    rational data); terms are kept through index K, plus one extra ratio
    for the tail bound.  ``values[k]`` is M_k as
    ``seq.interval_value(k, bits)`` gives it.

    The module docstring gives the two ways the data and the magnitudes
    are formed.  On the interval chain ``closed`` is None, the lists are
    formed at once and ``ladders[k]`` holds the powers of 2 m_k.  On the
    closed form ``closed`` is a :class:`_ClosedForm`; each entry of
    ``mbars``, ``ms`` and ``values`` is formed on first use, as
    :func:`~qal.division.nodiv_witness` alone reads ``values`` and the
    other operations read few of the ``mbars``.
    """

    def __init__(self, seq: CarlemanSequence, K: int, bits: int, mbars, ms,
                 values: list[RI] | None = None, closed: "_ClosedForm | None" = None):
        self.seq, self.K, self.bits = seq, K, bits
        self.mbars, self.ms = mbars, ms
        self._values = values
        self.closed = closed
        if closed is None:
            two = RI.point(2)
            self.ladders = [PowerLadder(two * m) for m in ms]

    @property
    def values(self) -> list[RI]:
        if self._values is None:
            self._values = [self.seq.interval_value(k, self.bits) for k in range(self.K + 3)]
        return self._values

    def term_magnitude(self, k: int, j: int) -> RI:
        """Mbar_k (2 m_k)^(j-k), the magnitude of term k of theta^(j)(0)."""
        if self.closed is None:
            return self.mbars[k] * self.ladders[k].power(j - k)
        if j == k:
            return self.mbars[k]
        return self.closed.magnitude(k, j - k)

    def tail_bound(self, j: int) -> Fraction:
        """Upper bound for the tail sum over k > K of term magnitudes.

        Uses the geometric first-omitted-term bound 2 * term_{K+1} and the
        a-priori bound 2 * Mbar_j * 2^(j-K); both are valid, the smaller
        wins.  Requires K >= j.  On the closed form the bound is rounded up
        to the working precision, as the chain's magnitudes are, so that
        the endpoints it pads stay as short as the chain's.
        """
        first_omitted = self.term_magnitude(self.K + 1, j)
        tight = 2 * first_omitted.hi
        coarse = 2 * self.mbars[j].hi * Fraction(2) ** (j - self.K)
        if self.closed is None:
            return min(tight, coarse)
        return _round_up(min(tight, coarse), self.bits + _GUARD_BITS)


class _Roots:
    """A list of enclosures of the q-th roots of the exact rationals
    ``powers[k] = (num, den)``: the point ``points[k]`` when that is not
    None, otherwise :func:`~qal.rationals.grid_root` with a mantissa of at
    least p + 1 bits, formed on first use."""

    __slots__ = ("_powers", "_q", "_p", "_out")

    def __init__(self, powers: list[tuple[int, int]], q: int, p: int,
                 points: list[Fraction | None]):
        self._powers, self._q, self._p = powers, q, p
        self._out = [None if x is None else RI.point(x) for x in points]

    def __len__(self) -> int:
        return len(self._out)

    def __getitem__(self, k: int) -> RI:
        out = self._out[k]
        if out is None:
            n, d = self._powers[k]
            out = self._out[k] = RI(*grid_root(n, d, self._q, self._p))
        return out


class _ClosedForm:
    """The exact q-th powers behind the closed form (module docstring) at
    the mantissa width p: ``abars[k]`` is Mbar_k^q and ``ratios[k]`` is
    (2 m_k)^q in lowest terms, each as a pair (num, den) of positive ints;
    ``points[k]`` is the pair (Mbar_k, 2 m_k) of exact rationals when both
    are rational, else None."""

    __slots__ = ("q", "p", "abars", "ratios", "points")

    def __init__(self, q: int, p: int, abars: list[tuple[int, int]],
                 ratios: list[tuple[int, int]], points: list[tuple[Fraction, Fraction] | None]):
        self.q, self.p, self.abars, self.ratios, self.points = q, p, abars, ratios, points

    def magnitude(self, k: int, n: int) -> RI:
        """Mbar_k (2 m_k)^n: the exact point for rational data, otherwise
        the q-th root of Mbar_k^q ((2 m_k)^q)^n."""
        if self.points[k] is not None:
            mbar, two_m = self.points[k]
            return RI.point(mbar * two_m ** n)
        a, b = self.abars[k]
        r, s = self.ratios[k]
        if n < 0:
            r, s, n = s, r, -n
        return RI(*grid_root(a * r ** n, b * s ** n, self.q, self.p))


def _power_table(M: CarlemanSequence, K: int) -> tuple[int, list[tuple[int, int]]] | None:
    """(q, [M_0^q, ..., M_{K+2}^q]), each power a pair (num, den) of
    positive ints, when M has a power form at 0..K+2 and q, the lcm of its
    exponents' denominators, exceeds 1; None otherwise, so that a
    rational-valued sequence and one without a power form take the
    interval chain."""
    if M.is_rational_valued():
        return None
    entries = []
    for k in range(K + 3):
        entry = _power_entry(M, k)
        if entry is None:
            return None
        entries.append(entry)
    q = lcm(*(L for _, _, L in entries))
    if q == 1:
        return None
    return q, [(n ** (q // L), d ** (q // L)) for n, d, L in entries]


def _closed_theta(M: CarlemanSequence, K: int, bits: int, q: int,
                  P: list[tuple[int, int]]) -> ThetaApproximation:
    """The closed form of :func:`build_theta` from P_k = M_k^q."""
    # Mbar_k^q = (k!)^q P_k and (2 m_k)^q = (2(k+1))^q P_{k+1} / P_k
    abars = [(factorial(k) ** q * n, d) for k, (n, d) in enumerate(P)]
    ratios = []
    for k in range(K + 2):
        (n0, d0), (n1, d1) = P[k], P[k + 1]
        num, den = (2 * (k + 1)) ** q * n1 * d0, n0 * d1
        g = gcd(num, den)
        ratios.append((num // g, den // g))
    for k in range(1, K + 1):
        if ratios[k][0] * ratios[k - 1][1] < ratios[k - 1][0] * ratios[k][1]:
            raise _decreasing(k)
    # rational data stay exact points, as on the interval chain
    exact = [M.exact_value(k) for k in range(K + 3)]
    mbar_points = [None if v is None else factorial(k) * v for k, v in enumerate(exact)]
    m_points = [None if a is None or b is None else b / a
                for a, b in zip(mbar_points, mbar_points[1:])]
    # twice the working precision: the grid then holds every endpoint the
    # kernel forms at that precision (see grid_root)
    p = 2 * (bits + _GUARD_BITS)
    closed = _ClosedForm(q, p, abars, ratios,
                         [None if m is None else (a, 2 * m) for a, m in zip(mbar_points, m_points)])
    return ThetaApproximation(M, K, bits, _Roots(abars, q, p, mbar_points),
                              _Roots([(n, d << q) for n, d in ratios], q, p, m_points),
                              closed=closed)


def build_theta(M: CarlemanSequence, K: int, bits: int | None = None) -> ThetaApproximation:
    _checked(M, truncation=K)
    bits = default_bits() if bits is None else _order(bits, "bits", 1)
    table = _power_table(M, K)
    if table is not None:
        return _closed_theta(M, K, bits, *table)
    values, mbars = [], []
    for k in range(K + 3):
        values.append(M.interval_value(k, bits))
        mbars.append(RI.point(factorial(k)) * values[k])
    ms = [mbars[k + 1] / mbars[k] for k in range(K + 2)]
    # the ratio sequence must be nondecreasing; raise only on a proven violation
    for k in range(1, K + 1):
        if ms[k].hi < ms[k - 1].lo:
            raise _decreasing(k)
    return ThetaApproximation(M, K, bits, mbars, ms, values)


def _decreasing(k: int) -> DomainError:
    return DomainError(f"ratio sequence m_k decreases at k={k}; "
                       "the sequence is not log-convex")


@dataclass
class ThetaDerivative:
    """Certified value of theta^(j)(0) = i^j * (positive real)."""

    order: int
    truncation: int
    magnitude: RI            # encloses the positive real factor
    phase_power: int         # j mod 4; the value is i^phase_power * magnitude
    lower_bound: Fraction    # j! M_j certified <= |theta^(j)(0)| (lower endpoint)

    def interval(self) -> CI:
        return CI(self.magnitude, RI.point(0)).rotate_i(self.phase_power)

    def to_json(self) -> dict:
        return {"order": self.order, "truncation": self.truncation,
                "magnitude": self.magnitude.to_json(),
                "phase_power": self.phase_power}


def _magnitude_at_zero(approx: ThetaApproximation, j: int) -> RI:
    """Encloses |theta^(j)(0)| = sum_k Mbar_k (2 m_k)^(j-k): the partial sum
    through K, widened upward by the tail bound."""
    partial = RI.point(0)
    for k in range(approx.K + 1):
        partial = partial + approx.term_magnitude(k, j)
    return RI(partial.lo, partial.hi + approx.tail_bound(j))


def theta_derivative_at_zero(M: CarlemanSequence, j: int, K: int) -> ThetaDerivative:
    """Certified interval for theta^(j)(0), asserting |theta^(j)(0)| >= j! M_j.

    The value is i^j * sum_k Mbar_k (2 m_k)^(j-k) with every summand
    positive; the partial sum through K is exact for rational-valued M
    and the tail is enclosed by :meth:`ThetaApproximation.tail_bound`.
    """
    _checked(M, order=j, truncation=K)
    if K < j + 8:
        raise DomainError("truncation K must be at least j + 8")

    def attempt(bits: int) -> ThetaDerivative | None:
        approx = build_theta(M, K, bits)
        magnitude = _magnitude_at_zero(approx, j)
        target = approx.mbars[j]  # j! M_j
        if magnitude.lo >= target.hi:
            return ThetaDerivative(order=j, truncation=K, magnitude=magnitude,
                                   phase_power=j % 4, lower_bound=target.hi)
        return None

    return certify(attempt, f"cannot certify |theta^({j})(0)| >= {j}! M_{j}",
                   PrecisionFailure)


def theta_eval(M: CarlemanSequence, x: Fraction, j: int, K: int) -> CI:
    """Certified complex interval for theta^(j)(x).

    Also asserts the class membership bound |theta^(j)(x)| <= 3 * 2^j * j! M_j
    (see the module docstring for the derivation); a PrecisionFailure is
    raised if the bound cannot be certified at the precision cap.
    """
    _checked(M, order=j, truncation=K)
    x = _rational(x, "argument x")
    if K < j + 8:
        raise DomainError("truncation K must be at least j + 8")

    def attempt(bits: int) -> CI | None:
        approx = build_theta(M, K, bits)
        re = im = RI.point(0)
        angle = RI.point(2 * x)
        for k in range(K + 1):
            mag = approx.term_magnitude(k, j)
            # cos/sin of 2 m_k x; the m_k interval feeds straight in
            c, s = iv_cos_sin(approx.ms[k] * angle, bits)
            re = re + mag * c
            im = im + mag * s
        total = CI(re, im).pad(approx.tail_bound(j))
        value = total.rotate_i(j % 4)

        bound = 3 * Fraction(2) ** j * approx.mbars[j].lo
        if value.abs_sq().hi <= bound * bound:
            return value
        return None

    return certify(attempt, f"cannot certify |theta^({j})({x})| <= 3*2^{j}*{j}!M_{j}",
                   PrecisionFailure)


# -- the rational-pole series ---------------------------------------------------


@dataclass
class BorelExample:
    """Series f(x) = sum_{v>=1} A_v / (x - i/v) with rational coefficients
    A_v decaying geometrically: |A_v| <= rho^v with a user-supplied rho < 1.

    The poles i/v are purely imaginary and accumulate at 0, so the
    restriction of f to the real line is smooth; the geometric bound on
    the coefficients makes every tail computable.
    """

    coeffs: Callable[[int], Fraction]
    rho: Fraction
    N: int

    def __post_init__(self):
        if not callable(self.coeffs):
            raise DomainError(f"coeffs must be callable, got {self.coeffs!r}")
        self.rho = _rational(self.rho, "rho")
        if not (0 <= self.rho < 1):
            raise DomainError("rho must satisfy 0 <= rho < 1")
        _order(self.N, "the truncation N", 8)

    def coefficient(self, v: int) -> Fraction:
        a = _rational(self.coeffs(_order(v, "the index v", 1)), f"A_{v}")
        if abs(a) > self.rho**v:
            raise DomainError(f"|A_{v}| exceeds the asserted bound rho^{v}")
        return a

    def _power_tail(self, p: int) -> Fraction:
        """Upper bound for sum_{v>N} v^p rho^v, via a geometric majorant
        starting at the first omitted term."""
        if self.rho == 0:
            return Fraction(0)
        n1 = self.N + 1
        ratio = self.rho * Fraction(n1 + 1, n1) ** p
        if ratio >= 1:
            raise TruncationInsufficient(
                f"need larger N so that rho*((N+2)/(N+1))^{p} < 1")
        first = Fraction(n1) ** p * self.rho**n1
        return first / (1 - ratio)


def borel_example_eval(B: BorelExample, x: Fraction) -> CI:
    """Certified complex interval for f(x) at real rational x.

    Each term is exact:  1/(x - i/v) = (x + i/v) / (x^2 + 1/v^2);
    the tail uses |A_v/(x - i/v)| <= rho^v * v.
    """
    _instance(B, BorelExample, "B")
    x = _rational(x, "x")
    re = Fraction(0)
    im = Fraction(0)
    for v in range(1, B.N + 1):
        a = B.coefficient(v)
        den = x * x + Fraction(1, v * v)
        re += a * x / den
        im += a * Fraction(1, v) / den
    return CI(RI.point(re), RI.point(im)).pad(B._power_tail(1))


@dataclass
class DerivativeCrossCheck:
    order: int
    direct: CI
    via_transform: CI
    transform_matrix: list[list[int]]
    overlap: bool

    def to_json(self):
        return {"order": self.order, "direct": self.direct.to_json(),
                "via_transform": self.via_transform.to_json(),
                "overlap": self.overlap}


def _phase_times(sum_interval: RI, j: int) -> CI:
    """(-1)^j j! i^(j+1) * sum_interval as a complex interval."""
    scale = RI.point(Fraction((-1) ** j * factorial(j)))
    return CI(scale * sum_interval, RI.point(0)).rotate_i((j + 1) % 4)


def borel_example_derivatives(B: BorelExample, j: int) -> DerivativeCrossCheck:
    """f^(j)(0) computed two independent ways.

    Route (a): termwise differentiation gives
        f^(j)(0) = (-1)^j j! i^(j+1) * sum_v A_v v^(j+1).

    Route (b): with Phi(z) = sum_v v A_v z^v, the power sums
    sum_v (v A_v) v^j are recovered from the derivatives Phi^(p)(1)
    (which are falling-factorial sums) through the Stirling-number change
    of basis  v^j = sum_p S(j,p) * v(v-1)...(v-p+1).  The transform matrix
    (S(j,p)) is unitriangular, hence invertible.

    Both routes produce certified intervals; the result records whether
    they overlap, which they must.
    """
    _instance(B, BorelExample, "B")
    _order(j, "j", 0)
    # route (a)
    s_direct = Fraction(0)
    for v in range(1, B.N + 1):
        s_direct += B.coefficient(v) * Fraction(v) ** (j + 1)
    tail = B._power_tail(j + 1)
    direct = _phase_times(RI(s_direct - tail, s_direct + tail), j)

    # route (b)
    srow = stirling2_row(j)
    matrix = [stirling2_row(r) + [0] * (j - r) for r in range(j + 1)]
    for r in range(j + 1):
        if matrix[r][r] != 1:
            raise CertificationError("Stirling transform must be unitriangular")
    phi_derivs: list[RI] = []
    for p in range(j + 1):
        s = Fraction(0)
        for v in range(1, B.N + 1):
            s += B.coefficient(v) * v * falling(v, p)
        t = B._power_tail(p + 1)
        phi_derivs.append(RI(s - t, s + t))
    combined = RI.point(0)
    for p in range(j + 1):
        combined = combined + RI.point(srow[p]) * phi_derivs[p]
    via = _phase_times(combined, j)

    overlap = not (direct.re.hi < via.re.lo or via.re.hi < direct.re.lo
                   or direct.im.hi < via.im.lo or via.im.hi < direct.im.lo)
    return DerivativeCrossCheck(order=j, direct=direct, via_transform=via,
                                transform_matrix=matrix, overlap=overlap)
