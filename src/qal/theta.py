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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import (CertificationError, DomainError, PrecisionFailure,
                     TruncationInsufficient)
from .intervals import CI, RI, certify, default_bits, iv_cos_sin
from .rationals import factorial, falling, stirling2_row
from .sequences import CarlemanSequence


@dataclass
class ThetaApproximation:
    """Truncated term data for theta built from the sequence M.

    ``values[k]`` holds M_k as ``seq.interval_value(k, bits)`` gives it,
    ``mbars[k]`` holds Mbar_k = k! M_k and ``ms[k]`` holds the ratio
    m_k = Mbar_{k+1}/Mbar_k, all as certified intervals (point intervals
    in the rational-valued case).  Terms are kept through index K, plus
    one extra ratio for the tail bound.
    """

    seq: CarlemanSequence
    K: int
    values: list[RI]
    mbars: list[RI]
    ms: list[RI]

    def term_magnitude(self, k: int, j: int) -> RI:
        """Mbar_k (2 m_k)^(j-k), the magnitude of term k of theta^(j)(0)."""
        return self.mbars[k] * (RI.point(2) * self.ms[k]) ** (j - k)

    def tail_bound(self, j: int) -> Fraction:
        """Upper bound for the tail sum over k > K of term magnitudes.

        Uses the geometric first-omitted-term bound 2 * term_{K+1} and the
        a-priori bound 2 * Mbar_j * 2^(j-K); both are valid, the smaller
        wins.  Requires K >= j.
        """
        first_omitted = self.term_magnitude(self.K + 1, j)
        tight = 2 * first_omitted.hi
        coarse = 2 * self.mbars[j].hi * Fraction(2) ** (j - self.K)
        return min(tight, coarse)


def build_theta(M: CarlemanSequence, K: int, bits: int | None = None) -> ThetaApproximation:
    bits = bits or default_bits()
    values, mbars = [], []
    for k in range(K + 3):
        exact = M.exact_value(k)
        if exact is None:
            values.append(M.interval_value(k, bits))
            mbars.append(RI.point(factorial(k)) * values[k])
        else:
            # the point interval_value gives, and the exact mbar
            values.append(RI.point(exact))
            mbars.append(RI.point(factorial(k) * exact))
    ms = [mbars[k + 1] / mbars[k] for k in range(K + 2)]
    # the ratio sequence must be nondecreasing; raise only on a proven violation
    for k in range(1, K + 1):
        if ms[k].hi < ms[k - 1].lo:
            raise DomainError(f"ratio sequence m_k decreases at k={k}; "
                              "the sequence is not log-convex")
    return ThetaApproximation(M, K, values, mbars, ms)


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
    if K < j + 8:
        raise DomainError("truncation K must be at least j + 8")
    x = Fraction(x)

    def attempt(bits: int) -> CI | None:
        approx = build_theta(M, K, bits)
        total = CI(RI.point(0), RI.point(0))
        angle = 2 * x
        for k in range(K + 1):
            mag = approx.term_magnitude(k, j)
            # cos/sin of 2 m_k x; the m_k interval feeds straight in
            c, s = iv_cos_sin(approx.ms[k] * angle, bits)
            total = total + CI(mag * c, mag * s)
        total = total.pad(approx.tail_bound(j))
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
        self.rho = Fraction(self.rho)
        if not (0 <= self.rho < 1):
            raise DomainError("rho must satisfy 0 <= rho < 1")
        if self.N < 8:
            raise DomainError("truncation N must be at least 8")

    def coefficient(self, v: int) -> Fraction:
        a = Fraction(self.coeffs(v))
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
    x = Fraction(x)
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
