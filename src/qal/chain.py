"""Distinct real roots of integer polynomials, by one subresultant chain.

A polynomial in y is a dense list of ints, constant term first, with a
positive leading coefficient.  :func:`_prs` computes Brown's subresultant
PRS of (p, p') on these ints, every division exact, and :func:`_count`
reads the number of distinct real roots of p off the signs of the chain's
leading coefficients, given a sign function for them (Basu, Pollack and
Roy, Algorithms in Real Algebraic Geometry, ch. 8-9).  The last element
is gcd(p, p') up to a factor, so its degree is the multiplicity excess.

Three kinds of polynomial are counted this way.  A grid fibre or a
minimal polynomial over Q, scaled by the positive lcm of its
denominators, is a list of plain ints, whose signs are the plain ones
(:func:`_fibre_counts`).  A polynomial in Z[x][y] is counted near 0+ and
0- with each coefficient a(x) replaced by the int a(2^w), past a bound on
the chain's coefficients (Kronecker substitution; von zur Gathen and
Gerhard, Modern Computer Algebra, 8.4): the sign of a nonzero c(x) near 0
is that of its lowest-order term, read off the lowest base-2^w digit of
c(2^w) by :func:`_lowest_sign`, so no fraction, gcd or product in Z[x] is
ever formed.

The width.  Let n = deg_y p, |f| the sum of the absolute values of the
integer coefficients of f in x and y, B = |p|^(n-1) |p'|^n and
w = bits(B) + 1, so B < 2^(w-1).  (i) Every element of Brown's PRS from
R_1 on, every h and lc(p) are +- subresultant coefficients or polynomials
(lc(p) = lc(p') / n), whose coefficients are minors of the Sylvester
matrix of (p, p'): n - 1 rows from p and n from p'.  Hadamard's expansion
with |fg| <= |f| |g| bounds each by B.  (ii) So a nonzero such
c = sum c_i x^i with lowest term c_k x^k does not vanish at 2^w:
c(2^w) = 2^(kw) (c_k + 2^w m) with 0 < |c_k| < 2^w.  As x -> 2^w is a
ring map, the chain over Z takes the same degree steps and its exact
quotients are the images of those over Z[x].  (iii) With N = c(2^w),
tz(N) = kw + tz(c_k) with tz(c_k) < w, so k = tz(N) // w and c_k is the
balanced residue of (N >> kw) mod 2^w; near 0- the sign flips for odd k.
"""

from __future__ import annotations

from typing import Callable

from .errors import ChainDegenerationError


def utrim(p: list) -> list:
    """p without its zero leading coefficients, trimmed in place."""
    while p and not p[-1]:
        p.pop()
    return p


def _exquo(a: int, b: int) -> int:
    """The quotient a / b of two ints; a remainder means the chain is not
    the subresultant sequence it should be."""
    q, r = divmod(a, b)
    if r:
        raise ChainDegenerationError("inexact division in the subresultant chain")
    return q


def _prs(p: list[int]) -> list[list[int]]:
    """Brown's subresultant PRS of (p, dp/dy) for p with a positive leading
    coefficient (Brown; Cohen, Algorithm 3.3.1).

    R_0 = p, R_1 = dp/dy and R_(i+1) = prem(R_(i-1), R_i) / beta_i with
    prem(A, B) = lc(B)^(delta+1) A mod B, delta_i = deg R_(i-1) - deg R_i,
    beta_1 = 1 and beta_i = lc(R_(i-1)) h_(i-1)^delta_i, where h_0 = 1 and
    h_i = lc(R_i)^delta_i / h_(i-1)^(delta_i - 1); every division is exact.
    Returns the chain up to its last nonzero element, gcd(p, dp/dy) up to a
    factor; :func:`_count` reads the steps back from it.
    """
    chain = [p, [k * p[k] for k in range(1, len(p))]]
    g = h = 1
    while True:
        A, B = chain[-2:]
        lead, n = B[-1], len(B)
        delta = len(A) - n
        rem = list(A)
        for shift in range(delta, -1, -1):
            top = rem.pop()
            for i in range(shift):
                rem[i] = lead * rem[i]
            for i in range(n - 1):
                rem[shift + i] = lead * rem[shift + i] - top * B[i]
        if not utrim(rem):
            return chain
        beta = g * h ** delta
        chain.append([_exquo(c, beta) for c in rem] if len(chain) > 2 else rem)
        g = lead
        h = lead if delta == 1 else _exquo(lead ** delta, h ** (delta - 1))


def _count(chain: list[list[int]], sign: Callable[[int], int]) -> int:
    """The number of distinct real roots of chain[0] from the chain that
    :func:`_prs` returns, where sign(a) is the sign (1 or -1) of a nonzero
    leading coefficient on the domain of the count.

    Over the fraction field R_i = m_i S_i, where S is the Sturm chain
    S_0 = p / L, S_1 = p' / L, S_(i+1) = -rem(S_(i-1), S_i) and L = lc(p), so
    m_0 = m_1 = L > 0.  As prem(R_(i-1), R_i) equals
    -lc(R_i)^(delta+1) m_(i-1) S_(i+1), the multiplier is
    m_(i+1) = -lc(R_i)^(delta+1) m_(i-1) / beta_i.  Its sign is the product
    of the signs of its factors, and beta_i = lc(R_(i-1)) h_(i-1)^delta_i
    and h_i are products and exact quotients of leading coefficients, whose
    signs multiply (near 0 so do the lowest-order terms); delta_i is the
    difference of the element lengths.  S_i has the sign of lc(R_i) m_i at
    +infinity and that times (-1)^(deg R_i) at -infinity; the count is the
    number of sign variations at -infinity minus that at +infinity, which
    counts distinct roots whether or not p is squarefree.
    """
    count = at_plus = at_minus = 0   # no variation before the first element
    m_prev = m = 1                   # the signs of m_0 and m_1
    g = h = 1                        # the signs of g and h before each step
    for i, R in enumerate(chain):
        s = sign(R[-1])
        plus = s * m
        minus = plus if len(R) % 2 else -plus
        count += (minus != at_minus) - (plus != at_plus)
        at_plus, at_minus = plus, minus
        if 0 < i < len(chain) - 1:
            if (len(chain[i - 1]) - len(R)) % 2:     # odd delta: beta = g h, h_i = lc
                m_prev, m, h = m, -m_prev * g * h, s
            else:                                     # even delta: beta = g, h_i = h
                m_prev, m = m, -m_prev * s * g
            g = s
    return count


def _fibre_counts(p: list[int]) -> tuple[int, int]:
    """The degree of gcd(p, p') and the number of distinct real roots of p
    in Z[y], a dense list of ints with a positive leading coefficient."""
    chain = _prs(p)
    return len(chain[-1]) - 1, _count(chain, lambda a: 1 if a > 0 else -1)


def _lowest_sign(N: int, w: int, minus: bool) -> int:
    """The sign near 0+ (near 0- for minus) of c in Z[x] with c(2^w) = N != 0
    and every coefficient below 2^(w-1) in absolute value: that of its
    lowest term c_k x^k, bit w - 1 of N >> kw with k = tz(N) // w (see the
    width in the module docstring)."""
    k = ((N & -N).bit_length() - 1) // w
    s = -1 if N >> (k * w + w - 1) & 1 else 1
    return -s if minus and k & 1 else s
