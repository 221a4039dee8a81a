"""Division machinery for plane and higher-dimensional germs.

Covers Euclidean division by the generic monic polynomial and its
specialization to concrete distinguished polynomials, regularity orders,
strict regularity of truncated series, hyperbolicity of plane distinguished
polynomials (decided exactly by a fraction-free Sturm chain over Z[x] with
one-sided sign analysis at 0), a grid falsifier for three and more
variables, and the two computable witnesses tied to division failures: the
even-part Taylor coefficients of the extremal function theta and the
flat-function derivative table for Gevrey weights.

The hyperbolicity decision rests on the observation that the sign of a
nonzero polynomial near 0+ or 0- is read off from its lowest-order term, so
"all roots real for every x' in a punctured neighborhood" is decidable
without any sampling.  The polynomial is scaled into Z[x][y] and one
subresultant chain (Brown's PRS: a pseudo-remainder, then an exact division
in Z[x]) replaces the Euclid over Q(x): each element is the Sturm element
times a multiplier whose sign on each side of 0 is tracked, so no fraction
and no gcd of coefficients is ever formed (Basu, Pollack and Roy,
Algorithms in Real Algebraic Geometry, ch. 8-9).  The chain works on plain
Python ints in dense lists: sympy's polynomial rings would do the same job
but importing them more than doubles the resident memory and adds a few
tenths of a second to the import of every module that imports this one.

The grid falsifier forms no Fraction per point: all its fibres are taken
over one positive common denominator L, fixed once for the grid, so each
fibre is L phi(y) at the point, a list of ints for the same chain.  A
positive factor changes neither the roots nor their multiplicities, so the
counts and the multiplicity excess are those of phi(y) there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (ArityMismatchError, CertificationError,
                     ChainDegenerationError, DomainError, NonMonicDivisorError,
                     PrecisionFailure, ZeroPolynomialError)
from .intervals import RI, certify, default_bits, iv_exp, ri_pow_frac
from .polynomials import MultiPoly, _var_key, umul, usub, utrim
from .rationals import factorial, format_fraction
from .sequences import CarlemanSequence
from .theta import _magnitude_at_zero, build_theta


# -- Euclidean division ----------------------------------------------------------

def euclid_divide(P: MultiPoly, F: MultiPoly, var: str) -> tuple[MultiPoly, MultiPoly]:
    """Divide P by F along var: P = F*G + H with deg_var H < deg_var F.

    F must be monic in var with a constant leading coefficient; the
    remaining variables ride along symbolically in the coefficient ring,
    where monic division needs no coefficient inversion.  The identity is
    re-verified by expansion before returning.
    """
    vars_all = tuple(sorted(set(P.vars) | set(F.vars) | {var},
                            key=_var_key))
    P = P.with_vars(vars_all)
    F = F.with_vars(vars_all)
    d = F.degree(var)
    if d < 0:
        raise NonMonicDivisorError("cannot divide by the zero polynomial")
    lead = F.coefficient(var, d)
    if not (lead.total_degree() == 0 and lead.constant_term() == 1):
        raise NonMonicDivisorError(f"divisor is not monic in {var}")

    rest = tuple(v for v in vars_all if v != var)
    p_coeffs = [c for c in P.as_univariate(var)]
    f_coeffs = [c for c in F.as_univariate(var)]
    quot: list[MultiPoly] = [MultiPoly(rest) for _ in range(max(0, len(p_coeffs) - d))]
    work = list(p_coeffs)
    while len(work) > d:
        top = work[-1]
        shift = len(work) - 1 - d
        if top:
            quot[shift] = quot[shift] + top
            for i in range(d + 1):
                work[shift + i] = work[shift + i] - top * f_coeffs[i]
        work.pop()

    at = vars_all.index(var)

    def assemble(coeff_list):
        # every coefficient lies in `rest`: var^p only inserts p into its exponents
        return MultiPoly(vars_all, {exps[:at] + (p,) + exps[at:]: c
                                    for p, poly in enumerate(coeff_list)
                                    for exps, c in poly.coeffs.items()})

    G = assemble(quot)
    H = assemble(work)
    if F * G + H != P:
        raise CertificationError("division identity failed to re-expand")
    if H and H.degree(var) >= d:
        raise CertificationError("remainder degree not reduced")
    return G, H


def generic_divisor(d: int, var: str = "z") -> MultiPoly:
    """The generic monic polynomial z^d + mu1 z^(d-1) + ... + mud."""
    mus = tuple(f"mu{i}" for i in range(1, d + 1))
    vars_all = tuple(sorted(mus)) + (var,)
    out = MultiPoly.variable(var, vars_all) ** d
    for i in range(1, d + 1):
        out = out + MultiPoly.variable(f"mu{i}", vars_all) \
            * MultiPoly.variable(var, vars_all) ** (d - i)
    return out


@dataclass
class DistinguishedPoly:
    """Monic polynomial var^d + a_1(x') var^(d-1) + ... + a_d(x') whose
    coefficients vanish at the origin."""

    var: str
    d: int
    a: list[MultiPoly]      # a[j] multiplies var^(d-1-j); all a[j](0) = 0

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("distinguished polynomial needs degree >= 1")
        if len(self.a) != self.d:
            raise ArityMismatchError(
                f"need {self.d} coefficients, got {len(self.a)}")
        for j, aj in enumerate(self.a):
            if aj and aj.constant_term() != 0:
                raise DomainError(f"coefficient a_{j + 1} does not vanish at 0")
            if aj.vars and self.var in aj.vars and aj.degree(self.var) > 0:
                raise DomainError(f"coefficient a_{j + 1} involves {self.var}")

    @staticmethod
    def from_multipoly(phi: MultiPoly, var: str) -> "DistinguishedPoly":
        d = phi.degree(var)
        if d < 1:
            raise DomainError("polynomial has no main-variable degree")
        lead = phi.coefficient(var, d)
        if not (lead.total_degree() == 0 and lead.constant_term() == 1):
            raise NonMonicDivisorError(f"not monic in {var}")
        coeffs = [phi.coefficient(var, d - j) for j in range(1, d + 1)]
        return DistinguishedPoly(var, d, coeffs)

    def to_multipoly(self) -> MultiPoly:
        vars_all = tuple(sorted(set(v for aj in self.a for v in aj.vars) | {self.var},
                                key=_var_key))
        out = MultiPoly.variable(self.var, vars_all) ** self.d
        for j, aj in enumerate(self.a):
            out = out + aj.with_vars(vars_all) \
                * MultiPoly.variable(self.var, vars_all) ** (self.d - 1 - j)
        return out


def specialize_division(P: MultiPoly, phi: DistinguishedPoly,
                        var: str = "z") -> tuple[MultiPoly, list[MultiPoly]]:
    """Divide P(z) by phi via the generic divisor: first the symbolic
    division by z^d + mu1 z^(d-1) + ..., then the exact substitution
    mu_j := a_j(x').  The specialized identity is re-verified by expansion.
    var must not be a variable of phi's coefficients (DomainError).
    """
    phi_poly = phi.to_multipoly()
    if phi.var != var and var in phi_poly.vars:
        raise DomainError(f"the division variable {var} is a variable of "
                          "phi's coefficients")
    d = phi.d
    F = generic_divisor(d, var)
    G, H = euclid_divide(P, F, var)
    for j in range(1, d + 1):
        G = G.substitute(f"mu{j}", phi.a[j - 1])
        H = H.substitute(f"mu{j}", phi.a[j - 1])
    if phi.var != var:
        renamed = tuple(var if v == phi.var else v for v in phi_poly.vars)
        phi_poly = MultiPoly(renamed, phi_poly.coeffs).with_vars(
            tuple(sorted(renamed, key=_var_key)))
    if phi_poly * G + H != P.with_vars(tuple(sorted(set(P.vars) | set(phi_poly.vars),
                                                    key=_var_key))):
        raise CertificationError("specialized division identity failed")
    h_parts = [H.coefficient(var, j) if (H and H.degree(var) >= j) else MultiPoly(())
               for j in range(d)]
    return G, h_parts


def regular_order(phi: MultiPoly, var: str) -> int | None:
    """Order of vanishing of phi(0, ..., 0, var) at 0, or None when that
    restriction vanishes identically (not regular)."""
    if phi.is_zero():
        raise ZeroPolynomialError("regular order of the zero polynomial")
    restricted = {}
    i = phi.vars.index(var) if var in phi.vars else None
    if i is None:
        return None if phi.constant_term() == 0 else 0
    for exps, c in phi.coeffs.items():
        if all(e == 0 for n, e in enumerate(exps) if n != i):
            restricted[exps[i]] = restricted.get(exps[i], 0) + c
    powers = sorted(p for p, c in restricted.items() if c != 0)
    return powers[0] if powers else None


def strictly_regular_check(F: MultiPoly, d: int, var: str) -> bool:
    """True iff F has no monomials of total degree < d and the pure var^d
    coefficient is nonzero."""
    if F.total_degree() >= 0 and F.order() < d:
        return False
    i = F.vars.index(var) if var in F.vars else None
    if i is None:
        return False
    target = tuple(d if n == i else 0 for n in range(len(F.vars)))
    return F.coeffs.get(target, 0) != 0


# -- hyperbolicity ----------------------------------------------------------------
#
# A polynomial in the main variable over Z[x] is a dense list, constant term
# first, of elements of Z[x]; an element of Z[x] is a dense list of ints with
# no trailing zero, and [] is zero.  A fibre at a grid point is the case where
# every element has degree 0.

def _param_vars(phi: DistinguishedPoly) -> set[str]:
    """The parameter variables that occur in some coefficient of phi."""
    return {v for aj in phi.a for exps in aj.coeffs
            for v, e in zip(aj.vars, exps) if e}


def _dense_in_param(a: MultiPoly) -> list:
    """Dense coefficients of a polynomial in at most one occurring variable."""
    row = [0] * (a.total_degree() + 1)
    for exps, c in a.coeffs.items():
        row[sum(exps)] += c
    return row


def _cleared(rows: list[list]) -> list[list[int]]:
    """A polynomial over Q[x], given as dense rows, times the positive lcm of
    its denominators: an element of Z[x][y] with the same roots."""
    scale = lcm(*(Fraction(c).denominator for row in rows for c in row))
    return [utrim([(Fraction(c) * scale).numerator for c in row]) for row in rows]


def _zx_sign(a: list[int], side: str) -> int:
    """Sign of a nonzero element of Z[x] on (0, eps) for side 'plus' or on
    (-eps, 0) for side 'minus', eps small: the sign of its lowest-order term."""
    k = next(i for i, c in enumerate(a) if c)
    s = 1 if a[k] > 0 else -1
    return -s if side == "minus" and k % 2 else s


def _zx_pow(a: list[int], e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = umul(out, a)
    return out


def _zx_exquo(a: list[int], b: list[int]) -> list[int]:
    """The quotient a / b in Z[x]; a division that leaves a remainder means
    the chain is not the subresultant sequence it should be."""
    rem = list(a)
    n, lead = len(b), b[-1]
    quot = [0] * max(0, len(rem) - n + 1)
    for shift in range(len(quot) - 1, -1, -1):
        q, r = divmod(rem[shift + n - 1], lead)
        if r:
            raise ChainDegenerationError("inexact division in the Sturm chain")
        quot[shift] = q
        if q:
            for i in range(n - 1):
                rem[shift + i] -= q * b[i]
    if any(rem[:n - 1]):
        raise ChainDegenerationError("inexact division in the Sturm chain")
    return quot


def _prem(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    """Pseudo-remainder lc(B)^(deg A - deg B + 1) * A mod B in Z[x][y]."""
    lead, n = B[-1], len(B)
    rem = list(A)
    for shift in range(len(A) - n, -1, -1):
        top = rem.pop()
        rem = [umul(lead, c) for c in rem]
        if top:
            for i in range(n - 1):
                rem[shift + i] = usub(rem[shift + i], umul(top, B[i]))
    return utrim(rem)


def _variations(signs: list[int]) -> int:
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sturm_counts(p: list[list[int]], sides: tuple[str, ...]) -> tuple[int, dict]:
    """The y-degree of gcd(p, dp/dy), and for each side the number of
    distinct real roots of p(x, .) for every x near 0 on that side; p has a
    positive constant leading coefficient.

    One subresultant PRS of (p, dp/dy) over Z[x] (Brown; Cohen, Algorithm
    3.3.1): R_(i+1) = prem(R_(i-1), R_i) / (g h^delta), each division exact.
    Over Q(x), R_i = m_i S_i, where S is the Sturm chain
    S_(i+1) = -rem(S_(i-1), S_i).  As prem(R_(i-1), R_i) equals
    -lc(R_i)^(delta+1) m_(i-1) S_(i+1), the multiplier is
    m_(i+1) = -lc(R_i)^(delta+1) m_(i-1) / (g h^delta), and its sign on a
    side is the product of the signs of its factors there.  The last
    element is gcd(p, dp/dy), and the chain counts distinct roots whether or
    not p is squarefree.
    """
    dp = [[k * c for c in p[k]] for k in range(1, len(p))]
    ones = dict.fromkeys(sides, 1)
    chain = [(p, ones), (dp, ones)]   # p = L S_0 and dp/dy = L S_1 with L > 0
    g = h = [1]
    while True:
        (A, m_a), (B, _) = chain[-2:]
        R = _prem(A, B)
        if not R:
            break
        delta = len(A) - len(B)
        beta = umul(g, _zx_pow(h, delta))
        m_r = {s: -m_a[s] * _zx_sign(B[-1], s) ** (delta + 1) * _zx_sign(beta, s)
               for s in sides}
        chain.append(([_zx_exquo(c, beta) for c in R], m_r))
        g = B[-1]
        h = g if delta == 1 else _zx_exquo(_zx_pow(g, delta), _zx_pow(h, delta - 1))

    counts = {}
    for s in sides:
        at_plus = [_zx_sign(R[-1], s) * m[s] for R, m in chain]
        at_minus = [sg * (-1) ** (len(R) - 1) for sg, (R, _) in zip(at_plus, chain)]
        counts[s] = _variations(at_minus) - _variations(at_plus)
    return len(chain[-1][0]) - 1, counts


@dataclass
class HyperbolicityReport:
    verdict: str                      # 'hyperbolic' | 'not-hyperbolic' | 'undecided'
    witness_side: str | None          # 'plus' | 'minus' | 'both' | None
    degree: int                       # deg of the squarefree part in the main var
    multiplicity_excess: int          # deg of gcd(phi, phi') in the main var
    real_root_counts: dict            # side -> distinct real roots near 0

    def to_json(self):
        return {"verdict": self.verdict, "witness_side": self.witness_side,
                "degree": self.degree,
                "multiplicity_excess": self.multiplicity_excess,
                "real_root_counts": self.real_root_counts}


def _require_distinguished(phi) -> None:
    if not isinstance(phi, DistinguishedPoly):
        raise DomainError(f"expected a DistinguishedPoly, got {type(phi).__name__}; "
                          "convert with DistinguishedPoly.from_multipoly")


def hyperbolic_check_2d(phi: DistinguishedPoly,
                        side: str = "both") -> HyperbolicityReport:
    """Decide whether all roots of phi(x, .) are real for every x in a
    punctured one-sided neighborhood of 0.

    phi is scaled by a positive integer into Z[x][y] and one subresultant
    chain of (phi, phi') is computed over Z[x].  Each element is the Sturm
    element over Q(x) times a multiplier whose sign near 0+ and near 0- is
    tracked; near 0 the sign of an element of Z[x] is that of its
    lowest-order term, so the count of distinct real roots on each side is
    exact.  The last element is gcd(phi, phi'), whose degree is the
    multiplicity excess.  phi is hyperbolic iff on every requested side the
    count equals the squarefree degree.
    """
    _require_distinguished(phi)
    if side not in ("both", "plus", "minus"):
        raise DomainError("side must be 'both', 'plus' or 'minus'")
    if len(_param_vars(phi)) > 1:
        raise DomainError("the exact decision applies to one parameter "
                          "variable; use hyperbolic_falsify_grid for more")
    rows = [_dense_in_param(aj) for aj in reversed(phi.a)] + [[1]]
    sides = ("plus", "minus") if side == "both" else (side,)
    excess, counts = _sturm_counts(_cleared(rows), sides)
    sf_deg = phi.d - excess
    bad = [s for s in sides if counts[s] != sf_deg]
    if not bad:
        return HyperbolicityReport("hyperbolic", None, sf_deg, excess, counts)
    witness = "both" if len(bad) == 2 else bad[0]
    return HyperbolicityReport("not-hyperbolic", witness, sf_deg, excess, counts)


def hyperbolic_falsify_grid(phi: DistinguishedPoly, radius: Fraction,
                            resolution: int) -> dict | None:
    """Search a rational grid in the parameter variables for a point whose
    fiber has a non-real root, decided exactly by the same integer chain
    with constant coefficients.

    The grid is step * (i_1, ..., i_n) with step = radius / resolution and
    |i_v| <= resolution.  A term c x^e of a coefficient a_j is
    c step^|e| i^e there, so every c step^|e| is scaled once by the
    positive lcm L of their denominators into an integer; at each point
    the fiber is then L phi(y) evaluated on the integer index vector, a
    list of ints with leading coefficient L.  A positive constant factor
    changes neither the roots nor their multiplicities, so the counts and
    the multiplicity excess are those of phi(y) at the point.

    Returns the first counterexample point {v: i_v * step} (variables in
    sorted order) in deterministic scan order, the first variable running
    fastest, or None.  A None result is NOT a hyperbolicity proof; it only
    reports that the grid found nothing.
    """
    _require_distinguished(phi)
    radius = Fraction(radius)
    if radius <= 0 or resolution < 1:
        raise DomainError("grid needs a positive radius and resolution")
    params = sorted(set(v for aj in phi.a for v in aj.vars))
    step = radius / resolution
    scaled = [[(c * step ** sum(exps),
                [(params.index(v), e) for v, e in zip(aj.vars, exps) if e])
               for exps, c in aj.coeffs.items()]
              for aj in reversed(phi.a)]
    L = lcm(*(c.denominator for terms in scaled for c, _ in terms))
    rows = [[((c * L).numerator, powers) for c, powers in terms] for terms in scaled]

    def points(index):
        if index == len(params):
            yield ()
            return
        for rest in points(index + 1):
            for i in range(-resolution, resolution + 1):
                yield (i,) + rest

    for point in points(0):
        fiber = []
        for terms in rows:
            value = 0
            for n, powers in terms:
                for k, e in powers:
                    n *= point[k] ** e
                value += n
            fiber.append([value] if value else [])
        # a constant has the same sign on both sides
        excess, counts = _sturm_counts(fiber + [[L]], ("plus",))
        if counts["plus"] != phi.d - excess:
            return {v: i * step for v, i in zip(params, point)}
    return None


# -- witnesses --------------------------------------------------------------------

@dataclass
class NoDivWitness:
    """Taylor data of the even part of theta: c_j = (-1)^j theta^(2j)(0)/(2j)!
    with the certified bound |c_j| >= M_{2j}, plus the growth diagnostic
    sup (M_{2j}/M_j)^(1/j) whose divergence blocks membership of the even
    part in the original class."""

    orders: list[int]
    c_values: list[RI]
    lower_bounds: list[Fraction]
    diagnostics: list[RI]
    diagnostic_sup: RI
    symbolic_note: str

    def to_json(self):
        return {"orders": self.orders,
                "c": [v.to_json() for v in self.c_values],
                "lower_bounds": [format_fraction(b) for b in self.lower_bounds],
                "diagnostics": [d.to_json() for d in self.diagnostics],
                "diagnostic_sup": self.diagnostic_sup.to_json(),
                "note": self.symbolic_note}


def nodiv_witness(M: CarlemanSequence, J: int, K: int) -> NoDivWitness:
    """Certified table of the even-part Taylor coefficients of theta.

    theta^(2j)(0) = (-1)^j * S with S a positive sum whose k=2j term alone
    is (2j)! M_{2j}, so c_j = S/(2j)! >= M_{2j} with certainty.  The
    diagnostic column reports (M_{2j}/M_j)^(1/j); for any non-analytic
    log-convex sequence M_{2j} >= M_j^2 makes it diverge, which is recorded
    symbolically.

    The table runs on :func:`certify`: each attempt builds one theta
    approximation and one list M_0..M_{2J} and reads every order from them,
    and an attempt that cannot certify some c_j >= M_{2j} escalates.
    """
    if J < 1 or K < 2 * J + 8:
        raise DomainError("need J >= 1 and K >= 2J + 8")
    failed = 0

    def attempt(bits: int):
        nonlocal failed
        approx = build_theta(M, K, bits)
        values = [M.interval_value(i, bits) for i in range(2 * J + 1)]
        cvals = []
        for j in range(J + 1):
            c = _magnitude_at_zero(approx, 2 * j) * RI.point(Fraction(1, factorial(2 * j)))
            if c.lo < values[2 * j].hi:
                failed = j
                return None
            cvals.append(c)
        diags = []
        for j in range(1, J + 1):
            ratio = values[2 * j] / values[j]
            diags.append(ri_pow_frac(ratio.lo if ratio.is_point() else ratio,
                                     Fraction(1, j), bits))
        return cvals, [values[2 * j].hi for j in range(J + 1)], diags

    cvals, lows, diags = certify(
        attempt, lambda: f"cannot certify |c_{failed}| >= M_{2 * failed}",
        PrecisionFailure)
    sup = diags[0]
    for d in diags[1:]:
        sup = RI(max(sup.lo, d.lo), max(sup.hi, d.hi))
    if M.family == "analytic":
        note = ("analytic class: the diagnostic is constantly 1 and the "
                "witness degenerates")
    else:
        note = ("log-convexity gives M_{2j} >= M_j^2, so the diagnostic "
                "dominates (M_j)^(1/j), which is unbounded outside the "
                "analytic class; the even part escapes every constant "
                "multiple of the original weight")
    return NoDivWitness([2 * j for j in range(J + 1)], cvals, lows, diags, sup, note)


@dataclass
class FlatWitnessRow:
    j: int
    value: RI                  # the 2j-th pure-y derivative at (j^-alpha, 0)
    bound_base: RI             # (2j)!^(1 + k*alpha)
    ratio: RI                  # |value| / bound_base


@dataclass
class FlatWitnessTable:
    alpha: Fraction
    k: int
    rows: list[FlatWitnessRow]
    constant: Fraction         # largest dyadic C with |value_j| >= C^(j+1) * base_j

    def to_json(self):
        return {"alpha": format_fraction(self.alpha), "k": self.k,
                "constant": format_fraction(self.constant),
                "rows": [{"j": r.j, "value": r.value.to_json(),
                          "ratio": r.ratio.to_json()} for r in self.rows]}


def gevrey_flat_witness(alpha: Fraction, k: int, J: int,
                        bits: int | None = None) -> FlatWitnessTable:
    """Derivative table of the flat quotient g = exp(-|x|^(-1/alpha)) / (y^2 + x^(2k))
    along y = 0, sampled at x_j = j^-alpha.

    The 2j-th pure-y derivative there equals
        (-1)^j (2j)! exp(-j) j^(2 k alpha (j+1)),
    computed as a certified interval.  The table reports the largest
    dyadic constant C (bisected to relative granularity 2^-16) such that
    |value_j| >= C^(j+1) (2j)!^(1+k*alpha) holds for all 1 <= j <= J; the
    bound certifies that the quotient's derivatives outgrow the k-th power
    of the weight sequence, which blocks flat-ideal membership below the
    critical exponent.  The constant is empirical for this table, not a
    universally valid one.
    """
    alpha = Fraction(alpha)
    if alpha <= 0 or k < 1 or J < 1:
        raise DomainError("need alpha > 0, k >= 1, J >= 1")
    bits = bits or default_bits()
    rows = []
    for j in range(1, J + 1):
        mag = RI.point(Fraction(factorial(2 * j))) * iv_exp(Fraction(-j), bits)
        expo = 2 * k * alpha * (j + 1)
        mag = mag * ri_pow_frac(Fraction(j), expo, bits)
        value = mag if j % 2 == 0 else -mag
        base = ri_pow_frac(Fraction(factorial(2 * j)), 1 + k * alpha, bits)
        rows.append(FlatWitnessRow(j, value, base, mag / base))

    def holds(C: Fraction) -> bool:
        for r in rows:
            if not (C ** (r.j + 1) * r.bound_base.hi <= r.value.abs().lo):
                return False
        return True

    lo, hi = Fraction(0), Fraction(4)
    if not holds(Fraction(1, 1 << 60)):
        raise PrecisionFailure("no positive constant certifiable; raise bits")
    lo = Fraction(1, 1 << 60)
    for _ in range(80):
        mid = (lo + hi) / 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
        if lo > 0 and (hi - lo) / lo < Fraction(1, 1 << 16):
            break
    return FlatWitnessTable(alpha, k, rows, lo)
