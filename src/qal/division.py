"""Division machinery for plane and higher-dimensional germs.

Covers Euclidean division by a monic polynomial, the generic one or a
concrete distinguished polynomial, regularity orders,
strict regularity of truncated series, hyperbolicity of plane distinguished
polynomials (decided exactly by a fraction-free Sturm chain over Z[x] with
one-sided sign analysis at 0), a grid falsifier for three and more
variables, and the two computable witnesses tied to division failures: the
even-part Taylor coefficients of the extremal function theta and the
flat-function derivative table for Gevrey weights.

The division runs on integers from input to output; only the returned
coefficients are Fractions.  :func:`euclid_divide` clears the denominators
of P and of the monic divisor F once (P = P_Z / L_P, F = F_Z / L_F) and
pseudo-divides L_F^e P_Z by F_Z, e = deg P - deg F + 1, which is plain
integer division for an integral divisor such as the generic one
(L_F = 1); G and H come out over the one scale S = L_P L_F^e.  The
identity F_Z Q + R = L_F^e P_Z is re-verified by expansion, as a
comparison of the integer polynomials the returned Fractions are made
from.  Division by a monic polynomial is unique, so
:func:`specialize_division` is this one division with F = phi(z), the
distinguished polynomial itself: its identity is the one certificate,
and H is split into its parts by the power of z.

The hyperbolicity decision rests on the observation that the sign of a
nonzero polynomial near 0+ or 0- is that of its lowest-order term, so "all
roots real for every x' in a punctured neighborhood" is decidable without
any sampling.  The polynomial is scaled into Z[x][y] and counted by the
integer subresultant chain of ``qal.chain``, whose module docstring holds
the width and count proofs; no Euclid over Q(x) is ever run.

The grid falsifier forms no Fraction per point: all its fibres are taken
over one positive common denominator L, fixed once for the grid, so each
fibre is L phi(y) at the point, a list of plain ints.  The same two
routines count it on native int products, exact quotients and the plain
sign.  A positive factor changes neither the roots nor their
multiplicities, so the counts and the multiplicity excess are those of
phi(y) there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from .chain import _count, _fibre_counts, _lowest_sign, _prs, utrim
from .errors import (ArityMismatchError, CertificationError, DomainError,
                     NonMonicDivisorError, PrecisionFailure, ZeroPolynomialError)
from .intervals import RI, _floor_dyadic, certify, default_bits, iv_exp, ri_pow_frac
from .polynomials import MultiPoly, _accumulate_product, _var_key
from .rationals import (_instance, _order, _rational, factorial, format_fraction,
                        root_bounds)
from .sequences import CarlemanSequence, _checked
from .theta import _magnitude_at_zero, build_theta


# -- Euclidean division ----------------------------------------------------------

def _denominator(poly: MultiPoly) -> int:
    """The positive lcm of the denominators of poly's rational coefficients."""
    return lcm(*(c.denominator for c in poly.coeffs.values()))


def _scaled(coeffs: dict, scale: int) -> dict:
    """The integers scale * c of rational coefficients c; scale must clear
    every denominator."""
    return {e: c.numerator * (scale // c.denominator) for e, c in coeffs.items()}


def _over(coeffs: dict, scale: int) -> dict:
    """The Fractions c / scale of integer coefficients c."""
    return {e: Fraction(c, scale) for e, c in coeffs.items()}


def _rows(poly: MultiPoly, rest: tuple[str, ...], var: str) -> list[dict]:
    """The coefficients of poly as a dense list in var, constant term
    first; entry p maps exponents over rest to the coefficient of var^p."""
    slots = [None if v == var else rest.index(v) for v in poly.vars]
    rows: list[dict] = []
    for exps, c in poly.coeffs.items():
        key = [0] * len(rest)
        power = 0
        for slot, e in zip(slots, exps):
            if slot is None:
                power = e
            else:
                key[slot] = e
        while len(rows) <= power:
            rows.append({})
        rows[power][tuple(key)] = c
    return rows


def euclid_divide(P: MultiPoly, F: MultiPoly, var: str) -> tuple[MultiPoly, MultiPoly]:
    """Divide P by F along var: P = F*G + H with deg_var H < deg_var F.

    F must be monic in var with a constant leading coefficient; the
    remaining variables ride along symbolically in the coefficient ring,
    where monic division needs no coefficient inversion.

    The division runs on integers.  Let L_P and L_F be the positive lcms
    of the denominators of P and of F, so P = P_Z / L_P and F = F_Z / L_F
    with P_Z and F_Z integral, and the leading coefficient of F_Z is the
    constant L_F.  With d = deg_var F and e = deg_var P - d + 1 (0 when
    deg_var P < d), the pseudo-division L_F^e P_Z = F_Z Q + R is exact
    over the integers: each of its e steps divides a top coefficient that
    still carries a factor L_F by L_F.  With the scale S = L_P L_F^e,
    G = L_F Q / S and H = R / S.  For the generic divisor L_F = 1 and this
    is plain integer division.  The identity F_Z Q + R = L_F^e P_Z is
    re-verified by expansion, as a comparison of integer polynomials,
    before the Fractions are formed.
    """
    _instance(P, MultiPoly, "the dividend")
    _instance(F, MultiPoly, "the divisor")
    _instance(var, str, "the variable")
    vars_all = tuple(sorted(set(P.vars) | set(F.vars) | {var},
                            key=_var_key))
    rest = tuple(v for v in vars_all if v != var)
    L_P, L_F = _denominator(P), _denominator(F)
    f_rows = [_scaled(row, L_F) for row in _rows(F, rest, var)]
    d = len(f_rows) - 1
    if d < 0:
        raise NonMonicDivisorError("cannot divide by the zero polynomial")
    if f_rows[d] != {(0,) * len(rest): L_F}:
        raise NonMonicDivisorError(f"divisor is not monic in {var}")

    p_rows = [_scaled(row, L_P) for row in _rows(P, rest, var)]
    e = max(0, len(p_rows) - d)
    lift = L_F ** e
    work = [{k: c * lift for k, c in row.items()} for row in p_rows]
    quot: list[dict] = [{} for _ in range(e)]
    while len(work) > d:
        top = work.pop()
        shift = len(work) - d
        # exact: the top coefficient still carries a factor L_F
        quot[shift] = {k: c // L_F for k, c in top.items() if c}
        minus = {k: -c for k, c in quot[shift].items()}
        for i in range(d):
            _accumulate_product(work[shift + i], minus, f_rows[i])

    at = vars_all.index(var)

    def assemble(rows):
        # every coefficient lies in `rest`: var^p only inserts p into its exponents
        return MultiPoly._of(vars_all, {exps[:at] + (p,) + exps[at:]: c
                                        for p, row in enumerate(rows)
                                        for exps, c in row.items()})

    Q, R = assemble(quot), assemble(work)
    if assemble(f_rows) * Q + R != assemble(p_rows) * lift:
        raise CertificationError("division identity failed to re-expand")
    if R and R.degree(var) >= d:
        raise CertificationError("remainder degree not reduced")
    # G = L_F Q / S with S = L_P L_F^e; Q is zero when e = 0
    return (MultiPoly._of(vars_all, _over(Q.coeffs, L_P * L_F ** max(e - 1, 0))),
            MultiPoly._of(vars_all, _over(R.coeffs, L_P * lift)))


def generic_divisor(d: int, var: str = "z") -> MultiPoly:
    """The generic monic polynomial z^d + mu1 z^(d-1) + ... + mud."""
    _order(d, "the divisor degree", 1)
    _instance(var, str, "the variable")
    mus = tuple(f"mu{i}" for i in range(1, d + 1))
    vars_all = tuple(sorted(mus)) + (var,)
    terms = {(0,) * d + (d,): Fraction(1)}
    for i in range(1, d + 1):
        exps = [0] * (d + 1)
        exps[vars_all.index(f"mu{i}")] = 1
        exps[d] = d - i
        terms[tuple(exps)] = Fraction(1)
    return MultiPoly(vars_all, terms)


@dataclass
class DistinguishedPoly:
    """Monic polynomial var^d + a_1(x') var^(d-1) + ... + a_d(x') whose
    coefficients vanish at the origin."""

    var: str
    d: int
    a: list[MultiPoly]      # a[j] multiplies var^(d-1-j); all a[j](0) = 0

    def __post_init__(self):
        _instance(self.var, str, "the variable")
        _order(self.d, "the degree of a distinguished polynomial", 1)
        for aj in _instance(self.a, (list, tuple), "the coefficients"):
            _instance(aj, MultiPoly, "a coefficient")
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
        _instance(phi, MultiPoly, "phi")
        _instance(var, str, "the variable")
        d = phi.degree(var) if var in phi.vars else 0
        if d < 1:
            raise DomainError("polynomial has no main-variable degree")
        lead = phi.coefficient(var, d)
        if not (lead.total_degree() == 0 and lead.constant_term() == 1):
            raise NonMonicDivisorError(f"not monic in {var}")
        coeffs = [phi.coefficient(var, d - j) for j in range(1, d + 1)]
        return DistinguishedPoly(var, d, coeffs)


def specialize_division(P: MultiPoly, phi: DistinguishedPoly,
                        var: str = "z") -> tuple[MultiPoly, list[MultiPoly]]:
    """Divide P by phi(z) = z^d + a_1(x') z^(d-1) + ... + a_d(x'):
    P = phi G + H with H = h_0 + h_1 z + ... + h_(d-1) z^(d-1), returned as
    (G, [h_0, ..., h_(d-1)]), each h_j a polynomial in the other variables
    (MultiPoly(()) above H's degree, every part when H = 0).  var must not
    be a variable of phi's coefficients (DomainError).

    Division by a monic polynomial is unique, so this is the one
    pseudo-division :func:`euclid_divide` by phi(z), whose integer
    identity F_Z Q + R = L_F^e P_Z is the certificate; the generic
    division by z^d + mu1 z^(d-1) + ... specialized at mu_j := a_j gives
    the same G and H.
    """
    _instance(P, MultiPoly, "the dividend")
    _instance(phi, DistinguishedPoly, "phi")
    _instance(var, str, "the variable")
    if phi.var != var and any(var in aj.vars for aj in phi.a):
        raise DomainError(f"the division variable {var} is a variable of "
                          "phi's coefficients")
    d = phi.d
    phi_vars = tuple(sorted({var}.union(*(aj.vars for aj in phi.a)), key=_var_key))
    z_at = phi_vars.index(var)
    # a_j multiplies z^(d-1-j); a_j has no positive power of z
    terms = {tuple(d if i == z_at else 0 for i in range(len(phi_vars))): Fraction(1)}
    for j, aj in enumerate(phi.a):
        for exps, c in aj.with_vars(phi_vars).coeffs.items():
            terms[exps[:z_at] + (d - 1 - j,) + exps[z_at + 1:]] = c
    G, H = euclid_divide(P, MultiPoly(phi_vars, terms), var)
    # the parts of H by the power of var, in one pass
    at = H.vars.index(var)
    top = H.degree(var)
    parts: list[dict] = [{} for _ in range(top + 1)]
    for exps, c in H.coeffs.items():
        parts[exps[at]][exps[:at] + exps[at + 1:]] = c
    rest = H.vars[:at] + H.vars[at + 1:]
    return G, [MultiPoly(rest, part) for part in parts] \
        + [MultiPoly(()) for _ in range(top + 1, d)]


def regular_order(phi: MultiPoly, var: str) -> int | None:
    """Order of vanishing of phi(0, ..., 0, var) at 0, or None when that
    restriction vanishes identically (not regular)."""
    _instance(phi, MultiPoly, "phi")
    _instance(var, str, "the variable")
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
    _instance(F, MultiPoly, "F")
    _order(d, "d", 0)
    _instance(var, str, "the variable")
    if F.total_degree() >= 0 and F.order() < d:
        return False
    i = F.vars.index(var) if var in F.vars else None
    if i is None:
        return False
    target = tuple(d if n == i else 0 for n in range(len(F.vars)))
    return F.coeffs.get(target, 0) != 0


# -- hyperbolicity ----------------------------------------------------------------
#
# A polynomial in y is a dense list of ints, constant term first: a grid fibre,
# or Z[x][y] at x = 2^w for the exact decision.  One chain (qal.chain) serves both.

def _param_vars(phi: DistinguishedPoly) -> set[str]:
    """The parameter variables that occur in some coefficient of phi."""
    return {v for aj in phi.a for exps in aj.coeffs
            for v, e in zip(aj.vars, exps) if e}


def _dense_in_param(a: MultiPoly, scale: int) -> list[int]:
    """scale * a as a dense list of ints, for a polynomial in at most one
    occurring variable whose denominators scale clears."""
    row = [0] * (a.total_degree() + 1)
    for exps, c in _scaled(a.coeffs, scale).items():
        row[sum(exps)] += c
    return utrim(row)


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


def hyperbolic_check_2d(phi: DistinguishedPoly,
                        side: str = "both") -> HyperbolicityReport:
    """Decide whether all roots of phi(x, .) are real for every x in a
    punctured one-sided neighborhood of 0.

    phi is scaled by a positive integer into p in Z[x][y], each coefficient
    a(x) of p is replaced by the int a(2^w), and :func:`_prs` computes one
    subresultant chain of (p, p') on these ints.  :func:`_count` counts the
    distinct real roots on each side with the sign of each leading
    coefficient's lowest-order term, read off its lowest base-2^w digit by
    :func:`_lowest_sign`.  The last element is gcd(p, p'), whose degree is
    the multiplicity excess.  phi is hyperbolic iff on every requested side
    the count equals the squarefree degree.

    The width is w = bits(|p|^(n-1) |p'|^n) + 1, n = deg_y p and |f| the
    sum of the absolute values of the integer coefficients of f: every
    coefficient of the chain over Z[x] is then below 2^(w-1) in absolute
    value, so the chain on the ints is its image (the proof is the width
    paragraph of ``qal.chain``).
    """
    _instance(phi, DistinguishedPoly, "phi")
    if side not in ("both", "plus", "minus"):
        raise DomainError("side must be 'both', 'plus' or 'minus'")
    if len(_param_vars(phi)) > 1:
        raise DomainError("the exact decision applies to one parameter "
                          "variable; use hyperbolic_falsify_grid for more")
    # phi times the positive lcm L of its denominators: the same roots, in Z[x][y]
    L = lcm(*(_denominator(aj) for aj in phi.a))
    rows = [_dense_in_param(aj, L) for aj in reversed(phi.a)] + [[L]]
    norm = sum(abs(c) for row in rows for c in row)
    norm_d = sum(k * abs(c) for k, row in enumerate(rows) for c in row)
    w = (norm ** (phi.d - 1) * norm_d ** phi.d).bit_length() + 1
    chain = _prs([sum(c << (i * w) for i, c in enumerate(row)) for row in rows])
    sides = ("plus", "minus") if side == "both" else (side,)
    counts = {s: _count(chain, lambda N, minus=s == "minus": _lowest_sign(N, w, minus))
              for s in sides}
    excess = len(chain[-1]) - 1
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

    Returns the first counterexample point {v: i_v * step} in
    deterministic scan order, or None.  The variables are ordered by
    ``polynomials._var_key``, as in ``MultiPoly.vars`` (x2 before x10), and
    the first one runs fastest.  A None result is NOT a hyperbolicity
    proof; it only reports that the grid found nothing.
    """
    _instance(phi, DistinguishedPoly, "phi")
    _order(resolution, "the grid resolution", 1)
    if _rational(radius, "the grid radius") <= 0:
        raise DomainError("grid needs a positive radius")
    params = sorted(set(v for aj in phi.a for v in aj.vars), key=_var_key)
    step = Fraction(radius) / resolution
    scaled = [[(c * step ** sum(exps),
                [(params.index(v), e) for v, e in zip(aj.vars, exps) if e])
               for exps, c in aj.coeffs.items()]
              for aj in reversed(phi.a)]
    L = lcm(*(c.denominator for terms in scaled for c, _ in terms))
    rows = [[((c * L).numerator, powers) for c, powers in terms] for terms in scaled]

    # product() runs its last factor fastest: read each index vector reversed
    for point in product(range(-resolution, resolution + 1), repeat=len(params)):
        point = point[::-1]
        fiber = []
        for terms in rows:
            value = 0
            for n, powers in terms:
                for k, e in powers:
                    n *= point[k] ** e
                value += n
            fiber.append(value)
        excess, count = _fibre_counts(fiber + [L])
        if count != phi.d - excess:
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
    approximation and reads every order, and the intervals M_0..M_{2J}
    that approximation holds, from it; an attempt that cannot certify
    some c_j >= M_{2j} escalates.
    """
    _checked(M, J=J, K=K)
    if J < 1 or K < 2 * J + 8:
        raise DomainError("need J >= 1 and K >= 2J + 8")
    failed = 0

    def attempt(bits: int):
        nonlocal failed
        approx = build_theta(M, K, bits)
        values = approx.values       # M_0 .. M_{K+2}, and K > 2J
        cvals = []
        for j in range(J + 1):
            c = _magnitude_at_zero(approx, 2 * j) * RI.point(Fraction(1, factorial(2 * j)))
            if c.lo < values[2 * j].hi:
                failed = j
                return None
            cvals.append(c)
        diags = []
        for j in range(1, J + 1):
            diags.append(ri_pow_frac(values[2 * j] / values[j], Fraction(1, j), bits))
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
    constant C such that |value_j| >= C^(j+1) (2j)!^(1+k*alpha) holds for
    all 1 <= j <= J, rounded down to a dyadic with at least 17 significant
    bits (relative granularity 2^-16): the least over the rows of the
    lower bound of (|value_j|.lo / base_j.hi)^(1/(j+1)).  The bound
    certifies that the quotient's derivatives outgrow the k-th power of
    the weight sequence, which blocks flat-ideal membership below the
    critical exponent.  The constant is empirical for this table, not a
    universally valid one.
    """
    if _rational(alpha, "alpha") <= 0:
        raise DomainError(f"need alpha > 0, got {alpha}")
    _order(k, "k", 1)
    _order(J, "J", 1)
    alpha = Fraction(alpha)
    bits = default_bits() if bits is None else _order(bits, "bits", 1)
    rows = []
    for j in range(1, J + 1):
        mag = RI.point(Fraction(factorial(2 * j))) * iv_exp(Fraction(-j), bits)
        expo = 2 * k * alpha * (j + 1)
        mag = mag * ri_pow_frac(Fraction(j), expo, bits)
        value = mag if j % 2 == 0 else -mag
        base = ri_pow_frac(Fraction(factorial(2 * j)), 1 + k * alpha, bits)
        rows.append(FlatWitnessRow(j, value, base, mag / base))

    roots = []
    for r in rows:
        ratio = _floor_dyadic(r.value.abs().lo / r.bound_base.hi, 40)
        if ratio == 0:
            raise PrecisionFailure("no positive constant certifiable; raise bits")
        roots.append(root_bounds(ratio, r.j + 1, 32)[0])
    C = _floor_dyadic(min(roots), 18)
    if not all(C ** (r.j + 1) * r.bound_base.hi <= r.value.abs().lo for r in rows):
        raise CertificationError("flat-witness constant fails its exact check")
    return FlatWitnessTable(alpha, k, rows, C)
