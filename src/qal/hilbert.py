"""Finite-dimensional exact model of the weighted Sobolev space attached
to a Carleman sequence.

The ambient space is the span of the monomials 1, x, ..., x^D on the
interval (-1, 1) under the inner product

    <u|v> = sum_{j=0}^{D} (j! M_j)^-2 * integral_{-1}^{1} u^(j) v^(j) dx.

Everything is exact rational arithmetic: the Gram matrix has the closed
form

    G[a][b] = sum_{j<=min(a,b)} w_j * a!/(a-j)! * b!/(b-j)! *
              (1 + (-1)^(a+b)) / (a + b - 2j + 1),

and all linear solves have exactly zero residual.

The interval is symmetric, so G[a][b] = 0 whenever a + b is odd: G is a
row-and-column permutation of diag(G_even, G_odd), the Gram blocks of the
even and of the odd monomials.  The model works on the two blocks only.
Each block gets an exact LDL^T factorization, and positive pivots of both
blocks certify that G is positive definite.  They are the pivots of the
LDL^T of the full G as well, read in parity order: the full factor has
L[r][i] = 0 whenever r + i is odd.  The representer of the derivative of
order i at 0 lies in the block of the parity of i, and so does the
minimal interpolant of data supported on that parity.  Every value this
module returns is the one the dense computation gives; only the products
with a structural zero are never formed.

The model is deliberately a truncation: statements about the full space
(such as the column limits of the omega table) appear here as exact
finite-dimensional identities at k = D + 1 and as observed trends across
increasing D, not as proofs about the untruncated space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (CertificationError, DomainError, SelectionFailure,
                     UndecidableAtCap, UnsupportedSequenceError)
from .intervals import PRECISION_CAP
from .rationals import factorial, format_fraction
from .sequences import CarlemanSequence

Vec = list[Fraction]
Mat = list[list[Fraction]]


def ldl_decompose(G: Mat) -> tuple[Mat, Vec]:
    """Exact LDL^T of a symmetric positive definite rational matrix.

    Raises DomainError on a nonpositive pivot, which certifies that the
    matrix is not positive definite.
    """
    n = len(G)
    L: Mat = [[Fraction(0)] * n for _ in range(n)]
    D: Vec = [Fraction(0)] * n
    for i in range(n):
        acc = G[i][i]
        for k in range(i):
            acc -= L[i][k] * L[i][k] * D[k]
        if acc <= 0:
            raise DomainError(f"matrix is not positive definite (pivot {i} = {acc})")
        D[i] = acc
        L[i][i] = Fraction(1)
        for r in range(i + 1, n):
            s = G[r][i]
            for k in range(i):
                s -= L[r][k] * L[i][k] * D[k]
            L[r][i] = s / acc
    return L, D


def ldl_solve(L: Mat, D: Vec, rhs: Vec) -> Vec:
    n = len(rhs)
    y = list(rhs)
    # leading zeros of rhs stay zero in the forward solve and add nothing to later rows
    first = next((i for i, c in enumerate(rhs) if c), n)
    for i in range(first + 1, n):
        for k in range(first, i):
            y[i] -= L[i][k] * y[k]
    for i in range(n):
        y[i] /= D[i]
    for i in reversed(range(n)):
        for k in range(i + 1, n):
            y[i] -= L[k][i] * y[k]
    return y


def _parity_solve(blocks: list[tuple[Mat, Vec]], rhs: Vec) -> Vec:
    """Solve a system that is diag(blocks[0], blocks[1]) after sorting its
    indices by parity: block p, given as its LDL^T factors, couples the
    indices p, p + 2, ...  A block whose part of rhs is zero has the zero
    solution and is not solved."""
    out = [Fraction(0)] * len(rhs)
    for p, (L, D) in enumerate(blocks):
        part = rhs[p::2]
        if any(part):
            out[p::2] = ldl_solve(L, D, part)
    return out


def poly_derivative(u: Vec, times: int = 1) -> Vec:
    out = list(u)
    for _ in range(times):
        out = [Fraction(i + 1) * c for i, c in enumerate(out[1:])]
    return out


def poly_eval(u: Vec, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(u):
        acc = acc * x + c
    return acc


@dataclass
class HilbertModel:
    seq: CarlemanSequence
    degree: int
    weights: Vec
    gram: Mat
    # per parity p, the Gram block of x^p, x^(p+2), ... and its LDL^T factors
    _blocks: list[Mat] = field(repr=False, default=None)
    _ldl: list[tuple[Mat, Vec]] = field(repr=False, default=None)
    # certified representers by order, filled by `representer`
    _reps: dict[int, Vec] = field(repr=False, compare=False, default_factory=dict)

    def _padded(self, u: Vec) -> Vec:
        n = self.degree + 1
        if len(u) > n:
            raise DomainError(f"{len(u)} coefficients exceed degree {self.degree}")
        return list(u) + [Fraction(0)] * (n - len(u))

    def inner(self, u: Vec, v: Vec) -> Fraction:
        """<u|v> via the Gram blocks; u, v in monomial coordinates of
        degree at most D, otherwise DomainError."""
        u, v = self._padded(u), self._padded(v)
        total = Fraction(0)
        for p, G in enumerate(self._blocks):
            vp = v[p::2]
            total += sum(c * sum(g * x for g, x in zip(row, vp))
                         for c, row in zip(u[p::2], G))
        return total

    def norm_sq(self, u: Vec) -> Fraction:
        return self.inner(u, u)

    def deriv_at_zero(self, u: Vec, i: int) -> Fraction:
        """u^(i)(0) = i! u_i; a negative order is a DomainError."""
        if i >= len(u):
            return Fraction(0)
        return factorial(i) * u[i]

    def solve(self, rhs: Vec) -> Vec:
        """G^-1 rhs, one parity block at a time."""
        return _parity_solve(self._ldl, rhs)


def build_model(M: CarlemanSequence, D: int) -> HilbertModel:
    """Exact Gram matrix of the monomial basis up to degree D.

    Only the even block and the odd block of G are computed (the entries
    of odd a + b vanish by the symmetry of (-1, 1)), each from integer
    falling factorials a!/(a-j)!.  Both blocks are factored by
    `ldl_decompose`; positive pivots of both certify that G is positive
    definite, otherwise DomainError.

    The sequence must be rational valued on 0..D; the dynamic range of the
    weights (about (D! M_D)^2) rules floating point out entirely.
    """
    if isinstance(D, bool) or not isinstance(D, int) or D < 1:
        raise DomainError(f"degree must be an integer >= 1, got {D!r}")
    if not M.is_rational_valued():
        raise UnsupportedSequenceError(
            "the Gram model needs exact rational sequence values")
    weights = []
    for j in range(D + 1):
        mj = M.exact_value(j)
        weights.append(Fraction(1) / (factorial(j) * mj) ** 2)
    n = D + 1
    falling = []  # falling[a][j] = a!/(a-j)!
    for a in range(n):
        row = [1]
        for j in range(a):
            row.append(row[-1] * (a - j))
        falling.append(row)
    G: Mat = [[Fraction(0)] * n for _ in range(n)]
    blocks = []
    for p in (0, 1):
        degs = range(p, n, 2)
        block: Mat = [[Fraction(0)] * len(degs) for _ in degs]
        for s, a in enumerate(degs):
            fa = falling[a]
            for t in range(s, len(degs)):
                b = degs[t]
                fb = falling[b]
                entry = Fraction(0)
                for j in range(a + 1):
                    entry += weights[j] * Fraction(2 * fa[j] * fb[j], a + b - 2 * j + 1)
                block[s][t] = block[t][s] = G[a][b] = G[b][a] = entry
        blocks.append(block)
    model = HilbertModel(M, D, weights, G, blocks)
    model._ldl = [ldl_decompose(block) for block in blocks]  # also certifies SPD
    return model


def representer(model: HilbertModel, i: int) -> Vec:
    """The element e_i with <e_i|u> = u^(i)(0) for all u in the model.

    e_i solves G r = i! * unit_i.  The right-hand side lies in the parity
    block of i, so r is zero off that parity and only that block is solved.
    The reproducing identity is certified on every basis monomial at once:
    <r|x^a> is the a-th entry of G r, so the exact product G r must equal
    i! * unit_i, otherwise CertificationError.  Rows of the other parity
    meet only structural zeros of G or of r, so the check multiplies the
    block of i with the part of r in it.  The certified solution is cached
    on the model; callers get a copy.
    """
    if not 0 <= i <= model.degree:
        raise DomainError(f"representer order {i} outside 0..{model.degree}")
    r = model._reps.get(i)
    if r is None:
        rhs = [Fraction(0)] * (model.degree + 1)
        rhs[i] = Fraction(factorial(i))
        r = model.solve(rhs)
        p = i % 2
        rp = r[p::2]
        if [sum(g * c for g, c in zip(row, rp)) for row in model._blocks[p]] != rhs[p::2]:
            raise CertificationError("reproducing identity failed; Gram solve is wrong")
        model._reps[i] = r
    return list(r)


@dataclass
class MinimalInterpolant:
    model: HilbertModel
    k: int
    data: Vec                 # prescribed derivatives b_0 .. b_{k-1} at 0
    coeffs: Vec               # solution in the monomial basis
    xi: Vec                   # coordinates in the representer basis
    norm_sq: Fraction

    def value_at(self, t: Fraction) -> Fraction:
        return poly_eval(self.coeffs, Fraction(t))

    def constraints_hold(self) -> bool:
        return all(self.model.deriv_at_zero(self.coeffs, i) == self.data[i]
                   for i in range(self.k))


def minimal_interpolant(model: HilbertModel, b: Vec) -> MinimalInterpolant:
    """Minimal-norm element with prescribed derivatives b at the origin.

    The solution is g = sum xi_j e_j where the representer Gram system
    (<e_i|e_j>) xi = b is solved exactly.  For any feasible u in the model
    the exact Pythagoras identity ||u||^2 = ||g||^2 + ||u - g||^2 holds,
    which is what makes g minimal.
    """
    k = len(b)
    if k == 0:
        zero = [Fraction(0)] * (model.degree + 1)
        return MinimalInterpolant(model, 0, [], zero, [], Fraction(0))
    if k > model.degree + 1:
        raise DomainError(f"cannot prescribe {k} derivatives at degree {model.degree}")
    reps, r_ldl = _representer_system(model, k)
    return _interpolant(model, reps, r_ldl, [Fraction(x) for x in b])


def _representer_system(model: HilbertModel, k: int) -> tuple[list[Vec], list[tuple[Mat, Vec]]]:
    """The first k representers and the LDL^T of the two parity blocks of
    R[i][j] = <e_i|e_j> = e_j^(i)(0), which is zero when i + j is odd."""
    reps = [representer(model, j) for j in range(k)]
    blocks = []
    for p in (0, 1):
        orders = range(p, k, 2)
        R: Mat = [[model.deriv_at_zero(reps[j], i) for j in orders] for i in orders]
        blocks.append(ldl_decompose(R))  # also certifies the representers independent
    return reps, blocks


def _interpolant(model: HilbertModel, reps: list[Vec], r_ldl: list[tuple[Mat, Vec]],
                 b: Vec) -> MinimalInterpolant:
    """The minimal interpolant of data b from the factored representer system."""
    k = len(b)
    xi = _parity_solve(r_ldl, b)
    coeffs = [Fraction(0)] * (model.degree + 1)
    for j in range(k):
        if xi[j]:  # xi is zero on a parity block whose data are zero
            # e_j is zero off the parity of j
            for a in range(j % 2, model.degree + 1, 2):
                coeffs[a] += xi[j] * reps[j][a]
    norm_sq = sum(xi[j] * b[j] for j in range(k))  # <g|g> = xi . (R xi) = xi . b
    out = MinimalInterpolant(model, k, b, coeffs, xi, norm_sq)
    if not out.constraints_hold():
        raise CertificationError("interpolation constraints not satisfied exactly")
    return out


def omega_table(model: HilbertModel, k: int) -> list[Fraction]:
    """The reconstruction weights omega_{j,k} = j! * u_{j,k}(1) for j < k,
    where u_{j,k} is the minimal interpolant of the j-th unit data vector.

    The k representers are certified once (see `representer`) and the two
    parity blocks of R are factored once, with positive pivots; u_{j,k}
    lies in the parity block of j, and every u_{j,k} is still checked to
    meet its k derivative constraints exactly, otherwise
    CertificationError.  Raises DomainError unless 0 <= k <= D + 1.

    At k = D + 1 the constraints pin every coefficient, u_{j,k} = x^j / j!,
    and the whole column is exactly 1.
    """
    if not 0 <= k <= model.degree + 1:
        raise DomainError(f"omega table needs 0 <= k <= D + 1, got k = {k}")
    reps, r_ldl = _representer_system(model, k)
    out = []
    for j in range(k):
        unit = [Fraction(0)] * k
        unit[j] = Fraction(1)
        u = _interpolant(model, reps, r_ldl, unit)
        # u_{j,k}(1), summing the parity of j only: u_{j,k} lies in its block
        out.append(factorial(j) * sum(u.coeffs[j % 2::2]))
    return out


@dataclass
class LacunaryReport:
    ks: list[int]
    sums: list[Fraction]      # the verified bound sums, one per p >= 1

    def to_json(self):
        return {"ks": self.ks,
                "sums": [format_fraction(s) for s in self.sums]}


def lacunary_select(M: CarlemanSequence, schedule: list[tuple[int, int]]) -> LacunaryReport:
    """Validate a lacunary schedule of (D_p, k_p) pairs.

    For each p >= 1 the exact sum  sum_{j<=k_{p-1}} |omega_{j,k_p} - 1| M_j
    computed in the degree-D_p model must be at most 1.  The construction
    is validation, not search: existence of a valid schedule in the
    untruncated space does not make any particular finite schedule valid,
    so failures are reported to the caller for rescheduling.
    """
    if not M.is_rational_valued():
        raise UnsupportedSequenceError("lacunary selection needs rational values")
    ks = [k for _, k in schedule]
    if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
        raise DomainError("k_p must be strictly increasing")
    for D, k in schedule:
        if k > D + 1:
            raise DomainError(f"k={k} exceeds D+1={D + 1}")
    sums = []
    for p in range(1, len(schedule)):
        D_p, k_p = schedule[p]
        k_prev = ks[p - 1]
        model = build_model(M, D_p)
        omegas = omega_table(model, k_p)
        total = Fraction(0)
        for j in range(k_prev + 1):
            total += abs(omegas[j] - 1) * M.exact_value(j)
        if total > 1:
            raise SelectionFailure(
                f"bound violated at p={p}: sum = {total} > 1; grow D_p or k_p")
        sums.append(total)
    return LacunaryReport(ks, sums)


@dataclass
class DivergenceDemo:
    crossed: bool
    index: int | None         # first p with partial sum > threshold
    partial_sums: list[Fraction]

    def to_json(self):
        return {"crossed": self.crossed, "index": self.index,
                "partial_sums": [format_fraction(s) for s in self.partial_sums]}


def divergence_demo(M: CarlemanSequence, a: Fraction, ks: list[int],
                    threshold: Fraction) -> DivergenceDemo:
    """Exact partial sums of sum_q M_{k_q} a^{k_q} against a threshold.

    For a sequence of analytic class and a < 1 the sums stay below a
    geometric bound and the scan reports exhaustion; for faster-growing
    sequences the lacunary terms eventually dominate any power a^k.
    """
    if not M.is_rational_valued():
        raise UnsupportedSequenceError("divergence demo needs rational values")
    a = Fraction(a)
    if not 0 < a < 1:
        raise DomainError("a must lie in (0, 1)")
    threshold = Fraction(threshold)
    total = Fraction(0)
    partials = []
    for p, k in enumerate(ks):
        total += M.exact_value(k) * a**k
        partials.append(total)
        if total > threshold:
            return DivergenceDemo(True, p, partials)
    return DivergenceDemo(False, None, partials)


# -- sup-norm comparison on the interval ---------------------------------------


@dataclass
class SobolevRecord:
    order: int
    l2_sq: Fraction            # ||u^(j)||_L2^2, exact
    l2_next_sq: Fraction       # ||u^(j+1)||_L2^2, exact
    sup_lower: Fraction        # exact value at a witness point
    sup_upper: Fraction        # certified upper bound for the sup norm
    left_ok: bool              # (1/sqrt 2) ||u^(j)||_2 <= ||u^(j)||_inf
    right_ok: bool             # ||u^(j)||_inf <= sqrt 2 (||u^(j)||_2 + ||u^(j+1)||_2)


def _sq_integral_numerator(U: list[int], q: int) -> int:
    """q times the integral over (-1, 1) of U^2, for an integer polynomial
    U and an odd q divisible by every odd number up to 2 deg U + 1.

    Only the even powers of U^2 contribute, x^p integrating to 2/(p + 1).
    """
    total = 0
    for a, ca in enumerate(U):
        if ca:
            for b in range(a % 2, len(U), 2):
                total += ca * U[b] * (q // (a + b + 1))
    return 2 * total


def _box_sup_numerator(U: list[int], pieces: int) -> int:
    """N^m times the largest |.| of the interval Horner enclosures of the
    integer polynomial U (degree m) on the N = pieces boxes
    [(2i - N)/N, (2i + 2 - N)/N] of (-1, 1), in integers.

    Through Horner the box enclosure after k steps is [lo, hi] / N^k: each
    step takes the extremes of the four endpoint products, which is exact
    interval multiplication, and adds the next coefficient over N^(k+1).
    """
    N = pieces
    top = U[-1]
    scaled = [c * N**(k + 1) for k, c in enumerate(reversed(U[:-1]))]
    best = 0
    for a in range(-N, N, 2):
        b = a + 2
        lo = hi = top
        for c in scaled:
            ps = (lo * a, lo * b, hi * a, hi * b)
            lo = min(ps) + c
            hi = max(ps) + c
        best = max(best, -lo, hi)
    return best


def _sqrt_lower(x: Fraction, bits: int) -> Fraction:
    """The lower end of ``rationals.root_bounds(x, 2, bits)`` for x >= 0:
    floor(sqrt(x) * den * 2^s) / (den * 2^s), s = bits + len(den)."""
    if x == 0:
        return Fraction(0)
    num, den = x.numerator, x.denominator
    shift = bits + den.bit_length()
    return Fraction(math.isqrt((num * den) << (2 * shift)), den << shift)


def _grid_numerator(U: list[int], i: int, n: int) -> int:
    """n^m * U(i/n) for an integer polynomial U of degree m, in integers."""
    acc = 0
    scale = 1
    for c in reversed(U):
        acc = acc * i + c * scale
        scale *= n
    return acc


def sobolev_check(u: Vec, j: int) -> SobolevRecord:
    """Certify, for a rational polynomial u, the two-sided comparison of
    the L2 and sup norms of u^(j) on (-1, 1):

        (1/sqrt 2) ||u^(j)||_2  <=  ||u^(j)||_inf
                                <=  sqrt 2 (||u^(j)||_2 + ||u^(j+1)||_2).

    L2 norms are exact rational squares.  The sup norm is enclosed from
    above by interval evaluation on a refined subdivision and from below
    by exact point evaluation on dyadic grids; both inequalities are
    checked in squared form so that sqrt 2 never needs to be approximated
    on its own.  All of this work is done in integers on U = L u^(j),
    where L is the positive lcm of the denominators of u^(j): the L2
    integrals of U and U' over one common odd denominator, the grid
    values and the interval Horner boxes as integer numerators over
    powers of the grid size.  Each bound is divided by L (the squares by
    L^2) once at the end, so the certificate and the returned Fractions
    are exactly those of the same computation on u^(j) in Fractions.
    Raises DomainError for a negative order j.
    """
    if j < 0:
        raise DomainError(f"derivative order must be >= 0, got {j}")
    du = poly_derivative([Fraction(c) for c in u], j)
    if not any(du):
        zero = Fraction(0)
        return SobolevRecord(j, zero, zero, zero, zero, True, True)

    L = math.lcm(*(c.denominator for c in du))
    U = [c.numerator * (L // c.denominator) for c in du]
    L2 = L * L
    m = len(U) - 1

    # ||u^(j)||_2^2 and ||u^(j+1)||_2^2 over the common denominator q L^2
    q = math.lcm(*range(1, 2 * m + 2, 2))
    dU = [k * c for k, c in enumerate(U)][1:]  # L u^(j+1)
    A = Fraction(_sq_integral_numerator(U, q), q * L2)
    B = Fraction(_sq_integral_numerator(dU, q), q * L2)

    # lower bound: exact evaluation on dyadic grids until the witness
    # certifies  sup^2 >= A/2; depth d > 0 adds only the odd numerators,
    # the even ones being the grid of depth d - 1
    target = A / 2 * L2
    sup_lower = Fraction(0)
    depth = 0
    while True:
        n = 1 << depth
        fresh = range(-n, n + 1) if depth == 0 else range(1 - n, n, 2)
        best = max(abs(_grid_numerator(U, i, n)) for i in fresh)
        sup_lower = max(sup_lower, Fraction(best, n**m))
        if sup_lower**2 >= target:
            left_ok = True
            break
        if depth > 24:
            left_ok = False
            break
        depth += 1

    # upper bound: interval evaluation on a subdivision, refined until the
    # right inequality (in squared form) is certified
    bits = 64
    pieces = 8
    right_ok = False
    while True:
        sup_upper = Fraction(_box_sup_numerator(U, pieces), pieces**m)
        # sup <= sqrt2 (sqrt A + sqrt B)  <=>  sup^2 <= 2 (A + B + 2 sqrt(AB))
        rhs_lower = 2 * (A + B + 2 * _sqrt_lower(A * B, bits))
        if sup_upper**2 <= rhs_lower * L2:
            right_ok = True
            break
        if pieces > 4096 or bits > PRECISION_CAP:
            break
        pieces *= 2
        bits *= 2

    if not (left_ok and right_ok):
        raise UndecidableAtCap("sup-norm comparison could not be certified")
    return SobolevRecord(j, A, B, sup_lower / L, sup_upper / L, left_ok, right_ok)
