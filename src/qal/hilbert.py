"""Finite-dimensional exact model of the weighted Sobolev space attached
to a Carleman sequence.

The ambient space is the span of the monomials 1, x, ..., x^D on the
interval (-1, 1) under the inner product

    <u|v> = sum_{j=0}^{D} (j! M_j)^-2 * integral_{-1}^{1} u^(j) v^(j) dx.

The Gram matrix has the closed form

    G[a][b] = sum_{j<=min(a,b)} w_j * a!/(a-j)! * b!/(b-j)! *
              (1 + (-1)^(a+b)) / (a + b - 2j + 1),

and the model does all of its linear algebra on integers.  Every value
it returns is an exact rational, so it is the unique value of the same
computation in Fractions.

The interval is symmetric, so G[a][b] = 0 whenever a + b is odd: G is a
row-and-column permutation of diag(G_even, G_odd), the Gram blocks of the
even and of the odd monomials.  The model works on the two blocks only.
Each block is held as an integer matrix A over its own denominator L_p
(G_p = A / L_p) and factored once by fraction-free elimination
(`_bareiss`).  Its pivots are the leading principal minors of A, and by
Sylvester's criterion their positivity certifies that G is positive
definite.  The representer of the derivative of order i at 0 lies in the
block of the parity of i, and so does the minimal interpolant of data
supported on that parity.  Solves return integer vectors over the
determinant of their block (Cramer's rule), and each result is checked
by an integer identity: the reproducing identity A Y = det * unit for the
representers, and the prescribed derivatives of every interpolant on its
assembled integer coefficients over one denominator.

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
from .rationals import _instance, _order, _rational, _rationals, factorial, format_fraction
from .sequences import CarlemanSequence, _checked

Vec = list[Fraction]
Mat = list[list[Fraction]]
IntMat = list[list[int]]


def _exact(num: int, den: int) -> int:
    """num / den, which fraction-free elimination makes an integer; a
    remainder raises CertificationError."""
    q, r = divmod(num, den)
    if r:
        raise CertificationError("inexact division in fraction-free elimination")
    return q


def _bareiss(A: IntMat) -> IntMat:
    """Fraction-free elimination (Bareiss 1968) of a symmetric integer
    matrix, without pivoting.

    With M_0 = A, step i forms, for r, c > i,

        M_{i+1}[r][c] = (M_i[i][i] M_i[r][c] - M_i[r][i] M_i[i][c]) / M_{i-1}[i-1][i-1]

    (M_{-1}[-1][-1] = 1).  By Sylvester's identity every entry of M_i is a
    minor of A, so each division is exact, and the pivot M_i[i][i] is the
    leading principal minor of order i + 1.  By Sylvester's criterion A is
    positive definite exactly when all of them are positive; a pivot <= 0
    raises DomainError.  M_i stays symmetric, so only its lower triangle
    is formed (A's upper triangle is never read).  Returns the columns
    cols[i] = [M_i[r][i] for r >= i]; cols[i][0] is the i-th pivot.
    """
    n = len(A)
    M = [row[:r + 1] for r, row in enumerate(A)]
    cols = []
    prev = 1
    for i in range(n):
        piv = M[i][i]
        if piv <= 0:
            raise DomainError(
                f"matrix is not positive definite (leading minor {i + 1} = {piv})")
        col = [M[r][i] for r in range(i, n)]
        cols.append(col)
        for r in range(i + 1, n):
            row, f = M[r], col[r - i]
            for c in range(i + 1, r + 1):
                row[c] = _exact(piv * row[c] - f * col[c - i], prev)
        prev = piv
    return cols


def _bareiss_solve(cols: IntMat, rhs: IntMat) -> IntMat:
    """det(A) * A^-1 b for every integer vector b of rhs, from the columns
    `_bareiss(A)`, in integers.

    The forward pass runs the elimination steps on b as on one more
    column of A; leading zeros of b stay zero, so it starts at the first
    nonzero entry, scaled by the minor of the rows above.  The back
    substitution solves U y = det * b' with U[i][j] = M_i[i][j] =
    cols[i][j - i], and y = det * A^-1 b is an integer vector by Cramer's
    rule.  Every division is exact; an inexact one raises
    CertificationError.
    """
    n = len(cols)
    det = cols[-1][0] if n else 1
    out = []
    for b in rhs:
        first = next((i for i, x in enumerate(b) if x), n)
        if first == n:
            out.append([0] * n)
            continue
        prev = cols[first - 1][0] if first else 1
        b = [0] * first + [x * prev for x in b[first:]]
        for i in range(first, n - 1):
            col, bi = cols[i], b[i]
            piv = col[0]
            for r in range(i + 1, n):
                b[r] = _exact(piv * b[r] - col[r - i] * bi, prev)
            prev = piv
        y = [0] * n
        for i in reversed(range(n)):
            col = cols[i]
            acc = det * b[i] - sum(col[j - i] * y[j] for j in range(i + 1, n))
            y[i] = _exact(acc, col[0])
        out.append(y)
    return out


@dataclass
class _Block:
    """A symmetric positive definite rational matrix as A / scale, with A
    an integer matrix and scale > 0, and the fraction-free factors of A."""
    A: IntMat
    scale: int
    cols: IntMat

    @property
    def det(self) -> int:
        return self.cols[-1][0] if self.cols else 1


def _factored(raw: IntMat, den: int) -> _Block:
    """The matrix raw / den, reduced by the gcd of den and all entries of
    raw (so scale is the lcm of the reduced denominators), and factored;
    DomainError unless it is positive definite."""
    g = math.gcd(den, *(x for row in raw for x in row))
    A = [[x // g for x in row] for row in raw]
    return _Block(A, den // g, _bareiss(A))


def ldl_decompose(G: Mat) -> tuple[Mat, Vec]:
    """Exact LDL^T of a symmetric positive definite rational matrix.

    This is the Fraction view of `_bareiss`: with G = A / s for an
    integer matrix A, the leading minors Delta_i of A and the eliminated
    matrices M_i, D[i] = Delta_{i+1} / (Delta_i s) and
    L[r][i] = M_i[r][i] / M_i[i][i].  Raises DomainError on a leading minor
    <= 0, which certifies that the matrix is not positive definite.  G
    must be a square list of lists of ints and Fractions, otherwise
    DomainError.
    """
    G = [_rationals(row, "a matrix row") for row in _instance(G, (list, tuple), "the matrix")]
    n = len(G)
    if any(len(row) != n for row in G):
        raise DomainError(f"the matrix must be square, got rows of lengths "
                          f"{[len(row) for row in G]}")
    s = math.lcm(*(x.denominator for row in G for x in row))
    cols = _bareiss([[x.numerator * (s // x.denominator) for x in row] for row in G])
    L: Mat = [[Fraction(0)] * n for _ in range(n)]
    D: Vec = []
    prev = 1
    for i, col in enumerate(cols):
        piv = col[0]
        D.append(Fraction(piv, prev * s))
        for r in range(i, n):
            L[r][i] = Fraction(col[r - i], piv)
        prev = piv
    return L, D


def poly_derivative(u: Vec, times: int = 1) -> Vec:
    """The derivative of order times >= 0 of the coefficient list u, ints
    and Fractions, otherwise DomainError."""
    out = _rationals(u, "coefficients")
    for _ in range(min(_order(times, "the derivative order", 0), len(out))):
        out = [Fraction(i + 1) * c for i, c in enumerate(out[1:])]
    return out


def poly_eval(u: Vec, x: Fraction) -> Fraction:
    """u(x) for a coefficient list u and a point x of ints and Fractions,
    otherwise DomainError."""
    x = _rational(x, "the point x")
    acc = Fraction(0)
    for c in reversed(_rationals(u, "coefficients")):
        acc = acc * x + c
    return acc


def _over_lcm(u: Vec) -> tuple[list[int], int]:
    """Integers U and d > 0 with u = U / d, d the lcm of the denominators."""
    d = math.lcm(*(c.denominator for c in u))
    return [c.numerator * (d // c.denominator) for c in u], d


@dataclass
class HilbertModel:
    seq: CarlemanSequence
    degree: int
    weights: Vec
    gram: Mat
    # per parity p, the Gram block of x^p, x^(p+2), ... as a factored A / L_p
    _gram: list[_Block] = field(repr=False, default=None)
    # certified representers by order i: the integer vector Y with
    # e_i = Y / det on the block of the parity of i; filled by `_representers`
    _reps: dict[int, list[int]] = field(repr=False, compare=False, default_factory=dict)

    def _padded(self, u: Vec) -> Vec:
        u = _rationals(u, "coefficients")
        n = self.degree + 1
        if len(u) > n:
            raise DomainError(f"{len(u)} coefficients exceed degree {self.degree}")
        return u + [Fraction(0)] * (n - len(u))

    def inner(self, u: Vec, v: Vec) -> Fraction:
        """<u|v> via the integer Gram blocks; u, v in monomial coordinates
        of degree at most D, with int or Fraction entries, otherwise
        DomainError."""
        (U, du), (V, dv) = _over_lcm(self._padded(u)), _over_lcm(self._padded(v))
        total = Fraction(0)
        for p, G in enumerate(self._gram):
            Vp = V[p::2]
            t = sum(c * sum(g * x for g, x in zip(row, Vp)) for c, row in zip(U[p::2], G.A))
            total += Fraction(t, G.scale)
        return total / (du * dv)

    def norm_sq(self, u: Vec) -> Fraction:
        return self.inner(u, u)

    def deriv_at_zero(self, u: Vec, i: int) -> Fraction:
        """u^(i)(0) = i! u_i; a negative order or a u that is not a list
        of exact data is a DomainError."""
        u = _rationals(u, "the vector u")
        if _order(i, "derivative order", 0) >= len(u):
            return Fraction(0)
        return factorial(i) * u[i]


def build_model(M: CarlemanSequence, D: int) -> HilbertModel:
    """Exact Gram matrix of the monomial basis up to degree D.

    Only the even block and the odd block of G are computed (the entries
    of odd a + b vanish by the symmetry of (-1, 1)), in integers over one
    denominator L, the lcm of the denominators of the weights
    w_j = (j! M_j)^-2 times lcm(1, 3, ..., 2D + 1): every term
    L w_j 2 a!/(a-j)! b!/(b-j)! / (a + b - 2j + 1) is an integer.  `gram`
    holds one Fraction(entry, L) per entry.  Each block is reduced to its
    own denominator L_p, the lcm of its reduced denominators, and factored
    by `_bareiss`; positive leading minors of both certify that G is
    positive definite, otherwise DomainError.

    The sequence must be rational valued on 0..D; the dynamic range of the
    weights (about (D! M_D)^2) rules floating point out entirely.
    """
    _checked(M)
    _order(D, "the degree", 1)
    if not M.is_rational_valued():
        raise UnsupportedSequenceError(
            "the Gram model needs exact rational sequence values")
    weights = []
    for j in range(D + 1):
        mj = M.exact_value(j)
        weights.append(Fraction(1) / (factorial(j) * mj) ** 2)
    n = D + 1
    L = math.lcm(*(w.denominator for w in weights)) * math.lcm(*range(1, 2 * D + 2, 2))
    # over[j][h] = 2 L w_j / (2h + 1), for the odd a + b - 2j + 1 = 2h + 1
    over = []
    for w in weights:
        c = 2 * (L // w.denominator) * w.numerator
        over.append([c // (2 * h + 1) for h in range(n)])
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
        raw: IntMat = [[0] * len(degs) for _ in degs]
        for s, a in enumerate(degs):
            fa = falling[a]
            for t in range(s, len(degs)):
                b = degs[t]
                fb = falling[b]
                h = (a + b) // 2
                acc = sum(over[j][h - j] * fa[j] * fb[j] for j in range(a + 1))
                raw[s][t] = raw[t][s] = acc
                G[a][b] = G[b][a] = Fraction(acc, L)
        blocks.append(_factored(raw, L))  # also certifies SPD
    return HilbertModel(M, D, weights, G, blocks)


def _representers(model: HilbertModel, p: int, orders) -> list[list[int]]:
    """The integer representers Y_i (e_i = Y_i / det on block p) of the
    given orders of parity p.

    e_i solves G r = i! unit_i, that is A r = L_p i! unit_i on block p, so
    Y_i = L_p i! Z with A Z = det unit_i.  The orders not yet cached are
    solved together, one right-hand side each, and each Z is certified by
    the exact integer identity A Z = det unit_i, otherwise
    CertificationError; then Y_i is cached on the model.
    """
    G = model._gram[p]
    missing = [i for i in orders if i not in model._reps]
    if missing:
        n = len(G.A)
        slots = [(i - p) // 2 for i in missing]
        sols = _bareiss_solve(G.cols, [[int(a == s) for a in range(n)] for s in slots])
        det = G.det
        for i, s, Z in zip(missing, slots, sols):
            if any(sum(g * z for g, z in zip(row, Z)) != (det if a == s else 0)
                   for a, row in enumerate(G.A)):
                raise CertificationError("reproducing identity failed; Gram solve is wrong")
            c = G.scale * factorial(i)
            model._reps[i] = [c * z for z in Z]
    return [model._reps[i] for i in orders]


def representer(model: HilbertModel, i: int) -> Vec:
    """The element e_i with <e_i|u> = u^(i)(0) for all u in the model.

    e_i solves G r = i! * unit_i.  The right-hand side lies in the parity
    block of i, so r is zero off that parity and only that block is
    solved, in integers: with G_p = A / L_p and det the determinant of A,
    r = Y / det for the integer vector Y = L_p i! Z, A Z = det unit_i.
    The reproducing identity is certified on every basis monomial at once:
    <r|x^a> is the a-th entry of G r, so the integer product A Z must equal
    det * unit_i, otherwise CertificationError (rows of the other parity
    meet only structural zeros of G or of r).  The certified Y is cached on
    the model; callers get a fresh list of Fractions.
    """
    _instance(model, HilbertModel, "the model")
    _order(i, "the representer order", 0, model.degree)
    p = i % 2
    Y, = _representers(model, p, [i])
    det = model._gram[p].det
    out = [Fraction(0)] * (model.degree + 1)
    out[p::2] = [Fraction(y, det) for y in Y]
    return out


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


def _representer_system(model: HilbertModel, k: int) -> list[tuple[list[list[int]], int, _Block]]:
    """Per parity p, the representers of the orders j < k of parity p over
    one denominator, e_j = Y_j / den (the cached vectors over det, reduced
    by their common gcd with det), and the factored block of
    R[i][j] = <e_i|e_j> = e_j^(i)(0), which is zero when i + j is odd:
    R_p = (i! Y_j[i]) / den over the orders of parity p.  Positive leading
    minors certify the representers independent, otherwise DomainError."""
    out = []
    for p in (0, 1):
        orders = range(p, k, 2)
        Ys = _representers(model, p, orders)
        det = model._gram[p].det
        g = math.gcd(det, *(y for Y in Ys for y in Y))
        Ys = [[y // g for y in Y] for Y in Ys]
        raw = [[factorial(i) * Y[t] for Y in Ys] for t, i in enumerate(orders)]
        out.append((Ys, det // g, _factored(raw, det // g)))
    return out


def _combine(X: list[int], Ys: list[list[int]], slots) -> list[int]:
    """The entries at the given slots of sum_t X_t Y_t."""
    return [sum(x * Y[a] for x, Y in zip(X, Ys)) for a in slots]


def _check_constraints(p: int, C: list[int], targets: list[int]):
    """i! C[t] == targets[t] for each order i = p + 2t of block p: the
    prescribed derivatives of an interpolant with integer coefficients C,
    over one denominator; otherwise CertificationError."""
    if any(factorial(p + 2 * t) * C[t] != y for t, y in enumerate(targets)):
        raise CertificationError("interpolation constraints not satisfied exactly")


def minimal_interpolant(model: HilbertModel, b: Vec) -> MinimalInterpolant:
    """Minimal-norm element with prescribed derivatives b at the origin.

    The solution is g = sum xi_j e_j where the representer Gram system
    (<e_i|e_j>) xi = b is solved exactly.  For any feasible u in the model
    the exact Pythagoras identity ||u||^2 = ||g||^2 + ||u - g||^2 holds,
    which is what makes g minimal.  The data (ints and Fractions) are put
    over one denominator, each parity block of the system is solved in
    integers (see `_representer_system`), and the assembled coefficients
    of g are certified to meet the k constraints in integers over one
    denominator, otherwise CertificationError.
    """
    _instance(model, HilbertModel, "the model")
    b = _rationals(b, "interpolation data")
    k = len(b)
    if k == 0:
        zero = [Fraction(0)] * (model.degree + 1)
        return MinimalInterpolant(model, 0, [], zero, [], Fraction(0))
    if k > model.degree + 1:
        raise DomainError(f"cannot prescribe {k} derivatives at degree {model.degree}")
    B, db = _over_lcm(b)
    coeffs = [Fraction(0)] * (model.degree + 1)
    xi = [Fraction(0)] * k
    norm_sq = Fraction(0)
    for p, (Ys, den, R) in enumerate(_representer_system(model, k)):
        part = B[p::2]
        if not any(part):  # g has no component in this block
            continue
        # R_p xi = b_p, i.e. R.A X = det_R R.scale B_p with xi = X / (det_R db)
        X, = _bareiss_solve(R.cols, [[R.scale * y for y in part]])
        C = _combine(X, Ys, range(len(Ys[0])))
        _check_constraints(p, C, [y * R.det * den for y in part])
        coeffs[p::2] = [Fraction(c, R.det * db * den) for c in C]
        xi[p::2] = [Fraction(x, R.det * db) for x in X]
        # <g|g> = xi . (R xi) = xi . b
        norm_sq += Fraction(sum(x * y for x, y in zip(X, part)), R.det * db * db)
    return MinimalInterpolant(model, k, b, coeffs, xi, norm_sq)


def omega_table(model: HilbertModel, k: int) -> list[Fraction]:
    """The reconstruction weights omega_{j,k} = j! * u_{j,k}(1) for j < k,
    where u_{j,k} is the minimal interpolant of the j-th unit data vector.

    The k representers are certified once (see `representer`) and the two
    parity blocks of R are factored once, with positive leading minors.
    u_{j,k} lies in the parity block of j, and the unit vectors of one
    parity are solved together: u_{j,k} = sum_t X_t Y_t / (det_R den).
    Every u_{j,k} is checked to meet its k derivative constraints on its
    assembled integer coefficients over that one denominator, otherwise
    CertificationError (the constraints of the other parity hold
    structurally: there u_{j,k} and the data are zero).  u_{j,k}(1) is
    sum_t X_t Y_t(1), from the coefficient sums of the representers.
    Raises DomainError unless k is an integer with 0 <= k <= D + 1.

    At k = D + 1 the constraints pin every coefficient, u_{j,k} = x^j / j!,
    and the whole column is exactly 1.
    """
    _instance(model, HilbertModel, "the model")
    _order(k, "the omega table size", 0, model.degree + 1)
    out = [Fraction(0)] * k
    for p, (Ys, den, R) in enumerate(_representer_system(model, k)):
        m = len(Ys)
        at_one = [sum(Y) for Y in Ys]
        units = [[R.scale if u == t else 0 for u in range(m)] for t in range(m)]
        for t, X in enumerate(_bareiss_solve(R.cols, units)):
            _check_constraints(p, _combine(X, Ys, range(m)),
                               [R.det * den if u == t else 0 for u in range(m)])
            j = p + 2 * t
            out[j] = Fraction(factorial(j) * sum(x * y for x, y in zip(X, at_one)),
                              R.det * den)
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

    Every entry must be a pair of integers with D_p >= 1 and
    0 <= k_p <= D_p + 1, and k_p strictly increasing, otherwise
    DomainError; nothing is computed before the whole schedule passes.
    """
    _checked(M)
    if not M.is_rational_valued():
        raise UnsupportedSequenceError("lacunary selection needs rational values")
    for entry in _instance(schedule, (list, tuple), "the schedule"):
        if len(_instance(entry, (list, tuple), "a schedule entry")) != 2:
            raise DomainError(f"schedule entry {entry!r} is not a (D, k) pair")
        D = _order(entry[0], "the degree D of a schedule entry", 1)
        _order(entry[1], "the size k of a schedule entry", 0, D + 1)
    ks = [k for _, k in schedule]
    if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
        raise DomainError("k_p must be strictly increasing")
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
    a and the threshold must be ints or Fractions and ks a list of
    integers >= 0, otherwise DomainError.
    """
    _checked(M)
    if not M.is_rational_valued():
        raise UnsupportedSequenceError("divergence demo needs rational values")
    a = _rational(a, "a")
    if not 0 < a < 1:
        raise DomainError("a must lie in (0, 1)")
    threshold = _rational(threshold, "threshold")
    for k in _instance(ks, (list, tuple), "ks"):
        _order(k, "an index", 0)
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
    """The norms of a certified comparison: :func:`sobolev_check` returns a
    record only when both inequalities hold."""

    order: int
    l2_sq: Fraction            # ||u^(j)||_L2^2, exact
    l2_next_sq: Fraction       # ||u^(j+1)||_L2^2, exact
    sup_lower: Fraction        # exact value at a witness point
    sup_upper: Fraction        # certified upper bound for the sup norm


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


def _grid_numerator(U: list[int], i: int, n: int) -> int:
    """n^m * U(i/n) for an integer polynomial U of degree m, in integers."""
    acc = 0
    scale = 1
    for c in reversed(U):
        acc = acc * i + c * scale
        scale *= n
    return acc


# the finest subdivision the sup-norm upper bound tries
_SUP_PIECES_CAP = 1024


def sobolev_check(u: Vec, j: int) -> SobolevRecord:
    """Certify, for a rational polynomial u, the two-sided comparison of
    the L2 and sup norms of u^(j) on (-1, 1):

        (1/sqrt 2) ||u^(j)||_2  <=  ||u^(j)||_inf
                                <=  sqrt 2 (||u^(j)||_2 + ||u^(j+1)||_2).

    L2 norms are exact rational squares.  The sup norm is enclosed from
    above by interval evaluation on a subdivision of 8 pieces, doubled
    until the right inequality holds or 1024 pieces are reached, and from
    below by exact point evaluation on dyadic grids.  Both inequalities
    are decided exactly in squared form, the right one as
    sup^2 <= 2 (A + B + 2 sqrt(AB)) by squaring once more, so that no
    square root is ever approximated.  All of this work is done in
    integers on U = L u^(j), where L is the positive lcm of the
    denominators of u^(j): the L2 integrals of U and U' over one common
    odd denominator, the grid values and the interval Horner boxes as
    integer numerators over powers of the grid size.  Each bound is divided by L (the squares by
    L^2) once at the end, so the certificate and the returned Fractions
    are exactly those of the same computation on u^(j) in Fractions.
    Raises DomainError unless j is an integer >= 0 and u a list of ints
    and Fractions, and UndecidableAtCap when either inequality is still
    undecided at the finest grid or subdivision.
    """
    du = poly_derivative(u, j)
    if not any(du):
        zero = Fraction(0)
        return SobolevRecord(j, zero, zero, zero, zero)

    U, L = _over_lcm(du)
    L2 = L * L
    m = len(U) - 1

    # ||u^(j)||_2^2 and ||u^(j+1)||_2^2 over the common denominator q L^2
    q = math.lcm(*range(1, 2 * m + 2, 2))
    dU = [k * c for k, c in enumerate(U)][1:]  # L u^(j+1)
    a = _sq_integral_numerator(U, q)
    b = _sq_integral_numerator(dU, q)
    A = Fraction(a, q * L2)
    B = Fraction(b, q * L2)

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
            break
        if depth > 24:
            raise UndecidableAtCap("sup-norm lower bound not certified at depth 25")
        depth += 1

    # upper bound: interval evaluation on a subdivision, refined until the
    # right inequality is certified or the subdivision reaches its cap.
    # With L sup <= S/P, P = pieces^m, L^2 A = a/q and L^2 B = b/q, the
    # inequality sup^2 <= 2 (A + B + 2 sqrt(AB)) reads
    #     X = S^2 q - 2 P^2 (a + b) <= 4 P^2 sqrt(ab),
    # which holds iff X <= 0 or X^2 <= 16 P^4 a b
    pieces = 8
    while True:
        S = _box_sup_numerator(U, pieces)
        P = pieces**m
        X = S * S * q - 2 * P * P * (a + b)
        if X <= 0 or X * X <= 16 * P**4 * a * b:
            break
        if pieces >= _SUP_PIECES_CAP:
            raise UndecidableAtCap(
                f"sup-norm upper bound not certified at {pieces} pieces")
        pieces *= 2

    return SobolevRecord(j, A, B, sup_lower / L, Fraction(S, P * L))
