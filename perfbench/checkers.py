"""Reference computations made apart from ``qal``, and the checkers that
hold each ``qal`` answer against them.

Nothing here imports ``qal``: the sequences are re-evaluated with mpmath,
the Gram matrix is rebuilt from the integral definition, and the
polynomial facts come from sympy.  Every ``check_*`` function returns
``None`` when the answer passes and a one-line reason when it does not.
Answers arrive as plain data (Fractions, tuples, dicts) so that a test can
corrupt them without touching ``qal`` objects.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath

REF_PREC = 320          # bits of the mpmath references
REF_EXTRA_TERMS = 240   # terms summed past K; the tail ratio is <= 1/2


# -- sequences, re-evaluated ----------------------------------------------------

def seq_value(spec: tuple, j: int) -> mpmath.mpf:
    """M_j for a sequence spec ('analytic',), ('gevrey', a), ('loggevrey', a)
    or ('qgevrey', q), at the working mpmath precision."""
    family = spec[0]
    if family == "analytic":
        return mpmath.mpf(1)
    p = mpmath.mpf(spec[1].numerator) / spec[1].denominator
    if family == "gevrey":
        return mpmath.factorial(j) ** p
    if family == "loggevrey":
        return mpmath.log(j + mpmath.e) ** (p * j)
    if family == "qgevrey":
        return p ** (j * j)
    raise ValueError(f"unknown sequence family {family!r}")


def seq_exact(spec: tuple, j: int) -> Fraction:
    """M_j as a Fraction for the rational-valued families."""
    family = spec[0]
    if family == "analytic":
        return Fraction(1)
    if family == "gevrey" and spec[1].denominator == 1:
        return Fraction(math.factorial(j)) ** spec[1].numerator
    if family == "qgevrey":
        return Fraction(spec[1]) ** (j * j)
    raise ValueError(f"{spec} is not rational valued")


def _mpf_to_fraction(v: mpmath.mpf) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(v)._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def _ball(center: mpmath.mpf, radius: mpmath.mpf) -> tuple[Fraction, Fraction]:
    c = _mpf_to_fraction(center)
    r = _mpf_to_fraction(radius)
    return c - r, c + r


def theta_reference(spec: tuple, j: int, x: Fraction, K: int):
    """theta^(j)(x) = i^j sum_k Mbar_k (2 m_k)^(j-k) exp(2 i m_k x), summed
    REF_EXTRA_TERMS terms past K.

    Returns ((re_lo, re_hi), (im_lo, im_hi)): an error ball around the
    partial sum.  For k >= j consecutive terms shrink by at least 1/2, so
    the omitted tail is at most twice the first omitted term.  The rounding
    of REF_PREC-bit arithmetic is covered by a relative slack on the sum of
    the term magnitudes, plus, for each term, its magnitude times the
    rounding error of its argument 2 m_k x (a few ulps of |2 m_k x|, since
    cos and sin are 1-Lipschitz); m_k reaches 2^37 for qgevrey(2).
    """
    with mpmath.workprec(REF_PREC):
        top = K + REF_EXTRA_TERMS
        mbar = [mpmath.factorial(k) * seq_value(spec, k) for k in range(top + 3)]
        re = mpmath.mpf(0)
        im = mpmath.mpf(0)
        mag_sum = mpmath.mpf(0)
        arg_err = mpmath.mpf(0)
        for k in range(top + 1):
            m = mbar[k + 1] / mbar[k]
            mag = mbar[k] * (2 * m) ** (j - k)
            arg = 2 * m * (mpmath.mpf(x.numerator) / x.denominator)
            re += mag * mpmath.cos(arg)
            im += mag * mpmath.sin(arg)
            mag_sum += mag
            arg_err += mag * abs(arg)
        m_next = mbar[top + 2] / mbar[top + 1]
        first_omitted = mbar[top + 1] * (2 * m_next) ** (j - top - 1)
        radius = (2 * first_omitted + mag_sum * mpmath.mpf(2) ** (20 - REF_PREC)
                  + arg_err * mpmath.mpf(2) ** (8 - REF_PREC))
        # multiply by i^j
        for _ in range(j % 4):
            re, im = -im, re
        return _ball(re, radius), _ball(im, radius)


def theta_zero_reference(spec: tuple, j: int, K: int):
    """The positive factor sum_k Mbar_k (2 m_k)^(j-k) of theta^(j)(0), as
    an error ball (lo, hi)."""
    (re, im) = theta_reference(spec, j, Fraction(0), K)
    # theta_reference rotated by i^j; undo it to read the positive factor
    parts = {0: re, 1: im, 2: (-re[1], -re[0]), 3: (-im[1], -im[0])}
    return parts[j % 4]


def jfact_mj_bound(spec: tuple, j: int, scale: int) -> tuple[Fraction, Fraction]:
    """Bounds (lo, hi) for scale * j! * M_j."""
    with mpmath.workprec(REF_PREC):
        v = scale * mpmath.factorial(j) * seq_value(spec, j)
        return _ball(v, v * mpmath.mpf(2) ** (16 - REF_PREC))


def _meets(box: tuple[Fraction, Fraction], ball: tuple[Fraction, Fraction]) -> bool:
    return box[0] <= ball[1] and ball[0] <= box[1]


def _narrow(box, ball, factor: int = 1000) -> bool:
    return (ball[1] - ball[0]) * factor <= box[1] - box[0] or box[0] == box[1]


# -- enclosure checkers ----------------------------------------------------------

def check_theta_eval(spec, x, j, K, box) -> str | None:
    """box = ((re_lo, re_hi), (im_lo, im_hi)) for theta^(j)(x)."""
    ref = theta_reference(spec, j, x, K)
    for part, b, r in (("re", box[0], ref[0]), ("im", box[1], ref[1])):
        if not _meets(b, r):
            return f"theta_eval {part} box misses the reference ball"
        if not _narrow(b, r):
            return f"theta_eval {part} reference ball is not far narrower than the box"
    re_sq = max(box[0][0] ** 2, box[0][1] ** 2)
    im_sq = max(box[1][0] ** 2, box[1][1] ** 2)
    lo, _ = jfact_mj_bound(spec, j, 3 * 2 ** j)
    if re_sq + im_sq > lo * lo:
        return "theta_eval box exceeds 3 * 2^j * j! * M_j"
    return None


def check_theta_zero(spec, j, K, magnitude, phase) -> str | None:
    if phase != j % 4:
        return f"theta_derivative_at_zero phase {phase} != {j % 4}"
    _, hi = jfact_mj_bound(spec, j, 1)
    if magnitude[0] < hi:
        return "theta_derivative_at_zero magnitude below j! * M_j"
    ref = theta_zero_reference(spec, j, K)
    if not _meets(magnitude, ref):
        return "theta_derivative_at_zero misses the reference ball"
    return None


def check_nodiv(spec, J, K, orders, cvals) -> str | None:
    if list(orders) != [2 * j for j in range(J + 1)]:
        return "nodiv_witness orders are not 0, 2, ..., 2J"
    for j, c in enumerate(cvals):
        _, m2j_hi = jfact_mj_bound(spec, 2 * j, 1)
        m2j_hi /= math.factorial(2 * j)
        if c[0] < m2j_hi:
            return f"nodiv_witness c_{j} below M_{2 * j}"
        lo, hi = theta_zero_reference(spec, 2 * j, K)
        f = math.factorial(2 * j)
        if not _meets(c, (lo / f, hi / f)):
            return f"nodiv_witness c_{j} does not contain the reference"
    return None


def flat_row_reference(alpha: Fraction, k: int, j: int):
    """(2j)! e^-j j^(2 k alpha (j+1)) and (2j)!^(1 + k alpha), as mpf."""
    a = mpmath.mpf(alpha.numerator) / alpha.denominator
    f = mpmath.factorial(2 * j)
    return (f * mpmath.exp(-j) * mpmath.mpf(j) ** (2 * k * a * (j + 1)),
            f ** (1 + k * a))


def check_flat_witness(alpha, k, J, values, constant) -> str | None:
    """values[j-1] = (lo, hi) of the signed 2j-th derivative; constant = C."""
    with mpmath.workprec(REF_PREC):
        best = None
        for j in range(1, J + 1):
            mag, base = flat_row_reference(alpha, k, j)
            ref = _ball(mag if j % 2 == 0 else -mag, abs(mag) * mpmath.mpf(2) ** -250)
            if not _meets(values[j - 1], ref):
                return f"gevrey_flat_witness row {j} misses the reference"
            cj = (mag / base) ** (mpmath.mpf(1) / (j + 1))
            best = cj if best is None else min(best, cj)
        c = mpmath.mpf(constant.numerator) / constant.denominator
        if c > best * (1 + mpmath.mpf(2) ** -40):
            return "gevrey_flat_witness constant exceeds the largest valid one"
        if c < best * (1 - mpmath.mpf(2) ** -14):
            return "gevrey_flat_witness constant is far below the largest valid one"
    return None


# the closed-form growth facts of the built-in families
def expected_flags(spec: tuple) -> dict:
    family = spec[0]
    t, f = "true", "false"
    if family == "analytic":
        return dict(log_convex=t, analytic_class=t, quasianalytic=t,
                    strongly_non_quasianalytic=f, moderate_growth=t,
                    derivation_stable=t, strongly_regular=f)
    if family == "gevrey":
        return dict(log_convex=t, analytic_class=f, quasianalytic=f,
                    strongly_non_quasianalytic=t, moderate_growth=t,
                    derivation_stable=t, strongly_regular=t)
    if family == "loggevrey":
        return dict(log_convex=t, analytic_class=f,
                    quasianalytic=t if spec[1] <= 1 else f,
                    strongly_non_quasianalytic=f, moderate_growth=t,
                    derivation_stable=t, strongly_regular=f)
    if family == "qgevrey":
        return dict(log_convex=t, analytic_class=f, quasianalytic=f,
                    strongly_non_quasianalytic=t, moderate_growth=f,
                    derivation_stable=t, strongly_regular=f)
    raise ValueError(family)


def check_classify(spec, flags: dict) -> str | None:
    want = expected_flags(spec)
    for name, value in want.items():
        if flags.get(name) != value:
            return f"classify flag {name} = {flags.get(name)}, expected {value}"
    return None


def check_superadditivity(spec, horizon, passed) -> str | None:
    """A log-convex M with M_0 = 1 is superadditive, so the check must pass;
    the inequality is also confirmed in logarithms."""
    if not passed:
        return "verify_superadditivity rejected a log-convex sequence"
    with mpmath.workprec(128):
        logs = [mpmath.log(seq_value(spec, j)) for j in range(horizon + 1)]
        for j in range(1, horizon + 1):
            for k in range(j, horizon - j + 1):
                if logs[j] + logs[k] > logs[j + k] + mpmath.mpf(2) ** -100:
                    return f"reference finds M_{j} M_{k} > M_{j + k}"
    return None


# -- the Hilbert model, rebuilt from its integral definition ---------------------

def _deriv(coeffs: list[Fraction], times: int) -> list[Fraction]:
    out = list(coeffs)
    for _ in range(times):
        out = [c * i for i, c in enumerate(out)][1:]
    return out


def _monomial_deriv(a: int, j: int) -> tuple[int, int]:
    """(x^a)^(j) = c x^p as (c, p); c = 0 when j > a."""
    c = 1
    for i in range(j):
        c *= a - i
    return c, a - j


def _integral_of_power(n: int) -> Fraction:
    """integral over (-1, 1) of x^n = [x^(n+1)/(n+1)] from -1 to 1."""
    return Fraction(1 - (-1) ** (n + 1), n + 1)


@functools.lru_cache(maxsize=None)
def gram_reference(spec: tuple, D: int) -> tuple:
    """<x^a|x^b> = sum_j (j! M_j)^-2 integral_{-1}^{1} (x^a)^(j) (x^b)^(j) dx,
    derivative by derivative and integral by integral."""
    weights = [Fraction(1) / (math.factorial(j) * seq_exact(spec, j)) ** 2
               for j in range(D + 1)]
    G = [[Fraction(0)] * (D + 1) for _ in range(D + 1)]
    for a in range(D + 1):
        for b in range(a, D + 1):
            s = Fraction(0)
            for j in range(min(a, b) + 1):
                ca, pa = _monomial_deriv(a, j)
                cb, pb = _monomial_deriv(b, j)
                s += weights[j] * ca * cb * _integral_of_power(pa + pb)
            G[a][b] = G[b][a] = s
    return tuple(tuple(row) for row in G)


def solve_exact(A: list[list[Fraction]], B: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan solve of A X = B over Q; B and X are lists of columns."""
    n = len(A)
    rows = [list(A[i]) + [col[i] for col in B] for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [v * inv for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return [[rows[i][n + m] for i in range(n)] for m in range(len(B))]


def minimal_reference(G: list[list[Fraction]], data: list[Fraction]) -> list[Fraction]:
    """Minimal-norm g with g^(i)(0) = data[i] for i < k.

    g is orthogonal to every u with u^(i)(0) = 0 for i < k, i.e. to the
    monomials x^a with a >= k, so (G g)_a = 0 for a >= k while the first
    k coefficients are pinned to data[i] / i!.
    """
    return minimal_reference_many(G, [data])[0]


def minimal_reference_many(G, datas: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(G)
    k = len(datas[0])
    if k == n:
        return [[Fraction(b) / math.factorial(i) for i, b in enumerate(d)] for d in datas]
    A = [[G[a][b] for b in range(k, n)] for a in range(k, n)]
    heads = [[Fraction(b) / math.factorial(i) for i, b in enumerate(d)] for d in datas]
    B = [[-sum(G[a][i] * h[i] for i in range(k)) for a in range(k, n)] for h in heads]
    tails = solve_exact(A, B)
    return [h + t for h, t in zip(heads, tails)]


@functools.lru_cache(maxsize=None)
def omega_reference(spec: tuple, D: int, k: int) -> tuple:
    """omega_{j,k} = j! * u_{j,k}(1) for the unit data vectors."""
    units = [[Fraction(int(i == j)) for i in range(k)] for j in range(k)]
    gs = minimal_reference_many(gram_reference(spec, D), units)
    return tuple(math.factorial(j) * sum(g) for j, g in enumerate(gs))


def check_omega(spec, D, k, omegas) -> str | None:
    ref = omega_reference(spec, D, k)
    if tuple(omegas) != ref:
        bad = next(j for j, (a, b) in enumerate(zip(omegas, ref)) if a != b) \
            if len(omegas) == len(ref) else "length"
        return f"omega_table D={D} k={k} differs from the reference at j={bad}"
    return None


def check_lacunary(spec, schedule, sums) -> str | None:
    if len(sums) != len(schedule) - 1:
        return "lacunary_select returned the wrong number of sums"
    for p in range(1, len(schedule)):
        D, k = schedule[p]
        k_prev = schedule[p - 1][1]
        om = omega_reference(spec, D, k)
        want = sum((abs(om[j] - 1) * seq_exact(spec, j) for j in range(k_prev + 1)),
                   Fraction(0))
        if sums[p - 1] != want:
            return f"lacunary_select sum at p={p} differs from the reference"
        if want > 1:
            return f"lacunary_select accepted a sum above 1 at p={p}"
    return None


def check_minimal(spec, D, data, coeffs, norm_sq) -> str | None:
    G = gram_reference(spec, D)
    ref = minimal_reference(G, list(data))
    if list(coeffs) != ref:
        return "minimal_interpolant differs from the orthogonality solve"
    want = sum(ref[a] * G[a][b] * ref[b] for a in range(len(ref)) for b in range(len(ref)))
    if norm_sq != want:
        return "minimal_interpolant norm differs from g^T G g"
    return None


def sup_norm_reference(coeffs: list[Fraction], j: int) -> Fraction:
    """max over [-1, 1] of |u^(j)|: exact at the end points, and to 80
    digits at the real roots of u^(j+1), which sympy isolates."""
    import sympy
    t = sympy.Symbol("t")
    du = _deriv(list(coeffs), j)
    best = max(abs(sum(du)), abs(sum(c * (-1) ** i for i, c in enumerate(du))))
    poly = sympy.Poly(list(reversed([sympy.Rational(c.numerator, c.denominator)
                                     for c in du])) or [0], t)
    ddu = poly.diff(t)
    if not ddu.is_zero:
        primitive = ddu.clear_denoms()[1].primitive()[1]
        for r in primitive.real_roots():
            v = r.evalf(80)
            if -1 <= v <= 1:
                q = sympy.Rational(abs(poly.eval(v)))
                best = max(best, Fraction(int(q.p), int(q.q)))
    return best


def check_sobolev(coeffs, j, sup_lower, sup_upper) -> str | None:
    sup = sup_norm_reference(coeffs, j)
    slack = sup / 2 ** 200     # covers the 80-digit evaluation at interior roots
    if sup_lower > sup + slack:
        return "sobolev_check lower bound exceeds the sup norm"
    if sup_upper < sup - slack:
        return "sobolev_check upper bound is below the sup norm"
    return None


# -- plane curves, via sympy ----------------------------------------------------
# sympy is imported only here, after the measured rounds, so that it adds
# nothing to the set-up time or the peak memory of the measured process.

def symbols():
    import sympy
    return sympy.symbols("x y z")


def hyperbolicity_reference(phi) -> dict:
    """Degree, multiplicity excess and per-side root counts of phi(x, .)
    near x = 0, from sympy's sqf_list, discriminant and count_roots."""
    import sympy
    X, Y, _ = symbols()
    poly = sympy.Poly(phi, Y, X)
    _, factors = sympy.sqf_list(phi, Y, X)
    sqf = sympy.Integer(1)
    for f, _ in factors:
        sqf *= f
    sqf = sympy.Poly(sympy.expand(sqf), Y, X)
    degree = sqf.degree(Y)
    excess = poly.degree(Y) - degree
    disc = sympy.Poly(sympy.discriminant(sqf.as_expr(), Y), X)
    # strip the factor x^v, then stay closer to 0 than every nonzero real root
    v = min(m[0] for m in disc.monoms())
    core = sympy.Poly(sympy.cancel(disc.as_expr() / X ** v), X)
    bound = sympy.Rational(1, 2)
    if core.degree() > 0:
        for (a, b), _ in core.intervals():
            low = min(abs(a), abs(b)) if a * b > 0 else 0
            if low == 0:  # an isolating interval straddling 0: refine it
                low = min(abs(r) for r in core.real_roots()) / 2
                low = sympy.Rational(sympy.floor(low * 2 ** 40), 2 ** 40)
            bound = min(bound, low)
    x0 = bound / 2
    counts = {}
    for side, point in (("plus", x0), ("minus", -x0)):
        fiber = sympy.Poly(sqf.as_expr().subs(X, point), Y)
        counts[side] = fiber.count_roots()
    return {"degree": degree, "multiplicity_excess": excess, "counts": counts}


def check_hyperbolic(phi, expected_verdict: str, report: dict) -> str | None:
    """report = {'verdict', 'degree', 'multiplicity_excess', 'counts'}."""
    ref = hyperbolicity_reference(phi)
    if report["verdict"] != expected_verdict:
        return f"verdict {report['verdict']} contradicts the construction"
    if report["degree"] != ref["degree"]:
        return "squarefree degree differs from sympy's sqf_list"
    if report["multiplicity_excess"] != ref["multiplicity_excess"]:
        return "multiplicity excess differs from sympy's sqf_list"
    if report["counts"] != ref["counts"]:
        return f"root counts {report['counts']} != sympy's {ref['counts']}"
    hyperbolic = all(c == ref["degree"] for c in ref["counts"].values())
    if hyperbolic != (expected_verdict == "hyperbolic"):
        return "the construction's verdict disagrees with sympy's counts"
    return None


def check_division(P, F, G, H, var) -> str | None:
    """P = F*G + H with deg_var H < deg_var F, re-expanded by sympy."""
    import sympy
    if sympy.expand(F * G + H - P) != 0:
        return "division identity does not re-expand"
    d = sympy.Poly(F, var).degree()
    if H != 0 and sympy.Poly(H, var).degree() >= d:
        return "division remainder degree is not reduced"
    return None


def check_falsify(phi, params: list, radius: Fraction, resolution: int,
                  hit: dict | None) -> str | None:
    """Rescan the grid with sympy; a hit must be a genuine counterexample and
    a miss must leave no counterexample on the grid."""
    import itertools
    import sympy
    _, Y, _ = symbols()
    steps = [sympy.Rational(i * radius.numerator, resolution * radius.denominator)
             for i in range(-resolution, resolution + 1)]

    def non_real(point: dict) -> bool:
        fiber = sympy.Poly(phi.subs(point), Y)
        sqf = sympy.Poly(sympy.quo(fiber, sympy.gcd(fiber, fiber.diff(Y))), Y)
        return sqf.degree() >= 1 and sqf.count_roots() != sqf.degree()

    if hit is not None:
        point = {sympy.Symbol(k): sympy.Rational(v.numerator, v.denominator)
                 for k, v in hit.items()}
        if any(v not in steps for v in point.values()):
            return "falsifier point is off the grid"
        if not non_real(point):
            return "falsifier point has only real roots"
        return None
    for values in itertools.product(steps, repeat=len(params)):
        if non_real(dict(zip(params, values))):
            return "falsifier missed a counterexample on its grid"
    return None
