"""Newton polygon, Puiseux expansion of plane-curve germs, and the order
invariants of their complex branches.

A germ phi(x, y) with phi(0,0) = 0 is first sheared by x -> x + c*y until
the pure y^d coefficient (d = multiplicity at 0) is nonzero, which makes
the zero set non-tangent to the y-axis and guarantees every branch through
the origin has order >= 1.  The classical polygon iteration then produces
the branches

    y(x) = sum  c_q x^(q/m),   coefficients in a number-field tower,

one representative per rational conjugacy class; the class size is the
field degree, and multiplicities come from the squarefree decomposition
performed beforehand.  All coefficient arithmetic is exact; substitution
back into phi certifies each truncated branch to the requested order.

The imaginary-part orders d_j are computed per complex embedding of the
branch field (realness is decided exactly, never from decimals): the
two-sided maximum of d_j / m over the branches of phi and of phi(-x, y)
is the closedness exponent reported by :func:`d_exponent`, and for an
isolated real zero it coincides with the separation exponent estimated by
:func:`tau_estimate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebraic import (QQ, AlgebraicNumber, FieldElement, NumberField,
                        extend_field, factor_over_field, im_excludes_zero,
                        is_real_certified)
from .errors import (DegenerateRegression, DomainError, ExhaustedTrials,
                     TruncationInsufficient, ZeroPolynomialError)
from .polynomials import MultiPoly, RatFunc, parse_polynomial, udeg, uderiv, \
    udivmod, ugcd, umonic, utrim
from .rationals import format_fraction

Term = tuple[Fraction, int]   # (x exponent, y power)


# -- truncated series and their order ---------------------------------------------

@dataclass
class TruncSeries:
    """Series known through x-order `truncation` (exclusive beyond)."""

    coeffs: dict[Fraction, object]
    truncation: Fraction

    @staticmethod
    def from_dense(values, truncation=None) -> "TruncSeries":
        coeffs = {Fraction(i): v for i, v in enumerate(values) if v}
        t = truncation if truncation is not None else Fraction(max(len(values) - 1, 0))
        return TruncSeries(coeffs, Fraction(t))


@dataclass
class SeriesOrder:
    finite: bool
    value: Fraction            # the order, or the truncation bound

    def __repr__(self):
        if self.finite:
            return f"SeriesOrder({self.value})"
        return f"SeriesOrder(at least {self.value}, all computed terms vanish)"


def series_order(v: TruncSeries) -> SeriesOrder:
    """Smallest exponent with a nonzero coefficient; when every computed
    coefficient vanishes the answer is only 'at least the truncation',
    reported explicitly rather than as a silent infinity."""
    present = sorted(e for e, c in v.coeffs.items() if c)
    if present:
        return SeriesOrder(True, present[0])
    return SeriesOrder(False, v.truncation)


# -- Newton polygon -----------------------------------------------------------------

@dataclass
class PolygonSegment:
    slope: Fraction            # branch order carried by this segment
    face: MultiPoly            # face polynomial in the variable 'c'
    points: list[tuple[Fraction, int]]


@dataclass
class NewtonPolygonResult:
    segments: list[PolygonSegment]
    x_removed: int
    y_removed: int


def _support_hull(points: dict[int, Fraction]) -> list[tuple[int, Fraction]]:
    """Lower convex hull of (y-power, min x-exponent) pairs, as vertices
    sorted by increasing y-power."""
    pts = sorted(points.items())
    hull: list[tuple[int, Fraction]] = []
    for b, a in pts:
        while len(hull) >= 2:
            (b1, a1), (b2, a2) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the chord
            if (a2 - a1) * (b - b1) >= (a - a1) * (b2 - b1):
                hull.pop()
            else:
                break
        hull.append((b, a))
    return hull


def newton_polygon(phi: MultiPoly) -> NewtonPolygonResult:
    """Segments of the lower Newton polygon of phi(x, y) that carry
    branches through the origin (positive slope), with their supporting
    face polynomials in the variable c."""
    if phi.is_zero():
        raise ZeroPolynomialError("Newton polygon of the zero polynomial")
    if phi.constant_term() != 0:
        raise DomainError("the germ must vanish at the origin")
    vars_all = tuple(sorted(set(phi.vars) | {"x", "y"}))
    phi = phi.with_vars(vars_all)
    ix, iy = vars_all.index("x"), vars_all.index("y")

    x_removed = min(e[ix] for e in phi.coeffs)
    y_removed = min(e[iy] for e in phi.coeffs)
    support: dict[int, Fraction] = {}
    for exps, c in phi.coeffs.items():
        b = exps[iy] - y_removed
        a = Fraction(exps[ix] - x_removed)
        if b not in support or a < support[b]:
            support[b] = a
    hull = _support_hull(support)
    segments = []
    for (b1, a1), (b2, a2) in zip(hull, hull[1:]):
        if a1 <= a2:
            continue  # nonpositive slope: roots not tending to 0
        mu = Fraction(a1 - a2, b2 - b1)
        pts = []
        face: dict[tuple[int], object] = {}
        for exps, c in phi.coeffs.items():
            b = exps[iy] - y_removed
            a = Fraction(exps[ix] - x_removed)
            if b1 <= b <= b2 and a == a1 - mu * (b - b1):
                pts.append((a, b))
                face[(b - b1,)] = face.get((b - b1,), 0) + c
        segments.append(PolygonSegment(mu, MultiPoly(("c",), face), pts))
    return NewtonPolygonResult(segments, x_removed, y_removed)


# -- Puiseux expansion ---------------------------------------------------------------

@dataclass
class PuiseuxBranch:
    """One conjugacy class of branches: a representative series with
    coefficients in a number field, its multiplicity in phi, and the
    number of series the class stands for (the field degree)."""

    field: NumberField
    terms: list[tuple[Fraction, FieldElement]]   # (exponent, coefficient)
    multiplicity: int
    exact: bool                # True when the series terminates exactly
    truncation: Fraction
    m: int = 1                 # ramification of the whole expansion

    def conjugate_count(self) -> int:
        return self.field.degree

    def exponents(self) -> list[Fraction]:
        return [e for e, _ in self.terms]

    def lowest_order(self) -> Fraction | None:
        return self.terms[0][0] if self.terms else None

    def algebraic_coefficients(self) -> list[tuple[Fraction, AlgebraicNumber]]:
        return [(e, AlgebraicNumber.identify(c)) for e, c in self.terms]

    def to_json(self):
        return {
            "m": self.m,
            "multiplicity": self.multiplicity,
            "conjugates": self.conjugate_count(),
            "exact": self.exact,
            "truncation": format_fraction(self.truncation),
            "field_minpoly": [format_fraction(c) for c in self.field.minpoly],
            "terms": [{"exponent": format_fraction(e),
                       "coefficient": [format_fraction(c) for c in co.rep]}
                      for e, co in self.terms],
        }


_MAX_STEPS = 600


class _Work:
    """Working polynomial sum c_{a,b} x^a y^b with field coefficients and
    Fraction x-exponents."""

    __slots__ = ("field", "terms")

    def __init__(self, field: NumberField, terms: dict[Term, FieldElement]):
        self.field = field
        self.terms = {k: v for k, v in terms.items() if v}

    def ydegree(self) -> int:
        return max((b for _, b in self.terms), default=-1)

    def y_content(self) -> int:
        return min((b for _, b in self.terms), default=0)

    def row_zero_empty(self) -> bool:
        return all(b > 0 for _, b in self.terms)

    def map_coeffs(self, fn, new_field) -> "_Work":
        return _Work(new_field, {k: fn(v) for k, v in self.terms.items()})

    def support(self) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for (a, b), _ in self.terms.items():
            if b not in out or a < out[b]:
                out[b] = a
        return out

    def substitute_and_strip(self, mu: Fraction, c: FieldElement) -> "_Work":
        """x^-nu * psi(x, x^mu (c + y)) where nu is the minimal resulting
        x-exponent (the segment value)."""
        field = self.field
        out: dict[Term, FieldElement] = {}
        for (a, b), coef in self.terms.items():
            # (c + y)^b expanded by binomials
            binom = 1
            power = field.one()
            cpowers = [field.one()]
            for _ in range(b):
                cpowers.append(cpowers[-1] * c)
            for i in range(b + 1):
                binom = math.comb(b, i)
                key = (a + mu * b, i)
                val = coef * field.element(binom) * cpowers[b - i]
                if key in out:
                    out[key] = out[key] + val
                else:
                    out[key] = val
        out = {k: v for k, v in out.items() if v}
        nu = min(a for a, _ in out)
        return _Work(field, {(a - nu, b): v for (a, b), v in out.items()})


def _collect_branches(work: _Work, base: Fraction, T: Fraction,
                      prefix: list[tuple[Fraction, FieldElement]],
                      out: list, depth: int):
    """Depth-first polygon iteration.

    ``prefix`` holds the branch terms found so far, with coefficients kept
    in ``work.field``; at every field extension the prefix is pushed
    through the embedding, so stitching never crosses fields.  Once a face
    root is simple the continuation is unique and needs no further
    extension, which is what makes truncated branches meaningful: the
    reported field is the coefficient field of the entire series.
    """
    if depth > _MAX_STEPS:
        raise TruncationInsufficient("expansion did not stabilize; raise T")
    if work.row_zero_empty():
        out.append((work.field, prefix, True))
        work = _Work(work.field,
                     {(a, b - 1): v for (a, b), v in work.terms.items() if b >= 1})
    if work.ydegree() < 1:
        return
    hull = _support_hull(work.support())
    for (b1, a1), (b2, a2) in zip(hull, hull[1:]):
        if a1 <= a2:
            continue  # nonpositive slope: roots not tending to 0
        mu = Fraction(a1 - a2, b2 - b1)
        face: list[FieldElement] = [work.field.zero()] * (b2 - b1 + 1)
        for (a, b), coef in work.terms.items():
            if b1 <= b <= b2 and a == a1 - mu * (b - b1):
                face[b - b1] = face[b - b1] + coef
        face = utrim(face)
        low = 0
        while low < len(face) and not face[low]:
            low += 1
        face = face[low:]
        for h, mult in factor_over_field(work.field, face):
            if udeg(h) == 1 and not h[0]:
                continue  # the root c = 0 belongs to another segment
            if base + mu > T:
                # beyond the truncation order: only a simple root has a
                # unique (splitting-free) continuation we may truncate
                if mult != 1:
                    raise TruncationInsufficient(
                        f"branches still coincide past order {T}; raise T")
                ext = extend_field(work.field, h)
                out.append((ext.field, [(e, ext.embed(c)) for e, c in prefix],
                            False))
                continue
            ext = extend_field(work.field, h)
            c_root = ext.new_root
            lifted = work.map_coeffs(ext.embed, ext.field)
            new_prefix = [(e, ext.embed(c)) for e, c in prefix] \
                + [(base + mu, c_root)]
            sub = lifted.substitute_and_strip(mu, c_root)
            _collect_branches(sub, base + mu, T, new_prefix, out, depth + 1)


@dataclass
class PuiseuxExpansion:
    phi: MultiPoly             # the polynomial actually expanded (after shear)
    shear: int                 # x was replaced by x + shear*y
    branches: list[PuiseuxBranch]
    m: int
    truncation: Fraction

    def degree_count(self) -> int:
        return sum(b.multiplicity * b.conjugate_count() for b in self.branches)

    def to_json(self):
        return {"shear": self.shear, "m": self.m,
                "truncation": format_fraction(self.truncation),
                "branches": [b.to_json() for b in self.branches]}


def shear_to_generic(phi: MultiPoly) -> tuple[MultiPoly, int]:
    """Replace x by x + c*y, trying c = 0, 1, -1, 2, ... until the pure
    y^d coefficient (d = multiplicity at 0) is nonzero; then the zero set
    is not tangent to the y-axis and all branches have order >= 1."""
    if phi.is_zero():
        raise ZeroPolynomialError("cannot shear the zero polynomial")
    d = phi.order()
    vars_all = tuple(sorted(set(phi.vars) | {"x", "y"}))
    phi = phi.with_vars(vars_all)
    iy = vars_all.index("y")
    target = tuple(d if n == iy else 0 for n in range(len(vars_all)))
    candidates = [0]
    for k in range(1, 2 * d * d + 2):
        candidates.extend([k, -k])
    xv = MultiPoly.variable("x", vars_all)
    yv = MultiPoly.variable("y", vars_all)
    for c in candidates[:2 * d * d + 1]:
        sheared = phi.substitute("x", xv + c * yv) if c else phi
        sheared = sheared.with_vars(vars_all)
        if sheared.coeffs.get(target, 0) != 0:
            return sheared, c
    raise ExhaustedTrials("no shear made the germ y-regular of its multiplicity")


def _squarefree_parts_in_y(phi: MultiPoly) -> list[tuple[MultiPoly, int]]:
    """Squarefree decomposition as a polynomial in y over Q(x), with the
    parts cleared back to polynomials (denominator and x-content removed;
    both are units or powers of x, neither changes branches)."""
    dense: list[RatFunc] = []
    for p in range(phi.degree("y") + 1):
        coeff = phi.coefficient("y", p)
        if coeff.is_zero():
            dense.append(RatFunc(0))
            continue
        xdeg = coeff.degree("x") if "x" in coeff.vars else 0
        dense.append(RatFunc([coeff.coefficient("x", e).constant_term()
                              if "x" in coeff.vars else coeff.constant_term()
                              for e in range(xdeg + 1)]))
    dense = utrim(dense)
    out = []
    f = dense
    g = ugcd(f, uderiv(f))
    w = udivmod(f, g)[0]
    mult = 1
    while udeg(w) > 0:
        yk = ugcd(w, g)
        part = udivmod(w, yk)[0]
        if udeg(part) > 0:
            out.append((_ratfunc_poly_to_multipoly(part), mult))
        w = yk
        g = udivmod(g, yk)[0]
        mult += 1
    return out


def _ratfunc_poly_to_multipoly(poly: list[RatFunc]) -> MultiPoly:
    poly = [c if isinstance(c, RatFunc) else RatFunc(c) for c in poly]
    den = [Fraction(1)]
    from .polynomials import umul
    for c in poly:
        den = umul(den, c.den)
    terms: dict[tuple[int, int], Fraction] = {}
    for p, c in enumerate(poly):
        if c.is_zero():
            continue
        num = umul(c.num, udivmod(den, c.den)[0])
        for e, q in enumerate(num):
            if q:
                terms[(e, p)] = terms.get((e, p), 0) + q
    out = MultiPoly(("x", "y"), terms)
    if out.is_zero():
        return out
    shift = min(e[0] for e in out.coeffs)
    if shift:
        out = MultiPoly(("x", "y"),
                        {(a - shift, b): c for (a, b), c in out.coeffs.items()})
    return out


def puiseux_expand(phi: MultiPoly, T) -> PuiseuxExpansion:
    """Branches of the germ of phi at the origin, truncated at x-order T.

    The polynomial is sheared to genericity, squarefree-decomposed in y
    over Q(x), and each part expanded by the polygon iteration with exact
    number-field coefficients.  Every branch is certified by substituting
    it back into the expanded polynomial: the result must vanish to
    x-order > T (identically for exact branches).
    """
    T = Fraction(T)
    if phi.is_zero():
        raise ZeroPolynomialError("cannot expand the zero polynomial")
    if phi.constant_term() != 0:
        raise DomainError("the germ must vanish at the origin")
    sheared, c = shear_to_generic(phi)
    sheared = sheared.with_vars(("x", "y"))
    d = sheared.degree("y")
    if d < 1:
        raise DomainError("sheared germ has no y-degree; not a curve germ")

    branches: list[PuiseuxBranch] = []
    for part, mult in _squarefree_parts_in_y(sheared):
        work = _multipoly_to_work(part)
        found: list = []
        _collect_branches(work, Fraction(0), T, [], found, 0)
        for fld, terms, exact in found:
            branches.append(PuiseuxBranch(
                field=fld, terms=terms, multiplicity=mult, exact=exact,
                truncation=T))

    m = 1
    for b in branches:
        for e, _ in b.terms:
            m = m * e.denominator // math.gcd(m, e.denominator)
    for b in branches:
        b.m = m
    expansion = PuiseuxExpansion(sheared, c, branches, m, T)
    if expansion.degree_count() != sheared.order():
        raise TruncationInsufficient(
            f"branch count {expansion.degree_count()} does not match "
            f"multiplicity {sheared.order()}")
    for b in branches:
        _certify_branch(sheared, b, T)
    return expansion


def _multipoly_to_work(phi: MultiPoly) -> _Work:
    phi = phi.with_vars(("x", "y"))
    terms: dict[Term, FieldElement] = {}
    for (a, b), coef in phi.coeffs.items():
        terms[(Fraction(a), b)] = QQ.element(coef)
    return _Work(QQ, terms)


def _certify_branch(phi: MultiPoly, branch: PuiseuxBranch, T: Fraction):
    """Substitute the truncated branch into phi(x^m, y) and verify that
    the result vanishes to x-order > m*T (identically when exact)."""
    fld = branch.field
    m = branch.m
    # y-hat as a dense polynomial in x (substituted scale)
    if branch.terms:
        top = max(int(e * m) for e, _ in branch.terms)
    else:
        top = 0
    yhat = [fld.zero()] * (top + 1)
    for e, coef in branch.terms:
        yhat[int(e * m)] = yhat[int(e * m)] + coef
    phi = phi.with_vars(("x", "y"))
    cap = int(m * T) + 1 if not branch.exact else None
    # Horner in y with truncated polynomial arithmetic over the field
    ydeg = phi.degree("y")
    acc: dict[int, FieldElement] = {}

    def add_row(acc, row_poly: MultiPoly):
        for (a,), coef in row_poly.coeffs.items():
            e = a * m
            if cap is not None and e > cap:
                continue
            acc[e] = acc.get(e, fld.zero()) + fld.element(coef)
        return acc

    for p in range(ydeg, -1, -1):
        # acc = acc * yhat
        new: dict[int, FieldElement] = {}
        for e1, c1 in acc.items():
            for e2, c2 in enumerate(yhat):
                if not c2:
                    continue
                e = e1 + e2
                if cap is not None and e > cap:
                    continue
                prod = c1 * c2
                if e in new:
                    new[e] = new[e] + prod
                else:
                    new[e] = prod
        acc = new
        acc = add_row(acc, phi.coefficient("y", p))
    residual = {e for e, v in acc.items() if v}
    if branch.exact:
        if residual:
            raise TruncationInsufficient(
                f"exact branch fails to annihilate the germ (orders {sorted(residual)})")
    else:
        low = min(residual, default=None)
        if low is not None and low <= m * T:
            raise TruncationInsufficient(
                f"branch vanishes only to order {low} <= {m * T}")


# -- imaginary-part orders and the closedness exponent ------------------------------

@dataclass
class BranchImOrder:
    determined: bool
    d_over_m: Fraction | None     # the contribution max d_j/m over the class
    real_member: bool             # some series of the class is real
    detail: str = ""


def branch_im_order(branch: PuiseuxBranch, T=None) -> BranchImOrder:
    """Largest imaginary-part order over the conjugacy class of the branch.

    The class consists of one series per embedding of the branch field.
    A real embedding makes every coefficient real; since the reported
    field is the coefficient field of the whole series (truncation only
    happens once the continuation is unique), this certifies a real
    series, whose order contribution is 1/m by convention.  Under a
    complex embedding the order is the first exponent whose coefficient
    has certified nonzero imaginary part; a truncated series with all
    computed coefficients real stays undetermined at this truncation and
    the caller must raise T.
    """
    T = Fraction(T) if T is not None else branch.truncation
    fld = branch.field
    minpoly = list(fld.minpoly)
    degree = fld.degree
    one_over_m = Fraction(1, branch.m)

    if degree == 1:
        return BranchImOrder(True, one_over_m, True, "rational series")

    values: list[Fraction] = []
    real_member = fld.real_embedding_count() > 0
    undetermined = False
    detail = []
    for idx in range(degree):
        embedded = NumberField(minpoly, root_index=idx)
        if embedded.is_real:
            continue  # a real series; contributes 1/m, folded in below
        d_here = None
        all_real = True
        for e, coef in branch.terms:
            a = embedded.element(list(coef.rep))
            verdict = im_excludes_zero(a)
            if verdict is True:
                d_here = e
                all_real = False
                break
            if verdict is None:
                undetermined = True
                all_real = False
                break
        if d_here is not None:
            values.append(d_here)
            detail.append(f"embedding {idx}: first imaginary exponent {d_here}")
        elif all_real:
            if branch.exact:
                # terminating series, every coefficient certified real
                real_member = True
                detail.append(f"embedding {idx}: exact real series")
            else:
                undetermined = True
    if undetermined:
        return BranchImOrder(False, None, real_member,
                             "realness of a truncated series is open; raise T")
    best = max(values) if values else one_over_m
    if real_member:
        best = max(best, one_over_m)
    return BranchImOrder(True, best, real_member, "; ".join(detail))


@dataclass
class ExponentReport:
    phi: MultiPoly
    d_plus: Fraction
    d_plus_mirror: Fraction
    d_value: Fraction
    branch_orders: list[Fraction]
    mirror_branch_orders: list[Fraction]
    m: int
    mirror_m: int
    shear: int
    isolated_real_zero: bool
    tau_exact: Fraction | None
    tau_estimate: float | None = None
    tau_stderr: float | None = None

    def to_json(self):
        out = {"d": format_fraction(self.d_value),
               "d_plus": format_fraction(self.d_plus),
               "d_plus_mirror": format_fraction(self.d_plus_mirror),
               "m": self.m, "mirror_m": self.mirror_m, "shear": self.shear,
               "branch_orders": [format_fraction(v) for v in self.branch_orders],
               "mirror_branch_orders": [format_fraction(v)
                                        for v in self.mirror_branch_orders],
               "isolated_real_zero": self.isolated_real_zero}
        if self.tau_exact is not None:
            out["tau"] = {"status": "exact-equal-d",
                          "value": format_fraction(self.tau_exact)}
        elif self.tau_estimate is not None:
            out["tau"] = {"status": "estimated", "value": self.tau_estimate,
                          "stderr": self.tau_stderr}
        else:
            out["tau"] = {"status": "unknown"}
        return out


def _mirror(phi: MultiPoly) -> MultiPoly:
    phi = phi.with_vars(("x", "y"))
    return MultiPoly(("x", "y"),
                     {(a, b): (c if a % 2 == 0 else -c)
                      for (a, b), c in phi.coeffs.items()})


def _side_orders(expansion: PuiseuxExpansion) -> tuple[list[Fraction], bool]:
    orders = []
    all_nonreal = True
    for b in expansion.branches:
        info = branch_im_order(b)
        if not info.determined:
            raise TruncationInsufficient(
                f"imaginary order undetermined at truncation {b.truncation}; "
                "raise T")
        orders.append(info.d_over_m)
        if info.real_member:
            all_nonreal = False
    return orders, all_nonreal


def d_exponent(phi: MultiPoly, T=8) -> ExponentReport:
    """The two-sided branch exponent d(phi) = max(d+(phi), d+(phi-)),
    where phi- is the x-reflection, both computed from certified Puiseux
    data as exact rationals."""
    expansion = puiseux_expand(phi, T)
    mirror = puiseux_expand(_mirror(expansion.phi), T)
    orders, nonreal_plus = _side_orders(expansion)
    orders_m, nonreal_minus = _side_orders(mirror)
    d_plus = max(orders) if orders else Fraction(1)
    d_plus_m = max(orders_m) if orders_m else Fraction(1)
    d_val = max(d_plus, d_plus_m)
    isolated = nonreal_plus and nonreal_minus
    tau_exact = d_val if isolated else None
    return ExponentReport(
        phi=expansion.phi, d_plus=d_plus, d_plus_mirror=d_plus_m,
        d_value=d_val, branch_orders=orders, mirror_branch_orders=orders_m,
        m=expansion.m, mirror_m=mirror.m, shear=expansion.shear,
        isolated_real_zero=isolated, tau_exact=tau_exact)


# -- separation-exponent estimator ---------------------------------------------------

@dataclass
class TauEstimate:
    slope: float
    stderr: float
    shell_minima: list[tuple[float, float]]   # (radius, min proxy distance)
    exact: Fraction | None
    report: ExponentReport | None

    def to_json(self):
        out = {"slope": self.slope, "stderr": self.stderr,
               "shells": self.shell_minima}
        if self.exact is not None:
            out["exact"] = format_fraction(self.exact)
        return out


def tau_estimate(phi: MultiPoly, shells: list[Fraction], samples: int = 16,
                 T=8) -> TauEstimate:
    """Regression estimate of the separation exponent between the complex
    zero set and the real plane, for a germ with an isolated real zero.

    On each shell |p| = r the proxy distance at a real sample point p is
    the minimum coordinate distance from p to a root of either fiber
    polynomial phi(p_x, .) or phi(., p_y); a root of a fiber lies on the
    complex zero set, so the proxy is an upper bound for the true distance
    up to the coordinate projection factor.  The separation exponent is a
    worst-direction quantity, so the per-shell minimum over the samples is
    what the log-log regression fits.  When the exact branch analysis
    certifies the isolated zero, the exact exponent d(phi) is reported
    alongside (the two must agree for isolated real zeros).
    """
    if len(shells) < 2 or samples < 4:
        raise DegenerateRegression("need at least 2 shells and 4 samples")
    phi = phi.with_vars(("x", "y"))
    report = None
    exact = None
    try:
        report = d_exponent(phi, T)
        if report.isolated_real_zero:
            exact = report.d_value
    except TruncationInsufficient:
        pass

    ydeg = phi.degree("y")
    xdeg = phi.degree("x")
    logs_r, logs_d = [], []
    shell_minima = []
    for r in shells:
        r = float(r)
        best = None
        for s in range(samples):
            angle = 2 * math.pi * s / samples
            px, py = r * math.cos(angle), r * math.sin(angle)
            cand = []
            ycoeffs = [float(phi.coefficient("y", p).eval({"x": Fraction(px).limit_denominator(10**12)}))
                       for p in range(ydeg + 1)]
            cand.extend(abs(py - z) for z in np.roots(list(reversed(ycoeffs)))
                        if not math.isnan(abs(z)))
            xcoeffs = [float(phi.coefficient("x", p).eval({"y": Fraction(py).limit_denominator(10**12)}))
                       for p in range(xdeg + 1)]
            cand.extend(abs(px - z) for z in np.roots(list(reversed(xcoeffs)))
                        if not math.isnan(abs(z)))
            if not cand:
                continue
            proxy = min(cand)
            if proxy > 0 and (best is None or proxy < best):
                best = proxy
        if best is None:
            raise DegenerateRegression(f"no usable samples on shell {r}")
        shell_minima.append((r, best))
        logs_r.append(math.log(r))
        logs_d.append(math.log(best))
    coeffs, residuals, *_ = np.polyfit(logs_r, logs_d, 1, full=True)
    slope = float(coeffs[0])
    n = len(logs_r)
    resid = float(residuals[0]) if len(residuals) else 0.0
    var_x = sum((lx - sum(logs_r) / n) ** 2 for lx in logs_r)
    stderr = math.sqrt(resid / max(n - 2, 1) / var_x) if var_x else float("inf")
    return TauEstimate(slope, stderr, shell_minima, exact, report)
