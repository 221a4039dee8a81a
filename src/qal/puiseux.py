"""Puiseux expansion of plane-curve germs and the order invariants of
their complex branches.

A germ phi(x, y) with phi(0,0) = 0 is first sheared by x -> x + c*y until
the pure y^d coefficient (d = multiplicity at 0) is nonzero, which makes
the zero set non-tangent to the y-axis and guarantees every branch through
the origin has order >= 1.  The sheared germ is split into squarefree
parts by sympy's ``sqf_list`` over Q[x, y]; the classical Newton polygon
iteration then produces the branches of each part

    y(x) = sum  c_q x^(q/m),   coefficients in a number-field tower,

one representative per rational conjugacy class; the class size is the
field degree, and the multiplicity is that of the squarefree part.  All
coefficient arithmetic is exact; substitution back into phi certifies
each truncated branch to the requested order.

The imaginary-part orders d_j are computed per complex embedding of the
branch field (realness is decided exactly, never from decimals): the
two-sided maximum of d_j / m over the branches of phi and of phi(-x, y)
is the closedness exponent reported by :func:`d_exponent`, and for an
isolated real zero it is also the separation exponent, reported as
``ExponentReport.tau_exact``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import sympy
from sympy.polys.densetools import dup_shift

from .algebraic import (QQ, FieldElement, NumberField, extend_field,
                        factor_over_field, fraction_to_qq, is_real_certified,
                        qq_to_fraction)
from .errors import (DomainError, ExhaustedTrials, TruncationInsufficient,
                     ZeroPolynomialError)
from .polynomials import MultiPoly, udeg, utrim
from .rationals import format_fraction

Term = tuple[Fraction, int]   # (x exponent, y power)

_X, _Y = sympy.symbols("x y")


# -- Newton polygon -----------------------------------------------------------------

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
        x-exponent (the segment value).

        The terms with a + mu*b = s form a polynomial P_s(y), whose image
        is x^s P_s(c + y): one Taylor shift per s over the field's sympy
        domain."""
        field = self.field
        rows: dict[Fraction, dict[int, object]] = {}
        for (a, b), coef in self.terms.items():
            rows.setdefault(a + mu * b, {})[b] = coef.value
        zero = field._domain.zero
        out: dict[Term, FieldElement] = {}
        for s, row in rows.items():
            dense = [row.get(b, zero) for b in range(max(row), -1, -1)]
            shifted = dup_shift(dense, c.value, field._domain)
            for i, v in enumerate(reversed(shifted)):
                if v:
                    out[(s, i)] = FieldElement(field, v)
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
    for k in range(1, d * d + 1):
        candidates.extend([k, -k])
    xv = MultiPoly.variable("x", vars_all)
    yv = MultiPoly.variable("y", vars_all)
    for c in candidates:
        sheared = phi.substitute({"x": xv + c * yv}) if c else phi
        sheared = sheared.with_vars(vars_all)
        if sheared.coeffs.get(target, 0) != 0:
            return sheared, c
    raise ExhaustedTrials("no shear made the germ y-regular of its multiplicity")


def _squarefree_parts_in_y(phi: MultiPoly) -> list[tuple[MultiPoly, int]]:
    """Squarefree parts of phi (variables ("x", "y")) in Q[x, y] with their
    multiplicities.  Parts without y are dropped: after the shear such a
    factor g(x) divides the y^d coefficient, whose constant term is
    nonzero, so g(0) != 0 and g is a unit at the origin that carries no
    branch."""
    poly = sympy.Poly.from_dict({e: fraction_to_qq(c) for e, c in phi.coeffs.items()},
                                _X, _Y, domain=sympy.QQ)
    return [(MultiPoly(("x", "y"), {e: qq_to_fraction(c)
                                    for e, c in part.as_dict(native=True).items()}), mult)
            for part, mult in poly.sqf_list()[1] if part.degree(_Y) > 0]


def puiseux_expand(phi: MultiPoly, T) -> PuiseuxExpansion:
    """Branches of the germ of phi at the origin, truncated at x-order
    T > 0.

    The polynomial is sheared to genericity, split into squarefree parts
    over Q[x, y], and each part expanded by the polygon iteration with exact
    number-field coefficients.  Every branch is certified by substituting
    it back into the expanded polynomial: the result must vanish to
    x-order > T (identically for exact branches).
    """
    T = Fraction(T)
    if T <= 0:
        raise DomainError(f"truncation order must be positive, got {T}")
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


def branch_im_order(branch: PuiseuxBranch) -> BranchImOrder:
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
        d_here = next((e for e, coef in branch.terms
                       if not is_real_certified(embedded.element(list(coef.rep)))),
                      None)
        if d_here is not None:
            values.append(d_here)
            detail.append(f"embedding {idx}: first imaginary exponent {d_here}")
        elif branch.exact:
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
