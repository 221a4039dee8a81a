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
field degree, and the multiplicity is that of the squarefree part.  The
iteration keeps its exponents integral, as in Duval's rational Puiseux
expansions: the working polynomial is in t = x^(1/r), r the ramification
reached so far, and an edge of slope p/q (in lowest terms) substitutes
t -> t^q, so r becomes r*q.  All coefficient arithmetic is exact.

Each branch is substituted back into the sheared germ.  This proves that
an exact branch is a root of it, and that a truncated branch y^ leaves
phi(x, y^) of x-order > T.  It does not by itself prove that y^ agrees
with a true branch up to order T: the sheared germ need not be
squarefree, and where phi_y vanishes to high order along the branch,
later coefficients of y^ move phi(x, y^) only past order T.

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
from sympy.polys.densearith import dup_add, dup_mul
from sympy.polys.densebasic import dup_strip
from sympy.polys.densetools import dup_shift

from .algebraic import (QQ, FieldElement, NumberField, extend_field,
                        factor_over_field, fraction_to_qq, is_real_certified,
                        qq_to_fraction)
from .errors import (DomainError, ExhaustedTrials, TruncationInsufficient,
                     ZeroPolynomialError)
from .polynomials import MultiPoly
from .rationals import format_fraction

Term = tuple[int, int]   # (exponent of t = x^(1/r), y power)

_X, _Y = sympy.symbols("x y")


# -- Newton polygon -----------------------------------------------------------------

def _support_hull(points: dict[int, int]) -> list[tuple[int, int]]:
    """Lower convex hull of (y-power, min t-exponent) pairs, as vertices
    sorted by increasing y-power."""
    pts = sorted(points.items())
    hull: list[tuple[int, int]] = []
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
    """Working polynomial sum c_{a,b} t^a y^b in t = x^(1/r), where r is
    the ramification reached so far.  ``terms`` maps the integer pair
    (a, b) to c_{a,b}, a nonzero element of ``field._domain`` (sympy's, not
    a :class:`FieldElement`)."""

    __slots__ = ("field", "r", "terms")

    def __init__(self, field: NumberField, r: int, terms: dict[Term, object]):
        self.field = field
        self.r = r
        self.terms = terms

    def support(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for a, b in self.terms:
            if b not in out or a < out[b]:
                out[b] = a
        return out

    def substitute_and_strip(self, p: int, q: int, c) -> "_Work":
        """u^-nu * psi(u^q, u^p (c + y)) in u = t^(1/q), where nu is the
        minimal resulting exponent (the edge value) and c is an element of
        the field's sympy domain; the result has ramification r*q.

        The terms with q*a + p*b = s form a polynomial P_s(y), whose image
        is u^s P_s(c + y): one Taylor shift per s over the field's sympy
        domain."""
        domain = self.field._domain
        rows: dict[int, dict[int, object]] = {}
        for (a, b), v in self.terms.items():
            rows.setdefault(q * a + p * b, {})[b] = v
        out: dict[Term, object] = {}
        for s, row in rows.items():
            dense = [row.get(b, domain.zero) for b in range(max(row), -1, -1)]
            for i, v in enumerate(reversed(dup_shift(dense, c, domain))):
                if v:
                    out[(s, i)] = v
        nu = min(a for a, _ in out)
        return _Work(self.field, self.r * q,
                     {(a - nu, b): v for (a, b), v in out.items()})


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

    Both ends of a hull edge (b1, a1), (b2, a2) are support points, so the
    face polynomial sum_{b1 <= b <= b2} c_b z^(b - b1) has nonzero constant
    and leading coefficients: it needs no trimming, and c = 0 is never one
    of its roots.  A working polynomial of y-degree 0 has a hull of one
    vertex and hence no edge, which ends the recursion.
    """
    if depth > _MAX_STEPS:
        raise TruncationInsufficient("expansion did not stabilize; raise T")
    field = work.field
    if all(b for _, b in work.terms):
        # y divides the working polynomial: the series ends exactly here
        out.append((field, prefix, True))
        work = _Work(field, work.r,
                     {(a, b - 1): v for (a, b), v in work.terms.items()})
    hull = _support_hull(work.support())
    for (b1, a1), (b2, a2) in zip(hull, hull[1:]):
        if a1 <= a2:
            continue  # nonpositive slope: roots not tending to 0
        g = math.gcd(a1 - a2, b2 - b1)
        p, q = (a1 - a2) // g, (b2 - b1) // g
        face = [field._domain.zero] * (b2 - b1 + 1)
        for (a, b), v in work.terms.items():
            if b1 <= b <= b2 and q * (a1 - a) == p * (b - b1):
                face[b - b1] = v
        exponent = base + Fraction(p, q * work.r)
        for h, mult in factor_over_field(field, [FieldElement(field, v) for v in face]):
            # beyond the truncation order: only a simple root has a unique
            # (splitting-free) continuation we may truncate
            if exponent > T and mult != 1:
                raise TruncationInsufficient(
                    f"branches still coincide past order {T}; raise T")
            ext = extend_field(field, h)
            new_prefix = [(e, ext.embed(c)) for e, c in prefix]
            if exponent > T:
                out.append((ext.field, new_prefix, False))
                continue
            lifted = _Work(ext.field, work.r,
                           {k: ext.embed(FieldElement(field, v)).value
                            for k, v in work.terms.items()})
            sub = lifted.substitute_and_strip(p, q, ext.new_root.value)
            _collect_branches(sub, exponent, T, new_prefix + [(exponent, ext.new_root)],
                              out, depth + 1)


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
    """Replace x by x + c*y in phi(x, y), trying c = 0, 1, -1, 2, ... until
    the pure y^d coefficient (d = multiplicity at 0, so d >= 1 for a germ
    through 0) is nonzero; then the zero set is not tangent to the y-axis
    and all branches have order >= 1.  The result is in ("x", "y")."""
    d = phi.order()
    phi = phi.with_vars(("x", "y"))
    candidates = [0]
    for k in range(1, d * d + 1):
        candidates.extend([k, -k])
    xv = MultiPoly.variable("x", phi.vars)
    yv = MultiPoly.variable("y", phi.vars)
    for c in candidates:
        sheared = phi.substitute({"x": xv + c * yv}).with_vars(phi.vars) if c else phi
        if sheared.coeffs.get((0, d), 0) != 0:
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
    """Branches of the germ of phi(x, y) at the origin, truncated at
    x-order T, a positive int or Fraction.

    The polynomial is sheared to genericity, split into squarefree parts
    over Q[x, y], and each part expanded by the polygon iteration with exact
    number-field coefficients and integer exponents of t = x^(1/r).  Every
    branch y^ is substituted back into the sheared polynomial, which must
    vanish identically for an exact branch and to x-order > T for a
    truncated one; the module docstring says what this proves.
    """
    if isinstance(T, bool) or not isinstance(T, (int, Fraction)):
        raise DomainError(f"truncation order must be an int or a Fraction, got {T!r}")
    T = Fraction(T)
    if T <= 0:
        raise DomainError(f"truncation order must be positive, got {T}")
    if not set(phi.vars) <= {"x", "y"}:
        raise DomainError(f"the germ must be in the variables x and y, got {phi.vars}")
    if phi.is_zero():
        raise ZeroPolynomialError("cannot expand the zero polynomial")
    if phi.constant_term() != 0:
        raise DomainError("the germ must vanish at the origin")
    sheared, c = shear_to_generic(phi)

    branches: list[PuiseuxBranch] = []
    for part, mult in _squarefree_parts_in_y(sheared):
        work = _Work(QQ, 1, {e: fraction_to_qq(v) for e, v in part.coeffs.items()})
        found: list = []
        _collect_branches(work, Fraction(0), T, [], found, 0)
        for fld, terms, exact in found:
            branches.append(PuiseuxBranch(
                field=fld, terms=terms, multiplicity=mult, exact=exact,
                truncation=T))

    m = math.lcm(*(e.denominator for b in branches for e, _ in b.terms))
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


def _certify_branch(phi: MultiPoly, branch: PuiseuxBranch, T: Fraction):
    """Substitute the branch y^ into phi(t^m, y), t = x^(1/m), by Horner in
    y on dense lists in t over the field's sympy domain, and verify that
    the result vanishes identically for an exact branch, and to t-order
    > m*T for a truncated one, whose steps keep only t^0..t^(floor(mT)+1)."""
    fld, m = branch.field, branch.m
    K = fld._domain
    top = max((int(e * m) for e, _ in branch.terms), default=0)
    yhat = [K.zero] * (top + 1)
    for e, coef in branch.terms:
        yhat[top - int(e * m)] = coef.value
    yhat = dup_strip(yhat)
    keep = None if branch.exact else int(m * T) + 2
    rows: dict[int, dict[int, object]] = {}
    for (a, b), coef in phi.coeffs.items():
        rows.setdefault(b, {})[a * m] = fld.element(coef).value
    acc: list = []
    for b in range(max(rows), -1, -1):
        row = rows.get(b, {})
        dense = [row.get(e, K.zero) for e in range(max(row, default=-1), -1, -1)]
        acc = dup_add(dup_mul(acc, yhat, K), dense, K)
        if keep is not None:
            acc = dup_strip(acc[-keep:])
    residual = [e for e, v in enumerate(reversed(acc)) if v]
    if branch.exact:
        if residual:
            raise TruncationInsufficient(
                f"exact branch fails to annihilate the germ (orders {residual})")
    elif residual and residual[0] <= m * T:
        raise TruncationInsufficient(
            f"branch vanishes only to order {residual[0]} <= {m * T}")


# -- imaginary-part orders and the closedness exponent ------------------------------

@dataclass
class BranchImOrder:
    determined: bool
    d_over_m: Fraction | None     # the contribution max d_j/m over the class
    real_member: bool             # some series of the class is real


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
        return BranchImOrder(True, one_over_m, True)

    values: list[Fraction] = []
    real_member = fld.real_embedding_count() > 0
    undetermined = False
    for idx in range(degree):
        embedded = NumberField(minpoly, root_index=idx)
        if embedded.is_real:
            continue  # a real series; contributes 1/m, folded in below
        d_here = next((e for e, coef in branch.terms
                       if not is_real_certified(embedded.element(list(coef.rep)))),
                      None)
        if d_here is not None:
            values.append(d_here)
        elif branch.exact:
            # terminating series, every coefficient certified real
            real_member = True
        else:
            undetermined = True
    if undetermined:
        return BranchImOrder(False, None, real_member)
    best = max(values) if values else one_over_m
    if real_member:
        best = max(best, one_over_m)
    return BranchImOrder(True, best, real_member)


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
    data as exact rationals.  T is the truncation order of
    :func:`puiseux_expand`, a positive int or Fraction."""
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
