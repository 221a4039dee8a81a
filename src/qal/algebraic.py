"""Number fields with certified complex embeddings.

A field is Q[t]/(m(t)) for a monic irreducible m over Q together with a
chosen root of m, tracked by an exact isolating rectangle with rational
corners (sympy's root isolation does the exact root counting; rectangles
only ever shrink).  An element is held as an element of sympy's algebraic
field QQ<gamma>, built lazily from the chosen root (a QQ rational when the
field has degree 1), so all field arithmetic is sympy's exact arithmetic
mod m; its dense Fraction coefficient tuple ``rep`` is read off that
representation.  Enclosing boxes for embedded values come from plain
interval Horner evaluation over the rectangle, so they are exact outward
enclosures with no rounding step anywhere.

Every decision that compares such boxes with root rectangles (which
factor of a characteristic polynomial vanishes at an element, which root
of its minimal polynomial the element is, whether a candidate generator
lands on the chosen root) runs in one capped loop, ``_refine_until``: it
halves the rectangles of the fields involved while the test is undecided
and raises ExtensionFailure after ``_REFINE_CAP`` rounds.  Realness is
exact: a box whose imaginary part excludes 0 proves a non-real value,
and otherwise the value is identified as a root of its minimal
polynomial, whose realness sympy's root isolation decides.

Polynomial algorithms over a field (factorization, norms over Q, gcds)
run in the same algebraic field; its generator is gamma, so an element's
coefficient tuple is its sympy representation reversed.  Factorization
over an extension is sympy's implementation of Trager's norm method; the
squarefree norm of an irreducible polynomial (sympy's ``sqf_norm``) is
itself irreducible and serves directly as the minimal polynomial of a
primitive element of the extended field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import sympy
from sympy import CRootOf, Poly, Symbol
from sympy.polys.densearith import dup_rem
from sympy.polys.densebasic import dup_strip
from sympy.polys.sqfreetools import dup_sqf_norm

from .errors import DomainError, ExtensionFailure
from .intervals import CI, RI
from .polynomials import uadd, udeg, umul, umonic, utrim

_T = Symbol("_qal_t")
_Z = Symbol("_qal_z")

_REFINE_CAP = 80  # rectangle halvings before giving up a certification


def fraction_to_qq(c: Fraction):
    """A Fraction as an element of sympy's QQ domain."""
    return sympy.QQ(c.numerator, c.denominator)


def qq_to_fraction(q) -> Fraction:
    """A sympy rational (a QQ domain element or a Rational) as a Fraction."""
    return Fraction(int(q.numerator), int(q.denominator))


def _to_sympy_poly(coeffs: list[Fraction], sym) -> Poly:
    return Poly.from_list([fraction_to_qq(c) for c in reversed(coeffs)], sym,
                          domain=sympy.QQ)


def _eval_box(coeffs, box: CI) -> CI:
    """Horner enclosure of sum coeffs[i] * z^i over the box z."""
    acc = CI(RI.point(0), RI.point(0))
    for c in reversed(coeffs):
        acc = acc * box + CI(RI.point(c), RI.point(0))
    return acc


def _meets(box: CI, rect) -> bool:
    """Whether the box meets the rectangle (re lo, re hi, im lo, im hi)."""
    ax, bx, ay, by = rect
    return not (box.re.hi < ax or bx < box.re.lo
                or box.im.hi < ay or by < box.im.lo)


def _refine_until(test, fields, what: str):
    """The first decision (anything but None) of test(), halving the root
    rectangles of the given fields after each undecided round; raises
    ExtensionFailure when _REFINE_CAP rounds leave it undecided."""
    for _ in range(_REFINE_CAP):
        verdict = test()
        if verdict is not None:
            return verdict
        for field in fields:
            field.refine()
    raise ExtensionFailure(f"could not {what} in {_REFINE_CAP} refinements")


class NumberField:
    """Q(gamma) for a chosen root gamma of a monic irreducible m over Q."""

    def __init__(self, minpoly: list[Fraction], root_index: int | None = None):
        minpoly = umonic(utrim([Fraction(c) for c in minpoly]))
        self.minpoly = tuple(minpoly)
        self.degree = udeg(minpoly)
        if self.degree < 1:
            raise DomainError("minimal polynomial must have positive degree")
        self._modulus = [fraction_to_qq(c) for c in reversed(minpoly)]
        if self.degree == 1:
            # the rationals; gamma = -c0 is rational
            self.root = None
            self.root_index = None
            gamma = -minpoly[0]
            self._rect = (gamma, gamma, Fraction(0), Fraction(0))
        else:
            if not (isinstance(root_index, int) and 0 <= root_index < self.degree):
                raise DomainError("extension field needs a root index in "
                                  f"0..{self.degree - 1}, got {root_index!r}")
            m = _to_sympy_poly(minpoly, _T)
            if not m.is_irreducible:
                raise DomainError("minimal polynomial is reducible over Q")
            self.root_index = root_index
            self.root = CRootOf(m.as_expr(), root_index)
            # CRootOf may return c * CRootOf(m(c t) / c^degree, i) with an
            # integer c > 0; the rectangle of gamma is c times that root's
            scale, root = self.root.as_coeff_Mul()
            self._scale = qq_to_fraction(scale)
            self._interval = root._get_interval()
            self._rect = self._rect_from_interval()

    def _rect_from_interval(self):
        iv, c = self._interval, self._scale
        if self.root.is_real:
            return (c * qq_to_fraction(iv.a), c * qq_to_fraction(iv.b),
                    Fraction(0), Fraction(0))
        return (c * qq_to_fraction(iv.ax), c * qq_to_fraction(iv.bx),
                c * qq_to_fraction(iv.ay), c * qq_to_fraction(iv.by))

    def refine(self):
        if self.root is not None:
            self._interval = self._interval.refine()
            self._rect = self._rect_from_interval()

    @property
    def is_real(self) -> bool:
        return self.root is None or bool(self.root.is_real)

    def real_embedding_count(self) -> int:
        if self.degree == 1:
            return 1
        p = _to_sympy_poly(list(self.minpoly), _T)
        return int(p.count_roots())

    def gamma_box(self) -> CI:
        a, b, c, d = self._rect
        return CI(RI(a, b), RI(c, d))

    @cached_property
    def _domain(self):
        """sympy's QQ, or its algebraic field QQ<gamma> generated by the
        chosen root: the domain the elements of this field live in."""
        if self.degree == 1:
            return sympy.QQ
        K = sympy.QQ.algebraic_field(self.root)
        # sympy keeps the modulus primitive over Z rather than monic
        if tuple(umonic([qq_to_fraction(c) for c in reversed(K.mod.to_list())])) \
                != self.minpoly:
            raise ExtensionFailure("sympy's field is not generated by the chosen root")
        return K

    # -- elements --------------------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        """The element sum coeffs[i] gamma^i, or a rational scalar; a list
        longer than the degree is reduced modulo the minimal polynomial."""
        if isinstance(coeffs, (int, Fraction)):
            coeffs = [coeffs]
        rep = dup_strip([fraction_to_qq(Fraction(c)) for c in reversed(coeffs)])
        if len(rep) > self.degree:
            rep = dup_rem(rep, self._modulus, sympy.QQ)
        if self.degree == 1:
            return FieldElement(self, rep[0] if rep else sympy.QQ.zero)
        return FieldElement(self, self._domain.new(rep))

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def generator(self) -> "FieldElement":
        return self.element([0, 1])

    def __eq__(self, other):
        return (isinstance(other, NumberField)
                and self.minpoly == other.minpoly
                and self.root_index == other.root_index)

    def __hash__(self):
        return hash((self.minpoly, self.root_index))

    def __repr__(self):
        if self.degree == 1:
            return "QQ"
        return f"NumberField(deg={self.degree}, root={self.root_index})"


QQ = NumberField([Fraction(0), Fraction(1)])  # Q itself, gamma = 0


class FieldElement:
    """An element of a number field, held as ``value``, an element of the
    field's sympy domain; ``+ - * /``, equality and truth are sympy's."""

    __slots__ = ("field", "value")

    def __init__(self, field: NumberField, value):
        self.field = field
        self.value = value

    @property
    def rep(self) -> tuple[Fraction, ...]:
        """The coefficients of the element in 1, gamma, ..., gamma^(degree-1)."""
        g = self.field.degree
        coeffs = [self.value] if g == 1 else self.value.to_list()[::-1]
        return tuple(map(qq_to_fraction, coeffs)) + (Fraction(0),) * (g - len(coeffs))

    def _coerce(self, other):
        """other as an element of this field's sympy domain."""
        if isinstance(other, FieldElement):
            if other.field == self.field:
                return other.value
            if other.field.degree == 1:
                return self.field.element(other.rep[0]).value
            if self.field.degree == 1:
                return NotImplemented
            raise DomainError("elements of different fields")
        if isinstance(other, (int, Fraction)):
            return self.field.element(other).value
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.value + o)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, -self.value)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.value - o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, o - self.value)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.value * o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not o:
            raise DomainError("division by zero field element")
        return FieldElement(self.field, self.value / o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, o) / self

    def inverse(self) -> "FieldElement":
        return self.field.one() / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.value == o

    def __hash__(self):
        return hash((self.field, self.rep))

    def __bool__(self):
        return bool(self.value)

    def is_rational(self) -> bool:
        return self.field.degree == 1 or self.value.is_ground

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise DomainError("element is not rational")
        return self.rep[0]

    def box(self) -> CI:
        return _eval_box(self.rep, self.field.gamma_box())

    def lift(self) -> list[Fraction]:
        """Representative polynomial coefficients in Q[t]."""
        return utrim(list(self.rep))

    def __repr__(self):
        return f"FieldElement({list(self.rep)})"


# -- certified-value identification ---------------------------------------------


def value_minpoly(a: FieldElement) -> list[Fraction]:
    """Minimal polynomial over Q of the embedded value of a.

    The characteristic polynomial, the norm of z - a, is a power of the
    minimal polynomial; the radical is extracted by factoring.
    """
    if a.is_rational():
        return [-a.rep[0], Fraction(1)]
    norm = _from_poly(QQ, _poly(a.field, [-a, a.field.one()]).norm())
    factors = [[c.as_fraction() for c in f] for f, _ in factor_over_field(QQ, norm)]
    if len(factors) == 1:
        return factors[0]

    # identify the factor vanishing at the embedded value by exclusion
    def vanishing():
        box = a.box()
        alive = []
        for f in factors:
            val = _eval_box(f, box)
            if not (val.re.excludes_zero() or val.im.excludes_zero()):
                alive.append(f)
        return alive[0] if len(alive) == 1 else None

    return _refine_until(vanishing, [a.field], "isolate the minimal polynomial factor")


def identify_root(a: FieldElement) -> tuple[list[Fraction], int]:
    """Locate the embedded value of a as a specific root of its minimal
    polynomial: returns (minpoly, root index).  Decided by shrinking the
    value box until it meets exactly one isolating rectangle."""
    h = value_minpoly(a)
    if udeg(h) == 1:
        return h, 0
    roots = [NumberField(h, root_index=i) for i in range(udeg(h))]

    def meeting():
        box = a.box()
        alive = [i for i, r in enumerate(roots) if _meets(box, r._rect)]
        return alive[0] if len(alive) == 1 else None

    return h, _refine_until(meeting, [a.field, *roots], "identify the embedded root")


def is_real_certified(a: FieldElement) -> bool:
    """Exact realness of the embedded value of a."""
    if a.field.is_real or a.is_rational():
        return True
    if a.box().im.excludes_zero():
        return False
    h, idx = identify_root(a)
    if udeg(h) == 1:
        return True
    return bool(CRootOf(_to_sympy_poly(h, _T).as_expr(), idx).is_real)


# -- polynomials over a field -------------------------------------------------------


def _poly(field: NumberField, f: list[FieldElement]) -> Poly:
    """f, a dense coefficient list over the field, as a sympy Poly over
    the field's sympy domain."""
    return Poly.from_list([c.value for c in reversed(f)], _Z, domain=field._domain)


def _from_poly(field: NumberField, p: Poly) -> list[FieldElement]:
    return [FieldElement(field, c) for c in reversed(p.rep.to_list())]


def factor_over_field(field: NumberField, f: list[FieldElement]) \
        -> list[tuple[list[FieldElement], int]]:
    """Monic irreducible factors of f over the field, with multiplicities,
    in the order of sympy's ``factor_list``."""
    _, factors = _poly(field, f).factor_list()
    return [(_from_poly(field, g.monic()), int(mult)) for g, mult in factors]


@dataclass
class Extension:
    field: NumberField
    embed: callable            # old FieldElement -> new FieldElement
    new_root: FieldElement     # the chosen root of the defining polynomial


def extend_field(field: NumberField, h: list[FieldElement]) -> Extension:
    """Extend the field by one root of an irreducible polynomial h.

    Over Q the root index of the new minimal polynomial is chosen
    canonically (last in sympy's root ordering, preferring the upper half
    plane).  Over a proper extension, Trager's squarefree norm is the new
    minimal polynomial; the old generator is recovered inside the new
    field as the unique common root of its minimal polynomial and the
    shifted defining polynomial, certified by rectangle refinement.
    """
    h = umonic(h)
    if udeg(h) == 1:
        root = -h[0]
        return Extension(field, lambda a: a, root if isinstance(root, FieldElement)
                         else field.element(root))
    if field.degree == 1:
        dense = [c.as_fraction() for c in h]
        L = NumberField(dense, root_index=udeg(h) - 1)
        return Extension(L, lambda a, L=L: L.element(a.as_fraction()),
                         L.generator())

    # the norm of h(z - s*gamma), squarefree for the first s = 0, 1, 2, ...
    s, _, norm = dup_sqf_norm(_poly(field, h).rep.to_list(), field._domain)
    norm = [qq_to_fraction(c) for c in reversed(norm)]
    candidates = list(range(udeg(norm)))
    chosen = None
    gamma_rep = None
    for idx in reversed(candidates):
        L = NumberField(norm, root_index=idx)
        found = _gamma_inside(L, field, h, s)
        if found is not None:
            chosen, gamma_rep = L, found
            break
    if chosen is None:
        raise ExtensionFailure("no compatible root of the norm polynomial")
    L = chosen

    def embed(a: FieldElement, L=L, gamma_rep=gamma_rep) -> FieldElement:
        acc = L.zero()
        for c in reversed(a.lift() or [Fraction(0)]):
            acc = acc * gamma_rep + L.element(c)
        return acc

    # beta = delta - s*gamma
    beta = L.generator() - L.element(s) * gamma_rep
    return Extension(L, embed, beta)


def _gamma_inside(L: NumberField, K: NumberField, h: list[FieldElement],
                  s: int) -> FieldElement | None:
    """Inside L = Q(delta), find gamma as the unique common root of
    m_K(t) and h~(t, delta - s t); return None if delta is incompatible
    with K's chosen embedding."""
    # Horner in z: h = sum c_i z^i with c_i in K, each lifted to Q[t] -> L[t],
    # and z = delta - s*t, the polynomial in t with coefficients [delta, -s]
    lin = [L.generator(), L.element(-s)]
    acc = []
    for c in reversed(h):
        acc = uadd(umul(acc, lin), [L.element(q) for q in c.lift() or [Fraction(0)]])
    g = _poly(L, acc).gcd(_poly(L, [L.element(q) for q in K.minpoly]))
    if g.degree() != 1:
        return None
    gamma_cand = -_from_poly(L, g.monic())[0]
    # both boxes contain roots of m_K; disjointness from all other roots of
    # m_K certifies equality
    others = [NumberField(K.minpoly, root_index=i)._rect
              for i in range(K.degree) if i != K.root_index]

    def lands_on_gamma():
        box = gamma_cand.box()
        if not _meets(box, K._rect):
            return False
        if not any(_meets(box, rect) for rect in others):
            return True
        return None

    if _refine_until(lands_on_gamma, [L, K], "certify the embedded generator"):
        return gamma_cand
    return None
