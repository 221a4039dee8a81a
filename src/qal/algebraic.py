"""Number fields with certified complex embeddings.

A field is Q[t]/(m(t)) for a monic irreducible m over Q together with a
chosen root of m, sympy's ``CRootOf`` by index, tracked by an exact
isolating rectangle with rational corners (rectangles only ever shrink).
An element is held as an element of sympy's algebraic field QQ<gamma>,
built lazily from the pair (m, chosen root), so that sympy takes m as its
modulus as given (a QQ rational when the field has degree 1); all field
arithmetic is sympy's exact arithmetic mod m, and the dense Fraction
coefficient tuple ``rep`` is read off that representation.  Enclosing
boxes for embedded values come from plain interval Horner evaluation over
the rectangle, so they are exact outward enclosures with no rounding step
anywhere.

Every decision that compares such boxes with root rectangles (which root
of its minimal polynomial an element is, whether a candidate generator
lands on the chosen root) runs in one capped loop, ``_refine_until``: it
halves the rectangles of the fields involved while the test is undecided
and raises ExtensionFailure after ``_REFINE_CAP`` rounds.

Realness is exact and has one source: the number of distinct real roots
of a polynomial over Q, counted by the integer subresultant chain of
``qal.chain`` on its multiple by the positive lcm of its denominators.
An irreducible m is squarefree, so this count is the number of real
embeddings, and as sympy's root order lists the real roots first, the
root of index i is real iff i is below it.  A box whose imaginary part
excludes 0 proves a non-real value; otherwise the value is identified as
a root of its minimal polynomial and the index decides.

Polynomial algorithms over a field (factorization, norms over Q, gcds,
monic normalization, the Horner substitutions of an extension) run on
sympy ``Poly`` in the same algebraic field; its generator is gamma, so an
element's coefficient tuple is its sympy representation reversed.  Factorization
over an extension is sympy's implementation of Trager's norm method.  An
extension by a root of an irreducible h takes the squarefree norm of h
(sympy's ``sqf_norm``), itself irreducible, as the minimal polynomial of a
primitive element delta of the extended field, and finds the old
generator as a polynomial in delta with one gcd over Q(delta).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

import sympy
from sympy import CRootOf, Poly, Symbol
from sympy.polys.densearith import dup_rem
from sympy.polys.densebasic import dup_strip
from sympy.polys.sqfreetools import dup_sqf_norm

from .chain import _fibre_counts
from .errors import DomainError, ExtensionFailure
from .intervals import CI, RI
from .rationals import _instance, _order, _rational, _rationals

_T = Symbol("_qal_t")
_Z = Symbol("_qal_z")

_REFINE_CAP = 80  # rectangle halvings before giving up a certification


def _fraction_to_qq(c: Fraction):
    """A Fraction as an element of sympy's QQ domain."""
    return sympy.QQ(c.numerator, c.denominator)


def _qq_to_fraction(q) -> Fraction:
    """A sympy rational (a QQ domain element or a Rational) as a Fraction."""
    return Fraction(int(q.numerator), int(q.denominator))


def _real_root_count(m) -> int:
    """The number of distinct real roots of m, a sequence of Fractions,
    lowest degree first, with a positive leading coefficient: the integer
    chain of ``qal.chain`` on m times the positive lcm of its
    denominators, which has the same roots."""
    L = lcm(*(c.denominator for c in m))
    return _fibre_counts([c.numerator * (L // c.denominator) for c in m])[1]


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


def _over(field, f, what: str) -> list[FieldElement]:
    """f, a polynomial over the field as a list of its elements, lowest
    degree first; DomainError otherwise."""
    _instance(field, NumberField, "the field")
    for c in _instance(f, (list, tuple), what):
        if not (isinstance(c, FieldElement) and c.field == field):
            raise DomainError(f"{what} must have coefficients in {field!r}, got {c!r}")
    return list(f)


class NumberField:
    """Q(gamma) for a chosen root gamma of a monic irreducible m over Q."""

    def __init__(self, minpoly: list[Fraction], root_index: int | None = None):
        m = Poly.from_list([_fraction_to_qq(c) for c in
                            reversed(_rationals(minpoly, "the minimal polynomial"))],
                           _T, domain=sympy.QQ).monic()
        if m.degree() < 1:
            raise DomainError("minimal polynomial must have positive degree")
        self.degree = m.degree()
        self._m = m
        self.minpoly = tuple(map(_qq_to_fraction, reversed(m.rep.to_list())))
        # m is irreducible, so squarefree: its distinct real roots are the
        # real embeddings
        self._real_count = _real_root_count(self.minpoly)
        if self.degree == 1:
            # the rationals; gamma = -c0 is rational, the one root of m
            if root_index is not None:
                _order(root_index, "the root index", 0, 0)
            self.root = None
            self.root_index = None
            gamma = -self.minpoly[0]
            self._rect = (gamma, gamma, Fraction(0), Fraction(0))
        else:
            _order(root_index, "the root index", 0, self.degree - 1)
            if not m.is_irreducible:
                raise DomainError("minimal polynomial is reducible over Q")
            self.root_index = root_index
            self.root = CRootOf(m.as_expr(), root_index)
            # CRootOf may return c * CRootOf(m(c t) / c^degree, i) with an
            # integer c > 0; the rectangle of gamma is c times that root's
            scale, root = self.root.as_coeff_Mul()
            self._scale = _qq_to_fraction(scale)
            self._interval = root._get_interval()
            self._rect = self._rect_from_interval()

    def _rect_from_interval(self):
        iv, c = self._interval, self._scale
        if self.is_real:
            return (c * _qq_to_fraction(iv.a), c * _qq_to_fraction(iv.b),
                    Fraction(0), Fraction(0))
        return (c * _qq_to_fraction(iv.ax), c * _qq_to_fraction(iv.bx),
                c * _qq_to_fraction(iv.ay), c * _qq_to_fraction(iv.by))

    def refine(self):
        if self.root is not None:
            self._interval = self._interval.refine()
            self._rect = self._rect_from_interval()

    @property
    def is_real(self) -> bool:
        # sympy's CRootOf lists the real roots of m first
        return self.root is None or self.root_index < self._real_count

    def real_embedding_count(self) -> int:
        return self._real_count

    def gamma_box(self) -> CI:
        a, b, c, d = self._rect
        return CI(RI(a, b), RI(c, d))

    @cached_property
    def _domain(self):
        """sympy's QQ, or its algebraic field QQ<gamma>: the domain the
        elements of this field live in.  It is given as the pair of the
        monic minimal polynomial and the chosen root, so sympy takes m as
        the modulus and computes no minimal polynomial or primitive
        element of its own."""
        if self.degree == 1:
            return sympy.QQ
        return sympy.QQ.algebraic_field((self._m, self.root))

    # -- elements --------------------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        """The element sum coeffs[i] gamma^i, or a rational scalar; a list
        longer than the degree is reduced modulo the minimal polynomial."""
        if isinstance(coeffs, (int, Fraction)):
            coeffs = [coeffs]
        rep = dup_strip([_fraction_to_qq(c)
                         for c in reversed(_rationals(coeffs, "the coefficients"))])
        if len(rep) > self.degree:
            rep = dup_rem(rep, self._m.rep.to_list(), sympy.QQ)
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
        coeffs = self.lift()
        return tuple(coeffs) + (Fraction(0),) * (self.field.degree - len(coeffs))

    def _coerce(self, other):
        """other as an element of this field's sympy domain: an element of
        this field or of Q, or exact data (an int that is not a bool, or a
        Fraction); NotImplemented for an element of a larger field when
        this one is Q, so that the larger field's reflected operation runs;
        DomainError otherwise."""
        if isinstance(other, FieldElement):
            if other.field == self.field:
                return other.value
            if other.field.degree == 1:
                return self.field.element(other.rep[0]).value
            if self.field.degree == 1:
                return NotImplemented
            raise DomainError("elements of different fields")
        return self.field.element(_rational(other, "a field operand")).value

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
        if isinstance(other, bool) or not isinstance(other, (FieldElement, int, Fraction)):
            return NotImplemented
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.value == o

    def __hash__(self):
        # equal values hash equal: a rational one equals its Fraction, in
        # any field, so it hashes as that Fraction
        if self.is_rational():
            return hash(self.rep[0])
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
        """Representative polynomial coefficients in Q[t], lowest degree
        first, without zero leading coefficients."""
        if self.field.degree == 1:
            return [_qq_to_fraction(self.value)] if self.value else []
        return list(map(_qq_to_fraction, reversed(self.value.to_list())))

    def __repr__(self):
        return f"FieldElement({list(self.rep)})"


# -- certified-value identification ---------------------------------------------


def value_minpoly(a: FieldElement) -> list[Fraction]:
    """Minimal polynomial over Q of the embedded value of a.

    The norm of z - a is the characteristic polynomial of multiplication
    by a, a power of the minimal polynomial (Cohen, *A Course in
    Computational Algebraic Number Theory*, ch. 4); its monic squarefree
    part (sympy's ``sqf_part``, monic over QQ) is the minimal polynomial
    itself.
    """
    if _instance(a, FieldElement, "a").is_rational():
        return [-a.rep[0], Fraction(1)]
    norm = _poly(a.field, [-a, a.field.one()]).norm().sqf_part()
    return [_qq_to_fraction(c) for c in reversed(norm.rep.to_list())]


def identify_root(a: FieldElement) -> tuple[list[Fraction], int]:
    """Locate the embedded value of a as a specific root of its minimal
    polynomial: returns (minpoly, root index).  Decided by shrinking the
    value box until it meets exactly one isolating rectangle."""
    h = value_minpoly(a)
    if len(h) == 2:
        return h, 0
    roots = [NumberField(h, root_index=i) for i in range(len(h) - 1)]

    def meeting():
        box = a.box()
        alive = [i for i, r in enumerate(roots) if _meets(box, r._rect)]
        return alive[0] if len(alive) == 1 else None

    return h, _refine_until(meeting, [a.field, *roots], "identify the embedded root")


def is_real_certified(a: FieldElement) -> bool:
    """Exact realness of the embedded value of a."""
    if _instance(a, FieldElement, "a").field.is_real or a.is_rational():
        return True
    if a.box().im.excludes_zero():
        return False
    h, idx = identify_root(a)
    # sympy's root order, which the index follows, lists the real roots first
    return idx < _real_root_count(h)


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
    _, factors = _poly(field, _over(field, f, "f")).factor_list()
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
    plane).  Over a proper extension K = Q(gamma), Trager's squarefree norm
    of h(z - s*gamma) is the minimal polynomial of the new generator
    delta = beta + s*gamma, beta a root of h.  Then gamma is the one common
    root of m_K(t) and h(delta - s*t), so one gcd over Q(delta) =
    Q[t]/(norm) gives it as a polynomial in delta, the same for every root
    delta of the norm.  The roots are tried from the last, and the first
    whose value of that polynomial lands on K's chosen root, certified by
    rectangle refinement, is the new field's.
    """
    p = _poly(field, _over(field, h, "h")).monic()
    if p.degree() < 1:
        raise DomainError("extend_field needs a polynomial of positive degree")
    h = _from_poly(field, p)
    if len(h) == 2:
        return Extension(field, lambda a: a, -h[0])
    if field.degree == 1:
        dense = [c.as_fraction() for c in h]
        L = NumberField(dense, root_index=len(h) - 2)
        return Extension(L, lambda a, L=L: L.element(a.as_fraction()),
                         L.generator())

    # the norm of h(z - s*gamma), squarefree for the first s = 0, 1, 2, ...
    s, _, norm = dup_sqf_norm(p.rep.to_list(), field._domain)
    norm = [_qq_to_fraction(c) for c in reversed(norm)]
    L = NumberField(norm, root_index=len(norm) - 2)
    # Horner in z: h = sum c_i z^i with c_i in K, each lifted to Q[t] -> L[t],
    # and z = delta - s*t, the polynomial in t with coefficients [delta, -s]
    lin = _poly(L, [L.generator(), L.element(-s)])
    acc = _poly(L, [])
    for c in reversed(h):
        acc = acc * lin + _poly(L, [L.element(q) for q in c.lift()])
    g = acc.gcd(_poly(L, [L.element(q) for q in field.minpoly]))
    if g.degree() != 1:
        raise ExtensionFailure("the norm's generator does not determine the old one")
    gamma_rep = (-_from_poly(L, g.monic())[0]).lift()
    # gamma's box and K's rectangle both contain roots of m_K; disjointness
    # from the rectangles of all other roots of m_K certifies equality
    others = [NumberField(field.minpoly, root_index=i)._rect
              for i in range(field.degree) if i != field.root_index]

    def lands_on_gamma():
        box = gamma.box()
        if not _meets(box, field._rect):
            return False
        if not any(_meets(box, rect) for rect in others):
            return True
        return None

    while True:
        gamma = L.element(gamma_rep)
        if _refine_until(lands_on_gamma, [L, field], "certify the embedded generator"):
            break
        if L.root_index == 0:
            raise ExtensionFailure("no compatible root of the norm polynomial")
        L = NumberField(norm, root_index=L.root_index - 1)

    def embed(a: FieldElement, L=L, gamma=gamma) -> FieldElement:
        acc = L.zero()
        for c in reversed(a.lift()):
            acc = acc * gamma + L.element(c)
        return acc

    # beta = delta - s*gamma
    return Extension(L, embed, L.generator() - L.element(s) * gamma)
