from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from qal.algebraic import (QQ, NumberField, extend_field, factor_over_field,
                           is_real_certified)
from qal.errors import DomainError, ExtensionFailure

Z = sympy.Symbol("z")
QI = NumberField([1, 0, 1], root_index=1)          # Q(i), generator +i
QSQRT2 = NumberField([-2, 0, 1], root_index=1)     # Q(sqrt 2), generator +sqrt 2
QCBRT2 = NumberField([-2, 0, 0, 1], root_index=0)  # Q(2^(1/3)), the real root
CBRT2 = sympy.root(2, 3)

# each field with the sympy number that its generator stands for
# (None for Q)
FIELDS = [(QQ, None), (QI, sympy.I), (QSQRT2, sympy.sqrt(2)), (QCBRT2, CBRT2)]


def _domain(gen):
    return sympy.QQ if gen is None else sympy.QQ.algebraic_field(gen)


def _dense(field, gen, expr):
    """Coefficients of expr (a polynomial in z over Q(gen)) as field
    elements, lowest degree first: sympy represents a coefficient as a
    polynomial in gen, highest power first."""
    out = []
    for c in reversed(sympy.Poly(expr, Z, domain=_domain(gen)).rep.to_list()):
        in_gen = [c] if gen is None else c.to_list()
        out.append(field.element([Fraction(int(q.numerator), int(q.denominator))
                                  for q in reversed(in_gen)]))
    return out


def _expr(gen, dense):
    gen = 0 if gen is None else gen
    return sum(sympy.Rational(q.numerator, q.denominator) * gen**j * Z**i
               for i, c in enumerate(dense) for j, q in enumerate(c.rep))


def _monic(gen, expr):
    return sympy.expand(sympy.Poly(expr, Z, domain=_domain(gen)).monic().as_expr())


def _assert_factors_match_sympy(field, gen, expr):
    ours = Counter([(_monic(gen, _expr(gen, f)), mult)
                    for f, mult in factor_over_field(field, _dense(field, gen, expr))])
    ext = {} if gen is None else {"extension": gen}
    _, factors = sympy.factor_list(expr, Z, **ext)
    theirs = Counter([(_monic(gen, f), mult) for f, mult in factors])
    assert ours == theirs


FIXED = [
    (Z**2 + 1)**2 * (Z - 3) * (Z**2 - 2)**3,
    (Z**4 + 4) * (Z + sympy.Rational(1, 2))**2,
    (Z**3 - 2) * (Z**2 + Z + 1)**2,
    Z**6 - 1,
]


@pytest.mark.parametrize("field, gen", FIELDS, ids=["QQ", "QI", "QSQRT2", "QCBRT2"])
@pytest.mark.parametrize("expr", FIXED, ids=str)
def test_factor_over_field_matches_sympy(field, gen, expr):
    _assert_factors_match_sympy(field, gen, expr)


def test_gaussian_linear_factors():
    expr = sympy.expand((Z - sympy.I)**2 * (Z - 1 - 2 * sympy.I) * (Z**2 + 2))
    _assert_factors_match_sympy(QI, sympy.I, expr)


@pytest.mark.parametrize("field, gen, expr", [
    # z^4 - 2 = (z^2 - sqrt 2)(z^2 + sqrt 2), both irreducible over Q(sqrt 2)
    (QSQRT2, sympy.sqrt(2), (Z**4 - 2) * (Z - sympy.sqrt(2))**2 * (Z**2 - 3)),
    (QSQRT2, sympy.sqrt(2), (Z**2 - 2 * sympy.sqrt(2) * Z + 2)**2 * (Z**2 + 1)),
    # z^3 - 2 = (z - c)(z^2 + c z + c^2) over Q(c), c = 2^(1/3)
    (QCBRT2, CBRT2, (Z**3 - 2)**2 * (Z**3 + 2) * (Z - CBRT2**2)),
    (QCBRT2, CBRT2, (Z**6 - 4) * (Z**2 - CBRT2)),
], ids=["sqrt2-quartic", "sqrt2-square", "cbrt2-cubics", "cbrt2-sextic"])
def test_factor_over_real_radical_fields_matches_sympy(field, gen, expr):
    _assert_factors_match_sympy(field, gen, sympy.expand(expr))


_FACTOR = st.one_of(
    st.builds(lambda a: Z - a, st.integers(-3, 3)),
    st.builds(lambda c: Z**2 + c, st.integers(-3, 3).filter(bool)),
    st.builds(lambda a, b: Z - a - b * sympy.I,
              st.integers(-2, 2), st.integers(-2, 2)))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(_FACTOR, st.integers(1, 3)), min_size=1, max_size=3))
def test_factor_over_gaussian_field_matches_sympy(parts):
    expr = sympy.expand(sympy.Mul(*(f**k for f, k in parts)))
    _assert_factors_match_sympy(QI, sympy.I, expr)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(_FACTOR, st.integers(1, 3)), min_size=1, max_size=3))
def test_factor_over_rationals_matches_sympy(parts):
    expr = sympy.expand(sympy.Mul(*(f**k for f, k in parts)).subs(sympy.I, 0))
    _assert_factors_match_sympy(QQ, None, expr)


def _evaluate(dense, value, field):
    acc = field.zero()
    for c in reversed(dense):
        acc = acc * value + c
    return acc


EXTENSIONS = [
    (QSQRT2, [-3, 0, 1]),                     # sqrt 2, then sqrt 3
    (QI, [-2, 0, 1]),                         # i, then sqrt 2
    (QI, [[0, -1], 0, 1]),                    # i, then a square root of i
    (QCBRT2, [1, 1, 1]),                      # 2^(1/3), then omega
]


@pytest.mark.parametrize("K, h", EXTENSIONS, ids=["sqrt2-sqrt3", "i-sqrt2",
                                                  "i-sqrt_i", "cbrt2-omega"])
def test_extend_field_keeps_the_old_generator(K, h):
    h = [K.element(c) for c in h]
    ext = extend_field(K, h)
    L = ext.field
    gamma = ext.embed(K.generator())
    # the embedded generator is still a root of its minimal polynomial,
    # and the new root is a root of h pushed into L
    assert not _evaluate([L.element(c) for c in K.minpoly], gamma, L)
    assert not _evaluate([ext.embed(c) for c in h], ext.new_root, L)
    assert L.degree == K.degree * (len(h) - 1)
    # and its box meets the rectangle of K's chosen root
    box, kbox = gamma.box(), K.gamma_box()
    assert box.re.lo <= kbox.re.hi and kbox.re.lo <= box.re.hi
    assert box.im.lo <= kbox.im.hi and kbox.im.lo <= box.im.hi
    # embed is a ring homomorphism
    a = K.element([1, Fraction(2, 3)] + [0] * (K.degree - 2))
    b = K.element([Fraction(-1, 2)] + [1] * (K.degree - 1))
    assert ext.embed(a * b) == ext.embed(a) * ext.embed(b)
    assert ext.embed(a + b) == ext.embed(a) + ext.embed(b)


# the minimal polynomial, root index and embedded old generator of each
# extension in EXTENSIONS, frozen from the earlier hand-written
# shift-and-norm code; they pin the convention of sqf_norm (the norm of
# h(z - s*gamma) for the first s = 0, 1, 2, ... that makes it squarefree)
# and the choice of the last compatible root
EXTENSION_GOLDENS = [
    ([1, 0, -10, 0, 1], 3, [0, Fraction(-9, 2), 0, Fraction(1, 2)]),
    ([9, 0, -2, 0, 1], 3, [0, Fraction(1, 6), 0, Fraction(1, 6)]),
    ([1, 0, 0, 0, 1], 3, [0, 0, 1, 0]),
    ([9, 9, 0, 3, 6, 3, 1], 5,
     [2, 1, Fraction(-2, 3), Fraction(2, 3), Fraction(1, 3), Fraction(2, 9)]),
]


@pytest.mark.parametrize("K, h, golden", [(K, h, g) for (K, h), g
                                          in zip(EXTENSIONS, EXTENSION_GOLDENS)],
                         ids=["sqrt2-sqrt3", "i-sqrt2", "i-sqrt_i", "cbrt2-omega"])
def test_extend_field_golden_values(K, h, golden):
    minpoly, root_index, gamma = golden
    ext = extend_field(K, [K.element(c) for c in h])
    assert ext.field.minpoly == tuple(Fraction(c) for c in minpoly)
    assert ext.field.root_index == root_index
    assert ext.embed(K.generator()).rep == tuple(Fraction(c) for c in gamma)


def test_embedded_i_stays_in_the_upper_half_plane():
    ext = extend_field(QI, [QI.element(-2), QI.zero(), QI.one()])
    gamma = ext.embed(QI.generator())
    for _ in range(40):
        if gamma.box().im.excludes_zero():
            break
        ext.field.refine()
    assert gamma.box().im.lo > 0


def test_realness_of_sqrt2_and_i():
    sqrt2, i = QSQRT2.generator(), QI.generator()
    assert is_real_certified(sqrt2)
    assert not is_real_certified(i)


def test_realness_inside_a_nonreal_field():
    # gamma = i 2^(1/4) is not real, gamma^2 = -sqrt 2 is
    K = NumberField([-2, 0, 0, 0, 1], root_index=3)
    gamma = K.generator()
    assert gamma.box().im.lo > 0
    assert not is_real_certified(gamma)
    assert is_real_certified(gamma * gamma)


QUARTIC = NumberField([-2, 0, 0, 0, 1], root_index=3)   # Q(i 2^(1/4))
_RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=30, deadline=None)
@given(st.lists(_RATIONAL, min_size=4, max_size=4))
@example([2, 0, 2, 0])    # 2 - 2 sqrt 2, a root of the scaled z^2 - 4z - 4
def test_realness_in_the_quartic_field(c):
    # with gamma = i 2^(1/4): gamma^2 = -sqrt 2 is real, gamma and
    # gamma^3 = -i 2^(3/4) are purely imaginary, and 2^(1/4), 2^(3/4) are
    # independent over Q, so the value is real iff c1 = c3 = 0; a real
    # value never gets a box clear of the real axis, so it is decided by
    # identifying its root exactly
    assert is_real_certified(QUARTIC.element(c)) == (c[1] == 0 and c[3] == 0)


def test_root_that_sympy_returns_scaled():
    # CRootOf(t^2 - 4t - 4, i) is 2 CRootOf(t^2 - 2t - 1, i), so the
    # rectangle of gamma = 2 -+ 2 sqrt 2 is twice that root's interval
    for index, sign in [(0, -1), (1, 1)]:
        K = NumberField([-4, -4, 1], root_index=index)
        assert K.is_real
        for _ in range(8):
            K.refine()
        box = K.gamma_box()
        lo, hi = box.re.lo - 2, box.re.hi - 2      # must enclose -+ 2 sqrt 2
        assert sign * lo > 0 and sign * hi > 0
        assert min(lo * lo, hi * hi) <= 8 <= max(lo * lo, hi * hi)
        gamma = K.generator()
        assert gamma * gamma == 4 * gamma + 4


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([QI, QSQRT2, QCBRT2, QUARTIC]),
       st.lists(_RATIONAL, min_size=4, max_size=4))
def test_inverse(field, c):
    a = field.element(c[:field.degree])
    if a:
        assert a * a.inverse() == field.one()
        assert a / a == 1


# fields of degree 2 to 6; NumberField checks that t^6 + t + 1 is irreducible
ARITHMETIC_FIELDS = [QSQRT2, QI, QCBRT2, NumberField([1, 0, 0, 0, 16], root_index=0),
                     QUARTIC, NumberField([1, 1, 0, 0, 0, 0, 1], root_index=2)]
_T = sympy.Symbol("t")


def _qq_poly(coeffs):
    """A Fraction coefficient list, lowest degree first, as a Poly over QQ."""
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)] or [0], _T, domain=sympy.QQ)


def _rep(poly, degree):
    """The coefficients of a Poly over QQ, lowest first, padded to degree."""
    coeffs = [Fraction(int(q.p), int(q.q)) for q in reversed(poly.all_coeffs())]
    return tuple(coeffs + [Fraction(0)] * (degree - len(coeffs)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ARITHMETIC_FIELDS),
       st.lists(_RATIONAL, min_size=6, max_size=6),
       st.lists(_RATIONAL, min_size=6, max_size=6), st.integers(0, 3))
def test_arithmetic_is_polynomial_arithmetic_mod_the_minimal_polynomial(field, c, d, pad):
    g = field.degree
    a, b = field.element(c[:g]), field.element(d[:g])
    m = _qq_poly(list(field.minpoly))
    pa, pb = _qq_poly(a.lift()), _qq_poly(b.lift())
    assert (a * b).rep == _rep((pa * pb).rem(m), g)
    assert (a + b).rep == _rep(pa + pb, g)
    assert (a - b).rep == _rep(pa - pb, g)
    for x in (a, b, a * b, a - a):
        assert len(x.rep) == g
    padded = field.element(c[:g] + [0] * pad)
    assert padded == a and hash(padded) == hash(a)
    assert (a == b) == (c[:g] == d[:g])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([QQ, *ARITHMETIC_FIELDS]),
       st.lists(_RATIONAL, min_size=1, max_size=14))
@example(QSQRT2, [0, 0, 1])   # gamma^2 = 2, not 0
def test_element_is_the_value_at_the_generator(field, p):
    # a list of any length stands for p(gamma), reduced mod the minimal polynomial
    value = _evaluate(p, field.generator(), field)
    x = field.element(p)
    assert x == value and hash(x) == hash(value)
    assert len(x.rep) == field.degree
    assert x.rep == _rep(_qq_poly(p).rem(_qq_poly(list(field.minpoly))), field.degree)


def test_refinement_is_capped(monkeypatch):
    # without refinement the box of gamma^2 = -sqrt 2 keeps meeting both
    # root rectangles of z^2 - 2, so the identification must give up at
    # the cap with a coded error
    gamma = NumberField([-2, 0, 0, 0, 1], root_index=3).generator()
    monkeypatch.setattr(NumberField, "refine", lambda self: None)
    with pytest.raises(ExtensionFailure) as info:
        is_real_certified(gamma * gamma)
    assert info.value.code == "extension-failure"


@pytest.mark.parametrize("call", [
    lambda: NumberField([3]),
    lambda: NumberField([-2, 0, 1]),
    lambda: NumberField([-2, 0, 1], root_index=5),
    lambda: NumberField([-2, 0, 1], root_index=-1),
    lambda: NumberField([-1, 0, 1], 0),
    lambda: NumberField([2, 0, 3, 0, 1], root_index=0),
    lambda: QI.generator() + QSQRT2.generator(),
    lambda: QI.zero().inverse(),
    lambda: QI.generator().as_fraction(),
], ids=["constant-minpoly", "no-root-index", "root-index-too-large",
        "negative-root-index", "rational-root", "reducible-minpoly",
        "different-fields", "inverse-of-zero", "irrational-as-fraction"])
def test_domain_errors(call):
    with pytest.raises(DomainError) as info:
        call()
    assert info.value.code == "domain-error"
