from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qal.algebraic import (QQ, NumberField, extend_field, factor_over_field,
                           is_real_certified)
from qal.errors import DomainError, ExtensionFailure

Z = sympy.Symbol("z")
QI = NumberField([1, 0, 1], root_index=1)          # Q(i), generator +i
QSQRT2 = NumberField([-2, 0, 1], root_index=1)     # Q(sqrt 2), generator +sqrt 2
GAUSS = sympy.QQ.algebraic_field(sympy.I)


def _domain(field):
    return sympy.QQ if field is QQ else GAUSS


def _dense(field, expr):
    """Coefficients of expr (a polynomial in z over Q or Q(i)) as field
    elements, lowest degree first."""
    out = []
    for c in reversed(sympy.Poly(expr, Z, domain=_domain(field)).all_coeffs()):
        re, im = c.as_real_imag()
        out.append(field.element([Fraction(int(re.p), int(re.q)),
                                  Fraction(int(im.p), int(im.q))]))
    return out


def _expr(field, dense):
    gen = sympy.I if field is QI else 0
    return sum(sympy.Rational(q.numerator, q.denominator) * gen**j * Z**i
               for i, c in enumerate(dense) for j, q in enumerate(c.rep))


def _monic(field, expr):
    return sympy.expand(sympy.Poly(expr, Z, domain=_domain(field)).monic().as_expr())


def _assert_factors_match_sympy(field, expr):
    ours = Counter([(_monic(field, _expr(field, f)), mult)
                    for f, mult in factor_over_field(field, _dense(field, expr))])
    ext = {} if field is QQ else {"extension": sympy.I}
    _, factors = sympy.factor_list(expr, Z, **ext)
    theirs = Counter([(_monic(field, f), mult) for f, mult in factors])
    assert ours == theirs


FIXED = [
    (Z**2 + 1)**2 * (Z - 3) * (Z**2 - 2)**3,
    (Z**4 + 4) * (Z + sympy.Rational(1, 2))**2,
    (Z**3 - 2) * (Z**2 + Z + 1)**2,
    Z**6 - 1,
]


@pytest.mark.parametrize("field", [QQ, QI], ids=["QQ", "QI"])
@pytest.mark.parametrize("expr", FIXED, ids=str)
def test_factor_over_field_matches_sympy(field, expr):
    _assert_factors_match_sympy(field, expr)


def test_gaussian_linear_factors():
    expr = sympy.expand((Z - sympy.I)**2 * (Z - 1 - 2 * sympy.I) * (Z**2 + 2))
    _assert_factors_match_sympy(QI, expr)


_FACTOR = st.one_of(
    st.builds(lambda a: Z - a, st.integers(-3, 3)),
    st.builds(lambda c: Z**2 + c, st.integers(-3, 3).filter(bool)),
    st.builds(lambda a, b: Z - a - b * sympy.I,
              st.integers(-2, 2), st.integers(-2, 2)))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(_FACTOR, st.integers(1, 3)), min_size=1, max_size=3))
def test_factor_over_gaussian_field_matches_sympy(parts):
    expr = sympy.expand(sympy.Mul(*(f**k for f, k in parts)))
    _assert_factors_match_sympy(QI, expr)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(_FACTOR, st.integers(1, 3)), min_size=1, max_size=3))
def test_factor_over_rationals_matches_sympy(parts):
    expr = sympy.expand(sympy.Mul(*(f**k for f, k in parts)).subs(sympy.I, 0))
    _assert_factors_match_sympy(QQ, expr)


def _evaluate(dense, value, field):
    acc = field.zero()
    for c in reversed(dense):
        acc = acc * value + c
    return acc


EXTENSIONS = [
    (QSQRT2, [-3, 0, 1]),                     # sqrt 2, then sqrt 3
    (QI, [-2, 0, 1]),                         # i, then sqrt 2
    (QI, [[0, -1], 0, 1]),                    # i, then a square root of i
    (NumberField([-2, 0, 0, 1], root_index=0), [1, 1, 1]),   # 2^(1/3), then omega
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
def test_realness_in_the_quartic_field(c):
    # with gamma = i 2^(1/4): gamma^2 = -sqrt 2 is real, gamma and
    # gamma^3 = -i 2^(3/4) are purely imaginary, and 2^(1/4), 2^(3/4) are
    # independent over Q, so the value is real iff c1 = c3 = 0; a real
    # value never gets a box clear of the real axis, so it is decided by
    # identifying its root exactly
    assert is_real_certified(QUARTIC.element(c)) == (c[1] == 0 and c[3] == 0)


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
    lambda: QI.generator() + QSQRT2.generator(),
    lambda: QI.zero().inverse(),
    lambda: QI.generator().as_fraction(),
], ids=["constant-minpoly", "no-root-index", "different-fields",
        "inverse-of-zero", "irrational-as-fraction"])
def test_domain_errors(call):
    with pytest.raises(DomainError) as info:
        call()
    assert info.value.code == "domain-error"
