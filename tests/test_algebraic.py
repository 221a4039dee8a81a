from collections import Counter
from fractions import Fraction

import pytest
import sympy
from sympy import CRootOf
from hypothesis import assume, example, given, settings, strategies as st

from qal.algebraic import (QQ, FieldElement, NumberField, extend_field, factor_over_field,
                           identify_root, is_real_certified, value_minpoly)
from qal.errors import DomainError, ExtensionFailure, QalError

from malformed import NOT_DATA, NOT_INTEGERS, NOT_LISTS, with_one_bad

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


@pytest.mark.parametrize("K, h", EXTENSIONS, ids=["sqrt2-sqrt3", "i-sqrt2",
                                                  "i-sqrt_i", "cbrt2-omega"])
def test_extension_gamma_is_one_polynomial_at_every_root_of_the_norm(K, h):
    # the old generator, as a polynomial in delta, is a root of m_K for
    # every root delta of the norm; at the chosen one it is K's root
    ext = extend_field(K, [K.element(c) for c in h])
    gamma = ext.embed(K.generator()).lift()
    norm = list(ext.field.minpoly)
    for i in range(len(norm) - 1):
        L = NumberField(norm, root_index=i)
        value = L.element(gamma)
        assert not _evaluate([L.element(c) for c in K.minpoly], value, L)
        minpoly, index = identify_root(value)
        assert minpoly == list(K.minpoly)
        if i == ext.field.root_index:
            assert index == K.root_index


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


@st.composite
def _irreducible_minpolys(draw):
    """Monic polynomials over Q of degree 2 to 7, lowest degree first, that
    sympy finds irreducible."""
    degree = draw(st.integers(2, 7))
    m = draw(st.lists(_RATIONAL, min_size=degree, max_size=degree)) + [Fraction(1)]
    assume(_qq_poly(m).is_irreducible)
    return m


@settings(max_examples=40, deadline=None)
@given(_irreducible_minpolys())
def test_realness_is_the_chain_count_in_sympy_root_order(m):
    # the chain counts sympy's real roots, and CRootOf lists them first
    p = _qq_poly(m)
    for i in range(len(m) - 1):
        K = NumberField(m, root_index=i)
        assert K.is_real == CRootOf(p.as_expr(), i).is_real
        assert K.real_embedding_count() == p.count_roots()


def test_domain_takes_the_fields_own_modulus(monkeypatch):
    # sympy computes no primitive element or minimal polynomial: its
    # modulus is the field's monic one, also for a non-monic input and
    # for a root that CRootOf returns scaled
    def refuse(*args, **kwargs):
        raise AssertionError("sympy computed a primitive element")

    monkeypatch.setattr(sympy.polys.numberfields.subfield, "primitive_element", refuse)
    for minpoly, index in [([1, 0, 1], 1), ([-2, 0, 0, 1], 0), ([-2, 0, 0, 0, 1], 3),
                           ([-4, -4, 1], 0), ([1, 0, 3], 1), ([1, 1, 0, 0, 0, 0, 1], 2)]:
        K = NumberField(minpoly, index)
        assert K._domain.mod.to_list() == [sympy.QQ(c.numerator, c.denominator)
                                           for c in reversed(K.minpoly)]
        gamma = K.generator()
        assert not _evaluate([K.element(c) for c in minpoly], gamma, K)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([QI, QSQRT2, QCBRT2, QUARTIC]),
       st.lists(_RATIONAL, min_size=4, max_size=4))
def test_inverse(field, c):
    a = field.element(c[:field.degree])
    if a:
        assert a * a.inverse() == field.one()
        assert a / a == 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([QSQRT2, QI, QCBRT2, QUARTIC]),
       st.lists(_RATIONAL, min_size=4, max_size=4))
@example(QUARTIC, [0, 0, 1, 0])    # gamma^2 = -sqrt 2: the norm is (z^2 - 2)^2
def test_value_minpoly_is_the_one_factor_of_the_norm(field, c):
    a = field.element(c[:field.degree])
    h = value_minpoly(a)
    p = _qq_poly(h)
    assert h[-1] == 1 and p.is_irreducible
    assert not _evaluate([field.element(q) for q in h], a, field)
    assert field.degree % (len(h) - 1) == 0
    # the norm of z - a, the resultant over t of m(t) and z - a(t), is a
    # power of one irreducible polynomial, and that polynomial is h
    norm = sympy.resultant(_qq_poly(list(field.minpoly)).as_expr(),
                           Z - _qq_poly(a.lift()).as_expr(), _T)
    _, factors = sympy.factor_list(norm, Z)
    assert len(factors) == 1
    assert sympy.Poly(factors[0][0], Z).monic().as_expr() == p.as_expr().subs(_T, Z)


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
    lambda: NumberField("abc"),
    lambda: NumberField([1, 0, 1], True),
    lambda: NumberField([-1, 1], "x"),
    lambda: NumberField([-1, 1], 5),
    lambda: NumberField([-1, 1], True),
], ids=["constant-minpoly", "no-root-index", "root-index-too-large",
        "negative-root-index", "rational-root", "reducible-minpoly",
        "different-fields", "inverse-of-zero", "irrational-as-fraction",
        "text-minpoly", "bool-root-index", "text-root-index-of-degree-1",
        "root-index-5-of-degree-1", "bool-root-index-of-degree-1"])
def test_domain_errors(call):
    with pytest.raises(DomainError) as info:
        call()
    assert info.value.code == "domain-error"


@pytest.mark.parametrize("root_index", [None, 0])
def test_a_degree_one_field_takes_its_one_root(root_index):
    assert NumberField([0, 1], root_index) == QQ
    K = NumberField([-2, 4], root_index)     # 4t - 2, the root 1/2
    assert K.root_index is None and repr(K) == "QQ"
    assert K.generator() == Fraction(1, 2)


def test_equal_rational_values_hash_equal():
    one_in_q, one_in_linear = QQ.element(1), NumberField([-1, 1]).element(1)
    assert one_in_q == one_in_linear == 1
    assert len({one_in_q, one_in_linear, 1}) == 1
    # a rational element of a larger field too
    assert hash(QSQRT2.element([3, 0])) == hash(3)


@settings(max_examples=60, deadline=None)
@given(_RATIONAL, _RATIONAL.filter(bool), _RATIONAL.filter(bool), _RATIONAL)
def test_equal_elements_of_degree_one_fields_hash_equal(root, a, b, value):
    # Q as the fields a t - a r and b t - b r: other moduli, one root r
    K, L = NumberField([-a * root, a]), NumberField([-b * root, b])
    x, y = K.element(value), L.element(value)
    assert x == y and hash(x) == hash(y) == hash(value)


# -- error contract ------------------------------------------------------------

_ALL_FIELDS = [QQ, QI, QSQRT2, QCBRT2]


def _bad_coefficient_lists(good):
    """Not a list, or a list of good values with one drawn from NOT_DATA."""
    return st.one_of(NOT_LISTS, with_one_bad(good, NOT_DATA))


@st.composite
def _malformed_field_calls(draw):
    """One call of a public algebraic operation with one malformed argument,
    as (label, thunk): a wrong type, a bool, a root index of either sign up
    to 10^3 in magnitude and outside 0..degree-1 (for a field of degree 1
    too), an empty, zero or
    constant minimal polynomial, an element of another field, or a
    division by zero."""
    field = draw(st.sampled_from(_ALL_FIELDS))
    other = draw(st.sampled_from([f for f in _ALL_FIELDS if f.degree > 1 and f != field]))
    x = field.element(draw(st.lists(st.fractions(-3, 3), min_size=1, max_size=3)))
    poly = [field.element(c) for c in draw(st.lists(st.integers(-3, 3), min_size=2, max_size=3))]
    op = draw(st.sampled_from(["minpoly", "root index", "element", "arith", "rarith",
                               "divide by zero", "inverse", "as_fraction", "element fn",
                               "factor field", "factor poly", "extend field", "extend poly"]))
    if op == "minpoly":
        bad = draw(st.one_of(_bad_coefficient_lists(st.integers(-3, 3)),
                             st.lists(st.just(0), max_size=3),
                             st.lists(st.integers(-3, 3), min_size=1, max_size=1)))
        return f"NumberField({bad!r}, 0)", lambda: NumberField(bad, 0)
    if op == "root index":
        # None is the one root of a degree-1 field, and only of that
        minpoly = list(draw(st.sampled_from([NumberField([-1, 1]), QI, QSQRT2, QCBRT2])).minpoly)
        bad = draw(st.one_of(NOT_INTEGERS, st.integers(-10**3, -1),
                             st.integers(len(minpoly) - 1, 10**3)).filter(
            lambda v: v is not None or len(minpoly) > 2))
        return f"NumberField({minpoly!r}, {bad!r})", lambda: NumberField(minpoly, bad)
    if op == "element":
        bad = draw(_bad_coefficient_lists(st.fractions(-3, 3)).filter(
            lambda v: not isinstance(v, (int, Fraction)) or isinstance(v, bool)))
        return f"{field!r}.element({bad!r})", lambda: field.element(bad)
    if op in ("arith", "rarith"):
        bad = draw(st.one_of(NOT_DATA, st.just(other.generator())))
        sym = draw(st.sampled_from(["+", "-", "*", "/"]))
        fn = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
              "*": lambda a, b: a * b, "/": lambda a, b: a / b}[sym]
        if field.degree == 1 and isinstance(bad, FieldElement):
            # an element of Q meets one of a larger field: the larger field's
            # operation runs, with the element of Q as a scalar
            bad = draw(NOT_DATA)
        if op == "arith":
            return f"{x!r} {sym} {bad!r}", lambda: fn(x, bad)
        return f"{bad!r} {sym} {x!r}", lambda: fn(bad, x)
    if op == "divide by zero":
        zero = draw(st.sampled_from([0, Fraction(0), field.zero()]))
        return f"{x!r} / {zero!r}", lambda: x / zero
    if op == "inverse":
        return f"{field!r}.zero().inverse()", field.zero().inverse
    if op == "as_fraction":
        g = other.generator()
        return f"{g!r}.as_fraction()", g.as_fraction
    if op == "element fn":
        bad = draw(st.one_of(NOT_DATA, st.integers(), st.just(field)))
        fn = draw(st.sampled_from([value_minpoly, identify_root, is_real_certified]))
        return f"{fn.__name__}({bad!r})", lambda: fn(bad)
    fn = factor_over_field if op.startswith("factor") else extend_field
    if op.endswith("field"):
        bad = draw(st.one_of(NOT_LISTS, st.just(field.minpoly)))
        return f"{fn.__name__}({bad!r}, ...)", lambda: fn(bad, poly)
    # a list that is not of the field's elements; for extend_field also an
    # empty, zero or constant polynomial, which has no root
    wrong = st.one_of(_bad_coefficient_lists(st.just(x)),
                      st.just([other.generator(), other.one()]),
                      st.just([Fraction(1), Fraction(0), Fraction(1)]))
    if fn is extend_field:
        wrong = st.one_of(wrong, st.lists(st.just(field.zero()), max_size=3),
                          st.just([x if x else field.one()]))
    bad = draw(wrong)
    return f"{fn.__name__}({field!r}, {bad!r})", lambda: fn(field, bad)


@settings(max_examples=300, deadline=None)
@given(_malformed_field_calls())
def test_malformed_input_raises_a_coded_qal_error(call):
    label, thunk = call
    with pytest.raises(QalError) as info:
        thunk()
    assert info.value.code == type(info.value).code != QalError.code, label


@pytest.mark.parametrize("field", _ALL_FIELDS, ids=repr)
@pytest.mark.parametrize("f", [[], [0], [0, 0]], ids=repr)
def test_empty_and_zero_polynomials_have_no_factors(field, f):
    assert factor_over_field(field, [field.element(c) for c in f]) == []
