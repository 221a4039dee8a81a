import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qal import rationals, sequences
from qal.errors import DomainError, QalSyntaxError
from qal.rationals import TokenCursor, factorial, grid_root, iroot, pow_bounds, root_bounds


def compare_power_products(left: list[tuple[Fraction, Fraction]],
                           right: list[tuple[Fraction, Fraction]]) -> int:
    """The exact comparison of two products of rational powers of positive
    rationals, the reference for ``sequences._compare_scan``'s power table.

    Each side is a list of (base, exponent) pairs standing for the product
    of base^exponent.  Returns -1, 0 or 1.  Exponent denominators are
    cleared to a common multiple L, which turns each side into a ratio
    N/D of integers: the product of the bases' numerators and denominators
    raised to the integer exponents e*L (swapped for a negative one).  Only
    the sign of N_left * D_right - N_right * D_left is needed, so no side
    is reduced to lowest terms and no Fraction product is formed.
    """
    denom = 1
    for _, e in left + right:
        denom = denom * e.denominator // math.gcd(denom, e.denominator)
    sides = []
    for side in (left, right):
        num = den = 1
        for b, e in side:
            n, d = b.numerator, b.denominator
            if n <= 0:
                raise DomainError("bases must be positive")
            k = e.numerator * (denom // e.denominator)
            if k < 0:
                n, d, k = d, n, -k
            num *= n**k
            den *= d**k
        sides.append((num, den))
    (ln, ld), (rn, rd) = sides
    lv, rv = ln * rd, rn * ld
    return (lv > rv) - (lv < rv)


class TestLexer:
    def test_token_kinds_and_offsets(self):
        cur = TokenCursor(" x1 + 3/4*$")
        assert cur.tokens == [("name", "x1", 1), ("char", "+", 4), ("number", "3/4", 6),
                              ("char", "*", 9), ("char", "$", 10), ("end", "", 11)]

    @pytest.mark.parametrize("text, value", [
        ("12", Fraction(12)), ("3/6", Fraction(1, 2)), ("1.5", Fraction(3, 2)),
        (".5", Fraction(1, 2)), ("5.", Fraction(5)), ("1e1", Fraction(10)),
        ("1.5e-1", Fraction(3, 20)), ("-2/3", Fraction(-2, 3)), ("+ 7", Fraction(7)),
        ("0.1", Fraction(1, 10)),
    ])
    def test_the_literal_rule_is_exact(self, text, value):
        cur = TokenCursor(text)
        assert cur.number() == value
        assert cur.peek()[0] == "end"

    @pytest.mark.parametrize("text, position", [
        ("1/0", 0), ("- -1", 2), ("x", 0), ("", 0), ("+/2", 1),
    ])
    def test_a_bad_number_raises_at_the_failing_token(self, text, position):
        with pytest.raises(QalSyntaxError) as info:
            TokenCursor(text).number()
        assert info.value.position == position

    def test_take_and_accept(self):
        cur = TokenCursor("f(1)")
        assert cur.take("name") == ("name", "f", 0)
        assert not cur.accept(")")
        assert cur.accept("(")
        with pytest.raises(QalSyntaxError) as info:
            cur.take("char", ")")
        assert info.value.position == 2

    def test_benchmark_modules_do_not_import_sympy(self):
        # the lexer sits in rationals, which every benchmark worker imports;
        # sympy would add its import time and memory to each of them
        src = os.path.dirname(os.path.dirname(os.path.abspath(rationals.__file__)))
        code = ("import sys, qal.rationals, qal.intervals, qal.sequences, qal.theta, "
                "qal.hilbert, qal.polynomials, qal.chain, qal.division; "
                "print('sympy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"


class TestErrors:
    @pytest.mark.parametrize("n, k", [(-1, 2), (8, 0)])
    def test_iroot_outside_its_domain(self, n, k):
        with pytest.raises(DomainError) as info:
            iroot(n, k)
        assert info.value.code == "domain-error"

    def test_root_bounds_of_a_negative_radicand(self):
        with pytest.raises(DomainError) as info:
            root_bounds(Fraction(-1, 3), 2, 64)
        assert info.value.code == "domain-error"

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(-2, 5)])
    def test_pow_bounds_of_a_non_positive_base(self, x):
        with pytest.raises(DomainError) as info:
            pow_bounds(x, Fraction(1, 2), 64)
        assert info.value.code == "domain-error"

    def test_compare_power_products_non_positive_left_base(self):
        with pytest.raises(DomainError) as info:
            compare_power_products([(Fraction(0), Fraction(1))], [(Fraction(2), Fraction(1))])
        assert info.value.code == "domain-error"

    def test_compare_power_products_non_positive_right_base(self):
        with pytest.raises(DomainError) as info:
            compare_power_products([(Fraction(2), Fraction(1))], [(Fraction(-3), Fraction(1, 2))])
        assert info.value.code == "domain-error"

    @pytest.mark.parametrize("n", [-1, -6])
    def test_factorial_of_a_negative_integer(self, n):
        # the cache is filled first: a negative index used to count from its end
        assert factorial(5) == 120
        with pytest.raises(DomainError) as info:
            factorial(n)
        assert info.value.code == "domain-error"


class TestRoots:
    @settings(max_examples=200, deadline=None)
    @given(st.fractions(min_value=0, max_value=10**30), st.integers(1, 5),
           st.integers(1, 80))
    def test_root_bounds_enclose_the_root(self, x, k, bits):
        lo, hi = root_bounds(x, k, bits)
        assert lo ** k <= x <= hi ** k

    def test_the_square_root_lower_end_is_the_scaled_isqrt(self):
        # floor(sqrt(x) * den * 2^s) / (den * 2^s), s = bits + len(den)
        x, bits = Fraction(10**40 + 7, 3**17), 64
        shift = bits + x.denominator.bit_length()
        expected = Fraction(math.isqrt((x.numerator * x.denominator) << (2 * shift)),
                            x.denominator << shift)
        assert root_bounds(x, 2, bits)[0] == expected


# radicands n/d from 2^-5000 to 2^5000, their sizes drawn apart from their digits
_RADICANDS = st.tuples(st.integers(0, 5000), st.integers(1, 2**64), st.integers(0, 5000),
                       st.integers(1, 2**64)).map(lambda t: ((t[1] << t[0]) + 1, (t[3] << t[2])))


class TestGridRoot:
    @settings(max_examples=300, deadline=None)
    @given(_RADICANDS, st.integers(1, 6), st.sampled_from([8, 64, 288, 4128]),
           st.booleans())
    def test_the_tightest_enclosure_on_the_grid(self, x, q, p, square):
        n, d = x
        if square:   # a radicand whose root is rational
            n, d = n ** q, d ** q
        X = Fraction(n, d)
        lo, hi = grid_root(n, d, q, p)
        assert lo ** q <= X <= hi ** q
        # the grid: steps of 2^(e - p), e = floor((E - 1)/q), E = len(n) - len(d)
        e = (n.bit_length() - d.bit_length() - 1) // q
        step = Fraction(2) ** (e - p)
        assert (lo / step).denominator == 1 and lo / step >= 2 ** p
        exact = lo ** q == X
        assert hi - lo == (0 if exact else step)
        assert (lo is hi) == exact

    def test_an_unreduced_radicand_gives_the_reduced_enclosure(self):
        assert grid_root(6, 3, 2, 64) == grid_root(2, 1, 2, 64)

    @pytest.mark.parametrize("n, d, q, p, expected", [
        (0, 5, 3, 64, (0, 0)),
        (4, 1, 2, 8, (2, 2)),
        (1, 4, 2, 8, (Fraction(1, 2), Fraction(1, 2))),
        (2, 1, 2, 8, (Fraction(181, 128), Fraction(363, 256))),
    ], ids=["zero", "exact", "exact below 1", "sqrt 2"])
    def test_hand_values(self, n, d, q, p, expected):
        # sqrt 2 on steps of 2^-8: 362/256 < sqrt 2 < 363/256
        assert grid_root(n, d, q, p) == expected

    @pytest.mark.parametrize("n, d, q, p", [(-1, 1, 2, 8), (1, 0, 2, 8), (1, 1, 0, 8),
                                            (1, 1, 2, 0)])
    def test_outside_its_domain(self, n, d, q, p):
        with pytest.raises(DomainError) as info:
            grid_root(n, d, q, p)
        assert info.value.code == "domain-error"


def _power_product_reference(left, right) -> int:
    """The comparison on Fraction arithmetic: both sides raised to the lcm
    L of the exponent denominators, each a product of Fraction powers."""
    L = math.lcm(*(e.denominator for _, e in left + right))
    lv = math.prod((b ** int(e * L) for b, e in left), start=Fraction(1))
    rv = math.prod((b ** int(e * L) for b, e in right), start=Fraction(1))
    return (lv > rv) - (lv < rv)


_BASES = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))
_EXPONENTS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
_SIDES = st.lists(st.tuples(_BASES, _EXPONENTS), max_size=4)


class TestComparePowerProducts:
    @settings(max_examples=300, deadline=None)
    @given(_SIDES, _SIDES)
    def test_equals_the_fraction_reference(self, left, right):
        assert compare_power_products(left, right) == _power_product_reference(left, right)

    @settings(max_examples=100, deadline=None)
    @given(_SIDES)
    def test_a_side_equals_itself_and_its_permutation(self, side):
        assert compare_power_products(side, side) == 0
        assert compare_power_products(side, side[::-1]) == 0

    @pytest.mark.parametrize("left, right, want", [
        # 2^(1/2) vs 3^(1/3): 2^3 = 8 < 9 = 3^2
        ([(Fraction(2), Fraction(1, 2))], [(Fraction(3), Fraction(1, 3))], -1),
        # (2/3)^(-2) = 9/4 vs (3/2)^2
        ([(Fraction(2, 3), Fraction(-2))], [(Fraction(3, 2), Fraction(2))], 0),
        # (1/2)^(-1/2) = sqrt 2 > (5/4)^1
        ([(Fraction(1, 2), Fraction(-1, 2))], [(Fraction(5, 4), Fraction(1))], 1),
        ([], [(Fraction(7, 3), Fraction(0))], 0),
    ])
    def test_hand_values(self, left, right, want):
        assert compare_power_products(left, right) == want


class _PowerForms:
    """A stand-in sequence whose M_j is given by its power form alone."""

    def __init__(self, forms):
        self.forms = forms

    def power_form(self, j):
        return self.forms[j]


# shared bases make equal sides and exact ties likely
_SHARED_BASES = st.one_of(st.sampled_from([Fraction(2), Fraction(3, 2), Fraction(6), Fraction(1, 4)]),
                          _BASES)
_FORMS = st.lists(st.lists(st.tuples(_SHARED_BASES, _EXPONENTS), max_size=3), min_size=1,
                  max_size=5)


@st.composite
def _table_scans(draw):
    """Two stand-in sequences and comparisons of products of their values
    raised to integer powers, which may be negative."""
    M, N = _PowerForms(draw(_FORMS)), _PowerForms(draw(_FORMS))
    items = lambda seq: st.lists(st.tuples(st.integers(0, len(seq.forms) - 1),
                                           st.integers(-3, 4)), max_size=3)
    comparisons = draw(st.lists(st.tuples(items(M), items(N)), min_size=1, max_size=6))
    return M, N, [(lhs, rhs, f"comparison {i}") for i, (lhs, rhs) in enumerate(comparisons)]


class TestPowerTable:
    @settings(max_examples=300, deadline=None)
    @given(_table_scans())
    def test_the_table_decides_as_the_reference(self, scan):
        # each sign of _compare_scan's integer table, through the first '>',
        # against compare_power_products on the expanded power forms
        M, N, comparisons = scan
        expanded = lambda seq, items: [(b, e * p) for j, p in items for b, e in seq.forms[j]]
        want = []
        for lhs, rhs, _ in comparisons:
            want.append(compare_power_products(expanded(M, lhs), expanded(N, rhs)))
            if want[-1] > 0:
                break
        assert sequences._compare_scan(M, N, comparisons) == want
