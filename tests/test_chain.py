"""The integer subresultant chain of ``qal.chain``: exact quotients, the
chain itself against sympy's subresultant PRS, and the distinct real root
counts and gcd degrees it gives on integer polynomials."""

import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import qal.chain
from qal import division
from qal.errors import ChainDegenerationError
from qal.polynomials import parse_polynomial


def dist(text, var="y"):
    return division.DistinguishedPoly.from_multipoly(parse_polynomial(text), var)


def test_inexact_chain_division_is_coded():
    # (1 + x^2) / (1 + x) in Z[x], evaluated at x = 2^8
    with pytest.raises(ChainDegenerationError):
        qal.chain._exquo(1 + (1 << 16), 1 + (1 << 8))


_Y = sympy.Symbol("y")
_FIBRE_FACTORS = [_Y - 2, _Y + 3, _Y, 2 * _Y + 1, 3 * _Y - 1, _Y**2 + 1, _Y**2 - 2,
                  _Y**2 + _Y + 2, _Y**2 - 2 * _Y + 5, 4 * _Y**2 + 1]


@st.composite
def _integer_fibres(draw):
    """Integer polynomials in y of degree 1 to 8, constant term first, with
    a positive leading coefficient: products of powers of integer linear
    and quadratic factors (repeated and complex roots), each factor kept
    while the degree stays at most 8, or sparse random coefficient lists
    with zero middle coefficients."""
    if draw(st.booleans()):
        product, degree = sympy.Integer(1), 0
        for f, m in draw(st.lists(st.tuples(st.sampled_from(_FIBRE_FACTORS),
                                            st.integers(1, 3)), min_size=1, max_size=4)):
            if degree + m * sympy.degree(f, _Y) <= 8:
                product, degree = product * f**m, degree + m * sympy.degree(f, _Y)
        return [int(c) for c in reversed(sympy.Poly(product, _Y).all_coeffs())]
    degree = draw(st.integers(1, 8))
    middle = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7]),
                           min_size=degree, max_size=degree))
    return middle + [draw(st.integers(1, 3))]


class TestConstantChain:
    """The chain over Z that counts a grid fibre, checked directly."""

    @settings(max_examples=150, deadline=None)
    @given(_integer_fibres())
    def test_counts_against_sympy(self, p):
        poly = sympy.Poly(list(reversed(p)), _Y)
        excess = sympy.gcd(poly, poly.diff(_Y)).degree()
        assert qal.chain._fibre_counts(p) == (excess, poly.sqf_part().count_roots())

    @pytest.mark.parametrize("p,expected", [
        ([0, 0, 0, 0, 0, 0, 0, 0, 1], (7, 1)),          # y^8
        ([1, 0, 0, 0, 0, 0, 0, 0, 1], (0, 0)),          # y^8 + 1
        ([-1, 0, 0, 0, 0, 0, 0, 0, 1], (0, 2)),         # y^8 - 1
        ([1, 0, -2, 0, 1], (2, 2)),                     # (y^2 - 1)^2
        ([1, 0, 2, 0, 1], (2, 0)),                      # (y^2 + 1)^2
        ([0, 0, 1, 0, 0, 1], (1, 2)),                   # y^2 (y^3 + 1)
        ([-3, 1], (0, 1)),
    ])
    def test_hand_derived_counts(self, p, expected):
        assert qal.chain._fibre_counts(p) == expected

    def test_inexact_division_is_coded(self):
        with pytest.raises(ChainDegenerationError):
            qal.chain._exquo(7, 2)


def _digits(N, w):
    """The coefficients, lowest first, of the element of Z[x] whose value at
    2^w is N, each read as a balanced base-2^w digit."""
    out = []
    while N:
        c = N & ((1 << w) - 1)
        c -= (c >> (w - 1)) << w
        out.append(c)
        N = (N - c) >> w
    return out


class TestOneChainForBothRings:
    """The chain on Z[x][y] evaluated at x = 2^w is Brown's chain over Z[x]:
    each element, decoded digit by digit, is sympy's subresultant PRS element
    up to sign, and every coefficient from R_1 on, and lc(R_0), lies inside
    the width bound B."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)), min_size=1, max_size=4),
           st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(1, 3)), max_size=2))
    def test_packed_chain_is_the_subresultant_prs(self, branches, pairs):
        # a product of real branches y - (a x + b x^2) and factors y^2 +- x^k
        text = "*".join([f"(y - ({a})*x - ({b})*x^2)" for a, b in branches]
                        + [f"(y^2 + ({sign})*x^{k})" for sign, k in pairs])
        phi = dist(text)
        rows = [division._dense_in_param(aj, 1) for aj in reversed(phi.a)] + [[1]]
        n = len(rows) - 1
        bound = (sum(abs(c) for row in rows for c in row) ** (n - 1)
                 * sum(k * abs(c) for k, row in enumerate(rows) for c in row) ** n)
        w = bound.bit_length() + 1
        chain = qal.chain._prs([sum(c << (i * w) for i, c in enumerate(row)) for row in rows])
        x, y = sympy.symbols("x y")
        poly = sympy.Poly(sympy.sympify(text.replace("^", "**")), y)
        expected = sympy.subresultants(poly, poly.diff(y))
        assert len(chain) == len(expected)
        for i, (element, reference) in enumerate(zip(chain, expected)):
            # of R_0 = p only the leading coefficient is a minor for n = 1
            decoded = [_digits(N, w) for N in (element if i else element[-1:])]
            assert all(sum(map(abs, c)) <= bound for c in decoded)
            coeffs = [[int(k) for k in reversed(sympy.Poly(c, x).all_coeffs())] if c else []
                      for c in reversed(reference.all_coeffs())][-len(decoded):]
            assert decoded in (coeffs, [[-k for k in c] for c in coeffs])


def _exact_cases(bits):
    """A divisor of the given length in bits, of either sign, and five
    quotients of up to three times that length, zero and negatives among
    them, drawn from a seed."""
    return st.tuples(st.integers(0, 2**64), st.sampled_from([1, -1])).map(
        lambda t: _draw_exact(random.Random(t[0]), bits, t[1]))


def _draw_exact(rng, bits, sign):
    b = sign * (rng.getrandbits(bits - 1) | (1 << (bits - 1)))
    b <<= rng.choice([0, 0, 1, 7])
    qs = [rng.choice([1, -1]) * rng.getrandbits(rng.randint(1, 3 * bits)) for _ in range(4)]
    return b, qs + [0]


class TestExactDivision:
    """``chain._exquo``, the chain's exact quotient, on short and long
    divisors against divmod, and an inexact quotient as a coded error."""

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([2, 3, 17, 64, 300, 2000, 40000]).flatmap(_exact_cases))
    def test_against_divmod(self, case):
        b, qs = case
        values = [q * b for q in qs]
        assert [qal.chain._exquo(v, b) for v in values] == [divmod(v, b)[0] for v in values] == qs

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([2, 64, 40000]).flatmap(_exact_cases), st.integers(1, 2**40))
    def test_an_inexact_quotient_is_coded(self, case, r):
        b, qs = case
        with pytest.raises(ChainDegenerationError) as info:
            qal.chain._exquo(qs[1] * b + (r % abs(b) or 1), b)
        assert info.value.code == "chain-degeneration"
