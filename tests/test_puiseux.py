import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qal import puiseux
from qal.errors import DomainError
from qal.polynomials import MultiPoly, parse_polynomial
from qal.puiseux import d_exponent, puiseux_expand

# hand-checked germs and their exponents: y^2 + x^(2k) has the branches
# +-i x^k, (y - x^2)^2 + x^6 has x^2 +- i x^3, and y^3 + x^2 y + x^5 has
# the real branch -x^3 + ... and the pair +-i x + ...; the other values
# were computed by the earlier squarefree split over Q(x) and agree with
# the Puiseux characteristic of each germ
GERMS = [
    ("y^2 + x^4", Fraction(2)),
    ("x^2 + y^4", Fraction(2)),
    ("y^2 + x^6", Fraction(3)),
    ("y^3 + x^2*y + x^5", Fraction(1)),
    ("(y - x^2)^2 + x^6", Fraction(3)),
    ("(y^2-x^3)^2 - 4*x^5*y - x^7", Fraction(7, 4)),
    ("y^2 - x^3", Fraction(3, 2)),
    ("(y-x)^2*(y+x)^3*(y^2+x^4)", Fraction(2)),
    ("x*(y^2 - x^3)", Fraction(3, 2)),
    ("(y^2+x^4)^2", Fraction(2)),
    ("(y-x^2)^3 + x^7", Fraction(7, 3)),
    ("y^3 - x^4", Fraction(4, 3)),
    ("(1+y)*(y^2-x^5)", Fraction(5, 2)),
]

X = MultiPoly.variable("x", ("x", "y"))
Y = MultiPoly.variable("y", ("x", "y"))


@pytest.mark.parametrize("text, d", GERMS)
def test_d_exponent_of_hand_checked_germs(text, d):
    start = time.perf_counter()
    report = d_exponent(parse_polynomial(text), 4)
    assert time.perf_counter() - start < 2.0
    assert report.d_value == d


@pytest.mark.parametrize("text", [t for t, _ in GERMS])
def test_branch_count_equals_the_multiplicity(text):
    # the sum of multiplicity x conjugate count over the branches is the
    # order of the (sheared) germ at the origin, not its y-degree
    expansion = puiseux_expand(parse_polynomial(text), 4)
    assert expansion.degree_count() == expansion.phi.order()
    assert sum(b.multiplicity * b.conjugate_count()
               for b in expansion.branches) == expansion.phi.order()


def test_squared_cusp_germ_expands_quickly():
    # (y^3 - x^2)^2 - x^5 needs a shear and ramification m = 4; a time
    # bound on the squarefree split and the polygon iteration together
    phi = parse_polynomial("(y^3-x^2)^2 - x^5")
    start = time.perf_counter()
    expansion = puiseux_expand(phi, 6)
    assert time.perf_counter() - start < 3.0
    assert expansion.degree_count() == expansion.phi.order()
    start = time.perf_counter()
    assert d_exponent(phi, 6).d_value == Fraction(9, 4)
    assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize("T", [0, -1])
def test_nonpositive_truncation_is_rejected(T):
    phi = parse_polynomial("y^2 + x^4")
    with pytest.raises(DomainError):
        puiseux_expand(phi, T)
    with pytest.raises(DomainError):
        d_exponent(phi, T)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4))
def test_d_of_y2_plus_even_power(k):
    # branches +-i x^k
    assert d_exponent(Y ** 2 + X ** (2 * k), k + 1).d_value == k


_COEFF = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=25, deadline=None)
@given(st.lists(_COEFF, min_size=5, max_size=5), st.integers(1, 4))
@example([Fraction(0)] * 5, 1)
@example([Fraction(1), 0, 0, 0, 0], 1)
@example([0, Fraction(1), 0, 0, 0], 3)
@example([Fraction(1, 2), Fraction(-2), 0, 0, 0], 2)
@example([0, 0, 0, Fraction(1), 0], 2)
@example([0, 0, 0, 0, Fraction(3)], 4)
@example([Fraction(-1), Fraction(1), Fraction(-1), Fraction(1), Fraction(-1)], 3)
@example([0, 0, Fraction(2, 3), 0, Fraction(1, 4)], 1)
def test_d_of_shifted_even_power(p_coeffs, k):
    # (y - p(x))^2 + x^(2k) with p(0) = 0 has the branches p(x) +- i x^k,
    # whose first nonreal coefficient sits at exponent k; the truncation
    # must pass every exponent of p, where the two branches still coincide
    p = MultiPoly(("x", "y"), {(e + 1, 0): c for e, c in enumerate(p_coeffs)})
    phi = (Y - p) ** 2 + X ** (2 * k)
    assert d_exponent(phi, max(k, 5) + 1).d_value == k


_LINEAR = st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 3))
_QUADRATIC = st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 3))


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(_LINEAR, st.integers(1, 2), max_size=2),
       st.dictionaries(_QUADRATIC, st.integers(1, 2), max_size=2))
def test_branch_count_of_products(linear, quadratic):
    # distinct factors (y - a x^e)^p and (y^2 + b x^(2k))^q; when b = -a^2
    # and k = e two of them share a branch, which the squarefree split
    # must merge into one multiplicity
    assume(linear or quadratic)
    phi = MultiPoly.constant(1, ("x", "y"))
    for (a, e), p in linear.items():
        phi = phi * (Y - a * X ** e) ** p
    for (b, k), q in quadratic.items():
        phi = phi * (Y ** 2 + b * X ** (2 * k)) ** q
    expansion = puiseux_expand(phi, 4)
    assert sum(b.multiplicity * b.conjugate_count()
               for b in expansion.branches) == phi.order()


def test_puiseux_and_algebraic_do_not_import_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(puiseux.__file__)))
    code = "import sys, qal.puiseux, qal.algebraic; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
