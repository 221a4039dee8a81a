import time
from fractions import Fraction

import pytest

from qal.polynomials import parse_polynomial
from qal.puiseux import d_exponent, puiseux_expand

# hand-checked germs and their exponents: y^2 + x^(2k) has the branches
# +-i x^k, (y - x^2)^2 + x^6 has x^2 +- i x^3, and y^3 + x^2 y + x^5 has
# the real branch -x^3 + ... and the pair +-i x + ...
GERMS = [
    ("y^2 + x^4", Fraction(2)),
    ("x^2 + y^4", Fraction(2)),
    ("y^2 + x^6", Fraction(3)),
    ("y^3 + x^2*y + x^5", Fraction(1)),
    ("(y - x^2)^2 + x^6", Fraction(3)),
]


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
