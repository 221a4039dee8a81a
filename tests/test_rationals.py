from fractions import Fraction

import pytest

from qal.errors import DomainError
from qal.rationals import (compare_power_products, factorial, iroot, pow_bounds,
                           root_bounds)


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
