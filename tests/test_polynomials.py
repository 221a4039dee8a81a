import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qal.algebraic import NumberField
from qal.errors import DomainError, QalSyntaxError
from qal.polynomials import MultiPoly, _var_key, parse_polynomial


def P(text):
    return parse_polynomial(text)


class TestParser:
    def test_two_term(self):
        poly = P("y^2 + x^4")
        assert poly.vars == ("x", "y")
        assert poly.coeffs == {(0, 2): Fraction(1), (4, 0): Fraction(1)}

    def test_three_term(self):
        poly = P("y^2 - 3*x*y + x^3")
        assert poly.coeffs == {(0, 2): Fraction(1), (1, 1): Fraction(-3),
                               (3, 0): Fraction(1)}

    def test_syntax_error_position(self):
        with pytest.raises(QalSyntaxError) as err:
            P("y^^2")
        assert err.value.position == 2

    def test_rational_coefficient(self):
        poly = P("1/2*x + 3")
        assert poly.coeffs == {(1,): Fraction(1, 2), (0,): Fraction(3)}

    def test_parentheses_and_unary_minus(self):
        assert P("-(x - y)^2") == -(P("x") - P("y")) ** 2

    def test_numbered_variables(self):
        poly = P("x1^2 + x2^2 + y^2")
        assert poly.vars == ("x1", "x2", "y")

    def test_unexpected_character(self):
        with pytest.raises(QalSyntaxError):
            P("x + $")

    def test_round_trip_random_corpus(self):
        rng = random.Random(13571)
        for _ in range(100):
            nvars = rng.randint(1, 3)
            vars = tuple(sorted(rng.sample(["x", "y", "x1", "x2"], nvars),
                                key=lambda v: (len(v), v)))
            coeffs = {}
            for _ in range(rng.randint(1, 6)):
                exps = tuple(rng.randint(0, 4) for _ in vars)
                coeffs[exps] = Fraction(rng.randint(-9, 9) or 1,
                                        rng.randint(1, 5))
            poly = MultiPoly(vars, coeffs)
            if poly.is_zero():
                continue
            assert parse_polynomial(str(poly)) == poly


class TestMultiPoly:
    def test_substitution(self):
        phi = P("y^2 + x")
        shifted = phi.substitute({"x": -P("y") ** 2})
        assert shifted.is_zero()

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_substitution_commutes_with_evaluation(self, data):
        names = ["x", "y", "x1", "x2"]
        coeffs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))

        def poly(vars):
            exps = st.tuples(*(st.integers(0, 3) for _ in vars))
            return MultiPoly(vars, data.draw(st.dictionaries(exps, coeffs, max_size=5)))

        def some_vars(min_size):
            chosen = data.draw(st.lists(st.sampled_from(names), min_size=min_size,
                                        unique=True))
            return tuple(sorted(chosen, key=_var_key))

        p = poly(some_vars(1))        # empty coefficients: the zero polynomial
        # one or several variables at once, each replacement may involve
        # any variable, substituted ones included
        subs = data.draw(st.lists(st.sampled_from(p.vars), min_size=1, unique=True))
        reps = {v: poly(some_vars(0)) for v in subs}
        pt = {name: data.draw(coeffs) for name in names}
        out = p.substitute(reps)
        rest = set(p.vars).difference(subs).union(*(r.vars for r in reps.values()))
        assert out.vars == tuple(sorted(rest, key=_var_key))
        assert out.eval(pt) == p.eval({**pt, **{v: r.eval(pt) for v, r in reps.items()}})

    def test_order_and_degrees(self):
        poly = P("y^2 + x^3")
        assert poly.order() == 2
        assert poly.degree("y") == 2
        assert poly.degree("x") == 3
        assert poly.total_degree() == 3

    def test_eval(self):
        poly = P("x^2 + y")
        assert poly.eval({"x": Fraction(2), "y": Fraction(1, 2)}) == Fraction(9, 2)

    def test_derivative(self):
        assert P("x^3 + x*y").derivative("x") == P("3*x^2 + y")

    @pytest.mark.parametrize("call", [
        lambda: MultiPoly.variable("z", ("x", "y")),
        lambda: P("x + y") ** -1,
        lambda: P("x + y").substitute({"z": P("x")}),
    ], ids=["variable-outside-vars", "negative-power", "substitute-outside-vars"])
    def test_domain_errors(self, call):
        with pytest.raises(DomainError) as info:
            call()
        assert info.value.code == "domain-error"

    def test_gaussian_coefficients(self):
        # (i z + 1)^2 = -z^2 + 2i z + 1 over Q(i)
        QI = NumberField([1, 0, 1], root_index=1)
        i = QI.generator()
        poly = MultiPoly(("z",), {(1,): i, (0,): QI.one()})
        sq = poly * poly
        assert sq.coeffs[(2,)] == QI.element(-1)
        assert sq.coeffs[(1,)] == QI.element([0, 2])
        assert sq.coeffs[(0,)] == QI.one()

