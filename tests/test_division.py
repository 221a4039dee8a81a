import hashlib
import itertools
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qal import division, intervals
from qal.division import (DistinguishedPoly, euclid_divide, gevrey_flat_witness,
                          generic_divisor, hyperbolic_check_2d,
                          hyperbolic_falsify_grid, nodiv_witness, regular_order,
                          specialize_division, strictly_regular_check)
from qal.errors import (ArityMismatchError, CertificationError, DomainError,
                        NonMonicDivisorError, PrecisionFailure, QalError, ZeroPolynomialError)
from qal.intervals import RI, iv_exp
from qal.polynomials import MultiPoly, _var_key, parse_polynomial
from qal.rationals import factorial
from qal.sequences import analytic, gevrey, loggevrey

from malformed import NOT_EXACT, NOT_INTEGERS


def P(text):
    return parse_polynomial(text)


def dist(text, var="y"):
    return DistinguishedPoly.from_multipoly(P(text), var)


_COEFFS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def _polys(vars, constant=True, top=2):
    """Polynomials in vars with up to four terms, each exponent at most top
    (the zero polynomial included); constant=False leaves out the constant
    term."""
    exps = st.tuples(*(st.integers(0, top) for _ in vars))
    if not constant:
        exps = exps.filter(any)
    return st.dictionaries(exps, _COEFFS, max_size=4).map(lambda c: MultiPoly(vars, c))


class TestEuclidDivide:
    def test_self_division(self):
        F = generic_divisor(2)
        G, H = euclid_divide(F, F, "z")
        assert G == MultiPoly.constant(1, G.vars)
        assert H.is_zero()

    def test_z2_by_generic_quadratic(self):
        # hand-derived: z^2 = F*1 + (-mu1 z - mu2)
        G, H = euclid_divide(P("z^2"), generic_divisor(2), "z")
        assert G == MultiPoly.constant(1, G.vars)
        assert H == -P("mu1*z") - P("mu2")

    def test_z3_by_generic_quadratic(self):
        # hand-derived: z^3 = F*(z - mu1) + ((mu1^2 - mu2) z + mu1 mu2)
        G, H = euclid_divide(P("z^3"), generic_divisor(2), "z")
        assert G == P("z - mu1")
        assert H == P("(mu1^2 - mu2)*z + mu1*mu2")

    def test_non_monic_rejected(self):
        with pytest.raises(NonMonicDivisorError):
            euclid_divide(P("z^2"), P("x*z^2 + 1"), "z")

    def test_random_reexpansion_and_uniqueness(self):
        rng = random.Random(33412)
        mus = ("mu1", "mu2", "mu3")
        for _ in range(120):
            d = rng.randint(1, 4)
            F = generic_divisor(d)
            # P with coefficients in up to 3 mu variables
            vars_all = tuple(sorted(set(mus[:rng.randint(0, 3)]) | {"z"}))
            coeffs = {}
            for _ in range(rng.randint(1, 6)):
                exps = tuple(rng.randint(0, 3) if v != "z" else rng.randint(0, 8)
                             for v in vars_all)
                coeffs[exps] = Fraction(rng.randint(-9, 9) or 2, rng.randint(1, 4))
            Ppoly = MultiPoly(vars_all, coeffs)
            G, H = euclid_divide(Ppoly, F, "z")
            assert F * G + H == Ppoly  # re-expansion, exact
            assert H.is_zero() or H.degree("z") < d
            # uniqueness: subtracting a second independent computation
            G2, H2 = euclid_divide(Ppoly + F - F, F, "z")
            assert G2 == G and H2 == H


    @pytest.mark.parametrize("p_text,f_text", [
        ("z^7 - 2/3*x*z^5 + 5/4*z^2 - x^3", "z^3 - 1/2*x*z + 2/3"),
        ("3/7*x^2*z^4 + z - 1/5", "z^2 + 5/6*x^2*z - 3/4*x"),
        ("1/2*z^9 + x1*x2*z^3 - 1/9*x2", "z^4 + 1/3*x1*z^2 - 2/5*x2"),
        ("2/3*z + x", "z^2 + 1/2*x"),
    ])
    def test_rational_divisor_against_sympy(self, p_text, f_text):
        # L_F > 1: the pseudo-division by L_F F runs over the integers
        Ppoly, F = P(p_text), P(f_text)
        G, H = euclid_divide(Ppoly, F, "z")
        assert all(type(c) is Fraction for poly in (G, H) for c in poly.coeffs.values())
        gens = [sympy.Symbol("z")] + [sympy.Symbol(v) for v in G.vars if v != "z"]
        expr = lambda text: sympy.sympify(text.replace("^", "**"))
        q, r = sympy.Poly(expr(p_text), *gens).div(sympy.Poly(expr(f_text), *gens))
        assert sympy.expand(expr(str(G)) - q.as_expr()) == 0
        assert sympy.expand(expr(str(H)) - r.as_expr()) == 0


class TestSpecializeDivision:
    def test_y2_plus_x(self):
        phi = dist("y^2 + x")
        G, hs = specialize_division(P("z^2"), phi, "z")
        assert G == MultiPoly.constant(1, G.vars)
        assert hs[0] == -P("x")
        assert hs[1].is_zero()

    def test_degree_smaller_than_divisor(self):
        phi = dist("y^2 + x")
        G, hs = specialize_division(P("1"), phi, "z")
        assert G.is_zero()
        assert hs[0] == MultiPoly.constant(1, hs[0].vars)

    def test_y2_minus_x2(self):
        phi = dist("y^2 - x^2")
        G, hs = specialize_division(P("z^2"), phi, "z")
        assert G == MultiPoly.constant(1, G.vars)
        assert hs[0] == P("x^2")

    def test_commutes_with_direct_division(self):
        # division by the monic phi(z) is unique: the re-expansion, a quotient
        # and d remainder parts free of z pin the answer of direct division
        rng = random.Random(777)
        phi = dist("y^2 + x^3")
        phi_z = P("z^2 + x^3")
        z = P("z")
        for _ in range(40):
            coeffs = {}
            for _ in range(rng.randint(1, 5)):
                coeffs[(rng.randint(0, 2), rng.randint(0, 6))] = \
                    Fraction(rng.randint(-5, 5) or 1)
            Ppoly = MultiPoly(("x", "z"), coeffs)
            G, hs = specialize_division(Ppoly, phi, "z")
            assert len(hs) == 2
            assert all("z" not in h.vars or h.degree("z") <= 0 for h in hs)
            recomposed = sum((h.with_vars(("x", "z")) * z ** j for j, h in enumerate(hs)),
                             MultiPoly(("x", "z")))
            assert phi_z * G + recomposed == Ppoly

    def test_division_variable_among_the_coefficients_is_rejected(self):
        # z would be both the division variable and a parameter of phi
        phi = DistinguishedPoly("y", 2, [MultiPoly(("x",)), P("z^2 + x")])
        with pytest.raises(DomainError) as info:
            specialize_division(P("z^3"), phi, "z")
        assert info.value.code == "domain-error"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_specialized_identity_on_random_inputs(self, data):
        params = data.draw(st.sampled_from([("x",), ("x1", "x2")]))
        d = data.draw(st.integers(1, 4))
        phi = DistinguishedPoly("y", d, [data.draw(_polys(params, constant=False))
                                         for _ in range(d)])
        Ppoly = data.draw(_polys(params + ("z",), top=7))
        G, hs = specialize_division(Ppoly, phi, "z")
        z = MultiPoly.variable("z")
        phi_z = z ** d + sum((aj * z ** (d - 1 - j) for j, aj in enumerate(phi.a)),
                             MultiPoly(()))
        assert len(hs) == d and all("z" not in h.vars for h in hs)
        assert all(type(c) is Fraction for poly in (G, *hs) for c in poly.coeffs.values())
        # with len(hs) == d and every h_j free of z, the re-expansion pins
        # the answer: division by the monic phi(z) is unique
        H = sum((h * z ** j for j, h in enumerate(hs)), MultiPoly(()))
        assert phi_z * G + H == Ppoly

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_the_specialized_generic_division(self, data):
        # the reference: the generic division, then every mu_j := a_j in one
        # substitution, split by the power of z
        params = data.draw(st.sampled_from([("x",), ("x1", "x2")]))
        d = data.draw(st.integers(1, 4))
        phi = DistinguishedPoly("y", d, [data.draw(_polys(params, constant=False))
                                         for _ in range(d)])
        Ppoly = data.draw(_polys(params + ("z",), top=7))
        G, hs = specialize_division(Ppoly, phi, "z")
        mus = {f"mu{j}": aj for j, aj in enumerate(phi.a, 1)}
        G_ref, H_ref = (p.substitute(mus) for p in
                        euclid_divide(Ppoly, generic_divisor(d, "z"), "z"))
        top = H_ref.degree("z")
        hs_ref = [H_ref.coefficient("z", j) if j <= top else MultiPoly(())
                  for j in range(d)]
        assert (G.vars, G.coeffs) == (G_ref.vars, G_ref.coeffs)
        assert [(h.vars, h.coeffs) for h in hs] == [(h.vars, h.coeffs) for h in hs_ref]


class TestRegularity:
    def test_order_two_in_y(self):
        assert regular_order(P("y^2 + x"), "y") == 2
        assert regular_order(P("y^2 + x^2"), "y") == 2

    def test_vanishing_restriction(self):
        assert regular_order(P("x*y"), "y") is None

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            regular_order(MultiPoly(("x", "y")), "y")

    def test_unit(self):
        assert regular_order(P("1 + x + y"), "y") == 0

    def test_strictly_regular(self):
        assert not strictly_regular_check(P("y^2 + x"), 2, "y")
        assert strictly_regular_check(P("y^2 + x^2"), 2, "y")
        assert strictly_regular_check(P("y^3"), 3, "y")
        assert not strictly_regular_check(P("y^3 + x"), 3, "y")


class TestHyperbolicity:
    def test_real_cone(self):
        out = hyperbolic_check_2d(dist("y^2 - x^2"))
        assert out.verdict == "hyperbolic"

    def test_imaginary_cone(self):
        out = hyperbolic_check_2d(dist("y^2 + x^2"))
        assert out.verdict == "not-hyperbolic"
        assert out.witness_side == "both"

    def test_one_sided_witness(self):
        out = hyperbolic_check_2d(dist("y^2 + x"))
        assert out.verdict == "not-hyperbolic"
        assert out.witness_side == "plus"
        assert out.real_root_counts == {"plus": 0, "minus": 2}

    def test_even_powers_not_hyperbolic(self):
        for m in (1, 2, 3, 4):
            out = hyperbolic_check_2d(dist(f"y^2 + x^{2 * m}"))
            assert out.verdict == "not-hyperbolic", m

    def test_degree_one_always_hyperbolic(self):
        out = hyperbolic_check_2d(dist("y + x^2"))
        assert out.verdict == "hyperbolic"

    def test_products_of_rational_branches(self):
        # oracle: products of (y - p_i(x)) are hyperbolic by construction
        rng = random.Random(90210)
        for _ in range(25):
            factors = []
            used = set()
            for _ in range(rng.randint(1, 3)):
                key = (rng.randint(-3, 3), rng.randint(-2, 2), rng.randint(0, 2))
                if key in used:
                    continue
                used.add(key)
                c1, c2, p = key
                factors.append(P(f"y - ({c1}*x + {c2}*x^2 + {c2}*x^{p + 3})"))
            if not factors:
                continue
            phi = factors[0]
            for f in factors[1:]:
                phi = phi * f
            out = hyperbolic_check_2d(DistinguishedPoly.from_multipoly(phi, "y"))
            assert out.verdict == "hyperbolic", str(phi)

    def test_multiplicities_are_bookkept(self):
        phi = P("(y^2 - x^2)^2")
        out = hyperbolic_check_2d(DistinguishedPoly.from_multipoly(phi, "y"))
        assert out.verdict == "hyperbolic"
        assert out.multiplicity_excess == 2
        assert out.degree == 2

    def test_requested_side_only(self):
        out = hyperbolic_check_2d(dist("y^2 + x"), side="minus")
        assert out.verdict == "hyperbolic"  # real roots on the minus side


# quadratic branches y - (c1 x + c2 x^2), pairwise distinct and none of them +-x
BRANCHES = ["(y - (x + 2*x^2))", "(y - (-x + x^2))", "(y - (2*x - 3*x^2))",
            "(y - (-3*x + 1/2*x^2))", "(y - (1/3*x - x^2))", "(y - (-1/2*x + 2*x^2))",
            "(y - (3*x + x^2))", "(y - (-2*x - x^2))", "(y - (5*x - 2*x^2))"]


def sympy_reference(text):
    """Squarefree degree, multiplicity excess and distinct real roots of
    phi(+-x0, .), with x0 closer to 0 than every nonzero real root of the
    discriminant of the squarefree part (Cauchy's bound on the roots of the
    discriminant with its power of x divided out)."""
    x, y = sympy.symbols("x y")
    poly = sympy.Poly(sympy.sympify(text.replace("^", "**")), y, x)
    sqf = poly.sqf_part()
    disc = sympy.Poly(sympy.discriminant(sqf.as_expr(), y), x).all_coeffs()[::-1]
    core = disc[next(i for i, c in enumerate(disc) if c):]
    rest = max((abs(c) for c in core[1:]), default=0)
    x0 = sympy.Rational(abs(core[0]), abs(core[0]) + rest) / 2
    counts = {side: sympy.Poly(sqf.as_expr().subs(x, point), y).count_roots()
              for side, point in (("plus", x0), ("minus", -x0))}
    degree = sqf.degree(y)
    return degree, poly.degree(y) - degree, counts


class TestHyperbolicityHighDegree:
    """Degrees 6 to 9, checked against the construction and against sympy."""

    CASES = [
        ("*".join(BRANCHES[:6]), "hyperbolic", None),
        ("*".join(BRANCHES[:8]), "hyperbolic", None),
        ("*".join(BRANCHES[:6]) + "*(y^2 + x^4)", "not-hyperbolic", "both"),
        ("*".join(BRANCHES[:7]) + "*(y^2 - x^2)", "hyperbolic", None),
        ("*".join(BRANCHES[:4]) + "*" + BRANCHES[0] + "*(y^2 + x^2)",
         "not-hyperbolic", "both"),
        ("*".join(BRANCHES[:3]) + "*" + BRANCHES[1] + "^2*(y^2 - x^4)", "hyperbolic", None),
        # leading coefficients of odd order: the two sides differ
        ("*".join(BRANCHES[:5]) + "*(y^2 - x^3)", "not-hyperbolic", "minus"),
        ("*".join(BRANCHES[:5]) + "*(y^2 + x^5)", "not-hyperbolic", "plus"),
        ("*".join(BRANCHES[:3]) + "^2*(y^2 - x^3)", "not-hyperbolic", "minus"),
        # the chain of y^3 + x^3 skips from degree 2 to degree 0
        ("y^3 + x^3", "not-hyperbolic", "both"),
        ("*".join(BRANCHES[:4]) + "*(y^3 + x^3)", "not-hyperbolic", "both"),
        ("(y^3 + x^3)^2*(y + x)", "not-hyperbolic", "both"),
    ]

    @pytest.mark.parametrize("text,verdict,side", CASES)
    def test_against_construction_and_sympy(self, text, verdict, side):
        out = hyperbolic_check_2d(dist(text))
        assert (out.verdict, out.witness_side) == (verdict, side)
        degree, excess, counts = sympy_reference(text)
        assert (out.degree, out.multiplicity_excess) == (degree, excess)
        assert out.real_root_counts == counts

    # sparse inputs whose chains skip degrees before the last element, so that
    # the sign of the divisor g h^delta of the subresultant step matters
    @pytest.mark.parametrize("text", ["y^5 - 3*x^3*y^2 + 3*x^3",
                                      "y^5 + 2*x^5*y^2 - 3*x*y",
                                      "y^7 + 3*x*y^2 + 3*x^5",
                                      "y^7 + 3*x^5*y^5 - 2*x"])
    def test_skipping_chains_against_sympy(self, text):
        out = hyperbolic_check_2d(dist(text))
        degree, excess, counts = sympy_reference(text)
        assert (out.degree, out.multiplicity_excess) == (degree, excess)
        assert out.real_root_counts == counts
        hyperbolic = all(c == degree for c in counts.values())
        assert (out.verdict == "hyperbolic") == hyperbolic

    def test_non_normal_chain_counts(self):
        out = hyperbolic_check_2d(dist("y^3 + x^3"))
        assert out.real_root_counts == {"plus": 1, "minus": 1}
        assert (out.degree, out.multiplicity_excess) == (3, 0)

    def test_degree_nine_under_a_second(self):
        phi = dist("*".join(BRANCHES))
        start = time.perf_counter()
        out = hyperbolic_check_2d(phi)
        assert time.perf_counter() - start < 1.0
        assert out.verdict == "hyperbolic"
        assert out.real_root_counts == {"plus": 9, "minus": 9}

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 3), st.integers(-3, 3)),
                    min_size=1, max_size=6),
           st.integers(1, 3))
    def test_branch_products(self, branches, k):
        phi = P("1")
        for num, den, c2 in branches:
            phi = phi * P(f"y - ({num}/{den})*x - ({c2})*x^2")
        n = len({(Fraction(num, den), c2) for num, den, c2 in branches})
        out = hyperbolic_check_2d(DistinguishedPoly.from_multipoly(phi, "y"))
        assert out.verdict == "hyperbolic"
        assert (out.degree, out.multiplicity_excess) == (n, len(branches) - n)
        assert out.real_root_counts == {"plus": n, "minus": n}
        phi = phi * P(f"y^2 + x^{2 * k}")
        out = hyperbolic_check_2d(DistinguishedPoly.from_multipoly(phi, "y"))
        assert (out.verdict, out.witness_side) == ("not-hyperbolic", "both")
        assert out.degree == n + 2
        assert out.real_root_counts == {"plus": n, "minus": n}

    def test_mixed_parameters_rejected(self):
        # y^2 + 3 x1 y + x2^2 has the roots +-i x2 at x1 = 0
        phi = DistinguishedPoly("y", 2, [P("3*x1"), P("x2^2")])
        with pytest.raises(DomainError):
            hyperbolic_check_2d(phi)


class TestLargeCoefficients:
    """Branches with coefficients up to 10^6, so that the chain's entries and
    the width w are long, against the sympy reference."""

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
                    min_size=1, max_size=4),
           st.sampled_from([None, "(y^2 + x^2)", "(y^2 - x^3)", "(y^2 + x^5)"]))
    def test_counts_against_sympy(self, branches, factor):
        text = "*".join([f"(y - ({a})*x - ({b})*x^2)" for a, b in branches]
                        + ([factor] if factor else []))
        out = hyperbolic_check_2d(dist(text))
        degree, excess, counts = sympy_reference(text)
        assert (out.degree, out.multiplicity_excess) == (degree, excess)
        assert out.real_root_counts == counts


class TestFalsifyGrid:
    def test_sum_of_squares_three_vars(self):
        phi = DistinguishedPoly("y", 2, [MultiPoly(("x1", "x2")),
                                         P("x1^2 + x2^2")])
        hit = hyperbolic_falsify_grid(phi, Fraction(1), 2)
        assert hit is not None
        assert any(v != 0 for v in hit.values())

    def test_real_roots_never_falsified(self):
        phi = DistinguishedPoly("y", 2, [MultiPoly(("x1", "x2")),
                                         P("-(x1^2 + x2^2)")])
        assert hyperbolic_falsify_grid(phi, Fraction(1), 2) is None

    def test_degree_one(self):
        phi = DistinguishedPoly("y", 1, [P("x1 + x2")])
        assert hyperbolic_falsify_grid(phi, Fraction(1), 2) is None

    def test_parameters_run_in_the_order_of_multipoly_vars(self):
        # x2 comes before x10, as in MultiPoly.vars, not as in a string sort
        text = "y^2 + x2^2 + x10^2"
        hit = hyperbolic_falsify_grid(dist(text), Fraction(1), 1)
        assert list(hit) == ["x2", "x10"] == [v for v in P(text).vars if v != "y"]
        assert hit == {"x2": -1, "x10": -1}
        # f = -x2 - x10 - 3 x2 x10 is <= 0 at the first point and > 0 at the
        # next one whichever variable runs fastest: x2 running fastest hits
        # (x2, x10) = (0, -1), x10 running fastest would hit (-1, 0)
        hit = hyperbolic_falsify_grid(dist("y^2 - x2 - x10 - 3*x2*x10"), Fraction(1), 1)
        assert list(hit.items()) == [("x2", 0), ("x10", -1)]


def _grid_reference(phi, radius, resolution):
    """The first point of the grid, the first variable running fastest,
    whose fibre has fewer distinct real roots than distinct roots, counted
    by sympy over Q."""
    y = sympy.Symbol("y")
    params = sorted({v for aj in phi.a for v in aj.vars}, key=_var_key)
    steps = [Fraction(i, resolution) * radius for i in range(-resolution, resolution + 1)]
    for point in itertools.product(steps, repeat=len(params)):
        assignment = dict(zip(params, reversed(point)))
        coeffs = [Fraction(1)] + [Fraction(aj.eval(assignment)) for aj in phi.a]
        fibre = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in coeffs], y)
        sqf = fibre.sqf_part()
        if sqf.count_roots() != sqf.degree():
            return assignment
    return None


@st.composite
def _grid_cases(draw):
    """A distinguished polynomial in y over 0, 2 or 3 parameters (y^d for 0),
    either a product of real linear branches, hyperbolic everywhere, or
    with random coefficients; a grid radius and resolution."""
    params = draw(st.sampled_from([(), ("x1", "x2"), ("x1", "x2", "x3")]))
    d = draw(st.integers(1, 4))
    if params and draw(st.booleans()):
        linear = st.tuples(*(_COEFFS for _ in params))
        phi = MultiPoly.constant(1, ("y",))
        for _ in range(d):
            form = MultiPoly(params, {tuple(int(i == k) for i in range(len(params))): c
                                      for k, c in enumerate(draw(linear))})
            phi = phi * (P("y") - form)
        phi = DistinguishedPoly.from_multipoly(phi, "y")
    else:
        phi = DistinguishedPoly("y", d, [draw(_polys(params, constant=False))
                                         for _ in range(d)])
    radius = Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    return phi, radius, draw(st.integers(1, 2))


class TestFalsifyGridReference:
    @settings(max_examples=40, deadline=None)
    @given(_grid_cases())
    def test_hit_equals_the_sympy_reference(self, case):
        phi, radius, resolution = case
        hit = hyperbolic_falsify_grid(phi, radius, resolution)
        expected = _grid_reference(phi, radius, resolution)
        assert hit == expected
        if hit is not None:
            assert list(hit) == list(expected)
            assert all(type(v) is Fraction for v in hit.values())

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_no_parameters(self, d):
        phi = DistinguishedPoly("y", d, [MultiPoly(()) for _ in range(d)])
        assert hyperbolic_falsify_grid(phi, Fraction(1), 2) is None
        assert _grid_reference(phi, Fraction(1), 2) is None


def _poly_data(p):
    return p.vars, sorted(p.coeffs.items())


def _division_digest(p_text, phi_text):
    """SHA-256 of the reprs (types included) of euclid_divide by the generic
    divisor and of specialize_division by phi, both in z."""
    Ppoly, phi = P(p_text), dist(phi_text)
    G, H = euclid_divide(Ppoly, generic_divisor(phi.d, "z"), "z")
    Gs, hs = specialize_division(Ppoly, phi)
    parts = (_poly_data(G), _poly_data(H), _poly_data(Gs), [_poly_data(h) for h in hs])
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# the hyperbolicity benchmark's division inputs at seeds 4242, 7 and 1, and
# two with rational coefficients in two parameters
DIVISION_CASES = {
    "4242 d=2": ("-2*x*z^4 + z^5 - 4*x^2*z^2 - 5*z^3 + 3*x*z + 2",
                 "x^4 - x^3 - 2*x^2*y - 2*x^2 + x*y + y^2"),
    "4242 d=3": ("3*x^2*z^5 + z^6 - 2*x*z^4 - 4*x^2*z^2 - 5*z^3 - 3*x*z + 2",
                 "x^6 + 4*x^5 - x^4*y + x^4 - 6*x^3*y - x^2*y^2 - 6*x^3 - 5*x^2*y"
                 " + 2*x*y^2 + y^3"),
    "4242 d=4": ("3*x^2*z^5 + z^7 + 4*z^6 - 2*x*z^4 - 4*x^2*z^2 - 5*z^3 + 3*x*z + 2",
                 "-2*x^8 - 9*x^7 + 3*x^6*y - 6*x^6 + 17*x^5*y + x^4*y^2 + 11*x^5"
                 " + 17*x^4*y - 9*x^3*y^2 - 3*x^2*y^3 + 6*x^4 - x^3*y - 7*x^2*y^2"
                 " + x*y^3 + y^4"),
    "7 d=2": ("-2*x*z^4 + z^5 - 4*x^2*z^2 - 5*z^3 - 3*x*z - 2",
              "x^4 - x^3 - 2*x^2*y - 2*x^2 + x*y + y^2"),
    "7 d=4": ("-3*x^2*z^5 + z^7 + 4*z^6 + 2*x*z^4 + 4*x^2*z^2 - 5*z^3 + 3*x*z - 2",
              "-2*x^8 - 9*x^7 + 3*x^6*y - 6*x^6 + 17*x^5*y + x^4*y^2 + 11*x^5"
              " + 17*x^4*y - 9*x^3*y^2 - 3*x^2*y^3 + 6*x^4 - x^3*y - 7*x^2*y^2"
              " + x*y^3 + y^4"),
    "1 d=3": ("-3*x^2*z^5 + z^6 + 2*x*z^4 + 4*x^2*z^2 - 5*z^3 - 3*x*z - 2",
              "x^6 + 4*x^5 - x^4*y + x^4 - 6*x^3*y - x^2*y^2 - 6*x^3 - 5*x^2*y"
              " + 2*x*y^2 + y^3"),
    "rational d=2": ("1/2*x1*z^4 - 2/3*x2*z^2 + z + 5/7",
                     "y^2 + 1/2*x1*y - x2^3"),
    "rational d=3": ("z^6 - 3/4*x1^2*x2*z^3 + 1/5*z - x2",
                     "y^3 - 1/3*x1*x2*y^2 + 2*x2^2*y + 3/2*x1^3"),
}

# frozen before the division was given its linear-cost substitution and
# assembly: the outputs are byte-identical
DIVISION_DIGESTS = {
    '4242 d=2': "08c5e902c3c0be33e7bec593ff6cb86cbf50088df63d11841aaedf3d1b477859",
    '4242 d=3': "c5ff5ffe58efc4b6a456bfd4807a6f728379e3d808f9bbeba0f679f9901a5338",
    '4242 d=4': "b92f3782908902c9ee3658499afdbaf14c63460ab056bd1881f3a7d89f6ea6ba",
    '7 d=2': "1d83e5a0e469502fdbb8b5b35303a2bb353e52450de52aeeed3a9e481ced588b",
    '7 d=4': "6079107f6e384331446555805cdf2eb90f4e4f59d8402f5b7ef9691131e8f9dc",
    '1 d=3': "d7e5e5a243012f2dd66fa45c5e6bba803b2e415425306e41f0a3b38553bcee81",
    'rational d=2': "eb8e41b8c97244f487dd20b1d208ca02c24e3f3494e60b68f89a4f48a520c2ba",
    'rational d=3': "f27289db488990c0b27edca8ddddaf92e29aaa97c0d7d30f564454a0764360f8",
}

# the hyperbolicity benchmark's grid inputs at seeds 4242 and 7 (radius 1/2),
# and four with rational coefficients or another radius
GRID_CASES = {
    "4242 sos 2": ("3*x1^2 + x2^2 + y^2", Fraction(1, 2), 3),
    "4242 lin 2": ("-4*x1*x2 - 2*x1*y + 2*x2*y + y^2", Fraction(1, 2), 3),
    "4242 sos 3": ("2*x1^2 + x2^2 + 3*x3^2 + y^2", Fraction(1, 2), 2),
    "4242 lin 3": ("-4*x1*x2*x3 + 2*x1*x2*y - 2*x1*x3*y + x1*y^2 - 4*x2*x3*y"
                   " + 2*x2*y^2 - 2*x3*y^2 + y^3", Fraction(1, 2), 2),
    "7 lin 2": ("-2*x1*x2 + 2*x1*y - x2*y + y^2", Fraction(1, 2), 3),
    "7 lin 3": ("8*x1*x2*x3 + 4*x1*x2*y - 4*x1*x3*y - 2*x1*y^2 - 4*x2*x3*y"
                " - 2*x2*y^2 + 2*x3*y^2 + y^3", Fraction(1, 2), 2),
    "late hit": ("y^2 - 1/3*x1^2 - x1*x2^3", Fraction(3, 5), 3),
    "cubic hit": ("y^3 - (x1^2 + x2^2 + x3^2)*y + 3/7*x3^3 + x1*x2*x3", Fraction(2, 3), 2),
    "rational miss": ("y^2 + 2/3*x1*x2*x3 - x1^2 - 1/4*x2^2", Fraction(2, 3), 2),
    "no parameters": ("y^3", Fraction(1), 2),
}

# frozen with the Fraction evaluation of every grid point
GRID_RESULTS = {
    '4242 sos 2': {'x1': Fraction(-1, 2), 'x2': Fraction(-1, 2)},
    '4242 lin 2': None,
    '4242 sos 3': {'x1': Fraction(-1, 2), 'x2': Fraction(-1, 2), 'x3': Fraction(-1, 2)},
    '4242 lin 3': None,
    '7 lin 2': None,
    '7 lin 3': None,
    'late hit': {'x1': Fraction(1, 5), 'x2': Fraction(-3, 5)},
    'cubic hit': {'x1': Fraction(0, 1), 'x2': Fraction(0, 1), 'x3': Fraction(-2, 3)},
    'rational miss': None,
    'no parameters': None,
}


class TestFrozenOutputs:
    @pytest.mark.parametrize("name", list(DIVISION_CASES))
    def test_division_outputs_are_unchanged(self, name):
        assert _division_digest(*DIVISION_CASES[name]) == DIVISION_DIGESTS[name]

    @pytest.mark.parametrize("name", list(GRID_CASES))
    def test_grid_results_are_unchanged(self, name):
        text, radius, resolution = GRID_CASES[name]
        hit = hyperbolic_falsify_grid(dist(text), radius, resolution)
        assert repr(hit) == repr(GRID_RESULTS[name])


_BAD_DEGREES = st.one_of(NOT_INTEGERS, st.integers(max_value=0))
_NOT_POLYS = st.one_of(st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
                       st.none(), st.fractions(), st.lists(st.integers(), max_size=2))
_NOT_NAMES = st.one_of(st.booleans(), st.integers(), st.floats(), st.none(),
                       st.fractions(), st.tuples(st.text(max_size=1)))


@st.composite
def _malformed_division_calls(draw):
    """One call of a Weierstrass-division entry point with one malformed
    argument, as (label, thunk)."""
    phi, Ppoly, F = dist("y^2 + x"), P("z^3 + x*z"), generic_divisor(2)
    op = draw(st.sampled_from(["specialize P", "specialize phi", "specialize var",
                               "euclid P", "euclid F", "euclid var",
                               "generic d", "generic var",
                               "distinguished var", "distinguished d",
                               "distinguished a"]))
    if op == "specialize P":
        bad = draw(_NOT_POLYS)
        return op, lambda: specialize_division(bad, phi)
    if op == "specialize phi":
        bad = draw(st.one_of(_NOT_POLYS, st.just(P("y^2 + x"))))
        return op, lambda: specialize_division(Ppoly, bad)
    if op == "specialize var":
        bad = draw(_NOT_NAMES)
        return op, lambda: specialize_division(Ppoly, phi, bad)
    if op == "euclid P":
        bad = draw(_NOT_POLYS)
        return op, lambda: euclid_divide(bad, F, "z")
    if op == "euclid F":
        bad = draw(_NOT_POLYS)
        return op, lambda: euclid_divide(Ppoly, bad, "z")
    if op == "euclid var":
        bad = draw(_NOT_NAMES)
        return op, lambda: euclid_divide(Ppoly, F, bad)
    if op == "generic d":
        bad = draw(_BAD_DEGREES)
        return op, lambda: generic_divisor(bad)
    if op == "generic var":
        bad = draw(_NOT_NAMES)
        return op, lambda: generic_divisor(2, bad)
    if op == "distinguished var":
        bad = draw(_NOT_NAMES)
        return op, lambda: DistinguishedPoly(bad, 1, [P("x")])
    if op == "distinguished d":
        bad = draw(_BAD_DEGREES)
        return op, lambda: DistinguishedPoly("y", bad, [P("x")])
    # not a list, or one coefficient that is not a MultiPoly; a list of the
    # wrong length is an arity mismatch
    bad = draw(st.one_of(_NOT_POLYS.filter(lambda v: not isinstance(v, list)),
                         st.lists(_NOT_POLYS, min_size=1, max_size=1)))
    return op, lambda: DistinguishedPoly("y", 1, bad)


_NOT_SEQUENCES = st.one_of(_NOT_POLYS, st.just(P("x")))


@st.composite
def _malformed_decision_calls(draw):
    """One call of a hyperbolicity, regularity or witness entry point with
    one malformed argument, as (label, thunk)."""
    phi, grid_phi = dist("y^2 + x"), dist("y^2 + x1^2 + x2^2")
    op = draw(st.sampled_from(["check phi", "check side", "grid phi", "grid radius",
                               "grid resolution", "from_multipoly phi", "from_multipoly var",
                               "regular phi", "regular var", "strict F", "strict d",
                               "strict var", "nodiv M", "nodiv J", "nodiv K",
                               "flat alpha", "flat k", "flat J", "flat bits"]))
    if op == "check phi":
        bad = draw(st.one_of(_NOT_POLYS, st.just(P("y^2 + x"))))
        return op, lambda: hyperbolic_check_2d(bad)
    if op == "check side":
        bad = draw(st.one_of(_NOT_POLYS, st.sampled_from(["", "up", "Both", "plus "])))
        return op, lambda: hyperbolic_check_2d(phi, bad)
    if op == "grid phi":
        bad = draw(st.one_of(_NOT_POLYS, st.just(P("y^2 + x1^2"))))
        return op, lambda: hyperbolic_falsify_grid(bad, Fraction(1, 2), 1)
    if op == "grid radius":
        bad = draw(st.one_of(NOT_EXACT, st.integers(max_value=0),
                             st.fractions(max_value=0)))
        return op, lambda: hyperbolic_falsify_grid(grid_phi, bad, 1)
    if op == "grid resolution":
        bad = draw(_BAD_DEGREES)
        return op, lambda: hyperbolic_falsify_grid(grid_phi, Fraction(1, 2), bad)
    if op == "from_multipoly phi":
        bad = draw(st.one_of(_NOT_POLYS, st.sampled_from([P("x^2"), MultiPoly(("y",))])))
        return op, lambda: DistinguishedPoly.from_multipoly(bad, "y")
    if op == "from_multipoly var":
        bad = draw(_NOT_NAMES)
        return op, lambda: DistinguishedPoly.from_multipoly(P("y^2 + x"), bad)
    if op == "regular phi":
        bad = draw(_NOT_POLYS)
        return op, lambda: regular_order(bad, "y")
    if op == "regular var":
        bad = draw(_NOT_NAMES)
        return op, lambda: regular_order(P("y^2 + x"), bad)
    if op == "strict F":
        bad = draw(_NOT_POLYS)
        return op, lambda: strictly_regular_check(bad, 2, "y")
    if op == "strict d":
        bad = draw(st.one_of(NOT_INTEGERS, st.integers(max_value=-1)))
        return op, lambda: strictly_regular_check(P("y^2 + x^3"), bad, "y")
    if op == "strict var":
        bad = draw(_NOT_NAMES)
        return op, lambda: strictly_regular_check(P("y^2 + x^3"), 2, bad)
    if op == "nodiv M":
        bad = draw(_NOT_SEQUENCES)
        return op, lambda: nodiv_witness(bad, 1, 10)
    if op == "nodiv J":
        bad = draw(_BAD_DEGREES)
        return op, lambda: nodiv_witness(gevrey(1), bad, 10)
    if op == "nodiv K":
        # too small for J = 1 (K >= 2J + 8), negative, or not an int
        bad = draw(st.one_of(NOT_INTEGERS, st.integers(max_value=9)))
        return op, lambda: nodiv_witness(gevrey(1), 1, bad)
    if op == "flat alpha":
        bad = draw(st.one_of(NOT_EXACT, st.integers(max_value=0), st.fractions(max_value=0)))
        return op, lambda: gevrey_flat_witness(bad, 1, 2)
    if op == "flat k":
        bad = draw(_BAD_DEGREES)
        return op, lambda: gevrey_flat_witness(Fraction(1, 2), bad, 2)
    if op == "flat J":
        bad = draw(_BAD_DEGREES)
        return op, lambda: gevrey_flat_witness(Fraction(1, 2), 1, bad)
    bad = draw(st.one_of(NOT_INTEGERS.filter(lambda v: v is not None),
                         st.integers(max_value=0)))
    return op, lambda: gevrey_flat_witness(Fraction(1, 2), 1, 2, bad)


class TestErrorContract:
    @settings(max_examples=300, deadline=None)
    @given(_malformed_division_calls())
    def test_malformed_input_raises_a_coded_domain_error(self, call):
        label, thunk = call
        with pytest.raises(QalError) as info:
            thunk()
        assert isinstance(info.value, DomainError), label
        assert info.value.code == "domain-error"

    @settings(max_examples=300, deadline=None)
    @given(_malformed_decision_calls())
    def test_malformed_decision_input_raises_a_coded_domain_error(self, call):
        label, thunk = call
        with pytest.raises(QalError) as info:
            thunk()
        assert isinstance(info.value, DomainError), label
        assert info.value.code == "domain-error"

    @pytest.mark.parametrize("call", [
        lambda: specialize_division(P("z^2"), P("y^2 + x")),
        lambda: specialize_division("z^2", dist("y^2 + x")),
        lambda: euclid_divide("z", generic_divisor(2), "z"),
        lambda: generic_divisor(-1),
        lambda: generic_divisor(0),
        lambda: generic_divisor(True),
        lambda: generic_divisor(1.5),
        lambda: DistinguishedPoly("y", True, [P("x")]),
        lambda: DistinguishedPoly("y", 1.0, [P("x")]),
        lambda: nodiv_witness(gevrey(1), 2.5, 16),
        lambda: regular_order("x", "y"),
        lambda: strictly_regular_check(P("x"), "a", "y"),
        lambda: strictly_regular_check(P("y^2"), -1, "y"),
        lambda: hyperbolic_falsify_grid(dist("y^2 + x1^2 + x2^2"), "abc", 1),
        lambda: hyperbolic_falsify_grid(dist("y^2 + x1^2 + x2^2"), None, 1),
        lambda: hyperbolic_falsify_grid(dist("y^2 + x1^2 + x2^2"), 0.5, 1),
        lambda: gevrey_flat_witness("x", 1, 4),
        lambda: gevrey_flat_witness(1/2, 1, "z"),
        lambda: gevrey_flat_witness(Fraction(1, 2), 1, "z"),
        lambda: gevrey_flat_witness(Fraction(1, 2), 1.5, 4),
    ], ids=["phi-multipoly", "P-text", "euclid-P-text", "generic-negative", "generic-zero",
            "generic-bool", "generic-float", "distinguished-bool", "distinguished-float",
            "nodiv-float-J", "regular-order-text", "strictly-regular-text-d",
            "strictly-regular-negative-d", "grid-text-radius", "grid-None-radius",
            "grid-float-radius", "flat-text-alpha", "flat-float-alpha", "flat-text-J",
            "flat-float-k"])
    def test_calls_that_escaped_the_contract(self, call):
        # each raised a bare AttributeError, TypeError or ValueError, took a
        # float as a value or a negative order, or returned a result
        with pytest.raises(DomainError) as info:
            call()
        assert info.value.code == "domain-error"


class TestErrors:
    def test_check_2d_rejects_a_plain_multipoly(self):
        with pytest.raises(DomainError) as info:
            hyperbolic_check_2d(P("y^2 - x^2"))
        assert info.value.code == "domain-error"

    def test_falsify_grid_rejects_a_plain_multipoly(self):
        with pytest.raises(DomainError) as info:
            hyperbolic_falsify_grid(P("y^2 + x1^2 + x2^2"), Fraction(1), 2)
        assert info.value.code == "domain-error"

    @pytest.mark.parametrize("resolution", [1.5, True, False, 0, -2, Fraction(2), "2", None])
    def test_falsify_grid_rejects_a_bad_resolution(self, resolution):
        phi = DistinguishedPoly("y", 2, [MultiPoly(("x1", "x2")), P("x1^2 + x2^2")])
        with pytest.raises(DomainError) as info:
            hyperbolic_falsify_grid(phi, Fraction(1, 2), resolution)
        assert info.value.code == "domain-error"

    @pytest.mark.parametrize("radius", [0, Fraction(-1, 2)])
    def test_falsify_grid_rejects_a_nonpositive_radius(self, radius):
        phi = DistinguishedPoly("y", 2, [MultiPoly(("x1", "x2")), P("x1^2 + x2^2")])
        with pytest.raises(DomainError):
            hyperbolic_falsify_grid(phi, radius, 2)


class TestDistinguishedPolyChecks:
    def test_wrong_number_of_coefficients(self):
        with pytest.raises(ArityMismatchError) as info:
            DistinguishedPoly("y", 2, [P("x")])
        assert info.value.code == "arity-mismatch"

    @pytest.mark.parametrize("a, why", [(P("x + 1"), "does not vanish at 0"),
                                        (P("x*y"), "involves y")])
    def test_bad_coefficient(self, a, why):
        with pytest.raises(DomainError, match=why):
            DistinguishedPoly("y", 2, [P("x"), a])

    def test_from_multipoly_without_a_main_variable_degree(self):
        for text in ("x^2", "x*z"):
            with pytest.raises(DomainError, match="no main-variable degree"):
                dist(text)

    def test_from_multipoly_not_monic(self):
        for text in ("2*y^2 + x", "x*y^2 + y + x"):
            with pytest.raises(NonMonicDivisorError) as info:
                dist(text)
            assert info.value.code == "non-monic-divisor"

    def test_unknown_side(self):
        with pytest.raises(DomainError, match="side must be"):
            hyperbolic_check_2d(dist("y^2 + x"), side="up")

    def test_report_to_json(self):
        out = hyperbolic_check_2d(dist("y^2 + x"))
        assert out.to_json() == {"verdict": "not-hyperbolic", "witness_side": "plus",
                                 "degree": 2, "multiplicity_excess": 0,
                                 "real_root_counts": {"plus": 0, "minus": 2}}


class TestCertificationErrors:
    def test_failed_reexpansion_is_coded(self, monkeypatch):
        monkeypatch.setattr(MultiPoly, "__eq__", lambda self, other: False)
        with pytest.raises(CertificationError) as err:
            euclid_divide(P("z^3"), generic_divisor(2), "z")
        assert err.value.code == "certification-error"
        assert isinstance(err.value, ArithmeticError)

    def test_failed_specialization_is_coded(self, monkeypatch):
        # a fault in the division's arithmetic: after each product step, every
        # coefficient of the row it wrote into is off by one
        exact = division._accumulate_product

        def off_by_one(out, a, b):
            exact(out, a, b)
            for key in out:
                out[key] += 1

        monkeypatch.setattr(division, "_accumulate_product", off_by_one)
        with pytest.raises(CertificationError) as err:
            specialize_division(P("z^2"), dist("y^2 + x"), "z")
        assert err.value.code == "certification-error"


class TestNoDivWitness:
    def test_certified_bounds_gevrey1(self):
        out = nodiv_witness(gevrey(1), 6, 20)
        for j, (c, low) in enumerate(zip(out.c_values, out.lower_bounds)):
            assert c.lo >= low
            assert low == factorial(2 * j)

    def test_diagnostic_strictly_increasing_gevrey1(self):
        # oracle: ((2j)!/j!)^(1/j) increasing <=> cross-powered integer compare
        for j in range(1, 6):
            a = Fraction(factorial(2 * j), factorial(j))
            b = Fraction(factorial(2 * j + 2), factorial(j + 1))
            assert a ** (j + 1) < b**j
        out = nodiv_witness(gevrey(1), 6, 20)
        for d1, d2 in zip(out.diagnostics, out.diagnostics[1:]):
            assert d1.hi < d2.lo

    def test_analytic_degenerates(self):
        out = nodiv_witness(analytic(), 4, 16)
        for d in out.diagnostics:
            assert d.lo <= 1 <= d.hi
        assert "degenerates" in out.symbolic_note

    @pytest.mark.parametrize("M", [gevrey(1), analytic()], ids=str)
    def test_coefficients_contain_the_exact_partial_sums(self, M):
        # oracle: c_j = sum_k Mbar_k (2 m_k)^(2j-k) / (2j)!, summed exactly;
        # the sum through K is the lower end of the enclosure, and the sum
        # 30 terms further lies below the true value, hence inside too
        J, K = 5, 20
        mbar = [factorial(k) * M.exact_value(k) for k in range(K + 32)]

        def partial(j, top):
            return sum((mbar[k] * (2 * mbar[k + 1] / mbar[k]) ** (2 * j - k)
                        for k in range(top + 1)), Fraction(0)) / factorial(2 * j)

        out = nodiv_witness(M, J, K)
        for j, c in enumerate(out.c_values):
            assert c.contains(partial(j, K)), j
            assert c.contains(partial(j, K + 30)), j

    def test_builds_theta_once(self, monkeypatch):
        calls = []
        build = division.build_theta

        def recording(M, K, bits=None):
            calls.append(bits)
            return build(M, K, bits)

        monkeypatch.setattr(division, "build_theta", recording)
        nodiv_witness(loggevrey(1), 4, 16)
        assert len(calls) == 1

    def test_uncertified_coefficient_escalates_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(intervals, "_DEFAULT_BITS", 2048)
        calls = []
        build = division.build_theta

        def recording(M, K, bits=None):
            calls.append(bits)
            return build(M, K, bits)

        monkeypatch.setattr(division, "build_theta", recording)
        # an enclosure of c_j below M_{2j} never certifies
        monkeypatch.setattr(division, "_magnitude_at_zero",
                            lambda approx, j: RI(0, Fraction(1, 2)))
        with pytest.raises(PrecisionFailure) as info:
            nodiv_witness(gevrey(1), 2, 12)
        assert calls == [2048, 4096]
        assert info.value.code == "precision-failure"
        assert "c_0" in str(info.value)

    def test_needs_one_order(self):
        with pytest.raises(DomainError):
            nodiv_witness(gevrey(1), 0, 16)


class TestFlatWitness:
    def test_first_row_alpha1_k1(self):
        # value at j=1 is -2/e
        out = gevrey_flat_witness(Fraction(1), 1, 3)
        row = out.rows[0]
        two_over_e = 2 * iv_exp(Fraction(-1), 128)
        assert row.value.hi < 0
        assert row.value.abs().lo <= two_over_e.hi
        assert row.value.abs().hi >= two_over_e.lo

    def test_constant_certifies_bound(self):
        out = gevrey_flat_witness(Fraction(1), 2, 5)
        C = out.constant
        assert C > 0
        for r in out.rows:
            assert C ** (r.j + 1) * r.bound_base.hi <= r.value.abs().lo

    def test_ratios_monotone_for_k2(self):
        out = gevrey_flat_witness(Fraction(1), 2, 5)
        for r1, r2 in zip(out.rows, out.rows[1:]):
            assert r1.ratio.hi < r2.ratio.lo

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            gevrey_flat_witness(Fraction(-1), 1, 3)

    def test_tiny_constant_is_found(self):
        # the largest valid constant is about 3.8e-61, far below any fixed
        # starting floor for a bisection
        out = gevrey_flat_witness(Fraction(200), 2, 4)
        C = out.constant
        assert Fraction(37, 10 ** 62) < C < Fraction(38, 10 ** 62)
        assert all(C ** (r.j + 1) * r.bound_base.hi <= r.value.abs().lo
                   for r in out.rows)
        # and it is the largest valid one to relative granularity 2^-16
        larger = C * (1 + Fraction(1, 1 << 15))
        assert not all(larger ** (r.j + 1) * r.bound_base.hi <= r.value.abs().lo
                       for r in out.rows)
