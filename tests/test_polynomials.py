import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qal import polynomials
from qal.errors import DomainError, QalError, QalSyntaxError
from qal.polynomials import MultiPoly, _var_key, parse_polynomial

from malformed import NOT_EXACT


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

    def test_variable_names_sort_without_ties(self):
        names = ["x10", "x1", "x0", "x01", "x", "x2", "y"]
        assert sorted(names, key=_var_key) == ["x", "x0", "x01", "x1", "x2", "x10", "y"]

    def test_variable_order_is_the_same_under_every_string_hash(self):
        # x and x0 (x1 and x01) once shared a sort key, and the order of a set
        # of names, which follows the per-process string hash, decided
        code = ("from qal.polynomials import parse_polynomial as P; "
                "print(P('x*y + x0').vars, P('x1*y + x01').vars)")
        src = os.path.dirname(os.path.dirname(polynomials.__file__))
        outputs = set()
        for seed in range(1, 7):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            outputs.add(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                       capture_output=True, text=True).stdout)
        assert outputs == {"('x', 'x0', 'y') ('x01', 'x1', 'y')\n"}

    def test_unexpected_character(self):
        with pytest.raises(QalSyntaxError):
            P("x + $")

    @pytest.mark.parametrize("text, expected", [
        ("y^^2", (QalSyntaxError, 2)),
        ("x + $", (QalSyntaxError, 4)),
        ("1/0*x", (QalSyntaxError, 0)),
        ("0.5*x", (("x",), {(1,): Fraction(1, 2)})),
        ("x/2", (QalSyntaxError, 1)),
        ("x^-1", (QalSyntaxError, 2)),
        ("x^2/3", (QalSyntaxError, 2)),
        ("x^1/2", (QalSyntaxError, 2)),
        ("", (QalSyntaxError, 0)),
        ("x y", (QalSyntaxError, 2)),
        ("2x", (QalSyntaxError, 1)),
        ("(x + 1", (QalSyntaxError, 6)),
        ("x)", (QalSyntaxError, 1)),
        ("--x", (("x",), {(1,): Fraction(1)})),
        ("x^0", (("x",), {(0,): Fraction(1)})),
        ("3/6*y", (("y",), {(1,): Fraction(1, 2)})),
    ], ids=repr)
    def test_golden_corpus(self, text, expected):
        # each text's variables and coefficients, or its error class and offset
        try:
            poly = P(text)
        except Exception as exc:
            assert (type(exc), getattr(exc, "position", None)) == expected
        else:
            assert (poly.vars, poly.coeffs) == expected

    # at most 8 characters keep every power small: 2^222222 at the largest
    @settings(max_examples=300, deadline=None)
    @given(st.text("xy012/.-+*^() ", max_size=8))
    @example("1/0*x")
    def test_returns_or_raises_a_qal_error(self, text):
        try:
            P(text)
        except QalSyntaxError as exc:
            assert 0 <= exc.position <= len(text)
        except QalError:
            pass

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
        lambda: P(None),
        lambda: P("x") ** 1.5,
        lambda: MultiPoly(("x",), {(1, 2): 1}) + P("x"),
        lambda: MultiPoly(("x", "x"), {(1, 2): 1}),
        lambda: MultiPoly(("x",), {(-1,): 1}),
        lambda: MultiPoly("xy", {(1, 0): 1}),
        lambda: MultiPoly(["x"], {(1,): 1}),
        lambda: MultiPoly(("x",), {(0.5,): 1}),
        lambda: MultiPoly(("x", "y"), {(1, None): 1}),
        lambda: MultiPoly(("x",), {(0,): 1, (1.5,): 1}),
        lambda: MultiPoly(("x",), {(0,): 1, (True,): 1}),
        lambda: MultiPoly.constant("a"),
        lambda: MultiPoly.constant(True),
        lambda: MultiPoly(("x",), {(1,): "a", (0,): Fraction(3, 2)}),
        lambda: MultiPoly(("x",), {(1,): 1, (0,): 1.5}),
        lambda: MultiPoly(("x",), {(1,): True}),
        lambda: MultiPoly(("x",), {(1,): None}),
        lambda: MultiPoly(("x",), {(1,): 1j}),
        lambda: MultiPoly(("x",), {(1,): [1]}),
    ], ids=["variable-outside-vars", "negative-power", "substitute-outside-vars",
            "parse-None", "float-power", "key-longer-than-vars", "repeated-variable",
            "negative-exponent", "string-of-variables", "list-of-variables",
            "float-exponent", "None-exponent", "float-above-int-exponent",
            "bool-above-int-exponent", "text-constant", "bool-constant",
            "text-coefficient", "float-coefficient", "bool-coefficient",
            "None-coefficient", "complex-coefficient", "list-coefficient"])
    def test_domain_errors(self, call):
        with pytest.raises(DomainError) as info:
            call()
        assert info.value.code == "domain-error"

    def test_a_bool_is_not_data(self):
        assert P("1") != True and P("0") != False      # noqa: E712
        assert P("1") == 1 and P("0") == 0


# -- error contract ----------------------------------------------------------------------

_NAMES = ["x", "y", "x1", "x2", "x10"]


@st.composite
def _polys(draw):
    """The empty polynomial, a zero polynomial over some variables, a
    constant, or a sparse polynomial over up to three variables."""
    kind = draw(st.sampled_from(["empty", "zero", "constant", "sparse"]))
    if kind == "empty":
        return MultiPoly(())
    names = tuple(sorted(draw(st.lists(st.sampled_from(_NAMES), max_size=3, unique=True)),
                         key=_var_key))
    if kind == "zero":
        return MultiPoly(names)
    if kind == "constant":
        return MultiPoly.constant(draw(st.fractions(-5, 5)), names)
    exps = st.tuples(*(st.integers(0, 3) for _ in names))
    return MultiPoly(names, draw(st.dictionaries(exps, st.fractions(-5, 5), max_size=4)))


@st.composite
def _malformed_poly_calls(draw):
    """One MultiPoly operation with one malformed argument, as (label, thunk)."""
    p = draw(_polys())
    op = draw(st.sampled_from(["+", "r+", "-", "r-", "*", "r*", "**", "eval", "substitute",
                               "derivative", "coefficient var", "coefficient power",
                               "degree", "with_vars"]))
    bad = draw(NOT_EXACT)
    if op == "**":
        n = draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=4097),
                           st.booleans(), st.floats(), st.fractions(), st.none()))
        return f"p ** {n!r}", lambda: p ** n
    if op in ("eval", "substitute"):
        # not a dict; a variable left out (eval) or not among p's (substitute);
        # a value that is not exact data (eval) or not a MultiPoly (substitute)
        args = [draw(NOT_EXACT.filter(lambda v: not isinstance(v, dict)))]
        if op == "substitute":
            args.append({"z": MultiPoly.variable("x")})
        if p.vars:
            args.append({v: bad for v in p.vars})
            if op == "eval":
                args.append({v: Fraction(1, 2) for v in p.vars[1:]})
        arg = draw(st.sampled_from(args))
        return f"{op}({arg!r})", lambda: getattr(p, op)(arg)
    if op == "with_vars":
        arg = draw(st.one_of(
            NOT_EXACT.filter(lambda v: not isinstance(v, tuple)),
            st.just(tuple(p.vars) + (1,)),
            st.just(tuple(p.vars) + p.vars[:1] + ("z", "z")),
            st.just(p.vars[1:]) if p.vars else st.just(("z", "z"))))
        return f"with_vars({arg!r})", lambda: p.with_vars(arg)
    var = draw(st.one_of(st.just("z"), NOT_EXACT))
    return f"{op} {bad!r} {var!r}", {
        "+": lambda: p + bad, "r+": lambda: bad + p, "-": lambda: p - bad,
        "r-": lambda: bad - p, "*": lambda: p * bad, "r*": lambda: bad * p,
        "derivative": lambda: p.derivative(var), "degree": lambda: p.degree(var),
        "coefficient var": lambda: p.coefficient(var, 1),
        "coefficient power": lambda: p.coefficient(p.vars[0] if p.vars else "z", bad),
    }[op]


class TestErrorContract:
    @settings(max_examples=500, deadline=None)
    @given(_malformed_poly_calls())
    def test_malformed_input_raises_a_coded_domain_error(self, call):
        label, thunk = call
        with pytest.raises(QalError) as info:
            thunk()
        assert isinstance(info.value, DomainError), label
        assert info.value.code == "domain-error", label

    @settings(max_examples=200, deadline=None)
    @given(_polys(), _polys(), st.integers(0, 4), st.fractions(-3, 3))
    def test_well_formed_calls_on_empty_and_zero_polynomials(self, p, q, n, value):
        # the same operations with well-formed arguments raise nothing
        for out in (p + q, p - q, p * q, p ** n, p + 1, 2 - p, p * value, value * p):
            assert isinstance(out, MultiPoly)
        assert p.eval({v: value for v in p.vars}) == p.eval({v: value for v in _NAMES})
        for v in p.vars:
            assert p.degree(v) >= -1
            assert p.derivative(v).vars == p.vars
            assert p.coefficient(v, 1).vars == tuple(w for w in p.vars if w != v)
            assert isinstance(p.substitute({v: q}), MultiPoly)
        assert p.with_vars(tuple(sorted(set(p.vars) | {"z"}, key=_var_key))) == p
