import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from qal import puiseux
from qal.errors import DomainError, QalError, TruncationInsufficient
from qal.polynomials import MultiPoly, parse_polynomial
from qal.puiseux import branch_im_order, d_exponent, puiseux_expand, shear_to_generic

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

# SHA-256 of the sorted-key JSON of puiseux_expand(g, T) and d_exponent(g, T)
# for each germ of GERMS at T = 4 and 6, frozen from the hand-written
# Fraction-tuple field arithmetic that sympy's field elements replaced; a
# change to any branch, coefficient, order or JSON key changes the digest
OUTPUT_DIGESTS = {
    ("y^2 + x^4", 4): "51d945559eaa97e9d1fc165661b1cb3c6d56886fda5139dc63632a422183b9e0",
    ("x^2 + y^4", 4): "4e5860bad150265318bbfe3e1b194f8d250b1003c17e1817c7d2bce87d8c5dd8",
    ("y^2 + x^6", 4): "746ffe36880fb5cf680f256dff000166bf9a348d1b2dbab80308291b0b36f090",
    ("y^3 + x^2*y + x^5", 4): "b701122aeb1f4bb42be7d6182e0b93e1515a79c012473770952ac2603f883656",
    ("(y - x^2)^2 + x^6", 4): "901635ace62979648c09544d3219905db7e644521b8976529e6eb77c74fba0dc",
    ("(y^2-x^3)^2 - 4*x^5*y - x^7", 4): "19d6b020c8d2dd33a3fffc90b49f2df39dfb80f93f9d80ec7cf5e0deeed7ad7b",
    ("y^2 - x^3", 4): "0b54cfc38bce93853a3f55b87365088ad852ce46476c076120c49275481a0151",
    ("(y-x)^2*(y+x)^3*(y^2+x^4)", 4): "7b12d4219a8cb0962aed3ad07e22f08a6b4bee8c70fadbe11bf321ab1de95ed3",
    ("x*(y^2 - x^3)", 4): "bf5c7404c835874c68f3edeb310fe792f3a2f6c6eb9da2b12d84f7ddb3db1f4d",
    ("(y^2+x^4)^2", 4): "36d99f591f7c355148fae498928d74ad9bad428d6e93152003e8a746a4472476",
    ("(y-x^2)^3 + x^7", 4): "ac4f24f25ed6eab411fc3afc61fb9edb6ccd294b636b304d6bd8d24ea6c62887",
    ("y^3 - x^4", 4): "483a7b617100d5a419e2b33053d751005e13cf93bfd2cbe05972636bd3467475",
    ("(1+y)*(y^2-x^5)", 4): "34b8cd5646ee481f5eaa1e4e3664173de0589921d83035c610480e37957b7278",
    ("y^2 + x^4", 6): "9fc63b2ee96c84527f83fd3cb16d1f6d1f478709968db573ebc7af5844fd818f",
    ("x^2 + y^4", 6): "883b263c4dd4b4c9e1d803a856a074983be98531976e29841248de44b0685890",
    ("y^2 + x^6", 6): "ceb3bd36dc13c4f571d737f227cbd2200caef3f6d75722dbc2a212471eaa621d",
    ("y^3 + x^2*y + x^5", 6): "bfd724cca4f22efbf330b7beb86ba5d1cae76011698a23e8bc5cc206d5ed1fbf",
    ("(y - x^2)^2 + x^6", 6): "f9e2ce9f452e407adba8d6a9741f0d576a06c1e6d49a52b7efa99978fc86b1a5",
    ("(y^2-x^3)^2 - 4*x^5*y - x^7", 6): "146c69488c1885ab0377b5b707df8ba8e94a0cc077819cfffd593abbe4d6b568",
    ("y^2 - x^3", 6): "d90adc0ac116b2a935781860d719ab9d28c42054f0f3ae839fadd5948c179b42",
    ("(y-x)^2*(y+x)^3*(y^2+x^4)", 6): "1415e678100fdd07252ad2b87ba223a4a3be5346e3e394272675e3cdb44d26a4",
    ("x*(y^2 - x^3)", 6): "1ef9b72c1b4a9788a81edec3c081847cc82284f393c200fe0e68d070f9fb4260",
    ("(y^2+x^4)^2", 6): "6895bf96e7a758fe6c7964d1418e3b06e3dd7f879f1e03e2b9caf795161afbba",
    ("(y-x^2)^3 + x^7", 6): "0da9cf1ba9f7023306ead6a49f8d2a2dc6d7e861e4580f1166ed1ddf778e73b5",
    ("y^3 - x^4", 6): "a2c5c5153499b671a3dd156d19a53bf1c6377038cf0cce2b1b9d308778d4efb1",
    ("(1+y)*(y^2-x^5)", 6): "8050fb3df3b353a93ea6e6bde6a51d8e5e6595a24c3b366dba7ae68b8cbd1431",
}


@pytest.mark.parametrize("text, T", list(OUTPUT_DIGESTS))
def test_output_is_unchanged(text, T):
    phi = parse_polynomial(text)
    doc = {"expand": puiseux_expand(phi, T).to_json(),
           "d_exponent": d_exponent(phi, T).to_json()}
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == OUTPUT_DIGESTS[(text, T)]


# SHA-256 of the sorted-key JSON of puiseux_expand for the squared cusp at
# T = 8, frozen from the Newton polygon iteration on Fraction x-exponents
# that the integer exponents of t = x^(1/r) replaced
CUSP_T8_DIGEST = "6cc8749af8e26d1e216e579244d1be61a72f280e746f8a86d2823c5b7933bb7c"


def test_squared_cusp_output_at_t8_is_unchanged():
    doc = puiseux_expand(parse_polynomial("(y^3-x^2)^2 - x^5"), 8).to_json()
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == CUSP_T8_DIGEST


def test_d_exponent_builds_no_primitive_element(monkeypatch):
    # every field domain of the towers is given its modulus; sympy's
    # primitive element search never runs
    def refuse(*args, **kwargs):
        raise AssertionError("sympy computed a primitive element")

    monkeypatch.setattr(sympy.polys.numberfields.subfield, "primitive_element", refuse)
    for text in ["y^3 + x^2*y + x^5", "(y^2-x^3)^2 - 4*x^5*y - x^7"]:
        assert d_exponent(parse_polynomial(text), 4).d_value == dict(GERMS)[text]


def _perturbed(branch, i):
    terms = list(branch.terms)
    e, c = terms[i]
    terms[i] = (e, c + 1)
    return replace(branch, terms=terms)


def test_branch_check_rejects_a_perturbed_exact_branch():
    # the exact branches i x^2, x and -x of (y-x)^2 (y+x)^3 (y^2+x^4)
    expansion = puiseux_expand(parse_polynomial("(y-x)^2*(y+x)^3*(y^2+x^4)"), 4)
    exact = [b for b in expansion.branches if b.exact]
    assert len(exact) == 3
    for branch in exact:
        puiseux._certify_branch(expansion.phi, branch, expansion.truncation)
        with pytest.raises(TruncationInsufficient) as info:
            puiseux._certify_branch(expansion.phi, _perturbed(branch, 0),
                                    expansion.truncation)
        assert info.value.code == "truncation-insufficient"


def test_branch_check_rejects_a_perturbed_leading_coefficient():
    expansion = puiseux_expand(parse_polynomial("(y^3-x^2)^2 - x^5"), 6)
    (branch,) = expansion.branches
    assert not branch.exact
    with pytest.raises(TruncationInsufficient) as info:
        puiseux._certify_branch(expansion.phi, _perturbed(branch, 0),
                                expansion.truncation)
    assert info.value.code == "truncation-insufficient"


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


@pytest.mark.parametrize("T", ["a", None, True, 1.5])
def test_truncation_must_be_an_int_or_a_fraction(T):
    phi = parse_polynomial("y^2 + x^4")
    with pytest.raises(DomainError):
        puiseux_expand(phi, T)
    with pytest.raises(DomainError):
        d_exponent(phi, T)


@pytest.mark.parametrize("text", ["y^2 - x^3 + z*y", "y^2 - t^3"])
def test_germ_outside_x_and_y_is_rejected(text):
    phi = parse_polynomial(text)
    with pytest.raises(DomainError):
        puiseux_expand(phi, 4)
    with pytest.raises(DomainError):
        d_exponent(phi, 4)


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


@pytest.mark.parametrize("call", [
    lambda: d_exponent("y^2", 4),
    lambda: puiseux_expand("y^2", 4),
], ids=["d_exponent-text", "puiseux_expand-text"])
def test_a_germ_given_as_text_is_a_domain_error(call):
    # each raised a bare AttributeError
    with pytest.raises(DomainError) as info:
        call()
    assert info.value.code == "domain-error"


def test_puiseux_and_algebraic_do_not_import_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(puiseux.__file__)))
    code = "import sys, qal.puiseux, qal.algebraic; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


# -- error contract ----------------------------------------------------------------------

_NOT_A_GERM = st.one_of(st.text(max_size=4), st.none(), st.booleans(), st.integers(),
                        st.floats(), st.fractions(), st.lists(st.integers(), max_size=2))
_TRUNCATIONS = st.one_of(st.integers(-3, 0), st.fractions(max_value=0),
                         st.fractions(min_value=Fraction(1, 8), max_value=2),
                         st.integers(1, 2), st.booleans(), st.floats(), st.none(),
                         st.text(max_size=2), st.sampled_from(["4", "1/2", "x"]))


@st.composite
def _germs(draw):
    """Something that is not a polynomial, a zero or constant polynomial,
    a polynomial with a third variable, or a small polynomial in x and y,
    most of them through the origin."""
    kind = draw(st.sampled_from(["other", "zero", "constant", "third", "xy"]))
    names = draw(st.sampled_from([(), ("x",), ("y",), ("x", "y")]))
    if kind == "other":
        return draw(_NOT_A_GERM)
    if kind == "zero":
        return MultiPoly(names)
    if kind == "constant":
        return MultiPoly.constant(draw(st.fractions(-3, 3)), names)
    if kind == "third":
        names = ("x", "y", draw(st.sampled_from(["z", "t", "x1"])))
    exps = st.tuples(*(st.integers(0, 3) for _ in names))
    if draw(st.integers(0, 3)):
        exps = exps.filter(any)
    return MultiPoly(names, draw(st.dictionaries(exps, st.integers(-2, 2), max_size=4)))


class TestErrorContract:
    @settings(max_examples=150, deadline=None)
    @given(_germs(), _TRUNCATIONS, st.sampled_from(["puiseux_expand", "d_exponent",
                                                     "shear_to_generic", "branch_im_order"]))
    def test_malformed_input_raises_only_a_coded_qal_error(self, phi, T, name):
        call = {"puiseux_expand": lambda: puiseux_expand(phi, T),
                "d_exponent": lambda: d_exponent(phi, T),
                "shear_to_generic": lambda: shear_to_generic(phi),
                "branch_im_order": lambda: branch_im_order(phi)}[name]
        try:
            call()
        except QalError as e:
            assert e.code == type(e).code and e.code != QalError.code, (name, phi, T)

    @pytest.mark.parametrize("call", [
        lambda: shear_to_generic(None),
        lambda: shear_to_generic("y^2"),
        lambda: shear_to_generic(parse_polynomial("3")),
        lambda: shear_to_generic(parse_polynomial("y^2 + x + 1")),
        lambda: branch_im_order(None),
        lambda: branch_im_order(parse_polynomial("y - x")),
    ], ids=["shear-None", "shear-text", "shear-constant", "shear-off-the-origin",
            "branch-None", "branch-polynomial"])
    def test_calls_that_escaped_the_contract(self, call):
        # each raised a bare AttributeError or returned a shear of a
        # polynomial that is no germ through the origin
        with pytest.raises(DomainError) as info:
            call()
        assert info.value.code == "domain-error"
