import collections
import contextlib
import itertools
import math
import time
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from qal import intervals, sequences
from qal.errors import DomainError, QalError, QalSyntaxError, UndecidableAtCap
from qal.intervals import RI
from qal.rationals import exact_pow, factorial
from qal.sequences import (CarlemanSequence, analytic, check_log_convexity,
                           classify, custom, gevrey, loggevrey, parse_sequence,
                           power, precede, qgevrey, shift, value,
                           verify_superadditivity, TRUE, FALSE, INCONCLUSIVE)

from malformed import BAD_ORDERS, NOT_DATA, NOT_INTEGERS, NOT_LISTS, NOT_SEQUENCES, with_one_bad


BUILTINS = [analytic(), gevrey(1), gevrey(2), gevrey(Fraction(1, 2)),
            qgevrey(2), qgevrey(3), loggevrey(Fraction(1, 2)), loggevrey(1),
            loggevrey(2)]


class TestParser:
    def test_direct_parses(self):
        assert parse_sequence("gevrey(1)") == gevrey(1)
        assert parse_sequence("qgevrey(2)") == qgevrey(2)
        assert parse_sequence("analytic") == analytic()
        assert parse_sequence("loggevrey(1/2)") == loggevrey(Fraction(1, 2))
        assert parse_sequence("gevrey(0.5)") == gevrey(Fraction(1, 2))

    def test_rejected_parameters(self):
        with pytest.raises(DomainError):
            parse_sequence("gevrey(-1)")
        with pytest.raises(DomainError):
            parse_sequence("qgevrey(1)")
        with pytest.raises(DomainError):
            parse_sequence("loggevrey(0)")

    def test_syntax_errors_carry_positions(self):
        with pytest.raises(QalSyntaxError) as err:
            parse_sequence("gevrey[1]")
        assert err.value.position == 6
        with pytest.raises(QalSyntaxError):
            parse_sequence("frobenius(2)")
        with pytest.raises(QalSyntaxError):
            parse_sequence("gevrey(1) trailing")

    @pytest.mark.parametrize("text, expected", [
        ("GEVREY(2)", gevrey(2)),
        ("gevrey(+2)", gevrey(2)),
        ("gevrey(.5)", gevrey(Fraction(1, 2))),
        ("gevrey(5.)", gevrey(5)),
        ("gevrey(1e1)", gevrey(10)),
        ("gevrey(1.5e-1)", gevrey(Fraction(3, 20))),
        ("gevrey(1/0)", (QalSyntaxError, 7)),
        ("gevrey(--1)", (QalSyntaxError, 8)),
        ("gevrey(1.5.2)", (QalSyntaxError, 10)),
        ("gevrey(1/2.5)", (QalSyntaxError, 10)),
        ("gevrey(-1)", (DomainError, None)),
        ("qgevrey(1)", (DomainError, None)),
        ("custom{ terms = [ 1 , 3/2 ] }", custom([1, Fraction(3, 2)])),
        ("custom{terms=[]}", (QalSyntaxError, 14)),
        ("custom{terms=[1,2,1/0]}", (QalSyntaxError, 18)),
        ("custom{foo=[1]}", (QalSyntaxError, 7)),
        ("custom{assume=[moderate_growth]}", (QalSyntaxError, 32)),
        ("custom{terms=[1, 2]; assume=[foo]}", (DomainError, None)),
        ("analytic()", (QalSyntaxError, 8)),
        ("gevrey(1", (QalSyntaxError, 8)),
        ("gevrey()", (QalSyntaxError, 7)),
    ], ids=repr)
    def test_golden_corpus(self, text, expected):
        # each text's sequence, or its error class and offset
        try:
            seq = parse_sequence(text)
        except Exception as exc:
            assert (type(exc), getattr(exc, "position", None)) == expected
        else:
            assert seq == expected

    def test_custom_parse(self):
        seq = parse_sequence("custom{terms=[1, 2, 6, 24]; assume=[derivation_stable]}")
        assert seq.terms == (1, 2, 6, 24)
        assert seq.assume == frozenset({"derivation_stable"})

    def test_round_trip_through_canonical_printer(self):
        for text in ["analytic", "gevrey(1)", "gevrey(1/2)", "loggevrey(2)",
                     "qgevrey(3/2)", "custom{terms=[1, 2, 6]}",
                     "custom{terms=[1, 1, 2]; assume=[quasianalytic]}"]:
            seq = parse_sequence(text)
            assert parse_sequence(seq.dsl()) == seq


_NOT_NUMBERS = st.one_of(st.booleans(), st.none(),
                         st.sampled_from([math.nan, math.inf, -math.inf]),
                         st.text("xy/.", max_size=3),
                         st.complex_numbers().filter(lambda z: z.imag), st.tuples(),
                         st.lists(st.integers(), max_size=1), st.just(gevrey(1)))
_SEQUENCES = st.sampled_from(BUILTINS + [custom([1, 2, 4]), custom([1]), shift(gevrey(1)),
                                         shift(loggevrey(1)), power(qgevrey(2), Fraction(3, 2))])


@st.composite
def _bad_terms(draw):
    """Custom terms that are not a list of rationals starting at 1, positive
    and nondecreasing; or such a list with one malformed entry."""
    bad = draw(st.one_of(_NOT_NUMBERS, st.fractions(max_value=0)))
    terms = draw(st.lists(st.integers(1, 4), max_size=4).map(lambda t: [1] + sorted(t)))
    return draw(st.one_of(
        st.just(terms[:draw(st.integers(0, len(terms)))] + [bad]),
        st.just([]), st.just([2]), st.just([1, 3, 2]), st.just([1, 0]),
        st.integers(), st.none(), st.text(max_size=3)))


@st.composite
def _malformed_calls(draw):
    """One call of a public sequences operation or of the CarlemanSequence
    constructor with one malformed argument, as (label, thunk): a wrong
    type, a bool, a negative order, an index past the end of a finite
    sequence, or a value outside the operation's domain.  The other
    arguments are well formed."""
    M = draw(_SEQUENCES)
    op = draw(st.sampled_from(["gevrey", "loggevrey", "qgevrey", "custom terms",
                               "custom assume", "parse_sequence", "exact_value",
                               "power_form", "interval_value j", "interval_value bits",
                               "renormalization", "check_log_convexity",
                               "verify_superadditivity", "value j", "value precision",
                               "precede M", "precede N", "precede horizon", "classify M",
                               "classify horizon", "flag", "power M", "power s", "shift",
                               "constructor param", "constructor terms",
                               "constructor exponent", "constructor base"]))
    lim = M.horizon_limit()
    # an index of the wrong type or sign, or past a finite sequence's end
    index = st.one_of(BAD_ORDERS, st.integers(lim + 1, 10**3)) if lim is not None \
        else BAD_ORDERS
    family, _, arg = op.partition(" ")
    if family == "constructor":
        # the raw constructor takes exact data only: no float and no text
        if arg == "param":
            name = draw(st.sampled_from(["gevrey", "loggevrey", "qgevrey", "analytic"]))
            top = 1 if name == "qgevrey" else 0
            bad = draw(st.one_of(NOT_DATA, st.fractions(max_value=top)) if name != "analytic"
                       else NOT_DATA.filter(lambda v: v is not None))
            return (f"CarlemanSequence({name!r}, param={bad!r})",
                    lambda: CarlemanSequence(name, param=bad))
        if arg == "terms":
            bad = draw(st.one_of(NOT_LISTS, with_one_bad(st.integers(1, 4), NOT_DATA),
                                 st.sampled_from([(), (2,), (1, 3, 2), (1, 0), [1, -1]])))
            return (f"CarlemanSequence('custom', terms={bad!r})",
                    lambda: CarlemanSequence("custom", terms=bad))
        if arg == "base":
            bad = draw(NOT_SEQUENCES)
            return (f"CarlemanSequence('custom', base={bad!r}, derived='shift')",
                    lambda: CarlemanSequence("custom", base=bad, derived="shift"))
        # None too: a power rule needs an exponent
        bad = draw(NOT_DATA)
        return (f"CarlemanSequence('custom', base={M}, derived='power', exponent={bad!r})",
                lambda: CarlemanSequence("custom", base=M, derived="power", exponent=bad))
    if family in ("gevrey", "loggevrey", "qgevrey"):
        top = 1 if family == "qgevrey" else 0
        bad = draw(st.one_of(_NOT_NUMBERS, st.fractions(max_value=top),
                             st.integers(max_value=top)))
        return f"{family}({bad!r})", lambda: getattr(sequences, family)(bad)
    if family == "custom":
        terms, assume = [1, 2, 4], ["moderate_growth"]
        if arg == "terms":
            terms = draw(_bad_terms())
        else:
            assume = draw(st.one_of(st.integers(), st.none(),
                                    st.lists(st.text("abc_", max_size=5), min_size=1, max_size=2)))
        return f"custom({terms!r}, {assume!r})", lambda: custom(terms, assume)
    if op == "parse_sequence":
        bad = draw(st.one_of(st.none(), st.booleans(), st.integers(), st.just(gevrey(1)),
                             st.lists(st.text(max_size=2), max_size=2)))
        return f"parse_sequence({bad!r})", lambda: parse_sequence(bad)
    if op in ("exact_value", "power_form", "interval_value j"):
        j = draw(index)
        name = op.split()[0]
        return f"{M}.{name}({j!r})", lambda: getattr(M, name)(j)
    if op == "interval_value bits":
        bits = draw(st.one_of(NOT_INTEGERS.filter(lambda v: v is not None),
                              st.integers(-10**3, 0)))
        return f"{M}.interval_value(1, {bits!r})", lambda: M.interval_value(1, bits)
    if op == "renormalization":
        M = draw(st.sampled_from(BUILTINS + [custom([1, 2, 4])]))
        return f"{M}.renormalization()", M.renormalization
    if op in ("check_log_convexity", "verify_superadditivity", "classify horizon",
              "precede horizon"):
        bad = draw(st.one_of(BAD_ORDERS, st.just(0), st.just(1))
                   if op == "check_log_convexity" else BAD_ORDERS)
        fn = {"check_log_convexity": check_log_convexity, "classify horizon": classify,
              "verify_superadditivity": verify_superadditivity,
              "precede horizon": lambda M, h: precede(M, gevrey(2), h)}[op]
        return f"{op}({M}, {bad!r})", lambda: fn(M, bad)
    if op == "value j":
        j = draw(index)
        return f"value({M}, {j!r})", lambda: value(M, j)
    if op == "value precision":
        bad = draw(BAD_ORDERS.filter(lambda v: v is not None))
        return f"value({M}, 1, {bad!r})", lambda: value(M, 1, bad)
    if op == "flag":
        bad = draw(st.one_of(st.text(max_size=4), st.none(), st.integers(), st.just([])))
        return f"flag({bad!r})", lambda: classify(gevrey(1), 4).flag(bad)
    if op == "power s":
        bad = draw(st.one_of(_NOT_NUMBERS, st.fractions(max_value=Fraction(99, 100))))
        return f"power({M}, {bad!r})", lambda: power(M, bad)
    # a one-term sequence cannot be shifted
    bad = draw(st.one_of(NOT_SEQUENCES, st.just(custom([1]))) if op == "shift"
               else NOT_SEQUENCES)
    fn = {"precede M": lambda b: precede(b, M), "precede N": lambda b: precede(M, b),
          "classify M": classify, "power M": lambda b: power(b, 2), "shift": shift}[op]
    return f"{op} {bad!r}", lambda: fn(bad)


class TestErrorContract:
    @pytest.mark.parametrize("call", [
        lambda: gevrey("a"),
        lambda: qgevrey("x"),
        lambda: custom([1, "a"]),
        lambda: power(gevrey(1), "a"),
        lambda: loggevrey(None),
        lambda: classify(gevrey(1), "a"),
        lambda: classify(gevrey(1)).flag("x"),
        lambda: parse_sequence(5),
        lambda: precede(gevrey(1), "x"),
        lambda: shift("x"),
        lambda: power("x", 2),
        lambda: classify("x"),
        lambda: check_log_convexity("x"),
        lambda: value(gevrey(1), 1.5),
        lambda: custom(5),
        lambda: custom("124"),
        lambda: precede(custom([1, 2, 4]), gevrey(1), "x"),
        lambda: verify_superadditivity(gevrey(1), -3),
        lambda: gevrey(True),
        lambda: custom([1, True]),
        lambda: power(gevrey(1), True),
        lambda: gevrey(1).exact_value("a"),
        lambda: gevrey(1).interval_value(2, True),
        lambda: CarlemanSequence("gevrey", param="a"),
        lambda: CarlemanSequence("custom", terms=(1, "a")),
        lambda: CarlemanSequence("gevrey", param=True),
    ], ids=["gevrey-text", "qgevrey-text", "custom-text-term", "power-text",
            "loggevrey-None", "classify-text-horizon", "flag-unknown", "parse-int",
            "precede-text", "shift-text", "power-of-text", "classify-text",
            "log-convexity-text", "value-float-index", "custom-int", "custom-text",
            "precede-text-horizon", "superadditivity-negative-horizon", "gevrey-bool",
            "custom-bool-term", "power-bool", "exact-value-text-index",
            "interval-value-bool-bits", "constructor-text-param",
            "constructor-text-term", "constructor-bool-param"])
    def test_calls_that_escaped_the_contract(self, call):
        # each raised a bare ValueError, TypeError or AttributeError, or
        # read a bool as the number 0 or 1
        with pytest.raises(DomainError) as info:
            call()
        assert info.value.code == "domain-error"

    def test_an_unknown_flag_names_the_flags(self):
        with pytest.raises(DomainError, match="FLAG_NAMES"):
            classify(gevrey(1)).flag("x")

    @pytest.mark.parametrize("call, family, param", [
        (lambda: gevrey(2), "gevrey", Fraction(2)),
        (lambda: gevrey(0.5), "gevrey", Fraction(1, 2)),
        (lambda: gevrey("1/2"), "gevrey", Fraction(1, 2)),
        (lambda: loggevrey(Fraction(1, 2)), "loggevrey", Fraction(1, 2)),
        (lambda: qgevrey("1.5"), "qgevrey", Fraction(3, 2)),
        (lambda: power(gevrey(1), "3/2"), "gevrey", Fraction(3, 2)),
        (lambda: power(gevrey(1), 1.5), "gevrey", Fraction(3, 2)),
    ], ids=["int", "float", "text", "fraction", "text-decimal", "power-text", "power-float"])
    def test_accepted_parameters_stay_accepted(self, call, family, param):
        assert call() == CarlemanSequence(family, param=param)

    def test_custom_terms_of_every_accepted_type(self):
        assert custom([1, 2.0, "3", Fraction(7, 2)]).terms == (1, 2, 3, Fraction(7, 2))

    @settings(max_examples=400, deadline=None)
    @given(_malformed_calls())
    def test_malformed_input_raises_a_coded_qal_error(self, call):
        label, thunk = call
        with pytest.raises(QalError) as info:
            thunk()
        assert info.value.code == type(info.value).code != QalError.code, label

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["gevrey(", "qgevrey(", "custom{terms=[", "analytic"]),
           st.text("xy012/.-+*^() ", max_size=8))
    def test_parse_sequence_returns_or_raises_a_qal_error(self, prefix, rest):
        try:
            parse_sequence(prefix + rest)
        except QalSyntaxError as exc:
            assert 0 <= exc.position <= len(prefix + rest)
        except QalError:
            pass


class TestValue:
    def test_gevrey_factorials(self):
        assert value(gevrey(1), 5) == 120

    def test_qgevrey_powers(self):
        assert value(qgevrey(2), 3) == 512  # 2^9

    def test_loggevrey_starts_at_one(self):
        assert value(loggevrey(1), 0) == 1

    def test_interval_for_irrational_values(self):
        v = value(gevrey(Fraction(1, 2)), 3, precision=80)
        assert isinstance(v, RI)
        # (3!)^(1/2) = sqrt(6): the endpoints must bracket it exactly
        assert v.lo ** 2 <= 6 <= v.hi ** 2
        assert v.rel_width() <= Fraction(1, 1 << 80)

    def test_loggevrey_interval_encloses_known_value(self):
        # M_1 = log(1+e) = 1.31326...
        v = value(loggevrey(1), 1, precision=40)
        assert Fraction(13132, 10**4) < v.lo <= v.hi < Fraction(13133, 10**4)

    def test_precision_zero_is_not_the_default(self):
        # precision 0 was read as the default of 256 bits, whose endpoints
        # are narrower than those that precision 1 gets
        M = gevrey(Fraction(1, 2))
        zero, one, default = value(M, 5, 0), value(M, 5, 1), value(M, 5)
        assert zero.rel_width() <= 1
        assert (zero.lo, zero.hi) == (one.lo, one.hi) != (default.lo, default.hi)

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(3, 2), Fraction(2, 3),
                                       Fraction(5, 4)], ids=str)
    def test_gevrey_exact_values_are_the_exact_powers(self, alpha):
        # (j!)^alpha is irrational from j = 2 on (Bertrand's postulate), and
        # exact_value answers so without trying a root
        M = gevrey(alpha)
        for j in range(301):
            assert M.exact_value(j) == exact_pow(Fraction(factorial(j)), alpha), j
        with mock.patch.object(sequences, "exact_pow", side_effect=AssertionError):
            assert [M.exact_value(j) for j in (0, 1, 2, 300)] == [1, 1, None, None]

    def test_m0_is_one_for_all_families(self):
        for seq in BUILTINS:
            assert value(seq, 0) == 1 or value(seq, 0).contains(1)

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            value(gevrey(1), -1)


class TestStructuralChecks:
    def test_gevrey2_log_convex(self):
        # oracle: direct exact check of the factorial-power inequality
        for j in range(1, 20):
            fj = Fraction(6 if j == 3 else 1)  # placeholder to keep flake quiet
        from qal.rationals import factorial
        for j in range(1, 20):
            assert Fraction(factorial(j)) ** 4 <= Fraction(factorial(j - 1)) ** 2 * Fraction(factorial(j + 1)) ** 2
        assert check_log_convexity(gevrey(2), 20).passed

    def test_custom_failure_witness(self):
        seq = custom([1, 2, 3, 4])
        result = check_log_convexity(seq, 3)
        assert not result.passed
        assert result.witness == (1,)  # M_1^2 = 4 > M_0 M_2 = 3

    def test_analytic_constant(self):
        assert check_log_convexity(analytic(), 50).passed

    @pytest.mark.parametrize("terms, j", [([1, 2, 3], 1),
                                          ([1, 1, 10**400, 10**400], 2)])
    def test_last_checkable_index_of_a_finite_sequence(self, terms, j):
        # j = len(terms) - 2 needs M_{j+1}, the last term, and no more;
        # M_1^2 = 4 > M_0 M_2 = 3 and M_2^2 = 10^800 > M_1 M_3 = 10^400
        seq = custom(terms)
        result = check_log_convexity(seq)
        assert not result.passed
        assert result.witness == (j,)
        assert classify(seq).log_convex.value == FALSE

    def test_log_convex_through_the_last_index(self):
        # M_j^2 <= M_{j-1} M_{j+1} for j = 1, 2, 3, with equality at j = 3
        result = check_log_convexity(custom([1, 1, 2, 8, 32]))
        assert result.passed
        assert result.detail == "verified for 1 <= j < 4"

    @pytest.mark.parametrize("seq, checked", [(custom([1, 2, 4]), "1 <= j < 2"),
                                              (custom([1, 1, 2, 8, 32]), "1 <= j < 4"),
                                              (gevrey(2), "1 <= j < 32")])
    def test_certificate_names_the_range_checked(self, seq, checked):
        # a finite sequence stops below the requested horizon of 32
        flag = classify(seq).log_convex
        assert flag.value == TRUE
        assert flag.certificate["checked_on"] == checked
        assert flag.certificate["detail"] == f"verified for {checked}"

    def test_superadditivity_gevrey1(self):
        from qal.rationals import factorial
        # oracle: j! k! <= (j+k)! checked exactly here, independent of the library
        for j in range(1, 9):
            for k in range(j, 17 - j):
                assert factorial(j) * factorial(k) <= factorial(j + k)
        assert verify_superadditivity(gevrey(1), 16).passed

    def test_superadditivity_analytic_equality(self):
        assert verify_superadditivity(analytic(), 16).passed

    def test_superadditivity_qgevrey_exact_exponents(self):
        # oracle: j^2 + k^2 <= (j+k)^2 exact integer comparison
        for j in range(1, 7):
            for k in range(j, 13 - j):
                assert j * j + k * k <= (j + k) ** 2
        assert verify_superadditivity(qgevrey(2), 12).passed

    def test_all_builtins_horizon_32(self):
        for seq in BUILTINS:
            assert check_log_convexity(seq, 32).passed, seq
            assert verify_superadditivity(seq, 32).passed, seq


class TestPrecede:
    def test_gevrey_parameter_order(self):
        assert precede(gevrey(1), gevrey(2)).verdict == TRUE
        assert precede(gevrey(2), gevrey(1)).verdict == FALSE

    def test_reflexive(self):
        for seq in BUILTINS:
            assert precede(seq, seq).verdict == TRUE

    def test_cross_family_rules(self):
        assert precede(loggevrey(5), gevrey(Fraction(1, 2))).verdict == TRUE
        assert precede(gevrey(5), qgevrey(Fraction(3, 2))).verdict == TRUE
        assert precede(qgevrey(2), gevrey(9)).verdict == FALSE
        assert precede(analytic(), loggevrey(1)).verdict == TRUE

    def test_transitive_on_builtin_triples(self):
        for a, b, c in itertools.product(BUILTINS, repeat=3):
            if precede(a, b).verdict == TRUE and precede(b, c).verdict == TRUE:
                assert precede(a, c).verdict == TRUE, (a, b, c)

    def test_custom_diagnostic(self):
        out = precede(custom([1, 2, 4, 8]), gevrey(1))
        assert out.verdict == INCONCLUSIVE
        assert out.sup_estimate is not None

    def test_a_ratio_past_the_float_range_is_infinite(self):
        # (10^800)^(1/1) has no float; it used to raise OverflowError
        out = precede(custom([1, 10**800]), analytic())
        assert out.verdict == INCONCLUSIVE
        assert out.sup_estimate == math.inf


class TestClassify:
    def test_loggevrey_quasianalytic_threshold(self):
        r = classify(loggevrey(Fraction(1, 2)))
        assert r.quasianalytic.value == TRUE
        assert r.strongly_non_quasianalytic.value == FALSE
        r2 = classify(loggevrey(2))
        assert r2.quasianalytic.value == FALSE
        assert r2.strongly_non_quasianalytic.value == FALSE

    def test_gevrey_strongly_regular(self):
        for a in (1, 2, Fraction(1, 2)):
            r = classify(gevrey(a))
            assert r.strongly_non_quasianalytic.value == TRUE
            assert r.moderate_growth.value == TRUE
            assert r.strongly_regular.value == TRUE
            assert r.quasianalytic.value == FALSE

    def test_qgevrey_fails_moderate_growth(self):
        r = classify(qgevrey(2))
        assert r.strongly_non_quasianalytic.value == TRUE
        assert r.moderate_growth.value == FALSE
        assert r.strongly_regular.value == FALSE

    def test_analytic_class_forces_quasianalytic(self):
        r = classify(analytic())
        assert r.analytic_class.value == TRUE
        assert r.quasianalytic.value == TRUE
        assert r.strongly_regular.value == FALSE

    def test_never_jointly_quasianalytic_and_strong(self):
        for seq in BUILTINS:
            r = classify(seq)
            assert not (r.quasianalytic.value == TRUE
                        and r.strongly_non_quasianalytic.value == TRUE)

    def test_custom_is_inconclusive_without_assumptions(self):
        r = classify(custom([1, 1, 2, 6, 24, 120]))
        assert r.quasianalytic.value == INCONCLUSIVE
        assert r.quasianalytic.provenance == "finite-horizon"
        assert r.moderate_growth.value == INCONCLUSIVE

    def test_custom_assumption_resolves(self):
        r = classify(custom([1, 1, 2, 6], assume=["quasianalytic"]))
        assert r.quasianalytic.value == TRUE
        assert r.quasianalytic.certificate.get("rule") == "user-asserted tail class"

    def test_diagnostics_past_the_float_range_are_infinite(self):
        # M_2/M_1 = 10^400 and the tail ratio at k = 1 have no float; the
        # root diagnostics stay finite
        r = classify(custom([1, 1, 10**400, 10**400]))
        assert r.derivation_stable.certificate["value"] == math.inf
        assert r.strongly_non_quasianalytic.certificate["value"] == math.inf
        assert r.analytic_class.certificate["value"] == pytest.approx(10**(400 / 3))
        assert r.moderate_growth.certificate["value"] == pytest.approx(1e200)


class TestDiagnosticFloat:
    _BOUND = 2**1024 - 2**970       # the least value float() rounds to infinity

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(min_value=0, max_value=10**300))
    def test_a_value_in_range_is_its_float(self, q):
        assert sequences._diagnostic(q) == float(q)

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(min_value=Fraction(1, 10**300), max_value=10**300),
           st.integers(1, 40))
    def test_a_root_in_range_is_exp_of_the_log_difference(self, q, n):
        expected = math.exp((math.log(q.numerator) - math.log(q.denominator)) / n)
        assert sequences._diagnostic(q, n) == expected

    @pytest.mark.parametrize("q", [_BOUND - 1, Fraction(2 * _BOUND - 1, 2)],
                             ids=["bound-1", "bound-1/2"])
    def test_the_largest_values_below_the_bound_are_the_largest_float(self, q):
        assert sequences._diagnostic(Fraction(q)) == 1.7976931348623157e308

    @pytest.mark.parametrize("q, n", [(Fraction(_BOUND), None), (Fraction(10**400), None),
                                      (Fraction(10**800, 3), 2), (Fraction(10**400), 1)],
                             ids=["bound", "10^400", "root-of-10^800/3", "10^400-first-root"])
    def test_past_the_range_is_infinite(self, q, n):
        assert sequences._diagnostic(q, n) == math.inf


class TestPowerAndShift:
    def test_power_gevrey(self):
        assert power(gevrey(1), 2) == gevrey(2)

    def test_power_analytic(self):
        assert power(analytic(), 3) == analytic()

    def test_power_qgevrey_exact_identity(self):
        sq = power(qgevrey(2), 2)
        assert sq == qgevrey(4)
        # oracle: (2^(j^2))^2 = 4^(j^2) exactly
        for j in range(6):
            assert value(qgevrey(2), j) ** 2 == value(sq, j)

    def test_power_rejects_small_exponent(self):
        with pytest.raises(DomainError):
            power(gevrey(1), Fraction(1, 2))

    def test_power_preserves_log_convexity(self):
        s = power(qgevrey(2), Fraction(3, 2))
        assert check_log_convexity(s, 10).passed

    def test_power_preserves_strong_regularity_for_gevrey(self):
        r = classify(power(gevrey(Fraction(1, 2)), 3))
        assert r.strongly_regular.value == TRUE

    def test_shift_analytic(self):
        assert shift(analytic()) == analytic()

    def test_shift_gevrey1_values(self):
        s = shift(gevrey(1))
        # renormalization constant is 1! = 1, so values are (j+1)!
        from qal.rationals import factorial
        for j in range(8):
            assert value(s, j) == factorial(j + 1)
        assert s.renormalization() == 1

    def test_shift_qgevrey_renormalized(self):
        s = shift(qgevrey(2))
        assert value(s, 2) == Fraction(2 ** 9, 2)
        assert s.renormalization() == 2
        assert value(s, 0) == 1

    def test_shift_preserves_m0(self):
        for seq in BUILTINS:
            assert value(shift(seq), 0) == 1 or value(shift(seq), 0).contains(1)


class TestSerialization:
    def test_json_shape(self):
        r = classify(gevrey(1))
        data = r.to_json()
        assert data["sequence"] == {"family": "gevrey", "param": "1"}
        assert data["quasianalytic"]["value"] == FALSE
        assert set(data) >= set(r.FLAG_NAMES)


# -- one certified value table per attempt -------------------------------------------

def _reference_values(M, top):
    """M_0..M_top for the pairwise reference: exact Fractions when M is
    rational-valued, else 400-bit mpmath values (the built-ins tie only
    where they are rational).  Compare them under mpmath.workprec(400)."""
    exact = [M.exact_value(j) for j in range(top + 1)]
    if all(v is not None for v in exact):
        return exact
    with mpmath.workprec(400):
        return [mpmath.mpf(r.lo.numerator) / r.lo.denominator
                for r in (M.interval_value(j, 400) for j in range(top + 1))]


def reference_log_convexity(M, horizon):
    """(passed, witness) of M_j^2 <= M_{j-1} M_{j+1}, one pair at a time,
    for every j < horizon whose M_{j+1} is defined."""
    lim = M.horizon_limit()
    top = horizon if lim is None else min(horizon, lim)
    v = _reference_values(M, max(top, 1))
    with mpmath.workprec(400):
        for j in range(1, top):
            if v[j] ** 2 > v[j - 1] * v[j + 1]:
                return False, (j,)
    return True, None


def reference_superadditivity(M, horizon):
    """(passed, witness) of M_j M_k <= M_{j+k}, then of M_j^(j+1) <= M_{j+1}^j,
    one pair at a time."""
    lim = M.horizon_limit()
    top = horizon if lim is None else min(horizon, lim)
    v = _reference_values(M, top)
    with mpmath.workprec(400):
        for j in range(1, top + 1):
            for k in range(j, top - j + 1):
                if v[j] * v[k] > v[j + k]:
                    return False, (j, k)
        for j in range(1, top):
            if v[j] ** (j + 1) > v[j + 1] ** j:
                return False, (j,)
    return True, None


ratios = st.fractions(min_value=1, max_value=4, max_denominator=6)


@st.composite
def custom_sequences(draw):
    """Terms from nondecreasing ratios (log-convex), sometimes broken by a
    smaller ratio at a random index."""
    rs = sorted(draw(st.lists(ratios, min_size=2, max_size=12)))
    if draw(st.booleans()):
        i = draw(st.integers(1, len(rs) - 1))
        rs[i] = draw(st.fractions(min_value=1, max_value=rs[i - 1],
                                  max_denominator=6))
    terms = [Fraction(1)]
    for r in rs:
        terms.append(terms[-1] * r)
    return custom(terms)


class TestBatchedComparisons:
    @settings(max_examples=60, deadline=None)
    @given(custom_sequences(), st.integers(2, 14), st.booleans())
    def test_custom_checks_match_the_pairwise_reference(self, M, horizon, intervals):
        # with the power forms hidden, the same exact data go through the
        # certified interval path instead of the exact comparison
        hidden = (mock.patch.object(CarlemanSequence, "power_form", lambda self, j: None)
                  if intervals else contextlib.nullcontext())
        with hidden:
            lc = check_log_convexity(M, horizon)
            sa = verify_superadditivity(M, horizon)
        assert (lc.passed, lc.witness) == reference_log_convexity(M, horizon)
        assert (sa.passed, sa.witness) == reference_superadditivity(M, horizon)

    @pytest.mark.parametrize("M", BUILTINS + [shift(loggevrey(1)), shift(gevrey(Fraction(1, 2))),
                                              power(qgevrey(2), Fraction(3, 2))],
                             ids=str)
    def test_builtin_checks_match_the_pairwise_reference(self, M):
        lc = check_log_convexity(M, 16)
        sa = verify_superadditivity(M, 16)
        assert (lc.passed, lc.witness) == reference_log_convexity(M, 16)
        assert (sa.passed, sa.witness) == reference_superadditivity(M, 16)

    def test_superadditivity_fetches_each_value_once_per_attempt(self, monkeypatch):
        seen = collections.Counter()
        interval_value = CarlemanSequence.interval_value

        def recording(self, j, bits=None):
            seen[bits] += 1
            return interval_value(self, j, bits)

        monkeypatch.setattr(CarlemanSequence, "interval_value", recording)
        assert verify_superadditivity(loggevrey(1), 24).passed
        assert seen and all(n <= 25 for n in seen.values()), seen

    def test_undecided_comparison_is_named_at_the_cap(self, monkeypatch):
        # M_1^2 against M_0 M_2 decides; an undecidable second comparison
        # escalates the batch and the error names it
        cmp = RI.cmp
        calls = []

        def undecided_after_first(self, other):
            calls.append(1)
            return cmp(self, other) if len(calls) % 2 else None

        monkeypatch.setattr(intervals, "_DEFAULT_BITS", 2048)
        monkeypatch.setattr(RI, "cmp", undecided_after_first)
        with pytest.raises(UndecidableAtCap) as info:
            check_log_convexity(loggevrey(1), 4)
        assert "log-convexity at j=2" in str(info.value)
        assert info.value.code == "undecidable-at-cap"


def reference_classify_custom(M, horizon):
    """The certificates of _classify_custom computed directly: each tail
    of the quasianalyticity series summed on its own, O(horizon^2) work."""
    lim = M.horizon_limit()
    top = horizon if lim is None else min(horizon, lim)
    mids = [M.interval_value(j).mid() for j in range(top + 1)]
    terms = [mids[j] / ((j + 1) * mids[j + 1]) for j in range(top)]
    partial_sums = [(j, sequences._diagnostic(sum(terms[:j + 1], Fraction(0))))
                    for j in range(top) if j in (1, 3, 7, 15, 31) or j == top - 1]
    snqa = max((sum(terms[k:top], Fraction(0)) / (mids[k] / mids[k + 1])
                for k in range(top - 1)), default=Fraction(0))
    mg = max((sequences._diagnostic(mids[j + k] / (mids[j] * mids[k]), j + k)
              for j in range(1, top) for k in range(1, top - j + 1)), default=0.0)
    certificates = {
        "analytic_class": {"diagnostic": f"(M_{top})^(1/{top})",
                           "value": sequences._diagnostic(mids[top], top) if top else 1.0},
        "derivation_stable": {"diagnostic": "sup (M_{j+1}/M_j)^(1/j)",
                              "value": max((sequences._diagnostic(mids[j + 1] / mids[j], j)
                                            for j in range(1, top)), default=1.0)},
        "quasianalytic": {"diagnostic": "partial sums of sum M_j/((j+1)M_{j+1})",
                          "partial_sums": partial_sums},
        "strongly_non_quasianalytic": {"diagnostic": "sup_k tail_k / (M_k/M_{k+1})",
                                       "value": sequences._diagnostic(snqa)},
        "moderate_growth": {"diagnostic": "sup (M_{j+k}/(M_j M_k))^(1/(j+k))", "value": mg},
    }
    for token in M.assume:
        name, _ = sequences._ASSUMABLE[token]
        certificates[name] = {"rule": "user-asserted tail class", "token": token}
    return certificates


_ASSUMPTIONS = st.lists(st.sampled_from(sorted(sequences._ASSUMABLE)), max_size=2)


class TestLinearChecks:
    @pytest.mark.parametrize("M, horizon", [(gevrey(Fraction(1, 2)), 24), (loggevrey(1), 24),
                                            (qgevrey(2), 12), (analytic(), 16),
                                            (custom([1, 1, 2, 8, 32]), 32),
                                            (shift(loggevrey(1)), 8)], ids=str)
    def test_superadditivity_makes_only_the_chain_comparisons(self, M, horizon, monkeypatch):
        lim = M.horizon_limit()
        top = horizon if lim is None else min(horizon, lim)
        made = []
        compare_scan = sequences._compare_scan

        def counting(M, N, comparisons):
            signs = compare_scan(M, N, comparisons)
            made.append(len(signs))
            return signs

        monkeypatch.setattr(sequences, "_compare_scan", counting)
        result = verify_superadditivity(M, horizon)
        assert (result.passed, result.witness) == (True, None)
        assert result.detail == f"verified up to j+k <= {top}"
        assert made == [top - 1]

    def test_a_broken_chain_falls_back_to_every_pair(self, monkeypatch):
        # M_2^2 = 4 > M_1 M_3 = 3 breaks log-convexity, yet the sequence is
        # superadditive and its roots increase: the pairwise scan decides
        made = []
        compare_scan = sequences._compare_scan
        monkeypatch.setattr(sequences, "_compare_scan",
                            lambda M, N, c: made.append(len(c)) or compare_scan(M, N, c))
        result = verify_superadditivity(custom([1, 1, 2, 3]), 3)
        assert (result.passed, result.detail) == (True, "verified up to j+k <= 3")
        assert made == [2, 2 + 2]

    def test_the_shifted_first_value_is_exactly_one(self):
        for seq in BUILTINS:
            assert shift(seq).exact_value(0) == 1

    @settings(max_examples=60, deadline=None)
    @given(custom_sequences(), st.integers(1, 14), _ASSUMPTIONS)
    def test_custom_certificates_match_the_direct_reference(self, M, horizon, assume):
        M = custom(M.terms, assume)
        flags = sequences._classify_custom(M, horizon)
        assert {name: flag.certificate for name, flag in flags.items()} \
            == reference_classify_custom(M, horizon)


class TestDerivedClassification:
    def test_shift_of_loggevrey_is_fast(self):
        start = time.perf_counter()
        classify(shift(loggevrey(1)))
        assert time.perf_counter() - start < 0.5

    def test_shift_of_loggevrey_diagnostics_are_unchanged(self):
        # frozen from the float diagnostics before they moved to logarithms
        r = classify(shift(loggevrey(1)))
        frozen = {"analytic_class": 3.689355057237737,
                  "derivation_stable": 2.2025159826630527,
                  "strongly_non_quasianalytic": 2.830557159198185,
                  "moderate_growth": 1.179234533858192}
        for name, value in frozen.items():
            assert r.flag(name).certificate["value"] == pytest.approx(value, rel=1e-12)
        sums = [(1, 0.7726185167964043), (3, 0.9991879609264208),
                (7, 1.2056117727416333), (15, 1.3866293447894797),
                (31, 1.5443672942232725)]
        got = r.quasianalytic.certificate["partial_sums"]
        assert [j for j, _ in got] == [j for j, _ in sums]
        for (_, a), (_, b) in zip(got, sums):
            assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("M", [shift(qgevrey(2)), power(qgevrey(2), Fraction(3, 2))],
                             ids=["shift", "power"])
    def test_huge_values_give_inconclusive_reports(self, M):
        # M_32 is about 2^1088 (shift) and 2^1536 (power): past any float
        r = classify(M)
        for name in r.FLAG_NAMES[1:]:
            assert r.flag(name).value == INCONCLUSIVE, name
        assert r.analytic_class.certificate["value"] > 1
