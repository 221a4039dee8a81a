import collections
import contextlib
import itertools
import time
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from qal.errors import DomainError, QalSyntaxError, UndecidableAtCap
from qal.intervals import RI
from qal.sequences import (CarlemanSequence, analytic, check_log_convexity,
                           classify, custom, gevrey, loggevrey, parse_sequence,
                           power, precede, qgevrey, shift, value,
                           verify_superadditivity, TRUE, FALSE, INCONCLUSIVE)


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
    """(passed, witness) of M_j^2 <= M_{j-1} M_{j+1}, one pair at a time."""
    lim = M.horizon_limit()
    top = horizon if lim is None else min(horizon, lim - 1)
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

        monkeypatch.setenv("QAL_PRECISION_BITS", "2048")
        monkeypatch.setattr(RI, "cmp", undecided_after_first)
        with pytest.raises(UndecidableAtCap) as info:
            check_log_convexity(loggevrey(1), 4)
        assert "log-convexity at j=2" in str(info.value)
        assert info.value.code == "undecidable-at-cap"


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
