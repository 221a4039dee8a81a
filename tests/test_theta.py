import hashlib
import json
import time
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from qal import intervals, theta
from qal.division import nodiv_witness
from qal.errors import CertificationError, DomainError, QalError
from qal.intervals import RI, default_bits
from qal.rationals import factorial
from qal.sequences import (CarlemanSequence, analytic, custom, gevrey, loggevrey, power,
                           qgevrey, shift)
from qal.theta import (BorelExample, ThetaDerivative, borel_example_derivatives,
                       borel_example_eval, build_theta, theta_derivative_at_zero,
                       theta_eval)

from malformed import BAD_ORDERS, NOT_DATA, NOT_SEQUENCES


def exact_partial_sum(M, j, K):
    """Independent oracle: sum_{k<=K} Mbar_k (2 m_k)^(j-k) in exact arithmetic."""
    mbar = [factorial(k) * M.exact_value(k) for k in range(K + 2)]
    total = Fraction(0)
    for k in range(K + 1):
        m_k = mbar[k + 1] / mbar[k]
        total += mbar[k] * (2 * m_k) ** (j - k)
    return total


class TestThetaDerivativeAtZero:
    def test_gevrey1_order0(self):
        out = theta_derivative_at_zero(gevrey(1), 0, 12)
        oracle = exact_partial_sum(gevrey(1), 0, 12)
        assert out.magnitude.lo <= oracle <= out.magnitude.hi
        assert out.magnitude.lo >= 1  # 0! * M_0

    def test_analytic_order0_partial_sum(self):
        # for the constant sequence, Mbar_k = k! and m_k = k+1
        out = theta_derivative_at_zero(analytic(), 0, 12)
        oracle = sum(Fraction(factorial(k), (2 * (k + 1)) ** k) for k in range(13))
        assert out.magnitude.lo <= oracle <= out.magnitude.hi
        assert out.magnitude.lo >= 1

    def test_single_term_lower_bound(self):
        # the k=j term alone is Mbar_j, so the bound holds for any order
        for j in (1, 3, 7):
            out = theta_derivative_at_zero(qgevrey(2), j, j + 9)
            mbar_j = factorial(j) * qgevrey(2).exact_value(j)
            assert out.magnitude.lo >= mbar_j

    def test_lower_bound_certified_through_order_20(self):
        for M in (gevrey(1), gevrey(2), qgevrey(2), analytic()):
            for j in range(21):
                out = theta_derivative_at_zero(M, j, j + 10)
                assert out.magnitude.lo >= factorial(j) * M.exact_value(j), (M, j)

    def test_requires_margin_over_order(self):
        with pytest.raises(DomainError):
            theta_derivative_at_zero(gevrey(1), 5, 12)

    def test_phase_structure(self):
        out = theta_derivative_at_zero(gevrey(1), 3, 14)
        box = out.interval()
        # i^3 * positive real lies on the negative imaginary axis
        assert box.re.contains(0) or box.re.hi < Fraction(1, 10**6)
        assert box.im.hi < 0

    def test_positivity_and_monotonicity_in_truncation(self):
        prev = None
        for K in (10, 13, 16, 20):
            out = theta_derivative_at_zero(gevrey(1), 2, K)
            if prev is not None:
                # nested: larger K shrinks the interval and stays inside
                assert prev.magnitude.lo <= out.magnitude.lo
                assert out.magnitude.hi <= prev.magnitude.hi
            prev = out


class TestThetaEval:
    def test_agrees_with_derivative_at_zero(self):
        for j in (0, 1, 4):
            at0 = theta_derivative_at_zero(gevrey(1), j, 14).interval()
            ev = theta_eval(gevrey(1), Fraction(0), j, 14)
            # overlapping enclosures of the same number
            assert not (ev.re.hi < at0.re.lo or at0.re.hi < ev.re.lo)
            assert not (ev.im.hi < at0.im.lo or at0.im.hi < ev.im.lo)

    def test_tight_width_at_moderate_truncation(self):
        out = theta_eval(gevrey(1), Fraction(1, 2), 0, 16)
        assert out.re.width() < Fraction(1, 1 << 20)
        assert out.im.width() < Fraction(1, 1 << 20)

    def test_upper_bound_small_arguments(self):
        # |theta(x)| <= 3 * Mbar_0 = 3 on (-1, 1)
        for x in (Fraction(0), Fraction(1, 4), Fraction(-1, 2), Fraction(9, 10)):
            out = theta_eval(gevrey(1), x, 0, 14)
            assert out.abs_sq().hi <= 9

    def test_certified_upper_bound_orders_up_to_12(self):
        xs = [Fraction(0), Fraction(1, 4), Fraction(-1, 4),
              Fraction(1, 2), Fraction(-1, 2)]
        for M in (gevrey(1), qgevrey(2)):
            for j in (0, 3, 7, 12):
                for x in xs:
                    out = theta_eval(M, x, j, j + 9)
                    cap = 3 * Fraction(2) ** j * factorial(j) * M.exact_value(j)
                    assert out.abs_sq().hi <= cap * cap, (M, j, x)


class TestBorelExample:
    def geometric(self):
        return BorelExample(coeffs=lambda v: Fraction(1, 2**v),
                            rho=Fraction(1, 2), N=40)

    def test_value_at_zero_is_2i(self):
        # sum 2^-v * (i v) = i * sum v 2^-v = 2i  (geometric derivative sum)
        out = borel_example_eval(self.geometric(), Fraction(0))
        assert out.contains(0, 2)

    def test_zero_coefficients(self):
        zero = BorelExample(coeffs=lambda v: Fraction(0), rho=Fraction(1, 2), N=10)
        out = borel_example_eval(zero, Fraction(1))
        assert out.contains(0, 0)
        for j in (0, 2, 5):
            chk = borel_example_derivatives(zero, j)
            assert chk.direct.contains(0, 0)
            assert chk.via_transform.contains(0, 0)

    def test_eval_away_from_origin_is_enclosed(self):
        out1 = borel_example_eval(self.geometric(), Fraction(1))
        out2 = BorelExample(coeffs=lambda v: Fraction(1, 2**v),
                            rho=Fraction(1, 2), N=60)
        out2 = borel_example_eval(out2, Fraction(1))
        # longer truncation stays inside the shorter one's enclosure
        assert out1.re.lo <= out2.re.lo and out2.re.hi <= out1.re.hi

    def test_derivative_cross_check_j0_matches_eval(self):
        chk = borel_example_derivatives(self.geometric(), 0)
        assert chk.overlap
        assert chk.direct.contains(0, 2)
        assert chk.via_transform.contains(0, 2)

    def test_cross_check_overlap_through_order_10(self):
        ex = BorelExample(coeffs=lambda v: Fraction(1, 3**v),
                          rho=Fraction(1, 3), N=60)
        for j in range(11):
            chk = borel_example_derivatives(ex, j)
            assert chk.overlap, j

    def test_transform_matrix_size_one(self):
        chk = borel_example_derivatives(self.geometric(), 0)
        assert chk.transform_matrix == [[1]]

    def test_coefficient_bound_enforced(self):
        bad = BorelExample(coeffs=lambda v: Fraction(1), rho=Fraction(1, 2), N=10)
        with pytest.raises(DomainError):
            borel_example_eval(bad, Fraction(0))

    def test_broken_stirling_transform_is_coded(self, monkeypatch):
        # a Stirling row whose diagonal entry is not 1
        monkeypatch.setattr(theta, "stirling2_row", lambda r: [2] * (r + 1))
        with pytest.raises(CertificationError) as info:
            borel_example_derivatives(self.geometric(), 3)
        assert info.value.code == "certification-error"
        assert isinstance(info.value, ArithmeticError)


class TestBuildTheta:
    def test_ratio_sequence_nondecreasing(self):
        approx = build_theta(gevrey(1), 16)
        for k in range(1, 17):
            assert approx.ms[k].lo >= approx.ms[k - 1].hi

    def test_analytic_ratios_are_integers(self):
        approx = build_theta(analytic(), 10)
        for k in range(11):
            assert approx.ms[k].is_point()
            assert approx.ms[k].lo == k + 1

    @pytest.mark.parametrize("M", [analytic(), gevrey(1), gevrey(Fraction(1, 2)),
                                   loggevrey(1)], ids=str)
    def test_values_are_the_interval_values(self, M):
        approx = build_theta(M, 10, 256)
        assert len(approx.values) == 13
        for k, v in enumerate(approx.values):
            w = M.interval_value(k, 256)
            assert (v.lo, v.hi) == (w.lo, w.hi), k


def reference_theta(alpha: Fraction, x: Fraction, j: int, terms: int):
    """theta^(j)(x) for gevrey(alpha), summed in mpmath at 400 bits:
    sum_k i^j Mbar_k (2 m_k)^(j-k) exp(2 i m_k x)."""
    with mpmath.workprec(400):
        a = mpmath.mpf(alpha.numerator) / alpha.denominator
        x = mpmath.mpf(x.numerator) / x.denominator
        mbar = [mpmath.factorial(k) ** (1 + a) for k in range(terms + 2)]
        total = mpmath.mpc(0)
        for k in range(terms + 1):
            m = mbar[k + 1] / mbar[k]
            total += mbar[k] * (2 * m) ** (j - k) * mpmath.expj(2 * m * x)
        return total * mpmath.mpc(0, 1) ** j


def _fraction(v) -> Fraction:
    """An mpmath mpf as an exact Fraction."""
    return Fraction(*mpmath.libmp.to_rational(v._mpf_))


def _endpoint_bits(box) -> int:
    return max(q.numerator.bit_length() + q.denominator.bit_length()
               for r in (box.re, box.im) for q in (r.lo, r.hi))


class TestWorkingPrecision:
    def test_high_order_irrational_theta_is_fast_and_short(self):
        M, x, j, K = gevrey(Fraction(1, 2)), Fraction(1, 3), 32, 48
        start = time.perf_counter()
        out = theta_eval(M, x, j, K)
        assert time.perf_counter() - start < 1.0
        assert _endpoint_bits(out) < 2 * (default_bits() + intervals._GUARD_BITS)
        # the class bound |theta^(j)(x)| <= 3 * 2^j * j! M_j still holds
        cap = 3 * Fraction(2) ** j * factorial(j) * M.interval_value(j).hi
        assert out.abs_sq().hi <= cap * cap
        # and the box encloses the series summed far past K
        ref = reference_theta(Fraction(1, 2), x, j, K + 200)
        assert out.contains(_fraction(ref.real), _fraction(ref.imag))

    @pytest.mark.parametrize("M", [gevrey(1), gevrey(Fraction(1, 2)), gevrey(Fraction(3, 2)),
                                   loggevrey(1), qgevrey(2)], ids=str)
    def test_term_magnitudes_equal_the_interval_power(self, M):
        # on the interval chain nodiv's orders and the tail term share one
        # ladder per term, and each magnitude is Mbar_k * (2 m_k) ** (j - k)
        # bit for bit; the closed form (gevrey(1/2), gevrey(3/2)) lies inside
        # that product, one step of its grid wide
        K = 16

        def both(bits):
            approx = build_theta(M, K, bits)
            orders = [0, 2, 4, 6, 8, 3, 8, 0]
            got = [approx.term_magnitude(k, j) for j in orders for k in range(K + 2)]
            ref = [approx.mbars[k] * (RI.point(2) * approx.ms[k]) ** (j - k)
                   for j in orders for k in range(K + 2)]
            return approx.closed, got, ref

        for bits in (64, 256):
            closed, got, ref = intervals.certify(both, "test step", CertificationError, bits)
            assert (closed is not None) == (M.param.denominator > 1)
            if closed is None:
                assert [(g.lo, g.hi) for g in got] == [(r.lo, r.hi) for r in ref]
                continue
            p = 2 * (bits + intervals._GUARD_BITS)
            for g, r in zip(got, ref):
                assert r.lo <= g.lo <= g.hi <= r.hi
                assert g.hi - g.lo <= g.lo / 2 ** p
                assert g.hi - g.lo < r.hi - r.lo or g.is_point()

    def test_rational_partial_sums_stay_exact(self):
        for M in (gevrey(1), gevrey(2), qgevrey(2), analytic()):
            for j in (0, 5, 12):
                K = j + 10
                out = theta_derivative_at_zero(M, j, K)
                # the lower end is the exact partial sum, the width the exact tail
                assert out.magnitude.lo == exact_partial_sum(M, j, K), (M, j)
                assert out.magnitude.width() == build_theta(M, K).tail_bound(j), (M, j)


def _mp_magnitude(M, k: int, j: int):
    """Mbar_k (2 m_k)^(j-k) summed in mpmath at 400 bits from the power form."""
    with mpmath.workprec(400):
        def mbar(i):
            out = mpmath.factorial(i)
            for b, e in M.power_form(i):
                out *= mpmath.power(mpmath.mpf(b.numerator) / b.denominator,
                                    mpmath.mpf(e.numerator) / e.denominator)
            return out
        a, b = mbar(k), mbar(k + 1)
        return a * (2 * b / a) ** (j - k)


def _parent_chain(M, K: int, bits: int, pairs):
    """The interval chain's magnitudes, Mbar_k * (2 m_k) ** (j - k) from the
    interval values, at the working precision of ``bits``."""
    mbars = [RI.point(factorial(k)) * M.interval_value(k, bits) for k in range(K + 3)]
    ms = [mbars[k + 1] / mbars[k] for k in range(K + 2)]
    return [mbars[k] * (RI.point(2) * ms[k]) ** (j - k) for k, j in pairs]


_NOT_INTEGER = st.fractions(min_value=Fraction(1, 3), max_value=4,
                            max_denominator=6).filter(lambda a: a.denominator > 1)
_CLOSED_FORM_SEQUENCES = st.one_of(
    st.builds(gevrey, _NOT_INTEGER),
    st.builds(power, st.builds(qgevrey, st.sampled_from([2, 3, Fraction(3, 2), Fraction(5, 3)])),
              _NOT_INTEGER.filter(lambda s: s > 1)),
    st.builds(shift, st.builds(gevrey, _NOT_INTEGER)))


class TestClosedForm:
    @settings(max_examples=100, deadline=None)
    @given(_CLOSED_FORM_SEQUENCES, st.integers(8, 14), st.sampled_from([64, 256]))
    def test_magnitudes_lie_inside_the_chain_and_hold_the_value(self, M, K, bits):
        pairs = [(k, j) for j in (0, 1, K // 2, K) for k in range(K + 2)]

        def step(b):
            approx = build_theta(M, K, b)
            return approx, [approx.term_magnitude(k, j) for k, j in pairs], \
                _parent_chain(M, K, b, pairs)

        approx, got, ref = intervals.certify(step, "test step", CertificationError, bits)
        assert approx.closed is not None
        slack = Fraction(1, 2 ** 380)    # the reference's own rounding
        for (k, j), g, r in zip(pairs, got, ref):
            assert r.lo <= g.lo <= g.hi <= r.hi, (k, j)
            value = _fraction(_mp_magnitude(M, k, j))
            assert g.lo * (1 - slack) <= value <= g.hi * (1 + slack), (k, j)

    @pytest.mark.parametrize("M, closed", [
        (gevrey(Fraction(1, 2)), True), (gevrey(Fraction(3, 2)), True),
        (shift(gevrey(Fraction(2, 3))), True),
        (power(qgevrey(2), Fraction(3, 2)), True),
        (gevrey(1), False), (gevrey(2), False), (qgevrey(2), False), (analytic(), False),
        (power(qgevrey(4), Fraction(3, 2)), False),     # qgevrey(8)
        (custom([1, 2, 8, 64, 1024, 2**15, 2**21, 2**28, 2**36, 2**45, 2**55, 2**66,
                 2**78, 2**91]), False),
        (loggevrey(1), False), (power(loggevrey(1), Fraction(3, 2)), False),
        (shift(loggevrey(1)), False),
    ], ids=str)
    def test_the_path_follows_the_sequence(self, M, closed):
        approx = build_theta(M, 10, 64)
        assert (approx.closed is not None) == closed

    def test_rational_data_stay_exact_points(self):
        # M_k = 2^(3k^2/2) is rational at even k only: those Mbar_k are
        # exact points, and no m_k is
        M, K = power(qgevrey(2), Fraction(3, 2)), 10
        approx = build_theta(M, K, 64)
        for k in range(K + 3):
            assert approx.mbars[k].is_point() == (k % 2 == 0), k
        assert not any(m.is_point() for m in approx.ms)
        # M = 1, 8, 64, 512, then 2^(27/2), 2^(39/2): Mbar = 1, 8, 128, 3072
        # and m = 8, 16, 24 are exact, and so are the terms built from them;
        # m_4 = 5 * 16^(3/2) = 320 is on the grid, m_3 = 4 * 8^(3/2) is not
        approx = build_theta(power(custom([1, 4, 16, 64, 512, 8192]), Fraction(3, 2)), 3, 64)
        assert [m.is_point() for m in approx.mbars] == [True] * 4 + [False] * 2
        assert [m.is_point() for m in approx.ms] == [True] * 3 + [False, True]
        assert [approx.ms[k].lo for k in (0, 1, 2, 4)] == [8, 16, 24, 320]
        for k, j, exact in [(1, 3, 8 * 32 ** 2), (2, 0, Fraction(128, 48 ** 2))]:
            term = approx.term_magnitude(k, j)
            assert term.is_point() and term.lo == exact
        assert not approx.term_magnitude(3, 0).is_point()
        # an m_k on the grid is exact too: m_k = (k+1) (k+2)^(1/2) for the
        # shifted gevrey(1/2), rational at k = 2 and 7
        approx = build_theta(shift(gevrey(Fraction(1, 2))), K, 64)
        assert [k for k in range(K + 2) if approx.ms[k].is_point()] == [2, 7]
        assert approx.ms[2].lo == 6 and approx.ms[7].lo == 24

    def test_log_convexity_is_decided_exactly(self):
        # Mbar = 1, 8, 2 * 5^(3/2), ...: m_1 < m_0, proven on the exact powers
        M = power(custom([1, 4, 5, 100]), Fraction(3, 2))
        with pytest.raises(DomainError, match="k=1"):
            build_theta(M, 1, 64)

    def test_the_values_are_formed_only_when_read(self, monkeypatch):
        calls = []
        interval_value = CarlemanSequence.interval_value

        def recording(self, j, bits=None):
            calls.append(j)
            return interval_value(self, j, bits)

        monkeypatch.setattr(CarlemanSequence, "interval_value", recording)
        M = gevrey(Fraction(1, 2))
        theta_eval(M, Fraction(1, 3), 4, 12)
        theta_derivative_at_zero(M, 4, 12)
        assert calls == []
        approx = build_theta(M, 12, 64)
        assert len(approx.values) == 15 and calls == list(range(15))


# SHA-256 of the sorted-key JSON of each result, frozen from the interval
# kernel that formed all four endpoint products of every product and ran
# every power as an interval chain, with cos and sin from separate mpmath
# calls; the kernel must reproduce every endpoint bit for bit.  The two
# theta_eval rows were frozen again when cos and sin became one evaluation
# padded by the argument's width; each new box contains the old one.  The
# three gevrey(1/2) and gevrey(3/2) rows were frozen again when those
# sequences took the closed form of the theta magnitudes; each new box lies
# inside the old one.
GOLDEN = [
    pytest.param(lambda: theta_eval(gevrey(Fraction(1, 2)), Fraction(1, 3), 16, 32),
                 "b08b58fb676ea75cbb1d6f95ee791f56526cf0a28445015a25beb52a0fd67a15",
                 id="theta_eval gevrey(1/2) x=1/3 j=16 K=32"),
    pytest.param(lambda: theta_eval(loggevrey(1), Fraction(2, 7), 8, 16),
                 "c763ea685f15221836733f563390cee46972b7252a269347b30960b03cbf3b51",
                 id="theta_eval loggevrey(1) x=2/7 j=8 K=16"),
    pytest.param(lambda: theta_derivative_at_zero(loggevrey(1), 16, 24),
                 "6764b928385a60f8d59296c815bc27a7332dda0aca6013ac241ff3d6e5022a49",
                 id="theta_derivative_at_zero loggevrey(1) j=16 K=24"),
    pytest.param(lambda: nodiv_witness(gevrey(Fraction(1, 2)), 4, 16),
                 "81d3779b0b98b1d21614f587bb2cc9fdb7d851153b00189df3f3838d5f276ca8",
                 id="nodiv_witness gevrey(1/2) J=4 K=16"),
    pytest.param(lambda: nodiv_witness(gevrey(Fraction(3, 2)), 4, 16),
                 "9a7ddcea0f05999502a35ac354d9308f0d4ffcdf7e0712ca1e5b2b9ad915ca3d",
                 id="nodiv_witness gevrey(3/2) J=4 K=16"),
    pytest.param(lambda: nodiv_witness(loggevrey(1), 4, 16),
                 "681eea94f37a75f00f131644f265dd3a521132597cf98423cad7364f72624ce1",
                 id="nodiv_witness loggevrey(1) J=4 K=16"),
]


@pytest.mark.parametrize("run, digest", GOLDEN)
def test_output_is_unchanged(run, digest):
    text = json.dumps(run().to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- error contract ------------------------------------------------------------


@st.composite
def _malformed_calls(draw):
    """One call of a public theta operation with one malformed argument, as
    (label, thunk); the others are M = gevrey(1), x = 1/3, j = 1, K = 12."""
    args = {"M": gevrey(1), "x": Fraction(1, 3), "j": 1, "K": 12}
    op = draw(st.sampled_from(["theta_eval", "theta_derivative_at_zero", "build_theta"]))
    names = {"theta_eval": ("M", "x", "j", "K"), "theta_derivative_at_zero": ("M", "j", "K"),
             "build_theta": ("M", "K")}[op]
    bad = draw(st.sampled_from(names))
    args[bad] = draw({"M": NOT_SEQUENCES, "x": NOT_DATA}.get(bad, BAD_ORDERS))
    fn = {"theta_eval": theta_eval, "theta_derivative_at_zero": theta_derivative_at_zero,
          "build_theta": build_theta}[op]
    return f"{op} {bad}={args[bad]!r}", lambda: fn(*(args[n] for n in names))


_NOT_CALLABLES = st.one_of(st.none(), st.integers(), st.fractions(), st.text(max_size=3),
                          st.lists(st.integers(), max_size=2))
_NOT_BORELS = st.one_of(st.none(), st.integers(), st.fractions(), st.text(max_size=3))


def _borel(**changes) -> BorelExample:
    args = {"coeffs": lambda v: Fraction(1, 2**v), "rho": Fraction(1, 2), "N": 10}
    args.update(changes)
    return BorelExample(**args)


@st.composite
def _malformed_borel_calls(draw):
    """One call of the rational-pole series API with one malformed argument,
    as (label, thunk); the others are A_v = 2^-v, rho = 1/2, N = 10, x = 1/3
    and j = 1."""
    bad = draw(st.sampled_from(["coeffs", "rho", "N", "x", "j", "B eval", "B derivatives"]))
    if bad in ("coeffs", "rho", "N"):
        value = draw({"coeffs": _NOT_CALLABLES, "rho": NOT_DATA, "N": BAD_ORDERS}[bad])
        return f"BorelExample {bad}={value!r}", lambda: _borel(**{bad: value})
    if bad == "x":
        x = draw(NOT_DATA)
        return f"borel_example_eval x={x!r}", lambda: borel_example_eval(_borel(), x)
    if bad == "j":
        j = draw(BAD_ORDERS)
        return f"borel_example_derivatives j={j!r}", lambda: borel_example_derivatives(_borel(), j)
    B = draw(_NOT_BORELS)
    if bad == "B eval":
        return f"borel_example_eval B={B!r}", lambda: borel_example_eval(B, Fraction(1, 3))
    return f"borel_example_derivatives B={B!r}", lambda: borel_example_derivatives(B, 1)


class TestErrorContract:
    @settings(max_examples=300, deadline=None)
    @given(_malformed_calls())
    def test_malformed_input_raises_a_coded_domain_error(self, call):
        label, thunk = call
        # the input is rejected before any certify attempt
        with mock.patch.object(theta, "certify", side_effect=AssertionError(label)):
            with pytest.raises(QalError) as info:
                thunk()
        assert isinstance(info.value, DomainError), label
        assert info.value.code == "domain-error"

    @pytest.mark.parametrize("call", [
        lambda: theta_eval(gevrey(1), Fraction(1, 3), -1, 12),
        lambda: theta_eval(gevrey(1), Fraction(1, 3), True, 12),
        lambda: theta_eval(gevrey(1), Fraction(1, 3), 1.5, 12),
        lambda: theta_eval(gevrey(1), "abc", 1, 12),
        lambda: theta_eval(None, Fraction(1, 3), 1, 12),
        lambda: theta_derivative_at_zero(gevrey(1), -3, 12),
        lambda: build_theta(gevrey(1), -1),
    ], ids=["j=-1", "j=True", "j=1.5", "x='abc'", "M=None", "derivative j=-3", "K=-1"])
    def test_the_reported_inputs(self, call):
        with pytest.raises(DomainError):
            call()

    @settings(max_examples=200, deadline=None)
    @given(_malformed_borel_calls())
    def test_malformed_borel_input_raises_a_coded_domain_error(self, call):
        label, thunk = call
        with pytest.raises(QalError) as info:
            thunk()
        assert isinstance(info.value, DomainError), label
        assert info.value.code == "domain-error"

    @pytest.mark.parametrize("call", [
        lambda: borel_example_eval(_borel(), "abc"),
        lambda: borel_example_eval(_borel(), 0.5),
        lambda: _borel(rho="x"),
        lambda: _borel(coeffs=None),
        lambda: _borel(N=8.5),
        lambda: borel_example_derivatives(_borel(), 1.5),
        lambda: borel_example_derivatives(_borel(), True),
        lambda: borel_example_eval(_borel(coeffs=lambda v: 0.5**v), Fraction(1, 3)),
    ], ids=["x='abc'", "x=0.5", "rho='x'", "coeffs=None", "N=8.5", "j=1.5", "j=True",
            "float coefficient"])
    def test_the_reported_borel_inputs(self, call):
        with pytest.raises(DomainError):
            call()

    def test_int_borel_data_is_exact_data(self):
        ints = _borel(coeffs=lambda v: 0, rho=0)
        fractions = _borel(coeffs=lambda v: Fraction(0), rho=Fraction(0))
        assert borel_example_eval(ints, 1).to_json() == \
            borel_example_eval(fractions, Fraction(1)).to_json()

    def test_an_int_argument_is_exact_data(self):
        assert theta_eval(gevrey(1), 0, 1, 12).to_json() == \
            theta_eval(gevrey(1), Fraction(0), 1, 12).to_json()
