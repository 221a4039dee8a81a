import hashlib
import json
import time
from fractions import Fraction

import mpmath
import pytest

from qal import intervals, theta
from qal.division import nodiv_witness
from qal.errors import CertificationError, DomainError
from qal.intervals import default_bits
from qal.rationals import factorial
from qal.sequences import analytic, gevrey, loggevrey, qgevrey
from qal.theta import (BorelExample, ThetaDerivative, borel_example_derivatives,
                       borel_example_eval, build_theta, theta_derivative_at_zero,
                       theta_eval)


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
    def test_high_order_irrational_theta_is_fast_and_short(self, monkeypatch):
        monkeypatch.delenv("QAL_PRECISION_BITS", raising=False)
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

    def test_rational_partial_sums_stay_exact(self):
        for M in (gevrey(1), gevrey(2), qgevrey(2), analytic()):
            for j in (0, 5, 12):
                K = j + 10
                out = theta_derivative_at_zero(M, j, K)
                # the lower end is the exact partial sum, the width the exact tail
                assert out.magnitude.lo == exact_partial_sum(M, j, K), (M, j)
                assert out.magnitude.width() == build_theta(M, K).tail_bound(j), (M, j)


# SHA-256 of the sorted-key JSON of each result, frozen from the interval
# kernel that formed all four endpoint products of every product and ran
# every power as an interval chain, with cos and sin from separate mpmath
# calls; the kernel must reproduce every endpoint bit for bit.
GOLDEN = [
    pytest.param(lambda: theta_eval(gevrey(Fraction(1, 2)), Fraction(1, 3), 16, 32),
                 "09799acb1d1e5cc60f72a64a2fba155d7bc33dace1106d831ac4c71a77fefc76",
                 id="theta_eval gevrey(1/2) x=1/3 j=16 K=32"),
    pytest.param(lambda: theta_eval(loggevrey(1), Fraction(2, 7), 8, 16),
                 "52c103a394b0825ebf8d121b239f4f60452f48a604c3e2d9839a984d95662dd5",
                 id="theta_eval loggevrey(1) x=2/7 j=8 K=16"),
    pytest.param(lambda: theta_derivative_at_zero(loggevrey(1), 16, 24),
                 "6764b928385a60f8d59296c815bc27a7332dda0aca6013ac241ff3d6e5022a49",
                 id="theta_derivative_at_zero loggevrey(1) j=16 K=24"),
    pytest.param(lambda: nodiv_witness(gevrey(Fraction(1, 2)), 4, 16),
                 "2ef365d46d437f75a628b098310c72565e42f12cca8b862e2a7ed120a5373287",
                 id="nodiv_witness gevrey(1/2) J=4 K=16"),
    pytest.param(lambda: nodiv_witness(gevrey(Fraction(3, 2)), 4, 16),
                 "aeb148db45cdb135533fec10c17fc08375eb825b727065dfddf1401375caaba7",
                 id="nodiv_witness gevrey(3/2) J=4 K=16"),
    pytest.param(lambda: nodiv_witness(loggevrey(1), 4, 16),
                 "681eea94f37a75f00f131644f265dd3a521132597cf98423cad7364f72624ce1",
                 id="nodiv_witness loggevrey(1) J=4 K=16"),
]


@pytest.mark.parametrize("run, digest", GOLDEN)
def test_output_is_unchanged(monkeypatch, run, digest):
    monkeypatch.delenv("QAL_PRECISION_BITS", raising=False)
    text = json.dumps(run().to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
