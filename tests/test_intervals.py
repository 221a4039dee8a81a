from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from qal import intervals, sequences, theta
from qal.errors import DomainError, PrecisionFailure, UndecidableAtCap
from qal.intervals import PRECISION_CAP, RI, certify, iv_cos_sin, iv_pow, ri_pow_frac
from qal.sequences import CarlemanSequence, gevrey, loggevrey


def _bits(q: Fraction) -> int:
    return q.numerator.bit_length() + q.denominator.bit_length()


def at_precision(bits: int, fn):
    """fn() evaluated inside one certify attempt at ``bits``."""
    return certify(lambda _: fn(), "test step", PrecisionFailure, bits)


# -- exact Fraction reference of each RI operation ----------------------------------

def ref_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def ref_neg(a):
    return -a[1], -a[0]


def ref_mul(a, b):
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(ps), max(ps)


def ref_div(a, b):
    return ref_mul(a, (1 / b[1], 1 / b[0]))


def ref_pow(a, n):
    if n == 0:
        return Fraction(1), Fraction(1)
    if n < 0:
        return ref_div((Fraction(1), Fraction(1)), ref_pow(a, -n))
    out, base, k = (Fraction(1), Fraction(1)), a, n
    while k:
        if k & 1:
            out = ref_mul(out, base)
        base = ref_mul(base, base)
        k >>= 1
    if out[0] < 0 and a[0] <= 0 <= a[1]:
        out = (Fraction(0), out[1])
    return out


OPS = {
    "+": (lambda a, b: a + b, ref_add),
    "-": (lambda a, b: a - b, lambda a, b: ref_add(a, ref_neg(b))),
    "*": (lambda a, b: a * b, ref_mul),
    "/": (lambda a, b: a / b, ref_div),
}


def _has_zero(r) -> bool:
    return r[0] <= 0 <= r[1]


# -- strategies ---------------------------------------------------------------------

huge = st.integers(-(1 << 1500), 1 << 1500)
huge_den = st.integers(1, 1 << 1500)
small = st.integers(-50, 50)
small_den = st.integers(1, 50)
numbers = st.one_of(st.builds(Fraction, huge, huge_den),
                    st.builds(Fraction, huge, small_den),
                    st.builds(Fraction, small, huge_den),
                    st.builds(Fraction, small, small_den))


@st.composite
def intervals_(draw, point=None):
    lo = draw(numbers)
    if point is None:
        point = draw(st.booleans()) and draw(st.booleans())
    if point:
        return lo, lo
    return lo, lo + abs(draw(numbers))


precisions = st.sampled_from([8, 64, 256])


@st.composite
def signed_intervals(draw):
    """A point, or a nonnegative, nonpositive or sign-mixed interval."""
    kind = draw(st.sampled_from(["point", "nonnegative", "nonpositive", "mixed"]))
    if kind == "point":
        lo = draw(numbers)
        return lo, lo
    a, b = sorted((abs(draw(numbers)), abs(draw(numbers))))
    if kind == "nonnegative":
        return a, b
    if kind == "nonpositive":
        return -b, -a
    return -a, b


def _check_rounded(out: RI, p: int):
    """A long endpoint of a non-point result is a p-bit mantissa times a
    power of two, and it is long only because of its binary exponent: in
    [1, 2^p) it has at most 2p bits.  Point results are exact."""
    if out.is_point():
        return
    for q in (out.lo, out.hi):
        if _bits(q) <= 2 * p:
            continue
        d = q.denominator
        assert d & (d - 1) == 0, q
        n = abs(q.numerator)
        assert (n >> ((n & -n).bit_length() - 1)).bit_length() <= p, q
        assert not (1 <= abs(q) < 2**p), q


class TestOutwardRounding:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(OPS)), intervals_(), intervals_(), precisions)
    def test_ring_operations_enclose_the_exact_result(self, op, a, b, bits):
        fn, ref = OPS[op]
        if op == "/":
            assume(not _has_zero(b))
        p = bits + intervals._GUARD_BITS
        out = at_precision(bits, lambda: fn(RI(*a), RI(*b)))
        lo, hi = ref(a, b)
        assert out.lo <= lo and hi <= out.hi
        _check_rounded(out, p)
        if op in "+-*":
            # one rounding: each endpoint moves by less than 2^(2-p) of itself
            assert lo - out.lo <= abs(lo) / 2 ** (p - 2)
            assert out.hi - hi <= abs(hi) / 2 ** (p - 2)
            # short exact endpoints are kept
            if _bits(lo) <= 2 * p:
                assert out.lo == lo
            if _bits(hi) <= 2 * p:
                assert out.hi == hi

    @settings(max_examples=80, deadline=None)
    @given(intervals_(), st.integers(-4, 6), precisions)
    def test_powers_enclose_the_exact_result(self, a, n, bits):
        if n < 0:
            assume(not _has_zero(a))
        p = bits + intervals._GUARD_BITS
        out = at_precision(bits, lambda: RI(*a) ** n)
        lo, hi = ref_pow(a, n)
        assert out.lo <= lo and hi <= out.hi
        _check_rounded(out, p)

    @settings(max_examples=40, deadline=None)
    @given(st.builds(Fraction, st.integers(-(1 << 300), 1 << 300), st.integers(1, 1 << 300)),
           st.fractions(min_value=0, max_value=4), precisions)
    def test_powers_equal_square_and_multiply_bit_for_bit(self, lo, width, bits):
        # the square-and-multiply loop written with RI *, from RI(1) and
        # squaring once more after the top bit
        def by_products(x, n):
            out, base = RI(1), x
            while n:
                if n & 1:
                    out = out * base
                base = base * base
                n >>= 1
            if out.lo < 0 and x.lo <= 0 <= x.hi:
                out = RI(0, out.hi)
            return out

        x = RI(lo, lo + width)
        for n in range(1, 41):
            got, ref = at_precision(bits, lambda: (x ** n, by_products(x, n)))
            assert (got.lo, got.hi) == (ref.lo, ref.hi), n

    @settings(max_examples=80, deadline=None)
    @given(intervals_(point=True), intervals_(point=True), st.integers(-3, 4),
           precisions)
    def test_point_operations_stay_exact(self, a, b, n, bits):
        x, y = a[0], b[0]
        assume(y != 0 and x != 0)
        outs = at_precision(bits, lambda: (RI(x) + RI(y), RI(x) - RI(y), RI(x) * RI(y),
                                           RI(x) / RI(y), RI(x) ** n))
        for out, exact in zip(outs, (x + y, x - y, x * y, x / y, x ** n)):
            assert out.lo == out.hi == exact

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(OPS)), intervals_(), intervals_(), st.integers(-3, 4))
    def test_outside_certify_every_operation_is_exact(self, op, a, b, n):
        fn, ref = OPS[op]
        if op == "/":
            assume(not _has_zero(b))
        out = fn(RI(*a), RI(*b))
        assert (out.lo, out.hi) == ref(a, b)
        if n < 0:
            assume(not _has_zero(a))
        out = RI(*a) ** n
        assert (out.lo, out.hi) == ref_pow(a, n)

    @settings(max_examples=200, deadline=None)
    @given(signed_intervals(), signed_intervals(), precisions)
    def test_products_equal_the_four_product_reference_bit_for_bit(self, a, b, bits):
        got, ref = at_precision(bits, lambda: (RI(*a) * RI(*b),
                                               intervals._outward(*ref_mul(a, b))))
        assert (got.lo, got.hi) == (ref.lo, ref.hi)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(OPS)), signed_intervals(), signed_intervals(),
           st.integers(-4, 6), precisions)
    def test_results_have_ordered_fraction_endpoints(self, op, a, b, n, bits):
        fn = OPS[op][0]
        if op == "/":
            assume(not _has_zero(b))
        if n < 0:
            assume(not _has_zero(a))
        for out in at_precision(bits, lambda: (fn(RI(*a), RI(*b)), RI(*a) ** n)):
            assert type(out.lo) is Fraction and type(out.hi) is Fraction
            assert out.lo <= out.hi

    def test_rounding_is_undone_after_certify(self):
        a = RI(Fraction(1, 3) ** 200, Fraction(1, 3) ** 199)
        b = RI(Fraction(2, 7) ** 150, Fraction(2, 7) ** 149)
        rounded = at_precision(64, lambda: a * b)
        exact = a * b
        assert (exact.lo, exact.hi) == ref_mul((a.lo, a.hi), (b.lo, b.hi))
        assert rounded.lo < exact.lo and exact.hi < rounded.hi
        assert intervals._WORKING.get() is None


class TestErrors:
    def test_empty_interval(self):
        with pytest.raises(DomainError) as info:
            RI(2, 1)
        assert info.value.code == "domain-error"

    def test_empty_interval_on_the_rounding_path(self):
        with pytest.raises(DomainError) as info:
            intervals._outward(Fraction(2), Fraction(1))
        assert info.value.code == "domain-error"

    @pytest.mark.parametrize("divisor", [RI(-1, 1), RI(0, 1), RI(-1, 0), RI(0)])
    def test_division_by_an_interval_that_contains_zero(self, divisor):
        with pytest.raises(DomainError) as info:
            RI(1, 2) / divisor
        assert info.value.code == "domain-error"

    @pytest.mark.parametrize("base", [RI(0, 1), RI(-2, 3), RI(-1), Fraction(0),
                                      Fraction(-3, 2)])
    def test_fractional_power_of_a_non_positive_base(self, base):
        with pytest.raises(DomainError) as info:
            ri_pow_frac(base, Fraction(1, 2), 64)
        assert info.value.code == "domain-error"


class TestCertify:
    @pytest.mark.parametrize("error, code", [(PrecisionFailure, "precision-failure"),
                                             (UndecidableAtCap, "undecidable-at-cap")])
    def test_escalation_is_clamped_at_the_cap(self, monkeypatch, error, code):
        monkeypatch.setenv("QAL_PRECISION_BITS", "3000")
        seen = []
        with pytest.raises(error) as info:
            certify(lambda bits: seen.append(bits), "never certified", error)
        assert seen == [3000, PRECISION_CAP] == [3000, 4096]
        assert info.value.code == code
        assert "never certified" in str(info.value)

    def test_default_escalation_doubles_to_the_cap(self, monkeypatch):
        monkeypatch.delenv("QAL_PRECISION_BITS", raising=False)
        seen = []
        with pytest.raises(PrecisionFailure):
            certify(lambda bits: seen.append(bits), "never certified", PrecisionFailure)
        assert seen == [256, 512, 1024, 2048, 4096]

    def test_first_certified_result_wins(self):
        seen = []

        def step(bits):
            seen.append((bits, intervals._WORKING.get()))
            return "done" if bits >= 1024 else None

        assert certify(step, "test", UndecidableAtCap, 300) == "done"
        g = intervals._GUARD_BITS
        assert seen == [(300, 300 + g), (600, 600 + g), (1200, 1200 + g)]
        assert intervals._WORKING.get() is None

    def test_working_precision_is_reset_when_the_step_raises(self):
        def step(bits):
            raise ZeroDivisionError("inside the step")

        with pytest.raises(ZeroDivisionError):
            certify(step, "test", PrecisionFailure)
        assert intervals._WORKING.get() is None

    def test_theta_escalation_is_clamped_at_the_cap(self, monkeypatch):
        monkeypatch.setenv("QAL_PRECISION_BITS", "3000")
        seen = []
        build = theta.build_theta

        def recording_build(M, K, bits=None):
            seen.append(bits)
            return build(M, K, bits)

        monkeypatch.setattr(theta, "build_theta", recording_build)
        # a tail far above the class bound: |theta^(j)(x)| <= 3*2^j*j!M_j never holds
        monkeypatch.setattr(theta.ThetaApproximation, "tail_bound",
                            lambda self, j: Fraction(10) ** 100)
        with pytest.raises(PrecisionFailure) as info:
            theta.theta_eval(gevrey(Fraction(1, 2)), Fraction(1, 3), 2, 10)
        assert seen == [3000, 4096]
        assert info.value.code == "precision-failure"

    def test_comparison_escalation_is_clamped_at_the_cap(self, monkeypatch):
        monkeypatch.setenv("QAL_PRECISION_BITS", "3000")
        seen = []
        interval_value = CarlemanSequence.interval_value

        def recording(self, j, bits=None):
            seen.append(bits)
            return interval_value(self, j, bits)

        monkeypatch.setattr(CarlemanSequence, "interval_value", recording)
        monkeypatch.setattr(RI, "cmp", lambda self, other: None)
        M = loggevrey(1)
        with pytest.raises(UndecidableAtCap) as info:
            sequences._compare_scan(M, M, [([(2, 1)], [(3, 1)], "M_2 against M_3")])
        assert seen == [3000, 3000, 4096, 4096]
        assert info.value.code == "undecidable-at-cap"
        assert "M_2 against M_3" in str(info.value)


def _contains(r: RI, ref) -> bool:
    """Whether r contains the mpmath value ref (computed well past r's width)."""
    with mpmath.workprec(2000):
        lo = mpmath.mpf(r.lo.numerator) / r.lo.denominator
        hi = mpmath.mpf(r.hi.numerator) / r.hi.denominator
        return lo <= ref <= hi


class TestBridge:
    def test_interval_base_keeps_its_width(self):
        # the base's endpoints enter mpmath outward, not rounded to 53 bits
        base = RI(Fraction(4, 3), Fraction(4, 3) + Fraction(1, 1 << 200))
        out = iv_pow(base, Fraction(5, 2), 256)
        assert not out.is_point() and out.width() < Fraction(1, 1 << 190)
        with mpmath.workprec(2000):
            assert _contains(out, (mpmath.mpf(4) / 3) ** mpmath.mpf(2.5))
            assert _contains(out, (mpmath.mpf(4) / 3 + mpmath.mpf(2) ** -200) ** 2.5)

    def test_loggevrey_values_enclose_the_true_value(self):
        M = loggevrey(1)
        for j in (1, 5, 16):
            out = M.interval_value(j, 256)
            assert not out.is_point()
            with mpmath.workprec(2000):
                assert _contains(out, mpmath.log(j + mpmath.e) ** j), j
        out = sequences.value(M, 5, precision=200)
        assert out.rel_width() <= Fraction(1, 1 << 200)
        with mpmath.workprec(2000):
            assert _contains(out, mpmath.log(5 + mpmath.e) ** 5)

    @settings(max_examples=60, deadline=None)
    @given(st.builds(Fraction, st.integers(-(1 << 90), 1 << 90), st.integers(1, 1 << 80)),
           st.one_of(st.just(Fraction(0)), st.fractions(min_value=0, max_value=8),
                     st.builds(Fraction, st.integers(1, 1 << 20), st.just(1 << 100))),
           st.sampled_from([8, 64, 256, 1000]))
    def test_cos_sin_equal_mpmath_cos_and_sin(self, lo, width, bits):
        def ref_iv(q: Fraction):
            return mpmath.iv.mpf(q.numerator) / mpmath.iv.mpf(q.denominator)

        def ref_ri(y) -> tuple[Fraction, Fraction]:
            a, b = y._mpi_
            return (Fraction(*mpmath.libmp.to_rational(a)),
                    Fraction(*mpmath.libmp.to_rational(b)))

        hi = lo + width
        old = mpmath.iv.prec
        mpmath.iv.prec = bits + 16
        try:
            y = mpmath.iv.mpf([ref_iv(lo).a, ref_iv(hi).b])
            ref = ref_ri(mpmath.iv.cos(y)), ref_ri(mpmath.iv.sin(y))
        finally:
            mpmath.iv.prec = old
        args = [RI(lo, hi)] + ([lo, RI(lo)] if width == 0 else [])
        for x in args:
            c, s = iv_cos_sin(x, bits)
            assert ((c.lo, c.hi), (s.lo, s.hi)) == ref, x
