from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from qal import intervals, sequences, theta
from qal.errors import DomainError, PrecisionFailure, QalError, UndecidableAtCap
from qal.intervals import (CI, PRECISION_CAP, RI, PowerLadder, certify, iv_cos_sin, iv_exp,
                           iv_log_shift_e, iv_pow, ri_pow_frac)
from qal.sequences import CarlemanSequence, gevrey, loggevrey

from malformed import NOT_DATA


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
            assert out.lo is out.hi  # a point holds one Fraction

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

    @settings(max_examples=150, deadline=None)
    @given(intervals_(point=True), signed_intervals(), precisions)
    def test_a_point_times_an_interval_is_the_four_product_reference(self, a, b, bits):
        # the point's sign orders its two products: the min and max of the four
        point, other = RI(a[0]), RI(*b)
        for x, y, ref in ((point, other, ref_mul(a, b)), (other, point, ref_mul(b, a))):
            got, want = at_precision(bits, lambda: (x * y, intervals._outward(*ref)))
            assert (got.lo, got.hi) == (want.lo, want.hi)
            exact = x * y
            assert (exact.lo, exact.hi) == ref

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

    @settings(max_examples=60, deadline=None)
    @given(st.builds(Fraction, st.integers(0, 1 << 300), st.integers(1, 1 << 300)),
           st.one_of(st.just(Fraction(0)), st.fractions(min_value=0, max_value=4),
                     st.builds(Fraction, st.integers(1, 1 << 20), st.just(1 << 200))),
           st.lists(st.integers(-40, 40), min_size=1, max_size=12), precisions)
    def test_ladder_powers_equal_pow_bit_for_bit(self, lo, width, ns, bits):
        if lo == 0:
            ns = [n for n in ns if n >= 0]
        x = RI(lo, lo + width)
        ladder = PowerLadder(x)
        # one ladder serves every call, in any order and with repeats
        got = at_precision(bits, lambda: [ladder.power(n) for n in ns + ns[::-1]])
        ref = at_precision(bits, lambda: [x ** n for n in ns + ns[::-1]])
        assert [(g.lo, g.hi) for g in got] == [(r.lo, r.hi) for r in ref]
        # a new working precision starts the squares again
        got = at_precision(2 * bits, lambda: [ladder.power(n) for n in ns])
        ref = at_precision(2 * bits, lambda: [x ** n for n in ns])
        assert [(g.lo, g.hi) for g in got] == [(r.lo, r.hi) for r in ref]
        # and outside certify the powers are exact
        assert [(ladder.power(n).lo, ladder.power(n).hi) for n in ns] == \
            [ref_pow((x.lo, x.hi), n) for n in ns]

    @pytest.mark.parametrize("n", [True, False, 2.0, Fraction(2)], ids=repr)
    def test_ladder_exponent_is_an_int_that_is_not_a_bool(self, n):
        # True must not stand for the first power
        with pytest.raises(DomainError) as info:
            PowerLadder(RI(1, 2)).power(n)
        assert info.value.code == "domain-error"

    @pytest.mark.parametrize("n", [True, False, None, 2.0, Fraction(2)], ids=repr)
    def test_pow_exponent_is_an_int_that_is_not_a_bool(self, n):
        # RI(1, 2) ** True used to be [1, 2]
        with pytest.raises(DomainError) as info:
            RI(1, 2) ** n
        assert info.value.code == "domain-error"

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
        monkeypatch.setattr(intervals, "_DEFAULT_BITS", 3000)
        seen = []
        with pytest.raises(error) as info:
            certify(lambda bits: seen.append(bits), "never certified", error)
        assert seen == [3000, PRECISION_CAP] == [3000, 4096]
        assert info.value.code == code
        assert "never certified" in str(info.value)

    def test_default_escalation_doubles_to_the_cap(self):
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
        monkeypatch.setattr(intervals, "_DEFAULT_BITS", 3000)
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
        monkeypatch.setattr(intervals, "_DEFAULT_BITS", 3000)
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
        # iv's cos and sin on a dyadic point, enclosures within 2w of theirs
        # on any other argument
        hi = lo + width
        for x in [RI(lo, hi)] + ([lo, RI(lo)] if width == 0 else []):
            _check_cos_sin(x, bits)


# -- the bridge against mpmath's iv context --------------------------------------------

def _iv_of(x):
    """x (an RI or a Fraction) as an interval of mpmath's iv context at its
    current precision: each endpoint n/d as iv.mpf(n) / iv.mpf(d), the
    lower end of the lower endpoint's interval and the upper end of the
    upper one's."""
    def of(q: Fraction):
        if q.denominator == 1:
            return mpmath.iv.mpf(q.numerator)
        return mpmath.iv.mpf(q.numerator) / mpmath.iv.mpf(q.denominator)

    if not isinstance(x, RI):
        return of(Fraction(x))
    if x.is_point():
        return of(x.lo)
    return mpmath.iv.mpf([of(x.lo).a, of(x.hi).b])


def _iv_endpoints(y) -> tuple[Fraction, Fraction]:
    a, b = y._mpi_
    return (Fraction(*mpmath.libmp.to_rational(a)), Fraction(*mpmath.libmp.to_rational(b)))


def _at_iv_prec(bits: int, fn):
    """fn() with mpmath's iv context at bits + 16, the bridge's precision."""
    old = mpmath.iv.prec
    mpmath.iv.prec = bits + 16
    try:
        return fn()
    finally:
        mpmath.iv.prec = old


# parts of up to about 1000 bits, bounded magnitudes where a result could overflow
_LONG = st.integers(-(1 << 1000), 1 << 1000)
_fractions_1000 = st.one_of(st.builds(Fraction, _LONG, st.integers(1, 1 << 1000)),
                            st.builds(Fraction, st.integers(-50, 50), st.integers(1, 1 << 1000)),
                            st.builds(Fraction, _LONG, st.integers(1, 50)),
                            st.fractions(-50, 50, max_denominator=100))
_moderate = st.one_of(st.builds(Fraction, _LONG, st.integers(1 << 992, 1 << 1000)),
                      st.fractions(-50, 50, max_denominator=100))
_widths = st.one_of(st.just(Fraction(0)), st.fractions(min_value=0, max_value=4),
                    st.builds(Fraction, st.integers(1, 1 << 20), st.just(1 << 600)))
_bridge_bits = st.sampled_from([8, 16, 53, 64, 256, 1000, 4096])


@st.composite
def _args(draw, values):
    """A Fraction, or an RI from it, non-point when the width is positive."""
    lo = draw(values)
    width = draw(_widths)
    if width == 0 and draw(st.booleans()):
        return lo
    return RI(lo, lo + width)


def _pair(r: RI) -> tuple[Fraction, Fraction]:
    return r.lo, r.hi


def _cos_sin_at(q: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """cos q and sin q by mpmath at prec bits, q rounded once to prec bits."""
    libmp = mpmath.libmp
    with mpmath.workprec(prec):
        t = mpmath.mpf(libmp.from_rational(q.numerator, q.denominator, prec, libmp.round_nearest))
        return tuple(Fraction(*libmp.to_rational(v._mpf_)) for v in (mpmath.cos(t), mpmath.sin(t)))


def _check_cos_sin(x, bits: int) -> None:
    """iv_cos_sin(x, bits) against mpmath.  Let [a, b] be the raw interval
    that iv builds from x at bits + 16 bits and w = b - a.  On a dyadic
    point (w = 0) the result is iv.cos and iv.sin bit for bit.  On every
    input it contains cos and sin at both ends and the midpoint of x,
    computed at 4 bits + 64 bits, and each component is at most
    2w + 2^-bits wider than iv's."""
    ref = _at_iv_prec(bits, lambda: (_iv_endpoints(mpmath.iv.cos(_iv_of(x))),
                                     _iv_endpoints(mpmath.iv.sin(_iv_of(x)))))
    a, b = (Fraction(*mpmath.libmp.to_rational(e)) for e in intervals._mpi(x, bits + 16))
    got = iv_cos_sin(x, bits)
    if a == b:
        assert tuple(map(_pair, got)) == ref
    lo, hi = _pair(x) if isinstance(x, RI) else (x, x)
    for q in (lo, hi, (lo + hi) / 2):
        for r, v in zip(got, _cos_sin_at(q, 4 * bits + 64)):
            assert r.lo <= v <= r.hi, (q, r)
    for r, (ref_lo, ref_hi) in zip(got, ref):
        assert r.width() <= ref_hi - ref_lo + 2 * (b - a) + Fraction(1, 1 << bits)


class TestBridgeOracle:
    """Each bridge function returns exactly the endpoints of mpmath's iv
    context at iv.prec = bits + 16 on the same input; cos and sin do on a
    dyadic point, and on other arguments keep the contract of
    :func:`_check_cos_sin`."""

    @settings(max_examples=80, deadline=None)
    @given(_fractions_1000, _bridge_bits)
    def test_conversion_is_the_iv_quotient(self, q, bits):
        ref = _at_iv_prec(bits, lambda: _iv_of(q)._mpi_)
        assert intervals._mpi(q, bits + 16) == ref

    @settings(max_examples=60, deadline=None)
    @given(_args(_fractions_1000), _bridge_bits)
    def test_cos_sin(self, x, bits):
        _check_cos_sin(x, bits)

    @settings(max_examples=60, deadline=None)
    @given(_args(_moderate), _bridge_bits)
    def test_exp(self, x, bits):
        ref = _at_iv_prec(bits, lambda: _iv_endpoints(mpmath.iv.exp(_iv_of(x))))
        assert _pair(iv_exp(x, bits)) == ref

    @settings(max_examples=60, deadline=None)
    @given(_args(_fractions_1000.map(abs)), _bridge_bits)
    def test_log_shift_e(self, x, bits):
        ref = _at_iv_prec(bits, lambda: _iv_endpoints(
            mpmath.iv.log(_iv_of(x) + mpmath.iv.e)))
        assert _pair(iv_log_shift_e(x, bits)) == ref

    @settings(max_examples=60, deadline=None)
    @given(_args(_moderate.map(lambda q: abs(q) + Fraction(1, 7))),
           _args(st.fractions(-8, 8, max_denominator=30)), _bridge_bits)
    def test_pow(self, base, expo, bits):
        ref = _at_iv_prec(bits, lambda: _iv_endpoints(_iv_of(base) ** _iv_of(expo)))
        assert _pair(iv_pow(base, expo, bits)) == ref

    def test_mpmath_precision_is_left_alone(self):
        old = mpmath.iv.prec
        mpmath.iv.prec = 77
        try:
            iv_cos_sin(Fraction(1, 3), 256)
            iv_exp(RI(Fraction(1, 3), Fraction(1, 2)), 512)
            iv_pow(Fraction(3, 2), Fraction(1, 3), 128)
            iv_log_shift_e(Fraction(5), 64)
            assert mpmath.iv.prec == 77
        finally:
            mpmath.iv.prec = old


# -- the kernel's int paths against Fraction arithmetic --------------------------------

_PARTS = st.integers(-(1 << 400), 1 << 400)


@st.composite
def kernel_operands(draw):
    """A dyadic, non-dyadic, zero or integer Fraction, of either sign."""
    kind = draw(st.sampled_from(["dyadic", "non-dyadic", "zero", "integer"]))
    if kind == "zero":
        return Fraction(0)
    if kind == "integer":
        return Fraction(draw(_PARTS))
    if kind == "dyadic":
        return Fraction(draw(_PARTS), 1 << draw(st.integers(0, 500)))
    return Fraction(draw(_PARTS), draw(st.integers(1, 1 << 400)))


def _identical(got, want: Fraction) -> bool:
    return (type(got) is Fraction and got == want and got.numerator == want.numerator
            and got.denominator == want.denominator and hash(got) == hash(want))


def _floor_reference(q: Fraction, p: int) -> Fraction:
    """The rounding formula on Fraction arithmetic alone."""
    n, d = q.numerator, q.denominator
    s = p - 1 - n.bit_length() + d.bit_length()
    if s >= 0:
        return Fraction((n << s) // d, 1 << s)
    return Fraction((n // (d << -s)) << -s)


class TestKernelHelpers:
    def test_fraction_layout_is_the_two_slots(self):
        # intervals._fraction builds Fractions through these slots
        assert Fraction.__slots__ == ("_numerator", "_denominator")

    @settings(max_examples=300, deadline=None)
    @given(_PARTS, st.integers(0, 500))
    def test_dyadic_constructor_is_fraction(self, m, s):
        assert _identical(intervals._dyadic(m, 1 << s), Fraction(m, 1 << s))

    @settings(max_examples=300, deadline=None)
    @given(kernel_operands(), kernel_operands())
    def test_ring_helpers_equal_fraction_arithmetic(self, x, y):
        assert _identical(intervals._add(x, y), x + y)
        assert _identical(intervals._mul(x, y), x * y)
        assert _identical(intervals._neg(x), -x)
        assert intervals._lt(x, y) == (x < y)
        assert intervals._eq(x, y) == (x == y)
        if x:
            assert _identical(intervals._recip(x), 1 / x)

    @settings(max_examples=300, deadline=None)
    @given(kernel_operands(), st.sampled_from([8, 64, 288, 1056]))
    def test_rounding_equals_the_fraction_formula(self, q, p):
        assert _identical(intervals._floor_dyadic(q, p), _floor_reference(q, p))
        long = _bits(q) > 2 * p
        want_down = _floor_reference(q, p) if long else q
        want_up = -_floor_reference(-q, p) if long else q
        assert _identical(intervals._round_down(q, p), want_down)
        assert _identical(intervals._round_up(q, p), want_up)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(kernel_operands(), min_size=4, max_size=4))
    def test_min_max_are_the_builtins(self, ps):
        ps = tuple(ps)
        lo, hi = intervals._min_max(ps)
        assert lo is min(ps) and hi is max(ps)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-(1 << 300), 1 << 300), st.integers(-400, 400))
    def test_bridge_endpoints_are_fraction(self, man, exp):
        mpf = mpmath.libmp.from_man_exp(man, exp)
        out = intervals._from_mpi((mpf, mpf))
        assert out.lo is out.hi
        assert _identical(out.lo, Fraction(*mpmath.libmp.to_rational(mpf)))

    def test_rel_width_of_an_interval_with_an_endpoint_at_zero(self):
        assert RI(0, 1).rel_width() == Fraction(1 << 62)
        assert RI(-1, 0).rel_width() == Fraction(1 << 62)
        assert RI(0).rel_width() == 0
        assert RI(1, 3).rel_width() == 2


# -- the int paths against the code they replace ----------------------------------------

_FACTORS = st.integers(1, 1 << 120)


@st.composite
def shared_factor_operands(draw):
    """Two Fractions whose numerators and denominators share factors, so
    that every gcd of Fraction's product and sum is nontrivial."""
    g, h, k = draw(_FACTORS), draw(_FACTORS), draw(_FACTORS)
    x = Fraction(draw(_PARTS) * g, h * k * draw(st.sampled_from([1, 2, 3, 6])))
    y = Fraction(draw(_PARTS) * h, g * k)
    return x, y


def _old_reciprocal(x: RI) -> RI:
    """1/x as ``RI(1) / x`` formed it before the reciprocal helper: the
    reciprocal interval from Fraction division, times the point 1."""
    if x.lo == x.hi:
        return RI(1) * RI(1 / x.lo)
    return RI(1) * intervals._outward(1 / x.hi, 1 / x.lo)


_nonzero_intervals = signed_intervals().filter(lambda a: not _has_zero(a))
# an odd denominator longer than the bridge's precision, which rounds it
# differently at the lower and the upper end
_long_denominators = st.builds(lambda n, d: Fraction(n, d | 1), _LONG,
                               st.integers(1 << 100, 1 << 1000))


class TestIntPaths:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(shared_factor_operands(), st.tuples(kernel_operands(), kernel_operands())))
    def test_product_and_sum_are_fraction_operators(self, xy):
        x, y = xy
        assert _identical(intervals._mul(x, y), x * y)
        assert _identical(intervals._mul(y, x), y * x)
        assert _identical(intervals._add(x, y), x + y)
        assert _identical(intervals._add(x, -x), Fraction(0))

    @settings(max_examples=300, deadline=None)
    @given(signed_intervals(), precisions)
    def test_outward_is_idempotent(self, a, bits):
        def twice():
            once = intervals._outward(*a)
            return once, intervals._outward(once.lo, once.hi)

        once, again = at_precision(bits, twice)
        assert _identical(again.lo, once.lo) and _identical(again.hi, once.hi)

    @settings(max_examples=150, deadline=None)
    @given(_nonzero_intervals, st.integers(1, 9), precisions)
    def test_reciprocal_is_one_over_x_inside_certify(self, a, n, bits):
        x = RI(*a)
        ladder = PowerLadder(x)
        got = at_precision(bits, lambda: [intervals._reciprocal(x), RI(1) / x, x ** -n,
                                          ladder.power(-n)])
        want = at_precision(bits, lambda: [_old_reciprocal(x), _old_reciprocal(x),
                                           _old_reciprocal(x ** n), _old_reciprocal(x ** n)])
        for g, w in zip(got, want):
            assert _identical(g.lo, w.lo) and _identical(g.hi, w.hi)
            assert (g.lo is g.hi) == (w.lo is w.hi)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(kernel_operands(), _fractions_1000, _long_denominators), _bridge_bits)
    def test_kept_end_is_the_end_of_the_iv_quotient(self, q, bits):
        lib, prec = mpmath.libmp, bits + 16
        lo = intervals._mpi_end(q, prec, lib.round_floor)
        hi = intervals._mpi_end(q, prec, lib.round_ceiling)
        assert (lo, hi) == _at_iv_prec(bits, lambda: _iv_of(q)._mpi_)
        # the quotient of the floor and ceiling pairs that the conversion
        # formed before it kept one end of each
        n, d = q.numerator, q.denominator
        num = (lib.from_int(n, prec, lib.round_floor), lib.from_int(n, prec, lib.round_ceiling))
        den = (lib.from_int(d, prec, lib.round_floor), lib.from_int(d, prec, lib.round_ceiling))
        assert (lo, hi) == lib.mpi_div(num, den, prec)


# -- error contract ----------------------------------------------------------------------

_BAD_BITS = st.one_of(NOT_DATA, st.fractions(), st.integers(max_value=0))


@st.composite
def _malformed_calls(draw):
    """One interval operation with one malformed argument, as (label, thunk)."""
    op = draw(st.sampled_from(["RI", "RI lo", "RI hi", "RI.point", "RI.of", "CI re", "CI im",
                               "CI.pad", "iv_exp", "iv_log_shift_e", "iv_cos_sin",
                               "iv_pow base", "iv_pow expo", "ri_pow_frac x",
                               "ri_pow_frac s", "bits"]))
    if op == "bits":
        bits = draw(_BAD_BITS)
        fn = draw(st.sampled_from([
            lambda: iv_exp(1, bits), lambda: iv_log_shift_e(1, bits),
            lambda: iv_cos_sin(1, bits), lambda: iv_pow(2, Fraction(1, 3), bits),
            lambda: ri_pow_frac(2, Fraction(1, 2), bits)]))
        return f"bits={bits!r}", fn
    # None is the default of RI's hi and CI's im: a point, and a real box
    bad = draw(NOT_DATA.filter(lambda v: v is not None) if op in ("RI hi", "CI im")
               else NOT_DATA)
    return f"{op} {bad!r}", {
        "RI": lambda: RI(bad), "RI lo": lambda: RI(bad, 1), "RI hi": lambda: RI(0, bad),
        "RI.point": lambda: RI.point(bad), "RI.of": lambda: RI.of(bad),
        "CI re": lambda: CI(bad), "CI im": lambda: CI(1, bad),
        "CI.pad": lambda: CI(1, 2).pad(bad), "iv_exp": lambda: iv_exp(bad, 64),
        "iv_log_shift_e": lambda: iv_log_shift_e(bad, 64),
        "iv_cos_sin": lambda: iv_cos_sin(bad, 64),
        "iv_pow base": lambda: iv_pow(bad, Fraction(1, 3), 64),
        "iv_pow expo": lambda: iv_pow(2, bad, 64),
        "ri_pow_frac x": lambda: ri_pow_frac(bad, Fraction(1, 2), 64),
        "ri_pow_frac s": lambda: ri_pow_frac(2, bad, 64),
    }[op]


class TestErrorContract:
    @settings(max_examples=400, deadline=None)
    @given(_malformed_calls())
    def test_malformed_input_raises_a_coded_domain_error(self, call):
        label, thunk = call
        with pytest.raises(QalError) as info:
            thunk()
        assert isinstance(info.value, DomainError), label
        assert info.value.code == "domain-error"

    @pytest.mark.parametrize("call", [
        lambda: RI("abc"), lambda: RI(None), lambda: RI(0.5), lambda: RI(True),
        lambda: iv_cos_sin(1, 1.5), lambda: ri_pow_frac(2, 0.5, 64),
        lambda: iv_exp(1, True), lambda: iv_exp(1, 0),
    ], ids=["RI('abc')", "RI(None)", "RI(0.5)", "RI(True)", "iv_cos_sin bits=1.5",
            "ri_pow_frac s=0.5", "bits=True", "bits=0"])
    def test_the_reported_inputs(self, call):
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize("call", [
        lambda: RI(0, 1).contains(0.5), lambda: RI(0, 1).contains("abc"),
        lambda: RI(0, 1).contains(None), lambda: CI(0).contains(0.0),
    ], ids=["RI.contains(0.5)", "RI.contains('abc')", "RI.contains(None)",
            "CI.contains(0.0)"])
    def test_contains_takes_exact_data(self, call):
        # each returned True or raised a bare ValueError or TypeError
        with pytest.raises(DomainError) as info:
            call()
        assert info.value.code == "domain-error"

    def test_contains_of_ints_and_fractions(self):
        assert RI(0, 1).contains(1) and RI(0, 1).contains(Fraction(1, 2))
        assert not RI(0, 1).contains(Fraction(3, 2))
        assert RI(0, 1).contains(RI(0, Fraction(1, 2)))
        assert CI(0, 2).contains(0, 2) and not CI(0, 2).contains(0)

    def test_an_int_is_exact_data(self):
        assert (RI(3).lo, RI(3).hi) == (Fraction(3), Fraction(3))
        assert type(RI(3).lo) is Fraction
        assert _pair(iv_exp(1, 64)) == _pair(iv_exp(Fraction(1), 64))
        assert CI(1, 2).pad(1).to_json() == CI(Fraction(1), Fraction(2)).pad(Fraction(1)).to_json()
