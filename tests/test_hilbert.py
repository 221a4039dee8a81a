import functools
import hashlib
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qal import hilbert
from qal.errors import (CertificationError, DomainError, SelectionFailure,
                        UndecidableAtCap, UnsupportedSequenceError)
from qal.hilbert import (SobolevRecord, build_model, divergence_demo,
                         lacunary_select, ldl_decompose, minimal_interpolant,
                         omega_table, poly_derivative, poly_eval, representer,
                         sobolev_check)
from qal.intervals import PRECISION_CAP, RI
from qal.polynomials import umul
from qal.rationals import factorial
from qal.sequences import analytic, gevrey, loggevrey, qgevrey


class TestBuildModel:
    def test_analytic_d1_gram_hand_integrated(self):
        # oracle: hand integration, cross-checked by symbolic integration
        model = build_model(analytic(), 1)
        assert model.gram[0][0] == 2
        assert model.gram[1][1] == Fraction(8, 3)
        assert model.gram[0][1] == 0

    def test_analytic_d2_gram_frozen_oracle(self):
        # frozen from an independent symbolic-integration dense computation
        model = build_model(analytic(), 2)
        assert model.gram == [
            [Fraction(2), Fraction(0), Fraction(2, 3)],
            [Fraction(0), Fraction(8, 3), Fraction(0)],
            [Fraction(2, 3), Fraction(0), Fraction(76, 15)],
        ]

    def test_gevrey1_d2_corner(self):
        model = build_model(gevrey(1), 2)
        assert model.gram[0][0] == 2  # only the j=0 term, weight 1

    def test_parity_zeros(self):
        model = build_model(gevrey(1), 6)
        for a in range(7):
            for b in range(7):
                if (a + b) % 2 == 1:
                    assert model.gram[a][b] == 0

    def test_spd_certified_by_ldl(self):
        for D in (1, 4, 9, 12):
            model = build_model(gevrey(1), D)
            L, piv = ldl_decompose(model.gram)
            assert all(p > 0 for p in piv)

    def test_irrational_sequence_rejected(self):
        with pytest.raises(UnsupportedSequenceError):
            build_model(loggevrey(1), 3)

    @pytest.mark.parametrize("D", [2.5, Fraction(3), True, "4", 0])
    def test_degree_must_be_a_positive_integer(self, D):
        with pytest.raises(DomainError) as info:
            build_model(gevrey(1), D)
        assert info.value.code == "domain-error"


class TestRepresenter:
    def test_analytic_d1_constant(self):
        model = build_model(analytic(), 1)
        assert representer(model, 0) == [Fraction(1, 2), Fraction(0)]

    def test_analytic_d1_linear(self):
        model = build_model(analytic(), 1)
        e1 = representer(model, 1)
        assert e1 == [Fraction(0), Fraction(3, 8)]
        # <e_1|x> = (x)'(0) = 1
        assert model.inner(e1, [Fraction(0), Fraction(1)]) == 1

    def test_inner_rejects_coefficients_past_the_degree(self):
        model = build_model(gevrey(1), 4)
        with pytest.raises(DomainError) as err:
            model.inner([1] * 7, [1])
        assert err.value.code == "domain-error"
        with pytest.raises(DomainError):
            model.inner([1], [1] * 6)
        with pytest.raises(DomainError):
            model.norm_sq([Fraction(1)] * 6)
        assert model.norm_sq([Fraction(1)] * 5) == model.inner([1] * 5, [1] * 5)

    def test_derivative_of_negative_order_is_a_domain_error(self):
        model = build_model(gevrey(1), 4)
        assert model.deriv_at_zero([1, 2, 3], 2) == 6
        with pytest.raises(DomainError) as info:
            model.deriv_at_zero([1, 2, 3], -1)
        assert info.value.code == "domain-error"

    def test_reproducing_identity_is_symmetric(self):
        model = build_model(gevrey(1), 6)
        reps = [representer(model, i) for i in range(7)]
        for i in range(7):
            for j in range(7):
                lhs = model.inner(reps[i], reps[j])
                assert lhs == model.deriv_at_zero(reps[j], i)
                assert lhs == model.inner(reps[j], reps[i])

    def test_reproducing_on_random_polynomials(self):
        rng = random.Random(20240811)
        model = build_model(gevrey(1), 8)
        reps = [representer(model, i) for i in range(9)]
        for _ in range(50):
            u = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(9)]
            gu = [sum(model.gram[a][b] * u[b] for b in range(9)) for a in range(9)]
            for i in range(9):
                got = sum(reps[i][a] * gu[a] for a in range(9))
                assert got == factorial(i) * u[i]


def _perturb_solves(monkeypatch, r_only=False):
    """Make ldl_solve return a wrong last entry: for every system, or with
    r_only for the parity blocks of R = (<e_i|e_j>) only, which are told
    apart from the Gram blocks by their factors."""
    real_solve = hilbert.ldl_solve
    real_system = hilbert._representer_system
    r_factors = []

    def recording(model, k):
        reps, blocks = real_system(model, k)
        r_factors.extend(L for L, _ in blocks)
        return reps, blocks

    def perturbed(L, D, rhs):
        out = real_solve(L, D, rhs)
        if not r_only or any(L is F for F in r_factors):
            out[-1] += Fraction(1, 10**9)
        return out

    monkeypatch.setattr(hilbert, "_representer_system", recording)
    monkeypatch.setattr(hilbert, "ldl_solve", perturbed)


class TestCertificationErrors:
    def test_representer_rejects_wrong_solve(self, monkeypatch):
        model = build_model(gevrey(1), 6)
        _perturb_solves(monkeypatch)
        with pytest.raises(CertificationError, match="reproducing identity") as err:
            representer(model, 2)
        assert err.value.code == "certification-error"
        assert isinstance(err.value, ArithmeticError)

    def test_omega_table_rejects_wrong_representer(self, monkeypatch):
        model = build_model(gevrey(1), 6)
        _perturb_solves(monkeypatch)
        with pytest.raises(CertificationError, match="reproducing identity") as err:
            omega_table(model, 3)
        assert err.value.code == "certification-error"

    def test_omega_table_rejects_wrong_interpolant(self, monkeypatch):
        # the representers are right; only the solves of R are off, so the
        # constraint check of each interpolant must catch it
        model = build_model(gevrey(1), 6)
        _perturb_solves(monkeypatch, r_only=True)
        with pytest.raises(CertificationError, match="interpolation constraints") as err:
            omega_table(model, 3)
        assert err.value.code == "certification-error"

    def test_a_rebuilt_model_certifies_afresh(self, monkeypatch):
        # a second model of the same sequence and degree must not reuse the
        # first one's representers: its own solve is checked again
        warm = build_model(gevrey(1), 6)
        omega_table(warm, 4)
        _perturb_solves(monkeypatch)
        with pytest.raises(CertificationError, match="reproducing identity"):
            representer(build_model(gevrey(1), 6), 1)


class TestRepresenterCache:
    def test_mutating_a_returned_representer_changes_nothing(self):
        model = build_model(gevrey(1), 7)
        clean = representer(build_model(gevrey(1), 7), 2)
        r = representer(model, 2)
        r[0] += 1
        r[2] = Fraction(0)
        assert representer(model, 2) == clean
        assert omega_table(model, 4) == omega_table(build_model(gevrey(1), 7), 4)

    def test_models_of_different_degree_do_not_share(self):
        small, large = build_model(gevrey(1), 5), build_model(gevrey(1), 8)
        for i in range(6):
            representer(small, i)
        for i in range(6):
            r = representer(large, i)
            assert len(r) == 9
            assert r == representer(build_model(gevrey(1), 8), i)
            gr = [sum(g * c for g, c in zip(row, r)) for row in large.gram]
            assert gr == [factorial(i) if a == i else 0 for a in range(9)]

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["analytic", "gevrey1", "qgevrey2"]),
           st.integers(1, 10), st.data())
    def test_shared_factorization_matches_one_solve_per_column(self, name, D, data):
        seq = {"analytic": analytic, "gevrey1": lambda: gevrey(1),
               "qgevrey2": lambda: qgevrey(2)}[name]
        k = data.draw(st.integers(1, D + 1), label="k")
        warm_k = data.draw(st.integers(1, D + 1), label="warm_k")
        expected = []
        for j in range(k):
            unit = [Fraction(0)] * k
            unit[j] = Fraction(1)
            u = minimal_interpolant(build_model(seq(), D), unit)
            expected.append(factorial(j) * u.value_at(Fraction(1)))
        assert omega_table(build_model(seq(), D), k) == expected
        warmed = build_model(seq(), D)
        omega_table(warmed, warm_k)
        assert omega_table(warmed, k) == expected


class TestMinimalInterpolant:
    def test_zero_data(self):
        model = build_model(analytic(), 4)
        out = minimal_interpolant(model, [Fraction(0)] * 3)
        assert all(c == 0 for c in out.coeffs)
        assert out.norm_sq == 0

    def test_empty_data_defined_as_zero(self):
        model = build_model(analytic(), 3)
        out = minimal_interpolant(model, [])
        assert all(c == 0 for c in out.coeffs)

    def test_full_rank_pins_monomial(self):
        model = build_model(gevrey(1), 5)
        for m in (0, 2, 5):
            b = [Fraction(0)] * 6
            b[m] = Fraction(factorial(m))  # derivatives of x^m at 0
            out = minimal_interpolant(model, b)
            expected = [Fraction(0)] * 6
            expected[m] = Fraction(1)
            assert out.coeffs == expected

    def test_analytic_d2_k1_frozen_golden(self):
        # frozen from the independent symbolic-integration dense solve
        model = build_model(analytic(), 2)
        out = minimal_interpolant(model, [Fraction(1)])
        assert out.coeffs == [Fraction(1), Fraction(0), Fraction(-5, 38)]

    def test_pythagoras_identity_and_minimality(self):
        rng = random.Random(986523)
        model = build_model(gevrey(1), 7)
        for k in (1, 3, 5):
            b = [Fraction(rng.randint(-5, 5)) for _ in range(k)]
            g = minimal_interpolant(model, b)
            for _ in range(20):
                # feasible perturbation: vanishing derivatives below order k
                w = [Fraction(0)] * k + [Fraction(rng.randint(-7, 7), rng.randint(1, 5))
                                         for _ in range(8 - k)]
                u = [g.coeffs[i] + w[i] for i in range(8)]
                nu = model.norm_sq(u)
                assert nu == g.norm_sq + model.norm_sq(w)  # exact Pythagoras
                assert nu >= g.norm_sq
                if any(w):
                    assert nu > g.norm_sq

    def test_too_many_constraints(self):
        model = build_model(analytic(), 2)
        with pytest.raises(DomainError):
            minimal_interpolant(model, [Fraction(1)] * 4)


class TestOmegaTable:
    def test_full_column_is_exactly_one(self):
        for D in (3, 6):
            model = build_model(gevrey(1), D)
            assert omega_table(model, D + 1) == [Fraction(1)] * (D + 1)

    @pytest.mark.parametrize("k", [-1, -4, 6])
    def test_k_outside_0_to_d_plus_1_is_a_domain_error(self, k):
        with pytest.raises(DomainError) as err:
            omega_table(build_model(gevrey(1), 4), k)
        assert err.value.code == "domain-error"

    def test_gevrey1_d8_k4_frozen_golden(self):
        # frozen from the independent symbolic-integration dense solve
        model = build_model(gevrey(1), 8)
        expected = [
            Fraction(17535916390827760780567015132129,
                     19873642344067166990508607408417),
            Fraction(186841119025923511, 270429475030534111),
            Fraction(3885040276479865049694841841473,
                     19873642344067166990508607408417),
            Fraction(62493724905305661, 270429475030534111),
        ]
        assert omega_table(model, 4) == expected

    def test_reconstruction_linearity(self):
        rng = random.Random(5150)
        model = build_model(gevrey(1), 6)
        k = 4
        omegas = omega_table(model, k)
        for _ in range(10):
            b = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(k)]
            g = minimal_interpolant(model, b)
            expected = sum(omegas[j] * b[j] / factorial(j) for j in range(k))
            assert g.value_at(Fraction(1)) == expected

    def test_gevrey1_d24_k12_in_time(self):
        # k certified representers, each solved and checked in one parity
        # block, and one LDL of each parity block of R: 0.13-0.15 s on a
        # shared 2-vCPU machine, against 0.18-0.23 s with dense solves of
        # the whole G and R, and 11-13 s when every column re-solved and
        # re-verified all k representers
        model = build_model(gevrey(1), 24)
        start = time.perf_counter()
        omegas = omega_table(model, 12)
        assert time.perf_counter() - start < 2.0
        assert len(omegas) == 12


FOUR_LEVEL_SUMS = [
    Fraction(39394346894, 59238792365),
    Fraction(950400, 5829689),
    Fraction(43360657004740102333579319574528000000,
             72251248440777090874723854225057806959),
]


class TestLacunary:
    def test_pinned_schedule_has_zero_sums(self):
        schedule = [(2, 3), (4, 5), (8, 9)]
        out = lacunary_select(gevrey(1), schedule)
        assert out.sums == [Fraction(0), Fraction(0)]

    def test_four_level_schedule_frozen_oracle(self):
        # frozen from the independent symbolic-integration dense solve
        # (scripts_dev_oracle.py); about [0.665, 0.163, 0.600]
        out = lacunary_select(gevrey(1), [(1, 1), (4, 2), (5, 5), (16, 16)])
        assert out.ks == [1, 2, 5, 16]
        assert out.sums == FOUR_LEVEL_SUMS

    def test_single_element_schedule_trivially_valid(self):
        out = lacunary_select(gevrey(1), [(4, 2)])
        assert out.sums == []

    def test_doubling_schedule_fails_in_finite_model(self):
        # recorded outcome: D_p = 2 k_p, k_p = 2^p is too lax at p = 2;
        # the exact sum there is about 2.04 > 1 (independent dense solve)
        schedule = [(2, 1), (4, 2), (8, 4), (16, 8)]
        with pytest.raises(SelectionFailure):
            lacunary_select(gevrey(1), schedule)

    def test_non_increasing_ks_rejected(self):
        with pytest.raises(DomainError):
            lacunary_select(gevrey(1), [(4, 3), (4, 3)])


class TestDivergenceDemo:
    def test_gevrey1_crossing_frozen_index(self):
        # oracle: exact partial sums of q!/2^q cross 10^6 at p = 14
        total = Fraction(0)
        expected_index = None
        for q in range(40):
            total += Fraction(factorial(q), 2**q)
            if total > 10**6:
                expected_index = q
                break
        assert expected_index == 14
        out = divergence_demo(gevrey(1), Fraction(1, 2), list(range(40)), 10**6)
        assert out.crossed and out.index == 14

    def test_analytic_exhausts_below_geometric_bound(self):
        out = divergence_demo(analytic(), Fraction(1, 2), list(range(30)), 10)
        assert not out.crossed
        assert out.partial_sums[-1] < 2

    def test_zero_threshold_crosses_immediately(self):
        out = divergence_demo(gevrey(1), Fraction(1, 2), [0, 1, 2], 0)
        assert out.crossed and out.index == 0


class TestSobolev:
    def test_constant(self):
        rec = sobolev_check([Fraction(1)], 0)
        assert rec.l2_sq == 2
        assert rec.sup_lower == 1
        assert rec.left_ok and rec.right_ok

    def test_zero(self):
        rec = sobolev_check([Fraction(0), Fraction(0)], 0)
        assert rec.left_ok and rec.right_ok
        assert rec.l2_sq == 0

    def test_linear(self):
        rec = sobolev_check([Fraction(0), Fraction(1)], 0)
        assert rec.l2_sq == Fraction(2, 3)
        assert rec.l2_next_sq == 2
        assert rec.sup_lower == 1
        assert rec.left_ok and rec.right_ok

    def test_higher_derivative_of_cubic(self):
        # u = x^3: u'' = 6x
        rec = sobolev_check([0, 0, 0, Fraction(1)], 2)
        assert rec.l2_sq == 24  # int (6x)^2 = 36 * 2/3
        assert rec.left_ok and rec.right_ok

    def test_derivative_helper(self):
        assert poly_derivative([Fraction(1), Fraction(2), Fraction(3)], 1) == \
            [Fraction(2), Fraction(6)]

    @pytest.mark.parametrize("j", [-1, -3])
    def test_negative_order_is_a_domain_error(self, j):
        # poly_derivative(u, -1) is u itself, which would certify ||u|| twice
        with pytest.raises(DomainError):
            sobolev_check([1, 2], j)


def _l2_sq(u):
    # integral over (-1,1) of u^2, exact
    sq = [Fraction(0)] * (2 * len(u) - 1) if u else []
    for i, ci in enumerate(u):
        for j, cj in enumerate(u):
            sq[i + j] += ci * cj
    total = Fraction(0)
    for p, c in enumerate(sq):
        if p % 2 == 0:
            total += c * Fraction(2, p + 1)
    return total


def _box_eval(u, lo, hi):
    box = RI(lo, hi)
    acc = RI.point(0)
    for c in reversed(u):
        acc = acc * box + RI.point(c)
    return acc


def _unscaled_sobolev(u, j):
    """sobolev_check computed directly on u^(j) in Fractions: the L2 norms
    by Fraction convolution, the sup-norm upper bound by Fraction-endpoint
    interval Horner on every piece, and the lower bound on a full dyadic
    grid at every depth.  The reference for the integer computation."""
    du = poly_derivative([Fraction(c) for c in u], j)
    A = _l2_sq(du)
    B = _l2_sq(poly_derivative([Fraction(c) for c in u], j + 1))
    if not any(du):
        return SobolevRecord(j, A, B, Fraction(0), Fraction(0), True, True)
    target = A / 2
    sup_lower = Fraction(0)
    depth = 0
    while True:
        n = 1 << depth
        for i in range(-n, n + 1):
            sup_lower = max(sup_lower, abs(poly_eval(du, Fraction(i, n))))
        if sup_lower**2 >= target:
            left_ok = True
            break
        if depth > 24:
            left_ok = False
            break
        depth += 1
    bits, pieces, right_ok = 64, 8, False
    while True:
        sup_upper = Fraction(0)
        for i in range(pieces):
            lo = Fraction(-1) + Fraction(2 * i, pieces)
            hi = Fraction(-1) + Fraction(2 * (i + 1), pieces)
            sup_upper = max(sup_upper, _box_eval(du, lo, hi).abs().hi)
        rhs_lower = 2 * (A + B + 2 * hilbert._sqrt_lower(A * B, bits))
        if sup_upper**2 <= rhs_lower:
            right_ok = True
            break
        if pieces > 4096 or bits > PRECISION_CAP:
            break
        pieces *= 2
        bits *= 2
    return SobolevRecord(j, A, B, sup_lower, sup_upper, left_ok, right_ok)


_big_rationals = st.builds(
    Fraction,
    st.integers(-10**15, 10**15),
    st.one_of(st.integers(1, 10**15),
              st.lists(st.sampled_from([2, 3, 7, 11, 101, 65537, 10**9 + 7]),
                       min_size=1, max_size=6).map(math.prod)))


# factors vanishing on the coarse dyadic grids, so that the lower bound
# must go deeper than depth 0 (x^3 - x) or depth 1 (times 4x^2 - 1)
_GRID_ZEROS = ([Fraction(1)], [0, -1, 0, 1], [0, 1, 0, -5, 0, 4])


class TestSobolevScaledExact:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(_big_rationals, min_size=1, max_size=6),
           st.sampled_from(_GRID_ZEROS), st.sampled_from([0, 1, 2]))
    def test_common_denominator_gives_the_unscaled_fractions(self, p, zeros, j):
        u = umul(p, zeros)
        ref = _unscaled_sobolev(u, j)
        if not (ref.left_ok and ref.right_ok):
            with pytest.raises(UndecidableAtCap):
                sobolev_check(u, j)
            return
        rec = sobolev_check(u, j)
        assert rec == ref  # every field, l2_sq and l2_next_sq included


# the interpolation data of the exact-rational benchmark workload
INTERP_DATA = (Fraction(1, 2), Fraction(-3, 5), Fraction(7, 9), Fraction(4, 3),
               Fraction(-2, 7))
_WORKLOAD_SEQUENCES = {"analytic": analytic, "gevrey(1)": lambda: gevrey(1),
                       "gevrey(2)": lambda: gevrey(2), "qgevrey(2)": lambda: qgevrey(2),
                       "qgevrey(3/2)": lambda: qgevrey(Fraction(3, 2))}


@functools.cache
def _workload_interpolant(name, sign):
    # degree 12, with 142- to 1,150-bit denominators: past the Hypothesis sizes
    model = build_model(_WORKLOAD_SEQUENCES[name](), 12)
    return tuple(minimal_interpolant(model, [sign * b for b in INTERP_DATA]).coeffs)


class TestSobolevWorkloadInterpolants:
    @pytest.mark.parametrize("j", [0, 2])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("name", list(_WORKLOAD_SEQUENCES))
    def test_every_field_equals_the_fraction_reference(self, name, sign, j):
        u = _workload_interpolant(name, sign)
        assert len(u) == 13
        assert sobolev_check(u, j) == _unscaled_sobolev(u, j)


# the lacunary schedules of the exact-rational benchmark workload
_WORKLOAD_LACUNARY = {"analytic": [(1, 1), (2, 2), (5, 5)],
                      "gevrey(1)": [(1, 1), (4, 2), (5, 5)],
                      "gevrey(2)": [(1, 1), (4, 2), (5, 5)],
                      "qgevrey(2)": [(1, 1), (2, 2), (5, 5)],
                      "qgevrey(3/2)": [(1, 1), (2, 2), (5, 5)]}


def _model_digest(name, D):
    """SHA-256 of the reprs (types included) of the Gram matrix, the omega
    column k = D // 2, the minimal interpolant of INTERP_DATA (coefficients
    and norm) and the lacunary sums of the workload schedule."""
    M = _WORKLOAD_SEQUENCES[name]()
    model = build_model(M, D)
    g = minimal_interpolant(model, list(INTERP_DATA))
    parts = (model.gram, omega_table(model, D // 2), g.coeffs, g.norm_sq,
             lacunary_select(M, _WORKLOAD_LACUNARY[name]).sums)
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# frozen from the dense computation (one LDL^T of the whole Gram matrix and
# of the whole R), before the model was split by parity
MODEL_DIGESTS = {
    ('analytic', 8): "92bc600b391be1304ab77bdaba0f437637ec7c328185ea8b128e64b9c7b090e9",
    ('analytic', 12): "3fc386f643bdf21e71b42d80813334e1f79dad9cbadeafeb7f1466f8803dd07d",
    ('gevrey(1)', 8): "a047a4096ad708570908f10e51d27d51d64c445f8fab99d48ff8d3a80bdac216",
    ('gevrey(1)', 12): "a0b88b6e400e6152bc82656a739b718adcb740271b4dc43daff69339eb0b2b58",
    ('gevrey(2)', 8): "cb1fadd91f70b01cb48a6c6f81b6d805fea49058f0e74bc8f76bbf78ce000800",
    ('gevrey(2)', 12): "5a1c09ddd96a08a33fa1fdf5d4faa06d9e8c47412560e632d8efc770c5eeedf8",
    ('qgevrey(2)', 8): "b54484853ae81c00caec962895f80f3fb650c8a5a71004685b419ad158aa880e",
    ('qgevrey(2)', 12): "93483b9e298c6ddbaa54de3848dd0a2e5a85a0d0415a57c621a84eeed7ec9fb3",
    ('qgevrey(3/2)', 8): "696cfa497c4fef8470d7d0ca470e515ef5a06bb13db434235f63eaaadc4b1ad1",
    ('qgevrey(3/2)', 12): "1d9248a744225905d54cbc4ef529dae0e67c41054d6586129c0db83ede2e383c",
    ('gevrey(1)', 16): "76dd0e62508c6e5ce0be4491d6ec065e4ea5e67a58d991f1a1dc5a9194dc9aad",
}


class TestParitySplit:
    @pytest.mark.parametrize("name, D", list(MODEL_DIGESTS))
    def test_results_equal_the_dense_computation(self, name, D):
        assert _model_digest(name, D) == MODEL_DIGESTS[name, D]

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["analytic", "gevrey(1)", "qgevrey(2)"]), st.integers(1, 14))
    def test_representers_and_pivots_follow_the_parity(self, name, D):
        model = build_model(_WORKLOAD_SEQUENCES[name](), D)
        for i in range(D + 1):
            r = representer(model, i)
            assert all(r[a] == 0 for a in range(1 - i % 2, D + 1, 2))
        _, pivots = ldl_decompose(model.gram)
        assert [d for _, d in model._ldl] == [pivots[0::2], pivots[1::2]]
