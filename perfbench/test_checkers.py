"""The benchmark's checkers accept the answers qal gives and reject
corrupted ones; the omega reference agrees with the dev oracle."""

import ast
import os
import sys
import types
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checkers  # noqa: E402
import workloads  # noqa: E402
from qal import division, hilbert, intervals, polynomials, rationals, sequences, theta  # noqa: E402

QAL = types.SimpleNamespace(division=division, hilbert=hilbert, intervals=intervals,
                            polynomials=polynomials, rationals=rationals,
                            sequences=sequences, theta=theta)


def _op(workload, prefix, seed=1):
    ops = workloads.BUILDERS[workload](QAL, seed)
    return next(op for op in ops if op.label.startswith(prefix))


def _answer(op, ctx=None):
    return op.answer(op.call({} if ctx is None else ctx))


def _shift(box):
    w = box[1] - box[0]
    return (box[0] + w, box[1] + w)


def test_theta_box_shifted_by_its_width_is_rejected():
    op = _op("enclosures", "theta_eval gevrey(1/2) j=4")
    re, im = _answer(op)
    assert op.check((re, im)) is None
    assert op.check((_shift(re), im)) is not None
    assert op.check((re, _shift(im))) is not None


def test_theta_box_beyond_the_derivative_bound_is_rejected():
    op = _op("enclosures", "theta_eval gevrey(3/2) j=8")
    re, im = _answer(op)
    huge = Fraction(10) ** 40
    assert op.check(((re[0] - huge, re[1] + huge), im)) is not None


def test_nodiv_coefficient_shifted_is_rejected():
    op = _op("enclosures", "nodiv_witness loggevrey(1)")
    orders, cvals = _answer(op)
    assert op.check((orders, cvals)) is None
    bad = (cvals[0], _shift(cvals[1])) + tuple(cvals[2:])
    assert op.check((orders, bad)) is not None


def test_theta_derivative_wrong_phase_is_rejected():
    op = _op("enclosures", "theta_derivative_at_zero gevrey(1/2) j=8")
    magnitude, phase = _answer(op)
    assert op.check((magnitude, phase)) is None
    assert op.check((magnitude, (phase + 1) % 4)) is not None
    assert op.check((_shift(magnitude), phase)) is not None


def test_classify_flipped_flag_is_rejected():
    op = _op("enclosures", "classify loggevrey(1)")
    flags = _answer(op)
    assert op.check(flags) is None
    flipped = dict(flags, quasianalytic="false")
    assert op.check(flipped) is not None


def test_flat_witness_constant_too_large_is_rejected():
    op = _op("enclosures", "gevrey_flat_witness alpha=1/2")
    values, constant = _answer(op)
    assert op.check((values, constant)) is None
    assert op.check((values, constant * 2)) is not None
    assert op.check((values, constant / 2)) is not None


def test_omega_changed_by_a_millionth_is_rejected():
    op = _op("exact-rational", "omega_table gevrey(1) D=8")
    model = hilbert.build_model(sequences.gevrey(1), 8)
    omegas = hilbert.omega_table(model, 4)
    assert op.check(tuple(omegas)) is None
    bad = list(omegas)
    bad[1] += Fraction(1, 10 ** 6)
    assert op.check(tuple(bad)) is not None


def test_lacunary_sum_changed_is_rejected():
    op = _op("exact-rational", "lacunary_select gevrey(1)")
    sums = _answer(op)
    assert op.check(sums) is None
    assert op.check((sums[0] + Fraction(1, 10 ** 6),) + sums[1:]) is not None


def test_minimal_interpolant_and_sobolev_corruptions_are_rejected():
    ctx = {}
    build = _op("exact-rational", "build_model qgevrey(2) D=12")
    assert build.check(_answer(build, ctx)) is None
    interp = _op("exact-rational", "minimal_interpolant qgevrey(2)")
    coeffs, norm_sq = _answer(interp, ctx)
    assert interp.check((coeffs, norm_sq)) is None
    bad = list(coeffs)
    bad[-1] += Fraction(1, 10 ** 6)
    assert interp.check((tuple(bad), norm_sq)) is not None
    assert interp.check((coeffs, norm_sq * 2)) is not None
    sob = _op("exact-rational", "sobolev_check qgevrey(2) j=2")
    lower, upper = _answer(sob, ctx)
    assert sob.check((lower, upper)) is None
    assert sob.check((lower, lower / 2)) is not None
    assert sob.check((upper * 2, upper)) is not None


def test_flipped_verdict_is_rejected():
    op = _op("hyperbolicity", "hyperbolic_check_2d one d=3 linear")
    report = _answer(op)
    assert op.check(report) is None
    flipped = dict(report, verdict="hyperbolic", side=None)
    assert op.check(flipped) is not None


def test_wrong_root_count_is_rejected():
    op = _op("hyperbolicity", "hyperbolic_check_2d both d=4 quadratic")
    report = _answer(op)
    assert op.check(report) is None
    for side in ("plus", "minus"):
        counts = dict(report["counts"])
        counts[side] -= 1
        assert op.check(dict(report, counts=counts)) is not None


def test_wrong_multiplicity_excess_is_rejected():
    op = _op("hyperbolicity", "hyperbolic_check_2d square d=3 quadratic")
    report = _answer(op)
    assert op.check(report) is None
    assert op.check(dict(report, multiplicity_excess=0)) is not None


def test_division_remainder_changed_is_rejected():
    for prefix in ("euclid_divide deg=6", "specialize_division deg=6"):
        op = _op("hyperbolicity", prefix)
        G, H = _answer(op)
        assert op.check((G, H)) is None
        names, terms = G
        bad = (names, terms[:-1] + ((terms[-1][0], terms[-1][1] + 1),))
        assert op.check((bad, H)) is not None


def test_falsifier_answers_are_rescanned():
    hit = _op("hyperbolicity", "hyperbolic_falsify_grid 2 params hit=True")
    miss = _op("hyperbolicity", "hyperbolic_falsify_grid 2 params hit=False")
    point = _answer(hit)
    assert hit.check(point) is None
    assert miss.check(_answer(miss)) is None
    assert hit.check(None) is not None
    zero = {k: Fraction(0) for k in point}
    assert hit.check(zero) is not None     # the origin has only real roots


def _dev_oracle():
    """gram_oracle, omega_col and gevrey1_mvals from scripts_dev_oracle.py,
    without running that script's top-level printing."""
    path = os.path.join(ROOT, "scripts_dev_oracle.py")
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    keep = [node for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            or (isinstance(node, ast.FunctionDef)
                and node.name in ("gram_oracle", "omega_col", "gevrey1_mvals"))
            or (isinstance(node, ast.Assign) and ast.unparse(node) == "x = Symbol('x')")]
    namespace: dict = {}
    exec(compile(ast.Module(body=keep, type_ignores=[]), path, "exec"), namespace)
    return namespace


@pytest.mark.skipif(not os.path.exists(os.path.join(ROOT, "scripts_dev_oracle.py")),
                    reason="the dev oracle script is not in this checkout")
def test_omega_reference_reproduces_the_dev_oracle_column():
    oracle = _dev_oracle()
    G = oracle["gram_oracle"](oracle["gevrey1_mvals"](8), 8)
    column = oracle["omega_col"](G, 8, 4, oracle["gevrey1_mvals"](8))
    want = tuple(Fraction(int(v.p), int(v.q)) for v in column)
    assert checkers.omega_reference(("gevrey", Fraction(1)), 8, 4) == want
