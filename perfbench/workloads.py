"""The three workloads: their seeded inputs, the ``qal`` calls, and the
checker each answer goes through.

A workload is a list of :class:`Op`.  One round runs every op once, in
order; ``call`` gets a per-round dict so that an op can use what an
earlier op of the same round built (``omega_table`` uses the model of
``build_model``).  ``answer`` turns the ``qal`` result into plain data
outside the timed region, and ``check`` holds that data against a
reference from :mod:`checkers`; it runs after the measured rounds.

Why these workloads:

* ``enclosures`` -- irrational sequence values, so the interval kernel
  (``intervals``, ``rationals``, the mpmath bridge) carries the load while
  ``hilbert`` and the Sturm code stay idle.
* ``exact-rational`` -- rational sequence values, so exact ``Fraction``
  linear algebra in ``hilbert`` dominates and the interval kernel sees only
  point data plus the cos/sin of ``theta_eval``.
* ``hyperbolicity`` -- distinguished polynomials, so the Sturm chain over
  Q(x) (``polynomials.RatFunc`` and the dense Euclid) dominates.  Its cost
  is heavy-tailed in the branch data, so every input whose cost exceeds a
  few milliseconds comes from a fixed, measured branch set; the seed only
  mirrors it (x -> -x), which leaves the cost unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import checkers as ref


@dataclass
class Op:
    label: str
    call: Callable[[dict], Any]
    answer: Callable[[Any], Any]
    check: Callable[[Any], str | None]


def _ri(r) -> tuple[Fraction, Fraction]:
    return (r.lo, r.hi)


def _ci(c) -> tuple:
    return (_ri(c.re), _ri(c.im))


def _seq(qal, spec: tuple):
    s = qal.sequences
    if spec[0] == "analytic":
        return s.analytic()
    return getattr(s, spec[0])(spec[1])


def _name(spec: tuple) -> str:
    return spec[0] if len(spec) == 1 else f"{spec[0]}({spec[1]})"


# -- enclosures --------------------------------------------------------------------

ENCLOSURE_SEQS = (("gevrey", Fraction(1, 2)), ("gevrey", Fraction(3, 2)),
                  ("loggevrey", Fraction(1)))
THETA_RUNGS = ((4, 12), (8, 16))   # (j, K), K >= j + 8
# The upper rungs run on gevrey(1/2) only, so that a round takes about 6 s
# and a 28 s run gives every median four or five samples: the cost of these
# big-number calls moves by up to 30% from one second to the next on a
# shared machine.
TOP_THETA = (("gevrey", Fraction(1, 2)), ((12, 24), (16, 32)))
# The cost of theta_eval moves by up to 20% with the size of x, so each rung
# has a fixed point and the seed picks its sign: theta(-x) is the complex
# conjugate of theta(x) and costs the same.
THETA_X = {4: Fraction(5, 11), 8: Fraction(2, 7), 12: Fraction(3, 13), 16: Fraction(1, 3)}


def _theta_ops(qal, rng, spec, rungs) -> list[Op]:
    M = _seq(qal, spec)
    ops = []
    for j, K in rungs:
        x = THETA_X[j] * rng.choice((1, -1))
        ops.append(Op(f"theta_eval {_name(spec)} j={j} K={K} x={x}",
                      lambda ctx, M=M, x=x, j=j, K=K: qal.theta.theta_eval(M, x, j, K),
                      _ci,
                      lambda a, spec=spec, x=x, j=j, K=K: ref.check_theta_eval(spec, x, j, K, a)))
    return ops


def _nodiv_op(qal, spec, J, K) -> Op:
    M = _seq(qal, spec)
    return Op(f"nodiv_witness {_name(spec)} J={J} K={K}",
              lambda ctx: qal.division.nodiv_witness(M, J, K),
              lambda w: (tuple(w.orders), tuple(_ri(c) for c in w.c_values)),
              lambda a: ref.check_nodiv(spec, J, K, a[0], a[1]))


def enclosures(qal, seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for spec in ENCLOSURE_SEQS:
        M = _seq(qal, spec)
        ops += _theta_ops(qal, rng, spec,
                          THETA_RUNGS + (TOP_THETA[1] if spec == TOP_THETA[0] else ()))
        for j in (8, 16):
            K = j + 8
            ops.append(Op(f"theta_derivative_at_zero {_name(spec)} j={j}",
                          lambda ctx, M=M, j=j, K=K: qal.theta.theta_derivative_at_zero(M, j, K),
                          lambda d: (_ri(d.magnitude), d.phase_power),
                          lambda a, spec=spec, j=j, K=K: ref.check_theta_zero(spec, j, K, *a)))
        ops.append(_nodiv_op(qal, spec, 4, 16))
        ops.append(Op(f"classify {_name(spec)}",
                      lambda ctx, M=M: qal.sequences.classify(M),
                      lambda r: {n: r.flag(n).value for n in r.FLAG_NAMES},
                      lambda a, spec=spec: ref.check_classify(spec, a)))
        ops.append(Op(f"verify_superadditivity {_name(spec)}",
                      lambda ctx, M=M: qal.sequences.verify_superadditivity(M, 24),
                      lambda r: r.passed,
                      lambda a, spec=spec: ref.check_superadditivity(spec, 24, a)))
    for alpha in (Fraction(1, 2), Fraction(3, 2)):
        k = rng.randint(1, 2)
        ops.append(Op(f"gevrey_flat_witness alpha={alpha} k={k}",
                      lambda ctx, alpha=alpha, k=k: qal.division.gevrey_flat_witness(alpha, k, 12),
                      lambda t: (tuple(_ri(r.value) for r in t.rows), t.constant),
                      lambda a, alpha=alpha, k=k: ref.check_flat_witness(alpha, k, 12, *a)))
    return ops


# -- exact-rational ----------------------------------------------------------------

RATIONAL_SEQS = (("analytic",), ("gevrey", Fraction(1)), ("gevrey", Fraction(2)),
                 ("qgevrey", Fraction(2)), ("qgevrey", Fraction(3, 2)))
MODEL_RUNGS = (8, 12)              # every sequence; k = D/2
# gevrey(1) only: the top of the ladder.  D = 20 and 24 (5 s and 11 s at this
# commit) are left out: one such call per run made the ten-seed spread of
# run_s and max_op_s reach 0.25-0.31 on a shared machine, while a round
# topped at D = 16 fits four times in a 28 s run.
TOP_RUNGS = (16,)
# lacunary schedules (D_p, k_p) whose sums stay at most 1 in the finite model
LACUNARY = {
    ("analytic",): ((1, 1), (2, 2), (5, 5)),
    ("gevrey", Fraction(1)): ((1, 1), (4, 2), (5, 5)),
    ("gevrey", Fraction(2)): ((1, 1), (4, 2), (5, 5)),
    ("qgevrey", Fraction(2)): ((1, 1), (2, 2), (5, 5)),
    ("qgevrey", Fraction(3, 2)): ((1, 1), (2, 2), (5, 5)),
}


# The cost of sobolev_check on the interpolant moves fourfold with the data
# (0.1-0.5 s on qgevrey(3/2) for data of the same length), so the data are
# fixed and the seed picks their sign: the interpolant of -b is -g, whose
# sup norms and cost are those of g.
INTERP_DATA = (Fraction(1, 2), Fraction(-3, 5), Fraction(7, 9), Fraction(4, 3),
               Fraction(-2, 7))


def _model_ops(qal, spec, D) -> list[Op]:
    M = _seq(qal, spec)
    k = D // 2
    key = (spec, D)

    def build(ctx):
        ctx[key] = qal.hilbert.build_model(M, D)
        return ctx[key]

    return [Op(f"build_model {_name(spec)} D={D}", build,
               lambda m: tuple(tuple(row) for row in m.gram),
               lambda a: None if a == ref.gram_reference(spec, D)
               else f"build_model Gram D={D} differs from the integral definition"),
            Op(f"omega_table {_name(spec)} D={D} k={k}",
               lambda ctx: qal.hilbert.omega_table(ctx[key], k),
               tuple,
               lambda a: ref.check_omega(spec, D, k, a))]


def exact_rational(qal, seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for spec in RATIONAL_SEQS:
        M = _seq(qal, spec)
        rungs = MODEL_RUNGS + (TOP_RUNGS if spec == ("gevrey", Fraction(1)) else ())
        for D in rungs:
            ops += _model_ops(qal, spec, D)
        schedule = LACUNARY[spec]
        ops.append(Op(f"lacunary_select {_name(spec)} {schedule}",
                      lambda ctx, M=M, s=schedule: qal.hilbert.lacunary_select(M, list(s)),
                      lambda r: tuple(r.sums),
                      lambda a, spec=spec, s=schedule: ref.check_lacunary(spec, s, a)))
        # minimal interpolant in the D=12 model built above, then its sup norms
        sign = rng.choice((1, -1))
        data = tuple(sign * b for b in INTERP_DATA)
        k = len(data)
        key = ("interp", spec)

        def interp(ctx, spec=spec, data=data, key=key):
            ctx[key] = qal.hilbert.minimal_interpolant(ctx[(spec, 12)], list(data))
            return ctx[key]

        ops.append(Op(f"minimal_interpolant {_name(spec)} D=12 k={k}", interp,
                      lambda g: (tuple(g.coeffs), g.norm_sq),
                      lambda a, spec=spec, data=data: ref.check_minimal(spec, 12, data, *a)))
        for j in (0, 2):
            ops.append(Op(f"sobolev_check {_name(spec)} j={j}",
                          lambda ctx, key=key, j=j: qal.hilbert.sobolev_check(ctx[key].coeffs, j),
                          lambda r, key=key: (r.sup_lower, r.sup_upper),
                          lambda a, spec=spec, data=data, j=j:
                          ref.check_sobolev(ref.minimal_reference(ref.gram_reference(spec, 12),
                                                                  list(data)), j, *a)))
        ops += _theta_ops(qal, rng, spec, ((8, 16), (16, 32)))
        ops.append(_nodiv_op(qal, spec, 4, 16))
    return ops


# -- hyperbolicity -----------------------------------------------------------------

# A branch is the coefficient list (c_1, c_2, ...) of y = c_1 x + c_2 x^2 + ...
# Each fixed set below was timed at the parent commit; see README.md.
HEAVY = {
    "real-5-q1": ((2, 0), (-3, 0), (1, 2), (-1, 0), (3, 0)),
    "real-5-q2": ((2, 1), (-3, 0), (1, 2), (-1, 0), (3, 0)),
    "both-5": ((2, 0), (-1, 2), (3, 0)),
    "one-5": ((2, 1), (-3, 0), (1, 0)),
    "square-5": ((2, 1), (-1, 2), (3, -1)),
}


DIVISOR_BRANCHES = ((1, 1), (-2, 1), (3, -1), (-1, 2))


def _branch_poly(cs, sx: int) -> str:
    terms = " + ".join(f"({c * sx ** (i + 1)})*x^{i + 1}" for i, c in enumerate(cs))
    return f"(y - ({terms}))"


def _phi_text(branches, extra: str | None, sx: int, squared: bool = False) -> str:
    parts = [_branch_poly(cs, sx) for cs in branches]
    if squared:
        parts.append(parts[0])
    if extra:
        parts.append(extra)
    return "*".join(parts)


def _random_branches(rng, n: int, quadratic: bool):
    c1s = rng.sample((-3, -2, -1, 1, 2, 3), n)
    return tuple((c, rng.choice((-2, -1, 1, 2)) if quadratic else 0) for c in c1s)


def _poly(p) -> tuple:
    """MultiPoly -> (variables, sorted (exponents, coefficient) pairs)."""
    return (p.vars, tuple(sorted((e, Fraction(c)) for e, c in p.coeffs.items())))


def _to_sympy(data: tuple):
    """(variables, terms) from :func:`_poly` -> sympy expression."""
    import sympy
    names, terms = data
    syms = [sympy.Symbol(v) for v in names]
    out = sympy.Integer(0)
    for exps, c in terms:
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, exps):
            term *= s ** e
        out += term
    return out


def _sympify(text: str):
    import sympy
    return sympy.sympify(text.replace("^", "**"))


def _check_euclid(p_text: str, d: int, answer) -> str | None:
    """P = (z^d + mu1 z^(d-1) + ... + mud) * G + H, re-expanded by sympy."""
    import sympy
    z = ref.symbols()[2]
    F = z ** d + sum(sympy.Symbol(f"mu{i}") * z ** (d - i) for i in range(1, d + 1))
    return ref.check_division(_sympify(p_text), F, _to_sympy(answer[0]),
                              _to_sympy(answer[1]), z)


def _check_specialized(p_text: str, phi_text: str, answer) -> str | None:
    """P = phi(z) * G + sum_j h_j z^j, re-expanded by sympy."""
    _, y, z = ref.symbols()
    G = _to_sympy(answer[0])
    H = sum((_to_sympy(h) * z ** i for i, h in enumerate(answer[1])), 0)
    return ref.check_division(_sympify(p_text), _sympify(phi_text).subs(y, z), G, H, z)


def _hyper_op(qal, label, text, verdict, side) -> Op:
    phi = qal.polynomials.parse_polynomial(text)
    dist = qal.division.DistinguishedPoly.from_multipoly(phi, "y")

    def check(a):
        why = ref.check_hyperbolic(_sympify(text), verdict, a)
        if why is None and a["side"] != side:
            why = f"witness side {a['side']} contradicts the construction ({side})"
        return why

    return Op(f"hyperbolic_check_2d {label}",
              lambda ctx: qal.division.hyperbolic_check_2d(dist),
              lambda r: {"verdict": r.verdict, "side": r.witness_side, "degree": r.degree,
                         "multiplicity_excess": r.multiplicity_excess,
                         "counts": dict(r.real_root_counts)},
              check)


def hyperbolicity(qal, seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    P = qal.polynomials.parse_polynomial
    one_side = {1: "plus", -1: "minus"}
    for d in (2, 3, 4, 5):
        for quadratic in (False, True):
            if d == 5 and quadratic:
                continue   # the degree-5 quadratic sets are the fixed ones below
            kind = "quadratic" if quadratic else "linear"
            sx = rng.choice((1, -1))
            br = _random_branches(rng, d, quadratic)
            ops.append(_hyper_op(qal, f"real d={d} {kind}", _phi_text(br, None, sx),
                                 "hyperbolic", None))
            if d >= 3 and d <= 4:
                # with quadratic branches y^2 + x^4 already costs seconds at d=4
                k = 1 if quadratic else rng.randint(1, 2)
                ops.append(_hyper_op(qal, f"both d={d} {kind} k={k}",
                                     _phi_text(br[:d - 2], f"(y^2 + x^{2 * k})", sx),
                                     "not-hyperbolic", "both"))
                ops.append(_hyper_op(qal, f"one d={d} {kind} k={k}",
                                     _phi_text(br[:d - 2], f"(y^2 + ({sx})*x^{2 * k + 1})", sx),
                                     "not-hyperbolic", one_side[sx]))
                ops.append(_hyper_op(qal, f"square d={d} {kind}",
                                     _phi_text(br[:d - 1], None, sx, squared=True),
                                     "hyperbolic", None))
    for name, branches in HEAVY.items():
        sx = rng.choice((1, -1))
        if name.startswith("real"):
            op = _hyper_op(qal, name, _phi_text(branches, None, sx), "hyperbolic", None)
        elif name == "both-5":
            op = _hyper_op(qal, name, _phi_text(branches, "(y^2 + x^2)", sx),
                           "not-hyperbolic", "both")
        elif name == "one-5":
            op = _hyper_op(qal, name, _phi_text(branches, f"(y^2 + ({sx})*x^3)", sx),
                           "not-hyperbolic", one_side[sx])
        else:
            op = _hyper_op(qal, name, _phi_text(branches[:4], None, sx, squared=True),
                           "hyperbolic", None)
        ops.append(op)

    # Euclidean division by the generic monic divisor, then its specialization
    div = qal.division
    for d in (2, 3, 4):
        n = d + 3
        # fixed magnitudes and seeded signs keep answer_kbits steady across seeds
        text = " + ".join(f"({rng.choice((1, -1)) * (i % 4 + 2)})*x^{i % 3}*z^{i}"
                          for i in range(n)) + f" + z^{n}"
        Ppoly = P(text)
        F = div.generic_divisor(d, "z")
        ops.append(Op(f"euclid_divide deg={n} by generic d={d}",
                      lambda ctx, Ppoly=Ppoly, F=F: div.euclid_divide(Ppoly, F, "z"),
                      lambda gh: tuple(_poly(p) for p in gh),
                      lambda a, text=text, d=d: _check_euclid(text, d, a)))
        phi_text = _phi_text(DIVISOR_BRANCHES[:d], None, rng.choice((1, -1)))
        phi = div.DistinguishedPoly.from_multipoly(P(phi_text), "y")
        ops.append(Op(f"specialize_division deg={n} by d={d}",
                      lambda ctx, Ppoly=Ppoly, phi=phi: div.specialize_division(Ppoly, phi),
                      lambda gh: (_poly(gh[0]), tuple(_poly(h) for h in gh[1])),
                      lambda a, text=text, phi_text=phi_text:
                      _check_specialized(text, phi_text, a)))

    # the grid falsifier in 2 and 3 parameters: one sum of squares (a hit) and
    # one product of real branches (no hit)
    for nvars, resolution in ((2, 3), (3, 2)):
        xs = [f"x{i}" for i in range(1, nvars + 1)]
        weights = [rng.randint(1, 3) for _ in xs]
        sos = " + ".join(f"{w}*{v}^2" for w, v in zip(weights, xs))
        lin = [f"(y - ({rng.choice((-2, -1, 1, 2))})*{v})" for v in xs]
        for text, hit in ((f"y^2 + {sos}", True), ("*".join(lin), False)):
            phi = div.DistinguishedPoly.from_multipoly(P(text), "y")
            radius = Fraction(1, 2)

            def check(a, text=text, hit=hit, radius=radius, resolution=resolution, xs=xs):
                import sympy
                if (a is not None) != hit:
                    return f"falsifier {'missed' if hit else 'found'} a point on {text}"
                return ref.check_falsify(_sympify(text), [sympy.Symbol(v) for v in xs],
                                         radius, resolution, a)

            ops.append(Op(f"hyperbolic_falsify_grid {nvars} params hit={hit}",
                          lambda ctx, phi=phi, radius=radius, resolution=resolution:
                          div.hyperbolic_falsify_grid(phi, radius, resolution),
                          lambda r: None if r is None else dict(r),
                          check))
    return ops


BUILDERS = {"enclosures": enclosures, "exact-rational": exact_rational,
            "hyperbolicity": hyperbolicity}


def warmup_ops(qal, workload: str) -> list[Callable[[], Any]]:
    """One small call of every kind the workload makes, to fill lazy caches
    (factorials, mpmath constants, module state) before the first measured
    round.  It is part of ``setup_s``, which it also lengthens to a few
    tenths of a second, so that the set-up time is not dominated by the
    start-up transients of a fresh process."""
    s = qal.sequences
    th, div, hil = qal.theta, qal.division, qal.hilbert
    if workload == "enclosures":
        calls = []
        for spec in ENCLOSURE_SEQS:
            M = _seq(qal, spec)
            calls += [lambda M=M: th.theta_eval(M, Fraction(1, 3), 4, 12),
                      lambda M=M: th.theta_derivative_at_zero(M, 4, 12),
                      lambda M=M: div.nodiv_witness(M, 1, 10),
                      lambda M=M: s.classify(M, 8),
                      lambda M=M: s.verify_superadditivity(M, 8)]
        return calls + [lambda: div.gevrey_flat_witness(Fraction(1, 2), 1, 4)]
    if workload == "exact-rational":
        def model_and_more(M):
            model = hil.build_model(M, 8)
            hil.omega_table(model, 4)
            g = hil.minimal_interpolant(model, [Fraction(1), Fraction(-1, 2)])
            hil.sobolev_check(g.coeffs, 1)
            hil.lacunary_select(M, [(1, 1), (2, 2)])
            th.theta_eval(M, Fraction(1, 3), 4, 12)
            div.nodiv_witness(M, 1, 10)

        return [lambda M=_seq(qal, spec): model_and_more(M) for spec in RATIONAL_SEQS]
    P = qal.polynomials.parse_polynomial

    def dist(text):
        return div.DistinguishedPoly.from_multipoly(P(text), "y")

    phi = dist("(y - x)*(y + 2*x)")
    grid = dist("y^2 + x1^2 + x2^2")
    return [lambda text=text: div.hyperbolic_check_2d(dist(text)) for text in (
                "(y - x - x^2)*(y + 2*x + x^2)*(y - 3*x + 2*x^2)*(y + x)",
                "(y - x - x^2)*(y + 2*x + x^2)*(y^2 + x^2)",
                "(y - x - x^2)*(y + 2*x + x^2)*(y^2 + x^3)",
                "(y - x - x^2)^2*(y + 2*x + x^2)*(y + x)")] + [
        lambda: div.euclid_divide(P("z^5 + 2*x*z + 3"), div.generic_divisor(2, "z"), "z"),
        lambda: div.specialize_division(P("z^5 + 2*x*z + 3"), phi),
        lambda: div.hyperbolic_falsify_grid(grid, Fraction(1, 2), 1)]
