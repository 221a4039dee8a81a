"""Carleman sequences: construction, evaluation and classification.

A Carleman sequence is an increasing, logarithmically convex sequence M
with M_0 = 1.  The built-in families are

* ``analytic``      M_j = 1
* ``gevrey(a)``     M_j = (j!)^a,            a > 0
* ``loggevrey(a)``  M_j = (log(j+e))^(a*j),  a > 0
* ``qgevrey(q)``    M_j = q^(j^2),           q > 1

plus ``custom`` sequences given by an explicit term list (and optional
user-asserted tail classification) or derived from another sequence by
``power`` / ``shift``.

Values are exact Fractions whenever the family value is rational; all
other evaluations return certified intervals.  Growth-condition flags for
the built-in families come from a hand-verified symbolic rule table;
finite-horizon diagnostics for custom sequences are always labelled
inconclusive unless the user asserted the tail behaviour, because no
finite prefix decides a condition on the whole tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (DomainError, InconclusiveInput, QalSyntaxError,
                     UndecidableAtCap)
from .intervals import (RI, certify, default_bits, iv_log_shift_e, iv_pow,
                        ri_pow_frac)
from .rationals import (compare_power_products, exact_pow, factorial,
                        format_fraction, parse_fraction)

TRUE = "true"
FALSE = "false"
INCONCLUSIVE = "inconclusive"

ANALYTIC = "analytic"
GEVREY = "gevrey"
LOG_GEVREY = "loggevrey"
Q_GEVREY = "qgevrey"
CUSTOM = "custom"

_BUILTIN = (ANALYTIC, GEVREY, LOG_GEVREY, Q_GEVREY)

# Flags a custom sequence may assert about its tail.  Each pair is
# mutually exclusive.
_ASSUMABLE = {
    "quasianalytic": ("quasianalytic", TRUE),
    "non_quasianalytic": ("quasianalytic", FALSE),
    "strongly_non_quasianalytic": ("strongly_non_quasianalytic", TRUE),
    "not_strongly_non_quasianalytic": ("strongly_non_quasianalytic", FALSE),
    "moderate_growth": ("moderate_growth", TRUE),
    "no_moderate_growth": ("moderate_growth", FALSE),
    "derivation_stable": ("derivation_stable", TRUE),
    "not_derivation_stable": ("derivation_stable", FALSE),
    "analytic_class": ("analytic_class", TRUE),
    "not_analytic_class": ("analytic_class", FALSE),
}


@dataclass(frozen=True)
class CarlemanSequence:
    family: str
    param: Fraction | None = None
    terms: tuple[Fraction, ...] | None = None
    base: "CarlemanSequence | None" = None
    derived: str | None = None          # 'power' | 'shift'
    exponent: Fraction | None = None    # for 'power'
    assume: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.family == GEVREY or self.family == LOG_GEVREY:
            if self.param is None or self.param <= 0:
                raise DomainError(f"{self.family} needs a positive parameter")
        elif self.family == Q_GEVREY:
            if self.param is None or self.param <= 1:
                raise DomainError("qgevrey needs q > 1")
        elif self.family == CUSTOM:
            for name in self.assume:
                if name not in _ASSUMABLE:
                    raise DomainError(f"unknown assumption {name!r}")
            if self.terms is not None:
                if not self.terms or self.terms[0] != 1:
                    raise DomainError("custom terms must start with M_0 = 1")
                for j in range(len(self.terms) - 1):
                    if self.terms[j + 1] < self.terms[j]:
                        raise DomainError(
                            f"custom terms must be nondecreasing (violated at j={j})")
                    if self.terms[j] <= 0:
                        raise DomainError("custom terms must be positive")
            elif self.base is None:
                raise DomainError("custom sequence needs terms or a base rule")
        elif self.family != ANALYTIC:
            raise DomainError(f"unknown family {self.family!r}")

    # -- evaluation --------------------------------------------------------

    def horizon_limit(self) -> int | None:
        """Largest j with a defined value, None if unbounded."""
        if self.family == CUSTOM and self.terms is not None:
            return len(self.terms) - 1
        if self.base is not None:
            lim = self.base.horizon_limit()
            if lim is None:
                return None
            return lim - 1 if self.derived == "shift" else lim
        return None

    def _check_index(self, j: int):
        if j < 0:
            raise DomainError("sequence index must be >= 0")
        lim = self.horizon_limit()
        if lim is not None and j > lim:
            raise DomainError(f"custom sequence defined only up to j={lim}")

    def exact_value(self, j: int) -> Fraction | None:
        """M_j as an exact Fraction, or None when irrational."""
        self._check_index(j)
        if self.family == ANALYTIC:
            return Fraction(1)
        if self.family == GEVREY:
            return exact_pow(Fraction(factorial(j)), self.param)
        if self.family == LOG_GEVREY:
            return Fraction(1) if j == 0 else None
        if self.family == Q_GEVREY:
            return self.param ** (j * j)
        if self.terms is not None:
            return self.terms[j]
        if self.derived == "power":
            v = self.base.exact_value(j)
            return None if v is None else exact_pow(v, self.exponent)
        if self.derived == "shift":
            v1 = self.base.exact_value(j + 1)
            v0 = self.base.exact_value(1)
            if v1 is None or v0 is None:
                return None
            return v1 / v0
        raise DomainError("sequence has no value rule")

    def power_form(self, j: int) -> list[tuple[Fraction, Fraction]] | None:
        """M_j as a product of rational powers of positive rationals,
        enabling exact comparisons; None when unavailable (loggevrey)."""
        self._check_index(j)
        if self.family == ANALYTIC:
            return []
        if self.family == GEVREY:
            return [(Fraction(factorial(j)), self.param)]
        if self.family == Q_GEVREY:
            return [(self.param, Fraction(j * j))]
        if self.family == LOG_GEVREY:
            return None
        if self.terms is not None:
            return [(self.terms[j], Fraction(1))]
        if self.derived == "power":
            pf = self.base.power_form(j)
            if pf is None:
                return None
            return [(b, e * self.exponent) for b, e in pf]
        if self.derived == "shift":
            up = self.base.power_form(j + 1)
            dn = self.base.power_form(1)
            if up is None or dn is None:
                return None
            return up + [(b, -e) for b, e in dn]
        return None

    def interval_value(self, j: int, bits: int | None = None) -> RI:
        """Certified interval for M_j (a point interval when exact)."""
        self._check_index(j)
        bits = bits or default_bits()
        exact = self.exact_value(j)
        if exact is not None:
            return RI.point(exact)
        if self.family == GEVREY:
            return ri_pow_frac(Fraction(factorial(j)), self.param, bits)
        if self.family == LOG_GEVREY:
            base = iv_log_shift_e(Fraction(j), bits)
            return iv_pow(base, self.param * j, bits)
        if self.derived == "power":
            inner = self.base.interval_value(j, bits)
            if inner.is_point():
                return ri_pow_frac(inner.lo, self.exponent, bits)
            return iv_pow(inner, self.exponent, bits)
        if self.derived == "shift":
            return (self.base.interval_value(j + 1, bits)
                    / self.base.interval_value(1, bits))
        raise DomainError("sequence has no interval rule")

    def is_rational_valued(self) -> bool:
        if self.family in (ANALYTIC, Q_GEVREY):
            return True
        if self.family == GEVREY:
            return self.param.denominator == 1
        if self.family == LOG_GEVREY:
            return False
        if self.terms is not None:
            return True
        if self.derived == "power":
            return (self.base.is_rational_valued()
                    and self.exponent.denominator == 1)
        if self.derived == "shift":
            return self.base.is_rational_valued()
        return False

    def mbar(self, j: int) -> Fraction | None:
        """The factorial-weighted value j! * M_j, exact when possible."""
        v = self.exact_value(j)
        return None if v is None else factorial(j) * v

    def renormalization(self) -> Fraction | RI:
        """For a shifted sequence, the constant M_1 of the base that was
        divided out so that the shifted sequence starts at 1."""
        if self.derived != "shift":
            raise DomainError("renormalization is defined for shifted sequences")
        v = self.base.exact_value(1)
        return v if v is not None else self.base.interval_value(1)

    # -- serialization ------------------------------------------------------

    def dsl(self) -> str:
        """Canonical DSL text; round-trips through parse_sequence for all
        parseable forms."""
        if self.family == ANALYTIC:
            return "analytic"
        if self.family in (GEVREY, LOG_GEVREY, Q_GEVREY):
            return f"{self.family}({format_fraction(self.param)})"
        if self.terms is not None:
            body = f"terms=[{', '.join(format_fraction(t) for t in self.terms)}]"
            if self.assume:
                body += f"; assume=[{', '.join(sorted(self.assume))}]"
            return "custom{" + body + "}"
        return f"<derived:{self.derived}>"

    def to_json(self) -> dict:
        out: dict = {"family": self.family}
        if self.param is not None:
            out["param"] = format_fraction(self.param)
        if self.terms is not None:
            out["terms"] = [format_fraction(t) for t in self.terms]
        if self.assume:
            out["assume"] = sorted(self.assume)
        if self.derived is not None:
            out["derived"] = {"op": self.derived, "base": self.base.to_json()}
            if self.exponent is not None:
                out["derived"]["exponent"] = format_fraction(self.exponent)
        return out

    def __str__(self):
        return self.dsl()


def analytic() -> CarlemanSequence:
    return CarlemanSequence(ANALYTIC)


def gevrey(alpha) -> CarlemanSequence:
    return CarlemanSequence(GEVREY, param=Fraction(alpha))


def loggevrey(alpha) -> CarlemanSequence:
    return CarlemanSequence(LOG_GEVREY, param=Fraction(alpha))


def qgevrey(q) -> CarlemanSequence:
    return CarlemanSequence(Q_GEVREY, param=Fraction(q))


def custom(terms, assume=()) -> CarlemanSequence:
    return CarlemanSequence(CUSTOM, terms=tuple(Fraction(t) for t in terms),
                            assume=frozenset(assume))


# -- DSL parser ---------------------------------------------------------------

class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise QalSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        if self.pos == start:
            raise QalSyntaxError("expected identifier", start)
        return self.text[start:self.pos]

    def number(self) -> Fraction:
        self.skip_ws()
        start = self.pos
        allowed = "0123456789./eE+-"
        while self.pos < len(self.text) and self.text[self.pos] in allowed:
            # only allow sign characters at the start or after an exponent e
            if self.text[self.pos] in "+-" and self.pos > start \
                    and self.text[self.pos - 1] not in "eE":
                break
            self.pos += 1
        if self.pos == start:
            raise QalSyntaxError("expected number", start)
        return parse_fraction(self.text[start:self.pos], start)

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_sequence(text: str) -> CarlemanSequence:
    """Parse the sequence DSL.

    Grammar::

        seq    := 'analytic'
                | 'gevrey' '(' R ')' | 'loggevrey' '(' R ')' | 'qgevrey' '(' R ')'
                | 'custom' '{' 'terms' '=' '[' R (',' R)* ']'
                             (';' 'assume' '=' '[' IDENT (',' IDENT)* ']')? '}'

    where R is an integer, decimal or rational literal p/q, parsed exactly.
    """
    sc = _Scanner(text)
    name_pos = sc.pos
    name = sc.ident().lower()
    if name == "analytic":
        seq = analytic()
    elif name in (GEVREY, LOG_GEVREY, Q_GEVREY):
        sc.expect("(")
        value = sc.number()
        sc.expect(")")
        if name == Q_GEVREY and value <= 1:
            raise DomainError(f"qgevrey parameter must be > 1, got {value}")
        if name in (GEVREY, LOG_GEVREY) and value <= 0:
            raise DomainError(f"{name} parameter must be > 0, got {value}")
        seq = CarlemanSequence(name, param=value)
    elif name == "custom":
        sc.expect("{")
        terms: list[Fraction] = []
        assume: list[str] = []
        while True:
            key = sc.ident().lower()
            sc.expect("=")
            sc.expect("[")
            if key == "terms":
                terms.append(sc.number())
                while sc.peek() == ",":
                    sc.expect(",")
                    terms.append(sc.number())
            elif key == "assume":
                assume.append(sc.ident())
                while sc.peek() == ",":
                    sc.expect(",")
                    assume.append(sc.ident())
            else:
                raise QalSyntaxError(f"unknown custom field {key!r}", sc.pos)
            sc.expect("]")
            if sc.peek() == ";":
                sc.expect(";")
                continue
            break
        sc.expect("}")
        if not terms:
            raise QalSyntaxError("custom sequence needs terms", sc.pos)
        seq = custom(terms, assume)
    else:
        raise QalSyntaxError(f"unknown sequence family {name!r}", name_pos)
    if not sc.at_end():
        raise QalSyntaxError("trailing input after sequence", sc.pos)
    return seq


# -- exact / certified value comparisons --------------------------------------

def _power_product(seq: CarlemanSequence,
                   items: list[tuple[int, int]]) -> list[tuple[Fraction, Fraction]] | None:
    """prod seq_j^p over (j, p) in items as (base, exponent) pairs, or None
    when some factor has no power form."""
    out = []
    for j, p in items:
        pf = seq.power_form(j)
        if pf is None:
            return None
        out.extend((b, e * p) for b, e in pf if b != 1)
    return out


def _compare_scan(M: CarlemanSequence, N: CarlemanSequence,
                  comparisons: list[tuple[list, list, str]]) -> list[int]:
    """Signs (-1, 0, 1) of the comparisons of prod M_j^p (lhs) against
    prod N_j^p (rhs), in order, through the first one decided '>'.

    Each comparison is (lhs, rhs, label), a side being a list of (index,
    integer power).  A comparison whose sides both have a power form is
    decided exactly, at most once.  The others share one :func:`certify`:
    each attempt fetches every value it needs once, scans the comparisons
    in order and escalates while one before the first '>' is undecided;
    at the cap the error names that comparison.
    """
    exact: dict[int, int | None] = {}
    pending = ""

    def exact_sign(i: int) -> int | None:
        if i not in exact:
            lhs, rhs, _ = comparisons[i]
            left, right = _power_product(M, lhs), _power_product(N, rhs)
            exact[i] = (None if left is None or right is None
                        else compare_power_products(left, right))
        return exact[i]

    def attempt(bits: int) -> list[int] | None:
        nonlocal pending
        table: dict[tuple[int, int], RI] = {}   # keyed by (id(seq), j)

        def side(seq, items):
            out = None
            for j, p in items:
                key = (id(seq), j)
                if key not in table:
                    table[key] = seq.interval_value(j, bits)
                v = table[key] if p == 1 else table[key] ** p
                out = v if out is None else out * v
            return out

        signs = []
        for i, (lhs, rhs, label) in enumerate(comparisons):
            c = exact_sign(i)
            if c is None:
                c = side(M, lhs).cmp(side(N, rhs))
                if c is None:
                    pending = label
                    return None
            signs.append(c)
            if c > 0:
                break
        return signs

    return certify(attempt, lambda: f"{pending} undecided", UndecidableAtCap)


def _first_violation(M: CarlemanSequence,
                     comparisons: list[tuple[list, list, str]]) -> int | None:
    """Index of the first comparison of M's values decided '>', or None."""
    signs = _compare_scan(M, M, comparisons)
    return len(signs) - 1 if signs and signs[-1] > 0 else None


# -- structural checks ---------------------------------------------------------

@dataclass
class CheckResult:
    passed: bool
    witness: tuple | None = None
    detail: str = ""

    def __bool__(self):
        return self.passed


def check_log_convexity(M: CarlemanSequence, horizon: int = 32) -> CheckResult:
    """Verify M_j^2 <= M_{j-1} M_{j+1} for 1 <= j < horizon."""
    if horizon < 2:
        raise DomainError("log-convexity check needs horizon >= 2")
    lim = M.horizon_limit()
    top = horizon if lim is None else min(horizon, lim - 1)
    # equality or strict inequality both satisfy log-convexity
    i = _first_violation(M, [([(j, 2)], [(j - 1, 1), (j + 1, 1)],
                              f"log-convexity at j={j}") for j in range(1, top)])
    if i is not None:
        j = i + 1
        return CheckResult(False, witness=(j,), detail=f"M_{j}^2 > M_{j-1} M_{j+1}")
    return CheckResult(True, detail=f"verified for 1 <= j < {top}")


def verify_superadditivity(M: CarlemanSequence, horizon: int = 32) -> CheckResult:
    """Verify M_j M_k <= M_{j+k} for j + k <= horizon and that (M_j)^(1/j)
    is nondecreasing for 1 <= j <= horizon."""
    lim = M.horizon_limit()
    top = horizon if lim is None else min(horizon, lim)
    comparisons, failures = [], []
    for j in range(1, top + 1):
        for k in range(j, top - j + 1):
            comparisons.append(([(j, 1), (k, 1)], [(j + k, 1)],
                                f"superadditivity at ({j},{k})"))
            failures.append(((j, k), f"M_{j} M_{k} > M_{j+k}"))
    # (M_j)^(1/j) nondecreasing  <=>  M_j^(j+1) <= M_{j+1}^j
    for j in range(1, top):
        comparisons.append(([(j, j + 1)], [(j + 1, j)], f"root monotonicity at j={j}"))
        failures.append(((j,), f"(M_{j})^(1/{j}) > (M_{j+1})^(1/{j+1})"))
    i = _first_violation(M, comparisons)
    if i is not None:
        witness, detail = failures[i]
        return CheckResult(False, witness=witness, detail=detail)
    return CheckResult(True, detail=f"verified up to j+k <= {top}")


# -- the value operation -------------------------------------------------------

def value(M: CarlemanSequence, j: int, precision: int | None = None):
    """M_j as an exact Fraction when rational, else a certified interval
    of relative width at most 2^-precision."""
    exact = M.exact_value(j)
    if exact is not None:
        return exact
    precision = precision or default_bits()
    target = Fraction(1, 1 << precision)

    def attempt(bits: int) -> RI | None:
        out = M.interval_value(j, bits)
        return out if out.rel_width() <= target else None

    return certify(attempt, f"cannot reach relative width 2^-{precision} for M_{j}",
                   UndecidableAtCap, max(precision + 16, default_bits()))


# -- preorder comparison -------------------------------------------------------

@dataclass
class PrecedeResult:
    verdict: str                 # 'true' | 'false' | 'inconclusive'
    mode: str                    # 'symbolic' | 'diagnostic'
    rule: str = ""
    sup_estimate: float | None = None

    def to_json(self):
        out = {"verdict": self.verdict, "mode": self.mode, "rule": self.rule}
        if self.sup_estimate is not None:
            out["sup_estimate"] = self.sup_estimate
        return out


_FAMILY_RANK = {ANALYTIC: 0, LOG_GEVREY: 1, GEVREY: 2, Q_GEVREY: 3}


def _root(q: Fraction, n: int) -> float:
    """q^(1/n) for a positive Fraction q, through the logarithms of its
    numerator and denominator, so that no float of a huge q is formed."""
    return math.exp((math.log(q.numerator) - math.log(q.denominator)) / n)


def precede(M: CarlemanSequence, N: CarlemanSequence,
            horizon: int = 32) -> PrecedeResult:
    """Decide M ≺ N, i.e. M_j <= C^j N_j for some constant C.

    Built-in family pairs are decided by a closed-form growth comparison;
    anything involving a custom sequence only gets the finite-horizon
    diagnostic sup_j (M_j/N_j)^(1/j), reported as inconclusive.
    """
    if M == N:
        return PrecedeResult(TRUE, "symbolic", rule="reflexive (C=1)")
    if M.family in _BUILTIN and N.family in _BUILTIN:
        rm, rn = _FAMILY_RANK[M.family], _FAMILY_RANK[N.family]
        if rm < rn:
            return PrecedeResult(TRUE, "symbolic",
                                 rule=f"{M.family} grows more slowly than {N.family}")
        if rm > rn:
            return PrecedeResult(FALSE, "symbolic",
                                 rule=f"{M.family} outgrows every {N.family}")
        if M.family == ANALYTIC:
            return PrecedeResult(TRUE, "symbolic", rule="constant sequences")
        # same family: parameter comparison decides
        if M.param <= N.param:
            return PrecedeResult(TRUE, "symbolic",
                                 rule=f"parameter {M.param} <= {N.param}")
        return PrecedeResult(FALSE, "symbolic",
                             rule=f"parameter {M.param} > {N.param}")
    sup = 0.0
    lim_m, lim_n = M.horizon_limit(), N.horizon_limit()
    top = horizon
    for lim in (lim_m, lim_n):
        if lim is not None:
            top = min(top, lim)
    for j in range(1, top + 1):
        mj = M.interval_value(j).mid()
        nj = N.interval_value(j).mid()
        sup = max(sup, _root(mj / nj, j))
    return PrecedeResult(INCONCLUSIVE, "diagnostic",
                         rule=f"finite-horizon sup over 1..{top}",
                         sup_estimate=sup)


# -- classification -------------------------------------------------------------

@dataclass
class Flag:
    value: str                   # 'true' | 'false' | 'inconclusive'
    provenance: str              # 'symbolic' | 'finite-horizon'
    certificate: dict = field(default_factory=dict)

    def to_json(self):
        return {"value": self.value, "provenance": self.provenance,
                "certificate": _jsonable(self.certificate)}


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return format_fraction(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


@dataclass
class SequenceReport:
    sequence: CarlemanSequence
    horizon: int
    log_convex: Flag
    analytic_class: Flag
    derivation_stable: Flag
    quasianalytic: Flag
    strongly_non_quasianalytic: Flag
    moderate_growth: Flag
    strongly_regular: Flag

    FLAG_NAMES = ("log_convex", "analytic_class", "derivation_stable",
                  "quasianalytic", "strongly_non_quasianalytic",
                  "moderate_growth", "strongly_regular")

    def flag(self, name: str) -> Flag:
        return getattr(self, name)

    def to_json(self) -> dict:
        out = {"sequence": self.sequence.to_json(), "horizon": self.horizon}
        for name in self.FLAG_NAMES:
            out[name] = self.flag(name).to_json()
        return out


def _tri_and(a: str, b: str) -> str:
    if a == FALSE or b == FALSE:
        return FALSE
    if a == TRUE and b == TRUE:
        return TRUE
    return INCONCLUSIVE


def _symbolic(value: str, reason: str, **extra) -> Flag:
    cert = {"rule": reason}
    cert.update(extra)
    return Flag(value, "symbolic", cert)


def classify(M: CarlemanSequence, horizon: int = 32) -> SequenceReport:
    """Full growth-condition report.

    Built-in families receive symbolic verdicts from the rule table below;
    every verdict corresponds to a closed-form growth comparison that can
    be checked by hand.  Custom sequences receive finite-horizon
    diagnostics flagged inconclusive unless the user asserted the tail
    class at construction.
    """
    lc = check_log_convexity(M, horizon)
    if lc.passed:
        lc_flag = Flag(TRUE, "finite-horizon" if M.family == CUSTOM else "symbolic",
                       {"checked_on": f"1 <= j < {horizon}", "detail": lc.detail})
    else:
        lc_flag = Flag(FALSE, "finite-horizon",
                       {"witness_j": lc.witness[0], "detail": lc.detail})

    if M.family == ANALYTIC:
        flags = {
            "analytic_class": _symbolic(TRUE, "M_j = 1 for all j"),
            "derivation_stable": _symbolic(TRUE, "ratios M_{j+1}/M_j = 1"),
            "quasianalytic": _symbolic(TRUE, "sum of 1/(j+1) diverges"),
            "strongly_non_quasianalytic": _symbolic(
                FALSE, "harmonic tails are unbounded relative to M_k/M_{k+1} = 1"),
            "moderate_growth": _symbolic(TRUE, "M_{j+k}/(M_j M_k) = 1"),
        }
    elif M.family == GEVREY:
        a = M.param
        flags = {
            "analytic_class": _symbolic(FALSE, "(j!)^(a/j) is unbounded", alpha=a),
            "derivation_stable": _symbolic(
                TRUE, "sup ((j+1)!/j!)^(a/j) = sup (j+1)^(a/j) is finite", alpha=a),
            "quasianalytic": _symbolic(
                FALSE, "sum M_j/((j+1) M_{j+1}) = sum (j+1)^-(1+a) converges",
                alpha=a),
            "strongly_non_quasianalytic": _symbolic(
                TRUE, "tail sum of (j+1)^-(1+a) is comparable to k^-a = M_k/M_{k+1} "
                      "up to a constant", alpha=a),
            "moderate_growth": _symbolic(
                TRUE, "binomial bound (j+k)! <= 2^(j+k) j! k! gives "
                      "(M_{j+k}/(M_j M_k))^(1/(j+k)) <= 2^a", alpha=a),
        }
    elif M.family == LOG_GEVREY:
        a = M.param
        qa = TRUE if a <= 1 else FALSE
        flags = {
            "analytic_class": _symbolic(FALSE, "(M_j)^(1/j) = log(j+e)^a is unbounded",
                                        alpha=a),
            "derivation_stable": _symbolic(
                TRUE, "(M_{j+1}/M_j)^(1/j) tends to 1", alpha=a),
            "quasianalytic": _symbolic(
                qa, "sum M_j/((j+1) M_{j+1}) behaves like sum 1/(j log(j)^a), "
                    "divergent exactly when a <= 1", alpha=a),
            "strongly_non_quasianalytic": _symbolic(
                FALSE, "tail sums of 1/(j log(j)^a) decay like log(k)^(1-a), "
                       "never dominated by a constant multiple of M_k/M_{k+1}",
                alpha=a),
            "moderate_growth": _symbolic(
                TRUE, "(j+k) log log(j+k+e) exceeds the split sum by at most "
                      "O(j+k), so the (j+k)-th root stays bounded", alpha=a),
        }
    elif M.family == Q_GEVREY:
        q = M.param
        flags = {
            "analytic_class": _symbolic(FALSE, "(M_j)^(1/j) = q^j is unbounded", q=q),
            "derivation_stable": _symbolic(
                TRUE, "(M_{j+1}/M_j)^(1/j) = q^((2j+1)/j) <= q^3", q=q),
            "quasianalytic": _symbolic(
                FALSE, "terms M_j/((j+1) M_{j+1}) = q^-(2j+1)/(j+1) are summable",
                q=q),
            "strongly_non_quasianalytic": _symbolic(
                TRUE, "the tail is dominated by a geometric series with ratio "
                      "q^-2 starting at its first term", q=q),
            "moderate_growth": _symbolic(
                FALSE, "(M_{2j}/M_j^2)^(1/(2j)) = q^j is unbounded", q=q),
        }
    else:
        flags = _classify_custom(M, horizon)

    snqa = flags["strongly_non_quasianalytic"]
    mg = flags["moderate_growth"]
    sr_value = _tri_and(snqa.value, mg.value)
    sr = Flag(sr_value,
              "symbolic" if snqa.provenance == mg.provenance == "symbolic"
              else "finite-horizon",
              {"rule": "strongly regular = strongly non-quasianalytic and "
                       "moderate growth"})

    # a sequence of analytic class is quasianalytic
    if flags["analytic_class"].value == TRUE and flags["quasianalytic"].value != TRUE:
        flags["quasianalytic"] = _symbolic(
            TRUE, "analytic class forces quasianalyticity")
    if (flags["quasianalytic"].value == TRUE
            and flags["strongly_non_quasianalytic"].value == TRUE):
        raise InconclusiveInput(
            "inconsistent classification: quasianalytic and strongly "
            "non-quasianalytic cannot both hold")

    return SequenceReport(
        sequence=M, horizon=horizon, log_convex=lc_flag,
        analytic_class=flags["analytic_class"],
        derivation_stable=flags["derivation_stable"],
        quasianalytic=flags["quasianalytic"],
        strongly_non_quasianalytic=flags["strongly_non_quasianalytic"],
        moderate_growth=flags["moderate_growth"],
        strongly_regular=sr)


def _classify_custom(M: CarlemanSequence, horizon: int) -> dict:
    lim = M.horizon_limit()
    top = horizon if lim is None else min(horizon, lim)
    mids = [M.interval_value(j).mid() for j in range(top + 1)]
    # the terms M_j/((j+1) M_{j+1}) of the quasianalyticity series
    terms = [mids[j] / ((j + 1) * mids[j + 1]) for j in range(top)]

    partial = Fraction(0)
    partial_trace = []
    for j in range(0, top):
        partial += terms[j]
        if j in (1, 3, 7, 15, 31) or j == top - 1:
            partial_trace.append((j, partial))

    # strong non-quasianalyticity ratio diagnostic at each k
    snqa_ratios = []
    for k in range(0, top - 1):
        tail = sum(terms[k:top], Fraction(0))
        snqa_ratios.append(tail / (mids[k] / mids[k + 1]))
    snqa_sup = max(snqa_ratios) if snqa_ratios else Fraction(0)

    # moderate growth diagnostic sup over j + k <= horizon
    mg_sup = 0.0
    for j in range(1, top):
        for k in range(1, top - j + 1):
            mg_sup = max(mg_sup, _root(mids[j + k] / (mids[j] * mids[k]), j + k))

    root_growth = _root(mids[top], top) if top >= 1 else 1.0
    ratio_growth = max((_root(mids[j + 1] / mids[j], j) for j in range(1, top)),
                       default=1.0)

    def diagnostic(cert):
        return Flag(INCONCLUSIVE, "finite-horizon", cert)

    flags = {
        "analytic_class": diagnostic({
            "diagnostic": f"(M_{top})^(1/{top})", "value": root_growth}),
        "derivation_stable": diagnostic({
            "diagnostic": "sup (M_{j+1}/M_j)^(1/j)", "value": ratio_growth}),
        "quasianalytic": diagnostic({
            "diagnostic": "partial sums of sum M_j/((j+1)M_{j+1})",
            "partial_sums": [(j, float(v)) for j, v in partial_trace]}),
        "strongly_non_quasianalytic": diagnostic({
            "diagnostic": "sup_k tail_k / (M_k/M_{k+1})",
            "value": float(snqa_sup)}),
        "moderate_growth": diagnostic({
            "diagnostic": "sup (M_{j+k}/(M_j M_k))^(1/(j+k))", "value": mg_sup}),
    }
    for token in M.assume:
        name, val = _ASSUMABLE[token]
        flags[name] = Flag(val, "symbolic",
                           {"rule": "user-asserted tail class", "token": token})
    return flags


# -- derived sequences ----------------------------------------------------------

def power(M: CarlemanSequence, s) -> CarlemanSequence:
    """The sequence of s-th powers, s >= 1.  Stays inside the built-in
    families whenever the powered parameter is representable."""
    s = Fraction(s)
    if s < 1:
        raise DomainError("power exponent must be >= 1")
    if s == 1:
        return M
    if M.family == ANALYTIC:
        return M
    if M.family == GEVREY:
        return gevrey(M.param * s)
    if M.family == LOG_GEVREY:
        return loggevrey(M.param * s)
    if M.family == Q_GEVREY:
        qs = exact_pow(M.param, s)
        if qs is not None:
            return qgevrey(qs)
        # q^s irrational: fall through to a derived rule
    if M.family == CUSTOM and M.terms is not None:
        powered = [exact_pow(t, s) for t in M.terms]
        if all(p is not None for p in powered):
            # derivation stability and moderate growth survive s-th powers
            kept = M.assume & {"derivation_stable", "not_derivation_stable",
                               "moderate_growth", "no_moderate_growth"}
            return custom(powered, kept)
    return CarlemanSequence(CUSTOM, base=M, derived="power", exponent=s)


def shift(M: CarlemanSequence) -> CarlemanSequence:
    """The shifted sequence j -> M_{j+1}/M_1, renormalized so that the
    result again starts at 1.  The constant M_1 is retained and can be
    read back via :meth:`CarlemanSequence.renormalization`."""
    if M.family == ANALYTIC:
        return M
    if M.family == CUSTOM and M.terms is not None:
        if len(M.terms) < 2:
            raise DomainError("cannot shift a one-term sequence")
        m1 = M.terms[1]
        return CarlemanSequence(CUSTOM,
                                terms=tuple(t / m1 for t in M.terms[1:]),
                                base=M, derived="shift")
    return CarlemanSequence(CUSTOM, base=M, derived="shift")
