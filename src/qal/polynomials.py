"""Sparse multivariate polynomials over Q.

A polynomial carries exact rational coefficients (ints and Fractions) in
a sparse exponent-vector map with a canonical variable ordering (x before
y; numbered variables x1, x2, ... by index).  Dense univariate work lives
elsewhere: integer real-root counting in ``qal.chain``, and arithmetic
over a number field in sympy (see ``qal.algebraic``).
"""

from __future__ import annotations

import re
from itertools import chain
from fractions import Fraction

from .errors import DomainError, QalSyntaxError, ZeroPolynomialError
from .rationals import TokenCursor, _instance, _new, _order, _rational

Exponents = tuple[int, ...]

# the coefficient types of a MultiPoly; a bool is not an int here
_EXACT_TYPES = frozenset({int, Fraction})

# the largest total degree a power may reach (a constant counts as degree 1,
# since its coefficient grows with the exponent)
_POWER_DEGREE_CAP = 4096


def _var_key(name: str):
    """The sort key of a variable name: letters, then the number they carry
    (x before x0, x2 before x10), then the digits as written (x01 before x1),
    so that distinct names never tie."""
    m = re.fullmatch(r"([a-zA-Z]+)(\d*)", name)
    if not m:
        return (name, -1, "")
    letters, digits = m.groups()
    return (letters, int(digits) if digits else -1, digits)


def _names(vars) -> tuple[str, ...]:
    """vars if it is a tuple of distinct names, otherwise DomainError."""
    for v in _instance(vars, tuple, "the variables"):
        _instance(v, str, "a variable name")
    if len(set(vars)) < len(vars):
        raise DomainError(f"the variables must be distinct names, got {vars!r}")
    return vars


class MultiPoly:
    """Sparse multivariate polynomial with int and Fraction coefficients."""

    __slots__ = ("vars", "coeffs")

    def __init__(self, vars: tuple[str, ...], coeffs: dict[Exponents, object] | None = None):
        """vars must be a tuple of distinct names, each key of coeffs a
        tuple of len(vars) nonnegative exponents and each coefficient an
        int (not a bool) or a Fraction, otherwise DomainError; zero
        coefficients are dropped.  Each term costs one length test and a
        type test of its key and its coefficient; the exponents are checked
        together, by their set of types and one min."""
        self.vars = _names(vars)
        self.coeffs: dict[Exponents, object] = {}
        if coeffs:
            n = len(vars)
            for exps, c in coeffs.items():
                if type(exps) is not tuple or len(exps) != n:
                    raise DomainError(f"{exps!r} is not an exponent tuple over {vars}")
                if type(c) not in _EXACT_TYPES:
                    raise DomainError(f"the coefficient {c!r} is not an int or a Fraction")
                if c != 0:
                    self.coeffs[exps] = c
            exps = tuple(chain.from_iterable(coeffs))
            if set(map(type, exps)) - {int} or min(exps, default=0) < 0:
                raise DomainError(f"an exponent that is not an int >= 0 among {list(coeffs)}")

    @staticmethod
    def _of(vars: tuple[str, ...], coeffs: dict) -> "MultiPoly":
        """coeffs over vars without the checks: for the ring operations,
        whose keys are those of checked operands or sums of them."""
        p = _new(MultiPoly)
        p.vars, p.coeffs = vars, {e: c for e, c in coeffs.items() if c != 0}
        return p

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(value, vars: tuple[str, ...] = ()) -> "MultiPoly":
        return MultiPoly(vars, {(0,) * len(vars): _rational(value, "a constant")})

    @staticmethod
    def variable(name: str, vars: tuple[str, ...] | None = None) -> "MultiPoly":
        vars = vars or (name,)
        exps = tuple(1 if v == name else 0 for v in vars)
        if name not in vars:
            raise DomainError(f"{name} not among {vars}")
        return MultiPoly(vars, {exps: Fraction(1)})

    def with_vars(self, vars: tuple[str, ...]) -> "MultiPoly":
        """Reindex onto a superset variable tuple."""
        if not set(self.vars) <= set(_names(vars)):
            raise DomainError(f"{vars!r} does not hold {self.vars}")
        pos = {v: vars.index(v) for v in self.vars}
        out: dict[Exponents, object] = {}
        for exps, c in self.coeffs.items():
            new = [0] * len(vars)
            for i, e in enumerate(exps):
                new[pos[self.vars[i]]] = e
            key = tuple(new)
            out[key] = out.get(key, 0) + c
        return MultiPoly(vars, out)

    @staticmethod
    def _aligned(a: "MultiPoly", b: "MultiPoly"):
        if a.vars == b.vars:
            return a, b
        merged = tuple(sorted(set(a.vars) | set(b.vars), key=_var_key))
        return a.with_vars(merged), b.with_vars(merged)

    # -- ring operations ---------------------------------------------------

    def _operand(self, other) -> "MultiPoly":
        """other as a MultiPoly: itself, or an int (not a bool) or Fraction as
        a constant over these variables; anything else raises DomainError."""
        if isinstance(other, MultiPoly):
            return other
        return MultiPoly.constant(_rational(other, "a polynomial operand"), self.vars)

    def _var(self, var) -> int:
        """The index of var among the variables, or DomainError."""
        if var not in self.vars:
            raise DomainError(f"{var!r} not among {self.vars}")
        return self.vars.index(var)

    def __add__(self, other):
        other = self._operand(other)
        a, b = MultiPoly._aligned(self, other)
        out = dict(a.coeffs)
        for exps, c in b.coeffs.items():
            out[exps] = out.get(exps, 0) + c
        return MultiPoly._of(a.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of(self.vars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            _rational(other, "a polynomial factor")
            if other == 0:
                return MultiPoly(self.vars)
            return MultiPoly._of(self.vars, {e: c * other for e, c in self.coeffs.items()})
        a, b = MultiPoly._aligned(self, other)
        return MultiPoly._of(a.vars, _dict_product(a.coeffs, b.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        _order(n, "the exponent of a polynomial power", 0)
        if n * max(self.total_degree(), 1) > _POWER_DEGREE_CAP:
            raise DomainError(f"the power {n} would pass the degree cap {_POWER_DEGREE_CAP}")
        out = MultiPoly.constant(1, self.vars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = MultiPoly.constant(other, self.vars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = MultiPoly._aligned(self, other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        return hash((self.vars, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    # -- structure ----------------------------------------------------------

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        i = self._var(var)
        if not self.coeffs:
            return -1
        return max(e[i] for e in self.coeffs)

    def total_degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)

    def order(self) -> int:
        """Smallest total degree of a monomial; the local multiplicity at 0."""
        if not self.coeffs:
            raise ZeroPolynomialError("order of the zero polynomial")
        return min(sum(e) for e in self.coeffs)

    def coefficient(self, var: str, power: int) -> "MultiPoly":
        """Coefficient of var^power as a polynomial in the other variables."""
        i = self._var(var)
        _order(power, "the power of a coefficient")
        rest = tuple(v for v in self.vars if v != var)
        out: dict[Exponents, object] = {}
        for exps, c in self.coeffs.items():
            if exps[i] == power:
                key = tuple(e for n, e in enumerate(exps) if n != i)
                out[key] = out.get(key, 0) + c
        return MultiPoly(rest, out)

    def constant_term(self):
        return self.coeffs.get((0,) * len(self.vars), Fraction(0))

    def eval(self, assignment: dict[str, object]):
        """Full evaluation at ints or Fractions; every variable must be assigned."""
        if not isinstance(assignment, dict) or not set(self.vars) <= set(assignment):
            raise DomainError(f"eval needs a dict assigning each of {self.vars}")
        for v in self.vars:
            _rational(assignment[v], f"the value of {v}")
        total = 0
        for exps, c in self.coeffs.items():
            term = c
            for v, e in zip(self.vars, exps):
                if e:
                    term = term * assignment[v] ** e
            total = total + term
        return total

    def substitute(self, replacements: dict[str, "MultiPoly"]) -> "MultiPoly":
        """Substitute polynomials for several variables at once, given as
        {variable: replacement}; a replacement may involve any variable,
        substituted ones included, and is not substituted into itself.

        One pass groups the terms by their exponents alpha in the
        substituted variables into plain dicts, already reindexed onto the
        result's variables.  For each substituted variable v the powers
        replacement_v^1 .. replacement_v^p, p its largest exponent, are
        formed once by successive products; each group is multiplied by
        the product of its powers and accumulated into one dict.  The terms
        with alpha = 0 are copied.
        """
        if not isinstance(replacements, dict):
            raise DomainError(f"substitute needs a dict, got {type(replacements).__name__}")
        for var, rep in replacements.items():
            self._var(var)
            if not isinstance(rep, MultiPoly):
                raise DomainError(f"the replacement of {var} must be a MultiPoly")
        subs = [i for i, v in enumerate(self.vars) if v in replacements]
        merged = tuple(sorted(set(self.vars).difference(replacements).union(
            *(r.vars for r in replacements.values())), key=_var_key))
        slots = [None if v in replacements else merged.index(v) for v in self.vars]
        by_alpha: dict[Exponents, dict[Exponents, object]] = {}
        for exps, c in self.coeffs.items():
            key = [0] * len(merged)
            for slot, e in zip(slots, exps):
                if slot is not None:
                    key[slot] = e
            by_alpha.setdefault(tuple(exps[i] for i in subs), {})[tuple(key)] = c
        powers = []              # powers[k][e - 1] is replacement_k^e
        for k, i in enumerate(subs):
            rep = replacements[self.vars[i]].with_vars(merged).coeffs
            top = max(alpha[k] for alpha in by_alpha) if by_alpha else 1
            row = [rep]
            while len(row) < top:
                row.append(_dict_product(row[-1], rep))
            powers.append(row)
        out: dict[Exponents, object] = dict(by_alpha.pop((0,) * len(subs), {}))
        for alpha, terms in by_alpha.items():
            factors = [powers[k][e - 1] for k, e in enumerate(alpha) if e]
            product = factors[0]
            for factor in factors[1:]:
                product = _dict_product(product, factor)
            _accumulate_product(out, terms, product)
        return MultiPoly(merged, out)

    def derivative(self, var: str) -> "MultiPoly":
        i = self._var(var)
        out: dict[Exponents, object] = {}
        for exps, c in self.coeffs.items():
            if exps[i]:
                key = tuple(e - 1 if n == i else e for n, e in enumerate(exps))
                out[key] = out.get(key, 0) + c * exps[i]
        return MultiPoly(self.vars, out)

    # -- printing ------------------------------------------------------------

    def _monomial_str(self, exps: Exponents, c) -> str:
        parts = []
        for v, e in zip(self.vars, exps):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        if not parts:
            return str(c)
        if c == 1:
            return "*".join(parts)
        if c == -1:
            return "-" + "*".join(parts)
        return f"{c}*" + "*".join(parts)

    def __str__(self):
        if not self.coeffs:
            return "0"
        keys = sorted(self.coeffs, key=lambda e: (sum(e), e), reverse=True)
        out = self._monomial_str(keys[0], self.coeffs[keys[0]])
        for k in keys[1:]:
            term = self._monomial_str(k, self.coeffs[k])
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out

    def __repr__(self):
        return f"MultiPoly({self})"


def _accumulate_product(out: dict, a: dict, b: dict) -> None:
    """Add the product of two exponent -> coefficient maps into out."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(map(int.__add__, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2


def _dict_product(a: dict, b: dict) -> dict:
    out: dict[Exponents, object] = {}
    _accumulate_product(out, a, b)
    return out


# -- parser ---------------------------------------------------------------------

def _expr(cur: TokenCursor) -> MultiPoly:
    """expr := term (('+' | '-') term)*"""
    out = _term(cur)
    while cur.peek()[1] in ("+", "-"):
        sign = cur.take("char")[1]
        out = out + _term(cur) if sign == "+" else out - _term(cur)
    return out


def _term(cur: TokenCursor) -> MultiPoly:
    """term := factor ('*' factor)*"""
    out = _factor(cur)
    while cur.accept("*"):
        out = out * _factor(cur)
    return out


def _factor(cur: TokenCursor) -> MultiPoly:
    """factor := '-' factor | atom ('^' digits)?
    atom := literal | name | '(' expr ')'"""
    if cur.accept("-"):
        return -_factor(cur)
    kind, text, offset = cur.peek()
    if kind == "number":
        base = MultiPoly.constant(cur.number())
    elif kind == "name":
        base = MultiPoly.variable(cur.take("name")[1])
    elif cur.accept("("):
        base = _expr(cur)
        cur.take("char", ")")
    else:
        raise QalSyntaxError(f"unexpected {text!r}" if text else "unexpected end of input", offset)
    if not cur.accept("^"):
        return base
    _, text, offset = cur.peek()
    if not text.isdigit():
        raise QalSyntaxError("exponent must be a nonnegative integer", offset)
    cur.take("number")
    return base ** int(text)


def parse_polynomial(text: str) -> MultiPoly:
    """Parse the polynomial grammar: variables x, y or x1..xn, literal
    coefficients, '^' powers, '+', '-', '*', parentheses.

    The lexer and its literal rule (an integer, p/q or a decimal, read
    exactly) are those of :class:`qal.rationals.TokenCursor`, shared with
    the sequence DSL.  A QalSyntaxError's position is the offset of the
    token where parsing failed."""
    cur = TokenCursor(text)
    poly = _expr(cur)
    cur.take("end")
    return poly
