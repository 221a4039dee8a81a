"""Polynomial arithmetic: sparse multivariate and dense univariate.

Multivariate polynomials carry exact rational (or number-field)
coefficients in a sparse exponent-vector map with a canonical variable
ordering (x before y; numbered variables x1, x2, ... by index).  The
dense univariate helpers are the ring operations (add, subtract,
multiply) on plain coefficient lists over any coefficient type; division
and gcds over a field are sympy's (see ``qal.algebraic``).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError, QalSyntaxError, ZeroPolynomialError

Exponents = tuple[int, ...]


def _var_key(name: str):
    m = re.fullmatch(r"([a-zA-Z]+)(\d*)", name)
    if not m:
        return (name, 0)
    return (m.group(1), int(m.group(2) or 0))


class MultiPoly:
    """Sparse multivariate polynomial over Fraction (or any field-like
    coefficient supporting exact arithmetic)."""

    __slots__ = ("vars", "coeffs")

    def __init__(self, vars: tuple[str, ...], coeffs: dict[Exponents, object] | None = None):
        self.vars = tuple(vars)
        self.coeffs: dict[Exponents, object] = {}
        if coeffs:
            for exps, c in coeffs.items():
                if c != 0:
                    self.coeffs[tuple(exps)] = c

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(value, vars: tuple[str, ...] = ()) -> "MultiPoly":
        value = Fraction(value) if isinstance(value, int) else value
        return MultiPoly(vars, {(0,) * len(vars): value})

    @staticmethod
    def variable(name: str, vars: tuple[str, ...] | None = None) -> "MultiPoly":
        vars = vars or (name,)
        exps = tuple(1 if v == name else 0 for v in vars)
        if name not in vars:
            raise DomainError(f"{name} not among {vars}")
        return MultiPoly(vars, {exps: Fraction(1)})

    def with_vars(self, vars: tuple[str, ...]) -> "MultiPoly":
        """Reindex onto a superset variable tuple."""
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

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.vars)
        a, b = MultiPoly._aligned(self, other)
        out = dict(a.coeffs)
        for exps, c in b.coeffs.items():
            out[exps] = out.get(exps, 0) + c
        return MultiPoly(a.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.vars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MultiPoly(self.vars)
            return MultiPoly(self.vars,
                             {e: c * other for e, c in self.coeffs.items()})
        a, b = MultiPoly._aligned(self, other)
        return MultiPoly(a.vars, _dict_product(a.coeffs, b.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative power of a polynomial")
        out = MultiPoly.constant(1, self.vars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
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
        if not self.coeffs:
            return -1
        i = self.vars.index(var)
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
        i = self.vars.index(var)
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
        """Full evaluation; every variable must be assigned."""
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
        result's variables.  Each product prod_v replacement_v^alpha_v that
        some term needs is formed once, as one product of the smaller one
        with a single alpha_v lowered by one, and every term times the
        product it needs is accumulated into one dict.  Beyond forming the
        products, the cost is one coefficient product per pair (term, term
        of its product); the terms with alpha = 0 are copied.
        """
        for var in replacements:
            if var not in self.vars:
                raise DomainError(f"{var} not among {self.vars}")
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
        reps = [replacements[self.vars[i]].with_vars(merged).coeffs for i in subs]
        zero = (0,) * len(subs)
        products: dict[Exponents, dict | None] = {zero: None}

        def product(alpha: Exponents) -> dict:
            # walk down to a product already formed, lowering the last
            # nonzero exponent each step, then form the ones above it
            steps = []
            while alpha not in products:
                k = max(k for k, e in enumerate(alpha) if e)
                steps.append((alpha, k))
                alpha = alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]
            below = products[alpha]
            for alpha, k in reversed(steps):
                below = reps[k] if below is None else _dict_product(below, reps[k])
                products[alpha] = below
            return below

        out: dict[Exponents, object] = dict(by_alpha.pop(zero, {}))
        for alpha, terms in by_alpha.items():
            _accumulate_product(out, terms, product(alpha))
        return MultiPoly(merged, out)

    def derivative(self, var: str) -> "MultiPoly":
        i = self.vars.index(var)
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
            return _coeff_str(c)
        if c == 1:
            return "*".join(parts)
        if c == -1:
            return "-" + "*".join(parts)
        return _coeff_str(c) + "*" + "*".join(parts)

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


def _coeff_str(c) -> str:
    if isinstance(c, Fraction):
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    return str(c)


# -- parser ---------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(/\d+)?)
  | (?P<var>[a-zA-Z]\w*)
  | (?P<op>[-+*^()])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "ws":
            continue
        if m.lastgroup == "bad":
            raise QalSyntaxError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _PolyParser:
    """Recursive descent over:  expr := term (('+'|'-') term)*
    term := factor ('*' factor)*  ;  factor := ('-')* atom ('^' int)?
    atom := number | variable | '(' expr ')'."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def parse(self) -> MultiPoly:
        out = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise QalSyntaxError(f"unexpected {val!r}", pos)
        return out

    def expr(self) -> MultiPoly:
        out = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                out = out + rhs if val == "+" else out - rhs
            else:
                return out

    def term(self) -> MultiPoly:
        out = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                out = out * self.factor()
            else:
                return out

    def factor(self) -> MultiPoly:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return -self.factor()
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, pos = self.advance()
            if kind != "num" or "/" in val:
                raise QalSyntaxError("exponent must be a nonnegative integer", pos)
            return base ** int(val)
        return base

    def atom(self) -> MultiPoly:
        kind, val, pos = self.advance()
        if kind == "num":
            if "/" in val:
                p, q = val.split("/")
                return MultiPoly.constant(Fraction(int(p), int(q)))
            return MultiPoly.constant(Fraction(int(val)))
        if kind == "var":
            return MultiPoly.variable(val)
        if kind == "op" and val == "(":
            inner = self.expr()
            kind, val, pos = self.advance()
            if val != ")":
                raise QalSyntaxError("expected ')'", pos)
            return inner
        raise QalSyntaxError(f"unexpected {val!r}" if val else "unexpected end of input", pos)


def parse_polynomial(text: str) -> MultiPoly:
    """Parse the polynomial grammar: variables x, y or x1..xn, integer or
    rational coefficients, '^' powers, '+', '-', '*', parentheses."""
    poly = _PolyParser(text).parse()
    merged = tuple(sorted(set(poly.vars), key=_var_key))
    return poly.with_vars(merged) if merged != poly.vars else poly


# -- dense univariate helpers over a field-like coefficient type -----------------

def utrim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def udeg(p: list) -> int:
    return len(p) - 1


def uadd(p: list, q: list) -> list:
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else 0
        b = q[i] if i < len(q) else 0
        out.append(a + b)
    return utrim(out)


def uneg(p: list) -> list:
    return [-c for c in p]


def usub(p: list, q: list) -> list:
    return uadd(p, uneg(q))


def umul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return utrim(out)


def umonic(p: list) -> list:
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]
