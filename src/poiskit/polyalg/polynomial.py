"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is tied to an ordered chart (tuple of coordinate names); all
arithmetic requires identical charts. Exponent vectors are dense tuples,
coefficients are exact rationals, and the term map never stores zeros, so
``==`` on term maps is canonical equality.
"""

from __future__ import annotations

import re
from typing import Mapping, Sequence

from .._kernel import QQ, is_inexact, qq_div, termops, to_qq

Chart = tuple[str, ...]


class ChartMismatchError(ValueError):
    """Raised when operands live on different coordinate charts."""


class PolyParseError(ValueError):
    """Raised on malformed polynomial strings; carries line/column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def _check_chart(a: "Polynomial", b: "Polynomial") -> None:
    if a.variables != b.variables:
        raise ChartMismatchError(f"chart mismatch: {a.variables} vs {b.variables}")


def degrevlex_key(expo: tuple[int, ...]):
    """Sort key under graded reverse lexicographic order (max = leading)."""
    return (sum(expo), tuple(-e for e in reversed(expo)))


class Polynomial:
    """Immutable sparse polynomial over an ordered chart. Its hash and its
    text are computed once, on first use; nothing may change ``terms`` after
    construction."""

    __slots__ = ("variables", "terms", "_hash", "_str")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], object] | None = None):
        self.variables: Chart = tuple(variables)
        clean: dict = {}
        if terms:
            n = len(self.variables)
            for expo, coeff in terms.items():
                if len(expo) != n:
                    raise ValueError(f"exponent {expo} has wrong length for chart {self.variables}")
                c = to_qq(coeff)
                if c:
                    clean[tuple(expo)] = c
        self.terms = clean
        self._hash = None
        self._str = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "Polynomial":
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def one(cls, variables: Sequence[str]) -> "Polynomial":
        return cls.constant(variables, 1)

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        variables = tuple(variables)
        i = variables.index(name)
        expo = [0] * len(variables)
        expo[i] = 1
        return cls(variables, {tuple(expo): 1})

    @classmethod
    def parse(cls, variables: Sequence[str], text: str) -> "Polynomial":
        return _parse(tuple(variables), text)

    @classmethod
    def _raw(cls, variables: Chart, terms: dict) -> "Polynomial":
        # Internal: trusts that terms is already clean (exact coefficients, no zeros).
        p = object.__new__(cls)
        p.variables = variables
        p.terms = terms
        p._hash = None
        p._str = None
        return p

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        _check_chart(self, other)
        return Polynomial._raw(self.variables, termops.t_add(self.terms, other.terms))

    def __radd__(self, other) -> "Polynomial":
        return self.__add__(other)

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        _check_chart(self, other)
        return Polynomial._raw(self.variables, termops.t_sub(self.terms, other.terms))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other).__sub__(self)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.variables, termops.t_neg(self.terms))

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return Polynomial._raw(self.variables, termops.t_scale(self.terms, to_qq(other)))
        _check_chart(self, other)
        return Polynomial._raw(self.variables, termops.t_mul(self.terms, other.terms))

    def __rmul__(self, other) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative powers are not polynomial")
        out = Polynomial.one(self.variables)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def scale(self, c) -> "Polynomial":
        return Polynomial._raw(self.variables, termops.t_scale(self.terms, to_qq(c)))

    # -- calculus and evaluation -------------------------------------------

    def diff(self, var: str | int) -> "Polynomial":
        i = var if isinstance(var, int) else self.variables.index(var)
        return Polynomial._raw(self.variables, termops.t_diff(self.terms, i))

    def eval(self, point: Sequence) -> object:
        """Exact for rational coordinates, each put in canonical form by
        ``to_qq``; a real that is not rational (a ``float`` or a numpy float
        of any width) is evaluated as ``float(x)``."""
        if len(point) != len(self.variables):
            raise ValueError("point dimension does not match chart dimension")
        pt = tuple([float(x) if type(x) is not int and type(x) is not QQ and is_inexact(x)
                    else to_qq(x) for x in point])
        return termops.t_eval(self.terms, pt)

    def partial_eval(self, assignments: Mapping[str, object]) -> "Polynomial":
        """Fix some coordinates to rational values; result on the reduced chart."""
        fixed = {self.variables.index(k): to_qq(v) for k, v in assignments.items()}
        kept = [i for i in range(len(self.variables)) if i not in fixed]
        new_vars = tuple(self.variables[i] for i in kept)
        out: dict = {}
        for expo, coeff in self.terms.items():
            c = coeff
            for i, val in fixed.items():
                if expo[i]:
                    c = c * val ** expo[i]
            if not c:
                continue
            key = tuple(expo[i] for i in kept)
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        return Polynomial._raw(new_vars, out)

    def on_chart(self, variables: Sequence[str]) -> "Polynomial":
        """Re-express on a larger chart containing all current variables."""
        variables = tuple(variables)
        idx = [variables.index(v) for v in self.variables]
        n = len(variables)
        out = {}
        for expo, coeff in self.terms.items():
            e = [0] * n
            for j, ej in zip(idx, expo):
                e[j] = ej
            out[tuple(e)] = coeff
        return Polynomial._raw(variables, out)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention."""
        return max((sum(e) for e in self.terms), default=-1)

    def leading(self) -> tuple[tuple[int, ...], object]:
        """Leading (exponent, coefficient) under degrevlex."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=degrevlex_key)
        return e, self.terms[e]

    def constant_term(self):
        return self.terms.get((0,) * len(self.variables), QQ(0))

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.variables == other.variables and self.terms == other.terms
        if isinstance(other, (int,)) or hasattr(other, "numerator"):
            return self.terms == Polynomial.constant(self.variables, other).terms
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.variables, frozenset(self.terms.items())))
        return self._hash

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        return Polynomial.constant(self.variables, other)

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        if self._str is None:
            self._str = self._render()
        return self._str

    def _render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, key=degrevlex_key, reverse=True):
            coeff = self.terms[expo]
            factors = []
            for name, e in zip(self.variables, expo):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = str(abs(coeff))
            else:
                body = "*".join(factors)
                a = abs(coeff)
                if a != 1:
                    body = f"{a}*{body}"
            parts.append(("- " if coeff < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"Polynomial({self})"


# -- parser ------------------------------------------------------------------

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN = re.compile(rf"\s*(?:(\d+)|({IDENTIFIER.pattern})|([-+*^/()]))")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            line = text.count("\n", 0, pos) + 1
            col = pos - text.rfind("\n", 0, pos)
            raise PolyParseError(f"unexpected character {stripped[0]!r}", line, col)
        pos = m.end()
        if m.group(1) is not None:
            tokens.append(("int", m.group(1), pos))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), pos))
        else:
            tokens.append(("op", m.group(3), pos))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, variables: Chart, text: str):
        self.variables = variables
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def _err(self, message: str):
        pos = self.tokens[min(self.i, len(self.tokens) - 1)][2]
        line = self.text.count("\n", 0, max(pos - 1, 0)) + 1
        col = max(pos - 1, 0) - self.text.rfind("\n", 0, max(pos - 1, 0))
        raise PolyParseError(message, line, col)

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.peek()[0] != "end":
            self._err(f"unexpected token {self.peek()[1]!r}")
        return p

    def expr(self) -> Polynomial:
        sign = 1
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            if self.take()[1] == "-":
                sign = -sign
        acc = self.term().scale(sign)
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.take()[1]
            t = self.term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def term(self) -> Polynomial:
        acc = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] == "*":
            self.take()
            acc = acc * self.factor()
        return acc

    def factor(self) -> Polynomial:
        base = self.atom()
        if self.peek()[0] == "op" and self.peek()[1] == "^":
            self.take()
            kind, value, _ = self.take()
            if kind != "int":
                self._err("exponent must be a nonnegative integer")
            return base ** int(value)
        return base

    def atom(self) -> Polynomial:
        kind, value, _ = self.take()
        if kind == "int":
            # p/q rational literal
            if self.peek()[0] == "op" and self.peek()[1] == "/":
                self.take()
                k2, v2, _ = self.take()
                if k2 != "int":
                    self._err("expected denominator after '/'")
                if not int(v2):
                    self.i -= 1
                    self._err("zero denominator")
                return Polynomial.constant(self.variables, QQ(int(value), int(v2)))
            return Polynomial.constant(self.variables, int(value))
        if kind == "name":
            if value not in self.variables:
                self.i -= 1
                self._err(f"unknown variable {value!r} for chart {list(self.variables)}")
            return Polynomial.variable(self.variables, value)
        if kind == "op" and value == "(":
            p = self.expr()
            k2, v2, _ = self.take()
            if (k2, v2) != ("op", ")"):
                self._err("expected ')'")
            return p
        if kind == "op" and value == "-":
            return -self.factor()
        self.i -= 1
        self._err(f"unexpected token {value!r}" if value else "unexpected end of input")


def _parse(variables: Chart, text: str) -> Polynomial:
    return _Parser(variables, text).parse()


def parse_polynomial(variables: Sequence[str], text: str) -> Polynomial:
    """Parse ``text`` over the given chart; grammar: ``+ - * ^``, integers,
    ``p/q`` rationals, variable names, parentheses."""
    return _parse(tuple(variables), text)


def divides_exactly(num: Polynomial, den: Polynomial) -> Polynomial | None:
    """Return ``num / den`` when the division is exact, else ``None``."""
    _check_chart(num, den)
    if den.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero:
        return Polynomial.zero(num.variables)
    q: dict = {}
    rem = dict(num.terms)
    le, lc = den.leading()
    while rem:
        e = max(rem, key=degrevlex_key)
        diff = tuple(x - y for x, y in zip(e, le))
        if any(d < 0 for d in diff):
            return None
        c = qq_div(rem[e], lc)
        q[diff] = c
        rem = termops.t_axpy(rem, -c, diff, den.terms)
    return Polynomial._raw(num.variables, q)


def _normalize_primitive(p: Polynomial) -> Polynomial:
    """Divide by rational content; make integer coefficients coprime and the
    degrevlex-leading coefficient positive."""
    if p.is_zero:
        return p
    from math import gcd, lcm

    nums = [abs(int(c.numerator)) for c in p.terms.values()]
    dens = [int(c.denominator) for c in p.terms.values()]
    g = 0
    for v in nums:
        g = gcd(g, v)
    m = 1
    for v in dens:
        m = lcm(m, v)
    factor = QQ(m, g)
    _, lead = p.leading()
    if lead < 0:
        factor = -factor
    return p.scale(factor)
