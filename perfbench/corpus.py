"""Seeded generator of benchmark inputs with their known answers.

Every chart is built from a small family whose geometry is known, then put
in seed-drawn coordinates. The known answers (k, the almost-regular outcome,
the log-type class and the number of polynomial Casimirs up to degree 4) are
derived from how the chart was built, never from poiskit, and none of them
changes under the linear changes of coordinates applied here.

The generator is independent of the program under test: it does its own
exact polynomial arithmetic on ``{exponent tuple: Fraction}`` dicts and
prints coefficients in the input syntax of ``poiskit analyze``.

Why these charts
----------------
``chart-batch`` (bivector mode, dimensions 2 to 7): the README examples
(Heisenberg, su(2), symplectic R^2), log-symplectic R^2/R^4/R^6, flat and
constant symplectic charts, quadratic and cubic coefficients, Casimir
rescalings and products. Almost all of them take the ``yes`` path, which
runs saturation, membership with certificates, ``verify_distribution``,
the witness grid of ``logf_classify`` and the Casimir solve; their Groebner
bases stay small. ``heis x logsymp4`` has 7 coordinates, so the witness grid
is skipped and its log-type verdict ends ``inconclusive`` although the
origin is a witness: it keeps one undecided answer in the batch.

Every chart gets exactly one elementary shear ``x_i -> x_i + c x_j`` and a
signed permutation, both with integer entries. Each emptiness question the
pipeline asks on these charts is then either complex-empty (a coordinate
invariant) or has the origin as a witness (fixed by linear maps), so the
decisions, and most of the cost, do not depend on the seed. Families whose
decision rests on the syntactic positivity certificate (such as ``t^2 + 1``)
are left out: a shear breaks the certificate and turns ``regular`` into a
seed-dependent ``inconclusive`` that costs 10 000 random samples.

``lie-duals`` (lie_algebra mode): duals of gl(2), so(4), se(3), aff(2),
heis5, su(2)+R^2, su(2)+R^4, so(4)+R and gl(2)+su(2), each with its basis
permuted and signs flipped by the seed. The Groebner basis of the minor
ideal inside ``variety_emptiness`` dominates; the three 7-dimensional sums
skip the grid and end ``inconclusive`` after 10 000 random samples.

Left out for cost (each can come back as its own benchmark change): gl(3)
takes 84 s per chart with the pure-Python kernel and so(5) more than 400 s;
at 22 runs per check that is over half an hour per side. Charts with one
shear per coordinate are heavy-tailed: a 6-dimensional quadratic chart took
from 0.2 s to more than 600 s, stalled in ``poly_gcd`` under
``logf_classify``.

``numeric-leaves`` is described in :mod:`perfbench.workloads`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

YES, NO = "yes", "no"
REGULAR = "regular"
LOG_SYMPLECTIC = "log-symplectic"
LOG_F = "log-f-symplectic"
NOT_LOG_F = "almost-regular (not log-f)"
NOT_AR = "not almost regular"
CASIMIR_DEGREE = 4


# -- exact polynomials on {exponent tuple: Fraction} -----------------------------


class P:
    """Minimal exact polynomial in ``n`` variables (generator side only)."""

    __slots__ = ("n", "t")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        self.t = {e: Fraction(c) for e, c in (terms or {}).items() if c}

    @staticmethod
    def var(n: int, i: int) -> "P":
        e = [0] * n
        e[i] = 1
        return P(n, {tuple(e): 1})

    @staticmethod
    def const(n: int, c) -> "P":
        return P(n, {(0,) * n: c})

    def _lift(self, other) -> "P":
        return other if isinstance(other, P) else P.const(self.n, other)

    def __add__(self, other):
        other = self._lift(other)
        out = dict(self.t)
        for e, c in other.t.items():
            out[e] = out.get(e, 0) + c
        return P(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return P(self.n, {e: -c for e, c in self.t.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        out: dict = {}
        for ea, ca in self.t.items():
            for eb, cb in other.t.items():
                e = tuple(a + b for a, b in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return P(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = P.const(self.n, 1)
        for _ in range(k):
            out = out * self
        return out

    def shift(self, offset: int, n: int) -> "P":
        """The same polynomial on a larger chart, variables moved by offset."""
        return P(n, {(0,) * offset + e + (0,) * (n - offset - self.n): c
                     for e, c in self.t.items()})

    def substitute(self, images: list["P"]) -> "P":
        """Replace variable i by images[i] (all on one chart)."""
        m = images[0].n
        out = P(m)
        for e, c in self.t.items():
            term = P.const(m, c)
            for i, k in enumerate(e):
                if k:
                    term = term * images[i] ** k
            out = out + term
        return out

    def render(self, names) -> str:
        """Input syntax: ``2*x^2*y - 1/3*t + 1``, terms in a fixed order."""
        if not self.t:
            return "0"
        parts = []
        for e in sorted(self.t, key=lambda e: (-sum(e), [-k for k in e])):
            c = self.t[e]
            mono = "*".join(names[i] + (f"^{k}" if k > 1 else "")
                            for i, k in enumerate(e) if k)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            parts.append(("-" if c < 0 else "+", body))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


# -- chart families ------------------------------------------------------------------


@dataclass
class Known:
    """Answers derived from the construction of a chart."""

    k: int
    almost_regular: str
    log_type: str
    casimir_degrees: tuple[int, ...]   # degrees of free generators of the Casimirs

    @property
    def casimir_count(self) -> int:
        """Dimension of the Casimirs of degree <= 4: monomials in the free
        generators whose weighted degree is at most 4."""
        degs = self.casimir_degrees
        return sum(1 for e in iproduct(range(CASIMIR_DEGREE + 1), repeat=len(degs))
                   if sum(a * d for a, d in zip(e, degs)) <= CASIMIR_DEGREE)


@dataclass
class BivectorChart:
    name: str
    names: tuple[str, ...]
    comps: dict                 # (i, j) with i < j -> P
    known: Known

    @property
    def n(self) -> int:
        return len(self.names)


def _chart(name, names, comps, known) -> BivectorChart:
    n = len(names)
    return BivectorChart(name, tuple(names),
                         {ij: (c if isinstance(c, P) else P.const(n, c))
                          for ij, c in comps.items()}, known)


def _vars(n):
    return [P.var(n, i) for i in range(n)]


def heis3():
    x, y, t = _vars(3)
    return _chart("heis3", "xyt", {(0, 1): t}, Known(1, YES, LOG_F, (1,)))


def su2():
    x, y, z = _vars(3)
    return _chart("su2", "xyz", {(0, 1): z, (1, 2): x, (0, 2): -y}, Known(1, NO, NOT_AR, (2,)))


def symp2():
    return _chart("symp2", "xy", {(0, 1): 1}, Known(1, YES, REGULAR, ()))


def symp4():
    return _chart("symp4", ("x1", "y1", "x2", "y2"), {(0, 1): 1, (2, 3): 1},
                  Known(2, YES, REGULAR, ()))


def flat3():
    return _chart("flat3", "xyt", {(0, 1): 1}, Known(1, YES, REGULAR, (1,)))


def logsymp(pairs: int):
    n = 2 * pairs
    names = [f"{a}{i}" for i in range(1, pairs + 1) for a in "xy"]
    comps = {(0, 1): P.var(n, 0)}
    for p in range(1, pairs):
        comps[(2 * p, 2 * p + 1)] = 1
    return _chart(f"logsymp{n}", names, comps, Known(pairs, YES, LOG_SYMPLECTIC, ()))


def quad4():
    x1, y1, x2, y2 = _vars(4)
    return _chart("quad4", ("x1", "y1", "x2", "y2"), {(0, 1): x1 ** 2 + y1 ** 2},
                  Known(1, YES, NOT_LOG_F, (1, 1)))


def heis5():
    x1, y1, x2, y2, t = _vars(5)
    return _chart("heis5", ("x1", "y1", "x2", "y2", "t"), {(0, 1): t, (2, 3): t},
                  Known(2, YES, NOT_LOG_F, (1,)))


def heis_by_t():
    # Heisenberg rescaled by its Casimir t: coefficient t^2
    x, y, t = _vars(3)
    return _chart("heis3_by_t", "xyt", {(0, 1): t ** 2}, Known(1, YES, NOT_LOG_F, (1,)))


def cubic2():
    x, y = _vars(2)
    return _chart("cubic2", "xy", {(0, 1): x ** 3}, Known(1, YES, NOT_LOG_F, ()))


def cubic3():
    # flat chart rescaled by the Casimir t^3 - t: Z = {t = 0, +-1} is cut
    # transversally and contains the origin
    x, y, t = _vars(3)
    return _chart("cubic3", "xyt", {(0, 1): t ** 3 - t}, Known(1, YES, LOG_F, (1,)))


def heis_scaled():
    # Heisenberg rescaled by the Casimir t^2 + 1: g = t^3 + t, transversal
    x, y, t = _vars(3)
    return _chart("heis3_scaled", "xyt", {(0, 1): t ** 3 + t}, Known(1, YES, LOG_F, (1,)))


def su2_scaled(shift: int):
    # su(2) rescaled by the Casimir r^2 + shift
    x, y, z = _vars(3)
    f = x ** 2 + y ** 2 + z ** 2 + shift
    return _chart(f"su2_by_r2+{shift}", "xyz", {(0, 1): f * z, (1, 2): f * x, (0, 2): -f * y},
                  Known(1, NO, NOT_AR, (2,)))


def product(a: BivectorChart, b: BivectorChart, log_type: str) -> BivectorChart:
    """Direct product; the log type of a product is given by the caller
    (the content of the top power is the product of the two contents)."""
    n = a.n + b.n
    comps = {ij: c.shift(0, n) for ij, c in a.comps.items()}
    for (i, j), c in b.comps.items():
        comps[(i + a.n, j + a.n)] = c.shift(a.n, n)
    names = [f"{v}{1}" for v in a.names] + [f"{v}{2}" for v in b.names]
    ar = YES if a.known.almost_regular == YES and b.known.almost_regular == YES else NO
    known = Known(a.known.k + b.known.k, ar, log_type if ar == YES else NOT_AR,
                  a.known.casimir_degrees + b.known.casimir_degrees)
    return BivectorChart(f"{a.name}x{b.name}", tuple(names), comps, known)


def chart_batch_charts() -> list[BivectorChart]:
    """The 25 charts of ``chart-batch`` in their base coordinates."""
    return [
        heis3(), su2(), symp2(),                                  # README examples
        logsymp(1), logsymp(2), logsymp(3),                       # log-symplectic
        symp4(), flat3(),                                         # regular
        quad4(), heis5(), heis_by_t(),                            # quadratic
        cubic2(), cubic3(),                                       # cubic
        heis_scaled(), su2_scaled(1), su2_scaled(0),              # Casimir-rescaled
        product(heis3(), symp2(), LOG_F),                         # g = t
        product(su2(), symp2(), NOT_AR),
        product(heis3(), heis3(), NOT_LOG_F),                     # g = t1 t2
        product(flat3(), symp2(), REGULAR),
        product(quad4(), symp2(), NOT_LOG_F),
        product(su2(), flat3(), NOT_AR),
        product(heis3(), su2(), NOT_AR),
        product(logsymp(1), logsymp(1), NOT_LOG_F),               # g = x1 x2
        product(heis3(), logsymp(2), NOT_LOG_F),                  # 7 coordinates: undecided
    ]


# -- seeded coordinates ------------------------------------------------------------------


def _inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _signed_permutation(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [rng.choice((1, -1)) for _ in range(n)]


def coordinate_change(rng: random.Random, n: int) -> tuple[list[list[Fraction]], dict]:
    """New coordinates y = M x: one elementary shear x_i -> x_i + c x_j, then a
    signed permutation y_a = s_a x'_{p(a)}. Returns M and a description."""
    shear = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    desc: dict = {}
    if n > 1:
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        shear[i][j] = Fraction(c)
        desc["shear"] = [i, j, c]
    perm, signs = _signed_permutation(rng, n)
    m = [[signs[a] * shear[perm[a]][k] for k in range(n)] for a in range(n)]
    desc["perm"], desc["signs"] = perm, signs
    return m, desc


def transform(chart: BivectorChart, m: list[list[Fraction]]) -> dict:
    """Bivector components in the coordinates y = M x:
    ``{y_a, y_b} = sum_ij M_ai M_bj pi_ij(M^-1 y)``."""
    n = chart.n
    minv = _inverse(m)
    images = [P(n, {tuple(int(k == j) for k in range(n)): minv[i][j] for j in range(n)})
              for i in range(n)]
    pulled = {ij: c.substitute(images) for ij, c in chart.comps.items()}
    out = {}
    for a in range(n):
        for b in range(a + 1, n):
            acc = P(n)
            for (i, j), c in pulled.items():
                w = m[a][i] * m[b][j] - m[a][j] * m[b][i]
                if w:
                    acc = acc + c * w
            if acc.t:
                out[(a, b)] = acc
    return out


def bivector_document(chart: BivectorChart, seed: int) -> tuple[dict, dict]:
    """Input document for one chart in seeded coordinates, and its record."""
    rng = random.Random(f"{seed}:{chart.name}")
    m, desc = coordinate_change(rng, chart.n)
    comps = transform(chart, m)
    doc = {"coordinates": list(chart.names), "mode": "bivector",
           "bivector": [{"i": i, "j": j, "coeff": c.render(chart.names)}
                        for (i, j), c in sorted(comps.items())]}
    return doc, {"name": chart.name, "known": chart.known, "transform": desc}


# -- Lie algebras ------------------------------------------------------------------------


def _mat(size: int, entries: dict) -> list[list[Fraction]]:
    out = [[Fraction(0)] * size for _ in range(size)]
    for (i, j), v in entries.items():
        out[i][j] = Fraction(v)
    return out


def _e(size, i, j):
    return _mat(size, {(i, j): 1})


def _rot(size, i, j):
    return _mat(size, {(i, j): 1, (j, i): -1})


def _block_sum(*blocks: list[list[list[Fraction]]]) -> list[list[list[Fraction]]]:
    """Basis of a direct sum of matrix algebras, as block-diagonal matrices."""
    size = sum(len(b[0]) for b in blocks)
    out, offset = [], 0
    for basis in blocks:
        s = len(basis[0])
        for m in basis:
            big = [[Fraction(0)] * size for _ in range(size)]
            for i in range(s):
                for j in range(s):
                    big[offset + i][offset + j] = m[i][j]
            out.append(big)
        offset += s
    return out


def structure_constants(basis: list[list[list[Fraction]]]) -> list[list[list[Fraction]]]:
    """c[i][j][k] with [B_i, B_j] = sum_k c[i][j][k] B_k, solved exactly."""
    n, size = len(basis), len(basis[0])
    flat = [[b[r][s] for b in basis] for r in range(size) for s in range(size)]
    # left inverse of the flattened basis by elimination on its normal equations
    gram = [[sum(flat[r][i] * flat[r][j] for r in range(len(flat))) for j in range(n)]
            for i in range(n)]
    ginv = _inverse(gram)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            a, b = basis[i], basis[j]
            comm = [[sum(a[r][t] * b[t][s] - b[r][t] * a[t][s] for t in range(size))
                     for s in range(size)] for r in range(size)]
            vec = [comm[r][s] for r in range(size) for s in range(size)]
            rhs = [sum(flat[r][k] * vec[r] for r in range(len(flat))) for k in range(n)]
            coords = [sum(ginv[k][l] * rhs[l] for l in range(n)) for k in range(n)]
            back = [sum(flat[r][k] * coords[k] for k in range(n)) for r in range(len(flat))]
            if back != vec:
                raise AssertionError("basis is not closed under the bracket")
            c[i][j] = coords
    return c


def _gl2():
    return [_e(2, i, j) for i in range(2) for j in range(2)]


def _so(n):
    return [_rot(n, i, j) for i in range(n) for j in range(i + 1, n)]


def _se3():
    rotations = [_rot(4, i, j) for i in range(3) for j in range(i + 1, 3)]
    return rotations + [_e(4, i, 3) for i in range(3)]


def _aff2():
    return [_e(3, i, j) for i in range(2) for j in range(2)] + [_e(3, i, 2) for i in range(2)]


def _heis5():
    return [_e(4, 0, 1), _e(4, 1, 3), _e(4, 0, 2), _e(4, 2, 3), _e(4, 0, 3)]


def _line():
    return [_e(1, 0, 0)]


@dataclass
class LieDual:
    name: str
    basis: list
    known: Known


def lie_duals() -> list[LieDual]:
    """The nine duals of ``lie-duals``. Known answers: k = (n - index)/2;
    almost regular iff the center is as large as the index (the drop ideal
    is homogeneous, so it is empty iff the origin is not in it); Casimirs are
    the invariant polynomials, free on generators of the listed degrees."""
    su2 = _so(3)
    return [
        LieDual("gl2", _gl2(), Known(1, NO, NOT_AR, (1, 2))),
        LieDual("so4", _so(4), Known(2, NO, NOT_AR, (2, 2))),
        LieDual("se3", _se3(), Known(2, NO, NOT_AR, (2, 2))),
        # Frobenius: zero kernel module, g is the cubic Pfaffian, singular at 0
        LieDual("aff2", _aff2(), Known(3, YES, NOT_LOG_F, ())),
        # kernel spanned by dz everywhere; g = z^2
        LieDual("heis5", _heis5(), Known(2, YES, NOT_LOG_F, (1,))),
        LieDual("su2+R2", _block_sum(su2, _line(), _line()), Known(1, NO, NOT_AR, (2, 1, 1))),
        LieDual("su2+R4", _block_sum(su2, *[_line()] * 4), Known(1, NO, NOT_AR, (2, 1, 1, 1, 1))),
        LieDual("so4+R", _block_sum(_so(4), _line()), Known(2, NO, NOT_AR, (2, 2, 1))),
        LieDual("gl2+su2", _block_sum(_gl2(), su2), Known(2, NO, NOT_AR, (1, 2, 2))),
    ]


def lie_document(dual: LieDual, seed: int, name: str, c) -> tuple[dict, dict]:
    """Sparse structure constants ``c`` of ``dual`` in a seed-permuted,
    sign-flipped basis: ``e'_a = s_a e_{p(a)}`` gives
    ``c'[a][b][k] = s_a s_b s_k c[p a][p b][p k]``."""
    n = len(c)
    rng = random.Random(f"{seed}:{name}")
    perm, signs = _signed_permutation(rng, n)
    entries = []
    for a in range(n):
        for b in range(a + 1, n):
            for k in range(n):
                v = signs[a] * signs[b] * signs[k] * c[perm[a]][perm[b]][perm[k]]
                if v:
                    entries.append({"i": a, "j": b, "k": k, "c": str(v)})
    doc = {"coordinates": [f"x{i + 1}" for i in range(n)], "mode": "lie_algebra",
           "structure_constants": entries}
    return doc, {"name": name, "known": dual.known,
                 "transform": {"perm": perm, "signs": signs}}
