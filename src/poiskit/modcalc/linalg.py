"""Exact linear algebra over the rationals.

The ``qq_*`` routines work on small dense matrices of rationals.
``sparse_nullspace`` solves large sparse systems (the Casimir system has one
column per monomial). It eliminates in Python integers and builds rationals
only for the nonzero entries of the sparse kernel vectors it returns. It
peels nothing: ``poisson.casimir_search`` strikes the columns that
single-entry rows force to 0, in numpy, before it calls.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Sequence

from .._kernel import QQ, to_qq


def _copy(rows) -> list[list]:
    return [[to_qq(x) for x in row] for row in rows]


def qq_rref(rows: Sequence[Sequence]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form and pivot columns."""
    m = _copy(rows)
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def qq_rank(rows: Sequence[Sequence]) -> int:
    return len(qq_rref(rows)[1])


def qq_nullspace(rows: Sequence[Sequence], ncols: int | None = None) -> list[list]:
    """Basis of the right kernel; ``ncols`` is needed for zero-row matrices."""
    rows = list(rows)
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return [[QQ(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    ncols = len(rows[0])
    rref, pivots = qq_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [QQ(0)] * ncols
        v[f] = QQ(1)
        for r, c in enumerate(pivots):
            v[c] = -rref[r][f]
        basis.append(v)
    return basis


def qq_solve(rows: Sequence[Sequence], rhs: Sequence) -> list | None:
    """One solution of ``A x = b`` or ``None`` when inconsistent."""
    rows = _copy(rows)
    b = [to_qq(x) for x in rhs]
    aug = [row + [bv] for row, bv in zip(rows, b)]
    rref, pivots = qq_rref(aug)
    ncols = len(rows[0]) if rows else 0
    if ncols in pivots:
        return None
    x = [QQ(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = rref[r][-1]
    return x


def qq_det(rows: Sequence[Sequence]):
    m = _copy(rows)
    n = len(m)
    det = QQ(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return QQ(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def span_equal(a: Sequence[Sequence], b: Sequence[Sequence], ncols: int) -> bool:
    """Do two row families span the same subspace of Q^ncols?"""
    ra = qq_rank(a) if a else 0
    rb = qq_rank(b) if b else 0
    rab = qq_rank(list(a) + list(b)) if (a or b) else 0
    return ra == rb == rab


def _integer_row(row: dict) -> dict[int, int]:
    """``row`` (nonzero entries only) as integers: a row with a rational
    entry is scaled by the lcm of its denominators, which keeps its kernel.
    A row of ``int`` entries is returned as is, not copied."""
    if {*map(type, row.values())} <= {int}:
        return row
    r = {c: to_qq(v) for c, v in row.items()}
    den = lcm(*(int(v.denominator) for v in r.values()))
    return {c: int(v.numerator) * (den // int(v.denominator)) for c, v in r.items()}


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


def sparse_nullspace(rows: Sequence[dict], ncols: int) -> list[dict[int, QQ]]:
    """Kernel basis for a sparse row list (dicts column -> coefficient).

    Returns the basis ``qq_nullspace`` returns, as sparse vectors: one dict
    per free column, free columns ascending, each holding its nonzero
    entries only (``QQ``, columns ascending), 1 at its own free column. That
    basis and the pivot columns (the leading columns of the reduced echelon
    form) depend only on the row space, so the order of ``rows`` does not
    change the result. A column outside ``range(ncols)`` is a
    ``ValueError``; the caller's dicts are never modified.

    The rows' zero entries are dropped (only a row that has one is copied),
    each row is made integer (a rational row is scaled by its common
    denominator) and the rows are eliminated, fraction-free: every row is
    kept as primitive integers (leading column = its smallest column) and
    reduced against a pivot by ``r <- a*r - b*pivot``, then divided by its
    content. Each kernel vector is then back-substituted over only the
    pivot rows that reach its free column, with one common denominator; its
    entries become ``QQ`` last. Nothing is peeled here: the one caller,
    ``poisson.casimir_search``, strikes the columns that single-entry rows
    force to 0 before it calls, and passes each as a ``{column: 1}`` row,
    which becomes a pivot with no arithmetic.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        if not row:
            continue
        if min(row) < 0 or max(row) >= ncols:
            raise ValueError(f"a column lies outside range({ncols})")
        if not all(row.values()):
            row = {c: v for c, v in row.items() if v}
        r = _integer_row(row)
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = _primitive(r)
                break
            a, b = piv[lead], r[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            # r may still be the caller's dict: reduce a copy
            r = {c: a * v for c, v in r.items()} if a != 1 else r.copy()
            for c, v in piv.items():
                s = r.get(c, 0) - b * v
                if s:
                    r[c] = s
                else:
                    r.pop(c, None)
            if r:
                r = _primitive(r)
    # users[c]: leading columns of the pivot rows with an entry in column c
    users: dict[int, list[int]] = {}
    for lead, piv in pivots.items():
        for c in piv:
            if c != lead:
                users.setdefault(c, []).append(lead)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        reached, stack = set(), [f]
        while stack:
            for lead in users.get(stack.pop(), ()):
                if lead not in reached:
                    reached.add(lead)
                    stack.append(lead)
        # the vector is w / den; a pivot row's other columns all lie to the
        # right of its lead, so descending leads see every column they need
        w, den = {f: 1}, 1
        for lead in sorted(reached, reverse=True):
            piv = pivots[lead]
            s = sum(v * w[c] for c, v in piv.items() if c in w)
            if not s:
                continue
            a = piv[lead]
            g = gcd(a, s)
            m = a // g
            if m != 1:
                w = {c: m * v for c, v in w.items()}
                den *= m
            w[lead] = -s // g
        basis.append({c: QQ(w[c], den) for c in sorted(w)})
    return basis
