"""Exact linear algebra over the rationals: one fraction-free elimination.

``_echelon`` row-reduces sparse rows (dicts column -> coefficient) in Python
integers, and every exact routine reads its answer off that echelon form:

- ``sparse_nullspace``: the kernel basis as sparse exact vectors, for large
  sparse systems (the Casimir system has one column per monomial);
- ``nullspace``: the same basis as dense lists, for small dense matrices;
- ``rank``: the number of pivots;
- ``solve``: the kernel vector of ``[A | -b]`` at the right-hand-side column.

Every entry of an answer is an exact coefficient in canonical form: an
``int`` when integral, else a ``QQ``. Rationals are built only for the
nonzero entries of the kernel vectors, by ``qq_div``. The elimination peels
nothing: ``poisson.casimir_search`` strikes the columns that single-entry
rows force to 0, in numpy, and passes only the rows left, renumbered over
the columns left.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Sequence

from .._kernel import QQ, qq_div, to_qq


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


def _echelon(rows: Iterable[dict], ncols: int) -> dict[int, dict[int, int]]:
    """Fraction-free echelon form: leading column -> pivot row.

    The rows' zero entries are dropped (only a row that has one is copied),
    each row is made integer (a rational row is scaled by its common
    denominator) and reduced against the pivot at its leading column (its
    smallest column) by ``r <- a*r - b*pivot``, then divided by its content,
    until it is 0 or leads at a new pivot. A row that needs a reduction is
    copied once, before the first, and every step then updates that copy in
    place; its content is still removed after each step, so the entries stay
    small. Every pivot row is primitive. The leading columns are the pivot
    columns of the reduced echelon form. A column outside ``range(ncols)`` is
    a ``ValueError``; the caller's dicts are never modified.
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
        owned = False       # r may still be the caller's dict until copied
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = r if owned else _primitive(r)
                break
            a, b = piv[lead], r[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            if not owned:
                r, owned = r.copy(), True
            if a != 1:
                for c in r:
                    r[c] *= a
            for c, v in piv.items():
                s = r.get(c, 0) - b * v
                if s:
                    r[c] = s
                else:
                    del r[c]        # b * v != 0, so a zero sum had an entry at c
            if r:
                g = gcd(*r.values())
                if g != 1:
                    for c in r:
                        r[c] //= g
    return pivots


def _kernel(pivots: dict[int, dict[int, int]], ncols: int) -> list[dict[int, QQ]]:
    """The kernel vector of each free column, ascending: 1 at that column, 0
    at every other free column. Each is back-substituted over only the pivot
    rows that reach its free column, with one common denominator; its
    entries become exact coefficients last (``qq_div``), nonzero only,
    columns ascending."""
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
        basis.append({c: qq_div(w[c], den) for c in sorted(w)})
    return basis


def sparse_nullspace(rows: Sequence[dict], ncols: int) -> list[dict[int, QQ]]:
    """Kernel basis for a sparse row list (dicts column -> coefficient).

    One sparse vector per free column, free columns ascending: 1 at its own
    free column, 0 at the others, only its nonzero entries held (exact
    coefficients, columns ascending). This is the basis read off the reduced
    row echelon form; it and the pivot columns depend only on the row space,
    so the order of ``rows`` does not change the result. A column outside
    ``range(ncols)`` is a ``ValueError``; the caller's dicts are never
    modified.
    """
    return _kernel(_echelon(rows, ncols), ncols)


def _sparse_rows(rows: Iterable[Sequence]) -> list[dict]:
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of a dense rational matrix; ``[]`` has rank 0."""
    return len(_echelon(_sparse_rows(rows), len(rows[0]) if rows else 0))


def nullspace(rows: Sequence[Sequence], ncols: int) -> list[list[QQ]]:
    """Right kernel of a dense rational matrix with ``ncols`` columns (``rows``
    may be ``[]``): the ``sparse_nullspace`` basis as dense lists."""
    return [[v.get(c, 0) for c in range(ncols)]
            for v in _kernel(_echelon(_sparse_rows(rows), ncols), ncols)]


def solve(rows: Sequence[Sequence], rhs: Sequence) -> list[QQ] | None:
    """One solution of ``A x = b``, 0 at every free unknown, or ``None`` when
    the system is inconsistent: the right-hand-side column of ``[A | -b]``
    is then a pivot. ``rows=[]`` has the empty solution."""
    ncols = len(rows[0]) if rows else 0
    aug = _sparse_rows(rows)
    for row, b in zip(aug, rhs, strict=True):
        if b:
            row[ncols] = -b
    pivots = _echelon(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = _kernel(pivots, ncols + 1)[-1]        # the last free column is ncols
    return [x.get(c, 0) for c in range(ncols)]
