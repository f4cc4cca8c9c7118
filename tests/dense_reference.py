"""Dense ``Fraction`` Gauss-Jordan routines, the reference the exact linear
algebra of ``poiskit.modcalc.linalg`` is checked against.

They are plain textbook code over ``fractions.Fraction``: a reduced row
echelon form with pivot division, and the rank, kernel basis, particular
solution and determinant read off it. Every entry is built with ``Fraction``
directly, not with poiskit's own coercion, so a coercion or division fault in
the package cannot pass on both sides.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _copy(rows) -> list[list]:
    return [[Fraction(x) for x in row] for row in rows]


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
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    ncols = len(rows[0])
    rref, pivots = qq_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rref[r][f]
        basis.append(v)
    return basis


def qq_solve(rows: Sequence[Sequence], rhs: Sequence) -> list | None:
    """One solution of ``A x = b`` (0 at the free unknowns) or ``None`` when
    inconsistent."""
    rows = _copy(rows)
    b = [Fraction(x) for x in rhs]
    aug = [row + [bv] for row, bv in zip(rows, b)]
    rref, pivots = qq_rref(aug)
    ncols = len(rows[0]) if rows else 0
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = rref[r][-1]
    return x


def qq_det(rows: Sequence[Sequence]):
    m = _copy(rows)
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
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
