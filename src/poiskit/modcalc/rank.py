"""Pointwise and generic rank of polynomial matrices, with minor ideals."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from .._kernel import to_qq
from ..polyalg.polynomial import Polynomial
from .linalg import rank

_PROBE_SEEDS = ((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37),
                (1, -2, 3, -5, 7, -11, 13, -17, 19, -23, 29, -31),
                (-3, 5, -7, 2, -11, 17, -1, 13, -19, 23, -2, 3))


def _det(rows: list[list]):
    """Determinant by cofactor expansion along the sparsest row, over any
    commutative ring whose zero is falsy (polynomials, rationals); fine for
    the small matrices that occur here."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty determinant")
    if n == 1:
        return rows[0][0]
    best = min(range(n), key=lambda i: sum(1 for p in rows[i] if p))
    out = None
    for j, p in enumerate(rows[best]):
        if not p:
            continue
        sub = [[rows[i][k] for k in range(n) if k != j] for i in range(n) if i != best]
        term = p * _det(sub)
        if (best + j) % 2:
            term = -term
        out = term if out is None else out + term
    return rows[best][0] if out is None else out     # a zero row: its entry is 0


@dataclass
class RankProfile:
    """Generic rank over the fraction field plus rank stratification data."""

    rows: list[list[Polynomial]]
    variables: tuple[str, ...]
    generic_rank: int
    _minor_cache: dict = field(default_factory=dict)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0]) if self.rows else 0

    def minor_ideal(self, s: int) -> list[Polynomial]:
        """Generators (all s-minors) of the s-th determinantal ideal."""
        if s <= 0:
            return [Polynomial.one(self.variables)]
        n, m = self.shape
        if s > min(n, m):
            return []
        if s not in self._minor_cache:
            minors = []
            for ri in combinations(range(n), s):
                for ci in combinations(range(m), s):
                    d = _det([[self.rows[i][j] for j in ci] for i in ri])
                    if not d.is_zero:
                        minors.append(d)
            self._minor_cache[s] = minors
        return self._minor_cache[s]

    def drop_ideal(self) -> list[Polynomial]:
        """Ideal whose real zero set is exactly where the rank drops below
        the generic rank."""
        return self.minor_ideal(self.generic_rank)

    def rank_at(self, point: Sequence) -> int:
        """Rank at a point with exact coordinates; a float coordinate (numpy
        floats included) raises ``TypeError``, whatever its value."""
        point = [to_qq(x) for x in point]
        n, m = self.shape
        if m == 0 or n == 0:
            return 0
        return rank([[p.eval(point) for p in row] for row in self.rows])


def rank_profile(matrix_rows: Sequence[Sequence[Polynomial]],
                 variables: Sequence[str] | None = None) -> RankProfile:
    """Generic rank of a polynomial matrix, certified by minors.

    Probe points give a lower bound ``r``; then some ``r``-minor is nonzero
    and every ``(r+1)``-minor vanishes identically. A caller that has
    proved the rank builds ``RankProfile(rows, variables, r)`` directly
    (``germinal_isotropy`` does, at ``n - 2k``)."""
    rows = [list(r) for r in matrix_rows]
    if not rows or not rows[0]:
        return RankProfile(rows, tuple(variables or ()), 0)
    variables = tuple(variables) if variables is not None else rows[0][0].variables
    profile = RankProfile(rows, variables, 0)
    n, m = profile.shape

    nvars = len(variables)
    r = 0
    for probe in _PROBE_SEEDS:
        pt = [probe[i % len(probe)] for i in range(nvars)]
        r = max(r, rank([[p.eval(pt) for p in row] for row in rows]))
    while r < min(n, m) and profile.minor_ideal(r + 1):
        r += 1
    if r > 0 and not profile.minor_ideal(r):
        raise AssertionError("probe rank exceeded symbolic rank")
    profile.generic_rank = r
    return profile
