"""Pointwise and generic rank of polynomial matrices, with minor ideals.

One expansion, :func:`minor`, gives every minor, cofactor and determinant in
the package: ``RankProfile``'s minor ideals, ``determinant``, and the
cosymplectic reduction's cofactors."""

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


def minor(rows: Sequence[Sequence], ri: tuple[int, ...], ci: tuple[int, ...],
          cache: dict):
    """The minor of ``rows`` on rows ``ri`` and columns ``ci`` (increasing
    index tuples of one length), over any commutative ring whose zero is
    falsy, expanded along its last column; a zero entry or a zero
    (s-1)-minor adds no product, and the (s-1)-minor of a zero entry is
    never computed. ``cache`` maps ``(ri, ci)`` to the minor; shared by all
    minors of ``rows``, it computes each once, on first need."""
    d = cache.get((ri, ci))
    if d is not None:
        return d
    last, head = ci[-1], ci[:-1]
    if not head:
        d = rows[ri[0]][last]
    else:
        d = None
        for k, i in enumerate(ri):
            p = rows[i][last]
            if not p:
                continue
            sub = minor(rows, ri[:k] + ri[k + 1:], head, cache)
            if not sub:
                continue
            term = p * sub
            if d is None:
                d = -term if (len(head) - k) % 2 else term
            else:
                d = d - term if (len(head) - k) % 2 else d + term
        if d is None:                   # no product: the ring's zero
            d = rows[ri[0]][last] - rows[ri[0]][last]
    cache[ri, ci] = d
    return d


def determinant(rows: Sequence[Sequence]):
    """Determinant of a nonempty square matrix by :func:`minor`."""
    if not rows:
        raise ValueError("empty determinant")
    full = tuple(range(len(rows)))
    return minor(rows, full, full, {})


@dataclass
class RankProfile:
    """Generic rank over the fraction field plus rank stratification data."""

    rows: list[list[Polynomial]]
    variables: tuple[str, ...]
    generic_rank: int
    _minor_cache: dict = field(default_factory=dict)
    _ideal_cache: dict = field(default_factory=dict)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0]) if self.rows else 0

    def minor_ideal(self, s: int) -> list[Polynomial]:
        """Generators (all nonzero s-minors) of the s-th determinantal ideal,
        row sets and then column sets in ``combinations`` order. One
        :func:`minor` cache (``_minor_cache``) serves every size, so the
        ``(r+1)``-minors of ``rank_profile`` leave most ``r``-minors of
        ``drop_ideal`` computed."""
        if s <= 0:
            return [Polynomial.one(self.variables)]
        n, m = self.shape
        if s > min(n, m):
            return []
        ideal = self._ideal_cache.get(s)
        if ideal is None:
            ideal = self._ideal_cache[s] = [
                d for ri in combinations(range(n), s) for ci in combinations(range(m), s)
                if (d := minor(self.rows, ri, ci, self._minor_cache))]
        return ideal

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
