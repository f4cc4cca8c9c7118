"""Buchberger engine for submodules of a free module over Q[x1..xn].

Elements are dicts mapping ``(position, exponent tuple)`` to rational
coefficients. The module order is position-over-term (position 0 dominant)
with degrevlex on the monomial part; for an ideal use rank 1.

Syzygies and membership certificates both come from one construction: the
generators are augmented with unit tags, ``c_i  ->  c_i (+) e_i``, and a
Groebner basis of the augmented module is computed under the same
position-over-term order (actual positions dominate tags, so this is an
elimination order).  Then

* augmented basis elements with zero actual part are syzygies,
* the actual parts of the others form a reduced basis of the module,
* the normal form of ``v (+) 0`` is ``r (+) -q`` with ``v = sum q_i c_i + r``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .._kernel import QQ, termops
from ..polyalg.polynomial import Polynomial, degrevlex_key

VecDict = dict


def pot_key(key: tuple[int, tuple[int, ...]]):
    pos, expo = key
    return (-pos, degrevlex_key(expo))


def leading_key(v: VecDict) -> tuple[int, tuple[int, ...]]:
    return max(v, key=pot_key)


def vec_from_polys(polys: Sequence[Polynomial]) -> VecDict:
    out: VecDict = {}
    for pos, p in enumerate(polys):
        for e, c in p.terms.items():
            out[(pos, e)] = c
    return out


def polys_from_vec(v: VecDict, rank: int, variables) -> list[Polynomial]:
    comps: list[dict] = [{} for _ in range(rank)]
    for (pos, e), c in v.items():
        comps[pos][e] = c
    return [Polynomial(variables, t) for t in comps]


def _mono_mul(v: VecDict, c, e: tuple[int, ...]) -> VecDict:
    return termops.v_axpy({}, c, e, v)


def _divides(ea: tuple[int, ...], eb: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(ea, eb))


def _normal_form(v: VecDict, basis: list[VecDict], leads: list[tuple]) -> VecDict:
    """Fully reduced normal form of v against the basis."""
    work = dict(v)
    result: VecDict = {}
    while work:
        key = leading_key(work)
        pos, expo = key
        coeff = work[key]
        for g, (lpos, lexpo) in zip(basis, leads):
            if lpos == pos and _divides(lexpo, expo):
                shift = tuple(x - y for x, y in zip(expo, lexpo))
                lc = g[(lpos, lexpo)]
                work = termops.v_axpy(work, -coeff / lc, shift, g)
                break
        else:
            result[key] = coeff
            del work[key]
    return result


def _spair(g: VecDict, h: VecDict, lg: tuple, lh: tuple) -> VecDict:
    (_, eg), (_, eh) = lg, lh
    lcm = tuple(max(a, b) for a, b in zip(eg, eh))
    sg = tuple(a - b for a, b in zip(lcm, eg))
    sh = tuple(a - b for a, b in zip(lcm, eh))
    s = _mono_mul(g, 1 / g[lg], sg)
    return termops.v_axpy(s, -1 / h[lh], sh, h)


def _sugar(v: VecDict) -> int:
    return max(sum(e) for (_, e) in v)


def buchberger(generators: Iterable[VecDict]) -> list[VecDict]:
    """Reduced Groebner basis, monic, sorted by decreasing leading term.

    Pair selection follows the sugar strategy; no coprimality shortcut is
    used (it is not sound for modules in general).
    """
    basis: list[VecDict] = []
    sugars: list[int] = []
    for g in generators:
        if g:
            basis.append(dict(g))
            sugars.append(_sugar(g))
    leads = [leading_key(g) for g in basis]

    pairs: list[tuple[int, int, int, int]] = []

    def push_pairs(j: int) -> None:
        for i in range(j):
            if leads[i][0] != leads[j][0]:
                continue
            ei, ej = leads[i][1], leads[j][1]
            lcm = tuple(max(a, b) for a, b in zip(ei, ej))
            deg = sum(lcm)
            sugar = max(sugars[i] + deg - sum(ei), sugars[j] + deg - sum(ej))
            pairs.append((sugar, deg, i, j))

    for j in range(len(basis)):
        push_pairs(j)

    while pairs:
        pairs.sort()
        sugar, _deg, i, j = pairs.pop(0)
        s = _spair(basis[i], basis[j], leads[i], leads[j])
        r = _normal_form(s, basis, leads)
        if r:
            basis.append(r)
            sugars.append(max(sugar, _sugar(r)))
            leads.append(leading_key(r))
            push_pairs(len(basis) - 1)
    return _reduce_basis(basis, leads)


def _reduce_basis(basis: list[VecDict], leads: list[tuple]) -> list[VecDict]:
    # minimalize: drop elements whose leading term another leading term divides
    keep = []
    for i, (pos, expo) in enumerate(leads):
        redundant = False
        for j, (pos2, expo2) in enumerate(leads):
            if i == j or pos != pos2:
                continue
            if _divides(expo2, expo) and (expo2 != expo or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(i)
    minimal = [basis[i] for i in keep]
    minimal_leads = [leads[i] for i in keep]
    # inter-reduce tails and normalize to monic
    reduced: list[VecDict] = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        other_leads = minimal_leads[:i] + minimal_leads[i + 1:]
        r = _normal_form(g, others, other_leads) if others else dict(g)
        if not r:
            continue
        lead = leading_key(r)
        lc = r[lead]
        if lc != 1:
            r = {k: c / lc for k, c in r.items()}
        reduced.append(r)
    reduced.sort(key=lambda g: pot_key(leading_key(g)), reverse=True)
    return reduced


class ModuleEngine:
    """Augmented Groebner data for one generator list (see module docstring)."""

    def __init__(self, variables: tuple[str, ...], rank: int,
                 generators: Sequence[Sequence[Polynomial]]):
        self.variables = variables
        self.rank = rank
        self.generators = [tuple(g) for g in generators]
        for g in self.generators:
            if len(g) != rank:
                raise ValueError(f"generator of length {len(g)} in a rank-{rank} module")
        zero_e = (0,) * len(variables)
        augmented = []
        for i, g in enumerate(self.generators):
            v = vec_from_polys(g)
            v[(rank + i, zero_e)] = QQ(1)
            augmented.append(v)
        self._aug_basis = buchberger(augmented)
        self._aug_leads = [leading_key(g) for g in self._aug_basis]
        self._basis: list[VecDict] = []
        self._syz: list[VecDict] = []
        for g in self._aug_basis:
            top = {k: c for k, c in g.items() if k[0] < rank}
            if top:
                self._basis.append(top)
            else:
                self._syz.append({(pos - rank, e): c for (pos, e), c in g.items()})

    # -- queries ------------------------------------------------------------

    def groebner_vectors(self) -> list[list[Polynomial]]:
        return [polys_from_vec(g, self.rank, self.variables) for g in self._basis]

    def syzygy_vectors(self) -> list[list[Polynomial]]:
        return [polys_from_vec(s, len(self.generators), self.variables) for s in self._syz]

    def normal_form(self, element: Sequence[Polynomial]) -> tuple[list[Polynomial], list[Polynomial]]:
        """Return ``(remainder, certificate)`` with
        ``element = sum certificate_i * generators_i + remainder``."""
        v = vec_from_polys(element)
        nf = _normal_form(v, self._aug_basis, self._aug_leads)
        rem = {k: c for k, c in nf.items() if k[0] < self.rank}
        tag = {(pos - self.rank, e): -c for (pos, e), c in nf.items() if pos >= self.rank}
        return (polys_from_vec(rem, self.rank, self.variables),
                polys_from_vec(tag, len(self.generators), self.variables))
