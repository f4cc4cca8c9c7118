"""Buchberger engine for submodules of a free module over Q[x1..xn].

Elements are dicts mapping flat term keys to rational coefficients. The term
``x^e`` in position ``pos`` has the key

    (-pos, deg e, -e[n-1], ..., -e[0])

and built-in tuple comparison on these keys is the module order:
position-over-term (position 0 dominant) with degrevlex on the monomial
part. So the leading term of ``v`` is ``max(v)``, with no per-term key
function to call in the hot loop of reduction. The same layout makes the
rest of the term arithmetic cheap too:

* a monomial shift ``x^s`` is the key ``(0, deg s, -s[n-1], ..., -s[0])``,
  and multiplying by it adds keys componentwise, so reduction and S-pairs
  are ``termops.t_axpy``;
* ``x^a`` divides ``x^b`` iff ``a[i] >= b[i]`` on ``key[2:]`` (the parts
  are negated);
* an lcm is the componentwise ``min`` of the negated parts, with degree
  ``-sum(...)`` of the result.

Polynomials become keyed vectors, and keyed vectors polynomials, only in
``vec_from_polys`` and ``polys_from_vec`` (through ``term_key`` and
``split_key``). For an ideal use rank 1.

A caller that needs the reduced basis alone gets it from
:func:`groebner_vectors`: one ``buchberger`` run on the bare generator
vectors. The unit tags of :class:`ModuleEngine` serve membership
certificates and syzygies only. There the generators are augmented,
``c_i  ->  c_i (+) e_i``, and a Groebner basis of the augmented module is
computed under the same position-over-term order (actual positions dominate
tags, so this is an elimination order).  Then

* augmented basis elements with zero actual part are syzygies,
* the actual parts of the others form a reduced basis of the module, the
  one :func:`groebner_vectors` gives (the reduced basis is unique for the
  order; both list it by decreasing leading term, with each element's terms
  in decreasing order),
* the normal form of ``v (+) 0`` is ``r (+) -q`` with ``v = sum q_i c_i + r``.

When ``r = 0`` the engine recombines ``sum q_i c_i`` in key space against
the generator vectors it kept from construction and raises
``AssertionError`` unless it equals ``v``.
"""

from __future__ import annotations

from operator import neg
from typing import Iterable, Sequence

from .._kernel import qq_div, termops
from ..polyalg.polynomial import Polynomial

VecDict = dict


def term_key(pos: int, expo: tuple[int, ...]) -> tuple[int, ...]:
    """Flat key of ``x^expo`` in position ``pos`` (see module docstring)."""
    return (-pos, sum(expo), *map(neg, reversed(expo)))


def split_key(key: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """``(pos, expo)`` of a flat key; the inverse of :func:`term_key`."""
    return -key[0], tuple(map(neg, reversed(key[2:])))


def vec_from_polys(polys: Sequence[Polynomial]) -> VecDict:
    out: VecDict = {}
    for pos, p in enumerate(polys):
        for e, c in p.terms.items():
            out[term_key(pos, e)] = c
    return out


def polys_from_vec(v: VecDict, rank: int, variables, first: int = 0) -> list[Polynomial]:
    """The ``rank`` polynomials in positions ``first .. first + rank - 1``."""
    comps: list[dict] = [{} for _ in range(rank)]
    for key, c in v.items():
        pos, e = split_key(key)
        comps[pos - first][e] = c
    return [Polynomial(variables, t) for t in comps]


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Whether the monomial of key ``a`` divides that of key ``b``."""
    return a[1] <= b[1] and all(x >= y for x, y in zip(a[2:], b[2:]))


def _normal_form(v: VecDict, basis: list[VecDict], leads: list[tuple]) -> VecDict:
    """Fully reduced normal form of v against the basis."""
    work = dict(v)
    result: VecDict = {}
    while work:
        key = max(work)
        coeff = work[key]
        pos = key[0]
        for g, lead in zip(basis, leads):
            if lead[0] == pos and _divides(lead, key):
                shift = tuple(x - y for x, y in zip(key, lead))
                work = termops.t_axpy(work, qq_div(-coeff, g[lead]), shift, g)
                break
        else:
            result[key] = coeff
            del work[key]
    return result


def _lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    parts = tuple(map(min, a[2:], b[2:]))
    return (a[0], -sum(parts), *parts)


def _spair(g: VecDict, h: VecDict, lg: tuple, lh: tuple) -> VecDict:
    lcm = _lcm(lg, lh)
    sg = tuple(x - y for x, y in zip(lcm, lg))
    sh = tuple(x - y for x, y in zip(lcm, lh))
    s = termops.t_axpy({}, qq_div(1, g[lg]), sg, g)
    return termops.t_axpy(s, qq_div(-1, h[lh]), sh, h)


def _sugar(v: VecDict) -> int:
    return max(k[1] for k in v)


def buchberger(generators: Iterable[VecDict]) -> list[VecDict]:
    """Reduced Groebner basis, monic, sorted by decreasing leading term,
    with each element's terms stored in decreasing order.

    Pair selection follows the sugar strategy; no coprimality shortcut is
    used (it is not sound for modules in general).
    """
    basis: list[VecDict] = []
    sugars: list[int] = []
    for g in generators:
        if g:
            basis.append(dict(g))
            sugars.append(_sugar(g))
    leads = [max(g) for g in basis]

    pairs: list[tuple[int, int, int, int]] = []

    def push_pairs(j: int) -> None:
        lj = leads[j]
        for i in range(j):
            li = leads[i]
            if li[0] != lj[0]:
                continue
            deg = _lcm(li, lj)[1]
            sugar = max(sugars[i] + deg - li[1], sugars[j] + deg - lj[1])
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
            leads.append(max(r))
            push_pairs(len(basis) - 1)
    return _reduce_basis(basis, leads)


def _reduce_basis(basis: list[VecDict], leads: list[tuple]) -> list[VecDict]:
    # minimalize: drop elements whose leading term another leading term divides
    keep = []
    for i, lead in enumerate(leads):
        redundant = False
        for j, other in enumerate(leads):
            if i == j or lead[0] != other[0]:
                continue
            if _divides(other, lead) and (other != lead or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(i)
    minimal = [basis[i] for i in keep]
    minimal_leads = [leads[i] for i in keep]
    # inter-reduce tails and normalize to monic; every element's terms come
    # out in decreasing order, as _normal_form gives them
    reduced: list[VecDict] = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        other_leads = minimal_leads[:i] + minimal_leads[i + 1:]
        if others:
            r = _normal_form(g, others, other_leads)
        else:
            r = dict(sorted(g.items(), reverse=True))
        if not r:
            continue
        lc = r[max(r)]
        if lc != 1:
            r = {k: qq_div(c, lc) for k, c in r.items()}
        reduced.append(r)
    reduced.sort(key=max, reverse=True)
    return reduced


def groebner_vectors(variables: tuple[str, ...], rank: int,
                     generators: Sequence[Sequence[Polynomial]]) -> list[list[Polynomial]]:
    """Reduced Groebner basis of the submodule of ``R^rank`` the generators
    span, without tags: no certificate and no syzygy comes with it."""
    basis = buchberger(vec_from_polys(g) for g in generators)
    return [polys_from_vec(g, rank, variables) for g in basis]


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
        self._gen_vecs = [vec_from_polys(g) for g in self.generators]
        self._aug_basis = buchberger(
            {**v, term_key(rank + i, zero_e): 1} for i, v in enumerate(self._gen_vecs))
        self._aug_leads = [max(g) for g in self._aug_basis]
        self._basis: list[VecDict] = []
        self._syz: list[VecDict] = []
        for g in self._aug_basis:
            top = {k: c for k, c in g.items() if k[0] > -rank}
            if top:
                self._basis.append(top)
            else:
                self._syz.append(g)

    # -- queries ------------------------------------------------------------

    def groebner_vectors(self) -> list[list[Polynomial]]:
        return [polys_from_vec(g, self.rank, self.variables) for g in self._basis]

    def syzygy_vectors(self) -> list[list[Polynomial]]:
        return [polys_from_vec(s, len(self.generators), self.variables, self.rank)
                for s in self._syz]

    def normal_form(self, element: Sequence[Polynomial]) -> tuple[list[Polynomial], list[Polynomial]]:
        """Return ``(remainder, certificate)`` with
        ``element = sum certificate_i * generators_i + remainder``.

        A zero remainder is a membership claim, so its certificate is first
        recombined against the generators: ``AssertionError`` if that does
        not give back ``element``."""
        v = vec_from_polys(element)
        nf = _normal_form(v, self._aug_basis, self._aug_leads)
        bound = -self.rank
        rem = {k: c for k, c in nf.items() if k[0] > bound}
        tag = {k: -c for k, c in nf.items() if k[0] <= bound}
        if not rem:
            self._check_certificate(v, tag)
        return (polys_from_vec(rem, self.rank, self.variables),
                polys_from_vec(tag, len(self.generators), self.variables, self.rank))

    def _check_certificate(self, v: VecDict, tag: VecDict) -> None:
        """``sum q_j g_j == v`` for the tag part ``q`` of a normal form."""
        acc: VecDict = {}
        for key, c in tag.items():
            shift = (0, *key[1:])
            acc = termops.t_axpy(acc, c, shift, self._gen_vecs[-key[0] - self.rank])
        if acc != v:
            raise AssertionError("membership certificate failed to recombine")
