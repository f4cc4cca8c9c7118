"""Finitely generated submodules of R^m and the operations on them."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Sequence

from ..polyalg.polynomial import (
    ChartMismatchError,
    Polynomial,
    _normalize_primitive,
    divides_exactly,
)
from .engine import ModuleEngine, groebner_vectors
from .rank import _PROBE_SEEDS
from .verdict import Verdict

SATURATION_CAP = 50


class SubmodulePresentation:
    """A submodule of ``R^rank`` over ``Q[variables]`` given by generators.

    Immutable. ``groebner_basis`` computes the reduced basis without tags
    on first use, unless the tagged engine is already built, and keeps it;
    ``contains`` builds the tagged engine once on first use and reuses it,
    since its certificates need the tags. Either computation is
    deterministic, and both give the same reduced basis. Ideals are the
    rank-1 case.
    """

    def __init__(self, variables: Sequence[str], rank: int,
                 generators: Sequence[Sequence[Polynomial]]):
        self.variables = tuple(variables)
        self.rank = rank
        gens = (self._vector(g, "generator") for g in generators)
        self.generators = tuple(g for g in gens if any(not p.is_zero for p in g))
        self._engine: ModuleEngine | None = None
        self._basis: list[tuple[Polynomial, ...]] | None = None

    def _vector(self, v: Sequence[Polynomial], what: str) -> tuple[Polynomial, ...]:
        """``v`` as a tuple, once it has ``rank`` entries on this chart."""
        v = tuple(v)
        if len(v) != self.rank:
            raise ValueError(f"{what} of length {len(v)} in rank-{self.rank} module")
        if any(p.variables != self.variables for p in v):
            raise ChartMismatchError(f"{what} entry on a different chart")
        return v

    # -- construction helpers -------------------------------------------------

    @classmethod
    def ideal(cls, variables: Sequence[str], polys: Sequence[Polynomial]) -> "SubmodulePresentation":
        return cls(variables, 1, [(p,) for p in polys])

    @classmethod
    def zero(cls, variables: Sequence[str], rank: int) -> "SubmodulePresentation":
        return cls(variables, rank, [])

    @classmethod
    def full(cls, variables: Sequence[str], rank: int) -> "SubmodulePresentation":
        variables = tuple(variables)
        one = Polynomial.one(variables)
        zero = Polynomial.zero(variables)
        gens = [[one if i == j else zero for j in range(rank)] for i in range(rank)]
        return cls(variables, rank, gens)

    @property
    def engine(self) -> ModuleEngine:
        if self._engine is None:
            self._engine = ModuleEngine(self.variables, self.rank, self.generators)
        return self._engine

    @property
    def is_zero_module(self) -> bool:
        return not self.generators

    # -- core queries -----------------------------------------------------------

    def groebner_basis(self) -> list[tuple[Polynomial, ...]]:
        """Reduced basis, unique for the module under the engine's order:
        read off the tagged engine when one is built, else one tag-free
        ``buchberger`` run."""
        if self._basis is None:
            vectors = (self._engine.groebner_vectors() if self._engine is not None
                       else groebner_vectors(self.variables, self.rank, self.generators))
            self._basis = [tuple(v) for v in vectors]
        return list(self._basis)

    def contains(self, element: Sequence[Polynomial]) -> Verdict:
        """Membership with an exact certificate on yes, the nonzero normal
        form as witness on no. ``ValueError`` if the element does not have
        ``rank`` entries, ``ChartMismatchError`` if one is on another chart."""
        element = self._vector(element, "element")
        rem, cert = self.engine.normal_form(element)
        if all(p.is_zero for p in rem):
            return Verdict.yes(certificate={"coefficients": cert})
        return Verdict.no(witness={"normal_form": rem})

    def is_submodule_of(self, other: "SubmodulePresentation") -> Verdict:
        """Generator-wise membership; certificates collected per generator."""
        certs = []
        for g in self.generators:
            v = other.contains(g)
            if not v.is_yes:
                return Verdict.no(witness={"generator": list(g), "normal_form": v.witness})
            certs.append(v.certificate)
        return Verdict.yes(certificate={"memberships": certs})

    def equals_module(self, other: "SubmodulePresentation") -> Verdict:
        """Two-sided membership."""
        fwd = self.is_submodule_of(other)
        if not fwd.is_yes:
            return Verdict.no(witness={"direction": "left-in-right", **fwd.witness})
        bwd = other.is_submodule_of(self)
        if not bwd.is_yes:
            return Verdict.no(witness={"direction": "right-in-left", **bwd.witness})
        return Verdict.yes(certificate={"forward": fwd.certificate, "backward": bwd.certificate})

    def verify_basis(self) -> bool:
        """Two-sided check that the cached basis generates the same module.

        The tagged engine is built first: the backward membership needs it,
        and the basis is then read off it, not computed a second time."""
        self.engine         # built here, so the basis below is read off it
        basis = self.groebner_basis()
        as_module = SubmodulePresentation(self.variables, self.rank, basis)
        return self.equals_module(as_module).is_yes

    def __repr__(self):
        return (f"SubmodulePresentation(rank={self.rank}, "
                f"generators={len(self.generators)}, vars={self.variables})")


# -- spec-level operations -------------------------------------------------------


def syzygies(matrix_rows: Sequence[Sequence[Polynomial]],
             variables: Sequence[str] | None = None) -> SubmodulePresentation:
    """Syzygies of the columns of an n-by-m polynomial matrix: the submodule
    of R^m of vectors s with ``matrix . s = 0``. ``ValueError`` if the
    matrix has no entry or rows of different lengths, ``ChartMismatchError``
    if an entry is on another chart than ``variables`` (by default the chart
    of the first entry)."""
    rows = [list(r) for r in matrix_rows]
    if not rows or not rows[0]:
        raise ValueError("empty matrix")
    m = len(rows[0])
    if any(len(r) != m for r in rows):
        raise ValueError(f"ragged matrix: row lengths {[len(r) for r in rows]}")
    variables = rows[0][0].variables if variables is None else tuple(variables)
    if any(p.variables != variables for r in rows for p in r):
        raise ChartMismatchError("matrix entry on a different chart")
    columns = [[rows[i][j] for i in range(len(rows))] for j in range(m)]
    engine = ModuleEngine(variables, len(rows), columns)
    return SubmodulePresentation(variables, m, engine.syzygy_vectors())


def polynomial_gcd(polys: Sequence[Polynomial]) -> Polynomial:
    """Greatest common divisor over Q of a nonempty family, with coprime
    integer coefficients and a positive degrevlex-leading coefficient. A
    family of one polynomial is returned as it is, unnormalised; a family on
    more than one chart is a ``ChartMismatchError``.

    A family of two or more is first offered to ``_coprime_by_specialisation``,
    which may prove the gcd is 1 with univariate gcds alone. Otherwise the
    gcd is folded one pair at a time. The fold ends at the first running gcd
    that is a nonzero constant, with ``1``, so a family sorted by degree that
    holds a coprime pair early costs that pair only.

    For nonzero ``a`` and ``b`` with gcd ``g`` the syzygies of the 1-by-2
    matrix ``[a, b]`` form the principal module generated by
    ``(b/g, -a/g)``, so ``g = b / s_0`` for its one generator ``s``
    (lcm(a, b) = a b / g, Cox, Little and O'Shea, ch. 4). ``AssertionError``
    unless there is exactly one generator and ``g`` divides both ``a`` and
    ``b``."""
    polys = list(polys)
    if not polys:
        raise ValueError("gcd of an empty family")
    acc = polys[0]
    if any(b.variables != acc.variables for b in polys[1:]):
        raise ChartMismatchError("gcd of polynomials on different charts")
    if len(polys) > 1 and _coprime_by_specialisation(polys):
        return Polynomial.one(acc.variables)
    for b in polys[1:]:
        if acc.is_constant() and not acc.is_zero:
            return Polynomial.one(acc.variables)
        acc = _gcd_pair(acc, b)
    return acc


def _coprime_by_specialisation(polys: Sequence[Polynomial]) -> bool:
    """``True`` only if the family's gcd is 1, proved with univariate gcds.

    Take ``m1``, a nonzero member of least total degree. For each variable
    ``x_i`` in which ``m1`` has positive degree, the other coordinates are
    fixed at the first ``_PROBE_SEEDS`` row where the leading coefficient of
    ``m1`` in ``x_i`` does not vanish, and Euclid runs over Q on the
    specialised members until their gcd is constant. A common factor ``g``
    divides ``m1``, so it has positive degree only where ``m1`` has, and its
    leading coefficient in ``x_i`` divides that of ``m1``: ``g`` keeps its
    degree in ``x_i`` under the specialisation and divides the univariate
    gcd. So if every such gcd is constant, ``g`` is constant. ``False``
    (undecided) when some univariate gcd is not constant or no probe row
    keeps the leading coefficient."""
    members = [p for p in polys if p]
    if not members:
        return False
    m1 = min(members, key=Polynomial.total_degree)
    n = len(m1.variables)
    for i in range(n):
        top = max(e[i] for e in m1.terms)
        if not top:
            continue
        for seeds in _PROBE_SEEDS:
            point = [seeds[j % len(seeds)] for j in range(n)]
            acc = _specialise(m1, i, point)
            if len(acc) == top + 1:
                break
        else:
            return False
        for p in members:
            if len(acc) == 1:
                break
            if p is not m1:
                acc = _univariate_gcd(acc, _specialise(p, i, point))
        if len(acc) > 1:
            return False
    return True


def _specialise(p: Polynomial, i: int, point: Sequence[int]) -> list[int]:
    """``p`` with every coordinate but ``x_i`` fixed at ``point``: its
    coefficients in ``x_i``, lowest degree first and trimmed, scaled to
    coprime integers (``[]`` for 0)."""
    coeffs = [0] * (1 + max(e[i] for e in p.terms))
    for e, c in p.terms.items():
        coeffs[e[i]] += c * prod(v ** k for j, (v, k) in enumerate(zip(point, e)) if j != i)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return _primitive_part(coeffs)


def _primitive_part(coeffs: list) -> list[int]:
    """Rational coefficients scaled to coprime integers, signs kept."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _univariate_gcd(a: list[int], b: list[int]) -> list[int]:
    """A gcd over Q of two integer coefficient lists (lowest degree first),
    by Euclid on primitive pseudo-remainders."""
    while b:
        r = list(a)
        while len(r) >= len(b):
            shift, lr, lb = len(r) - len(b), r[-1], b[-1]
            g = gcd(lr, lb)
            r = [c * (lb // g) for c in r]
            for k, c in enumerate(b):
                r[shift + k] -= c * (lr // g)
            while r and not r[-1]:
                r.pop()
        a, b = b, _primitive_part(r)
    return a


def _gcd_pair(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero or b.is_zero:
        return _normalize_primitive(a + b)
    syz = syzygies([[a, b]]).generators
    if len(syz) != 1:
        raise AssertionError(f"syzygies of a pair with {len(syz)} generators")
    g = divides_exactly(b, syz[0][0])
    if g is None or divides_exactly(a, g) is None:
        raise AssertionError("gcd does not divide both polynomials")
    return _normalize_primitive(g)


def _ideal_generators(ideal_gens: Sequence[Polynomial]) -> list[Polynomial]:
    """The distinct nonzero generators, in order; ``ValueError`` if there are
    none, since the colon by the zero ideal is the whole module."""
    gens = list(dict.fromkeys(f for f in ideal_gens if not f.is_zero))
    if not gens:
        raise ValueError("colon by the zero ideal")
    return gens


def colon_by_ideal(module: SubmodulePresentation,
                   ideal_gens: Sequence[Polynomial]) -> SubmodulePresentation:
    """``module : (f_1..f_k)`` = {v : f_j v in module for every j}, from one
    syzygy computation.

    Zero generators and repeated ones are dropped first, so ``k`` counts the
    distinct nonzero ``f_j``. With ``r = module.rank`` the matrix has ``r*k``
    rows in ``k`` blocks of ``r``. Its first ``r`` columns are
    ``(f_1 e_i, ..., f_k e_i)`` for ``i < r``; then come the generators of
    ``module``, a copy in each block. A syzygy ``s`` says that ``f_j v`` lies
    in ``module`` for every ``j``, with ``v = s[:r]``, and every such ``v``
    extends to a syzygy. So the first ``r`` entries of the syzygies generate
    the colon."""
    gens = _ideal_generators(ideal_gens)
    r, n = module.rank, len(module.generators)
    zero = Polynomial.zero(module.variables)
    rows = []
    for j, f in enumerate(gens):
        for i in range(r):
            row = [zero] * (r + len(gens) * n)
            row[i] = f
            row[r + j * n:r + (j + 1) * n] = [g[i] for g in module.generators]
            rows.append(row)
    syz = syzygies(rows, module.variables)
    return SubmodulePresentation(module.variables, r, [s[:r] for s in syz.generators])


@dataclass
class SaturationResult:
    module: SubmodulePresentation
    exponent: int
    stabilized: bool
    target_in: Verdict | None = None


def saturate(module: SubmodulePresentation, ideal_gens: Sequence[Polynomial],
             cap: int = SATURATION_CAP, *,
             target: SubmodulePresentation | None = None) -> SaturationResult:
    """``module : ideal^infinity`` by iterated colon, with the stabilization
    exponent: the first ``k`` with ``module : I^k = module : I^(k+1)``, and
    ``module : I^k`` as the result. ``stabilized=False`` when the iteration
    cap is hit. Each colon is one syzygy computation (``colon_by_ideal``,
    which drops zero and repeated generators of the ideal and refuses the
    zero ideal).

    ``target`` is a saturated module that contains ``module``: ``f v`` in
    ``target`` with ``f != 0`` puts ``v`` in ``target``. Every
    ``C_k = module : I^k`` then lies in ``target``. Step ``k`` first tries
    ``target ⊆ C_k``: at ``k = 0`` as membership in ``module``, and at
    ``k >= 1`` as ``I·target ⊆ C_(k-1)``, the products ``f_j a_i`` of each
    distinct nonzero ideal generator ``f_j`` and each target generator
    ``a_i`` reduced on the basis of ``C_(k-1)`` (built at ``k = 1`` by the
    test at ``k = 0``, and reused by the stabilization test). Only when that
    fails is the colon ``C_k`` computed, and its stabilization test decides
    stabilization at ``k - 1``. The test lags the colon by one step and
    changes no answer: if ``target`` lies in ``C_k`` but in no earlier
    ``C_j``, the chain cannot have stabilized before ``k``; and if the chain
    stabilized at ``k - 1`` below ``target``, ``C_k = C_(k-1)`` does not
    contain ``target``. So ``exponent`` and ``stabilized`` are those of the
    iterated colon for every ``cap``, and the membership runs at ``k < cap``
    only.

    When the target is reached at ``k``, ``target_in`` holds the
    certificates: one membership per product, in the order ``(a_0, f_0),
    (a_0, f_1), ..., (a_1, f_0), ...``, each with the cofactors of ``f_j a_i``
    over the generators of ``C_(k-1)``; at ``k = 0`` the one multiplier is
    ``1`` and the cofactors of ``a_i`` are over those of ``module``, as they
    are at ``k = 1``. The certificate names both lists: ``multipliers``, the
    ``f_j`` in product order, and ``generators``, the generators of
    ``C_(k-1)`` in cofactor order (at ``k <= 1`` those of ``module``, which
    drops zero generators). The result's ``module`` is ``target``, which
    equals ``C_k`` as a module (``C_k ⊆ target ⊆ C_k``)."""
    current = module
    for k in range(cap + 1):
        gens = _ideal_generators(ideal_gens) if k else [Polynomial.one(module.variables)]
        if target is not None and k < cap:
            products = SubmodulePresentation(
                module.variables, module.rank,
                [[f * p for p in a] for a in target.generators for f in gens])
            reached = products.is_submodule_of(current)
            if reached.is_yes:
                certificate = {**reached.certificate, "multipliers": gens,
                               "generators": list(current.generators)}
                return SaturationResult(target, k, True, Verdict.yes(certificate=certificate))
        if k:
            nxt = colon_by_ideal(current, gens)
            if nxt.is_submodule_of(current).is_yes:
                return SaturationResult(current, k - 1, True)
            current = nxt
    return SaturationResult(current, cap, False)
