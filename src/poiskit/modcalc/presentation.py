"""Finitely generated submodules of R^m and the operations on them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..polyalg.polynomial import ChartMismatchError, Polynomial
from .engine import ModuleEngine
from .verdict import Verdict

SATURATION_CAP = 50


class SubmodulePresentation:
    """A submodule of ``R^rank`` over ``Q[variables]`` given by generators.

    Immutable; the Groebner engine is built once on first use and reused
    (recomputation would be idempotent, the basis is deterministic).
    Ideals are the rank-1 case.
    """

    def __init__(self, variables: Sequence[str], rank: int,
                 generators: Sequence[Sequence[Polynomial]]):
        self.variables = tuple(variables)
        self.rank = rank
        gens = (self._vector(g, "generator") for g in generators)
        self.generators = tuple(g for g in gens if any(not p.is_zero for p in g))
        self._engine: ModuleEngine | None = None

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
        """Reduced basis, unique for the module under the engine's order."""
        return [tuple(v) for v in self.engine.groebner_vectors()]

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
        """Two-sided check that the cached basis generates the same module."""
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
    gens = list(dict.fromkeys(f for f in ideal_gens if not f.is_zero))
    if not gens:
        raise ValueError("colon by the zero ideal")
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
    exponent; ``stabilized=False`` when the iteration cap is hit. Each colon
    is one syzygy computation (``colon_by_ideal``, which drops zero and
    repeated generators of the ideal).

    ``target`` is a saturated module that contains ``module``: ``f v`` in
    ``target`` with ``f != 0`` puts ``v`` in ``target``. Every
    ``module : I^k`` then lies in ``target``. So if the saturation equals
    ``target``, the first ``k`` with ``module : I^k = module : I^(k+1)`` is
    the first ``k`` with ``target`` inside ``module : I^k``; if it does not,
    ``target`` is never inside. At step ``k`` that membership is tried first.
    When it holds, the iteration stops with exponent ``k``, and ``target_in``
    holds its certificates; the colon that would only confirm it is skipped.
    Otherwise the colon and the stabilization test run as without a target.
    Exponent, module and ``stabilized`` are the same either way."""
    current = module
    for k in range(cap):
        if target is not None:
            reached = target.is_submodule_of(current)
            if reached.is_yes:
                return SaturationResult(current, k, True, reached)
        nxt = colon_by_ideal(current, ideal_gens)
        if nxt.is_submodule_of(current).is_yes:
            return SaturationResult(current, k, True)
        current = nxt
    return SaturationResult(current, cap, False)
