"""Poisson-specific analysis on a coordinate chart.

Builds on the exact calculus of :mod:`poiskit.polyalg` and the module
machinery of :mod:`poiskit.modcalc`: Jacobi verification, rank data of the
bivector, Casimirs, the kernel module of covectors annihilated by the sharp
map, the constant-rank decision with construction of the associated
distribution, linear structures from Lie algebra data, and fiber dimensions
of foliation modules.

The kernel module is computed over polynomials while the geometric statements
are about smooth objects; this gap is a documented assumption, validated on
every built-in example, and flagged in reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import factorial, lcm
from operator import mul
from typing import NamedTuple, Sequence

import numpy as np

from ._kernel import QQ, to_qq
from .polyalg import (
    DifferentialForm,
    MultivectorField,
    Polynomial,
    exterior_derivative,
    interior_product,
    schouten_bracket,
)
from .modcalc import (
    RankProfile,
    SubmodulePresentation,
    Verdict,
    polynomial_gcd,
    rank_profile,
    saturate,
    syzygies,
    variety_emptiness,
)
from .modcalc.linalg import nullspace, rank, sparse_nullspace
from .modcalc.rank import _PROBE_SEEDS

__all__ = [
    "PoissonStructure",
    "ZeroBivectorError",
    "GerminalIsotropy",
    "DistributionPresentation",
    "FoliationModule",
    "check_jacobi",
    "koszul_bracket",
    "casimir_test",
    "casimir_search",
    "DEFAULT_CASIMIR_DEGREE",
    "germinal_isotropy",
    "almost_regular_decide",
    "verify_distribution",
    "linear_bivector",
    "lie_jacobi_defect",
    "linear_structure",
    "center_check",
    "foliation_module",
    "foliation_inclusion",
]

SMOOTHNESS_NOTE = ("kernel modules are computed over polynomials; agreement with the "
                   "smooth kernel sheaf is an assumption validated on the example suite")
DENSITY_RATIONALE = ("the zero set of a nonzero polynomial has empty interior, so the "
                     "maximal-rank locus of a nonzero polynomial bivector is dense")
# the degree bound of the Casimirs the kernel module's Casimir route reads,
# and the default of the report's Casimir list
DEFAULT_CASIMIR_DEGREE = 4


class ZeroBivectorError(ValueError):
    """Raised by operations that need a nonzero bivector."""


def check_jacobi(bivector: MultivectorField) -> Verdict:
    """Yes iff ``[pi, pi] = 0`` exactly; the witness is the first nonzero
    trivector coefficient."""
    if bivector.grade != 2:
        raise ValueError("check_jacobi needs a bivector")
    bracket = schouten_bracket(bivector, bivector)
    if bracket.is_zero:
        return Verdict.yes(certificate={"identity": "[pi,pi] = 0"})
    idx = min(bracket.components)
    return Verdict.no(witness={"indices": idx, "coefficient": bracket.components[idx]})


def _top_power(bivector: MultivectorField) -> tuple[int, MultivectorField]:
    """``(k, wedge^k pi)`` for the largest ``k`` with ``wedge^k pi != 0``,
    from ``(wedge^k pi)_I = k! Pf(pi_I)`` over the principal submatrices.

    The Pfaffians of the index sets of size ``2j + 2`` come from those of
    size ``2j`` alone, by expansion along the first index ``i_0`` of ``I``:
    ``Pf(I) = sum_m (-1)^(m+1) pi[i_0][i_m] Pf(I - {i_0, i_m})`` over the
    positions ``m >= 1``. An absent entry or a zero sub-Pfaffian adds no
    product, and only the previous level is kept. The first level whose
    Pfaffians all vanish is ``k + 1``; the zero bivector has ``k = 0`` and
    the scalar 1 as its top power."""
    variables = bivector.variables
    n = len(variables)
    pi = bivector.components
    level = {(): Polynomial.one(variables)}
    k = 0
    while 2 * (k + 1) <= n:
        nxt = {}
        for idx in combinations(range(n), 2 * k + 2):
            first = idx[0]
            pf = None
            for m in range(1, len(idx)):
                entry = pi.get((first, idx[m]))
                if entry is None:
                    continue
                sub = level.get(idx[1:m] + idx[m + 1:])
                if sub is None:
                    continue
                term = entry * sub
                if pf is None:
                    pf = term if m % 2 else -term
                else:
                    pf = pf + term if m % 2 else pf - term
            if pf:
                nxt[idx] = pf
        if not nxt:
            break
        level, k = nxt, k + 1
    scale = factorial(k)
    return k, MultivectorField(variables, 2 * k,
                               {idx: pf.scale(scale) for idx, pf in level.items()})


_CHECK = object()


class PoissonStructure:
    """A polynomial bivector on a chart with its rank data cached eagerly.

    ``k`` is the largest integer with ``wedge^k pi != 0`` and ``top`` is that
    power; the regular-locus ideal is generated by its coefficients. Both
    come from the principal Pfaffians of ``pi``'s matrix (``_top_power``),
    with no wedge product.

    ``spanning_rows`` is ``K = min(top.components)``, the first index set
    of size ``2k`` with ``(wedge^k pi)_K = k! Pf(pi_K) != 0``: ``()`` for the
    zero bivector, every index when ``2k = n``. The principal submatrix
    ``PI[K][K]`` has determinant ``Pf(pi_K)^2 != 0``, so rows ``K`` of the
    component matrix ``PI`` are independent over the fraction field, and as
    ``PI`` has rank ``2k`` they span its row space there: every other row is
    a rational-function combination of rows ``K``. So a vector ``v`` with
    ``PI[j] . v = 0`` for every ``j`` in ``K`` has ``PI v = 0``. On the dense
    set where ``Pf(pi_K) != 0`` the fields ``X_(x_j)``, ``j`` in ``K``, span
    the symplectic distribution (Weinstein, J. Differential Geom. 18, 1983).
    ``casimir_search``, ``center_check`` and the syzygy route of
    ``germinal_isotropy`` solve the equations of rows ``K`` alone.

    ``jacobi`` holds the proof of ``[pi, pi] = 0``:
    the constructor computes it with :func:`check_jacobi`,
    :func:`linear_structure` takes it from the structure constants, and
    :meth:`unchecked` leaves it ``None``. The Casimir bases of
    :meth:`casimirs` are searched on first use, once per degree.
    """

    def __init__(self, bivector: MultivectorField, *, _jacobi=_CHECK):
        if bivector.grade != 2:
            raise ValueError("a Poisson structure is a bivector")
        self.bivector = bivector
        self.variables = bivector.variables
        if _jacobi is _CHECK:
            _jacobi = check_jacobi(bivector)
            if not _jacobi.is_yes:
                raise ValueError(f"Jacobi identity fails: {_jacobi.witness}")
        self.jacobi: Verdict | None = _jacobi
        self.k, self.top = _top_power(bivector)
        self.spanning_rows: tuple[int, ...] = min(self.top.components)
        # k = 0 makes top the scalar 1, the unit ideal
        self.regular_ideal: list[Polynomial] = sorted(self.top.components.values(), key=str)
        self._casimirs: dict[int, tuple[Polynomial, ...]] = {}

    @classmethod
    def from_components(cls, variables: Sequence[str], components) -> "PoissonStructure":
        """Components ``{(i, j): coeff}`` with i < j; strings are parsed."""
        parsed = {}
        for (i, j), c in dict(components).items():
            poly = c if isinstance(c, Polynomial) else Polynomial.parse(variables, str(c))
            parsed[(i, j)] = poly
        return cls(MultivectorField.bivector(variables, parsed))

    @classmethod
    def unchecked(cls, bivector: MultivectorField) -> "PoissonStructure":
        """Skip Jacobi verification (exploratory inputs); flagged in reports."""
        return cls(bivector, _jacobi=None)

    @property
    def is_zero(self) -> bool:
        return self.bivector.is_zero

    def sharp(self, alpha: DifferentialForm) -> MultivectorField:
        return self.bivector.sharp(alpha)

    def hamiltonian_field(self, f: Polynomial) -> MultivectorField:
        return self.sharp(DifferentialForm.d_of(f))

    def pi_matrix(self) -> list[list[Polynomial]]:
        return self.bivector.component_matrix()

    def casimirs(self, max_degree: int) -> tuple[Polynomial, ...]:
        """The :func:`casimir_search` basis to ``max_degree``, searched on
        the first call for that degree.

        At full rank, ``2k = n``, nothing is searched for a degree
        ``>= 0``: the basis is ``(1,)``. ``PI`` is then invertible over the
        fraction field, so ``sharp(df) = -PI grad f = 0`` forces
        ``grad f = 0``, and over Q only the constants have zero gradient.
        ``casimir_search`` would return the same basis, the constant ``1``."""
        found = self._casimirs.get(max_degree)
        if found is None:
            if 2 * self.k == len(self.variables) and max_degree >= 0:
                found = (Polynomial.one(self.variables),)
            else:
                found = tuple(casimir_search(self, max_degree))
            self._casimirs[max_degree] = found
        return found

    def columns_module(self) -> SubmodulePresentation:
        """Module generated by the images of the coordinate differentials."""
        cols = self.bivector.columns()
        return SubmodulePresentation(self.variables, len(self.variables), cols)

    def __repr__(self):
        return f"PoissonStructure({self.bivector}, k={self.k})"


def koszul_bracket(alpha: DifferentialForm, beta: DifferentialForm,
                   structure: PoissonStructure | MultivectorField) -> DifferentialForm:
    """Cotangent-algebroid bracket
    ``[a, b] = L_{#a} b - L_{#b} a - d pi(a, b)``; satisfies
    ``[df, dg] = d{f, g}``."""
    bivector = structure.bivector if isinstance(structure, PoissonStructure) else structure
    if alpha.grade != 1 or beta.grade != 1:
        raise ValueError("koszul_bracket needs grade-1 forms")
    return _koszul(alpha, bivector.sharp(alpha), exterior_derivative(alpha),
                   beta, bivector.sharp(beta), exterior_derivative(beta))


def _koszul(alpha: DifferentialForm, xa: MultivectorField, d_alpha: DifferentialForm,
            beta: DifferentialForm, xb: MultivectorField, d_beta: DifferentialForm
            ) -> DifferentialForm:
    """:func:`koszul_bracket` from ``xa = #alpha``, ``xb = #beta`` and the
    derivatives ``d_alpha``, ``d_beta`` in hand, for a caller that brackets
    each form with several others. Each Lie derivative is the Cartan formula
    of ``lie_derivative``, ``L_X b = d(iota_X b) + iota_X db``, and
    ``pi(alpha, beta)`` is read off the ``iota_xa beta`` it already holds."""
    xa_beta = interior_product(xa, beta)      # pi(alpha, beta), as a grade-0 form
    xb_alpha = interior_product(xb, alpha)
    lie_a = exterior_derivative(xa_beta) + interior_product(xa, d_beta)
    lie_b = exterior_derivative(xb_alpha) + interior_product(xb, d_alpha)
    inner = xa_beta.components.get((), Polynomial.zero(alpha.variables))
    return lie_a - lie_b - DifferentialForm.d_of(inner)


def casimir_test(structure: PoissonStructure, f: Polynomial) -> Verdict:
    """Yes iff ``sharp(df) = 0`` identically."""
    ham = structure.hamiltonian_field(f)
    if ham.is_zero:
        return Verdict.yes(certificate={"identity": "sharp(df) = 0"})
    idx = min(ham.components)
    return Verdict.no(witness={"component": idx[0], "coefficient": ham.components[idx]})


@lru_cache(maxsize=64)
def _monomial_array(n: int, degree: int) -> np.ndarray:
    """The exponents of the monomials of degree <= ``degree`` in ``n``
    variables, as the rows of an ``(count, n)`` array in ascending
    lexicographic order: each variable in turn splits every row into the
    rows with that exponent 0, 1, ... up to what the degree leaves. Built
    once per ``(n, degree)`` and shared, so the array is read-only."""
    expos = np.zeros((1, n), dtype=np.int64)
    for k in range(n):
        reps = degree + 1 - expos.sum(axis=1)
        expos = np.repeat(expos, reps, axis=0)
        expos[:, k] = np.arange(len(expos)) - np.repeat(np.cumsum(reps) - reps, reps)
    expos.flags.writeable = False
    return expos


class _CasimirEntries(NamedTuple):
    """The Casimir system as arrays: its nonzero entries, summed, sorted by
    row and then by column. Row ``r`` holds the coefficients of
    ``x^b d/dx_j`` in ``sharp(d x^a)``, over the columns ``a``, where
    ``codes[r] = j + n * sum_k b_k * radix^k``. Entries are ``int64``, or
    Python numbers in ``dtype=object`` arrays when ``int64`` could overflow."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    codes: np.ndarray
    radix: int


def _casimir_entries(mat: list[list[Polynomial]], columns: Sequence[int],
                     monos: Sequence | np.ndarray, scale: int | None = None) -> _CasimirEntries:
    """Coefficients of the components ``j`` in ``columns`` of ``sharp(d x^a)``
    for each monomial ``x^a`` (column ``c`` for ``a = monos[c]``; ``monos``
    is a list of exponent tuples or an ``(ncols, n)`` integer array), read
    off columns ``columns`` of the component matrix:
    ``sharp(d x^a)_j = sum_i a_i x^(a - e_i) PI[i][j]``. With ``scale`` (a
    common denominator of the matrix) they are those of ``scale * PI``, in
    integers; scaling keeps the kernel.

    A term ``c x^e`` of ``PI[i][j]`` adds ``a_i * c`` at the row of
    ``(j, a - e_i + e)`` for every column with ``a_i > 0``; as row codes are
    linear in the exponent, each term's block is the columns' codes plus one
    offset. Duplicates are summed with ``np.add.reduceat`` and zeros dropped.
    ``int64`` is used when a code stays below ``n * radix^n < 2^63`` and a
    summed entry below ``max|c| * max degree * number of terms < 2^63``;
    otherwise the same code runs on ``dtype=object``."""
    n = len(mat)
    expos = np.asarray(monos, dtype=np.int64).reshape(len(monos), n)
    # row i of PI, at the columns read, as (j, exponent, coefficient) triples
    pi_rows = [[(j, e, c if scale is None else int(c * scale))
                for j in columns for e, c in mat[i][j].terms.items()]
               for i in range(n)]
    terms = [t for pi_row in pi_rows for t in pi_row]
    degree = int(expos.sum(axis=1).max(initial=0))
    radix = max(degree + max((sum(e) for _, e, _ in terms), default=0), 1)
    big = 1 << 63
    key_type = np.int64 if n * radix ** n < big else object
    val_type = (np.int64 if all(type(c) is int for *_, c in terms)
                and max((abs(c) for *_, c in terms), default=0) * degree * len(terms) < big
                else object)
    powers = [radix ** k for k in range(n)]
    mono_codes = n * (expos.astype(key_type) @ np.array(powers, dtype=key_type))
    keys, cols, vals = [], [], []
    for i, pi_row in enumerate(pi_rows):
        if not pi_row:
            continue
        at = np.flatnonzero(expos[:, i])
        offsets = [j + n * (sum(map(mul, e, powers)) - powers[i]) for j, e, _ in pi_row]
        coeffs = [c for *_, c in pi_row]
        keys.append((mono_codes[at] + np.array(offsets, dtype=key_type)[:, None]).ravel())
        vals.append((expos[at, i].astype(val_type)
                     * np.array(coeffs, dtype=val_type)[:, None]).ravel())
        cols.append(np.repeat(at[None, :], len(pi_row), axis=0).ravel())
    if not keys:
        empty = np.zeros(0, dtype=np.int64)
        return _CasimirEntries(empty, empty, empty, empty, radix)
    key, col, val = np.concatenate(keys), np.concatenate(cols), np.concatenate(vals)
    order = np.lexsort((col, key))
    key, col = key[order], col[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = (key[1:] != key[:-1]) | (col[1:] != col[:-1])
    starts = np.flatnonzero(first)
    val = np.add.reduceat(val[order], starts)
    live = val != 0
    key, col, val = key[starts][live], col[starts][live], val[live]
    new_row = np.ones(len(key), dtype=bool)
    new_row[1:] = key[1:] != key[:-1]
    return _CasimirEntries(np.cumsum(new_row) - 1, col, val, key[new_row], radix)


def _casimir_rows(mat: list[list[Polynomial]], columns: Sequence[int],
                  monos: Sequence | np.ndarray, scale: int | None = None
                  ) -> tuple[list[dict[int, object]], np.ndarray]:
    """The Casimir system (see ``_casimir_entries``) with its forced-zero
    columns peeled, as rows for ``sparse_nullspace`` over the live columns.

    A row with one live entry forces its column to 0 in every kernel vector,
    so that column is struck from every row. Each round strikes the columns
    of all such rows at once (``np.bincount`` counts the live entries per
    row), until no row has one live entry. The columns left are renumbered
    in order (``np.cumsum(~struck) - 1``), and only the rows left become
    ``{live column: value}`` dicts. Returns those rows and ``live``, the
    original column of each live column."""
    entries = _casimir_entries(mat, columns, monos, scale)
    row, col, val = entries.row, entries.col, entries.val
    struck = np.zeros(len(monos), dtype=bool)
    while True:
        single = np.bincount(row, minlength=len(entries.codes))[row] == 1
        if not single.any():
            break
        struck[col[single]] = True
        keep = ~struck[col]
        row, col, val = row[keep], col[keep], val[keep]
    cols, vals = (np.cumsum(~struck) - 1)[col].tolist(), val.tolist()
    edges = [0, *(np.flatnonzero(row[1:] != row[:-1]) + 1).tolist(), len(cols)]
    rows = [dict(zip(cols[a:b], vals[a:b])) for a, b in zip(edges, edges[1:]) if a < b]
    return rows, np.flatnonzero(~struck)


def casimir_search(structure: PoissonStructure, max_degree: int) -> list[Polynomial]:
    """Basis of the space of polynomial Casimirs of degree <= max_degree.

    ``sharp(df) = 0`` is a linear system on the coefficients of ``f``, one
    column per monomial. Only its components ``j`` in
    ``structure.spanning_rows`` (the index set ``K`` of a nonzero top
    Pfaffian, see ``PoissonStructure``) are built: ``sharp(df)_j`` is
    ``-PI[j] . grad f``, and rows ``K`` of ``PI`` span its row space over
    the fraction field, so ``sharp(df)_K = 0`` forces ``sharp(df) = 0``. The
    kernel is that of the whole system, hence so is its basis below. The
    system is built as integer arrays from columns ``K`` of the component
    matrix times the lcm of its coefficient denominators, and the columns
    that single-entry rows force to 0 are peeled there (``_casimir_rows``).
    Only the rows left are solved, fraction-free by ``sparse_nullspace``,
    over the live columns; the renumbering keeps the columns' order, so the
    kernel basis, normalised at the free columns, is the one of the whole
    system with every struck column 0. It does not depend on the order of
    the rows. Each kernel vector comes back sparse (its nonzero entries
    only) and becomes a polynomial as it is, its live columns mapped back
    to their monomials."""
    variables = structure.variables
    expos = _monomial_array(len(variables), max_degree)
    mat = structure.pi_matrix()
    columns = structure.spanning_rows
    scale = lcm(*(int(c.denominator)
                  for row in mat for j in columns for c in row[j].terms.values()))
    rows, live = _casimir_rows(mat, columns, expos, scale)
    live_expos = expos[live]
    basis = [Polynomial(variables, dict(zip(map(tuple, live_expos[list(vec)].tolist()), vec.values())))
             for vec in sparse_nullspace(rows, len(live))]
    basis.sort(key=lambda p: (p.total_degree(), str(p)))
    return basis


@dataclass
class GerminalIsotropy:
    """The kernel module {alpha : sharp(alpha) = 0} with its rank data.

    Evaluation at a point gives a subspace of the pointwise kernel; the
    generic dimension is ``n - 2k``. ``route`` says how the module was found
    (see ``germinal_isotropy``); no report renders it.
    """

    module: SubmodulePresentation
    generic_dimension: int
    profile: RankProfile
    route: str

    @property
    def drop_ideal(self) -> list[Polynomial]:
        return self.profile.drop_ideal()

    def dim_at(self, point: Sequence) -> int:
        return self.profile.rank_at(point)

    def generator_forms(self) -> list[DifferentialForm]:
        return [DifferentialForm.from_coefficients(self.module.variables, g)
                for g in self.module.generators]


def _casimir_kernel(structure: PoissonStructure, r: int) -> SubmodulePresentation | None:
    """The module ``K'`` generated by ``r`` differentials of the structure's
    Casimirs of degree at most ``DEFAULT_CASIMIR_DEGREE``, or ``None`` when
    fewer than ``r`` of them are independent.

    The Casimirs are taken in basis order; each nonconstant one is kept when
    its gradient at the first rank probe point raises the rank of those kept.
    With ``r`` kept, ``K'`` is free of rank ``r``, and born with its reduced
    Groebner basis as its generators (``SubmodulePresentation._reduced``).
    Whether ``K'`` is the whole kernel is decided by ``germinal_isotropy``."""
    variables = structure.variables
    n = len(variables)
    seeds = _PROBE_SEEDS[0]
    probe = [seeds[i % len(seeds)] for i in range(n)]
    gradients: list[list[Polynomial]] = []
    values: list[list] = []
    for c in structure.casimirs(DEFAULT_CASIMIR_DEGREE):
        if len(gradients) == r:
            break
        if c.is_constant():
            continue
        gradient = [c.diff(i) for i in range(n)]
        row = [p.eval(probe) for p in gradient]
        if rank(values + [row]) > len(values):
            gradients.append(gradient)
            values.append(row)
    if len(gradients) < r:
        return None
    return SubmodulePresentation._reduced(
        variables, n, SubmodulePresentation(variables, n, gradients).groebner_basis())


def germinal_isotropy(structure: PoissonStructure) -> GerminalIsotropy:
    """Kernel ``K`` of the sharp map as a polynomial module: the left kernel
    of the component matrix, of generic rank ``r = n - 2k``. Four routes,
    recorded as ``route``:

    * ``"full"``: the zero bivector. ``K`` is all of ``R^n`` and ``r = n``.
    * ``"zero"``: ``r = 0``. Then ``pi`` is invertible over the fraction
      field, so ``K = 0``; nothing is eliminated.
    * ``"casimir"``: ``structure.casimirs(DEFAULT_CASIMIR_DEGREE)`` holds
      ``r`` Casimirs whose differentials are independent at a rational
      point. Each ``dC`` lies in ``K``, so they generate a free
      submodule ``K'`` of rank ``r``, and ``R^n/K'`` has projective dimension
      at most 1. The ``r``-minors of any generator matrix of ``K'`` generate
      the same Fitting ideal of ``R^n/K'``, which is also the drop ideal. If
      their gcd is 1 the ideal has height at least 2 (``R`` is a UFD), so by
      Auslander–Buchsbaum ``R^n/K'`` is torsion-free; ``K/K'`` is torsion,
      as both have rank ``r``, hence ``K' = K``. This is the argument of
      Saito's criterion (J. Fac. Sci. Univ. Tokyo 27, 1980; Eisenbud,
      Commutative Algebra, ch. 19-20). The generators are the reduced
      Groebner basis of ``K'``, which is unique for the engine's order, so
      they are the ones ``syzygies`` would return.
    * ``"syzygy"``: otherwise (fewer than ``r`` independent differentials
      among those Casimirs, or a minor gcd that is not 1), the syzygies of
      rows ``structure.spanning_rows`` of the component matrix: ``2k`` rows,
      not ``n``. They span its row space over the fraction field (see
      ``PoissonStructure``), so a syzygy of those rows is one of all ``n``:
      the module is the same, and so are its generators, the reduced
      Groebner basis of the syzygies.

    The route depends on the structure alone: the Casimir search runs once
    per structure and serves every later call, and no caller option changes
    its degree bound.

    Every route ends the same way. Each generator is checked to satisfy
    ``sharp(g) = 0``; as ``pi`` has generic rank ``2k``, the generic rank of
    the generators is then at most ``r``. The rank profile is built at rank
    ``r``, and ``AssertionError`` is raised if every ``r``-minor vanishes,
    since the rank is then below ``r``."""
    variables = structure.variables
    n = len(variables)
    r = n - 2 * structure.k

    def routes():
        # only the Casimir route can be turned down (by its minor gcd); the
        # syzygy route follows it
        if structure.is_zero:
            yield "full", SubmodulePresentation.full(variables, n)
        elif r == 0:
            yield "zero", SubmodulePresentation.zero(variables, n)
        else:
            if found := _casimir_kernel(structure, r):
                yield "casimir", found
            mat = structure.pi_matrix()
            yield "syzygy", syzygies([mat[i] for i in structure.spanning_rows], variables)

    for route, module in routes():
        for g in module.generators:
            image = structure.sharp(DifferentialForm.from_coefficients(variables, g))
            if not image.is_zero:
                raise AssertionError("kernel generator not annihilated by sharp")
        profile = RankProfile([[g[i] for g in module.generators] for i in range(n)], variables, r)
        minors = profile.drop_ideal()
        if not minors:
            raise AssertionError(f"every {r}-minor of the kernel module vanishes: "
                                 f"its generic rank is below {r}")
        if route != "casimir" or polynomial_gcd(
                sorted(minors, key=Polynomial.total_degree)).is_constant():
            return GerminalIsotropy(module, r, profile, route)


@dataclass
class DistributionPresentation:
    """Polynomial generators of a candidate constant-rank distribution."""

    module: SubmodulePresentation
    rank: int
    provenance: dict = field(default_factory=dict)

    @property
    def generators(self):
        return self.module.generators

    def generator_matrix(self) -> list[list[Polynomial]]:
        n = self.module.rank
        return [[g[i] for g in self.module.generators] for i in range(n)]


def _annihilator_module(iso: GerminalIsotropy, variables, n: int) -> SubmodulePresentation:
    """Vector fields paired to zero by every kernel generator, as a
    presentation that holds its reduced basis from the start."""
    if not iso.module.generators:
        return SubmodulePresentation.full(variables, n)
    rows = [list(g) for g in iso.module.generators]
    return syzygies(rows, variables)


def almost_regular_decide(structure: PoissonStructure, *, seed: int = 0,
                          samples: int = 10000) -> Verdict:
    """Constant-rank decision for the kernel module.

    Yes: the drop ideal of the kernel generator matrix is certified real-empty,
    and the saturation of the image module ``C`` by the regular-locus ideal
    ``I`` equals the annihilator ``A`` of the kernel module; ``A`` is the
    distribution. No: a real witness point where the kernel dimension jumps.
    Inconclusive propagates from the emptiness certificate. Every verdict on a
    nonzero bivector carries the kernel module in its payload as
    ``isotropy``, built by ``germinal_isotropy`` from the structure alone.

    ``germinal_isotropy`` has checked ``sharp(g) = 0`` for every kernel
    generator ``g``, so ``C`` lies in ``A``; and ``A`` is saturated (``R^n/A``
    embeds in a free module, so ``f v`` in ``A`` with ``f != 0`` puts ``v``
    in ``A``). Hence ``C : I^k`` lies in ``A`` for every ``k``, and only
    ``A ⊆ C : I^k`` needs a membership proof: ``saturate`` tries it at each
    step with ``A`` as its target and stops at the first ``k`` where it holds,
    which is the exponent where the colons stabilize. For ``k >= 1`` the
    proof is ``I·A ⊆ C : I^(k-1)``, so at ``k = 1`` (as at ``k = 0``) it is
    membership in ``C`` itself and no colon is computed. Its certificates go
    to the provenance as ``annihilator_in_saturation``: per annihilator
    generator ``a_i`` and distinct nonzero generator ``f_j`` of ``I`` (``1``
    at ``k = 0``), the cofactors of ``f_j a_i`` over the generators of
    ``C : I^(k-1)``, which at ``k <= 1`` are the nonzero columns of ``pi``;
    the certificate names both lists (``multipliers`` and ``generators``). If
    the colons stabilize below ``A`` the verdict is inconclusive
    ("presentations disagree").
    """
    variables = structure.variables
    n = len(variables)
    if structure.is_zero:
        # degenerate branch: the zero bivector is projective of rank 0
        dist = DistributionPresentation(SubmodulePresentation.zero(variables, n), 0,
                                        provenance={"degenerate": "zero bivector"})
        return Verdict.yes(certificate={"degenerate": "zero bivector"}, distribution=dist)
    iso = germinal_isotropy(structure)
    drop = iso.drop_ideal
    emptiness = variety_emptiness(drop, seed=seed, samples=samples)
    if emptiness.is_inconclusive:
        return Verdict.inconclusive(
            "constant-rank test unresolved: " + (emptiness.reason or ""),
            unresolved_ideal=[str(p) for p in drop], isotropy=iso)
    if emptiness.is_no:
        witness = emptiness.witness["point"]
        dims = {"at_witness": iso.dim_at(witness), "generic": iso.generic_dimension}
        return Verdict.no(witness=witness, certificate=None, dims=dims, isotropy=iso)

    annihilator = _annihilator_module(iso, variables, n)
    saturation = saturate(structure.columns_module(), structure.regular_ideal,
                          target=annihilator)
    if not saturation.stabilized:
        return Verdict.inconclusive("saturation did not stabilize", isotropy=iso)
    if saturation.target_in is None:
        return Verdict.inconclusive(
            "saturation and annihilator presentations disagree",
            saturation=saturation.module, annihilator=annihilator, isotropy=iso)
    dist = DistributionPresentation(
        annihilator, 2 * structure.k,
        provenance={
            "constant_rank_certificate": emptiness,
            "saturation_exponent": saturation.exponent,
            "annihilator_in_saturation": saturation.target_in,
        })
    return Verdict.yes(certificate={"drop_ideal_empty": emptiness.certificate},
                       distribution=dist, isotropy=iso)


def _unclosed_bracket(variables: Sequence[str], generators: Sequence[Sequence[Polynomial]],
                      module: SubmodulePresentation
                      ) -> tuple[tuple[int, int], MultivectorField] | None:
    """The first pair ``(i, j)`` of generator fields, in row-major order, whose
    Schouten bracket is not in ``module``, with that bracket; ``None`` when
    the module is closed under the bracket."""
    fields = [MultivectorField.from_coefficients(variables, g) for g in generators]
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            bracket = schouten_bracket(fields[i], fields[j])
            if not module.is_member(bracket.coefficients()):
                return (i, j), bracket
    return None


def verify_distribution(dist: DistributionPresentation, structure: PoissonStructure,
                        *, seed: int = 0, samples: int = 10000) -> Verdict:
    """Involutivity, invariance (columns of pi are sections), and pointwise
    rank ``2k`` everywhere.

    The first two are memberships in ``dist.module``, answered by
    ``SubmodulePresentation.is_member`` on its untagged reduced basis: a
    ``yes`` carries no cofactors, and no tagged engine is built. The
    annihilator that ``almost_regular_decide`` returns is born with its
    reduced basis (a ``syzygies`` result, or the unit vectors), so the
    checks run no ``buchberger`` for it either. A caller that wants the
    cofactors asks ``dist.module.contains`` for them."""
    variables = structure.variables
    module = dist.module

    involutive: Verdict = Verdict.yes()
    unclosed = _unclosed_bracket(variables, module.generators, module)
    if unclosed is not None:
        ij, bracket = unclosed
        involutive = Verdict.no(witness={"pair": ij,
                                         "bracket": [str(p) for p in bracket.coefficients()]})

    poisson_cols: Verdict = Verdict.yes()
    for col in structure.bivector.columns():
        if not module.is_member(col):
            poisson_cols = Verdict.no(witness={"column": [str(p) for p in col]})
            break

    if module.generators:
        profile = rank_profile(dist.generator_matrix(), variables)
        if profile.generic_rank != dist.rank:
            constant_rank: Verdict = Verdict.no(
                witness={"generic_rank": profile.generic_rank, "expected": dist.rank})
        else:
            emptiness = variety_emptiness(profile.drop_ideal(), seed=seed, samples=samples)
            if emptiness.is_yes:
                constant_rank = Verdict.yes(certificate=emptiness.certificate)
            elif emptiness.is_no:
                constant_rank = Verdict.no(witness=emptiness.witness)
            else:
                constant_rank = Verdict.inconclusive(
                    emptiness.reason or "rank drop locus unresolved",
                    unresolved_ideal=[str(p) for p in profile.drop_ideal()])
    else:
        constant_rank = Verdict.yes() if dist.rank == 0 else Verdict.no(
            witness={"generic_rank": 0, "expected": dist.rank})

    checks = {"involutive": involutive, "poisson_columns": poisson_cols,
              "constant_rank": constant_rank}
    if all(v.is_yes for v in checks.values()):
        return Verdict.yes(certificate={k: v.to_json() for k, v in checks.items()}, **checks)
    if any(v.is_no for v in checks.values()):
        bad = {k: v for k, v in checks.items() if v.is_no}
        return Verdict.no(witness={k: v.witness for k, v in bad.items()}, **checks)
    return Verdict.inconclusive("distribution checks unresolved", **checks)


# -- linear Poisson structures ---------------------------------------------------


def lie_jacobi_defect(c) -> list[tuple]:
    """Direct check of antisymmetry and the Lie-Jacobi identity on an
    ``n x n x n`` table of exact structure constants; returns the offending
    index tuples (empty = a Lie algebra).

    This is the proof of ``[pi, pi] = 0`` for the linear bivector of the
    constants (:func:`linear_structure`): the bracket of a linear bivector
    vanishes exactly when its constants are antisymmetric and satisfy Jacobi,
    so no Schouten bracket runs on a structure-constant input. The tests
    cross-check the two routes on random tables.
    """
    n = len(c)
    bad = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if c[i][j][k] != -c[j][i][k]:
                    bad.append(("antisymmetry", i, j, k))
    # nonzero constants per ordered pair: nz[i][j] = {m: c^m_ij}
    nz = [[{m: v for m, v in enumerate(c[i][j]) if v} for j in range(n)] for i in range(n)]
    for i, j, k in combinations_with_replacement(range(n), 3):
        total: dict[int, object] = {}
        for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cm in nz[a][b].items():
                for l, v in nz[m][d].items():
                    total[l] = total.get(l, 0) + cm * v
        for l in sorted(total):
            if total[l]:
                bad.append(("jacobi", i, j, k, l))
    return bad


def linear_bivector(c, variables: Sequence[str] | None = None) -> MultivectorField:
    """Linear bivector ``{x_i, x_j} = sum_k c^k_ij x_k`` on the dual chart,
    read off an ``n x n x n`` table of exact constants with ``i < j``; no
    Lie-Jacobi gate (see :func:`linear_structure` for the gated builder)."""
    n = len(c)
    if variables is None:
        variables = tuple(f"x{i+1}" for i in range(n))
    variables = tuple(variables)
    comps = {}
    for i in range(n):
        for j in range(i + 1, n):
            terms = {}
            for k in range(n):
                if c[i][j][k]:
                    e = [0] * n
                    e[k] = 1
                    terms[tuple(e)] = c[i][j][k]
            if terms:
                comps[(i, j)] = Polynomial(variables, terms)
    return MultivectorField.bivector(variables, comps)


def linear_structure(constants, variables: Sequence[str] | None = None) -> PoissonStructure:
    """The linear Poisson structure on the dual of the Lie algebra with these
    structure constants (``constants[i][j][k] = c^k_ij``, normalised once
    here), gated by :func:`lie_jacobi_defect`: a non-Lie table raises
    ``ValueError``, and the structure's ``jacobi`` is the proof the gate
    gives, so no Schouten bracket runs."""
    c = [[[to_qq(v) for v in row] for row in plane] for plane in constants]
    n = len(c)
    if any(len(plane) != n or any(len(row) != n for row in plane) for plane in c):
        raise ValueError("structure constants must be an n x n x n array")
    defects = lie_jacobi_defect(c)
    if defects:
        raise ValueError(f"structure constants fail the Lie-Jacobi identity: {defects[:3]}")
    return PoissonStructure(linear_bivector(c, variables),
                            _jacobi=Verdict.yes(certificate={"identity": "[pi,pi] = 0"}))


def center_check(structure: PoissonStructure,
                 iso: GerminalIsotropy) -> tuple[list[list], Verdict]:
    """Center of the Lie algebra of a linear structure, read off ``pi`` (the
    ``v`` with ``sum_i v_i c^k_ij = 0`` for all ``j, k``, ``c^k_ij`` the
    coefficient of ``x_k`` in ``PI[i][j]``), and whether the kernel module at
    the origin spans exactly the center. ``ValueError`` unless ``pi`` is linear.

    The system has ``2k n`` rows, not ``n^2``: ``j`` runs over
    ``structure.spanning_rows`` alone. Column ``j`` of ``PI`` is ``-PI[j]``,
    and those rows span its row space over the fraction field (see
    ``PoissonStructure``), so ``v . PI[:, j] = 0`` for those ``j`` forces
    ``v . PI = 0``. The kernel, and its reduced-echelon basis, are those of
    all ``n^2`` rows."""
    n = len(structure.variables)
    if any(sum(e) != 1 for p in structure.bivector.components.values() for e in p.terms):
        raise ValueError("center_check needs a linear structure")
    mat = structure.pi_matrix()
    units = [tuple(int(m == k) for m in range(n)) for k in range(n)]
    rows = [[mat[i][j].terms.get(units[k], 0) for i in range(n)]
            for j in structure.spanning_rows for k in range(n)]
    center = nullspace(rows, n)

    origin = [QQ(0)] * n
    h0_vectors = []
    for g in iso.module.generators:
        vec = [p.eval(origin) for p in g]
        if any(vec):
            h0_vectors.append(vec)
    dim_h0 = rank(h0_vectors)
    dim_z = len(center)
    # equal dimensions and a joint span of that dimension: the same subspace
    if dim_h0 == dim_z and rank(h0_vectors + center) == dim_z:
        verdict = Verdict.yes(certificate={"dim": dim_z})
    else:
        verdict = Verdict.no(witness={"dim_h0": dim_h0, "dim_center": dim_z})
    return center, verdict


# -- foliation modules -------------------------------------------------------------


@dataclass
class FoliationModule:
    """Finitely generated module of vector fields with its syzygy data."""

    variables: tuple[str, ...]
    generators: list[list[Polynomial]]
    module: SubmodulePresentation
    syzygy: SubmodulePresentation
    syzygy_profile: RankProfile | None

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def fiber_dim_at(self, point: Sequence) -> int:
        """dim of (module / I_x module) = m - rank of evaluated syzygies."""
        if self.syzygy_profile is None:
            return self.num_generators
        return self.num_generators - self.syzygy_profile.rank_at(point)

    def generic_fiber_dim(self) -> int:
        if self.syzygy_profile is None:
            return self.num_generators
        return self.num_generators - self.syzygy_profile.generic_rank

    def projectivity(self, *, seed: int = 0) -> Verdict:
        """Yes iff the fiber dimension is constant (syzygy rank never drops)."""
        if self.syzygy_profile is None:
            return Verdict.yes(certificate={"reason": "no syzygies"})
        emptiness = variety_emptiness(self.syzygy_profile.drop_ideal(), seed=seed)
        if emptiness.is_yes:
            return Verdict.yes(certificate=emptiness.certificate)
        if emptiness.is_no:
            point = emptiness.witness["point"]
            return Verdict.no(witness=point,
                              dims={"at_witness": self.fiber_dim_at(point),
                                    "generic": self.generic_fiber_dim()})
        return Verdict.inconclusive(emptiness.reason or "drop locus unresolved",
                                    unresolved_ideal=[str(p) for p in self.syzygy_profile.drop_ideal()])

    def is_bracket_closed(self) -> Verdict:
        unclosed = _unclosed_bracket(self.variables, self.generators, self.module)
        return Verdict.yes() if unclosed is None else Verdict.no(witness={"pair": unclosed[0]})


def foliation_module(fields: Sequence[MultivectorField | Sequence[Polynomial]],
                     variables: Sequence[str] | None = None) -> FoliationModule:
    gens = []
    for f in fields:
        if isinstance(f, MultivectorField):
            if variables is None:
                variables = f.variables
            gens.append(f.coefficients())
        else:
            f = list(f)
            if variables is None:
                variables = f[0].variables
            gens.append(f)
    variables = tuple(variables)
    n = len(variables)
    module = SubmodulePresentation(variables, n, gens)
    matrix = [[g[i] for g in gens] for i in range(n)]
    syz = syzygies(matrix, variables)
    profile = None
    if syz.generators:
        syz_matrix = [[s[i] for s in syz.generators] for i in range(len(gens))]
        profile = rank_profile(syz_matrix, variables)
    return FoliationModule(variables, gens, module, syz, profile)


def foliation_inclusion(inner: FoliationModule, outer: FoliationModule) -> Verdict:
    """Membership of every generator of ``inner`` in ``outer``."""
    return inner.module.is_submodule_of(outer.module)
