"""Builders of derived Poisson structures and the log-type classification.

Covers: rescaling by Casimirs (same distribution), direct products, the
induced structure on a foliation by cosymplectic subspaces (symbolic for
constant subspaces, pointwise numeric otherwise), the zero locus ``Z`` of the
top power with its singular subset ``Z_sing``, and restriction to a leaf of a
coordinate-aligned distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ._kernel import QQ, to_qq
from .polyalg import (
    DifferentialForm,
    MultivectorField,
    Polynomial,
    divides_exactly,
    pair,
)
from .modcalc import SubmodulePresentation, Verdict, polynomial_gcd, variety_emptiness
from .modcalc.linalg import nullspace, solve
from .modcalc.rank import _det
from .poisson import (
    DistributionPresentation,
    PoissonStructure,
    almost_regular_decide,
    casimir_test,
)

__all__ = [
    "CasimirError",
    "CosymplecticError",
    "CasimirScaling",
    "CosymplecticReduction",
    "LogFClassification",
    "LeafRestriction",
    "scale_by_casimir",
    "direct_product",
    "cosymplectic_reduce",
    "induced_bivector_at",
    "trans_part_in_sharp_normal",
    "logf_classify",
    "restrict_to_leaf",
]

REGULAR = "regular"
LOG_SYMPLECTIC = "log-symplectic"
LOG_F_SYMPLECTIC = "log-f-symplectic"
ALMOST_REGULAR_NOT_LOG_F = "almost-regular (not log-f)"
NOT_ALMOST_REGULAR = "not almost regular"
INCONCLUSIVE = "inconclusive"


class CasimirError(ValueError):
    """Scaling function is not a Casimir (or is zero)."""


class CosymplecticError(ValueError):
    """The splitting condition fails; carries the defect dimensions."""

    def __init__(self, message: str, defect: dict | None = None):
        super().__init__(message)
        self.defect = defect or {}


# -- Casimir scaling -----------------------------------------------------------


@dataclass
class CasimirScaling:
    structure: PoissonStructure
    base_distribution: DistributionPresentation
    new_distribution: DistributionPresentation
    distributions_equal: Verdict


def scale_by_casimir(structure: PoissonStructure, f: Polynomial,
                     *, seed: int = 0) -> CasimirScaling:
    """Rescale by a Casimir: Jacobi is re-verified and the recomputed
    distribution is checked equal to the original (full support of a nonzero
    polynomial is automatic: its nonvanishing locus is dense)."""
    if f.is_zero:
        raise CasimirError("scaling by the zero function")
    test = casimir_test(structure, f)
    if not test.is_yes:
        raise CasimirError(f"not a Casimir: sharp(df) has witness {test.witness}")
    base = almost_regular_decide(structure, seed=seed)
    if not base.is_yes:
        raise CasimirError("base structure did not decide almost regular")
    scaled = PoissonStructure(structure.bivector.scale(f))
    new = almost_regular_decide(scaled, seed=seed)
    if not new.is_yes:
        raise AssertionError("scaled structure lost the constant-rank decision")
    base_d: DistributionPresentation = base.payload["distribution"]
    new_d: DistributionPresentation = new.payload["distribution"]
    equal = base_d.module.equals_module(new_d.module)
    return CasimirScaling(scaled, base_d, new_d, equal)


# -- direct products --------------------------------------------------------------


def _disjoint_charts(a: Sequence[str], b: Sequence[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    clash = set(a) & set(b)
    if not clash:
        return tuple(a), tuple(b)
    return tuple(f"{v}_1" for v in a), tuple(f"{v}_2" for v in b)


def direct_product(left: PoissonStructure, right: PoissonStructure) -> PoissonStructure:
    """Product structure on the disjoint union of the charts; clashing
    coordinate names get ``_1``/``_2`` suffixes."""
    la, lb = _disjoint_charts(left.variables, right.variables)
    variables = la + lb
    n1 = len(la)
    comps: dict[tuple[int, int], Polynomial] = {}
    for (i, j), p in left.bivector.components.items():
        comps[(i, j)] = Polynomial(variables, {e + (0,) * len(lb): c for e, c in p.terms.items()})
    for (i, j), p in right.bivector.components.items():
        comps[(i + n1, j + n1)] = Polynomial(
            variables, {(0,) * n1 + e: c for e, c in p.terms.items()})
    return PoissonStructure(MultivectorField.bivector(variables, comps))


# -- cosymplectic reduction ---------------------------------------------------------


def _w_basis_matrix(structure: PoissonStructure, w_basis) -> list[list]:
    w = [[to_qq(x) for x in vec] for vec in w_basis]
    if any(len(row) != len(structure.variables) for row in w):
        raise ValueError("W basis vectors must have the chart dimension")
    return w


@dataclass
class CosymplecticReduction:
    """Result of reduction along a constant-coefficient subspace W."""

    parent: PoissonStructure                 # the structure being reduced
    structure: PoissonStructure              # the induced bivector pi_new
    pi_trans: MultivectorField               # pi - pi_new
    cosymplectic_certificate: Verdict        # global nonvanishing of det[sharp(W°) | W]
    w_basis: list[list]
    normal_covectors: list[list]             # basis of W°
    determinant: Polynomial

    def pointwise(self, point: Sequence, *, cutoff: float = 1e-10):
        """Induced skew matrix on W at one point (exact for rational points)."""
        return induced_bivector_at(self.parent, self.w_basis, point, cutoff=cutoff)


def _sharp_columns(structure: PoissonStructure, covectors: Sequence[Sequence]) -> list[list[Polynomial]]:
    out = []
    for eta in covectors:
        form = DifferentialForm.from_coefficients(
            structure.variables,
            [Polynomial.constant(structure.variables, c) for c in eta])
        out.append(structure.sharp(form).coefficients())
    return out


def induced_bivector_at(structure: PoissonStructure, w_basis, point: Sequence,
                        *, cutoff: float = 1e-10):
    """Pointwise cosymplectic reduction: the induced skew matrix on W in the
    given basis. Exact for rational points, least-squares with a singular
    value cutoff for float points. Raises on splitting failure."""
    w = _w_basis_matrix(structure, w_basis)
    n = len(structure.variables)
    p = len(w)
    normals = nullspace(w, n)
    pi_mat = structure.pi_matrix()
    exact = not any(isinstance(x, float) for x in point)
    pt = [to_qq(x) for x in point] if exact else [float(x) for x in point]
    pival = [[q.eval(pt) for q in row] for row in pi_mat]
    # columns of B: sharp(eta_j) then w_i
    sharp_cols = []
    for eta in normals:
        col = [sum((pival[i][j] * eta[i] for i in range(n)),
                   QQ(0) if exact else 0.0) for j in range(n)]
        sharp_cols.append(col)
    bmat = [[sharp_cols[j][i] for j in range(len(sharp_cols))] + [w[a][i] for a in range(p)]
            for i in range(n)]
    arr = np.array([[float(x) for x in row] for row in bmat])
    rank = int(np.linalg.matrix_rank(arr, tol=cutoff))
    if rank < n:
        dim_s = int(np.linalg.matrix_rank(arr[:, : len(sharp_cols)], tol=cutoff))
        defect = {"dim_sharp_W0": dim_s, "dim_W": p, "rank_sum": rank,
                  "intersection_dim": dim_s + p - rank}
        raise CosymplecticError(
            f"sharp(W°) ⊕ W is not all of R^{n} at {list(point)}", defect)
    # extensions xi_a: <xi, sharp eta_j> = 0, <xi, w_b> = delta_ab
    ext = []
    for a in range(p):
        rhs = [0] * (n - p) + [1 if b == a else 0 for b in range(p)]
        rows = [[bmat[i][c] for i in range(n)] for c in range(n)]
        if exact:
            sol = solve(rows, rhs)
            if sol is None:
                raise CosymplecticError("extension system inconsistent", {})
        else:
            sol, *_ = np.linalg.lstsq(np.array(rows, dtype=float),
                                      np.array(rhs, dtype=float), rcond=cutoff)
            sol = list(sol)
        ext.append(sol)
    out = [[None] * p for _ in range(p)]
    for a in range(p):
        for b in range(p):
            acc = QQ(0) if exact else 0.0
            for i in range(n):
                for j in range(n):
                    if pival[i][j]:
                        acc = acc + ext[a][i] * pival[i][j] * ext[b][j]
            out[a][b] = acc
    return out


def cosymplectic_reduce(structure: PoissonStructure, w_basis,
                        *, seed: int = 0) -> CosymplecticReduction:
    """Symbolic reduction along a constant-coefficient subspace W given by
    basis vectors: returns pi_new with pi = pi_new + pi_trans, where pi_new
    takes values in W and pi_trans in sharp(W°)."""
    w = _w_basis_matrix(structure, w_basis)
    n = len(structure.variables)
    p = len(w)
    normals = nullspace(w, n)
    variables = structure.variables
    sharp_cols = _sharp_columns(structure, normals)            # q = n - p columns
    q = len(sharp_cols)
    const = lambda c: Polynomial.constant(variables, c)
    bmat = [[sharp_cols[j][i] for j in range(q)] + [const(w[a][i]) for a in range(p)]
            for i in range(n)]
    det = _det(bmat)
    if det.is_zero:
        raise CosymplecticError("sharp(W°) ⊕ W fails identically", {"determinant": "0"})
    cert = variety_emptiness([det], seed=seed)
    if cert.is_no:
        witness = cert.witness["point"]
        try:
            induced_bivector_at(structure, w_basis, witness)
        except CosymplecticError as exc:
            raise CosymplecticError(
                f"cosymplectic condition fails at {witness}", exc.defect) from None
        raise CosymplecticError(f"cosymplectic condition fails at {witness}", {})

    # adjugate: adj[i][j] = cofactor(j, i)
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[bmat[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            cof = _det(minor) if minor else Polynomial.one(variables)
            adj[i][j] = cof if (i + j) % 2 == 0 else -cof
    # numerator of the projection onto W along sharp(W°): B J adj(B)
    zero = Polynomial.zero(variables)
    bj = [[bmat[i][c] if c >= q else zero for c in range(n)] for i in range(n)]
    proj_num = [[sum((bj[i][c] * adj[c][j] for c in range(n)), zero) for j in range(n)]
                for i in range(n)]
    pi_mat = structure.pi_matrix()
    tmp = [[sum((proj_num[i][a] * pi_mat[a][b] for a in range(n)), zero) for b in range(n)]
           for i in range(n)]
    num = [[sum((tmp[i][b] * proj_num[j][b] for b in range(n)), zero) for j in range(n)]
           for i in range(n)]
    det2 = det * det
    comps: dict[tuple[int, int], Polynomial] = {}
    for i in range(n):
        for j in range(i + 1, n):
            if num[i][j].is_zero:
                continue
            quotient = divides_exactly(num[i][j], det2)
            if quotient is None:
                raise CosymplecticError(
                    "induced bivector is not polynomial for this subspace "
                    "(use the pointwise path)", {})
            comps[(i, j)] = quotient
    pi_new = MultivectorField.bivector(variables, comps)
    structure_new = PoissonStructure(pi_new)
    pi_trans = structure.bivector - pi_new
    return CosymplecticReduction(structure, structure_new, pi_trans, cert, w,
                                 normals, det)


def trans_part_in_sharp_normal(structure: PoissonStructure,
                               reduction: CosymplecticReduction,
                               point: Sequence) -> bool:
    """Check pi_trans(x) lies in wedge^2 of sharp(W°)_x (exact, rational x)."""
    pt = [to_qq(x) for x in point]
    n = len(structure.variables)
    tval = reduction.pi_trans.evaluate(pt).skew_matrix() if not reduction.pi_trans.is_zero else [
        [QQ(0)] * n for _ in range(n)]
    pival = [[p.eval(pt) for p in row] for row in structure.pi_matrix()]
    s_vectors = []
    for eta in reduction.normal_covectors:
        s_vectors.append([sum(pival[i][j] * eta[i] for i in range(n)) for j in range(n)])
    s_perp = nullspace(s_vectors, n)
    for xi in s_perp:
        image = [sum(tval[i][j] * xi[i] for i in range(n)) for j in range(n)]
        if any(image):
            return False
    return True


# -- log-type classification -----------------------------------------------------------


@dataclass
class LogFClassification:
    verdict: str
    g: Polynomial | None = None
    section: MultivectorField | None = None
    z_ideal: list[Polynomial] = field(default_factory=list)
    z_sing_ideal: list[Polynomial] = field(default_factory=list)
    transversality: Verdict | None = None
    regularity: Verdict | None = None
    distribution: DistributionPresentation | None = None
    decision: Verdict | None = None
    notes: list[str] = field(default_factory=list)


def _content_split(top: MultivectorField) -> tuple[Polynomial, MultivectorField]:
    """Write the top power as g * s with s having coprime integer
    coefficients and positive leading coefficient in its first component.
    ``g`` is the gcd of the components (``polynomial_gcd``). A top power
    with one component is its own ``g``, with section 1: the gcd of a
    family of one is its member, unnormalised."""
    g = polynomial_gcd(list(top.components.values()))
    comps = {}
    for idx, p in top.components.items():
        quotient = divides_exactly(p, g)
        if quotient is None:
            raise AssertionError("content does not divide a coefficient")
        comps[idx] = quotient
    section = MultivectorField(top.variables, top.grade, comps)
    first = min(section.components)
    _, lead = section.components[first].leading()
    if lead < 0:
        section = -section
        g = -g
    return g, section


def logf_classify(structure: PoissonStructure, *, seed: int = 0, samples: int = 10000,
                  decision: Verdict | None = None) -> LogFClassification:
    """Classify the top power against the line spanned by the distribution's
    top wedge: ``regular`` when g never vanishes on R^n, log-symplectic /
    log-f-symplectic when the zero locus Z = {g = 0} is cut transversally
    (no real common zero of g and its gradient)."""
    if structure.is_zero:
        from .poisson import ZeroBivectorError

        raise ZeroBivectorError("zero bivector: k undefined")
    if decision is None:
        decision = almost_regular_decide(structure, seed=seed, samples=samples)
    if decision.is_no:
        return LogFClassification(NOT_ALMOST_REGULAR, decision=decision)
    if decision.is_inconclusive:
        return LogFClassification(INCONCLUSIVE, decision=decision,
                                  notes=[decision.reason or "decision unresolved"])
    dist: DistributionPresentation = decision.payload["distribution"]
    g, section = _content_split(structure.top)
    variables = structure.variables
    grads = [g.diff(i) for i in range(len(variables))]
    z_ideal = [g]
    dg = DifferentialForm.d_of(g)
    pairings = []
    for gen in dist.generators:
        v = MultivectorField.from_coefficients(variables, list(gen))
        pairings.append(pair(dg, v))
    z_sing = [g] + [p for p in pairings if not p.is_zero]

    regularity = variety_emptiness([g], seed=seed, samples=samples)
    if regularity.is_yes:
        return LogFClassification(REGULAR, g=g, section=section, z_ideal=z_ideal,
                                  z_sing_ideal=z_sing, transversality=Verdict.yes(
                                      certificate={"reason": "Z is empty"}),
                                  regularity=regularity, distribution=dist,
                                  decision=decision)
    transversality = variety_emptiness([g] + [d for d in grads if not d.is_zero],
                                       seed=seed, samples=samples)
    if transversality.is_inconclusive or regularity.is_inconclusive:
        return LogFClassification(INCONCLUSIVE, g=g, section=section, z_ideal=z_ideal,
                                  z_sing_ideal=z_sing, transversality=transversality,
                                  regularity=regularity, distribution=dist,
                                  decision=decision,
                                  notes=["emptiness certificate unresolved"])
    if transversality.is_yes:
        verdict = LOG_SYMPLECTIC if 2 * structure.k == len(variables) else LOG_F_SYMPLECTIC
    else:
        verdict = ALMOST_REGULAR_NOT_LOG_F
    return LogFClassification(verdict, g=g, section=section, z_ideal=z_ideal,
                              z_sing_ideal=z_sing, transversality=transversality,
                              regularity=regularity, distribution=dist,
                              decision=decision)


# -- leaf restriction ----------------------------------------------------------------


@dataclass
class LeafRestriction:
    structure: PoissonStructure
    classification: LogFClassification
    kept: tuple[str, ...]
    fixed: dict


def restrict_to_leaf(structure: PoissonStructure, fixed: Mapping[str, object],
                     *, seed: int = 0,
                     decision: Verdict | None = None) -> LeafRestriction:
    """Restrict to the affine leaf obtained by fixing the coordinates
    transverse to a coordinate-aligned distribution, then classify the leaf.

    Requires the distribution to be spanned by coordinate directions and the
    fixed set to be exactly the complementary coordinates.
    """
    variables = structure.variables
    n = len(variables)
    if decision is None:
        decision = almost_regular_decide(structure, seed=seed)
    if not decision.is_yes:
        raise ValueError("leaf restriction needs an almost regular structure")
    dist: DistributionPresentation = decision.payload["distribution"]
    module = dist.module
    zero = Polynomial.zero(variables)
    one = Polynomial.one(variables)
    spanned = []
    for i in range(n):
        unit = [one if j == i else zero for j in range(n)]
        if module.contains(unit).is_yes:
            spanned.append(i)
    coord_module = SubmodulePresentation(
        variables, n, [[one if j == i else zero for j in range(n)] for i in spanned])
    if not module.equals_module(coord_module).is_yes:
        raise ValueError("distribution is not spanned by coordinate directions")
    transverse = [variables[i] for i in range(n) if i not in spanned]
    if set(fixed) != set(transverse):
        raise ValueError(
            f"slice not transverse to the distribution complement: fix exactly {transverse}")
    kept = tuple(variables[i] for i in spanned)
    comps: dict[tuple[int, int], Polynomial] = {}
    pos = {i: spanned.index(i) for i in spanned}
    for (i, j), p in structure.bivector.components.items():
        if i not in pos or j not in pos:
            if not p.partial_eval(dict(fixed)).is_zero:
                raise AssertionError("bivector has a component off the distribution")
            continue
        restricted = p.partial_eval(dict(fixed))
        if not restricted.is_zero:
            comps[(pos[i], pos[j])] = restricted
    leaf_structure = PoissonStructure(MultivectorField.bivector(kept, comps))
    classification = logf_classify(leaf_structure, seed=seed)
    return LeafRestriction(leaf_structure, classification, kept, dict(fixed))
