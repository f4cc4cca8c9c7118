"""Poisson analysis: Jacobi, rank data, kernel module, decision, linear case."""

from __future__ import annotations

import json
import math
import random
import time
from itertools import combinations_with_replacement, product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import qq_nullspace, qq_rank
import poiskit.poisson
from poiskit._kernel import QQ
from poiskit.polyalg import (
    DifferentialForm,
    MultivectorField,
    Polynomial,
    wedge,
    wedge_power,
)
from poiskit.modcalc import (
    SubmodulePresentation,
    colon_by_ideal,
    saturate,
    syzygies,
    variety_emptiness,
)
from poiskit.modcalc import presentation
from poiskit.modcalc.linalg import nullspace, sparse_nullspace
from poiskit.modcalc.rank import determinant
from poiskit.construct import logf_classify
from poiskit.poisson import (
    DistributionPresentation,
    PoissonStructure,
    ZeroBivectorError,
    _annihilator_module,
    _casimir_entries,
    _casimir_rows,
    _monomial_array,
    almost_regular_decide,
    casimir_search,
    casimir_test,
    center_check,
    check_jacobi,
    foliation_inclusion,
    foliation_module,
    germinal_isotropy,
    koszul_bracket,
    lie_jacobi_defect,
    linear_bivector,
    linear_structure,
    verify_distribution,
)
from conftest import (
    aff1_plus_r_constants,
    gl_constants,
    heis3_constants,
    sl2_constants,
    su2_constants,
    heisenberg_structure,
    su2_structure,
    symplectic_r2,
    zero_constants,
)
from poiskit.report import parse_input
from test_corpus_digest import documents
from test_kernel_module import _gl3, _sl, _sl3, _so5, lie_document

V3 = ("x", "y", "z")


# -- Jacobi -----------------------------------------------------------------------


def test_jacobi_trivially_on_r2():
    pi = MultivectorField.bivector(("x", "y"), {(0, 1): Polynomial.parse(("x", "y"), "x")})
    assert check_jacobi(pi).is_yes


def test_jacobi_rotation_bivector(su2):
    assert check_jacobi(su2.bivector).is_yes


def test_jacobi_failure_carries_witness():
    pv = lambda s: Polynomial.parse(V3, s)
    pi = MultivectorField.bivector(V3, {(1, 2): pv("x"), (0, 2): pv("-y"), (0, 1): pv("x^2")})
    verdict = check_jacobi(pi)
    assert verdict.is_no
    assert verdict.witness["indices"] == (0, 1, 2)
    # independent expansion: [pi,pi] = -2<w, curl w> dx^dy^dz with w = (x, y, x^2)
    assert verdict.witness["coefficient"] == pv("-2*(x*0 + y*(-2*x) + x^2*0)")


def test_constructor_rejects_non_poisson():
    pv = lambda s: Polynomial.parse(V3, s)
    pi = MultivectorField.bivector(V3, {(1, 2): pv("x"), (0, 2): pv("-y"), (0, 1): pv("x^2")})
    with pytest.raises(ValueError):
        PoissonStructure(pi)
    assert PoissonStructure.unchecked(pi).jacobi is None


# -- top power -----------------------------------------------------------------------


def test_top_power_rotation(su2):
    assert su2.k == 1
    assert su2.top == su2.bivector
    assert sorted(str(p) for p in su2.regular_ideal) == ["-y", "x", "z"]


def test_top_power_heisenberg(heis):
    assert heis.k == 1 and [str(p) for p in heis.regular_ideal] == ["t"]


def test_top_power_constant_symplectic_r4():
    ps = PoissonStructure.from_components(("x", "y", "z", "w"), {(0, 1): "1", (2, 3): "1"})
    assert ps.k == 2
    assert ps.top == wedge(ps.bivector, ps.bivector)
    assert [str(p) for p in ps.regular_ideal] == ["2"]


def test_top_power_zero_bivector_errors():
    # the zero bivector has no nonzero power: k is 0, the regular-locus ideal
    # is the unit ideal, and the log-type split, which needs k >= 1, refuses it
    ps = PoissonStructure(MultivectorField.zero(V3, 2))
    assert ps.is_zero and ps.k == 0
    assert ps.regular_ideal == [Polynomial.one(V3)]
    with pytest.raises(ZeroBivectorError, match="k undefined"):
        logf_classify(ps)


def _wedge_loop(bivector: MultivectorField) -> tuple[int, MultivectorField]:
    """The reference rank data: wedge ``pi`` onto itself until the next
    power is zero or would exceed the dimension."""
    n = len(bivector.variables)
    k, power = 0, wedge_power(bivector, 0)
    while 2 * (k + 1) <= n:
        nxt = wedge(power, bivector)
        if nxt.is_zero:
            break
        power, k = nxt, k + 1
    return k, power


def _assert_wedge_rank_data(ps: PoissonStructure) -> None:
    k, power = _wedge_loop(ps.bivector)
    assert ps.k == k
    assert ps.top == power
    assert ps.regular_ideal == sorted(power.components.values(), key=str)


@st.composite
def skew_bivectors(draw) -> MultivectorField:
    """A skew polynomial bivector on up to 8 variables, Poisson or not: its
    entries are sparse (many zero) polynomials of degree <= 1, or ``f`` times
    a constant bivector of rank at most 2r, a sum of r decomposable wedges
    ``u ^ v``, so that several top levels vanish by cancellation."""
    n = draw(st.integers(1, 8))
    names = tuple(f"x{i}" for i in range(n))
    small = st.integers(-2, 2)
    # the exponent of 1 or of one variable
    monomial = st.integers(-1, n - 1).map(lambda v: tuple(int(i == v) for i in range(n)))
    poly = st.dictionaries(monomial, small.filter(bool), min_size=1, max_size=2).map(
        lambda terms: Polynomial(names, terms))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if draw(st.booleans()):
        entry = st.one_of(st.none(), poly, poly, poly)
        return MultivectorField.bivector(names, {
            ij: p for ij in pairs if (p := draw(entry)) is not None})
    vector = st.lists(small, min_size=n, max_size=n)
    wedges = draw(st.lists(st.tuples(vector, vector), min_size=1, max_size=max(1, n // 2 - 1)))
    f = draw(poly)
    return MultivectorField.bivector(names, {
        (i, j): f * sum(u[i] * v[j] - u[j] * v[i] for u, v in wedges) for i, j in pairs})


@settings(max_examples=120, deadline=None)
@given(skew_bivectors())
def test_pfaffian_rank_data_equals_the_wedge_loop(bivector):
    # the Pfaffian identity does not use Jacobi, so unchecked inputs count
    _assert_wedge_rank_data(PoissonStructure.unchecked(bivector))


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_pfaffian_rank_data_of_the_zero_bivector(n):
    names = tuple(f"x{i}" for i in range(n))
    ps = PoissonStructure(MultivectorField.zero(names, 2))
    assert ps.k == 0 and ps.top == wedge_power(ps.bivector, 0)
    _assert_wedge_rank_data(ps)


@pytest.mark.parametrize("basis", [_sl3, _gl3, _so5])
def test_pfaffian_rank_data_of_lie_duals(basis):
    _assert_wedge_rank_data(parse_input(lie_document(basis()))[0])


def test_so5_rank_data_costs_under_1300_products(monkeypatch):
    # parse_input makes 1,168 polynomial products on so(5)*; wedging pi onto
    # itself up to pi^5 makes 3,450
    doc = lie_document(_so5())
    products = []
    original = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__",
                        lambda self, other: products.append(1) or original(self, other))
    ps = parse_input(doc)[0]
    assert ps.k == 4
    assert len(products) <= 1300


def test_sl4_rank_data_within_a_generous_bound():
    # n = 15: about 1.6 s on a 2-core host
    doc = lie_document(_sl(4))
    started = time.perf_counter()
    ps = parse_input(doc)[0]
    elapsed = time.perf_counter() - started
    assert ps.k == 6
    assert len(ps.regular_ideal) == 455
    assert elapsed < 20.0


# -- Koszul bracket ---------------------------------------------------------------------


def test_koszul_bracket_quadratic_example():
    ps = PoissonStructure.from_components(("x", "y"), {(0, 1): "x^2"})
    dx = DifferentialForm.coordinate_differential(("x", "y"), "x")
    dy = DifferentialForm.coordinate_differential(("x", "y"), "y")
    assert koszul_bracket(dx, dy, ps) == DifferentialForm(
        ("x", "y"), 1, {(0,): Polynomial.parse(("x", "y"), "2*x")})


def test_koszul_bracket_defining_identity_randomized(su2):
    rng = random.Random(17)
    for _ in range(12):
        f = Polynomial(V3, {tuple(rng.randint(0, 2) for _ in V3): rng.randint(-3, 3)})
        g = Polynomial(V3, {tuple(rng.randint(0, 2) for _ in V3): rng.randint(-3, 3)})
        lhs = koszul_bracket(DifferentialForm.d_of(f), DifferentialForm.d_of(g), su2)
        rhs = DifferentialForm.d_of(su2.bivector.pairing(DifferentialForm.d_of(f),
                                                         DifferentialForm.d_of(g)))
        assert lhs == rhs


def test_koszul_centrality_at_kernel_points(su2):
    # alpha in the kernel module, beta with sharp(beta)(x0) = 0: bracket vanishes at x0
    iso = germinal_isotropy(su2)
    alpha = iso.generator_forms()[0]
    beta = DifferentialForm.coordinate_differential(V3, "x")
    x0 = [QQ(1), QQ(0), QQ(0)]  # sharp(dx) = z d/dy - y d/dz vanishes here
    assert su2.sharp(beta).evaluate(x0).is_zero
    bracket = koszul_bracket(alpha, beta, su2)
    assert bracket.evaluate(x0).is_zero


# -- Casimirs ------------------------------------------------------------------------------


def test_casimir_heisenberg(heis):
    assert casimir_test(heis, Polynomial.variable(("x", "y", "t"), "t")).is_yes
    assert casimir_test(heis, Polynomial.variable(("x", "y", "t"), "x")).is_no


def test_casimir_radius_squared(su2):
    assert casimir_test(su2, Polynomial.parse(V3, "x^2 + y^2 + z^2")).is_yes


def test_casimir_search_symplectic_finds_constants_only():
    ps = PoissonStructure.from_components(("x", "y"), {(0, 1): "1"})
    basis = casimir_search(ps, 3)
    assert [str(p) for p in basis] == ["1"]


def test_casimir_search_heisenberg(heis):
    basis = casimir_search(heis, 2)
    assert [str(p) for p in basis] == ["1", "t", "t^2"]


# -- kernel module -----------------------------------------------------------------------


def test_kernel_module_rotation(su2):
    iso = germinal_isotropy(su2)
    assert [[str(p) for p in g] for g in iso.module.generators] == [["x", "y", "z"]]
    assert iso.generic_dimension == 1
    assert iso.dim_at([0, 0, 0]) == 0
    assert iso.dim_at([1, 0, 0]) == 1


def test_kernel_module_heisenberg(heis):
    iso = germinal_isotropy(heis)
    assert [[str(p) for p in g] for g in iso.module.generators] == [["0", "0", "1"]]
    assert iso.dim_at([2, 3, 5]) == 1 and iso.dim_at([0, 0, 0]) == 1


def test_kernel_module_below_the_generic_rank_raises(su2, monkeypatch):
    # a syzygy module without su(2)'s generator x dx + y dy + z dz has rank 0,
    # not 1; degree 0 leaves the Casimir route no Casimir, so the syzygy route runs
    monkeypatch.setattr(poiskit.poisson, "DEFAULT_CASIMIR_DEGREE", 0)
    monkeypatch.setattr(poiskit.poisson, "syzygies",
                        lambda matrix, variables: SubmodulePresentation.zero(variables, 3))
    with pytest.raises(AssertionError, match="every 1-minor of the kernel module vanishes"):
        germinal_isotropy(su2)


def test_kernel_module_symplectic_r4_is_zero():
    ps = PoissonStructure.from_components(("x", "y", "z", "w"), {(0, 1): "1", (2, 3): "1"})
    iso = germinal_isotropy(ps)
    assert iso.module.is_zero_module and iso.generic_dimension == 0


def test_kernel_pointwise_inside_pointwise_kernel(su2):
    rng = random.Random(23)
    iso = germinal_isotropy(su2)
    mat = su2.pi_matrix()
    for _ in range(100):
        pt = [QQ(rng.randint(-5, 5), rng.randint(1, 3)) for _ in V3]
        pival = [[p.eval(pt) for p in row] for row in mat]
        for g in iso.module.generators:
            alpha = [p.eval(pt) for p in g]
            image = [sum(pival[i][j] * alpha[i] for i in range(3)) for j in range(3)]
            assert all(v == 0 for v in image)
        # at regular points, the kernel dimension matches n - 2k
        if any(any(row) for row in pival):
            if qq_rank(pival) == 2 * su2.k:
                assert iso.dim_at(pt) == 3 - 2 * su2.k


# -- the constant-rank decision -----------------------------------------------------------


def test_decision_heisenberg_yes(heis):
    verdict = almost_regular_decide(heis)
    assert verdict.is_yes
    dist = verdict.payload["distribution"]
    expected = SubmodulePresentation(
        ("x", "y", "t"), 3,
        [[Polynomial.one(("x", "y", "t")), Polynomial.zero(("x", "y", "t")),
          Polynomial.zero(("x", "y", "t"))],
         [Polynomial.zero(("x", "y", "t")), Polynomial.one(("x", "y", "t")),
          Polynomial.zero(("x", "y", "t"))]])
    assert dist.module.equals_module(expected).is_yes
    assert dist.rank == 2


def test_decision_rotation_no_with_origin_witness(su2):
    verdict = almost_regular_decide(su2)
    assert verdict.is_no
    assert list(verdict.witness) == [0, 0, 0]
    assert verdict.payload["dims"] == {"at_witness": 0, "generic": 1}


def test_decision_log_symplectic_r2_full_tangent():
    ps = PoissonStructure.from_components(("x", "y"), {(0, 1): "x"})
    verdict = almost_regular_decide(ps)
    assert verdict.is_yes
    dist = verdict.payload["distribution"]
    assert dist.rank == 2
    assert dist.module.equals_module(SubmodulePresentation.full(("x", "y"), 2)).is_yes


def test_decision_zero_bivector_degenerate_branch():
    ps = PoissonStructure(MultivectorField.zero(V3, 2))
    verdict = almost_regular_decide(ps)
    assert verdict.is_yes
    assert verdict.payload["distribution"].rank == 0
    iso = germinal_isotropy(ps)
    assert iso.generic_dimension == 3


def test_decision_distribution_agrees_on_regular_locus(heis):
    # on the regular locus the distribution module contains the sharp images
    verdict = almost_regular_decide(heis)
    dist = verdict.payload["distribution"]
    for col in heis.bivector.columns():
        assert dist.module.contains(col).is_yes


def test_distribution_localizes_to_image_module(heis):
    # after clearing a regular-locus denominator, distribution generators fall
    # into the image module: q^k * v with q nonvanishing at a regular point
    verdict = almost_regular_decide(heis)
    dist = verdict.payload["distribution"]
    k = dist.provenance["saturation_exponent"]
    columns = heis.columns_module()
    q = heis.regular_ideal[0]          # q = t, nonzero at any regular point
    assert q.eval([0, 0, 1]) != 0
    for gen in dist.generators:
        scaled = [q ** k * c for c in gen]
        assert columns.contains(scaled).is_yes


def _saturation_chain_decide(structure: PoissonStructure) -> tuple[str, int | None]:
    """Reference for the decision's saturation step: the colons run until
    they stabilize, with no target, and the result is checked equal to the
    annihilator in both directions. Returns (outcome, exponent)."""
    iso = germinal_isotropy(structure)
    emptiness = variety_emptiness(iso.drop_ideal)
    if not emptiness.is_yes:
        return emptiness.outcome, None
    saturation = saturate(structure.columns_module(), structure.regular_ideal)
    if not saturation.stabilized:
        return "inconclusive", None
    annihilator = _annihilator_module(iso, structure.variables, len(structure.variables))
    if not saturation.module.equals_module(annihilator).is_yes:
        return "inconclusive", saturation.exponent
    return "yes", saturation.exponent


_GOLDEN = Path(__file__).parent / "golden"
# the first input set of the two exact benchmark workloads at seed 0
_CORPUS_CASES = {f"{workload}:{name}": doc for workload in ("chart-batch", "lie-duals")
                 for name, doc in documents(workload, 0).items()}
_ORACLE_CASES = {
    **{path.name[:-len(".input.json")]: path for path in sorted(_GOLDEN.glob("*.input.json"))},
    **_CORPUS_CASES,
    "heis": heisenberg_structure,
    "su2": su2_structure,
    "symplectic_r2": symplectic_r2,
    "log_symplectic_r2": lambda: PoissonStructure.from_components(("x", "y"), {(0, 1): "x"}),
}


def _oracle_structure(source) -> PoissonStructure:
    if isinstance(source, Path):
        source = json.loads(source.read_text(encoding="utf-8"))
    return parse_input(source)[0] if isinstance(source, dict) else source()


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_decision_matches_the_untargeted_saturation_chain(case, monkeypatch):
    structure = _oracle_structure(_ORACLE_CASES[case])
    colons = []
    monkeypatch.setattr(presentation, "colon_by_ideal",
                        lambda *args: colons.append(args) or colon_by_ideal(*args))
    verdict = almost_regular_decide(structure)
    made = len(colons)
    expected_outcome, expected_exponent = _saturation_chain_decide(structure)
    assert verdict.outcome == expected_outcome
    if verdict.is_yes:
        dist = verdict.payload["distribution"]
        assert dist.provenance["saturation_exponent"] == expected_exponent
        assert dist.provenance["annihilator_in_saturation"].is_yes
        # the target is reached by membership: no colon at exponents 0 and 1
        assert made == max(expected_exponent - 1, 0)


def _sympy_poly(p: Polynomial, xs) -> sympy.Expr:
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(x ** e for x, e in zip(xs, expo)))
                       for expo, c in p.terms.items()))


@pytest.mark.parametrize("case", sorted(_CORPUS_CASES))
def test_annihilator_certificates_recombine_in_sympy(case):
    """Each ``f_j a_i`` of a corpus ``yes`` is recombined, expanded in sympy,
    from the certificate's own ``multipliers`` and ``generators``: the
    distinct nonzero generators of ``I`` (``1`` at exponent 0) and the
    nonzero columns of ``pi``. Where ``pi`` has a zero column (heis3xheis3,
    lie-duals heis5) cofactor ``l`` is not column ``l``."""
    structure = parse_input(_CORPUS_CASES[case])[0]
    verdict = almost_regular_decide(structure)
    if not verdict.is_yes or structure.is_zero:
        return
    dist = verdict.payload["distribution"]
    k = dist.provenance["saturation_exponent"]
    certificate = dist.provenance["annihilator_in_saturation"].certificate
    assert k <= 1      # so the cofactors are over the columns of pi themselves
    xs = sympy.symbols(structure.variables)
    sym = lambda vectors: [[_sympy_poly(p, xs) for p in v] for v in vectors]
    generators = sym(certificate["generators"])
    multipliers = [_sympy_poly(f, xs) for f in certificate["multipliers"]]
    assert generators == [col for col in sym(structure.bivector.columns())
                          if any(e != 0 for e in col)]
    assert multipliers == ([sympy.Integer(1)] if k == 0 else [
        _sympy_poly(f, xs) for f in dict.fromkeys(structure.regular_ideal) if not f.is_zero])
    products = [(a, f) for a in dist.generators for f in multipliers]
    assert len(certificate["memberships"]) == len(products)
    for (a, f), member in zip(products, certificate["memberships"]):
        q = [_sympy_poly(c, xs) for c in member["coefficients"]]
        assert len(q) == len(generators)
        for row, entry in enumerate(a):
            combination = sum((ql * g[row] for ql, g in zip(q, generators)), sympy.Integer(0))
            assert sympy.expand(f * _sympy_poly(entry, xs) - combination) == 0


# -- distribution verification ---------------------------------------------------------------


def test_verify_distribution_heisenberg(heis):
    verdict = almost_regular_decide(heis)
    checks = verify_distribution(verdict.payload["distribution"], heis)
    assert checks.is_yes
    assert all(v.is_yes for v in checks.payload.values())


def test_verify_distribution_catches_non_involutive(heis):
    variables = ("x", "y", "t")
    pv = lambda s: Polynomial.parse(variables, s)
    # span(d/dx, x d/dt + d/dy) is not involutive: the bracket is d/dt
    gens = [[pv("1"), pv("0"), pv("0")], [pv("0"), pv("1"), pv("x")]]
    dist = DistributionPresentation(SubmodulePresentation(variables, 3, gens), 2)
    checks = verify_distribution(dist, heis)
    assert checks.is_no
    assert checks.payload["involutive"].is_no


def test_verify_distribution_witness_is_the_pair_and_its_bracket(heis):
    variables = ("x", "y", "t")
    pv = lambda s: Polynomial.parse(variables, s)
    gens = [[pv("1"), pv("0"), pv("0")], [pv("0"), pv("1"), pv("x")]]
    dist = DistributionPresentation(SubmodulePresentation(variables, 3, gens), 2)
    witness = verify_distribution(dist, heis).payload["involutive"].witness
    assert witness == {"pair": (0, 1), "bracket": ["0", "0", "1"]}


def test_verify_distribution_full_tangent_always_passes(heis):
    dist = DistributionPresentation(SubmodulePresentation.full(("x", "y", "t"), 3), 3)
    checks = verify_distribution(dist, heis)
    assert checks.payload["involutive"].is_yes
    assert checks.payload["poisson_columns"].is_yes


# -- linear structures ---------------------------------------------------------------------


@pytest.mark.parametrize("constants,center_dim", [
    (zero_constants(3), 3),
    (heis3_constants(), 1),
    (aff1_plus_r_constants(), 1),
    (su2_constants(), 0),
    (sl2_constants(), 0),
])
def test_linear_origin_kernel_matches_center(constants, center_dim):
    structure = linear_structure(constants)
    center, h0_matches_center = center_check(structure, germinal_isotropy(structure))
    assert len(center) == center_dim
    assert h0_matches_center.is_yes


def test_linear_rejects_non_lie_constants():
    c = zero_constants(3)
    c[0][1][2], c[1][0][2] = 1, -1
    c[1][2][1], c[2][1][1] = 1, -1
    assert lie_jacobi_defect(c)
    with pytest.raises(ValueError, match="structure constants fail the Lie-Jacobi identity"):
        linear_structure(c)


def test_linear_structure_runs_no_schouten_bracket(monkeypatch):
    calls = []
    original = poiskit.poisson.schouten_bracket
    monkeypatch.setattr(poiskit.poisson, "schouten_bracket",
                        lambda *args: calls.append(args) or original(*args))
    structure = linear_structure(su2_constants())
    center_check(structure, germinal_isotropy(structure))
    assert calls == []
    assert structure.jacobi.to_json() == check_jacobi(structure.bivector).to_json()


def _sympy_table(document: dict) -> list[list[list[sympy.Rational]]]:
    """The structure constants of a sparse ``lie_algebra`` document, read by
    sympy straight from the JSON entries."""
    n = len(document["coordinates"])
    c = [[[sympy.Integer(0)] * n for _ in range(n)] for _ in range(n)]
    for entry in document["structure_constants"]:
        i, j, k, v = entry["i"], entry["j"], entry["k"], sympy.Rational(entry["c"])
        c[i][j][k], c[j][i][k] = v, -v
    return c


_CENTER_CASES = {
    **{f"lie-duals:{name}": doc for name, doc in documents("lie-duals", 0).items()},
    "heis3xR_dual_rational": json.loads(
        (_GOLDEN / "heis3xR_dual_rational.input.json").read_text(encoding="utf-8")),
}


@pytest.mark.parametrize("case", sorted(_CENTER_CASES))
def test_center_check_spans_the_sympy_center_of_the_table(case):
    """The center read off the linear bivector is the sympy nullspace of the
    rows ``sum_i v_i c^k_ij = 0`` of the document's own table."""
    document = _CENTER_CASES[case]
    structure = parse_input(document)[0]
    center, verdict = center_check(structure, germinal_isotropy(structure))
    c = _sympy_table(document)
    n = len(c)
    rows = [[c[i][j][k] for i in range(n)] for j in range(n) for k in range(n)]
    oracle = sympy.Matrix(rows).nullspace()
    ours = [[sympy.Rational(v.numerator, v.denominator) for v in vec] for vec in center]
    assert len(ours) == len(oracle)
    if ours:
        joint = sympy.Matrix([*ours, *(list(v) for v in oracle)])
        assert joint.rank() == len(oracle) == sympy.Matrix(ours).rank()
    assert verdict.is_yes


def test_center_check_refuses_a_nonlinear_structure():
    quadratic = PoissonStructure.from_components(V3, {(0, 1): "z^2"})
    with pytest.raises(ValueError, match="linear structure"):
        center_check(quadratic, germinal_isotropy(quadratic))


def test_jacobi_equivalence_randomized():
    rng = random.Random(99)
    checked_yes = checked_no = 0
    for _ in range(30):
        c = zero_constants(3)
        for i in range(3):
            for j in range(i + 1, 3):
                for k in range(3):
                    v = rng.randint(-2, 2)
                    c[i][j][k], c[j][i][k] = v, -v
        direct = not lie_jacobi_defect(c)
        bracket = check_jacobi(linear_bivector(c)).is_yes
        assert direct == bracket
        checked_yes += bracket
        checked_no += not bracket
    assert checked_no > 0  # the sample hits non-Lie tables


def _dense_lie_jacobi_defect(c):
    """Reference: the defect list of ``lie_jacobi_defect`` by the dense
    formula, summing over every index m."""
    n = len(c)
    bad = [("antisymmetry", i, j, k) for i in range(n) for j in range(n) for k in range(n)
           if c[i][j][k] != -c[j][i][k]]
    for i, j, k in combinations_with_replacement(range(n), 3):
        for l in range(n):
            total = sum(c[i][j][m] * c[m][k][l] + c[j][k][m] * c[m][i][l]
                        + c[k][i][m] * c[m][j][l] for m in range(n))
            if total:
                bad.append(("jacobi", i, j, k, l))
    return bad


def test_sparse_lie_jacobi_defect_matches_dense_formula():
    lie = [zero_constants(3), su2_constants(), heis3_constants(), aff1_plus_r_constants(),
           sl2_constants(), gl_constants(2)]
    rng = random.Random(2024)
    tables = list(lie)
    for base in lie:
        n = len(base)
        for _ in range(4):
            c = [[[QQ(v) for v in row] for row in plane] for plane in base]
            i, j = rng.sample(range(n), 2)
            k = rng.randrange(n)
            v = QQ(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
            c[i][j][k] += v
            if rng.random() < 0.5:
                c[j][i][k] -= v     # keep antisymmetry, break only Jacobi
            tables.append(c)
    failing = 0
    for c in tables:
        assert lie_jacobi_defect(c) == _dense_lie_jacobi_defect(c)
        failing += bool(lie_jacobi_defect(c))
    assert all(not lie_jacobi_defect(c) for c in lie)
    assert failing > (len(tables) - len(lie)) // 2   # most perturbations break a law


def _monomials_up_to(variables, degree):
    """Reference: the exponents of degree <= ``degree``, as sorted tuples."""
    n = len(variables)
    out = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(range(n), d):
            e = [0] * n
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return sorted(out)


def test_monomial_array_lists_the_monomials_in_sorted_order():
    for n in range(8):
        for degree in range(5):
            expos = _monomial_array(n, degree)
            assert expos.shape == (len(_monomials_up_to("x" * n, degree)), n)
            assert list(map(tuple, expos.tolist())) == _monomials_up_to("x" * n, degree)


def test_monomial_array_is_shared_and_read_only():
    expos = _monomial_array(3, 2)
    assert _monomial_array(3, 2) is expos
    with pytest.raises(ValueError):
        expos[0, 0] = 1


def _casimir_rows_via_sharp(structure, monos):
    """Reference: the Casimir system built from ``sharp(d x^a)`` itself."""
    rows = {}
    for col, expo in enumerate(monos):
        mono = Polynomial(structure.variables, {expo: 1})
        ham = structure.sharp(DifferentialForm.d_of(mono))
        for (j,), poly in ham.components.items():
            for e, coeff in poly.terms.items():
                rows.setdefault((j, e), {})[col] = coeff
    return rows


def _decoded(entries, n):
    """The array-built system as ``_casimir_rows_via_sharp`` keys it: row
    code ``j + n * sum_k b_k * radix^k`` back to ``(j, b)``."""
    rows = {}
    for r, c, v in zip(entries.row.tolist(), entries.col.tolist(), entries.val.tolist()):
        code = int(entries.codes[r])
        j, code = code % n, code // n
        b = []
        for _ in range(n):
            code, digit = divmod(code, entries.radix)
            b.append(digit)
        rows.setdefault((j, tuple(b)), {})[c] = v
    return rows


@pytest.mark.parametrize("variables,components", [
    (("x", "y", "t"), {(0, 1): "t"}),                                    # Heisenberg
    (V3, {(0, 1): "z", (1, 2): "x", (0, 2): "-y"}),                      # su(2)
    (("x1", "y1", "x2", "y2"), {(0, 1): "x1", (2, 3): "x2"}),            # log-symplectic R^4
    (V3, {(0, 1): "x^2*z - 2*y^3 + 1/3*x*y*z"}),                         # cubic
])
def test_direct_casimir_rows_match_sharp(variables, components):
    structure = PoissonStructure.from_components(variables, components)
    monos = _monomials_up_to(variables, 4)
    direct = _decoded(_casimir_entries(structure.pi_matrix(), range(len(variables)), monos),
                      len(variables))
    assert direct == _casimir_rows_via_sharp(structure, monos)
    assert direct


def _casimir_basis_via_dense(structure, degree):
    """Reference: the dense kernel of the ``sharp``-built Casimir system."""
    monos = _monomials_up_to(structure.variables, degree)
    rows = _casimir_rows_via_sharp(structure, monos)
    dense = [[row.get(c, 0) for c in range(len(monos))] for row in rows.values()]
    basis = [Polynomial(structure.variables, {monos[i]: c for i, c in enumerate(v) if c})
             for v in qq_nullspace(dense, ncols=len(monos))]
    return sorted(basis, key=lambda p: (p.total_degree(), str(p)))


@pytest.mark.parametrize("components,scale", [
    ({(0, 1): "3/7*z", (1, 2): "3/7*x", (0, 2): "-3/7*y"}, 7),           # su(2) times 3/7
    ({(0, 1): "x^2*z - 2*y^3 + 1/3*x*y*z"}, 3),                          # cubic
])
def test_casimir_search_on_rational_charts_matches_dense(components, scale):
    structure = PoissonStructure.from_components(V3, components)
    basis = casimir_search(structure, 4)
    assert basis == _casimir_basis_via_dense(structure, 4)
    assert len(basis) > 1
    assert all(type(c) is int if c.denominator == 1 else type(c) is QQ
               for p in basis for c in p.terms.values())
    # the solve runs on integer rows: the exact rows times the common denominator
    monos = _monomials_up_to(V3, 4)
    exact = _decoded(_casimir_entries(structure.pi_matrix(), range(3), monos), 3)
    scaled = _casimir_entries(structure.pi_matrix(), range(3), monos, scale)
    assert scaled.val.dtype == np.int64
    assert _decoded(scaled, 3) == {k: {c: v * scale for c, v in row.items()}
                                   for k, row in exact.items()}


@st.composite
def random_charts(draw, max_columns=330):
    """A bivector on n = 1..7 coordinates (Jacobi not required) and a degree
    0..4 with at most ``max_columns`` monomials. Components have rational
    coefficients of degree <= 2; some carry pairs ``c * x_i * m`` in row i
    and ``-c * x_k * m`` in row k of one column j, whose contributions to
    ``sharp(d x^a)_j`` cancel wherever ``a_i = a_k``."""
    n = draw(st.integers(1, 7))
    variables = tuple(f"x{k}" for k in range(n))
    degree = draw(st.integers(0, 4).filter(
        lambda d: len(_monomials_up_to(variables, d)) <= max_columns))
    expo = st.tuples(*[st.integers(0, 1)] * n).filter(lambda e: sum(e) <= 2)
    coeff = st.builds(QQ, st.integers(-3, 3).filter(bool), st.sampled_from([1, 1, 2, 3]))
    pi = [[{} for _ in range(n)] for _ in range(n)]
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                              .filter(lambda t: t[0] < t[1]), max_size=4)):
        for e, c in draw(st.dictionaries(expo, coeff, min_size=1, max_size=3)).items():
            pi[i][j][e] = pi[i][j].get(e, 0) + c
    if n >= 3:
        for i, k, j in draw(st.lists(st.permutations(range(n)).map(lambda p: p[:3]),
                                     min_size=1, max_size=2)):
            m = draw(expo.filter(lambda e: sum(e) <= 1))
            c = draw(coeff)
            for row, sign in ((i, 1), (k, -1)):
                e = tuple(m[t] + (t == row) for t in range(n))
                lo, hi, s = (row, j, sign) if row < j else (j, row, -sign)
                pi[lo][hi][e] = pi[lo][hi].get(e, 0) + s * c
    components = {(i, j): Polynomial(variables, pi[i][j])
                  for i in range(n) for j in range(i + 1, n) if pi[i][j]}
    structure = PoissonStructure.unchecked(MultivectorField.bivector(variables, components))
    return structure, degree


@settings(max_examples=60, deadline=None)
@given(random_charts())
def test_casimir_entries_match_sharp_on_random_charts(chart):
    structure, degree = chart
    monos = _monomials_up_to(structure.variables, degree)
    n = len(structure.variables)
    entries = _casimir_entries(structure.pi_matrix(), range(n), monos)
    assert _decoded(entries, n) == _casimir_rows_via_sharp(structure, monos)
    # sorted by row, then column, with every summed zero dropped
    pairs = list(zip(entries.row.tolist(), entries.col.tolist()))
    assert pairs == sorted(set(pairs))
    assert all(entries.val.tolist())


@settings(max_examples=60, deadline=None)
@given(random_charts())
def test_casimir_rows_peel_like_one_row_at_a_time(chart):
    # reference: strike the column of any row with one live entry, one row
    # at a time, until none is left
    structure, degree = chart
    monos = _monomials_up_to(structure.variables, degree)
    system = list(_casimir_rows_via_sharp(structure, monos).values())
    struck, changed = set(), True
    while changed:
        changed = False
        for row in system:
            live = [c for c in row if c not in struck]
            if len(live) == 1:
                struck.add(live[0])
                changed = True
    # the solve peels the rows of scale * PI, in int64
    mat = structure.pi_matrix()
    scale = math.lcm(*(c.denominator for row in mat for p in row for c in p.terms.values()))
    left = [{c: v * scale for c, v in row.items() if c not in struck} for row in system]
    rows, live = _casimir_rows(mat, range(len(mat)), monos, scale)
    # the live columns are the others, in order; no unit row stands in for
    # a struck column, and no row left has one entry
    assert live.tolist() == [c for c in range(len(monos)) if c not in struck]
    assert all(len(r) > 1 for r in rows)
    assert all(0 <= c < len(live) for r in rows for c in r)
    assert (sorted(sorted((live[c].item(), v) for c, v in r.items()) for r in rows)
            == sorted(sorted(r.items()) for r in left if r))


@settings(max_examples=60, deadline=None)
@given(random_charts(max_columns=84))
def test_casimir_search_on_random_charts_matches_dense(chart):
    structure, degree = chart
    assert casimir_search(structure, degree) == _casimir_basis_via_dense(structure, degree)


@pytest.mark.parametrize("components", [
    {(0, 1): f"{2**70}*z", (1, 2): f"{2**70}*x", (0, 2): f"-{2**70}*y"},   # su(2) times 2^70
    {(0, 1): f"{2**61}*z + x", (1, 2): "3*x - y", (0, 2): "-y + 2*z"},      # 2^61, small ones
    {(0, 1): "z^2000000"},                                               # codes past 2^63
])
def test_casimir_search_falls_back_to_object_arrays(components):
    structure = PoissonStructure.unchecked(MultivectorField.bivector(
        V3, {k: Polynomial.parse(V3, v) for k, v in components.items()}))
    degree = 2 if "z^2000000" in components[(0, 1)] else 4
    monos = _monomials_up_to(V3, degree)
    entries = _casimir_entries(structure.pi_matrix(), range(3), monos, 1)
    assert object in (entries.val.dtype, entries.codes.dtype)
    assert _decoded(entries, 3) == _casimir_rows_via_sharp(structure, monos)
    assert casimir_search(structure, degree) == _casimir_basis_via_dense(structure, degree)


def _heis5_constants():
    c = zero_constants(5)
    for i, j in ((0, 1), (2, 3)):
        c[i][j][4], c[j][i][4] = 1, -1
    return c


def _su2_plus_r2_constants():
    c = zero_constants(5)
    for i, plane in enumerate(su2_constants()):
        for j, row in enumerate(plane):
            c[i][j][:3] = row
    return c


@pytest.mark.parametrize("constants,count", [
    (_heis5_constants(), 5),           # 1, x5, ..., x5^4: every row has one entry
    (_su2_plus_r2_constants(), 22),    # polynomials in x1^2 + x2^2 + x3^2, x4, x5
])
def test_casimir_search_on_five_dimensional_lie_duals_matches_dense(constants, count):
    structure = linear_structure(constants)
    assert len(_monomials_up_to(structure.variables, 4)) == 126
    basis = casimir_search(structure, 4)
    assert basis == _casimir_basis_via_dense(structure, 4)
    assert len(basis) == count


def test_casimir_search_on_the_zero_bivector_returns_every_monomial():
    structure = PoissonStructure.from_components(V3, {})
    basis = casimir_search(structure, 3)
    monomials = [Polynomial(V3, {e: 1}) for e in _monomials_up_to(V3, 3)]
    assert basis == sorted(monomials, key=lambda p: (p.total_degree(), str(p)))
    assert len(basis) == 20
    assert all(type(c) is int if c.denominator == 1 else type(c) is QQ
               for p in basis for c in p.terms.values())

# -- rows K of a nonzero top Pfaffian ----------------------------------------------------------


def _direct_sum(a, b):
    n, m = len(a), len(b)
    c = zero_constants(n + m)
    for i, j, k in product(range(n), repeat=3):
        c[i][j][k] = a[i][j][k]
    for i, j, k in product(range(m), repeat=3):
        c[n + i][n + j][n + k] = b[i][j][k]
    return c


def _basis_changed(c, a):
    """The table of the same Lie algebra in the basis ``e'_i = sum_m a[i][m] e_m``:
    ``e_m = sum_l inv[m][l] e'_l``."""
    n = len(c)
    inv = sympy.Matrix(a).inv()
    out = zero_constants(n)
    for i, j in product(range(n), repeat=2):
        bracket = [sum(a[i][p] * a[j][q] * c[p][q][m] for p in range(n) for q in range(n))
                   for m in range(n)]
        for l in range(n):
            v = sympy.Rational(sum(bracket[m] * inv[m, l] for m in range(n)))
            out[i][j][l] = QQ(int(v.p), int(v.q))
    return out


_LIE_PARTS = [lambda: zero_constants(1), heis3_constants, su2_constants, sl2_constants,
              aff1_plus_r_constants, lambda: gl_constants(2)]


@st.composite
def random_lie_tables(draw) -> PoissonStructure:
    """The dual of one or two small Lie algebras summed (n 1..7), in a basis
    ``L D U`` with unit triangular ``L``, ``U`` and a rational diagonal ``D``."""
    parts = draw(st.lists(st.sampled_from(_LIE_PARTS), min_size=1, max_size=2)
                 .filter(lambda ps: sum(len(part()) for part in ps) <= 7))
    c = parts[0]()
    for part in parts[1:]:
        c = _direct_sum(c, part())
    n = len(c)
    small = st.integers(-2, 2)
    low = sympy.Matrix(n, n, lambda i, j: draw(small) if i > j else int(i == j))
    up = sympy.Matrix(n, n, lambda i, j: draw(small) if i < j else int(i == j))
    diag = sympy.diag(*[draw(st.sampled_from([1, -1, 2, sympy.Rational(-1, 2), 3]))
                        for _ in range(n)])
    a = (low * diag * up).tolist()
    return linear_structure(_basis_changed(c, a))


def _structures():
    return st.one_of(random_charts().map(lambda chart: chart[0]),
                     random_lie_tables())


def _rows_of(entries):
    rows = [{} for _ in range(len(entries.codes))]
    for r, c, v in zip(entries.row.tolist(), entries.col.tolist(), entries.val.tolist()):
        rows[r][c] = v
    return rows


@settings(max_examples=60, deadline=None)
@given(_structures())
def test_spanning_rows_carry_a_nonzero_top_pfaffian(structure):
    rows = structure.spanning_rows
    assert len(rows) == 2 * structure.k
    assert rows == min(structure.top.components)
    if rows:
        # det PI[K][K] = Pf(pi_K)^2, by cofactor expansion
        mat = structure.pi_matrix()
        assert determinant([[mat[i][j] for j in rows] for i in rows])


@settings(max_examples=60, deadline=None)
@given(_structures(), st.integers(0, 3))
def test_casimir_system_of_spanning_rows_has_the_kernel_of_all_rows(structure, degree):
    n = len(structure.variables)
    monos = _monomials_up_to(structure.variables, degree)
    mat = structure.pi_matrix()
    spanning = _casimir_entries(mat, structure.spanning_rows, monos)
    every = _casimir_entries(mat, range(n), monos)
    assert {int(code) % n for code in spanning.codes} <= set(structure.spanning_rows)
    assert _decoded(spanning, n) == {key: row for key, row in _decoded(every, n).items()
                                     if key[0] in structure.spanning_rows}
    assert (sparse_nullspace(_rows_of(spanning), len(monos))
            == sparse_nullspace(_rows_of(every), len(monos)))


@settings(max_examples=30, deadline=None)
@given(random_lie_tables())
def test_center_of_spanning_rows_is_the_center_of_all_rows(structure):
    n = len(structure.variables)
    mat = structure.pi_matrix()
    units = [tuple(int(m == k) for m in range(n)) for k in range(n)]
    rows = [[mat[i][j].terms.get(units[k], 0) for i in range(n)]
            for j in range(n) for k in range(n)]
    # the center does not depend on the kernel module the verdict reads
    no_module = SimpleNamespace(module=SimpleNamespace(generators=()))
    center, _ = center_check(structure, no_module)
    assert center == nullspace(rows, n)


def _book_constants():
    # [e3, e1] = e1, [e3, e2] = 2 e2: no polynomial Casimir but constants
    c = zero_constants(3)
    c[2][0][0], c[0][2][0] = 1, -1
    c[2][1][1], c[1][2][1] = 2, -2
    return c


@pytest.mark.parametrize("structure", [
    pytest.param(lambda: linear_structure(su2_constants()), id="su2"),
    pytest.param(lambda: linear_structure(heis3_constants()), id="heis3"),
    pytest.param(lambda: parse_input(documents("lie-duals", 0)["so4.0"])[0], id="so4"),
    pytest.param(lambda: parse_input(documents("lie-duals", 0)["se3.0"])[0], id="se3"),
    pytest.param(lambda: linear_structure(_book_constants()), id="book"),
])
def test_syzygies_of_spanning_rows_equal_those_of_all_rows(structure):
    # so(5)* agrees too, but its syzygies take about 45 s on either row set,
    # too long for this suite
    structure = structure()
    mat = structure.pi_matrix()
    spanning = syzygies([mat[i] for i in structure.spanning_rows], structure.variables)
    assert spanning.generators == syzygies(mat, structure.variables).generators
    assert len(structure.spanning_rows) < len(mat)


def test_the_book_algebra_takes_the_syzygy_route():
    structure = linear_structure(_book_constants())
    iso = germinal_isotropy(structure)
    assert iso.route == "syzygy"
    assert structure.spanning_rows == (0, 2)
    assert iso.module.generators == syzygies(structure.pi_matrix(),
                                             structure.variables).generators


# -- foliation modules -----------------------------------------------------------------------


def _actions_pair(k: int = 2):
    variables = ("x1", "y1", "x2", "y2")
    pv = lambda s: Polynomial.parse(variables, s)
    v = MultivectorField.from_coefficients(
        variables, [pv("x1"), pv("y1"), pv(f"{k}*x2"), pv(f"{k}*y2")])
    w = MultivectorField.from_coefficients(
        variables, [pv("-y1"), pv("x1"), pv(f"-{k}*y2"), pv(f"{k}*x2")])
    return variables, v, w


def test_action_foliation_is_projective():
    variables, v, w = _actions_pair()
    fol = foliation_module([v, w])
    assert fol.fiber_dim_at([0, 0, 0, 0]) == 2
    assert fol.fiber_dim_at([1, 0, 0, 0]) == 2
    assert fol.projectivity().is_yes
    assert fol.is_bracket_closed().is_yes


def test_bracket_closure_witness_is_the_first_open_pair():
    # [d/dx, x d/dy] = d/dy, and (0, 1) is not in the module of (1, 0), (0, x)
    variables = ("x", "y")
    pv = lambda s: Polynomial.parse(variables, s)
    fol = foliation_module([MultivectorField.from_coefficients(variables, [pv("1"), pv("0")]),
                            MultivectorField.from_coefficients(variables, [pv("0"), pv("x")])])
    verdict = fol.is_bracket_closed()
    assert verdict.is_no
    assert verdict.witness == {"pair": (0, 1)}


def test_quadratic_image_foliation_not_projective():
    variables, v, w = _actions_pair()
    pi = PoissonStructure(wedge(v, w))
    fol = foliation_module([MultivectorField.from_coefficients(variables, col)
                            for col in pi.bivector.columns()])
    assert fol.fiber_dim_at([0, 0, 0, 0]) == 4
    assert fol.fiber_dim_at([1, 0, 0, 0]) == 2
    verdict = fol.projectivity()
    assert verdict.is_no
    assert verdict.payload["dims"] == {"at_witness": 4, "generic": 2}


def test_quadratic_image_inside_action_module():
    variables, v, w = _actions_pair()
    pi = PoissonStructure(wedge(v, w))
    inner = foliation_module([MultivectorField.from_coefficients(variables, col)
                              for col in pi.bivector.columns()])
    outer = foliation_module([v, w])
    assert foliation_inclusion(inner, outer).is_yes


def test_matrix_action_foliation_dimension_profile():
    variables = ("x", "y")
    pv = lambda s: Polynomial.parse(variables, s)
    gens = [
        MultivectorField.from_coefficients(variables, [pv("x"), pv("0")]),
        MultivectorField.from_coefficients(variables, [pv("y"), pv("0")]),
        MultivectorField.from_coefficients(variables, [pv("0"), pv("x")]),
        MultivectorField.from_coefficients(variables, [pv("0"), pv("y")]),
    ]
    fol = foliation_module(gens)
    assert fol.fiber_dim_at([0, 0]) == 4
    assert fol.fiber_dim_at([1, 0]) == 2
    assert fol.projectivity().is_no
