"""Derived structures: scaling, products, cosymplectic reduction, log-type
classification, leaf restriction."""

from __future__ import annotations

import random

import numpy as np
import pytest

from poiskit._kernel import QQ
from poiskit.polyalg import MultivectorField, Polynomial
from poiskit.modcalc import SubmodulePresentation
from poiskit.poisson import PoissonStructure, ZeroBivectorError, almost_regular_decide, check_jacobi
from poiskit.construct import (
    ALMOST_REGULAR_NOT_LOG_F,
    CasimirError,
    CosymplecticError,
    LOG_F_SYMPLECTIC,
    LOG_SYMPLECTIC,
    NOT_ALMOST_REGULAR,
    REGULAR,
    cosymplectic_reduce,
    direct_product,
    induced_bivector_at,
    logf_classify,
    restrict_to_leaf,
    scale_by_casimir,
    trans_part_in_sharp_normal,
)

VXT = ("x", "y", "t")


# -- Casimir scaling -------------------------------------------------------------


def test_scaling_constant_symplectic_by_height():
    base = PoissonStructure.from_components(VXT, {(0, 1): "1"})
    t = Polynomial.variable(VXT, "t")
    result = scale_by_casimir(base, t)
    assert result.structure.bivector == PoissonStructure.from_components(
        VXT, {(0, 1): "t"}).bivector
    assert result.distributions_equal.is_yes


def test_scaling_by_one_is_identity(heis):
    result = scale_by_casimir(heis, Polynomial.one(VXT))
    assert result.structure.bivector == heis.bivector
    assert result.distributions_equal.is_yes


def test_scaling_heisenberg_by_height_keeps_distribution(heis):
    t = Polynomial.variable(VXT, "t")
    result = scale_by_casimir(heis, t)
    assert result.structure.bivector == PoissonStructure.from_components(
        VXT, {(0, 1): "t^2"}).bivector
    assert result.distributions_equal.is_yes


def test_scaling_rejects_non_casimir_and_zero(heis):
    with pytest.raises(CasimirError):
        scale_by_casimir(heis, Polynomial.variable(VXT, "x"))
    with pytest.raises(CasimirError):
        scale_by_casimir(heis, Polynomial.zero(VXT))


def test_scaling_library_seeded(heis):
    # bases x Casimir polynomials; jacobi and distribution equality each time
    rng = random.Random(31)
    quad = PoissonStructure.from_components(
        ("x1", "y1", "x2", "y2"), {(0, 1): "x1^2 + y1^2"})
    bases = [heis, PoissonStructure.from_components(VXT, {(0, 1): "1"}), quad]
    casimir_vars = {0: ["t"], 1: ["t"], 2: ["x2", "y2"]}
    for trial in range(10):
        which = rng.randrange(len(bases))
        base = bases[which]
        names = casimir_vars[which]
        f = Polynomial.constant(base.variables, rng.randint(1, 3))
        for _ in range(rng.randint(1, 2)):
            v = Polynomial.variable(base.variables, rng.choice(names))
            f = f + v.scale(rng.randint(-2, 2)) + v * v.scale(rng.randint(0, 1))
        result = scale_by_casimir(base, f)
        assert check_jacobi(result.structure.bivector).is_yes
        assert result.distributions_equal.is_yes


# -- products -----------------------------------------------------------------------


def test_product_of_heisenbergs(heis):
    product = direct_product(heis, heis)
    assert product.k == 2
    verdict = almost_regular_decide(product)
    assert verdict.is_yes
    assert verdict.payload["distribution"].rank == 4


def test_product_with_zero_factor(heis):
    zero = PoissonStructure(MultivectorField.zero(("u", "v", "w"), 2))
    product = direct_product(heis, zero)
    assert product.k == heis.k
    assert almost_regular_decide(product).is_yes


def test_product_of_symplectic_pieces_is_regular():
    s = PoissonStructure.from_components(("q", "p"), {(0, 1): "1"})
    product = direct_product(s, s)
    assert product.k == 2
    assert logf_classify(product).verdict == REGULAR


def test_product_distribution_is_direct_sum(heis):
    product = direct_product(heis, heis)
    dist = almost_regular_decide(product).payload["distribution"]
    variables = product.variables
    one = Polynomial.one(variables)
    zero = Polynomial.zero(variables)
    block = [[one if i == j else zero for j in range(6)] for i in (0, 1, 3, 4)]
    expected = SubmodulePresentation(variables, 6, block)
    assert dist.module.equals_module(expected).is_yes


# -- cosymplectic reduction ------------------------------------------------------------


R6 = ("t", "th", "x1", "x2", "x3", "x4")


def _r6_structure() -> PoissonStructure:
    return PoissonStructure.from_components(R6, {(0, 1): "t", (2, 3): "1", (4, 5): "1"})


def _r6_w():
    return [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]]


def test_r6_reduction_reproduces_mixed_bivector():
    ps = _r6_structure()
    red = cosymplectic_reduce(ps, _r6_w())
    expected = PoissonStructure.from_components(R6, {(0, 1): "t", (2, 3): "1"})
    assert red.structure.bivector == expected.bivector
    assert red.cosymplectic_certificate.is_yes
    assert red.pi_trans == PoissonStructure.from_components(R6, {(4, 5): "1"}).bivector


def test_r6_trans_part_lies_in_sharp_normal_samples():
    rng = random.Random(41)
    ps = _r6_structure()
    red = cosymplectic_reduce(ps, _r6_w())
    for _ in range(20):
        pt = [QQ(rng.randint(-6, 6), rng.randint(1, 4)) for _ in R6]
        assert trans_part_in_sharp_normal(ps, red, pt)


def test_full_subspace_reduction_is_identity():
    ps = _r6_structure()
    full = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    red = cosymplectic_reduce(ps, full)
    assert red.structure.bivector == ps.bivector
    assert red.pi_trans.is_zero


def test_pointwise_failure_reports_defect():
    ps = _r6_structure()
    w = [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]
    with pytest.raises(CosymplecticError) as err:
        induced_bivector_at(ps, w, [0, 1, 1, 1, 1, 1])
    assert err.value.defect["intersection_dim"] >= 1


@pytest.mark.parametrize("reduce", [
    lambda ps, w: induced_bivector_at(ps, w, [QQ(1), QQ(0), QQ(0), QQ(0)]),
    cosymplectic_reduce,
])
def test_w_basis_of_the_wrong_length_is_rejected(reduce):
    ps = PoissonStructure.from_components(("x", "y", "z", "w"), {(0, 1): "1", (2, 3): "1"})
    with pytest.raises(ValueError, match="chart dimension"):
        reduce(ps, [[1, 0], [0, 1]])


@pytest.mark.parametrize("scale", [QQ(1, 10 ** 12), 10 ** 12], ids=["1e-12", "1e12"])
def test_pointwise_is_exact_whatever_the_scale_of_the_normal_block(scale):
    """``x3, x4`` carry ``scale * dx3 ^ dx4``: the determinant of
    ``[sharp(W°) | W]`` is ``scale^2``, certified nonvanishing, so every
    point splits, however small the entries of ``sharp(W°)``."""
    ps = PoissonStructure.from_components(R6, {(0, 1): "t", (2, 3): "1", (4, 5): str(scale)})
    red = cosymplectic_reduce(ps, _r6_w())
    assert red.cosymplectic_certificate.is_yes
    assert red.determinant == Polynomial.constant(R6, scale * scale)
    assert red.pointwise([2, 1, 0, 0, 0, 0]) == [[0, 2, 0, 0], [-2, 0, 0, 0],
                                                 [0, 0, 0, 1], [0, 0, -1, 0]]


@pytest.mark.parametrize("ftype", [float, np.float64, np.float32, np.float16])
def test_pointwise_refuses_a_float_coordinate(ftype):
    ps = _r6_structure()
    red = cosymplectic_reduce(ps, _r6_w())
    point = [2, 1, 0, 0, 0, ftype(0.5)]
    with pytest.raises(TypeError, match="not exact"):
        induced_bivector_at(ps, _r6_w(), point)
    with pytest.raises(TypeError, match="not exact"):
        red.pointwise(point)


def test_pointwise_matches_symbolic_at_rational_points():
    rng = random.Random(43)
    ps = _r6_structure()
    w = _r6_w()
    red = cosymplectic_reduce(ps, w)
    for _ in range(5):
        pt = [QQ(rng.randint(1, 5)), QQ(rng.randint(-3, 3)), QQ(rng.randint(-3, 3)),
              QQ(rng.randint(-3, 3)), QQ(rng.randint(-3, 3)), QQ(rng.randint(-3, 3))]
        induced = induced_bivector_at(ps, w, pt)
        # skewness and the symbolic values expressed in the W-frame
        new_val = red.structure.bivector.evaluate(pt).skew_matrix()
        for a in range(4):
            for b in range(4):
                assert induced[a][b] == -induced[b][a]
                wa, wb = w[a], w[b]
                symbolic = sum(wa[i] * new_val[i][j] * wb[j]
                               for i in range(6) for j in range(6))
                assert induced[a][b] == symbolic


# -- log-type classification --------------------------------------------------------------


R3 = ("x1", "x2", "x3")


@pytest.mark.parametrize("f,expected_zsing", [
    ("x1", "unit"),       # transverse leaves: the singular subset is empty
    ("x3", "equals_z"),   # leaves tangent to Z everywhere
    ("x3 - x1^2", "line"),
])
def test_plane_field_zoo(f, expected_zsing):
    ps = PoissonStructure.from_components(R3, {(0, 1): f})
    cl = logf_classify(ps)
    assert cl.verdict == LOG_F_SYMPLECTIC
    zsing = SubmodulePresentation.ideal(R3, cl.z_sing_ideal)
    z = SubmodulePresentation.ideal(R3, cl.z_ideal)
    if expected_zsing == "unit":
        assert [str(g[0]) for g in zsing.groebner_basis()] == ["1"]
    elif expected_zsing == "equals_z":
        assert zsing.equals_module(z).is_yes
    else:
        pv = lambda s: Polynomial.parse(R3, s)
        line = SubmodulePresentation.ideal(R3, [pv("x1"), pv("x3")])
        assert zsing.equals_module(line).is_yes
    # Z_sing ideal contains the Z ideal
    assert z.is_submodule_of(zsing).is_yes


def test_heisenberg_classification(heis):
    cl = logf_classify(heis)
    assert cl.verdict == LOG_F_SYMPLECTIC
    assert str(cl.g) == "t"
    zsing = SubmodulePresentation.ideal(VXT, cl.z_sing_ideal)
    z = SubmodulePresentation.ideal(VXT, cl.z_ideal)
    assert zsing.equals_module(z).is_yes


def test_log_symplectic_r2():
    ps = PoissonStructure.from_components(("x", "y"), {(0, 1): "x"})
    assert logf_classify(ps).verdict == LOG_SYMPLECTIC


def test_regular_symplectic():
    ps = PoissonStructure.from_components(("x", "y"), {(0, 1): "1"})
    assert logf_classify(ps).verdict == REGULAR


def test_not_almost_regular_branch(su2):
    assert logf_classify(su2).verdict == NOT_ALMOST_REGULAR


def test_zero_bivector_classification_errors():
    ps = PoissonStructure(MultivectorField.zero(R3, 2))
    with pytest.raises(ZeroBivectorError):
        logf_classify(ps)


def test_g_nonzero_on_regular_samples(heis):
    rng = random.Random(51)
    cl = logf_classify(heis)
    for _ in range(20):
        pt = [QQ(rng.randint(-5, 5)), QQ(rng.randint(-5, 5)), QQ(rng.randint(1, 5))]
        assert cl.g.eval(pt) != 0


def test_quadratic_plane_field_not_transverse():
    # g = x1^2 + y1^2 vanishes to second order on its zero set
    ps = PoissonStructure.from_components(("x1", "y1", "x2", "y2"), {(0, 1): "x1^2 + y1^2"})
    cl = logf_classify(ps)
    assert cl.verdict == ALMOST_REGULAR_NOT_LOG_F
    assert cl.transversality.is_no


# -- leaf restriction ------------------------------------------------------------------------


def test_leaf_restriction_parabola_family():
    ps = PoissonStructure.from_components(R3, {(0, 1): "x3 - x1^2"})
    top = restrict_to_leaf(ps, {"x3": 1})
    assert top.structure.bivector == PoissonStructure.from_components(
        ("x1", "x2"), {(0, 1): "1 - x1^2"}).bivector
    assert top.classification.verdict == LOG_SYMPLECTIC
    bottom = restrict_to_leaf(ps, {"x3": 0})
    assert bottom.classification.verdict == ALMOST_REGULAR_NOT_LOG_F
    assert bottom.classification.transversality.is_no


def test_leaf_restriction_commutes_with_evaluation():
    ps = PoissonStructure.from_components(R3, {(0, 1): "x3 - x1^2"})
    leaf = restrict_to_leaf(ps, {"x3": QQ(1, 2)})
    for x1, x2 in [(0, 0), (1, 2), (QQ(-1, 2), 3)]:
        full = ps.bivector.evaluate([x1, x2, QQ(1, 2)]).skew_matrix()
        small = leaf.structure.bivector.evaluate([x1, x2]).skew_matrix()
        assert small[0][1] == full[0][1]


def test_leaf_restriction_rejects_bad_slices():
    ps = PoissonStructure.from_components(R3, {(0, 1): "x3 - x1^2"})
    with pytest.raises(ValueError):
        restrict_to_leaf(ps, {"x1": 1})


def test_whole_space_leaf_for_symplectic():
    ps = PoissonStructure.from_components(("x", "y"), {(0, 1): "1"})
    leaf = restrict_to_leaf(ps, {})
    assert leaf.structure.bivector == ps.bivector
    assert leaf.classification.verdict == REGULAR
