"""Groupoid model axioms, slice symplectic forms, the pair morphism, and
monodromy periods."""

from __future__ import annotations

import math
import random
import re
import struct
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poiskit._kernel import QQ
from poiskit.polyalg import MultivectorField, Polynomial
from poiskit.poisson import PoissonStructure
from poiskit.groupoid import (
    LinearGroupoidModel,
    MonodromyProblem,
    SphereMap,
    _BLOCK_POINTS,
    _integrate,
    monodromy_period,
    omega_form,
    pair_morphism_check,
    pairwise_sum,
    planar_sphere,
    round_sphere,
)
from conftest import su2_structure

T = ("t",)
STANDARD_PI = [[0, 1], [-1, 0]]


def height_model() -> LinearGroupoidModel:
    return LinearGroupoidModel(STANDARD_PI, Polynomial.variable(T, "t"))


def rvec(rng, d=2):
    return tuple(QQ(rng.randint(-30, 30), rng.randint(1, 8)) for _ in range(d))


def test_model_rejects_bad_data():
    with pytest.raises(ValueError):
        LinearGroupoidModel([[0, 1], [1, 0]], Polynomial.variable(T, "t"))
    with pytest.raises(ValueError):
        LinearGroupoidModel([[0, 0], [0, 0]], Polynomial.variable(T, "t"))


@pytest.mark.parametrize("pi", [
    [[0, 1, 5], [-1, 0, 7]],           # 2 x 3: the third column would be dropped
    [[0, 1], [-1]],                    # ragged
    [[0], [1, 0]],
    [],                                # d = 0 would reach the empty determinant
])
def test_model_rejects_a_pi_that_is_not_a_nonempty_square_matrix(pi):
    with pytest.raises(ValueError, match="nonempty square matrix"):
        LinearGroupoidModel(pi, Polynomial.variable(T, "t"))


def test_unit_law_and_inverse_exact():
    model = height_model()
    rng = random.Random(5)
    for _ in range(100):
        t = QQ(rng.randint(-9, 9), rng.randint(1, 4))
        g = (rvec(rng), rvec(rng), t)
        unit_s = model.unit(*model.source(g))
        unit_t = model.unit(*model.target(g))
        assert model.multiply(g, unit_s) == g
        assert model.multiply(unit_t, g) == g
        gi = model.inverse(g)
        assert model.multiply(g, gi) == unit_t
        assert model.multiply(gi, g) == unit_s


def test_associativity_exact_on_composable_triples():
    model = height_model()
    rng = random.Random(6)
    for _ in range(300):
        t = QQ(rng.randint(-9, 9), rng.randint(1, 4))
        h = (rvec(rng), rvec(rng), t)
        g = (rvec(rng), model.target(h)[0], t)
        k = (rvec(rng), model.target(g)[0], t)
        assert (model.multiply(model.multiply(k, g), h)
                == model.multiply(k, model.multiply(g, h)))


def test_non_composable_rejected():
    model = height_model()
    g = ((QQ(1), QQ(0)), (QQ(0), QQ(0)), QQ(1))
    h = ((QQ(1), QQ(0)), (QQ(5), QQ(5)), QQ(1))
    if model.composable(g, h):  # pragma: no cover - fixed data
        pytest.skip("accidentally composable")
    with pytest.raises(ValueError):
        model.multiply(g, h)


# H = (xi, v, t) has target w = (0, 1) under the height model at t = 1
H = ((1, 0), (0, 0), 1)
W = (0, 1)


@pytest.mark.parametrize("call", [
    lambda m: m.sharp((1,)),
    lambda m: m.sharp((1, 2, 3)),
    lambda m: m.translation((1,), 1),
    lambda m: m.source(((1, 2), (3,), 1)),
    lambda m: m.target(((1, 2, 3), (0, 0), 1)),
    lambda m: m.unit((1, 2, 3), 0),
    lambda m: m.inverse(((1,), (0, 0), 1)),
    lambda m: m.composable(((0, 0), (*W, 5), 1), H),
    lambda m: m.composable(((0, 0), W[:1], 1), H),
    lambda m: m.composable(((0, 0), W, 1), ((1, 0, 7), (0, 0), 1)),
    lambda m: m.multiply(((0, 0, 5), W, 1), H),
    lambda m: m.pair_map(((1, 2), (3, 4, 5), 1)),
    lambda m: m.pair_slice_inverse(((1, 2, 3), (0, 0), 1)),
    lambda m: m.pair_slice_inverse(((1, 2), (0,), 1)),
], ids=["sharp-short", "sharp-long", "translation", "source", "target", "unit", "inverse",
        "composable-long-v", "composable-short-v", "composable-long-h", "multiply",
        "pair_map", "pair_slice_inverse-w", "pair_slice_inverse-v"])
def test_every_map_checks_the_lengths(call):
    model = height_model()
    assert model.target(H) == (W, 1) and model.composable(((0, 0), W, 1), H)
    with pytest.raises(ValueError, match=r"has \d+ entries, expected 2"):
        call(model)


def test_inverse_formula():
    model = height_model()
    g = ((QQ(2), QQ(-3)), (QQ(1), QQ(1)), QQ(2))
    xi, v, t = g
    translated = model.translation(xi, t)
    expected = (tuple(-x for x in xi), tuple(a + b for a, b in zip(v, translated)), t)
    assert model.inverse(g) == expected


def test_omega_at_zero_of_profile_is_block_pairing():
    model = height_model()
    rep = omega_form(model, 0)
    d = 2
    for i in range(d):
        for j in range(d):
            assert rep.matrix[i][j] == 0
        assert rep.matrix[i][d + i] == -1
        assert rep.matrix[d + i][i] == 1
    assert rep.determinant == 1 and rep.nondegenerate


def test_omega_explicit_matrix_at_t_one():
    model = height_model()
    rep = omega_form(model, 1)
    expected = [
        [0, 1, -1, 0],
        [-1, 0, 0, -1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]
    assert [[int(x) for x in row] for row in rep.matrix] == expected


def test_omega_skew_random_parameters():
    rng = random.Random(8)
    model = height_model()
    for _ in range(20):
        t = QQ(rng.randint(-20, 20), rng.randint(1, 10))
        rep = omega_form(model, t)
        m = rep.matrix
        assert all(m[i][j] == -m[j][i] for i in range(4) for j in range(4))
        assert rep.determinant != 0


def test_pair_morphism_report():
    model = height_model()
    rep = pair_morphism_check(model, samples=300, seed=0)
    assert rep.morphism_exact
    assert rep.anti_poisson_max_residual < 1e-9
    assert rep.rank_at_zero == {0.0: 3}


@pytest.mark.parametrize("profile, expected", [
    ("t", {0.0: 3}),
    ("t - 1", {1.0: 3}),
    ("t^2 - 1/4", {-0.5: 3, 0.5: 3}),
    ("t^2 + 1", {}),
    ("6*t^3 - 5*t^2 + t", {0.0: 3, 1 / 3: 3, 0.5: 3}),
])
def test_pair_morphism_probes_every_rational_root(profile, expected):
    model = LinearGroupoidModel(STANDARD_PI, Polynomial.parse(T, profile))
    rep = pair_morphism_check(model, samples=20, seed=1)
    assert rep.rank_at_zero == expected
    assert list(rep.rank_at_zero) == sorted(expected)


def test_slice_bijection_when_profile_is_one():
    model = LinearGroupoidModel(STANDARD_PI, Polynomial.one(T))
    rng = random.Random(9)
    for _ in range(50):
        g = (rvec(rng), rvec(rng), QQ(rng.randint(-5, 5)))
        assert model.pair_slice_inverse(model.pair_map(g)) == g


def test_composable_is_exact_with_no_tolerance():
    model = height_model()
    h = ((1, 0), (QQ(1, 2), QQ(1, 4)), 2)
    w, t = model.target(h)
    assert model.composable(((0, 1), w, t), h)
    nudged = tuple(x + QQ(1, 10 ** 14) for x in w)
    assert not model.composable(((0, 1), nudged, t), h)
    with pytest.raises(TypeError, match="not exact"):
        model.composable(((0, 1), tuple(float(x) for x in w), t), h)


def test_pairwise_sum_deterministic():
    values = [0.1 * k for k in range(101)]
    assert pairwise_sum(values) == pairwise_sum(list(values))
    assert pairwise_sum([]) == 0.0
    assert pairwise_sum([2.5]) == 2.5


def _loop_pairwise_sum(values: list[float]) -> float:
    """The tree of ``pairwise_sum`` in Python float addition, one pair at a time."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return float(vals[0])


def _bits(x: float) -> bytes:
    return b"nan" if math.isnan(x) else struct.pack("<d", x)


_EDGE_FLOATS = st.sampled_from([math.inf, -math.inf, math.nan, 1.7e308, -1.7e308,
                                8.9e307, -8.9e307, 5e-324, -0.0, 0.0])


@st.composite
def float_lists(draw) -> list[float]:
    """Lists of length 0-2000: seeded values of every magnitude up to 1e308,
    with hypothesis's own floats (infinities and NaN included) and values
    near the overflow edge placed at drawn positions."""
    size = draw(st.integers(0, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = (rng.standard_normal(size) * 10.0 ** rng.integers(-300, 308, size)).tolist()
    for x in draw(st.lists(st.one_of(st.floats(), _EDGE_FLOATS), max_size=12)):
        values.insert(draw(st.integers(0, len(values))), x)
    return values


@settings(max_examples=150, deadline=None)
@given(float_lists())
def test_pairwise_sum_matches_the_python_loop_bit_for_bit(values):
    # overflow and inf + -inf raise no RuntimeWarning (tier-1 makes one an error)
    assert _bits(pairwise_sum(values)) == _bits(_loop_pairwise_sum(values))
    assert _bits(pairwise_sum(np.array(values))) == _bits(_loop_pairwise_sum(values))


# -- monodromy ------------------------------------------------------------------------


def test_flat_splitting_has_zero_period():
    flat = PoissonStructure.from_components(("x", "y", "t"), {(0, 1): "1"})
    problem = MonodromyProblem(flat, planar_sphere(1.0, 3, axes=(0, 1), center=[0, 0, 1]))
    result = monodromy_period(problem, meshes=(16, 24))
    assert abs(result.value) < 1e-8
    assert result.max_splitting_residual < 1e-12


def test_rotation_invariant_period_matches_oracle():
    # two-mesh refinement oracle, value recorded from the converged runs
    su2 = su2_structure()
    problem = MonodromyProblem(su2, round_sphere(1.0, 3))
    result = monodromy_period(problem, meshes=(32, 64))
    assert abs(result.value - result.coarse_value) <= 1e-6 * abs(result.value)
    assert result.value == pytest.approx(4 * math.pi, rel=1e-9)
    assert result.max_splitting_residual < 1e-12


def test_period_ratio_between_radii_from_oracle():
    su2 = su2_structure()
    one = monodromy_period(MonodromyProblem(su2, round_sphere(1.0, 3)), meshes=(32, 64))
    two = monodromy_period(MonodromyProblem(su2, round_sphere(2.0, 3)), meshes=(32, 64))
    # oracle-computed ratio: the period is radius independent for this family
    assert two.value / one.value == pytest.approx(1.0, rel=1e-9)


def test_gauge_perturbation_invariance():
    su2 = su2_structure()
    base = monodromy_period(MonodromyProblem(su2, round_sphere(1.0, 3)), meshes=(32, 64))
    rng = random.Random(13)
    gauge = [QQ(rng.randint(-10, 10), 100) for _ in range(3)]
    perturbed = monodromy_period(
        MonodromyProblem(su2, round_sphere(1.0, 3), gauge=gauge), meshes=(32, 64))
    assert abs(perturbed.value - base.value) < 1e-6 * abs(base.value)


def test_monodromy_rejects_singular_sphere():
    su2 = su2_structure()
    problem = MonodromyProblem(su2, round_sphere(1.0, 3, center=[1, 0, 0]))
    with pytest.raises(ValueError):
        monodromy_period(problem, meshes=(8, 12))


def test_monodromy_requires_single_generator_kernel():
    ps = PoissonStructure.from_components(("x", "y", "z", "w"), {(0, 1): "1"})
    with pytest.raises(ValueError):
        MonodromyProblem(ps, round_sphere(1.0, 4))


@pytest.mark.parametrize("structure, sphere, message", [
    # a round sphere off the origin crosses the su(2) leaves
    (su2_structure(), round_sphere(1.0, 3, center=[0, 0, 3]), "splitting residual too large"),
    # the plane t = 0 is where t dx ^ dy vanishes
    (PoissonStructure.from_components(("x", "y", "t"), {(0, 1): "t"}),
     planar_sphere(1.0, 3, axes=(0, 1), center=[0, 0, 0]), "singular locus"),
])
def test_monodromy_guards_name_the_failure(structure, sphere, message):
    with pytest.raises(ValueError, match=message):
        monodromy_period(MonodromyProblem(structure, sphere), meshes=(8, 12))


def reference_curvature(problem: MonodromyProblem, x) -> np.ndarray:
    """The per-point formula on the exact polynomials, with ``Polynomial.eval``."""
    n = problem.n
    alpha = np.array([float(p.eval(list(x))) for p in problem.alpha])
    norm = float(np.linalg.norm(alpha))
    pt = list(x) + [1.0 / (norm * norm)]
    out = np.zeros((n, n))
    for k, (i, j) in enumerate((i, j) for i in range(n) for j in range(i + 1, n)):
        vec = np.array([float(p.eval(pt)) for p in problem.curvature_scalars[k * n:(k + 1) * n]])
        out[i, j] = float(vec @ alpha) / norm
        out[j, i] = -out[i, j]
    return out


def reference_period(problem: MonodromyProblem, mesh: int) -> float:
    """The quadrature one point at a time, solving with ``lstsq``."""
    nodes, weights = np.polynomial.legendre.leggauss(mesh)
    pi_rows = problem.structure.pi_matrix()
    contributions = []
    for a, th in enumerate(0.5 * np.pi * (nodes + 1.0)):
        for b, ph in enumerate(np.pi * (nodes + 1.0)):
            x = problem.sphere.point(th, ph)
            sharp = np.array([[float(p.eval(list(x))) for p in row] for row in pi_rows]).T
            sol = np.linalg.lstsq(sharp, problem.sphere.jacobian(th, ph), rcond=None)[0]
            integrand = float(sol[:, 0] @ reference_curvature(problem, x) @ sol[:, 1])
            contributions.append(0.5 * np.pi * weights[a] * np.pi * weights[b] * integrand)
    return pairwise_sum(contributions)


def gauged_su2_problem() -> MonodromyProblem:
    gauge = [QQ(3, 100), QQ(-7, 100), QQ(1, 20)]
    return MonodromyProblem(su2_structure(), round_sphere(1.5, 3, axes=(2, 0, 1)), gauge=gauge)


def reference_integrate(problem: MonodromyProblem, mesh: int) -> tuple[float, float]:
    """The integrator before the rows were broadcast: scalar ``point`` and
    ``jacobian`` calls stacked into a row, ``np.linalg.matrix_rank`` for the
    rank guard and ``np.linalg.pinv`` for the minimal-norm solution."""
    nodes_t, weights_t = np.polynomial.legendre.leggauss(mesh)
    theta = 0.5 * np.pi * (nodes_t + 1.0)
    wt = 0.5 * np.pi * weights_t
    phi = np.pi * (nodes_t + 1.0)
    wp = np.pi * weights_t
    n = problem.n
    rank = 2 * problem.structure.k
    rcond = n * np.finfo(float).eps
    contributions = []
    max_residual = 0.0
    for a, th in enumerate(theta):
        xs = np.array([problem.sphere.point(th, ph) for ph in phi])
        jac = np.array([problem.sphere.jacobian(th, ph) for ph in phi])
        sharp_mat = problem._pi_eval(xs).reshape(-1, n, n).transpose(0, 2, 1)
        ranks = np.linalg.matrix_rank(sharp_mat, tol=1e-9)
        sol = np.linalg.pinv(sharp_mat, rcond=rcond) @ jac
        residual = np.max(np.abs(sharp_mat @ sol - jac), axis=(1, 2))
        scale = np.maximum(1.0, np.max(np.abs(jac), axis=(1, 2)))
        bad_rank = ranks != rank
        bad = bad_rank | (residual > problem.splitting_tol * scale * 10)
        if np.any(bad):
            b = int(np.argmax(bad))
            if bad_rank[b]:
                raise ValueError("leaf hits the singular locus on the sphere")
            raise ValueError(
                f"splitting residual too large ({residual[b]:.2e}); sphere not tangent to the leaf")
        max_residual = max(max_residual, float(np.max(residual / scale)))
        smat = problem._curvature_rows(xs)
        integrand = np.einsum("pi,pij,pj->p", sol[:, :, 0], smat, sol[:, :, 1])
        contributions.extend((wt[a] * wp * integrand).tolist())
    return pairwise_sum(contributions), max_residual


def first_bad_point(problem: MonodromyProblem, mesh: int):
    """``(row, column, kind)`` of the first point, in mesh order, that fails
    a guard, found one point at a time; ``None`` when every point passes."""
    nodes, _ = np.polynomial.legendre.leggauss(mesh)
    n = problem.n
    for a, th in enumerate(0.5 * np.pi * (nodes + 1.0)):
        for b, ph in enumerate(np.pi * (nodes + 1.0)):
            x = problem.sphere.point(th, ph)
            jac = problem.sphere.jacobian(th, ph)
            sharp = problem._pi_eval(x[None, :]).reshape(n, n).T
            if np.linalg.matrix_rank(sharp, tol=1e-9) != 2 * problem.structure.k:
                return a, b, "singular locus"
            sol = np.linalg.pinv(sharp, rcond=n * np.finfo(float).eps) @ jac
            scale = max(1.0, float(np.max(np.abs(jac))))
            if np.max(np.abs(sharp @ sol - jac)) > problem.splitting_tol * scale * 10:
                return a, b, "splitting residual too large"
    return None


def flat_problem() -> MonodromyProblem:
    flat = PoissonStructure.from_components(("x", "y", "t"), {(0, 1): "1"})
    return MonodromyProblem(flat, planar_sphere(1.0, 3, axes=(0, 1), center=[0, 0, QQ(3, 2)]))


@pytest.mark.parametrize("make", [
    flat_problem,
    lambda: MonodromyProblem(su2_structure(), round_sphere(1.0, 3)),
    gauged_su2_problem,
    lambda: MonodromyProblem(su2_structure(), round_sphere(1.0, 3, axes=(1, 2, 0))),
], ids=["flat", "su2", "gauged-su2", "su2-shifted-axes"])
@pytest.mark.parametrize("mesh", [12, 32])
def test_row_integrator_equals_the_per_point_reference(make, mesh):
    problem = make()
    value, residual = _integrate(problem, mesh)
    expected_value, expected_residual = reference_integrate(problem, mesh)
    assert value.hex() == expected_value.hex()
    assert residual.hex() == expected_residual.hex()


def scalar_sphere_point(radius, dimension, axes, center, theta, phi):
    """The sphere's point formula one point at a time, axis by axis."""
    x = np.array([float(c) for c in center]) if center is not None else np.zeros(dimension)
    r = float(radius)
    x[axes[0]] += r * np.sin(theta) * np.cos(phi)
    x[axes[1]] += r * np.sin(theta) * np.sin(phi)
    if len(axes) == 3:
        x[axes[2]] += r * np.cos(theta)
    return x


def scalar_sphere_jacobian(radius, dimension, axes, theta, phi):
    out = np.zeros((dimension, 2))
    r = float(radius)
    i, j = axes[:2]
    out[i, 0] = r * np.cos(theta) * np.cos(phi)
    out[j, 0] = r * np.cos(theta) * np.sin(phi)
    if len(axes) == 3:
        out[axes[2], 0] = -r * np.sin(theta)
    out[i, 1] = -r * np.sin(theta) * np.sin(phi)
    out[j, 1] = r * np.sin(theta) * np.cos(phi)
    return out


@pytest.mark.parametrize("make, radius, dimension, axes, center", [
    (round_sphere, 1.0, 3, (0, 1, 2), None),
    (round_sphere, 1.5, 3, (2, 0, 1), [0.25, -1, 3]),
    (round_sphere, 0.7, 5, (4, 1, 3), [1, 2, 3, 4, 5]),
    (planar_sphere, 1.0, 3, (0, 1), [0, 0, 1]),
    (planar_sphere, 2.5, 4, (3, 1), [0.5, 0, -2, 1]),
])
def test_sphere_rows_equal_stacked_scalar_calls(make, radius, dimension, axes, center):
    sphere = make(radius, dimension, axes=axes, center=center)
    nodes, _ = np.polynomial.legendre.leggauss(24)
    phi = np.pi * (nodes + 1.0)
    for th in 0.5 * np.pi * (nodes + 1.0):
        rows = (sphere.point(th, phi), sphere.jacobian(th, phi))
        stacked = (np.array([sphere.point(th, ph) for ph in phi]),
                   np.array([sphere.jacobian(th, ph) for ph in phi]))
        formula = (
            np.array([scalar_sphere_point(radius, dimension, axes, center, th, ph) for ph in phi]),
            np.array([scalar_sphere_jacobian(radius, dimension, axes, th, ph) for ph in phi]))
        for got, by_point, by_formula in zip(rows, stacked, formula):
            assert got.dtype == by_point.dtype == by_formula.dtype == np.float64
            assert got.shape == by_point.shape == by_formula.shape
            assert got.tobytes() == by_point.tobytes() == by_formula.tobytes()
    assert sphere.point(0.3, 1.2).shape == (dimension,)
    assert sphere.jacobian(0.3, 1.2).shape == (dimension, 2)


def tilted_plane(theta0: float) -> SphereMap:
    """The unit disc in the (x, y) plane at t = 1, lifted off the plane to
    ``t = 1 + max(0, theta - theta0)^2 (2 + sin phi)`` past ``theta0``, so
    every row past ``theta0`` leaves the leaf ``t = const``, and the
    residual of each point (its t-tangent) differs from its row's other points."""
    def point(theta, phi):
        lift = np.maximum(0.0, theta - theta0)
        x = np.empty(np.broadcast(theta, phi).shape + (3,))
        x[..., 0] = np.sin(theta) * np.cos(phi)
        x[..., 1] = np.sin(theta) * np.sin(phi)
        x[..., 2] = 1.0 + lift * lift * (2.0 + np.sin(phi))
        return x

    def jacobian(theta, phi):
        lift = np.maximum(0.0, theta - theta0)
        out = np.zeros(np.broadcast(theta, phi).shape + (3, 2))
        out[..., 0, 0] = np.cos(theta) * np.cos(phi)
        out[..., 1, 0] = np.cos(theta) * np.sin(phi)
        out[..., 2, 0] = 2.0 * lift * (2.0 + np.sin(phi))
        out[..., 0, 1] = -np.sin(theta) * np.sin(phi)
        out[..., 1, 1] = np.sin(theta) * np.cos(phi)
        out[..., 2, 1] = lift * lift * np.cos(phi)
        return out

    return SphereMap(point, jacobian, label=f"tilted plane past {theta0}")


@pytest.mark.parametrize("theta0, message", [
    # the middle row (theta = pi/2) holds the one singular point (x, y) = (-1, 0);
    # the rows after it leave the leaf
    (0.5 * math.pi + 0.1, "singular locus"),
    # the rows leave the leaf from the middle row on: its first point fails the
    # residual guard, each point by its own residual, ahead of the singular point
    (0.5 * math.pi - 0.3, "splitting residual too large"),
])
def test_guards_name_the_first_failing_point_in_mesh_order(theta0, message):
    # x + 1 vanishes only at x = -1, which the odd mesh hits at theta = pi/2, phi = pi
    structure = PoissonStructure.from_components(("x", "y", "t"), {(0, 1): "x + 1"})
    problem = MonodromyProblem(structure, tilted_plane(theta0))
    row, column, kind = first_bad_point(problem, 9)
    assert row > 0 and kind == message
    with pytest.raises(ValueError) as expected:
        reference_integrate(problem, 9)
    assert message in str(expected.value)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        _integrate(problem, 9)


def row_loop_integrate(problem, mesh: int) -> tuple[float, float]:
    """The integrator before the rows were blocked: one theta-row per pass,
    its guards and then its curvature checks, row after row."""
    nodes_t, weights_t = np.polynomial.legendre.leggauss(mesh)
    theta = 0.5 * np.pi * (nodes_t + 1.0)
    wt = 0.5 * np.pi * weights_t
    phi = np.pi * (nodes_t + 1.0)
    wp = np.pi * weights_t
    n = problem.n
    rank = 2 * problem.structure.k
    rcond = n * np.finfo(float).eps
    contributions = []
    max_residual = 0.0
    for a, th in enumerate(theta):
        xs = problem.sphere.point(th, phi)
        jac = problem.sphere.jacobian(th, phi)
        sharp_mat = problem._pi_eval(xs).reshape(-1, n, n).transpose(0, 2, 1)
        u, sv, vt = np.linalg.svd(sharp_mat, full_matrices=False)
        ranks = np.count_nonzero(sv > 1e-9, axis=-1)
        large = sv > rcond * np.max(sv, axis=-1, keepdims=True)
        inv_sv = np.divide(1.0, sv, out=np.zeros_like(sv), where=large)
        pinv = np.matmul(np.swapaxes(vt, -1, -2), inv_sv[..., None] * np.swapaxes(u, -1, -2))
        sol = pinv @ jac
        residual = np.max(np.abs(sharp_mat @ sol - jac), axis=(1, 2))
        scale = np.maximum(1.0, np.max(np.abs(jac), axis=(1, 2)))
        bad_rank = ranks != rank
        bad = bad_rank | (residual > problem.splitting_tol * scale * 10)
        if np.any(bad):
            b = int(np.argmax(bad))
            if bad_rank[b]:
                raise ValueError("leaf hits the singular locus on the sphere")
            raise ValueError(
                f"splitting residual too large ({residual[b]:.2e}); sphere not tangent to the leaf")
        max_residual = max(max_residual, float(np.max(residual / scale)))
        smat = problem._curvature_rows(xs)
        integrand = np.einsum("pi,pij,pj->p", sol[:, :, 0], smat, sol[:, :, 1])
        contributions.extend((wt[a] * wp * integrand).tolist())
    return pairwise_sum(contributions), max_residual


@pytest.mark.parametrize("mesh", [32, 64, 40])
@pytest.mark.parametrize("make", [
    lambda: MonodromyProblem(su2_structure(), round_sphere(1.0, 3, axes=(0, 1, 2))),
    lambda: MonodromyProblem(su2_structure(), round_sphere(0.8, 3, axes=(1, 2, 0))),
    lambda: MonodromyProblem(su2_structure(), round_sphere(1.3, 3, axes=(2, 0, 1))),
    flat_problem,
    lambda: MonodromyProblem(PoissonStructure.from_components(("x", "y", "t"), {(0, 1): "t"}),
                             planar_sphere(0.5, 3, axes=(0, 1), center=[0.25, -1, 2])),
], ids=["su2-xyz", "su2-yzx", "su2-zxy", "flat", "flat-scaled"])
def test_blocked_integrator_equals_the_row_loop(make, mesh):
    # every mesh here takes more than one block; 40 rows leave a partial last one
    assert _BLOCK_POINTS // mesh < mesh
    problem = make()
    got = _integrate(problem, mesh)
    expected = row_loop_integrate(problem, mesh)
    assert [x.hex() for x in got] == [x.hex() for x in expected]


FLAT_PI = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
XT_PI = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])


def stub_problem(mesh: int, *, singular=(), off_leaf=(), no_alpha=(), not_kernel=(),
                 overflow=()):
    """A problem on the unit disc of the (x, y) plane whose third coordinate
    is theta, so each point names its mesh row.  Rows in ``singular`` have
    ``pi = 0`` and fail the rank guard, rows in ``off_leaf`` have ``pi`` in
    the (x, t) plane and fail the residual guard; ``_curvature_rows`` raises
    "alpha vanishes" or "not kernel-valued" on a stack that holds a point of
    a row in ``no_alpha`` or ``not_kernel``, and overflows on one in
    ``overflow`` first, as the real evaluator would before its checks."""
    nodes, _ = np.polynomial.legendre.leggauss(mesh)
    theta_nodes = 0.5 * np.pi * (nodes + 1.0)

    def row_of(t):
        return int(np.flatnonzero(theta_nodes == t)[0])

    def point(theta, phi):
        x = np.empty(np.broadcast(theta, phi).shape + (3,))
        x[..., 0] = np.sin(theta) * np.cos(phi)
        x[..., 1] = np.sin(theta) * np.sin(phi)
        x[..., 2] = theta
        return x

    def jacobian(theta, phi):
        out = np.zeros(np.broadcast(theta, phi).shape + (3, 2))
        out[..., 0, 0] = np.cos(theta) * np.cos(phi)
        out[..., 1, 0] = np.cos(theta) * np.sin(phi)
        out[..., 0, 1] = -np.sin(theta) * np.sin(phi)
        out[..., 1, 1] = np.sin(theta) * np.cos(phi)
        return out

    def pi_eval(xs):
        out = np.empty((len(xs), 3, 3))
        for p, t in enumerate(xs[:, 2]):
            row = row_of(t)
            out[p] = 0.0 if row in singular else XT_PI if row in off_leaf else FLAT_PI
        return out.reshape(len(xs), 9)

    def curvature_rows(xs):
        rows = {row_of(t) for t in xs[:, 2]}
        if rows & set(overflow):
            np.exp(np.float64(1000.0))
        if rows & set(no_alpha):
            raise ValueError("alpha vanishes: the point is outside the regular locus")
        if rows & set(not_kernel):
            raise AssertionError("curvature value is not kernel-valued on the leaf")
        return np.zeros((len(xs), 3, 3))

    return SimpleNamespace(n=3, structure=SimpleNamespace(k=1), splitting_tol=1e-12,
                           sphere=SphereMap(point, jacobian, label="stub"),
                           _pi_eval=pi_eval, _curvature_rows=curvature_rows)


@pytest.mark.parametrize("rows, error, message", [
    # a curvature failure in row 1 comes before a guard failure in row 3
    (dict(not_kernel=(1,), singular=(3,)), AssertionError, "not kernel-valued"),
    (dict(no_alpha=(1,), off_leaf=(3,)), ValueError, "alpha vanishes"),
    # inside one row the guards come first
    (dict(not_kernel=(2,), singular=(2,)), ValueError, "singular locus"),
    (dict(no_alpha=(2,), off_leaf=(2,)), ValueError, "splitting residual too large"),
    # the two curvature checks, in different rows
    (dict(no_alpha=(4,), not_kernel=(6,)), ValueError, "alpha vanishes"),
    (dict(no_alpha=(6,), not_kernel=(4,)), AssertionError, "not kernel-valued"),
    # a row after the failing one would overflow: the row loop never reaches it
    (dict(not_kernel=(2,), overflow=(5,)), AssertionError, "not kernel-valued"),
    (dict(), None, None),
])
@pytest.mark.parametrize("mesh", [9, 40])
def test_blocked_integrator_keeps_the_row_loop_error_order(rows, error, message, mesh):
    problem = stub_problem(mesh, **rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            got, expected = _integrate(problem, mesh), row_loop_integrate(problem, mesh)
            assert [x.hex() for x in got] == [x.hex() for x in expected]
            return
        with pytest.raises(error) as reference:
            row_loop_integrate(problem, mesh)
        assert message in str(reference.value)
        with pytest.raises(error, match=re.escape(str(reference.value))):
            _integrate(problem, mesh)


def test_gauged_build_runs_sharp_once_per_form(monkeypatch):
    """Building the gauged su(2) problem runs ``sharp`` 11 times: once in
    ``germinal_isotropy``, once for the Casimir check of ``|alpha|^2``, once
    per gauged splitting (3 coordinate functions and 3 brackets), and once
    per form ``beta_i`` (3), whose ``#beta_i`` every Koszul bracket of the
    3 pairs shares; each reads ``pi(alpha, beta)`` off the ``#alpha`` it
    already holds."""
    calls = []
    original = MultivectorField.sharp
    monkeypatch.setattr(MultivectorField, "sharp",
                        lambda self, alpha: calls.append(1) or original(self, alpha))
    gauged_su2_problem()
    assert len(calls) == 11


def test_row_curvature_matches_exact_per_point_evaluation():
    problem = gauged_su2_problem()
    theta = 0.7
    xs = np.array([problem.sphere.point(theta, ph) for ph in np.linspace(0.1, 6.0, 17)])
    rows = problem._curvature_rows(xs)
    for x, got in zip(xs, rows):
        expected = reference_curvature(problem, x)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))
        assert np.array_equal(problem.curvature_matrix(x), got)


def test_row_quadrature_matches_per_point_quadrature():
    problem = gauged_su2_problem()
    expected = reference_period(problem, 12)
    value = monodromy_period(problem, meshes=(8, 12)).value
    assert value == pytest.approx(expected, rel=1e-12)


# -- the model beyond pi = +-1 and f = t, against a dense reference ---------------------

WIDE_PI = [[0, QQ(3, 2)], [QQ(-3, 2), 0]]
# Pfaffian 1*1 - (-2)(-2) + (1/3)(1/3) != 0, several nonzero entries per column
DENSE_PI = [[0, 1, -2, QQ(1, 3)],
            [-1, 0, QQ(1, 3), -2],
            [2, QQ(-1, 3), 0, 1],
            [QQ(-1, 3), 2, -1, 0]]
PROFILES = ["2*t^3 - t + 1/2", "1", "t"]


FLOAT_TYPES = [float, np.float64, np.float32, np.float16]


def same(got, expected) -> bool:
    """Equal value and type."""
    return type(got) is type(expected) and got == expected


def same_seq(got, expected) -> bool:
    return len(got) == len(expected) and all(same(a, b) for a, b in zip(got, expected))


def reference_sharp(pi, xi):
    """Dense ``PI^T xi``, over every entry of each column."""
    d = len(pi)
    return [sum((QQ(xi[i]) * QQ(pi[i][j]) for i in range(d)), QQ(0)) for j in range(d)]


def draw(rng, kind, d):
    """A triple (xi, v, t) of QQ entries or Python ints."""
    if kind == "qq":
        return rvec(rng, d), rvec(rng, d), QQ(rng.randint(-9, 9), rng.randint(1, 5))
    return (tuple(rng.randint(-20, 20) for _ in range(d)),
            tuple(rng.randint(-20, 20) for _ in range(d)), rng.randint(-4, 4))


def refused(call, *args):
    with pytest.raises(TypeError, match="not exact"):
        call(*args)


def floated(g, slot, ftype):
    """``g = (xi, v, t)``, or a pair-groupoid triple ``(w, v, t)``, with one
    entry made a float of type ``ftype``: the first of the first vector (slot
    0), the last of the second (slot 1) or ``t`` (slot 2)."""
    a, b, t = g
    if slot == 0:
        return ((ftype(float(a[0])), *a[1:]), b, t)
    if slot == 1:
        return (a, (*b[:-1], ftype(float(b[-1]))), t)
    return (a, b, ftype(float(t)))


def assert_refuses_floats(model, h):
    """Every structure map refuses a float entry, whatever its type and slot,
    with ``to_qq``'s ``TypeError``."""
    xi, v, t = h
    g = (xi, model.target(h)[0], t)            # g starts where h ends
    for ftype in FLOAT_TYPES:
        ft, fxi = ftype(float(t)), floated(h, 0, ftype)[0]
        refused(model.f_at, ft)
        refused(model.sharp, fxi)
        refused(model.translation, fxi, t)
        refused(model.translation, xi, ft)
        refused(omega_form, model, ft)
        refused(model.unit, floated(h, 1, ftype)[1], t)
        refused(model.unit, v, ft)
        for slot in range(3):
            bad_g, bad_h = floated(g, slot, ftype), floated(h, slot, ftype)
            for call in (model.source, model.target, model.inverse, model.pair_map):
                refused(call, bad_h)
            for call in (model.composable, model.multiply):
                refused(call, bad_g, h)
                refused(call, g, bad_h)
            refused(model.pair_slice_inverse, floated(model.pair_map(h), slot, ftype))


def lowest_terms(x) -> bool:
    """``x`` is a ``QQ`` in lowest terms with a positive denominator, or not a
    ``QQ`` at all; an unreduced ``QQ`` breaks ``==`` and ``hash`` silently."""
    if type(x) is not QQ:
        return True
    return x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1


@pytest.mark.parametrize("pi", [WIDE_PI, DENSE_PI], ids=["wide2", "dense4"])
@pytest.mark.parametrize("profile", PROFILES + ["0"])
@pytest.mark.parametrize("kind", ["qq", "int", "float"])
def test_model_maps_match_dense_reference(pi, profile, kind):
    f = Polynomial.parse(T, profile)
    model = LinearGroupoidModel(pi, f)
    d = len(pi)
    rng = random.Random(f"{d}:{profile}:{kind}")
    if kind == "float":
        for _ in range(3):
            assert_refuses_floats(model, draw(rng, "qq", d))
        return
    for _ in range(40):
        xi, v, t = draw(rng, kind, d)
        c = f.eval([t])
        assert same(model.f_at(t), c)
        sharp = reference_sharp(pi, xi)
        assert same_seq(model.sharp(xi), sharp)
        assert same_seq(model.translation(xi, t), [c * s for s in sharp])
        w = tuple(a + c * s for a, s in zip(v, sharp))
        got_w, got_t = model.target((xi, v, t))
        assert same_seq(got_w, w) and got_t is t
        inv_xi, inv_w, inv_t = model.inverse((xi, v, t))
        assert same_seq(inv_xi, [-x for x in xi]) and same_seq(inv_w, w) and inv_t is t
        # composable and multiply against the same reference: g starts where h ends
        h = (xi, v, t)
        xi_g = draw(rng, kind, d)[0]
        start = tuple(int(a) if kind == "int" and a.denominator == 1 else a for a in w)
        g = (xi_g, start, t)
        assert same(model.composable(g, h), True)
        gh = model.multiply(g, h)
        assert same_seq(gh[0], [a + b for a, b in zip(xi_g, xi)])
        assert same_seq(gh[1], v) and gh[2] is t
        w_g = [a + c * s for a, s in zip(start, reference_sharp(pi, xi_g))]
        assert same(model.composable(h, g), all(a == b for a, b in zip(v, w_g)))
        for off in ((QQ(1, 7),) + (QQ(0),) * (d - 1), (QQ(0),) * (d - 1) + (QQ(-3, 2),)):
            moved = (xi_g, tuple(a + e for a, e in zip(start, off)), t)
            assert same(model.composable(moved, h), False)
            with pytest.raises(ValueError, match="non-composable"):
                model.multiply(moved, h)
        assert same(model.composable((xi_g, start, t + 1), h), False)
        outputs = [*model.sharp(xi), *model.translation(xi, t), *got_w, *inv_xi, *inv_w,
                   *gh[0], *gh[1], *model.pair_map(h)[0]]
        assert all(lowest_terms(x) for x in outputs)


@pytest.mark.parametrize("profile", PROFILES + ["0", "t^2", "-t + 3", "7/3*t^4"])
def test_profile_matches_polynomial_eval(profile):
    f = Polynomial.parse(T, profile)
    model = LinearGroupoidModel(DENSE_PI, f)
    points = [QQ(-7, 3), QQ(0), QQ(5, 2), -3, 0, 4]
    for t in points:
        assert same(model.f_at(t), f.eval([t])), t
    if profile == "0":
        assert all(model.f_at(t) == 0 and type(model.f_at(t)) is int for t in points)
    for t in (0.0, -1.25, 0.1, 3.0000001, np.float64(0.3), np.float32(0.5), np.float16(0.5)):
        refused(model.f_at, t)


def test_structure_maps_return_the_documented_types():
    """The int / QQ contract of the ``LinearGroupoidModel`` docstring; a
    float entry is refused."""
    model = LinearGroupoidModel(STANDARD_PI, Polynomial.parse(T, "2*t + 1"))
    half = QQ(1, 2)
    for h, xi_type in ((((1, 2), (3, 4), 1), int), (((half, half), (3, QQ(1, 3)), half), QQ)):
        w, t = model.target(h)
        assert all(type(x) is QQ for x in w) and t is h[2]        # QQ, integral or not
        inv_xi, inv_w, _ = model.inverse(h)
        assert [type(x) for x in inv_xi] == [xi_type] * 2 and inv_w == w
        g = (h[0], w, t)
        gh_xi, gh_v, _ = model.multiply(g, h)
        assert [type(x) for x in gh_xi] == [xi_type] * 2 and gh_v is h[1]
        for w_in in (w, tuple(int(x) if x.denominator == 1 else x for x in w)):
            xi, _, _ = model.pair_slice_inverse((w_in, h[1], t))
            assert xi == h[0]
            assert all(type(x) is int if x.denominator == 1 else type(x) is QQ for x in xi)
    # a QQ sum is not put back into canonical form
    h = ((half, half), (0, 0), 0)
    gh_xi = model.multiply(((half, half), model.target(h)[0], 0), h)[0]
    assert gh_xi == (1, 1) and all(type(x) is QQ for x in gh_xi)
    floats = ((1.0, 2.0), (3.0, 4.0), 1.0)
    refused(model.target, floats)
    refused(model.inverse, floats)
    refused(model.pair_slice_inverse, ((3.0, 4.0), (3.0, 4.0), 1.0))


def test_numpy_float_times_are_refused():
    # np.float64 is a float subclass; np.float32 and np.float16 are not
    model = LinearGroupoidModel(STANDARD_PI, Polynomial.parse(T, "2*t^3 - t + 1/2"))
    h = ((1, 2), (QQ(1, 2), QQ(1, 4)), QQ(1, 2))
    for t in (np.float64(0.5), np.float32(0.5), np.float16(0.5)):
        refused(model.f_at, t)
        refused(model.target, (*h[:2], t))
        refused(omega_form, model, t)


def test_exact_model_keeps_its_checks_beyond_unit_entries():
    model = LinearGroupoidModel(DENSE_PI, Polynomial.parse(T, "2*t^3 - t + 1/2"))
    rng = random.Random(17)
    for _ in range(30):
        t = QQ(rng.randint(-9, 9), rng.randint(1, 5))
        h = (rvec(rng, 4), rvec(rng, 4), t)
        g = (rvec(rng, 4), model.target(h)[0], t)
        gh = model.multiply(g, h)
        assert model.target(gh) == model.target(g) and model.source(gh) == model.source(h)
        assert model.pair_slice_inverse(model.pair_map(h)) == h
        with pytest.raises(ValueError, match="non-composable"):
            model.multiply(h, h)
    assert pair_morphism_check(model, samples=50, seed=3).morphism_exact
    vanishing = LinearGroupoidModel(DENSE_PI, Polynomial.parse(T, "2*t^3 - t"))
    with pytest.raises(ValueError, match="f\\(t\\) = 0"):
        vanishing.pair_slice_inverse(vanishing.pair_map((rvec(rng, 4), rvec(rng, 4), QQ(0))))


@pytest.mark.parametrize("ftype", [float, np.float64, np.float32])
def test_unit_and_source_refuse_float_entries(ftype):
    model = height_model()
    half, quarter = ftype(0.5), ftype(0.25)
    refused(model.unit, (half, quarter), ftype(1.0))
    refused(model.unit, (QQ(1, 2), quarter), 1)
    refused(model.unit, (QQ(1, 2), 1), half)
    refused(model.source, ((1, 2), (half, 3), 1))
    refused(model.source, ((half, 2), (1, 3), 1))
    refused(model.source, ((1, 2), (1, 3), half))
    # exact entries come back as given
    v, t = (QQ(1, 2), 3), QQ(4, 2)
    unit = model.unit(v, t)
    assert unit == ((0, 0), v, t) and same_seq(unit[1], v) and unit[2] is t
    source = model.source(((QQ(1, 3), 2), v, t))
    assert same_seq(source[0], v) and source[1] is t


# d = 4 with exactly two nonzero entries in every column; Pfaffian 1/2 - 6 != 0
TWO_ENTRY_PI = [[0, 1, 2, 0],
                [-1, 0, 0, 3],
                [-2, 0, 0, QQ(1, 2)],
                [0, -3, QQ(-1, 2), 0]]
EXACT = st.one_of(st.integers(-40, 40),
                  st.fractions(min_value=-40, max_value=40, max_denominator=12))


@st.composite
def model_cases(draw):
    """A model, ``h`` and ``xi_g`` with int and ``QQ`` entries in any mix,
    and a profile of degree at most 3 with a nonzero constant term."""
    pi = draw(st.sampled_from([STANDARD_PI, WIDE_PI, DENSE_PI, TWO_ENTRY_PI]))
    d = len(pi)
    coeffs = draw(st.lists(EXACT, min_size=1, max_size=4))
    coeffs[0] = coeffs[0] or 1
    f = Polynomial(T, {(e,): c for e, c in enumerate(coeffs) if c})
    vec = st.lists(EXACT, min_size=d, max_size=d).map(tuple)
    return (LinearGroupoidModel(pi, f), pi, coeffs,
            (draw(vec), draw(vec), draw(EXACT)), draw(vec))


@settings(max_examples=150, deadline=None)
@given(model_cases())
def test_model_maps_equal_a_fraction_reference(case):
    model, pi, coeffs, h, xi_g = case
    xi, v, t = h
    d = len(pi)
    c = sum(Fraction(a) * Fraction(t) ** e for e, a in enumerate(coeffs))
    sharp = [sum(Fraction(xi[i]) * Fraction(pi[i][j]) for i in range(d)) for j in range(d)]
    w = [Fraction(a) + c * s for a, s in zip(v, sharp)]
    assert model.f_at(t) == c
    assert same_seq(model.sharp(xi), sharp)
    got_w, got_t = model.target(h)
    assert same_seq(got_w, w) and got_t is t
    inv_xi, inv_w, inv_t = model.inverse(h)
    assert same_seq(inv_xi, [-x for x in xi]) and same_seq(inv_w, w) and inv_t is t
    assert same_seq(model.source(h)[0], v) and model.source(h)[1] is t
    unit = model.unit(v, t)
    assert same_seq(unit[0], [0] * d) and same_seq(unit[1], v) and unit[2] is t
    # g starts where h ends; the sums of xi keep the types + gives them
    g = (xi_g, got_w, t)
    assert same(model.composable(g, h), True)
    gh = model.multiply(g, h)
    assert same_seq(gh[0], [a + b for a, b in zip(xi_g, xi)])
    assert same_seq(gh[1], v) and gh[2] is t
    moved = (xi_g, (got_w[0] + 1, *got_w[1:]), t)
    assert same(model.composable(moved, h), False)
    assert all(lowest_terms(x) for x in [*model.sharp(xi), *got_w, *inv_w, *gh[0]])
