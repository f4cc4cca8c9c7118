"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

from __future__ import annotations

import random
import time

from poiskit._kernel import QQ
from poiskit.polyalg import (
    MultivectorField,
    Polynomial,
    parse_polynomial,
    schouten_bracket,
    wedge,
)
from poiskit.modcalc import SubmodulePresentation, variety_emptiness
from poiskit.poisson import (
    PoissonStructure,
    almost_regular_decide,
    center_check,
    check_jacobi,
    foliation_inclusion,
    foliation_module,
    germinal_isotropy,
    lie_jacobi_defect,
    linear_bivector,
    linear_structure,
)
from poiskit.construct import (
    LOG_F_SYMPLECTIC,
    cosymplectic_reduce,
    logf_classify,
    scale_by_casimir,
    trans_part_in_sharp_normal,
)
from poiskit.groupoid import (
    LinearGroupoidModel,
    MonodromyProblem,
    monodromy_period,
    omega_form,
    pair_morphism_check,
    planar_sphere,
    round_sphere,
)
from poiskit.trace import trace_leaf
from conftest import (
    aff1_plus_r_constants,
    heis3_constants,
    heisenberg_structure,
    sl2_constants,
    su2_constants,
    su2_structure,
    zero_constants,
)


def report(number: int, text: str) -> None:
    print(f"[criterion {number:2d}] PASS: {text}")


def test_criterion_01_rotation_pipeline():
    start = time.perf_counter()
    su2 = su2_structure()
    iso = germinal_isotropy(su2)
    V = su2.variables
    expected = SubmodulePresentation(V, 3, [[Polynomial.variable(V, "x"),
                                             Polynomial.variable(V, "y"),
                                             Polynomial.variable(V, "z")]])
    assert iso.module.equals_module(expected).is_yes
    assert iso.dim_at([0, 0, 0]) == 0
    assert iso.dim_at([1, 0, 0]) == 1
    decision = almost_regular_decide(su2)
    assert decision.is_no
    assert list(decision.witness) == [0, 0, 0]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"radial kernel module, dims 0/1, decision no at the origin "
              f"({elapsed:.3f}s < 1s)")


def test_criterion_02_heisenberg_pipeline():
    heis = heisenberg_structure()
    V = heis.variables
    one, zero = Polynomial.one(V), Polynomial.zero(V)
    decision = almost_regular_decide(heis)
    assert decision.is_yes
    dist = decision.payload["distribution"]
    plane = SubmodulePresentation(V, 3, [[one, zero, zero], [zero, one, zero]])
    assert dist.module.equals_module(plane).is_yes
    iso = germinal_isotropy(heis)
    dt_module = SubmodulePresentation(V, 3, [[zero, zero, one]])
    assert iso.module.equals_module(dt_module).is_yes
    cl = logf_classify(heis, decision=decision)
    assert cl.verdict == LOG_F_SYMPLECTIC
    assert str(cl.g) == "t"
    z = SubmodulePresentation.ideal(V, cl.z_ideal)
    zsing = SubmodulePresentation.ideal(V, cl.z_sing_ideal)
    assert zsing.equals_module(z).is_yes
    report(2, "distribution = coordinate plane, kernel = height differential, "
              "log-f with Z_sing = Z, g = t")


def test_criterion_03_plane_field_triple():
    V = ("x1", "x2", "x3")
    pv = lambda s: parse_polynomial(V, s)

    cl_a = logf_classify(PoissonStructure.from_components(V, {(0, 1): "x1"}))
    empt = variety_emptiness(cl_a.z_sing_ideal)
    assert empt.is_yes

    cl_b = logf_classify(PoissonStructure.from_components(V, {(0, 1): "x3"}))
    assert SubmodulePresentation.ideal(V, cl_b.z_sing_ideal).equals_module(
        SubmodulePresentation.ideal(V, cl_b.z_ideal)).is_yes

    cl_c = logf_classify(PoissonStructure.from_components(V, {(0, 1): "x3 - x1^2"}))
    line = SubmodulePresentation.ideal(V, [pv("x1"), pv("x3")])
    got = SubmodulePresentation.ideal(V, cl_c.z_sing_ideal)
    got_basis = sorted(str(g[0]) for g in got.groebner_basis())
    line_basis = sorted(str(g[0]) for g in line.groebner_basis())
    assert got_basis == line_basis == ["x1", "x3"]
    report(3, "Z_sing empty / equals Z / equals the line (x1, x3), at basis level")


def test_criterion_04_action_foliations():
    V = ("x1", "y1", "x2", "y2")
    pv = lambda s: parse_polynomial(V, s)
    v = MultivectorField.from_coefficients(V, [pv("x1"), pv("y1"), pv("2*x2"), pv("2*y2")])
    w = MultivectorField.from_coefficients(V, [pv("-y1"), pv("x1"), pv("-2*y2"), pv("2*x2")])
    action = foliation_module([v, w])
    pi = PoissonStructure(wedge(v, w))
    image = foliation_module([MultivectorField.from_coefficients(V, col)
                              for col in pi.bivector.columns()])
    inclusion = foliation_inclusion(image, action)
    assert inclusion.is_yes
    assert inclusion.certificate["memberships"]  # certificates emitted
    assert action.fiber_dim_at([0, 0, 0, 0]) == 2
    assert action.fiber_dim_at([1, 0, 0, 0]) == 2
    assert action.projectivity().is_yes
    assert image.fiber_dim_at([0, 0, 0, 0]) == 4
    assert image.fiber_dim_at([1, 0, 0, 0]) == 2
    assert image.projectivity().is_no
    quad = PoissonStructure.from_components(V, {(0, 1): "x1^2 + y1^2"})
    assert almost_regular_decide(quad).is_yes
    report(4, "quadratic image sits inside the action module with certificates; "
              "fiber dims 2/2 vs 4/2; the weight-zero variant decides yes")


def test_criterion_05_linear_center_cross_check():
    cases = [("abelian^3", zero_constants(3), 3),
             ("nilpotent heis3", heis3_constants(), 1),
             ("affine + line", aff1_plus_r_constants(), 1),
             ("compact rank-0-center", su2_constants(), 0),
             ("split rank-0-center", sl2_constants(), 0)]
    for label, constants, dim in cases:
        structure = linear_structure(constants)
        center, h0_matches_center = center_check(structure, germinal_isotropy(structure))
        assert len(center) == dim, label
        assert h0_matches_center.is_yes, label
    report(5, "origin kernel dimension equals the center dimension for all five algebras")


def test_criterion_06_jacobi_equivalence_50_tables():
    rng = random.Random(606)
    known = [su2_constants(), heis3_constants(), aff1_plus_r_constants(), sl2_constants()]
    agree = trues = falses = 0
    for trial in range(50):
        if trial % 5 == 0:
            base = known[rng.randrange(len(known))]
            scale = rng.randint(1, 3)
            c = [[[scale * v for v in row] for row in plane] for plane in base]
        else:
            c = zero_constants(3)
            for i in range(3):
                for j in range(i + 1, 3):
                    for k in range(3):
                        if rng.random() < 0.4:
                            v = rng.randint(-2, 2)
                            c[i][j][k], c[j][i][k] = v, -v
        direct = not lie_jacobi_defect(c)
        via_bracket = check_jacobi(linear_bivector(c)).is_yes
        assert direct == via_bracket
        agree += 1
        trues += direct
        falses += not direct
    assert trues > 0 and falses > 0
    report(6, f"50/50 agreement between the bracket test and the direct identity "
              f"({trues} hold, {falses} fail)")


def test_criterion_07_cosymplectic_chart():
    V = ("t", "th", "x1", "x2", "x3", "x4")
    ps = PoissonStructure.from_components(V, {(0, 1): "t", (2, 3): "1", (4, 5): "1"})
    w_basis = [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
               [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]]
    red = cosymplectic_reduce(ps, w_basis)
    expected = PoissonStructure.from_components(V, {(0, 1): "t", (2, 3): "1"})
    assert red.structure.bivector == expected.bivector  # exact symbolic equality
    rng = random.Random(707)
    for _ in range(20):
        pt = [QQ(rng.randint(-8, 8), rng.randint(1, 4)) for _ in V]
        assert trans_part_in_sharp_normal(ps, red, pt)
    report(7, "induced bivector reproduced exactly; residual part lies in the "
              "normal block at 20 rational points")


def test_criterion_08_groupoid_model():
    start = time.perf_counter()
    model = LinearGroupoidModel([[0, 1], [-1, 0]], Polynomial.variable(("t",), "t"))
    rng = random.Random(808)

    def rvec():
        return tuple(QQ(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(2))

    for _ in range(1000):
        t = QQ(rng.randint(-15, 15), rng.randint(1, 6))
        h = (rvec(), rvec(), t)
        g = (rvec(), model.target(h)[0], t)
        k = (rvec(), model.target(g)[0], t)
        assert model.multiply(model.unit(*model.target(g)), g) == g
        assert model.multiply(g, model.inverse(g)) == model.unit(*model.target(g))
        assert (model.multiply(model.multiply(k, g), h)
                == model.multiply(k, model.multiply(g, h)))
    for t in (0, 1, -1, QQ(1, 2), QQ(-1, 2)):
        assert omega_form(model, t).determinant != 0
    rep = pair_morphism_check(model, samples=1000, seed=0)
    assert rep.morphism_exact
    assert rep.anti_poisson_max_residual < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(8, f"axioms exact on 1000 rational triples, det != 0 at the five "
              f"parameters, morphism exact, pushforward residual "
              f"{rep.anti_poisson_max_residual:.1e} < 1e-9 ({elapsed:.2f}s < 5s)")


def test_criterion_09_monodromy_periods():
    flat = PoissonStructure.from_components(("x", "y", "t"), {(0, 1): "1"})
    flat_result = monodromy_period(
        MonodromyProblem(flat, planar_sphere(1.0, 3, axes=(0, 1), center=[0, 0, 1])),
        meshes=(16, 24))
    assert abs(flat_result.value) < 1e-8

    su2 = su2_structure()
    base = monodromy_period(MonodromyProblem(su2, round_sphere(1.0, 3)), meshes=(32, 64))
    assert abs(base.value - base.coarse_value) <= 1e-6 * abs(base.value)

    rng = random.Random(909)
    gauge = [QQ(rng.randint(-10, 10), 100) for _ in range(3)]
    perturbed = monodromy_period(
        MonodromyProblem(su2, round_sphere(1.0, 3), gauge=gauge), meshes=(32, 64))
    assert abs(perturbed.value - base.value) < 1e-6 * abs(base.value)
    report(9, f"flat period {abs(flat_result.value):.1e} < 1e-8; meshes agree to "
              f"{abs(base.value - base.coarse_value) / abs(base.value):.1e} rel; "
              f"gauge shift {abs(perturbed.value - base.value) / abs(base.value):.1e} rel "
              f"(value {base.value:.6f})")


def test_criterion_10_casimir_scaling_20_pairs():
    rng = random.Random(1010)
    heis = heisenberg_structure()
    flat = PoissonStructure.from_components(("x", "y", "t"), {(0, 1): "1"})
    quad = PoissonStructure.from_components(("x1", "y1", "x2", "y2"),
                                            {(0, 1): "x1^2 + y1^2"})
    library = [(heis, ["t"]), (flat, ["t"]), (quad, ["x2", "y2"])]
    for trial in range(20):
        base, names = library[rng.randrange(len(library))]
        f = Polynomial.constant(base.variables, rng.randint(1, 3))
        for _ in range(rng.randint(1, 2)):
            v = Polynomial.variable(base.variables, rng.choice(names))
            f = f + v.scale(rng.randint(-2, 2)) + (v * v).scale(rng.randint(0, 1))
        result = scale_by_casimir(base, f)
        assert check_jacobi(result.structure.bivector).is_yes
        assert result.distributions_equal.is_yes
    report(10, "20 seeded (base, Casimir) pairs rescale to Poisson structures "
               "with the identical distribution module")


def test_criterion_11_bracket_property_suite():
    start = time.perf_counter()
    rng = random.Random(1111)
    V = ("a", "b", "c", "d")
    from itertools import combinations

    def rand_poly():
        t = {}
        for _ in range(2):
            e = [0] * 4
            for _ in range(rng.randint(0, 3)):
                e[rng.randint(0, 3)] += 1
            t[tuple(e)] = rng.randint(-3, 3)
        return Polynomial(V, t)

    def rand_mv(p):
        comps = {}
        for idx in combinations(range(4), p):
            if rng.random() < 0.6:
                comps[idx] = rand_poly()
        return MultivectorField(V, p, comps)

    def eps(a, b):
        return 1 if ((a - 1) * (b - 1)) % 2 == 0 else -1

    for _ in range(100):
        p, q, r = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2)
        P, Q, R = rand_mv(p), rand_mv(q), rand_mv(r)
        assert schouten_bracket(P, Q) == schouten_bracket(Q, P).scale(-eps(p, q))
        if q + r <= 4:
            sign = 1 if ((p - 1) * q) % 2 == 0 else -1
            assert (schouten_bracket(P, wedge(Q, R))
                    == wedge(schouten_bracket(P, Q), R)
                    + wedge(Q, schouten_bracket(P, R)).scale(sign))
        jac = (schouten_bracket(schouten_bracket(P, Q), R).scale(eps(p, r))
               + schouten_bracket(schouten_bracket(Q, R), P).scale(eps(q, p))
               + schouten_bracket(schouten_bracket(R, P), Q).scale(eps(r, q)))
        assert jac.is_zero
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(11, f"antisymmetry, Leibniz, graded Jacobi exact on 100 seeded "
               f"multivectors ({elapsed:.2f}s < 10s)")


def test_criterion_12_leaf_tracer():
    su2 = su2_structure()
    r2 = parse_polynomial(("x", "y", "z"), "x^2 + y^2 + z^2")
    result = trace_leaf(su2, [1, 0, 0], steps=10000, dt=1e-3, invariants=[r2])
    drift = result.conserved_drift[str(r2)]
    assert drift < 1e-8
    assert result.dimension_estimate == 2
    report(12, f"10^4-step trace conserves the radius function to {drift:.1e} "
               f"relative; dimension estimate 2")
