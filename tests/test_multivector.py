"""Graded calculus: wedge, Schouten bracket, Cartan operations, evaluation."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from dense_reference import qq_rank
from poiskit._kernel import QQ
from poiskit.polyalg import (
    DifferentialForm,
    MultivectorField,
    Polynomial,
    exterior_derivative,
    interior_product,
    lie_derivative,
    pair,
    schouten_bracket,
    wedge,
    wedge_power,
)

V3 = ("x", "y", "z")
V4 = ("x", "y", "z", "w")


def mv(variables, grade, comps):
    return MultivectorField(variables, grade,
                            {k: Polynomial.parse(variables, v) for k, v in comps.items()})


def form(variables, grade, comps):
    return DifferentialForm(variables, grade,
                            {k: Polynomial.parse(variables, v) for k, v in comps.items()})


def rand_poly(rng, variables, deg=3, terms=2):
    t = {}
    for _ in range(terms):
        e = [0] * len(variables)
        for _ in range(rng.randint(0, deg)):
            e[rng.randint(0, len(variables) - 1)] += 1
        t[tuple(e)] = rng.randint(-4, 4)
    return Polynomial(variables, t)


def rand_mv(rng, variables, grade, density=0.7):
    comps = {}
    for idx in combinations(range(len(variables)), grade):
        if rng.random() < density:
            comps[idx] = rand_poly(rng, variables)
    return MultivectorField(variables, grade, comps)


def rand_form(rng, variables, grade, density=0.7):
    comps = {}
    for idx in combinations(range(len(variables)), grade):
        if rng.random() < density:
            comps[idx] = rand_poly(rng, variables)
    return DifferentialForm(variables, grade, comps)


# -- wedge ---------------------------------------------------------------------


def test_wedge_disjoint_indices():
    a = mv(V4, 2, {(0, 1): "1"})
    b = mv(V4, 2, {(2, 3): "1"})
    assert wedge(a, b) == mv(V4, 4, {(0, 1, 2, 3): "1"})


def test_wedge_decomposable_square_is_zero():
    pi = mv(V3, 2, {(0, 1): "z"})
    assert wedge(pi, pi).is_zero


def test_wedge_square_mixed_bivector():
    variables = ("t", "th", "x1", "x2")
    pi = mv(variables, 2, {(0, 1): "t", (2, 3): "1"})
    assert wedge(pi, pi) == mv(variables, 4, {(0, 1, 2, 3): "2*t"})


def test_wedge_overflow_gives_zero():
    a = mv(V3, 2, {(0, 1): "1"})
    b = mv(V3, 2, {(1, 2): "1"})
    out = wedge(a, b)
    assert out.grade == 4 and out.is_zero


def test_wedge_power():
    pi = mv(V4, 2, {(0, 1): "1", (2, 3): "1"})
    assert wedge_power(pi, 2) == mv(V4, 4, {(0, 1, 2, 3): "2"})
    assert wedge_power(pi, 0) == mv(V4, 0, {(): "1"})


# -- Schouten bracket --------------------------------------------------------------


def test_bracket_is_lie_bracket_on_vector_fields():
    x_dy = mv(V3, 1, {(1,): "x"})
    ddx = mv(V3, 1, {(0,): "1"})
    assert schouten_bracket(x_dy, ddx) == mv(V3, 1, {(1,): "-1"})


def test_bracket_on_function_is_directional_derivative():
    rng = random.Random(2)
    for _ in range(20):
        x = rand_mv(rng, V3, 1)
        f = rand_mv(rng, V3, 0)
        expected = MultivectorField(V3, 0, {(): sum(
            (x.coefficients()[i] * (f.components.get((), Polynomial.zero(V3))).diff(i)
             for i in range(3)), Polynomial.zero(V3))})
        assert schouten_bracket(x, f) == expected


def test_bivector_self_bracket_vanishes_on_r2():
    pi = mv(("x", "y"), 2, {(0, 1): "x"})
    assert schouten_bracket(pi, pi).is_zero


def test_linear_rotation_bivector_is_poisson():
    pi = mv(V3, 2, {(0, 1): "z", (1, 2): "x", (0, 2): "-y"})
    assert schouten_bracket(pi, pi).is_zero


def test_self_bracket_against_curl_pairing():
    # independent route on R^3: pi = P dy^dz + Q dz^dx + R dx^dy corresponds
    # to w = (P, Q, R), and [pi, pi] = -2 <w, curl w> dx^dy^dz
    rng = random.Random(9)
    for _ in range(15):
        P, Q, R = (rand_poly(rng, V3) for _ in range(3))
        pi = MultivectorField(V3, 2, {(1, 2): P, (0, 2): -Q, (0, 1): R})
        curl = [R.diff(1) - Q.diff(2), P.diff(2) - R.diff(0), Q.diff(0) - P.diff(1)]
        pairing = P * curl[0] + Q * curl[1] + R * curl[2]
        bracket = schouten_bracket(pi, pi)
        expected = MultivectorField(V3, 3, {(0, 1, 2): pairing.scale(-2)})
        assert bracket == expected


def test_graded_antisymmetry_seeded():
    rng = random.Random(21)
    for _ in range(40):
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        if p + q == 0:
            continue
        a, b = rand_mv(rng, V4, p), rand_mv(rng, V4, q)
        sign = -1 if ((p - 1) * (q - 1)) % 2 == 0 else 1
        assert schouten_bracket(a, b) == schouten_bracket(b, a).scale(sign)


def test_graded_leibniz_seeded():
    rng = random.Random(22)
    checked = 0
    while checked < 30:
        p, q, r = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2)
        if q + r > 4:
            continue
        a, b, c = rand_mv(rng, V4, p), rand_mv(rng, V4, q), rand_mv(rng, V4, r)
        sign = 1 if ((p - 1) * q) % 2 == 0 else -1
        lhs = schouten_bracket(a, wedge(b, c))
        rhs = wedge(schouten_bracket(a, b), c) + wedge(b, schouten_bracket(a, c)).scale(sign)
        assert lhs == rhs
        checked += 1


# -- Cartan calculus -------------------------------------------------------------


def test_exterior_derivative_basic():
    omega = form(V3, 1, {(1,): "x"})
    assert exterior_derivative(omega) == form(V3, 2, {(0, 1): "1"})


def test_d_squared_zero_randomized():
    rng = random.Random(4)
    for _ in range(25):
        omega = rand_form(rng, V4, rng.randint(0, 3))
        assert exterior_derivative(exterior_derivative(omega)).is_zero


def test_interior_product_basic():
    dxdy = form(V3, 2, {(0, 1): "1"})
    ddx = mv(V3, 1, {(0,): "1"})
    assert interior_product(ddx, dxdy) == form(V3, 1, {(1,): "1"})


def test_exterior_derivative_graded_leibniz_seeded():
    # d(a ^ b) = da ^ b + (-1)^p a ^ db for forms of grade p and q
    rng = random.Random(62)
    for _ in range(40):
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        a, b = rand_form(rng, V4, p), rand_form(rng, V4, q)
        sign = 1 if p % 2 == 0 else -1
        rhs = (wedge(exterior_derivative(a), b)
               + wedge(a, exterior_derivative(b)).scale(sign))
        assert exterior_derivative(wedge(a, b)) == rhs


def test_interior_product_is_an_antiderivation_seeded():
    # iota_X (a ^ b) = iota_X a ^ b + (-1)^p a ^ iota_X b for p, q >= 1
    rng = random.Random(63)
    for _ in range(40):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        x = rand_mv(rng, V4, 1)
        a, b = rand_form(rng, V4, p), rand_form(rng, V4, q)
        sign = 1 if p % 2 == 0 else -1
        rhs = (wedge(interior_product(x, a), b)
               + wedge(a, interior_product(x, b)).scale(sign))
        assert interior_product(x, wedge(a, b)) == rhs


def test_interior_product_against_component_formula():
    # (iota_X w)_I = sum_j X^j w_(jI), the sign of sorting jI counted as the
    # number of indices in I below j
    rng = random.Random(64)
    for _ in range(30):
        grade = rng.randint(2, 3)
        x = rand_mv(rng, V4, 1)
        omega = rand_form(rng, V4, grade)
        xc = x.coefficients()
        expected = {}
        for rest in combinations(range(4), grade - 1):
            acc = Polynomial.zero(V4)
            for j in range(4):
                if j in rest:
                    continue
                comp = omega.components.get(tuple(sorted(rest + (j,))), Polynomial.zero(V4))
                below = sum(1 for i in rest if i < j)
                acc = acc + (xc[j] * comp).scale(-1 if below % 2 else 1)
            expected[rest] = acc
        assert interior_product(x, omega) == DifferentialForm(V4, grade - 1, expected)


X_DZ = mv(V3, 1, {(0,): "1", (1,): "z"})
DF = form(V3, 1, {(0,): "y", (1,): "x"})


@pytest.mark.parametrize("call", [
    lambda: interior_product(X_DZ, mv(V3, 2, {(0, 1): "z", (1, 2): "y"})),
    lambda: interior_product(DF, form(V3, 2, {(0, 1): "1"})),
    lambda: pair(X_DZ, DF),
    lambda: mv(V3, 2, {(0, 1): "z", (1, 2): "x", (0, 2): "-y"}).sharp(
        mv(V3, 1, {(0,): "1", (1,): "y"})),
], ids=["bivector-as-form", "form-as-vector", "swapped-pair", "vector-as-form-in-sharp"])
def test_interior_product_refuses_the_wrong_kind_of_tensor(call):
    with pytest.raises(TypeError):
        call()


def test_cartan_identity_exact():
    # L_X commutes with d (a consequence of L_X = d iota_X + iota_X d and d^2 = 0)
    rng = random.Random(6)
    for _ in range(25):
        x = rand_mv(rng, V4, 1)
        omega = rand_form(rng, V4, rng.randint(0, 3))
        assert (exterior_derivative(lie_derivative(x, omega))
                == lie_derivative(x, exterior_derivative(omega)))


def test_lie_derivative_against_component_formula():
    # independent route for 1-forms: (L_X b)_j = X^i d_i b_j + b_i d_j X^i
    rng = random.Random(61)
    for _ in range(20):
        x = rand_mv(rng, V4, 1)
        beta = rand_form(rng, V4, 1)
        xc, bc = x.coefficients(), beta.coefficients()
        expected = []
        for j in range(4):
            acc = Polynomial.zero(V4)
            for i in range(4):
                acc = acc + xc[i] * bc[j].diff(i) + bc[i] * xc[i].diff(j)
            expected.append(acc)
        assert lie_derivative(x, beta) == DifferentialForm.from_coefficients(V4, expected)


def test_pairing():
    alpha = form(V3, 1, {(0,): "y", (1,): "x"})
    x = mv(V3, 1, {(0,): "1", (1,): "z"})
    assert pair(alpha, x) == Polynomial.parse(V3, "y + x*z")


# -- evaluation -------------------------------------------------------------------


def test_evaluate_bivector_matrix():
    pi = mv(("x", "y", "t"), 2, {(0, 1): "t"})
    val = pi.evaluate([0, 0, 1])
    assert val.skew_matrix()[0][1] == 1 and val.skew_matrix()[1][0] == -1


def test_evaluate_linear_rotation_bivector():
    pi = mv(V3, 2, {(0, 1): "z", (1, 2): "x", (0, 2): "-y"})
    assert pi.evaluate([0, 0, 0]).skew_matrix() == [[0] * 3 for _ in range(3)]
    assert qq_rank(pi.evaluate([1, 0, 0]).skew_matrix()) == 2


def test_evaluate_commutes_with_wedge():
    rng = random.Random(8)
    for _ in range(20):
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        a, b = rand_mv(rng, V4, p), rand_mv(rng, V4, q)
        point = [QQ(rng.randint(-3, 3), rng.randint(1, 3)) for _ in V4]
        left = wedge(a, b).evaluate(point)
        av, bv = a.evaluate(point), b.evaluate(point)
        # recompute the wedge on constant tensors through polynomial constants
        consts = lambda tv: MultivectorField(V4, tv.grade, {
            k: Polynomial.constant(V4, v) for k, v in tv.components.items()})
        right = wedge(consts(av), consts(bv)).evaluate([0, 0, 0, 0])
        assert left == right


def test_grade_one_coefficients_round_trip():
    x = mv(V3, 1, {(0,): "y", (2,): "x*z"})
    assert MultivectorField.from_coefficients(V3, x.coefficients()) == x
