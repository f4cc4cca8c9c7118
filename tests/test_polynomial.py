"""Exact polynomial arithmetic, parsing, gcd."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poiskit._kernel import QQ
from poiskit._kernel import _termops_py as termops
from poiskit.polyalg import (
    ChartMismatchError,
    PolyParseError,
    Polynomial,
    divides_exactly,
    parse_polynomial,
    poly_gcd,
    poly_gcd_all,
)

V = ("x", "y", "z")


def P(text: str) -> Polynomial:
    return parse_polynomial(V, text)


def test_parse_basic_forms():
    assert str(P("3*x^2*y - 1/2*z + 5")) == "3*x^2*y - 1/2*z + 5"
    assert P("x + x") == P("2*x")
    assert P("x - x").is_zero
    assert P("-(x - y)") == P("y - x")
    assert P("2/4") == P("1/2")


def test_parse_roundtrip_canonical():
    rng = random.Random(11)
    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            e = tuple(rng.randint(0, 3) for _ in V)
            terms[e] = QQ(rng.randint(-9, 9), rng.randint(1, 9))
        p = Polynomial(V, terms)
        assert parse_polynomial(V, str(p)) == p


def test_text_is_rendered_once_per_polynomial():
    p = P("x^2 - 3*y")
    assert str(p) is str(p) == p._render() == "x^2 - 3*y"
    assert str(p + p) == "2*x^2 - 6*y"
    assert str(p - p) == "0" and str(p) == "x^2 - 3*y"


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError):
        parse_polynomial(V, "x + @")
    with pytest.raises(PolyParseError) as err:
        parse_polynomial(V, "x + w")
    assert "unknown variable" in str(err.value)
    with pytest.raises(PolyParseError):
        parse_polynomial(V, "x +")
    with pytest.raises(PolyParseError):
        parse_polynomial(V, "(x")


def test_chart_mismatch_raises():
    with pytest.raises(ChartMismatchError):
        P("x") + parse_polynomial(("a", "b"), "a")


def test_derivative_and_eval_exact():
    p = P("3*x^2*y - 1/2*z + 5")
    assert p.diff("x") == P("6*x*y")
    assert p.diff("z") == P("-1/2")
    assert p.eval([1, 2, QQ(1, 2)]) == QQ(43, 4)
    assert p.eval([0.5, 2.0, 1.0]) == pytest.approx(3 * 0.25 * 2 - 0.5 + 5)


def test_partial_eval_reduces_chart():
    p = P("x*z + y^2")
    q = p.partial_eval({"z": 3})
    assert q.variables == ("x", "y")
    assert q == parse_polynomial(("x", "y"), "3*x + y^2")


def test_power_and_scale():
    p = P("x + y")
    assert p ** 3 == P("x^3 + 3*x^2*y + 3*x*y^2 + y^3")
    assert p.scale(QQ(1, 2)) == P("1/2*x + 1/2*y")


@settings(max_examples=60, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_ring_axioms_on_random_coefficients(a, b, c):
    x, y = P("x"), P("y")
    p = a * x + b * y
    q = c * x * y + a
    r = b * y ** 2 - c
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert p - p == Polynomial.zero(V)


def test_gcd_known_cases():
    assert poly_gcd(P("2*x"), P("4*x")) == P("x")
    assert poly_gcd(P("x^2 - y^2"), P("x^2 + 2*x*y + y^2")) == P("x + y")
    assert poly_gcd(P("x*y"), P("x*z")) == P("x")
    assert poly_gcd(P("0"), P("-3*x")) == P("x")
    assert poly_gcd_all([P("2*x*y"), P("4*x*z"), P("6*x")]) == P("x")


def test_gcd_divides_random_products():
    rng = random.Random(5)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in V)
            terms[e] = rng.randint(-4, 4)
        p = Polynomial(V, terms)
        return p if p else P("1")

    for _ in range(25):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        d = poly_gcd(f * h, g * h)
        # h divides the gcd (over Q), and the gcd divides both products
        assert divides_exactly(d, h) is not None
        assert divides_exactly(f * h, d) is not None
        assert divides_exactly(g * h, d) is not None


def test_divides_exactly():
    assert divides_exactly(P("x^2 - y^2"), P("x - y")) == P("x + y")
    assert divides_exactly(P("x^2 + y"), P("x")) is None
    assert divides_exactly(P("0"), P("x")) == P("0")
    with pytest.raises(ZeroDivisionError):
        divides_exactly(P("x"), P("0"))


def test_leading_term_degrevlex():
    # same total degree: the tie is broken against the latest variable
    p = P("x*z + y^2")
    expo, coeff = p.leading()
    assert expo == (0, 2, 0) and coeff == 1


def _rand_terms(rng):
    out = {}
    for _ in range(6):
        c = QQ(rng.randint(-9, 9), rng.randint(1, 9))
        if c:
            out[tuple(rng.randint(0, 4) for _ in range(3))] = c
    return out


KERNEL_CALLS = {
    "t_add": lambda a, b: termops.t_add(a, b),
    "t_sub": lambda a, b: termops.t_sub(a, b),
    "t_neg": lambda a, b: termops.t_neg(a),
    "t_scale": lambda a, b: termops.t_scale(a, QQ(-3, 2)),
    "t_mul": lambda a, b: termops.t_mul(a, b),
    "t_axpy": lambda a, b: termops.t_axpy(a, QQ(2), (1, 0, 0), b),
    "t_diff": lambda a, b: termops.t_diff(a, 0),
    "t_eval": lambda a, b: termops.t_eval(a, (QQ(1, 2), QQ(-1), QQ(3))),
}


@pytest.mark.parametrize("name", sorted(KERNEL_CALLS))
def test_kernel_inputs_never_mutated(name):
    rng = random.Random(2)
    a, b = _rand_terms(rng), _rand_terms(rng)
    snapshot = [dict(d) for d in (a, b)]
    out = KERNEL_CALLS[name](a, b)
    assert [a, b] == snapshot
    if isinstance(out, dict):
        assert all(out is not d for d in (a, b))
