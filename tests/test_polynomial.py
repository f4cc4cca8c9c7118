"""Exact polynomial arithmetic, parsing, gcd."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
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
)
from poiskit.polyalg.polynomial import _normalize_primitive
from poiskit.modcalc import polynomial_gcd

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
    assert polynomial_gcd([P("2*x"), P("4*x")]) == P("x")
    assert polynomial_gcd([P("x^2 - y^2"), P("x^2 + 2*x*y + y^2")]) == P("x + y")
    assert polynomial_gcd([P("x*y"), P("x*z")]) == P("x")
    assert polynomial_gcd([P("0"), P("-3*x")]) == P("x")
    assert polynomial_gcd([P("2*x*y"), P("4*x*z"), P("6*x")]) == P("x")


def test_gcd_of_one_polynomial_is_that_polynomial_unnormalised():
    # the log-type split relies on it: a one-component top power is its own g
    assert polynomial_gcd([P("-2*x*y + 4")]) == P("-2*x*y + 4")
    assert polynomial_gcd([P("0")]) == P("0")
    with pytest.raises(ValueError, match="empty family"):
        polynomial_gcd([])
    with pytest.raises(ChartMismatchError):
        polynomial_gcd([P("x"), parse_polynomial(("x", "y"), "x")])


def test_gcd_fold_ends_at_a_constant(monkeypatch):
    from poiskit.modcalc import presentation

    pairs = []
    gcd_pair = presentation._gcd_pair

    def recorded(a, b):
        pairs.append((str(a), str(b)))
        return gcd_pair(a, b)

    monkeypatch.setattr(presentation, "_gcd_pair", recorded)
    # a constant first: no pair is taken
    assert polynomial_gcd([P("3"), P("x"), P("y")]) == P("1")
    assert pairs == []
    # the specialisation certificate proves gcd 1: no pair is taken
    assert polynomial_gcd([P("x*y"), P("x*z"), P("y*z"), P("x")]) == P("1")
    assert pairs == []
    # at y = 3, z = 5 every member is a multiple of x, so the certificate does
    # not decide; the running gcd turns constant at the second pair, and the
    # last member is never paired
    assert polynomial_gcd([P("x*y"), P("x*z"), P("y*z - 15"), P("x")]) == P("1")
    assert pairs == [("x*y", "x*z"), ("x", "y*z - 15")]
    with pytest.raises(ChartMismatchError):
        polynomial_gcd([P("1"), parse_polynomial(("x", "y"), "x")])


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
        d = polynomial_gcd([f * h, g * h])
        # h divides the gcd (over Q), and the gcd divides both products
        assert divides_exactly(d, h) is not None
        assert divides_exactly(f * h, d) is not None
        assert divides_exactly(g * h, d) is not None


def _from_sympy(variables, expr, xs) -> Polynomial:
    import sympy

    poly = sympy.Poly(expr, *xs)
    return Polynomial(variables, {m: QQ(int(c.p), int(c.q)) for m, c in poly.terms()})


def _sympy_oracle_cases():
    """Seeded products ``g*a``, ``g*b`` in 2-4 variables, the product that
    defeats a recursive primitive PRS (coefficient growth), and zero and
    constant inputs."""
    rng = random.Random(11)
    cases = []
    for k in range(36):
        n = 2 + k % 3
        variables = tuple(f"v{i}" for i in range(n))

        def rand_poly(terms):
            return Polynomial(variables, {tuple(rng.randint(0, 2) for _ in range(n)):
                                          rng.randint(-9, 9) for _ in range(terms)})

        g = rand_poly(rng.randint(1, 3))
        a, b = rand_poly(rng.randint(1, 4)), rand_poly(rng.randint(1, 4))
        cases.append(pytest.param(variables, [g * a, g * b], id=f"seeded-{k}"))
    v4 = tuple(f"v{i}" for i in range(4))
    g = parse_polynomial(v4, "-5*v0*v1*v2 + 5*v1 + 6*v2 + 2*v3")
    a = parse_polynomial(v4, "2*v0*v1^2 + 7*v0*v3^2 + 7*v0*v2 + 9*v1")
    b = parse_polynomial(v4, "-7*v0^2*v1 - 4*v0*v3^2 + v3^2 - 7*v3")
    cases.append(pytest.param(v4, [g * a, g * b], id="prs-stall"))
    for pair in (("0", "6*x^2*y - 4*y"), ("-3*x*y + 3", "0"), ("0", "0"), ("5", "x^2 - y"),
                 ("x*y - z", "-7/2"), ("2", "3"), ("4*x*z^2 - 2*x", "6*x^2*z^2 - 3*x^2")):
        cases.append(pytest.param(V, [P(t) for t in pair], id=f"{pair[0]}|{pair[1]}"))
    return cases


@pytest.mark.parametrize("variables,pair", _sympy_oracle_cases())
def test_gcd_agrees_with_sympy(variables, pair):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(variables)
    exprs = [sympy.sympify(str(p).replace("^", "**"), locals=dict(zip(variables, xs)))
             for p in pair]
    expected = _normalize_primitive(_from_sympy(variables, sympy.gcd(*exprs), xs))
    assert polynomial_gcd(pair) == expected


def test_gcd_checks_the_syzygy_it_reads(monkeypatch):
    from poiskit.modcalc import presentation

    real = presentation.syzygies

    def doubled(rows):
        syz = real(rows)
        return presentation.SubmodulePresentation(syz.variables, 2, list(syz.generators) * 2)

    monkeypatch.setattr(presentation, "syzygies", doubled)
    with pytest.raises(AssertionError, match="2 generators"):
        polynomial_gcd([P("x*y"), P("x*z")])
    unit = lambda rows: presentation.SubmodulePresentation(V, 2, [[P("1"), P("x")]])
    monkeypatch.setattr(presentation, "syzygies", unit)
    with pytest.raises(AssertionError, match="does not divide"):
        polynomial_gcd([P("x*y"), P("x*z")])


@st.composite
def gcd_families(draw, planted: bool):
    """2-5 members in 2-4 variables with up to four terms of degree <= 2 and
    coefficients in [-3, 3] (some 1/2); with ``planted``, each member times
    one nonconstant factor."""
    n = draw(st.integers(2, 4))
    variables = tuple(f"v{i}" for i in range(n))
    expo = st.tuples(*[st.integers(0, 2)] * n)
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 3, QQ(1, 2), QQ(-3, 2)])
    poly = st.dictionaries(expo, coeff, min_size=1, max_size=4).map(
        lambda terms: Polynomial(variables, terms))
    members = draw(st.lists(poly, min_size=2, max_size=5))
    if planted:
        factor = draw(poly.filter(lambda p: not p.is_constant()))
        members = [factor * m for m in members]
    return variables, members


def _sympy_gcd(variables, members):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(variables)
    exprs = [sympy.sympify(str(p).replace("^", "**"), locals=dict(zip(variables, xs)))
             for p in members]
    return sympy.Poly(sympy.gcd_list(exprs), *xs)


@settings(max_examples=120, deadline=None)
@given(gcd_families(planted=False))
def test_gcd_certificate_agrees_with_sympy(family):
    from poiskit.modcalc.presentation import _coprime_by_specialisation

    variables, members = family
    if _coprime_by_specialisation(members):
        assert _sympy_gcd(variables, members).is_ground
        assert polynomial_gcd(members) == Polynomial.one(variables)


@settings(max_examples=60, deadline=None)
@given(gcd_families(planted=True))
def test_a_planted_common_factor_is_never_certified(family):
    from poiskit.modcalc import presentation

    variables, members = family
    assert not presentation._coprime_by_specialisation(members)
    pairs = []
    gcd_pair = presentation._gcd_pair

    def recorded(a, b):
        pairs.append((a, b))
        return gcd_pair(a, b)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(presentation, "_gcd_pair", recorded)
        got = polynomial_gcd(members)
    # the engine fold decides it, and finds the factor
    assert pairs
    expected = _sympy_gcd(variables, members)
    assert not expected.is_ground
    assert got == _normalize_primitive(_from_sympy(variables, expected.as_expr(), expected.gens))


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


@pytest.mark.parametrize("ftype", [float, np.float64, np.float32, np.float16])
def test_eval_reads_a_float_of_any_width_as_float(ftype):
    p = P("x^2*y - 1/3*x + 2*z^3 - 5")
    for point in ((0.5, -1.25, 3.0), (0.3, 7.1, -0.2), (-2.0, 0.1, 1e-3)):
        floats = [ftype(a) for a in point]
        got = p.eval(floats)
        expected = p.eval([float(a) for a in floats])
        assert type(got) is float and got.hex() == expected.hex()
        mixed = p.eval([floats[0], QQ(1, 3), 2])
        assert type(mixed) is float and mixed == p.eval([float(floats[0]), QQ(1, 3), 2])


def test_eval_on_exact_coordinates_stays_exact():
    p = P("x^2*y - 1/3*x + 2*z^3 - 5")
    for point in ((1, 2, 3), (QQ(1, 2), -3, QQ(4, 7)), (QQ(6, 3), np.int64(2), "3/4")):
        got = p.eval(list(point))
        x, y, z = (Fraction(a) for a in point)
        assert got == x * x * y - Fraction(1, 3) * x + 2 * z ** 3 - 5
        assert type(got) in (int, QQ)
