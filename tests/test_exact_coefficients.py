"""The exact stack returns exact coefficients, never floats.

An exact coefficient is an ``int`` when integral and a ``QQ``
(``fractions.Fraction``) otherwise. Random rational polynomials and matrices
go through exact division, Groebner bases and membership, the polynomial
gcd, the linear algebra kernels, the Casimir solve and the linear groupoid
model. No result may be a float, every result equals a reference computed on
``Fraction`` coefficients only, and the coercion, the division helper, the
polynomial constructor and the linear algebra kernels return the canonical
form.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import poiskit.polyalg.polynomial as polynomial_module
from dense_reference import qq_det, qq_nullspace, qq_rank, qq_solve
from poiskit._kernel import QQ, qq_div, to_qq
from poiskit.groupoid import LinearGroupoidModel
from poiskit.modcalc import SubmodulePresentation, linalg, polynomial_gcd
from poiskit.modcalc import engine
from poiskit.modcalc.engine import buchberger, vec_from_polys
from poiskit.modcalc.linalg import nullspace, rank, solve, sparse_nullspace
from poiskit.modcalc.rank import _det
from poiskit.polyalg import Polynomial
from poiskit.polyalg.polynomial import divides_exactly
from poiskit.poisson import PoissonStructure, casimir_search
from test_poisson import _casimir_basis_via_dense

V2 = ("x", "y")
V3 = ("x", "y", "z")
T = ("t",)

COEFF = st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
NONZERO = COEFF.filter(bool)


def canonical(x) -> bool:
    """An ``int`` when integral, else a ``QQ``."""
    return type(x) is int if x.denominator == 1 else type(x) is QQ


def coefficients(x):
    """Every number inside ``x``: polynomials, vectors, dicts and verdicts."""
    if isinstance(x, Polynomial):
        yield from x.terms.values()
    elif isinstance(x, dict):
        for v in x.values():
            yield from coefficients(v)
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from coefficients(v)
    elif hasattr(x, "outcome"):
        yield from coefficients([x.certificate, x.witness])
    elif x is not None:
        yield x


def assert_exact(x) -> None:
    for c in coefficients(x):
        assert type(c) is int or type(c) is QQ, f"{c!r} is not exact"


def assert_canonical(x) -> None:
    for c in coefficients(x):
        assert canonical(c), f"{c!r} is not canonical"


@contextmanager
def fraction_only():
    """The exact stack on ``Fraction`` coefficients only: every exact
    division and coercion returns a ``Fraction``, integral or not."""
    with ExitStack() as stack:
        for module in (engine, polynomial_module, linalg):
            stack.enter_context(mock.patch.object(
                module, "qq_div", lambda a, b: Fraction(a) / Fraction(b)))
        for module in (polynomial_module, linalg):
            stack.enter_context(mock.patch.object(module, "to_qq", Fraction))
        yield


def polys(variables, max_terms=3, degree=2):
    expo = st.tuples(*[st.integers(0, degree)] * len(variables))
    return st.dictionaries(expo, COEFF, max_size=max_terms).map(
        lambda terms: Polynomial(variables, terms))


def nonzero_polys(variables, max_terms=3, degree=2):
    return polys(variables, max_terms, degree).filter(bool)


@st.composite
def matrices(draw, square=False):
    nrows = draw(st.integers(1, 4))
    ncols = nrows if square else draw(st.integers(1, 5))
    return [draw(st.lists(COEFF, min_size=ncols, max_size=ncols)) for _ in range(nrows)]


# -- coercion, division and the polynomial constructor -----------------------------------


@given(COEFF, NONZERO)
def test_qq_div_and_to_qq_are_canonical(a, b):
    for x, y in ((a, b), (a.numerator, b.numerator), (Fraction(a), Fraction(b))):
        q = qq_div(x, y)
        assert q == Fraction(x) / Fraction(y) and canonical(q)
    for x in (a, Fraction(a), str(Fraction(a))):
        assert to_qq(x) == Fraction(a) and canonical(to_qq(x))


def test_to_qq_reads_other_rationals_as_python_numbers():
    # a numpy integer kept as is would divide to a float and wrap on overflow
    for value, expected in ((np.int64(5), 5), (np.int64(-4), -4), (True, 1),
                            (sympy.Rational(3, 6), Fraction(1, 2)), (sympy.Integer(4), 4)):
        got = to_qq(value)
        assert got == expected and type(got) is type(expected)
        assert type(got.numerator) is int and type(got.denominator) is int


@given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), COEFF, max_size=4))
def test_polynomial_coefficients_are_canonical(terms):
    p = Polynomial(V2, terms)
    assert p.terms == {e: Fraction(c) for e, c in terms.items() if c}
    assert_canonical(p)


@settings(max_examples=150, deadline=None)
@given(polys(V2), nonzero_polys(V2))
def test_exact_division_stays_exact(p, q):
    quotient = divides_exactly(p * q, q)
    assert quotient == p
    assert_exact(quotient)
    assert_canonical(quotient)


# -- Groebner bases, membership and gcd --------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(nonzero_polys(V2), nonzero_polys(V2))
def test_spair_and_normal_form_stay_exact(g, h):
    # non-monic leads, as inside Buchberger before the basis is reduced
    g, h = vec_from_polys([g]), vec_from_polys([h])
    s = engine._spair(g, h, max(g), max(h))
    r = engine._normal_form(s, [g, h], [max(g), max(h)])
    assert_exact([s, r])
    with fraction_only():
        assert (s, r) == (engine._spair(g, h, max(g), max(h)),
                          engine._normal_form(s, [g, h], [max(g), max(h)]))


@settings(max_examples=60, deadline=None)
@given(st.lists(nonzero_polys(V2), min_size=1, max_size=3))
def test_buchberger_stays_exact(gens):
    basis = buchberger(vec_from_polys([g]) for g in gens)
    assert_exact(basis)
    with fraction_only():
        reference = buchberger(vec_from_polys([g]) for g in gens)
    assert basis == reference


@settings(max_examples=60, deadline=None)
@given(st.lists(nonzero_polys(V2), min_size=1, max_size=3), st.data())
def test_membership_certificates_stay_exact(gens, data):
    cofactors = data.draw(st.lists(polys(V2, 2, 1), min_size=len(gens), max_size=len(gens)))
    member = sum((c * g for c, g in zip(cofactors, gens)), Polynomial.zero(V2))
    other = data.draw(polys(V2))
    for element in (member, other):
        verdict = SubmodulePresentation.ideal(V2, gens).contains([element])
        assert_exact(verdict)
        with fraction_only():
            reference = SubmodulePresentation.ideal(V2, gens).contains([element])
        assert (verdict.outcome, verdict.certificate, verdict.witness) == (
            reference.outcome, reference.certificate, reference.witness)
    assert SubmodulePresentation.ideal(V2, gens).contains([member]).is_yes


@settings(max_examples=40, deadline=None)
@given(nonzero_polys(V2, 2, 1), nonzero_polys(V2, 2, 1), nonzero_polys(V2, 2, 1))
def test_polynomial_gcd_stays_exact(a, b, c):
    g = polynomial_gcd([a * c, b * c])
    assert_exact(g)
    assert divides_exactly(g, c) is not None
    with fraction_only():
        assert g == polynomial_gcd([a * c, b * c])


# -- linear algebra ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_linear_algebra_kernels_are_canonical(rows, data):
    ncols = len(rows[0])
    kernel = nullspace(rows, ncols)
    assert kernel == qq_nullspace(rows, ncols=ncols)
    sparse = sparse_nullspace([{c: v for c, v in enumerate(row) if v} for row in rows], ncols)
    assert [[v.get(c, 0) for c in range(ncols)] for v in sparse] == kernel
    assert rank(rows) == qq_rank(rows)
    rhs = data.draw(st.lists(COEFF, min_size=len(rows), max_size=len(rows)))
    sol = solve(rows, rhs)
    assert sol == qq_solve(rows, rhs)
    for out in (kernel, sparse, sol):
        assert_exact(out)
        assert_canonical(out)


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_determinant_stays_exact(rows):
    det = _det(rows)
    assert det == qq_det(rows)
    assert_exact(det)


# -- Casimirs ----------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(nonzero_polys(V3, 3, 2), NONZERO)
def test_casimir_search_is_canonical(c, scale):
    # scale * i_{dC}(dx ^ dy ^ dz) is Poisson, with C among its Casimirs
    structure = PoissonStructure.from_components(V3, {
        (0, 1): c.diff("z").scale(scale), (1, 2): c.diff("x").scale(scale),
        (0, 2): c.diff("y").scale(-scale)})
    basis = casimir_search(structure, 3)
    assert basis == _casimir_basis_via_dense(structure, 3)
    assert_exact(basis)
    assert_canonical(basis)


# -- the linear groupoid model -----------------------------------------------------------


def _reference_target(pi, f, g):
    xi, v, t = g
    ft = sum((Fraction(c) * Fraction(t) ** e for (e,), c in f.terms.items()), Fraction(0))
    d = len(pi)
    return tuple(Fraction(v[j]) + ft * sum((Fraction(xi[i]) * Fraction(pi[i][j])
                                            for i in range(d)), Fraction(0))
                 for j in range(d))


@settings(max_examples=100, deadline=None)
@given(NONZERO, polys(T, 3, 3), st.data())
def test_groupoid_maps_stay_exact(a, f, data):
    pi = [[0, a], [-a, 0]]
    model = LinearGroupoidModel(pi, f)
    vec = st.tuples(COEFF, COEFF)
    h = (data.draw(vec), data.draw(vec), data.draw(COEFF))
    w, t = model.target(h)
    assert w == _reference_target(pi, f, h) and t is h[2]
    g = (data.draw(vec), w, t)
    gh = model.multiply(g, h)
    assert gh == (tuple(Fraction(x) + Fraction(y) for x, y in zip(g[0], h[0])), h[1], t)
    inverse = model.inverse(h)
    assert inverse == (tuple(-Fraction(x) for x in h[0]), w, t)
    assert_exact([w, gh, inverse])
    assume(model.f_at(t))
    for w_in in (w, tuple(map(to_qq, w))):        # QQ as target gives it, and canonical
        back = model.pair_slice_inverse((w_in, h[1], t))
        assert back == h
        assert_exact(back)
        assert_canonical(back[0])
