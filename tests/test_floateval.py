"""Compiled float evaluator against the exact ``Polynomial.eval``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poiskit._kernel import QQ
from poiskit.polyalg import ChartMismatchError, FloatEvaluator, Polynomial

REL = 1e-12


def reference(polys, point) -> np.ndarray:
    return np.array([float(p.eval([float(v) for v in point])) for p in polys])


def magnitude(polys, point) -> np.ndarray:
    """Sum of the absolute terms: the scale rounding errors are relative to."""
    return np.array([sum(abs(float(c)) * float(np.prod(np.abs(point) ** np.array(e)))
                         for e, c in p.terms.items()) for p in polys])


def assert_close(polys, got, point):
    expected = reference(polys, point)
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= REL * np.maximum(1.0, magnitude(polys, point)))


def charts(n):
    return tuple(f"x{i}" for i in range(n))


@st.composite
def chart_polys(draw):
    n = draw(st.integers(1, 4))
    variables = charts(n)
    terms = st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * n),
        st.builds(QQ, st.integers(-50, 50), st.integers(1, 12)),
        max_size=6)
    polys = [Polynomial(variables, t) for t in draw(st.lists(terms, max_size=5))]
    points = draw(st.lists(st.lists(st.floats(-3, 3), min_size=n, max_size=n),
                           min_size=1, max_size=4))
    return variables, polys, np.array(points)


@settings(max_examples=150, deadline=None)
@given(chart_polys())
def test_matches_exact_evaluation_on_random_charts(case):
    variables, polys, points = case
    ev = FloatEvaluator(variables, polys)
    stacked = ev(points)
    assert stacked.shape == (len(points), len(polys))
    for point, row in zip(points, stacked):
        assert_close(polys, ev(point), point)
        assert_close(polys, row, point)


def test_zero_constant_and_empty_list():
    chart = charts(2)
    zero, three = Polynomial.zero(chart), Polynomial.constant(chart, QQ(3, 4))
    ev = FloatEvaluator(chart, [zero, three, zero])
    assert ev([5.0, -2.0]).tolist() == [0.0, 0.75, 0.0]
    assert ev(np.zeros((3, 2))).tolist() == [[0.0, 0.75, 0.0]] * 3
    empty = FloatEvaluator(chart, [])
    assert empty([1.0, 2.0]).shape == (0,)
    assert empty(np.ones((4, 2))).shape == (4, 0)
    only_zero = FloatEvaluator(chart, [zero])
    assert only_zero([1.0, 2.0]).tolist() == [0.0]


def test_disjoint_supports_and_row_selection():
    chart = ("x", "y", "z")
    polys = [Polynomial.parse(chart, s) for s in ("x^2 - 3*y", "5/2*z^3", "x*y*z + 1", "y^4")]
    ev = FloatEvaluator(chart, polys)
    points = np.array([[0.5, -1.25, 2.0], [-3.0, 0.0, 1.5], [1e-3, 7.0, -0.25]])
    for point, row in zip(points, ev(points)):
        assert_close(polys, row, point)
        assert_close(polys[1:3], ev.rows(1, 3)(point), point)
    sub = ev.rows(1, 2)
    assert sub.exponents.tolist() == [[0.0, 0.0, 3.0]]     # only the monomial z^3 is kept


def test_rejects_other_charts_and_bad_shapes():
    with pytest.raises(ChartMismatchError):
        FloatEvaluator(("x", "y"), [Polynomial.variable(("x", "z"), "x")])
    ev = FloatEvaluator(("x", "y"), [Polynomial.variable(("x", "y"), "y")])
    with pytest.raises(ValueError):
        ev([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        ev(np.zeros((2, 2, 2)))
