"""Leaf tracer: conservation, fixed points, plane confinement, blow-up guard,
argument checks and the generated RK4 step."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poiskit._kernel import QQ
from poiskit.polyalg import DifferentialForm, FloatEvaluator, Polynomial
from poiskit.poisson import PoissonStructure
from poiskit.trace import TraceBlowupError, compile_rk4_step, trace_leaf, trace_to_csv

REL = 1e-12


def test_rotation_trace_conserves_radius(su2):
    r2 = Polynomial.parse(("x", "y", "z"), "x^2 + y^2 + z^2")
    result = trace_leaf(su2, [1, 0, 0], steps=2000, dt=1e-3, invariants=[r2])
    assert result.conserved_drift[str(r2)] < 1e-8
    assert result.dimension_estimate == 2


def test_origin_is_a_fixed_point(su2):
    result = trace_leaf(su2, [0, 0, 0], steps=50, dt=1e-3)
    assert float(np.max(np.abs(result.points))) == 0.0
    assert result.dimension_estimate == 0


def test_plane_trace_stays_in_plane(heis):
    result = trace_leaf(heis, [0, 0, 1], steps=500, dt=1e-3)
    assert float(np.max(np.abs(result.points[:, 2] - 1.0))) == 0.0
    assert result.dimension_estimate == 2


def test_trace_guard_trips_on_finite_time_blowup():
    ps = PoissonStructure.from_components(("x", "y"), {(0, 1): "x^2"})
    # flow of the second coordinate function: dx/dt = -x^2, divergent from x < 0
    with pytest.raises(TraceBlowupError):
        trace_leaf(ps, [-1.0, 0.0],
                   hamiltonians=[Polynomial.variable(("x", "y"), "y")],
                   steps=5000, dt=1e-2)


def test_csv_round_shape(heis):
    result = trace_leaf(heis, [0, 0, 1], steps=5, dt=1e-3)
    csv = trace_to_csv(result, heis.variables)
    lines = csv.strip().splitlines()
    assert lines[0] == "step,x,y,t"
    assert len(lines) == 7


@pytest.mark.parametrize("bracket, x0", [
    ("x^6 - x^5", (10.0, 0.0)),                 # a power overflows the float range
    ("10^300*x*y - 10^300*x", (1e4, 3.0)),      # a product overflows: inf - inf = nan
])
def test_trace_guard_trips_on_overflow_and_nan(bracket, x0):
    ps = PoissonStructure.from_components(("x", "y"), {(0, 1): bracket})
    with pytest.raises(TraceBlowupError):
        trace_leaf(ps, x0, hamiltonians=[Polynomial.variable(("x", "y"), "y")], dt=0.1)


@pytest.mark.parametrize("bracket, x0, hamiltonian", [
    ("10^305*x*y - 10^305*x", (1e4, 3.0), "y"),   # the field overflows to inf
    ("x^100*y", (1e4, 0.0), None),                  # inf * 0: the field is nan
])
def test_rank_probe_rejects_non_finite_field_values(bracket, x0, hamiltonian):
    ps = PoissonStructure.from_components(("x", "y"), {(0, 1): bracket})
    hamiltonians = hamiltonian and [Polynomial.variable(("x", "y"), hamiltonian)]
    with pytest.raises(TraceBlowupError, match="field values are not finite"):
        trace_leaf(ps, x0, hamiltonians=hamiltonians, steps=0)


@pytest.mark.parametrize("kwargs", [
    {"hamiltonians": []},
    {"rank_every": 0},
    {"steps": -1},
    {"x0": [float("nan"), 0.0, 0.0]},
    {"x0": [0.0, float("inf"), 0.0]},
    {"dt": float("nan")},
    {"dt": float("-inf")},
    {"invariants": [Polynomial.parse(("a", "b", "c"), "a^2 + b^2 + c^2")]},
    {"hamiltonians": [Polynomial.parse(("x", "y", "z"), "10^400*x^2")]},
], ids=["no-hamiltonians", "rank-every-0", "negative-steps", "nan-x0", "inf-x0",
        "nan-dt", "inf-dt", "invariant-on-another-chart", "coefficient-beyond-float"])
def test_trace_rejects_bad_arguments_before_the_first_step(su2, monkeypatch, kwargs):
    import poiskit.trace

    def no_step(*args):
        raise AssertionError("a field was compiled before the arguments were checked")

    monkeypatch.setattr(poiskit.trace, "compile_rk4_step", no_step)
    arguments = {"x0": [1.0, 0.0, 0.0], "steps": 10, **kwargs}
    with pytest.raises(ValueError):
        trace_leaf(su2, **arguments)


def stacked_rk4_step(ev, x, dt):
    """The RK4 step on numpy arrays with a ``FloatEvaluator``, the reference
    for the generated steps: the new point and the four stage points."""
    k1 = ev(x)
    k2 = ev(x + 0.5 * dt * k1)
    k3 = ev(x + 0.5 * dt * k2)
    k4 = ev(x + dt * k3)
    stages = (x, x + 0.5 * dt * k1, x + 0.5 * dt * k2, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), stages


def stacked_rk4_points(structure, x0, steps, dt):
    """The tracer's loop over the coordinate fields with the reference step."""
    variables = structure.variables
    fields = [FloatEvaluator(variables, structure.sharp(DifferentialForm.d_of(
        Polynomial.variable(variables, v))).coefficients()) for v in variables]
    points = [np.array(x0, dtype=float)]
    for s in range(steps):
        points.append(stacked_rk4_step(fields[s % len(fields)], points[-1], dt)[0])
    return np.array(points)


@pytest.mark.parametrize("x0", [[0.6, -0.0, -0.8], [-0.0, 0.0, 1.0], [0.0, -0.0, -0.0]])
@pytest.mark.parametrize("dt", [1e-2, -1e-2])
@pytest.mark.parametrize("name", ["su2", "heis"])
def test_linear_fields_trace_bit_for_bit_like_the_stacked_step(request, name, x0, dt):
    # one monomial per component: the generated step does the stacked step's
    # float operations in the same order, signed zeros included
    structure = request.getfixturevalue(name)
    result = trace_leaf(structure, x0, steps=200, dt=dt)
    assert result.points.tobytes() == stacked_rk4_points(structure, x0, 200, dt).tobytes()


def rotation_with_factor(a, b, c):
    """(1 + ab) times the su(2) bracket scaled by 2, on the chart (a, b, c):
    ``{x_i, x_j} = f * eps_ijk * dC/dx_k`` with C = a^2 + b^2 + c^2."""
    return PoissonStructure.from_components((a, b, c), {
        (0, 1): f"2*{c} + 2*{a}*{b}*{c}",
        (1, 2): f"2*{a} + 2*{a}^2*{b}",
        (0, 2): f"-2*{b} - 2*{a}*{b}^2"})


def test_chart_names_never_reach_the_generated_step():
    results = []
    for chart in (("a", "b", "c"), ("if", "None", "x0")):
        ps = rotation_with_factor(*chart)
        radius = Polynomial.parse(chart, "{0}^2 + {1}^2 + {2}^2".format(*chart))
        results.append(trace_leaf(ps, [0.6, -0.0, 0.8], steps=300, dt=1e-2, invariants=[radius]))
    plain, odd = results
    assert plain.points.tobytes() == odd.points.tobytes()
    assert plain.dimension_estimate == odd.dimension_estimate == 2
    assert list(plain.conserved_drift.values()) == list(odd.conserved_drift.values())


@st.composite
def chart_fields(draw):
    """A chart of 1-5 coordinates and 1-3 vector fields on it with rational
    polynomial components of total degree at most 4."""
    n = draw(st.integers(1, 5))
    variables = tuple(f"v{i}" for i in range(n))
    exponent = st.lists(st.integers(0, n - 1), max_size=4).map(
        lambda picks: tuple(picks.count(i) for i in range(n)))
    terms = st.dictionaries(exponent, st.builds(QQ, st.integers(-50, 50), st.integers(1, 12)),
                            max_size=6)
    fields = draw(st.lists(st.lists(terms, min_size=n, max_size=n), min_size=1, max_size=3))
    x = draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))
    dt = draw(st.floats(-1e-3, 1e-3))
    return variables, [[Polynomial(variables, t) for t in f] for f in fields], np.array(x), dt


@settings(max_examples=150, deadline=None)
@given(chart_fields())
def test_generated_step_matches_the_stacked_rk4_step(case):
    variables, fields, x, dt = case
    n = len(variables)
    stacked = FloatEvaluator(variables, [p for field in fields for p in field])
    for i, field in enumerate(fields):
        step = compile_rk4_step(stacked.exponents, stacked.coefficients[i * n:(i + 1) * n])
        expected, stages = stacked_rk4_step(FloatEvaluator(variables, field), x, dt)
        # the step's absolute term sums: the scale rounding errors are relative to
        absolute = FloatEvaluator(variables, [
            Polynomial(variables, {e: abs(c) for e, c in p.terms.items()}) for p in field])
        sums = [absolute(np.abs(y)) for y in stages]
        scale = np.abs(x) + abs(dt) / 6.0 * (sums[0] + 2.0 * sums[1] + 2.0 * sums[2] + sums[3])
        got = np.array(step(tuple(x), dt))
        assert got.shape == (n,)
        assert np.all(np.abs(got - expected) <= REL * scale + 1e-300)
