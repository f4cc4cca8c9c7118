"""Groebner bases, syzygies, saturation, membership, rank, emptiness."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poiskit._kernel import QQ
from poiskit.polyalg import ChartMismatchError, Polynomial, parse_polynomial
from poiskit.modcalc import (
    SubmodulePresentation,
    colon_by_ideal,
    rank_profile,
    saturate,
    syzygies,
    variety_emptiness,
)
from poiskit.modcalc.linalg import qq_nullspace, sparse_nullspace

V2 = ("x", "y")
V3 = ("x", "y", "z")


def P2(t: str) -> Polynomial:
    return parse_polynomial(V2, t)


def P3(t: str) -> Polynomial:
    return parse_polynomial(V3, t)


def ideal_basis_strings(variables, gens):
    ideal = SubmodulePresentation.ideal(variables, gens)
    return [str(g[0]) for g in ideal.groebner_basis()]


# -- Groebner bases -------------------------------------------------------------


def test_unit_ideal():
    assert ideal_basis_strings(V2, [P2("x"), P2("1 - x")]) == ["1"]


def test_coordinate_ideal():
    assert sorted(ideal_basis_strings(V2, [P2("x"), P2("y")])) == ["x", "y"]


def test_circle_and_hyperbola_basis_matches_cas_oracle():
    # frozen from an independent sympy.groebner run (grevlex):
    # [y**3 - y, x**2 + y**2 - 1, x*y]
    basis = ideal_basis_strings(V2, [P2("x^2 + y^2 - 1"), P2("x*y")])
    assert sorted(basis) == sorted(["y^3 - y", "x^2 + y^2 - 1", "x*y"])
    assert len(basis) == 3


def test_second_cas_oracle_case():
    # frozen from sympy.groebner([x^2 - y, x*y - 1], grevlex):
    # [x**2 - y, x*y - 1, y**2 - x]
    basis = ideal_basis_strings(V2, [P2("x^2 - y"), P2("x*y - 1")])
    assert sorted(basis) == sorted(["x^2 - y", "x*y - 1", "y^2 - x"])


def test_groebner_deterministic():
    gens = [P2("x^2 + y^2 - 1"), P2("x*y")]
    one = ideal_basis_strings(V2, gens)
    two = ideal_basis_strings(V2, gens)
    assert one == two


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_groebner_agrees_with_sympy_on_random_ideals(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    xs = sympy.symbols("x y")

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            terms[e] = rng.randint(-3, 3)
        return terms

    gens_t = [rand_poly() for _ in range(2)]
    ours = [Polynomial(V2, t) for t in gens_t]
    ours = [p for p in ours if p]
    if not ours:
        return
    theirs = [sum(c * xs[0] ** e[0] * xs[1] ** e[1] for e, c in t.items()) for t in gens_t]
    theirs = [e for e in theirs if e != 0]
    expected = sympy.groebner(theirs, *xs, order="grevlex")
    got = set(ideal_basis_strings(V2, ours))
    want = {str(Polynomial(V2, e.as_poly(*xs).as_dict())) for e in expected.exprs}
    assert got == want


def test_basis_generates_same_module():
    module = SubmodulePresentation(V2, 2, [[P2("x"), P2("y")], [P2("y"), P2("x^2")]])
    assert module.verify_basis()


# -- syzygies --------------------------------------------------------------------


def test_koszul_syzygy():
    syz = syzygies([[P2("x"), P2("y")]])
    assert [[str(p) for p in g] for g in syz.generators] == [["y", "-x"]]


def test_rotation_matrix_syzygy():
    zero = Polynomial.zero(V3)
    x, y, z = P3("x"), P3("y"), P3("z")
    rows = [[zero, -z, y], [z, zero, -x], [-y, x, zero]]
    syz = syzygies(rows)
    assert [[str(p) for p in g] for g in syz.generators] == [["x", "y", "z"]]


def test_unit_column_has_no_syzygies():
    syz = syzygies([[P2("1")]])
    assert syz.is_zero_module


def test_zero_columns_have_unit_syzygies():
    zero = Polynomial.zero(V2)
    syz = syzygies([[zero, zero]])
    gens = sorted([[str(p) for p in g] for g in syz.generators])
    assert gens == [["0", "1"], ["1", "0"]]


def test_syzygy_soundness_random():
    rng = random.Random(3)
    for _ in range(10):
        rows = [[Polynomial(V2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)})
                 for _ in range(3)] for _ in range(2)]
        syz = syzygies(rows)
        for s in syz.generators:
            for row in rows:
                total = sum((row[j] * s[j] for j in range(3)), Polynomial.zero(V2))
                assert total.is_zero


# -- colon -------------------------------------------------------------------------


def test_colon_of_ideals():
    module = SubmodulePresentation.ideal(V3, [P3("x*y"), P3("x*z")])
    colon = colon_by_ideal(module, [P3("y"), P3("z")])
    assert colon.equals_module(SubmodulePresentation.ideal(V3, [P3("x")])).is_yes


def test_colon_of_a_module_by_an_ideal_with_a_repeated_generator():
    zero = Polynomial.zero(V3)
    module = SubmodulePresentation(V3, 2, [[P3("x*y"), zero], [P3("y^2"), P3("x*z")],
                                           [zero, P3("y*z")]])
    ideal = [P3("x"), P3("y"), P3("x"), zero]
    colon = colon_by_ideal(module, ideal)
    for v in colon.generators:
        for f in ideal:
            assert module.contains([f * p for p in v]).is_yes
    assert module.is_submodule_of(colon).is_yes
    # every monomial vector of degree at most 2 that the ideal moves into
    # the module is in the colon
    monomials = [P3(t) for t in ("1", "x", "y", "z", "x^2", "x*y", "x*z", "y^2", "y*z", "z^2")]
    for m in monomials:
        for v in ([m, zero], [zero, m], [m, m]):
            inside = all(module.contains([f * p for p in v]).is_yes for f in ideal)
            assert colon.contains(v).is_yes == inside


def test_colon_is_one_engine_build(monkeypatch):
    from poiskit.modcalc import engine

    builds = []
    original = engine.ModuleEngine.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(engine.ModuleEngine, "__init__", counted)
    zero = Polynomial.zero(V3)
    module = SubmodulePresentation(V3, 2, [[P3("x*y"), zero], [zero, P3("x*z")]])
    colon_by_ideal(module, [P3("y"), P3("z"), P3("y")])
    assert len(builds) == 1


def test_colon_by_the_zero_ideal_is_refused():
    module = SubmodulePresentation.ideal(V2, [P2("x")])
    with pytest.raises(ValueError):
        colon_by_ideal(module, [Polynomial.zero(V2)])


# -- saturation ---------------------------------------------------------------------


def test_saturation_extends_across_zero_locus():
    variables = ("x", "y", "t")
    t = Polynomial.variable(variables, "t")
    zero = Polynomial.zero(variables)
    one = Polynomial.one(variables)
    module = SubmodulePresentation(variables, 3, [[t, zero, zero], [zero, t, zero]])
    result = saturate(module, [t])
    expected = SubmodulePresentation(variables, 3, [[one, zero, zero], [zero, one, zero]])
    assert result.stabilized
    assert result.module.equals_module(expected).is_yes
    # both inclusions, explicitly
    assert module.is_submodule_of(result.module).is_yes
    assert all(result.module.contains([t * g[0], t * g[1], t * g[2]]).is_yes
               for g in result.module.generators)
    # the returned exponent works generator-wise: t^k * v lands in the input
    for g in result.module.generators:
        scaled = [t ** result.exponent * c for c in g]
        assert module.contains(scaled).is_yes


def test_saturation_by_unit_is_identity():
    module = SubmodulePresentation(V2, 2, [[P2("x"), P2("y")]])
    result = saturate(module, [P2("1")])
    assert result.exponent == 0 and result.stabilized
    assert result.module.equals_module(module).is_yes


def test_saturating_zero_module():
    module = SubmodulePresentation.zero(V2, 2)
    result = saturate(module, [P2("x")])
    assert result.module.is_zero_module and result.stabilized


# -- membership -------------------------------------------------------------------------


def test_membership_yes_with_certificate():
    zero = Polynomial.zero(V3)
    one = Polynomial.one(V3)
    module = SubmodulePresentation(V3, 3, [[one, zero, zero], [zero, one, zero]])
    verdict = module.contains([one, zero, zero])
    assert verdict.is_yes
    coeffs = verdict.certificate["coefficients"]
    assert [str(c) for c in coeffs] == ["1", "0"]


def test_membership_no_with_normal_form():
    zero = Polynomial.zero(V2)
    module = SubmodulePresentation(V2, 2, [[P2("y"), zero]])
    verdict = module.contains([zero, P2("x")])
    assert verdict.is_no
    assert [str(p) for p in verdict.witness["normal_form"]] == ["0", "x"]


@pytest.mark.parametrize("chart, element, error", [
    (V2, ["x", "0", "0"], ValueError),         # entries past the rank
    (V2, [], ValueError),                      # too short
    (("a", "b"), ["a"], ChartMismatchError),   # on another chart
], ids=["too-long", "too-short", "other-chart"])
def test_membership_checks_the_element(chart, element, error):
    ideal = SubmodulePresentation.ideal(V2, [P2("x")])
    with pytest.raises(error):
        ideal.contains([parse_polynomial(chart, t) for t in element])


def test_membership_certificates_recombine_random():
    rng = random.Random(12)
    gens = [[P2("x"), P2("y")], [P2("y^2"), P2("x")]]
    module = SubmodulePresentation(V2, 2, gens)
    for _ in range(10):
        a = Polynomial(V2, {(rng.randint(0, 1), rng.randint(0, 1)): rng.randint(-2, 2)})
        b = Polynomial(V2, {(rng.randint(0, 1), 0): rng.randint(-2, 2)})
        element = [a * gens[0][0] + b * gens[1][0], a * gens[0][1] + b * gens[1][1]]
        verdict = module.contains(element)
        assert verdict.is_yes  # recombination is asserted inside contains()


# -- rank stratification -----------------------------------------------------------------


def test_rank_profile_radial_column():
    profile = rank_profile([[P3("x")], [P3("y")], [P3("z")]])
    assert profile.generic_rank == 1
    assert sorted(str(p) for p in profile.drop_ideal()) == ["x", "y", "z"]
    assert profile.rank_at([0, 0, 0]) == 0
    assert profile.rank_at([1, 0, 0]) == 1


def test_rank_profile_identity():
    one = Polynomial.one(V3)
    zero = Polynomial.zero(V3)
    rows = [[one if i == j else zero for j in range(3)] for i in range(3)]
    profile = rank_profile(rows)
    assert profile.generic_rank == 3
    assert [str(p) for p in profile.drop_ideal()] == ["1"]


def test_rank_profile_constant_column():
    zero = Polynomial.zero(V3)
    profile = rank_profile([[zero], [zero], [Polynomial.one(V3)]])
    assert profile.generic_rank == 1
    assert [str(p) for p in profile.drop_ideal()] == ["1"]


def test_pointwise_rank_matches_exact_linear_algebra():
    from poiskit.modcalc.linalg import qq_rank

    rng = random.Random(7)
    rows = [[Polynomial(V2, {(rng.randint(0, 1), rng.randint(0, 1)): rng.randint(-2, 2)})
             for _ in range(3)] for _ in range(3)]
    profile = rank_profile(rows)
    for _ in range(10):
        pt = [QQ(rng.randint(-3, 3)), QQ(rng.randint(-3, 3))]
        direct = qq_rank([[p.eval(pt) for p in row] for row in rows])
        assert profile.rank_at(pt) == direct


# -- variety emptiness -----------------------------------------------------------------


def test_complex_emptiness_by_unit_basis():
    verdict = variety_emptiness([P2("x"), P2("y"), P2("1 - x*y")], "complex")
    assert verdict.is_yes and verdict.certificate["level"] == "complex-empty"


def test_real_emptiness_by_positivity():
    p = parse_polynomial(("x",), "x^2 + 1")
    assert variety_emptiness([p], "real").is_yes
    assert variety_emptiness([p], "complex").is_no


def test_real_witness_found():
    verdict = variety_emptiness([P2("x^2 + y^2")], "real")
    assert verdict.is_no
    assert verdict.witness["point"] == [0, 0]


def test_inconclusive_when_zero_set_is_out_of_range():
    # real zeros only at y = 7, outside the search box; no positivity certificate
    p = P2("x^2 + (y - 7)^2")
    verdict = variety_emptiness([p], "real")
    assert verdict.is_inconclusive
    assert "ideal" in verdict.payload


V7 = tuple(f"x{i}" for i in range(1, 8))
# homogeneous, so the origin is a common zero; 7 variables put the grid out of reach
HOMOGENEOUS_7 = ("x1*x2 - x3^2", "x4*x5 + x6*x7", "x1^3 - x7^3")


def test_origin_witness_needs_no_groebner_basis(monkeypatch):
    from poiskit.modcalc import engine

    def refuse(*args, **kwargs):
        raise AssertionError("a Groebner basis was built")

    monkeypatch.setattr(engine.ModuleEngine, "__init__", refuse)
    gens = [parse_polynomial(V7, t) for t in HOMOGENEOUS_7]
    verdict = variety_emptiness(gens, "real")
    assert verdict.is_no
    assert verdict.witness == {"point": [QQ(0)] * 7, "kind": "rational"}


def test_complex_field_keeps_the_nullstellensatz_basis():
    gens = [parse_polynomial(V7, t) for t in HOMOGENEOUS_7]
    verdict = variety_emptiness(gens, "complex")
    assert verdict.is_no
    assert verdict.witness == {"kind": "nullstellensatz",
                               "reason": "reduced basis is not {1}",
                               "basis": ideal_basis_strings(V7, gens)}
    assert variety_emptiness([P2("x^2 + y^2")], "complex").witness["basis"] == ["x^2 + y^2"]


def test_sparse_nullspace_matches_dense():
    from poiskit.modcalc.linalg import qq_nullspace, sparse_nullspace

    rows_dense = [[1, 2, 0, 1], [0, 1, 1, 0]]
    dense = qq_nullspace(rows_dense)
    sparse = sparse_nullspace([{0: 1, 1: 2, 3: 1}, {1: 1, 2: 1}], 4)
    assert len(dense) == len(sparse) == 2
    for v in sparse:
        assert all(sum(r[i] * v[i] for i in range(4)) == 0 for r in rows_dense)


@st.composite
def sparse_systems(draw):
    """A sparse system with integer and rational entries, explicit zeros,
    duplicate rows and all-zero rows, plus a shuffled copy of its rows."""
    ncols = draw(st.integers(1, 9))
    entry = st.one_of(st.integers(-4, 4), st.builds(QQ, st.integers(-9, 9), st.integers(1, 6)))
    row = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols)
    rows = draw(st.lists(row, max_size=10))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))     # duplicates
    rows += draw(st.lists(st.sampled_from([{}, {0: 0}, {ncols - 1: QQ(0)}]), max_size=2))
    return ncols, rows, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
def test_sparse_nullspace_equals_dense_on_random_systems(case):
    ncols, rows, shuffled = case
    dense = [[r.get(c, 0) for c in range(ncols)] for r in rows]
    expected = qq_nullspace(dense, ncols=ncols)
    for order in (rows, shuffled):
        got = sparse_nullspace(order, ncols)
        assert got == expected
        assert all(type(x) is QQ for v in got for x in v)


def test_sparse_nullspace_without_rows_is_the_identity():
    got = sparse_nullspace([], 3)
    assert got == [[1, 0, 0], [0, 1, 0], [0, 0, 1]] == qq_nullspace([], ncols=3)
    assert all(type(x) is QQ for v in got for x in v)
