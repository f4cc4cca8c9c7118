"""Groebner bases, syzygies, saturation, membership, rank, emptiness."""

from __future__ import annotations

import json
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_reference import qq_det, qq_nullspace, qq_rank, qq_solve
from test_exact_coefficients import polys
from poiskit._kernel import QQ
from poiskit.polyalg import ChartMismatchError, Polynomial, degrevlex_key, parse_polynomial
from poiskit.modcalc import (
    RankProfile,
    SubmodulePresentation,
    colon_by_ideal,
    rank_profile,
    saturate,
    syzygies,
    variety_emptiness,
)
from poiskit.modcalc import presentation
from poiskit.modcalc.engine import _divides, _lcm, split_key, term_key
from poiskit.modcalc.linalg import nullspace, rank, solve, sparse_nullspace
from poiskit.modcalc.rank import _det

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


def _monic(p: Polynomial) -> Polynomial:
    return p.scale(QQ(1) / p.leading()[1])


def _sympy_expr(xs, terms: dict):
    total = 0
    for e, c in terms.items():
        mono = c
        for x, k in zip(xs, e):
            mono *= x ** k
        total += mono
    return total


def _rand_terms3(rng, terms=(1, 3), degree=2) -> dict:
    out = {}
    for _ in range(rng.randint(*terms)):
        out[tuple(rng.randint(0, degree) for _ in range(3))] = rng.randint(-3, 3)
    return out


@pytest.mark.parametrize("seed", range(8))
def test_groebner_agrees_with_sympy_on_random_ideals(seed):
    """Three variables, so ties in degree are broken by degrevlex's reversed
    rule (x*z against y^2) and not only by the first exponent."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    xs = sympy.symbols("x y z")
    gens_t = [_rand_terms3(rng) for _ in range(rng.randint(2, 3))]
    ours = [p for p in (Polynomial(V3, t) for t in gens_t) if p]
    if not ours:
        return
    theirs = [e for e in (_sympy_expr(xs, t) for t in gens_t) if e != 0]
    expected = sympy.groebner(theirs, *xs, order="grevlex")
    got = set(ideal_basis_strings(V3, ours))
    # sympy returns primitive integer polynomials; ours are monic
    want = {str(_monic(Polynomial(V3, e.as_poly(*xs).as_dict()))) for e in expected.exprs}
    assert got == want


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_membership_agrees_with_sympy_on_random_modules(rank, seed):
    """``contains`` against sympy's ``free_module(r).submodule(...)`` on
    combinations of the generators (members) and on random vectors, which
    are mostly not members."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(100 * rank + seed)
    xs = sympy.symbols("x y z")
    ring = sympy.QQ.old_poly_ring(*xs)
    gens_t = [[_rand_terms3(rng, (1, 2), 1) for _ in range(rank)] for _ in range(rank)]
    ours = SubmodulePresentation(V3, rank, [[Polynomial(V3, t) for t in g] for g in gens_t])
    theirs = ring.free_module(rank).submodule(
        *[[_sympy_expr(xs, t) for t in g] for g in gens_t])
    answers = []
    for _ in range(3):
        coeffs = [Polynomial(V3, _rand_terms3(rng, (1, 2), 1)) for _ in ours.generators]
        member = [sum((q * g[i] for q, g in zip(coeffs, ours.generators)), Polynomial.zero(V3))
                  for i in range(rank)]
        other = [Polynomial(V3, _rand_terms3(rng, (1, 2), 1)) for _ in range(rank)]
        for element in (member, other):
            expected = theirs.contains([_sympy_expr(xs, p.terms) for p in element])
            verdict = ours.contains(element)
            assert verdict.is_yes == expected
            answers.append(expected)
    assert answers[0::2] == [True] * 3


@st.composite
def _presentations(draw):
    """A rank 1-3 presentation over ``V2`` or ``V3`` with rational
    coefficients, whose generators may be zero or repeated."""
    variables = draw(st.sampled_from([V2, V3]))
    rank = draw(st.integers(1, 3))
    vectors = st.lists(polys(variables, 3, 2), min_size=rank, max_size=rank)
    gens = draw(st.lists(vectors, max_size=3))
    gens += draw(st.lists(st.sampled_from(gens), max_size=2)) if gens else []
    gens += [[Polynomial.zero(variables)] * rank] * draw(st.integers(0, 1))
    return variables, rank, draw(st.permutations(gens))


def _exact_terms(vectors):
    """Each entry's terms in their order, with each coefficient's type."""
    return [[[(e, type(c), c) for e, c in p.terms.items()] for p in v] for v in vectors]


@settings(max_examples=60, deadline=None)
@given(_presentations())
def test_tag_free_basis_equals_the_tagged_engines(presentation_data):
    variables, rank, gens = presentation_data
    tag_free = SubmodulePresentation(variables, rank, gens)
    basis = tag_free.groebner_basis()
    assert tag_free._engine is None
    tagged = SubmodulePresentation(variables, rank, gens).engine.groebner_vectors()
    assert _exact_terms(basis) == _exact_terms(tagged)


def test_basis_generates_same_module():
    module = SubmodulePresentation(V2, 2, [[P2("x"), P2("y")], [P2("y"), P2("x^2")]])
    assert module.verify_basis()


def test_verify_basis_reads_the_basis_off_the_tagged_engine(monkeypatch):
    # one tagged engine for the module, one for its basis: the untagged
    # basis of the module is never computed beside the engine's
    from poiskit.modcalc import engine

    runs = []
    real = engine.buchberger

    def counted(generators):
        runs.append(1)
        return real(generators)

    monkeypatch.setattr(engine, "buchberger", counted)
    module = SubmodulePresentation(V2, 2, [[P2("x"), P2("y")], [P2("y"), P2("x^2")]])
    assert module.verify_basis()
    assert len(runs) == 2


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


def test_syzygies_rejects_empty_and_ragged_matrices():
    for rows in ([], [[]], [[P2("x"), P2("y")], [P2("x")]], [[P2("x")], []]):
        with pytest.raises(ValueError) as err:
            syzygies(rows)
        assert not isinstance(err.value, ChartMismatchError)


def test_syzygies_rejects_an_entry_on_another_chart():
    a = parse_polynomial(("a", "b"), "a")
    with pytest.raises(ChartMismatchError):
        syzygies([[P2("x")], [a]])
    with pytest.raises(ChartMismatchError):
        syzygies([[a, P2("x")]])
    with pytest.raises(ChartMismatchError):
        syzygies([[P2("x"), P2("y")]], ("a", "b"))


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


def _same_saturation(a, b):
    assert (a.exponent, a.stabilized) == (b.exponent, b.stabilized)
    assert a.module.generators == b.module.generators


def test_saturation_stops_at_a_reached_target():
    # (x^2) : (x) = (x), (x) : (x) = (1): the colons stabilize at 2, where
    # the target (1) is reached, and the confirming colon is skipped
    module = SubmodulePresentation.ideal(V2, [P2("x^2")])
    target = SubmodulePresentation.ideal(V2, [P2("1")])
    plain = saturate(module, [P2("x")])
    aimed = saturate(module, [P2("x")], target=target)
    _same_saturation(plain, aimed)
    assert aimed.exponent == 2 and aimed.stabilized
    assert plain.target_in is None
    assert aimed.target_in.is_yes
    assert len(aimed.target_in.certificate["memberships"]) == 1


def test_saturation_below_its_target_stabilizes_as_without_one():
    # y is a nonzerodivisor mod x^2: (x^2) : (y) = (x^2), which never
    # contains the target (1); the stabilization test decides, at 0
    module = SubmodulePresentation.ideal(V2, [P2("x^2")])
    target = SubmodulePresentation.ideal(V2, [P2("1")])
    aimed = saturate(module, [P2("y")], target=target)
    _same_saturation(saturate(module, [P2("y")]), aimed)
    assert aimed.exponent == 0 and aimed.stabilized
    assert aimed.target_in is None


def test_saturation_cap_with_a_target():
    module = SubmodulePresentation.ideal(V2, [P2("x^2")])
    target = SubmodulePresentation.ideal(V2, [P2("1")])
    aimed = saturate(module, [P2("x")], cap=1, target=target)
    _same_saturation(saturate(module, [P2("x")], cap=1), aimed)
    assert not aimed.stabilized and aimed.exponent == 1
    assert aimed.target_in is None
    assert [str(g[0]) for g in aimed.module.generators] == ["x"]



def test_saturation_cap_below_a_target_reached_at_one():
    # I·A = x R^2 lies in C = x R^2, so the target R^2 is reached at k = 1;
    # caps 0 and 1 stop before that test, as the iterated colon does
    x, zero = P2("x"), P2("0")
    module = SubmodulePresentation(V2, 2, [[x, zero], [zero, x]])
    full = SubmodulePresentation.full(V2, 2)
    assert saturate(module, [x], target=full).exponent == 1
    none = saturate(module, [x], cap=0, target=full)
    assert (none.module, none.exponent, none.stabilized, none.target_in) == (module, 0, False, None)
    one = saturate(module, [x], cap=1, target=full)
    assert (one.exponent, one.stabilized, one.target_in) == (1, False, None)
    assert one.module.equals_module(colon_by_ideal(module, [x])).is_yes


@pytest.mark.parametrize("ideal", [[], [Polynomial.zero(V2)]], ids=["empty", "zero"])
@pytest.mark.parametrize("aimed", [False, True], ids=["untargeted", "targeted"])
def test_saturation_by_the_zero_ideal_is_refused(ideal, aimed):
    module = SubmodulePresentation.ideal(V2, [P2("x")])
    target = SubmodulePresentation.ideal(V2, [P2("1")]) if aimed else None
    with pytest.raises(ValueError, match="zero ideal"):
        saturate(module, ideal, target=target)
    # a target already inside the module is reached before any colon
    assert saturate(module, ideal, target=module).exponent == 0


def test_a_target_reached_at_exponent_0_or_1_computes_no_colon(monkeypatch):
    calls = []
    monkeypatch.setattr(presentation, "colon_by_ideal",
                        lambda *args: calls.append(args) or colon_by_ideal(*args))
    x, zero = P2("x"), P2("0")
    full = SubmodulePresentation.full(V2, 2)
    scaled = SubmodulePresentation(V2, 2, [[x, zero], [zero, x]])
    at_zero = saturate(full, [x], target=full)
    at_one = saturate(scaled, [x, P2("x^2 + x*y")], target=full)
    assert (at_zero.exponent, at_one.exponent) == (0, 1)
    assert at_zero.target_in.is_yes and at_one.target_in.is_yes
    # one membership per (target generator, distinct ideal generator)
    assert len(at_one.target_in.certificate["memberships"]) == 4
    assert calls == []


def _colon_chain(module, ideal, cap, target):
    """Reference: the iterated colon, trying ``target`` inside each
    ``module : I^k`` before the next colon. Returns (module, exponent,
    stabilized, reached)."""
    current = module
    for k in range(cap):
        if target is not None and target.is_submodule_of(current).is_yes:
            return current, k, True, True
        nxt = colon_by_ideal(current, ideal)
        if nxt.is_submodule_of(current).is_yes:
            return current, k, True, False
        current = nxt
    return current, cap, False, False


_ENTRIES = st.sampled_from(["0", "1", "x", "y", "x + y", "x - y + 1", "y^2", "x*y - 1"])


@settings(max_examples=60, deadline=None)
@given(scale=st.sampled_from(["x", "y", "x + y", "x*y"]), power=st.integers(0, 3),
       vectors=st.lists(st.tuples(_ENTRIES, _ENTRIES), min_size=1, max_size=2),
       extra=st.lists(st.sampled_from(["0", "y", "x^2", "x + y"]), max_size=1),
       cap=st.integers(0, 4), kind=st.sampled_from(["saturation", "full", "module"]))
# exponent 2, and the caps below and at it
@example(scale="x", power=2, vectors=[("1", "0"), ("0", "1")], extra=[], cap=50,
         kind="saturation")
@example(scale="x", power=2, vectors=[("1", "0"), ("0", "1")], extra=[], cap=1, kind="full")
@example(scale="x", power=2, vectors=[("1", "0"), ("0", "1")], extra=[], cap=2, kind="full")
# y is a nonzerodivisor on R^2 / (y, 0): the chain stabilizes at 0 below R^2
@example(scale="y", power=1, vectors=[("1", "0")], extra=[], cap=50, kind="full")
# x is a zero divisor and x + y is not: stabilizes below the unit module
@example(scale="x", power=1, vectors=[("y", "0"), ("0", "x")], extra=["0"], cap=3,
         kind="full")
def test_targeted_saturation_matches_the_colon_chain(scale, power, vectors, extra, cap, kind):
    """On ``C = g^e <v_1, v_2>`` and ``I = (g, ...)``, the targeted loop gives
    the iterated colon's exponent, stabilization and reached flag, and an
    equal module. The targets are saturated modules that contain ``C``
    (``C : I^infinity`` and ``R^2``), and ``C`` itself, reached at 0."""
    g = P2(scale)
    module = SubmodulePresentation(
        V2, 2, [[g ** power * P2(a), g ** power * P2(b)] for a, b in vectors])
    ideal = [g] + [P2(f) for f in extra]
    if kind == "saturation":
        saturation = saturate(module, ideal)
        assert saturation.stabilized
        target = saturation.module
    else:
        target = SubmodulePresentation.full(V2, 2) if kind == "full" else module
    plain = saturate(module, ideal, cap)
    aimed = saturate(module, ideal, cap, target=target)
    ref_module, exponent, stabilized, reached = _colon_chain(module, ideal, cap, target)
    assert (aimed.exponent, aimed.stabilized, aimed.target_in is not None) == (
        exponent, stabilized, reached)
    assert aimed.module.equals_module(ref_module).is_yes
    assert (plain.exponent, plain.stabilized) == _colon_chain(module, ideal, cap, None)[1:3]
    assert plain.target_in is None
    if not reached:
        assert (aimed.exponent, aimed.stabilized) == (plain.exponent, plain.stabilized)
        assert aimed.module.equals_module(plain.module).is_yes
    if kind == "saturation" and cap > plain.exponent:
        assert reached and aimed.exponent == plain.exponent


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


def test_membership_catches_a_corrupted_generator_vector():
    """The certificate is recombined against the generator vectors the
    engine keeps; corrupting one after the basis is built must be caught."""
    module = SubmodulePresentation(V3, 2, [[P3("x"), P3("y")], [P3("z"), P3("x^2")]])
    element = [P3("x*y + z"), P3("y^2 + x^2")]
    assert module.contains(element).is_yes
    vecs = module.engine._gen_vecs
    vecs[0][term_key(1, (0, 0, 2))] = QQ(5)
    with pytest.raises(AssertionError, match="^membership certificate failed to recombine$"):
        module.contains(element)
    del vecs[0][term_key(1, (0, 0, 2))]
    vecs[1][term_key(0, (0, 0, 1))] = QQ(2)   # a changed coefficient, same support
    with pytest.raises(AssertionError, match="^membership certificate failed to recombine$"):
        module.contains(element)


def _keyed_terms():
    return st.lists(st.tuples(st.integers(0, 3), st.tuples(*[st.integers(0, 4)] * 3)),
                    min_size=1, max_size=12, unique=True)


@given(_keyed_terms())
def test_flat_keys_sort_in_the_module_order(terms):
    by_key = sorted(terms, key=lambda t: term_key(*t))
    by_order = sorted(terms, key=lambda t: (-t[0], degrevlex_key(t[1])))
    assert by_key == by_order
    assert all(split_key(term_key(pos, e)) == (pos, e) for pos, e in terms)


@given(_keyed_terms(), st.tuples(*[st.integers(0, 3)] * 3))
def test_flat_key_arithmetic_is_monomial_arithmetic(terms, shift):
    """Adding a shift key multiplies by the monomial; ``_divides`` and
    ``_lcm`` on keys agree with the exponent vectors."""
    skey = term_key(0, shift)
    for pos, e in terms:
        moved = tuple(a + b for a, b in zip(term_key(pos, e), skey))
        assert moved == term_key(pos, tuple(a + b for a, b in zip(e, shift)))
        for _, f in terms:
            a, b = term_key(pos, e), term_key(pos, f)
            assert _divides(a, b) == all(x <= y for x, y in zip(e, f))
            assert _lcm(a, b) == term_key(pos, tuple(map(max, e, f)))


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


def _low_rank_matrix(seed: int):
    """A seeded polynomial matrix on ``V2``: a product of a random n-by-r
    and r-by-m matrix of degree-1 polynomials, so its rank is at most r."""
    rng = random.Random(seed)
    n, m, r = rng.randint(2, 4), rng.randint(2, 4), rng.randint(1, 3)

    def entry():
        return Polynomial(V2, {e: rng.randint(-2, 2) for e in ((0, 0), (1, 0), (0, 1))})

    left = [[entry() for _ in range(r)] for _ in range(n)]
    right = [[entry() for _ in range(m)] for _ in range(r)]
    return [[sum((left[i][k] * right[k][j] for k in range(r)), Polynomial.zero(V2))
             for j in range(m)] for i in range(n)]


def _sympy_rank(seed: int) -> int:
    """Rank of ``_low_rank_matrix(seed)`` by sympy's ``Matrix.rank``."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x y")
    rows = _low_rank_matrix(seed)
    matrix = sympy.Matrix([[_sympy_expr(xs, p.terms) for p in row] for row in rows])
    # pivots are rational functions; cancel() is 0 exactly when one is
    return matrix.rank(iszerofunc=lambda e: sympy.cancel(e) == 0)


@pytest.mark.parametrize("seed", range(12))
def test_rank_profile_agrees_with_sympy(seed):
    assert rank_profile(_low_rank_matrix(seed)).generic_rank == _sympy_rank(seed)


@st.composite
def polynomial_matrices(draw):
    """A 1-5 by 1-5 matrix on ``V2`` whose entries are 0 about half the time,
    else up to three terms of degree at most 2."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    expo = st.tuples(st.integers(0, 2), st.integers(0, 2))
    entry = st.one_of(st.just({}), st.dictionaries(expo, st.integers(-3, 3), max_size=3))
    return [[Polynomial(V2, draw(entry)) for _ in range(m)] for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(polynomial_matrices())
def test_minor_ideal_equals_one_det_per_minor(rows):
    n, m = len(rows), len(rows[0])
    expected = [[Polynomial.one(V2)]]
    for s in range(1, min(n, m) + 2):
        expected.append([d for ri in combinations(range(n), s)
                         for ci in combinations(range(m), s)
                         if (d := _det([[rows[i][j] for j in ci] for i in ri]))])
    # the levels below are shared whichever s is asked for first
    ascending, descending = RankProfile(rows, V2, 0), RankProfile(rows, V2, 0)
    for s in range(min(n, m) + 2):
        assert ascending.minor_ideal(s) == expected[s], s
    for s in reversed(range(min(n, m) + 2)):
        assert descending.minor_ideal(s) == expected[s], s


def test_rank_at_refuses_a_float_point():
    profile = rank_profile([[P3("x"), P3("y"), P3("z")]])
    assert profile.rank_at([1, 0, 0]) == 1
    with pytest.raises(TypeError, match="not exact"):
        profile.rank_at([1.0, 0.0, 0.0])
    # refused whatever its value: every entry evaluates to zero here
    with pytest.raises(TypeError, match="not exact"):
        profile.rank_at([0.0, 0.0, 0.0])
    with pytest.raises(TypeError):
        profile.rank_at([np.float32(0.0), 0, 0])


def test_pointwise_rank_matches_exact_linear_algebra():
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
    verdict = variety_emptiness([P2("x"), P2("y"), P2("1 - x*y")])
    assert verdict.is_yes and verdict.certificate["level"] == "complex-empty"


def test_real_emptiness_by_positivity():
    p = parse_polynomial(("x",), "x^2 + 1")
    verdict = variety_emptiness([p])
    assert verdict.is_yes and verdict.certificate["level"] == "positivity"


def test_real_witness_found():
    verdict = variety_emptiness([P2("x^2 + y^2")])
    assert verdict.is_no
    assert verdict.witness["point"] == [0, 0]


def test_inconclusive_when_zero_set_is_out_of_range():
    # real zeros only at y = 7, outside the search box; no positivity certificate
    p = P2("x^2 + (y - 7)^2")
    verdict = variety_emptiness([p])
    assert verdict.is_inconclusive
    assert "ideal" in verdict.payload


V7 = tuple(f"x{i}" for i in range(1, 8))
# homogeneous, so the origin is a common zero; 7 variables put the grid out of reach
HOMOGENEOUS_7 = ("x1*x2 - x3^2", "x4*x5 + x6*x7", "x1^3 - x7^3")


def _refuse_groebner_bases(monkeypatch):
    """Make the tagged engine and the tag-free ``buchberger`` run fail."""
    from poiskit.modcalc import engine

    def refuse(*args, **kwargs):
        raise AssertionError("a Groebner basis was built")

    monkeypatch.setattr(engine.ModuleEngine, "__init__", refuse)
    monkeypatch.setattr(engine, "buchberger", refuse)


def test_origin_witness_needs_no_groebner_basis(monkeypatch):
    _refuse_groebner_bases(monkeypatch)
    gens = [parse_polynomial(V7, t) for t in HOMOGENEOUS_7]
    verdict = variety_emptiness(gens)
    assert verdict.is_no
    assert verdict.witness == {"point": [QQ(0)] * 7, "kind": "rational"}


@pytest.mark.parametrize("gens", [
    [P2("x"), Polynomial.constant(V2, 3)],
    [P2("x*y - 1"), Polynomial.constant(V2, QQ(-1, 2))],
], ids=["x, 3", "xy - 1, -1/2"])
def test_a_constant_generator_is_complex_empty_without_a_basis(monkeypatch, gens):
    _refuse_groebner_bases(monkeypatch)
    verdict = variety_emptiness(gens)
    assert verdict.is_yes
    assert verdict.certificate == {"level": "complex-empty", "basis": ["1"]}


def test_emptiness_refuses_generators_on_different_charts():
    with pytest.raises(ChartMismatchError):
        variety_emptiness([P2("x"), parse_polynomial(("a", "b"), "1")])


@pytest.mark.parametrize("variables, gens, point", [
    (V2, ["0"], [0, 0]),                  # the zero ideal
    (V2, ["x*y"], [0, 0]),                # the origin, before any Groebner basis
    (V2, ["x - 1"], [1, 0]),              # the integer grid
    # beyond the grid's reach (5^7 > 20000): the seed-0 samples
    (V7, ["x1 - 1"], [1, QQ(-29, 50), QQ(77, 100), QQ(9, 10), QQ(1, 50), QQ(-27, 50), QQ(-21, 25)]),
], ids=["zero-ideal", "origin", "grid", "sample"])
def test_witness_coordinates_are_qq_and_encode_as_json_strings(variables, gens, point):
    verdict = variety_emptiness([parse_polynomial(variables, g) for g in gens])
    witness = verdict.witness["point"]
    assert witness == point
    assert all(type(c) is QQ for c in witness)
    encoded = json.loads(json.dumps(verdict.to_json()))["witness"]["point"]
    assert encoded == [str(c) for c in point]


def _densified(vectors, ncols):
    """The sparse kernel vectors as dense lists, after checking their form:
    every stored value nonzero and canonical (an ``int`` when integral, else
    a ``QQ``), columns ascending and in range."""
    for v in vectors:
        assert list(v) == sorted(v) and all(0 <= c < ncols for c in v)
        assert all((type(x) is int if x.denominator == 1 else type(x) is QQ) and x
                   for x in v.values())
    return [[v.get(c, QQ(0)) for c in range(ncols)] for v in vectors]


def _assert_sparse_equals_dense(rows, ncols, orders):
    expected = qq_nullspace([[r.get(c, 0) for c in range(ncols)] for r in rows], ncols=ncols)
    for order in orders:
        before = [dict(r) for r in order]
        got = sparse_nullspace(order, ncols)
        assert _densified(got, ncols) == expected
        assert order == before                       # the input rows are not modified


def test_sparse_nullspace_matches_dense():
    rows = [{0: 1, 1: 2, 3: 1}, {1: 1, 2: 1}]
    _assert_sparse_equals_dense(rows, 4, [rows, rows[::-1]])
    assert len(sparse_nullspace(rows, 4)) == 2


def test_sparse_nullspace_solves_a_cascade_of_forced_zeros():
    # {0: 1} forces x0 = 0, which leaves {0: 2, 1: 3} one live entry: x1 = 0
    rows = [{0: 1}, {0: 2, 1: 3}, {1: 1, 2: 1, 3: 1}]
    for order in (rows, rows[::-1]):
        assert sparse_nullspace(order, 4) == [{2: QQ(-1), 3: QQ(1)}]
    _assert_sparse_equals_dense(rows, 4, [rows, rows[::-1]])


def test_sparse_nullspace_leaves_its_input_rows_alone():
    # two int rows, the first a pivot as it stands and the second reduced
    # against it with multiplier 1 (in place, were it not copied); two
    # rational rows; a row with an explicit zero; a one-entry row
    rows = [{0: 1, 1: 2, 2: 3}, {0: 1, 1: 1, 2: 5}, {6: QQ(1, 2), 7: QQ(2, 3)},
            {3: QQ(1, 2), 4: QQ(2, 3)}, {3: 0, 4: 5, 5: 1}, {5: 7}]
    before = [dict(r) for r in rows]
    got = sparse_nullspace(rows, 8)
    assert rows == before
    assert [type(v) for r in rows for v in r.values()] == [type(v) for r in before
                                                          for v in r.values()]
    assert got == [{0: QQ(-7), 1: QQ(2), 2: QQ(1)}, {6: QQ(-4, 3), 7: QQ(1)}]
    _assert_sparse_equals_dense(rows, 8, [rows, rows[::-1]])


@pytest.mark.parametrize("row", [{0: 1, 5: 1}, {-1: 1}, {3: 0, 0: 1}, {0: 1, 3: QQ(1, 2)}])
def test_sparse_nullspace_rejects_a_column_out_of_range(row):
    with pytest.raises(ValueError, match=r"range\(3\)"):
        sparse_nullspace([{1: 1}, row], 3)


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


@st.composite
def cascade_systems(draw):
    """A chain of rows {c0}, {c0, c1}, {c1, c2}, ... over shuffled columns,
    so that each column forced to 0 leaves the next row one other entry and
    the forced zeros cascade, among other rows, mostly short; plus a
    shuffled copy."""
    ncols = draw(st.integers(2, 9))
    cols = draw(st.permutations(range(ncols)))
    entry = st.one_of(st.integers(-3, 3).filter(bool),
                      st.builds(QQ, st.integers(1, 5), st.integers(2, 4)))
    depth = draw(st.integers(1, ncols // 2 + 1))
    chain = [{cols[0]: draw(entry)}]
    chain += [{cols[k - 1]: draw(entry), cols[k]: draw(entry)} for k in range(1, depth)]
    col = st.integers(0, ncols - 1)
    other = st.one_of(st.dictionaries(col, entry, min_size=1, max_size=2),
                      st.dictionaries(col, entry, min_size=2, max_size=ncols))
    rows = chain + draw(st.lists(other, max_size=8))
    return ncols, rows, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(st.one_of(sparse_systems(), cascade_systems()))
def test_sparse_nullspace_equals_dense_on_random_systems(case):
    ncols, rows, shuffled = case
    _assert_sparse_equals_dense(rows, ncols, [rows, shuffled])


def test_sparse_nullspace_without_rows_is_the_identity():
    got = sparse_nullspace([], 3)
    assert got == [{0: 1}, {1: 1}, {2: 1}]
    assert _densified(got, 3) == qq_nullspace([], ncols=3)


# -- dense rank, kernel, solve and determinant against the Gauss-Jordan reference --------


@st.composite
def rational_matrices(draw, square=False):
    """A dense matrix of small integers and rationals, mostly zero so that
    ranks drop, with repeated and zero rows mixed in; ``rows=[]`` too when
    not square."""
    ncols = draw(st.integers(1, 6))
    nrows = ncols if square else draw(st.integers(0, 7))
    entry = st.one_of(st.just(0), st.integers(-4, 4),
                      st.builds(QQ, st.integers(-9, 9), st.integers(1, 6)))
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if rows and not square:
        rows += draw(st.lists(st.sampled_from(rows + [[0] * ncols]), max_size=2))
    return ncols, rows


@settings(max_examples=300, deadline=None)
@given(rational_matrices(), st.data())
def test_rank_kernel_and_solve_equal_the_dense_reference(case, data):
    ncols, rows = case
    assert rank(rows) == qq_rank(rows)
    kernel = nullspace(rows, ncols)
    assert kernel == qq_nullspace(rows, ncols=ncols)
    assert all(type(x) is int if x.denominator == 1 else type(x) is QQ
               for v in kernel for x in v)
    # a right-hand side in the column space, and an arbitrary one that is
    # often inconsistent
    x = data.draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))
    image = [sum((a * b for a, b in zip(row, x)), QQ(0)) for row in rows]
    arbitrary = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
    for rhs in (image, arbitrary):
        assert solve(rows, rhs) == qq_solve(rows, rhs)
    sol = solve(rows, image)
    assert [sum((a * b for a, b in zip(row, sol)), QQ(0)) for row in rows] == image


def test_solve_without_rows_and_with_a_zero_row():
    assert solve([], []) == []
    assert solve([[0, 0], [1, 2]], [0, 4]) == [QQ(4), QQ(0)]
    assert solve([[0, 0], [1, 2]], [1, 4]) is None


@settings(max_examples=200, deadline=None)
@given(rational_matrices(square=True))
def test_det_equals_the_dense_reference(case):
    _, rows = case
    assert _det(rows) == qq_det(rows)
