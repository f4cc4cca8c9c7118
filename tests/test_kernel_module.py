"""The kernel module's three routes: Casimir differentials certified by the
gcd of the drop-ideal minors, the zero module at full rank, and the syzygy
fallback.

The route depends on the structure alone: the Casimir route reads
``structure.casimirs(DEFAULT_CASIMIR_DEGREE)``, searched once per structure,
and ``--max-degree`` bounds only the report's Casimir list. sl(3)*, gl(3)*
and so(5)* are built here from matrix bases; the Casimir route decides each
in well under a second at every ``max_degree`` (so(5)* did not finish on the
syzygy route). A sympy oracle re-checks ``sharp(dC) = 0`` and the minor gcd,
and the nine ``lie-duals`` benchmark duals give the same sections on both
routes; the tests force the syzygy route by setting
``poiskit.poisson.DEFAULT_CASIMIR_DEGREE`` to 0, which leaves only the
constant Casimir. The drop-ideal gcd is certified by specialisation: no
lie-duals family reaches the engine fold, and eight sl(4)* gradient minors
are decided within a second. The reports of sl(3)*, gl(3)*, so(5)* and the
book algebra are pinned by digest. Spies check that the Casimir route and
the emptiness check build no tagged Groebner engine, that the distribution
checks build no Groebner basis at all, that no corpus presentation computes
its basis both without and with tags, and that a full-rank structure
solves no Casimir system."""

from __future__ import annotations

import ast
import hashlib
import json
import sys
import time
from functools import reduce
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest
import sympy

import poiskit
import poiskit.poisson
from poiskit._kernel import QQ
from poiskit.cli import main
from poiskit.groupoid import MonodromyProblem, round_sphere
from poiskit.modcalc import SubmodulePresentation, engine, polynomial_gcd, presentation
from poiskit.polyalg import Polynomial
from poiskit.poisson import (
    almost_regular_decide,
    casimir_search,
    germinal_isotropy,
    linear_bivector,
    verify_distribution,
)
from poiskit.report import AnalysisOptions, analyze, parse_input
from conftest import _refuse_groebner_bases, su2_structure
from test_corpus_digest import WORKLOADS, _corpus, documents


def _unit(size: int, i: int, j: int) -> sympy.Matrix:
    m = sympy.zeros(size, size)
    m[i, j] = 1
    return m


def _sl(size: int) -> list[sympy.Matrix]:
    off = [_unit(size, i, j) for i in range(size) for j in range(size) if i != j]
    return off + [_unit(size, i, i) - _unit(size, i + 1, i + 1) for i in range(size - 1)]


def _sl3() -> list[sympy.Matrix]:
    return _sl(3)


def _gl3() -> list[sympy.Matrix]:
    return [_unit(3, i, j) for i in range(3) for j in range(3)]


def _so5() -> list[sympy.Matrix]:
    return [_unit(5, i, j) - _unit(5, j, i) for i in range(5) for j in range(i + 1, 5)]


# [e3, e1] = e1, [e3, e2] = 2 e2
BOOK_ALGEBRA = {"coordinates": ["x1", "x2", "x3"], "mode": "lie_algebra",
                "structure_constants": [{"i": 2, "j": 0, "k": 0, "c": "1"},
                                        {"i": 2, "j": 1, "k": 1, "c": "2"}]}


def lie_document(basis: list[sympy.Matrix]) -> dict:
    """``lie_algebra`` input whose constants put each commutator of the
    basis back in the basis, through a left inverse of the flattened basis."""
    flat = sympy.Matrix.hstack(*[b.reshape(len(b), 1) for b in basis])
    left = (flat.T * flat).inv() * flat.T
    entries = []
    for i, j in combinations(range(len(basis)), 2):
        comm = (basis[i] * basis[j] - basis[j] * basis[i]).reshape(flat.rows, 1)
        coords = left * comm
        assert flat * coords == comm, "basis is not closed under the bracket"
        entries += [{"i": i, "j": j, "k": k, "c": str(c)} for k, c in enumerate(coords) if c]
    return {"coordinates": [f"x{i + 1}" for i in range(len(basis))], "mode": "lie_algebra",
            "structure_constants": entries}


def analyze_with_isotropy(monkeypatch, doc: dict, options: AnalysisOptions | None = None):
    """The report, and the kernel module the analysis computed."""
    seen = []
    original = poiskit.poisson.germinal_isotropy

    def recorded(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(poiskit.poisson, "germinal_isotropy", recorded)
    report = analyze(doc, options)
    assert len(seen) == 1
    return report, seen[0]


def _free_algebra_dims(degrees: tuple[int, ...], top: int) -> list[int]:
    """Dimension in each degree 0..top of a polynomial ring on generators of
    the given degrees."""
    dims = [1] + [0] * top
    for d in degrees:
        for k in range(d, top + 1):
            dims[k] += dims[k - d]
    return dims


def _det(rows: list) -> object:
    """Cofactor expansion along the first row; the matrices here are at most 3 x 3."""
    if len(rows) == 1:
        return rows[0][0]
    out = rows[0][0] * 0
    for j, p in enumerate(rows[0]):
        minor = _det([row[:j] + row[j + 1:] for row in rows[1:]])
        out = out - p * minor if j % 2 else out + p * minor
    return out


def _sympy_oracle(doc: dict, report, iso) -> None:
    """sharp(dC) = 0 for every nonconstant Casimir of the basis, sharp(g) = 0
    for every kernel generator, and gcd 1 for the drop-ideal minors, each
    recomputed in sympy's sparse polynomial ring from the input's structure
    constants."""
    ring, *xs = sympy.polys.rings.ring(",".join(doc["coordinates"]), sympy.QQ)
    n = len(xs)
    pi = [[ring.zero] * n for _ in range(n)]
    for e in doc["structure_constants"]:
        c = sympy.Rational(e["c"]) * xs[e["k"]]
        pi[e["i"]][e["j"]] += c
        pi[e["j"]][e["i"]] -= c

    def convert(p):
        return ring.from_dict({e: sympy.QQ(c.numerator, c.denominator)
                               for e, c in p.terms.items()})

    def annihilated(covector: list) -> bool:
        return all(not sum((a * pi[i][j] for i, a in enumerate(covector)), ring.zero)
                   for j in range(n))

    for casimir in report.structure.casimirs(4):
        if casimir.total_degree() > 0:
            f = convert(casimir)
            assert annihilated([f.diff(x) for x in xs]), casimir
    gens = [[convert(p) for p in g] for g in iso.module.generators]
    assert all(annihilated(g) for g in gens)
    r = iso.generic_dimension
    minors = [_det([[gens[i][j] for j in cols] for i in rows])
              for rows in combinations(range(len(gens)), r)
              for cols in combinations(range(n), r)]
    minors = [m for m in minors if m]
    assert sorted(map(str, minors)) == sorted(str(convert(p)) for p in iso.drop_ideal)
    assert reduce(lambda a, b: a.gcd(b), minors).is_ground


@pytest.mark.parametrize("name, basis, k, kernel_dim, degrees", [
    ("sl3", _sl3, 3, 2, (2, 3)),
    ("gl3", _gl3, 3, 3, (1, 2, 3)),
    ("so5", _so5, 4, 2, (2, 4)),
], ids=["sl3", "gl3", "so5"])
def test_casimir_route_decides_sl3_gl3_so5(monkeypatch, name, basis, k, kernel_dim, degrees):
    doc = lie_document(basis())
    n = len(doc["coordinates"])
    started = time.perf_counter()
    report, iso = analyze_with_isotropy(monkeypatch, doc)
    elapsed = time.perf_counter() - started
    d = report.data
    assert d["k"] == k
    assert d["almost_regular"]["outcome"] == "no"
    assert d["almost_regular"]["witness"] == ["0"] * n
    assert d["germinal_isotropy"]["generic_dimension"] == kernel_dim
    assert iso.route == "casimir"
    by_degree = [0] * 5
    for casimir in report.structure.casimirs(4):
        by_degree[casimir.total_degree()] += 1
    assert by_degree == _free_algebra_dims(degrees, 4)
    assert elapsed < 5.0, f"{name}* took {elapsed:.2f} s"


@pytest.mark.parametrize("max_degree", [0, 2, 3])
@pytest.mark.parametrize("basis", [_sl3, _gl3, _so5], ids=["sl3", "gl3", "so5"])
def test_max_degree_does_not_change_the_route(monkeypatch, basis, max_degree):
    # the report's Casimir list stops below the Casimirs the route needs
    # (degree 3 for sl(3)* and gl(3)*, 4 for so(5)*); the route still reads
    # them from the structure
    doc = lie_document(basis())
    started = time.perf_counter()
    report, iso = analyze_with_isotropy(monkeypatch, doc, AnalysisOptions(max_degree=max_degree))
    elapsed = time.perf_counter() - started
    assert iso.route == "casimir"
    d = report.data
    assert d["almost_regular"]["outcome"] == "no"
    assert d["almost_regular"]["witness"] == ["0"] * len(doc["coordinates"])
    assert d["casimirs"]["max_degree"] == max_degree
    assert elapsed < 5.0, f"took {elapsed:.2f} s at max_degree {max_degree}"


@pytest.mark.parametrize("basis", [_sl3, _gl3, _so5], ids=["sl3", "gl3", "so5"])
def test_sympy_oracle_on_the_casimir_route(monkeypatch, basis):
    doc = lie_document(basis())
    report, iso = analyze_with_isotropy(monkeypatch, doc)
    assert iso.route == "casimir"
    _sympy_oracle(doc, report, iso)


@pytest.mark.parametrize("name, doc", sorted(documents("lie-duals", 7).items()))
def test_lie_duals_agree_on_both_routes(monkeypatch, name, doc):
    with monkeypatch.context() as patched:
        patched.setattr(poiskit.poisson, "DEFAULT_CASIMIR_DEGREE", 0)
        fallback, iso0 = analyze_with_isotropy(patched, doc)
    direct, iso4 = analyze_with_isotropy(monkeypatch, doc)
    expected = "zero" if iso4.generic_dimension == 0 else "casimir"
    assert (iso0.route, iso4.route) == ("zero" if expected == "zero" else "syzygy", expected)
    for section in ("germinal_isotropy", "almost_regular", "lie_algebra"):
        assert fallback.data[section] == direct.data[section], section
    if expected == "casimir":
        _sympy_oracle(doc, direct, iso4)


def test_book_algebra_falls_back_to_syzygies(monkeypatch):
    # [e3, e1] = e1, [e3, e2] = 2 e2: the kernel 2 x2 dx1 - x1 dx2 is not exact,
    # and the only polynomial Casimirs are the constants
    report, iso = analyze_with_isotropy(monkeypatch, BOOK_ALGEBRA)
    assert iso.route == "syzygy"
    assert report.data["casimirs"]["basis"] == ["1"]
    assert report.data["germinal_isotropy"]["generators"] == [["x2", "-1/2*x1", "0"]]


def _count_searches(monkeypatch) -> list[int]:
    """The degree of each ``casimir_search`` call from here on."""
    calls = []
    original = poiskit.poisson.casimir_search

    def counted(structure, max_degree):
        calls.append(max_degree)
        return original(structure, max_degree)

    monkeypatch.setattr(poiskit.poisson, "casimir_search", counted)
    return calls


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_casimir_search_serves_the_route_and_the_report(monkeypatch, workload):
    # at full rank (2k = n) the only Casimirs are the constants: no search
    calls = _count_searches(monkeypatch)
    for name, doc in sorted(documents(workload, 0).items()):
        calls.clear()
        report = analyze(doc)
        full_rank = 2 * report.structure.k == len(report.structure.variables)
        assert calls == ([] if full_rank else [4]), name


@pytest.mark.parametrize("workload, name", [
    ("chart-batch", "symp4.0"), ("chart-batch", "logsymp6.0"), ("lie-duals", "aff2.0"),
])
def test_full_rank_casimirs_are_the_constants_without_a_search(monkeypatch, workload, name):
    structure = parse_input(documents(workload, 0)[name])[0]
    assert 2 * structure.k == len(structure.variables)
    searched = [casimir_search(structure, d) for d in range(5)]

    def refuse(structure, max_degree):
        raise AssertionError("a Casimir system was solved")

    monkeypatch.setattr(poiskit.poisson, "casimir_search", refuse)
    for d in range(5):
        found = structure.casimirs(d)
        assert found == (Polynomial.one(structure.variables),)
        assert [(p.terms, list(map(type, p.terms.values()))) for p in found] == \
            [(p.terms, list(map(type, p.terms.values()))) for p in searched[d]]


def test_a_max_degree_other_than_4_costs_one_more_search(monkeypatch, tmp_path, capsys):
    # the route reads degree 4 and the report degree 3; the trace reuses the
    # report's (the default analysis and its trace run one search: test_cli)
    path = tmp_path / "so5.json"
    path.write_text(json.dumps(lie_document(_so5())))
    calls = _count_searches(monkeypatch)
    assert main(["analyze", str(path), "--max-degree", "3",
                 "--trace", ",".join(["1"] + ["0"] * 9), "--steps", "10"]) == 0
    assert sorted(calls) == [3, 4]
    assert "almost regular: no" in capsys.readouterr().out


def test_monodromy_problem_is_the_same_on_both_routes(monkeypatch):
    sphere = round_sphere(1.0, 3)
    direct = MonodromyProblem(su2_structure(), sphere)
    assert germinal_isotropy(direct.structure).route == "casimir"
    with monkeypatch.context() as patched:
        patched.setattr(poiskit.poisson, "DEFAULT_CASIMIR_DEGREE", 0)
        fallback = MonodromyProblem(su2_structure(), sphere)
        assert germinal_isotropy(fallback.structure).route == "syzygy"
    assert fallback.alpha == direct.alpha
    assert fallback.curvature_scalars == direct.curvature_scalars


def _imported_modules(path: Path, package: str) -> set[str]:
    """The absolute names of the modules ``path`` (a module of ``package``)
    imports, and of ``from`` targets that may be submodules."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0] if node.level > 1 else package
                base = f"{parent}.{base}" if base else parent
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def test_only_modcalc_imports_the_groebner_engine():
    root = Path(poiskit.__file__).resolve().parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        if parts[0] == "modcalc":
            continue
        package = ".".join(("poiskit", *parts[:-1]))
        if "poiskit.modcalc.engine" in _imported_modules(path, package):
            offenders.append(str(path.relative_to(root)))
    assert not offenders


# sha256 of to_text() and to_json() with default options, for inputs that
# the corpus digests do not reach: gl(3)* has r = 3 and the book algebra
# takes the syzygy route
BEYOND_CORPUS_DIGESTS = {
    "sl3": ("d74d6444151eca7c0678a3b90523b948a654dbeeb7fd6a79354334848c035c3f",
            "b9e7998cc3c4c46f127451eee41bb54d0e89d5b6919c33819d369433f694d784"),
    "gl3": ("9d9523bccfd027ba2c81d699b1b421433b99033352e17020cd4eff734bb82ec9",
            "a0acf98cf26659adc9ebb383fa4733e6c5f1f46f24b9e67ac172120ab1721094"),
    "so5": ("39afce4992c6b5929e977475fb63b9062f1c88d8052623a203ff23994eb265b2",
            "65b16efcd22edc9d04943906aa6cd01cdd2c97e2359a4536b152f7504db19045"),
    "book": ("aae32e8d2cb83f8b7fbecf5617d49c5654cff47be352db95f1f8c32386a27473",
             "e358a8f5914f36f346a4c7df4408926ee486067575734e72840d3ac18f6ac7b8"),
}


@pytest.mark.parametrize("name", sorted(BEYOND_CORPUS_DIGESTS))
def test_reports_beyond_the_corpus_are_pinned(name):
    doc = BOOK_ALGEBRA if name == "book" else lie_document(
        {"sl3": _sl3, "gl3": _gl3, "so5": _so5}[name]())
    report = analyze(doc)
    digests = tuple(hashlib.sha256(s.encode("utf-8")).hexdigest()
                    for s in (report.to_text(), report.to_json()))
    assert digests == BEYOND_CORPUS_DIGESTS[name]


def test_no_casimir_route_gcd_of_the_lie_duals_reaches_the_engine(monkeypatch):
    # the four input sets of the lie-duals benchmark at seed 0: the
    # specialisation certificate decides every drop-ideal gcd
    corpus = _corpus()
    families, reached = [], []
    gcd = poiskit.poisson.polynomial_gcd
    monkeypatch.setattr(poiskit.poisson, "polynomial_gcd",
                        lambda polys: families.append(polys) or gcd(polys))
    monkeypatch.setattr(presentation, "_gcd_pair", lambda a, b: reached.append((a, b)))
    for v in range(4):
        for dual in corpus.lie_duals():
            name = f"{dual.name}.{v}"
            analyze(corpus.lie_document(dual, 0, name, corpus.structure_constants(dual.basis))[0])
    assert len(families) == 32
    assert not reached


def test_gcd_certificate_decides_sl4_gradient_minors_within_a_second(monkeypatch):
    # sl(4)*: n = 15, and its Casimirs of degree 2, 3 and 4 give r = 3
    # gradients. The structure's rank data takes over a second at n = 15, so
    # the Casimirs are searched on the bivector's matrix alone, over all n
    # rows, which always span its row space.
    doc = lie_document(_sl(4))
    n = len(doc["coordinates"])
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for e in doc["structure_constants"]:
        c[e["i"]][e["j"]][e["k"]] = QQ(e["c"])
        c[e["j"]][e["i"]][e["k"]] = -QQ(e["c"])
    pi = linear_bivector(c, doc["coordinates"])
    casimirs = casimir_search(SimpleNamespace(variables=pi.variables,
                                              pi_matrix=pi.component_matrix,
                                              spanning_rows=range(n)), 4)
    assert [p.total_degree() for p in casimirs] == [0, 2, 3, 4, 4]
    gradients = [[p.diff(i) for i in range(n)] for p in casimirs[1:4]]
    minors = []
    for rows in combinations(range(n), 3):
        if d := _det([[gradients[k][i] for k in range(3)] for i in rows]):
            minors.append(d)
        if len(minors) == 8:
            break

    def engine_fold(a, b):
        raise AssertionError("the certificate did not decide")

    monkeypatch.setattr(presentation, "_gcd_pair", engine_fold)
    started = time.perf_counter()
    assert polynomial_gcd(minors) == Polynomial.one(pi.variables)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"the certificate took {elapsed:.2f} s"


# -- which Groebner computation each caller runs ----------------------------------------

_TAG_FREE_CALLERS = ("_casimir_kernel", "variety_emptiness")


def _innermost_caller() -> str | None:
    """The innermost frame of the stack that runs one of
    ``_TAG_FREE_CALLERS``, by name, or ``None``."""
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_code.co_name in _TAG_FREE_CALLERS:
            return frame.f_code.co_name
        frame = frame.f_back
    return None


def _spy_groebner_work(monkeypatch) -> SimpleNamespace:
    """Record, by the caller ``_innermost_caller`` names, each tagged engine
    build (``builds``) and each ``buchberger`` run (``runs``); the
    presentations that run both Groebner computations (``both``), the
    tagged engine after the tag-free basis or the tag-free basis after the
    tagged engine; and the membership ``yes`` answers and the certificate
    recombinations."""
    spy = SimpleNamespace(builds=[], runs=[], both=0, yes=0, recombined=0)
    build, run = engine.ModuleEngine.__init__, engine.buchberger
    check, contains = engine.ModuleEngine._check_certificate, SubmodulePresentation.contains
    tagged, basis = SubmodulePresentation.engine.fget, SubmodulePresentation.groebner_basis

    def counted_build(self, *args):
        spy.builds.append(_innermost_caller())
        build(self, *args)

    def counted_run(generators):
        spy.runs.append(_innermost_caller())
        return run(generators)

    def counted_engine(self):
        spy.both += self._engine is None and self._basis is not None
        return tagged(self)

    def counted_basis(self):
        spy.both += self._basis is None and self._engine is not None
        return basis(self)

    def counted_check(self, *args):
        spy.recombined += 1
        check(self, *args)

    def counted_contains(self, element):
        verdict = contains(self, element)
        spy.yes += verdict.is_yes
        return verdict

    monkeypatch.setattr(engine.ModuleEngine, "__init__", counted_build)
    monkeypatch.setattr(engine, "buchberger", counted_run)
    monkeypatch.setattr(SubmodulePresentation, "engine", property(counted_engine))
    monkeypatch.setattr(SubmodulePresentation, "groebner_basis", counted_basis)
    monkeypatch.setattr(engine.ModuleEngine, "_check_certificate", counted_check)
    monkeypatch.setattr(SubmodulePresentation, "contains", counted_contains)
    return spy


def _bivector_document(structure) -> dict:
    return {"coordinates": list(structure.variables), "mode": "bivector",
            "bivector": [{"i": i, "j": j, "coeff": str(p)}
                         for (i, j), p in sorted(structure.bivector.components.items())]}


@pytest.mark.parametrize("doc", [
    _bivector_document(su2_structure()),
    documents("chart-batch", 0)["heis3xlogsymp4.0"],
], ids=["su2", "heis3xlogsymp4"])
def test_the_casimir_kernel_and_emptiness_build_no_tagged_engine(monkeypatch, doc):
    spy = _spy_groebner_work(monkeypatch)
    analyze(doc)
    assert not any(spy.builds), spy.builds
    assert "_casimir_kernel" in spy.runs             # its basis is computed, tag-free


def test_the_kernel_module_is_born_with_its_reduced_basis(monkeypatch):
    iso = germinal_isotropy(su2_structure())
    assert iso.route == "casimir"
    _refuse_groebner_bases(monkeypatch)
    assert iso.module.groebner_basis() == list(iso.module.generators)
    assert iso.module.is_member([2 * p for p in iso.module.generators[0]])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_distribution_checks_build_no_groebner_basis(monkeypatch, workload):
    # the annihilator is born with its reduced basis, and the memberships
    # read it without tags
    decided = []
    for name, doc in documents(workload, 0).items():
        structure = parse_input(doc)[0]
        decision = almost_regular_decide(structure)
        if decision.is_yes:
            decided.append((name, structure, decision.payload["distribution"]))
    assert decided
    _refuse_groebner_bases(monkeypatch)
    for name, structure, dist in decided:
        assert verify_distribution(dist, structure).is_yes, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_presentation_runs_both_groebner_computations(monkeypatch, workload):
    spy = _spy_groebner_work(monkeypatch)
    for doc in documents(workload, 0).values():
        analyze(doc)
    assert spy.both == 0
    assert spy.builds and len(spy.runs) > len(spy.builds)
    assert spy.yes and spy.recombined == spy.yes
