"""The kernel module's three routes: Casimir differentials certified by the
gcd of the drop-ideal minors, the zero module at full rank, and the syzygy
fallback.

sl(3)*, gl(3)* and so(5)* are built here from matrix bases; the Casimir
route decides each in well under a second (so(5)* did not finish on the
syzygy route). A sympy oracle re-checks ``sharp(dC) = 0`` and the minor gcd,
and the nine ``lie-duals`` benchmark duals give the same sections whether
the Casimir route applies (``max_degree`` 4) or not (0)."""

from __future__ import annotations

import time
from functools import reduce
from itertools import combinations

import pytest
import sympy

import poiskit.poisson
from poiskit.report import AnalysisOptions, analyze
from test_corpus_digest import documents


def _unit(size: int, i: int, j: int) -> sympy.Matrix:
    m = sympy.zeros(size, size)
    m[i, j] = 1
    return m


def _sl3() -> list[sympy.Matrix]:
    off = [_unit(3, i, j) for i in range(3) for j in range(3) if i != j]
    return off + [_unit(3, 0, 0) - _unit(3, 1, 1), _unit(3, 1, 1) - _unit(3, 2, 2)]


def _gl3() -> list[sympy.Matrix]:
    return [_unit(3, i, j) for i in range(3) for j in range(3)]


def _so5() -> list[sympy.Matrix]:
    return [_unit(5, i, j) - _unit(5, j, i) for i in range(5) for j in range(i + 1, 5)]


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

    for casimir in report.casimirs:
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
    for casimir in report.casimirs:
        by_degree[casimir.total_degree()] += 1
    assert by_degree == _free_algebra_dims(degrees, 4)
    assert elapsed < 5.0, f"{name}* took {elapsed:.2f} s"


@pytest.mark.parametrize("basis", [_sl3, _gl3, _so5], ids=["sl3", "gl3", "so5"])
def test_sympy_oracle_on_the_casimir_route(monkeypatch, basis):
    doc = lie_document(basis())
    report, iso = analyze_with_isotropy(monkeypatch, doc)
    assert iso.route == "casimir"
    _sympy_oracle(doc, report, iso)


@pytest.mark.parametrize("name, doc", sorted(documents("lie-duals", 7).items()))
def test_lie_duals_agree_on_both_routes(monkeypatch, name, doc):
    fallback, iso0 = analyze_with_isotropy(monkeypatch, doc, AnalysisOptions(max_degree=0))
    direct, iso4 = analyze_with_isotropy(monkeypatch, doc, AnalysisOptions(max_degree=4))
    expected = "zero" if iso4.generic_dimension == 0 else "casimir"
    assert (iso0.route, iso4.route) == ("zero" if expected == "zero" else "syzygy", expected)
    for section in ("germinal_isotropy", "almost_regular", "lie_algebra"):
        assert fallback.data[section] == direct.data[section], section
    if expected == "casimir":
        _sympy_oracle(doc, direct, iso4)


def test_book_algebra_falls_back_to_syzygies(monkeypatch):
    # [e3, e1] = e1, [e3, e2] = 2 e2: the kernel 2 x2 dx1 - x1 dx2 is not exact,
    # and the only polynomial Casimirs are the constants
    doc = {"coordinates": ["x1", "x2", "x3"], "mode": "lie_algebra",
           "structure_constants": [{"i": 2, "j": 0, "k": 0, "c": "1"},
                                   {"i": 2, "j": 1, "k": 1, "c": "2"}]}
    report, iso = analyze_with_isotropy(monkeypatch, doc)
    assert iso.route == "syzygy"
    assert report.data["casimirs"]["basis"] == ["1"]
    assert report.data["germinal_isotropy"]["generators"] == [["x2", "-1/2*x1", "0"]]
