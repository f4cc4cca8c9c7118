"""CLI end-to-end: reports, exit codes, determinism, tracing."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import poiskit
from poiskit.polyalg import Polynomial
from poiskit.cli import main
from poiskit.poisson import check_jacobi, lie_jacobi_defect, linear_bivector
from poiskit.report import AnalysisOptions, InputError, analyze, parse_input
from conftest import gl_constants

HEIS = {"coordinates": ["x", "y", "t"], "mode": "bivector",
        "bivector": [{"i": 0, "j": 1, "coeff": "t"}]}
SU2 = {"coordinates": ["x", "y", "z"], "mode": "bivector",
       "bivector": [{"i": 0, "j": 1, "coeff": "z"},
                    {"i": 1, "j": 2, "coeff": "x"},
                    {"i": 0, "j": 2, "coeff": "-y"}]}
HEIS_LIE = {"coordinates": ["x", "y", "z"], "mode": "lie_algebra",
            "structure_constants": [{"i": 0, "j": 1, "k": 2, "c": "1"}]}
SYMPLECTIC = {"coordinates": ["x", "y"], "mode": "bivector",
              "bivector": [{"i": 0, "j": 1, "coeff": "1"}]}
# zeros of the kernel drop ideal sit outside the witness search box
SHIFTED = {"coordinates": ["x", "y", "z"], "mode": "bivector",
           "bivector": [{"i": 0, "j": 1, "coeff": "z"},
                        {"i": 1, "j": 2, "coeff": "x - 7"},
                        {"i": 0, "j": 2, "coeff": "-y"}]}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_analyze_heisenberg_report():
    report = analyze(HEIS)
    d = report.data
    assert d["jacobi"]["outcome"] == "yes"
    assert d["k"] == 1
    assert d["regular_locus_ideal"] == ["t"]
    assert d["almost_regular"]["outcome"] == "yes"
    assert d["almost_regular"]["distribution"]["generators"] == [["1", "0", "0"], ["0", "1", "0"]]
    assert d["log_f"]["verdict"] == "log-f-symplectic"
    assert d["log_f"]["g"] == "t"
    assert d["log_f"]["z_sing_ideal"] == ["t"]
    assert "t" in d["casimirs"]["basis"]
    assert not report.inconclusive


def test_analyze_rotation_report():
    report = analyze(SU2)
    d = report.data
    assert d["almost_regular"]["outcome"] == "no"
    assert d["almost_regular"]["witness"] == ["0", "0", "0"]
    assert d["germinal_isotropy"]["generators"] == [["x", "y", "z"]]
    assert "log_f" not in d


def test_analyze_symplectic_report():
    report = analyze(SYMPLECTIC)
    d = report.data
    assert d["k"] == 1
    assert d["log_f"]["verdict"] == "regular"
    assert d["casimirs"]["basis"] == ["1"]


def test_analyze_inconclusive_far_singularity():
    report = analyze(SHIFTED)
    assert report.inconclusive
    ar = report.data["almost_regular"]
    assert ar["outcome"] == "inconclusive"
    assert ar["unresolved_ideal"]  # the unresolved ideal is echoed verbatim


def test_jacobi_gate():
    bad = {"coordinates": ["x", "y", "z"], "mode": "bivector",
           "bivector": [{"i": 1, "j": 2, "coeff": "x"},
                        {"i": 0, "j": 2, "coeff": "-y"},
                        {"i": 0, "j": 1, "coeff": "x^2"}]}
    with pytest.raises(InputError):
        analyze(bad)
    report = analyze(bad, AnalysisOptions(skip_jacobi=True))
    assert report.data["jacobi"]["skipped"]


def test_lie_algebra_mode():
    doc = {"coordinates": ["x", "y", "z"], "mode": "lie_algebra",
           "structure_constants": [{"i": 0, "j": 1, "k": 2, "c": "1"}]}
    report = analyze(doc)
    assert report.data["lie_algebra"]["center_dimension"] == 1
    assert report.data["lie_algebra"]["h0_matches_center"]["outcome"] == "yes"
    assert report.data["almost_regular"]["outcome"] == "yes"


def test_structure_constants_are_parsed_once(monkeypatch):
    import poiskit.report as report_module

    doc = {"coordinates": ["x", "y", "z"], "mode": "lie_algebra",
           "structure_constants": [{"i": 0, "j": 1, "k": 2, "c": "1/2"}]}
    structure, echo, _ = parse_input(doc)
    assert structure.bivector.components == {(0, 1): Polynomial.parse(("x", "y", "z"), "1/2*z")}
    assert echo["structure_constants"][0][1][2] == "1/2"
    assert echo["structure_constants"][1][0][2] == "-1/2"
    calls = []
    original = report_module._parse_constants
    monkeypatch.setattr(report_module, "_parse_constants",
                        lambda *args: calls.append(1) or original(*args))
    analyze(doc)
    assert calls == [1]


def test_lie_algebra_mode_dense_constants():
    dense = [[[0, 0, 0], [0, 0, 1], [0, 0, 0]],
             [[0, 0, -1], [0, 0, 0], [0, 0, 0]],
             [[0, 0, 0], [0, 0, 0], [0, 0, 0]]]
    doc = {"coordinates": ["x", "y", "z"], "mode": "lie_algebra",
           "structure_constants": dense}
    report = analyze(doc)
    assert report.data["lie_algebra"]["center_dimension"] == 1


def _random_lie_document(rng: random.Random, n: int):
    """A seeded antisymmetric integer table of dimension ``n``, most entries
    zero so that some draws are Lie algebras, as a sparse ``lie_algebra``
    document."""
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    entries = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if rng.random() < 0.2:
                    v = rng.choice([-2, -1, 1, 2])
                    c[i][j][k], c[j][i][k] = v, -v
                    entries.append({"i": i, "j": j, "k": k, "c": str(v)})
    return c, {"coordinates": [f"x{i + 1}" for i in range(n)], "mode": "lie_algebra",
               "structure_constants": entries}


def test_lie_algebra_jacobi_section_agrees_with_the_bracket():
    """The structure-constant check is the only Jacobi proof of a
    ``lie_algebra`` input: it rejects exactly the tables whose linear bivector
    fails ``[pi, pi] = 0``, and accepts the others with the bracket's own
    ``jacobi`` section; ``--skip-jacobi`` lets no non-Lie table through."""
    rng = random.Random(19)
    outcomes = []
    for n in (3, 4) * 12:
        c, doc = _random_lie_document(rng, n)
        bracket = check_jacobi(linear_bivector(c))
        defects = lie_jacobi_defect(c)
        assert bracket.is_yes == (not defects)
        for skip in (False, True):
            options = AnalysisOptions(max_degree=2, samples=50, skip_jacobi=skip)
            if defects:
                with pytest.raises(InputError) as raised:
                    analyze(doc, options)
                assert str(raised.value) == (
                    f"structure constants fail the Lie-Jacobi identity: {defects[:3]}")
            elif skip:
                assert analyze(doc, options).data["jacobi"]["outcome"] == "skipped"
            else:
                assert analyze(doc, options).data["jacobi"] == bracket.to_json()
        outcomes.append(bracket.is_yes)
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("skip", [False, True])
def test_dense_constants_that_break_only_antisymmetry_are_refused(skip):
    # Heisenberg with c^3_21 = +1: the bivector read off i < j is Poisson,
    # and only the antisymmetry check refuses the table
    dense = [[[0, 0, 0], [0, 0, 1], [0, 0, 0]],
             [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
             [[0, 0, 0], [0, 0, 0], [0, 0, 0]]]
    doc = {"coordinates": ["x", "y", "z"], "mode": "lie_algebra",
           "structure_constants": dense}
    with pytest.raises(InputError, match=r"Lie-Jacobi identity: \[\('antisymmetry', 0, 1, 2\)"):
        analyze(doc, AnalysisOptions(skip_jacobi=skip))


@pytest.mark.parametrize("doc,skip,expected", [
    (HEIS_LIE, False, 0), (HEIS_LIE, True, 0), (SU2, False, 1), (SU2, True, 0)])
def test_one_jacobi_proof_per_analysis(monkeypatch, doc, skip, expected):
    import poiskit.poisson
    import poiskit.report

    calls = []
    original = poiskit.poisson.check_jacobi

    def counted(bivector):
        calls.append(bivector)
        return original(bivector)

    for module in (poiskit.poisson, poiskit.report):
        monkeypatch.setattr(module, "check_jacobi", counted)
    report = analyze(doc, AnalysisOptions(skip_jacobi=skip))
    assert len(calls) == expected
    assert report.data["jacobi"]["outcome"] == ("skipped" if skip else "yes")


def gl3_document():
    c = gl_constants(3)
    entries = [{"i": i, "j": j, "k": k, "c": str(c[i][j][k])}
               for i in range(9) for j in range(i + 1, 9) for k in range(9) if c[i][j][k]]
    return {"coordinates": [f"x{i + 1}" for i in range(9)], "mode": "lie_algebra",
            "structure_constants": entries}


def test_gl3_dual_is_not_almost_regular_at_the_origin():
    d = analyze(gl3_document()).data
    assert d["jacobi"]["outcome"] == "yes"
    assert d["k"] == 3
    assert d["lie_algebra"]["center_dimension"] == 1
    assert d["lie_algebra"]["h0_matches_center"]["outcome"] == "yes"
    assert d["almost_regular"]["outcome"] == "no"
    assert d["almost_regular"]["witness"] == ["0"] * 9
    assert d["almost_regular"]["dims"] == {"at_witness": 1, "generic": 3}
    # invariants tr X, tr X^2, tr X^3: 1 + 1 + 2 + 3 + 4 products up to degree 4
    assert len(d["casimirs"]["basis"]) == 11


@pytest.mark.parametrize("doc", [HEIS, SU2, {
    "coordinates": ["x", "y", "z"], "mode": "lie_algebra",
    "structure_constants": [{"i": 0, "j": 1, "k": 2, "c": "1"}]}])
def test_kernel_module_is_computed_once_per_analysis(monkeypatch, doc):
    import poiskit.poisson
    import poiskit.report

    calls = {"germinal_isotropy": [], "casimir_search": []}

    def counting(name):
        original = getattr(poiskit.poisson, name)

        def counted(*args, **kwargs):
            calls[name].append(args)
            return original(*args, **kwargs)
        return counted

    for name in calls:
        wrapper = counting(name)
        for module in (poiskit.poisson, poiskit.report):
            monkeypatch.setattr(module, name, wrapper)
    analyze(doc)
    assert {name: len(args) for name, args in calls.items()} == {
        "germinal_isotropy": 1, "casimir_search": 1}


def test_samples_reach_every_emptiness_test_of_the_report(monkeypatch):
    import sys

    import poiskit.construct
    import poiskit.poisson

    calls = []
    original = poiskit.poisson.variety_emptiness

    def recorded(gens, seed=0, samples=10000):
        calls.append((sys._getframe(1).f_code.co_name, samples))
        return original(gens, seed=seed, samples=samples)

    for module in (poiskit.poisson, poiskit.construct):
        monkeypatch.setattr(module, "variety_emptiness", recorded)
    report = analyze(HEIS, AnalysisOptions(samples=17))
    assert report.data["log_f"]["verdict"] == "log-f-symplectic"
    assert {caller for caller, _ in calls} == {
        "almost_regular_decide", "verify_distribution", "logf_classify"}
    assert [samples for _, samples in calls] == [17] * len(calls)


def test_declared_distribution_is_checked():
    doc = dict(HEIS)
    doc["declared_distribution"] = [["1", "0", "0"], ["0", "1", "0"]]
    report = analyze(doc)
    declared = report.data["declared_distribution"]
    assert declared["equals_computed"] == "yes"
    assert report.data["distribution_checks"]["outcome"] == "yes"
    # a declared distribution that is not involutive is reported as failing
    doc["declared_distribution"] = [["1", "0", "0"], ["0", "1", "x"]]
    report2 = analyze(doc)
    assert report2.data["declared_distribution"]["equals_computed"] == "no"
    assert report2.data["distribution_checks"]["outcome"] == "no"


@pytest.mark.parametrize("doc", [HEIS, SU2, HEIS_LIE], ids=["heis-yes", "su2-no", "heis-lie"])
@pytest.mark.parametrize("declared", [
    5, [5], [[None, "0", "0"]], [[True, "0", "0"]], [[0.5, "0", "0"]], [["1", "0"]],
    {"rows": []}, "1,0,0"])
def test_malformed_declared_distribution_is_an_input_error(doc, declared):
    """The declared distribution is checked when the document is read, on a
    ``yes`` chart (Heisenberg, in both modes) and on a ``no`` chart (su(2))
    alike."""
    bad = {**doc, "declared_distribution": declared}
    with pytest.raises(InputError, match="declared"):
        parse_input(bad)
    with pytest.raises(InputError, match="declared"):
        analyze(bad)


@pytest.mark.parametrize("entries", [
    5, "x", {"i": 0, "j": 1, "coeff": "t"}, [5], [None], [[0, 1, "t"]], ["i"]])
def test_malformed_bivector_is_an_input_error(entries):
    with pytest.raises(InputError, match="bivector"):
        analyze({**HEIS, "bivector": entries})


def test_declared_distribution_accepts_strings_and_integers_and_empty_declares_none():
    plain = analyze(HEIS).to_json()
    for none_declared in ([], None):
        doc = {**HEIS, "declared_distribution": none_declared}
        assert parse_input(doc)[2] is None
        assert analyze(doc).to_json() == plain
    rows = [[1, 0, 0], ["0", "1", "0"]]        # JSON integers are entries too
    _, _, declared = parse_input({**HEIS, "declared_distribution": rows})
    assert [[str(p) for p in row] for row in declared] == [["1", "0", "0"], ["0", "1", "0"]]
    # a well-formed declaration on a "no" chart is read and left out of the report
    report = analyze({**SU2, "declared_distribution": [["1", "0", "0"]]})
    assert "declared_distribution" not in report.data


@pytest.mark.parametrize("bad", [
    {**SU2, "bivector": 5},
    {**HEIS, "declared_distribution": 5},
    {**SU2, "declared_distribution": [[None, "0", "0"]]},
])
def test_cli_batch_keeps_the_good_reports_when_an_input_is_malformed(tmp_path, capsys, bad):
    ok = write(tmp_path, "ok.json", SU2)
    broken = write(tmp_path, "bad.json", bad)
    assert main(["analyze", ok, broken]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"==== {ok} ====\n" + analyze(SU2).to_text()
    assert captured.err.startswith(f"{broken}: ")


def test_input_errors():
    with pytest.raises(InputError):
        parse_input({"coordinates": ["x", "x"], "mode": "bivector", "bivector": []})
    with pytest.raises(InputError):
        parse_input({"coordinates": ["x", "y"], "mode": "bivector",
                     "bivector": [{"i": 1, "j": 0, "coeff": "1"}]})
    with pytest.raises(InputError):
        parse_input({"coordinates": ["x", "y"], "mode": "wat"})
    with pytest.raises(InputError):  # the document must be a JSON object
        parse_input(5)
    with pytest.raises(InputError):  # names must be strings
        parse_input({"coordinates": [1, 2], "mode": "bivector",
                     "bivector": [{"i": 0, "j": 1, "coeff": "1"}]})
    with pytest.raises(InputError):  # a string is not a list of names
        parse_input({"coordinates": "xy", "mode": "bivector",
                     "bivector": [{"i": 0, "j": 1, "coeff": "1"}]})
    with pytest.raises(InputError):  # names must be parser identifiers
        parse_input({"coordinates": ["x*y", "z"], "mode": "bivector",
                     "bivector": [{"i": 0, "j": 1, "coeff": "1"}]})
    with pytest.raises(InputError):  # indices must be JSON integers, not floats
        parse_input({"coordinates": ["x", "y"], "mode": "bivector",
                     "bivector": [{"i": 0.9, "j": 1.7, "coeff": "1"}]})
    with pytest.raises(InputError):  # nor booleans
        parse_input({"coordinates": ["x", "y"], "mode": "bivector",
                     "bivector": [{"i": False, "j": True, "coeff": "1"}]})
    with pytest.raises(InputError):  # sparse structure constants stay in range
        parse_input({"coordinates": ["x", "y"], "mode": "lie_algebra",
                     "structure_constants": [{"i": 0, "j": 1, "k": -1, "c": "1"}]})
    with pytest.raises(InputError):  # dense structure constants are n x n x n
        parse_input({"coordinates": ["x", "y"], "mode": "lie_algebra",
                     "structure_constants": [[[0, 0, 0], [0, 0, 1]], [[0, 0], [0, 0]]]})


def test_cli_exit_codes(tmp_path, capsys):
    heis = write(tmp_path, "heis.json", HEIS)
    assert main(["analyze", heis]) == 0
    capsys.readouterr()
    shifted = write(tmp_path, "shifted.json", SHIFTED)
    assert main(["analyze", shifted]) == 2
    capsys.readouterr()
    bad = write(tmp_path, "bad.json", {"coordinates": ["x"]})
    assert main(["analyze", bad]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("entries", [
    [{"i": 0, "j": 1, "k": 1, "c": "1"}, {"i": 1, "j": 0, "k": 1, "c": "1"}],   # {0,1} twice
    [{"i": 0, "j": 1, "k": 1, "c": "1"}, {"i": 0, "j": 1, "k": 1, "c": "5"}],   # (0,1) twice
])
def test_cli_rejects_a_repeated_structure_constant(tmp_path, capsys, entries):
    doc = {"coordinates": ["x", "y"], "mode": "lie_algebra", "structure_constants": entries}
    path = write(tmp_path, "repeat.json", doc)
    assert main(["analyze", path]) == 1
    err = capsys.readouterr().err
    assert repr(entries[0]) in err and repr(entries[1]) in err
    assert "c_{0,1}^1" in err
    with pytest.raises(InputError, match="both set"):
        parse_input(doc)


def test_cli_reports_are_byte_identical(tmp_path, capsys):
    heis = write(tmp_path, "heis.json", HEIS)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["analyze", heis, "--json", str(out1)]) == 0
    first_text = capsys.readouterr().out
    assert main(["analyze", heis, "--json", str(out2)]) == 0
    second_text = capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes()
    assert first_text == second_text


def test_cli_batch_mode(tmp_path, capsys):
    paths = [write(tmp_path, "a.json", HEIS), write(tmp_path, "b.json", SYMPLECTIC)]
    assert main(["analyze", *paths]) == 0
    out = capsys.readouterr().out
    assert out.index(paths[0]) < out.index(paths[1])


def test_cli_trace_csv(tmp_path, capsys):
    su2 = write(tmp_path, "su2.json", SU2)
    csv_path = tmp_path / "trace.csv"
    code = main(["analyze", su2, "--trace", "1,0,0", "--steps", "100",
                 "--dt", "0.001", "--trace-out", str(csv_path)])
    assert code == 0
    capsys.readouterr()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "step,x,y,z"
    assert len(lines) == 102


def reference_trace(structure, x0, invariants, steps=10000, dt=1e-3):
    """RK4 on the coordinate fields with ``Polynomial.eval`` at every stage,
    returning the CSV and the drift note."""
    import numpy as np

    from poiskit.polyalg import DifferentialForm, Polynomial

    variables = structure.variables
    fields = [structure.sharp(DifferentialForm.d_of(Polynomial.variable(variables, v)))
              .coefficients() for v in variables]

    def ev(coeffs, x):
        return np.array([float(p.eval([float(v) for v in x])) for p in coeffs])

    x = np.array(x0, dtype=float)
    points = [x]
    for s in range(steps):
        coeffs = fields[s % len(fields)]
        k1 = ev(coeffs, x)
        k2 = ev(coeffs, x + 0.5 * dt * k1)
        k3 = ev(coeffs, x + 0.5 * dt * k2)
        k4 = ev(coeffs, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        points.append(x)
    csv = "step," + ",".join(variables) + "\n" + "".join(
        f"{i}," + ",".join(f"{v:.17g}" for v in row) + "\n" for i, row in enumerate(points))
    drifts = []
    for f in invariants:
        values = [float(f.eval(list(points[i]))) for i in range(0, steps + 1, steps // 100)]
        drifts.append(f"drift[{f}] = {max(abs(v - values[0]) for v in values) / abs(values[0]):.3e}")
    return csv, "# dimension estimate: 2; " + "; ".join(drifts)


def test_cli_trace_reuses_the_analysis(tmp_path, capsys, monkeypatch):
    import poiskit.cli
    import poiskit.poisson
    import poiskit.report

    calls = []
    original = poiskit.poisson.casimir_search

    def counted(structure, max_degree):
        calls.append(max_degree)
        return original(structure, max_degree)

    for module in (poiskit.poisson, poiskit.report, poiskit.cli):
        monkeypatch.setattr(module, "casimir_search", counted)
    su2 = write(tmp_path, "su2.json", SU2)
    csv_path = tmp_path / "trace.csv"
    assert main(["analyze", su2, "--trace", "1,0,0", "--trace-out", str(csv_path)]) == 0
    note = capsys.readouterr().err.splitlines()[0]
    assert calls == [4]

    structure, _, _ = parse_input(SU2)
    invariants = [p for p in original(structure, 4) if p.total_degree() > 0]
    expected_csv, expected_note = reference_trace(structure, [1.0, 0.0, 0.0], invariants)
    assert csv_path.read_text() == expected_csv
    assert note == expected_note


def test_round_trip_parse_print_parse():
    from poiskit.polyalg import parse_polynomial

    structure, echo, declared = parse_input(HEIS)
    again = parse_polynomial(("x", "y", "t"), echo["bivector"][0]["coeff"])
    assert again == structure.bivector.components[(0, 1)]
    assert str(structure.bivector) == echo["bivector_pretty"]
    assert declared is None


@pytest.mark.parametrize("argv, message", [
    (["analyze"], "the following arguments are required: inputs"),
    (["analyze", "{su2}", "--steps", "x"], "argument --steps: invalid int value: 'x'"),
    (["analyze", "{su2}", "--bogus"], "unrecognized arguments: --bogus"),
    (["wat"], "invalid choice: 'wat'"),
    (["analyze", "{su2}", "{su2}", "--trace", "1,0,0"], "--trace requires a single input file"),
    (["analyze", "{su2}", "--trace", "1,0,0", "--dt", "nan"], "argument --dt: must be finite"),
    (["analyze", "{su2}", "--trace", "1,0,0", "--dt", "inf"], "argument --dt: must be finite"),
])
def test_cli_usage_errors_exit_with_error_code(tmp_path, capsys, argv, message):
    su2 = write(tmp_path, "su2.json", SU2)
    assert main([a.format(su2=su2) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: poiskit" in captured.err and message in captured.err


def test_cli_help_still_exits_zero(capsys):
    for argv in (["--help"], ["analyze", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: poiskit" in capsys.readouterr().out


def test_python_dash_m_runs_the_cli(tmp_path):
    su2 = write(tmp_path, "su2.json", SU2)
    src = str(Path(poiskit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "poiskit", "analyze", su2],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "almost regular: no" in done.stdout


@pytest.mark.parametrize("flag, value", [
    ("--max-degree", "-1"), ("--samples", "-5"), ("--steps", "-1"),
])
def test_cli_rejects_negative_bounds_at_parse_time(tmp_path, capsys, flag, value):
    su2 = write(tmp_path, "su2.json", SU2)
    assert main(["analyze", su2, "--trace", "1,0,0", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""          # nothing was analyzed or traced
    assert f"argument {flag}: must be non-negative, got {value}" in captured.err


def test_cli_accepts_zero_bounds_and_a_backward_step(tmp_path, capsys):
    su2 = write(tmp_path, "su2.json", SU2)
    assert main(["analyze", su2, "--max-degree", "0", "--samples", "0"]) == 0
    assert "polynomial casimirs up to degree 0" in capsys.readouterr().out
    code = main(["analyze", su2, "--trace", "1,0,0", "--steps", "3", "--dt", "-0.001"])
    assert code == 0
    out = capsys.readouterr().out
    rows = out[out.index("step,x,y,z"):].strip().splitlines()
    assert [r.split(",")[0] for r in rows] == ["step", "0", "1", "2", "3"]


def test_cli_trace_blowup_is_a_trace_failure(tmp_path, capsys):
    # the flow of y overflows x within one step: the trace stops at the norm
    # guard instead of handing a non-finite point to the rank probe's SVD
    doc = {"coordinates": ["x", "y"], "mode": "bivector",
           "bivector": [{"i": 0, "j": 1, "coeff": "x^6 - x^5"}]}
    path = write(tmp_path, "blowup.json", doc)
    assert main(["analyze", path, "--trace", "10,0", "--dt", "0.1"]) == 1
    captured = capsys.readouterr()
    assert "trace failed: trajectory norm exceeded" in captured.err
    assert "step,x,y" not in captured.out


def test_cli_trace_with_non_finite_field_values_is_a_trace_failure(tmp_path, capsys):
    # the fields overflow at the starting point itself, so the rank probe
    # stops the trace before any step
    doc = {"coordinates": ["x", "y"], "mode": "bivector",
           "bivector": [{"i": 0, "j": 1, "coeff": "10^305*x*y - 10^305*x"}]}
    path = write(tmp_path, "overflow.json", doc)
    assert main(["analyze", path, "--trace", "1e4,3", "--steps", "0"]) == 1
    captured = capsys.readouterr()
    assert "trace failed: field values are not finite" in captured.err
    assert "step,x,y" not in captured.out
