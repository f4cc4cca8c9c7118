"""CLI end-to-end: reports, exit codes, determinism, tracing."""

from __future__ import annotations

import json

import pytest

from poiskit.cli import main
from poiskit.report import AnalysisOptions, InputError, analyze, parse_input
from conftest import gl_constants

HEIS = {"coordinates": ["x", "y", "t"], "mode": "bivector",
        "bivector": [{"i": 0, "j": 1, "coeff": "t"}]}
SU2 = {"coordinates": ["x", "y", "z"], "mode": "bivector",
       "bivector": [{"i": 0, "j": 1, "coeff": "z"},
                    {"i": 1, "j": 2, "coeff": "x"},
                    {"i": 0, "j": 2, "coeff": "-y"}]}
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


def test_lie_algebra_mode_dense_constants():
    dense = [[[0, 0, 0], [0, 0, 1], [0, 0, 0]],
             [[0, 0, -1], [0, 0, 0], [0, 0, 0]],
             [[0, 0, 0], [0, 0, 0], [0, 0, 0]]]
    doc = {"coordinates": ["x", "y", "z"], "mode": "lie_algebra",
           "structure_constants": dense}
    report = analyze(doc)
    assert report.data["lie_algebra"]["center_dimension"] == 1


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

    calls = []
    original = poiskit.poisson.germinal_isotropy

    def counted(structure):
        calls.append(structure)
        return original(structure)

    for module in (poiskit.poisson, poiskit.report):
        monkeypatch.setattr(module, "germinal_isotropy", counted)
    analyze(doc)
    assert len(calls) == 1


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

    structure, _ = parse_input(SU2)
    invariants = [p for p in original(structure, 4) if p.total_degree() > 0]
    expected_csv, expected_note = reference_trace(structure, [1.0, 0.0, 0.0], invariants)
    assert csv_path.read_text() == expected_csv
    assert note == expected_note


def test_round_trip_parse_print_parse():
    from poiskit.polyalg import parse_polynomial

    structure, echo = parse_input(HEIS)
    again = parse_polynomial(("x", "y", "t"), echo["bivector"][0]["coeff"])
    assert again == structure.bivector.components[(0, 1)]
    assert str(structure.bivector) == echo["bivector_pretty"]


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
