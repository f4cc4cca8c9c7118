"""Command line interface.

``poiskit analyze INPUT.json [INPUT2.json ...]`` runs the full pipeline and
prints a text report (``--json OUT`` additionally writes the machine-readable
document). ``--trace`` integrates the Hamiltonian flows from a starting point
and emits a CSV point cloud. Exit codes: 0 decision reached, 2 some stage
inconclusive, 1 error. Batch inputs run one after another, one report
each, in input order; timing goes to stderr so reports stay byte-identical
for a fixed seed. A usage error (a missing input, a malformed or negative
``--max-degree``, ``--samples`` or ``--steps``, a malformed ``--trace`` point,
a non-finite ``--dt``, or ``--json`` or ``--trace`` with several inputs) prints
argparse's message to stderr and exits 1 before any analysis runs, so that 2
keeps meaning inconclusive.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .polyalg import PolyParseError
from .poisson import casimir_search
from .report import AnalysisOptions, AnalysisReport, InputError, analyze
from .trace import TraceBlowupError, trace_leaf, trace_to_csv

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose usage errors reach ``main`` as exceptions
    instead of argparse's exit code 2, which here means inconclusive."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _point(text: str) -> list[float]:
    return [_finite_float(v) for v in text.split(",")]


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="poiskit",
        description="Analyze polynomial Poisson bivectors on a coordinate chart.")
    sub = parser.add_subparsers(dest="command", required=True)
    an = sub.add_parser("analyze", help="run the analysis pipeline on JSON inputs")
    an.add_argument("inputs", nargs="+", help="input JSON files")
    an.add_argument("--json", dest="json_out", metavar="OUT",
                    help="write the machine-readable report (single input only)")
    an.add_argument("--max-degree", type=_non_negative_int, default=4,
                    help="degree bound for the Casimir search (default 4)")
    an.add_argument("--samples", type=_non_negative_int, default=10000,
                    help="witness-search sample count (default 10000)")
    an.add_argument("--seed", type=int, default=0, help="witness-search seed (default 0)")
    an.add_argument("--skip-jacobi", action="store_true",
                    help="skip Jacobi verification (flagged in the report)")
    an.add_argument("--trace", metavar="X0", type=_point,
                    help="comma-separated starting point for the leaf tracer")
    an.add_argument("--steps", type=_non_negative_int, default=10000,
                    help="tracer steps (default 10000)")
    an.add_argument("--dt", type=_finite_float, default=1e-3,
                    help="tracer step size (default 1e-3)")
    an.add_argument("--trace-out", metavar="CSV",
                    help="write the trace point cloud to a CSV file (default stdout)")
    return parser


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if len(args.inputs) > 1:
        for flag, value in (("--json", args.json_out), ("--trace", args.trace)):
            if value is not None:
                parser.error(f"{flag} requires a single input file")
    return args


def _run_one(path: str, options: AnalysisOptions) -> tuple[AnalysisReport | None, str | None]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return None, f"{path}: cannot read input: {exc}"
    try:
        return analyze(document, options), None
    except (InputError, PolyParseError, ValueError) as exc:
        return None, f"{path}: {exc}"


def _run_trace(args, report: AnalysisReport) -> tuple[str | None, str | None]:
    structure = report.structure
    try:
        # conserve the Casimirs of the analysis (it runs no search on the zero bivector)
        casimirs = report.casimirs
        if casimirs is None:
            casimirs = casimir_search(structure, args.max_degree)
        invariants = [p for p in casimirs if p.total_degree() > 0]
        result = trace_leaf(structure, args.trace, steps=args.steps, dt=args.dt,
                            invariants=invariants)
    except (TraceBlowupError, ValueError) as exc:
        return None, f"trace failed: {exc}"
    csv = trace_to_csv(result, structure.variables)
    note = (f"# dimension estimate: {result.dimension_estimate}; "
            + "; ".join(f"drift[{k}] = {v:.3e}" for k, v in result.conserved_drift.items()))
    return csv, note


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_ERROR
    options = AnalysisOptions(max_degree=args.max_degree, samples=args.samples,
                              seed=args.seed, skip_jacobi=args.skip_jacobi)

    started = time.perf_counter()
    results = [_run_one(path, options) for path in args.inputs]

    exit_code = EXIT_OK
    for path, (report, error) in zip(args.inputs, results):
        if error is not None:
            print(error, file=sys.stderr)
            exit_code = EXIT_ERROR
            continue
        if len(args.inputs) > 1:
            sys.stdout.write(f"==== {path} ====\n")
        sys.stdout.write(report.to_text())
        if report.inconclusive and exit_code == EXIT_OK:
            exit_code = EXIT_INCONCLUSIVE
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())

    if args.trace is not None and exit_code != EXIT_ERROR:
        csv, note = _run_trace(args, results[0][0])
        if csv is None:
            print(note, file=sys.stderr)
            return EXIT_ERROR
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                fh.write(csv)
            print(note, file=sys.stderr)
        else:
            sys.stdout.write(csv)
            print(note, file=sys.stderr)

    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
