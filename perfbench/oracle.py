"""Answer checks: known answers for the charts, sympy for the witnesses.

A report is reduced to its facts (k, almost-regular outcome and witness,
kernel generators, log-type verdict, Casimir count), read either from the
JSON document of ``report.analyze`` or from the text the CLI prints. A
decisive answer that disagrees with the known answer is a failure; an
``inconclusive`` answer is undecided, not failed. Every ``no`` witness is
re-checked with sympy, independently of poiskit's own arithmetic: the
report's kernel generators, evaluated at the witness, must have rank below
the generic kernel dimension.
"""

from __future__ import annotations

import ast
import json
import math
import re
from dataclasses import dataclass

from corpus import NOT_AR

INCONCLUSIVE = "inconclusive"


@dataclass
class Facts:
    coordinates: list[str]
    k: int
    almost_regular: str
    witness: list[str] | None
    generators: list[list[str]]
    generic_dimension: int
    log_type: str
    casimir_count: int


def facts_from_json(text: str) -> Facts:
    d = json.loads(text)
    ar = d["almost_regular"]
    return Facts(coordinates=d["input"]["coordinates"], k=d["k"], almost_regular=ar["outcome"],
                 witness=ar.get("witness"),
                 generators=d["germinal_isotropy"]["generators"],
                 generic_dimension=d["germinal_isotropy"]["generic_dimension"],
                 log_type=_log_type(ar["outcome"], d.get("log_f", {}).get("verdict")),
                 casimir_count=len(d["casimirs"]["basis"]))


_LINE = {
    "coordinates": re.compile(r"^chart: (.*)$"),
    "k": re.compile(r"^k = (\d+) "),
    "generators": re.compile(r"^kernel module generators: (.*)$"),
    "generic_dimension": re.compile(r"^generic kernel dimension: (\d+)$"),
    "almost_regular": re.compile(r"^almost regular: (\S+)$"),
    "witness": re.compile(r"^  witness point: (.*)$"),
    "log_f": re.compile(r"^log-type classification: (.*)$"),
    "casimirs": re.compile(r"^polynomial casimirs up to degree \d+: (.*)$"),
}


def facts_from_text(text: str) -> Facts:
    found: dict = {}
    for line in text.splitlines():
        for key, pattern in _LINE.items():
            m = pattern.match(line)
            if m and key not in found:
                found[key] = m.group(1)
    missing = [k for k in _LINE if k not in found and k not in ("witness", "log_f")]
    if missing:
        raise ValueError(f"report lacks {missing}")
    ar = found["almost_regular"]
    return Facts(coordinates=found["coordinates"].split(", "), k=int(found["k"]),
                 almost_regular=ar,
                 witness=ast.literal_eval(found["witness"]) if "witness" in found else None,
                 generators=ast.literal_eval(found["generators"]),
                 generic_dimension=int(found["generic_dimension"]),
                 log_type=_log_type(ar, found.get("log_f")),
                 casimir_count=len(ast.literal_eval(found["casimirs"])))


def _log_type(almost_regular: str, verdict: str | None) -> str:
    if almost_regular == "no":
        return NOT_AR
    if almost_regular == "yes" and verdict is not None:
        return verdict
    return INCONCLUSIVE


def compare(facts: Facts, known) -> tuple[list[str], bool]:
    """Disagreements with the known answers, and whether both verdicts
    (almost regular, log type) are decisive."""
    errors = []
    if facts.k != known.k:
        errors.append(f"k = {facts.k}, expected {known.k}")
    if facts.almost_regular != INCONCLUSIVE and facts.almost_regular != known.almost_regular:
        errors.append(f"almost regular {facts.almost_regular}, expected {known.almost_regular}")
    if facts.log_type != INCONCLUSIVE and facts.log_type != known.log_type:
        errors.append(f"log type {facts.log_type}, expected {known.log_type}")
    if facts.casimir_count != known.casimir_count:
        errors.append(f"{facts.casimir_count} Casimirs up to degree 4, "
                      f"expected {known.casimir_count}")
    if facts.almost_regular == "no" and facts.witness is None:
        errors.append("a 'no' without a witness")
    decided = INCONCLUSIVE not in (facts.almost_regular, facts.log_type)
    return errors, decided


def witness_errors(facts: Facts) -> list[str]:
    """sympy re-check of a ``no`` witness (empty list when it holds)."""
    if facts.almost_regular != "no":
        return []
    import sympy

    symbols = {name: sympy.Symbol(name) for name in facts.coordinates}
    point = {symbols[name]: sympy.Rational(v) for name, v in zip(facts.coordinates, facts.witness)}
    rows = [[sympy.sympify(entry.replace("^", "**"), locals=symbols).subs(point)
             for entry in gen] for gen in facts.generators]
    rank = sympy.Matrix(rows).rank() if rows else 0
    if rank >= facts.generic_dimension:
        return [f"witness {facts.witness}: kernel rank {rank} is not below "
                f"the generic {facts.generic_dimension}"]
    return []


# -- numeric answers -----------------------------------------------------------------


def numeric_errors(task: str, result: dict) -> list[str]:
    if task == "trace_su2":
        ok = result["drift"] < 1e-8 and result["dimension"] == 2
        return [] if ok else [f"drift {result['drift']:.2e}, dimension {result['dimension']}"]
    if task == "period_su2":
        value, coarse = result["value"], result["coarse"]
        ok = (abs(value - 4 * math.pi) <= 1e-6 * 4 * math.pi
              and abs(value - coarse) <= 1e-6 * abs(value))
        return [] if ok else [f"period {value!r} (coarse {coarse!r}), expected 4 pi"]
    if task == "period_flat":
        return [] if abs(result["value"]) < 1e-8 else [f"flat period {result['value']!r}"]
    if task == "groupoid":
        ok = (result["axioms"] and result["morphism_exact"]
              and result["residual"] < 1e-9)
        return [] if ok else [f"groupoid check {result}"]
    raise ValueError(f"unknown numeric task {task!r}")
