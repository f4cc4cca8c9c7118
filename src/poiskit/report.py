"""End-to-end analysis pipeline and report assembly.

:func:`parse_input` is the only reader of the input document; :func:`analyze`
reads only the structure, echo and declared distribution it returns.

The report is deterministic for a fixed seed and option set: ideals are
printed as generator lists sorted under degrevlex, every inconclusive
verdict carries its unresolved ideal verbatim, and wall-clock timing is kept
out of the payload (the CLI prints it to stderr).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from ._kernel import to_qq
from .polyalg import IDENTIFIER, MultivectorField, Polynomial, degrevlex_key
from .modcalc import SubmodulePresentation
from .poisson import (
    DistributionPresentation,
    PoissonStructure,
    almost_regular_decide,
    center_check,
    check_jacobi,
    germinal_isotropy,
    linear_structure,
    verify_distribution,
    DEFAULT_CASIMIR_DEGREE,
    DENSITY_RATIONALE,
    SMOOTHNESS_NOTE,
)
from .construct import logf_classify

SCHEMA_VERSION = 1


class InputError(ValueError):
    """Malformed analysis input."""


def sort_polys(polys: Sequence[Polynomial]) -> list[Polynomial]:
    """Degrevlex-descending by leading monomial, then lexicographic text."""

    def key(p: Polynomial):
        if p.is_zero:
            return ((-1, ()), "")
        e, _ = p.leading()
        return (degrevlex_key(e), str(p))

    return sorted(polys, key=key, reverse=True)


def _poly_list(polys: Sequence[Polynomial]) -> list[str]:
    return [str(p) for p in sort_polys(list(polys))]


def _gen_list(gens) -> list[list[str]]:
    return [[str(p) for p in g] for g in gens]


@dataclass
class AnalysisOptions:
    max_degree: int = DEFAULT_CASIMIR_DEGREE   # bounds the report's Casimir list only
    samples: int = 10000
    seed: int = 0
    skip_jacobi: bool = False


@dataclass
class AnalysisReport:
    data: dict
    inconclusive: bool
    # the parsed structure, for callers that go on to trace leaves; its
    # Casimir bases are cached on it (not rendered)
    structure: PoissonStructure | None = None

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        d = self.data
        lines = [f"poiskit analysis (schema {d['schema']})", ""]
        lines.append(f"chart: {', '.join(d['input']['coordinates'])}")
        lines.append(f"bivector: {d['input']['bivector_pretty']}")
        if "lie_algebra" in d:
            la = d["lie_algebra"]
            lines.append(f"lie algebra mode: center dim {la['center_dimension']}, "
                         f"origin kernel matches center: {la['h0_matches_center']['outcome']}")
        lines.append("")
        lines.append(f"jacobi: {d['jacobi']['outcome']}"
                     + (" (skipped: exploratory run)" if d['jacobi'].get('skipped') else ""))
        if d.get("zero_bivector"):
            lines.append("zero bivector: k undefined; trivially almost regular "
                         "(rank-0 distribution, full kernel module)")
            return "\n".join(lines) + "\n"
        lines.append(f"k = {d['k']}  (maximal rank {2 * d['k']})")
        lines.append(f"regular-locus ideal: {d['regular_locus_ideal']}")
        lines.append(f"density of the maximal-rank locus: yes ({d['density_rationale']})")
        iso = d["germinal_isotropy"]
        lines.append("")
        lines.append(f"kernel module generators: {iso['generators']}")
        lines.append(f"generic kernel dimension: {iso['generic_dimension']}")
        ar = d["almost_regular"]
        lines.append("")
        lines.append(f"almost regular: {ar['outcome']}")
        if ar["outcome"] == "yes":
            lines.append(f"  distribution rank {ar['distribution']['rank']}, generators "
                         f"{ar['distribution']['generators']}")
            checks = d.get("distribution_checks", {})
            if checks:
                lines.append("  checks: " + ", ".join(
                    f"{k}={v['outcome']}" for k, v in sorted(checks["items"].items())))
        elif ar["outcome"] == "no":
            lines.append(f"  witness point: {ar['witness']}")
            lines.append(f"  kernel dimension {ar['dims']['at_witness']} at witness, "
                         f"{ar['dims']['generic']} generically")
        else:
            lines.append(f"  reason: {ar.get('reason')}")
            lines.append(f"  unresolved ideal: {ar.get('unresolved_ideal')}")
        if "log_f" in d:
            lf = d["log_f"]
            lines.append("")
            lines.append(f"log-type classification: {lf['verdict']}")
            if lf.get("g") is not None:
                lines.append(f"  g = {lf['g']}")
                lines.append(f"  Z ideal: {lf['z_ideal']}")
                lines.append(f"  Z_sing ideal: {lf['z_sing_ideal']}")
                lines.append(f"  transversality: {lf['transversality']['outcome']}")
        cas = d.get("casimirs")
        if cas is not None:
            lines.append("")
            lines.append(f"polynomial casimirs up to degree {cas['max_degree']}: {cas['basis']}")
        lines.append("")
        lines.append("assumptions:")
        for note in d["assumptions"]:
            lines.append(f"  - {note}")
        return "\n".join(lines) + "\n"


def parse_input(document: dict) -> tuple[PoissonStructure, dict, list | None]:
    """Read and check the whole document, on every chart; returns
    ``(structure, echo, declared)``, the mode as ``echo["mode"]`` and
    ``declared`` the declared distribution's rows as polynomials (``None`` if
    absent, ``null`` or empty). A ``lie_algebra`` table goes only to
    :func:`linear_structure`, which proves the structure Poisson (a non-Lie
    table is an ``InputError``); a ``bivector`` structure is unchecked, and
    :func:`analyze` proves it. Malformed input is an ``InputError`` naming
    the entry at fault."""
    if not isinstance(document, dict):
        raise InputError(f"input must be a JSON object, got {type(document).__name__}")
    if "coordinates" not in document:
        raise InputError("missing 'coordinates'")
    coords = document["coordinates"]
    if not isinstance(coords, list) or not all(
            isinstance(name, str) and IDENTIFIER.fullmatch(name) for name in coords):
        raise InputError(f"'coordinates' must be a list of identifiers, got {coords!r}")
    coords = tuple(coords)
    if len(set(coords)) != len(coords):
        raise InputError("duplicate coordinate names")
    mode = document.get("mode", "bivector")
    echo: dict = {"coordinates": list(coords), "mode": mode}
    if mode == "lie_algebra":
        constants = document.get("structure_constants")
        if constants is None:
            raise InputError("lie_algebra mode needs 'structure_constants'")
        table = _parse_constants(constants, len(coords))
        try:
            structure = linear_structure(table, coords)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        echo["structure_constants"] = [[[str(to_qq(v)) for v in row] for row in plane]
                                       for plane in table]
    elif mode == "bivector":
        entries = document.get("bivector")
        if entries is None:
            raise InputError("missing 'bivector'")
        if not isinstance(entries, list):
            raise InputError(f"'bivector' must be a list of entries, got {entries!r}")
        comps: dict[tuple[int, int], Polynomial] = {}
        echo_entries = []
        for entry in entries:
            try:
                i, j, coeff = _index(entry, "i"), _index(entry, "j"), _exact_text(entry["coeff"])
            except (KeyError, TypeError) as exc:
                raise InputError(f"bad bivector entry {entry!r}: {exc}") from None
            if not 0 <= i < j < len(coords):
                raise InputError(f"bivector entry needs 0 <= i < j < {len(coords)}, got ({i},{j})")
            poly = Polynomial.parse(coords, coeff)
            comps[(i, j)] = (comps.get((i, j), Polynomial.zero(coords))) + poly
            echo_entries.append({"i": i, "j": j, "coeff": coeff})
        structure = PoissonStructure.unchecked(MultivectorField.bivector(coords, comps))
        echo["bivector"] = echo_entries
    else:
        raise InputError(f"unknown mode {mode!r}")
    echo["bivector_pretty"] = str(structure.bivector)
    return structure, echo, _parse_declared(document.get("declared_distribution"), coords)


def _parse_declared(rows, coords: tuple[str, ...]) -> list[list[Polynomial]] | None:
    """The declared distribution's rows, each ``n`` polynomial strings or
    JSON integers; ``None`` for ``None`` or an empty list."""
    if rows is None:
        return None
    if not isinstance(rows, list):
        raise InputError(f"'declared_distribution' must be a list of rows, got {rows!r}")
    n = len(coords)
    parsed = []
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"declared row {row!r} must be a list of {n} entries")
        try:
            parsed.append([Polynomial.parse(coords, _exact_text(c)) for c in row])
        except TypeError as exc:
            raise InputError(f"bad declared row {row!r}: {exc}") from None
    return parsed or None


def _exact_text(value) -> str:
    """An exact JSON value as text for the parsers: a JSON string or integer.
    ``null``, booleans, floats, lists and objects are a ``TypeError``."""
    if type(value) is not int and not isinstance(value, str):
        raise TypeError(f"{value!r} is not a JSON string or integer")
    return str(value)


def _rational(value):
    """A structure constant: an exact JSON value that reads as a rational; a
    string that does not is a ``ValueError``."""
    text = _exact_text(value)
    try:
        return to_qq(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{value!r} is not a rational") from None


def _index(entry: dict, key: str) -> int:
    """The integer at ``entry[key]``; JSON floats and booleans are refused."""
    value = entry[key]
    if type(value) is not int:
        raise InputError(f"bad entry {entry!r}: {key!r} must be an integer, got {value!r}")
    return value


def _is_cube(value, n: int, depth: int) -> bool:
    """Whether ``value`` is nested lists of length ``n``, ``depth`` levels deep."""
    if depth == 0:
        return True
    return (isinstance(value, list) and len(value) == n
            and all(_is_cube(v, n, depth - 1) for v in value))


def _parse_constants(constants, n: int):
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    if isinstance(constants, list) and (not constants or isinstance(constants[0], dict)):
        seen: dict[tuple[int, int, int], dict] = {}   # ({i, j} sorted, k) -> entry
        for entry in constants:
            try:
                i, j, k = _index(entry, "i"), _index(entry, "j"), _index(entry, "k")
                c = _rational(entry["c"])
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"bad structure constant {entry!r}: {exc}") from None
            if not all(0 <= v < n for v in (i, j, k)):
                raise InputError(f"structure constant needs indices in [0, {n}), "
                                 f"got ({i},{j},{k})")
            key = (min(i, j), max(i, j), k)
            if key in seen:
                raise InputError(f"structure constants {seen[key]!r} and {entry!r} "
                                 f"both set c_{{{key[0]},{key[1]}}}^{k}")
            seen[key] = entry
            table[i][j][k] = c
            table[j][i][k] = -c
        return table
    if isinstance(constants, list):
        if not _is_cube(constants, n, depth=3):
            raise InputError(f"dense structure_constants must be an {n}x{n}x{n} array")
        for i, plane in enumerate(constants):
            for j, row in enumerate(plane):
                for k, v in enumerate(row):
                    try:
                        table[i][j][k] = _rational(v)
                    except (TypeError, ValueError) as exc:
                        raise InputError(f"bad structure constant [{i}][{j}][{k}]: {exc}") from None
        return table
    raise InputError("structure_constants must be a dense array or a sparse entry list")


def _lie_section(structure: PoissonStructure, iso) -> dict:
    center, h0_matches_center = center_check(structure, iso)
    return {
        "center_dimension": len(center),
        "center_basis": [[str(v) for v in vec] for vec in center],
        "h0_matches_center": h0_matches_center.to_json(),
    }


def analyze(document: dict, options: AnalysisOptions | None = None) -> AnalysisReport:
    """Full pipeline on the parsed document (:func:`parse_input`): jacobi,
    rank data, kernel module, constant-rank decision, distribution checks,
    log-type classification, Casimir search."""
    options = options or AnalysisOptions()
    structure, echo, declared = parse_input(document)
    lie_algebra = echo["mode"] == "lie_algebra"
    data: dict = {"schema": SCHEMA_VERSION, "input": echo,
                  "options": {"max_degree": options.max_degree, "samples": options.samples,
                              "seed": options.seed, "skip_jacobi": options.skip_jacobi}}
    inconclusive = False

    if options.skip_jacobi:
        data["jacobi"] = {"outcome": "skipped", "skipped": True,
                          "note": "jacobi verification skipped (exploratory run)"}
    else:
        # a lie_algebra structure carries its proof from the constants; a
        # bivector document is proved here, by the Schouten bracket
        jac = structure.jacobi or check_jacobi(structure.bivector)
        data["jacobi"] = jac.to_json()
        if not jac.is_yes:
            raise InputError(
                f"Jacobi identity fails: trivector component {jac.witness['indices']} "
                f"has coefficient {jac.witness['coefficient']}")

    if structure.is_zero:
        if lie_algebra:
            data["lie_algebra"] = _lie_section(structure, germinal_isotropy(structure))
        data["zero_bivector"] = True
        data["k"] = 0
        data["almost_regular"] = {"outcome": "yes",
                                  "note": "zero bivector: rank-0 distribution"}
        data["assumptions"] = [SMOOTHNESS_NOTE]
        return AnalysisReport(data, inconclusive=False, structure=structure)

    data["k"] = structure.k
    data["regular_locus_ideal"] = _poly_list(structure.regular_ideal)
    data["density_rationale"] = DENSITY_RATIONALE

    # the kernel module is computed once, by the decision, and reused here
    decision = almost_regular_decide(structure, seed=options.seed, samples=options.samples)
    iso = decision.payload["isotropy"]
    if lie_algebra:
        data["lie_algebra"] = _lie_section(structure, iso)
    data["germinal_isotropy"] = {
        "generators": _gen_list(iso.module.generators),
        "generic_dimension": iso.generic_dimension,
        "drop_ideal": _poly_list(iso.drop_ideal),
    }

    ar: dict = {"outcome": decision.outcome}
    if decision.is_yes:
        dist: DistributionPresentation = decision.payload["distribution"]
        ar["distribution"] = {"rank": dist.rank, "generators": _gen_list(dist.generators),
                              "saturation_exponent": dist.provenance.get("saturation_exponent")}
    elif decision.is_no:
        ar["witness"] = [str(c) for c in decision.witness]
        ar["dims"] = decision.payload["dims"]
    else:
        inconclusive = True
        ar["reason"] = decision.reason
        ar["unresolved_ideal"] = decision.payload.get("unresolved_ideal")
    data["almost_regular"] = ar

    if decision.is_yes:
        dist = decision.payload["distribution"]
        if declared is not None:
            declared_module = SubmodulePresentation(structure.variables,
                                                    len(structure.variables), declared)
            checked = DistributionPresentation(declared_module, dist.rank,
                                               provenance={"declared": True})
            same = (all(map(dist.module.is_member, declared_module.generators))
                    and all(map(declared_module.is_member, dist.module.generators)))
            data["declared_distribution"] = {
                "generators": _gen_list(declared),
                "equals_computed": "yes" if same else "no",
            }
            target = checked
        else:
            target = dist
        checks = verify_distribution(target, structure, seed=options.seed,
                                     samples=options.samples)
        data["distribution_checks"] = {
            "outcome": checks.outcome,
            "items": {k: v.to_json() for k, v in checks.payload.items()},
        }
        if checks.is_inconclusive:
            inconclusive = True

        classification = logf_classify(structure, seed=options.seed, samples=options.samples,
                                        decision=decision)
        lf = {"verdict": classification.verdict}
        if classification.g is not None:
            lf["g"] = str(classification.g)
            lf["section"] = str(classification.section)
            lf["z_ideal"] = _poly_list(classification.z_ideal)
            lf["z_sing_ideal"] = _poly_list(classification.z_sing_ideal)
            lf["transversality"] = classification.transversality.to_json()
        if classification.verdict == "inconclusive":
            inconclusive = True
            lf["notes"] = classification.notes
        data["log_f"] = lf

    # at the default degree this is the basis the kernel module's Casimir
    # route read, searched once on the structure
    basis = structure.casimirs(options.max_degree)
    data["casimirs"] = {"max_degree": options.max_degree, "basis": [str(p) for p in basis]}

    data["assumptions"] = [
        SMOOTHNESS_NOTE,
        "density of the maximal-rank locus is certified structurally: " + DENSITY_RATIONALE,
    ]
    return AnalysisReport(data, inconclusive=inconclusive, structure=structure)
