"""Reports on fixed inputs, byte for byte.

``tests/golden`` holds seeded charts (the Heisenberg family and a flat
product in sheared coordinates, su(2), whose answer is ``no``, and the dual
of heis5) with the text and JSON reports that ``analyze`` wrote for them
with default options. The sheared Heisenberg and flat charts hand the
saturation a regular-locus ideal with two generators (in ``heis3_by_t`` the
same one twice), so the colon meets more than one generator and a repeat. A change that alters a report on purpose rewrites the
``.report.*`` files with ``analyze(doc).to_text()`` and ``.to_json()``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from poiskit.report import AnalysisOptions, analyze

GOLDEN = Path(__file__).parent / "golden"
STEMS = sorted(p.name[:-len(".input.json")] for p in GOLDEN.glob("*.input.json"))


def test_golden_set_is_complete():
    assert len(STEMS) == 6


@pytest.mark.parametrize("stem", STEMS)
def test_report_is_byte_identical(stem):
    document = json.loads((GOLDEN / f"{stem}.input.json").read_text(encoding="utf-8"))
    report = analyze(document, AnalysisOptions())
    assert report.to_text() == (GOLDEN / f"{stem}.report.txt").read_text(encoding="utf-8")
    assert report.to_json() == (GOLDEN / f"{stem}.report.json").read_text(encoding="utf-8")
