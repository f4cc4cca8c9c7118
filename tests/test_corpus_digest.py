"""Benchmark corpus reports, pinned by digest.

The first input set of the ``chart-batch`` (25 bivector charts) and
``lie-duals`` (nine Lie algebra duals) benchmark workloads at seeds 0 and 7
gives 68 documents. ``corpus_digests.json`` holds the sha256 of
``analyze(doc).to_text()`` and of ``.to_json()`` for each, with default
options, so a change that moves any byte of these reports fails here.

The documents come from ``perfbench/corpus.py``, which is compiled from its
source text and run in a fresh module object, so nothing is written under
``perfbench/``. A change that alters these reports on purpose rewrites the
digests with::

    PYTHONPATH=src python tests/test_corpus_digest.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
import types
from pathlib import Path

import pytest

from poiskit.report import AnalysisOptions, analyze

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "perfbench" / "corpus.py"
DIGESTS = Path(__file__).parent / "corpus_digests.json"
SEEDS = (0, 7)
WORKLOADS = ("chart-batch", "lie-duals")


def _corpus():
    module = types.ModuleType("perfbench_corpus")
    module.__file__ = str(CORPUS)
    sys.modules[module.__name__] = module      # dataclasses look their module up
    try:
        exec(compile(CORPUS.read_text(encoding="utf-8"), str(CORPUS), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def documents(workload: str, seed: int) -> dict[str, dict]:
    """The first input set of ``workload`` at ``seed``, named as the
    benchmark names it (set index suffix ``.0``)."""
    corpus = _corpus()
    if workload == "chart-batch":
        out = {}
        for chart in corpus.chart_batch_charts():
            chart.name = f"{chart.name}.0"
            out[chart.name] = corpus.bivector_document(chart, seed)[0]
        return out
    out = {}
    for dual in corpus.lie_duals():
        name = f"{dual.name}.0"
        constants = corpus.structure_constants(dual.basis)
        out[name] = corpus.lie_document(dual, seed, name, constants)[0]
    return out


def digests(workload: str, seed: int) -> dict[str, dict[str, str]]:
    out = {}
    for name, doc in documents(workload, seed).items():
        report = analyze(doc, AnalysisOptions())
        out[f"{workload}:{seed}:{name}"] = {
            "text": hashlib.sha256(report.to_text().encode("utf-8")).hexdigest(),
            "json": hashlib.sha256(report.to_json().encode("utf-8")).hexdigest(),
        }
    return out


def test_digest_file_covers_68_reports():
    assert len(json.loads(DIGESTS.read_text(encoding="utf-8"))) == 68


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_corpus_reports_match_their_digests(workload, seed):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = digests(workload, seed)
    want = {key: value for key, value in pinned.items()
            if key.startswith(f"{workload}:{seed}:")}
    assert sorted(got) == sorted(want)
    moved = sorted(key for key in got if got[key] != want[key])
    assert not moved, f"reports changed: {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus_digest.py --write")
    table = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            table.update(digests(workload, seed))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS}")
