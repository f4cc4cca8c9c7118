"""The three workloads: seeded inputs, one timed pass, answer checks.

Each workload is a closed loop with one client in one process: the next
request goes out when the previous one has returned. A run draws several
input sets from its seed (``SETS``); passes cycle through the sets, and each
set is run at least twice so that its report bytes can be compared between
passes. Every input is timed with the speed probe beside it (see
:mod:`speed`); summing the inputs' median costs gives the time of one pass
over all of a run's inputs, and using several independently transformed
sets averages out how much one seed's coordinates happen to cost.

``chart-batch``: ``poiskit.cli.main(["analyze", f1 ... f25])`` in-process,
one call per set, over the bivector charts of :mod:`corpus` (everyday batch
use; the ``yes`` path and the CLI thread pool do the work).

``lie-duals``: ``report.analyze`` in ``lie_algebra`` mode on the nine duals
of :mod:`corpus`, one call per chart (the Groebner basis of the minor ideal
in ``variety_emptiness`` dominates; ``germinal_isotropy`` runs 3 times per
chart).

``numeric-leaves``: the only load on ``trace`` and ``groupoid``. The RK4
tracer on su(2) (10^4 steps, dt 1e-3, radius invariant), curvature periods
on su(2)'s round sphere (meshes 32/64) and on the flat planar sphere
(16/24), and the groupoid model's axioms plus ``pair_morphism_check`` at
1000 exact samples. No Groebner basis of any size; float evaluation of
``Fraction`` polynomials dominates, so symbolic-engine changes should leave
it unchanged. The seed moves the starting point, the sphere's axes (cyclic,
so the period keeps its sign), the flat sphere's height and the rational
samples; it does not change the amount of work.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import corpus
import oracle
import speed

SETS = {"chart-batch": 4, "lie-duals": 4, "numeric-leaves": 1}


@dataclass
class Outcome:
    """One input's result in one pass: report bytes, or the error."""

    output: str | None
    error: str | None = None


@dataclass
class Input:
    name: str
    known: object = None
    reference: str | None = None        # report bytes of the first pass
    errors: list[str] = field(default_factory=list)
    decided: bool = True
    attempts: int = 0
    failed_attempts: int = 0


class Workload:
    name = ""
    one_cpu = False     # pin the measured passes to one CPU
    batched = False     # one call per set: every input of a set has the set's latency

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.sets: list[list[Input]] = []

    def run_set(self, v: int) -> tuple[list[tuple[float, float]], list[Outcome]]:
        """Run input set ``v`` once: per input, its latency and the speed
        probe's time beside it (see :class:`speed.Clock`), and its outcome."""
        raise NotImplementedError

    def check(self, item: Input, output: str) -> None:
        """Known-answer checks on an input's first report."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed call through the same code on a small fixed input."""


# -- chart-batch -----------------------------------------------------------------------


class ChartBatch(Workload):
    name = "chart-batch"
    # the CLI's pool threads take turns on the GIL; on two vCPUs the hand-off
    # between cores made repeats of one seed swing by 45% (20% pinned)
    one_cpu = True
    batched = True

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.paths: list[list[str]] = []
        for v in range(SETS[self.name]):
            items, paths = [], []
            for chart in corpus.chart_batch_charts():
                chart.name = f"{chart.name}.{v}"
                doc, record = corpus.bivector_document(chart, seed)
                path = os.path.join(workdir, f"{chart.name}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                items.append(Input(chart.name, record["known"]))
                paths.append(path)
            self.sets.append(items)
            self.paths.append(paths)

    def _call(self, paths):
        import poiskit.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = poiskit.cli.main(["analyze", *paths])
        return code, out.getvalue(), err.getvalue()

    def warm_up(self) -> None:
        self._call(self.paths[0][:2])

    def run_set(self, v):
        paths = self.paths[v]
        clock = speed.Clock()
        try:
            code, out, err = clock.time(lambda: self._call(paths))
        except Exception as exc:  # noqa: BLE001 - a crash fails every input of the call
            return clock.samples * len(paths), [Outcome(None, repr(exc)) for _ in paths]
        sections: dict[str, str] = {}
        marker = "==== "
        current = None
        for line in out.splitlines(keepends=True):
            if line.startswith(marker) and line.rstrip().endswith(" ===="):
                current = line[len(marker):-len(" ====\n")]
                sections[current] = ""
            elif current is not None:
                sections[current] += line
        outcomes = []
        for path in paths:
            text = sections.get(path)
            if text is None:
                bad = [ln for ln in err.splitlines() if ln.startswith(path)]
                outcomes.append(Outcome(None, bad[0] if bad else f"exit code {code}, no report"))
            elif code == 1:
                outcomes.append(Outcome(text, f"exit code 1: {err.strip()[:200]}"))
            else:
                outcomes.append(Outcome(text))
        # every chart's report appears when the batch call returns
        return clock.samples * len(paths), outcomes

    def check(self, item, output):
        facts = oracle.facts_from_text(output)
        errors, item.decided = oracle.compare(facts, item.known)
        item.errors += errors + oracle.witness_errors(facts)


# -- lie-duals -------------------------------------------------------------------------


class LieDuals(Workload):
    name = "lie-duals"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.docs: list[list[dict]] = []
        duals = corpus.lie_duals()
        constants = {d.name: corpus.structure_constants(d.basis) for d in duals}
        for v in range(SETS[self.name]):
            items, docs = [], []
            for dual in duals:
                name = f"{dual.name}.{v}"
                doc, record = corpus.lie_document(dual, seed, name, constants[dual.name])
                items.append(Input(name, record["known"]))
                docs.append(doc)
            self.sets.append(items)
            self.docs.append(docs)

    def warm_up(self) -> None:
        from poiskit.report import AnalysisOptions, analyze

        analyze(self.docs[0][0], AnalysisOptions()).to_json()

    def run_set(self, v):
        import poiskit.report as report

        options = report.AnalysisOptions()
        clock = speed.Clock()
        outcomes = []
        for doc in self.docs[v]:
            try:
                outcomes.append(Outcome(clock.time(lambda: report.analyze(doc, options).to_json())))
            except Exception as exc:  # noqa: BLE001 - counted as a failed input
                outcomes.append(Outcome(None, repr(exc)))
        return clock.samples, outcomes

    def check(self, item, output):
        facts = oracle.facts_from_json(output)
        errors, item.decided = oracle.compare(facts, item.known)
        item.errors += errors + oracle.witness_errors(facts)


# -- numeric-leaves ----------------------------------------------------------------------


class NumericLeaves(Workload):
    name = "numeric-leaves"
    TASKS = ("trace_su2", "period_su2", "period_flat", "groupoid")

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = random.Random(f"{seed}:numeric-leaves")
        a, b = rng.choice(((3, 4), (4, 3), (5, 12), (12, 5)))
        c = (a * a + b * b) ** 0.5
        start = [a / c, b / c, 0.0]
        rng.shuffle(start)
        self.x0 = [rng.choice((1, -1)) * x for x in start]
        shift = rng.randrange(3)
        self.axes = tuple((i + shift) % 3 for i in range(3))
        self.height = Fraction(rng.randint(-20, 20), 10)
        self.samples_seed = rng.randrange(2 ** 31)
        self.sets = [[Input(t) for t in self.TASKS]]

    def _task(self, task: str) -> dict:
        from poiskit.groupoid import (LinearGroupoidModel, MonodromyProblem, monodromy_period,
                                      pair_morphism_check, planar_sphere, round_sphere)
        from poiskit.polyalg import Polynomial
        from poiskit.poisson import PoissonStructure
        from poiskit.trace import trace_leaf

        if task in ("trace_su2", "period_su2"):
            su2 = PoissonStructure.from_components(
                ("x", "y", "z"), {(0, 1): "z", (1, 2): "x", (0, 2): "-y"})
        if task == "trace_su2":
            r2 = Polynomial.parse(("x", "y", "z"), "x^2 + y^2 + z^2")
            res = trace_leaf(su2, self.x0, steps=10000, dt=1e-3, invariants=[r2])
            return {"drift": res.conserved_drift[str(r2)], "dimension": res.dimension_estimate}
        if task == "period_su2":
            res = monodromy_period(MonodromyProblem(su2, round_sphere(1.0, 3, axes=self.axes)),
                                   meshes=(32, 64))
            return {"value": res.value, "coarse": res.coarse_value}
        if task == "period_flat":
            flat = PoissonStructure.from_components(("x", "y", "t"), {(0, 1): "1"})
            sphere = planar_sphere(1.0, 3, axes=(0, 1), center=[0, 0, float(self.height)])
            res = monodromy_period(MonodromyProblem(flat, sphere), meshes=(16, 24))
            return {"value": res.value}
        model = LinearGroupoidModel([[0, 1], [-1, 0]], Polynomial.variable(("t",), "t"))
        morphism = pair_morphism_check(model, samples=1000, seed=self.samples_seed)
        return {"axioms": _groupoid_axioms(model, self.samples_seed, 1000),
                "morphism_exact": morphism.morphism_exact,
                "residual": morphism.anti_poisson_max_residual}

    def run_set(self, v):
        clock = speed.Clock()
        outcomes = []
        for task in self.TASKS:
            try:
                outcomes.append(Outcome(repr(sorted(clock.time(lambda: self._task(task)).items()))))
            except Exception as exc:  # noqa: BLE001 - counted as a failed input
                outcomes.append(Outcome(None, repr(exc)))
        return clock.samples, outcomes

    def warm_up(self) -> None:
        from poiskit.groupoid import LinearGroupoidModel
        from poiskit.polyalg import Polynomial

        model = LinearGroupoidModel([[0, 1], [-1, 0]], Polynomial.variable(("t",), "t"))
        _groupoid_axioms(model, 0, 10)

    def check(self, item, output):
        item.errors += oracle.numeric_errors(item.name, dict(ast.literal_eval(output)))


def _groupoid_axioms(model, seed: int, samples: int) -> bool:
    """Unit, inverse and associativity laws on exact rational triples."""
    from poiskit._kernel import QQ

    rng = random.Random(seed)

    def rvec():
        return tuple(QQ(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(2))

    for _ in range(samples):
        t = QQ(rng.randint(-15, 15), rng.randint(1, 6))
        h = (rvec(), rvec(), t)
        g = (rvec(), model.target(h)[0], t)
        k = (rvec(), model.target(g)[0], t)
        if (model.multiply(model.unit(*model.target(g)), g) != g
                or model.multiply(g, model.inverse(g)) != model.unit(*model.target(g))
                or model.multiply(model.multiply(k, g), h) != model.multiply(k, model.multiply(g, h))):
            return False
    return True


WORKLOADS = {w.name: w for w in (ChartBatch, LieDuals, NumericLeaves)}
