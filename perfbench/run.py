#!/usr/bin/env python3
"""poiskit benchmark: seeded, answer-checked workloads with a traced run.

usage (from the root of a checkout that holds ``src/poiskit``):

    python3 perfbench/run.py --workload chart-batch --seed 0 --seconds 33 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
(see :mod:`tracer`) plus the tracing overhead. The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines above it are a run header and human-readable detail. The program
is imported from ``./src`` only; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import speed  # noqa: E402 - after the path entry it needs
SETUP_STARTS = 11
SETUP_IMPORT = "import poiskit.cli, poiskit.report, poiskit.trace, poiskit.groupoid"
WORK_ROOT = ".perfbench"


def log(*parts) -> None:
    print(*parts, flush=True)


def import_program(root: str):
    """Put ``root/src`` first on the path and import poiskit from there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "poiskit", "__init__.py")):
        print(f"error: no poiskit sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, src)
    import poiskit

    if not os.path.abspath(poiskit.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"error: poiskit imported from {poiskit.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)
    return poiskit


def measure_setup(root: str) -> tuple[float, list[float]]:
    """Time for a fresh interpreter to import the user-facing modules, as the
    median over starts in seconds at the reference speed, and the wall times."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, "-c", SETUP_IMPORT]
    subprocess.run(cmd, env=env, cwd=root, check=True)   # compiles bytecode once
    clock = speed.Clock()
    for _ in range(SETUP_STARTS):
        clock.time(lambda: subprocess.run(cmd, env=env, cwd=root, check=True))
    return speed.reference_seconds(clock.samples), [t for t, _ in clock.samples]


def run_header(poiskit, args) -> dict:
    import numpy

    from poiskit._kernel import QQ

    return {"backend": poiskit.KERNEL_BACKEND, "cpus": sorted(os.sched_getaffinity(0)),
            "rational": f"{QQ.__module__}.{QQ.__qualname__}",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value
    (the median when there are too few samples for one)."""
    ordered = sorted(samples)
    n = len(ordered)
    idx = n - 11 if n > 10 else (n - 1) // 2
    return 100.0 * (idx + 1) / n, ordered[idx]


class Runner:
    """Cycles passes over the input sets, records times and checks outputs."""

    def __init__(self, workload):
        self.w = workload
        # per mode, set and input: one latency per pass
        self.samples = {mode: [[[] for _ in items] for items in workload.sets]
                        for mode in ("plain", "traced")}
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def one(self, v: int, mode: str, recorder=None) -> dict | None:
        if recorder is not None:
            recorder.install()
        try:
            samples, outcomes = self.w.run_set(v)
        finally:
            if recorder is not None:
                recorder.uninstall()
        for kept, sample in zip(self.samples[mode][v], samples):
            kept.append(sample)
        if mode == "plain":
            self.latencies += [latency for latency, _ in samples]
        for item, outcome in zip(self.w.sets[v], outcomes):
            self.attempted += 1
            item.attempts += 1
            problem = outcome.error
            if problem is None and item.reference is None:
                item.reference = outcome.output
            elif problem is None and outcome.output != item.reference:
                problem = "report bytes differ between passes"
            if problem is not None:
                self.failed += 1
                item.failed_attempts += 1
                self.failures.append(f"{item.name}: {problem}")
        return recorder.summary() if recorder is not None else None

    def check_answers(self) -> tuple[int, int]:
        """Known-answer and witness checks, once per input (first report).
        An input with a wrong answer fails on every pass that ran it."""
        inputs = decided = 0
        for items in self.w.sets:
            for item in items:
                inputs += 1
                if item.reference is None:
                    continue
                try:
                    self.w.check(item, item.reference)
                except Exception as exc:  # noqa: BLE001 - an unreadable report fails
                    item.errors.append(f"check raised {exc!r}")
                decided += item.decided
                if item.errors:
                    self.failed += item.attempts - item.failed_attempts
                    self.failures += [f"{item.name}: {e}" for e in item.errors]
        return decided, inputs

    def _per_input(self, mode: str) -> list[list[tuple[float, float]]]:
        per_input = [s for items in self.samples[mode] for s in items]
        # a batch call's samples are shared by every input of its set
        return per_input[::len(self.w.sets[0])] if self.w.batched else per_input

    def pass_seconds(self, mode: str) -> float:
        """Time of one pass over every input set, in seconds at the reference
        speed: the sum over inputs of each input's median cost (see :mod:`speed`)."""
        return sum(speed.reference_seconds(s) for s in self._per_input(mode))

    def pass_wall_seconds(self) -> float:
        """Sum over inputs of each input's median wall latency (logged only)."""
        return sum(statistics.median(t for t, _ in s) for s in self._per_input("plain"))


def per_layer(summaries: list[list[dict]], ratio: float) -> dict[str, float]:
    """Per-layer values for one pass over all sets: per set, the median over
    its traced passes, summed over sets."""
    import layers

    per_set = []
    for passes in summaries:
        values = [layers.metrics(s) for s in passes]
        per_set.append({k: statistics.median(v[k] for v in values) for k in values[0]})
    out = {k: sum(s[k] for s in per_set) for k in per_set[0]}
    analyses = out["report.analyze.calls"]
    out["poisson.germinal_isotropy.calls_per_chart"] = (
        out["poisson.germinal_isotropy.calls"] / analyses if analyses else 0.0)
    out["trace_overhead_ratio"] = ratio
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    poiskit = import_program(root)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    setup_s = None
    if not args.trace:
        setup_s, starts = measure_setup(root)
        log(f"setup: {SETUP_STARTS} interpreter starts, {setup_s:.4f}s at reference speed "
            f"(wall median {statistics.median(starts):.4f}s, min {min(starts):.4f}s, "
            f"max {max(starts):.4f}s)")

    if workloads.WORKLOADS[args.workload].one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    header = run_header(poiskit, args)
    log("header " + json.dumps(header, sort_keys=True))
    workdir = os.path.join(root, WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(workload)
        workload.warm_up()
        nsets = len(workload.sets)
        recorder = None
        summaries: list[list[dict]] = [[] for _ in range(nsets)]
        if args.trace:
            import layers
            import tracer

            recorder = tracer.Recorder()
        start = time.perf_counter()
        i = 0
        # each set runs at least twice (plain and traced, or plain twice)
        while i < 2 * nsets or time.perf_counter() - start < args.seconds:
            v = i % nsets
            traced = args.trace and (i // nsets) % 2 == 1
            summary = runner.one(v, "traced" if traced else "plain", recorder if traced else None)
            if summary is not None:
                summaries[v].append(summary)
            i += 1
        measured = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if recorder is not None and recorder.missing:
            log(f"trace: targets not found: {recorder.missing}")

        decided, inputs = runner.check_answers()
        pass_s = runner.pass_seconds("plain")
        log(f"passes: {i} over {nsets} set(s) in {measured:.2f}s; pass over all sets "
            f"{pass_s:.4f}s at reference speed ({runner.pass_wall_seconds():.4f}s wall)")
        p_tail, tail = tail_latency(runner.latencies)
        log(f"input latency (wall): {len(runner.latencies)} samples, p50 "
            f"{statistics.median(runner.latencies):.4f}s, p{p_tail:.1f} {tail:.4f}s")
        log(f"answers: {decided}/{inputs} inputs decided; failed {runner.failed}/"
            f"{runner.attempted} = {runner.failed / max(1, runner.attempted):.4f}")
        for line in runner.failures[:20]:
            log("  FAILED " + line)

        if args.trace:
            ratio = runner.pass_seconds("traced") / pass_s
            metrics = per_layer(summaries, ratio)
            recorder.save(os.path.join(root, WORK_ROOT, f"spans-{args.workload}.npz"), header)
            out = {k: {"value": v, "unit": layers.UNITS[k]} for k, v in sorted(metrics.items())}
        else:
            out = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "pass_s": {"value": pass_s, "unit": "s"},
                "decided_ratio": {"value": decided / inputs, "unit": "ratio"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": out}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
