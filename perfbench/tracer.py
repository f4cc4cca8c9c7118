"""Span recorder that wraps poiskit's public functions from outside.

``install()`` replaces each traced callable by a wrapper that records one
span per call: name, start, end, parent span and thread. Module-level
functions are rebound in every loaded ``poiskit`` module that holds a
reference to them, so ``from .poisson import germinal_isotropy`` bindings are
traced too; methods are replaced on their class; the term kernel is wrapped
on the shared ``termops`` module object. ``uninstall()`` restores every
binding.

Spans live in per-thread arrays (no lock on the hot path). A span's self
time is its duration minus the union of its children: children on the same
thread run one after another, so their durations are summed as they close;
children on other threads (the CLI's thread pool) are kept as intervals and
merged at the end. A span opened on a thread with no open span of its own
takes the innermost open span of the installing thread as its parent.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

# span name -> (module, attribute path); "Class.method" paths patch the class
TARGETS = {
    "kernel.t_mul": ("poiskit._kernel", "termops.t_mul"),
    "kernel.t_axpy": ("poiskit._kernel", "termops.t_axpy"),
    "kernel.v_axpy": ("poiskit._kernel", "termops.v_axpy"),
    "kernel.t_eval": ("poiskit._kernel", "termops.t_eval"),
    "polyalg.schouten_bracket": ("poiskit.polyalg.multivector", "schouten_bracket"),
    "polyalg.wedge": ("poiskit.polyalg.multivector", "wedge"),
    "polyalg.poly_gcd": ("poiskit.polyalg.polynomial", "poly_gcd"),
    "polyalg.poly_gcd_all": ("poiskit.polyalg.polynomial", "poly_gcd_all"),
    "polyalg.Polynomial.eval": ("poiskit.polyalg.polynomial", "Polynomial.eval"),
    "modcalc.buchberger": ("poiskit.modcalc.engine", "buchberger"),
    "modcalc.ModuleEngine": ("poiskit.modcalc.engine", "ModuleEngine.__init__"),
    "modcalc.saturate": ("poiskit.modcalc.presentation", "saturate"),
    "modcalc.syzygies": ("poiskit.modcalc.presentation", "syzygies"),
    "modcalc.SubmodulePresentation.contains":
        ("poiskit.modcalc.presentation", "SubmodulePresentation.contains"),
    "modcalc.rank_profile": ("poiskit.modcalc.rank", "rank_profile"),
    "modcalc.variety_emptiness": ("poiskit.modcalc.variety", "variety_emptiness"),
    "modcalc.linalg.sparse_nullspace": ("poiskit.modcalc.linalg", "sparse_nullspace"),
    "poisson.germinal_isotropy": ("poiskit.poisson", "germinal_isotropy"),
    "poisson.casimir_search": ("poiskit.poisson", "casimir_search"),
    "poisson.check_jacobi": ("poiskit.poisson", "check_jacobi"),
    "poisson.almost_regular_decide": ("poiskit.poisson", "almost_regular_decide"),
    "poisson.verify_distribution": ("poiskit.poisson", "verify_distribution"),
    "poisson.linear_poisson": ("poiskit.poisson", "linear_poisson"),
    "construct.logf_classify": ("poiskit.construct", "logf_classify"),
    "report.analyze": ("poiskit.report", "analyze"),
    "report.parse_input": ("poiskit.report", "parse_input"),
    "report.render": ("poiskit.report", "AnalysisReport.to_text"),
    "report.render.json": ("poiskit.report", "AnalysisReport.to_json"),
    "cli.main": ("poiskit.cli", "main"),
    "trace.trace_leaf": ("poiskit.trace", "trace_leaf"),
    "groupoid.MonodromyProblem": ("poiskit.groupoid", "MonodromyProblem.__init__"),
    "groupoid.monodromy_period": ("poiskit.groupoid", "monodromy_period"),
    "groupoid.curvature_matrix": ("poiskit.groupoid", "MonodromyProblem.curvature_matrix"),
    "groupoid.pair_morphism_check": ("poiskit.groupoid", "pair_morphism_check"),
}

# spans reported under another name (to_text and to_json are both rendering)
ALIASES = {"report.render.json": "report.render"}

# bindings that must point at a wrapper once installed
REQUIRED_BINDINGS = [
    ("poiskit.poisson", n) for n in ("variety_emptiness", "saturate", "syzygies", "rank_profile")
] + [
    ("poiskit.construct", n) for n in ("variety_emptiness", "almost_regular_decide", "poly_gcd_all")
] + [
    ("poiskit.report", n) for n in ("almost_regular_decide", "casimir_search", "check_jacobi",
                                    "germinal_isotropy", "linear_poisson", "verify_distribution",
                                    "logf_classify")
] + [("poiskit.cli", "analyze"), ("poiskit.groupoid", "germinal_isotropy"),
     ("poiskit.modcalc.engine", "buchberger")]


def _emptiness_level(verdict) -> str:
    if verdict.is_yes:
        cert = verdict.certificate or {}
        return "positivity" if cert.get("level") == "positivity" else "complex_empty"
    return "witness" if verdict.is_no else "inconclusive"


def _count_buchberger(counters, args, result):
    counters["gens_in"] += sum(1 for g in args[0] if g)
    counters["basis_out"] += len(result)


# span name -> hook(counters, args, result) run after a successful call
HOOKS = {
    "kernel.v_axpy": lambda c, a, r: c.__setitem__("terms_out", c["terms_out"] + len(r)),
    "modcalc.buchberger": _count_buchberger,
    "modcalc.ModuleEngine": lambda c, a, r: c.__setitem__(
        "syzygies_out", c["syzygies_out"] + len(a[0]._syz)),
    "modcalc.saturate": lambda c, a, r: c.__setitem__(
        "exponent_sum", c["exponent_sum"] + r.exponent),
    "modcalc.SubmodulePresentation.contains": lambda c, a, r: c.__setitem__(
        "yes", c["yes"] + r.is_yes),
    "modcalc.variety_emptiness": lambda c, a, r: c.__setitem__(
        _emptiness_level(r), c[_emptiness_level(r)] + 1),
    "trace.trace_leaf": lambda c, a, r: c.__setitem__("steps", c["steps"] + r.steps),
}

# arguments that may be one-shot iterators and are counted by a hook
_MATERIALIZE_FIRST = {"modcalc.buchberger"}


class _Buffer:
    """Spans of one thread, in open order."""

    def __init__(self, number: int, thread_name: str):
        self.number = number
        self.thread_name = thread_name
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")      # summed durations of same-thread children
        self.name = array("i")
        self.parent_buf = array("i")
        self.parent_idx = array("i")
        self.stack: list[int] = []
        self.counters: dict[int, dict] = defaultdict(lambda: defaultdict(int))


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self.buffers: list[_Buffer] = []
        self.cross: list[tuple[int, int, float, float]] = []   # parent buf, idx, start, end
        self._home: _Buffer | None = None
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording --------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self.buffers), threading.current_thread().name)
                self.buffers.append(buf)
            self._local.buf = buf
        return buf

    def reset(self) -> None:
        self.buffers = []
        self.cross = []
        self._local = threading.local()
        self._home = self._buffer()

    def _wrap(self, name: str, fn):
        nid = self._id(ALIASES.get(name, name))
        hook = HOOKS.get(name)
        materialize = name in _MATERIALIZE_FIRST
        clock = time.perf_counter
        rec = self

        def wrapper(*args, **kwargs):
            buf = getattr(rec._local, "buf", None) or rec._buffer()
            if materialize:
                args = (list(args[0]),) + args[1:]
            idx = len(buf.start)
            stack = buf.stack
            if stack:
                pbuf, pidx = buf.number, stack[-1]
            else:
                home = rec._home
                pbuf, pidx = ((home.number, home.stack[-1])
                              if home is not None and home is not buf and home.stack else (-1, -1))
            buf.name.append(nid)
            buf.parent_buf.append(pbuf)
            buf.parent_idx.append(pidx)
            buf.child.append(0.0)
            buf.end.append(0.0)
            stack.append(idx)
            start = clock()
            buf.start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                buf.end[idx] = end
                stack.pop()
                if stack:
                    buf.child[stack[-1]] += end - start
                elif pbuf >= 0:
                    with rec._lock:
                        rec.cross.append((pbuf, pidx, start, end))
            if hook is not None:
                hook(buf.counters[nid], args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        self.reset()
        self.missing = []
        loaded = [m for k, m in list(sys.modules.items())
                  if m is not None and (k == "poiskit" or k.startswith("poiskit."))]
        for name, (modname, path) in TARGETS.items():
            owner = importlib.import_module(modname)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            self._patch(owner, attr, wrapper)
            if not parents:
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        unbound = [f"{m}.{n}" for m, n in REQUIRED_BINDINGS
                   if hasattr(sys.modules.get(m), n)
                   and not hasattr(getattr(sys.modules[m], n), "__wrapped__")]
        if unbound:
            self.uninstall()
            raise RuntimeError(f"traced bindings not wrapped: {unbound}")

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays (thread = buffer number)."""
        cols = {"start": "d", "end": "d", "child": "d", "name": "i",
                "parent_buf": "i", "parent_idx": "i"}
        out = {k: np.concatenate([np.frombuffer(getattr(b, k), dtype=t) for b in self.buffers])
               for k, t in cols.items()}
        out["thread"] = np.concatenate([np.full(len(b.start), b.number, dtype=np.int32)
                                        for b in self.buffers])
        out["index"] = np.concatenate([np.arange(len(b.start), dtype=np.int64)
                                       for b in self.buffers])
        return out

    def self_times(self, spans: dict[str, np.ndarray]) -> np.ndarray:
        """Duration minus the union of child intervals, per span."""
        duration = spans["end"] - spans["start"]
        own = duration - spans["child"]
        if not self.cross:
            return own
        offsets = np.cumsum([0] + [len(b.start) for b in self.buffers])
        by_parent: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
        for pbuf, pidx, s, e in self.cross:
            by_parent[(pbuf, pidx)].append((s, e))
        for (pbuf, pidx), intervals in by_parent.items():
            flat = offsets[pbuf] + pidx
            buf = self.buffers[pbuf]
            same = np.nonzero((spans["parent_buf"] == pbuf) & (spans["parent_idx"] == pidx)
                              & (spans["thread"] == pbuf))[0]
            intervals = intervals + [(spans["start"][i], spans["end"][i]) for i in same]
            covered, cur_s, cur_e = 0.0, None, None
            for s, e in sorted(intervals):
                if cur_e is None or s > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = s, e
                else:
                    cur_e = max(cur_e, e)
            if cur_e is not None:
                covered += cur_e - cur_s
            own[flat] = (buf.end[pidx] - buf.start[pidx]) - covered
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s and the hooks' counters."""
        spans = self.arrays()
        own = self.self_times(spans)
        duration = spans["end"] - spans["start"]
        out: dict[str, dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            mask = spans["name"] == nid
            stats = {"calls": int(mask.sum()),
                     "self_s": float(own[mask].sum()),
                     "total_s": float(duration[mask].sum())}
            for buf in self.buffers:
                for key, value in buf.counters.get(nid, {}).items():
                    stats[key] = stats.get(key, 0) + value
            out[name] = stats
        return out

    def save(self, path: str, header: dict) -> None:
        """Write the spans of the last traced pass (names, arrays, header)."""
        spans = self.arrays()
        spans["self"] = self.self_times(spans)
        np.savez_compressed(path, names=np.array(self.names), header=np.array(repr(header)),
                            **spans)
