"""Per-layer metrics of the traced run, named ``<layer>.<function>.<stat>``.

Layers are poiskit's modules: ``kernel`` (``_kernel.termops``) ->
``polyalg`` -> ``modcalc`` -> ``poisson`` / ``construct`` -> ``report`` ->
``cli``, with ``trace`` and ``groupoid`` beside them. ``calls`` and
``builds`` count spans, ``self_s`` is time in the function minus time in
traced callees, ``total_s`` is the summed duration of its calls (no traced
function calls itself), and the other stats are counters taken from
arguments and results.

What each should move (end-to-end metric, workload):

- kernel ``t_mul``/``t_axpy``/``v_axpy``/``t_eval``: ``pass_s`` on
  chart-batch and lie-duals; almost nothing on numeric-leaves.
- polyalg ``Polynomial.eval``: ``pass_s`` on numeric-leaves and lie-duals
  (random witness samples); ``poly_gcd``: ``pass_s`` on chart-batch.
- modcalc ``buchberger``/``ModuleEngine``: ``pass_s`` on lie-duals;
  ``saturate``/``syzygies``/``contains``/``rank_profile``/
  ``sparse_nullspace``: ``pass_s`` on chart-batch; ``variety_emptiness``
  outcome counts: ``decided_ratio`` on both analysis workloads.
- poisson ``germinal_isotropy``: ``pass_s`` on lie-duals;
  ``casimir_search``: ``pass_s`` on chart-batch.
- construct ``logf_classify``: ``pass_s`` and ``decided_ratio`` on chart-batch.
- report ``analyze``/``parse_input``/``render`` and cli ``main``: ``pass_s``
  on chart-batch (the CLI thread pool shows as ``cli.main.self_s``).
- trace ``trace_leaf`` and groupoid ``MonodromyProblem``/``monodromy_period``/
  ``curvature_matrix``/``pair_morphism_check``: ``pass_s`` on numeric-leaves.
"""

from __future__ import annotations

# span name -> stats reported as ``<span name>.<stat>``; ``builds`` counts
# constructor calls
STATS = {
    "kernel.t_mul": ("calls", "self_s"),
    "kernel.t_axpy": ("calls", "self_s"),
    "kernel.v_axpy": ("calls", "self_s", "terms_out"),
    "kernel.t_eval": ("calls", "self_s"),
    "polyalg.schouten_bracket": ("calls", "self_s"),
    "polyalg.wedge": ("calls", "self_s"),
    "polyalg.poly_gcd": ("calls", "self_s"),
    "polyalg.Polynomial.eval": ("calls", "self_s"),
    "modcalc.buchberger": ("calls", "self_s", "gens_in", "basis_out"),
    "modcalc.ModuleEngine": ("builds", "self_s", "syzygies_out"),
    "modcalc.saturate": ("calls", "total_s", "exponent_sum"),
    "modcalc.syzygies": ("calls", "total_s"),
    "modcalc.SubmodulePresentation.contains": ("calls", "self_s", "yes"),
    "modcalc.rank_profile": ("calls", "self_s"),
    "modcalc.variety_emptiness": ("calls", "self_s", "complex_empty", "positivity", "witness",
                                  "inconclusive"),
    "modcalc.linalg.sparse_nullspace": ("calls", "self_s"),
    "poisson.germinal_isotropy": ("calls", "self_s"),
    "poisson.casimir_search": ("calls", "self_s"),
    "poisson.check_jacobi": ("calls", "self_s"),
    "poisson.almost_regular_decide": ("calls", "self_s"),
    "poisson.verify_distribution": ("calls", "self_s"),
    "poisson.linear_poisson": ("calls", "self_s"),
    "construct.logf_classify": ("calls", "self_s"),
    "report.analyze": ("calls", "total_s", "self_s"),
    "report.parse_input": ("self_s",),
    "report.render": ("self_s",),
    "cli.main": ("total_s", "self_s"),
    "trace.trace_leaf": ("calls", "total_s", "steps"),
    "groupoid.MonodromyProblem": ("builds", "self_s"),
    "groupoid.monodromy_period": ("total_s",),
    "groupoid.curvature_matrix": ("calls", "self_s"),
    "groupoid.pair_morphism_check": ("self_s",),
}

# derived from the others after summing over input sets
DERIVED = {
    "poisson.germinal_isotropy.calls_per_chart": "calls/chart",
    "trace_overhead_ratio": "ratio",
}

UNITS = {f"{span}.{stat}": ("s" if stat.endswith("_s") else "count")
         for span, stats in STATS.items() for stat in stats} | DERIVED


def metrics(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Metric values of one traced pass from the recorder's summary."""
    return {f"{span}.{stat}": float(summary.get(span, {}).get(
                "calls" if stat == "builds" else stat, 0))
            for span, stats in STATS.items() for stat in stats}
