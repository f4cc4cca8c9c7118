"""Numeric probe of the leaves: RK4 flow along Hamiltonian vector fields.

The tracer cycles through the Hamiltonian fields of the supplied functions
(coordinate functions by default), emitting the visited points, a local
leaf-dimension estimate (numeric rank of the field values along the trace),
and the drift of any supplied conserved quantities.

The Hamiltonian fields are compiled once into one ``FloatEvaluator``. From its
exponent and coefficient matrices, ``compile_rk4_step`` generates one Python
function per field that runs a whole RK4 step on scalar floats, so a step
makes no numpy call. The source names the coordinates by position (``x0``,
``x1``, ...), never by the chart's names, and holds only float literals and
integer exponents. The rank probe evaluates all fields in one stacked
``FloatEvaluator`` call, and the invariants are evaluated at the sampled
points in one stacked call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .polyalg import DifferentialForm, FloatEvaluator, Polynomial
from .poisson import PoissonStructure

__all__ = ["TraceResult", "compile_rk4_step", "trace_leaf", "trace_to_csv"]

NORM_GUARD = 1e8
# singular values below RANK_TOL times the largest field value (at least 1)
# count as zero in the dimension estimate
RANK_TOL = 1e-8


class TraceBlowupError(RuntimeError):
    """Trajectory norm exceeded the guard."""


@dataclass
class TraceResult:
    points: np.ndarray                  # (steps + 1, n)
    dimension_estimate: int
    conserved_drift: dict[str, float]   # relative drift per supplied invariant
    steps: int
    dt: float
    hamiltonian_labels: list[str]


def compile_rk4_step(exponents: np.ndarray,
                     coefficients: np.ndarray) -> Callable[[Sequence[float], float], tuple]:
    """One classical RK4 step of ``x' = coefficients @ prod(x ** exponents)``
    as a generated straight-line function ``step(x, dt) -> tuple``.

    ``exponents`` is ``(k, n)`` and ``coefficients`` ``(n, k)``, the layout of
    ``FloatEvaluator``. Each stage computes the used monomials once, then each
    component as ``0.0 + c*m + ...`` in column order, and the update is
    ``x + dt/6*(k1 + 2k2 + 2k3 + k4)``: the operation order of the stacked
    numpy step. Zero coefficients and zero exponents are left out. A power
    that overflows raises ``OverflowError``; a product that overflows gives
    ``inf`` or ``nan``."""
    n = coefficients.shape[0]
    used = [j for j in range(coefficients.shape[1]) if np.any(coefficients[:, j] != 0.0)]
    lines = ["def step(x, dt):",
             "    h = 0.5 * dt",
             "    d6 = dt / 6.0",
             "    (" + "".join(f"x{i}, " for i in range(n)) + ") = x"]
    inputs = [f"x{i}" for i in range(n)]
    for stage in range(1, 5):
        for j in used:
            factors = [inputs[i] if e == 1 else f"{inputs[i]}**{e}"
                       for i, e in enumerate(int(e) for e in exponents[j]) if e]
            lines.append(f"    m{j} = {'*'.join(factors) or '1.0'}")
        for i in range(n):
            terms = "".join(f" + {float(coefficients[i, j])!r}*m{j}"
                            for j in used if coefficients[i, j] != 0.0)
            lines.append(f"    k{stage}_{i} = 0.0{terms}")
        if stage < 4:
            scale = "dt" if stage == 3 else "h"
            lines += [f"    y{i} = x{i} + {scale}*k{stage}_{i}" for i in range(n)]
            inputs = [f"y{i}" for i in range(n)]
    lines.append("    return (" + "".join(
        f"x{i} + d6*(k1_{i} + 2.0*k2_{i} + 2.0*k3_{i} + k4_{i}), " for i in range(n)) + ")")
    namespace: dict = {"__builtins__": {}}
    exec(compile("\n".join(lines), "<rk4 step>", "exec"), namespace)
    return namespace["step"]


def trace_leaf(structure: PoissonStructure, x0: Sequence[float],
               hamiltonians: Sequence[Polynomial] | None = None,
               steps: int = 1000, dt: float = 1e-3,
               invariants: Sequence[Polynomial] | None = None,
               rank_every: int = 97) -> TraceResult:
    """Classical RK4 along the Hamiltonian fields of the given functions.

    Raises ``ValueError`` on arguments that cannot be traced, before the first
    step, and ``TraceBlowupError`` once the trajectory norm is not at most
    ``NORM_GUARD`` (``nan`` included), a power overflows the float range or
    the rank probe meets field values that are not finite."""
    variables = structure.variables
    n = len(variables)
    x = tuple(float(v) for v in x0)
    if len(x) != n:
        raise ValueError("starting point dimension mismatch")
    if not all(math.isfinite(v) for v in x):
        raise ValueError(f"starting point must be finite, got {x}")
    if not math.isfinite(dt):
        raise ValueError(f"step size must be finite, got {dt}")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if rank_every < 1:
        raise ValueError(f"rank_every must be positive, got {rank_every}")
    if hamiltonians is None:
        hamiltonians = [Polynomial.variable(variables, v) for v in variables]
    if not hamiltonians:
        raise ValueError("no Hamiltonian to trace")
    invariants = list(invariants or [])
    invariant_values = FloatEvaluator(variables, invariants)   # rejects other charts
    field_polys = [p for h in hamiltonians
                   for p in structure.sharp(DifferentialForm.d_of(h)).coefficients()]
    all_fields = FloatEvaluator(variables, field_polys)
    fields = [compile_rk4_step(all_fields.exponents, all_fields.coefficients[i * n:(i + 1) * n])
              for i in range(len(hamiltonians))]
    labels = [str(h) for h in hamiltonians]

    points = np.empty((steps + 1, n))
    points[0] = x

    def rank_at(y: tuple) -> int:
        with np.errstate(over="ignore", invalid="ignore"):
            vals = all_fields(y).reshape(len(fields), n)
        if not np.all(np.isfinite(vals)):
            raise TraceBlowupError(f"field values are not finite at {y}")
        if not np.any(vals):
            return 0
        return int(np.linalg.matrix_rank(vals, tol=RANK_TOL * max(1.0, float(np.max(np.abs(vals))))))

    dim = rank_at(x)
    for s in range(steps):
        try:
            x = fields[s % len(fields)](x, dt)
        except OverflowError:
            raise TraceBlowupError(f"trajectory norm exceeded {NORM_GUARD:.0e} at step {s} "
                                   "(float overflow)") from None
        if not math.hypot(*x) <= NORM_GUARD:
            raise TraceBlowupError(f"trajectory norm exceeded {NORM_GUARD:.0e} at step {s}")
        points[s + 1] = x
        if s % rank_every == 0:
            dim = max(dim, rank_at(x))
    dim = max(dim, rank_at(x))

    # row 0 of the sample is the starting point
    values = invariant_values(points[::max(1, steps // 100)])
    drift: dict[str, float] = {}
    for f, column in zip(invariants, values.T):
        start = float(column[0])
        denom = max(abs(start), 1e-30)
        drift[str(f)] = float(np.max(np.abs(column - start))) / denom
    return TraceResult(points=points, dimension_estimate=dim, conserved_drift=drift,
                       steps=steps, dt=dt, hamiltonian_labels=labels)


def trace_to_csv(result: TraceResult, variables: Sequence[str]) -> str:
    lines = ["step," + ",".join(variables)]
    for i, row in enumerate(result.points):
        lines.append(str(i) + "," + ",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"
