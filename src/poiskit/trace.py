"""Numeric probe of the leaves: RK4 flow along Hamiltonian vector fields.

The tracer cycles through the Hamiltonian fields of the supplied functions
(coordinate functions by default), emitting the visited points, a local
leaf-dimension estimate (numeric rank of the field values along the trace),
and the drift of any supplied conserved quantities.

The Hamiltonian fields are compiled once into one ``FloatEvaluator``: each
RK4 stage evaluates the current field's rows, a rank probe evaluates all
fields in one call, and the invariants are evaluated at the sampled points
in one stacked call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .polyalg import DifferentialForm, FloatEvaluator, Polynomial
from .poisson import PoissonStructure

__all__ = ["TraceResult", "trace_leaf", "trace_to_csv"]

NORM_GUARD = 1e8


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


def trace_leaf(structure: PoissonStructure, x0: Sequence[float],
               hamiltonians: Sequence[Polynomial] | None = None,
               steps: int = 1000, dt: float = 1e-3,
               invariants: Sequence[Polynomial] | None = None,
               rank_tol: float = 1e-8, rank_every: int = 97) -> TraceResult:
    """Classical RK4 along the Hamiltonian fields of the given functions."""
    variables = structure.variables
    n = len(variables)
    if len(x0) != n:
        raise ValueError("starting point dimension mismatch")
    if hamiltonians is None:
        hamiltonians = [Polynomial.variable(variables, v) for v in variables]
    field_polys = [p for h in hamiltonians
                   for p in structure.sharp(DifferentialForm.d_of(h)).coefficients()]
    all_fields = FloatEvaluator(variables, field_polys)
    fields = [all_fields.rows(i * n, (i + 1) * n) for i in range(len(hamiltonians))]
    labels = [str(h) for h in hamiltonians]
    invariants = list(invariants or [])

    x = np.array([float(v) for v in x0])
    points = np.empty((steps + 1, n))
    points[0] = x

    def rank_at(y: np.ndarray) -> int:
        vals = all_fields(y).reshape(len(fields), n)
        if not np.any(vals):
            return 0
        return int(np.linalg.matrix_rank(vals, tol=rank_tol * max(1.0, float(np.max(np.abs(vals))))))

    dim = rank_at(x)
    for s in range(steps):
        ev = fields[s % len(fields)]
        k1 = ev(x)
        k2 = ev(x + 0.5 * dt * k1)
        k3 = ev(x + 0.5 * dt * k2)
        k4 = ev(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if float(np.linalg.norm(x)) > NORM_GUARD:
            raise TraceBlowupError(f"trajectory norm exceeded {NORM_GUARD:.0e} at step {s}")
        points[s + 1] = x
        if s % rank_every == 0:
            dim = max(dim, rank_at(x))
    dim = max(dim, rank_at(x))

    # row 0 of the sample is the starting point
    values = FloatEvaluator(variables, invariants)(points[::max(1, steps // 100)])
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
