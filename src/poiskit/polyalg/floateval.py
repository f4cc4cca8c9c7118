"""Float evaluation of a fixed list of polynomials, compiled once.

``Polynomial.eval`` is the exact evaluator: it walks the term map and
multiplies rational coefficients one term at a time.  Numeric callers (the
curvature quadrature, the leaf tracer's rank probe and invariant samples)
evaluate the same few polynomials at many float points, so they compile the
list once: the union of the exponent vectors becomes a ``(k, n)`` matrix and
the coefficients a float ``(m, k)`` matrix, and a point or a stack of points
costs one power, one product and one matrix product in numpy.  That per-call
overhead dominates on a single small point, so the tracer's RK4 steps run on
straight-line functions generated from these two matrices instead
(``poiskit.trace.compile_rk4_step``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .polynomial import ChartMismatchError, Polynomial


class FloatEvaluator:
    """Evaluates ``m`` polynomials on an ``n``-coordinate chart at float
    points: a point ``(n,)`` gives ``(m,)``, a stack ``(P, n)`` gives
    ``(P, m)``.  Values agree with ``float(p.eval(x))`` up to rounding.
    A coefficient outside the float range raises ``ValueError``."""

    __slots__ = ("variables", "exponents", "coefficients")

    def __init__(self, variables: Sequence[str], polys: Sequence[Polynomial]):
        self.variables = tuple(variables)
        n = len(self.variables)
        column: dict[tuple[int, ...], int] = {}
        for p in polys:
            if p.variables != self.variables:
                raise ChartMismatchError(f"chart mismatch: {p.variables} vs {self.variables}")
            for expo in p.terms:
                column.setdefault(expo, len(column))
        self.exponents = np.array(list(column), dtype=float).reshape(len(column), n)
        self.coefficients = np.zeros((len(polys), len(column)))
        for r, p in enumerate(polys):
            for expo, c in p.terms.items():
                try:
                    self.coefficients[r, column[expo]] = float(c)
                except OverflowError:
                    raise ValueError(f"polynomial {r} has a coefficient outside "
                                     "the float range") from None

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != len(self.variables):
            raise ValueError(f"expected points of dimension {len(self.variables)}, "
                             f"got an array of shape {x.shape}")
        if x.ndim == 1:
            return self.coefficients @ np.multiply.reduce(x ** self.exponents, axis=1)
        return np.multiply.reduce(x[:, None, :] ** self.exponents, axis=2) @ self.coefficients.T
