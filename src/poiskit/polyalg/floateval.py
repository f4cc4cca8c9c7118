"""Float evaluation of a fixed list of polynomials, compiled once.

``Polynomial.eval`` is the exact evaluator: it walks the term map and
multiplies rational coefficients one term at a time.  Numeric callers (the
leaf tracer, the curvature quadrature) evaluate the same few polynomials at
thousands of float points, so they compile the list once: the union of the
exponent vectors becomes a ``(k, n)`` matrix and the coefficients a float
``(m, k)`` matrix, and a point costs one power, one product and one
matrix-vector product in numpy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .polynomial import ChartMismatchError, Polynomial


class FloatEvaluator:
    """Evaluates ``m`` polynomials on an ``n``-coordinate chart at float
    points: a point ``(n,)`` gives ``(m,)``, a stack ``(P, n)`` gives
    ``(P, m)``.  Values agree with ``float(p.eval(x))`` up to rounding."""

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
                self.coefficients[r, column[expo]] = float(c)

    def rows(self, start: int, stop: int) -> "FloatEvaluator":
        """Evaluator of the polynomials ``start:stop`` alone, keeping only
        the monomials they use."""
        sub = object.__new__(FloatEvaluator)
        coefficients = self.coefficients[start:stop]
        used = np.any(coefficients != 0.0, axis=0)
        sub.variables = self.variables
        sub.exponents = self.exponents[used]
        sub.coefficients = np.ascontiguousarray(coefficients[:, used])
        return sub

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != len(self.variables):
            raise ValueError(f"expected points of dimension {len(self.variables)}, "
                             f"got an array of shape {x.shape}")
        if x.ndim == 1:
            return self.coefficients @ np.multiply.reduce(x ** self.exponents, axis=1)
        return np.multiply.reduce(x[:, None, :] ** self.exponents, axis=2) @ self.coefficients.T
