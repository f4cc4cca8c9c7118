"""Exact rational coefficient type.

``QQ`` is ``fractions.Fraction``. :func:`to_qq` converts inputs from outside
the program, including any rational with ``numerator`` and ``denominator``.
"""

from __future__ import annotations

from fractions import Fraction

QQ = Fraction

QQ_ZERO = QQ(0)


def to_qq(value) -> "QQ":
    """Coerce ints, strings like ``3/4`` and rationals to ``QQ``."""
    if type(value) is QQ:
        return value          # immutable, so no copy is needed
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a rational or a string")
    if hasattr(value, "numerator") and not isinstance(value, (int, str)):
        return QQ(value.numerator, value.denominator)
    return QQ(value)

