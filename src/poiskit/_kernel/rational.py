"""Exact rational coefficient type.

``QQ`` is ``gmpy2.mpq`` when available (hash-compatible with
``fractions.Fraction`` and much faster), otherwise ``fractions.Fraction``.
Set ``POISKIT_RATIONAL=fraction`` to force the stdlib type.
"""

from __future__ import annotations

import os
from fractions import Fraction

if os.environ.get("POISKIT_RATIONAL", "").lower() == "fraction":
    QQ = Fraction
else:
    try:
        from gmpy2 import mpq as QQ  # type: ignore[no-redef]
    except ImportError:
        QQ = Fraction  # type: ignore[misc]

QQ_ZERO = QQ(0)
QQ_ONE = QQ(1)


def to_qq(value) -> "QQ":
    """Coerce ints, strings like ``3/4``, Fractions and mpqs to ``QQ``."""
    if type(value) is QQ:
        return value          # immutable, so no copy is needed
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a rational or a string")
    if hasattr(value, "numerator") and not isinstance(value, (int, str)):
        return QQ(value.numerator, value.denominator)
    return QQ(value)


def qq_str(value) -> str:
    """Canonical string form, re-parseable by the polynomial parser."""
    return str(value)
