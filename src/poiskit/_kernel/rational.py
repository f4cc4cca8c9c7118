"""Exact rational coefficients: an ``int`` when integral, else a ``QQ``.

``QQ`` is ``fractions.Fraction``. Every exact coefficient follows one rule:
an integral value is a Python ``int`` and any other value is a ``QQ``, so
the common integer coefficients (structure constants, fraction-free kernels,
monic Groebner leads) run on ``int`` arithmetic. :func:`to_qq` returns that
canonical form for inputs from outside the program, including any rational
with ``numerator`` and ``denominator``, and it is where every exact entry
point refuses a float. Sums and products of coefficients
are not put back into canonical form: a ``QQ`` result such as ``1/2 + 1/2``
may stay a ``QQ``, and it compares and hashes equal to the ``int``.

Divide exact coefficients with :func:`qq_div` (or ``QQ(1) / c``), never with
a bare ``/``: ``1 / c`` on an ``int`` coefficient is a float.
"""

from __future__ import annotations

import numbers
from fractions import Fraction

QQ = Fraction


def to_qq(value):
    """Coerce ints, strings like ``3/4`` and rationals to the canonical exact
    form: an ``int`` when integral, else a ``QQ``. A real that is not
    rational (``float``, a numpy float) is a ``TypeError``."""
    if type(value) is QQ:               # immutable, so no copy is needed
        return value if value.denominator != 1 else value.numerator
    if type(value) is int:
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Rational):
        raise TypeError("floats are not exact; pass a rational or a string")
    if hasattr(value, "numerator") and not isinstance(value, (int, str)):
        value = QQ(int(value.numerator), int(value.denominator))
    else:
        value = QQ(value)
    return value if value.denominator != 1 else value.numerator


def qq_div(a, b):
    """``a / b`` for exact coefficients, in canonical form: ``a // b`` when
    both are ints and ``b`` divides ``a``, else the ``QQ`` quotient, an
    ``int`` when integral. A float operand gives a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if not r else QQ(a, b)
    q = a / b
    return q.numerator if type(q) is QQ and q.denominator == 1 else q
