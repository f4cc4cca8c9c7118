"""Exact term kernel: the term-map arithmetic and its rational type.

``termops`` is the pure-Python term arithmetic and ``QQ`` is
``fractions.Fraction``; ``BACKEND`` names the kernel for benchmark headers.
An exact coefficient is an ``int`` when integral and a ``QQ`` otherwise
(``to_qq`` gives that form). Divide coefficients with ``qq_div`` or
``QQ(1) / c``: ``1 / c`` on an ``int`` coefficient is a float.
"""

from __future__ import annotations

from . import _termops_py as termops
from .rational import QQ, is_inexact, qq_div, to_qq

BACKEND = termops.BACKEND

__all__ = ["QQ", "BACKEND", "is_inexact", "qq_div", "termops", "to_qq"]
