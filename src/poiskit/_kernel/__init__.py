"""Exact term kernel: the term-map arithmetic and its rational type.

``termops`` is the pure-Python term arithmetic and ``QQ`` is
``fractions.Fraction``; ``BACKEND`` names the kernel for benchmark headers.
"""

from __future__ import annotations

from . import _termops_py as termops
from .rational import QQ, QQ_ZERO, to_qq

BACKEND = termops.BACKEND

__all__ = ["QQ", "QQ_ZERO", "BACKEND", "termops", "to_qq"]
