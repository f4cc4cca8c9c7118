"""Commutative algebra over the polynomial ring: Groebner bases for ideals
and submodules, syzygies, colon and saturation, membership with
certificates, rank stratification, and emptiness certificates.

``SubmodulePresentation`` holds a submodule of ``R^rank`` by generators and
answers membership (``contains``) from one Groebner engine built on first
use. ``syzygies`` is the one kernel computation: ``colon_by_ideal`` is the
syzygy module of one block matrix, and ``saturate`` iterates that colon.

Two bounds a caller may have proved cut the work short. ``saturate`` takes a
``target``: a saturated module that contains the input, hence every colon.
It stops at the first step whose colon contains the target, with the same
exponent the stabilization test would give, and without the colon that
would confirm it. ``rank_profile`` takes ``upper``, a bound on the generic
rank: a nonzero ``upper``-minor then fixes the rank, and the
``(upper+1)``-minors are not listed. The Poisson constant-rank decision has
both from ``sharp(g) = 0`` on every kernel generator ``g``: the image module
lies in the annihilator of the kernel module, which is saturated, and the
kernel matrix has generic rank at most ``n - 2k``."""

from .verdict import Verdict
from .presentation import (
    SaturationResult,
    SubmodulePresentation,
    colon_by_ideal,
    saturate,
    syzygies,
)
from .rank import RankProfile, rank_profile
from .variety import COMPLEX, REAL, variety_emptiness
from . import linalg

__all__ = [
    "Verdict",
    "SubmodulePresentation",
    "SaturationResult",
    "syzygies",
    "saturate",
    "colon_by_ideal",
    "RankProfile",
    "rank_profile",
    "variety_emptiness",
    "REAL",
    "COMPLEX",
    "linalg",
]
