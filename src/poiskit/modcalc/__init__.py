"""Commutative algebra over the polynomial ring: Groebner bases for ideals
and submodules, syzygies, colon and saturation, membership with
certificates, rank stratification, and emptiness certificates.

``SubmodulePresentation`` holds a submodule of ``R^rank`` by generators and
answers membership (``contains``) from one Groebner engine built on first
use. ``syzygies`` is the one kernel computation: ``colon_by_ideal`` is the
syzygy module of one block matrix, and ``saturate`` iterates that colon."""

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
