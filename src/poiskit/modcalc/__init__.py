"""Commutative algebra over the polynomial ring: Groebner bases for ideals
and submodules, syzygies, colon and saturation, membership with
certificates, rank stratification, and emptiness certificates.

``SubmodulePresentation`` holds a submodule of ``R^rank`` by generators.
A reduced basis is known at birth, or ``groebner_basis`` computes it on
first use by one ``buchberger`` run on the bare generators, with no syzygy
tags; it is never read off the tagged engine. Born with it are ``full``,
whose unit vectors are that basis, the result of ``syzygies``, the syzygy
part of the engine's reduced augmented basis, and the Poisson kernel module
of Casimir differentials. Membership has two paths.
``is_member`` answers yes or no by the normal form on the untagged reduced
basis; every caller that reads no cofactor uses it. ``contains`` builds
the tagged engine, whose unit tags carry the certificates, once on its
first call, and is the only path that returns one. ``syzygies`` is the one
kernel computation:
``colon_by_ideal`` is the syzygy module of one block matrix, ``saturate``
iterates that colon, and ``polynomial_gcd`` first tries to certify gcd 1 by
univariate gcds at rational specialisations, and otherwise reads the gcd of
each pair off the syzygies of ``[a, b]``.
The Poisson layer builds the kernel module of ``pi`` as the
``groebner_basis`` of the presentation its Casimir differentials generate,
and calls ``syzygies`` on ``pi``'s matrix only when that route does not
apply (see ``poisson.germinal_isotropy``). Every Groebner basis comes from
the ``engine`` module's ``buchberger``, tagged (``ModuleEngine``) only where
a certificate or a syzygy is read; the ``engine`` module is internal to this
package, and no module outside it imports it. One expansion,
``rank.minor``, gives every minor, cofactor and determinant: the minor
ideals of ``RankProfile``, ``rank.determinant``, and the cofactors of the
cosymplectic reduction. ``variety_emptiness`` answers
an ideal with a nonzero constant generator without any basis.

Two facts a caller may have proved cut the work short. ``saturate`` takes a
``target``: a saturated module that contains the input, hence every colon.
It tests ``target ⊆ M : I^k`` as ``I·target ⊆ M : I^(k-1)``, by normal forms
on a basis it already has, and computes the colon ``M : I^k`` only when that
fails; the colon's stabilization test then decides one step back. So a
target reached at ``k <= 1`` costs no colon, and the exponent is the one the
iterated colon gives. ``rank_profile`` finds a generic rank by probe points
and minors; a caller that knows the rank builds ``RankProfile(rows,
variables, r)`` itself, and one nonzero ``r``-minor then confirms it. The
Poisson constant-rank decision has both from ``sharp(g) = 0`` on every
kernel generator ``g``: the image module lies in the annihilator of the
kernel module, which is saturated, and the kernel matrix has generic rank at
most ``n - 2k``, so exactly ``n - 2k`` once an ``(n - 2k)``-minor is
nonzero."""

from .verdict import Verdict
from .presentation import (
    SaturationResult,
    SubmodulePresentation,
    colon_by_ideal,
    polynomial_gcd,
    saturate,
    syzygies,
)
from .rank import RankProfile, rank_profile
from .variety import variety_emptiness
from . import linalg

__all__ = [
    "Verdict",
    "SubmodulePresentation",
    "SaturationResult",
    "syzygies",
    "saturate",
    "colon_by_ideal",
    "polynomial_gcd",
    "RankProfile",
    "rank_profile",
    "variety_emptiness",
    "linalg",
]
