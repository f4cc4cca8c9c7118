"""Emptiness certificates for polynomial zero sets.

Real emptiness is deliberately incomplete. Two cheap checks come first,
before any Groebner basis. An ideal with a nonzero constant generator holds
a unit, so its reduced basis is {1}: it is complex-empty at once, with the
certificate that basis would give. Otherwise the origin is tried: a common
zero there is returned at once as a rational witness (every homogeneous
ideal of positive degree, such as the minor ideal of a linear structure,
vanishes there). Then level (a) is complex emptiness (the reduced basis,
computed without syzygy tags, is {1}), level (b) a syntactic positivity
certificate (sum of even-exponent terms with positive coefficients plus a
positive constant), and otherwise an exact witness search over a
deterministic integer grid followed by seeded random rational points in
[-3, 3]^n. Anything unresolved is reported inconclusive with the ideal
attached, never guessed. ``samples`` (the CLI's ``--samples``) sets how many
random points are tried. Generators on different charts are a
``ChartMismatchError``.

Trying the origin first cannot turn a ``yes`` into a ``no``: a basis {1} or
a positive polynomial in the ideal leaves no real zero. The grid yields the
origin first, so wherever the grid runs the same witness comes out; beyond
its reach (5^n > 20000) a zero at the origin no longer waits on the random
samples.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from .._kernel import QQ
from ..polyalg.polynomial import ChartMismatchError, Polynomial
from .presentation import SubmodulePresentation
from .verdict import Verdict

_GRID_RANGE = (0, 1, -1, 2, -2)
_GRID_LIMIT = 20000


def _complex_empty() -> Verdict:
    return Verdict.yes(certificate={"level": "complex-empty", "basis": ["1"]})


def _is_unit_basis(basis: list[tuple[Polynomial, ...]]) -> bool:
    return len(basis) == 1 and basis[0][0].is_constant() and not basis[0][0].is_zero


def _positivity_certificate(p: Polynomial) -> bool:
    """True when p (or -p) is a positive constant plus even-power terms with
    positive coefficients, hence has no real zeros."""
    for sign in (1, -1):
        const = sign * p.constant_term()
        if const <= 0:
            continue
        ok = True
        for expo, coeff in p.terms.items():
            if not any(expo):
                continue
            if any(e % 2 for e in expo) or sign * coeff <= 0:
                ok = False
                break
        if ok:
            return True
    return False


def _vanishes_at(gens: Sequence[Polynomial], point) -> bool:
    return all(not g.eval(point) for g in gens)


def variety_emptiness(ideal_gens: Sequence[Polynomial], seed: int = 0,
                      samples: int = 10000) -> Verdict:
    """Decide emptiness of the real zero set of an ideal."""
    gens = [g for g in ideal_gens if not g.is_zero]
    if not gens:
        # the zero ideal: the whole space, nonempty (witness: origin)
        some = ideal_gens[0] if ideal_gens else None
        nvars = len(some.variables) if some is not None else 0
        return Verdict.no(witness={"point": [QQ(0)] * nvars, "kind": "rational"})
    variables = gens[0].variables
    if any(g.variables != variables for g in gens):
        raise ChartMismatchError("ideal generators on different charts")
    if any(g.is_constant() for g in gens):
        return _complex_empty()
    nvars = len(variables)
    origin = [QQ(0)] * nvars
    if _vanishes_at(gens, origin):
        return Verdict.no(witness={"point": origin, "kind": "rational"})
    ideal = SubmodulePresentation.ideal(variables, gens)
    basis = ideal.groebner_basis()
    if _is_unit_basis(basis):
        return _complex_empty()

    for p in list(gens) + [b[0] for b in basis]:
        if _positivity_certificate(p):
            return Verdict.yes(certificate={"level": "positivity", "polynomial": str(p)})

    # exact witness search: small integer grid, then random rationals
    if len(_GRID_RANGE) ** nvars <= _GRID_LIMIT:
        for pt in itertools.product(_GRID_RANGE, repeat=nvars):
            point = [QQ(c) for c in pt]
            if _vanishes_at(gens, point):
                return Verdict.no(witness={"point": point, "kind": "rational"})
    rng = random.Random(seed)
    for _ in range(samples):
        point = [QQ(rng.randint(-300, 300), 100) for _ in range(nvars)]
        if _vanishes_at(gens, point):
            return Verdict.no(witness={"point": point, "kind": "rational"})
    return Verdict.inconclusive(
        "no emptiness certificate and no rational witness found",
        ideal=[str(g) for g in gens],
        basis=[str(b[0]) for b in basis],
        searched={"grid": len(_GRID_RANGE) ** nvars <= _GRID_LIMIT, "samples": samples, "seed": seed},
    )
