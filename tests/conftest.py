"""Shared builders for the test suite."""

from __future__ import annotations

import pytest

from poiskit.poisson import PoissonStructure


def _refuse_groebner_bases(monkeypatch):
    """Make the tagged engine and the tag-free ``buchberger`` run fail."""
    from poiskit.modcalc import engine

    def refuse(*args, **kwargs):
        raise AssertionError("a Groebner basis was built")

    monkeypatch.setattr(engine.ModuleEngine, "__init__", refuse)
    monkeypatch.setattr(engine, "buchberger", refuse)


def su2_structure() -> PoissonStructure:
    """Linear structure on R^3 with leaves the concentric spheres."""
    return PoissonStructure.from_components(
        ("x", "y", "z"), {(0, 1): "z", (1, 2): "x", (0, 2): "-y"})


def heisenberg_structure() -> PoissonStructure:
    """t * (dx ^ dy) on the chart (x, y, t)."""
    return PoissonStructure.from_components(("x", "y", "t"), {(0, 1): "t"})


def symplectic_r2() -> PoissonStructure:
    return PoissonStructure.from_components(("x", "y"), {(0, 1): "1"})


def zero_constants(n: int):
    return [[[0] * n for _ in range(n)] for _ in range(n)]


def su2_constants():
    c = zero_constants(3)
    c[0][1][2], c[1][0][2] = 1, -1
    c[1][2][0], c[2][1][0] = 1, -1
    c[2][0][1], c[0][2][1] = 1, -1
    return c


def heis3_constants():
    c = zero_constants(3)
    c[0][1][2], c[1][0][2] = 1, -1
    return c


def aff1_plus_r_constants():
    c = zero_constants(3)
    c[0][1][1], c[1][0][1] = 1, -1
    return c


def sl2_constants():
    c = zero_constants(3)
    c[0][1][1], c[1][0][1] = 2, -2
    c[0][2][2], c[2][0][2] = -2, 2
    c[1][2][0], c[2][1][0] = 1, -1
    return c


def gl_constants(n: int):
    """gl(n) in the basis E_ab (index n*a + b):
    [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb."""
    c = zero_constants(n * n)
    for a in range(n):
        for b in range(n):
            for e in range(n):
                c[n * a + b][n * b + e][n * a + e] += 1   # [E_ab, E_be] contains E_ae
                c[n * a + b][n * e + a][n * e + b] -= 1   # [E_ab, E_ea] contains -E_eb
    return c


@pytest.fixture
def su2():
    return su2_structure()


@pytest.fixture
def heis():
    return heisenberg_structure()
