"""Pure-Python term-map arithmetic.

A polynomial is a dict mapping exponent tuples to nonzero rational
coefficients. A free-module element in ``modcalc.engine`` maps flat integer
keys ``(-position, degree, -e[n-1], ..., -e[0])``; adding two such keys
componentwise multiplies by a monomial just as adding exponent tuples does,
so ``t_axpy`` serves both. These functions are the hot loop of Groebner
reduction. None of them mutates its inputs.
"""

from __future__ import annotations

BACKEND = "python"


def t_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k)
        if s is None:
            out[k] = c
        else:
            s = s + c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def t_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k)
        if s is None:
            out[k] = -c
        else:
            s = s - c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def t_neg(a: dict) -> dict:
    return {k: -c for k, c in a.items()}


def t_scale(a: dict, c) -> dict:
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


def t_mul(a: dict, b: dict) -> dict:
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            s = out.get(k)
            if s is None:
                out[k] = ca * cb
            else:
                s = s + ca * cb
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


def t_axpy(a: dict, c, e: tuple, b: dict) -> dict:
    """a + c * x^e * b, the single-reduction step of polynomial division."""
    out = dict(a)
    for kb, cb in b.items():
        k = tuple(x + y for x, y in zip(e, kb))
        s = out.get(k)
        if s is None:
            out[k] = c * cb
        else:
            s = s + c * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def t_diff(a: dict, i: int) -> dict:
    out: dict = {}
    for k, c in a.items():
        n = k[i]
        if n:
            e = list(k)
            e[i] = n - 1
            out[tuple(e)] = c * n
    return out


def t_eval(a: dict, point: tuple):
    """Evaluate at a point; exact for rational coordinates."""
    total = None
    for k, c in a.items():
        term = c
        for e, x in zip(k, point):
            if e:
                term = term * x**e
        total = term if total is None else total + term
    return 0 if total is None else total
