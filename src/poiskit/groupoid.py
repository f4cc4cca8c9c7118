"""Explicit finite-dimensional groupoid models and monodromy periods.

The model is the action groupoid ``V* x V x R`` over ``V x R`` for a
full-rank constant bivector scaled by a one-variable profile ``f(t)``:
``xi`` acts on ``V x {t}`` by translation by ``f(t) sharp(xi)``.  Each
``t``-slice carries the constant symplectic pairing

    Omega((xi, v), (xi', v')) = <v, xi'> - <v', xi> + f(t) pi(xi, xi').

``sharp`` uses the same transpose convention as the rest of the package
(``sharp(xi) = PI^T xi``), which is what makes the slice target map Poisson
and the target-source map into the fiberwise pair groupoid anti-Poisson.
The model checks these laws in exact arithmetic, so it compiles its data
once: the profile to its terms (``f_at`` returns what ``f.eval`` would,
value and type, without calling it) and ``pi`` to the integer numerator and
denominator of each nonzero entry of each column.  On exact input (``QQ``
or int entries, no float) the structure maps work on integers: ``target``
forms each coordinate of ``v + f(t) sharp(xi)`` as one unreduced fraction
and builds one reduced ``QQ`` from it, and ``composable`` compares a source
with a target by cross-multiplication without building either.  Float and
mixed input keep float arithmetic and the composability tolerance.

The monodromy integrator evaluates the kernel-valued curvature of the
minimal-norm splitting of ``sharp`` over a 2-sphere inside a regular leaf,
with the curvature assembled symbolically on a chart extended by one
variable ``_u`` standing for ``1/<alpha, alpha>`` (a Casimir for the
built-in family, hence leaf-constant).  ``alpha``, the matrix of ``pi`` and
the curvature scalars are compiled once to float evaluators.  The
Gauss-Legendre quadrature works one theta-row of the mesh at a time: the
sphere's callables broadcast over the row's array of phi nodes, every
evaluator takes the row in one numpy call, one SVD per point gives both the
rank guard and numpy's minimal-norm pseudo-inverse, and every per-point
guard is applied to the row in mesh order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._kernel import QQ, qq_div, to_qq
from .polyalg import (
    DifferentialForm,
    FloatEvaluator,
    MultivectorField,
    Polynomial,
)
from .modcalc.linalg import rank, solve
from .modcalc.rank import _det
from .poisson import PoissonStructure, germinal_isotropy, koszul_bracket

__all__ = [
    "GroupoidElement",
    "LinearGroupoidModel",
    "OmegaReport",
    "MorphismReport",
    "omega_form",
    "pair_morphism_check",
    "SphereMap",
    "round_sphere",
    "planar_sphere",
    "MonodromyProblem",
    "PeriodResult",
    "monodromy_period",
    "pairwise_sum",
]

FLOAT_COMPOSABILITY_TOL = 1e-12
_FLOAT_TYPES = (float, np.floating)


def _is_float_entry(x) -> bool:
    return isinstance(x, _FLOAT_TYPES)


def _ratios(entries) -> list[tuple[int, int]] | None:
    """``(numerator, denominator)`` of each exact entry, the denominator
    positive; ``None`` when an entry is a float.  ``QQ`` and int entries are
    read as they are, any other goes through ``to_qq``."""
    out = []
    for x in entries:
        if type(x) is not QQ and type(x) is not int:
            if _is_float_entry(x):
                return None
            x = to_qq(x)
        out.append((x.numerator, x.denominator))
    return out


GroupoidElement = tuple  # (xi, v, t)


class LinearGroupoidModel:
    """Action groupoid of ``(V*, +)`` on ``V x R`` translating by
    ``f(t) sharp(xi)``; ``pi`` must be a full-rank skew rational matrix.

    The profile is compiled once to its ``(exponent, coefficient)`` terms and
    ``pi`` to the nonzero entries of each column, as floats and as integer
    numerator and denominator.  Exact input (no float entry) is computed on
    integer numerators and denominators, with one ``QQ`` per output
    coordinate; float and mixed input keep the float path and the
    composability tolerance.

    The package's exact coefficients are an ``int`` when integral and a
    ``QQ`` otherwise; the maps here return, for ``g = (xi, v, t)``:

    * ``target(g)``: ``(w, t)`` with ``t`` as given.  With no float entry in
      ``xi``, ``v`` or ``t`` (``int`` and ``QQ`` in any mix), every
      coordinate of ``w = v + f(t) sharp(xi)`` is a ``QQ`` in lowest terms,
      integral or not (``sharp`` likewise); a float entry (``float`` or a
      numpy float) makes every coordinate a float.
    * ``inverse(g)``: ``(-xi, target(g)[0], t)``; each ``xi`` entry keeps
      its type when negated.
    * ``multiply(g, h)``: ``(xi_g + xi_h, v_h, t_g)``, the sums formed by
      ``+`` and not put back into canonical form: int plus int is an int, a
      sum with a ``QQ`` is a ``QQ`` (which may be integral), a sum with a
      float is a float; ``v_h`` and ``t`` are returned as given.
    * ``pair_slice_inverse((w, v, t))``: ``(xi, v, t)`` with ``xi`` in
      canonical form; it is exact only, and a float entry raises
      ``TypeError``.
    """

    def __init__(self, pi_matrix: Sequence[Sequence], f: Polynomial):
        self.pi = [[to_qq(x) for x in row] for row in pi_matrix]
        self.d = len(self.pi)
        if not self.d or any(len(row) != self.d for row in self.pi):
            raise ValueError("pi must be a nonempty square matrix")
        if self.d % 2:
            raise ValueError("V must be even dimensional")
        for i in range(self.d):
            for j in range(self.d):
                if self.pi[i][j] != -self.pi[j][i]:
                    raise ValueError("pi must be skew")
        if rank(self.pi) != self.d:
            raise ValueError("pi must have full rank")
        if len(f.variables) != 1:
            raise ValueError("f must be a polynomial in the single variable t")
        self.f = f
        # the terms of f in f.terms order (which holds no zero coefficient);
        # for exact t a coefficient of 1 becomes None and costs no product
        self._profile = [(e, c) for (e,), c in f.terms.items()]
        self._profile_exact = [(e, None if e and c == 1 else c) for e, c in self._profile]
        # nonzero entries of each column of pi, the terms of sharp(xi)_j, as
        # (i, entry) for float input and (i, numerator, denominator) for exact
        columns = [[(i, self.pi[i][j]) for i in range(self.d) if self.pi[i][j]]
                   for j in range(self.d)]
        self._columns_float = [[(i, float(c)) for i, c in col] for col in columns]
        self._columns_exact = [[(i, c.numerator, c.denominator) for i, c in col]
                               for col in columns]
        self._zero = (0,) * self.d

    def f_at(self, t):
        """``f(t)``, equal in value and type to ``self.f.eval([t])``: exact for
        rational or int ``t``, bit for bit the same float for float ``t``, and
        the int 0 for the zero profile. A numpy float that is not a ``float``
        (``np.float32``) is read as ``float(t)``."""
        if isinstance(t, float):
            terms = self._profile             # c * t**e, as Polynomial.eval forms it
        elif _is_float_entry(t):
            t, terms = float(t), self._profile
        else:
            t, terms = to_qq(t), self._profile_exact
        total = None
        for e, c in terms:
            if not e:
                term = c
            else:
                term = t if e == 1 else t ** e
                if c is not None:
                    term = c * term
            total = term if total is None else total + term
        return 0 if total is None else total

    def sharp(self, xi: Sequence):
        """``PI^T xi`` with exact arithmetic for rational input."""
        ratios = _ratios(xi)
        if ratios is not None:
            return [QQ(n, d) for n, d in self._sharp_ratios(ratios)]
        vals = [float(x) for x in xi]
        out = []
        for col in self._columns_float:       # full rank: no column is empty
            (i, c), rest = col[0], col[1:]
            acc = vals[i] * c
            for i, c in rest:
                acc = acc + vals[i] * c
            out.append(acc)
        return out

    def _sharp_ratios(self, ratios: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
        """``PI^T xi`` as unreduced fractions ``(numerator, denominator > 0)``
        from the ratios of ``xi``."""
        out = []
        for col in self._columns_exact:
            sn, sd = 0, 1
            for i, pn, pd in col:
                xn, xd = ratios[i]
                tn, td = pn * xn, pd * xd
                sn, sd = sn * td + tn * sd, sd * td
            out.append((sn, sd))
        return out

    def _target_ratios(self, g: GroupoidElement) -> list[tuple[int, int]] | None:
        """Each coordinate of ``v + f(t) sharp(xi)`` as an unreduced fraction
        ``(numerator, denominator > 0)``; ``None`` when an entry is a float."""
        xi, v, t = g
        if _is_float_entry(t):
            return None
        xs, vs = _ratios(xi), _ratios(v)
        if xs is None or vs is None:
            return None
        c = self.f_at(t)
        cn, cd = c.numerator, c.denominator
        return [(vn * cd * sd + cn * sn * vd, vd * cd * sd)
                for (vn, vd), (sn, sd) in zip(vs, self._sharp_ratios(xs))]

    def translation(self, xi: Sequence, t):
        c = self.f_at(t)
        return [c * s for s in self.sharp(xi)]

    # -- structure maps ------------------------------------------------------

    def source(self, g: GroupoidElement):
        xi, v, t = g
        return (tuple(v), t)

    def target(self, g: GroupoidElement):
        """``(v + f(t) sharp(xi), t)``."""
        xi, v, t = g
        ratios = self._target_ratios(g)
        if ratios is not None:
            return (tuple(QQ(n, d) for n, d in ratios), t)
        c = self.f_at(t)
        return (tuple(a + c * s for a, s in zip(v, self.sharp(xi))), t)

    def unit(self, v: Sequence, t) -> GroupoidElement:
        return (self._zero, tuple(v), t)

    def inverse(self, g: GroupoidElement) -> GroupoidElement:
        xi, v, t = g
        w, _ = self.target(g)
        return (tuple(-x for x in xi), w, t)

    def composable(self, g: GroupoidElement, h: GroupoidElement) -> bool:
        (sv, st) = self.source(g)
        source = None if _is_float_entry(st) else _ratios(sv)
        target = None if source is None else self._target_ratios(h)
        if target is not None:
            # a/b == n/d with b, d > 0, compared without reducing either side
            return st == h[2] and all(a * d == n * b for (a, b), (n, d) in zip(source, target))
        (tv, tt) = self.target(h)
        if abs(float(st) - float(tt)) > FLOAT_COMPOSABILITY_TOL:
            return False
        return all(abs(float(a) - float(b)) <= FLOAT_COMPOSABILITY_TOL
                   for a, b in zip(sv, tv))

    def multiply(self, g: GroupoidElement, h: GroupoidElement) -> GroupoidElement:
        if not self.composable(g, h):
            raise ValueError("non-composable pair")
        xi_g, _, t = g
        xi_h, v_h, _ = h
        return (tuple(a + b for a, b in zip(xi_g, xi_h)), tuple(v_h), t)

    # -- the target-source map into the fiberwise pair groupoid ----------------

    def pair_map(self, g: GroupoidElement):
        xi, v, t = g
        (w, _) = self.target(g)
        return (w, tuple(v), t)

    def pair_slice_inverse(self, element, *, t=None):
        """Inverse of the slice map ``(xi, v) -> (v + f(t) sharp xi, v)``
        when ``f(t) != 0``, for exact data only: a float entry is a
        ``TypeError``."""
        w, v, t = element if len(element) == 3 else (*element, t)
        if any(map(_is_float_entry, (*w, *v, t))):
            raise TypeError("pair_slice_inverse is exact; pass rationals, not floats")
        c = self.f_at(t)
        if not c:
            raise ValueError("slice map is not invertible where f(t) = 0")
        diff = [qq_div(a - b, c) for a, b in zip(w, v)]
        # solve PI^T xi = diff exactly
        rows = [[self.pi[i][j] for i in range(self.d)] for j in range(self.d)]
        xi = solve(rows, diff)
        if xi is None:
            raise AssertionError("full-rank sharp failed to invert")
        return (tuple(xi), tuple(v), t)


@dataclass
class OmegaReport:
    t: object
    matrix: list[list]
    determinant: object
    nondegenerate: bool
    closed: str = "constant coefficients, hence closed"


def omega_form(model: LinearGroupoidModel, t) -> OmegaReport:
    """The 2d x 2d skew matrix of the slice symplectic form at parameter t."""
    c = model.f_at(t)
    d = model.d
    size = 2 * d
    mat = [[QQ(0)] * size for _ in range(size)]
    for i in range(d):
        for j in range(d):
            mat[i][j] = c * model.pi[i][j]
        mat[i][d + i] = QQ(-1)
        mat[d + i][i] = QQ(1)
    det = _det(mat)
    return OmegaReport(t=t, matrix=mat, determinant=det, nondegenerate=bool(det))


@dataclass
class MorphismReport:
    samples: int
    morphism_exact: bool
    morphism_failures: int
    anti_poisson_max_residual: float
    anti_poisson_samples: int
    rank_at_zero: dict


def _random_rational_vector(rng: random.Random, d: int) -> tuple:
    return tuple(QQ(rng.randint(-50, 50), rng.randint(1, 10)) for _ in range(d))


def _divisors(m: int) -> list[int]:
    """The positive divisors of ``m != 0``, by trial division."""
    m = abs(m)
    small = [k for k in range(1, math.isqrt(m) + 1) if m % k == 0]
    return small + [m // k for k in reversed(small) if k * k != m]


def _rational_roots(model: LinearGroupoidModel) -> list:
    """The rational roots of the profile ``f``, ascending.

    The rational-root test on the integer-cleared coefficients: with the
    factor ``t^m`` taken out, a root ``p/q`` in lowest terms has ``p``
    dividing the lowest coefficient and ``q`` the leading one.  Each candidate
    is kept only when ``f`` vanishes there exactly.  The zero profile
    vanishes everywhere and gives ``t = 0`` as its one representative."""
    terms = model._profile
    if not terms:
        return [QQ(0)]
    scale = math.lcm(*(c.denominator for _, c in terms))
    coeffs = {e: int(c * scale) for e, c in terms}
    low, high = min(coeffs), max(coeffs)
    roots = {QQ(0)} if low else set()
    for p in _divisors(coeffs[low]):
        for q in _divisors(coeffs[high]):
            for r in (QQ(p, q), QQ(-p, q)):
                if model.f_at(r) == 0:
                    roots.add(r)
    return sorted(roots)


def pair_morphism_check(model: LinearGroupoidModel, samples: int = 1000,
                        seed: int = 0) -> MorphismReport:
    """(a) the target-source map is a groupoid morphism into the fiberwise
    pair groupoid, exactly on rational samples; (b) it pushes the slice
    Poisson bivector (inverse of Omega) to ``(-f(t) pi) (+) (f(t) pi)``
    where ``f(t) != 0``; (c) the Jacobian rank at each rational root of
    ``f`` (keys ascending)."""
    rng = random.Random(seed)
    d = model.d
    failures = 0
    for _ in range(samples):
        t = QQ(rng.randint(-20, 20), rng.randint(1, 10))
        h = (_random_rational_vector(rng, d), _random_rational_vector(rng, d), t)
        g = (_random_rational_vector(rng, d), model.target(h)[0], t)
        lhs = model.pair_map(model.multiply(g, h))
        pg, ph = model.pair_map(g), model.pair_map(h)
        if pg[1] != ph[0]:
            failures += 1
            continue
        rhs = (pg[0], ph[1], t)
        if lhs != rhs:
            failures += 1

    pi_f = np.array([[float(x) for x in row] for row in model.pi])
    sharp_f = pi_f.T
    max_res = 0.0
    ap_samples = 100
    rng2 = random.Random(seed + 1)
    for _ in range(ap_samples):
        t = 0.1 + 1.9 * rng2.random()
        c = float(model.f_at(t))
        if c == 0.0:
            continue
        omega = np.zeros((2 * d, 2 * d))
        omega[:d, :d] = c * pi_f
        omega[:d, d:] = -np.eye(d)
        omega[d:, :d] = np.eye(d)
        leaf = np.linalg.inv(omega)
        jac = np.zeros((2 * d, 2 * d))
        jac[:d, :d] = c * sharp_f
        jac[:d, d:] = np.eye(d)
        jac[d:, d:] = np.eye(d)
        pushed = jac @ leaf @ jac.T
        expected = np.zeros((2 * d, 2 * d))
        expected[:d, :d] = -c * pi_f
        expected[d:, d:] = c * pi_f
        max_res = max(max_res, float(np.max(np.abs(pushed - expected))))

    # rank of the full Jacobian at each rational zero of f
    rank_report = {}
    for t0 in _rational_roots(model):
        xi = np.ones(d)
        fprime = float(model.f.diff(0).eval([float(t0)]))
        jac = np.zeros((2 * d + 1, 2 * d + 1))
        jac[:d, d:2 * d] = np.eye(d)      # d target / d v
        jac[:d, 2 * d] = fprime * (sharp_f @ xi)
        jac[d:2 * d, d:2 * d] = np.eye(d)
        jac[2 * d, 2 * d] = 1.0
        rank_report[float(t0)] = int(np.linalg.matrix_rank(jac))
    return MorphismReport(samples=samples, morphism_exact=failures == 0,
                          morphism_failures=failures,
                          anti_poisson_max_residual=max_res,
                          anti_poisson_samples=ap_samples,
                          rank_at_zero=rank_report)


# -- monodromy periods -----------------------------------------------------------


def pairwise_sum(values: Sequence[float]) -> float:
    """Deterministic pairwise tree reduction (reproducible bit-for-bit)."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            nxt.append(vals[i] + vals[i + 1])
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return float(vals[0])


@dataclass
class SphereMap:
    """Parameterized closed surface with exact tangents.

    Both callables broadcast over ``theta`` and ``phi``: the quadrature calls
    each once per theta-row with the row's array of phi nodes, and a shape
    ``S`` of ``broadcast(theta, phi)`` gives points of shape ``S + (n,)`` and
    Jacobians of shape ``S + (n, 2)`` (``(n,)`` and ``(n, 2)`` for scalars).
    """

    point: Callable[[float | np.ndarray, float | np.ndarray], np.ndarray]
    jacobian: Callable[[float | np.ndarray, float | np.ndarray], np.ndarray]
    label: str = "sphere"


def _sphere_map(radius: float, dimension: int, axes: tuple[int, ...],
                center: Sequence | None, label: str) -> SphereMap:
    """The sphere of radius r in the axes ``(i, j, k)``, or its projection to
    the ``(i, j)`` plane for two axes; each point is ``center`` plus the
    spherical coordinates, added axis by axis in that order."""
    c = np.zeros(dimension) if center is None else np.array([float(x) for x in center])
    i, j, *k = axes
    r = float(radius)

    def point(theta, phi) -> np.ndarray:
        x = np.empty(np.broadcast(theta, phi).shape + (dimension,))
        x[...] = c
        x[..., i] += r * np.sin(theta) * np.cos(phi)
        x[..., j] += r * np.sin(theta) * np.sin(phi)
        for axis in k:
            x[..., axis] += r * np.cos(theta)
        return x

    def jacobian(theta, phi) -> np.ndarray:
        out = np.zeros(np.broadcast(theta, phi).shape + (dimension, 2))
        out[..., i, 0] = r * np.cos(theta) * np.cos(phi)
        out[..., j, 0] = r * np.cos(theta) * np.sin(phi)
        for axis in k:
            out[..., axis, 0] = -r * np.sin(theta)
        out[..., i, 1] = -r * np.sin(theta) * np.sin(phi)
        out[..., j, 1] = r * np.sin(theta) * np.cos(phi)
        return out

    return SphereMap(point, jacobian, label=label)


def round_sphere(radius: float, dimension: int, axes: tuple[int, int, int] = (0, 1, 2),
                 center: Sequence | None = None) -> SphereMap:
    """Radius-r sphere in the three chosen coordinate axes."""
    return _sphere_map(radius, dimension, axes, center, f"round r={radius} axes={axes}")


def planar_sphere(radius: float, dimension: int, axes: tuple[int, int] = (0, 1),
                  center: Sequence | None = None) -> SphereMap:
    """Degenerate sphere collapsed into a 2-plane (image inside one leaf of a
    constant-rank structure); used for the flat zero-curvature case."""
    return _sphere_map(radius, dimension, axes, center, f"planar r={radius} axes={axes}")


class MonodromyProblem:
    """Curvature-period data for a sphere inside a regular leaf.

    Preconditions (checked): the kernel module has a single generator
    ``alpha`` whose squared length is a Casimir (so the minimal-norm
    splitting is leaf-wise polynomial after adjoining ``_u = 1/|alpha|^2``),
    the sphere stays in the regular locus, and its tangents lie in the image
    of sharp at every mesh point.
    """

    def __init__(self, structure: PoissonStructure, sphere: SphereMap,
                 *, splitting_tol: float = 1e-12, gauge: Sequence | None = None):
        self.structure = structure
        self.sphere = sphere
        self.splitting_tol = splitting_tol
        n = len(structure.variables)
        self.n = n
        iso = germinal_isotropy(structure)
        if len(iso.module.generators) != 1:
            raise ValueError("built-in splitting needs a single kernel generator")
        alpha = list(iso.module.generators[0])
        self.alpha = alpha
        q = sum((a * a for a in alpha), Polynomial.zero(structure.variables))
        ham_q = structure.hamiltonian_field(q)
        if not ham_q.is_zero:
            raise ValueError("|alpha|^2 is not a Casimir; supply a custom splitting")
        self.q = q
        self.gauge = [to_qq(x) for x in gauge] if gauge is not None else None
        self._build_symbolic()

    def _build_symbolic(self) -> None:
        base = self.structure.variables
        ext = base + ("_u",)
        self.ext_variables = ext
        n = self.n

        def lift(p: Polynomial) -> Polynomial:
            return p.on_chart(ext)

        pi_ext = MultivectorField.bivector(
            ext, {k: lift(p) for k, p in self.structure.bivector.components.items()})
        alpha_ext = DifferentialForm.from_coefficients(ext, [lift(a) for a in self.alpha])
        u = Polynomial.variable(ext, "_u")
        zero = Polynomial.zero(ext)
        lam = None if self.gauge is None else [Polynomial.constant(ext, c) for c in self.gauge]

        def sigma_of_hamiltonian(g_ext: Polynomial) -> DifferentialForm:
            # minimal-norm preimage of sharp(dg): dg - u <dg, alpha> alpha; the
            # gauge adds <lambda, sharp(dg)> alpha
            dg = DifferentialForm.d_of(g_ext)
            inner = zero
            for i in range(n):
                inner = inner + g_ext.diff(i) * lift(self.alpha[i])
            sigma = dg - alpha_ext.scale(inner * u)
            if lam is not None:
                v = pi_ext.sharp(dg).coefficients()
                sigma = sigma + alpha_ext.scale(sum((lam[j] * v[j] for j in range(n)), zero))
            return sigma

        betas = [sigma_of_hamiltonian(Polynomial.variable(ext, ext[i])) for i in range(n)]

        # <R(V_i, V_j), dx_a> for pairs i < j in row-major order, then a
        self.curvature_scalars: list[Polynomial] = []
        for i in range(n):
            for j in range(i + 1, n):
                # sigma of the Hamiltonian field of {x_i, x_j}
                sigma_bracket = sigma_of_hamiltonian(pi_ext.components.get((i, j), zero))
                curv = sigma_bracket - koszul_bracket(betas[i], betas[j], pi_ext)
                self.curvature_scalars.extend(curv.coefficients()[:n])
        self._pairs = np.triu_indices(n, 1)
        self._scalar_eval = FloatEvaluator(ext, self.curvature_scalars)
        self._alpha_eval = FloatEvaluator(base, self.alpha)
        self._pi_eval = FloatEvaluator(
            base, [p for row in self.structure.pi_matrix() for p in row])

    def curvature_matrix(self, x: np.ndarray) -> np.ndarray:
        """Pairings <R(V_i, V_j), alpha>/|alpha| at a point (floats)."""
        return self._curvature_rows(np.asarray(x, dtype=float)[None, :])[0]

    def _curvature_rows(self, xs: np.ndarray) -> np.ndarray:
        """``curvature_matrix`` at each point of a stack ``(P, n)``."""
        n = self.n
        alpha_val = self._alpha_eval(xs)                       # (P, n)
        norm = np.linalg.norm(alpha_val, axis=1)
        qval = norm * norm
        if not np.all(qval > 0.0):
            raise ValueError("alpha vanishes: the point is outside the regular locus")
        vec = self._scalar_eval(np.column_stack([xs, 1.0 / qval]))
        vec = vec.reshape(len(xs), -1, n)                      # (P, pairs, n)
        pairing = (vec @ alpha_val[:, :, None])[:, :, 0]       # (P, pairs)
        tangential = vec - (pairing / qval[:, None])[:, :, None] * alpha_val[:, None, :]
        if np.any(np.linalg.norm(tangential, axis=2)
                  > 1e-8 * np.maximum(1.0, np.linalg.norm(vec, axis=2))):
            raise AssertionError("curvature value is not kernel-valued on the leaf")
        s = pairing / norm[:, None]
        i, j = self._pairs
        out = np.zeros((len(xs), n, n))
        out[:, i, j] = s
        out[:, j, i] = -s
        return out


@dataclass
class PeriodResult:
    value: float
    error_estimate: float
    coarse_value: float
    meshes: tuple[int, int]
    max_splitting_residual: float
    label: str = ""


def _integrate(problem: MonodromyProblem, mesh: int) -> tuple[float, float]:
    nodes_t, weights_t = np.polynomial.legendre.leggauss(mesh)
    theta = 0.5 * np.pi * (nodes_t + 1.0)
    wt = 0.5 * np.pi * weights_t
    phi = np.pi * (nodes_t + 1.0)
    wp = np.pi * weights_t

    n = problem.n
    rank = 2 * problem.structure.k
    rcond = n * np.finfo(float).eps       # the cutoff lstsq uses by default
    contributions: list[float] = []
    max_residual = 0.0
    for a, th in enumerate(theta):
        xs = problem.sphere.point(th, phi)                                    # (P, n)
        jac = problem.sphere.jacobian(th, phi)                                # (P, n, 2)
        sharp_mat = problem._pi_eval(xs).reshape(-1, n, n).transpose(0, 2, 1)
        # one SVD per point: the rank guard, and np.linalg.pinv's own cutoff
        # and formula for the minimal-norm pseudo-inverse
        u, sv, vt = np.linalg.svd(sharp_mat, full_matrices=False)
        ranks = np.count_nonzero(sv > 1e-9, axis=-1)
        large = sv > rcond * np.max(sv, axis=-1, keepdims=True)
        inv_sv = np.divide(1.0, sv, out=np.zeros_like(sv), where=large)
        pinv = np.matmul(np.swapaxes(vt, -1, -2), inv_sv[..., None] * np.swapaxes(u, -1, -2))
        sol = pinv @ jac                                                      # minimal norm
        residual = np.max(np.abs(sharp_mat @ sol - jac), axis=(1, 2))
        scale = np.maximum(1.0, np.max(np.abs(jac), axis=(1, 2)))
        bad_rank = ranks != rank
        bad = bad_rank | (residual > problem.splitting_tol * scale * 10)
        if np.any(bad):
            b = int(np.argmax(bad))       # the first failing point, in mesh order
            if bad_rank[b]:
                raise ValueError("leaf hits the singular locus on the sphere")
            raise ValueError(
                f"splitting residual too large ({residual[b]:.2e}); sphere not tangent to the leaf")
        max_residual = max(max_residual, float(np.max(residual / scale)))
        smat = problem._curvature_rows(xs)
        integrand = np.einsum("pi,pij,pj->p", sol[:, :, 0], smat, sol[:, :, 1])
        contributions.extend((wt[a] * wp * integrand).tolist())
    return pairwise_sum(contributions), max_residual


def monodromy_period(problem: MonodromyProblem,
                     meshes: tuple[int, int] = (32, 64)) -> PeriodResult:
    """Integral of the kernel-paired curvature over the sphere, with a
    two-mesh Richardson error estimate."""
    coarse, res1 = _integrate(problem, meshes[0])
    fine, res2 = _integrate(problem, meshes[1])
    return PeriodResult(value=fine, error_estimate=abs(fine - coarse),
                        coarse_value=coarse, meshes=meshes,
                        max_splitting_residual=max(res1, res2),
                        label=problem.sphere.label)
