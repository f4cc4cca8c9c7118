"""Explicit finite-dimensional groupoid models and monodromy periods.

The model is the action groupoid ``V* x V x R`` over ``V x R`` for a
full-rank constant bivector scaled by a one-variable profile ``f(t)``:
``xi`` acts on ``V x {t}`` by translation by ``f(t) sharp(xi)``.  Each
``t``-slice carries the constant symplectic pairing

    Omega((xi, v), (xi', v')) = <v, xi'> - <v', xi> + f(t) pi(xi, xi').

``sharp`` uses the same transpose convention as the rest of the package
(``sharp(xi) = PI^T xi``), which is what makes the slice target map Poisson
and the target-source map into the fiberwise pair groupoid anti-Poisson.
The model checks these laws in exact arithmetic, and it is exact only: every
entry goes through ``to_qq``, so a float (``float`` or a numpy float) is a
``TypeError``.  It compiles its data once: the profile to its terms
(``f_at`` returns what ``f.eval`` would, value and type, without calling
it) and ``pi`` to the integer numerator and denominator of each nonzero
entry of each column.  The structure maps work on integers: ``target``
forms each coordinate of ``v + f(t) sharp(xi)`` as one unreduced fraction
and builds one reduced ``QQ`` from it, and ``composable`` compares a source
with a target by cross-multiplication without building either.

The monodromy integrator evaluates the kernel-valued curvature of the
minimal-norm splitting of ``sharp`` over a 2-sphere inside a regular leaf,
with the curvature assembled symbolically on a chart extended by one
variable ``_u`` standing for ``1/<alpha, alpha>`` (a Casimir for the
built-in family, hence leaf-constant).  ``alpha``, the matrix of ``pi`` and
the curvature scalars are compiled once to float evaluators.  The
Gauss-Legendre quadrature works on blocks of whole theta-rows of the mesh,
about ``_BLOCK_POINTS`` points each: the sphere's callables broadcast over
the block's column of theta nodes and the row of phi nodes, every evaluator
takes the block in one numpy call, one stacked SVD gives each point both the
rank guard and numpy's minimal-norm pseudo-inverse, and the contributions
reach ``pairwise_sum`` in row-major mesh order.  A block that fails a guard,
or would warn, is run again one row at a time, so the first failing row
names the error and a row's splitting guards come before its curvature
checks.
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
    exterior_derivative,
)
from .modcalc.linalg import rank, solve
from .modcalc.rank import determinant
from .poisson import PoissonStructure, _koszul, germinal_isotropy

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

def _ratios(entries) -> list[tuple[int, int]]:
    """``(numerator, denominator)`` of each entry, the denominator positive.
    ``QQ`` and int entries are read as they are, any other goes through
    ``to_qq``, which refuses a float."""
    out = []
    for x in entries:
        if type(x) is not QQ and type(x) is not int:
            x = to_qq(x)
        out.append((x.numerator, x.denominator))
    return out


def _check_exact(entries) -> None:
    """Send every entry that is not a ``QQ`` or an int through ``to_qq``,
    which refuses a float."""
    for x in entries:
        if type(x) is not QQ and type(x) is not int:
            to_qq(x)


def _length_error(d: int, **vectors) -> ValueError:
    """The ``ValueError`` for the first of ``vectors`` without ``d`` entries."""
    name, entries = next((k, e) for k, e in vectors.items() if len(e) != d)
    return ValueError(f"{name} has {len(entries)} entries, expected {d}")


GroupoidElement = tuple  # (xi, v, t)


class LinearGroupoidModel:
    """Action groupoid of ``(V*, +)`` on ``V x R`` translating by
    ``f(t) sharp(xi)``; ``pi`` must be a full-rank skew rational matrix.

    The profile is compiled once to its ``(exponent, coefficient)`` terms and
    ``pi`` to the integer numerator and denominator of the nonzero entries of
    each column; every map computes on those integers, with one ``QQ`` per
    output coordinate.  The model is exact only: an entry of ``xi``, ``v`` or
    ``t`` goes through ``to_qq``, and a float entry (``float`` or a numpy
    float) raises ``TypeError``.  Every map raises ``ValueError`` unless each
    ``xi``, ``v`` and ``w`` it is given has ``d`` entries.

    The package's exact coefficients are an ``int`` when integral and a
    ``QQ`` otherwise; the maps here return, for ``g = (xi, v, t)``:

    * ``target(g)``: ``(w, t)`` with ``t`` as given.  For ``int`` and ``QQ``
      entries in any mix, every coordinate of ``w = v + f(t) sharp(xi)`` is a
      ``QQ`` in lowest terms, integral or not (``sharp`` likewise).
    * ``inverse(g)``: ``(-xi, target(g)[0], t)``; each ``xi`` entry keeps
      its type when negated.
    * ``multiply(g, h)``: ``(xi_g + xi_h, v_h, t_g)``, the sums formed by
      ``+`` and not put back into canonical form: int plus int is an int, a
      sum with a ``QQ`` is a ``QQ`` (which may be integral); ``v_h`` and
      ``t`` are returned as given.
    * ``pair_slice_inverse((w, v, t))``: ``(xi, v, t)`` with ``xi`` in
      canonical form.
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
        # a coefficient of 1 becomes None and costs no product
        self._profile = [(e, c) for (e,), c in f.terms.items()]
        self._profile_exact = [(e, None if e and c == 1 else c) for e, c in self._profile]
        # (i, numerator, denominator) of the nonzero entries of each column of
        # pi, the terms of sharp(xi)_j, as (first, rest): full rank leaves no
        # column empty
        columns = [[(i, c.numerator, c.denominator) for i, c in enumerate(col) if c]
                   for col in zip(*self.pi)]
        self._columns = [(col[0], col[1:]) for col in columns]
        self._zero = (0,) * self.d

    def f_at(self, t):
        """``f(t)``, equal in value and type to ``self.f.eval([t])`` for exact
        ``t``, and the int 0 for the zero profile; ``t`` goes through
        ``to_qq``, so a float is a ``TypeError``.  The float ``f(t)`` of
        ``pair_morphism_check`` is ``self.f.eval([t])`` at a float ``t``,
        which sums ``c * t**e`` in ``f.terms`` order."""
        t = to_qq(t)
        total = None
        for e, c in self._profile_exact:
            if not e:
                term = c
            else:
                term = t if e == 1 else t ** e
                if c is not None:
                    term = c * term
            total = term if total is None else total + term
        return 0 if total is None else total

    def sharp(self, xi: Sequence):
        """``PI^T xi``, each coordinate a ``QQ`` in lowest terms."""
        if len(xi) != self.d:
            raise _length_error(self.d, xi=xi)
        return [QQ(n, d) for n, d in self._sharp_ratios(_ratios(xi))]

    def _sharp_ratios(self, ratios: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
        """``PI^T xi`` as unreduced fractions ``(numerator, denominator > 0)``
        from the ratios of ``xi``."""
        out = []
        for (i, pn, pd), rest in self._columns:
            xn, xd = ratios[i]
            sn, sd = pn * xn, pd * xd
            for i, pn, pd in rest:
                xn, xd = ratios[i]
                tn, td = pn * xn, pd * xd
                sn, sd = sn * td + tn * sd, sd * td
            out.append((sn, sd))
        return out

    def _target_ratios(self, g: GroupoidElement) -> list[tuple[int, int]]:
        """Each coordinate of ``v + f(t) sharp(xi)`` as an unreduced fraction
        ``(numerator, denominator > 0)``."""
        xi, v, t = g
        if len(xi) != self.d or len(v) != self.d:
            raise _length_error(self.d, xi=xi, v=v)
        c = self.f_at(t)
        cn, cd = c.numerator, c.denominator
        out = []
        for x, (sn, sd) in zip(v, self._sharp_ratios(_ratios(xi))):
            if type(x) is not QQ and type(x) is not int:
                x = to_qq(x)
            vn, vd = x.numerator, x.denominator
            out.append((vn * cd * sd + cn * sn * vd, vd * cd * sd))
        return out

    def translation(self, xi: Sequence, t):
        c = self.f_at(t)
        return [c * s for s in self.sharp(xi)]

    # -- structure maps ------------------------------------------------------

    def source(self, g: GroupoidElement):
        """``(v, t)`` as given; every entry of ``g`` is read, so a float in
        it is a ``TypeError``."""
        xi, v, t = g
        if len(xi) != self.d or len(v) != self.d:
            raise _length_error(self.d, xi=xi, v=v)
        _check_exact((*xi, *v, t))
        return (tuple(v), t)

    def target(self, g: GroupoidElement):
        """``(v + f(t) sharp(xi), t)``."""
        return (tuple([QQ(n, d) for n, d in self._target_ratios(g)]), g[2])

    def unit(self, v: Sequence, t) -> GroupoidElement:
        """``(0, v, t)`` with ``v`` and ``t`` as given; a float entry is a
        ``TypeError``."""
        if len(v) != self.d:
            raise _length_error(self.d, v=v)
        _check_exact((*v, t))
        return (self._zero, tuple(v), t)

    def inverse(self, g: GroupoidElement) -> GroupoidElement:
        xi, v, t = g
        w, _ = self.target(g)
        return (tuple([-x for x in xi]), w, t)

    def composable(self, g: GroupoidElement, h: GroupoidElement) -> bool:
        """Whether the source of ``g`` is the target of ``h``; every entry of
        both is read, so a float anywhere in them is a ``TypeError``."""
        xi, v, t = g
        if len(xi) != self.d or len(v) != self.d:
            raise _length_error(self.d, xi=xi, v=v)
        _check_exact(xi)                      # multiply adds xi_g as given
        source, target = _ratios(v), self._target_ratios(h)
        # a/b == n/d with b, d > 0, compared without reducing either side
        return (to_qq(t) == to_qq(h[2])
                and all(a * d == n * b for (a, b), (n, d) in zip(source, target)))

    def multiply(self, g: GroupoidElement, h: GroupoidElement) -> GroupoidElement:
        if not self.composable(g, h):
            raise ValueError("non-composable pair")
        xi_g, _, t = g
        xi_h, v_h, _ = h
        return (tuple([a + b for a, b in zip(xi_g, xi_h)]), tuple(v_h), t)

    # -- the target-source map into the fiberwise pair groupoid ----------------

    def pair_map(self, g: GroupoidElement):
        xi, v, t = g
        (w, _) = self.target(g)
        return (w, tuple(v), t)

    def pair_slice_inverse(self, element):
        """Inverse of the slice map ``(xi, v) -> (v + f(t) sharp xi, v)``
        when ``f(t) != 0``, for ``element = (w, v, t)``."""
        w, v, t = element
        if len(w) != self.d or len(v) != self.d:
            raise _length_error(self.d, w=w, v=v)
        diff = [to_qq(a) - to_qq(b) for a, b in zip(w, v)]
        c = self.f_at(t)
        if not c:
            raise ValueError("slice map is not invertible where f(t) = 0")
        # solve PI^T xi = (w - v) / f(t) exactly
        rows = [[self.pi[i][j] for i in range(self.d)] for j in range(self.d)]
        xi = solve(rows, [qq_div(x, c) for x in diff])
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
    det = determinant(mat)
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
        ph = model.pair_map(h)
        g = (_random_rational_vector(rng, d), ph[0], t)
        lhs = model.pair_map(model.multiply(g, h))
        pg = model.pair_map(g)
        if pg[1] != ph[0]:
            failures += 1
            continue
        rhs = (pg[0], ph[1], t)
        if lhs != rhs:
            failures += 1

    pi_f = np.array([[float(x) for x in row] for row in model.pi])
    sharp_f = pi_f.T
    ap_samples = 100
    rng2 = random.Random(seed + 1)
    cs = np.array([float(model.f.eval([0.1 + 1.9 * rng2.random()])) for _ in range(ap_samples)])
    # one stacked pass over the samples where f(t) != 0; LAPACK and matmul
    # work matrix by matrix, so each residual is the one of a lone sample
    c = cs[cs != 0.0][:, None, None]
    eye = np.eye(d)
    omega = np.zeros((len(c), 2 * d, 2 * d))
    omega[:, :d, :d] = c * pi_f
    omega[:, :d, d:] = -eye
    omega[:, d:, :d] = eye
    leaf = np.linalg.inv(omega)
    jac = np.zeros((len(c), 2 * d, 2 * d))
    jac[:, :d, :d] = c * sharp_f
    jac[:, :d, d:] = eye
    jac[:, d:, d:] = eye
    pushed = jac @ leaf @ np.swapaxes(jac, 1, 2)
    expected = np.zeros((len(c), 2 * d, 2 * d))
    expected[:, :d, :d] = -c * pi_f
    expected[:, d:, d:] = c * pi_f
    # fmax ignores a NaN residual: the largest number is reported
    max_res = float(np.fmax.reduce(np.max(np.abs(pushed - expected), axis=(1, 2)), initial=0.0))

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
    """Deterministic pairwise tree reduction (reproducible bit-for-bit).

    The values are read as float64. Each tree level is one numpy addition of
    the even-indexed values to the odd-indexed ones, an odd tail carried to
    the next level, so the sum is the one a Python loop over the same tree
    gives. Overflow and ``inf + -inf`` give ``inf`` and ``nan`` without a
    warning, as Python float addition does."""
    vals = np.asarray(values, dtype=np.float64)
    if not vals.size:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        while len(vals) > 1:
            pairs = vals[0:-1:2] + vals[1::2]
            vals = np.append(pairs, vals[-1]) if len(vals) % 2 else pairs
    return float(vals[0])


@dataclass
class SphereMap:
    """Parameterized closed surface with exact tangents.

    Both callables broadcast over ``theta`` and ``phi``: the quadrature calls
    each once per block of theta-rows, with the block's theta nodes as a
    column ``(R, 1)`` and the phi nodes as a row ``(P,)``, and a shape ``S``
    of ``broadcast(theta, phi)`` gives points of shape ``S + (n,)`` and
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
        sharps = [pi_ext.sharp(beta) for beta in betas]
        d_betas = [exterior_derivative(beta) for beta in betas]

        # <R(V_i, V_j), dx_a> for pairs i < j in row-major order, then a
        self.curvature_scalars: list[Polynomial] = []
        for i in range(n):
            for j in range(i + 1, n):
                # sigma of the Hamiltonian field of {x_i, x_j}
                sigma_bracket = sigma_of_hamiltonian(pi_ext.components.get((i, j), zero))
                curv = sigma_bracket - _koszul(betas[i], sharps[i], d_betas[i],
                                               betas[j], sharps[j], d_betas[j])
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


# the quadrature evaluates whole theta-rows in blocks of about this many
# points: one block for the whole mesh measured no faster and held more memory
_BLOCK_POINTS = 512


def _integrate_rows(problem: MonodromyProblem, theta: np.ndarray, wt: np.ndarray,
                    phi: np.ndarray, wp: np.ndarray) -> tuple[np.ndarray, float]:
    """The contributions of the mesh rows at ``theta`` (weights ``wt``), in
    row-major order, and their largest relative splitting residual."""
    n = problem.n
    rank = 2 * problem.structure.k
    rcond = n * np.finfo(float).eps       # the rcond lstsq uses by default
    xs = problem.sphere.point(theta[:, None], phi).reshape(-1, n)           # (P, n)
    jac = problem.sphere.jacobian(theta[:, None], phi).reshape(-1, n, 2)    # (P, n, 2)
    sharp_mat = problem._pi_eval(xs).reshape(-1, n, n).transpose(0, 2, 1)
    # one SVD per point: the rank guard, and np.linalg.pinv's own rcond and
    # formula for the minimal-norm pseudo-inverse
    u, sv, vt = np.linalg.svd(sharp_mat, full_matrices=False)
    ranks = np.count_nonzero(sv > 1e-9, axis=-1)
    large = sv > rcond * np.max(sv, axis=-1, keepdims=True)
    inv_sv = np.divide(1.0, sv, out=np.zeros_like(sv), where=large)
    pinv = np.matmul(np.swapaxes(vt, -1, -2), inv_sv[..., None] * np.swapaxes(u, -1, -2))
    sol = pinv @ jac                                                          # minimal norm
    residual = np.max(np.abs(sharp_mat @ sol - jac), axis=(1, 2))
    scale = np.maximum(1.0, np.max(np.abs(jac), axis=(1, 2)))
    bad_rank = ranks != rank
    bad = bad_rank | (residual > problem.splitting_tol * scale * 10)
    if np.any(bad):
        b = int(np.argmax(bad))           # the first failing point, in mesh order
        if bad_rank[b]:
            raise ValueError("leaf hits the singular locus on the sphere")
        raise ValueError(
            f"splitting residual too large ({residual[b]:.2e}); sphere not tangent to the leaf")
    smat = problem._curvature_rows(xs)
    integrand = np.einsum("pi,pij,pj->p", sol[:, :, 0], smat, sol[:, :, 1])
    weights = wt[:, None] * wp                                                # (rows, mesh)
    return weights.ravel() * integrand, float(np.max(residual / scale))


def _integrate(problem: MonodromyProblem, mesh: int) -> tuple[float, float]:
    nodes_t, weights_t = np.polynomial.legendre.leggauss(mesh)
    theta = 0.5 * np.pi * (nodes_t + 1.0)
    wt = 0.5 * np.pi * weights_t
    phi = np.pi * (nodes_t + 1.0)
    wp = np.pi * weights_t

    rows = max(1, _BLOCK_POINTS // mesh)
    contributions: list[np.ndarray] = []
    max_residual = 0.0
    for start in range(0, mesh, rows):
        block = slice(start, start + rows)
        try:
            # a float warning is an error in the block, so the row-by-row run
            # below gives it at its own row, after any earlier row's error
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                parts = [_integrate_rows(problem, theta[block], wt[block], phi, wp)]
        except (ValueError, AssertionError, FloatingPointError):
            # the first row that fails names the error: its splitting guards,
            # then its curvature checks
            parts = (_integrate_rows(problem, theta[a:a + 1], wt[a:a + 1], phi, wp)
                     for a in range(start, min(start + rows, mesh)))
        for values, residual in parts:
            contributions.append(values)
            max_residual = max(max_residual, residual)
    return pairwise_sum(np.concatenate(contributions)), max_residual


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
