"""Graded antisymmetric tensors with polynomial coefficients.

Components are stored over strictly increasing index tuples, so antisymmetry
is normalized away and equality of component maps is equality of tensors.
``MultivectorField`` is contravariant (wedges of coordinate vector fields),
``DifferentialForm`` covariant (wedges of coordinate differentials).

Sign conventions used throughout the package, fixed here once:

* the Schouten bracket restricts to the Lie bracket on vector fields and
  satisfies ``[X, f] = X(f)``, ``[P, Q] = -(-1)^((p-1)(q-1)) [Q, P]``;
* a bivector ``pi`` has component matrix ``PI[i][j] = pi(dx_i, dx_j)``
  (upper triangle = stored components) and its sharp map is
  ``sharp(alpha) = PI^T alpha``, so that ``sharp(df)`` is the Hamiltonian
  vector field of ``f`` and ``{f, g} = pi(df, dg) = sharp(df)(g)``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .polynomial import ChartMismatchError, Chart, Polynomial

__all__ = [
    "MultivectorField",
    "DifferentialForm",
    "TensorValue",
    "wedge",
    "wedge_power",
    "schouten_bracket",
    "exterior_derivative",
    "interior_product",
    "lie_derivative",
    "pair",
]


def _sort_with_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
    """Sort an index tuple, returning ``None`` on repeats and the permutation
    sign otherwise."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None
    return tuple(idx), sign


class _Alternating:
    """Shared implementation for multivectors and forms."""

    __slots__ = ("variables", "grade", "components")

    def __init__(self, variables: Sequence[str], grade: int,
                 components: Mapping[tuple[int, ...], Polynomial] | None = None):
        self.variables: Chart = tuple(variables)
        n = len(self.variables)
        if grade < 0:
            raise ValueError("grade must be nonnegative")
        # grades above the dimension are allowed and necessarily zero
        self.grade = grade
        clean: dict[tuple[int, ...], Polynomial] = {}
        if components:
            for idx, poly in components.items():
                if not isinstance(poly, Polynomial):
                    poly = Polynomial.parse(self.variables, str(poly))
                if poly.variables != self.variables:
                    raise ChartMismatchError("component polynomial on a different chart")
                if len(idx) != grade:
                    raise ValueError(f"index tuple {idx} has wrong length for grade {grade}")
                if any(not 0 <= i < n for i in idx):
                    raise ValueError(f"index out of range in {idx}")
                norm = _sort_with_sign(idx)
                if norm is None:
                    continue
                key, sign = norm
                p = poly if sign == 1 else -poly
                if key in clean:
                    p = clean[key] + p
                if p.is_zero:
                    clean.pop(key, None)
                else:
                    clean[key] = p
        self.components = clean

    # -- basics --------------------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self.variables)

    @property
    def is_zero(self) -> bool:
        return not self.components

    def __bool__(self) -> bool:
        return bool(self.components)

    def __eq__(self, other) -> bool:
        return (type(self) is type(other) and self.variables == other.variables
                and self.grade == other.grade and self.components == other.components)

    def __hash__(self):
        return hash((type(self).__name__, self.variables, self.grade,
                     frozenset(self.components.items())))

    def _same_kind(self, other) -> None:
        if type(self) is not type(other):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.variables != other.variables:
            raise ChartMismatchError(f"chart mismatch: {self.variables} vs {other.variables}")

    def __add__(self, other):
        self._same_kind(other)
        if self.grade != other.grade:
            raise ValueError("cannot add tensors of different grade")
        out = dict(self.components)
        for k, p in other.components.items():
            s = out.get(k)
            s = p if s is None else s + p
            if s.is_zero:
                out.pop(k, None)
            else:
                out[k] = s
        return type(self)._raw(self.variables, self.grade, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)._raw(self.variables, self.grade,
                               {k: -p for k, p in self.components.items()})

    def scale(self, factor):
        """Multiply by a polynomial or rational scalar."""
        out = {}
        for k, p in self.components.items():
            q = p * factor
            if not q.is_zero:
                out[k] = q
        return type(self)._raw(self.variables, self.grade, out)

    def __mul__(self, factor):
        return self.scale(factor)

    __rmul__ = __mul__

    @classmethod
    def _raw(cls, variables: Chart, grade: int, components: dict):
        obj = object.__new__(cls)
        obj.variables = variables
        obj.grade = grade
        obj.components = components
        return obj

    @classmethod
    def zero(cls, variables: Sequence[str], grade: int):
        return cls(variables, grade, {})

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, point: Sequence) -> "TensorValue":
        if len(point) != len(self.variables):
            raise ValueError("point dimension does not match chart dimension")
        vals = {k: p.eval(point) for k, p in self.components.items()}
        return TensorValue(len(self.variables), self.grade,
                           {k: v for k, v in vals.items() if v})

    # -- grade-1 helpers ---------------------------------------------------------

    def coefficients(self) -> list[Polynomial]:
        """Grade-1 tensors as a dense coefficient vector."""
        if self.grade != 1:
            raise ValueError("coefficient vector only defined for grade 1")
        out = [Polynomial.zero(self.variables) for _ in self.variables]
        for (i,), p in self.components.items():
            out[i] = p
        return out

    @classmethod
    def from_coefficients(cls, variables: Sequence[str], coeffs: Sequence[Polynomial]):
        return cls(variables, 1, {(i,): c for i, c in enumerate(coeffs)})

    # -- printing -----------------------------------------------------------------

    _symbol = "e"

    def _basis_name(self, i: int) -> str:
        return f"{self._symbol}{self.variables[i]}"

    def __str__(self) -> str:
        if not self.components:
            return "0"
        parts = []
        for k in sorted(self.components):
            basis = "^".join(self._basis_name(i) for i in k) if k else "1"
            parts.append(f"({self.components[k]}) {basis}".strip())
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}[{self.grade}]({self})"


class MultivectorField(_Alternating):
    """Antisymmetric contravariant tensor field with polynomial coefficients."""

    _symbol = "d/d"

    @classmethod
    def bivector(cls, variables: Sequence[str],
                 upper: Mapping[tuple[int, int], Polynomial | str]) -> "MultivectorField":
        """Bivector from upper-triangle components ``{(i, j): pi_ij}``, i < j."""
        return cls(variables, 2, dict(upper))

    def component_matrix(self) -> list[list[Polynomial]]:
        """Full skew matrix ``PI[i][j] = pi(dx_i, dx_j)`` of a bivector."""
        if self.grade != 2:
            raise ValueError("component matrix only defined for grade 2")
        n = len(self.variables)
        zero = Polynomial.zero(self.variables)
        mat = [[zero for _ in range(n)] for _ in range(n)]
        for (i, j), p in self.components.items():
            mat[i][j] = p
            mat[j][i] = -p
        return mat

    def sharp(self, alpha: "DifferentialForm") -> "MultivectorField":
        """Contraction of a grade-1 form with a bivector: ``sharp(df)`` is the
        Hamiltonian vector field of ``f``."""
        if self.grade != 2 or alpha.grade != 1:
            raise ValueError("sharp needs a bivector and a grade-1 form")
        if alpha.variables != self.variables:
            raise ChartMismatchError("chart mismatch in sharp")
        mat = self.component_matrix()
        a = alpha.coefficients()
        n = len(self.variables)
        out = []
        for j in range(n):
            s = Polynomial.zero(self.variables)
            for i in range(n):
                if mat[i][j].is_zero or a[i].is_zero:
                    continue
                s = s + a[i] * mat[i][j]
            out.append(s)
        return MultivectorField.from_coefficients(self.variables, out)

    def columns(self) -> list[list[Polynomial]]:
        """Images of the coordinate differentials under sharp, as coefficient
        vectors: column j is ``sharp(dx_j)``."""
        if self.grade != 2:
            raise ValueError("columns only defined for grade 2")
        mat = self.component_matrix()
        n = len(self.variables)
        return [[mat[j][i] for i in range(n)] for j in range(n)]

    def pairing(self, alpha: "DifferentialForm", beta: "DifferentialForm") -> Polynomial:
        """``pi(alpha, beta)`` for grade-1 forms."""
        return pair(beta, self.sharp(alpha))


class DifferentialForm(_Alternating):
    """Antisymmetric covariant tensor field with polynomial coefficients."""

    _symbol = "d"

    @classmethod
    def coordinate_differential(cls, variables: Sequence[str], i: int | str) -> "DifferentialForm":
        variables = tuple(variables)
        if isinstance(i, str):
            i = variables.index(i)
        return cls(variables, 1, {(i,): Polynomial.one(variables)})

    @classmethod
    def d_of(cls, f: Polynomial) -> "DifferentialForm":
        """Exterior derivative of a function."""
        return cls(f.variables, 1, {(i,): f.diff(i) for i in range(len(f.variables))})


def wedge(a: _Alternating, b: _Alternating) -> _Alternating:
    """Graded-commutative wedge product; grade overflow gives the zero tensor
    of the requested grade."""
    if type(a) is not type(b):
        raise TypeError("wedge requires two multivectors or two forms")
    if a.variables != b.variables:
        raise ChartMismatchError(f"chart mismatch: {a.variables} vs {b.variables}")
    grade = a.grade + b.grade
    if grade > len(a.variables):
        return type(a).zero(a.variables, grade)
    out: dict[tuple[int, ...], Polynomial] = {}
    for ka, pa in a.components.items():
        for kb, pb in b.components.items():
            merged = _sort_with_sign(ka + kb)
            if merged is None:
                continue
            key, sign = merged
            term = pa * pb
            if sign < 0:
                term = -term
            s = out.get(key)
            s = term if s is None else s + term
            if s.is_zero:
                out.pop(key, None)
            else:
                out[key] = s
    return type(a)._raw(a.variables, grade, out)


def wedge_power(a: _Alternating, k: int) -> _Alternating:
    """k-fold wedge power; ``k = 0`` gives the scalar 1."""
    if k < 0:
        raise ValueError("negative wedge power")
    out = type(a)(a.variables, 0, {(): Polynomial.one(a.variables)})
    for _ in range(k):
        out = wedge(out, a)
    return out


def _zeta_derivative(a: _Alternating, k: int) -> dict[tuple[int, ...], Polynomial]:
    """Left odd derivative: removes index k with the sign of moving it first."""
    out: dict[tuple[int, ...], Polynomial] = {}
    for idx, p in a.components.items():
        if k not in idx:
            continue
        pos = idx.index(k)
        rest = idx[:pos] + idx[pos + 1:]
        q = p if pos % 2 == 0 else -p
        if rest in out:
            q = out[rest] + q
        if q.is_zero:
            out.pop(rest, None)
        else:
            out[rest] = q
    return out


def _odd_contraction(a: MultivectorField, b: MultivectorField) -> dict:
    """``sum_k (d a / d zeta_k) wedge (d b / d x_k)`` on component maps."""
    n = len(a.variables)
    out: dict[tuple[int, ...], Polynomial] = {}
    for k in range(n):
        da = _zeta_derivative(a, k)
        if not da:
            continue
        for kb, pb in b.components.items():
            dpb = pb.diff(k)
            if dpb.is_zero:
                continue
            for ka, pa in da.items():
                merged = _sort_with_sign(ka + kb)
                if merged is None:
                    continue
                key, sign = merged
                term = pa * dpb
                if sign < 0:
                    term = -term
                s = out.get(key)
                s = term if s is None else s + term
                if s.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = s
    return out


def schouten_bracket(a: MultivectorField, b: MultivectorField) -> MultivectorField:
    """Schouten-Nijenhuis bracket.

    Computed as the canonical odd bracket on multivectors,
    ``[A, B] = (-1)^(a-1) S(A, B) - (-1)^(a(b-1)) S(B, A)`` with
    ``S(A, B) = sum_k (d A / d zeta_k) wedge (d B / d x_k)``; the module
    docstring lists the anchor identities this convention satisfies.
    """
    if not isinstance(a, MultivectorField) or not isinstance(b, MultivectorField):
        raise TypeError("schouten_bracket is defined for multivector fields")
    if a.variables != b.variables:
        raise ChartMismatchError(f"chart mismatch: {a.variables} vs {b.variables}")
    grade = a.grade + b.grade - 1
    if grade < 0:
        return MultivectorField.zero(a.variables, 0)
    first = _odd_contraction(a, b)
    second = _odd_contraction(b, a)
    sign_first = 1 if (a.grade - 1) % 2 == 0 else -1
    sign_second = -1 if (a.grade * (b.grade - 1)) % 2 == 0 else 1
    out: dict[tuple[int, ...], Polynomial] = {}
    for source, sign in ((first, sign_first), (second, sign_second)):
        for k, p in source.items():
            q = p if sign == 1 else -p
            s = out.get(k)
            s = q if s is None else s + q
            if s.is_zero:
                out.pop(k, None)
            else:
                out[k] = s
    return MultivectorField._raw(a.variables, grade, out)


def exterior_derivative(omega: DifferentialForm) -> DifferentialForm:
    if not isinstance(omega, DifferentialForm):
        raise TypeError("exterior derivative acts on differential forms")
    n = len(omega.variables)
    out: dict[tuple[int, ...], Polynomial] = {}
    for idx, p in omega.components.items():
        for k in range(n):
            if k in idx:
                continue
            dp = p.diff(k)
            if dp.is_zero:
                continue
            below = sum(1 for i in idx if i < k)
            key = tuple(sorted(idx + (k,)))
            term = dp if below % 2 == 0 else -dp
            s = out.get(key)
            s = term if s is None else s + term
            if s.is_zero:
                out.pop(key, None)
            else:
                out[key] = s
    return DifferentialForm._raw(omega.variables, omega.grade + 1, out)


def interior_product(x: MultivectorField, omega: DifferentialForm) -> DifferentialForm | Polynomial:
    """Contraction in the first slot; on a grade-1 form it returns the scalar
    pairing as a grade-0 form."""
    if x.grade != 1:
        raise ValueError("interior product takes a vector field")
    if x.variables != omega.variables:
        raise ChartMismatchError("chart mismatch in interior product")
    if omega.grade == 0:
        return DifferentialForm.zero(omega.variables, 0)
    coeff = x.coefficients()
    out: dict[tuple[int, ...], Polynomial] = {}
    for idx, p in omega.components.items():
        for pos, j in enumerate(idx):
            if coeff[j].is_zero:
                continue
            rest = idx[:pos] + idx[pos + 1:]
            term = coeff[j] * p
            if pos % 2 == 1:
                term = -term
            s = out.get(rest)
            s = term if s is None else s + term
            if s.is_zero:
                out.pop(rest, None)
            else:
                out[rest] = s
    return DifferentialForm._raw(omega.variables, omega.grade - 1, out)


def lie_derivative(x: MultivectorField, omega: DifferentialForm) -> DifferentialForm:
    """Cartan formula ``L_X = d iota_X + iota_X d``."""
    contracted_d = interior_product(x, exterior_derivative(omega))
    if omega.grade == 0:
        return contracted_d
    return exterior_derivative(interior_product(x, omega)) + contracted_d


def pair(alpha: DifferentialForm, x: MultivectorField) -> Polynomial:
    """``<alpha, X>`` for a grade-1 form and a vector field."""
    if alpha.grade != 1 or x.grade != 1:
        raise ValueError("pairing needs grade-1 arguments")
    contracted = interior_product(x, alpha)
    return contracted.components.get((), Polynomial.zero(alpha.variables))


class TensorValue:
    """Constant antisymmetric tensor: the value of a field at a point."""

    __slots__ = ("dimension", "grade", "components")

    def __init__(self, dimension: int, grade: int, components: Mapping[tuple[int, ...], object]):
        self.dimension = dimension
        self.grade = grade
        self.components = dict(components)

    @property
    def is_zero(self) -> bool:
        return not self.components

    def skew_matrix(self) -> list[list]:
        """Grade-2 value as a full skew matrix."""
        if self.grade != 2:
            raise ValueError("not a bivector value")
        mat = [[0] * self.dimension for _ in range(self.dimension)]
        for (i, j), v in self.components.items():
            mat[i][j] = v
            mat[j][i] = -v
        return mat

    def __eq__(self, other):
        return (isinstance(other, TensorValue) and self.dimension == other.dimension
                and self.grade == other.grade and self.components == other.components)

    def __repr__(self):
        return f"TensorValue[{self.grade}]({self.components})"
