"""Graded antisymmetric tensors with polynomial coefficients.

Components are stored over strictly increasing index tuples, so antisymmetry
is normalized away and equality of component maps is equality of tensors.
``MultivectorField`` is contravariant (wedges of coordinate vector fields),
``DifferentialForm`` covariant (wedges of coordinate differentials).

Every graded operation is built from three private primitives:

* ``_accumulate``: ``out[key] += term``, dropping a key whose sum is zero.
  Every sum goes through it: the constructor, ``+`` and the two below.
* ``_add_products``: adds ``a_I * b_J`` at the sorted merge of ``I + J``
  with the sign of that sort (``_sort_with_sign``); a repeated index gives
  nothing. ``wedge`` is this product, ``exterior_derivative`` is
  ``sum_k dx_k wedge d_k omega``, and the Schouten bracket sums the odd
  contractions, the products of ``d A / d zeta_k`` with ``d_k B``.
* ``_zeta_derivative``: the left odd derivative ``d / d zeta_k``, which
  removes index ``k`` with the sign of moving it first. It feeds the odd
  contraction and ``_contract``, ``sum_j x^j d t / d zeta_j``, which is
  ``interior_product(X, omega)`` and ``pi.sharp(alpha)``.

Sign conventions used throughout the package, fixed here once:

* the Schouten bracket restricts to the Lie bracket on vector fields and
  satisfies ``[X, f] = X(f)``, ``[P, Q] = -(-1)^((p-1)(q-1)) [Q, P]``;
* a bivector ``pi`` has component matrix ``PI[i][j] = pi(dx_i, dx_j)``
  (upper triangle = stored components) and its sharp map is
  ``sharp(alpha) = PI^T alpha``, so that ``sharp(df)`` is the Hamiltonian
  vector field of ``f`` and ``{f, g} = pi(df, dg) = sharp(df)(g)``;
* ``interior_product`` contracts the first slot, ``(iota_X omega)_I =
  sum_j X^j omega_(jI)``, and is an antiderivation like ``d``.
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


def _accumulate(out: dict, key: tuple[int, ...], term: Polynomial) -> None:
    """``out[key] += term``; a key whose sum is zero is dropped."""
    s = out.get(key)
    if s is not None:
        term = s + term
    if term.is_zero:
        out.pop(key, None)
    else:
        out[key] = term


def _add_products(out: dict, a: Mapping, b: Mapping) -> dict:
    """Add ``a_I * b_J`` to ``out`` at the sorted merge of ``I + J``, with the
    sign of the sort, for every pair of components without a shared index;
    returns ``out``."""
    for ka, pa in a.items():
        for kb, pb in b.items():
            merged = _sort_with_sign(ka + kb)
            if merged is not None:
                key, sign = merged
                term = pa * pb
                _accumulate(out, key, term if sign == 1 else -term)
    return out


def _zeta_derivative(a: "_Alternating", k: int, sign: int = 1) -> dict[tuple[int, ...], Polynomial]:
    """Left odd derivative, times ``sign``: removes index k with the sign of
    moving it first. Distinct index tuples stay distinct, so nothing is
    summed."""
    out = {}
    for idx, p in a.components.items():
        if k in idx:
            pos = idx.index(k)
            out[idx[:pos] + idx[pos + 1:]] = p if (pos % 2 == 0) == (sign == 1) else -p
    return out


def _contract(x: "_Alternating", t: "_Alternating") -> dict[tuple[int, ...], Polynomial]:
    """``sum_j x^j d t / d zeta_j`` for a grade-1 ``x``, over ascending ``j``."""
    out: dict[tuple[int, ...], Polynomial] = {}
    for (j,), xj in sorted(x.components.items()):
        for rest, p in _zeta_derivative(t, j).items():
            _accumulate(out, rest, xj * p)
    return out


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
                _accumulate(clean, key, poly if sign == 1 else -poly)
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
            _accumulate(out, k, p)
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
        """``sharp(alpha) = PI^T alpha = sum_i alpha_i d pi / d zeta_i`` for a
        grade-1 form, read off the stored components: ``sharp(df)`` is the
        Hamiltonian vector field of ``f``. Each coordinate sums its terms over
        ascending ``i``. A vector field in place of the form raises
        ``TypeError``, as in ``interior_product``."""
        if not isinstance(alpha, DifferentialForm):
            raise TypeError("sharp takes a differential form")
        if self.grade != 2 or alpha.grade != 1:
            raise ValueError("sharp needs a bivector and a grade-1 form")
        if alpha.variables != self.variables:
            raise ChartMismatchError("chart mismatch in sharp")
        return MultivectorField._raw(self.variables, 1,
                                     dict(sorted(_contract(alpha, self).items())))

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
    return type(a)._raw(a.variables, grade, _add_products({}, a.components, b.components))


def wedge_power(a: _Alternating, k: int) -> _Alternating:
    """k-fold wedge power; ``k = 0`` gives the scalar 1."""
    if k < 0:
        raise ValueError("negative wedge power")
    out = type(a)(a.variables, 0, {(): Polynomial.one(a.variables)})
    for _ in range(k):
        out = wedge(out, a)
    return out


def _partials(a: _Alternating, k: int) -> dict[tuple[int, ...], Polynomial]:
    """The nonzero ``d_k`` of the components of ``a``."""
    return {idx: dp for idx, p in a.components.items() if not (dp := p.diff(k)).is_zero}


def _odd_contraction(out: dict, a: MultivectorField, b: MultivectorField, sign: int) -> None:
    """Add ``sign * sum_k (d a / d zeta_k) wedge (d b / d x_k)`` to ``out``."""
    for k in range(len(a.variables)):
        da = _zeta_derivative(a, k, sign)
        if da:
            _add_products(out, da, _partials(b, k))


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
    out: dict[tuple[int, ...], Polynomial] = {}
    _odd_contraction(out, a, b, 1 if a.grade % 2 else -1)
    _odd_contraction(out, b, a, 1 if (a.grade * (b.grade - 1)) % 2 else -1)
    return MultivectorField._raw(a.variables, grade, out)


def exterior_derivative(omega: DifferentialForm) -> DifferentialForm:
    """``d omega = sum_k dx_k wedge d_k omega``."""
    if not isinstance(omega, DifferentialForm):
        raise TypeError("exterior derivative acts on differential forms")
    one = Polynomial.one(omega.variables)
    out: dict[tuple[int, ...], Polynomial] = {}
    for k in range(len(omega.variables)):
        _add_products(out, {(k,): one}, _partials(omega, k))
    return DifferentialForm._raw(omega.variables, omega.grade + 1, out)


def interior_product(x: MultivectorField, omega: DifferentialForm) -> DifferentialForm:
    """Contraction of a vector field into the first slot of a form,
    ``iota_X omega = sum_j X^j d omega / d zeta_j``; a grade-1 form gives the
    pairing as a grade-0 form and a grade-0 form gives zero. Any other kind
    of argument raises ``TypeError``."""
    if not (isinstance(x, MultivectorField) and x.grade == 1
            and isinstance(omega, DifferentialForm)):
        raise TypeError("interior product takes a vector field and a differential form")
    if x.variables != omega.variables:
        raise ChartMismatchError("chart mismatch in interior product")
    if omega.grade == 0:
        return DifferentialForm.zero(omega.variables, 0)
    return DifferentialForm._raw(omega.variables, omega.grade - 1, _contract(x, omega))


def lie_derivative(x: MultivectorField, omega: DifferentialForm) -> DifferentialForm:
    """Cartan formula ``L_X = d iota_X + iota_X d``."""
    contracted_d = interior_product(x, exterior_derivative(omega))
    if omega.grade == 0:
        return contracted_d
    return exterior_derivative(interior_product(x, omega)) + contracted_d


def pair(alpha: DifferentialForm, x: MultivectorField) -> Polynomial:
    """``<alpha, X> = iota_X alpha`` for a grade-1 form and a vector field,
    in that order; swapped arguments raise ``TypeError``."""
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
