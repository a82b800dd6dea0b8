"""Exact arithmetic substrate: rationals, polynomials, bases, matrices.

Every scalar a caller reads is a `fractions.Fraction`, which already
guarantees the canonical reduced form (gcd 1, positive denominator) and
arbitrary precision.  Nothing in this package ever rounds.

A `Poly` is a dense coefficient vector over the rationals, lowest power
first, held as reduced Fractions or as an integer pair (d, xs), sum
xs[k] y^k / d, whichever was built first; the other form is built on its
first read and kept.  A `LaurentPoly` additionally admits negative powers
and is stored as y^low times a Poly.  Polynomials are expressed in a
quasi-monomial basis 1, y, y(y-d), y(y-d)(y-2d), ... whose elements vanish
on the grid 0, d, 2d, ...; step d = 0 is the monomial basis 1, y, y^2, ...
`basis_transplant` moves coefficient vectors between any two of them.

The integer kernels read and write the pair: `_convolve` multiplies two
integer coefficient lists, for `Poly.__mul__` and the stencils in
`realize`; `_newton_ints` is the integer stage of the uncached Newton-basis
kernel `_newton`, which `basis_transplant` and `Poly.shift_arg` run, and
takes integer numerators, so the finite-difference lowering and the stencil
moves in `realize` run it on their own integers.  A chain of kernels builds
no Fraction; the reduced Fractions come once, where a caller reads
`coeffs`.  `_over_lcm` puts Fractions over their common denominator, for a
Poly built from rationals and for `fock`.  `exact` turns a parameter into
a Fraction and refuses a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Collection, Iterable, Mapping, Sequence, Union

Rat = Union[int, Fraction]


def exact(value: Rat, name: str) -> Fraction:
    """value as a Fraction; a float raises TypeError.

    A float holds the nearest binary fraction, not the decimal written, so
    0.1 would become 3602879701896397/36028797018963968.
    """
    if isinstance(value, float):
        raise TypeError(f'{name} must be exact, not the float {value!r}; pass Fraction("{value!r}")')
    return Fraction(value)


class DegenerateSpectrumError(ValueError):
    """Two diagonal entries coincide where distinct eigenvalues are required."""

    def __init__(self, levels: Sequence[int], value: Fraction):
        self.levels = tuple(levels)
        self.value = value
        super().__init__(f"eigenvalue {value} occurs at levels {self.levels}")


class NotTriangularError(ValueError):
    """A matrix expected to be triangular in its basis ordering is not."""


# ---------------------------------------------------------------------------
# Dense polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Dense univariate polynomial over the rationals, lowest power first.

    Immutable.  It starts in one of two exact forms and builds the other on
    its first read, once, and keeps it (two threads that build it at once
    build equal values):

    * `coeffs`, the reduced Fractions.  The tuple never has a trailing zero;
      the zero polynomial has an empty tuple and degree None (an explicit
      sentinel, so no arithmetic can be done on it by accident).
    * `ints`, a pair (d, xs) meaning sum xs[k] y^k / d, with d > 0 and no
      trailing zero but not necessarily reduced.  `Poly.from_ints` builds a
      Poly from such a pair.

    The integer kernels read and write the pair: `*` convolves the two
    operands' integers in `_convolve`, and `shift_arg` and `basis_transplant`
    run `_newton`, whose integer stage `_newton_ints` the finite-difference
    generators and the stencils share.  Every scalar a caller reads
    (`coeffs`, `coeff`, `leading`, `==`, `hash`, `repr`) is a reduced
    Fraction; `degree` and `is_zero` read whichever form exists.  `+`, `-`,
    `scale` and `derivative` spend rational arithmetic only on nonzero
    coefficients.
    """

    __slots__ = ("_coeffs", "_ints")

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [c if type(c) is Fraction else exact(c, "coefficient") for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))
        object.__setattr__(self, "_ints", None)

    @staticmethod
    def from_ints(d: int, xs: Iterable[int]) -> "Poly":
        """The Poly sum xs[k] y^k / d for integers d != 0 and xs, held as that pair."""
        if not d:
            raise ZeroDivisionError("Poly denominator is zero")
        xs = list(xs)
        while xs and not xs[-1]:
            xs.pop()
        if d < 0:
            d, xs = -d, [-x for x in xs]
        out = object.__new__(Poly)
        object.__setattr__(out, "_coeffs", None)
        object.__setattr__(out, "_ints", (d if xs else 1, tuple(xs)))
        return out

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The reduced coefficients, lowest power first, without trailing zeros."""
        cs = self._coeffs
        if cs is None:
            d, xs = self._ints
            cs = tuple([Fraction(x, d) for x in xs])
            object.__setattr__(self, "_coeffs", cs)
        return cs

    @property
    def ints(self) -> tuple[int, tuple[int, ...]]:
        """(d, xs) with self = sum xs[k] y^k / d, d > 0; see the class docstring."""
        pair = self._ints
        if pair is None:
            d, xs = _over_lcm(self._coeffs)
            pair = d, tuple(xs)
            object.__setattr__(self, "_ints", pair)
        return pair

    @staticmethod
    def one() -> "Poly":
        return Poly.from_ints(1, (1,))

    @staticmethod
    def monomial(power: int, coeff: Rat = 1) -> "Poly":
        if power < 0:
            raise ValueError("monomial power must be non-negative")
        coeff = exact(coeff, "coefficient")
        return Poly.from_ints(coeff.denominator, [0] * power + [coeff.numerator])

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        cs = self._coeffs
        n = len(cs if cs is not None else self._ints[1])
        return n - 1 if n else None

    @property
    def is_zero(self) -> bool:
        return self.degree is None

    def coeff(self, power: int) -> Fraction:
        cs = self.coeffs
        if 0 <= power < len(cs):
            return cs[power]
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        """Rescale so the leading coefficient is 1."""
        lead = self.leading
        return Poly([c / lead for c in self.coeffs])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        out = list(a) + list(b[len(a) :])
        for i, c in enumerate(b[: len(a)]):
            if c:
                out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        out = list(a) + [-c if c else c for c in b[len(a) :]]
        for i, c in enumerate(b[: len(a)]):
            if c:
                out[i] -= c
        return Poly(out)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly()
        (da, xs), (db, ys) = self.ints, other.ints
        return Poly.from_ints(da * db, _convolve(xs, ys))

    def scale(self, k: Rat) -> "Poly":
        if k == 1:
            return self
        k = Fraction(k)
        return Poly([k * c if c else c for c in self.coeffs] if k else ())

    def __call__(self, point: Rat) -> Fraction:
        """Evaluate by Horner's rule, exactly."""
        point = Fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c if c else c for i, c in enumerate(self.coeffs[1:], 1)])

    def shift_arg(self, offset: Rat) -> "Poly":
        """Return f(y + offset), expanded exactly, in O(n^2) integer operations.

        Classical Taylor shift: f(y + r/s) has the coefficients of f in the
        Newton basis (y - r/s)^k, found by `_newton` with step 1/s and node r.
        """
        offset = Fraction(offset)
        if offset == 0 or self.is_zero:
            return self
        return _newton(self, 1, offset.denominator, [offset.numerator] * self.degree)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        terms = [f"{c}*y^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "Poly(" + " + ".join(terms) + ")"


def _over_lcm(coeffs: Collection[Fraction]) -> tuple[int, list[int]]:
    """(D, [c * D for c in coeffs]) with D the lcm of the denominators."""
    d = lcm(*(c.denominator for c in coeffs))
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


def _convolve(xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """The coefficients of (sum xs[i] y^i)(sum ys[j] y^j); a zero coefficient costs nothing."""
    out = [0] * (len(xs) + len(ys) - 1)
    ys = [(j, b) for j, b in enumerate(ys) if b]
    for i, a in enumerate(xs):
        if a:
            for j, b in ys:
                out[i + j] += a * b
    return out


def _newton(f: Poly, r: int, s: int, nodes: Sequence[int], expand=False) -> Poly:
    """Monomial coefficients to those in the basis prod_(i<k) (y - (r/s) nodes[i]), or back.

    f is nonzero.  The integers G' come from `_newton_ints` on f's pair
    (D, xs), and coefficient k is G'_k / (D w_k), w_k = r^k s^(n-k).  Each
    G'_k is a sum of G_j = xs[j] w_j with j >= k times products of nodes, so
    r^k divides it exactly, and coefficient k is (G'_k / r^k) s^k over D s^n:
    one pair, free of the factor r^n, with no Fraction built.
    """
    denom, xs = f.ints
    _, g = _newton_ints(xs, r, s, nodes, expand)
    out, r_pow, s_pow = [], 1, 1
    for x in g:
        out.append(x // r_pow * s_pow)
        r_pow *= r
        s_pow *= s
    return Poly.from_ints(denom * s_pow // s, out)


def _newton_ints(
    xs: Sequence[int], r: int, s: int, nodes: Sequence[int], expand=False
) -> tuple[list[int], list[int]]:
    """The integer stage of `_newton`: (weights w, Newton coefficients G').

    With f = sum xs[k] y^k / D for any D, f(r t / s) = G(t) / (D s^n) for the
    integer G(t) = sum xs[k] w_k t^k, w_k = r^k s^(n-k).  Synthetic division by
    t - nodes[0], t - nodes[1], ... turns G into its Newton coefficients G';
    `expand` undoes it, running the same steps backwards (nested
    multiplication, nodes in reverse).
    """
    n = len(xs) - 1
    weights = [r**k * s ** (n - k) for k in range(n + 1)]
    g = [x * w for x, w in zip(xs, weights)]
    for i in reversed(range(n)) if expand else range(n):
        node = -nodes[i] if expand else nodes[i]
        for k in range(i, n) if expand else range(n - 1, i - 1, -1):
            g[k] += node * g[k + 1]
    return weights, g


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


class LaurentPoly:
    """Polynomial with integer (possibly negative) powers, stored as y^low * poly.

    `poly` is a `Poly` with a nonzero constant term (the zero Laurent
    polynomial has low 0 and the zero Poly), so each value has one
    representation, and every operation is the matching `Poly` operation
    plus a change of `low`.  `terms` maps each power to its nonzero
    coefficient, in increasing power order.  Stencils move and compose
    their coefficients on integers, in `realize`.
    """

    __slots__ = ("low", "poly")

    def __new__(cls, terms: Mapping[int, Rat] = {}):
        low, high = min(terms, default=0), max(terms, default=-1)
        return cls._of(low, Poly([terms.get(p, 0) for p in range(low, high + 1)]))

    @staticmethod
    def _of(low: int, poly: Poly) -> "LaurentPoly":
        """y^low * poly, with the zero low-order coefficients of poly moved into low."""
        zeros = next((i for i, c in enumerate(poly.coeffs) if c), 0)
        out = object.__new__(LaurentPoly)
        object.__setattr__(out, "low", low + zeros if poly.coeffs else 0)
        object.__setattr__(out, "poly", Poly(poly.coeffs[zeros:]) if zeros else poly)
        return out

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("LaurentPoly is immutable")

    @property
    def terms(self) -> dict[int, Fraction]:
        return {self.low + i: c for i, c in enumerate(self.poly.coeffs) if c}

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def coeff(self, power: int) -> Fraction:
        return self.poly.coeff(power - self.low)

    def _padded(self, low: int) -> Poly:
        """The Poly P with self = y^low * P, for low <= self.low."""
        return Poly((Fraction(0),) * (self.low - low) + self.poly.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and (self.low, self.poly) == (other.low, other.poly)

    def __hash__(self) -> int:
        return hash((self.low, self.poly))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        low = min(self.low, other.low)
        return LaurentPoly._of(low, self._padded(low) + other._padded(low))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of(self.low, -self.poly)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly._of(self.low + other.low, self.poly * other.poly)

    def scale(self, k: Rat) -> "LaurentPoly":
        return LaurentPoly._of(self.low, self.poly.scale(k))

    def derivative(self) -> "LaurentPoly":
        # (y^l P)' = l y^(l-1) P + y^l P'
        return LaurentPoly._of(self.low - 1, self.poly.scale(self.low)) + LaurentPoly._of(
            self.low, self.poly.derivative()
        )

    def __repr__(self) -> str:
        if self.is_zero:
            return "LaurentPoly(0)"
        terms = [f"{c}*y^{p}" for p, c in self.terms.items()]
        return "LaurentPoly(" + " + ".join(terms) + ")"


# ---------------------------------------------------------------------------
# Bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuasiMonomial:
    """The basis 1, y, y(y-d), y(y-d)(y-2d), ... with step d.

    Step 0 is the monomial basis 1, y, y^2, ...
    """

    delta: Fraction

    def to_json(self) -> dict:
        if self.delta == 0:
            return {"kind": "monomial"}
        return {"kind": "quasimonomial", "delta": str(self.delta)}


def basis_element(basis: QuasiMonomial, n: int) -> Poly:
    """The n-th basis element y(y-d)(y-2d)...(y-(n-1)d), expanded in monomials.

    The empty product (n = 0) is 1; the result is always monic of degree
    exactly n and vanishes at the grid points 0, d, ..., (n-1)d.  It is y^n
    read in the basis and changed to monomials; n < 0 is a ValueError.
    """
    return basis_transplant(Poly.monomial(n), basis, QuasiMonomial(0))


def basis_transplant(coeffs: Poly, from_basis: QuasiMonomial, to_basis: QuasiMonomial) -> Poly:
    """Reinterpret a coefficient vector from one basis in another.

    The input is read in `from_basis`, the same abstract element is
    re-expanded in `to_basis`, and the resulting coefficient vector is
    returned as a Poly.  The round trip from -> to -> from is the identity.
    Either side with step 0 is the monomial basis and costs nothing; any
    other is the Newton basis at the nodes 0, d, 2d, ..., one `_newton` pass.
    """
    out = coeffs
    for basis, expand in ((from_basis, True), (to_basis, False)):
        d = basis.delta
        if d != 0 and not out.is_zero:
            out = _newton(out, d.numerator, d.denominator, range(out.degree), expand)
    return out


# ---------------------------------------------------------------------------
# Exact matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorMatrix:
    """Operator on the flag space P_N, stored as the images of its basis.

    `columns[j]` is the image of basis element j, expressed in `basis` and
    not truncated, so an image that leaves P_N keeps its components above
    degree N.  Entries are exact rationals and the value is frozen.  `rows`
    is the derived (N+1)x(N+1) view of the part inside P_N.
    """

    columns: tuple[Poly, ...]
    basis: QuasiMonomial

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))

    @property
    def size(self) -> int:
        return len(self.columns)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """Entry (i, j) is coefficient i of column j, for i, j = 0..N."""
        return tuple(
            tuple(column.coeff(i) for column in self.columns) for i in range(self.size)
        )


def preserves_flag(matrix: OperatorMatrix) -> bool:
    """True iff every column j has degree at most j.

    Columns are untruncated images, so this says the operator maps each
    P_n into P_n, i.e. it is triangular in the degree grading; an image
    that leaves P_N fails it by its degree.
    """
    return all(column.is_zero or column.degree <= j for j, column in enumerate(matrix.columns))


def back_substitute(
    matrix: OperatorMatrix, weights: Sequence[Rat] | None = None
) -> list[tuple[Fraction, Poly]]:
    """Every level (E_n, v_n) of M v = E W v, with v_n monic of degree n.

    W is diagonal with entries `weights` (all 1 by default, the plain
    eigenproblem M v = E v); the pencil solver passes w_i = q^(s i).  A
    matrix that leaves the flag raises NotTriangularError before any level
    is solved.  Level n has E_n = M[n][n] / w_n and is solved upward,
    v_i = sum_(j>i) (M[i][j] / (E_n w_i - M[i][i])) v_j.  The divisor
    w_i (E_n - E_i) vanishes only where level n repeats the eigenvalue of a
    lower level i; the first such (i, n) raises DegenerateSpectrumError.
    The nonzero entries above the diagonal are listed once, and only a
    nonzero entry times a nonzero v_j costs rational arithmetic, O(b N^2)
    for a matrix of upper bandwidth b.
    """
    if not preserves_flag(matrix):
        raise NotTriangularError("matrix does not preserve the flag")
    columns = matrix.columns
    w = weights or [1] * len(columns)
    diagonal = [column.coeff(i) for i, column in enumerate(columns)]
    above = [[] for _ in columns]
    for j, column in enumerate(columns):
        for i, e in enumerate(column.coeffs[:j]):
            if e:
                above[i].append((j, e))
    levels = []
    for n, pivot in enumerate(diagonal):
        eigenvalue = pivot / w[n]
        v = [Fraction(0)] * len(columns)
        v[n] = Fraction(1)
        for i in range(n - 1, -1, -1):
            denom = eigenvalue * w[i] - diagonal[i]
            if denom == 0:
                raise DegenerateSpectrumError((i, n), eigenvalue)
            terms = [entry / denom * v[j] for j, entry in above[i] if v[j]]
            if terms:
                v[i] = sum(terms[1:], terms[0])
        levels.append((eigenvalue, Poly(v)))
    return levels
