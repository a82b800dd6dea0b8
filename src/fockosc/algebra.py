"""Exact arithmetic substrate: rationals, polynomials, bases, matrices.

Every scalar a caller reads is a `fractions.Fraction`, which already
guarantees the canonical reduced form (gcd 1, positive denominator) and
arbitrary precision.  Nothing in this package ever rounds.

A `Poly` is a dense coefficient vector over the rationals, lowest power
first, held as reduced Fractions or as an integer pair (d, xs), sum
xs[k] y^k / d, whichever was built first; the other form is built on its
first read and kept.  A `LaurentPoly` additionally admits negative powers
and is held as the triple (low, d, xs), y^low times a pair.  Both take
their arithmetic and `repr` from the private base `_Polynomial`, and
mixing the two types raises TypeError.  Polynomials
are expressed in a quasi-monomial basis 1, y, y(y-d), ... whose elements
vanish on the grid 0, d, 2d, ...; step d = 0 is the monomial basis 1, y,
y^2, ...  `basis_transplant` moves coefficient vectors between any two.

This module owns the integer form, one kernel per job: `_convolve`
multiplies two integer coefficient lists; `_newton` changes a pair to the
Newton basis at the nodes (r/s) nodes[i] or back, for the Taylor shift,
the basis change and the finite-difference lowering and stencil moves in
`realize`; `_dilate` takes a triple f to f((a/b) y), for the scale-mode
stencil moves and the pencil in `spectral`; `_laurent_sum` adds rational
multiples of triples over one lcm, for `+` and `-` of both polynomial
types and the sums in `realize`.  A chain of kernels builds no Fraction;
the reduced Fractions come once, where a caller reads `coeffs`.
`_over_lcm` puts Fractions over their common denominator, for a Poly
built from rationals and for `fock`.  `back_substitute` solves every
level of M v = E v on integers too, one `_row_ints` step per row, until
the running denominator passes `_INTEGER_BITS` and Fractions take over.
`exact` turns a parameter into a Fraction and refuses a float.  The
private base `_Value` gives every immutable value of the package a frozen
dataclass's `__init__`, `==`, `hash`, `repr` and guards on `__slots__` fields.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Iterable, Mapping, Sequence, Union

Rat = Union[int, Fraction]
_ZERO = Fraction(0)
# A Laurent triple (low, d, xs) is y^low * sum xs[k] y^k / d, with d != 0 and
# not necessarily reduced.
Triple = tuple[int, int, Sequence[int]]


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
# Immutable values
# ---------------------------------------------------------------------------


class _Value:
    """An immutable record whose fields are its class's `__slots__`, in order.

    It behaves as a frozen dataclass: `__init__` sets the fields from
    positional or keyword arguments, `==` holds only for the same type with
    equal `_key` (the field tuple unless a subclass names another), `hash`
    is the hash of `_key`, `repr` is `Type(field=value, ...)`, and setting
    or deleting an attribute raises AttributeError.  A subclass lists every
    field in its own `__slots__`; one that checks or converts its arguments
    defines `__init__` and calls this one.  The polynomials, `FockPoly`, and
    the bases, matrices, realizations, stencils and spectral reports all derive from it.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:  # the fields after the positional ones, in order; a leftover is an error
            args += tuple([kwargs.pop(name) for name in names[len(args) :] if name in kwargs])
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {names}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    @property
    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


# ---------------------------------------------------------------------------
# Dense polynomials
# ---------------------------------------------------------------------------


class _Polynomial(_Value):
    """`+ - * scale` and `repr` of both polynomial types.

    A subclass gives `_triple`, its value as a Laurent triple (low, d, xs),
    and the constructor `_of_triple(low, d, xs)`.  Operands of different
    types raise TypeError.  `==`, `hash` and immutability come from `_Value`.
    """

    __slots__ = ()

    def _sum(self, other, sign: int):
        if type(other) is not type(self):
            return NotImplemented
        return self._of_triple(*_laurent_sum([(1, *self._triple), (sign, *other._triple)]))

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        (la, da, xs), (lb, db, ys) = self._triple, other._triple
        return self._of_triple(la + lb, da * db, _convolve(xs, ys))

    def scale(self, k: Rat):
        k = exact(k, "k")
        if k == 1:
            return self
        low, d, xs = self._triple
        return self._of_triple(low, d * k.denominator, [k.numerator * x for x in xs])

    def __repr__(self) -> str:
        low, d, xs = self._triple
        terms = " + ".join(f"{Fraction(x, d)}*y^{low + k}" for k, x in enumerate(xs) if x)
        return f"{type(self).__name__}({terms or 0})"


class Poly(_Polynomial):
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

    The arithmetic reads and writes the pair.  `+`, `-`, `*`, `scale` and
    `-f` come from `_Polynomial` on the triple (0, d, xs), so a LaurentPoly
    operand raises TypeError; `shift_arg` and `basis_transplant` run
    `_newton`, and `derivative` and `monic` rewrite the pair.  Every scalar
    a caller reads (`coeffs`, `coeff`, `leading`, `==`, `hash`, `repr`) is
    a reduced Fraction; `degree` and `is_zero` read whichever form exists.
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

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The reduced coefficients, lowest power first, without trailing zeros."""
        cs = self._coeffs
        if cs is None:
            # A matrix column is mostly zeros; they share one Fraction and skip its gcd.
            d, xs = self._ints
            cs = tuple([Fraction(x, d) if x else _ZERO for x in xs])
            object.__setattr__(self, "_coeffs", cs)
        return cs

    _key = coeffs

    @property
    def ints(self) -> tuple[int, tuple[int, ...]]:
        """(d, xs) with self = sum xs[k] y^k / d, d > 0; see the class docstring."""
        pair = self._ints
        if pair is None:
            d, xs = _over_lcm(self._coeffs)
            pair = d, tuple(xs)
            object.__setattr__(self, "_ints", pair)
        return pair

    @property
    def _triple(self) -> Triple:
        return (0, *self.ints)

    @staticmethod
    def _of_triple(low: int, d: int, xs: Sequence[int]) -> "Poly":
        return Poly.from_ints(d, xs) if not low else Poly.from_ints(*_pair((low, d, xs)))

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
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        _, xs = self.ints
        return Poly.from_ints(xs[-1], xs)

    def __call__(self, point: Rat) -> Fraction:
        """Evaluate by Horner's rule, exactly."""
        point = exact(point, "point")
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def derivative(self) -> "Poly":
        d, xs = self.ints
        return Poly.from_ints(d, [k * x for k, x in enumerate(xs[1:], 1)])

    def shift_arg(self, offset: Rat) -> "Poly":
        """Return f(y + offset), expanded exactly, in O(n^2) integer operations.

        Classical Taylor shift: f(y + r/s) has the coefficients of f in the
        Newton basis (y - r/s)^k, found by `_newton` with step 1/s and node r.
        """
        offset = exact(offset, "offset")
        if offset == 0 or self.is_zero:
            return self
        return Poly.from_ints(*_newton(*self.ints, 1, offset.denominator, [offset.numerator] * self.degree))


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


def _newton(
    d: int, xs: Sequence[int], r: int, s: int, nodes: Sequence[int], expand=False
) -> tuple[int, list[int]]:
    """The pair (d, xs) in the basis prod_(i<k) (y - (r/s) nodes[i]), or back if `expand`.

    For f = sum xs[k] y^k / d, f(r t / s) = G(t) / (d s^n) for the integer
    G(t) = sum xs[k] w_k t^k, w_k = r^k s^(n-k).  Synthetic division by
    t - nodes[0], t - nodes[1], ... turns G into its Newton coefficients G';
    `expand` undoes it, running the same steps backwards (nested
    multiplication, nodes in reverse).  Coefficient k is G'_k / (d w_k).
    Each G'_k is a sum of G_j with j >= k times products of nodes, so r^k
    divides it exactly, and coefficient k is (G'_k / r^k) s^k over d s^n:
    one pair, free of the factor r^n, with no division when r = 1.
    """
    n = len(xs) - 1
    r_pows, s_pows = [1], [1]
    for _ in range(n):
        r_pows.append(r_pows[-1] * r)
        s_pows.append(s_pows[-1] * s)
    g = [x * (w * v) for x, w, v in zip(xs, r_pows, reversed(s_pows))]
    for i in reversed(range(n)) if expand else range(n):
        node = -nodes[i] if expand else nodes[i]
        for k in range(i, n) if expand else range(n - 1, i - 1, -1):
            g[k] += node * g[k + 1]
    if r != 1:
        g = [x // w for x, w in zip(g, r_pows)]
    return d * s_pows[n], [x * v for x, v in zip(g, s_pows)]


def _dilate(f: Triple, a: int, b: int) -> Triple:
    """The triple f((a/b) y) for integers a, b != 0: y^(low+k) gains (a/b)^low a^k b^(n-k) / b^n."""
    low, d, xs = f
    if not xs:  # kept as it is: b ** -1 would be a float
        return f
    head, tail = (a**low, b**low) if low >= 0 else (b**-low, a**-low)
    n = len(xs) - 1
    out = [x * head * a**k * b ** (n - k) if x else 0 for k, x in enumerate(xs)]
    return low, d * tail * b**n, out


def _pair(t: Triple) -> tuple[int, list[int]]:
    """The triple t as a pair (d, xs) at y^0; a negative power raises ValueError."""
    low, d, xs = t
    if low < 0:
        raise ValueError("Laurent polynomial has poles")
    return d, [0] * low + list(xs)


def _laurent_sum(parts: list[tuple[Rat, int, int, Sequence[int]]]) -> Triple:
    """sum c y^low xs / d over the parts (c, low, d, xs) as one triple, zero ends dropped.

    The denominator is the lcm of the d times c's denominator; each part is
    rescaled to it by one integer factor that carries c's numerator.
    """
    low = min((p[1] for p in parts), default=0)
    denom = lcm(*(c.denominator * d for c, _, d, _ in parts))
    out = [0] * max((p[1] + len(p[3]) - low for p in parts), default=0)
    for c, start, d, xs in parts:
        k = c.numerator * (denom // (c.denominator * d))
        for i, x in enumerate(xs, start - low):
            if x:
                out[i] += k * x
    while out and not out[-1]:
        out.pop()
    zeros = next((i for i, x in enumerate(out) if x), 0)
    return low + zeros if out else 0, denom, out[zeros:]


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


class LaurentPoly(_Polynomial):
    """Polynomial with integer (possibly negative) powers, stored as y^low * poly.

    `poly` is a `Poly` with a nonzero constant term (the zero Laurent
    polynomial has low 0 and the zero Poly), so each value has one
    representation.  `ints` is the triple (low, d, xs) with poly's pair,
    and `LaurentPoly.from_ints` builds a value from any triple.  `+`, `-`,
    `*` and `scale` come from `_Polynomial` on these triples (a Poly
    operand raises TypeError), `derivative` rewrites one, and the stencils
    in `realize` compute on them.  `terms` maps each power to its nonzero
    coefficient, in increasing power order.
    """

    __slots__ = ("low", "poly")

    def __init__(self, terms: Mapping[int, Rat] = {}):
        low, high = min(terms, default=0), max(terms, default=-1)
        value = LaurentPoly.from_ints(low, *Poly([terms.get(p, 0) for p in range(low, high + 1)]).ints)
        super().__init__(value.low, value.poly)

    @staticmethod
    def from_ints(low: int, d: int, xs: Sequence[int]) -> "LaurentPoly":
        """y^low * sum xs[k] y^k / d for integers d != 0 and xs, leading zeros moved into low."""
        zeros = next((i for i, x in enumerate(xs) if x), len(xs))
        out = object.__new__(LaurentPoly)
        object.__setattr__(out, "low", low + zeros if zeros < len(xs) else 0)
        object.__setattr__(out, "poly", Poly.from_ints(d, xs[zeros:]))
        return out

    @property
    def ints(self) -> Triple:
        """(low, d, xs) with self = y^low * sum xs[k] y^k / d, d > 0."""
        return (self.low, *self.poly.ints)

    _triple, _of_triple = ints, from_ints

    @property
    def terms(self) -> dict[int, Fraction]:
        return {self.low + i: c for i, c in enumerate(self.poly.coeffs) if c}

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def coeff(self, power: int) -> Fraction:
        return self.poly.coeff(power - self.low)

    def derivative(self) -> "LaurentPoly":
        low, d, xs = self.ints
        return LaurentPoly.from_ints(low - 1, d, [(low + k) * x for k, x in enumerate(xs)])


# ---------------------------------------------------------------------------
# Bases
# ---------------------------------------------------------------------------


class QuasiMonomial(_Value):
    """The basis 1, y, y(y-d), y(y-d)(y-2d), ... with step d.

    Step 0 is the monomial basis 1, y, y^2, ...
    """

    __slots__ = ("delta",)
    delta: Fraction

    def __init__(self, delta: Rat):
        super().__init__(exact(delta, "delta"))

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
            out = Poly.from_ints(*_newton(*out.ints, d.numerator, d.denominator, range(out.degree), expand))
    return out


# ---------------------------------------------------------------------------
# Exact matrices
# ---------------------------------------------------------------------------


class OperatorMatrix(_Value):
    """Operator on the flag space P_N, stored as the images of its basis.

    `columns[j]` is the image of basis element j, expressed in `basis` and
    not truncated, so an image that leaves P_N keeps its components above
    degree N.  Entries are exact rationals and the value is frozen.  `rows`
    is the derived (N+1)x(N+1) view of the part inside P_N.
    """

    __slots__ = ("columns", "basis")
    columns: tuple[Poly, ...]
    basis: QuasiMonomial

    def __init__(self, columns: Iterable[Poly], basis: QuasiMonomial):
        super().__init__(tuple(columns), basis)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """Entry (i, j) is coefficient i of column j, for i, j = 0..N."""
        return tuple(tuple(c.coeff(i) for c in self.columns) for i in range(len(self.columns)))


def preserves_flag(matrix: OperatorMatrix) -> bool:
    """True iff every column j has degree at most j.

    Columns are untruncated images, so this says the operator maps each
    P_n into P_n, i.e. it is triangular in the degree grading; an image
    that leaves P_N fails it by its degree.
    """
    return all(column.is_zero or column.degree <= j for j, column in enumerate(matrix.columns))


# A level of back_substitute runs on integers while its running denominator
# has at most this many bits, and its remaining rows on Fractions after.
# Measured on the N = 64 qdil matrices (q = 7/6, 2 vCPU, CPython 3.11.7):
# with no switch the one-term hf rows solve 2.5-3.3x slower than on
# Fractions; at 2048 bits they are level with Fractions, at 4096 14-27 %
# slower.  Two-term hg rows gain from integers at any size (21-23 % faster
# with no switch than at 2048).  Benchmark diff and fd levels stay under 610 bits.
_INTEGER_BITS = 2048


def _row_ints(
    entries: list[tuple[int, int]], xs: list[int], fs: list[int], f_next: int, z: int, p: int
) -> tuple[int, int]:
    """Row i of an integer level: (X_i, f_i) with v_i = X_i / (F_(i+1) f_i) and f_i > 0.

    v_i = z sum_j A_ij v_j / p over the row's entries (j, A_ij), j > i, with
    v_j = xs[j] / fs[j].  Each F_j divides f_next = F_(i+1), so the sum is
    t / F_(i+1) for the integer t = z sum_j A_ij X_j (F_(i+1) // F_j), taken
    over the nonzero X_j; gcd(t, p) is divided out.
    """
    t = z * sum([a * xs[j] * (f_next // fs[j]) for j, a in entries if xs[j]])
    g = gcd(t, p)
    if p < 0:
        g = -g
    return t // g, p // g


def back_substitute(matrix: OperatorMatrix) -> list[tuple[Fraction, Poly]]:
    """Every level (E_n, v_n) of M v = E v, with v_n monic of degree n.

    Level n has E_n = M[n][n] and is solved upward,
    v_i = sum_(j>i) (M[i][j] / (E_n - M[i][i])) v_j.  The divisor vanishes
    only where level n repeats the eigenvalue of a lower level i.  Before any
    level is solved, a matrix that leaves the flag raises NotTriangularError,
    and the first such pair (lowest n, then highest i) raises DegenerateSpectrumError.

    Row i is read once over the lcm R_i of its entries' denominators, as
    integers A_ij = R_i M[i][j], so v_i = z sum_j A_ij v_j / p_i with
    E_n = u / z and p_i = u R_i - z A_ii.  A level holds v_j = X_j / F_j
    over a running denominator, F_n = 1 and F_i = F_(i+1) f_i, where
    `_row_ints` divides gcd(t, p_i) out of each row against its own divisor
    only.  Each coefficient is built once, as Fraction(X_i, F_i).  Once F_i
    has more than `_INTEGER_BITS` bits, the level's remaining rows run on
    Fractions, v_i = sum_j Fraction(z A_ij, p_i) v_j: on the one-term rows
    of a deformed (qdil) level, their cross-reductions cost less than one
    gcd of X_i and F_i that large.  Only a nonzero entry times a nonzero v_j
    costs arithmetic, O(b N^2) operations for a matrix of upper bandwidth b.
    """
    if not preserves_flag(matrix):
        raise NotTriangularError("matrix does not preserve the flag")
    columns = matrix.columns
    diagonal = [column.coeff(i) for i, column in enumerate(columns)]
    # Compared as (numerator, denominator): hashing a Fraction costs a modular pow.
    pairs = [(e.numerator, e.denominator) for e in diagonal]
    if len(set(pairs)) < len(pairs):  # the first repeat has one earlier occurrence
        n = next(n for n, pair in enumerate(pairs) if pair in pairs[:n])
        raise DegenerateSpectrumError((pairs.index(pairs[n]), n), diagonal[n])
    above = [[] for _ in columns]
    for j, column in enumerate(columns):
        for i, e in enumerate(column.coeffs[:j]):
            if e:
                above[i].append((j, e))
    rows = []
    for i, entries in enumerate(above):
        r, (a, *scaled) = _over_lcm([diagonal[i], *(e for _, e in entries)])
        rows.append((r, a, [(j, x) for (j, _), x in zip(entries, scaled)]))
    levels = []
    for n, eigenvalue in enumerate(diagonal):
        xs, fs = [0] * len(columns), [1] * len(columns)
        xs[n] = 1
        en, ed = pairs[n]
        i = n - 1
        while i >= 0 and fs[i + 1].bit_length() <= _INTEGER_BITS:
            r, a, entries = rows[i]
            xs[i], f = _row_ints(entries, xs, fs, fs[i + 1], ed, en * r - ed * a)
            fs[i] = fs[i + 1] * f
            i -= 1
        v = [Fraction(0)] * (i + 1) + [Fraction(x, f) for x, f in zip(xs[i + 1 : n + 1], fs[i + 1 : n + 1])]
        for i in range(i, -1, -1):
            r, a, entries = rows[i]
            p = en * r - ed * a
            terms = [Fraction(ed * c, p) * v[j] for j, c in entries if j <= n and v[j]]
            if terms:
                v[i] = sum(terms[1:], terms[0])
        levels.append((eigenvalue, Poly(v)))
    return levels
