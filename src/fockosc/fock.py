"""The (q-deformed) Heisenberg-Weyl algebra in normal-ordered form.

Elements are finite sums of normal-ordered words b^k a^m with exact
rational coefficients, where the generators satisfy a*b - q*b*a = 1
(q = 1 gives the undeformed algebra).  The deformation parameter q is
attached to every element; combining elements with different q is a
usage error and raises.

Products reduce to normal ordering a^m b^k, which the q-deformed Wick
theorem (Katriel & Kibler, J. Phys. A 25, 1992) gives in closed form

    a^m b^k = sum_j [m j] [k j] [j]! q^((m-j)(k-j)) b^(k-j) a^(m-j)

with the Gaussian binomials [m j], {n} = 1 + q + ... + q^(n-1) and
[j]! = {1}{2}...{j}.

Every product runs through one integer core, `_product_ints(x, y)`: the
coefficients of x, of y and of the Wick table go over common denominators,
and the terms of x*y add up on a flat word grid, word b^k a^m at index
k*W + m with W = a-degree(x) + a-degree(y) + 1.  Contracting j pairs takes
b^k a^m to b^(k-j) a^(m-j), j*(W + 1) places back, and the grid lists the
words already sorted.  x*y and y*x share that grid, so `q_bracket` forms
x*y - lam*y*x as one integer per word and builds its `Fraction`s only then.

On number states the generators act as a e_j = {j} e_(j-1) and
b e_j = e_(j+1) (Arik & Coon, J. Math. Phys. 17, 1976).  Every
realization in `realize` has such a basis of its own flag: e_j = y^j for
the differential and dilatation realizations, and the quasi-monomial
y(y-d)...(y-(j-1)d) for the finite-difference one.  So `number_matrix`
writes the matrix of an element straight from its words,
b^k a^m e_j = {j}{j-1}...{j-m+1} e_(j-m+k).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, NamedTuple

from .algebra import OperatorMatrix, Poly, QuasiMonomial, Rat, _over_lcm, _Value, exact

Word = tuple[int, int]  # (power of b, power of a)
Grid = tuple[int, int, list[int]]  # (d, W, xs): sum xs[k*W + m] b^k a^m / d


class AlgebraMismatchError(ValueError):
    """Two elements with different deformation parameters were combined."""


class NotScalarError(ValueError):
    """An expression expected to be a multiple of the identity is not."""


def q_number(n: int, q: Rat) -> Fraction:
    """Deformed integer {n} = 1 + q + ... + q^(n-1), exactly; {n} = n at q = 1.

    The sum form is total: it needs no division and is defined at q = 1
    ({0} = 0).
    """
    if n < 0:
        raise ValueError("q-number index must be non-negative")
    q = exact(q, "q")
    acc, power = Fraction(0), Fraction(1)
    for _ in range(n):
        acc += power
        power *= q
    return acc


class FockPoly(_Value):
    """Normal-ordered element sum c_{k,m} b^k a^m of the algebra with parameter q."""

    __slots__ = ("q", "terms")
    __hash__ = None  # `terms` is a dict

    def __init__(self, terms: Mapping[Word, Rat], q: Rat = 1):
        kept: dict[Word, Fraction] = {}
        for (k, m), c in terms.items():
            if k < 0 or m < 0:
                raise ValueError("word powers must be non-negative")
            c = c if type(c) is Fraction else exact(c, f"coefficient of b^{k} a^{m}")
            if c:
                kept[(k, m)] = c
        object.__setattr__(self, "q", exact(q, "q"))
        object.__setattr__(self, "terms", dict(sorted(kept.items())))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def a(q: Rat = 1) -> "FockPoly":
        return FockPoly({(0, 1): 1}, q)

    @staticmethod
    def word(k: int, m: int, coeff: Rat = 1, q: Rat = 1) -> "FockPoly":
        return FockPoly({(k, m): coeff}, q)

    @staticmethod
    def _of_grid(q: Fraction, d: int, width: int, grid: list[int]) -> "FockPoly":
        """sum grid[k*width + m] b^k a^m / d for d > 0 and an exact q: one Fraction per
        nonzero word, no re-validation and no sort, since the grid lists the words in order."""
        out = object.__new__(FockPoly)
        object.__setattr__(out, "q", q)
        object.__setattr__(out, "terms", {divmod(i, width): Fraction(c, d) for i, c in enumerate(grid) if c})
        return out

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, k: int, m: int) -> Fraction:
        return self.terms.get((k, m), Fraction(0))

    def a_degree(self) -> int:
        """Highest power of a in any word (0 for the zero element)."""
        return max((m for (_, m) in self.terms), default=0)

    def b_degree(self) -> int:
        """Highest power of b in any word (0 for the zero element)."""
        return max((k for (k, _) in self.terms), default=0)

    def as_scalar(self) -> Fraction:
        """The scalar value, if this element is a multiple of the identity."""
        rest = {w: c for w, c in self.terms.items() if w != (0, 0)}
        if rest:
            raise NotScalarError(f"non-identity words survive: {sorted(rest)}")
        return self.coeff(0, 0)

    def __repr__(self) -> str:
        if self.is_zero:
            return "FockPoly(0)"
        parts = []
        for (k, m), c in self.terms.items():
            word = "".join(filter(None, [f"b^{k}" if k else "", f"a^{m}" if m else ""]))
            parts.append(f"{c}*{word or '1'}")
        return "FockPoly(" + " + ".join(parts) + f"; q={self.q})"

    # -- arithmetic ---------------------------------------------------------

    def _check_context(self, other: "FockPoly") -> None:
        if self.q != other.q:
            raise AlgebraMismatchError(f"mixing deformation parameters {self.q} and {other.q}")

    def __add__(self, other: "FockPoly") -> "FockPoly":
        self._check_context(other)
        acc = dict(self.terms)
        for w, c in other.terms.items():
            acc[w] = acc.get(w, Fraction(0)) + c
        return FockPoly(acc, self.q)

    def __neg__(self) -> "FockPoly":
        return FockPoly({w: -c for w, c in self.terms.items()}, self.q)

    def __sub__(self, other: "FockPoly") -> "FockPoly":
        return self + (-other)

    def scale(self, k: Rat) -> "FockPoly":
        k = exact(k, "k")
        if k == 1:
            return self
        return FockPoly({w: k * c for w, c in self.terms.items()}, self.q)

    def __mul__(self, other: "FockPoly") -> "FockPoly":
        return normal_order_product(self, other)


def _wick_table(q: Fraction, ms: set[int], ks: set[int]) -> tuple[int, dict[Word, list[tuple[int, int]]]]:
    """(S, table): table[m, k] lists (j, S times the coefficient of b^(k-j) a^(m-j) in
    a^m b^k) for m in ms, k in ks, leaving out the zero coefficients.

    All in integers: with q = r/s, B[n][j] = s^(j(n-j)) [n j] follows the q-Pascal
    rule B[n][j] = s^(n-j) B[n-1][j-1] + r^j B[n-1][j], T[j] = s^(j-1) {j} comes
    from `_brackets`, and F[j] = T[1]...T[j] = s^(j(j-1)/2) [j]!.  So the
    coefficient [m j][k j][j]! q^((m-j)(k-j)) is B[m][j] B[k][j] F[j] r^((m-j)(k-j))
    s^(j(j+1)/2) over s^(mk), and every entry is an integer over S = s^(max m * max k).
    No exponent passes max m * max k + max m + max k, so every power r^e and s^e is
    read from one running list.  Nothing divides, so q = 0 and q = -1 ({2} = 0) are
    not special.
    """
    r, s = q.numerator, q.denominator
    m_top, k_top = max(ms, default=0), max(ks, default=0)
    top = m_top * k_top
    r_pow, s_pow = [1], [1]
    for _ in range(top + m_top + k_top):
        r_pow.append(r_pow[-1] * r)
        s_pow.append(s_pow[-1] * s)
    brackets = _brackets(r, s, max(m_top, k_top))
    binom, fact = [[1]], [1]
    for n in range(1, len(brackets)):
        prev = binom[-1] + [0]
        binom.append([1] + [s_pow[n - j] * prev[j - 1] + r_pow[j] * prev[j] for j in range(1, n + 1)])
        fact.append(fact[-1] * brackets[n])
    table = {}
    for m in ms:
        for k in ks:
            entries = ((j, binom[m][j] * binom[k][j] * fact[j] * r_pow[(m - j) * (k - j)]
                        * s_pow[top - m * k + j * (j + 1) // 2]) for j in range(min(m, k) + 1))
            table[m, k] = [(j, w) for j, w in entries if w]
    return s_pow[top], table


def _product_ints(x: FockPoly, y: FockPoly) -> Grid:
    """(d, W, grid) with x*y = sum grid[k*W + m] b^k a^m / d, W = a-degree(x) + a-degree(y) + 1.

    The coefficients of x and of y go over the lcm of their denominators and
    the Wick table over a power of q's denominator, so the terms of each
    output word add up as one integer.  The pair b^k1 a^m1, b^k2 a^m2 lands
    at (k1 + k2) W + m1 + m2, and each of its j contractions j (W + 1) places
    back, at b^(k1+k2-j) a^(m1+m2-j).
    """
    x._check_context(y)
    dt, table = _wick_table(x.q, {m for _, m in x.terms}, {k for k, _ in y.terms})
    dx, xs = _over_lcm(x.terms.values())
    dy, ys = _over_lcm(y.terms.values())
    width = x.a_degree() + y.a_degree() + 1
    step = width + 1
    grid = [0] * ((x.b_degree() + y.b_degree() + 1) * width)
    right = [(k2, k2 * width + m2, c2) for (k2, m2), c2 in zip(y.terms, ys)]
    for (k1, m1), c1 in zip(x.terms, xs):
        base = k1 * width + m1
        for k2, offset, c2 in right:
            c, at = c1 * c2, base + offset
            for j, w in table[m1, k2]:
                grid[at - j * step] += c * w
    return dx * dy * dt, width, grid


def normal_order_product(x: FockPoly, y: FockPoly) -> FockPoly:
    """Normal-ordered product x*y, exact in the shared deformation parameter.

    Each output word is one integer of `_product_ints`, reduced once by one
    `Fraction`.
    """
    return FockPoly._of_grid(x.q, *_product_ints(x, y))


def _bracket_ints(xy: Grid, yx: Grid, lam: Fraction) -> Grid:
    """xy - lam*yx for two products on one word grid, each as `_product_ints` returns it."""
    (d1, width, g1), (d2, _, g2) = xy, yx
    g = gcd(d1, d2)
    u, v = d2 // g * lam.denominator, lam.numerator * (d1 // g)
    return d1 // g * d2 * lam.denominator, width, [a * u - b * v for a, b in zip(g1, g2)]


def q_bracket(x: FockPoly, y: FockPoly, lam: Rat) -> FockPoly:
    """Deformed bracket x*y - lam*y*x, normal ordered.

    x*y and y*x fill word grids of the same shape, so the two are combined
    as integers and each word's `Fraction` is built once.
    """
    lam = exact(lam, "lam")
    return FockPoly._of_grid(x.q, *_bracket_ints(_product_ints(x, y), _product_ints(y, x), lam))


def commutator(x: FockPoly, y: FockPoly) -> FockPoly:
    return q_bracket(x, y, 1)


def _brackets(r: int, s: int, n: int) -> list[int]:
    """[T_0, ..., T_n], T_i = s^(i-1) {i} for q = r/s, by T_0 = 0 and T_(i+1) = s^i + r T_i."""
    out, power = [0], 1
    for _ in range(n):
        out.append(power + r * out[-1])
        power *= s
    return out


def number_matrix(h: FockPoly, n: int, basis: QuasiMonomial) -> OperatorMatrix:
    """Matrix of h on P_n in a basis e_j with a e_j = {j} e_(j-1) and b e_j = e_(j+1).

    Column j is sum c_km {j}{j-1}...{j-m+1} e_(j-m+k) over the words b^k a^m
    of h with m <= j, kept whole as in `realize.realize_matrix`: an image
    that leaves P_n keeps its entries above n.  For a realization r it equals
    realize_matrix(h, r, n) with basis r.basis, with no polynomial arithmetic
    and no Fraction: with q = r/s, {i} = T_i / s^(i-1) (`_brackets`), so each
    falling product is an integer over a power of s, and column j is one
    integer pair over the lcm of h's denominators times a power of s.  The
    CLI's spectra are built here; realize_matrix stays the path that `verify`
    and the tests use.
    """
    if n < 0:
        raise ValueError("flag dimension must be non-negative")
    s = h.q.denominator
    brackets = _brackets(h.q.numerator, s, n)
    d, cs = _over_lcm(h.terms.values())
    terms = list(zip(h.terms, cs))
    depth, height = h.a_degree(), h.b_degree()
    columns = []
    for j in range(n + 1):
        # falling[m] / (den / d) = {j}{j-1}...{j-m+1}; each factor {j-i} brings s^(j-1-i).
        falling, den = [1], d
        for i in range(min(j, depth)):
            power = s ** (j - 1 - i)
            falling = [f * power for f in falling] + [falling[-1] * brackets[j - i]]
            den *= power
        column = [0] * (j + height + 1)
        for (k, m), c in terms:
            if m <= j:
                column[j - m + k] += c * falling[m]
        columns.append(Poly.from_ints(den, column))
    return OperatorMatrix(columns, basis)


class SL2Generators(NamedTuple):
    """The spin-n triple J+ = b^2 a - n b, J0 = b a - n/2, J- = a."""

    jplus: FockPoly
    jzero: FockPoly
    jminus: FockPoly


def sl2_generators(n: Rat) -> SL2Generators:
    """Raising/Cartan/lowering triple for the representation label n, undeformed (q = 1)."""
    n = exact(n, "n")
    jplus = FockPoly({(2, 1): 1, (1, 0): -n})
    jzero = FockPoly({(1, 1): 1, (0, 0): -n / 2})
    jminus = FockPoly.a()
    return SL2Generators(jplus, jzero, jminus)


class CasimirValue(NamedTuple):
    value: Fraction


def casimir_value(n: Rat) -> CasimirValue:
    """Quadratic Casimir (1/2){J+, J-} - J0 J0 of the spin-n triple.

    Computed by normal ordering in the undeformed algebra; every
    non-identity word must cancel, otherwise the ordering engine is
    broken and NotScalarError is raised.  The value is -(n/2)(n/2 + 1).
    """
    gens = sl2_generators(n)
    anti = gens.jplus * gens.jminus + gens.jminus * gens.jplus
    c2 = anti.scale(Fraction(1, 2)) - gens.jzero * gens.jzero
    return CasimirValue(c2.as_scalar())


def build_hf(p: Rat, q: Rat = 1) -> FockPoly:
    """Oscillator element 4 b a^2 - 4 b a + 4(p + 1/2) a.

    The three-point operator of the family; p is the parity-like weight
    of the ground-state factor.
    """
    p = exact(p, "p")
    return FockPoly({(1, 2): 4, (1, 1): -4, (0, 1): 4 * (p + Fraction(1, 2))}, q)


def build_hg(p: Rat, big_b: Rat, q: Rat = 1) -> FockPoly:
    """Generalized element 4(b + B) a^2 - 4 b a + 4(p + 1/2) a.

    The constant term is fixed so that build_hg(p, 0) == build_hf(p)
    exactly; see the convention notes emitted by the verification suites.
    """
    p = exact(p, "p")
    big_b = exact(big_b, "B")
    return FockPoly(
        {
            (1, 2): 4,
            (0, 2): 4 * big_b,
            (1, 1): -4,
            (0, 1): 4 * (p + Fraction(1, 2)),
        },
        q,
    )
