"""Independent oracles used to compute expected values.

Each oracle deliberately takes the slow, obviously-correct route, and all
but one share no code path with the implementation they check.  The
exception: `act_on_poly` normal-orders through `fock.normal_order_product`,
so a fault in the Wick table must be caught by `oracle_product`.  The
routes:

* normal ordering by single adjacent swaps ab -> q ba + 1, one at a time;
* the action of an element on the vacuum representation P(b)|0>;
* matrix-vector products row by row over the dense view of a matrix;
* linear combinations c_1 f_1 + c_2 f_2 + ... coefficient by coefficient;
* argument shifts by expanding every power (y + a)^j;
* quasi-monomial coefficients by Newton's forward differences;
* Laguerre polynomials from the three-term recurrence;
* q-deformed hg (and hf, B = 0) eigenpolynomials from their three-term
  recurrence, with {n} = (q^n - 1)/(q - 1) and the matrix entries written
  out by hand;
* q-deformed hg pencil eigenpolynomials as big q-Laguerre polynomials,
  expanded from their q-Pochhammer coefficients;
* Hermite polynomials from the explicit factorial formula.

The linear combinations, the argument shifts and the q-Pochhammer expansion
run on plain Fraction lists and build a Poly only from the finished list, so
none of them runs the integer kernels of `Poly` arithmetic (`_convolve`,
`_laurent_sum`, `_newton`) that `apply_op`, the Heisenberg residual and
`shift_arg` are made of.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from fockosc.algebra import OperatorMatrix, Poly
from fockosc.fock import FockPoly, normal_order_product


def swap_normal_order(words: dict[str, Fraction], q: Fraction) -> dict[tuple[int, int], Fraction]:
    """Normal order a sum of letter words by repeated single swaps.

    Words are strings over the alphabet {a, b}; each occurrence of the
    adjacent pair "ab" is rewritten to q * "ba" + (empty), until every
    word has all b letters in front.  Returns (b-count, a-count) -> coeff.
    """
    pending = {w: Fraction(c) for w, c in words.items() if c != 0}
    done: dict[tuple[int, int], Fraction] = {}
    while pending:
        word, coeff = pending.popitem()
        idx = word.find("ab")
        if idx < 0:
            key = (word.count("b"), word.count("a"))
            done[key] = done.get(key, Fraction(0)) + coeff
            continue
        swapped = word[:idx] + "ba" + word[idx + 2 :]
        contracted = word[:idx] + word[idx + 2 :]
        pending[swapped] = pending.get(swapped, Fraction(0)) + q * coeff
        pending[contracted] = pending.get(contracted, Fraction(0)) + coeff
        pending = {w: c for w, c in pending.items() if c != 0}
    return {k: c for k, c in done.items() if c != 0}


def fock_to_words(x: FockPoly) -> dict[str, Fraction]:
    return {"b" * k + "a" * m: c for (k, m), c in x.terms.items()}


def oracle_product(x: FockPoly, y: FockPoly) -> dict[tuple[int, int], Fraction]:
    """Normal-ordered x*y computed entirely by single swaps."""
    assert x.q == y.q
    concatenated: dict[str, Fraction] = {}
    for wx, cx in fock_to_words(x).items():
        for wy, cy in fock_to_words(y).items():
            word = wx + wy
            concatenated[word] = concatenated.get(word, Fraction(0)) + cx * cy
    return swap_normal_order(concatenated, x.q)


def act_on_poly(h: FockPoly, p: Poly) -> Poly:
    """Act with h on the state P(b)|0>, returning the new polynomial in b.

    The product h * P(b) is normal ordered and every word still carrying
    a lowering power is annihilated by the vacuum.
    """
    state = FockPoly({(k, 0): c for k, c in enumerate(p.coeffs)}, h.q)
    product = normal_order_product(h, state)
    degree = max((k for (k, m) in product.terms if m == 0), default=-1)
    coeffs = [Fraction(0)] * (degree + 1)
    for (k, m), c in product.terms.items():
        if m == 0:
            coeffs[k] = c
    return Poly(coeffs)


def dense_apply(matrix: OperatorMatrix, vec) -> list[Fraction]:
    """Product of the (N+1)x(N+1) view `matrix.rows` with a zero-padded vector."""
    v = [Fraction(x) for x in vec]
    v += [Fraction(0)] * (matrix.size - len(v))
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in matrix.rows]


def linear_combination(terms: list[tuple[Fraction, Poly]]) -> Poly:
    """sum c f over the (c, f) in terms, added up on a Fraction list."""
    out = [Fraction(0)] * max((len(f.coeffs) for _, f in terms), default=0)
    for c, f in terms:
        for k, a in enumerate(f.coeffs):
            out[k] += c * a
    return Poly(out)


def shift_by_powers(f: Poly, offset: Fraction) -> Poly:
    """f(y + offset) as sum c_j (y + offset)^j, each power by repeated products.

    The powers are plain Fraction lists, multiplied by (y + offset) one term
    at a time, so no Poly kernel runs.
    """
    out = [Fraction(0)] * len(f.coeffs)
    power = [Fraction(1)]
    for c in f.coeffs:
        for k, p in enumerate(power):
            out[k] += c * p
        power = [offset * a + b for a, b in zip(power + [0], [0] + power)]
    return Poly(out)


def newton_coefficients(f: Poly, d: Fraction) -> list[Fraction]:
    """Coefficients of f in the basis 1, y, y(y-d), y(y-d)(y-2d), ...

    Newton's forward-difference formula: coefficient n is
    Delta_d^n f(0) / (n! d^n), read off the values f(0), f(d), ..., f(n d)
    alone, each a plain sum of c_j x^j; no basis element is expanded.
    """
    values = [sum(c * (k * d) ** j for j, c in enumerate(f.coeffs)) for k in range(len(f.coeffs))]
    out = []
    for n in range(len(values)):
        out.append(Fraction(values[0]) / (factorial(n) * d**n))
        values = [b - a for a, b in zip(values, values[1:])]
    return out


def laguerre_recurrence(n: int, alpha: Fraction) -> Poly:
    """L_n^(alpha) from (k+1) L_(k+1) = (2k+1+alpha-y) L_k - (k+alpha) L_(k-1)."""
    prev, cur = Poly.one(), Poly([1 + alpha, -1])
    if n == 0:
        return prev
    for k in range(1, n):
        nxt = (Poly([2 * k + 1 + alpha, -1]) * cur - prev.scale(k + alpha)).scale(
            Fraction(1, k + 1)
        )
        prev, cur = cur, nxt
    return cur


def qdil_hg_eigenpair(n: int, p: Fraction, B: Fraction, q: Fraction, s: int = 0) -> tuple[Fraction, Poly]:
    """Level n of hg = 4(b + B)a^2 - 4ba + 4(p + 1/2)a under the q-dilatation, by recurrence.

    D_q y^j = {j} y^(j-1) makes the monomial matrix upper triangular with
    two superdiagonals, written out by hand:
    M[j][j] = -4{j}, M[j-1][j] = 4{j}({j-1} + p + 1/2) and M[j-2][j] = 4B{j}{j-1}.
    The problem H f = E f(q^s .) (s = 0 is the plain one) has E = -4{n} q^(-s n)
    at level n, and its monic eigenvector follows the three-term recurrence
    v_i = (M[i][i+1] v_(i+1) + M[i][i+2] v_(i+2)) / (E q^(s i) - M[i][i]), v_n = 1.
    B = 0 is hf, whose recurrence has two terms.  A repeated eigenvalue makes
    a divisor vanish: ZeroDivisionError.
    """

    def bracket(j: int) -> Fraction:
        return (q**j - 1) / (q - 1)

    def entry(i: int, j: int) -> Fraction:
        if j == i:
            return -4 * bracket(j)
        if j == i + 1:
            return 4 * bracket(j) * (bracket(j - 1) + p + Fraction(1, 2))
        return 4 * B * bracket(j) * bracket(j - 1) if j == i + 2 else Fraction(0)

    eigenvalue = -4 * bracket(n) * q ** (-s * n)
    v = [Fraction(0)] * (n + 2)
    v[n] = Fraction(1)
    for i in range(n - 1, -1, -1):
        divisor = eigenvalue * q ** (s * i) - entry(i, i)
        v[i] = (entry(i, i + 1) * v[i + 1] + entry(i, i + 2) * v[i + 2]) / divisor
    return eigenvalue, Poly(v)


def hermite_explicit(k: int) -> Poly:
    """H_k(z) = k! sum_m (-1)^m (2z)^(k-2m) / (m! (k-2m)!)."""
    coeffs = [Fraction(0)] * (k + 1)
    for m in range(k // 2 + 1):
        power = k - 2 * m
        coeffs[power] = Fraction(
            (-1) ** m * factorial(k) * 2**power, factorial(m) * factorial(power)
        )
    return Poly(coeffs)


def qdil_hg_pencil_eigenpair(n: int, p: Fraction, B: Fraction, q: Fraction) -> tuple[Fraction, Poly]:
    """Level n of hg = 4(b + B)a^2 - 4ba + 4(p + 1/2)a under the q-dilatation, H f = E f(q .).

    E = -4{n} q^(-n), and the eigenpolynomial is the monic big q-Laguerre
    polynomial P_n(x; a, b; q) at x = -y/(qB) (Koekoek, Lesky & Swarttouw
    2010, section 14.11).  a and b enter only through e1 = a + b and
    e2 = ab, so the coefficients c_k of P_n in the basis
    (x; q)_k = prod_(j<k) (1 - x q^j) are computed top-down from c_n = 1:
    c_k = c_(k+1) (1 - e1 q^(k+1) + e2 q^(2k+2)) (1 - q^(k+1)) / (q (1 - q^(k-n))).
    Needs q not 0 or +-1 and B != 0.
    """
    e1 = (1 - (q - 1) * (p + Fraction(1, 2))) / (q * B * (q - 1))
    e2 = 1 / (q * q * B * (q - 1))
    c = [Fraction(0)] * n + [Fraction(1)]
    for k in range(n - 1, -1, -1):
        factor = (1 - e1 * q ** (k + 1) + e2 * q ** (2 * k + 2)) * (1 - q ** (k + 1))
        c[k] = c[k + 1] * factor / (q * (1 - q ** (k - n)))
    # 1 - x q^j at x = -y/(qB) is 1 + y q^(j-1)/B; the products are Fraction lists.
    total, pochhammer = [Fraction(0)] * (n + 1), [Fraction(1)]
    for j, ck in enumerate(c):
        for k, a in enumerate(pochhammer):
            total[k] += ck * a
        t = q ** (j - 1) / B
        pochhammer = [a + t * b for a, b in zip(pochhammer + [0], [0] + pochhammer)]
    return -4 * (q**n - 1) / (q - 1) * q ** (-n), Poly([a / total[-1] for a in total])
