"""Classical polynomial families and the weighted-state eigenchecks.

Hermite polynomials use the physicists' convention; associated Laguerre
polynomials come from the running ratio of consecutive coefficients of
the explicit formula, in exact rationals, so half-integer superscripts
are exact.  The "modified" Laguerre family transplants the Laguerre
coefficients onto quasi-monomials.

The weighted states x^p * exp(-w x^2/2) * Q(x) close under the
inverse-square-plus-quadratic Hamiltonian

    K = -d^2/dx^2 + w^2 x^2 + p(p-1)/x^2 :

conjugating by the weight turns K into an operation on Q alone,

    Q  ->  -Q'' - 2(p/x - w x) Q' + w(2p+1) Q,

with the 1/x^2 terms cancelling identically, so everything stays inside
exact Laurent arithmetic (no square root of w is ever needed: w enters
only through w x^2 and the x^p prefactor).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .algebra import (
    LaurentPoly,
    Poly,
    QuasiMonomial,
    Rat,
    basis_transplant,
    exact,
)
from .fock import build_hf
from .realize import Differential, apply_op


class NotProportionalError(ValueError):
    """Two polynomials expected to be proportional are not."""


def laguerre(n: int, alpha: Rat) -> Poly:
    """Associated Laguerre polynomial L_n^(alpha) from the explicit formula.

    Coefficient c_l of y^l is (-1)^l * C(n + alpha, n - l) / l!, stepped down
    from c_n = (-1)^n / n! by the 1F1 term ratio c_(l-1) = -c_l * l * (alpha + l)
    / (n - l + 1).  The divisor is never 0, and alpha = -k zeroes c_(k-1) and below.
    """
    if n < 0:
        raise ValueError("Laguerre index must be non-negative")
    alpha = exact(alpha, "alpha")
    coeffs = [Fraction((-1) ** n, factorial(n))]
    for l in range(n, 0, -1):
        coeffs.append(-coeffs[-1] * l * (alpha + l) / (n - l + 1))
    return Poly(reversed(coeffs))


def hermite(k: int) -> Poly:
    """Physicists' Hermite polynomial H_k via the three-term recurrence."""
    if k < 0:
        raise ValueError("Hermite index must be non-negative")
    prev, cur = Poly.one(), Poly([0, 2])
    if k == 0:
        return prev
    for i in range(1, k):
        prev, cur = cur, Poly([0, 2]) * cur - prev.scale(2 * i)
    return cur


def modified_laguerre(n: int, alpha: Rat, delta: Rat) -> Poly:
    """Laguerre coefficients transplanted onto quasi-monomials with step delta.

    Returns the monomial expansion of sum_l a_l * y^(l-th quasi-monomial);
    delta = 0 collapses back to the plain Laguerre polynomial.
    """
    base = laguerre(n, alpha)
    return basis_transplant(base, QuasiMonomial(exact(delta, "delta")), QuasiMonomial(0))


def constant_ratio(a: LaurentPoly, b: LaurentPoly) -> Fraction | None:
    """The constant c with a = c * b, or None if no such constant exists."""
    if b.is_zero:
        return None
    # Only the ratio at b's lowest power can work.
    c = a.coeff(b.low) / b.coeff(b.low)
    return c if a == b.scale(c) else None


def _even_substitute(p: Poly, omega: Fraction) -> LaurentPoly:
    """P(w x^2) as a Laurent polynomial in x."""
    return LaurentPoly({2 * k: c * omega**k for k, c in enumerate(p.coeffs) if c != 0})


def parity_relation_ratio(n: int, p: int) -> Fraction:
    """Proportionality constant between H_(2n+p) and the Laguerre reduction.

    H_(2n+p) has pure parity p, so it factors as z^p * G(z^2).  With
    z = sqrt(w) x both sides of the relation are polynomials in
    y = z^2 = w x^2, so w drops out: the claim is G = c * L_n^(p-1/2)
    as polynomials in y.  The constant c is read off the leading
    coefficients and checked on all of them; a mixed parity or a
    non-multiple raises NotProportionalError.
    """
    if p not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    h = hermite(2 * n + p)
    if any(h.coeffs[1 - p :: 2]):
        raise NotProportionalError("Hermite parity pattern violated")
    g = Poly(h.coeffs[p::2])
    reduction = laguerre(n, Fraction(p) - Fraction(1, 2))
    ratio = g.leading / reduction.leading
    if g != reduction.scale(ratio):
        raise NotProportionalError(
            f"H_{2 * n + p} is not a multiple of the Laguerre reduction"
        )
    return ratio


# ---------------------------------------------------------------------------
# Weighted states and the inverse-square oscillator
# ---------------------------------------------------------------------------


def kratzer_apply(q: LaurentPoly, p: Rat, omega: Rat) -> LaurentPoly:
    """Apply -d^2/dx^2 + w^2 x^2 + p(p-1)/x^2 to x^p exp(-w x^2/2) Q(x).

    Returns the Laurent part of the image, which carries the same weight.
    Differentiating the weight twice produces exactly the p(p-1)/x^2 and
    w^2 x^2 terms with opposite sign, so the surviving action on Q is
    -Q'' - 2(p/x - w x) Q' + w(2p+1) Q.
    """
    p, omega = exact(p, "p"), exact(omega, "omega")
    if omega <= 0:
        raise ValueError("frequency must be positive")
    dq = q.derivative()
    mixed = (LaurentPoly({-1: p}) - LaurentPoly({1: omega})) * dq
    return -dq.derivative() - mixed.scale(2) + q.scale(omega * (2 * p + 1))


def kratzer_eigencheck(n: int, p: Rat, omega: Rat) -> Fraction:
    """Exact eigenvalue of the level-n weighted Laguerre state.

    Builds x^p L_n^(p-1/2)(w x^2) exp(-w x^2/2), applies the Hamiltonian,
    and demands that the image be an exact multiple of the input; the
    measured multiple w(4n + 2p + 1) is returned.
    """
    p, omega = exact(p, "p"), exact(omega, "omega")
    q = _even_substitute(laguerre(n, p - Fraction(1, 2)), omega)
    value = constant_ratio(kratzer_apply(q, p, omega), q)
    if value is None:
        raise NotProportionalError(
            f"level {n} weighted state (p={p}, w={omega}) "
            "is not an eigenfunction"
        )
    return value


def gauge_conjugate_check(poly: Poly, p: Rat, omega: Rat) -> Fraction:
    """Match the weighted action of K against the flag operator.

    For Psi = x^p exp(-w x^2/2) P(w x^2) the claim is

        K Psi = Psi0 * [ (E0 * P - w * (h P)) at w x^2 ]

    with h the differential realization of the three-point element and a
    single constant E0, expected to be w(2p+1).  E0 is solved for exactly
    and returned; NotProportionalError is raised when no constant works.
    """
    if poly.is_zero:
        raise ValueError("gauge check needs a nonzero polynomial")
    p, omega = exact(p, "p"), exact(omega, "omega")
    q_in = _even_substitute(poly, omega)
    image = kratzer_apply(q_in, p, omega)

    h_image = apply_op(build_hf(p), Differential(), poly)
    shifted = image + _even_substitute(h_image, omega).scale(omega)
    e0 = constant_ratio(shifted, q_in)
    if e0 is None:
        raise NotProportionalError("no constant reconciles the two actions")
    return e0
