"""Exact spectra of flag-preserving operators.

An operator preserving the flag P_0 < P_1 < ... is triangular in any
degree-graded basis, so its eigenvalues are the diagonal entries and the
eigen-polynomials come out of back-substitution -- plain linear algebra,
no characteristic polynomials and no rounding.

The pencil H f = E * S_s f, where S_s rescales the argument by q^s, is
the plain problem for S_s^-1 H: H with row n scaled by q^(-s*n), still
triangular, so one solver serves both.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    NotTriangularError,
    OperatorMatrix,
    Poly,
    QuasiMonomial,
    Rat,
    _Value,
    _dilate,
    back_substitute,
    exact,
)
# Unused here: perfbench's spectral.reference span traces q_number in this module.
from .fock import q_number  # noqa: F401


def _scale_ratio(q: Fraction, s: Rat) -> tuple[int, int]:
    """q^(-s) as an integer ratio; s must be a whole number, not a float."""
    s = exact(s, "s")
    if s.denominator != 1:
        raise ValueError(f"scale power s must be a whole number, not {s}")
    return (q ** -int(s)).as_integer_ratio()


def reference_spectrum(count: int, q: Rat = 1, s: int = 0) -> list[Fraction]:
    """Reference eigenvalues -4 {n} q^(-s n) for n < count, in one pass with {n} running.

    s = 0 is the plain problem H f = E f and s != 0 the scaled right-hand
    side H f = E f(q^s .); at q = 1 every family is -4n.  With q = r/t,
    {n} = top / t^n by {n+1} = q {n} + 1 and q^(-s n) = a^n / b^n run on
    integers, so each value is one Fraction.  q = 0 with s > 0 raises
    ZeroDivisionError.
    """
    q = exact(q, "q")
    a, b = _scale_ratio(q, s)
    r, t = q.numerator, q.denominator
    values, top, den, wa, wb = [], 0, 1, 1, 1
    for _ in range(count):
        values.append(Fraction(-4 * top * wa, den * wb))
        top, den, wa, wb = top * r + den * t, den * t, wa * a, wb * b
    return values


def reference_label(q: Rat, s: int) -> str:
    """Name of the family reference_spectrum(., q, s) checks against.

    "classic" (-4n) whenever q = 1; otherwise "qplain" (-4{n}),
    "qscaled1" (-4 q^n {n}) and "qscaled2" (-4 q^2n {n}) for s = 0, -1, -2,
    and "reciprocal(s=...)" for the other scale powers.
    """
    if q == 1:
        return "classic"
    return {0: "qplain", -1: "qscaled1", -2: "qscaled2"}.get(s, f"reciprocal(s={s})")


class SpectralEntry(NamedTuple):
    level: int
    eigenvalue: Fraction
    eigenpoly: Poly  # coefficients in the report's basis, leading coefficient 1


class SpectralReport(_Value):
    """Eigenvalues with monic eigen-polynomials, in a declared basis."""

    __slots__ = ("basis", "entries")
    basis: QuasiMonomial
    entries: tuple[SpectralEntry, ...]

    @property
    def eigenvalues(self) -> tuple[Fraction, ...]:
        return tuple(e.eigenvalue for e in self.entries)


def eigensolve_flag(matrix: OperatorMatrix) -> SpectralReport:
    """Full exact eigensystem of a flag-preserving matrix.

    Eigenvalues are the diagonal entries; every level's monic eigen-polynomial
    comes from one back_substitute call, which raises NotTriangularError if
    the matrix is not flag-preserving and DegenerateSpectrumError if two
    diagonal entries collide.
    """
    levels = back_substitute(matrix)
    return SpectralReport(matrix.basis, tuple(SpectralEntry(n, *level) for n, level in enumerate(levels)))


def pencil_solve(matrix: OperatorMatrix, s: int, q: Rat) -> SpectralReport:
    """Solve H f = E * f(q^s * .) on the monomial flag.

    This is S_s^-1 H f = E f, and S_s^-1 dilates by q^-s: `_dilate` scales
    row i of H by q^(-s i) on the column pairs, so level n has the
    eigenvalue H[n][n] q^(-s n).  Both signs of s are accepted so either
    dilation direction can be matched against a reference family.
    """
    q, s = exact(q, "q"), exact(s, "s")
    if q == 0:
        raise ValueError("pencil parameter must be nonzero")
    if s not in (-2, -1, 1, 2):
        raise ValueError("scale power must be one of -2, -1, 1, 2")
    if matrix.basis.delta != 0:
        raise NotTriangularError("pencil solving expects the monomial basis")
    a, b = _scale_ratio(q, s)
    columns = [Poly._of_triple(*_dilate((0, *c.ints), a, b)) for c in matrix.columns]
    return eigensolve_flag(OperatorMatrix(columns, matrix.basis))


def isospectral_compare(a: SpectralReport, b: SpectralReport) -> tuple[int, ...]:
    """The levels whose eigenvalues differ; empty when the reports are isospectral."""
    if len(a.entries) != len(b.entries):
        raise ValueError("reports cover different level counts")
    pairs = zip(a.eigenvalues, b.eigenvalues)
    return tuple(n for n, (x, y) in enumerate(pairs) if x != y)
