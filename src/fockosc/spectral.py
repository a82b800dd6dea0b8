"""Exact spectra of flag-preserving operators.

An operator preserving the flag P_0 < P_1 < ... is triangular in any
degree-graded basis, so its eigenvalues are the diagonal entries and the
eigen-polynomials come out of back-substitution -- plain linear algebra,
no characteristic polynomials and no rounding.

The pencil solver handles the generalized problem H f = E * S_s f where
S_s rescales the argument by q^s; on monomials S_s is diagonal with
entries q^(s*n), so triangularity carries over.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    BasisKind,
    DegenerateSpectrumError,
    Monomial,
    NotTriangularError,
    OperatorMatrix,
    Poly,
    Rat,
    back_substitute,
    rat_str,
)
from .fock import q_number


class SpectrumKind(enum.Enum):
    """Reference eigenvalue families -4 {n} q^(-s n) for level n.

    Each kind carries the scale power s of the problem it belongs to:
    s = 0 is the plain problem H f = E f, and s != 0 the scaled right-hand
    side H f = E f(q^s .).  The reciprocal(s=...) kinds are the families
    that are not named after a deformed spectrum: the positive powers, and
    every scaled problem at q = 1, where all families reduce to -4n.
    """

    CLASSIC = "classic", 0                   # -4n
    Q_PLAIN = "qplain", 0                    # -4{n}
    Q_SCALED_ONCE = "qscaled1", -1           # -4 q^n {n}
    Q_SCALED_TWICE = "qscaled2", -2          # -4 q^2n {n}
    RECIPROCAL_MINUS_TWO = "reciprocal(s=-2)", -2  # -4n (q = 1)
    RECIPROCAL_MINUS_ONE = "reciprocal(s=-1)", -1  # -4n (q = 1)
    RECIPROCAL_ONE = "reciprocal(s=1)", 1    # -4 q^-n {n}
    RECIPROCAL_TWO = "reciprocal(s=2)", 2    # -4 q^-2n {n}

    def __new__(cls, name: str, s: int):
        kind = object.__new__(cls)
        kind._value_ = name
        kind.s = s
        return kind

    @classmethod
    def of(cls, s: int, q: Rat) -> "SpectrumKind":
        """The family a problem with scale power s (0: plain) is checked against."""
        deformed = {0: cls.Q_PLAIN, -1: cls.Q_SCALED_ONCE, -2: cls.Q_SCALED_TWICE}
        if q != 1 and s in deformed:
            return deformed[s]
        return cls.CLASSIC if s == 0 else cls(f"reciprocal(s={s})")


def reference_spectrum(kind: SpectrumKind, n: int, q: Rat | None = None) -> Fraction:
    """Reference eigenvalue at level n for the given family."""
    if n < 0:
        raise ValueError("level must be non-negative")
    if kind is SpectrumKind.CLASSIC:
        return Fraction(-4 * n)
    if q is None:
        raise ValueError(f"{kind.value} requires the deformation parameter")
    q = Fraction(q)
    return -4 * q_number(n, q) * q ** (-kind.s * n)


class SpectralEntry(NamedTuple):
    level: int
    eigenvalue: Fraction
    eigenpoly: Poly  # coefficients in the report's basis, leading coefficient 1


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues with monic eigen-polynomials, in a declared basis."""

    basis: BasisKind
    entries: tuple[SpectralEntry, ...]

    @property
    def eigenvalues(self) -> tuple[Fraction, ...]:
        return tuple(e.eigenvalue for e in self.entries)

    def level(self, n: int) -> SpectralEntry:
        return self.entries[n]


def preserves_flag(matrix: OperatorMatrix) -> bool:
    """True iff every column j is supported on rows 0..j.

    In the column-is-image convention this says the operator maps each
    P_n into P_n, i.e. it is triangular in the degree grading.
    """
    for j in range(matrix.size):
        for i in range(j + 1, matrix.size):
            if matrix[i][j] != 0:
                return False
    return True


def _check_distinct_diagonal(diag: tuple[Fraction, ...]) -> None:
    seen: dict[Fraction, int] = {}
    for n, value in enumerate(diag):
        if value in seen:
            raise DegenerateSpectrumError([seen[value], n], value)
        seen[value] = n


def eigensolve_flag(matrix: OperatorMatrix) -> SpectralReport:
    """Full exact eigensystem of a flag-preserving matrix.

    Eigenvalues are the diagonal entries; the level-n eigen-polynomial is
    the unique monic degree-n solution, found by back-substitution.
    Raises NotTriangularError if the matrix is not flag-preserving and
    DegenerateSpectrumError if two diagonal entries collide.
    """
    if not preserves_flag(matrix):
        raise NotTriangularError("matrix has entries below the diagonal")
    diag = matrix.diagonal()
    _check_distinct_diagonal(diag)
    entries = []
    for n, value in enumerate(diag):
        poly = back_substitute(matrix, value, n)
        entries.append(SpectralEntry(n, value, poly))
    return SpectralReport(matrix.basis, tuple(entries))


def pencil_solve(matrix: OperatorMatrix, s: int, q: Rat) -> SpectralReport:
    """Solve H f = E * f(q^s * .) on the monomial flag.

    The substitution is diagonal with entries q^(s n), so level n carries
    the eigenvalue H[n][n] / q^(s n); eigenvectors come from
    back_substitute with the row weights w_i = q^(s i).
    Both signs of s are accepted so either dilation direction can be
    matched against a reference family.
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("pencil parameter must be nonzero")
    if s not in (-2, -1, 1, 2):
        raise ValueError("scale power must be one of -2, -1, 1, 2")
    if not isinstance(matrix.basis, Monomial):
        raise NotTriangularError("pencil solving expects the monomial basis")
    if not preserves_flag(matrix):
        raise NotTriangularError("matrix has entries below the diagonal")

    weights = [q ** (s * n) for n in range(matrix.size)]
    eigenvalues = tuple(matrix[n][n] / w for n, w in enumerate(weights))
    _check_distinct_diagonal(eigenvalues)
    entries = [
        SpectralEntry(n, value, back_substitute(matrix, value, n, weights))
        for n, value in enumerate(eigenvalues)
    ]
    return SpectralReport(matrix.basis, tuple(entries))


class LevelComparison(NamedTuple):
    level: int
    left: Fraction
    right: Fraction
    equal: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Per-level eigenvalue comparison of two spectral reports."""

    levels: tuple[LevelComparison, ...]
    eigenvalues_equal: bool
    # None when the bases differ and polynomials are not comparable.
    eigenpolys_equal: bool | None

    def __str__(self) -> str:
        verdict = "isospectral" if self.eigenvalues_equal else "spectra differ"
        bad = [c.level for c in self.levels if not c.equal]
        return verdict if not bad else f"{verdict} (mismatch at levels {bad})"


def isospectral_compare(a: SpectralReport, b: SpectralReport) -> ComparisonReport:
    """Compare two reports level by level.

    Eigen-polynomials are compared only when the bases coincide, since
    coefficient vectors in different bases are not directly comparable.
    """
    if len(a.entries) != len(b.entries):
        raise ValueError("reports cover different level counts")
    levels = tuple(
        LevelComparison(n, x.eigenvalue, y.eigenvalue, x.eigenvalue == y.eigenvalue)
        for n, (x, y) in enumerate(zip(a.entries, b.entries))
    )
    polys_equal: bool | None = None
    if a.basis == b.basis:
        polys_equal = all(
            x.eigenpoly == y.eigenpoly for x, y in zip(a.entries, b.entries)
        )
    return ComparisonReport(
        levels=levels,
        eigenvalues_equal=all(c.equal for c in levels),
        eigenpolys_equal=polys_equal,
    )


def spectrum_string(report: SpectralReport) -> str:
    return ", ".join(rat_str(e.eigenvalue) for e in report.entries)
