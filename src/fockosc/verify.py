"""Named verification suites over fixed parameter grids.

Each suite runs a batch of exact identity checks and returns the
JSON-ready report dict that `fockosc verify` writes: the suite name,
whether it passed, its cases (case, inputs, expected, got, pass) and
convention notes (id, text) for the places where more than one sign or
constant convention is in circulation.  Every case is one of three
checks, each with its pass rule written once: `_case`, a value that
reads exactly as expected; `_holds`, a flag, whose `got` is the word for
it; `_zero`, a residual that is zero, whose `got` is "0" or the
residual.  Every family that reads solved eigenvalues against
`reference_spectrum` builds its `_case`s through `_spectrum_case`, which
takes the level count from the case's inputs.  Every call builds a fresh
report.  The grids are fixed in code so a verification run is
reproducible byte-for-byte.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .algebra import OperatorMatrix, Poly, QuasiMonomial, Rat, basis_transplant
from .fock import FockPoly, build_hf, build_hg, casimir_value, commutator, sl2_generators
from .realize import (
    Differential,
    FiniteDifference,
    QDilatation,
    Realization,
    heisenberg_residual,
    realize_matrix,
    stencil_of,
)
from .spectral import (
    SpectralReport,
    eigensolve_flag,
    isospectral_compare,
    pencil_solve,
    reference_spectrum,
)
from .specfun import (
    gauge_conjugate_check,
    kratzer_eigencheck,
    laguerre,
    modified_laguerre,
    parity_relation_ratio,
)

P_GRID = (Fraction(0), Fraction(1), Fraction(5, 2))
DELTA_GRID = (Fraction(1), Fraction(1, 2), Fraction(-1, 3))
Q_SPECTRUM_GRID = (Fraction(2), Fraction(1, 2), Fraction(3, 7))
Q_BRACKET_GRID = (Fraction(2), Fraction(1, 3), Fraction(7, 5))
B_GRID = (Fraction(1), Fraction(-2, 3))
KRATZER_P_GRID = (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(5, 2))
OMEGA_GRID = (Fraction(1), Fraction(2))

RANDOM_SEED = 8204317
RESIDUAL_COUNT = 200
RESIDUAL_MAX_DEGREE = 15


NOTE_DILATATION_SIGN = (
    "dilatation-sign",
    "The dilatation derivative is (f(qy) - f(y)) / (y(q-1)).  The opposite "
    "denominator sign y(1-q) fails the deformed product rule (it gives "
    "a.b - q.b.a = -1) and flips every eigenvalue to +4{n}; the convention "
    "used here is also the one consistent with the leading dilatation-stencil "
    "coefficient 4/(y q (q-1)^2).",
)

NOTE_HG_CONSTANT = (
    "four-point-constant",
    "The four-point element carries the lowering-order constant 4(p + 1/2), "
    "which makes its B = 0 case reduce exactly to the three-point element.  "
    "The alternative constant 4(p - 1/2) leaves the spectrum at -4n but "
    "breaks that reduction, so it is not used.",
)

NOTE_SCALE_DIRECTION = (
    "scale-direction",
    "For the scaled right-hand side H f = E f(q^s .), back-substitution gives "
    "E_n = -4 {n} q^(-s n).  The families -4 q^n {n} and -4 q^(2n) {n} are "
    "reproduced by s = -1 and s = -2, i.e. dilation by 1/q and 1/q^2; "
    "positive s yields the reciprocal families -4 q^(-n) {n} and "
    "-4 q^(-2n) {n}, which are emitted for comparison.",
)

NOTE_Q_STENCIL_SIGNS = (
    "dilatation-stencil-signs",
    "Composing the dilatation realization gives the three-point coefficients "
    "c2 = 4/(y q (q-1)^2), c1 = -4[1 + q + (y - p - 1/2) q (q-1)]/(y q (q-1)^2) "
    "and c0 = 4[1 + (y - p - 1/2)(q-1)]/(y (q-1)^2).  A variant carrying "
    "q(1-q) and (1-q) in place of q(q-1) and (q-1) in c1 and c0 is "
    "inconsistent with c2 and with the commutation rule, and is not used.",
)

NOTE_KRATZER_GAP = (
    "inverse-square-spacing",
    "At fixed weight p the measured levels of the inverse-square oscillator "
    "are w(4n + 2p + 1): the spacing within one p family is 4w, and the "
    "p = 0 and p = 1 families interleave with spacing 2w.",
)

NOTE_SHIFTED_LAGUERRE = (
    "shifted-laguerre",
    "Measured by back-substitution, the eigenpolynomials of the four-point "
    "element under the differential realization are monic Laguerre "
    "polynomials of superscript p + B - 1/2 and shifted argument y + B.",
)


def _case(name: str, inputs: dict, expected: str, got: str) -> dict:
    """A case that passes when `got` reads exactly as `expected`."""
    return {"case": name, "inputs": inputs, "expected": expected, "got": got, "pass": got == expected}


def _holds(
    name: str, inputs: dict, expected: str, ok: bool, words: tuple[str, str] = ("match", "mismatch")
) -> dict:
    """A case that passes when the flag `ok` holds; `got` is its first word if so, else its second."""
    got = words[0] if ok else words[1]
    return {"case": name, "inputs": inputs, "expected": expected, "got": got, "pass": ok}


def _zero(name: str, inputs: dict, residual: Poly | FockPoly) -> dict:
    """A case that passes when `residual` is zero; `got` reads "0" or the residual's repr."""
    return _case(name, inputs, "0", "0" if residual.is_zero else repr(residual))


def _report(suite: str, cases: list[dict], *notes: tuple[str, str]) -> dict:
    """The suite's report, passed when every case passes, with one fresh dict per (id, text) note."""
    notes = [{"id": note_id, "text": text} for note_id, text in notes]
    return {"suite": suite, "passed": all(c["pass"] for c in cases), "cases": cases, "notes": notes}


def _random_poly(rng: random.Random) -> Poly:
    degree = rng.randint(0, RESIDUAL_MAX_DEGREE)
    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)
    ]
    coeffs[degree] = coeffs[degree] or Fraction(1)
    return Poly(coeffs)


def suite_heisenberg() -> dict:
    """(a.b - q.b.a - 1) f = 0 and a(1) = 0 for every realization."""
    realizations: list[Realization] = [Differential()]
    realizations += [FiniteDifference(d) for d in DELTA_GRID]
    realizations += [QDilatation(q) for q in Q_BRACKET_GRID]
    rng = random.Random(RANDOM_SEED)
    polys = [_random_poly(rng) for _ in range(RESIDUAL_COUNT)]
    expected = f"{RESIDUAL_COUNT}/{RESIDUAL_COUNT} residuals zero"
    sample = {"polynomials": RESIDUAL_COUNT, "max_degree": RESIDUAL_MAX_DEGREE}
    cases = []
    for r in realizations:
        zero = sum(heisenberg_residual(r, f).is_zero for f in polys)
        inputs = {"realization": r.label, "q": str(r.q), **sample}
        cases.append(_case(f"bracket-{r.label}", inputs, expected, f"{zero}/{RESIDUAL_COUNT} residuals zero"))
        cases.append(_zero(f"vacuum-{r.label}", {"realization": r.label}, r.lower(Poly.one())))
    return _report("heisenberg", cases, NOTE_DILATATION_SIGN)


def suite_sl2() -> dict:
    """Triple commutation relations and the deformed lowering relation."""
    cases = []
    for n in (Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(7, 2)):
        gens = sl2_generators(n)
        relations = {
            "[J0,J+]=+J+": commutator(gens.jzero, gens.jplus) - gens.jplus,
            "[J0,J-]=-J-": commutator(gens.jzero, gens.jminus) + gens.jminus,
            "[J+,J-]=-2J0": commutator(gens.jplus, gens.jminus) + gens.jzero.scale(2),
        }
        for label, residual in relations.items():
            cases.append(_zero(f"{label} @ n={n}", {"n": str(n), "relation": label}, residual))
    # Deformed Borel relation in its verified normalization:
    # q*(J0.J-) - (J-.J0) = -J- with J0 = ba, J- = a.
    for q in (Fraction(2), Fraction(1, 3)):
        jzero = FockPoly.word(1, 1, q=q)
        jminus = FockPoly.a(q=q)
        residual = (jzero * jminus).scale(q) - jminus * jzero + jminus
        cases.append(_zero(f"q(J0.J-)-(J-.J0)=-J- @ q={q}", {"q": str(q)}, residual))
    return _report("sl2", cases)


def suite_casimir() -> dict:
    """(1/2){J+,J-} - J0^2 collapses to the scalar -(n/2)(n/2 + 1)."""
    cases = []
    for n in range(9):
        expected = -Fraction(n, 2) * (Fraction(n, 2) + 1)
        got = casimir_value(n).value
        cases.append(_case(f"casimir n={n}", {"n": str(n)}, str(expected), str(got)))
    return _report("casimir", cases)


def _values_string(values) -> str:
    return ", ".join(map(str, values))


def _spectrum_case(name: str, inputs: dict, report: SpectralReport, q: Rat = 1, s: int = 0) -> dict:
    """A case that passes when the report's eigenvalues read as reference_spectrum(N + 1, q, s).

    N is the inputs' flag dimension, never the report's level count, so a
    solve that drops a level fails.
    """
    expected = _values_string(reference_spectrum(inputs["N"] + 1, q, s))
    return _case(name, inputs, expected, _values_string(report.eigenvalues))


def _comparison_case(name: str, inputs: dict, a: SpectralReport, b: SpectralReport) -> dict:
    """A case that passes when the two reports agree on every eigenvalue."""
    mismatches = list(isospectral_compare(a, b))
    words = ("isospectral", f"spectra differ (mismatch at levels {mismatches})")
    return _holds(name, inputs, "all levels equal", not mismatches, words)


def suite_spectrum() -> dict:
    """Diagonal spectra: -4n for the flat realizations, -4{n} for dilatation."""
    cases = []
    for p in P_GRID:
        report = eigensolve_flag(realize_matrix(build_hf(p), Differential(), 20))
        inputs = {"operator": "hf", "realization": "diff", "p": str(p), "N": 20}
        cases.append(_spectrum_case(f"classic-diff p={p}", inputs, report))
    for q in Q_SPECTRUM_GRID:
        report = eigensolve_flag(realize_matrix(build_hf(Fraction(0), q=q), QDilatation(q), 16))
        inputs = {"operator": "hf", "realization": "qdil", "q": str(q), "N": 16}
        cases.append(_spectrum_case(f"deformed-qdil q={q}", inputs, report, q))
    return _report("spectrum", cases, NOTE_DILATATION_SIGN)


def _hf_grid() -> dict[tuple[Fraction, Fraction], tuple[OperatorMatrix, SpectralReport]]:
    """Each hf matrix at N = 16 with its solve: diff keyed (p, 0), fd keyed (p, d).

    Every matrix is realized on its own, so suites sharing the grid still
    compare independent computations.
    """
    grid = {}
    for p in P_GRID:
        for d, r in [(0, Differential())] + [(d, FiniteDifference(d)) for d in DELTA_GRID]:
            matrix = realize_matrix(build_hf(p), r, 16)
            grid[p, d] = (matrix, eigensolve_flag(matrix))
    return grid


def suite_isospectral(grid: dict | None = None) -> dict:
    """Eigenvalue equality across realizations and the four-point structure."""
    grid = _hf_grid() if grid is None else grid
    cases = []
    for p in P_GRID:
        for d in DELTA_GRID:
            name, inputs = f"diff-vs-fd p={p} delta={d}", {"p": str(p), "delta": str(d), "N": 16}
            cases.append(_comparison_case(name, inputs, grid[p, 0][1], grid[p, d][1]))
    for p in (Fraction(0), Fraction(1)):
        hf_report = grid[p, 0][1]
        for big_b in B_GRID:
            hg_report = eigensolve_flag(realize_matrix(build_hg(p, big_b), Differential(), 16))
            inputs = {"p": str(p), "B": str(big_b), "N": 16}
            cases.append(_comparison_case(f"hg-vs-hf p={p} B={big_b}", inputs, hf_report, hg_report))
            # Eigenpolynomials: monic Laguerre with superscript p+B-1/2,
            # argument y+B.  The shift is recorded, not assumed.
            alpha = p + big_b - Fraction(1, 2)
            match = all(
                entry.eigenpoly == laguerre(n, alpha).shift_arg(big_b).monic()
                for n, entry in enumerate(hg_report.entries)
            )
            inputs = {"p": str(p), "B": str(big_b), "alpha": str(alpha), "shift": str(big_b)}
            expected = "monic Laguerre(alpha) at y+shift"
            cases.append(_holds(f"hg-shifted-laguerre p={p} B={big_b}", inputs, expected, match))
    for big_b in B_GRID:
        for d in DELTA_GRID:
            stencil = stencil_of(build_hg(Fraction(0), big_b), FiniteDifference(d))
            expected = f"offsets (-1, 0, 1, 2), c2 = {4 * big_b / d**2}"
            got = f"offsets {stencil.offsets}, c2 = {stencil.coeff(2).coeff(0)}"
            inputs = {"B": str(big_b), "delta": str(d)}
            cases.append(_case(f"four-point B={big_b} delta={d}", inputs, expected, got))
    three_point = stencil_of(build_hf(Fraction(0)), FiniteDifference(Fraction(1)))
    inputs, got = {"operator": "hf", "delta": "1", "p": "0"}, f"offsets {three_point.offsets}"
    cases.append(_case("three-point structure", inputs, "offsets (-1, 0, 1)", got))
    dilatation = stencil_of(build_hf(Fraction(0), q=Fraction(2)), QDilatation(Fraction(2)))
    inputs, got = {"operator": "hf", "q": "2", "p": "0"}, f"offsets {dilatation.offsets}"
    cases.append(_case("dilatation three-point structure", inputs, "offsets (0, 1, 2)", got))
    # Negative control: the solved deformed spectrum leaves the flat one at level 2.
    q2 = Fraction(2)
    flat = eigensolve_flag(realize_matrix(build_hf(Fraction(0)), Differential(), 4))
    deformed = eigensolve_flag(realize_matrix(build_hf(Fraction(0), q=q2), QDilatation(q2), 4))
    diverges = isospectral_compare(flat, deformed) == (2, 3, 4)
    name, expected = "classic-vs-deformed q=2 diverges", "equal below level 2, distinct from level 2 on"
    words = ("as expected", "unexpected pattern")
    cases.append(_holds(name, {"q": "2", "levels": 5}, expected, diverges, words))
    return _report("isospectral", cases, NOTE_HG_CONSTANT, NOTE_SHIFTED_LAGUERRE, NOTE_Q_STENCIL_SIGNS)


def suite_transplant(grid: dict | None = None) -> dict:
    """Coefficient transplants: matrices match and eigenfunctions carry over."""
    grid = _hf_grid() if grid is None else grid
    cases = []
    for p in P_GRID:
        diff_matrix = grid[p, 0][0]
        alpha = p - Fraction(1, 2)
        for d in DELTA_GRID:
            fd_matrix, fd_report = grid[p, d]
            tag, inputs = f"p={p} delta={d}", {"p": str(p), "delta": str(d), "N": 16}
            same = fd_matrix.columns == diff_matrix.columns
            expected = "matrices identical entry-for-entry"
            cases.append(_holds(f"matrix-transplant {tag}", inputs, expected, same, ("identical", "differ")))
            family = [modified_laguerre(n, alpha, d) for n in range(len(fd_report.entries))]
            ok = all(
                basis_transplant(entry.eigenpoly, QuasiMonomial(d), QuasiMonomial(0)) == f.monic()
                for entry, f in zip(fd_report.entries, family)
            )
            expected = "eigenpolynomials = monic modified Laguerre"
            inputs = {"p": str(p), "delta": str(d), "N": 16}
            cases.append(_holds(f"modified-laguerre {tag}", inputs, expected, ok))
            stencil = stencil_of(build_hf(p), FiniteDifference(d))
            ok = all(stencil.apply(f) == f.scale(-4 * n) for n, f in enumerate(family[:11]))
            expected = "stencil(modified Laguerre_n) = -4n * modified Laguerre_n"
            inputs = {"p": str(p), "delta": str(d), "n_max": 10}
            cases.append(_holds(f"stencil-eigenfunction {tag}", inputs, expected, ok, ("holds", "fails")))
    return _report("transplant", cases)


def suite_kratzer() -> dict:
    """Inverse-square oscillator eigenvalues and the gauge-conjugation match."""
    cases = []
    for p in KRATZER_P_GRID:
        for omega in OMEGA_GRID:
            measured = [kratzer_eigencheck(n, p, omega) for n in range(7)]
            expected = [omega * (4 * n + 2 * p + 1) for n in range(7)]
            inputs = {"p": str(p), "w": str(omega), "n_max": 6}
            got = _values_string(measured)
            cases.append(_case(f"levels p={p} w={omega}", inputs, _values_string(expected), got))
            polys = [Poly.one(), Poly.monomial(1), laguerre(3, p - Fraction(1, 2))]
            # A returned E0 matched the two actions exactly: residual 0.
            e0 = omega * (2 * p + 1)
            ok = all(gauge_conjugate_check(poly, p, omega) == e0 for poly in polys)
            inputs = {"p": str(p), "w": str(omega), "polynomials": 3}
            cases.append(_holds(f"gauge p={p} w={omega}", inputs, f"E0 = {e0}, residual 0", ok))
    return _report("kratzer", cases, NOTE_KRATZER_GAP)


def suite_parity() -> dict:
    """Even/odd reduction of Hermite to Laguerre: ratios measured and recorded."""
    cases = []
    for p in (0, 1):
        for n in range(9):
            pattern = Fraction((-1) ** n * 2 ** (2 * n + p) * math.factorial(n))
            inputs = {"n": str(n), "p": str(p), "w": "1"}
            cases.append(_case(f"parity n={n} p={p}", inputs, str(pattern), str(parity_relation_ratio(n, p))))
    return _report("parity", cases)


def suite_qpencil() -> dict:
    """Scaled right-hand sides: both dilation directions, coincidence at q = 1."""
    cases = []
    for q in Q_SPECTRUM_GRID:
        matrix = realize_matrix(build_hf(Fraction(0), q=q), QDilatation(q), 12)
        for s in (-1, -2, 1, 2):
            name = "scaled" if s < 0 else "scaled-reciprocal"
            inputs = {"q": str(q), "s": str(s), "N": 12}
            cases.append(_spectrum_case(f"{name} s={s} q={q}", inputs, pencil_solve(matrix, s, q), q, s))
    flat = realize_matrix(build_hf(Fraction(0)), Differential(), 8)
    for s in (-2, -1, 1, 2):
        inputs = {"q": "1", "s": str(s), "N": 8}
        cases.append(_spectrum_case(f"coincide-at-q=1 s={s}", inputs, pencil_solve(flat, s, Fraction(1))))
    return _report("qpencil", cases, NOTE_SCALE_DIRECTION)


SUITES = {
    "heisenberg": suite_heisenberg,
    "sl2": suite_sl2,
    "casimir": suite_casimir,
    "spectrum": suite_spectrum,
    "isospectral": suite_isospectral,
    "transplant": suite_transplant,
    "kratzer": suite_kratzer,
    "parity": suite_parity,
    "qpencil": suite_qpencil,
}


def run_suite(name: str) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()


def run_all() -> list[dict]:
    """Every suite in order; the hf grid that two of them share is built once per call."""
    grid = _hf_grid()
    return [SUITES[n](grid) if n in ("isospectral", "transplant") else SUITES[n]() for n in SUITES]
