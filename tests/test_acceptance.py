"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Every comparison is exact rational equality; the only
tolerances are the stated wall-clock budgets.
"""

import random
import time
from fractions import Fraction as F

from fockosc.algebra import Poly, QuasiMonomial, basis_transplant
from fockosc.cli import main
from fockosc.fock import build_hf, build_hg, casimir_value, commutator, q_number, sl2_generators
from fockosc.realize import (
    Differential,
    FiniteDifference,
    QDilatation,
    heisenberg_residual,
    realize_matrix,
    stencil_of,
)
from fockosc.spectral import eigensolve_flag, pencil_solve
from fockosc.specfun import (
    gauge_conjugate_check,
    kratzer_eigencheck,
    laguerre,
    modified_laguerre,
    parity_relation_ratio,
)

P_GRID = (F(0), F(1), F(5, 2))
DELTA_GRID = (F(1), F(1, 2), F(-1, 3))


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {verdict} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def random_polys(count, max_degree, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        degree = rng.randint(0, max_degree)
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)]
        coeffs[degree] = coeffs[degree] or F(1)
        out.append(Poly(coeffs))
    return out


def test_criterion_01_classic_spectrum():
    start = time.perf_counter()
    ok = True
    for p in P_GRID:
        spectrum = eigensolve_flag(realize_matrix(build_hf(p), Differential(), 20)).eigenvalues
        ok = ok and spectrum == tuple(F(-4 * n) for n in range(21))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    grid = ", ".join(str(p) for p in P_GRID)
    report(1, "differential spectrum is exactly -4n for n = 0..20", ok,
           f"p in {{{grid}}}, {elapsed:.3f}s")


def test_criterion_02_isospectral_discretization():
    ok = True
    for p in P_GRID:
        reference = eigensolve_flag(realize_matrix(build_hf(p), Differential(), 16))
        for d in DELTA_GRID:
            fd = eigensolve_flag(realize_matrix(build_hf(p), FiniteDifference(d), 16))
            ok = ok and fd.eigenvalues == reference.eigenvalues
            for n, entry in enumerate(fd.entries):
                expanded = basis_transplant(entry.eigenpoly, QuasiMonomial(d), QuasiMonomial(0))
                ok = ok and expanded == modified_laguerre(n, p - F(1, 2), d).monic()
    report(2, "difference spectra equal -4n with modified-Laguerre eigenpolynomials",
           ok, "exact equality, N = 16")


def test_criterion_03_heisenberg_residuals():
    realizations = [(Differential(), F(1))]
    realizations += [(FiniteDifference(d), F(1)) for d in DELTA_GRID]
    realizations += [(QDilatation(q), q) for q in (F(2), F(1, 3), F(7, 5))]
    ok = True
    for r, q in realizations:
        assert r.q == q
        for f in random_polys(200, 15, seed=8204317):
            if not heisenberg_residual(r, f).is_zero:
                ok = False
                break
    report(3, "(a.b - q.b.a - 1) f = 0 for 200 random degree<=15 polynomials per realization",
           ok, f"{len(realizations)} realizations")


def test_criterion_04_sl2_and_casimir():
    ok = True
    for n in (F(0), F(1), F(2), F(3), F(7, 2)):
        gens = sl2_generators(n)
        ok = ok and commutator(gens.jzero, gens.jplus) == gens.jplus
        ok = ok and commutator(gens.jzero, gens.jminus) == -gens.jminus
        ok = ok and commutator(gens.jplus, gens.jminus) == gens.jzero.scale(-2)
    for n in range(9):
        ok = ok and casimir_value(n).value == -F(n, 2) * (F(n, 2) + 1)
    report(4, "triple relations hold and the Casimir equals -(n/2)(n/2+1)", ok,
           "n in {0,1,2,3,7/2}; Casimir n = 0..8")


def test_criterion_05_deformed_spectrum():
    ok = True
    for q in (F(2), F(1, 2), F(3, 7)):
        spectrum = eigensolve_flag(
            realize_matrix(build_hf(F(0), q=q), QDilatation(q), 16)
        ).eigenvalues
        ok = ok and spectrum == tuple(-4 * q_number(n, q) for n in range(17))
    report(5, "dilatation spectrum is exactly -4{n} with sum-form deformed integers",
           ok, "q in {2, 1/2, 3/7}, N = 16")


def test_criterion_06_pencil_spectra():
    ok = True
    emitted = []
    for q in (F(2), F(1, 2), F(3, 7)):
        matrix = realize_matrix(build_hf(F(0), q=q), QDilatation(q), 12)
        once = pencil_solve(matrix, -1, q).eigenvalues
        twice = pencil_solve(matrix, -2, q).eigenvalues
        ok = ok and once == tuple(-4 * q**n * q_number(n, q) for n in range(13))
        ok = ok and twice == tuple(-4 * q ** (2 * n) * q_number(n, q) for n in range(13))
        for s in (1, 2):
            reciprocal = pencil_solve(matrix, s, q).eigenvalues
            ok = ok and reciprocal == tuple(
                -4 * q_number(n, q) * q ** (-s * n) for n in range(13)
            )
            emitted.append((str(q), s))
    flat = realize_matrix(build_hf(F(0)), Differential(), 10)
    classic = tuple(F(-4 * n) for n in range(11))
    for s in (-2, -1, 1, 2):
        ok = ok and pencil_solve(flat, s, F(1)).eigenvalues == classic
    report(6, "scaled right-hand sides give -4q^n{n} (s=-1) and -4q^2n{n} (s=-2); "
              "positive s emitted as the reciprocal convention; all coincide at q=1",
           ok, f"reciprocal runs {emitted}")


def test_criterion_07_four_point_operator():
    ok = True
    shifts = []
    for big_b in (F(1), F(-2, 3)):
        for d in DELTA_GRID:
            stencil = stencil_of(build_hg(F(0), big_b), FiniteDifference(d))
            ok = ok and stencil.offsets == (-1, 0, 1, 2)
            ok = ok and stencil.coeff(2).coeff(0) == 4 * big_b / d**2
        for p in (F(0), F(1)):
            spectrum_report = eigensolve_flag(
                realize_matrix(build_hg(p, big_b), Differential(), 16)
            )
            ok = ok and spectrum_report.eigenvalues == tuple(F(-4 * n) for n in range(17))
            alpha = p + big_b - F(1, 2)
            for n, entry in enumerate(spectrum_report.entries):
                shifted = laguerre(n, alpha).shift_arg(big_b).monic()
                ok = ok and entry.eigenpoly == shifted
            shifts.append((str(p), str(big_b), f"alpha={alpha}", f"shift={big_b}"))
    report(7, "four-point stencil has c2 = 4B/d^2, spectrum -4n, shifted-Laguerre eigenpolynomials",
           ok, f"recorded shifts {shifts}")


def test_criterion_08_inverse_square_levels():
    start = time.perf_counter()
    ok = True
    for p in (F(0), F(1), F(3, 2), F(5, 2)):
        for omega in (F(1), F(2)):
            for n in range(7):
                ok = ok and kratzer_eigencheck(n, p, omega) == omega * (4 * n + 2 * p + 1)
            e0 = gauge_conjugate_check(laguerre(2, p - F(1, 2)), p, omega)
            ok = ok and e0 == omega * (2 * p + 1)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(8, "weighted levels are w(4n+2p+1) and the gauge constant is w(2p+1)", ok,
           f"{elapsed:.3f}s")


def test_criterion_09_parity_relation():
    ok = True
    ratios = []
    for p in (0, 1):
        for n in range(9):
            ratio = parity_relation_ratio(n, p)
            ratios.append(f"n={n} p={p}: {ratio}")
            ok = ok and ratio != 0
    print("measured parity ratios: " + "; ".join(ratios))
    report(9, "Hermite reduces to weighted Laguerre with a recorded constant", ok,
           "n <= 8, p in {0, 1}")


def test_criterion_10_full_verification_run(tmp_path):
    first, second = tmp_path / "run1.json", tmp_path / "run2.json"
    start = time.perf_counter()
    code1 = main(["verify", "all", "--out", str(first)])
    elapsed = time.perf_counter() - start
    code2 = main(["verify", "all", "--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical and elapsed < 60.0
    report(10, "full verification exits 0 in budget with byte-identical output", ok,
           f"{elapsed:.1f}s, identical={identical}")
