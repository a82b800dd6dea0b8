from fractions import Fraction as F

import pytest
import sympy as sp

from fockosc.algebra import LaurentPoly, Poly, QuasiMonomial, basis_transplant
from fockosc.fock import build_hf, build_hg
from fockosc.realize import Differential, FiniteDifference, realize_matrix, stencil_of
from fockosc.spectral import eigensolve_flag
from fockosc.specfun import (
    NotProportionalError,
    constant_ratio,
    gauge_conjugate_check,
    hermite,
    kratzer_apply,
    kratzer_eigencheck,
    laguerre,
    modified_laguerre,
    parity_relation_ratio,
)
from oracles import hermite_explicit, laguerre_recurrence

ALPHAS = [F(-1, 2), F(1, 2), F(2), F(7, 3), F(-1), F(-3)]


class TestLaguerre:
    def test_level_zero(self):
        assert laguerre(0, F(9, 4)) == Poly.one()

    def test_level_one_half_integer(self):
        assert laguerre(1, F(-1, 2)) == Poly([F(1, 2), -1])

    def test_level_two(self):
        assert laguerre(2, F(1, 2)) == Poly([F(15, 8), F(-5, 2), F(1, 2)])

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_matches_recurrence_oracle(self, alpha):
        for n in range(11):
            assert laguerre(n, alpha) == laguerre_recurrence(n, alpha)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_differential_equation(self, alpha):
        # y f'' + (alpha + 1 - y) f' + n f = 0, independent of everything else.
        for n in range(11):
            f = laguerre(n, alpha)
            y = Poly.monomial(1)
            residual = (
                y * f.derivative().derivative()
                + Poly([alpha + 1, -1]) * f.derivative()
                + f.scale(n)
            )
            assert residual.is_zero


class TestHermite:
    def test_first_values(self):
        assert hermite(0) == Poly.one()
        assert hermite(2) == Poly([-2, 0, 4])
        assert hermite(3) == Poly([0, -12, 0, 8])

    def test_matches_explicit_formula(self):
        for k in range(13):
            assert hermite(k) == hermite_explicit(k)


class TestModifiedLaguerre:
    def test_degree_one_unaffected(self):
        for delta in (F(1), F(-7, 5)):
            assert modified_laguerre(1, F(3, 4), delta) == laguerre(1, F(3, 4))

    def test_level_two_by_hand(self):
        # 15/8 - (5/2) y + (1/2) y(y-1)
        assert modified_laguerre(2, F(1, 2), 1) == Poly([F(15, 8), -3, F(1, 2)])

    def test_zero_step_collapses(self):
        for n in range(7):
            assert modified_laguerre(n, F(2), 0) == laguerre(n, F(2))

    @pytest.mark.parametrize("delta", [F(1), F(1, 2), F(-1, 3)])
    @pytest.mark.parametrize("p", [F(0), F(1), F(5, 2)])
    def test_eigenfunction_of_difference_stencil(self, p, delta):
        stencil = stencil_of(build_hf(p), FiniteDifference(delta))
        for n in range(11):
            candidate = modified_laguerre(n, p - F(1, 2), delta)
            assert stencil.apply(candidate) == candidate.scale(-4 * n)

    @pytest.mark.parametrize("p", [F(0), F(1), F(5, 2)])
    def test_monic_laguerre_are_differential_eigenpolys(self, p):
        report = eigensolve_flag(realize_matrix(build_hf(p), Differential(), 10))
        for n, entry in enumerate(report.entries):
            assert entry.eigenpoly == laguerre(n, p - F(1, 2)).monic()

    @pytest.mark.parametrize("delta", [F(1), F(1, 2), F(-1, 3)])
    def test_fd_eigenpolys_transplant_to_modified_laguerre(self, delta):
        p = F(1)
        report = eigensolve_flag(realize_matrix(build_hf(p), FiniteDifference(delta), 10))
        for n, entry in enumerate(report.entries):
            expanded = basis_transplant(entry.eigenpoly, QuasiMonomial(delta), QuasiMonomial(0))
            assert expanded == modified_laguerre(n, p - F(1, 2), delta).monic()

    @pytest.mark.parametrize("B", [F(1), F(-2, 3)])
    @pytest.mark.parametrize("p", [F(0), F(1)])
    def test_hg_eigenpolys_are_shifted_laguerre(self, p, B):
        # Measured family: superscript p + B - 1/2, argument y + B.
        report = eigensolve_flag(realize_matrix(build_hg(p, B), Differential(), 8))
        for n, entry in enumerate(report.entries):
            shifted = laguerre(n, p + B - F(1, 2)).shift_arg(B)
            assert entry.eigenpoly == shifted.monic()


class TestParityRelation:
    def test_ground_case(self):
        assert parity_relation_ratio(0, 0) == 1

    def test_first_even_case(self):
        # H_2(z) = 4z^2 - 2 against L_1^(-1/2)(z^2) = 1/2 - z^2.
        assert parity_relation_ratio(1, 0) == -4

    @pytest.mark.parametrize("p", [0, 1])
    def test_measured_pattern(self, p):
        import math

        for n in range(7):
            measured = parity_relation_ratio(n, p)
            assert measured == F((-1) ** n * 2 ** (2 * n + p) * math.factorial(n))

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            parity_relation_ratio(1, 2)

    @pytest.mark.parametrize(
        "h", [Poly([1, 1]), Poly([1, 0, 1])], ids=["mixed-parity", "not-a-multiple"]
    )
    def test_non_proportional_hermite_raises(self, monkeypatch, h):
        # 1 + z has both parities; 1 + z^2 is even but G = 1 + y is not a
        # multiple of L_1^(-1/2)(y) = 1/2 - y.
        monkeypatch.setattr("fockosc.specfun.hermite", lambda k: h)
        with pytest.raises(NotProportionalError):
            parity_relation_ratio(1, 0)


def sympy_weighted_image(p: F, omega: F, q_part: LaurentPoly) -> sp.Expr:
    """Independent symbolic oracle for the inverse-square oscillator action."""
    x = sp.Symbol("x", positive=True)
    q_expr = sum(
        sp.Rational(c.numerator, c.denominator) * x**k for k, c in q_part.terms.items()
    )
    pp = sp.Rational(p.numerator, p.denominator)
    w = sp.Rational(omega.numerator, omega.denominator)
    psi = x**pp * sp.exp(-w * x**2 / 2) * q_expr
    image = -sp.diff(psi, x, 2) + w**2 * x**2 * psi + pp * (pp - 1) / x**2 * psi
    return sp.expand(sp.simplify(image / (x**pp * sp.exp(-w * x**2 / 2))))


def laurent_to_sympy(q_part: LaurentPoly) -> sp.Expr:
    x = sp.Symbol("x", positive=True)
    return sp.expand(
        sum(sp.Rational(c.numerator, c.denominator) * x**k for k, c in q_part.terms.items())
    )


class TestKratzer:
    def test_ground_state_eigenvalue(self):
        for p in (F(0), F(1), F(5, 2)):
            for omega in (F(1), F(2)):
                ground = LaurentPoly({0: 1})
                image = kratzer_apply(ground, p, omega)
                assert image == ground.scale(omega * (2 * p + 1))

    def test_textbook_ground_energy(self):
        assert kratzer_eigencheck(0, 0, 1) == 1

    def test_linearity(self):
        p, omega = F(1), F(2)
        q1 = LaurentPoly({0: 1, 2: F(1, 3)})
        q2 = LaurentPoly({2: -2, 4: F(7)})
        lhs = kratzer_apply(q1 + q2, p, omega)
        rhs = kratzer_apply(q1, p, omega) + kratzer_apply(q2, p, omega)
        assert lhs == rhs

    @pytest.mark.parametrize(
        "p,omega,q_terms",
        [
            (F(0), F(1), {0: F(1)}),
            (F(1), F(2), {0: F(1, 2), 2: F(-3)}),
            (F(3, 2), F(1), {2: F(1), 4: F(2, 7)}),
            (F(5, 2), F(2), {0: F(1), 1: F(1)}),  # odd power: Laurent output
        ],
    )
    def test_matches_sympy_oracle(self, p, omega, q_terms):
        q = LaurentPoly(q_terms)
        mine = laurent_to_sympy(kratzer_apply(q, p, omega))
        oracle = sympy_weighted_image(p, omega, q)
        assert sp.simplify(mine - oracle) == 0

    def test_first_excited_energy(self):
        assert kratzer_eigencheck(1, 0, 1) == 5

    def test_weighted_level_two(self):
        assert kratzer_eigencheck(2, 1, 2) == 22

    @pytest.mark.parametrize("p", [F(0), F(1), F(3, 2), F(5, 2)])
    @pytest.mark.parametrize("omega", [F(1), F(2)])
    def test_level_grid(self, p, omega):
        for n in range(7):
            assert kratzer_eigencheck(n, p, omega) == omega * (4 * n + 2 * p + 1)

    @pytest.mark.parametrize("p", [F(0), F(3, 2)])
    def test_fixed_parity_spacing_is_four_omega(self, p):
        omega = F(2)
        levels = [kratzer_eigencheck(n, p, omega) for n in range(5)]
        assert all(b - a == 4 * omega for a, b in zip(levels, levels[1:]))

    def test_non_eigenfunction_has_no_constant_ratio(self):
        q = LaurentPoly({0: 1, 2: 1})
        image = kratzer_apply(q, F(0), F(1))
        assert constant_ratio(image, q) is None

    @pytest.mark.parametrize("omega", [F(0), F(-1)])
    def test_nonpositive_frequency_rejected(self, omega):
        with pytest.raises(ValueError):
            kratzer_apply(LaurentPoly({0: 1}), F(0), omega)
        with pytest.raises(ValueError):
            kratzer_eigencheck(1, F(0), omega)


class TestGaugeConjugation:
    def test_constant_polynomial(self):
        for p in (F(0), F(1), F(5, 2)):
            for omega in (F(1), F(2)):
                assert gauge_conjugate_check(Poly.one(), p, omega) == omega * (2 * p + 1)

    def test_linear_polynomial(self):
        assert gauge_conjugate_check(Poly.monomial(1), 0, 1) == 1

    @pytest.mark.parametrize("n", range(5))
    def test_laguerre_consistency_with_levels(self, n):
        # E0 - w * (-4n) must equal the measured level w(4n + 2p + 1).
        p, omega = F(1), F(2)
        poly = laguerre(n, p - F(1, 2))
        e0 = gauge_conjugate_check(poly, p, omega)
        assert e0 + 4 * n * omega == kratzer_eigencheck(n, p, omega)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            gauge_conjugate_check(Poly(), 0, 1)

    def test_wrong_flag_operator_has_no_gauge_constant(self, monkeypatch):
        # h at p + 1 adds the constant 4 to h y, which no single E0 absorbs.
        import fockosc.specfun

        monkeypatch.setattr(fockosc.specfun, "build_hf", lambda p: build_hf(p + 1))
        with pytest.raises(NotProportionalError):
            gauge_conjugate_check(Poly.monomial(1), 0, 1)
