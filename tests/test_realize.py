import ast
import pathlib
import random
import sys
from fractions import Fraction as F
from unittest import mock

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fockosc import algebra, fock, realize
from fockosc.algebra import (
    LaurentPoly,
    NotTriangularError,
    OperatorMatrix,
    Poly,
    QuasiMonomial,
    basis_element,
    basis_transplant,
    preserves_flag,
)
from fockosc.fock import AlgebraMismatchError, FockPoly, build_hf, build_hg, number_matrix, q_bracket, q_number
from fockosc.realize import (
    Differential,
    FiniteDifference,
    QDilatation,
    Realization,
    Stencil,
    apply_op,
    heisenberg_residual,
    realize_matrix,
    stencil_of,
)
from fockosc.verify import run_suite
from fockosc.spectral import eigensolve_flag, pencil_solve
from oracles import (
    act_on_poly,
    dense_apply,
    linear_combination,
    newton_coefficients,
    oracle_product,
    shift_by_powers,
)

DELTAS = [F(1), F(1, 2), F(-1, 3)]
QS = [F(2), F(1, 2), F(3, 7)]
PS = [F(0), F(1), F(5, 2)]


def diagonal(m):
    return tuple(c.coeff(j) for j, c in enumerate(m.columns))


def random_polys(count, max_degree, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        degree = rng.randint(0, max_degree)
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)]
        coeffs[degree] = coeffs[degree] or F(1)
        out.append(Poly(coeffs))
    return out


# The realizations random_elements draws under, in turn: each kind, and q = -1, where {2} = 0.
NUMBER_REALIZATIONS = [
    Differential(),
    FiniteDifference(F(1)),
    FiniteDifference(F(-2, 3)),
    QDilatation(F(7, 6)),
    QDilatation(F(-1)),
    QDilatation(F(3, 7)),
]


def random_elements(count, seed):
    """(h, r, n): seeded elements with up to five words b^k a^m, k, m <= 3 (so k > m
    occurs), under each of NUMBER_REALIZATIONS in turn, and flag dimensions n <= 12."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        r = NUMBER_REALIZATIONS[i % len(NUMBER_REALIZATIONS)]
        words = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 5))]
        h = FockPoly({w: F(rng.randint(-9, 9), rng.randint(1, 5)) for w in words}, r.q)
        out.append((h, r, rng.randint(0, 12)))
    return out


class TestRealizationParams:
    def test_fd_rejects_zero_step(self):
        with pytest.raises(ValueError):
            FiniteDifference(0)

    @pytest.mark.parametrize("q", [0, 1])
    def test_qdil_rejects_degenerate_parameter(self, q):
        with pytest.raises(ValueError):
            QDilatation(q)

    @pytest.mark.parametrize(
        "make, name, value",
        [(FiniteDifference, "delta", 0.1), (QDilatation, "q", 1.1), (QDilatation, "q", 2.0)],
    )
    def test_float_parameter_is_refused(self, make, name, value):
        with pytest.raises(TypeError, match=rf'^{name} must be exact.*Fraction\("{value!r}"\)$'):
            make(value)
        assert make(F(repr(value))).to_json()[name] == str(F(repr(value)))


class TestRealizationProtocol:
    # y^3 under each realization, by hand:
    #   diff:  a y^3 = 3y^2,  b y^3 = y^4
    #   fd:    a y^3 = ((y+d)^3 - y^3)/d = 3y^2 + 3dy + d^2,  b y^3 = y(y-d)^3
    #   qdil:  a y^3 = {3} y^2 = (1 + q + q^2) y^2,  b y^3 = y^4
    @pytest.mark.parametrize(
        "r, q, basis, spec, label, lowered, raised, mode",
        [
            (Differential(), F(1), QuasiMonomial(0), {"kind": "diff"}, "diff",
             Poly([0, 0, 3]), Poly([0, 0, 0, 0, 1]), None),
            (FiniteDifference(F(1, 3)), F(1), QuasiMonomial(F(1, 3)),
             {"kind": "fd", "delta": "1/3"}, "fd(delta=1/3)",
             Poly([F(1, 9), 1, 3]), Poly([0, F(-1, 27), F(1, 3), -1, 1]), "shift"),
            (QDilatation(F(3, 7)), F(3, 7), QuasiMonomial(0),
             {"kind": "qdil", "q": "3/7"}, "qdil(q=3/7)",
             Poly([0, 0, F(79, 49)]), Poly([0, 0, 0, 0, 1]), "scale"),
        ],
    )
    def test_methods_on_cubic(self, r, q, basis, spec, label, lowered, raised, mode):
        assert r.q == q
        assert r.basis == basis
        assert r.to_json() == spec
        assert r.label == label
        assert r.lower(Poly.monomial(3)) == lowered
        assert r.raise_(Poly.monomial(3)) == raised
        if mode is None:
            with pytest.raises(ValueError):
                stencil_of(build_hf(0), r)
        else:
            assert stencil_of(build_hf(0, q=q), r).mode == mode


class TestGeneratorActions:
    def test_differential_pair(self):
        f = Poly([1, 2, 3])
        assert Differential().lower(f) == Poly([2, 6])
        assert Differential().raise_(f) == Poly([0, 1, 2, 3])

    def test_fd_b_is_shifted_multiplication(self):
        # y(1 - d D-) f collapses to y * f(y - d).
        d = F(1, 2)
        f = Poly([0, 0, 1])
        assert FiniteDifference(d).raise_(f) == Poly.monomial(1) * f.shift_arg(-d)

    def test_qdil_a_on_monomials(self):
        q = F(3, 7)
        r = QDilatation(q)
        for k in range(6):
            image = r.lower(Poly.monomial(k))
            expected = Poly.monomial(k - 1, q_number(k, q)) if k else Poly()
            assert image == expected


    @pytest.mark.parametrize("q", [F(2), F(1, 3), F(7, 5), F(-6, 7)])
    def test_qdil_a_matches_per_coefficient_q_numbers(self, q):
        for f in random_polys(25, 15, seed=404):
            expected = Poly([q_number(k, q) * c for k, c in enumerate(f.coeffs)][1:])
            assert QDilatation(q).lower(f) == expected


class FaultyShift(FiniteDifference):
    """b = y f(y + d): the raising shift with the wrong sign."""

    def raise_ints(self, d, xs):
        return FiniteDifference(-self.delta).raise_ints(d, xs)


class FaultyScale(QDilatation):
    """a = 2 D_q: the dilatation derivative scaled by 2."""

    def lower_ints(self, d, xs):
        d, xs = super().lower_ints(d, xs)
        return d, [2 * x for x in xs]


class TestHeisenbergResidual:
    def test_differential_cubic(self):
        assert heisenberg_residual(Differential(), Poly.monomial(3)).is_zero

    @pytest.mark.parametrize("delta", DELTAS)
    def test_fd_random_degree_15(self, delta):
        for f in random_polys(25, 15, seed=101):
            assert heisenberg_residual(FiniteDifference(delta), f).is_zero

    def test_qdil_quartic(self):
        assert heisenberg_residual(QDilatation(F(3, 7)), Poly.monomial(4)).is_zero

    @pytest.mark.parametrize("q", [F(2), F(1, 3), F(7, 5)])
    def test_qdil_random(self, q):
        for f in random_polys(25, 15, seed=202):
            assert heisenberg_residual(QDilatation(q), f).is_zero

    def test_dilatation_bracket_is_plus_one_on_cubic(self):
        r = QDilatation(F(2))
        f = Poly.monomial(3)
        ab = r.lower(r.raise_(f))
        ba = r.raise_(r.lower(f))
        assert ab - ba.scale(F(2)) == f  # and not -f

    def test_flipped_dilatation_sign_gives_bracket_minus_one(self):
        # The denominator y(1-q) negates a, so a.b - q.b.a = -1 and the
        # residual (a.b - q.b.a - 1) f is -2f.
        class FlippedDilatation(QDilatation):
            def lower_ints(self, d, xs):
                d, xs = super().lower_ints(d, xs)
                return d, [-x for x in xs]

        r = FlippedDilatation(F(2))
        for f in random_polys(10, 8, seed=303):
            assert heisenberg_residual(r, f) == f.scale(-2)

    # Nonzero residuals are exact: the integer combination equals the Poly one.
    @pytest.mark.parametrize("make", [FaultyShift, FaultyScale])
    @pytest.mark.parametrize("param", [F(3, 7), F(-6, 7)])
    def test_residual_equals_poly_arithmetic(self, make, param):
        r = make(param)
        for f in random_polys(40, 12, seed=505) + [Poly(), Poly([F(-5, 3)])]:
            ab = r.lower(r.raise_(f))
            ba = r.raise_(r.lower(f))
            expected = linear_combination([(1, ab), (-r.q, ba), (-1, f)])
            assert heisenberg_residual(r, f) == expected
            # The wrong shift keeps the bracket on constants: y c lowers back to c.
            constant = len(f.coeffs) <= 1
            assert expected.is_zero == (f.is_zero or constant and isinstance(r, FaultyShift))


def word_by_word(h: FockPoly, r, f: Poly) -> Poly:
    """h applied to f one word b^k a^m at a time, through r.lower and r.raise_."""
    words = []
    for (k, m), c in h.terms.items():
        g = f
        for _ in range(m):
            g = r.lower(g)
        for _ in range(k):
            g = r.raise_(g)
        words.append((c, g))
    return linear_combination(words)


class TestPrimitiveOverrides:
    """Every path acts through lower_ints and raise_ints, so overriding one changes them all."""

    @pytest.mark.parametrize("primitive", ["lower_ints", "raise_ints"])
    @pytest.mark.parametrize(
        "base",
        [Differential(), FiniteDifference(F(-2, 3)), QDilatation(F(5, 2))],
        ids=["Differential", "FiniteDifference(-2/3)", "QDilatation(5/2)"],
    )
    def test_override_reaches_every_path(self, base, primitive):
        original = getattr(type(base), primitive)

        def doubled(self, d, xs):
            d, xs = original(self, d, xs)
            return d, [2 * x for x in xs]

        r = type("Doubled", (type(base),), {primitive: doubled})(
            **{name: getattr(base, name) for name in type(base).__slots__}
        )
        f = Poly([F(1, 2), -3, 0, 2])
        generator = "lower" if primitive == "lower_ints" else "raise_"
        assert getattr(r, generator)(f) == getattr(base, generator)(f).scale(2)

        h = FockPoly({(0, 0): F(1, 3), (0, 2): -1, (1, 1): F(2, 5), (2, 0): 3}, r.q)
        assert apply_op(h, r, f) == word_by_word(h, r, f) != apply_op(h, base, f)
        matrix = realize_matrix(h, r, 4)
        assert matrix != realize_matrix(h, base, 4)
        for j, column in enumerate(matrix.columns):
            image = word_by_word(h, r, basis_element(r.basis, j))
            assert column == basis_transplant(image, QuasiMonomial(0), r.basis)
        # a.b - q.b.a = 2 under either doubling, so the residual is f.
        assert heisenberg_residual(r, f) == f
        assert heisenberg_residual(r, f) == r.lower(r.raise_(f)) - r.raise_(r.lower(f)).scale(r.q) - f


class TestVacuum:
    @pytest.mark.parametrize(
        "r", [Differential(), FiniteDifference(F(1, 2)), QDilatation(F(5, 2))]
    )
    def test_vacuum_is_annihilated(self, r):
        assert r.lower(Poly.one()).is_zero


class TestRealizeMatrix:
    def test_differential_hf_small(self):
        m = realize_matrix(build_hf(0), Differential(), 2)
        assert m.rows == (
            (F(0), F(2), F(0)),
            (F(0), F(-4), F(12)),
            (F(0), F(0), F(-8)),
        )
        assert m.basis == QuasiMonomial(0)

    @pytest.mark.parametrize("p", PS)
    @pytest.mark.parametrize("delta", DELTAS)
    def test_transplant_principle_hf(self, p, delta):
        md = realize_matrix(build_hf(p), Differential(), 12)
        mfd = realize_matrix(build_hf(p), FiniteDifference(delta), 12)
        assert mfd.columns == md.columns
        assert mfd.basis == QuasiMonomial(delta)

    @pytest.mark.parametrize("delta", DELTAS)
    def test_transplant_principle_random_lowering_words(self, delta):
        # Any element whose words all carry a lowering power acts the same
        # on quasi-monomials as its differential form does on monomials.
        rng = random.Random(77)
        for _ in range(10):
            terms = {
                (rng.randint(0, 2), rng.randint(1, 2)): F(rng.randint(-5, 5) or 1)
                for _ in range(rng.randint(1, 3))
            }
            h = FockPoly(terms)
            md = realize_matrix(h, Differential(), 9)
            mfd = realize_matrix(h, FiniteDifference(delta), 9)
            assert mfd.columns == md.columns

    @pytest.mark.parametrize("q", QS)
    def test_qdil_diagonal_is_deformed(self, q):
        m = realize_matrix(build_hf(0, q=q), QDilatation(q), 8)
        assert diagonal(m) == tuple(-4 * q_number(n, q) for n in range(9))

    def test_qdil_small_example(self):
        m = realize_matrix(build_hf(0, q=2), QDilatation(2), 2)
        assert diagonal(m) == (F(0), F(-4), F(-12))

    def test_realization_carries_no_state(self):
        # A realization is a plain value: realizing a matrix leaves nothing on
        # it that a later call, or another thread, could read.
        r = QDilatation(F(7, 6))
        fields = r._key
        realize_matrix(build_hg(F(5, 2), F(-2, 3), q=r.q), r, 64)
        assert r._key == fields == (F(7, 6),)
        assert not hasattr(r, "__dict__")

    def test_fock_action_matches_realized_matrix(self):
        # Acting on b^j through the vacuum is the same linear map as the
        # dilatation realization acting on y^j.
        q = F(3, 7)
        h = build_hf(F(1), q=q)
        m = realize_matrix(h, QDilatation(q), 6)
        for j in range(7):
            assert act_on_poly(h, Poly.monomial(j)) == m.columns[j]

    @pytest.mark.parametrize(
        "h, n", [(FockPoly.b(), 0), (FockPoly.word(3, 1), 1)], ids=["b-on-P0", "b3a-on-P1"]
    )
    def test_images_leaving_the_flag_are_recorded(self, h, n):
        # The view inside P_N is zero, but the columns keep the images y
        # and y^3 that left it.
        m = realize_matrix(h, Differential(), n)
        assert all(x == 0 for row in m.rows for x in row)
        assert max(len(c.coeffs) for c in m.columns) > n + 1
        assert m != OperatorMatrix([Poly()] * (n + 1), m.basis)

    def test_context_mismatch_rejected(self):
        """realize_matrix (through apply_op) and stencil_of name both q values alike."""
        element_q2 = "element has q=2 but realization carries q=1"
        element_q1 = "element has q=1 but realization carries q=2"
        with pytest.raises(AlgebraMismatchError, match=element_q2):
            realize_matrix(build_hf(0, q=2), Differential(), 3)
        with pytest.raises(AlgebraMismatchError, match=element_q1):
            realize_matrix(build_hf(0), QDilatation(2), 3)
        with pytest.raises(AlgebraMismatchError, match=element_q2):
            stencil_of(build_hf(0, q=2), FiniteDifference(1))
        with pytest.raises(AlgebraMismatchError, match=element_q1):
            stencil_of(build_hf(0), QDilatation(2))

    @pytest.mark.parametrize("side", [1, -1])
    def test_q_limit_of_dilatation_entries(self, side):
        # Entries approach the differential ones linearly in (q - 1) as q
        # walks toward 1 along q = 1 +/- 1/2^k.
        target = realize_matrix(build_hf(0), Differential(), 6)
        gaps = []
        for k in range(1, 7):
            q = 1 + side * F(1, 2**k)
            m = realize_matrix(build_hf(0, q=q), QDilatation(q), 6)
            gaps.append(
                max(
                    abs(m.rows[i][j] - target.rows[i][j])
                    for i in range(7)
                    for j in range(7)
                )
            )
        assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))
        # Linear-in-(q-1) convergence: two halvings of (q-1) shrink the
        # gap by better than half once the tail is reached.
        assert 2 * gaps[-1] < gaps[-3]

    def test_sum_form_at_q_one_is_exactly_differential(self):
        # The deformed-integer sum form is defined at q = 1, where the
        # vacuum action reproduces the differential matrix exactly.
        target = realize_matrix(build_hf(0), Differential(), 6)
        h = build_hf(0, q=1)
        for j in range(7):
            assert act_on_poly(h, Poly.monomial(j)) == target.columns[j]

    def test_degree_non_increase_of_hf(self):
        m = realize_matrix(build_hf(F(5, 2)), Differential(), 10)
        for j in range(11):
            assert len(m.columns[j].coeffs) <= j + 1


class TestNumberMatrix:
    """fock.number_matrix against realize_matrix, the polynomial path it never runs."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_realize_matrix(self, seed):
        elements = random_elements(36, seed)
        assert any(k > m for h, _, _ in elements for k, m in h.terms)
        for h, r, n in elements:
            assert number_matrix(h, n, r.basis) == realize_matrix(h, r, n), (h, r.label, n)

    @pytest.mark.parametrize("q", [F(2**64 - 1, 2**64 - 2), F(-(2**64 - 1), 2**64 - 2)], ids=["q>0", "q<0"])
    @pytest.mark.parametrize(
        "build", [lambda q: build_hf(F(5, 2), q), lambda q: build_hg(F(-1, 3), F(2, 7), q)], ids=["hf", "hg"]
    )
    def test_matches_realize_matrix_at_the_height_cap(self, q, build):
        # Column j >= 2 of each is an integer pair over a multiple of s^(2j-3), s = 2^64 - 2.
        h = build(q)
        for n in (0, 1, 2, 12):
            assert number_matrix(h, n, QuasiMonomial(0)) == realize_matrix(h, QDilatation(q), n), n

    def test_column_leaving_the_flag_is_kept(self):
        # b^2 a e_j = j e_(j+1) leaves P_2 from column 1 on.
        m = number_matrix(FockPoly({(2, 1): 1, (0, 0): 3}), 2, QuasiMonomial(0))
        assert not preserves_flag(m)
        assert m.columns[2] == Poly([0, 0, 3, 2])
        with pytest.raises(NotTriangularError):
            eigensolve_flag(m)

    def test_negative_flag_dimension(self):
        with pytest.raises(ValueError, match="non-negative"):
            number_matrix(build_hf(0), -1, QuasiMonomial(0))


class TestStencils:
    def test_three_point_hf_delta1(self):
        st = stencil_of(build_hf(0), FiniteDifference(F(1)))
        assert st.offsets == (-1, 0, 1)
        assert st.coeff(1) == LaurentPoly({0: 2, 1: 4})
        assert st.coeff(0) == LaurentPoly({0: -2, 1: -12})
        assert st.coeff(-1) == LaurentPoly({1: 8})

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("p", PS)
    def test_three_point_general(self, p, delta):
        st = stencil_of(build_hf(p), FiniteDifference(delta))
        d = delta
        half = p + F(1, 2)
        assert st.coeff(1) == LaurentPoly({0: 4 * half / d, 1: 4 / d**2})
        assert st.coeff(0) == LaurentPoly(
            {0: -4 * half / d, 1: -4 / d - 8 / d**2}
        )
        assert st.coeff(-1) == LaurentPoly({1: 4 / d + 4 / d**2})

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("B", [F(1), F(-2, 3)])
    def test_four_point_hg(self, B, delta):
        st = stencil_of(build_hg(0, B), FiniteDifference(delta))
        assert st.offsets == (-1, 0, 1, 2)
        assert st.coeff(2) == LaurentPoly({0: 4 * B / delta**2})

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("p", PS)
    def test_dilatation_three_point(self, p, q):
        st = stencil_of(build_hf(p, q=q), QDilatation(q))
        assert st.offsets == (0, 1, 2)
        assert st.coeff(2) == LaurentPoly({-1: 4 / (q * (q - 1) ** 2)})
        # Middle and stationary coefficients from the composition:
        half = p + F(1, 2)
        c1 = LaurentPoly(
            {-1: -4 * (1 + q - half * q * (q - 1)) / (q * (q - 1) ** 2), 0: F(-4) / (q - 1)}
        )
        c0 = LaurentPoly({-1: 4 * (1 - half * (q - 1)) / (q - 1) ** 2, 0: F(4) / (q - 1)})
        assert st.coeff(1) == c1
        assert st.coeff(0) == c0

    def test_row_sum_annihilates_constants(self):
        st = stencil_of(build_hf(F(5, 2)), FiniteDifference(F(1, 2)))
        total = LaurentPoly()
        for _, c in st.terms:
            total = total + c
        assert total.is_zero

    @pytest.mark.parametrize("p", PS)
    @pytest.mark.parametrize("delta", DELTAS)
    def test_two_path_equality_fd(self, p, delta):
        # Stencil application and matrix application agree on every basis
        # element of the quasi-monomial flag.
        from fockosc.algebra import basis_element, basis_transplant

        h = build_hf(p)
        st = stencil_of(h, FiniteDifference(delta))
        m = realize_matrix(h, FiniteDifference(delta), 16)
        basis = QuasiMonomial(delta)
        for j in range(17):
            image = st.apply(basis_element(basis, j))
            assert basis_transplant(image, QuasiMonomial(0), basis) == m.columns[j]

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("B", [F(1), F(-2, 3)])
    def test_two_path_equality_fd_four_point(self, B, delta):
        from fockosc.algebra import basis_element, basis_transplant

        h = build_hg(F(5, 2), B)
        st = stencil_of(h, FiniteDifference(delta))
        m = realize_matrix(h, FiniteDifference(delta), 16)
        basis = QuasiMonomial(delta)
        for j in range(17):
            image = st.apply(basis_element(basis, j))
            assert basis_transplant(image, QuasiMonomial(0), basis) == m.columns[j]

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("B", [F(0), F(1), F(-2, 3)])
    def test_two_path_equality_qdil(self, q, B):
        h = build_hg(F(1), B, q=q)
        st = stencil_of(h, QDilatation(q))
        m = realize_matrix(h, QDilatation(q), 16)
        for j in range(17):
            assert st.apply(Poly.monomial(j)) == m.columns[j]

    def test_qdil_stencil_of_hg_keeps_three_points(self):
        # The shift coefficient B only reshuffles coefficients; scaling
        # stencils keep offsets {0, 1, 2}.
        st = stencil_of(build_hg(0, F(1), q=F(2)), QDilatation(F(2)))
        assert st.offsets == (0, 1, 2)

    def test_negative_delta_matches_positive(self):
        ma = realize_matrix(build_hf(1), FiniteDifference(F(1, 2)), 10)
        mb = realize_matrix(build_hf(1), FiniteDifference(F(-1, 2)), 10)
        assert diagonal(ma) == diagonal(mb)

    def test_differential_has_no_stencil(self):
        with pytest.raises(ValueError):
            stencil_of(build_hf(0), Differential())


class TestFlagInvariance:
    def test_raising_generator_subspace_invariance(self):
        # The spin-2 raising generator leaves P_2 invariant but pushes
        # y^4 out of P_4; exact image degrees show the difference.
        from fockosc.fock import sl2_generators

        jplus2 = sl2_generators(2).jplus
        r = Differential()
        images_p2 = [apply_op(jplus2, r, Poly.monomial(k)) for k in range(3)]
        assert all(im.is_zero or im.degree <= 2 for im in images_p2)
        overflow = apply_op(jplus2, r, Poly.monomial(4))
        assert overflow.degree == 5


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)
realizations = st.one_of(
    small_rationals.filter(lambda d: d != 0).map(FiniteDifference),
    small_rationals.filter(lambda q: q not in (0, 1)).map(QDilatation),
)
polys = st.lists(small_rationals, min_size=1, max_size=8).map(Poly)
# Polynomials whose coefficients are zero three times in four.
mostly_zero_polys = st.lists(
    st.tuples(st.integers(0, 3), small_rationals).map(lambda t: t[1] if t[0] == 0 else F(0)),
    max_size=16,
).map(Poly)


@st.composite
def lowering_elements(draw, q):
    """Elements with lowering degree <= 4; half of them keep only words b^k a^m with k <= m."""
    keys = st.tuples(st.integers(0, 3), st.integers(0, 4))
    terms = draw(st.dictionaries(keys, small_rationals, max_size=4))
    if draw(st.booleans()):
        terms = {(k, m): c for (k, m), c in terms.items() if k <= m}
    return FockPoly(terms, q)


Y = sp.Symbol("y")


def sympy_rational(c: F) -> sp.Rational:
    return sp.Rational(c.numerator, c.denominator)


def sympy_lower(e: sp.Expr, r) -> sp.Expr:
    """a by its formula: f' under diff, (f(y+d) - f(y))/d under fd, (f(qy) - f(y))/(y(q-1)) under qdil."""
    if isinstance(r, Differential):
        return sp.diff(e, Y)
    if isinstance(r, FiniteDifference):
        d = sympy_rational(r.delta)
        return sp.expand((e.subs(Y, Y + d) - e) / d)
    q = sympy_rational(r.q)
    return sp.expand(sp.cancel((e.subs(Y, q * Y) - e) / (Y * (q - 1))))


def sympy_raise(e: sp.Expr, r) -> sp.Expr:
    """b by its formula: y f(y-d) under fd, y f under qdil."""
    if isinstance(r, FiniteDifference):
        return sp.expand(Y * e.subs(Y, Y - sympy_rational(r.delta)))
    return sp.expand(Y * e)


def sympy_generator_action(h: FockPoly, r, f: Poly) -> Poly:
    """h applied to f word by word through the generator formulas, substituted in sympy."""
    total = sp.Integer(0)
    for (k, m), c in h.terms.items():
        g = sum((sympy_rational(a) * Y**j for j, a in enumerate(f.coeffs)), sp.Integer(0))
        for _ in range(m):
            g = sympy_lower(g, r)
        for _ in range(k):
            g = sympy_raise(g, r)
        total += sympy_rational(c) * g
    coeffs = sp.Poly(sp.expand(total), Y).all_coeffs()[::-1]
    return Poly([F(int(a.p), int(a.q)) for a in coeffs])


class TestApplyOpSympyOracle:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_generator_formulas(self, data):
        # Besides the small parameters: a negative step, a step at the 2^64 - 1
        # height cap, negative q and |q| < 1; lowering_elements reaches b^3.
        r = data.draw(
            st.one_of(
                realizations,
                st.sampled_from([F(-2, 3), F(2**64 - 1, 3)]).map(FiniteDifference),
                st.sampled_from([F(-6, 7), F(1, 3), F(-1, 2)]).map(QDilatation),
            )
        )
        h = data.draw(lowering_elements(r.q))
        f = data.draw(st.one_of(polys, mostly_zero_polys, st.just(Poly())))
        expected = sympy_generator_action(h, r, f)
        assert apply_op(h, r, f) == expected

    @pytest.mark.parametrize(
        "r",
        [FiniteDifference(F(-2, 3)), QDilatation(F(5, 2))],
        ids=["FiniteDifference(-2/3)", "QDilatation(5/2)"],
    )
    def test_zero_pure_raising_and_identity(self, r):
        f = Poly([F(1, 2), -3, 0, 2])
        zero, identity = FockPoly({}, r.q), FockPoly({(0, 0): 1}, r.q)
        pure_b = FockPoly({(3, 0): F(-2), (1, 0): F(1, 3)}, r.q)
        assert apply_op(zero, r, f).is_zero
        assert apply_op(identity, r, f) == f
        assert apply_op(pure_b, r, f) == sympy_generator_action(pure_b, r, f)
        assert stencil_of(zero, r).terms == ()
        assert stencil_of(identity, r).terms == ((0, LaurentPoly({0: 1})),)
        pure_stencil = stencil_of(pure_b, r)
        assert pure_stencil.apply(f) == apply_op(pure_b, r, f)
        if isinstance(r, FiniteDifference):
            d = r.delta
            # -2 y(y-d)(y-2d) E^-3 + (1/3) y E^-1
            cubic = LaurentPoly({3: -2, 2: 6 * d, 1: -4 * d**2})
            assert pure_stencil.terms == ((-3, cubic), (-1, LaurentPoly({1: F(1, 3)})))
        else:
            assert pure_stencil.terms == ((0, LaurentPoly({3: -2, 1: F(1, 3)})),)


def sympy_poly(f: Poly) -> sp.Expr:
    return sum((sympy_rational(a) * Y**j for j, a in enumerate(f.coeffs)), sp.Integer(0))


def sympy_laurent(terms: dict[int, F]) -> sp.Expr:
    return sum((sympy_rational(c) * Y**k for k, c in terms.items()), sp.Integer(0))


def poly_of_sympy(e: sp.Expr) -> Poly:
    return Poly([F(int(a.p), int(a.q)) for a in sp.Poly(sp.expand(e), Y).all_coeffs()[::-1]])


class TestZeroHeavyLowering:
    @given(st.lists(mostly_zero_polys, min_size=2, max_size=2),
           st.sampled_from([F(-1), F(2), F(1, 3), F(-6, 7)]))
    @settings(max_examples=60, deadline=None)
    def test_lower_matches_sympy(self, fs, q):
        # One QDilatation lowers both polynomials, which must leave nothing
        # behind for the second; at q = -1, {2} = 0.
        r = QDilatation(q)
        for f in fs:
            e = sympy_poly(f)
            assert Differential().lower(f) == poly_of_sympy(sp.diff(e, Y))
            assert r.lower(f) == poly_of_sympy(sympy_lower(e, r))

    @given(mostly_zero_polys, st.sampled_from([F(1), F(-1, 3), F(7, 5), F(2**64 - 1, 3)]))
    @example(Poly(), F(7, 5))
    @example(Poly([F(-2, 3)]), F(2**64 - 1, 3))
    @example(Poly([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, F(5, 2)]), F(-1, 3))
    @settings(max_examples=60, deadline=None)
    def test_fd_generators_match_sympy(self, f, delta):
        # The lowering quotient is formed from the Taylor shift's integers,
        # the raising generator from Poly.shift_arg; sympy substitutes.
        r, e = FiniteDifference(delta), sympy_poly(f)
        assert r.lower(f) == poly_of_sympy(sympy_lower(e, r))
        assert r.raise_(f) == poly_of_sympy(sympy_raise(e, r))


class TestStencilMatrixProperty:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_stencil_and_matrix_follow_the_untruncated_action(self, data):
        r = data.draw(realizations)
        h = data.draw(lowering_elements(r.q))
        stencil = stencil_of(h, r)
        f = data.draw(polys)
        assert stencil.apply(f) == apply_op(h, r, f)

        n = data.draw(st.integers(0, 5))
        m = realize_matrix(h, r, n)
        columns = [
            basis_transplant(stencil.apply(basis_element(r.basis, j)), QuasiMonomial(0), r.basis)
            for j in range(n + 1)
        ]
        # The matrix preserves the flag exactly when no untruncated image
        # reaches above its own level, and its columns are those images.
        assert preserves_flag(m) == all(len(c.coeffs) <= j + 1 for j, c in enumerate(columns))
        assert list(m.columns) == columns


def stencil_by_sympy(mode: str, param: F, terms: dict, f: Poly) -> dict[int, F]:
    """sum_j c_j(y) f(y + j param), or f(param^j y), substituted in sympy: power -> coefficient.

    Coefficients have no power below y^-2.
    """
    p, e = sympy_rational(param), sympy_poly(f)
    total = sp.Integer(0)
    for j, c in terms.items():
        moved = e.subs(Y, Y + j * p if mode == "shift" else p**j * Y)
        total += sum(sympy_rational(a) * Y**k for k, a in c.terms.items()) * moved
    coeffs = sp.Poly(sp.expand(total * Y**2), Y).all_coeffs()[::-1]
    return {k - 2: F(int(a.p), int(a.q)) for k, a in enumerate(coeffs) if a}


def apply_matches_sympy(mode: str, param: F, terms: dict, f: Poly) -> bool:
    """Stencil.apply gives the substituted sum, or raises ValueError where a pole survives."""
    want = stencil_by_sympy(mode, param, terms, f)
    if min(want, default=0) < 0:
        want = None
    else:
        want = Poly([want.get(k, 0) for k in range(max(want, default=-1) + 1)])
    try:
        got = Stencil(mode, param, tuple(sorted(terms.items()))).apply(f)
    except ValueError:
        got = None
    return got == want


def cancel_poles(mode: str, param: F, terms: dict, f: Poly) -> dict:
    """terms with one coefficient changed so that no pole survives on f, where one can be.

    With P the pole part of the sum and F_j(y) = f(move_j y), F_j(0) != 0,
    adding the pole part of -P / F_j (1/F_j as a series to y^1) to c_j
    leaves -P plus powers >= 0.
    """
    want = stencil_by_sympy(mode, param, terms, f)
    pole = sum(sympy_rational(c) * Y**k for k, c in want.items() if k < 0)
    p, e = sympy_rational(param), sympy_poly(f)
    for j, c in terms.items():
        moved = e.subs(Y, Y + j * p if mode == "shift" else p**j * Y)
        if moved.subs(Y, 0) != 0:
            fix = sp.expand(-pole * sp.series(1 / moved, Y, 0, 2).removeO())
            fix = {-k: fix.coeff(Y, -k) for k in (1, 2)}
            fixed = c + LaurentPoly({k: F(int(a.p), int(a.q)) for k, a in fix.items()})
            return {i: d for i, d in {**terms, j: fixed}.items() if not d.is_zero}
    return terms


laurent_coeffs = st.dictionaries(st.integers(-2, 3), small_rationals, min_size=1, max_size=3).map(
    LaurentPoly
).filter(lambda c: not c.is_zero)
# Hand-built stencils with y^-1 and y^-2 coefficients and negative offsets.
L = LaurentPoly
STENCIL_CASES = [
    # (f(q y) - f(y)) / (y (q - 1)): the pole cancels on every f.
    ("scale", F(-2, 3), {1: L({-1: F(-3, 5)}), 0: L({-1: F(3, 5)})}, Poly([1, -2, 0, F(3, 4)])),
    # (f(y/q^2) - (1 + 1/q) f(y/q) + f(y)/q) / y^2 vanishes to second order at 0.
    ("scale", F(3), {-2: L({-2: 1}), -1: L({-2: F(-4, 3)}), 0: L({-2: F(1, 3)})}, Poly([5, 1, -1, 2])),
    # (f(y - d) - f(y + d)) / y on an even f, plus y^-2 on f's double zero.
    ("shift", F(-1, 2), {-1: L({-1: 1}), 1: L({-1: -1, 1: 2})}, Poly([3, 0, -2, 0, 1])),
    ("shift", F(1, 3), {0: L({-2: 1}), 2: L({0: F(1, 2), 1: 3})}, Poly([0, 0, 1, F(-2, 5)])),
    # Poles that survive.
    ("shift", F(2), {1: L({-1: 1})}, Poly.one()),
    ("scale", F(1, 2), {-1: L({-2: 1, 0: 1}), 1: L({-1: 2})}, Poly([1, 1])),
]


class TestStencilApplySympyOracle:
    """Stencil.apply against sympy substitution, a route that shares no code with the kernels."""

    @pytest.mark.parametrize("case", range(len(STENCIL_CASES)))
    def test_hand_built_stencils(self, case):
        assert apply_matches_sympy(*STENCIL_CASES[case])

    @given(
        st.sampled_from(["shift", "scale"]),
        small_rationals.filter(bool),
        st.dictionaries(st.integers(-3, 3), laurent_coeffs, min_size=1, max_size=4),
        polys,
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_apply_matches_substitution(self, mode, param, terms, f, cancel):
        if cancel:
            terms = cancel_poles(mode, param, terms, f)
        assert apply_matches_sympy(mode, param, terms, f)


def _moved_back(mode):
    """_move_ints with the step reversed in `mode`: the shift node -jr, or q^-j for q^j."""
    return lambda move: lambda f, j, m, param: move(f, -j if m == mode else j, m, param)


def _offsets_dropped(total):
    """_laurent_sum with every part placed at y^0."""
    return lambda parts: total([(c, 0, d, xs) for c, _, d, xs in parts])


def _scales_as_numerators(total):
    """_laurent_sum with each part's rational scale c read as its numerator."""
    return lambda parts: total([(c.numerator, low, d, xs) for c, low, d, xs in parts])


def _as_given(d, xs):
    """A Poly holding the pair (d, xs) exactly as passed."""
    out = object.__new__(Poly)
    object.__setattr__(out, "_coeffs", None)
    object.__setattr__(out, "_ints", (d, tuple(xs)))
    return out


def _newton_by_weights(newton):
    """_newton with coefficient k also multiplied by its weight w_k = r^k s^(n-k)."""

    def faulty(d, xs, r, s, nodes, expand=False):
        d, out = newton(d, xs, r, s, nodes, expand)
        n = len(out) - 1
        return d, [x * r**k * s ** (n - k) for k, x in enumerate(out)]

    return faulty


def _convolve_overwriting(xs, ys):
    """_convolve with each product stored over the last one at its power, not added."""
    out = [0] * (len(xs) + len(ys) - 1)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            out[i + j] = a * b
    return out


def _low_kept(from_ints):
    """LaurentPoly.from_ints with the leading zeros dropped but low left where it was."""

    def faulty(low, d, xs):
        out = from_ints(low, d, xs)
        return from_ints(low, *out.poly.ints) if not out.is_zero else out

    return staticmethod(faulty)


def _denominator_times_s(lower_ints):
    """FiniteDifference.lower_ints with its denominator multiplied by the step's denominator s."""

    def faulty(self, d, xs):
        d_out, out = lower_ints(self, d, xs)
        return d_out * self.delta.denominator, out

    return faulty


def _numerators_not_rescaled(over_lcm):
    """_over_lcm returning the lcm but each numerator as it was, not times lcm / denominator."""
    return lambda coeffs: (over_lcm(coeffs)[0], [c.numerator for c in coeffs])


def _band_one(solve):
    """back_substitute reading only the diagonal and the first superdiagonal of each column."""

    def faulty(matrix):
        columns = [
            c if j < 2 else Poly([0] * (j - 1) + list(c.coeffs[j - 1 :])) for j, c in enumerate(matrix.columns)
        ]
        return solve(OperatorMatrix(columns, matrix.basis))

    return faulty


def _dilated_once_more(dilate):
    """_dilate with every power one step too high: f((a/b) y) times a/b."""

    def faulty(f, a, b):
        low, d, xs = dilate(f, a, b)
        return low, d * b, [a * x for x in xs]

    return faulty


def _rescale_dropped(row):
    """_row_ints reading each term over F_(i+1), without the rescale F_(i+1) // F_j."""
    return lambda entries, xs, fs, f_next, z, p: row(entries, xs, [f_next] * len(fs), f_next, z, p)


def _full_contraction_dropped(wick_table):
    """_wick_table leaving out the term with j = min(m, k) contractions from each entry."""

    def faulty(q, ms, ks):
        denominator, table = wick_table(q, ms, ks)
        return denominator, {key: [(j, w) for j, w in ws if j < min(key)] for key, ws in table.items()}

    return faulty


def _product_ints_stepping_by_width(x, y):
    """_product_ints with j contractions j*W places back, at b^(k-j) a^m, where j*(W + 1) belongs."""
    dt, table = fock._wick_table(x.q, {m for _, m in x.terms}, {k for k, _ in y.terms})
    (dx, xs), (dy, ys) = algebra._over_lcm(x.terms.values()), algebra._over_lcm(y.terms.values())
    width = x.a_degree() + y.a_degree() + 1
    grid = [0] * ((x.b_degree() + y.b_degree() + 1) * width)
    for (k1, m1), c1 in zip(x.terms, xs):
        for (k2, m2), c2 in zip(y.terms, ys):
            for j, w in table[m1, k2]:
                grid[(k1 + k2 - j) * width + m1 + m2] += c1 * c2 * w
    return dx * dy * dt, width, grid


def _scale_numerator_only(scale):
    """_Polynomial.scale with k read as its numerator."""
    return lambda self, k: scale(self, F(k).numerator)


def stencils_match_oracles() -> list[bool]:
    """The hand-built stencils against sympy substitution."""
    return [apply_matches_sympy(*case) for case in STENCIL_CASES]


def poly_kernels_match_oracles() -> list[bool]:
    """The algebra kernels and the generator primitives, each against an oracle that never runs it.

    shift_by_powers expands powers on Fraction lists, newton_coefficients reads
    values on the grid, act_on_poly normal-orders on the vacuum, and sympy
    multiplies, differentiates and substitutes into the generator formulas.
    """
    f = Poly([F(1, 3), F(-2), F(0), F(5, 7)])
    g = Poly([F(-4, 5), F(3), F(1, 2)])
    checks = [f.shift_arg(F(-9, 4)) == shift_by_powers(f, F(-9, 4))]
    checks.append(f * g == poly_of_sympy(sympy_poly(f) * sympy_poly(g)))
    for delta in (F(-1, 3), F(7, 5)):
        expected = Poly(newton_coefficients(f, delta))
        checks.append(basis_transplant(f, QuasiMonomial(0), QuasiMonomial(delta)) == expected)
    # Each generator primitive against its formula; at q = -1, {2} = 0 and y^2 lowers to 0 * y.
    for r, h in (
        (Differential(), f),
        (QDilatation(F(-1)), Poly([0, 0, 1])),
        (QDilatation(F(-6, 7)), f),
        (FiniteDifference(F(-2, 3)), f),
    ):
        e = sympy_poly(h)
        checks.append(r.lower(h) == poly_of_sympy(sympy_lower(e, r)))
        checks.append(r.raise_(h) == poly_of_sympy(sympy_raise(e, r)))
    h = build_hg(F(1, 3), F(-2, 3))
    checks.append(apply_op(h, Differential(), f) == act_on_poly(h, f))
    # Zero entries at the low end, and a derivative that loses its constant term.
    zeros, constant = {-1: F(0), 0: F(0), 1: F(2, 3), 3: F(-1)}, {0: F(5), 2: F(1, 4)}
    checks.append(sp.expand(sympy_laurent(LaurentPoly(zeros).terms) - sympy_laurent(zeros)) == 0)
    derivative = LaurentPoly(constant).derivative().terms
    checks.append(sp.expand(sympy_laurent(derivative) - sp.diff(sympy_laurent(constant), Y)) == 0)
    return checks


def both_types_match_sympy() -> list[bool]:
    """scale of a Poly and of a LaurentPoly against sympy, one check per type."""
    k, f, c = F(-3, 7), Poly([F(1, 3), F(-2), F(0), F(5, 7)]), {-2: F(2, 5), 1: F(-1), 3: F(7, 4)}
    return [
        f.scale(k) == poly_of_sympy(sympy_rational(k) * sympy_poly(f)),
        sp.expand(sympy_laurent(LaurentPoly(c).scale(k).terms) - sympy_rational(k) * sympy_laurent(c)) == 0,
    ]


# The solver's two regimes: at 0 bits every row of a level runs on Fractions,
# at 10**9 bits every row runs on integers (`_row_ints`).
SOLVER_REGIMES = (0, 10**9)


def solver_matches_dense_apply(regimes=SOLVER_REGIMES) -> list[bool]:
    """Each solved level against the matrix applied row by row: M v = E W v.

    Plain levels of diff hg (B != 0 fills the second superdiagonal) and
    pencil levels of qdil hg at s = -1, solved once in each of `regimes`
    (values of algebra._INTEGER_BITS).
    """
    q = F(-6, 7)
    plain = realize_matrix(build_hg(F(1, 3), F(-2, 3)), Differential(), 6)
    pencil = realize_matrix(build_hg(F(1, 3), F(2), q), QDilatation(q), 5)
    checks = []
    for bits in regimes:
        with mock.patch.object(algebra, "_INTEGER_BITS", bits):
            solved = ((plain, eigensolve_flag(plain), F(1)), (pencil, pencil_solve(pencil, -1, q), 1 / q))
        for m, report, weight in solved:
            for level in report.entries:
                v = list(level.eigenpoly.coeffs)
                v += [F(0)] * (len(m.columns) - len(v))
                checks.append(dense_apply(m, v) == [level.eigenvalue * weight**i * x for i, x in enumerate(v)])
    return checks


def wick_matches_swaps() -> list[bool]:
    """Normal-ordered products, and the bracket x*y - lam*y*x at lam = -7/6, against
    single swaps (`oracle_product`), at q = 1, -6/7, -1 and 0."""
    checks, lam = [], F(-7, 6)
    for q in (F(1), F(-6, 7), F(-1), F(0)):
        x = FockPoly({(1, 2): 3, (0, 3): F(1, 2), (2, 0): -1}, q)
        y = FockPoly({(2, 1): F(-2, 3), (3, 2): 1, (0, 1): 5}, q)
        xy, yx = oracle_product(x, y), oracle_product(y, x)
        bracket = {w: xy.get(w, 0) - lam * yx.get(w, 0) for w in sorted(xy.keys() | yx.keys())}
        checks += [(x * y).terms == xy, (y * x).terms == yx]
        checks.append(q_bracket(x, y, lam).terms == {w: c for w, c in bracket.items() if c})
    return checks


def number_matrix_matches_realize() -> list[bool]:
    """fock.number_matrix against realize_matrix on seeded random elements."""
    return [number_matrix(h, n, r.basis) == realize_matrix(h, r, n) for h, r, n in random_elements(12, 0)]


# Each kernel fault: (owner, name, wrap, oracle).  wrap(kernel) is the faulty
# kernel, patched in for owner.name and for every module that imported it by
# name, and oracle() lists checks of which at least one must then fail
# (every one, for both_types_match_sympy).
KERNEL_FAULTS = {
    # The pair's denominator made positive without negating the numerators.
    "sign-normalization-dropped": (
        Poly,
        "from_ints",
        lambda f: staticmethod(lambda d, xs: f(abs(d), xs)),
        poly_kernels_match_oracles,
    ),
    "trailing-zero-strip-dropped": (
        Poly,
        "from_ints",
        lambda f: staticmethod(lambda d, xs: _as_given(abs(d), [x if d > 0 else -x for x in xs])),
        poly_kernels_match_oracles,
    ),
    "newton-scaled-by-weights": (algebra, "_newton", _newton_by_weights, poly_kernels_match_oracles),
    "convolve-overwrites": (algebra, "_convolve", lambda f: _convolve_overwriting, poly_kernels_match_oracles),
    "laurent-scale-denominator-dropped": (
        algebra,
        "_laurent_sum",
        _scales_as_numerators,
        poly_kernels_match_oracles,
    ),
    "laurent-low-not-raised": (LaurentPoly, "from_ints", _low_kept, poly_kernels_match_oracles),
    "fd-lower-denominator-times-s": (
        FiniteDifference,
        "lower_ints",
        _denominator_times_s,
        poly_kernels_match_oracles,
    ),
    "diff-lower-k-from-0": (
        Realization,
        "lower_ints",
        lambda f: lambda self, d, xs: (d, [k * x for k, x in enumerate(xs[1:])]),
        poly_kernels_match_oracles,
    ),
    # The denominator y(1 - q) in place of y(q - 1).
    "qdil-lower-sign-flipped": (
        Realization,
        "lower_ints",
        lambda f: lambda self, d, xs: f(self, -d, xs),
        poly_kernels_match_oracles,
    ),
    "raise-drops-constant": (
        Realization,
        "raise_ints",
        lambda f: lambda self, d, xs: f(self, d, [0, *xs[1:]]),
        poly_kernels_match_oracles,
    ),
    # y f(y + delta) in place of y f(y - delta).
    "fd-raise-shift-sign": (
        FiniteDifference,
        "raise_ints",
        lambda f: lambda self, d, xs: f(FiniteDifference(-self.delta), d, xs),
        poly_kernels_match_oracles,
    ),
    "over-lcm-numerators-not-rescaled": (
        algebra,
        "_over_lcm",
        _numerators_not_rescaled,
        poly_kernels_match_oracles,
    ),
    "scale-denominator-dropped": (
        algebra._Polynomial,
        "scale",
        _scale_numerator_only,
        both_types_match_sympy,
    ),
    "solver-band-one": (algebra, "back_substitute", _band_one, solver_matches_dense_apply),
    # Only a band-2 row has a term with F_(i+1) // F_j != 1.
    "solver-rescale-dropped": (algebra, "_row_ints", _rescale_dropped, solver_matches_dense_apply),
    "wick-full-contraction-dropped": (fock, "_wick_table", _full_contraction_dropped, wick_matches_swaps),
    "grid-contraction-steps-by-width": (
        fock,
        "_product_ints",
        lambda f: _product_ints_stepping_by_width,
        wick_matches_swaps,
    ),
    # x*y - numerator(lam)*y*x.
    "bracket-lam-denominator-dropped": (
        fock,
        "_bracket_ints",
        lambda f: lambda xy, yx, lam: f(xy, yx, F(lam.numerator)),
        wick_matches_swaps,
    ),
    # {j + 1} read where {j} belongs.
    "number-bracket-off-by-one": (
        fock,
        "_brackets",
        lambda f: lambda r, s, n: f(r, s, n + 1)[1:],
        number_matrix_matches_realize,
    ),
    "shift-node-sign": (realize, "_move_ints", _moved_back("shift"), stencils_match_oracles),
    "laurent-offset-dropped": (algebra, "_laurent_sum", _offsets_dropped, stencils_match_oracles),
    "q^j-as-q^-j": (realize, "_move_ints", _moved_back("scale"), stencils_match_oracles),
    # The kernel's a and b swapped, f((b/a) y), and its powers one too high.
    "dilate-ratio-inverted": (algebra, "_dilate", lambda f: lambda t, a, b: f(t, b, a), stencils_match_oracles),
    "dilate-power-off-by-one": (algebra, "_dilate", _dilated_once_more, stencils_match_oracles),
}


def inject(monkeypatch, fault):
    """Patch the fault's kernel in its owner and in every fockosc module that imported it by name."""
    owner, name, wrap, _ = KERNEL_FAULTS[fault]
    kernel = getattr(owner, name)
    faulty = wrap(kernel)
    monkeypatch.setattr(owner, name, faulty)
    for module in [m for key, m in sys.modules.items() if key.startswith("fockosc.")]:
        for key, value in list(vars(module).items()):
            if value is kernel:
                monkeypatch.setattr(module, key, faulty)


def faults_checked_by(oracle):
    return [fault for fault, spec in KERNEL_FAULTS.items() if spec[3] is oracle]


@pytest.mark.parametrize("fault", faults_checked_by(stencils_match_oracles))
def test_stencil_kernel_fault_is_caught(monkeypatch, fault):
    """Each kernel fault fails a hand-built sympy case, and a stencil check of verify or its note."""
    assert all(stencils_match_oracles())
    inject(monkeypatch, fault)
    assert not all(stencils_match_oracles())
    if fault == "shift-node-sign":
        cases = run_suite("transplant").cases
        cases = [c for c in cases if c.case.startswith("stencil-eigenfunction")]
        assert cases and not any(c.passed for c in cases)
    else:
        # The three-point coefficients that verify's dilatation-stencil-signs note states.
        q, half = F(2), F(1, 2)
        stencil = stencil_of(build_hf(0, q=q), QDilatation(q))
        c1 = -4 * (1 + q - half * q * (q - 1)) / (q * (q - 1) ** 2)
        assert stencil.terms != (
            (0, L({-1: 4 * (1 - half * (q - 1)) / (q - 1) ** 2, 0: F(4) / (q - 1)})),
            (1, L({-1: c1, 0: F(-4) / (q - 1)})),
            (2, L({-1: 4 / (q * (q - 1) ** 2)})),
        )


@pytest.mark.parametrize("fault", [f for f, spec in KERNEL_FAULTS.items() if spec[1] == "_dilate"])
def test_dilation_fault_fails_the_pencil_oracle(monkeypatch, fault):
    """The pencil solver dilates its matrix on `_dilate`; M v = E W v read by
    `dense_apply` on the undilated matrix, with W = diag(q^(s i)), never runs it."""
    inject(monkeypatch, fault)
    assert not all(solver_matches_dense_apply())


@pytest.mark.parametrize(
    "fault",
    [f for f, spec in KERNEL_FAULTS.items() if spec[3] not in (stencils_match_oracles, both_types_match_sympy)],
)
def test_poly_kernel_fault_is_caught(monkeypatch, fault):
    """Each fault of a kernel, the solver or a primitive fails a check of an oracle that never runs it."""
    oracle = KERNEL_FAULTS[fault][3]
    assert all(oracle())
    inject(monkeypatch, fault)
    assert not all(oracle())


@pytest.mark.parametrize("fault", faults_checked_by(solver_matches_dense_apply))
def test_solver_fault_is_caught_in_each_regime(monkeypatch, fault):
    """The solver faults against each regime alone: the band fault fails both, and
    the integer row fault fails the integer one while the Fraction one never runs it."""
    inject(monkeypatch, fault)
    caught = [not all(solver_matches_dense_apply([bits])) for bits in SOLVER_REGIMES]
    assert caught == [fault != "solver-rescale-dropped", True]


def test_bracket_fault_reaches_the_wick_products(monkeypatch):
    """The Wick table takes its brackets from fock._brackets, so a fault there changes the products."""
    assert all(wick_matches_swaps())
    inject(monkeypatch, "number-bracket-off-by-one")
    assert not all(wick_matches_swaps())


@pytest.mark.parametrize("fault", faults_checked_by(both_types_match_sympy))
def test_shared_arithmetic_fault_fails_both_types(monkeypatch, fault):
    """A fault in the arithmetic Poly and LaurentPoly inherit fails the sympy check of each."""
    assert all(both_types_match_sympy())
    inject(monkeypatch, fault)
    assert not any(both_types_match_sympy())


INTEGER_KERNELS = [
    (algebra, "_newton"),
    (algebra, "_laurent_sum"),
    (algebra, "_convolve"),
    (algebra, "_over_lcm"),
    (algebra, "back_substitute"),
    (algebra, "_row_ints"),
    (algebra._Polynomial, "scale"),
    (fock, "_wick_table"),
    (fock, "_product_ints"),
    (fock, "_bracket_ints"),
    (fock, "_brackets"),
    (realize, "_move_ints"),
    (algebra, "_dilate"),
    (Poly, "from_ints"),
    (LaurentPoly, "from_ints"),
    (Realization, "lower_ints"),
    (FiniteDifference, "lower_ints"),
    (Realization, "raise_ints"),
    (FiniteDifference, "raise_ints"),
]


def test_every_integer_kernel_has_a_fault():
    faulted = {(owner, name) for owner, name, _, _ in KERNEL_FAULTS.values()}
    for owner, name in INTEGER_KERNELS:
        assert callable(getattr(owner, name)), name
        assert (owner, name) in faulted, f"{name} has no fault in KERNEL_FAULTS"


def test_oracles_take_only_the_checked_values_from_fockosc():
    """tests/oracles.py imports Poly, OperatorMatrix, FockPoly and normal_order_product, and no kernel."""
    tree = ast.parse(pathlib.Path(oracles.__file__).read_text())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "fockosc" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "fockosc"):
            taken |= {(node.module, a.name) for a in node.names}
    allowed = {
        ("fockosc.algebra", "Poly"),
        ("fockosc.algebra", "OperatorMatrix"),
        ("fockosc.fock", "FockPoly"),
        ("fockosc.fock", "normal_order_product"),
    }
    assert taken <= allowed, taken - allowed
