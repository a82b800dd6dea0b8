import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockosc import algebra, spectral
from fockosc.algebra import (
    DegenerateSpectrumError,
    NotTriangularError,
    OperatorMatrix,
    Poly,
    QuasiMonomial,
    preserves_flag,
)
from fockosc.fock import FockPoly, build_hf, build_hg, q_number
from fockosc.realize import Differential, FiniteDifference, QDilatation, realize_matrix
from fockosc.spectral import (
    eigensolve_flag,
    isospectral_compare,
    pencil_solve,
    reference_label,
    reference_spectrum,
)
from oracles import dense_apply, qdil_hg_eigenpair, qdil_hg_pencil_eigenpair


class TestQNumber:
    def test_empty_sum(self):
        assert q_number(0, F(7, 3)) == 0

    def test_sum_form(self):
        assert q_number(3, 2) == 7

    @pytest.mark.parametrize("n", range(13))
    def test_undeformed_limit(self, n):
        assert q_number(n, 1) == n

    @pytest.mark.parametrize("q", [F(2), F(1, 3), F(7, 5)])
    def test_addition_identity(self, q):
        for m in range(13):
            for n in range(13):
                assert q_number(m + n, q) == q_number(m, q) + q**m * q_number(n, q)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            q_number(-1, 2)


class TestPreservesFlag:
    def test_realized_hf_preserves(self):
        assert preserves_flag(realize_matrix(build_hf(0), Differential(), 8))

    def test_multiplication_by_y_does_not(self):
        columns = [Poly.monomial(j + 1) for j in range(9)]
        assert not preserves_flag(OperatorMatrix(columns, QuasiMonomial(0)))

    def test_raising_generator_is_not_triangular(self):
        # The spin-2 raising generator leaves the whole space P_2 invariant
        # but still moves degree 0 up to degree 1, so it fails the strict
        # per-level check on any flag.
        from fockosc.fock import sl2_generators

        jplus2 = sl2_generators(2).jplus
        assert not preserves_flag(realize_matrix(jplus2, Differential(), 2))
        assert not preserves_flag(realize_matrix(jplus2, Differential(), 4))
        # Column 0 is the image -2y, which reaches above level 0.
        with pytest.raises(NotTriangularError):
            eigensolve_flag(realize_matrix(jplus2, Differential(), 2))

    @pytest.mark.parametrize(
        "h, n", [(FockPoly.word(1, 0), 0), (FockPoly.word(3, 1), 1)], ids=["b-on-P0", "b3a-on-P1"]
    )
    def test_images_leaving_the_flag_are_rejected(self, h, n):
        # b y^0 = y and b^3 a y = y^3 leave P_N; the square view inside
        # P_N is zero, which is triangular, so only the untruncated
        # columns show it.
        matrix = realize_matrix(h, Differential(), n)
        assert not preserves_flag(matrix)
        with pytest.raises(NotTriangularError):
            eigensolve_flag(matrix)
        with pytest.raises(NotTriangularError):
            pencil_solve(matrix, -1, 2)


class TestEigensolveFlag:
    def test_classic_spectrum_and_first_eigenpoly(self):
        report = eigensolve_flag(realize_matrix(build_hf(0), Differential(), 12))
        assert report.eigenvalues == tuple(F(-4 * n) for n in range(13))
        assert report.entries[1].eigenpoly.coeffs == (F(-1, 2), F(1))

    def test_deformed_spectrum(self):
        matrix = realize_matrix(build_hf(1, q=2), QDilatation(2), 6)
        report = eigensolve_flag(matrix)
        assert report.eigenvalues == (0, -4, -12, -28, -60, -124, -252)

    def test_root_of_unity_degenerates(self):
        matrix = realize_matrix(build_hf(0, q=-1), QDilatation(-1), 4)
        with pytest.raises(DegenerateSpectrumError) as info:
            eigensolve_flag(matrix)
        assert info.value.levels == (0, 2)

    def test_non_triangular_rejected(self):
        m = OperatorMatrix([Poly([0, 1]), Poly([0, 1])], QuasiMonomial(0))
        with pytest.raises(NotTriangularError):
            eigensolve_flag(m)

    def test_flag_is_checked_before_degeneracy(self):
        # Diagonal (1, 1, 1), and column 2 reaches degree 3.
        m = OperatorMatrix([Poly([1]), Poly([0, 1]), Poly([0, 0, 1, 1])], QuasiMonomial(0))
        with pytest.raises(NotTriangularError):
            eigensolve_flag(m)

    @pytest.mark.parametrize("s, q", [(0, F(1)), (-1, F(2)), (2, F(-1, 3))])
    def test_first_repeat_names_its_pair(self, s, q):
        # Eigenvalues (5, 1, 2, 1, 1, 7): level 3 is the first repeat, of
        # level 1, although level 4 repeats the same value again.
        eigenvalues = [5, 1, 2, 1, 1, 7]
        columns = [
            Poly([F(i + 1, j + 2) for i in range(j)] + [e * q ** (s * j)])
            for j, e in enumerate(eigenvalues)
        ]
        matrix = OperatorMatrix(columns, QuasiMonomial(0))
        with pytest.raises(DegenerateSpectrumError) as info:
            eigensolve_flag(matrix) if s == 0 else pencil_solve(matrix, s, q)
        assert info.value.levels == (1, 3)
        assert info.value.value == 1

    def test_eigenpolys_are_monic_of_level_degree(self):
        report = eigensolve_flag(realize_matrix(build_hf(F(5, 2)), Differential(), 10))
        for entry in report.entries:
            assert entry.eigenpoly.degree == entry.level
            assert entry.eigenpoly.leading == 1

    def test_remultiplication_is_exact(self):
        matrix = realize_matrix(build_hf(1), FiniteDifference(F(1, 2)), 10)
        report = eigensolve_flag(matrix)
        for entry in report.entries:
            image = dense_apply(matrix, entry.eigenpoly.coeffs)
            expected = [entry.eigenvalue * entry.eigenpoly.coeff(i) for i in range(11)]
            assert image == expected

    @pytest.mark.parametrize("bigger", [13, 17])
    def test_stable_under_flag_extension(self, bigger):
        small = eigensolve_flag(realize_matrix(build_hf(1), Differential(), 9))
        large = eigensolve_flag(realize_matrix(build_hf(1), Differential(), bigger))
        for n in range(10):
            assert small.entries[n] == large.entries[n]


class TestPencilSolve:
    def test_float_q_is_refused(self):
        matrix = realize_matrix(build_hf(0, q=F(1, 2)), QDilatation(F(1, 2)), 3)
        with pytest.raises(TypeError, match=r'^q must be exact.*Fraction\("0\.5"\)$'):
            pencil_solve(matrix, -1, 0.5)

    def test_float_s_is_refused(self):
        # s = -1.0 used to give level 1 as -5254199565265579/2^50, not -14/3.
        matrix = realize_matrix(build_hf(0, q=F(7, 6)), QDilatation(F(7, 6)), 3)
        with pytest.raises(TypeError, match=r'^s must be exact.*Fraction\("-1\.0"\)$'):
            pencil_solve(matrix, -1.0, F(7, 6))

    @pytest.mark.parametrize("q", [F(2), F(1, 2), F(3, 7)])
    def test_scaled_once(self, q):
        matrix = realize_matrix(build_hf(0, q=q), QDilatation(q), 10)
        report = pencil_solve(matrix, -1, q)
        for n in range(11):
            assert report.entries[n].eigenvalue == -4 * q**n * q_number(n, q)

    @pytest.mark.parametrize("q", [F(2), F(1, 2), F(3, 7)])
    def test_scaled_twice(self, q):
        matrix = realize_matrix(build_hf(0, q=q), QDilatation(q), 10)
        report = pencil_solve(matrix, -2, q)
        for n in range(11):
            assert report.entries[n].eigenvalue == -4 * q ** (2 * n) * q_number(n, q)

    @pytest.mark.parametrize("s", [-2, -1, 1, 2])
    def test_q_one_coincides_with_plain_solver(self, s):
        matrix = realize_matrix(build_hf(F(5, 2)), Differential(), 8)
        plain = eigensolve_flag(matrix)
        pencil = pencil_solve(matrix, s, 1)
        assert pencil.entries == plain.entries

    def test_scaled_remultiplication(self):
        # H v = E S_s v exactly, column by column.
        q = F(3, 7)
        s = -1
        matrix = realize_matrix(build_hf(0, q=q), QDilatation(q), 8)
        report = pencil_solve(matrix, s, q)
        for entry in report.entries:
            image = dense_apply(matrix, entry.eigenpoly.coeffs)
            scaled = [
                entry.eigenvalue * q ** (s * i) * entry.eigenpoly.coeff(i)
                for i in range(9)
            ]
            assert image == scaled

    def test_root_of_unity_collides(self):
        # At q = -1, {2} = 0, so level 2 repeats level 0's eigenvalue 0 for every s.
        matrix = realize_matrix(build_hf(0, q=-1), QDilatation(-1), 4)
        for s in (-2, -1, 1, 2):
            with pytest.raises(DegenerateSpectrumError) as info:
                pencil_solve(matrix, s, -1)
            assert (info.value.levels, info.value.value) == ((0, 2), 0), s

    def test_quasi_monomial_basis_rejected(self):
        matrix = realize_matrix(build_hf(0), FiniteDifference(F(1)), 4)
        with pytest.raises(NotTriangularError):
            pencil_solve(matrix, -1, 1)

    def test_bad_scale_power_rejected(self):
        matrix = realize_matrix(build_hf(0), Differential(), 4)
        with pytest.raises(ValueError):
            pencil_solve(matrix, 3, 1)

    def test_scale_power_checked_before_q_power(self):
        # q^(-s) costs time growing with |s|, so an s out of range is refused first.
        matrix = realize_matrix(build_hf(0), Differential(), 4)
        with mock.patch.object(spectral, "_scale_ratio", side_effect=AssertionError("q^(-s) computed")):
            with pytest.raises(ValueError, match="scale power must be one of"):
                pencil_solve(matrix, 3, F(7, 6))


small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)
nonzero_rationals = small_rationals.filter(lambda x: x != 0)


@st.composite
def flag_pencils(draw, entries=nonzero_rationals):
    """A flag-preserving matrix and its pencil (s, q).

    The upper triangle is drawn from `entries`; the default fills all of
    it.  The diagonal is E_n q^(s n) for distinct E_n, so the pencil has
    the eigenvalues E_n.
    """
    size = draw(st.integers(1, 8))
    q = draw(nonzero_rationals)
    s = draw(st.sampled_from([-2, -1, 1, 2]))
    eigenvalues = draw(st.lists(small_rationals, min_size=size, max_size=size, unique=True))
    columns = [
        Poly(draw(st.lists(entries, min_size=j, max_size=j)) + [e * q ** (s * j)])
        for j, e in enumerate(eigenvalues)
    ]
    return OperatorMatrix(columns, QuasiMonomial(0)), s, q, eigenvalues


# Upper-triangle entries that are zero three times in four, so rows with no
# entry, single entries and vanishing v_j all occur.
zero_heavy_entries = st.tuples(st.integers(0, 3), nonzero_rationals).map(
    lambda t: t[1] if t[0] == 0 else F(0)
)


class TestSolverProperty:
    @given(flag_pencils())
    @settings(max_examples=80, deadline=None)
    def test_every_eigenpoly_solves_the_pencil(self, pencil):
        self.check_pencil(pencil)

    @given(flag_pencils(zero_heavy_entries))
    @settings(max_examples=80, deadline=None)
    def test_zero_heavy_triangle_solves_the_pencil(self, pencil):
        self.check_pencil(pencil)

    # At 0 bits back_substitute solves every row on Fractions; the pencils
    # above stay far under the default switch and run on integers.
    @given(flag_pencils())
    @settings(max_examples=80, deadline=None)
    def test_every_eigenpoly_solves_the_pencil_on_fractions(self, pencil):
        with mock.patch.object(algebra, "_INTEGER_BITS", 0):
            self.check_pencil(pencil)

    @given(flag_pencils(zero_heavy_entries))
    @settings(max_examples=80, deadline=None)
    def test_zero_heavy_triangle_solves_the_pencil_on_fractions(self, pencil):
        with mock.patch.object(algebra, "_INTEGER_BITS", 0):
            self.check_pencil(pencil)

    @staticmethod
    def check_pencil(pencil):
        # M v = E W v, with W = diag(q^(s i)), checked by a dense product
        # over every entry rather than by the solver's own loop.
        matrix, s, q, eigenvalues = pencil
        report = pencil_solve(matrix, s, q)
        assert report.eigenvalues == tuple(eigenvalues)
        for entry in report.entries:
            v = entry.eigenpoly
            assert v.degree == entry.level and v.leading == 1
            image = dense_apply(matrix, v.coeffs)
            assert image == [
                entry.eigenvalue * q ** (s * i) * v.coeff(i) for i in range(len(matrix.columns))
            ]


deformations = st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(
    lambda q: q not in (0, 1)
)


def assert_matches_recurrence(matrix, level, q, s):
    """Every level(n) equals the solver's level n, or a divisor of the recurrence
    vanishes and the solver raises DegenerateSpectrumError."""

    def solve():
        return eigensolve_flag(matrix) if s == 0 else pencil_solve(matrix, s, q)

    try:
        expected = [level(n) for n in range(len(matrix.columns))]
    except ZeroDivisionError:
        with pytest.raises(DegenerateSpectrumError):
            solve()
        return
    assert [(e.eigenvalue, e.eigenpoly) for e in solve().entries] == expected


class TestDeformedClosedForm:
    """hf and hg under qdil, from element to eigenpairs, against closed forms."""

    @given(
        deformations,
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.sampled_from([0, 1, -1, 2, -2]),
        st.integers(0, 10),
    )
    @example(F(7, 6), F(0), 0, 14)
    @example(F(-6, 7), F(5, 2), -1, 14)
    @example(F(2), F(5, 2), 2, 14)
    @example(F(1, 3), F(0), -2, 14)
    @example(F(-1), F(0), 0, 3)
    @example(F(7, 6), F(5, 2), 2, 32)
    @settings(max_examples=60, deadline=None)
    def test_eigenpairs_match_two_term_recurrence(self, q, p, s, size):
        matrix = realize_matrix(build_hf(p, q=q), QDilatation(q), size)
        assert_matches_recurrence(matrix, lambda n: qdil_hg_eigenpair(n, p, F(0), q, s), q, s)

    @given(
        deformations,
        st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(lambda B: B != 0),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.sampled_from([0, -1, 2, -2]),
        st.integers(0, 10),
    )
    @example(F(7, 6), F(-2, 3), F(5, 2), 0, 12)
    @example(F(-6, 7), F(3, 7), F(0), -1, 12)
    @example(F(2), F(-5), F(-1, 3), 2, 12)
    @example(F(1, 3), F(2), F(5, 2), -2, 12)
    @example(F(-1), F(1, 2), F(0), 0, 4)
    @example(F(7, 6), F(-2, 3), F(5, 2), -2, 32)
    @settings(max_examples=60, deadline=None)
    def test_hg_eigenpairs_match_three_term_recurrence(self, q, B, p, s, size):
        """hg under qdil at s = 0, -1 and +-2, where no standard closed form exists."""
        matrix = realize_matrix(build_hg(p, B, q=q), QDilatation(q), size)
        assert_matches_recurrence(matrix, lambda n: qdil_hg_eigenpair(n, p, B, q, s), q, s)

    @given(
        deformations.filter(lambda q: q != -1),
        st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(lambda B: B != 0),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.integers(0, 10),
    )
    @example(F(7, 6), F(-2, 3), F(5, 2), 10)
    @example(F(-6, 7), F(3, 7), F(0), 10)
    @example(F(1, 3), F(2), F(-1, 3), 10)
    @example(F(-3), F(-2, 3), F(5, 2), 10)
    @settings(max_examples=60, deadline=None)
    def test_hg_pencil_eigenpairs_are_big_q_laguerre(self, q, B, p, size):
        """hg under qdil with H f = E f(q .): E = -4{n} q^(-n), big q-Laguerre eigenpolynomials."""
        report = pencil_solve(realize_matrix(build_hg(p, B, q=q), QDilatation(q), size), 1, q)
        expected = [qdil_hg_pencil_eigenpair(n, p, B, q) for n in range(size + 1)]
        assert [(e.eigenvalue, e.eigenpoly) for e in report.entries] == expected

    @pytest.mark.parametrize("op, s", [("hf", 2), ("hg", -2)])
    def test_size_32_examples_cross_the_integer_switch(self, op, s):
        """The size-32 examples above reach back_substitute's switch at its default.

        A reduced denominator of v_i divides the running F_i, so one with more
        than `_INTEGER_BITS` bits means the level went on to Fractions.
        """
        q, p = F(7, 6), F(5, 2)
        element = build_hf(p, q=q) if op == "hf" else build_hg(p, F(-2, 3), q=q)
        top = pencil_solve(realize_matrix(element, QDilatation(q), 32), s, q).entries[-1].eigenpoly
        assert max(c.denominator for c in top.coeffs).bit_length() > algebra._INTEGER_BITS


H = 2**64 - 1  # the CLI's height cap


def seeded_qs(seed):
    """q of both signs, with |q| < 1 and |q| > 1, of heights up to H."""
    rng = random.Random(seed)
    out = []
    for sign in (1, -1):
        a, b = sorted(rng.sample(range(1, 2 ** rng.randint(2, 64)), 2))
        out += [F(sign * a, b), F(sign * b, a)]
    return out


REFERENCE_QS = [F(1), F(-1), F(H, H - 1), F(-(H - 1), H), F(-H, 2), F(1, H)]
REFERENCE_QS += [q for seed in range(6) for q in seeded_qs(seed)]


class TestReferenceSpectrum:
    @pytest.mark.parametrize("q", REFERENCE_QS, ids=str)
    def test_matches_q_number(self, q):
        # The integer recurrences against the Fraction sum of fock.q_number.
        rng = random.Random(str(q))
        for s in (0, 1, -1, 2, -2):
            want = [-4 * q_number(n, q) * q ** (-s * n) for n in range(40)]
            count = rng.randint(0, 39)
            assert reference_spectrum(40, q, s) == want and reference_spectrum(count, q, s) == want[:count], s

    def test_q_zero(self):
        assert reference_spectrum(5, 0) == [0, -4, -4, -4, -4]
        for s in (-1, -2):
            assert reference_spectrum(3, 0, s) == [0, 0, 0]
        for s in (1, 2):
            with pytest.raises(ZeroDivisionError):
                reference_spectrum(0, 0, s)

    def test_classic(self):
        assert reference_spectrum(6) == [0, -4, -8, -12, -16, -20]

    def test_deformed(self):
        assert reference_spectrum(3, F(1, 3))[2] == F(-16, 3)

    def test_scaled_once(self):
        assert reference_spectrum(3, 2, -1)[2] == -48

    def test_scaled_twice(self):
        assert reference_spectrum(2, 3, -2)[1] == -36

    def test_float_q_is_refused(self):
        with pytest.raises(TypeError, match=r'^q must be exact.*Fraction\("0\.5"\)$'):
            reference_spectrum(2, 0.5, -1)

    def test_float_s_is_refused(self):
        # s = -1.0 used to give level 1 as -5254199565265579/2^50, not -14/3.
        with pytest.raises(TypeError, match=r'^s must be exact.*Fraction\("-1\.0"\)$'):
            reference_spectrum(4, F(7, 6), -1.0)

    def test_fractional_s_is_refused(self):
        with pytest.raises(ValueError, match="whole number"):
            reference_spectrum(3, F(7, 6), F(1, 2))

    @pytest.mark.parametrize(
        "q, s, label",
        [
            (1, 0, "classic"),
            (1, -2, "classic"),
            (1, 1, "classic"),
            (F(3, 7), 0, "qplain"),
            (F(3, 7), -1, "qscaled1"),
            (F(3, 7), -2, "qscaled2"),
            (F(3, 7), 1, "reciprocal(s=1)"),
            (2, 2, "reciprocal(s=2)"),
        ],
    )
    def test_label(self, q, s, label):
        assert reference_label(q, s) == label


class TestIsospectralCompare:
    def test_fd_matches_differential(self):
        a = eigensolve_flag(realize_matrix(build_hf(1), Differential(), 10))
        b = eigensolve_flag(realize_matrix(build_hf(1), FiniteDifference(F(1, 2)), 10))
        assert isospectral_compare(a, b) == ()

    def test_hg_matches_hf(self):
        a = eigensolve_flag(realize_matrix(build_hg(0, 1), Differential(), 10))
        b = eigensolve_flag(realize_matrix(build_hf(0), Differential(), 10))
        assert isospectral_compare(a, b) == ()
        # Same basis, shifted eigenfunctions.
        assert [e.eigenpoly for e in a.entries] != [e.eigenpoly for e in b.entries]

    def test_deformed_diverges_from_level_two(self):
        q = F(2)
        a = eigensolve_flag(realize_matrix(build_hf(0), Differential(), 6))
        b = eigensolve_flag(realize_matrix(build_hf(0, q=q), QDilatation(q), 6))
        assert isospectral_compare(a, b) == (2, 3, 4, 5, 6)

    def test_monomial_basis_is_quasi_monomial_zero(self):
        matrix = realize_matrix(build_hf(1), Differential(), 6)
        direct = eigensolve_flag(OperatorMatrix(matrix.columns, QuasiMonomial(0)))
        report = eigensolve_flag(matrix)
        assert direct.basis == report.basis
        assert direct.entries == report.entries

    def test_level_count_mismatch_rejected(self):
        a = eigensolve_flag(realize_matrix(build_hf(0), Differential(), 3))
        b = eigensolve_flag(realize_matrix(build_hf(0), Differential(), 4))
        with pytest.raises(ValueError):
            isospectral_compare(a, b)

    @pytest.mark.parametrize("delta", [F(1), F(1, 2), F(-1, 3)])
    @pytest.mark.parametrize("B", [F(1), F(-2, 3)])
    def test_eigenvalues_independent_of_delta_and_shift(self, delta, B):
        base = eigensolve_flag(realize_matrix(build_hf(1), Differential(), 10))
        fd = eigensolve_flag(realize_matrix(build_hg(1, B), FiniteDifference(delta), 10))
        assert base.eigenvalues == fd.eigenvalues
