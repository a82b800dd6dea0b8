import operator
import random
import sys
import threading
from fractions import Fraction as F
from math import lcm

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockosc import algebra
from fockosc.algebra import (
    DegenerateSpectrumError,
    LaurentPoly,
    NotTriangularError,
    OperatorMatrix,
    Poly,
    QuasiMonomial,
    back_substitute,
    basis_element,
    basis_transplant,
)
from fockosc.cli import MAX_HEIGHT
from fockosc.fock import FockPoly, q_bracket, q_number, sl2_generators
from fockosc.specfun import (
    gauge_conjugate_check,
    kratzer_apply,
    kratzer_eigencheck,
    laguerre,
    modified_laguerre,
)
from fockosc.realize import Differential, FiniteDifference, QDilatation, Stencil, _move_ints
from fockosc.spectral import SpectralEntry, SpectralReport, reference_spectrum
from oracles import dense_apply, newton_coefficients, shift_by_powers

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
# Coefficient lists of every length 1..21 equally often (degree up to 20).
coeff_lists = st.integers(0, 20).flatmap(
    lambda n: st.lists(rationals, min_size=n + 1, max_size=n + 1)
)
# Coefficients that are zero about half the time, and three times in four.
half_zero = st.one_of(st.just(F(0)), rationals)
mostly_zero = st.tuples(st.integers(0, 3), rationals).map(lambda t: t[1] if t[0] == 0 else F(0))
# Degree 20, every third coefficient zero: the substitution kernel's powers
# r^k s^(n-k) reach 20 * 64 bits at a step or offset near cli.MAX_HEIGHT.
degree_20 = [F(j % 3 and (-1) ** j * (2 * j + 1), j + 2) for j in range(21)]


def moved(c: LaurentPoly, j: int, mode: str, param: F) -> LaurentPoly:
    """c moved j steps by the stencils' integer kernel: c(y + j param) or c(param^j y)."""
    low, d, xs = _move_ints(c.ints, j, mode, param)
    return LaurentPoly({low + k: F(x, d) for k, x in enumerate(xs)})


class TestRational:
    def test_canonical_form(self):
        x = F(6, -8)
        assert x.denominator > 0
        assert (x.numerator, x.denominator) == (-3, 4)

    @given(rationals, rationals, rationals)
    def test_addition_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(rationals.filter(lambda a: a != 0))
    def test_multiplicative_inverse(self, a):
        assert a * (1 / a) == 1


class TestPoly:
    def test_zero_degree_sentinel(self):
        assert Poly().degree is None
        assert Poly([0, 0]).degree is None
        assert Poly([0, 1]).degree == 1

    def test_trailing_zeros_stripped(self):
        assert Poly([1, 2, 0, 0]).coeffs == (F(1), F(2))

    def test_float_coefficient_is_refused(self):
        # 0.1 would become 3602879701896397/2^55; ints and strings still convert.
        with pytest.raises(TypeError, match=r'^coefficient must be exact.*Fraction\("0\.1"\)$'):
            Poly([1, 0.1])
        assert Poly([1, "1/10"]).coeffs == (F(1), F(1, 10))

    def test_arithmetic(self):
        p = Poly([1, 1])
        assert p * p == Poly([1, 2, 1])
        assert p - p == Poly()
        assert p.scale(3) == Poly([3, 3])
        assert p * Poly() == Poly() and Poly() * p == Poly()

    def test_shift_arg(self):
        p = Poly([0, 0, 1])  # y^2
        assert p.shift_arg(1) == Poly([1, 2, 1])
        assert p.shift_arg(F(-1, 2)) == Poly([F(1, 4), -1, 1])

    @given(coeff_lists, rationals)
    @example([], F(5, 3))
    @example([F(3), F(-1, 2), F(0), F(7, 4)], F(0))
    @example([F(1, 3), F(2), F(-5, 7)], F(-9, 4))
    @example(degree_20, F(MAX_HEIGHT - 2, MAX_HEIGHT))
    @example(degree_20, -F(MAX_HEIGHT, 7))
    @settings(max_examples=80)
    def test_shift_arg_matches_power_expansion(self, coeffs, offset):
        f = Poly(coeffs)
        assert f.shift_arg(offset) == shift_by_powers(f, offset)
        assert f.shift_arg(offset).shift_arg(-offset) == f

    @given(coeff_lists, rationals, st.lists(rationals, min_size=3, max_size=3))
    @settings(max_examples=60)
    def test_shift_arg_evaluates_at_shifted_point(self, coeffs, offset, points):
        f = Poly(coeffs)
        shifted = f.shift_arg(offset)
        for x in points:
            assert shifted(x) == f(x + offset)

    def test_scale_arg(self):
        # f(2y) and f(y/2) through the stencils' integer move, one and minus one step.
        f = LaurentPoly({0: 1, 1: 1, 2: 1})
        assert moved(f, 1, "scale", F(2)) == LaurentPoly({0: 1, 1: 2, 2: 4})
        assert moved(f, -1, "scale", F(2)) == LaurentPoly({0: 1, 1: F(1, 2), 2: F(1, 4)})

    def test_eval_horner(self):
        p = Poly([F(1, 2), -3, 1])
        assert p(F(1, 3)) == F(1, 2) - 1 + F(1, 9)

    def test_monic(self):
        assert Poly([2, 4]).monic() == Poly([F(1, 2), 1])
        assert Poly.from_ints(-6, [0, 3, 0, -4]).monic() == Poly([0, F(-3, 4), 0, 1])
        with pytest.raises(ValueError):
            Poly().monic()
        with pytest.raises(ValueError):
            Poly.from_ints(5, [0, 0]).monic()


ONE = Poly([1, 1])
HALF = LaurentPoly({-1: 1, 1: F(1, 2)})
A = FockPoly({(0, 1): 1})


@pytest.mark.parametrize(
    "name, call",
    [
        ("k", lambda: ONE.scale(0.1)),
        ("point", lambda: ONE(0.1)),
        ("offset", lambda: ONE.shift_arg(0.1)),
        ("k", lambda: HALF.scale(0.1)),
        ("k", lambda: A.scale(0.1)),
        ("lam", lambda: q_bracket(A, A, 0.1)),
        ("n", lambda: sl2_generators(0.1)),
        ("q", lambda: q_number(3, 0.1)),
        ("alpha", lambda: laguerre(2, 0.1)),
        ("delta", lambda: modified_laguerre(2, F(1, 2), 0.1)),
        ("p", lambda: kratzer_apply(HALF, 0.1, 1)),
        ("omega", lambda: kratzer_apply(HALF, 1, 0.1)),
        ("p", lambda: kratzer_eigencheck(1, 0.1, 1)),
        ("omega", lambda: kratzer_eigencheck(1, 1, 0.1)),
        ("p", lambda: gauge_conjugate_check(ONE, 0.1, 1)),
        ("omega", lambda: gauge_conjugate_check(ONE, 1, 0.1)),
        ("s", lambda: reference_spectrum(3, F(7, 6), 0.1)),
        pytest.param("delta", lambda: QuasiMonomial(0.1), id="delta-QuasiMonomial"),
        ("param", lambda: Stencil("shift", 0.1, ())),
    ],
)
def test_float_argument_is_refused(name, call):
    # Poly([1]).scale(0.1) used to return 3602879701896397/36028797018963968.
    with pytest.raises(TypeError, match=rf'^{name} must be exact.*Fraction\("0\.1"\)$'):
        call()


@pytest.mark.parametrize(
    "value, text",
    [
        (Poly(), "Poly(0)"),
        (Poly([F(1, 2), 0, -3, 0]), "Poly(1/2*y^0 + -3*y^2)"),
        (Poly.from_ints(-6, [3, 0, 18, 0]), "Poly(-1/2*y^0 + -3*y^2)"),
        (LaurentPoly(), "LaurentPoly(0)"),
        (LaurentPoly({-1: F(1, 3), 0: 0, 2: -5}), "LaurentPoly(1/3*y^-1 + -5*y^2)"),
        (LaurentPoly.from_ints(-2, 4, [0, 2, 0, -6, 0]), "LaurentPoly(1/2*y^-1 + -3/2*y^1)"),
    ],
)
def test_repr_and_immutability(value, text):
    assert repr(value) == text
    with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
        value.low = 0
    for name in type(value).__slots__:  # Poly: _coeffs, _ints; LaurentPoly: low, poly
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            delattr(value, name)
    assert repr(value) == text and type(value).from_ints(*value.ints) == value


# A builder of each immutable value class and its repr, the text a frozen dataclass prints.
VALUES = [
    (lambda: QuasiMonomial(F(1, 3)), "QuasiMonomial(delta=Fraction(1, 3))"),
    (
        lambda: OperatorMatrix([Poly([1]), Poly([0, F(-2, 3)])], QuasiMonomial(0)),
        "OperatorMatrix(columns=(Poly(1*y^0), Poly(-2/3*y^1)), basis=QuasiMonomial(delta=Fraction(0, 1)))",
    ),
    (Differential, "Differential()"),
    (lambda: FiniteDifference(F(1, 3)), "FiniteDifference(delta=Fraction(1, 3))"),
    (lambda: QDilatation(2), "QDilatation(q=Fraction(2, 1))"),
    (
        lambda: Stencil(mode="scale", param=F(7, 6), terms=((0, LaurentPoly({-1: 3})),)),
        "Stencil(mode='scale', param=Fraction(7, 6), terms=((0, LaurentPoly(3*y^-1)),))",
    ),
    (
        lambda: SpectralReport(QuasiMonomial(0), (SpectralEntry(0, F(0), Poly.one()),)),
        "SpectralReport(basis=QuasiMonomial(delta=Fraction(0, 1)), entries=(SpectralEntry(level=0, "
        "eigenvalue=Fraction(0, 1), eigenpoly=Poly(1*y^0)),))",
    ),
]


@pytest.mark.parametrize("build, text", VALUES, ids=[text.partition("(")[0] for _, text in VALUES])
def test_value_semantics(build, text):
    # Each class behaves as a frozen dataclass with the same fields.
    value = build()
    names = type(value).__slots__
    fields = tuple(getattr(value, name) for name in names)
    assert value == build() and not value != build()
    assert type(value)(**dict(zip(names, fields))) == value
    with pytest.raises(TypeError):
        type(value)(*fields, None)
    # Another type holding the same fields is unequal.
    other = object.__new__(type("Other", (type(value),), {}))
    for name, field in zip(names, fields):
        object.__setattr__(other, name, field)
    assert value != other and other != value and not value == other
    if names:  # and so is the same type with its first field changed
        changed = object.__new__(type(value))
        for name, field in zip(names, (object(), *fields[1:])):
            object.__setattr__(changed, name, field)
        assert value != changed
    assert hash(value) == hash(fields)
    assert repr(value) == text
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == fields
    assert not hasattr(value, "__dict__")


def test_operator_matrix_columns_become_a_tuple():
    columns = [Poly([1]), Poly([0, F(-2, 3)])]
    built = [OperatorMatrix(c, QuasiMonomial(0)) for c in (columns, iter(columns), tuple(columns))]
    assert built[0] == built[1] == built[2]
    assert all(type(m.columns) is tuple for m in built)
    assert len({hash(m) for m in built}) == 1


@pytest.mark.parametrize("a, b", [(Poly([1]), LaurentPoly({0: 1})), (LaurentPoly({0: 1}), Poly([1]))])
def test_mixed_polynomial_types_are_refused(a, b):
    # One value in two types: no operation mixes them, and they are never equal.
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError, match="unsupported operand"):
            op(a, b)
    assert a != b and not a == b


def pair_of(coeffs: list[F], factor: int, trailing: int) -> tuple[int, list[int]]:
    """An integer pair (d, xs) for coeffs with d = factor * lcm, and `trailing` zeros appended."""
    d = factor * lcm(*(c.denominator for c in coeffs))
    return d, [c.numerator * (d // c.denominator) for c in coeffs] + [0] * trailing


class TestTwoForms:
    """A Poly built from rationals and one built from their integer pair are one value."""

    @given(
        st.lists(half_zero, max_size=12),
        st.integers(-6, 6).filter(bool),
        st.integers(0, 3),
        st.booleans(),
    )
    @example([], -3, 2, False)
    @example([F(0), F(0)], 5, 0, True)
    @example([F(1, 2), F(-3), F(0)], -4, 1, False)
    @settings(max_examples=80)
    def test_forms_agree(self, coeffs, factor, trailing, read_ints_first):
        d, xs = pair_of(coeffs, factor, trailing)
        # degree and is_zero read whichever form exists, before the other is built.
        a, b = Poly(coeffs), Poly.from_ints(d, xs)
        assert (a.degree, a.is_zero) == (b.degree, b.is_zero)
        assert b.is_zero == (not any(coeffs))
        if read_ints_first:
            a.ints, b.ints
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert a.coeffs == b.coeffs
        for p in (a, b):
            d_out, xs_out = p.ints
            assert d_out > 0 and (not xs_out or xs_out[-1] != 0)
            assert Poly.from_ints(d_out, xs_out) == p

    def test_negative_denominator_and_zero(self):
        p = Poly.from_ints(-6, [3, 0, 0])
        assert p.ints == (6, (-3,)) and p.coeffs == (F(-1, 2),) and p.degree == 0
        zero = Poly.from_ints(-4, [0, 0])
        assert zero.ints == (1, ()) and zero.is_zero and zero.degree is None
        assert zero == Poly() and hash(zero) == hash(Poly())
        with pytest.raises(ZeroDivisionError):
            Poly.from_ints(0, [1])

    def test_threads_read_one_shared_poly(self):
        xs = [(-1) ** k * (3**k + k) for k in range(150)]
        d = 2**64 * 3**40
        expected = Poly([F(x, d) for x in xs])
        for shared in (Poly.from_ints(-d, [-x for x in xs]), Poly(expected.coeffs)):
            barrier, results = threading.Barrier(4), [None] * 4

            def read(i):
                barrier.wait()
                # Half the threads read coeffs first, half ints.
                if i % 2:
                    results[i] = (shared.coeffs, shared.ints)
                else:
                    pair = shared.ints
                    results[i] = (shared.coeffs, pair)

            threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(r == results[0] for r in results)
            assert results[0][0] == expected.coeffs
            assert Poly.from_ints(*results[0][1]) == expected


# Integer coefficient lists with zeros at either end and in between.
zero_padded_ints = st.tuples(
    st.integers(0, 3), st.lists(st.integers(-20, 20), max_size=6), st.integers(0, 3)
).map(lambda t: [0] * t[0] + t[1] + [0] * t[2])


class TestLaurentTriple:
    """LaurentPoly.from_ints and ints against the terms constructor."""

    @given(st.integers(-4, 4), st.integers(-30, 30).filter(bool), zero_padded_ints)
    @example(-3, 5, [0, 0, 0])
    @example(2, -4, [])
    @example(-2, -6, [0, 3, 0, -9, 0])
    @settings(max_examples=80)
    def test_from_ints_matches_terms(self, low, d, xs):
        got = LaurentPoly.from_ints(low, d, xs)
        want = LaurentPoly({low + k: F(x, d) for k, x in enumerate(xs)})
        assert got == want and hash(got) == hash(want)
        assert got.terms == want.terms
        assert list(got.terms) == sorted(got.terms)
        out_low, out_d, out_xs = got.ints
        assert out_d > 0
        if any(xs):
            assert out_xs[0] and out_xs[-1]
            assert out_low == low + next(k for k, x in enumerate(xs) if x)
        else:
            assert got.is_zero and (out_low, out_d, out_xs) == (0, 1, ())
        assert LaurentPoly.from_ints(*got.ints) == got
        assert LaurentPoly.from_ints(*want.ints) == want

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            LaurentPoly.from_ints(0, 0, [1])


class TestLaurentPoly:
    def test_no_zero_coefficients_stored(self):
        p = LaurentPoly({-2: 1, 0: 0, 3: F(1, 2)})
        assert set(p.terms) == {-2, 3}

    def test_mul_with_poles(self):
        p = LaurentPoly({-1: 1}) * LaurentPoly({1: 2, 2: 3})
        assert p == LaurentPoly({0: 2, 1: 3})
        assert p * LaurentPoly() == LaurentPoly() and LaurentPoly() * p == LaurentPoly()

    def test_to_poly_rejects_poles(self):
        # A pole cannot be moved by a shift, nor survive a stencil's application.
        with pytest.raises(ValueError, match="poles"):
            moved(LaurentPoly({-1: 1}), 1, "shift", F(1))
        with pytest.raises(ValueError, match="poles"):
            Stencil("shift", F(1), ((0, LaurentPoly({-1: 1})),)).apply(Poly.one())
        assert Stencil("scale", F(2), ((0, LaurentPoly({-1: 1})),)).apply(Poly([0, 3])) == Poly([3])

    def test_stencil_mode_is_shift_or_scale(self):
        # A misspelled mode used to move the terms as a dilation: (y + 1)^2 came back as y^2.
        with pytest.raises(ValueError, match="^stencil mode must be 'shift' or 'scale', not 'shfit'$"):
            Stencil("shfit", F(1), ((1, LaurentPoly({0: 1})),))
        shift = Stencil("shift", F(1), ((1, LaurentPoly({0: 1})),))
        assert shift.apply(Poly([0, 0, 1])) == Poly([1, 2, 1])

    def test_scale_arg_negative_powers(self):
        p = LaurentPoly({-1: 1, 2: 1})
        assert moved(p, 1, "scale", F(2)) == LaurentPoly({-1: F(1, 2), 2: 4})
        # (-2/3)^-2 = 9/4, with a negative step and a negative ratio.
        assert moved(p, -2, "scale", F(-2, 3)) == LaurentPoly({-1: F(4, 9), 2: F(81, 16)})

    def test_derivative(self):
        p = LaurentPoly({-1: 1, 0: 5, 2: 3})
        assert p.derivative() == LaurentPoly({-2: -1, 1: 6})


# Power -> coefficient maps with powers in [-4, 6], some coefficients zero.
laurent_maps = st.dictionaries(
    st.integers(-4, 6), st.one_of(st.just(F(0)), rationals), max_size=8
)
y = sp.Symbol("y")


def sym(x: F) -> sp.Rational:
    return sp.Rational(x.numerator, x.denominator)


def sym_laurent(terms: dict[int, F]) -> sp.Expr:
    return sp.Add(*(sym(c) * y**k for k, c in terms.items()))


def same_as(got: dict[int, F], want: sp.Expr) -> bool:
    return sp.expand(sym_laurent(got) - want) == 0


class TestLaurentPolyOracle:
    """LaurentPoly operations, and the stencils' integer move, against sympy."""

    @given(
        laurent_maps, laurent_maps, rationals, rationals.filter(bool), rationals, st.integers(-3, 3)
    )
    # A derivative that loses the constant term, scale(0), a zero operand and
    # zero entries below the lowest nonzero power.
    @example({0: F(5), 2: F(-3, 4)}, {}, F(0), F(2), F(1, 3), 1)
    @example({-2: F(0), 0: F(0), 1: F(7, 2)}, {-1: F(0), 3: F(-2, 9)}, F(-5, 6), F(-1, 2), F(0), -2)
    @settings(max_examples=60, deadline=None)
    def test_operations_match_sympy(self, a_map, b_map, k, factor, offset, j):
        a, b = LaurentPoly(a_map), LaurentPoly(b_map)
        sa, sb = sym_laurent(a_map), sym_laurent(b_map)
        assert same_as((a + b).terms, sa + sb)
        assert same_as((a - b).terms, sa - sb)
        assert same_as((a * b).terms, sa * sb)
        assert same_as(a.scale(k).terms, sym(k) * sa)
        assert same_as(moved(a, j, "scale", factor).terms, sa.subs(y, sym(factor) ** j * y))
        assert same_as(a.derivative().terms, sp.diff(sa, y))
        # The identity stencil applied to 1 gives a back as a Poly.
        identity = Stencil("shift", factor, ((0, a),))
        if any(c != 0 and power < 0 for power, c in a_map.items()):
            with pytest.raises(ValueError, match="poles"):
                moved(a, j or 1, "shift", offset)
            with pytest.raises(ValueError, match="poles"):
                identity.apply(Poly.one())
        else:
            assert same_as(moved(a, j, "shift", offset).terms, sa.subs(y, y + j * sym(offset)))
            assert same_as(dict(enumerate(identity.apply(Poly.one()).coeffs)), sa)

    @given(laurent_maps, st.sets(st.integers(-4, 6)))
    def test_zero_entries_change_nothing(self, terms, zero_powers):
        nonzero = {power: c for power, c in terms.items() if c != 0}
        padded = LaurentPoly({**{power: 0 for power in zero_powers}, **terms})
        assert padded == LaurentPoly(nonzero)
        assert hash(padded) == hash(LaurentPoly(nonzero))
        assert padded.terms == nonzero
        assert list(padded.terms) == sorted(nonzero)
        assert padded.is_zero == (not nonzero)


class TestPolyZeroHeavy:
    """Poly operations on mostly-zero coefficient lists against sympy."""

    @staticmethod
    def sym_poly(p: Poly) -> sp.Expr:
        return sym_laurent(dict(enumerate(p.coeffs)))

    @given(
        st.lists(mostly_zero, max_size=16),
        st.lists(mostly_zero, max_size=16),
        st.one_of(st.just(F(0)), st.just(F(1)), rationals),
    )
    # Numerators and denominators near the height cap of the CLI's rational options.
    @example(
        [F(MAX_HEIGHT, MAX_HEIGHT - 2), F(0), F(-1, MAX_HEIGHT), F(0), F(MAX_HEIGHT - 4, 3)],
        [F(1, MAX_HEIGHT - 1), F(-MAX_HEIGHT, MAX_HEIGHT - 6), F(0), F(0), F(2, MAX_HEIGHT)],
        F(MAX_HEIGHT - 1, MAX_HEIGHT),
    )
    # A constant, whose derivative is zero, and an empty operand.
    @example([F(9, 2)], [], F(-2, 7))
    @settings(max_examples=80, deadline=None)
    def test_operations_match_sympy(self, a_coeffs, b_coeffs, k):
        a, b = Poly(a_coeffs), Poly(b_coeffs)
        sa, sb = self.sym_poly(a), self.sym_poly(b)
        assert same_as(dict(enumerate((a + b).coeffs)), sa + sb)
        assert same_as(dict(enumerate((a - b).coeffs)), sa - sb)
        assert same_as(dict(enumerate(a.scale(k).coeffs)), sym(k) * sa)
        assert same_as(dict(enumerate(a.derivative().coeffs)), sp.diff(sa, y))
        assert same_as(dict(enumerate((a * b).coeffs)), sa * sb)
        assert a.scale(0) == Poly() and a - a == Poly()
        for result in (a + b, a - b, a.scale(k), a.derivative(), a * b):
            assert not result.coeffs or result.coeffs[-1] != 0


class TestQuasiMonomial:
    def test_empty_product(self):
        assert basis_element(QuasiMonomial(1), 0) == Poly.one()

    def test_single_factor(self):
        assert basis_element(QuasiMonomial(F(7, 3)), 1) == Poly([0, 1])

    def test_cubic_expansion(self):
        # y(y-1)(y-2) expanded by hand.
        assert basis_element(QuasiMonomial(1), 3) == Poly([0, 2, -3, 1])

    def test_delta_zero_collapses_to_monomial(self):
        assert basis_element(QuasiMonomial(0), 5) == Poly.monomial(5)

    @pytest.mark.parametrize("delta", [F(0), F(-2, 3)])
    def test_negative_degree_rejected(self, delta):
        with pytest.raises(ValueError):
            basis_element(QuasiMonomial(delta), -1)

    @pytest.mark.parametrize("delta", [F(1), F(1, 2), F(-1, 3)])
    @pytest.mark.parametrize("n", range(8))
    def test_monic_of_exact_degree(self, n, delta):
        p = basis_element(QuasiMonomial(delta), n)
        assert p.degree == n
        assert p.leading == 1

    @pytest.mark.parametrize("delta", [F(1), F(1, 2), F(-1, 3)])
    def test_roots_are_grid_points(self, delta):
        for n in range(1, 9):
            p = basis_element(QuasiMonomial(delta), n)
            for k in range(n):
                assert p(k * delta) == 0

    @pytest.mark.parametrize("delta", [F(1), F(1, 2), F(-1, 3), F(7, 5)])
    def test_equals_product_of_linear_factors(self, delta):
        expected = Poly.one()
        for n in range(20):
            assert basis_element(QuasiMonomial(delta), n) == expected
            expected = expected * Poly([-n * delta, 1])

    def test_repeated_call_returns_equal_immutable_poly(self):
        basis = QuasiMonomial(F(2, 9))
        first = basis_element(basis, 12)
        basis_element(QuasiMonomial(F(-2, 9)), 12)
        second = basis_element(basis, 12)
        assert first == second
        with pytest.raises(AttributeError):
            second.coeffs = ()
        assert second.degree == 12 and second(F(2 * 11, 9)) == 0

    def test_high_degree_needs_no_deep_recursion(self):
        # A cold element of degree 200 must not recurse once per degree.
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 150)
        try:
            p = basis_element(QuasiMonomial(F(-5, 11)), 200)
        finally:
            sys.setrecursionlimit(limit)
        assert p.degree == 200
        assert p(F(-5 * 199, 11)) == 0


class TestBasisTransplant:
    def test_quasi_to_monomial_by_hand(self):
        # 1 + y(y-1) = y^2 - y + 1
        out = basis_transplant(Poly([1, 0, 1]), QuasiMonomial(F(1)), QuasiMonomial(0))
        assert out == Poly([1, -1, 1])

    def test_monomial_identity(self):
        f = Poly([F(3), F(-1, 2), F(0), F(7)])
        assert basis_transplant(f, QuasiMonomial(0), QuasiMonomial(0)) == f

    @pytest.mark.parametrize("delta", [F(1), F(5, 7), F(-2)])
    def test_degree_one_is_basis_independent(self, delta):
        assert basis_transplant(Poly([0, 1]), QuasiMonomial(delta), QuasiMonomial(0)) == Poly([0, 1])

    @given(
        st.lists(rationals, max_size=16),
        st.sampled_from([F(1), F(1, 2), F(-1, 3)]),
    )
    @settings(max_examples=60)
    def test_round_trip_is_identity(self, coeffs, delta):
        forward = basis_transplant(Poly(coeffs), QuasiMonomial(delta), QuasiMonomial(0))
        back = basis_transplant(forward, QuasiMonomial(0), QuasiMonomial(delta))
        assert back == Poly(coeffs)

    @given(
        st.lists(rationals, max_size=12),
        st.sampled_from([F(1), F(1, 2)]),
        st.sampled_from([F(-1, 3), F(3)]),
    )
    @settings(max_examples=40)
    def test_round_trip_between_quasi_bases(self, coeffs, d1, d2):
        forward = basis_transplant(Poly(coeffs), QuasiMonomial(d1), QuasiMonomial(d2))
        back = basis_transplant(forward, QuasiMonomial(d2), QuasiMonomial(d1))
        assert back == Poly(coeffs)

    @given(
        st.lists(half_zero, max_size=13),
        st.sampled_from([sign * d for sign in (1, -1) for d in (F(1), F(1, 2), F(1, 3), F(7, 5))]),
    )
    @example(degree_20, F(MAX_HEIGHT - 1, MAX_HEIGHT))
    @example(degree_20, -F(MAX_HEIGHT, 3))
    @settings(max_examples=80, deadline=None)
    def test_matches_newton_forward_differences(self, coeffs, delta):
        # The oracle reads only values of f on the grid 0, d, 2d, ...
        f = Poly(coeffs)
        expected = Poly(newton_coefficients(f, delta))
        assert basis_transplant(f, QuasiMonomial(0), QuasiMonomial(delta)) == expected
        assert basis_transplant(expected, QuasiMonomial(delta), QuasiMonomial(0)) == f


class TestBackSubstitute:
    def matrix_hf_diff_p2(self):
        # Columns are the images of 1, y, y^2 under 4y f'' - 4(y - 1/2) f'.
        return OperatorMatrix(
            [Poly(), Poly([2, -4]), Poly([0, 12, -8])], QuasiMonomial(0)
        )

    def test_level_one_eigenvector(self):
        levels = back_substitute(self.matrix_hf_diff_p2())
        assert levels[1] == (F(-4), Poly([F(-1, 2), 1]))

    def test_identity_pivot_zero(self):
        ident = OperatorMatrix([Poly([1]), Poly([0, 2])], QuasiMonomial(0))
        assert back_substitute(ident)[0] == (F(1), Poly.one())

    def test_degenerate_diagonal_raises(self):
        m = OperatorMatrix([Poly(), Poly([1])], QuasiMonomial(0))
        with pytest.raises(DegenerateSpectrumError) as raised:
            back_substitute(m)
        assert (raised.value.levels, raised.value.value) == ((0, 1), 0)

    def test_remultiplication_exact(self):
        m = self.matrix_hf_diff_p2()
        levels = back_substitute(m)
        assert [value for value, _ in levels] == [F(0), F(-4), F(-8)]
        for value, v in levels:
            image = dense_apply(m, v.coeffs)
            assert image == [value * c for c in list(v.coeffs) + [F(0)] * (3 - len(v.coeffs))]

    @staticmethod
    def matrix_repeating_level_1():
        # Level 3 repeats the eigenvalue 2 of level 1.
        return OperatorMatrix(
            [Poly([1]), Poly([F(1, 2), 2]), Poly([F(-1, 3), 5, 7]), Poly([0, F(3, 4), 1, 2])],
            QuasiMonomial(0),
        )

    @pytest.mark.parametrize("bits", [0, 10**9])
    def test_degenerate_level_named_in_each_regime(self, monkeypatch, bits):
        # The same (i, n) whether the levels would run on Fractions (bits 0) or on integers.
        monkeypatch.setattr(algebra, "_INTEGER_BITS", bits)
        with pytest.raises(DegenerateSpectrumError, match=r"^eigenvalue 2 occurs at levels \(1, 3\)$") as raised:
            back_substitute(self.matrix_repeating_level_1())
        assert (raised.value.levels, raised.value.value) == ((1, 3), 2)

    def test_degeneracy_found_before_any_level(self, monkeypatch):
        # With the integer row step failing, a degenerate matrix still names (1, 3),
        # so no row of levels 0 to 2 was solved; a regular one reaches the step.
        monkeypatch.setattr(algebra, "_row_ints", lambda *args: pytest.fail("a level was solved"))
        with pytest.raises(DegenerateSpectrumError, match=r"^eigenvalue 2 occurs at levels \(1, 3\)$"):
            back_substitute(self.matrix_repeating_level_1())
        with pytest.raises(pytest.fail.Exception, match="a level was solved"):
            back_substitute(self.matrix_hf_diff_p2())

    @pytest.mark.parametrize("bits", [algebra._INTEGER_BITS, 0])
    def test_degenerate_level_matches_level_by_level_search(self, monkeypatch, bits):
        # Random triangular matrices with distinct diagonal values, some of them
        # then copied to a later level.  Solving level by level, each row upward,
        # the first divisor to vanish is at the first n whose value occurs at a
        # lower level, and at the highest such i.  A regular matrix solves.
        monkeypatch.setattr(algebra, "_INTEGER_BITS", bits)
        rng = random.Random(3201)
        values = sorted({F(k, d) for k in range(-5, 6) for d in (1, 3, 7)})
        for _ in range(150):
            size = rng.randint(1, 8)
            diagonal = rng.sample(values, size)
            for _ in range(rng.randint(0, 3) if size > 1 else 0):
                i, n = sorted(rng.sample(range(size), 2))
                diagonal[n] = diagonal[i]
            columns = [Poly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(j)] + [diagonal[j]])
                       for j in range(size)]
            m = OperatorMatrix(columns, QuasiMonomial(0))
            found = [(i, n) for n in range(size) for i in reversed(range(n)) if diagonal[i] == diagonal[n]]
            if not found:
                for value, v in back_substitute(m):
                    padded = list(v.coeffs) + [F(0)] * (size - len(v.coeffs))
                    assert dense_apply(m, padded) == [value * c for c in padded]
                continue
            i, n = found[0]
            with pytest.raises(DegenerateSpectrumError) as raised:
                back_substitute(m)
            assert (raised.value.levels, raised.value.value) == ((i, n), diagonal[n])
            assert str(raised.value) == f"eigenvalue {diagonal[n]} occurs at levels ({i}, {n})"

    def test_matrix_leaving_the_flag_rejected(self):
        # Column 0 is 1 + 5y, so M (1, 0) = (1, 5) and (1, 0) is no eigenvector.
        m = OperatorMatrix([Poly([1, 5]), Poly([0, 2])], QuasiMonomial(0))
        with pytest.raises(NotTriangularError):
            back_substitute(m)
