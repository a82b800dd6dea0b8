import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockosc.algebra import Poly
from fockosc.fock import (
    AlgebraMismatchError,
    FockPoly,
    NotScalarError,
    build_hf,
    build_hg,
    casimir_value,
    commutator,
    normal_order_product,
    q_bracket,
    q_number,
    sl2_generators,
)
from oracles import act_on_poly, oracle_product, swap_normal_order

Q_SAMPLES = [F(1), F(2), F(1, 3)]
# At q = -1, {2} and so every [j]! with j >= 2 vanish, where a ratio of
# q-numbers would divide by 0; at q = 0 only the q^0 terms survive.
WICK_Q_SAMPLES = Q_SAMPLES + [F(-1), F(0), F(-6, 7)]
# Numerator and denominator at the height cap of cli.MAX_HEIGHT.
LARGE_Q = F(2**64 - 1, 2**64 - 3)


def small_fock(q, words):
    return FockPoly(dict(words), q)


coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=6)
word_keys = st.tuples(st.integers(0, 3), st.integers(0, 3))
fock_terms = st.dictionaries(word_keys, coeffs, max_size=4)


class TestNormalOrderProduct:
    def test_ab_undeformed(self):
        out = FockPoly.a() * FockPoly.word(1, 0)
        assert out == FockPoly({(1, 1): 1, (0, 0): 1})

    def test_ab_deformed(self):
        q = F(5, 3)
        out = FockPoly.a(q) * FockPoly.word(1, 0, q=q)
        assert out == FockPoly({(1, 1): q, (0, 0): 1}, q)

    def test_a2_b2_undeformed(self):
        out = FockPoly.word(0, 2) * FockPoly.word(2, 0)
        assert out == FockPoly({(2, 2): 1, (1, 1): 4, (0, 0): 2})

    def test_a_b2_deformed(self):
        q = F(7, 2)
        out = FockPoly.a(q) * FockPoly.word(2, 0, q=q)
        assert out == FockPoly({(2, 1): q**2, (1, 0): 1 + q}, q)

    @pytest.mark.parametrize("q", Q_SAMPLES)
    def test_matches_single_swap_oracle(self, q):
        x = small_fock(q, {(1, 2): F(3), (0, 1): F(-1, 2)})
        y = small_fock(q, {(2, 0): F(1), (1, 1): F(2, 3)})
        assert (x * y).terms == oracle_product(x, y)

    @pytest.mark.parametrize("q", WICK_Q_SAMPLES, ids=str)
    def test_closed_form_matches_swaps_for_every_low_word(self, q):
        for m in range(7):
            for k in range(7):
                product = FockPoly.word(0, m, q=q) * FockPoly.word(k, 0, q=q)
                assert product.terms == swap_normal_order({"a" * m + "b" * k: F(1)}, q), (m, k)

    def test_context_mixing_raises(self):
        with pytest.raises(AlgebraMismatchError):
            normal_order_product(FockPoly.a(q=1), FockPoly.word(1, 0, q=2))

    @given(fock_terms, fock_terms, fock_terms, st.sampled_from(Q_SAMPLES))
    @settings(max_examples=50, deadline=None)
    def test_associativity(self, t1, t2, t3, q):
        x, y, z = (FockPoly(t, q) for t in (t1, t2, t3))
        assert (x * y) * z == x * (y * z)

    @given(fock_terms, fock_terms, st.sampled_from(WICK_Q_SAMPLES + [LARGE_Q]))
    @example({}, {(1, 1): F(2)}, F(1))
    @example({(2, 3): F(-1, 3)}, {}, LARGE_Q)
    @settings(max_examples=80, deadline=None)
    def test_product_matches_oracle(self, t1, t2, q):
        x, y = FockPoly(t1, q), FockPoly(t2, q)
        assert (x * y).terms == oracle_product(x, y)


class TestQBracket:
    def test_defining_relation(self):
        for q in (F(1), F(4, 7)):
            out = q_bracket(FockPoly.a(q), FockPoly.word(1, 0, q=q), q)
            assert out == FockPoly({(0, 0): 1}, q)

    def test_self_commutator_vanishes(self):
        x = small_fock(F(1), {(2, 1): 3, (0, 2): F(1, 5)})
        assert q_bracket(x, x, 1).is_zero

    @pytest.mark.parametrize("q", [F(2), F(1, 3)])
    def test_deformed_lowering_relation(self, q):
        # q*(J0.J-) - (J-.J0) = -J- with J0 = ba, J- = a.
        jzero = FockPoly.word(1, 1, q=q)
        jminus = FockPoly.a(q)
        out = (jzero * jminus).scale(q) - jminus * jzero
        assert out == -jminus


def oracle_bracket(x, y, lam):
    """x*y - lam*y*x with both products by single swaps, in word order."""
    out = oracle_product(x, y)
    for w, c in oracle_product(y, x).items():
        out[w] = out.get(w, F(0)) - lam * c
    return {w: c for w, c in sorted(out.items()) if c}


def seeded_element(rng, q, max_b, max_a):
    """Seeded coefficients on some words b^k a^m, k <= max_b, m <= max_a, always with b^max_b a^max_a."""
    terms = {(k, m): F(rng.randint(-9, 9), rng.randint(1, 7))
             for k in range(max_b + 1) for m in range(max_a + 1) if rng.random() < 0.6}
    terms[max_b, max_a] = F(rng.randint(1, 9), rng.randint(1, 7))
    return FockPoly(terms, q)


@pytest.mark.parametrize("q", [F(1), F(-6, 7), F(7, 6), F(-1), F(0)], ids=str)
@pytest.mark.parametrize("lam", ["0", "1", "q", "-7/6"])
def test_bracket_matches_arithmetic_and_swaps(q, lam):
    """q_bracket and commutator against x*y - (y*x).scale(lam) and against single swaps.

    The pairs include x with itself, the zero element, the identity, and
    elements whose a-degree differs from their b-degree, so the word grid of
    each product is wider than it is high or higher than it is wide.
    """
    lam = q if lam == "q" else F(lam)
    rng = random.Random(f"bracket/{q}/{lam}")
    x, y, z = (seeded_element(rng, q, *degrees) for degrees in ((1, 3), (3, 0), (2, 1)))
    assert x.a_degree() != x.b_degree() and y.a_degree() != y.b_degree()
    zero, one = FockPoly({}, q), FockPoly({(0, 0): 1}, q)
    for u, v in ((x, y), (y, x), (x, z), (z, y), (x, x), (zero, x), (y, zero), (one, z), (x, one)):
        expected = oracle_bracket(u, v, lam)
        out = q_bracket(u, v, lam)
        assert out == u * v - (v * u).scale(lam)
        assert out.q == q and list(out.terms.items()) == list(expected.items())
        assert commutator(u, v) == u * v - v * u
        assert commutator(u, v).terms == oracle_bracket(u, v, 1)
    assert commutator(x, x).is_zero and q_bracket(y, y, 1).is_zero


class TestSL2:
    def test_generators_n0(self):
        gens = sl2_generators(0)
        assert gens.jplus == FockPoly({(2, 1): 1})
        assert gens.jzero == FockPoly({(1, 1): 1})
        assert gens.jminus == FockPoly({(0, 1): 1})

    def test_generators_n2(self):
        gens = sl2_generators(2)
        assert gens.jplus == FockPoly({(2, 1): 1, (1, 0): -2})
        assert gens.jzero == FockPoly({(1, 1): 1, (0, 0): -1})

    @pytest.mark.parametrize("n", [F(0), F(1), F(2), F(3), F(7, 2)])
    def test_commutation_relations(self, n):
        gens = sl2_generators(n)
        assert commutator(gens.jzero, gens.jplus) == gens.jplus
        assert commutator(gens.jzero, gens.jminus) == -gens.jminus
        assert commutator(gens.jplus, gens.jminus) == gens.jzero.scale(-2)


class TestCasimir:
    @pytest.mark.parametrize("n", list(range(9)) + [F(1, 2), F(5, 3)])
    def test_closed_form(self, n):
        n = F(n)
        assert casimir_value(n).value == -(n / 2) * (n / 2 + 1)

    def test_non_scalar_detection(self):
        with pytest.raises(NotScalarError):
            FockPoly({(1, 1): 1}).as_scalar()


class TestBuilders:
    def test_hf_p0(self):
        assert build_hf(0) == FockPoly({(1, 2): 4, (1, 1): -4, (0, 1): 2})

    def test_hf_p1(self):
        assert build_hf(1) == FockPoly({(1, 2): 4, (1, 1): -4, (0, 1): 6})

    def test_hf_constant_vanishes_at_minus_half(self):
        h = build_hf(F(-1, 2))
        assert h.coeff(0, 1) == 0

    def test_hg_reduces_to_hf_at_b_zero(self):
        for p in (F(0), F(1), F(5, 2)):
            assert build_hg(p, 0) == build_hf(p)

    def test_hg_p0_b1(self):
        assert build_hg(0, 1) == FockPoly(
            {(1, 2): 4, (0, 2): 4, (1, 1): -4, (0, 1): 2}
        )

    def test_hg_linear_in_b(self):
        assert build_hg(0, F(-2, 3)).coeff(0, 2) == F(-8, 3)

    @pytest.mark.parametrize(
        "build, name, value",
        [
            (lambda: build_hf(0.1), "p", "0.1"),
            (lambda: build_hf(0, q=0.5), "q", "0.5"),
            (lambda: build_hg(0.1, 1), "p", "0.1"),
            (lambda: build_hg(0, -0.25), "B", "-0.25"),
            (lambda: build_hg(0, 1, q=1.1), "q", "1.1"),
            (lambda: FockPoly({(1, 0): 1}, q=0.5), "q", "0.5"),
        ],
    )
    def test_float_parameters_are_refused(self, build, name, value):
        # A float holds a binary fraction: 0.1 would become 3602879701896397/2^55.
        with pytest.raises(TypeError, match=rf'^{name} must be exact.*Fraction\("{value}"\)$'):
            build()

    def test_float_coefficient_is_refused(self):
        with pytest.raises(TypeError, match=r'^coefficient of b\^1 a\^0 must be exact.*\("0\.1"\)$'):
            FockPoly({(0, 0): 1, (1, 0): 0.1})
        assert FockPoly({(1, 0): "1/10"}).coeff(1, 0) == F(1, 10)


class TestValue:
    """FockPoly takes ==, immutability and its missing hash from algebra._Value."""

    @pytest.mark.parametrize("name", ["q", "terms", "extra"])
    def test_immutable(self, name):
        x = FockPoly({(1, 2): F(1, 3), (0, 0): -2}, F(7, 6))
        before = (x.q, dict(x.terms), repr(x))
        with pytest.raises(AttributeError, match="^FockPoly is immutable$"):
            setattr(x, name, None)
        with pytest.raises(AttributeError, match="^FockPoly is immutable$"):
            delattr(x, name)
        assert (x.q, x.terms, repr(x)) == before
        assert x == FockPoly({(1, 2): F(1, 3), (0, 0): -2}, F(7, 6))

    def test_unhashable_and_unequal_to_other_types(self):
        x = FockPoly({(0, 0): 1})
        with pytest.raises(TypeError):
            hash(x)
        assert x != Poly([1]) and not x == Poly([1]) and not Poly([1]) == x
        assert x != FockPoly({(0, 0): 1}, 2)

    def test_keyword_round_trip(self):
        x = FockPoly({(2, 1): F(-2, 3), (0, 1): 5}, F(-6, 7))
        assert FockPoly(terms=x.terms, q=x.q) == x


class TestActOnPoly:
    def test_ground_state_annihilated(self):
        assert act_on_poly(build_hf(0), Poly.one()).is_zero

    def test_first_excited_state(self):
        out = act_on_poly(build_hf(0), Poly([F(1, 2), -1]))
        assert out == Poly([-2, 4])
        assert out == Poly([F(1, 2), -1]).scale(-4)

    @pytest.mark.parametrize("q", [F(1), F(2), F(3, 7)])
    @pytest.mark.parametrize("p", [F(0), F(5, 2)])
    def test_diagonal_coefficient_is_deformed_integer(self, p, q):
        for n in range(9):
            image = act_on_poly(build_hf(p, q=q), Poly.monomial(n))
            assert image.coeff(n) == -4 * q_number(n, q)

    def test_degree_never_raised(self):
        h = build_hf(F(5, 2))
        for n in range(10):
            image = act_on_poly(h, Poly([1] * (n + 1)))
            assert image.is_zero or image.degree <= n

    def test_raising_generator_invariant_subspace(self):
        # b^2 a - n b annihilates b^n at its own n only: P_2 is invariant
        # for n = 2 while P_4 is not.
        jplus2 = sl2_generators(2).jplus
        for k in range(3):
            image = act_on_poly(jplus2, Poly.monomial(k))
            assert image.is_zero or image.degree <= 2
        overflow = act_on_poly(jplus2, Poly.monomial(4))
        assert overflow.degree == 5


def test_package_top_level_exports_only_poly_and_fockpoly():
    import types

    import fockosc

    names = {
        name for name in dir(fockosc)
        if not name.startswith("_") and not isinstance(getattr(fockosc, name), types.ModuleType)
    }
    assert names == {"Poly", "FockPoly"}
    assert fockosc.FockPoly is FockPoly and fockosc.Poly is Poly
