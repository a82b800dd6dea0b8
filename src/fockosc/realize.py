"""Concrete realizations of the algebra generators on polynomial spaces.

Three substitutions are supported:

* Differential:      a = d/dy,                 b = multiplication by y
* FiniteDifference:  a = D+,                   b = y(1 - delta*D-)
* QDilatation:       a = D_q,                  b = multiplication by y

with the forward/backward differences D+f = (f(y+d) - f(y))/d,
D-f = (f(y) - f(y-d))/d and the dilatation derivative

    D_q f = (f(qy) - f(y)) / (y(q - 1)).

The (q-1) denominator is the sign that satisfies a.b - q.b.a = 1 and
yields the spectrum -4{n}; the opposite sign flips both.  Note that
b under FiniteDifference collapses to f(y) -> y*f(y - delta), and that
D_q on y^n gives {n} y^(n-1), so every action below is exact.

Each realization carries its own behaviour: the deformation parameter
`q` it realizes, the generator actions as integer primitives
`lower_ints(d, xs)` and `raise_ints(d, xs)`, the matrix `basis`, its
JSON description `to_json()` (and the `label` derived from it) and, for
the two discrete ones, the generator terms that `stencil_of` composes.
The base primitives are the number-state action on y^j, so diff (at
q = 1, {j} = j) and qdil share one lowering; fd overrides both
generators.  Nothing else in the package branches on the realization's type.

A primitive acts on the pair (d, xs) meaning sum xs[k] y^k / d, with
d != 0 and the pair not necessarily reduced, and returns such a pair.
`lower(f)` and `raise_(f)`, `apply_op` and `heisenberg_residual` all go
through the primitives: they read f's pair `f.ints` and return a Poly
holding the result's pair, so a chain of generator steps builds no
Fraction; each coefficient is reduced once, where a caller reads it.

Besides matrices, operators can be flattened to explicit stencils: a
list of coefficient functions c_j(y) with (H f)(y) = sum c_j(y) f(y + j*delta)
(shift mode) or sum c_j(y) f(q^j y) (scale mode).  `stencil_of` and
`Stencil.apply` share one integer composition of such terms, on the Laurent
triples `LaurentPoly.ints`.  The integer kernels all come from `algebra`:
`_newton` shifts, `_dilate` dilates, `_convolve` multiplies, and
`_laurent_sum` adds the stencil parts and the terms of `apply_op` and the
residual.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    LaurentPoly,
    OperatorMatrix,
    Poly,
    QuasiMonomial,
    Rat,
    Triple,
    _Value,
    _convolve,
    _dilate,
    _laurent_sum,
    _newton,
    _pair,
    basis_element,
    basis_transplant,
    exact,
)
from .fock import AlgebraMismatchError, FockPoly


# Generator terms of a stencil: offset -> coefficient function.
Terms = dict[int, LaurentPoly]


class Realization(_Value):
    """A substitution of the generators a, b by operators on polynomials.

    Subclasses provide `q`, `to_json()` and, where a stencil exists,
    `stencil_generators()` returning (mode, param, a terms, b terms).
    The base primitives `lower_ints` and `raise_ints` are the number-state
    action y^j -> {j} y^(j-1), y^j -> y^(j+1): diff (q = 1) and qdil share
    them, fd overrides both.  They act on sum xs[k] y^k / d (see the module
    docstring); `lower` and `raise_` are defined once, on top of them.  The
    basis defaults to QuasiMonomial(0), the monomials.  A realization is an
    immutable value whose fields are its parameters.
    """

    __slots__ = ()
    basis = QuasiMonomial(0)

    def lower(self, f: Poly) -> Poly:
        return Poly.from_ints(*self.lower_ints(*f.ints))

    def raise_(self, f: Poly) -> Poly:
        return Poly.from_ints(*self.raise_ints(*f.ints))

    def lower_ints(self, d: int, xs: list[int]) -> tuple[int, list[int]]:
        # The number-state action y^k -> {k} y^(k-1), {k} = k at q = 1.  With q = r/s
        # the integers t_k = s^(k-1) {k} follow t_k = s^(k-1) + r t_(k-1); over the
        # common denominator d s^(n-1), coefficient k - 1 is xs[k] t_k s^(n-k),
        # and u_k = t_k s^(n-k) runs as u_k = s^(n-1) + r u_(k-1) / s, exactly.
        n = len(xs) - 1
        if n < 1:
            return d, []
        r, s = self.q.numerator, self.q.denominator
        top = s ** (n - 1)
        out, u = [], 0
        for x in xs[1:]:
            u = top + r * (u // s)
            out.append(x * u)
        return d * top, out

    def raise_ints(self, d: int, xs: list[int]) -> tuple[int, list[int]]:
        return d, [0, *xs]

    @property
    def label(self) -> str:
        """Short name such as "diff" or "fd(delta=1/3)", read off to_json()."""
        spec = self.to_json()
        kind = spec.pop("kind")
        params = ", ".join(f"{key}={value}" for key, value in spec.items())
        return f"{kind}({params})" if params else kind


class Differential(Realization):
    __slots__ = ()
    q = Fraction(1)

    def to_json(self) -> dict:
        return {"kind": "diff"}

    def stencil_generators(self):
        raise ValueError("the differential realization has no stencil")


class FiniteDifference(Realization):
    __slots__ = ("delta",)
    delta: Fraction
    q = Fraction(1)

    def __init__(self, delta: Rat):
        super().__init__(exact(delta, "delta"))
        if self.delta == 0:
            raise ValueError("finite-difference step must be nonzero")

    @property
    def basis(self) -> QuasiMonomial:
        """Quasi-monomials, which make a flag-preserving matrix equal its differential one."""
        return QuasiMonomial(self.delta)

    def lower_ints(self, d: int, xs: list[int]) -> tuple[int, list[int]]:
        # (f(y + delta) - f(y))/delta with delta = r/s: the Taylor shift gives
        # f(y + delta) = sum g_k y^k / (d s^n), f is sum xs[k] s^n y^k over the
        # same denominator, and the top coefficients cancel, so coefficient k
        # of the quotient is (g_k - xs[k] s^n) / (d r s^(n-1)).  It stays the
        # shift formula, not c_k -> k c_k on quasi-monomials, so the
        # matrix-transplant check still compares two code paths.
        n = len(xs) - 1
        if n < 1:
            return d, []
        r, s = self.delta.numerator, self.delta.denominator
        top = s**n
        _, shifted = _newton(d, xs, 1, s, [r] * n)
        return d * r * s ** (n - 1), [g - x * top for x, g in zip(xs[:n], shifted)]

    def raise_ints(self, d: int, xs: list[int]) -> tuple[int, list[int]]:
        # y f(y - delta): the Taylor shift with node -r, then the factor y.
        r, s = self.delta.numerator, self.delta.denominator
        return super().raise_ints(*_newton(d, xs, 1, s, [-r] * (len(xs) - 1)))

    def to_json(self) -> dict:
        return {"kind": "fd", "delta": str(self.delta)}

    def stencil_generators(self) -> tuple[str, Fraction, Terms, Terms]:
        """Shift mode: a = E/d - 1/d and b = y*E^-1, with E the unit shift."""
        inv = 1 / self.delta
        a_terms = {1: LaurentPoly({0: inv}), 0: LaurentPoly({0: -inv})}
        return "shift", self.delta, a_terms, {-1: LaurentPoly({1: 1})}


class QDilatation(Realization):
    __slots__ = ("q",)
    q: Fraction

    def __init__(self, q: Rat):
        super().__init__(exact(q, "q"))
        if self.q in (0, 1):
            raise ValueError("dilatation parameter must differ from 0 and 1")

    def to_json(self) -> dict:
        return {"kind": "qdil", "q": str(self.q)}

    def stencil_generators(self) -> tuple[str, Fraction, Terms, Terms]:
        """Scale mode: a = (S - 1)/(y(q - 1)) and b = y, with S f(y) = f(qy)."""
        alpha = LaurentPoly({-1: 1 / (self.q - 1)})
        return "scale", self.q, {1: alpha, 0: -alpha}, {0: LaurentPoly({1: 1})}


def _check_q(h: FockPoly, r: Realization) -> None:
    if h.q != r.q:
        raise AlgebraMismatchError(f"element has q={h.q} but realization carries q={r.q}")


def apply_op(h: FockPoly, r: Realization, f: Poly) -> Poly:
    """Apply the realized element h to f, exactly.

    The element's deformation parameter must match the realization: 1
    for Differential/FiniteDifference and r.q for QDilatation.  Writing
    h = sum_k b^k Q_k(a), the powers a^m f are computed once each, up to
    the lowering degree, and the b-powers by Horner's rule from the top
    k down, one `raise_ints` per step.  All of it runs on the realization's
    integer primitives; each level's terms c a^m f are added in `_laurent_sum`,
    and the result is a Poly holding the last pair.
    """
    _check_q(h, r)
    lowered = [f.ints]
    for _ in range(h.a_degree()):
        lowered.append(r.lower_ints(*lowered[-1]))
    acc = (1, [])
    for level in range(h.b_degree(), -1, -1):
        if acc[1]:
            acc = r.raise_ints(*acc)
        parts = [(c, 0, *lowered[m]) for (k, m), c in h.terms.items() if k == level]
        acc = _pair(_laurent_sum([(1, 0, *acc), *parts]))
    return Poly.from_ints(*acc)


def realize_matrix(h: FockPoly, r: Realization, n: int) -> OperatorMatrix:
    """Matrix of the realized element on P_N in the realization's basis.

    Column j is the image of basis element j, re-expressed in the same
    basis and kept whole: an image that leaves P_N keeps its components
    above degree N, which is what `preserves_flag` reads.  The
    FiniteDifference basis is QuasiMonomial(delta), which makes a
    flag-preserving matrix identical to its Differential counterpart.

    This is the polynomial path, through `apply_op` and the realization's
    primitives, that `verify` and the tests use.  The CLI builds its spectra
    with `fock.number_matrix`, which writes the same matrix from the
    number-state action, and the tests check the two against each other.
    """
    if n < 0:
        raise ValueError("flag dimension must be non-negative")
    basis = r.basis
    monomial = QuasiMonomial(0)
    return OperatorMatrix(
        (
            basis_transplant(apply_op(h, r, basis_element(basis, j)), monomial, basis)
            for j in range(n + 1)
        ),
        basis,
    )


def heisenberg_residual(r: Realization, f: Poly) -> Poly:
    """(a.b - q.b.a - 1) applied to f, with q = r.q; zero for a valid realization.

    ab and ba come from the integer primitives on f's pair and are combined
    with q and f in `_laurent_sum`; no Fraction is built unless a caller reads
    the residual's coefficients.
    """
    f_ints = f.ints
    ab = r.lower_ints(*r.raise_ints(*f_ints))
    ba = r.raise_ints(*r.lower_ints(*f_ints))
    return Poly._of_triple(*_laurent_sum([(1, 0, *ab), (-r.q, 0, *ba), (-1, 0, *f_ints)]))


# ---------------------------------------------------------------------------
# Stencils
# ---------------------------------------------------------------------------


class Stencil(_Value):
    """Explicit multi-point form of a realized operator.

    mode "shift": (H f)(y) = sum_j coeff[j](y) * f(y + j*param)
    mode "scale": (H f)(y) = sum_j coeff[j](y) * f(param^j * y)

    Offsets with zero coefficient are not stored.
    """

    __slots__ = ("mode", "param", "terms")
    mode: str  # "shift" | "scale"
    param: Fraction
    terms: tuple[tuple[int, LaurentPoly], ...]  # sorted by offset

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self.terms)

    def coeff(self, offset: int) -> LaurentPoly:
        for j, c in self.terms:
            if j == offset:
                return c
        return LaurentPoly()

    def apply(self, f: Poly) -> Poly:
        """The composition with f at offset 0, summed over the offsets; poles must cancel."""
        terms = {j: c.ints for j, c in self.terms}
        parts = _compose_ints(terms, {0: (0, *f.ints)}, self.mode, self.param)
        return Poly._of_triple(*_laurent_sum([(1, *part) for _, part in parts]))


def _move_ints(f: Triple, j: int, mode: str, param: Fraction) -> Triple:
    """f(y + j*param) in shift mode, f(param^j * y) in scale mode.

    Shift mode, param = r/s: the Taylor shift `_newton` with step 1/s and
    node jr; f must have no negative power.  Scale mode: `_dilate` by
    param^j.
    """
    if j == 0 or not f[2]:
        return f
    r, s = param.numerator, param.denominator
    if mode == "shift":
        d, xs = _pair(f)
        return (0, *_newton(d, xs, 1, s, [j * r] * (len(xs) - 1)))
    return _dilate(f, *((r**j, s**j) if j > 0 else (s**-j, r**-j)))


def _compose_ints(
    x: dict[int, Triple], y: dict[int, Triple], mode: str, param: Fraction
) -> list[tuple[int, Triple]]:
    """The parts (i + j, c * d(T^i y)) of (sum_i c_i T^i)(sum_j d_j T^j), T^i moving by i steps."""
    parts = []
    for i, c in x.items():
        for j, f in y.items():
            low, d, xs = _move_ints(f, i, mode, param)
            parts.append((i + j, (c[0] + low, c[1] * d, _convolve(c[2], xs))))
    return parts


def _by_offset(parts: list[tuple[int, Triple]]) -> dict[int, Triple]:
    """The parts added up per offset; offsets whose sum is zero are left out."""
    groups: dict[int, list] = {}
    for j, part in parts:
        groups.setdefault(j, []).append((1, *part))
    sums = ((j, _laurent_sum(group)) for j, group in groups.items())
    return {j: t for j, t in sums if t[2]}


def stencil_of(h: FockPoly, r: Realization) -> Stencil:
    """Flatten the realized element to explicit coefficient functions.

    Supported for FiniteDifference (shift mode, offsets inside
    -(b-degree)..(a-degree)) and QDilatation (scale mode, offsets inside
    0..(a-degree)); the Differential realization raises ValueError.
    As in `apply_op`, the terms of each a^m are composed once and the
    b terms are composed in by Horner's rule from the top b-power down,
    all on Laurent triples, and each output coefficient is reduced once.
    """
    mode, param, a_terms, b_terms = r.stencil_generators()
    _check_q(h, r)
    a_terms, b_terms = ({j: c.ints for j, c in t.items()} for t in (a_terms, b_terms))

    lowered = [{0: (0, 1, [1])}]
    for _ in range(h.a_degree()):
        lowered.append(_by_offset(_compose_ints(lowered[-1], a_terms, mode, param)))
    acc: dict[int, Triple] = {}
    for level in range(h.b_degree(), -1, -1):
        parts = _compose_ints(b_terms, acc, mode, param)
        for (k, m), c in h.terms.items():
            if k == level:
                scalar = {0: (0, c.denominator, [c.numerator])}
                parts += _compose_ints(scalar, lowered[m], mode, param)
        acc = _by_offset(parts)
    terms = sorted((j, LaurentPoly.from_ints(*t)) for j, t in acc.items())
    return Stencil(mode=mode, param=param, terms=tuple(terms))
