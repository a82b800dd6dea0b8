"""Independent checks of fockosc outputs.

Nothing here imports fockosc: every expected value comes from closed forms
and from this file's own arithmetic, so the program never checks itself.

* Spectra: eigenvalues against -4{n} q^(-s n) (q = 1 for the flat
  realizations, s = 0 for the plain problem), and each monic eigenvector by
  the exact residual H v = E S v, with H built from the closed-form action
  a.e_n = {n} e_(n-1), b.e_n = e_(n+1) on the report's basis (monomials for
  diff and qdil, quasi-monomials for fd) and S e_n = q^(s n) e_n.
* Products and brackets: through the same representation, which is
  faithful on normal-ordered words once it is tested on e_0 .. e_M with M
  at least the largest lowering power.
* Stencils: against this file's own realization of the generators on
  monomials (y f(y - d) and (f(y + d) - f(y))/d, or y f and D_q).
* verify all: `passed` is true and the bytes match the digest recorded
  from the reference commit.

Each check returns None when the output is right and a one-line reason
otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
from fractions import Fraction

# sha256 of `fockosc verify all` stdout, recorded at the commit that added
# this benchmark.  The report is deterministic, so any change is a finding.
VERIFY_ALL_SHA256 = "eaf0fba7baf3ece9d35d96efa5f82bcc4ed001a6a7a395e133d392218c8dfb9c"

Words = dict  # (power of b, power of a) -> Fraction


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift the int/str conversion limit for this process's own parsing only."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def rat(text: str) -> Fraction:
    num, _, den = str(text).partition("/")
    return Fraction(int(num), int(den or 1))


def words_of(pairs) -> Words:
    """[[k, m, "c"], ...] -> {(k, m): c}."""
    out: Words = {}
    for k, m, c in pairs:
        out[(k, m)] = out.get((k, m), Fraction(0)) + rat(c)
    return {w: c for w, c in out.items() if c}


def operator_words(op: str, p: Fraction, big_b: Fraction) -> Words:
    """The paper's three-point (hf) and four-point (hg) elements."""
    words = {(1, 2): Fraction(4), (1, 1): Fraction(-4), (0, 1): 4 * p + 2}
    if op == "hg":
        words[(0, 2)] = 4 * big_b
    return {w: c for w, c in words.items() if c}


def qint(n: int, q: Fraction) -> Fraction:
    """{n} = 1 + q + ... + q^(n-1)."""
    return sum((q**i for i in range(n)), Fraction(0))


def expected_eigenvalue(n: int, q: Fraction, s: int) -> Fraction:
    """-4{n} q^(-s n): -4n, -4{n}, -4 q^n {n}, -4 q^2n {n} or the reciprocal family."""
    return -4 * qint(n, q) * q ** (-s * n)


# ---------------------------------------------------------------------------
# The Fock representation on coefficient vectors
# ---------------------------------------------------------------------------


class Fock:
    """a.e_n = {n} e_(n-1), b.e_n = e_(n+1), with falling q-factorials cached."""

    def __init__(self, q: Fraction):
        self.q = q
        self._qint = [Fraction(0)]
        self._falling: dict[tuple[int, int], Fraction] = {}

    def falling(self, n: int, m: int) -> Fraction:
        """{n}{n-1}...{n-m+1}: the coefficient of a^m e_n."""
        key = (n, m)
        if key not in self._falling:
            while len(self._qint) <= n:
                self._qint.append(self._qint[-1] * self.q + 1)
            out = Fraction(1)
            for i in range(m):
                out *= self._qint[n - i]
            self._falling[key] = out
        return self._falling[key]

    def apply(self, words: Words, vec: list[Fraction]) -> list[Fraction]:
        out: dict[int, Fraction] = {}
        for (k, m), c in words.items():
            for n, v in enumerate(vec):
                if v and n >= m:
                    t = n - m + k
                    out[t] = out.get(t, 0) + c * v * self.falling(n, m)
        size = max((i for i, v in out.items() if v), default=-1) + 1
        return [Fraction(out.get(i, 0)) for i in range(size)]


def trim(vec: list[Fraction]) -> list[Fraction]:
    vec = list(vec)
    while vec and vec[-1] == 0:
        vec.pop()
    return vec


def check_product(item: dict, output: dict) -> str | None:
    """x*y and x*y - lam*y*x against composition in the Fock representation."""
    q = rat(item["q"])
    x, y = words_of(item["x"]), words_of(item["y"])
    lam = rat(item["lam"])
    got_product = words_of(output["product"])
    got_bracket = words_of(output["bracket"])
    fock = Fock(q)
    # Words up to lowering power `top` are told apart by e_0 .. e_top.
    top = max(max(m for _, m in x) + max(m for _, m in y),
              *(m for _, m in got_product), *(m for _, m in got_bracket))
    for n in range(top + 1):
        e = [Fraction(0)] * n + [Fraction(1)]
        xy = fock.apply(x, fock.apply(y, e))
        yx = fock.apply(y, fock.apply(x, e))
        if trim(fock.apply(got_product, e)) != trim(xy):
            return f"x*y disagrees with composition on e_{n}"
        bracket = [a - lam * b for a, b in _padded(xy, yx)]
        if trim(fock.apply(got_bracket, e)) != trim(bracket):
            return f"bracket disagrees with composition on e_{n}"
    return None


def _padded(u: list, v: list):
    size = max(len(u), len(v))
    return zip(u + [Fraction(0)] * (size - len(u)), v + [Fraction(0)] * (size - len(v)))


def check_casimir(item: dict, output: str) -> str | None:
    n = rat(item["n"])
    expected = -(n / 2) * (n / 2 + 1)
    return None if rat(output) == expected else f"casimir {output} != {expected}"


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------


def check_spectrum(params: dict, text: str) -> str | None:
    with unlimited_int_digits():
        return _check_spectrum(params, text)


def _check_spectrum(params: dict, text: str) -> str | None:
    try:
        report = json.loads(text)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    realization = params["realization"]
    q = rat(params["q"]) if realization == "qdil" else Fraction(1)
    s = params["s"] if params["rhs"] == "scaled" else 0
    n_top = params["N"]
    words = operator_words(params["op"], rat(params["p"]), rat(params["B"]))

    if report.get("command") != "spectrum" or report.get("N") != n_top:
        return "report header does not match the request"
    reported_words = {(w["b"], w["a"]): rat(w["coeff"]) for w in report["operator"]["words"]}
    if reported_words != words:
        return "reported operator words differ from the closed form"
    if realization == "fd":
        expected_basis = {"kind": "quasimonomial", "delta": params["delta"]}
    else:
        expected_basis = {"kind": "monomial"}
    if report.get("basis") != expected_basis:
        return f"basis {report.get('basis')} != {expected_basis}"
    levels = report.get("levels", [])
    if [lv.get("n") for lv in levels] != list(range(n_top + 1)):
        return "levels do not run 0..N"
    expected = [expected_eigenvalue(n, q, s) for n in range(n_top + 1)]
    reference = report.get("reference", {})
    if reference.get("match") is not True or [rat(v) for v in reference.get("values", [])] != expected:
        return "reference values or verdict differ from the closed form"

    fock = Fock(q)
    for n, level in enumerate(levels):
        energy = rat(level["E"])
        if energy != expected[n]:
            return f"level {n}: E = {level['E']} but the closed form is {expected[n]}"
        v = [rat(c) for c in level["coeffs"]]
        if len(v) != n + 1 or v[n] != 1:
            return f"level {n}: eigenvector is not monic of degree {n}"
        rhs = [energy * c * q ** (s * i) for i, c in enumerate(v)]
        if trim(fock.apply(words, v)) != trim(rhs):
            return f"level {n}: residual H v - E S v is nonzero"
    return None


# ---------------------------------------------------------------------------
# Stencils
# ---------------------------------------------------------------------------


def shift(f: list[Fraction], c: Fraction) -> list[Fraction]:
    """Coefficients of f(y + c), by repeated synthetic division."""
    a = list(f)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += c * a[j + 1]
    return a


def realized_action(words: Words, realization: str, param: Fraction, f: list[Fraction]) -> list[Fraction]:
    """H f on monomial coefficients, from this file's own generator formulas.

    With u_k = sum_m c_(k,m) a^m f, H f = u_0 + b(u_1 + b(u_2 + ...)).
    """

    def lower(g):
        if realization == "fd":
            return trim([(x - y) / param for x, y in zip(shift(g, param), g)])
        out, qn = [], Fraction(1)
        for c in g[1:]:
            out.append(qn * c)
            qn = qn * param + 1
        return out

    def raise_(g):
        if realization == "fd":
            g = shift(g, -param)
        return [Fraction(0)] + g if g else []

    lowered = [list(f)]
    for _ in range(max(m for _, m in words)):
        lowered.append(lower(lowered[-1]))
    acc: list[Fraction] = []
    for k in range(max(k for k, _ in words), -1, -1):
        acc = raise_(acc)
        for m, g in enumerate(lowered):
            c = words.get((k, m))
            if c:
                acc = [x + c * y for x, y in _padded(acc, g)]
    return trim(acc)


def _horner(f: list[Fraction], y: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * y + c
    return acc


def _stencil_mismatch(terms, mode: str, param: Fraction, words: Words,
                      realization: str, degrees) -> str | None:
    """Evaluate sum_j c_j(y) f(moved y) at more points than the degree of
    y^m (stencil - H) f, so agreement at every point is an identity."""
    top_b = max((k for (k, _) in words), default=0)
    top_a = max((m for (_, m) in words), default=0)
    for d in degrees:
        f = [Fraction(0)] * d + [Fraction(1)]
        exact = realized_action(words, realization, param, f)
        for t in range(1, d + top_b + top_a + 3):
            y = Fraction(t, 3) + Fraction(1, 7)
            got = Fraction(0)
            for offset, coeff in terms:
                moved = y + offset * param if mode == "shift" else param**offset * y
                got += sum((c * y**power for power, c in coeff.items()), Fraction(0)) * _horner(f, moved)
            if got != _horner(exact, y):
                return f"stencil disagrees with the realized operator on y^{d} at y = {y}"
    return None


def check_stencil_report(params: dict, text: str) -> str | None:
    """A `fockosc stencil` JSON report against the realized operator."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    realization = params["realization"]
    param = rat(params["delta"] if realization == "fd" else params["q"])
    mode = "shift" if realization == "fd" else "scale"
    stencil = report.get("stencil", {})
    if stencil.get("mode") != mode or rat(stencil.get("param", "0")) != param:
        return "stencil mode or parameter differs from the request"
    terms = [(t["offset"], {int(pw): rat(c) for pw, c in t["coeff"].items()})
             for t in stencil.get("terms", [])]
    if stencil.get("points") != len(terms):
        return "stencil point count differs from its term list"
    words = operator_words(params["op"], rat(params["p"]), rat(params["B"]))
    return _stencil_mismatch(terms, mode, param, words, realization, range(7))


def check_stencil_api(item: dict, output: dict) -> str | None:
    """stencil_of terms and Stencil.apply results against the realized operator."""
    realization = item["realization"]
    param = rat(item["param"])
    words = words_of(item["h"])
    for d, got in zip(item["degrees"], output["applied"]):
        f = [Fraction(0)] * d + [Fraction(1)]
        if trim([rat(c) for c in got]) != realized_action(words, realization, param, f):
            return f"Stencil.apply(y^{d}) differs from the realized operator"
    if len(output["applied"]) != len(item["degrees"]):
        return "missing Stencil.apply results"
    terms = [(j, {int(pw): rat(c) for pw, c in coeff.items()}) for j, coeff in output["terms"]]
    mode = "shift" if realization == "fd" else "scale"
    return _stencil_mismatch(terms, mode, param, words, realization, item["degrees"][:3])


# ---------------------------------------------------------------------------
# verify all
# ---------------------------------------------------------------------------


def check_verify(text: str) -> str | None:
    if hashlib.sha256(text.encode()).hexdigest() != VERIFY_ALL_SHA256:
        return "verify report differs from the recorded digest"
    try:
        passed = json.loads(text).get("passed")
    except ValueError as exc:
        return f"verify report is not JSON: {exc}"
    return None if passed is True else "verify report says passed != true"


def check_item(item: dict, output) -> str | None:
    """Route an item's output to its checker."""
    kind = item["kind"]
    if kind == "product":
        return check_product(item, output)
    if kind == "casimir":
        return check_casimir(item, output)
    if kind == "stencil":
        return check_stencil_api(item, output)
    command = item["params"]["command"]
    if command == "verify":
        return check_verify(output)
    if command == "stencil":
        return check_stencil_report(item["params"], output)
    return check_spectrum(item["params"], output)
