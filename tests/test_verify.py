import json
import re

import pytest

from fockosc import verify
from fockosc.algebra import LaurentPoly, OperatorMatrix, Poly, QuasiMonomial
from fockosc.cli import main
from fockosc.fock import FockPoly, build_hf
from fockosc.realize import (
    Differential,
    FiniteDifference,
    QDilatation,
    Stencil,
    realize_matrix,
)
from fockosc.spectral import SpectralReport
from fockosc.verify import SUITES, run_suite


def test_registry_names():
    assert set(SUITES) == {
        "heisenberg",
        "sl2",
        "casimir",
        "spectrum",
        "isospectral",
        "transplant",
        "kratzer",
        "parity",
        "qpencil",
    }


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("bogus")


def test_spectrum_suite_passes():
    report = run_suite("spectrum")
    assert report.passed
    assert len(report.cases) == 6


def test_qpencil_suite_carries_direction_note():
    report = run_suite("qpencil")
    assert report.passed
    assert any(note.note_id == "scale-direction" for note in report.notes)


def test_isospectral_suite_records_shift_conventions():
    report = run_suite("isospectral")
    assert report.passed
    ids = {note.note_id for note in report.notes}
    assert {"four-point-constant", "shifted-laguerre", "dilatation-stencil-signs"} <= ids


def test_negative_control_needs_two_solved_spectra(monkeypatch):
    """With one report standing in for both solves, the divergence case must fail."""
    report = verify.eigensolve_flag(realize_matrix(build_hf(0), Differential(), 4))
    monkeypatch.setattr(verify, "eigensolve_flag", lambda matrix: report)
    cases = {case.case: case for case in run_suite("isospectral").cases}
    control = cases["classic-vs-deformed q=2 diverges"]
    assert not control.passed
    assert control.got == "unexpected pattern"


def test_kratzer_suite_records_spacing_note():
    report = run_suite("kratzer")
    assert report.passed
    assert any(note.note_id == "inverse-square-spacing" for note in report.notes)


def test_run_all_matches_each_suite_alone():
    """The grid run_all shares gives the same cases as each suite building its own."""
    assert verify.run_all() == [run_suite(name) for name in SUITES]


def test_run_all_realizes_each_fd_matrix_once(monkeypatch):
    """Once per call: the second run_all realizes its own grid again."""
    seen = []
    original = verify.realize_matrix

    def counted(h, r, n):
        seen.append(r)
        return original(h, r, n)

    monkeypatch.setattr(verify, "realize_matrix", counted)
    verify.run_all()
    assert sum(isinstance(r, FiniteDifference) for r in seen) == 9
    seen.clear()
    verify.run_all()
    assert sum(isinstance(r, FiniteDifference) for r in seen) == 9


def test_matrix_transplant_compares_separate_matrices(monkeypatch):
    """A wrong entry above the diagonal of every fd matrix fails every transplant case."""
    original = verify.realize_matrix

    def perturbed(h, r, n):
        matrix = original(h, r, n)
        if not isinstance(r, FiniteDifference):
            return matrix
        columns = list(matrix.columns)
        columns[2] = columns[2] + Poly([1])
        return OperatorMatrix(columns, matrix.basis)

    monkeypatch.setattr(verify, "realize_matrix", perturbed)
    cases = [
        case
        for report in verify.run_all()
        for case in report.cases
        if case.case.startswith("matrix-transplant")
    ]
    assert len(cases) == 9
    assert not any(case.passed for case in cases)


# One plausible fault per case family of `verify all`.  Each wraps the
# original where the suite looks it up: in the verify namespace, or on the
# realization classes for `lower_ints` and on FockPoly for `__mul__`.
def _plus_one(fn):
    return lambda *args: fn(*args) + 1


def _residual_without_one(residual):
    """(a.b - q.b.a) f, the - f term dropped."""
    return lambda r, f: residual(r, f) + f


def _on_ints(fault):
    """A fault of the Poly action `lower`, applied to the integer primitive `lower_ints`."""

    def wrap(lower_ints):
        def lower(self, f):
            return Poly.from_ints(*lower_ints(self, *f.ints))

        faulty = fault(lower)
        return lambda self, d, xs: faulty(self, Poly.from_ints(d, xs)).ints

    return wrap


def _lower_plus_one(lower):
    return lambda self, f: lower(self, f) + Poly.one()


def _fd_step_sign(lower):
    """The forward difference taken with step -delta."""
    return lambda self, f: (f.shift_arg(-self.delta) - f).scale(1 / self.delta)


def _qdil_without_brackets(lower):
    """k in place of {k}: the plain derivative."""
    return lambda self, f: f.derivative()


def _swapped(commutator):
    return lambda x, y: commutator(y, x)


def _mul_plus_identity(mul):
    return lambda x, y: mul(x, y) + FockPoly({(0, 0): 1}, x.q)


def _casimir_plus_one(casimir_value):
    return lambda n: casimir_value(n)._replace(value=casimir_value(n).value + 1)


def _constant_plus_one(build):
    """An operator builder whose element carries an extra identity term."""
    return lambda *args, q=1: build(*args, q=q) + FockPoly({(0, 0): 1}, q)


def _extra_b_term(build_hg):
    """B a^2 once more: 5B in place of 4B."""
    return lambda p, big_b, q=1: build_hg(p, big_b, q) + FockPoly.word(0, 2, big_b, q)


def _source_step_sign(transplant):
    return lambda f, source, target: transplant(f, QuasiMonomial(-source.delta), target)


def _extra_offset(stencil_of):
    def faulty(h, r):
        stencil = stencil_of(h, r)
        return Stencil(stencil.mode, stencil.param, stencil.terms + ((3, LaurentPoly({0: 1})),))

    return faulty


def _reversed_direction(pencil_solve):
    return lambda matrix, s, q: pencil_solve(matrix, -s, q)


def _levels_plus_one(pencil_solve):
    def faulty(matrix, s, q):
        report = pencil_solve(matrix, s, q)
        entries = tuple(e._replace(eigenvalue=e.eigenvalue + 1) for e in report.entries)
        return SpectralReport(report.basis, entries)

    return faulty


REALIZATIONS = (Differential, FiniteDifference, QDilatation)
LOWER_PLUS_ONE = [(cls, "lower_ints", _on_ints(_lower_plus_one)) for cls in REALIZATIONS]
FD_STEP_SIGN = [(FiniteDifference, "lower_ints", _on_ints(_fd_step_sign))]
QDIL_WITHOUT_BRACKETS = [(QDilatation, "lower_ints", _on_ints(_qdil_without_brackets))]
SWAPPED_COMMUTATOR = [(verify, "commutator", _swapped)]
EXTRA_OFFSET = [(verify, "stencil_of", _extra_offset)]
REVERSED_DIRECTION = [(verify, "pencil_solve", _reversed_direction)]
FAULTS = {
    # family: (suite, [(where, name, wrapper of the original)])
    "bracket": ("heisenberg", [(verify, "heisenberg_residual", _residual_without_one)]),
    "vacuum": ("heisenberg", LOWER_PLUS_ONE),
    "[J0,J+]=+J+": ("sl2", SWAPPED_COMMUTATOR),
    "[J0,J-]=-J-": ("sl2", SWAPPED_COMMUTATOR),
    "[J+,J-]=-2J0": ("sl2", SWAPPED_COMMUTATOR),
    "q(J0.J-)-(J-.J0)=-J-": ("sl2", [(FockPoly, "__mul__", _mul_plus_identity)]),
    "casimir": ("casimir", [(verify, "casimir_value", _casimir_plus_one)]),
    "classic-diff": ("spectrum", [(verify, "build_hf", _constant_plus_one)]),
    "deformed-qdil": ("spectrum", QDIL_WITHOUT_BRACKETS),
    "diff-vs-fd": ("isospectral", FD_STEP_SIGN),
    "hg-vs-hf": ("isospectral", [(verify, "build_hg", _constant_plus_one)]),
    "hg-shifted-laguerre": ("isospectral", [(verify, "build_hg", _extra_b_term)]),
    "four-point": ("isospectral", EXTRA_OFFSET),
    "three-point": ("isospectral", EXTRA_OFFSET),
    "dilatation": ("isospectral", EXTRA_OFFSET),
    "classic-vs-deformed": ("isospectral", QDIL_WITHOUT_BRACKETS),
    "matrix-transplant": ("transplant", FD_STEP_SIGN),
    "modified-laguerre": ("transplant", [(verify, "basis_transplant", _source_step_sign)]),
    "stencil-eigenfunction": ("transplant", EXTRA_OFFSET),
    "levels": ("kratzer", [(verify, "kratzer_eigencheck", _plus_one)]),
    "gauge": ("kratzer", [(verify, "gauge_conjugate_check", _plus_one)]),
    "parity": ("parity", [(verify, "parity_relation_ratio", _plus_one)]),
    "scaled": ("qpencil", REVERSED_DIRECTION),
    "scaled-reciprocal": ("qpencil", REVERSED_DIRECTION),
    "coincide-at-q=1": ("qpencil", [(verify, "pencil_solve", _levels_plus_one)]),
}


def _family(case_name: str) -> str:
    """A case name up to its first space; bracket and vacuum cases without the realization."""
    return re.match(r"bracket|vacuum|[^ ]+", case_name).group()


def _inject(monkeypatch, family: str) -> str:
    suite, patches = FAULTS[family]
    for where, name, wrap in patches:
        monkeypatch.setattr(where, name, wrap(getattr(where, name)))
    return suite


def test_every_family_has_a_fault():
    assert {_family(c.case) for report in verify.run_all() for c in report.cases} == set(FAULTS)


@pytest.mark.parametrize("family", FAULTS)
def test_family_fails_under_its_fault(monkeypatch, family):
    """No verdict holds by construction: one fault fails every case of its family."""
    suite = _inject(monkeypatch, family)
    cases = [c for c in run_suite(suite).cases if _family(c.case) == family]
    assert cases
    assert [c.case for c in cases if c.passed] == []


def test_verify_all_exits_1_under_a_fault(monkeypatch, tmp_path):
    _inject(monkeypatch, "parity")
    out = tmp_path / "verify.json"
    assert main(["verify", "all", "--out", str(out)]) == 1
    assert json.loads(out.read_text(encoding="utf-8"))["passed"] is False
