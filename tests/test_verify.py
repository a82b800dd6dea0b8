import pytest

from fockosc import verify
from fockosc.algebra import OperatorMatrix, Poly
from fockosc.fock import build_hf
from fockosc.realize import Differential, FiniteDifference, realize_matrix
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
