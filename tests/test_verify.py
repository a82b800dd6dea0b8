import pytest

from fockosc import verify
from fockosc.fock import build_hf
from fockosc.realize import Differential, realize_matrix
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
