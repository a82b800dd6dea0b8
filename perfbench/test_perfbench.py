"""Tests of the benchmark itself: seeded inputs, checkers, self time, speed scaling.

    python3 -m pytest perfbench/test_perfbench.py

Program outputs come from `python -m fockosc` subprocesses, so no fockosc
code runs in the process whose int/str limit the checker lifts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import check
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent


def fockosc(*argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "fockosc", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    return done.stdout


def spectrum_case(**params):
    params = {"command": "spectrum", "op": "hf", "p": "0", "B": "0", "delta": "1",
              "q": "1", "rhs": "plain", "s": None} | params
    return params, fockosc(*workloads.spectrum_argv(params))


SPECTRA = {
    "fd-hg": dict(realization="fd", op="hg", p="5/2", B="-2/3", delta="-1/3", N=6),
    "diff-scaled": dict(realization="diff", op="hg", p="1", B="2", N=5, rhs="scaled", s=2),
    "qdil-scaled": dict(realization="qdil", q="3/7", N=6, rhs="scaled", s=-1),
    "qdil-plain": dict(realization="qdil", op="hg", q="-7/2", B="1/3", N=7),
}


# -- seeded generators --------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    first = workloads.generate(name, 11)
    assert json.dumps(first) == json.dumps(workloads.generate(name, 11))
    if name != "verify-all":
        assert json.dumps(first) != json.dumps(workloads.generate(name, 12))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_no_repeated_inputs(name):
    for seed in range(20):
        batch = [json.dumps({k: v for k, v in item.items() if k != "id"}, sort_keys=True)
                 for item in workloads.generate(name, seed)]
        assert len(set(batch)) == len(batch)


def test_rationals_come_from_their_pairs():
    def pair(x):
        r, s = sorted((abs(x.numerator), x.denominator), reverse=True)
        return r, s

    for seed in range(20):
        for item in workloads.generate("spectra-deformed", seed):
            assert pair(check.rat(item["params"]["q"])) in workloads.Q_PAIRS
        for item in workloads.generate("spectra-flat", seed):
            params = item["params"]
            assert int(params["p"]) in workloads.P_VALUES
            if params["realization"] == "fd":
                assert pair(check.rat(params["delta"])) in workloads.FLAT_PAIRS


# -- checkers -------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(SPECTRA))
def test_spectrum_checker_accepts_program_output(case):
    params, text = spectrum_case(**SPECTRA[case])
    assert check.check_spectrum(params, text) is None


@pytest.mark.parametrize("case", sorted(SPECTRA))
def test_spectrum_checker_rejects_perturbed_eigenvector(case):
    params, text = spectrum_case(**SPECTRA[case])
    report = json.loads(text)
    coeffs = report["levels"][3]["coeffs"]
    coeffs[1] = str(check.rat(coeffs[1]) + check.rat("1/1000"))
    assert "residual" in check.check_spectrum(params, json.dumps(report))


@pytest.mark.parametrize("case", sorted(SPECTRA))
def test_spectrum_checker_rejects_wrong_eigenvalue(case):
    params, text = spectrum_case(**SPECTRA[case])
    report = json.loads(text)
    report["levels"][2]["E"] = str(check.rat(report["levels"][2]["E"]) - 4)
    assert "closed form" in check.check_spectrum(params, json.dumps(report))


def test_spectrum_checker_rejects_wrong_request():
    params, text = spectrum_case(**SPECTRA["qdil-plain"])
    assert check.check_spectrum(params | {"q": "-7/3"}, text) is not None
    assert check.check_spectrum(params | {"N": 6}, text) is not None


def test_verify_checker_rejects_truncated_report():
    text = fockosc("verify", "all")
    assert check.check_verify(text) is None
    assert check.check_verify(text[: len(text) // 2]) is not None
    assert check.check_verify(text.replace('"passed": true', '"passed": false', 1)) is not None


@pytest.mark.parametrize("op,realization", [("hf", "fd"), ("hg", "fd"), ("hf", "qdil"), ("hg", "qdil")])
def test_stencil_checker(op, realization):
    params = {"command": "stencil", "op": op, "realization": realization, "p": "3/2",
              "B": "-5/7", "delta": "-2/3", "q": "7/5"}
    text = fockosc(*workloads.stencil_argv(params))
    assert check.check_stencil_report(params, text) is None
    report = json.loads(text)
    coeff = report["stencil"]["terms"][0]["coeff"]
    power = next(iter(coeff))
    coeff[power] = str(check.rat(coeff[power]) * 2)
    assert check.check_stencil_report(params, json.dumps(report)) is not None


def test_product_checker_rejects_a_wrong_word():
    item = {"q": "3/7", "x": [[0, 1, "1"]], "y": [[1, 0, "1"]], "lam": "3/7"}
    # a*b = q b a + 1, so the q-bracket with lam = q is the identity.
    right = {"product": [[0, 0, "1"], [1, 1, "3/7"]], "bracket": [[0, 0, "1"]]}
    assert check.check_product(item, right) is None
    assert check.check_product(item, right | {"product": [[0, 0, "1"], [1, 1, "1"]]}) is not None
    assert check.check_product(item, right | {"bracket": [[0, 0, "1"], [2, 2, "1"]]}) is not None


def test_casimir_checker():
    assert check.check_casimir({"n": "5/2"}, "-45/16") is None
    assert check.check_casimir({"n": "5/2"}, "-45/17") is not None


def test_int_limit_is_restored():
    before = sys.get_int_max_str_digits()
    params, text = spectrum_case(**SPECTRA["qdil-scaled"])
    check.check_spectrum(params, text)
    assert sys.get_int_max_str_digits() == before


# -- self time --------------------------------------------------------------------


def test_self_time_on_synthetic_tree():
    # root [0, 100] holds A [10, 40] (which holds C [15, 25]) and B [50, 60].
    tree = [
        ["root", 0, 100, -1, False],
        ["A", 10, 40, 0, False],
        ["C", 15, 25, 1, True],
        ["B", 50, 60, 0, False],
    ]
    assert spans.self_times(tree) == [60, 20, 10, 10]
    summary = spans.summarize(tree)
    assert summary["root"]["self_s"] * 1e9 == pytest.approx(60)
    assert summary["A"]["total_s"] * 1e9 == pytest.approx(30)
    assert summary["C"]["errors"] == 1
    assert sum(row["self_s"] for row in summary.values()) * 1e9 == pytest.approx(100)


def test_self_time_clips_overlapping_children():
    tree = [["p", 0, 10, -1, False], ["c1", 2, 6, 0, False], ["c2", 4, 12, 0, False]]
    assert spans.self_times(tree)[0] == 2


def test_error_counts_once_per_layer():
    tree = [
        ["cli", 0, 10, -1, True],
        ["spectral.reference", 1, 5, 0, True],
        ["spectral.reference", 2, 3, 1, True],
    ]
    summary = spans.summarize(tree)
    assert summary["spectral.reference"]["errors"] == 1
    assert summary["cli"]["errors"] == 1


# -- host-speed scaling -------------------------------------------------------------


def test_speed_factor_averages_nearby_speeds():
    ref = speed.REFERENCE_S
    # at 10.0 the host runs at reference speed, at 10.1 at half speed; 20.0 is too far
    samples = [(10.0, ref), (10.1, 2 * ref), (20.0, 4 * ref)]
    assert speed.factor(samples, 10.0, 10.05) == pytest.approx(0.75)
    assert speed.factor(samples, 19.99, 20.0) == pytest.approx(0.25)


def test_speed_factor_falls_back_to_nearest_samples():
    ref = speed.REFERENCE_S
    samples = [(0.0, ref), (5.0, 2 * ref), (9.0, 4 * ref)]
    assert speed.factor(samples, 6.0, 6.2) == pytest.approx((0.5 + 0.25) / 2)


def test_judge_counts_items_not_runs():
    import run

    items = [{"id": 0, "kind": "casimir", "n": "5/2"}, {"id": 1, "kind": "casimir", "n": "3"}]
    records = [{"id": 0, "status": None, "output": "-45/16", "digest": "d"},
               {"id": 0, "status": None, "digest": "d"},
               {"id": 1, "status": "ValueError: boom", "digest": "e"},
               {"id": 1, "status": "ValueError: boom", "digest": "e"}]
    attempted, failures, wrong = run.judge(items, records)
    assert (attempted, len(failures), wrong) == (2, 1, [])
    records[1]["digest"] = "other"
    assert len(run.judge(items, records)[2]) == 1
