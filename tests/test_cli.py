import ast
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fockosc
from fockosc import cli, verify
from fockosc.cli import _over_budget, build_parser, main


def run_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


# `spectrum` reports pinned byte for byte at p = 5/2 and N = 16: both
# operators (hg with B = -2/3) under diff, fd(1/3) and qdil(7/6), plain, and
# for the monomial basis also scaled with s = -1 and s = 2.
SPECTRUM_OPS = {"hf": ["--op", "hf"], "hg": ["--op", "hg", "--B", "-2/3"]}
SPECTRUM_REALIZATIONS = {
    "diff": ["--realization", "diff"],
    "fd": ["--realization", "fd", "--delta", "1/3"],
    "qdil": ["--realization", "qdil", "--q", "7/6"],
}
SPECTRUM_RHS = {"plain": [], "s-1": ["--rhs", "scaled", "--s", "-1"], "s2": ["--rhs", "scaled", "--s", "2"]}
SPECTRUM_PINS = {
    ("hf", "diff", "plain", "json"):
        "df63892ad1ee9b3a33a374887e3ab1f0dce655e74d9f488a1ec78abbf10e162f",
    ("hf", "diff", "plain", "csv"):
        "bad0adfdc86ca1c9a3a268bbf8306c0619ddf445f6e24bb916eb945e8347b1b0",
    ("hf", "diff", "s-1", "json"):
        "e45603477d5c610da755ecb6025a9be770dd50f198c6a796161602e9a3baf6d3",
    ("hf", "diff", "s-1", "csv"):
        "bad0adfdc86ca1c9a3a268bbf8306c0619ddf445f6e24bb916eb945e8347b1b0",
    ("hf", "diff", "s2", "json"):
        "78da29355e2a67e3d772e88659feefa8ca161a37b37b5d2dccfe122cc073b6e5",
    ("hf", "diff", "s2", "csv"):
        "bad0adfdc86ca1c9a3a268bbf8306c0619ddf445f6e24bb916eb945e8347b1b0",
    ("hf", "fd", "plain", "json"):
        "859eaa058789ef0d451a163d9ce8364aadafe65f566bc90c487feeccaeac0b26",
    ("hf", "fd", "plain", "csv"):
        "bad0adfdc86ca1c9a3a268bbf8306c0619ddf445f6e24bb916eb945e8347b1b0",
    ("hf", "qdil", "plain", "json"):
        "d3e4a1db9802ba1802fef27222c034e69e5395178ae267def27a3e64d85909e6",
    ("hf", "qdil", "plain", "csv"):
        "dbb184b5f60325991157c67b84cf1f323d3dac291af1e40383fdf0492dac3708",
    ("hf", "qdil", "s-1", "json"):
        "ffd34202e155db78e2b1c932b4c9ffbab6d5fd4be6ec0542cd09a0cf3c98a813",
    ("hf", "qdil", "s-1", "csv"):
        "20e3f7115cf8e7d7c9d4ad78e34c383c2e555745ee04914772ae7a0893c7b4f6",
    ("hf", "qdil", "s2", "json"):
        "8b397a43b1216102de3c2af0ebef5f47427dded844a28dbaf94a238f63a551d5",
    ("hf", "qdil", "s2", "csv"):
        "44bd2c2e3ef607d24db36bc370d2c7f2f2a9f72ab6722f27e11d05f246e95a50",
    ("hg", "diff", "plain", "json"):
        "80031df8395ad440ff3bf0e932ff993d0adcdcda97cde6be2a4270297d86e168",
    ("hg", "diff", "plain", "csv"):
        "216c72a9f3d28754e8ddf30396706c1f1f225a8961490dff24a2264e36829a39",
    ("hg", "diff", "s-1", "json"):
        "a08bfaf1ff159fcfea5b41e27f2a54eb0018b694f8f4c93388f4b7b4f40c937c",
    ("hg", "diff", "s-1", "csv"):
        "216c72a9f3d28754e8ddf30396706c1f1f225a8961490dff24a2264e36829a39",
    ("hg", "diff", "s2", "json"):
        "bee7c771792975ab28f93b885ac3d8c24ed62caa23a4f23085a85e21b956dde7",
    ("hg", "diff", "s2", "csv"):
        "216c72a9f3d28754e8ddf30396706c1f1f225a8961490dff24a2264e36829a39",
    ("hg", "fd", "plain", "json"):
        "39423c1b15daad7e0982964e22937f98735d897575178bc616931bd6ebec9ed8",
    ("hg", "fd", "plain", "csv"):
        "216c72a9f3d28754e8ddf30396706c1f1f225a8961490dff24a2264e36829a39",
    ("hg", "qdil", "plain", "json"):
        "3dbd682ad4250b1049d57d0adedd1ef3aa54c529a67e4a75825e882c3e9b0553",
    ("hg", "qdil", "plain", "csv"):
        "1eaea2294b80b5fc31f449c31455753bc57f7e64ef9951d2d5392b0d5c2b56a9",
    ("hg", "qdil", "s-1", "json"):
        "1e79b080b113046b2441e227d3788bf5a02769dcf6c6d3c6c22c494c2d6d2be8",
    ("hg", "qdil", "s-1", "csv"):
        "ea756e0f25055f7c1b9f09d69073b5127491247b18853fd0e76429c5c8580b09",
    ("hg", "qdil", "s2", "json"):
        "e84011208f99d0c7f36d3fbcedb4adc5b1e71f059afea9e45cee36d2d1d890ee",
    ("hg", "qdil", "s2", "csv"):
        "53e8c3a6847bf551291bc7216fe215f5ddbe897e34b2cb6a84ee785dd65781ea",
}


class TestSpectrumCommand:
    def test_classic_small(self, tmp_path):
        code, data = run_json(
            ["spectrum", "--op", "hf", "--realization", "diff", "--p", "0", "--N", "5"],
            tmp_path,
        )
        assert code == 0
        assert [lvl["E"] for lvl in data["levels"]] == ["0", "-4", "-8", "-12", "-16", "-20"]
        assert data["reference"]["kind"] == "classic"
        assert data["reference"]["match"] is True
        assert data["basis"] == {"kind": "monomial"}

    def test_deformed_small(self, tmp_path):
        code, data = run_json(
            ["spectrum", "--op", "hf", "--realization", "qdil", "--q", "2", "--N", "3"],
            tmp_path,
        )
        assert code == 0
        assert [lvl["E"] for lvl in data["levels"]] == ["0", "-4", "-12", "-28"]
        assert data["reference"]["kind"] == "qplain"

    def test_degenerate_exit_code(self, tmp_path):
        code, data = run_json(
            ["spectrum", "--op", "hf", "--realization", "qdil", "--q", "-1", "--N", "4"],
            tmp_path,
        )
        assert code == 1
        assert data["error"]["kind"] == "degenerate-spectrum"

    def test_degenerate_report_follows_csv_format(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main(
            ["spectrum", "--realization", "qdil", "--q", "-1", "--N", "3",
             "--format", "csv", "--out", str(out)]
        )
        assert code == 1
        rows = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
        assert rows == [
            {"error": "degenerate-spectrum", "detail": "eigenvalue 0 occurs at levels (0, 2)"}
        ]

    def test_fd_levels_match_diff(self, tmp_path):
        _, fd = run_json(
            ["spectrum", "--realization", "fd", "--delta", "1/2", "--p", "1", "--N", "8"],
            tmp_path,
            "fd.json",
        )
        _, diff = run_json(
            ["spectrum", "--realization", "diff", "--p", "1", "--N", "8"],
            tmp_path,
            "diff.json",
        )
        assert [l["E"] for l in fd["levels"]] == [l["E"] for l in diff["levels"]]
        assert fd["basis"] == {"kind": "quasimonomial", "delta": "1/2"}

    @pytest.mark.parametrize(
        "realization, s, kind, levels",
        [
            # -4 q^n {n} at q = 2: 0, -8, -48, -224, -960
            (["qdil", "--q", "2"], "-1", "qscaled1", ["0", "-8", "-48", "-224", "-960"]),
            # -4 q^2n {n} at q = 2: 0, -16, -192, -1792, -15360
            (["qdil", "--q", "2"], "-2", "qscaled2", ["0", "-16", "-192", "-1792", "-15360"]),
            # At q = 1 every scaled family is -4n.
            (["diff"], "-1", "classic", ["0", "-4", "-8", "-12", "-16"]),
        ],
        ids=["qscaled1", "qscaled2", "reciprocal-at-q1"],
    )
    def test_scaled_rhs(self, tmp_path, realization, s, kind, levels):
        code, data = run_json(
            [
                "spectrum", "--realization", *realization, "--N", "4",
                "--rhs", "scaled", "--s", s,
            ],
            tmp_path,
        )
        assert code == 0
        assert data["reference"]["kind"] == kind
        assert [lvl["E"] for lvl in data["levels"]] == levels
        assert data["reference"]["values"] == levels

    def test_scaled_reciprocal_direction(self, tmp_path):
        code, data = run_json(
            [
                "spectrum", "--realization", "qdil", "--q", "2", "--N", "3",
                "--rhs", "scaled", "--s", "1",
            ],
            tmp_path,
        )
        assert code == 0
        assert data["reference"]["kind"] == "reciprocal(s=1)"
        # -4 {n} q^-n at q = 2: 0, -2, -3, -7/2
        assert [lvl["E"] for lvl in data["levels"]] == ["0", "-2", "-3", "-7/2"]

    def test_scaled_rhs_rejects_fd(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--realization", "fd", "--rhs", "scaled"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fockosc spectrum ")
        assert "fockosc spectrum: error: scaled right-hand sides need the monomial basis" in err

    def test_bad_rational_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--realization", "diff", "--p", "zebra"])
        assert info.value.code == 2

    @pytest.mark.parametrize("n", ["-1", "129"])
    def test_flag_dimension_out_of_range_is_usage_error(self, monkeypatch, capsys, n):
        monkeypatch.setattr("fockosc.cli.number_matrix", self._no_matrix)
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--realization", "diff", "--N", n])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fockosc spectrum ")
        assert f"fockosc spectrum: error: --N must be between 0 and 128, got {n}" in err

    def test_flag_dimension_cap_is_accepted(self, monkeypatch):
        monkeypatch.setattr("fockosc.cli.number_matrix", self._no_matrix)
        with pytest.raises(AssertionError, match="matrix built at N = 128"):
            main(["spectrum", "--realization", "diff", "--N", "128"])

    @staticmethod
    def _no_matrix(operator, n, basis):
        raise AssertionError(f"matrix built at N = {n}")

    @pytest.mark.parametrize(
        "args, option",
        [
            (["spectrum", "--realization", "diff", "--p", "1e5000", "--N", "2"], "--p"),
            (["stencil", "--realization", "qdil", "--q", "1e5000"], "--q"),
            (["stencil", "--realization", "fd", "--delta", "1e5000"], "--delta"),
            (["spectrum", "--realization", "fd", "--delta", "1e-5000", "--N", "1"], "--delta"),
            (["spectrum", "--realization", "qdil", "--q", "1e60", "--N", "128"], "--q"),
            (["spectrum", "--realization", "diff", "--op", "hg", "--B", "-18446744073709551616"], "--B"),
            (["spectrum", "--realization", "diff", "--p", "1/18446744073709551616"], "--p"),
            (["spectrum", "--realization", "diff", "--p", "0e1_0000_0000"], "--p"),
            (["spectrum", "--realization", "diff", "--p", "1." + "0" * 5000], "--p"),
            (["spectrum", "--realization", "diff", "--p", "1" * 5000], "--p"),
        ],
        ids=[
            "p", "q", "delta", "delta-small", "q-N128", "B-negative", "denominator", "exponent",
            "long-decimal", "long-integer",
        ],
    )
    def test_oversized_rational_is_usage_error(self, monkeypatch, capsys, args, option):
        monkeypatch.setattr("fockosc.cli.number_matrix", self._no_matrix)
        monkeypatch.setattr("fockosc.cli.stencil_of", lambda *_: pytest.fail("stencil built"))
        with pytest.raises(SystemExit) as info:
            main(args)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {option}: " in err
        assert "numerator and denominator of at most 2^64 - 1" in err
        assert "Traceback" not in err
        # A long literal is quoted by a short prefix, not echoed whole.
        assert not any(len(arg) > 40 and arg[:41] in err for arg in args)

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--p", "18446744073709551615"),
            ("--B", "-18446744073709551615"),
            ("--delta", "1/18446744073709551615"),
            ("--q", "-18446744073709551615/18446744073709551614"),
            ("--p", "1e19"),
        ],
    )
    def test_height_cap_is_accepted(self, monkeypatch, option, value):
        monkeypatch.setattr("fockosc.cli.number_matrix", self._no_matrix)
        realization = "qdil" if option == "--q" else "fd"
        with pytest.raises(AssertionError, match="matrix built at N = 1$"):
            main(["spectrum", "--realization", realization, "--op", "hg", option, value, "--N", "1"])

    @pytest.mark.parametrize("delta", ["18446744073709551615", "1/18446744073709551615"])
    def test_fd_at_the_height_cap_is_under_the_budget(self, monkeypatch, delta):
        # The budget reads the realization's q, and fd has q = 1 whatever its step.
        monkeypatch.setattr("fockosc.cli.number_matrix", self._no_matrix)
        with pytest.raises(AssertionError, match="matrix built at N = 128$"):
            main(["spectrum", "--realization", "fd", "--delta", delta, "--N", "128"])

    @pytest.mark.parametrize(
        "q, n",
        [("7/6", 128), ("-6/7", 128), ("18446744073709551615", 26), ("18446744073709551615", 0)],
    )
    def test_qdil_budget_is_accepted(self, monkeypatch, q, n):
        monkeypatch.setattr("fockosc.cli.number_matrix", self._no_matrix)
        with pytest.raises(AssertionError, match=f"matrix built at N = {n}$"):
            main(["spectrum", "--realization", "qdil", "--q", q, "--N", str(n)])

    def test_qdil_budget_check_is_exact(self):
        # Each row's verdict is written out, not computed by the check's own power.
        pairs = [(7, 128, False), (8, 128, True), (2**64 - 1, 26, False), (2**64 - 1, 27, True)]
        pairs += [(1, 128, False), (2**64 - 1, 0, False), (2**64 - 1, 128, True)]
        # Around the largest height accepted at each N that divides 128.
        pairs += [(7 ** (128 // n) ** 2 + k, n, k > 0) for n in (1, 2, 4, 8, 16, 32, 64) for k in (-1, 0, 1)]
        for height, n, over in pairs:
            assert _over_budget(height, n) is over, (height, n)

    @pytest.mark.parametrize(
        "q, n",
        [("1000/999", 128), ("-7/8", 128), ("18446744073709551615", 27), ("4294967295", 128)],
    )
    def test_qdil_over_budget_is_usage_error(self, monkeypatch, capsys, q, n):
        monkeypatch.setattr("fockosc.cli.number_matrix", self._no_matrix)
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--realization", "qdil", "--q", q, "--N", str(n)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fockosc spectrum ")
        assert f"fockosc spectrum: error: --q {q} at --N {n} is over the budget." in err
        assert "N^2 log2 H(q) <= 128^2 log2 7" in err

    def test_invalid_q_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--realization", "qdil", "--q", "1"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fockosc spectrum ")
        assert "fockosc spectrum: error: dilatation parameter must differ from 0 and 1" in err

    @pytest.mark.parametrize(
        "args, option, value",
        [
            (["spectrum", "--realization", "diff", "--op", "hg", "--N", "2"], "--B", "-2/3"),
            (["spectrum", "--realization", "fd", "--N", "3"], "--delta", "-1/3"),
            (["stencil", "--realization", "qdil"], "--q", "-1/2"),
            (["stencil", "--realization", "fd", "--op", "hg"], "--p", "-1/2"),
            (["stencil", "--realization", "fd"], "--del", "-2/3"),
        ],
        ids=["B", "delta", "q", "p", "delta-prefix"],
    )
    def test_negative_rational_as_separate_argument(self, tmp_path, args, option, value):
        attached, separate = tmp_path / "attached.json", tmp_path / "separate.json"
        assert main(args + [f"{option}={value}", "--out", str(attached)]) == 0
        assert main(args + [option, value, "--out", str(separate)]) == 0
        assert separate.read_bytes() == attached.read_bytes()

    @pytest.mark.parametrize(
        "args, where",
        [
            (["verify", "casimir"], lambda tmp: tmp / "missing" / "r.json"),
            (["spectrum", "--realization", "diff", "--N", "2"], lambda tmp: tmp),
        ],
        ids=["missing-directory", "is-a-directory"],
    )
    def test_unwritable_out_is_usage_error(self, monkeypatch, capsys, tmp_path, args, where):
        # The path is checked before anything is computed.
        for target in ("fockosc.cli.number_matrix", "fockosc.verify.run_suite"):
            monkeypatch.setattr(target, lambda *_, n=target: pytest.fail(f"{n} ran"))
        out = str(where(tmp_path))
        with pytest.raises(SystemExit) as info:
            main(args + ["--out", out])
        assert info.value.code == 2
        assert f"fockosc {args[0]}: error: cannot write --out {out}: " in capsys.readouterr().err

    @pytest.mark.parametrize("key", list(SPECTRUM_PINS), ids="-".join)
    def test_report_pinned(self, tmp_path, key):
        op, realization, rhs, fmt = key
        out = tmp_path / f"out.{fmt}"
        args = [*SPECTRUM_OPS[op], "--p", "5/2", *SPECTRUM_REALIZATIONS[realization], "--N", "16"]
        assert main(["spectrum", *args, *SPECTRUM_RHS[rhs], "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SPECTRUM_PINS[key]

    @pytest.mark.parametrize(
        "args, existing",
        [
            (["spectrum", "--realization", "diff", "--N", "2"], None),
            (["spectrum", "--realization", "fd", "--delta", "0"], None),
            (["spectrum", "--realization", "diff", "--N", "2"], b"an earlier report\n"),
        ],
        ids=["crash", "usage-error", "existing-file-crash"],
    )
    def test_failed_run_leaves_no_new_out_file(self, monkeypatch, tmp_path, args, existing):
        monkeypatch.setattr("fockosc.cli.number_matrix", self._no_matrix)
        out = tmp_path / "r.json"
        if existing is not None:
            out.write_bytes(existing)
        with pytest.raises((AssertionError, SystemExit)):
            main(args + ["--out", str(out)])
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == existing


class TestStencilCommand:
    def test_three_point(self, tmp_path):
        code, data = run_json(
            ["stencil", "--op", "hf", "--realization", "fd", "--delta", "1", "--p", "0"],
            tmp_path,
        )
        assert code == 0
        stencil = data["stencil"]
        assert stencil["mode"] == "shift"
        assert stencil["points"] == 3
        offsets = [t["offset"] for t in stencil["terms"]]
        assert offsets == [-1, 0, 1]
        coeffs = {t["offset"]: t["coeff"] for t in stencil["terms"]}
        assert coeffs[-1] == {"1": "8"}
        assert coeffs[0] == {"0": "-2", "1": "-12"}
        assert coeffs[1] == {"0": "2", "1": "4"}

    def test_four_point(self, tmp_path):
        code, data = run_json(
            ["stencil", "--op", "hg", "--realization", "fd", "--B", "1"],
            tmp_path,
        )
        assert code == 0
        assert [t["offset"] for t in data["stencil"]["terms"]] == [-1, 0, 1, 2]

    def test_dilatation_points(self, tmp_path):
        code, data = run_json(
            ["stencil", "--op", "hf", "--realization", "qdil", "--q", "2"],
            tmp_path,
        )
        assert code == 0
        assert data["stencil"]["mode"] == "scale"
        assert [t["offset"] for t in data["stencil"]["terms"]] == [0, 1, 2]

    @pytest.mark.parametrize(
        "args, fmt, digest",
        [
            (["--op", "hf", "--realization", "fd", "--delta", "1/3"], "json",
             "6d7c94efa8e8ab73c55e7e49346d398b1dc1b7ab0e4b492adac868fdb33fa222"),
            (["--op", "hf", "--realization", "fd", "--delta", "1/3"], "csv",
             "c9f5e26bde085be4f1c69338f170f03d17c7de220da305169d2c7d3483e89b82"),
            (["--op", "hg", "--B", "-2/3", "--realization", "fd", "--delta", "1/3"], "json",
             "eea63852dbc65a1ab896be9dc5b7ad180fdebcb96d32aa7cda129ccf94390c40"),
            (["--op", "hg", "--B", "-2/3", "--realization", "fd", "--delta", "1/3"], "csv",
             "b3f999b39be4547010fcaaba996c00a4b2f20d33fa99e80ecc5baf0b03508f31"),
            (["--op", "hf", "--realization", "qdil", "--q", "7/6"], "json",
             "c0d3531fc5ab7d26a618e9770780137fe77a082a5136d3f71e16dcb35ca60138"),
            (["--op", "hf", "--realization", "qdil", "--q", "7/6"], "csv",
             "e66ccaf62105c99103c29c95c62046525db61efa7af283d1c3971ea549c06088"),
            (["--op", "hg", "--B", "-2/3", "--realization", "qdil", "--q", "7/6"], "json",
             "f339d14776924c3447712417e3f69a3b5334767bf8a83f6ee3a409a7b81ec0e1"),
            (["--op", "hg", "--B", "-2/3", "--realization", "qdil", "--q", "7/6"], "csv",
             "0feb1d1a258f7a18b87ca69cd1a6eb9fe9b34181d69f15ef2239c658249a36e3"),
        ],
        ids=["hf-fd-json", "hf-fd-csv", "hg-fd-json", "hg-fd-csv",
             "hf-qdil-json", "hf-qdil-csv", "hg-qdil-json", "hg-qdil-csv"],
    )
    def test_report_pinned(self, tmp_path, args, fmt, digest):
        out = tmp_path / f"out.{fmt}"
        assert main(["stencil", "--p", "5/2", *args, "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_differential_rejected(self):
        with pytest.raises(SystemExit) as info:
            main(["stencil", "--realization", "diff"])
        assert info.value.code == 2


# `verify <suite>` reports pinned byte for byte, (JSON, CSV) per suite.
VERIFY_SUITE_PINS = {
    "heisenberg": (
        "87c05e885d1c8cabaa56b5d5c509c138c8edb38b2cf8e9a4f7d11ce6f78f81b0",
        "d3504bf1de1ebf001eb32923d26861beba53a634bde5bce726f855dbb0589850",
    ),
    "sl2": (
        "d57b23e2e8a8441328bd2dadbe5875a4d9018fbbc4c635072e8cbb42c6abeb35",
        "c6a31ad52d5f448a227c2b6d63c7bd52dd35f7c4df64bd729c4adf6a29e6527e",
    ),
    "casimir": (
        "05b8b2c4f4f26b63e83ff325e912f45a9e9e2e4e6450889011223de1728f6a39",
        "8380ce34de2c751b77fb06b6209ef5dc430fa4cadd0804a10811022deb4ea7bb",
    ),
    "spectrum": (
        "bba67d0ab841e6d7d281a9834e01cb56c74edbd47487e6c02c08c84edecbcebc",
        "006b114a67bdd191fb1d3956674ab7ae9b6a9aecbe8f071adb71755d544b399e",
    ),
    "isospectral": (
        "6023d344edce253a5c8d4be1c4671b519b296e142052ef31116c456ff85d0999",
        "c8fc8ef2e3262e22d3b96f3e3d1101a2773f0ee337f3434f7c2fe706b0a51345",
    ),
    "transplant": (
        "666cb5faa3b294311ed3a557576bcad5a6d2368cad879c382e832cc2fbab18fe",
        "62a5efac04591a262fd58de6beae27d9c84ea6c82cb9a11bdd46d774d729e9a4",
    ),
    "kratzer": (
        "2c8f495bda679be298d5b44d3084c169efab39cfcef6a9b1f984d813b73a7e8e",
        "4c5632a62c4e414d251f153331e6f02e38b7d67390e8a1195fffe20132c13050",
    ),
    "parity": (
        "0a6f656a0db48e3b4464b89ded399b6924641d680ec882f237af1f573dd5b799",
        "fbb994293238805b9b13b68c0dcbacca057a2b90aea2612d4dd64be3407c880d",
    ),
    "qpencil": (
        "489aeec8cda0dcc55ffa88896ffd24d5fd6623490ca889acd3b614587b2e580c",
        "747318361c937707b6a8d5d9289c0622da5e74a61de85d8730ecc651336d39c2",
    ),
}


class TestVerifyCommand:
    def test_casimir_suite(self, tmp_path):
        code, data = run_json(["verify", "casimir"], tmp_path)
        assert code == 0
        assert data["suite"] == "casimir"
        assert len(data["cases"]) == 9
        assert all(c["pass"] for c in data["cases"])

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "nonsense"])
        assert info.value.code == 2

    def test_all_passes_and_carries_convention_notes(self, tmp_path):
        code, data = run_json(["verify", "all"], tmp_path)
        assert code == 0
        # The report is pinned byte for byte (the digest perfbench/check.py enforces).
        digest = hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest()
        assert digest == "eaf0fba7baf3ece9d35d96efa5f82bcc4ed001a6a7a395e133d392218c8dfb9c"
        assert data["passed"] is True
        note_ids = {
            note["id"] for suite in data["suites"] for note in suite["notes"]
        }
        assert {"dilatation-sign", "four-point-constant", "scale-direction"} <= note_ids

    def test_all_csv_pinned(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["verify", "all", "--format", "csv", "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "2b6e30e30136d8c0557ef8018fa2714427029bf37b7a6ed39e925ea54d390aeb"

    @pytest.mark.parametrize("suite", VERIFY_SUITE_PINS)
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_suite_pinned(self, tmp_path, suite, fmt):
        out = tmp_path / f"out.{fmt}"
        assert main(["verify", suite, "--format", fmt, "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == VERIFY_SUITE_PINS[suite][fmt == "csv"]

    def test_suite_names_match_verify(self):
        # The parser reads the suite names from cli, which does not import verify.
        assert cli.SUITES == tuple(verify.SUITES)

    def test_transplant_suite(self, tmp_path):
        code, data = run_json(["verify", "transplant"], tmp_path)
        assert code == 0
        assert all(c["pass"] for c in data["cases"])


class TestDeterminism:
    def test_verify_json_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "sl2", "--out", str(a)]) == 0
        assert main(["verify", "sl2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_spectrum_json_byte_identical(self, tmp_path):
        args = ["spectrum", "--realization", "qdil", "--q", "3/7", "--N", "10"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    # Usage errors, exit 1, CSV, defaults, stencils, a suite and help, in one order.
    REENTRANT_SEQUENCE = [
        ["spectrum", "--realization", "diff", "--N", "200"],
        ["spectrum", "--op", "hg", "--realization", "fd", "--delta", "-1/3", "--B", "-2/3",
         "--N", "5", "--format", "csv"],
        ["spectrum", "--realization", "diff"],
        ["stencil", "--realization", "fd", "--delta", "1/2", "--p", "3/2"],
        ["stencil", "--op", "hg", "--realization", "qdil", "--q", "7/6", "--B", "1"],
        ["verify", "casimir"],
        ["spectrum", "--realization", "qdil", "--q", "-1", "--N", "3"],
        ["spectrum", "--realization", "qdil", "--q", "3/2", "--N", "4", "--rhs", "scaled", "--s", "-2"],
        ["spectrum", "--help"],
    ]

    def test_main_is_reentrant(self, monkeypatch, capsys):
        """Commands run one after another in one process read as each run in a fresh one."""
        assert build_parser() is build_parser()
        monkeypatch.setenv("COLUMNS", "80")
        env = {**os.environ, "PYTHONPATH": str(Path(fockosc.__file__).parents[1])}
        for argv in self.REENTRANT_SEQUENCE:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            child = subprocess.run(
                [sys.executable, "-m", "fockosc", *argv], env=env, capture_output=True, text=True
            )
            assert (code, out, err) == (child.returncode, child.stdout, child.stderr), argv

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "args",
        [
            ["spectrum", "--realization", "qdil", "--q", "7/6", "--op", "hg", "--B", "-2/3", "--N", "4"],
            ["stencil", "--realization", "fd", "--delta", "1/3", "--op", "hg", "--B", "-2/3"],
            ["verify", "casimir"],
        ],
        ids=["spectrum", "stencil", "verify"],
    )
    def test_stdout_default(self, capsys, tmp_path, args, fmt):
        out = tmp_path / f"out.{fmt}"
        assert main(args + ["--format", fmt, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(args + ["--format", fmt]) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


# Runs one command in a fresh interpreter and prints its exit code and the
# modules it imported on top of the interpreter's own start.
IMPORTS_SCRIPT = """
import sys
before = set(sys.modules)
from fockosc.cli import main
code = main(sys.argv[1:])
print(repr((code, sorted(set(sys.modules) - before))))
"""
# What only `fockosc verify` or CSV output needs, and what no command needs.
COLD_IMPORTS = {"fockosc.verify", "fockosc.specfun", "csv", "dataclasses", "inspect"}


@pytest.mark.parametrize(
    "args, needed",
    [
        (["spectrum", "--realization", "diff", "--N", "2"], set()),
        (["spectrum", "--realization", "qdil", "--q", "7/6", "--rhs", "scaled"], set()),
        (["stencil", "--realization", "fd", "--op", "hg", "--B", "1"], set()),
        (["stencil", "--realization", "qdil", "--format", "csv"], {"csv"}),
        (["spectrum", "--realization", "fd", "--N", "3", "--format", "csv"], {"csv"}),
        (["verify", "casimir"], {"fockosc.verify", "fockosc.specfun"}),
    ],
    ids=["spectrum", "spectrum-qdil-scaled", "stencil", "stencil-csv", "spectrum-csv", "verify"],
)
def test_command_imports_only_what_it_needs(tmp_path, args, needed):
    env = {**os.environ, "PYTHONPATH": str(Path(fockosc.__file__).parents[1])}
    argv = [*args, "--out", str(tmp_path / "out")]
    child = subprocess.run(
        [sys.executable, "-c", IMPORTS_SCRIPT, *argv], env=env, capture_output=True, text=True, check=True
    )
    code, added = ast.literal_eval(child.stdout)
    assert code == 0
    assert set(added) & COLD_IMPORTS == needed


class TestCsvJsonEquivalence:
    def test_spectrum_levels_identical(self, tmp_path):
        args = ["spectrum", "--realization", "diff", "--p", "5/2", "--N", "6"]
        code, data = run_json(args, tmp_path)
        assert code == 0
        out_csv = tmp_path / "out.csv"
        assert main(args + ["--format", "csv", "--out", str(out_csv)]) == 0
        rows = list(csv.DictReader(io.StringIO(out_csv.read_text(encoding="utf-8"))))
        assert len(rows) == len(data["levels"])
        for row, level in zip(rows, data["levels"]):
            assert int(row["n"]) == level["n"]
            assert row["E"] == level["E"]
            assert row["coeffs"].split(" ") == level["coeffs"]
            assert row["reference"] == data["reference"]["values"][level["n"]]

    def test_verify_cases_identical(self, tmp_path):
        code, data = run_json(["verify", "parity"], tmp_path)
        assert code == 0
        out_csv = tmp_path / "out.csv"
        assert main(["verify", "parity", "--format", "csv", "--out", str(out_csv)]) == 0
        rows = list(csv.DictReader(io.StringIO(out_csv.read_text(encoding="utf-8"))))
        case_rows = [r for r in rows if r["kind"] == "case"]
        assert len(case_rows) == len(data["cases"])
        for row, case in zip(case_rows, data["cases"]):
            assert row["id"] == case["case"]
            assert row["expected"] == case["expected"]
            assert row["got"] == case["got"]
            assert json.loads(row["inputs"]) == case["inputs"]
            assert (row["pass"] == "true") == case["pass"]

    def test_stencil_terms_identical(self, tmp_path):
        args = ["stencil", "--realization", "qdil", "--q", "3/7", "--p", "1"]
        code, data = run_json(args, tmp_path)
        assert code == 0
        out_csv = tmp_path / "out.csv"
        assert main(args + ["--format", "csv", "--out", str(out_csv)]) == 0
        rows = list(csv.DictReader(io.StringIO(out_csv.read_text(encoding="utf-8"))))
        assert len(rows) == len(data["stencil"]["terms"])
        for row, term in zip(rows, data["stencil"]["terms"]):
            assert int(row["offset"]) == term["offset"]
            parsed = dict(part.split(":") for part in row["coeff"].split(" "))
            assert parsed == term["coeff"]
