"""Command-line front end: spectra, stencils, and verification reports.

Each command in COMMANDS computes and returns (exit code, JSON payload)
and writes nothing; `_write` is the one writer.  It renders the payload
as JSON with sorted keys, or as CSV through the command's view in
CSV_TABLES, and sends it to --out or stdout, so repeated runs are
byte-identical.  All rationals cross this boundary as exact "num/den"
strings; no decimal conversion happens anywhere.  Exit codes: 0 all
checks pass, 1 verification failure or spectral degeneracy, 2 usage
error.  A run that stops with an error leaves no new --out file.

`build_parser` builds the parser once per process, and that parser is the
CLI's only state that lasts from one `main` call to the next: parsing never
changes it, and no result is cached, so `main` is reentrant.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import re
import sys
from fractions import Fraction

from .algebra import DegenerateSpectrumError
from .fock import FockPoly, build_hf, build_hg, number_matrix
from .realize import (
    Differential,
    FiniteDifference,
    QDilatation,
    Realization,
    stencil_of,
)
from .spectral import (
    eigensolve_flag,
    pencil_solve,
    reference_label,
    reference_spectrum,
)

# The names of verify.SUITES, in its order (a test pins the two together):
# `verify` and the special functions it checks load only when `fockosc verify` runs.
SUITES = (
    "heisenberg", "sl2", "casimir", "spectrum", "isospectral", "transplant", "kratzer", "parity", "qpencil",
)
# Largest accepted --N.  A qdil report grows like N^4; README
# "Conventions and limitations" gives its measured cost at this cap.
MAX_N = 128
# Largest numerator or denominator, in absolute value, of a rational option.
MAX_HEIGHT = 2**64 - 1
# A qdil coefficient has about N^2 log2 H(q) bits, H(q) = max(|num|, den), so
# --N and --q are bounded together, exactly: H(q)^(N^2) <= 7^(MAX_N^2).
QDIL_BUDGET = 7 ** (MAX_N * MAX_N)
# Most digits in one rational option: 640 is the lowest int-string limit an
# interpreter can be set to, so Fraction never meets that limit, and a longer
# literal is refused after one scan, with no quadratic conversion.
MAX_DIGITS = 640
LIMITS = (
    f"Rational options take at most {MAX_DIGITS} digits, a numerator and "
    "denominator of at most 2^64 - 1 in absolute value, and a decimal exponent "
    "of at most 4 digits."
)
QDIL_LIMIT = (
    f"A qdil spectrum needs N^2 log2 H(q) <= {MAX_N}^2 log2 7 (about 45996), "
    f"where H(q) = max(|numerator|, denominator)."
)
# Fraction builds 10**exponent before the height can be read.
_LONG_EXPONENT = re.compile(r"e[-+]?0*[1-9]\d{4}", re.IGNORECASE)


def _height(value: Fraction) -> int:
    return max(abs(value.numerator), value.denominator)


def _over_budget(height: int, n: int) -> bool:
    """height^(n^2) > QDIL_BUDGET, decided from bit lengths where they can decide.

    2^(b-1) <= height < 2^b for b = height.bit_length(), so the power has
    more bits than the budget when (b-1) n^2 reaches its bit length, and
    fewer when b n^2 stays under it; only between the two is it built.
    """
    bits, squares, budget_bits = height.bit_length(), n * n, QDIL_BUDGET.bit_length()
    if (bits - 1) * squares >= budget_bits:
        return True
    if bits * squares < budget_bits:
        return False
    return height**squares > QDIL_BUDGET


def _quote(text: str) -> str:
    """The literal for an error message, cut to a short prefix."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def _rational(text: str) -> Fraction:
    if sum(map(str.isdecimal, text)) > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"{_quote(text)} has more digits than allowed. {LIMITS}")
    if _LONG_EXPONENT.search(text.replace("_", "")):
        raise argparse.ArgumentTypeError(f"{_quote(text)} has a longer exponent than allowed. {LIMITS}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {_quote(text)}") from exc
    if _height(value) > MAX_HEIGHT:
        raise argparse.ArgumentTypeError(f"{_quote(text)} is over the height cap. {LIMITS}")
    return value


@contextlib.contextmanager
def _check_out(parser: argparse.ArgumentParser, out_path: str | None):
    """Exit 2 if --out cannot be opened, before any work; leave no new file if the run fails.

    Opening to append leaves an existing file as it is until the report is
    written.  A file this check created is removed if the run stops with an
    error, a usage error included.
    """
    created = bool(out_path) and not os.path.exists(out_path)
    if out_path:
        try:
            open(out_path, "a", encoding="utf-8").close()
        except OSError as exc:
            parser.error(f"cannot write --out {out_path}: {exc.strerror}")
    try:
        yield
    except BaseException:
        if created:
            os.remove(out_path)
        raise


# --realization choice -> realization built from the parsed arguments.
REALIZATIONS = {
    "diff": lambda args: Differential(),
    "fd": lambda args: FiniteDifference(args.delta),
    "qdil": lambda args: QDilatation(args.q),
}


def _build_realization(parser: argparse.ArgumentParser, args) -> Realization:
    try:
        return REALIZATIONS[args.realization](args)
    except ValueError as exc:
        parser.error(str(exc))


def _build_operator(args, realization: Realization) -> FockPoly:
    if args.op == "hf":
        return build_hf(args.p, q=realization.q)
    return build_hg(args.p, args.B, q=realization.q)


def _report_head(args, operator: FockPoly, realization: Realization) -> dict:
    """The command, operator and realization keys of every spectrum and stencil JSON report."""
    words = [{"b": k, "a": m, "coeff": str(c)} for (k, m), c in sorted(operator.terms.items())]
    described = {"name": args.op, "p": str(args.p), "words": words}
    if args.op == "hg":
        described["B"] = str(args.B)
    return {"command": args.command, "operator": described, "realization": realization.to_json()}


def cmd_spectrum(parser: argparse.ArgumentParser, args) -> tuple[int, dict]:
    if not 0 <= args.N <= MAX_N:
        parser.error(f"--N must be between 0 and {MAX_N}, got {args.N}")
    realization = _build_realization(parser, args)
    # Only a qdil q has a height above 1; diff and fd have q = 1.
    if _over_budget(_height(realization.q), args.N):
        parser.error(f"--q {realization.q} at --N {args.N} is over the budget. {QDIL_LIMIT}")
    if args.rhs == "scaled" and realization.basis.delta != 0:
        parser.error("scaled right-hand sides need the monomial basis (diff or qdil)")
    operator = _build_operator(args, realization)
    head = _report_head(args, operator, realization)
    matrix = number_matrix(operator, args.N, realization.basis)

    q = realization.q
    s = 0 if args.rhs == "plain" else args.s
    try:
        report = eigensolve_flag(matrix) if s == 0 else pencil_solve(matrix, s, q)
    except DegenerateSpectrumError as exc:
        return 1, {**head, "error": {"kind": "degenerate-spectrum", "detail": str(exc)}}

    reference = reference_spectrum(args.N + 1, q, s)
    match = list(report.eigenvalues) == reference
    return (0 if match else 1), {
        **head,
        "N": args.N,
        "rhs": {"kind": args.rhs} if s == 0 else {"kind": "scaled", "s": s},
        "basis": report.basis.to_json(),
        "levels": [
            {"n": e.level, "E": str(e.eigenvalue), "coeffs": [str(c) for c in e.eigenpoly.coeffs]}
            for e in report.entries
        ],
        "reference": {
            "kind": reference_label(q, s),
            "values": [str(v) for v in reference],
            "match": match,
        },
    }


def cmd_stencil(parser: argparse.ArgumentParser, args) -> tuple[int, dict]:
    realization = _build_realization(parser, args)
    operator = _build_operator(args, realization)
    stencil = stencil_of(operator, realization)
    terms = [
        {"offset": j, "coeff": {str(power): str(c) for power, c in coeff.terms.items()}}
        for j, coeff in stencil.terms
    ]
    described = {"mode": stencil.mode, "param": str(stencil.param), "points": len(terms), "terms": terms}
    return 0, {**_report_head(args, operator, realization), "stencil": described}


def cmd_verify(parser: argparse.ArgumentParser, args) -> tuple[int, dict]:
    from . import verify

    if args.suite != "all":
        report = verify.run_suite(args.suite)
        return (0 if report["passed"] else 1), {"command": "verify", **report}
    suites = verify.run_all()
    passed = all(r["passed"] for r in suites)
    return (0 if passed else 1), {"command": "verify", "suite": "all", "passed": passed, "suites": suites}


COMMANDS = {"spectrum": cmd_spectrum, "stencil": cmd_stencil, "verify": cmd_verify}


def _spectrum_csv(payload: dict) -> tuple[list[str], list[list[str]]]:
    if "error" in payload:
        return ["error", "detail"], [[payload["error"]["kind"], payload["error"]["detail"]]]
    # Levels run 0..N like the reference values; str(Fraction) is canonical, so E == ref is exact.
    rows = [
        [str(level["n"]), level["E"], " ".join(level["coeffs"]), ref, str(level["E"] == ref).lower()]
        for level, ref in zip(payload["levels"], payload["reference"]["values"])
    ]
    return ["n", "E", "coeffs", "reference", "match"], rows


def _stencil_csv(payload: dict) -> tuple[list[str], list[list[str]]]:
    rows = [
        [str(t["offset"]), " ".join(f"{power}:{c}" for power, c in t["coeff"].items())]
        for t in payload["stencil"]["terms"]
    ]
    return ["offset", "coeff"], rows


def _verify_csv(payload: dict) -> tuple[list[str], list[list[str]]]:
    rows = []
    for suite in payload.get("suites", [payload]):
        rows += [
            ["case", suite["suite"], c["case"], json.dumps(c["inputs"], sort_keys=True),
             c["expected"], c["got"], str(c["pass"]).lower(), ""]
            for c in suite["cases"]
        ]
        rows += [["note", suite["suite"], n["id"], "", "", "", "", n["text"]] for n in suite["notes"]]
    return ["kind", "suite", "id", "inputs", "expected", "got", "pass", "text"], rows


# Per-command CSV view of the JSON payload, keyed like COMMANDS.
CSV_TABLES = {"spectrum": _spectrum_csv, "stencil": _stencil_csv, "verify": _verify_csv}


def _write(args, payload: dict) -> None:
    """Render the payload as --format and write it to --out or stdout, the one report writer."""
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        import csv

        header, rows = CSV_TABLES[args.command](payload)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buffer.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing never changes it, and no caller may."""
    parser = argparse.ArgumentParser(
        prog="fockosc",
        description="Exact spectra of the Fock-space oscillator and its discretizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, realizations: list[str]) -> None:
        p.add_argument("--op", choices=["hf", "hg"], default="hf",
                       help="three-point (hf) or four-point (hg) operator")
        p.add_argument("--realization", choices=realizations, required=True)
        p.add_argument("--p", type=_rational, default=Fraction(0),
                       help="weight parameter (rational string, default 0)")
        p.add_argument("--B", type=_rational, default=Fraction(0),
                       help="shift coefficient of the hg operator")
        p.add_argument("--delta", type=_rational, default=Fraction(1),
                       help="finite-difference step (nonzero rational)")
        p.add_argument("--q", type=_rational, default=Fraction(2),
                       help="dilatation parameter (rational, not 0 or 1)")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    spectrum = sub.add_parser("spectrum", help="eigenvalues and eigenpolynomials",
                              epilog=f"{LIMITS} {QDIL_LIMIT}")
    add_common(spectrum, list(REALIZATIONS))
    spectrum.add_argument("--N", type=int, default=12,
                          help=f"flag dimension, 0 to {MAX_N} (default 12)")
    spectrum.add_argument("--rhs", choices=["plain", "scaled"], default="plain",
                          help="plain eigenproblem or scaled right-hand side")
    spectrum.add_argument("--s", type=int, choices=[-2, -1, 1, 2], default=-1,
                          help="scale power for --rhs scaled")

    stencil = sub.add_parser("stencil", help="explicit multi-point coefficients", epilog=LIMITS)
    add_common(stencil, ["fd", "qdil"])

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", nargs="?", default="all",
                        choices=sorted(SUITES) + ["all"])
    verify.add_argument("--format", choices=["json", "csv"], default="json")
    verify.add_argument("--out", default=None, help="output path (default stdout)")

    # Errors found after parsing are reported by the subcommand's parser, like argparse's own.
    for command in (spectrum, stencil, verify):
        command.set_defaults(command_parser=command)
    return parser


_RATIONAL_OPTIONS = ("--p", "--B", "--delta", "--q")
_NEGATIVE = re.compile(r"-\d")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Spell `--B -2/3` as `--B=-2/3`.

    argparse takes a separate argument such as `-2/3` for an option flag
    (only plain negative numbers like -1 or -0.5 pass as values), so a
    negative value that follows a rational option is attached to it.
    """
    out: list[str] = []
    for arg in argv:
        option = out[-1] if out else ""
        # argparse also accepts a unique prefix of an option, such as --del.
        takes_rational = len(option) > 2 and any(o.startswith(option) for o in _RATIONAL_OPTIONS)
        if takes_rational and _NEGATIVE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    with _check_out(args.command_parser, args.out):
        code, payload = COMMANDS[args.command](args.command_parser, args)
        _write(args, payload)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
