"""Spans around fockosc's public functions, recorded from outside the package.

A `Tracer` replaces each target function by a wrapper in every fockosc
namespace that holds it, so a name bound by a `from`-import is wrapped
where the caller looks it up (for example `fockosc.cli.realize_matrix`
and `fockosc.verify.realize_matrix`), methods are wrapped on their class,
and verification suites are wrapped in the `SUITES` table that `run_all`
reads.  Spans (name, start, end, parent, error) stay in memory until the
run ends.

Some wrappers keep the returned value; `Tracer.drain` turns the kept values
into exact counts (coefficient bit lengths, term counts) between items, so
that work is never inside a timed item.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _rational_bits(values) -> int:
    return max(
        (max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in values),
        default=0,
    )


def _matrix_bits(matrix) -> int:
    return _rational_bits(x for row in matrix.rows for x in row)


def _report_bits(report) -> int:
    return _rational_bits(
        x for entry in report.entries for x in (entry.eigenvalue, *entry.eigenpoly.coeffs)
    )


def _term_count(element) -> int:
    return len(element.terms)


def _matrix_span(h, r, *args, **kwargs) -> str:
    kind = {"Differential": "diff", "FiniteDifference": "fd", "QDilatation": "qdil"}
    return "realize.matrix." + kind.get(type(r).__name__, "other")


# (module, attribute or Class.method, span name or function of the call's
# arguments, name of the exact count taken from the returned value)
TARGETS = [
    ("fockosc.algebra", "Poly.shift_arg", "algebra.shift_arg", None),
    ("fockosc.algebra", "basis_element", "algebra.basis_change", None),
    ("fockosc.algebra", "to_monomial_coeffs", "algebra.basis_change", None),
    ("fockosc.algebra", "from_monomial_coeffs", "algebra.basis_change", None),
    ("fockosc.algebra", "basis_transplant", "algebra.basis_change", None),
    ("fockosc.algebra", "back_substitute", "algebra.back_substitute", None),
    ("fockosc.fock", "normal_order_product", "fock.normal_order", "fock.max_terms"),
    ("fockosc.fock", "casimir_value", "fock.casimir", None),
    ("fockosc.realize", "realize_matrix", _matrix_span, "realize.max_coeff_bits"),
    ("fockosc.realize", "apply_op", "realize.apply_op", None),
    ("fockosc.realize", "heisenberg_residual", "realize.heisenberg_residual", None),
    ("fockosc.realize", "stencil_of", "realize.stencil_of", None),
    ("fockosc.realize", "Stencil.apply", "realize.stencil_apply", None),
    ("fockosc.spectral", "eigensolve_flag", "spectral.eigensolve", "spectral.max_coeff_bits"),
    ("fockosc.spectral", "pencil_solve", "spectral.pencil", "spectral.max_coeff_bits"),
    ("fockosc.spectral", "reference_spectrum", "spectral.reference", None),
    ("fockosc.spectral", "q_number", "spectral.reference", None),
    ("fockosc.spectral", "isospectral_compare", "spectral.compare", None),
    ("fockosc.specfun", "laguerre", "specfun.laguerre", None),
    ("fockosc.specfun", "hermite", "specfun.laguerre", None),
    ("fockosc.specfun", "modified_laguerre", "specfun.laguerre", None),
    ("fockosc.specfun", "kratzer_eigencheck", "specfun.weighted", None),
    ("fockosc.specfun", "gauge_conjugate_check", "specfun.weighted", None),
    ("fockosc.specfun", "parity_relation_ratio", "specfun.weighted", None),
    ("fockosc.cli", "main", "cli", None),
]

PROBES = {
    "fock.max_terms": _term_count,
    "realize.max_coeff_bits": _matrix_bits,
    "spectral.max_coeff_bits": _report_bits,
}


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent index, raised]
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._kept: list = []
        self._restore: list = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, False])
        self._stack.append(index)
        return index

    def close(self, index: int, raised: bool = False) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        span[4] = raised
        self._stack.pop()

    def wrap(self, func, name, probe: str | None = None, failed=None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self.open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.close(index, raised=True)
                raise
            self.close(index, raised=failed is not None and failed(result))
            if probe is not None:
                self._kept.append((probe, result))
            return result

        return wrapper

    def drain(self) -> None:
        """Turn kept return values into exact counts (call between items)."""
        for probe, result in self._kept:
            self.counts[probe] = max(self.counts.get(probe, 0), PROBES[probe](result))
        self._kept.clear()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "fockosc" or n.startswith("fockosc.")]
        for module_name, attr, name, probe in TARGETS:
            owner = importlib.import_module(module_name)
            holder, _, method = attr.rpartition(".")
            if holder:
                owner = getattr(owner, holder, None)
            func = getattr(owner, method, None)
            if func is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            failed = (lambda rc: rc != 0) if name == "cli" else None
            wrapper = self.wrap(func, name, probe, failed)
            if holder:
                self._set(owner, method, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is func:
                        self._set(module, key, wrapper)
        verify = importlib.import_module("fockosc.verify")
        for suite, func in list(getattr(verify, "SUITES", {}).items()):
            self._restore.append((verify.SUITES, suite, func, True))
            verify.SUITES[suite] = self.wrap(func, f"verify.{suite}")

    def _set(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key), False))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value, is_dict in reversed(self._restore):
            if is_dict:
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        children.setdefault(span[3], []).append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(index, [])):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, self and total seconds, and errors.

    An error counts once per layer: a span that raised is not counted when
    its parent belongs to the same layer and raised too.
    """
    own = self_times(spans)
    out: dict[str, dict] = {}
    for index, (name, start, end, parent, raised) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0})
        row["calls"] += 1
        row["self_s"] += own[index] / 1e9
        row["total_s"] += (end - start) / 1e9
        if raised:
            up = spans[parent] if parent >= 0 else None
            same_layer = up is not None and up[0].split(".")[0] == name.split(".")[0]
            if not (same_layer and up[4]):
                row["errors"] += 1
    return out
