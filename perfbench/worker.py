"""Run one workload's batch in this process; write timings and outputs.

    python3 perfbench/worker.py --workload W --seed S --seconds T --traced 0|1 --out PATH

The batch is repeated while another repetition fits in T seconds (at least
once); untraced, it is repeated until T seconds are up, the last repetition
stopping between items.  Only the items are timed: building inputs,
serializing outputs, digests and the tracer's counts happen between items.
Untraced, a speed.Probe runs throughout; an item's seconds leave out its
kernel runs, and the summary carries the probe's samples.  PATH receives
JSON lines: one per run of an item (the output itself only on the first,
a digest on every one), then a summary, and with --traced 1 the spans of
every repetition, written once at the end.

fockosc must be importable (run.py puts the checkout's src/ on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import time
from fractions import Fraction

import spans
import speed
import workloads


def _words(pairs) -> dict:
    return {(k, m): Fraction(c) for k, m, c in pairs}


def _word_list(element) -> list:
    return [[k, m, str(c)] for (k, m), c in sorted(element.terms.items())]


def prepare(item: dict):
    """Build the call for one item outside the timed region.

    Returns (run, render): `run()` is the timed call, and `render(result)`
    turns its result into the JSON-able output the checker reads.
    """
    import fockosc
    from fockosc import cli, fock, realize

    kind = item["kind"]
    if kind == "cli":
        argv = list(item["argv"])

        def run():
            buffer = io.StringIO()
            try:
                with contextlib.redirect_stdout(buffer):
                    code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            return code, buffer.getvalue()

        return run, lambda result: result
    if kind == "product":
        q = Fraction(item["q"])
        x = fockosc.FockPoly(_words(item["x"]), q)
        y = fockosc.FockPoly(_words(item["y"]), q)
        lam = Fraction(item["lam"])

        def run():
            return x * y, fock.q_bracket(x, y, lam)

        return run, lambda r: (0, {"product": _word_list(r[0]), "bracket": _word_list(r[1])})
    if kind == "casimir":
        n = Fraction(item["n"])
        return (lambda: fock.casimir_value(n)), lambda r: (0, str(r.value))
    if kind == "stencil":
        param = Fraction(item["param"])
        if item["realization"] == "fd":
            r = realize.FiniteDifference(param)
        else:
            r = realize.QDilatation(param)
        h = fockosc.FockPoly(_words(item["h"]), Fraction(item["q"]))
        tests = [fockosc.Poly.monomial(d) for d in item["degrees"]]

        def run():
            stencil = realize.stencil_of(h, r)
            return stencil, [stencil.apply(f) for f in tests]

        def render(result):
            stencil, applied = result
            terms = [[j, {str(pw): str(c) for pw, c in coeff.terms.items()}] for j, coeff in stencil.terms]
            return 0, {"terms": terms, "applied": [[str(c) for c in p.coeffs] for p in applied]}

        return run, render
    raise ValueError(f"unknown item kind {kind!r}")


REPEAT_S = 0.4  # untraced, an item runs again back to back until it has taken this long
MAX_RUNS = 15    # or has run this many times in the repetition


def timed(run, probe):
    """(result, status, start, end, seconds) of one call; seconds leave out the probe's kernel."""
    probed = probe.spent if probe else 0.0
    start = time.perf_counter()
    try:
        result = run()
        status = None
    except Exception as exc:  # one failing item must not stop the batch
        result, status = None, f"{type(exc).__name__}: {exc}"[:300]
    end = time.perf_counter()
    return result, status, start, end, end - start - (probe.spent - probed if probe else 0.0)


def run_batch(calls, tracer, probe, rep: int, out, deadline=None) -> tuple[float, int]:
    """One repetition; returns (seconds in items, bytes of CLI output).

    With a deadline (perf_counter), no item starts after it.

    Traced, each item runs once.  Untraced, a short item runs up to
    MAX_RUNS times back to back (one record each), so that its median
    is taken over several runs even when a run holds one repetition.
    """
    busy = 0.0
    cli_bytes = 0
    for item_id, (run, render) in enumerate(calls):
        if deadline is not None and time.perf_counter() > deadline:
            break
        item_seconds = 0.0
        for run_index in range(MAX_RUNS if probe else 1):
            if run_index and item_seconds >= REPEAT_S:
                break
            root = tracer.open("bench.item") if tracer else None
            result, status, start, end, seconds = timed(run, probe)
            if tracer:
                tracer.close(root, raised=status is not None)
                tracer.drain()
            item_seconds += seconds
            code, output = None, None
            if status is None:
                try:
                    code, output = render(result)
                except Exception as exc:
                    status = f"{type(exc).__name__}: {exc}"[:300]
            if status is None and code != 0:
                status = f"exit {code}"
            if isinstance(output, str) and run_index == 0:
                cli_bytes += len(output.encode())
            record = {"type": "item", "rep": rep, "id": item_id, "seconds": seconds,
                      "start": start, "end": end, "status": status,
                      "digest": hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()}
            if rep == 0 and run_index == 0:
                record["output"] = output
            out.write(json.dumps(record) + "\n")
        busy += item_seconds
    return busy, cli_bytes


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    calls = [prepare(item) for item in workloads.generate(args.workload, args.seed)]
    tracer = spans.Tracer() if args.traced else None
    probe = None if args.traced else speed.Probe()
    rep_spans = []
    summary = {"type": "summary", "batch_seconds": [], "cli_bytes": []}
    with open(args.out, "w", encoding="utf-8") as out:
        if tracer:
            tracer.install()
        if probe:
            probe.start()
        start = time.perf_counter()
        try:
            while True:
                if tracer:
                    tracer.spans = []
                    rep_spans.append(tracer.spans)
                rep = len(summary["batch_seconds"])
                # untraced, repetitions after the first stop between items when the time is up
                deadline = start + args.seconds if probe and rep else None
                busy, cli_bytes = run_batch(calls, tracer, probe, rep, out, deadline)
                summary["batch_seconds"].append(busy)
                summary["cli_bytes"].append(cli_bytes)
                elapsed = time.perf_counter() - start
                if probe and elapsed < args.seconds:
                    continue
                if elapsed * (1 + 1 / len(summary["batch_seconds"])) > args.seconds:
                    break  # another repetition of average length would not fit
        finally:
            if probe:
                probe.stop()
            if tracer:
                tracer.uninstall()
        if tracer:
            summary["counts"] = tracer.counts
            summary["missing"] = tracer.missing
        if probe:
            summary["speed_samples"] = probe.samples
        out.write(json.dumps(summary) + "\n")
        for spans_of_rep in rep_spans:
            out.write(json.dumps({"type": "spans", "spans": spans_of_rep}) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
