"""fockosc benchmark: one command for every end-to-end and per-layer metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
Workloads are defined in workloads.py (each with the reason it was chosen
and what it leaves out).

--trace 0 measures the end-to-end metrics with tracing off.  Times are
seconds on a reference host (speed.py): the measured process times a fixed
kernel 25 times a second, and each raw time is scaled by the host's speed
around it, as the shared host this was written on ran the same code up to
twice as slow for seconds at a time.  The raw wall_s is printed on a line
of its own.

  wall_s       time to finish the batch, with each item at its median
               run (see item_times); for verify-all the one item is
               `fockosc verify all` in a fresh process, from spawn to exit
  item_p50_s   median item time
  item_tail_s  the 11th-largest item time: the highest percentile that
               still has ten items beyond it; for a batch of ten items or
               fewer (verify-all has one) the slowest item
  ok_ratio     items that passed / items attempted; an item fails on a
               nonzero exit, an exception or an output check.py rejects,
               in any of its runs
  peak_rss_mb  peak RSS of the fresh child process running the workload
               (median over children for verify-all)
  setup_s      median time of `fockosc spectrum --realization diff --N 0`
               in a fresh process, from spawn to exit, run several times

--trace 1 runs the batch untraced and then traced, each in a fresh child
for half the time, and reports the per-layer metrics from the traced
child.  spans.py names the span wrapped around each public function.

  <span>.self_s          self time (duration minus the children's), summed
                         over a repetition; median over repetitions
  <span>.calls           spans opened in one repetition
  realize.matrix.calls   realize_matrix calls for any realization
  verify.<suite>.s       time of each verification suite, children included
  spectral.errors        spectral spans that raised
  cli.errors             CLI calls that raised or exited nonzero
  *.max_coeff_bits       largest numerator or denominator bit length in the
                         matrices (realize) or eigen-reports (spectral)
                         returned
  fock.max_terms         most words in a normal-ordered product returned
  cli.output_bytes       bytes the CLI rendered in one repetition
  src.lines              lines of src/**/*.py
  trace.overhead_ratio   traced over untraced batch time
  trace.attributed_ratio layer self time over item time, traced child

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it describe the run and
list every failed item by its argv.  The exit code is 0 whenever a
result is printed; outputs that check.py rejects show as correct: false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import check
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"
SETUP_RUNS = 11
BUDGET_S = 170.0  # every child is killed by then; the run must end within 180 s

SETUP_PARAMS = {"command": "spectrum", "op": "hf", "realization": "diff", "p": "0", "B": "0",
                "delta": "1", "q": "1", "N": 0, "rhs": "plain", "s": None}

SELF_TIME_SPANS = [
    "algebra.shift_arg", "algebra.basis_change", "algebra.back_substitute",
    "realize.matrix.diff", "realize.matrix.fd", "realize.matrix.qdil",
    "realize.apply_op", "realize.heisenberg_residual", "realize.stencil_of", "realize.stencil_apply",
    "fock.normal_order", "fock.casimir",
    "spectral.eigensolve", "spectral.pencil", "spectral.reference", "spectral.compare",
    "specfun.laguerre", "specfun.weighted", "cli",
]
CALL_COUNTS = ["algebra.shift_arg", "algebra.basis_change", "fock.normal_order"]
SUITES = ["heisenberg", "sl2", "casimir", "spectrum", "isospectral", "transplant",
          "kratzer", "parity", "qpencil"]


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failure of one item)."""


class Children:
    """Spawns children with src/ on PYTHONPATH and reaps them with their rusage."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def run(self, argv: list[str], stdout: Path) -> tuple[float, int, float]:
        """(wall seconds, exit code, peak RSS in MB) of one child."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted before all children ran")
        with open(stdout, "w") as out, open(self.tmp / "stderr.txt", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, usage.ru_maxrss / 1024.0

    def stderr_tail(self) -> str:
        return (self.tmp / "stderr.txt").read_text()[-2000:]


def run_cli(children: Children, argv: list[str], out: Path) -> dict:
    """`fockosc ARGV` in a fresh process under a speed probe (cli_child.py).

    Returns its record (start, end, seconds without the probe's kernel,
    exit code, peak RSS) and the probe's samples.
    """
    samples_path = children.tmp / "speed.json"
    samples_path.unlink(missing_ok=True)
    child = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(samples_path), *argv]
    start = time.perf_counter()
    wall, code, peak = children.run(child, out)
    if not samples_path.is_file():
        raise BenchError(f"fockosc {' '.join(argv)} exited {code} before its probe wrote: "
                         f"{children.stderr_tail()}")
    samples = json.loads(samples_path.read_text())
    return {"start": start, "end": start + wall, "seconds": wall - sum(k for _, k in samples),
            "code": code, "peak_rss_mb": peak, "samples": samples}


def measure_setup(children: Children) -> float:
    out = children.tmp / "setup.txt"
    times = []
    for _ in range(SETUP_RUNS):
        run = run_cli(children, ["spectrum", "--realization", "diff", "--N", "0"], out)
        if run["code"] != 0:
            raise BenchError(f"setup call exited {run['code']}: {children.stderr_tail()}")
        times.append(run["seconds"] * speed.factor(run["samples"], run["start"], run["end"]))
    reason = check.check_spectrum(SETUP_PARAMS, out.read_text())
    if reason:
        raise BenchError(f"setup call output rejected: {reason}")
    return statistics.median(times)


def run_verify_cli(children: Children, seconds: float) -> dict:
    """Repeat `fockosc verify all` in fresh processes."""
    out = children.tmp / "verify.json"
    walls, rss, records, samples = [], [], [], []
    while True:
        run = run_cli(children, ["verify", "all"], out)
        walls.append(run["end"] - run["start"])
        rss.append(run["peak_rss_mb"])
        samples += run["samples"]
        text = out.read_text()
        records.append({"rep": len(records), "id": 0, "start": run["start"], "end": run["end"],
                        "seconds": run["seconds"],
                        "status": None if run["code"] == 0 else f"exit {run['code']}", "output": text,
                        "digest": hashlib.sha256(json.dumps(text).encode()).hexdigest()})
        if sum(walls) * (1 + 1 / len(walls)) > seconds:
            break  # another run of average length would not fit
    return {"records": records, "batch_seconds": walls, "peak_rss_mb": statistics.median(rss),
            "speed_samples": samples}


def run_worker(children: Children, args, seconds: float, traced: int) -> dict:
    out = children.tmp / f"worker{traced}.jsonl"
    argv = [sys.executable, str(Path(__file__).with_name("worker.py")),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--traced", str(traced), "--out", str(out)]
    _, code, peak = children.run(argv, out.with_suffix(".stdout"))
    if code != 0:
        raise BenchError(f"worker exited {code}: {children.stderr_tail()}")
    result = {"records": [], "spans": [], "peak_rss_mb": peak}
    with open(out, encoding="utf-8") as lines:
        for line in lines:
            record = json.loads(line)
            kind = record.pop("type")
            if kind == "item":
                result["records"].append(record)
            elif kind == "summary":
                result.update(record)
            else:
                result["spans"].append(record["spans"])
    return result


def judge(items: list[dict], records: list[dict]) -> tuple[int, list[str], list[str]]:
    """Check every item; returns (items attempted, failures, wrong answers).

    The first record of an item is checked by check.py; later runs must
    reproduce its output digest.  An item fails if any of its runs does,
    and is listed once, with the first reason.
    """
    first: dict[int, dict] = {}
    failures: dict[int, str] = {}
    wrong = []
    for record in records:
        item = items[record["id"]]
        reason = record["status"]
        if reason is None:
            if record["id"] not in first:
                try:
                    reason = check.check_item(item, record["output"])
                except Exception as exc:  # a malformed output is a rejected output
                    reason = f"checker could not read the output: {exc!r}"[:300]
            elif record["digest"] != first[record["id"]]["digest"]:
                reason = "output differs from the first repetition"
            if reason:
                wrong.append(reason)
        first.setdefault(record["id"], record)
        if reason:
            failures.setdefault(record["id"], f"{reason} <- {' '.join(item.get('argv', [item['kind']]))}")
    return len(first), list(failures.values()), wrong


def item_times(records: list[dict], samples=None) -> list[float]:
    """Each item's median run, sorted.

    With speed samples, each run is first scaled to the reference host
    (speed.factor).  The median, unlike the fastest run, does not drift
    with the number of runs, which follows the host's speed.
    """
    by_item: dict[int, list[float]] = {}
    for record in records:
        seconds = record["seconds"]
        if samples is not None:
            seconds *= speed.factor(samples, record["start"], record["end"])
        by_item.setdefault(record["id"], []).append(seconds)
    return sorted(statistics.median(times) for times in by_item.values())


def end_to_end(args, children: Children) -> tuple[dict, list[dict]]:
    setup_s = measure_setup(children)
    if args.workload == "verify-all":
        run = run_verify_cli(children, args.seconds)
    else:
        run = run_worker(children, args, args.seconds, 0)
    times = item_times(run["records"], run["speed_samples"])
    metrics = {"wall_s": (sum(times), "s"), "item_p50_s": (statistics.median(times), "s")}
    runs = len(run["records"]) / len(times)
    print(f"{len(times)} items in {len(run['batch_seconds'])} repetitions, {runs:.1f} runs per item")
    print(f"wall_s {sum(item_times(run['records'])):.4f} s before scaling to the reference host; "
          f"kernel median {statistics.median(k for _, k in run['speed_samples']):.5f} s, "
          f"reference {speed.REFERENCE_S} s")
    if len(times) > 10:
        metrics["item_tail_s"] = (times[-11], "s")
        print(f"item_tail_s is p{100 * (len(times) - 10) / len(times):.1f}")
    else:
        metrics["item_tail_s"] = (times[-1], "s")
        print("item_tail_s is the slowest item: no percentile has ten items beyond it")
    return metrics | {"setup_s": (setup_s, "s"), "peak_rss_mb": (run["peak_rss_mb"], "MB")}, run["records"]


def per_layer(args, children: Children) -> tuple[dict, list[dict]]:
    plain = run_worker(children, args, args.seconds / 2, 0)
    traced = run_worker(children, args, args.seconds / 2, 1)
    reps = [spans.summarize(rep) for rep in traced["spans"]]

    def med(fn) -> float:
        return statistics.median(fn(rep) for rep in reps)

    def field(rep, name, key):
        return rep.get(name, {}).get(key, 0)

    metrics = {}
    for name in SELF_TIME_SPANS:
        metrics[f"{name}.self_s"] = (med(lambda r: field(r, name, "self_s")), "s")
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = (field(reps[0], name, "calls"), "count")
    metrics["realize.matrix.calls"] = (
        sum(field(reps[0], f"realize.matrix.{k}", "calls") for k in ("diff", "fd", "qdil", "other")), "count")
    for suite in SUITES:
        metrics[f"verify.{suite}.s"] = (med(lambda r: field(r, f"verify.{suite}", "total_s")), "s")
    metrics["spectral.errors"] = (sum(row["errors"] for n, row in reps[0].items() if n.startswith("spectral.")), "count")
    metrics["cli.errors"] = (field(reps[0], "cli", "errors"), "count")
    counts = traced["counts"]
    for name, unit in (("realize.max_coeff_bits", "bits"), ("spectral.max_coeff_bits", "bits"),
                       ("fock.max_terms", "count")):
        metrics[name] = (counts.get(name, 0), unit)
    metrics["cli.output_bytes"] = (traced["cli_bytes"][0], "bytes")
    metrics["src.lines"] = (sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")), "lines")
    metrics["trace.overhead_ratio"] = (
        sum(item_times(traced["records"])) / sum(item_times(plain["records"])), "ratio")
    metrics["trace.attributed_ratio"] = (med(lambda r: sum(
        row["self_s"] for n, row in r.items() if not n.startswith("bench.")) / r["bench.item"]["total_s"]), "ratio")
    if traced["missing"]:
        print("not traced (missing in this version):", ", ".join(traced["missing"]))
    return metrics, plain["records"] + traced["records"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # so children are killed too
    if not (SRC / "fockosc" / "__init__.py").is_file():
        print(f"fockosc sources not found under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        children = Children(tmp)
        items = workloads.generate(args.workload, args.seed)
        about = workloads.WORKLOADS[args.workload]
        print(f"workload {args.workload} (seed {args.seed}): {about['why']}")
        print(f"excluded: {about['excludes']}")
        if args.trace:
            metrics, records = per_layer(args, children)
        else:
            metrics, records = end_to_end(args, children)
        attempted, failures, wrong = judge(items, records)
        failed = len(failures)
        if not args.trace:
            metrics["ok_ratio"] = ((attempted - failed) / attempted, "ratio")
        print(f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted})")
        for line in failures:
            print("FAILED", line)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
