"""Run `python -m fockosc ARGV...` under a speed.Probe.

    python3 perfbench/cli_child.py SAMPLES_PATH ARGV...

The CLI runs exactly as `python -m fockosc` would run it, in this fresh
process, with its stdout and exit code; the probe's samples are written
to SAMPLES_PATH as JSON when it ends.  fockosc must be importable.
"""

from __future__ import annotations

import json
import runpy
import sys

import speed


def main() -> None:
    samples_path, argv = sys.argv[1], sys.argv[2:]
    sys.argv = ["fockosc", *argv]
    probe = speed.Probe()
    probe.start()
    try:
        runpy.run_module("fockosc", run_name="__main__", alter_sys=True)
    finally:
        probe.stop()
        with open(samples_path, "w", encoding="utf-8") as out:
            json.dump(probe.samples, out)


if __name__ == "__main__":
    main()
