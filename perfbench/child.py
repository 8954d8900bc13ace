"""One benchmark repetition, run in a fresh process: `uflst synth`, then
`uflst train`, optionally `uflst eval`, through the package's real CLI.

Usage: python3 perfbench/child.py SPEC.json

SPEC holds the argument lists of each command, the result path, the
parent's `time.monotonic()` at spawn (start-up time is measured across
the process boundary; CLOCK_MONOTONIC is system-wide on Linux) and, for a
traced repetition, the path the spans are written to.  The child writes
one JSON result and exits 0 whether or not uflst succeeded; the parent
judges the result.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

import numpy  # noqa: F401  (imported before the clock stops: part of start-up)
from uflst import cli

STARTED = time.monotonic()


def run_cli(argv):
    """(exit code, stdout, wall s, CPU s) of one in-process `uflst` command."""
    out = io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return (code, out.getvalue(), time.perf_counter() - t0,
            time.process_time() - c0)


def main():
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    result = {"startup_s": STARTED - spec["spawned_at"]}
    tracer = None
    if spec.get("spans"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)

    code, _, seconds, _ = run_cli(spec["synth"])
    result.update(synth_code=code, synth_s=seconds)
    if code == 0:
        code, out, seconds, cpu_s = run_cli(spec["train"])
        result.update(train_code=code, train_out=out, train_s=seconds,
                      train_cpu_s=cpu_s)
        result["maxrss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        tracer.dump(spec["spans"])
    if code == 0 and spec.get("eval"):
        code, out, _, _ = run_cli(spec["eval"])
        result.update(eval_code=code, eval_out=out)
    with open(spec["result"], "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
