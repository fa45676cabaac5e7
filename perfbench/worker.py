"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/worker.py OPS_JSON RESULT_JSON [--trace]

Imports mackeykit from the checkout's src/ (never from an installed
copy), runs the ops back to back and writes the timings, the outcome of
each op and, with --trace, the per-layer metrics to RESULT_JSON.  The
parent measures set-up from its own spawn time to `first_op_at`; both
sides read CLOCK_MONOTONIC through time.monotonic().  A `speed.SpeedProbe`
runs from the start, so every time is also given in uncontended seconds
(`seconds`, `wall_s`) beside the time as read (`raw_seconds`,
`raw_wall_s`); set-up is scaled by the parent with `setup_factor`.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_library():
    sys.path.insert(0, SRC)
    import mackeykit
    if os.path.dirname(os.path.abspath(mackeykit.__file__)) != \
            os.path.join(SRC, "mackeykit"):
        raise ImportError(f"mackeykit imported from {mackeykit.__file__}, "
                          f"not from {SRC}")


def main(argv):
    ops_path, result_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    import speed
    probe = speed.SpeedProbe()
    probe.start()
    since_start = probe.mark()
    import_library()
    import ops
    with open(ops_path, encoding="utf-8") as fh:
        batch = json.load(fh)
    with open(os.path.join(HERE, "data", "reference.json"),
              encoding="utf-8") as fh:
        reference = json.load(fh)
    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(extra_modules=[ops])

    outcomes = []
    ctx = {}
    setup = {"setup_factor": probe.factor(since_start),
             "setup_probe_s": probe.spent}
    first_op_at = time.monotonic()
    for op in batch["ops"]:
        since = probe.mark()
        t0 = time.perf_counter()
        try:
            result = ops.run_op(op, ctx)
            error = None if ops.matches_reference(op, result, reference) \
                else "output differs from the reference"
        except Exception as err:      # an op that raises counts as failed
            error = f"{type(err).__name__}: {err}"
        raw = time.perf_counter() - t0
        outcome = {"id": op["id"], "seconds": probe.scaled(since, raw),
                   "raw_seconds": raw, "error": error}
        if "corruption" in op:
            outcome["corruption"] = op["corruption"]
        outcomes.append(outcome)
    probe.stop()

    out = dict(setup, first_op_at=first_op_at, ops=outcomes,
               wall_s=sum(op["seconds"] for op in outcomes),
               raw_wall_s=sum(op["raw_seconds"] for op in outcomes),
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               / 1024.0)
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
