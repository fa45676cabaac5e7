"""The mackeykit benchmark: cold-process workloads over the whole tower.

    python3 perfbench/run.py --workload {tor,spans,cli-green} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout.  Load model: a closed loop with one
client.  Each repetition spawns one fresh worker interpreter, which
imports mackeykit from src/ and runs the workload's fixed batch of ops
back to back, so the library's process-wide caches start empty, as they
do for a CLI user or a new script.  Inputs are built from the seed here,
before the worker starts; reference outputs are loaded before the first
op.

With --trace 0 the run makes a fixed number of repetitions, set by
--seconds and the workload's nominal repetition time, so the same seed
and --seconds give the same ops and the same `attempted`.  On a shared
host (measured on a 2-vCPU KVM guest of a Xeon Sapphire Rapids) other
tenants change the speed of pure Python by up to 1.9x, in phases from a
fraction of a second to minutes, so every time is scaled by the host's
speed sampled while it was taken (`speed.py`) and reads in uncontended
seconds of that host.  The run reports the median set-up time, the
largest peak RSS, and times each op by its median repetition: wall_s
sums those times over the batch and slowest_op_s is the largest.
With --trace 1 the run executes the batch once untraced and once traced
and reports the per-layer metrics.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402

MIN_REPS = 3
# A repetition's time as read on the host above, in its slow phases.
REP_S = {"tor": 13.0, "spans": 8.0, "cli-green": 10.0}
# Start no repetition that would end after BUDGET_S, and kill a worker
# still running at DEADLINE_S, so a run ends within 180 s.
BUDGET_S = 150.0
DEADLINE_S = 170.0

UNITS = {"setup_s": "s", "wall_s": "s", "slowest_op_s": "s",
         "peak_rss_mb": "MB"}


def per_layer_unit(name):
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("max_bits"):
        return "bits"
    return "count"


class Runner:
    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.base = inputs.load_base_docs() \
            if workload == "cli-green" else None
        self.proc = None

    def rep(self, index, traced, deadline):
        """One repetition in a fresh worker; returns the worker's result."""
        ops = inputs.build_ops(self.workload, self.seed, index, self.workdir,
                               self.base)
        ops_path = os.path.join(self.workdir, f"ops-{index}.json")
        result_path = os.path.join(self.workdir, f"result-{index}.json")
        with open(ops_path, "w", encoding="utf-8") as fh:
            json.dump({"ops": ops}, fh)
        env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1")
        env.pop("PYTHONPATH", None)
        argv = [sys.executable, os.path.join(HERE, "worker.py"),
                ops_path, result_path] + (["--trace"] if traced else [])
        spawned = time.monotonic()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                     stdout=subprocess.DEVNULL)
        try:
            code = self.proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            ended = time.monotonic()
        finally:
            self.stop()
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        result["rep_s"] = ended - spawned
        result["setup_s"] = (result["first_op_at"] - spawned
                             - result["setup_probe_s"]) * result["setup_factor"]
        return result

    def stop(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
        if self.proc is not None:
            self.proc.wait()
        self.proc = None


def tally(results):
    """(correct, attempted, failed) over every op of every repetition.

    A corrupted input that the program accepts is a missed rejection: it
    counts as failed, but it is a weakness of a randomized validator, not
    a wrong result, so only failures on valid inputs make the run
    incorrect.
    """
    attempted = failed = wrong = 0
    for result in results:
        for op in result["ops"]:
            attempted += 1
            if op["error"] is not None:
                failed += 1
                wrong += "corruption" not in op
                print(f"failed: {op['id']}: {op['error']}"
                      + (f" ({op['corruption']})" if "corruption" in op
                         else ""))
    return wrong == 0, attempted, failed


def measure(runner, seconds, started):
    reps = max(MIN_REPS, round(seconds / REP_S[runner.workload]))
    results = []
    while len(results) < reps:
        results.append(runner.rep(len(results), False, started + DEADLINE_S))
        elapsed = time.monotonic() - started
        rep_s = statistics.median(r["rep_s"] for r in results)
        if elapsed + rep_s > BUDGET_S:
            print(f"stopped after {len(results)} of {reps} repetitions: "
                  f"the next would end after {BUDGET_S:.0f} s")
            break
    op_s = [statistics.median(r["ops"][i]["seconds"] for r in results)
            for i in range(len(results[0]["ops"]))]
    values = {"setup_s": statistics.median(r["setup_s"] for r in results),
              "wall_s": sum(op_s),
              "slowest_op_s": max(op_s),
              "peak_rss_mb": max(r["peak_rss_mb"] for r in results)}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in UNITS.items()}
    print(f"{len(results)} repetitions of {runner.workload}: "
          + ", ".join(f"{k} {v['value']:.4f} {v['unit']}"
                      for k, v in metrics.items())
          + "; as read: wall_s "
          + ", ".join(f"{r['raw_wall_s']:.3f}" for r in results))
    return results, metrics


def measure_traced(runner, started):
    plain = runner.rep(0, False, started + DEADLINE_S)
    traced = runner.rep(0, True, started + DEADLINE_S)
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    metrics = {name: {"value": value, "unit": per_layer_unit(name)}
               for name, value in layers.items()}
    return [plain, traced], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "mackeykit",
                                       "__init__.py")):
        print(f"no mackeykit sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if not inputs.SEEDED[args.workload]:
        print(f"note: workload {args.workload} ignores --seed; "
              "its inputs are fixed")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    runner = Runner(args.workload, args.seed, workdir)
    try:
        if args.trace:
            results, metrics = measure_traced(runner, started)
        else:
            results, metrics = measure(runner, args.seconds, started)
    finally:
        runner.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failed = tally(results)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
