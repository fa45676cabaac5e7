"""Checks of the benchmark's tracer.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402


def test_self_times_nested_and_touching_children():
    # root [0, 10] holds a child [1, 4] with a grandchild [2, 3], a child
    # [4, 6] that starts where the first ends, and a child [8, 9].
    spans = [(-1, 0.0, 10.0), (0, 1.0, 4.0), (1, 2.0, 3.0), (0, 4.0, 6.0),
             (0, 8.0, 9.0)]
    parents, starts, ends = (list(col) for col in zip(*spans))
    assert tracing.self_times(parents, starts, ends) == \
        [4.0, 2.0, 1.0, 2.0, 1.0]


def test_self_times_merges_overlaps_and_clips_to_the_parent():
    # children listed out of order; [2, 5] and [4, 7] overlap, and [9, 12]
    # runs past the end of its parent [0, 10]
    parents = [-1, 0, 0, 0]
    starts = [0.0, 9.0, 4.0, 2.0]
    ends = [10.0, 12.0, 7.0, 5.0]
    own = tracing.self_times(parents, starts, ends)
    assert own[0] == 10.0 - 5.0 - 1.0
    assert own[1:] == [3.0, 3.0, 3.0]


def test_layer_metrics_sum_self_time_per_layer_and_group():
    names = ["intmat.smith_normal_form", "intmat.solve",
             "intmat.Solver.solve", "gsets.pullback",
             "burnside.compose", "trace.probe"]
    own = [1.0, 0.5, 0.25, 2.0, 4.0, 8.0]
    sizes = {"burnside.compose.code_pairs": 4}
    out = tracing.layer_metrics(names, own, {"burnside.compose": 1}, sizes)
    assert list(out) == tracing.METRICS
    assert out["intmat.self_s"] == 1.75
    assert out["intmat.snf.calls"] == 1
    assert out["intmat.solve.calls"] == 2
    assert out["intmat.solve.self_s"] == 0.75
    assert out["burnside.compose.pullback_ratio"] == 0.25
    assert out["homalg.self_s"] == 0


def test_speed_probe_scales_by_the_samples_around_an_op(monkeypatch):
    probe = speed.SpeedProbe()
    # the loop ran at half speed before the op and quarter speed after it
    durations = iter([2 * speed.CAL_REF_S, 4 * speed.CAL_REF_S])
    monkeypatch.setattr(probe, "sample",
                        lambda: probe.samples.append(next(durations)))
    since = probe.mark()
    probe.spent += 0.5                 # the timer's samples during the op
    # 10 s of the op itself, at a mean speed of (1/2 + 1/4) / 2
    assert probe.scaled(since, 10.5) == pytest.approx(3.75)


def library_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "mackeykit" or n.startswith("mackeykit.")]


def test_every_binding_of_a_wrapped_function_is_replaced():
    import ops
    tracer = tracing.Tracer()
    targets = tracing.targets()
    originals = {id(orig): name for name, _, _, orig in targets}
    before = {(m.__name__, attr): obj for m in library_modules() + [ops]
              for attr, obj in vars(m).items()}
    tracer.install(extra_modules=[ops])
    try:
        stale = [f"{m.__name__}.{attr} is the original {originals[id(obj)]}"
                 for m in library_modules() + [ops]
                 for attr, obj in vars(m).items() if id(obj) in originals]
        for name, owner, attr, original in targets:
            if isinstance(owner, type):
                if vars(owner)[attr] is original:
                    stale.append(f"method {name} is unwrapped")
        assert stale == []
        # the by-name imports the tracer exists for
        from mackeykit import abgroups, burnside, intmat
        assert abgroups.smith_normal_form is intmat.smith_normal_form
        assert abgroups.smith_normal_form.__wrapped__ is not None
        assert burnside.pullback.__wrapped__ is not None
        assert ops.compose.__wrapped__ is not None
    finally:
        tracer.uninstall()
    after = {(m.__name__, attr): obj for m in library_modules() + [ops]
             for attr, obj in vars(m).items()}
    assert all(after[key] is obj for key, obj in before.items())
    assert all(vars(owner)[attr] is original
               for _, owner, attr, original in targets
               if isinstance(owner, type))


def test_per_element_primitives_stay_unwrapped():
    names = {name for name, _, _, _ in tracing.targets()}
    assert names.isdisjoint(tracing.PRIMITIVES)
    assert {"abgroups.FinPresAbGroup.__init__", "gsets.GSet.__init__",
            "mackey.MackeyFunctor.eval_span", "mackey.NatSolver.solve",
            "intmat.smith_normal_form", "cli.main"} <= names


def test_benchmark_json_lists_every_per_layer_metric():
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    want = tracing.METRICS + ["trace.overhead_ratio"]
    assert listed == [(name, run.per_layer_unit(name)) for name in want]
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


# Small slices of each workload, so two traced runs stay quick.
SLICES = {"tor": ("tor0/C4/", "tor-free/C4", "ss/C2"),
          "spans": ("spans/trivial", "spans/C2", "spans/C3", "spans/C4"),
          "cli-green": ("mackey-check/C4/", "box/C4/", "green-check/C4/",
                        "bpq/C4")}


def traced_layers(tmp_path, workload, tag):
    ops = [op for op in inputs.build_ops(workload, 7, 0, str(tmp_path))
           if op["id"].startswith(SLICES[workload])]
    assert ops
    ops_path = tmp_path / f"ops-{tag}.json"
    result_path = tmp_path / f"result-{tag}.json"
    ops_path.write_text(json.dumps({"ops": ops}))
    env = dict(os.environ, PYTHONHASHSEED="0")
    subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"),
                    str(ops_path), str(result_path), "--trace"],
                   cwd=ROOT, env=env, check=True, timeout=300)
    result = json.loads(result_path.read_text())
    assert all(op["error"] is None or "corruption" in op
               for op in result["ops"])
    return result["layers"]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_counts_and_sizes_repeat_across_traced_runs(tmp_path, workload):
    first = traced_layers(tmp_path, workload, "a")
    second = traced_layers(tmp_path, workload, "b")
    exact = [k for k in tracing.METRICS if not k.endswith("self_s")]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert any(first[k] for k in exact)
