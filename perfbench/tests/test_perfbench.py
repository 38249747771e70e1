"""Tests of the benchmark itself: inputs, names, span arithmetic, counts.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from jhi import integrator, models  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNT_UNITS = ("count", "B", "ratio", "iter/step")


def bench(*args):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=600,
    )
    return done


def last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name, tmp_path):
    workload = workloads.WORKLOADS[name](tmp_path)
    assert workload.round_tasks(3, 0) == workload.round_tasks(3, 0)
    assert workload.round_tasks(3, 0) != workload.round_tasks(4, 0)
    assert workload.round_tasks(3, 0) != workload.round_tasks(3, 1)


def test_declared_names_match_the_code():
    end_to_end = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == spans.layer_metric_units()
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    for name in list(end_to_end) + list(per_layer):
        assert NAME.fullmatch(name), name


def test_self_time_of_nested_spans():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def inner(with_leaf):
        return tracer.call("leaf", leaf) if with_leaf else 0

    def outer():
        tracer.call("inner", inner, True)
        tracer.call("inner", inner, False)

    tracer.call("outer", outer)
    # clock: outer 0..7, inner 1..4 holding leaf 2..3, inner 5..6
    per_name, top_level = tracer.self_times()
    assert per_name == {"outer": (1, 3.0), "inner": (2, 3.0), "leaf": (1, 1.0)}
    assert top_level == 7.0
    metrics = spans.layer_metrics(tracer, traced_wall=7.5, untraced_wall=7.0)
    assert metrics["unattributed_s"] == (0.5, "s")
    assert metrics["trace.overhead_s"] == (0.5, "s")


def test_recursion_spans_nest_and_patches_are_restored():
    original = integrator.integrate
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        model = models.build_model("lotka_volterra")
        integrator.integrate(model, "jhi3", (0.0, 0.01), 0.01)
    assert integrator.integrate is original
    names = [tracer.names[i] for i in tracer.name_id]

    def chain(index):
        out = []
        while index >= 0:
            out.append(names[index])
            index = tracer.parent[index]
        return out

    chains = [chain(i) for i, n in enumerate(names) if n == "birealization.alpha_kernel"]
    assert any(
        c[1] == "jets.evaluate_with_gradient" and "generating.covector_kernel" in c
        for c in chains
    )


@pytest.mark.parametrize("name, index", [("drift", 1), ("order_table", 4), ("high_order", 0)])
def test_perturbed_output_fails_its_check(name, index, tmp_path):
    workload = workloads.WORKLOADS[name](tmp_path)
    task = workload.round_tasks(5, 0)[index]
    ctx = workload.prepare(task, 0)
    output = workload.run(task, ctx)
    workload.check(task, ctx, output)
    with pytest.raises(workloads.OutputCheckError):
        workload.check(task, ctx, workload.perturb(task, ctx, output))


def test_percentiles():
    values = list(range(1, 61))
    assert run.nearest_rank(values, 50) == 30
    assert run.tail_percentile(60) == 83
    assert run.tail_percentile(15) == 33
    assert run.tail_percentile(10) == 100


def test_end_to_end_names_are_emitted():
    result = last_json(bench("--workload", "drift", "--seed", "2", "--seconds", "2", "--trace", "0"))
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_for_the_same_seed(name):
    args = ("--workload", name, "--seed", "4", "--seconds", "1", "--trace", "1")
    first, second = last_json(bench(*args)), last_json(bench(*args))
    assert set(first["metrics"]) == set(spans.layer_metric_units())
    for key, metric in first["metrics"].items():
        if metric["unit"] in COUNT_UNITS:
            assert metric["value"] == second["metrics"][key]["value"], key
    total = sum(m["value"] for k, m in first["metrics"].items() if k.endswith(".self_s"))
    wall = first["metrics"]["trace.wall_s"]["value"]
    assert total + first["metrics"]["unattributed_s"]["value"] == pytest.approx(wall)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "drift", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
