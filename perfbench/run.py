"""Benchmark for jhi: one workload per process, from a seed, outputs checked.

    python3 perfbench/run.py --workload drift --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run generates its tasks from --seed, warms up, then runs a fixed number of
rounds of tasks, sized so the rounds take about --seconds at the seed
baseline.  Every task's output is checked, and one passed output is
perturbed and must then fail its check (the negative control).

--trace 0 prints the end-to-end metrics.  --trace 1 runs half as many
rounds twice, untraced and then traced, and prints the per-layer metrics
(see spans.py).  The last line of stdout is one JSON object; the full
result, with provenance and every task, goes to perfbench/out/.  Exit code
0 means every check passed.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 12

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "task_ms_p50": "ms",
    "task_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

# Runs in a fresh interpreter: set up as a user would (import jhi, then
# build_model and one compute_coefficients per (model, order)), then again
# with jhi's modules dropped from sys.modules, so the repeats re-run jhi's
# own set-up without the page faults and file reads of a new process.
SETUP_PROBE = """
import importlib, json, sys, time
sys.path.insert(0, sys.argv[1])
pairs, repeats = json.loads(sys.argv[2]), int(sys.argv[3])
times = []
for _ in range(repeats):
    for name in [m for m in sys.modules if m == "jhi" or m.startswith("jhi.")]:
        del sys.modules[name]
    start = time.perf_counter()
    jhi = importlib.import_module("jhi")
    from jhi.jacobi import lifted_hamiltonian_field
    for name, overrides, order in pairs:
        model = jhi.build_model(name, overrides)
        closed = {i: f for i, f in (model.s_overrides or {}).items() if i <= order}
        jhi.compute_coefficients(lifted_hamiltonian_field(model.hamiltonian),
                                 model.realization, order, overrides=closed or None)
    times.append(time.perf_counter() - start)
print(json.dumps(times))
"""


@dataclass
class Record:
    """One task as run: its time, steps, and outcome ("ok" or a class)."""

    label: str
    seconds: float
    steps: int
    outcome: str
    checked: bool
    max_err: Optional[float] = None
    max_h_drift: Optional[float] = None


def nearest_rank(values, p):
    """The p-th percentile by nearest rank of a sorted list."""
    return values[max(1, math.ceil(p * len(values) / 100.0)) - 1]


def tail_percentile(n):
    """Highest whole percentile with at least ten of n samples beyond it."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100.0) >= 10:
            return p
    return 100


def measure_setup(workload):
    """(median set-up time, the first set-up, which also imports numpy)."""
    pairs = sorted({(n, json.dumps(o), k) for n, o, k in workload.runs})
    pairs = json.dumps([(n, json.loads(o), k) for n, o, k in pairs])
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), pairs, str(SETUP_REPEATS)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    times = json.loads(done.stdout.strip().splitlines()[-1])
    return statistics.median(times), times[0]


def execute(workload, task, ctx, index, tracer=None):
    """Run one task (timed), then check its output (untimed)."""
    from jhi.errors import IntegrationFailure
    from spans import FAILURE_CLASSES
    from workloads import OutputCheckError

    if tracer is not None:
        tracer.task_id = index
    output = failure = None
    start = time.perf_counter()
    try:
        output = workload.run(task, ctx)
    except IntegrationFailure as exc:
        failure = exc
    except Exception:  # an untyped raise is a defect: record it and go on
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return Record(task.label, seconds, 0, "other", False), None
    seconds = time.perf_counter() - start
    try:
        if failure is None:
            res = workload.check(task, ctx, output)
            return Record(task.label, seconds, res.steps, "ok", True,
                          res.max_err, res.max_h_drift), output
        steps = workload.check_failure(task, ctx, failure)
    except OutputCheckError as exc:
        print(f"check failed: {task.label}: {exc}", file=sys.stderr)
        return Record(task.label, seconds, 0, "OutputCheckError", False), None
    cls = type(failure.cause).__name__
    return Record(task.label, seconds, steps,
                  cls if cls in FAILURE_CLASSES else "other", True), None


def negative_control(workload, task, ctx, output):
    """True when a perturbed copy of a passed output fails its check."""
    from workloads import OutputCheckError

    try:
        workload.check(task, ctx, workload.perturb(task, ctx, output))
    except OutputCheckError:
        return True
    print(f"negative control: a perturbed {task.label} output passed", file=sys.stderr)
    return False


def run_pass(workload, tasks, contexts=None, tracer=None):
    """Run tasks in order; return their records and the control verdict."""
    records, control = [], None
    for index, task in enumerate(tasks):
        ctx = contexts[index] if contexts else workload.prepare(task, index)
        record, output = execute(workload, task, ctx, index, tracer)
        records.append(record)
        if control is None and tracer is None and record.outcome == "ok":
            control = negative_control(workload, task, ctx, output)
        workload.cleanup(ctx)
    return records, control


def warm_up(workload):
    from jhi.errors import IntegrationFailure

    for index, task in enumerate(workload.warmup_tasks()):
        ctx = workload.prepare(task, f"warmup-{index}")
        try:
            workload.run(task, ctx)
        except IntegrationFailure:
            pass
        workload.cleanup(ctx)


def end_to_end(records, setup_s):
    times = sorted(r.seconds if r.outcome == "ok" else math.inf for r in records)
    tail = tail_percentile(len(times))
    failed = sum(r.outcome != "ok" for r in records)
    errs = [r.max_err for r in records if r.max_err is not None]
    drifts = [r.max_h_drift for r in records if r.max_h_drift is not None]
    kinds = {}
    for r in records:
        steps, seconds = kinds.get(r.label, (0, 0.0))
        kinds[r.label] = (steps + r.steps, seconds + r.seconds)
    rates = [steps / seconds for steps, seconds in kinds.values()]
    values = {
        "setup_s": setup_s,
        "steps_per_s": math.exp(statistics.fmean(map(math.log, rates))) if all(rates) else 0.0,
        "task_ms_p50": 1e3 * nearest_rank(times, 50),
        "task_ms_tail": 1e3 * nearest_rank(times, tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "task_tail_percentile": tail,
        "tasks": len(records),
        "steps_per_task_second": sum(r.steps for r in records)
        / sum(r.seconds for r in records),
        "failed_frac": failed / len(records),
        "max_err": max(errs) if errs else None,
        "max_h_drift": max(drifts) if drifts else None,
    }
    return values, extra


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(seed):
    import tomllib

    import numpy

    with open(ROOT / "pyproject.toml", "rb") as handle:
        version = tomllib.load(handle)["project"]["version"]
    return {
        "jhi_version": version,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_workload(name, seed, seconds, traced):
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import spans as tracing
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](OUT / f"work-{name}-{seed}")
    rounds = max(1, round(seconds / workload.round_seconds))
    extra = {}
    if not traced:
        setup_s, setup_cold_s = measure_setup(workload)
        warm_up(workload)
        tasks = [t for r in range(rounds) for t in workload.round_tasks(seed, r)]
        records, control = run_pass(workload, tasks)
        values, extra = end_to_end(records, setup_s)
        extra["setup_cold_s"] = setup_cold_s
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        checked = all(r.checked for r in records)
    else:
        warm_up(workload)
        rounds = math.ceil(rounds / 2)
        tasks = [t for r in range(rounds) for t in workload.round_tasks(seed, r)]
        contexts = [workload.prepare(task, index) for index, task in enumerate(tasks)]
        plain, control = run_pass(workload, tasks, contexts)
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer):
            records, _ = run_pass(workload, tasks, contexts, tracer)
        for r in records:
            if r.outcome != "ok":
                tracer.counts[f"failures.{r.outcome}"] += 1
        metrics = tracing.layer_metrics(
            tracer, sum(r.seconds for r in records), sum(r.seconds for r in plain)
        )
        tracer.save(OUT / f"spans-{name}-seed{seed}.npz")
        checked = all(r.checked for r in plain + records)
    shutil.rmtree(workload.workdir, ignore_errors=True)
    correct = bool(control) and checked
    failed = sum(r.outcome != "ok" for r in records)
    prov = provenance(seed)

    print(f"perfbench {name} seed={seed} trace={int(traced)}: {len(records)} tasks "
          f"in {rounds} rounds, {failed} failed, checks {'passed' if correct else 'FAILED'}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<44} {value:.6g} {unit}")
    for key, value in extra.items():
        print(f"  {key:<44} {'n/a' if value is None else format(value, '.6g')}")
    print("provenance " + json.dumps(prov))
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=name, rounds=rounds, extra=extra,
                  provenance=prov, tasks=[asdict(r) for r in records])
    (OUT / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


WORKLOAD_NAMES = ("drift", "order_table", "high_order")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jhi" / "__init__.py").is_file():
        print(f"jhi sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in WORKLOAD_NAMES:  # a fresh process per workload
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
        )
        status = max(status, done.returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
