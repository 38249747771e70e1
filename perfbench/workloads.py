"""The benchmark's workloads: seeded inputs, the timed task, its output check.

A workload hands out rounds of tasks.  Round r of seed s is drawn from its
own random stream, so the same (seed, round) always gives the same inputs,
however many rounds a run makes.  For each task the runner calls
``prepare`` (untimed), ``run`` (timed; the only place jhi is called while a
trace is recorded), then ``check`` or ``check_failure`` (untimed).  A check
raises OutputCheckError when the program's output is wrong.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from jhi import cli, diagnostics, integrator, models
from jhi.diagnostics import hamiltonian_drift, study_protocol
from jhi.errors import StepError
from jhi.integrator import Trajectory
from jhi.jacobi import ExtendedState


class OutputCheckError(Exception):
    """A task's output failed its check."""


@dataclass(frozen=True)
class Task:
    """One unit of timed work: a model, a JHI order and a start state."""

    model: str
    overrides: Optional[dict]
    order: int
    x0: Tuple[float, ...]
    t0: float
    ds: float = 0.0
    steps: int = 0

    @property
    def start(self) -> ExtendedState:
        return ExtendedState(self.x0, self.t0)

    @property
    def label(self) -> str:
        return f"{self.model}/jhi{self.order}"


@dataclass(frozen=True)
class Outcome:
    """What a passed check reports about one task."""

    steps: int
    max_err: Optional[float] = None
    max_h_drift: Optional[float] = None


COSSIN = {"hamiltonian": "cossin"}


def _require(condition, message):
    if not condition:
        raise OutputCheckError(message)


class Workload:
    """Shared plumbing; subclasses define the tasks and their checks."""

    name = ""
    runs: Tuple[Tuple[str, Optional[dict], int], ...] = ()  # (model, overrides, order)
    round_seconds = 1.0  # one round's cost at the seed baseline, 2 cores
    ds = 0.0
    warmup_steps = 1

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.models = {
            (name, _key(overrides)): models.build_model(name, overrides)
            for name, overrides, _ in self.runs
        }

    def model_for(self, task):
        return self.models[(task.model, _key(task.overrides))]

    def start(self, model, rng):
        """A start state drawn from rng: the model's own sampler by default."""
        state = model.sample_state(rng)
        return tuple(float(v) for v in state.x), float(state.t)

    def steps_for(self, order: int) -> int:
        raise NotImplementedError

    def round_tasks(self, seed: int, round_index: int):
        rng = np.random.default_rng([seed, round_index])
        return [
            Task(name, ov, order, *self.start(self.models[(name, _key(ov))], rng),
                 self.ds, self.steps_for(order))
            for name, ov, order in self.runs
        ]

    def warmup_tasks(self):
        """Every kind of task once, from the default state, on a short input."""
        out = []
        for name, ov, order in self.runs:
            model = self.models[(name, _key(ov))]
            out.append(Task(name, ov, order, tuple(model.default_x0),
                            model.default_t0, self.ds, self.warmup_steps))
        return out

    def prepare(self, task, index):
        return None

    def run(self, task, ctx):
        raise NotImplementedError

    def check(self, task, ctx, output) -> Outcome:
        raise NotImplementedError

    def check_failure(self, task, ctx, failure) -> int:
        """Check a typed integration failure; return the steps completed."""
        _require(isinstance(failure.cause, StepError), "failure cause is not a StepError")
        return len(failure.trajectory) - 1

    def perturb(self, task, ctx, output):
        """A deliberately wrong copy of output, for the negative control."""
        raise NotImplementedError

    def cleanup(self, ctx):
        pass


def _key(overrides):
    return tuple(sorted((overrides or {}).items()))


# ---------------------------------------------------------------------------
# drift: ensembles of long jhi1 runs through the CLI path
# ---------------------------------------------------------------------------


def _read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows.reshape(len(lines) - 1, len(header))


class Drift(Workload):
    """``jhi drift`` runs (trajectory plus both drift series) from sampled starts."""

    name = "drift"
    runs = (
        ("jacobi2d", COSSIN, 1),
        ("jacobi3d", None, 1),
        ("jacobi4d", None, 1),
        ("rigid_body", None, 1),
    )
    round_seconds = 1.5
    ds = 0.005
    warmup_steps = 50
    # Bounds for realizations that are exact or transported from an exact one;
    # the first-order approximate realizations get the consistency checks only.
    h_drift_bound = 1e-2
    casimir_bound = 1e-10
    emit = ("trajectory", "hamiltonian_drift", "casimir_drift")

    def steps_for(self, order):
        return 1000

    def prepare(self, task, index):
        outdir = self.workdir / f"task-{index}"
        shutil.rmtree(outdir, ignore_errors=True)
        return outdir

    def run(self, task, ctx):
        config = cli.RunConfig(
            model=task.model,
            method=f"jhi{task.order}",
            span=(0.0, task.steps * task.ds),
            ds=task.ds,
            x0=task.x0,
            t0=task.t0,
            params=dict(task.overrides or {}),
            outputs=str(ctx),
            emit=self.emit,
        )
        return cli.run(config, "drift")

    def _lifted(self, model, rows):
        return np.array([r[-1] * model.hamiltonian.value(r[1:-1]) for r in rows])

    def check(self, task, ctx, output):
        model = self.model_for(task)
        _, traj = _read_csv(ctx / "trajectory.csv")
        _require(traj.shape[0] == task.steps + 1, "trajectory has the wrong length")
        _require(
            tuple(traj[0, 1:]) == task.x0 + (task.t0,),
            "trajectory does not start at the input state",
        )
        _require(
            abs(traj[-1, 0] - task.steps * task.ds) <= 1e-9,
            "trajectory does not end at the span end",
        )
        exact = model.realization.kind != "first_order_approximate"
        lifted = self._lifted(model, traj)
        t = traj[:, -1]
        expected = (lifted[0] - lifted) / t
        _, h_rows = _read_csv(ctx / "hamiltonian_drift.csv")
        _require(np.array_equal(h_rows[:, 0], traj[:, 0]), "drift times differ")
        scale = 1.0 + np.abs(lifted[0] / t) + np.abs(lifted / t)
        _require(
            np.all(np.abs(h_rows[:, 1] - expected) <= 1e-9 * scale),
            "hamiltonian drift does not match the trajectory",
        )
        h_max = float(np.max(np.abs(h_rows[:, 1])))
        h0 = abs(model.hamiltonian.value(task.x0))
        if exact:
            _require(
                h_max <= self.h_drift_bound * (1.0 + h0),
                f"hamiltonian drift {h_max:.3g} above bound",
            )
        for name, field in model.casimirs:
            values = np.array([float(field(tuple(float(v) for v in r[1:]))) for r in traj])
            _, c_rows = _read_csv(ctx / f"casimir_drift_{name}.csv")
            drift = values - values[0]
            _require(
                np.all(np.abs(c_rows[:, 1] - drift) <= 1e-9 * (1.0 + np.abs(values))),
                f"casimir {name} drift does not match the trajectory",
            )
            if exact:
                _require(
                    np.max(np.abs(c_rows[:, 1])) <= self.casimir_bound * (1.0 + abs(values[0])),
                    f"casimir {name} drifts on an exact realization",
                )
        return Outcome(task.steps, max_h_drift=h_max)

    def check_failure(self, task, ctx, failure):
        steps = super().check_failure(task, ctx, failure)
        report = json.loads((ctx / "failure_report.json").read_text())
        _require(report["step_index"] == failure.step_index, "failure report step differs")
        _, partial = _read_csv(ctx / "trajectory_partial.csv")
        _require(partial.shape[0] == failure.step_index + 1, "partial trajectory length")
        _require(
            tuple(partial[0, 1:]) == task.x0 + (task.t0,),
            "partial trajectory does not start at the input state",
        )
        return steps

    def perturb(self, task, ctx, output):
        path = ctx / "trajectory.csv"
        lines = path.read_text().splitlines()
        fields = lines[-1].split(",")
        fields[1] = repr(float(fields[1]) * (1.0 + 1e-3) + 1e-3)
        lines[-1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        return output

    def cleanup(self, ctx):
        shutil.rmtree(ctx, ignore_errors=True)


# ---------------------------------------------------------------------------
# order_table: published convergence tables from perturbed default states
# ---------------------------------------------------------------------------


class OrderTable(Workload):
    """Reference solution, then every grid of the protocol, per table."""

    name = "order_table"
    runs = (
        ("jacobi3d", None, 1),
        ("jacobi3d", None, 3),
        ("damped", None, 1),
        ("damped", None, 3),
        ("lotka_volterra", None, 1),
    )
    round_seconds = 10.7
    perturbation = 0.02
    # Acceptance windows on the last three observed orders (criteria 3, 5, 6).
    windows = {1: (1.85, 2.15), 3: (3.85, 4.15)}

    def start(self, model, rng):
        x0 = np.asarray(model.default_x0) + self.perturbation * rng.standard_normal(model.dim)
        return tuple(float(v) for v in x0), model.default_t0

    def steps_for(self, order):
        return 0  # the protocol fixes the grids

    def run(self, task, ctx):
        proto = study_protocol(task.model)
        model = models.build_model(task.model, proto.overrides)
        grids, ref_steps = proto.grids, proto.reference_steps
        if task.steps:  # a warm-up task: the two coarsest grids only
            grids = proto.grids[:2]
            ref_steps = 4 * grids[-1]
        start = task.start
        ref = integrator.reference_solution(model, proto.span, ref_steps, start)
        return diagnostics.estimate_order(
            model, f"jhi{task.order}", proto.span, grids, ref,
            s0=start, extended=proto.extended,
        )

    def check(self, task, ctx, rows):
        proto = study_protocol(task.model)
        _require(len(rows) == len(proto.grids), "table has the wrong number of rows")
        width = proto.span[1] - proto.span[0]
        for row, n in zip(rows, proto.grids):
            _require(abs(row.ds - width / n) <= 1e-12 * width, "row step size differs")
            _require(math.isfinite(row.error_l2) and row.error_l2 > 0.0, "bad error")
        for prev, row in zip(rows, rows[1:]):
            order = math.log2(prev.error_l2 / row.error_l2)
            _require(
                row.observed_order is not None and abs(row.observed_order - order) <= 1e-9,
                "observed order does not match the errors",
            )
        lo, hi = self.windows[task.order]
        tail = [row.observed_order for row in rows[-3:]]
        _require(
            all(lo <= v <= hi for v in tail),
            f"tail orders {tail} outside {lo}..{hi}",
        )
        return Outcome(proto.reference_steps + sum(proto.grids), max_err=rows[-1].error_l2)

    def perturb(self, task, ctx, rows):
        return rows[:-1] + (replace(rows[-1], error_l2=3.0 * rows[-1].error_l2),)


# ---------------------------------------------------------------------------
# high_order: short jhi3/jhi4 runs where S_3/S_4 come from the recursion
# ---------------------------------------------------------------------------


class HighOrder(Workload):
    """Short jhi3 and jhi4 runs, checked against a fine RK4 reference."""

    name = "high_order"
    runs = tuple(
        (name, ov, order)
        for name, ov in (
            ("lotka_volterra", None),
            ("jacobi2d", COSSIN),
            ("rigid_body", None),
            ("jacobi4d", None),
        )
        for order in (3, 4)
    )
    round_seconds = 1.9
    ds = 0.01
    steps = {3: 4, 4: 2}
    refine = 64
    # Final-state error bound, relative to how far the reference moved.  A
    # first-order approximate realization caps the accuracy of every order;
    # over 250 sampled starts of 10-step jhi3 runs its worst was 0.016.
    tolerance = {
        "exact": 1e-4,
        "transported": 1e-4,
        "first_order_approximate": 0.1,
    }

    def steps_for(self, order):
        return self.steps[order]

    def prepare(self, task, index):
        ref = integrator.reference_solution(
            self.model_for(task), (0.0, task.steps * task.ds),
            task.steps * self.refine, task.start,
        )
        return np.asarray(ref.states[-1].coords())

    def run(self, task, ctx):
        model = models.build_model(task.model, task.overrides)
        return integrator.integrate(
            model, f"jhi{task.order}", (0.0, task.steps * task.ds), task.ds, task.start
        )

    def check(self, task, ref, traj):
        model = self.model_for(task)
        _require(len(traj) == task.steps + 1, "trajectory has the wrong length")
        _require(traj.states[0].coords() == task.x0 + (task.t0,), "wrong start state")
        final = np.asarray(traj.states[-1].coords())
        err = float(np.max(np.abs(final - ref)))
        bound = self.tolerance[model.realization.kind] * self._moved(task, ref)
        _require(err <= bound, f"final state off the reference by {err:.3g} > {bound:.3g}")
        h_drift = hamiltonian_drift(traj, model).max_abs()
        return Outcome(task.steps, max_err=err, max_h_drift=h_drift)

    @staticmethod
    def _moved(task, ref):
        return float(np.max(np.abs(ref - np.asarray(task.x0 + (task.t0,))))) + 1e-12

    def perturb(self, task, ref, traj):
        last = traj.states[-1]
        x = np.array(last.x)
        x[0] += 0.5 * self._moved(task, ref)
        states = traj.states[:-1] + (ExtendedState(x, last.t),)
        return Trajectory(traj.times, states, traj.method_label, traj.per_step_diagnostics)


WORKLOADS = {cls.name: cls for cls in (Drift, OrderTable, HighOrder)}
