"""Spans around jhi's public functions, and the per-layer metrics they give.

A span is one call of a wrapped function: (name, start, end, parent span,
task id).  Spans are kept in flat arrays while the traced run goes and are
written once at the end.  A span's self time is its duration minus the
durations of its direct children, so the self times of all spans add up to
the summed duration of the top-level spans.

The wrappers live here, not in jhi: ``instrumented`` swaps module and class
attributes of jhi for traced versions and puts the originals back on exit.
"""

from __future__ import annotations

import array
import collections
import contextlib
import time
import types

import numpy as np

# Spans, in report order.  Each gives "<name>.calls" and "<name>.self_s".
SPANS = (
    "integrator.integrate_jhi",
    "integrator.integrate_rk",
    "integrator.linear_solve",
    "generating.compute_coefficients",
    "generating.covector_kernel",
    "jets.evaluate_with_gradient",
    "birealization.alpha_kernel",
    "birealization.beta",
    "birealization.domain_ok",
    "jacobi.lifted_vector_field",
    "jacobi.ExtendedState",
    "models.build_model",
    "diagnostics.estimate_order",
    "diagnostics.trajectory_error",
    "diagnostics.hamiltonian_drift",
    "diagnostics.casimir_drift",
    "cli.run",
    "cli.write_csv",
)

# Task outcome classes counted as integrator.failures.<class>.
FAILURE_CLASSES = (
    "DomainViolationError",
    "NewtonDivergenceError",
    "DegenerateStepError",
    "InvalidScaleError",
    "EvaluationError",
    "OutputCheckError",
    "other",
)


def layer_metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["integrator.steps"] = "count"
    units["integrator.newton_iterations"] = "count"
    units["integrator.newton_iters_per_step"] = "iter/step"
    units["integrator.newton_useful_ratio"] = "ratio"
    for cls in FAILURE_CLASSES:
        units[f"integrator.failures.{cls}"] = "count"
    units["generating.zero_flagged_ratio"] = "ratio"
    units["generating.recursion_coeffs"] = "count"
    units["birealization.domain_ok.reject_ratio"] = "ratio"
    units["cli.bytes_written"] = "B"
    units["unattributed_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.untraced_wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Records spans in flat arrays; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.task = array.array("i")
        self.counts = collections.Counter()
        self.task_id = -1
        self._open = [-1]

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        index = len(self.start)
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(name_id)
        self.parent.append(self._open[-1])
        self.task.append(self.task_id)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(self.clock())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = self.clock()
            self._open.pop()

    def self_times(self):
        """Per span name: (calls, summed self time); plus the top-level total."""
        n = len(self.start)
        if n == 0:
            return {}, 0.0
        duration = np.frombuffer(self.end, dtype=float) - np.frombuffer(
            self.start, dtype=float
        )
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=n
        )
        own = duration - children
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        calls = np.bincount(ids, minlength=len(self.names))
        totals = np.bincount(ids, weights=own, minlength=len(self.names))
        per_name = {
            name: (int(calls[i]), float(totals[i]))
            for i, name in enumerate(self.names)
        }
        return per_name, float(duration[~nested].sum())

    def save(self, path):
        """Write every span once, as arrays in one compressed file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            task=np.frombuffer(self.task, dtype=np.int32),
        )


def layer_metrics(tracer, traced_wall, untraced_wall):
    """The per-layer metrics of one traced run, as name -> (value, unit)."""
    per_name, top_level = tracer.self_times()
    counts = tracer.counts
    values = {}
    for name in SPANS:
        calls, own = per_name.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = own
    steps = counts["integrator.steps"]
    jhi_steps = counts["integrator.jhi_steps"]
    iterations = counts["integrator.newton_iterations"]
    solves = values["integrator.linear_solve.calls"]
    values["integrator.steps"] = steps
    values["integrator.newton_iterations"] = iterations
    values["integrator.newton_iters_per_step"] = (
        iterations / jhi_steps if jhi_steps else 0.0
    )
    values["integrator.newton_useful_ratio"] = (
        iterations / solves if solves else 0.0
    )
    for cls in FAILURE_CLASSES:
        values[f"integrator.failures.{cls}"] = counts[f"failures.{cls}"]
    coeffs = counts["generating.coeffs"]
    values["generating.zero_flagged_ratio"] = (
        counts["generating.zero_flagged"] / coeffs if coeffs else 0.0
    )
    values["generating.recursion_coeffs"] = counts["generating.recursion_coeffs"]
    checks = values["birealization.domain_ok.calls"]
    values["birealization.domain_ok.reject_ratio"] = (
        counts["birealization.domain_rejects"] / checks if checks else 0.0
    )
    values["cli.bytes_written"] = counts["cli.bytes_written"]
    values["unattributed_s"] = traced_wall - top_level
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    units = layer_metric_units()
    return {name: (values[name], units[name]) for name in units}


def _module_view(module, **replaced):
    """A copy of a module's namespace with some attributes replaced."""
    view = types.ModuleType(module.__name__)
    view.__dict__.update(module.__dict__)
    view.__dict__.update(replaced)
    return view


@contextlib.contextmanager
def instrumented(tracer):
    """Route jhi's public functions through ``tracer`` inside the block."""
    from jhi import birealization, cli, diagnostics, generating, integrator
    from jhi import jacobi, jets, models
    from jhi.errors import IntegrationFailure

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def spanned(name, fn):
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)

        return wrapper

    def record_steps(traj):
        tracer.counts["integrator.steps"] += len(traj) - 1
        if traj.per_step_diagnostics is not None:
            tracer.counts["integrator.jhi_steps"] += len(traj) - 1
            tracer.counts["integrator.newton_iterations"] += sum(
                d.newton_iterations for d in traj.per_step_diagnostics
            )

    original_integrate = integrator.integrate

    def integrate(model, method, *args, **kwargs):
        is_jhi = str(method).strip().lower().startswith("jhi")
        name = "integrator.integrate_jhi" if is_jhi else "integrator.integrate_rk"
        try:
            traj = tracer.call(name, original_integrate, model, method, *args, **kwargs)
        except IntegrationFailure as exc:
            record_steps(exc.trajectory)
            raise
        record_steps(traj)
        return traj

    original_coefficients = generating.compute_coefficients

    def compute_coefficients(*args, **kwargs):
        coeffs = tracer.call(
            "generating.compute_coefficients", original_coefficients, *args, **kwargs
        )
        tracer.counts["generating.coeffs"] += coeffs.order
        tracer.counts["generating.zero_flagged"] += sum(coeffs.zero_flags)
        tracer.counts["generating.recursion_coeffs"] += coeffs.provenance.count(
            "recursion"
        )
        return coeffs

    original_domain_ok = birealization.BiRealization.domain_ok

    def domain_ok(self, data):
        ok = tracer.call("birealization.domain_ok", original_domain_ok, self, data)
        if not ok:
            tracer.counts["birealization.domain_rejects"] += 1
        return ok

    original_build = models.build_model

    def build_model(*args, **kwargs):
        model = tracer.call("models.build_model", original_build, *args, **kwargs)
        realization = model.realization
        object.__setattr__(
            realization,
            "alpha_kernel",
            spanned("birealization.alpha_kernel", realization.alpha_kernel),
        )
        return model

    def writer(fn):
        def wrapper(path, *args, **kwargs):
            tracer.call("cli.write_csv", fn, path, *args, **kwargs)
            tracer.counts["cli.bytes_written"] += path.stat().st_size

        return wrapper

    traced_solve = spanned("integrator.linear_solve", np.linalg.solve)
    numpy_view = _module_view(
        np, linalg=_module_view(np.linalg, solve=traced_solve)
    )
    traced_order = spanned("diagnostics.estimate_order", diagnostics.estimate_order)
    traced_h_drift = spanned(
        "diagnostics.hamiltonian_drift", diagnostics.hamiltonian_drift
    )
    traced_c_drift = spanned("diagnostics.casimir_drift", diagnostics.casimir_drift)
    try:
        for owner in (integrator, diagnostics, cli):
            patch(owner, "integrate", integrate)
        patch(integrator, "np", numpy_view)
        patch(integrator, "compute_coefficients", compute_coefficients)
        patch(
            integrator,
            "lifted_vector_field",
            spanned("jacobi.lifted_vector_field", integrator.lifted_vector_field),
        )
        patch(
            generating.GeneratingCoefficients,
            "covector_kernel",
            spanned(
                "generating.covector_kernel",
                generating.GeneratingCoefficients.covector_kernel,
            ),
        )
        # As seen by generating only: the Hamiltonian gradient inside
        # lifted_vector_field stays in that span's self time.
        patch(
            generating,
            "jets",
            _module_view(
                jets,
                evaluate_with_gradient=spanned(
                    "jets.evaluate_with_gradient", jets.evaluate_with_gradient
                ),
            ),
        )
        patch(
            birealization.BiRealization,
            "beta",
            spanned("birealization.beta", birealization.BiRealization.beta),
        )
        patch(birealization.BiRealization, "domain_ok", domain_ok)
        patch(
            jacobi.ExtendedState,
            "__post_init__",
            spanned("jacobi.ExtendedState", jacobi.ExtendedState.__post_init__),
        )
        for owner in (models, cli):
            patch(owner, "build_model", build_model)
        for owner in (diagnostics, cli):
            patch(owner, "estimate_order", traced_order)
        patch(
            diagnostics,
            "trajectory_error",
            spanned("diagnostics.trajectory_error", diagnostics.trajectory_error),
        )
        for owner in (diagnostics, cli):
            patch(owner, "hamiltonian_drift", traced_h_drift)
            patch(owner, "casimir_drift", traced_c_drift)
        patch(cli, "run", spanned("cli.run", cli.run))
        for attr in ("write_trajectory_csv", "write_drift_csv", "write_order_study_csv"):
            patch(cli, attr, writer(getattr(cli, attr)))
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
