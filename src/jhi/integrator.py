"""One-step JHI scheme and textbook baselines on the lifted field.

A JHI-k step solves the implicit equation alpha(y, xi(y)) = x_n for the
midpoint-like state y, where xi(y) = sum_{i<=k} ds^i grad S_i(y), then
pushes forward through beta to obtain x_{n+1}.  The baselines (explicit
midpoint RK2, Heun, classical RK4, a semi-implicit Euler sweep)
integrate the lifted vector field directly and serve as references in
order studies and drift comparisons.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import partial
from operator import add, le, sub, truediv
from typing import Optional, Tuple

import numpy as np

from . import jets
from .birealization import BiRealization
from .errors import (
    ConfigError,
    DegenerateStepError,
    DomainViolationError,
    EvaluationError,
    IntegrationFailure,
    InvalidScaleError,
    JhiError,
    NewtonDivergenceError,
    StepError,
)
from .generating import GeneratingCoefficients, compute_coefficients
from .jacobi import (
    ExtendedState,
    lifted_field_from_parts,
    lifted_field_parts,
    lifted_hamiltonian_field,
    lifted_vector_field,  # noqa: F401 - perfbench/spans.py wraps it here
)

__all__ = [
    "StepConfig",
    "StepDiagnostic",
    "Trajectory",
    "jhi_step",
    "integrate",
    "compiled_kernels",
    "coefficient_report",
    "reference_solution",
]

METHOD_NAMES = ("jhi1", "jhi2", "jhi3", "jhi4", "rk2", "heun", "rk4", "symplectic_euler")


@dataclass(frozen=True)
class StepConfig:
    """Solver settings for a JHI run."""

    ds: float
    order: int = 1
    newton_tol: float = 1e-12
    newton_max_iter: int = 50

    def __post_init__(self):
        if not (math.isfinite(self.ds) and self.ds > 0.0):
            raise ConfigError("step size ds must be positive and finite")
        if not 1 <= int(self.order) <= 4:
            raise ConfigError("generating order must lie in 1..4")
        if self.newton_tol <= 0.0:
            raise ConfigError("newton_tol must be positive")
        if int(self.newton_max_iter) < 1:
            raise ConfigError("newton_max_iter must be at least 1")


@dataclass(frozen=True)
class StepDiagnostic:
    """One JHI step's solve: Newton iterations (the fallback), max residual,
    shrunk last step or not, fixed-point iterations, continuation rungs."""

    newton_iterations: int
    residual: float
    shrunk: bool = False
    fixed_point_iterations: int = 0
    continuation_rungs: int = 0


class Trajectory:
    """Discrete orbit: sample times plus extended states.

    The states are kept as one read-only (samples, dim + 1) array of
    coordinates, t last; ``states`` builds the ``ExtendedState`` tuple on
    first access.
    """

    __slots__ = ("times", "method_label", "per_step_diagnostics", "_coords", "_states")

    def __init__(self, times, states, method_label, per_step_diagnostics=None):
        self._states = tuple(states)
        rows = [s.coords() for s in self._states]
        coords = np.array(rows) if rows else np.empty((0, 0))
        self._set(times, coords, method_label, per_step_diagnostics)

    @classmethod
    def _from_rows(cls, times, flat, width, method_label, per_step_diagnostics=None):
        """A trajectory over the rows in the array('d') ``flat``, ``width``
        values each, back to back; the array shares flat's memory."""
        traj = cls.__new__(cls)
        traj._states = None
        coords = np.frombuffer(flat).reshape(-1, width)
        traj._set(times, coords, method_label, per_step_diagnostics)
        return traj

    def _set(self, times, coords, method_label, per_step_diagnostics):
        self.times = tuple(times)
        if len(self.times) != len(coords):
            raise ConfigError("times and states lengths differ")
        if any(map(le, self.times[1:], self.times)):
            raise ConfigError("trajectory times must increase strictly")
        coords.flags.writeable = False
        self._coords = coords
        self.method_label = method_label
        self.per_step_diagnostics = per_step_diagnostics

    @property
    def states(self) -> Tuple[ExtendedState, ...]:
        """One ``ExtendedState`` per sample, built on first access."""
        if self._states is None:
            self._states = tuple(ExtendedState(r[:-1], r[-1]) for r in self._coords)
        return self._states

    def __len__(self) -> int:
        return len(self.times)

    def spatial_matrix(self) -> np.ndarray:
        """Jacobi coordinates stacked into shape (samples, dim)."""
        return self._coords[:, :-1]

    def extended_matrix(self) -> np.ndarray:
        """Extended coordinates, t last, in shape (samples, dim + 1)."""
        return self._coords


def _checked(coords):
    """coords, after ExtendedState's checks: all finite, t (last) nonzero."""
    if not all(map(math.isfinite, coords)):
        raise InvalidScaleError("non-finite extended state")
    if coords[-1] == 0.0:
        raise InvalidScaleError("scale coordinate t must be nonzero")
    return coords


# ---------------------------------------------------------------------------
# Implicit solve
# ---------------------------------------------------------------------------


_DOMAIN_FAULTS = (EvaluationError, ZeroDivisionError, OverflowError, FloatingPointError)


def _residual_terms(realization, coeffs, ds, y_coords, target_coords):
    """alpha(y, xi(y)) - target, and the step covector xi(y)."""
    xi = coeffs.covector_kernel(ds, y_coords)
    image = realization.alpha_kernel(y_coords, xi)
    return tuple(a - b for a, b in zip(image, target_coords)), xi


class _StepKernels:
    """Compiled step kernels of one (realization, coefficients) pair.

    ``residual`` maps y + target + (ds,) to the residual followed by xi(y),
    one trace of ``_residual_terms``; ``beta`` maps y + xi to beta(y, xi).
    """

    def __init__(self, realization, coeffs):
        # imported at the first kernel, not with the package: without
        # cached bytecode, compiling this module is most of its cost
        from .compiled import Kernel

        m = realization.size
        self.realization = realization  # keeps id(realization) from reuse

        def residual(inputs):
            terms, xi = _residual_terms(
                realization, coeffs, inputs[2 * m],
                tuple(inputs[:m]), tuple(inputs[m : 2 * m]),
            )
            return terms + tuple(xi)

        def beta(inputs):
            return realization.beta_kernel(tuple(inputs[:m]), tuple(inputs[m:]))

        self.residual = Kernel(f"residual_jhi{coeffs.order}", residual)
        self.beta = Kernel("beta", beta)


def _step_kernels(realization, coeffs) -> _StepKernels:
    entry = coeffs.kernels.get(id(realization))
    if entry is None:
        entry = coeffs.kernels[id(realization)] = _StepKernels(realization, coeffs)
    return entry


def _residual_vector(realization, coeffs, ds, y, target_coords):
    """alpha(y, xi(y)) - target and xi(y), as lists of floats."""
    m = len(y)
    kernel = _step_kernels(realization, coeffs).residual
    try:
        values = kernel([*map(float, y), *map(float, target_coords), float(ds)])
    except _DOMAIN_FAULTS as exc:
        raise DomainViolationError(
            f"implicit solve left the realization domain: {exc}"
        ) from exc
    if not all(map(math.isfinite, values[:m])):
        raise DomainViolationError("implicit solve produced non-finite residual")
    return list(values[:m]), values[m:]


_MAX_BACKTRACK = 60


def _damped_update(realization, coeffs, ds, y, residual, target_coords):
    """One Newton update, halving the increment while it exits the chart.

    The Jacobian is one ``Kernel.dual`` pass over the compiled residual.
    Realizations transported through a coordinate change are only defined
    on that chart's domain (positive quadrant, punctured plane, ...); a
    coarse step can propose a full Newton move that lands outside it.
    Backtracking keeps the iterate feasible without giving up the step.
    Returns the new iterate with its residual and xi.
    """
    m = len(y)
    seeded = [jets.Dual.seed(float(v), j, m) for j, v in enumerate(y)]
    try:
        terms = _step_kernels(realization, coeffs).residual.dual(
            seeded + [*target_coords, float(ds)]
        )[:m]
        delta = np.linalg.solve(np.array([
            [float(p) for p in t.partials] if isinstance(t, jets.Dual) else [0.0] * m
            for t in terms
        ]), residual)
    except _DOMAIN_FAULTS as exc:
        raise DomainViolationError(
            f"implicit solve left the realization domain: {exc}"
        ) from exc
    except np.linalg.LinAlgError as exc:
        raise DegenerateStepError(f"singular Newton matrix: {exc}") from exc
    fraction = 1.0
    for _ in range(_MAX_BACKTRACK):
        trial = y - fraction * delta
        try:
            r, xi = _residual_vector(realization, coeffs, ds, trial, target_coords)
        except DomainViolationError:
            fraction *= 0.5
            continue
        return trial, np.array(r), xi
    raise DomainViolationError(
        "Newton backtracking could not re-enter the realization domain"
    )


def _initial_guess(realization, coeffs, ds, target_coords, predictor_shift):
    """First feasible iterate: predictor shift, damped shifts, then target.

    The implicit unknown sits roughly half a step ahead of the target, so
    a predicted shift usually lands inside the chart domain even when the
    target itself does not evaluate under the full-step covector.
    Returns the iterate with its residual and xi.
    """
    failure = None
    for f in (None,) if predictor_shift is None else (1.0, 0.5, 0.25, 0.125, None):
        y = list(target_coords) if f is None else [
            a + f * b for a, b in zip(target_coords, predictor_shift)
        ]
        try:
            return (y, *_residual_vector(realization, coeffs, ds, y, target_coords))
        except DomainViolationError as exc:
            failure = exc
    raise DomainViolationError(
        "no feasible starting point for the implicit step"
    ) from failure


class _SolveLog:
    """Iterations of a step's solves, continuation rungs, root and xi(root)."""

    fixed_point = newton = rungs = 0
    root = xi = None


def _fixed_point(kernel, y, r, xi, tail, scale, cap):
    """y <- y - r(y) in floats while it contracts, then polish.

    Each iterate must lower max |r_i| / scale_i.  The iteration stops
    there, where max |r_i| falls by less than half (after the first
    iteration), at a domain fault or non-finite residual, or after
    ``cap`` iterations, with y the best iterate so far.  Returns
    (y, r, xi, iterations, accepted).
    """
    m = len(y)
    level = max(map(truediv, map(abs, r), scale))
    size = max(map(abs, r))
    iterations = 0
    while iterations < cap and level:
        trial = list(map(sub, y, r))
        try:
            values = kernel(trial + tail)
        except _DOMAIN_FAULTS:
            break
        r_next = values[:m]
        if not all(map(math.isfinite, r_next)):
            break
        mags = list(map(abs, r_next))
        level_next = max(map(truediv, mags, scale))
        if level_next >= level:
            break  # polish done, or no progress: keep y
        stalled = iterations and max(mags) > 0.5 * size
        y, r, xi, level, size = trial, r_next, values[m:], level_next, max(mags)
        iterations += 1
        if stalled and level > 1.0:
            break
    return y, r, xi, iterations, level <= 1.0


def _solve_step_equation(realization, coeffs, cfg, target, ds, predictor_shift=None,
                         log=None):
    """Solve alpha(y, xi(y)) = target for y; both are coordinate lists.

    The residual's Jacobian is I + O(ds), so y <- y - r(y) contracts at
    O(ds) for one compiled residual per iteration (Hairer-Lubich-Wanner,
    *GNI* VIII.6).  It runs first, to componentwise acceptance
    |r_i| <= tol*(1+|target_i|) and on while the normalized residual falls
    (pass-through Casimir slots and other small components keep relative
    accuracy this way).  Where it stops short, damped Newton takes over,
    with up to two polish iterations; each phase runs at most
    ``newton_max_iter`` iterations.  Returns (y, Newton iterations, max
    residual), y checked as a state; ``log`` adds up both phases'
    iterations, keeps y and xi(y).
    """
    if ds == 0.0:
        return list(target), 0, 0.0
    cap = cfg.newton_max_iter
    scale = [cfg.newton_tol * (1.0 + abs(v)) for v in target]
    y, r, xi = _initial_guess(realization, coeffs, ds, target, predictor_shift)
    kernel = _step_kernels(realization, coeffs).residual
    y, r, xi, fixed, accepted = _fixed_point(
        kernel, y, r, xi, [*target, float(ds)], scale, cap
    )
    newton = 0
    if not accepted:
        y, r, scale = np.array(y), np.array(r), np.array(scale)
        level, polish = float(np.max(np.abs(r) / scale)), 0
        while level > 1.0 or (newton < cap and level and polish < 2):
            if newton >= cap:
                raise NewtonDivergenceError(
                    f"implicit step did not converge in {cap} iterations",
                    residual=float(np.max(np.abs(r))),
                )
            polish = 0 if level > 1.0 else polish + 1
            try:
                update = _damped_update(realization, coeffs, ds, y, r, target)
            except StepError:
                if polish:
                    break
                raise
            level_next = float(np.max(np.abs(update[1]) / scale))
            if polish and level_next >= level:
                break
            (y, r, xi), level = update, level_next
            newton += 1
        y, r = y.tolist(), r.tolist()
    if log is not None:
        log.fixed_point += fixed
        log.newton += newton
        log.root, log.xi = y, xi
    return _checked(y), newton, max(map(abs, r))


def _predictor_shift(rhs, x_n, ds):
    """Euler half step 0.5 ds X(x_n), or None where the field fails."""
    try:
        shift = [0.5 * ds * v for v in rhs(x_n)]
    except _DOMAIN_FAULTS:
        return None
    return shift if all(map(math.isfinite, shift)) else None


_CONTINUATION_LADDERS = (4, 8, 16, 32)


def _solve_robust(realization, coeffs, cfg, target, ds, predictor_shift):
    """Solve the step equation, falling back to continuation in ds.

    A coarse step can put every explicit starting guess outside the chart
    domain even though the root itself is feasible.  Re-solving the same
    equation for a ladder of intermediate step sizes, warm-starting each
    solve from the previous root, walks the solver to the full-step root
    without altering the discrete map.  Returns (y, max residual, log).
    """
    first_failure = None
    for rungs in (1,) + _CONTINUATION_LADDERS:
        shift = predictor_shift
        log = _SolveLog()
        try:
            for j in range(1, rungs + 1):
                y, _, residual = _solve_step_equation(
                    realization, coeffs, cfg, target, ds * j / rungs, shift, log
                )
                shift = list(map(sub, y, target))
            log.rungs = rungs if rungs > 1 else 0
            return y, residual, log
        except (DomainViolationError, NewtonDivergenceError) as exc:
            first_failure = first_failure or exc
    raise first_failure


def _jhi_advance(realization, coeffs, cfg, x_n, ds, shift):
    """One step from coordinates x_n, solving from x_n + shift:
    (image coordinates, residual, log)."""
    y, residual, log = _solve_robust(realization, coeffs, cfg, x_n, ds, shift)
    xi = log.xi
    if not all(map(math.isfinite, xi)):
        raise EvaluationError("non-finite step covector")
    if not realization.domain_kernel(tuple(y), tuple(xi)):
        raise DomainViolationError("step covector left the realization domain")
    image = _step_kernels(realization, coeffs).beta([*y, *xi])
    return _checked(image), residual, log


def jhi_step(
    model,
    realization: BiRealization,
    coeffs: GeneratingCoefficients,
    cfg: StepConfig,
    s_n: ExtendedState,
    ds: Optional[float] = None,
) -> ExtendedState:
    """Advance one JHI step from s_n.

    ``ds`` overrides cfg.ds for this step and may be negative, which runs
    the scheme backwards (beta and alpha swap roles under xi -> -xi).
    """
    step_ds = cfg.ds if ds is None else float(ds)
    if step_ds == 0.0:
        return s_n
    x_n = s_n.coords()
    try:
        image, _, _ = _jhi_advance(
            realization, coeffs, cfg, x_n, step_ds,
            _predictor_shift(_lifted_rhs(model), x_n, step_ds),
        )
    except StepError:
        raise
    except JhiError as exc:
        raise StepError(f"step failed for model {model.name}: {exc}") from exc
    return ExtendedState.from_coords(image)


# ---------------------------------------------------------------------------
# Baseline one-step maps on the lifted field
# ---------------------------------------------------------------------------


def _lifted_rhs(model):
    """X_Hhat at extended float coordinates, for the JHI predictor: the
    compiled H, dH, Lambda and E, contracted in floats."""
    from .compiled import Kernel

    fn = partial(lifted_field_parts, model.structure, model.hamiltonian)
    parts = _cached(model, "field", lambda: Kernel("lifted_field", fn))
    return lambda coords: lifted_field_from_parts(parts(coords[:-1]), coords[-1])


# A stepper maps (field f, coordinates c, step h) to the new coordinates;
# it runs on scalars, so one trace compiles the whole step.


def _rk2_step(f, c, h):
    mid = [a + 0.5 * h * k for a, k in zip(c, f(c))]
    return [a + h * k for a, k in zip(c, f(mid))]


def _heun_step(f, c, h):
    k1 = f(c)
    end = [a + h * k for a, k in zip(c, k1)]
    return [a + 0.5 * h * (p + q) for a, p, q in zip(c, k1, f(end))]


def _rk4_step(f, c, h):
    k1 = f(c)
    k2 = f([a + 0.5 * h * k for a, k in zip(c, k1)])
    k3 = f([a + 0.5 * h * k for a, k in zip(c, k2)])
    k4 = f([a + h * k for a, k in zip(c, k3)])
    return [
        a + h / 6.0 * (p + 2.0 * q + 2.0 * r + w)
        for a, p, q, r, w in zip(c, k1, k2, k3, k4)
    ]


def _semi_implicit_step(f, c, h):
    # Gauss-Seidel sweep: each component update sees the components
    # already advanced this step.  On the (q, p) slice of the oscillator
    # this is the classical semi-implicit Euler; z and t follow
    # explicitly afterwards.
    out = list(c)
    for j in range(len(out)):
        out[j] = out[j] + h * f(out)[j]
    return out


_BASELINE_STEPPERS = {
    "rk2": _rk2_step,
    "heun": _heun_step,
    "rk4": _rk4_step,
    "symplectic_euler": _semi_implicit_step,
}


def _baseline_kernel(model, kind):
    """The compiled step of a baseline method, one per catalog model.

    It maps (coordinates..., h) to groups of m = dim + 1 values: H and dH
    at the first field evaluation, the state and H and dH of each further
    one, and last the new coordinates.  Returning them keeps every
    evaluation of H in the emitted code and lets ``_checked_step`` make
    each evaluation's checks.
    """
    from .compiled import Kernel

    structure, hamiltonian = model.structure, model.hamiltonian

    def step(inputs):
        out = []

        def field(coords):
            if out:
                out.extend(coords)
            parts = lifted_field_parts(structure, hamiltonian, coords[:-1])
            out.extend(parts[: len(coords)])
            return lifted_field_from_parts(parts, coords[-1])

        out.extend(_BASELINE_STEPPERS[kind](field, inputs[:-1], inputs[-1]))
        return out

    return _cached(model, kind, lambda: Kernel(f"step_{kind}", step))


def _checked_step(out, m):
    """The new coordinates closing a baseline step's output, once its
    groups pass in order: H and dH finite, each state as ``_checked``."""
    if not all(map(math.isfinite, out)) or 0.0 in out[2 * m - 1 :: 2 * m]:
        for k in range(0, len(out), m):
            group = out[k : k + m]
            if k // m % 2:
                _checked(group)
            elif not all(map(math.isfinite, group)):
                raise EvaluationError("non-finite value in gradient evaluation")
    return out[-m:]


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


# Per process, for models that carry a catalog key (see models.build_model):
# (key, order) -> (realization, coefficients), whose compiled step kernels
# live on the coefficients, (key, "field") -> the lifted-field kernel, and
# (key, method) -> the step kernel of a baseline method.
_CACHE = {}


def _cached(model, slot, build):
    key = getattr(model, "catalog_key", None)
    if key is None:
        return build()
    entry = _CACHE.get((key, slot))
    if entry is None:
        entry = _CACHE[(key, slot)] = build()
    return entry


def _build_scheme(model, order):
    """(realization, S_1..S_order): the model's closed forms up to order,
    the recursion for the rest."""
    overrides = {i: f for i, f in (model.s_overrides or {}).items() if i <= order}
    coeffs = compute_coefficients(
        lifted_hamiltonian_field(model.hamiltonian),
        model.realization,
        order,
        overrides=overrides or None,
    )
    return model.realization, coeffs


def _run_scheme(model, method: str):
    """(realization, coefficients) this process cached for a JHI run of
    ``method`` on a catalog model, or None."""
    kind, order = _parse_method(method)
    key = getattr(model, "catalog_key", None)
    return _CACHE.get((key, order)) if kind == "jhi" else None


def compiled_kernels(model, method: str):
    """The kernels this process traced for a run of ``method`` on a
    catalog model: the baseline step, or the JHI predictor's lifted field
    with the step residual and beta.  Each ``report()`` is a manifest
    entry: op count, emitted-source hash, trace ms."""
    kind, _ = _parse_method(method)
    key = getattr(model, "catalog_key", None)
    kernels = [_CACHE.get((key, "field" if kind == "jhi" else kind))]
    scheme = _run_scheme(model, method)
    step = scheme and scheme[1].kernels.get(id(scheme[0]))
    if step:
        kernels += [step.residual, step.beta]
    return [k for k in kernels if k is not None and k.traced]


def coefficient_report(model, method: str):
    """Manifest entry of the coefficients this process built for a JHI run
    of a catalog model: order, provenance and zero flags (None otherwise)."""
    scheme = _run_scheme(model, method)
    if scheme is None:
        return None
    coeffs = scheme[1]
    return {
        "order": coeffs.order,
        "provenance": list(coeffs.provenance),
        "zero_flags": list(coeffs.zero_flags),
    }


def _plan_steps(width: float, ds: float):
    n_full = int(math.floor(width / ds + 1e-9))
    remainder = width - n_full * ds
    sizes = [ds] * n_full
    if remainder > 1e-9 * ds:
        sizes.append(remainder)
    return sizes


def _parse_method(method: str):
    key = str(method).strip().lower()
    if key.startswith("jhi"):
        try:
            order = int(key[3:])
        except ValueError:
            raise ConfigError(f"malformed JHI method name {method!r}") from None
        return "jhi", order
    if key in _BASELINE_STEPPERS:
        return key, None
    raise ConfigError(
        f"unknown method {method!r}; choose one of {', '.join(METHOD_NAMES)}"
    )


# Typed faults of a step, and those of compiled float code (zero divisor,
# overflow, math.sin of an infinite value), which become EvaluationError.
_STEP_FAULTS = (JhiError, ArithmeticError, ValueError)


def _failure(label, index, exc, times, flat, width, diagnostics):
    """The IntegrationFailure of a run whose step ``index`` raised exc."""
    cause = exc
    if not isinstance(exc, JhiError):
        cause = EvaluationError(f"{type(exc).__name__}: {exc}")
        cause.__cause__ = exc
    trajectory = Trajectory._from_rows(times, flat, width, label, diagnostics)
    return IntegrationFailure(
        f"{label} failed at step {index}: {cause}", trajectory, index, cause=cause
    )


def integrate(
    model,
    method: str,
    t_span,
    ds: float,
    s0: Optional[ExtendedState] = None,
    *,
    newton_tol: float = 1e-12,
    newton_max_iter: int = 50,
) -> Trajectory:
    """Integrate the model over t_span with fixed step ds.

    The endpoint is always reached: a final shrunk step is appended when
    the span is not an integer multiple of ds (its diagnostic row is
    marked).  A zero-length span yields the single-state trajectory.
    """
    t_a, t_b = (float(v) for v in t_span)
    if not (math.isfinite(t_a) and math.isfinite(t_b)):
        raise ConfigError("span endpoints must be finite")
    if t_b < t_a:
        raise ConfigError("span must run forward (t_b >= t_a)")
    kind, order = _parse_method(method)
    label = str(method).strip().lower()
    if s0 is None:
        s0 = model.default_state()
    if t_b == t_a:
        return Trajectory((t_a,), (s0,), label, None)

    cfg = StepConfig(
        ds=ds,
        order=order if order is not None else 1,
        newton_tol=newton_tol,
        newton_max_iter=newton_max_iter,
    )
    sizes = _plan_steps(t_b - t_a, cfg.ds)

    times, row = [t_a], s0.coords()
    width, last = len(row), len(sizes) - 1
    flat = array("d", row)
    if kind == "jhi":
        realization, coeffs = _cached(
            model, cfg.order, lambda: _build_scheme(model, cfg.order)
        )
        diagnostics = []
        rhs = _lifted_rhs(model)
        offset = previous = None
        for index, h in enumerate(sizes):
            if offset is None or h != cfg.ds:
                offset = _predictor_shift(rhs, row, h)
            try:
                image, residual, log = _jhi_advance(
                    realization, coeffs, cfg, row, h, offset
                )
            except _STEP_FAULTS as exc:
                raise _failure(
                    label, index, exc, times, flat, width, tuple(diagnostics)
                ) from exc
            diagnostics.append(StepDiagnostic(
                log.newton, residual, h != cfg.ds, log.fixed_point, log.rungs
            ))
            times.append(t_b if index == last else t_a + (index + 1) * h)
            flat.extend(image)
            # next start: x + 2(y_n - x_n) - (y_n-1 - x_n-1), an O(ds^3) guess;
            # the Euler half step at first, after a continuation or shrunk step
            latest = None if log.rungs else list(map(sub, log.root, row))
            offset = latest if latest is None or previous is None else list(
                map(sub, map(add, latest, latest), previous)
            )
            previous, row = latest, image
        return Trajectory._from_rows(times, flat, width, label, tuple(diagnostics))

    step = _baseline_kernel(model, kind)
    for index, h in enumerate(sizes):
        try:
            row = _checked_step(step((*row, h)), width)
        except _STEP_FAULTS as exc:
            raise _failure(label, index, exc, times, flat, width, None) from exc
        times.append(t_b if index == last else t_a + (index + 1) * h)
        flat.extend(row)
    return Trajectory._from_rows(times, flat, width, label, None)


def reference_solution(model, t_span, n_steps: int, s0=None) -> Trajectory:
    """Fine RK4 oracle on the lifted field with n_steps equal intervals."""
    if int(n_steps) < 2:
        raise ConfigError("reference grid needs at least 2 steps")
    t_a, t_b = (float(v) for v in t_span)
    return integrate(model, "rk4", (t_a, t_b), (t_b - t_a) / int(n_steps), s0)
