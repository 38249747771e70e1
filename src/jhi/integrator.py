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
from dataclasses import dataclass
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
    JhiError,
    NewtonDivergenceError,
    StepError,
)
from .generating import GeneratingCoefficients, compute_coefficients
from .jacobi import (
    CotangentData,
    ExtendedState,
    lifted_field_from_parts,
    lifted_field_parts,
    lifted_hamiltonian_field,
    lifted_vector_field,
)

__all__ = [
    "StepConfig",
    "StepDiagnostic",
    "Trajectory",
    "jhi_step",
    "solve_implicit",
    "integrate",
    "kernel_reports",
    "reference_solution",
]

METHOD_NAMES = ("jhi1", "jhi2", "jhi3", "jhi4", "rk2", "heun", "rk4", "symplectic_euler")

_EPS_CUBE_ROOT = float(np.finfo(float).eps) ** (1.0 / 3.0)


@dataclass(frozen=True)
class StepConfig:
    """Solver settings for a JHI run."""

    ds: float
    order: int = 1
    newton_tol: float = 1e-12
    newton_max_iter: int = 50
    jacobian_mode: str = "dual"

    def __post_init__(self):
        if not (math.isfinite(self.ds) and self.ds > 0.0):
            raise ConfigError("step size ds must be positive and finite")
        if not 1 <= int(self.order) <= 4:
            raise ConfigError("generating order must lie in 1..4")
        if self.newton_tol <= 0.0:
            raise ConfigError("newton_tol must be positive")
        if int(self.newton_max_iter) < 1:
            raise ConfigError("newton_max_iter must be at least 1")
        if self.jacobian_mode not in ("dual", "finite_difference"):
            raise ConfigError(
                "jacobian_mode must be 'dual' or 'finite_difference'"
            )


@dataclass(frozen=True)
class StepDiagnostic:
    newton_iterations: int
    residual: float
    shrunk: bool = False


@dataclass(frozen=True)
class Trajectory:
    """Discrete orbit: sample times plus extended states."""

    times: Tuple[float, ...]
    states: Tuple[ExtendedState, ...]
    method_label: str
    per_step_diagnostics: Optional[Tuple[StepDiagnostic, ...]] = None

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ConfigError("times and states lengths differ")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ConfigError("trajectory times must increase strictly")

    def __len__(self) -> int:
        return len(self.states)

    def spatial_matrix(self) -> np.ndarray:
        """Jacobi coordinates stacked into shape (samples, dim)."""
        return np.array([s.x for s in self.states])

    def extended_matrix(self) -> np.ndarray:
        return np.array([s.coords() for s in self.states])


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


def _residual_vector(realization, coeffs, ds, y, target_coords) -> np.ndarray:
    m = len(y)
    kernel = _step_kernels(realization, coeffs).residual
    try:
        values = kernel([*map(float, y), *map(float, target_coords), float(ds)])
    except _DOMAIN_FAULTS as exc:
        raise DomainViolationError(
            f"implicit solve left the realization domain: {exc}"
        ) from exc
    out = np.array(values[:m], dtype=float)
    if not np.all(np.isfinite(out)):
        raise DomainViolationError("implicit solve produced non-finite residual")
    return out


def _residual_jacobian(realization, coeffs, ds, y, target_coords, mode) -> np.ndarray:
    m = len(y)
    if mode == "dual":
        seeded = [jets.Dual.seed(float(v), j, m) for j, v in enumerate(y)]
        kernel = _step_kernels(realization, coeffs).residual
        try:
            terms = kernel.dual(
                seeded + [*map(float, target_coords), float(ds)]
            )[:m]
        except _DOMAIN_FAULTS as exc:
            raise DomainViolationError(
                f"implicit solve left the realization domain: {exc}"
            ) from exc
        rows = []
        for term in terms:
            if isinstance(term, jets.Dual):
                rows.append([float(p) for p in term.partials])
            else:
                rows.append([0.0] * m)
        return np.array(rows)
    jac = np.empty((m, m))
    base = np.array([float(v) for v in y])
    for j in range(m):
        h = _EPS_CUBE_ROOT * max(1.0, abs(base[j]))
        plus, minus = base.copy(), base.copy()
        plus[j] += h
        minus[j] -= h
        f_plus = _residual_vector(realization, coeffs, ds, plus, target_coords)
        f_minus = _residual_vector(realization, coeffs, ds, minus, target_coords)
        jac[:, j] = (f_plus - f_minus) / (2.0 * h)
    return jac


def _newton_direction(realization, coeffs, ds, y, residual, target_coords, mode):
    jac = _residual_jacobian(realization, coeffs, ds, y, target_coords, mode)
    try:
        return np.linalg.solve(jac, residual)
    except np.linalg.LinAlgError as exc:
        raise DegenerateStepError(f"singular Newton matrix: {exc}") from exc


_MAX_BACKTRACK = 60


def _damped_update(realization, coeffs, ds, y, residual, target_coords, mode):
    """One Newton update, halving the increment while it exits the chart.

    Realizations transported through a coordinate change are only defined
    on that chart's domain (positive quadrant, punctured plane, ...); a
    coarse step can propose a full Newton move that lands outside it.
    Backtracking keeps the iterate feasible without giving up the step.
    Returns the new iterate together with its residual.
    """
    delta = _newton_direction(realization, coeffs, ds, y, residual, target_coords, mode)
    fraction = 1.0
    for _ in range(_MAX_BACKTRACK):
        trial = y - fraction * delta
        try:
            trial_residual = _residual_vector(
                realization, coeffs, ds, trial, target_coords
            )
        except DomainViolationError:
            fraction *= 0.5
            continue
        return trial, trial_residual
    raise DomainViolationError(
        "Newton backtracking could not re-enter the realization domain"
    )


def _initial_guess(realization, coeffs, ds, target_coords, predictor_shift):
    """First feasible iterate: predictor shift, damped shifts, then target.

    The implicit unknown sits roughly half a step ahead of the target, so
    an Euler half-step predictor usually lands inside the chart domain
    even when the target itself does not evaluate under the full-step
    covector.
    """
    candidates = []
    if predictor_shift is not None:
        fraction = 1.0
        for _ in range(4):
            candidates.append(target_coords + fraction * predictor_shift)
            fraction *= 0.5
    candidates.append(target_coords.copy())
    failure = None
    for y in candidates:
        try:
            return y, _residual_vector(realization, coeffs, ds, y, target_coords)
        except DomainViolationError as exc:
            failure = exc
    raise DomainViolationError(
        "no feasible starting point for the implicit step"
    ) from failure


def _solve_step_equation(
    realization: BiRealization,
    coeffs: GeneratingCoefficients,
    cfg: StepConfig,
    target: ExtendedState,
    ds: float,
    predictor_shift=None,
):
    """Newton iteration for alpha(y, xi(y)) = target.

    Componentwise acceptance |r_i| <= tol*(1+|target_i|), then up to two
    polish iterations while they keep lowering the normalized residual
    (small components such as pass-through Casimir slots retain relative
    accuracy this way).  Returns (y, iterations, max residual).
    """
    target_coords = np.asarray(target.coords())
    if ds == 0.0:
        return target, 0, 0.0
    scale = cfg.newton_tol * (1.0 + np.abs(target_coords))
    y, residual = _initial_guess(
        realization, coeffs, ds, target_coords, predictor_shift
    )
    iterations = 0
    while np.any(np.abs(residual) > scale):
        if iterations >= cfg.newton_max_iter:
            raise NewtonDivergenceError(
                "implicit step did not converge in "
                f"{cfg.newton_max_iter} iterations",
                residual=float(np.max(np.abs(residual))),
            )
        y, residual = _damped_update(
            realization, coeffs, ds, y, residual, target_coords, cfg.jacobian_mode
        )
        iterations += 1
    for _ in range(2):
        if iterations >= cfg.newton_max_iter:
            break
        level = float(np.max(np.abs(residual) / scale))
        if level == 0.0:
            break
        try:
            y_next, residual_next = _damped_update(
                realization,
                coeffs,
                ds,
                y,
                residual,
                target_coords,
                cfg.jacobian_mode,
            )
        except StepError:
            break
        if float(np.max(np.abs(residual_next) / scale)) < level:
            y, residual = y_next, residual_next
            iterations += 1
        else:
            break
    state = ExtendedState(tuple(y[:-1]), float(y[-1]))
    return state, iterations, float(np.max(np.abs(residual)))


def solve_implicit(
    realization: BiRealization,
    coeffs: GeneratingCoefficients,
    cfg: StepConfig,
    target: ExtendedState,
) -> ExtendedState:
    """Solve alpha(y, sum_i ds^i grad S_i(y)) = target for y."""
    state, _, _ = _solve_robust(realization, coeffs, cfg, target, cfg.ds, None)
    return state


def _predictor_shift(rhs, s_n, ds):
    if rhs is None:
        return None
    try:
        increment = np.asarray(rhs(np.asarray(s_n.coords())), dtype=float)
    except _DOMAIN_FAULTS:
        return None
    shift = 0.5 * ds * increment
    return shift if np.all(np.isfinite(shift)) else None


_CONTINUATION_LADDERS = (4, 8, 16, 32)


def _solve_robust(realization, coeffs, cfg, target, ds, predictor_shift):
    """Solve the step equation, falling back to continuation in ds.

    A coarse step can put every explicit starting guess outside the chart
    domain even though the root itself is feasible.  Re-solving the same
    equation for a ladder of intermediate step sizes, warm-starting each
    solve from the previous root, walks Newton to the full-step root
    without altering the discrete map.
    """
    try:
        return _solve_step_equation(
            realization, coeffs, cfg, target, ds, predictor_shift
        )
    except (DomainViolationError, NewtonDivergenceError) as exc:
        first_failure = exc
    target_coords = np.asarray(target.coords())
    for rungs in _CONTINUATION_LADDERS:
        shift = predictor_shift
        total_iterations = 0
        try:
            for j in range(1, rungs + 1):
                state, iterations, residual = _solve_step_equation(
                    realization, coeffs, cfg, target, ds * j / rungs, shift
                )
                total_iterations += iterations
                shift = np.asarray(state.coords()) - target_coords
            return state, total_iterations, residual
        except (DomainViolationError, NewtonDivergenceError):
            continue
    raise first_failure


def _jhi_advance(realization, coeffs, cfg, s_n, ds, rhs=None):
    y, iterations, residual = _solve_robust(
        realization, coeffs, cfg, s_n, ds,
        _predictor_shift(rhs, s_n, ds),
    )
    kernels = _step_kernels(realization, coeffs)
    coords = y.coords()
    m = len(coords)
    xi = kernels.residual([*coords, *s_n.coords(), float(ds)])[m:]
    if not all(map(math.isfinite, xi)):
        raise EvaluationError("non-finite step covector")
    data = CotangentData(y, xi[:-1], xi[-1])
    if not realization.domain_ok(data):
        raise DomainViolationError("step covector left the realization domain")
    image = kernels.beta([*coords, *xi])
    return ExtendedState.from_coords(image), iterations, residual


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
    try:
        state, _, _ = _jhi_advance(
            realization, coeffs, cfg, s_n, step_ds, rhs=_lifted_rhs(model)
        )
    except StepError:
        raise
    except JhiError as exc:
        raise StepError(f"step failed for model {model.name}: {exc}") from exc
    return state


# ---------------------------------------------------------------------------
# Baseline one-step maps on the lifted field
# ---------------------------------------------------------------------------


def _lifted_rhs(model):
    from .compiled import Kernel

    structure, hamiltonian = model.structure, model.hamiltonian
    n = structure.dim
    parts = _cached(
        model,
        "field",
        lambda: Kernel(
            "lifted_field",
            lambda x: lifted_field_parts(structure, hamiltonian, x),
        ),
    )

    def rhs(coords: np.ndarray) -> np.ndarray:
        values = coords.tolist()
        if values[-1] == 0.0 or not all(map(math.isfinite, values)):
            # not a state: the checked path raises InvalidScaleError
            state = ExtendedState.from_coords(values)
            return lifted_vector_field(structure, hamiltonian, state)
        out = parts(values[:-1])
        if not all(map(math.isfinite, out[: n + 1])):
            raise EvaluationError("non-finite value in gradient evaluation")
        return lifted_field_from_parts(out, values[-1])

    return rhs


def _rk2_step(rhs, coords, h):
    mid = coords + 0.5 * h * rhs(coords)
    return coords + h * rhs(mid)


def _heun_step(rhs, coords, h):
    k1 = rhs(coords)
    k2 = rhs(coords + h * k1)
    return coords + 0.5 * h * (k1 + k2)


def _rk4_step(rhs, coords, h):
    k1 = rhs(coords)
    k2 = rhs(coords + 0.5 * h * k1)
    k3 = rhs(coords + 0.5 * h * k2)
    k4 = rhs(coords + h * k3)
    return coords + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _semi_implicit_step(rhs, coords, h):
    # Gauss-Seidel sweep: each component update sees the components
    # already advanced this step.  On the (q, p) slice of the oscillator
    # this is the classical semi-implicit Euler; z and t follow
    # explicitly afterwards.
    out = np.array(coords, dtype=float)
    for j in range(out.size):
        out[j] = out[j] + h * rhs(out)[j]
    return out


_BASELINE_STEPPERS = {
    "rk2": _rk2_step,
    "heun": _heun_step,
    "rk4": _rk4_step,
    "symplectic_euler": _semi_implicit_step,
}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


# Per process, for models that carry a catalog key (see models.build_model):
# (key, order) -> (realization, coefficients), whose compiled step kernels
# live on the coefficients, and (key, "field") -> the lifted-field kernel.
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
    overrides = {i: f for i, f in (model.s_overrides or {}).items() if i <= order}
    coeffs = compute_coefficients(
        lifted_hamiltonian_field(model.hamiltonian),
        model.realization,
        order,
        overrides=overrides or None,
    )
    return model.realization, coeffs


def kernel_reports(model, method: str):
    """Manifest entries of the kernels this process compiled for a run of
    ``method`` on a catalog model: op count, emitted-source hash, trace ms."""
    key = getattr(model, "catalog_key", None)
    kind, order = _parse_method(method)
    kernels = [_CACHE.get((key, "field"))]
    scheme = _CACHE.get((key, order)) if kind == "jhi" else None
    if scheme is not None:
        step = scheme[1].kernels.get(id(scheme[0]))
        if step is not None:
            kernels += [step.residual, step.beta]
    return [k.report() for k in kernels if k is not None and k.traced]


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


def integrate(
    model,
    method: str,
    t_span,
    ds: float,
    s0: Optional[ExtendedState] = None,
    *,
    newton_tol: float = 1e-12,
    newton_max_iter: int = 50,
    jacobian_mode: str = "dual",
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
        jacobian_mode=jacobian_mode,
    )
    sizes = _plan_steps(t_b - t_a, cfg.ds)

    times = [t_a]
    states = [s0]
    if kind == "jhi":
        realization, coeffs = _cached(
            model, cfg.order, lambda: _build_scheme(model, cfg.order)
        )
        diagnostics = []
        current = s0
        rhs = _lifted_rhs(model)
        for index, h in enumerate(sizes):
            try:
                current, iterations, residual = _jhi_advance(
                    realization, coeffs, cfg, current, h, rhs=rhs
                )
            except JhiError as exc:
                partial = Trajectory(
                    tuple(times), tuple(states), label, tuple(diagnostics)
                )
                raise IntegrationFailure(
                    f"{label} failed at step {index}: {exc}",
                    partial,
                    index,
                    cause=exc,
                ) from exc
            diagnostics.append(
                StepDiagnostic(iterations, residual, shrunk=h != cfg.ds)
            )
            times.append(t_b if index == len(sizes) - 1 else t_a + (index + 1) * h)
            states.append(current)
        return Trajectory(tuple(times), tuple(states), label, tuple(diagnostics))

    stepper = _BASELINE_STEPPERS[kind]
    rhs = _lifted_rhs(model)
    coords = np.asarray(s0.coords())
    for index, h in enumerate(sizes):
        try:
            coords = stepper(rhs, coords, h)
            state = ExtendedState(tuple(coords[:-1]), float(coords[-1]))
        except (JhiError, OverflowError, FloatingPointError) as exc:
            partial = Trajectory(tuple(times), tuple(states), label, None)
            raise IntegrationFailure(
                f"{label} failed at step {index}: {exc}", partial, index, cause=exc
            ) from exc
        times.append(t_b if index == len(sizes) - 1 else t_a + (index + 1) * h)
        states.append(state)
    return Trajectory(tuple(times), tuple(states), label, None)


def reference_solution(model, t_span, n_steps: int, s0=None) -> Trajectory:
    """Fine RK4 oracle on the lifted field with n_steps equal intervals."""
    if int(n_steps) < 2:
        raise ConfigError("reference grid needs at least 2 steps")
    t_a, t_b = (float(v) for v in t_span)
    return integrate(model, "rk4", (t_a, t_b), (t_b - t_a) / int(n_steps), s0)
