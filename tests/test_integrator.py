"""Stepper tests: implicit solve, consistency, reversal, baselines.

Oracles: the closed-form planar flow, fine RK4 grids, the forward Euler
predictor for the consistency order check, the interpreted jets path for
the solver's roots, and the lifted Poisson tensor for the step map.
"""

import math

import numpy as np
import pytest

from jhi import jets
from jhi.errors import (
    ConfigError,
    DomainViolationError,
    EvaluationError,
    IntegrationFailure,
    NewtonDivergenceError,
    StepError,
)
from jhi.generating import compute_coefficients
from jhi.integrator import (
    StepConfig,
    Trajectory,
    _residual_vector,
    _solve_robust,
    _solve_step_equation,
    _SolveLog,
    _step_kernels,
    integrate,
    jhi_step,
    reference_solution,
)
from jhi.jacobi import (
    ExtendedState,
    homogeneity_action,
    lifted_hamiltonian,
    lifted_hamiltonian_field,
    lifted_vector_field,
    poisson_matrix,
)
from jhi.models import build_model, exact_flow, model_names

ALL_MODELS = tuple(model_names())


def coefficients_for(model, order):
    overrides = {
        i: f for i, f in (model.s_overrides or {}).items() if i <= order
    }
    return compute_coefficients(
        lifted_hamiltonian_field(model.hamiltonian),
        model.realization,
        order,
        overrides=overrides or None,
    )


# ---------------------------------------------------------------------------
# StepConfig and Trajectory plumbing
# ---------------------------------------------------------------------------


def test_step_config_rejects_bad_settings():
    with pytest.raises(ConfigError):
        StepConfig(ds=0.0)
    with pytest.raises(ConfigError):
        StepConfig(ds=-0.1)
    with pytest.raises(ConfigError):
        StepConfig(ds=0.1, order=0)
    with pytest.raises(ConfigError):
        StepConfig(ds=0.1, order=5)
    with pytest.raises(ConfigError):
        StepConfig(ds=0.1, newton_tol=0.0)
    with pytest.raises(ConfigError):
        StepConfig(ds=0.1, newton_max_iter=0)


def test_trajectory_invariants():
    s = ExtendedState((1.0,), 1.0)
    with pytest.raises(ConfigError):
        Trajectory((0.0, 1.0), (s,), "rk2")
    with pytest.raises(ConfigError):
        Trajectory((0.0, 0.0), (s, s), "rk2")
    traj = Trajectory((0.0, 1.0), (s, s), "rk2")
    assert len(traj) == 2
    assert traj.spatial_matrix().shape == (2, 1)
    assert traj.extended_matrix().shape == (2, 2)


# ---------------------------------------------------------------------------
# Implicit solve
# ---------------------------------------------------------------------------


def test_zero_step_returns_start_in_zero_iterations():
    model = build_model("contact")
    coeffs = coefficients_for(model, 1)
    cfg = StepConfig(ds=0.1)
    target = model.default_state()
    y, iterations, residual = _solve_step_equation(
        model.realization, coeffs, cfg, target.coords(), 0.0
    )
    assert iterations == 0 and residual == 0.0
    assert tuple(y) == target.coords()
    assert jhi_step(model, model.realization, coeffs, cfg, target, ds=0.0) is target


def solve(model, coeffs, cfg, target):
    """The step equation's root for a target state, as a coordinate list."""
    y, _, _ = _solve_robust(
        model.realization, coeffs, cfg, target.coords(), cfg.ds, None
    )
    return y


def test_solve_reproduces_target_within_tolerance():
    rng = np.random.default_rng(2)
    for name in ALL_MODELS:
        model = build_model(name)
        coeffs = coefficients_for(model, 1)
        cfg = StepConfig(ds=0.05)
        target = model.sample_state(rng)
        y = tuple(solve(model, coeffs, cfg, target))
        xi = coeffs.covector_kernel(cfg.ds, y)
        image = model.realization.alpha_kernel(y, xi)
        gap = max(
            abs(float(a) - b) for a, b in zip(image, target.coords())
        )
        assert gap <= cfg.newton_tol * (1.0 + max(map(abs, target.coords())))


def test_contact_solve_iteration_count_is_small():
    # regression bound: from the identity initial guess the fixed-point
    # iteration alone solves the step at ds = 0.1 (measured 12 iterations,
    # polish included); the bound leaves a third on top of that
    model = build_model("contact")
    coeffs = coefficients_for(model, 1)
    cfg = StepConfig(ds=0.1)
    log = _SolveLog()
    _solve_step_equation(
        model.realization, coeffs, cfg, model.default_state().coords(), cfg.ds,
        log=log,
    )
    assert log.newton == 0
    assert 1 <= log.fixed_point <= 16


def accepted_on_jets_path(model, coeffs, ds, y, target, tol):
    """The solver's acceptance test, re-evaluated on the interpreted path."""
    xi = coeffs.covector_kernel(ds, tuple(y))
    image = model.realization.alpha_kernel(tuple(y), xi)
    return all(
        abs(float(a) - b) <= tol * (1.0 + abs(b))
        for a, b in zip(image, target.coords())
    )


@pytest.mark.parametrize("name", ALL_MODELS)
def test_solver_roots_pass_acceptance_on_jets_path(name):
    model = build_model(name)
    rng = np.random.default_rng(7)
    for order in (1, 3):
        coeffs = coefficients_for(model, order)
        for ds in (0.01, 0.05):
            cfg = StepConfig(ds=ds, order=order)
            for _ in range(3):
                target = model.sample_state(rng)
                y = solve(model, coeffs, cfg, target)
                assert accepted_on_jets_path(
                    model, coeffs, ds, y, target, cfg.newton_tol
                ), (order, ds, target.coords())


def test_newton_takes_over_where_fixed_point_stops_contracting():
    # jacobi3d, ds = 0.2, default state: by hand, y <- y - r(y) raises
    # max|r| again at its third iterate (0.50, 0.50, 0.22, 0.30)
    model = build_model("jacobi3d")
    coeffs = coefficients_for(model, 1)
    target, ds = model.default_state(), 0.2
    y, sizes = list(target.coords()), []
    for _ in range(4):
        r, _ = _residual_vector(model.realization, coeffs, ds, y, target.coords())
        sizes.append(max(map(abs, r)))
        y = [a - b for a, b in zip(y, r)]
    assert sizes[3] > 0.5 * sizes[2] and sizes[2] > 1e-3
    log = _SolveLog()
    root, newton, _ = _solve_step_equation(
        model.realization, coeffs, StepConfig(ds=ds), target.coords(), ds, None, log
    )
    assert log.fixed_point >= 1 and newton == log.newton >= 1
    assert accepted_on_jets_path(model, coeffs, ds, root, target, 1e-12)


def test_newton_takes_over_after_domain_fault_in_fixed_point():
    # lotka_volterra, ds = 0.5, default state: the first fixed-point
    # iterate y - r(y) leaves the positive orthant
    model = build_model("lotka_volterra")
    coeffs = coefficients_for(model, 1)
    target, ds = model.default_state(), 0.5
    start = list(target.coords())
    r, _ = _residual_vector(model.realization, coeffs, ds, start, start)
    with pytest.raises(DomainViolationError):
        _residual_vector(
            model.realization, coeffs, ds, [a - b for a, b in zip(start, r)], start
        )
    log = _SolveLog()
    root, newton, _ = _solve_step_equation(
        model.realization, coeffs, StepConfig(ds=ds), target.coords(), ds, None, log
    )
    assert log.fixed_point == 0 and newton >= 1
    assert accepted_on_jets_path(model, coeffs, ds, root, target, 1e-12)


def test_newton_divergence_carries_residual():
    model = build_model("damped")
    coeffs = coefficients_for(model, 1)
    cfg = StepConfig(ds=0.5, newton_max_iter=1)
    with pytest.raises(NewtonDivergenceError) as info:
        _solve_step_equation(
            model.realization, coeffs, cfg, model.default_state().coords(), cfg.ds
        )
    assert info.value.residual is not None and info.value.residual > 0.0


# ---------------------------------------------------------------------------
# Consistency with the lifted field
# ---------------------------------------------------------------------------


def euler_predictor(model, state, h):
    rhs = lifted_vector_field(model.structure, model.hamiltonian, state)
    return np.asarray(state.coords()) + h * rhs


@pytest.mark.parametrize("name", ALL_MODELS)
def test_unit_step_consistency_is_second_order(name):
    model = build_model(name)
    coeffs = coefficients_for(model, 1)
    cfg = StepConfig(ds=1.0)  # overridden per call
    state = model.default_state()
    defects = []
    for h in (0.02, 0.01):
        stepped = jhi_step(model, model.realization, coeffs, cfg, state, ds=h)
        defects.append(
            np.max(np.abs(np.asarray(stepped.coords()) - euler_predictor(model, state, h)))
        )
    assert defects[1] <= 0.35 * defects[0] + 1e-14


def test_single_contact_step_matches_fine_oracle():
    model = build_model("contact")
    coeffs = coefficients_for(model, 1)
    stepped = jhi_step(
        model, model.realization, coeffs, StepConfig(ds=0.1), model.default_state()
    )
    oracle = reference_solution(model, (0.0, 0.1), 1000).states[-1]
    # one JHI-1 step carries a local O(ds^2) defect; 0.1^2 * O(1) headroom
    assert stepped.coords() == pytest.approx(oracle.coords(), abs=5e-3)


# ---------------------------------------------------------------------------
# Exactness on the quadratic planar flow
# ---------------------------------------------------------------------------


def test_planar_quadratic_flow_is_reproduced_exactly():
    model = build_model("jacobi2d")
    traj = integrate(model, "jhi1", (0.0, math.pi), 0.03)
    terminal = traj.states[-1]
    analytic = exact_flow("jacobi2d", model.default_x0, math.pi)
    assert terminal.x == pytest.approx(analytic, abs=1e-11)
    assert terminal.t == pytest.approx(1.0, abs=1e-11)


def test_reference_solution_matches_planar_flow():
    # span chosen so the RK4 error (rotation rate 8) sits well under the
    # bound; at [0, 0.5] and 2^11 intervals it is ~5e-13
    model = build_model("jacobi2d")
    ref = reference_solution(model, (0.0, 0.5), 2**11)
    assert ref.states[0] is not None
    assert ref.states[0].coords() == model.default_state().coords()
    analytic = exact_flow("jacobi2d", model.default_x0, 0.5)
    assert ref.states[-1].x == pytest.approx(analytic, abs=1e-10)


def test_reference_solution_is_fourth_order():
    model = build_model("jacobi3d")
    anchor = reference_solution(model, (0.0, 1.0), 512).states[-1]
    err = []
    for n in (64, 128):
        terminal = reference_solution(model, (0.0, 1.0), n).states[-1]
        err.append(np.max(np.abs(terminal.x - anchor.x)))
    assert err[0] / err[1] == pytest.approx(16.0, rel=0.35)


# ---------------------------------------------------------------------------
# Reversal and homogeneity of the discrete map
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_MODELS)
@pytest.mark.parametrize("order", (1, 3))
def test_step_reversal(name, order):
    model = build_model(name)
    coeffs = coefficients_for(model, order)
    cfg = StepConfig(ds=0.05)
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(15):
        start = model.sample_state(rng)
        forward = jhi_step(model, model.realization, coeffs, cfg, start)
        back = jhi_step(model, model.realization, coeffs, cfg, forward, ds=-cfg.ds)
        scale = 1.0 + max(map(abs, start.coords()))
        assert max(
            abs(a - b) for a, b in zip(back.coords(), start.coords())
        ) <= 10.0 * cfg.newton_tol * scale
        checked += 1
    assert checked == 15


def _partials(terms, m):
    return np.array([
        [float(p) for p in t.partials] if isinstance(t, jets.Dual) else [0.0] * m
        for t in terms
    ])


def step_jacobian(model, coeffs, ds, x_n):
    """(DPhi, Phi(x_n)) of one step of the lifted map.

    With A(y) = alpha(y, xi(y)) and B(y) = beta(y, xi(y)), the step is
    x_n = A(y), Phi(x_n) = B(y), so DPhi = DB DA^-1 (implicit function
    theorem); one dual pass over the residual kernel gives DA and Dxi,
    one over the beta kernel, fed those xi, gives DB.
    """
    cfg = StepConfig(ds=ds, order=coeffs.order)
    y = solve(model, coeffs, cfg, x_n)
    kernels = _step_kernels(model.realization, coeffs)
    m = len(y)
    seeded = [jets.Dual.seed(v, j, m) for j, v in enumerate(y)]
    out = kernels.residual.dual(seeded + [*x_n.coords(), ds])
    image = kernels.beta.dual(seeded + list(out[m:]))
    dphi = _partials(image, m) @ np.linalg.inv(_partials(out[:m], m))
    return dphi, ExtendedState.from_coords([jets.leading_value(v) for v in image])


def poisson_defect(model, coeffs, ds, x_n):
    """max|DPhi Pi DPhi^T - Pi o Phi| / (1 + max|Pi o Phi|) for one step."""
    dphi, x_next = step_jacobian(model, coeffs, ds, x_n)
    want = poisson_matrix(model.structure, x_next)
    got = dphi @ poisson_matrix(model.structure, x_n) @ dphi.T
    return float(np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want))))


@pytest.mark.parametrize("name", ALL_MODELS)
@pytest.mark.parametrize("order", (1, 3))
def test_step_map_is_poisson(name, order):
    # the paper's claim on the discrete map: Phi preserves the lifted Pi.
    # Exact and transported realizations: to roundoff (measured <= 4.4e-16).
    # First-order ones miss by O(ds^3) per step, measured at ds = 0.1,
    # 0.05, 0.025: jacobi4d 6.0e-4, 7.6e-5, 9.6e-6 (jhi1 and jhi3);
    # rigid_body 9.4e-3, 1.1e-3, 1.4e-4 (jhi1), 1.3e-2, 1.2e-3, 1.4e-4 (jhi3).
    model = build_model(name)
    coeffs = coefficients_for(model, order)
    rng = np.random.default_rng(3)
    starts = [model.sample_state(rng) for _ in range(3)]
    defects = [
        max(poisson_defect(model, coeffs, ds, x) for x in starts)
        for ds in (0.1, 0.05, 0.025)
    ]
    if model.realization.kind != "first_order_approximate":
        assert max(defects) <= 1e-13, defects
        return
    orders = [math.log2(a / b) for a, b in zip(defects, defects[1:])]
    print(f"{name} jhi{order} Poisson defect {defects}, fitted orders {orders}")
    assert all(2.5 <= p <= 3.5 for p in orders), (defects, orders)


def contact_defect(model, coeffs, ds, x_n, sign):
    """max|phi^* eta - rho eta| / (1 + max|rho eta|) for one step, with
    eta = dz + sign * p dq on (q, p, z), phi the step at fixed t_n and
    rho = t_n / t_{n+1}."""
    dphi, x_next = step_jacobian(model, coeffs, ds, x_n)
    rho = x_n.t / x_next.t
    want = rho * np.array([sign * x_n.x[1], 0.0, 1.0])
    got = np.array([sign * x_next.x[1], 0.0, 1.0]) @ dphi[:3, :3]
    return float(np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want))))


@pytest.mark.parametrize("name", ("contact", "damped"))
@pytest.mark.parametrize("order", (1, 3))
def test_step_map_is_a_contactomorphism(name, order):
    # on (q, p, z) with Lambda = dp^dq + p dp^dz and E = -dz the step
    # projects to a conformal map of eta = dz - p dq: phi^* eta = rho eta
    # (measured <= 2.2e-16).  The control dz + p dq misses by 0.02-0.16.
    model = build_model(name)
    coeffs = coefficients_for(model, order)
    rng = np.random.default_rng(3)
    starts = [model.sample_state(rng) for _ in range(3)]
    for ds in (0.1, 0.05, 0.025):
        for x in starts:
            assert contact_defect(model, coeffs, ds, x, -1.0) <= 1e-13
            assert contact_defect(model, coeffs, ds, x, 1.0) > 1e-3


@pytest.mark.parametrize(
    "name,method", [("jacobi3d", "jhi1"), ("damped", "jhi3"), ("jacobi4d", "jhi1")]
)
def test_discrete_map_commutes_with_homogeneity(name, method):
    model = build_model(name)
    z = 2.0
    span, ds = (0.0, 0.5), 0.1
    plain = integrate(model, method, span, ds)
    scaled = integrate(model, method, span, ds, homogeneity_action(model.default_state(), z))
    for a, b in zip(plain.states, scaled.states):
        lifted = homogeneity_action(a, z)
        rel = max(
            abs(u - v) / (1.0 + abs(v))
            for u, v in zip(b.coords(), lifted.coords())
        )
        assert rel <= 1e-8


# ---------------------------------------------------------------------------
# Driver behaviour
# ---------------------------------------------------------------------------


def test_zero_span_yields_single_state():
    model = build_model("contact")
    traj = integrate(model, "rk2", (0.0, 0.0), 0.1)
    assert len(traj) == 1
    assert traj.states[0].coords() == model.default_state().coords()


def test_integral_span_grid():
    model = build_model("damped")
    traj = integrate(model, "jhi1", (0.0, 1.0), 0.125)
    assert len(traj) == 9
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
    assert all(not d.shrunk for d in traj.per_step_diagnostics)
    assert all(d.residual <= 1e-12 * 4.0 for d in traj.per_step_diagnostics)


def test_partial_final_step_lands_on_endpoint():
    model = build_model("damped")
    traj = integrate(model, "jhi1", (0.0, 1.0), 0.3)
    assert len(traj) == 5  # 3 full steps + shrunk remainder
    assert traj.times[-1] == 1.0
    marks = [d.shrunk for d in traj.per_step_diagnostics]
    assert marks == [False, False, False, True]


def test_driver_configuration_errors():
    model = build_model("contact")
    with pytest.raises(ConfigError):
        integrate(model, "jhi1", (1.0, 0.0), 0.1)
    with pytest.raises(ConfigError):
        integrate(model, "leapfrog", (0.0, 1.0), 0.1)
    with pytest.raises(ConfigError):
        integrate(model, "jhifast", (0.0, 1.0), 0.1)
    with pytest.raises(ConfigError):
        integrate(model, "jhi9", (0.0, 1.0), 0.1)
    with pytest.raises(ConfigError):
        integrate(model, "jhi1", (0.0, 1.0), -0.1)
    with pytest.raises(ConfigError):
        reference_solution(model, (0.0, 1.0), 1)


def test_failure_carries_partial_trajectory():
    model = build_model("lotka_volterra")
    with pytest.raises(IntegrationFailure) as info:
        integrate(model, "jhi1", (0.0, 40.0), 4.0)
    failure = info.value
    assert isinstance(failure.cause, StepError)
    assert failure.step_index >= 0
    assert len(failure.trajectory) == failure.step_index + 1
    assert failure.trajectory.method_label == "jhi1"


def _same_rows(got, want):
    assert got.times == want.times
    assert [s.coords() for s in got.states] == [s.coords() for s in want.states]
    assert np.array_equal(got.extended_matrix(), want.extended_matrix())
    assert got.extended_matrix().tolist() == [list(s.coords()) for s in got.states]


# Failing runs: (ds, span end, seed of a sampled start or None for the
# default one), then the pinned step index, cause, message, sample count
# and last row of the partial trajectory.
FAILURES = {
    "jacobi4d-jhi1": (
        0.005, 5.0, 35,
        124, DomainViolationError, "step covector left the realization domain", 125,
        (-99.15582027476087, 99.15162049124957, 1.305020552549438,
         1.3404770872406764, 241.00565059155508),
    ),
    "jacobi3d-rk4": (
        0.5, 200.0, None,
        3, EvaluationError, "non-finite value in gradient evaluation", 4,
        (1.3460629154102234e+301, -2.697763513554001e+300,
         -2.697763513554001e+300, -3.6331748353789506e+297),
    ),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_failed_run_keeps_the_partial_trajectory(case):
    # jacobi4d jhi1 blows up from a sampled start; jacobi3d rk4 overflows.
    # The partial trajectory is the run that stops before the failing step.
    ds, end, seed, index, cause, message, samples, last = FAILURES[case]
    name, method = case.split("-")
    model = build_model(name)
    s0 = None if seed is None else model.sample_state(np.random.default_rng(seed))
    with pytest.raises(IntegrationFailure) as info:
        integrate(model, method, (0.0, end), ds, s0)
    failure = info.value
    assert failure.step_index == index and len(failure.trajectory) == samples
    assert type(failure.cause) is cause and str(failure.cause) == message
    assert failure.trajectory.states[-1].coords() == last
    _same_rows(failure.trajectory, integrate(model, method, (0.0, index * ds), ds, s0))


@pytest.mark.parametrize("method", ["jhi1", "rk4"])
def test_public_constructor_matches_the_integrated_trajectory(method):
    traj = integrate(build_model("damped"), method, (0.0, 0.5), 0.05)
    rebuilt = Trajectory(
        traj.times, traj.states, traj.method_label, traj.per_step_diagnostics
    )
    assert len(rebuilt) == len(traj) == 11
    _same_rows(rebuilt, traj)
    assert np.array_equal(rebuilt.spatial_matrix(), traj.spatial_matrix())
    assert rebuilt.per_step_diagnostics == traj.per_step_diagnostics
    assert not traj.extended_matrix().flags.writeable


def test_method_labels():
    model = build_model("jacobi3d")
    for method in ("jhi1", "jhi3", "rk2", "heun", "rk4", "symplectic_euler"):
        traj = integrate(model, method, (0.0, 0.2), 0.1)
        assert traj.method_label == method
        assert len(traj) == 3
    assert integrate(model, "RK4", (0.0, 0.2), 0.1).method_label == "rk4"


def test_semi_implicit_euler_is_first_order():
    model = build_model("damped")
    anchor = reference_solution(model, (0.0, 1.0), 2**12).states[-1]
    err = []
    for h in (0.01, 0.005):
        traj = integrate(model, "symplectic_euler", (0.0, 1.0), h)
        err.append(np.max(np.abs(traj.states[-1].x - anchor.x)))
    assert err[0] / err[1] == pytest.approx(2.0, rel=0.35)


def test_rk2_and_heun_are_second_order_but_distinct():
    model = build_model("jacobi3d")
    anchor = reference_solution(model, (0.0, 1.0), 2**12).states[-1]
    for method in ("rk2", "heun"):
        err = []
        for h in (0.01, 0.005):
            traj = integrate(model, method, (0.0, 1.0), h)
            err.append(np.max(np.abs(traj.states[-1].x - anchor.x)))
        assert err[0] / err[1] == pytest.approx(4.0, rel=0.35)
    rk2 = integrate(model, "rk2", (0.0, 1.0), 0.1).states[-1]
    heun = integrate(model, "heun", (0.0, 1.0), 0.1).states[-1]
    assert np.max(np.abs(rk2.x - heun.x)) > 1e-8


# ---------------------------------------------------------------------------
# Invariant behaviour along JHI runs
# ---------------------------------------------------------------------------


def max_lifted_drift(model, method, ds):
    h0 = lifted_hamiltonian(model.hamiltonian, model.default_state())
    traj = integrate(model, method, (0.0, 2.0), ds)
    return max(
        abs(lifted_hamiltonian(model.hamiltonian, s) - h0) for s in traj.states
    )


def test_lifted_hamiltonian_is_nearly_conserved():
    # measured on this run: jhi1 7.8e-2 -> 2.0e-2 under halving (ds^2),
    # jhi3 5.0e-3 -> 3.5e-4 (ds^4), rk2 3.9e-1 at ds = 0.1
    model = build_model("jacobi3d")
    drift = {
        (method, ds): max_lifted_drift(model, method, ds)
        for method in ("jhi1", "jhi3", "rk2")
        for ds in (0.1, 0.05)
    }
    assert drift[("jhi1", 0.1)] <= 0.1
    assert drift[("jhi3", 0.1)] <= 0.01
    assert drift[("jhi1", 0.1)] / drift[("jhi1", 0.05)] >= 3.0
    assert drift[("jhi3", 0.1)] / drift[("jhi3", 0.05)] >= 10.0
    for ds in (0.1, 0.05):
        assert drift[("jhi3", ds)] < drift[("jhi1", ds)] < drift[("rk2", ds)]


def test_casimir_slots_pass_through_exactly():
    model = build_model("jacobi3d")
    traj = integrate(model, "jhi1", (0.0, 2.0), 0.1)
    start = traj.states[0]
    for cname, cas in model.casimirs:
        c0 = cas(start.coords())
        drift = max(abs(cas(s.coords()) - c0) for s in traj.states)
        assert drift <= 1e-12, (cname, drift)


def test_jhi2_collapses_to_jhi1_when_s2_vanishes():
    model = build_model("jacobi3d")
    one = integrate(model, "jhi1", (0.0, 0.5), 0.1)
    two = integrate(model, "jhi2", (0.0, 0.5), 0.1)
    assert two.states[-1].coords() == pytest.approx(
        one.states[-1].coords(), abs=1e-13
    )
