"""Compiled kernels against the jets path they are traced from.

Oracle: the interpreted functions themselves.  ``_residual_terms`` on
floats is the residual and covector the stepper used before kernels were
compiled; on ``Dual`` seeds it is the Newton Jacobian; the realization's
``beta_kernel`` and ``lifted_field_parts`` likewise.  Every kernel is
traced at one state and then compared at another, for ds = 0.01 and
ds = -0.02, on every catalog model at orders 1-4.

Residual, covector, beta image and lifted field compare exactly: a
compiled kernel runs the same float operations in the same order, minus
the ones that fold away (x * 1, x + 0, ...).  The Dual-pass Jacobian
matches to 1e-15 relative to its largest entry: inside the recursion,
jets divides a dual by a dual with ``* (1 / (w * w))`` when w is a float
and with ``/ (w * w)`` when w is itself a dual, and the traced code always
has floats at that level.  Only orders 3 and 4 move, where S_3 comes from
the recursion; the largest move seen was 6.5e-17 of the largest entry
(rigid_body), and on jacobi2d cossin, jacobi4d and lotka_volterra only
cancellation residues below 1e-20 of it move.
"""

import dataclasses
import json

import numpy as np
import pytest

from jhi import compiled, jets
from jhi.cli import main
from jhi.compiled import Kernel
from jhi.errors import (
    DomainViolationError,
    IntegrationFailure,
    SeriesDomainError,
    StepError,
)
from jhi.integrator import (
    _CACHE,
    StepConfig,
    _build_scheme,
    _cached,
    _lifted_rhs,
    _residual_terms,
    _residual_vector,
    _step_kernels,
    integrate,
    jhi_step,
)
from jhi.jacobi import ExtendedState, lifted_field_parts, lifted_vector_field
from jhi.models import build_model, model_names

CATALOG = [(name, None) for name in model_names()] + [
    ("jacobi2d", {"hamiltonian": "cossin"})
]
IDS = [name + ("_cossin" if ov else "") for name, ov in CATALOG]


def _scheme(name, overrides, order):
    model = build_model(name, overrides)
    realization, coeffs = _cached(model, order, lambda: _build_scheme(model, order))
    return model, realization, coeffs


def _two_points(model, seed):
    """Trace point and comparison point: target and a nearby implicit iterate."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(2):
        target = model.sample_state(rng).coords()
        y = tuple(v * (1.0 + 1e-3 * (i + 1)) for i, v in enumerate(target))
        out.append((y, target))
    return out


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("name,overrides", CATALOG, ids=IDS)
def test_compiled_residual_covector_and_beta_match_jets(name, overrides, order):
    model, realization, coeffs = _scheme(name, overrides, order)
    kernels = _step_kernels(realization, coeffs)
    (y0, t0), (y, target) = _two_points(model, 17 * order)
    kernels.residual([*y0, *t0, 0.01])  # the trace point
    assert not kernels.residual.fallback
    for ds in (0.01, -0.02):
        got = kernels.residual([*y, *target, ds])
        terms, xi = _residual_terms(realization, coeffs, ds, y, target)
        assert got == tuple(terms) + tuple(xi)
        image = kernels.beta([*y, *xi])
        assert image == tuple(realization.beta_kernel(y, xi))


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("name,overrides", CATALOG, ids=IDS)
def test_dual_pass_jacobian_matches_jets(name, overrides, order):
    model, realization, coeffs = _scheme(name, overrides, order)
    kernels = _step_kernels(realization, coeffs)
    m = realization.size
    (y0, t0), (y, target) = _two_points(model, 5 + order)
    kernels.residual([*y0, *t0, 0.01])
    seeded = [jets.Dual.seed(v, j, m) for j, v in enumerate(y)]
    for ds in (0.01, -0.02):
        got = kernels.residual.dual(seeded + [*target, ds])[:m]
        want, _ = _residual_terms(realization, coeffs, ds, tuple(seeded), target)
        got_j = np.array([g.partials for g in got])
        want_j = np.array([w.partials for w in want])
        assert [g.value for g in got] == [w.value for w in want]
        assert np.max(np.abs(got_j - want_j)) <= 1e-15 * np.max(np.abs(want_j))


@pytest.mark.parametrize("name,overrides", CATALOG, ids=IDS)
def test_compiled_lifted_field_matches_interpreted(name, overrides):
    model = build_model(name, overrides)
    rhs = _lifted_rhs(model)
    rng = np.random.default_rng(3)
    rhs(np.asarray(model.default_state().coords()))  # the trace point
    for _ in range(3):
        state = model.sample_state(rng)
        got = rhs(np.asarray(state.coords()))
        want = lifted_vector_field(model.structure, model.hamiltonian, state)
        assert np.array_equal(got, want)
        kernel = _CACHE[(model.catalog_key, "field")]
        assert kernel(list(state.x)) == lifted_field_parts(
            model.structure, model.hamiltonian, tuple(state.x)
        )


def _branching(model):
    """The model with an alpha kernel that compares a value: untraceable."""
    alpha = model.realization.alpha_kernel

    def alpha_kernel(coords, xi):
        try:
            huge = xi[0] > 1e300  # floats compare; a traced scalar aborts
        except TypeError:  # Dual and series towers do not compare
            huge = False
        if huge:
            raise AssertionError("never taken")
        return alpha(coords, xi)

    realization = dataclasses.replace(
        model.realization, alpha_kernel=alpha_kernel, beta_kernel=None
    )
    return dataclasses.replace(model, realization=realization)


def test_value_branch_falls_back_and_still_integrates():
    plain = build_model("contact")
    branching = _branching(plain)
    assert branching.catalog_key is None
    want = integrate(plain, "jhi3", (0.0, 0.5), 0.05)
    got = integrate(branching, "jhi3", (0.0, 0.5), 0.05)
    assert [s.coords() for s in got.states] == [s.coords() for s in want.states]

    _, _, coeffs = _scheme("contact", None, 3)
    cfg = StepConfig(ds=0.05, order=3)
    out = jhi_step(branching, branching.realization, coeffs, cfg, plain.default_state())
    kernels = _step_kernels(branching.realization, coeffs)
    assert kernels.residual.fallback and kernels.beta.fallback
    assert kernels.residual.report() == {"name": "residual_jhi3", "compiled": False}
    assert out.coords() == want.states[1].coords()


def test_domain_fault_in_compiled_code_is_typed():
    model, realization, coeffs = _scheme("lotka_volterra", None, 3)
    target = np.asarray(model.default_state().coords())
    _residual_vector(realization, coeffs, 0.01, target, target)
    kernel = _step_kernels(realization, coeffs).residual
    assert not kernel.fallback
    outside = target.copy()
    outside[0] = -1.0  # the iterate left the positive orthant
    with pytest.raises(SeriesDomainError):
        kernel([*outside.tolist(), *target.tolist(), 0.01])
    with pytest.raises(DomainViolationError):
        _residual_vector(realization, coeffs, 0.01, outside, target)


def test_checked_helpers_raise_instead_of_complex_results():
    for fn, args in ((compiled._log, (0.0,)), (compiled._sqrt, (-1.0,)),
                     (compiled._rpow, (-8.0, 1.0 / 3.0))):
        with pytest.raises(SeriesDomainError):
            fn(*args)
    assert compiled._rpow(8.0, 1.0 / 3.0) == 8.0 ** (1.0 / 3.0)


def test_run_leaving_the_domain_is_an_integration_failure():
    model = build_model("lotka_volterra")
    with pytest.raises(IntegrationFailure) as info:
        integrate(model, "jhi1", (0.0, 4.0), 2.0, ExtendedState((0.05, 4.0), 1.0))
    assert isinstance(info.value.cause, StepError)


def test_two_builds_of_one_catalog_model_trace_once(monkeypatch):
    traced = []
    original = Kernel._trace

    def counting(self, inputs):
        traced.append(self.name)
        return original(self, inputs)

    monkeypatch.setattr(Kernel, "_trace", counting)
    overrides = {"gamma": 0.0123}  # a catalog key no other test uses
    first = integrate(build_model("damped", overrides), "jhi3", (0.0, 0.1), 0.05)
    assert sorted(traced) == ["beta", "lifted_field", "residual_jhi3"]
    second = integrate(build_model("damped", overrides), "jhi3", (0.0, 0.1), 0.05)
    assert len(traced) == 3
    assert second.states[-1].coords() == first.states[-1].coords()

    edited = dataclasses.replace(build_model("damped", overrides))
    assert edited.catalog_key is None
    integrate(edited, "jhi3", (0.0, 0.1), 0.05)
    assert len(traced) == 6


def test_manifest_reports_each_compiled_kernel(tmp_path):
    argv = ["simulate", "--model", "jacobi3d", "--method", "jhi3",
            "--span", "0", "0.1", "--ds", "0.05", "--out", str(tmp_path)]
    assert main(argv) == 0
    kernels = json.loads((tmp_path / "run_manifest.json").read_text())["kernels"]
    assert sorted(k["name"] for k in kernels) == ["beta", "lifted_field", "residual_jhi3"]
    for k in kernels:
        assert k["compiled"] and k["ops"] > 0 and k["trace_ms"] > 0.0
        assert len(k["source_sha256"]) == 64
