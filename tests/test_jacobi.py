"""Tests for Jacobi structures, Poissonization, and the compatibility checks.

Structures are defined inline here, independently of the model catalog, so
these tests double as an oracle for the catalog definitions later.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jhi import jets
from jhi.errors import InvalidScaleError
from jhi.jacobi import (
    CotangentData,
    ExtendedState,
    HamiltonianField,
    JacobiStructure,
    cotangent_homogeneity,
    homogeneity_action,
    jacobi_vector_field,
    lifted_hamiltonian,
    lifted_hamiltonian_field,
    lifted_vector_field,
    poisson_matrix,
    verify_jacobi_conditions,
)
from jhi.jacobi import _dual_jacobians, _structure_jacobians

# ---------------------------------------------------------------------------
# Inline structures (written from the closed forms, jet-friendly)
# ---------------------------------------------------------------------------


def contact_structure():
    # coordinates (q, p, z): Lambda = dp^dq + p dp^dz, E = -dz
    def lam(c):
        q, p, z = c
        return [[0.0, -1.0, 0.0], [1.0, 0.0, p], [0.0, -p, 0.0]]

    def e(c):
        return [0.0, 0.0, -1.0]

    return JacobiStructure(3, lam, e, name="contact")


def planar_structure():
    # coordinates (x, y): Lambda = (x^2+y^2) dx^dy, E = -2y dx + 2x dy
    def lam(c):
        x, y = c
        r2 = x * x + y * y
        return [[0.0, r2], [-r2, 0.0]]

    def e(c):
        x, y = c
        return [-2 * y, 2 * x]

    return JacobiStructure(2, lam, e, name="planar")


def predator_prey_structure(a, c, d, f, broken=False):
    # Lambda = -a x y dx^dy; E solves the invariance condition.  The
    # `broken` variant swaps the -f y term for -f x, which violates
    # [E, Lambda] = 0 with residual a*f*x^2 whenever f != 0.
    def lam(co):
        x, y = co
        return [[0.0, -a * x * y], [a * x * y, 0.0]]

    def e(co):
        x, y = co
        e1 = c * x * y + (d + f) * x
        if broken:
            e2 = c * x * y + d * y - f * x
        else:
            e2 = c * x * y + d * y - f * y
        return [e1, e2]

    return JacobiStructure(2, lam, e, name="predator-prey")


CONTACT_H = HamiltonianField(lambda c: c[0] + c[2], name="q+z")
PLANAR_H = HamiltonianField(lambda c: c[0] * c[0] + c[1] * c[1], name="r^2")


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def contact_field_oracle(q, p, z, dq, dp, dz, h):
    """Hand form of the contact X_H: (-H_p, H_q + p H_z, H - p H_p)."""
    return np.array([-dp, dq + p * dz, h - p * dp])


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(tuple(up)) - f(tuple(dn))) / (2 * h)
    return g


def vector_field_oracle(structure, H, x):
    """Independent evaluation of Lambda(.,dH) - H E via finite differences."""
    g = fd_gradient(H.h, x)
    lam = structure.lambda_matrix(x)
    ev = structure.e_vector(x)
    return lam @ g - float(H.h(tuple(x))) * ev


# ---------------------------------------------------------------------------
# jacobi_vector_field
# ---------------------------------------------------------------------------


def test_contact_vector_field_frozen_point():
    x = np.array([0.1, -1.1, 0.09])
    out = jacobi_vector_field(contact_structure(), CONTACT_H, x)
    # oracle: H = q+z has H_q = H_z = 1, H_p = 0
    expected = contact_field_oracle(0.1, -1.1, 0.09, 1.0, 0.0, 1.0, 0.19)
    assert np.allclose(out, expected, atol=1e-14)
    assert np.allclose(out, [0.0, -0.1, 0.19], atol=1e-14)


def test_zero_hamiltonian_gives_zero_field():
    zero = HamiltonianField(lambda c: 0.0 * c[0])
    out = jacobi_vector_field(contact_structure(), zero, np.array([0.3, 2.0, -1.0]))
    assert np.all(out == 0.0)


def test_planar_vector_field_against_fd_oracle():
    s = planar_structure()
    x = np.array([1.0, 1.0])
    out = jacobi_vector_field(s, PLANAR_H, x)
    assert np.allclose(out, vector_field_oracle(s, PLANAR_H, x), atol=1e-8)
    # closed form: ((r^2) H_y + 2yH, -(r^2) H_x - 2xH) at (1,1) is (8, -8)
    assert np.allclose(out, [8.0, -8.0], atol=1e-13)


@given(
    st.floats(-2, 2),
    st.floats(-2, 2),
    st.floats(-2, 2),
)
@settings(max_examples=100, deadline=None)
def test_dissipation_identity(q, p, z):
    # dH . X_H = -H E(H)
    s = contact_structure()
    x = np.array([q, p, z])
    hval, grad = CONTACT_H.gradient(x)
    field = jacobi_vector_field(s, CONTACT_H, x)
    lhs = float(grad @ field)
    rhs = -hval * float(s.e_vector(x) @ grad)
    assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


# ---------------------------------------------------------------------------
# poisson_matrix
# ---------------------------------------------------------------------------


def test_contact_poisson_matrix_frozen():
    s = contact_structure()
    state = ExtendedState([0.1, -1.1, 0.09], 1.0)
    pi = poisson_matrix(s, state)
    # ordering (q, p, z, t)
    assert pi[1, 0] == pytest.approx(1.0)      # Pi^{pq}
    assert pi[1, 2] == pytest.approx(-1.1)     # Pi^{pz} = p/t
    assert pi[3, 2] == pytest.approx(-1.0)     # Pi^{tz} = E^z
    assert pi[3, 3] == 0.0
    assert np.allclose(pi + pi.T, 0.0, atol=1e-15)


def test_poisson_matrix_scale_dependence():
    s = contact_structure()
    x = [0.4, 0.7, -0.2]
    p1 = poisson_matrix(s, ExtendedState(x, 1.0))
    p2 = poisson_matrix(s, ExtendedState(x, 2.0))
    assert np.allclose(p2[:3, :3], p1[:3, :3] / 2.0)
    assert np.allclose(p2[3, :3], p1[3, :3])
    assert np.allclose(p2[:3, 3], p1[:3, 3])


def test_poisson_matrix_pure_poisson_case():
    # E = 0 means the t row/column vanish
    def lam(c):
        return [[0.0, 1.0], [-1.0, 0.0]]

    s = JacobiStructure(2, lam, lambda c: [0.0, 0.0])
    pi = poisson_matrix(s, ExtendedState([0.5, 0.5], 1.5))
    assert np.all(pi[2, :] == 0.0)
    assert np.all(pi[:, 2] == 0.0)


@given(
    st.floats(-3, 3),
    st.floats(-3, 3),
    st.floats(-3, 3),
    st.floats(0.1, 4).filter(lambda t: abs(t) > 0.05),
)
@settings(max_examples=100, deadline=None)
def test_poisson_matrix_antisymmetry(q, p, z, t):
    pi = poisson_matrix(contact_structure(), ExtendedState([q, p, z], t))
    bound = 1e-12 * max(1.0, np.abs(pi).max())
    assert np.abs(pi + pi.T).max() <= bound


# ---------------------------------------------------------------------------
# lifted hamiltonian / vector field
# ---------------------------------------------------------------------------


def test_lifted_hamiltonian_values():
    s1 = ExtendedState([0.1, -1.1, 0.09], 1.0)
    s2 = ExtendedState([0.1, -1.1, 0.09], 2.0)
    assert lifted_hamiltonian(CONTACT_H, s1) == pytest.approx(0.19)
    assert lifted_hamiltonian(CONTACT_H, s2) == pytest.approx(0.38)
    zero = HamiltonianField(lambda c: 0.0 * c[0])
    assert lifted_hamiltonian(zero, s1) == 0.0


def test_lifted_vector_field_frozen():
    s = contact_structure()
    state = ExtendedState([0.1, -1.1, 0.09], 1.0)
    out = lifted_vector_field(s, CONTACT_H, state)
    assert np.allclose(out[:3], [0.0, -0.1, 0.19], atol=1e-14)
    # E(H) = -dH/dz = -1, so dt/ds = t*E(H) = -1
    assert out[3] == pytest.approx(-1.0)


def test_lifted_vector_field_poisson_case():
    def lam(c):
        return [[0.0, 1.0], [-1.0, 0.0]]

    s = JacobiStructure(2, lam, lambda c: [0.0, 0.0])
    H = HamiltonianField(lambda c: c[0] * c[0] + c[1])
    out = lifted_vector_field(s, H, ExtendedState([1.0, 2.0], 3.0))
    assert out[2] == 0.0


def test_lifted_field_matches_poisson_gradient_form():
    # X_Hhat must equal Pi(s) . grad Hhat(s): two independent code paths
    s = contact_structure()
    rng = np.random.default_rng(7)
    hhat = lifted_hamiltonian_field(CONTACT_H)
    for _ in range(25):
        x = rng.uniform(-2, 2, size=3)
        t = rng.uniform(0.3, 3.0)
        state = ExtendedState(x, t)
        direct = lifted_vector_field(s, CONTACT_H, state)
        _, grad = jets.evaluate_with_gradient(hhat, state.coords())
        via_pi = poisson_matrix(s, state) @ np.asarray(grad)
        assert np.allclose(direct, via_pi, atol=1e-12)


@given(
    st.floats(-2, 2),
    st.floats(-2, 2),
    st.floats(-2, 2),
    st.floats(0.2, 3),
)
@settings(max_examples=100, deadline=None)
def test_lifted_hamiltonian_is_conserved_along_lift(q, p, z, t):
    # X_Hhat(Hhat) = 0
    s = contact_structure()
    state = ExtendedState([q, p, z], t)
    field = lifted_vector_field(s, CONTACT_H, state)
    hhat = lifted_hamiltonian_field(CONTACT_H)
    val, grad = jets.evaluate_with_gradient(hhat, state.coords())
    assert abs(float(np.asarray(grad) @ field)) <= 1e-9 * (1 + abs(val))


# ---------------------------------------------------------------------------
# homogeneity actions
# ---------------------------------------------------------------------------


def test_homogeneity_identity_and_group():
    s = ExtendedState([1.0, 2.0], 0.7)
    same = homogeneity_action(s, 1.0)
    assert np.all(same.x == s.x) and same.t == s.t
    back = homogeneity_action(homogeneity_action(s, 2.5), 1 / 2.5)
    assert back.t == pytest.approx(s.t)


def test_cotangent_homogeneity_frozen():
    c = CotangentData(ExtendedState([0.3, -0.4], 1.0), [1.0, 2.0], 5.0)
    out = cotangent_homogeneity(c, 2.0)
    assert out.base.t == pytest.approx(2.0)
    assert np.allclose(out.base.x, [0.3, -0.4])
    assert np.allclose(out.xi_x, [2.0, 4.0])
    assert out.xi_t == pytest.approx(5.0)


def test_zero_scale_rejected():
    with pytest.raises(InvalidScaleError):
        ExtendedState([1.0], 0.0)
    with pytest.raises(InvalidScaleError):
        homogeneity_action(ExtendedState([1.0], 1.0), 0.0)


def test_covector_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        CotangentData(ExtendedState([1.0, 2.0], 1.0), [1.0], 0.0)


# ---------------------------------------------------------------------------
# verify_jacobi_conditions
# ---------------------------------------------------------------------------


def test_contact_satisfies_jacobi_conditions():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2, 2, size=(10, 3))
    report = verify_jacobi_conditions(contact_structure(), pts, tol=1e-10)
    assert report.passed
    assert report.max_residual <= 1e-10


def test_trivial_structure_has_zero_residual():
    s = JacobiStructure(
        2, lambda c: [[0.0, 0.0], [0.0, 0.0]], lambda c: [0.0, 0.0]
    )
    report = verify_jacobi_conditions(s, [[0.1, 0.2], [1.0, -1.0]], tol=1e-12)
    assert report.max_residual == 0.0


def test_planar_structure_satisfies_conditions():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, size=(10, 2))
    report = verify_jacobi_conditions(planar_structure(), pts, tol=1e-10)
    assert report.passed


@given(
    st.floats(0.2, 3),
    st.floats(-2, 2),
    st.floats(-2, 2),
    st.floats(-2, 2),
)
@settings(max_examples=100, deadline=None)
def test_predator_prey_family_satisfies_conditions(a, c, d, f):
    s = predator_prey_structure(a, c, d, f)
    pts = [[0.5, 0.5], [1.3, 0.4], [2.0, 2.5]]
    report = verify_jacobi_conditions(s, pts, tol=1e-10)
    assert report.passed


def test_predator_prey_broken_variant_fails():
    # with the -f x term the invariance residual is a*f*x^2
    s = predator_prey_structure(1.0, 0.0, 1.0, 1.0, broken=True)
    report = verify_jacobi_conditions(s, [[2.0, 0.5]], tol=1e-10)
    assert not report.passed
    assert report.max_invariance_residual == pytest.approx(4.0, rel=1e-9)


def test_fd_fallback_for_non_jet_structures():
    # a structure that rejects dual inputs must still verify via differences
    def lam(c):
        x, y = float(c[0]), float(c[1])
        r2 = x * x + y * y
        return [[0.0, r2], [-r2, 0.0]]

    def e(c):
        x, y = float(c[0]), float(c[1])
        return [-2 * y, 2 * x]

    s = JacobiStructure(2, lam, e)
    report = verify_jacobi_conditions(s, [[1.0, 0.5], [0.3, -0.9]], tol=1e-8)
    assert report.passed


def test_fd_fallback_reaches_numpy_only_structures():
    # numpy ufuncs reject a Dual with TypeError, which selects differences
    def lam(c):
        r2 = np.cos(c[0]) ** 2 + c[1] * c[1]
        return [[0.0, r2], [-r2, 0.0]]

    s = JacobiStructure(2, lam, lambda c: [0.0, 0.0])
    with pytest.raises(TypeError):
        _dual_jacobians(s, [0.4, 0.7])
    lam_fd, _, dlam, _ = _structure_jacobians(s, [0.4, 0.7])
    assert dlam[0, 0, 1] == pytest.approx(-np.sin(0.8), rel=1e-7)
    assert dlam[1, 0, 1] == pytest.approx(1.4, rel=1e-7)


def test_structure_errors_other_than_type_errors_propagate():
    def lam(c):
        raise ZeroDivisionError("structure bug")

    s = JacobiStructure(2, lam, lambda c: [0.0, 0.0])
    with pytest.raises(ZeroDivisionError, match="structure bug"):
        verify_jacobi_conditions(s, [[1.0, 0.5]])
