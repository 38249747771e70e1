"""Jacobi structures, their homogeneous Poisson lifts, and state containers.

A Jacobi structure on an n-dimensional chart is a pair (Lambda, E) with
Lambda an antisymmetric bivector and E a vector field satisfying

    [Lambda, Lambda] = 2 E ^ Lambda,      [E, Lambda] = 0.

The lift to the extended chart with scale coordinate t (kept last
everywhere) is the homogeneous Poisson bivector

    Pi = Lambda / t + dt ^ E,

i.e. Pi^{ij} = Lambda^{ij}/t for spatial i,j, Pi^{t,i} = E^i and
Pi^{i,t} = -E^i.  A Hamiltonian H on the base lifts to Hhat = t*H, whose
Poisson flow projects onto the Jacobi flow of H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import jets
from .errors import InvalidScaleError

__all__ = [
    "ExtendedState",
    "CotangentData",
    "JacobiStructure",
    "HamiltonianField",
    "lifted_hamiltonian",
    "lifted_hamiltonian_field",
    "lifted_field_parts",
    "lifted_field_from_parts",
    "jacobi_vector_field",
    "poisson_matrix",
    "lifted_vector_field",
    "homogeneity_action",
    "cotangent_homogeneity",
    "verify_jacobi_conditions",
    "JacobiConditionReport",
]


@dataclass(frozen=True)
class ExtendedState:
    """Point (x, t) of the extended chart; t is never allowed to vanish."""

    x: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).copy())
        object.__setattr__(self, "t", float(self.t))
        if not np.all(np.isfinite(self.x)) or not np.isfinite(self.t):
            raise InvalidScaleError("non-finite extended state")
        if self.t == 0.0:
            raise InvalidScaleError("scale coordinate t must be nonzero")

    @property
    def dim(self) -> int:
        return self.x.size

    def coords(self):
        """Extended coordinate tuple with t last."""
        return tuple(float(v) for v in self.x) + (self.t,)

    @classmethod
    def from_coords(cls, coords) -> "ExtendedState":
        coords = tuple(coords)
        return cls(np.array(coords[:-1], dtype=float), coords[-1])


@dataclass(frozen=True)
class CotangentData:
    """Covector (xi_x, xi_t) attached to an extended base point."""

    base: ExtendedState
    xi_x: np.ndarray
    xi_t: float

    def __post_init__(self):
        object.__setattr__(self, "xi_x", np.asarray(self.xi_x, dtype=float).copy())
        object.__setattr__(self, "xi_t", float(self.xi_t))
        if self.xi_x.size != self.base.dim:
            raise ValueError("covector length does not match base dimension")

    def covector(self):
        return tuple(float(v) for v in self.xi_x) + (self.xi_t,)


@dataclass(frozen=True)
class JacobiStructure:
    """Coordinate functions for (Lambda, E); both accept jet scalars.

    lam(coords) returns the n x n antisymmetric matrix as nested rows,
    e(coords) the n-vector, for coords a length-n sequence of floats or
    jet scalars.
    """

    dim: int
    lam: Callable
    e: Callable
    name: str = ""

    def lambda_matrix(self, x) -> np.ndarray:
        return np.asarray(self.lam(tuple(x)), dtype=float)

    def e_vector(self, x) -> np.ndarray:
        return np.asarray(self.e(tuple(x)), dtype=float)


@dataclass(frozen=True)
class HamiltonianField:
    """Scalar field H on the base chart, jet-evaluable."""

    h: Callable
    name: str = "H"

    def __call__(self, x_coords):
        return self.h(x_coords)

    def value(self, x) -> float:
        return float(self.h(tuple(float(v) for v in x)))

    def gradient(self, x):
        val, grad = jets.evaluate_with_gradient(self.h, tuple(float(v) for v in x))
        return float(val), np.asarray(grad, dtype=float)


def lifted_hamiltonian(H: HamiltonianField, state: ExtendedState) -> float:
    """Hhat(x, t) = t * H(x), the 1-homogeneous lift of H."""
    return state.t * H.value(state.x)


def lifted_hamiltonian_field(H: HamiltonianField):
    """Hhat as a jet-evaluable field on extended coords (t last)."""

    def hhat(coords):
        return coords[-1] * H.h(coords[:-1])

    return hhat


def jacobi_vector_field(structure: JacobiStructure, H: HamiltonianField, x) -> np.ndarray:
    """X_H = Lambda(., dH) - H E in components: X^i = Lambda^{ij} d_j H - H E^i."""
    hval, grad = H.gradient(x)
    lam = structure.lambda_matrix(x)
    ev = structure.e_vector(x)
    return lam @ grad - hval * ev


def poisson_matrix(structure: JacobiStructure, state: ExtendedState) -> np.ndarray:
    """Matrix of Pi at an extended point; t is the last row/column."""
    n = structure.dim
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = structure.lambda_matrix(state.x) / state.t
    ev = structure.e_vector(state.x)
    out[n, :n] = ev
    out[:n, n] = -ev
    return out


def lifted_field_parts(structure: JacobiStructure, H: HamiltonianField, x):
    """H(x), dH(x), the rows of Lambda(x) and E(x) as one flat tuple.

    These are the only evaluations X_Hhat needs; jet scalars welcome, so
    the integrator can compile them into one kernel.
    """
    x = tuple(x)
    hval, grad = jets.evaluate_with_gradient(H.h, x)
    lam, ev = structure.lam(x), structure.e(x)
    return (hval, *grad, *(v for row in lam for v in row), *ev)


def lifted_field_from_parts(parts, t):
    """X_Hhat from ``lifted_field_parts`` at scale t, as a tuple: spatial
    part Lambda dH - H E, and dt/ds = t * E(H).  Each contraction is summed
    left to right, the same operations on floats and on jet or traced
    scalars."""
    n = round(math.sqrt(len(parts))) - 1  # len(parts) = (n + 1)**2
    hval, grad, ev = parts[0], parts[1 : n + 1], parts[n + 1 + n * n :]

    def dot(row):
        acc = row[0] * grad[0]
        for a, b in zip(row[1:], grad[1:]):
            acc = acc + a * b
        return acc

    rows = (parts[n + 1 + i * n : n + 1 + (i + 1) * n] for i in range(n))
    return (*(dot(row) - hval * e for row, e in zip(rows, ev)), t * dot(ev))


def lifted_vector_field(structure: JacobiStructure, H: HamiltonianField, state: ExtendedState) -> np.ndarray:
    """X_Hhat: spatial part X_H, and dt/ds = t * E(H)."""
    parts = lifted_field_parts(structure, H, tuple(float(v) for v in state.x))
    return np.array(lifted_field_from_parts(parts, state.t))


def homogeneity_action(state: ExtendedState, z: float) -> ExtendedState:
    """h_z(x, t) = (x, z t); z must be nonzero."""
    if z == 0.0:
        raise InvalidScaleError("homogeneity parameter z must be nonzero")
    return ExtendedState(state.x, z * state.t)


def cotangent_homogeneity(data: CotangentData, z: float) -> CotangentData:
    """Cotangent lift of h_z: spatial covector scales by z, xi_t is fixed."""
    return CotangentData(homogeneity_action(data.base, z), z * data.xi_x, data.xi_t)


@dataclass(frozen=True)
class JacobiConditionReport:
    max_bracket_residual: float
    max_invariance_residual: float
    tol: float
    n_points: int
    passed: bool = field(init=False)

    def __post_init__(self):
        ok = (
            self.max_bracket_residual <= self.tol
            and self.max_invariance_residual <= self.tol
        )
        object.__setattr__(self, "passed", ok)

    @property
    def max_residual(self) -> float:
        return max(self.max_bracket_residual, self.max_invariance_residual)


def _dual_jacobians(structure: JacobiStructure, x):
    """Exact d_l Lambda^{ij}, d_l E^i from one dual-seeded evaluation."""
    n = structure.dim
    seeded = tuple(jets.Dual.seed(float(x[l]), l, n) for l in range(n))
    lam_rows = structure.lam(seeded)
    e_row = structure.e(seeded)
    lam = np.zeros((n, n))
    dlam = np.zeros((n, n, n))
    ev = np.zeros(n)
    de = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            entry = lam_rows[i][j]
            if isinstance(entry, jets.Dual):
                lam[i, j] = entry.value
                dlam[:, i, j] = entry.partials
            else:
                lam[i, j] = float(entry)
        entry = e_row[i]
        if isinstance(entry, jets.Dual):
            ev[i] = entry.value
            de[:, i] = entry.partials
        else:
            ev[i] = float(entry)
    return lam, ev, dlam, de


def _fd_jacobians(structure: JacobiStructure, x):
    """Central-difference fallback for structures that reject jet inputs."""
    n = structure.dim
    h = float(np.finfo(float).eps) ** (1.0 / 3.0)
    lam = structure.lambda_matrix(x)
    ev = structure.e_vector(x)
    dlam = np.zeros((n, n, n))
    de = np.zeros((n, n))
    for l in range(n):
        up = np.array(x, dtype=float)
        dn = np.array(x, dtype=float)
        step = h * max(1.0, abs(float(x[l])))
        up[l] += step
        dn[l] -= step
        dlam[l] = (structure.lambda_matrix(up) - structure.lambda_matrix(dn)) / (2 * step)
        de[l] = (structure.e_vector(up) - structure.e_vector(dn)) / (2 * step)
    return lam, ev, dlam, de


def _structure_jacobians(structure: JacobiStructure, x):
    # math and numpy reject a Dual argument with TypeError; any other
    # error is the structure's own and propagates
    try:
        return _dual_jacobians(structure, x)
    except TypeError:
        return _fd_jacobians(structure, x)


def verify_jacobi_conditions(
    structure: JacobiStructure,
    sample_points: Sequence,
    tol: float = 1e-8,
) -> JacobiConditionReport:
    """Check [Lambda,Lambda] = 2 E^Lambda and [E,Lambda] = 0 on sample points.

    Componentwise, with all indices spatial,

      [Lambda,Lambda]^{ijk} = 2 sum_l (Lambda^{li} d_l Lambda^{jk}
                                       + Lambda^{lj} d_l Lambda^{ki}
                                       + Lambda^{lk} d_l Lambda^{ij})
      (E^Lambda)^{ijk} = E^i Lambda^{jk} + E^j Lambda^{ki} + E^k Lambda^{ij}
      [E,Lambda]^{ij} = sum_l (E^l d_l Lambda^{ij}
                               - Lambda^{lj} d_l E^i - Lambda^{il} d_l E^j)
    """
    n = structure.dim
    max_bracket = 0.0
    max_invariance = 0.0
    count = 0
    for pt in sample_points:
        x = np.asarray(pt, dtype=float)
        lam, ev, dlam, de = _structure_jacobians(structure, x)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    br = 0.0
                    for l in range(n):
                        br += (
                            lam[l, i] * dlam[l, j, k]
                            + lam[l, j] * dlam[l, k, i]
                            + lam[l, k] * dlam[l, i, j]
                        )
                    br *= 2.0
                    wedge = ev[i] * lam[j, k] + ev[j] * lam[k, i] + ev[k] * lam[i, j]
                    max_bracket = max(max_bracket, abs(br - 2.0 * wedge))
        for i in range(n):
            for j in range(i + 1, n):
                inv = 0.0
                for l in range(n):
                    inv += (
                        ev[l] * dlam[l, i, j]
                        - lam[l, j] * de[l, i]
                        - lam[i, l] * de[l, j]
                    )
                max_invariance = max(max_invariance, abs(inv))
        count += 1
    return JacobiConditionReport(max_bracket, max_invariance, tol, count)
