"""Benchmark catalog: seven Jacobi systems wired for integration.

Each entry bundles the structure (Lambda, E), the Hamiltonian, the
bi-realization used by the stepper, named Casimirs of the lifted Poisson
structure, the closed-form dissipation rate E(H), optional closed-form
generating coefficients, default parameters and initial data.  Entries are
constructed by ``build_model`` and are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from . import jets
from .birealization import (
    BiRealization,
    contact_birealization,
    first_order_birealization,
    lotka_volterra_birealization,
    polar_casimir_birealization,
    quadratic_casimir_birealization,
)
from .errors import CapabilityError, ConfigError
from .jacobi import ExtendedState, HamiltonianField, JacobiStructure

__all__ = ["ModelDefinition", "model_names", "build_model", "exact_flow"]


@dataclass(frozen=True)
class ModelDefinition:
    """A fully wired benchmark system.

    ``casimirs`` maps names to scalar fields on the extended coordinates
    (jet-evaluable); ``e_of_h`` is the closed-form value of E(H) on the
    base chart; ``s_overrides`` maps a coefficient index i to a closed
    form for S_i, used instead of the recursion when present.
    """

    name: str
    dim: int
    coord_names: Tuple[str, ...]
    structure: JacobiStructure
    hamiltonian: HamiltonianField
    realization: BiRealization
    casimirs: Tuple[Tuple[str, Callable], ...]
    e_of_h: Callable
    params: Dict[str, float]
    default_x0: Tuple[float, ...]
    sample_state: Callable
    s_overrides: Optional[Dict[int, Callable]] = None
    default_t0: float = 1.0
    domain_note: str = ""
    variant: str = ""
    # (name, overrides) stamped by build_model; the integrator caches
    # coefficients and compiled kernels under it.  dataclasses.replace
    # resets it, so an edited model never shares a catalog entry's cache.
    catalog_key: Optional[tuple] = field(default=None, init=False, compare=False)

    def default_state(self) -> ExtendedState:
        return ExtendedState(self.default_x0, self.default_t0)


def _resolve_params(name, defaults, overrides):
    params = dict(defaults)
    for key, value in overrides.items():
        if key not in defaults:
            raise ConfigError(
                f"unknown parameter {key!r} for model {name!r}; "
                f"valid keys: {sorted(defaults)}"
            )
        params[key] = value
    return params


def _box_sampler(low, high, dim, t_range=(0.5, 1.5)):
    def sample(rng) -> ExtendedState:
        x = rng.uniform(low, high, dim)
        return ExtendedState(tuple(x), rng.uniform(*t_range))

    return sample


# ---------------------------------------------------------------------------
# Contact structure on (q, p, z): Lambda = dp^dq + p dp^dz, E = -dz.
# Shared by the linear-contact and damped-oscillator entries.
# ---------------------------------------------------------------------------


def _contact_structure() -> JacobiStructure:
    def lam(c):
        q, p, z = c
        return [[0.0, -1.0, 0.0], [1.0, 0.0, p], [0.0, -p, 0.0]]

    def e(c):
        return [0.0, 0.0, -1.0]

    return JacobiStructure(3, lam, e, name="contact")


def _build_contact(overrides) -> ModelDefinition:
    params = _resolve_params("contact", {}, overrides)

    def h(c):
        q, p, z = c
        return q + z

    return ModelDefinition(
        name="contact",
        dim=3,
        coord_names=("q", "p", "z"),
        structure=_contact_structure(),
        hamiltonian=HamiltonianField(h, name="q+z"),
        realization=contact_birealization(),
        casimirs=(),
        e_of_h=lambda x: -1.0,
        params=params,
        default_x0=(0.1, -1.1, 0.09),
        sample_state=_box_sampler(-2.0, 2.0, 3),
        domain_note="global chart; step solvability needs |t +- xi_z/2| "
        "comparable to |t|",
    )


def _build_damped(overrides) -> ModelDefinition:
    params = _resolve_params("damped", {"gamma": 0.01}, overrides)
    g = float(params["gamma"])

    def h(c):
        q, p, z = c
        return 0.5 * p * p + 0.5 * q * q + g * z

    def s3(c):
        q, p, z, t = c
        bracket = (
            q * q * t * (1.0 - g * g) / 4.0
            - g**3 * t * z / 2.0
            + p * p * t * (g * g / 2.0 + 0.25)
            + g * q * p * t
        )
        return bracket / 6.0

    return ModelDefinition(
        name="damped",
        dim=3,
        coord_names=("q", "p", "z"),
        structure=_contact_structure(),
        hamiltonian=HamiltonianField(h, name="p^2/2+q^2/2+gamma*z"),
        realization=contact_birealization(),
        casimirs=(),
        e_of_h=lambda x: -g,
        params=params,
        default_x0=(1.0, 0.0, 0.0),
        sample_state=_box_sampler(-2.0, 2.0, 3),
        s_overrides={3: s3},
        domain_note="global chart; step solvability needs |t +- xi_z/2| "
        "comparable to |t|",
    )


# ---------------------------------------------------------------------------
# Planar system on (x, y): Lambda = (x^2+y^2) dx^dy, E = 2x dy - 2y dx.
# Two Hamiltonian variants; the quadratic one has a closed-form flow.
# ---------------------------------------------------------------------------


def _planar_structure() -> JacobiStructure:
    def lam(c):
        x, y = c
        r2 = x * x + y * y
        return [[0.0, r2], [-r2, 0.0]]

    def e(c):
        x, y = c
        return [-2.0 * y, 2.0 * x]

    return JacobiStructure(2, lam, e, name="jacobi2d")


def _planar_sampler(rng) -> ExtendedState:
    radius = rng.uniform(0.5, 1.5)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return ExtendedState(
        (radius * math.cos(angle), radius * math.sin(angle)),
        rng.uniform(0.5, 1.5),
    )


def _build_jacobi2d(overrides) -> ModelDefinition:
    overrides = dict(overrides)
    variant = overrides.pop("hamiltonian", "quadratic")
    if variant not in ("quadratic", "cossin"):
        raise ConfigError(
            f"unknown Hamiltonian variant {variant!r} for jacobi2d; "
            "choose 'quadratic' or 'cossin'"
        )
    params = _resolve_params("jacobi2d", {}, overrides)

    if variant == "quadratic":

        def h(c):
            x, y = c
            return x * x + y * y

        def e_of_h(x_coords):
            return 0.0

        h_name = "x^2+y^2"
    else:

        def h(c):
            x, y = c
            return jets.cos(x) * jets.sin(y)

        def e_of_h(x_coords):
            x, y = (float(v) for v in x_coords)
            return 2.0 * x * math.cos(x) * math.cos(y) + 2.0 * y * math.sin(
                x
            ) * math.sin(y)

        h_name = "cos(x)sin(y)"

    def radius_casimir(c):
        x, y, t = c
        return (x * x + y * y) / t

    return ModelDefinition(
        name="jacobi2d",
        dim=2,
        coord_names=("x", "y"),
        structure=_planar_structure(),
        hamiltonian=HamiltonianField(h, name=h_name),
        realization=polar_casimir_birealization(),
        casimirs=(("r2_over_t", radius_casimir),),
        e_of_h=e_of_h,
        params=params,
        default_x0=(1.0, 1.0),
        sample_state=_planar_sampler,
        domain_note="polar chart excludes the origin (r > 1e-8)",
        variant=variant,
    )


# ---------------------------------------------------------------------------
# 3D system: Lambda = 2x2 d1^d2 + 2x3 d1^d3, E = d1.
# ---------------------------------------------------------------------------


def _build_jacobi3d(overrides) -> ModelDefinition:
    params = _resolve_params("jacobi3d", {}, overrides)

    def lam(c):
        x1, x2, x3 = c
        return [
            [0.0, 2.0 * x2, 2.0 * x3],
            [-2.0 * x2, 0.0, 0.0],
            [-2.0 * x3, 0.0, 0.0],
        ]

    def e(c):
        return [1.0, 0.0, 0.0]

    def h(c):
        x1, x2, x3 = c
        return x1 * x1 + x2 * x2 + x3 * x3

    def s3(c):
        x1, x2, x3, t = c
        quartic = (
            3.0 * x3**4
            - x1**4
            + 10.0 * x1**2 * x2**2
            + 10.0 * x1**2 * x3**2
            + 3.0 * x2**4
            + 6.0 * x2**2 * x3**2
        )
        return t * quartic / 4.0

    return ModelDefinition(
        name="jacobi3d",
        dim=3,
        coord_names=("x1", "x2", "x3"),
        structure=JacobiStructure(3, lam, e, name="jacobi3d"),
        hamiltonian=HamiltonianField(h, name="x1^2+x2^2+x3^2"),
        realization=quadratic_casimir_birealization(),
        casimirs=(
            ("t2_x2", lambda c: c[3] * c[3] * c[1]),
            ("t2_x3", lambda c: c[3] * c[3] * c[2]),
        ),
        e_of_h=lambda x: 2.0 * float(x[0]),
        params=params,
        default_x0=(-1.0, 1.0, 1.0),
        sample_state=_box_sampler(-1.5, 1.5, 3),
        s_overrides={3: s3},
        domain_note="global chart; step solvability needs |t +- xi_1/2| "
        "comparable to |t|",
    )


# ---------------------------------------------------------------------------
# 4D system: Lambda = cos(x2) d_x1 ^ d_y1, E = e^{y2}(y1 d_x1 + x1 d_y1).
# No exact realization is attempted; the generic first-order map is used.
# ---------------------------------------------------------------------------


def _quartic_structure() -> JacobiStructure:
    def lam(c):
        x1, y1, x2, y2 = c
        cx = jets.cos(x2)
        return [
            [0.0, cx, 0.0, 0.0],
            [-cx, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]

    def e(c):
        x1, y1, x2, y2 = c
        ey = jets.exp(y2)
        return [y1 * ey, x1 * ey, 0.0, 0.0]

    return JacobiStructure(4, lam, e, name="jacobi4d")


def _build_jacobi4d(overrides) -> ModelDefinition:
    params = _resolve_params("jacobi4d", {}, overrides)
    structure = _quartic_structure()

    def h(c):
        x1, y1, x2, y2 = c
        return jets.cos(x1) + jets.sin(y1) + x2 + y2

    def e_of_h(x_coords):
        x1, y1, x2, y2 = (float(v) for v in x_coords)
        return math.exp(y2) * (x1 * math.cos(y1) - y1 * math.sin(x1))

    def log_casimir(c):
        x1, y1, x2, y2, t = c
        return jets.cos(x2) * jets.log(t) - 0.5 * jets.exp(y2) * (
            x1 * x1 - y1 * y1
        )

    return ModelDefinition(
        name="jacobi4d",
        dim=4,
        coord_names=("x1", "y1", "x2", "y2"),
        structure=structure,
        hamiltonian=HamiltonianField(h, name="cos(x1)+sin(y1)+x2+y2"),
        realization=first_order_birealization(structure),
        casimirs=(("mixed_log", log_casimir),),
        e_of_h=e_of_h,
        params=params,
        default_x0=(1.0, 1.0, math.pi / 4.0, -0.2),
        sample_state=_box_sampler(-1.5, 1.5, 4),
        domain_note="global chart; first-order realization, accurate for "
        "small step covectors; Casimir needs t > 0",
    )


# ---------------------------------------------------------------------------
# Predator-prey system on (x, y) > 0: Lambda = -a x y dx^dy with the
# two-parameter dissipation family e1 = cxy + (d+f)x, e2 = cxy + (d-f)y.
# ---------------------------------------------------------------------------


def _build_lotka_volterra(overrides) -> ModelDefinition:
    defaults = {
        "lambda1": 3.0,
        "lambda2": 4.0,
        "a": 1.0,
        "c": 0.0,
        "d": 1.0,
        "f": 1.0,
    }
    params = _resolve_params("lotka_volterra", defaults, overrides)
    lam1, lam2 = float(params["lambda1"]), float(params["lambda2"])
    a, c = float(params["a"]), float(params["c"])
    d, f = float(params["d"]), float(params["f"])
    if a == 0.0:
        raise ConfigError("lotka_volterra needs a != 0")
    if c != 0.0 or d != f:
        raise ConfigError(
            "the transported realization is implemented for c = 0 and "
            "d = f only"
        )
    gamma = (d + f) / a
    if gamma == 0.0:
        raise ConfigError("lotka_volterra needs d + f != 0")
    beta = (d - f) / a

    def lam(coords):
        x, y = coords
        return [[0.0, -a * x * y], [a * x * y, 0.0]]

    def e(coords):
        x, y = coords
        return [c * x * y + (d + f) * x, c * x * y + (d - f) * y]

    def h(coords):
        x, y = coords
        return x - lam1 * jets.log(x) + y - lam2 * jets.log(y)

    def e_of_h(x_coords):
        x, y = (float(v) for v in x_coords)
        return (c * x * y + (d + f) * x) * (1.0 - lam1 / x) + (
            c * x * y + (d - f) * y
        ) * (1.0 - lam2 / y)

    def log_casimir(coords):
        x, y, t = coords
        value = jets.log(t) - gamma * jets.log(y)
        if c != 0.0:
            value = value + (c / a) * (x - y)
        if beta != 0.0:
            value = value + beta * jets.log(x)
        return value

    def sample(rng) -> ExtendedState:
        return ExtendedState(
            tuple(rng.uniform(0.5, 3.0, 2)), rng.uniform(0.5, 1.5)
        )

    return ModelDefinition(
        name="lotka_volterra",
        dim=2,
        coord_names=("x", "y"),
        structure=JacobiStructure(2, lam, e, name="lotka_volterra"),
        hamiltonian=HamiltonianField(
            h, name="x-lambda1*log(x)+y-lambda2*log(y)"
        ),
        realization=lotka_volterra_birealization(a, gamma),
        casimirs=(("log_ratio", log_casimir),),
        e_of_h=e_of_h,
        params=params,
        default_x0=(4.0, 2.0),
        sample_state=sample,
        domain_note="populations x, y > 0 and scale t > 0; chart "
        "solvability needs a*gamma*V'*exp(-Z') < 1",
    )


# ---------------------------------------------------------------------------
# Rigid-body system: the linear so(3)-type bivector with a dissipation
# family that annihilates the radius (sum a_i = 0 makes E.x vanish).
# ---------------------------------------------------------------------------


def _build_rigid_body(overrides) -> ModelDefinition:
    defaults = {
        "I1": 5.0,
        "I2": 10.0,
        "I3": 10.0,
        "a1": 0.2,
        "a2": 0.2,
        "a3": -0.4,
        "d1": 0.1,
        "d2": 0.1,
        "d3": 0.1,
    }
    params = _resolve_params("rigid_body", defaults, overrides)
    i1, i2, i3 = (float(params[k]) for k in ("I1", "I2", "I3"))
    a1, a2, a3 = (float(params[k]) for k in ("a1", "a2", "a3"))
    d1, d2, d3 = (float(params[k]) for k in ("d1", "d2", "d3"))
    if abs(a1 + a2 + a3) > 1e-12:
        raise ConfigError("rigid_body needs a1 + a2 + a3 = 0")

    def lam(c):
        x1, x2, x3 = c
        return [[0.0, -x3, x2], [x3, 0.0, -x1], [-x2, x1, 0.0]]

    def e(c):
        x1, x2, x3 = c
        return [
            a1 * x2 * x3 + d3 * x2 + d1 * x3,
            a2 * x1 * x3 - d3 * x1 + d2 * x3,
            a3 * x1 * x2 - d1 * x1 - d2 * x2,
        ]

    def h(c):
        x1, x2, x3 = c
        return 0.5 * (
            (i2 + i3) * x1 * x1 + (i1 + i3) * x2 * x2 + (i1 + i2) * x3 * x3
        )

    def e_of_h(x_coords):
        x1, x2, x3 = (float(v) for v in x_coords)
        return (
            x1
            * x2
            * x3
            * (a1 * (i2 + i3) + a2 * (i1 + i3) + a3 * (i1 + i2))
            + d3 * x1 * x2 * (i2 - i1)
            + d1 * x1 * x3 * (i3 - i1)
            + d2 * x2 * x3 * (i3 - i2)
        )

    structure = JacobiStructure(3, lam, e, name="rigid_body")
    return ModelDefinition(
        name="rigid_body",
        dim=3,
        coord_names=("x1", "x2", "x3"),
        structure=structure,
        hamiltonian=HamiltonianField(
            h, name="((I2+I3)x1^2+(I1+I3)x2^2+(I1+I2)x3^2)/2"
        ),
        realization=first_order_birealization(structure),
        casimirs=(
            ("radius", lambda c: c[0] * c[0] + c[1] * c[1] + c[2] * c[2]),
        ),
        e_of_h=e_of_h,
        params=params,
        default_x0=(1.0, 1.0, 1.0),
        sample_state=_box_sampler(-1.5, 1.5, 3),
        domain_note="global chart; first-order realization, accurate for "
        "small step covectors",
    )


_BUILDERS = {
    "contact": _build_contact,
    "jacobi2d": _build_jacobi2d,
    "jacobi3d": _build_jacobi3d,
    "jacobi4d": _build_jacobi4d,
    "damped": _build_damped,
    "lotka_volterra": _build_lotka_volterra,
    "rigid_body": _build_rigid_body,
}


def model_names() -> Tuple[str, ...]:
    return tuple(_BUILDERS)


def build_model(name: str, overrides: Optional[dict] = None) -> ModelDefinition:
    """Construct a catalog entry, applying parameter overrides.

    jacobi2d additionally accepts the override key ``hamiltonian`` with
    value ``quadratic`` (default) or ``cossin``.
    """
    if name not in _BUILDERS:
        raise ConfigError(
            f"unknown model {name!r}; valid names: {sorted(_BUILDERS)}"
        )
    overrides = dict(overrides or {})
    model = _BUILDERS[name](dict(overrides))
    key = (name, tuple(sorted((str(k), repr(v)) for k, v in overrides.items())))
    object.__setattr__(model, "catalog_key", key)
    return model


def exact_flow(name: str, x0, t_final: float) -> np.ndarray:
    """Analytic flow for models that admit one.

    Only the planar quadratic Hamiltonian qualifies: the radius is
    conserved and the angle advances at the constant rate -4 r^2, so the
    motion is a rigid rotation of the plane.
    """
    if name != "jacobi2d":
        raise CapabilityError(f"no closed-form flow for model {name!r}")
    x, y = float(x0[0]), float(x0[1])
    radius = math.hypot(x, y)
    angle = math.atan2(y, x) - 4.0 * radius * radius * float(t_final)
    return np.array([radius * math.cos(angle), radius * math.sin(angle)])
