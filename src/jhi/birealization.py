"""Homogeneous symplectic bi-realizations and coordinate transports.

A bi-realization is a pair of maps alpha, beta from the cotangent bundle of
the extended chart back to the chart, with beta(s, xi) = alpha(s, -xi),
alpha(s, 0) = s, and equivariance under the homogeneity action.  Three
constructions are provided:

  * canonical midpoint-shift realizations on charts made of conjugate
    coordinate pairs plus Casimir slots,
  * transport of a canonical realization through a coordinate change F,
    alpha = F^{-1} o alpha_can o (F^{-1})^*,
  * the generic first-order approximation alpha = s - (1/2) Pi(s) xi.

Kernels operate on plain tuples of scalars and accept jet values, so the
same code path serves numeric stepping and the series recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import jets
from .errors import ConfigError, DomainViolationError, EvaluationError
from .jacobi import CotangentData, ExtendedState, JacobiStructure

__all__ = [
    "BiRealization",
    "CoordinateChange",
    "cotangent_lift",
    "canonical_pair_birealization",
    "transported_birealization",
    "first_order_birealization",
    "contact_change",
    "contact_birealization",
    "polar_casimir_change",
    "polar_casimir_birealization",
    "quadratic_casimir_change",
    "quadratic_casimir_birealization",
    "lotka_volterra_change",
    "lotka_volterra_birealization",
]


@dataclass(frozen=True)
class BiRealization:
    """Bundle of alpha/beta maps over one extended chart (t slot last).

    alpha_kernel(coords, xi) -> coords works on tuples of floats or jet
    scalars; the typed alpha/beta below wrap it for state containers.

    ``kind`` "exact" or "transported" declares that the bi-realization
    law ({alpha^i, alpha^j} = Pi^ij(alpha), {beta^i, beta^j} =
    -Pi^ij(beta), {alpha^i, beta^j} = 0) holds exactly; generating.py
    flags S_4 as identically zero on that declaration.
    "first_order_approximate" satisfies it to first order in xi only.
    """

    size: int
    alpha_kernel: Callable
    domain_kernel: Callable
    kind: str
    beta_kernel: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in ("exact", "transported", "first_order_approximate"):
            raise ConfigError("unknown realization kind: %r" % (self.kind,))
        if self.beta_kernel is None:
            alpha = self.alpha_kernel

            def reflected(coords, xi):
                return alpha(coords, tuple(-v for v in xi))

            object.__setattr__(self, "beta_kernel", reflected)

    def alpha(self, c: CotangentData) -> ExtendedState:
        out = self.alpha_kernel(c.base.coords(), c.covector())
        return ExtendedState.from_coords(float(v) for v in out)

    def beta(self, c: CotangentData) -> ExtendedState:
        out = self.beta_kernel(c.base.coords(), c.covector())
        return ExtendedState.from_coords(float(v) for v in out)

    def domain_ok(self, c: CotangentData) -> bool:
        return bool(self.domain_kernel(c.base.coords(), c.covector()))


@dataclass(frozen=True)
class CoordinateChange:
    """Diffeomorphism F of the extended chart with its covector transport.

    covector(coords, xi) is the closed-form lift when available; otherwise
    lifts fall back to solving J_F(x)^T eta = xi with a dual-number
    Jacobian.  inverse_jacobian, when supplied, gives J_{F^{-1}} at a
    TARGET point and provides a second closed-form route.
    """

    size: int
    forward: Callable
    inverse: Callable
    covector: Optional[Callable] = None
    inverse_jacobian: Optional[Callable] = None


def _numeric_jacobian(fn, coords):
    m = len(coords)
    seeded = tuple(jets.Dual.seed(float(c), i, m) for i, c in enumerate(coords))
    out = fn(seeded)
    jac = np.zeros((m, m))
    for i, entry in enumerate(out):
        if isinstance(entry, jets.Dual):
            jac[i, :] = entry.partials
    return jac


def _lift_kernel(change: CoordinateChange, coords, xi):
    """Covector transport eta with J_F(x)^T eta = xi, as a plain tuple."""
    if change.covector is not None:
        return tuple(change.covector(coords, xi))
    coords_f = tuple(float(v) for v in coords)
    xi_f = np.array([float(v) for v in xi])
    if change.inverse_jacobian is not None:
        jinv = np.asarray(change.inverse_jacobian(change.forward(coords_f)), dtype=float)
        return tuple(jinv.T @ xi_f)
    jac = _numeric_jacobian(change.forward, coords_f)
    try:
        eta = np.linalg.solve(jac.T, xi_f)
    except np.linalg.LinAlgError as exc:
        raise EvaluationError("singular Jacobian in covector lift") from exc
    return tuple(eta)


def cotangent_lift(change: CoordinateChange, c: CotangentData) -> CotangentData:
    """Transport a covector through F: base by forward, xi by J_F^{-T}."""
    eta = _lift_kernel(change, c.base.coords(), c.covector())
    target = change.forward(c.base.coords())
    base = ExtendedState.from_coords(float(v) for v in target)
    return CotangentData(base, [float(v) for v in eta[:-1]], float(eta[-1]))


def canonical_pair_birealization(size: int, pairs: Sequence[Tuple[int, int]]) -> BiRealization:
    """Midpoint-shift realization: for each bivector pair d_u ^ d_v,

        u' = u - xi_v / 2,   v' = v + xi_u / 2,

    and untouched slots pass through (Casimir directions).
    """
    used = set()
    for pair in pairs:
        if len(pair) != 2:
            raise ConfigError("pair must have exactly two indices")
        u, v = pair
        if not (0 <= u < size and 0 <= v < size) or u == v:
            raise ConfigError("invalid conjugate pair (%r, %r)" % (u, v))
        if u in used or v in used:
            raise ConfigError("coordinate index paired twice")
        used.update((u, v))

    pairs = tuple((int(u), int(v)) for u, v in pairs)

    def alpha_kernel(coords, xi):
        out = list(coords)
        for u, v in pairs:
            out[u] = coords[u] - 0.5 * xi[v]
            out[v] = coords[v] + 0.5 * xi[u]
        return tuple(out)

    def domain_kernel(coords, xi):
        return True

    return BiRealization(size, alpha_kernel, domain_kernel, kind="exact")


def _default_transport_domain(alpha_kernel, beta_kernel):
    def domain_kernel(coords, xi):
        coords = tuple(float(v) for v in coords)
        xi = tuple(float(v) for v in xi)
        try:
            for kernel in (alpha_kernel, beta_kernel):
                out = kernel(coords, xi)
                vals = [float(v) for v in out]
                if not all(np.isfinite(vals)):
                    return False
                if vals[-1] * coords[-1] <= 0.0:
                    return False
        except (EvaluationError, ZeroDivisionError, ValueError, OverflowError, FloatingPointError):
            return False
        return True

    return domain_kernel


def transported_birealization(
    change: CoordinateChange,
    canonical: BiRealization,
    domain_kernel: Optional[Callable] = None,
) -> BiRealization:
    """alpha = F^{-1} o alpha_can o (F^{-1})^*, likewise beta."""

    def alpha_kernel(coords, xi):
        eta = _lift_kernel(change, coords, xi)
        image = canonical.alpha_kernel(change.forward(coords), eta)
        return change.inverse(image)

    def beta_kernel(coords, xi):
        eta = _lift_kernel(change, coords, xi)
        image = canonical.beta_kernel(change.forward(coords), eta)
        return change.inverse(image)

    if domain_kernel is None:
        domain_kernel = _default_transport_domain(alpha_kernel, beta_kernel)
    return BiRealization(
        change.size, alpha_kernel, domain_kernel, kind="transported", beta_kernel=beta_kernel
    )


def first_order_birealization(structure: JacobiStructure) -> BiRealization:
    """alpha(s, xi) = s - (1/2) Pi(s) xi over extended indices.

    Componentwise, with t the last slot,

        alpha^i = x^i - (1/2) (sum_j Lambda^{ij} xi_j / t - E^i xi_t)
        alpha^t = t   - (1/2)  sum_i E^i xi_i .
    """
    n = structure.dim
    size = n + 1

    def alpha_kernel(coords, xi):
        x = coords[:n]
        t = coords[n]
        lam = structure.lam(x)
        ev = structure.e(x)
        out = []
        for i in range(n):
            acc = lam[i][0] * xi[0]
            for j in range(1, n):
                acc = acc + lam[i][j] * xi[j]
            out.append(x[i] - 0.5 * (acc / t - ev[i] * xi[n]))
        tacc = ev[0] * xi[0]
        for i in range(1, n):
            tacc = tacc + ev[i] * xi[i]
        out.append(t - 0.5 * tacc)
        return tuple(out)

    def beta_kernel(coords, xi):
        return alpha_kernel(coords, tuple(-v for v in xi))

    def domain_kernel(coords, xi):
        coords = tuple(float(v) for v in coords)
        xi = tuple(float(v) for v in xi)
        if coords[-1] == 0.0:
            return False
        for kernel in (alpha_kernel, beta_kernel):
            t_out = float(kernel(coords, xi)[-1])
            if not np.isfinite(t_out) or t_out * coords[-1] <= 0.0:
                return False
        return True

    return BiRealization(
        size, alpha_kernel, domain_kernel, kind="first_order_approximate", beta_kernel=beta_kernel
    )


# ---------------------------------------------------------------------------
# Catalog coordinate changes and the realizations built on them
# ---------------------------------------------------------------------------


def contact_change() -> CoordinateChange:
    """(q, p, z, t) -> (q, p t, -z, t): straightens the contact structure."""

    def forward(c):
        q, p, z, t = c
        return (q, p * t, -z, t)

    def inverse(c):
        q, pp, zz, t = c
        return (q, pp / t, -zz, t)

    def covector(c, xi):
        q, p, z, t = c
        xq, xp, xz, xt = xi
        return (xq, xp / t, -xz, xt - p * (xp / t))

    def inverse_jacobian(target):
        q, pp, zz, t = (float(v) for v in target)
        return np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0 / t, 0.0, -pp / (t * t)],
                [0.0, 0.0, -1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )

    return CoordinateChange(4, forward, inverse, covector, inverse_jacobian)


def contact_birealization() -> BiRealization:
    canonical = canonical_pair_birealization(4, [(1, 0), (3, 2)])

    def domain_kernel(coords, xi):
        t = float(coords[-1])
        xz = float(xi[2])
        if t == 0.0:
            return False
        return min(abs(t - 0.5 * xz), abs(t + 0.5 * xz)) > 1e-8 * abs(t) and (
            (t - 0.5 * xz) * t > 0.0 and (t + 0.5 * xz) * t > 0.0
        )

    return transported_birealization(contact_change(), canonical, domain_kernel)


def polar_casimir_change() -> CoordinateChange:
    """(x, y, t) -> (theta, -t/2, r^2/t): polar angle with a Casimir slot."""

    def forward(c):
        x, y, t = c
        return (jets.arctan2(y, x), -0.5 * t, (x * x + y * y) / t)

    def inverse(c):
        q, p, cas = c
        t = -2.0 * p
        r = jets.sqrt(cas * t)
        return (r * jets.cos(q), r * jets.sin(q), t)

    def covector(c, xi):
        x, y, t = c
        xx, xy, xt = xi
        r2 = x * x + y * y
        radial = x * xx + y * xy
        return (x * xy - y * xx, -2.0 * xt - radial / t, t * radial / (2.0 * r2))

    return CoordinateChange(3, forward, inverse, covector)


def polar_casimir_birealization() -> BiRealization:
    canonical = canonical_pair_birealization(3, [(0, 1)])

    def domain_kernel(coords, xi):
        x, y, t = (float(v) for v in coords)
        xx, xy, _ = (float(v) for v in xi)
        if t == 0.0 or x * x + y * y == 0.0:
            return False
        swirl = x * xy - y * xx
        # t' = t -/+ swirl must keep the sign of t for both branches
        return (t - swirl) * t > 1e-8 * t * t and (t + swirl) * t > 1e-8 * t * t

    return transported_birealization(polar_casimir_change(), canonical, domain_kernel)


def quadratic_casimir_change() -> CoordinateChange:
    """(x1, x2, x3, t) -> (x1, t^2 x2, t^2 x3, t): freezes the Casimirs."""

    def forward(c):
        x1, x2, x3, t = c
        t2 = t * t
        return (x1, t2 * x2, t2 * x3, t)

    def inverse(c):
        y1, y2, y3, t = c
        t2 = t * t
        return (y1, y2 / t2, y3 / t2, t)

    def covector(c, xi):
        x1, x2, x3, t = c
        k1, k2, k3, kt = xi
        t2 = t * t
        return (k1, k2 / t2, k3 / t2, kt - 2.0 * (x2 * k2 + x3 * k3) / t)

    return CoordinateChange(4, forward, inverse, covector)


def quadratic_casimir_birealization() -> BiRealization:
    canonical = canonical_pair_birealization(4, [(3, 0)])

    def domain_kernel(coords, xi):
        t = float(coords[-1])
        k1 = float(xi[0])
        if t == 0.0:
            return False
        return min(abs(t - 0.5 * k1), abs(t + 0.5 * k1)) > 1e-8 * abs(t) and (
            (t - 0.5 * k1) * t > 0.0 and (t + 0.5 * k1) * t > 0.0
        )

    return transported_birealization(quadratic_casimir_change(), canonical, domain_kernel)


def lotka_volterra_change(a: float, gamma: float) -> CoordinateChange:
    """(x, y, t) -> (log x, t (y^-gamma - 1)/(a gamma), log t - gamma log y).

    Valid on the positive orthant; the last slot is the Casimir of the
    lifted structure (with the c = 0, d = f parameter reduction).
    """
    if a == 0.0 or gamma == 0.0:
        raise ConfigError("realization requires a != 0 and gamma != 0")

    def forward(c):
        x, y, t = c
        ym = jets.power(y, -gamma)
        return (jets.log(x), t * (ym - 1.0) / (a * gamma), jets.log(t) - gamma * jets.log(y))

    def inverse(c):
        u, v, z = c
        ez = jets.exp(z)
        cas = a * gamma * v / ez
        y_pow = 1.0 - cas
        return (jets.exp(u), jets.power(y_pow, 1.0 / gamma), ez * y_pow)

    def covector(c, xi):
        x, y, t = c
        xx, xy, xt = xi
        ym = jets.power(y, -gamma)
        eta_u = x * xx
        eta_v = -a * gamma * xt - (a * y / t) * xy
        eta_z = t * ym * xt + (y / gamma) * (ym - 1.0) * xy
        return (eta_u, eta_v, eta_z)

    return CoordinateChange(3, forward, inverse, covector)


def lotka_volterra_birealization(a: float, gamma: float) -> BiRealization:
    """Exact realization on x, y, t > 0; aborts when 1 - C degenerates."""
    change = lotka_volterra_change(a, gamma)
    canonical = canonical_pair_birealization(3, [(0, 1)])

    def degeneracy(coords, xi, sign):
        # C' = a*gamma*V' e^{-Z'} for the shifted canonical point
        x, y, t = coords
        xx, xy, xt = xi
        v = t * (y ** (-gamma) - 1.0) / (a * gamma)
        z = np.log(t) - gamma * np.log(y)
        v_shift = v + sign * 0.5 * (x * xx)
        return a * gamma * v_shift * np.exp(-z)

    def domain_kernel(coords, xi):
        coords = tuple(float(v) for v in coords)
        xi = tuple(float(v) for v in xi)
        if min(coords) <= 0.0:
            return False
        for sign in (1.0, -1.0):
            if degeneracy(coords, xi, sign) >= 1.0 - 1e-10:
                return False
        return True

    out = transported_birealization(change, canonical, domain_kernel)
    return out
