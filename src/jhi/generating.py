"""Recursive construction of generating-function coefficients.

The step map of order k is generated by k scalar fields S_1..S_k on the
extended chart.  S_1 is the lifted Hamiltonian; each later coefficient is
the Taylor coefficient of the lifted Hamiltonian evaluated along alpha fed
with the accumulated covector

    xi(s) = sum_{j=1}^{i} s^j  grad S_j(x),

namely S_{i+1}(x) = coeff_i[ Hhat(alpha(x, xi(s))) ] / (i+1), the gradient
being the full extended one (t component included).  All evaluation is done
with truncated series in the formal parameter s whose coefficients may be
dual numbers, so gradients of recursion-built coefficients come from one
more dual pass over the same expression; while a compiled kernel traces
them, from a reverse sweep over the recorded value instead
(``compiled.gradient``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import jets
from .birealization import BiRealization
from .errors import CapabilityError, ConfigError, EvaluationError
from .jacobi import ExtendedState

__all__ = [
    "GeneratingCoefficients",
    "compute_coefficients",
    "combined_covector",
    "homogeneity_defect",
]


@dataclass(frozen=True)
class GeneratingCoefficients:
    """S_1..S_k with bookkeeping about how each one was obtained.

    fields[i-1] evaluates S_i on a tuple of extended coordinates (floats
    or jet scalars).  Coefficients flagged identically zero are skipped
    when assembling the step covector.  ``kernels`` holds the integrator's
    compiled step kernels, one entry per realization, built on first use.
    """

    order: int
    fields: Tuple[Callable, ...]
    provenance: Tuple[str, ...]
    zero_flags: Tuple[bool, ...]
    kernels: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def value(self, i: int, coords) -> float:
        return float(self.fields[i - 1](tuple(float(v) for v in coords)))

    def covector_kernel(self, ds: float, coords):
        """sum_i ds^i grad S_i(coords) as a tuple; jet coords and ds welcome."""
        m = len(coords)
        total = [0.0] * m
        if isinstance(ds, (int, float)) and ds == 0.0:
            return tuple(total)  # a zero step has a zero covector
        weight = 1.0
        for i in range(self.order):
            weight = weight * ds
            if self.zero_flags[i]:
                continue
            grad = _gradient(self.fields[i], coords, self.provenance[i] == "recursion")
            for comp in range(m):
                total[comp] = total[comp] + weight * grad[comp]
        return tuple(total)


def _series_coefficient(value, index):
    if isinstance(value, jets.TruncatedSeries):
        return value.coeffs[index]
    return 0.0


def _gradient(f, coords, recursion: bool):
    """grad f at coords.  A recursion-built f on recording scalars (a
    compiled kernel's trace) gets a reverse sweep over its recorded value,
    whose cost does not grow with the number of coordinates; everything
    else takes one forward dual layer."""
    if recursion and all(isinstance(c, jets.Leaf) for c in coords):
        from .compiled import gradient  # loaded already: it made the scalars

        return gradient(f(coords), coords)
    return jets.evaluate_with_gradient(f, coords)[1]


def _recursion_field(
    h_lifted,
    realization: BiRealization,
    prior: Sequence[Callable],
    provenance: Sequence[str],
    index: int,
):
    """Field for S_{index+1} given prior = (S_1 .. S_index) and how each
    was obtained."""

    def field(coords):
        coords = tuple(coords)
        m = len(coords)
        grads = [
            _gradient(f, coords, how == "recursion") for f, how in zip(prior, provenance)
        ]
        xi = tuple(
            jets.TruncatedSeries([0.0] + [grads[j][comp] for j in range(index)])
            for comp in range(m)
        )
        try:
            image = realization.alpha_kernel(coords, xi)
            pushed = h_lifted(image)
        except TypeError as exc:
            raise CapabilityError(
                "realization is not jet-evaluable; supply closed-form coefficients"
            ) from exc
        return _series_coefficient(pushed, index) / (index + 1.0)

    return field


def _default_sample_points(size: int, count: int = 100):
    rng = np.random.default_rng(0)
    return rng.uniform(0.5, 1.5, size=(count, size))


def _is_identically_zero(field, h_lifted, sample_points, tol: float) -> bool:
    for pt in sample_points:
        pt = tuple(float(v) for v in pt)
        href = abs(float(h_lifted(pt)))
        if abs(float(field(pt))) > tol * (1.0 + href):
            return False
    return True


def _zero_by_theory(realization: BiRealization, index: int) -> bool:
    """Whether a recursion-built S_index vanishes identically by theory.

    With A = d alpha / d xi at xi = 0 antisymmetric (the linear term of
    alpha is -(1/2) Pi xi), S_2 = (1/2) grad S_1 . A grad S_1 = 0 on
    every realization.  S_4 vanishes too where the bi-realization law
    holds exactly, which the kinds "exact" and "transported" declare;
    reflection alone (beta(xi) = alpha(-xi)) does not make it vanish.
    """
    return index == 2 or (index == 4 and realization.kind in ("exact", "transported"))


def _linear_term_is_antisymmetric(realization: BiRealization, point, tol: float) -> bool:
    """Premise of the theory flags: A + A^T = 0 at one point, where
    A = d alpha / d xi at xi = 0, from one dual pass over alpha_kernel."""
    coords = tuple(float(v) for v in point)
    m = len(coords)
    xi = tuple(jets.Dual.seed(0.0, j, m) for j in range(m))
    try:
        image = realization.alpha_kernel(coords, xi)
    except TypeError as exc:
        raise CapabilityError(
            "realization is not jet-evaluable; supply closed-form coefficients"
        ) from exc
    rows = [
        [float(p) for p in v.partials] if isinstance(v, jets.Dual) else [0.0] * m
        for v in image
    ]
    scale = max(abs(p) for row in rows for p in row)
    return all(
        abs(rows[i][j] + rows[j][i]) <= tol * (1.0 + scale)
        for i in range(m)
        for j in range(i, m)
    )


def compute_coefficients(
    h_lifted: Callable,
    realization: BiRealization,
    k: int,
    overrides: Optional[dict] = None,
    sample_points=None,
    zero_tol: float = 1e-12,
) -> GeneratingCoefficients:
    """Build S_1..S_k; closed-form overrides win over the recursion.

    overrides maps the coefficient index i (2-based in practice) to a
    scalar field.  Recursion-built S_2, and S_4 on exact and transported
    realizations, are flagged zero by theory once the realization's
    linear term passes the antisymmetry check at the first sample point;
    every other coefficient, and all of them on a realization that fails
    the check, go through the identically-zero sweep.  sample_points
    defaults to a seeded cloud in the positive unit box, which lies in
    the domain of every catalog realization.
    """
    if k < 1:
        raise ConfigError("coefficient order must be at least 1")
    overrides = overrides or {}
    if sample_points is None:
        sample_points = _default_sample_points(realization.size)

    fields = [h_lifted]
    provenance = ["closed_form"]
    zero_flags = [False]
    premise = None  # the antisymmetry check, run once if theory is asked
    for i in range(1, k):
        zero = False
        if (i + 1) in overrides:
            field = overrides[i + 1]
            provenance.append("closed_form")
        else:
            field = _recursion_field(
                h_lifted, realization, tuple(fields), tuple(provenance), i
            )
            provenance.append("recursion")
            if _zero_by_theory(realization, i + 1):
                if premise is None:
                    premise = _linear_term_is_antisymmetric(
                        realization, sample_points[0], zero_tol
                    )
                zero = premise
        if not zero:
            zero = _is_identically_zero(field, h_lifted, sample_points, zero_tol)
        zero_flags.append(zero)
        fields.append(field)
    return GeneratingCoefficients(
        k, tuple(fields), tuple(provenance), tuple(zero_flags)
    )


def combined_covector(coeffs: GeneratingCoefficients, ds: float, y: ExtendedState) -> np.ndarray:
    """sum_i ds^i grad S_i(y) over extended coordinates."""
    if ds == 0.0:
        return np.zeros(y.dim + 1)
    out = coeffs.covector_kernel(float(ds), y.coords())
    arr = np.array([float(v) for v in out])
    if not np.all(np.isfinite(arr)):
        raise EvaluationError("non-finite step covector")
    return arr


def homogeneity_defect(coeffs: GeneratingCoefficients, state: ExtendedState, z: float) -> float:
    """Largest relative violation of S_i(x, z t) = z S_i(x, t) and of the
    matching gradient identities (spatial block scales by z, t-derivative
    is unchanged)."""
    if z == 0.0:
        raise ConfigError("homogeneity parameter z must be nonzero")
    base = state.coords()
    scaled = base[:-1] + (z * base[-1],)
    worst = 0.0
    for i in range(coeffs.order):
        field = coeffs.fields[i]
        val, grad = jets.evaluate_with_gradient(field, base)
        val_z, grad_z = jets.evaluate_with_gradient(field, scaled)
        val, val_z = float(val), float(val_z)
        worst = max(worst, abs(val_z - z * val) / (1.0 + abs(z * val)))
        for comp in range(len(base) - 1):
            lhs, rhs = float(grad_z[comp]), z * float(grad[comp])
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
        lhs, rhs = float(grad_z[-1]), float(grad[-1])
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    return worst
