"""Zero flags decided by theory, checked against the sampling sweep.

``compute_coefficients`` flags a recursion-built S_2, and S_4 on exact
and transported realizations, as identically zero without evaluating
them, once d alpha / d xi at xi = 0 passes an antisymmetry check.  The
oracle here is the sweep it replaces: each field evaluated at the
default 100 sample points.
"""

import pytest

from jhi.birealization import BiRealization
from jhi.generating import (
    _default_sample_points,
    _is_identically_zero,
    _linear_term_is_antisymmetric,
    compute_coefficients,
)
from jhi.integrator import _build_scheme
from jhi.jacobi import lifted_hamiltonian_field
from jhi.models import build_model, model_names

ZERO_TOL = 1e-12  # compute_coefficients' default

CATALOG = [(name, None) for name in model_names()] + [
    ("jacobi2d", {"hamiltonian": "cossin"})
]


def swept_flags(fields, h_lifted, size):
    points = _default_sample_points(size)
    return tuple(_is_identically_zero(f, h_lifted, points, ZERO_TOL) for f in fields)


@pytest.mark.parametrize(
    "name, params", CATALOG, ids=[n if p is None else n + "_cossin" for n, p in CATALOG]
)
def test_flags_match_the_sweep(name, params):
    model = build_model(name, params)
    size = model.realization.size
    assert _linear_term_is_antisymmetric(
        model.realization, _default_sample_points(size)[0], ZERO_TOL
    )
    # fields of a lower order are the leading fields of the order-4 build
    full = _build_scheme(model, 4)[1]
    swept = swept_flags(
        full.fields, lifted_hamiltonian_field(model.hamiltonian), size
    )
    for order in range(1, 5):
        assert _build_scheme(model, order)[1].zero_flags == swept[:order]


def planar_hhat(c):
    x, y, t = c
    return t * (x * x + y * y)


def test_symmetric_linear_term_falls_back_to_the_sweep():
    # alpha = x - xi: d alpha / d xi = -I is symmetric, so theory does not
    # apply and S_2 = -(1/2) |grad S_1|^2 is swept and found nonzero
    def alpha(coords, xi):
        return tuple(c - v for c, v in zip(coords, xi))

    realization = BiRealization(3, alpha, lambda c, x: True, kind="exact")
    points = _default_sample_points(3)
    assert not _linear_term_is_antisymmetric(realization, points[0], ZERO_TOL)
    coeffs = compute_coefficients(planar_hhat, realization, 2)
    assert coeffs.provenance == ("closed_form", "recursion")
    assert coeffs.zero_flags == (False, False)
    assert coeffs.zero_flags == swept_flags(coeffs.fields, planar_hhat, 3)
