"""Shared fixtures.

The nine acceptance criteria are the slowest checks in the suite, and
both ``test_acceptance`` and ``test_golden`` read their results.  The
session fixture runs each criterion at most once per session.
"""

import pytest

from jhi.validation import (
    check_closed_form_coefficients,
    check_damped_table,
    check_drift_magnitudes,
    check_exact_quadratic,
    check_planar_table,
    check_predator_prey_table,
    check_quartic_table,
    check_randomized_properties,
    check_triple_table,
)

CRITERIA = (
    check_exact_quadratic,
    check_planar_table,
    check_triple_table,
    check_quartic_table,
    check_damped_table,
    check_predator_prey_table,
    check_drift_magnitudes,
    check_closed_form_coefficients,
    check_randomized_properties,
)


@pytest.fixture(scope="session")
def criterion_result():
    """criterion_result(i) -> CriterionResult of criterion i (1-based), memoized."""
    cache = {}

    def get(index):
        if index not in cache:
            cache[index] = CRITERIA[index - 1]()
        return cache[index]

    return get
