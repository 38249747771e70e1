"""Acceptance suite: one test per criterion, one verdict line each.

Each test runs the corresponding benchmark check with its default
(pinned) tolerances, through the session fixture that ``test_golden``
shares, and asserts the verdict.  The printed line carries the measured
numbers so a failing run documents itself.
"""


def _assert_passed(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_1_planar_quadratic_exactness(criterion_result):
    _assert_passed(criterion_result(1))


def test_criterion_2_planar_cosine_product_convergence(criterion_result):
    _assert_passed(criterion_result(2))


def test_criterion_3_triple_product_convergence(criterion_result):
    _assert_passed(criterion_result(3))


def test_criterion_4_first_order_realization_convergence(criterion_result):
    _assert_passed(criterion_result(4))


def test_criterion_5_damped_oscillator_convergence(criterion_result):
    _assert_passed(criterion_result(5))


def test_criterion_6_predator_prey_convergence(criterion_result):
    _assert_passed(criterion_result(6))


def test_criterion_7_invariant_drift_magnitudes(criterion_result):
    _assert_passed(criterion_result(7))


def test_criterion_8_closed_form_third_coefficient(criterion_result):
    _assert_passed(criterion_result(8))


def test_criterion_9_randomized_structure_properties(criterion_result):
    _assert_passed(criterion_result(9))
