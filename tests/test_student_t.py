"""The Student t tail of the p-values against 50-digit mpmath and scipy."""

import math

import mpmath
import numpy as np
import pytest
from scipy.stats import t as student_t

from varsel.student_t import LARGE_A, _gamma_ratio, two_sided_tail

DOFS = (1, 2, 3, 5, 10, 36, 100, 1211, 5000, 1e5)
# from 0 to past underflow at every dof (|t| near 1.7e308 at dof 1), with a
# linear stretch through the bulk, where p runs from about 1 to 1e-300
T_GRID = np.unique(np.r_[0.0, np.geomspace(1e-8, 1.7e308, 48),
                         np.linspace(0.25, 40.0, 48)])


def exact_tail(t, dof):
    """``I_x(dof/2, 1/2)``, ``x = dof / (dof + t^2)``, in 50 digits, by
    ``mpmath.betainc``'s own series ``x^a 2F1(a, 1 - b; a + 1; x) / (a B(a,
    b))``, with a higher precision ceiling: ``betainc`` gives up near x = 1
    at dof = 1e5."""
    with mpmath.workdps(50):
        t, dof = mpmath.mpf(t), mpmath.mpf(dof)
        if t == 0:
            return mpmath.mpf(1)
        a, b = dof / 2, mpmath.mpf(1) / 2
        x = dof / (dof + t * t)
        series = mpmath.hyp2f1(a, 1 - b, a + 1, x, maxprec=200_000)
        return x**a * series / (a * mpmath.beta(a, b))


@pytest.fixture(scope="module")
def exact_grid():
    """Each dof of the grid with its tails and their exact values."""
    return [(dof, two_sided_tail(T_GRID, dof), [exact_tail(t, dof) for t in T_GRID])
            for dof in DOFS]


def test_the_reference_is_betainc_where_betainc_converges():
    for t, dof in ((0.3, 1), (2.0, 5), (4.5, 36), (1.5, 1211), (12.0, 100)):
        with mpmath.workdps(50):
            x = mpmath.mpf(dof) / (dof + mpmath.mpf(t) ** 2)
            want = mpmath.betainc(mpmath.mpf(dof) / 2, 0.5, 0, x, regularized=True)
            assert abs(exact_tail(t, dof) - want) <= mpmath.mpf(10) ** -45 * want


def test_relative_error_within_1e_12_wherever_p_is_above_1e_300(exact_grid):
    checked = 0
    for dof, got, want in exact_grid:
        for t, g, w in zip(T_GRID, got, want):
            if w >= mpmath.mpf("1e-300"):
                assert abs(float((g - w) / w)) <= 1e-12, (dof, t, g, w)
                checked += 1
    assert checked == 600


def test_a_tail_below_1e_250_comes_back_below_1e_200(exact_grid):
    tiny = 0
    for dof, got, want in exact_grid:
        for t, g, w in zip(T_GRID, got, want):
            if w < mpmath.mpf("1e-250"):
                assert g < 1e-200, (dof, t, g)
                tiny += 1
    assert tiny > 250


def test_one_at_zero_and_zero_at_infinity():
    for dof in DOFS:
        assert two_sided_tail(0.0, dof) == 1.0
        assert two_sided_tail(-0.0, dof) == 1.0
        assert two_sided_tail(math.inf, dof) == 0.0
        assert two_sided_tail(-math.inf, dof) == 0.0


def test_the_tail_does_not_rise_along_a_sorted_grid():
    grid = np.unique(np.r_[np.geomspace(1e-12, 1.7e308, 3000),
                           np.linspace(0.0, 60.0, 3000), math.inf])
    for dof in DOFS + (29, 30, 31, 2 * LARGE_A):
        p = two_sided_tail(grid, dof)
        assert (np.diff(p) <= 0.0).all(), dof
        assert p[0] == 1.0 and p[-1] == 0.0
        # the two sides of t = sqrt(dof), where the large-dof expansion
        # hands over to the continued fraction
        edge = math.sqrt(dof) * np.array([1 - 1e-12, 1.0, 1 + 1e-12])
        assert (np.diff(two_sided_tail(edge, dof)) <= 0.0).all(), dof


def test_sign_shape_and_broadcast():
    t = np.array([[-2.0, 2.0], [0.5, -0.5]])
    got = two_sided_tail(t, np.array([[10.0], [1211.0]]))
    assert got.shape == (2, 2)
    assert got[0, 0] == got[0, 1] and got[1, 0] == got[1, 1]
    assert two_sided_tail(np.empty(0), 5).shape == (0,)


def test_within_1e_12_of_scipy_wherever_both_are_above_1e_300():
    # |t| >= 1e-4: below it scipy's own dof-1 tail drifts (next test)
    grid = T_GRID[T_GRID >= 1e-4]
    compared = 0
    for dof in DOFS:
        got = two_sided_tail(grid, dof)
        want = 2.0 * student_t.sf(grid, dof)
        both = (got >= 1e-300) & (want >= 1e-300)
        np.testing.assert_allclose(got[both], want[both], rtol=1e-12, atol=0.0)
        compared += both.sum()
    assert compared > 500


def test_scipy_drifts_at_dof_1_below_t_1e_4_and_this_tail_does_not():
    for t in (1e-8, 1e-7, 1e-6):
        exact = exact_tail(t, 1)
        assert abs(float((2.0 * student_t.sf(t, 1) - exact) / exact)) > 1e-12
        assert abs(float((two_sided_tail(t, 1) - exact) / exact)) <= 1e-15


def test_gamma_ratio_across_the_shift():
    a = np.array([0.5, 1.0, 7.5, 15.5, 16.0, 16.5, 605.5, 5e4])
    got = _gamma_ratio(a)
    for ai, g in zip(a, got):
        with mpmath.workdps(50):
            want = mpmath.gamma(mpmath.mpf(ai) + 0.5) / mpmath.gamma(mpmath.mpf(ai))
        assert abs(float((g - want) / want)) <= 4e-15, ai
