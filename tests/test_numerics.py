"""Kernel tests: each numeric routine is checked against an independent oracle
(scipy / numpy.linalg / closed forms) at the accuracy its contract states."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp_special
from scipy import stats as sp_stats

from slvrate.errors import NonFiniteError, NotSPDError, SingularMatrixError
from slvrate import numerics as nm


# -- maximize_scalar ----------------------------------------------------------


def test_maximize_quadratic():
    res = nm.maximize_scalar(lambda x: -((x - 0.3) ** 2), 0.0, 1.0, tol=1e-9)
    assert abs(res.argmax - 0.3) < 1e-8
    assert not res.at_boundary


def test_maximize_decreasing_hits_lower_boundary():
    res = nm.maximize_scalar(lambda x: -x, 0.0, 1.0, tol=1e-9)
    assert res.argmax == 0.0
    assert res.at_boundary
    assert res.value == 0.0


def test_maximize_increasing_hits_upper_boundary():
    res = nm.maximize_scalar(lambda x: x, 0.0, 2.0, tol=1e-9)
    assert res.argmax == 2.0
    assert res.at_boundary


def test_maximize_never_leaves_bounds():
    seen = []

    def f(x):
        seen.append(x)
        return -((x - 0.7) ** 2)

    nm.maximize_scalar(f, 0.2, 1.4, tol=1e-10)
    assert min(seen) >= 0.2 and max(seen) <= 1.4


def test_maximize_beats_grid_oracle():
    # skewed, smooth, unimodal; oracle = dense grid
    def f(x):
        return math.log(x + 0.05) - 3.0 * x

    grid = np.linspace(0.0, 1.0, 1_000_001)
    vals = np.log(grid + 0.05) - 3.0 * grid
    oracle = grid[int(np.argmax(vals))]
    res = nm.maximize_scalar(f, 0.0, 1.0, tol=1e-9)
    assert abs(res.argmax - oracle) < 1e-6
    assert res.value >= f(0.0) - 1e-12 and res.value >= f(1.0) - 1e-12


def test_maximize_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        nm.maximize_scalar(lambda x: float("nan"), 0.0, 1.0)


@settings(max_examples=50, deadline=None)
@given(peak=st.floats(0.01, 0.99), scale=st.floats(0.1, 50.0))
def test_maximize_property_random_parabolas(peak, scale):
    res = nm.maximize_scalar(lambda x: -scale * (x - peak) ** 2, 0.0, 1.0, tol=1e-10)
    assert abs(res.argmax - peak) < 1e-7


# -- incomplete gamma / chi-squared -------------------------------------------


def test_reg_inc_gamma_chi2_anchor():
    # chi2(1) CDF at its 95% quantile
    assert abs(nm.reg_inc_gamma(0.5, 3.8415 / 2.0) - 0.95) < 1e-4


def test_reg_inc_gamma_at_zero():
    assert nm.reg_inc_gamma(0.5, 0.0) == 0.0
    assert nm.reg_inc_gamma(3.0, 0.0) == 0.0


def test_reg_inc_gamma_exponential_identity():
    for x in (0.1, 0.5, 1.0, 2.0, 10.0, 40.0):
        assert abs(nm.reg_inc_gamma(1.0, x) - (1.0 - math.exp(-x))) < 1e-12


@pytest.mark.parametrize("s", [0.3, 0.5, 1.0, 2.5, 7.0, 30.0])
@pytest.mark.parametrize("x", [1e-6, 0.2, 1.0, 3.0, 10.0, 80.0])
def test_reg_inc_gamma_vs_scipy(s, x):
    assert abs(nm.reg_inc_gamma(s, x) - sp_special.gammainc(s, x)) < 1e-12
    assert abs(nm.reg_inc_gamma_upper(s, x) - sp_special.gammaincc(s, x)) < 1e-12


def test_reg_inc_gamma_monotone_in_x():
    xs = np.linspace(0.0, 30.0, 400)
    vals = [nm.reg_inc_gamma(1.7, float(x)) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_chi2_sf_small_tail_relative_accuracy():
    x = 60.0
    ours = nm.chi2_sf(x, 6)
    ref = sp_stats.chi2.sf(x, 6)
    assert abs(ours - ref) < 1e-12 * max(1.0, abs(ref)) or abs(ours / ref - 1.0) < 1e-9


def test_chi2_quantile_anchors():
    assert abs(nm.chi2_quantile(0.95, 1) - 3.8414588206941245) < 1e-6
    assert abs(nm.chi2_quantile(0.95, 6) - sp_stats.chi2.ppf(0.95, 6)) < 1e-6


# -- matrices ------------------------------------------------------------------


def test_invert_identity():
    eye = np.eye(4)
    assert np.allclose(nm.invert(eye), eye)


def test_invert_vs_numpy_and_residual():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 8, 16):
        mat = rng.normal(size=(dim, dim)) + dim * np.eye(dim)
        inv = nm.invert(mat)
        assert np.max(np.abs(mat @ inv - np.eye(dim))) <= 1e-10
        assert np.allclose(inv, np.linalg.inv(mat), atol=1e-9)


def test_invert_singular():
    with pytest.raises(SingularMatrixError):
        nm.invert(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_invert_arrowhead_closed_form():
    # arrowhead built from values (1, 2, 3); closed-form inverse from the
    # 3x3 adjugate, computed symbolically by hand:
    #   A = [[6,2,3],[2,2,0],[3,0,3]], det = 6*6 - 2*6 + 3*(-6) = 6
    arrow = np.array([[6.0, 2.0, 3.0], [2.0, 2.0, 0.0], [3.0, 0.0, 3.0]])
    det = 6.0
    adj = np.array(
        [
            [6.0, -6.0, -6.0],
            [-6.0, 9.0, 6.0],
            [-6.0, 6.0, 8.0],
        ]
    )
    assert np.allclose(nm.invert(arrow), adj / det, atol=1e-12)


def test_cholesky_and_not_spd():
    mat = np.array([[4.0, 2.0], [2.0, 3.0]])
    low = nm.cholesky_lower(mat)
    assert np.allclose(low @ low.T, mat)
    with pytest.raises(NotSPDError):
        nm.cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotSPDError):
        nm.cholesky_lower(np.array([[1.0, 0.5], [0.1, 1.0]]))


def test_jacobi_eigenvalues_vs_numpy():
    rng = np.random.default_rng(11)
    for dim in (2, 5, 9):
        base = rng.normal(size=(dim, dim))
        sym = base + base.T
        ours = nm.jacobi_eigenvalues(sym)
        ref = np.sort(np.linalg.eigvalsh(sym))
        assert np.allclose(ours, ref, atol=1e-9)


def test_gen_eigen_identity_when_equal():
    mat = np.array([[3.0, 1.0], [1.0, 2.0]])
    eig = nm.gen_eigen_spd(mat, mat)
    assert np.allclose(eig, [1.0, 1.0], atol=1e-10)


def test_gen_eigen_vs_scipy_and_trace():
    rng = np.random.default_rng(3)
    for dim in (2, 4, 6):
        base = rng.normal(size=(dim, dim))
        h = base @ base.T + dim * np.eye(dim)
        other = rng.normal(size=(dim, dim))
        g = other @ other.T + 0.5 * np.eye(dim)
        ours = nm.gen_eigen_spd(g, h)
        from scipy.linalg import eigh

        ref = np.sort(eigh(g, h, eigvals_only=True))
        assert np.allclose(ours, ref, atol=1e-8)
        trace = float(np.trace(np.linalg.inv(h) @ g))
        assert abs(float(np.sum(ours)) - trace) < 1e-8
