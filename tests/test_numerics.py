"""Kernel tests: each numeric routine is checked against an independent oracle
(scipy / closed forms) at the accuracy its contract states."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp_special
from scipy import stats as sp_stats

from slvrate.errors import InvalidParamsError, NonFiniteError
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


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.5, 7.0, 30.0])
@pytest.mark.parametrize("x", [1e-6, 0.2, 1.0, 3.0, 10.0, 80.0])
def test_reg_inc_gamma_vs_scipy(s, x):
    assert abs(nm.reg_inc_gamma(s, x) - sp_special.gammainc(s, x)) < 1e-12
    assert abs(nm.reg_inc_gamma_upper(s, x) - sp_special.gammaincc(s, x)) < 1e-12


def test_reg_inc_gamma_monotone_in_x():
    xs = np.linspace(0.0, 30.0, 400)
    vals = [nm.reg_inc_gamma(1.5, float(x)) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_half_integer_shapes_match_scipy_on_a_grid():
    xs = np.concatenate([[1e-9, 1e-3], np.linspace(0.05, 120.0, 240)])
    for s in np.arange(0.5, 30.5, 0.5):
        s = float(s)
        for x in xs.tolist():
            assert abs(nm.reg_inc_gamma(s, x) - sp_special.gammainc(s, x)) < 1e-12, (s, x)
            assert abs(nm.reg_inc_gamma_upper(s, x) - sp_special.gammaincc(s, x)) < 1e-12, (s, x)


@pytest.mark.parametrize("s", [0.3, 1.7, 0.0, -0.5, 2.25])
def test_other_shapes_are_rejected(s):
    with pytest.raises(InvalidParamsError):
        nm.reg_inc_gamma(s, 1.0)
    with pytest.raises(InvalidParamsError):
        nm.chi2_sf(1.0, 2.0 * s)


@pytest.mark.parametrize("df", [1, 2, 6, 49, 199, 1000, 2999, 3000])
def test_chi2_sf_relative_accuracy_up_to_many_loci(df):
    # tails from the bulk out to ~1e-250, the df of many-locus schemes included
    hi = float(sp_stats.chi2.isf(1e-250, df))
    for x in np.linspace(1e-3, hi, 200).tolist():
        ref = sp_stats.chi2.sf(x, df)
        assert abs(nm.chi2_sf(x, df) / ref - 1.0) < 1e-9, (df, x)


def test_chi2_sf_small_tail_relative_accuracy():
    x = 60.0
    ours = nm.chi2_sf(x, 6)
    ref = sp_stats.chi2.sf(x, 6)
    assert abs(ours - ref) < 1e-12 * max(1.0, abs(ref)) or abs(ours / ref - 1.0) < 1e-9


def test_chi2_quantile_anchors():
    assert abs(nm.chi2_quantile(0.95, 1) - 3.8414588206941245) < 1e-6
    for p in np.linspace(0.01, 0.999, 60):
        ref = sp_stats.chi2.ppf(p, 1)
        assert abs(nm.chi2_quantile(float(p), 1) - ref) <= 1e-10 * ref
    # every deviance interval is one-dimensional; other df are not supported
    with pytest.raises(InvalidParamsError):
        nm.chi2_quantile(0.95, 6)


# -- derived streams and seeds ------------------------------------------------


def test_import_seed_depends_on_locus_and_seed():
    seeds = {nm.derived_seed(7, nm.SeedDomain.IMPORT_SEED, i) for i in range(5)}
    assert len(seeds) == 5
    assert nm.derived_seed(7, nm.SeedDomain.IMPORT_SEED, 0) != nm.derived_seed(
        8, nm.SeedDomain.IMPORT_SEED, 0
    )
    assert nm.derived_seed(7, nm.SeedDomain.IMPORT_SEED, 3) == nm.derived_seed(
        7, nm.SeedDomain.IMPORT_SEED, 3
    )


def test_every_domain_keeps_its_spawn_key():
    # values of SeedSequence(7, spawn_key=(domain, 2)); a changed domain
    # number would change every stored simulation and analysis output
    assert nm.derived_seed(7, nm.SeedDomain.IMPORT_SEED, 2) == 2026406792582636244
    assert nm.derived_seed(7, nm.SeedDomain.ANALYSIS_SEED, 2) == 5723311592363115344
    draws = {
        domain: int(nm.derived_rng(7, domain, 2).integers(0, 2**62))
        for domain in (nm.SeedDomain.IMPORT_DRAWS, nm.SeedDomain.SIMULATION, nm.SeedDomain.RECOVERY)
    }
    assert draws == {
        nm.SeedDomain.IMPORT_DRAWS: 1663624916069294764,
        nm.SeedDomain.SIMULATION: 2942561442799111694,
        nm.SeedDomain.RECOVERY: 2674561324775420557,
    }
