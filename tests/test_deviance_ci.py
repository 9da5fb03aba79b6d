"""The interval contract of ``deviance_ci``, checked against a tight
bisection of the same deviance.

Every finite endpoint must lie within ci_t/2 (in t = lam/(1+lam)) of the
point where the scaled deviance W crosses the chi-squared quantile, and W
there must be within ci_w_slack/2 of the quantile. The designs are those
of acceptance criterion 06.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import singleton_partition

from slvrate import experiment as ex
from slvrate import joint_inference as ji
from slvrate import locus_estimator as le
from slvrate import pair_likelihood as pl
from slvrate.numerics import DEFAULT_TOL, chi2_quantile, lam_to_t, t_to_lam

THRESHOLD = chi2_quantile(0.95, 1)
T_MAX = lam_to_t(DEFAULT_TOL.lambda_max)
LOCI = tuple((f"g{i}", 420 + 20 * i) for i in range(7))
MEANS = tuple(8.0 + 2.0 * i for i in range(7))


class _Counting:
    """An objective that counts its evaluations."""

    def __init__(self, loglik):
        self._loglik = loglik
        self.calls = 0

    def __call__(self, lam):
        self.calls += 1
        return self._loglik(lam)


def _models(lam):
    design = ex.RecoveryDesign(replicates=1, lam=lam, loci=LOCI, import_means=MEANS, n_pairs=400)
    return ex.recovery_models(design)


def _design_fits(lam, replicate):
    """Per-locus likelihoods and fits, and the joint fit, of one replicate
    of the criterion-06 design at ``lam``."""
    rng = np.random.default_rng([replicate, round(10 * lam)])
    cls = []
    for model in _models(lam):
        xs = rng.choice(np.arange(1, model.q.m + 1), size=400, p=pl.pmf(model, lam))
        cls.append(le.CompositeLikelihood(singleton_partition(model.q.locus, xs.tolist()), model))
    fits = le.fit_all_loci(cls)
    return cls, fits, ji.joint_fit(cls, fits)


def _intervals(lam, replicate):
    """(name, loglik, lam_hat, cl_max, gamma, (lower, upper)) of every
    per-locus interval and the joint interval."""
    cls, fits, joint = _design_fits(lam, replicate)
    named = [(cl.locus, cl.loglik, fit) for cl, fit in zip(cls, fits)]
    named.append(("joint", lambda value: sum(cl.loglik(value) for cl in cls), joint))
    for name, loglik, fit in named:
        yield name, loglik, fit.lam_hat, fit.cl_max, fit.gamma, (fit.ci_lower, fit.ci_upper)


def _crossing(excess, outside, inside):
    """Bisect the sign change of ``excess`` between ``outside`` (excess > 0)
    and ``inside`` (excess < 0) down to adjacent floats."""
    assert excess(outside) > 0.0 > excess(inside)
    while True:
        mid = 0.5 * (outside + inside)
        if mid in (outside, inside):
            return mid
        if excess(mid) > 0.0:
            outside = mid
        else:
            inside = mid


def _check_endpoint(endpoint, edge, loglik, lam_hat, cl_max, gamma):
    def excess(t):
        return (2.0 / gamma) * (cl_max - loglik(t_to_lam(t))) - THRESHOLD

    t = lam_to_t(endpoint)
    crossing = _crossing(excess, edge, lam_to_t(lam_hat))
    assert abs(t - crossing) <= 0.5 * DEFAULT_TOL.ci_t
    assert abs(excess(t)) <= 0.5 * DEFAULT_TOL.ci_w_slack


@pytest.mark.parametrize("lam", [0.2, 1.0, 5.0])
def test_design_endpoints_sit_on_the_crossing(lam):
    for replicate in range(3):
        for name, loglik, lam_hat, cl_max, gamma, (lower, upper) in _intervals(lam, replicate):
            # with 400 pairs per locus every interval is interior
            assert 0.0 < lower < lam_hat < upper < math.inf, name
            for endpoint, edge in ((lower, 0.0), (upper, T_MAX)):
                _check_endpoint(endpoint, edge, loglik, lam_hat, cl_max, gamma)


def test_evaluation_count_per_locus_interval():
    # the two edge checks plus both root searches, on the lam = 1 design
    for replicate in range(3):
        cls, fits, _ = _design_fits(1.0, replicate)
        for cl, fit in zip(cls, fits):
            counting = _Counting(cl.loglik)
            interval = le.deviance_ci(counting, cl.locus, fit.lam_hat, fit.cl_max, fit.gamma)
            assert interval == (fit.ci_lower, fit.ci_upper)
            assert counting.calls <= 14, (cl.locus, counting.calls)


def _small_locus(xs):
    cl = le.CompositeLikelihood(singleton_partition("g0", xs), _models(1.0)[0])
    lam_hat, cl_max, at_boundary = le.maximize(cl)
    return cl, lam_hat, cl_max, at_boundary


def _deviance(cl, cl_max, t):
    return 2.0 * (cl_max - cl.loglik(t_to_lam(t)))


def test_lower_clamps_to_zero_and_upper_is_infinite_below_the_quantile():
    # three pairs: an interior maximum, but the deviance stays below the
    # quantile at both search edges
    cl, lam_hat, cl_max, at_boundary = _small_locus([1, 2, 3])
    assert not at_boundary and lam_hat > 0.0
    assert _deviance(cl, cl_max, 0.0) < THRESHOLD
    assert _deviance(cl, cl_max, T_MAX) < THRESHOLD
    assert le.deviance_ci(cl.loglik, cl.locus, lam_hat, cl_max, gamma=1.0) == (0.0, math.inf)


def test_maximum_at_the_ceiling_has_an_infinite_upper_bound():
    cl, lam_hat, cl_max, at_boundary = _small_locus([9, 14, 20])
    assert at_boundary and lam_to_t(lam_hat) >= T_MAX
    counting = _Counting(cl.loglik)
    lower, upper = le.deviance_ci(counting, cl.locus, lam_hat, cl_max, gamma=1.0)
    assert upper == math.inf
    _check_endpoint(lower, 0.0, cl.loglik, lam_hat, cl_max, 1.0)
    assert counting.calls <= 10  # one edge check and one root search


@pytest.mark.parametrize("lam", [0.2, 1.0, 5.0])
def test_steep_deviance_is_refined_past_ci_t(lam):
    # 10^4 times the design's log-likelihood makes the deviance so steep that
    # a point ci_t/2 from the crossing misses the quantile by more than the
    # slack, so the finder must keep shrinking the bracket below ci_t
    model = _models(lam)[0]
    rng = np.random.default_rng([7, round(10 * lam)])
    xs = rng.choice(np.arange(1, model.q.m + 1), size=400, p=pl.pmf(model, lam))
    cl = le.CompositeLikelihood(singleton_partition("g0", xs.tolist()), model)

    def steep(value):
        return 1e4 * cl.loglik(value)

    lam_hat = le.maximize(cl)[0]  # scaling by a positive constant keeps the argmax
    cl_max = steep(lam_hat)
    lower, upper = le.deviance_ci(steep, cl.locus, lam_hat, cl_max, gamma=1.0)
    for endpoint, edge in ((lower, 0.0), (upper, T_MAX)):
        _check_endpoint(endpoint, edge, steep, lam_hat, cl_max, 1.0)
        step = math.copysign(0.5 * DEFAULT_TOL.ci_t, edge - lam_to_t(lam_hat))
        off = 2.0 * (cl_max - steep(t_to_lam(lam_to_t(endpoint) + step))) - THRESHOLD
        assert abs(off) > DEFAULT_TOL.ci_w_slack
