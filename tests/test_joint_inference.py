from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg

from helpers import make_partition, random_q

from slvrate import joint_inference as ji
from slvrate import locus_estimator as le
from slvrate import pair_likelihood as pl
from slvrate.errors import NonFiniteError, NonPositiveInfoError, TooFewLociError


def sampled_cl(locus, lam_true, n, seed, m=25, group_sizes=(1,)):
    q = random_q(m, seed=seed)
    model = pl.PairModel(r=1.0 / 7.0, q=q)
    probs = pl.pmf(model, lam_true)
    rng = np.random.default_rng(seed)
    groups = []
    i = 0
    while sum(len(g) for g in groups) < n:
        k = group_sizes[i % len(group_sizes)]
        groups.append([int(v) for v in rng.choice(np.arange(1, m + 1), size=k, p=probs)])
        i += 1
    return le.CompositeLikelihood(make_partition(locus, groups), model)


# -- variation weights ------------------------------------------------------


def _arrowhead(values):
    """Information under the "first locus free, others offsets" parameterization."""
    vals = np.asarray(values, dtype=float)
    mat = np.diag(np.concatenate([[vals.sum()], vals[1:]]))
    mat[0, 1:] = mat[1:, 0] = vals[1:]
    return mat


def _arrowhead_weights(info_i, info_j):
    """Reference route: nu1 = tr(H^-1 G)/(L-1), eta = eig(H^-1 G), from the
    arrowhead matrices inverted in full."""
    i_phi, j_phi = _arrowhead(info_i), _arrowhead(info_j)
    h = np.linalg.inv(i_phi)[1:, 1:]
    g = np.linalg.inv(i_phi @ np.linalg.inv(j_phi) @ i_phi)[1:, 1:]
    nu1 = float(np.trace(np.linalg.inv(h) @ g)) / (len(info_i) - 1)
    return nu1, np.sort(scipy.linalg.eigh(g, h, eigvals_only=True))


def test_variation_weights_match_arrowhead_reference():
    rng = np.random.default_rng(4)
    for n_loci in range(2, 17):
        for _ in range(8):
            info_i = rng.uniform(0.1, 10.0, size=n_loci)
            info_j = info_i * rng.uniform(0.5, 3.0, size=n_loci)
            nu1, eta = ji.variation_weights(info_i, info_j)
            ref_nu1, ref_eta = _arrowhead_weights(info_i, info_j)
            assert abs(nu1 - ref_nu1) <= 1e-10 * ref_nu1
            assert eta.shape == (n_loci - 1,)
            assert np.all(np.abs(eta - ref_eta) <= 1e-10 * ref_eta)


def test_variation_weights_two_equal_loci():
    nu1, eta = ji.variation_weights([1.7, 1.7], [1.7, 1.7])
    assert abs(nu1 - 1.0) <= 1e-12
    assert np.allclose(eta, [1.0], atol=1e-12)


def test_variation_weights_reject_bad_values():
    for info_i, info_j in (
        ([1.0, 0.0], [1.0, 1.0]),
        ([1.0, -2.0], [1.0, 1.0]),
        ([1.0, 1.0], [0.0, 1.0]),
        ([1.0, 1.0], [1.0, -0.5]),
    ):
        with pytest.raises(NonPositiveInfoError):
            ji.variation_weights(info_i, info_j)
    with pytest.raises(TooFewLociError):
        ji.variation_weights([1.0], [1.0])
    with pytest.raises(NonFiniteError):
        ji.variation_weights([1.0, math.inf], [1.0, 1.0])
    with pytest.raises(NonFiniteError):
        ji.variation_weights([1.0, 1.0], [math.nan, 1.0])


def _synthetic_fit(locus, info_i, info_j, cl_max):
    return le.LocusFit(
        locus=locus,
        lam_hat=1.0,
        ci_lower=0.5,
        ci_upper=2.0,
        cl_max=cl_max,
        gamma=info_j / info_i,
        info_i=info_i,
        info_j=info_j,
        alpha=0.0,
        sigma2=1.0,
        n_pairs=10,
        n_groups=10,
        at_boundary=False,
        alpha_source="common",
    )


def _synthetic_joint(fits, deficit):
    return ji.JointFit(
        lam_hat=1.0,
        cl_max=sum(f.cl_max for f in fits) - deficit,
        gamma=1.0,
        ci_lower=0.5,
        ci_upper=2.0,
        n_loci=len(fits),
        at_boundary=False,
    )


@pytest.mark.parametrize("n_loci", [17, 40])
def test_variation_test_beyond_sixteen_loci(n_loci):
    rng = np.random.default_rng(n_loci)
    fits = [
        _synthetic_fit(f"l{k}", i, i * rng.uniform(1.0, 2.0), -50.0)
        for k, i in enumerate(rng.uniform(0.5, 5.0, size=n_loci))
    ]
    result = ji.variation_test(fits, _synthetic_joint(fits, 9.0))
    assert result.df == n_loci - 1
    assert len(result.eta) == n_loci - 1
    assert np.all(np.isfinite(result.eta)) and math.isfinite(result.nu1)
    assert 0.0 < result.p_value < 1.0


def test_variation_test_near_zero_information_locus():
    # a locus whose scores collapse at its maximum reports I, J ~ 1e-17
    fits = [
        _synthetic_fit("flat", 1e-17, 2e-17, -10.0),
        _synthetic_fit("b", 3.0, 4.5, -40.0),
        _synthetic_fit("c", 2.0, 2.5, -30.0),
    ]
    result = ji.variation_test(fits, _synthetic_joint(fits, 2.0))
    assert math.isfinite(result.nu1) and math.isfinite(result.p_value)
    assert len(result.eta) == 2 and np.all(np.isfinite(result.eta))


def test_variation_test_needs_two_fits():
    fits = [_synthetic_fit("a", 2.0, 3.0, -20.0)]
    with pytest.raises(TooFewLociError, match="variation test needs >= 2 loci with data, got 1"):
        ji.variation_test(fits, _synthetic_joint(fits, 0.0))


# -- joint fit ----------------------------------------------------------------


def test_joint_equals_single_when_loci_identical():
    cl = sampled_cl("a", 1.0, 200, seed=3)
    twin = le.CompositeLikelihood(cl.partition, cl.model)
    lam_single, _, _ = le.maximize(cl)
    lam_joint, _, _ = ji.joint_maximize([cl, twin])
    assert abs(lam_joint - lam_single) < 1e-6


def test_joint_gamma_one_when_all_groups_are_pairs():
    cls = [sampled_cl(f"l{i}", 1.0, 120, seed=10 + i) for i in range(3)]
    fits = le.fit_all_loci(cls, alpha_mode="common")
    joint = ji.joint_fit(cls, fits)
    assert abs(joint.gamma - 1.0) < 1e-12
    assert joint.ci_lower <= joint.lam_hat <= joint.ci_upper


def test_joint_needs_two_loci():
    cl = sampled_cl("a", 1.0, 50, seed=1)
    with pytest.raises(TooFewLociError):
        ji.joint_maximize([cl])


def test_joint_ci_narrower_than_single_locus():
    cls = [
        sampled_cl(f"l{i}", 1.0, 150, seed=40 + i, group_sizes=(1, 1, 3))
        for i in range(5)
    ]
    fits = le.fit_all_loci(cls)
    joint = ji.joint_fit(cls, fits)
    mean_width = np.mean(
        [f.ci_upper - f.ci_lower for f in fits if math.isfinite(f.ci_upper)]
    )
    assert (joint.ci_upper - joint.ci_lower) < mean_width


# -- variation test -------------------------------------------------------------


def test_nu1_is_one_when_j_equals_i():
    cls = [sampled_cl(f"l{i}", 1.0, 100, seed=20 + i) for i in range(4)]
    fits = le.fit_all_loci(cls)
    # all-pair groups: J == I per locus, so the scaling is exactly 1
    assert all(abs(f.info_i - f.info_j) < 1e-9 for f in fits)
    joint = ji.joint_fit(cls, fits)
    result = ji.variation_test(fits, joint)
    assert abs(result.nu1 - 1.0) < 1e-9
    assert np.allclose(result.eta, 1.0, atol=1e-8)
    assert abs(result.lr - result.lr_star) < 1e-8


def test_identical_loci_give_zero_statistic():
    cl = sampled_cl("a", 1.0, 200, seed=5)
    twin = le.CompositeLikelihood(cl.partition, cl.model)
    fits = le.fit_all_loci([cl, twin])
    joint = ji.joint_fit([cl, twin], fits)
    result = ji.variation_test(fits, joint)
    assert result.lr_star < 1e-6
    assert result.p_value > 0.999


def test_trace_equals_eigenvalue_sum():
    cls = [
        sampled_cl(f"l{i}", 0.5 + 0.5 * i, 150, seed=30 + i, group_sizes=(1, 3, 1))
        for i in range(5)
    ]
    fits = le.fit_all_loci(cls)
    joint = ji.joint_fit(cls, fits)
    result = ji.variation_test(fits, joint)
    assert abs(sum(result.eta) - result.nu1 * result.df) < 1e-8
    assert result.df == 4
    assert 0.0 <= result.p_value <= 1.0


def test_scale_invariance_of_nu1_and_p():
    cls = [
        sampled_cl(f"l{i}", 1.0, 120, seed=50 + i, group_sizes=(1, 3)) for i in range(4)
    ]
    fits = le.fit_all_loci(cls)
    joint = ji.joint_fit(cls, fits)
    result = ji.variation_test(fits, joint)
    import dataclasses

    scaled_fits = [
        dataclasses.replace(f, info_i=f.info_i * 17.0, info_j=f.info_j * 17.0)
        for f in fits
    ]
    scaled = ji.variation_test(scaled_fits, joint)
    assert abs(scaled.nu1 - result.nu1) < 1e-10
    assert abs(scaled.lr - result.lr) < 1e-8
    assert abs(scaled.p_value - result.p_value) < 1e-10


def test_detects_gross_rate_variation():
    # rates split 0.1 vs 5.0 across loci with plenty of data
    cls = [
        sampled_cl(f"lo{i}", 0.1, 400, seed=60 + i) for i in range(3)
    ] + [
        sampled_cl(f"hi{i}", 5.0, 400, seed=70 + i) for i in range(3)
    ]
    fits = le.fit_all_loci(cls)
    joint = ji.joint_fit(cls, fits)
    result = ji.variation_test(fits, joint)
    assert result.p_value < 1e-6


def test_chi2_upper_tail_values():
    assert ji.chi2_sf(0.0, 3) == 1.0
    assert abs(ji.chi2_sf(3.8415, 1) - 0.05) < 1e-4
    assert abs(ji.chi2_sf(12.592, 6) - 0.05) < 1e-4
