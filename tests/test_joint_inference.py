from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import make_partition, random_q

from slvrate import joint_inference as ji
from slvrate import locus_estimator as le
from slvrate import pair_likelihood as pl
from slvrate.errors import NonPositiveInfoError, TooFewLociError


def sampled_cl(locus, lam_true, n, seed, m=25, group_sizes=(1,)):
    q = random_q(m, seed=seed)
    model = pl.PairModel(locus=locus, r=1.0 / 7.0, q=q, m=m)
    probs = pl.pmf(model, lam_true)
    rng = np.random.default_rng(seed)
    groups = []
    i = 0
    while sum(len(g) for g in groups) < n:
        k = group_sizes[i % len(group_sizes)]
        groups.append([int(v) for v in rng.choice(np.arange(1, m + 1), size=k, p=probs)])
        i += 1
    return le.CompositeLikelihood(make_partition(locus, groups), model)


# -- arrowhead ---------------------------------------------------------------


def test_arrowhead_structure():
    arrow = ji.build_arrowhead([1.0, 2.0, 3.0])
    assert arrow.matrix().tolist() == [
        [6.0, 2.0, 3.0],
        [2.0, 2.0, 0.0],
        [3.0, 0.0, 3.0],
    ]


def test_arrowhead_two_equal():
    c = 1.7
    arrow = ji.build_arrowhead([c, c]).matrix()
    assert arrow.tolist() == [[2 * c, c], [c, c]]
    det = arrow[0, 0] * arrow[1, 1] - arrow[0, 1] * arrow[1, 0]
    assert abs(det - c * c) < 1e-12


def test_arrowhead_rejects_bad_values():
    with pytest.raises(NonPositiveInfoError):
        ji.build_arrowhead([1.0, 0.0])
    with pytest.raises(TooFewLociError):
        ji.build_arrowhead([1.0])


def test_arrowhead_inverse_residual_at_max_dim():
    from slvrate.numerics import invert

    rng = np.random.default_rng(2)
    values = rng.uniform(0.5, 4.0, size=16)
    mat = ji.build_arrowhead(values).matrix()
    inv = invert(mat)
    assert np.max(np.abs(mat @ inv - np.eye(16))) <= 1e-10


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
    result = ji.variation_test(cls, fits, joint)
    assert abs(result.nu1 - 1.0) < 1e-9
    assert np.allclose(result.eta, 1.0, atol=1e-8)
    assert abs(result.lr - result.lr_star) < 1e-8


def test_identical_loci_give_zero_statistic():
    cl = sampled_cl("a", 1.0, 200, seed=5)
    twin = le.CompositeLikelihood(cl.partition, cl.model)
    fits = le.fit_all_loci([cl, twin])
    joint = ji.joint_fit([cl, twin], fits)
    result = ji.variation_test([cl, twin], fits, joint)
    assert result.lr_star < 1e-6
    assert result.p_value > 0.999


def test_trace_equals_eigenvalue_sum():
    cls = [
        sampled_cl(f"l{i}", 0.5 + 0.5 * i, 150, seed=30 + i, group_sizes=(1, 3, 1))
        for i in range(5)
    ]
    fits = le.fit_all_loci(cls)
    joint = ji.joint_fit(cls, fits)
    result = ji.variation_test(cls, fits, joint)
    assert abs(sum(result.eta) - result.nu1 * result.df) < 1e-8
    assert result.df == 4
    assert 0.0 <= result.p_value <= 1.0


def test_scale_invariance_of_nu1_and_p():
    cls = [
        sampled_cl(f"l{i}", 1.0, 120, seed=50 + i, group_sizes=(1, 3)) for i in range(4)
    ]
    fits = le.fit_all_loci(cls)
    joint = ji.joint_fit(cls, fits)
    result = ji.variation_test(cls, fits, joint)
    import dataclasses

    scaled_fits = [
        dataclasses.replace(f, info_i=f.info_i * 17.0, info_j=f.info_j * 17.0)
        for f in fits
    ]
    scaled = ji.variation_test(cls, scaled_fits, joint)
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
    result = ji.variation_test(cls, fits, joint)
    assert result.p_value < 1e-6


def test_chi2_upper_tail_values():
    assert ji.chi2_sf(0.0, 3) == 1.0
    assert abs(ji.chi2_sf(3.8415, 1) - 0.05) < 1e-4
    assert abs(ji.chi2_sf(12.592, 6) - 0.05) < 1e-4
