from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from helpers import make_partition, random_q

from slvrate import experiment as ex
from slvrate import joint_inference as ji
from slvrate import locus_estimator as le
from slvrate import pair_likelihood as pl
from slvrate import pipeline as pp
from slvrate.errors import NonFiniteError, NonPositiveInfoError, TooFewLociError


def sampled_cl(locus, lam_true, n, seed, m=25, group_sizes=(1,)):
    q = random_q(m, seed=seed, locus=locus)
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


def _spread_case(rng, n_loci, kind):
    """Per-locus (I, J): I log-uniform on 1e-3..1e3, J/I on 1e-6..1e6. ``ties``
    copies a third of the loci with both values scaled by a power of two
    (the same ratio, exactly); ``near_ties`` copies them with J one ulp up."""
    info_i = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n_loci))
    info_j = info_i * np.exp(rng.uniform(math.log(1e-6), math.log(1e6), n_loci))
    src = rng.integers(0, n_loci, n_loci // 3)
    dst = (src + 1 + rng.integers(0, n_loci - 1, src.size)) % n_loci
    if kind == "ties":
        scale = 2.0 ** rng.integers(-3, 4, src.size)
        info_i[dst], info_j[dst] = info_i[src] * scale, info_j[src] * scale
    elif kind == "near_ties":
        info_i[dst], info_j[dst] = info_i[src], np.nextafter(info_j[src], np.inf)
    return info_i, info_j


def _oracle_weights(info_i, info_j):
    """The L-1 largest eigenvalues of diag(J/I) - z z^T, z_l^2 = J_l/sum(I),
    built from the float inputs and solved by mpmath at 50 digits."""
    i_mp = [mpmath.mpf(float(v)) for v in info_i]
    j_mp = [mpmath.mpf(float(v)) for v in info_j]
    total = mpmath.fsum(i_mp)
    z = [mpmath.sqrt(j / total) for j in j_mp]
    n_loci = len(i_mp)
    mat = mpmath.matrix(n_loci, n_loci)
    for a in range(n_loci):
        for b in range(n_loci):
            mat[a, b] = -z[a] * z[b]
        mat[a, a] += j_mp[a] / i_mp[a]
    return sorted(mpmath.eigsy(mat, eigvals_only=True))[1:]


@pytest.mark.parametrize("n_loci", [*range(2, 13), 16, 20, 25, 32, 40, 50, 60])
def test_variation_weights_match_a_50_digit_oracle(n_loci):
    rng = np.random.default_rng(n_loci)
    kind = ("spread", "ties", "near_ties")[n_loci % 3]
    info_i, info_j = _spread_case(rng, n_loci, kind)
    _, eta = ji.variation_weights(info_i, info_j)
    with mpmath.workdps(50):
        ref = _oracle_weights(info_i, info_j)
        worst = max(abs(mpmath.mpf(float(e)) - r) / r for e, r in zip(eta, ref))
    assert eta.shape == (n_loci - 1,)
    assert float(worst) <= 1e-13


def test_two_loci_weight_is_the_trace():
    # at L = 2 the one weight is d1 + d2 - z1^2 - z2^2
    rng = np.random.default_rng(2)
    for _ in range(40):
        info_i, info_j = _spread_case(rng, 2, "spread")
        _, eta = ji.variation_weights(info_i, info_j)
        with mpmath.workdps(50):
            i_mp = [mpmath.mpf(float(v)) for v in info_i]
            j_mp = [mpmath.mpf(float(v)) for v in info_j]
            ref = j_mp[0] / i_mp[0] + j_mp[1] / i_mp[1] - (j_mp[0] + j_mp[1]) / (i_mp[0] + i_mp[1])
            assert float(abs(mpmath.mpf(float(eta[0])) - ref) / ref) <= 1e-13


def test_all_tied_ratios_are_every_weight_exactly():
    rng = np.random.default_rng(3)
    for n_loci in (2, 3, 7, 30):
        base_i, base_j = rng.uniform(0.1, 10.0, size=2)
        scale = 2.0 ** rng.integers(-20, 21, n_loci)
        info_i, info_j = base_i * scale, base_j * scale
        ratio = info_j[0] / info_i[0]
        assert np.all(info_j / info_i == ratio)
        _, eta = ji.variation_weights(info_i, info_j)
        assert eta.shape == (n_loci - 1,) and np.all(eta == ratio)


def test_weights_ascend_and_interlace_with_the_ratios():
    rng = np.random.default_rng(5)
    for n_loci in range(2, 40):
        for kind in ("spread", "ties", "near_ties"):
            info_i, info_j = _spread_case(rng, n_loci, kind)
            _, eta = ji.variation_weights(info_i, info_j)
            d = np.sort(info_j / info_i)
            assert np.all(np.diff(eta) >= 0.0)
            assert np.all(d[:-1] <= eta) and np.all(eta <= d[1:])


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


# -- no LAPACK -------------------------------------------------------------------


@pytest.fixture
def linalg_refused(monkeypatch):
    """Every public ``numpy.linalg`` function raises when called."""

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} was called")

        return call

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse(name))


def test_analysis_and_experiment_run_without_numpy_linalg(linalg_refused, demo_dataset):
    with pytest.raises(AssertionError, match="numpy.linalg.eigvalsh was called"):
        np.linalg.eigvalsh(np.eye(2))
    result = pp.analyze_dataset(demo_dataset, pp.AnalysisOptions(draws=5000, seed=3))
    assert result.variation is not None
    design = ex.RecoveryDesign(
        replicates=2, lam=1.0, loci=(("a", 150), ("b", 180), ("c", 210)),
        import_means=(8.0, 10.0, 12.0), n_pairs=80, seed=5,
    )
    report = ex.run_experiment(design)
    assert report.failed_replicates == {} and report.excluded_replicates == 0
