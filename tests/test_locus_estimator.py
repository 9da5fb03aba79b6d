from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slvrate import locus_estimator as le
from slvrate import pair_likelihood as pl
from slvrate.errors import (
    AlphaUnidentifiableError,
    DegenerateScoresError,
    EmptyPartitionError,
    InvalidParamsError,
    ModelError,
    NonFiniteError,
)
from slvrate.numerics import DEFAULT_TOL, chi2_quantile, lam_to_t, t_to_lam
from helpers import (
    grouped_scores,
    loglik,
    loglik_alpha_sigma,
    make_model,
    make_partition,
    make_q,
    partition_from_groups,
    random_q,
    singleton_partition,
)


# -- composite log-likelihood ----------------------------------------------------


def test_single_pair_equals_pair_loglik():
    model = make_model(0.2, [0.2, 0.3, 0.5])
    cl = le.CompositeLikelihood(singleton_partition("loc", [2]), model)
    for lam in (0.0, 0.7, 3.0):
        assert abs(cl.loglik(lam) - loglik(model, lam, 2)) < 1e-14


def test_duplicating_data_doubles_value():
    model = make_model(0.2, list(range(1, 13)))
    part1 = make_partition("loc", [[5, 6, 1]])
    part2 = make_partition("loc", [[5, 6, 1], [5, 6, 1]])
    cl1 = le.CompositeLikelihood(part1, model)
    cl2 = le.CompositeLikelihood(part2, model)
    assert abs(cl2.loglik(1.3) - 2.0 * cl1.loglik(1.3)) < 1e-12


def test_three_pair_group_weighted_sum(demo_dataset):
    # one group of three sequence types, differences 5, 6, 1: the value is
    # the plain sum of pair log-likelihoods scaled by 3^{-1/2}
    model = make_model(0.25, np.arange(12, 0, -1))
    cl = le.CompositeLikelihood(make_partition("loc", [[5, 6, 1]]), model)
    w = 3.0 ** -0.5
    expected = w * sum(loglik(model, 1.0, x) for x in (5, 6, 1))
    assert abs(cl.loglik(1.0) - expected) < 1e-12


def test_loglik_is_the_pairwise_dot_product():
    # the cached arrays must give exactly the per-pair sum, in pair order
    model = make_model(0.2, list(range(1, 16)))
    rng = np.random.default_rng(4)
    part = make_partition(
        "loc", [rng.integers(1, 16, size=k).tolist() for k in rng.choice([1, 3, 6], size=60)]
    )
    cl = le.CompositeLikelihood(part, model)
    for lam in (0.0, 0.3, 1.0, 12.0):
        assert cl.loglik(lam) == float(np.dot(part.w, pl.log_pmf(model, lam)[part.x - 1]))


def test_out_of_range_x_names_the_pair():
    model = make_model(0.2, [0.2, 0.3, 0.5])
    # pairs (1,2) x=1; (3,4) x=2, (3,5) x=3, (4,5) x=4; (6,7) x=5: the first
    # pair outside 1..m is named
    with pytest.raises(InvalidParamsError, match=r"pair \(4,5\) has x=4 outside 1\.\.3"):
        le.CompositeLikelihood(make_partition("loc", [[1], [2, 3, 4], [5]]), model)
    with pytest.raises(InvalidParamsError, match=r"pair \(1,2\) has x=0 outside 1\.\.3"):
        le.CompositeLikelihood(singleton_partition("loc", [0, 2]), model)


def test_partition_and_pmf_of_different_loci_are_refused():
    q = make_q([0.2, 0.3, 0.5])
    assert q.locus == "loc"
    with pytest.raises(ModelError, match=r"locus 'gltA' paired with the import pmf of locus 'loc'"):
        le.CompositeLikelihood(singleton_partition("gltA", [1, 2, 3]), pl.PairModel(0.2, q))


def test_non_finite_score_at_zero_names_the_pair():
    # m = 450, r = 1/7: at lam = 0 the true score exceeds float range from
    # x = 369 on, so a pair there must stop the fit rather than give sigma^2 = inf
    model = pl.PairModel(r=1.0 / 7.0, q=random_q(450, 11))
    cl = le.CompositeLikelihood(make_partition("loc", [[3], [20, 400, 370], [450]]), model)
    with pytest.raises(
        NonFiniteError, match=r"locus loc: score at lam=0\.0 is inf for pair \(3,5\) with x=400"
    ):
        cl.scores_by_group(0.0)
    assert np.all(np.isfinite(cl.scores_by_group(0.5).u))
    below = le.CompositeLikelihood(singleton_partition("loc", [3, 20, 368]), model)
    assert np.all(np.isfinite(below.scores_by_group(0.0).u))


def test_empty_partition_raises():
    model = make_model(0.2, [0.5, 0.5])
    cl = le.CompositeLikelihood(make_partition("loc", []), model)
    with pytest.raises(EmptyPartitionError):
        cl.loglik(1.0)


# -- maximization ------------------------------------------------------------------


def test_all_mutation_data_maximizes_at_zero():
    # every pair shows a single difference while imports would bring many:
    # recombination explains nothing, the maximum sits at the boundary
    q = make_q([1e-6] * 10 + [0.2, 0.3, 0.5])
    model = pl.PairModel(r=0.2, q=q)
    cl = le.CompositeLikelihood(singleton_partition("loc", [1] * 20), model)
    lam_hat, cl_max, at_boundary = le.maximize(cl)
    assert lam_hat == 0.0
    assert at_boundary
    # dense-grid oracle over t
    ts = np.linspace(0.0, lam_to_t(DEFAULT_TOL.lambda_max), 100_001)
    vals = [cl.loglik(t_to_lam(t)) for t in ts]
    assert int(np.argmax(vals)) == 0
    assert cl_max >= max(vals) - 1e-12


def test_recovers_lambda_from_model_samples():
    q = random_q(30, seed=21)
    model = pl.PairModel(r=1.0 / 7.0, q=q)
    probs = pl.pmf(model, 1.0)
    rng = np.random.default_rng(99)
    xs = rng.choice(np.arange(1, 31), size=10_000, p=probs)
    cl = le.CompositeLikelihood(singleton_partition("loc", xs.tolist()), model)
    lam_hat, _, at_boundary = le.maximize(cl)
    assert not at_boundary
    assert 0.9 < lam_hat < 1.1


# -- alpha / sigma fit ---------------------------------------------------------------


def equicorrelated_groups(alpha, sigma2, sizes, seed):
    rng = np.random.default_rng(seed)
    out = []
    for k in sizes:
        cov = sigma2 * ((1 - alpha) * np.eye(k) + alpha * np.ones((k, k)))
        chol = np.linalg.cholesky(cov)
        out.append(chol @ rng.standard_normal(k))
    return grouped_scores(out)


def test_alpha_sigma_consistency():
    groups = equicorrelated_groups(0.3, 4.0, [3] * 500, seed=2024)
    fit = le.fit_alpha_sigma(groups)
    assert 0.2 < fit.alpha < 0.4
    assert 3.4 < fit.sigma2 < 4.6


def test_alpha_unidentifiable_with_singletons():
    groups = [np.array([v]) for v in np.random.default_rng(1).normal(size=50)]
    with pytest.raises(AlphaUnidentifiableError):
        le.fit_alpha_sigma(grouped_scores(groups))


def test_alpha_null_consistency():
    groups = equicorrelated_groups(0.0, 1.0, [2] * 1000, seed=7)
    fit = le.fit_alpha_sigma(groups)
    assert fit.alpha < 0.1


def test_degenerate_scores():
    with pytest.raises(DegenerateScoresError):
        le.fit_alpha_sigma(grouped_scores([np.array([1.0, 1.0]), np.array([1.0, 1.0])]))


def test_degenerate_scores_name_the_locus_at_mlst_geometry():
    # m = 450, r = 1/7: a group of three STs whose three pairs all differ
    # at 4 sites has identical scores, whatever lambda-hat is
    q = make_q(np.exp(-np.arange(450) / 12.0), locus="flat")
    flat = le.CompositeLikelihood(
        make_partition("flat", [[4, 4, 4], [4]]), pl.PairModel(1.0 / 7.0, q)
    )
    message = "locus flat: all scores identical"
    with pytest.raises(DegenerateScoresError) as err:
        le.fit_all_loci([flat], alpha_mode="per-locus")
    assert str(err.value) == message
    for mode in ("common", "per-locus"):
        with pytest.raises(DegenerateScoresError) as err:
            le.fit_all_loci([_grouped_cl(seed=5), flat], alpha_mode=mode)
        assert str(err.value) == message


def test_fit_beats_alpha_zero_moment_start():
    groups = equicorrelated_groups(0.5, 2.0, [3, 3, 6, 10, 1, 3], seed=11)
    fit = le.fit_alpha_sigma(groups)
    mom_sigma2 = le.sigma2_given_alpha(groups, 0.0)
    baseline = loglik_alpha_sigma(groups, 0.0, mom_sigma2)
    assert loglik_alpha_sigma(groups, fit.alpha, fit.sigma2) >= baseline - 1e-12


# -- vectorised group sums against per-group loops -----------------------------------


def _loop_quad_form(groups, alpha):
    total = 0.0
    for v in groups:
        k = len(v)
        a_k = 1.0 / (1.0 - alpha)
        b_k = -alpha / ((1.0 - alpha) * (1.0 + (k - 1) * alpha))
        t = float(np.sum(v))
        total += a_k * float(np.dot(v, v)) + b_k * t * t
    return total


def _loop_loglik_alpha_sigma(groups, alpha, sigma2):
    total = 0.0
    for v in groups:
        k = len(v)
        total -= 0.5 * k * math.log(sigma2 * (1.0 - alpha))
        total -= 0.5 * math.log((1.0 + (k - 1) * alpha) / (1.0 - alpha))
    return total - 0.5 * _loop_quad_form(groups, alpha) / sigma2


def _loop_godambe(partition, alpha, sigma2):
    by_group = {}
    for gid, w in zip(partition.group_id.tolist(), partition.w.tolist()):
        by_group.setdefault(gid, []).append(w)
    i_unit = j_unit = 0.0
    for ws in by_group.values():
        w = np.asarray(ws)
        sum_w, sum_w2 = float(w.sum()), float(np.dot(w, w))
        i_unit += sum_w
        j_unit += sum_w2 + alpha * (sum_w * sum_w - sum_w2)
    return sigma2 * i_unit, sigma2 * j_unit, j_unit / i_unit


def _rel_close(got, want):
    return abs(got - want) <= 1e-12 * max(abs(got), abs(want), 1.0)


# scores on a 1/8 lattice sum exactly in any order, so only the order of the
# cross-group sum differs between the loop and the vectorised form
ragged_groups = st.lists(
    st.lists(st.integers(-40, 40).map(lambda v: v / 8.0), min_size=1, max_size=6).map(np.array),
    min_size=1,
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(ragged_groups, st.floats(0.0, 0.9), st.floats(0.5, 4.0))
def test_group_sums_match_per_group_loops(groups, alpha, sigma2):
    g = grouped_scores(groups)
    assert _rel_close(le._quad_form(g, alpha), _loop_quad_form(groups, alpha))
    assert _rel_close(
        loglik_alpha_sigma(g, alpha, sigma2),
        _loop_loglik_alpha_sigma(groups, alpha, sigma2),
    )


@settings(max_examples=100, deadline=None)
@given(ragged_groups)
def test_fit_alpha_sigma_matches_per_group_loop(groups):
    # Two golden-section runs on objectives that differ in the last bits may
    # stop at different points within the optimizer tolerance, so the loop
    # reference is compared on the profile and at the returned alpha, not by
    # a second maximization.
    assume(max(len(v) for v in groups) >= 2)
    pooled = np.concatenate(groups)
    assume(pooled.max() > pooled.min())
    n = len(pooled)
    g = grouped_scores(groups)
    fit = le.fit_alpha_sigma(g)
    assert _rel_close(fit.sigma2, _loop_quad_form(groups, fit.alpha) / n)
    assert _rel_close(
        loglik_alpha_sigma(g, fit.alpha, fit.sigma2),
        _loop_loglik_alpha_sigma(groups, fit.alpha, fit.sigma2),
    )
    for alpha in (0.0, 0.3, 0.9, 0.999, DEFAULT_TOL.alpha_cap):
        sigma2 = le.sigma2_given_alpha(g, alpha)
        assert _rel_close(sigma2, _loop_quad_form(groups, alpha) / n)
        assert _rel_close(
            loglik_alpha_sigma(g, alpha, sigma2),
            _loop_loglik_alpha_sigma(groups, alpha, sigma2),
        )


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=12), st.floats(0.0, 0.99))
def test_godambe_matches_per_group_loop(present, alpha):
    # a group of n members keeps k of its n(n-1)/2 pairs (k = 0 drops it)
    assume(sum(present) > 0)
    groups = []
    for k in present:
        n = 2
        while n * (n - 1) // 2 < k:
            n += 1
        groups.append((n, [1] * k))
    part = partition_from_groups("loc", groups)
    got = le.godambe(part, alpha, sigma2=1.7)
    want = _loop_godambe(part, alpha, sigma2=1.7)
    assert all(_rel_close(g, w) for g, w in zip(got, want))


# -- information quantities -----------------------------------------------------------


def test_gamma_one_for_all_pair_groups():
    part = make_partition("loc", [[4], [7], [2], [9]])
    for alpha in (0.0, 0.3, 0.9):
        info_i, info_j, gamma = le.godambe(part, alpha, sigma2=2.5)
        assert abs(gamma - 1.0) < 1e-15
        assert abs(info_i - info_j) < 1e-12


def test_gamma_known_value_for_mixed_groups():
    # group sizes 3 and 2 -> pair counts 3 and 1
    part = make_partition("loc", [[5, 6, 1], [4]])
    _, _, gamma = le.godambe(part, alpha=0.5, sigma2=1.0)
    assert abs(gamma - 3.0 / (1.0 + math.sqrt(3.0))) < 1e-12


def test_gamma_alpha_zero():
    part = make_partition("loc", [[5, 6, 1], [4], [1, 2, 3, 4, 5, 6]])
    ks = [3, 1, 6]
    _, _, gamma = le.godambe(part, alpha=0.0, sigma2=3.0)
    assert abs(gamma - len(ks) / sum(math.sqrt(k) for k in ks)) < 1e-12


def test_info_formulas_and_sigma_independence():
    part = make_partition("loc", [[5, 6, 1], [4]])
    sigma2 = 1.7
    info_i, info_j, gamma = le.godambe(part, alpha=0.5, sigma2=sigma2)
    assert abs(info_i - sigma2 * (math.sqrt(3) + 1.0)) < 1e-12
    assert abs(info_j - sigma2 * (2.0 + 0.5 * 2.0)) < 1e-12
    _, _, gamma2 = le.godambe(part, alpha=0.5, sigma2=42.0)
    assert abs(gamma - gamma2) < 1e-15


# -- deviance CI -----------------------------------------------------------------------


def _fitted(seed=3, lam_true=1.0, n=400, gamma_alpha=0.0):
    q = random_q(25, seed=seed)
    model = pl.PairModel(r=1.0 / 7.0, q=q)
    probs = pl.pmf(model, lam_true)
    rng = np.random.default_rng(seed)
    xs = rng.choice(np.arange(1, 26), size=n, p=probs)
    cl = le.CompositeLikelihood(singleton_partition("loc", xs.tolist()), model)
    lam_hat, cl_max, _ = le.maximize(cl)
    return cl, lam_hat, cl_max


def test_ci_brackets_and_hits_threshold():
    cl, lam_hat, cl_max = _fitted()
    lower, upper = le.deviance_ci(cl.loglik, cl.locus, lam_hat, cl_max, gamma=1.0, level=0.95)
    assert lower <= lam_hat <= upper
    threshold = chi2_quantile(0.95, 1)
    for endpoint in (lower, upper):
        w = 2.0 * (cl_max - cl.loglik(endpoint))
        assert abs(w - threshold) <= 1e-4


def test_ci_lower_clamps_at_zero():
    q = make_q([1e-6] * 10 + [0.2, 0.3, 0.5])
    model = pl.PairModel(r=0.2, q=q)
    cl = le.CompositeLikelihood(singleton_partition("loc", [1] * 20), model)
    lam_hat, cl_max, _ = le.maximize(cl)
    lower, upper = le.deviance_ci(cl.loglik, cl.locus, lam_hat, cl_max, gamma=1.0)
    assert lam_hat == 0.0
    assert lower == 0.0
    assert upper > 0.0


def test_doubling_gamma_widens_interval():
    cl, lam_hat, cl_max = _fitted(seed=13)
    lo1, hi1 = le.deviance_ci(cl.loglik, cl.locus, lam_hat, cl_max, gamma=1.0)
    lo2, hi2 = le.deviance_ci(cl.loglik, cl.locus, lam_hat, cl_max, gamma=2.0)
    assert lo2 < lo1 and hi2 > hi1


def test_deviance_nonnegative_and_zero_at_max():
    cl, lam_hat, cl_max = _fitted(seed=17)
    for lam in (0.0, 0.2, lam_hat, 2.0, 50.0):
        w = 2.0 * (cl_max - cl.loglik(lam))
        assert w >= -1e-10
    assert abs(2.0 * (cl_max - cl.loglik(lam_hat))) < 1e-9


# -- full locus fit ---------------------------------------------------------------------


def _grouped_cl(seed=5, lam_true=1.0):
    q = random_q(25, seed=seed)
    model = pl.PairModel(r=1.0 / 7.0, q=q)
    probs = pl.pmf(model, lam_true)
    rng = np.random.default_rng(seed + 1)
    # mixed group sizes: mostly pairs, some triples (3 pairs each)
    groups = []
    for _ in range(60):
        groups.append([int(v) for v in rng.choice(np.arange(1, 26), size=1, p=probs)])
    for _ in range(30):
        groups.append([int(v) for v in rng.choice(np.arange(1, 26), size=3, p=probs)])
    return le.CompositeLikelihood(make_partition("loc", groups), model)


def test_fit_locus_end_to_end():
    cl = _grouped_cl()
    [fit] = le.fit_all_loci([cl], level=0.95, alpha_mode="per-locus")
    assert fit.ci_lower <= fit.lam_hat <= fit.ci_upper
    assert 0.0 <= fit.alpha < 1.0
    assert fit.sigma2 > 0.0
    assert fit.gamma > 0.0
    assert fit.n_pairs == 60 + 90
    assert fit.n_groups == 90
    assert fit.alpha_source == "locus"


def test_fit_locus_reproducible():
    a = le.fit_all_loci([_grouped_cl()], level=0.95, alpha_mode="per-locus")
    b = le.fit_all_loci([_grouped_cl()], level=0.95, alpha_mode="per-locus")
    assert a == b


def test_fit_all_loci_common_alpha():
    cls = [_grouped_cl(seed=5), _grouped_cl(seed=6), _grouped_cl(seed=7)]
    fits = le.fit_all_loci(cls, alpha_mode="common")
    assert len({f.alpha for f in fits}) == 1
    assert all(f.alpha_source == "common" for f in fits)
    own = le.fit_all_loci(cls, alpha_mode="per-locus")
    assert all(f.alpha_source == "locus" for f in own)
    expected = sum(f.alpha for f in own) / 3.0
    assert abs(fits[0].alpha - expected) < 1e-12


def test_fit_all_loci_per_locus_mode():
    cls = [_grouped_cl(seed=5), _grouped_cl(seed=6)]
    fits = le.fit_all_loci(cls, alpha_mode="per-locus")
    own = [le.fit_all_loci([c], alpha_mode="per-locus")[0] for c in cls]
    assert [f.alpha for f in fits] == [f.alpha for f in own]


def test_fit_all_loci_singleton_locus_inherits_common():
    singleton_model = make_model(0.2, list(range(1, 26))[::-1], locus="solo")
    lonely = le.CompositeLikelihood(
        singleton_partition("solo", [3, 8, 2, 14, 5, 9, 1, 1, 2, 6]), singleton_model
    )
    cls = [_grouped_cl(seed=5), lonely]
    fits = le.fit_all_loci(cls, alpha_mode="per-locus")
    own = le.fit_all_loci([cls[0]], alpha_mode="per-locus")[0]
    assert fits[1].alpha == pytest.approx(own.alpha)
    assert fits[1].alpha_source == "common"
    # with size-2 groups only, gamma is 1 whatever alpha is
    assert abs(fits[1].gamma - 1.0) < 1e-12
