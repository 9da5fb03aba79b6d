from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import StProfile, build_from_records, loglik, make_model, make_q, random_q, unnormalized_mass

from slvrate import mlst_io, pair_likelihood as pl
from slvrate.errors import DegenerateRatioError, InvalidParamsError
from slvrate.numerics import DEFAULT_TOL


GRID_LAM = [0.0, 0.1, 1.0, 10.0, 100.0]
GRID_R = [0.05, 1.0 / 7.0, 0.3]


# -- theta ratios --------------------------------------------------------------


def _dataset_with_lengths(lengths):
    loci = [f"loc{i}" for i in range(len(lengths))]
    alleles = {
        locus: [
            mlst_io.AlleleSequence(locus, 1, "A" * n),
            mlst_io.AlleleSequence(locus, 2, "C" * n),
        ]
        for locus, n in zip(loci, lengths)
    }
    profiles = [
        StProfile(1, tuple(1 for _ in loci)),
        StProfile(2, tuple(2 for _ in loci)),
    ]
    dataset, _ = build_from_records(profiles, alleles)
    return dataset, loci


def test_theta_ratio_equal_lengths():
    dataset, loci = _dataset_with_lengths([450] * 7)
    ratios = pl.theta_ratios(dataset, "length")
    for locus in loci:
        assert abs(ratios[locus] - 1.0 / 7.0) < 1e-15
    assert abs(sum(ratios.values()) - 1.0) < 1e-12


def test_theta_ratio_two_lengths():
    dataset, _ = _dataset_with_lengths([400, 600])
    ratios = pl.theta_ratios(dataset, "length")
    assert abs(ratios["loc0"] - 0.4) < 1e-15
    assert abs(ratios["loc1"] - 0.6) < 1e-15


def test_theta_ratio_pairwise():
    seqs = {
        "locA": ("AAAAAAAA", "CCAAAAAA"),  # 2 differences
        "locB": ("AAAAAAAA", "GGAAAAAA"),  # 2
        "locC": ("AAAAAAAA", "TTTTAAAA"),  # 4
    }
    alleles = {
        locus: [mlst_io.AlleleSequence(locus, 1, a), mlst_io.AlleleSequence(locus, 2, b)]
        for locus, (a, b) in seqs.items()
    }
    profiles = [StProfile(1, (1, 1, 1)), StProfile(2, (2, 2, 2))]
    dataset, _ = build_from_records(profiles, alleles)
    ratios = pl.theta_ratios(dataset, "pairwise")
    assert abs(ratios["locA"] - 0.25) < 1e-12
    assert abs(ratios["locB"] - 0.25) < 1e-12
    assert abs(ratios["locC"] - 0.5) < 1e-12


def test_theta_ratio_cap():
    # 950 of 1000 bases: a rate share of 0.95, past the cap of 0.9
    dataset, _ = _dataset_with_lengths([950, 50])
    with pytest.raises(DegenerateRatioError, match=r"^rate share for loc0 is 0\.9500 > 0\.9; "):
        pl.theta_ratios(dataset, "length")


@pytest.mark.parametrize("r", [0.0, 1.0, math.nan])
def test_pair_model_rejects_a_rate_share_outside_zero_one(r):
    with pytest.raises(DegenerateRatioError, match=rf"^rate share for loc is {r}, not in \(0,1\)$"):
        pl.PairModel(r, make_q([0.5, 0.5]))


# -- mass / pmf ----------------------------------------------------------------


def test_mass_at_lam_zero_is_pure_geometric():
    model = make_model(0.3, [0.2, 0.3, 0.5])
    for x in (1, 2, 3):
        assert abs(unnormalized_mass(model, 0.0, x) - 0.3 ** x) < 1e-15
    assert pl.mixture_coeff(0.3, 0.0) == 0.0


def test_mass_worked_example():
    model = make_model(0.2, [0.2, 0.3, 0.5])
    c = pl.mixture_coeff(0.2, 1.0)
    assert abs(c - (0.25 - 0.2 / 1.8)) < 1e-15
    f1 = unnormalized_mass(model, 1.0, 1)
    f2 = unnormalized_mass(model, 1.0, 2)
    f3 = unnormalized_mass(model, 1.0, 3)
    assert abs(f1 - 0.1277777777777778) < 1e-14
    assert abs(f2 - 0.051666666666666666) < 1e-14
    assert abs(f3 - 0.07044444444444445) < 1e-14
    # normalized probability of one difference
    assert abs(math.exp(loglik(model, 1.0, 1)) - f1 / (f1 + f2 + f3)) < 1e-14
    assert abs(f1 / (f1 + f2 + f3) - 0.5113) < 5e-4


def test_pmf_tends_to_import_distribution_for_huge_lam():
    q = random_q(12, seed=4)
    model = pl.PairModel(r=1.0 / 7.0, q=q)
    probs = pl.pmf(model, 1e6)
    assert np.max(np.abs(probs - q.q)) < 1e-4


def test_truncated_geometric_two_bases():
    model = make_model(0.5, [0.5, 0.5])
    probs = pl.pmf(model, 0.0)
    assert abs(probs[0] - 2.0 / 3.0) < 1e-14
    assert abs(probs[1] - 1.0 / 3.0) < 1e-14


def test_normalization_grid():
    for r in GRID_R:
        for m, seed in ((3, 1), (30, 2), (500, 3)):
            q = random_q(m, seed)
            model = pl.PairModel(r=r, q=q)
            for lam in GRID_LAM:
                total = float(np.sum(np.exp(pl.log_pmf(model, lam))))
                assert abs(total - 1.0) <= 1e-12


def test_log_mass_matches_linear_where_linear_is_safe():
    model = make_model(0.2, [0.1, 0.2, 0.3, 0.4])
    for lam in (0.0, 0.5, 2.0):
        logf = pl.log_mass_vector(model, lam)
        for x in (1, 2, 3, 4):
            assert abs(math.exp(logf[x - 1]) - unnormalized_mass(model, lam, x)) < 1e-14


def _uncached_log_mass_and_pmf(model, lam):
    """log f and log pmf by the formula with no cached model constants."""
    xs = np.arange(1, model.q.m + 1, dtype=float)
    log_mut = xs * (math.log(model.r) - math.log1p(lam))
    c = pl.mixture_coeff(model.r, lam)
    logf = log_mut if c <= 0.0 else np.logaddexp(log_mut, math.log(c) + np.log(model.q.q))
    mx = float(np.max(logf))
    return logf, logf - (mx + math.log(float(np.sum(np.exp(logf - mx)))))


def test_log_pmf_bit_identical_at_mlst_geometry():
    # the model's cached x grid, log r and log q must not move a single bit
    model = pl.PairModel(r=1.0 / 7.0, q=random_q(450, 11))
    for lam in (0.0, 1e-9, 0.2, 1.0, 5.0, 123.4, DEFAULT_TOL.lambda_max):
        logf, logp = _uncached_log_mass_and_pmf(model, lam)
        assert np.array_equal(pl.log_mass_vector(model, lam), logf)
        assert np.array_equal(pl.log_pmf(model, lam), logp)


def test_mixture_coeff_properties():
    for r in GRID_R:
        assert pl.mixture_coeff(r, 0.0) == 0.0
        prev = -1.0
        for lam in (0.0, 0.01, 0.1, 1.0, 10.0, 1e4):
            c = pl.mixture_coeff(r, lam)
            assert c >= 0.0
            assert c >= prev
            prev = c


def test_tv_distance_to_import_nonincreasing():
    q = random_q(40, seed=9)
    model = pl.PairModel(r=0.2, q=q)
    lams = [0.0, 0.05, 0.2, 0.5, 1.0, 3.0, 10.0, 50.0, 300.0]
    tv = [0.5 * float(np.abs(pl.pmf(model, lam) - q.q).sum()) for lam in lams]
    for a, b in zip(tv, tv[1:]):
        assert b <= a + 1e-12


# -- score ---------------------------------------------------------------------


def _fd_score(model, lam, x):
    h = 1e-5 * (1.0 + lam)
    return (loglik(model, lam + h, x) - loglik(model, lam - h, x)) / (2.0 * h)


def _mp_score_at_zero(model, x):
    """High-precision one-sided finite difference at the lam = 0 boundary.

    The slope there can reach 10^200 for large x (the import mixture
    switches on from exactly zero against a geometric term r^x), so both
    the step size and the working precision adapt to a rough magnitude
    estimate: step ~ 1e-25 / slope keeps the one-sided truncation error
    near 1e-25 relative, and the precision covers the cancellation.
    """
    import mpmath as mp

    def loglik(lam_mp):
        r = mp.mpf(model.r)
        c = r / (1 - r) - r / (1 + lam_mp - r)
        masses = [
            (r / (1 + lam_mp)) ** xx + c * mp.mpf(float(model.q.q[xx - 1]))
            for xx in range(1, model.q.m + 1)
        ]
        return mp.log(masses[x - 1] / mp.fsum(masses))

    with mp.workdps(50):
        r = mp.mpf(model.r)
        rough = r / (1 - r) ** 2 * mp.mpf(float(model.q.q[x - 1])) / r ** x + x
    h_exp = 25 + max(0, int(mp.ceil(mp.log10(rough))))
    with mp.workdps(h_exp + 60):
        h = mp.mpf(10) ** -h_exp
        return float((loglik(h) - loglik(mp.mpf(0))) / h)


def test_score_identity_grid():
    for r in GRID_R:
        for m, seed in ((3, 5), (60, 6)):
            q = random_q(m, seed)
            model = pl.PairModel(r=r, q=q)
            for lam in GRID_LAM:
                probs = pl.pmf(model, lam)
                scores = pl.score_vector(model, lam)
                assert abs(float(np.dot(probs, scores))) <= 1e-10


def test_score_matches_finite_differences_grid():
    # central differences need lam - h >= 0, so the boundary point is
    # checked separately with a high-precision oracle below
    for r in GRID_R:
        for m, seed in ((3, 7), (40, 8)):
            q = random_q(m, seed)
            model = pl.PairModel(r=r, q=q)
            for lam in [v for v in GRID_LAM if v > 0.0]:
                scores = pl.score_vector(model, lam)
                for x in range(1, m + 1, max(1, m // 7)):
                    ref = _fd_score(model, lam, x)
                    err = abs(scores[x - 1] - ref)
                    assert err <= 1e-6 * max(1.0, abs(scores[x - 1]), abs(ref))


def test_score_at_zero_matches_high_precision_oracle():
    for r in GRID_R:
        for m, seed in ((3, 7), (40, 8)):
            q = random_q(m, seed)
            model = pl.PairModel(r=r, q=q)
            scores = pl.score_vector(model, 0.0)
            for x in range(1, m + 1, max(1, m // 5)):
                ref = _mp_score_at_zero(model, x)
                err = abs(scores[x - 1] - ref)
                assert err <= 1e-6 * max(1.0, abs(scores[x - 1]), abs(ref))


def test_score_at_zero_at_mlst_geometry():
    # m = 450, r = 1/7: at lam = 0 the mass ratio overflows to inf from
    # x = 369 on while its pmf weight underflows, which once made every score NaN
    model = pl.PairModel(r=1.0 / 7.0, q=random_q(450, 11))
    scores = pl.score_vector(model, 0.0)
    assert not np.any(np.isnan(scores))
    assert np.all(np.isfinite(scores[:300]))
    for x in (1, 2, 5, 20, 60, 150, 300):
        ref = _mp_score_at_zero(model, x)
        assert abs(scores[x - 1] - ref) <= 1e-6 * max(1.0, abs(ref))


def test_score_worked_example_against_fd():
    model = make_model(0.2, [0.2, 0.3, 0.5])
    got = pl.score(model, 1.0, 1)
    ref = _fd_score(model, 1.0, 1)
    assert abs(got - ref) < 1e-8


def test_score_flat_in_lam_limit():
    # at enormous lam the pmf is pinned to q, so the slope vanishes
    q = make_q([0.05, 0.05, 0.9])
    model = pl.PairModel(r=0.2, q=q)
    assert abs(pl.score(model, 1e6, 3)) < 1e-5


def test_domain_checks():
    model = make_model(0.2, [0.5, 0.5])
    with pytest.raises(InvalidParamsError):
        loglik(model, -0.5, 1)
    with pytest.raises(InvalidParamsError):
        loglik(model, 1.0, 3)
    with pytest.raises(InvalidParamsError):
        unnormalized_mass(model, 1.0, 0)
