"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion. The simulation-based criteria share two cached experiment
runs (a null run at N=2000 and a power run at N=10000); everything is
seeded, so the suite is deterministic.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from conftest import DEMO, load_demo_dataset
from helpers import grouped_scores, random_q

from slvrate import experiment as ex
from slvrate import locus_estimator as le
from slvrate import pair_likelihood as pl
from slvrate import simulate as sim
from slvrate import slv
from slvrate.cli import main as cli_main
from slvrate.joint_inference import variation_test, variation_weights
from slvrate.numerics import chi2_quantile, reg_inc_gamma
from slvrate.parallel import usable_cores
from slvrate.pipeline import AnalysisOptions

GRID_LAM = [0.0, 0.1, 1.0, 10.0, 100.0]
GRID_R = [0.05, 1.0 / 7.0, 0.3]

SEVEN_LOCI = tuple((f"g{i}", 450) for i in range(7))


# -- shared heavy runs (cached at module scope) ----------------------------------


@pytest.fixture(scope="module")
def null_experiment():
    """theta=100 over 7 loci, lambda=1, N=2000, 100 replicates."""
    design = ex.SimDesign(
        kind="coverage",
        replicates=100,
        sim=sim.SimConfig(
            n_samples=2000,
            loci=SEVEN_LOCI,
            theta=tuple(100.0 / 7.0 for _ in range(7)),
            lam=tuple(1.0 for _ in range(7)),
            import_model=sim.CompleteImport(p_a=0.8),
            seed=20_26,
        ),
        analysis=AnalysisOptions(p_a=0.8, draws=30_000),
    )
    return ex.run_experiment(design, workers=usable_cores())  # same report for any count


@pytest.fixture(scope="module")
def power_experiment():
    """One locus at rate 1, six at rate 3 (equal locus recombination rates
    with 3x mutation-rate variation), N=10000, 50 replicates."""
    c = 3.0
    design = ex.SimDesign(
        kind="power",
        replicates=50,
        sim=sim.SimConfig(
            n_samples=10_000,
            loci=SEVEN_LOCI,
            theta=(20.0,) + tuple(20.0 / c for _ in range(6)),
            lam=(1.0,) + tuple(c for _ in range(6)),
            import_model=sim.CompleteImport(p_a=0.8),
            seed=9_41,
        ),
        analysis=AnalysisOptions(p_a=0.8, draws=30_000),
    )
    return ex.run_experiment(design, workers=usable_cores())  # same report for any count


# -- criterion 1: golden SLV table -------------------------------------------------


def test_criterion_01_golden_slv_table():
    dataset = load_demo_dataset()
    parts = {name: slv.extract_slv(dataset, name) for name in dataset.locus_names}
    assert parts["aspA"].n_pairs == 0
    gln = parts["glnA"]
    glt = parts["gltA"]

    def rows(part):
        return list(zip(part.st_a.tolist(), part.st_b.tolist(), part.x.tolist()))

    assert rows(gln) == [(2, 3, 1)]
    assert rows(glt) == [(4, 5, 5), (4, 6, 6), (5, 6, 1)]
    all_x = gln.x.tolist() + glt.x.tolist()
    assert all_x == [1, 5, 6, 1]
    assert gln.group_size.tolist() == [2]
    assert glt.group_size.tolist() == [3]
    assert gln.w.tolist() == [1.0]
    assert glt.w.tolist() == [3.0 ** -0.5] * 3


# -- criterion 2: likelihood correctness -------------------------------------------


def test_criterion_02_likelihood_suite():
    from test_pair_likelihood import _fd_score, _mp_score_at_zero

    for r in GRID_R:
        for m, seed in ((3, 101), (40, 102), (200, 103)):
            q = random_q(m, seed)
            model = pl.PairModel(r=r, q=q)
            for lam in GRID_LAM:
                logp = pl.log_pmf(model, lam)
                assert abs(float(np.sum(np.exp(logp))) - 1.0) <= 1e-12
                probs = np.exp(logp)
                scores = pl.score_vector(model, lam)
                assert abs(float(np.dot(probs, scores))) <= 1e-10
                xs = range(1, m + 1, max(1, m // 5))
                for x in xs:
                    if lam > 0.0:
                        ref = _fd_score(model, lam, x)
                    else:
                        ref = _mp_score_at_zero(model, x)
                    err = abs(scores[x - 1] - ref)
                    assert err <= 1e-6 * max(1.0, abs(scores[x - 1]), abs(ref))


# -- criterion 3: information ratio formula ------------------------------------------


def test_criterion_03_gamma_formula():
    from helpers import make_partition

    pairs_only = make_partition("loc", [[4], [9], [2]])
    for alpha in (0.0, 0.17, 0.5, 0.93):
        _, _, gamma = le.godambe(pairs_only, alpha, sigma2=1.3)
        assert gamma == 1.0
    mixed = make_partition("loc", [[5, 6, 1], [4]])
    _, _, gamma = le.godambe(mixed, alpha=0.5, sigma2=2.0)
    assert abs(gamma - 3.0 / (1.0 + math.sqrt(3.0))) <= 1e-12


# -- criterion 4: score-correlation fit consistency -----------------------------------


def test_criterion_04_alpha_sigma_recovery():
    rng = np.random.default_rng(2024)
    alpha_true, sigma2_true, k = 0.3, 4.0, 3
    cov = sigma2_true * ((1 - alpha_true) * np.eye(k) + alpha_true * np.ones((k, k)))
    chol = np.linalg.cholesky(cov)
    groups = [chol @ rng.standard_normal(k) for _ in range(500)]
    fit = le.fit_alpha_sigma(grouped_scores(groups))
    assert 0.2 < fit.alpha < 0.4
    assert 3.4 < fit.sigma2 < 4.6


# -- criterion 5: cross-locus scaling identities ---------------------------------------


def test_criterion_05_scaling_identities():
    values = [1.4, 0.7, 2.9, 1.1, 0.4]
    nu1, eta = variation_weights(values, values)
    assert abs(nu1 - 1.0) <= 1e-10
    assert np.allclose(eta, 1.0, atol=1e-9)

    # distinct I and J: the mean route must equal the eigenvalue sum
    nu1, eta = variation_weights(values, [2.2, 0.9, 3.3, 1.8, 0.5])
    assert abs(nu1 * (len(values) - 1) - float(np.sum(eta))) <= 1e-8

    assert abs(chi2_quantile(0.95, 1) - 3.8415) <= 1e-4
    assert abs(reg_inc_gamma(0.5, 3.8415 / 2.0) - 0.95) <= 1e-4


# -- criterion 6: model-matched recovery ------------------------------------------------


@pytest.mark.parametrize("lam", [0.2, 1.0, 5.0])
def test_criterion_06_model_matched_recovery(lam):
    loci = tuple((f"g{i}", 420 + 20 * i) for i in range(7))
    means = tuple(8.0 + 2.0 * i for i in range(7))
    design = ex.RecoveryDesign(
        replicates=100,
        lam=lam,
        loci=loci,
        import_means=means,
        n_pairs=400,
        seed=77,
    )
    report = ex.run_experiment(design)
    rel_bias = report.metrics["individual_bias"].value / lam
    assert abs(rel_bias) <= 0.10
    assert report.metrics["joint_rmse"].value < report.metrics["individual_rmse"].value


# -- criteria 7 and 8: coverage and test size at desk scale ------------------------------


def test_criterion_07_interval_coverage(null_experiment):
    coverage = null_experiment.metrics["individual_coverage"].value
    assert 0.85 <= coverage <= 0.99


def test_criterion_08_variation_test_size(null_experiment):
    size = null_experiment.metrics["rejection_rate"].value
    assert 0.01 <= size <= 0.13


# -- criterion 9: variation-test power ----------------------------------------------------


def test_criterion_09_variation_test_power(power_experiment, null_experiment):
    power = power_experiment.metrics["rejection_rate"].value
    null_size = null_experiment.metrics["rejection_rate"].value
    assert power >= 0.6
    assert power > null_size


# -- criterion 10: reproducibility ---------------------------------------------------------


def test_criterion_10_reproducibility(tmp_path):
    ds = ["--profiles", str(DEMO / "profiles.tsv"), "--alleles-dir", str(DEMO)]

    a = tmp_path / "dist_a.json"
    b = tmp_path / "dist_b.json"
    for out in (a, b):
        code = cli_main(["import-dist", *ds, "--locus", "gltA", "-M", "5000",
                         "--seed", "3", "--out", str(out)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()

    est_a = tmp_path / "est_a.json"
    est_b = tmp_path / "est_b.json"
    for out in (est_a, est_b):
        code = cli_main(["estimate", *ds, "-M", "5000", "--seed", "3", "--out", str(out)])
        assert code == 0
    assert est_a.read_bytes() == est_b.read_bytes()

    cfg = {
        "design": "recovery",
        "replicates": 4,
        "lambda": 1.0,
        "loci": [{"name": "a", "length": 150}, {"name": "b", "length": 200}],
        "import_means": [8.0, 11.0],
        "n_pairs": 100,
        "seed": 9,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    assert cli_main(["experiment", "--config", str(cfg_path), "--out-dir", str(serial)]) == 0
    assert cli_main(["experiment", "--config", str(cfg_path), "--out-dir", str(threaded),
                     "--threads", "4"]) == 0
    assert (serial / "report.json").read_bytes() == (threaded / "report.json").read_bytes()
    assert (serial / "replicates.tsv").read_bytes() == (threaded / "replicates.tsv").read_bytes()
