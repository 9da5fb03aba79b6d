from __future__ import annotations

import numpy as np

from slvrate import pipeline as pp
from slvrate import simulate as sim
from slvrate.errors import SingularInfoError
from slvrate.pipeline import AnalysisOptions


def test_demo_dataset_full_analysis(demo_dataset):
    opts = AnalysisOptions(draws=5000, seed=3)
    result = pp.analyze_dataset(demo_dataset, opts)
    # aspA has no SLV pairs and is skipped; the other two carry 1 + 3 pairs
    assert result.skipped_loci == ("aspA",)
    assert [f.locus for f in result.locus_fits] == ["glnA", "gltA"]
    by_locus = {f.locus: f for f in result.locus_fits}
    assert by_locus["glnA"].n_pairs == 1
    assert by_locus["gltA"].n_pairs == 3
    assert result.joint is not None
    assert result.variation is not None
    assert result.variation.df == 1
    assert 0.0 <= result.variation.p_value <= 1.0
    for fit in result.locus_fits:
        assert fit.ci_lower <= fit.lam_hat <= fit.ci_upper


def test_analysis_reproducible(demo_dataset):
    opts = AnalysisOptions(draws=2000, seed=9)
    a = pp.analyze_dataset(demo_dataset, opts)
    b = pp.analyze_dataset(demo_dataset, opts)
    assert a.locus_fits == b.locus_fits
    assert a.joint == b.joint
    assert a.variation == b.variation


def test_import_seed_depends_on_locus_and_seed():
    seeds = {pp.locus_import_seed(7, i) for i in range(5)}
    assert len(seeds) == 5
    assert pp.locus_import_seed(7, 0) != pp.locus_import_seed(8, 0)
    assert pp.locus_import_seed(7, 3) == pp.locus_import_seed(7, 3)


def test_zero_recombination_gives_small_estimates():
    # null check: with no recombination the per-locus rate estimates
    # should collapse toward zero
    estimates = []
    singular = 0
    for rep in range(50):
        cfg = sim.SimConfig(
            n_samples=120,
            loci=(("a", 300), ("b", 300), ("c", 300)),
            theta=(3.0, 3.0, 3.0),
            lam=(0.0, 0.0, 0.0),
            import_model=sim.GeometricImport(mean=10.0),
            seed=500,
        )
        res = sim.simulate(cfg, replicate=rep)
        try:
            analysis = pp.analyze_dataset(
                res.dataset, AnalysisOptions(draws=4000, seed=rep)
            )
        except SingularInfoError:
            # a near-zero-information locus drives the Gauss-Jordan pivot of
            # the variation test to ~1e-17; known in 2 of these replicates
            singular += 1
            continue
        estimates.extend(f.lam_hat for f in analysis.locus_fits)
    assert singular == 2
    assert len(estimates) > 30
    assert float(np.median(estimates)) <= 0.1


def test_locus_without_pairs_reduces_test_df():
    # three simulated loci, one silenced (no mutation, no recombination):
    # it can never form SLV pairs, so the variation test runs on 2 loci
    cfg = sim.SimConfig(
        n_samples=400,
        loci=(("a", 300), ("b", 300), ("quiet", 300)),
        theta=(6.0, 6.0, 0.0),
        lam=(1.0, 1.0, 0.0),
        import_model=sim.GeometricImport(mean=8.0),
        seed=21,
    )
    res = sim.simulate(cfg)
    analysis = pp.analyze_dataset(res.dataset, AnalysisOptions(draws=4000, seed=2))
    assert "quiet" in analysis.skipped_loci
    if analysis.variation is not None:
        assert analysis.variation.df == len(analysis.locus_fits) - 1
