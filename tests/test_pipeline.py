from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from slvrate import pipeline as pp
from slvrate import simulate as sim
from slvrate.errors import InvalidParamsError
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


def test_fit_loci_is_the_per_locus_part_of_the_analysis(demo_dataset):
    opts = AnalysisOptions(draws=2000, seed=9)
    fitted = pp.fit_loci(demo_dataset, opts)
    full = pp.analyze_dataset(demo_dataset, opts)
    assert fitted.joint is None and fitted.variation is None
    assert fitted.locus_fits == full.locus_fits
    assert fitted.skipped_loci == full.skipped_loci
    assert [cl.locus for cl in fitted.likelihoods] == ["glnA", "gltA"]


def test_zero_recombination_gives_small_estimates():
    # null check: with no recombination the per-locus rate estimates
    # should collapse toward zero
    estimates = []
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
        analysis = pp.analyze_dataset(res.dataset, AnalysisOptions(draws=4000, seed=rep))
        estimates.extend(f.lam_hat for f in analysis.locus_fits)
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


# -- import distributions in forked workers ------------------------------------------------


@pytest.fixture(scope="module")
def four_loci():
    """Four simulated loci; at ``few`` every ST but one names an allele the
    dataset does not hold, so it has one usable unit and no import
    distribution."""
    cfg = sim.SimConfig(
        n_samples=300,
        loci=(("a", 300), ("b", 300), ("c", 300), ("few", 300)),
        theta=(6.0, 6.0, 6.0, 6.0),
        lam=(1.0, 1.0, 1.0, 1.0),
        import_model=sim.GeometricImport(mean=8.0),
        seed=21,
    )
    dataset = sim.simulate(cfg).dataset
    st_ids, alleles, counts = dataset.profile_arrays
    few = alleles[:, 3]
    ids, held_by = np.unique(few, return_counts=True)
    # every allele id but one, which a single ST names, is moved past the
    # ids the dataset holds: one to one, so the other loci keep their groups
    moved = np.where(few == ids[held_by == 1][0], few, few + 10**9)
    alleles = np.column_stack([alleles[:, :3], moved])
    return dataclasses.replace(dataset, profile_arrays=(st_ids, alleles, counts))


@pytest.mark.parametrize("workers", [2, 3, 9])
def test_import_dists_and_fits_do_not_depend_on_the_worker_count(four_loci, workers):
    opts = AnalysisOptions(draws=3000, seed=4)
    serial = pp.build_import_dists(four_loci, opts)
    forked = pp.build_import_dists(four_loci, opts, workers=workers)
    assert list(forked) == list(serial) == ["a", "b", "c"]
    assert pp.locus_import_dist(four_loci, opts, 3) is None
    for name, dist in serial.items():
        assert np.array_equal(forked[name].q, dist.q)
        assert forked[name].provenance == dist.provenance
    a = pp.analyze_dataset(four_loci, opts)
    b = pp.analyze_dataset(four_loci, opts, workers=workers)
    assert a.skipped_loci == b.skipped_loci and "few" in a.skipped_loci
    assert a.locus_fits == b.locus_fits
    assert a.joint == b.joint
    assert a.variation == b.variation


@pytest.mark.parametrize(
    "failing, first, raised",
    [({1, 2}, "b", InvalidParamsError), ({2, 3}, "c", RuntimeError),
     ({1}, "b", InvalidParamsError)],
    ids=["child first", "parent first", "child only"],
)
def test_the_first_failing_locus_is_raised_and_no_worker_outlives_it(
    four_loci, monkeypatch, failing, first, raised
):
    # with two workers the parent estimates loci 0 and 2, the child 1 and 3
    original = pp.estimate_import_dist

    def broken(table, **kwargs):
        index = four_loci.locus_index(table.locus)
        if index in failing:
            error = InvalidParamsError if index % 2 else RuntimeError
            raise error(f"locus {table.locus} broke")
        return original(table, **kwargs)

    monkeypatch.setattr(pp, "estimate_import_dist", broken)
    opts = AnalysisOptions(draws=1000)
    for workers in (1, 2):
        with pytest.raises(raised, match=f"locus {first} broke"):
            pp.build_import_dists(four_loci, opts, workers=workers)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failing", [{1, 2}, {2}, {0, 2}])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_the_first_failing_locus_error_is_raised(demo_dataset, monkeypatch, failing, workers):
    original = pp.locus_import_dist

    def broken(dataset, opts, index):
        if index in failing:
            raise InvalidParamsError(f"locus {index} broke")
        return original(dataset, opts, index)

    monkeypatch.setattr(pp, "locus_import_dist", broken)
    with pytest.raises(InvalidParamsError, match=f"^locus {min(failing)} broke$"):
        pp.build_import_dists(demo_dataset, AnalysisOptions(draws=500), workers=workers)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
