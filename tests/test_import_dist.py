from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slvrate import import_dist as imp
from slvrate import mlst_io
from slvrate.errors import InvalidParamsError, TooFewUnitsError


def _table(locus, x):
    n = len(x)
    return imp.PairwiseDiffTable.from_matrix(locus, list(range(1, n + 1)), np.array(x))


def _one_locus_dataset(sequences, mode="strict"):
    """Dataset whose locus ``locA`` carries ``sequences`` as alleles 1..n."""
    alleles = {
        "locA": [mlst_io.AlleleSequence("locA", i + 1, seq) for i, seq in enumerate(sequences)],
        "locB": [mlst_io.AlleleSequence("locB", 1, "AAAA")],
    }
    profiles = [mlst_io.StProfile(1, (1, 1)), mlst_io.StProfile(2, (2, 1))]
    dataset, _ = mlst_io.build_dataset(profiles, alleles, mode=mode)
    return dataset, alleles["locA"]


@st.composite
def _lenient_alleles(draw):
    # mostly ACGT with ambiguity codes and gaps, and some off-length alleles
    length = draw(st.integers(1, 40))
    sizes = st.sampled_from([length, length, length, length + 1, max(1, length - 2)])
    return [
        draw(st.text(alphabet="ACGTACGTN-RY", min_size=size, max_size=size))
        for size in draw(st.lists(sizes, min_size=2, max_size=12))
    ]


@settings(max_examples=60, deadline=None)
@given(sequences=_lenient_alleles())
def test_allele_distance_matrix_matches_per_pair_hamming(sequences):
    dataset, records = _one_locus_dataset(sequences, mode="lenient")
    modal = dataset.locus_meta("locA").length
    usable = [rec for rec in records if len(rec.sequence) == modal]
    ids, dist = imp.allele_distance_matrix(dataset, "locA")
    assert ids == [rec.allele_id for rec in usable]  # off-length alleles are left out
    assert dist.dtype == np.int64
    ref = [[mlst_io.hamming(a, b) for b in usable] for a in usable]
    assert dist.tolist() == ref


def _per_row_reference(stack):
    valid = stack != 255
    return np.stack(
        [np.count_nonzero((row != stack) & valid[i] & valid, axis=1) for i, row in enumerate(stack)]
    )


@pytest.mark.parametrize("masked", [False, True])
def test_allele_distance_matrix_at_mlst_scale(masked):
    # the benchmark's N = 50 000 geometry: ~500 alleles of a 450 bp locus,
    # descended from one ancestor so distances spread over 0..~60
    rng = np.random.default_rng(12)
    n, m = 520, 450
    codes = np.tile(rng.integers(0, 4, size=m, dtype=np.uint8), (n, 1))
    hits = rng.random((n, m)) < rng.uniform(0.0, 0.08, size=(n, 1))
    codes[hits] = rng.integers(0, 4, size=int(hits.sum()), dtype=np.uint8)
    if masked:
        codes[rng.random((n, m)) < 0.002] = 255
    sequences = ["".join("ACGTN"[min(c, 4)] for c in row) for row in codes]
    dataset, _ = _one_locus_dataset(sequences, mode="lenient" if masked else "strict")
    ids, dist = imp.allele_distance_matrix(dataset, "locA")
    assert ids == list(range(1, n + 1))
    assert dist.dtype == np.int64
    assert np.array_equal(dist, dist.T)
    assert not np.any(np.diag(dist))
    assert np.array_equal(dist, _per_row_reference(codes))
    assert dist.max() > 40


def test_allele_distance_matrix_refuses_loci_beyond_float32_exactness(monkeypatch):
    dataset, _ = _one_locus_dataset(["ACGT", "ACGA"])
    monkeypatch.setattr(imp, "_F32_EXACT", 5)
    assert imp.allele_distance_matrix(dataset, "locA")[1].tolist() == [[0, 1], [1, 0]]
    monkeypatch.setattr(imp, "_F32_EXACT", 4)
    with pytest.raises(InvalidParamsError, match="exact"):
        imp.allele_distance_matrix(dataset, "locA")


def test_pairwise_diffs_two_sts():
    profiles = [mlst_io.StProfile(1, (1, 1)), mlst_io.StProfile(2, (2, 1))]
    alleles = {
        "locA": [mlst_io.AlleleSequence("locA", 1, "ACGT"), mlst_io.AlleleSequence("locA", 2, "ACGA")],
        "locB": [mlst_io.AlleleSequence("locB", 1, "AAAA")],
    }
    dataset, _ = mlst_io.build_dataset(profiles, alleles)
    table = imp.pairwise_diffs(dataset, "locA")
    assert table.k == 2
    assert table.matrix().tolist() == [[0, 1], [1, 0]]


def test_pairwise_diffs_isolate_expansion():
    profiles = [
        mlst_io.StProfile(1, (1, 1), isolate_count=3),
        mlst_io.StProfile(2, (2, 1), isolate_count=1),
    ]
    alleles = {
        "locA": [mlst_io.AlleleSequence("locA", 1, "ACGT"), mlst_io.AlleleSequence("locA", 2, "ACGA")],
        "locB": [mlst_io.AlleleSequence("locB", 1, "AAAA")],
    }
    dataset, _ = mlst_io.build_dataset(profiles, alleles)
    table = imp.pairwise_diffs(dataset, "locA", weighting="by_isolate")
    assert table.k == 4
    mat = table.matrix()
    assert mat[:3, :3].sum() == 0  # three copies of the same allele
    assert mat[3, 0] == 1


def test_pairwise_diffs_demo_matches_slv_x(demo_dataset):
    table = imp.pairwise_diffs(demo_dataset, "gltA")
    mat = table.matrix()
    sts = list(table.units)
    i4, i5, i6 = sts.index(4), sts.index(5), sts.index(6)
    assert mat[i4, i5] == 5
    assert mat[i4, i6] == 6
    assert mat[i5, i6] == 1


def test_pairwise_diffs_too_few_units():
    profiles = [mlst_io.StProfile(1, (1, 1)), mlst_io.StProfile(2, (1, 2))]
    alleles = {
        "locA": [mlst_io.AlleleSequence("locA", 1, "ACGT")],
        "locB": [mlst_io.AlleleSequence("locB", 1, "AAAA"), mlst_io.AlleleSequence("locB", 2, "AAAT")],
    }
    dataset, report = mlst_io.build_dataset(
        [profiles[0], mlst_io.StProfile(2, (9, 2))], alleles, mode="lenient"
    )
    with pytest.raises(TooFewUnitsError):
        imp.pairwise_diffs(dataset, "locA")


def test_estimate_analytic_limit_pa_one():
    # units 1,2,3 with x12=x13=4, x23=2; sampling mass 4/9 on 4, 2/9 on 2
    table = _table("loc", [[0, 4, 4], [4, 0, 2], [4, 2, 0]])
    dist = imp.estimate_import_dist(table, m=5, p_a=1.0, draws=100_000, seed=42)
    assert abs(dist.q[4 - 1] - 2.0 / 3.0) < 0.02
    assert abs(dist.q[2 - 1] - 1.0 / 3.0) < 0.02


def test_estimate_single_unit_gives_uniform_smoothing():
    table = _table("loc", [[0]])
    dist = imp.estimate_import_dist(table, m=7, p_a=0.5, draws=1000, seed=1)
    assert np.allclose(dist.q, 1.0 / 7.0)


def test_estimate_beta_binomial_limit_pa_zero():
    # all off-diagonal differences are 4; thinning by a fresh Uniform gives
    # Binomial(4, U) whose marginal is uniform on 0..4 (beta-binomial with
    # a flat prior), so conditioned on x >= 1 each of 1..4 gets 1/4
    k = 6
    x = np.full((k, k), 4)
    np.fill_diagonal(x, 0)
    table = _table("loc", x.tolist())
    dist = imp.estimate_import_dist(table, m=8, p_a=0.0, draws=100_000, seed=9)
    for val in range(1, 5):
        assert abs(dist.q[val - 1] - 0.25) < 0.02
    # beyond the support only smoothing mass remains
    assert dist.q[5:].max() < 1e-4


def test_pmf_sums_to_one_and_positive():
    table = _table("loc", [[0, 3], [3, 0]])
    for seed in (0, 1, 2):
        for pa in (0.0, 0.3, 1.0):
            dist = imp.estimate_import_dist(table, m=10, p_a=pa, draws=5000, seed=seed)
            assert abs(float(dist.q.sum()) - 1.0) <= 1e-12
            assert float(dist.q.min()) > 0.0
            floor = 1.0 / (5000 + 10)
            assert float(dist.q.min()) >= floor * 0.999


def test_determinism_and_seed_sensitivity():
    table = _table("loc", [[0, 4, 7], [4, 0, 3], [7, 3, 0]])
    a = imp.estimate_import_dist(table, m=9, p_a=0.8, draws=20_000, seed=123)
    b = imp.estimate_import_dist(table, m=9, p_a=0.8, draws=20_000, seed=123)
    c = imp.estimate_import_dist(table, m=9, p_a=0.8, draws=20_000, seed=124)
    assert np.array_equal(a.q, b.q)
    assert not np.array_equal(a.q, c.q)


def test_two_seeds_agree_within_monte_carlo_error():
    table = _table("loc", [[0, 4, 7], [4, 0, 3], [7, 3, 0]])
    draws = 1_000_000
    a = imp.estimate_import_dist(table, m=9, p_a=0.8, draws=draws, seed=8)
    b = imp.estimate_import_dist(table, m=9, p_a=0.8, draws=draws, seed=9)
    for qa, qb in zip(a.q, b.q):
        se = math.sqrt(max(qa * (1 - qa), 1e-12) / draws)
        # the difference of two independent estimates has sd sqrt(2)*se
        assert abs(qa - qb) < 3 * math.sqrt(2) * se


def test_pa_one_matches_empirical_conditional():
    rng = np.random.default_rng(7)
    k = 30
    vals = rng.integers(0, 12, size=(k, k))
    x = np.triu(vals, 1)
    x = x + x.T
    table = _table("loc", x.tolist())
    draws = 1_000_000
    dist = imp.estimate_import_dist(table, m=12, p_a=1.0, draws=draws, seed=11)
    # empirical conditional distribution of x_ij given x_ij > 0 over ordered pairs
    flat = x.flatten()
    flat = flat[flat > 0]
    target = np.bincount(flat, minlength=13)[1:] / len(flat)
    cdf_got = np.cumsum(dist.q)
    cdf_ref = np.cumsum(target)
    assert np.max(np.abs(cdf_got - cdf_ref)) < 0.01


def test_invalid_params():
    table = _table("loc", [[0, 4], [4, 0]])
    with pytest.raises(InvalidParamsError):
        imp.estimate_import_dist(table, m=3, p_a=0.5, draws=100, seed=0)  # m < max diff
    with pytest.raises(InvalidParamsError):
        imp.estimate_import_dist(table, m=5, p_a=1.5, draws=100, seed=0)
    with pytest.raises(InvalidParamsError):
        imp.estimate_import_dist(table, m=5, p_a=0.5, draws=0, seed=0)


def test_json_round_trip():
    table = _table("loc", [[0, 2], [2, 0]])
    dist = imp.estimate_import_dist(table, m=4, p_a=0.8, draws=1000, seed=3)
    doc = dist.to_json_dict()
    back = imp.ImportDistribution.from_json_dict(doc)
    assert back.locus == dist.locus and back.m == dist.m
    assert np.allclose(back.q, dist.q)
    assert back.provenance == dist.provenance
