from __future__ import annotations

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slvrate import import_dist as imp
from slvrate import mlst_io
from slvrate import simulate as sim
from slvrate.errors import InvalidParamsError, TooFewUnitsError

from helpers import (
    StProfile,
    build_from_records,
    diff_matrix,
    random_lenient_dataset,
    reference_units,
    table_from_matrix,
)


def _one_locus_dataset(sequences, mode="strict"):
    """Dataset whose locus ``locA`` carries ``sequences`` as alleles 1..n."""
    alleles = {
        "locA": [mlst_io.AlleleSequence("locA", i + 1, seq) for i, seq in enumerate(sequences)],
        "locB": [mlst_io.AlleleSequence("locB", 1, "AAAA")],
    }
    profiles = [StProfile(1, (1, 1)), StProfile(2, (2, 1))]
    dataset, _ = build_from_records(profiles, alleles, mode=mode)
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
    assert dist.dtype == np.uint8  # the narrowest type that holds 0..m at m < 256
    ref = [[mlst_io.hamming(a, b) for b in usable] for a in usable]
    assert dist.tolist() == ref


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pairwise_diffs_matches_per_profile_reference(seed):
    dataset = random_lenient_dataset(np.random.default_rng(seed))
    assume(dataset is not None)
    for locus in dataset.locus_names:
        for weighting in ("by_st", "by_isolate"):
            units, index = reference_units(dataset, locus, weighting)
            if len(units) < 2:
                with pytest.raises(TooFewUnitsError):
                    imp.pairwise_diffs(dataset, locus, weighting)
                continue
            table = imp.pairwise_diffs(dataset, locus, weighting)
            assert np.array_equal(table.allele_index, index)


def _per_row_reference(stack):
    valid = stack != 255
    return np.stack(
        [np.count_nonzero((row != stack) & valid[i] & valid, axis=1) for i, row in enumerate(stack)]
    )


def _mlst_scale_codes(masked, n=520, m=450):
    # the benchmark's N = 50 000 geometry: ~500 alleles of a 450 bp locus,
    # descended from one ancestor so distances spread over 0..~60
    rng = np.random.default_rng(12)
    codes = np.tile(rng.integers(0, 4, size=m, dtype=np.uint8), (n, 1))
    hits = rng.random((n, m)) < rng.uniform(0.0, 0.08, size=(n, 1))
    codes[hits] = rng.integers(0, 4, size=int(hits.sum()), dtype=np.uint8)
    if masked:
        codes[rng.random((n, m)) < 0.002] = 255
    return codes


def _sequences(codes):
    return ["".join("ACGTN"[min(c, 4)] for c in row) for row in codes]


@pytest.mark.parametrize("masked", [False, True])
def test_allele_distance_matrix_at_mlst_scale(masked):
    codes = _mlst_scale_codes(masked)
    n = len(codes)
    dataset, _ = _one_locus_dataset(_sequences(codes), mode="lenient" if masked else "strict")
    ids, dist = imp.allele_distance_matrix(dataset, "locA")
    assert ids == list(range(1, n + 1))
    assert dist.dtype == np.uint16  # the narrowest type that holds 0..450
    assert np.array_equal(dist, dist.T)
    assert not np.any(np.diag(dist))
    assert np.array_equal(dist, _per_row_reference(codes))
    assert dist.max() > 40


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("m, dtype", [(120, np.uint8), (450, np.uint16)])
@pytest.mark.parametrize(
    "n", [1, 2, imp._ROWS - 1, imp._ROWS, imp._ROWS + 1, imp._ROWS + 44, 2 * imp._ROWS + 1]
)
def test_allele_distance_matrix_across_row_blocks(n, m, dtype, masked):
    # the products run in blocks of imp._ROWS alleles: part of one block, one
    # block, a block and one or a few rows, and two blocks and one row
    codes = _mlst_scale_codes(masked, n, m)
    if masked:
        codes[0, 0] = 255  # at least one masked code, whatever n
    # lenient, as one allele leaves the second sequence type's allele unknown
    dataset, _ = _one_locus_dataset(_sequences(codes), mode="lenient")
    ids, dist = imp.allele_distance_matrix(dataset, "locA")
    assert ids == list(range(1, n + 1))
    assert dist.dtype == dtype
    assert np.array_equal(dist, dist.T)
    assert not np.any(np.diag(dist))
    assert np.array_equal(dist, _per_row_reference(codes))


def test_allele_distance_matrix_without_modal_length_alleles():
    dataset, _ = _one_locus_dataset(["ACGT", "ACGA"])
    loci = (mlst_io.LocusMeta("locA", 300), *dataset.loci[1:])
    ids, dist = imp.allele_distance_matrix(dataclasses.replace(dataset, loci=loci), "locA")
    assert ids == []
    assert dist.shape == (0, 0)
    assert dist.dtype == np.uint16


def test_allele_distance_matrix_memory_at_2000_alleles():
    # the result and one (A, m) float32 indicator, with room for the (A, m)
    # code copy and one (256, A) float32 block; two (A, A) float32
    # buffers, as the products once took, would not fit
    n, m = 2000, 450
    dataset, _ = _one_locus_dataset(_sequences(_mlst_scale_codes(False, n, m)))
    tracemalloc.start()
    try:
        ids, dist = imp.allele_distance_matrix(dataset, "locA")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.shape == (n, n) and dist.dtype == np.uint16
    assert peak < 1.5 * (dist.nbytes + 4 * n * m)


def test_allele_distance_matrix_refuses_loci_beyond_float32_exactness(monkeypatch):
    dataset, _ = _one_locus_dataset(["ACGT", "ACGA"])
    monkeypatch.setattr(imp, "_F32_EXACT", 5)
    assert imp.allele_distance_matrix(dataset, "locA")[1].tolist() == [[0, 1], [1, 0]]
    monkeypatch.setattr(imp, "_F32_EXACT", 4)
    with pytest.raises(InvalidParamsError, match="exact"):
        imp.allele_distance_matrix(dataset, "locA")


def test_import_stage_memory_at_mlst_scale():
    # the (A, A) distance matrix is held through all the sampling, so its
    # dtype sets much of the stage's peak: an int64 matrix took the traced
    # peak to ~3.9 MiB here, against ~3.2 MiB for uint16 with int32 draws
    # and two (A, A) float32 Gram buffers, and ~2.2 MiB once the products
    # accumulate in the uint16 matrix
    sequences = _sequences(_mlst_scale_codes(masked=False))
    n_sts = 2300
    alleles = {
        "locA": [mlst_io.AlleleSequence("locA", i + 1, seq) for i, seq in enumerate(sequences)],
        "locB": [mlst_io.AlleleSequence("locB", i + 1, seq)
                 for i, seq in enumerate(["AAAA", "AAAC", "AAAG", "AAAT", "AACA"])],
    }
    profiles = [
        StProfile(st + 1, (st % len(sequences) + 1, st // len(sequences) + 1))
        for st in range(n_sts)
    ]
    dataset, _ = build_from_records(profiles, alleles)
    tracemalloc.start()
    try:
        table = imp.pairwise_diffs(dataset, "locA")
        dist = imp.estimate_import_dist(table, m=450, p_a=0.8, draws=100_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.k == n_sts
    assert table.allele_dist.dtype == np.uint16
    assert table.allele_index.dtype == np.int32
    assert dist.q.sum() == pytest.approx(1.0)
    assert peak < 2.6 * 2**20


def test_pairwise_diffs_two_sts():
    profiles = [StProfile(1, (1, 1)), StProfile(2, (2, 1))]
    alleles = {
        "locA": [mlst_io.AlleleSequence("locA", 1, "ACGT"), mlst_io.AlleleSequence("locA", 2, "ACGA")],
        "locB": [mlst_io.AlleleSequence("locB", 1, "AAAA")],
    }
    dataset, _ = build_from_records(profiles, alleles)
    table = imp.pairwise_diffs(dataset, "locA")
    assert table.k == 2
    assert diff_matrix(table).tolist() == [[0, 1], [1, 0]]


def test_pairwise_diffs_isolate_expansion():
    profiles = [
        StProfile(1, (1, 1), isolate_count=3),
        StProfile(2, (2, 1), isolate_count=1),
    ]
    alleles = {
        "locA": [mlst_io.AlleleSequence("locA", 1, "ACGT"), mlst_io.AlleleSequence("locA", 2, "ACGA")],
        "locB": [mlst_io.AlleleSequence("locB", 1, "AAAA")],
    }
    dataset, _ = build_from_records(profiles, alleles)
    table = imp.pairwise_diffs(dataset, "locA", weighting="by_isolate")
    assert table.k == 4
    mat = diff_matrix(table)
    assert mat[:3, :3].sum() == 0  # three copies of the same allele
    assert mat[3, 0] == 1


def test_pairwise_diffs_demo_matches_slv_x(demo_dataset):
    table = imp.pairwise_diffs(demo_dataset, "gltA")
    mat = diff_matrix(table)
    sts = list(reference_units(demo_dataset, "gltA")[0])
    i4, i5, i6 = sts.index(4), sts.index(5), sts.index(6)
    assert mat[i4, i5] == 5
    assert mat[i4, i6] == 6
    assert mat[i5, i6] == 1


def test_pairwise_diffs_too_few_units():
    profiles = [StProfile(1, (1, 1)), StProfile(2, (1, 2))]
    alleles = {
        "locA": [mlst_io.AlleleSequence("locA", 1, "ACGT")],
        "locB": [mlst_io.AlleleSequence("locB", 1, "AAAA"), mlst_io.AlleleSequence("locB", 2, "AAAT")],
    }
    dataset, _ = build_from_records(
        [profiles[0], StProfile(2, (9, 2))], alleles, mode="lenient"
    )
    with pytest.raises(TooFewUnitsError):
        imp.pairwise_diffs(dataset, "locA")


def test_estimate_analytic_limit_pa_one():
    # units 1,2,3 with x12=x13=4, x23=2; sampling mass 4/9 on 4, 2/9 on 2
    table = table_from_matrix("loc", [[0, 4, 4], [4, 0, 2], [4, 2, 0]])
    dist = imp.estimate_import_dist(table, m=5, p_a=1.0, draws=100_000, seed=42)
    assert abs(dist.q[4 - 1] - 2.0 / 3.0) < 0.02
    assert abs(dist.q[2 - 1] - 1.0 / 3.0) < 0.02


def test_estimate_single_unit_gives_uniform_smoothing():
    table = table_from_matrix("loc", [[0]])
    dist = imp.estimate_import_dist(table, m=7, p_a=0.5, draws=1000, seed=1)
    assert np.allclose(dist.q, 1.0 / 7.0)


def test_estimate_beta_binomial_limit_pa_zero():
    # all off-diagonal differences are 4; thinning by a fresh Uniform gives
    # Binomial(4, U) whose marginal is uniform on 0..4 (beta-binomial with
    # a flat prior), so conditioned on x >= 1 each of 1..4 gets 1/4
    k = 6
    x = np.full((k, k), 4)
    np.fill_diagonal(x, 0)
    table = table_from_matrix("loc", x.tolist())
    dist = imp.estimate_import_dist(table, m=8, p_a=0.0, draws=100_000, seed=9)
    for val in range(1, 5):
        assert abs(dist.q[val - 1] - 0.25) < 0.02
    # beyond the support only smoothing mass remains
    assert dist.q[5:].max() < 1e-4


def test_pmf_sums_to_one_and_positive():
    table = table_from_matrix("loc", [[0, 3], [3, 0]])
    for seed in (0, 1, 2):
        for pa in (0.0, 0.3, 1.0):
            dist = imp.estimate_import_dist(table, m=10, p_a=pa, draws=5000, seed=seed)
            assert abs(float(dist.q.sum()) - 1.0) <= 1e-12
            assert float(dist.q.min()) > 0.0
            floor = 1.0 / (5000 + 10)
            assert float(dist.q.min()) >= floor * 0.999


def test_determinism_and_seed_sensitivity():
    table = table_from_matrix("loc", [[0, 4, 7], [4, 0, 3], [7, 3, 0]])
    a = imp.estimate_import_dist(table, m=9, p_a=0.8, draws=20_000, seed=123)
    b = imp.estimate_import_dist(table, m=9, p_a=0.8, draws=20_000, seed=123)
    c = imp.estimate_import_dist(table, m=9, p_a=0.8, draws=20_000, seed=124)
    assert np.array_equal(a.q, b.q)
    assert not np.array_equal(a.q, c.q)


def test_two_seeds_agree_within_monte_carlo_error():
    table = table_from_matrix("loc", [[0, 4, 7], [4, 0, 3], [7, 3, 0]])
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
    table = table_from_matrix("loc", x.tolist())
    draws = 1_000_000
    dist = imp.estimate_import_dist(table, m=12, p_a=1.0, draws=draws, seed=11)
    # empirical conditional distribution of x_ij given x_ij > 0 over ordered pairs
    flat = x.flatten()
    flat = flat[flat > 0]
    target = np.bincount(flat, minlength=13)[1:] / len(flat)
    cdf_got = np.cumsum(dist.q)
    cdf_ref = np.cumsum(target)
    assert np.max(np.abs(cdf_got - cdf_ref)) < 0.01


# SHA-256 of q.tobytes() at 70 000 draws, which span two blocks (65 536 +
# 4 464), at locus l1 of a simulated dataset whose sequence types hold up to
# 34 isolates each (recorded with numpy 2.4)
IMPORT_DIST_PINS = {
    ("by_st", 0.0): "2906262e2ff44c137b1b3fc2fd1fb28d4d9d8ee0a3ff770c3dff439bb50a4409",
    ("by_st", 0.8): "2173a465dd61541226282b46b4387d7b44eebe993776d257ea9505c0a510f0a6",
    ("by_st", 1.0): "5e8b8f05fd222b8429f8303d290d94804c67ba9ea91a0b427643e9ca5a93d9d3",
    ("by_isolate", 0.0): "0665dadfb216a91b68badecc0ac2d2e74fc9b9372c39a95e8ced97dd4aafe09b",
    ("by_isolate", 0.8): "6be374742f9d8edc941dccedbd9f18527140a663bba137a41da7a2fdf2d9a466",
    ("by_isolate", 1.0): "53678c2ae92283518e09bbb901ae84227c6e2fe18f456b4b93c717bd16171aad",
}


@pytest.fixture(scope="module")
def simulated_dataset():
    config = sim.SimConfig(
        n_samples=300,
        loci=(("l1", 50), ("l2", 60)),
        theta=(4.0, 4.0),
        lam=(1.0, 1.0),
        import_model=sim.GeometricImport(mean=5.0),
        seed=7,
    )
    return sim.simulate(config).dataset


@pytest.mark.parametrize("weighting, p_a", sorted(IMPORT_DIST_PINS))
def test_estimate_matches_pinned_bits(simulated_dataset, weighting, p_a):
    table = imp.pairwise_diffs(simulated_dataset, "l1", weighting)
    assert table.k == (60 if weighting == "by_st" else 300)
    dist = imp.estimate_import_dist(table, m=50, p_a=p_a, draws=70_000, seed=5)
    assert hashlib.sha256(dist.q.tobytes()).hexdigest() == IMPORT_DIST_PINS[weighting, p_a]


def _exact_pmf(table, m, p_a):
    """P(x), x = 0..m, of one draw of the sampling scheme in closed form:

        P(x) = p_a h(x) + (1 - p_a) sum_{d >= x} h(d) / (d + 1),

    where h is the distance histogram of two units drawn uniformly with
    replacement; a thinned draw, Binomial(d, U) with U uniform, is uniform
    on 0..d."""
    weight = np.bincount(table.allele_index, minlength=len(table.allele_dist)) / table.k
    h = np.bincount(table.allele_dist.ravel(), weights=np.outer(weight, weight).ravel(),
                    minlength=m + 1)
    return p_a * h + (1.0 - p_a) * np.cumsum((h / np.arange(1, m + 2))[::-1])[::-1]


def _tally(dist, draws):
    """The counts of x = 0..m behind an add-one smoothed pmf: q(x) is
    (c_x + 1) / D for x = 1..m, with D = draws + m - c_0. The rarest x
    has some count c, so D = (c + 1) / min q, and the true D is the first
    such value for which every D q(x) - 1 is an integer."""
    for rarest in range(draws + 1):
        scale = (rarest + 1) / dist.q.min()
        counts = scale * dist.q - 1.0
        if abs(scale - round(scale)) < 1e-6 and np.allclose(counts, np.round(counts), atol=1e-6):
            counts = np.round(counts).astype(np.int64)
            return np.concatenate([[draws - counts.sum()], counts])
    raise AssertionError("q is not an add-one smoothed tally")


def _pooled(observed, expected, least=5.0):
    """Adjacent cells merged until each expects at least ``least`` draws."""
    cells, obs, exp = [], 0, 0.0
    for o, e in zip(observed.tolist(), expected.tolist()):
        obs, exp = obs + o, exp + e
        if exp >= least:
            cells.append((obs, exp))
            obs, exp = 0, 0.0
    if exp and cells:
        cells[-1] = (cells[-1][0] + obs, cells[-1][1] + exp)
    return np.array(cells).T


@pytest.mark.parametrize("p_a", [0.0, 0.5, 0.8, 1.0])
def test_sampler_tallies_fit_the_exact_import_pmf(demo_dataset, simulated_dataset, p_a):
    # a chi-square goodness-of-fit test of each raw tally against the closed
    # form: 7 tallies at each of 4 values of p_a, each at level 0.001 / 28,
    # so the family of 28 is at level 0.001 (the draws are seeded, so each
    # outcome is fixed)
    draws = 20_000
    cases = [(demo_dataset, locus, "by_st") for locus in demo_dataset.locus_names]
    cases += [(simulated_dataset, locus, weighting) for locus in simulated_dataset.locus_names
              for weighting in ("by_st", "by_isolate")]
    for dataset, locus, weighting in cases:
        table = imp.pairwise_diffs(dataset, locus, weighting)
        m = dataset.locus_meta(locus).length
        dist = imp.estimate_import_dist(table, m=m, p_a=p_a, draws=draws, seed=3)
        tally = _tally(dist, draws)
        exact = _exact_pmf(table, m, p_a)
        assert exact.sum() == pytest.approx(1.0)
        assert (tally[exact == 0] == 0).all(), (locus, weighting)
        observed, expected = _pooled(tally[exact > 0], draws * exact[exact > 0])
        if len(observed) > 1:
            p_value = scipy.stats.chisquare(observed, expected).pvalue
            assert p_value > 1e-3 / 28, (locus, weighting, p_value)


def test_invalid_params():
    table = table_from_matrix("loc", [[0, 4], [4, 0]])
    with pytest.raises(InvalidParamsError):
        imp.estimate_import_dist(table, m=3, p_a=0.5, draws=100, seed=0)  # m < max diff
    with pytest.raises(InvalidParamsError):
        imp.estimate_import_dist(table, m=5, p_a=1.5, draws=100, seed=0)
    with pytest.raises(InvalidParamsError):
        imp.estimate_import_dist(table, m=5, p_a=0.5, draws=0, seed=0)


def test_json_round_trip():
    table = table_from_matrix("loc", [[0, 2], [2, 0]])
    dist = imp.estimate_import_dist(table, m=4, p_a=0.8, draws=1000, seed=3)
    doc = dist.to_json_dict()
    back = imp.ImportDistribution.from_json_dict(doc)
    assert back.locus == dist.locus and back.m == dist.m
    assert np.allclose(back.q, dist.q)
    assert back.provenance == dist.provenance
