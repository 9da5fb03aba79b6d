from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from helpers import allele_records, profile_records, same_alleles

from slvrate import mlst_io
from slvrate import simulate as sim
from slvrate import slv
from slvrate.cli import main as cli_main
from slvrate.errors import InvalidImportModelError, InvalidParamsError
from slvrate.numerics import SeedDomain, derived_rng


def small_config(**kw):
    base = dict(
        n_samples=40,
        loci=(("l1", 50), ("l2", 60)),
        theta=(2.0, 2.0),
        lam=(1.0, 1.0),
        import_model=sim.GeometricImport(mean=5.0),
        seed=7,
    )
    base.update(kw)
    return sim.SimConfig(**base)


# -- coalescent ---------------------------------------------------------------


def test_pair_coalescence_time_mean():
    times = [
        sim.simulate_coalescent_tree(2, np.random.default_rng(i)).time[2]
        for i in range(10_000)
    ]
    assert 0.97 < float(np.mean(times)) < 1.03


def test_tree_height_matches_coalescent_formula():
    heights = [
        sim.simulate_coalescent_tree(10, np.random.default_rng(i)).time[-1]
        for i in range(4000)
    ]
    expected = 2.0 * (1.0 - 1.0 / 10.0)
    se = float(np.std(heights)) / math.sqrt(len(heights))
    assert abs(float(np.mean(heights)) - expected) < 3 * se


def test_leaf_count_and_topology():
    tree = sim.simulate_coalescent_tree(17, np.random.default_rng(3))
    assert tree.n_leaves == 17
    assert tree.n_nodes == 33
    assert (tree.parent[: tree.root] >= 0).all()
    assert tree.parent[tree.root] == -1
    # every internal node has exactly two children, each with a smaller id
    n_children = np.bincount(tree.parent[: tree.root], minlength=33)
    assert (n_children[17:] == 2).all()
    assert (n_children[:17] == 0).all()
    assert (tree.parent[: tree.root] > np.arange(tree.root)).all()
    # branch lengths non-negative, times increase toward the root
    assert (tree.branch_lengths() >= 0).all()


def test_event_count_calibration():
    # mutations on a branch of length t arrive at rate t * theta/2
    theta = 3.0
    rng = np.random.default_rng(11)
    lengths = rng.exponential(0.8, size=10_000)
    counts = rng.poisson(lengths * theta / 2.0)
    expected = float(np.mean(lengths)) * theta / 2.0
    se = float(np.std(counts)) / math.sqrt(len(counts))
    assert abs(float(np.mean(counts)) - expected) < 3 * se


def test_pairwise_difference_calibration():
    # without recombination, a pair differs by ~theta_l at a locus
    theta = 4.0
    diffs = []
    for i in range(4000):
        cfg = sim.SimConfig(
            n_samples=2,
            loci=(("a", 400), ("b", 400)),
            theta=(theta, theta),
            lam=(0.0, 0.0),
            import_model=sim.GeometricImport(mean=3.0),
            seed=i,
        )
        res = sim.simulate(cfg)
        if len(profile_records(res.dataset)) == 1:
            diffs.append(0)
            continue
        codes = res.dataset.allele_codes["a"][2]
        if len(codes) == 1:
            diffs.append(0)
        else:
            diffs.append(int((codes[0] != codes[1]).sum()))
    assert abs(float(np.mean(diffs)) - theta) / theta < 0.05


# -- overlay -------------------------------------------------------------------


def test_zero_rates_collapse_to_single_st():
    cfg = small_config(theta=(0.0, 0.0), lam=(0.0, 0.0), n_samples=20)
    res = sim.simulate(cfg)
    assert len(profile_records(res.dataset)) == 1
    assert profile_records(res.dataset)[0].isolate_count == 20
    assert set(res.st_of_sample) == {1}


def test_simulation_is_deterministic():
    cfg = small_config()
    a = sim.simulate(cfg)
    b = sim.simulate(cfg)
    assert profile_records(a.dataset) == profile_records(b.dataset)
    assert same_alleles(a.dataset, b.dataset)
    assert a.st_of_sample == b.st_of_sample
    c = sim.simulate(small_config(seed=8))
    assert (profile_records(c.dataset) != profile_records(a.dataset)
            or not same_alleles(c.dataset, a.dataset))


def test_st_identity_matches_sequences():
    res = sim.simulate(small_config(n_samples=60, seed=2))
    # samples sharing an ST have identical allele vectors; distinct STs differ
    by_st = {}
    for sample, st in enumerate(res.st_of_sample):
        by_st.setdefault(st, []).append(sample)
    profiles = {p.st_id: p.alleles for p in profile_records(res.dataset)}
    assert sum(len(v) for v in by_st.values()) == 60
    assert len(set(profiles.values())) == len(profiles)
    counts = {p.st_id: p.isolate_count for p in profile_records(res.dataset)}
    assert counts == {st: len(v) for st, v in by_st.items()}


def test_table_scale_directional_check():
    # theta=100 over 7 loci, lam=1, N=5000: sequence types and SLV pair
    # counts should be of the same order as published MLST simulations
    # (629 STs / 600 SLVs at this size); require a factor of 3
    loci = tuple((f"g{i}", 450) for i in range(7))
    theta = tuple(100.0 / 7.0 for _ in range(7))
    cfg = sim.SimConfig(
        n_samples=5000,
        loci=loci,
        theta=theta,
        lam=tuple(1.0 for _ in range(7)),
        import_model=sim.CompleteImport(p_a=0.8),
        seed=123,
    )
    res = sim.simulate(cfg)
    n_sts = len(profile_records(res.dataset))
    n_slv = sum(
        slv.extract_slv(res.dataset, name).n_pairs for name, _ in loci
    )
    assert 629 / 3 < n_sts < 629 * 3
    assert 600 / 3 < n_slv < 600 * 3


# -- import samplers -------------------------------------------------------------


def test_geometric_import_truncation_and_mean():
    sampler = sim._import_sampler(sim.GeometricImport(mean=6.0), m=40)
    rng = np.random.default_rng(5)
    draws = np.array([sampler(rng) for _ in range(20_000)])
    assert draws.min() >= 1 and draws.max() <= 40
    # truncation at m=40 barely bites, so the mean stays close to 6
    assert abs(float(draws.mean()) - 6.0) < 0.2


@pytest.mark.parametrize("mean", [1e16, 1e17, 1e300])
def test_geometric_import_of_a_huge_mean_is_near_uniform(mean):
    # 1 - (1 - p)^m rounds to 0 once the mean passes ~1e16, which drew D = 1
    # every time; the truncated geometric tends to the uniform on 1..m
    m = 50
    sampler = sim._import_sampler(sim.GeometricImport(mean=mean), m=m)
    rng = np.random.default_rng(5)
    draws = np.array([sampler(rng) for _ in range(4000)])
    assert draws.min() >= 1 and draws.max() <= m
    standard_error = math.sqrt((m * m - 1) / 12 / draws.size)
    assert abs(float(draws.mean()) - (m + 1) / 2) < 4 * standard_error


def test_empirical_import_replays_pmf():
    pmf = np.zeros(10)
    pmf[2] = 0.25  # D = 3
    pmf[7] = 0.75  # D = 8
    sampler = sim._import_sampler(sim.EmpiricalImport(tuple(pmf)), m=10)
    rng = np.random.default_rng(6)
    draws = np.array([sampler(rng) for _ in range(20_000)])
    assert set(np.unique(draws)) == {3, 8}
    assert abs(float(np.mean(draws == 8)) - 0.75) < 0.02


def test_complete_import_full_rewrites():
    sampler = sim._import_sampler(sim.CompleteImport(p_a=1.0), m=200)
    rng = np.random.default_rng(7)
    draws = np.array([sampler(rng) for _ in range(5000)])
    assert abs(float(draws.mean()) - 150.0) < 2.0  # Binomial(200, 3/4)


def test_import_model_validation():
    with pytest.raises(InvalidImportModelError):
        sim.GeometricImport(mean=0.5)
    with pytest.raises(InvalidImportModelError):
        sim.EmpiricalImport((0.5, 0.2))
    with pytest.raises(InvalidImportModelError):
        sim._import_sampler(sim.EmpiricalImport((0.5, 0.5)), m=5)
    with pytest.raises(InvalidParamsError):
        small_config(theta=(1.0,))
    with pytest.raises(InvalidParamsError):
        small_config(n_samples=1)
    for mean in (math.nan, math.inf):
        with pytest.raises(InvalidImportModelError, match="finite"):
            sim.GeometricImport(mean=mean)
    with pytest.raises(InvalidImportModelError):
        sim.EmpiricalImport((math.nan, 1.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidParamsError, match="finite"):
            small_config(theta=(bad, 2.0))
        with pytest.raises(InvalidParamsError, match="finite"):
            small_config(lam=(1.0, bad))
    with pytest.raises(InvalidParamsError, match="locus l1: theta = 1e"):
        sim.simulate(small_config(theta=(1e300, 2.0)))


def test_per_locus_import_models():
    cfg = small_config(
        import_model={
            "l1": sim.GeometricImport(mean=4.0),
            "l2": sim.CompleteImport(p_a=0.9),
        }
    )
    res = sim.simulate(cfg)
    assert len(profile_records(res.dataset)) >= 1
    with pytest.raises(InvalidImportModelError):
        small_config(import_model={"l1": sim.GeometricImport(mean=4.0)}).import_for("l2")
    extra = {"l1": sim.GeometricImport(mean=4.0), "l2": sim.CompleteImport(p_a=0.9),
             "zz": sim.GeometricImport(mean=3.0)}
    with pytest.raises(InvalidImportModelError,
                       match=r"^import_model: import model for unknown locus 'zz'$"):
        small_config(import_model=extra)


# -- golden outputs ------------------------------------------------------------
#
# SHA-256 digests of simulate() output and of the simulate command's files.
# They pin the draw order documented in the simulate module and the
# materialisation bit for bit. They also depend on numpy's Generator
# streams, which NEP 19 lets numpy change between releases (recorded with
# numpy 2.4).

_EMPIRICAL_PMF = tuple((np.arange(50, 0, -1) / np.arange(50, 0, -1).sum()).tolist())

GOLDEN_CONFIGS = {
    "geometric": dict(n_samples=300, theta=(6.0, 6.0), lam=(1.5, 0.0)),
    "complete": dict(
        n_samples=300,
        loci=(("l1", 120), ("l2", 90), ("l3", 150)),
        theta=(5.0, 4.0, 6.0),
        lam=(1.0, 2.0, 0.5),
        import_model=sim.CompleteImport(p_a=0.8),
    ),
    "empirical": dict(
        n_samples=300,
        loci=(("l1", 50), ("l2", 50)),
        theta=(4.0, 3.0),
        lam=(2.0, 1.0),
        import_model=sim.EmpiricalImport(_EMPIRICAL_PMF),
    ),
    "per_locus": dict(
        n_samples=300,
        loci=(("l1", 80), ("l2", 100), ("l3", 50)),
        theta=(5.0, 5.0, 5.0),
        lam=(1.0, 1.0, 3.0),
        import_model={
            "l1": sim.GeometricImport(mean=4.0),
            "l2": sim.CompleteImport(p_a=0.5),
            "l3": sim.EmpiricalImport(_EMPIRICAL_PMF),
        },
    ),
    "n200": dict(n_samples=200, theta=(5.0, 3.0), lam=(1.0, 2.0)),
    "zero_rates": dict(n_samples=50, theta=(0.0, 0.0), lam=(0.0, 0.0)),
    "n5000": dict(
        n_samples=5000,
        loci=tuple((f"g{i}", 450) for i in range(7)),
        theta=tuple(100.0 / 7.0 for _ in range(7)),
        lam=tuple(1.0 for _ in range(7)),
        import_model=sim.CompleteImport(p_a=0.8),
        seed=123,
    ),
    # on the longest branch, about 485 expected mutations at locus a and 390
    # mutations and imports at b, so one (node, locus) cell folds hundreds of
    # changes into the same few sites; a shift held past 255 would overflow
    "crowded": dict(
        n_samples=3,
        loci=(("a", 2), ("b", 3)),
        theta=(1000.0, 400.0),
        lam=(0.0, 1.0),
        import_model=sim.GeometricImport(mean=1.5),
    ),
    # 19 distinct leaf anchors but 16 STs: distinct anchors share a sequence
    "shared_sequence": dict(
        n_samples=40,
        loci=(("a", 1), ("b", 2)),
        theta=(4.0, 4.0),
        lam=(0.5, 0.5),
        import_model=sim.GeometricImport(mean=1.5),
        seed=3,
    ),
}

GOLDEN_DIGESTS = {
    "complete": "2e1c0f66a6b2d5e9f97e34cb36fe95c62476d90154c599605a234d6ca5bc37aa",
    "crowded": "539f705c615fcd1bc21d23360099e2fc973714c0ee2c7ffbbfb1cc51e0edeec5",
    "empirical": "3ba09a2d45a2a6532ea64da461deae67a0c12325025cf9ed0577ee4bcd181d74",
    "geometric": "ab44c1518b82dc7f989a7c17e4c66d08a3ef1b14607778dd05ab3c7aca29f0fa",
    "n200": "5c856f4b64aa359431cc095ca166c027c4f6ad05619738f0ac5a3c3b804e5637",
    "n5000": "28e7bb918b1ee00afa832b750feab1fbf7156e6a4ffc46982d8b628c961cbc2e",
    "per_locus": "25cc2663cefefff4677b3b3d05603685e9c75eaac355a9c0ee8e25c17d9686e6",
    "shared_sequence": "8a63511cd3e73c6d0a77cf84d0c0da6019a824f8cbcb346ab521abb41a46e6ac",
    "zero_rates": "8cb3444beb0a6a3d867569c47ff5ba99dd40cd7ba73e1ca3f7a95ccebc3d1d4f",
}


def simulation_digest(res: sim.SimResult) -> str:
    """SHA-256 over the profiles, allele sequences (in (locus name, id) order), locus
    metadata with each locus's allele count, the sample-to-ST map and an
    empty tuple, which held the simulator's event log when the digests
    were pinned."""
    digest = hashlib.sha256()
    for part in (
        [(p.st_id, p.alleles, p.isolate_count) for p in profile_records(res.dataset)],
        [
            ((name, aid), rec.sequence)
            for name in sorted(res.dataset.allele_codes)
            for aid, rec in allele_records(res.dataset, name).items()
        ],
        [
            (meta.name, meta.length, len(res.dataset.allele_codes[meta.name][0]))
            for meta in res.dataset.loci
        ],
        res.st_of_sample,
        (),
    ):
        digest.update(repr(part).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_simulation_matches_golden_digest(name):
    res = sim.simulate(small_config(**GOLDEN_CONFIGS[name]))
    assert simulation_digest(res) == GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(set(GOLDEN_CONFIGS) - {"zero_rates"}))
def test_assembled_dataset_matches_the_validated_one(tmp_path, name):
    # the simulator assembles its dataset without build_dataset; written out,
    # parsed back and validated strictly, it comes back the same (the profile
    # table holds no isolate counts, so they are carried over by ST)
    dataset = sim.simulate(small_config(**GOLDEN_CONFIGS[name])).dataset
    assert len(profile_records(dataset)) >= 2
    (tmp_path / "profiles.tsv").write_text(mlst_io.profiles_text(dataset), encoding="utf-8")
    alleles = {}
    for locus in dataset.locus_names:
        path = tmp_path / f"{locus}.fas"
        path.write_text(mlst_io.allele_fasta_text(dataset, locus), encoding="utf-8")
        alleles[locus] = mlst_io.parse_allele_fasta(path)
    st_ids, vectors, _ = mlst_io.parse_profiles(tmp_path / "profiles.tsv", dataset.locus_names)
    count = {p.st_id: p.isolate_count for p in profile_records(dataset)}
    profiles = (st_ids, vectors, np.array([count[st_id] for st_id in st_ids.tolist()]))
    rebuilt, repairs = mlst_io.build_dataset(profiles, alleles, mode="strict")
    assert repairs == ()
    assert rebuilt.loci == dataset.loci
    assert profile_records(rebuilt) == profile_records(dataset)
    for locus in dataset.locus_names:
        assert rebuilt.usable_mask(locus).all() and dataset.usable_mask(locus).all()
    assert same_alleles(rebuilt, dataset)


def test_overlay_keeps_one_shift_per_busy_cell():
    # replicate 0 of the sim_null design; holding each event's site and
    # delta arrays until the whole genealogy is drawn peaked at 7.4 MiB
    config = small_config(
        n_samples=2000,
        loci=tuple((f"g{i}", 450) for i in range(7)),
        theta=tuple(100.0 / 7.0 for _ in range(7)),
        lam=tuple(1.0 for _ in range(7)),
        import_model=sim.CompleteImport(p_a=0.8),
        seed=1,
    )
    rng = derived_rng(config.seed, SeedDomain.SIMULATION, 0)
    tree = sim.simulate_coalescent_tree(config.n_samples, rng)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim.overlay_events(tree, config, rng)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


CLI_CONFIG = {
    "n_samples": 2000,
    "loci": [{"name": "a", "length": 300}, {"name": "b", "length": 250}, {"name": "c", "length": 200}],
    "theta": [8.0, 6.0, 5.0],
    "lambda": [1.0, 0.5, 2.0],
    "import": {"per_locus": {
        "a": {"model": "complete", "p_a": 0.8},
        "b": {"model": "geometric", "mean": 6.0},
        "c": {"model": "complete"},
    }},
    "seed": 4,
}
CLI_DIGEST = "a5842c0fca6a8a5f06db653f929021eeb752c91111744b27335bbadfed6056cc"


def test_simulate_cli_outputs_match_golden_digest(tmp_path, monkeypatch):
    # relative paths keep the input digest in truth.json's meta block stable
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(CLI_CONFIG), encoding="utf-8")
    assert cli_main(["simulate", "--config", "config.json", "--out-dir", "out"]) == 0
    digest = hashlib.sha256()
    for path in sorted((tmp_path / "out").iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert [p.name for p in sorted((tmp_path / "out").iterdir())] == [
        "a.fas", "b.fas", "c.fas", "profiles.tsv", "truth.json"
    ]
    assert digest.hexdigest() == CLI_DIGEST
